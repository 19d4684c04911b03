//! # flat-ledger
//!
//! The repo's benchmark. Four workloads (`compile`, `kernels`,
//! `serve-hit`, `serve-bulk`) are each timed end to end through public
//! APIs only — an untraced pass for the five end-to-end metrics, then a
//! traced pass that replays the workload's own cases through the whole
//! stack with spans recorded in this crate, filling a per-crate ledger.
//! Every timed operation is also output-checked; a mismatch is a failed
//! operation. See `README.md` for the workloads, the metric map and how
//! to read a run.

pub mod cases;
pub mod check;
pub mod compare;
pub mod manifest;
pub mod prepare;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;

use check::Tally;
use flat_obs::json::Value as Json;
use stats::{geomean, median, sort, tail};
use std::time::{Duration, Instant};
use timed::{Budget, Phase, Prepared, Service, SpeedProbe};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Seconds one pass measures.
    pub seconds: f64,
    /// Tiny shapes and counts, for tests; allowed in a debug build.
    pub smoke: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// Qualifier printed after the sample count (a tail's percentile).
    pub note: Option<String>,
}

impl Reading {
    /// A reading of a declared metric, with the unit the manifest gives.
    pub fn new(name: &str, value: f64, n: usize) -> Reading {
        let unit = manifest::END_TO_END
            .iter()
            .chain(&manifest::PER_LAYER)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit);
        Reading {
            name: name.to_string(),
            value,
            unit,
            n,
            note: None,
        }
    }

    /// A reading that is printed but not declared, with its own unit.
    pub fn extra(name: &str, value: f64, unit: &'static str, n: usize) -> Reading {
        Reading {
            name: name.to_string(),
            value,
            unit,
            n,
            note: None,
        }
    }

    pub fn line(&self) -> String {
        let note = self
            .note
            .as_ref()
            .map_or(String::new(), |n| format!(" {n}"));
        format!(
            "{} {} {} n={}{note}",
            self.name, self.value, self.unit, self.n
        )
    }
}

/// The result of one pass over one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics `BENCHMARK.json` declares for this pass, each once.
    pub readings: Vec<Reading>,
    /// Per-row and per-part detail that is printed but not declared.
    pub extras: Vec<Reading>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    fn from(readings: Vec<Reading>, extras: Vec<Reading>, tally: Tally) -> Outcome {
        Outcome {
            readings,
            extras,
            attempted: tally.attempted,
            failed: tally.failed,
            notes: tally.notes,
        }
    }

    /// The result object the benchmark contract asks for as the last
    /// line of standard output.
    pub fn result_json(&self) -> String {
        let metrics = self
            .readings
            .iter()
            .map(|r| {
                let entry = Json::object(vec![
                    ("value", Json::from(r.value)),
                    ("unit", Json::from(r.unit)),
                ]);
                (r.name.clone(), entry)
            })
            .collect();
        let doc = Json::object(vec![
            ("correct", Json::from(self.failed == 0)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Object(metrics)),
        ]);
        flat_obs::json::to_string(&doc).expect("result serializes")
    }
}

/// Threads and connections the load is generated with.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far, in MB.
pub fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Why a run may not report, if it may not: an unoptimised build, or an
/// observability sink attached to the process under measurement.
pub fn refusal(smoke: bool) -> Option<String> {
    if cfg!(debug_assertions) && !smoke {
        return Some(
            "refusing to report from a debug build; use --release (or --smoke)".to_string(),
        );
    }
    if flat_exec::telemetry_requested_by_env() {
        return Some("refusing to report with FLAT_OBS sinks attached; unset FLAT_OBS".to_string());
    }
    None
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Run conditions recorded with every report.
pub fn hygiene(opts: &Options) -> Vec<(&'static str, String)> {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("workload", opts.workload.clone()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("nproc", nproc().to_string()),
        ("loadavg_1m", load),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["--version"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    ]
}

/// The set-up is repeated at least this often; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
/// A quick set-up is repeated until it has been measured for this long
/// in total, so a 0.2 s set-up is not judged on three samples.
const SETUP_MEASURED_S: f64 = 3.0;
const MAX_SETUPS: usize = 7;

/// Operations per driver in the warm-up that ends set-up. Fixed counts,
/// so set-up does the same work however fast the machine is.
fn warmup_ops(workload: &str, smoke: bool) -> u64 {
    match (workload, smoke) {
        (_, true) => 2,
        ("compile", _) => 8,
        ("kernels", _) => 1,
        ("serve-hit", _) => 1500,
        _ => 8,
    }
}

fn row_geomean_ms(rows: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = rows.iter().map(|r| median(r) / 1e6).collect();
    geomean(&medians)
}

/// The untraced pass: the five end-to-end metrics.
///
/// `process_start` is when the process began; the first set-up is timed
/// from there, the repeats from their own start.
pub fn run_untraced(opts: &Options, process_start: Instant) -> Result<Outcome, String> {
    let cases = cases::cases(&opts.workload, opts.seed, opts.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let par = nproc();
    let warm = Budget::Ops(warmup_ops(&opts.workload, opts.smoke));
    let mut tally = Tally::default();

    let mut probe = SpeedProbe::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut rss_mb = 0.0;
    let mut prepared = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_MEASURED_S)
    {
        // Tear the previous set-up down before the clock starts.
        drop(prepared.take());
        let started = if setups.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let mut factors = vec![probe.factor()];
        let mut p = Prepared::build(&opts.workload, &cases, par, opts.seed, &mut tally)?;
        factors.push(probe.factor());
        p.phase(1, warm, &mut tally);
        p.phase(par, warm, &mut tally);
        factors.push(probe.factor());
        // At reference clock, like the operation times.
        let factor = factors.iter().sum::<f64>() / factors.len() as f64;
        setups.push(started.elapsed().as_secs_f64() / factor);
        if setups.len() == 1 {
            // Peak memory of one set-up and its fixed warm-up: not at
            // exit, where it would grow with how many operations a faster
            // build fits in the window, and not after the repeats, whose
            // torn-down daemons leave the heap in a different state each
            // run.
            rss_mb = vm_hwm_mb()?;
        }
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("MIN_SETUPS >= 1");
    prepared.start_from(cases::first_case(opts.seed, cases.len()));

    // t1, tn, t1, tn: alternating slices cancel drift between the two.
    const SLICES: u32 = 2;
    let slice = Duration::from_secs_f64(opts.seconds / (2 * SLICES) as f64);
    let (mut t1, mut tn) = (Phase::default(), Phase::default());
    for _ in 0..SLICES {
        t1.absorb(prepared.phase(1, Budget::Until(Instant::now() + slice), &mut tally));
        tn.absorb(prepared.phase(par, Budget::Until(Instant::now() + slice), &mut tally));
    }
    let names: Vec<String> = match &prepared {
        Prepared::Kernels { rows } => rows.iter().map(|r| r.case.name.clone()).collect(),
        _ => Vec::new(),
    };
    drop(prepared);

    let samples = |p: &Phase| p.rows.iter().map(Vec::len).sum::<usize>();
    let readings = vec![
        Reading::new("setup_s", median(&setups), setups.len()),
        Reading::new("op_ms_t1", row_geomean_ms(&t1.rows), samples(&t1)),
        Reading::new("op_ms_tn", row_geomean_ms(&tn.rows), samples(&tn)),
        Reading::new("ops_per_s", tn.ops_per_s(), tn.ops as usize),
        Reading::new("peak_rss_mb", rss_mb, 1),
    ];

    let mut extras = Vec::new();
    for (suffix, phase) in [("t1", &t1), ("tn", &tn)] {
        let ms =
            |name: String, value_ns: f64, n: usize| Reading::extra(&name, value_ns / 1e6, "ms", n);
        // What the wall clock read, before the clock-speed correction.
        extras.push(Reading::extra(
            &format!("op_wall_ms.{suffix}"),
            row_geomean_ms(&phase.raw),
            "ms",
            samples(phase),
        ));
        for (name, row) in names.iter().zip(&phase.rows) {
            extras.push(ms(format!("op_ms.{name}.{suffix}"), median(row), row.len()));
        }
        for (part, ns) in &phase.parts {
            extras.push(ms(format!("{part}.{suffix}"), median(ns), ns.len()));
        }
        // The tail, where one row makes a pooled tail meaningful.
        if let [row] = phase.rows.as_slice() {
            let mut sorted = row.clone();
            sort(&mut sorted);
            if let Some((p, ns)) = tail(&sorted) {
                extras.push(Reading {
                    note: Some(format!("p{p}")),
                    ..ms(format!("op_tail_ms.{suffix}"), ns, sorted.len())
                });
            }
        }
    }
    Ok(Outcome::from(readings, extras, tally))
}

/// Where build products go: `$CARGO_TARGET_DIR`, else `target`. The
/// trace and `--all`'s result set are written under its `ledger/`.
pub fn target_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), Into::into)
}

/// Spans written to the Chrome trace; the medians use all of them.
const TRACE_FILE_SPANS: usize = 20_000;

/// The traced pass: the per-layer ledger, and a Chrome trace of the
/// replay at `<trace_dir>/<workload>.trace.json`.
pub fn run_traced(opts: &Options, trace_dir: &std::path::Path) -> Result<Outcome, String> {
    let cases = cases::cases(&opts.workload, opts.seed, opts.smoke)
        .ok_or_else(|| format!("unknown workload `{}`", opts.workload))?;
    let par = nproc();
    let mut tally = Tally::default();
    let rows = timed::prepare_all(&cases, par, &mut tally)?;
    let mut service = Service::start(&rows, par, opts.seed)?;
    let rss_mb = vm_hwm_mb()?;
    let traced = traced::run(&rows, &mut service, par, opts.seconds, rss_mb, &mut tally)?;
    drop(service);

    let path = trace_dir.join(format!("{}.trace.json", opts.workload));
    std::fs::create_dir_all(trace_dir)
        .and_then(|()| {
            flat_obs::chrome::write_trace(
                &path,
                &spans::trace_events(&traced.spans, TRACE_FILE_SPANS),
            )
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut outcome = Outcome::from(traced.readings, traced.extras, tally);
    outcome.notes.push(format!(
        "trace: {} ({} of {} spans)",
        path.display(),
        traced.spans.len().min(TRACE_FILE_SPANS),
        traced.spans.len()
    ));
    Ok(outcome)
}

/// Check that a pass emitted exactly the metrics the manifest declares
/// for it, each once and each a finite number.
pub fn check_declared(outcome: &Outcome, declared: &[manifest::MetricDef]) -> Result<(), String> {
    for m in declared {
        let hits: Vec<&Reading> = outcome
            .readings
            .iter()
            .filter(|r| r.name == m.name)
            .collect();
        match hits.as_slice() {
            [one] if one.value.is_finite() => {}
            [one] => return Err(format!("metric {} is not finite: {}", m.name, one.value)),
            other => return Err(format!("metric {} emitted {} times", m.name, other.len())),
        }
    }
    match outcome
        .readings
        .iter()
        .find(|r| !declared.iter().any(|m| m.name == r.name))
    {
        Some(stray) => Err(format!(
            "metric {} is not declared in the manifest",
            stray.name
        )),
        None => Ok(()),
    }
}
