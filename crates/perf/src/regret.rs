//! The threshold-regret what-if profiler.
//!
//! Incremental flattening compiles every nest into a tree of code
//! versions guarded by threshold comparisons (Fig. 5 of the paper);
//! at run time each comparison routes execution down one branch. The
//! autotuner searches that space offline, but gives no *per-decision*
//! account of what the current thresholds cost on the dataset actually
//! at hand. This module answers exactly that: for each threshold
//! decision the live run took, how much wall-clock time was left on
//! the table versus the best alternative that flips it?
//!
//! The method is counterfactual re-execution. The program first runs
//! live on the VM to observe the chosen path and its wall time; then
//! every distinct version path of the branching tree
//! ([`ThresholdRegistry::assignments`], capped) is *forced*
//! ([`Thresholds::forcing`]: threshold `0` takes a comparison,
//! `i64::MAX` refuses it, as in the differential fuzzer) and measured
//! the same way. A decision's regret is the chosen path's
//! wall time minus the best wall time among alternatives that flip
//! that decision (ancestors held fixed, descendants free: flipping a
//! guard necessarily re-decides its subtree). For fairness the
//! "chosen" time is itself taken from the *forced* re-measurement of
//! the live path when available, so both sides of every comparison
//! carry identical forcing overhead.
//!
//! Every forced measurement doubles as an autotuning sample:
//! [`regret_sample_lines`] renders the whole what-if sweep in the
//! sample-log schema, so `autotune::samples::warm_start` can seed an
//! online tuner (ROADMAP item 3) from a single regret run.

use autotune::Dataset;
use flat_exec::{shape_class, ExecConfig, ExecError, ExecReport};
use flat_ir::interp::{path_signature, Thresholds};
use flat_ir::value::Value as DataValue;
use flat_obs::json::Value;
use flat_vm::CompiledProgram;
use gpu_sim::{SimError, SimReport};
use incflat::ThresholdRegistry;
use std::fmt::Write as _;

/// Knobs of a what-if sweep.
#[derive(Clone, Debug)]
pub struct RegretConfig {
    /// Baseline thresholds (typically defaults or a loaded tuning) —
    /// the assignment whose decisions are being second-guessed.
    pub thresholds: Thresholds,
    pub threads: Option<usize>,
    pub grain: usize,
    /// Timed repetitions per measured path (median taken).
    pub reps: usize,
    /// Untimed warmup runs per measured path.
    pub warmup: usize,
    /// Cap on enumerated version paths (trees multiply).
    pub cap: usize,
}

impl Default for RegretConfig {
    fn default() -> RegretConfig {
        RegretConfig {
            thresholds: Thresholds::new(),
            threads: None,
            grain: flat_exec::DEFAULT_GRAIN,
            reps: 3,
            warmup: 1,
            cap: 64,
        }
    }
}

/// One forced re-execution of a version path.
#[derive(Clone, Debug)]
pub struct AlternativeRun {
    /// The full forced assignment, canonically sorted — tree-consistent
    /// by construction (the enumerator includes every ancestor).
    pub sig: Vec<(u32, bool)>,
    /// Median wall time, nanoseconds.
    pub wall_ns: f64,
    /// Whether this assignment reproduces the live run's decisions.
    pub matches_live: bool,
}

/// The what-if verdict on one threshold decision of the live run.
#[derive(Clone, Debug)]
pub struct DecisionRegret {
    pub id: u32,
    pub name: String,
    /// The outcome the live run took (`true` = comparison satisfied).
    pub taken: bool,
    /// Wall time charged to the chosen path (forced re-measurement of
    /// the live path when available, else the live measurement).
    pub chosen_ns: f64,
    /// Best wall time among alternatives flipping this decision.
    pub best_alt_ns: f64,
    /// The full assignment achieving `best_alt_ns`.
    pub best_alt_sig: Vec<(u32, bool)>,
    /// `chosen_ns - best_alt_ns`; positive = the flip would have won.
    pub regret_ns: f64,
}

/// The result of a what-if sweep.
#[derive(Clone, Debug)]
pub struct RegretReport {
    pub program: String,
    /// Shape classes of the dataset's array arguments, joined — the
    /// regime these regrets are valid for (regret is shape-dependent:
    /// that is the whole point of incremental flattening).
    pub shape_class: String,
    pub threads: usize,
    pub grain: usize,
    /// The live run's path signature and median wall time.
    pub live_sig: Vec<(u32, bool)>,
    pub live_ns: f64,
    /// Every forced path measured, enumeration order.
    pub alternatives: Vec<AlternativeRun>,
    /// Per-decision regrets, largest first.
    pub decisions: Vec<DecisionRegret>,
    /// Paths the cap cut off (0 = the sweep was exhaustive).
    pub truncated: usize,
}

impl RegretReport {
    /// The globally best measured assignment, if any path was measured.
    pub fn best(&self) -> Option<&AlternativeRun> {
        self.alternatives
            .iter()
            .min_by(|x, y| x.wall_ns.partial_cmp(&y.wall_ns).expect("walls are finite"))
    }
}

/// The shape regime of a dataset: per-argument shape classes of the
/// array arguments, joined (scalars contribute nothing; an all-scalar
/// dataset is `"unit"`).
pub fn dataset_shape_class(args: &[DataValue]) -> String {
    let classes: Vec<String> = args
        .iter()
        .map(|a| shape_class(&a.shape()))
        .filter(|c| c != "unit")
        .collect();
    if classes.is_empty() {
        "unit".to_string()
    } else {
        classes.join(";")
    }
}

/// How a sweep prices one configuration: the run's report and the cost
/// charged to it, nanoseconds. The seam `autotune` has as
/// `Runner::Custom`: [`wall_clock`] measures, a test can compute.
pub type CostFn<'a> = dyn Fn(&ExecConfig) -> Result<(ExecReport, f64), ExecError> + 'a;

/// The one measured cost behind every sweep and tuner: the median wall
/// clock, nanoseconds, of `reps` runs after `warmup` untimed ones. `run`
/// is a tier over a program the caller compiled once, so nothing
/// compiles per evaluation.
fn measured<R>(
    run: &R,
    args: &[DataValue],
    cfg: &ExecConfig,
    reps: usize,
    warmup: usize,
) -> Result<(ExecReport, f64), ExecError>
where
    R: Fn(&[DataValue], &ExecConfig) -> Result<ExecReport, ExecError>,
{
    flat_exec::measure_with(|| run(args, cfg), reps, warmup).map(|(rep, m)| (rep, m.median_nanos))
}

/// The measured cost over the VM: `cfg.reps` runs of `prog` after
/// `cfg.warmup` untimed ones.
pub fn wall_clock<'a>(
    prog: &'a CompiledProgram,
    args: &'a [DataValue],
    cfg: &RegretConfig,
) -> impl Fn(&ExecConfig) -> Result<(ExecReport, f64), ExecError> + 'a {
    let (reps, warmup) = (cfg.reps, cfg.warmup);
    let run = move |a: &[DataValue], c: &ExecConfig| flat_vm::run_compiled(prog, a, c);
    move |exec_cfg| measured(&run, args, exec_cfg, reps, warmup)
}

/// The measured cost as an autotuner runner, shared by `flatc tune --backend
/// exec|vm` and the daemon's `tune`: each evaluation materializes the
/// dataset from `seed`, runs one warm-up, then reports the median of
/// `reps` timed runs as "cycles" (nanoseconds on the 1 GHz host device).
pub fn tuning_runner<'a, R>(
    run: R,
    seed: u64,
    threads: Option<usize>,
    reps: usize,
) -> impl Fn(&Dataset, &Thresholds) -> Result<SimReport, SimError> + Sync + 'a
where
    R: Fn(&[DataValue], &ExecConfig) -> Result<ExecReport, ExecError> + Sync + 'a,
{
    move |d: &Dataset, t: &Thresholds| {
        let vals = flat_exec::materialize(&d.args, seed).map_err(|e| SimError(e.0))?;
        let cfg = ExecConfig { thresholds: t.clone(), threads, ..ExecConfig::default() };
        let (rep, nanos) = measured(&run, &vals, &cfg, reps, 1).map_err(|e| SimError(e.0))?;
        Ok(flat_exec::sim_report_of(&rep, nanos))
    }
}

/// Run the full what-if sweep on `args`, pricing each forced path with
/// `cost`.
pub fn profile_regret(
    reg: &ThresholdRegistry,
    program: &str,
    args: &[DataValue],
    cfg: &RegretConfig,
    cost: &CostFn,
) -> Result<RegretReport, String> {
    let exec_cfg = |t: Thresholds| ExecConfig {
        thresholds: t,
        threads: cfg.threads,
        grain: cfg.grain,
        ..ExecConfig::default()
    };

    // 1. The live run: what do the current thresholds actually choose?
    let (live_rep, live_ns) = cost(&exec_cfg(cfg.thresholds.clone()))
        .map_err(|e| format!("live run failed: {e}"))?;
    let live_sig = live_rep.signature();

    // 2. Force and measure every enumerated version path.
    let assignments = reg.assignments(cfg.cap.max(1));
    let truncated = {
        // Re-enumerate with a roomier cap only to detect truncation;
        // the tree is tiny compared to a single measurement.
        let probe = reg.assignments(cfg.cap.saturating_mul(2).max(cfg.cap + 1));
        probe.len().saturating_sub(assignments.len())
    };
    let mut alternatives = Vec::with_capacity(assignments.len());
    for asg in &assignments {
        let (_, wall_ns) = cost(&exec_cfg(Thresholds::forcing(asg)))
            .map_err(|e| format!("forced run {asg:?} failed: {e}"))?;
        let sig = path_signature(asg);
        let matches_live = live_sig
            .iter()
            .all(|&(id, taken)| sig.iter().any(|&(i, t)| i == id && t == taken));
        alternatives.push(AlternativeRun { sig, wall_ns, matches_live });
    }

    // 3. Charge the chosen path its *forced* re-measurement when one
    //    exists, so chosen and alternatives compare like for like.
    let chosen_ns = alternatives
        .iter()
        .filter(|a| a.matches_live)
        .map(|a| a.wall_ns)
        .min_by(|x, y| x.partial_cmp(y).expect("walls are finite"))
        .unwrap_or(live_ns);

    // 4. Per-decision regret: best alternative flipping that decision.
    //    Enumerated assignments are tree-consistent, so any assignment
    //    containing the flipped decision already agrees with the live
    //    run on all of its ancestors.
    let mut decisions = Vec::new();
    for &(id, taken) in &live_sig {
        let best = alternatives
            .iter()
            .filter(|a| a.sig.iter().any(|&(i, t)| i == id && t != taken))
            .min_by(|x, y| x.wall_ns.partial_cmp(&y.wall_ns).expect("walls are finite"));
        let Some(best) = best else { continue };
        let info = reg
            .iter()
            .find(|i| i.id.0 == id)
            .ok_or_else(|| format!("live path compared unknown threshold t{id}"))?;
        decisions.push(DecisionRegret {
            id,
            name: info.name.clone(),
            taken,
            chosen_ns,
            best_alt_ns: best.wall_ns,
            best_alt_sig: best.sig.clone(),
            regret_ns: chosen_ns - best.wall_ns,
        });
    }
    decisions.sort_by(|x, y| {
        y.regret_ns
            .partial_cmp(&x.regret_ns)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| x.id.cmp(&y.id))
    });

    Ok(RegretReport {
        program: program.to_string(),
        shape_class: dataset_shape_class(args),
        threads: live_rep.threads,
        grain: live_rep.grain,
        live_sig,
        live_ns,
        alternatives,
        decisions,
        truncated,
    })
}

/// Render the report (the `flatc perf regret` output).
pub fn render_regret(rep: &RegretReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "threshold regret: {} [{}] on {} thread(s), grain {}",
        rep.program, rep.shape_class, rep.threads, rep.grain
    );
    let _ = writeln!(
        out,
        "live path: {}   wall {:.0} ns ({} paths measured{})",
        sig_or_root(&autotune::render_signature(&rep.live_sig)),
        rep.live_ns,
        rep.alternatives.len(),
        if rep.truncated > 0 {
            format!(", {} cut by --cap", rep.truncated)
        } else {
            String::new()
        },
    );
    if let Some(best) = rep.best() {
        let _ = writeln!(
            out,
            "best path: {}   wall {:.0} ns{}",
            sig_or_root(&autotune::render_signature(&best.sig)),
            best.wall_ns,
            if best.matches_live { "  (the live choice)" } else { "" },
        );
    }
    if rep.decisions.is_empty() {
        let _ = writeln!(out, "no threshold comparisons on the live path — nothing to regret");
        return out;
    }
    let _ = writeln!(
        out,
        "{:<28} {:<7} {:>12} {:>12} {:>12} {:>8}",
        "decision", "chose", "chosen ns", "best-alt ns", "regret ns", "regret"
    );
    for d in &rep.decisions {
        let _ = writeln!(
            out,
            "{:<28} {:<7} {:>12.0} {:>12.0} {:>+12.0} {:>+7.1}%",
            format!("{} (t{})", d.name, d.id),
            if d.taken { "Par" } else { "Seq" },
            d.chosen_ns,
            d.best_alt_ns,
            d.regret_ns,
            if d.best_alt_ns > 0.0 { d.regret_ns / d.best_alt_ns * 100.0 } else { 0.0 },
        );
        if d.regret_ns > 0.0 {
            let _ = writeln!(
                out,
                "    flip to {}",
                sig_or_root(&autotune::render_signature(&d.best_alt_sig))
            );
        }
    }
    out
}

fn sig_or_root(sig: &str) -> &str {
    if sig.is_empty() {
        "(root)"
    } else {
        sig
    }
}

/// The sweep as autotuning samples: one sample-log line per measured
/// path, in the exact schema `autotune::samples::parse_sample` loads
/// (`kind: "whatif"` marks the counterfactual origin). Signatures are
/// full tree-consistent assignments, so every line survives the join's
/// `in_tree` filter and lands in `warm_start`.
pub fn regret_sample_lines(rep: &RegretReport) -> Vec<Value> {
    rep.alternatives
        .iter()
        .map(|a| {
            Value::object(vec![
                ("schema", Value::from(autotune::SAMPLE_SCHEMA)),
                ("program", Value::from(rep.program.as_str())),
                ("kernel", Value::from("(whole-program)")),
                ("kind", Value::from("whatif")),
                ("shape_class", Value::from(rep.shape_class.as_str())),
                ("space", Value::from(0.0)),
                ("sig", Value::from(autotune::render_signature(&a.sig))),
                (
                    "path",
                    Value::Array(
                        a.sig
                            .iter()
                            .map(|(id, taken)| {
                                Value::Array(vec![Value::from(*id), Value::from(*taken)])
                            })
                            .collect(),
                    ),
                ),
                ("threads", Value::from(rep.threads)),
                ("grain", Value::from(rep.grain)),
                ("wall_ns", Value::from(a.wall_ns as u64)),
                ("prov", Value::from(0u32)),
            ])
        })
        .collect()
}

/// Append the sweep's samples to a JSONL file (created if absent).
pub fn append_regret_samples(
    path: &std::path::Path,
    rep: &RegretReport,
) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    for line in regret_sample_lines(rep) {
        let text = flat_obs::json::to_string(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(f, "{text}")?;
    }
    Ok(())
}
