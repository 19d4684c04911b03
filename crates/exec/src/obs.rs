//! Runtime observability for the executor: per-kernel scheduler
//! telemetry, wall-clock worker timelines, utilization reports, and the
//! JSONL live sample log.
//!
//! Everything here *reads* an [`ExecReport`] produced with
//! `ExecConfig::telemetry` (or `worker_trace`) set; nothing perturbs
//! execution. Three render targets:
//!
//! * [`worker_trace_events`] — a Chrome trace with one track per pool
//!   worker (plus one for calling threads and one for kernel-level
//!   spans), on the *pool clock* in real nanoseconds. This is distinct
//!   from `gpu_sim::trace_events` over [`crate::kernel_launches`],
//!   which renders through the synthetic 1 cycle = 1 ns host device.
//! * [`render_exec_report`] — a human-readable utilization and
//!   load-imbalance report: per-worker busy fractions, steal rates, and
//!   a grain-efficiency digest of task sizes per kernel.
//! * [`sample_log_lines`] — one JSON object per dispatched kernel with
//!   `(shape class, path signature, threads, grain, wall_ns)`, the live
//!   observations `autotune::samples` joins against the branching tree.

use crate::decomp::{ExecLaunch, ExecReport};
use flat_obs::json::Value;
use flat_obs::metrics::HistogramSnapshot;
use flat_obs::TraceEvent;

/// Per-kernel scheduler telemetry, captured around one host-level
/// kernel dispatch.
#[derive(Clone, Debug)]
pub struct KernelTelem {
    /// Pool counter delta across the kernel: what each slot did while
    /// this kernel ran.
    pub pool: workpool::PoolTelemetry,
    /// Histogram of task sizes (elements per pool task), read from the
    /// kernel's split plan — the grain-efficiency signal.
    pub task_sizes: HistogramSnapshot,
}

/// Bucket a shape into a coarse equivalence class by rounding every
/// dimension up to a power of two: `[5, 13]` → `"2^3x2^4"`. Scalars
/// (empty shape) are `"unit"`. This is the shape key of the live sample
/// log — fine enough to separate "wide inner, narrow outer" from its
/// transpose, coarse enough that repeated runs aggregate.
pub fn shape_class(widths: &[i64]) -> String {
    if widths.is_empty() {
        return "unit".to_string();
    }
    widths
        .iter()
        .map(|&w| {
            if w <= 0 {
                "0".to_string()
            } else {
                format!("2^{}", 64 - (w as u64 - 1).leading_zeros().min(64))
            }
        })
        .collect::<Vec<_>>()
        .join("x")
}

/// `"t0+ t2-"` — same rendering as `autotune::render_signature`,
/// duplicated here so the executor does not depend on the tuner.
fn render_sig(sig: &[(u32, bool)]) -> String {
    sig.iter()
        .map(|(id, taken)| format!("t{id}{}", if *taken { "+" } else { "-" }))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Track ids in the worker trace: tid 0 carries kernel-level spans,
/// tid `1 + slot` carries the task spans of telemetry slot `slot`
/// (spawned workers first, calling threads last).
pub const KERNEL_TRACK: u64 = 0;

fn slot_tid(slot: usize) -> u64 {
    1 + slot as u64
}

fn slot_name(slot: usize, workers: usize) -> String {
    if slot >= workers {
        "caller".to_string()
    } else {
        format!("worker-{slot}")
    }
}

/// Render a telemetry-enabled report as Chrome trace events on the pool
/// clock: one named track per pool worker plus a caller track and a
/// kernel track, with every span carrying the kernel's provenance and
/// threshold-path signature. Write with `flat_obs::chrome::write_trace`
/// and load in Perfetto.
pub fn worker_trace_events(rep: &ExecReport) -> Vec<TraceEvent> {
    let workers = rep.threads.saturating_sub(1);
    let mut events = Vec::new();
    let meta = |tid: u64, name: String| TraceEvent {
        name: "thread_name".to_string(),
        cat: "__metadata".to_string(),
        ph: 'M',
        ts_us: 0.0,
        dur_us: 0.0,
        tid,
        args: vec![("name".to_string(), Value::from(name))],
    };
    events.push(meta(KERNEL_TRACK, "kernels (host)".to_string()));
    for slot in 0..=workers {
        events.push(meta(slot_tid(slot), slot_name(slot, workers)));
    }

    let mut by_tag: Vec<(u64, &ExecLaunch)> = Vec::new();
    for l in &rep.launches {
        let args = vec![
            ("kind".to_string(), Value::from(l.kind)),
            ("prov".to_string(), Value::from(l.prov.id.0)),
            ("path".to_string(), Value::from(render_sig(&l.path))),
            ("tasks".to_string(), Value::from(l.tasks)),
            ("space".to_string(), Value::from(l.space)),
            ("shape_class".to_string(), Value::from(shape_class(&l.widths))),
        ];
        events.push(TraceEvent {
            name: l.name.clone(),
            cat: "exec".to_string(),
            ph: 'X',
            ts_us: l.pool_start_ns as f64 / 1_000.0,
            dur_us: l.nanos / 1_000.0,
            tid: KERNEL_TRACK,
            args,
        });
        if l.tag != 0 {
            by_tag.push((l.tag, l));
        }
    }

    for span in &rep.spans {
        let launch = by_tag.iter().find(|(t, _)| *t == span.tag).map(|(_, l)| *l);
        let (name, mut args) = match launch {
            Some(l) => (
                l.name.clone(),
                vec![
                    ("kind".to_string(), Value::from(l.kind)),
                    ("prov".to_string(), Value::from(l.prov.id.0)),
                    ("path".to_string(), Value::from(render_sig(&l.path))),
                ],
            ),
            None => ("task".to_string(), Vec::new()),
        };
        args.push(("task".to_string(), Value::from(span.index)));
        events.push(TraceEvent {
            name,
            cat: "exec.worker".to_string(),
            ph: 'X',
            ts_us: span.start_ns as f64 / 1_000.0,
            dur_us: (span.dur_ns as f64 / 1_000.0).max(1e-3),
            tid: slot_tid(span.worker),
            args,
        });
    }
    events
}

fn pct(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        100.0 * num / den
    } else {
        0.0
    }
}

/// Human-readable utilization / load-imbalance report over a
/// telemetry-enabled run: pool-level utilization and steal totals, then
/// one block per kernel with per-worker busy fractions and the
/// grain-efficiency digest of its task sizes.
pub fn render_exec_report(rep: &ExecReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- exec report: {} kernel(s), {} thread(s), grain {}, wall {:.1} µs --",
        rep.launches.len(),
        rep.threads,
        rep.grain,
        rep.wall_nanos / 1_000.0
    );
    let Some(pool) = &rep.pool else {
        let _ = writeln!(out, "  (telemetry was off: run with --exec-report or cfg.telemetry)");
        return out;
    };
    let total = pool.total();
    let slots = pool.workers.len().max(1);
    let capacity_ns = rep.wall_nanos * slots as f64;
    let _ = writeln!(
        out,
        "pool utilization: {:.1}% busy ({:.1} µs busy / {} slots x {:.1} µs wall)",
        pct(total.busy_ns as f64, capacity_ns),
        total.busy_ns as f64 / 1_000.0,
        slots,
        rep.wall_nanos / 1_000.0
    );
    let _ = writeln!(
        out,
        "tasks {}: {} local + {} stolen ({:.1}% steal rate), {} failed steal scans, {} parks",
        total.tasks,
        total.local_pops,
        total.steals,
        pct(total.steals as f64, total.tasks as f64),
        total.steal_fails,
        total.parks
    );
    if let Some((leaf, scalar)) = rep.step_elems {
        let _ = writeln!(
            out,
            "vm steps: {leaf} element(s) as leaf strips + {scalar} one at a time ({:.1}% leaf)",
            pct(leaf as f64, (leaf + scalar) as f64)
        );
    }

    for l in &rep.launches {
        let _ = writeln!(
            out,
            "\nkernel {} [{}]  space {:.0}  tasks {}  wall {:.1} µs  path '{}'",
            l.name,
            l.kind,
            l.space,
            l.tasks,
            l.nanos / 1_000.0,
            render_sig(&l.path)
        );
        let Some(t) = &l.telem else { continue };
        let ktotal = t.pool.total();
        let busy: Vec<String> = t
            .pool
            .workers
            .iter()
            .enumerate()
            .map(|(slot, w)| {
                format!(
                    "{} {:.0}%",
                    slot_name(slot, t.pool.workers.len().saturating_sub(1)),
                    pct(w.busy_ns as f64, l.nanos)
                )
            })
            .collect();
        let _ = writeln!(out, "  busy/worker: [{}]", busy.join(", "));
        let fracs: Vec<f64> = t
            .pool
            .workers
            .iter()
            .map(|w| pct(w.busy_ns as f64, l.nanos))
            .collect();
        let max_f = fracs.iter().cloned().fold(0.0, f64::max);
        let min_f = fracs.iter().cloned().fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "  imbalance: max-min busy {:.0} pp; steals {} / tasks {} ({:.1}%)",
            (max_f - min_f).max(0.0),
            ktotal.steals,
            ktotal.tasks,
            pct(ktotal.steals as f64, ktotal.tasks as f64)
        );
        let ts = &t.task_sizes;
        let _ = writeln!(
            out,
            "  grain efficiency: {} task(s), size p50 {:.0} / p99 {:.0} / max {} (grain {}), mean fill {:.1}%",
            ts.count,
            ts.p50(),
            ts.p99(),
            ts.max,
            rep.grain,
            pct(ts.mean(), rep.grain as f64)
        );
    }
    out
}

/// One JSON object per dispatched kernel: the live `(shape class, path
/// signature, threads, grain, wall_ns)` sample the autotuner's loader
/// (`autotune::samples`) consumes. `program` names the run so logs from
/// several programs can share a file.
pub fn sample_log_lines(rep: &ExecReport, program: &str) -> Vec<Value> {
    rep.launches
        .iter()
        .map(|l| {
            Value::object(vec![
                // Line format version (autotune::samples::SAMPLE_SCHEMA;
                // a literal here because exec does not depend on the
                // tuner). Loaders skip lines with versions they don't
                // understand.
                ("schema", Value::from(1u32)),
                ("program", Value::from(program)),
                ("kernel", Value::from(l.name.as_str())),
                ("kind", Value::from(l.kind)),
                ("shape_class", Value::from(shape_class(&l.widths))),
                ("space", Value::from(l.space)),
                ("sig", Value::from(render_sig(&l.path))),
                (
                    "path",
                    Value::Array(
                        l.path
                            .iter()
                            .map(|(id, taken)| {
                                Value::Array(vec![Value::from(*id), Value::from(*taken)])
                            })
                            .collect(),
                    ),
                ),
                ("threads", Value::from(rep.threads)),
                ("grain", Value::from(rep.grain)),
                ("wall_ns", Value::from(l.nanos as u64)),
                ("prov", Value::from(l.prov.id.0)),
            ])
        })
        .collect()
}

/// Append `rep`'s samples to a JSONL file (created if absent).
pub fn append_sample_log(path: &std::path::Path, rep: &ExecReport, program: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    for line in sample_log_lines(rep, program) {
        writeln!(f, "{}", flat_obs::json::to_string(&line).expect("sample serializes"))?;
    }
    Ok(())
}

/// Whether the `FLAT_OBS` environment variable requests any sink — the
/// existing toggle that also switches executor telemetry on in `flatc`.
pub fn telemetry_requested_by_env() -> bool {
    !flat_obs::sink::sinks_from_env().is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_classes_bucket_by_ceil_log2() {
        assert_eq!(shape_class(&[]), "unit");
        assert_eq!(shape_class(&[1]), "2^0");
        assert_eq!(shape_class(&[2]), "2^1");
        assert_eq!(shape_class(&[5, 13]), "2^3x2^4");
        assert_eq!(shape_class(&[1024]), "2^10");
        assert_eq!(shape_class(&[0, 7]), "0x2^3");
        // The class is stable within a power-of-two band...
        assert_eq!(shape_class(&[9]), shape_class(&[16]));
        // ...and separates a matrix from its transpose when the bands
        // differ.
        assert_ne!(shape_class(&[16, 4096]), shape_class(&[4096, 16]));
    }
}
