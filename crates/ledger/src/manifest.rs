//! What the benchmark declares: its workloads, its end-to-end metrics
//! with their regression bounds, and the per-layer ledger. This table
//! is the single source of `BENCHMARK.json` (`ledger --manifest` prints
//! it; a test holds the checked-in file to it), and every run is checked
//! against it before it reports.

use flat_obs::json::Value;

/// Seconds one pass measures when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "compile",
        why: "parse->elaborate->fuse->flatten->vm-compile->verify over 11 programs: the paper's up-front multi-version cost; VM, pool and wire do nothing here",
    },
    WorkloadDef {
        name: "kernels",
        why: "run_compiled on 8 (program, shape, forced threshold path) rows: run time of generated code, one VM used three ways per shape; compiler and wire do nothing here",
    },
    WorkloadDef {
        name: "serve-hit",
        why: "closed-loop exec requests over 16 cached module-scale programs with a ~5us kernel: frame codec, hash, cache hit, admission and hand-offs dominate",
    },
    WorkloadDef {
        name: "serve-bulk",
        why: "closed-loop exec requests returning [262144]f32 (2 MB of hex, 3 chunks): materialise, kernel, result encode, write and client decode dominate",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when larger readings are better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
        bound: None,
    }
}

/// Every workload reports all of these. An operation is one sweep of
/// the program set (`compile`), one `run_compiled` of a row (`kernels`,
/// geometric mean over rows of the per-row median) or one
/// `Client::exec` (`serve-*`); `t1` has one operation in flight, `tn`
/// has `nproc` (threads of one kernel, or concurrent sweeps/connections).
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", false, 0.20),
    e2e("op_ms_t1", "ms", false, 0.10),
    e2e("op_ms_tn", "ms", false, 0.10),
    e2e("ops_per_s", "1/s", true, 0.10),
    e2e("peak_rss_mb", "MB", false, 0.10),
];

/// The traced pass replays the workload's own cases through the whole
/// stack in server order and reports these for every workload.
pub const PER_LAYER: [MetricDef; 64] = [
    lower("flat-lang.parse_us", "us"),
    higher("flat-lang.parse_mb_s", "MB/s"),
    lower("flat-lang.elaborate_us", "us"),
    lower("flat-ir.fuse_us", "us"),
    higher("flat-ir.fusions", "count"),
    lower("incflat.flatten_us", "us"),
    lower("incflat.simplify_us", "us"),
    lower("incflat.moderate_flatten_us", "us"),
    lower("incflat.target_stms", "count"),
    lower("incflat.versions", "count"),
    lower("incflat.thresholds", "count"),
    lower("incflat.code_expansion", "ratio"),
    lower("flat-verify.program_us", "us"),
    lower("flat-verify.flattened_us", "us"),
    lower("flat-verify.pipeline_us", "us"),
    lower("flat-verify.diagnostics", "count"),
    lower("flat-vm.compile_us", "us"),
    lower("flat-vm.instrs", "count"),
    lower("flat-vm.run_t1_us", "us"),
    lower("flat-vm.run_tn_us", "us"),
    lower("flat-vm.kernel_share.segmap", "ratio"),
    lower("flat-vm.kernel_share.segred", "ratio"),
    lower("flat-vm.kernel_share.segscan", "ratio"),
    lower("flat-vm.host_share", "ratio"),
    lower("flat-vm.launches", "count"),
    lower("flat-vm.tasks", "count"),
    higher("flat-vm.par_efficiency", "ratio"),
    lower("flat-exec.run_t1_us", "us"),
    higher("flat-exec.vm_speedup", "ratio"),
    lower("flat-exec.materialize_us", "us"),
    lower("flat-exec.materialize_ns_per_elem", "ns"),
    lower("workpool.dispatch_ns_per_task.n1", "ns"),
    lower("workpool.dispatch_ns_per_task.n64", "ns"),
    lower("workpool.dispatch_ns_per_task.n4096", "ns"),
    lower("workpool.steal_rate", "ratio"),
    lower("workpool.parks", "count"),
    higher("workpool.utilization", "ratio"),
    lower("flat-serve.encode_request_us", "us"),
    lower("flat-serve.decode_request_us", "us"),
    lower("flat-serve.request_bytes", "B"),
    lower("flat-serve.program_hash_us", "us"),
    lower("flat-serve.admit_ns_per_job", "ns"),
    lower("flat-serve.cache_hit_us", "us"),
    lower("flat-serve.parse_args_us", "us"),
    lower("flat-serve.samples_us", "us"),
    lower("flat-serve.encode_result_us", "us"),
    lower("flat-serve.write_result_us", "us"),
    lower("flat-serve.decode_result_us", "us"),
    lower("flat-serve.result_bytes", "B"),
    lower("flat-serve.wire_expansion", "ratio"),
    lower("flat-serve.staged_sum_us", "us"),
    lower("flat-serve.request_p50_us", "us"),
    lower("flat-serve.unaccounted_share", "ratio"),
    lower("flat-serve.request_tail_us", "us"),
    lower("flat-serve.request_p99_us", "us"),
    lower("flat-serve.cold_p50_us", "us"),
    lower("flat-serve.cold_over_hit", "ratio"),
    higher("flat-serve.cache_hit_rate", "ratio"),
    lower("flat-serve.compile_program_us", "us"),
    lower("flat-serve.cache_miss_overhead_us", "us"),
    lower("ledger.compile_sum_us", "us"),
    lower("ledger.replay_us", "us"),
    lower("ledger.trace_overhead", "ratio"),
    lower("ledger.rss_growth_mb", "MB"),
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn metric_json(m: &MetricDef) -> Value {
    let mut v = Value::object(vec![
        ("name", Value::from(m.name)),
        ("unit", Value::from(m.unit)),
        (
            "better",
            Value::from(if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
        ),
    ]);
    if let Some(b) = m.bound {
        v.insert("bound", Value::from(b));
    }
    v
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "-p",
        "flat-ledger",
        "--bin",
        "ledger",
        "--",
    ];
    let doc = Value::object(vec![
        (
            "command",
            Value::Array(command.iter().map(|s| Value::from(*s)).collect()),
        ),
        ("paths", Value::Array(vec![Value::from("crates/ledger")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::object(vec![
                            ("name", Value::from(w.name)),
                            ("why", Value::from(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Value::Array(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ]);
    let mut text = flat_obs::json::to_string_pretty(&doc).expect("manifest serializes");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str, max: usize) -> bool {
        s.len() <= max
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name, 64) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name, 64) && seen.insert(m.name), "{}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
        assert!(END_TO_END
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()) && PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s declared");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn checked_in_benchmark_json_is_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `ledger --manifest`"
        );
    }
}
