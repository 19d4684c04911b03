//! Acceptance tests for executor telemetry (`exec-obs`): scheduler
//! counter invariants, worker-trace well-formedness, the sample-log
//! round trip through the autotune loader, and the guarantee that
//! telemetry never perturbs results.
//!
//! The counters are designed so that every task acquisition is counted
//! exactly once — own-deque pops and inline jobs as local pops, stolen
//! tasks as steals — which yields the cross-slot invariant
//! `local_pops + steals == tasks` at every thread count. Busy time is
//! accounted non-reentrantly per thread (nested counted frames are
//! covered by their encloser), so each slot's busy time is an
//! interval-disjoint subset of the run's wall time.
//!
//! Pools are cached per size and shared across a process, so tests
//! that assert on per-run telemetry deltas serialize on a lock.

use incremental_flattening::prelude::*;

use exec::ExecConfig;
use ir::value::Value;
use std::sync::Mutex;

/// Serializes telemetered runs: concurrent tests sharing a cached pool
/// would otherwise interleave their counter deltas.
static POOL_LOCK: Mutex<()> = Mutex::new(());

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];

const SUMROWS: &str = "
def sumrows [n][m] (xss: [n][m]f32): [n]f32 =
  map (\\xs -> reduce (+) 0f32 xs) xss
";

fn sumrows_args() -> Vec<Value> {
    let specs = vec![
        gpu::AbsValue::known(ir::Const::I64(64)),
        gpu::AbsValue::known(ir::Const::I64(32)),
        gpu::AbsValue::array(vec![64, 32], ir::ScalarType::F32),
    ];
    exec::materialize(&specs, 7).unwrap()
}

fn flatten(src: &str, entry: &str) -> compiler::Flattened {
    let prog = lang::compile(src, entry).unwrap();
    compiler::flatten_incremental(&prog).unwrap()
}

fn cfg(threads: usize) -> ExecConfig {
    ExecConfig {
        threads: Some(threads),
        grain: 4,
        telemetry: true,
        ..ExecConfig::default()
    }
}

#[test]
fn counters_reconcile_at_every_thread_count() {
    let _guard = POOL_LOCK.lock().unwrap();
    let fl = flatten(SUMROWS, "sumrows");
    let args = sumrows_args();
    for threads in THREAD_COUNTS {
        let rep = exec::run_program(&fl.prog, &args, &cfg(threads)).unwrap();
        let pool = rep.pool.as_ref().expect("telemetry on records pool counters");
        let slots = pool.workers.len();
        assert_eq!(slots, threads, "{threads} threads: workers + caller slot");

        let total = pool.total();
        assert!(total.tasks > 0, "{threads} threads: kernels dispatched tasks");
        assert_eq!(
            total.local_pops + total.steals,
            total.tasks,
            "{threads} threads: every task acquired exactly once"
        );
        // Busy intervals are per-slot disjoint and inside the run
        // window; small epsilon for the Instant-vs-pool-clock skew.
        let bound = rep.wall_nanos * slots as f64 * 1.05 + 1e6;
        assert!(
            (total.busy_ns as f64) <= bound,
            "{threads} threads: busy {} ns exceeds wall {} ns x {slots} slots",
            total.busy_ns,
            rep.wall_nanos
        );
        for (slot, w) in pool.workers.iter().enumerate() {
            assert!(
                (w.busy_ns as f64) <= rep.wall_nanos * 1.05 + 1e6,
                "{threads} threads: slot {slot} busy beyond wall"
            );
        }
    }
}

#[test]
fn per_kernel_telemetry_mirrors_the_run_totals() {
    let _guard = POOL_LOCK.lock().unwrap();
    let fl = flatten(SUMROWS, "sumrows");
    let args = sumrows_args();
    let rep = exec::run_program(&fl.prog, &args, &cfg(4)).unwrap();
    let run_total = rep.pool.as_ref().unwrap().total();

    assert!(!rep.launches.is_empty());
    let mut kernel_tasks = 0;
    for l in &rep.launches {
        let telem = l.telem.as_ref().expect("telemetry on records per-kernel deltas");
        let t = telem.pool.total();
        assert_eq!(t.local_pops + t.steals, t.tasks, "kernel {}", l.name);
        assert!(t.tasks > 0, "kernel {} dispatched tasks", l.name);
        kernel_tasks += t.tasks;
        // The task-size histogram mirrors the decomposition: one entry
        // per dispatched chunk, none larger than the grain.
        assert!(telem.task_sizes.count > 0, "kernel {}", l.name);
        assert!(telem.task_sizes.max <= rep.grain as u64, "kernel {}", l.name);
    }
    // Every counted task happened inside some kernel dispatch.
    assert_eq!(kernel_tasks, run_total.tasks);
}

#[test]
fn worker_trace_is_well_formed_chrome_json() {
    let _guard = POOL_LOCK.lock().unwrap();
    let fl = flatten(SUMROWS, "sumrows");
    let args = sumrows_args();
    let threads = 4;
    let mut c = cfg(threads);
    c.worker_trace = true;
    let rep = exec::run_program(&fl.prog, &args, &c).unwrap();

    // Raw spans: non-empty, every one joins a launch by tag and names a
    // real slot.
    assert!(!rep.spans.is_empty());
    let slots = rep.pool.as_ref().unwrap().workers.len();
    for s in &rep.spans {
        assert!(s.worker < slots, "span on unknown slot {}", s.worker);
        assert!(
            rep.launches.iter().any(|l| l.tag == s.tag),
            "span tag {} joins no kernel launch",
            s.tag
        );
    }

    // The rendered trace round-trips through the JSON parser.
    let events = exec::worker_trace_events(&rep);
    let doc: obs::json::Value = obs::json::from_str(&obs::chrome::trace_string(&events)).unwrap();
    let evs = doc
        .get("traceEvents")
        .and_then(obs::json::Value::as_array)
        .expect("chrome trace document has a traceEvents array");

    // One thread_name metadata event per track: the kernel track (tid
    // 0) plus one per slot (tids 1..=slots).
    let mut named_tids: Vec<i64> = evs
        .iter()
        .filter(|e| e.get("ph").and_then(obs::json::Value::as_str) == Some("M"))
        .map(|e| e.get("tid").and_then(obs::json::Value::as_f64).unwrap() as i64)
        .collect();
    named_tids.sort_unstable();
    let expected: Vec<i64> = (0..=slots as i64).collect();
    assert_eq!(named_tids, expected, "one named track per worker plus the kernel track");

    // Complete events: kernel spans on tid 0 (one per launch), task
    // spans on worker tracks (one per recorded span), all tids named.
    let xs: Vec<_> = evs
        .iter()
        .filter(|e| e.get("ph").and_then(obs::json::Value::as_str) == Some("X"))
        .collect();
    let kernel_spans = xs
        .iter()
        .filter(|e| e.get("tid").and_then(obs::json::Value::as_f64) == Some(0.0))
        .count();
    assert_eq!(kernel_spans, rep.launches.len());
    assert_eq!(xs.len(), rep.launches.len() + rep.spans.len());
    for e in &xs {
        let tid = e.get("tid").and_then(obs::json::Value::as_f64).unwrap() as i64;
        assert!(expected.contains(&tid), "X event on unnamed tid {tid}");
        assert!(e.get("dur").and_then(obs::json::Value::as_f64).unwrap() >= 0.0);
    }
}

#[test]
fn telemetry_does_not_perturb_results() {
    let _guard = POOL_LOCK.lock().unwrap();
    let fl = flatten(SUMROWS, "sumrows");
    let args = sumrows_args();
    let baseline = {
        let mut c = cfg(1);
        c.telemetry = false;
        exec::run_program(&fl.prog, &args, &c).unwrap()
    };
    for threads in THREAD_COUNTS {
        for (telemetry, worker_trace) in [(false, false), (true, false), (true, true)] {
            let c = ExecConfig {
                threads: Some(threads),
                grain: 4,
                telemetry,
                worker_trace,
                ..ExecConfig::default()
            };
            let rep = exec::run_program(&fl.prog, &args, &c).unwrap();
            assert_eq!(
                rep.values, baseline.values,
                "telemetry={telemetry} worker_trace={worker_trace} threads={threads} \
                 changed the results"
            );
            assert_eq!(rep.signature(), baseline.signature());
        }
    }
}

/// The VM reports how many elements its step functions ran a strip at a
/// time and how many one at a time — only with telemetry on, and with
/// the same results either way.
#[test]
fn vm_step_counters_say_which_path_ran_and_do_not_perturb_results() {
    let _guard = POOL_LOCK.lock().unwrap();
    let fl = flatten(SUMROWS, "sumrows");
    let args = sumrows_args();
    let counter = |name| obs::global().metrics().counter(name).get();
    // Default thresholds take the fully flat version: one segred whose
    // fold is a leaf. Forcing the outermost guard takes the segmap whose
    // body (a SOAC over a row) is not, around a reduce that is.
    let outer = fl.thresholds.ids().next().expect("sumrows has thresholds");
    for (force_outer, want) in [(false, (64 * 32, 0)), (true, (64 * 32, 64))] {
        for threads in THREAD_COUNTS {
            let mut c = cfg(threads);
            if force_outer {
                c.thresholds.set(outer, 1);
            }
            let (leaf0, scalar0) = (counter("vm.leaf_elems"), counter("vm.scalar_elems"));
            let on = vm::run_program(&fl.prog, &args, &c).unwrap();
            assert_eq!(on.step_elems, Some(want), "threads={threads} outer={force_outer}");
            assert_eq!(counter("vm.leaf_elems") - leaf0, want.0);
            assert_eq!(counter("vm.scalar_elems") - scalar0, want.1);
            assert!(exec::render_exec_report(&on).contains("vm steps:"));

            c.telemetry = false;
            let off = vm::run_program(&fl.prog, &args, &c).unwrap();
            assert_eq!(off.step_elems, None);
            assert_eq!(off.values, on.values, "telemetry changed the vm's results");
            assert_eq!(off.signature(), on.signature());
            assert_eq!(counter("vm.leaf_elems") - leaf0, want.0, "counted with telemetry off");
        }
    }
}

/// A `segscan` whose segments fit one block each has nothing to
/// propagate: both tiers dispatch the local scans and stop — `segments`
/// pool tasks, not twice that.
#[test]
fn one_block_segscan_dispatches_each_segment_once() {
    let _guard = POOL_LOCK.lock().unwrap();
    let fl = flatten(
        "def rowscans [n][m] (xss: [n][m]f32): [n][m]f32 =\n  map (\\xs -> scan (+) 0f32 xs) xss\n",
        "rowscans",
    );
    let specs = vec![
        gpu::AbsValue::known(ir::Const::I64(8)),
        gpu::AbsValue::known(ir::Const::I64(16)),
        gpu::AbsValue::array(vec![8, 16], ir::ScalarType::F32),
    ];
    let args = exec::materialize(&specs, 7).unwrap();
    let c = ExecConfig { grain: 16, ..cfg(4) };
    for (tier, rep) in [
        ("exec", exec::run_program(&fl.prog, &args, &c).unwrap()),
        ("vm", vm::run_program(&fl.prog, &args, &c).unwrap()),
    ] {
        let [scan] = &rep.launches[..] else { panic!("{tier}: {:?}", rep.launches) };
        assert_eq!((scan.kind, scan.tasks), ("segscan", 8), "{tier}");
        let telem = scan.telem.as_ref().expect("telemetry on");
        assert_eq!(telem.pool.total().tasks, 8, "{tier}: pool tasks");
        assert_eq!(telem.task_sizes.count, scan.tasks, "{tier}: histogram reads the same split");
    }
}

/// A narrow host segmap is cut into one task per row, so the segred in
/// each row's body runs inline inside that task: every pool task the run
/// counts is one of the launch's own. A one-task segmap would run inline
/// outside the pool, and each row's segred would go back to the pool as
/// 16 blocks.
#[test]
fn segops_nested_in_a_narrow_segmap_run_inline() {
    let _guard = POOL_LOCK.lock().unwrap();
    let fl = flatten(SUMROWS, "sumrows");
    let specs = vec![
        gpu::AbsValue::known(ir::Const::I64(8)),
        gpu::AbsValue::known(ir::Const::I64(4096)),
        gpu::AbsValue::array(vec![8, 4096], ir::ScalarType::F32),
    ];
    let args = exec::materialize(&specs, 7).unwrap();
    let mut c = ExecConfig { threads: Some(2), telemetry: true, ..ExecConfig::default() };
    for (name, v) in [("suff_outer_par_0", 1i64 << 40), ("suff_intra_par_1", 1)] {
        let t = fl.thresholds.iter().find(|t| t.name == name).expect("sumrows threshold");
        c.thresholds.set(t.id, v);
    }
    let rep = vm::run_program(&fl.prog, &args, &c).unwrap();
    let [map] = &rep.launches[..] else { panic!("{:?}", rep.launches) };
    assert_eq!((map.kind, map.tasks), ("segmap", 8));
    assert_eq!(rep.pool.as_ref().expect("telemetry on").total().tasks, map.tasks);
}

#[test]
fn sample_log_round_trips_through_the_autotune_loader() {
    let _guard = POOL_LOCK.lock().unwrap();
    let fl = flatten(SUMROWS, "sumrows");
    let args = sumrows_args();
    let rep = exec::run_program(&fl.prog, &args, &cfg(4)).unwrap();
    assert!(!rep.launches.is_empty());

    let path = std::env::temp_dir().join(format!("exec-obs-samples-{}.jsonl", std::process::id()));
    std::fs::remove_file(&path).ok();
    // Two appended runs: the loader must see both.
    exec::append_sample_log(&path, &rep, "sumrows").unwrap();
    exec::append_sample_log(&path, &rep, "sumrows").unwrap();
    let samples = tuning::load_sample_log(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(samples.len(), 2 * rep.launches.len());

    let join = tuning::join_samples(&fl.thresholds, &samples);
    assert_eq!(join.samples, samples.len());

    // Every executed kernel's path signature joined at least one
    // sample, and live-dispatched paths are tree-consistent.
    for l in &rep.launches {
        let mut sig = l.path.clone();
        sig.sort_unstable();
        sig.dedup();
        let stats = join
            .stats_for(&sig)
            .unwrap_or_else(|| panic!("no samples joined to signature {sig:?}"));
        assert!(stats.in_tree, "live path {sig:?} is not in the branching tree");
        assert!(stats.count >= 2);
        assert!(stats.median_wall_ns > 0.0);
        let class = exec::shape_class(&l.widths);
        assert!(
            stats.shape_classes.contains_key(&class),
            "signature {sig:?} missing shape class {class}"
        );
    }
    assert!(!join.warm_start().is_empty());
}
