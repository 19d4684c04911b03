//! End-to-end simulator tests: compile → flatten → simulate, checking
//! that the cost model reproduces the qualitative phenomena the paper's
//! evaluation rests on.

use flat_ir::interp::{path_signature, Thresholds};
use flat_ir::value::Value;
use gpu_sim::{simulate_values, AbsValue, DeviceSpec};
use incflat::{flatten_incremental, flatten_moderate};

const MATMUL: &str = "
def matmul [n][m][p] (xss: [n][m]f32) (yss: [m][p]f32): [n][p]f32 =
  map (\\xs -> map (\\ys -> redomap (+) (*) 0f32 xs ys) (transpose yss)) xss
";

fn matmul_abs(n: i64, m: i64, p: i64) -> Vec<AbsValue> {
    vec![
        AbsValue::known(flat_ir::Const::I64(n)),
        AbsValue::known(flat_ir::Const::I64(m)),
        AbsValue::known(flat_ir::Const::I64(p)),
        AbsValue::array(vec![n, m], flat_ir::ScalarType::F32),
        AbsValue::array(vec![m, p], flat_ir::ScalarType::F32),
    ]
}

#[test]
fn simulates_flattened_matmul() {
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let dev = DeviceSpec::k40();
    let t = Thresholds::new();
    let rep = gpu_sim::simulate(&fl.prog, &matmul_abs(512, 512, 512), &t, &dev).unwrap();
    assert!(rep.cost.total_cycles > 0.0);
    assert!(rep.cost.kernel_launches >= 1);
    assert!(!rep.path.is_empty(), "threshold comparisons must be recorded");
}

/// Enumerate every 0/MAX assignment of the program's thresholds and
/// return (best cycles, worst cycles) — i.e. the cost of the best and
/// worst code version for this dataset.
fn best_and_worst(
    fl: &incflat::Flattened,
    args: &[AbsValue],
    dev: &DeviceSpec,
) -> (f64, f64) {
    let ids: Vec<_> = fl.thresholds.ids().collect();
    assert!(ids.len() <= 12, "too many thresholds to enumerate");
    let mut best = f64::INFINITY;
    let mut worst = 0.0f64;
    for mask in 0..(1u32 << ids.len()) {
        let decisions: Vec<_> =
            ids.iter().enumerate().map(|(k, id)| (*id, mask & (1 << k) != 0)).collect();
        let t = Thresholds::forcing(&decisions);
        let rep = gpu_sim::simulate(&fl.prog, args, &t, dev).unwrap();
        best = best.min(rep.cost.total_cycles);
        worst = worst.max(rep.cost.total_cycles);
    }
    (best, worst)
}

#[test]
fn degenerate_shapes_prefer_full_flattening() {
    // Constant work: a degenerate shape (tiny outer parallelism) must be
    // best served by the fully flattened segred version, while a square
    // shape must be best served by a version that sequentializes the dot
    // products (version (2) of §2.2).
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let dev = DeviceSpec::k40();

    // Degenerate: n = p = 2, m = 2^18. Outer parallelism = 4 threads.
    let degenerate = matmul_abs(2, 1 << 18, 2);
    let t_flat = Thresholds::uniform(fl.thresholds.ids(), i64::MAX);
    let flat = gpu_sim::simulate(&fl.prog, &degenerate, &t_flat, &dev).unwrap();
    let (best_d, worst_d) = best_and_worst(&fl, &degenerate, &dev);
    assert!(
        flat.cost.total_cycles <= best_d * 1.01,
        "degenerate shape: fully-flat {} should be the best ({best_d})",
        flat.cost.total_cycles,
    );
    assert!(worst_d > best_d * 2.0, "versions must differ substantially");

    // Square: n = p = 1024, m = 256. Outer parallelism = 2^20 threads:
    // some outer-parallel version must beat full flattening.
    let square = matmul_abs(1024, 256, 1024);
    let flat_sq = gpu_sim::simulate(&fl.prog, &square, &t_flat, &dev).unwrap();
    let (best_s, _) = best_and_worst(&fl, &square, &dev);
    assert!(
        best_s < flat_sq.cost.total_cycles,
        "square shape: best {} !< flat {}",
        best_s,
        flat_sq.cost.total_cycles
    );
}

#[test]
fn default_thresholds_land_between_best_and_worst() {
    // The untuned default (2^15) picks *some* version — not necessarily
    // a good one (that is exactly the paper's motivation for tuning,
    // Fig. 2's black vs. red line), but always one of the enumerable
    // versions.
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let dev = DeviceSpec::k40();
    let def = Thresholds::new();
    for args in [matmul_abs(2, 1 << 18, 2), matmul_abs(1024, 256, 1024)] {
        let d = gpu_sim::simulate(&fl.prog, &args, &def, &dev).unwrap();
        let (best, worst) = best_and_worst(&fl, &args, &dev);
        assert!(
            d.cost.total_cycles >= best * 0.999 && d.cost.total_cycles <= worst * 1.001,
            "default {} outside [best {best}, worst {worst}]",
            d.cost.total_cycles,
        );
    }
}

#[test]
fn moderate_single_version_simulates_too() {
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let mf = flatten_moderate(&prog).unwrap();
    let dev = DeviceSpec::vega64();
    let rep =
        gpu_sim::simulate(&mf.prog, &matmul_abs(256, 256, 256), &Thresholds::new(), &dev)
            .unwrap();
    assert!(rep.path.is_empty(), "moderate flattening has no thresholds");
    assert!(rep.cost.total_cycles > 0.0);
}

#[test]
fn tiling_reduces_global_traffic() {
    // MF matmul is block-tiled; compare against a config with tiling
    // disabled.
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let tiled = flatten_moderate(&prog).unwrap();
    let cfg = incflat::FlattenConfig { enable_tiling: false, ..incflat::FlattenConfig::moderate() };
    let untiled = incflat::flatten(&prog, &cfg).unwrap();
    let dev = DeviceSpec::k40();
    let args = matmul_abs(1024, 1024, 1024);
    let t = Thresholds::new();
    let a = gpu_sim::simulate(&tiled.prog, &args, &t, &dev).unwrap();
    let b = gpu_sim::simulate(&untiled.prog, &args, &t, &dev).unwrap();
    assert!(
        a.cost.global_cycles < b.cost.global_cycles,
        "tiled {} !< untiled {}",
        a.cost.global_cycles,
        b.cost.global_cycles
    );
}

#[test]
fn intra_version_uses_local_memory() {
    // Batch of row scans: the e_middle version runs the scan at level 0
    // in local memory.
    let src = "
def rowscans [n][m] (xss: [n][m]f32): [n][m]f32 =
  map (\\xs -> scan (+) 0f32 xs) xss
";
    let prog = flat_lang::compile(src, "rowscans").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let dev = DeviceSpec::k40();
    let args = vec![
        AbsValue::known(flat_ir::Const::I64(4096)),
        AbsValue::known(flat_ir::Const::I64(256)),
        AbsValue::array(vec![4096, 256], flat_ir::ScalarType::F32),
    ];
    // Pick the middle version: outer test fails, intra test passes.
    let mut t = Thresholds::new();
    for info in fl.thresholds.iter() {
        match info.kind {
            incflat::ThresholdKind::SuffOuter => t.set(info.id, i64::MAX),
            incflat::ThresholdKind::SuffIntra => t.set(info.id, 0),
        }
    }
    let mid = gpu_sim::simulate(&fl.prog, &args, &t, &dev).unwrap();
    assert!(
        mid.cost.local_cycles > 0.0,
        "intra-group version must use local memory: {:?}",
        mid.cost
    );
    // And the fully flat segscan version must move more global data.
    let flat = gpu_sim::simulate(
        &fl.prog,
        &args,
        &Thresholds::uniform(fl.thresholds.ids(), i64::MAX),
        &dev,
    )
    .unwrap();
    assert!(flat.cost.global_cycles > mid.cost.global_cycles);
}

#[test]
fn local_memory_capacity_triggers_fallback() {
    // Rows far larger than local memory: the intra version must fall
    // back to global memory.
    let src = "
def rowscans [n][m] (xss: [n][m]f32): [n][m]f32 =
  map (\\xs -> scan (+) 0f32 xs) xss
";
    let prog = flat_lang::compile(src, "rowscans").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let dev = DeviceSpec::k40();
    let huge_rows = vec![
        AbsValue::known(flat_ir::Const::I64(64)),
        AbsValue::known(flat_ir::Const::I64(1 << 20)),
        AbsValue::array(vec![64, 1 << 20], flat_ir::ScalarType::F32),
    ];
    let mut t = Thresholds::new();
    for info in fl.thresholds.iter() {
        match info.kind {
            incflat::ThresholdKind::SuffOuter => t.set(info.id, i64::MAX),
            incflat::ThresholdKind::SuffIntra => t.set(info.id, 0),
        }
    }
    let rep = gpu_sim::simulate(&fl.prog, &huge_rows, &t, &dev).unwrap();
    assert!(rep.cost.local_fallbacks > 0, "{:?}", rep.cost);
}

#[test]
fn simulate_values_agrees_with_abstract() {
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let dev = DeviceSpec::k40();
    let t = Thresholds::new();
    let vals = vec![
        Value::i64_(2),
        Value::i64_(3),
        Value::i64_(2),
        Value::f32_matrix(2, 3, vec![0.0; 6]),
        Value::f32_matrix(3, 2, vec![0.0; 6]),
    ];
    let via_vals = simulate_values(&fl.prog, &vals, &t, &dev).unwrap();
    let via_abs = gpu_sim::simulate(&fl.prog, &matmul_abs(2, 3, 2), &t, &dev).unwrap();
    assert_eq!(via_vals.cost.total_cycles, via_abs.cost.total_cycles);
    assert_eq!(via_vals.path, via_abs.path);
}

#[test]
fn host_loops_multiply_kernel_launches() {
    let src = "
def stepper [n][m] (xss: [n][m]f32) (t: i64): [n][m]f32 =
  loop (cur = xss) for i < t do
    map (\\xs -> map (\\x -> x * 0.9f32 + 0.1f32) xs) cur
";
    let prog = flat_lang::compile(src, "stepper").unwrap();
    let fl = flatten_moderate(&prog).unwrap();
    let dev = DeviceSpec::k40();
    let mk = |iters: i64| {
        vec![
            AbsValue::known(flat_ir::Const::I64(128)),
            AbsValue::known(flat_ir::Const::I64(128)),
            AbsValue::array(vec![128, 128], flat_ir::ScalarType::F32),
            AbsValue::known(flat_ir::Const::I64(iters)),
        ]
    };
    let one = gpu_sim::simulate(&fl.prog, &mk(1), &Thresholds::new(), &dev).unwrap();
    let ten = gpu_sim::simulate(&fl.prog, &mk(10), &Thresholds::new(), &dev).unwrap();
    assert_eq!(ten.cost.kernel_launches, one.cost.kernel_launches * 10);
    assert!(ten.cost.total_cycles > one.cost.total_cycles * 5.0);
}

#[test]
fn devices_differ() {
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let args = matmul_abs(512, 512, 512);
    let t = Thresholds::new();
    let k = gpu_sim::simulate(&fl.prog, &args, &t, &DeviceSpec::k40()).unwrap();
    let v = gpu_sim::simulate(&fl.prog, &args, &t, &DeviceSpec::vega64()).unwrap();
    assert_ne!(k.cost.total_cycles, v.cost.total_cycles);
}

#[test]
fn path_signature_is_stable_across_repeated_simulations() {
    // The tuner memoizes on path signatures and the fuzz oracle
    // cross-checks them against the interpreter's decision log, so a
    // simulation must record the identical signature every time it is
    // re-run with the same thresholds — no iteration-order or
    // accumulated-state effects.
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let dev = DeviceSpec::k40();
    let args = matmul_abs(64, 32, 16);

    let ids: Vec<_> = fl.thresholds.ids().collect();
    assert!(!ids.is_empty());
    // Default thresholds, plus one forced-on and one forced-off config.
    let configs = [
        Thresholds::new(),
        Thresholds::uniform(ids.iter().copied(), 0),
        Thresholds::uniform(ids.iter().copied(), i64::MAX),
    ];
    for t in &configs {
        let first = gpu_sim::simulate(&fl.prog, &args, t, &dev).unwrap();
        let sig = path_signature(&first.path);
        for _ in 0..5 {
            let again = gpu_sim::simulate(&fl.prog, &args, t, &dev).unwrap();
            assert_eq!(path_signature(&again.path), sig);
            assert_eq!(again.cost.total_cycles, first.cost.total_cycles);
        }
    }
    // And the forced-on / forced-off configs must actually disagree.
    let on = gpu_sim::simulate(&fl.prog, &args, &configs[1], &dev).unwrap();
    let off = gpu_sim::simulate(&fl.prog, &args, &configs[2], &dev).unwrap();
    assert_ne!(
        path_signature(&on.path),
        path_signature(&off.path)
    );
}

#[test]
fn concrete_value_simulation_records_the_same_signature() {
    // simulate_values is the entry the fuzz oracle uses; its recorded
    // path must match the abstract-shape entry point's.
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let dev = DeviceSpec::k40();
    let (n, m, p) = (8i64, 4i64, 2i64);
    let vals = vec![
        Value::i64_(n),
        Value::i64_(m),
        Value::i64_(p),
        Value::Array(flat_ir::value::ArrayVal::new(
            vec![n, m],
            flat_ir::value::Buffer::F32(vec![0.0; (n * m) as usize]),
        )),
        Value::Array(flat_ir::value::ArrayVal::new(
            vec![m, p],
            flat_ir::value::Buffer::F32(vec![0.0; (m * p) as usize]),
        )),
    ];
    let t = Thresholds::new();
    let concrete = simulate_values(&fl.prog, &vals, &t, &dev).unwrap();
    let abstr = gpu_sim::simulate(&fl.prog, &matmul_abs(n, m, p), &t, &dev).unwrap();
    assert_eq!(
        path_signature(&concrete.path),
        path_signature(&abstr.path)
    );
}
