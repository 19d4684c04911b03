//! Workspace-level integration tests: the full pipeline (surface language
//! → fusion → flattening → simulation/interpretation → tuning) across
//! every benchmark of the suite.

use incremental_flattening::prelude::*;
use ir::interp::{run_program, Thresholds};
use tuning::{exhaustive_tune, TuningProblem};

/// Every benchmark: the flattened program computes the same values as
/// the source, under every extreme of the threshold space.
#[test]
fn all_benchmarks_semantics_roundtrip() {
    for bench in bench_suite::all_benchmarks() {
        let prog = bench.compile();
        ir::typecheck::check_source(&prog).unwrap();
        let mut rng = bench_suite::Benchmark::rng();
        let vals = (bench.test_args)(&mut rng);
        let reference = run_program(&prog, &vals, &Thresholds::new())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        for cfg in [
            compiler::FlattenConfig::moderate(),
            compiler::FlattenConfig::incremental(),
            compiler::FlattenConfig::full(),
        ] {
            let fl = bench.flatten(&cfg);
            ir::typecheck::check_target(&fl.prog).unwrap();
            for setting in [0, Thresholds::DEFAULT, i64::MAX] {
                let t = Thresholds::uniform(fl.thresholds.ids(), setting);
                let got = run_program(&fl.prog, &vals, &t)
                    .unwrap_or_else(|e| panic!("{} (t={setting}): {e}", bench.name));
                assert_eq!(reference.len(), got.len(), "{}", bench.name);
                for (r, g) in reference.iter().zip(&got) {
                    assert!(
                        r.approx_eq(g, 1e-3),
                        "{} at t={setting}: {r} vs {g}",
                        bench.name
                    );
                }
            }
        }
    }
}

/// Every benchmark simulates on both devices at default thresholds, on
/// every paper dataset, without errors, and produces positive runtimes.
#[test]
fn all_benchmarks_simulate_on_paper_datasets() {
    let t = Thresholds::new();
    for bench in bench_suite::all_benchmarks() {
        for cfg in [compiler::FlattenConfig::moderate(), compiler::FlattenConfig::incremental()] {
            let fl = bench.flatten(&cfg);
            for dev in [gpu::DeviceSpec::k40(), gpu::DeviceSpec::vega64()] {
                for d in &bench.datasets {
                    let rep = gpu::simulate(&fl.prog, &d.args, &t, &dev)
                        .unwrap_or_else(|e| panic!("{} {} {}: {e}", bench.name, d.name, dev.name));
                    assert!(rep.cost.total_cycles > 0.0);
                    assert!(rep.microseconds > 0.0);
                }
            }
        }
    }
}

/// Autotuned IF is never worse than untuned IF on the tuning datasets
/// (by construction), and never worse than both MF and untuned IF in
/// aggregate on the paper datasets.
#[test]
fn tuning_improves_or_preserves_aggregate_cost() {
    let default = Thresholds::new();
    for bench in bench_suite::all_benchmarks() {
        let mf = bench.flatten(&compiler::FlattenConfig::moderate());
        let incr = bench.flatten(&compiler::FlattenConfig::incremental());
        for dev in [gpu::DeviceSpec::k40(), gpu::DeviceSpec::vega64()] {
            let problem =
                TuningProblem::new(&incr, bench.tuning_datasets.clone(), dev.clone());
            let tuned = exhaustive_tune(&problem, 1 << 20).unwrap().thresholds;

            let total = |fl: &compiler::Flattened, t: &Thresholds| -> f64 {
                bench
                    .datasets
                    .iter()
                    .map(|d| bench.cost(fl, &dev, d, t).unwrap())
                    .sum()
            };
            let mf_total = total(&mf, &default);
            let if_total = total(&incr, &default);
            let aif_total = total(&incr, &tuned);
            assert!(
                aif_total <= if_total * 1.001,
                "{} on {}: tuned {} worse than untuned {}",
                bench.name,
                dev.name,
                aif_total,
                if_total
            );
            assert!(
                aif_total <= mf_total * 1.05,
                "{} on {}: tuned {} worse than MF {}",
                bench.name,
                dev.name,
                aif_total,
                mf_total
            );
        }
    }
}

/// The §5.1 code-size claim holds in aggregate: incremental flattening
/// produces larger programs than moderate flattening, within a modest
/// constant factor (the paper reports ~3-4×).
#[test]
fn code_growth_is_bounded() {
    let mut total_mf = 0usize;
    let mut total_if = 0usize;
    for bench in bench_suite::all_benchmarks() {
        let mf = bench.flatten(&compiler::FlattenConfig::moderate());
        let incr = bench.flatten(&compiler::FlattenConfig::incremental());
        total_mf += mf.stats.target_stms;
        total_if += incr.stats.target_stms;
        assert!(
            incr.stats.target_stms <= mf.stats.target_stms * 12,
            "{}: runaway code growth ({} vs {})",
            bench.name,
            incr.stats.target_stms,
            mf.stats.target_stms
        );
    }
    let ratio = total_if as f64 / total_mf as f64;
    assert!(
        (1.0..=8.0).contains(&ratio),
        "aggregate code growth {ratio} outside the plausible band"
    );
}

/// Thresholds are the *only* dynamic knobs: at a fixed assignment the
/// simulator is deterministic.
#[test]
fn simulation_is_deterministic() {
    let bench = bench_suite::matmul::benchmark();
    let fl = bench.flatten(&compiler::FlattenConfig::incremental());
    let dev = gpu::DeviceSpec::k40();
    let d = &bench.datasets[3];
    let t = Thresholds::new();
    let a = gpu::simulate(&fl.prog, &d.args, &t, &dev).unwrap();
    let b = gpu::simulate(&fl.prog, &d.args, &t, &dev).unwrap();
    assert_eq!(a.cost.total_cycles, b.cost.total_cycles);
    assert_eq!(a.path, b.path);
}

/// The moderate-flattened program behaves like the incremental one with
/// a fixed "all guards false" policy on programs where MF's heuristic
/// flattens everything (the batch scans case): cost parity check.
#[test]
fn moderate_matches_a_version_of_incremental() {
    let src = "
def rowscans [n][m] (xss: [n][m]f32): [n][m]f32 =
  map (\\xs -> scan (+) 0f32 xs) xss
";
    let prog = lang::compile(src, "rowscans").unwrap();
    let mf = compiler::flatten_moderate(&prog).unwrap();
    let incr = compiler::flatten_incremental(&prog).unwrap();
    let dev = gpu::DeviceSpec::k40();
    let args = vec![
        gpu::AbsValue::known(ir::Const::I64(512)),
        gpu::AbsValue::known(ir::Const::I64(256)),
        gpu::AbsValue::array(vec![512, 256], ir::ScalarType::F32),
    ];
    let mf_c = gpu::simulate(&mf.prog, &args, &Thresholds::new(), &dev).unwrap();
    let flat = Thresholds::uniform(incr.thresholds.ids(), i64::MAX);
    let if_c = gpu::simulate(&incr.prog, &args, &flat, &dev).unwrap();
    let rel = (mf_c.cost.total_cycles - if_c.cost.total_cycles).abs()
        / mf_c.cost.total_cycles;
    assert!(
        rel < 0.05,
        "MF {} vs IF-all-false {} differ by {rel}",
        mf_c.cost.total_cycles,
        if_c.cost.total_cycles
    );
}

/// The interpreter and the simulator agree on which code version runs
/// (identical threshold-comparison outcomes).
#[test]
fn interpreter_and_simulator_take_the_same_path() {
    let bench = bench_suite::matmul::benchmark();
    let fl = bench.flatten(&compiler::FlattenConfig::incremental());
    let mut rng = bench_suite::Benchmark::rng();
    let vals = (bench.test_args)(&mut rng);
    for setting in [1, 4, 64, Thresholds::DEFAULT] {
        let t = Thresholds::uniform(fl.thresholds.ids(), setting);
        let mut interp = ir::interp::Interp::new(&t);
        interp.bind_args(&fl.prog, &vals).unwrap();
        interp.eval_body(&fl.prog.body).unwrap();
        let sim = gpu::simulate_values(&fl.prog, &vals, &t, &gpu::DeviceSpec::k40()).unwrap();
        let interp_sig: Vec<(u32, bool)> = {
            let mut v: Vec<(u32, bool)> =
                interp.path.iter().map(|(id, b)| (id.0, *b)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let sim_sig: Vec<(u32, bool)> = {
            let mut v: Vec<(u32, bool)> =
                sim.path.iter().map(|c| (c.id.0, c.taken)).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        assert_eq!(interp_sig, sim_sig, "divergent paths at t={setting}");
    }
}

/// The branching tree's one walk, read four ways, agrees with itself on
/// every benchmark and example: uncapped, the assignments enumerate
/// exactly `num_versions` paths, each a distinct signature the tree
/// admits, and forcing one in the interpreter takes exactly that path.
#[test]
fn tree_walkers_agree_on_every_program() {
    let mut programs: Vec<(String, compiler::Flattened, Vec<ir::Value>)> = Vec::new();
    for b in bench_suite::all_benchmarks() {
        let args = (b.test_args)(&mut bench_suite::Benchmark::rng());
        let fl = b.flatten(&compiler::FlattenConfig::incremental());
        programs.push((b.name.to_string(), fl, args));
    }
    for (name, sizes) in [
        ("matmul", "4,8,4,[4][8]f32,[8][4]f32"),
        ("sumrows", "4,8,[4][8]f32"),
        ("locvolcalib", "8,8,8,[8][8][8]f32,[8][8][8]f32,2"),
    ] {
        let src = std::fs::read_to_string(format!("examples/{name}.fut")).unwrap();
        let fl = compiler::flatten_incremental(&lang::compile(&src, name).unwrap()).unwrap();
        let abs: Vec<gpu::AbsValue> = sizes.split(',').map(|s| s.parse().unwrap()).collect();
        programs.push((name.to_string(), fl, exec::materialize(&abs, 7).unwrap()));
    }
    for (name, fl, args) in &programs {
        let reg = &fl.thresholds;
        let n = reg.num_versions();
        let asgs = reg.assignments(n + 1);
        assert_eq!(asgs.len(), n, "{name}");
        let mut sigs = std::collections::BTreeSet::new();
        for asg in &asgs {
            let sig = ir::interp::path_signature(asg);
            assert!(reg.admits(&sig), "{name}: {asg:?}");
            assert!(sigs.insert(sig.clone()), "{name}: {asg:?} enumerated twice");
            let t = Thresholds::forcing(asg);
            let mut interp = ir::interp::Interp::new(&t);
            interp.bind_args(&fl.prog, args).unwrap();
            interp.eval_body(&fl.prog.body).unwrap();
            assert_eq!(ir::interp::path_signature(&interp.path), sig, "{name}: forced {asg:?}");
        }
    }
}

/// `flatc tree` and `fig5_tree` print `ThresholdRegistry::render_tree`;
/// its Fig. 5 layout is pinned on the examples.
#[test]
fn tree_rendering_is_pinned_on_the_examples() {
    let sumrows = "suff_outer_par_0 (t0)\n  [false]\n    suff_intra_par_1 (t1)\n";
    let matmul = "suff_outer_par_0 (t0)\n  [false]\n    suff_intra_par_1 (t1)\n      \
                  [false]\n        suff_outer_par_2 (t2)\n          [false]\n            \
                  suff_intra_par_3 (t3)\n";
    let locvolcalib = format!(
        "{matmul}        suff_outer_par_4 (t4)\n          [false]\n            \
         suff_intra_par_5 (t5)\n"
    );
    for (name, want) in [("sumrows", sumrows), ("matmul", matmul), ("locvolcalib", &locvolcalib)] {
        let src = std::fs::read_to_string(format!("examples/{name}.fut")).unwrap();
        let fl = compiler::flatten_incremental(&lang::compile(&src, name).unwrap()).unwrap();
        assert_eq!(fl.thresholds.render_tree(), want, "{name}");
    }
}
