//! End-to-end autotuning tests on the matmul running example (§2.2):
//! tuning must recover the paper's behaviour — fully flattened code for
//! degenerate shapes, outer-parallel tiled code for square shapes — and
//! the tree memoization must save most of the simulations.

use autotune::{exhaustive_tune, Dataset, StochasticTuner, TuningProblem};
use flat_ir::interp::Thresholds;
use flat_ir::{Const, ScalarType};
use gpu_sim::{AbsValue, DeviceSpec};
use incflat::flatten_incremental;

const MATMUL: &str = "
def matmul [n][m][p] (xss: [n][m]f32) (yss: [m][p]f32): [n][p]f32 =
  map (\\xs -> map (\\ys -> redomap (+) (*) 0f32 xs ys) (transpose yss)) xss
";

fn matmul_dataset(k: u32, n_exp: u32) -> Dataset {
    // The paper's Fig. 2 setup: 2^n × 2^m times 2^m × 2^n with m = k-2n.
    let n = 1i64 << n_exp;
    let m = 1i64 << (k - 2 * n_exp);
    Dataset::new(
        format!("2^{n_exp}x2^{}", k - 2 * n_exp),
        vec![
            AbsValue::known(Const::I64(n)),
            AbsValue::known(Const::I64(m)),
            AbsValue::known(Const::I64(n)),
            AbsValue::array(vec![n, m], ScalarType::F32),
            AbsValue::array(vec![m, n], ScalarType::F32),
        ],
    )
}

#[test]
fn tuning_beats_defaults_on_fig2_workload() {
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let datasets: Vec<Dataset> = (0..=8).map(|ne| matmul_dataset(20, ne)).collect();
    let problem = TuningProblem::new(&fl, datasets, DeviceSpec::k40());

    // Untuned default cost.
    let default = Thresholds::new();
    let untuned: f64 = problem
        .datasets
        .iter()
        .map(|d| problem.run_dataset(d, &default).unwrap().cost.total_cycles)
        .sum();

    let tuner = StochasticTuner::default();
    let result = tuner.run(&problem).unwrap();
    assert!(
        result.best_cost < untuned,
        "tuned {} !< untuned {untuned}",
        result.best_cost
    );
    // Per-dataset runtimes must match re-simulation with the tuned
    // assignment.
    for (d, &rt) in problem.datasets.iter().zip(&result.per_dataset) {
        let rep = problem.run_dataset(d, &result.thresholds).unwrap();
        assert!((rep.cost.total_cycles - rt).abs() < 1e-6);
    }
}

#[test]
fn memoization_saves_simulations() {
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let datasets: Vec<Dataset> = (0..=6).map(|ne| matmul_dataset(18, ne)).collect();
    let problem = TuningProblem::new(&fl, datasets, DeviceSpec::k40());
    let tuner = StochasticTuner { max_candidates: 300, ..Default::default() };
    let result = tuner.run(&problem).unwrap();
    // 300 candidates × 7 datasets = 2100 evaluations; the number of
    // distinct paths is tiny, so almost all must be cache hits.
    assert!(
        result.cache_hits > result.simulations * 3,
        "hits {} vs sims {}",
        result.cache_hits,
        result.simulations
    );
}

#[test]
fn exhaustive_is_at_least_as_good_as_stochastic() {
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let datasets: Vec<Dataset> = (0..=8).map(|ne| matmul_dataset(20, ne)).collect();
    let problem = TuningProblem::new(&fl, datasets, DeviceSpec::k40());

    let stoch = StochasticTuner::default().run(&problem).unwrap();
    let exh = exhaustive_tune(&problem, 1 << 20).unwrap();
    assert!(
        exh.best_cost <= stoch.best_cost * 1.0001,
        "exhaustive {} worse than stochastic {}",
        exh.best_cost,
        stoch.best_cost
    );
}

#[test]
fn tuned_thresholds_transfer_to_larger_datasets() {
    // The paper trains on k=20 and applies the thresholds to k=25
    // (Fig. 2). The tuned program must not be worse than the untuned
    // default on the held-out datasets (in aggregate).
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let train: Vec<Dataset> = (0..=8).map(|ne| matmul_dataset(20, ne)).collect();
    let problem = TuningProblem::new(&fl, train, DeviceSpec::k40());
    let tuned = exhaustive_tune(&problem, 1 << 20).unwrap().thresholds;

    let test: Vec<Dataset> = (0..=10).map(|ne| matmul_dataset(25, ne)).collect();
    let mut untuned_total = 0.0;
    let mut tuned_total = 0.0;
    for d in &test {
        untuned_total += problem.run_dataset(d, &Thresholds::new()).unwrap().cost.total_cycles;
        tuned_total += problem.run_dataset(d, &tuned).unwrap().cost.total_cycles;
    }
    assert!(
        tuned_total <= untuned_total,
        "transfer failed: tuned {tuned_total} > untuned {untuned_total}"
    );
}

#[test]
fn weighted_cost_function_changes_preference() {
    use autotune::CostFunction;
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    // Two very different shapes.
    let datasets = vec![matmul_dataset(20, 0), matmul_dataset(20, 8)];
    let mut problem = TuningProblem::new(&fl, datasets, DeviceSpec::k40());
    problem.cost_fn = CostFunction::Weighted(vec![1000.0, 0.001]);
    let r = StochasticTuner::default().run(&problem).unwrap();
    // The heavily weighted degenerate dataset must be near its solo
    // optimum.
    let solo = {
        let p2 = TuningProblem::new(&fl, vec![matmul_dataset(20, 0)], DeviceSpec::k40());
        exhaustive_tune(&p2, 1 << 20).unwrap()
    };
    let tuned_deg = problem
        .run_dataset(&problem.datasets[0], &r.thresholds)
        .unwrap()
        .cost
        .total_cycles;
    assert!(
        tuned_deg <= solo.per_dataset[0] * 1.5,
        "weighted tuning ignored the important dataset: {tuned_deg} vs {}",
        solo.per_dataset[0]
    );
}

#[test]
fn per_device_tuning_differs_when_it_should() {
    // Tune the same program on both devices; results must be valid on
    // each (paper: "parameters that are optimal for one are not
    // necessarily optimal for the other").
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    for dev in [DeviceSpec::k40(), DeviceSpec::vega64()] {
        let datasets: Vec<Dataset> = (0..=8).map(|ne| matmul_dataset(20, ne)).collect();
        let problem = TuningProblem::new(&fl, datasets, dev);
        let r = exhaustive_tune(&problem, 1 << 20).unwrap();
        assert!(r.best_cost.is_finite() && r.best_cost > 0.0);
    }
}

#[test]
fn memoization_ablation_same_result_many_more_runs() {
    // §4.2: without the branching-tree cache, the tuner re-runs the
    // program for duplicate parameter assignments. The search visits the
    // same candidates (same seed), so the answer is identical — only the
    // number of real runs explodes.
    let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
    let fl = flatten_incremental(&prog).unwrap();
    let datasets: Vec<Dataset> = (0..=6).map(|ne| matmul_dataset(18, ne)).collect();
    let problem = TuningProblem::new(&fl, datasets, DeviceSpec::k40());

    let with_cache = StochasticTuner { max_candidates: 120, ..Default::default() };
    let without_cache = StochasticTuner {
        max_candidates: 120,
        disable_memoization: true,
        ..Default::default()
    };
    let a = with_cache.run(&problem).unwrap();
    let b = without_cache.run(&problem).unwrap();
    assert_eq!(a.best_cost, b.best_cost, "search must be unaffected");
    assert_eq!(b.cache_hits, 0);
    assert!(
        b.simulations > a.simulations * 5,
        "cache should save most runs: {} vs {}",
        b.simulations,
        a.simulations
    );
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// After one priming run, a *predicted* path signature (from the
    /// cached parallelism degrees) always matches the signature of an
    /// actual simulation — on any threshold assignment over the observed
    /// region — provided prediction succeeds at all.
    #[test]
    fn predicted_paths_match_actual(values in proptest::collection::vec(0u32..26, 6)) {
        let prog = flat_lang::compile(MATMUL, "matmul").unwrap();
        let fl = flatten_incremental(&prog).unwrap();
        let d = matmul_dataset(18, 3);
        let problem = TuningProblem::new(&fl, vec![d], DeviceSpec::k40());

        // Prime the cache by exploring every path.
        let mut cache = autotune::DatasetCache::default();
        let ids: Vec<_> = fl.thresholds.ids().collect();
        for mask in 0..(1u32 << ids.len()) {
            let decisions: Vec<_> =
                ids.iter().enumerate().map(|(k, id)| (*id, mask & (1 << k) != 0)).collect();
            let t = Thresholds::forcing(&decisions);
            let rep = problem.run_dataset(&problem.datasets[0], &t).unwrap();
            cache.record(&rep.path, rep.cost.total_cycles);
        }

        // Random assignment over powers of two.
        let mut t = Thresholds::new();
        for (id, v) in ids.iter().zip(&values) {
            t.set(*id, 1i64 << v);
        }
        if let Some(predicted) = cache.predict(&fl.thresholds, &t) {
            let rep = problem.run_dataset(&problem.datasets[0], &t).unwrap();
            let actual = flat_ir::interp::path_signature(&rep.path);
            proptest::prop_assert_eq!(predicted, actual);
        }
    }
}
