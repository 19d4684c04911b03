//! Acceptance tests for the `flat-exec` runtime: determinism across
//! thread counts, agreement with the reference interpreter, and
//! tree-consistency of live threshold dispatch.
//!
//! The executor's kernel decomposition depends only on the grain size —
//! never on the thread count — so every program must produce
//! *bit-identical* results under 1, 4 and 8 threads, at the default
//! grain and at a tiny grain that forces multi-block decompositions.
//! Integer programs must further match the reference interpreter
//! exactly; float programs match bitwise at the default (single-block)
//! grain and approximately under multi-block reduction, where the
//! combine order differs from the interpreter's strictly sequential
//! fold.

use incremental_flattening::prelude::*;

use exec::{ExecConfig, ExecReport};
use flat_ir::interp::Thresholds;
use ir::value::{Buffer, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const SMALL_GRAIN: usize = 4;

fn cfg(threads: usize, grain: usize) -> ExecConfig {
    ExecConfig {
        thresholds: Thresholds::new(),
        threads: Some(threads),
        grain,
        ..ExecConfig::default()
    }
}

fn buffers_approx(a: &Buffer, b: &Buffer) -> bool {
    fn close(x: f64, y: f64) -> bool {
        (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0)
    }
    match (a, b) {
        (Buffer::F32(x), Buffer::F32(y)) => {
            x.len() == y.len()
                && x.iter().zip(y).all(|(u, v)| close(*u as f64, *v as f64))
        }
        (Buffer::F64(x), Buffer::F64(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| close(*u, *v))
        }
        _ => a == b,
    }
}

fn values_approx(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Array(u), Value::Array(v)) => {
                u.shape == v.shape && buffers_approx(&u.data, &v.data)
            }
            (Value::Scalar(ir::Const::F32(u)), Value::Scalar(ir::Const::F32(v))) => {
                buffers_approx(&Buffer::F32(vec![*u]), &Buffer::F32(vec![*v]))
            }
            (Value::Scalar(ir::Const::F64(u)), Value::Scalar(ir::Const::F64(v))) => {
                buffers_approx(&Buffer::F64(vec![*u]), &Buffer::F64(vec![*v]))
            }
            _ => x == y,
        })
}

fn has_floats(vals: &[Value]) -> bool {
    vals.iter().any(|v| match v {
        Value::Scalar(c) => matches!(c, ir::Const::F32(_) | ir::Const::F64(_)),
        Value::Array(a) => matches!(a.data, Buffer::F32(_) | Buffer::F64(_)),
    })
}

/// The full determinism contract for one flattened program on one
/// argument list. Returns the default-grain reports for further checks.
fn check_program(name: &str, fl: &compiler::Flattened, args: &[Value]) -> Vec<ExecReport> {
    let reference = ir::interp::run_program(&fl.prog, args, &Thresholds::new())
        .unwrap_or_else(|e| panic!("{name}: interpreter failed: {e}"));
    let exact = !has_floats(&reference);

    for grain in [exec::DEFAULT_GRAIN, SMALL_GRAIN] {
        let reports: Vec<ExecReport> = THREAD_COUNTS
            .iter()
            .map(|&n| {
                exec::run_program(&fl.prog, args, &cfg(n, grain))
                    .unwrap_or_else(|e| panic!("{name}: exec ({n} threads, grain {grain}): {e}"))
            })
            .collect();

        // Bit-identical across thread counts, including the taken path.
        for (i, rep) in reports.iter().enumerate() {
            assert_eq!(
                rep.values, reports[0].values,
                "{name}: grain {grain}: {} threads diverges from 1 thread",
                THREAD_COUNTS[i]
            );
            assert_eq!(
                rep.signature(),
                reports[0].signature(),
                "{name}: grain {grain}: dispatch path depends on thread count"
            );
            // The live path must be one the branching tree can reach.
            assert!(
                fl.thresholds.admits(&rep.signature()),
                "{name}: live path {:?} not in the threshold tree",
                rep.signature()
            );
        }

        // Agreement with the reference interpreter: exact for integer
        // programs at any grain, and for float programs at the default
        // grain on these small inputs (single-block reductions); the
        // multi-block float combine order is only approximately equal.
        let got = &reports[0].values;
        if exact {
            assert_eq!(got, &reference, "{name}: grain {grain}: exec != interpreter");
        } else if grain == exec::DEFAULT_GRAIN {
            assert_eq!(
                got, &reference,
                "{name}: single-block float run should be bitwise equal"
            );
        } else {
            assert!(
                values_approx(got, &reference),
                "{name}: grain {grain}: exec not even approximately equal to interpreter"
            );
        }

        if grain == exec::DEFAULT_GRAIN {
            return reports;
        }
    }
    unreachable!()
}

fn f32_matrix(rows: i64, cols: i64, seed: u64) -> Value {
    exec::materialize(&[gpu::AbsValue::array(vec![rows, cols], ir::ScalarType::F32)], seed)
        .unwrap()
        .pop()
        .unwrap()
}

#[test]
fn examples_are_deterministic_across_thread_counts() {
    let matmul = std::fs::read_to_string("examples/matmul.fut").unwrap();
    let prog = lang::compile(&matmul, "matmul").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![
        Value::i64_(6),
        Value::i64_(10),
        Value::i64_(7),
        f32_matrix(6, 10, 1),
        f32_matrix(10, 7, 2),
    ];
    check_program("examples/matmul.fut", &fl, &args);

    let sumrows = std::fs::read_to_string("examples/sumrows.fut").unwrap();
    let prog = lang::compile(&sumrows, "sumrows").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(5), Value::i64_(9), f32_matrix(5, 9, 3)];
    check_program("examples/sumrows.fut", &fl, &args);
}

#[test]
fn benchmark_suite_is_deterministic_across_thread_counts() {
    let cfg = compiler::FlattenConfig::incremental();
    for b in bench_suite::all_benchmarks() {
        let fl = b.flatten(&cfg);
        let mut rng = StdRng::seed_from_u64(0xDE7E);
        let args = (b.test_args)(&mut rng);
        check_program(b.name, &fl, &args);
    }
}

#[test]
fn corpus_is_deterministic_and_matches_interpreter_exactly() {
    let cases = fuzz::corpus::load_dir(std::path::Path::new("tests/corpus")).unwrap();
    assert!(!cases.is_empty(), "corpus directory should not be empty");
    for case in cases {
        let inputs = fuzz::oracle::FuzzInputs::from_seed(case.n, case.m, case.data_seed);
        let prog = lang::compile(&case.source, "main")
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let fl = compiler::flatten_incremental(&prog).unwrap();
        let reports = check_program(&case.name, &fl, &inputs.ir_args());
        // Corpus programs are all-integer: the interpreter agreement in
        // check_program was exact, so just sanity-check that something
        // actually ran in parallel kernels.
        assert_eq!(reports.len(), THREAD_COUNTS.len());
    }
}

/// The live-dispatched path is not just *consistent* with the tree
/// (`ThresholdRegistry::admits`) — it is literally one of the paths
/// `ThresholdRegistry::assignments` produces when forced.
#[test]
fn live_dispatch_takes_an_enumerated_path() {
    let src = "\
def main [n][m] (xss: [n][m]i64) (ys: [m]i64) (c: i64) =
  map (\\r -> redomap (+) (\\x -> x * c) 0 r) xss
";
    let inputs = fuzz::oracle::FuzzInputs::from_seed(5, 6, 99);
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = inputs.ir_args();

    let live = exec::run_program(&fl.prog, &args, &cfg(4, SMALL_GRAIN)).unwrap();
    let live_sig = live.signature();

    let mut forced_sigs = Vec::new();
    for asg in fl.thresholds.assignments(32) {
        let rep = exec::run_program(
            &fl.prog,
            &args,
            &ExecConfig {
                thresholds: Thresholds::forcing(&asg),
                threads: Some(2),
                grain: SMALL_GRAIN,
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(rep.values, live.values, "forced path changed the result");
        forced_sigs.push(rep.signature());
    }
    assert!(
        forced_sigs.contains(&live_sig),
        "live path {live_sig:?} not among the enumerated paths {forced_sigs:?}"
    );
}
