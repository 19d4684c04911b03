//! Conformance tests for the `flat-vm` bytecode tier: on every example,
//! corpus seed, and benchmark, the VM must be **bitwise
//! interchangeable** with the tree-walking executor — identical result
//! bits and identical `path_signature` at every thread count and grain
//! — while both stay in the interpreter-agreement envelope
//! `tests/executor.rs` establishes (integers exact everywhere; floats
//! bitwise at the single-block default grain, approximately equal under
//! multi-block reassociation).
//!
//! The vm-vs-exec comparison is *unconditionally* bitwise, floats
//! included: the VM inherits `flat-exec`'s exact decomposition (chunk
//! boundaries, block partials, combine order), so there is no
//! reassociation between the two backends to forgive.
//!
//! Two disassembly goldens pin the bytecode lowering: register
//! assignment, monomorphic opcode selection, and the compiled segop
//! structure for a `segmap` and a `segred`.
//!
//! The `leaf_*` tests aim at the range-at-a-time path (`flat-vm` runs a
//! straight-line step function a strip of lanes at a time): widths
//! around the strip and grain boundaries, every column type, special
//! float values, multi-accumulator operators, and the fallbacks that
//! must stay on the per-element path with today's errors.

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
        x == y
            || (x.is_nan() && y.is_nan())
            || (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0)
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

/// Shapes and raw bit patterns: `==` on values cannot tell `-0.0` from
/// `0.0` and calls a NaN unequal to itself. NaNs are all mapped to one
/// pattern: which operand's payload (and sign) a float instruction
/// propagates is not something Rust fixes for `a + b`.
fn bits(vals: &[Value]) -> Vec<(Vec<i64>, Vec<u64>)> {
    fn of(b: &Buffer) -> Vec<u64> {
        match b {
            Buffer::I32(v) => v.iter().map(|&x| x as u64).collect(),
            Buffer::I64(v) => v.iter().map(|&x| x as u64).collect(),
            Buffer::F32(v) => {
                v.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() as u64 }).collect()
            }
            Buffer::F64(v) => {
                v.iter().map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() }).collect()
            }
            Buffer::Bool(v) => v.iter().map(|&x| x as u64).collect(),
        }
    }
    vals.iter()
        .map(|v| match v {
            Value::Array(a) => (a.shape.clone(), of(&a.data)),
            Value::Scalar(c) => {
                let mut b = Buffer::with_capacity(c.scalar_type(), 1);
                b.push(*c);
                (vec![], of(&b))
            }
        })
        .collect()
}

fn has_floats(vals: &[Value]) -> bool {
    vals.iter().any(|v| match v {
        Value::Scalar(c) => matches!(c, ir::Const::F32(_) | ir::Const::F64(_)),
        Value::Array(a) => matches!(a.data, Buffer::F32(_) | Buffer::F64(_)),
    })
}

/// The three-way conformance contract for one flattened program on one
/// argument list: interpreter vs executor vs VM at every thread count
/// and both grains.
fn check_conformance(name: &str, fl: &compiler::Flattened, args: &[Value]) {
    let reference = ir::interp::run_program(&fl.prog, args, &Thresholds::new())
        .unwrap_or_else(|e| panic!("{name}: interpreter failed: {e}"));
    let exact = !has_floats(&reference);

    for grain in [exec::DEFAULT_GRAIN, SMALL_GRAIN] {
        let mut first_vm: Option<ExecReport> = None;
        for &threads in &THREAD_COUNTS {
            let erep = exec::run_program(&fl.prog, args, &cfg(threads, grain))
                .unwrap_or_else(|e| {
                    panic!("{name}: exec ({threads} threads, grain {grain}): {e}")
                });
            let vrep = vm::run_program(&fl.prog, args, &cfg(threads, grain))
                .unwrap_or_else(|e| {
                    panic!("{name}: vm ({threads} threads, grain {grain}): {e}")
                });

            // The headline contract: the VM is bitwise interchangeable
            // with the executor — results, floats included, and the
            // live-dispatched threshold path.
            assert_eq!(
                bits(&vrep.values),
                bits(&erep.values),
                "{name}: grain {grain}, {threads} threads: vm diverges from exec"
            );
            assert_eq!(
                vrep.signature(),
                erep.signature(),
                "{name}: grain {grain}, {threads} threads: vm path differs from exec"
            );
            assert!(
                fl.thresholds.admits(&vrep.signature()),
                "{name}: vm live path {:?} not in the threshold tree",
                vrep.signature()
            );
            // Both tiers run the one decomposition, so everything it
            // records is equal too: every comparison (id, par, outcome,
            // order) and every launch's identity and split.
            let at = format!("{name}: grain {grain}, {threads} threads");
            let cmps = |r: &ExecReport| -> Vec<(u32, i64, bool)> {
                r.path.iter().map(|c| (c.id.0, c.par, c.taken)).collect()
            };
            assert_eq!(cmps(&vrep), cmps(&erep), "{at}: comparison records differ");
            assert_eq!(vrep.launches.len(), erep.launches.len(), "{at}: launch counts differ");
            for (v, e) in vrep.launches.iter().zip(&erep.launches) {
                assert_eq!(
                    (&v.name, v.kind, v.level, v.space, v.tasks, &v.widths, &v.path),
                    (&e.name, e.kind, e.level, e.space, e.tasks, &e.widths, &e.path),
                    "{at}: launch records differ"
                );
            }

            // And the VM is deterministic across thread counts on its
            // own terms, like the executor.
            match &first_vm {
                None => first_vm = Some(vrep),
                Some(first) => {
                    assert_eq!(
                        bits(&vrep.values),
                        bits(&first.values),
                        "{name}: grain {grain}: vm at {threads} threads diverges from 1 thread"
                    );
                    assert_eq!(
                        vrep.signature(),
                        first.signature(),
                        "{name}: grain {grain}: vm path depends on thread count"
                    );
                }
            }
        }

        // Interpreter agreement, per the executor.rs envelope.
        let got = &first_vm.expect("at least one thread count").values;
        if exact {
            assert_eq!(bits(got), bits(&reference), "{name}: grain {grain}: vm != interpreter");
        } else if grain == exec::DEFAULT_GRAIN {
            assert_eq!(
                bits(got),
                bits(&reference),
                "{name}: single-block float vm run should be bitwise equal to the interpreter"
            );
        } else {
            assert!(
                values_approx(got, &reference),
                "{name}: grain {grain}: vm not even approximately equal to the interpreter"
            );
        }
    }
}

fn f32_matrix(rows: i64, cols: i64, seed: u64) -> Value {
    exec::materialize(&[gpu::AbsValue::array(vec![rows, cols], ir::ScalarType::F32)], seed)
        .unwrap()
        .pop()
        .unwrap()
}

fn f32_cube(a: i64, b: i64, c: i64, seed: u64) -> Value {
    exec::materialize(&[gpu::AbsValue::array(vec![a, b, c], ir::ScalarType::F32)], seed)
        .unwrap()
        .pop()
        .unwrap()
}

#[test]
fn examples_conform() {
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
    check_conformance("examples/matmul.fut", &fl, &args);

    let sumrows = std::fs::read_to_string("examples/sumrows.fut").unwrap();
    let prog = lang::compile(&sumrows, "sumrows").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(5), Value::i64_(9), f32_matrix(5, 9, 3)];
    check_conformance("examples/sumrows.fut", &fl, &args);
}

/// The paper's flagship shape-dependent program: an outer map over a
/// sequential time loop of scan pipelines. Narrow-outer dataset so the
/// flattened inner versions get exercised too.
#[test]
fn locvolcalib_conforms() {
    let src = std::fs::read_to_string("examples/locvolcalib.fut").unwrap();
    let prog = lang::compile(&src, "locvolcalib").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![
        Value::i64_(16),
        Value::i64_(4),
        Value::i64_(8),
        f32_cube(16, 4, 8, 11),
        f32_cube(16, 8, 4, 12),
        Value::i64_(2),
    ];
    check_conformance("examples/locvolcalib.fut", &fl, &args);
}

#[test]
fn benchmark_suite_conforms() {
    let cfg = compiler::FlattenConfig::incremental();
    for b in bench_suite::all_benchmarks() {
        let fl = b.flatten(&cfg);
        let mut rng = StdRng::seed_from_u64(0xDE7E);
        let args = (b.test_args)(&mut rng);
        check_conformance(b.name, &fl, &args);
    }
}

#[test]
fn corpus_conforms() {
    let cases = fuzz::corpus::load_dir(std::path::Path::new("tests/corpus")).unwrap();
    assert!(!cases.is_empty(), "corpus directory should not be empty");
    for case in cases {
        let inputs = fuzz::oracle::FuzzInputs::from_seed(case.n, case.m, case.data_seed);
        let prog = lang::compile(&case.source, "main")
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let fl = compiler::flatten_incremental(&prog).unwrap();
        check_conformance(&case.name, &fl, &inputs.ir_args());
    }
}

/// Zero-extent degrees must flow through both backends as empty results
/// — never panics. This pins the fix for the executor's
/// panic-on-empty-segment family (`take_slot`/`partials.next` expects,
/// `ctx.last`, out-of-bounds indexing), all now structured `ExecError`s
/// or well-defined empty shapes.
#[test]
fn zero_extent_segments_run_on_both_backends() {
    let empty_i64 = |shape: Vec<i64>| Value::array_from(shape, Buffer::I64(vec![]));

    // segmap over zero elements.
    let src = "def main [n] (xs: [n]i64) =\n  map (\\x -> x + 1) xs\n";
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(0), empty_i64(vec![0])];
    check_conformance("segmap/zero-width", &fl, &args);

    // segred with zero segments (n = 0) and with a zero-width inner
    // dimension (m = 0: every row sum is the neutral element).
    let src = "def main [n][m] (xss: [n][m]i64) =\n  map (\\r -> reduce (+) 0 r) xss\n";
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(0), Value::i64_(3), empty_i64(vec![0, 3])];
    check_conformance("segred/zero-segments", &fl, &args);
    let args = vec![Value::i64_(3), Value::i64_(0), empty_i64(vec![3, 0])];
    check_conformance("segred/zero-inner-width", &fl, &args);

    // segscan with a zero-width inner dimension (total = 0).
    let src = "def main [n][m] (xss: [n][m]i64) =\n  map (\\r -> scan (+) 0 r) xss\n";
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(3), Value::i64_(0), empty_i64(vec![3, 0])];
    check_conformance("segscan/zero-inner-width", &fl, &args);
    let args = vec![Value::i64_(0), Value::i64_(2), empty_i64(vec![0, 2])];
    check_conformance("segscan/zero-segments", &fl, &args);
}

/// An out-of-bounds index is a structured `ExecError` on both backends
/// — identical message, no panic (it used to assert inside
/// `index_outer_many`).
#[test]
fn out_of_bounds_index_is_a_structured_error_on_both_backends() {
    let src = "def main [n] (xs: [n]i64) (c: i64) =\n  xs[c]\n";
    let prog = lang::compile(src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let args = vec![Value::i64_(3), Value::i64_vec(vec![10, 20, 30]), Value::i64_(7)];

    let e = exec::run_program(&fl.prog, &args, &cfg(2, SMALL_GRAIN))
        .expect_err("exec must reject the out-of-bounds index");
    let v = vm::run_program(&fl.prog, &args, &cfg(2, SMALL_GRAIN))
        .expect_err("vm must reject the out-of-bounds index");
    for (backend, err) in [("exec", &e), ("vm", &v)] {
        assert!(
            err.0.contains("out of bounds"),
            "{backend}: unstructured error: {}",
            err.0
        );
    }
    assert_eq!(e.0, v.0, "both backends should agree on the error text");

    // In-bounds still works, bitwise across backends.
    let args = vec![Value::i64_(3), Value::i64_vec(vec![10, 20, 30]), Value::i64_(1)];
    check_conformance("index/in-bounds", &fl, &args);

    // Negative index is the same structured failure.
    let args = vec![Value::i64_(3), Value::i64_vec(vec![10, 20, 30]), Value::i64_(-1)];
    assert!(exec::run_program(&fl.prog, &args, &cfg(2, SMALL_GRAIN))
        .expect_err("negative index")
        .0
        .contains("out of bounds"));
    assert!(vm::run_program(&fl.prog, &args, &cfg(2, SMALL_GRAIN))
        .expect_err("negative index")
        .0
        .contains("out of bounds"));
}

fn flatten(src: &str) -> compiler::Flattened {
    compiler::flatten_incremental(&lang::compile(src, "main").unwrap()).unwrap()
}

/// How many step functions of the flattened program lowered to leaves,
/// and how many stayed on the per-element path.
fn leaf_census(fl: &compiler::Flattened) -> (usize, usize) {
    let compiled = vm::compile(&fl.prog).unwrap();
    let steps: Vec<_> = compiled.steps.iter().flatten().collect();
    let leaves = steps.iter().filter(|s| s.is_ok()).count();
    (leaves, steps.len() - leaves)
}

fn f32_vec(xs: &[f32]) -> Value {
    Value::array_from(vec![xs.len() as i64], Buffer::F32(xs.to_vec()))
}

/// `n` finite f32s with some spread, exactly representable.
fn f32_ramp(n: i64, seed: i64) -> Value {
    f32_vec(&(0..n).map(|i| ((i * 37 + seed * 11) % 101 - 50) as f32 * 0.25).collect::<Vec<_>>())
}

/// Widths on both sides of every boundary the strip loop has: empty, a
/// single lane, the strip (= default grain) ± 1, and the small grain ± 1.
#[test]
fn leaf_loops_conform_at_strip_and_grain_boundaries() {
    let map = flatten("def main [n] (xs: [n]i64) (c: i64) =\n  map (\\x -> x * c + 1) xs\n");
    let red = flatten("def main [n] (xs: [n]f32) =\n  reduce (+) 0f32 xs\n");
    let scan = flatten("def main [n] (xs: [n]f32) =\n  scan max 0f32 xs\n");
    let rows = flatten("def main [n][m] (xss: [n][m]f32) =\n  map (\\r -> scan (+) 0f32 r) xss\n");
    // map body; fold; fold + fixup combine.
    assert_eq!(leaf_census(&map), (1, 0));
    assert_eq!(leaf_census(&red), (1, 0));
    assert_eq!(leaf_census(&scan), (2, 0));
    for w in [0i64, 1, 3, 4, 5, 255, 256, 257, 600] {
        let n = Value::i64_(w);
        let xs = Value::i64_vec((0..w).map(|i| i * 3 - 7).collect());
        check_conformance(&format!("leaf map w={w}"), &map, &[n.clone(), xs, Value::i64_(5)]);
        check_conformance(&format!("leaf reduce w={w}"), &red, &[n.clone(), f32_ramp(w, 1)]);
        check_conformance(&format!("leaf scan w={w}"), &scan, &[n.clone(), f32_ramp(w, 2)]);
        let cube = Value::array_from(
            vec![3, w],
            Buffer::F32((0..3 * w).map(|i| (i % 17 - 8) as f32 * 0.5).collect()),
        );
        check_conformance(&format!("leaf row scans w={w}"), &rows, &[Value::i64_(3), n, cube]);
    }
}

/// NaN, both zeros, both infinities and subnormals through the f32
/// opcodes a leaf may hold — as map columns, as fold operators and as
/// scan operators. Compared on bit patterns.
#[test]
fn leaf_loops_conform_on_special_floats() {
    let sub = f32::from_bits(1);
    let specials = [
        f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, sub, -sub, 1.5, -2.25,
        f32::MIN_POSITIVE, f32::MAX,
    ];
    // Every ordered pair, so each opcode sees each value on each side.
    let k = specials.len();
    let xs: Vec<f32> = (0..k * k).map(|i| specials[i / k]).collect();
    let ys: Vec<f32> = (0..k * k).map(|i| specials[i % k]).collect();
    let n = Value::i64_((k * k) as i64);

    let pairs = flatten(
        "def main [n] (xs: [n]f32) (ys: [n]f32) =\n  \
         map (\\x y -> (min x y, max x y, x <= y, x < y, x == y, x + y, x * y)) xs ys\n",
    );
    assert_eq!(leaf_census(&pairs), (1, 0));
    check_conformance("specials/map", &pairs, &[n.clone(), f32_vec(&xs), f32_vec(&ys)]);

    for (name, op, ne) in [("min", "min", "1000000f32"), ("max", "max", "0f32"), ("add", "(+)", "0f32")] {
        for soac in ["reduce", "scan"] {
            let fl = flatten(&format!("def main [n] (xs: [n]f32) =\n  {soac} {op} {ne} xs\n"));
            assert_eq!(leaf_census(&fl).1, 0, "{soac} {name} fell off the leaf path");
            // Without the infinities too, so the sums stay finite.
            let finite: Vec<f32> = ys.iter().copied().filter(|y| y.is_finite() || y.is_nan()).collect();
            for data in [&ys, &finite] {
                let args = [Value::i64_(data.len() as i64), f32_vec(data)];
                check_conformance(&format!("specials/{soac} {name}"), &fl, &args);
            }
        }
    }
}

/// i32 and bool element columns, a result that is an input column
/// untouched, and a uniform host register beside them.
#[test]
fn leaf_loops_conform_on_int_and_bool_columns() {
    let fl = flatten(
        "def main [n] (bs: [n]bool) (is: [n]i32) (xs: [n]f32) (c: f32) =\n  \
         map (\\b i x -> (!b, i, x <= c)) bs is xs\n",
    );
    assert_eq!(leaf_census(&fl), (1, 0));
    for w in [0i64, 7, 300] {
        let args = [
            Value::i64_(w),
            Value::array_from(vec![w], Buffer::Bool((0..w).map(|i| i % 3 == 0).collect())),
            Value::array_from(vec![w], Buffer::I32((0..w).map(|i| (i * 7 - 100) as i32).collect())),
            f32_ramp(w, 3),
            Value::Scalar(ir::Const::F32(0.5)),
        ];
        check_conformance(&format!("int/bool columns w={w}"), &fl, &args);
    }
}

/// Operators over tuples carry several accumulators: the carried part
/// is more than one instruction and runs lane by lane. Also a redomap
/// whose map part feeds both accumulators and reads a host scalar.
#[test]
fn leaf_loops_conform_on_multi_accumulator_operators() {
    let red = flatten(
        "def main [n] (xs: [n]f32) (ys: [n]f32) =\n  \
         reduce (\\a1 a2 b1 b2 -> (a1 + b1, max a2 b2)) (0f32, 0f32) xs ys\n",
    );
    let scan = flatten(
        "def main [n] (xs: [n]f32) (ys: [n]f32) =\n  \
         scan (\\a1 a2 b1 b2 -> (min a1 b1, a2 + b2)) (1000f32, 0f32) xs ys\n",
    );
    let redomap = flatten(
        "def main [n] (xs: [n]f32) (c: f32) =\n  \
         redomap (\\a1 a2 b1 b2 -> (a1 + b1, max a2 b2)) \
         (\\x -> let y = x * c in (y, y + 1f32)) (0f32, 0f32) xs\n",
    );
    assert_eq!(leaf_census(&red), (1, 0));
    assert_eq!(leaf_census(&scan), (2, 0));
    assert_eq!(leaf_census(&redomap), (1, 0));
    for w in [0i64, 1, 5, 256, 257, 700] {
        let n = Value::i64_(w);
        let two = [n.clone(), f32_ramp(w, 4), f32_ramp(w, 5)];
        check_conformance(&format!("tuple reduce w={w}"), &red, &two);
        check_conformance(&format!("tuple scan w={w}"), &scan, &two);
        let args = [n, f32_ramp(w, 6), Value::Scalar(ir::Const::F32(1.25))];
        check_conformance(&format!("two-accumulator redomap w={w}"), &redomap, &args);
    }
}

/// Step functions that can fail or branch stay on the per-element path:
/// same results, and the error is the first failing element's, with
/// `flat-exec`'s text, at every thread count and grain.
#[test]
fn non_leaf_steps_keep_the_per_element_path_and_its_errors() {
    let ifs = flatten("def main [n] (xs: [n]i64) =\n  map (\\x -> if x < 0 then 0 - x else x) xs\n");
    let nested = flatten("def main [n][m] (xss: [n][m]i64) =\n  map (\\r -> reduce (+) 0 r) xss\n");
    let divs = flatten(
        "def main [n] (xs: [n]i64) (ds: [n]i64) (es: [n]i64) =\n  \
         map (\\x d e -> x / d + x % e) xs ds es\n",
    );
    assert_eq!(leaf_census(&ifs), (0, 1));
    assert_eq!(leaf_census(&divs), (0, 1));
    assert!(leaf_census(&nested).1 >= 1, "a body holding a SOAC is not a leaf");

    let w = 300i64;
    let xs = Value::i64_vec((0..w).map(|i| i * 5 - 700).collect());
    check_conformance("fallback/if", &ifs, &[Value::i64_(w), xs.clone()]);
    let rows = Value::array_from(vec![3, w], Buffer::I64((0..3 * w).collect()));
    check_conformance("fallback/inner soac", &nested, &[Value::i64_(3), Value::i64_(w), rows]);

    let ones = |zero_at: i64| Value::i64_vec((0..w).map(|i| (i != zero_at) as i64).collect());
    let no_zero = ones(-1);
    let args = [Value::i64_(w), xs.clone(), no_zero.clone(), no_zero];
    check_conformance("fallback/division", &divs, &args);
    // The earlier element decides the message, whichever chunk it is in.
    for (div_at, rem_at, want) in [(6, 1, "remainder by zero"), (2, 290, "division by zero")] {
        let args = [Value::i64_(w), xs.clone(), ones(div_at), ones(rem_at)];
        for grain in [exec::DEFAULT_GRAIN, SMALL_GRAIN] {
            for threads in THREAD_COUNTS {
                let e = exec::run_program(&divs.prog, &args, &cfg(threads, grain)).unwrap_err();
                let v = vm::run_program(&divs.prog, &args, &cfg(threads, grain)).unwrap_err();
                assert_eq!(v.0, e.0, "grain {grain}, {threads} threads");
                assert!(v.0.contains(want), "grain {grain}, {threads} threads: {}", v.0);
            }
        }
    }
}

/// Bytecode goldens: the lowering of a one-level `map` (a `segmap` with
/// a monomorphic i64 body) and a `reduce` (a `segred` with fold and
/// combine functions over accumulator registers) is pinned exactly —
/// register assignment, opcode selection, and segop structure.
/// Deliberately printed without variable names (register indices only),
/// so the text is stable under the process-global name counter.
#[test]
fn disassembly_goldens() {
    let map_src = "def main [n] (xs: [n]i64) (c: i64) =\n  map (\\x -> x * c + 1) xs\n";
    let prog = lang::compile(map_src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let compiled = vm::compile(&fl.prog).unwrap();
    let golden = "\
vm program: funcs=2 segs=1 soacs=0 regs int=6 flt=0 arr=2
params: i0:i64^0, a0^1, i1:i64^0
results: [a1]
fn0: (entry)
  seg          g0
fn1: leaf prefix=3 carried=0
  mul.i64      i3 <- i2, i1
  iconst       i5 <- 1
  add.i64      i4 <- i3, i5
g0: segmap level=1
  dim 0: width=i0 binds=[i2:i64 <- a0[.]]
  body=fn1 outs=[i4:i64]
  dsts=[a1]
";
    assert_eq!(vm::disasm(&compiled), golden, "segmap lowering drifted");

    let red_src = "def main [n] (xs: [n]i64) =\n  reduce (+) 0 xs\n";
    let prog = lang::compile(red_src, "main").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let compiled = vm::compile(&fl.prog).unwrap();
    let golden = "\
vm program: funcs=3 segs=1 soacs=0 regs int=10 flt=0 arr=1
params: i0:i64^0, a0^1
results: [i9:i64]
fn0: (entry)
  iconst       i4 <- 0
  seg          g0
fn1: leaf prefix=1 carried=1
  mov          i3 <- i1
  add.i64      i2 <- i2, i3
fn2:
  add.i64      i2 <- i2, i3
g0: segred level=1
  dim 0: width=i0 binds=[i1:i64 <- a0[.]]
  fold=fn1 combine=fn2 nes=[i4:i64] accs=[i2:i64] rhs=[i3:i64]
  dsts=[i9:i64]
";
    assert_eq!(vm::disasm(&compiled), golden, "segred lowering drifted");
}
