//! Additional interpreter integration tests: SOAC corner cases, error
//! paths, and multi-result plumbing.

use flat_ir::ast::*;
use flat_ir::builder::*;
use flat_ir::interp::{path_signature, run_program, Interp, Thresholds};
use flat_ir::types::{Param, ScalarType, Type};
use flat_ir::value::{ArrayVal, Buffer, Value};
use flat_ir::VName;

fn thr() -> Thresholds {
    Thresholds::new()
}

#[test]
fn scanomap_semantics() {
    // scanomap (+) (*3) 0 [1,2,3] = scan (+) 0 [3,6,9] = [3,9,18]
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let xs = pb.param("xs", Type::i64().array_of(SubExp::Var(n)));
    let mut lb = LambdaBuilder::new();
    let x = lb.param("x", Type::i64());
    let t = lb.body.binop(BinOp::Mul, x, SubExp::i64(3), Type::i64());
    let map = lb.finish(vec![SubExp::Var(t)], vec![Type::i64()]);
    let out = pb.body.bind(
        "out",
        Type::i64().array_of(SubExp::Var(n)),
        Exp::Soac(Soac::Scanomap {
            w: SubExp::Var(n),
            scan: binop_lambda(BinOp::Add, ScalarType::I64),
            map,
            nes: vec![SubExp::i64(0)],
            arrs: vec![xs],
        }),
    );
    let prog = pb.finish(
        vec![SubExp::Var(out)],
        vec![Type::i64().array_of(SubExp::Var(n))],
    );
    let got = run_program(&prog, &[Value::i64_(3), Value::i64_vec(vec![1, 2, 3])], &thr())
        .unwrap();
    assert_eq!(got, vec![Value::i64_vec(vec![3, 9, 18])]);
}

#[test]
fn multi_result_map_produces_tuple_of_arrays() {
    // map (\x -> (2*x, 3+x)) per the paper's §2 example.
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let xs = pb.param("xs", Type::i64().array_of(SubExp::Var(n)));
    let mut lb = LambdaBuilder::new();
    let x = lb.param("x", Type::i64());
    let a = lb.body.binop(BinOp::Mul, x, SubExp::i64(2), Type::i64());
    let b = lb.body.binop(BinOp::Add, x, SubExp::i64(3), Type::i64());
    let lam = lb.finish(
        vec![SubExp::Var(a), SubExp::Var(b)],
        vec![Type::i64(), Type::i64()],
    );
    let outs = pb.body.bind_multi(
        "zs",
        vec![
            Type::i64().array_of(SubExp::Var(n)),
            Type::i64().array_of(SubExp::Var(n)),
        ],
        Exp::Soac(Soac::Map { w: SubExp::Var(n), lam, arrs: vec![xs] }),
    );
    let prog = pb.finish(
        outs.iter().map(|v| SubExp::Var(*v)).collect(),
        vec![
            Type::i64().array_of(SubExp::Var(n)),
            Type::i64().array_of(SubExp::Var(n)),
        ],
    );
    let got = run_program(&prog, &[Value::i64_(2), Value::i64_vec(vec![5, 7])], &thr())
        .unwrap();
    assert_eq!(got[0], Value::i64_vec(vec![10, 14]));
    assert_eq!(got[1], Value::i64_vec(vec![8, 10]));
}

#[test]
fn reduce_over_tuple_of_arrays_matches_paper_example() {
    // §2: reduce (\(x1,x2) (y1,y2) -> (x1+y1, x2*y2)) (0,1) zs1 zs2.
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let zs1 = pb.param("zs1", Type::i64().array_of(SubExp::Var(n)));
    let zs2 = pb.param("zs2", Type::i64().array_of(SubExp::Var(n)));
    let mut lb = LambdaBuilder::new();
    let x1 = lb.param("x1", Type::i64());
    let x2 = lb.param("x2", Type::i64());
    let y1 = lb.param("y1", Type::i64());
    let y2 = lb.param("y2", Type::i64());
    let s = lb.body.binop(BinOp::Add, x1, y1, Type::i64());
    let p = lb.body.binop(BinOp::Mul, x2, y2, Type::i64());
    let lam = lb.finish(
        vec![SubExp::Var(s), SubExp::Var(p)],
        vec![Type::i64(), Type::i64()],
    );
    let outs = pb.body.bind_multi(
        "r",
        vec![Type::i64(), Type::i64()],
        Exp::Soac(Soac::Reduce {
            w: SubExp::Var(n),
            lam,
            nes: vec![SubExp::i64(0), SubExp::i64(1)],
            arrs: vec![zs1, zs2],
        }),
    );
    let prog = pb.finish(
        outs.iter().map(|v| SubExp::Var(*v)).collect(),
        vec![Type::i64(), Type::i64()],
    );
    let got = run_program(
        &prog,
        &[
            Value::i64_(3),
            Value::i64_vec(vec![1, 2, 3]),
            Value::i64_vec(vec![2, 3, 4]),
        ],
        &thr(),
    )
    .unwrap();
    assert_eq!(got, vec![Value::i64_(6), Value::i64_(24)]);
}

#[test]
fn empty_reduce_returns_neutral() {
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let xs = pb.param("xs", Type::i64().array_of(SubExp::Var(n)));
    let r = pb.body.bind(
        "r",
        Type::i64(),
        Exp::Soac(Soac::Reduce {
            w: SubExp::Var(n),
            lam: binop_lambda(BinOp::Add, ScalarType::I64),
            nes: vec![SubExp::i64(42)],
            arrs: vec![xs],
        }),
    );
    let prog = pb.finish(vec![SubExp::Var(r)], vec![Type::i64()]);
    let got = run_program(&prog, &[Value::i64_(0), Value::i64_vec(vec![])], &thr()).unwrap();
    assert_eq!(got, vec![Value::i64_(42)]);
}

#[test]
fn width_mismatch_is_a_runtime_error() {
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let xs = pb.param("xs", Type::i64().array_of(SubExp::Var(n)));
    let lam = identity_lambda(vec![Type::i64()]);
    let ys = pb.body.bind(
        "ys",
        Type::i64().array_of(SubExp::Var(n)),
        Exp::Soac(Soac::Map { w: SubExp::Var(n), lam, arrs: vec![xs] }),
    );
    let prog = pb.finish(
        vec![SubExp::Var(ys)],
        vec![Type::i64().array_of(SubExp::Var(n))],
    );
    // Claim n = 5 but pass 3 elements.
    let r = run_program(&prog, &[Value::i64_(5), Value::i64_vec(vec![1, 2, 3])], &thr());
    assert!(r.is_err());
}

#[test]
fn wrong_argument_count_is_an_error() {
    let mut pb = ProgramBuilder::new("p");
    let _x = pb.param("x", Type::i64());
    let prog = pb.finish(vec![SubExp::i64(0)], vec![Type::i64()]);
    assert!(run_program(&prog, &[], &thr()).is_err());
}

#[test]
fn interp_struct_exposes_path_in_order() {
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let c0 = pb.body.bind(
        "c0",
        Type::bool(),
        Exp::CmpThreshold { factors: vec![SubExp::Var(n)], threshold: ThresholdId(0) },
    );
    let c1 = pb.body.bind(
        "c1",
        Type::bool(),
        Exp::CmpThreshold {
            factors: vec![SubExp::Var(n), SubExp::Var(n)],
            threshold: ThresholdId(1),
        },
    );
    let both = pb.body.bind(
        "both",
        Type::bool(),
        Exp::BinOp(BinOp::And, SubExp::Var(c0), SubExp::Var(c1)),
    );
    let prog = pb.finish(vec![SubExp::Var(both)], vec![Type::bool()]);
    let mut t = Thresholds::new();
    t.set(ThresholdId(0), 10);
    t.set(ThresholdId(1), 200);
    let mut i = Interp::new(&t);
    i.bind_args(&prog, &[Value::i64_(12)]).unwrap();
    let out = i.eval_body(&prog.body).unwrap();
    // n=12: 12 >= 10 true; 144 >= 200 false.
    assert_eq!(out, vec![Value::Scalar(Const::Bool(false))]);
    assert_eq!(i.path, vec![(ThresholdId(0), true), (ThresholdId(1), false)]);
}

#[test]
fn segmap_over_empty_space_yields_empty_arrays() {
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let xs = pb.param("xs", Type::i64().array_of(SubExp::Var(n)));
    let x = Param::fresh("x", Type::i64());
    let seg = SegOp {
        kind: SegKind::Map,
        level: LVL_GRID,
        ctx: vec![CtxDim::new(SubExp::Var(n), vec![(x.clone(), xs)])],
        body: Body::results(vec![SubExp::Var(x.name)]),
        body_ret: vec![Type::i64()],
        tiling: Tiling::None,
    };
    let ys = pb.body.bind("ys", Type::i64().array_of(SubExp::Var(n)), Exp::Seg(seg));
    let prog = pb.finish(
        vec![SubExp::Var(ys)],
        vec![Type::i64().array_of(SubExp::Var(n))],
    );
    let got = run_program(&prog, &[Value::i64_(0), Value::i64_vec(vec![])], &thr()).unwrap();
    assert_eq!(got[0].shape(), vec![0]);
}

#[test]
fn loop_with_array_state_threads_values() {
    // loop (xs) for i < 3 do map (+1) xs over [0,0]
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let xs0 = pb.param("xs0", Type::i64().array_of(SubExp::Var(n)));
    let p = Param::fresh("xs", Type::i64().array_of(SubExp::Var(n)));
    let i = VName::fresh("i");
    let mut lb = LambdaBuilder::new();
    let x = lb.param("x", Type::i64());
    let nx = lb.body.binop(BinOp::Add, x, SubExp::i64(1), Type::i64());
    let lam = lb.finish(vec![SubExp::Var(nx)], vec![Type::i64()]);
    let mut bb = BodyBuilder::new();
    let stepped = bb.bind(
        "stepped",
        Type::i64().array_of(SubExp::Var(n)),
        Exp::Soac(Soac::Map { w: SubExp::Var(n), lam, arrs: vec![p.name] }),
    );
    let out = pb.body.bind_multi(
        "out",
        vec![Type::i64().array_of(SubExp::Var(n))],
        Exp::Loop {
            params: vec![(p, SubExp::Var(xs0))],
            ivar: i,
            bound: SubExp::i64(3),
            body: bb.finish(vec![SubExp::Var(stepped)]),
        },
    );
    let prog = pb.finish(
        vec![SubExp::Var(out[0])],
        vec![Type::i64().array_of(SubExp::Var(n))],
    );
    let got = run_program(&prog, &[Value::i64_(2), Value::i64_vec(vec![0, 0])], &thr())
        .unwrap();
    assert_eq!(got, vec![Value::i64_vec(vec![3, 3])]);
}

#[test]
fn array_literals_and_indexing() {
    let mut pb = ProgramBuilder::new("p");
    let lit = pb.body.bind(
        "lit",
        Type::i64().array_of(SubExp::i64(3)),
        Exp::ArrayLit {
            elems: vec![SubExp::i64(10), SubExp::i64(20), SubExp::i64(30)],
            elem_ty: Type::i64(),
        },
    );
    let x = pb.body.bind(
        "x",
        Type::i64(),
        Exp::Index { arr: lit, idxs: vec![SubExp::i64(1)] },
    );
    let prog = pb.finish(vec![SubExp::Var(x)], vec![Type::i64()]);
    assert_eq!(run_program(&prog, &[], &thr()).unwrap(), vec![Value::i64_(20)]);
}

#[test]
fn irregular_segop_widths_error_at_runtime() {
    // A segop whose inner context array disagrees with its declared
    // width must be caught.
    let mut pb = ProgramBuilder::new("p");
    let n = pb.size_param("n");
    let m = pb.size_param("m");
    let xss = pb.param(
        "xss",
        Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n)),
    );
    let xs = Param::fresh("xs", Type::i64().array_of(SubExp::Var(m)));
    let x = Param::fresh("x", Type::i64());
    let seg = SegOp {
        kind: SegKind::Map,
        level: LVL_GRID,
        ctx: vec![
            CtxDim::new(SubExp::Var(n), vec![(xs.clone(), xss)]),
            CtxDim::new(SubExp::Var(n), vec![(x, xs.name)]), // wrong width: n, not m
        ],
        body: Body::results(vec![SubExp::i64(0)]),
        body_ret: vec![Type::i64()],
        tiling: Tiling::None,
    };
    let t = Type::i64().array_of(SubExp::Var(n)).array_of(SubExp::Var(n));
    let ys = pb.body.bind("ys", t.clone(), Exp::Seg(seg));
    let prog = pb.finish(vec![SubExp::Var(ys)], vec![t]);
    let v = Value::Array(ArrayVal::new(vec![2, 3], Buffer::I64(vec![0; 6])));
    let r = run_program(&prog, &[Value::i64_(2), Value::i64_(3), v], &thr());
    assert!(r.is_err(), "{r:?}");
}

/// A one-threshold program: `if (Par(n) >= t0) then 1 else 2`.
fn guarded_prog() -> Program {
    let mut pb = ProgramBuilder::new("guarded");
    let n = pb.size_param("n");
    let c = pb.body.bind(
        "c",
        Type::bool(),
        Exp::CmpThreshold { factors: vec![SubExp::Var(n)], threshold: ThresholdId(0) },
    );
    let r = pb.body.bind(
        "r",
        Type::i64(),
        Exp::If {
            cond: SubExp::Var(c),
            tb: Body::results(vec![SubExp::i64(1)]),
            fb: Body::results(vec![SubExp::i64(2)]),
            ret: vec![Type::i64()],
        },
    );
    pb.finish(vec![SubExp::Var(r)], vec![Type::i64()])
}

fn run_guarded(n: i64, t0: i64) -> (Value, bool) {
    let prog = guarded_prog();
    let t = Thresholds::new().with(ThresholdId(0), t0);
    let mut i = Interp::new(&t);
    i.bind_args(&prog, &[Value::i64_(n)]).unwrap();
    let out = i.eval_body(&prog.body).unwrap();
    assert_eq!(i.path.len(), 1, "exactly one threshold decision");
    (out[0].clone(), i.path[0].1)
}

#[test]
fn threshold_zero_forces_the_parallel_branch() {
    // t = 0 is the fuzzer's "force taken" value: any non-negative
    // degree of parallelism, including 0, satisfies `par >= 0`.
    for n in [0, 1, 5, i64::MAX] {
        let (v, taken) = run_guarded(n, 0);
        assert!(taken, "n={n} must take the version at t=0");
        assert_eq!(v, Value::i64_(1));
    }
}

#[test]
fn threshold_one_separates_empty_from_nonempty() {
    let (v, taken) = run_guarded(0, 1);
    assert!(!taken, "par=0 < 1 must not be taken");
    assert_eq!(v, Value::i64_(2));
    let (v, taken) = run_guarded(1, 1);
    assert!(taken, "par=1 >= 1 must be taken");
    assert_eq!(v, Value::i64_(1));
}

#[test]
fn threshold_i64_max_forces_the_sequential_branch() {
    // t = i64::MAX is the fuzzer's "force not taken" value — except
    // for the degenerate par that saturates to MAX itself, which is
    // exactly the boundary `par >= t` admits.
    for n in [0, 1, 1 << 40] {
        let (v, taken) = run_guarded(n, i64::MAX);
        assert!(!taken, "n={n} must not reach i64::MAX");
        assert_eq!(v, Value::i64_(2));
    }
    let (v, taken) = run_guarded(i64::MAX, i64::MAX);
    assert!(taken, "saturated par sits on the >= boundary");
    assert_eq!(v, Value::i64_(1));
}

#[test]
fn forcing_steers_every_guard_even_at_zero_parallelism() {
    let prog = guarded_prog();
    for (n, taken) in [(0, true), (1 << 40, true), (0, false), (1 << 40, false)] {
        let t = Thresholds::forcing(&[(ThresholdId(0), taken)]);
        let mut i = Interp::new(&t);
        i.bind_args(&prog, &[Value::i64_(n)]).unwrap();
        i.eval_body(&prog.body).unwrap();
        assert_eq!(i.path, vec![(ThresholdId(0), taken)], "n={n}");
    }
}

#[test]
fn path_signature_keeps_the_first_outcome_of_each_threshold() {
    let (a, b) = (ThresholdId(3), ThresholdId(1));
    let sig = path_signature(&[(a, true), (b, false), (a, false), (b, true), (a, true)]);
    assert_eq!(sig, vec![(1, false), (3, true)]);
}

#[test]
fn unset_thresholds_use_the_paper_default() {
    let prog = guarded_prog();
    let t = Thresholds::new(); // nothing set
    assert_eq!(Thresholds::DEFAULT, 1 << 15);
    for (n, expect_taken) in [(Thresholds::DEFAULT, true), (Thresholds::DEFAULT - 1, false)] {
        let mut i = Interp::new(&t);
        i.bind_args(&prog, &[Value::i64_(n)]).unwrap();
        i.eval_body(&prog.body).unwrap();
        assert_eq!(i.path, vec![(ThresholdId(0), expect_taken)], "n={n}");
    }
}

#[test]
fn saturating_par_product_does_not_wrap() {
    // Two huge factors: a wrapping product would go negative and dodge
    // every threshold; the interpreter must saturate instead.
    let mut pb = ProgramBuilder::new("sat");
    let n = pb.size_param("n");
    let m = pb.size_param("m");
    let c = pb.body.bind(
        "c",
        Type::bool(),
        Exp::CmpThreshold {
            factors: vec![SubExp::Var(n), SubExp::Var(m)],
            threshold: ThresholdId(0),
        },
    );
    let prog = pb.finish(vec![SubExp::Var(c)], vec![Type::bool()]);
    let t = Thresholds::new().with(ThresholdId(0), i64::MAX);
    let mut i = Interp::new(&t);
    i.bind_args(&prog, &[Value::i64_(1 << 40), Value::i64_(1 << 40)]).unwrap();
    let out = i.eval_body(&prog.body).unwrap();
    assert_eq!(out, vec![Value::Scalar(Const::Bool(true))]);
}
