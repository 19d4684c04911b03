//! The tree-walking tier: host-code evaluation mirroring the reference
//! interpreter over name→[`Arc<Value>`] environments, with
//! `segmap`/`segred`/`segscan` handed to the shared decomposition
//! ([`crate::decomp`]) — this file supplies only the [`Tier`] hooks that
//! evaluate a segop's body, fold and operator on the AST.
//!
//! The environment maps names to [`Arc<Value>`], so handing a kernel
//! task its own copy costs one reference bump per binding.

use crate::decomp::{
    self, accumulate, err, Accs, CrossVal, ExecConfig, ExecError, ExecReport, Kernels, Kind,
    Launch, Result, ResultAcc, Tier, Trail,
};
use flat_ir::ast::*;
use flat_ir::interp::{self as interp, Thresholds};
use flat_ir::value::{ArrayVal, Buffer, Value};
use flat_ir::VName;
use gpu_sim::CmpRecord;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Execute a target program on concrete values.
pub fn run_program(prog: &Program, args: &[Value], cfg: &ExecConfig) -> Result<ExecReport> {
    let kernels = Kernels::begin("exec", cfg);
    if prog.params.len() != args.len() {
        return err(format!(
            "program {} expects {} arguments, got {}",
            prog.name,
            prog.params.len(),
            args.len()
        ));
    }
    let exec = Exec { thresholds: &cfg.thresholds, kernels: &kernels };
    let mut fr = Frame { env: HashMap::new(), trail: Trail::default() };
    for (p, a) in prog.params.iter().zip(args) {
        fr.env.insert(p.name, Arc::new(a.clone()));
    }
    let started = Instant::now();
    let eval = exec.eval_body(&mut fr, &prog.body);
    let wall_nanos = started.elapsed().as_nanos() as f64;
    let values = eval.map(|res| res.iter().map(|v| (**v).clone()).collect());
    kernels.finish(fr.trail, wall_nanos, values)
}

type Env = HashMap<VName, Arc<Value>>;

/// Per-evaluation-context state: bindings plus the records a kernel
/// task accumulates privately and the join merges in task order.
struct Frame {
    env: Env,
    trail: Trail,
}

impl AsMut<Trail> for Frame {
    fn as_mut(&mut self) -> &mut Trail {
        &mut self.trail
    }
}

struct Exec<'a> {
    thresholds: &'a Thresholds,
    kernels: &'a Kernels,
}

/// Append one point's results to a sink.
fn push_vals(out: &mut Accs, vals: &[Arc<Value>]) -> Result<()> {
    accumulate(out, vals.len(), |k| Ok(vals[k].point()))
}


impl Exec<'_> {
    fn lookup(&self, fr: &Frame, v: VName) -> Result<Arc<Value>> {
        fr.env
            .get(&v)
            .cloned()
            .ok_or_else(|| ExecError(format!("variable {v} unbound")))
    }

    fn lookup_array(&self, fr: &Frame, v: VName) -> Result<Arc<Value>> {
        let val = self.lookup(fr, v)?;
        match &*val {
            Value::Array(_) => Ok(val),
            Value::Scalar(_) => err(format!("expected array, {v} is a scalar")),
        }
    }

    fn subexp(&self, fr: &Frame, se: &SubExp) -> Result<Arc<Value>> {
        match se {
            SubExp::Const(c) => Ok(Arc::new(Value::Scalar(*c))),
            SubExp::Var(v) => self.lookup(fr, *v),
        }
    }

    fn subexp_const(&self, fr: &Frame, se: &SubExp) -> Result<Const> {
        match se {
            SubExp::Const(c) => Ok(*c),
            SubExp::Var(v) => match &*self.lookup(fr, *v)? {
                Value::Scalar(c) => Ok(*c),
                Value::Array(_) => err(format!("expected scalar, {v} is an array")),
            },
        }
    }

    fn subexp_i64(&self, fr: &Frame, se: &SubExp) -> Result<i64> {
        self.subexp_const(fr, se)?
            .as_i64()
            .ok_or_else(|| ExecError("expected integral scalar".into()))
    }

    fn eval_body(&self, fr: &mut Frame, body: &Body) -> Result<Vec<Arc<Value>>> {
        for stm in &body.stms {
            let vals = self.eval_exp(fr, stm)?;
            if vals.len() != stm.pat.len() {
                return err(format!(
                    "statement produced {} values for {} bindings",
                    vals.len(),
                    stm.pat.len()
                ));
            }
            for (p, v) in stm.pat.iter().zip(vals) {
                fr.env.insert(p.name, v);
            }
        }
        body.result.iter().map(|r| self.subexp(fr, r)).collect()
    }

    fn apply(&self, fr: &mut Frame, lam: &Lambda, args: Vec<Arc<Value>>) -> Result<Vec<Arc<Value>>> {
        if lam.params.len() != args.len() {
            return err(format!(
                "lambda arity {} vs {} arguments",
                lam.params.len(),
                args.len()
            ));
        }
        for (p, a) in lam.params.iter().zip(args) {
            fr.env.insert(p.name, a);
        }
        self.eval_body(fr, &lam.body)
    }

    fn eval_exp(&self, fr: &mut Frame, stm: &Stm) -> Result<Vec<Arc<Value>>> {
        match &stm.exp {
            Exp::SubExp(se) => Ok(vec![self.subexp(fr, se)?]),
            Exp::UnOp(op, a) => {
                let v = self.subexp_const(fr, a)?;
                Ok(vec![Arc::new(Value::Scalar(interp::eval_unop(*op, v)?))])
            }
            Exp::BinOp(op, a, b) => {
                let x = self.subexp_const(fr, a)?;
                let y = self.subexp_const(fr, b)?;
                Ok(vec![Arc::new(Value::Scalar(interp::eval_binop(*op, x, y)?))])
            }
            Exp::CmpThreshold { factors, threshold } => {
                // Live dispatch: the actual degree of parallelism of this
                // dataset, compared against the loaded assignment.
                let mut par: i64 = 1;
                for f in factors {
                    par = par.saturating_mul(self.subexp_i64(fr, f)?);
                }
                let taken = par >= self.thresholds.get(*threshold);
                fr.trail.path.push(CmpRecord {
                    id: *threshold,
                    par,
                    taken,
                });
                Ok(vec![Arc::new(Value::Scalar(Const::Bool(taken)))])
            }
            Exp::Index { arr, idxs } => {
                let v = self.lookup_array(fr, *arr)?;
                let Value::Array(a) = &*v else { unreachable!() };
                let is: Vec<i64> = idxs
                    .iter()
                    .map(|i| self.subexp_i64(fr, i))
                    .collect::<Result<_>>()?;
                if is.len() > a.rank() {
                    return err("too many indices");
                }
                for (k, &i) in is.iter().enumerate() {
                    if i < 0 || i >= a.shape[k] {
                        return err(format!(
                            "index {i} out of bounds for axis {k} of extent {}",
                            a.shape[k]
                        ));
                    }
                }
                Ok(vec![Arc::new(a.index_outer_many(&is))])
            }
            Exp::Iota { n } => {
                let n = self.subexp_i64(fr, n)?;
                if n < 0 {
                    return err("iota of negative length");
                }
                Ok(vec![Arc::new(Value::i64_vec((0..n).collect()))])
            }
            Exp::Replicate { n, elem } => {
                let n = self.subexp_i64(fr, n)?;
                if n < 0 {
                    return err("replicate of negative length");
                }
                let v = self.subexp(fr, elem)?;
                Ok(vec![Arc::new(replicate_value(n, &v))])
            }
            Exp::Rearrange { perm, arr } => {
                let v = self.lookup_array(fr, *arr)?;
                let Value::Array(a) = &*v else { unreachable!() };
                Ok(vec![Arc::new(Value::Array(a.rearrange(perm)))])
            }
            Exp::ArrayLit { elems, elem_ty } => {
                let mut buf = Buffer::with_capacity(elem_ty.scalar, elems.len());
                for e in elems {
                    buf.push(self.subexp_const(fr, e)?);
                }
                Ok(vec![Arc::new(Value::Array(ArrayVal::new(
                    vec![elems.len() as i64],
                    buf,
                )))])
            }
            Exp::If { cond, tb, fb, .. } => {
                let c = match self.subexp_const(fr, cond)? {
                    Const::Bool(b) => b,
                    other => return err(format!("if condition is {other}, not bool")),
                };
                if c {
                    self.eval_body(fr, tb)
                } else {
                    self.eval_body(fr, fb)
                }
            }
            Exp::Loop {
                params,
                ivar,
                bound,
                body,
            } => {
                let n = self.subexp_i64(fr, bound)?;
                let mut vals: Vec<Arc<Value>> = params
                    .iter()
                    .map(|(_, init)| self.subexp(fr, init))
                    .collect::<Result<_>>()?;
                for i in 0..n {
                    fr.env.insert(*ivar, Arc::new(Value::i64_(i)));
                    for ((p, _), v) in params.iter().zip(&vals) {
                        fr.env.insert(p.name, v.clone());
                    }
                    vals = self.eval_body(fr, body)?;
                    if vals.len() != params.len() {
                        return err("loop body arity mismatch");
                    }
                }
                Ok(vals)
            }
            Exp::Soac(so) => self.eval_soac(fr, so),
            Exp::Seg(op) => self.eval_seg(fr, op, stm),
        }
    }

    fn soac_inputs(
        &self,
        fr: &Frame,
        w: &SubExp,
        arrs: &[VName],
    ) -> Result<(i64, Vec<Arc<Value>>)> {
        let n = self.subexp_i64(fr, w)?;
        let mut vals = Vec::with_capacity(arrs.len());
        for a in arrs {
            let v = self.lookup_array(fr, *a)?;
            let Value::Array(av) = &*v else { unreachable!() };
            if av.shape[0] != n {
                return err(format!(
                    "SOAC width {n} but array {a} has outer size {}",
                    av.shape[0]
                ));
            }
            vals.push(v);
        }
        Ok((n, vals))
    }

    /// SOACs in the target language execute sequentially, exactly as in
    /// the interpreter. All five are one loop: index the inputs, map
    /// them if the SOAC maps, fold them into the accumulators if it
    /// folds, and collect the point's values if it produces arrays.
    /// Out of line: inlined into the recursive `eval_body` it costs every
    /// other expression its stack frame.
    #[inline(never)]
    fn eval_soac(&self, fr: &mut Frame, so: &Soac) -> Result<Vec<Arc<Value>>> {
        let (w, arrs, map, fold, nes, collect) = match so {
            Soac::Map { w, lam, arrs } => (w, arrs, Some(lam), None, &[][..], true),
            Soac::Reduce { w, lam, nes, arrs } => (w, arrs, None, Some(lam), &nes[..], false),
            Soac::Scan { w, lam, nes, arrs } => (w, arrs, None, Some(lam), &nes[..], true),
            Soac::Redomap { w, red, map, nes, arrs } => {
                (w, arrs, Some(map), Some(red), &nes[..], false)
            }
            Soac::Scanomap { w, scan, map, nes, arrs } => {
                (w, arrs, Some(map), Some(scan), &nes[..], true)
            }
        };
        let (n, inputs) = self.soac_inputs(fr, w, arrs)?;
        let mut acc: Vec<Arc<Value>> =
            nes.iter().map(|ne| self.subexp(fr, ne)).collect::<Result<_>>()?;
        let mut out: Accs = None;
        for i in 0..n {
            let mut vals: Vec<Arc<Value>> = (inputs.iter())
                .map(|v| {
                    let Value::Array(a) = &**v else { unreachable!() };
                    Arc::new(a.index_outer(i))
                })
                .collect();
            if let Some(map) = map {
                vals = self.apply(fr, map, vals)?;
            }
            if let Some(op) = fold {
                let mut args = std::mem::take(&mut acc);
                args.append(&mut vals);
                acc = self.apply(fr, op, args)?;
            }
            if collect {
                push_vals(&mut out, if fold.is_some() { &acc } else { &vals })?;
            }
        }
        match fold.or(map) {
            Some(last) if collect => finished(out, &last.ret, &[n.max(0)]),
            _ => Ok(acc),
        }
    }

    fn eval_seg(&self, fr: &mut Frame, op: &SegOp, stm: &Stm) -> Result<Vec<Arc<Value>>> {
        let widths: Vec<i64> = op
            .ctx
            .iter()
            .map(|d| self.subexp_i64(fr, &d.width))
            .collect::<Result<_>>()?;
        let kind = match op.kind {
            SegKind::Map => Kind::Map,
            SegKind::Red { .. } => Kind::Red,
            SegKind::Scan { .. } => Kind::Scan,
        };
        let kind_name = kind.name();
        let launch = Launch {
            name: match stm.pat.first() {
                Some(p) => &p.name,
                None => &kind_name,
            },
            kind,
            level: op.level,
            prov: stm.prov,
            body_ret: &op.body_ret,
        };
        let body = SegBody { exec: self, op, widths: &widths };
        let mut vals = Vec::with_capacity(op.body_ret.len());
        self.kernels.launch(&body, fr, &launch, &widths, |_, v| {
            vals.push(Arc::new(v));
            Ok(())
        })?;
        Ok(vals)
    }
}

/// One segop's leaf work on the AST.
struct SegBody<'a> {
    exec: &'a Exec<'a>,
    op: &'a SegOp,
    widths: &'a [i64],
}

impl SegBody<'_> {
    /// Bind the element parameters of the first `ndims` context
    /// dimensions for the point `idxs`, outermost first (inner dimensions
    /// may bind arrays introduced by outer ones).
    fn bind_ctx(&self, fr: &mut Frame, idxs: &[i64], ndims: usize) -> Result<()> {
        for (k, dim) in self.op.ctx.iter().take(ndims).enumerate() {
            for (p, arr) in &dim.binds {
                let v = self.exec.lookup_array(fr, *arr)?;
                let Value::Array(av) = &*v else { unreachable!() };
                if av.shape[0] != self.widths[k] {
                    return err(format!(
                        "segop context dim {k}: width {} but array {arr} outer size {}",
                        self.widths[k], av.shape[0]
                    ));
                }
                fr.env.insert(p.name, Arc::new(av.index_outer(idxs[k])));
            }
        }
        Ok(())
    }

    /// Bind the innermost context dimension's parameters for element `j`.
    fn bind_inner(&self, fr: &mut Frame, j: i64) -> Result<()> {
        let inner = self.widths.len() - 1;
        let inner_w = self.widths[inner];
        for (p, arr) in &self.op.ctx[inner].binds {
            let v = self.exec.lookup_array(fr, *arr)?;
            let Value::Array(av) = &*v else { unreachable!() };
            if av.shape[0] != inner_w {
                return err(format!(
                    "segop innermost dim: width {inner_w} but array {arr} outer size {}",
                    av.shape[0]
                ));
            }
            fr.env.insert(p.name, Arc::new(av.index_outer(j)));
        }
        Ok(())
    }

    /// The operator and neutral elements of a `segred`/`segscan`.
    fn operator(&self) -> Result<(&Lambda, &[SubExp])> {
        match &self.op.kind {
            SegKind::Red { op, nes } | SegKind::Scan { op, nes } => Ok((op, nes)),
            SegKind::Map => err("segmap has no operator"),
        }
    }

    /// The mixed-radix digits of `flat` over the first `ndims` widths.
    fn unflatten(&self, flat: usize, ndims: usize, idxs: &mut [i64]) {
        let mut rem = flat as i64;
        for k in (0..ndims).rev() {
            idxs[k] = rem % self.widths[k];
            rem /= self.widths[k];
        }
    }
}

impl Tier for SegBody<'_> {
    type Frame = Frame;
    type Val = Arc<Value>;

    fn fork(&self, host: &Frame) -> Frame {
        Frame { env: host.env.clone(), trail: Trail::task() }
    }

    fn bind_segment(&self, fr: &mut Frame, seg: usize) -> Result<()> {
        let outer = self.widths.len() - 1;
        let mut idxs = vec![0i64; outer];
        self.unflatten(seg, outer, &mut idxs);
        self.bind_ctx(fr, &idxs, outer)
    }

    fn map_range(&self, fr: &mut Frame, range: Range<usize>, sink: &mut Accs) -> Result<()> {
        let p = self.widths.len();
        let mut idxs = vec![0i64; p];
        for flat in range {
            self.unflatten(flat, p, &mut idxs);
            self.bind_ctx(fr, &idxs, p)?;
            let res = self.exec.eval_body(fr, &self.op.body)?;
            push_vals(sink, &res)?;
        }
        Ok(())
    }

    fn fold_block(
        &self,
        fr: &mut Frame,
        range: Range<usize>,
        mut scan: Option<&mut Accs>,
    ) -> Result<Vec<Arc<Value>>> {
        let (lam, nes) = self.operator()?;
        let mut acc: Vec<Arc<Value>> =
            nes.iter().map(|ne| self.exec.subexp(fr, ne)).collect::<Result<_>>()?;
        for j in range {
            self.bind_inner(fr, j as i64)?;
            let res = self.exec.eval_body(fr, &self.op.body)?;
            let mut args = acc;
            args.extend(res);
            acc = self.exec.apply(fr, lam, args)?;
            if let Some(local) = &mut scan {
                push_vals(local, &acc)?;
            }
        }
        Ok(acc)
    }

    fn combine(
        &self,
        fr: &mut Frame,
        acc: &mut Vec<Arc<Value>>,
        rhs: &[Arc<Value>],
    ) -> Result<()> {
        let mut args = std::mem::take(acc);
        args.extend(rhs.iter().cloned());
        *acc = self.exec.apply(fr, self.operator()?.0, args)?;
        Ok(())
    }

    fn fixup(
        &self,
        fr: &mut Frame,
        prefix: &[Arc<Value>],
        locals: &[ResultAcc],
        sink: &mut Accs,
    ) -> Result<()> {
        let lam = self.operator()?.0;
        for i in 0..locals.first().map_or(0, ResultAcc::count) {
            let mut args = prefix.to_vec();
            args.extend(locals.iter().map(|a| Arc::new(a.elem_at(i))));
            let res = self.exec.apply(fr, lam, args)?;
            push_vals(sink, &res)?;
        }
        Ok(())
    }
}

/// Finished results as environment values.
fn finished(out: Accs, ret: &[flat_ir::types::Type], outer: &[i64]) -> Result<Vec<Arc<Value>>> {
    let mut vals = Vec::with_capacity(ret.len());
    decomp::finish_results(out, ret, outer, |v| {
        vals.push(Arc::new(v));
        Ok(())
    })?;
    Ok(vals)
}

fn replicate_value(n: i64, v: &Value) -> Value {
    match v {
        Value::Scalar(c) => {
            let mut data = Buffer::with_capacity(c.scalar_type(), n as usize);
            for _ in 0..n {
                data.push(*c);
            }
            Value::Array(ArrayVal::new(vec![n], data))
        }
        Value::Array(a) => {
            let mut data = Buffer::with_capacity(a.data.scalar_type(), n as usize * a.data.len());
            for _ in 0..n {
                data.extend_range(&a.data, 0, a.data.len());
            }
            let mut shape = vec![n];
            shape.extend(&a.shape);
            Value::Array(ArrayVal::new(shape, data))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_ir::builder::*;
    use flat_ir::types::{Param, Type};
    use flat_ir::ScalarType;

    fn cfg(threads: usize, grain: usize) -> ExecConfig {
        ExecConfig {
            thresholds: Thresholds::new(),
            threads: Some(threads),
            grain,
            ..ExecConfig::default()
        }
    }

    /// A segop over the rows of `[n][m]i64` with `+`: row sums
    /// (`[n]i64`) as a segred, running sums (`[n][m]i64`) as a segscan.
    fn rows_prog(scan: bool) -> Program {
        let mut pb = ProgramBuilder::new(if scan { "rowscans" } else { "rowsums" });
        let n = pb.size_param("n");
        let m = pb.size_param("m");
        let xss = pb.param(
            "xss",
            Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n)),
        );
        let xs_p = Param::fresh("xs", Type::i64().array_of(SubExp::Var(m)));
        let x_p = Param::fresh("x", Type::i64());
        let (op, nes) = (binop_lambda(BinOp::Add, ScalarType::I64), vec![SubExp::i64(0)]);
        let seg = SegOp {
            kind: if scan { SegKind::Scan { op, nes } } else { SegKind::Red { op, nes } },
            level: LVL_GRID,
            ctx: vec![
                CtxDim::new(SubExp::Var(n), vec![(xs_p.clone(), xss)]),
                CtxDim::new(SubExp::Var(m), vec![(x_p.clone(), xs_p.name)]),
            ],
            body: Body::results(vec![SubExp::Var(x_p.name)]),
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let row_t = if scan { Type::i64().array_of(SubExp::Var(m)) } else { Type::i64() };
        let out_t = row_t.array_of(SubExp::Var(n));
        let ys = pb.body.bind("ys", out_t.clone(), Exp::Seg(seg));
        pb.finish(vec![SubExp::Var(ys)], vec![out_t])
    }

    fn matrix(n: i64, m: i64) -> Value {
        let data: Vec<i64> = (0..n * m).map(|i| i * 7 - 3).collect();
        Value::array_from(vec![n, m], Buffer::I64(data))
    }

    #[test]
    fn segred_matches_interpreter_across_grains_and_threads() {
        let prog = rows_prog(false);
        let args = vec![Value::i64_(5), Value::i64_(13), matrix(5, 13)];
        let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
        for threads in [1, 4, 8] {
            for grain in [1, 3, 256] {
                let rep = run_program(&prog, &args, &cfg(threads, grain)).unwrap();
                assert_eq!(rep.values, expect, "threads={threads} grain={grain}");
                assert_eq!(rep.launches.len(), 1);
                assert_eq!(rep.launches[0].kind, "segred");
            }
        }
    }

    #[test]
    fn segscan_matches_interpreter_across_grains_and_threads() {
        let prog = rows_prog(true);
        let args = vec![Value::i64_(4), Value::i64_(17), matrix(4, 17)];
        let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
        for threads in [1, 4, 8] {
            for grain in [1, 5, 256] {
                let rep = run_program(&prog, &args, &cfg(threads, grain)).unwrap();
                assert_eq!(rep.values, expect, "threads={threads} grain={grain}");
            }
        }
    }

    #[test]
    fn empty_spaces_match_interpreter() {
        let prog = rows_prog(false);
        for (n, m) in [(0, 5), (5, 0), (0, 0)] {
            let args = vec![Value::i64_(n), Value::i64_(m), matrix(n, m)];
            let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
            let rep = run_program(&prog, &args, &cfg(4, 2)).unwrap();
            assert_eq!(rep.values, expect, "n={n} m={m}");
        }
        let prog = rows_prog(true);
        for (n, m) in [(0, 5), (5, 0)] {
            let args = vec![Value::i64_(n), Value::i64_(m), matrix(n, m)];
            let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
            let rep = run_program(&prog, &args, &cfg(4, 2)).unwrap();
            assert_eq!(rep.values, expect, "n={n} m={m}");
        }
    }

    #[test]
    fn threshold_guard_is_dispatched_live() {
        let mut pb = ProgramBuilder::new("guarded");
        let n = pb.size_param("n");
        let c = pb.body.bind(
            "c",
            Type::bool(),
            Exp::CmpThreshold {
                factors: vec![SubExp::Var(n)],
                threshold: ThresholdId(0),
            },
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
        let prog = pb.finish(vec![SubExp::Var(r)], vec![Type::i64()]);

        let t = Thresholds::new().with(ThresholdId(0), 100);
        let hi = run_program(
            &prog,
            &[Value::i64_(500)],
            &ExecConfig {
                thresholds: t.clone(),
                threads: Some(2),
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(hi.values, vec![Value::i64_(1)]);
        assert_eq!(hi.signature(), vec![(0, true)]);
        assert_eq!(hi.path[0].par, 500);

        let lo = run_program(
            &prog,
            &[Value::i64_(50)],
            &ExecConfig {
                thresholds: t,
                threads: Some(2),
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(lo.values, vec![Value::i64_(2)]);
        assert_eq!(lo.signature(), vec![(0, false)]);
    }
}
