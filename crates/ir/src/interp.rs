//! Reference interpreter.
//!
//! Defines the semantics of both sub-languages: SOACs evaluate with their
//! sequential denotation (§2), and the target language's `segmap`/
//! `segred`/`segscan` evaluate as the perfect map nests they are defined
//! to equal (§2.1). Threshold comparisons consult a [`Thresholds`]
//! assignment, so the same multi-versioned program can be steered through
//! any of its code versions — which is exactly how the equivalence tests
//! exercise every version.

use crate::ast::*;
use crate::name::VName;
use crate::types::ScalarType;
use crate::value::{ArrayVal, Buffer, Value};
use std::collections::HashMap;
use std::fmt;

/// Runtime values for the threshold parameters of a multi-versioned
/// program. Unassigned thresholds use [`Thresholds::DEFAULT`] (`2^15`,
/// §4.2).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Thresholds {
    map: HashMap<ThresholdId, i64>,
}

impl Thresholds {
    /// The compiler default: a rough estimate of how much parallelism is
    /// needed to saturate a GPU (§4.2).
    pub const DEFAULT: i64 = 1 << 15;

    pub fn new() -> Thresholds {
        Thresholds::default()
    }

    pub fn set(&mut self, id: ThresholdId, v: i64) {
        self.map.insert(id, v);
    }

    pub fn with(mut self, id: ThresholdId, v: i64) -> Thresholds {
        self.set(id, v);
        self
    }

    pub fn get(&self, id: ThresholdId) -> i64 {
        self.map.get(&id).copied().unwrap_or(Self::DEFAULT)
    }

    /// An assignment mapping every threshold to the same value. `0`
    /// makes every `Par >= t` true (always take the "sufficient
    /// parallelism" version); `i64::MAX` makes every guard false.
    pub fn uniform(ids: impl IntoIterator<Item = ThresholdId>, v: i64) -> Thresholds {
        let mut t = Thresholds::new();
        for id in ids {
            t.set(id, v);
        }
        t
    }

    /// The assignment that forces each listed guard's outcome: `0`
    /// satisfies any `Par(..) >= t` (degrees are products of array
    /// extents, never negative), `i64::MAX` refuses it. Unlisted
    /// thresholds keep the default.
    pub fn forcing(decisions: &[(ThresholdId, bool)]) -> Thresholds {
        let mut t = Thresholds::new();
        for &(id, taken) in decisions {
            t.set(id, if taken { 0 } else { i64::MAX });
        }
        t
    }

    pub fn iter(&self) -> impl Iterator<Item = (ThresholdId, i64)> + '_ {
        self.map.iter().map(|(k, v)| (*k, *v))
    }
}

/// The canonical signature of a recorded path (comparisons with their
/// outcomes, in evaluation order): the first outcome of each threshold
/// wins, sorted by id. Every tier's path and the tuner's memo key go
/// through this one function.
pub fn path_signature<P: Copy + Into<(ThresholdId, bool)>>(path: &[P]) -> Vec<(u32, bool)> {
    let mut sig: Vec<(u32, bool)> = Vec::new();
    for &p in path {
        let (id, taken) = p.into();
        if !sig.iter().any(|&(seen, _)| seen == id.0) {
            sig.push((id.0, taken));
        }
    }
    sig.sort_unstable();
    sig
}

/// An interpretation error (out-of-scope names, shape violations, etc.).
#[derive(Debug, Clone, PartialEq)]
pub struct InterpError(pub String);

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "interpreter error: {}", self.0)
    }
}

impl std::error::Error for InterpError {}

type Result<T> = std::result::Result<T, InterpError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(InterpError(msg.into()))
}

/// The interpreter. Construct one per program run.
pub struct Interp<'a> {
    env: HashMap<VName, Value>,
    thresholds: &'a Thresholds,
    /// Comparison outcomes, in evaluation order: the *path* through the
    /// branching tree (used by the autotuner's memoization).
    pub path: Vec<(ThresholdId, bool)>,
}

/// Evaluate a program on the given argument values.
pub fn run_program(
    prog: &Program,
    args: &[Value],
    thresholds: &Thresholds,
) -> Result<Vec<Value>> {
    let mut interp = Interp::new(thresholds);
    interp.bind_args(prog, args)?;
    interp.eval_body(&prog.body)
}

impl<'a> Interp<'a> {
    pub fn new(thresholds: &'a Thresholds) -> Interp<'a> {
        Interp { env: HashMap::new(), thresholds, path: Vec::new() }
    }

    pub fn bind_args(&mut self, prog: &Program, args: &[Value]) -> Result<()> {
        if prog.params.len() != args.len() {
            return err(format!(
                "program {} expects {} arguments, got {}",
                prog.name,
                prog.params.len(),
                args.len()
            ));
        }
        for (p, a) in prog.params.iter().zip(args) {
            self.env.insert(p.name, a.clone());
        }
        Ok(())
    }

    fn lookup(&self, v: VName) -> Result<Value> {
        self.env
            .get(&v)
            .cloned()
            .ok_or_else(|| InterpError(format!("variable {v} unbound")))
    }

    fn subexp(&self, se: &SubExp) -> Result<Value> {
        match se {
            SubExp::Const(c) => Ok(Value::Scalar(*c)),
            SubExp::Var(v) => self.lookup(*v),
        }
    }

    pub fn eval_body(&mut self, body: &Body) -> Result<Vec<Value>> {
        for stm in &body.stms {
            let vals = self.eval_exp(&stm.exp)?;
            if vals.len() != stm.pat.len() {
                return err(format!(
                    "statement produced {} values for {} bindings",
                    vals.len(),
                    stm.pat.len()
                ));
            }
            for (p, v) in stm.pat.iter().zip(vals) {
                self.env.insert(p.name, v);
            }
        }
        body.result.iter().map(|r| self.subexp(r)).collect()
    }

    fn apply(&mut self, lam: &Lambda, args: Vec<Value>) -> Result<Vec<Value>> {
        if lam.params.len() != args.len() {
            return err(format!(
                "lambda arity {} vs {} arguments",
                lam.params.len(),
                args.len()
            ));
        }
        for (p, a) in lam.params.iter().zip(args) {
            self.env.insert(p.name, a);
        }
        self.eval_body(&lam.body)
    }

    pub fn eval_exp(&mut self, exp: &Exp) -> Result<Vec<Value>> {
        match exp {
            Exp::SubExp(se) => Ok(vec![self.subexp(se)?]),
            Exp::UnOp(op, a) => {
                let v = self.subexp(a)?.scalar();
                Ok(vec![Value::Scalar(eval_unop(*op, v)?)])
            }
            Exp::BinOp(op, a, b) => {
                let x = self.subexp(a)?.scalar();
                let y = self.subexp(b)?.scalar();
                Ok(vec![Value::Scalar(eval_binop(*op, x, y)?)])
            }
            Exp::CmpThreshold { factors, threshold } => {
                let mut par: i64 = 1;
                for f in factors {
                    par = par.saturating_mul(self.subexp(f)?.as_i64());
                }
                let taken = par >= self.thresholds.get(*threshold);
                self.path.push((*threshold, taken));
                Ok(vec![Value::Scalar(Const::Bool(taken))])
            }
            Exp::Index { arr, idxs } => {
                let a = self.lookup(*arr)?.array();
                let is: Vec<i64> = idxs
                    .iter()
                    .map(|i| self.subexp(i).map(|v| v.as_i64()))
                    .collect::<Result<_>>()?;
                if is.len() > a.rank() {
                    return err("too many indices");
                }
                Ok(vec![a.index_outer_many(&is)])
            }
            Exp::Iota { n } => {
                let n = self.subexp(n)?.as_i64();
                if n < 0 {
                    return err("iota of negative length");
                }
                Ok(vec![Value::i64_vec((0..n).collect())])
            }
            Exp::Replicate { n, elem } => {
                let n = self.subexp(n)?.as_i64();
                if n < 0 {
                    return err("replicate of negative length");
                }
                let v = self.subexp(elem)?;
                Ok(vec![replicate_value(n, &v)])
            }
            Exp::Rearrange { perm, arr } => {
                let a = self.lookup(*arr)?.array();
                Ok(vec![Value::Array(a.rearrange(perm))])
            }
            Exp::ArrayLit { elems, elem_ty } => {
                let mut buf = Buffer::with_capacity(elem_ty.scalar, elems.len());
                for e in elems {
                    buf.push(self.subexp(e)?.scalar());
                }
                Ok(vec![Value::Array(ArrayVal::new(
                    vec![elems.len() as i64],
                    buf,
                ))])
            }
            Exp::If { cond, tb, fb, .. } => {
                if self.subexp(cond)?.as_bool() {
                    self.eval_body(tb)
                } else {
                    self.eval_body(fb)
                }
            }
            Exp::Loop { params, ivar, bound, body } => {
                let n = self.subexp(bound)?.as_i64();
                let mut vals: Vec<Value> = params
                    .iter()
                    .map(|(_, init)| self.subexp(init))
                    .collect::<Result<_>>()?;
                for i in 0..n {
                    self.env.insert(*ivar, Value::i64_(i));
                    for ((p, _), v) in params.iter().zip(&vals) {
                        self.env.insert(p.name, v.clone());
                    }
                    vals = self.eval_body(body)?;
                    if vals.len() != params.len() {
                        return err("loop body arity mismatch");
                    }
                }
                Ok(vals)
            }
            Exp::Soac(so) => self.eval_soac(so),
            Exp::Seg(op) => self.eval_seg(op),
        }
    }

    fn soac_inputs(&self, w: &SubExp, arrs: &[VName]) -> Result<(i64, Vec<ArrayVal>)> {
        let n = self.subexp(w)?.as_i64();
        let mut vals = Vec::with_capacity(arrs.len());
        for a in arrs {
            let v = self.lookup(*a)?.array();
            if v.shape[0] != n {
                return err(format!(
                    "SOAC width {n} but array {a} has outer size {}",
                    v.shape[0]
                ));
            }
            vals.push(v);
        }
        Ok((n, vals))
    }

    fn eval_soac(&mut self, so: &Soac) -> Result<Vec<Value>> {
        match so {
            Soac::Map { w, lam, arrs } => {
                let (n, inputs) = self.soac_inputs(w, arrs)?;
                let mut out: Option<Vec<ResultAcc>> = None;
                for i in 0..n {
                    let args: Vec<Value> =
                        inputs.iter().map(|a| a.index_outer(i)).collect();
                    let res = self.apply(lam, args)?;
                    accumulate(&mut out, res, n)?;
                }
                finish_results(out, n, &lam.ret)
            }
            Soac::Reduce { w, lam, nes, arrs } => {
                let (n, inputs) = self.soac_inputs(w, arrs)?;
                let mut acc: Vec<Value> = nes
                    .iter()
                    .map(|ne| self.subexp(ne))
                    .collect::<Result<_>>()?;
                for i in 0..n {
                    let mut args = acc;
                    args.extend(inputs.iter().map(|a| a.index_outer(i)));
                    acc = self.apply(lam, args)?;
                }
                Ok(acc)
            }
            Soac::Scan { w, lam, nes, arrs } => {
                let (n, inputs) = self.soac_inputs(w, arrs)?;
                let mut acc: Vec<Value> = nes
                    .iter()
                    .map(|ne| self.subexp(ne))
                    .collect::<Result<_>>()?;
                let mut out: Option<Vec<ResultAcc>> = None;
                for i in 0..n {
                    let mut args = acc;
                    args.extend(inputs.iter().map(|a| a.index_outer(i)));
                    acc = self.apply(lam, args)?;
                    accumulate(&mut out, acc.clone(), n)?;
                }
                finish_results(out, n, &lam.ret)
            }
            Soac::Redomap { w, red, map, nes, arrs } => {
                let (n, inputs) = self.soac_inputs(w, arrs)?;
                let mut acc: Vec<Value> = nes
                    .iter()
                    .map(|ne| self.subexp(ne))
                    .collect::<Result<_>>()?;
                for i in 0..n {
                    let args: Vec<Value> =
                        inputs.iter().map(|a| a.index_outer(i)).collect();
                    let mapped = self.apply(map, args)?;
                    let mut rargs = acc;
                    rargs.extend(mapped);
                    acc = self.apply(red, rargs)?;
                }
                Ok(acc)
            }
            Soac::Scanomap { w, scan, map, nes, arrs } => {
                let (n, inputs) = self.soac_inputs(w, arrs)?;
                let mut acc: Vec<Value> = nes
                    .iter()
                    .map(|ne| self.subexp(ne))
                    .collect::<Result<_>>()?;
                let mut out: Option<Vec<ResultAcc>> = None;
                for i in 0..n {
                    let args: Vec<Value> =
                        inputs.iter().map(|a| a.index_outer(i)).collect();
                    let mapped = self.apply(map, args)?;
                    let mut sargs = acc;
                    sargs.extend(mapped);
                    acc = self.apply(scan, sargs)?;
                    accumulate(&mut out, acc.clone(), n)?;
                }
                finish_results(out, n, &scan.ret)
            }
        }
    }

    /// Evaluate a segop by its map-nest denotation (§2.1): iterate the
    /// context dimensions outermost-first, binding the context parameters
    /// elementwise; at the innermost point evaluate the body; for segred
    /// and segscan, combine along the innermost dimension.
    fn eval_seg(&mut self, op: &SegOp) -> Result<Vec<Value>> {
        let outer_widths: Vec<i64> = op
            .ctx
            .iter()
            .map(|d| self.subexp(&d.width).map(|v| v.as_i64()))
            .collect::<Result<_>>()?;
        let inner_w = *outer_widths.last().ok_or_else(|| InterpError("segop with empty context".into()))?;

        // Result accumulators over the full space (segmap/segscan) or the
        // space minus the innermost dimension (segred).
        let total: i64 = outer_widths.iter().product();
        let red_total: i64 = outer_widths[..outer_widths.len() - 1].iter().product();
        let out_elems = match op.kind {
            SegKind::Red { .. } => red_total,
            _ => total,
        };

        let mut out: Option<Vec<ResultAcc>> = None;
        let segments = red_total;
        for seg_idx in 0..segments {
            // Decompose seg_idx into the outer indices (row-major,
            // dimension p-2 least significant).
            let mut rem = seg_idx;
            let mut idxs = vec![0i64; outer_widths.len()];
            for k in (0..outer_widths.len() - 1).rev() {
                idxs[k] = rem % outer_widths[k];
                rem /= outer_widths[k];
            }

            // Bind the *outer* context dimensions once per segment, so
            // that segment-dependent neutral elements (e.g. those arising
            // from rule G4's reduce/map interchange) see them.
            let outer_dims = op.ctx.len() - 1;
            for (k, dim) in op.ctx.iter().take(outer_dims).enumerate() {
                for (p, arr) in &dim.binds {
                    let av = self.lookup(*arr)?.array();
                    if av.shape[0] != outer_widths[k] {
                        return err(format!(
                            "segop context dim {k}: width {} but array {arr} outer size {}",
                            outer_widths[k], av.shape[0]
                        ));
                    }
                    self.env.insert(p.name, av.index_outer(idxs[k]));
                }
            }

            // Per-segment accumulators for segred/segscan.
            let mut acc: Option<Vec<Value>> = match &op.kind {
                SegKind::Red { nes, .. } | SegKind::Scan { nes, .. } => Some(
                    nes.iter()
                        .map(|ne| self.subexp(ne))
                        .collect::<Result<_>>()?,
                ),
                SegKind::Map => None,
            };

            for j in 0..inner_w {
                idxs[outer_widths.len() - 1] = j;
                // Bind the innermost context dimension per element.
                let dim = &op.ctx[outer_dims];
                for (p, arr) in &dim.binds {
                    let av = self.lookup(*arr)?.array();
                    if av.shape[0] != inner_w {
                        return err(format!(
                            "segop innermost dim: width {inner_w} but array {arr} outer size {}",
                            av.shape[0]
                        ));
                    }
                    self.env.insert(p.name, av.index_outer(j));
                }
                let res = self.eval_body(&op.body)?;
                match &op.kind {
                    SegKind::Map => accumulate(&mut out, res, out_elems)?,
                    SegKind::Red { op: lam, .. } => {
                        let lam = lam.clone();
                        let mut args = acc.take().unwrap();
                        args.extend(res);
                        acc = Some(self.apply(&lam, args)?);
                    }
                    SegKind::Scan { op: lam, .. } => {
                        let lam = lam.clone();
                        let mut args = acc.take().unwrap();
                        args.extend(res);
                        let next = self.apply(&lam, args)?;
                        accumulate(&mut out, next.clone(), out_elems)?;
                        acc = Some(next);
                    }
                }
            }
            if let SegKind::Red { .. } = op.kind {
                accumulate(&mut out, acc.take().unwrap(), out_elems)?;
            }
        }

        // Assemble final shapes.
        let out_shape: Vec<i64> = match op.kind {
            SegKind::Red { .. } => outer_widths[..outer_widths.len() - 1].to_vec(),
            _ => outer_widths.clone(),
        };
        let accs = match out {
            Some(a) => a,
            None => {
                // Empty space: build empty results from declared types.
                return Ok(op
                    .body_ret
                    .iter()
                    .map(|t| {
                        let mut shape = out_shape.clone();
                        shape.extend(std::iter::repeat_n(0, t.rank()));
                        Value::Array(ArrayVal::new(
                            shape.clone(),
                            Buffer::with_capacity(t.scalar, 0),
                        ))
                    })
                    .collect());
            }
        };
        Ok(accs
            .into_iter()
            .map(|acc| acc.finish_shaped(&out_shape))
            .collect())
    }
}

/// Accumulates per-element results of a parallel operation into a flat
/// buffer, remembering the element shape.
struct ResultAcc {
    elem_shape: Vec<i64>,
    data: Buffer,
}

impl ResultAcc {
    fn finish_shaped(self, outer: &[i64]) -> Value {
        if outer.is_empty() && self.elem_shape.is_empty() {
            return Value::Scalar(self.data.get(0));
        }
        let mut shape = outer.to_vec();
        shape.extend(&self.elem_shape);
        Value::Array(ArrayVal::new(shape, self.data))
    }
}

fn accumulate(out: &mut Option<Vec<ResultAcc>>, vals: Vec<Value>, n: i64) -> Result<()> {
    match out {
        None => {
            *out = Some(
                vals.into_iter()
                    .map(|v| match v {
                        Value::Scalar(c) => {
                            let mut data =
                                Buffer::with_capacity(c.scalar_type(), n as usize);
                            data.push(c);
                            ResultAcc { elem_shape: vec![], data }
                        }
                        Value::Array(a) => {
                            let mut data = Buffer::with_capacity(
                                a.data.scalar_type(),
                                n as usize * a.data.len(),
                            );
                            data.extend_range(&a.data, 0, a.data.len());
                            ResultAcc { elem_shape: a.shape, data }
                        }
                    })
                    .collect(),
            );
            Ok(())
        }
        Some(accs) => {
            if accs.len() != vals.len() {
                return err("result arity changed across iterations");
            }
            for (acc, v) in accs.iter_mut().zip(vals) {
                match v {
                    Value::Scalar(c) => acc.data.push(c),
                    Value::Array(a) => {
                        if a.shape != acc.elem_shape {
                            return err(format!(
                                "irregular parallelism: element shape {:?} vs {:?}",
                                a.shape, acc.elem_shape
                            ));
                        }
                        acc.data.extend_range(&a.data, 0, a.data.len());
                    }
                }
            }
            Ok(())
        }
    }
}

fn finish_results(
    out: Option<Vec<ResultAcc>>,
    n: i64,
    ret: &[crate::types::Type],
) -> Result<Vec<Value>> {
    match out {
        Some(accs) => Ok(accs.into_iter().map(|a| a.finish_shaped(&[n])).collect()),
        None => {
            // n == 0: empty arrays of the declared element types; unknown
            // inner sizes become 0.
            Ok(ret
                .iter()
                .map(|t| {
                    let mut shape = vec![0i64];
                    shape.extend(std::iter::repeat_n(0, t.rank()));
                    Value::Array(ArrayVal::new(shape, Buffer::with_capacity(t.scalar, 0)))
                })
                .collect())
        }
    }
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
            let mut data =
                Buffer::with_capacity(a.data.scalar_type(), n as usize * a.data.len());
            for _ in 0..n {
                data.extend_range(&a.data, 0, a.data.len());
            }
            let mut shape = vec![n];
            shape.extend(&a.shape);
            Value::Array(ArrayVal::new(shape, data))
        }
    }
}

/// Evaluate a unary operator on a constant.
pub fn eval_unop(op: UnOp, v: Const) -> Result<Const> {
    use Const::*;
    Ok(match (op, v) {
        (UnOp::Neg, I32(x)) => I32(x.wrapping_neg()),
        (UnOp::Neg, I64(x)) => I64(x.wrapping_neg()),
        (UnOp::Neg, F32(x)) => F32(-x),
        (UnOp::Neg, F64(x)) => F64(-x),
        (UnOp::Not, Bool(x)) => Bool(!x),
        (UnOp::Abs, I32(x)) => I32(x.wrapping_abs()),
        (UnOp::Abs, I64(x)) => I64(x.wrapping_abs()),
        (UnOp::Abs, F32(x)) => F32(x.abs()),
        (UnOp::Abs, F64(x)) => F64(x.abs()),
        (UnOp::Exp, F32(x)) => F32(x.exp()),
        (UnOp::Exp, F64(x)) => F64(x.exp()),
        (UnOp::Log, F32(x)) => F32(x.ln()),
        (UnOp::Log, F64(x)) => F64(x.ln()),
        (UnOp::Sqrt, F32(x)) => F32(x.sqrt()),
        (UnOp::Sqrt, F64(x)) => F64(x.sqrt()),
        (UnOp::Cast(st), c) => cast_const(c, st)?,
        (op, c) => return err(format!("unop {op} on {c}")),
    })
}

fn cast_const(c: Const, st: ScalarType) -> Result<Const> {
    use Const::*;
    let as_f64 = match c {
        I32(x) => x as f64,
        I64(x) => x as f64,
        F32(x) => x as f64,
        F64(x) => x,
        Bool(b) => return if st == ScalarType::Bool { Ok(Bool(b)) } else { err("cast of bool") },
    };
    Ok(match st {
        ScalarType::I32 => I32(as_f64 as i32),
        ScalarType::I64 => I64(as_f64 as i64),
        ScalarType::F32 => F32(as_f64 as f32),
        ScalarType::F64 => F64(as_f64),
        ScalarType::Bool => return err("cast to bool"),
    })
}

/// Evaluate a binary operator on two constants of the same type.
pub fn eval_binop(op: BinOp, a: Const, b: Const) -> Result<Const> {
    use Const::*;
    Ok(match (op, a, b) {
        (BinOp::Add, I32(x), I32(y)) => I32(x.wrapping_add(y)),
        (BinOp::Add, I64(x), I64(y)) => I64(x.wrapping_add(y)),
        (BinOp::Add, F32(x), F32(y)) => F32(x + y),
        (BinOp::Add, F64(x), F64(y)) => F64(x + y),
        (BinOp::Sub, I32(x), I32(y)) => I32(x.wrapping_sub(y)),
        (BinOp::Sub, I64(x), I64(y)) => I64(x.wrapping_sub(y)),
        (BinOp::Sub, F32(x), F32(y)) => F32(x - y),
        (BinOp::Sub, F64(x), F64(y)) => F64(x - y),
        (BinOp::Mul, I32(x), I32(y)) => I32(x.wrapping_mul(y)),
        (BinOp::Mul, I64(x), I64(y)) => I64(x.wrapping_mul(y)),
        (BinOp::Mul, F32(x), F32(y)) => F32(x * y),
        (BinOp::Mul, F64(x), F64(y)) => F64(x * y),
        (BinOp::Div, I32(x), I32(y)) => {
            if y == 0 {
                return err("division by zero");
            }
            I32(x.wrapping_div(y))
        }
        (BinOp::Div, I64(x), I64(y)) => {
            if y == 0 {
                return err("division by zero");
            }
            I64(x.wrapping_div(y))
        }
        (BinOp::Div, F32(x), F32(y)) => F32(x / y),
        (BinOp::Div, F64(x), F64(y)) => F64(x / y),
        (BinOp::Rem, I32(x), I32(y)) => {
            if y == 0 {
                return err("remainder by zero");
            }
            I32(x.wrapping_rem(y))
        }
        (BinOp::Rem, I64(x), I64(y)) => {
            if y == 0 {
                return err("remainder by zero");
            }
            I64(x.wrapping_rem(y))
        }
        (BinOp::Rem, F32(x), F32(y)) => F32(x % y),
        (BinOp::Rem, F64(x), F64(y)) => F64(x % y),
        (BinOp::Min, I32(x), I32(y)) => I32(x.min(y)),
        (BinOp::Min, I64(x), I64(y)) => I64(x.min(y)),
        (BinOp::Min, F32(x), F32(y)) => F32(x.min(y)),
        (BinOp::Min, F64(x), F64(y)) => F64(x.min(y)),
        (BinOp::Max, I32(x), I32(y)) => I32(x.max(y)),
        (BinOp::Max, I64(x), I64(y)) => I64(x.max(y)),
        (BinOp::Max, F32(x), F32(y)) => F32(x.max(y)),
        (BinOp::Max, F64(x), F64(y)) => F64(x.max(y)),
        (BinOp::Pow, I32(x), I32(y)) => I32(x.wrapping_pow(y.max(0) as u32)),
        (BinOp::Pow, I64(x), I64(y)) => I64(x.wrapping_pow(y.max(0) as u32)),
        (BinOp::Pow, F32(x), F32(y)) => F32(x.powf(y)),
        (BinOp::Pow, F64(x), F64(y)) => F64(x.powf(y)),
        (BinOp::And, Bool(x), Bool(y)) => Bool(x && y),
        (BinOp::Or, Bool(x), Bool(y)) => Bool(x || y),
        (BinOp::Eq, x, y) => Bool(const_eq(x, y)?),
        (BinOp::Neq, x, y) => Bool(!const_eq(x, y)?),
        (BinOp::Lt, x, y) => Bool(const_lt(x, y)?),
        (BinOp::Le, x, y) => Bool(!const_lt(y, x)?),
        (op, a, b) => return err(format!("binop {a} {op} {b}")),
    })
}

fn const_eq(a: Const, b: Const) -> Result<bool> {
    use Const::*;
    Ok(match (a, b) {
        (I32(x), I32(y)) => x == y,
        (I64(x), I64(y)) => x == y,
        (F32(x), F32(y)) => x == y,
        (F64(x), F64(y)) => x == y,
        (Bool(x), Bool(y)) => x == y,
        _ => return err("comparison of mixed types"),
    })
}

fn const_lt(a: Const, b: Const) -> Result<bool> {
    use Const::*;
    Ok(match (a, b) {
        (I32(x), I32(y)) => x < y,
        (I64(x), I64(y)) => x < y,
        (F32(x), F32(y)) => x < y,
        (F64(x), F64(y)) => x < y,
        _ => return err("ordering of mixed or bool types"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::types::Type;

    fn eval1(prog: &Program, args: &[Value]) -> Value {
        let t = Thresholds::new();
        let mut res = run_program(prog, args, &t).unwrap();
        assert_eq!(res.len(), 1);
        res.pop().unwrap()
    }

    #[test]
    fn map_increments() {
        let mut pb = ProgramBuilder::new("inc");
        let n = pb.size_param("n");
        let xs = pb.param("xs", Type::f32().array_of(SubExp::Var(n)));
        let mut lb = LambdaBuilder::new();
        let x = lb.param("x", Type::f32());
        let r = lb.body.binop(BinOp::Add, x, SubExp::f32(1.0), Type::f32());
        let lam = lb.finish(vec![SubExp::Var(r)], vec![Type::f32()]);
        let ys = pb.body.bind(
            "ys",
            Type::f32().array_of(SubExp::Var(n)),
            Exp::Soac(Soac::Map { w: SubExp::Var(n), lam, arrs: vec![xs] }),
        );
        let prog = pb.finish(vec![SubExp::Var(ys)], vec![Type::f32().array_of(SubExp::Var(n))]);
        let out = eval1(&prog, &[Value::i64_(3), Value::f32_vec(vec![1.0, 2.0, 3.0])]);
        assert_eq!(out, Value::f32_vec(vec![2.0, 3.0, 4.0]));
    }

    #[test]
    fn reduce_sums() {
        let mut pb = ProgramBuilder::new("sum");
        let n = pb.size_param("n");
        let xs = pb.param("xs", Type::i64().array_of(SubExp::Var(n)));
        let lam = binop_lambda(BinOp::Add, ScalarType::I64);
        let s = pb.body.bind(
            "s",
            Type::i64(),
            Exp::Soac(Soac::Reduce {
                w: SubExp::Var(n),
                lam,
                nes: vec![SubExp::i64(0)],
                arrs: vec![xs],
            }),
        );
        let prog = pb.finish(vec![SubExp::Var(s)], vec![Type::i64()]);
        let out = eval1(&prog, &[Value::i64_(4), Value::i64_vec(vec![1, 2, 3, 4])]);
        assert_eq!(out, Value::i64_(10));
    }

    #[test]
    fn scan_prefix_sums() {
        let mut pb = ProgramBuilder::new("psum");
        let n = pb.size_param("n");
        let xs = pb.param("xs", Type::i64().array_of(SubExp::Var(n)));
        let lam = binop_lambda(BinOp::Add, ScalarType::I64);
        let s = pb.body.bind(
            "s",
            Type::i64().array_of(SubExp::Var(n)),
            Exp::Soac(Soac::Scan {
                w: SubExp::Var(n),
                lam,
                nes: vec![SubExp::i64(0)],
                arrs: vec![xs],
            }),
        );
        let prog = pb.finish(
            vec![SubExp::Var(s)],
            vec![Type::i64().array_of(SubExp::Var(n))],
        );
        let out = eval1(&prog, &[Value::i64_(4), Value::i64_vec(vec![1, 2, 3, 4])]);
        assert_eq!(out, Value::i64_vec(vec![1, 3, 6, 10]));
    }

    #[test]
    fn redomap_equals_reduce_of_map() {
        // redomap (+) (*2) 0 [1,2,3] == 12
        let mut pb = ProgramBuilder::new("rm");
        let n = pb.size_param("n");
        let xs = pb.param("xs", Type::i64().array_of(SubExp::Var(n)));
        let red = binop_lambda(BinOp::Add, ScalarType::I64);
        let mut lb = LambdaBuilder::new();
        let x = lb.param("x", Type::i64());
        let d = lb.body.binop(BinOp::Mul, x, SubExp::i64(2), Type::i64());
        let map = lb.finish(vec![SubExp::Var(d)], vec![Type::i64()]);
        let s = pb.body.bind(
            "s",
            Type::i64(),
            Exp::Soac(Soac::Redomap {
                w: SubExp::Var(n),
                red,
                map,
                nes: vec![SubExp::i64(0)],
                arrs: vec![xs],
            }),
        );
        let prog = pb.finish(vec![SubExp::Var(s)], vec![Type::i64()]);
        let out = eval1(&prog, &[Value::i64_(3), Value::i64_vec(vec![1, 2, 3])]);
        assert_eq!(out, Value::i64_(12));
    }

    #[test]
    fn loop_accumulates() {
        let mut pb = ProgramBuilder::new("triangle");
        let n = pb.size_param("n");
        let acc = crate::types::Param::fresh("acc", Type::i64());
        let i = VName::fresh("i");
        let mut bb = BodyBuilder::new();
        let next = bb.binop(BinOp::Add, acc.name, i, Type::i64());
        let body = bb.finish(vec![SubExp::Var(next)]);
        let r = pb.body.bind(
            "r",
            Type::i64(),
            Exp::Loop {
                params: vec![(acc, SubExp::i64(0))],
                ivar: i,
                bound: SubExp::Var(n),
                body,
            },
        );
        let prog = pb.finish(vec![SubExp::Var(r)], vec![Type::i64()]);
        assert_eq!(eval1(&prog, &[Value::i64_(5)]), Value::i64_(10));
    }

    #[test]
    fn segmap_matches_nested_map_denotation() {
        // segmap^1 ⟨xs ∈ xss⟩⟨x ∈ xs⟩ (x+1) over [[1,2],[3,4]].
        let mut pb = ProgramBuilder::new("seg");
        let n = pb.size_param("n");
        let m = pb.size_param("m");
        let xss = pb.param(
            "xss",
            Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n)),
        );
        let xs_p = crate::types::Param::fresh("xs", Type::i64().array_of(SubExp::Var(m)));
        let x_p = crate::types::Param::fresh("x", Type::i64());
        let mut bb = BodyBuilder::new();
        let r = bb.binop(BinOp::Add, x_p.name, SubExp::i64(1), Type::i64());
        let body = bb.finish(vec![SubExp::Var(r)]);
        let seg = SegOp {
            kind: SegKind::Map,
            level: LVL_GRID,
            ctx: vec![
                CtxDim::new(SubExp::Var(n), vec![(xs_p.clone(), xss)]),
                CtxDim::new(SubExp::Var(m), vec![(x_p, xs_p.name)]),
            ],
            body,
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let out_t = Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n));
        let ys = pb.body.bind("ys", out_t.clone(), Exp::Seg(seg));
        let prog = pb.finish(vec![SubExp::Var(ys)], vec![out_t]);
        let out = eval1(
            &prog,
            &[
                Value::i64_(2),
                Value::i64_(2),
                Value::array_from(vec![2, 2], Buffer::I64(vec![1, 2, 3, 4])),
            ],
        );
        assert_eq!(
            out,
            Value::array_from(vec![2, 2], Buffer::I64(vec![2, 3, 4, 5]))
        );
    }

    #[test]
    fn segscan_rows_matches_paper_example() {
        // segscan^1 ⟨xs∈xss⟩⟨x∈xs⟩ (+) 0 x over [[1,2],[3,4]] = [[1,3],[3,7]]
        let mut pb = ProgramBuilder::new("segscan");
        let n = pb.size_param("n");
        let m = pb.size_param("m");
        let xss = pb.param(
            "xss",
            Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n)),
        );
        let xs_p = crate::types::Param::fresh("xs", Type::i64().array_of(SubExp::Var(m)));
        let x_p = crate::types::Param::fresh("x", Type::i64());
        let seg = SegOp {
            kind: SegKind::Scan {
                op: binop_lambda(BinOp::Add, ScalarType::I64),
                nes: vec![SubExp::i64(0)],
            },
            level: LVL_GRID,
            ctx: vec![
                CtxDim::new(SubExp::Var(n), vec![(xs_p.clone(), xss)]),
                CtxDim::new(SubExp::Var(m), vec![(x_p.clone(), xs_p.name)]),
            ],
            body: Body::results(vec![SubExp::Var(x_p.name)]),
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let out_t = Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n));
        let ys = pb.body.bind("ys", out_t.clone(), Exp::Seg(seg));
        let prog = pb.finish(vec![SubExp::Var(ys)], vec![out_t]);
        let out = eval1(
            &prog,
            &[
                Value::i64_(2),
                Value::i64_(2),
                Value::array_from(vec![2, 2], Buffer::I64(vec![1, 2, 3, 4])),
            ],
        );
        assert_eq!(
            out,
            Value::array_from(vec![2, 2], Buffer::I64(vec![1, 3, 3, 7]))
        );
    }

    #[test]
    fn segred_reduces_innermost() {
        // segred^1 ⟨xs∈xss⟩⟨x∈xs⟩ (+) 0 (x) over [[1,2],[3,4]] = [3,7]
        let mut pb = ProgramBuilder::new("segred");
        let n = pb.size_param("n");
        let m = pb.size_param("m");
        let xss = pb.param(
            "xss",
            Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n)),
        );
        let xs_p = crate::types::Param::fresh("xs", Type::i64().array_of(SubExp::Var(m)));
        let x_p = crate::types::Param::fresh("x", Type::i64());
        let seg = SegOp {
            kind: SegKind::Red {
                op: binop_lambda(BinOp::Add, ScalarType::I64),
                nes: vec![SubExp::i64(0)],
            },
            level: LVL_GRID,
            ctx: vec![
                CtxDim::new(SubExp::Var(n), vec![(xs_p.clone(), xss)]),
                CtxDim::new(SubExp::Var(m), vec![(x_p.clone(), xs_p.name)]),
            ],
            body: Body::results(vec![SubExp::Var(x_p.name)]),
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let out_t = Type::i64().array_of(SubExp::Var(n));
        let ys = pb.body.bind("ys", out_t.clone(), Exp::Seg(seg));
        let prog = pb.finish(vec![SubExp::Var(ys)], vec![out_t]);
        let out = eval1(
            &prog,
            &[
                Value::i64_(2),
                Value::i64_(2),
                Value::array_from(vec![2, 2], Buffer::I64(vec![1, 2, 3, 4])),
            ],
        );
        assert_eq!(out, Value::i64_vec(vec![3, 7]));
    }

    #[test]
    fn threshold_guard_records_path() {
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
        let prog = pb.finish(vec![SubExp::Var(r)], vec![Type::i64()]);

        let mut t = Thresholds::new();
        t.set(ThresholdId(0), 100);
        let mut i = Interp::new(&t);
        i.bind_args(&prog, &[Value::i64_(500)]).unwrap();
        let out = i.eval_body(&prog.body).unwrap();
        assert_eq!(out, vec![Value::i64_(1)]);
        assert_eq!(i.path, vec![(ThresholdId(0), true)]);

        let mut i2 = Interp::new(&t);
        i2.bind_args(&prog, &[Value::i64_(50)]).unwrap();
        let out2 = i2.eval_body(&prog.body).unwrap();
        assert_eq!(out2, vec![Value::i64_(2)]);
        assert_eq!(i2.path, vec![(ThresholdId(0), false)]);
    }

    #[test]
    fn replicate_array_elem() {
        let v = Value::i64_vec(vec![7, 8]);
        let r = replicate_value(3, &v).array();
        assert_eq!(r.shape, vec![3, 2]);
        assert_eq!(r.data, Buffer::I64(vec![7, 8, 7, 8, 7, 8]));
    }

    #[test]
    fn division_by_zero_is_error() {
        assert!(eval_binop(BinOp::Div, Const::I64(1), Const::I64(0)).is_err());
        assert!(eval_binop(BinOp::Rem, Const::I32(1), Const::I32(0)).is_err());
    }

    #[test]
    fn casts() {
        assert_eq!(
            eval_unop(UnOp::Cast(ScalarType::F32), Const::I64(3)).unwrap(),
            Const::F32(3.0)
        );
        assert_eq!(
            eval_unop(UnOp::Cast(ScalarType::I32), Const::F64(3.7)).unwrap(),
            Const::I32(3)
        );
    }
}
