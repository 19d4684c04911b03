//! The VM executor: runs compiled bytecode as the second tier over the
//! one kernel decomposition, [`flat_exec::decomp`]. The split into
//! tasks, the pool dispatch, the joins, the launch records and the
//! telemetry are that module's; results, `path_signature` and launch
//! records are therefore bitwise interchangeable with the tree-walking
//! tier at every thread count and grain by construction — the two share
//! the code that could make them differ.
//!
//! What this file supplies is below the decomposition: a frame is three
//! flat register banks instead of a name→`Arc<Value>` map, the body is a
//! `match` over monomorphic opcodes instead of an AST walk, and every
//! per-element loop — including the [`Tier`] hooks a kernel task calls —
//! is one routine ([`Vm::run_range`]) that runs straight-line step
//! functions a strip of lanes at a time.

use crate::bytecode::*;
use crate::ops::{Carry, Cols, OnCols, OnRegs, STRIP};
use flat_exec::decomp::{
    self, accumulate, err, Accs, CrossVal, Kernels, Kind, Launch, Point, Result, ResultAcc, Tier,
    Trail,
};
use flat_exec::{ExecConfig, ExecError, ExecReport};
use flat_ir::ast::{Const, Program};
use flat_ir::interp::{self as interp, Thresholds};
use flat_ir::types::ScalarType;
use flat_ir::value::{ArrayVal, Buffer, Value};
use gpu_sim::CmpRecord;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Compile and execute a program on concrete values. Drop-in for
/// `flat_exec::run_program`, returning the same report type.
pub fn run_program(prog: &Program, args: &[Value], cfg: &ExecConfig) -> Result<ExecReport> {
    let compiled = crate::compile::compile(prog)?;
    run_compiled(&compiled, args, cfg)
}

/// Execute an already-compiled program (lets `measure` pay the lowering
/// cost once, outside the timed region).
pub fn run_compiled(
    prog: &CompiledProgram,
    args: &[Value],
    cfg: &ExecConfig,
) -> Result<ExecReport> {
    let kernels = Kernels::begin("vm", cfg);
    if prog.params.len() != args.len() {
        return err(format!(
            "program {} expects {} arguments, got {}",
            prog.name,
            prog.params.len(),
            args.len()
        ));
    }
    let vm = Vm {
        prog,
        thresholds: &cfg.thresholds,
        kernels: &kernels,
        leaf_elems: AtomicU64::new(0),
        scalar_elems: AtomicU64::new(0),
    };
    let mut fr = VmFrame {
        ints: vec![0; prog.n_int as usize],
        flts: vec![0.0; prog.n_flt as usize],
        arrs: vec![None; prog.n_arr as usize],
        trail: Trail::default(),
    };
    let bound = bind_args(&mut fr, prog, args);
    let started = Instant::now();
    let eval = bound.and_then(|()| vm.run_func(&mut fr, prog.main));
    let wall_nanos = started.elapsed().as_nanos() as f64;
    let values =
        eval.and_then(|()| prog.results.iter().map(|&l| vm.read_value(&fr, l)).collect());
    let elems = |n: &AtomicU64| n.load(Ordering::Relaxed);
    let step_elems = kernels.telemetry().then(|| (elems(&vm.leaf_elems), elems(&vm.scalar_elems)));
    let mut rep = kernels.finish(fr.trail, wall_nanos, values)?;
    if let Some((leaf, scalar)) = step_elems {
        let m = flat_obs::global().metrics();
        m.add("vm.leaf_elems", leaf);
        m.add("vm.scalar_elems", scalar);
    }
    rep.step_elems = step_elems;
    Ok(rep)
}

fn bind_args(fr: &mut VmFrame, prog: &CompiledProgram, args: &[Value]) -> Result<()> {
    for ((loc, ty, name), a) in prog.params.iter().zip(args) {
        match (loc, a) {
            (Loc::Arr { r }, Value::Array(av)) => {
                fr.arrs[*r as usize] = Some(Arc::new(av.clone()));
            }
            (Loc::Arr { .. }, Value::Scalar(_)) => {
                return err(format!("expected array, {name} is a scalar"));
            }
            (_, Value::Array(_)) => {
                return err(format!("expected scalar, {name} is an array"));
            }
            (&l, Value::Scalar(c)) => {
                if Some(c.scalar_type()) != l.scalar_type() {
                    return err(format!(
                        "program {} argument {name}: expected {}, got {}",
                        prog.name,
                        ty.scalar,
                        c.scalar_type()
                    ));
                }
                write_const(fr, l, *c)?;
            }
        }
    }
    Ok(())
}

/// One evaluation context: the three register banks plus the records a
/// kernel task accumulates privately and the join merges in task order.
pub(crate) struct VmFrame {
    pub(crate) ints: Vec<i64>,
    pub(crate) flts: Vec<f64>,
    pub(crate) arrs: Vec<Option<Arc<ArrayVal>>>,
    trail: Trail,
}

impl AsMut<Trail> for VmFrame {
    fn as_mut(&mut self) -> &mut Trail {
        &mut self.trail
    }
}

thread_local! {
    /// Each worker's leaf-loop scratch, grown on first use and kept.
    static COLS: std::cell::RefCell<Cols> = std::cell::RefCell::default();
}

/// A value crossing a task boundary (block partials, scan prefixes):
/// scalars by value, arrays by reference.
#[derive(Clone)]
enum TVal {
    S(Const),
    A(Arc<ArrayVal>),
}

impl CrossVal for TVal {
    fn point(&self) -> Point<'_> {
        match self {
            TVal::S(c) => Point::S(*c),
            TVal::A(a) => Point::A(a),
        }
    }
}

/// One context dimension's binds, prefetched for a task: source array
/// and destination register, width-checked at build time. Sound to hold
/// across body runs because registers are never reused — a body cannot
/// redefine a segop input array.
type DimPlan = Vec<(Arc<ArrayVal>, Loc)>;

/// Inputs of a step function that are the same at every element of a
/// range (the block prefix of a segscan fixup): registers and values.
type Same<'a> = Option<(&'a [Loc], &'a [TVal])>;

/// A step function's per-element results: where they are read and what
/// they are appended to.
type Sink<'a> = Option<(&'a [Loc], &'a mut Accs)>;

fn read_const(fr: &VmFrame, l: Loc) -> Result<Const> {
    match l {
        Loc::Int { r, st } => {
            let v = fr.ints[r as usize];
            Ok(match st {
                ScalarType::I64 => Const::I64(v),
                ScalarType::I32 => Const::I32(v as i32),
                ScalarType::Bool => Const::Bool(v != 0),
                _ => return err("corrupt register type"),
            })
        }
        Loc::Flt { r, st } => {
            let v = fr.flts[r as usize];
            Ok(match st {
                ScalarType::F64 => Const::F64(v),
                ScalarType::F32 => Const::F32(v as f32),
                _ => return err("corrupt register type"),
            })
        }
        Loc::Arr { .. } => err("expected scalar, got an array"),
    }
}

fn write_const(fr: &mut VmFrame, l: Loc, c: Const) -> Result<()> {
    match (l, c) {
        (Loc::Int { r, st: ScalarType::I64 }, Const::I64(v)) => fr.ints[r as usize] = v,
        (Loc::Int { r, st: ScalarType::I32 }, Const::I32(v)) => fr.ints[r as usize] = v as i64,
        (Loc::Int { r, st: ScalarType::Bool }, Const::Bool(b)) => fr.ints[r as usize] = b as i64,
        (Loc::Flt { r, st: ScalarType::F64 }, Const::F64(v)) => fr.flts[r as usize] = v,
        (Loc::Flt { r, st: ScalarType::F32 }, Const::F32(v)) => fr.flts[r as usize] = v as f64,
        _ => return err(format!("value type mismatch: {c} into {l}")),
    }
    Ok(())
}

pub(crate) struct Vm<'a> {
    prog: &'a CompiledProgram,
    thresholds: &'a Thresholds,
    kernels: &'a Kernels,
    /// Elements stepped a strip at a time and one at a time (counted
    /// only with telemetry on).
    leaf_elems: AtomicU64,
    scalar_elems: AtomicU64,
}

impl Vm<'_> {
    fn read_op(&self, fr: &VmFrame, op: Operand) -> i64 {
        match op {
            Operand::Const(v) => v,
            Operand::Reg(r) => fr.ints[r as usize],
        }
    }

    fn arr<'f>(&self, fr: &'f VmFrame, r: u32) -> Result<&'f Arc<ArrayVal>> {
        fr.arrs[r as usize]
            .as_ref()
            .ok_or_else(|| ExecError(format!("array register a{r} unbound")))
    }

    fn read_value(&self, fr: &VmFrame, l: Loc) -> Result<Value> {
        match l {
            Loc::Arr { r } => Ok(Value::Array((**self.arr(fr, r)?).clone())),
            _ => Ok(Value::Scalar(read_const(fr, l)?)),
        }
    }

    fn write_value(&self, fr: &mut VmFrame, l: Loc, v: Value) -> Result<()> {
        match (l, v) {
            (Loc::Arr { r }, Value::Array(av)) => {
                fr.arrs[r as usize] = Some(Arc::new(av));
                Ok(())
            }
            (_, Value::Scalar(c)) => write_const(fr, l, c),
            (_, Value::Array(_)) => err("value type mismatch: array into scalar register"),
        }
    }

    fn read_tvals(&self, fr: &VmFrame, locs: &[Loc]) -> Result<Vec<TVal>> {
        locs.iter()
            .map(|&l| match l {
                Loc::Arr { r } => Ok(TVal::A(self.arr(fr, r)?.clone())),
                _ => Ok(TVal::S(read_const(fr, l)?)),
            })
            .collect()
    }

    fn write_tvals(&self, fr: &mut VmFrame, locs: &[Loc], vals: &[TVal]) -> Result<()> {
        for (&l, v) in locs.iter().zip(vals) {
            match (l, v) {
                (Loc::Arr { r }, TVal::A(a)) => fr.arrs[r as usize] = Some(a.clone()),
                (_, TVal::S(c)) => write_const(fr, l, *c)?,
                (_, TVal::A(_)) => {
                    return err("value type mismatch: array into scalar register")
                }
            }
        }
        Ok(())
    }

    /// Copy registers pairwise (neutral elements into accumulators,
    /// accumulators into destinations). Destinations are always fresh
    /// registers, so no scratch pass is needed.
    fn copy_locs(&self, fr: &mut VmFrame, srcs: &[Loc], dsts: &[Loc]) -> Result<()> {
        for (&s, &d) in srcs.iter().zip(dsts) {
            match (s, d) {
                (Loc::Int { r: sr, .. }, Loc::Int { r: dr, .. }) => {
                    fr.ints[dr as usize] = fr.ints[sr as usize]
                }
                (Loc::Flt { r: sr, .. }, Loc::Flt { r: dr, .. }) => {
                    fr.flts[dr as usize] = fr.flts[sr as usize]
                }
                (Loc::Arr { r: sr }, Loc::Arr { r: dr }) => {
                    fr.arrs[dr as usize] = fr.arrs[sr as usize].clone()
                }
                _ => return err("value kind mismatch in binding"),
            }
        }
        Ok(())
    }

    // -- the dispatch loop --------------------------------------------

    pub(crate) fn run_func(&self, fr: &mut VmFrame, f: FuncId) -> Result<()> {
        let instrs: &[Instr] = &self.prog.funcs[f as usize];
        for ins in instrs {
            match ins {
                Instr::IConst { dst, v } => fr.ints[*dst as usize] = *v,
                Instr::FConst { dst, v } => fr.flts[*dst as usize] = *v,
                Instr::AMov { dst, src } => {
                    fr.arrs[*dst as usize] = fr.arrs[*src as usize].clone()
                }
                Instr::Op { op, dst, a, b } => op.apply(OnRegs {
                    ints: &mut fr.ints,
                    flts: &mut fr.flts,
                    dst: *dst,
                    a: *a,
                    b: *b,
                }),
                Instr::BinGen { op, a, b, dst } => {
                    let x = read_const(fr, *a)?;
                    let y = read_const(fr, *b)?;
                    write_const(fr, *dst, interp::eval_binop(*op, x, y)?)?;
                }
                Instr::UnGen { op, a, dst } => {
                    let x = read_const(fr, *a)?;
                    write_const(fr, *dst, interp::eval_unop(*op, x)?)?;
                }
                Instr::CmpThr { id, factors, dst } => {
                    let mut par: i64 = 1;
                    for fx in factors.iter() {
                        par = par.saturating_mul(self.read_op(fr, *fx));
                    }
                    let taken = par >= self.thresholds.get(*id);
                    fr.trail.path.push(CmpRecord { id: *id, par, taken });
                    fr.ints[*dst as usize] = taken as i64;
                }
                Instr::Index { arr, idxs, dst } => {
                    // Read everything out of the (shared) array before
                    // touching the frame mutably; no Arc clone needed.
                    enum Got {
                        C(Const),
                        A(ArrayVal),
                    }
                    let got = {
                        let a = self.arr(fr, *arr)?;
                        if idxs.len() > a.rank() {
                            return err("too many indices");
                        }
                        let mut off: i64 = 0;
                        for (k, ix) in idxs.iter().enumerate() {
                            let i = self.read_op(fr, *ix);
                            if i < 0 || i >= a.shape[k] {
                                return err(format!(
                                    "index {i} out of bounds for axis {k} of extent {}",
                                    a.shape[k]
                                ));
                            }
                            off = off * a.shape[k] + i;
                        }
                        let rest = &a.shape[idxs.len()..];
                        if rest.is_empty() {
                            Got::C(a.data.get(off as usize))
                        } else {
                            let row: usize = rest.iter().product::<i64>() as usize;
                            Got::A(ArrayVal::new(
                                rest.to_vec(),
                                a.data.slice(off as usize * row, row),
                            ))
                        }
                    };
                    match got {
                        Got::C(c) => write_const(fr, *dst, c)?,
                        Got::A(av) => self.write_value(fr, *dst, Value::Array(av))?,
                    }
                }
                Instr::Iota { n, dst } => {
                    let n = self.read_op(fr, *n);
                    if n < 0 {
                        return err("iota of negative length");
                    }
                    let av = ArrayVal::new(vec![n], Buffer::I64((0..n).collect()));
                    fr.arrs[*dst as usize] = Some(Arc::new(av));
                }
                Instr::RepScalar { n, elem, dst } => {
                    let n = self.read_op(fr, *n);
                    if n < 0 {
                        return err("replicate of negative length");
                    }
                    let c = read_const(fr, *elem)?;
                    let mut data = Buffer::with_capacity(c.scalar_type(), n as usize);
                    for _ in 0..n {
                        data.push(c);
                    }
                    fr.arrs[*dst as usize] = Some(Arc::new(ArrayVal::new(vec![n], data)));
                }
                Instr::RepArr { n, elem, dst } => {
                    let n = self.read_op(fr, *n);
                    if n < 0 {
                        return err("replicate of negative length");
                    }
                    let a = self.arr(fr, *elem)?.clone();
                    let mut data =
                        Buffer::with_capacity(a.data.scalar_type(), n as usize * a.data.len());
                    for _ in 0..n {
                        data.extend_range(&a.data, 0, a.data.len());
                    }
                    let mut shape = vec![n];
                    shape.extend(&a.shape);
                    fr.arrs[*dst as usize] = Some(Arc::new(ArrayVal::new(shape, data)));
                }
                Instr::Rearrange { perm, arr, dst } => {
                    let a = self.arr(fr, *arr)?.clone();
                    fr.arrs[*dst as usize] = Some(Arc::new(a.rearrange(perm)));
                }
                Instr::ArrayLit { elems, st, dst } => {
                    let mut buf = Buffer::with_capacity(*st, elems.len());
                    for &e in elems.iter() {
                        buf.push(read_const(fr, e)?);
                    }
                    let av = ArrayVal::new(vec![elems.len() as i64], buf);
                    fr.arrs[*dst as usize] = Some(Arc::new(av));
                }
                Instr::If { cond, tf, ff } => {
                    if fr.ints[*cond as usize] != 0 {
                        self.run_func(fr, *tf)?;
                    } else {
                        self.run_func(fr, *ff)?;
                    }
                }
                Instr::Loop { ivar, bound, body } => {
                    let n = self.read_op(fr, *bound);
                    for i in 0..n {
                        fr.ints[*ivar as usize] = i;
                        self.run_func(fr, *body)?;
                    }
                }
                Instr::Soac(id) => self.run_soac(fr, *id)?,
                Instr::Seg(id) => self.run_seg(fr, *id)?,
            }
        }
        Ok(())
    }

    // -- SOACs (sequential, as in the interpreter) --------------------

    fn run_soac(&self, fr: &mut VmFrame, id: u32) -> Result<()> {
        let so = &self.prog.soacs[id as usize];
        let n = self.read_op(fr, so.w);
        let mut inputs: DimPlan = Vec::with_capacity(so.arrs.len());
        for ((&r, name), &dst) in so.arrs.iter().zip(&so.arr_names).zip(&so.elems) {
            let a = self.arr(fr, r)?.clone();
            if a.shape[0] != n {
                return err(format!(
                    "SOAC width {n} but array {name} has outer size {}",
                    a.shape[0]
                ));
            }
            inputs.push((a, dst));
        }
        let folds = matches!(so.kind, SoacKind::Reduce | SoacKind::Redomap);
        if so.kind != SoacKind::Map {
            self.copy_locs(fr, &so.nes, &so.accs)?;
        }
        let mut out: Accs = None;
        let sink = (!folds).then_some((&so.outs[..], &mut out));
        self.run_range(fr, so.step, &inputs, None, 0..n, sink)?;
        if folds {
            self.copy_locs(fr, &so.accs, &so.dsts)
        } else {
            let mut dsts = so.dsts.iter();
            let put = |v| dsts.next().map_or(Ok(()), |&d| self.write_value(fr, d, v));
            decomp::finish_results(out, &so.ret, &[n.max(0)], put)
        }
    }

    /// Bind outer element `i` of an array with element shape `shape`
    /// (a scalar for rank 1, a row view otherwise) into `dst`.
    fn bind_row(
        &self,
        fr: &mut VmFrame,
        data: &Buffer,
        shape: &[i64],
        i: i64,
        dst: Loc,
    ) -> Result<()> {
        if shape.is_empty() {
            write_const(fr, dst, data.get(i as usize))
        } else {
            let Loc::Arr { r } = dst else {
                return err("value type mismatch: array row into scalar register");
            };
            let row: usize = shape.iter().product::<i64>() as usize;
            let av = ArrayVal::new(shape.to_vec(), data.slice(i as usize * row, row));
            fr.arrs[r as usize] = Some(Arc::new(av));
            Ok(())
        }
    }

    // -- per-element loops --------------------------------------------

    /// Step `step` once per element of `range`, in index order: bind
    /// element `j` of every array in `rows` (and the `same` values), run
    /// the function, append its results to the sink. A leaf whose inputs
    /// are all scalars of their registers' types runs a strip at a time;
    /// anything else, and anything that can fail, an element at a time.
    fn run_range(
        &self,
        fr: &mut VmFrame,
        step: FuncId,
        rows: &DimPlan,
        same: Same,
        range: Range<i64>,
        mut sink: Sink,
    ) -> Result<()> {
        if range.is_empty() {
            return Ok(());
        }
        let is = |dst: &Loc, st: ScalarType| dst.scalar_type() == Some(st);
        let columns = rows.iter().all(|(a, dst)| a.rank() == 1 && is(dst, a.data.scalar_type()))
            && same.iter().flat_map(|(locs, vals)| locs.iter().zip(*vals)).all(|(dst, v)| {
                matches!(v, TVal::S(c) if is(dst, c.scalar_type()))
            });
        let class = self.prog.steps[step as usize].as_ref();
        let leaf = class.and_then(|c| c.as_ref().ok()).filter(|_| columns);
        if self.kernels.telemetry() {
            let n = if leaf.is_some() { &self.leaf_elems } else { &self.scalar_elems };
            n.fetch_add((range.end - range.start) as u64, Ordering::Relaxed);
        }
        if let Some(leaf) = leaf {
            let range = range.start as usize..range.end as usize;
            return self.run_leaf(fr, leaf, rows, same, range, sink);
        }
        for j in range {
            if let Some((locs, vals)) = same {
                self.write_tvals(fr, locs, vals)?;
            }
            self.bind_dim(fr, rows, j)?;
            self.run_func(fr, step)?;
            if let Some((locs, out)) = &mut sink {
                accumulate(out, locs.len(), |k| match locs[k] {
                    Loc::Arr { r } => Ok(Point::A(self.arr(fr, r)?)),
                    l => Ok(Point::S(read_const(fr, l)?)),
                })?;
            }
        }
        Ok(())
    }

    /// A leaf over a range in strips of at most [`STRIP`] lanes. Per
    /// strip: inputs are widened from their buffers into columns, the
    /// carried-independent prefix runs instruction-outer/lane-inner, the
    /// carried rest runs lane by lane in index order, and the result
    /// columns are appended to the sink. Every lane performs exactly the
    /// scalar operations `run_func` would, in the same order along the
    /// carried chain, and nothing here can fail midway.
    fn run_leaf(
        &self,
        fr: &mut VmFrame,
        leaf: &Leaf,
        rows: &DimPlan,
        same: Same,
        range: Range<usize>,
        mut sink: Sink,
    ) -> Result<()> {
        let mut cols = COLS.take();
        cols.ensure(leaf.n_cols);
        let widest = range.len().min(STRIP);
        // Bound columns come in bind order: the `same` registers first.
        let (same_cols, row_cols) = leaf.bound.split_at(same.map_or(0, |(locs, _)| locs.len()));
        if let Some((locs, vals)) = same {
            self.write_tvals(fr, locs, vals)?;
            for (l, &c) in locs.iter().zip(same_cols) {
                broadcast(&mut cols, fr, l.reg(), c, 0..widest);
            }
        }
        for &(r, c) in &leaf.uniforms {
            broadcast(&mut cols, fr, r, c, 0..widest);
        }
        let (prefix, rest) = leaf.code.split_at(leaf.prefix);
        for at in range.clone().step_by(STRIP) {
            let n = (range.end - at).min(STRIP);
            for ((a, _), &c) in rows.iter().zip(row_cols) {
                load_col(&mut cols, c, &a.data, at, n);
            }
            for op in prefix {
                run_cols(op, &mut cols, 0..n);
            }
            if let Some((op, x, acc_left)) = leaf.fold {
                let ((_, acc), _, out) = leaf.carried[0];
                let (ints, flts) = (&mut fr.ints[..], &mut fr.flts[..]);
                op.apply(Carry { cols: &mut cols, ints, flts, acc, acc_left, x, out, n });
            } else if !rest.is_empty() {
                for l in 0..n {
                    for &(r, entry, _) in &leaf.carried {
                        broadcast(&mut cols, fr, r, entry, l..l + 1);
                    }
                    for op in rest {
                        run_cols(op, &mut cols, l..l + 1);
                    }
                    for &((bank, r), _, exit) in &leaf.carried {
                        match bank {
                            'f' => fr.flts[r as usize] = cols.flts[exit as usize][l],
                            _ => fr.ints[r as usize] = cols.ints[exit as usize][l],
                        }
                    }
                }
            }
            if let Some((locs, out)) = &mut sink {
                push_cols(out, locs, &leaf.outs, &cols, n, range.len())?;
            }
        }
        COLS.set(cols);
        Ok(())
    }

    // -- segmented operators ------------------------------------------

    /// Prefetch one context dimension's binds for a task: the source
    /// arrays (`Arc`s held once, not cloned per element) with the width
    /// check done up front. `k` is the dimension, or `None` for the
    /// innermost one of a fold loop (build that plan only when the loop
    /// is nonempty: an empty block skips the check).
    fn dim_plan(&self, fr: &VmFrame, dim: &CDim, k: Option<usize>, w: i64) -> Result<DimPlan> {
        let mut binds = Vec::with_capacity(dim.binds.len());
        for b in &dim.binds {
            let a = self.arr(fr, b.arr)?.clone();
            if a.shape[0] != w {
                let which = k.map_or("innermost dim".into(), |k| format!("context dim {k}"));
                return err(format!(
                    "segop {which}: width {w} but array {} outer size {}",
                    b.name, a.shape[0]
                ));
            }
            binds.push((a, b.dst));
        }
        Ok(binds)
    }

    /// Bind element `i` of every array in a prefetched dimension plan.
    fn bind_dim(&self, fr: &mut VmFrame, plan: &DimPlan, i: i64) -> Result<()> {
        for (a, dst) in plan {
            self.bind_row(fr, &a.data, &a.shape[1..], i, *dst)?;
        }
        Ok(())
    }

    /// Out of line: the generic decomposition is instantiated under here,
    /// and inlined into the recursive `run_func` it costs every other
    /// instruction its stack frame.
    #[inline(never)]
    fn run_seg(&self, fr: &mut VmFrame, id: u32) -> Result<()> {
        let sg = &self.prog.segs[id as usize];
        let widths: Vec<i64> = sg.ctx.iter().map(|d| self.read_op(fr, d.width)).collect();
        let launch = Launch {
            name: &sg.name,
            kind: match sg.kind {
                CSegKind::Map { .. } => Kind::Map,
                CSegKind::Red(_) => Kind::Red,
                CSegKind::Scan(_) => Kind::Scan,
            },
            level: sg.level,
            prov: sg.prov,
            body_ret: &sg.body_ret,
        };
        let body = SegBody { vm: self, sg, widths: &widths };
        let mut dsts = sg.dsts.iter();
        self.kernels.launch(&body, fr, &launch, &widths, |fr, v| {
            dsts.next().map_or(Ok(()), |&d| self.write_value(fr, d, v))
        })
    }
}

/// One segop's leaf work on the bytecode.
struct SegBody<'a> {
    vm: &'a Vm<'a>,
    sg: &'a CompiledSeg,
    widths: &'a [i64],
}

impl SegBody<'_> {
    /// The operator of a `segred`/`segscan`.
    fn operator(&self) -> Result<&COperator> {
        match &self.sg.kind {
            CSegKind::Red(op) | CSegKind::Scan(op) => Ok(op),
            CSegKind::Map { .. } => err("segmap has no operator"),
        }
    }
}

/// The per-task hooks are `#[inline]`: a one-block task is about a
/// microsecond, and out-of-line calls from `decomp`'s dispatch closure
/// (another crate's generic code) show at that scale.
impl Tier for SegBody<'_> {
    type Frame = VmFrame;
    type Val = TVal;

    /// A clone of the register banks.
    #[inline]
    fn fork(&self, host: &VmFrame) -> VmFrame {
        VmFrame {
            ints: host.ints.clone(),
            flts: host.flts.clone(),
            arrs: host.arrs.clone(),
            trail: Trail::task(),
        }
    }

    /// Outermost first: dim k's arrays can be the rows dim k-1 binds.
    #[inline]
    fn bind_segment(&self, fr: &mut VmFrame, seg: usize) -> Result<()> {
        let (vm, widths) = (self.vm, self.widths);
        let p = widths.len();
        let mut idxs = vec![0i64; p];
        let mut rem = seg as i64;
        for k in (0..p - 1).rev() {
            idxs[k] = rem % widths[k];
            rem /= widths[k];
        }
        for (k, dim) in self.sg.ctx.iter().take(p - 1).enumerate() {
            for b in &dim.binds {
                let a = vm.arr(fr, b.arr)?.clone();
                if a.shape[0] != widths[k] {
                    return err(format!(
                        "segop context dim {k}: width {} but array {} outer size {}",
                        widths[k], b.name, a.shape[0]
                    ));
                }
                vm.bind_row(fr, &a.data, &a.shape[1..], idxs[k], b.dst)?;
            }
        }
        Ok(())
    }

    fn map_range(&self, fr: &mut VmFrame, range: Range<usize>, sink: &mut Accs) -> Result<()> {
        let (vm, sg, widths) = (self.vm, self.sg, self.widths);
        let CSegKind::Map { body, outs } = &sg.kind else {
            return err("map_range on a segop that is not a segmap");
        };
        let p = widths.len();
        let inner = widths[p - 1] as usize;
        // One run of the body per stretch of the innermost dimension.
        // An outer dimension is re-bound only when its coordinate moved —
        // and then every dimension inside it too, because dim k's source
        // arrays can be the row views dim k-1 just bound: a prefetched
        // plan is valid exactly as long as every outer dim is unchanged.
        // So the expensive outer row copies happen once per row, not
        // once per element; register contents at body entry are
        // identical.
        let mut plans: Vec<Option<DimPlan>> = (0..p - 1).map(|_| None).collect();
        let mut idxs = vec![0i64; p - 1];
        let mut prev = vec![-1i64; p - 1];
        let mut flat = range.start;
        while flat < range.end {
            let mut rem = (flat / inner) as i64;
            for k in (0..p - 1).rev() {
                idxs[k] = rem % widths[k];
                rem /= widths[k];
            }
            let k0 = (0..p - 1).find(|&k| idxs[k] != prev[k]).unwrap_or(p - 1);
            for k in k0..p - 1 {
                if k > k0 {
                    plans[k] = None;
                }
                let plan = match &plans[k] {
                    Some(pl) => pl,
                    None => {
                        plans[k] = Some(vm.dim_plan(fr, &sg.ctx[k], Some(k), widths[k])?);
                        plans[k].as_ref().expect("plan just built")
                    }
                };
                vm.bind_dim(fr, plan, idxs[k])?;
                prev[k] = idxs[k];
            }
            let j = flat % inner;
            let run = (inner - j).min(range.end - flat);
            let plan = vm.dim_plan(fr, &sg.ctx[p - 1], Some(p - 1), widths[p - 1])?;
            let sink = Some((&outs[..], &mut *sink));
            vm.run_range(fr, *body, &plan, None, j as i64..(j + run) as i64, sink)?;
            flat += run;
        }
        Ok(())
    }

    #[inline]
    fn fold_block(
        &self,
        fr: &mut VmFrame,
        range: Range<usize>,
        scan: Option<&mut Accs>,
    ) -> Result<Vec<TVal>> {
        let (vm, op) = (self.vm, self.operator()?);
        // Neutral elements are read after the segment context is bound
        // (they may reference it).
        vm.copy_locs(fr, &op.nes, &op.accs)?;
        if !range.is_empty() {
            let inner = self.widths.len() - 1;
            let plan = vm.dim_plan(fr, &self.sg.ctx[inner], None, self.widths[inner])?;
            let sink = scan.map(|local| (&op.accs[..], local));
            vm.run_range(fr, op.fold, &plan, None, range.start as i64..range.end as i64, sink)?;
        }
        vm.read_tvals(fr, &op.accs)
    }

    #[inline]
    fn combine(&self, fr: &mut VmFrame, acc: &mut Vec<TVal>, rhs: &[TVal]) -> Result<()> {
        let (vm, op) = (self.vm, self.operator()?);
        vm.write_tvals(fr, &op.accs, acc)?;
        vm.write_tvals(fr, &op.rhs, rhs)?;
        vm.run_func(fr, op.combine)?;
        *acc = vm.read_tvals(fr, &op.accs)?;
        Ok(())
    }

    fn fixup(
        &self,
        fr: &mut VmFrame,
        prefix: &[TVal],
        locals: &[ResultAcc],
        sink: &mut Accs,
    ) -> Result<()> {
        let op = self.operator()?;
        let count = locals.first().map_or(0, ResultAcc::count) as i64;
        let rows: DimPlan = (locals.iter().zip(&op.rhs))
            .map(|(local, &dst)| (Arc::new(local.to_array()), dst))
            .collect();
        let same = Some((&op.accs[..], prefix));
        self.vm.run_range(fr, op.combine, &rows, same, 0..count, Some((&op.accs[..], sink)))
    }
}

/// Fill a range of lanes of column `c` with a frame register's value.
fn broadcast(cols: &mut Cols, fr: &VmFrame, (bank, r): Reg, c: u32, lanes: Range<usize>) {
    match bank {
        'f' => cols.flts[c as usize][lanes].fill(fr.flts[r as usize]),
        _ => cols.ints[c as usize][lanes].fill(fr.ints[r as usize]),
    }
}

/// Widen `n` elements of a typed buffer, from `at`, into column `c` of
/// the bank its registers live in.
fn load_col(cols: &mut Cols, c: u32, data: &Buffer, at: usize, n: usize) {
    fn widen<S: Copy, T>(col: &mut [T], src: &[S], f: impl Fn(S) -> T) {
        for (o, &x) in col.iter_mut().zip(src) {
            *o = f(x);
        }
    }
    let (ints, flts) = (&mut cols.ints, &mut cols.flts);
    match data {
        Buffer::I64(v) => ints[c as usize][..n].copy_from_slice(&v[at..at + n]),
        Buffer::I32(v) => widen(&mut ints[c as usize][..n], &v[at..at + n], |x| x as i64),
        Buffer::Bool(v) => widen(&mut ints[c as usize][..n], &v[at..at + n], |x| x as i64),
        Buffer::F64(v) => flts[c as usize][..n].copy_from_slice(&v[at..at + n]),
        Buffer::F32(v) => widen(&mut flts[c as usize][..n], &v[at..at + n], |x| x as f64),
    }
}

/// One instruction of a leaf on a range of lanes (`classify` admits
/// nothing but these three).
fn run_cols(op: &Instr, cols: &mut Cols, lanes: Range<usize>) {
    match *op {
        Instr::IConst { dst, v } => cols.ints[dst as usize][lanes].fill(v),
        Instr::FConst { dst, v } => cols.flts[dst as usize][lanes].fill(v),
        Instr::Op { op, dst, a, b } => op.apply(OnCols { cols, dst, a, b, lanes }),
        _ => unreachable!("not a leaf instruction: {op}"),
    }
}

/// Append `n` lanes of each result column to the sink, narrowed to the
/// result's type — what [`accumulate`] does one element at a time.
/// `room` sizes a sink created here. Out of line, so the accumulator
/// plumbing stays out of `run_leaf`'s strip loop.
#[inline(never)]
fn push_cols(
    out: &mut Accs,
    locs: &[Loc],
    from: &[u32],
    cols: &Cols,
    n: usize,
    room: usize,
) -> Result<()> {
    let accs = out.get_or_insert_with(|| {
        let new = |l: &Loc| ResultAcc::scalars(l.scalar_type().unwrap_or(ScalarType::I64), room);
        locs.iter().map(new).collect()
    });
    for ((acc, l), &c) in accs.iter_mut().zip(locs).zip(from) {
        let st = acc.scalar_type();
        if st.is_none() || st != l.scalar_type() {
            return err("result type changed across iterations");
        }
        let c = c as usize;
        acc.extend_scalars(n, |data| match data {
            Buffer::I64(v) => v.extend_from_slice(&cols.ints[c][..n]),
            Buffer::I32(v) => v.extend(cols.ints[c][..n].iter().map(|&x| x as i32)),
            Buffer::Bool(v) => v.extend(cols.ints[c][..n].iter().map(|&x| x != 0)),
            Buffer::F64(v) => v.extend_from_slice(&cols.flts[c][..n]),
            Buffer::F32(v) => v.extend(cols.flts[c][..n].iter().map(|&x| x as f32)),
        });
    }
    Ok(())
}
