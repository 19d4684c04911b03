//! Lowering from flattened `flat-ir` to the register bytecode.
//!
//! The pass is a single walk over the program body. Every `VName` is
//! resolved here, once, to a [`Loc`]; the runtime never sees a name.
//! Scalar statements become one instruction; `if`/`loop` bodies and
//! segop/SOAC bodies become separate functions referenced by structured
//! instructions; segops and SOACs additionally get side-table entries
//! carrying their compiled context bindings and operator functions.
//!
//! Type errors (non-bool conditions, array/scalar confusion, non-integral
//! widths) surface at compile time here rather than at evaluation time
//! as in `flat-exec`; data-dependent errors (division by zero, negative
//! widths, out-of-bounds indices) remain runtime errors so the VM agrees
//! with the interpreter on every well-typed program.

use crate::bytecode::*;
use flat_exec::decomp::{err, Result};
use flat_exec::ExecError;
use flat_ir::ast::*;
use flat_ir::types::{Param, ScalarType, Type};
use flat_ir::VName;
use std::collections::{HashMap, HashSet};

/// `lam` (`k` accumulator parameters) was due `want` values, not `got`.
fn lam_arity(lam: &Lambda, k: usize, got: usize, want: usize) -> Result<()> {
    if got != want {
        return err(format!("lambda arity {} vs {} arguments", lam.params.len(), k + got));
    }
    Ok(())
}

/// Lower a program to bytecode.
pub fn compile(prog: &Program) -> Result<CompiledProgram> {
    let mut c = Compiler::default();
    let main = c.new_func();
    let mut params = Vec::new();
    for p in &prog.params {
        let l = c.loc_for_type(&p.ty);
        c.env.insert(p.name, l);
        params.push((l, p.ty.clone(), p.name.to_string()));
    }
    let results = c.compile_body(main, &prog.body)?;
    let mut compiled = CompiledProgram {
        name: prog.name.clone(),
        params,
        results,
        main,
        steps: vec![],
        funcs: c.funcs,
        segs: c.segs,
        soacs: c.soacs,
        n_int: c.n_int,
        n_flt: c.n_flt,
        n_arr: c.n_arr,
    };
    coalesce_moves(&mut compiled);
    compiled.steps = classify_steps(&compiled);
    Ok(compiled)
}

/// Fold `op d <- ..; mov e <- d` into `op e <- ..` wherever that `mov` is
/// the only reader of `d` in the whole program — the shape the lowering
/// wraps around every lambda result. Registers keep their numbers.
fn coalesce_moves(p: &mut CompiledProgram) {
    let mut reads = [vec![0u32; p.n_int as usize], vec![0u32; p.n_flt as usize]];
    let mut note = |(bank, r): Reg| {
        if bank != 'a' {
            reads[(bank == 'f') as usize][r as usize] += 1;
        }
    };
    p.funcs.iter().flatten().for_each(|ins| ins.reads(&mut note));
    // Everything a side table names is read (or written) by the runtime.
    let mut opnd = |o: &Operand| {
        if let Operand::Reg(r) = o {
            note(('i', *r));
        }
    };
    p.soacs.iter().for_each(|so| opnd(&so.w));
    p.segs.iter().flat_map(|sg| &sg.ctx).for_each(|d| opnd(&d.width));
    let soac_locs = p.soacs.iter().flat_map(|so| {
        so.elems.iter().chain(&so.nes).chain(&so.accs).chain(&so.outs).chain(&so.dsts)
    });
    let seg_locs = p.segs.iter().flat_map(|sg| {
        let of_kind = match &sg.kind {
            CSegKind::Map { outs, .. } => [&outs[..], &[], &[]],
            CSegKind::Red(op) | CSegKind::Scan(op) => [&op.nes[..], &op.accs[..], &op.rhs[..]],
        };
        let binds = sg.ctx.iter().flat_map(|d| d.binds.iter().map(|b| &b.dst));
        of_kind.into_iter().flatten().chain(&sg.dsts).chain(binds)
    });
    p.results.iter().chain(soac_locs).chain(seg_locs).for_each(|l| note(l.reg()));

    for code in &mut p.funcs {
        let mut i = 0;
        while i + 1 < code.len() {
            let (head, tail) = code.split_at_mut(i + 1);
            match (head[i].dst_mut(), &tail[0]) {
                (Some((bank, d)), &Instr::Op { op: op @ (Opc::IMov | Opc::FMov), dst, a, .. })
                    if a == *d
                        && bank == op.banks().0
                        && reads[(bank == 'f') as usize][a as usize] == 1 =>
                {
                    *d = dst;
                    code.remove(i + 1);
                }
                _ => i += 1,
            }
        }
    }
}

/// Record, for every function a per-element loop steps, the leaf it runs
/// as or why it cannot.
fn classify_steps(p: &CompiledProgram) -> Vec<Option<std::result::Result<Leaf, String>>> {
    let mut steps = vec![None; p.funcs.len()];
    let mut put = |f: FuncId, bound: &[Loc], carried: &[Loc], outs: &[Loc]| {
        steps[f as usize] = Some(classify(&p.funcs[f as usize], bound, carried, outs));
    };
    for so in &p.soacs {
        put(so.step, &so.elems, &so.accs, &so.outs);
    }
    for sg in &p.segs {
        let inner: Vec<Loc> =
            sg.ctx.last().map_or(vec![], |d| d.binds.iter().map(|b| b.dst).collect());
        match &sg.kind {
            CSegKind::Map { body, outs } => put(*body, &inner, &[], outs),
            CSegKind::Red(op) => put(op.fold, &inner, &op.accs, &op.accs),
            // The fixup pass steps `combine` with the block prefix bound
            // to `accs` afresh at every element: nothing is carried.
            CSegKind::Scan(op) => {
                put(op.fold, &inner, &op.accs, &op.accs);
                put(op.combine, &[&op.accs[..], &op.rhs].concat(), &[], &op.accs);
            }
        }
    }
    steps
}

/// Lower a step function to a [`Leaf`], or name the first thing that
/// keeps it on the per-element path. Every value gets a column of its
/// own (a register redefined gets a fresh one), so moving the
/// instructions that do not depend on a carried register ahead of the
/// ones that do cannot change what any of them reads.
fn classify(
    code: &[Instr],
    bound: &[Loc],
    carried: &[Loc],
    outs: &[Loc],
) -> std::result::Result<Leaf, String> {
    let mut locs = bound.iter().chain(carried).chain(outs);
    if let Some(l) = locs.find(|l| l.scalar_type().is_none()) {
        return Err(format!("array operand {l}"));
    }
    let mut leaf = Leaf::default();
    // Where each register's current value lives, and which columns
    // depend on a carried register.
    let mut at: HashMap<Reg, u32> = HashMap::new();
    let mut tainted: HashSet<Reg> = HashSet::new();
    let fresh = |n_cols: &mut [u32; 2], r: Reg, at: &mut HashMap<Reg, u32>| {
        let n = &mut n_cols[(r.0 == 'f') as usize];
        *n += 1;
        at.insert(r, *n - 1);
        *n - 1
    };
    leaf.bound = bound.iter().map(|l| fresh(&mut leaf.n_cols, l.reg(), &mut at)).collect();
    for l in carried {
        let c = fresh(&mut leaf.n_cols, l.reg(), &mut at);
        leaf.uniforms.push((l.reg(), c));
        leaf.carried.push((l.reg(), c, c));
        tainted.insert((l.reg().0, c));
    }
    let is_carried = |r: Reg| carried.iter().any(|l| l.reg() == r);
    // A register nothing here defined is a host value, the same at
    // every element.
    let column = |leaf: &mut Leaf, r: Reg, at: &mut HashMap<Reg, u32>| match at.get(&r) {
        Some(&c) => c,
        None => {
            let c = fresh(&mut leaf.n_cols, r, at);
            leaf.uniforms.push((r, c));
            c
        }
    };
    let mut tail = Vec::new();
    for ins in code {
        // The register written, the instruction over columns (its own
        // column still to come), and whether an operand is carried.
        let (r, mut op, taint) = match *ins {
            Instr::IConst { dst, .. } => (('i', dst), ins.clone(), false),
            Instr::FConst { dst, .. } => (('f', dst), ins.clone(), false),
            Instr::Op { op, dst, a, b } => {
                let (db, sb) = op.banks();
                let a = column(&mut leaf, (sb, a), &mut at);
                let b = column(&mut leaf, (sb, b), &mut at);
                let taint = tainted.contains(&(sb, a)) || tainted.contains(&(sb, b));
                ((db, dst), Instr::Op { op, dst, a, b }, taint)
            }
            ref other => {
                return Err(other.to_string().split_whitespace().collect::<Vec<_>>().join(" "))
            }
        };
        if !is_carried(r) && leaf.uniforms.iter().any(|(u, _)| *u == r) {
            return Err(format!("{}{} is read before it is written", r.0, r.1));
        }
        let c = fresh(&mut leaf.n_cols, r, &mut at);
        if let Some((_, dst)) = op.dst_mut() {
            *dst = c;
        }
        if taint || is_carried(r) {
            tainted.insert((r.0, c));
            tail.push(op);
        } else {
            leaf.code.push(op);
        }
    }
    leaf.prefix = leaf.code.len();
    leaf.code.extend(tail);
    for (r, _, exit) in &mut leaf.carried {
        *exit = at[r];
    }
    leaf.outs = outs.iter().map(|l| column(&mut leaf, l.reg(), &mut at)).collect();
    if let ([Instr::Op { op, dst, a, b }], [(acc, entry, exit)]) =
        (&leaf.code[leaf.prefix..], &leaf.carried[..])
    {
        let same_bank = op.banks() == (acc.0, acc.0);
        if same_bank && !op.is_cmp() && dst == exit && (a == entry) != (b == entry) {
            leaf.fold = Some((*op, if a == entry { *b } else { *a }, a == entry));
        }
    }
    Ok(leaf)
}

#[derive(Default)]
struct Compiler {
    env: HashMap<VName, Loc>,
    n_int: u32,
    n_flt: u32,
    n_arr: u32,
    funcs: Vec<Vec<Instr>>,
    segs: Vec<CompiledSeg>,
    soacs: Vec<CompiledSoac>,
}

impl Compiler {
    fn new_func(&mut self) -> FuncId {
        self.funcs.push(Vec::new());
        (self.funcs.len() - 1) as FuncId
    }

    fn emit(&mut self, f: FuncId, ins: Instr) {
        self.funcs[f as usize].push(ins);
    }

    // -- register allocation (never reused) ---------------------------

    fn int_loc(&mut self, st: ScalarType) -> Loc {
        let r = self.n_int;
        self.n_int += 1;
        Loc::Int { r, st }
    }

    fn flt_loc(&mut self, st: ScalarType) -> Loc {
        let r = self.n_flt;
        self.n_flt += 1;
        Loc::Flt { r, st }
    }

    fn arr_loc(&mut self) -> Loc {
        let r = self.n_arr;
        self.n_arr += 1;
        Loc::Arr { r }
    }

    fn loc_for_type(&mut self, ty: &Type) -> Loc {
        if ty.rank() > 0 {
            self.arr_loc()
        } else {
            match ty.scalar {
                ScalarType::F32 | ScalarType::F64 => self.flt_loc(ty.scalar),
                st => self.int_loc(st),
            }
        }
    }

    /// A fresh register in the same bank (and of the same encoded type)
    /// as `l` — scratch for two-phase parallel moves.
    fn scratch_like(&mut self, l: Loc) -> Loc {
        match l {
            Loc::Int { st, .. } => self.int_loc(st),
            Loc::Flt { st, .. } => self.flt_loc(st),
            Loc::Arr { .. } => self.arr_loc(),
        }
    }

    // -- operand resolution -------------------------------------------

    /// Materialize a constant into a fresh register.
    fn const_loc(&mut self, f: FuncId, c: Const) -> Loc {
        let l = self.loc_for_type(&Type::scalar(c.scalar_type()));
        let dst = l.reg().1;
        self.emit(f, match c {
            Const::I64(v) => Instr::IConst { dst, v },
            Const::I32(v) => Instr::IConst { dst, v: v as i64 },
            Const::Bool(b) => Instr::IConst { dst, v: b as i64 },
            Const::F64(v) => Instr::FConst { dst, v },
            Const::F32(v) => Instr::FConst { dst, v: v as f64 },
        });
        l
    }

    fn lookup(&self, v: VName) -> Result<Loc> {
        self.env.get(&v).copied().ok_or_else(|| ExecError(format!("variable {v} unbound")))
    }

    fn loc_of_subexp(&mut self, f: FuncId, se: &SubExp) -> Result<Loc> {
        match se {
            SubExp::Const(c) => Ok(self.const_loc(f, *c)),
            SubExp::Var(v) => self.lookup(*v),
        }
    }

    /// An `i64`-valued driver operand (width, bound, index, factor).
    fn op_of_subexp(&mut self, se: &SubExp) -> Result<Operand> {
        match se {
            SubExp::Const(c) => c
                .as_i64()
                .map(Operand::Const)
                .ok_or_else(|| ExecError("expected integral scalar".into())),
            SubExp::Var(v) => match self.lookup(*v)? {
                Loc::Int { r, st: ScalarType::I64 | ScalarType::I32 } => Ok(Operand::Reg(r)),
                Loc::Int { .. } | Loc::Flt { .. } => err("expected integral scalar"),
                Loc::Arr { .. } => err(format!("expected scalar, {v} is an array")),
            },
        }
    }

    fn arr_reg(&self, v: VName) -> Result<(u32, String)> {
        match self.lookup(v)? {
            Loc::Arr { r } => Ok((r, v.to_string())),
            _ => err(format!("expected array, {v} is a scalar")),
        }
    }

    // -- moves ---------------------------------------------------------

    fn mov(&mut self, f: FuncId, src: Loc, dst: Loc) -> Result<()> {
        match (src, dst) {
            (Loc::Int { r: s, .. }, Loc::Int { r: d, .. }) => {
                self.emit(f, Instr::Op { op: Opc::IMov, dst: d, a: s, b: s })
            }
            (Loc::Flt { r: s, .. }, Loc::Flt { r: d, .. }) => {
                self.emit(f, Instr::Op { op: Opc::FMov, dst: d, a: s, b: s })
            }
            (Loc::Arr { r: s }, Loc::Arr { r: d }) => {
                self.emit(f, Instr::AMov { dst: d, src: s })
            }
            _ => return err("value kind mismatch in binding"),
        }
        Ok(())
    }

    fn movs(&mut self, f: FuncId, srcs: &[Loc], dsts: &[Loc]) -> Result<()> {
        for (&s, &d) in srcs.iter().zip(dsts) {
            self.mov(f, s, d)?;
        }
        Ok(())
    }

    /// A parallel move through scratch registers: the sources may
    /// mention the destinations (loop carries, accumulator updates).
    fn movs_parallel(&mut self, f: FuncId, srcs: &[Loc], dsts: &[Loc]) -> Result<()> {
        let scratch: Vec<Loc> = srcs.iter().map(|&s| self.scratch_like(s)).collect();
        self.movs(f, srcs, &scratch)?;
        self.movs(f, &scratch, dsts)
    }

    // -- bodies and statements ----------------------------------------

    fn compile_body(&mut self, f: FuncId, body: &Body) -> Result<Vec<Loc>> {
        for stm in &body.stms {
            self.compile_stm(f, stm)?;
        }
        body.result.iter().map(|r| self.loc_of_subexp(f, r)).collect()
    }

    fn bind_pat(&mut self, pat: &[Param]) -> Vec<Loc> {
        let locs: Vec<Loc> = pat.iter().map(|p| self.loc_for_type(&p.ty)).collect();
        for (p, &l) in pat.iter().zip(&locs) {
            self.env.insert(p.name, l);
        }
        locs
    }

    fn arity(&self, produced: usize, pat: &[Param]) -> Result<()> {
        if produced != pat.len() {
            return err(format!(
                "statement produced {produced} values for {} bindings",
                pat.len()
            ));
        }
        Ok(())
    }

    /// Lambda parameters: allocate and bind, returning the locations.
    fn lam_params(&mut self, params: &[Param]) -> Vec<Loc> {
        params
            .iter()
            .map(|p| {
                let l = self.loc_for_type(&p.ty);
                self.env.insert(p.name, l);
                l
            })
            .collect()
    }

    fn compile_stm(&mut self, f: FuncId, stm: &Stm) -> Result<()> {
        match &stm.exp {
            Exp::Seg(op) => return self.compile_seg(f, op, stm),
            Exp::Soac(so) => return self.compile_soac(f, so, &stm.pat),
            Exp::If { cond, tb, fb, .. } => {
                let cl = self.loc_of_subexp(f, cond)?;
                let Loc::Int { r: cr, st: ScalarType::Bool } = cl else {
                    return err("if condition is not bool");
                };
                let dsts = self.bind_pat(&stm.pat);
                let tf = self.new_func();
                let tres = self.compile_body(tf, tb)?;
                self.arity(tres.len(), &stm.pat)?;
                self.movs(tf, &tres, &dsts)?;
                let ff = self.new_func();
                let fres = self.compile_body(ff, fb)?;
                self.arity(fres.len(), &stm.pat)?;
                self.movs(ff, &fres, &dsts)?;
                self.emit(f, Instr::If { cond: cr, tf, ff });
                return Ok(());
            }
            Exp::Loop { params, ivar, bound, body } => {
                let bound = self.op_of_subexp(bound)?;
                let inits: Vec<Loc> = params
                    .iter()
                    .map(|(_, init)| self.loc_of_subexp(f, init))
                    .collect::<Result<_>>()?;
                let plocs = self.lam_params(
                    &params.iter().map(|(p, _)| p.clone()).collect::<Vec<_>>(),
                );
                self.movs(f, &inits, &plocs)?;
                let iv = self.int_loc(ScalarType::I64);
                let Loc::Int { r: ivr, .. } = iv else { unreachable!() };
                self.env.insert(*ivar, iv);
                let bf = self.new_func();
                let res = self.compile_body(bf, body)?;
                if res.len() != params.len() {
                    return err("loop body arity mismatch");
                }
                self.movs_parallel(bf, &res, &plocs)?;
                self.emit(f, Instr::Loop { ivar: ivr, bound, body: bf });
                self.arity(params.len(), &stm.pat)?;
                let dsts = self.bind_pat(&stm.pat);
                self.movs(f, &plocs, &dsts)?;
                return Ok(());
            }
            _ => {}
        }
        // Single-value expressions.
        self.arity(1, &stm.pat)?;
        let dst = self.loc_for_type(&stm.pat[0].ty);
        match &stm.exp {
            Exp::SubExp(se) => {
                let src = self.loc_of_subexp(f, se)?;
                self.mov(f, src, dst)?;
            }
            Exp::UnOp(op, a) => {
                let al = self.loc_of_subexp(f, a)?;
                self.compile_unop(f, *op, al, dst)?;
            }
            Exp::BinOp(op, a, b) => {
                let al = self.loc_of_subexp(f, a)?;
                let bl = self.loc_of_subexp(f, b)?;
                self.compile_binop(f, *op, al, bl, dst)?;
            }
            Exp::CmpThreshold { factors, threshold } => {
                let fs: Vec<Operand> =
                    factors.iter().map(|x| self.op_of_subexp(x)).collect::<Result<_>>()?;
                let Loc::Int { r, .. } = dst else {
                    return err("threshold comparison into non-bool binding");
                };
                self.emit(
                    f,
                    Instr::CmpThr { id: *threshold, factors: fs.into_boxed_slice(), dst: r },
                );
            }
            Exp::Index { arr, idxs } => {
                let (ar, _) = self.arr_reg(*arr)?;
                let is: Vec<Operand> =
                    idxs.iter().map(|i| self.op_of_subexp(i)).collect::<Result<_>>()?;
                self.emit(f, Instr::Index { arr: ar, idxs: is.into_boxed_slice(), dst });
            }
            Exp::Iota { n } => {
                let n = self.op_of_subexp(n)?;
                let Loc::Arr { r } = dst else { return err("iota into scalar binding") };
                self.emit(f, Instr::Iota { n, dst: r });
            }
            Exp::Replicate { n, elem } => {
                let n = self.op_of_subexp(n)?;
                let el = self.loc_of_subexp(f, elem)?;
                let Loc::Arr { r } = dst else { return err("replicate into scalar binding") };
                match el {
                    Loc::Arr { r: er } => self.emit(f, Instr::RepArr { n, elem: er, dst: r }),
                    _ => self.emit(f, Instr::RepScalar { n, elem: el, dst: r }),
                }
            }
            Exp::Rearrange { perm, arr } => {
                let (ar, _) = self.arr_reg(*arr)?;
                let Loc::Arr { r } = dst else { return err("rearrange into scalar binding") };
                self.emit(
                    f,
                    Instr::Rearrange { perm: perm.clone().into_boxed_slice(), arr: ar, dst: r },
                );
            }
            Exp::ArrayLit { elems, elem_ty } => {
                let els: Vec<Loc> =
                    elems.iter().map(|e| self.loc_of_subexp(f, e)).collect::<Result<_>>()?;
                let Loc::Arr { r } = dst else { return err("array literal into scalar binding") };
                self.emit(
                    f,
                    Instr::ArrayLit {
                        elems: els.into_boxed_slice(),
                        st: elem_ty.scalar,
                        dst: r,
                    },
                );
            }
            Exp::If { .. } | Exp::Loop { .. } | Exp::Soac(_) | Exp::Seg(_) => unreachable!(),
        }
        self.env.insert(stm.pat[0].name, dst);
        Ok(())
    }

    // -- scalar operator selection ------------------------------------

    /// A monomorphic opcode when the table has one for this operator at
    /// this type, else the generic fallback `gen`.
    fn scalar_op(&mut self, f: FuncId, opc: Option<Opc>, a: Loc, b: Loc, dst: Loc, gen: Instr) {
        match opc {
            Some(op) if op.banks().0 == dst.reg().0 => {
                self.emit(f, Instr::Op { op, dst: dst.reg().1, a: a.reg().1, b: b.reg().1 })
            }
            _ => self.emit(f, gen),
        }
    }

    fn compile_unop(&mut self, f: FuncId, op: UnOp, a: Loc, dst: Loc) -> Result<()> {
        let Some(st) = a.scalar_type() else { return err("unop on an array") };
        self.scalar_op(f, Opc::of_unop(op, st), a, a, dst, Instr::UnGen { op, a, dst });
        Ok(())
    }

    fn compile_binop(&mut self, f: FuncId, op: BinOp, a: Loc, b: Loc, dst: Loc) -> Result<()> {
        let opc = match (a.scalar_type(), b.scalar_type()) {
            (None, _) | (_, None) => return err("binop on an array"),
            (Some(sa), Some(sb)) if sa == sb => Opc::of_binop(op, sa),
            _ => None,
        };
        self.scalar_op(f, opc, a, b, dst, Instr::BinGen { op, a, b, dst });
        Ok(())
    }

    // -- SOACs ---------------------------------------------------------

    fn compile_soac(&mut self, f: FuncId, so: &Soac, pat: &[Param]) -> Result<()> {
        // Every SOAC is an optional map part feeding an optional operator.
        type Lam<'a> = Option<&'a Lambda>;
        let (kind, w, arrs, nes, map, red): (_, _, &[VName], &[SubExp], Lam, Lam) = match so {
            Soac::Map { w, lam, arrs } => (SoacKind::Map, w, arrs, &[], Some(lam), None),
            Soac::Reduce { w, lam, nes, arrs } => (SoacKind::Reduce, w, arrs, nes, None, Some(lam)),
            Soac::Scan { w, lam, nes, arrs } => (SoacKind::Scan, w, arrs, nes, None, Some(lam)),
            Soac::Redomap { w, red, map, nes, arrs } => {
                (SoacKind::Redomap, w, arrs, nes, Some(map), Some(red))
            }
            Soac::Scanomap { w, scan, map, nes, arrs } => {
                (SoacKind::Scanomap, w, arrs, nes, Some(map), Some(scan))
            }
        };
        let w = self.op_of_subexp(w)?;
        let mut arr_names = Vec::with_capacity(arrs.len());
        let mut arr_regs = Vec::with_capacity(arrs.len());
        for a in arrs {
            let (r, n) = self.arr_reg(*a)?;
            arr_regs.push(r);
            arr_names.push(n);
        }
        // Registers in parameter order: the map's elements, then the
        // operator's accumulators and right-hand sides (which are the
        // elements when there is no map part).
        let k = nes.len();
        let map_elems = map.map(|m| self.lam_params(&m.params));
        let (accs, rhs) = match red {
            Some(red) if red.params.len() < k => {
                return err(format!("lambda arity {} vs {} arguments", red.params.len(), k))
            }
            Some(red) => (self.lam_params(&red.params[..k]), self.lam_params(&red.params[k..])),
            None => (vec![], vec![]),
        };
        let nes: Vec<Loc> =
            nes.iter().map(|ne| self.loc_of_subexp(f, ne)).collect::<Result<_>>()?;
        let step = self.new_func();
        let mut outs = match map {
            Some(map) => self.compile_body(step, &map.body)?,
            None => vec![],
        };
        if let Some(red) = red {
            if map.is_some() {
                lam_arity(red, k, outs.len(), rhs.len())?;
                self.movs(step, &outs, &rhs)?;
            }
            let res = self.compile_body(step, &red.body)?;
            lam_arity(red, k, res.len(), k)?;
            self.movs_parallel(step, &res, &accs)?;
            outs = accs.clone();
        }
        let elems = map_elems.unwrap_or(rhs);
        self.arity(outs.len(), pat)?;
        if arr_regs.len() != elems.len() {
            return err(format!("lambda arity {} vs {} arguments", elems.len(), arr_regs.len()));
        }
        let ret = red.or(map).map_or(vec![], |lam| lam.ret.clone());
        let dsts = self.bind_pat(pat);
        let id = self.soacs.len() as u32;
        self.soacs.push(CompiledSoac {
            kind,
            w,
            arrs: arr_regs,
            arr_names,
            elems,
            nes,
            accs,
            step,
            outs,
            ret,
            dsts,
        });
        self.emit(f, Instr::Soac(id));
        Ok(())
    }

    // -- segmented operators ------------------------------------------

    fn compile_seg(&mut self, f: FuncId, op: &SegOp, stm: &Stm) -> Result<()> {
        if op.ctx.is_empty() {
            return err("segop with empty context");
        }
        let widths: Vec<Operand> =
            op.ctx.iter().map(|d| self.op_of_subexp(&d.width)).collect::<Result<_>>()?;
        let mut ctx = Vec::with_capacity(op.ctx.len());
        for (dim, w) in op.ctx.iter().zip(widths) {
            let mut binds = Vec::with_capacity(dim.binds.len());
            for (p, arr) in &dim.binds {
                let (areg, name) = self.arr_reg(*arr)?;
                let dst = self.loc_for_type(&p.ty);
                self.env.insert(p.name, dst);
                binds.push(CBind { arr: areg, name, dst });
            }
            ctx.push(CDim { width: w, binds });
        }
        let kind = match &op.kind {
            SegKind::Map => {
                let body = self.new_func();
                let outs = self.compile_body(body, &op.body)?;
                CSegKind::Map { body, outs }
            }
            SegKind::Red { op: lam, nes } | SegKind::Scan { op: lam, nes } => {
                let k = nes.len();
                if lam.params.len() < k {
                    return err(format!("lambda arity {} vs {} arguments", lam.params.len(), k));
                }
                let accs = self.lam_params(&lam.params[..k]);
                let rhs = self.lam_params(&lam.params[k..]);
                let nes: Vec<Loc> =
                    nes.iter().map(|ne| self.loc_of_subexp(f, ne)).collect::<Result<_>>()?;
                // Fold: body, then the operator applied to accs ++ body
                // results, leaving the new accumulators in `accs`.
                let fold = self.new_func();
                let bres = self.compile_body(fold, &op.body)?;
                lam_arity(lam, k, bres.len(), rhs.len())?;
                self.movs(fold, &bres, &rhs)?;
                let lres = self.compile_body(fold, &lam.body)?;
                lam_arity(lam, k, lres.len(), accs.len())?;
                self.movs_parallel(fold, &lres, &accs)?;
                // Combine: the operator alone on accs ++ rhs (a second,
                // independent compilation of the lambda body).
                let combine = self.new_func();
                let cres = self.compile_body(combine, &lam.body)?;
                lam_arity(lam, k, cres.len(), accs.len())?;
                self.movs_parallel(combine, &cres, &accs)?;
                let operator = COperator { fold, combine, nes, accs, rhs };
                if matches!(op.kind, SegKind::Red { .. }) {
                    CSegKind::Red(operator)
                } else {
                    CSegKind::Scan(operator)
                }
            }
        };
        self.arity(kind.outs().len(), &stm.pat)?;
        let dsts = self.bind_pat(&stm.pat);
        let name = stm
            .pat
            .first()
            .map(|p| p.name.to_string())
            .unwrap_or_else(|| kind.name().to_string());
        let id = self.segs.len() as u32;
        self.segs.push(CompiledSeg {
            kind,
            level: op.level,
            ctx,
            body_ret: op.body_ret.clone(),
            dsts,
            name,
            prov: stm.prov,
        });
        self.emit(f, Instr::Seg(id));
        Ok(())
    }
}
