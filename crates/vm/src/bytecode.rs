//! The register bytecode: what [`crate::compile`] lowers `flat-ir` to
//! and what [`crate::run`] executes.
//!
//! A compiled program is a set of *functions* (flat `Vec<Instr>` with no
//! internal control flow — `if`/`loop` are structured instructions that
//! name other functions), a table of compiled segmented operators, and a
//! table of compiled SOACs. Every `flat-ir` name is resolved at compile
//! time to a dense index into one of three register banks:
//!
//! * `ints` (`Vec<i64>`) — `i64` raw, `i32` sign-extended, `bool` as 0/1;
//! * `flts` (`Vec<f64>`) — `f64` raw, `f32` widened on write and
//!   narrowed on read (a bitwise round-trip for every value the
//!   toolchain produces);
//! * `arrs` (`Vec<Option<Arc<ArrayVal>>>`) — whole arrays by reference.
//!
//! Registers are never reused: each binding, lambda parameter, and
//! temporary gets a fresh index. That makes a kernel task's private
//! frame a plain clone of the register files, and lets the sequential
//! combine passes of `segred`/`segscan` run directly on the host frame —
//! any register they clobber is dead afterwards.
//!
//! The interpreter loop is a `match` on [`Instr`] over the unboxed
//! banks. The common `i64`/`f64`/`f32` arithmetic and comparison
//! operators are monomorphic opcodes ([`Opc`], one table in `ops.rs`);
//! everything rarer ([`Instr::BinGen`]/[`Instr::UnGen`]) reconstructs
//! `Const`s and defers to the reference interpreter's scalar evaluators,
//! so scalar semantics (wrapping, NaN ordering, division errors) are the
//! interpreter's by construction. A step function made only of the
//! former also gets a [`Leaf`]: the form `run` executes a range of
//! elements at a time.

pub use crate::ops::Opc;
use flat_ir::ast::{BinOp, Level, ThresholdId, UnOp};
use flat_ir::prov::Prov;
use flat_ir::types::{ScalarType, Type};
use std::fmt;

/// Index of a function (a straight-line instruction sequence).
pub type FuncId = u32;

/// A typed register reference: which bank, which index, and the scalar
/// type the stored word encodes (for `Const` reconstruction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Loc {
    /// Integer bank: `i64` raw, `i32` sign-extended, `bool` as 0/1.
    Int { r: u32, st: ScalarType },
    /// Float bank: `f64` raw, `f32` widened.
    Flt { r: u32, st: ScalarType },
    /// Array bank.
    Arr { r: u32 },
}

/// A register as (bank letter, index): `'i'`, `'f'` or `'a'`.
pub type Reg = (char, u32);

impl Loc {
    pub fn reg(mut self) -> Reg {
        let (bank, r) = self.reg_mut();
        (bank, *r)
    }

    fn reg_mut(&mut self) -> (char, &mut u32) {
        match self {
            Loc::Int { r, .. } => ('i', r),
            Loc::Flt { r, .. } => ('f', r),
            Loc::Arr { r } => ('a', r),
        }
    }

    /// The scalar type a scalar register encodes (arrays have none).
    pub fn scalar_type(&self) -> Option<ScalarType> {
        match *self {
            Loc::Int { st, .. } | Loc::Flt { st, .. } => Some(st),
            Loc::Arr { .. } => None,
        }
    }
}

/// An `i64`-valued operand in a driver position (widths, loop bounds,
/// index expressions, threshold factors): either an immediate or an
/// integer register read raw.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    Const(i64),
    Reg(u32),
}

/// One bytecode instruction. Monomorphic opcodes carry bare register
/// indices into a known bank; the generic fallbacks carry full [`Loc`]s.
#[derive(Clone, Debug)]
#[repr(u8)]
pub enum Instr {
    // -- constants and moves ------------------------------------------
    IConst { dst: u32, v: i64 },
    FConst { dst: u32, v: f64 },
    AMov { dst: u32, src: u32 },
    // -- monomorphic scalar opcodes (the table in `ops.rs`); a unary
    //    opcode carries its operand in both `a` and `b` ------------------
    Op { op: Opc, dst: u32, a: u32, b: u32 },
    // -- generic scalar fallbacks (i32, bool logic, pow/div/rem, casts,
    //    transcendentals): reconstruct Consts, defer to the interpreter
    BinGen { op: BinOp, a: Loc, b: Loc, dst: Loc },
    UnGen { op: UnOp, a: Loc, dst: Loc },
    // -- incremental flattening's live dispatch ------------------------
    CmpThr { id: ThresholdId, factors: Box<[Operand]>, dst: u32 },
    // -- array constructors and views ---------------------------------
    Index { arr: u32, idxs: Box<[Operand]>, dst: Loc },
    Iota { n: Operand, dst: u32 },
    RepScalar { n: Operand, elem: Loc, dst: u32 },
    RepArr { n: Operand, elem: u32, dst: u32 },
    Rearrange { perm: Box<[usize]>, arr: u32, dst: u32 },
    ArrayLit { elems: Box<[Loc]>, st: ScalarType, dst: u32 },
    // -- structured control --------------------------------------------
    If { cond: u32, tf: FuncId, ff: FuncId },
    Loop { ivar: u32, bound: Operand, body: FuncId },
    // -- side-table dispatch -------------------------------------------
    Soac(u32),
    Seg(u32),
}

impl Instr {
    /// Every scalar register the instruction itself reads (side tables
    /// aside).
    pub(crate) fn reads(&self, f: &mut impl FnMut(Reg)) {
        let mut opnds = |os: &[Operand]| {
            for o in os {
                if let Operand::Reg(r) = o {
                    f(('i', *r));
                }
            }
        };
        match self {
            Instr::Op { op, a, b, .. } => {
                let bank = op.banks().1;
                f((bank, *a));
                if !op.is_unary() {
                    f((bank, *b));
                }
            }
            Instr::BinGen { a, b, .. } => {
                f(a.reg());
                f(b.reg());
            }
            Instr::UnGen { a, .. } => f(a.reg()),
            Instr::CmpThr { factors: os, .. } | Instr::Index { idxs: os, .. } => opnds(os),
            Instr::Iota { n, .. } | Instr::RepArr { n, .. } => opnds(&[*n]),
            Instr::Loop { bound, .. } => opnds(&[*bound]),
            Instr::RepScalar { n, elem, .. } => {
                opnds(&[*n]);
                f(elem.reg());
            }
            Instr::ArrayLit { elems, .. } => elems.iter().for_each(|l| f(l.reg())),
            Instr::If { cond, .. } => f(('i', *cond)),
            // Constants; arrays; side tables, which the caller walks.
            _ => {}
        }
    }

    /// The register a single-result instruction writes.
    pub(crate) fn dst_mut(&mut self) -> Option<(char, &mut u32)> {
        match self {
            Instr::IConst { dst, .. } | Instr::CmpThr { dst, .. } => Some(('i', dst)),
            Instr::FConst { dst, .. } => Some(('f', dst)),
            Instr::Op { op, dst, .. } => Some((op.banks().0, dst)),
            Instr::BinGen { dst, .. } | Instr::UnGen { dst, .. } | Instr::Index { dst, .. } => {
                Some(dst.reg_mut())
            }
            _ => None,
        }
    }
}

/// One bound context-dimension parameter of a compiled segop.
#[derive(Clone, Debug)]
pub struct CBind {
    /// Source array register.
    pub arr: u32,
    /// Source array's surface name (error messages only).
    pub name: String,
    /// Where the element (row or scalar) lands.
    pub dst: Loc,
}

/// One compiled context dimension.
#[derive(Clone, Debug)]
pub struct CDim {
    pub width: Operand,
    pub binds: Vec<CBind>,
}

/// The operator of a compiled `segred`/`segscan`. `fold` runs the segop
/// body for one inner element and folds the result into `accs` with the
/// operator; `combine` applies the operator to `accs ++ rhs`, leaving
/// the result in `accs`.
#[derive(Clone, Debug)]
pub struct COperator {
    pub fold: FuncId,
    pub combine: FuncId,
    pub nes: Vec<Loc>,
    pub accs: Vec<Loc>,
    pub rhs: Vec<Loc>,
}

/// The per-kind piece of a compiled segop.
#[derive(Clone, Debug)]
pub enum CSegKind {
    Map { body: FuncId, outs: Vec<Loc> },
    Red(COperator),
    Scan(COperator),
}

impl CSegKind {
    pub fn name(&self) -> &'static str {
        match self {
            CSegKind::Map { .. } => "segmap",
            CSegKind::Red(_) => "segred",
            CSegKind::Scan(_) => "segscan",
        }
    }

    /// The locations holding one point's results after the body/fold ran.
    pub fn outs(&self) -> &[Loc] {
        match self {
            CSegKind::Map { outs, .. } => outs,
            CSegKind::Red(op) | CSegKind::Scan(op) => &op.accs,
        }
    }
}

/// A compiled segmented operator (the side table an [`Instr::Seg`]
/// indexes into).
#[derive(Clone, Debug)]
pub struct CompiledSeg {
    pub kind: CSegKind,
    pub level: Level,
    pub ctx: Vec<CDim>,
    /// Per-result element types, for empty iteration spaces.
    pub body_ret: Vec<Type>,
    /// Where the finished segop results land.
    pub dsts: Vec<Loc>,
    /// Launch name: the first value the segop binds.
    pub name: String,
    pub prov: Prov,
}

/// Which SOAC a [`CompiledSoac`] drives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SoacKind {
    Map,
    Reduce,
    Scan,
    Redomap,
    Scanomap,
}

/// A compiled SOAC. SOACs execute sequentially exactly as in the
/// interpreter: `step` runs once per element with the element parameters
/// bound; for reductions and scans it also folds into `accs`.
#[derive(Clone, Debug)]
pub struct CompiledSoac {
    pub kind: SoacKind,
    pub w: Operand,
    /// Input array registers, plus surface names for error messages.
    pub arrs: Vec<u32>,
    pub arr_names: Vec<String>,
    /// Element parameter locations, one per input array.
    pub elems: Vec<Loc>,
    /// Neutral-element locations (empty for `map`).
    pub nes: Vec<Loc>,
    /// Accumulator locations (empty for `map`).
    pub accs: Vec<Loc>,
    pub step: FuncId,
    /// Per-element result locations (`accs` for reductions/scans).
    pub outs: Vec<Loc>,
    /// Per-element result types, for width-0 inputs.
    pub ret: Vec<Type>,
    pub dsts: Vec<Loc>,
}

/// A step function the VM runs a range at a time: straight-line, only
/// infallible monomorphic scalar opcodes, only rank-1 inputs. `code` is
/// the function (constants and [`Instr::Op`]s) over per-bank scratch
/// columns instead of registers, each assigned once, with the
/// instructions that do not depend on a carried register first.
#[derive(Clone, Debug, Default)]
pub struct Leaf {
    pub code: Vec<Instr>,
    /// `code[..prefix]` runs a strip of lanes per instruction; the
    /// carried rest runs lane by lane.
    pub prefix: usize,
    /// Columns per bank (int, float).
    pub n_cols: [u32; 2],
    /// The column each bound input is loaded into, in bind order.
    pub bound: Vec<u32>,
    /// Frame registers broadcast into columns before the first strip:
    /// host values read here, and the carried registers on entry.
    pub uniforms: Vec<(Reg, u32)>,
    /// Per carried register: the column a lane reads the previous lane's
    /// value from and the one it leaves its own in.
    pub carried: Vec<(Reg, u32, u32)>,
    /// The column of each per-element result.
    pub outs: Vec<u32>,
    /// When the carried part is one `acc <- op(acc, x)` or `op(x, acc)`:
    /// the opcode, `x`'s column, whether `acc` is the left operand.
    pub fold: Option<(Opc, u32, bool)>,
}

/// A whole lowered program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    pub name: String,
    /// Parameter locations, types, and surface names, in order.
    pub params: Vec<(Loc, Type, String)>,
    /// Locations of the program results.
    pub results: Vec<Loc>,
    /// The entry function.
    pub main: FuncId,
    pub funcs: Vec<Vec<Instr>>,
    /// Per function: `None` unless a per-element loop steps it, then the
    /// leaf it runs as or the first instruction that disqualifies it.
    pub steps: Vec<Option<Result<Leaf, String>>>,
    pub segs: Vec<CompiledSeg>,
    pub soacs: Vec<CompiledSoac>,
    /// Bank sizes.
    pub n_int: u32,
    pub n_flt: u32,
    pub n_arr: u32,
}

// ---------------------------------------------------------------------
// Disassembly. Prints register indices and structure only — never
// surface names, whose numbering is process-global and would make
// goldens unstable.
// ---------------------------------------------------------------------

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Loc::Int { r, st } => write!(f, "i{r}:{st}"),
            Loc::Flt { r, st } => write!(f, "f{r}:{st}"),
            Loc::Arr { r } => write!(f, "a{r}"),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Operand::Const(v) => write!(f, "#{v}"),
            Operand::Reg(r) => write!(f, "i{r}"),
        }
    }
}

fn locs(ls: &[Loc]) -> String {
    let s: Vec<String> = ls.iter().map(|l| l.to_string()).collect();
    format!("[{}]", s.join(", "))
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        match self {
            IConst { dst, v } => write!(f, "{:<12} i{dst} <- {v}", "iconst"),
            FConst { dst, v } => write!(f, "{:<12} f{dst} <- {v:?}", "fconst"),
            AMov { dst, src } => write!(f, "{:<12} a{dst} <- a{src}", "mov"),
            Op { op, dst, a, b } => {
                let (d, s) = op.banks();
                let b = if op.is_unary() { String::new() } else { format!(", {s}{b}") };
                write!(f, "{:<12} {d}{dst} <- {s}{a}{b}", op.mnemonic())
            }
            BinGen { op, a, b, dst } => write!(f, "{:<12} {dst} <- {a}, {b}", format!("bin.{op:?}").to_lowercase()),
            UnGen { op, a, dst } => write!(f, "{:<12} {dst} <- {a}", format!("un.{op:?}").to_lowercase()),
            CmpThr { id, factors, dst } => {
                let fs: Vec<String> = factors.iter().map(|o| o.to_string()).collect();
                write!(f, "{:<12} i{dst} <- t{} [{}]", "cmpthr", id.0, fs.join(", "))
            }
            Index { arr, idxs, dst } => {
                let is: Vec<String> = idxs.iter().map(|o| o.to_string()).collect();
                write!(f, "{:<12} {dst} <- a{arr}[{}]", "index", is.join(", "))
            }
            Iota { n, dst } => write!(f, "{:<12} a{dst} <- {n}", "iota"),
            RepScalar { n, elem, dst } => write!(f, "{:<12} a{dst} <- {n} x {elem}", "replicate"),
            RepArr { n, elem, dst } => write!(f, "{:<12} a{dst} <- {n} x a{elem}", "replicate"),
            Rearrange { perm, arr, dst } => write!(f, "{:<12} a{dst} <- a{arr} {perm:?}", "rearrange"),
            ArrayLit { elems, st, dst } => write!(f, "{:<12} a{dst} <- {st} {}", "arraylit", locs(elems)),
            If { cond, tf, ff } => write!(f, "{:<12} i{cond} ? fn{tf} : fn{ff}", "if"),
            Loop { ivar, bound, body } => write!(f, "{:<12} i{ivar} < {bound} : fn{body}", "loop"),
            Soac(id) => write!(f, "{:<12} s{id}", "soac"),
            Seg(id) => write!(f, "{:<12} g{id}", "seg"),
        }
    }
}

impl fmt::Display for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "vm program: funcs={} segs={} soacs={} regs int={} flt={} arr={}",
            self.funcs.len(),
            self.segs.len(),
            self.soacs.len(),
            self.n_int,
            self.n_flt,
            self.n_arr
        )?;
        writeln!(f, "params: {}", {
            // Rank, not the full type: dimension sub-expressions embed
            // surface names, which would destabilize goldens.
            let s: Vec<String> =
                self.params.iter().map(|(l, t, _)| format!("{l}^{}", t.rank())).collect();
            s.join(", ")
        })?;
        writeln!(f, "results: {}", locs(&self.results))?;
        for (i, body) in self.funcs.iter().enumerate() {
            let main = if i as FuncId == self.main { " (entry)" } else { "" };
            let class = match &self.steps[i] {
                None => main.to_string(),
                Some(Ok(l)) => {
                    format!(" leaf prefix={} carried={}", l.prefix, l.code.len() - l.prefix)
                }
                Some(Err(why)) => format!(" not leaf ({why})"),
            };
            writeln!(f, "fn{i}:{class}")?;
            for ins in body {
                writeln!(f, "  {ins}")?;
            }
        }
        for (i, sg) in self.segs.iter().enumerate() {
            writeln!(f, "g{i}: {} level={}", sg.kind.name(), sg.level)?;
            for (k, dim) in sg.ctx.iter().enumerate() {
                let bs: Vec<String> =
                    dim.binds.iter().map(|b| format!("{} <- a{}[.]", b.dst, b.arr)).collect();
                writeln!(f, "  dim {k}: width={} binds=[{}]", dim.width, bs.join(", "))?;
            }
            match &sg.kind {
                CSegKind::Map { body, outs } => {
                    writeln!(f, "  body=fn{body} outs={}", locs(outs))?;
                }
                CSegKind::Red(COperator { fold, combine, nes, accs, rhs })
                | CSegKind::Scan(COperator { fold, combine, nes, accs, rhs }) => {
                    writeln!(
                        f,
                        "  fold=fn{fold} combine=fn{combine} nes={} accs={} rhs={}",
                        locs(nes),
                        locs(accs),
                        locs(rhs)
                    )?;
                }
            }
            writeln!(f, "  dsts={}", locs(&sg.dsts))?;
        }
        for (i, so) in self.soacs.iter().enumerate() {
            writeln!(
                f,
                "s{i}: {:?} w={} arrs=[{}] elems={} nes={} accs={} step=fn{} outs={} dsts={}",
                so.kind,
                so.w,
                so.arrs.iter().map(|r| format!("a{r}")).collect::<Vec<_>>().join(", "),
                locs(&so.elems),
                locs(&so.nes),
                locs(&so.accs),
                so.step,
                locs(&so.outs),
                locs(&so.dsts)
            )?;
        }
        Ok(())
    }
}

/// Render the full disassembly of a compiled program.
pub fn disasm(p: &CompiledProgram) -> String {
    p.to_string()
}
