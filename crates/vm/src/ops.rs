//! The monomorphic scalar opcodes: one table giving each opcode's
//! mnemonic, the source operator and type it lowers, and its semantics;
//! and the three evaluators that instantiate it — a register at a time
//! on a frame ([`OnRegs`]), a lane range of scratch columns at a time
//! ([`OnCols`]), and a carried fold down one column ([`Carry`]). Opcode
//! selection and the disassembler read the same table, so none of them
//! can drift.

use flat_ir::ast::{BinOp, UnOp};
use flat_ir::types::ScalarType;
use std::ops::Range;

/// Lanes per strip of a leaf loop (see `run::Vm::run_leaf`).
pub(crate) const STRIP: usize = 256;

/// Scratch columns of a leaf loop, per bank, `STRIP` lanes each, in the
/// banks' own widened representation.
#[derive(Default)]
pub(crate) struct Cols {
    pub(crate) ints: Vec<Vec<i64>>,
    pub(crate) flts: Vec<Vec<f64>>,
}

impl Cols {
    pub(crate) fn ensure(&mut self, [ni, nf]: [u32; 2]) {
        self.ints.resize_with(self.ints.len().max(ni as usize), || vec![0; STRIP]);
        self.flts.resize_with(self.flts.len().max(nf as usize), || vec![0.0; STRIP]);
    }
}

/// A scalar type an opcode computes at: which bank (and scratch column)
/// it lives in, widened to the bank's `Raw` element.
pub(crate) trait Word: Copy {
    type Raw: Copy + Default;
    /// The bank's letter in the disassembly.
    const BANK: char;
    fn load(raw: Self::Raw) -> Self;
    fn store(self) -> Self::Raw;
    fn bank<'a>(ints: &'a mut [i64], flts: &'a mut [f64]) -> &'a mut [Self::Raw];
    fn cols(c: &mut Cols) -> &mut Vec<Vec<Self::Raw>>;
}

macro_rules! word {
    (@pick ints $i:ident $f:ident) => {
        $i
    };
    (@pick flts $i:ident $f:ident) => {
        $f
    };
    ($t:ty, $raw:ty, $bank:literal, $field:ident, |$r:ident| $load:expr, |$v:ident| $st:expr) => {
        impl Word for $t {
            type Raw = $raw;
            const BANK: char = $bank;
            #[inline(always)]
            fn load($r: $raw) -> $t {
                $load
            }
            #[inline(always)]
            fn store(self) -> $raw {
                let $v = self;
                $st
            }
            #[allow(unused_variables)]
            fn bank<'a>(ints: &'a mut [i64], flts: &'a mut [f64]) -> &'a mut [$raw] {
                word!(@pick $field ints flts)
            }
            fn cols(c: &mut Cols) -> &mut Vec<Vec<$raw>> {
                &mut c.$field
            }
        }
    };
}
word!(i64, i64, 'i', ints, |r| r, |v| v);
word!(bool, i64, 'i', ints, |r| r != 0, |v| v as i64);
word!(f64, f64, 'f', flts, |r| r, |v| v);
word!(f32, f64, 'f', flts, |r| r as f32, |v| v as f64);

/// One way of running an opcode; [`Opc::apply`] hands it the opcode's
/// semantics as a monomorphic closure.
pub(crate) trait Kernel: Sized {
    type Out;
    /// Operands of type `A`, result of type `D` (unary opcodes ignore
    /// the second operand).
    fn map<A: Word, D: Word>(self, f: impl Fn(A, A) -> D) -> Self::Out;
    /// Same-typed operators. A kernel that feeds results back in as
    /// operands overrides this one.
    #[inline(always)]
    fn arith<T: Word>(self, f: impl Fn(T, T) -> T) -> Self::Out {
        self.map(f)
    }
}

macro_rules! opcodes {
    (arith { $($an:ident $am:literal $ao:ident($as:pat) |$aa:ident, $ab:ident: $at:ty| $ae:expr;)* }
     cmp { $($cn:ident $cm:literal $co:ident($cs:pat) |$ca:ident, $cb:ident: $ct:ty| $ce:expr;)* }
     unary { $($un:ident $um:literal $uo:ident($us:pat) |$ua:ident: $ut:ty| $ue:expr;)* }
     moves { $($mn:ident |$ma:ident: $mt:ty|;)* }) => {
        /// A monomorphic scalar opcode.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        #[repr(u8)]
        pub enum Opc { $($an,)* $($cn,)* $($un,)* $($mn,)* }

        impl Opc {
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $(Opc::$an => $am,)* $(Opc::$cn => $cm,)* $(Opc::$un => $um,)*
                    $(Opc::$mn => "mov",)*
                }
            }

            pub fn is_unary(self) -> bool {
                matches!(self, $(Opc::$un)|* $(| Opc::$mn)*)
            }

            pub(crate) fn is_cmp(self) -> bool {
                matches!(self, $(Opc::$cn)|*)
            }

            /// The opcode for `op` at operand type `st`, if there is one.
            pub(crate) fn of_binop(op: BinOp, st: ScalarType) -> Option<Opc> {
                use ScalarType::*;
                match (op, st) {
                    $((BinOp::$ao, $as) => Some(Opc::$an),)*
                    $((BinOp::$co, $cs) => Some(Opc::$cn),)*
                    _ => None,
                }
            }

            pub(crate) fn of_unop(op: UnOp, st: ScalarType) -> Option<Opc> {
                use ScalarType::*;
                match (op, st) {
                    $((UnOp::$uo, $us) => Some(Opc::$un),)*
                    _ => None,
                }
            }

            #[inline(always)]
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            pub(crate) fn apply<K: Kernel>(self, k: K) -> K::Out {
                match self {
                    $(Opc::$an => k.arith(|$aa: $at, $ab: $at| $ae),)*
                    $(Opc::$cn => k.map(|$ca: $ct, $cb: $ct| -> bool { $ce }),)*
                    $(Opc::$un => k.arith(|$ua: $ut, _: $ut| $ue),)*
                    $(Opc::$mn => k.arith(|$ma: $mt, _: $mt| $ma),)*
                }
            }
        }
    };
}

opcodes! {
    arith {
        AddI64 "add.i64" Add(I64) |a, b: i64| a.wrapping_add(b);
        SubI64 "sub.i64" Sub(I64) |a, b: i64| a.wrapping_sub(b);
        MulI64 "mul.i64" Mul(I64) |a, b: i64| a.wrapping_mul(b);
        MinI64 "min.i64" Min(I64) |a, b: i64| a.min(b);
        MaxI64 "max.i64" Max(I64) |a, b: i64| a.max(b);
        AddF64 "add.f64" Add(F64) |a, b: f64| a + b;
        SubF64 "sub.f64" Sub(F64) |a, b: f64| a - b;
        MulF64 "mul.f64" Mul(F64) |a, b: f64| a * b;
        DivF64 "div.f64" Div(F64) |a, b: f64| a / b;
        MinF64 "min.f64" Min(F64) |a, b: f64| a.min(b);
        MaxF64 "max.f64" Max(F64) |a, b: f64| a.max(b);
        // f32: narrow the operands, compute at f32 (the interpreter's
        // own operation, so NaN and ±0 behave identically), widen.
        AddF32 "add.f32" Add(F32) |a, b: f32| a + b;
        SubF32 "sub.f32" Sub(F32) |a, b: f32| a - b;
        MulF32 "mul.f32" Mul(F32) |a, b: f32| a * b;
        DivF32 "div.f32" Div(F32) |a, b: f32| a / b;
        MinF32 "min.f32" Min(F32) |a, b: f32| a.min(b);
        MaxF32 "max.f32" Max(F32) |a, b: f32| a.max(b);
    }
    cmp {
        EqI64 "eq.i64" Eq(I64) |a, b: i64| a == b;
        NeqI64 "neq.i64" Neq(I64) |a, b: i64| a != b;
        LtI64 "lt.i64" Lt(I64) |a, b: i64| a < b;
        LeI64 "le.i64" Le(I64) |a, b: i64| a <= b;
        // Widening is exact and order-preserving, so the f64
        // comparisons (and the sign flip below) serve f32 too.
        EqF64 "eq.f64" Eq(F32 | F64) |a, b: f64| a == b;
        NeqF64 "neq.f64" Neq(F32 | F64) |a, b: f64| a != b;
        LtF64 "lt.f64" Lt(F32 | F64) |a, b: f64| a < b;
        // Le(a, b) = !Lt(b, a), the interpreter's NaN rule —
        // deliberately NOT `a <= b`, which differs for NaN.
        LeF64 "le.f64" Le(F32 | F64) |a, b: f64| !(b < a);
    }
    unary {
        NegI64 "neg.i64" Neg(I64) |a: i64| a.wrapping_neg();
        NegF64 "neg.f64" Neg(F32 | F64) |a: f64| -a;
        Not "not" Not(Bool) |a: bool| !a;
    }
    moves {
        IMov |a: i64|;
        FMov |a: f64|;
    }
}

impl Opc {
    /// Bank letters of the result and of the operands.
    pub fn banks(self) -> (char, char) {
        struct Banks;
        impl Kernel for Banks {
            type Out = (char, char);
            fn map<A: Word, D: Word>(self, _: impl Fn(A, A) -> D) -> (char, char) {
                (D::BANK, A::BANK)
            }
        }
        self.apply(Banks)
    }
}

/// `dst <- op(a, b)` on a frame's register banks.
pub(crate) struct OnRegs<'a> {
    pub(crate) ints: &'a mut [i64],
    pub(crate) flts: &'a mut [f64],
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
}

impl Kernel for OnRegs<'_> {
    type Out = ();
    #[inline(always)]
    fn map<A: Word, D: Word>(self, f: impl Fn(A, A) -> D) {
        let src = A::bank(&mut *self.ints, &mut *self.flts);
        let r = f(A::load(src[self.a as usize]), A::load(src[self.b as usize]));
        D::bank(self.ints, self.flts)[self.dst as usize] = r.store();
    }
}

/// `dst[l] <- op(a[l], b[l])` for every lane `l` of a range of scratch
/// columns: the same scalar operation per lane as [`OnRegs`], in a loop
/// the compiler can vectorise. `dst` is a column of its own (columns
/// are assigned once, see `compile::classify`).
pub(crate) struct OnCols<'a> {
    pub(crate) cols: &'a mut Cols,
    pub(crate) dst: u32,
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) lanes: Range<usize>,
}

impl Kernel for OnCols<'_> {
    type Out = ();
    #[inline(always)]
    fn map<A: Word, D: Word>(self, f: impl Fn(A, A) -> D) {
        let mut out = std::mem::take(&mut D::cols(self.cols)[self.dst as usize]);
        let src = A::cols(self.cols);
        let xs = &src[self.a as usize][self.lanes.clone()];
        let ys = &src[self.b as usize][self.lanes.clone()];
        for ((o, &x), &y) in out[self.lanes].iter_mut().zip(xs).zip(ys) {
            *o = f(A::load(x), A::load(y)).store();
        }
        D::cols(self.cols)[self.dst as usize] = out;
    }
}

/// A carried fold down `n` lanes of column `x`, in lane order:
/// `acc <- op(acc, x[l])` (or `op(x[l], acc)`), each running value
/// stored to `out[l]` and the last left in the frame register `acc`.
pub(crate) struct Carry<'a> {
    pub(crate) cols: &'a mut Cols,
    pub(crate) ints: &'a mut [i64],
    pub(crate) flts: &'a mut [f64],
    pub(crate) acc: u32,
    pub(crate) acc_left: bool,
    pub(crate) x: u32,
    pub(crate) out: u32,
    pub(crate) n: usize,
}

impl Kernel for Carry<'_> {
    type Out = ();
    /// Comparisons cannot feed their result back in; `classify` never
    /// selects one as a fold.
    fn map<A: Word, D: Word>(self, _: impl Fn(A, A) -> D) {
        unreachable!("a comparison selected as a carried fold")
    }

    #[inline(always)]
    fn arith<T: Word>(self, f: impl Fn(T, T) -> T) {
        let carry = &mut T::bank(self.ints, self.flts)[self.acc as usize];
        let mut out = std::mem::take(&mut T::cols(self.cols)[self.out as usize]);
        let xs = &T::cols(self.cols)[self.x as usize][..self.n];
        let mut acc = T::load(*carry);
        for (o, &x) in out[..self.n].iter_mut().zip(xs) {
            let x = T::load(x);
            acc = if self.acc_left { f(acc, x) } else { f(x, acc) };
            *o = acc.store();
        }
        *carry = acc.store();
        T::cols(self.cols)[self.out as usize] = out;
    }
}
