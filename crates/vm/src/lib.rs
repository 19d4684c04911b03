//! # flat-vm
//!
//! The compiled tier of the CPU backend: lowers a flattened
//! target-language [`Program`] to a flat register bytecode and runs it
//! on the same work-stealing pool as `flat-exec`.
//!
//! * **Lowering** ([`compile`]) resolves every name to a dense register
//!   index in one of three banks (`i64`, `f64`, array handles) at
//!   compile time; scalar arithmetic on `i64`/`f64` gets monomorphic
//!   opcodes so the inner loop is a `match` on a `#[repr(u8)]` opcode
//!   over unboxed register files, with no hashing, boxing, or dynamic
//!   type dispatch. `iota`/`replicate`/`rearrange`/indexing are index
//!   arithmetic over raw buffers.
//! * **Execution** ([`run_program`], [`run_compiled`]) is a second
//!   [`flat_exec::decomp::Tier`]: the kernel decomposition — grain-size
//!   chunking for `segmap`, block partials combined left-to-right for
//!   `segred`, the three-pass `segscan`, the pool dispatch, launch
//!   records and telemetry — is `flat_exec::decomp`'s, called with this
//!   crate's bytecode loops as the leaf work. Results are bitwise
//!   identical to `flat-exec` at every thread count and grain because
//!   both run that one module, and the tree-walking interpreter remains
//!   the semantic oracle for both.
//! * **Observability**: [`disasm`] renders the bytecode for golden
//!   tests; runs emit `vm.*` metrics parallel to `exec.*`.
//!
//! See `docs/EXECUTION.md` ("The compiled tier") for the design.

pub mod bytecode;
mod ops;
mod compile;
mod run;

pub use bytecode::{disasm, CompiledProgram, Instr, Leaf, Loc, Opc, Operand};
pub use compile::compile;
pub use run::{run_compiled, run_program};

use flat_exec::{ExecConfig, ExecError, ExecReport, Measurement};
use flat_ir::ast::Program;
use flat_ir::value::Value;

/// [`flat_exec::measure_with`] over the compiled tier, compiling the
/// program once, outside the timed region — the lowering cost is paid
/// per program, not per run.
pub fn measure(
    prog: &Program,
    args: &[Value],
    cfg: &ExecConfig,
    reps: usize,
    warmup: usize,
) -> Result<(ExecReport, Measurement), ExecError> {
    let _span = flat_obs::span("vm", "vm.measure");
    let compiled = compile(prog)?;
    flat_exec::measure_with(|| run_compiled(&compiled, args, cfg), reps, warmup)
}
