//! The compile driver: parse → elaborate → fuse → flatten (uniquify) →
//! simplify → target typecheck, written once. Fusion runs before
//! flattening (§4), so G9 finds the `redomap`s and `scanomap`s it
//! versions. `flatc` and `flatd` compile through [`compile`];
//! `flat_verify::verify_pipeline` is [`frontend`] plus one [`flatten`]
//! per mode with the verifier as the observer, and the fuzz oracle runs
//! [`fuse`] and [`flatten`] on the program it elaborated itself.

use crate::flatten::{FlattenConfig, FlattenError, Flattened};
use crate::thresholds::ThresholdRegistry;
use flat_ir::ast::Program;
use flat_lang::LangError;

/// The IR after one pass, as handed to the observer.
pub struct Pass<'a> {
    /// `elaborate`, `fuse`, `flatten` (the flattener's output after
    /// uniquify) or `simplify`.
    pub name: &'static str,
    /// `moderate`, `full` or `incremental`, once flattened.
    pub mode: Option<&'static str>,
    pub prog: &'a Program,
    /// The thresholds the flattener minted, once flattened.
    pub thresholds: Option<&'a ThresholdRegistry>,
}

/// Called with the IR after each pass; it sees and never changes it.
pub type Observer<'o> = dyn FnMut(Pass<'_>) + 'o;

impl Pass<'_> {
    /// The label diagnostics are rendered under: `elaborate`, `fuse`,
    /// or the pass and its mode, e.g. `simplify-incremental`.
    pub fn stage(&self) -> String {
        match self.mode {
            Some(mode) => format!("{}-{mode}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// Why the driver stopped; callers map the kinds to exit codes 2, 3, 1.
#[derive(Debug)]
pub enum CompileError {
    /// The source text does not parse.
    Parse(LangError),
    /// The program parses but does not elaborate/typecheck.
    Type(LangError),
    /// Flattening failed structurally (e.g. unknown neutral element).
    Flatten(FlattenError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Type(e) => write!(f, "type error: {e}"),
            CompileError::Flatten(e) => write!(f, "flatten error: {e}"),
        }
    }
}

/// The whole pipeline: `entry` of `src`, flattened under `cfg`.
pub fn compile(
    src: &str,
    entry: &str,
    cfg: &FlattenConfig,
    observe: &mut Observer,
) -> Result<Flattened, CompileError> {
    let prog = frontend(src, entry, observe)?;
    flatten(&prog, cfg, observe).map_err(CompileError::Flatten)
}

/// Parse, elaborate and fuse: what every flattening mode starts from.
pub fn frontend(src: &str, entry: &str, observe: &mut Observer) -> Result<Program, CompileError> {
    Ok(fuse(elaborate(src, entry, observe)?, observe))
}

/// Parse `src` and elaborate `entry` into a type-checked program.
pub fn elaborate(src: &str, entry: &str, observe: &mut Observer) -> Result<Program, CompileError> {
    let sprog = flat_lang::parse_program(src).map_err(CompileError::Parse)?;
    let prog = flat_lang::compile_sprogram(&sprog, entry).map_err(CompileError::Type)?;
    observe(Pass { name: "elaborate", mode: None, prog: &prog, thresholds: None });
    Ok(prog)
}

/// Producer/consumer SOAC fusion ([`flat_ir::fusion`]).
pub fn fuse(mut prog: Program, observe: &mut Observer) -> Program {
    flat_ir::fusion::fuse_program(&mut prog);
    observe(Pass { name: "fuse", mode: None, prog: &prog, thresholds: None });
    prog
}

pub use crate::flatten::flatten_observed as flatten;
