//! # flat-verify — the inter-pass IR verifier
//!
//! Every compiler pass (elaboration → fusion → flattening →
//! simplification) must preserve a well-formed, regularly-nested IR,
//! but the lenient typechecker deliberately skips symbolic size
//! equality and says nothing about ANF discipline, name uniqueness, or
//! the threshold branching tree. This crate closes that gap with four
//! static analyses over pass *output*:
//!
//! 1. **Well-formedness** ([`wellformed`]): ANF invariants, globally
//!    unique binders, def-before-use, no dangling names (V001–V004).
//! 2. **Symbolic size analysis** ([`sizes`]): a normalizing polynomial
//!    solver over size expressions — strict-where-provable shape
//!    checks and non-negative parallel degrees (V101–V102).
//! 3. **Threshold-tree lint** ([`thresholds`]): duplicate names, paths
//!    inconsistent with the branching tree, statically decidable guards
//!    (V201–V203).
//! 4. **Write disjointness** ([`disjoint`]): segop results written at
//!    per-thread-distinct indices (V301).
//!
//! All diagnostics carry provenance (`ProvId`/`SrcLoc`), have stable
//! rule codes catalogued in `docs/ANALYSIS.md`, and render as human
//! text or JSON lines. The analyses only report *provable* violations,
//! so a healthy program produces zero diagnostics — the acceptance
//! invariant `flatc compile --verify` enforces over every example and
//! corpus program, and the contract that lets the fuzz oracle run the
//! verifier as a fifth leg over every generated program.

pub mod diag;
pub mod disjoint;
pub mod inject;
pub mod pipeline;
pub mod sizes;
pub mod thresholds;
pub mod wellformed;

pub use diag::{sort_diagnostics, Diagnostic, Severity, VRule, ALL_RULES};
pub use pipeline::{verify_compile, verify_pipeline, LintReport, PipelineError, StageReport};
pub use sizes::{Poly, SizeEnv, Tri};

use flat_ir::ast::Program;
use incflat::{Flattened, ThresholdRegistry};

/// Verify one program (any stage): well-formedness + size analysis
/// (which also covers segop write-disjointness and decidable guards).
pub fn verify_program(prog: &Program) -> Vec<Diagnostic> {
    verify_ir(prog, None)
}

/// Verify flattened output: the program itself plus the threshold
/// registry and the guards referencing it.
pub fn verify_flattened(fl: &Flattened) -> Vec<Diagnostic> {
    verify_ir(&fl.prog, Some(&fl.thresholds))
}

/// [`verify_program`], plus the threshold-tree lint when the program
/// has been flattened.
fn verify_ir(prog: &Program, reg: Option<&ThresholdRegistry>) -> Vec<Diagnostic> {
    let mut diags = wellformed::check(prog);
    diags.extend(sizes::analyze(prog));
    if let Some(reg) = reg {
        diags.extend(thresholds::check_flattened(prog, reg));
    }
    sort_diagnostics(&mut diags);
    diags
}

/// Only the error-severity diagnostics (warnings flag suspicious but
/// executable code; the fuzz oracle ignores them).
pub fn errors_only(diags: &[Diagnostic]) -> Vec<Diagnostic> {
    diags.iter().filter(|d| d.is_error()).cloned().collect()
}
