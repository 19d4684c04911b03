//! # incflat
//!
//! Moderate and incremental flattening for regular nested data
//! parallelism — the core compilation passes of *Incremental Flattening
//! for Nested Data Parallelism* (PPoPP '19).
//!
//! The entry points are [`flatten()`] with a [`FlattenConfig`], or the
//! convenience wrappers [`flatten_moderate`] (the PLDI '17 baseline) and
//! [`flatten_incremental`] (the paper's contribution). The result bundles
//! the multi-versioned target program with its [`ThresholdRegistry`] —
//! the branching-tree structure that the autotuner consumes. From
//! source text, [`driver::compile`] runs the whole pipeline, fusion
//! included.
//!
//! ```
//! use incflat::{flatten_incremental, flatten_moderate};
//!
//! let src = "
//! def matmul [n][m][p] (xss: [n][m]f32) (yss: [m][p]f32): [n][p]f32 =
//!   map (\\xs -> map (\\ys -> redomap (+) (*) 0f32 xs ys) (transpose yss)) xss
//! ";
//! let prog = flat_lang::compile(src, "matmul").unwrap();
//! let mf = flatten_moderate(&prog).unwrap();
//! let incr = flatten_incremental(&prog).unwrap();
//! assert_eq!(mf.thresholds.len(), 0);
//! assert!(incr.thresholds.len() >= 2); // multiple guarded versions
//! ```

pub mod ctx;
pub mod driver;
pub mod flatten;
pub mod rules;
pub mod simplify;
pub mod thresholds;

pub use flatten::{
    flatten, flatten_incremental, flatten_moderate, CodeStats, FlattenConfig, FlattenError,
    FlattenMode, Flattened,
};
pub use rules::{Rule, RuleFiring, RuleTrace};
pub use simplify::simplify_program;
pub use thresholds::{read_tuning, write_tuning, ThresholdInfo, ThresholdKind, ThresholdRegistry};
