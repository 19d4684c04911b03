//! # autotune
//!
//! Threshold autotuning for incrementally flattened programs (§4.2 of the
//! paper) — a self-contained replacement for the OpenTuner-based setup:
//!
//! * log-scaled integer threshold parameters,
//! * a pluggable cost function over per-dataset runtimes (default: sum),
//! * a stochastic search ensemble (random sampling + log-space mutation),
//! * **branching-tree memoization**: assignments inducing an
//!   already-measured path through the version tree are resolved from a
//!   cache instead of re-running the program,
//! * and an exhaustive tree-guided tuner (the improvement sketched at
//!   the end of §4.2) used as the oracle in the evaluation harness.

pub mod cache;
pub mod coverage;
pub mod events;
pub mod problem;
pub mod samples;
pub mod tuner;

pub use cache::{DatasetCache, Signature};
pub use samples::{
    join_samples, load_sample_log, load_sample_log_with_warnings, thresholds_for_signature,
    ExecSample, SampleJoin, SignatureStats, SAMPLE_SCHEMA,
};
pub use coverage::{dataset_coverage, path_coverage, render_coverage, CoverageReport, DatasetCoverage};
pub use events::{convergence_curve, render_signature, EvalEvent};
pub use problem::{CostFunction, Dataset, Runner, RunnerFn, TuningProblem, TuningResult};
pub use tuner::{exhaustive_tune, LogIntParam, StochasticTuner};
