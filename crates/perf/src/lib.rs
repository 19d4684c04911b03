//! # flat-perf
//!
//! The performance observatory: longitudinal observability for the
//! incremental-flattening toolchain, surfaced as the `flatc perf`
//! subcommand family.
//!
//! Three pieces:
//!
//! * [`archive`] — a persistent, append-only JSONL **run archive**
//!   (`results/perf/archive.jsonl` by default). Every `flatc bench`,
//!   `exec`, `tune`, or `simulate` invocation can append a
//!   self-describing record: content hash of the program, backend and
//!   its knobs, tuning-file hash, git revision and toolchain version,
//!   the run's total cost, and a per-launch kernel log keyed by
//!   provenance identity. Costs round-trip bitwise (IEEE-754 bits are
//!   stored alongside the readable numbers).
//!
//! * [`diff`] — **attribution diffing** between two archived runs.
//!   Kernel logs are aligned by [`gpu_sim::AttrKey`] (provenance frame
//!   stack, kernel name/kind, threshold-path signature), not position,
//!   so runs of different builds or different threshold settings
//!   compare meaningfully. The diff is *reconciled*: every launch of
//!   both sides lands in exactly one row and the rows replay to each
//!   side's total bitwise — no cost is lost in the alignment. Also
//!   renders two-column folded stacks for differential flamegraphs.
//!
//! * [`regret`] — the **threshold-regret what-if profiler**. Re-runs
//!   a program down every (capped) version path of its branching tree
//!   with thresholds forced, and reports per-decision regret: what the
//!   live run's choice cost against the best alternative flipping it,
//!   on this dataset's shape class. The sweep doubles as warm-start
//!   fodder for the autotuner's sample loader.

pub mod archive;
pub mod diff;
pub mod regret;

pub use archive::{
    append_record, content_hash, fnv1a, from_exec, from_sim, from_tune, from_vm, git_rev,
    load_archive, render_log, resolve, stamp, version_string, ArchivedEntry, ArchivedKernel,
    RunRecord, ARCHIVE_SCHEMA, DEFAULT_ARCHIVE,
};
pub use diff::{diff_records, folded_diff, render_diff, AttrDiff, DiffRow};
pub use regret::{
    append_regret_samples, dataset_shape_class, profile_regret, regret_sample_lines,
    render_regret, tuning_runner, wall_clock, AlternativeRun, CostFn, DecisionRegret,
    RegretConfig, RegretReport,
};
