//! # flat-bench
//!
//! The evaluation harness: one binary per figure/table of the paper
//! (`fig2_matmul`, `fig5_tree`, `fig7_locvolcalib`, `fig8_bulk`,
//! `table1_datasets`, `code_size`, `ablation_fullflat`, `tuner_stats`),
//! plus the simulator baseline gate behind `flatc bench` ([`baseline`]).
//! Host wall-clock timing lives in the `flat-ledger` benchmark.
//!
//! Each binary prints a human-readable table (with ASCII bars where the
//! paper has bar charts) and writes the raw measurements as JSON under
//! `results/`, mirroring the paper artifact's "raw measurement data in a
//! simple JSON format".

pub mod baseline;
pub mod report;

pub use baseline::{compare, measure_suite, render_comparison, Baseline, BaselineEntry, Comparison};
pub use report::{ascii_bar, write_json, Row};
