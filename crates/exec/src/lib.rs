//! # flat-exec
//!
//! A real multithreaded CPU executor for flattened *target-language*
//! programs: where the reference interpreter defines the semantics and
//! the simulator estimates cycles, this crate actually runs the code on
//! host threads and measures wall-clock time.
//!
//! * Host code (loops, ifs, replicates, rearranges, sequential SOACs)
//!   evaluates exactly as in [`flat_ir::interp`], over the same
//!   [`flat_ir::value::Value`] representation.
//! * `segmap`/`segred`/`segscan` execute as data-parallel kernels on a
//!   vendored work-stealing pool (`workpool`) through the one kernel
//!   decomposition, [`decomp`]: the split into tasks, the pool dispatch,
//!   the three joins (concatenate, the operator, prefix-propagate), the
//!   launch records and the telemetry live there once, generic over a
//!   [`decomp::Tier`] that evaluates a range of points. This crate's
//!   tree-walker (`exec.rs`) and `flat-vm`'s bytecode loop are two such
//!   bodies. The decomposition depends only on the grain size — never on
//!   the thread count — so results are bit-identical under
//!   `FLAT_EXEC_THREADS=1`, `4`, or `8`, and across the two tiers.
//! * Threshold guards (`Par(...) >= t_i`) are evaluated *live* against
//!   the actual degree of parallelism, using a [`Thresholds`] assignment
//!   (e.g. loaded from a `.tuning` file); the taken path is recorded
//!   with the same [`flat_ir::interp::path_signature`] the simulator emits.
//! * [`measure_with`] provides median-of-k wall-clock timing of any
//!   run closure, which `autotune` uses as a measured cost function
//!   (`flatc tune --backend exec`).
//!
//! See `docs/EXECUTION.md` for the architecture and the determinism
//! guarantees.

mod data;
pub mod decomp;
mod exec;
mod measure;
pub mod obs;

pub use data::materialize;
pub use decomp::{ExecConfig, ExecError, ExecLaunch, ExecReport, DEFAULT_GRAIN};
pub use exec::run_program;
pub use measure::{measure, measure_with, Measurement};
pub use obs::{
    append_sample_log, render_exec_report, sample_log_lines, shape_class,
    telemetry_requested_by_env, worker_trace_events, KernelTelem,
};
pub use workpool::default_threads;

use gpu_sim::{CostReport, DeviceSpec, KernelCost, KernelLaunch, SimReport};

/// A synthetic [`DeviceSpec`] for rendering executor measurements with
/// the simulator's attribution and profile machinery. Its clock is
/// 1 GHz, so a "cycle" is one nanosecond and `cycles_to_us` divides by
/// 1000 — exactly the nanosecond-to-microsecond conversion.
pub fn host_device(threads: usize) -> DeviceSpec {
    DeviceSpec {
        name: "host",
        compute_units: threads.max(1) as u32,
        cores_per_unit: 1,
        max_group_size: 1,
        default_group_size: 1,
        local_mem_bytes: 0,
        max_resident_threads: 1,
        clock_ghz: 1.0,
        global_bytes_per_cycle: 1.0,
        local_bytes_per_cycle: 1.0,
        launch_overhead_cycles: 0.0,
        barrier_cost_cycles: 0.0,
    }
}

/// Convert an execution report's launches to the simulator's
/// [`KernelLaunch`] shape, with one "cycle" per nanosecond of measured
/// wall time, so `gpu_sim::build_attr`, `render_attr_table`,
/// `profile_table`, and `trace_events` render executor profiles
/// identically to simulator profiles (paired with [`host_device`]).
pub fn kernel_launches(rep: &ExecReport) -> Vec<KernelLaunch> {
    rep.launches
        .iter()
        .map(|l| KernelLaunch {
            name: l.name.clone(),
            kind: l.kind,
            level: l.level,
            groups: l.tasks as f64,
            group_threads: if l.tasks > 0 {
                l.space / l.tasks as f64
            } else {
                0.0
            },
            threads: l.space,
            occupancy: (l.tasks as f64 / rep.threads.max(1) as f64).min(1.0),
            cost: KernelCost {
                cycles: l.nanos,
                ..Default::default()
            },
            global_bytes: 0.0,
            local_bytes: 0.0,
            launches: 1,
            start_cycle: l.start_nanos,
            prov: l.prov,
            path: l.path.clone(),
        })
        .collect()
}

/// Synthesize a [`SimReport`] from an execution: total "cycles" are the
/// given cost in nanoseconds (a median over repetitions, typically),
/// the path is the live-dispatched threshold path, and the kernels are
/// the converted launch records. This is what lets the autotuner (and
/// its branching-tree cache, which only consumes `path` and
/// `total_cycles`) run unchanged against measured time.
pub fn sim_report_of(rep: &ExecReport, cost_nanos: f64) -> SimReport {
    SimReport {
        cost: CostReport {
            total_cycles: cost_nanos,
            kernel_launches: rep.launches.len() as u64,
            ..Default::default()
        },
        path: rep.path.clone(),
        microseconds: cost_nanos / 1_000.0,
        kernels: kernel_launches(rep),
    }
}

