//! # gpu-sim
//!
//! A simulated two-level GPU (§4.1 of the paper): device models for the
//! evaluation platforms (NVIDIA K40-like and AMD Vega 64-like), an
//! analytic roofline cost model, and a shape-abstract simulator for
//! target programs. Substitutes for the physical GPUs of the paper's
//! evaluation; see DESIGN.md for the substitution argument.
//!
//! The simulator executes host code concretely (loop trip counts and
//! threshold predicates are computed from real sizes) and costs each
//! kernel launch analytically, so paper-scale datasets simulate in
//! microseconds of wall-clock time.

pub mod attr;
pub mod cost;
pub mod device;
pub mod launch;
pub mod sim;

pub use attr::{
    align_by_key, attr_key, attr_keys, build_attr, folded_stacks, render_attr_table, render_path,
    Alignment, AttrKey, AttrNode, AttrTree,
};
pub use cost::{CostReport, KernelCost, KernelWork};
pub use device::DeviceSpec;
pub use launch::{profile_table, trace_events, KernelLaunch};
pub use sim::{simulate, simulate_values, AbsValue, CmpRecord, MemSpace, SimError, SimReport};
