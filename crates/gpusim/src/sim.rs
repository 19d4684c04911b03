//! The shape-abstract simulator.
//!
//! Walks a *target* program's host code concretely (sizes, loop trip
//! counts and threshold comparisons are evaluated for real), and costs
//! every kernel launch analytically from the shapes involved. For the
//! regular programs this reproduction considers, per-element work is
//! uniform, so the analytic cost is exact with respect to the cost model
//! — no per-element interpretation is needed, which is what makes the
//! paper's dataset sizes (up to 2^25 elements) tractable.
//!
//! Memory-space rules (§4.1):
//! * Arrays bound by a level-1 context or free in a kernel live in
//!   global memory; reads and writes are charged to global traffic.
//! * Arrays defined inside a workgroup body (including level-0 segop
//!   results) live in local memory; if a group's local-memory demand
//!   exceeds the device capacity, the kernel falls back to global memory
//!   for those arrays (the "fallback kernel" of §4.1).
//! * Arrays defined inside a *sequential* thread body are too large for
//!   registers in general and are charged as global traffic — this is
//!   precisely why the hand-written FinPar-Out sequential tridag (fewer
//!   intermediate arrays) beats the compiler-generated version 1 (§5.2).
//! * `rearrange` at host level is an index transformation (free), as in
//!   Futhark.

use crate::cost::{CostReport, KernelCost, KernelWork};
use crate::device::DeviceSpec;
use crate::launch::KernelLaunch;
use flat_ir::ast::*;
use flat_ir::interp::Thresholds;
use flat_ir::prov::Prov;
use flat_ir::types::{Param, ScalarType, Type};
use flat_ir::value::Value;
use flat_ir::VName;
use std::collections::HashMap;
use std::fmt;

/// Where an array lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemSpace {
    Global,
    Local,
}

/// Abstract value: a scalar (tracked concretely when derivable from
/// sizes) or an array shape.
#[derive(Clone, Debug, PartialEq)]
pub enum AbsValue {
    Scalar(Option<Const>),
    Array { shape: Vec<i64>, elem: ScalarType, space: MemSpace },
}

impl AbsValue {
    pub fn known(c: Const) -> AbsValue {
        AbsValue::Scalar(Some(c))
    }

    pub fn unknown() -> AbsValue {
        AbsValue::Scalar(None)
    }

    pub fn array(shape: Vec<i64>, elem: ScalarType) -> AbsValue {
        AbsValue::Array { shape, elem, space: MemSpace::Global }
    }

    /// Derive the abstract form of a concrete value (for driving the
    /// simulator with the same arguments as the interpreter).
    pub fn of_value(v: &Value) -> AbsValue {
        match v {
            Value::Scalar(c) => AbsValue::known(*c),
            Value::Array(a) => AbsValue::Array {
                shape: a.shape.clone(),
                elem: a.data.scalar_type(),
                space: MemSpace::Global,
            },
        }
    }

    fn as_i64(&self) -> Option<i64> {
        match self {
            AbsValue::Scalar(Some(c)) => c.as_i64(),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            AbsValue::Scalar(Some(Const::Bool(b))) => Some(*b),
            _ => None,
        }
    }

    fn shape(&self) -> &[i64] {
        match self {
            AbsValue::Array { shape, .. } => shape,
            AbsValue::Scalar(_) => &[],
        }
    }

    fn elem_type(&self) -> ScalarType {
        match self {
            AbsValue::Array { elem, .. } => *elem,
            AbsValue::Scalar(Some(c)) => c.scalar_type(),
            AbsValue::Scalar(None) => ScalarType::F32,
        }
    }

    fn elems(&self) -> f64 {
        self.shape().iter().product::<i64>() as f64
    }

    fn space(&self) -> MemSpace {
        match self {
            AbsValue::Array { space, .. } => *space,
            AbsValue::Scalar(_) => MemSpace::Global,
        }
    }
}

/// The argument grammar of `flatc --arg` and of a served request's
/// `args`, defined once: `1024` → i64 scalar; `[16][256]f32` → array
/// shape (element type `f32` when omitted); `3.5` → f32 scalar.
impl std::str::FromStr for AbsValue {
    type Err = String;

    fn from_str(spec: &str) -> std::result::Result<AbsValue, String> {
        let spec = spec.trim();
        if let Some(mut rest) = spec.strip_prefix('[') {
            let mut dims = Vec::new();
            loop {
                let (dim, after) =
                    rest.split_once(']').ok_or_else(|| format!("bad array spec `{spec}`"))?;
                dims.push(dim.parse::<i64>().map_err(|e| format!("`{spec}`: {e}"))?);
                if let Some(inner) = after.strip_prefix('[') {
                    rest = inner;
                    continue;
                }
                let elem = match after {
                    "f32" | "" => ScalarType::F32,
                    "f64" => ScalarType::F64,
                    "i32" => ScalarType::I32,
                    "i64" => ScalarType::I64,
                    "bool" => ScalarType::Bool,
                    other => return Err(format!("unknown element type `{other}`")),
                };
                return Ok(AbsValue::array(dims, elem));
            }
        }
        if let Ok(n) = spec.parse::<i64>() {
            return Ok(AbsValue::known(Const::I64(n)));
        }
        if let Ok(x) = spec.parse::<f32>() {
            return Ok(AbsValue::known(Const::F32(x)));
        }
        Err(format!("cannot parse argument `{spec}`"))
    }
}

/// Simulation error.
#[derive(Debug, Clone, PartialEq)]
pub struct SimError(pub String);

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.0)
    }
}

impl std::error::Error for SimError {}

type Result<T> = std::result::Result<T, SimError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(SimError(msg.into()))
}

/// One observed threshold comparison: the degree of parallelism that
/// was compared, and the outcome. The parallelism value depends only on
/// the dataset (not on the threshold assignment), which is what lets the
/// autotuner predict paths without re-running (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CmpRecord {
    pub id: ThresholdId,
    pub par: i64,
    pub taken: bool,
}

/// A record's decision, as [`flat_ir::interp::path_signature`] reads it.
impl From<CmpRecord> for (ThresholdId, bool) {
    fn from(r: CmpRecord) -> Self {
        (r.id, r.taken)
    }
}

/// The result of simulating one program run.
#[derive(Clone, Debug)]
pub struct SimReport {
    pub cost: CostReport,
    /// Threshold comparisons in evaluation order — the path through the
    /// branching tree, used by the autotuner's memoization (§4.2).
    pub path: Vec<CmpRecord>,
    /// Simulated runtime in microseconds.
    pub microseconds: f64,
    /// One record per costed kernel, in launch order. The per-kernel
    /// `cost.cycles` sum exactly to `cost.total_cycles`.
    pub kernels: Vec<KernelLaunch>,
}

/// Simulate a target program on abstract inputs.
pub fn simulate(
    prog: &Program,
    args: &[AbsValue],
    thresholds: &Thresholds,
    dev: &DeviceSpec,
) -> Result<SimReport> {
    let mut sim = Sim {
        env: HashMap::new(),
        thresholds,
        dev,
        cost: CostReport::default(),
        path: Vec::new(),
        kernels: Vec::new(),
        cur_prov: Prov::UNKNOWN,
    };
    if prog.params.len() != args.len() {
        return err(format!(
            "program {} takes {} arguments, got {}",
            prog.name,
            prog.params.len(),
            args.len()
        ));
    }
    for (p, a) in prog.params.iter().zip(args) {
        sim.env.insert(p.name, a.clone());
    }
    sim.host_body(&prog.body)?;
    let microseconds = sim.cost.microseconds(dev);
    let metrics = flat_obs::global().metrics();
    metrics.add("sim.runs", 1);
    metrics.add("sim.kernel_launches", sim.cost.kernel_launches);
    metrics.add("sim.local_fallbacks", sim.cost.local_fallbacks);
    Ok(SimReport {
        cost: sim.cost,
        path: sim.path,
        microseconds,
        kernels: sim.kernels,
    })
}

/// Simulate with concrete [`Value`] arguments (shapes are extracted).
pub fn simulate_values(
    prog: &Program,
    args: &[Value],
    thresholds: &Thresholds,
    dev: &DeviceSpec,
) -> Result<SimReport> {
    let abs: Vec<AbsValue> = args.iter().map(AbsValue::of_value).collect();
    simulate(prog, &abs, thresholds, dev)
}

struct Sim<'a> {
    env: HashMap<VName, AbsValue>,
    thresholds: &'a Thresholds,
    dev: &'a DeviceSpec,
    cost: CostReport,
    path: Vec<CmpRecord>,
    kernels: Vec<KernelLaunch>,
    /// Provenance of the host statement currently executing; stamped
    /// onto every kernel launch it causes.
    cur_prov: Prov,
}

impl<'a> Sim<'a> {
    fn lookup(&self, v: VName) -> Result<AbsValue> {
        self.env
            .get(&v)
            .cloned()
            .ok_or_else(|| SimError(format!("variable {v} unbound in simulation")))
    }

    fn subexp(&self, se: &SubExp) -> Result<AbsValue> {
        match se {
            SubExp::Const(c) => Ok(AbsValue::known(*c)),
            SubExp::Var(v) => self.lookup(*v),
        }
    }

    fn size_of(&self, se: &SubExp) -> Result<i64> {
        self.subexp(se)?
            .as_i64()
            .ok_or_else(|| SimError(format!("size {se} is not statically derivable")))
    }

    // ---- host-level execution ------------------------------------

    fn host_body(&mut self, body: &Body) -> Result<Vec<AbsValue>> {
        let saved = self.cur_prov;
        for stm in &body.stms {
            if !stm.prov.is_unknown() {
                self.cur_prov = stm.prov;
            }
            let vals = self.host_exp(&stm.exp, &stm.pat)?;
            if vals.len() != stm.pat.len() {
                return err("host statement arity mismatch");
            }
            for (p, v) in stm.pat.iter().zip(vals) {
                self.env.insert(p.name, v);
            }
        }
        let res = body.result.iter().map(|r| self.subexp(r)).collect();
        self.cur_prov = saved;
        res
    }

    fn host_exp(&mut self, exp: &Exp, pat: &[Param]) -> Result<Vec<AbsValue>> {
        match exp {
            Exp::SubExp(se) => Ok(vec![self.subexp(se)?]),
            Exp::UnOp(op, a) => {
                let v = self.subexp(a)?;
                Ok(vec![match v {
                    AbsValue::Scalar(Some(c)) => match flat_ir::interp::eval_unop(*op, c) {
                        Ok(r) => AbsValue::known(r),
                        Err(_) => AbsValue::unknown(),
                    },
                    _ => AbsValue::unknown(),
                }])
            }
            Exp::BinOp(op, a, b) => {
                let x = self.subexp(a)?;
                let y = self.subexp(b)?;
                Ok(vec![match (x, y) {
                    (AbsValue::Scalar(Some(cx)), AbsValue::Scalar(Some(cy))) => {
                        match flat_ir::interp::eval_binop(*op, cx, cy) {
                            Ok(r) => AbsValue::known(r),
                            Err(_) => AbsValue::unknown(),
                        }
                    }
                    _ => AbsValue::unknown(),
                }])
            }
            Exp::CmpThreshold { factors, threshold } => {
                let mut par: i64 = 1;
                for f in factors {
                    par = par.saturating_mul(self.size_of(f)?);
                }
                let taken = par >= self.thresholds.get(*threshold);
                self.path.push(CmpRecord { id: *threshold, par, taken });
                Ok(vec![AbsValue::known(Const::Bool(taken))])
            }
            Exp::Index { arr, idxs } => {
                let a = self.lookup(*arr)?;
                let shape = a.shape();
                if idxs.len() > shape.len() {
                    return err("host index rank mismatch");
                }
                if idxs.len() == shape.len() {
                    Ok(vec![AbsValue::unknown()])
                } else {
                    Ok(vec![AbsValue::Array {
                        shape: shape[idxs.len()..].to_vec(),
                        elem: a.elem_type(),
                        space: a.space(),
                    }])
                }
            }
            Exp::Iota { n } => {
                let n = self.size_of(n)?;
                // A trivial device fill.
                self.charge_fill(n as f64 * 8.0, n as f64);
                Ok(vec![AbsValue::array(vec![n], ScalarType::I64)])
            }
            Exp::Replicate { n, elem } => {
                let n = self.size_of(n)?;
                let e = self.subexp(elem)?;
                let mut shape = vec![n];
                shape.extend(e.shape());
                let bytes =
                    shape.iter().product::<i64>() as f64 * e.elem_type().size_bytes() as f64;
                self.charge_fill(bytes, shape.iter().product::<i64>() as f64);
                Ok(vec![AbsValue::array(shape, e.elem_type())])
            }
            Exp::Rearrange { perm, arr } => {
                // Lazy index transformation: free at host level.
                let a = self.lookup(*arr)?;
                let shape = a.shape();
                Ok(vec![AbsValue::Array {
                    shape: perm.iter().map(|&p| shape[p]).collect(),
                    elem: a.elem_type(),
                    space: a.space(),
                }])
            }
            Exp::ArrayLit { elems, elem_ty } => Ok(vec![AbsValue::array(
                vec![elems.len() as i64],
                elem_ty.scalar,
            )]),
            Exp::If { cond, tb, fb, ret } => {
                match self.subexp(cond)?.as_bool() {
                    Some(true) => self.host_body(tb),
                    Some(false) => self.host_body(fb),
                    None => {
                        // Data-dependent host branch: cost of the worse
                        // branch, shapes from the declared types. The
                        // kernel log is restored in lockstep with the
                        // cost so per-kernel cycles keep summing to the
                        // total.
                        let saved = self.cost.clone();
                        let saved_kernels = self.kernels.clone();
                        let t_res = self.host_body(tb)?;
                        let t_cost = self.cost.clone();
                        let t_kernels = self.kernels.clone();
                        self.cost = saved.clone();
                        self.kernels = saved_kernels;
                        let _ = self.host_body(fb)?;
                        if self.cost.total_cycles < t_cost.total_cycles {
                            self.cost = t_cost;
                            self.kernels = t_kernels;
                        }
                        let _ = ret;
                        Ok(t_res)
                    }
                }
            }
            Exp::Loop { params, ivar, bound, body } => {
                let n = self
                    .subexp(bound)?
                    .as_i64()
                    .ok_or_else(|| SimError("host loop bound not derivable".into()))?;
                let mut vals: Vec<AbsValue> = params
                    .iter()
                    .map(|(_, init)| self.subexp(init))
                    .collect::<Result<_>>()?;
                for i in 0..n {
                    self.env.insert(*ivar, AbsValue::known(Const::I64(i)));
                    for ((p, _), v) in params.iter().zip(&vals) {
                        self.env.insert(p.name, v.clone());
                    }
                    vals = self.host_body(body)?;
                }
                Ok(vals)
            }
            Exp::Soac(_) => err("sequential SOAC at host level (not produced by flattening)"),
            Exp::Seg(op) => self.kernel(op, pat),
        }
    }

    /// A trivial fill kernel (iota/replicate at host level).
    fn charge_fill(&mut self, bytes: f64, elems: f64) {
        let w = KernelWork {
            flops: elems,
            global_bytes: bytes,
            threads: elems.max(1.0),
            groups: (elems / self.dev.default_group_size as f64).ceil().max(1.0),
            ..Default::default()
        };
        let c = w.cycles_on(self.dev);
        self.kernels.push(KernelLaunch {
            name: "fill".to_string(),
            kind: "fill",
            level: LVL_GRID,
            groups: w.groups,
            group_threads: (w.threads / w.groups).min(self.dev.default_group_size as f64),
            threads: w.threads,
            occupancy: KernelLaunch::occupancy_of(self.dev, w.threads),
            cost: c,
            global_bytes: w.global_bytes,
            local_bytes: 0.0,
            launches: 1,
            start_cycle: self.cost.total_cycles,
            prov: self.cur_prov,
            path: flat_ir::interp::path_signature(&self.path),
        });
        self.cost.record(&c, 1);
    }

    // ---- kernels ---------------------------------------------------

    fn kernel(&mut self, op: &SegOp, pat: &[Param]) -> Result<Vec<AbsValue>> {
        let widths: Vec<i64> = op
            .ctx
            .iter()
            .map(|d| self.size_of(&d.width))
            .collect::<Result<_>>()?;
        let space: f64 = widths.iter().product::<i64>() as f64;

        // Bind context parameters (shapes) so the body walk can see them.
        // Also collect ctx-bound names for tiling discounts, and count
        // per-element loads of scalar context parameters.
        let mut ctx_scalar_bytes = 0.0;
        let mut streamed: HashMap<VName, f64> = HashMap::new();
        let discount = match op.tiling {
            Tiling::None => 1.0,
            Tiling::Block(t) => t as f64,
            Tiling::BlockReg(t, r) => (t as f64) * (r as f64),
        };
        for dim in &op.ctx {
            for (p, arr) in &dim.binds {
                let a = self.lookup(*arr)?;
                let shape = a.shape();
                if shape.is_empty() {
                    return err(format!("context array {arr} is scalar"));
                }
                let elem = AbsValue::Array {
                    shape: shape[1..].to_vec(),
                    elem: a.elem_type(),
                    space: MemSpace::Global,
                };
                if p.ty.is_scalar() {
                    ctx_scalar_bytes += p.ty.scalar.size_bytes() as f64;
                    self.env.insert(p.name, AbsValue::unknown());
                } else {
                    streamed.insert(p.name, discount);
                    self.env.insert(p.name, elem);
                }
            }
        }

        let has_intra = body_has_seg(&op.body);
        let is_scan = matches!(op.kind, SegKind::Scan { .. });
        let is_red = matches!(op.kind, SegKind::Red { .. });

        // Walk the body once for the per-element (or per-group) work.
        let mut walker = BodyWalker {
            sim: self,
            streamed,
            in_group: has_intra,
            local_alloc: 0.0,
        };
        let per_point = walker.body(&op.body)?;
        let local_alloc = walker.local_alloc;
        drop(walker);

        // Element-wise result writes (global).
        let mut write_bytes_per_point = 0.0;
        for t in &op.body_ret {
            let mut elems = 1.0;
            for d in &t.dims {
                elems *= self.size_of(d)? as f64;
            }
            write_bytes_per_point += elems * t.scalar.size_bytes() as f64;
        }

        // Operator cost for segred/segscan.
        let (op_flops, op_bytes) = match &op.kind {
            SegKind::Map => (0.0, 0.0),
            SegKind::Red { op: lam, .. } | SegKind::Scan { op: lam, .. } => {
                let mut w2 = BodyWalker {
                    sim: self,
                    streamed: HashMap::new(),
                    in_group: has_intra,
                    local_alloc: 0.0,
                };
                for p in lam.params.clone() {
                    w2.sim.env.insert(p.name, AbsValue::unknown());
                }
                let opw = w2.body(&lam.body)?;
                (opw.flops, opw.global_bytes + opw.local_bytes)
            }
        };

        let mut work = KernelWork::default();
        let grp_threads;
        if has_intra {
            // Intra-group kernel: one workgroup per point of the space.
            let group_par = max_seg0_par(&op.body, &|se| self.size_of(se))?;
            let group_threads =
                (group_par.max(1) as f64).min(self.dev.max_group_size as f64);
            grp_threads = group_threads;
            work.groups = space.max(1.0);
            work.threads = work.groups * group_threads;
            work.local_mem_per_group = local_alloc;
            work.flops = space * per_point.flops;
            work.global_bytes = space * (per_point.global_bytes + ctx_scalar_bytes + write_bytes_per_point);
            work.local_bytes = space * per_point.local_bytes;
            work.extra_launches = 0.0;
            // Barrier synchronization: per-group barrier events execute
            // serially within the group; groups overlap up to the
            // occupancy limit.
            let conc = self.dev.concurrent_groups(group_threads);
            work.sync_cycles = per_point.barriers * work.groups
                * self.dev.barrier_cost_cycles
                / (self.dev.compute_units as f64 * conc);
        } else {
            // Thread kernel: one thread per point.
            work.threads = space.max(1.0);
            work.groups =
                (space / self.dev.default_group_size as f64).ceil().max(1.0);
            grp_threads = (work.threads / work.groups).min(self.dev.default_group_size as f64);
            work.flops = space * per_point.flops;
            work.global_bytes =
                space * (per_point.global_bytes + ctx_scalar_bytes + write_bytes_per_point)
                    + space * per_point.local_bytes; // no local memory outside groups
            work.local_bytes = 0.0;

            let inner_w = *widths
                .last()
                .ok_or_else(|| SimError("segop with empty width list".into()))?
                as f64;
            let segments = space / inner_w.max(1.0);
            if is_red {
                // Two-phase reduction: a partials pass.
                work.flops += space * op_flops + space * op_bytes * 0.0;
                work.extra_launches = 1.0;
                work.global_bytes += 2.0 * segments * write_bytes_per_point;
                // The result is written once per segment, not per point.
                work.global_bytes -= (space - segments) * write_bytes_per_point;
            } else if is_scan {
                // Multi-pass scan: one extra read+write per element
                // (§5.2: "at least two and typically three global-memory
                // accesses per data element" per scan).
                work.flops += 2.0 * space * op_flops;
                work.extra_launches = 2.0;
                work.global_bytes += space * write_bytes_per_point;
            }
        }

        let _ = op_bytes;

        // Local-memory capacity check (§4.1): fall back to global.
        let mut kcost: KernelCost;
        if work.local_mem_per_group > self.dev.local_mem_bytes as f64 {
            let mut spilled = work;
            spilled.global_bytes += spilled.local_bytes;
            spilled.local_bytes = 0.0;
            kcost = spilled.cycles_on(self.dev);
            kcost.used_local_fallback = true;
        } else {
            kcost = work.cycles_on(self.dev);
        }
        self.cost.peak_local_mem = self.cost.peak_local_mem.max(work.local_mem_per_group);
        let kind = match (&op.kind, has_intra) {
            (SegKind::Map, true) => "segmap(intra)",
            (SegKind::Map, false) => "segmap",
            (SegKind::Red { .. }, _) => "segred",
            (SegKind::Scan { .. }, _) => "segscan",
        };
        self.kernels.push(KernelLaunch {
            name: pat
                .first()
                .map(|p| p.name.base())
                .unwrap_or_else(|| "kernel".to_string()),
            kind,
            level: op.level,
            groups: work.groups,
            group_threads: grp_threads,
            threads: work.threads,
            occupancy: KernelLaunch::occupancy_of(self.dev, work.threads),
            cost: kcost,
            global_bytes: if kcost.used_local_fallback {
                work.global_bytes + work.local_bytes
            } else {
                work.global_bytes
            },
            local_bytes: if kcost.used_local_fallback { 0.0 } else { work.local_bytes },
            launches: 1 + work.extra_launches as u64,
            start_cycle: self.cost.total_cycles,
            prov: self.cur_prov,
            path: flat_ir::interp::path_signature(&self.path),
        });
        self.cost.record(&kcost, 1 + work.extra_launches as u64);

        // Result shapes.
        let out_dims: Vec<i64> = match op.kind {
            SegKind::Red { .. } => widths[..widths.len() - 1].to_vec(),
            _ => widths.clone(),
        };
        let mut results = Vec::with_capacity(op.body_ret.len());
        for t in &op.body_ret {
            let mut shape = out_dims.clone();
            for d in &t.dims {
                shape.push(self.size_of(d)?);
            }
            results.push(AbsValue::array(shape, t.scalar));
        }
        Ok(results)
    }
}

/// Per-point resource usage of a kernel body.
#[derive(Clone, Copy, Debug, Default)]
struct PointWork {
    flops: f64,
    global_bytes: f64,
    local_bytes: f64,
    /// Workgroup barrier events (counted per group for intra kernels).
    barriers: f64,
}

impl PointWork {
    fn add(&mut self, o: PointWork) {
        self.flops += o.flops;
        self.global_bytes += o.global_bytes;
        self.local_bytes += o.local_bytes;
        self.barriers += o.barriers;
    }

    fn scaled(self, n: f64) -> PointWork {
        PointWork {
            flops: self.flops * n,
            global_bytes: self.global_bytes * n,
            local_bytes: self.local_bytes * n,
            barriers: self.barriers * n,
        }
    }

    fn max(self, o: PointWork) -> PointWork {
        // Compare by a rough weight; used for data-dependent branches.
        if self.flops + self.global_bytes * 8.0 + self.local_bytes
            >= o.flops + o.global_bytes * 8.0 + o.local_bytes
        {
            self
        } else {
            o
        }
    }
}

/// Walks a kernel body, computing per-point work. Array definitions are
/// placed in local memory when inside a workgroup (`in_group`), otherwise
/// they are charged as global traffic (register spill of thread-private
/// arrays).
struct BodyWalker<'s, 'a> {
    sim: &'s mut Sim<'a>,
    /// Ctx-bound array parameters and their tiling discount.
    streamed: HashMap<VName, f64>,
    in_group: bool,
    /// Local memory allocated per group, bytes.
    local_alloc: f64,
}

impl<'s, 'a> BodyWalker<'s, 'a> {
    fn charge_read(&self, w: &mut PointWork, name: VName, elems: f64, st: ScalarType) {
        let bytes = elems * st.size_bytes() as f64;
        if let Some(discount) = self.streamed.get(&name) {
            w.global_bytes += bytes / discount;
            return;
        }
        match self.sim.env.get(&name).map(|v| v.space()) {
            Some(MemSpace::Local) => w.local_bytes += bytes,
            _ => w.global_bytes += bytes,
        }
    }

    fn define_array(&mut self, name: VName, shape: Vec<i64>, st: ScalarType, w: &mut PointWork) {
        let elems: f64 = shape.iter().product::<i64>() as f64;
        let bytes = elems * st.size_bytes() as f64;
        let space = if self.in_group { MemSpace::Local } else { MemSpace::Global };
        if self.in_group {
            self.local_alloc += bytes;
            w.local_bytes += bytes; // the write
        } else {
            w.global_bytes += bytes;
        }
        self.sim
            .env
            .insert(name, AbsValue::Array { shape, elem: st, space });
    }

    fn body(&mut self, body: &Body) -> Result<PointWork> {
        let mut total = PointWork::default();
        for stm in &body.stms {
            let w = self.stm(stm)?;
            total.add(w);
        }
        Ok(total)
    }

    fn stm(&mut self, stm: &Stm) -> Result<PointWork> {
        let mut w = PointWork::default();
        match &stm.exp {
            Exp::SubExp(se) => {
                let v = self.sim.subexp(se).unwrap_or(AbsValue::unknown());
                self.sim.env.insert(stm.pat[0].name, v);
            }
            Exp::UnOp(op, _) => {
                w.flops += op.flops() as f64;
                self.sim.env.insert(stm.pat[0].name, AbsValue::unknown());
            }
            Exp::BinOp(op, a, b) => {
                w.flops += op.flops() as f64;
                // Size arithmetic stays concrete inside kernels too.
                let va = self.sim.subexp(a).ok().and_then(|v| v.as_i64());
                let vb = self.sim.subexp(b).ok().and_then(|v| v.as_i64());
                let out = match (va, vb, op) {
                    (Some(x), Some(y), BinOp::Add) => Some(Const::I64(x + y)),
                    (Some(x), Some(y), BinOp::Sub) => Some(Const::I64(x - y)),
                    (Some(x), Some(y), BinOp::Mul) => Some(Const::I64(x * y)),
                    (Some(x), Some(y), BinOp::Max) => Some(Const::I64(x.max(y))),
                    (Some(x), Some(y), BinOp::Min) => Some(Const::I64(x.min(y))),
                    _ => None,
                };
                self.sim.env.insert(stm.pat[0].name, AbsValue::Scalar(out));
            }
            Exp::CmpThreshold { .. } => {
                return err("threshold comparison inside a kernel body");
            }
            Exp::Index { arr, idxs } => {
                let a = self.sim.lookup(*arr)?;
                let shape = a.shape().to_vec();
                let st = a.elem_type();
                let read_elems: f64 = shape[idxs.len().min(shape.len())..]
                    .iter()
                    .product::<i64>() as f64;
                self.charge_read(&mut w, *arr, read_elems.max(1.0), st);
                if idxs.len() >= shape.len() {
                    self.sim.env.insert(stm.pat[0].name, AbsValue::unknown());
                } else {
                    self.sim.env.insert(
                        stm.pat[0].name,
                        AbsValue::Array {
                            shape: shape[idxs.len()..].to_vec(),
                            elem: st,
                            space: a.space(),
                        },
                    );
                }
            }
            Exp::Iota { n } => {
                let n = self.sim.size_of(n)?;
                w.flops += n as f64;
                self.define_array(stm.pat[0].name, vec![n], ScalarType::I64, &mut w);
            }
            Exp::Replicate { n, elem } => {
                let n = self.sim.size_of(n)?;
                let e = self.sim.subexp(elem).unwrap_or(AbsValue::unknown());
                let mut shape = vec![n];
                shape.extend(e.shape());
                self.define_array(stm.pat[0].name, shape, e.elem_type(), &mut w);
            }
            Exp::Rearrange { perm, arr } => {
                let a = self.sim.lookup(*arr)?;
                let shape = a.shape();
                let new_shape: Vec<i64> = perm.iter().map(|&p| shape[p]).collect();
                let st = a.elem_type();
                // Inside a kernel a rearrange is a real copy.
                self.charge_read(&mut w, *arr, a.elems(), st);
                self.define_array(stm.pat[0].name, new_shape, st, &mut w);
            }
            Exp::ArrayLit { elems, elem_ty } => {
                self.define_array(
                    stm.pat[0].name,
                    vec![elems.len() as i64],
                    elem_ty.scalar,
                    &mut w,
                );
            }
            Exp::If { cond, tb, fb, ret } => {
                match self.sim.subexp(cond).ok().and_then(|v| v.as_bool()) {
                    Some(true) => {
                        w.add(self.body(tb)?);
                        self.bind_results(&stm.pat, &tb.result);
                    }
                    Some(false) => {
                        w.add(self.body(fb)?);
                        self.bind_results(&stm.pat, &fb.result);
                    }
                    None => {
                        let wt = self.body(tb)?;
                        let wf = self.body(fb)?;
                        w.add(wt.max(wf));
                        // Bind shapes from declared types.
                        for (p, t) in stm.pat.iter().zip(ret) {
                            let v = self.abs_of_type(t)?;
                            self.sim.env.insert(p.name, v);
                        }
                    }
                }
            }
            Exp::Loop { params, ivar, bound, body } => {
                let n = self
                    .sim
                    .subexp(bound)?
                    .as_i64()
                    .ok_or_else(|| {
                        SimError("data-dependent loop bound inside a kernel".into())
                    })?;
                self.sim.env.insert(*ivar, AbsValue::unknown());
                for (p, init) in params {
                    let v = self
                        .sim
                        .subexp(init)
                        .unwrap_or(AbsValue::unknown());
                    let v = self.coerce_to_type(v, &p.ty)?;
                    self.sim.env.insert(p.name, v);
                }
                let per_iter = self.body(body)?;
                w.add(per_iter.scaled(n as f64));
                for (p, (pp, _)) in stm.pat.iter().zip(params) {
                    let v = self.sim.lookup(pp.name)?;
                    self.sim.env.insert(p.name, v);
                }
            }
            Exp::Soac(soac) => {
                w.add(self.seq_soac(soac, &stm.pat)?);
            }
            Exp::Seg(inner) => {
                w.add(self.seg0(inner, &stm.pat)?);
            }
        }
        Ok(w)
    }

    fn bind_results(&mut self, pat: &[Param], results: &[SubExp]) {
        for (p, r) in pat.iter().zip(results) {
            let v = self.sim.subexp(r).unwrap_or(AbsValue::unknown());
            self.sim.env.insert(p.name, v);
        }
    }

    fn abs_of_type(&mut self, t: &Type) -> Result<AbsValue> {
        if t.is_scalar() {
            return Ok(AbsValue::unknown());
        }
        let mut shape = Vec::with_capacity(t.dims.len());
        for d in &t.dims {
            shape.push(self.sim.size_of(d)?);
        }
        Ok(AbsValue::Array {
            shape,
            elem: t.scalar,
            space: if self.in_group { MemSpace::Local } else { MemSpace::Global },
        })
    }

    fn coerce_to_type(&mut self, v: AbsValue, t: &Type) -> Result<AbsValue> {
        if t.is_scalar() {
            Ok(v)
        } else {
            self.abs_of_type(t)
        }
    }

    /// A *sequential* SOAC inside a kernel body.
    fn seq_soac(&mut self, soac: &Soac, pat: &[Param]) -> Result<PointWork> {
        let mut w = PointWork::default();
        let n = self.sim.size_of(&soac.width())? as f64;

        // The elementwise lambda (the map part) and the associative
        // operator (for reductions and scans).
        let (map_lam, op_lam): (Option<&Lambda>, Option<&Lambda>) = match soac {
            Soac::Map { lam, .. } => (Some(lam), None),
            Soac::Reduce { lam, .. } | Soac::Scan { lam, .. } => (None, Some(lam)),
            Soac::Redomap { red, map, .. } => (Some(map), Some(red)),
            Soac::Scanomap { scan, map, .. } => (Some(map), Some(scan)),
        };

        // Reads of the input arrays: scalar elements are loaded once per
        // iteration; array-typed elements are *slices* whose contents are
        // charged where they are consumed (inner SOACs / indexing) — the
        // same no-double-counting rule as segop context bindings.
        let elem_is_scalar: Vec<bool> = match map_lam {
            Some(lam) => lam.params.iter().map(|p| p.ty.is_scalar()).collect(),
            None => {
                // reduce/scan: element types are the second half of the
                // operator's parameters.
                let op = op_lam.expect("reduce/scan has an operator");
                let half = op.params.len() / 2;
                op.params[half..].iter().map(|p| p.ty.is_scalar()).collect()
            }
        };
        for (a, is_scalar) in soac.arrays().iter().zip(&elem_is_scalar) {
            let av = self.sim.lookup(*a)?;
            if *is_scalar {
                self.charge_read(&mut w, *a, n, av.elem_type());
            } else if map_lam.is_none() {
                // reduce/scan feed array slices straight to the operator:
                // charge the slices here.
                let row: f64 = av.shape()[1..].iter().product::<i64>() as f64;
                self.charge_read(&mut w, *a, n * row, av.elem_type());
            }
        }

        if let Some(lam) = map_lam {
            let lam = lam.clone();
            for (p, a) in lam.params.iter().zip(soac.arrays()) {
                let av = self.sim.lookup(*a)?;
                let v = if p.ty.is_scalar() {
                    AbsValue::unknown()
                } else {
                    AbsValue::Array {
                        shape: av.shape()[1..].to_vec(),
                        elem: av.elem_type(),
                        space: av.space(),
                    }
                };
                self.sim.env.insert(p.name, v);
            }
            let per_elem = self.body(&lam.body)?;
            w.add(per_elem.scaled(n));
        }
        if let Some(op) = op_lam {
            let ow = self.op_lambda_work(&op.clone())?;
            w.add(ow.scaled(n));
        }

        // Result bindings: scalar accumulators for reduce/redomap,
        // arrays of width `n` otherwise.
        let (elem_tys, arrayed): (Vec<Type>, bool) = match soac {
            Soac::Map { lam, .. } => (lam.ret.clone(), true),
            Soac::Reduce { lam, nes, .. } => {
                (lam.ret[..nes.len().min(lam.ret.len())].to_vec(), false)
            }
            Soac::Redomap { map, .. } => (map.ret.clone(), false),
            Soac::Scan { lam, nes, .. } => {
                (lam.ret[..nes.len().min(lam.ret.len())].to_vec(), true)
            }
            Soac::Scanomap { map, .. } => (map.ret.clone(), true),
        };
        for (p, t) in pat.iter().zip(&elem_tys) {
            if arrayed {
                let mut shape = vec![n as i64];
                for d in &t.dims {
                    shape.push(self.sim.size_of(d)?);
                }
                self.define_array(p.name, shape, t.scalar, &mut w);
            } else if t.is_scalar() {
                self.sim.env.insert(p.name, AbsValue::unknown());
            } else {
                let v = self.abs_of_type(t)?;
                self.sim.env.insert(p.name, v);
            }
        }
        Ok(w)
    }

    /// A level-0 segop inside a workgroup body.
    fn seg0(&mut self, op: &SegOp, pat: &[Param]) -> Result<PointWork> {
        let mut w = PointWork::default();
        let widths: Vec<i64> = op
            .ctx
            .iter()
            .map(|d| self.sim.size_of(&d.width))
            .collect::<Result<_>>()?;
        let space: f64 = widths.iter().product::<i64>() as f64;

        // Bind context parameters. Scalar parameters at the innermost
        // level cause one read per point of the space, charged to the
        // space where the source array lives (global for kernel inputs,
        // local for intermediates — the rule that gives the intra-group
        // version its "two global accesses per data element" behaviour,
        // §5.2). Array-typed bindings are slicing and cost nothing here;
        // their contents are charged where they are consumed.
        for dim in &op.ctx {
            for (p, arr) in &dim.binds {
                let a = self.sim.lookup(*arr)?;
                if p.ty.is_scalar() {
                    self.charge_read(&mut w, *arr, space, a.elem_type());
                    self.sim.env.insert(p.name, AbsValue::unknown());
                } else {
                    let v = AbsValue::Array {
                        shape: a.shape()[1..].to_vec(),
                        elem: a.elem_type(),
                        space: a.space(),
                    };
                    self.sim.env.insert(p.name, v);
                }
            }
        }

        let per_point = self.body(&op.body.clone())?;
        w.add(per_point.scaled(space));

        // Log-depth combining for scans/reductions in local memory
        // (Hillis–Steele style), with one workgroup barrier per stage.
        let inner_w = *widths
            .last()
            .ok_or_else(|| SimError("segop with empty width list".into()))?
            as f64;
        let stages = inner_w.max(2.0).log2().ceil();
        match &op.kind {
            SegKind::Map => {
                w.barriers += 1.0;
            }
            SegKind::Red { op: lam, .. } => {
                let ow = self.op_lambda_work(lam)?;
                w.add(ow.scaled(space));
                w.local_bytes += 2.0 * space * 4.0;
                w.barriers += stages;
            }
            SegKind::Scan { op: lam, .. } => {
                let ow = self.op_lambda_work(lam)?;
                w.add(ow.scaled(space * stages));
                w.local_bytes += 2.0 * space * stages * 4.0;
                w.barriers += stages;
            }
        }

        // Results are local arrays.
        let out_dims: Vec<i64> = match op.kind {
            SegKind::Red { .. } => widths[..widths.len() - 1].to_vec(),
            _ => widths.clone(),
        };
        for (p, t) in pat.iter().zip(&op.body_ret.clone()) {
            let mut shape = out_dims.clone();
            for d in &t.dims {
                shape.push(self.sim.size_of(d)?);
            }
            self.define_array(p.name, shape, t.scalar, &mut w);
        }
        Ok(w)
    }

    fn op_lambda_work(&mut self, lam: &Lambda) -> Result<PointWork> {
        for p in &lam.params {
            self.sim.env.insert(p.name, AbsValue::unknown());
        }
        self.body(&lam.body.clone())
    }
}

fn body_has_seg(body: &Body) -> bool {
    body.stms.iter().any(|s| match &s.exp {
        Exp::Seg(_) => true,
        Exp::If { tb, fb, .. } => body_has_seg(tb) || body_has_seg(fb),
        Exp::Loop { body, .. } => body_has_seg(body),
        _ => false,
    })
}

/// Maximum parallel size (product of widths) over the level-0 segops of
/// a group body.
fn max_seg0_par(
    body: &Body,
    size_of: &impl Fn(&SubExp) -> Result<i64>,
) -> Result<i64> {
    let mut best = 1i64;
    fn walk(
        body: &Body,
        size_of: &impl Fn(&SubExp) -> Result<i64>,
        best: &mut i64,
    ) -> Result<()> {
        for s in &body.stms {
            match &s.exp {
                Exp::Seg(op) => {
                    let mut p = 1i64;
                    for d in &op.ctx {
                        p = p.saturating_mul(size_of(&d.width)?);
                    }
                    *best = (*best).max(p);
                    walk(&op.body, size_of, best)?;
                }
                Exp::If { tb, fb, .. } => {
                    walk(tb, size_of, best)?;
                    walk(fb, size_of, best)?;
                }
                Exp::Loop { body, .. } => walk(body, size_of, best)?,
                _ => {}
            }
        }
        Ok(())
    }
    walk(body, size_of, &mut best)?;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_ir::builder::{LambdaBuilder, ProgramBuilder};

    #[test]
    fn absvalue_of_value_extracts_shapes() {
        let v = Value::f32_matrix(2, 3, vec![0.0; 6]);
        let a = AbsValue::of_value(&v);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.elem_type(), ScalarType::F32);
        assert_eq!(a.elems(), 6.0);
        assert_eq!(a.space(), MemSpace::Global);

        let s = AbsValue::of_value(&Value::i64_(7));
        assert_eq!(s.as_i64(), Some(7));
        assert!(s.shape().is_empty());
    }

    #[test]
    fn unknown_scalars_propagate() {
        let u = AbsValue::unknown();
        assert_eq!(u.as_i64(), None);
        assert_eq!(u.as_bool(), None);
    }

    #[test]
    fn missing_argument_is_an_error() {
        let mut pb = ProgramBuilder::new("p");
        let _x = pb.param("x", Type::i64());
        let prog = pb.finish(vec![SubExp::i64(0)], vec![Type::i64()]);
        let t = Thresholds::new();
        let err = simulate(&prog, &[], &t, &DeviceSpec::k40());
        assert!(err.is_err());
    }

    #[test]
    fn underivable_host_loop_bound_is_an_error() {
        // Loop bound computed from a float cast: not derivable.
        let mut pb = ProgramBuilder::new("p");
        let x = pb.param("x", Type::f32());
        let n = pb.body.bind(
            "n",
            Type::i64(),
            Exp::UnOp(UnOp::Cast(ScalarType::I64), SubExp::Var(x)),
        );
        let acc = flat_ir::Param::fresh("acc", Type::i64());
        let i = flat_ir::VName::fresh("i");
        let r = pb.body.bind_multi(
            "r",
            vec![Type::i64()],
            Exp::Loop {
                params: vec![(acc, SubExp::i64(0))],
                ivar: i,
                bound: SubExp::Var(n),
                body: Body::results(vec![SubExp::i64(1)]),
            },
        );
        let prog = pb.finish(vec![SubExp::Var(r[0])], vec![Type::i64()]);
        let out = simulate(
            &prog,
            &[AbsValue::unknown()],
            &Thresholds::new(),
            &DeviceSpec::k40(),
        );
        assert!(out.is_err(), "{out:?}");
    }

    #[test]
    fn host_iota_and_replicate_charge_fill_kernels() {
        let mut pb = ProgramBuilder::new("p");
        let n = pb.size_param("n");
        let io = pb.body.bind(
            "io",
            Type::i64().array_of(SubExp::Var(n)),
            Exp::Iota { n: SubExp::Var(n) },
        );
        let rep = pb.body.bind(
            "rep",
            Type::i64().array_of(SubExp::Var(n)).array_of(SubExp::Var(n)),
            Exp::Replicate { n: SubExp::Var(n), elem: SubExp::Var(io) },
        );
        let out_t = Type::i64().array_of(SubExp::Var(n)).array_of(SubExp::Var(n));
        let prog = pb.finish(vec![SubExp::Var(rep)], vec![out_t]);
        let rep = simulate(
            &prog,
            &[AbsValue::known(Const::I64(1024))],
            &Thresholds::new(),
            &DeviceSpec::k40(),
        )
        .unwrap();
        assert_eq!(rep.cost.kernel_launches, 2);
        assert!(rep.cost.global_cycles > 0.0);
    }

    #[test]
    fn host_rearrange_is_free() {
        let mut pb = ProgramBuilder::new("p");
        let n = pb.size_param("n");
        let xss = pb.param(
            "xss",
            Type::f32().array_of(SubExp::Var(n)).array_of(SubExp::Var(n)),
        );
        let tr = pb.body.bind(
            "tr",
            Type::f32().array_of(SubExp::Var(n)).array_of(SubExp::Var(n)),
            Exp::Rearrange { perm: vec![1, 0], arr: xss },
        );
        let out_t = Type::f32().array_of(SubExp::Var(n)).array_of(SubExp::Var(n));
        let prog = pb.finish(vec![SubExp::Var(tr)], vec![out_t]);
        let rep = simulate(
            &prog,
            &[
                AbsValue::known(Const::I64(512)),
                AbsValue::array(vec![512, 512], ScalarType::F32),
            ],
            &Thresholds::new(),
            &DeviceSpec::k40(),
        )
        .unwrap();
        assert_eq!(rep.cost.kernel_launches, 0);
        assert_eq!(rep.cost.total_cycles, 0.0);
    }

    #[test]
    fn tiling_discount_applies_to_streamed_ctx_arrays() {
        // Two identical kernels, one tiled: the tiled one must move less
        // global data.
        let build = |tiling: Tiling| {
            let mut pb = ProgramBuilder::new("p");
            let n = pb.size_param("n");
            let m = pb.size_param("m");
            let xss = pb.param(
                "xss",
                Type::f32().array_of(SubExp::Var(m)).array_of(SubExp::Var(n)),
            );
            let xs = flat_ir::Param::fresh("xs", Type::f32().array_of(SubExp::Var(m)));
            let mut lb = LambdaBuilder::new();
            let x = lb.param("x", Type::f32());
            let d = lb.body.binop(BinOp::Add, x, SubExp::f32(1.0), Type::f32());
            let lam = lb.finish(vec![SubExp::Var(d)], vec![Type::f32()]);
            let acc = flat_ir::VName::fresh("acc");
            let body = Body {
                stms: vec![Stm::single(
                    acc,
                    Type::f32(),
                    Exp::Soac(Soac::Redomap {
                        w: SubExp::Var(m),
                        red: flat_ir::builder::binop_lambda(BinOp::Add, ScalarType::F32),
                        map: lam,
                        nes: vec![SubExp::f32(0.0)],
                        arrs: vec![xs.name],
                    }),
                )],
                result: vec![SubExp::Var(acc)],
            };
            let seg = SegOp {
                kind: SegKind::Map,
                level: LVL_GRID,
                ctx: vec![CtxDim::new(SubExp::Var(n), vec![(xs.clone(), xss)])],
                body,
                body_ret: vec![Type::f32()],
                tiling,
            };
            let out = pb.body.bind(
                "out",
                Type::f32().array_of(SubExp::Var(n)),
                Exp::Seg(seg),
            );
            pb.finish(
                vec![SubExp::Var(out)],
                vec![Type::f32().array_of(SubExp::Var(n))],
            )
        };
        let args = vec![
            AbsValue::known(Const::I64(65536)),
            AbsValue::known(Const::I64(256)),
            AbsValue::array(vec![65536, 256], ScalarType::F32),
        ];
        let t = Thresholds::new();
        let dev = DeviceSpec::k40();
        let plain = simulate(&build(Tiling::None), &args, &t, &dev).unwrap();
        let tiled = simulate(&build(Tiling::Block(16)), &args, &t, &dev).unwrap();
        let reg = simulate(&build(Tiling::BlockReg(16, 4)), &args, &t, &dev).unwrap();
        assert!(tiled.cost.global_cycles < plain.cost.global_cycles / 8.0);
        assert!(reg.cost.global_cycles < tiled.cost.global_cycles);
    }

    #[test]
    fn barrier_costs_scale_with_scan_stages() {
        // An intra-group scan over wider rows has more combining stages,
        // hence more synchronization time.
        let build_args = |m: i64| {
            vec![
                AbsValue::known(Const::I64(4096)),
                AbsValue::known(Const::I64(m)),
                AbsValue::array(vec![4096, m], ScalarType::F32),
            ]
        };
        let src = "
def rowscans [n][m] (xss: [n][m]f32): [n][m]f32 =
  map (\\xs -> scan (+) 0f32 xs) xss
";
        let prog = flat_lang::compile(src, "rowscans").unwrap();
        let fl = incflat::flatten_incremental(&prog).unwrap();
        let mut t = Thresholds::new();
        for info in fl.thresholds.iter() {
            match info.kind {
                incflat::ThresholdKind::SuffOuter => t.set(info.id, i64::MAX),
                incflat::ThresholdKind::SuffIntra => t.set(info.id, 0),
            }
        }
        let dev = DeviceSpec::k40();
        let narrow = simulate(&fl.prog, &build_args(16), &t, &dev).unwrap();
        let wide = simulate(&fl.prog, &build_args(256), &t, &dev).unwrap();
        assert!(narrow.cost.sync_cycles > 0.0);
        assert!(wide.cost.sync_cycles > narrow.cost.sync_cycles);
    }

    /// A segop with an empty context (no dimensions) is malformed, but
    /// must surface as a `SimError`, not a panic.
    #[test]
    fn empty_segop_context_is_an_error_not_a_panic() {
        let mut pb = ProgramBuilder::new("p");
        let seg = SegOp {
            kind: SegKind::Map,
            level: LVL_GRID,
            ctx: vec![],
            body: Body::results(vec![SubExp::i64(0)]),
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let r = pb.body.bind("r", Type::i64().array_of(SubExp::i64(0)), Exp::Seg(seg));
        let out_t = Type::i64().array_of(SubExp::i64(0));
        let prog = pb.finish(vec![SubExp::Var(r)], vec![out_t]);
        let out = simulate(&prog, &[], &Thresholds::new(), &DeviceSpec::k40());
        let err = out.expect_err("empty segop context must be rejected");
        assert!(err.0.contains("empty width list"), "{err:?}");
    }

    /// Same for a level-0 segop with an empty context inside an
    /// intra-group kernel body (the other `widths.last()` site).
    #[test]
    fn empty_intra_segop_context_is_an_error_not_a_panic() {
        let mut pb = ProgramBuilder::new("p");
        let n = pb.size_param("n");
        let inner = SegOp {
            kind: SegKind::Map,
            level: LVL_GROUP,
            ctx: vec![],
            body: Body::results(vec![SubExp::i64(0)]),
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let mut body = flat_ir::builder::BodyBuilder::new();
        let y = body.bind("y", Type::i64().array_of(SubExp::i64(0)), Exp::Seg(inner));
        let outer = SegOp {
            kind: SegKind::Map,
            level: LVL_GRID,
            ctx: vec![CtxDim::new(SubExp::Var(n), vec![])],
            body: body.finish(vec![SubExp::Var(y)]),
            body_ret: vec![Type::i64().array_of(SubExp::i64(0))],
            tiling: Tiling::None,
        };
        let out_t = Type::i64()
            .array_of(SubExp::i64(0))
            .array_of(SubExp::Var(n));
        let r = pb.body.bind("r", out_t.clone(), Exp::Seg(outer));
        let prog = pb.finish(vec![SubExp::Var(r)], vec![out_t]);
        let out = simulate(
            &prog,
            &[AbsValue::known(Const::I64(64))],
            &Thresholds::new(),
            &DeviceSpec::k40(),
        );
        let err = out.expect_err("empty inner segop context must be rejected");
        assert!(err.0.contains("empty width list"), "{err:?}");
    }
}
