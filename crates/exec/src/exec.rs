//! The executor proper: host-code evaluation mirroring the reference
//! interpreter, with `segmap`/`segred`/`segscan` dispatched as
//! data-parallel kernels on the work-stealing pool.
//!
//! ## Determinism
//!
//! Every kernel is decomposed into tasks by the configured *grain size*
//! only — never by the thread count — and task results are combined in
//! task order on the calling thread. Two runs with different
//! `FLAT_EXEC_THREADS` therefore produce bit-identical values:
//!
//! * `segmap`: the flattened space is cut into grain-sized chunks; each
//!   chunk writes a private buffer; chunks concatenate in order.
//! * `segred`: each (segment, block) task folds its block left-to-right
//!   from the neutral element; block partials combine left-to-right per
//!   segment. With one block per segment this is exactly the
//!   interpreter's fold (bitwise, even for floats); with several blocks
//!   it is the same reassociation for every thread count.
//! * `segscan`: two passes — parallel per-block local scans, a
//!   sequential prefix over block totals, then a parallel fixup
//!   `op(prefix, elem)` for every block after the first (the first
//!   block's pass-1 values are already final, so a single-block segment
//!   is again bitwise equal to the interpreter).
//!
//! The environment maps names to [`Arc<Value>`], so handing a kernel
//! task its own copy costs one reference bump per binding.

use flat_ir::ast::*;
use flat_ir::interp::{self as interp, Thresholds};
use flat_ir::prov::Prov;
use flat_ir::value::{ArrayVal, Buffer, Value};
use flat_ir::VName;
use crate::obs::KernelTelem;
use gpu_sim::CmpRecord;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workpool::{PoolTelemetry, TaskSpan};

/// An execution error (unbound names, shape violations, etc.).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError(pub String);

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

impl From<interp::InterpError> for ExecError {
    fn from(e: interp::InterpError) -> ExecError {
        ExecError(e.0)
    }
}

type Result<T> = std::result::Result<T, ExecError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(ExecError(msg.into()))
}

/// Default elements per parallel task. Small enough that the modest
/// inner widths of the test programs still split into several blocks,
/// large enough that per-task overhead stays negligible.
pub const DEFAULT_GRAIN: usize = 256;

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// The live threshold assignment guards are evaluated against
    /// (defaults, a `.tuning` file, or explicit overrides).
    pub thresholds: Thresholds,
    /// Thread count; `None` uses the process default, which honours
    /// `FLAT_EXEC_THREADS`.
    pub threads: Option<usize>,
    /// Elements per parallel task. Fixes the kernel decomposition
    /// independently of the thread count (see the module docs).
    pub grain: usize,
    /// Collect pool scheduler counters (steals, parks, busy time) and
    /// per-kernel telemetry. Off by default; purely observational — the
    /// task decomposition and results are unchanged.
    pub telemetry: bool,
    /// Also record one [`TaskSpan`] per executed task for wall-clock
    /// worker timelines (implies `telemetry`). Off by default.
    pub worker_trace: bool,
}

impl Default for ExecConfig {
    fn default() -> ExecConfig {
        ExecConfig {
            thresholds: Thresholds::new(),
            threads: None,
            grain: DEFAULT_GRAIN,
            telemetry: false,
            worker_trace: false,
        }
    }
}

/// One executed kernel (a host-level segop dispatch).
#[derive(Clone, Debug)]
pub struct ExecLaunch {
    /// Name of the first value the kernel binds.
    pub name: String,
    /// `segmap`, `segred`, or `segscan`.
    pub kind: &'static str,
    pub level: Level,
    /// Total points of the iteration space.
    pub space: f64,
    /// Parallel tasks dispatched to the pool.
    pub tasks: u64,
    /// Measured wall time of the kernel, nanoseconds.
    pub nanos: f64,
    /// Start offset from the beginning of the run, nanoseconds.
    pub start_nanos: f64,
    /// Provenance of the statement that launched the kernel.
    pub prov: Prov,
    /// Threshold path signature observed before the launch.
    pub path: Vec<(u32, bool)>,
    /// Context widths of the iteration space, outermost first.
    pub widths: Vec<i64>,
    /// Tag stamped on this kernel's pool tasks (0 when telemetry was
    /// off); joins [`ExecReport::spans`] back to their launch.
    pub tag: u64,
    /// Kernel start on the *pool* clock ([`workpool::Pool::now_ns`]),
    /// the clock task spans use. 0 when telemetry was off.
    pub pool_start_ns: u64,
    /// Per-kernel scheduler counters and task-size histogram; `Some`
    /// only when telemetry was on.
    pub telem: Option<KernelTelem>,
}

/// The result of executing one program run.
#[derive(Clone, Debug)]
pub struct ExecReport {
    pub values: Vec<Value>,
    /// Threshold comparisons in evaluation order — the live-dispatched
    /// path through the branching tree.
    pub path: Vec<CmpRecord>,
    /// One record per host-level kernel dispatch, in launch order.
    pub launches: Vec<ExecLaunch>,
    /// Wall time of the whole run, nanoseconds.
    pub wall_nanos: f64,
    /// Threads the pool used (caller included).
    pub threads: usize,
    /// The grain size the decomposition used.
    pub grain: usize,
    /// Pool scheduler counters scoped to this run (`Some` only when
    /// `ExecConfig::telemetry` or `worker_trace` was set).
    pub pool: Option<PoolTelemetry>,
    /// Raw task spans for worker timelines (non-empty only when
    /// `ExecConfig::worker_trace` was set). Match `tag` against
    /// [`ExecLaunch::tag`] to attribute a span to its kernel.
    pub spans: Vec<TaskSpan>,
    /// Elements `flat-vm` stepped a strip at a time as leaves and one at
    /// a time (`Some` only for VM runs with telemetry on).
    pub step_elems: Option<(u64, u64)>,
}

impl ExecReport {
    /// The canonical signature of the live-dispatched path — same
    /// function the simulator and interpreter signatures go through.
    pub fn signature(&self) -> Vec<(u32, bool)> {
        gpu_sim::path_signature(&self.path)
    }
}

/// Execute a target program on concrete values.
pub fn run_program(prog: &Program, args: &[Value], cfg: &ExecConfig) -> Result<ExecReport> {
    let pool = match cfg.threads {
        Some(n) => workpool::pool_with(n),
        None => workpool::global(),
    };
    let _span = flat_obs::span("exec", "exec.run");
    if prog.params.len() != args.len() {
        return err(format!(
            "program {} expects {} arguments, got {}",
            prog.name,
            prog.params.len(),
            args.len()
        ));
    }
    // Telemetry runs hold a reference-counted session on the shared
    // (process-cached) pool: counters stay on while any run needs them
    // and switch off when the last one finishes, and span recording is
    // owned exclusively for the run, so concurrent runs neither clobber
    // each other's switches nor steal each other's drained spans.
    let telem_on = cfg.telemetry || cfg.worker_trace;
    let session = telem_on.then(|| pool.telemetry_session(cfg.worker_trace));
    let pool_before = telem_on.then(|| pool.telemetry());
    let exec = Exec {
        thresholds: &cfg.thresholds,
        pool: &pool,
        grain: cfg.grain.max(1),
        t0: Instant::now(),
        telem: telem_on,
        cur_tag: AtomicU64::new(0),
    };
    let mut fr = Frame::new(HashMap::new());
    fr.in_kernel = false;
    for (p, a) in prog.params.iter().zip(args) {
        fr.env.insert(p.name, Arc::new(a.clone()));
    }
    let started = Instant::now();
    let eval = exec.eval_body(&mut fr, &prog.body);
    let wall_nanos = started.elapsed().as_nanos() as f64;
    let pool_telem = pool_before.map(|b| pool.telemetry().delta_since(&b));
    let mut spans = match &session {
        Some(s) if s.recording_spans() => s.take_spans(),
        _ => Vec::new(),
    };
    drop(session);
    // Keep only spans stamped with this run's kernel tags: concurrent
    // runs on the same pool may have recorded tasks into the shared
    // logs while our span session was live, but their tags (0, or
    // another run's fresh tags) never collide with ours.
    if !spans.is_empty() {
        let own: std::collections::HashSet<u64> =
            fr.launches.iter().map(|l| l.tag).filter(|&t| t != 0).collect();
        spans.retain(|s| own.contains(&s.tag));
    }
    let res = eval?;
    if let Some(t) = &pool_telem {
        // Surface run totals through the process-global registry so
        // `FLAT_OBS=summary` (and json snapshots) report them.
        let total = t.total();
        let m = flat_obs::global().metrics();
        m.add("exec.pool.tasks", total.tasks);
        m.add("exec.pool.steals", total.steals);
        m.add("exec.pool.steal_fails", total.steal_fails);
        m.add("exec.pool.parks", total.parks);
        m.add("exec.pool.busy_ns", total.busy_ns);
        for l in &fr.launches {
            m.observe("exec.kernel_ns", l.nanos as u64);
        }
    }
    Ok(ExecReport {
        values: res.iter().map(|v| (**v).clone()).collect(),
        path: fr.path,
        launches: fr.launches,
        wall_nanos,
        threads: pool.threads(),
        grain: cfg.grain.max(1),
        pool: pool_telem,
        spans,
        step_elems: None,
    })
}

type Env = HashMap<VName, Arc<Value>>;

/// Per-evaluation-context state: bindings plus the records a kernel
/// task accumulates privately and the host merges in task order.
struct Frame {
    env: Env,
    path: Vec<CmpRecord>,
    launches: Vec<ExecLaunch>,
    in_kernel: bool,
}

impl Frame {
    fn new(env: Env) -> Frame {
        Frame {
            env,
            path: Vec::new(),
            launches: Vec::new(),
            in_kernel: true,
        }
    }
}

struct Exec<'a> {
    thresholds: &'a Thresholds,
    pool: &'a workpool::Pool,
    grain: usize,
    t0: Instant,
    /// Whether this run collects telemetry (mirrors the pool switch).
    telem: bool,
    /// Tag of the host-level kernel currently dispatching, stamped onto
    /// its pool jobs so task spans can be joined back to the launch.
    /// Tags come from [`workpool::fresh_tag`], so they are unique even
    /// across concurrent runs sharing a pool.
    cur_tag: AtomicU64,
}

impl Exec<'_> {
    fn lookup(&self, fr: &Frame, v: VName) -> Result<Arc<Value>> {
        fr.env
            .get(&v)
            .cloned()
            .ok_or_else(|| ExecError(format!("variable {v} unbound")))
    }

    fn lookup_array(&self, fr: &Frame, v: VName) -> Result<Arc<Value>> {
        let val = self.lookup(fr, v)?;
        match &*val {
            Value::Array(_) => Ok(val),
            Value::Scalar(_) => err(format!("expected array, {v} is a scalar")),
        }
    }

    fn subexp(&self, fr: &Frame, se: &SubExp) -> Result<Arc<Value>> {
        match se {
            SubExp::Const(c) => Ok(Arc::new(Value::Scalar(*c))),
            SubExp::Var(v) => self.lookup(fr, *v),
        }
    }

    fn subexp_const(&self, fr: &Frame, se: &SubExp) -> Result<Const> {
        match se {
            SubExp::Const(c) => Ok(*c),
            SubExp::Var(v) => match &*self.lookup(fr, *v)? {
                Value::Scalar(c) => Ok(*c),
                Value::Array(_) => err(format!("expected scalar, {v} is an array")),
            },
        }
    }

    fn subexp_i64(&self, fr: &Frame, se: &SubExp) -> Result<i64> {
        self.subexp_const(fr, se)?
            .as_i64()
            .ok_or_else(|| ExecError("expected integral scalar".into()))
    }

    fn eval_body(&self, fr: &mut Frame, body: &Body) -> Result<Vec<Arc<Value>>> {
        for stm in &body.stms {
            let vals = self.eval_exp(fr, stm)?;
            if vals.len() != stm.pat.len() {
                return err(format!(
                    "statement produced {} values for {} bindings",
                    vals.len(),
                    stm.pat.len()
                ));
            }
            for (p, v) in stm.pat.iter().zip(vals) {
                fr.env.insert(p.name, v);
            }
        }
        body.result.iter().map(|r| self.subexp(fr, r)).collect()
    }

    fn apply(&self, fr: &mut Frame, lam: &Lambda, args: Vec<Arc<Value>>) -> Result<Vec<Arc<Value>>> {
        if lam.params.len() != args.len() {
            return err(format!(
                "lambda arity {} vs {} arguments",
                lam.params.len(),
                args.len()
            ));
        }
        for (p, a) in lam.params.iter().zip(args) {
            fr.env.insert(p.name, a);
        }
        self.eval_body(fr, &lam.body)
    }

    fn eval_exp(&self, fr: &mut Frame, stm: &Stm) -> Result<Vec<Arc<Value>>> {
        match &stm.exp {
            Exp::SubExp(se) => Ok(vec![self.subexp(fr, se)?]),
            Exp::UnOp(op, a) => {
                let v = self.subexp_const(fr, a)?;
                Ok(vec![Arc::new(Value::Scalar(interp::eval_unop(*op, v)?))])
            }
            Exp::BinOp(op, a, b) => {
                let x = self.subexp_const(fr, a)?;
                let y = self.subexp_const(fr, b)?;
                Ok(vec![Arc::new(Value::Scalar(interp::eval_binop(*op, x, y)?))])
            }
            Exp::CmpThreshold { factors, threshold } => {
                // Live dispatch: the actual degree of parallelism of this
                // dataset, compared against the loaded assignment.
                let mut par: i64 = 1;
                for f in factors {
                    par = par.saturating_mul(self.subexp_i64(fr, f)?);
                }
                let taken = par >= self.thresholds.get(*threshold);
                fr.path.push(CmpRecord {
                    id: *threshold,
                    par,
                    taken,
                });
                Ok(vec![Arc::new(Value::Scalar(Const::Bool(taken)))])
            }
            Exp::Index { arr, idxs } => {
                let v = self.lookup_array(fr, *arr)?;
                let Value::Array(a) = &*v else { unreachable!() };
                let is: Vec<i64> = idxs
                    .iter()
                    .map(|i| self.subexp_i64(fr, i))
                    .collect::<Result<_>>()?;
                if is.len() > a.rank() {
                    return err("too many indices");
                }
                for (k, &i) in is.iter().enumerate() {
                    if i < 0 || i >= a.shape[k] {
                        return err(format!(
                            "index {i} out of bounds for axis {k} of extent {}",
                            a.shape[k]
                        ));
                    }
                }
                Ok(vec![Arc::new(a.index_outer_many(&is))])
            }
            Exp::Iota { n } => {
                let n = self.subexp_i64(fr, n)?;
                if n < 0 {
                    return err("iota of negative length");
                }
                Ok(vec![Arc::new(Value::i64_vec((0..n).collect()))])
            }
            Exp::Replicate { n, elem } => {
                let n = self.subexp_i64(fr, n)?;
                if n < 0 {
                    return err("replicate of negative length");
                }
                let v = self.subexp(fr, elem)?;
                Ok(vec![Arc::new(replicate_value(n, &v))])
            }
            Exp::Rearrange { perm, arr } => {
                let v = self.lookup_array(fr, *arr)?;
                let Value::Array(a) = &*v else { unreachable!() };
                Ok(vec![Arc::new(Value::Array(a.rearrange(perm)))])
            }
            Exp::ArrayLit { elems, elem_ty } => {
                let mut buf = Buffer::with_capacity(elem_ty.scalar, elems.len());
                for e in elems {
                    buf.push(self.subexp_const(fr, e)?);
                }
                Ok(vec![Arc::new(Value::Array(ArrayVal::new(
                    vec![elems.len() as i64],
                    buf,
                )))])
            }
            Exp::If { cond, tb, fb, .. } => {
                let c = match self.subexp_const(fr, cond)? {
                    Const::Bool(b) => b,
                    other => return err(format!("if condition is {other}, not bool")),
                };
                if c {
                    self.eval_body(fr, tb)
                } else {
                    self.eval_body(fr, fb)
                }
            }
            Exp::Loop {
                params,
                ivar,
                bound,
                body,
            } => {
                let n = self.subexp_i64(fr, bound)?;
                let mut vals: Vec<Arc<Value>> = params
                    .iter()
                    .map(|(_, init)| self.subexp(fr, init))
                    .collect::<Result<_>>()?;
                for i in 0..n {
                    fr.env.insert(*ivar, Arc::new(Value::i64_(i)));
                    for ((p, _), v) in params.iter().zip(&vals) {
                        fr.env.insert(p.name, v.clone());
                    }
                    vals = self.eval_body(fr, body)?;
                    if vals.len() != params.len() {
                        return err("loop body arity mismatch");
                    }
                }
                Ok(vals)
            }
            Exp::Soac(so) => self.eval_soac(fr, so),
            Exp::Seg(op) => self.eval_seg(fr, op, stm),
        }
    }

    fn soac_inputs(
        &self,
        fr: &Frame,
        w: &SubExp,
        arrs: &[VName],
    ) -> Result<(i64, Vec<Arc<Value>>)> {
        let n = self.subexp_i64(fr, w)?;
        let mut vals = Vec::with_capacity(arrs.len());
        for a in arrs {
            let v = self.lookup_array(fr, *a)?;
            let Value::Array(av) = &*v else { unreachable!() };
            if av.shape[0] != n {
                return err(format!(
                    "SOAC width {n} but array {a} has outer size {}",
                    av.shape[0]
                ));
            }
            vals.push(v);
        }
        Ok((n, vals))
    }

    /// SOACs in the target language execute sequentially, exactly as in
    /// the interpreter.
    fn eval_soac(&self, fr: &mut Frame, so: &Soac) -> Result<Vec<Arc<Value>>> {
        let index0 = |v: &Arc<Value>, i: i64| -> Arc<Value> {
            let Value::Array(a) = &**v else { unreachable!() };
            Arc::new(a.index_outer(i))
        };
        match so {
            Soac::Map { w, lam, arrs } => {
                let (n, inputs) = self.soac_inputs(fr, w, arrs)?;
                let mut out: Option<Vec<ResultAcc>> = None;
                for i in 0..n {
                    let args: Vec<Arc<Value>> = inputs.iter().map(|a| index0(a, i)).collect();
                    let res = self.apply(fr, lam, args)?;
                    accumulate(&mut out, &res)?;
                }
                Ok(finish_soac(out, n, &lam.ret))
            }
            Soac::Reduce { w, lam, nes, arrs } => {
                let (n, inputs) = self.soac_inputs(fr, w, arrs)?;
                let mut acc: Vec<Arc<Value>> = nes
                    .iter()
                    .map(|ne| self.subexp(fr, ne))
                    .collect::<Result<_>>()?;
                for i in 0..n {
                    let mut args = acc;
                    args.extend(inputs.iter().map(|a| index0(a, i)));
                    acc = self.apply(fr, lam, args)?;
                }
                Ok(acc)
            }
            Soac::Scan { w, lam, nes, arrs } => {
                let (n, inputs) = self.soac_inputs(fr, w, arrs)?;
                let mut acc: Vec<Arc<Value>> = nes
                    .iter()
                    .map(|ne| self.subexp(fr, ne))
                    .collect::<Result<_>>()?;
                let mut out: Option<Vec<ResultAcc>> = None;
                for i in 0..n {
                    let mut args = acc;
                    args.extend(inputs.iter().map(|a| index0(a, i)));
                    acc = self.apply(fr, lam, args)?;
                    accumulate(&mut out, &acc)?;
                }
                Ok(finish_soac(out, n, &lam.ret))
            }
            Soac::Redomap {
                w,
                red,
                map,
                nes,
                arrs,
            } => {
                let (n, inputs) = self.soac_inputs(fr, w, arrs)?;
                let mut acc: Vec<Arc<Value>> = nes
                    .iter()
                    .map(|ne| self.subexp(fr, ne))
                    .collect::<Result<_>>()?;
                for i in 0..n {
                    let args: Vec<Arc<Value>> = inputs.iter().map(|a| index0(a, i)).collect();
                    let mapped = self.apply(fr, map, args)?;
                    let mut rargs = acc;
                    rargs.extend(mapped);
                    acc = self.apply(fr, red, rargs)?;
                }
                Ok(acc)
            }
            Soac::Scanomap {
                w,
                scan,
                map,
                nes,
                arrs,
            } => {
                let (n, inputs) = self.soac_inputs(fr, w, arrs)?;
                let mut acc: Vec<Arc<Value>> = nes
                    .iter()
                    .map(|ne| self.subexp(fr, ne))
                    .collect::<Result<_>>()?;
                let mut out: Option<Vec<ResultAcc>> = None;
                for i in 0..n {
                    let args: Vec<Arc<Value>> = inputs.iter().map(|a| index0(a, i)).collect();
                    let mapped = self.apply(fr, map, args)?;
                    let mut sargs = acc;
                    sargs.extend(mapped);
                    acc = self.apply(fr, scan, sargs)?;
                    accumulate(&mut out, &acc)?;
                }
                Ok(finish_soac(out, n, &scan.ret))
            }
        }
    }

    /// Bind the element parameters of the first `ndims` context
    /// dimensions for the point `idxs`, outermost first (inner dimensions
    /// may bind arrays introduced by outer ones).
    fn bind_ctx(
        &self,
        fr: &mut Frame,
        op: &SegOp,
        widths: &[i64],
        idxs: &[i64],
        ndims: usize,
    ) -> Result<()> {
        for (k, dim) in op.ctx.iter().take(ndims).enumerate() {
            for (p, arr) in &dim.binds {
                let v = self.lookup_array(fr, *arr)?;
                let Value::Array(av) = &*v else { unreachable!() };
                if av.shape[0] != widths[k] {
                    return err(format!(
                        "segop context dim {k}: width {} but array {arr} outer size {}",
                        widths[k], av.shape[0]
                    ));
                }
                fr.env.insert(p.name, Arc::new(av.index_outer(idxs[k])));
            }
        }
        Ok(())
    }

    /// Bind the outer (non-innermost) context dimensions for a segment.
    fn bind_segment(&self, fr: &mut Frame, op: &SegOp, widths: &[i64], seg: i64) -> Result<()> {
        let p = widths.len();
        let mut idxs = vec![0i64; p];
        let mut rem = seg;
        for k in (0..p - 1).rev() {
            idxs[k] = rem % widths[k];
            rem /= widths[k];
        }
        self.bind_ctx(fr, op, widths, &idxs, p - 1)
    }

    /// Bind the innermost context dimension's parameters for element `j`.
    fn bind_inner(&self, fr: &mut Frame, op: &SegOp, inner_w: i64, j: i64) -> Result<()> {
        let dim = op
            .ctx
            .last()
            .ok_or_else(|| ExecError("segop with empty context".into()))?;
        for (p, arr) in &dim.binds {
            let v = self.lookup_array(fr, *arr)?;
            let Value::Array(av) = &*v else { unreachable!() };
            if av.shape[0] != inner_w {
                return err(format!(
                    "segop innermost dim: width {inner_w} but array {arr} outer size {}",
                    av.shape[0]
                ));
            }
            fr.env.insert(p.name, Arc::new(av.index_outer(j)));
        }
        Ok(())
    }

    fn eval_seg(&self, fr: &mut Frame, op: &SegOp, stm: &Stm) -> Result<Vec<Arc<Value>>> {
        let widths: Vec<i64> = op
            .ctx
            .iter()
            .map(|d| self.subexp_i64(fr, &d.width))
            .collect::<Result<_>>()?;
        let inner_w = *widths
            .last()
            .ok_or_else(|| ExecError("segop with empty context".into()))?;
        if widths.iter().any(|&w| w < 0) {
            return err(format!("segop with negative width in {widths:?}"));
        }
        let total: i64 = widths.iter().product();
        let segments: i64 = widths[..widths.len() - 1].iter().product();
        let out_shape: Vec<i64> = match op.kind {
            SegKind::Red { .. } => widths[..widths.len() - 1].to_vec(),
            _ => widths.clone(),
        };

        let kind_name = op.kind.name();
        let record = !fr.in_kernel;
        let path_sig = gpu_sim::path_signature(&fr.path);
        let start_nanos = self.t0.elapsed().as_nanos() as f64;
        let _span = if record {
            Some(flat_obs::span("exec", kind_name))
        } else {
            None
        };
        // Telemetry scope for this kernel: a fresh tag for its pool
        // jobs, a counter snapshot to delta against, and the start time
        // on the pool clock (the clock task spans are expressed in).
        let telem_on = record && self.telem;
        let tag = if telem_on { workpool::fresh_tag() } else { 0 };
        self.cur_tag.store(tag, Ordering::Relaxed);
        let pool_before = telem_on.then(|| self.pool.telemetry());
        let pool_start_ns = if telem_on { self.pool.now_ns() } else { 0 };
        let started = Instant::now();

        let (out, tasks) = match &op.kind {
            SegKind::Map => self.seg_map(fr, op, &widths, total)?,
            SegKind::Red { op: lam, nes } => {
                self.seg_red(fr, op, lam, nes, &widths, segments, inner_w)?
            }
            SegKind::Scan { op: lam, nes } => {
                self.seg_scan(fr, op, lam, nes, &widths, segments, inner_w, total)?
            }
        };

        if record {
            flat_obs::counter("exec.launches").inc();
            let telem = pool_before.map(|before| KernelTelem {
                pool: self.pool.telemetry().delta_since(&before),
                task_sizes: crate::obs::task_size_histogram(
                    matches!(op.kind, SegKind::Map),
                    total,
                    segments,
                    inner_w,
                    self.grain,
                ),
            });
            fr.launches.push(ExecLaunch {
                name: stm
                    .pat
                    .first()
                    .map(|p| p.name.to_string())
                    .unwrap_or_else(|| kind_name.to_string()),
                kind: kind_name,
                level: op.level,
                space: total.max(0) as f64,
                tasks: tasks as u64,
                nanos: started.elapsed().as_nanos() as f64,
                start_nanos,
                prov: stm.prov,
                path: path_sig,
                widths: widths.clone(),
                tag,
                pool_start_ns,
                telem,
            });
        }

        match out {
            None => Ok(empty_result(op, &out_shape)),
            Some(accs) => Ok(accs
                .into_iter()
                .map(|a| Arc::new(a.finish_shaped(&out_shape)))
                .collect()),
        }
    }

    /// A kernel-side frame: a cheap copy of the host bindings with
    /// private path/launch records.
    fn task_frame(&self, env: &Env) -> Frame {
        Frame::new(env.clone())
    }

    fn seg_map(
        &self,
        fr: &mut Frame,
        op: &SegOp,
        widths: &[i64],
        total: i64,
    ) -> Result<(Option<Vec<ResultAcc>>, usize)> {
        if total <= 0 {
            return Ok((None, 0));
        }
        let total = total as usize;
        let grain = self.grain;
        let n_chunks = total.div_ceil(grain);
        let slots: Vec<TaskSlot<Vec<ResultAcc>>> =
            (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let env = &fr.env;
        let tag = self.cur_tag.load(Ordering::Relaxed);
        self.pool.run_tagged(n_chunks, tag, &|c| {
            let lo = c * grain;
            let hi = ((c + 1) * grain).min(total);
            let mut sub = self.task_frame(env);
            let r = self.map_range(&mut sub, op, widths, lo, hi);
            *slots[c].lock().unwrap() = Some(r.map(|accs| (accs, sub.path)));
        });
        let mut out: Option<Vec<ResultAcc>> = None;
        for slot in slots {
            let (accs, path) = take_slot(slot)?;
            fr.path.extend(path);
            merge_accs(&mut out, accs)?;
        }
        Ok((out, n_chunks))
    }

    fn map_range(
        &self,
        fr: &mut Frame,
        op: &SegOp,
        widths: &[i64],
        lo: usize,
        hi: usize,
    ) -> Result<Vec<ResultAcc>> {
        let p = widths.len();
        let mut idxs = vec![0i64; p];
        let mut out: Option<Vec<ResultAcc>> = None;
        for flat in lo..hi {
            let mut rem = flat as i64;
            for k in (0..p).rev() {
                idxs[k] = rem % widths[k];
                rem /= widths[k];
            }
            self.bind_ctx(fr, op, widths, &idxs, p)?;
            let res = self.eval_body(fr, &op.body)?;
            accumulate(&mut out, &res)?;
        }
        out.ok_or_else(|| ExecError("empty segmap chunk".into()))
    }

    #[allow(clippy::too_many_arguments)]
    fn seg_red(
        &self,
        fr: &mut Frame,
        op: &SegOp,
        lam: &Lambda,
        nes: &[SubExp],
        widths: &[i64],
        segments: i64,
        inner_w: i64,
    ) -> Result<(Option<Vec<ResultAcc>>, usize)> {
        if segments <= 0 {
            return Ok((None, 0));
        }
        let segments = segments as usize;
        let grain = self.grain as i64;
        let blocks = (((inner_w + grain - 1) / grain).max(1)) as usize;
        let tasks = segments * blocks;
        let slots: Vec<TaskSlot<Vec<Arc<Value>>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        let env = &fr.env;
        let tag = self.cur_tag.load(Ordering::Relaxed);
        self.pool.run_tagged(tasks, tag, &|t| {
            let seg = (t / blocks) as i64;
            let b = (t % blocks) as i64;
            let mut sub = self.task_frame(env);
            let r = (|| {
                self.bind_segment(&mut sub, op, widths, seg)?;
                let mut acc: Vec<Arc<Value>> = nes
                    .iter()
                    .map(|ne| self.subexp(&sub, ne))
                    .collect::<Result<_>>()?;
                for j in (b * grain)..(b * grain + grain).min(inner_w) {
                    self.bind_inner(&mut sub, op, inner_w, j)?;
                    let res = self.eval_body(&mut sub, &op.body)?;
                    let mut args = acc;
                    args.extend(res);
                    acc = self.apply(&mut sub, lam, args)?;
                }
                Ok(acc)
            })();
            *slots[t].lock().unwrap() = Some(r.map(|acc| (acc, sub.path)));
        });
        let mut partials: Vec<Vec<Arc<Value>>> = Vec::with_capacity(tasks);
        for slot in slots {
            let (acc, path) = take_slot(slot)?;
            fr.path.extend(path);
            partials.push(acc);
        }
        // Combine block partials left-to-right within each segment, in
        // the segment's context (the operator may use outer bindings).
        let mut out: Option<Vec<ResultAcc>> = None;
        let mut partials = partials.into_iter();
        for seg in 0..segments {
            let mut sub = self.task_frame(&fr.env);
            self.bind_segment(&mut sub, op, widths, seg as i64)?;
            let mut acc = partials
                .next()
                .ok_or_else(|| ExecError("one partial per block missing".into()))?;
            for _ in 1..blocks {
                let mut args = acc;
                args.extend(
                    partials
                        .next()
                        .ok_or_else(|| ExecError("one partial per block missing".into()))?,
                );
                acc = self.apply(&mut sub, lam, args)?;
            }
            fr.path.extend(sub.path);
            accumulate(&mut out, &acc)?;
        }
        Ok((out, tasks))
    }

    #[allow(clippy::too_many_arguments)]
    fn seg_scan(
        &self,
        fr: &mut Frame,
        op: &SegOp,
        lam: &Lambda,
        nes: &[SubExp],
        widths: &[i64],
        segments: i64,
        inner_w: i64,
        total: i64,
    ) -> Result<(Option<Vec<ResultAcc>>, usize)> {
        if total <= 0 {
            return Ok((None, 0));
        }
        let segments = segments as usize;
        let grain = self.grain as i64;
        let blocks = ((inner_w + grain - 1) / grain) as usize;
        let tasks = segments * blocks;

        // Pass 1: per-block local scans. Each task records its scanned
        // elements and its running total (the last accumulator).
        type Scanned = (Vec<ResultAcc>, Vec<Arc<Value>>);
        let slots: Vec<TaskSlot<Scanned>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        let env = &fr.env;
        let tag = self.cur_tag.load(Ordering::Relaxed);
        self.pool.run_tagged(tasks, tag, &|t| {
            let seg = (t / blocks) as i64;
            let b = (t % blocks) as i64;
            let mut sub = self.task_frame(env);
            let r = (|| {
                self.bind_segment(&mut sub, op, widths, seg)?;
                let mut acc: Vec<Arc<Value>> = nes
                    .iter()
                    .map(|ne| self.subexp(&sub, ne))
                    .collect::<Result<_>>()?;
                let mut local: Option<Vec<ResultAcc>> = None;
                for j in (b * grain)..(b * grain + grain).min(inner_w) {
                    self.bind_inner(&mut sub, op, inner_w, j)?;
                    let res = self.eval_body(&mut sub, &op.body)?;
                    let mut args = acc;
                    args.extend(res);
                    acc = self.apply(&mut sub, lam, args)?;
                    accumulate(&mut local, &acc)?;
                }
                let local = local.ok_or_else(|| ExecError("empty segscan block".into()))?;
                Ok((local, acc))
            })();
            *slots[t].lock().unwrap() = Some(r.map(|s| (s, sub.path)));
        });
        let mut pass1: Vec<Scanned> = Vec::with_capacity(tasks);
        for slot in slots {
            let (s, path) = take_slot(slot)?;
            fr.path.extend(path);
            pass1.push(s);
        }

        // Pass 2: sequential prefix over block totals per segment.
        // prefixes[t] is the value to combine into every element of
        // task t's block; None for the first block (already final).
        let mut prefixes: Vec<Option<Vec<Arc<Value>>>> = vec![None; tasks];
        if blocks > 1 {
            for seg in 0..segments {
                let mut sub = self.task_frame(&fr.env);
                self.bind_segment(&mut sub, op, widths, seg as i64)?;
                let mut running: Vec<Arc<Value>> = pass1[seg * blocks].1.clone();
                for b in 1..blocks {
                    prefixes[seg * blocks + b] = Some(running.clone());
                    if b + 1 < blocks {
                        let mut args = running;
                        args.extend(pass1[seg * blocks + b].1.iter().cloned());
                        running = self.apply(&mut sub, lam, args)?;
                    }
                }
                fr.path.extend(std::mem::take(&mut sub.path));
            }
        }

        // Pass 3: parallel fixup — combine the prefix into every element
        // of the later blocks.
        let fixed: Vec<TaskSlot<Vec<ResultAcc>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
        let pass1_ref = &pass1;
        let prefixes_ref = &prefixes;
        self.pool.run_tagged(tasks, tag, &|t| {
            let seg = (t / blocks) as i64;
            let mut sub = self.task_frame(env);
            let r = (|| {
                let (locals, _) = &pass1_ref[t];
                match &prefixes_ref[t] {
                    None => Ok(locals.iter().map(ResultAcc::clone).collect()),
                    Some(prefix) => {
                        self.bind_segment(&mut sub, op, widths, seg)?;
                        let count = locals.first().map(|a| a.count).unwrap_or(0);
                        let mut out: Option<Vec<ResultAcc>> = None;
                        for i in 0..count {
                            let mut args: Vec<Arc<Value>> = prefix.clone();
                            args.extend(locals.iter().map(|a| Arc::new(a.elem_at(i))));
                            let res = self.apply(&mut sub, lam, args)?;
                            accumulate(&mut out, &res)?;
                        }
                        out.ok_or_else(|| ExecError("empty segscan fixup".into()))
                    }
                }
            })();
            *fixed[t].lock().unwrap() = Some(r.map(|accs| (accs, sub.path)));
        });
        let mut out: Option<Vec<ResultAcc>> = None;
        for slot in fixed {
            let (accs, path) = take_slot(slot)?;
            fr.path.extend(path);
            merge_accs(&mut out, accs)?;
        }
        Ok((out, tasks))
    }
}

/// A per-task result slot: the task's value plus its privately recorded
/// threshold comparisons, merged by the host in task order.
type TaskSlot<T> = Mutex<Option<Result<(T, Vec<CmpRecord>)>>>;

fn take_slot<T>(slot: TaskSlot<T>) -> Result<(T, Vec<CmpRecord>)> {
    slot.into_inner()
        .unwrap()
        .ok_or_else(|| ExecError("kernel task did not run".into()))?
}

/// Accumulates per-element results into flat buffers, remembering the
/// element shape (the executor's analogue of the interpreter's
/// accumulator, plus an element count for two-pass scans).
#[derive(Clone)]
struct ResultAcc {
    elem_shape: Vec<i64>,
    data: Buffer,
    count: usize,
}

impl ResultAcc {
    fn finish_shaped(self, outer: &[i64]) -> Value {
        if outer.is_empty() && self.elem_shape.is_empty() {
            return Value::Scalar(self.data.get(0));
        }
        let mut shape = outer.to_vec();
        shape.extend(&self.elem_shape);
        Value::Array(ArrayVal::new(shape, self.data))
    }

    /// Reconstruct element `i` (used by the scan fixup pass).
    fn elem_at(&self, i: usize) -> Value {
        if self.elem_shape.is_empty() {
            Value::Scalar(self.data.get(i))
        } else {
            let len = self.elem_shape.iter().product::<i64>() as usize;
            Value::Array(ArrayVal::new(
                self.elem_shape.clone(),
                self.data.slice(i * len, len),
            ))
        }
    }
}

fn accumulate(out: &mut Option<Vec<ResultAcc>>, vals: &[Arc<Value>]) -> Result<()> {
    match out {
        None => {
            *out = Some(
                vals.iter()
                    .map(|v| match &**v {
                        Value::Scalar(c) => {
                            let mut data = Buffer::with_capacity(c.scalar_type(), 16);
                            data.push(*c);
                            ResultAcc {
                                elem_shape: vec![],
                                data,
                                count: 1,
                            }
                        }
                        Value::Array(a) => {
                            let mut data =
                                Buffer::with_capacity(a.data.scalar_type(), a.data.len());
                            data.extend_range(&a.data, 0, a.data.len());
                            ResultAcc {
                                elem_shape: a.shape.clone(),
                                data,
                                count: 1,
                            }
                        }
                    })
                    .collect(),
            );
            Ok(())
        }
        Some(accs) => {
            if accs.len() != vals.len() {
                return err("result arity changed across iterations");
            }
            for (acc, v) in accs.iter_mut().zip(vals) {
                match &**v {
                    Value::Scalar(c) => {
                        acc.data.push(*c);
                        acc.count += 1;
                    }
                    Value::Array(a) => {
                        if a.shape != acc.elem_shape {
                            return err(format!(
                                "irregular parallelism: element shape {:?} vs {:?}",
                                a.shape, acc.elem_shape
                            ));
                        }
                        acc.data.extend_range(&a.data, 0, a.data.len());
                        acc.count += 1;
                    }
                }
            }
            Ok(())
        }
    }
}

/// Concatenate a chunk's accumulators onto the running output (chunks
/// arrive in task order, so this preserves element order).
fn merge_accs(out: &mut Option<Vec<ResultAcc>>, accs: Vec<ResultAcc>) -> Result<()> {
    match out {
        None => {
            *out = Some(accs);
            Ok(())
        }
        Some(cur) => {
            if cur.len() != accs.len() {
                return err("result arity changed across chunks");
            }
            for (c, a) in cur.iter_mut().zip(accs) {
                if a.elem_shape != c.elem_shape {
                    return err(format!(
                        "irregular parallelism: element shape {:?} vs {:?}",
                        a.elem_shape, c.elem_shape
                    ));
                }
                c.data.extend_range(&a.data, 0, a.data.len());
                c.count += a.count;
            }
            Ok(())
        }
    }
}

fn finish_soac(out: Option<Vec<ResultAcc>>, n: i64, ret: &[flat_ir::types::Type]) -> Vec<Arc<Value>> {
    match out {
        Some(accs) => accs
            .into_iter()
            .map(|a| Arc::new(a.finish_shaped(&[n])))
            .collect(),
        None => ret
            .iter()
            .map(|t| {
                let mut shape = vec![0i64];
                shape.extend(std::iter::repeat_n(0, t.rank()));
                Arc::new(Value::Array(ArrayVal::new(
                    shape,
                    Buffer::with_capacity(t.scalar, 0),
                )))
            })
            .collect(),
    }
}

fn empty_result(op: &SegOp, out_shape: &[i64]) -> Vec<Arc<Value>> {
    op.body_ret
        .iter()
        .map(|t| {
            let mut shape = out_shape.to_vec();
            shape.extend(std::iter::repeat_n(0, t.rank()));
            Arc::new(Value::Array(ArrayVal::new(
                shape,
                Buffer::with_capacity(t.scalar, 0),
            )))
        })
        .collect()
}

fn replicate_value(n: i64, v: &Value) -> Value {
    match v {
        Value::Scalar(c) => {
            let mut data = Buffer::with_capacity(c.scalar_type(), n as usize);
            for _ in 0..n {
                data.push(*c);
            }
            Value::Array(ArrayVal::new(vec![n], data))
        }
        Value::Array(a) => {
            let mut data = Buffer::with_capacity(a.data.scalar_type(), n as usize * a.data.len());
            for _ in 0..n {
                data.extend_range(&a.data, 0, a.data.len());
            }
            let mut shape = vec![n];
            shape.extend(&a.shape);
            Value::Array(ArrayVal::new(shape, data))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_ir::builder::*;
    use flat_ir::types::{Param, Type};
    use flat_ir::ScalarType;

    fn cfg(threads: usize, grain: usize) -> ExecConfig {
        ExecConfig {
            thresholds: Thresholds::new(),
            threads: Some(threads),
            grain,
            ..ExecConfig::default()
        }
    }

    /// A segred-of-rows program: `[n][m]i64 -> [n]i64` row sums.
    fn segred_prog() -> Program {
        let mut pb = ProgramBuilder::new("rowsums");
        let n = pb.size_param("n");
        let m = pb.size_param("m");
        let xss = pb.param(
            "xss",
            Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n)),
        );
        let xs_p = Param::fresh("xs", Type::i64().array_of(SubExp::Var(m)));
        let x_p = Param::fresh("x", Type::i64());
        let seg = SegOp {
            kind: SegKind::Red {
                op: binop_lambda(BinOp::Add, ScalarType::I64),
                nes: vec![SubExp::i64(0)],
            },
            level: LVL_GRID,
            ctx: vec![
                CtxDim::new(SubExp::Var(n), vec![(xs_p.clone(), xss)]),
                CtxDim::new(SubExp::Var(m), vec![(x_p.clone(), xs_p.name)]),
            ],
            body: Body::results(vec![SubExp::Var(x_p.name)]),
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let out_t = Type::i64().array_of(SubExp::Var(n));
        let ys = pb.body.bind("ys", out_t.clone(), Exp::Seg(seg));
        pb.finish(vec![SubExp::Var(ys)], vec![out_t])
    }

    fn segscan_prog() -> Program {
        let mut pb = ProgramBuilder::new("rowscans");
        let n = pb.size_param("n");
        let m = pb.size_param("m");
        let xss = pb.param(
            "xss",
            Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n)),
        );
        let xs_p = Param::fresh("xs", Type::i64().array_of(SubExp::Var(m)));
        let x_p = Param::fresh("x", Type::i64());
        let seg = SegOp {
            kind: SegKind::Scan {
                op: binop_lambda(BinOp::Add, ScalarType::I64),
                nes: vec![SubExp::i64(0)],
            },
            level: LVL_GRID,
            ctx: vec![
                CtxDim::new(SubExp::Var(n), vec![(xs_p.clone(), xss)]),
                CtxDim::new(SubExp::Var(m), vec![(x_p.clone(), xs_p.name)]),
            ],
            body: Body::results(vec![SubExp::Var(x_p.name)]),
            body_ret: vec![Type::i64()],
            tiling: Tiling::None,
        };
        let out_t = Type::i64().array_of(SubExp::Var(m)).array_of(SubExp::Var(n));
        let ys = pb.body.bind("ys", out_t.clone(), Exp::Seg(seg));
        pb.finish(vec![SubExp::Var(ys)], vec![out_t])
    }

    fn matrix(n: i64, m: i64) -> Value {
        let data: Vec<i64> = (0..n * m).map(|i| i * 7 - 3).collect();
        Value::array_from(vec![n, m], Buffer::I64(data))
    }

    #[test]
    fn segred_matches_interpreter_across_grains_and_threads() {
        let prog = segred_prog();
        let args = vec![Value::i64_(5), Value::i64_(13), matrix(5, 13)];
        let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
        for threads in [1, 4, 8] {
            for grain in [1, 3, 256] {
                let rep = run_program(&prog, &args, &cfg(threads, grain)).unwrap();
                assert_eq!(rep.values, expect, "threads={threads} grain={grain}");
                assert_eq!(rep.launches.len(), 1);
                assert_eq!(rep.launches[0].kind, "segred");
            }
        }
    }

    #[test]
    fn segscan_matches_interpreter_across_grains_and_threads() {
        let prog = segscan_prog();
        let args = vec![Value::i64_(4), Value::i64_(17), matrix(4, 17)];
        let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
        for threads in [1, 4, 8] {
            for grain in [1, 5, 256] {
                let rep = run_program(&prog, &args, &cfg(threads, grain)).unwrap();
                assert_eq!(rep.values, expect, "threads={threads} grain={grain}");
            }
        }
    }

    #[test]
    fn empty_spaces_match_interpreter() {
        let prog = segred_prog();
        for (n, m) in [(0, 5), (5, 0), (0, 0)] {
            let args = vec![Value::i64_(n), Value::i64_(m), matrix(n, m)];
            let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
            let rep = run_program(&prog, &args, &cfg(4, 2)).unwrap();
            assert_eq!(rep.values, expect, "n={n} m={m}");
        }
        let prog = segscan_prog();
        for (n, m) in [(0, 5), (5, 0)] {
            let args = vec![Value::i64_(n), Value::i64_(m), matrix(n, m)];
            let expect = interp::run_program(&prog, &args, &Thresholds::new()).unwrap();
            let rep = run_program(&prog, &args, &cfg(4, 2)).unwrap();
            assert_eq!(rep.values, expect, "n={n} m={m}");
        }
    }

    #[test]
    fn threshold_guard_is_dispatched_live() {
        let mut pb = ProgramBuilder::new("guarded");
        let n = pb.size_param("n");
        let c = pb.body.bind(
            "c",
            Type::bool(),
            Exp::CmpThreshold {
                factors: vec![SubExp::Var(n)],
                threshold: ThresholdId(0),
            },
        );
        let r = pb.body.bind(
            "r",
            Type::i64(),
            Exp::If {
                cond: SubExp::Var(c),
                tb: Body::results(vec![SubExp::i64(1)]),
                fb: Body::results(vec![SubExp::i64(2)]),
                ret: vec![Type::i64()],
            },
        );
        let prog = pb.finish(vec![SubExp::Var(r)], vec![Type::i64()]);

        let t = Thresholds::new().with(ThresholdId(0), 100);
        let hi = run_program(
            &prog,
            &[Value::i64_(500)],
            &ExecConfig {
                thresholds: t.clone(),
                threads: Some(2),
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(hi.values, vec![Value::i64_(1)]);
        assert_eq!(hi.signature(), vec![(0, true)]);
        assert_eq!(hi.path[0].par, 500);

        let lo = run_program(
            &prog,
            &[Value::i64_(50)],
            &ExecConfig {
                thresholds: t,
                threads: Some(2),
                ..ExecConfig::default()
            },
        )
        .unwrap();
        assert_eq!(lo.values, vec![Value::i64_(2)]);
        assert_eq!(lo.signature(), vec![(0, false)]);
    }
}
