//! The one kernel decomposition: how a `segmap`/`segred`/`segscan` is
//! split into pool tasks, dispatched, and joined — shared by every
//! execution tier, which supplies only the leaf work through [`Tier`].
//!
//! Each kernel is a `(leaf, join)` pair over an index split:
//!
//! * `segmap`: the flattened space is cut into chunks of at most a grain
//!   — at host level, of `min(grain, ⌈points/16⌉)` points, so a narrow
//!   outer map still yields about 16 tasks; each task runs
//!   [`Tier::map_range`] into a private accumulator; the join is
//!   concatenation in task order.
//! * `segred`: each (segment, block) task runs [`Tier::fold_block`] from
//!   the neutral element; the join is the operator itself
//!   ([`Tier::combine`]), left-to-right per segment. With one block per
//!   segment nothing is combined, so the result is exactly the
//!   interpreter's fold (bitwise, even for floats); with several blocks
//!   it is the same reassociation for every thread count.
//! * `segscan`: per-block local scans (`fold_block` with a sink), a
//!   sequential prefix over block totals (`combine`), then a parallel
//!   [`Tier::fixup`] of every block after the first. A one-block
//!   segment's local scan is already final and is not dispatched again.
//!
//! ## Determinism
//!
//! The [`Split`] depends on the iteration space, the configured *grain*
//! and the launch level (host or kernel-side) only — never on the
//! thread count — and task results are joined in task order on the
//! calling thread. Two runs with different
//! `FLAT_EXEC_THREADS` therefore produce bit-identical values, and two
//! tiers with equivalent leaves produce bit-identical values, paths and
//! launch records, because there is no second copy of this file's logic
//! for them to disagree with.
//!
//! The module also owns what surrounds a kernel: the run harness
//! ([`Kernels::begin`]/[`Kernels::finish`]: pool choice, telemetry
//! session, span filtering, `<tier>.*` metrics, [`ExecReport`]), the
//! launch record, and the result accumulators.

use crate::obs::KernelTelem;
use flat_ir::ast::{Const, Level};
use flat_ir::interp::{self as interp, Thresholds};
use flat_ir::prov::Prov;
use flat_ir::types::Type;
use flat_ir::value::{ArrayVal, Buffer, Value};
use flat_obs::metrics::Histogram;
use gpu_sim::CmpRecord;
use std::fmt;
use std::ops::Range;
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

pub type Result<T> = std::result::Result<T, ExecError>;

pub fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(ExecError(msg.into()))
}

/// Default elements per parallel task. Small enough that the modest
/// inner widths of the test programs still split into several blocks,
/// large enough that per-task overhead stays negligible.
pub const DEFAULT_GRAIN: usize = 256;

/// Tasks a host-level `segmap` is cut into when it is narrower than
/// this many grains: its chunks shrink below the grain (to one point at
/// least) so the outer map alone occupies the pool, and the segops
/// nested in its body run inline inside those tasks.
const MAP_TASKS: usize = 16;

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecConfig {
    /// The live threshold assignment guards are evaluated against
    /// (defaults, a `.tuning` file, or explicit overrides).
    pub thresholds: Thresholds,
    /// Thread count; `None` uses the process default, which honours
    /// `FLAT_EXEC_THREADS`.
    pub threads: Option<usize>,
    /// At most this many elements per parallel task. Fixes the kernel
    /// decomposition independently of the thread count (see the module
    /// docs).
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
    /// Tasks of the kernel's [`Split`] (a multi-block `segscan`
    /// dispatches them twice: local scans, then fixups).
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
    /// The grain the decomposition used: the most elements of a task.
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
        flat_ir::interp::path_signature(&self.path)
    }
}

/// The records an evaluation context accumulates: a tier's frame embeds
/// one (`AsMut<Trail>`). A kernel task records privately and the join
/// merges the tasks' comparisons into the host's, in task order. The
/// default is the trail of a run's host frame.
#[derive(Default)]
pub struct Trail {
    /// Threshold comparisons in evaluation order; tiers push here.
    pub path: Vec<CmpRecord>,
    launches: Vec<ExecLaunch>,
    /// Inside a kernel task nested segops still decompose, but only
    /// host-level dispatches are recorded as launches.
    in_kernel: bool,
}

impl Trail {
    /// The trail of a forked (kernel-side) frame.
    pub fn task() -> Trail {
        Trail { in_kernel: true, ..Trail::default() }
    }
}

// -- result accumulators -------------------------------------------------

/// Per-point results gathered into one flat buffer, remembering the
/// element shape (the analogue of the interpreter's accumulator, plus a
/// point count for the two-pass scan).
#[derive(Clone)]
pub struct ResultAcc {
    elem_shape: Vec<i64>,
    data: Buffer,
    count: usize,
}

/// A kernel's (or task's) results so far; `None` until the first point.
pub type Accs = Option<Vec<ResultAcc>>;

impl ResultAcc {
    /// An accumulator of scalars with room for `room` points.
    #[inline]
    pub fn scalars(st: flat_ir::ScalarType, room: usize) -> ResultAcc {
        ResultAcc { elem_shape: vec![], data: Buffer::with_capacity(st, room), count: 0 }
    }

    /// Points accumulated so far.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The scalar type when the points are scalars.
    #[inline]
    pub fn scalar_type(&self) -> Option<flat_ir::ScalarType> {
        self.elem_shape.is_empty().then(|| self.data.scalar_type())
    }

    /// Append `n` scalar points at once; `fill` must push exactly `n`
    /// elements of the buffer's type.
    #[inline]
    pub fn extend_scalars(&mut self, n: usize, fill: impl FnOnce(&mut Buffer)) {
        let before = self.data.len();
        fill(&mut self.data);
        assert_eq!(self.data.len(), before + n, "extend_scalars: fill pushed a different count");
        self.count += n;
    }

    /// The accumulated points as one array, outermost dimension first.
    pub fn to_array(&self) -> ArrayVal {
        let mut shape = vec![self.count as i64];
        shape.extend(&self.elem_shape);
        ArrayVal::new(shape, self.data.clone())
    }

    /// Reconstruct point `i`.
    pub fn elem_at(&self, i: usize) -> Value {
        if self.elem_shape.is_empty() {
            Value::Scalar(self.data.get(i))
        } else {
            let len = self.elem_shape.iter().product::<i64>() as usize;
            Value::Array(ArrayVal::new(self.elem_shape.clone(), self.data.slice(i * len, len)))
        }
    }

    fn finish_shaped(self, outer: &[i64]) -> Value {
        if outer.is_empty() && self.elem_shape.is_empty() {
            return Value::Scalar(self.data.get(0));
        }
        let mut shape = outer.to_vec();
        shape.extend(&self.elem_shape);
        Value::Array(ArrayVal::new(shape, self.data))
    }
}

/// One result of one point on its way into a [`ResultAcc`], read where
/// it lies.
pub enum Point<'a> {
    S(Const),
    A(&'a ArrayVal),
}

/// A value that crosses a task boundary (block totals, scan prefixes).
pub trait CrossVal: Clone + Send + Sync {
    fn point(&self) -> Point<'_>;
}

impl CrossVal for Arc<Value> {
    fn point(&self) -> Point<'_> {
        match &**self {
            Value::Scalar(c) => Point::S(*c),
            Value::Array(a) => Point::A(a),
        }
    }
}

/// Append one point's `n` results onto the accumulators.
pub fn accumulate<'a>(
    out: &mut Accs,
    n: usize,
    mut point: impl FnMut(usize) -> Result<Point<'a>>,
) -> Result<()> {
    let Some(accs) = out else {
        let first = |k| {
            Ok(match point(k)? {
                Point::S(c) => {
                    let mut data = Buffer::with_capacity(c.scalar_type(), 16);
                    data.push(c);
                    ResultAcc { elem_shape: vec![], data, count: 1 }
                }
                Point::A(a) => {
                    ResultAcc { elem_shape: a.shape.clone(), data: a.data.clone(), count: 1 }
                }
            })
        };
        *out = Some((0..n).map(first).collect::<Result<_>>()?);
        return Ok(());
    };
    if accs.len() != n {
        return err("result arity changed across iterations");
    }
    for (k, acc) in accs.iter_mut().enumerate() {
        match point(k)? {
            Point::S(c) if c.scalar_type() == acc.data.scalar_type() => acc.data.push(c),
            Point::S(_) => return err("result type changed across iterations"),
            Point::A(a) if a.shape == acc.elem_shape => {
                acc.data.extend_range(&a.data, 0, a.data.len())
            }
            Point::A(a) => {
                return err(format!(
                    "irregular parallelism: element shape {:?} vs {:?}",
                    a.shape, acc.elem_shape
                ))
            }
        }
        acc.count += 1;
    }
    Ok(())
}

/// Concatenate a task's accumulators onto the running output (tasks
/// arrive in task order, so this preserves element order).
fn merge_accs(out: &mut Accs, accs: Vec<ResultAcc>) -> Result<()> {
    let Some(cur) = out else {
        *out = Some(accs);
        return Ok(());
    };
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

/// The result, for one declared element type, of an iteration space
/// with no points: an empty array under the outer shape.
fn empty_result(t: &Type, outer: &[i64]) -> Value {
    let mut shape = outer.to_vec();
    shape.extend(std::iter::repeat_n(0, t.rank()));
    Value::Array(ArrayVal::new(shape, Buffer::with_capacity(t.scalar, 0)))
}

/// Finish per-point results under the outer shape, handing each to
/// `put` in order (also what a sequential SOAC's results go through,
/// hence no intermediate vector).
pub fn finish_results(
    out: Accs,
    rets: &[Type],
    outer: &[i64],
    mut put: impl FnMut(Value) -> Result<()>,
) -> Result<()> {
    match out {
        Some(accs) => accs.into_iter().try_for_each(|acc| put(acc.finish_shaped(outer))),
        None => rets.iter().try_for_each(|t| put(empty_result(t, outer))),
    }
}

// -- the tier interface --------------------------------------------------

/// Which join a kernel uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Map,
    Red,
    Scan,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Map => "segmap",
            Kind::Red => "segred",
            Kind::Scan => "segscan",
        }
    }
}

/// What a tier says about the segop it is launching.
pub struct Launch<'a> {
    /// The first value the kernel binds.
    pub name: &'a dyn fmt::Display,
    pub kind: Kind,
    pub level: Level,
    pub prov: Prov,
    /// Per-result element types, for empty iteration spaces.
    pub body_ret: &'a [Type],
}

/// The leaf work of one segop in one tier. Everything above it — the
/// split, the dispatch, the joins, the records — is [`Kernels::launch`].
pub trait Tier: Sync {
    /// An evaluation context: bindings plus a [`Trail`].
    type Frame: AsMut<Trail> + Sync;
    type Val: CrossVal;

    /// A kernel-side frame: the host's bindings with a [`Trail::task`].
    fn fork(&self, host: &Self::Frame) -> Self::Frame;

    /// Bind the outer (non-innermost) context dimensions for a segment.
    fn bind_segment(&self, fr: &mut Self::Frame, seg: usize) -> Result<()>;

    /// `segmap`: run the body at each flat index of `range`, in order,
    /// appending every point's results to `sink`.
    fn map_range(&self, fr: &mut Self::Frame, range: Range<usize>, sink: &mut Accs) -> Result<()>;

    /// `segred`/`segscan`, in a bound segment: fold the innermost
    /// indices `range` left-to-right from the neutral elements and
    /// return the total, appending every running value to `scan`.
    fn fold_block(
        &self,
        fr: &mut Self::Frame,
        range: Range<usize>,
        scan: Option<&mut Accs>,
    ) -> Result<Vec<Self::Val>>;

    /// `acc <- op(acc, rhs)`, in a bound segment.
    fn combine(
        &self,
        fr: &mut Self::Frame,
        acc: &mut Vec<Self::Val>,
        rhs: &[Self::Val],
    ) -> Result<()>;

    /// `segscan`, in a bound segment: append `op(prefix, x)` to `sink`
    /// for every point `x` of a block's local scan.
    fn fixup(
        &self,
        fr: &mut Self::Frame,
        prefix: &[Self::Val],
        locals: &[ResultAcc],
        sink: &mut Accs,
    ) -> Result<()>;
}

/// How a kernel's iteration space is cut into tasks: `segments` ×
/// `blocks` tasks, task `t` covering a `grain`-sized range of segment
/// `t / blocks`. A `segmap` is one segment over the flattened space.
/// The pool dispatch, [`ExecLaunch::tasks`] and the task-size histogram
/// are all read from this.
struct Split {
    extent: usize,
    grain: usize,
    blocks: usize,
    tasks: usize,
}

impl Split {
    /// `keep_empty`: a zero-extent segment still gets one (empty) block
    /// — a `segred` over nothing yields its neutral element.
    fn new(segments: i64, extent: i64, grain: usize, keep_empty: bool) -> Split {
        let extent = extent.max(0) as usize;
        let blocks = extent.div_ceil(grain).max(keep_empty as usize);
        Split { extent, grain, blocks, tasks: segments.max(0) as usize * blocks }
    }

    /// Task `t`'s segment and its index range within the segment.
    fn task(&self, t: usize) -> (usize, Range<usize>) {
        let lo = t % self.blocks * self.grain;
        (t / self.blocks, lo..(lo + self.grain).min(self.extent))
    }
}

/// A per-task result slot: the task's value plus its privately recorded
/// threshold comparisons.
type TaskSlot<T> = Mutex<Option<Result<(T, Vec<CmpRecord>)>>>;

fn take_slot<T>(slot: TaskSlot<T>) -> Result<(T, Vec<CmpRecord>)> {
    slot.into_inner()
        .expect("a panicking task unwinds the dispatch before its slot is read")
        .ok_or_else(|| ExecError("kernel task did not run".into()))?
}

/// A block's local scan (empty for a `segred`) and its total.
type Folded<V> = (Vec<ResultAcc>, Vec<V>);

/// One run's kernel dispatcher and report builder.
pub struct Kernels {
    tier: &'static str,
    launches: String,
    pool: Arc<workpool::Pool>,
    grain: usize,
    t0: Instant,
    /// A reference-counted session on the shared (process-cached) pool:
    /// counters stay on while any run needs them, and span recording is
    /// owned exclusively, so concurrent runs neither clobber each
    /// other's switches nor steal each other's drained spans.
    session: Option<workpool::TelemetrySession>,
    before: Option<PoolTelemetry>,
    _span: flat_obs::SpanGuard<'static>,
}

impl Kernels {
    /// Start a run of `tier` (`"exec"`, `"vm"`: the prefix of its spans
    /// and metrics).
    pub fn begin(tier: &'static str, cfg: &ExecConfig) -> Kernels {
        let pool = match cfg.threads {
            Some(n) => workpool::pool_with(n),
            None => workpool::global(),
        };
        let _span = flat_obs::span(tier, &format!("{tier}.run"));
        let telem = cfg.telemetry || cfg.worker_trace;
        let session = telem.then(|| pool.telemetry_session(cfg.worker_trace));
        let before = telem.then(|| pool.telemetry());
        Kernels {
            tier,
            launches: format!("{tier}.launches"),
            pool,
            grain: cfg.grain.max(1),
            t0: Instant::now(),
            session,
            before,
            _span,
        }
    }

    /// Whether this run collects telemetry.
    pub fn telemetry(&self) -> bool {
        self.session.is_some()
    }

    /// Close the run: scope the pool counters and spans to it, surface
    /// the totals as `<tier>.*` metrics, assemble the report.
    pub fn finish(
        self,
        trail: Trail,
        wall_nanos: f64,
        values: Result<Vec<Value>>,
    ) -> Result<ExecReport> {
        let pool = self.before.as_ref().map(|b| self.pool.telemetry().delta_since(b));
        let mut spans = match &self.session {
            Some(s) if s.recording_spans() => s.take_spans(),
            _ => Vec::new(),
        };
        // Keep only spans stamped with this run's kernel tags: concurrent
        // runs on the same pool may have recorded tasks into the shared
        // logs while our span session was live, but their tags (0, or
        // another run's fresh tags) never collide with ours.
        if !spans.is_empty() {
            let own: std::collections::HashSet<u64> =
                trail.launches.iter().map(|l| l.tag).filter(|&t| t != 0).collect();
            spans.retain(|s| own.contains(&s.tag));
        }
        let values = values?;
        if let Some(t) = &pool {
            // Through the process-global registry, so `FLAT_OBS=summary`
            // (and json snapshots) report them.
            let total = t.total();
            let m = flat_obs::global().metrics();
            let tier = self.tier;
            m.add(&format!("{tier}.pool.tasks"), total.tasks);
            m.add(&format!("{tier}.pool.steals"), total.steals);
            m.add(&format!("{tier}.pool.steal_fails"), total.steal_fails);
            m.add(&format!("{tier}.pool.parks"), total.parks);
            m.add(&format!("{tier}.pool.busy_ns"), total.busy_ns);
            let kernel_ns = format!("{tier}.kernel_ns");
            for l in &trail.launches {
                m.observe(&kernel_ns, l.nanos as u64);
            }
        }
        Ok(ExecReport {
            values,
            path: trail.path,
            launches: trail.launches,
            wall_nanos,
            threads: self.pool.threads(),
            grain: self.grain,
            pool,
            spans,
            step_elems: None,
        })
    }

    /// Execute one segop over the context `widths` (outermost first):
    /// split, dispatch, join, record, and `put` its finished results.
    pub fn launch<B: Tier>(
        &self,
        body: &B,
        fr: &mut B::Frame,
        k: &Launch<'_>,
        widths: &[i64],
        mut put: impl FnMut(&mut B::Frame, Value) -> Result<()>,
    ) -> Result<()> {
        let Some((&inner_w, outer)) = widths.split_last() else {
            return err("segop with empty context");
        };
        if widths.iter().any(|&w| w < 0) {
            return err(format!("segop with negative width in {widths:?}"));
        }
        let total: i64 = widths.iter().product();
        let segments: i64 = outer.iter().product();
        let trail = fr.as_mut();
        let record = !trail.in_kernel;
        let (split, out_shape) = match k.kind {
            // Concatenation keeps the values of any chunking.
            Kind::Map if record => {
                let chunk = self.grain.min((total as usize).div_ceil(MAP_TASKS)).max(1);
                (Split::new(1, total, chunk, false), widths)
            }
            Kind::Map => (Split::new(1, total, self.grain, false), widths),
            Kind::Red => (Split::new(segments, inner_w, self.grain, true), outer),
            Kind::Scan => (Split::new(segments, inner_w, self.grain, false), widths),
        };

        let path = if record { flat_ir::interp::path_signature(&trail.path) } else { Vec::new() };
        let start_nanos = self.t0.elapsed().as_nanos() as f64;
        let _span = record.then(|| flat_obs::span(self.tier, k.kind.name()));
        // Telemetry scope for this kernel: a fresh tag for its pool
        // jobs (unique even across concurrent runs sharing a pool), a
        // counter snapshot to delta against, and the start time on the
        // pool clock (the clock task spans are expressed in).
        let telem = record && self.telemetry();
        let tag = if telem { workpool::fresh_tag() } else { 0 };
        let pool_before = telem.then(|| self.pool.telemetry());
        let pool_start_ns = if telem { self.pool.now_ns() } else { 0 };
        let started = Instant::now();

        let out = match k.kind {
            _ if split.tasks == 0 => None,
            Kind::Map => self.seg_map(body, fr, &split, tag)?,
            Kind::Red => self.seg_red(body, fr, &split, tag)?,
            Kind::Scan => self.seg_scan(body, fr, &split, tag)?,
        };

        if record {
            flat_obs::counter(&self.launches).inc();
            let telem = pool_before.map(|before| {
                let sizes = Histogram::default();
                for t in 0..split.tasks {
                    sizes.observe(split.task(t).1.len() as u64);
                }
                KernelTelem {
                    pool: self.pool.telemetry().delta_since(&before),
                    task_sizes: sizes.snapshot(),
                }
            });
            fr.as_mut().launches.push(ExecLaunch {
                name: k.name.to_string(),
                kind: k.kind.name(),
                level: k.level,
                space: total as f64,
                tasks: split.tasks as u64,
                nanos: started.elapsed().as_nanos() as f64,
                start_nanos,
                prov: k.prov,
                path,
                widths: widths.to_vec(),
                tag,
                pool_start_ns,
                telem,
            });
        }
        finish_results(out, k.body_ret, out_shape, |v| put(fr, v))
    }

    /// Run `n` tasks on the pool, each on its own fork of `fr`, and
    /// return their values in task order with their threshold
    /// comparisons merged into `fr`'s. The first failed task, in task
    /// order, fails the dispatch.
    fn dispatch<B: Tier, T: Send>(
        &self,
        body: &B,
        fr: &mut B::Frame,
        tag: u64,
        n: usize,
        task: impl Fn(&mut B::Frame, usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let slots: Vec<TaskSlot<T>> = (0..n).map(|_| Mutex::new(None)).collect();
        let host: &B::Frame = fr;
        self.pool.run_tagged(n, tag, &|t| {
            let mut sub = body.fork(host);
            let r = task(&mut sub, t);
            let path = std::mem::take(&mut sub.as_mut().path);
            *slots[t].lock().expect("a task's slot is locked once") = Some(r.map(|v| (v, path)));
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            let (v, path) = take_slot(slot)?;
            fr.as_mut().path.extend(path);
            out.push(v);
        }
        Ok(out)
    }

    /// Run `pass` — the sequential part of a join — on `fr` itself, as
    /// kernel-side code (a segop nested in the operator is not a host
    /// launch). No fork is needed: names and registers are never reused,
    /// so everything the pass binds is dead afterwards, and the
    /// comparisons it records land in `fr`'s trail in order.
    fn kernel_side<F: AsMut<Trail>, T>(
        fr: &mut F,
        pass: impl FnOnce(&mut F) -> Result<T>,
    ) -> Result<T> {
        let saved = std::mem::replace(&mut fr.as_mut().in_kernel, true);
        let out = pass(fr);
        fr.as_mut().in_kernel = saved;
        out
    }

    fn seg_map<B: Tier>(&self, body: &B, fr: &mut B::Frame, split: &Split, tag: u64) -> Result<Accs> {
        let chunks = self.dispatch(body, fr, tag, split.tasks, |sub, t| {
            let mut out = None;
            body.map_range(sub, split.task(t).1, &mut out)?;
            out.ok_or_else(|| ExecError("empty segmap chunk".into()))
        })?;
        let mut out = None;
        for accs in chunks {
            merge_accs(&mut out, accs)?;
        }
        Ok(out)
    }

    /// The parallel pass `segred` and `segscan` share: each (segment,
    /// block) task binds its segment and folds its block from the
    /// neutral elements, leaving the total — and, for a scan, every
    /// running value.
    fn fold_blocks<B: Tier>(
        &self,
        body: &B,
        fr: &mut B::Frame,
        split: &Split,
        tag: u64,
        scan: bool,
    ) -> Result<Vec<Folded<B::Val>>> {
        self.dispatch(body, fr, tag, split.tasks, |sub, t| {
            let (seg, range) = split.task(t);
            body.bind_segment(sub, seg)?;
            let mut local = None;
            let total = body.fold_block(sub, range, scan.then_some(&mut local))?;
            if scan && local.is_none() {
                return err("empty segscan block");
            }
            Ok((local.unwrap_or_default(), total))
        })
    }

    fn seg_red<B: Tier>(&self, body: &B, fr: &mut B::Frame, split: &Split, tag: u64) -> Result<Accs> {
        let blocks = split.blocks;
        let mut totals = self.fold_blocks(body, fr, split, tag, false)?.into_iter().map(|f| f.1);
        let mut out = None;
        let mut push = |acc: &[B::Val]| accumulate(&mut out, acc.len(), |k| Ok(acc[k].point()));
        if blocks == 1 {
            // Nothing to combine: the block totals are the result.
            for acc in totals {
                push(&acc)?;
            }
        } else {
            // Combine block totals left-to-right within each segment, in
            // the segment's context (the operator may use outer bindings).
            Self::kernel_side(fr, |fr| {
                for seg in 0..split.tasks / blocks {
                    body.bind_segment(fr, seg)?;
                    let mut acc = totals.next().expect("one total per block");
                    for rhs in totals.by_ref().take(blocks - 1) {
                        body.combine(fr, &mut acc, &rhs)?;
                    }
                    push(&acc)?;
                }
                Ok(())
            })?;
        }
        Ok(out)
    }

    fn seg_scan<B: Tier>(&self, body: &B, fr: &mut B::Frame, split: &Split, tag: u64) -> Result<Accs> {
        let blocks = split.blocks;
        // Pass 1: per-block local scans and their totals.
        let pass1 = self.fold_blocks(body, fr, split, tag, true)?;
        let mut out = None;
        // With one block per segment nothing has a prefix: the local
        // scans are the result.
        if blocks == 1 {
            for (local, _) in pass1 {
                merge_accs(&mut out, local)?;
            }
            return Ok(out);
        }
        // Pass 2: sequential prefix over block totals per segment.
        // prefixes[t] is combined into every element of task t's block;
        // None for a segment's first block (already final).
        let prefixes = Self::kernel_side(fr, |fr| {
            let mut prefixes: Vec<Option<Vec<B::Val>>> = vec![None; split.tasks];
            for seg in 0..split.tasks / blocks {
                body.bind_segment(fr, seg)?;
                let mut running = pass1[seg * blocks].1.clone();
                for b in 1..blocks {
                    prefixes[seg * blocks + b] = Some(running.clone());
                    if b + 1 < blocks {
                        body.combine(fr, &mut running, &pass1[seg * blocks + b].1)?;
                    }
                }
            }
            Ok(prefixes)
        })?;
        // Pass 3: parallel fixup of the later blocks.
        let fixed = self.dispatch(body, fr, tag, split.tasks, |sub, t| {
            let locals = &pass1[t].0;
            let Some(prefix) = &prefixes[t] else { return Ok(locals.clone()) };
            body.bind_segment(sub, t / blocks)?;
            let mut out = None;
            body.fixup(sub, prefix, locals, &mut out)?;
            out.ok_or_else(|| ExecError("empty segscan fixup".into()))
        })?;
        for accs in fixed {
            merge_accs(&mut out, accs)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_ir::ast::LVL_GRID;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A third tier with nothing to evaluate: `[n][m]i64` rows in a
    /// slice, `+` as the operator, `2x + 1` as the `segmap` body.
    struct Toy<'a> {
        rows: &'a [i64],
        m: usize,
        /// `map_range` calls: one per `segmap` task.
        chunks: AtomicUsize,
    }

    struct ToyFrame {
        seg: usize,
        trail: Trail,
    }

    impl AsMut<Trail> for ToyFrame {
        fn as_mut(&mut self) -> &mut Trail {
            &mut self.trail
        }
    }

    impl CrossVal for i64 {
        fn point(&self) -> Point<'_> {
            Point::S(Const::I64(*self))
        }
    }

    fn push(sink: &mut Accs, x: i64) -> Result<()> {
        accumulate(sink, 1, |_| Ok(x.point()))
    }

    impl Tier for Toy<'_> {
        type Frame = ToyFrame;
        type Val = i64;

        fn fork(&self, _host: &ToyFrame) -> ToyFrame {
            ToyFrame { seg: usize::MAX, trail: Trail::task() }
        }

        fn bind_segment(&self, fr: &mut ToyFrame, seg: usize) -> Result<()> {
            fr.seg = seg;
            Ok(())
        }

        fn map_range(&self, _: &mut ToyFrame, range: Range<usize>, sink: &mut Accs) -> Result<()> {
            self.chunks.fetch_add(1, Ordering::Relaxed);
            range.into_iter().try_for_each(|flat| push(sink, 2 * self.rows[flat] + 1))
        }

        fn fold_block(
            &self,
            fr: &mut ToyFrame,
            range: Range<usize>,
            mut scan: Option<&mut Accs>,
        ) -> Result<Vec<i64>> {
            let mut acc = 0;
            for j in range {
                acc += self.rows[fr.seg * self.m + j];
                if let Some(local) = &mut scan {
                    push(local, acc)?;
                }
            }
            Ok(vec![acc])
        }

        fn combine(&self, _: &mut ToyFrame, acc: &mut Vec<i64>, rhs: &[i64]) -> Result<()> {
            acc[0] += rhs[0];
            Ok(())
        }

        fn fixup(
            &self,
            _: &mut ToyFrame,
            prefix: &[i64],
            locals: &[ResultAcc],
            sink: &mut Accs,
        ) -> Result<()> {
            (0..locals[0].count())
                .try_for_each(|i| push(sink, prefix[0] + locals[0].elem_at(i).as_i64()))
        }
    }

    #[test]
    fn a_toy_tier_gets_the_sequential_results_at_every_grain_and_thread_count() {
        let (n, m) = (5usize, 13usize);
        let rows: Vec<i64> = (0..(n * m) as i64).map(|i| i * 7 - 3).collect();
        let scanned = |row: &[i64]| -> Vec<i64> {
            row.iter().scan(0, |acc, x| { *acc += x; Some(*acc) }).collect()
        };
        let widths = [n as i64, m as i64];
        let expect = [
            (Kind::Map, widths.to_vec(), rows.iter().map(|x| 2 * x + 1).collect::<Vec<_>>()),
            (Kind::Red, vec![n as i64], rows.chunks(m).map(|r| r.iter().sum()).collect()),
            (Kind::Scan, widths.to_vec(), rows.chunks(m).flat_map(scanned).collect()),
        ];
        for grain in [1, 3, 256] {
            for threads in [1, 4] {
                let cfg =
                    ExecConfig { threads: Some(threads), grain, telemetry: true, ..ExecConfig::default() };
                let kernels = Kernels::begin("toy", &cfg);
                let mut fr = ToyFrame { seg: usize::MAX, trail: Trail::default() };
                let mut values = Vec::new();
                for (kind, ..) in &expect {
                    let launch = Launch {
                        name: &kind.name(),
                        kind: *kind,
                        level: LVL_GRID,
                        prov: Prov::UNKNOWN,
                        body_ret: &[Type::i64()],
                    };
                    let toy = Toy { rows: &rows, m, chunks: AtomicUsize::new(0) };
                    let put = |_: &mut ToyFrame, v| {
                        values.push(v);
                        Ok(())
                    };
                    kernels.launch(&toy, &mut fr, &launch, &widths, put).unwrap();
                }
                let rep = kernels.finish(fr.trail, 0.0, Ok(values)).unwrap();
                let at = format!("grain {grain}, {threads} threads");
                for (((kind, shape, data), got), l) in expect.iter().zip(&rep.values).zip(&rep.launches) {
                    let want = Value::array_from(shape.clone(), Buffer::I64(data.clone()));
                    assert_eq!(got, &want, "{}: {at}", kind.name());
                    let tasks = match kind {
                        Kind::Map => (n * m).div_ceil(grain.min((n * m).div_ceil(16))),
                        _ => n * m.div_ceil(grain),
                    };
                    assert_eq!(l.tasks, tasks as u64, "{}: {at}", kind.name());
                    let sizes = &l.telem.as_ref().expect("telemetry on").task_sizes;
                    assert_eq!((sizes.count, sizes.sum), (l.tasks, (n * m) as u64), "{}: {at}", kind.name());
                }
            }
        }
    }

    /// A host `segmap` narrower than 16 grains is cut into about 16
    /// tasks (one per point below 16 points); a wide one, and any
    /// kernel-side one, keeps `⌈points/grain⌉`. The values never move.
    #[test]
    fn a_host_segmap_gets_about_sixteen_tasks_and_a_kernel_side_one_keeps_the_grain() {
        let launch = Launch {
            name: &"toy",
            kind: Kind::Map,
            level: LVL_GRID,
            prov: Prov::UNKNOWN,
            body_ret: &[Type::i64()],
        };
        for (points, host, kernel_side) in [(64, 16, 1), (8, 8, 1), (100, 15, 1), (65536, 256, 256)] {
            let rows: Vec<i64> = (0..points as i64).map(|i| i * 7 - 3).collect();
            let want = Value::array_from(
                vec![points as i64],
                Buffer::I64(rows.iter().map(|x| 2 * x + 1).collect()),
            );
            for threads in [1, 2, 4] {
                let cfg = ExecConfig { threads: Some(threads), ..ExecConfig::default() };
                let kernels = Kernels::begin("toy", &cfg);
                for (trail, tasks) in [(Trail::default(), host), (Trail::task(), kernel_side)] {
                    let at = format!("{points} points, {threads} threads, {tasks} tasks");
                    let toy = Toy { rows: &rows, m: points, chunks: AtomicUsize::new(0) };
                    let mut fr = ToyFrame { seg: usize::MAX, trail };
                    let mut got = None;
                    let put = |_: &mut ToyFrame, v| {
                        got = Some(v);
                        Ok(())
                    };
                    kernels.launch(&toy, &mut fr, &launch, &[points as i64], put).unwrap();
                    assert_eq!(got.as_ref(), Some(&want), "{at}");
                    assert_eq!(toy.chunks.into_inner(), tasks, "{at}");
                    let recorded: Vec<u64> = fr.trail.launches.iter().map(|l| l.tasks).collect();
                    let want_recorded = if fr.trail.in_kernel { vec![] } else { vec![tasks as u64] };
                    assert_eq!(recorded, want_recorded, "{at}");
                }
            }
        }
    }
}
