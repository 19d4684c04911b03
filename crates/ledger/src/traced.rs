//! The traced pass: replay the workload's own cases through the whole
//! stack in server order, with a span recorded *here* around each public
//! call, then fill the per-crate ledger from those spans.
//!
//! Two replays share the case list. The cold replay takes every distinct
//! program through the compiler pass by pass and through the verifier;
//! its metrics are per sweep of the workload's program set, which is what
//! makes them comparable with the `compile` workload's operation. The
//! request replay walks one `exec` request along the daemon's hit path —
//! frame codec, admission, hash, cache hit, argument parse, materialise,
//! kernel, samples, result encode, write, client decode — so each stage
//! is a public call timed from outside; its metrics are per request. Real
//! requests through a live daemon then give the latency the staged sum is
//! reconciled with.

use crate::check::{bits_eq, Tally};
use crate::prepare::Ready;
use crate::spans::{durations_us, self_times, Span, Tracer};
use crate::stats::{geomean, median, percentile_sorted, sort, tail};
use crate::timed::Service;
use crate::{vm_hwm_mb, Reading};
use flat_obs::json::Value as Json;
use flat_serve::proto::{self, ResultAssembly};
use flat_serve::{AdmitQueue, CompileCache, Job, SampleStore};
use incflat::FlattenConfig;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Compiler passes whose spans sum to one cold compile.
const PASSES: [&str; 6] = [
    "flat-lang.parse",
    "flat-lang.elaborate",
    "flat-ir.fuse",
    "incflat.flatten",
    "incflat.simplify",
    "flat-vm.compile",
];

/// Counts that depend only on the program text; taken on the first
/// sweep and required to repeat on every later one.
#[derive(Clone, Copy, Default, PartialEq, Debug)]
struct CodeCounts {
    fusions: usize,
    target_stms: usize,
    moderate_stms: usize,
    versions: usize,
    thresholds: usize,
    instrs: usize,
    diagnostics: usize,
    source_bytes: usize,
}

impl CodeCounts {
    fn add(&mut self, c: &CodeCounts) {
        self.fusions += c.fusions;
        self.target_stms += c.target_stms;
        self.moderate_stms += c.moderate_stms;
        self.versions += c.versions;
        self.thresholds += c.thresholds;
        self.instrs += c.instrs;
        self.diagnostics += c.diagnostics;
        self.source_bytes += c.source_bytes;
    }
}

/// One program through the compiler pass by pass, then the verifier and
/// the daemon's own compile entry points.
fn replay_compile(
    tr: &mut Tracer,
    source: &str,
    entry: &str,
) -> Result<(CodeCounts, bool), String> {
    let fail = |stage: &str, e: String| format!("{stage}: {e}");
    tr.next_op();
    let root = tr.begin("ledger.cold_compile");
    let parsed = tr
        .time("flat-lang.parse", || flat_lang::parse_program(source))
        .map_err(|e| fail("parse", e.to_string()))?;
    let mut prog = tr
        .time("flat-lang.elaborate", || {
            flat_lang::compile_sprogram(&parsed, entry)
        })
        .map_err(|e| fail("elaborate", e.to_string()))?;
    let fusions = tr.time("flat-ir.fuse", || flat_ir::fusion::fuse_program(&mut prog));
    let unsimplified = FlattenConfig {
        simplify: false,
        ..FlattenConfig::incremental()
    };
    let mut flat = tr
        .time("incflat.flatten", || incflat::flatten(&prog, &unsimplified))
        .map_err(|e| fail("flatten", e.to_string()))?;
    tr.time("incflat.simplify", || {
        incflat::simplify_program(&mut flat.prog)
    });
    let code = tr
        .time("flat-vm.compile", || flat_vm::compile(&flat.prog))
        .map_err(|e| fail("vm compile", e.to_string()))?;
    tr.end(root);

    tr.next_op();
    let moderate = tr
        .time("incflat.moderate_flatten", || {
            incflat::flatten_moderate(&prog)
        })
        .map_err(|e| fail("moderate flatten", e.to_string()))?;
    let mut diagnostics = tr.time("flat-verify.program", || flat_verify::verify_program(&prog));
    diagnostics.extend(tr.time("flat-verify.flattened", || {
        flat_verify::verify_flattened(&flat)
    }));
    let report = tr
        .time("flat-verify.pipeline", || {
            flat_verify::verify_pipeline(source, entry)
        })
        .map_err(|e| fail("verify", e.to_string()))?;
    let clean = report.error_count() == 0 && !diagnostics.iter().any(|d| d.is_error());

    tr.time("flat-serve.compile_program", || {
        flat_serve::cache::compile_program(source, entry)
    })
    .map_err(|e| fail("compile_program", e.to_string()))?;
    let cold = CompileCache::new(1);
    let miss = tr
        .time("flat-serve.cache_miss", || {
            cold.get_or_compile(source, entry)
        })
        .map_err(|e| fail("cache miss", e.to_string()))?;

    // Statement counts after simplification, which is what ships.
    let shipped =
        incflat::flatten_incremental(&prog).map_err(|e| fail("flatten", e.to_string()))?;
    let counts = CodeCounts {
        fusions,
        target_stms: shipped.stats.target_stms,
        moderate_stms: moderate.stats.target_stms,
        versions: shipped.stats.num_versions,
        thresholds: shipped.stats.num_thresholds,
        instrs: code.funcs.iter().map(Vec::len).sum(),
        diagnostics: report.total(),
        source_bytes: source.len(),
    };
    Ok((counts, clean && !miss.1))
}

/// The server-side state one request touches.
struct Hit {
    cache: CompileCache,
    queue: AdmitQueue,
    samples: SampleStore,
    nproc: usize,
}

/// Kernel time by kind against the VM's own wall clock.
#[derive(Default)]
struct KernelTime {
    by_kind: BTreeMap<&'static str, f64>,
    wall: f64,
    launches: u64,
    tasks: u64,
}

impl KernelTime {
    fn add(&mut self, rep: &flat_exec::ExecReport) {
        for l in &rep.launches {
            *self.by_kind.entry(l.kind).or_default() += l.nanos;
            self.tasks += l.tasks;
        }
        self.launches += rep.launches.len() as u64;
        self.wall += rep.wall_nanos;
    }

    fn share(&self, kind: &str) -> f64 {
        self.by_kind.get(kind).copied().unwrap_or(0.0) / self.wall
    }
}

fn str_field<'a>(req: &'a Json, key: &str) -> Result<&'a str, String> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("request frame lacks {key}"))
}

/// What one replayed request put on the wire, and whether the decoded
/// reply equals the reference.
struct Replayed {
    ok: bool,
    request_bytes: usize,
    result_bytes: usize,
}

/// One `exec` request along the daemon's hit path, every stage a public
/// call.
fn replay_request(
    tr: &mut Tracer,
    req: &Json,
    row: &Ready,
    hit: &Hit,
    kernels: &mut KernelTime,
) -> Result<Replayed, String> {
    tr.next_op();
    let root = tr.begin("ledger.request");

    // Client: frame the request. Server: read it back.
    let mut wire = Vec::new();
    tr.time("flat-serve.encode_request", || {
        proto::write_frame(&mut wire, req)
    })
    .map_err(|e| e.to_string())?;
    let decoded = tr
        .time("flat-serve.decode_request", || {
            proto::read_frame(&mut &wire[..], proto::MAX_FRAME)
        })
        .map_err(|e| e.to_string())?;

    // Connection thread submits; a dispatch worker takes the batch.
    let (reply, _replies) = mpsc::channel();
    let admit = tr.begin("flat-serve.admit");
    let job = Job {
        req: decoded,
        arrived: Instant::now(),
        deadline: None,
        reply,
    };
    hit.queue.submit(job).map_err(|(_, e)| e.to_string())?;
    let mut batch = hit.queue.next_batch(8).ok_or("admission queue closed")?;
    hit.queue.finish();
    tr.end(admit);
    let job = batch
        .pop()
        .ok_or("admission queue returned an empty batch")?;
    let source = str_field(&job.req, "source")?;
    let entry = str_field(&job.req, "entry")?;

    tr.time("flat-serve.program_hash", || {
        flat_serve::program_hash(source, entry)
    });
    let (program, cached) = tr
        .time("flat-serve.cache_hit", || {
            hit.cache.get_or_compile(source, entry)
        })
        .map_err(|e| e.to_string())?;
    let parse = tr.begin("flat-serve.parse_args");
    let specs = job
        .req
        .get("args")
        .and_then(Json::as_array)
        .ok_or("request frame lacks args")?;
    let abs = specs
        .iter()
        .map(|s| proto::parse_abs_value(s.as_str().unwrap_or("")))
        .collect::<Result<Vec<_>, _>>()?;
    let data_seed = job
        .req
        .get("data_seed")
        .and_then(Json::as_u64)
        .unwrap_or(42);
    tr.end(parse);
    let args = tr
        .time("flat-exec.materialize", || {
            flat_exec::materialize(&abs, data_seed)
        })
        .map_err(|e| e.to_string())?;
    let cfg = row.config(hit.nproc);
    let rep = tr
        .time("flat-vm.run_tn", || {
            flat_vm::run_compiled(&program.compiled, &args, &cfg)
        })
        .map_err(|e| e.to_string())?;
    kernels.add(&rep);

    // Every served run feeds the tuner's warm-start store.
    let samples = tr.begin("flat-serve.samples");
    let mut parsed = Vec::new();
    for line in flat_exec::sample_log_lines(&rep, &program.entry) {
        let text = flat_obs::json::to_string(&line).map_err(|e| format!("{e:?}"))?;
        if let Ok(Some(s)) = autotune::samples::parse_sample_versioned(&text) {
            parsed.push(s);
        }
    }
    hit.samples.record(&program.hash, parsed);
    tr.end(samples);

    let frames: Vec<Json> = tr.time("flat-serve.encode_result", || {
        rep.values
            .iter()
            .enumerate()
            .flat_map(|(i, v)| proto::result_frames(i, v))
            .collect()
    });
    let mut out = Vec::new();
    let write = tr.begin("flat-serve.write_result");
    for frame in &frames {
        proto::write_frame(&mut out, frame).map_err(|e| e.to_string())?;
    }
    tr.end(write);

    // Client: read the stream back and reassemble the values.
    let decode = tr.begin("flat-serve.decode_result");
    let mut stream = &out[..];
    let mut values = Vec::with_capacity(rep.values.len());
    while !stream.is_empty() {
        let header = proto::read_frame(&mut stream, proto::MAX_FRAME).map_err(|e| e.to_string())?;
        let mut assembly = ResultAssembly::from_header(&header)?;
        while assembly.needs_chunks() {
            let chunk =
                proto::read_frame(&mut stream, proto::MAX_FRAME).map_err(|e| e.to_string())?;
            assembly.push_chunk(&chunk)?;
        }
        values.push(assembly.finish()?);
    }
    tr.end(decode);
    tr.end(root);

    Ok(Replayed {
        ok: cached && bits_eq(&values, &row.expect) && rep.signature() == row.signature,
        request_bytes: wire.len(),
        result_bytes: out.len(),
    })
}

fn raw_payload_bytes(row: &Ready) -> usize {
    row.expect
        .iter()
        .map(|v| match v {
            flat_ir::Value::Array(a) => a.data.len() * scalar_bytes(a.data.scalar_type()),
            flat_ir::Value::Scalar(c) => scalar_bytes(c.scalar_type()),
        })
        .sum()
}

fn scalar_bytes(t: flat_ir::ScalarType) -> usize {
    match t {
        flat_ir::ScalarType::I32 | flat_ir::ScalarType::F32 => 4,
        flat_ir::ScalarType::I64 | flat_ir::ScalarType::F64 => 8,
        flat_ir::ScalarType::Bool => 1,
    }
}

/// Sum the spans of each name within one slice (one sweep's spans).
fn sums_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    durations_us(spans)
        .into_iter()
        .map(|(k, v)| (k, v.iter().sum()))
        .collect()
}

/// Indices of the first row of each distinct `(source, entry)`.
fn distinct_programs(rows: &[Ready]) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    (0..rows.len())
        .filter(|&i| seen.insert((rows[i].case.source.as_str(), rows[i].case.entry.as_str())))
        .collect()
}

/// Median nanoseconds per task of `Pool::run` over `n` empty tasks. One
/// sample is a batch of runs, so a 40 ns dispatch is not quantised by
/// the clock's own resolution.
fn dispatch_ns_per_task(pool: &workpool::Pool, n: usize, samples: usize) -> f64 {
    let batch = (4096 / n).max(1);
    let per_task: Vec<f64> = (0..samples)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..batch {
                pool.run(n, &|i| {
                    std::hint::black_box(i);
                });
            }
            started.elapsed().as_nanos() as f64 / (batch * n) as f64
        })
        .collect();
    median(&per_task)
}

/// Spans of the cold replay whose per-sweep sum is a metric named
/// `<span>_us`.
const COLD_SPANS: [&str; 11] = [
    "flat-lang.parse",
    "flat-lang.elaborate",
    "flat-ir.fuse",
    "incflat.flatten",
    "incflat.simplify",
    "incflat.moderate_flatten",
    "flat-verify.program",
    "flat-verify.flattened",
    "flat-verify.pipeline",
    "flat-vm.compile",
    "flat-serve.compile_program",
];

/// Spans of the request replay whose median is a metric named
/// `<span>_us`.
const REQUEST_SPANS: [&str; 12] = [
    "flat-serve.encode_request",
    "flat-serve.decode_request",
    "flat-serve.program_hash",
    "flat-serve.cache_hit",
    "flat-serve.parse_args",
    "flat-exec.materialize",
    "flat-vm.run_tn",
    "flat-vm.run_t1",
    "flat-serve.samples",
    "flat-serve.encode_result",
    "flat-serve.write_result",
    "flat-serve.decode_result",
];

pub struct Traced {
    pub readings: Vec<Reading>,
    pub extras: Vec<Reading>,
    pub spans: Vec<Span>,
}

/// What the request replay hands to the sections after it.
struct Replay {
    hit: Hit,
    /// Per-row one-thread kernel times, for the tree-walker's ratio.
    per_row_t1: Vec<Vec<f64>>,
    staged_sum_us: f64,
    replay_us: f64,
}

/// The traced pass in progress: its inputs, and the readings so far.
struct Pass<'a> {
    rows: &'a [Ready],
    service: &'a mut Service,
    nproc: usize,
    seconds: f64,
    tally: &'a mut Tally,
    tr: Tracer,
    out: Vec<Reading>,
    extras: Vec<Reading>,
}

/// Run the traced pass over prepared rows for about `seconds`.
pub fn run(
    rows: &[Ready],
    service: &mut Service,
    nproc: usize,
    seconds: f64,
    rss_before_mb: f64,
    tally: &mut Tally,
) -> Result<Traced, String> {
    let mut pass = Pass {
        rows,
        service,
        nproc,
        seconds,
        tally,
        tr: Tracer::new(true),
        out: Vec::new(),
        extras: Vec::new(),
    };
    let programs = distinct_programs(rows);
    let cold_us = pass.cold_requests(&programs);
    pass.cold_replay(&programs)?;
    let replay = pass.request_replay()?;
    pass.untraced_replay(&replay);
    pass.live_requests(&replay, &cold_us);
    pass.tree_walker(&replay);
    pass.pool_probes();
    pass.put("ledger.rss_growth_mb", vm_hwm_mb()? - rss_before_mb, 1);
    Ok(Traced {
        readings: pass.out,
        extras: pass.extras,
        spans: pass.tr.into_spans(),
    })
}

impl Pass<'_> {
    fn put(&mut self, name: &str, value: f64, n: usize) {
        self.out.push(Reading::new(name, value, n));
    }

    /// When a section that may use `share` of the window must stop.
    fn deadline(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share)
    }

    /// First touches through the live daemon: the cold path as a client
    /// sees it, one miss per distinct program. Returns their latencies.
    fn cold_requests(&mut self, programs: &[usize]) -> Vec<f64> {
        let misses_before = self.service.server().daemon().compile.misses();
        let mut cold_us = Vec::with_capacity(programs.len());
        for &i in programs {
            let row = &self.rows[i];
            let started = Instant::now();
            let reply = self.service.exec(i);
            cold_us.push(started.elapsed().as_nanos() as f64 / 1e3);
            let ok = matches!(&reply, Ok(r) if !r.cached && bits_eq(&r.values, &row.expect));
            self.tally.check(ok, || {
                format!(
                    "{}: cold served reply wrong: {:?}",
                    row.case.name,
                    reply.err()
                )
            });
        }
        let missed = self.service.server().daemon().compile.misses() - misses_before;
        self.tally.check(missed == programs.len() as u64, || {
            format!(
                "{missed} compile-cache misses for {} distinct programs",
                programs.len()
            )
        });
        cold_us
    }

    /// Whole sweeps of the program set through the compiler, pass by
    /// pass; every metric is per sweep.
    fn cold_replay(&mut self, programs: &[usize]) -> Result<(), String> {
        let mut sweeps: Vec<BTreeMap<&'static str, f64>> = Vec::new();
        let mut counts: Option<CodeCounts> = None;
        let deadline = self.deadline(0.25);
        while sweeps.is_empty() || Instant::now() < deadline {
            let first_span = self.tr.spans().len();
            let mut this = CodeCounts::default();
            for &i in programs {
                let case = &self.rows[i].case;
                match replay_compile(&mut self.tr, &case.source, &case.entry) {
                    Ok((c, clean)) => {
                        self.tally.check(clean, || {
                            format!("{}: verifier errors or a warm cold cache", case.name)
                        });
                        this.add(&c);
                    }
                    Err(e) => {
                        self.tally.check(false, || format!("{}: {e}", case.name));
                        return Err(e);
                    }
                }
            }
            sweeps.push(sums_us(&self.tr.spans()[first_span..]));
            let first = *counts.get_or_insert(this);
            self.tally.check(first == this, || {
                "compile counts changed between sweeps".to_string()
            });
        }
        let per_sweep = |name: &str| -> f64 {
            median(
                &sweeps
                    .iter()
                    .map(|s| s.get(name).copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            )
        };
        let n = sweeps.len();
        for span in COLD_SPANS {
            self.put(&format!("{span}_us"), per_sweep(span), n);
        }
        self.put(
            "ledger.compile_sum_us",
            PASSES.iter().map(|p| per_sweep(p)).sum(),
            n,
        );
        let overhead: Vec<f64> = sweeps
            .iter()
            .map(|s| s["flat-serve.cache_miss"] - s["flat-serve.compile_program"])
            .collect();
        self.put("flat-serve.cache_miss_overhead_us", median(&overhead), n);

        let total = counts.unwrap_or_default();
        let programs = programs.len();
        self.put(
            "flat-lang.parse_mb_s",
            total.source_bytes as f64 / per_sweep("flat-lang.parse"),
            n,
        );
        self.put("flat-ir.fusions", total.fusions as f64, programs);
        self.put("incflat.target_stms", total.target_stms as f64, programs);
        self.put("incflat.versions", total.versions as f64, programs);
        self.put("incflat.thresholds", total.thresholds as f64, programs);
        self.put(
            "incflat.code_expansion",
            total.target_stms as f64 / total.moderate_stms as f64,
            programs,
        );
        self.put(
            "flat-verify.diagnostics",
            total.diagnostics as f64,
            programs,
        );
        self.put("flat-vm.instrs", total.instrs as f64, programs);
        Ok(())
    }

    /// Every row's request along the hit path, round after round, each
    /// followed by the same kernel at one thread for the
    /// parallel-efficiency ratio; every metric is per request.
    fn request_replay(&mut self) -> Result<Replay, String> {
        let rows = self.rows;
        let hit = Hit {
            cache: CompileCache::new(rows.len().max(1)),
            queue: AdmitQueue::new(256),
            samples: SampleStore::new(),
            nproc: self.nproc,
        };
        for row in rows {
            hit.cache
                .get_or_compile(&row.case.source, &row.case.entry)
                .map_err(|e| e.to_string())?;
        }
        let first_span = self.tr.spans().len();
        let mut kernels = KernelTime::default();
        let (mut request_bytes, mut result_bytes, mut expansion) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut round_counts: Option<(u64, u64)> = None;
        let deadline = self.deadline(0.25);
        let mut rounds = 0;
        while rounds == 0 || Instant::now() < deadline {
            let before = (kernels.launches, kernels.tasks);
            for (i, row) in rows.iter().enumerate() {
                let replayed = replay_request(
                    &mut self.tr,
                    self.service.request(i),
                    row,
                    &hit,
                    &mut kernels,
                );
                self.tally.check(matches!(&replayed, Ok(r) if r.ok), || {
                    format!(
                        "{}: replayed reply wrong: {:?}",
                        row.case.name,
                        replayed.as_ref().err()
                    )
                });
                if let Ok(r) = replayed {
                    request_bytes.push(r.request_bytes as f64);
                    result_bytes.push(r.result_bytes as f64);
                    expansion.push(r.result_bytes as f64 / raw_payload_bytes(row) as f64);
                }

                self.tr.next_op();
                let rep = self.tr.time("flat-vm.run_t1", || {
                    flat_vm::run_compiled(&row.program.compiled, &row.args, &row.config(1))
                });
                self.tally.check(
                    matches!(&rep, Ok(r) if bits_eq(&r.values, &row.expect)),
                    || format!("{}: one-thread replay run wrong", row.case.name),
                );
            }
            let this = (kernels.launches - before.0, kernels.tasks - before.1);
            let first = *round_counts.get_or_insert(this);
            self.tally.check(first == this, || {
                format!("launch/task counts changed: {first:?} then {this:?}")
            });
            rounds += 1;
        }

        let own = self_times(self.tr.spans());
        let spans = &self.tr.spans()[first_span..];
        let by_name = durations_us(spans);
        let stage = |name: &str| by_name.get(name).map_or(&[][..], Vec::as_slice);
        let mut out = Vec::new();
        let mut put = |name: &str, value: f64, n: usize| out.push(Reading::new(name, value, n));
        for span in REQUEST_SPANS {
            put(
                &format!("{span}_us"),
                median(stage(span)),
                stage(span).len(),
            );
        }
        let admit_ns: Vec<f64> = stage("flat-serve.admit")
            .iter()
            .map(|us| us * 1e3)
            .collect();
        put(
            "flat-serve.admit_ns_per_job",
            median(&admit_ns),
            admit_ns.len(),
        );
        put(
            "flat-serve.request_bytes",
            median(&request_bytes),
            request_bytes.len(),
        );
        put(
            "flat-serve.result_bytes",
            median(&result_bytes),
            result_bytes.len(),
        );
        put(
            "flat-serve.wire_expansion",
            median(&expansion),
            expansion.len(),
        );
        let elements: usize = rows.iter().map(Ready::elements).sum();
        let materialize_ns: f64 = stage("flat-exec.materialize").iter().sum::<f64>() * 1e3;
        put(
            "flat-exec.materialize_ns_per_elem",
            materialize_ns / (elements.max(1) * rounds) as f64,
            rounds,
        );
        for kind in ["segmap", "segred", "segscan"] {
            put(
                &format!("flat-vm.kernel_share.{kind}"),
                kernels.share(kind),
                rounds,
            );
        }
        put(
            "flat-vm.host_share",
            1.0 - kernels.by_kind.values().sum::<f64>() / kernels.wall,
            rounds,
        );
        let (launches, tasks) = round_counts.unwrap_or_default();
        put("flat-vm.launches", launches as f64, rounds);
        put("flat-vm.tasks", tasks as f64, rounds);

        // Per-row kernel times: the spans of one name come out row by
        // row, round by round.
        let per_row = |name: &str| {
            let mut per_row = vec![Vec::new(); rows.len()];
            for (k, s) in spans.iter().filter(|s| s.name == name).enumerate() {
                per_row[k % rows.len()].push(s.dur_ns() as f64 / 1e3);
            }
            per_row
        };
        let (per_row_t1, per_row_tn) = (per_row("flat-vm.run_t1"), per_row("flat-vm.run_tn"));
        let efficiency: Vec<f64> = per_row_t1
            .iter()
            .zip(&per_row_tn)
            .map(|(t1, tn)| median(t1) / (median(tn) * self.nproc as f64))
            .collect();
        put("flat-vm.par_efficiency", geomean(&efficiency), rows.len());
        for (i, row) in rows.iter().enumerate() {
            for (suffix, v) in [("t1", &per_row_t1[i]), ("tn", &per_row_tn[i])] {
                let name = format!("flat-vm.run_ms.{}.{suffix}", row.case.name);
                self.extras
                    .push(Reading::extra(&name, median(v) / 1e3, "ms", v.len()));
            }
        }

        // Staged sum per request: everything the root span's children
        // cover.
        let (mut staged, mut replay_us) = (Vec::new(), Vec::new());
        for (s, own_ns) in spans.iter().zip(&own[first_span..]) {
            if s.name == "ledger.request" {
                staged.push((s.dur_ns() - own_ns) as f64 / 1e3);
                replay_us.push(s.dur_ns() as f64 / 1e3);
            }
        }
        let (staged_sum_us, replay_us_median) = (median(&staged), median(&replay_us));
        put("flat-serve.staged_sum_us", staged_sum_us, staged.len());
        put("ledger.replay_us", replay_us_median, replay_us.len());
        self.out.append(&mut out);
        Ok(Replay {
            hit,
            per_row_t1,
            staged_sum_us,
            replay_us: replay_us_median,
        })
    }

    /// The same replay with recording off: what the spans themselves cost.
    fn untraced_replay(&mut self, replay: &Replay) {
        let mut quiet = Tracer::new(false);
        let mut untraced_us = Vec::new();
        let deadline = self.deadline(0.10);
        while untraced_us.is_empty() || Instant::now() < deadline {
            for (i, row) in self.rows.iter().enumerate() {
                let started = Instant::now();
                let replayed = replay_request(
                    &mut quiet,
                    self.service.request(i),
                    row,
                    &replay.hit,
                    &mut KernelTime::default(),
                );
                untraced_us.push(started.elapsed().as_nanos() as f64 / 1e3);
                self.tally.check(matches!(&replayed, Ok(r) if r.ok), || {
                    format!("{}: untraced replay wrong", row.case.name)
                });
            }
        }
        self.put(
            "ledger.trace_overhead",
            replay.replay_us / median(&untraced_us),
            untraced_us.len(),
        );
    }

    /// Real requests, one connection, same case mix as the replay: the
    /// latency the staged sum is reconciled with.
    fn live_requests(&mut self, replay: &Replay, cold_us: &[f64]) {
        let counters = |service: &Service| {
            let daemon = service.server().daemon();
            (daemon.compile.hits(), daemon.compile.misses())
        };
        let (hits0, misses0) = counters(self.service);
        let mut request_us = Vec::new();
        let deadline = self.deadline(0.20);
        while request_us.len() < self.rows.len() || Instant::now() < deadline {
            for (i, row) in self.rows.iter().enumerate() {
                let started = Instant::now();
                let reply = self.service.exec(i);
                request_us.push(started.elapsed().as_nanos() as f64 / 1e3);
                let ok = matches!(&reply, Ok(r) if r.cached && bits_eq(&r.values, &row.expect));
                self.tally.check(ok, || {
                    format!("{}: served reply wrong: {:?}", row.case.name, reply.err())
                });
            }
        }
        let (hits1, misses1) = counters(self.service);
        let (hits, misses) = (hits1 - hits0, misses1 - misses0);
        let n = request_us.len();
        self.put(
            "flat-serve.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            n,
        );
        self.tally.check(misses == 0, || {
            format!("{misses} compile-cache misses on the hit path")
        });
        sort(&mut request_us);
        let p50 = percentile_sorted(&request_us, 5000);
        self.put("flat-serve.request_p50_us", p50, n);
        self.put(
            "flat-serve.request_p99_us",
            percentile_sorted(&request_us, 9900),
            n,
        );
        self.put(
            "flat-serve.unaccounted_share",
            1.0 - replay.staged_sum_us / p50,
            n,
        );
        let (tail_p, tail_us) = tail(&request_us).unwrap_or((100.0, request_us[n - 1]));
        self.out.push(Reading {
            note: Some(format!("p{tail_p}")),
            ..Reading::new("flat-serve.request_tail_us", tail_us, n)
        });
        self.put("flat-serve.cold_p50_us", median(cold_us), cold_us.len());
        self.put(
            "flat-serve.cold_over_hit",
            median(cold_us) / p50,
            cold_us.len(),
        );
    }

    /// The tree-walking executor on as many rows as a tenth of the
    /// window allows (at least one).
    fn tree_walker(&mut self, replay: &Replay) {
        let mut walker_us = Vec::new();
        let mut speedup = Vec::new();
        let deadline = self.deadline(0.10);
        for (row, vm_t1) in self.rows.iter().zip(&replay.per_row_t1) {
            if !walker_us.is_empty() && Instant::now() >= deadline {
                break;
            }
            self.tr.next_op();
            let started = Instant::now();
            let rep = self.tr.time("flat-exec.run_t1", || {
                flat_exec::run_program(&row.program.flattened.prog, &row.args, &row.config(1))
            });
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            self.tally.check(
                matches!(&rep, Ok(r) if bits_eq(&r.values, &row.expect)),
                || format!("{}: tree-walker disagrees with the VM", row.case.name),
            );
            walker_us.push(us);
            speedup.push(us / median(vm_t1));
        }
        self.put("flat-exec.run_t1_us", median(&walker_us), walker_us.len());
        self.put("flat-exec.vm_speedup", geomean(&speedup), speedup.len());
    }

    /// The pool alone, then one pass of every row with telemetry on.
    fn pool_probes(&mut self) {
        let pool = workpool::pool_with(self.nproc);
        for n in [1, 64, 4096] {
            const SAMPLES: usize = 25;
            let name = format!("workpool.dispatch_ns_per_task.n{n}");
            self.put(&name, dispatch_ns_per_task(&pool, n, SAMPLES), SAMPLES);
        }
        let mut total = workpool::WorkerTelemetry::default();
        let mut capacity_ns = 0.0;
        for row in self.rows {
            let cfg = flat_exec::ExecConfig {
                telemetry: true,
                ..row.config(self.nproc)
            };
            let rep = flat_vm::run_compiled(&row.program.compiled, &row.args, &cfg);
            self.tally.check(
                matches!(&rep, Ok(r) if bits_eq(&r.values, &row.expect)),
                || format!("{}: telemetry changed the outputs", row.case.name),
            );
            if let Ok(rep) = rep {
                let t = rep.pool.map(|p| p.total()).unwrap_or_default();
                total.tasks += t.tasks;
                total.steals += t.steals;
                total.parks += t.parks;
                total.busy_ns += t.busy_ns;
                capacity_ns +=
                    rep.launches.iter().map(|l| l.nanos).sum::<f64>() * self.nproc as f64;
            }
        }
        let rows = self.rows.len();
        self.put(
            "workpool.steal_rate",
            total.steals as f64 / total.tasks.max(1) as f64,
            rows,
        );
        self.put("workpool.parks", total.parks as f64, rows);
        self.put(
            "workpool.utilization",
            total.busy_ns as f64 / capacity_ns,
            rows,
        );
    }
}
