//! The daemon: a threaded TCP server over `std::net` speaking the
//! length-prefixed JSONL protocol of [`crate::proto`].
//!
//! Architecture: one accept thread, one lightweight thread per
//! connection (small stacks, so thousands of idle sessions are cheap),
//! and a fixed pool of dispatch workers draining the bounded admission
//! queue of [`crate::admit`]. Connection threads only parse frames and
//! forward reply streams; all compilation and execution happens on
//! dispatch workers, which run kernels on the shared `workpool`
//! executor pool. `status` and `shutdown` are answered inline so the
//! control plane stays responsive under load.
//!
//! Shutdown drains: admission closes (new requests get `shutdown`
//! errors), queued work finishes, then the `shutdown-complete` reply is
//! sent and the accept loop unblocks.

use crate::admit::{AdmitQueue, Job};
use crate::cache::{self, CompileCache, SampleStore, TuneKey, TunedEntry, TuningCache};
use crate::client::{ExecSpec, DEFAULT_DATA_SEED};
use crate::proto::{self, FrameError, ServiceError};
use flat_obs::json::Value;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Deployment knobs; see `docs/SERVICE.md` for the operator's view.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the handle reports it).
    pub addr: String,
    /// Executor pool threads for request execution; `None` uses the
    /// process default (`FLAT_EXEC_THREADS` / available parallelism).
    pub threads: Option<usize>,
    /// Dispatch workers draining the admission queue.
    pub workers: usize,
    /// Admission queue capacity; beyond it requests are `busy`-rejected.
    pub queue: usize,
    /// Max jobs a worker drains per wakeup.
    pub batch: usize,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline_ms: Option<u64>,
    /// Per-frame byte limit.
    pub max_frame: usize,
    /// Compile cache capacity (programs).
    pub cache_capacity: usize,
    /// Suppress startup logging.
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: None,
            workers: 4,
            queue: 256,
            batch: 8,
            default_deadline_ms: None,
            max_frame: proto::MAX_FRAME,
            cache_capacity: 1024,
            quiet: false,
        }
    }
}

/// Shared daemon state.
pub struct Daemon {
    pub cfg: ServerConfig,
    pub compile: CompileCache,
    pub tuning: TuningCache,
    pub samples: SampleStore,
    pub admit: AdmitQueue,
    /// Executor threads: `cfg.threads` or the process default, fixed at
    /// start. Requests may ask for at most this many.
    threads: usize,
    addr: SocketAddr,
    started: Instant,
    conns_total: AtomicU64,
    conns_open: AtomicUsize,
    req_compile: AtomicU64,
    req_exec: AtomicU64,
    req_tune: AtomicU64,
    req_status: AtomicU64,
    errors: AtomicU64,
}

/// A running daemon: its bound address plus the threads to join.
pub struct ServerHandle {
    daemon: Arc<Daemon>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Bind, spawn the accept loop and dispatch workers, and return.
pub fn start(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let daemon = Arc::new(Daemon {
        compile: CompileCache::new(cfg.cache_capacity),
        tuning: TuningCache::new(),
        samples: SampleStore::new(),
        admit: AdmitQueue::new(cfg.queue),
        threads: cfg.threads.unwrap_or_else(flat_exec::default_threads),
        addr,
        started: Instant::now(),
        conns_total: AtomicU64::new(0),
        conns_open: AtomicUsize::new(0),
        req_compile: AtomicU64::new(0),
        req_exec: AtomicU64::new(0),
        req_tune: AtomicU64::new(0),
        req_status: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        cfg,
    });
    if !daemon.cfg.quiet {
        eprintln!(
            "flatd: listening on {addr} ({} workers, queue {})",
            daemon.cfg.workers, daemon.cfg.queue
        );
    }
    let workers = (0..daemon.cfg.workers.max(1))
        .map(|i| {
            let d = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name(format!("flatd-worker-{i}"))
                .spawn(move || worker_loop(d))
                .expect("flatd: spawn worker")
        })
        .collect();
    let d = Arc::clone(&daemon);
    let accept = std::thread::Builder::new()
        .name("flatd-accept".to_string())
        .spawn(move || accept_loop(d, listener))
        .expect("flatd: spawn accept loop");
    Ok(ServerHandle { daemon, accept: Some(accept), workers })
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr
    }

    pub fn daemon(&self) -> &Daemon {
        &self.daemon
    }

    /// Initiate a drain as if a `shutdown` request had arrived, then
    /// wait for completion.
    pub fn stop(mut self) {
        self.daemon.admit.close();
        wake_accept(self.daemon.addr);
        self.join_inner();
    }

    /// Wait until the daemon exits (a client sent `shutdown`).
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Unblock a blocking `accept` by connecting once.
fn wake_accept(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

fn accept_loop(daemon: Arc<Daemon>, listener: TcpListener) {
    for stream in listener.incoming() {
        if daemon.admit.draining() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        daemon.conns_total.fetch_add(1, Ordering::Relaxed);
        daemon.conns_open.fetch_add(1, Ordering::Relaxed);
        let d = Arc::clone(&daemon);
        // Small stacks: connection threads only parse frames and pump
        // channels, and there can be thousands of them.
        let spawned = std::thread::Builder::new()
            .name("flatd-conn".to_string())
            .stack_size(256 * 1024)
            .spawn(move || {
                handle_conn(&d, stream);
                d.conns_open.fetch_sub(1, Ordering::Relaxed);
            });
        if spawned.is_err() {
            daemon.conns_open.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

fn handle_conn(daemon: &Arc<Daemon>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    loop {
        let req = match proto::read_frame(&mut reader, daemon.cfg.max_frame) {
            Ok(v) => v,
            Err(FrameError::Eof) => return,
            Err(FrameError::Io(_)) => return,
            Err(FrameError::TooBig(n)) => {
                // The stream cannot be resynchronized without trusting
                // the oversized length; answer and hang up.
                let err = ServiceError::new(
                    "toobig",
                    format!("frame of {n} bytes exceeds limit {}", daemon.cfg.max_frame),
                );
                let _ = proto::write_frame(&mut writer, &err.to_frame());
                return;
            }
            Err(FrameError::Malformed(m)) => {
                let err = ServiceError::new("proto", m);
                let _ = proto::write_frame(&mut writer, &err.to_frame());
                return;
            }
        };
        match req.get("type").and_then(Value::as_str) {
            Some("status") => {
                daemon.req_status.fetch_add(1, Ordering::Relaxed);
                if proto::write_frame(&mut writer, &daemon.status_frame()).is_err() {
                    return;
                }
            }
            Some("shutdown") => {
                daemon.admit.close();
                while !daemon.admit.quiesced() {
                    std::thread::sleep(Duration::from_millis(2));
                }
                let reply = Value::object(vec![
                    ("type", Value::from("shutdown-complete")),
                    ("served", Value::from(daemon.requests_served())),
                ]);
                let _ = proto::write_frame(&mut writer, &reply);
                wake_accept(daemon.addr);
                return;
            }
            Some("compile") | Some("exec") | Some("tune") => {
                match req.get("type").and_then(Value::as_str) {
                    Some("compile") => &daemon.req_compile,
                    Some("exec") => &daemon.req_exec,
                    _ => &daemon.req_tune,
                }
                .fetch_add(1, Ordering::Relaxed);
                flat_obs::counter("flatd.requests").inc();
                let deadline = req
                    .get("deadline_ms")
                    .and_then(Value::as_u64)
                    .or(daemon.cfg.default_deadline_ms)
                    .map(Duration::from_millis);
                let (tx, rx) = mpsc::channel();
                let job = Job { req, arrived: Instant::now(), deadline, reply: tx };
                match daemon.admit.submit(job) {
                    Err((job, err)) => {
                        daemon.errors.fetch_add(1, Ordering::Relaxed);
                        drop(job);
                        if proto::write_frame(&mut writer, &err.to_frame()).is_err() {
                            return;
                        }
                    }
                    Ok(()) => {
                        // Forward the reply stream frame by frame; the
                        // worker dropping its sender ends the response.
                        for frame in rx {
                            if proto::write_frame(&mut writer, &frame).is_err() {
                                return;
                            }
                        }
                        if writer.flush().is_err() {
                            return;
                        }
                    }
                }
            }
            other => {
                let err = ServiceError::new(
                    "proto",
                    format!("unknown request type {other:?}"),
                );
                if proto::write_frame(&mut writer, &err.to_frame()).is_err() {
                    return;
                }
            }
        }
    }
}

fn worker_loop(daemon: Arc<Daemon>) {
    while let Some(mut batch) = daemon.admit.next_batch(daemon.cfg.batch) {
        // Group jobs for the same program together so a batch of
        // identical requests resolves the compile cache back to back
        // (first job fills it, the rest hit) with warm caches between
        // neighbours.
        batch.sort_by_cached_key(|j| {
            (job_program_key(&j.req), j.arrived)
        });
        for job in batch {
            if job.expired() {
                daemon.admit.expired.fetch_add(1, Ordering::Relaxed);
                flat_obs::counter("flatd.deadline_missed").inc();
                job.send_error(&ServiceError::new("deadline", "deadline passed while queued"));
            } else if let Err(e) = daemon.serve(&job) {
                daemon.errors.fetch_add(1, Ordering::Relaxed);
                flat_obs::counter("flatd.errors").inc();
                job.send_error(&e);
            }
            daemon.admit.finish();
        }
    }
}

/// The grouping key used to order a batch: program hash when the
/// request names one, else the content hash of its source.
fn job_program_key(req: &Value) -> String {
    if let Some(h) = req.get("program").and_then(Value::as_str) {
        return h.to_string();
    }
    let source = req.get("source").and_then(Value::as_str).unwrap_or("");
    let entry = req.get("entry").and_then(Value::as_str).unwrap_or("main");
    cache::program_hash(source, entry)
}

impl Daemon {
    fn requests_served(&self) -> u64 {
        self.req_compile.load(Ordering::Relaxed)
            + self.req_exec.load(Ordering::Relaxed)
            + self.req_tune.load(Ordering::Relaxed)
    }

    pub fn status_frame(&self) -> Value {
        Value::object(vec![
            ("type", Value::from("status")),
            ("uptime_ms", Value::from(self.started.elapsed().as_millis() as u64)),
            ("threads", Value::from(self.threads)),
            (
                "requests",
                Value::object(vec![
                    ("compile", Value::from(self.req_compile.load(Ordering::Relaxed))),
                    ("exec", Value::from(self.req_exec.load(Ordering::Relaxed))),
                    ("tune", Value::from(self.req_tune.load(Ordering::Relaxed))),
                    ("status", Value::from(self.req_status.load(Ordering::Relaxed))),
                    ("errors", Value::from(self.errors.load(Ordering::Relaxed))),
                ]),
            ),
            ("cache", cache::cache_status(&self.compile, &self.tuning)),
            ("queue", self.admit.status()),
            (
                "connections",
                Value::object(vec![
                    ("open", Value::from(self.conns_open.load(Ordering::Relaxed))),
                    ("total", Value::from(self.conns_total.load(Ordering::Relaxed))),
                ]),
            ),
        ])
    }

    /// Dispatch one admitted job. Any error return is sent to the
    /// client as a structured error frame by the worker loop.
    fn serve(&self, job: &Job) -> Result<(), ServiceError> {
        match job.req.get("type").and_then(Value::as_str) {
            Some("compile") => self.serve_compile(job),
            Some("exec") => self.serve_exec(job),
            Some("tune") => self.serve_tune(job),
            other => Err(ServiceError::new("proto", format!("bad job type {other:?}"))),
        }
    }

    /// Resolve the request's program: by hash (`program`) or by
    /// compiling `source`/`entry` through the content-hash cache.
    fn resolve_program(
        &self,
        req: &Value,
    ) -> Result<(Arc<cache::CachedProgram>, bool), ServiceError> {
        if let Some(hash) = req.get("program").and_then(Value::as_str) {
            return match self.compile.lookup(hash) {
                Some(p) => Ok((p, true)),
                None => Err(ServiceError::new(
                    "unknown-program",
                    format!("no cached program {hash}"),
                )),
            };
        }
        let source = req
            .get("source")
            .and_then(Value::as_str)
            .ok_or_else(|| ServiceError::new("proto", "request missing source"))?;
        let entry = req.get("entry").and_then(Value::as_str).unwrap_or("main");
        self.compile.get_or_compile(source, entry)
    }

    fn serve_compile(&self, job: &Job) -> Result<(), ServiceError> {
        let (prog, cached) = self.resolve_program(&job.req)?;
        if job.req.get("lint").and_then(Value::as_bool).unwrap_or(false) {
            let report = flat_verify::verify_pipeline(&prog.source, &prog.entry)
                .map_err(|e| ServiceError::new("fail", e.to_string()))?;
            let errors = report.iter().filter(|(_, d)| d.is_error()).count();
            if errors > 0 {
                return Err(ServiceError::new("lint", format!("{errors} lint error(s)")));
            }
        }
        let names: Vec<Value> = prog
            .flattened
            .thresholds
            .iter()
            .map(|i| Value::from(i.name.as_str()))
            .collect();
        job.send(Value::object(vec![
            ("type", Value::from("compiled")),
            ("program", Value::from(prog.hash.as_str())),
            ("cached", Value::from(cached)),
            ("compile_micros", Value::from(prog.compile_micros)),
            ("thresholds", Value::Array(names)),
        ]));
        Ok(())
    }

    fn serve_exec(&self, job: &Job) -> Result<(), ServiceError> {
        let req = &job.req;
        let spec = ExecSpec::from_request(req)?;
        // Each distinct count is a process-lifetime pool of that many
        // OS threads: a client may pick fewer than the daemon has, never more.
        if let Some(n) = spec.threads.filter(|&n| n == 0 || n > self.threads as u64) {
            return Err(ServiceError::new(
                "fail",
                format!("threads {n} outside 1..={}", self.threads),
            ));
        }
        let (prog, cached) = self.resolve_program(req)?;
        let (vals, cfg) = spec
            .resolve(&prog.flattened.thresholds, self.cfg.threads)
            .map_err(|e| ServiceError::new("fail", e))?;
        let rep = flat_vm::run_compiled(&prog.compiled, &vals, &cfg)
            .map_err(|e| ServiceError::new("fail", e.0))?;

        // Feed the warm-start sample store from every served run.
        let mut samples = Vec::new();
        for line in flat_exec::sample_log_lines(&rep, &prog.entry) {
            let text = flat_obs::json::to_string(&line)
                .map_err(|e| ServiceError::new("fail", e.to_string()))?;
            if let Ok(Some(s)) = autotune::samples::parse_sample_versioned(&text) {
                samples.push(s);
            }
        }
        self.samples.record(&prog.hash, samples);

        for (i, v) in rep.values.iter().enumerate() {
            for frame in proto::result_frames(i, v) {
                job.send(frame);
            }
        }
        let sig = rep.signature();
        job.send(Value::object(vec![
            ("type", Value::from("done")),
            ("program", Value::from(prog.hash.as_str())),
            ("cached", Value::from(cached)),
            ("values", Value::from(rep.values.len())),
            ("kernels", Value::from(rep.launches.len())),
            ("wall_nanos", Value::from(rep.wall_nanos)),
            ("threads", Value::from(rep.threads)),
            (
                "path",
                Value::Array(
                    sig.iter()
                        .map(|&(id, taken)| {
                            Value::Array(vec![Value::from(id), Value::from(taken)])
                        })
                        .collect(),
                ),
            ),
        ]));
        Ok(())
    }

    fn serve_tune(&self, job: &Job) -> Result<(), ServiceError> {
        let req = &job.req;
        let (prog, _) = self.resolve_program(req)?;
        let datasets_spec: Vec<Vec<String>> = req
            .get("datasets")
            .and_then(Value::as_array)
            .ok_or_else(|| ServiceError::new("proto", "tune needs datasets"))?
            .iter()
            .map(|d| {
                d.as_array().map(|specs| {
                    specs
                        .iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Option<_>>()
            .ok_or_else(|| ServiceError::new("proto", "datasets are arrays of specs"))?;
        if datasets_spec.is_empty() {
            return Err(ServiceError::new("fail", "tune needs at least one dataset"));
        }
        let reps = req.get("reps").and_then(Value::as_u64).unwrap_or(3) as usize;
        let seed = req.get("data_seed").and_then(Value::as_u64).unwrap_or(DEFAULT_DATA_SEED);
        let max_candidates =
            req.get("max_candidates").and_then(Value::as_u64).unwrap_or(60) as usize;
        let threads = self.threads;

        let key = TuneKey {
            device: format!("host/{threads}"),
            program: prog.hash.clone(),
            tuning: cache::tune_request_hash(&datasets_spec, reps, seed, max_candidates, "vm"),
        };
        if let Some(hit) = self.tuning.lookup(&key) {
            job.send(tuned_frame(&prog.hash, &hit, true));
            return Ok(());
        }

        let mut datasets = Vec::new();
        for (i, specs) in datasets_spec.iter().enumerate() {
            let abs = specs
                .iter()
                .map(|s| s.parse())
                .collect::<Result<_, _>>()
                .map_err(|e| ServiceError::new("fail", e))?;
            datasets.push(autotune::Dataset::new(format!("d{i}"), abs));
        }
        let fl = &prog.flattened;
        let compiled = &prog.compiled;
        let run = move |a: &_, c: &_| flat_vm::run_compiled(compiled, a, c);
        let problem = autotune::TuningProblem::new(fl, datasets, flat_exec::host_device(threads))
            .with_runner(flat_perf::tuning_runner(run, seed, Some(threads), reps));
        let warm_start = self.samples.warm_start(&prog.hash, &fl.thresholds);
        let warm = warm_start.is_some();
        let tuner = autotune::StochasticTuner {
            max_candidates,
            start: warm_start,
            ..autotune::StochasticTuner::default()
        };
        let result = tuner.run(&problem).map_err(|e| ServiceError::new("fail", e.to_string()))?;
        let mut named: Vec<(String, i64)> = result
            .thresholds
            .iter()
            .map(|(id, v)| (fl.thresholds.info(id).name.clone(), v))
            .collect();
        named.sort();
        let entry = TunedEntry {
            named,
            text: incflat::write_tuning(&fl.thresholds, &result.thresholds),
            best_cost: result.best_cost,
            candidates: result.candidates,
            warm,
        };
        let entry = self.tuning.insert(key, entry);
        job.send(tuned_frame(&prog.hash, &entry, false));
        Ok(())
    }
}

fn tuned_frame(program: &str, entry: &TunedEntry, cached: bool) -> Value {
    Value::object(vec![
        ("type", Value::from("tuned")),
        ("program", Value::from(program)),
        ("cached", Value::from(cached)),
        ("warm", Value::from(entry.warm)),
        ("candidates", Value::from(entry.candidates)),
        ("best_cost", Value::from(entry.best_cost)),
        (
            "thresholds",
            Value::object(
                entry.named.iter().map(|(n, v)| (n.as_str(), Value::from(*v))).collect(),
            ),
        ),
        ("tuning", Value::from(entry.text.as_str())),
    ])
}
