//! The untraced pass: set a workload up, warm it, and time its
//! operation with one in flight (`t1`) and with `nproc` in flight
//! (`tn`). No span is recorded and no telemetry is on; the end-to-end
//! metrics come from here.

use crate::cases::{splitmix, Case};
use crate::check::{bits_eq, Tally};
use crate::prepare::{prepare, Ready, References};
use flat_obs::json::Value as Json;
use flat_serve::client::{exec_request, ExecSpec};
use flat_serve::{Client, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a phase runs: a fixed number of operations per driver
/// (warm-up, so set-up does the same work on every machine) or until a
/// deadline (the timed window).
#[derive(Clone, Copy)]
pub enum Budget {
    Ops(u64),
    Until(Instant),
}

impl Budget {
    fn more(&self, done: u64) -> bool {
        match self {
            Budget::Ops(n) => done < *n,
            Budget::Until(t) => Instant::now() < *t,
        }
    }
}

/// How fast this core is running right now, as the time a fixed
/// dependent integer chain takes over the time it takes at reference
/// speed. The 2-core reference box changes clock by +-12% for seconds at a
/// time, which moves every raw latency with it; a driver divides each
/// latency by the factor read beside it, so `op_ms_*` and `ops_per_s` are
/// at reference clock. A reading is reused for [`SpeedProbe::MAX_AGE`],
/// so probing costs a driver about 1% of its time.
pub struct SpeedProbe {
    taken: Instant,
    factor: f64,
}

impl SpeedProbe {
    const MAX_AGE: Duration = Duration::from_millis(20);
    const SPIN: u64 = 33_000;
    /// The spin at the reference box's fastest sustained clock.
    const SPIN_REFERENCE_NS: f64 = 50_000.0;

    pub fn new() -> SpeedProbe {
        SpeedProbe {
            taken: Instant::now(),
            factor: SpeedProbe::measure(),
        }
    }

    /// The fastest of three spins, so a spin the scheduler interrupted
    /// (the serve workloads run more threads than cores) does not read as
    /// a slow clock.
    fn measure() -> f64 {
        let spin = || {
            let started = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15_u64;
            for _ in 0..SpeedProbe::SPIN {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = std::hint::black_box(x);
            }
            started.elapsed().as_nanos() as f64
        };
        spin().min(spin()).min(spin()) / SpeedProbe::SPIN_REFERENCE_NS
    }

    /// The current factor: above 1 when the core is slower than reference.
    pub fn factor(&mut self) -> f64 {
        if self.taken.elapsed() > SpeedProbe::MAX_AGE {
            self.factor = SpeedProbe::measure();
            self.taken = Instant::now();
        }
        self.factor
    }

    /// Time one operation, returning its wall time in nanoseconds at
    /// reference clock (the mean of the factors before and after it) with
    /// the factor used.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.factor();
        let started = Instant::now();
        let out = op();
        let ns = started.elapsed().as_nanos() as f64;
        let factor = (before + self.factor()) / 2.0;
        (out, ns / factor, factor)
    }
}

impl Default for SpeedProbe {
    fn default() -> SpeedProbe {
        SpeedProbe::new()
    }
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    /// Latencies in nanoseconds at reference clock, per row: one row for
    /// `compile` and the serve workloads, one per case for `kernels`.
    pub rows: Vec<Vec<f64>>,
    /// The same latencies as the wall clock read them.
    pub raw: Vec<Vec<f64>>,
    /// Named parts of an operation (`compile`'s two halves).
    pub parts: BTreeMap<&'static str, Vec<f64>>,
    /// Sum over driver threads of the time spent inside operations, at
    /// reference clock.
    pub busy_ns: f64,
    pub ops: u64,
    /// Threads that issued operations.
    pub drivers: usize,
}

impl Phase {
    fn new(rows: usize) -> Phase {
        Phase {
            rows: vec![Vec::new(); rows],
            raw: vec![Vec::new(); rows],
            drivers: 1,
            ..Phase::default()
        }
    }

    /// Record one operation of `row`: `ns` at reference clock, slowed by
    /// `factor` on the wall clock.
    fn push(&mut self, row: usize, ns: f64, factor: f64) {
        self.rows[row].push(ns);
        self.raw[row].push(ns * factor);
        self.busy_ns += ns;
        self.ops += 1;
    }

    pub fn absorb(&mut self, other: Phase) {
        if self.rows.len() < other.rows.len() {
            self.rows.resize(other.rows.len(), Vec::new());
        }
        self.raw.resize(self.rows.len(), Vec::new());
        for (mine, theirs) in self.rows.iter_mut().zip(other.rows) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.raw.iter_mut().zip(other.raw) {
            mine.extend(theirs);
        }
        for (k, v) in other.parts {
            self.parts.entry(k).or_default().extend(v);
        }
        self.busy_ns += other.busy_ns;
        self.ops += other.ops;
        self.drivers = self.drivers.max(other.drivers);
    }

    /// Completed operations per second: each driver's count over the
    /// time it spent inside operations, so the benchmark's own output
    /// checks between operations are not billed to the system.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * self.drivers as f64 / (self.busy_ns / 1e9)
    }
}

/// One program taken through the whole compiler, the way the `compile`
/// workload times it: `parse -> elaborate -> fuse -> flatten -> lower`.
pub fn compile_pipeline(
    source: &str,
    entry: &str,
) -> Result<(incflat::Flattened, flat_vm::CompiledProgram), String> {
    let parsed = flat_lang::parse_program(source).map_err(|e| e.to_string())?;
    let mut prog = flat_lang::compile_sprogram(&parsed, entry).map_err(|e| e.to_string())?;
    flat_ir::fusion::fuse_program(&mut prog);
    let flattened = incflat::flatten_incremental(&prog).map_err(|e| e.to_string())?;
    let compiled = flat_vm::compile(&flattened.prog).map_err(|e| e.to_string())?;
    Ok((flattened, compiled))
}

struct Sweep {
    /// Both halves at reference clock.
    compile_ns: f64,
    lint_ns: f64,
    factor: f64,
    ok: bool,
}

/// One operation of the `compile` workload: every program through the
/// pipeline, then every program through the inter-pass verifier. The
/// disassembly comparison sits outside both clocks.
fn sweep(cases: &[Case], disasm: &[String], probe: &mut SpeedProbe) -> Sweep {
    let mut ok = true;
    let (compiled, compile_ns, f0) = probe.time(|| {
        cases
            .iter()
            .map(|c| compile_pipeline(&c.source, &c.entry))
            .collect::<Vec<_>>()
    });
    let ((), lint_ns, f1) = probe.time(|| {
        for c in cases {
            match flat_verify::verify_pipeline(&c.source, &c.entry) {
                Ok(report) => ok &= report.error_count() == 0,
                Err(_) => ok = false,
            }
        }
    });

    for (result, want) in compiled.iter().zip(disasm) {
        ok &= matches!(result, Ok((_, code)) if flat_vm::disasm(code) == *want);
    }
    Sweep {
        compile_ns,
        lint_ns,
        factor: (f0 + f1) / 2.0,
        ok,
    }
}

/// A live daemon with `nproc` warm connections and one prebuilt request
/// frame per case.
pub struct Service {
    server: Option<ServerHandle>,
    /// Each connection with the count of requests it has issued, which
    /// seeds its next choice of case.
    clients: Vec<(Client, u64)>,
    requests: Vec<Json>,
    seed: u64,
}

impl Service {
    pub fn start(rows: &[Ready], nproc: usize, seed: u64) -> Result<Service, String> {
        let server = flat_serve::start(ServerConfig {
            threads: Some(nproc),
            workers: nproc,
            quiet: true,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("flatd: {e}"))?;
        let addr = server.addr();
        let clients = (0..nproc)
            .map(|_| Client::connect_timeout(&addr, Duration::from_secs(5)).map(|c| (c, 0)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("flatd: connect: {e}"))?;
        let requests = rows.iter().map(request_frame).collect();
        Ok(Service {
            server: Some(server),
            clients,
            requests,
            seed,
        })
    }

    pub fn server(&self) -> &ServerHandle {
        self.server.as_ref().expect("service is live until dropped")
    }

    pub fn request(&self, row: usize) -> &Json {
        &self.requests[row]
    }

    /// One request on the first connection, outside any phase.
    pub fn exec(&mut self, row: usize) -> Result<flat_serve::ExecReply, String> {
        self.clients[0]
            .0
            .exec(&self.requests[row])
            .map_err(|e| e.to_string())
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Connections first, so the drain has nothing left to wait for.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// The `exec` frame a client sends for a case.
pub fn request_frame(row: &Ready) -> Json {
    exec_request(ExecSpec {
        source: Some(row.case.source.clone()),
        entry: row.case.entry.clone(),
        args: row.case.args.clone(),
        data_seed: Some(row.case.data_seed),
        thresholds: row.overrides.clone(),
        ..ExecSpec::default()
    })
}

/// A workload after set-up.
pub enum Prepared {
    Compile {
        cases: Vec<Case>,
        disasm: Vec<String>,
    },
    Kernels {
        rows: Vec<Ready>,
    },
    Serve {
        rows: Vec<Ready>,
        service: Service,
    },
}

/// Compile and check every case; a case that cannot be prepared is a
/// failed operation and aborts set-up.
pub fn prepare_all(cases: &[Case], nproc: usize, tally: &mut Tally) -> Result<Vec<Ready>, String> {
    let mut refs = References::new();
    let mut rows = Vec::with_capacity(cases.len());
    for case in cases {
        match prepare(case, nproc, &mut refs, tally) {
            Ok(ready) => rows.push(ready),
            Err(e) => {
                tally.check(false, || e.clone());
                return Err(e);
            }
        }
    }
    Ok(rows)
}

impl Prepared {
    /// Set a workload up: inputs, compiles, reference checks, daemon
    /// start and first-touch misses. Warm-up is a separate phase the
    /// caller runs with [`Budget::Ops`].
    pub fn build(
        workload: &str,
        cases: &[Case],
        nproc: usize,
        seed: u64,
        tally: &mut Tally,
    ) -> Result<Prepared, String> {
        match workload {
            "compile" => {
                let mut disasm = Vec::with_capacity(cases.len());
                for c in cases {
                    let compiled = compile_pipeline(&c.source, &c.entry);
                    tally.check(compiled.is_ok(), || format!("{}: does not compile", c.name));
                    disasm.push(flat_vm::disasm(
                        &compiled.map_err(|e| format!("{}: {e}", c.name))?.1,
                    ));
                }
                // The compiler must be deterministic before its output
                // can be the reference every sweep is compared with.
                let again = sweep(cases, &disasm, &mut SpeedProbe::new());
                tally.check(again.ok, || {
                    "compile: second compile differs or lints".to_string()
                });
                Ok(Prepared::Compile {
                    cases: cases.to_vec(),
                    disasm,
                })
            }
            "kernels" => Ok(Prepared::Kernels {
                rows: prepare_all(cases, nproc, tally)?,
            }),
            _ => {
                let rows = prepare_all(cases, nproc, tally)?;
                let mut service = Service::start(&rows, nproc, seed)?;
                for (i, row) in rows.iter().enumerate() {
                    let reply = service.exec(i);
                    let ok = matches!(&reply, Ok(r) if !r.cached
                        && bits_eq(&r.values, &row.expect)
                        && r.path == row.signature);
                    tally.check(ok, || {
                        format!(
                            "{}: first served reply wrong: {:?}",
                            row.case.name,
                            reply.err()
                        )
                    });
                }
                Ok(Prepared::Serve { rows, service })
            }
        }
    }

    /// Start the timed rounds from case `first` instead of the first one.
    /// The serve workloads draw their cases by seeded hash already.
    pub fn start_from(&mut self, first: usize) {
        match self {
            Prepared::Compile { cases, disasm } => {
                cases.rotate_left(first);
                disasm.rotate_left(first);
            }
            Prepared::Kernels { rows } => rows.rotate_left(first),
            Prepared::Serve { .. } => {}
        }
    }

    /// Run operations with `par` in flight until the budget is spent.
    pub fn phase(&mut self, par: usize, budget: Budget, tally: &mut Tally) -> Phase {
        match self {
            Prepared::Compile { cases, disasm } => {
                let (cases, disasm) = (&*cases, &*disasm);
                let per_thread: Vec<(Phase, Tally)> = std::thread::scope(|s| {
                    let drivers: Vec<_> = (0..par)
                        .map(|_| {
                            s.spawn(move || {
                                let mut phase = Phase::new(1);
                                let mut tally = Tally::default();
                                let mut probe = SpeedProbe::new();
                                while budget.more(phase.ops) {
                                    let sw = sweep(cases, disasm, &mut probe);
                                    tally.check(sw.ok, || {
                                        "compile: sweep output differs or lints".to_string()
                                    });
                                    phase.push(0, sw.compile_ns + sw.lint_ns, sw.factor);
                                    phase
                                        .parts
                                        .entry("compile_ms")
                                        .or_default()
                                        .push(sw.compile_ns);
                                    phase.parts.entry("lint_ms").or_default().push(sw.lint_ns);
                                }
                                (phase, tally)
                            })
                        })
                        .collect();
                    drivers
                        .into_iter()
                        .map(|d| d.join().expect("compile driver"))
                        .collect()
                });
                merge(per_thread, par, tally)
            }
            Prepared::Kernels { rows } => {
                let mut phase = Phase::new(rows.len());
                let mut probe = SpeedProbe::new();
                let mut rounds = 0;
                // Whole rounds only, so every row has the same number of
                // samples and the interleaving cancels drift.
                while budget.more(rounds) {
                    for (i, row) in rows.iter().enumerate() {
                        let cfg = row.config(par);
                        let (rep, ns, factor) = probe
                            .time(|| flat_vm::run_compiled(&row.program.compiled, &row.args, &cfg));
                        let ok = matches!(&rep, Ok(r) if bits_eq(&r.values, &row.expect)
                            && r.signature() == row.signature);
                        tally.check(ok, || {
                            format!("{}: run at {par} thread(s) wrong", row.case.name)
                        });
                        phase.push(i, ns, factor);
                    }
                    rounds += 1;
                }
                phase
            }
            Prepared::Serve { rows, service } => {
                let (rows, requests, seed) = (&*rows, &service.requests, service.seed);
                let per_thread: Vec<(Phase, Tally)> = std::thread::scope(|s| {
                    let drivers: Vec<_> = service
                        .clients
                        .iter_mut()
                        .take(par)
                        .enumerate()
                        .map(|(conn, (client, issued))| {
                            s.spawn(move || {
                                let mut phase = Phase::new(1);
                                let mut tally = Tally::default();
                                let mut probe = SpeedProbe::new();
                                while budget.more(phase.ops) {
                                    let pick = splitmix(seed ^ ((conn as u64) << 40) ^ *issued);
                                    let i = (pick % rows.len() as u64) as usize;
                                    *issued += 1;
                                    let (reply, ns, factor) =
                                        probe.time(|| client.exec(&requests[i]));
                                    let ok = matches!(&reply, Ok(r) if r.cached
                                        && bits_eq(&r.values, &rows[i].expect)
                                        && r.path == rows[i].signature);
                                    tally.check(ok, || {
                                        format!(
                                            "{}: served reply wrong: {:?}",
                                            rows[i].case.name,
                                            reply.err()
                                        )
                                    });
                                    phase.push(0, ns, factor);
                                }
                                (phase, tally)
                            })
                        })
                        .collect();
                    drivers
                        .into_iter()
                        .map(|d| d.join().expect("serve driver"))
                        .collect()
                });
                merge(per_thread, par, tally)
            }
        }
    }
}

fn merge(per_thread: Vec<(Phase, Tally)>, drivers: usize, tally: &mut Tally) -> Phase {
    let mut all = Phase::default();
    for (phase, t) in per_thread {
        all.absorb(phase);
        tally.absorb(t);
    }
    all.drivers = drivers;
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_probe_reports_time_at_reference_clock() {
        let mut probe = SpeedProbe::new();
        let (out, ns, factor) = probe.time(|| {
            std::thread::sleep(Duration::from_millis(30));
            7
        });
        assert_eq!(out, 7);
        assert!(factor > 0.0 && factor.is_finite());
        // 30 ms on the wall clock, divided by the factor read around it.
        assert!(ns * factor >= 30e6, "{ns} ns at factor {factor}");
    }

    #[test]
    fn phases_merge_and_bill_only_time_inside_operations() {
        let mut a = Phase::new(2);
        a.push(0, 1e9, 1.0);
        a.push(1, 1e9, 1.25);
        let mut b = Phase::new(2);
        b.push(1, 2e9, 1.0);
        let mut all = Phase::default();
        all.absorb(a);
        all.absorb(b);
        all.drivers = 2;
        assert_eq!(all.rows, vec![vec![1e9], vec![1e9, 2e9]]);
        assert_eq!(all.raw[1], vec![1.25e9, 2e9]);
        // 3 operations, 4 s inside them across 2 drivers: 1.5 per second.
        assert_eq!(all.ops_per_s(), 1.5);
    }
}
