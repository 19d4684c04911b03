//! End-to-end tests for the flatd daemon: remote execution must be
//! **bitwise identical** to a local `--backend vm` run on every example
//! and benchmark program, repeated requests must be served from the
//! content-hash compile cache (the hit counter proves no recompilation
//! happened), admission control must shed late and excess work with
//! structured errors, and the wire protocol must answer malformed
//! frames, oversized payloads, and compile failures with the documented
//! error taxonomy.
//!
//! All tests run the daemon in-process on a loopback port picked by the
//! OS, so they are self-contained and parallel-safe.

use incremental_flattening::prelude::*;

use serve::proto::{self, ServiceError};
use serve::{Client, ClientError, ExecSpec, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn start_server(cfg: ServerConfig) -> serve::ServerHandle {
    serve::start(ServerConfig { quiet: true, ..cfg }).expect("bind loopback daemon")
}

fn default_server() -> serve::ServerHandle {
    start_server(ServerConfig::default())
}

/// The local reference compiles exactly as the daemon does: through the
/// compile driver, fusion included.
fn compile(source: &str, entry: &str) -> Result<compiler::Flattened, String> {
    let cfg = compiler::FlattenConfig::incremental();
    compiler::driver::compile(source, entry, &cfg, &mut |_| {}).map_err(|e| e.to_string())
}

/// Execute `source` remotely and locally (vm backend, identical specs
/// and data seed) and require bitwise-identical results.
fn check_remote_matches_local(
    client: &mut Client,
    name: &str,
    source: &str,
    entry: &str,
    specs: &[String],
) {
    let reply = client
        .exec(&serve::client::exec_request(ExecSpec {
            source: Some(source.to_string()),
            entry: entry.to_string(),
            args: specs.to_vec(),
            data_seed: Some(42),
            ..ExecSpec::default()
        }))
        .unwrap_or_else(|e| panic!("{name}: remote exec: {e}"));

    let fl = compile(source, entry).unwrap_or_else(|e| panic!("{name}: {e}"));
    let abs: Vec<gpu::AbsValue> = specs
        .iter()
        .map(|s| proto::parse_abs_value(s).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();
    let vals = exec::materialize(&abs, 42).unwrap();
    let compiled = vm::compile(&fl.prog).unwrap();
    let local = vm::run_compiled(&compiled, &vals, &exec::ExecConfig::default())
        .unwrap_or_else(|e| panic!("{name}: local vm: {e}"));

    assert_eq!(
        reply.values.len(),
        local.values.len(),
        "{name}: result arity differs"
    );
    for (i, (r, l)) in reply.values.iter().zip(&local.values).enumerate() {
        assert!(
            proto::bitwise_eq(r, l),
            "{name}: result {i} differs bitwise between remote and local vm"
        );
    }
}

#[test]
fn examples_bitwise_identical_to_local_vm() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let cases: [(&str, &str, &[&str]); 4] = [
        ("examples/sumrows.fut", "sumrows", &["16", "64", "[16][64]f32"]),
        // A zero-extent result: a header announcing a chunk that is
        // never sent would leave this client waiting forever.
        ("examples/sumrows.fut", "sumrows", &["0", "64", "[0][64]f32"]),
        (
            "examples/matmul.fut",
            "matmul",
            &["8", "16", "8", "[8][16]f32", "[16][8]f32"],
        ),
        (
            "examples/locvolcalib.fut",
            "locvolcalib",
            &["8", "8", "8", "[8][8][8]f32", "[8][8][8]f32", "2"],
        ),
    ];
    for (file, entry, specs) in cases {
        let source = std::fs::read_to_string(file).unwrap();
        let specs: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
        check_remote_matches_local(&mut client, file, &source, entry, &specs);
    }
    server.stop();
}

#[test]
fn benchmark_suite_bitwise_identical_to_local_vm() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    for b in bench_suite::all_benchmarks() {
        // Derive wire-friendly specs from the benchmark's own test
        // arguments: same shapes, data regenerated from the shared seed
        // on both sides.
        let mut rng = StdRng::seed_from_u64(0xDE7E);
        let args = (b.test_args)(&mut rng);
        let specs: Vec<String> = args
            .iter()
            .map(|v| proto::abs_value_spec(&gpu::AbsValue::of_value(v)))
            .collect::<Result<_, _>>()
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        check_remote_matches_local(&mut client, b.name, b.source, b.entry, &specs);
    }
    server.stop();
}

/// `exec_request` keeps its bytes, and `ExecSpec::from_request` inverts
/// it for every field but the program text.
#[test]
fn exec_request_bytes_and_from_request_round_trip() {
    let full = ExecSpec {
        source: Some("def main (x: i64): i64 = x".to_string()),
        program: Some("feedface".to_string()),
        entry: "main".to_string(),
        args: vec!["4".to_string(), "[4][2]f32".to_string()],
        data_seed: Some(7),
        threads: Some(2),
        grain: Some(4),
        tuning: Some("t0=1\n".to_string()),
        thresholds: vec![("t0".to_string(), 3), ("t1".to_string(), -1)],
        deadline_ms: Some(250),
    };
    let frame = serve::client::exec_request(full.clone());
    assert_eq!(
        obs::json::to_string(&frame).unwrap(),
        r#"{"type":"exec","source":"def main (x: i64): i64 = x","program":"feedface","entry":"main","args":["4","[4][2]f32"],"data_seed":7,"threads":2,"grain":4,"tuning":"t0=1\n","thresholds":{"t0":3,"t1":-1},"deadline_ms":250}"#
    );
    assert_eq!(ExecSpec::from_request(&frame).unwrap(), ExecSpec { source: None, ..full });
}

/// A served exec's `tuning` text, `thresholds` override, `threads` and
/// `grain` resolve exactly as a local `ExecSpec::resolve` run of the
/// same spec: bitwise values and the same threshold path.
#[test]
fn served_overrides_match_the_local_resolve() {
    let server = start_server(ServerConfig { threads: Some(2), ..ServerConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();
    let source = std::fs::read_to_string("examples/locvolcalib.fut").unwrap();
    let fl = compile(&source, "locvolcalib").unwrap();
    // The tuning text takes every guard; the override then refuses the
    // root (wire integers stop at 2^53), so the path shows both.
    let mut take_all = Thresholds::new();
    for info in fl.thresholds.iter() {
        take_all.set(info.id, 0);
    }
    let root = fl.thresholds.iter().find(|i| i.path.is_empty()).unwrap();
    let spec = ExecSpec {
        entry: "locvolcalib".to_string(),
        args: ["16", "4", "8", "[16][4][8]f32", "[16][8][4]f32", "2"].map(String::from).to_vec(),
        data_seed: Some(7),
        threads: Some(2),
        grain: Some(4),
        tuning: Some(compiler::write_tuning(&fl.thresholds, &take_all)),
        thresholds: vec![(root.name.clone(), 1 << 40)],
        ..ExecSpec::default()
    };
    let request = ExecSpec { source: Some(source.clone()), ..spec.clone() };
    let reply = client.exec(&serve::client::exec_request(request)).unwrap();

    let (vals, cfg) = spec.resolve(&fl.thresholds, None).unwrap();
    let local = vm::run_compiled(&vm::compile(&fl.prog).unwrap(), &vals, &cfg).unwrap();
    assert_eq!(reply.threads, 2);
    assert_eq!(reply.path, local.signature());
    assert!(reply.path.contains(&(root.id.0, false)), "{:?}", reply.path);
    assert!(reply.path.iter().any(|&(_, taken)| taken), "{:?}", reply.path);
    assert_eq!(reply.values.len(), local.values.len());
    for (i, (r, l)) in reply.values.iter().zip(&local.values).enumerate() {
        assert!(proto::bitwise_eq(r, l), "result {i} differs bitwise from the local run");
    }
    server.stop();
}

/// A `threads` outside the daemon's own pool, or a shape whose element
/// count overflows, is a `fail` error, and the daemon keeps serving.
#[test]
fn hostile_run_fields_fail_and_the_daemon_keeps_serving() {
    let server = start_server(ServerConfig { threads: Some(2), ..ServerConfig::default() });
    let mut client = Client::connect(server.addr()).unwrap();
    let source = std::fs::read_to_string("examples/sumrows.fut").unwrap();
    let mut exec = |threads: Option<u64>, args: [&str; 3]| {
        client.exec(&serve::client::exec_request(ExecSpec {
            source: Some(source.clone()),
            entry: "sumrows".to_string(),
            args: args.map(String::from).to_vec(),
            threads,
            ..ExecSpec::default()
        }))
    };
    let hostile = [
        (Some(1_000_000), ["8", "16", "[8][16]f32"]),
        (Some(0), ["8", "16", "[8][16]f32"]),
        (None, ["3037000500", "3037000500", "[3037000500][3037000500]f32"]),
        (None, ["4294967296", "4294967296", "[4294967296][4294967296]f32"]),
    ];
    for (threads, args) in hostile {
        match exec(threads, args) {
            Err(ClientError::Service(e)) => assert_eq!(e.code, "fail", "{e}"),
            other => panic!("{threads:?} {args:?}: expected a fail error, got {other:?}"),
        }
    }
    let ok = exec(Some(2), ["8", "16", "[8][16]f32"]).unwrap();
    assert_eq!(ok.threads, 2);
    let status = Client::connect(server.addr()).unwrap().status().unwrap();
    assert_eq!(status.get("threads").and_then(obs::json::Value::as_u64), Some(2));
    server.stop();
}

#[test]
fn repeated_requests_hit_the_compile_cache() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let source = std::fs::read_to_string("examples/sumrows.fut").unwrap();
    let specs = vec!["8".to_string(), "16".to_string(), "[8][16]f32".to_string()];

    let first = client.exec_source(&source, "sumrows", &specs).unwrap();
    assert!(!first.cached, "fresh daemon must cold-compile");
    assert_eq!(server.daemon().compile.misses(), 1);
    assert_eq!(server.daemon().compile.hits(), 0);

    let second = client.exec_source(&source, "sumrows", &specs).unwrap();
    assert!(second.cached, "identical source+entry must hit the cache");
    assert_eq!(server.daemon().compile.misses(), 1, "no recompilation");
    assert_eq!(server.daemon().compile.hits(), 1);
    assert_eq!(first.program, second.program, "stable content hash");

    // Results are identical across the cache hit.
    for (a, b) in first.values.iter().zip(&second.values) {
        assert!(proto::bitwise_eq(a, b));
    }

    // compile + exec-by-hash round-trip: no source on the second wire.
    let compiled = client.compile(&source, "sumrows", false).unwrap();
    assert!(compiled.cached);
    let by_hash = client
        .exec(&serve::client::exec_request(ExecSpec {
            program: Some(compiled.program.clone()),
            args: specs,
            data_seed: Some(42),
            ..ExecSpec::default()
        }))
        .unwrap();
    assert!(by_hash.cached);
    for (a, b) in first.values.iter().zip(&by_hash.values) {
        assert!(proto::bitwise_eq(a, b));
    }
    server.stop();
}

#[test]
fn compile_failures_carry_the_exit_code_taxonomy() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();

    let err = |r: Result<serve::client::CompileReply, ClientError>| -> ServiceError {
        match r {
            Err(ClientError::Service(e)) => e,
            other => panic!("expected a service error, got {other:?}"),
        }
    };
    let parse = err(client.compile("def main (", "main", false));
    assert_eq!((parse.code.as_str(), parse.exit_code()), ("parse", 2));
    let ty = err(client.compile("def main (x: i64): i64 = x + 1.5f32", "main", false));
    assert_eq!((ty.code.as_str(), ty.exit_code()), ("type", 3));
    assert_eq!(ServiceError::new("lint", "2 lint error(s)").exit_code(), 4);

    // Exec against a hash the daemon never compiled.
    let unknown = client.exec(&serve::client::exec_request(ExecSpec {
        program: Some("feedfacefeedface".to_string()),
        args: vec!["4".to_string(), "[4]i64".to_string()],
        ..ExecSpec::default()
    }));
    match unknown {
        Err(ClientError::Service(e)) => assert_eq!(e.code, "unknown-program"),
        other => panic!("expected unknown-program, got {other:?}"),
    }
    server.stop();
}

#[test]
fn malformed_frames_get_structured_proto_errors() {
    let server = default_server();

    // Garbage payload of the declared length: `proto` error, then the
    // daemon hangs up (framing is unrecoverable).
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let garbage = b"this is not json\n";
    s.write_all(&(garbage.len() as u32).to_be_bytes()).unwrap();
    s.write_all(garbage).unwrap();
    let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
    let reply = proto::read_frame(&mut reader, proto::MAX_FRAME).unwrap();
    assert_eq!(
        reply.get("code").and_then(obs::json::Value::as_str),
        Some("proto")
    );
    match proto::read_frame(&mut reader, proto::MAX_FRAME) {
        Err(proto::FrameError::Eof) => {}
        other => panic!("expected hang-up after proto error, got {other:?}"),
    }

    // Oversized length prefix: `toobig` error, then hang-up.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
    let reply = proto::read_frame(&mut reader, proto::MAX_FRAME).unwrap();
    assert_eq!(
        reply.get("code").and_then(obs::json::Value::as_str),
        Some("toobig")
    );
    match proto::read_frame(&mut reader, proto::MAX_FRAME) {
        Err(proto::FrameError::Eof) => {}
        other => panic!("expected hang-up after toobig error, got {other:?}"),
    }

    // Unknown request type: `proto` error but the connection survives.
    let mut client = Client::connect(server.addr()).unwrap();
    // (Client::status round-trips a well-formed frame; an unknown type
    // goes through the raw stream.)
    let s = TcpStream::connect(server.addr()).unwrap();
    let mut w = std::io::BufWriter::new(s.try_clone().unwrap());
    proto::write_frame(
        &mut w,
        &obs::json::Value::object(vec![("type", obs::json::Value::from("warble"))]),
    )
    .unwrap();
    let mut reader = std::io::BufReader::new(s.try_clone().unwrap());
    let reply = proto::read_frame(&mut reader, proto::MAX_FRAME).unwrap();
    assert_eq!(
        reply.get("code").and_then(obs::json::Value::as_str),
        Some("proto")
    );
    // Same connection still answers a real request.
    proto::write_frame(
        &mut w,
        &obs::json::Value::object(vec![("type", obs::json::Value::from("status"))]),
    )
    .unwrap();
    let reply = proto::read_frame(&mut reader, proto::MAX_FRAME).unwrap();
    assert_eq!(
        reply.get("type").and_then(obs::json::Value::as_str),
        Some("status")
    );
    drop(s);

    // Mid-stream disconnect (partial length prefix, then hang-up) must
    // not wedge the daemon: a fresh client still gets served.
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&[0, 0]).unwrap();
    drop(s);
    std::thread::sleep(Duration::from_millis(20));
    let status = client.status().unwrap();
    assert_eq!(
        status.get("type").and_then(obs::json::Value::as_str),
        Some("status")
    );
    server.stop();
}

#[test]
fn expired_deadlines_are_shed_with_a_deadline_error() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let source = std::fs::read_to_string("examples/sumrows.fut").unwrap();
    // A zero-millisecond deadline has always passed by dispatch time.
    let result = client.exec(&serve::client::exec_request(ExecSpec {
        source: Some(source),
        entry: "sumrows".to_string(),
        args: vec!["8".into(), "16".into(), "[8][16]f32".into()],
        deadline_ms: Some(0),
        ..ExecSpec::default()
    }));
    match result {
        Err(ClientError::Service(e)) => assert_eq!(e.code, "deadline"),
        other => panic!("expected deadline shed, got {other:?}"),
    }
    assert!(server.daemon().admit.expired.load(std::sync::atomic::Ordering::Relaxed) >= 1);
    server.stop();
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let server = default_server();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let source = std::fs::read_to_string("examples/sumrows.fut").unwrap();
    client
        .exec_source(&source, "sumrows", &["4".into(), "8".into(), "[4][8]f32".into()])
        .unwrap();

    let reply = client.shutdown().unwrap();
    assert_eq!(
        reply.get("type").and_then(obs::json::Value::as_str),
        Some("shutdown-complete")
    );
    assert_eq!(reply.get("served").and_then(obs::json::Value::as_u64), Some(1));
    server.join();
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(300)).is_err(),
        "daemon must stop listening after the drain"
    );
}

/// The compile counters in `status`: (hits, misses).
fn compile_counters(client: &mut Client) -> (u64, u64) {
    let status = client.status().unwrap();
    let get = |k: &str| {
        status
            .get("cache")
            .and_then(|c| c.get("compile"))
            .and_then(|c| c.get(k))
            .and_then(obs::json::Value::as_u64)
            .unwrap_or_else(|| panic!("status lacks cache.compile.{k}"))
    };
    (get("hits"), get("misses"))
}

/// A test-side load generator: `sessions` client threads each send
/// `requests` `exec_source` requests, cycling through `variants`. With a
/// `period`, each session is open-loop: request `r` is sent at
/// `start + r * period` (or at once if the reply to `r - 1` came later).
/// Returns every reply's `cached` flag, or its error.
fn run_sessions(
    addr: std::net::SocketAddr,
    variants: &[String],
    sessions: usize,
    requests: usize,
    period: Option<Duration>,
) -> Vec<Result<bool, ClientError>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..sessions)
            .map(|t| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let args = ["256".to_string(), "[256]i64".to_string()];
                    let start = std::time::Instant::now();
                    (0..requests)
                        .map(|r| {
                            if let Some(period) = period {
                                let due = start + period * r as u32;
                                std::thread::sleep(
                                    due.saturating_duration_since(std::time::Instant::now()),
                                );
                            }
                            let source = &variants[(t + r) % variants.len()];
                            client
                                .exec_source(source, "main", &args)
                                .map(|reply| reply.cached)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

/// Compile `n` variants of the reference workload on a fresh daemon and
/// return them with the compile counters after the cold compiles.
fn precompile(probe: &mut Client, n: usize) -> (Vec<String>, (u64, u64)) {
    let source = serve::bench::default_source();
    let variants: Vec<String> = (0..n).map(|i| serve::bench::variant(&source, i)).collect();
    for v in &variants {
        assert!(
            !probe.compile(v, "main", false).unwrap().cached,
            "fresh daemon must compile"
        );
    }
    let counters = compile_counters(probe);
    assert_eq!(counters, (0, n as u64));
    (variants, counters)
}

/// Every reply succeeded and came from the compile cache.
fn assert_all_cached(replies: Vec<Result<bool, ClientError>>, expected: usize) {
    assert_eq!(replies.len(), expected);
    for reply in replies {
        match reply {
            Ok(cached) => assert!(cached, "a pre-compiled program was compiled again"),
            Err(e) => panic!("request failed: {e}"),
        }
    }
}

/// Closed-loop load of concurrent sessions against pre-compiled
/// programs: every request completes, none is shed as `busy`, every
/// reply comes from the compile cache, and the daemon's miss counter
/// does not move.
#[test]
fn load_generator_round_trips() {
    const VARIANTS: usize = 4;
    const SESSIONS: usize = 8;
    const REQUESTS: usize = 4;
    let server = default_server();
    let mut probe = Client::connect(server.addr()).unwrap();
    let (variants, before) = precompile(&mut probe, VARIANTS);

    let replies = run_sessions(server.addr(), &variants, SESSIONS, REQUESTS, None);
    assert_all_cached(replies, SESSIONS * REQUESTS);
    let after = compile_counters(&mut probe);
    assert_eq!(after, (before.0 + (SESSIONS * REQUESTS) as u64, before.1));
    let admit = &server.daemon().admit;
    assert_eq!(admit.rejected.load(std::sync::atomic::Ordering::Relaxed), 0);
    server.stop();
}

/// Open-loop load (each session paced at 200 requests/s): every request
/// completes from the cache, with no error and no `busy` rejection.
#[test]
fn open_loop_load_completes() {
    const VARIANTS: usize = 2;
    const SESSIONS: usize = 4;
    const REQUESTS: usize = 3;
    let server = default_server();
    let mut probe = Client::connect(server.addr()).unwrap();
    let (variants, before) = precompile(&mut probe, VARIANTS);

    let period = Some(Duration::from_millis(5));
    let replies = run_sessions(server.addr(), &variants, SESSIONS, REQUESTS, period);
    assert_all_cached(replies, SESSIONS * REQUESTS);
    let after = compile_counters(&mut probe);
    assert_eq!(after, (before.0 + (SESSIONS * REQUESTS) as u64, before.1));
    let admit = &server.daemon().admit;
    assert_eq!(admit.rejected.load(std::sync::atomic::Ordering::Relaxed), 0);
    server.stop();
}

#[test]
fn tune_requests_are_cached_per_device_and_request() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).unwrap();
    let source = std::fs::read_to_string("examples/sumrows.fut").unwrap();
    let compiled = client.compile(&source, "sumrows", false).unwrap();

    let tune_req = |datasets: Vec<Vec<&str>>| {
        let mut req = obs::json::Value::object(vec![
            ("type", obs::json::Value::from("tune")),
            ("program", obs::json::Value::from(compiled.program.as_str())),
            ("reps", obs::json::Value::from(1u64)),
            ("max_candidates", obs::json::Value::from(6u64)),
        ]);
        req.insert(
            "datasets",
            obs::json::Value::Array(
                datasets
                    .iter()
                    .map(|d| {
                        obs::json::Value::Array(
                            d.iter().map(|s| obs::json::Value::from(*s)).collect(),
                        )
                    })
                    .collect(),
            ),
        );
        req
    };

    // Serve one exec first: every served run feeds the sample store,
    // which the tuner uses as a warm-start incumbent.
    client
        .exec(&serve::client::exec_request(ExecSpec {
            program: Some(compiled.program.clone()),
            args: vec!["4".into(), "64".into(), "[4][64]f32".into()],
            data_seed: Some(42),
            ..ExecSpec::default()
        }))
        .unwrap();
    assert!(server.daemon().samples.count(&compiled.program) > 0);

    let first = client.tune(&tune_req(vec![vec!["4", "64", "[4][64]f32"]])).unwrap();
    assert_eq!(first.get("cached").and_then(obs::json::Value::as_bool), Some(false));
    assert_eq!(
        first.get("warm").and_then(obs::json::Value::as_bool),
        Some(true),
        "tuning after a served run must warm-start from its samples"
    );
    assert!(first
        .get("tuning")
        .and_then(obs::json::Value::as_str)
        .is_some_and(|t| !t.is_empty()));

    // Identical request: served from the tuning cache.
    let second = client.tune(&tune_req(vec![vec!["4", "64", "[4][64]f32"]])).unwrap();
    assert_eq!(second.get("cached").and_then(obs::json::Value::as_bool), Some(true));
    assert_eq!(
        first.get("thresholds").map(|v| format!("{v:?}")),
        second.get("thresholds").map(|v| format!("{v:?}")),
        "cached reply carries the same assignment"
    );

    // A different dataset is a different tuning key.
    let third = client.tune(&tune_req(vec![vec!["64", "4", "[64][4]f32"]])).unwrap();
    assert_eq!(third.get("cached").and_then(obs::json::Value::as_bool), Some(false));
    assert_eq!(server.daemon().tuning.hits(), 1);
    assert_eq!(server.daemon().tuning.misses(), 2);

    server.stop();
}

#[test]
fn busy_rejection_when_the_queue_is_full() {
    // Capacity-1 queue and a single worker: concurrent heavier requests
    // must overflow and be rejected with `busy`.
    let server = start_server(ServerConfig {
        workers: 1,
        queue: 1,
        batch: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let source = std::fs::read_to_string("examples/matmul.fut").unwrap();
    let specs: Vec<String> =
        ["48", "48", "48", "[48][48]f32", "[48][48]f32"].iter().map(|s| s.to_string()).collect();
    let busy = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let done = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handles = Vec::new();
    for i in 0..12 {
        let source = source.clone();
        let specs = specs.clone();
        let busy = std::sync::Arc::clone(&busy);
        let done = std::sync::Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            // Distinct variants force distinct compiles, keeping the
            // single worker occupied long enough to overflow the queue.
            let src = format!("-- busy {i}\n{source}");
            match c.exec_source(&src, "matmul", &specs) {
                Ok(_) => {
                    done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                Err(ClientError::Service(e)) if e.code == "busy" => {
                    busy.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let rejected = busy.load(std::sync::atomic::Ordering::Relaxed);
    let completed = done.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(rejected + completed, 12);
    assert!(completed >= 1, "some requests must complete");
    assert_eq!(
        server.daemon().admit.rejected.load(std::sync::atomic::Ordering::Relaxed),
        rejected
    );
    server.stop();
}
