//! A synchronous client for the flatd protocol.
//!
//! One [`Client`] wraps one TCP connection and issues requests in
//! lock-step: write a frame, read reply frames until the response is
//! complete. Results are reassembled from their chunked hex frames into
//! [`flat_ir::value::Value`]s bitwise-identical to a local run.

use crate::proto::{self, FrameError, ResultAssembly, ServiceError};
use flat_exec::ExecConfig;
use flat_ir::interp::Thresholds;
use flat_ir::value::Value as RunValue;
use incflat::ThresholdRegistry;
use flat_obs::json::Value;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a request failed: transport, protocol, or a structured error
/// frame from the daemon.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The daemon sent an `error` frame; carries its code taxonomy.
    Service(ServiceError),
    /// The reply stream violated the protocol.
    Proto(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Service(e) => write!(f, "{e}"),
            ClientError::Proto(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Eof => ClientError::Proto("server closed the connection".to_string()),
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::TooBig(n) => ClientError::Proto(format!("oversized reply frame ({n} bytes)")),
            FrameError::Malformed(m) => ClientError::Proto(m),
        }
    }
}

pub type Result<T> = std::result::Result<T, ClientError>;

/// A successful `exec` reply: the reassembled values plus the metadata
/// from the daemon's `done` frame.
#[derive(Debug)]
pub struct ExecReply {
    pub values: Vec<RunValue>,
    /// Content hash of the program that ran.
    pub program: String,
    /// Whether the compile cache already held the program.
    pub cached: bool,
    pub wall_nanos: f64,
    pub kernels: u64,
    pub threads: u64,
    /// The threshold comparison path the run took.
    pub path: Vec<(u32, bool)>,
}

/// A successful `compile` reply.
#[derive(Debug)]
pub struct CompileReply {
    pub program: String,
    pub cached: bool,
    pub compile_micros: u64,
    pub thresholds: Vec<String>,
}

/// One connection to a flatd daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        timeout: Duration,
    ) -> Result<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Client::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> Result<Client> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: BufWriter::new(stream) })
    }

    /// Send one frame and read one reply frame (for single-frame
    /// request kinds: `status`, `compile`, `tune`, `shutdown`).
    fn round_trip(&mut self, req: &Value) -> Result<Value> {
        proto::write_frame(&mut self.writer, req)?;
        let reply = proto::read_frame(&mut self.reader, proto::MAX_FRAME)?;
        if reply.get("type").and_then(Value::as_str) == Some("error") {
            return Err(ClientError::Service(error_of(&reply)));
        }
        Ok(reply)
    }

    pub fn status(&mut self) -> Result<Value> {
        self.round_trip(&Value::object(vec![("type", Value::from("status"))]))
    }

    /// Ask the daemon to drain and exit; returns its final reply.
    pub fn shutdown(&mut self) -> Result<Value> {
        self.round_trip(&Value::object(vec![("type", Value::from("shutdown"))]))
    }

    /// Compile (or look up) a program, returning its content hash for
    /// later hash-addressed `exec`/`tune` requests.
    pub fn compile(&mut self, source: &str, entry: &str, lint: bool) -> Result<CompileReply> {
        let reply = self.round_trip(&Value::object(vec![
            ("type", Value::from("compile")),
            ("source", Value::from(source)),
            ("entry", Value::from(entry)),
            ("lint", Value::from(lint)),
        ]))?;
        expect_type(&reply, "compiled")?;
        Ok(CompileReply {
            program: str_field(&reply, "program")?,
            cached: reply.get("cached").and_then(Value::as_bool).unwrap_or(false),
            compile_micros: reply.get("compile_micros").and_then(Value::as_u64).unwrap_or(0),
            thresholds: reply
                .get("thresholds")
                .and_then(Value::as_array)
                .map(|a| a.iter().filter_map(|v| v.as_str().map(str::to_string)).collect())
                .unwrap_or_default(),
        })
    }

    /// Execute a request frame built by [`exec_request`] (or a custom
    /// one) and reassemble the streamed results.
    pub fn exec(&mut self, req: &Value) -> Result<ExecReply> {
        proto::write_frame(&mut self.writer, req)?;
        let mut values: Vec<RunValue> = Vec::new();
        let mut pending: Option<ResultAssembly> = None;
        loop {
            let frame = proto::read_frame(&mut self.reader, proto::MAX_FRAME)?;
            match frame.get("type").and_then(Value::as_str) {
                Some("error") => return Err(ClientError::Service(error_of(&frame))),
                Some("result") => {
                    if pending.is_some() {
                        return Err(ClientError::Proto("result before chunks finished".into()));
                    }
                    let asm = ResultAssembly::from_header(&frame).map_err(ClientError::Proto)?;
                    if asm.needs_chunks() {
                        pending = Some(asm);
                    } else {
                        values.push(asm.finish().map_err(ClientError::Proto)?);
                    }
                }
                Some("result-chunk") => {
                    let asm = pending
                        .as_mut()
                        .ok_or_else(|| ClientError::Proto("chunk without header".into()))?;
                    asm.push_chunk(&frame).map_err(ClientError::Proto)?;
                    if !asm.needs_chunks() {
                        let asm = pending.take().expect("pending chunk assembly");
                        values.push(asm.finish().map_err(ClientError::Proto)?);
                    }
                }
                Some("done") => {
                    if pending.is_some() {
                        return Err(ClientError::Proto("done with chunks outstanding".into()));
                    }
                    let path = frame
                        .get("path")
                        .and_then(Value::as_array)
                        .map(|a| {
                            a.iter()
                                .filter_map(|p| {
                                    let p = p.as_array()?;
                                    Some((
                                        p.first()?.as_u64()? as u32,
                                        p.get(1)?.as_bool()?,
                                    ))
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    return Ok(ExecReply {
                        values,
                        program: str_field(&frame, "program")?,
                        cached: frame.get("cached").and_then(Value::as_bool).unwrap_or(false),
                        wall_nanos: frame
                            .get("wall_nanos")
                            .and_then(Value::as_f64)
                            .unwrap_or(0.0),
                        kernels: frame.get("kernels").and_then(Value::as_u64).unwrap_or(0),
                        threads: frame.get("threads").and_then(Value::as_u64).unwrap_or(0),
                        path,
                    });
                }
                other => {
                    return Err(ClientError::Proto(format!("unexpected frame {other:?}")))
                }
            }
        }
    }

    /// Execute by source text with default settings.
    pub fn exec_source(&mut self, source: &str, entry: &str, args: &[String]) -> Result<ExecReply> {
        self.exec(&exec_request(ExecSpec {
            source: Some(source.to_string()),
            entry: entry.to_string(),
            args: args.to_vec(),
            ..ExecSpec::default()
        }))
    }

    /// Run a tune request; returns the daemon's `tuned` frame.
    pub fn tune(&mut self, req: &Value) -> Result<Value> {
        let reply = self.round_trip(req)?;
        expect_type(&reply, "tuned")?;
        Ok(reply)
    }
}

/// The data seed of a request that names none.
pub const DEFAULT_DATA_SEED: u64 = 42;

/// One run request: all the knobs an `exec` request can carry, and the
/// one place they become concrete arguments and an `ExecConfig` — for
/// the daemon and for `flatc exec`/`perf regret`/`--check-local` alike.
/// `Default` leaves the daemon's own defaults in force.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExecSpec {
    /// Program source; mutually exclusive with `program`.
    pub source: Option<String>,
    /// Content hash of an already-compiled program.
    pub program: Option<String>,
    pub entry: String,
    /// Argument specs in `flatc exec` grammar (e.g. `[64][64]f32`).
    pub args: Vec<String>,
    pub data_seed: Option<u64>,
    pub threads: Option<u64>,
    pub grain: Option<u64>,
    /// `.tuning` file text applied before `thresholds` overrides.
    pub tuning: Option<String>,
    /// Named threshold overrides.
    pub thresholds: Vec<(String, i64)>,
    pub deadline_ms: Option<u64>,
}

impl ExecSpec {
    /// The inverse of [`exec_request`], minus `source`: the program text
    /// stays in the frame, where the compile cache reads it. Wrongly
    /// typed fields are `proto` errors.
    pub fn from_request(req: &Value) -> std::result::Result<ExecSpec, ServiceError> {
        let bad = |m: &str| ServiceError::new("proto", m);
        let str_of = |k: &str| req.get(k).and_then(Value::as_str).map(str::to_string);
        let u64_of = |k: &str| req.get(k).and_then(Value::as_u64);
        let args = match req.get("args").and_then(Value::as_array) {
            None => Vec::new(),
            Some(a) => a
                .iter()
                .map(|v| v.as_str().map(str::to_string))
                .collect::<Option<_>>()
                .ok_or_else(|| bad("args must be strings"))?,
        };
        let thresholds = match req.get("thresholds").and_then(Value::as_object) {
            None => Vec::new(),
            Some(o) => o
                .iter()
                .map(|(name, v)| Some((name.clone(), v.as_i64()?)))
                .collect::<Option<_>>()
                .ok_or_else(|| bad("threshold values are ints"))?,
        };
        Ok(ExecSpec {
            source: None,
            program: str_of("program"),
            entry: str_of("entry").unwrap_or_default(),
            args,
            data_seed: u64_of("data_seed"),
            threads: u64_of("threads"),
            grain: u64_of("grain"),
            tuning: str_of("tuning"),
            thresholds,
            deadline_ms: u64_of("deadline_ms"),
        })
    }

    /// The threshold assignment: the `tuning` text, then the named
    /// overrides on top.
    pub fn thresholds(
        &self,
        registry: &ThresholdRegistry,
    ) -> std::result::Result<Thresholds, String> {
        let mut t = match &self.tuning {
            Some(text) => incflat::read_tuning(registry, text)?,
            None => Thresholds::new(),
        };
        for (name, v) in &self.thresholds {
            let info = registry
                .iter()
                .find(|i| &i.name == name)
                .ok_or_else(|| format!("unknown threshold {name}"))?;
            t.set(info.id, *v);
        }
        Ok(t)
    }

    /// The run's arguments, materialized from `args` and `data_seed`,
    /// and its configuration; `default_threads` applies when the spec
    /// names no thread count.
    pub fn resolve(
        &self,
        registry: &ThresholdRegistry,
        default_threads: Option<usize>,
    ) -> std::result::Result<(Vec<RunValue>, ExecConfig), String> {
        let abs: Vec<_> =
            self.args.iter().map(|s| s.parse()).collect::<std::result::Result<_, _>>()?;
        let seed = self.data_seed.unwrap_or(DEFAULT_DATA_SEED);
        let vals = flat_exec::materialize(&abs, seed).map_err(|e| e.0)?;
        let cfg = ExecConfig {
            thresholds: self.thresholds(registry)?,
            threads: self.threads.map(|n| n as usize).or(default_threads),
            grain: self.grain.map_or(flat_exec::DEFAULT_GRAIN, |n| n as usize),
            ..ExecConfig::default()
        };
        Ok((vals, cfg))
    }
}

/// Build the wire frame for an exec request.
pub fn exec_request(spec: ExecSpec) -> Value {
    let mut req = Value::object(vec![("type", Value::from("exec"))]);
    if let Some(s) = spec.source {
        req.insert("source", Value::from(s));
    }
    if let Some(h) = spec.program {
        req.insert("program", Value::from(h));
    }
    if !spec.entry.is_empty() {
        req.insert("entry", Value::from(spec.entry));
    }
    req.insert(
        "args",
        Value::Array(spec.args.iter().map(|s| Value::from(s.as_str())).collect()),
    );
    if let Some(n) = spec.data_seed {
        req.insert("data_seed", Value::from(n));
    }
    if let Some(n) = spec.threads {
        req.insert("threads", Value::from(n));
    }
    if let Some(n) = spec.grain {
        req.insert("grain", Value::from(n));
    }
    if let Some(t) = spec.tuning {
        req.insert("tuning", Value::from(t));
    }
    if !spec.thresholds.is_empty() {
        req.insert(
            "thresholds",
            Value::object(
                spec.thresholds.iter().map(|(n, v)| (n.as_str(), Value::from(*v))).collect(),
            ),
        );
    }
    if let Some(n) = spec.deadline_ms {
        req.insert("deadline_ms", Value::from(n));
    }
    req
}

fn error_of(frame: &Value) -> ServiceError {
    ServiceError::new(
        frame.get("code").and_then(Value::as_str).unwrap_or("fail"),
        frame.get("message").and_then(Value::as_str).unwrap_or("unknown error"),
    )
}

fn expect_type(frame: &Value, want: &str) -> Result<()> {
    let got = frame.get("type").and_then(Value::as_str);
    if got == Some(want) {
        Ok(())
    } else {
        Err(ClientError::Proto(format!("expected {want} frame, got {got:?}")))
    }
}

fn str_field(frame: &Value, key: &str) -> Result<String> {
    frame
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| ClientError::Proto(format!("reply missing {key}")))
}
