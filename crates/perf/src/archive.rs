//! The persistent run archive: an append-only JSONL file under
//! `results/perf/` where every `flatc bench`/`exec`/`tune`/`simulate`
//! invocation can leave a self-describing record.
//!
//! A record carries enough context to be compared *longitudinally*
//! without the toolchain that produced it: a content hash of the source
//! program, the backend and its knobs (device, threads, grain, reps),
//! the tuning-file hash, the git revision and `flatc` version, the
//! run's total cost, and — for runs with kernel logs — one entry per
//! launch with its full provenance frame stack and threshold-path
//! signature (the [`gpu_sim::AttrKey`] alignment identity). That is
//! exactly what [`crate::diff`] needs to align two runs months apart.
//!
//! ## Exactness
//!
//! Costs are `f64`s whose *bitwise* value matters: the attribution
//! diff's reconciliation property (deltas sum to the difference of the
//! two archived totals, exactly) only holds if the archive round-trips
//! floats losslessly. JSON number formatting is shortest-round-trip in
//! Rust, but the archive does not rely on it: every cost field is
//! stored twice, as a human-readable number *and* as the hex of its
//! IEEE-754 bits (`"bits":"3ff4000000000000"`), and the loader prefers
//! the bits.

use flat_obs::json::{self, Value};
use gpu_sim::AttrKey;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Archive format version. Records with a different major version are
/// skipped (with a warning) on load, never misread.
pub const ARCHIVE_SCHEMA: u32 = 1;

/// Default archive location, relative to the repository root.
pub const DEFAULT_ARCHIVE: &str = "results/perf/archive.jsonl";

/// FNV-1a 64-bit — the archive's content hash. Stable, dependency-free,
/// and plenty for identifying sources and tuning files (it fingerprints
/// content, it does not defend against adversaries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hex fingerprint of a source or tuning text.
pub fn content_hash(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

/// One archived kernel launch: the alignment key plus its cost.
#[derive(Clone, Debug, PartialEq)]
pub struct ArchivedKernel {
    /// Cross-run alignment identity: provenance stack, name, kind, and
    /// rendered threshold-path signature.
    pub key: AttrKey,
    /// Provenance id in the producing run (informational only — ids are
    /// not stable across builds, the `key.stack` is).
    pub prov: u32,
    /// Cost in the run's unit: simulated cycles (sim) or nanoseconds
    /// (exec, where 1 cycle = 1 ns).
    pub cycles: f64,
    /// Hardware launches charged to this entry.
    pub launches: u64,
}

/// A named scalar measurement (bench suite entries ride here).
#[derive(Clone, Debug, PartialEq)]
pub struct ArchivedEntry {
    pub key: String,
    pub cycles: f64,
}

/// One archived run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct RunRecord {
    /// Content id: hex FNV of the serialized payload. Filled by
    /// [`append_record`]; empty until then.
    pub id: String,
    /// `"exec"`, `"simulate"`, `"bench"`, or `"tune"`.
    pub kind: String,
    /// Entry point (or suite name for bench runs).
    pub program: String,
    /// Source path as given on the command line, when there was one.
    pub source: Option<String>,
    /// Hex FNV-1a of the source text (empty for suite runs).
    pub source_hash: String,
    /// `"sim"` or `"exec"`.
    pub backend: String,
    /// Device name (`k40`, `vega64`, `host`).
    pub device: String,
    /// Device clock, for rendering cycles as time.
    pub clock_ghz: f64,
    pub git_rev: Option<String>,
    pub version: String,
    pub threads: Option<usize>,
    pub grain: Option<usize>,
    pub reps: Option<usize>,
    /// Hex FNV-1a of the `.tuning` file contents, when one was loaded.
    pub tuning_hash: Option<String>,
    /// The `--arg`/`--dataset` specs, verbatim.
    pub args: Vec<String>,
    /// Total cost: simulated cycles, or median wall nanoseconds.
    pub total_cycles: f64,
    /// Live-dispatched threshold path signature.
    pub path: Vec<(u32, bool)>,
    /// Per-launch attribution entries, in launch order. Their cycles
    /// sum — in this order — to `total_cycles` bitwise for `simulate`
    /// runs and for single-rep `exec` runs (multi-rep exec totals are
    /// medians over repetitions, which no single kernel log sums to).
    pub kernels: Vec<ArchivedKernel>,
    /// Pool scheduler telemetry of the measured run, verbatim JSON
    /// (exec runs with telemetry on).
    pub pool: Option<Value>,
    /// Suite measurements (bench runs).
    pub entries: Vec<ArchivedEntry>,
    /// Tuned threshold assignment (tune runs), `name = value`.
    pub thresholds: Vec<(String, i64)>,
}

fn f64_with_bits(v: f64) -> Value {
    Value::object(vec![
        ("v", Value::from(v)),
        ("bits", Value::from(format!("{:016x}", v.to_bits()))),
    ])
}

fn read_f64_with_bits(v: &Value, what: &str) -> Result<f64, String> {
    let v = match v {
        Value::Object(_) => v,
        // Tolerate a bare number (hand-edited archives).
        _ => return v.as_f64().ok_or_else(|| format!("{what}: not a number")),
    };
    if let Some(bits) = v.get("bits").and_then(Value::as_str) {
        let bits = u64::from_str_radix(bits, 16).map_err(|e| format!("{what}: bad bits: {e}"))?;
        return Ok(f64::from_bits(bits));
    }
    v.get("v")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what}: missing value"))
}

fn sig_to_json(sig: &[(u32, bool)]) -> Value {
    Value::Array(
        sig.iter()
            .map(|(id, taken)| Value::Array(vec![Value::from(*id), Value::from(*taken)]))
            .collect(),
    )
}

fn sig_from_json(v: &Value, what: &str) -> Result<Vec<(u32, bool)>, String> {
    let arr = v.as_array().ok_or_else(|| format!("{what}: not an array"))?;
    arr.iter()
        .map(|e| {
            let pair = e
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("{what}: entry is not an [id, taken] pair"))?;
            Ok((
                pair[0].as_u64().ok_or_else(|| format!("{what}: id not an integer"))? as u32,
                pair[1].as_bool().ok_or_else(|| format!("{what}: outcome not a bool"))?,
            ))
        })
        .collect()
}

impl RunRecord {
    /// Serialize the payload (everything but `id`) as one JSON line.
    fn payload_json(&self) -> Value {
        let mut v = Value::object(vec![
            ("schema", Value::from(ARCHIVE_SCHEMA)),
            ("kind", Value::from(self.kind.as_str())),
            ("program", Value::from(self.program.as_str())),
            ("source_hash", Value::from(self.source_hash.as_str())),
            ("backend", Value::from(self.backend.as_str())),
            ("device", Value::from(self.device.as_str())),
            ("clock_ghz", Value::from(self.clock_ghz)),
            ("version", Value::from(self.version.as_str())),
            ("args", Value::Array(self.args.iter().map(|a| Value::from(a.as_str())).collect())),
            ("total_cycles", f64_with_bits(self.total_cycles)),
            ("path", sig_to_json(&self.path)),
            (
                "kernels",
                Value::Array(
                    self.kernels
                        .iter()
                        .map(|k| {
                            Value::object(vec![
                                (
                                    "stack",
                                    Value::Array(
                                        k.key
                                            .stack
                                            .iter()
                                            .map(|f| Value::from(f.as_str()))
                                            .collect(),
                                    ),
                                ),
                                ("name", Value::from(k.key.name.as_str())),
                                ("kernel_kind", Value::from(k.key.kind.as_str())),
                                ("sig", Value::from(k.key.sig.as_str())),
                                ("prov", Value::from(k.prov)),
                                ("cycles", f64_with_bits(k.cycles)),
                                ("launches", Value::from(k.launches)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Some(s) = &self.source {
            v.insert("source", Value::from(s.as_str()));
        }
        if let Some(r) = &self.git_rev {
            v.insert("git_rev", Value::from(r.as_str()));
        }
        if let Some(t) = self.threads {
            v.insert("threads", Value::from(t));
        }
        if let Some(g) = self.grain {
            v.insert("grain", Value::from(g));
        }
        if let Some(r) = self.reps {
            v.insert("reps", Value::from(r));
        }
        if let Some(h) = &self.tuning_hash {
            v.insert("tuning_hash", Value::from(h.as_str()));
        }
        if let Some(p) = &self.pool {
            v.insert("pool", p.clone());
        }
        if !self.entries.is_empty() {
            v.insert(
                "entries",
                Value::Array(
                    self.entries
                        .iter()
                        .map(|e| {
                            Value::object(vec![
                                ("key", Value::from(e.key.as_str())),
                                ("cycles", f64_with_bits(e.cycles)),
                            ])
                        })
                        .collect(),
                ),
            );
        }
        if !self.thresholds.is_empty() {
            v.insert(
                "thresholds",
                Value::Array(
                    self.thresholds
                        .iter()
                        .map(|(n, val)| {
                            // Decimal string, not a JSON number: threshold
                            // values reach i64::MAX (a refused guard), which
                            // the f64-backed JSON numbers cannot hold.
                            Value::Array(vec![
                                Value::from(n.as_str()),
                                Value::from(val.to_string()),
                            ])
                        })
                        .collect(),
                ),
            );
        }
        v
    }

    /// The full JSON line, id included.
    pub fn to_json_line(&self) -> String {
        let mut v = self.payload_json();
        v.insert("id", Value::from(self.id.as_str()));
        json::to_string(&v).expect("archive record serializes")
    }

    /// Parse one archive line. `Ok(None)` means the line carries an
    /// unknown schema version and should be skipped by the caller.
    pub fn parse(line: &str) -> Result<Option<RunRecord>, String> {
        let v: Value =
            json::from_str(line).map_err(|e| format!("bad archive JSON: {e:?}"))?;
        let schema = v.get("schema").and_then(Value::as_u64).unwrap_or(0) as u32;
        if schema != ARCHIVE_SCHEMA {
            return Ok(None);
        }
        let s = |name: &str| -> Result<String, String> {
            Ok(v.get(name)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("archive record missing '{name}'"))?
                .to_string())
        };
        let opt_s =
            |name: &str| v.get(name).and_then(Value::as_str).map(str::to_string);
        let opt_n = |name: &str| v.get(name).and_then(Value::as_u64).map(|n| n as usize);
        let mut kernels = Vec::new();
        if let Some(ks) = v.get("kernels").and_then(Value::as_array) {
            for (i, k) in ks.iter().enumerate() {
                let field = |name: &str| {
                    k.get(name)
                        .and_then(Value::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| format!("kernel {i}: missing '{name}'"))
                };
                let stack = k
                    .get("stack")
                    .and_then(Value::as_array)
                    .ok_or_else(|| format!("kernel {i}: missing 'stack'"))?
                    .iter()
                    .map(|f| {
                        f.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| format!("kernel {i}: non-string frame"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                kernels.push(ArchivedKernel {
                    key: AttrKey {
                        stack,
                        name: field("name")?,
                        kind: field("kernel_kind")?,
                        sig: field("sig")?,
                    },
                    prov: k.get("prov").and_then(Value::as_u64).unwrap_or(0) as u32,
                    cycles: read_f64_with_bits(
                        k.get("cycles").ok_or_else(|| format!("kernel {i}: missing 'cycles'"))?,
                        "kernel cycles",
                    )?,
                    launches: k.get("launches").and_then(Value::as_u64).unwrap_or(1),
                });
            }
        }
        let mut entries = Vec::new();
        if let Some(es) = v.get("entries").and_then(Value::as_array) {
            for (i, e) in es.iter().enumerate() {
                entries.push(ArchivedEntry {
                    key: e
                        .get("key")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("entry {i}: missing 'key'"))?
                        .to_string(),
                    cycles: read_f64_with_bits(
                        e.get("cycles").ok_or_else(|| format!("entry {i}: missing 'cycles'"))?,
                        "entry cycles",
                    )?,
                });
            }
        }
        let mut thresholds = Vec::new();
        if let Some(ts) = v.get("thresholds").and_then(Value::as_array) {
            for t in ts {
                let pair = t
                    .as_array()
                    .filter(|p| p.len() == 2)
                    .ok_or("thresholds: entry is not a [name, value] pair")?;
                // Written as a decimal string (i64::MAX does not fit the
                // f64-backed JSON numbers); accept a plain number too.
                let val = match pair[1].as_str() {
                    Some(text) => text
                        .parse::<i64>()
                        .map_err(|e| format!("thresholds: bad value `{text}`: {e}"))?,
                    None => pair[1].as_i64().ok_or("thresholds: value not an integer")?,
                };
                thresholds.push((
                    pair[0].as_str().ok_or("thresholds: name not a string")?.to_string(),
                    val,
                ));
            }
        }
        Ok(Some(RunRecord {
            id: opt_s("id").unwrap_or_default(),
            kind: s("kind")?,
            program: s("program")?,
            source: opt_s("source"),
            source_hash: s("source_hash")?,
            backend: s("backend")?,
            device: s("device")?,
            clock_ghz: v.get("clock_ghz").and_then(Value::as_f64).unwrap_or(1.0),
            git_rev: opt_s("git_rev"),
            version: s("version")?,
            threads: opt_n("threads"),
            grain: opt_n("grain"),
            reps: opt_n("reps"),
            tuning_hash: opt_s("tuning_hash"),
            args: v
                .get("args")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|x| x.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            total_cycles: read_f64_with_bits(
                v.get("total_cycles").ok_or("archive record missing 'total_cycles'")?,
                "total_cycles",
            )?,
            path: sig_from_json(
                v.get("path").ok_or("archive record missing 'path'")?,
                "path",
            )?,
            kernels,
            pool: v.get("pool").cloned(),
            entries,
            thresholds,
        }))
    }

    /// Time per cycle-count under this record's clock, in microseconds.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        if self.clock_ghz > 0.0 {
            cycles / (self.clock_ghz * 1_000.0)
        } else {
            0.0
        }
    }
}

/// The git revision the toolchain was run from, if the working
/// directory is a checkout with `git` on PATH. Recorded into baselines
/// and perf-archive records so a number can be traced to the code that
/// produced it.
pub fn git_rev() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if rev.is_empty() {
        None
    } else {
        Some(rev)
    }
}

/// The `flatc` version string recorded alongside measurements.
pub fn version_string() -> String {
    format!("flatc {}", env!("CARGO_PKG_VERSION"))
}

/// Common provenance stamped on every record this process produces.
pub fn stamp(rec: &mut RunRecord) {
    rec.git_rev = git_rev();
    rec.version = version_string();
}

/// Build a record from a simulation report.
pub fn from_sim(
    program: &str,
    source: Option<&str>,
    source_text: &str,
    args: &[String],
    rep: &gpu_sim::SimReport,
    prov: &flat_ir::prov::ProvTable,
    dev: &gpu_sim::DeviceSpec,
) -> RunRecord {
    let mut rec = RunRecord {
        kind: "simulate".to_string(),
        program: program.to_string(),
        source: source.map(str::to_string),
        source_hash: content_hash(source_text),
        backend: "sim".to_string(),
        device: dev.name.to_string(),
        clock_ghz: dev.clock_ghz,
        args: args.to_vec(),
        total_cycles: rep.cost.total_cycles,
        path: flat_ir::interp::path_signature(&rep.path),
        kernels: archived_kernels(&rep.kernels, prov),
        ..RunRecord::default()
    };
    stamp(&mut rec);
    rec
}

/// Build a record from an executor run: kernels in launch order at
/// 1 cycle = 1 ns, the total being the measurement's median wall time.
#[allow(clippy::too_many_arguments)]
pub fn from_exec(
    program: &str,
    source: Option<&str>,
    source_text: &str,
    args: &[String],
    rep: &flat_exec::ExecReport,
    median_nanos: f64,
    reps: usize,
    prov: &flat_ir::prov::ProvTable,
) -> RunRecord {
    let launches = flat_exec::kernel_launches(rep);
    let mut rec = RunRecord {
        kind: "exec".to_string(),
        program: program.to_string(),
        source: source.map(str::to_string),
        source_hash: content_hash(source_text),
        backend: "exec".to_string(),
        device: "host".to_string(),
        clock_ghz: 1.0,
        threads: Some(rep.threads),
        grain: Some(rep.grain),
        reps: Some(reps),
        args: args.to_vec(),
        total_cycles: median_nanos,
        path: rep.signature(),
        kernels: archived_kernels(&launches, prov),
        pool: rep.pool.as_ref().map(pool_json),
        ..RunRecord::default()
    };
    stamp(&mut rec);
    rec
}

/// Build a record from a bytecode-VM run. Identical to [`from_exec`]
/// except for the backend tag: the VM returns the same report type with
/// the same launch records, so everything else carries over.
#[allow(clippy::too_many_arguments)]
pub fn from_vm(
    program: &str,
    source: Option<&str>,
    source_text: &str,
    args: &[String],
    rep: &flat_exec::ExecReport,
    median_nanos: f64,
    reps: usize,
    prov: &flat_ir::prov::ProvTable,
) -> RunRecord {
    let mut rec = from_exec(
        program,
        source,
        source_text,
        args,
        rep,
        median_nanos,
        reps,
        prov,
    );
    rec.backend = "vm".to_string();
    rec
}

/// Build a record from a tuning result.
#[allow(clippy::too_many_arguments)]
pub fn from_tune(
    program: &str,
    source: Option<&str>,
    source_text: &str,
    args: &[String],
    backend: &str,
    device: &str,
    best_cost: f64,
    thresholds: Vec<(String, i64)>,
) -> RunRecord {
    let mut rec = RunRecord {
        kind: "tune".to_string(),
        program: program.to_string(),
        source: source.map(str::to_string),
        source_hash: content_hash(source_text),
        backend: backend.to_string(),
        device: device.to_string(),
        args: args.to_vec(),
        total_cycles: best_cost,
        thresholds,
        ..RunRecord::default()
    };
    stamp(&mut rec);
    rec
}

fn archived_kernels(
    kernels: &[gpu_sim::KernelLaunch],
    prov: &flat_ir::prov::ProvTable,
) -> Vec<ArchivedKernel> {
    kernels
        .iter()
        .zip(gpu_sim::attr_keys(kernels, prov))
        .map(|(k, key)| ArchivedKernel {
            key,
            prov: k.prov.id.0,
            cycles: k.cost.cycles,
            launches: k.launches,
        })
        .collect()
}

fn pool_json(p: &workpool::PoolTelemetry) -> Value {
    Value::object(vec![(
        "workers",
        Value::Array(
            p.workers
                .iter()
                .map(|w| {
                    Value::object(vec![
                        ("tasks", Value::from(w.tasks)),
                        ("local_pops", Value::from(w.local_pops)),
                        ("steals", Value::from(w.steals)),
                        ("steal_fails", Value::from(w.steal_fails)),
                        ("parks", Value::from(w.parks)),
                        ("busy_ns", Value::from(w.busy_ns)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Append `rec` to the archive at `path`, creating parent directories.
/// Fills `rec.id` with the content id and returns it.
///
/// Safe under concurrent writers (threads of one process — e.g. `flatd`
/// request handlers sharing an archive — or separate processes): the
/// whole line is written by a single `write_all` on an `O_APPEND`
/// descriptor while holding an exclusive advisory file lock, so JSONL
/// lines never tear or interleave. The lock covers only the write; the
/// archive stays readable throughout.
pub fn append_record(path: &Path, rec: &mut RunRecord) -> io::Result<String> {
    use std::io::Write as _;
    let payload = json::to_string(&rec.payload_json())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    rec.id = format!("{:016x}", fnv1a(payload.as_bytes()));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut line = rec.to_json_line();
    line.push('\n');
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.lock()?;
    let res = f.write_all(line.as_bytes()).and_then(|()| f.flush());
    let _ = f.unlock();
    res?;
    Ok(rec.id.clone())
}

/// Load the whole archive. Blank lines are skipped; records with an
/// unknown schema version are skipped with a warning collected into the
/// second return; a malformed current-schema line is an error.
pub fn load_archive(path: &Path) -> Result<(Vec<RunRecord>, Vec<String>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read archive {}: {e}", path.display()))?;
    let mut records = Vec::new();
    let mut warnings = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match RunRecord::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))? {
            Some(rec) => records.push(rec),
            None => warnings.push(format!(
                "line {}: unknown archive schema version — skipped",
                lineno + 1
            )),
        }
    }
    Ok((records, warnings))
}

/// Resolve a run selector against the archive, newest last:
///
/// * `last` — the newest record; `last~K` — K records before it;
/// * `@N` — the N-th record (0-based, in file order);
/// * anything else — a unique id prefix.
pub fn resolve<'a>(records: &'a [RunRecord], selector: &str) -> Result<&'a RunRecord, String> {
    if records.is_empty() {
        return Err("archive is empty".to_string());
    }
    if let Some(rest) = selector.strip_prefix("last") {
        let back: usize = match rest.strip_prefix('~') {
            None if rest.is_empty() => 0,
            None => return Err(format!("bad selector `{selector}`")),
            Some(k) => k.parse().map_err(|e| format!("bad selector `{selector}`: {e}"))?,
        };
        return records
            .len()
            .checked_sub(1 + back)
            .map(|i| &records[i])
            .ok_or_else(|| {
                format!("`{selector}` reaches past the archive ({} records)", records.len())
            });
    }
    if let Some(n) = selector.strip_prefix('@') {
        let n: usize = n.parse().map_err(|e| format!("bad selector `{selector}`: {e}"))?;
        return records
            .get(n)
            .ok_or_else(|| format!("`{selector}`: archive has {} records", records.len()));
    }
    let matches: Vec<&RunRecord> =
        records.iter().filter(|r| r.id.starts_with(selector)).collect();
    match matches.len() {
        0 => Err(format!("no archived run with id prefix `{selector}`")),
        1 => Ok(matches[0]),
        n => Err(format!("id prefix `{selector}` is ambiguous ({n} matches)")),
    }
}

/// The `flatc perf log` listing: one line per record, oldest first.
pub fn render_log(records: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:<16} {:<8} {:<20} {:<5} {:<7} {:>14} {:>10}  rev",
        "#", "id", "kind", "program", "bknd", "device", "cycles", "µs"
    );
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4} {:<16} {:<8} {:<20} {:<5} {:<7} {:>14.0} {:>10.1}  {}",
            i,
            r.id,
            r.kind,
            r.program,
            r.backend,
            r.device,
            r.total_cycles,
            r.cycles_to_us(r.total_cycles),
            r.git_rev.as_deref().unwrap_or("-"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_with_kernels() -> RunRecord {
        RunRecord {
            kind: "simulate".to_string(),
            program: "mm".to_string(),
            source: Some("mm.fut".to_string()),
            source_hash: content_hash("def mm = ..."),
            backend: "sim".to_string(),
            device: "k40".to_string(),
            clock_ghz: 0.745,
            version: "flatc test".to_string(),
            args: vec!["16".to_string(), "[16][64]f32".to_string()],
            // Deliberately awkward floats: a value with no short decimal
            // representation and a sum that depends on addition order.
            total_cycles: 0.1 + 1e16 + 0.1,
            path: vec![(0, true), (2, false)],
            kernels: vec![
                ArchivedKernel {
                    key: AttrKey {
                        stack: vec!["mm@1:1".to_string(), "map@2:3".to_string()],
                        name: "xs".to_string(),
                        kind: "segmap".to_string(),
                        sig: "t0+".to_string(),
                    },
                    prov: 3,
                    cycles: 0.1,
                    launches: 1,
                },
                ArchivedKernel {
                    key: AttrKey {
                        stack: vec!["mm@1:1".to_string()],
                        name: "ys".to_string(),
                        kind: "segred".to_string(),
                        sig: String::new(),
                    },
                    prov: 1,
                    cycles: 1e16 + 0.1,
                    launches: 2,
                },
            ],
            ..RunRecord::default()
        }
    }

    #[test]
    fn record_round_trips_bitwise() {
        let mut rec = record_with_kernels();
        rec.id = "deadbeef".to_string();
        let line = rec.to_json_line();
        let back = RunRecord::parse(&line).unwrap().expect("current schema");
        assert_eq!(back, rec);
        assert_eq!(back.total_cycles.to_bits(), rec.total_cycles.to_bits());
        for (a, b) in back.kernels.iter().zip(&rec.kernels) {
            assert_eq!(a.cycles.to_bits(), b.cycles.to_bits());
        }
    }

    #[test]
    fn tune_records_round_trip_extreme_thresholds() {
        // A tuned assignment routinely contains i64::MAX (a refused
        // guard) — far outside the f64-backed JSON number range, so the
        // values travel as decimal strings.
        let mut rec = from_tune(
            "mm",
            None,
            "def mm = ...",
            &[],
            "sim",
            "k40",
            123.5,
            vec![
                ("suff_outer_par_0".to_string(), i64::MAX),
                ("suff_intra_par_1".to_string(), 0),
                ("suff_outer_par_2".to_string(), 1 << 60),
            ],
        );
        rec.id = "cafebabe".to_string();
        let back = RunRecord::parse(&rec.to_json_line()).unwrap().expect("current schema");
        assert_eq!(back.thresholds, rec.thresholds);
    }

    #[test]
    fn unknown_schema_is_skipped_not_misread() {
        let line = r#"{"schema": 99, "kind": "exec"}"#;
        assert_eq!(RunRecord::parse(line).unwrap(), None);
        assert!(RunRecord::parse("not json").is_err());
    }

    #[test]
    fn archive_appends_and_loads() {
        let dir = std::env::temp_dir().join(format!("flat-perf-archive-{}", std::process::id()));
        let path = dir.join("nested").join("archive.jsonl");
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = record_with_kernels();
        let mut b = record_with_kernels();
        b.program = "other".to_string();
        let id_a = append_record(&path, &mut a).unwrap();
        let id_b = append_record(&path, &mut b).unwrap();
        assert_ne!(id_a, id_b, "content ids differ when payloads differ");

        // An unknown-schema line in the middle is skipped with a warning.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            let future = r#"{"schema": 2, "who": "knows"}"#;
            writeln!(f, "{future}").unwrap();
        }
        let (records, warnings) = load_archive(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(warnings.len(), 1);
        assert_eq!(records[0].id, id_a);
        assert_eq!(records[1].program, "other");

        // Selectors.
        assert_eq!(resolve(&records, "last").unwrap().id, id_b);
        assert_eq!(resolve(&records, "last~1").unwrap().id, id_a);
        assert_eq!(resolve(&records, "@0").unwrap().id, id_a);
        assert_eq!(resolve(&records, &id_a[..6]).unwrap().id, id_a);
        assert!(resolve(&records, "last~2").is_err());
        assert!(resolve(&records, "zzzz").is_err());

        let log = render_log(&records);
        assert!(log.contains("simulate"), "{log}");
        assert!(log.contains(&id_a), "{log}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
