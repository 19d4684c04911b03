//! The daemon's two caches: content-hash compile cache and per-device
//! tuning cache.
//!
//! ## Compile cache
//!
//! Keyed by the FNV-1a hash (`flat-perf`'s [`flat_perf::fnv1a`]) of
//! `entry '\0' source`, mapping to the full compiled artifact: the
//! incrementally flattened multi-version program, its threshold
//! registry, and the lowered VM bytecode. A hit skips parse →
//! elaborate → fuse → flatten → lower entirely — the whole point of a
//! persistent daemon (the paper's up-front multi-version cost amortized
//! over many runs). Hits and misses are counted here *and* mirrored to
//! `flat-obs` (`flatd.cache.hits` / `flatd.cache.misses`) so `FLAT_OBS`
//! sinks see them.
//!
//! Eviction is FIFO at a fixed capacity: entries are immutable and
//! cheap to rebuild, so recency tracking buys little.
//!
//! ## Tuning cache
//!
//! Keyed by (device spec, program hash, tuning-request hash). The
//! third component hashes everything that shapes the tuned result —
//! dataset specs, reps, data seed, candidate budget, backend — the
//! same way `flatc`'s archive records hash a `.tuning` file, so a
//! changed request is a different key (invalidation by construction;
//! nothing is ever stale, only unused). Entries can be **warm-started**
//! from `autotune::samples` collected from earlier exec requests: the
//! best observed path signature is replayed as the stochastic tuner's
//! incumbent (`StochasticTuner::start`).

use crate::proto::ServiceError;
use flat_obs::json::Value;
use incflat::driver::{self, CompileError};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One fully compiled program, shared by every request that hashes to
/// it.
pub struct CachedProgram {
    /// Hex FNV-1a of `entry '\0' source` — the cache key and the wire
    /// name of the program.
    pub hash: String,
    pub entry: String,
    pub source: String,
    pub flattened: incflat::Flattened,
    pub compiled: flat_vm::CompiledProgram,
    /// Microseconds the cold compile took (parse through lowering).
    pub compile_micros: u64,
}

/// The content-hash key of a (source, entry) pair.
pub fn program_hash(source: &str, entry: &str) -> String {
    let mut keyed = String::with_capacity(entry.len() + 1 + source.len());
    keyed.push_str(entry);
    keyed.push('\0');
    keyed.push_str(source);
    format!("{:016x}", flat_perf::fnv1a(keyed.as_bytes()))
}

/// Compile `source` from scratch through the compile driver (no
/// verifier on the cold path), mapping each stage onto the exit-code
/// taxonomy: parse → `parse` (2), elaboration → `type` (3),
/// flattening/lowering → `fail` (1).
pub fn compile_program(source: &str, entry: &str) -> Result<CachedProgram, ServiceError> {
    let started = std::time::Instant::now();
    let cfg = incflat::FlattenConfig::incremental();
    let flattened = driver::compile(source, entry, &cfg, &mut |_| {}).map_err(|e| match e {
        CompileError::Parse(e) => ServiceError::new("parse", e.to_string()),
        CompileError::Type(e) => ServiceError::new("type", e.to_string()),
        CompileError::Flatten(e) => ServiceError::new("fail", e.to_string()),
    })?;
    let compiled = flat_vm::compile(&flattened.prog)
        .map_err(|e| ServiceError::new("fail", e.to_string()))?;
    Ok(CachedProgram {
        hash: program_hash(source, entry),
        entry: entry.to_string(),
        source: source.to_string(),
        flattened,
        compiled,
        compile_micros: started.elapsed().as_micros() as u64,
    })
}

/// Content-hash compile cache; see the module docs.
pub struct CompileCache {
    map: Mutex<CacheMap>,
    /// Single-flight locks: one per hash currently being compiled, so a
    /// stampede of identical cold requests compiles exactly once and
    /// the rest wait on the winner instead of burning workers.
    pending: Mutex<HashMap<String, Arc<std::sync::Mutex<()>>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct CacheMap {
    by_hash: HashMap<String, Arc<CachedProgram>>,
    order: VecDeque<String>,
}

impl CompileCache {
    pub fn new(capacity: usize) -> CompileCache {
        CompileCache {
            map: Mutex::new(CacheMap { by_hash: HashMap::new(), order: VecDeque::new() }),
            pending: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Look up by program hash only (for `exec` requests that name a
    /// previously compiled program instead of shipping source).
    pub fn lookup(&self, hash: &str) -> Option<Arc<CachedProgram>> {
        self.map.lock().by_hash.get(hash).cloned()
    }

    /// The compiled artifact for `(source, entry)`, from cache when
    /// present. Returns `(program, hit)`.
    ///
    /// The compile itself runs outside the cache lock, so a slow cold
    /// compile never blocks hits on other programs. Racing misses on
    /// the *same* key are single-flighted through a per-hash lock: the
    /// first taker compiles, the rest block on it and then resolve from
    /// the cache — a stampede of identical requests compiles once.
    /// Failed compiles release the lock without publishing, so a later
    /// request retries (and fails) afresh.
    pub fn get_or_compile(
        &self,
        source: &str,
        entry: &str,
    ) -> Result<(Arc<CachedProgram>, bool), ServiceError> {
        let hash = program_hash(source, entry);
        if let Some(hit) = self.lookup(&hash) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            flat_obs::counter("flatd.cache.hits").inc();
            return Ok((hit, true));
        }
        let flight = Arc::clone(
            self.pending
                .lock()
                .entry(hash.clone())
                .or_insert_with(|| Arc::new(std::sync::Mutex::new(()))),
        );
        let guard = flight.lock().unwrap_or_else(|p| p.into_inner());
        // Re-check under the flight lock: if a racing winner published
        // while we waited, this is a hit (no recompilation happened).
        if let Some(hit) = self.lookup(&hash) {
            drop(guard);
            self.hits.fetch_add(1, Ordering::Relaxed);
            flat_obs::counter("flatd.cache.hits").inc();
            return Ok((hit, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        flat_obs::counter("flatd.cache.misses").inc();
        match compile_program(source, entry) {
            Ok(prog) => {
                // Publish before dropping the flight lock so waiters
                // resolve from the cache.
                let compiled = Arc::new(prog);
                let mut map = self.map.lock();
                while map.order.len() >= self.capacity {
                    if let Some(old) = map.order.pop_front() {
                        map.by_hash.remove(&old);
                    }
                }
                map.order.push_back(hash.clone());
                map.by_hash.insert(hash.clone(), Arc::clone(&compiled));
                drop(map);
                drop(guard);
                self.pending.lock().remove(&hash);
                Ok((compiled, false))
            }
            Err(e) => {
                drop(guard);
                self.pending.lock().remove(&hash);
                Err(e)
            }
        }
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.map.lock().by_hash.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Key of one tuned-thresholds entry; see the module docs.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Device spec identity, e.g. `host/8` (name plus thread count).
    pub device: String,
    /// [`program_hash`] of the tuned program.
    pub program: String,
    /// FNV-1a over the canonicalized tuning request (datasets, reps,
    /// seed, budget, backend).
    pub tuning: String,
}

/// A tuned threshold assignment plus its provenance.
#[derive(Clone, Debug)]
pub struct TunedEntry {
    /// `name = value` pairs, sorted by name.
    pub named: Vec<(String, i64)>,
    /// The `.tuning` file text (what `flatc tune --out` would write).
    pub text: String,
    pub best_cost: f64,
    pub candidates: usize,
    /// Whether the search was seeded from observed samples.
    pub warm: bool,
}

/// Per-device tuning cache; see the module docs.
pub struct TuningCache {
    map: Mutex<HashMap<TuneKey, Arc<TunedEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TuningCache {
    pub fn new() -> TuningCache {
        TuningCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    pub fn lookup(&self, key: &TuneKey) -> Option<Arc<TunedEntry>> {
        let hit = self.map.lock().get(key).cloned();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            flat_obs::counter("flatd.tuning.hits").inc();
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            flat_obs::counter("flatd.tuning.misses").inc();
        }
        hit
    }

    pub fn insert(&self, key: TuneKey, entry: TunedEntry) -> Arc<TunedEntry> {
        let entry = Arc::new(entry);
        self.map.lock().insert(key, Arc::clone(&entry));
        entry
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for TuningCache {
    fn default() -> Self {
        TuningCache::new()
    }
}

/// The canonical request-hash for [`TuneKey::tuning`]: order-sensitive
/// over the fields that shape the result.
pub fn tune_request_hash(
    datasets: &[Vec<String>],
    reps: usize,
    data_seed: u64,
    max_candidates: usize,
    backend: &str,
) -> String {
    let mut text = format!("reps={reps};seed={data_seed};cand={max_candidates};be={backend}");
    for d in datasets {
        text.push('|');
        text.push_str(&d.join(","));
    }
    format!("{:016x}", flat_perf::fnv1a(text.as_bytes()))
}

/// Observed exec samples per program hash — the warm-start substrate.
/// Each daemon keeps one store, appending the sample lines of every
/// telemetered exec request; a tune miss joins them against the
/// program's threshold tree and replays the best signature as the
/// tuner's incumbent.
pub struct SampleStore {
    by_program: Mutex<HashMap<String, Vec<autotune::ExecSample>>>,
}

impl SampleStore {
    pub fn new() -> SampleStore {
        SampleStore { by_program: Mutex::new(HashMap::new()) }
    }

    pub fn record(&self, program: &str, samples: Vec<autotune::ExecSample>) {
        if samples.is_empty() {
            return;
        }
        self.by_program.lock().entry(program.to_string()).or_default().extend(samples);
    }

    /// Load a sample log written by `flatc exec --sample-log` (samples
    /// keyed under the given program hash).
    pub fn load_log(&self, program: &str, path: &std::path::Path) -> Result<usize, String> {
        let samples = autotune::load_sample_log(path)?;
        let n = samples.len();
        self.record(program, samples);
        Ok(n)
    }

    pub fn count(&self, program: &str) -> usize {
        self.by_program.lock().get(program).map_or(0, Vec::len)
    }

    /// The warm-start incumbent for a program: thresholds replaying the
    /// fastest tree-consistent signature observed so far, if any.
    pub fn warm_start(
        &self,
        program: &str,
        registry: &incflat::ThresholdRegistry,
    ) -> Option<flat_ir::interp::Thresholds> {
        let map = self.by_program.lock();
        let samples = map.get(program)?;
        let join = autotune::join_samples(registry, samples);
        let best = join
            .warm_start()
            .into_iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("wall times are finite"))?;
        Some(autotune::thresholds_for_signature(&best.0))
    }
}

impl Default for SampleStore {
    fn default() -> Self {
        SampleStore::new()
    }
}

/// Render cache counters as a JSON object for `status` responses.
pub fn cache_status(compile: &CompileCache, tuning: &TuningCache) -> Value {
    Value::object(vec![
        (
            "compile",
            Value::object(vec![
                ("entries", Value::from(compile.len())),
                ("hits", Value::from(compile.hits())),
                ("misses", Value::from(compile.misses())),
            ]),
        ),
        (
            "tuning",
            Value::object(vec![
                ("entries", Value::from(tuning.len())),
                ("hits", Value::from(tuning.hits())),
                ("misses", Value::from(tuning.misses())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "def main [n] (xs: [n]i64): i64 = reduce (+) 0 xs";

    #[test]
    fn compile_cache_hits_and_counts() {
        let cache = CompileCache::new(8);
        let (a, hit_a) = cache.get_or_compile(SRC, "main").unwrap();
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_compile(SRC, "main").unwrap();
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must be the same artifact");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.lookup(&a.hash).unwrap().hash, a.hash);
        assert!(cache.pending.lock().is_empty(), "flight locks must not leak");
        // A different entry name is a different program.
        assert!(cache.get_or_compile(SRC, "nope").is_err());
    }

    /// A stampede of identical cold requests is single-flighted: one
    /// miss compiles, everyone else waits on the flight lock and scores
    /// a hit — the miss counter proves only one compilation ran.
    #[test]
    fn compile_cache_single_flights_identical_misses() {
        let cache = CompileCache::new(8);
        const N: usize = 8;
        let progs: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| s.spawn(|| cache.get_or_compile(SRC, "main")))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let (p, _) = h.join().unwrap().map_err(|e| e.message).unwrap();
                    p
                })
                .collect()
        });
        assert_eq!(cache.misses(), 1, "stampede must compile exactly once");
        assert_eq!(cache.hits(), (N - 1) as u64);
        for p in &progs {
            assert!(Arc::ptr_eq(p, &progs[0]), "all callers share one artifact");
        }
        assert!(cache.pending.lock().is_empty(), "flight locks must not leak");
        // Failed compiles also clean up their flight lock.
        assert!(cache.get_or_compile("def main (", "main").is_err());
        assert!(cache.pending.lock().is_empty());
    }

    #[test]
    fn compile_cache_error_taxonomy() {
        let cache = CompileCache::new(8);
        let parse = cache.get_or_compile("def main (", "main").err().expect("parse error");
        assert_eq!((parse.code.as_str(), parse.exit_code()), ("parse", 2));
        let ty = cache
            .get_or_compile("def main (x: i64): i64 = x + 1.5f32", "main")
            .err()
            .expect("type error");
        assert_eq!((ty.code.as_str(), ty.exit_code()), ("type", 3));
    }

    #[test]
    fn compile_cache_evicts_fifo() {
        let cache = CompileCache::new(2);
        let srcs: Vec<String> =
            (0..3).map(|i| format!("{SRC}{}", "\n".repeat(i))).collect();
        let mut hashes = Vec::new();
        for s in &srcs {
            let (p, _) = cache.get_or_compile(s, "main").unwrap();
            hashes.push(p.hash.clone());
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&hashes[0]).is_none(), "oldest entry evicted");
        assert!(cache.lookup(&hashes[2]).is_some());
    }

    #[test]
    fn tune_key_distinguishes_requests() {
        let a = tune_request_hash(&[vec!["16".into(), "[16]f32".into()]], 3, 42, 100, "vm");
        let b = tune_request_hash(&[vec!["16".into(), "[16]f32".into()]], 3, 42, 200, "vm");
        let c = tune_request_hash(&[vec!["16".into(), "[16]f32".into()]], 3, 42, 100, "vm");
        assert_ne!(a, b);
        assert_eq!(a, c);
    }
}
