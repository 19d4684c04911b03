//! Benchmark baselines and the regression gate.
//!
//! A *baseline* is a committed snapshot of the simulator's numbers for
//! every benchmark × dataset pair on a device: simulated cycles,
//! microseconds, and kernel count, keyed `"{bench}/{dataset}/{device}"`.
//! `flatc bench --write` measures and stores one under
//! `results/baseline/baseline.json`; `flatc bench --check` re-measures
//! and compares against it with a relative tolerance band, exiting
//! nonzero on regression — the CI gate that catches cost-model or
//! flattening changes that silently slow programs down.
//!
//! Measurements are deterministic (fixed default thresholds, incremental
//! flattening, abstract datasets), so the default tolerance mainly
//! absorbs *intentional* cost-model retunes; bump the baseline alongside
//! such changes with `--write`.

use flat_obs::json::{self, ToJson, Value};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// One measured benchmark × dataset × device point.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineEntry {
    /// `"{bench}/{dataset}/{device}"`.
    pub key: String,
    pub cycles: f64,
    pub microseconds: f64,
    pub kernels: u64,
}

impl ToJson for BaselineEntry {
    fn to_json(&self) -> Value {
        Value::object(vec![
            ("key", Value::from(self.key.as_str())),
            ("cycles", Value::from(self.cycles)),
            ("microseconds", Value::from(self.microseconds)),
            ("kernels", Value::from(self.kernels as i64)),
        ])
    }
}

/// A set of baseline entries in deterministic (suite) order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Baseline {
    pub entries: Vec<BaselineEntry>,
    /// Git revision of the toolchain that measured this baseline.
    /// `None` in baselines written before the field existed, or when
    /// measured outside a git checkout.
    pub git_rev: Option<String>,
    /// `flatc` version string of the measuring toolchain; `None` in
    /// pre-existing baselines.
    pub version: Option<String>,
}

impl Baseline {
    pub fn get(&self, key: &str) -> Option<&BaselineEntry> {
        self.entries.iter().find(|e| e.key == key)
    }

    /// Stamp the measuring toolchain's provenance onto the baseline.
    pub fn stamped(mut self) -> Baseline {
        self.git_rev = flat_perf::git_rev();
        self.version = Some(flat_perf::version_string());
        self
    }

    /// The baseline as a perf-archive record of the whole suite on
    /// `device`, one entry per point.
    pub fn to_record(&self, device: &str) -> flat_perf::RunRecord {
        let mut rec = flat_perf::RunRecord {
            kind: "bench".to_string(),
            program: "suite".to_string(),
            backend: "sim".to_string(),
            device: device.to_string(),
            total_cycles: self.entries.iter().map(|e| e.cycles).sum(),
            entries: self
                .entries
                .iter()
                .map(|e| flat_perf::ArchivedEntry {
                    key: e.key.clone(),
                    cycles: e.cycles,
                })
                .collect(),
            ..flat_perf::RunRecord::default()
        };
        flat_perf::stamp(&mut rec);
        rec
    }

    pub fn to_json(&self) -> Value {
        let mut v = Value::object(vec![(
            "entries",
            Value::Array(self.entries.iter().map(ToJson::to_json).collect()),
        )]);
        if let Some(r) = &self.git_rev {
            v.insert("git_rev", Value::from(r.as_str()));
        }
        if let Some(ver) = &self.version {
            v.insert("version", Value::from(ver.as_str()));
        }
        v
    }

    pub fn from_json(v: &Value) -> Result<Baseline, String> {
        let entries = v
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("baseline: missing `entries` array")?;
        let mut out = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            // An entry tagged with a host backend (`"exec"`, `"vm"`)
            // holds wall-clock nanoseconds, not cycles: refuse it rather
            // than compare it.
            match e.get("backend").map(Value::as_str) {
                None | Some(Some("sim")) => {}
                Some(b) => {
                    return Err(format!(
                        "baseline entry {i}: backend `{}` is not simulated cycles; \
                         host timings are the ledger's (`ledger --workload kernels`)",
                        b.unwrap_or("?")
                    ))
                }
            }
            let field = |name: &str| {
                e.get(name)
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("baseline entry {i}: missing numeric `{name}`"))
            };
            out.push(BaselineEntry {
                key: e
                    .get("key")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("baseline entry {i}: missing `key`"))?
                    .to_string(),
                cycles: field("cycles")?,
                microseconds: field("microseconds")?,
                kernels: field("kernels")? as u64,
            });
        }
        Ok(Baseline {
            entries: out,
            // Absent from baselines written before provenance stamping.
            git_rev: v.get("git_rev").and_then(Value::as_str).map(str::to_string),
            version: v.get("version").and_then(Value::as_str).map(str::to_string),
        })
    }

    /// Write pretty JSON to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let text = json::to_string_pretty(&self.to_json())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        fs::write(path, text)
    }

    pub fn load(path: &Path) -> io::Result<Baseline> {
        let text = fs::read_to_string(path)?;
        let v: Value = json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Baseline::from_json(&v).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Measure the whole suite on `dev` under incremental flattening and
/// default thresholds. Deterministic: same toolchain, same numbers.
pub fn measure_suite(dev: &gpu_sim::DeviceSpec) -> Baseline {
    let t = flat_ir::interp::Thresholds::new();
    let cfg = incflat::FlattenConfig::incremental();
    let mut entries = Vec::new();
    for b in benchmarks::all_benchmarks() {
        let fl = b.flatten(&cfg);
        for d in &b.datasets {
            let rep = gpu_sim::simulate(&fl.prog, &d.args, &t, dev)
                .unwrap_or_else(|e| panic!("{}/{}: {e}", b.name, d.name));
            entries.push(BaselineEntry {
                key: format!("{}/{}/{}", b.name, d.name, dev.name),
                cycles: rep.cost.total_cycles,
                microseconds: dev.cycles_to_us(rep.cost.total_cycles),
                kernels: rep.kernels.len() as u64,
            });
        }
    }
    Baseline { entries, ..Baseline::default() }.stamped()
}

/// One point's deviation from its baseline.
#[derive(Clone, Debug)]
pub struct Delta {
    pub key: String,
    pub base_cycles: f64,
    pub cur_cycles: f64,
    /// Signed relative change in percent; positive = slower.
    pub pct: f64,
}

/// The outcome of comparing a fresh measurement against a baseline.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// Points slower than baseline by more than the tolerance.
    pub regressions: Vec<Delta>,
    /// Points faster than baseline by more than the tolerance.
    pub improvements: Vec<Delta>,
    /// Points within the tolerance band.
    pub within: usize,
    /// Baseline keys absent from the fresh measurement.
    pub missing: Vec<String>,
    /// Freshly measured keys absent from the baseline.
    pub new: Vec<String>,
}

impl Comparison {
    /// `--check` gates on this: a regression, or a benchmark that
    /// disappeared, fails the build. New (unbaselined) points do not.
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty() || !self.missing.is_empty()
    }
}

/// Compare `current` against `base` with a relative tolerance in
/// percent (e.g. `2.0` = ±2%).
pub fn compare(base: &Baseline, current: &Baseline, tolerance_pct: f64) -> Comparison {
    let mut cmp = Comparison::default();
    for b in &base.entries {
        match current.get(&b.key) {
            None => cmp.missing.push(b.key.clone()),
            Some(c) => {
                let pct = if b.cycles > 0.0 {
                    (c.cycles - b.cycles) / b.cycles * 100.0
                } else if c.cycles > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                let d = Delta {
                    key: b.key.clone(),
                    base_cycles: b.cycles,
                    cur_cycles: c.cycles,
                    pct,
                };
                if pct > tolerance_pct {
                    cmp.regressions.push(d);
                } else if pct < -tolerance_pct {
                    cmp.improvements.push(d);
                } else {
                    cmp.within += 1;
                }
            }
        }
    }
    for c in &current.entries {
        if base.get(&c.key).is_none() {
            cmp.new.push(c.key.clone());
        }
    }
    cmp
}

/// Human-readable comparison report (the `flatc bench --check` output).
pub fn render_comparison(cmp: &Comparison, tolerance_pct: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "baseline check (tolerance ±{tolerance_pct}%): {} within, {} regressed, {} improved, {} missing, {} new",
        cmp.within,
        cmp.regressions.len(),
        cmp.improvements.len(),
        cmp.missing.len(),
        cmp.new.len(),
    );
    for d in &cmp.regressions {
        let _ = writeln!(
            out,
            "  REGRESSED {:<40} {:>14.0} -> {:>14.0} cycles ({:+.2}%)",
            d.key, d.base_cycles, d.cur_cycles, d.pct
        );
    }
    for d in &cmp.improvements {
        let _ = writeln!(
            out,
            "  improved  {:<40} {:>14.0} -> {:>14.0} cycles ({:+.2}%)",
            d.key, d.base_cycles, d.cur_cycles, d.pct
        );
    }
    for k in &cmp.missing {
        let _ = writeln!(out, "  MISSING   {k} (in baseline, not measured)");
    }
    for k in &cmp.new {
        let _ = writeln!(out, "  new       {k} (not in baseline; run --write to record)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, cycles: f64) -> BaselineEntry {
        BaselineEntry {
            key: key.to_string(),
            cycles,
            microseconds: cycles / 745.0,
            kernels: 3,
        }
    }

    #[test]
    fn json_round_trip() {
        let b = Baseline {
            entries: vec![entry("m/d0/K40", 1234.5), entry("m/d1/K40", 9.0)],
            ..Baseline::default()
        }
        .stamped();
        let text = json::to_string_pretty(&b.to_json()).unwrap();
        let back = Baseline::from_json(&json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("flat_bench_baseline_test");
        let path = dir.join("nested").join("baseline.json");
        let b = Baseline { entries: vec![entry("m/d0/K40", 42.0)], ..Baseline::default() };
        b.write(&path).unwrap();
        let back = Baseline::load(&path).unwrap();
        assert_eq!(back, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        assert!(Baseline::from_json(&json::from_str("{}").unwrap()).is_err());
        assert!(Baseline::from_json(
            &json::from_str(r#"{"entries": [{"cycles": 1.0}]}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn comparison_classifies_within_regressed_improved() {
        let base = Baseline {
            entries: vec![entry("a", 100.0), entry("b", 100.0), entry("c", 100.0), entry("gone", 5.0)],
            ..Baseline::default()
        };
        let cur = Baseline {
            entries: vec![entry("a", 101.0), entry("b", 110.0), entry("c", 80.0), entry("fresh", 7.0)],
            ..Baseline::default()
        };
        let cmp = compare(&base, &cur, 2.0);
        assert_eq!(cmp.within, 1);
        assert_eq!(cmp.regressions.len(), 1);
        assert_eq!(cmp.regressions[0].key, "b");
        assert!((cmp.regressions[0].pct - 10.0).abs() < 1e-9);
        assert_eq!(cmp.improvements.len(), 1);
        assert_eq!(cmp.improvements[0].key, "c");
        assert_eq!(cmp.missing, vec!["gone".to_string()]);
        assert_eq!(cmp.new, vec!["fresh".to_string()]);
        assert!(cmp.failed());
        let text = render_comparison(&cmp, 2.0);
        assert!(text.contains("REGRESSED b"));
        assert!(text.contains("improved  c"));
    }

    #[test]
    fn identical_measurements_pass() {
        let base = Baseline { entries: vec![entry("a", 100.0), entry("z", 0.0)], ..Baseline::default() };
        let cmp = compare(&base, &base, 0.0);
        assert_eq!(cmp.within, 2);
        assert!(!cmp.failed());
    }

    #[test]
    fn only_simulated_entries_load() {
        let with = |backend: &str| {
            format!(
                r#"{{"entries": [{{"key": "a/b/c", "cycles": 1.0,
                   "microseconds": 0.1, "kernels": 2{backend}}}]}}"#
            )
        };
        for ok in ["", r#", "backend": "sim""#] {
            assert!(Baseline::from_json(&json::from_str(&with(ok)).unwrap()).is_ok(), "{ok}");
        }
        for host in ["exec", "vm"] {
            let text = with(&format!(r#", "backend": "{host}""#));
            let err = Baseline::from_json(&json::from_str(&text).unwrap()).unwrap_err();
            assert!(err.contains(&format!("backend `{host}`")) && err.contains("ledger"), "{err}");
        }
    }

    #[test]
    fn suite_measurement_is_deterministic_and_complete() {
        let dev = gpu_sim::DeviceSpec::k40();
        let a = measure_suite(&dev);
        let b = measure_suite(&dev);
        assert_eq!(a, b, "same toolchain, same numbers");
        let n_datasets: usize = benchmarks::all_benchmarks().iter().map(|b| b.datasets.len()).sum();
        assert_eq!(a.entries.len(), n_datasets);
        assert!(a.entries.iter().all(|e| e.cycles > 0.0 && e.kernels > 0));
        // Exact comparison against itself passes with zero tolerance.
        assert!(!compare(&a, &b, 0.0).failed());
    }
}
