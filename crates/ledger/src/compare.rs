//! `ledger --compare A.json B.json`: judge result set B against result
//! set A with each end-to-end metric's own bound. A result set is what
//! `ledger --all` writes: a list of runs, each the result object of one
//! pass over one workload. Several runs of a workload (different seeds
//! or launches) are summarised by their median and quartile spread.

use crate::manifest::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use flat_obs::json::Value as Json;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Run-to-run spread exceeds the bound, so the medians decide nothing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse B's median reads than A's, as a share of A's median
/// (negative when B is better).
pub fn worse_by(a: &[f64], b: &[f64], higher_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    }
}

/// The verdict on one metric of one workload. A spread wider than the
/// bound leaves it unresolved, unless every run of B reads better than
/// every run of A.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, than: f64| if higher_is_better { x > than } else { x < than };
    let b_dominates = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a).max(spread(b)) > bound && !b_dominates {
        Verdict::Unresolved
    } else if worse_by(a, b, higher_is_better) > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// Values by `(workload, metric)`, plus failed operations by workload.
#[derive(Default)]
pub struct ResultSet {
    pub values: BTreeMap<(String, String), Vec<f64>>,
    pub failed: BTreeMap<String, u64>,
}

/// Parse the text of a result set.
pub fn parse(text: &str) -> Result<ResultSet, String> {
    let doc = flat_obs::json::from_str(text).map_err(|e| format!("{e:?}"))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("result set has no `runs` array")?;
    let mut set = ResultSet::default();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let failed = run
            .get("failed")
            .and_then(Json::as_u64)
            .ok_or("run without `failed`")?;
        *set.failed.entry(workload.to_string()).or_default() += failed;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("run without `metrics`")?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: no numeric value"))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

fn percent(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Compare B against A. Returns the report and whether anything is
/// worse (which the caller turns into a non-zero exit).
pub fn compare(a: &ResultSet, b: &ResultSet) -> (String, bool) {
    let mut report = String::new();
    let mut any_worse = false;
    let mut row = |line: String| {
        report.push_str(&line);
        report.push('\n');
    };
    row("workload metric verdict | A median (n, spread) | B median (n, spread) | B vs A as a share of A | bound".to_string());

    for (workload, failed) in &b.failed {
        let verdict = if *failed > 0 {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        any_worse |= verdict == Verdict::Worse;
        let before = a.failed.get(workload).copied().unwrap_or(0);
        row(format!(
            "{workload} failed {} | {before} | {failed} | - | 0 absolute",
            verdict.label()
        ));
    }
    let defs: Vec<&MetricDef> = END_TO_END.iter().chain(&PER_LAYER).collect();
    for ((workload, name), va) in &a.values {
        let (Some(vb), Some(def)) = (
            b.values.get(&(workload.clone(), name.clone())),
            defs.iter().find(|d| d.name == name),
        ) else {
            row(format!("{workload} {name} missing from B or undeclared"));
            continue;
        };
        let delta = worse_by(va, vb, def.higher_is_better);
        let label = match def.bound {
            Some(bound) => {
                let v = verdict(va, vb, def.higher_is_better, bound);
                any_worse |= v == Verdict::Worse;
                v.label()
            }
            None => "layer",
        };
        row(format!(
            "{workload} {name} {label} | {} {} (n={}, {}) | {} {} (n={}, {}) | worse by {} of A | {}",
            median(va),
            def.unit,
            va.len(),
            percent(spread(va)),
            median(vb),
            def.unit,
            vb.len(),
            percent(spread(vb)),
            percent(delta),
            def.bound.map_or("-".to_string(), percent),
        ));
    }
    (report, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Lower is better: +5% is inside a 10% bound, +20% is not.
        assert_eq!(
            verdict(&steady, &[105.0, 104.0, 106.0], false, 0.10),
            Verdict::Same
        );
        assert_eq!(
            verdict(&steady, &[120.0, 119.0, 121.0], false, 0.10),
            Verdict::Worse
        );
        // Getting better is never worse.
        assert_eq!(
            verdict(&steady, &[50.0, 51.0, 49.0], false, 0.10),
            Verdict::Same
        );
        // Higher is better: a 20% drop in throughput is worse.
        assert_eq!(
            verdict(&steady, &[80.0, 81.0, 79.0], true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &[120.0, 119.0, 121.0], true, 0.10),
            Verdict::Same
        );
        // Spread wider than the bound decides nothing...
        let noisy = [80.0, 100.0, 120.0, 140.0, 90.0];
        assert_eq!(verdict(&steady, &noisy, false, 0.10), Verdict::Unresolved);
        // ...unless every run of B beats every run of A.
        assert_eq!(
            verdict(&steady, &[40.0, 60.0, 80.0, 50.0], false, 0.10),
            Verdict::Same
        );
        // Single runs have no spread and are judged on the medians.
        assert_eq!(verdict(&[100.0], &[111.0], false, 0.10), Verdict::Worse);
        assert!((worse_by(&[100.0], &[111.0], false) - 0.11).abs() < 1e-12);
        assert!((worse_by(&[100.0], &[80.0], true) - 0.20).abs() < 1e-12);
    }

    fn set(op_ms: f64, failed: u64) -> ResultSet {
        let text = format!(
            r#"{{"runs": [{{"workload": "compile", "failed": {failed},
                "metrics": {{"op_ms_t1": {{"value": {op_ms}, "unit": "ms"}},
                             "flat-vm.compile_us": {{"value": 5, "unit": "us"}}}}}}]}}"#
        );
        parse(&text).expect("well-formed result set")
    }

    #[test]
    fn compare_reports_every_pair_and_flags_worse() {
        let (report, worse) = compare(&set(10.0, 0), &set(10.5, 0));
        assert!(!worse, "{report}");
        assert!(report.contains("compile op_ms_t1 same"), "{report}");
        assert!(
            report.contains("compile flat-vm.compile_us layer"),
            "{report}"
        );

        let (report, worse) = compare(&set(10.0, 0), &set(12.0, 0));
        assert!(
            worse && report.contains("compile op_ms_t1 worse"),
            "{report}"
        );
        assert!(report.contains("worse by +20.0% of A"), "{report}");

        let (report, worse) = compare(&set(10.0, 0), &set(10.0, 3));
        assert!(worse && report.contains("compile failed worse"), "{report}");
        assert!(parse("{}").is_err());
    }
}
