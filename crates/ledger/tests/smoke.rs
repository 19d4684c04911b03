//! `--smoke`: tiny shapes, a fraction of a second per pass, allowed in a
//! debug build. Every workload must emit exactly the metrics
//! `BENCHMARK.json` declares for each pass, fail no operation, and print
//! the result object the benchmark contract asks for.

use flat_ledger::manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use flat_ledger::{check_declared, refusal, run_traced, run_untraced, Options};
use flat_obs::json::Value;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn every_workload_emits_every_declared_metric_exactly_once() {
    let trace_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger-smoke");
    for w in &WORKLOADS {
        let opts = Options {
            workload: w.name.to_string(),
            seed: 7,
            seconds: 0.2,
            smoke: true,
        };

        let untraced = run_untraced(&opts, Instant::now()).expect(w.name);
        check_declared(&untraced, &END_TO_END).expect(w.name);
        assert_eq!(untraced.failed, 0, "{}: {:?}", w.name, untraced.notes);
        assert!(untraced.attempted > 0);
        assert!(
            untraced.readings.iter().all(|r| r.value > 0.0),
            "{}: end-to-end metrics are never 0",
            w.name
        );

        let traced = run_traced(&opts, &trace_dir).expect(w.name);
        check_declared(&traced, &PER_LAYER).expect(w.name);
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name, traced.notes);
        for r in untraced
            .readings
            .iter()
            .chain(&traced.readings)
            .chain(&traced.extras)
        {
            assert!(name_ok(&r.name), "{}: bad metric name `{}`", w.name, r.name);
        }

        // The trace is a Chrome trace whose spans name their parent.
        let text = std::fs::read_to_string(trace_dir.join(format!("{}.trace.json", w.name)))
            .expect("trace file written");
        let doc = flat_obs::json::from_str(&text).expect("trace is JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Value::as_str) == Some("flat-vm.run_tn")
                && e.get("args")
                    .and_then(|a| a.get("parent"))
                    .and_then(Value::as_str)
                    == Some("ledger.request")
        }));
    }
}

#[test]
fn a_debug_build_refuses_to_report_unless_smoke() {
    if cfg!(debug_assertions) {
        assert!(refusal(false).is_some_and(|why| why.contains("debug build")));
    }
    if std::env::var_os("FLAT_OBS").is_none() {
        assert_eq!(refusal(true), None);
    }
}

fn ledger(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .env_remove("FLAT_OBS")
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("ledger runs")
}

#[test]
fn the_binary_prints_the_contract_result_object_last() {
    let out = ledger(&[
        "--workload",
        "serve-bulk",
        "--seed",
        "3",
        "--smoke",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        stdout.contains("# nproc: ") && stdout.contains("# rustc: "),
        "{stdout}"
    );
    let last = flat_obs::json::from_str(stdout.lines().last().expect("output")).expect("JSON");
    let keys: Vec<&str> = last
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
    let metrics = last
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());

    // Bad usage and unknown workloads exit non-zero without a result.
    assert!(!ledger(&["--workload", "nope", "--seed", "1", "--smoke"])
        .status
        .success());
    assert!(!ledger(&["--seed"]).status.success());
    if cfg!(debug_assertions) {
        let refused = ledger(&["--workload", "compile", "--seed", "1"]);
        assert!(!refused.status.success() && refused.stdout.is_empty());
    }
}

#[test]
fn all_then_compare_judges_a_result_set_against_itself() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ledger-all");
    let set = dir.join("a.json");
    let set = set.to_str().expect("utf-8 path");
    let out = ledger(&[
        "--all", "--smoke", "--trace", "0", "--runs", "2", "--out", set,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let cmp = ledger(&["--compare", set, set]);
    let report = String::from_utf8(cmp.stdout).expect("utf-8");
    assert!(cmp.status.success(), "{report}");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            assert!(
                report.contains(&format!("{} {} ", w.name, m.name)),
                "{report}"
            );
        }
    }
    assert!(!report.contains(" worse |"), "{report}");
}
