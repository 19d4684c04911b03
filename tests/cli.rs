//! Integration tests for the `flatc` command-line tool, driving the real
//! binary end to end.

use std::process::Command;

fn flatc_status(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flatc"))
        .args(args)
        .output()
        .expect("flatc runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

const MATMUL: &str = "
def matmul [n][m][p] (xss: [n][m]f32) (yss: [m][p]f32): [n][p]f32 =
  map (\\xs -> map (\\ys -> redomap (+) (*) 0f32 xs ys) (transpose yss)) xss
";

fn flatc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flatc"))
        .args(args)
        .output()
        .expect("flatc runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A temp path no other test (in this binary or a concurrent run of it)
/// uses: tests run on parallel threads, so a name built from the pid
/// alone is shared between them.
fn unique_temp(stem: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{stem}-{}-{n}", std::process::id()))
}

fn with_source(f: impl FnOnce(&str)) {
    let dir = unique_temp("flatc-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mm.fut");
    std::fs::write(&path, MATMUL).unwrap();
    f(path.to_str().unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_reports_signature() {
    with_source(|src| {
        let (ok, stdout, _) = flatc(&["check", src, "matmul"]);
        assert!(ok);
        assert!(stdout.contains("5 parameters"), "{stdout}");
    });
}

#[test]
fn flatten_prints_versions_and_stats() {
    with_source(|src| {
        let (ok, stdout, stderr) = flatc(&["flatten", src, "matmul"]);
        assert!(ok);
        assert!(stdout.contains("segmap^1"), "{stdout}");
        assert!(stderr.contains("thresholds"), "{stderr}");
        // Moderate mode prints no guards.
        let (ok2, stdout2, _) = flatc(&["flatten", src, "matmul", "--moderate"]);
        assert!(ok2);
        assert!(!stdout2.contains(">= t"), "{stdout2}");
    });
}

#[test]
fn tree_prints_threshold_names() {
    with_source(|src| {
        let (ok, stdout, _) = flatc(&["tree", src, "matmul"]);
        assert!(ok);
        assert!(stdout.contains("suff_outer_par_0"), "{stdout}");
    });
}

#[test]
fn simulate_reports_runtime_and_path() {
    with_source(|src| {
        let (ok, stdout, _) = flatc(&[
            "simulate", src, "matmul",
            "--device", "vega64",
            "--arg", "64",
            "--arg", "1024",
            "--arg", "64",
            "--arg", "[64][1024]f32",
            "--arg", "[1024][64]f32",
        ]);
        assert!(ok, "{stdout}");
        assert!(stdout.contains("Vega64"));
        assert!(stdout.contains("runtime:"));
        assert!(stdout.contains("version path:"));
    });
}

#[test]
fn tune_writes_and_simulate_reads_tuning_files() {
    with_source(|src| {
        let tuning = unique_temp("flatc-tuning");
        let tuning_s = tuning.to_str().unwrap();
        let (ok, stdout, _) = flatc(&[
            "tune", src, "matmul", "--exhaustive", "--out", tuning_s,
            "--dataset", "4,65536,4,[4][65536]f32,[65536][4]f32",
            "--dataset", "512,16,512,[512][16]f32,[16][512]f32",
        ]);
        assert!(ok, "{stdout}");
        assert!(stdout.contains("tuned in"), "{stdout}");
        let contents = std::fs::read_to_string(&tuning).unwrap();
        assert!(contents.contains("suff_outer_par_0="), "{contents}");

        let (ok2, stdout2, _) = flatc(&[
            "simulate", src, "matmul", "--tuning", tuning_s,
            "--arg", "4", "--arg", "65536", "--arg", "4",
            "--arg", "[4][65536]f32", "--arg", "[65536][4]f32",
        ]);
        assert!(ok2, "{stdout2}");
        let _ = std::fs::remove_file(&tuning);
    });
}

#[test]
fn exec_runs_and_live_dispatch_follows_thresholds() {
    with_source(|src| {
        let args = [
            "--arg", "8", "--arg", "16", "--arg", "8",
            "--arg", "[8][16]f32", "--arg", "[16][8]f32",
        ];
        let mut base = vec!["exec", src, "matmul", "--threads", "2"];
        base.extend_from_slice(&args);
        let (ok, stdout, stderr) = flatc(&base);
        assert!(ok, "{stdout}{stderr}");
        assert!(stdout.contains("backend:       exec (2 threads)"), "{stdout}");
        assert!(stdout.contains("runtime:"), "{stdout}");
        assert!(stdout.contains("version path:"), "{stdout}");
        assert!(stdout.contains("result 0:      [8][8]"), "{stdout}");
        let default_path = stdout
            .lines()
            .find(|l| l.starts_with("version path:"))
            .unwrap()
            .to_string();

        // Forcing a threshold down to 1 must flip the live dispatch:
        // the actual Par(8) degree now satisfies the guard.
        let mut forced = vec![
            "exec", src, "matmul", "--threads", "2",
            "--threshold", "suff_outer_par_0=1",
        ];
        forced.extend_from_slice(&args);
        let (ok2, stdout2, _) = flatc(&forced);
        assert!(ok2, "{stdout2}");
        assert!(stdout2.contains("suff_outer_par_0(8)=true"), "{stdout2}");
        let forced_path = stdout2
            .lines()
            .find(|l| l.starts_with("version path:"))
            .unwrap()
            .to_string();
        assert_ne!(default_path, forced_path, "threshold did not change dispatch");

        // Determinism across thread counts: identical results and path.
        let mut eight = vec!["exec", src, "matmul", "--threads", "8"];
        eight.extend_from_slice(&args);
        let (ok3, stdout3, _) = flatc(&eight);
        assert!(ok3, "{stdout3}");
        let path8 = stdout3
            .lines()
            .find(|l| l.starts_with("version path:"))
            .unwrap()
            .to_string();
        assert_eq!(default_path, path8);
    });
}

#[test]
fn exec_tune_measures_wall_clock_and_writes_usable_tuning() {
    with_source(|src| {
        let tuning = unique_temp("flatc-exec-tuning");
        let tuning_s = tuning.to_str().unwrap();
        let (ok, stdout, stderr) = flatc(&[
            "tune", src, "matmul", "--backend", "exec", "--threads", "2",
            "--reps", "1", "--out", tuning_s,
            "--dataset", "16,64,16,[16][64]f32,[64][16]f32",
            "--dataset", "4,8,4,[4][8]f32,[8][4]f32",
        ]);
        assert!(ok, "{stdout}{stderr}");
        assert!(stdout.contains("tuned in"), "{stdout}");
        let contents = std::fs::read_to_string(&tuning).unwrap();
        assert!(contents.contains("suff_outer_par_0="), "{contents}");

        // The wall-clock-tuned file drives live dispatch in `exec`.
        let (ok2, stdout2, _) = flatc(&[
            "exec", src, "matmul", "--threads", "2", "--tuning", tuning_s,
            "--arg", "16", "--arg", "64", "--arg", "16",
            "--arg", "[16][64]f32", "--arg", "[64][16]f32",
        ]);
        assert!(ok2, "{stdout2}");
        assert!(stdout2.contains("version path:"), "{stdout2}");
        let _ = std::fs::remove_file(&tuning);
    });
}

#[test]
fn bench_refuses_cross_backend_comparison() {
    let (ok, _, stderr) = flatc(&["bench", "--backend", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown --backend"), "{stderr}");

    let base = unique_temp("flatc-base");
    let base_s = base.to_str().unwrap();
    let (ok, stdout, stderr) = flatc(&[
        "bench", "--backend", "exec", "--threads", "2", "--reps", "1",
        "--baseline", base_s, "--write", "--quiet",
    ]);
    assert!(ok, "{stdout}{stderr}");

    let (ok2, _, stderr2) =
        flatc(&["bench", "--baseline", base_s, "--check", "--quiet"]);
    assert!(!ok2, "cross-backend check must fail");
    assert!(
        stderr2.contains("cannot compare across backends"),
        "{stderr2}"
    );
    let _ = std::fs::remove_file(&base);
}

#[test]
fn lint_is_clean_on_healthy_programs_and_compile_verify_passes() {
    with_source(|src| {
        let (code, stdout, _) = flatc_status(&["lint", src, "matmul"]);
        assert_eq!(code, Some(0), "{stdout}");
        assert!(stdout.contains("lint clean across 6 stages"), "{stdout}");

        // --json prints one JSON object per diagnostic line; a clean
        // program prints nothing at all.
        let (code, stdout, _) = flatc_status(&["lint", src, "matmul", "--json"]);
        assert_eq!(code, Some(0));
        assert!(stdout.is_empty(), "clean --json run must emit no lines: {stdout}");

        // `compile` is `flatten` plus the inter-pass verifier.
        let (code, stdout, stderr) =
            flatc_status(&["compile", src, "matmul", "--verify"]);
        assert_eq!(code, Some(0), "{stderr}");
        assert!(stdout.contains("segmap^1"), "{stdout}");
        assert!(stderr.contains("verify: clean across 6 stages"), "{stderr}");
    });

    // A configuration outside the sweep is verified too: what `--full`
    // prints adds its raw and simplified stages to the six.
    let (code, stdout, stderr) =
        flatc_status(&["compile", "examples/matmul.fut", "matmul", "--full", "--verify"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("segred^1"), "{stdout}");
    assert!(stderr.contains("verify: clean across 8 stages"), "{stderr}");
}

/// Parse, type, and lint failures must be distinguishable by exit code
/// alone: 2, 3, 4 (lint errors are only reachable on buggy pass output,
/// so here we pin the first two plus the usage code).
#[test]
fn parse_and_type_failures_have_distinct_exit_codes() {
    let dir = unique_temp("flatc-exit");
    std::fs::create_dir_all(&dir).unwrap();
    let parse_p = dir.join("parse.fut");
    let type_p = dir.join("type.fut");
    std::fs::write(&parse_p, "def main (x: i64) = (((\n").unwrap();
    std::fs::write(&type_p, "def main (x: i64) = ys\n").unwrap();
    for cmd in ["check", "lint"] {
        let (code, _, stderr) = flatc_status(&[cmd, parse_p.to_str().unwrap(), "main"]);
        assert_eq!(code, Some(2), "{cmd} parse error: {stderr}");
        assert!(stderr.contains("parse error"), "{stderr}");
        let (code, _, stderr) = flatc_status(&[cmd, type_p.to_str().unwrap(), "main"]);
        assert_eq!(code, Some(3), "{cmd} type error: {stderr}");
        assert!(stderr.contains("type error"), "{stderr}");
    }
    let (code, _, _) = flatc_status(&["lint"]);
    assert_eq!(code, Some(1), "usage errors keep exit 1");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_fails_with_usage_text() {
    let (ok, _, stderr) = flatc(&["bogus"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");

    with_source(|src| {
        let (ok2, _, stderr2) = flatc(&["simulate", src, "matmul", "--arg", "not-a-thing"]);
        assert!(!ok2);
        assert!(stderr2.contains("cannot parse"), "{stderr2}");

        let (ok3, _, stderr3) = flatc(&["simulate", src, "nope"]);
        assert!(!ok3);
        assert!(stderr3.contains("nope"), "{stderr3}");
    });
}
