//! Acceptance tests for `flat-perf`: the persistent run archive, the
//! bitwise-reconciling attribution diff, and the threshold-regret
//! what-if profiler — both through the library API and the `flatc perf`
//! command-line surface.
//!
//! The diff's acceptance invariant: for any two archived runs, every
//! per-kernel delta row must reconcile *bitwise* with both run totals —
//! replaying each run's archived launch costs in launch order from the
//! diff's own rows reproduces `total_cycles` exactly (f64 addition is
//! order-sensitive, so this catches any reordering or loss in the
//! archive → diff round trip, not just approximate agreement).

use incremental_flattening::prelude::*;
use ir::interp::Thresholds;
use std::process::Command;

fn example(name: &str) -> String {
    format!("{}/examples/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn flatc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_flatc"))
        .args(args)
        .env_remove("FLAT_OBS")
        .output()
        .expect("flatc runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("flat-perf-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Simulate a flattened program and archive the run, the way the
/// `--archive` flag on `flatc simulate` does.
fn sim_record(
    fl: &compiler::Flattened,
    name: &str,
    args: &[gpu::AbsValue],
    t: &Thresholds,
    dev: &gpu::DeviceSpec,
) -> (gpu::SimReport, perf::RunRecord) {
    let rep = gpu::simulate(&fl.prog, args, t, dev).unwrap();
    let rec = perf::from_sim(name, None, name, &[], &rep, &fl.prog.prov, dev);
    (rep, rec)
}

/// The diff invariant on one pair of archived runs.
fn assert_diff_reconciles(
    a: &(gpu::SimReport, perf::RunRecord),
    b: &(gpu::SimReport, perf::RunRecord),
    what: &str,
) {
    // `diff_records` re-runs the reconciliation internally and refuses
    // to return a diff that does not reconcile; the assertions below
    // only make the bitwise claims visible in the test.
    let diff = perf::diff_records(&a.1, &b.1).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(
        diff.a_total.to_bits(),
        a.0.cost.total_cycles.to_bits(),
        "{what}: diff total A must be the sim total, bitwise"
    );
    assert_eq!(
        diff.b_total.to_bits(),
        b.0.cost.total_cycles.to_bits(),
        "{what}: diff total B must be the sim total, bitwise"
    );
    // Simulated totals are exactly the launch costs in launch order, so
    // the kernel-side sums agree with the totals bitwise as well.
    assert_eq!(diff.a_kernel_sum.to_bits(), diff.a_total.to_bits(), "{what}");
    assert_eq!(diff.b_kernel_sum.to_bits(), diff.b_total.to_bits(), "{what}");
    // Every archived kernel of both runs must appear in exactly one row.
    let a_entries: usize = diff.rows.iter().map(|r| r.a.len()).sum();
    let b_entries: usize = diff.rows.iter().map(|r| r.b.len()).sum();
    assert_eq!(a_entries, a.1.kernels.len(), "{what}");
    assert_eq!(b_entries, b.1.kernels.len(), "{what}");
}

/// The acceptance property, on the checked-in example programs: archive
/// records of simulated runs diff with bitwise reconciliation, across
/// code versions (threshold settings) and data sizes — including diffs
/// of runs that took *different* paths, where rows are one-sided.
#[test]
fn diffs_reconcile_bitwise_on_example_programs() {
    let dev = gpu::DeviceSpec::k40();
    type ArgsFn = fn(i64) -> Vec<gpu::AbsValue>;
    let cases: [(&str, &str, ArgsFn); 2] = [
        ("matmul.fut", "matmul", |n| {
            vec![
                gpu::AbsValue::known(ir::Const::I64(n)),
                gpu::AbsValue::known(ir::Const::I64(64)),
                gpu::AbsValue::known(ir::Const::I64(64)),
                gpu::AbsValue::array(vec![n, 64], ir::ScalarType::F32),
                gpu::AbsValue::array(vec![64, 64], ir::ScalarType::F32),
            ]
        }),
        ("sumrows.fut", "sumrows", |n| {
            vec![
                gpu::AbsValue::known(ir::Const::I64(n)),
                gpu::AbsValue::known(ir::Const::I64(256)),
                gpu::AbsValue::array(vec![n, 256], ir::ScalarType::F32),
            ]
        }),
    ];
    for (file, entry, mk_args) in cases {
        let src = std::fs::read_to_string(example(file)).unwrap();
        let prog = lang::compile(&src, entry).unwrap();
        let fl = compiler::flatten_incremental(&prog).unwrap();
        let settings = [0, Thresholds::DEFAULT, i64::MAX];
        for n in [2, 64, 1024] {
            let runs: Vec<_> = settings
                .iter()
                .map(|&s| {
                    let t = Thresholds::uniform(fl.thresholds.ids(), s);
                    sim_record(&fl, entry, &mk_args(n), &t, &dev)
                })
                .collect();
            for a in &runs {
                for b in &runs {
                    assert_diff_reconciles(a, b, &format!("{file} n={n}"));
                }
            }
            // A self-diff is all-zero with nothing one-sided.
            let diff = perf::diff_records(&runs[0].1, &runs[0].1).unwrap();
            assert!(diff.rows.iter().all(|r| r.delta == 0.0), "{file} n={n}");
            assert_eq!((diff.only_a, diff.only_b), (0, 0));
        }
    }
}

/// The same property over the whole benchmark suite (every Fig. 7
/// program on its first paper dataset, extreme threshold settings
/// against the default) — locvolcalib's data-dependent control flow
/// included.
#[test]
fn diffs_reconcile_bitwise_on_every_benchmark() {
    let dev = gpu::DeviceSpec::k40();
    let cfg = compiler::FlattenConfig::incremental();
    for b in bench_suite::all_benchmarks() {
        let fl = b.flatten(&cfg);
        let d = &b.datasets[0];
        let runs: Vec<_> = [0, Thresholds::DEFAULT, i64::MAX]
            .iter()
            .map(|&s| {
                let t = Thresholds::uniform(fl.thresholds.ids(), s);
                sim_record(&fl, b.name, &d.args, &t, &dev)
            })
            .collect();
        for a in &runs {
            for bb in &runs {
                assert_diff_reconciles(a, bb, &format!("{}/{}", b.name, d.name));
            }
        }
    }
}

/// Archive records survive the JSONL round trip bitwise: parsing a
/// written line reproduces every cost field exactly, because costs are
/// stored with their raw bit patterns alongside the decimal rendering.
#[test]
fn archive_round_trip_is_bitwise() {
    let dev = gpu::DeviceSpec::k40();
    let cfg = compiler::FlattenConfig::incremental();
    let b = &bench_suite::all_benchmarks()[0];
    let fl = b.flatten(&cfg);
    let (rep, mut rec) = sim_record(
        &fl,
        b.name,
        &b.datasets[0].args,
        &Thresholds::new(),
        &dev,
    );
    perf::stamp(&mut rec);
    let back = perf::RunRecord::parse(&rec.to_json_line()).unwrap().unwrap();
    assert_eq!(back.total_cycles.to_bits(), rep.cost.total_cycles.to_bits());
    assert_eq!(back.kernels.len(), rec.kernels.len());
    for (k0, k1) in rec.kernels.iter().zip(&back.kernels) {
        assert_eq!(k0.cycles.to_bits(), k1.cycles.to_bits());
        assert_eq!(k0.key, k1.key);
    }
}

/// The CLI surface end to end: `--archive` on simulate, `perf log`,
/// `perf diff` with selectors, and the folded-stacks output.
#[test]
fn cli_archive_log_and_diff() {
    let dir = tmp_dir("cli");
    let archive = dir.join("archive.jsonl");
    let archive = archive.to_str().unwrap();
    let src = example("sumrows.fut");

    let run = |extra: &[&str]| {
        let mut args = vec![
            "simulate",
            &src,
            "sumrows",
            "--arg",
            "32",
            "--arg",
            "256",
            "--arg",
            "[32][256]f32",
            "--archive",
            archive,
        ];
        args.extend_from_slice(extra);
        let (ok, _, stderr) = flatc(&args);
        assert!(ok, "{stderr}");
        assert!(stderr.contains("archived run"), "{stderr}");
    };
    run(&[]);
    run(&["--threshold", "suff_outer_par_0=1"]);

    let (ok, log, _) = flatc(&["perf", "log", "--archive", archive]);
    assert!(ok);
    assert_eq!(log.matches("simulate").count(), 2, "{log}");
    assert!(log.contains("sumrows"), "{log}");

    let folded = dir.join("diff.folded");
    let (ok, diff, stderr) = flatc(&[
        "perf",
        "diff",
        "last~1",
        "last",
        "--archive",
        archive,
        "--folded",
        folded.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    // The two runs took different paths, so the diff is one-sided in
    // both directions, and it must say the totals reconciled.
    assert!(diff.contains("only in A") && diff.contains("only in B"), "{diff}");
    let folded_text = std::fs::read_to_string(&folded).unwrap();
    assert!(!folded_text.trim().is_empty());
    for line in folded_text.lines() {
        // difffolded format: `frame;frame;leaf countA countB`.
        let fields: Vec<&str> = line.rsplitn(3, ' ').collect();
        assert_eq!(fields.len(), 3, "{line}");
        fields[0].parse::<u64>().unwrap();
        fields[1].parse::<u64>().unwrap();
    }

    // Selector errors are usage errors, not crashes.
    let (ok, _, stderr) = flatc(&["perf", "diff", "last~9", "last", "--archive", archive]);
    assert!(!ok);
    assert!(stderr.contains("past the archive"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The regret acceptance criterion, on a Fig. 7 benchmark: run
/// LocVolCalib with the root outer-parallelism threshold deliberately
/// mis-set (`i64::MAX` refuses the outer-parallel version on a dataset
/// whose parallelism is all in the outer dimension), and the profiler
/// must identify exactly that decision as the top regret.
#[test]
fn regret_identifies_misset_threshold_on_locvolcalib() {
    let prog = lang::compile(bench_suite::locvolcalib::SOURCE, "locvolcalib").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    // The root decision of the branching tree: outer sufficiency.
    let root = fl
        .thresholds
        .iter()
        .find(|t| t.path.is_empty())
        .expect("locvolcalib has a threshold tree");
    assert!(root.name.contains("outer"), "{}", root.name);

    // Wide outer (256 options), tiny inner — everything the executor
    // can use lives at the outer level.
    let (s, x, y, t) = (256i64, 4i64, 8i64, 2i64);
    let specs = vec![
        gpu::AbsValue::known(ir::Const::I64(s)),
        gpu::AbsValue::known(ir::Const::I64(x)),
        gpu::AbsValue::known(ir::Const::I64(y)),
        gpu::AbsValue::array(vec![s, x, y], ir::ScalarType::F32),
        gpu::AbsValue::array(vec![s, y, x], ir::ScalarType::F32),
        gpu::AbsValue::known(ir::Const::I64(t)),
    ];
    let args = exec::materialize(&specs, 42).unwrap();

    let mut mis = Thresholds::new();
    mis.set(root.id, i64::MAX);
    let cfg = perf::RegretConfig {
        thresholds: mis,
        threads: Some(2),
        reps: 1,
        warmup: 0,
        ..perf::RegretConfig::default()
    };
    // A deterministic price read off the launch records, so the verdict
    // cannot flap with the load of the machine running the suite: every
    // launch pays a fixed dispatch cost, every task a hand-off, the
    // points of the space are shared by at most `threads` tasks, and
    // every guard evaluated on the way is a branch.
    let modelled = |exec_cfg: &exec::ExecConfig| {
        let rep = exec::run_program(&fl.prog, &args, exec_cfg)?;
        let launches: f64 = (rep.launches.iter())
            .map(|l| 2_000.0 + 200.0 * l.tasks as f64 + l.space / (l.tasks.clamp(1, 2) as f64))
            .sum();
        let cost = launches + 50.0 * rep.path.len() as f64;
        Ok((rep, cost))
    };
    let rep = perf::profile_regret(&fl.thresholds, "locvolcalib", &args, &cfg, &modelled).unwrap();

    // The live run refused the root comparison...
    assert!(
        rep.live_sig.contains(&(root.id.0, false)),
        "live sig {:?} should refuse t{}",
        rep.live_sig,
        root.id.0
    );
    // ...and that refusal is the top regret: flipping it wins.
    let top = rep.decisions.first().expect("live path took decisions");
    assert_eq!(top.id, root.id.0, "top regret: {}", perf::render_regret(&rep));
    assert!(!top.taken);
    assert!(
        top.regret_ns > 0.0,
        "refusing outer parallelism must cost:\n{}",
        perf::render_regret(&rep)
    );
    assert!(top.best_alt_sig.contains(&(root.id.0, true)));
    // The shape regime is recorded with the verdict.
    assert!(rep.shape_class.contains(';'), "{}", rep.shape_class);

    // Wall-clock smoke: the measured sweep completes and sees the same
    // live decision; which path is fastest today is not asserted.
    let compiled = vm::compile(&fl.prog).unwrap();
    let timed = perf::wall_clock(&compiled, &args, &cfg);
    let rep = perf::profile_regret(&fl.thresholds, "locvolcalib", &args, &cfg, &timed).unwrap();
    assert!(rep.live_sig.contains(&(root.id.0, false)), "live sig {:?}", rep.live_sig);
    assert!(rep.alternatives.iter().all(|a| a.wall_ns > 0.0));
}

/// Regret sweeps double as autotuning samples: the emitted log lines
/// round-trip through `autotune`'s loader and join, and `warm_start`
/// recovers one seed observation per measured version path.
#[test]
fn regret_samples_warm_start_the_tuner() {
    let src = std::fs::read_to_string(example("sumrows.fut")).unwrap();
    let prog = lang::compile(&src, "sumrows").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let specs = vec![
        gpu::AbsValue::known(ir::Const::I64(16)),
        gpu::AbsValue::known(ir::Const::I64(64)),
        gpu::AbsValue::array(vec![16, 64], ir::ScalarType::F32),
    ];
    let args = exec::materialize(&specs, 7).unwrap();
    let cfg = perf::RegretConfig {
        threads: Some(2),
        reps: 1,
        warmup: 0,
        ..perf::RegretConfig::default()
    };
    let compiled = vm::compile(&fl.prog).unwrap();
    let timed = perf::wall_clock(&compiled, &args, &cfg);
    let rep = perf::profile_regret(&fl.thresholds, "sumrows", &args, &cfg, &timed).unwrap();
    assert!(!rep.alternatives.is_empty());

    let dir = tmp_dir("warmstart");
    let log = dir.join("regret.jsonl");
    perf::append_regret_samples(&log, &rep).unwrap();

    let samples = tuning::load_sample_log(&log).unwrap();
    assert_eq!(samples.len(), rep.alternatives.len());
    let join = tuning::join_samples(&fl.thresholds, &samples);
    let seeds = join.warm_start();
    assert_eq!(
        seeds.len(),
        rep.alternatives.len(),
        "every forced path must come back as an in-tree warm-start seed"
    );
    for (sig, wall) in &seeds {
        assert!(wall.is_finite() && *wall > 0.0, "{sig:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `flatc perf regret` surface: runs, reports, and writes samples.
#[test]
fn cli_regret_reports_and_logs_samples() {
    let dir = tmp_dir("cli-regret");
    let log = dir.join("samples.jsonl");
    let src = example("sumrows.fut");
    let (ok, stdout, stderr) = flatc(&[
        "perf",
        "regret",
        &src,
        "sumrows",
        "--arg",
        "16",
        "--arg",
        "64",
        "--arg",
        "[16][64]f32",
        "--threads",
        "2",
        "--reps",
        "1",
        "--warmup",
        "0",
        "--sample-log",
        log.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("regret"), "{stdout}");
    assert!(stdout.contains("live path"), "{stdout}");
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(!text.trim().is_empty());
    for line in text.lines() {
        assert!(line.contains("\"whatif\""), "{line}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--check` gate refuses to compare wall-clock measurements taken
/// by different backends: a `vm` baseline cannot gate an `exec`
/// measurement (the numbers are commensurable in units but not in
/// meaning — the VM's compiled dispatch is the thing being measured),
/// and the error tells the user how to re-record.
#[test]
fn bench_check_refuses_vm_vs_exec_baseline() {
    let dir = tmp_dir("vm-gate");
    let base = dir.join("baseline.json");
    let base = base.to_str().unwrap();

    let (ok, _, stderr) = flatc(&[
        "bench", "--backend", "vm", "--write", "--baseline", base, "--reps", "1", "--threads",
        "2", "--quiet",
    ]);
    assert!(ok, "{stderr}");

    // Same backend: the gate runs (huge tolerance so debug-build timing
    // noise cannot fail it — this test is about the refusal, not speed).
    let (ok, stdout, stderr) = flatc(&[
        "bench", "--backend", "vm", "--check", "--baseline", base, "--reps", "1", "--threads",
        "2", "--tolerance", "1e9", "--quiet",
    ]);
    assert!(ok, "{stdout}{stderr}");

    // Cross backend: refused before any comparison happens.
    let (ok, _, stderr) = flatc(&[
        "bench", "--backend", "exec", "--check", "--baseline", base, "--reps", "1", "--threads",
        "2", "--tolerance", "1e9", "--quiet",
    ]);
    assert!(!ok);
    assert!(stderr.contains("cannot compare across backends"), "{stderr}");
    assert!(stderr.contains("`vm`"), "{stderr}");
    assert!(stderr.contains("--backend exec"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// VM runs archive like executor runs — same report type, backend tag
/// `"vm"` — and survive the JSONL round trip bitwise, wall times and
/// per-launch costs alike.
#[test]
fn vm_records_round_trip_archive_bitwise() {
    let src = std::fs::read_to_string(example("sumrows.fut")).unwrap();
    let prog = lang::compile(&src, "sumrows").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let specs = vec![
        gpu::AbsValue::known(ir::Const::I64(16)),
        gpu::AbsValue::known(ir::Const::I64(64)),
        gpu::AbsValue::array(vec![16, 64], ir::ScalarType::F32),
    ];
    let args = exec::materialize(&specs, 7).unwrap();
    let cfg = exec::ExecConfig { threads: Some(2), ..exec::ExecConfig::default() };
    let (rep, m) = vm::measure(&fl.prog, &args, &cfg, 2, 1).unwrap();

    let mut rec = perf::from_vm(
        "sumrows",
        Some("examples/sumrows.fut"),
        &src,
        &["16".into(), "64".into(), "[16][64]f32".into()],
        &rep,
        m.median_nanos,
        2,
        &fl.prog.prov,
    );
    assert_eq!(rec.backend, "vm");
    assert!(!rec.kernels.is_empty(), "a vm run archives its launches");
    perf::stamp(&mut rec);
    let back = perf::RunRecord::parse(&rec.to_json_line()).unwrap().unwrap();
    assert_eq!(back.backend, "vm");
    assert_eq!(back.total_cycles.to_bits(), m.median_nanos.to_bits());
    assert_eq!(back.path, rep.signature());
    assert_eq!(back.threads, Some(rep.threads));
    assert_eq!(back.kernels.len(), rec.kernels.len());
    for (k0, k1) in rec.kernels.iter().zip(&back.kernels) {
        assert_eq!(k0.cycles.to_bits(), k1.cycles.to_bits());
        assert_eq!(k0.key, k1.key);
        assert_eq!(k0.launches, k1.launches);
    }
}

/// Two archived VM runs diff with the same bitwise reconciliation as
/// simulated runs — including runs that took different version paths —
/// and a VM run refuses to diff against an executor run.
#[test]
fn diff_reconciles_two_vm_runs() {
    let src = std::fs::read_to_string(example("sumrows.fut")).unwrap();
    let prog = lang::compile(&src, "sumrows").unwrap();
    let fl = compiler::flatten_incremental(&prog).unwrap();
    let specs = vec![
        gpu::AbsValue::known(ir::Const::I64(16)),
        gpu::AbsValue::known(ir::Const::I64(64)),
        gpu::AbsValue::array(vec![16, 64], ir::ScalarType::F32),
    ];
    let args = exec::materialize(&specs, 7).unwrap();

    let vm_run = |setting: i64| {
        let cfg = exec::ExecConfig {
            thresholds: Thresholds::uniform(fl.thresholds.ids(), setting),
            threads: Some(2),
            ..exec::ExecConfig::default()
        };
        let (rep, m) = vm::measure(&fl.prog, &args, &cfg, 1, 0).unwrap();
        perf::from_vm("sumrows", None, &src, &[], &rep, m.median_nanos, 1, &fl.prog.prov)
    };
    // 0 accepts every parallel version, i64::MAX refuses them all, so
    // the two runs take different paths and the diff has one-sided rows.
    let a = vm_run(0);
    let b = vm_run(i64::MAX);
    assert_ne!(a.path, b.path, "extreme thresholds must take different paths");

    let diff = perf::diff_records(&a, &b).unwrap();
    assert_eq!(diff.a_total.to_bits(), a.total_cycles.to_bits());
    assert_eq!(diff.b_total.to_bits(), b.total_cycles.to_bits());
    let a_entries: usize = diff.rows.iter().map(|r| r.a.len()).sum();
    let b_entries: usize = diff.rows.iter().map(|r| r.b.len()).sum();
    assert_eq!(a_entries, a.kernels.len());
    assert_eq!(b_entries, b.kernels.len());
    assert!(diff.only_a > 0 || diff.only_b > 0, "paths differ, so rows are one-sided");

    // Self-diff: all-zero, nothing one-sided.
    let self_diff = perf::diff_records(&a, &a).unwrap();
    assert!(self_diff.rows.iter().all(|r| r.delta == 0.0));
    assert_eq!((self_diff.only_a, self_diff.only_b), (0, 0));

    // A vm record never diffs against an exec record, even though both
    // measure wall nanoseconds on the same machine.
    let cfg = exec::ExecConfig { threads: Some(2), ..exec::ExecConfig::default() };
    let (erep, em) = exec::measure(&fl.prog, &args, &cfg, 1, 0).unwrap();
    let e = perf::from_exec("sumrows", None, &src, &[], &erep, em.median_nanos, 1, &fl.prog.prov);
    let err = perf::diff_records(&a, &e).unwrap_err();
    assert!(err.contains("cannot diff across backends"), "{err}");
    assert!(err.contains("`vm`") && err.contains("`exec`"), "{err}");
}

/// Satellite guarantees: baselines stamp their provenance, and the
/// sample-log loader skips (with a warning) schema versions it does not
/// understand instead of failing or misreading them.
#[test]
fn baselines_and_sample_logs_are_versioned() {
    let base = bench::measure_suite(&gpu::DeviceSpec::k40());
    assert_eq!(base.version.as_deref(), Some(&*perf::version_string()));
    // Round trip keeps the stamp.
    let back = bench::Baseline::from_json(&base.to_json()).unwrap();
    assert_eq!(back.version, base.version);
    assert_eq!(back.git_rev, base.git_rev);

    let dir = tmp_dir("schema");
    let log = dir.join("mixed.jsonl");
    let good = r#"{"schema":1,"program":"p","kernel":"k","kind":"segmap","shape_class":"2^4","space":16.0,"sig":"t0+","path":[[0,true]],"threads":2,"grain":64,"wall_ns":100.0,"prov":0}"#;
    let future = good.replace("\"schema\":1", "\"schema\":99");
    std::fs::write(&log, format!("{good}\n{future}\n")).unwrap();
    let (samples, warnings) = tuning::load_sample_log_with_warnings(&log).unwrap();
    assert_eq!(samples.len(), 1);
    assert_eq!(warnings.len(), 1);
    assert!(warnings[0].contains("schema"), "{}", warnings[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite guarantee: `append_record` is safe under concurrent
/// writers. Many threads hammering one archive file must produce a
/// well-formed JSONL archive with every record intact — no torn or
/// interleaved lines — because each line is written under an exclusive
/// advisory file lock on an append-mode descriptor.
#[test]
fn concurrent_append_record_keeps_the_archive_intact() {
    let dir = tmp_dir("concurrent-append");
    let archive = dir.join("archive.jsonl");
    const WRITERS: usize = 16;
    const PER_WRITER: usize = 8;

    let ids: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let path = archive.clone();
                s.spawn(move || {
                    let mut ids = Vec::new();
                    for i in 0..PER_WRITER {
                        let mut rec = perf::RunRecord {
                            kind: "bench".into(),
                            program: format!("writer-{w}"),
                            backend: "flatd".into(),
                            device: "host".into(),
                            clock_ghz: 1.0,
                            total_cycles: (w * PER_WRITER + i) as f64,
                            // A fat payload makes torn writes likely if
                            // the lock were missing.
                            args: (0..64).map(|k| format!("arg-{w}-{i}-{k}")).collect(),
                            ..perf::RunRecord::default()
                        };
                        perf::stamp(&mut rec);
                        ids.push(perf::append_record(&path, &mut rec).unwrap());
                    }
                    ids
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(ids.len(), WRITERS * PER_WRITER);

    let (records, warnings) = perf::load_archive(&archive).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(records.len(), WRITERS * PER_WRITER, "lost or torn records");
    // Every append's returned content id is present exactly once, and
    // every record round-trips with its payload intact.
    let mut seen: Vec<&str> = records.iter().map(|r| r.id.as_str()).collect();
    seen.sort_unstable();
    let mut expect: Vec<&str> = ids.iter().map(|s| s.as_str()).collect();
    expect.sort_unstable();
    assert_eq!(seen, expect);
    for rec in &records {
        assert_eq!(rec.args.len(), 64, "record {} lost its payload", rec.program);
        assert_eq!(rec.backend, "flatd");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
