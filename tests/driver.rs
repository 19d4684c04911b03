//! The compile driver (`incflat::driver`): every product path compiles
//! through it, so it must run each pass exactly once, and the fusion it
//! adds before flattening must keep every value bitwise and never add a
//! kernel launch.

use incremental_flattening::prelude::*;

use compiler::{FlattenConfig, Flattened};
use exec::ExecConfig;
use ir::Value;
use std::sync::Mutex;

/// `compiler.flatten_runs` is a process-wide counter: no test here may
/// flatten while another reads it.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn the_driver_runs_each_pass_once() {
    let _serial = serial();
    let src = std::fs::read_to_string("examples/locvolcalib.fut").unwrap();
    let mut passes = Vec::new();
    let cfg = FlattenConfig::incremental();
    compiler::driver::compile(&src, "locvolcalib", &cfg, &mut |p| passes.push(p.stage())).unwrap();
    assert_eq!(
        passes,
        [
            "elaborate",
            "fuse",
            "flatten-incremental",
            "simplify-incremental"
        ]
    );

    // verify_pipeline: one frontend, then one flatten (and simplify)
    // per mode, each observed once.
    let runs = || obs::counter("compiler.flatten_runs").get();
    let before = runs();
    let report = verify::verify_pipeline(&src, "locvolcalib").unwrap();
    assert_eq!(
        runs() - before,
        2,
        "verify_pipeline must flatten once per mode"
    );
    let stages: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(
        stages,
        [
            "elaborate",
            "fuse",
            "flatten-moderate",
            "simplify-moderate",
            "flatten-incremental",
            "simplify-incremental"
        ]
    );
}

/// Every example, benchmark and corpus program with its arguments.
fn programs() -> Vec<(String, String, String, Vec<Value>)> {
    let mut out = Vec::new();
    let examples: [(&str, &[&str]); 3] = [
        ("matmul", &["8", "16", "8", "[8][16]f32", "[16][8]f32"]),
        ("sumrows", &["16", "64", "[16][64]f32"]),
        (
            "locvolcalib",
            &["8", "8", "8", "[8][8][8]f32", "[8][8][8]f32", "2"],
        ),
    ];
    for (name, specs) in examples {
        let src = std::fs::read_to_string(format!("examples/{name}.fut")).unwrap();
        let abs: Vec<gpu::AbsValue> = specs.iter().map(|s| s.parse().unwrap()).collect();
        let args = exec::materialize(&abs, 42).unwrap();
        out.push((name.to_string(), src, name.to_string(), args));
    }
    for b in bench_suite::all_benchmarks() {
        let args = (b.test_args)(&mut bench_suite::Benchmark::rng());
        out.push((
            b.name.to_string(),
            b.source.to_string(),
            b.entry.to_string(),
            args,
        ));
    }
    for case in fuzz::corpus::load_dir(std::path::Path::new("tests/corpus")).unwrap() {
        let args = fuzz::oracle::FuzzInputs::from_seed(case.n, case.m, case.data_seed).ir_args();
        out.push((case.name, case.source, "main".to_string(), args));
    }
    out
}

/// The VM at 2 threads with every threshold at `t` (`None`: defaults).
/// Returns the values and the launch count, after checking the path is
/// one the program's tree admits and follows any forcing.
fn run(name: &str, fl: &Flattened, args: &[Value], t: Option<i64>) -> (Vec<Value>, usize) {
    let mut thresholds = Thresholds::new();
    for info in fl.thresholds.iter() {
        if let Some(t) = t {
            thresholds.set(info.id, t);
        }
    }
    let cfg = ExecConfig {
        thresholds,
        threads: Some(2),
        ..ExecConfig::default()
    };
    let compiled = vm::compile(&fl.prog).unwrap();
    let rep =
        vm::run_compiled(&compiled, args, &cfg).unwrap_or_else(|e| panic!("{name} at {t:?}: {e}"));
    assert!(
        fl.thresholds.admits(&rep.signature()),
        "{name} at {t:?}"
    );
    if let Some(t) = t {
        for c in &rep.path {
            assert_eq!(c.taken, c.par >= t, "{name}: guard {} at t={t}", c.id);
        }
    }
    (rep.values, rep.launches.len())
}

#[test]
fn fusion_keeps_values_and_never_adds_launches() {
    let _serial = serial();
    let mut fewer = Vec::new();
    for (name, src, entry, args) in programs() {
        let cfg = FlattenConfig::incremental();
        let fused = compiler::driver::compile(&src, &entry, &cfg, &mut |_| {})
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let unfused = compiler::flatten(&lang::compile(&src, &entry).unwrap(), &cfg).unwrap();
        for t in [Some(0), None, Some(1 << 40)] {
            let (fused_values, fused_launches) = run(&name, &fused, &args, t);
            let (values, launches) = run(&name, &unfused, &args, t);
            assert_eq!(fused_values.len(), values.len(), "{name} at {t:?}");
            for (i, (a, b)) in fused_values.iter().zip(&values).enumerate() {
                assert!(
                    serve::proto::bitwise_eq(a, b),
                    "{name} at {t:?}: result {i} differs"
                );
            }
            assert!(
                fused_launches <= launches,
                "{name} at {t:?}: fusion added launches ({launches} -> {fused_launches})"
            );
            if fused_launches < launches {
                fewer.push(name.clone());
            }
        }
    }
    for name in ["Heston", "OptionPricing", "Backprop"] {
        assert!(
            fewer.iter().any(|n| n == name),
            "fusion saves no launch on {name}: {fewer:?}"
        );
    }
}
