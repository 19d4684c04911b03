//! `flatc` — a command-line front door to the incremental-flattening
//! pipeline, in the spirit of `futhark dev`.
//!
//! ```console
//! $ flatc check    prog.fut ENTRY                # parse + typecheck
//! $ flatc lint     prog.fut ENTRY [--json]       # verify after every pass
//! $ flatc compile  prog.fut ENTRY [--moderate|--full] [--no-simplify]
//!                  [--explain] [--verify]
//! $ flatc flatten  prog.fut ENTRY [--moderate|--full] [--no-simplify] [--explain]
//! $ flatc tree     prog.fut ENTRY                # threshold branching tree
//! $ flatc simulate prog.fut ENTRY --device k40 --arg 1024 --arg '[1024][512]f32'
//!                  [--profile] [--attr] [--attr-folded out.folded] [--trace out.json]
//! $ flatc exec     prog.fut ENTRY --arg 1024 [--threads N] [--reps K]
//!                  [--exec-report] [--worker-trace out.json] [--sample-log s.jsonl]
//! $ flatc tune     prog.fut ENTRY --device vega64 --dataset 16,1024 [--coverage]
//! $ flatc bench    [--check|--write] [--baseline FILE] [--tolerance PCT]
//! $ flatc fuzz     [--iters N] [--seed S] [--corpus DIR] [--failures DIR]
//! $ flatc serve    [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//! $ flatc remote   exec prog.fut ENTRY --connect HOST:PORT [--check-local]
//! $ flatc remote   {compile|status|shutdown} ... --connect HOST:PORT
//! ```
//!
//! `--arg` accepts either an integer (an `i64` scalar, typically a size)
//! or an array shape like `[1024][512]f32`. `flatc tune` takes several
//! `--dataset` options, each a comma-separated list of such arguments.
//!
//! Observability: `--explain` prints the G0–G9 rule derivation,
//! `--profile` prints a per-kernel table, `--attr` prints the
//! source-level cycle attribution tree (and `--attr-folded FILE` writes
//! flamegraph-compatible folded stacks), `--coverage` prints the
//! per-dataset path-coverage report after tuning, `--trace FILE` writes
//! a Perfetto-loadable Chrome trace (simulate) or per-evaluation JSON
//! lines (tune), and the `FLAT_OBS` environment variable attaches
//! summary/json/trace/folded sinks to any command (see
//! docs/observability.md). `--quiet` suppresses informational stderr
//! output and the `FLAT_OBS` summary sink.
//!
//! Executor telemetry (`flatc exec`): `--trace FILE` renders kernel
//! launches on the synthetic 1 GHz host device — **1 cycle = 1 ns of
//! measured wall time** — as a single-track Chrome trace;
//! `--worker-trace FILE` instead writes real per-worker timelines from
//! the pool telemetry (one track per worker plus a kernel track);
//! `--exec-report` prints a per-kernel utilization and load-imbalance
//! report; `--sample-log FILE` appends one JSON line per dispatched
//! kernel (loadable via `autotune::load_sample_log`).
//!
//! `flatc bench` measures the built-in benchmark suite on the
//! simulator: `--write` records a baseline under
//! `results/baseline/baseline.json`, and `--check` compares a fresh
//! measurement against it, exiting nonzero on any above-tolerance
//! regression. Host wall-clock timing is the `flat-ledger` benchmark's.
//!
//! Service mode: `flatc serve` runs the `flatd` daemon (content-hash
//! compile cache, per-device tuning cache, bounded-queue admission
//! control, streaming results); `flatc remote exec` executes on it with
//! results bitwise-identical to a local `--backend vm` run
//! (`--check-local` verifies that in-process). See docs/SERVICE.md.
//!
//! Static analysis: `flatc lint` runs the flat-verify checker after
//! every pass (elaboration, fusion, both flattening modes,
//! simplification) and prints provenance-anchored diagnostics — one
//! JSON object per line under `--json`. `--verify` attaches the same
//! checks to `compile`/`flatten`/`simulate`; the fuzz oracle runs them
//! by default (`--no-verify` disables). Failures exit with distinct
//! codes: 2 = parse error, 3 = type error, 4 = lint errors, 1 =
//! anything else.

use incremental_flattening::compiler::FlattenConfig;
use incremental_flattening::prelude::*;
use std::process::ExitCode;

/// Command-line failure, split by *when* it happened: usage errors (bad
/// command line) reprint the usage text; everything downstream of
/// argument parsing (I/O, compilation, simulation, tuning) does not.
/// Parse, type, and lint failures carry distinct exit codes (2, 3, 4)
/// so scripts and editors can tell them apart without scraping stderr.
enum CliError {
    Usage(String),
    Fail(String),
    /// The source text does not parse (exit 2).
    Parse(String),
    /// The source parses but does not typecheck / elaborate (exit 3).
    Type(String),
    /// The verifier reported this many error diagnostics (exit 4).
    Lint(usize),
}

use CliError::{Fail, Lint, Parse, Type, Usage};

impl From<String> for CliError {
    fn from(e: String) -> CliError {
        Fail(e)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quiet = args.iter().any(|a| a == "--quiet");
    let status = run(&args, quiet);

    // Emit any FLAT_OBS-requested sinks before exiting, so even failed
    // runs leave their trace behind. --quiet drops the summary sink but
    // keeps explicitly requested files.
    let mut sinks = obs::sink::sinks_from_env();
    if quiet {
        sinks.retain(|s| !matches!(s, obs::SinkSpec::Summary));
    }
    if let Err(e) = obs::emit(obs::global(), &sinks) {
        eprintln!("flatc: FLAT_OBS sink: {e}");
        return ExitCode::FAILURE;
    }

    match status {
        Ok(()) => ExitCode::SUCCESS,
        Err(Usage(e)) => {
            eprintln!("flatc: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Fail(e)) => {
            eprintln!("flatc: {e}");
            ExitCode::FAILURE
        }
        Err(Parse(e)) => {
            eprintln!("flatc: parse error: {e}");
            ExitCode::from(2)
        }
        Err(Type(e)) => {
            eprintln!("flatc: type error: {e}");
            ExitCode::from(3)
        }
        Err(Lint(n)) => {
            eprintln!("flatc: {n} lint error(s)");
            ExitCode::from(4)
        }
    }
}

const USAGE: &str = "usage:
  flatc check    <file> <entry>
  flatc lint     <file> <entry> [--json]
  flatc compile  <file> <entry> [--moderate|--full] [--no-simplify]
                 [--explain] [--verify]
  flatc flatten  <file> <entry> [--moderate|--full] [--no-simplify] [--explain]
  flatc tree     <file> <entry>
  flatc simulate <file> <entry> [--device k40|vega64] [--tuning FILE]
                 [--threshold NAME=V]... [--profile] [--attr] [--verify]
                 [--attr-folded FILE] [--trace FILE]
                 --arg <i64 or [d][d]type> ...
  flatc exec     <file> <entry> [--backend exec|vm] [--threads N] [--grain N]
                 [--data-seed S] [--tuning FILE] [--threshold NAME=V]...
                 [--reps N] [--profile] [--attr] [--trace FILE]
                 [--exec-report] [--worker-trace FILE] [--sample-log FILE]
                 [--disasm] --arg <i64 or [d][d]type> ...
  flatc tune     <file> <entry> [--backend sim|exec|vm] [--device k40|vega64]
                 [--exhaustive] [--coverage] [--out FILE] [--trace FILE]
                 [--threads N] [--data-seed S]
                 --dataset a1,a2,... [--dataset ...]
  flatc bench    [--check|--write] [--device k40|vega64]
                 [--baseline FILE] [--tolerance PCT]
  flatc fuzz     [--iters N] [--seed S] [--corpus DIR] [--failures DIR]
                 [--max-failures N] [--verify|--no-verify] [--no-exec]
                 [--no-vm]
  flatc serve    [--addr HOST:PORT] [--workers N] [--queue N] [--batch N]
                 [--threads N] [--deadline-ms N] [--cache N]
  flatc remote exec <file> <entry> --connect ADDR [--check-local]
                 [--data-seed S] [--threads N] [--grain N] [--tuning FILE]
                 [--threshold NAME=V]... [--deadline-ms N]
                 --arg <i64 or [d][d]type> ...
  flatc remote compile <file> <entry> --connect ADDR [--lint]
  flatc remote status   --connect ADDR
  flatc remote shutdown --connect ADDR
  flatc perf log    [--archive FILE] [--limit N]
  flatc perf diff   <runA> <runB> [--archive FILE] [--folded FILE]
  flatc perf regret <file> <entry> [--threads N] [--grain N] [--reps N]
                 [--warmup N] [--cap N] [--data-seed S]
                 [--tuning FILE] [--threshold NAME=V]...
                 [--sample-log FILE] --arg <i64 or [d][d]type> ...
global options:
  --quiet        suppress informational stderr output and the FLAT_OBS
                 summary sink
exit codes:
  1 = failure    2 = parse error    3 = type error    4 = lint errors
environment:
  FLAT_OBS=summary,json=PATH,trace=PATH,folded=PATH   attach sinks
  FLAT_EXEC_THREADS=N   default thread count for the exec backend
notes:
  exec --backend vm lowers to the flat register bytecode and runs it on
  the same pool; results, paths, and reports are bitwise identical to
  --backend exec (--disasm dumps the bytecode instead of running)
  exec --trace renders kernels on the synthetic 1 GHz host device
  (1 cycle = 1 ns of wall time); use --worker-trace for real
  per-worker timelines from the pool telemetry
  simulate/exec/bench/tune also accept --archive [FILE]: append a
  self-describing run record (program hash, backend knobs, git rev,
  per-kernel attribution) to the perf archive — default
  results/perf/archive.jsonl — for later `flatc perf log|diff`;
  perf diff selectors: last, last~K, @N, or an id prefix";

fn run(args: &[String], quiet: bool) -> Result<(), CliError> {
    let (cmd, rest) = args.split_first().ok_or(Usage("missing command".into()))?;
    match cmd.as_str() {
        "bench" => return run_bench(rest, quiet),
        "fuzz" => return run_fuzz(rest, quiet),
        "perf" => return run_perf(rest, quiet),
        "serve" => return run_serve(rest, quiet),
        "remote" => return run_remote(rest, quiet),
        "check" | "lint" | "compile" | "flatten" | "tree" | "simulate" | "exec" | "tune" => {}
        other => return Err(Usage(format!("unknown command `{other}`"))),
    }
    let (file, rest) = rest.split_first().ok_or(Usage("missing source file".into()))?;
    let (entry, rest) = rest.split_first().ok_or(Usage("missing entry point".into()))?;
    let src = std::fs::read_to_string(file).map_err(|e| Fail(format!("{file}: {e}")))?;
    let flag = |f: &str| rest.iter().any(|a| a == f);

    if cmd == "check" {
        let prog = compiler::driver::elaborate(&src, entry, &mut |_| {})
            .map_err(|e| compile_error(file, e))?;
        println!("{entry}: ok ({} parameters, {} results)", prog.params.len(), prog.ret.len());
        return Ok(());
    }
    if cmd == "lint" {
        // The standalone flat-verify front-end: one diagnostic per line,
        // human-readable or (--json) one JSON object; exit 4 iff any
        // has Error severity.
        let json = flag("--json");
        let report = verify::verify_pipeline(&src, entry).map_err(|e| compile_error(file, e))?;
        for (stage, d) in report.iter() {
            println!("{}", if json { d.render_json(stage) } else { d.render(stage) });
        }
        match (report.error_count(), report.total()) {
            (0, _) if quiet || json => {}
            (0, 0) => println!("{file}: {entry}: lint clean across {} stages", report.stages.len()),
            (0, warnings) => println!("{file}: {entry}: no lint errors ({warnings} warning(s))"),
            (errors, _) => return Err(Lint(errors)),
        }
        return Ok(());
    }

    let printed = matches!(cmd.as_str(), "flatten" | "compile");
    let mut cfg = if printed && flag("--moderate") {
        FlattenConfig::moderate()
    } else if printed && flag("--full") {
        FlattenConfig::full()
    } else {
        FlattenConfig::incremental()
    };
    cfg.simplify = !(printed && flag("--no-simplify"));
    let verify = flag("--verify") && (printed || cmd == "simulate");
    let (fl, lint) = compile(file, &src, entry, &cfg, verify)?;

    match cmd.as_str() {
        "flatten" | "compile" => {
            print!("{}", ir::pretty::program(&fl.prog));
            if flag("--explain") {
                println!();
                print!("{}", fl.rules.render());
            }
            if !quiet {
                eprintln!(
                    "-- {} statements, {} segops, {} thresholds, {} versions",
                    fl.stats.target_stms,
                    fl.stats.num_segops,
                    fl.stats.num_thresholds,
                    fl.stats.num_versions
                );
            }
            if let Some(report) = &lint {
                // Full inter-pass sweep: elaboration, fusion, and both
                // flattening modes with and without simplification,
                // plus the configuration printed above.
                print_lint(report)?;
                if !quiet {
                    eprintln!("-- verify: clean across {} stages", report.stages.len());
                }
            }
            Ok(())
        }
        "tree" => {
            if fl.thresholds.is_empty() {
                println!("(single version — no thresholds)");
            } else {
                print!("{}", fl.thresholds.render_tree());
            }
            Ok(())
        }
        "simulate" => {
            if let Some(report) = &lint {
                print_lint(report)?;
            }
            let dev = parse_device(rest).map_err(Usage)?;
            let spec = exec_spec(rest)?;
            let vals: Vec<gpu::AbsValue> =
                spec.args.iter().map(|s| s.parse()).collect::<Result<_, _>>().map_err(Usage)?;
            let thresholds = spec.thresholds(&fl.thresholds).map_err(Fail)?;
            let rep = gpu::simulate(&fl.prog, &vals, &thresholds, &dev)
                .map_err(|e| Fail(e.to_string()))?;
            println!("device:        {}", dev.name);
            println!(
                "runtime:       {:.1} µs ({:.0} cycles)",
                rep.microseconds, rep.cost.total_cycles
            );
            println!("kernels:       {}", rep.cost.kernel_launches);
            if !quiet {
                println!(
                    "breakdown:     compute {:.0} | global {:.0} | local {:.0} | sync {:.0} | launch {:.0}",
                    rep.cost.compute_cycles,
                    rep.cost.global_cycles,
                    rep.cost.local_cycles,
                    rep.cost.sync_cycles,
                    rep.cost.launch_cycles
                );
            }
            if rep.cost.local_fallbacks > 0 {
                println!(
                    "note:          {} kernel(s) hit the local-memory fallback",
                    rep.cost.local_fallbacks
                );
            }
            print!("version path: ");
            for c in &rep.path {
                print!(" {}({})={}", fl.thresholds.info(c.id).name, c.par, c.taken);
            }
            println!();
            if flag("--profile") {
                println!();
                print!("{}", gpu::profile_table(&rep.kernels, &dev));
            }
            if flag("--attr") {
                let tree = gpu::build_attr(&rep.kernels, &fl.prog.prov);
                println!();
                print!("{}", gpu::render_attr_table(&tree, &dev));
            }
            if let Some(path) = option_values(rest, "--attr-folded").next() {
                let folded = gpu::folded_stacks(&rep.kernels, &fl.prog.prov);
                obs::write_folded(std::path::Path::new(path), &folded)
                    .map_err(|e| Fail(format!("{path}: {e}")))?;
                if !quiet {
                    eprintln!("wrote {path} ({} folded stacks)", folded.lines().count());
                }
            }
            if let Some(path) = option_values(rest, "--trace").next() {
                let events = gpu::trace_events(&rep.kernels, &dev);
                obs::chrome::write_trace(std::path::Path::new(path), &events)
                    .map_err(|e| Fail(format!("{path}: {e}")))?;
                if !quiet {
                    eprintln!("wrote {path} ({} trace events)", events.len());
                }
            }
            if let Some(path) = archive_path(rest) {
                let mut rec =
                    perf::from_sim(entry, Some(file), &src, &spec.args, &rep, &fl.prog.prov, &dev);
                rec.tuning_hash = spec.tuning.as_deref().map(perf::content_hash);
                archive_append(path, &mut rec, quiet)?;
            }
            Ok(())
        }
        "exec" => {
            let backend = option_values(rest, "--backend").next().unwrap_or("exec");
            if !matches!(backend, "exec" | "vm") {
                return Err(Usage(format!("unknown --backend {backend} (expected exec or vm)")));
            }
            if flag("--disasm") {
                let compiled = vm::compile(&fl.prog).map_err(|e| Fail(e.to_string()))?;
                print!("{}", vm::disasm(&compiled));
                return Ok(());
            }
            let spec = exec_spec(rest)?;
            let (vals, mut cfg) = spec.resolve(&fl.thresholds, None).map_err(Fail)?;
            let worker_trace = option_values(rest, "--worker-trace").next();
            let sample_log = option_values(rest, "--sample-log").next();
            let exec_report = flag("--exec-report");
            cfg.worker_trace = worker_trace.is_some();
            cfg.telemetry =
                exec_report || sample_log.is_some() || exec::telemetry_requested_by_env();
            let reps = parse_opt_num(rest, "--reps", 1usize)?;
            let (rep, m) = match backend {
                "vm" => vm::measure(&fl.prog, &vals, &cfg, reps, reps.min(1)),
                _ => exec::measure(&fl.prog, &vals, &cfg, reps, reps.min(1)),
            }
            .map_err(|e| Fail(e.to_string()))?;
            println!("backend:       {backend} ({} threads)", rep.threads);
            println!(
                "runtime:       {:.1} µs (median of {} run(s))",
                m.median_nanos / 1_000.0,
                m.runs.len()
            );
            if m.runs.len() > 1 {
                println!(
                    "spread:        {:.1}–{:.1} µs (mean {:.1} ± {:.1})",
                    m.min_nanos / 1_000.0,
                    m.max_nanos / 1_000.0,
                    m.mean_nanos / 1_000.0,
                    m.stddev_nanos / 1_000.0
                );
            }
            println!("kernels:       {}", rep.launches.len());
            print!("version path: ");
            for c in &rep.path {
                print!(" {}({})={}", fl.thresholds.info(c.id).name, c.par, c.taken);
            }
            println!();
            print_shapes(&rep.values);
            let dev = exec::host_device(rep.threads);
            let kernels = exec::kernel_launches(&rep);
            if flag("--profile") {
                println!();
                print!("{}", gpu::profile_table(&kernels, &dev));
            }
            if flag("--attr") {
                let tree = gpu::build_attr(&kernels, &fl.prog.prov);
                println!();
                print!("{}", gpu::render_attr_table(&tree, &dev));
            }
            if let Some(path) = option_values(rest, "--trace").next() {
                // Synthetic-device convention: 1 cycle = 1 ns, so this
                // trace shows kernel wall times on a single track. For
                // real per-worker timelines use --worker-trace.
                let events = gpu::trace_events(&kernels, &dev);
                obs::chrome::write_trace(std::path::Path::new(path), &events)
                    .map_err(|e| Fail(format!("{path}: {e}")))?;
                if !quiet {
                    eprintln!("wrote {path} ({} trace events)", events.len());
                }
            }
            if exec_report {
                println!();
                print!("{}", exec::render_exec_report(&rep));
            }
            if let Some(path) = worker_trace {
                let events = exec::worker_trace_events(&rep);
                obs::chrome::write_trace(std::path::Path::new(path), &events)
                    .map_err(|e| Fail(format!("{path}: {e}")))?;
                if !quiet {
                    eprintln!("wrote {path} ({} worker-trace events)", events.len());
                }
            }
            if let Some(path) = sample_log {
                exec::append_sample_log(std::path::Path::new(path), &rep, entry)
                    .map_err(|e| Fail(format!("{path}: {e}")))?;
                if !quiet {
                    eprintln!("appended {} sample(s) to {path}", rep.launches.len());
                }
            }
            if let Some(path) = archive_path(rest) {
                let build = if backend == "vm" { perf::from_vm } else { perf::from_exec };
                let (args, wall, prov) = (&spec.args, m.median_nanos, &fl.prog.prov);
                let mut rec = build(entry, Some(file), &src, args, &rep, wall, reps, prov);
                rec.tuning_hash = spec.tuning.as_deref().map(perf::content_hash);
                archive_append(path, &mut rec, quiet)?;
            }
            Ok(())
        }
        "tune" => {
            let backend = option_values(rest, "--backend").next().unwrap_or("sim");
            let threads: Option<usize> = opt_num(rest, "--threads")?;
            let dev = match backend {
                "sim" => parse_device(rest).map_err(Usage)?,
                "exec" | "vm" => {
                    exec::host_device(threads.unwrap_or_else(exec::default_threads))
                }
                other => {
                    return Err(Usage(format!(
                        "unknown --backend {other} (expected sim, exec, or vm)"
                    )))
                }
            };
            let mut datasets = Vec::new();
            for (i, spec) in option_values(rest, "--dataset").enumerate() {
                let vals = spec.split(',').map(str::parse).collect::<Result<_, _>>();
                datasets.push(tuning::Dataset::new(format!("d{i}"), vals.map_err(Usage)?));
            }
            if datasets.is_empty() {
                return Err(Usage("tune needs at least one --dataset".into()));
            }
            let seed = parse_opt_num(rest, "--data-seed", serve::client::DEFAULT_DATA_SEED)?;
            let reps = parse_opt_num(rest, "--reps", 3usize)?;
            // Measured backends price each evaluation by wall clock over
            // a program compiled once, here.
            let compiled = match backend {
                "vm" => Some(vm::compile(&fl.prog).map_err(|e| Fail(e.to_string()))?),
                _ => None,
            };
            let mut problem = tuning::TuningProblem::new(&fl, datasets, dev);
            if let Some(compiled) = &compiled {
                let run = move |a: &_, c: &_| vm::run_compiled(compiled, a, c);
                problem = problem.with_runner(perf::tuning_runner(run, seed, threads, reps));
            } else if backend == "exec" {
                let run = |a: &_, c: &_| exec::run_program(&fl.prog, a, c);
                problem = problem.with_runner(perf::tuning_runner(run, seed, threads, reps));
            }
            let result = if flag("--exhaustive") {
                tuning::exhaustive_tune(&problem, 1 << 20)
            } else {
                tuning::StochasticTuner::default().run(&problem)
            }
            .map_err(|e| Fail(e.to_string()))?;
            println!(
                "tuned in {} candidates ({} simulations, {} cache hits):",
                result.candidates, result.simulations, result.cache_hits
            );
            let mut ts: Vec<_> = result.thresholds.iter().collect();
            ts.sort();
            for (id, v) in ts {
                println!("  {} = {v}", fl.thresholds.info(id).name);
            }
            for (d, rt) in problem.datasets.iter().zip(&result.per_dataset) {
                println!("  {}: {:.1} µs", d.name, problem.device.cycles_to_us(*rt));
            }
            if flag("--coverage") {
                let cov = tuning::path_coverage(&problem, &result.thresholds, &result)
                    .map_err(|e| Fail(e.to_string()))?;
                println!();
                print!("{}", tuning::render_coverage(&cov));
            }
            if let Some(path) = option_values(rest, "--out").next() {
                let text = compiler::write_tuning(&fl.thresholds, &result.thresholds);
                std::fs::write(path, text).map_err(|e| Fail(format!("{path}: {e}")))?;
                println!("wrote {path}");
            }
            if let Some(path) = option_values(rest, "--trace").next() {
                use std::io::Write as _;
                let mut f = std::fs::File::create(path)
                    .map_err(|e| Fail(format!("{path}: {e}")))?;
                for ev in &result.events {
                    let line = obs::json::to_string(&ev.to_json())
                        .map_err(|e| Fail(format!("{path}: {e}")))?;
                    writeln!(f, "{line}").map_err(|e| Fail(format!("{path}: {e}")))?;
                }
                if !quiet {
                    eprintln!("wrote {path} ({} evaluation events)", result.events.len());
                }
            }
            if let Some(path) = archive_path(rest) {
                let name = |id| fl.thresholds.info(id).name.clone();
                let mut named: Vec<(String, i64)> =
                    result.thresholds.iter().map(|(id, v)| (name(id), v)).collect();
                named.sort();
                let specs: Vec<String> =
                    option_values(rest, "--dataset").map(str::to_string).collect();
                let (total, dev) = (result.per_dataset.iter().sum(), problem.device.name);
                let mut rec =
                    perf::from_tune(entry, Some(file), &src, &specs, backend, dev, total, named);
                archive_append(path, &mut rec, quiet)?;
            }
            Ok(())
        }
        _ => unreachable!("command validated above"),
    }
}

/// Compile `src` through the compile driver. With `verify`, the
/// verifier observes every pass of `verify_pipeline`'s sweep and of
/// `cfg`, and its report comes back too.
fn compile(
    file: &str,
    src: &str,
    entry: &str,
    cfg: &FlattenConfig,
    verify: bool,
) -> Result<(compiler::Flattened, Option<verify::LintReport>), CliError> {
    let out = if verify {
        verify::verify_compile(src, entry, cfg).map(|(fl, report)| (fl, Some(report)))
    } else {
        compiler::driver::compile(src, entry, cfg, &mut |_| {}).map(|fl| (fl, None))
    };
    out.map_err(|e| compile_error(file, e))
}

/// The driver's failures as CLI errors: parse (exit 2) and type (exit
/// 3) errors name the file, a flattening failure exits 1.
fn compile_error(file: &str, e: compiler::driver::CompileError) -> CliError {
    use compiler::driver::CompileError as E;
    match e {
        E::Parse(e) => Parse(format!("{file}: {e}")),
        E::Type(e) => Type(format!("{file}: {e}")),
        E::Flatten(e) => Fail(e.to_string()),
    }
}

/// One `result i:` line per value: its shape, or `scalar`.
fn print_shapes(values: &[ir::Value]) {
    for (i, v) in values.iter().enumerate() {
        let dims: String = v.shape().iter().map(|d| format!("[{d}]")).collect();
        println!("result {i}:      {}", if dims.is_empty() { "scalar" } else { &dims });
    }
}

/// `--verify`: every diagnostic to stderr; error diagnostics exit 4.
fn print_lint(report: &verify::LintReport) -> Result<(), CliError> {
    for (stage, d) in report.iter() {
        eprintln!("{}", d.render(stage));
    }
    match report.error_count() {
        0 => Ok(()),
        errors => Err(Lint(errors)),
    }
}

/// `flatc bench`: measure the built-in suite on the simulator;
/// `--write` records the baseline, `--check` gates on it.
fn run_bench(rest: &[String], quiet: bool) -> Result<(), CliError> {
    if let Some(backend) = option_values(rest, "--backend").find(|b| *b != "sim") {
        return Err(Usage(format!(
            "bench --backend {backend}: bench measures simulated cycles only; \
             host wall-clock timing is the ledger's (`ledger --workload kernels`)"
        )));
    }
    let path = option_values(rest, "--baseline")
        .next()
        .unwrap_or("results/baseline/baseline.json");
    let tolerance = parse_opt_num(rest, "--tolerance", 2.0f64)?;
    let dev = parse_device(rest).map_err(Usage)?;
    if !quiet {
        eprintln!("measuring benchmark suite on {}...", dev.name);
    }
    let current = bench::measure_suite(&dev);
    if let Some(apath) = archive_path(rest) {
        archive_append(apath, &mut current.to_record(dev.name), quiet)?;
    }
    if rest.iter().any(|a| a == "--write") {
        let p = std::path::Path::new(path);
        bench::Baseline::write(&current, p).map_err(|e| Fail(format!("{path}: {e}")))?;
        println!("wrote {} ({} entries)", path, current.entries.len());
        return Ok(());
    }
    if rest.iter().any(|a| a == "--check") {
        let base = bench::Baseline::load(std::path::Path::new(path))
            .map_err(|e| Fail(format!("{path}: {e} (run `flatc bench --write` first)")))?;
        let cmp = bench::compare(&base, &current, tolerance);
        print!("{}", bench::render_comparison(&cmp, tolerance));
        if cmp.failed() {
            return Err(Fail("benchmark regression gate failed".into()));
        }
        return Ok(());
    }
    // No mode flag: just print the measurements.
    for e in &current.entries {
        println!(
            "{:<40} {:>14.0} cycles {:>10.1} µs {:>5} kernels",
            e.key, e.cycles, e.microseconds, e.kernels
        );
    }
    Ok(())
}

/// `flatc fuzz`: differential fuzzing of version equivalence. First
/// replays the committed corpus (`--corpus`, default `tests/corpus`),
/// then runs a fresh campaign; shrunk failures land in `--failures`.
fn run_fuzz(rest: &[String], quiet: bool) -> Result<(), CliError> {
    let iters = parse_opt_num(rest, "--iters", 200usize)?;
    let seed = parse_opt_num(rest, "--seed", 0u64)?;
    let max_failures = parse_opt_num(rest, "--max-failures", 5usize)?;
    let corpus_dir = option_values(rest, "--corpus").next().unwrap_or("tests/corpus");
    let failures_dir = option_values(rest, "--failures").next().map(std::path::PathBuf::from);

    // Corpus replay: every previously shrunk failure must stay fixed.
    let replays = fuzz::replay_corpus(std::path::Path::new(corpus_dir))
        .map_err(|e| Fail(format!("{corpus_dir}: {e}")))?;
    let mut corpus_failed = 0;
    for (name, outcome) in &replays {
        if let Err(f) = outcome {
            corpus_failed += 1;
            eprintln!("corpus {name}: FAILED {f}");
        }
    }
    if !quiet && !replays.is_empty() {
        eprintln!(
            "corpus: {}/{} cases pass ({corpus_dir})",
            replays.len() - corpus_failed,
            replays.len()
        );
    }

    // Fresh campaign.
    let cfg = fuzz::FuzzConfig {
        iters,
        seed,
        failures_dir,
        max_failures,
        ..fuzz::FuzzConfig::default()
    };
    // The verifier, executor and bytecode-VM legs are on by default
    // (--verify says so explicitly); --no-verify, --no-exec and --no-vm
    // drop each one, down to the four value-equivalence legs.
    let mut oracle = fuzz::oracle::Oracle::new();
    oracle.verify = !rest.iter().any(|a| a == "--no-verify");
    oracle.exec = !rest.iter().any(|a| a == "--no-exec");
    oracle.vm = !rest.iter().any(|a| a == "--no-vm");
    let summary = fuzz::run_campaign_with(&cfg, &oracle, |i| {
        if !quiet && i > 0 && i % 100 == 0 {
            eprintln!("... {i}/{iters}");
        }
    });

    println!(
        "fuzz: {} iters, {} passed, {} failures (seed {seed})",
        summary.iters,
        summary.passed,
        summary.failures.len()
    );
    println!(
        "      {} forced versions checked; {} programs exercised multiple \
         threshold paths (max {} distinct)",
        summary.versions_checked, summary.multipath_programs, summary.best_distinct_paths
    );
    for f in &summary.failures {
        eprintln!("-- iter {} failed at stage `{}`: {}", f.iter, f.stage, f.detail);
        eprintln!("{}", f.case.source);
    }
    if corpus_failed > 0 {
        return Err(Fail(format!("{corpus_failed} corpus case(s) regressed")));
    }
    if !summary.ok() {
        let hint = match &cfg.failures_dir {
            Some(d) => format!(" (shrunk cases written to {})", d.display()),
            None => " (rerun with --failures DIR to persist shrunk cases)".into(),
        };
        return Err(Fail(format!("{} fuzz failure(s){hint}", summary.failures.len())));
    }
    if summary.multipath_programs == 0 && iters >= 50 {
        return Err(Fail(
            "no generated program exercised multiple threshold paths — \
             the oracle is not covering the branching tree"
                .into(),
        ));
    }
    Ok(())
}

/// `flatc perf`: the run archive and its consumers — `log` lists
/// archived runs, `diff` aligns two runs' kernel attributions, and
/// `regret` re-executes a program down every version path to price the
/// live run's threshold decisions.
fn run_perf(rest: &[String], quiet: bool) -> Result<(), CliError> {
    let (sub, rest) =
        rest.split_first().ok_or(Usage("perf needs a subcommand: log, diff, or regret".into()))?;
    match sub.as_str() {
        "log" => {
            let (path, records) = load_archive(rest)?;
            let limit = parse_opt_num(rest, "--limit", records.len())?;
            let shown = &records[records.len().saturating_sub(limit)..];
            if shown.is_empty() {
                println!("archive {path} is empty");
            } else {
                print!("{}", perf::render_log(shown));
            }
            Ok(())
        }
        "diff" => {
            let (sel_a, rest2) =
                rest.split_first().ok_or(Usage("perf diff needs two run selectors".into()))?;
            let (sel_b, _) =
                rest2.split_first().ok_or(Usage("perf diff needs two run selectors".into()))?;
            let (_, records) = load_archive(rest)?;
            let a = perf::resolve(&records, sel_a).map_err(Fail)?;
            let b = perf::resolve(&records, sel_b).map_err(Fail)?;
            // diff_records reconciles internally: a returned diff is
            // already proven to replay both sides' totals bitwise.
            let diff = perf::diff_records(a, b).map_err(Fail)?;
            print!("{}", perf::render_diff(&diff, a, b));
            if let Some(out) = option_values(rest, "--folded").next() {
                let folded = perf::folded_diff(&diff);
                std::fs::write(out, &folded).map_err(|e| Fail(format!("{out}: {e}")))?;
                if !quiet {
                    eprintln!(
                        "wrote {out} ({} two-column folded stacks for difffolded tooling)",
                        folded.lines().count()
                    );
                }
            }
            Ok(())
        }
        "regret" => {
            let (file, rest2) =
                rest.split_first().ok_or(Usage("perf regret needs a source file".into()))?;
            let (entry, _) =
                rest2.split_first().ok_or(Usage("perf regret needs an entry point".into()))?;
            let src = std::fs::read_to_string(file).map_err(|e| Fail(format!("{file}: {e}")))?;
            let (fl, _) = compile(file, &src, entry, &FlattenConfig::incremental(), false)?;
            let (vals, run) = exec_spec(rest)?.resolve(&fl.thresholds, None).map_err(Fail)?;
            let cfg = perf::RegretConfig {
                thresholds: run.thresholds,
                threads: run.threads,
                grain: run.grain,
                reps: parse_opt_num(rest, "--reps", 3usize)?,
                warmup: parse_opt_num(rest, "--warmup", 1usize)?,
                cap: parse_opt_num(rest, "--cap", 64usize)?,
            };
            if !quiet {
                eprintln!("measuring the live path and up to {} forced alternatives...", cfg.cap);
            }
            let compiled = vm::compile(&fl.prog).map_err(|e| Fail(e.to_string()))?;
            let cost = perf::wall_clock(&compiled, &vals, &cfg);
            let report = perf::profile_regret(&fl.thresholds, entry, &vals, &cfg, &cost)
                .map_err(Fail)?;
            print!("{}", perf::render_regret(&report));
            if let Some(out) = option_values(rest, "--sample-log").next() {
                perf::append_regret_samples(std::path::Path::new(out), &report)
                    .map_err(|e| Fail(format!("{out}: {e}")))?;
                if !quiet {
                    eprintln!(
                        "appended {} what-if sample(s) to {out} (autotune warm-start format)",
                        report.alternatives.len()
                    );
                }
            }
            Ok(())
        }
        other => Err(Usage(format!("unknown perf subcommand `{other}` (log, diff, regret)"))),
    }
}

/// `--archive` with an optional FILE value: present without a value (or
/// followed by another flag) means the default archive location.
fn archive_path(args: &[String]) -> Option<&str> {
    args.iter()
        .position(|a| a == "--archive")
        .map(|i| match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => v.as_str(),
            _ => perf::DEFAULT_ARCHIVE,
        })
}

/// The archive `perf log|diff` read: `--archive FILE` (explicit, since a
/// bare `--archive` would swallow a selector) or the default location.
fn load_archive(rest: &[String]) -> Result<(&str, Vec<perf::RunRecord>), CliError> {
    let path = option_values(rest, "--archive").next().unwrap_or(perf::DEFAULT_ARCHIVE);
    let (records, warnings) = perf::load_archive(std::path::Path::new(path))
        .map_err(|e| Fail(format!("{e} (archive runs with --archive first)")))?;
    for w in &warnings {
        eprintln!("warning: {path}: {w}");
    }
    Ok((path, records))
}

/// The verbatim `--arg` specs of a run, for the archive record.
fn arg_specs(args: &[String]) -> Vec<String> {
    option_values(args, "--arg").map(str::to_string).collect()
}

/// Append a finished record to the archive at `path`.
fn archive_append(path: &str, rec: &mut perf::RunRecord, quiet: bool) -> Result<(), CliError> {
    let id = perf::append_record(std::path::Path::new(path), rec)
        .map_err(|e| Fail(format!("{path}: {e}")))?;
    if !quiet {
        eprintln!("archived run {id} -> {path}");
    }
    Ok(())
}

/// The run request `--arg`, `--data-seed`, `--threads`, `--grain`,
/// `--tuning`, `--threshold NAME=V` and `--deadline-ms` describe: the
/// [`serve::ExecSpec`] a daemon resolves, so local and served runs of
/// the same flags mean the same thing.
fn exec_spec(rest: &[String]) -> Result<serve::ExecSpec, CliError> {
    let tuning = match option_values(rest, "--tuning").next() {
        None => None,
        Some(path) => {
            Some(std::fs::read_to_string(path).map_err(|e| Fail(format!("{path}: {e}")))?)
        }
    };
    let thresholds = option_values(rest, "--threshold")
        .map(|spec| {
            let (name, v) =
                spec.split_once('=').ok_or_else(|| Usage(format!("bad --threshold {spec}")))?;
            Ok((name.to_string(), v.parse().map_err(|e| Usage(format!("{spec}: {e}")))?))
        })
        .collect::<Result<_, CliError>>()?;
    Ok(serve::ExecSpec {
        args: arg_specs(rest),
        data_seed: Some(parse_opt_num(rest, "--data-seed", serve::client::DEFAULT_DATA_SEED)?),
        threads: opt_num(rest, "--threads")?,
        grain: opt_num(rest, "--grain")?,
        tuning,
        thresholds,
        deadline_ms: opt_num(rest, "--deadline-ms")?,
        ..serve::ExecSpec::default()
    })
}

/// `--flag N`, if given, for any parseable number type.
fn opt_num<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    let parse = |s: &str| s.parse().map_err(|e| Usage(format!("bad {flag} {s}: {e}")));
    option_values(args, flag).next().map(parse).transpose()
}

/// `--flag N` with a default.
fn parse_opt_num<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    Ok(opt_num(args, flag)?.unwrap_or(default))
}

fn option_values<'a>(args: &'a [String], flag: &'a str) -> impl Iterator<Item = &'a str> {
    args.windows(2)
        .filter(move |w| w[0] == flag)
        .map(|w| w[1].as_str())
}

fn parse_device(args: &[String]) -> Result<gpu::DeviceSpec, String> {
    match option_values(args, "--device").next() {
        None | Some("k40") => Ok(gpu::DeviceSpec::k40()),
        Some("vega64") => Ok(gpu::DeviceSpec::vega64()),
        Some(other) => Err(format!("unknown device `{other}` (k40 or vega64)")),
    }
}

/// `flatc serve`: run the flatd daemon in the foreground. Prints the
/// bound address on stdout (useful with port 0) and runs until a
/// client sends `shutdown`.
fn run_serve(rest: &[String], quiet: bool) -> Result<(), CliError> {
    let mut cfg = serve::ServerConfig { quiet, ..serve::ServerConfig::default() };
    cfg.addr = option_values(rest, "--addr")
        .next()
        .unwrap_or("127.0.0.1:7155")
        .to_string();
    cfg.workers = parse_opt_num(rest, "--workers", cfg.workers)?;
    cfg.queue = parse_opt_num(rest, "--queue", cfg.queue)?;
    cfg.batch = parse_opt_num(rest, "--batch", cfg.batch)?;
    cfg.cache_capacity = parse_opt_num(rest, "--cache", cfg.cache_capacity)?;
    cfg.threads = opt_num(rest, "--threads")?;
    cfg.default_deadline_ms = opt_num(rest, "--deadline-ms")?;
    let handle = serve::start(cfg).map_err(|e| Fail(format!("flatd: {e}")))?;
    // Scripts capture the bound address from the first stdout line.
    println!("{}", handle.addr());
    handle.join();
    Ok(())
}

/// Shared by `remote` subcommands: connect to `--connect ADDR`.
fn remote_client(rest: &[String]) -> Result<serve::Client, CliError> {
    let addr = option_values(rest, "--connect")
        .next()
        .ok_or(Usage("remote commands need --connect HOST:PORT".into()))?;
    serve::Client::connect(addr).map_err(|e| Fail(format!("{addr}: {e}")))
}

/// Map a structured daemon error onto the local exit-code taxonomy, so
/// `flatc remote exec` fails exactly like `flatc exec` would.
fn remote_error(e: serve::ClientError) -> CliError {
    match e {
        serve::ClientError::Service(err) => match err.code.as_str() {
            "parse" => Parse(err.message),
            "type" => Type(err.message),
            "lint" => Lint(err.message.split_whitespace().next()
                .and_then(|n| n.parse().ok())
                .unwrap_or(1)),
            _ => Fail(format!("daemon: [{}] {}", err.code, err.message)),
        },
        other => Fail(other.to_string()),
    }
}

/// `flatc remote`: drive a running daemon.
fn run_remote(rest: &[String], quiet: bool) -> Result<(), CliError> {
    let (sub, rest) = rest.split_first().ok_or(Usage("remote needs a subcommand".into()))?;
    match sub.as_str() {
        "status" => {
            let mut client = remote_client(rest)?;
            let status = client.status().map_err(remote_error)?;
            let text = obs::json::to_string_pretty(&status)
                .map_err(|e| Fail(e.to_string()))?;
            println!("{text}");
            Ok(())
        }
        "shutdown" => {
            let mut client = remote_client(rest)?;
            let reply = client.shutdown().map_err(remote_error)?;
            if !quiet {
                let text = obs::json::to_string(&reply).map_err(|e| Fail(e.to_string()))?;
                eprintln!("daemon drained ({text})");
            }
            Ok(())
        }
        "compile" => {
            let (file, rest) = rest.split_first().ok_or(Usage("missing source file".into()))?;
            let (entry, rest) = rest.split_first().ok_or(Usage("missing entry point".into()))?;
            let src =
                std::fs::read_to_string(file).map_err(|e| Fail(format!("{file}: {e}")))?;
            let mut client = remote_client(rest)?;
            let lint = rest.iter().any(|a| a == "--lint");
            let reply = client.compile(&src, entry, lint).map_err(remote_error)?;
            println!(
                "{entry}: program {} ({}, {} threshold(s), compile {} µs)",
                reply.program,
                if reply.cached { "cached" } else { "compiled" },
                reply.thresholds.len(),
                reply.compile_micros
            );
            Ok(())
        }
        "exec" => run_remote_exec(rest, quiet),
        other => Err(Usage(format!("unknown remote subcommand `{other}`"))),
    }
}

/// `flatc remote exec`: run a program on the daemon. `--check-local`
/// reruns it locally on the vm backend and verifies the remote results
/// are bitwise identical.
fn run_remote_exec(rest: &[String], quiet: bool) -> Result<(), CliError> {
    let (file, rest) = rest.split_first().ok_or(Usage("missing source file".into()))?;
    let (entry, rest) = rest.split_first().ok_or(Usage("missing entry point".into()))?;
    let src = std::fs::read_to_string(file).map_err(|e| Fail(format!("{file}: {e}")))?;
    let mut client = remote_client(rest)?;

    let spec = exec_spec(rest)?;
    let request =
        serve::ExecSpec { source: Some(src.clone()), entry: entry.into(), ..spec.clone() };
    let reply = client.exec(&serve::client::exec_request(request)).map_err(remote_error)?;

    println!(
        "remote:        {} ({} threads, {})",
        reply.program,
        reply.threads,
        if reply.cached { "cache hit" } else { "cold compile" }
    );
    println!("runtime:       {:.1} µs (on the daemon)", reply.wall_nanos / 1_000.0);
    println!("kernels:       {}", reply.kernels);
    print_shapes(&reply.values);

    if rest.iter().any(|a| a == "--check-local") {
        // Re-run locally with identical inputs on the vm backend and
        // require bitwise-identical results.
        let (fl, _) = compile(file, &src, entry, &FlattenConfig::incremental(), false)?;
        let (vals, cfg) = spec.resolve(&fl.thresholds, None).map_err(Fail)?;
        let compiled = vm::compile(&fl.prog).map_err(|e| Fail(e.to_string()))?;
        let local = vm::run_compiled(&compiled, &vals, &cfg).map_err(|e| Fail(e.to_string()))?;
        if local.values.len() != reply.values.len() {
            return Err(Fail(format!(
                "check-local: remote returned {} value(s), local {}",
                reply.values.len(),
                local.values.len()
            )));
        }
        for (i, (r, l)) in reply.values.iter().zip(&local.values).enumerate() {
            if !serve::proto::bitwise_eq(r, l) {
                return Err(Fail(format!(
                    "check-local: result {i} differs bitwise from the local vm run"
                )));
            }
        }
        if !quiet {
            eprintln!(
                "check-local: {} value(s) bitwise identical to the local vm backend",
                reply.values.len()
            );
        }
    }
    Ok(())
}
