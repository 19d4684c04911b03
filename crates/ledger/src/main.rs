//! `ledger`: run one workload of the benchmark, all four, or compare two
//! result sets. See the crate README.

use flat_ledger::{check_declared, compare, hygiene, manifest, refusal, Options, Outcome};
use flat_obs::json::Value as Json;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  ledger --workload <compile|kernels|serve-hit|serve-bulk> --seed <u64>
         [--seconds <n>] [--trace <0|1>] [--smoke]
      one workload in this process; without --trace, the untraced pass
      then the traced pass. The last line of output is the result object.
  ledger --all [--seed <u64>] [--runs <n>] [--seconds <n>] [--trace <0|1>]
         [--out <file>] [--smoke]
      every workload, --runs times with seeds seed, seed+1, ..., each run in
      its own process; the runs are written as a result set
  ledger --compare <A.json> <B.json>
      judge result set B against A; exits 1 if any metric is worse
  ledger --manifest
      print BENCHMARK.json";

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    all: bool,
    runs: u64,
    out: Option<String>,
    compare: Option<(String, String)>,
    manifest: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        runs: 1,
        ..Cli::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |s: &String| s.parse::<f64>().map_err(|e| format!("{flag} {s}: {e}"));
        let whole = |s: &String| s.parse::<u64>().map_err(|e| format!("{flag} {s}: {e}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = whole(value()?)?,
            "--seconds" => cli.seconds = Some(number(value()?)?),
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--smoke" => cli.smoke = true,
            "--all" => cli.all = true,
            "--runs" => cli.runs = whole(value()?)?.max(1),
            "--out" => cli.out = Some(value()?.clone()),
            "--compare" => cli.compare = Some((value()?.clone(), value()?.clone())),
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn seconds(cli: &Cli) -> f64 {
    cli.seconds.unwrap_or(if cli.smoke {
        0.2
    } else {
        manifest::RUN_SECONDS as f64
    })
}

fn print_outcome(outcome: &Outcome) {
    for r in outcome.readings.iter().chain(&outcome.extras) {
        println!("{}", r.line());
    }
    for note in &outcome.notes {
        eprintln!("ledger: {note}");
    }
}

/// One workload in this process.
fn run_one(cli: &Cli, workload: &str, started: Instant) -> Result<(), String> {
    let opts = Options {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: seconds(cli),
        smoke: cli.smoke,
    };
    if manifest::workload(workload).is_none() {
        return Err(format!("unknown workload `{workload}`"));
    }
    if let Some(why) = refusal(cli.smoke) {
        return Err(why);
    }
    for (key, value) in hygiene(&opts) {
        println!("# {key}: {value}");
    }
    let mut combined = Outcome::default();
    if cli.trace != Some(true) {
        let outcome = flat_ledger::run_untraced(&opts, started)?;
        check_declared(&outcome, &manifest::END_TO_END)?;
        print_outcome(&outcome);
        merge(&mut combined, outcome);
    }
    if cli.trace != Some(false) {
        let outcome = flat_ledger::run_traced(&opts, &flat_ledger::target_dir().join("ledger"))?;
        check_declared(&outcome, &manifest::PER_LAYER)?;
        print_outcome(&outcome);
        merge(&mut combined, outcome);
    }
    println!(
        "# attempted: {} failed: {}",
        combined.attempted, combined.failed
    );
    println!("{}", combined.result_json());
    Ok(())
}

fn merge(into: &mut Outcome, from: Outcome) {
    into.readings.extend(from.readings);
    into.attempted += from.attempted;
    into.failed += from.failed;
}

/// Every workload, each run a process of its own so that set-up time and
/// peak memory are per workload.
fn run_all(cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut runs = Vec::new();
    for w in &manifest::WORKLOADS {
        for seed in cli.seed..cli.seed + cli.runs {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &seed.to_string()]);
            cmd.args(["--seconds", &seconds(cli).to_string()]);
            if cli.smoke {
                cmd.arg("--smoke");
            }
            if let Some(traced) = cli.trace {
                cmd.args(["--trace", if traced { "1" } else { "0" }]);
            }
            let output = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            if !output.status.success() {
                return Err(format!(
                    "{} seed {seed}: exited with {}",
                    w.name, output.status
                ));
            }
            let last = stdout.lines().last().unwrap_or("");
            let mut run = flat_obs::json::from_str(last)
                .map_err(|e| format!("{} seed {seed}: no result object: {e:?}", w.name))?;
            run.insert("workload", Json::from(w.name));
            run.insert("seed", Json::from(seed));
            runs.push(run);
        }
    }
    let opts = Options {
        workload: "all".to_string(),
        seed: cli.seed,
        seconds: seconds(cli),
        smoke: cli.smoke,
    };
    let conditions = hygiene(&opts)
        .into_iter()
        .map(|(k, v)| (k.to_string(), Json::from(v)))
        .collect();
    let doc = Json::object(vec![
        ("conditions", Json::Object(conditions)),
        ("runs", Json::Array(runs)),
    ]);
    let out = cli.out.as_ref().map_or_else(
        || {
            flat_ledger::target_dir()
                .join("ledger")
                .join("results.json")
        },
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = flat_obs::json::to_string_pretty(&doc).map_err(|e| format!("{e:?}"))?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("ledger: result set written to {}", out.display());
    Ok(())
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| compare::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(worse)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if cli.manifest {
        print!("{}", manifest::benchmark_json());
        Ok(false)
    } else if let Some((a, b)) = &cli.compare {
        run_compare(a, b)
    } else if cli.all {
        run_all(&cli).map(|()| false)
    } else if let Some(workload) = &cli.workload {
        run_one(&cli, workload, started).map(|()| false)
    } else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(1)
        }
    }
}
