//! Wall-clock measurement: median of k timed repetitions after warmup.
//!
//! Medians resist scheduler noise far better than means, and the warmup
//! runs absorb one-time costs (page faults, allocator growth) so the
//! autotuner compares steady-state times.

use crate::decomp::{ExecConfig, ExecError, ExecReport};
use crate::exec::run_program;
use flat_ir::ast::Program;
use flat_ir::value::Value;

/// Timing summary of repeated runs. The median is the headline number;
/// the spread statistics (and the raw runs) capture variance so results
/// JSON records more than a point estimate.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Median wall time over the timed runs, nanoseconds. For an even
    /// count, the mean of the two middle runs.
    pub median_nanos: f64,
    /// Fastest timed run, nanoseconds.
    pub min_nanos: f64,
    /// Slowest timed run, nanoseconds.
    pub max_nanos: f64,
    /// Arithmetic mean over the timed runs, nanoseconds.
    pub mean_nanos: f64,
    /// Population standard deviation over the timed runs, nanoseconds
    /// (0 for a single run).
    pub stddev_nanos: f64,
    /// Every timed run's wall time, in execution order.
    pub runs: Vec<f64>,
}

impl Measurement {
    /// Summarize a non-empty list of per-rep wall times.
    pub fn from_runs(runs: Vec<f64>) -> Measurement {
        assert!(!runs.is_empty(), "measurement needs at least one run");
        let mut sorted = runs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
        let median_nanos = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        let n = runs.len() as f64;
        let mean_nanos = runs.iter().sum::<f64>() / n;
        let var = runs.iter().map(|r| (r - mean_nanos).powi(2)).sum::<f64>() / n;
        Measurement {
            median_nanos,
            min_nanos: sorted[0],
            max_nanos: sorted[sorted.len() - 1],
            mean_nanos,
            stddev_nanos: var.sqrt(),
            runs,
        }
    }
}

/// Call `run` `warmup` untimed times, then `reps` timed times (at least
/// one), returning the last run's report and the timing summary.
/// Results are deterministic, so repetitions differ only in timing.
/// Every wall-clock measurement in the repo goes through here; what a
/// "run" is — which tier, compiled when — is the caller's closure.
pub fn measure_with(
    mut run: impl FnMut() -> Result<ExecReport, ExecError>,
    reps: usize,
    warmup: usize,
) -> Result<(ExecReport, Measurement), ExecError> {
    for _ in 0..warmup {
        run()?;
    }
    let mut last = run()?;
    let mut runs = vec![last.wall_nanos];
    for _ in 1..reps {
        last = run()?;
        runs.push(last.wall_nanos);
    }
    Ok((last, Measurement::from_runs(runs)))
}

/// [`measure_with`] over the tree-walking tier.
pub fn measure(
    prog: &Program,
    args: &[Value],
    cfg: &ExecConfig,
    reps: usize,
    warmup: usize,
) -> Result<(ExecReport, Measurement), ExecError> {
    let _span = flat_obs::span("exec", "exec.measure");
    measure_with(|| run_program(prog, args, cfg), reps, warmup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flat_ir::ast::{Exp, SubExp};
    use flat_ir::builder::ProgramBuilder;
    use flat_ir::types::Type;

    #[test]
    fn measures_and_returns_last_report() {
        let mut pb = ProgramBuilder::new("id");
        let n = pb.size_param("n");
        let xs = pb.body.bind("xs", Type::i64().array_of(SubExp::Var(n)), Exp::Iota {
            n: SubExp::Var(n),
        });
        let out_t = Type::i64().array_of(SubExp::Var(n));
        let prog = pb.finish(vec![SubExp::Var(xs)], vec![out_t]);

        let (rep, m) = measure(
            &prog,
            &[Value::i64_(100)],
            &ExecConfig::default(),
            3,
            1,
        )
        .unwrap();
        assert_eq!(m.runs.len(), 3);
        assert!(m.median_nanos > 0.0);
        assert!(m.min_nanos <= m.median_nanos && m.median_nanos <= m.max_nanos);
        assert!(m.mean_nanos > 0.0 && m.stddev_nanos >= 0.0);
        assert_eq!(rep.values[0].shape(), vec![100]);
    }

    #[test]
    fn from_runs_computes_the_spread() {
        let m = Measurement::from_runs(vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(m.median_nanos, 5.0);
        assert_eq!(m.min_nanos, 2.0);
        assert_eq!(m.max_nanos, 8.0);
        assert_eq!(m.mean_nanos, 5.0);
        assert!((m.stddev_nanos - 5.0f64.sqrt()).abs() < 1e-9);

        let single = Measurement::from_runs(vec![7.0]);
        assert_eq!(single.median_nanos, 7.0);
        assert_eq!(single.stddev_nanos, 0.0);
    }
}
