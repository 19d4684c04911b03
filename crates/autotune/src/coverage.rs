//! Per-dataset path-coverage report: which guarded code versions
//! actually executed, joined against what the tuner explored.
//!
//! The flattener's threshold registry defines the branching tree of
//! guarded versions (Fig. 5); a simulation's kernel log records, per
//! launch, the canonical threshold path it executed under plus the
//! source provenance of the launching statement. The tuner's
//! [`EvalEvent`]s record every path signature each candidate induced per
//! dataset. Joining the three answers: *for this dataset and this
//! assignment, which versions ran, where did they come from in the
//! source, and did the tuner ever explore the path it settled on?*

use crate::events::{render_signature, EvalEvent};
use crate::problem::{TuningProblem, TuningResult};
use flat_ir::interp::{path_signature, Thresholds};
use flat_ir::prov::Prov;
use gpu_sim::{SimError, SimReport};
use incflat::ThresholdKind;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// How one registry threshold fared in an executed path.
#[derive(Clone, Debug)]
pub struct ThresholdOutcome {
    pub name: String,
    pub kind: ThresholdKind,
    /// Provenance of the source construct whose versions it guards.
    pub prov: Prov,
    /// Whether the executed path evaluated this comparison at all
    /// (thresholds on unreached branches never compare).
    pub reached: bool,
    /// The comparison outcome, when reached: `true` = parallelism was
    /// sufficient, the guarded version ran.
    pub taken: Option<bool>,
}

/// One kernel-provenance group of an executed run.
#[derive(Clone, Debug)]
pub struct KernelGroup {
    /// Outermost-first provenance frames, joined with `;`.
    pub stack: String,
    /// Canonical threshold path the kernels launched under.
    pub path: String,
    pub kernels: u64,
    pub cycles: f64,
}

/// Coverage of one dataset under one assignment.
#[derive(Clone, Debug)]
pub struct DatasetCoverage {
    pub dataset: String,
    /// The path signature the assignment executed.
    pub executed: String,
    /// Distinct signatures the tuner observed for this dataset across
    /// all candidate evaluations.
    pub explored: Vec<String>,
    pub executed_was_explored: bool,
    pub thresholds: Vec<ThresholdOutcome>,
    pub kernels: Vec<KernelGroup>,
}

/// The whole report.
#[derive(Clone, Debug)]
pub struct CoverageReport {
    pub datasets: Vec<DatasetCoverage>,
    /// Leaves of the branching tree: an upper bound on distinct paths.
    pub num_version_paths: usize,
    /// Distinct signatures explored across all datasets and candidates.
    pub distinct_explored: usize,
}

/// Coverage of one dataset from an already-computed simulation report.
pub fn dataset_coverage(
    problem: &TuningProblem,
    dataset_ix: usize,
    report: &SimReport,
    events: &[EvalEvent],
) -> DatasetCoverage {
    let sig = path_signature(&report.path);
    let executed = render_signature(&sig);
    let explored: Vec<String> = {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for ev in events {
            if let Some(s) = ev.signatures.get(dataset_ix) {
                if seen.insert(s.clone()) {
                    out.push(s.clone());
                }
            }
        }
        out
    };
    let executed_was_explored = explored.contains(&executed);

    let thresholds = problem
        .registry
        .iter()
        .map(|info| {
            let taken = report.path.iter().find(|r| r.id == info.id).map(|r| r.taken);
            ThresholdOutcome {
                name: info.name.clone(),
                kind: info.kind,
                prov: info.prov,
                reached: taken.is_some(),
                taken,
            }
        })
        .collect();

    // Group kernels by (provenance stack, launch path), preserving
    // first-launch order.
    let mut kernels: Vec<KernelGroup> = Vec::new();
    for k in &report.kernels {
        let stack = problem.prog.prov.stack(k.prov.id).join(";");
        let path = render_signature(&k.path);
        match kernels.iter_mut().find(|g| g.stack == stack && g.path == path) {
            Some(g) => {
                g.kernels += 1;
                g.cycles += k.cost.cycles;
            }
            None => kernels.push(KernelGroup {
                stack,
                path,
                kernels: 1,
                cycles: k.cost.cycles,
            }),
        }
    }

    DatasetCoverage {
        dataset: problem
            .datasets
            .get(dataset_ix)
            .map(|d| d.name.clone())
            .unwrap_or_else(|| format!("dataset {dataset_ix}")),
        executed,
        explored,
        executed_was_explored,
        thresholds,
        kernels,
    }
}

/// Simulate every dataset under `thresholds` and join against the
/// tuner's per-candidate path signatures.
pub fn path_coverage(
    problem: &TuningProblem,
    thresholds: &Thresholds,
    result: &TuningResult,
) -> Result<CoverageReport, SimError> {
    let mut datasets = Vec::with_capacity(problem.datasets.len());
    for (ix, d) in problem.datasets.iter().enumerate() {
        let report = problem.run_dataset(d, thresholds)?;
        datasets.push(dataset_coverage(problem, ix, &report, &result.events));
    }
    let distinct_explored = result
        .events
        .iter()
        .flat_map(|e| e.signatures.iter())
        .collect::<BTreeSet<_>>()
        .len();
    Ok(CoverageReport {
        datasets,
        num_version_paths: problem.registry.num_versions(),
        distinct_explored,
    })
}

/// Human-readable rendering (the `flatc tune --coverage` output).
pub fn render_coverage(report: &CoverageReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- path coverage --");
    let _ = writeln!(
        out,
        "branching tree: {} version path(s); tuner explored {} distinct signature(s)",
        report.num_version_paths, report.distinct_explored
    );
    for d in &report.datasets {
        let _ = writeln!(out, "dataset {}:", d.dataset);
        let _ = writeln!(
            out,
            "  executed path: {}{}",
            if d.executed.is_empty() { "(no comparisons)" } else { &d.executed },
            if d.executed_was_explored { "  [explored during tuning]" } else { "" },
        );
        for t in &d.thresholds {
            let kind = match t.kind {
                ThresholdKind::SuffOuter => "outer",
                ThresholdKind::SuffIntra => "intra",
            };
            let outcome = match t.taken {
                Some(true) => "sufficient -> guarded version ran",
                Some(false) => "insufficient -> fell through",
                None => "not reached",
            };
            if t.prov.is_unknown() {
                let _ = writeln!(out, "  {:<20} [{kind}] {outcome}", t.name);
            } else {
                let _ = writeln!(out, "  {:<20} [{kind}] {outcome}  (at {})", t.name, t.prov.loc);
            }
        }
        for g in &d.kernels {
            let _ = writeln!(
                out,
                "  {:>12.0} cycles  {:>4} kernel(s)  path[{}]  {}",
                g.cycles,
                g.kernels,
                if g.path.is_empty() { "-" } else { &g.path },
                if g.stack.is_empty() { "<unknown>" } else { &g.stack },
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Dataset;
    use gpu_sim::{AbsValue, DeviceSpec};
    use incflat::flatten_incremental;

    fn matmul_problem() -> (incflat::Flattened, Vec<Dataset>) {
        let src = "
def matmul [n][m][p] (xss: [n][m]f32) (yss: [m][p]f32): [n][p]f32 =
  map (\\xs -> map (\\ys -> redomap (+) (*) 0f32 xs ys) (transpose yss)) xss
";
        let prog = flat_lang::compile(src, "matmul").unwrap();
        let fl = flatten_incremental(&prog).unwrap();
        let mk = |n: i64, m: i64, p: i64| {
            vec![
                AbsValue::known(flat_ir::ast::Const::I64(n)),
                AbsValue::known(flat_ir::ast::Const::I64(m)),
                AbsValue::known(flat_ir::ast::Const::I64(p)),
                AbsValue::array(vec![n, m], flat_ir::ScalarType::F32),
                AbsValue::array(vec![m, p], flat_ir::ScalarType::F32),
            ]
        };
        let datasets = vec![
            Dataset::new("small", mk(16, 16, 16)),
            Dataset::new("large", mk(2048, 64, 64)),
        ];
        (fl, datasets)
    }

    #[test]
    fn coverage_joins_execution_against_tuning() {
        let (fl, datasets) = matmul_problem();
        let problem = TuningProblem::new(&fl, datasets, DeviceSpec::k40());
        let result = crate::tuner::exhaustive_tune(&problem, 4096).unwrap();
        let report = path_coverage(&problem, &result.thresholds, &result).unwrap();
        assert_eq!(report.datasets.len(), 2);
        assert!(report.num_version_paths >= 2);
        assert!(report.distinct_explored >= 1);
        for d in &report.datasets {
            assert!(
                d.executed_was_explored,
                "the winning assignment's path must have been explored: {d:?}"
            );
            assert!(!d.kernels.is_empty());
            // Provenance flows end to end: at least one kernel group
            // must carry a real source stack.
            assert!(d.kernels.iter().any(|g| g.stack.contains("matmul")));
        }
        let text = render_coverage(&report);
        assert!(text.contains("path coverage"));
        assert!(text.contains("dataset small"));
        assert!(text.contains("suff_outer_par_0"));
    }

    #[test]
    fn unreached_thresholds_are_reported_as_such() {
        let (fl, datasets) = matmul_problem();
        let problem = TuningProblem::new(&fl, datasets, DeviceSpec::k40());
        // Force the outermost guard to succeed: inner thresholds are
        // never compared.
        let mut t = Thresholds::new();
        for info in fl.thresholds.iter() {
            t.set(info.id, 0);
        }
        let report = problem.run_dataset(&problem.datasets[0], &t).unwrap();
        let cov = dataset_coverage(&problem, 0, &report, &[]);
        assert!(cov.thresholds.iter().any(|o| !o.reached) || cov.thresholds.len() <= 1);
        assert!(!cov.executed_was_explored, "no tuning events were supplied");
    }
}
