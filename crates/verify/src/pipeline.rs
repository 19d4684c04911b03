//! The inter-pass verification pipeline behind `flatc lint` and
//! `--verify`: the compile driver ([`incflat::driver`]) with the
//! verifier as its observer, so the IR is verified after *every* pass —
//! elaboration, fusion, flattening (both modes) and simplification —
//! of the pipeline the product runs.

use crate::diag::Diagnostic;
use flat_ir::ast::Program;
use incflat::driver::{self, Pass};
use incflat::{FlattenConfig, Flattened};

/// Why the pipeline itself (not the verifier) stopped: the driver's
/// error. The CLI maps these to distinct exit codes.
pub use incflat::driver::CompileError as PipelineError;

/// Diagnostics from verifying the output of one pass.
#[derive(Debug)]
pub struct StageReport {
    pub stage: String,
    pub diags: Vec<Diagnostic>,
}

#[derive(Debug, Default)]
pub struct LintReport {
    pub stages: Vec<StageReport>,
}

impl LintReport {
    pub fn total(&self) -> usize {
        self.stages.iter().map(|s| s.diags.len()).sum()
    }

    pub fn error_count(&self) -> usize {
        self.iter().filter(|(_, d)| d.is_error()).count()
    }

    /// All diagnostics with the stage that produced them.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Diagnostic)> {
        self.stages
            .iter()
            .flat_map(|s| s.diags.iter().map(move |d| (s.stage.as_str(), d)))
    }

    /// The verifying observer: verify the IR the driver hands over and
    /// record its diagnostics under the pass's stage label.
    pub fn observe(&mut self, pass: Pass<'_>) {
        let span = flat_obs::span("verify", &format!("verify.{}", pass.name));
        let _span = match pass.mode {
            Some(mode) => span.arg("mode", flat_obs::json::Value::from(mode)),
            None => span,
        };
        let diags = crate::verify_ir(pass.prog, pass.thresholds);
        self.stages.push(StageReport { stage: pass.stage(), diags });
    }
}

/// Compile `src` and verify after each pass. `Err` means the pipeline
/// could not run to completion; `Ok` carries all diagnostics found
/// (possibly none).
pub fn verify_pipeline(src: &str, entry: &str) -> Result<LintReport, PipelineError> {
    let mut report = LintReport::default();
    let prog = driver::frontend(src, entry, &mut |p| report.observe(p))?;
    sweep(&prog, &mut report)?;
    Ok(report)
}

/// [`verify_pipeline`], flattening `cfg` from the same frontend first:
/// observed too unless the sweep verifies its stages anyway
/// (`simplify: false` is the sweep's raw stage).
pub fn verify_compile(
    src: &str,
    entry: &str,
    cfg: &FlattenConfig,
) -> Result<(Flattened, LintReport), PipelineError> {
    let mut report = LintReport::default();
    let prog = driver::frontend(src, entry, &mut |p| report.observe(p))?;
    let new = !swept().contains(&FlattenConfig { simplify: true, ..cfg.clone() });
    let fl = driver::flatten(&prog, cfg, &mut |p| if new { report.observe(p) });
    let fl = fl.map_err(PipelineError::Flatten)?;
    sweep(&prog, &mut report)?;
    Ok((fl, report))
}

/// The configurations [`verify_pipeline`] flattens.
fn swept() -> [FlattenConfig; 2] {
    [FlattenConfig::moderate(), FlattenConfig::incremental()]
}

/// Flatten `prog` under each swept configuration, the verifier observing.
fn sweep(prog: &Program, report: &mut LintReport) -> Result<(), PipelineError> {
    for cfg in swept() {
        driver::flatten(prog, &cfg, &mut |p| report.observe(p)).map_err(PipelineError::Flatten)?;
    }
    Ok(())
}
