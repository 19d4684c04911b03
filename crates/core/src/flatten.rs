//! Moderate and incremental flattening (§3 of the paper).
//!
//! The transformation implements the inference rules of Figs. 3 and 4 as
//! a recursive pass `Σ ⊢_l e ⇒ e'`:
//!
//! * **G0/G1/G2** — manifesting map nests as `segmap` when there is no
//!   inner parallelism (or we are at level 0).
//! * **G3** — the core of incremental flattening: at every map with
//!   inner parallelism, emit `e_top` (sequentialize the body), `e_middle`
//!   (body parallelism one hardware level down, in local memory), and
//!   `e_flat` (keep flattening), guarded by threshold comparisons.
//! * **G4** — interchange of a vectorized `reduce` with its inner `map`.
//! * **G5/G6** — map fission/distribution with array expansion (the
//!   `process_body` loop below, with grouping of sequential statements
//!   and hoisting of context-invariant ones).
//! * **G7** — interchanging map nests into `loop`s, expanding the
//!   loop-carried values.
//! * **G8** — distributing a context across `if` branches.
//! * **G9** — versioned treatment of `redomap` (and symmetrically
//!   `scanomap`).
//!
//! Moderate flattening (\[32\], PLDI '17) uses the same machinery but
//! replaces the guarded versions by a static heuristic: map nests are
//! distributed, perfect `reduce`/`scan` nests are parallelized, and inner
//! `redomap`s are sequentialized (enabling block tiling). The
//! `full_flattening` knob turns the heuristic into "always exploit all
//! parallelism", the paper's approximation of NESL-style full flattening
//! (§5.3).
//!
//! A note on hoisting: context-invariant statements are computed once
//! outside the map nest. As in Futhark, this may execute code that a
//! zero-width map would have skipped; the language is pure, so at worst
//! this turns a skipped division-by-zero into a raised one.

use crate::ctx::Ctx;
use crate::driver::{Observer, Pass};
use crate::rules::{Rule, RuleTrace};
use crate::thresholds::{ThresholdKind, ThresholdRegistry};
use flat_ir::ast::*;
use flat_ir::builder::BodyBuilder;
use flat_ir::free::{body_contains_soac, contains_soac, free_in_stm, lambda_contains_soac};
use flat_ir::prov::Prov;
use flat_ir::subst::{rename_body, rename_lambda};
use flat_ir::typecheck::{check_target, TypeError};
use flat_ir::types::{Param, Type};
use flat_ir::VName;
use std::collections::{HashMap, HashSet};

/// Which flattening algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlattenMode {
    /// The static heuristic of \[32\] — the paper's baseline (MF).
    Moderate,
    /// Multi-versioned incremental flattening (IF) — the contribution.
    Incremental,
}

/// Configuration of the flattening pass.
#[derive(Clone, Debug, PartialEq)]
pub struct FlattenConfig {
    pub mode: FlattenMode,
    /// Ablation (§5.3): make the moderate heuristic always exploit all
    /// parallelism, approximating full flattening.
    pub full_flattening: bool,
    /// Detect block-tiling opportunities on sequentialized-body kernels.
    pub enable_tiling: bool,
    /// Tile size used by detected block tiling.
    pub tile_size: u32,
    /// Run copy propagation and dead-code elimination on the result.
    pub simplify: bool,
}

impl FlattenConfig {
    pub fn moderate() -> FlattenConfig {
        FlattenConfig {
            mode: FlattenMode::Moderate,
            full_flattening: false,
            enable_tiling: true,
            tile_size: 16,
            simplify: true,
        }
    }

    pub fn incremental() -> FlattenConfig {
        FlattenConfig { mode: FlattenMode::Incremental, ..FlattenConfig::moderate() }
    }

    /// The full-flattening ablation of §5.3.
    pub fn full() -> FlattenConfig {
        FlattenConfig { full_flattening: true, ..FlattenConfig::moderate() }
    }
}

/// Code-size statistics (the paper reports IF ≈ 3× larger binaries and
/// ≈ 4× longer compilation, §5.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodeStats {
    /// Statements in the source program (recursively).
    pub source_stms: usize,
    /// Statements in the flattened program (recursively).
    pub target_stms: usize,
    /// Parallel constructs emitted.
    pub num_segops: usize,
    /// Threshold parameters minted.
    pub num_thresholds: usize,
    /// Leaves of the branching tree (distinct code versions).
    pub num_versions: usize,
}

/// The result of flattening: a target program, its threshold structure,
/// code statistics, and the rule-firing trace that produced it.
#[derive(Clone, Debug)]
pub struct Flattened {
    pub prog: Program,
    pub thresholds: ThresholdRegistry,
    pub stats: CodeStats,
    pub rules: RuleTrace,
}

/// A structured flattening failure. Malformed inputs that previously
/// aborted the process now surface here, so callers (in particular the
/// `flat-fuzz` differential driver) can classify them.
#[derive(Clone, Debug, PartialEq)]
pub enum FlattenError {
    /// Rule G4 requires the neutral element of a vectorized reduce to be
    /// an array variable (e.g. a `replicate`); a constant cannot be
    /// interchanged column-wise.
    G4NeutralElement { detail: String },
    /// A result atom referred to a variable with no known type: neither a
    /// pending binding, a context binding, nor a host-scope binding.
    UnknownAtomType { var: String },
    /// The flattened program failed the target-language type check.
    Type(TypeError),
}

impl std::fmt::Display for FlattenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlattenError::G4NeutralElement { detail } => {
                write!(f, "G4: neutral element of a vectorized reduce must be an array variable: {detail}")
            }
            FlattenError::UnknownAtomType { var } => {
                write!(f, "atom_elem_type: unknown type of {var}")
            }
            FlattenError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FlattenError {}

impl From<TypeError> for FlattenError {
    fn from(e: TypeError) -> FlattenError {
        FlattenError::Type(e)
    }
}

/// Flatten a source program under the given configuration. The result is
/// type-checked as a target program.
///
/// Observability: each pass (flatten → simplify → re-typecheck) records
/// a wall-clock span in the global `flat-obs` recorder, and the rule
/// firing counts are mirrored into `compiler.rule.G*` counters.
pub fn flatten(prog: &Program, cfg: &FlattenConfig) -> Result<Flattened, FlattenError> {
    flatten_observed(prog, cfg, &mut |_| {})
}

/// [`flatten`], observing the flattener's output after uniquify and, if
/// `cfg.simplify`, the simplified program: a verifier sees both and
/// neither pass runs twice. Re-exported as [`crate::driver::flatten`].
pub fn flatten_observed(
    prog: &Program,
    cfg: &FlattenConfig,
    observe: &mut Observer,
) -> Result<Flattened, FlattenError> {
    let mode_name = match (cfg.mode, cfg.full_flattening) {
        (FlattenMode::Moderate, false) => "moderate",
        (FlattenMode::Moderate, true) => "full",
        (FlattenMode::Incremental, _) => "incremental",
    };
    let mut fl = Flattener {
        cfg: cfg.clone(),
        reg: ThresholdRegistry::new(),
        path: Vec::new(),
        intra_factors: Vec::new(),
        num_segops: 0,
        tyenv: prog.params.iter().map(|p| (p.name, p.ty.clone())).collect(),
        rules: RuleTrace::default(),
        cur_prov: Prov::UNKNOWN,
        error: None,
    };
    let mut out = {
        let _span = flat_obs::span("compiler", "pass.flatten")
            .arg("mode", flat_obs::json::Value::from(mode_name))
            .arg("entry", flat_obs::json::Value::from(prog.name.as_str()));
        let mut bb = BodyBuilder::new();
        let atoms = fl.process_body(&Ctx::empty(), LVL_GRID, &prog.body, &mut bb);
        Program {
            name: prog.name.clone(),
            params: prog.params.clone(),
            body: bb.finish(atoms),
            ret: prog.ret.clone(),
            // The flattener mints no provenance of its own: every target
            // statement points back into the source program's table.
            prov: prog.prov.clone(),
        }
    };
    // Structural failures are recorded rather than thrown mid-recursion;
    // surface the first one before running any later pass over the
    // (necessarily incomplete) output.
    if let Some(e) = fl.error {
        return Err(e);
    }
    {
        // Version branches of the threshold tree may share binders with
        // the original body; restore global uniqueness before any later
        // pass (and the flat-verify V001 rule) sees the program.
        let _span = flat_obs::span("compiler", "pass.uniquify");
        let renamed = flat_ir::uniquify::uniquify_program(&mut out);
        if renamed > 0 {
            flat_obs::global().metrics().add("compiler.uniquify_renamed", renamed as u64);
        }
    }
    let (mode, thresholds) = (Some(mode_name), Some(&fl.reg));
    observe(Pass { name: "flatten", mode, prog: &out, thresholds });
    if cfg.simplify {
        {
            let _span = flat_obs::span("compiler", "pass.simplify");
            crate::simplify::simplify_program(&mut out);
        }
        observe(Pass { name: "simplify", mode, prog: &out, thresholds });
    }
    {
        let _span = flat_obs::span("compiler", "pass.typecheck");
        check_target(&out)?;
    }
    let stats = CodeStats {
        source_stms: count_body(&prog.body),
        target_stms: count_body(&out.body),
        num_segops: fl.num_segops,
        num_thresholds: fl.reg.len(),
        num_versions: fl.reg.num_versions(),
    };
    let metrics = flat_obs::global().metrics();
    for (rule, count) in fl.rules.counts() {
        if count > 0 {
            metrics.add(&format!("compiler.rule.{rule}"), count);
        }
    }
    metrics.add("compiler.flatten_runs", 1);
    metrics.observe("compiler.target_stms", stats.target_stms as u64);
    Ok(Flattened { prog: out, thresholds: fl.reg, stats, rules: fl.rules })
}

/// Convenience: moderate flattening.
pub fn flatten_moderate(prog: &Program) -> Result<Flattened, FlattenError> {
    flatten(prog, &FlattenConfig::moderate())
}

/// Convenience: incremental flattening.
pub fn flatten_incremental(prog: &Program) -> Result<Flattened, FlattenError> {
    flatten(prog, &FlattenConfig::incremental())
}

struct Flattener {
    cfg: FlattenConfig,
    reg: ThresholdRegistry,
    /// Branch conditions under which the code currently being generated
    /// is reachable (ancestry for freshly minted thresholds).
    path: Vec<(ThresholdId, bool)>,
    /// Collector stack for the parallel sizes of level-0 segops, used to
    /// compute the `Par(e_middle)` guard of rule G3.
    intra_factors: Vec<Vec<Vec<SubExp>>>,
    num_segops: usize,
    /// Types of host-scope bindings (for typing invariant result atoms).
    tyenv: HashMap<VName, Type>,
    /// Which rules fired where (drives `flatten --explain`).
    rules: RuleTrace,
    /// Provenance of the source statement currently being transformed;
    /// stamped onto emitted code and recorded rule firings.
    cur_prov: Prov,
    /// First structural failure encountered. The recursive pass has no
    /// Result plumbing, so errors are parked here and checked by
    /// `flatten()` before any later pass runs.
    error: Option<FlattenError>,
}

impl Flattener {
    /// Record a rule firing at the current source construct.
    fn fire(&mut self, rule: Rule, note: impl Into<String>) {
        let prov = self.cur_prov;
        self.rules.fire_at(rule, note, prov);
    }

    // ================================================================
    // Distribution (rule G6 generalization): process a body under Σ.
    // Returns the Σ-expanded result atoms, emitting statements to `bb`
    // (which lives at the scope *outside* Σ). With an empty context this
    // doubles as host-level (or group-level) code processing.
    // ================================================================
    fn process_body(
        &mut self,
        ctx: &Ctx,
        level: Level,
        body: &Body,
        bb: &mut BodyBuilder,
    ) -> Vec<SubExp> {
        let mut ctx = ctx.clone();
        let mut pending: Vec<Stm> = Vec::new();
        let mut pending_defs: HashSet<VName> = HashSet::new();

        for stm in &body.stms {
            // Statements synthesized without provenance (decomposed
            // redomaps, G4 transposes) inherit the enclosing construct's.
            if !stm.prov.is_unknown() {
                self.cur_prov = stm.prov;
            }
            bb.set_prov(self.cur_prov);
            for p in &stm.pat {
                self.tyenv.insert(p.name, p.ty.clone());
            }
            let free = free_in_stm(stm);
            let depends_on_pending = !free.is_disjoint(&pending_defs);

            if ctx.invariant(&free) && !depends_on_pending {
                // Hoisting: context-invariant code runs once, outside Σ.
                self.hoisted_stm(level, stm, bb);
                continue;
            }
            if !depends_on_pending && self.try_g5(&mut ctx, stm, bb) {
                // Rule G5: a rearrange of a context-bound array lifts to
                // a host-level rearrange of its expansion.
                continue;
            }
            if self.distributable(&ctx, stm) {
                self.flush_pending(&mut ctx, level, &mut pending, &mut pending_defs, bb);
                self.distribute_stm(&mut ctx, level, stm, bb);
                continue;
            }
            for p in &stm.pat {
                pending_defs.insert(p.name);
            }
            pending.push(stm.clone());
        }

        // Final results: anything not already available Σ-expanded comes
        // out of a trailing segmap over the remaining sequential code.
        let needs_kernel = |ctx: &Ctx, pending_defs: &HashSet<VName>, atom: &SubExp| -> bool {
            match atom {
                SubExp::Const(_) => !ctx.is_empty(),
                SubExp::Var(v) => {
                    if pending_defs.contains(v) {
                        true
                    } else if ctx.is_empty() || ctx.expansion_of(*v).is_some() {
                        false
                    } else {
                        // Context-bound without a known expansion, or an
                        // invariant value that must be broadcast.
                        true
                    }
                }
            }
        };

        let mut result: Vec<SubExp> = Vec::with_capacity(body.result.len());
        let mut from_kernel: Vec<(usize, SubExp, Type)> = Vec::new();
        for (i, atom) in body.result.iter().enumerate() {
            if needs_kernel(&ctx, &pending_defs, atom) {
                let ty = self.atom_elem_type(&ctx, &pending, atom);
                from_kernel.push((i, *atom, ty));
                result.push(SubExp::i64(0)); // placeholder, patched below
            } else {
                match atom {
                    SubExp::Var(v) if !ctx.is_empty() => {
                        result.push(SubExp::Var(ctx.expansion_of(*v).unwrap()))
                    }
                    other => result.push(*other),
                }
            }
        }

        if ctx.is_empty() {
            // Host scope: leftover sequential statements are emitted
            // directly; results are already in scope.
            for stm in pending {
                bb.push(stm);
            }
            for (i, atom, _) in &from_kernel {
                result[*i] = *atom;
            }
        } else if !from_kernel.is_empty() {
            self.fire(
                Rule::G1,
                format!(
                    "{} trailing result(s) manifested as segmap (depth {})",
                    from_kernel.len(),
                    ctx.depth()
                ),
            );
            let kbody = Body::new(
                pending,
                from_kernel.iter().map(|(_, a, _)| *a).collect(),
            );
            let elem_tys: Vec<Type> = from_kernel.iter().map(|(_, _, t)| t.clone()).collect();
            let out: Vec<Param> = elem_tys
                .iter()
                .map(|t| Param::fresh("res", ctx.expand_type(t)))
                .collect();
            self.manifest_segmap(&ctx, level, kbody, elem_tys, &out, bb);
            for ((i, _, _), p) in from_kernel.iter().zip(&out) {
                result[*i] = SubExp::Var(p.name);
            }
        }
        // else: leftover pending under a non-empty context whose results
        // are all covered — the pending code is dead; drop it.
        result
    }

    /// Would rule G5 fire for some statement of this body?
    fn has_liftable_rearrange(&self, ctx: &Ctx, body: &Body) -> bool {
        body.stms.iter().any(|stm| match &stm.exp {
            Exp::Rearrange { arr, .. } => {
                ctx.dom().contains(arr) && ctx.expansion_of(*arr).is_some()
            }
            _ => false,
        })
    }

    /// Rule G5: `Σ,⟨x ∈ y⟩ ⊢ rearrange ks x  ⇒  Σ ⊢ rearrange (0,1+ks) y`
    /// — generalized to the whole context at once: a rearrange of a
    /// context-bound array with a known expansion becomes one host-level
    /// rearrange of the expansion, with the permutation shifted past the
    /// context dimensions. Returns whether the rule fired.
    fn try_g5(&mut self, ctx: &mut Ctx, stm: &Stm, bb: &mut BodyBuilder) -> bool {
        if ctx.is_empty() || stm.pat.len() != 1 {
            return false;
        }
        let Exp::Rearrange { perm, arr } = &stm.exp else {
            return false;
        };
        if !ctx.dom().contains(arr) {
            return false;
        }
        let Some(expansion) = ctx.expansion_of(*arr) else {
            return false;
        };
        let depth = ctx.depth();
        let mut lifted: Vec<usize> = (0..depth).collect();
        lifted.extend(perm.iter().map(|p| p + depth));
        let pat = &stm.pat[0];
        let out = Param::fresh(&pat.name.base(), ctx.expand_type(&pat.ty));
        self.tyenv.insert(out.name, out.ty.clone());
        bb.push(Stm::new(
            vec![out.clone()],
            Exp::Rearrange { perm: lifted, arr: expansion },
        ));
        self.fire(
            Rule::G5,
            format!(
                "rearrange of context-bound {} lifted past {depth} dim(s) to host level",
                arr.base()
            ),
        );
        ctx.bind_elementwise(pat.name, &pat.ty, out.name);
        true
    }

    /// Emit a context-invariant statement at the current scope,
    /// transforming any parallelism it contains at this level.
    fn hoisted_stm(&mut self, level: Level, stm: &Stm, bb: &mut BodyBuilder) {
        if contains_soac(&stm.exp) {
            self.distribute_stm(&mut Ctx::empty(), level, stm, bb);
        } else {
            bb.push(stm.clone());
        }
    }

    /// Is this statement handled by the parallel machinery (as opposed to
    /// being bundled into a sequential kernel)?
    fn distributable(&self, ctx: &Ctx, stm: &Stm) -> bool {
        match &stm.exp {
            Exp::Soac(Soac::Map { .. }) => true,
            Exp::Soac(Soac::Reduce { lam, .. }) | Exp::Soac(Soac::Scan { lam, .. }) => {
                // Operators over array elements are only handled via the
                // G4 interchange; otherwise sequentialize.
                lam.params.iter().all(|p| p.ty.is_scalar())
                    || self.g4_shape(&stm.exp).is_some()
            }
            Exp::Soac(Soac::Redomap { .. }) | Exp::Soac(Soac::Scanomap { .. }) => {
                match self.cfg.mode {
                    FlattenMode::Incremental => true,
                    // The moderate heuristic sequentializes inner
                    // redomaps (enabling tiling) — unless this is the
                    // full-flattening ablation, or there is no outer
                    // parallelism to fall back on.
                    FlattenMode::Moderate => self.cfg.full_flattening || ctx.is_empty(),
                }
            }
            Exp::Loop { params, bound, body, .. } => {
                // Interchange (G7) is only worthwhile when the loop body
                // contains parallelism this mode would actually exploit —
                // e.g. the moderate heuristic leaves a loop around a lone
                // redomap sequential (and tiles it), as Futhark does for
                // LavaMD (§5.3).
                if !self.body_has_exploitable(ctx, body) {
                    return false;
                }
                // G7 requires the trip count invariant and each
                // loop-carried initializer either invariant or already
                // expanded.
                let bound_ok = match bound {
                    SubExp::Const(_) => true,
                    SubExp::Var(v) => !ctx.dom().contains(v),
                };
                bound_ok
                    && params.iter().all(|(_, init)| match init {
                        SubExp::Const(_) => true,
                        SubExp::Var(v) => {
                            !ctx.dom().contains(v) || ctx.expansion_of(*v).is_some()
                        }
                    })
            }
            Exp::If { cond, tb, fb, .. } => {
                if !(self.body_has_exploitable(ctx, tb)
                    || self.body_has_exploitable(ctx, fb))
                {
                    return false;
                }
                // G8 requires the condition invariant to Σ.
                match cond {
                    SubExp::Const(_) => true,
                    SubExp::Var(v) => !ctx.dom().contains(v),
                }
            }
            _ => false,
        }
    }

    /// Does the body contain any statement the current mode would
    /// distribute?
    fn body_has_exploitable(&self, ctx: &Ctx, body: &Body) -> bool {
        body.stms.iter().any(|s| {
            self.distributable(ctx, s)
                || match &s.exp {
                    Exp::Loop { body, .. } => self.body_has_exploitable(ctx, body),
                    Exp::If { tb, fb, .. } => {
                        self.body_has_exploitable(ctx, tb)
                            || self.body_has_exploitable(ctx, fb)
                    }
                    _ => false,
                }
        })
    }

    /// Manifest the pending run of sequential statements as a `segmap`,
    /// making every value it defines available elementwise afterwards.
    fn flush_pending(
        &mut self,
        ctx: &mut Ctx,
        level: Level,
        pending: &mut Vec<Stm>,
        pending_defs: &mut HashSet<VName>,
        bb: &mut BodyBuilder,
    ) {
        if pending.is_empty() {
            return;
        }
        let stms = std::mem::take(pending);
        pending_defs.clear();
        if ctx.is_empty() {
            for stm in stms {
                bb.push(stm);
            }
            return;
        }
        self.fire(
            Rule::G1,
            format!(
                "{} pending sequential stm(s) manifested as segmap (depth {})",
                stms.len(),
                ctx.depth()
            ),
        );
        let pats: Vec<Param> = stms.iter().flat_map(|s| s.pat.clone()).collect();
        let results: Vec<SubExp> = pats.iter().map(|p| SubExp::Var(p.name)).collect();
        let elem_tys: Vec<Type> = pats.iter().map(|p| p.ty.clone()).collect();
        let out: Vec<Param> = pats
            .iter()
            .map(|p| Param::fresh(&p.name.base(), ctx.expand_type(&p.ty)))
            .collect();
        // Attribute the manifested kernel to the pending code it bundles,
        // not to the statement that triggered the flush.
        let seg_prov = stms
            .iter()
            .map(|s| s.prov)
            .find(|p| !p.is_unknown())
            .unwrap_or(self.cur_prov);
        let kbody = Body::new(stms, results);
        let saved = bb.prov();
        bb.set_prov(seg_prov);
        self.manifest_segmap(ctx, level, kbody, elem_tys, &out, bb);
        bb.set_prov(saved);
        for (p, o) in pats.iter().zip(&out) {
            ctx.bind_elementwise(p.name, &p.ty, o.name);
        }
    }

    /// Transform one distributable statement under Σ, emitting code that
    /// binds Σ-expanded versions of its pattern, and recording the
    /// expansions in the context.
    fn distribute_stm(&mut self, ctx: &mut Ctx, level: Level, stm: &Stm, bb: &mut BodyBuilder) {
        let out: Vec<Param> = stm
            .pat
            .iter()
            .map(|p| {
                if ctx.is_empty() {
                    p.clone()
                } else {
                    Param::fresh(&p.name.base(), ctx.expand_type(&p.ty))
                }
            })
            .collect();
        for o in &out {
            self.tyenv.insert(o.name, o.ty.clone());
        }
        match &stm.exp {
            Exp::Soac(soac) => self.transform_soac(ctx, level, soac, &out, bb),
            Exp::Loop { .. } => self.transform_loop(ctx, level, &stm.exp, &out, bb),
            Exp::If { .. } => self.transform_if(ctx, level, &stm.exp, &out, bb),
            other => unreachable!("distribute_stm on non-parallel exp {other:?}"),
        }
        if !ctx.is_empty() {
            for (p, o) in stm.pat.iter().zip(&out) {
                ctx.bind_elementwise(p.name, &p.ty, o.name);
            }
        }
    }

    // ================================================================
    // SOAC transformation (rules G2, G3, G4, G9).
    // ================================================================
    fn transform_soac(
        &mut self,
        ctx: &Ctx,
        level: Level,
        soac: &Soac,
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        match soac {
            Soac::Map { w, lam, arrs } => self.do_map(ctx, level, *w, lam, arrs, out, bb),
            Soac::Reduce { w, lam, nes, arrs } => {
                if let Some((inner_op, k)) = self.g4_reduce_shape(lam) {
                    self.do_g4(ctx, level, *w, &inner_op, k, nes, arrs, out, bb);
                } else {
                    // Perfectly nested reduce: manifest as segred with an
                    // identity body.
                    self.fire(
                        Rule::G2,
                        format!(
                            "perfectly nested reduce manifested as segred (depth {})",
                            ctx.depth() + 1
                        ),
                    );
                    let elem_tys: Vec<Type> =
                        lam.params[nes.len()..].iter().map(|p| p.ty.clone()).collect();
                    let params: Vec<Param> = elem_tys
                        .iter()
                        .map(|t| Param::fresh("e", t.clone()))
                        .collect();
                    let body =
                        Body::results(params.iter().map(|p| SubExp::Var(p.name)).collect());
                    let mut ctx2 = ctx.clone();
                    ctx2.push_dim(*w, params.into_iter().zip(arrs.iter().copied()).collect());
                    self.manifest_segred(
                        &ctx2, level, lam.clone(), nes.to_vec(), body, elem_tys, out, bb,
                    );
                }
            }
            Soac::Scan { w, lam, nes, arrs } => {
                self.fire(
                    Rule::G2,
                    format!(
                        "perfectly nested scan manifested as segscan (depth {})",
                        ctx.depth() + 1
                    ),
                );
                let elem_tys: Vec<Type> =
                    lam.params[nes.len()..].iter().map(|p| p.ty.clone()).collect();
                let params: Vec<Param> = elem_tys
                    .iter()
                    .map(|t| Param::fresh("e", t.clone()))
                    .collect();
                let body = Body::results(params.iter().map(|p| SubExp::Var(p.name)).collect());
                let mut ctx2 = ctx.clone();
                ctx2.push_dim(*w, params.into_iter().zip(arrs.iter().copied()).collect());
                self.manifest_segscan(
                    &ctx2, level, lam.clone(), nes.to_vec(), body, elem_tys, out, bb,
                );
            }
            Soac::Redomap { w, red, map, nes, arrs } => {
                self.do_redomap(ctx, level, *w, red, map, nes, arrs, out, bb, false)
            }
            Soac::Scanomap { w, scan, map, nes, arrs } => {
                self.do_redomap(ctx, level, *w, scan, map, nes, arrs, out, bb, true)
            }
        }
    }

    /// Rule G3 (and G2 when there is no inner parallelism).
    #[allow(clippy::too_many_arguments)]
    fn do_map(
        &mut self,
        ctx: &Ctx,
        level: Level,
        w: SubExp,
        lam: &Lambda,
        arrs: &[VName],
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        let mut ctx2 = ctx.clone();
        ctx2.push_dim(
            w,
            lam.params.iter().cloned().zip(arrs.iter().copied()).collect(),
        );

        if !body_contains_soac(&lam.body) {
            // Rule G5 pre-empts G2: a body that rearranges context-bound
            // arrays lifts to host-level rearranges instead of a copy
            // kernel.
            if self.has_liftable_rearrange(&ctx2, &lam.body) {
                let atoms = self.process_body(&ctx2, level, &lam.body, bb);
                for (p, a) in out.iter().zip(&atoms) {
                    bb.push(Stm::single(p.name, p.ty.clone(), Exp::SubExp(*a)));
                }
                return;
            }
            // G2: no inner parallelism — manifest.
            self.fire(
                Rule::G2,
                format!(
                    "parallelism-free map body manifested as segmap (nest depth {})",
                    ctx2.depth()
                ),
            );
            self.manifest_segmap(&ctx2, level, lam.body.clone(), lam.ret.clone(), out, bb);
            return;
        }

        if self.cfg.mode == FlattenMode::Moderate || level == LVL_GROUP {
            // Moderate flattening keeps distributing; so does incremental
            // flattening at level 0 (there is no level below to version
            // for).
            if level == LVL_GROUP {
                self.fire(
                    Rule::G0,
                    format!("map distributed at intra-group level (depth {})", ctx2.depth()),
                );
            } else {
                self.fire(
                    Rule::G6,
                    format!("moderate-mode distribution of map (depth {})", ctx2.depth()),
                );
            }
            let atoms = self.process_body(&ctx2, level, &lam.body, bb);
            for (p, a) in out.iter().zip(&atoms) {
                bb.push(Stm::single(p.name, p.ty.clone(), Exp::SubExp(*a)));
            }
        } else {
            self.g3_versions(&ctx2, level, lam, out, bb);
        }
    }

    /// The three guarded versions of rule G3.
    fn g3_versions(
        &mut self,
        ctx2: &Ctx,
        level: Level,
        lam: &Lambda,
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        let prov = self.cur_prov;
        let ret_tys: Vec<Type> = out.iter().map(|p| p.ty.clone()).collect();
        let t_top = self.reg.fresh_at(ThresholdKind::SuffOuter, &self.path, prov);
        self.fire(
            Rule::G3,
            format!(
                "map with inner parallelism (depth {}): {t_top} guards e_top vs e_middle/e_flat",
                ctx2.depth()
            ),
        );

        // e_top: manifest Σ' with the body sequentialized.
        self.path.push((t_top, true));
        let mut bb_top = BodyBuilder::new();
        bb_top.set_prov(prov);
        let top_out: Vec<Param> = out
            .iter()
            .map(|p| Param::fresh(&p.name.base(), p.ty.clone()))
            .collect();
        self.manifest_segmap(
            ctx2,
            level,
            rename_body(&lam.body),
            lam.ret.clone(),
            &top_out,
            &mut bb_top,
        );
        let e_top = bb_top.finish(top_out.iter().map(|p| SubExp::Var(p.name)).collect());
        self.path.pop();

        self.path.push((t_top, false));

        // e_middle: body parallelism one level down (intra-group). Only
        // meaningful when the body actually yields level-0 parallelism.
        let middle = {
            let body = rename_body(&lam.body);
            self.intra_factors.push(Vec::new());
            let mut bbi = BodyBuilder::new();
            let atoms = self.process_body(&Ctx::empty(), LVL_GROUP, &body, &mut bbi);
            let intra_body = bbi.finish(atoms);
            let factors = self.intra_factors.pop().unwrap();
            if factors.is_empty() {
                None
            } else {
                Some((intra_body, factors))
            }
        };

        let inner = match middle {
            Some((intra_body, factors)) => {
                self.cur_prov = prov;
                let t_intra = self.reg.fresh_at(ThresholdKind::SuffIntra, &self.path, prov);

                // The e_middle kernel itself.
                let mut bb_mid = BodyBuilder::new();
                bb_mid.set_prov(prov);
                let mid_out: Vec<Param> = out
                    .iter()
                    .map(|p| Param::fresh(&p.name.base(), p.ty.clone()))
                    .collect();
                let seg = SegOp {
                    kind: SegKind::Map,
                    level,
                    ctx: ctx2.to_segctx(),
                    body: intra_body,
                    body_ret: lam.ret.clone(),
                    tiling: Tiling::None,
                };
                self.num_segops += 1;
                bb_mid.push(Stm::new(mid_out.clone(), Exp::Seg(seg)));
                let e_middle =
                    bb_mid.finish(mid_out.iter().map(|p| SubExp::Var(p.name)).collect());

                // e_flat under path (t_top=false, t_intra=false).
                self.path.push((t_intra, false));
                let mut bb_flat = BodyBuilder::new();
                let flat_body = rename_body(&lam.body);
                let flat_atoms = self.process_body(ctx2, level, &flat_body, &mut bb_flat);
                let e_flat = bb_flat.finish(flat_atoms);
                self.path.pop();

                // Guard: Par(e_middle) = Par(Σ') * max(inner level-0
                // parallelism) >= t_intra.
                let mut bb_guard = BodyBuilder::new();
                bb_guard.set_prov(prov);
                let mut max_inner: Option<SubExp> = None;
                for fs in &factors {
                    let p = bb_guard.product(fs);
                    max_inner = Some(match max_inner {
                        None => p,
                        Some(m) => SubExp::Var(bb_guard.binop(BinOp::Max, m, p, Type::i64())),
                    });
                }
                let mut guard_factors = ctx2.widths();
                guard_factors.push(max_inner.unwrap());
                let c_intra = bb_guard.bind(
                    "suff_intra",
                    Type::bool(),
                    Exp::CmpThreshold { factors: guard_factors, threshold: t_intra },
                );
                let mid_names = bb_guard.bind_multi(
                    "v",
                    ret_tys.clone(),
                    Exp::If {
                        cond: SubExp::Var(c_intra),
                        tb: e_middle,
                        fb: e_flat,
                        ret: ret_tys.clone(),
                    },
                );
                bb_guard.finish(mid_names.into_iter().map(SubExp::Var).collect())
            }
            None => {
                let mut bb_flat = BodyBuilder::new();
                let flat_body = rename_body(&lam.body);
                let flat_atoms = self.process_body(ctx2, level, &flat_body, &mut bb_flat);
                bb_flat.finish(flat_atoms)
            }
        };
        self.path.pop();

        self.cur_prov = prov;
        bb.set_prov(prov);
        let c_top = bb.bind(
            "suff_outer",
            Type::bool(),
            Exp::CmpThreshold { factors: ctx2.widths(), threshold: t_top },
        );
        bb.push(Stm::new(
            out.to_vec(),
            Exp::If { cond: SubExp::Var(c_top), tb: e_top, fb: inner, ret: ret_tys },
        ));
    }

    /// Rule G9: versioned redomap (and symmetrically scanomap).
    #[allow(clippy::too_many_arguments)]
    fn do_redomap(
        &mut self,
        ctx: &Ctx,
        level: Level,
        w: SubExp,
        op: &Lambda,
        map_lam: &Lambda,
        nes: &[SubExp],
        arrs: &[VName],
        out: &[Param],
        bb: &mut BodyBuilder,
        is_scan: bool,
    ) {
        let manifest =
            |fl: &mut Flattener, body: Body, out: &[Param], bb: &mut BodyBuilder| {
                let mut ctx2 = ctx.clone();
                ctx2.push_dim(
                    w,
                    map_lam.params.iter().cloned().zip(arrs.iter().copied()).collect(),
                );
                if is_scan {
                    fl.manifest_segscan(
                        &ctx2, level, op.clone(), nes.to_vec(), body,
                        map_lam.ret.clone(), out, bb,
                    );
                } else {
                    fl.manifest_segred(
                        &ctx2, level, op.clone(), nes.to_vec(), body,
                        map_lam.ret.clone(), out, bb,
                    );
                }
            };

        let opname = if is_scan { "scanomap" } else { "redomap" };
        if !lambda_contains_soac(map_lam) || level == LVL_GROUP {
            let why = if lambda_contains_soac(map_lam) {
                "intra-group level"
            } else {
                "parallelism-free body"
            };
            self.fire(
                Rule::G2,
                format!("{opname} manifested as seg-op ({why}, depth {})", ctx.depth() + 1),
            );
            manifest(self, map_lam.body.clone(), out, bb);
            return;
        }

        match self.cfg.mode {
            FlattenMode::Moderate => {
                if self.cfg.full_flattening {
                    self.fire(
                        Rule::G9,
                        format!("{opname} decomposed unguarded (full flattening)"),
                    );
                    self.redomap_decomposed(
                        ctx, level, w, op, map_lam, nes, arrs, out, bb, is_scan,
                    );
                } else {
                    // Reached only when there is no outer parallelism to
                    // prefer: manifest with the body sequentialized.
                    self.fire(
                        Rule::G2,
                        format!("{opname} body sequentialized (moderate heuristic)"),
                    );
                    manifest(self, map_lam.body.clone(), out, bb);
                }
            }
            FlattenMode::Incremental => {
                // G9: e_top (manifest now) vs. e_rec (decompose and keep
                // flattening).
                let prov = self.cur_prov;
                let t_top = self.reg.fresh_at(ThresholdKind::SuffOuter, &self.path, prov);
                self.fire(
                    Rule::G9,
                    format!(
                        "{opname} with inner parallelism: {t_top} guards e_top vs e_rec"
                    ),
                );

                self.path.push((t_top, true));
                let mut bb_top = BodyBuilder::new();
                bb_top.set_prov(prov);
                let top_out: Vec<Param> = out
                    .iter()
                    .map(|p| Param::fresh(&p.name.base(), p.ty.clone()))
                    .collect();
                manifest(self, rename_body(&map_lam.body), &top_out, &mut bb_top);
                let e_top =
                    bb_top.finish(top_out.iter().map(|p| SubExp::Var(p.name)).collect());
                self.path.pop();

                self.path.push((t_top, false));
                let mut bb_rec = BodyBuilder::new();
                bb_rec.set_prov(prov);
                let rec_out: Vec<Param> = out
                    .iter()
                    .map(|p| Param::fresh(&p.name.base(), p.ty.clone()))
                    .collect();
                self.redomap_decomposed(
                    ctx, level, w, op, map_lam, nes, arrs, &rec_out, &mut bb_rec, is_scan,
                );
                let e_rec =
                    bb_rec.finish(rec_out.iter().map(|p| SubExp::Var(p.name)).collect());
                self.path.pop();

                self.cur_prov = prov;
                bb.set_prov(prov);
                let mut factors = ctx.widths();
                factors.push(w);
                let c = bb.bind(
                    "suff_outer",
                    Type::bool(),
                    Exp::CmpThreshold { factors, threshold: t_top },
                );
                let ret_tys: Vec<Type> = out.iter().map(|p| p.ty.clone()).collect();
                bb.push(Stm::new(
                    out.to_vec(),
                    Exp::If { cond: SubExp::Var(c), tb: e_top, fb: e_rec, ret: ret_tys },
                ));
            }
        }
    }

    /// The `e_rec` of rule G9: decompose `redomap op f` into `map f`
    /// followed by `reduce op` and keep flattening both.
    #[allow(clippy::too_many_arguments)]
    fn redomap_decomposed(
        &mut self,
        ctx: &Ctx,
        level: Level,
        w: SubExp,
        op: &Lambda,
        map_lam: &Lambda,
        nes: &[SubExp],
        arrs: &[VName],
        out: &[Param],
        bb: &mut BodyBuilder,
        is_scan: bool,
    ) {
        let map_lam = rename_lambda(map_lam);
        let ys: Vec<Param> = map_lam
            .ret
            .iter()
            .map(|t| Param::fresh("ys", t.array_of(w)))
            .collect();
        let map_stm = Stm::new(
            ys.clone(),
            Exp::Soac(Soac::Map { w, lam: map_lam.clone(), arrs: arrs.to_vec() }),
        );
        let red_tys: Vec<Type> = if is_scan {
            map_lam.ret.iter().map(|t| t.array_of(w)).collect()
        } else {
            map_lam.ret.clone()
        };
        let red_pat: Vec<Param> = out
            .iter()
            .zip(&red_tys)
            .map(|(p, t)| Param::fresh(&p.name.base(), t.clone()))
            .collect();
        let red_soac = if is_scan {
            Soac::Scan {
                w,
                lam: rename_lambda(op),
                nes: nes.to_vec(),
                arrs: ys.iter().map(|p| p.name).collect(),
            }
        } else {
            Soac::Reduce {
                w,
                lam: rename_lambda(op),
                nes: nes.to_vec(),
                arrs: ys.iter().map(|p| p.name).collect(),
            }
        };
        let red_stm = Stm::new(red_pat.clone(), Exp::Soac(red_soac));
        let mini = Body::new(
            vec![map_stm, red_stm],
            red_pat.iter().map(|p| SubExp::Var(p.name)).collect(),
        );
        let atoms = self.process_body(ctx, level, &mini, bb);
        for (p, a) in out.iter().zip(&atoms) {
            bb.push(Stm::single(p.name, p.ty.clone(), Exp::SubExp(*a)));
        }
    }

    // ================================================================
    // Rule G4: reduce with a vectorized operator.
    // ================================================================

    /// Does this reduce have the `reduce (map op)` shape of rule G4?
    fn g4_shape(&self, exp: &Exp) -> Option<(Lambda, SubExp)> {
        match exp {
            Exp::Soac(Soac::Reduce { lam, .. }) => self.g4_reduce_shape(lam),
            _ => None,
        }
    }

    /// Returns the inner scalar operator and the inner width, if the
    /// operator is a single map over exactly its parameters.
    fn g4_reduce_shape(&self, lam: &Lambda) -> Option<(Lambda, SubExp)> {
        if !lam.params.iter().all(|p| p.ty.is_array()) {
            return None;
        }
        if lam.body.stms.len() != 1 {
            return None;
        }
        let Exp::Soac(Soac::Map { w, lam: inner, arrs }) = &lam.body.stms[0].exp else {
            return None;
        };
        if !inner.params.iter().all(|p| p.ty.is_scalar()) {
            return None;
        }
        let param_names: Vec<VName> = lam.params.iter().map(|p| p.name).collect();
        if arrs != &param_names {
            return None;
        }
        let pat_names: Vec<SubExp> = lam.body.stms[0]
            .pat
            .iter()
            .map(|p| SubExp::Var(p.name))
            .collect();
        if lam.body.result != pat_names {
            return None;
        }
        Some((inner.clone(), *w))
    }

    /// G4: `reduce (map op) nes zs ⇒ map (λ(ne, cols..) → reduce op ne
    /// cols) nes (transpose zs..)`, then recurse on the map. The
    /// transposes and the map are fed back through `process_body`, so
    /// they are hoisted when invariant and distributed otherwise.
    #[allow(clippy::too_many_arguments)]
    fn do_g4(
        &mut self,
        ctx: &Ctx,
        level: Level,
        w: SubExp,
        inner_op: &Lambda,
        k: SubExp,
        nes: &[SubExp],
        arrs: &[VName],
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        let half = inner_op.params.len() / 2;
        assert_eq!(half, arrs.len(), "G4: operator arity mismatch");
        self.fire(
            Rule::G4,
            format!(
                "reduce (map op) over {} array(s) interchanged to map (reduce op) of transposes",
                arrs.len()
            ),
        );
        let elem_tys: Vec<Type> =
            inner_op.params[..half].iter().map(|p| p.ty.clone()).collect();

        let mut stms = Vec::new();
        let mut map_arrs: Vec<VName> = Vec::with_capacity(arrs.len() * 2);
        let mut lam_params: Vec<Param> = Vec::with_capacity(arrs.len() * 2);

        // Per-column neutral elements (e.g. from `replicate k d`).
        for (ne, t) in nes.iter().zip(&elem_tys) {
            let SubExp::Var(nv) = ne else {
                self.record_error(FlattenError::G4NeutralElement {
                    detail: format!("got constant {ne}"),
                });
                return;
            };
            map_arrs.push(*nv);
            lam_params.push(Param::fresh("ne", t.clone()));
        }
        // Transposed inputs: columns become rows.
        let mut col_params = Vec::with_capacity(arrs.len());
        for (a, t) in arrs.iter().zip(&elem_tys) {
            let tr = Param::fresh(
                &format!("{}_tr", a.base()),
                t.array_of(w).array_of(k),
            );
            stms.push(Stm::new(
                vec![tr.clone()],
                Exp::Rearrange { perm: vec![1, 0], arr: *a },
            ));
            map_arrs.push(tr.name);
            let p = Param::fresh("col", t.array_of(w));
            col_params.push(p.clone());
            lam_params.push(p);
        }

        // Body of the new map: reduce op ne cols.
        let mut lb = BodyBuilder::new();
        let red_out: Vec<Param> =
            elem_tys.iter().map(|t| Param::fresh("r", t.clone())).collect();
        lb.push(Stm::new(
            red_out.clone(),
            Exp::Soac(Soac::Reduce {
                w,
                lam: rename_lambda(inner_op),
                nes: lam_params[..half].iter().map(|p| SubExp::Var(p.name)).collect(),
                arrs: col_params.iter().map(|p| p.name).collect(),
            }),
        ));
        let lam = Lambda {
            params: lam_params,
            body: lb.finish(red_out.iter().map(|p| SubExp::Var(p.name)).collect()),
            ret: elem_tys.clone(),
        };

        let map_pat: Vec<Param> = elem_tys
            .iter()
            .map(|t| Param::fresh("g4", t.array_of(k)))
            .collect();
        stms.push(Stm::new(
            map_pat.clone(),
            Exp::Soac(Soac::Map { w: k, lam, arrs: map_arrs }),
        ));
        let mini = Body::new(stms, map_pat.iter().map(|p| SubExp::Var(p.name)).collect());
        let atoms = self.process_body(ctx, level, &mini, bb);
        for (p, a) in out.iter().zip(&atoms) {
            bb.push(Stm::single(p.name, p.ty.clone(), Exp::SubExp(*a)));
        }
    }

    // ================================================================
    // Rule G7: loop interchange (all context dimensions at once).
    // ================================================================
    fn transform_loop(
        &mut self,
        ctx: &Ctx,
        level: Level,
        exp: &Exp,
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        let Exp::Loop { params, ivar, bound, body } = exp else { unreachable!() };
        for (p, _) in params {
            self.tyenv.insert(p.name, p.ty.clone());
        }
        if ctx.is_empty() {
            // Host-level loop: recurse into the body.
            let mut lb = BodyBuilder::new();
            let atoms = self.process_body(&Ctx::empty(), level, body, &mut lb);
            bb.push(Stm::new(
                out.to_vec(),
                Exp::Loop {
                    params: params.clone(),
                    ivar: *ivar,
                    bound: *bound,
                    body: lb.finish(atoms),
                },
            ));
            return;
        }

        self.fire(
            Rule::G7,
            format!(
                "loop with {} carried value(s) interchanged past {} context dim(s)",
                params.len(),
                ctx.depth()
            ),
        );
        // Expanded loop parameters and initializers.
        let widths = ctx.widths();
        let mut new_params = Vec::with_capacity(params.len());
        let mut ctx2 = ctx.clone();
        for (p, init) in params {
            let exp_ty = ctx.expand_type(&p.ty);
            let exp_param = Param::fresh(&p.name.base(), exp_ty);
            let exp_init = match init {
                SubExp::Var(v) if ctx.dom().contains(v) => {
                    SubExp::Var(ctx.expansion_of(*v).expect("checked by distributable"))
                }
                inv => {
                    // Invariant: replicate over the context space.
                    let mut cur = *inv;
                    let mut ty = p.ty.clone();
                    for wd in widths.iter().rev() {
                        ty = ty.array_of(*wd);
                        cur = SubExp::Var(bb.bind(
                            "rep",
                            ty.clone(),
                            Exp::Replicate { n: *wd, elem: cur },
                        ));
                    }
                    cur
                }
            };
            // Inside the loop, the original name is the elementwise view
            // of the expanded loop parameter.
            ctx2.bind_elementwise(p.name, &p.ty, exp_param.name);
            self.tyenv.insert(exp_param.name, exp_param.ty.clone());
            new_params.push((exp_param, exp_init));
        }

        let mut lb = BodyBuilder::new();
        let atoms = self.process_body(&ctx2, level, body, &mut lb);
        bb.push(Stm::new(
            out.to_vec(),
            Exp::Loop {
                params: new_params,
                ivar: *ivar,
                bound: *bound,
                body: lb.finish(atoms),
            },
        ));
    }

    // ================================================================
    // Rule G8: if distribution.
    // ================================================================
    fn transform_if(
        &mut self,
        ctx: &Ctx,
        level: Level,
        exp: &Exp,
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        let Exp::If { cond, tb, fb, .. } = exp else { unreachable!() };
        if !ctx.is_empty() {
            self.fire(
                Rule::G8,
                format!("context of depth {} distributed across if branches", ctx.depth()),
            );
        }
        let mut tbb = BodyBuilder::new();
        let t_atoms = self.process_body(ctx, level, tb, &mut tbb);
        let mut fbb = BodyBuilder::new();
        let f_atoms = self.process_body(ctx, level, fb, &mut fbb);
        let ret: Vec<Type> = out.iter().map(|p| p.ty.clone()).collect();
        bb.push(Stm::new(
            out.to_vec(),
            Exp::If { cond: *cond, tb: tbb.finish(t_atoms), fb: fbb.finish(f_atoms), ret },
        ));
    }

    // ================================================================
    // Manifestation (rules G1/G2 and the segred/segscan analogues).
    // ================================================================
    fn manifest_segmap(
        &mut self,
        ctx: &Ctx,
        level: Level,
        body: Body,
        body_ret: Vec<Type>,
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        let tiling = self.detect_tiling(ctx, level, &body);
        self.record_intra(ctx, level);
        let seg = SegOp { kind: SegKind::Map, level, ctx: ctx.to_segctx(), body, body_ret, tiling };
        self.num_segops += 1;
        bb.push(Stm::new(out.to_vec(), Exp::Seg(seg)));
    }

    #[allow(clippy::too_many_arguments)]
    fn manifest_segred(
        &mut self,
        ctx: &Ctx,
        level: Level,
        op: Lambda,
        nes: Vec<SubExp>,
        body: Body,
        body_ret: Vec<Type>,
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        self.record_intra(ctx, level);
        let seg = SegOp {
            kind: SegKind::Red { op, nes },
            level,
            ctx: ctx.to_segctx(),
            body,
            body_ret,
            tiling: Tiling::None,
        };
        self.num_segops += 1;
        bb.push(Stm::new(out.to_vec(), Exp::Seg(seg)));
    }

    #[allow(clippy::too_many_arguments)]
    fn manifest_segscan(
        &mut self,
        ctx: &Ctx,
        level: Level,
        op: Lambda,
        nes: Vec<SubExp>,
        body: Body,
        body_ret: Vec<Type>,
        out: &[Param],
        bb: &mut BodyBuilder,
    ) {
        self.record_intra(ctx, level);
        let seg = SegOp {
            kind: SegKind::Scan { op, nes },
            level,
            ctx: ctx.to_segctx(),
            body,
            body_ret,
            tiling: Tiling::None,
        };
        self.num_segops += 1;
        bb.push(Stm::new(out.to_vec(), Exp::Seg(seg)));
    }

    /// While building an intra-group (`e_middle`) version, record the
    /// parallel size of each level-0 segop for the `Par(e_middle)` guard.
    fn record_intra(&mut self, ctx: &Ctx, level: Level) {
        if level == LVL_GROUP {
            if let Some(collector) = self.intra_factors.last_mut() {
                collector.push(ctx.widths());
            }
        }
    }

    /// Detect a block-tiling opportunity: a kernel with a sequentialized
    /// body that streams context-bound arrays (e.g. a sequential
    /// `redomap` over arrays bound by the map nest, as in matrix
    /// multiplication version (2), §2.2).
    fn detect_tiling(&self, ctx: &Ctx, level: Level, body: &Body) -> Tiling {
        if !self.cfg.enable_tiling || level != LVL_GRID || ctx.is_empty() {
            return Tiling::None;
        }
        let dom = ctx.dom();
        fn streams_ctx_array(body: &Body, dom: &HashSet<VName>) -> bool {
            body.stms.iter().any(|stm| match &stm.exp {
                Exp::Soac(s) => s.arrays().iter().any(|a| dom.contains(a)),
                Exp::Loop { body, .. } => streams_ctx_array(body, dom),
                Exp::If { tb, fb, .. } => {
                    streams_ctx_array(tb, dom) || streams_ctx_array(fb, dom)
                }
                _ => false,
            })
        }
        if streams_ctx_array(body, &dom) {
            Tiling::Block(self.cfg.tile_size)
        } else {
            Tiling::None
        }
    }

    /// Element type of a result atom: from the pending bindings, the
    /// context bindings, or the host-scope type environment.
    fn atom_elem_type(&mut self, ctx: &Ctx, pending: &[Stm], atom: &SubExp) -> Type {
        match atom {
            SubExp::Const(c) => Type::scalar(c.scalar_type()),
            SubExp::Var(v) => {
                for stm in pending {
                    for p in &stm.pat {
                        if p.name == *v {
                            return p.ty.clone();
                        }
                    }
                }
                for dim in &ctx.dims {
                    for (p, _) in &dim.binds {
                        if p.name == *v {
                            return p.ty.clone();
                        }
                    }
                }
                match self.tyenv.get(v) {
                    Some(t) => t.clone(),
                    None => {
                        self.record_error(FlattenError::UnknownAtomType {
                            var: v.to_string(),
                        });
                        // Placeholder so the pass can unwind to the
                        // `flatten()` error check without a Result chain.
                        Type::i64()
                    }
                }
            }
        }
    }

    /// Park the first structural failure; `flatten()` surfaces it before
    /// simplification or type checking run.
    fn record_error(&mut self, e: FlattenError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }
}

fn count_body(body: &Body) -> usize {
    body.stms.iter().map(count_stm).sum::<usize>()
}

fn count_stm(stm: &Stm) -> usize {
    1 + match &stm.exp {
        Exp::If { tb, fb, .. } => count_body(tb) + count_body(fb),
        Exp::Loop { body, .. } => count_body(body),
        Exp::Soac(s) => match s {
            Soac::Map { lam, .. } | Soac::Reduce { lam, .. } | Soac::Scan { lam, .. } => {
                count_body(&lam.body)
            }
            Soac::Redomap { red, map, .. } | Soac::Scanomap { scan: red, map, .. } => {
                count_body(&red.body) + count_body(&map.body)
            }
        },
        Exp::Seg(seg) => {
            count_body(&seg.body)
                + match &seg.kind {
                    SegKind::Map => 0,
                    SegKind::Red { op, .. } | SegKind::Scan { op, .. } => count_body(&op.body),
                }
        }
        _ => 0,
    }
}
