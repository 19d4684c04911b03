//! Threshold-tree lint (V201/V202).
//!
//! The autotuner, the fuzz oracle and the regret profiler navigate the
//! branching tree through `ThresholdRegistry`'s one walk, which finds a
//! node's children as the thresholds whose recorded ancestor *path* is
//! exactly that node's. Two invariants make that navigation sound:
//!
//! * names are unique — tuning files (`flatc tune`) key assignments by
//!   threshold name, so a duplicate silently merges two parameters
//!   (**V201**, warning);
//! * every path is tree-consistent — each ancestor on a path must
//!   exist, and its own recorded path must be exactly the proper prefix
//!   leading up to it; and every `Par(..) >= t` guard in the IR must
//!   reference a minted threshold (**V202**, error).

use crate::diag::{Diagnostic, VRule};
use flat_ir::ast::*;
use incflat::ThresholdRegistry;
use std::collections::HashMap;

pub fn check_flattened(prog: &Program, reg: &ThresholdRegistry) -> Vec<Diagnostic> {
    let mut diags = check_registry(reg);
    check_guards(&prog.body, reg, &mut diags);
    diags
}

pub fn check_registry(reg: &ThresholdRegistry) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // V201: duplicate names.
    let mut by_name: HashMap<&str, flat_ir::ThresholdId> = HashMap::new();
    for info in reg.iter() {
        if let Some(first) = by_name.insert(info.name.as_str(), info.id) {
            diags.push(Diagnostic::new(
                VRule::DuplicateThresholdName,
                info.prov,
                format!(
                    "threshold {} reuses the name `{}` of threshold {} — tuning entries will collide",
                    info.id, info.name, first
                ),
            ));
        }
    }

    // V202: tree consistency of every recorded path. The registry's walk
    // selects thresholds whose path equals the parent path exactly, so a
    // node is reachable from the root iff every proper prefix of its
    // path is the recorded path of the corresponding ancestor.
    for info in reg.iter() {
        for (i, (ancestor, _)) in info.path.iter().enumerate() {
            let Some(anc) = reg.iter().find(|o| o.id == *ancestor) else {
                diags.push(Diagnostic::new(
                    VRule::InconsistentThresholdPath,
                    info.prov,
                    format!(
                        "threshold {} ({}) has unknown ancestor {} on its path",
                        info.id, info.name, ancestor
                    ),
                ));
                continue;
            };
            if anc.path != info.path[..i] {
                diags.push(Diagnostic::new(
                    VRule::InconsistentThresholdPath,
                    info.prov,
                    format!(
                        "threshold {} ({}) is off the branching tree: ancestor {} records a \
                         different path than the prefix leading to it",
                        info.id, info.name, anc.id
                    ),
                ));
            }
        }
    }
    diags
}

/// Every `CmpThreshold` guard in the program must reference a threshold
/// the registry minted.
fn check_guards(body: &Body, reg: &ThresholdRegistry, diags: &mut Vec<Diagnostic>) {
    for stm in &body.stms {
        if let Exp::CmpThreshold { threshold, .. } = &stm.exp {
            if !reg.ids().any(|id| id == *threshold) {
                diags.push(Diagnostic::new(
                    VRule::InconsistentThresholdPath,
                    stm.prov,
                    format!(
                        "guard references threshold {threshold} which the registry never minted"
                    ),
                ));
            }
        }
        for b in sub_bodies(&stm.exp) {
            check_guards(b, reg, diags);
        }
    }
}

/// The immediate sub-bodies of an expression (shared by small walkers).
pub(crate) fn sub_bodies(exp: &Exp) -> Vec<&Body> {
    match exp {
        Exp::If { tb, fb, .. } => vec![tb, fb],
        Exp::Loop { body, .. } => vec![body],
        Exp::Soac(soac) => match soac {
            Soac::Map { lam, .. } | Soac::Reduce { lam, .. } | Soac::Scan { lam, .. } => {
                vec![&lam.body]
            }
            Soac::Redomap { red, map, .. } => vec![&red.body, &map.body],
            Soac::Scanomap { scan, map, .. } => vec![&scan.body, &map.body],
        },
        Exp::Seg(seg) => match &seg.kind {
            SegKind::Red { op, .. } | SegKind::Scan { op, .. } => vec![&op.body, &seg.body],
            SegKind::Map => vec![&seg.body],
        },
        _ => vec![],
    }
}
