//! Threshold parameters and the branching tree of code versions.
//!
//! Every application of rule G3/G9 mints fresh threshold parameters. Like
//! Futhark's implementation, each threshold records the *path* of
//! ancestor comparisons under which its guard is reachable — this is the
//! branching-tree structure (Fig. 5) that the autotuner exploits to
//! short-circuit duplicate parameter assignments (§4.2).

use flat_ir::prov::Prov;
use flat_ir::ThresholdId;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Guard outcomes, one per threshold, in tree order.
type Decisions = Vec<(ThresholdId, bool)>;

/// What a threshold guards.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ThresholdKind {
    /// "Is the outer parallelism alone sufficient?" — guards `e_top`.
    SuffOuter,
    /// "Is outer × intra-group parallelism sufficient?" — guards
    /// `e_middle`.
    SuffIntra,
}

/// Metadata for one threshold parameter.
#[derive(Clone, Debug)]
pub struct ThresholdInfo {
    pub id: ThresholdId,
    /// Human-readable name, e.g. `suff_outer_par_2`.
    pub name: String,
    pub kind: ThresholdKind,
    /// The comparisons (and their required outcomes) that must hold for
    /// this threshold's guard to be evaluated at run time.
    pub path: Vec<(ThresholdId, bool)>,
    /// Provenance of the source construct (map nest / redomap) whose
    /// versions this threshold guards.
    pub prov: Prov,
}

/// The registry of all thresholds minted while flattening one program.
#[derive(Clone, Debug, Default)]
pub struct ThresholdRegistry {
    infos: Vec<ThresholdInfo>,
}

impl ThresholdRegistry {
    pub fn new() -> ThresholdRegistry {
        ThresholdRegistry::default()
    }

    pub fn fresh(
        &mut self,
        kind: ThresholdKind,
        path: &[(ThresholdId, bool)],
    ) -> ThresholdId {
        self.fresh_at(kind, path, Prov::UNKNOWN)
    }

    /// Mint a threshold recording the provenance of the construct whose
    /// versions it guards.
    pub fn fresh_at(
        &mut self,
        kind: ThresholdKind,
        path: &[(ThresholdId, bool)],
        prov: Prov,
    ) -> ThresholdId {
        let id = ThresholdId(self.infos.len() as u32);
        let prefix = match kind {
            ThresholdKind::SuffOuter => "suff_outer_par",
            ThresholdKind::SuffIntra => "suff_intra_par",
        };
        self.infos.push(ThresholdInfo {
            id,
            name: format!("{prefix}_{}", id.0),
            kind,
            path: path.to_vec(),
            prov,
        });
        id
    }

    /// Overwrite a threshold's name. The compiler itself never renames
    /// thresholds; this exists so `flat-verify`'s negative tests can
    /// corrupt a registry deliberately (rule V201) — and so external
    /// tools could attach semantic names if they ever need to.
    pub fn set_name(&mut self, id: ThresholdId, name: impl Into<String>) {
        self.infos[id.0 as usize].name = name.into();
    }

    pub fn len(&self) -> usize {
        self.infos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    pub fn ids(&self) -> impl Iterator<Item = ThresholdId> + '_ {
        self.infos.iter().map(|i| i.id)
    }

    pub fn info(&self, id: ThresholdId) -> &ThresholdInfo {
        &self.infos[id.0 as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = &ThresholdInfo> {
        self.infos.iter()
    }

    /// The children of a node in the branching tree: thresholds whose
    /// path is exactly `parent_path` (root: empty path).
    fn children_of(&self, parent_path: &[(ThresholdId, bool)]) -> Vec<&ThresholdInfo> {
        self.infos.iter().filter(|i| i.path == parent_path).collect()
    }

    /// The one walk of the branching tree, bottom-up from the node at
    /// `prefix`: `node` folds that node's children, each paired with
    /// the folds of its subtrees under outcome `true` and `false`. A
    /// leaf is a node with no children.
    fn fold<'a, T>(
        &'a self,
        prefix: &mut Vec<(ThresholdId, bool)>,
        node: &mut impl FnMut(Vec<(&'a ThresholdInfo, T, T)>) -> T,
    ) -> T {
        let mut kids = Vec::new();
        for info in self.children_of(prefix) {
            prefix.push((info.id, true));
            let on_true = self.fold(prefix, node);
            prefix.last_mut().expect("just pushed").1 = false;
            let on_false = self.fold(prefix, node);
            prefix.pop();
            kids.push((info, on_true, on_false));
        }
        node(kids)
    }

    /// An upper bound on the number of distinct code-version paths: the
    /// number of leaves of the branching tree. Several thresholds
    /// sharing one path are independent version choices at distinct
    /// program points, so their leaf counts multiply.
    pub fn num_versions(&self) -> usize {
        self.fold(&mut Vec::new(), &mut |kids| kids.iter().map(|(_, t, f)| t + f).product())
    }

    /// Render the branching tree in the style of the paper's Fig. 5.
    pub fn render_tree(&self) -> String {
        self.fold(&mut Vec::new(), &mut |kids: Vec<(_, String, String)>| {
            let mut out = String::new();
            for (info, on_true, on_false) in kids {
                let _ = writeln!(out, "{} ({})", info.name, info.id);
                for (label, sub) in [("[true]", on_true), ("[false]", on_false)] {
                    if !sub.is_empty() {
                        let _ = writeln!(out, "  {label}");
                        for line in sub.lines() {
                            let _ = writeln!(out, "    {line}");
                        }
                    }
                }
            }
            out
        })
    }

    /// For every distinct version path, the threshold decisions that
    /// force it, in tree order. Independent siblings at one node
    /// multiply (a cartesian product), so the list is capped at `cap`.
    pub fn assignments(&self, cap: usize) -> Vec<Decisions> {
        let mut out = self.fold(&mut Vec::new(), &mut |kids: Vec<(_, Vec<Decisions>, _)>| {
            let mut product: Vec<Decisions> = vec![Vec::new()];
            for (info, on_true, on_false) in kids {
                let mut options: Vec<Decisions> = Vec::new();
                for (taken, subs) in [(true, on_true), (false, on_false)] {
                    for sub in subs {
                        let mut opt = vec![(info.id, taken)];
                        opt.extend(sub);
                        options.push(opt);
                    }
                }
                let mut next = Vec::new();
                'outer: for base in &product {
                    for opt in &options {
                        let mut v = base.clone();
                        v.extend(opt.iter().copied());
                        next.push(v);
                        if next.len() >= cap {
                            break 'outer;
                        }
                    }
                }
                product = next;
            }
            product
        });
        out.truncate(cap);
        // Sibling products can repeat when capped.
        let mut seen = BTreeSet::new();
        out.retain(|a| seen.insert(a.clone()));
        out
    }

    /// Whether a path signature is one the tree admits: every compared
    /// threshold is minted, and the guards that must hold before it is
    /// reachable were observed with the required outcomes, one outcome
    /// per threshold. A signature may stop short of a leaf (a kernel
    /// launch records the path so far).
    pub fn admits(&self, sig: &[(u32, bool)]) -> bool {
        let reached = self.fold(&mut Vec::new(), &mut |kids| {
            kids.iter()
                .map(|(info, on_true, on_false)| {
                    match sig.iter().find(|(id, _)| *id == info.id.0) {
                        Some((_, true)) => 1 + on_true,
                        Some((_, false)) => 1 + on_false,
                        None => 0,
                    }
                })
                .sum::<usize>()
        });
        reached == sig.len()
    }

    /// The path taken when `decide` gives the outcome of every guard
    /// the path reaches, in tree order; `None` when it cannot decide
    /// one. `decide` is asked about guards off the path too, and those
    /// answers are ignored.
    pub fn path_under(
        &self,
        mut decide: impl FnMut(&ThresholdInfo) -> Option<bool>,
    ) -> Option<Decisions> {
        self.fold(&mut Vec::new(), &mut |kids| {
            let mut path = Vec::new();
            for (info, on_true, on_false) in kids {
                let taken = decide(info)?;
                path.push((info.id, taken));
                path.extend(if taken { on_true } else { on_false }?);
            }
            Some(path)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_thresholds_are_sequential_and_named() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        assert_eq!(a, ThresholdId(0));
        assert_eq!(b, ThresholdId(1));
        assert_eq!(reg.info(a).name, "suff_outer_par_0");
        assert_eq!(reg.info(b).name, "suff_intra_par_1");
        assert_eq!(reg.info(b).path, vec![(a, false)]);
    }

    #[test]
    fn children_and_tree_rendering() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let _b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        assert_eq!(reg.children_of(&[]).len(), 1);
        assert_eq!(reg.children_of(&[(a, false)]).len(), 1);
        assert_eq!(reg.children_of(&[(a, true)]).len(), 0);
        let tree = reg.render_tree();
        assert!(tree.contains("suff_outer_par_0"));
        assert!(tree.contains("[false]"));
    }

    #[test]
    fn version_counting() {
        let mut reg = ThresholdRegistry::new();
        assert_eq!(reg.num_versions(), 1);
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        assert_eq!(reg.num_versions(), 2);
        let _ = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        assert_eq!(reg.num_versions(), 3);
    }

    /// Fig. 5's two-level shape: t0 at the root, t1 under t0 = false.
    fn fig5() -> (ThresholdRegistry, ThresholdId, ThresholdId) {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        (reg, a, b)
    }

    #[test]
    fn tree_renders_nested_branches() {
        let (mut reg, a, b) = fig5();
        reg.fresh(ThresholdKind::SuffOuter, &[(a, false), (b, true)]);
        assert_eq!(
            reg.render_tree(),
            "suff_outer_par_0 (t0)\n  [false]\n    suff_intra_par_1 (t1)\n      [true]\n        \
             suff_outer_par_2 (t2)\n"
        );
    }

    #[test]
    fn assignments_follow_the_paper_tree_shape() {
        let (reg, a, b) = fig5();
        // Three versions: t0 taken; t0 not taken then t1 taken; neither.
        assert_eq!(
            reg.assignments(32),
            vec![vec![(a, true)], vec![(a, false), (b, true)], vec![(a, false), (b, false)]]
        );
        assert_eq!(reg.assignments(32).len(), reg.num_versions());
    }

    #[test]
    fn assignments_respect_the_cap() {
        let mut reg = ThresholdRegistry::new();
        for _ in 0..8 {
            reg.fresh(ThresholdKind::SuffOuter, &[]);
        }
        // 2^8 = 256 full combinations, capped.
        assert_eq!(reg.num_versions(), 256);
        assert_eq!(reg.assignments(16).len(), 16);
        assert!(reg.assignments(0).is_empty());
    }

    #[test]
    fn admits_ancestor_closed_signatures_only() {
        let (reg, _, _) = fig5();
        for sig in [&[][..], &[(0, true)], &[(0, false)], &[(0, false), (1, true)]] {
            assert!(reg.admits(sig), "{sig:?}");
        }
        // t1 hangs under t0 = false; t9 was never minted; one outcome
        // per threshold.
        for sig in [&[(1, true)][..], &[(0, true), (1, true)], &[(9, true)]] {
            assert!(!reg.admits(sig), "{sig:?}");
        }
        assert!(!reg.admits(&[(0, true), (0, false)]));
    }

    #[test]
    fn path_under_stops_at_an_undecided_guard() {
        let (reg, a, b) = fig5();
        assert_eq!(reg.path_under(|i| Some(i.id == b)), Some(vec![(a, false), (b, true)]));
        // t1 is unreachable when t0 is taken, so it need not be decided.
        assert_eq!(reg.path_under(|i| (i.id == a).then_some(true)), Some(vec![(a, true)]));
        assert_eq!(reg.path_under(|i| (i.id == a).then_some(false)), None);
    }
}

/// Serialize a threshold assignment in the `name=value` line format of
/// Futhark's `.tuning` files, using this registry's names. Thresholds
/// not present in the assignment are written with their default.
pub fn write_tuning(reg: &ThresholdRegistry, t: &flat_ir::interp::Thresholds) -> String {
    let mut out = String::new();
    for info in reg.iter() {
        let _ = writeln!(out, "{}={}", info.name, t.get(info.id));
    }
    out
}

/// Parse a `.tuning` file against this registry. Unknown names are an
/// error; missing names keep the default.
pub fn read_tuning(
    reg: &ThresholdRegistry,
    text: &str,
) -> Result<flat_ir::interp::Thresholds, String> {
    let mut t = flat_ir::interp::Thresholds::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected name=value", lineno + 1))?;
        let info = reg
            .iter()
            .find(|i| i.name == name.trim())
            .ok_or_else(|| format!("line {}: unknown threshold `{}`", lineno + 1, name))?;
        let v: i64 = value
            .trim()
            .parse()
            .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        t.set(info.id, v);
    }
    Ok(t)
}

#[cfg(test)]
mod tuning_file_tests {
    use super::*;
    use flat_ir::interp::Thresholds;

    fn reg2() -> (ThresholdRegistry, ThresholdId, ThresholdId) {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        (reg, a, b)
    }

    #[test]
    fn round_trips() {
        let (reg, a, b) = reg2();
        let t = Thresholds::new().with(a, 123).with(b, 1 << 20);
        let text = write_tuning(&reg, &t);
        let back = read_tuning(&reg, &text).unwrap();
        assert_eq!(back.get(a), 123);
        assert_eq!(back.get(b), 1 << 20);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (reg, a, _) = reg2();
        let t = read_tuning(&reg, "# a comment\n\nsuff_outer_par_0=7\n").unwrap();
        assert_eq!(t.get(a), 7);
    }

    #[test]
    fn unknown_name_is_an_error() {
        let (reg, _, _) = reg2();
        assert!(read_tuning(&reg, "nope=1").is_err());
    }

    #[test]
    fn malformed_line_is_an_error() {
        let (reg, _, _) = reg2();
        assert!(read_tuning(&reg, "suff_outer_par_0").is_err());
        assert!(read_tuning(&reg, "suff_outer_par_0=abc").is_err());
    }

    #[test]
    fn missing_names_keep_defaults() {
        let (reg, a, b) = reg2();
        let t = read_tuning(&reg, &format!("{}=5\n", reg.info(a).name)).unwrap();
        assert_eq!(t.get(a), 5);
        assert_eq!(t.get(b), Thresholds::DEFAULT);
    }
}
