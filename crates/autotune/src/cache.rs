//! Branching-tree path memoization (§4.2).
//!
//! Different threshold assignments frequently induce the *same* dynamic
//! path through the tree of code versions for a given dataset — e.g. for
//! `(n1, n2, n3) = (10, 20, 30)`, the assignments `(5, 15, 25)` and
//! `(6, 15, 25)` both select version V1 (the paper's example, Fig. 5).
//! Re-running the program for such duplicates is wasted work. This cache
//! records, per dataset, the parallelism degree observed at every
//! threshold comparison; given a new assignment it *predicts* the path
//! (comparisons depend only on sizes) and returns the memoized runtime
//! when the path was already measured.

use flat_ir::interp::{path_signature, Thresholds};
use flat_ir::ThresholdId;
use gpu_sim::CmpRecord;
use incflat::ThresholdRegistry;
use std::collections::HashMap;

/// A canonical path signature: sorted (threshold, outcome) pairs over the
/// comparisons actually reached.
pub type Signature = Vec<(u32, bool)>;

/// Per-dataset memoization state.
#[derive(Default, Debug, Clone)]
pub struct DatasetCache {
    /// Parallelism degrees observed per threshold. A threshold evaluated
    /// with several *different* degrees (possible when array sizes change
    /// across host-loop iterations) is recorded with all of them; a path
    /// is only predicted when every recorded degree falls on the same
    /// side of the candidate value.
    pars: HashMap<ThresholdId, Vec<i64>>,
    /// Measured runtime (cycles) per path signature.
    costs: HashMap<Signature, f64>,
}

impl DatasetCache {
    /// Record the outcome of an actual run. A run that compared one
    /// threshold with both outcomes followed no single path of the tree,
    /// so its cost answers for none: [`DatasetCache::predict`] only
    /// yields tree paths, and the run's first-wins signature may equal
    /// one that the run did not take.
    pub fn record(&mut self, path: &[CmpRecord], cycles: f64) {
        for c in path {
            let v = self.pars.entry(c.id).or_default();
            if !v.contains(&c.par) {
                v.push(c.par);
            }
        }
        let sig = path_signature(path);
        if path.iter().all(|c| sig.contains(&(c.id.0, c.taken))) {
            self.costs.insert(sig, cycles);
        }
    }

    /// Predicted outcome of one comparison under a candidate value, if
    /// unambiguous.
    fn outcome(&self, id: ThresholdId, t: i64) -> Option<bool> {
        let pars = self.pars.get(&id)?;
        let mut it = pars.iter().map(|p| *p >= t);
        let first = it.next()?;
        if it.all(|o| o == first) {
            Some(first)
        } else {
            None
        }
    }

    /// Predict the full path signature for a candidate assignment by
    /// walking the branching tree: a comparison is reached exactly when
    /// its ancestors' outcomes match, and its outcome is `par >= t`.
    /// Returns `None` when some reached comparison has never been
    /// observed (its parallelism degree is unknown).
    pub fn predict(
        &self,
        registry: &ThresholdRegistry,
        thresholds: &Thresholds,
    ) -> Option<Signature> {
        let path = registry.path_under(|info| self.outcome(info.id, thresholds.get(info.id)))?;
        Some(path_signature(&path))
    }

    /// The memoized runtime for a signature, if measured.
    pub fn lookup(&self, sig: &Signature) -> Option<f64> {
        self.costs.get(sig).copied()
    }

    /// All distinct parallelism degrees observed for a threshold.
    pub fn observed_pars(&self, id: ThresholdId) -> &[i64] {
        self.pars.get(&id).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct measured paths.
    pub fn num_paths(&self) -> usize {
        self.costs.len()
    }

    pub fn iter_costs(&self) -> impl Iterator<Item = (&Signature, f64)> {
        self.costs.iter().map(|(s, c)| (s, *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incflat::ThresholdKind;

    fn rec(id: u32, par: i64, taken: bool) -> CmpRecord {
        CmpRecord { id: ThresholdId(id), par, taken }
    }

    #[test]
    fn record_and_lookup() {
        let mut c = DatasetCache::default();
        let path = vec![rec(0, 100, false), rec(1, 500, true)];
        c.record(&path, 42.0);
        assert_eq!(c.lookup(&path_signature(&path)), Some(42.0));
        assert_eq!(c.num_paths(), 1);
        assert_eq!(c.observed_pars(ThresholdId(0)), &[100]);
    }

    #[test]
    fn prediction_follows_tree() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);

        let mut cache = DatasetCache::default();
        // One observed run: a with par=100 (false at t=2^15), then b with
        // par=5000 (false).
        cache.record(&[rec(0, 100, false), rec(1, 5000, false)], 99.0);

        // Any assignment with t_a <= 100 predicts a=true, and b is then
        // unreachable: signature = {a: true}.
        let t = Thresholds::new().with(a, 50);
        let sig = cache.predict(&reg, &t).unwrap();
        assert_eq!(sig, vec![(0, true)]);

        // t_a > 100, t_b <= 5000: a=false, b=true.
        let t2 = Thresholds::new().with(a, 1000).with(b, 1000);
        let sig2 = cache.predict(&reg, &t2).unwrap();
        assert_eq!(sig2, vec![(0, false), (1, true)]);

        // The measured path is found for the original assignment.
        let t3 = Thresholds::new().with(a, 1000).with(b, 100_000);
        let sig3 = cache.predict(&reg, &t3).unwrap();
        assert_eq!(cache.lookup(&sig3), Some(99.0));
    }

    #[test]
    fn ambiguous_pars_block_prediction() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let mut cache = DatasetCache::default();
        cache.record(&[rec(0, 100, true)], 1.0);
        cache.record(&[rec(0, 900, true)], 1.0);
        // t = 500: one observed par is below, one above — ambiguous.
        let t = Thresholds::new().with(a, 500);
        assert_eq!(cache.predict(&reg, &t), None);
        // t = 50: both above — predictable.
        let t2 = Thresholds::new().with(a, 50);
        assert!(cache.predict(&reg, &t2).is_some());
    }

    #[test]
    fn unknown_threshold_blocks_prediction() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let _b = reg.fresh(ThresholdKind::SuffIntra, &[(a, false)]);
        let mut cache = DatasetCache::default();
        // Only ever saw a=true, so b's par is unknown.
        cache.record(&[rec(0, 1 << 20, true)], 7.0);
        // a predicted true: b unreachable, prediction succeeds.
        let t_true = Thresholds::new().with(a, 1);
        assert_eq!(cache.predict(&reg, &t_true), Some(vec![(0, true)]));
        // a predicted false: the walk reaches b, whose par is unknown.
        let t_false = Thresholds::new().with(a, 1 << 21);
        assert_eq!(cache.predict(&reg, &t_false), None);
    }

    #[test]
    fn a_run_with_mixed_outcomes_answers_for_no_path() {
        let mut reg = ThresholdRegistry::new();
        let a = reg.fresh(ThresholdKind::SuffOuter, &[]);
        let mut cache = DatasetCache::default();
        // One run compared t0 twice, first refused at par 100, then
        // taken at par 900 (threshold 500).
        cache.record(&[rec(0, 100, false), rec(0, 900, true)], 5.0);
        // Above both degrees every comparison is refused: the predicted
        // path is {t0: false}, the mixed run's first-wins signature, but
        // that run did not take it.
        let sig = cache.predict(&reg, &Thresholds::new().with(a, 1000)).unwrap();
        assert_eq!(sig, vec![(0, false)]);
        assert_eq!(cache.lookup(&sig), None);
        assert_eq!(cache.num_paths(), 0);
    }
}
