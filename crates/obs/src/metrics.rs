//! Typed metric registries: monotonic counters and log2-bucket
//! histograms.
//!
//! Counters are lock-free after creation (an `Arc<AtomicU64>` handle),
//! so hot compiler/simulator loops can increment without taking the
//! registry lock. Histograms bucket by `ceil(log2(v))`, which suits the
//! quantities measured here (cycle counts, sizes) where order of
//! magnitude matters more than exact shape.

use parking_lot::Mutex;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Handle to a monotonic counter. Cloning shares the underlying cell.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

const HIST_BUCKETS: usize = 65;

/// Histogram over `u64` values with buckets `[0], (2^k-1, 2^k]`.
pub struct Histogram {
    /// `buckets[k]` counts values `v` with `ceil_log2(v) == k` (0 for 0).
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn observe(&self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            64 - (value - 1).leading_zeros() as usize
        };
        self.buckets[bucket.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(k, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then_some((k as u32, c))
                })
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one histogram; `buckets` holds only non-empty
/// `(log2_bucket, count)` pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets.
    ///
    /// The bucket is the one holding the nearest-rank observation (the
    /// `⌈q·count⌉`-th smallest). Its value is only known to lie within
    /// the bucket's range `(2^(k-1), 2^k]` (or `[0, 1]` for bucket 0),
    /// so the estimate interpolates linearly by rank within that range
    /// and is clamped to the observed maximum. Exact when all
    /// observations share a bucket boundary; otherwise accurate to
    /// within a factor of 2 — plenty for the order-of-magnitude
    /// quantities recorded here.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // Every observation ≤ max, so sum == count·max iff all of them
        // *equal* max — every quantile is exactly max, and the in-bucket
        // interpolation below would understate it.
        if self.sum == self.count.saturating_mul(self.max) {
            return self.max as f64;
        }
        let q = q.clamp(0.0, 1.0);
        // Index in [0, count-1] of the nearest-rank observation.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count) - 1;
        let mut below = 0u64;
        for &(k, c) in &self.buckets {
            if rank < below + c {
                let (lo, hi) = if k == 0 {
                    (0.0, 1.0)
                } else {
                    (2f64.powi(k as i32 - 1), 2f64.powi(k as i32))
                };
                // Position of the rank inside this bucket, in (0, 1].
                let frac = (rank - below + 1) as f64 / c as f64;
                return (lo + (hi - lo) * frac).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("count", Value::from(self.count)),
            ("sum", Value::from(self.sum)),
            ("max", Value::from(self.max)),
            ("mean", Value::from(self.mean())),
            ("p50", Value::from(self.p50())),
            ("p90", Value::from(self.p90())),
            ("p99", Value::from(self.p99())),
            (
                "log2_buckets",
                Value::Array(
                    self.buckets
                        .iter()
                        .map(|(k, c)| Value::Array(vec![Value::from(*k), Value::from(*c)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Named counters and histograms, created on first use.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Fetch (creating if absent) the counter with this name.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// `counter(name).add(n)` without keeping the handle.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Fetch (creating if absent) the histogram with this name.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// `histogram(name).observe(v)` without keeping the handle.
    pub fn observe(&self, name: &str, value: u64) {
        self.histogram(name).observe(value);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zero every metric, keeping existing handles valid.
    pub fn reset(&self) {
        for c in self.counters.lock().values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for h in self.histograms.lock().values() {
            h.reset();
        }
    }
}

/// Point-in-time copy of a whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    pub fn to_json(&self) -> Value {
        Value::object(vec![
            (
                "counters",
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::from(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x").get(), 5);
        assert_eq!(reg.snapshot().counter("x"), Some(5));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1034);
        assert_eq!(snap.max, 1024);
        // 0 -> bucket 0; 1 -> 0; 2 -> 1; 3,4 -> 2; 1024 -> 10.
        assert_eq!(snap.buckets, vec![(0, 2), (1, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("y");
        c.add(7);
        reg.observe("h", 3);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(reg.snapshot().counter("y"), Some(1));
        assert_eq!(reg.histogram("h").count(), 0);
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        // Each quantile must land within a factor of 2 of the true
        // value and never exceed the observed max.
        for (q, truth) in [(0.5, 50.0), (0.9, 90.0), (0.99, 99.0)] {
            let est = snap.quantile(q);
            assert!(
                est >= truth / 2.0 && est <= truth * 2.0 && est <= 100.0,
                "q={q}: estimate {est} too far from {truth}"
            );
        }
        assert!(snap.p50() <= snap.p90());
        assert!(snap.p90() <= snap.p99());
        assert!(snap.p99() <= snap.max as f64);
        assert!(snap.quantile(0.0) > 0.0);

        // Degenerate cases.
        assert_eq!(HistogramSnapshot { count: 0, sum: 0, max: 0, buckets: vec![] }.p50(), 0.0);
        let single = Histogram::default();
        single.observe(1024);
        let s = single.snapshot();
        assert!(s.p50() > 512.0 && s.p50() <= 1024.0);
        assert_eq!(s.p99(), s.p50());
    }

    #[test]
    fn quantile_estimate_stays_within_its_bucket() {
        // Values 3, 4, 1024: buckets [(2, 2), (10, 1)]. q = 0.6 gives
        // fractional rank 1.2 inside the first bucket (range 2..4);
        // the unclamped interpolation used to produce 4.2, outside the
        // bucket that rank lands in, and only the *global* max (1024)
        // clamped it.
        let h = Histogram::default();
        for v in [3u64, 4, 1024] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(2, 2), (10, 1)]);
        let est = snap.quantile(0.6);
        assert!(
            (2.0..=4.0).contains(&est),
            "q=0.6 rank lands in bucket 2..4, got {est}"
        );
    }

    #[test]
    fn small_counts_pick_the_nearest_rank_bucket() {
        // The nearest-rank observation of p90 and p99 is 98, in the
        // (64, 128] bucket, which the max clamps; p50's is 12, in (8, 16].
        let h = Histogram::default();
        for v in [12u64, 98] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.p50(), 16.0);
        assert_eq!(snap.p90(), 98.0);
        assert_eq!(snap.p99(), 98.0);
    }

    #[test]
    fn quantiles_are_ordered_for_every_small_multiset() {
        const VALUES: [u64; 6] = [0, 1, 3, 12, 98, 1000];
        // Every multiset of up to 6 values, as non-decreasing index lists.
        fn visit(picked: &mut Vec<u64>, from: usize, seen: &mut usize) {
            let h = Histogram::default();
            for &v in picked.iter() {
                h.observe(v);
            }
            let s = h.snapshot();
            let qs = [s.p50(), s.p90(), s.p99(), s.max as f64];
            assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{picked:?}: {qs:?}");
            *seen += 1;
            if picked.len() < 6 {
                for (i, &v) in VALUES.iter().enumerate().skip(from) {
                    picked.push(v);
                    visit(picked, i, seen);
                    picked.pop();
                }
            }
        }
        let mut seen = 0;
        visit(&mut Vec::new(), 0, &mut seen);
        assert_eq!(seen, 924, "C(12, 6) multisets of size 0..=6");
    }

    #[test]
    fn all_equal_observations_have_exact_quantiles() {
        // When every observation is the same value, all quantiles are
        // exactly that value — interpolation from the bucket's lower
        // bound would understate it (e.g. ~682 for three 1024s).
        let h = Histogram::default();
        for _ in 0..3 {
            h.observe(1024);
        }
        let snap = h.snapshot();
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            assert_eq!(snap.quantile(q), 1024.0, "q={q}");
        }
        // A single observation is the ultimate all-equal histogram.
        let one = Histogram::default();
        one.observe(7);
        assert_eq!(one.snapshot().p50(), 7.0);
        // All-zero observations: max = 0, quantiles are 0 exactly.
        let zeros = Histogram::default();
        zeros.observe(0);
        zeros.observe(0);
        assert_eq!(zeros.snapshot().p90(), 0.0);
    }

    #[test]
    fn snapshot_json_includes_quantiles() {
        let h = Histogram::default();
        for v in [10u64, 20, 4000] {
            h.observe(v);
        }
        let json = h.snapshot().to_json();
        for field in ["p50", "p90", "p99"] {
            let v = json.get(field).and_then(Value::as_f64).unwrap();
            assert!(v > 0.0, "{field} = {v}");
        }
    }

    #[test]
    fn snapshot_serializes() {
        let reg = MetricsRegistry::new();
        reg.add("a.b", 3);
        reg.observe("lat", 100);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json.get("counters").unwrap().get("a.b").unwrap().as_u64(),
            Some(3)
        );
        let lat = json.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(1));
    }
}
