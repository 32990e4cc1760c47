//! The exact reuse-distance histogram (`hist` in paper Algorithms 1–7).

use crate::{BinnedHistogram, Distance};
use serde::{Deserialize, Serialize};

/// Exact histogram of reuse distances with a dedicated infinity bucket.
///
/// `counts[d]` is the number of references observed with finite reuse
/// distance `d`; [`ReuseHistogram::infinite`] counts first touches (the
/// paper's `hist[∞]`). The vector grows on demand, so the memory footprint
/// is proportional to the *maximum observed* distance, which is bounded by
/// the number of distinct addresses M (or by the cache bound B under the
/// bounded algorithm).
///
/// # Examples
///
/// ```
/// use parda_hist::{Distance, ReuseHistogram};
///
/// let mut hist = ReuseHistogram::new();
/// hist.record(Distance::Infinite);        // first touch of `a`
/// hist.record(Distance::Infinite);        // first touch of `b`
/// hist.record(Distance::Finite(1));       // reuse of `a` over `b`
///
/// assert_eq!(hist.total(), 3);
/// assert_eq!(hist.infinite(), 2);
/// // A 2-line LRU cache hits the single d=1 reference:
/// assert_eq!(hist.hit_count(2), 1);
/// assert_eq!(hist.miss_count(2), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReuseHistogram {
    counts: Vec<u64>,
    infinite: u64,
    total: u64,
}

impl ReuseHistogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty histogram pre-sized for distances up to
    /// `max_distance`.
    pub fn with_max_distance(max_distance: usize) -> Self {
        Self {
            counts: vec![0; max_distance + 1],
            infinite: 0,
            total: 0,
        }
    }

    /// Record one reference at the given distance.
    #[inline]
    pub fn record(&mut self, distance: Distance) {
        match distance {
            Distance::Finite(d) => self.record_finite(d),
            Distance::Infinite => self.record_infinite(),
        }
    }

    /// Record one reference at finite distance `d`.
    #[inline]
    pub fn record_finite(&mut self, d: u64) {
        let idx = d as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Record `n` references at finite distance `d` (sampling estimators
    /// scale each observation by the inverse sampling rate).
    #[inline]
    pub fn record_finite_n(&mut self, d: u64, n: u64) {
        let idx = d as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.total += n;
    }

    /// Record one first touch (`hist[∞] += 1`).
    #[inline]
    pub fn record_infinite(&mut self) {
        self.infinite += 1;
        self.total += 1;
    }

    /// Record `n` first touches at once (rank 0 absorbing a surviving
    /// local-infinity batch in Algorithm 3 does exactly this).
    #[inline]
    pub fn record_infinite_n(&mut self, n: u64) {
        self.infinite += n;
        self.total += n;
    }

    /// Count of references with finite distance exactly `d`.
    #[inline]
    pub fn count(&self, d: u64) -> u64 {
        self.counts.get(d as usize).copied().unwrap_or(0)
    }

    /// Count of first touches.
    #[inline]
    pub fn infinite(&self) -> u64 {
        self.infinite
    }

    /// Total references recorded (finite + infinite).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total references at finite distances.
    #[inline]
    pub fn finite_total(&self) -> u64 {
        self.total - self.infinite
    }

    /// Largest finite distance with a non-zero count.
    pub fn max_distance(&self) -> Option<u64> {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|idx| idx as u64)
    }

    /// The dense finite-distance counts, index = distance.
    pub fn finite_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merge `other` into `self` — the commutative, associative
    /// `reduce_sum` of Algorithm 3.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, &src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.infinite += other.infinite;
        self.total += other.total;
    }

    /// Number of references that would *hit* in a fully associative LRU
    /// cache of `capacity` lines (distances `d < capacity`).
    pub fn hit_count(&self, capacity: u64) -> u64 {
        let end = (capacity as usize).min(self.counts.len());
        self.counts[..end].iter().sum()
    }

    /// Number of references that would *miss* in a fully associative LRU
    /// cache of `capacity` lines (capacity misses + cold misses).
    pub fn miss_count(&self, capacity: u64) -> u64 {
        self.total - self.hit_count(capacity)
    }

    /// Miss ratio for an LRU cache of `capacity` lines; 0 for an empty
    /// histogram.
    pub fn miss_ratio(&self, capacity: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.miss_count(capacity) as f64 / self.total as f64
        }
    }

    /// Miss-ratio curve sampled at each capacity in `capacities`
    /// (the classic application from the paper's introduction: one pass of
    /// reuse-distance analysis predicts *all* cache sizes at once).
    pub fn miss_ratio_curve(&self, capacities: &[u64]) -> Vec<(u64, f64)> {
        capacities
            .iter()
            .map(|&c| (c, self.miss_ratio(c)))
            .collect()
    }

    /// Mean absolute miss-ratio error against a reference histogram,
    /// sampled at `capacities`.
    ///
    /// This is the accuracy figure of merit for the approximate engines:
    /// average over the given cache sizes of `|mr_self(c) - mr_ref(c)|`.
    /// Returns 0 for an empty capacity list.
    pub fn mrc_mean_absolute_error(&self, reference: &ReuseHistogram, capacities: &[u64]) -> f64 {
        if capacities.is_empty() {
            return 0.0;
        }
        let sum: f64 = capacities
            .iter()
            .map(|&c| (self.miss_ratio(c) - reference.miss_ratio(c)).abs())
            .sum();
        sum / capacities.len() as f64
    }

    /// Miss-ratio curve at every power of two up to (and one past) the
    /// maximum observed distance.
    pub fn miss_ratio_curve_pow2(&self) -> Vec<(u64, f64)> {
        let max = self.max_distance().unwrap_or(0);
        let mut caps = Vec::new();
        let mut c = 1u64;
        loop {
            caps.push(c);
            if c > max {
                break;
            }
            c *= 2;
        }
        self.miss_ratio_curve(&caps)
    }

    /// Mean finite reuse distance, if any finite distance was recorded.
    pub fn mean_finite_distance(&self) -> Option<f64> {
        let n = self.finite_total();
        if n == 0 {
            return None;
        }
        let sum: u128 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u128 * c as u128)
            .sum();
        Some(sum as f64 / n as f64)
    }

    /// Smallest distance `d` such that at least `q` (0..=1) of the finite
    /// references have distance ≤ `d`.
    pub fn finite_distance_quantile(&self, q: f64) -> Option<u64> {
        let n = self.finite_total();
        if n == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let want = (q * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (d, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Some(d as u64);
            }
        }
        self.max_distance()
    }

    /// Collapse to a log₂-binned summary.
    pub fn to_binned(&self) -> BinnedHistogram {
        let mut binned = BinnedHistogram::new();
        for (d, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                binned.record_n(Distance::Finite(d as u64), c);
            }
        }
        if self.infinite > 0 {
            binned.record_n(Distance::Infinite, self.infinite);
        }
        binned
    }

    /// Reset all counts, keeping allocations. The result equals
    /// [`ReuseHistogram::new`].
    pub fn clear(&mut self) {
        self.counts.clear();
        self.infinite = 0;
        self.total = 0;
    }

    /// Iterate over `(distance, count)` pairs with non-zero count, finite
    /// distances in increasing order, then infinity.
    pub fn iter(&self) -> impl Iterator<Item = (Distance, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(d, &c)| (Distance::Finite(d as u64), c))
            .chain((self.infinite > 0).then_some((Distance::Infinite, self.infinite)))
    }
}

impl FromIterator<Distance> for ReuseHistogram {
    fn from_iter<I: IntoIterator<Item = Distance>>(iter: I) -> Self {
        let mut hist = Self::new();
        for d in iter {
            hist.record(d);
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table1_histogram() -> ReuseHistogram {
        // Paper Table I distances: ∞ ∞ ∞ ∞ 1 0 ∞ ∞ ∞ 5
        [
            Distance::Infinite,
            Distance::Infinite,
            Distance::Infinite,
            Distance::Infinite,
            Distance::Finite(1),
            Distance::Finite(0),
            Distance::Infinite,
            Distance::Infinite,
            Distance::Infinite,
            Distance::Finite(5),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn table1_counts() {
        let hist = table1_histogram();
        assert_eq!(hist.total(), 10);
        assert_eq!(hist.infinite(), 7);
        assert_eq!(hist.count(0), 1);
        assert_eq!(hist.count(1), 1);
        assert_eq!(hist.count(5), 1);
        assert_eq!(hist.count(2), 0);
        assert_eq!(hist.max_distance(), Some(5));
        assert_eq!(hist.finite_total(), 3);
    }

    #[test]
    fn hit_miss_counts_by_capacity() {
        let hist = table1_histogram();
        assert_eq!(hist.hit_count(0), 0);
        assert_eq!(hist.hit_count(1), 1); // only d=0
        assert_eq!(hist.hit_count(2), 2); // d=0, d=1
        assert_eq!(hist.hit_count(6), 3); // all finite
        assert_eq!(hist.hit_count(1_000_000), 3);
        assert_eq!(hist.miss_count(6), 7);
        assert!((hist.miss_ratio(6) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn mrc_mean_absolute_error_averages_pointwise_gaps() {
        let exact = table1_histogram();
        assert_eq!(exact.mrc_mean_absolute_error(&exact, &[1, 2, 6]), 0.0);
        assert_eq!(exact.mrc_mean_absolute_error(&exact, &[]), 0.0);
        // A histogram with one of the finite hits pushed past capacity 2
        // differs by exactly 0.1 at capacities 2..=5 and agrees elsewhere.
        let mut approx = ReuseHistogram::new();
        approx.record_finite(0);
        approx.record_finite(5);
        approx.record_finite(5);
        approx.record_infinite_n(7);
        let err = approx.mrc_mean_absolute_error(&exact, &[1, 2, 6]);
        assert!((err - 0.1 / 3.0).abs() < 1e-12, "{err}");
    }

    #[test]
    fn merge_is_commutative_sum() {
        let mut a = table1_histogram();
        let mut b = ReuseHistogram::new();
        b.record_finite(100);
        b.record_infinite_n(5);

        let mut ab = a.clone();
        ab.merge(&b);
        b.merge(&a);
        a = ab;
        assert_eq!(a, b);
        assert_eq!(a.total(), 16);
        assert_eq!(a.infinite(), 12);
        assert_eq!(a.count(100), 1);
    }

    #[test]
    fn mean_and_quantiles() {
        let mut hist = ReuseHistogram::new();
        for d in [0u64, 0, 10, 10, 10, 100] {
            hist.record_finite(d);
        }
        let mean = hist.mean_finite_distance().unwrap();
        assert!((mean - (0.0 + 0.0 + 10.0 * 3.0 + 100.0) / 6.0).abs() < 1e-12);
        assert_eq!(hist.finite_distance_quantile(0.5), Some(10));
        assert_eq!(hist.finite_distance_quantile(1.0), Some(100));
        assert_eq!(hist.finite_distance_quantile(0.1), Some(0));
        assert_eq!(ReuseHistogram::new().mean_finite_distance(), None);
    }

    #[test]
    fn mrc_is_monotone_nonincreasing() {
        let hist = table1_histogram();
        let curve = hist.miss_ratio_curve_pow2();
        for pair in curve.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1,
                "MRC must be non-increasing: {curve:?}"
            );
        }
        // Cold misses bound the asymptote.
        let last = curve.last().unwrap().1;
        assert!((last - 0.7).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_nonzero_entries_in_order() {
        let hist = table1_histogram();
        let entries: Vec<_> = hist.iter().collect();
        assert_eq!(
            entries,
            vec![
                (Distance::Finite(0), 1),
                (Distance::Finite(1), 1),
                (Distance::Finite(5), 1),
                (Distance::Infinite, 7),
            ]
        );
    }

    #[test]
    fn clear_keeps_capacity_zeroes_counts() {
        let mut hist = table1_histogram();
        hist.clear();
        assert_eq!(hist.total(), 0);
        assert_eq!(hist.infinite(), 0);
        assert_eq!(hist.max_distance(), None);
        assert_eq!(hist, ReuseHistogram::new());
    }

    #[test]
    fn serde_round_trip() {
        let hist = table1_histogram();
        let json = serde_json::to_string(&hist).unwrap();
        let back: ReuseHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(hist, back);
    }

    proptest! {
        /// total == infinite + sum(finite) under arbitrary recordings, and
        /// hit_count is monotone in capacity.
        #[test]
        fn invariants_hold(distances in proptest::collection::vec(
            prop_oneof![ (0u64..2_000).prop_map(Distance::Finite), Just(Distance::Infinite) ],
            0..500,
        )) {
            let hist: ReuseHistogram = distances.iter().copied().collect();
            let finite_sum: u64 = hist.finite_counts().iter().sum();
            prop_assert_eq!(hist.total(), finite_sum + hist.infinite());
            let mut prev = 0;
            for cap in [0u64, 1, 2, 4, 1_024, 4_096] {
                let h = hist.hit_count(cap);
                prop_assert!(h >= prev);
                prev = h;
            }
            prop_assert_eq!(hist.hit_count(u64::from(u32::MAX)), hist.finite_total());
        }

        /// merge(a, b).total == a.total + b.total and per-bucket sums match.
        #[test]
        fn merge_adds_pointwise(
            a in proptest::collection::vec(0u64..64, 0..100),
            b in proptest::collection::vec(0u64..64, 0..100),
        ) {
            let ha: ReuseHistogram = a.iter().map(|&d| Distance::Finite(d)).collect();
            let hb: ReuseHistogram = b.iter().map(|&d| Distance::Finite(d)).collect();
            let mut merged = ha.clone();
            merged.merge(&hb);
            prop_assert_eq!(merged.total(), ha.total() + hb.total());
            for d in 0..64u64 {
                prop_assert_eq!(merged.count(d), ha.count(d) + hb.count(d));
            }
        }
    }
}
