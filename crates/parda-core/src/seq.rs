//! Sequential reuse-distance analysis: the paper's Section III.
//!
//! [`analyze_sequential`] is Algorithm 1 (tree-based, O(N log M));
//! [`analyze_naive`] is the Section III-A stack algorithm (O(N·M)), kept as
//! the obviously-correct baseline. [`SequentialAnalyzer`] exposes the same
//! engine incrementally for online/streaming use.

use crate::engine::{Engine, MissSink};
use parda_hist::ReuseHistogram;
use parda_obs::{EngineMetrics, RankMetrics, Stopwatch};
use parda_trace::Addr;
use parda_tree::{NaiveStack, ReuseTree};

/// Incremental sequential analyzer (Algorithm 1 driven reference by
/// reference).
///
/// # Examples
///
/// ```
/// use parda_core::seq::SequentialAnalyzer;
/// use parda_tree::SplayTree;
///
/// let mut analyzer: SequentialAnalyzer<SplayTree> = SequentialAnalyzer::new(None);
/// for addr in [1u64, 2, 1, 1] {
///     analyzer.process(addr);
/// }
/// let hist = analyzer.finish();
/// assert_eq!(hist.infinite(), 2);
/// assert_eq!(hist.count(0), 1);
/// assert_eq!(hist.count(1), 1);
/// ```
pub struct SequentialAnalyzer<T: ReuseTree> {
    engine: Engine<T>,
    next_ts: u64,
}

impl<T: ReuseTree + Default> SequentialAnalyzer<T> {
    /// Create an analyzer; `bound` enables Algorithm 7 capping.
    pub fn new(bound: Option<u64>) -> Self {
        Self::with_capacity(bound, 0)
    }

    /// [`Self::new`] with a capacity hint: the expected trace length, used
    /// to pre-size the engine's hash table and tree arena.
    pub fn with_capacity(bound: Option<u64>, capacity_hint: usize) -> Self {
        Self {
            engine: Engine::new(bound, capacity_hint),
            next_ts: 0,
        }
    }

    /// Process one reference.
    pub fn process(&mut self, addr: Addr) {
        self.engine
            .process_chunk(&[addr], self.next_ts, MissSink::Infinite);
        self.next_ts += 1;
    }

    /// Process a batch of references.
    pub fn process_all(&mut self, addrs: &[Addr]) {
        self.engine
            .process_chunk(addrs, self.next_ts, MissSink::Infinite);
        self.next_ts += addrs.len() as u64;
    }

    /// References processed so far.
    pub fn processed(&self) -> u64 {
        self.next_ts
    }

    /// The histogram accumulated so far.
    pub fn histogram(&self) -> &ReuseHistogram {
        self.engine.histogram()
    }

    /// Engine counters accumulated so far (tree ops, hits, live-set
    /// high-water mark, …).
    pub fn metrics(&self) -> &EngineMetrics {
        self.engine.metrics()
    }

    /// Finish, returning the histogram.
    pub fn finish(self) -> ReuseHistogram {
        self.engine.into_histogram()
    }
}

/// Paper Algorithm 1: sequential tree-based reuse distance analysis.
/// `bound` enables the Algorithm 7 cap (distances ≥ bound become ∞).
pub fn analyze_sequential<T: ReuseTree + Default>(
    trace: &[Addr],
    bound: Option<u64>,
) -> ReuseHistogram {
    analyze_sequential_with_stats::<T>(trace, bound).0
}

/// [`analyze_sequential`] plus the observability breakdown: a single
/// rank-0 [`RankMetrics`] whose `chunk_ns` covers the whole pass (there is
/// no cascade in the sequential algorithm).
pub fn analyze_sequential_with_stats<T: ReuseTree + Default>(
    trace: &[Addr],
    bound: Option<u64>,
) -> (ReuseHistogram, RankMetrics) {
    let sw = Stopwatch::start();
    let mut analyzer: SequentialAnalyzer<T> = SequentialAnalyzer::with_capacity(bound, trace.len());
    analyzer.process_all(trace);
    let rm = RankMetrics {
        rank: 0,
        refs: trace.len() as u64,
        chunk_ns: sw.ns(),
        engine: analyzer.metrics().clone(),
        ..Default::default()
    };
    (analyzer.finish(), rm)
}

/// Sequential analysis with a per-reference observer: `observe(index, addr,
/// distance)` is called for every reference in trace order.
///
/// This is the hook that downstream applications build on — per-object
/// histograms ([`crate::object`]), phase detection, per-instruction
/// attribution — without re-implementing Algorithm 1. The unbounded exact
/// distance is reported (no Algorithm 7 cap), since consumers typically
/// re-bin themselves.
pub fn analyze_with<T, F>(trace: &[Addr], mut observe: F) -> ReuseHistogram
where
    T: ReuseTree + Default,
    F: FnMut(usize, Addr, parda_hist::Distance),
{
    use parda_hash::LastAccessTable;
    let mut tree = T::default();
    let mut table = LastAccessTable::new();
    let mut hist = ReuseHistogram::new();
    for (i, &z) in trace.iter().enumerate() {
        let ts = i as u64;
        let distance = match table.last_access(z) {
            Some(t0) => {
                let d = tree
                    .distance_and_remove(t0)
                    .expect("table and tree are kept in sync");
                parda_hist::Distance::Finite(d)
            }
            None => parda_hist::Distance::Infinite,
        };
        hist.record(distance);
        observe(i, z, distance);
        tree.insert(ts, z);
        table.record(z, ts);
    }
    hist
}

/// Paper Section III-A: the O(N·M) naïve stack algorithm.
pub fn analyze_naive(trace: &[Addr]) -> ReuseHistogram {
    let mut stack = NaiveStack::new();
    let mut hist = ReuseHistogram::new();
    for &addr in trace {
        match stack.access(addr) {
            Some(d) => hist.record_finite(d),
            None => hist.record_infinite(),
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use parda_tree::{AvlTree, SplayTree, Treap};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn labels(s: &str) -> Vec<Addr> {
        s.bytes().map(u64::from).collect()
    }

    #[test]
    fn table1_matches_paper() {
        let trace = labels("dacbccgefa");
        let hist = analyze_sequential::<SplayTree>(&trace, None);
        assert_eq!(hist.infinite(), 7);
        assert_eq!(hist.count(0), 1);
        assert_eq!(hist.count(1), 1);
        assert_eq!(hist.count(5), 1);
        assert_eq!(hist, analyze_naive(&trace));
    }

    #[test]
    fn incremental_equals_batch() {
        let trace: Vec<Addr> = (0..300).map(|i| (i * 13) % 41).collect();
        let mut inc: SequentialAnalyzer<AvlTree> = SequentialAnalyzer::new(None);
        for &a in &trace {
            inc.process(a);
        }
        assert_eq!(inc.processed(), 300);
        assert_eq!(inc.finish(), analyze_sequential::<AvlTree>(&trace, None));
    }

    #[test]
    fn empty_trace_yields_empty_histogram() {
        let hist = analyze_sequential::<SplayTree>(&[], None);
        assert_eq!(hist.total(), 0);
        assert_eq!(analyze_naive(&[]).total(), 0);
    }

    #[test]
    fn single_address_trace() {
        let trace = vec![42u64; 100];
        let hist = analyze_sequential::<Treap>(&trace, None);
        assert_eq!(hist.infinite(), 1);
        assert_eq!(hist.count(0), 99);
    }

    #[test]
    fn bounded_matches_unbounded_below_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let trace: Vec<Addr> = (0..5_000).map(|_| rng.gen_range(0..200)).collect();
        let full = analyze_sequential::<SplayTree>(&trace, None);
        let bounded = analyze_sequential::<SplayTree>(&trace, Some(64));
        for d in 0..64u64 {
            assert_eq!(full.count(d), bounded.count(d), "distance {d}");
        }
        // Everything at d ≥ 64 is lumped into ∞.
        let lumped: u64 = (64..=full.max_distance().unwrap_or(0))
            .map(|d| full.count(d))
            .sum();
        assert_eq!(bounded.infinite(), full.infinite() + lumped);
        assert_eq!(bounded.total(), full.total());
    }

    #[test]
    fn bound_larger_than_footprint_changes_nothing() {
        let trace: Vec<Addr> = (0..2_000).map(|i| (i * 7) % 100).collect();
        assert_eq!(
            analyze_sequential::<SplayTree>(&trace, Some(1_000)),
            analyze_sequential::<SplayTree>(&trace, None)
        );
    }

    proptest! {
        /// All three tree engines and the naïve stack agree on arbitrary
        /// traces — four independent implementations, one answer.
        #[test]
        fn engines_agree(trace in proptest::collection::vec(0u64..64, 0..400)) {
            let naive = analyze_naive(&trace);
            prop_assert_eq!(&analyze_sequential::<SplayTree>(&trace, None), &naive);
            prop_assert_eq!(&analyze_sequential::<AvlTree>(&trace, None), &naive);
            prop_assert_eq!(&analyze_sequential::<Treap>(&trace, None), &naive);
        }

        /// The histogram-predicted hit count for capacity C equals a direct
        /// LRU simulation of size C — the fundamental identity that makes
        /// reuse distance useful (paper Section II).
        #[test]
        fn histogram_predicts_lru_hits(
            trace in proptest::collection::vec(0u64..64, 0..400),
            capacity in 1u64..32,
        ) {
            let hist = analyze_sequential::<SplayTree>(&trace, None);
            let mut cache = parda_cachesim::LruCache::new(capacity as usize);
            let stats = cache.run_trace(&trace);
            prop_assert_eq!(hist.hit_count(capacity), stats.hits);
            prop_assert_eq!(hist.miss_count(capacity), stats.misses);
        }

        /// Bounded analysis with B ≥ M is exact.
        #[test]
        fn bounded_with_large_b_is_exact(trace in proptest::collection::vec(0u64..32, 0..300)) {
            let full = analyze_sequential::<AvlTree>(&trace, None);
            let bounded = analyze_sequential::<AvlTree>(&trace, Some(64));
            prop_assert_eq!(full, bounded);
        }
    }
}
