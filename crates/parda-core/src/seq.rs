//! Sequential reuse-distance analysis: the paper's Section III.
//!
//! [`analyze_sequential`] is Algorithm 1 (tree-based, O(N log M)): one
//! [`Engine`] over the whole trace as one chunk; [`analyze_naive`] is the
//! Section III-A stack algorithm (O(N·M)), kept as the obviously-correct
//! baseline. [`analyze_with`] reports every reference's distance to a
//! callback.

use crate::engine::{Engine, MissSink};
use parda_hist::ReuseHistogram;
use parda_obs::{RankMetrics, Stopwatch};
use parda_trace::Addr;
use parda_tree::{NaiveStack, ReuseTree};

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
    let mut engine: Engine<T> = Engine::new(bound, trace.len());
    engine.process_chunk(trace, 0, MissSink::Infinite);
    let rm = RankMetrics {
        rank: 0,
        refs: trace.len() as u64,
        chunk_ns: sw.ns(),
        engine: engine.metrics().clone(),
        ..Default::default()
    };
    (engine.into_histogram(), rm)
}

/// Sequential analysis with a per-reference observer: `observe(index, addr,
/// distance)` is called for every reference in trace order.
///
/// This is the hook that downstream applications build on — per-object
/// histograms ([`crate::object`]), phase detection, per-instruction
/// attribution — without re-implementing Algorithm 1. The unbounded exact
/// distance is reported (no Algorithm 7 cap), since consumers typically
/// re-bin themselves. The tree makes room for the whole trace up front,
/// so no compaction ever moves a key: each reference's key is its index.
pub fn analyze_with<T, F>(trace: &[Addr], mut observe: F) -> ReuseHistogram
where
    T: ReuseTree + Default,
    F: FnMut(usize, Addr, parda_hist::Distance),
{
    use parda_hash::LastAccessTable;
    let mut tree = T::default();
    // An empty tree has no key to move, and the table none to relabel.
    let _ = tree.make_room(trace.len());
    let mut table = LastAccessTable::new();
    let mut hist = ReuseHistogram::new();
    for (i, &z) in trace.iter().enumerate() {
        let distance = match table.last_access(z) {
            Some(k0) => {
                let d = tree
                    .distance_and_remove(k0)
                    .expect("table and tree are kept in sync");
                parda_hist::Distance::Finite(d)
            }
            None => parda_hist::Distance::Infinite,
        };
        hist.record(distance);
        observe(i, z, distance);
        let key = tree.append(i as u64);
        table.record(z, key);
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
    use parda_tree::{AvlTree, SplayTree, Treap, VectorTree};
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
    fn observer_sees_every_distance_in_trace_order() {
        let trace: Vec<Addr> = (0..300).map(|i| (i * 13) % 41).collect();
        let mut seen = Vec::new();
        let hist = analyze_with::<VectorTree, _>(&trace, |i, z, d| seen.push((i, z, d)));
        assert_eq!(hist, analyze_sequential::<AvlTree>(&trace, None));
        assert_eq!(seen.len(), 300);
        assert!(seen
            .iter()
            .enumerate()
            .all(|(j, &(i, z, _))| i == j && z == trace[j]));
        let mut replay = ReuseHistogram::new();
        for &(_, _, d) in &seen {
            replay.record(d);
        }
        assert_eq!(replay, hist);
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
