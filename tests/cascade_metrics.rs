//! Cascade observability invariants: the per-rank [`RankMetrics`] emitted
//! by the parallel driver and the windowed streamer must tell a
//! self-consistent story about the infinity cascade — every forwarded
//! stream is received exactly once,
//! round vectors stay aligned, batch-delete tallies reconcile with the
//! engines' stream-hit counters, and the new merge/batch timing fields
//! never exceed the enclosing cascade time.

use parda_core::parallel::{parda_threads_with_stats, MAX_PARTS_PER_RANK};
use parda_core::phased::Reduction;
use parda_core::{Analysis, Mode, PardaConfig};
use parda_obs::RankMetrics;
use parda_trace::SliceStream;
use parda_tree::{SplayTree, Treap, TreeKind, VectorTree};
use proptest::prelude::*;

fn modular_trace(refs: usize, footprint: u64, stride: u64) -> Vec<u64> {
    (0..refs as u64).map(|i| (i * stride) % footprint).collect()
}

/// Invariants that hold for every driver and mode.
fn assert_common_invariants(metrics: &[RankMetrics]) {
    for m in metrics {
        assert_eq!(
            m.cascade_rounds as usize,
            m.round_infinity_lens.len(),
            "rank {}: one stream length per round",
            m.rank
        );
        assert_eq!(
            m.round_infinity_lens.len(),
            m.round_batch_deletes.len(),
            "rank {}: one batch-delete tally per round",
            m.rank
        );
        assert!(
            m.merge_ns + m.batch_ns <= m.cascade_ns,
            "rank {}: merge ({}) + batch ({}) exceed cascade time ({})",
            m.rank,
            m.merge_ns,
            m.batch_ns,
            m.cascade_ns
        );
    }
    // Conservation: every stream forwarded across a (virtual) rank
    // boundary is received exactly once somewhere to its left.
    let forwarded: u64 = metrics.iter().map(|m| m.infinities_forwarded).sum();
    let received: u64 = metrics
        .iter()
        .flat_map(|m| m.round_infinity_lens.iter())
        .sum();
    assert_eq!(forwarded, received, "forwarded vs received stream mass");
}

/// In the space-optimized unbounded mode, a stream element resolved during
/// an absorb round is exactly one engine stream hit — so the per-round
/// batch-delete tallies must reconcile with the engine counters.
fn assert_space_opt_accounting(metrics: &[RankMetrics]) {
    for m in metrics {
        assert_eq!(
            m.round_batch_deletes.iter().sum::<u64>(),
            m.engine.stream_hits,
            "rank {}: batch deletes vs engine stream hits",
            m.rank
        );
    }
}

#[test]
fn threads_rounds_bounded_by_subdivision() {
    let trace = modular_trace(6_000, 701, 17);
    for np in [2usize, 4] {
        // Tiny grain forces the full MAX_PARTS_PER_RANK subdivision.
        let cfg = PardaConfig::with_ranks(np).subchunk_refs(1);
        let (_, metrics) = parda_threads_with_stats::<SplayTree>(&trace, &cfg);
        assert_eq!(metrics.len(), np);
        for m in &metrics {
            // A rank's items absorb at most one stream each; only non-empty
            // streams are counted as rounds.
            assert!(
                (m.cascade_rounds as usize) <= MAX_PARTS_PER_RANK,
                "np={np} rank={} rounds={}",
                m.rank,
                m.cascade_rounds
            );
        }
        assert_common_invariants(&metrics);
        assert_space_opt_accounting(&metrics);
    }
}

#[test]
fn batched_rounds_populate_delete_and_timing_fields() {
    // Dense reuse across chunk boundaries: most forwarded infinities
    // resolve in the left neighbour, so the absorb rounds actually delete
    // from the trees and the batched path records its timings.
    let trace = modular_trace(20_000, 997, 1);
    let cfg = PardaConfig::with_ranks(4);
    let (_, metrics) = parda_threads_with_stats::<SplayTree>(&trace, &cfg);
    assert_common_invariants(&metrics);
    assert_space_opt_accounting(&metrics);
    let total_deletes: u64 = metrics
        .iter()
        .flat_map(|m| m.round_batch_deletes.iter())
        .sum();
    assert!(
        total_deletes > 0,
        "dense trace must resolve stream infinities"
    );
    // The stream at each boundary is ~997 elements — far above the
    // engine's batching threshold — so the merge pass must have been timed
    // on at least one rank. (Individual rounds can still measure 0 ns on a
    // coarse clock; the sum across ranks of a 20k-ref run cannot.)
    let merge_total: u64 = metrics.iter().map(|m| m.merge_ns).sum();
    assert!(
        merge_total > 0,
        "batched absorb rounds must record merge time"
    );
}

#[test]
fn streamed_report_conserves_cascade_mass() {
    // Many windows, items subdivided within each: streams cross item
    // boundaries inside every window, and what reaches a window's left
    // edge goes to the history, which is no item and forwards nothing.
    let trace = modular_trace(30_000, 2_053, 7);
    for (np, grain) in [(2usize, 1_000usize), (4, 100)] {
        let (hist, report) = Analysis::new()
            .ranks(np)
            .tree(TreeKind::Avl)
            .subchunk_refs(grain)
            .mode(Mode::Phased {
                chunk: 1_500,
                reduction: Reduction::ShipToRankZero,
            })
            .stats(true)
            .run_stream(SliceStream::new(&trace));
        let report = report.expect("stats requested");
        assert_eq!(report.per_rank.len(), np);
        assert_eq!(report.total_rank_refs(), 30_000);
        assert_common_invariants(&report.per_rank);
        assert_space_opt_accounting(&report.per_rank);
        let phased = report.phased.expect("streamed runs report windows");
        assert_eq!(phased.phases, 30_000u64.div_ceil((np * 1_500) as u64));
        assert_eq!(phased.phase_reduction_ns.len() as u64, phased.phases);
        // Items forward first touches; only the history records them.
        let item_cold: u64 = report.per_rank.iter().map(|m| m.engine.cold_misses).sum();
        assert_eq!(item_cold + phased.history.cold_misses, hist.infinite());
    }
}

#[test]
fn relabels_run_only_in_the_history() {
    // Each item engine starts its chunk empty and makes room for all of
    // it, so it never compacts; the history compacts once its axis fills
    // with slots the windows' hits have emptied.
    let trace = modular_trace(60_000, 5_003, 7);
    let (hist, report) = Analysis::new()
        .ranks(2)
        .tree(TreeKind::Vector)
        .mode(Mode::Phased {
            chunk: 500,
            reduction: Reduction::ShipToRankZero,
        })
        .stats(true)
        .run_stream(SliceStream::new(&trace));
    let report = report.expect("stats requested");
    assert_eq!(hist.total(), 60_000);
    for m in &report.per_rank {
        assert_eq!(m.engine.relabels, 0, "rank {} relabelled", m.rank);
    }
    let phased = report.phased.expect("streamed runs report windows");
    assert!(phased.phases > 1);
    assert!(
        phased.history.relabels >= 1,
        "the history compacted {} times",
        phased.history.relabels
    );

    // One window: items only, no history.
    let (one, report) = Analysis::new()
        .ranks(4)
        .tree(TreeKind::Vector)
        .mode(Mode::Threads)
        .stats(true)
        .run(&trace);
    assert_eq!(one, hist);
    let report = report.expect("stats requested");
    for m in &report.per_rank {
        assert_eq!(m.engine.relabels, 0, "rank {} relabelled", m.rank);
    }
    if let Some(phased) = report.phased {
        assert_eq!(phased.history.relabels, 0);
    }
}

proptest! {
    /// The invariants hold for every trace shape, rank count, tree, and
    /// subdivision grain.
    #[test]
    fn cascade_invariants_prop(
        trace in proptest::collection::vec(0u64..128, 0..600),
        np in 2usize..6,
        grain in 1usize..300,
    ) {
        let cfg = PardaConfig::with_ranks(np);
        let (_, whole) = parda_threads_with_stats::<Treap>(&trace, &cfg);
        assert_common_invariants(&whole);
        assert_space_opt_accounting(&whole);

        let sub = cfg.subchunk_refs(grain);
        let (_, threads) = parda_threads_with_stats::<VectorTree>(&trace, &sub);
        assert_common_invariants(&threads);
        assert_space_opt_accounting(&threads);
    }
}
