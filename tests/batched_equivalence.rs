//! Batched-vs-scalar engine equivalence: the prefetch-batched hot path of
//! [`Engine::process_chunk`] must be bit-identical to the scalar reference
//! loop ([`Engine::process_chunk_scalar`]) under every analyzer driver —
//! sequential, pipelined shared-memory, and windowed streaming —
//! for all four tree structures.
//!
//! The generated traces are long enough (≥ several batches per rank) that
//! every driver actually exercises the batched path; the scalar loop is the
//! independently-auditable Algorithm 1 transcription, so agreement here is
//! the correctness argument for the whole hot-path rewrite.

use parda_core::parallel::parda_threads;
use parda_core::phased::parda_phased;
use parda_core::{Engine, MissSink, PardaConfig};
use parda_hist::ReuseHistogram;
use parda_trace::SliceStream;
use parda_tree::{AvlTree, ReuseTree, SplayTree, Treap, VectorTree};
use proptest::prelude::*;

/// The scalar ground truth: Algorithm 1 one reference at a time.
fn scalar_reference<T: ReuseTree + Default>(trace: &[u64]) -> ReuseHistogram {
    let mut engine: Engine<T> = Engine::new(None, 0);
    engine.process_chunk_scalar(trace, 0, MissSink::Infinite);
    engine.into_histogram()
}

/// Every driver (which all route through the batched `process_chunk`) must
/// reproduce the scalar histogram exactly.
fn assert_all_drivers_match<T: ReuseTree + Default + Send>(trace: &[u64], ranks: usize) {
    let expected = scalar_reference::<T>(trace);
    let config = PardaConfig::with_ranks(ranks);

    // seq: the batched engine driven over the whole trace at once.
    let mut engine: Engine<T> = Engine::new(None, trace.len());
    engine.process_chunk(trace, 0, MissSink::Infinite);
    assert_eq!(engine.into_histogram(), expected, "seq (batched)");

    assert_eq!(parda_threads::<T>(trace, &config), expected, "threads");

    // Phase chunk > BATCH so the phased engines hit the batched path too.
    let phased = parda_phased::<T, _>(SliceStream::new(trace), 96, &config);
    assert_eq!(phased, expected, "phased");

    // Work-stealing subdivision forced on (tiny grain → MAX_PARTS_PER_RANK
    // sub-chunks per rank): the fold now runs over virtual ranks and takes
    // the in-place batched absorb path, and must stay bit-identical.
    let subdivided = config.clone().subchunk_refs(16);
    assert_eq!(
        parda_threads::<T>(trace, &subdivided),
        expected,
        "threads (subdivided)"
    );
}

proptest! {
    /// All four trees × four drivers agree with the scalar reference
    /// bit-for-bit.
    #[test]
    fn batched_matches_scalar_everywhere(
        trace in proptest::collection::vec(0u64..96, 300..700),
        ranks in 2usize..4,
    ) {
        assert_all_drivers_match::<SplayTree>(&trace, ranks);
        assert_all_drivers_match::<AvlTree>(&trace, ranks);
        assert_all_drivers_match::<Treap>(&trace, ranks);
        assert_all_drivers_match::<VectorTree>(&trace, ranks);
    }

    /// Batch-boundary edge cases: lengths straddling multiples of the batch
    /// width (64), including exact multiples and one-off lengths.
    #[test]
    fn batch_boundary_lengths(
        pick in 0usize..9,
        addrs in proptest::collection::vec(0u64..32, 256..257),
    ) {
        const LENS: [usize; 9] = [63, 64, 65, 127, 128, 129, 191, 192, 256];
        let trace = &addrs[..LENS[pick]];
        let expected = scalar_reference::<SplayTree>(trace);
        let mut engine: Engine<SplayTree> = Engine::new(None, trace.len());
        engine.process_chunk(trace, 0, MissSink::Infinite);
        prop_assert_eq!(engine.into_histogram(), expected);
    }

    /// Within-batch repeats (tiny address space forces distance-0 runs and
    /// same-batch reuse) are the adversarial case for the probe-ahead
    /// table pass.
    #[test]
    fn dense_repeats_within_batch(
        trace in proptest::collection::vec(0u64..4, 128..400),
    ) {
        let expected = scalar_reference::<Treap>(&trace);
        let mut engine: Engine<Treap> = Engine::new(None, trace.len());
        engine.process_chunk(&trace, 0, MissSink::Infinite);
        prop_assert_eq!(engine.into_histogram(), expected);
    }

    /// Wide address spaces make every cascade stream long (most references
    /// are chunk-local first touches), so each absorb round crosses the
    /// engine's batching threshold and runs the batched absorb: the
    /// search trees' sorted sweep and the vector's stream-order loop. All
    /// four trees must agree with the scalar reference.
    #[test]
    fn long_cascade_streams_hit_batched_absorb(
        trace in proptest::collection::vec(0u64..2_048, 600..1_000),
        ranks in 2usize..5,
    ) {
        assert_all_drivers_match::<SplayTree>(&trace, ranks);
        assert_all_drivers_match::<AvlTree>(&trace, ranks);
        assert_all_drivers_match::<Treap>(&trace, ranks);
        assert_all_drivers_match::<VectorTree>(&trace, ranks);
    }

    /// The subdivision grain never changes the histogram — any contiguous
    /// partition of the trace folds to the sequential answer.
    #[test]
    fn subdivision_grain_is_transparent(
        trace in proptest::collection::vec(0u64..64, 100..500),
        ranks in 2usize..5,
        grain in 1usize..200,
    ) {
        let expected = scalar_reference::<SplayTree>(&trace);
        let config = PardaConfig::with_ranks(ranks).subchunk_refs(grain);
        prop_assert_eq!(parda_threads::<SplayTree>(&trace, &config), expected);
    }
}

/// Forwarding misses (the cascade-facing sink) must also agree between the
/// batched and scalar paths — same histogram *and* same forwarded stream.
#[test]
fn forward_sink_matches_scalar() {
    let trace: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 160).collect();

    let mut scalar: Engine<AvlTree> = Engine::new(None, 0);
    let mut scalar_inf = Vec::new();
    scalar.process_chunk_scalar(&trace, 1000, MissSink::Forward(&mut scalar_inf));

    let mut batched: Engine<AvlTree> = Engine::new(None, trace.len());
    let mut batched_inf = Vec::new();
    batched.process_chunk(&trace, 1000, MissSink::Forward(&mut batched_inf));

    assert_eq!(batched_inf, scalar_inf);
    assert_eq!(batched.histogram(), scalar.histogram());
    assert_eq!(batched.forwarded(), scalar.forwarded());
}

/// Bounded mode takes the scalar path by design (Algorithm 7's eviction
/// couples table and tree per reference); the public entry point must stay
/// exact regardless.
#[test]
fn bounded_mode_unchanged_by_batching() {
    let trace: Vec<u64> = (0..800u64).map(|i| (i * 31) % 200).collect();
    let mut bounded: Engine<SplayTree> = Engine::new(Some(32), trace.len());
    bounded.process_chunk(&trace, 0, MissSink::Infinite);
    let hist = bounded.into_histogram();
    assert_eq!(hist.total(), trace.len() as u64);
    assert!(hist.max_distance().unwrap_or(0) < 32);
}
