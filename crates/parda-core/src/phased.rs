//! Windowed streaming Parda (paper Algorithm 5, Section IV-D).
//!
//! Real traces arrive as unbounded streams (the paper pipes them straight
//! out of Pin), so the whole-trace chunking of Algorithm 3 cannot be
//! applied up front. The streamer reads the trace in *windows* of `np · C`
//! references and runs one Parda pass over each: the window is cut into
//! work items (one per rank, or sub-chunks of one), the items are analyzed
//! on the [`parda_threads`](crate::parallel::parda_threads) worker
//! schedule, and their infinity streams fold right to left through the
//! same cascade, so a panicked item is rescued as it is in memory.
//!
//! The leftmost item of every window's cascade is a persistent *history*:
//! an `Engine<VectorTree>` — whatever tree the items use — holding the
//! last access of every address seen before the window. It absorbs the
//! stream that reaches the window's left edge through the Fenwick
//! galloping `rank_delete_batch` sweep: hits resolve at `tree distance +
//! count` (Algorithm 4), misses are global infinities. Then each item's
//! surviving live state is appended in timestamp order. Every item
//! timestamp is newer than everything in the history, so the append is an
//! O(window) tail append, not an O(M) rebuild.
//!
//! The history runs as its own pipeline stage: one thread owns it for the
//! whole stream. As a window's cascade retires each item, the main thread
//! copies the item's live state into a reused buffer. It then hands the
//! stage the leftover stream and those buffers over a rendezvous channel
//! and goes straight on to the next window's items, reusing the item
//! engines. The stage absorbs and appends window `k` while the items of
//! window `k + 1` run, with the same calls in the same order as a serial
//! loop, so every histogram, counter and bounded-mode eviction is the
//! serial one. Peak state is O(M + window): the history, one window of
//! item engines, and at most two windows of exported state (16 B per live
//! address) and leftover streams — the one the stage is working on and the
//! one waiting to be handed over.
//!
//! This replaces the paper's Algorithm 6, which drains every rank's state
//! onto one rank at each phase boundary and rebuilds it there — O(M) per
//! phase — and with it the §IV-D rank-renumbering enhancement, which saved
//! one transfer of that merged state. The history never moves at all.
//! [`Reduction`] survives only as the ignored field of
//! [`Mode::Phased`](crate::Mode::Phased).

use crate::engine::Engine;
use crate::error::FaultPolicy;
use crate::parallel::{build_items, cascade_items, chunk_starts, rank_metrics, PardaConfig};
use parda_hist::ReuseHistogram;
use parda_obs::{PhasedMetrics, RankMetrics, RecoveryMetrics, Stopwatch};
use parda_trace::{chunk_slice, Addr, AddressStream};
use parda_tree::{ReuseTree, VectorTree};
use std::panic::resume_unwind;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender};

/// The retired Algorithm 6 reduction choice. The windowed streamer has no
/// state reduction to choose; the type remains so existing
/// [`Mode::Phased`](crate::Mode::Phased) values keep compiling, and it is
/// ignored.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Reduction {
    /// The only value: the paper's basic Algorithm 6 strategy, now a no-op.
    #[default]
    ShipToRankZero,
}

/// Each item's exported live state, in item (and so timestamp) order.
type ItemStates = Vec<Vec<(u64, Addr)>>;

/// Streaming Parda: analyze `source` in windows of `np · phase_chunk`
/// references (paper Algorithm 5) over a persistent history.
///
/// Returns the complete reuse-distance histogram; exact equality with the
/// offline analyzers is property-tested.
///
/// # Examples
///
/// ```
/// use parda_core::{phased, PardaConfig};
/// use parda_trace::SliceStream;
///
/// let trace: Vec<u64> = (0..1000u64).map(|i| i % 50).collect();
/// let hist = phased::parda_phased::<parda_tree::SplayTree, _>(
///     SliceStream::new(&trace),
///     64, // C: references per rank per window
///     &PardaConfig::with_ranks(4),
/// );
/// assert_eq!(hist.total(), 1000);
/// assert_eq!(hist.infinite(), 50);
/// ```
pub fn parda_phased<T, S>(source: S, phase_chunk: usize, config: &PardaConfig) -> ReuseHistogram
where
    T: ReuseTree + Default + Send,
    S: AddressStream,
{
    parda_phased_with_stats::<T, S>(source, phase_chunk, config).0
}

/// [`parda_phased`] plus the observability breakdown.
///
/// The calling thread reads the windows and folds their cascades; the
/// history absorbs and appends on a stage thread of its own, one window
/// behind. Each hand-off is a rendezvous, so the caller waits there
/// whenever the history is the slower side.
///
/// The per-rank metrics group each window's items under their owning rank,
/// accumulated over all windows; rank 0's `cascade_ns` also holds the
/// history's stream absorbs and its `reduction_ns` the history appends,
/// both wall time on the stage thread. In the [`PhasedMetrics`], `phases`
/// counts windows, `phase_reduction_ns[k]` is window `k`'s history append,
/// `history_wait_ns` is the time the caller spent blocked handing windows
/// to the stage, and `history` holds the history engine's counters. The
/// [`RecoveryMetrics`] count the items whose panicked worker the scalar
/// engine rescued.
///
/// # Panics
///
/// If an item still panics after the [`FaultPolicy::default`] retries, with
/// the [`PardaError`](crate::PardaError) message; if the history stage
/// panics, with the stage's own panic.
pub fn parda_phased_with_stats<T, S>(
    mut source: S,
    phase_chunk: usize,
    config: &PardaConfig,
) -> (
    ReuseHistogram,
    Vec<RankMetrics>,
    PhasedMetrics,
    RecoveryMetrics,
)
where
    T: ReuseTree + Default + Send,
    S: AddressStream,
{
    assert!(phase_chunk > 0, "window chunk size must be positive");
    let np = config.ranks.max(1);
    // The unoptimized Algorithm 3 ablation keeps replicas alive, which the
    // history append cannot take: items always run space-optimized.
    let config = PardaConfig {
        space_optimized: true,
        ..config.clone()
    };
    let window_refs = np * phase_chunk;
    let policy = FaultPolicy::default();
    let mut metrics = rank_metrics(np);
    let mut recovery = RecoveryMetrics::default();
    let mut phased = PhasedMetrics::default();
    let mut total = ReuseHistogram::new();
    let history = std::thread::scope(|scope| {
        // Capacity 0: `send` returns only once the stage has taken the
        // window, so at most two windows' hand-offs are alive at a time.
        let (handoff, windows) = sync_channel::<(Vec<Addr>, ItemStates)>(0);
        let (recycle, drained) = channel::<ItemStates>();
        let stage = scope.spawn(move || history_stage(config.bound, windows, recycle));
        let mut engines: Vec<Option<Engine<T>>> = Vec::new();
        let mut window: Vec<Addr> = Vec::with_capacity(window_refs);
        let mut base = 0u64;
        loop {
            window.clear();
            if source.fill(&mut window, window_refs) == 0 {
                break;
            }
            let chunks = chunk_slice(&window, np);
            let starts = chunk_starts(&chunks, base);
            let items = build_items(&chunks, &starts, &config);
            let mut states = drained.try_recv().unwrap_or_default();
            states.resize_with(items.len(), Vec::new);
            let mut kept: Vec<Option<Engine<T>>> = items.iter().map(|_| None).collect();
            let stream = cascade_items(
                &items,
                &config,
                &policy,
                &mut metrics,
                &mut recovery,
                &mut total,
                std::mem::take(&mut engines),
                |i, engine| {
                    engine.export_state_into(&mut states[i]);
                    kept[i] = Some(engine);
                },
            )
            .unwrap_or_else(|e| panic!("{e}"));

            let sw = Stopwatch::start();
            // A closed hand-off means the stage panicked: stop reading and
            // let the join below re-raise its panic.
            if handoff.send((stream, states)).is_err() {
                break;
            }
            phased.history_wait_ns += sw.ns();
            phased.phases += 1;
            engines = kept;
            base += window.len() as u64;
        }
        drop(handoff);
        stage.join().unwrap_or_else(|panic| resume_unwind(panic))
    });
    metrics[0].cascade_ns += history.absorb_ns;
    metrics[0].reduction_ns += history.append_ns.iter().sum::<u64>();
    total.merge(history.engine.histogram());
    phased.phase_reduction_ns = history.append_ns;
    phased.history = history.engine.metrics().clone();
    (total, metrics, phased, recovery)
}

/// The history stage's result: the engine and its absorb and append times.
struct History {
    engine: Engine<VectorTree>,
    /// Wall time of all the stream absorbs.
    absorb_ns: u64,
    /// Wall time of each window's append.
    append_ns: Vec<u64>,
}

/// The history stage: for each window handed over, absorb its leftover
/// stream, then append its items' state, and send the state buffers back
/// on `recycle` for reuse. Returns once the sender hangs up.
fn history_stage(
    bound: Option<u64>,
    windows: Receiver<(Vec<Addr>, ItemStates)>,
    recycle: Sender<ItemStates>,
) -> History {
    let mut history = History {
        engine: Engine::new(bound, 0),
        absorb_ns: 0,
        append_ns: Vec::new(),
    };
    while let Ok((mut stream, states)) = windows.recv() {
        parda_failpoint::failpoint!("phased::history");
        // The history is the cascade's leftmost item: whatever it cannot
        // resolve was never accessed before.
        let sw = Stopwatch::start();
        history.engine.process_infinities_in_place(&mut stream);
        history.engine.record_global_infinities(stream.len() as u64);
        history.engine.reset_phase_counters();
        history.absorb_ns += sw.ns();

        // Items cover ascending timestamp ranges, left to right, all newer
        // than the history: appending them in order keeps it sorted.
        let sw = Stopwatch::start();
        for state in &states {
            history.engine.import_state(state);
        }
        history.append_ns.push(sw.ns());
        // This fails only while the caller unwinds; the buffers just drop.
        let _ = recycle.send(states);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::analyze_sequential;
    use crate::{Analysis, Mode};
    use parda_trace::SliceStream;
    use parda_tree::{AvlTree, SplayTree, Treap, TreeKind};
    use proptest::prelude::*;

    fn phased<T: ReuseTree + Default + Send>(
        trace: &[Addr],
        chunk: usize,
        config: &PardaConfig,
    ) -> ReuseHistogram {
        parda_phased::<T, _>(SliceStream::new(trace), chunk, config)
    }

    #[test]
    fn windowed_matches_offline_on_small_trace() {
        let trace: Vec<Addr> = "dacbccgefafbcmtmacfbdcac".bytes().map(u64::from).collect();
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        for np in [1usize, 2, 3, 4] {
            for chunk in [1usize, 2, 4, 100] {
                let hist = phased::<SplayTree>(&trace, chunk, &PardaConfig::with_ranks(np));
                assert_eq!(hist, seq, "np={np} chunk={chunk}");
            }
        }
    }

    #[test]
    fn window_boundary_splitting_reuse_pairs() {
        // [0..32) then the same block again: with np·C = 32 the second lap
        // lands entirely in window 2 and resolves against the history.
        let mut trace: Vec<Addr> = (0..32).collect();
        trace.extend(0..32u64);
        let hist = phased::<SplayTree>(&trace, 8, &PardaConfig::with_ranks(4));
        assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
        assert_eq!(hist.count(31), 32, "each element reused at distance 31");
    }

    #[test]
    fn reuse_several_windows_back() {
        // A hot set touched every window and cold addresses revisited only
        // after many windows: their previous access sits deep in the
        // history, behind several rounds of appends and compactions.
        let mut trace: Vec<Addr> = Vec::new();
        for lap in 0..40u64 {
            trace.extend(0..8u64);
            trace.extend((0..5).map(|k| 1_000 + (lap * 5 + k) % 60));
        }
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        for (np, chunk) in [(2usize, 3usize), (3, 7), (4, 13)] {
            let hist = phased::<VectorTree>(&trace, chunk, &PardaConfig::with_ranks(np));
            assert_eq!(hist, seq, "np={np} chunk={chunk}");
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let hist = phased::<SplayTree>(&[], 16, &PardaConfig::with_ranks(3));
        assert_eq!(hist.total(), 0);
        let (_, ranks, metrics, _) = parda_phased_with_stats::<SplayTree, _>(
            SliceStream::new(&[]),
            16,
            &PardaConfig::with_ranks(3),
        );
        assert_eq!(ranks.len(), 3);
        assert_eq!(metrics.phases, 0);
    }

    #[test]
    fn ragged_final_window() {
        // 100 refs with np·C = 48: two full windows + one ragged (4 refs).
        let trace: Vec<Addr> = (0..100).map(|i| i % 10).collect();
        let hist = phased::<SplayTree>(&trace, 16, &PardaConfig::with_ranks(3));
        assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
    }

    #[test]
    fn bounded_phased_respects_contract() {
        let trace: Vec<Addr> = (0..1_000).map(|i| (i * 13) % 101).collect();
        let full = analyze_sequential::<SplayTree>(&trace, None);
        let cfg = PardaConfig::with_ranks(3).bounded(16);
        let (hist, _, metrics, _) =
            parda_phased_with_stats::<SplayTree, _>(SliceStream::new(&trace), 32, &cfg);
        assert_eq!(hist.total(), full.total());
        for d in 0..16u64 {
            assert_eq!(hist.count(d), full.count(d), "bucket {d}");
        }
        for cap in 1..=16u64 {
            assert_eq!(hist.miss_count(cap), full.miss_count(cap), "capacity {cap}");
        }
        assert!(
            metrics.history.live_hwm <= 16,
            "the bounded history evicts down to B after every append"
        );
    }

    #[test]
    fn peak_state_is_history_plus_window() {
        // N ≫ window over M addresses: the history holds at most M entries,
        // and no item ever holds more than its window's references.
        let (m, np, chunk) = (3_000u64, 4usize, 256usize);
        let trace: Vec<Addr> = (0..60_000u64).map(|i| (i * 7_919 + i / 5) % m).collect();
        let (hist, report) = Analysis::new()
            .ranks(np)
            .tree(TreeKind::Splay)
            .mode(Mode::Phased {
                chunk,
                reduction: Reduction::ShipToRankZero,
            })
            .stats(true)
            .run_stream(SliceStream::new(&trace));
        assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
        let report = report.unwrap();
        let phased = report.phased.expect("windowed stats");
        assert_eq!(phased.phases, trace.len().div_ceil(np * chunk) as u64);
        assert!(phased.history.live_hwm <= m);
        assert_eq!(
            phased.history.live_hwm,
            hist.infinite(),
            "every distinct address ends in the history"
        );
        for rm in &report.per_rank {
            assert!(
                rm.engine.live_hwm <= (np * chunk) as u64,
                "rank {} item state {} exceeds the window",
                rm.rank,
                rm.engine.live_hwm
            );
        }
    }

    proptest! {
        /// Streaming = sequential, for every trace, rank count, window
        /// chunk and item tree — including reuses several windows back and
        /// ragged final windows.
        #[test]
        fn windowed_equals_sequential(
            trace in proptest::collection::vec(0u64..32, 0..250),
            np in 1usize..5,
            chunk in 1usize..40,
            tree in 0usize..4,
        ) {
            let seq = Analysis::new().mode(Mode::Seq).run(&trace).0;
            let config = PardaConfig::with_ranks(np);
            let hist = match TreeKind::ALL[tree] {
                TreeKind::Splay => phased::<SplayTree>(&trace, chunk, &config),
                TreeKind::Avl => phased::<AvlTree>(&trace, chunk, &config),
                TreeKind::Treap => phased::<Treap>(&trace, chunk, &config),
                TreeKind::Vector => phased::<VectorTree>(&trace, chunk, &config),
            };
            prop_assert_eq!(hist, seq);
        }

        /// Bounded streaming honours the Algorithm 7 contract: exact below
        /// B, mass-conserving, miss-count-exact for every capacity ≤ B —
        /// with splay items and with the default vector items.
        #[test]
        fn bounded_windowed_contract(
            trace in proptest::collection::vec(0u64..48, 0..300),
            np in 1usize..5,
            chunk in 1usize..24,
            bound in 1u64..24,
        ) {
            let full = analyze_sequential::<SplayTree>(&trace, None);
            let config = PardaConfig::with_ranks(np).bounded(bound);
            for hist in [
                phased::<SplayTree>(&trace, chunk, &config),
                phased::<VectorTree>(&trace, chunk, &config),
            ] {
                prop_assert_eq!(hist.total(), full.total());
                for d in 0..bound {
                    prop_assert_eq!(hist.count(d), full.count(d), "bucket {}", d);
                }
                for cap in 1..=bound {
                    prop_assert_eq!(hist.miss_count(cap), full.miss_count(cap), "capacity {}", cap);
                }
            }
        }
    }
}
