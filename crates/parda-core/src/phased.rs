//! Windowed streaming Parda (paper Algorithm 5, Section IV-D): the one
//! exact parallel driver.
//!
//! Real traces arrive as unbounded streams (the paper pipes them straight
//! out of Pin), so the whole-trace chunking of Algorithm 3 cannot be
//! applied up front. The streamer reads the trace in *windows* of `np · C`
//! references and runs one Parda pass over each: the window is cut into
//! work items (one per rank, or sub-chunks of one), analyzed on
//! panic-isolated workers, and folded right to left through the cascade
//! of [`crate::parallel`] under the caller's [`FaultPolicy`]. Three entry
//! points feed it: a borrowed slice cut into zero-copy windows (in-memory
//! [`Mode::Threads`](crate::Mode::Threads) is one window over the whole
//! trace), a pull loop over an [`AddressStream`], and a push pair, `feed`
//! and `finish`, that a daemon session drives frame by frame. A window
//! runs only once the next reference arrives or the input ends, so the
//! streamer knows which window is the last.
//!
//! The leftmost item of every window's cascade is a persistent *history*:
//! an `Engine<VectorTree>` — whatever tree the items use — holding the
//! last access of every address seen before the window. It absorbs the
//! stream that reaches the window's left edge through the Fenwick
//! galloping `rank_delete_batch` sweep: hits resolve at `tree distance +
//! count` (Algorithm 4), misses are global infinities. Then each item's
//! surviving live state is appended in timestamp order: an O(window) tail
//! append, since every item timestamp is newer than the whole history.
//! The last window skips the export and the append, and a lone window has
//! no history at all: it records what reaches its left edge as rank 0's
//! global infinities, as Algorithm 3 does in memory.
//!
//! The history runs on a stage thread of its own, spawned once a second
//! window exists: it absorbs and appends window `k` while the items of
//! window `k + 1` run, with a serial loop's calls in a serial loop's
//! order, so every histogram, counter and bounded-mode eviction is the
//! serial one. Each hand-off is a rendezvous, so peak state is
//! O(M + window): the history, one window of item engines, and at most two
//! windows of exported state (16 B per live address) and leftover
//! streams. Dropping the streamer mid-stream joins the stage.
//!
//! This replaces the paper's Algorithm 6, which drains every rank's state
//! onto one rank at each phase boundary and rebuilds it there — O(M) per
//! phase — and with it the §IV-D rank-renumbering enhancement. The history
//! never moves at all. [`Reduction`] survives only as the ignored field of
//! [`Mode::Phased`](crate::Mode::Phased).

use crate::engine::Engine;
use crate::error::{FaultPolicy, PardaError};
use crate::parallel::{build_items, cascade_items, chunk_starts, rank_metrics, PardaConfig};
use parda_hist::ReuseHistogram;
use parda_obs::{PhasedMetrics, RankMetrics, RecoveryMetrics, Stopwatch};
use parda_trace::{chunk_slice, Addr, AddressStream};
use parda_tree::{ReuseTree, VectorTree};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

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

/// A finished stream: the histogram, the per-rank metrics, the window
/// aggregates and the items the scalar engine rescued.
pub(crate) type Windowed = (
    ReuseHistogram,
    Vec<RankMetrics>,
    PhasedMetrics,
    RecoveryMetrics,
);

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
/// The per-rank metrics group each window's items under their owning rank,
/// accumulated over all windows; rank 0's `cascade_ns` also holds the
/// history's stream absorbs and its `reduction_ns` the history appends,
/// both wall time on the stage thread. In the [`PhasedMetrics`], `phases`
/// counts windows, `phase_reduction_ns[k]` is window `k`'s history append
/// (0 for the last window, which appends nothing), `history_wait_ns` is
/// the time the caller spent blocked handing windows to the stage, and
/// `history` holds the history engine's counters. The [`RecoveryMetrics`]
/// count the items whose panicked worker the scalar engine rescued.
///
/// # Panics
///
/// If an item still panics after the [`FaultPolicy::default`] retries, with
/// the [`PardaError`] message; if the history stage panics, with the
/// stage's own panic.
pub fn parda_phased_with_stats<T, S>(
    source: S,
    phase_chunk: usize,
    config: &PardaConfig,
) -> Windowed
where
    T: ReuseTree + Default + Send,
    S: AddressStream,
{
    Streamer::<T>::phased(config, &FaultPolicy::default(), phase_chunk)
        .pull(source)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The windowed streamer (see the module docs).
pub(crate) struct Streamer<T: ReuseTree> {
    /// The item configuration; `ranks` is every window's rank count, or
    /// the most a window gets when windows are ranked by length.
    config: PardaConfig,
    policy: FaultPolicy,
    window_refs: usize,
    /// When set, each window gets one rank per this many references.
    refs_per_rank: Option<usize>,
    /// Pushed references waiting for their window to run.
    pending: Vec<Addr>,
    /// Global index of the next window's first reference.
    base: u64,
    /// The last window's item engines, kept for reuse.
    engines: Vec<Option<Engine<T>>>,
    metrics: Vec<RankMetrics>,
    recovery: RecoveryMetrics,
    phased: PhasedMetrics,
    total: ReuseHistogram,
    stage: Option<HistoryStage>,
    /// The first window failure; everything pushed after it is dropped.
    error: Option<PardaError>,
}

impl<T: ReuseTree + Default + Send> Streamer<T> {
    /// Windows of `window_refs` references (`usize::MAX`: one window over
    /// the whole input), `config.ranks` ranks each. Only a lone window may
    /// run the unoptimized Algorithm 3 ablation: the history cannot take
    /// its replicas.
    pub(crate) fn new(config: &PardaConfig, policy: &FaultPolicy, window_refs: usize) -> Self {
        assert!(window_refs > 0, "window chunk size must be positive");
        assert!(config.space_optimized || window_refs == usize::MAX);
        let np = config.ranks.max(1);
        Self {
            config: config.clone().ranks(np),
            policy: policy.clone(),
            window_refs,
            refs_per_rank: None,
            pending: Vec::new(),
            base: 0,
            engines: Vec::new(),
            metrics: rank_metrics(np),
            recovery: RecoveryMetrics::default(),
            phased: PhasedMetrics::default(),
            total: ReuseHistogram::new(),
            stage: None,
            error: None,
        }
    }

    /// Algorithm 5's windows: `ranks × chunk` references, space-optimized.
    pub(crate) fn phased(config: &PardaConfig, policy: &FaultPolicy, chunk: usize) -> Self {
        let config = config.clone().space_optimized(true);
        Self::new(&config, policy, config.ranks.max(1).saturating_mul(chunk))
    }

    /// Give each window one rank per `refs` of its references, at least 1
    /// and at most the configured rank count.
    pub(crate) fn ranked_by_length(mut self, refs: usize) -> Self {
        self.refs_per_rank = Some(refs.max(1));
        self.metrics = rank_metrics(1);
        self
    }

    /// Analyze an in-memory trace, each window a sub-slice of it.
    pub(crate) fn run_slice(mut self, trace: &[Addr]) -> Result<Windowed, PardaError> {
        let mut windows = trace.chunks(self.window_refs).peekable();
        while let Some(window) = windows.next() {
            self.run_window(window, windows.peek().is_none())?;
        }
        self.finish()
    }

    /// Analyze everything `source` produces, filling each window straight
    /// from the stream.
    pub(crate) fn pull<S: AddressStream>(mut self, mut source: S) -> Result<Windowed, PardaError> {
        while self.error.is_none() {
            let room = self.window_refs - self.pending.len();
            if source.fill(&mut self.pending, room) < room {
                break;
            }
            // A full window runs once the reference after it exists.
            match source.next_addr() {
                Some(addr) => self.feed(&[addr]),
                None => break,
            }
        }
        self.finish()
    }

    /// Run the pending references as the last window and return the
    /// result, or the first error the stream hit.
    pub(crate) fn finish(mut self) -> Result<Windowed, PardaError> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let window = std::mem::take(&mut self.pending);
        if !window.is_empty() {
            self.run_window(&window, true)?;
        }
        Ok((self.total, self.metrics, self.phased, self.recovery))
    }

    /// One Parda pass over `window`, which follows every reference
    /// analyzed so far: its leftover stream, and unless it is the `last`
    /// its items' live state, go to the history stage. A lone window has
    /// no history, and records its stream as rank 0's global infinities.
    fn run_window(&mut self, window: &[Addr], last: bool) -> Result<(), PardaError> {
        let np = self.refs_per_rank.map_or(self.config.ranks, |refs| {
            (window.len() / refs).clamp(1, self.config.ranks)
        });
        let have = self.metrics.len();
        if have < np {
            self.metrics.extend(rank_metrics(np).split_off(have));
        }
        let config = self.config.clone().ranks(np);
        let chunks = chunk_slice(window, np);
        let starts = chunk_starts(&chunks, self.base);
        let items = build_items(&chunks, &starts, &config);
        self.base += window.len() as u64;
        self.phased.phases += 1;

        let mut states = match &self.stage {
            Some(stage) if !last => stage.recycled.try_recv().unwrap_or_default(),
            _ => Vec::new(),
        };
        states.resize_with(if last { 0 } else { items.len() }, Vec::new);
        let mut kept: Vec<Option<Engine<T>>> = items.iter().map(|_| None).collect();
        let stream = cascade_items(
            &items,
            &config,
            &self.policy,
            &mut self.metrics,
            &mut self.recovery,
            &mut self.total,
            std::mem::take(&mut self.engines),
            |i, engine| {
                if !last {
                    engine.export_state_into(&mut states[i]);
                    kept[i] = Some(engine);
                }
            },
        )?;
        self.engines = kept;

        if last && self.stage.is_none() {
            self.total.record_infinite_n(stream.len() as u64);
            self.metrics[0].engine.cold_misses += stream.len() as u64;
            self.phased.phase_reduction_ns.push(0);
            return Ok(());
        }
        let bound = self.config.bound;
        let stage = self.stage.get_or_insert_with(|| HistoryStage::spawn(bound));
        let sw = Stopwatch::start();
        let handed = stage
            .handoff
            .as_ref()
            .is_some_and(|h| h.send((stream, states)).is_ok());
        self.phased.history_wait_ns += sw.ns();
        if last || !handed {
            // Joining re-raises a stage panic, which a closed hand-off means.
            let history = self.stage.take().expect("a running stage").join();
            self.metrics[0].cascade_ns += history.absorb_ns;
            self.metrics[0].reduction_ns += history.append_ns.iter().sum::<u64>();
            self.total.merge(history.engine.histogram());
            self.phased.history = history.engine.metrics().clone();
            self.phased.phase_reduction_ns = history.append_ns;
        }
        Ok(())
    }
}

/// A push-fed [`Streamer`] with its tree type erased, as a session holds
/// it.
pub(crate) trait PushStream: Send {
    /// Push references. A full window runs as soon as the reference after
    /// it arrives; an error ends the stream, and `finish` returns it.
    fn feed(&mut self, addrs: &[Addr]);
    /// Estimated bytes of state held now: the pending window, and a table
    /// entry plus a tree node per live address of the kept item engines
    /// and the history.
    fn state_bytes(&self) -> u64;
    /// [`Streamer::finish`].
    fn finish(self: Box<Self>) -> Result<Windowed, PardaError>;
}

impl<T: ReuseTree + Default + Send> PushStream for Streamer<T> {
    fn feed(&mut self, mut addrs: &[Addr]) {
        while !addrs.is_empty() && self.error.is_none() {
            if self.pending.len() == self.window_refs {
                let mut window = std::mem::take(&mut self.pending);
                self.error = self.run_window(&window, false).err();
                window.clear();
                self.pending = window;
                continue;
            }
            let take = addrs.len().min(self.window_refs - self.pending.len());
            // Grow as a `Vec` does, but never past one window.
            let need = self.pending.len() + take;
            if need > self.pending.capacity() {
                let cap = need.max(self.pending.capacity() * 2).min(self.window_refs);
                self.pending.reserve_exact(cap - self.pending.len());
            }
            self.pending.extend_from_slice(&addrs[..take]);
            addrs = &addrs[take..];
        }
    }

    fn state_bytes(&self) -> u64 {
        let items: u64 = self.engines.iter().flatten().map(|e| e.live() as u64).sum();
        let history = self
            .stage
            .as_ref()
            .map_or(0, |s| s.live.load(Ordering::Relaxed));
        (self.pending.capacity() * std::mem::size_of::<Addr>()) as u64 + (items + history) * 64
    }

    fn finish(self: Box<Self>) -> Result<Windowed, PardaError> {
        Streamer::finish(*self)
    }
}

/// The history stage's thread and its channels. Dropping the stage hangs
/// up and joins the thread, so a stream abandoned mid-way leaks nothing.
struct HistoryStage {
    /// Capacity 0: `send` returns only once the stage has taken the window.
    handoff: Option<SyncSender<(Vec<Addr>, ItemStates)>>,
    /// State buffers the stage is done with, for reuse.
    recycled: Receiver<ItemStates>,
    /// The history's live address count after its latest append.
    live: Arc<AtomicU64>,
    thread: Option<JoinHandle<History>>,
}

impl HistoryStage {
    fn spawn(bound: Option<u64>) -> Self {
        let (handoff, windows) = sync_channel(0);
        let (recycle, recycled) = channel();
        let live = Arc::new(AtomicU64::new(0));
        let stage_live = Arc::clone(&live);
        let thread =
            std::thread::spawn(move || history_stage(bound, windows, recycle, &stage_live));
        Self {
            handoff: Some(handoff),
            recycled,
            live,
            thread: Some(thread),
        }
    }

    /// Hang up, wait for the stage to finish every window handed to it,
    /// and take the history. A stage panic is re-raised here.
    fn join(mut self) -> History {
        self.handoff = None;
        let thread = self.thread.take().expect("the stage is joined once");
        thread.join().unwrap_or_else(|panic| resume_unwind(panic))
    }
}

impl Drop for HistoryStage {
    fn drop(&mut self) {
        self.handoff = None;
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// The persistent history and its absorb and append wall times.
struct History {
    engine: Engine<VectorTree>,
    absorb_ns: u64,
    /// One entry per window; 0 for the last, which appends nothing.
    append_ns: Vec<u64>,
}

/// The history stage. For each window handed over it absorbs the stream
/// that reached the window's left edge — the history is the cascade's
/// leftmost item, so whatever it cannot resolve was never accessed
/// before — then appends the items' states in order (ascending timestamp
/// ranges, all newer than the history, so it stays sorted), and sends the
/// state buffers back on `recycle` for reuse. Returns once the sender
/// hangs up.
fn history_stage(
    bound: Option<u64>,
    windows: Receiver<(Vec<Addr>, ItemStates)>,
    recycle: Sender<ItemStates>,
    live: &AtomicU64,
) -> History {
    let mut history = History {
        engine: Engine::new(bound, 0),
        absorb_ns: 0,
        append_ns: Vec::new(),
    };
    while let Ok((mut stream, states)) = windows.recv() {
        parda_failpoint::failpoint!("phased::history");
        let sw = Stopwatch::start();
        history.engine.process_infinities_in_place(&mut stream);
        history.engine.record_global_infinities(stream.len() as u64);
        history.engine.reset_phase_counters();
        history.absorb_ns += sw.ns();

        let sw = Stopwatch::start();
        for state in &states {
            history.engine.import_state(state);
        }
        // Only the last window hands over no states.
        history
            .append_ns
            .push(if states.is_empty() { 0 } else { sw.ns() });
        live.store(history.engine.live() as u64, Ordering::Relaxed);
        // This fails only once the streamer is gone; the buffers just drop.
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
