//! The Parda parallel algorithm (paper Algorithm 3, Section IV).
//!
//! The trace is split into `np` contiguous chunks; each rank analyzes its
//! chunk with the sequential engine, collecting *local infinities* — first
//! touches within the chunk — in trace order. Infinity lists cascade
//! leftward rank by rank: hits resolve against the left rank's tree and
//! are deleted from it (Algorithm 4's space optimization, the only
//! cascade), misses are forwarded again, and whatever reaches rank 0
//! unresolved is a global (compulsory) miss.
//!
//! One schedule runs it. A window — a buffer the streamer owns, shared
//! with its jobs — is cut into the chunks, or work-stealing sub-chunks of
//! them, which are queued as panic-isolated jobs on the process-wide item
//! pool ([`crate::pool`]); the cascade folds right to left on the caller
//! as they finish, and the scalar engine re-analyzes the item of a job
//! that panicked, under a [`FaultPolicy`]. Dropping a window marks it
//! closed, so its jobs that have not started skip their items, and waits
//! for none of them. No thread is started per window: the windowed
//! streamer ([`crate::phased`]) submits each window and folds it once the
//! next one is on the pool. [`parda_threads`] and
//! [`parda_threads_faulted`] are that streamer over one window holding a
//! copy of the whole trace. Where the paper's MPI rank `p` absorbs its
//! right neighbour's lists over `np − p − 1` message rounds, an item here
//! absorbs everything its right neighbour would have sent in one stream:
//! the same operations on every engine, so the same histogram.

use crate::engine::{Engine, MissSink};
use crate::error::{FaultPolicy, PardaError};
use crate::phased::Streamer;
use crate::pool::Job;
use parda_hist::ReuseHistogram;
use parda_obs::{RankMetrics, RecoveryMetrics, Stopwatch};
use parda_trace::{chunk_slice, Addr};
use parda_tree::ReuseTree;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration for the parallel analyzers.
///
/// Construct via [`PardaConfig::default`] / [`PardaConfig::with_ranks`] and
/// the builder-style setters; the struct is `#[non_exhaustive]` so new
/// knobs can be added without breaking downstream crates.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct PardaConfig {
    /// Number of ranks (`np`). Chunks are split as evenly as possible.
    pub ranks: usize,
    /// Optional cache bound `B` (Algorithm 7): distances ≥ B collapse to ∞
    /// and per-rank state is capped at B entries.
    pub bound: Option<u64>,
    /// Work-stealing grain for [`parda_threads`]: each rank's chunk is
    /// subdivided into sub-chunks of roughly this many references (at most
    /// [`MAX_PARTS_PER_RANK`] per rank), claimed independently off the
    /// shared counter and folded as extra virtual ranks. Smaller grains
    /// mean smaller per-item trees and better load balance; `None` uses
    /// [`DEFAULT_SUBCHUNK_REFS`]. Only active when unbounded (subdivision
    /// changes which distances a bounded run collapses to ∞).
    pub subchunk_refs: Option<usize>,
}

impl Default for PardaConfig {
    fn default() -> Self {
        Self {
            ranks: std::thread::available_parallelism().map_or(4, |p| p.get()),
            bound: None,
            subchunk_refs: None,
        }
    }
}

impl PardaConfig {
    /// Config with `ranks` ranks, unbounded.
    pub fn with_ranks(ranks: usize) -> Self {
        Self {
            ranks,
            ..Self::default()
        }
    }

    /// Builder-style bound setter.
    pub fn bounded(mut self, bound: u64) -> Self {
        self.bound = Some(bound);
        self
    }

    /// Builder-style rank setter.
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Builder-style override of the work-stealing sub-chunk grain.
    pub fn subchunk_refs(mut self, refs: usize) -> Self {
        self.subchunk_refs = Some(refs);
        self
    }
}

/// Most ranks a run accepts. The paper ran at most 64 processes; every rank
/// costs per-rank state before the first reference arrives.
pub const MAX_RANKS: usize = 1024;

/// Check the sizes a user asked for before any driver allocates or asserts
/// on them; the CLI and the daemon's CONFIG parser both call this. `chunk`
/// is the streamer's references per rank per window (`None`: the default)
/// and `line_bits` the address fold (`0`: none).
///
/// # Errors
///
/// [`PardaError::Config`] for a zero bound or chunk, a fold of 64 bits or
/// more, more than [`MAX_RANKS`] ranks, or a window (`ranks × chunk`) past
/// `usize::MAX`.
pub fn check_limits(
    ranks: usize,
    chunk: Option<usize>,
    bound: Option<u64>,
    line_bits: u32,
) -> Result<(), PardaError> {
    let refuse = |msg: String| Err(PardaError::Config(msg));
    if bound == Some(0) {
        return refuse("bound must be at least 1".into());
    }
    if chunk == Some(0) {
        return refuse("chunk must be at least 1".into());
    }
    if line_bits >= 64 {
        return refuse(format!("line-bits {line_bits} must be below 64"));
    }
    if ranks > MAX_RANKS {
        return refuse(format!("ranks {ranks} exceeds the maximum of {MAX_RANKS}"));
    }
    if let Some(chunk) = chunk {
        if ranks.max(1).checked_mul(chunk).is_none() {
            return refuse(format!(
                "a window of {ranks} ranks × chunk {chunk} overflows"
            ));
        }
    }
    Ok(())
}

/// Default sub-chunk grain: large enough that chunk analysis dominates the
/// per-item cascade absorb, small enough that per-item trees stay within
/// the outer cache levels on dense traces.
pub const DEFAULT_SUBCHUNK_REFS: usize = 1 << 17;

/// Cap on sub-chunks per rank, bounding slot memory and fold overhead.
pub const MAX_PARTS_PER_RANK: usize = 64;

/// One unit of pipelined chunk analysis: a contiguous range of its window
/// with its global start index and the *reported* rank whose metrics it
/// feeds. Splitting a rank's chunk into several items is transparent to
/// the histogram — Parda over any contiguous partition equals the
/// sequential analysis (the Section IV-B theorem, property-tested below) —
/// so items act as extra virtual ranks in the cascade fold while metrics
/// stay grouped per reported rank.
pub(crate) struct WorkItem {
    range: Range<usize>,
    start: u64,
    owner: usize,
}

/// Cut `window`, whose first reference has global index `base`, into one
/// chunk per rank and subdivide each chunk into work-stealing sub-chunks.
/// Subdivision only applies unbounded: bounded analysis pins ∞-collapse
/// decisions to the rank partition.
fn build_items(window: &[Addr], base: u64, config: &PardaConfig) -> Vec<WorkItem> {
    let subdivide = config.bound.is_none();
    let grain = config.subchunk_refs.unwrap_or(DEFAULT_SUBCHUNK_REFS).max(1);
    let mut items = Vec::new();
    let mut off = 0;
    for (p, chunk) in chunk_slice(window, config.ranks.max(1))
        .into_iter()
        .enumerate()
    {
        let parts = if subdivide {
            (chunk.len() / grain).clamp(1, MAX_PARTS_PER_RANK)
        } else {
            1
        };
        for sub in chunk_slice(chunk, parts) {
            items.push(WorkItem {
                range: off..off + sub.len(),
                start: base + off as u64,
                owner: p,
            });
            off += sub.len();
        }
    }
    items
}

/// Shared-memory Parda: chunk analysis runs on the process-wide item pool
/// ([`crate::pool`]), the infinity cascade folds right-to-left on the
/// caller thread.
///
/// This is [`parda_threads_faulted`] under [`FaultPolicy::default`]: a
/// panicking worker's item is rescued with the scalar engine, bit-identically.
///
/// # Panics
///
/// If an item still panics after the default retries, with the
/// [`PardaError`] message.
pub fn parda_threads<T: ReuseTree + Default + Send>(
    trace: &[Addr],
    config: &PardaConfig,
) -> ReuseHistogram {
    parda_threads_with_stats::<T>(trace, config).0
}

/// [`parda_threads`] with the per-rank observability breakdown.
///
/// Unbounded, each rank's chunk is further subdivided into up to
/// [`MAX_PARTS_PER_RANK`] work-stealing sub-chunks (grain
/// [`PardaConfig::subchunk_refs`]); every sub-chunk is an extra virtual
/// rank in the cascade, so a rank's metrics can report several
/// `cascade_rounds`. Timing fields accumulate across a rank's items.
///
/// # Panics
///
/// As [`parda_threads`].
pub fn parda_threads_with_stats<T: ReuseTree + Default + Send>(
    trace: &[Addr],
    config: &PardaConfig,
) -> (ReuseHistogram, Vec<RankMetrics>) {
    let (hist, metrics, _) = parda_threads_faulted::<T>(trace, config, &FaultPolicy::default())
        .unwrap_or_else(|e| panic!("{e}"));
    (hist, metrics)
}

/// Fault-tolerant shared-memory Parda: the windowed streamer
/// ([`crate::phased`]) over one window holding a copy of the whole trace,
/// under `policy`.
///
/// Each work item (a rank's chunk, or a work-stealing sub-chunk of it, cut
/// as in [`parda_threads_with_stats`]) is analyzed on a panic-isolated
/// worker; a panicked item is re-analyzed with the scalar reference
/// engine ([`Engine::process_chunk_scalar`]) up to
/// [`FaultPolicy::max_retries`] times, bit-identically. Exhausted retries
/// yield [`PardaError::WorkerPanic`], and an item that never publishes
/// within [`FaultPolicy::watchdog`] yields [`PardaError::Stall`]; both name
/// the item's owning rank. The returned [`RecoveryMetrics`] count the
/// retries and rescues per item.
pub fn parda_threads_faulted<T: ReuseTree + Default + Send>(
    trace: &[Addr],
    config: &PardaConfig,
    policy: &FaultPolicy,
) -> Result<(ReuseHistogram, Vec<RankMetrics>, RecoveryMetrics), PardaError> {
    let (hist, metrics, _, recovery) =
        Streamer::<T>::new(config, policy, usize::MAX).run_window(trace.to_vec())?;
    Ok((hist, metrics, recovery))
}

/// The item engines of one stream: a free list of folded engines, which a
/// starting item resets and reuses, allocations and all, and the sizing of
/// new ones. A new engine reserves room for twice the largest live set an
/// item has reached so far, at most its item's length; before any item has
/// finished, for half its length. Items take engines when they start, so
/// a window on the pool reuses the engines the fold of the window before it
/// has already retired.
pub(crate) struct Engines<T: ReuseTree> {
    bound: Option<u64>,
    free: Mutex<Vec<Engine<T>>>,
    live: AtomicUsize,
}

impl<T: ReuseTree + Default> Engines<T> {
    pub(crate) fn new(bound: Option<u64>) -> Self {
        Self {
            bound,
            free: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Engine<T>>> {
        self.free.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An empty engine for an item of `refs` references.
    fn take(&self, refs: usize) -> Engine<T> {
        if let Some(mut engine) = self.lock().pop() {
            engine.reset();
            return engine;
        }
        let live = self.live.load(Ordering::Relaxed);
        let reserve = if live == 0 {
            refs / 2
        } else {
            live.saturating_mul(2).min(refs)
        };
        Engine::new(self.bound, reserve)
    }

    /// Put a folded engine on the free list.
    pub(crate) fn retire(&self, engine: Engine<T>) {
        self.lock().push(engine);
    }
}

/// What a window's jobs share with its fold. Dropping the window sets
/// `closed`: a job that has not reached its chunk yet then skips its item.
/// The flag publishes no other data, so it is stored and loaded `Relaxed`.
struct Shared<T: ReuseTree> {
    items: Vec<WorkItem>,
    slots: Vec<ItemSlot<Result<ChunkResult<T>, ItemPanic>>>,
    closed: AtomicBool,
}

/// A window whose items are on the pool, waiting for [`cascade_items`] to
/// fold them. The window's buffer is shared with its jobs, so dropping it
/// — after its fold, on an error, or while unwinding — never waits: a job
/// still running keeps the buffer alive through its own handle.
pub(crate) struct InFlight<T: ReuseTree> {
    shared: Arc<Shared<T>>,
    refs: Arc<Vec<Addr>>,
    config: PardaConfig,
}

impl<T: ReuseTree> InFlight<T> {
    /// References in the window.
    pub(crate) fn len(&self) -> usize {
        self.refs.len()
    }

    /// Work items in the window.
    pub(crate) fn items(&self) -> usize {
        self.shared.items.len()
    }

    /// The buffer back, for the next window, once no job holds it.
    pub(crate) fn into_buffer(self) -> Option<Vec<Addr>> {
        let refs = Arc::clone(&self.refs);
        drop(self);
        Arc::try_unwrap(refs).ok()
    }
}

impl<T: ReuseTree> Drop for InFlight<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
        for slot in &self.shared.slots {
            slot.abandon();
        }
    }
}

/// Cut `window` (its first reference at global index `base`) into work
/// items and queue them on the item pool ([`crate::pool`]), rightmost
/// first, the order the cascade folds them. Each item takes its engine
/// from `engines` when it starts.
pub(crate) fn submit_items<T: ReuseTree + Default + Send>(
    window: Vec<Addr>,
    base: u64,
    config: &PardaConfig,
    engines: &Arc<Engines<T>>,
) -> InFlight<T> {
    let items = build_items(&window, base, config);
    let refs = Arc::new(window);
    let shared = Arc::new(Shared {
        slots: items.iter().map(|_| ItemSlot::default()).collect(),
        items,
        closed: AtomicBool::new(false),
    });
    let jobs: Vec<Job> = (0..shared.items.len())
        .rev()
        .map(|i| {
            let (shared, refs, engines) =
                (Arc::clone(&shared), Arc::clone(&refs), Arc::clone(engines));
            Box::new(move || run_item(&shared, refs, i, &engines)) as Job
        })
        .collect();
    crate::pool::submit(jobs);
    InFlight {
        shared,
        refs,
        config: config.clone(),
    }
}

/// One item's job on the pool: analyze the item's chunk and publish the
/// engine, or a failure marker if the analysis panicked, into its slot.
/// The slot first records that the job has started, before any failpoint,
/// so the watchdog covers the job's whole run and none of its time in the
/// queue. A job whose window was dropped (an error, a dropped stream)
/// before it reached its chunk does nothing.
fn run_item<T: ReuseTree + Default>(
    shared: &Shared<T>,
    refs: Arc<Vec<Addr>>,
    i: usize,
    engines: &Engines<T>,
) {
    let slot = &shared.slots[i];
    slot.start();
    let closed = || shared.closed.load(Ordering::Relaxed);
    if !closed() {
        // The outer catch_unwind covers the publish itself: a panic at
        // the `parallel::slot_publish` site poisons the slot lock *after*
        // the value is stored, and the cascade side recovers it through
        // the poison-tolerant lock.
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let analyzed = catch_unwind(AssertUnwindSafe(|| {
                parda_failpoint::failpoint!("parallel::worker");
                parda_failpoint::failpoint!("parallel::worker_stall");
                if closed() {
                    return None;
                }
                let item = &shared.items[i];
                let chunk = &refs[item.range.clone()];
                let analyzed = analyze_item(engines.take(chunk.len()), item, chunk, false);
                let live = analyzed.0.metrics().live_hwm as usize;
                engines.live.fetch_max(live, Ordering::Relaxed);
                Some(analyzed)
            }));
            // Let go of the window before publishing: once the fold has
            // every item, the streamer gets its buffer back.
            drop(refs);
            let outcome = match analyzed {
                Ok(Some(result)) => Ok(result),
                Ok(None) => return,
                Err(_) => Err(ItemPanic),
            };
            slot.lock().value = Some(outcome);
            parda_failpoint::failpoint!("parallel::slot_publish");
        }));
    }
    slot.finish();
}

/// Fold a submitted window's cascade ([`fold_cascade`]) as its items
/// finish on the pool, returning the stream left at the leftmost boundary.
/// Histograms, metrics and rescues accumulate into `total`, `metrics` and
/// `recovery`.
///
/// A job whose item panics publishes a failure marker, and the fold
/// rescues the item with the scalar engine under `policy`
/// ([`claim_item`]). After an error the caller drops the window: its
/// queued items are skipped, and the ones running finish and are
/// discarded.
///
/// Every item's engine is handed to `retire` once folded, live state
/// intact, with the item's chunk, where its live keys' addresses are.
pub(crate) fn cascade_items<T: ReuseTree + Default>(
    window: &InFlight<T>,
    policy: &FaultPolicy,
    metrics: &mut [RankMetrics],
    recovery: &mut RecoveryMetrics,
    total: &mut ReuseHistogram,
    mut retire: impl FnMut(usize, &[Addr], Engine<T>),
) -> Result<Vec<Addr>, PardaError> {
    let (shared, config, trace) = (&window.shared, &window.config, &window.refs);
    let chunk = |i: usize| &trace[shared.items[i].range.clone()];
    fold_cascade(
        &shared.items,
        metrics,
        total,
        |i| {
            claim_item(
                &shared.slots[i],
                &shared.items[i],
                chunk(i),
                config,
                policy,
                recovery,
            )
        },
        |i, engine| retire(i, chunk(i), engine),
    )
}

/// Per-rank metrics for `np` ranks, all zero.
pub(crate) fn rank_metrics(np: usize) -> Vec<RankMetrics> {
    (0..np)
        .map(|p| RankMetrics {
            rank: p,
            ..Default::default()
        })
        .collect()
}

/// One item's chunk analysis: process the chunk (batched or scalar) on an
/// empty engine, return it with the local infinities and wall time.
/// Shared by the workers and the rescue path.
fn analyze_item<T: ReuseTree>(
    mut engine: Engine<T>,
    item: &WorkItem,
    chunk: &[Addr],
    scalar: bool,
) -> ChunkResult<T> {
    let sw = Stopwatch::start();
    let mut local_inf = Vec::new();
    let sink = MissSink::Forward(&mut local_inf);
    if scalar {
        engine.process_chunk_scalar(chunk, item.start, sink);
    } else {
        engine.process_chunk(chunk, item.start, sink);
    }
    (engine, local_inf, sw.ns())
}

/// Claim `item`'s result for the cascade: wait (with the policy watchdog
/// over the job's own run), and if its job panicked, rescue the item by
/// re-analyzing its `chunk` with the scalar engine under bounded retries.
/// Errors name the item's owning rank.
fn claim_item<T: ReuseTree + Default>(
    slot: &ItemSlot<Result<ChunkResult<T>, ItemPanic>>,
    item: &WorkItem,
    chunk: &[Addr],
    config: &PardaConfig,
    policy: &FaultPolicy,
    recovery: &mut RecoveryMetrics,
) -> Result<(ChunkResult<T>, u64), PardaError> {
    let rank = item.owner;
    let Some((outcome, wait_ns)) = slot.take_deadline(policy.watchdog) else {
        return Err(PardaError::Stall {
            rank,
            deadline: policy
                .watchdog
                .expect("deadline exists when take times out"),
        });
    };
    if let Ok(result) = outcome {
        return Ok((result, wait_ns));
    }
    let mut attempts = 1u32; // the worker's attempt
    while attempts <= policy.max_retries {
        attempts += 1;
        recovery.rank_retries += 1;
        if !policy.retry_backoff.is_zero() {
            std::thread::sleep(policy.retry_backoff);
        }
        let engine = Engine::new(config.bound, chunk.len());
        if let Ok(result) =
            catch_unwind(AssertUnwindSafe(|| analyze_item(engine, item, chunk, true)))
        {
            recovery.rank_rescues += 1;
            return Ok((result, wait_ns));
        }
    }
    Err(PardaError::WorkerPanic { rank, attempts })
}

/// The right-to-left cascade fold of [`cascade_items`]: each item absorbs
/// everything its right neighbour would have sent over all Algorithm 3
/// rounds — that item's own local infinities followed by the survivors of
/// what it absorbed from *its* right. `claim(i)` produces item `i`'s
/// finished chunk analysis plus the wait time, blocking and rescuing as
/// [`claim_item`] does. Items are virtual ranks; metrics are grouped under
/// each item's owning rank, with timings accumulated and per-round vectors
/// pushed per absorbed stream. Each folded engine's histogram is merged
/// into `total` and the engine handed to `retire`.
///
/// Returns the stream left at the leftmost boundary: item 0's local
/// infinities followed by everything no item resolved, in first-touch
/// order. The windowed streamer hands it to its history, or, for a lone
/// window, counts it as global infinities.
fn fold_cascade<T: ReuseTree>(
    items: &[WorkItem],
    metrics: &mut [RankMetrics],
    total: &mut ReuseHistogram,
    mut claim: impl FnMut(usize) -> Result<(ChunkResult<T>, u64), PardaError>,
    mut retire: impl FnMut(usize, Engine<T>),
) -> Result<Vec<Addr>, PardaError> {
    for item in items {
        metrics[item.owner].refs += item.range.len() as u64;
    }

    // The stream is carried leftward *in place*: each item's survivors
    // overwrite resolved slots (engine-side partition), then the item's
    // own local infinities are prepended by appending the survivors to
    // them — no per-item forwarding allocation.
    let mut stream: Vec<Addr> = Vec::new();
    for (i, item) in items.iter().enumerate().rev() {
        let ((mut engine, mut own_inf, chunk_ns), wait_ns) = claim(i)?;
        let rm = &mut metrics[item.owner];
        rm.chunk_ns += chunk_ns;
        rm.cascade_wait_ns += wait_ns;
        if !stream.is_empty() {
            rm.cascade_rounds += 1;
            rm.round_infinity_lens.push(stream.len() as u64);
        }
        let sw = Stopwatch::start();
        let received = !stream.is_empty();
        let stats = engine.process_infinities_in_place(&mut stream);
        if received {
            rm.record_round(&stats);
        }
        rm.cascade_ns += sw.ns();
        own_inf.append(&mut stream);
        stream = own_inf;
        // Only a stream crossing into another item counts as forwarded.
        if i > 0 {
            rm.infinities_forwarded += stream.len() as u64;
        }
        rm.engine.merge(engine.metrics());
        total.merge(engine.histogram());
        retire(i, engine);
    }
    Ok(stream)
}

/// An item's finished chunk analysis: the engine, its local infinities,
/// and the chunk wall time in nanoseconds.
type ChunkResult<T> = (Engine<T>, Vec<Addr>, u64);

/// Marker for an item whose chunk-analysis worker panicked; the cascade
/// side rescues the item by re-analyzing the chunk itself.
struct ItemPanic;

/// Per-item completion slot of the pipelined schedule: a job records its
/// start and publishes its finished value here; the cascade thread blocks
/// on `take_deadline` for the one item it needs next.
///
/// All lock acquisitions shed poison ([`Mutex::lock`] →
/// `unwrap_or_else(PoisonError::into_inner)`): a worker that panicked
/// while holding the slot — e.g. via the `parallel::slot_publish`
/// failpoint — must not take the cascade down with it, and the state is
/// always observable in a coherent form (the value is written before any
/// panic window).
struct ItemSlot<V> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

/// The slot's job: when it started, whether it has returned, whether its
/// window was abandoned while it ran, and its published value.
struct SlotState<V> {
    started: Option<Instant>,
    finished: bool,
    abandoned: bool,
    value: Option<V>,
}

impl<V> Default for ItemSlot<V> {
    fn default() -> Self {
        Self {
            state: Mutex::new(SlotState {
                started: None,
                finished: false,
                abandoned: false,
                value: None,
            }),
            ready: Condvar::new(),
        }
    }
}

impl<V> ItemSlot<V> {
    /// Poison-tolerant lock on the slot state.
    fn lock(&self) -> MutexGuard<'_, SlotState<V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record that the item's job has left the queue and started.
    fn start(&self) {
        self.lock().started = Some(Instant::now());
        self.ready.notify_one();
    }

    /// Record that the item's job has returned, after any publish, and
    /// give back its worker if its window was abandoned meanwhile.
    fn finish(&self) {
        let mut state = self.lock();
        state.finished = true;
        if state.abandoned {
            crate::pool::release();
        }
        drop(state);
        self.ready.notify_one();
    }

    /// The slot's window is abandoned: a job still running holds its
    /// worker for nobody until it returns.
    fn abandon(&self) {
        let mut state = self.lock();
        if state.started.is_some() && !state.finished {
            state.abandoned = true;
            crate::pool::hold();
        }
    }

    /// Block until the item's value is published, returning it plus the
    /// time spent waiting — the pipeline bubble recorded as
    /// [`RankMetrics::cascade_wait_ns`]. With a `deadline`, the job has
    /// that long from its start: `None` once it expires (the watchdog
    /// converts that into [`PardaError::Stall`]). A job still queued
    /// behind other work is waited for without one, unless every worker
    /// is held by a job of an abandoned window ([`crate::pool::clogged`]):
    /// then the deadline runs from when the wait saw the pool clogged.
    fn take_deadline(&self, deadline: Option<Duration>) -> Option<(V, u64)> {
        let sw = Stopwatch::start();
        let mut clogged_since = None;
        let mut guard = self.lock();
        loop {
            if let Some(v) = guard.value.take() {
                return Some((v, sw.ns()));
            }
            let Some(limit) = deadline else {
                guard = self.ready.wait(guard).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            let since = match guard.started {
                Some(started) => Some(started),
                None if crate::pool::clogged() => {
                    Some(*clogged_since.get_or_insert_with(Instant::now))
                }
                None => {
                    clogged_since = None;
                    None
                }
            };
            // A queued job is rechecked once a deadline's length.
            let wait = match since {
                Some(since) => limit.checked_sub(since.elapsed())?,
                None => limit,
            };
            guard = self
                .ready
                .wait_timeout(guard, wait)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::analyze_sequential;
    use parda_trace::SliceStream;
    use parda_tree::{AvlTree, SplayTree, VectorTree};
    use proptest::prelude::*;

    fn labels(s: &str) -> Vec<Addr> {
        s.bytes().map(u64::from).collect()
    }

    #[test]
    fn check_limits_refuses_sizes_no_driver_can_take() {
        assert!(check_limits(4, Some(65_536), Some(1), 63).is_ok());
        assert!(check_limits(0, None, None, 0).is_ok(), "0 ranks runs as 1");
        assert!(check_limits(MAX_RANKS, Some(usize::MAX / MAX_RANKS), None, 0).is_ok());
        for (ranks, chunk, bound, line_bits) in [
            (4, None, Some(0), 0),
            (4, Some(0), None, 0),
            (4, None, None, 64),
            (4, None, None, 70),
            (MAX_RANKS + 1, None, None, 0),
            (1_000_000_000_000, None, None, 0),
            (2, Some(usize::MAX / 2 + 1), None, 0),
        ] {
            let err = check_limits(ranks, chunk, bound, line_bits).unwrap_err();
            assert_eq!(
                err.class(),
                "config",
                "{ranks} {chunk:?} {bound:?} {line_bits}"
            );
        }
    }

    /// Paper Table II trace: two chunks, local vs global distances.
    #[test]
    fn table2_local_vs_global() {
        let trace = labels("dacbccgefafbc");
        assert_eq!(trace.len(), 13);
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        // Global distances per Table II: ∞×7 at first touches, then
        // 1 (c@4), 0 (c@5), 5 (a@9), 1 (f@10), 5 (b@11), 5 (c@12).
        assert_eq!(seq.infinite(), 7);
        assert_eq!(seq.count(0), 1);
        assert_eq!(seq.count(1), 2);
        assert_eq!(seq.count(5), 3);

        for np in [2, 3, 4] {
            let cfg = PardaConfig::with_ranks(np);
            assert_eq!(parda_threads::<SplayTree>(&trace, &cfg), seq, "np={np}");
        }
    }

    /// Paper Table III + Figure 2: the three-processor space-optimized
    /// walkthrough, asserting the intermediate states shown in the figure.
    #[test]
    fn table3_figure2_walkthrough() {
        let trace = labels("dacbccgefafbcmtmacfbdcac");
        assert_eq!(trace.len(), 24);
        let chunks = chunk_slice(&trace, 3);
        // A rank's tree, as `timestamp:address` pairs: the keys are the
        // timestamps, and each one's address is the trace's reference there.
        let state = |e: &Engine<SplayTree>| -> Vec<(u64, u64)> {
            e.export_state()
                .into_iter()
                .map(|ts| (ts, trace[ts as usize]))
                .collect()
        };

        // -- chunk processing (Figure 2 top row) --
        let mut e0: Engine<SplayTree> = Engine::new(None, 0);
        let mut inf0 = Vec::new();
        e0.process_chunk(chunks[0], 0, MissSink::Forward(&mut inf0));
        assert_eq!(inf0, labels("dacbge"), "Figure 2(a) local infinities");

        let mut e1: Engine<SplayTree> = Engine::new(None, 0);
        let mut inf1 = Vec::new();
        e1.process_chunk(chunks[1], 8, MissSink::Forward(&mut inf1));
        assert_eq!(inf1, labels("fabcmt"), "Figure 2(b) local infinities");

        let mut e2: Engine<SplayTree> = Engine::new(None, 0);
        let mut inf2 = Vec::new();
        e2.process_chunk(chunks[2], 16, MissSink::Forward(&mut inf2));
        assert_eq!(inf2, labels("acfbd"), "Figure 2(c) local infinities");
        // Figure 2(c) tree: {17:? ...} — the full p=2 tree holds its six
        // live elements keyed by last access: 18:f 19:b 20:d 22:a 23:c.
        assert_eq!(
            e2.histogram().finite_counts().iter().sum::<u64>(),
            3,
            "p=2 has three intra-chunk reuses (c@21? a@22? c@23)"
        );

        // -- p=1 absorbs p=2's infinities (Figure 2(e)) --
        let mut out1 = Vec::new();
        e1.process_infinities(&inf2, &mut out1);
        assert_eq!(out1, labels("d"), "only d survives p=1");
        assert_eq!(e1.stream_count(), 5, "Figure 2(e) count=5");
        assert_eq!(
            state(&e1),
            vec![(14, b't' as u64), (15, b'm' as u64)],
            "Figure 2(e) tree holds 14:t and 15:m"
        );

        // -- p=0 absorbs p=1's round-0 list (Figure 2(d)) --
        let mut out0 = Vec::new();
        e0.process_infinities(&inf1, &mut out0);
        assert_eq!(out0, labels("fmt"), "Figure 2(d) local_infinities = f m t");
        assert_eq!(e0.stream_count(), 6, "Figure 2(d) count=6");
        assert_eq!(
            state(&e0),
            vec![(0, b'd' as u64), (6, b'g' as u64), (7, b'e' as u64)],
            "Figure 2(d) tree holds 0:d, 6:g, 7:e"
        );

        // -- p=0 absorbs p=1's round-1 survivors (Figure 2(f)) --
        let mut out0b = Vec::new();
        e0.process_infinities(&out1, &mut out0b);
        assert!(out0b.is_empty(), "d resolves at p=0");
        assert_eq!(e0.stream_count(), 7, "Figure 2(f) count=7");
        assert_eq!(
            state(&e0),
            vec![(6, b'g' as u64), (7, b'e' as u64)],
            "Figure 2(f) tree holds 6:g and 7:e"
        );

        // -- full parallel result equals sequential --
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        for np in [2, 3, 5, 8] {
            let cfg = PardaConfig::with_ranks(np);
            assert_eq!(parda_threads::<SplayTree>(&trace, &cfg), seq, "np={np}");
        }
    }

    #[test]
    fn more_ranks_than_references() {
        let trace = labels("aba");
        let cfg = PardaConfig::with_ranks(16);
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        assert_eq!(parda_threads::<SplayTree>(&trace, &cfg), seq);
    }

    #[test]
    fn empty_trace() {
        let cfg = PardaConfig::with_ranks(4);
        assert_eq!(parda_threads::<SplayTree>(&[], &cfg).total(), 0);
    }

    #[test]
    fn single_rank_degenerates_to_sequential() {
        let trace: Vec<Addr> = (0..200).map(|i| (i * 3) % 37).collect();
        let cfg = PardaConfig::with_ranks(1);
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        assert_eq!(parda_threads::<SplayTree>(&trace, &cfg), seq);
    }

    /// Bounded-analysis contract (paper Section V): distances below the
    /// bound are exact; everything at or above the bound may be reported
    /// either exactly or as ∞ (it is a miss for every cache ≤ B either
    /// way). Bounded *parallel* can resolve some d ≥ B exactly that bounded
    /// *sequential* lumps into ∞ — so the comparison is per-bucket below B
    /// against the unbounded ground truth, not histogram equality.
    fn assert_bounded_contract(bounded: &ReuseHistogram, full: &ReuseHistogram, bound: u64) {
        assert_eq!(bounded.total(), full.total(), "mass must be conserved");
        for d in 0..bound {
            assert_eq!(
                bounded.count(d),
                full.count(d),
                "bucket {d} under bound {bound}"
            );
        }
        for cap in [1, bound / 2, bound] {
            if cap >= 1 {
                assert_eq!(
                    bounded.miss_count(cap),
                    full.miss_count(cap),
                    "miss count at capacity {cap} (bound {bound})"
                );
            }
        }
        assert!(bounded.infinite() >= full.infinite());
    }

    use parda_hist::ReuseHistogram;

    #[test]
    fn bounded_parallel_honours_the_bound_contract() {
        let trace: Vec<Addr> = (0..2_000).map(|i| (i * 31) % 257).collect();
        let full = analyze_sequential::<SplayTree>(&trace, None);
        for bound in [8u64, 64, 512] {
            for np in [2, 4, 7] {
                let cfg = PardaConfig::with_ranks(np).bounded(bound);
                let threads = parda_threads::<SplayTree>(&trace, &cfg);
                assert_bounded_contract(&threads, &full, bound);
            }
        }
    }

    #[test]
    fn subdivided_work_stealing_matches_sequential() {
        let trace: Vec<Addr> = (0..3_000).map(|i| (i * 29) % 211).collect();
        let seq = analyze_sequential::<SplayTree>(&trace, None);
        for grain in [1usize, 7, 64, 500] {
            for np in [2, 3, 5] {
                let cfg = PardaConfig::with_ranks(np).subchunk_refs(grain);
                assert_eq!(
                    parda_threads::<SplayTree>(&trace, &cfg),
                    seq,
                    "np={np} grain={grain}"
                );
            }
        }
    }

    #[test]
    fn subdivided_metrics_group_by_owner_rank() {
        let trace: Vec<Addr> = (0..4_000).map(|i| (i * 13) % 311).collect();
        let np = 3;
        let cfg = PardaConfig::with_ranks(np).subchunk_refs(100);
        let (hist, metrics) = parda_threads_with_stats::<SplayTree>(&trace, &cfg);
        assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
        assert_eq!(metrics.len(), np, "metrics stay grouped per reported rank");
        assert_eq!(metrics.iter().map(|m| m.refs).sum::<u64>(), 4_000);
        assert_eq!(metrics.iter().map(|m| m.engine.refs).sum::<u64>(), 4_000);
        for m in &metrics {
            // Every rank was split into MAX_PARTS_PER_RANK items; all but
            // the leftmost item absorb a non-empty stream on this trace.
            assert!(m.cascade_rounds >= 1, "rank {} absorbed no stream", m.rank);
            assert_eq!(m.cascade_rounds as usize, m.round_infinity_lens.len());
            assert_eq!(m.round_infinity_lens.len(), m.round_batch_deletes.len());
        }
        // Conservation: everything forwarded across a virtual boundary is
        // received exactly once somewhere to its left.
        let forwarded: u64 = metrics.iter().map(|m| m.infinities_forwarded).sum();
        let received: u64 = metrics
            .iter()
            .flat_map(|m| m.round_infinity_lens.iter())
            .sum();
        assert_eq!(forwarded, received);
    }

    #[test]
    fn faulted_driver_matches_unfaulted_without_faults() {
        let trace: Vec<Addr> = (0..1_500).map(|i| (i * 13) % 131).collect();
        let policy = FaultPolicy::default();
        for np in [1, 2, 4, 7] {
            let cfg = PardaConfig::with_ranks(np);
            let (hist, metrics, recovery) =
                parda_threads_faulted::<SplayTree>(&trace, &cfg, &policy).unwrap();
            assert_eq!(hist, parda_threads::<SplayTree>(&trace, &cfg), "np={np}");
            assert_eq!(metrics.len(), np);
            assert_eq!(metrics.iter().map(|m| m.refs).sum::<u64>(), 1_500);
            assert_eq!(recovery.rank_retries, 0, "no faults, no retries");
            assert_eq!(recovery.rank_rescues, 0);
        }
    }

    #[test]
    fn faulted_driver_subdivides_like_the_plain_one() {
        let trace: Vec<Addr> = (0..3_000).map(|i| (i * 29) % 211).collect();
        let cfg = PardaConfig::with_ranks(3).subchunk_refs(16);
        let (hist, metrics, _) =
            parda_threads_faulted::<SplayTree>(&trace, &cfg, &FaultPolicy::default()).unwrap();
        let (plain_hist, plain) = parda_threads_with_stats::<SplayTree>(&trace, &cfg);
        assert_eq!(hist, plain_hist);
        assert_eq!(metrics.len(), plain.len());
        for (m, p) in metrics.iter().zip(&plain) {
            let rank = m.rank;
            assert_eq!(m.refs, p.refs, "rank {rank}");
            assert_eq!(m.cascade_rounds, p.cascade_rounds, "rank {rank}");
            assert_eq!(m.round_infinity_lens, p.round_infinity_lens, "rank {rank}");
            assert_eq!(
                m.infinities_forwarded, p.infinities_forwarded,
                "rank {rank}"
            );
        }
        assert!(
            metrics.iter().any(|m| m.cascade_rounds > 1),
            "sub-chunks add cascade rounds within a rank"
        );
    }

    #[test]
    fn faulted_driver_watchdog_is_quiet_on_healthy_runs() {
        let trace: Vec<Addr> = (0..800).map(|i| (i * 7) % 89).collect();
        let cfg = PardaConfig::with_ranks(4);
        let policy = FaultPolicy::default().watchdog(std::time::Duration::from_secs(30));
        let (hist, _, _) = parda_threads_faulted::<SplayTree>(&trace, &cfg, &policy).unwrap();
        assert_eq!(hist, parda_threads::<SplayTree>(&trace, &cfg));
    }

    #[test]
    fn faulted_driver_handles_empty_and_tiny_traces() {
        let policy = FaultPolicy::default();
        let cfg = PardaConfig::with_ranks(4);
        let (hist, _, _) = parda_threads_faulted::<SplayTree>(&[], &cfg, &policy).unwrap();
        assert_eq!(hist.total(), 0);
        let trace = labels("aba");
        let (hist, _, _) = parda_threads_faulted::<SplayTree>(&trace, &cfg, &policy).unwrap();
        assert_eq!(hist, analyze_sequential::<SplayTree>(&trace, None));
    }

    /// Load is not a stall: items queued behind other work on a busy pool
    /// wait without a deadline, and the watchdog covers only their own run.
    #[test]
    fn items_queued_behind_a_busy_pool_are_not_a_stall() {
        let trace: Vec<Addr> = (0..20_000).map(|i| (i * 7_919) % 1_024).collect();
        let expected = analyze_sequential::<SplayTree>(&trace, None);
        let busy = (0..crate::pool::worker_count())
            .map(|_| Box::new(|| std::thread::sleep(Duration::from_millis(600))) as Job);
        crate::pool::submit(busy);
        let policy = FaultPolicy::default().watchdog(Duration::from_millis(200));
        let config = PardaConfig::with_ranks(4);
        let (hist, ..) = Streamer::<VectorTree>::phased(&config, &policy, 1_000)
            .pull(SliceStream::new(&trace))
            .expect("queued items are no stall");
        assert_eq!(hist, expected);
    }

    proptest! {
        /// The fault-tolerant driver is bit-identical to the plain one on
        /// healthy runs for every trace, rank count, and bound.
        #[test]
        fn faulted_equals_unfaulted_prop(
            trace in proptest::collection::vec(0u64..48, 0..300),
            np in 1usize..7,
        ) {
            let cfg = PardaConfig::with_ranks(np);
            let (hist, _, _) = parda_threads_faulted::<SplayTree>(
                &trace, &cfg, &FaultPolicy::default(),
            ).unwrap();
            prop_assert_eq!(hist, parda_threads::<SplayTree>(&trace, &cfg));
        }
    }

    proptest! {
        /// Core correctness theorem (paper Section IV-B): Parda equals the
        /// sequential analysis for every trace and rank count.
        #[test]
        fn parallel_equals_sequential(
            trace in proptest::collection::vec(0u64..48, 0..400),
            np in 1usize..9,
        ) {
            let seq = analyze_sequential::<SplayTree>(&trace, None);
            let cfg = PardaConfig::with_ranks(np);
            prop_assert_eq!(parda_threads::<SplayTree>(&trace, &cfg), seq.clone());
            prop_assert_eq!(parda_threads::<AvlTree>(&trace, &cfg), seq);
        }

        /// Bounded Parda honours the Algorithm 7 contract for every trace,
        /// rank count, and bound: exact below B, mass-conserving, and
        /// miss-count-exact for every cache capacity ≤ B — on the paper's
        /// splay tree and on the default vector, whose `oldest()` eviction
        /// goes through the Fenwick `select`.
        #[test]
        fn bounded_parallel_contract_prop(
            trace in proptest::collection::vec(0u64..48, 0..300),
            np in 1usize..6,
            bound in 1u64..32,
        ) {
            let full = analyze_sequential::<SplayTree>(&trace, None);
            let cfg = PardaConfig::with_ranks(np).bounded(bound);
            for bounded in [
                parda_threads::<SplayTree>(&trace, &cfg),
                parda_threads::<VectorTree>(&trace, &cfg),
            ] {
                prop_assert_eq!(bounded.total(), full.total());
                for d in 0..bound {
                    prop_assert_eq!(bounded.count(d), full.count(d), "bucket {}", d);
                }
                for cap in 1..=bound {
                    prop_assert_eq!(bounded.miss_count(cap), full.miss_count(cap), "capacity {}", cap);
                }
            }
        }
    }
}
