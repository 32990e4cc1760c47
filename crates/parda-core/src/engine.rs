//! The per-rank analysis engine: paper Algorithms 1 (tree-based sequential),
//! 4 (space-optimized local-infinity processing) and 7 (bounded analysis)
//! unified over one state struct.
//!
//! An [`Engine`] owns the three data structures the paper threads through
//! its pseudocode — the tree `T`, the last-access table `H`, and the
//! histogram `hist` — plus the two counters of the optimized/bounded
//! variants: `l` (local infinities forwarded, Algorithm 7) and `count`
//! (incoming infinities seen, Algorithm 4). The sequential, parallel, and
//! windowed streaming analyzers are all thin drivers over this type.
//!
//! `H` holds the key the tree returned for each address's last access:
//! the timestamp itself in a search tree, an axis position in the
//! [`parda_tree::VectorTree`]. Before every append the engine makes room
//! in the tree, and when that compacts the vector's axis it maps every
//! key in `H` to its new position in one sweep of the table.
//!
//! The trees store keys only, so an engine learns a live key's address
//! from the chunk it analyzed. An engine that starts a chunk empty makes
//! room for the whole chunk at once: its keys are then the chunk's offsets
//! past the first one, no compaction moves them, and every live key's
//! address is the chunk's reference at that offset. That is how bounded
//! eviction finds its victim's address and how the windowed streamer
//! exports an item's live addresses, so a bounded engine takes only a
//! chunk from empty. The history, which never analyzes a chunk, evicts by
//! key alone: the evicted entries stay in `H`, dead, until the next
//! compaction's table sweep drops them, and a probe that finds a dead key
//! is a miss.

use parda_hash::LastAccessTable;
use parda_hist::ReuseHistogram;
use parda_obs::{CascadeRoundStats, EngineMetrics, Stopwatch};
use parda_trace::Addr;
use parda_tree::ReuseTree;

/// Width of the prefetch-batched hot path (one `u64` hit mask per batch) —
/// see [`Engine::process_chunk`]. Module-level so the generic impl can size
/// arrays with it.
const BATCH: usize = 64;

/// What to do with a reference that misses the last-access table.
#[derive(Debug)]
pub enum MissSink<'a> {
    /// Count it as an infinite distance immediately. This is rank 0's
    /// behaviour (its local infinities are authoritative global infinities)
    /// and the behaviour of the standalone sequential analyzer.
    Infinite,
    /// Append it to a local-infinities queue to be forwarded to the left
    /// neighbour (subject to the bound `l < B` in bounded mode).
    Forward(&'a mut Vec<Addr>),
}

/// Reuse-distance analysis state for one rank (or the whole trace when run
/// sequentially).
///
/// # Examples
///
/// Running paper Algorithm 1 over the Table I trace:
///
/// ```
/// use parda_core::{Engine, MissSink};
/// use parda_tree::SplayTree;
///
/// let trace: Vec<u64> = "dacbccgefa".bytes().map(u64::from).collect();
/// let mut engine: Engine<SplayTree> = Engine::new(None, 0);
/// engine.process_chunk(&trace, 0, MissSink::Infinite);
///
/// let hist = engine.into_histogram();
/// assert_eq!(hist.infinite(), 7);
/// assert_eq!(hist.count(0), 1); // the c→c reuse at time 5
/// assert_eq!(hist.count(1), 1); // c at time 4 over b
/// assert_eq!(hist.count(5), 1); // a at time 9
/// ```
#[derive(Clone, Debug)]
pub struct Engine<T: ReuseTree> {
    tree: T,
    table: LastAccessTable,
    hist: ReuseHistogram,
    /// `B`: cap on tree/table size and on forwarded infinities
    /// (paper Algorithm 7). `None` = unbounded (full accuracy).
    bound: Option<u64>,
    /// `l`: local infinities forwarded so far.
    forwarded: u64,
    /// `count`: incoming local infinities processed so far (Algorithm 4).
    stream_count: u64,
    /// One past the newest timestamp appended: where imported state goes.
    clock: u64,
    /// The key of the first reference of the chunk this engine started
    /// empty: live key `k` stands for that chunk's reference at offset
    /// `k - chunk_key`. `None` before any chunk, and once state from
    /// anywhere else — a second chunk, an import — has joined it.
    chunk_key: Option<u64>,
    /// Cumulative operation counters (never reset at window boundaries).
    metrics: EngineMetrics,
}

impl<T: ReuseTree + Default> Engine<T> {
    /// Ceiling on up-front pre-sizing: a hint above 2^20 entries (tens of
    /// MB of table + arena) stops paying for itself — growth from there is
    /// a handful of amortized doublings, not a per-chunk rehash storm.
    const MAX_PRESIZE: usize = 1 << 20;

    /// Create an engine with the given cache bound (`None` = unbounded) and
    /// a capacity hint — typically the length of the chunk this engine will
    /// analyze (0 = no hint).
    ///
    /// The hint pre-sizes the last-access table and the tree arena so the
    /// hot loop avoids rehash/realloc pauses mid-chunk. It is clamped by
    /// the bound (a bounded engine holds at most `B` live elements) and by
    /// a 2^20-entry ceiling (`MAX_PRESIZE`).
    pub fn new(bound: Option<u64>, capacity_hint: usize) -> Self {
        assert!(bound != Some(0), "a zero bound would admit no state at all");
        let hint = capacity_hint
            .min(Self::MAX_PRESIZE)
            .min(bound.map_or(usize::MAX, |b| usize::try_from(b).unwrap_or(usize::MAX)));
        let mut tree = T::default();
        tree.reserve(hint);
        Self {
            tree,
            table: LastAccessTable::with_capacity(hint),
            hist: ReuseHistogram::new(),
            bound,
            forwarded: 0,
            stream_count: 0,
            clock: 0,
            chunk_key: None,
            metrics: EngineMetrics::default(),
        }
    }
}

impl<T: ReuseTree> Engine<T> {
    /// The configured bound, if any.
    pub fn bound(&self) -> Option<u64> {
        self.bound
    }

    /// Number of live elements tracked (`|T|`; `H` can also hold the dead
    /// entries of a history's evictions until its next compaction).
    pub fn live(&self) -> usize {
        self.tree.len()
    }

    /// Local infinities forwarded so far (`l`).
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Incoming infinities processed so far (`count`).
    pub fn stream_count(&self) -> u64 {
        self.stream_count
    }

    /// Read access to the histogram accumulated so far.
    pub fn histogram(&self) -> &ReuseHistogram {
        &self.hist
    }

    /// Cumulative operation counters (tree ops, live-set high-water mark,
    /// cascade hit/forward tallies). Unlike [`Engine::forwarded`] and
    /// [`Engine::stream_count`], these survive window-counter resets.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Consume the engine, returning its histogram.
    pub fn into_histogram(self) -> ReuseHistogram {
        self.hist
    }

    /// Width of the prefetch-batched hot path: one `u64` hit mask per batch.
    pub const BATCH: usize = BATCH;

    /// Make room in the tree for `appends` appends, moving the keys in `H`
    /// with any compaction that moves them in the tree and dropping the
    /// entries whose key it reports dead.
    #[inline]
    fn make_room(&mut self, appends: usize) {
        if let Some(relabel) = self.tree.make_room(appends) {
            self.table.relabel(|key| relabel.apply(key));
            self.metrics.relabels += 1;
        }
    }

    /// Start a chunk of `refs` references, the first at `start_ts`. An
    /// empty engine makes room for all of them at once and records where
    /// the chunk's keys start (see the module docs); any other engine
    /// makes room as it goes and has state from outside the chunk.
    ///
    /// # Panics
    ///
    /// If the engine is bounded and not empty: its LRU victims must be
    /// this chunk's references, whose addresses it reads from the chunk.
    fn begin_chunk(&mut self, refs: usize, start_ts: u64) {
        if self.tree.is_empty() {
            self.make_room(refs);
            self.chunk_key = Some(self.tree.next_key(start_ts));
        } else {
            assert!(
                self.bound.is_none(),
                "a bounded engine analyzes one chunk from empty: reset it before the next chunk"
            );
            self.chunk_key = None;
        }
    }

    /// The address of live key `key`, read from `chunk`, the chunk this
    /// engine started empty.
    #[inline]
    fn chunk_addr(&self, chunk: &[Addr], key: u64) -> Addr {
        let first = self
            .chunk_key
            .expect("live keys are one chunk's only when the engine started it empty");
        chunk[(key - first) as usize]
    }

    /// Process a contiguous chunk of the trace whose first reference has
    /// global index `start_ts` (Algorithm 1 body, with the Algorithm 7
    /// bound when configured).
    ///
    /// Misses go to `miss_sink`; in bounded mode, only the first `B` misses
    /// are forwarded — the rest are provably at distance ≥ B and recorded
    /// as infinite (capacity misses).
    ///
    /// In unbounded mode this runs the prefetch-batched hot path: the chunk
    /// is consumed in batches of [`Self::BATCH`] references whose
    /// last-access-table slots are software-prefetched and probed *before*
    /// any tree work, turning a per-reference chain of dependent cache
    /// misses (hash probe → splay descent → next hash probe) into
    /// overlapped ones. Bit-identical to [`Self::process_chunk_scalar`]:
    /// table upserts are independent of tree state when no eviction can
    /// occur, so probing a batch ahead observes exactly the keys the scalar
    /// interleaving would, and tree ops replay in trace order. Room for a
    /// whole batch is made before its probes — for the whole chunk, on an
    /// empty engine — so its keys are the tree's next key plus the
    /// reference's index in the batch.
    /// Bounded mode (where Algorithm 7's LRU eviction couples the table to
    /// the tree per reference) and tiny chunks take the scalar path.
    ///
    /// # Panics
    ///
    /// If the engine is bounded and not empty (see the module docs).
    pub fn process_chunk(&mut self, chunk: &[Addr], start_ts: u64, miss_sink: MissSink<'_>) {
        parda_failpoint::failpoint!("engine::process_chunk");
        if self.bound.is_some() || chunk.len() < Self::BATCH {
            return self.process_chunk_scalar(chunk, start_ts, miss_sink);
        }
        self.begin_chunk(chunk.len(), start_ts);
        let mut sink = miss_sink;
        self.metrics.refs += chunk.len() as u64;
        let mut prev = [0u64; BATCH];
        for (batch_idx, batch) in chunk.chunks(BATCH).enumerate() {
            let base_ts = start_ts + (batch_idx * BATCH) as u64;
            self.make_room(batch.len());
            let base_key = self.tree.next_key(base_ts);
            // Pass 1: hint every probe slot the batch will touch.
            for &z in batch {
                self.table.prefetch(z);
            }
            // Pass 2: probe/upsert the table, recording each reference's
            // key and learning its previous one. Within-batch repeats behave
            // exactly like the scalar loop: the upsert returns the key the
            // earlier occurrence just recorded.
            let mut hits: u64 = 0;
            for (i, &z) in batch.iter().enumerate() {
                if let Some(k0) = self.table.record(z, base_key + i as u64) {
                    prev[i] = k0;
                    hits |= 1 << i;
                }
            }
            // Pass 3: tree ops and histogram updates, replayed in trace
            // order so the result is bit-identical to the scalar path.
            for (i, &z) in batch.iter().enumerate() {
                let ts = base_ts + i as u64;
                if hits & (1 << i) != 0 {
                    let d = self
                        .tree
                        .distance_and_remove(prev[i])
                        .expect("table and tree are kept in sync");
                    self.hist.record_finite(d);
                    self.metrics.finite_hits += 1;
                    self.metrics.tree_ops += 1;
                } else {
                    match &mut sink {
                        MissSink::Forward(out) => {
                            out.push(z);
                            self.forwarded += 1;
                            self.metrics.forwarded += 1;
                        }
                        MissSink::Infinite => {
                            self.hist.record_infinite();
                            self.metrics.cold_misses += 1;
                        }
                    }
                }
                let key = self.tree.append(ts);
                debug_assert_eq!(key, base_key + i as u64, "batch keys are consecutive");
                self.metrics.tree_ops += 1;
            }
            self.metrics.batches += 1;
            // The live set only grows in unbounded chunk processing, so the
            // per-batch reading equals the scalar per-reference maximum.
            let live = self.tree.len() as u64;
            if live > self.metrics.live_hwm {
                self.metrics.live_hwm = live;
            }
        }
        self.clock = start_ts + chunk.len() as u64;
    }

    /// Scalar (one reference at a time) chunk processing — the literal
    /// Algorithm 1/7 loop and the reference implementation the batched
    /// [`Self::process_chunk`] must match bit-for-bit. Public so the
    /// equivalence test suite and ablation benchmarks can drive it
    /// directly.
    ///
    /// # Panics
    ///
    /// If the engine is bounded and not empty (see the module docs).
    pub fn process_chunk_scalar(&mut self, chunk: &[Addr], start_ts: u64, miss_sink: MissSink<'_>) {
        parda_failpoint::failpoint!("engine::process_chunk_scalar");
        self.begin_chunk(chunk.len(), start_ts);
        let mut sink = miss_sink;
        self.metrics.refs += chunk.len() as u64;
        for (i, &z) in chunk.iter().enumerate() {
            let ts = start_ts + i as u64;
            self.make_room(1);
            let key = self.tree.next_key(ts);
            // One hash probe per reference: the upsert returns the previous
            // key, which is all Algorithm 1 needs (`H(z)` then `H(z) ← t`
            // in the paper).
            if let Some(k0) = self.table.record(z, key) {
                let d = self
                    .tree
                    .distance_and_remove(k0)
                    .expect("table and tree are kept in sync");
                self.hist.record_finite(d);
                self.metrics.finite_hits += 1;
                self.metrics.tree_ops += 1;
            } else {
                let forward_ok = match self.bound {
                    Some(b) => self.forwarded < b,
                    None => true,
                };
                match (&mut sink, forward_ok) {
                    (MissSink::Forward(out), true) => {
                        out.push(z);
                        self.forwarded += 1;
                        self.metrics.forwarded += 1;
                    }
                    _ => {
                        self.hist.record_infinite();
                        self.metrics.cold_misses += 1;
                    }
                }
                // LRU eviction keeps |H| ≤ B: the leftmost (oldest) tree
                // node is the victim (paper `find_oldest`), and its address
                // is the chunk's reference at its key. `z` is already in
                // the table (not yet in the tree), hence the `> b`.
                if let Some(b) = self.bound {
                    if self.table.len() as u64 > b {
                        let victim = self.tree.oldest().expect("bounded full tree is non-empty");
                        self.tree.remove(victim);
                        self.table.forget(self.chunk_addr(chunk, victim));
                        self.metrics.tree_ops += 1;
                    }
                }
            }
            let appended = self.tree.append(ts);
            debug_assert_eq!(appended, key, "next_key names the append's key");
            self.metrics.tree_ops += 1;
            let live = self.tree.len() as u64;
            if live > self.metrics.live_hwm {
                self.metrics.live_hwm = live;
            }
        }
        self.clock = start_ts + chunk.len() as u64;
    }

    /// Space-optimized processing of a neighbour's local-infinities sequence
    /// (paper Algorithm 4): [`Self::process_infinities_in_place`] over a
    /// copy of `incoming`, with the misses appended to `out`.
    pub fn process_infinities(
        &mut self,
        incoming: &[Addr],
        out: &mut Vec<Addr>,
    ) -> CascadeRoundStats {
        let mut slab = incoming.to_vec();
        let stats = self.process_infinities_in_place(&mut slab);
        out.append(&mut slab);
        stats
    }

    /// Space-optimized processing of a neighbour's local-infinities sequence
    /// (paper Algorithm 4), in place: `slab` is both the incoming stream
    /// and, on return, the surviving (unresolved) suffix.
    ///
    /// Hits measure their distance as `tree_distance + count` — `count`
    /// accounts for the distinct elements of the incoming stream that are
    /// deliberately *not* stored — and then delete the node (Property 4.3:
    /// the stream never repeats an element, so the node is dead weight).
    /// Misses are forwarded (bounded by `l < B` in bounded mode), compacted
    /// leftward during the probe pass (Kuszmaul-style in-place partition),
    /// so the cascade never copies survivors into an auxiliary array.
    ///
    /// Unbounded streams of at least [`Self::BATCH`] elements take the
    /// batched path: prefetch-batched table probes collect the hits' keys,
    /// then the tree resolves them in one call
    /// ([`ReuseTree::distance_and_remove_each`]) — in stream order on the
    /// vector, by a sorted sweep on the search trees. Bounded mode and short
    /// streams run the scalar reference loop. Both produce bit-identical
    /// histograms and forward streams — see
    /// [`Self::process_infinities_scalar`].
    pub fn process_infinities_in_place(&mut self, slab: &mut Vec<Addr>) -> CascadeRoundStats {
        if self.bound.is_some() || slab.len() < Self::BATCH {
            let incoming = std::mem::take(slab);
            return self.process_infinities_scalar(&incoming, slab);
        }
        let n = slab.len();
        debug_assert!(n <= u32::MAX as usize);
        self.metrics.stream_refs += n as u64;
        let base = self.stream_count;
        let merge_sw = Stopwatch::start();
        // Each hit's key, and its index in the stream.
        let mut keys: Vec<u64> = Vec::new();
        let mut at: Vec<u32> = Vec::new();
        let mut write = 0usize;
        let mut read = 0usize;
        while read < n {
            let end = (read + Self::BATCH).min(n);
            for &z in &slab[read..end] {
                self.table.prefetch(z);
            }
            for i in read..end {
                let z = slab[i];
                if let Some(k0) = self.table.forget(z) {
                    keys.push(k0);
                    at.push(i as u32);
                } else {
                    slab[write] = z;
                    write += 1;
                    self.forwarded += 1;
                    self.metrics.forwarded += 1;
                }
            }
            read = end;
        }
        slab.truncate(write);
        self.stream_count += n as u64;
        let merge_ns = merge_sw.ns();
        if keys.is_empty() {
            return CascadeRoundStats {
                resolved: 0,
                merge_ns,
                batch_ns: 0,
            };
        }
        // The hit at stream index `i` measures `distance + count`, with the
        // distance taken after every earlier hit's removal and `count` the
        // `base + i` stream elements before it (Algorithm 4).
        let sweep_sw = Stopwatch::start();
        self.tree.distance_and_remove_each(&mut keys);
        for (&d, &i) in keys.iter().zip(&at) {
            self.hist.record_finite(d + base + u64::from(i));
        }
        let k = keys.len() as u64;
        self.metrics.stream_hits += k;
        self.metrics.tree_ops += k;
        CascadeRoundStats {
            resolved: k,
            merge_ns,
            batch_ns: sweep_sw.ns(),
        }
    }

    /// Scalar (one element at a time) infinity processing — the literal
    /// Algorithm 4 loop and the reference implementation the batched
    /// [`Self::process_infinities`] must match bit-for-bit. Public so the
    /// equivalence tests can drive it directly; always taken in bounded
    /// mode (the forwarding cap couples `l` to the element order), where a
    /// key the history evicted is still in `H` but no longer in the tree
    /// and counts as a miss.
    pub fn process_infinities_scalar(
        &mut self,
        incoming: &[Addr],
        out: &mut Vec<Addr>,
    ) -> CascadeRoundStats {
        self.metrics.stream_refs += incoming.len() as u64;
        let mut resolved = 0u64;
        for &z in incoming {
            let hit = self
                .table
                .last_access(z)
                .and_then(|k0| self.tree.distance_and_remove(k0));
            if let Some(d) = hit {
                self.hist.record_finite(d + self.stream_count);
                self.table.forget(z);
                self.metrics.stream_hits += 1;
                self.metrics.tree_ops += 1;
                resolved += 1;
            } else {
                let forward_ok = match self.bound {
                    Some(b) => self.forwarded < b,
                    None => true,
                };
                if forward_ok {
                    out.push(z);
                    self.forwarded += 1;
                    self.metrics.forwarded += 1;
                } else {
                    self.hist.record_infinite();
                    self.metrics.cold_misses += 1;
                }
            }
            self.stream_count += 1;
        }
        CascadeRoundStats {
            resolved,
            merge_ns: 0,
            batch_ns: 0,
        }
    }

    /// Record `n` surviving local infinities as authoritative global
    /// infinities (rank 0 in Algorithm 3).
    pub fn record_global_infinities(&mut self, n: u64) {
        self.hist.record_infinite_n(n);
        self.metrics.cold_misses += n;
    }

    /// The live keys, oldest first, without disturbing the engine — an
    /// inspection accessor (used by tests and debugging tooling). A search
    /// tree's keys are the timestamps; after a chunk the engine started
    /// empty, a vector's are the chunk's offsets.
    pub fn export_state(&self) -> Vec<u64> {
        self.tree.to_sorted_vec()
    }

    /// The live addresses, oldest first, into a caller-owned buffer,
    /// replacing its contents and keeping its allocation — the windowed
    /// streamer's per-item hand-off to its history stage
    /// ([`crate::phased`]). Each is read from `chunk`, the chunk the engine
    /// started empty, at its key's offset.
    ///
    /// # Panics
    ///
    /// If the live state is not one chunk's: the engine did not start its
    /// last chunk empty, or imported state.
    pub fn export_state_into(&self, chunk: &[Addr], out: &mut Vec<Addr>) {
        out.clear();
        out.reserve(self.tree.len());
        self.tree
            .for_each_in_order(|key| out.push(self.chunk_addr(chunk, key)));
    }

    /// Append live addresses, oldest first and all newer than every entry
    /// the engine holds — the windowed streamer's history append
    /// ([`crate::phased`]). The engine assigns them its next timestamps and
    /// stores the keys its tree returns, making room per append, so a
    /// window's append costs time in the window's size, not in the live
    /// state's.
    ///
    /// In unbounded mode the space-optimized cascade guarantees the
    /// addresses are disjoint from the engine's (the window's infinity
    /// stream deleted every older copy), so a duplicate indicates a bug and
    /// is asserted against in debug builds. In bounded mode a replica can
    /// survive — a first touch beyond the forwarding bound `l ≥ B` is
    /// counted locally and never travels left to delete the older copy —
    /// so the older entry is dropped (the appended one is the true last
    /// access). Afterwards a bounded engine evicts its oldest entries until
    /// at most `B` remain: Algorithm 7's LRU eviction, applied in bulk. It
    /// knows the victims by key alone, so their entries stay in `H`, dead,
    /// until the tree's next compaction drops them (a search tree never
    /// compacts and keeps them until [`Self::reset`]).
    pub fn import_state(&mut self, addrs: &[Addr]) {
        self.chunk_key = None;
        // Prefetch a batch's table slots before upserting any of them, as
        // `process_chunk` does: a large history's table is far past cache.
        for batch in addrs.chunks(BATCH) {
            for &addr in batch {
                self.table.prefetch(addr);
            }
            for &addr in batch {
                self.make_room(1);
                let ts = self.clock;
                self.clock += 1;
                let key = self.tree.next_key(ts);
                if let Some(prev) = self.table.record(addr, key) {
                    debug_assert!(
                        self.bound.is_some() && prev < key,
                        "address {addr:#x} imported twice or out of order"
                    );
                    self.tree.remove(prev);
                    self.metrics.tree_ops += 1;
                }
                self.tree.append(ts);
                self.metrics.tree_ops += 1;
            }
        }
        if let Some(b) = self.bound {
            while self.tree.len() as u64 > b {
                let victim = self.tree.oldest().expect("over-full tree is non-empty");
                self.tree.remove(victim);
                self.metrics.tree_ops += 1;
            }
        }
        let live = self.tree.len() as u64;
        if live > self.metrics.live_hwm {
            self.metrics.live_hwm = live;
        }
    }

    /// Clear everything — tree, table, histogram, counters and metrics —
    /// keeping the allocations, so a driver can reuse the engine for the
    /// next window instead of building a new one.
    pub fn reset(&mut self) {
        self.tree.clear();
        self.table.clear();
        self.hist.clear();
        self.forwarded = 0;
        self.stream_count = 0;
        self.clock = 0;
        self.chunk_key = None;
        self.metrics = EngineMetrics::default();
    }

    /// Reset the per-window Algorithm 4/7 counters (`count`, `l`). Called
    /// on the history engine after each window's absorb by the windowed
    /// streamer.
    pub fn reset_phase_counters(&mut self) {
        self.stream_count = 0;
        self.forwarded = 0;
    }

    /// Merge another engine's histogram into this one (`reduce_sum`).
    pub fn merge_histogram(&mut self, other: &ReuseHistogram) {
        self.hist.merge(other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parda_tree::{AvlTree, SplayTree, Treap, VectorTree};

    fn labels(s: &str) -> Vec<Addr> {
        s.bytes().map(u64::from).collect()
    }

    fn run_table1<T: ReuseTree + Default>() -> ReuseHistogram {
        let mut engine: Engine<T> = Engine::new(None, 0);
        engine.process_chunk(&labels("dacbccgefa"), 0, MissSink::Infinite);
        engine.into_histogram()
    }

    #[test]
    fn table1_distances_all_trees() {
        for hist in [
            run_table1::<SplayTree>(),
            run_table1::<AvlTree>(),
            run_table1::<Treap>(),
        ] {
            assert_eq!(hist.total(), 10);
            assert_eq!(hist.infinite(), 7);
            assert_eq!(hist.count(0), 1);
            assert_eq!(hist.count(1), 1);
            assert_eq!(hist.count(5), 1);
        }
    }

    #[test]
    fn forward_sink_collects_first_touches_in_order() {
        let mut engine: Engine<SplayTree> = Engine::new(None, 0);
        let mut inf = Vec::new();
        engine.process_chunk(&labels("dacbccgef"), 0, MissSink::Forward(&mut inf));
        // Property 4.2: one entry per distinct element, in first-touch order.
        assert_eq!(inf, labels("dacbgef"));
        assert_eq!(engine.histogram().infinite(), 0);
        assert_eq!(engine.histogram().total(), 2); // the two c reuses
    }

    #[test]
    fn bounded_engine_caps_live_state() {
        let mut engine: Engine<SplayTree> = Engine::new(Some(4), 0);
        let trace: Vec<Addr> = (0..100).collect();
        engine.process_chunk(&trace, 0, MissSink::Infinite);
        assert_eq!(engine.live(), 4);
        assert_eq!(engine.histogram().infinite(), 100);
    }

    #[test]
    fn bounded_forwarding_stops_at_b() {
        let mut engine: Engine<SplayTree> = Engine::new(Some(3), 0);
        let mut inf = Vec::new();
        let trace: Vec<Addr> = (0..10).collect();
        engine.process_chunk(&trace, 0, MissSink::Forward(&mut inf));
        assert_eq!(inf, vec![0, 1, 2], "only the first B misses forward");
        assert_eq!(engine.histogram().infinite(), 7);
        assert_eq!(engine.forwarded(), 3);
    }

    #[test]
    fn bounded_distances_below_bound_stay_exact() {
        // 8-element cyclic trace with bound 16: all reuse distances are 7,
        // well under the bound — must match unbounded exactly.
        let mut cyc = Vec::new();
        for lap in 0..10u64 {
            let _ = lap;
            cyc.extend(0..8u64);
        }
        let mut bounded: Engine<SplayTree> = Engine::new(Some(16), 0);
        bounded.process_chunk(&cyc, 0, MissSink::Infinite);
        let mut full: Engine<SplayTree> = Engine::new(None, 0);
        full.process_chunk(&cyc, 0, MissSink::Infinite);
        assert_eq!(bounded.into_histogram(), full.into_histogram());
    }

    #[test]
    fn bounded_lumps_large_distances_into_infinite() {
        // Cyclic sweep of 8 with bound 4: every reuse has distance 7 ≥ B.
        let mut cyc = Vec::new();
        for _ in 0..5 {
            cyc.extend(0..8u64);
        }
        let mut engine: Engine<SplayTree> = Engine::new(Some(4), 0);
        engine.process_chunk(&cyc, 0, MissSink::Infinite);
        let hist = engine.into_histogram();
        assert_eq!(hist.infinite(), 40, "every reference must be ∞ under B=4");
        assert_eq!(hist.finite_total(), 0);
    }

    #[test]
    fn process_infinities_table2_right_chunk() {
        // Table II: trace split as `dacbccg | efafbc` — wait, the paper's
        // split is at reference 6/7 of the 13-long trace; model the left
        // rank processing right-chunk infinities. Left chunk `d a c b c c`,
        // right chunk `g e f a f b c` produces local infinities g e f a b c
        // with global distances for a=5, b=5, c=5 (Table II).
        let mut left: Engine<SplayTree> = Engine::new(None, 0);
        left.process_chunk(&labels("dacbcc"), 0, MissSink::Infinite);

        let mut right: Engine<SplayTree> = Engine::new(None, 0);
        let mut right_inf = Vec::new();
        right.process_chunk(&labels("gefafbc"), 6, MissSink::Forward(&mut right_inf));
        assert_eq!(right_inf, labels("gefabc"));

        let mut survivors = Vec::new();
        left.process_infinities(&right_inf, &mut survivors);
        assert_eq!(
            survivors,
            labels("gef"),
            "d-a-c-b seen on the left except d"
        );

        let hist = left.histogram();
        // a, b, c all measure global distance 5 per Table II.
        assert_eq!(hist.count(5), 3);
    }

    #[test]
    fn stream_count_offsets_later_hits() {
        // Left chunk sees {a, b}. Incoming stream: [x, y, a]. x and y are
        // unknown (forwarded), so a's distance must include them: tree
        // distance (b after a = 1) + count (2) = 3.
        let mut left: Engine<SplayTree> = Engine::new(None, 0);
        left.process_chunk(&[b'a' as u64, b'b' as u64], 0, MissSink::Infinite);
        let mut out = Vec::new();
        left.process_infinities(&[b'x' as u64, b'y' as u64, b'a' as u64], &mut out);
        assert_eq!(out, labels("xy"));
        assert_eq!(left.histogram().count(3), 1);
        assert_eq!(left.stream_count(), 3);
        assert_eq!(left.live(), 1, "a's node must be deleted after the hit");
    }

    #[test]
    fn export_import_round_trips_state() {
        let chunk = labels("dacb");
        let mut a: Engine<SplayTree> = Engine::new(None, 0);
        a.process_chunk(&chunk, 0, MissSink::Infinite);
        // Read-only export leaves the engine untouched.
        let state = a.export_state();
        assert_eq!(a.live(), 4);
        assert_eq!(state.len(), 4);
        assert!(state.windows(2).all(|w| w[0] < w[1]), "ts-ordered");
        // The buffered export of the addresses, read from the chunk,
        // replaces a reused buffer's stale contents.
        let mut reused = vec![99];
        a.export_state_into(&chunk, &mut reused);
        let addrs: Vec<Addr> = state.iter().map(|&ts| chunk[ts as usize]).collect();
        assert_eq!(reused, addrs);

        let mut b: Engine<AvlTree> = Engine::new(None, 0);
        b.import_state(&reused);
        let imported = b.export_state();
        assert_eq!(imported, state, "imports take the next timestamps");
        let read: Vec<Addr> = imported.iter().map(|&ts| reused[ts as usize]).collect();
        assert_eq!(read, addrs, "in the exported order");
        assert_eq!(b.live(), 4);
        // Continuing the trace on the importing engine gives the right
        // distances: `a` was at ts 1 with c, b after it → distance 2.
        b.process_chunk(&labels("a"), 4, MissSink::Infinite);
        assert_eq!(b.histogram().count(2), 1);
    }

    #[test]
    fn bounded_import_keeps_newest_and_evicts_oldest() {
        let mut e: Engine<VectorTree> = Engine::new(Some(3), 0);
        e.import_state(&[10, 11, 12]);
        // 11 reappears newer (a replica the bounded cascade left behind),
        // and 13 overfills the bound: 10, the oldest, is evicted.
        e.import_state(&[11, 13]);
        // No compaction yet, so the keys are the import order's positions:
        // the live addresses are read from the imports at them.
        let imports = [10, 11, 12, 11, 13];
        let addrs: Vec<Addr> = e
            .export_state()
            .iter()
            .map(|&k| imports[k as usize])
            .collect();
        assert_eq!(addrs, vec![12, 11, 13]);
        assert_eq!(e.metrics().live_hwm, 3);
    }

    #[test]
    fn bounded_history_evicts_by_key_until_a_compaction_drops_the_dead() {
        let mut e: Engine<VectorTree> = Engine::new(Some(3), 0);
        e.import_state(&[10, 11, 12]);
        e.import_state(&[13, 14]);
        // 10 and 11 are evicted by key: out of the tree, dead in `H`.
        assert_eq!(e.live(), 3);
        assert_eq!(e.table.len(), 5);
        // Before any compaction, a probe of an evicted address is a miss;
        // 12 hits with 13 and 14 newer, plus the 1 stream element before.
        let mut out = Vec::new();
        e.process_infinities(&[11, 12], &mut out);
        assert_eq!(out, vec![11], "the evicted 11 travels on");
        assert_eq!(e.histogram().count(3), 1);
        assert_eq!(e.histogram().finite_total(), 1);
        assert_eq!(e.table.len(), 4, "10 and 11 are still in H");
        // The compaction's table sweep drops them and relabels the rest.
        assert_eq!(e.metrics().relabels, 0);
        e.make_room(64);
        assert_eq!(e.metrics().relabels, 1);
        assert_eq!(e.table.len(), e.live());
        assert_eq!(e.live(), 2);
        e.reset_phase_counters();
        out.clear();
        e.process_infinities(&[10, 13], &mut out);
        assert_eq!(out, vec![10]);
        assert_eq!(e.histogram().count(2), 1, "13 under 14 and the 10 before");
    }

    #[test]
    #[should_panic(expected = "a bounded engine analyzes one chunk from empty")]
    fn bounded_engine_refuses_a_second_chunk_without_a_reset() {
        let mut e: Engine<VectorTree> = Engine::new(Some(4), 0);
        e.process_chunk(&labels("dacb"), 0, MissSink::Infinite);
        // Its LRU victims would be the first chunk's, whose addresses the
        // second chunk does not hold.
        e.process_chunk(&labels("efga"), 4, MissSink::Infinite);
    }

    #[test]
    fn bounded_engine_takes_a_chunk_after_a_reset() {
        let mut e: Engine<VectorTree> = Engine::new(Some(4), 0);
        e.process_chunk(&labels("dacbccgefa"), 0, MissSink::Infinite);
        e.reset();
        e.process_chunk(&labels("dacbccgefa"), 10, MissSink::Infinite);
        let mut fresh: Engine<SplayTree> = Engine::new(Some(4), 0);
        fresh.process_chunk(&labels("dacbccgefa"), 0, MissSink::Infinite);
        assert_eq!(e.into_histogram(), fresh.into_histogram());
    }

    #[test]
    fn reset_clears_state_and_counters() {
        let mut e: Engine<SplayTree> = Engine::new(None, 0);
        let mut out = Vec::new();
        e.process_chunk(&labels("abca"), 0, MissSink::Forward(&mut out));
        e.reset();
        assert_eq!(e.live(), 0);
        assert_eq!(e.forwarded(), 0);
        assert_eq!(e.histogram(), &ReuseHistogram::new());
        assert_eq!(e.metrics(), &EngineMetrics::default());
        // A reset engine analyzes like a fresh one.
        e.process_chunk(&labels("dacbccgefa"), 0, MissSink::Infinite);
        assert_eq!(e.into_histogram(), run_table1::<SplayTree>());
    }

    #[test]
    #[should_panic(expected = "zero bound")]
    fn zero_bound_is_rejected() {
        let _: Engine<SplayTree> = Engine::new(Some(0), 0);
    }

    #[test]
    fn metrics_count_chunk_operations_exactly() {
        // Table I trace: 10 refs, 7 first touches, 3 reuses.
        let mut engine: Engine<SplayTree> = Engine::new(None, 0);
        engine.process_chunk(&labels("dacbccgefa"), 0, MissSink::Infinite);
        let m = engine.metrics();
        assert_eq!(m.refs, 10);
        assert_eq!(m.finite_hits, 3);
        assert_eq!(m.cold_misses, 7);
        assert_eq!(m.forwarded, 0);
        assert_eq!(m.stream_refs, 0);
        // One insert per reference plus one distance query per reuse.
        assert_eq!(m.tree_ops, 10 + 3);
        // All 7 distinct addresses live at once at the end.
        assert_eq!(m.live_hwm, 7);
    }

    #[test]
    fn metrics_count_cascade_operations_exactly() {
        // Left chunk `dacbcc` then the Table II incoming stream `gefabc`:
        // 3 stream hits (a, b, c), 3 forwards (g, e, f).
        let mut left: Engine<SplayTree> = Engine::new(None, 0);
        left.process_chunk(&labels("dacbcc"), 0, MissSink::Infinite);
        let mut out = Vec::new();
        left.process_infinities(&labels("gefabc"), &mut out);
        let m = left.metrics();
        assert_eq!(m.stream_refs, 6);
        assert_eq!(m.stream_hits, 3);
        assert_eq!(m.forwarded, 3);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn metrics_forwarded_survives_phase_reset() {
        let mut engine: Engine<SplayTree> = Engine::new(None, 0);
        let mut out = Vec::new();
        engine.process_chunk(&labels("abc"), 0, MissSink::Forward(&mut out));
        engine.reset_phase_counters();
        assert_eq!(engine.forwarded(), 0, "phase counter resets");
        assert_eq!(engine.metrics().forwarded, 3, "metrics are cumulative");
    }

    #[test]
    fn metrics_live_hwm_tracks_bounded_cap() {
        let mut engine: Engine<SplayTree> = Engine::new(Some(4), 0);
        let trace: Vec<Addr> = (0..100).collect();
        engine.process_chunk(&trace, 0, MissSink::Infinite);
        // The bound caps the live set; the high-water mark can overshoot by
        // at most one (the new entry is recorded before the eviction).
        assert!(engine.metrics().live_hwm <= 5);
        assert_eq!(engine.metrics().cold_misses, 100);
    }

    /// Build two identical engines over `chunk`, run the same incoming
    /// stream through the batched dispatcher on one and the scalar loop on
    /// the other, and demand bit-identical histograms, forward streams,
    /// counters, and live state.
    fn assert_batched_stream_matches_scalar<T: ReuseTree + Default + Clone>(
        chunk: &[Addr],
        incoming: &[Addr],
    ) {
        let mut batched: Engine<T> = Engine::new(None, 0);
        batched.process_chunk(chunk, 0, MissSink::Infinite);
        let mut scalar = batched.clone();

        let mut batched_out = Vec::new();
        let stats = batched.process_infinities(incoming, &mut batched_out);
        let mut scalar_out = Vec::new();
        let scalar_stats = scalar.process_infinities_scalar(incoming, &mut scalar_out);

        assert_eq!(batched_out, scalar_out, "forward streams");
        assert_eq!(batched.histogram(), scalar.histogram(), "histograms");
        assert_eq!(batched.forwarded(), scalar.forwarded());
        assert_eq!(batched.stream_count(), scalar.stream_count());
        assert_eq!(batched.metrics(), scalar.metrics());
        assert_eq!(batched.export_state(), scalar.export_state(), "live keys");
        let (mut batched_live, mut scalar_live) = (Vec::new(), Vec::new());
        batched.export_state_into(chunk, &mut batched_live);
        scalar.export_state_into(chunk, &mut scalar_live);
        assert_eq!(batched_live, scalar_live, "live addresses");
        assert_eq!(stats.resolved, scalar_stats.resolved);

        // The in-place variant must agree too, leaving survivors in the slab.
        let mut in_place: Engine<T> = Engine::new(None, 0);
        in_place.process_chunk(chunk, 0, MissSink::Infinite);
        let mut slab = incoming.to_vec();
        let ip_stats = in_place.process_infinities_in_place(&mut slab);
        assert_eq!(slab, scalar_out, "in-place survivors");
        assert_eq!(in_place.histogram(), scalar.histogram());
        assert_eq!(in_place.metrics(), scalar.metrics());
        assert_eq!(ip_stats.resolved, scalar_stats.resolved);
    }

    #[test]
    fn batched_infinity_stream_matches_scalar() {
        // Chunk over 200 addresses, then a 256-long incoming stream hitting
        // about half of them with inversions (stride walk reverses relative
        // t0 order): ≥ BATCH so the batched path engages.
        let chunk: Vec<Addr> = (0..200u64).map(|i| (i * 37) % 200).collect();
        let incoming: Vec<Addr> = (0..256u64).map(|i| 400 - ((i * 13) % 350)).collect();
        let mut seen = std::collections::HashSet::new();
        let incoming: Vec<Addr> = incoming.into_iter().filter(|&z| seen.insert(z)).collect();
        assert!(incoming.len() >= Engine::<SplayTree>::BATCH);
        assert_batched_stream_matches_scalar::<SplayTree>(&chunk, &incoming);
        assert_batched_stream_matches_scalar::<AvlTree>(&chunk, &incoming);
        assert_batched_stream_matches_scalar::<Treap>(&chunk, &incoming);
        assert_batched_stream_matches_scalar::<VectorTree>(&chunk, &incoming);
    }

    #[test]
    fn batched_stream_with_sparse_scattered_timestamps() {
        // Tiny hit density and a wide key span per hit: exercises both the
        // comparison-sort ordering fallback and the sparse fused-descent
        // side of the search trees' sorted sweep.
        let chunk: Vec<Addr> = (0..4096u64).collect();
        let incoming: Vec<Addr> = (0..128u64)
            .map(|i| {
                if i % 16 == 0 {
                    i * 31 % 4096
                } else {
                    100_000 + i
                }
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        let incoming: Vec<Addr> = incoming.into_iter().filter(|&z| seen.insert(z)).collect();
        assert_batched_stream_matches_scalar::<SplayTree>(&chunk, &incoming);
        assert_batched_stream_matches_scalar::<VectorTree>(&chunk, &incoming);
    }

    #[test]
    fn batched_stream_all_hits_and_all_misses() {
        let chunk: Vec<Addr> = (0..128u64).collect();
        // Every element hits (dense sorted sweep, zero survivors).
        let all_hits: Vec<Addr> = (0..128u64).rev().collect();
        assert_batched_stream_matches_scalar::<SplayTree>(&chunk, &all_hits);
        // Every element misses (pure forward, no tree sweep).
        let all_misses: Vec<Addr> = (1000..1128u64).collect();
        assert_batched_stream_matches_scalar::<Treap>(&chunk, &all_misses);
    }

    #[test]
    fn history_compactions_relabel_the_table() {
        // A history that appends windows of fresh addresses and absorbs
        // most of the older ones again compacts its axis many times; every
        // key it holds must follow its entry, which the distances show.
        let mut vector: Engine<VectorTree> = Engine::new(None, 0);
        let mut splay: Engine<SplayTree> = Engine::new(None, 0);
        let mut imported: Vec<Addr> = Vec::new();
        for window in 0..40u64 {
            let fresh: Vec<Addr> = (0..300).map(|i| window * 1_000 + i).collect();
            let mut stream: Vec<Addr> = (0..window * 1_000)
                .step_by(7)
                .filter(|a| a % 1_000 < 300)
                .collect();
            let mut mirror = stream.clone();
            vector.process_infinities_in_place(&mut stream);
            splay.process_infinities_in_place(&mut mirror);
            assert_eq!(stream, mirror);
            vector.reset_phase_counters();
            splay.reset_phase_counters();
            vector.import_state(&fresh);
            splay.import_state(&fresh);
            imported.extend_from_slice(&fresh);
        }
        assert_eq!(vector.histogram(), splay.histogram());
        assert_eq!(vector.live(), splay.live());
        assert!(vector.metrics().relabels > 0, "the axis compacted");
        // The splay's keys are import timestamps, so its live addresses
        // are read from the imports; the vector's table must give each of
        // them the key the vector holds at its place in recency order.
        let recency: Vec<Addr> = splay
            .export_state()
            .iter()
            .map(|&ts| imported[ts as usize])
            .collect();
        let keys: Vec<u64> = recency
            .iter()
            .map(|&a| vector.table.last_access(a).expect("live in H"))
            .collect();
        assert_eq!(vector.export_state(), keys);
        assert_eq!(vector.table.len(), vector.live());
    }
}
