//! Fenwick-backed time vector — the Bennett & Kruskal (1975) lineage.
//!
//! The oldest fast stack-distance structure is not a search tree at all: a
//! vector indexed by access time, holding a 1 for each *live* element
//! (most recent access) and 0 elsewhere, with an m-ary partial-sum tree on
//! top. The reuse distance of a reference whose previous access was at time
//! `t` is the count of 1s after `t`.
//!
//! **Two levels.** The 1s are an occupancy bitmap, one bit per time slot,
//! and a [`Fenwick`] tree counts the live slots of each 512-slot block —
//! the partial-sum tree's wide bottom level. A rank is a block prefix sum
//! plus the popcount of at most 8 words, all in one cache line; an update
//! flips one bit and walks the block tree, which is 1/512 the length of
//! the axis. The bit alone says whether a slot is live: a removal writes no
//! slot, and every address, `u64::MAX` included, is plain data.
//!
//! **Axis sizing.** The time axis grows with N, not M, so the structure
//! compacts: when the axis fills, the bitmap's dead slots are squeezed out
//! in O(axis) and the axis is resized to twice the live count (at least 64
//! slots), never to a capacity hint. The survivors are a prefix of ones,
//! so the bitmap and block counts are rebuilt linearly, and the slot array
//! grows to hold the axis. Each compaction buys as many appends as it
//! moved slots: amortized O(1) per access. A capacity hint (`reserve`)
//! reserves memory for slots and bitmap words without lengthening the
//! axis: the memory stays untouched until the axis reaches it, and it
//! spares an engine the freed growth steps of arrays grown from 64 slots,
//! which stay resident.
//!
//! **Run lookup.** The analyzer inserts consecutive timestamps, so the
//! slots appended since the last compaction form a *run* in which a slot's
//! index is its timestamp minus the run's first. A hit in the run finds its
//! slot by subtraction and reads only its bit; only older timestamps
//! binary-search the slots before the run. A gap in the timestamps (the
//! windowed history's imports) simply starts a new run.
//!
//! This is the [`ReuseTree`] the CLI and the daemon run by default, and the
//! windowed streamer's history. Timestamps arriving in increasing order —
//! the analyzer's normal operation, and the history append, whose item
//! timestamps are all newer than the history — append in O(log n). No
//! engine inserts out of order; the trait allows it, so it falls back to
//! an O(n) collect and rebuild.

use crate::{Fenwick, ReuseTree};

/// Time slots per block of the Fenwick level.
const BLOCK: usize = 512;
/// Bitmap words per block: one cache line.
const BLOCK_WORDS: usize = BLOCK / 64;

#[derive(Clone, Copy, Debug)]
struct Slot {
    ts: u64,
    addr: u64,
}

/// Indices of the set bits of `words`, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Bennett–Kruskal style time-vector structure with Fenwick partial sums.
///
/// # Examples
///
/// ```
/// use parda_tree::{ReuseTree, VectorTree};
///
/// let mut v = VectorTree::new();
/// for ts in 0..10 {
///     v.insert(ts, ts + 100);
/// }
/// assert_eq!(v.distance(4), 5);
/// assert_eq!(v.remove(4), Some(104));
/// assert_eq!(v.oldest(), Some((0, 100)));
/// ```
#[derive(Clone, Debug)]
pub struct VectorTree {
    /// Slots ordered by timestamp; a dead slot keeps its contents (for
    /// lookup) and only loses its bit.
    slots: Vec<Slot>,
    /// Occupancy: bit `i % 64` of word `i / 64` is set iff slot `i` is
    /// live. Covers the whole axis.
    bits: Vec<u64>,
    /// Live slots per `BLOCK`-slot block of the axis.
    blocks: Fenwick,
    /// Slots that fit before the next compaction.
    axis: usize,
    /// First slot of the current run: `slots[run_start..]` hold
    /// consecutive timestamps.
    run_start: usize,
    live: usize,
}

impl Default for VectorTree {
    fn default() -> Self {
        Self::new()
    }
}

impl VectorTree {
    /// Smallest time axis, in slots.
    const MIN_AXIS: usize = 64;

    /// Create an empty structure.
    pub fn new() -> Self {
        let mut v = Self {
            slots: Vec::new(),
            bits: Vec::new(),
            blocks: Fenwick::new(0),
            axis: 0,
            run_start: 0,
            live: 0,
        };
        v.reset_axis();
        v
    }

    fn is_live(&self, idx: usize) -> bool {
        self.bits[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// Live slots before slot `idx`: a block prefix plus the popcount of
    /// the block's words before it.
    fn rank(&self, idx: usize) -> u64 {
        let block = idx / BLOCK;
        let word = idx / 64;
        let mut rank = self.blocks.prefix_sum(block);
        for w in &self.bits[block * BLOCK_WORDS..word] {
            rank += u64::from(w.count_ones());
        }
        let bit = idx % 64;
        if bit != 0 {
            rank += u64::from((self.bits[word] & ((1 << bit) - 1)).count_ones());
        }
        rank
    }

    /// Mark live slot `idx` dead. Its contents stay for lookup.
    fn kill(&mut self, idx: usize) {
        self.bits[idx / 64] &= !(1 << (idx % 64));
        self.blocks.sub(idx / BLOCK, 1);
        self.live -= 1;
    }

    /// First slot with `slot.ts >= ts`: by subtraction inside the current
    /// run, by binary search before it.
    fn lower_bound(&self, ts: u64) -> usize {
        let run = &self.slots[self.run_start..];
        match run.first() {
            Some(first) if ts >= first.ts => {
                self.run_start + (ts - first.ts).min(run.len() as u64) as usize
            }
            _ => self.slots[..self.run_start].partition_point(|s| s.ts < ts),
        }
    }

    /// Slot index holding exactly `ts`, if live. Past the run's first
    /// slot, subtraction placed `ts` exactly and only its bit is read;
    /// elsewhere the lower bound's timestamp is compared.
    fn find(&self, ts: u64) -> Option<usize> {
        let idx = self.lower_bound(ts);
        let placed = idx > self.run_start && idx < self.slots.len();
        let exact = placed || self.slots.get(idx).is_some_and(|s| s.ts == ts);
        (exact && self.is_live(idx)).then_some(idx)
    }

    /// Squeeze out dead slots and resize the axis to twice the live count,
    /// growing the slot array to hold it.
    fn compact(&mut self) {
        let mut kept = 0;
        for idx in set_bits(&self.bits) {
            self.slots[kept] = self.slots[idx];
            kept += 1;
        }
        debug_assert_eq!(kept, self.live);
        self.slots.truncate(kept);
        self.reset_axis();
    }

    /// Lay out an axis of `max(2 × live, 64)` slots for `slots`, which must
    /// hold exactly the live set, in order: the bitmap becomes `live`
    /// leading ones and the block counts follow.
    fn reset_axis(&mut self) {
        debug_assert_eq!(self.slots.len(), self.live);
        let live = self.live;
        self.axis = (2 * live).max(Self::MIN_AXIS);
        self.slots.reserve_exact(self.axis - live);
        self.bits.clear();
        self.bits.resize(live / 64, u64::MAX);
        // The partial word, perhaps empty: the axis has room for it.
        self.bits.push((1 << (live % 64)) - 1);
        self.bits.resize(self.axis.div_ceil(64), 0);
        self.blocks
            .reset_prefix_filled(self.axis.div_ceil(BLOCK), live, BLOCK);
        // The survivors are no longer consecutive: the next append starts
        // a new run.
        self.run_start = live;
    }

    /// Structural self-check for tests: ts order, the axis and the run,
    /// and agreement of bits, block counts and the live count.
    #[doc(hidden)]
    pub fn validate(&self) {
        assert!(self.slots.windows(2).all(|w| w[0].ts < w[1].ts));
        assert!(self.slots.len() <= self.axis, "slots overflow the axis");
        assert_eq!(self.bits.len(), self.axis.div_ceil(64), "bitmap length");
        assert_eq!(self.blocks.len(), self.axis.div_ceil(BLOCK), "blocks");
        assert!(
            self.slots[self.run_start..]
                .windows(2)
                .all(|w| w[0].ts + 1 == w[1].ts),
            "the current run is not consecutive"
        );
        assert!(
            (self.slots.len()..self.bits.len() * 64).all(|i| !self.is_live(i)),
            "a bit is set past the last slot"
        );
        let popcount =
            |words: &[u64]| -> u64 { words.iter().map(|w| u64::from(w.count_ones())).sum() };
        assert_eq!(popcount(&self.bits), self.live as u64);
        assert_eq!(self.blocks.total(), self.live as u64);
        for (b, words) in self.bits.chunks(BLOCK_WORDS).enumerate() {
            assert_eq!(
                self.blocks.prefix_sum(b + 1) - self.blocks.prefix_sum(b),
                popcount(words),
                "block count mismatch at block {b}"
            );
        }
    }
}

impl ReuseTree for VectorTree {
    fn insert(&mut self, timestamp: u64, addr: u64) {
        let last = self.slots.last().map(|s| s.ts);
        // Fast path: strictly larger than everything seen — append.
        if last.is_none_or(|last| last < timestamp) {
            if self.slots.len() == self.axis {
                self.compact();
            }
            if last.is_some_and(|last| last + 1 != timestamp) {
                self.run_start = self.slots.len();
            }
            let idx = self.slots.len();
            self.bits[idx / 64] |= 1 << (idx % 64);
            self.blocks.add(idx / BLOCK, 1);
            self.slots.push(Slot {
                ts: timestamp,
                addr,
            });
            self.live += 1;
            return;
        }
        // Slow path: collect, splice and rebuild (O(n); only out-of-order
        // merges take this).
        let mut pairs = Vec::with_capacity(self.live + 1);
        self.collect_in_order(&mut pairs);
        let pos = pairs.partition_point(|&(ts, _)| ts < timestamp);
        assert!(
            pairs.get(pos).is_none_or(|&(ts, _)| ts != timestamp),
            "duplicate timestamp {timestamp} inserted into VectorTree"
        );
        pairs.insert(pos, (timestamp, addr));
        self.rebuild_from_sorted(&pairs);
    }

    fn distance(&mut self, timestamp: u64) -> u64 {
        // Live slots strictly after `timestamp`.
        self.live as u64 - self.rank(self.lower_bound(timestamp + 1))
    }

    fn remove(&mut self, timestamp: u64) -> Option<u64> {
        let idx = self.find(timestamp)?;
        self.kill(idx);
        Some(self.slots[idx].addr)
    }

    fn distance_and_remove(&mut self, timestamp: u64) -> Option<u64> {
        // Fused: `timestamp` is live at `idx`, so the strictly-greater count
        // is everything live but it and the slots before it. The slot
        // itself is never read.
        let idx = self.find(timestamp)?;
        let d = self.live as u64 - 1 - self.rank(idx);
        self.kill(idx);
        Some(d)
    }

    fn oldest(&self) -> Option<(u64, u64)> {
        // The first block with a live slot holds the first set bit.
        let first = self.blocks.select(1)? * BLOCK_WORDS;
        let bit = set_bits(&self.bits[first..])
            .next()
            .expect("a counted block holds a set bit");
        let slot = self.slots[first * 64 + bit];
        Some((slot.ts, slot.addr))
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Reserve memory only: the axis stays sized to the live set, and the
    /// reserved slots stay untouched until the axis reaches them.
    fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.bits.reserve(additional / 64);
    }

    fn clear(&mut self) {
        // Keep the axis and the allocations for the next fill; its first
        // compaction sizes the axis to the new live set.
        self.slots.clear();
        self.bits.fill(0);
        self.blocks.reset_prefix_filled(self.blocks.len(), 0, BLOCK);
        self.run_start = 0;
        self.live = 0;
    }

    fn collect_in_order(&self, out: &mut Vec<(u64, u64)>) {
        out.reserve(self.live);
        out.extend(set_bits(&self.bits).map(|idx| (self.slots[idx].ts, self.slots[idx].addr)));
    }

    /// Bitmap fast path: one forward sweep over the slot array. The batch
    /// arrives in ascending timestamp order, so each lookup gallops forward
    /// from the previous hit — O(log gap) probes near it, not a search of
    /// the whole array. Earlier deletions in the batch sit at strictly
    /// smaller slot indices and were live at entry, so a slot's pre-batch
    /// rank is its current rank plus the deletions so far, and every
    /// reported count is the pre-batch one, as the contract requires.
    fn rank_delete_batch(&mut self, sorted_ts: &[u64], out: &mut Vec<u64>) {
        out.reserve(sorted_ts.len());
        let live_at_entry = self.live as u64;
        // One past the previous hit.
        let mut cursor = 0usize;
        for (deleted, &ts) in sorted_ts.iter().enumerate() {
            let slots = &self.slots[..];
            let (mut lo, mut hi, mut step) = (cursor, cursor, 1);
            while hi < slots.len() && slots[hi].ts < ts {
                lo = hi + 1;
                hi = lo + step;
                step *= 2;
            }
            let idx = lo + slots[lo..hi.min(slots.len())].partition_point(|s| s.ts < ts);
            assert!(
                slots.get(idx).is_some_and(|s| s.ts == ts) && self.is_live(idx),
                "rank_delete_batch: timestamp {ts} not live in VectorTree"
            );
            out.push(live_at_entry - 1 - self.rank(idx) - deleted as u64);
            cursor = idx + 1;
            self.kill(idx);
        }
    }

    fn rebuild_from_sorted(&mut self, pairs: &[(u64, u64)]) {
        self.slots.clear();
        self.slots
            .extend(pairs.iter().map(|&(ts, addr)| Slot { ts, addr }));
        self.live = pairs.len();
        self.reset_axis();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{self, op_strategy, Model};
    use proptest::prelude::*;

    #[test]
    fn smoke() {
        conformance::smoke(&mut VectorTree::new());
    }

    #[test]
    fn append_heavy_workload_compacts() {
        let mut v = VectorTree::new();
        // Insert/remove cycles force many compactions of the time axis.
        for round in 0..50u64 {
            for i in 0..100u64 {
                v.insert(round * 200 + i, i);
            }
            for i in 0..100u64 {
                assert_eq!(v.remove(round * 200 + i), Some(i));
            }
        }
        assert_eq!(v.len(), 0);
        v.validate();
    }

    #[test]
    fn axis_follows_the_live_set_not_the_capacity_hint() {
        // An engine passes its chunk length as a capacity hint; a sliding
        // window of 1,000 live timestamps must still run on a ~2K axis.
        const LIVE: u64 = 1_000;
        let mut v = VectorTree::new();
        v.reserve(1 << 20);
        for ts in 0..100_000u64 {
            if ts >= LIVE {
                assert_eq!(v.distance_and_remove(ts - LIVE), Some(LIVE - 1));
            }
            v.insert(ts, ts);
            let axis = v.axis;
            assert!(
                axis <= (2 * v.len()).max(64),
                "axis {axis} for {} live at ts {ts}",
                v.len()
            );
        }
        v.validate();
    }

    #[test]
    fn a_gap_starts_a_new_run() {
        let mut v = VectorTree::new();
        for ts in (0..10u64).chain(20..30) {
            v.insert(ts, ts);
        }
        assert_eq!(v.run_start, 10, "the run begins after the gap");
        // Old timestamps are found before the run, new ones inside it.
        assert_eq!(v.distance_and_remove(4), Some(15));
        assert_eq!(v.distance_and_remove(25), Some(4));
        assert_eq!(v.remove(15), None, "inside the gap");
        assert_eq!(v.remove(30), None, "past the run");
        assert_eq!(v.distance(40), 0, "past the run");
        assert_eq!(v.distance(15), 9);
        v.validate();
    }

    #[test]
    fn distance_counts_strictly_greater() {
        let mut v = VectorTree::new();
        for ts in [10u64, 20, 30, 40, 50] {
            v.insert(ts, ts);
        }
        assert_eq!(v.distance(30), 2);
        assert_eq!(v.distance(25), 3);
        assert_eq!(v.distance(50), 0);
        assert_eq!(v.distance(5), 5);
        v.validate();
    }

    #[test]
    fn out_of_order_insert_slow_path() {
        let mut v = VectorTree::new();
        v.insert(10, 1);
        v.insert(30, 3);
        v.insert(20, 2); // splice
        assert_eq!(v.to_sorted_vec(), vec![(10, 1), (20, 2), (30, 3)]);
        assert_eq!(v.distance(10), 2);
        v.validate();
    }

    #[test]
    fn dead_slot_revival() {
        let mut v = VectorTree::new();
        v.insert(5, 50);
        v.insert(9, 90);
        assert_eq!(v.remove(5), Some(50));
        v.insert(5, 55); // same timestamp, inserted again
        assert_eq!(v.to_sorted_vec(), vec![(5, 55), (9, 90)]);
        v.validate();
    }

    #[test]
    fn oldest_skips_dead_slots() {
        let mut v = VectorTree::new();
        for ts in 0..10u64 {
            v.insert(ts, ts * 2);
        }
        for ts in 0..5u64 {
            v.remove(ts);
        }
        assert_eq!(v.oldest(), Some((5, 10)));
        v.validate();
    }

    #[test]
    fn oldest_skips_an_emptied_first_block() {
        let mut v = VectorTree::new();
        // Three full blocks and part of a fourth.
        for ts in 0..1_636u64 {
            v.insert(ts, ts + 7);
        }
        // Empty the whole first block and most of the second, so the
        // select lands in block 1 and the bit scan skips its leading words.
        for ts in 0..(BLOCK as u64 + 300) {
            assert_eq!(v.distance_and_remove(ts), Some(1_635 - ts));
        }
        assert_eq!(v.oldest(), Some((812, 819)));
        v.remove(812);
        assert_eq!(v.oldest(), Some((813, 820)));
        v.validate();
    }

    #[test]
    fn the_largest_address_is_plain_data() {
        const MAX: u64 = u64::MAX;
        let mut v = VectorTree::new();
        v.insert(0, MAX);
        v.insert(1, 3);
        v.insert(2, MAX - 1);
        v.insert(3, MAX);
        assert_eq!(v.oldest(), Some((0, MAX)));
        assert_eq!(v.distance_and_remove(0), Some(3));
        assert_eq!(v.oldest(), Some((1, 3)));
        assert_eq!(v.remove(3), Some(MAX));
        assert_eq!(v.to_sorted_vec(), vec![(1, 3), (2, MAX - 1)]);
        v.insert(4, MAX);
        assert_eq!(v.to_sorted_vec(), vec![(1, 3), (2, MAX - 1), (4, MAX)]);
        assert_eq!(v.distance(1), 2);
        v.validate();
    }

    #[test]
    fn batch_smoke() {
        conformance::batch_smoke(&mut VectorTree::new());
    }

    #[test]
    fn batch_ranks_across_blocks() {
        let mut v = VectorTree::new();
        for ts in 0..5_000u64 {
            v.insert(ts, ts);
        }
        // Dead slots inside the gaps the sweep must count past.
        for ts in (0..5_000u64).step_by(3) {
            v.remove(ts);
        }
        let live: Vec<u64> = v.to_sorted_vec().iter().map(|&(ts, _)| ts).collect();
        // Clusters of adjacent hits inside one word, a few hundred slots
        // apart and across blocks.
        let picked: Vec<(usize, u64)> = live
            .iter()
            .copied()
            .enumerate()
            .filter(|(i, _)| i % 211 < 3 || i % 997 == 0)
            .collect();
        let batch: Vec<u64> = picked.iter().map(|&(_, ts)| ts).collect();
        let expected: Vec<u64> = picked
            .iter()
            .map(|&(i, _)| (live.len() - 1 - i) as u64)
            .collect();
        let mut out = Vec::new();
        v.rank_delete_batch(&batch, &mut out);
        assert_eq!(out, expected);
        assert_eq!(v.len(), live.len() - batch.len());
        v.validate();
    }

    /// One step of the monotone-timestamp proptest. Queries name a
    /// timestamp by its distance back from the next append, so most of them
    /// land in or near the current run.
    #[derive(Clone, Debug)]
    enum RunOp {
        /// Append `gap` past the next consecutive timestamp (a gap starts
        /// a new run).
        Append {
            gap: u64,
        },
        Distance {
            back: u64,
        },
        Remove {
            back: u64,
        },
        DistanceAndRemove {
            back: u64,
        },
        Oldest,
        Compact,
    }

    fn run_op_strategy() -> impl Strategy<Value = RunOp> {
        let append = || {
            (0u64..8).prop_map(|g| RunOp::Append {
                gap: g.saturating_sub(5),
            })
        };
        prop_oneof![
            append(),
            append(),
            append(),
            (0u64..80).prop_map(|back| RunOp::Distance { back }),
            (0u64..80).prop_map(|back| RunOp::Remove { back }),
            (0u64..80).prop_map(|back| RunOp::DistanceAndRemove { back }),
            Just(RunOp::Oldest),
            Just(RunOp::Compact),
        ]
    }

    proptest! {
        #[test]
        fn conforms_to_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let mut tree = VectorTree::new();
            conformance::run_ops(&mut tree, ops);
            tree.validate();
        }

        /// Monotone timestamps with random gaps — what the engines insert —
        /// against the model, with compactions forced at random points so
        /// the run restarts under every kind of query.
        #[test]
        fn monotone_runs_conform_to_model(
            ops in proptest::collection::vec(run_op_strategy(), 0..400),
        ) {
            let mut tree = VectorTree::new();
            let mut model = Model::default();
            let mut next = 0u64;
            for op in ops {
                let newest = next;
                let at = |back: u64| newest.saturating_sub(back);
                match op {
                    RunOp::Append { gap } => {
                        let ts = next + gap;
                        tree.insert(ts, ts + 1_000);
                        model.insert(ts, ts + 1_000);
                        next = ts + 1;
                    }
                    RunOp::Distance { back } => {
                        prop_assert_eq!(tree.distance(at(back)), model.distance(at(back)));
                    }
                    RunOp::Remove { back } => {
                        prop_assert_eq!(tree.remove(at(back)), model.remove(at(back)));
                    }
                    RunOp::DistanceAndRemove { back } => {
                        let ts = at(back);
                        let expect = model.remove(ts).map(|_| model.distance(ts));
                        prop_assert_eq!(tree.distance_and_remove(ts), expect);
                    }
                    RunOp::Oldest => prop_assert_eq!(tree.oldest(), model.oldest()),
                    RunOp::Compact => tree.compact(),
                }
                prop_assert_eq!(tree.len(), model.len());
                tree.validate();
            }
            prop_assert_eq!(tree.to_sorted_vec(), model.sorted());
        }

        #[test]
        fn batch_conforms_to_model(
            live in proptest::collection::vec((0u64..256, 0u64..1_000_000), 0..200),
            mask in proptest::collection::vec(any::<bool>(), 1..64),
        ) {
            let mut tree = VectorTree::new();
            conformance::run_batch(&mut tree, live, mask);
            tree.validate();
        }
    }
}
