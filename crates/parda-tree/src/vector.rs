//! Fenwick-backed time vector — the Bennett & Kruskal (1975) lineage.
//!
//! The oldest fast stack-distance structure is not a search tree at all: a
//! vector indexed by access time, holding a 1 for each *live* element
//! (most recent access) and 0 elsewhere, with an m-ary partial-sum tree on
//! top. The reuse distance of a reference whose previous access was at time
//! `t` is the suffix count of 1s after `t`. A Fenwick tree is the modern
//! realization of the partial-sum tree: O(log n) update and suffix sum.
//!
//! **Axis sizing.** The time axis grows with N, not M, so the structure
//! compacts: when the axis fills, dead slots are squeezed out in O(live)
//! and the axis is resized to twice the live count (at least 64 slots) —
//! never to a capacity hint, so every Fenwick walk spans O(log live)
//! levels of an array the size of the live set. The survivors are a prefix
//! of ones, so the Fenwick rebuild is linear, and the slot array grows to
//! hold the axis. Each compaction buys as many appends as it moved slots:
//! amortized O(1) per access. A capacity hint (`reserve`) reserves memory
//! for slots and Fenwick nodes without lengthening the axis: the memory
//! stays untouched until the axis reaches it, and it spares an engine the
//! freed growth steps of arrays grown from 64 slots, which stay resident.
//!
//! **Run lookup.** The analyzer inserts consecutive timestamps, so the
//! slots appended since the last compaction form a *run* in which a slot's
//! index is its timestamp minus the run's first. A hit in the run finds its
//! slot by subtraction; only older timestamps binary-search the slots
//! before the run. A gap in the timestamps (the windowed history's imports)
//! simply starts a new run.
//!
//! This is the [`ReuseTree`] the CLI and the daemon run by default, and the
//! windowed streamer's history. Timestamps arriving in increasing order —
//! the analyzer's normal operation, and the history append, whose item
//! timestamps are all newer than the history — append in O(log n). No
//! engine inserts out of order; the trait allows it, so it falls back to
//! an O(n) splice and rebuild.

use crate::{Fenwick, ReuseTree};

const EMPTY_ADDR: u64 = u64::MAX;

#[derive(Clone, Debug)]
struct Slot {
    ts: u64,
    addr: u64,
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
    /// Slots ordered by timestamp; dead slots keep their ts (for lookup)
    /// but have `addr == EMPTY_ADDR` and a zero Fenwick count.
    slots: Vec<Slot>,
    /// Live-slot counts over the time axis. Its length is the axis: the
    /// slots that fit before the next compaction.
    fenwick: Fenwick,
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
        Self {
            slots: Vec::with_capacity(Self::MIN_AXIS),
            fenwick: Fenwick::new(Self::MIN_AXIS),
            run_start: 0,
            live: 0,
        }
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

    /// Slot index holding exactly `ts`, if live.
    fn find(&self, ts: u64) -> Option<usize> {
        let idx = self.lower_bound(ts);
        let slot = self.slots.get(idx)?;
        (slot.ts == ts && slot.addr != EMPTY_ADDR).then_some(idx)
    }

    /// Squeeze out dead slots and resize the axis to twice the live count,
    /// growing the slot array to hold it.
    fn compact(&mut self) {
        self.slots.retain(|s| s.addr != EMPTY_ADDR);
        debug_assert_eq!(self.slots.len(), self.live);
        let axis = (2 * self.live).max(Self::MIN_AXIS);
        self.slots.reserve_exact(axis - self.slots.len());
        self.fenwick.reset_prefix_ones(axis, self.live);
        // The survivors are no longer consecutive: the next append starts
        // a new run.
        self.run_start = self.slots.len();
    }

    /// Structural self-check for tests: ts order, the axis and the run,
    /// fenwick/live agreement.
    #[doc(hidden)]
    pub fn validate(&self) {
        assert!(self.slots.windows(2).all(|w| w[0].ts < w[1].ts));
        assert!(
            self.slots.len() <= self.fenwick.len(),
            "slots overflow the axis"
        );
        assert!(
            self.slots[self.run_start..]
                .windows(2)
                .all(|w| w[0].ts + 1 == w[1].ts),
            "the current run is not consecutive"
        );
        let live = self.slots.iter().filter(|s| s.addr != EMPTY_ADDR).count();
        assert_eq!(live, self.live);
        assert_eq!(self.fenwick.total(), self.live as u64);
        for (i, slot) in self.slots.iter().enumerate() {
            let expect = u64::from(slot.addr != EMPTY_ADDR);
            assert_eq!(
                self.fenwick.prefix_sum(i + 1) - self.fenwick.prefix_sum(i),
                expect,
                "fenwick bit mismatch at slot {i}"
            );
        }
    }
}

impl ReuseTree for VectorTree {
    fn insert(&mut self, timestamp: u64, addr: u64) {
        debug_assert_ne!(addr, EMPTY_ADDR, "sentinel address is reserved");
        let last = self.slots.last().map(|s| s.ts);
        // Fast path: strictly larger than everything seen — append.
        if last.is_none_or(|last| last < timestamp) {
            if self.slots.len() == self.fenwick.len() {
                self.compact();
            }
            if last.is_some_and(|last| last + 1 != timestamp) {
                self.run_start = self.slots.len();
            }
            self.fenwick.add(self.slots.len(), 1);
            self.slots.push(Slot {
                ts: timestamp,
                addr,
            });
            self.live += 1;
            return;
        }
        // Slow path: splice into position and rebuild (O(n); only
        // out-of-order merges take this).
        let idx = self.lower_bound(timestamp);
        assert!(
            self.slots[idx].ts != timestamp || self.slots[idx].addr == EMPTY_ADDR,
            "duplicate timestamp {timestamp} inserted into VectorTree"
        );
        self.live += 1;
        if self.slots[idx].ts == timestamp {
            // Reviving a dead slot in place.
            self.slots[idx].addr = addr;
            self.fenwick.add(idx, 1);
            return;
        }
        self.slots.insert(
            idx,
            Slot {
                ts: timestamp,
                addr,
            },
        );
        self.compact();
    }

    fn distance(&mut self, timestamp: u64) -> u64 {
        // Count of live slots strictly after `timestamp`.
        self.fenwick.suffix_sum(self.lower_bound(timestamp + 1))
    }

    fn remove(&mut self, timestamp: u64) -> Option<u64> {
        let idx = self.find(timestamp)?;
        let addr = self.slots[idx].addr;
        self.slots[idx].addr = EMPTY_ADDR;
        self.fenwick.sub(idx, 1);
        self.live -= 1;
        Some(addr)
    }

    fn distance_and_remove(&mut self, timestamp: u64) -> Option<(u64, u64)> {
        // Fused: `timestamp` is live at `idx`, so the strictly-greater count
        // is the suffix just past it — one lookup serves both halves.
        let idx = self.find(timestamp)?;
        let d = self.fenwick.suffix_sum(idx + 1);
        let addr = self.slots[idx].addr;
        self.slots[idx].addr = EMPTY_ADDR;
        self.fenwick.sub(idx, 1);
        self.live -= 1;
        Some((d, addr))
    }

    fn oldest(&self) -> Option<(u64, u64)> {
        let idx = self.fenwick.select(1)?;
        let slot = &self.slots[idx];
        debug_assert_ne!(slot.addr, EMPTY_ADDR);
        Some((slot.ts, slot.addr))
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Reserve memory only: the axis stays sized to the live set, and the
    /// reserved slots stay untouched until the axis reaches them.
    fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        self.fenwick.reserve(additional);
    }

    fn clear(&mut self) {
        // Keep the axis and the slot allocation for the next fill; its
        // first compaction sizes the axis to the new live set.
        self.slots.clear();
        self.fenwick.reset_prefix_ones(self.fenwick.len(), 0);
        self.run_start = 0;
        self.live = 0;
    }

    fn collect_in_order(&self, out: &mut Vec<(u64, u64)>) {
        out.extend(
            self.slots
                .iter()
                .filter(|s| s.addr != EMPTY_ADDR)
                .map(|s| (s.ts, s.addr)),
        );
    }

    /// Fenwick fast path: one forward sweep over the slot array. The batch
    /// arrives in ascending timestamp order, so each lookup gallops forward
    /// from the previous hit — O(log gap) probes near it, not a search of
    /// the whole array. Ranks come from a running count of the slots behind
    /// the cursor that were live at entry: a short gap is counted by
    /// scanning the slots it skips, a long one by a Fenwick prefix query.
    /// Earlier deletions in the batch sit at strictly smaller slot indices,
    /// so they never perturb a later suffix count — every reported rank is
    /// the pre-batch rank, as the contract requires.
    fn rank_delete_batch(&mut self, sorted_ts: &[u64], out: &mut Vec<u64>) {
        /// Gaps up to this many slots are counted by a scan.
        const SCAN_SLOTS: usize = 64;
        out.reserve(sorted_ts.len());
        let live_at_entry = self.live as u64;
        // One past the previous hit, and the entry-live slots before it.
        let mut cursor = 0usize;
        let mut behind = 0u64;
        for (deleted, &ts) in sorted_ts.iter().enumerate() {
            let slots = &self.slots[..];
            let (mut lo, mut hi, mut step) = (cursor, cursor, 1);
            while hi < slots.len() && slots[hi].ts < ts {
                lo = hi + 1;
                hi = lo + step;
                step *= 2;
            }
            let idx = lo + slots[lo..hi.min(slots.len())].partition_point(|s| s.ts < ts);
            let live = slots
                .get(idx)
                .is_some_and(|s| s.ts == ts && s.addr != EMPTY_ADDR);
            assert!(
                live,
                "rank_delete_batch: timestamp {ts} not live in VectorTree"
            );
            behind = if idx - cursor <= SCAN_SLOTS {
                let skipped = &slots[cursor..idx];
                behind + skipped.iter().filter(|s| s.addr != EMPTY_ADDR).count() as u64
            } else {
                self.fenwick.prefix_sum(idx) + deleted as u64
            };
            out.push(live_at_entry - behind - 1);
            behind += 1;
            cursor = idx + 1;
            self.slots[idx].addr = EMPTY_ADDR;
            self.fenwick.sub(idx, 1);
            self.live -= 1;
        }
    }

    fn rebuild_from_sorted(&mut self, pairs: &[(u64, u64)]) {
        self.slots.clear();
        self.slots
            .extend(pairs.iter().map(|&(ts, addr)| Slot { ts, addr }));
        self.live = pairs.len();
        self.compact();
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
                assert_eq!(
                    v.distance_and_remove(ts - LIVE),
                    Some((LIVE - 1, ts - LIVE))
                );
            }
            v.insert(ts, ts);
            let axis = v.fenwick.len();
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
        assert_eq!(v.distance_and_remove(4), Some((15, 4)));
        assert_eq!(v.distance_and_remove(25), Some((4, 25)));
        assert_eq!(v.remove(15), None, "inside the gap");
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
        v.insert(5, 55); // same timestamp, revived in place
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
    fn batch_smoke() {
        conformance::batch_smoke(&mut VectorTree::new());
    }

    #[test]
    fn batch_ranks_across_short_and_long_gaps() {
        let mut v = VectorTree::new();
        for ts in 0..5_000u64 {
            v.insert(ts, ts);
        }
        // Dead slots inside the gaps the sweep must count past.
        for ts in (0..5_000u64).step_by(3) {
            v.remove(ts);
        }
        let live: Vec<u64> = v.to_sorted_vec().iter().map(|&(ts, _)| ts).collect();
        // Clusters of adjacent hits (scanned gaps) a few hundred slots
        // apart (Fenwick-counted gaps).
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
                        let expect = model.remove(ts).map(|addr| (model.distance(ts), addr));
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
