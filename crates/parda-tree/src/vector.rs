//! Fenwick-backed time vector — the Bennett & Kruskal (1975) lineage.
//!
//! The oldest fast stack-distance structure is not a search tree at all: a
//! vector indexed by access time, holding a 1 for each *live* element
//! (most recent access) and 0 elsewhere, with an m-ary partial-sum tree on
//! top. The reuse distance of a reference whose previous access was at time
//! `t` is the suffix count of 1s after `t`. A Fenwick tree is the modern
//! realization of the partial-sum tree: O(log n) update and suffix sum.
//!
//! The time axis grows with N, not M, so the structure compacts: when the
//! slot array fills, dead slots are squeezed out in O(live) and the Fenwick
//! tree is rebuilt — amortized O(1) per access.
//!
//! This is the fourth [`ReuseTree`] implementation, used in the D1
//! structure ablation and as the windowed streamer's history. Timestamps
//! arriving in increasing order — the analyzer's normal operation, and the
//! history append, whose item timestamps are all newer than the history —
//! append in O(log n). No engine inserts out of order; the trait allows it,
//! so it falls back to an O(n) splice, documented below.

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
    /// Slots ordered by timestamp; dead slots keep their ts (for binary
    /// search) but have `addr == EMPTY_ADDR` and a zero Fenwick count.
    slots: Vec<Slot>,
    fenwick: Fenwick,
    /// Number of initialized slots (`slots[..used]`).
    used: usize,
    live: usize,
}

impl Default for VectorTree {
    fn default() -> Self {
        Self::new()
    }
}

impl VectorTree {
    const INITIAL_SLOTS: usize = 64;

    /// Create an empty structure.
    pub fn new() -> Self {
        Self::with_capacity(Self::INITIAL_SLOTS)
    }

    /// Create an empty structure with room for `capacity` live elements.
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(Self::INITIAL_SLOTS);
        Self {
            slots: Vec::with_capacity(cap),
            fenwick: Fenwick::new(cap),
            used: 0,
            live: 0,
        }
    }

    /// Binary search for the first slot with `slot.ts >= ts`.
    fn lower_bound(&self, ts: u64) -> usize {
        self.slots[..self.used].partition_point(|s| s.ts < ts)
    }

    /// Slot index holding exactly `ts`, if live.
    fn find(&self, ts: u64) -> Option<usize> {
        let idx = self.lower_bound(ts);
        let slot = self.slots[..self.used].get(idx)?;
        (slot.ts == ts && slot.addr != EMPTY_ADDR).then_some(idx)
    }

    /// Squeeze out dead slots and rebuild the Fenwick tree, growing the
    /// slot capacity if more than half the slots are live.
    fn compact(&mut self) {
        let new_cap = if self.live * 2 > self.slots.capacity() {
            self.slots.capacity() * 2
        } else {
            self.slots.capacity()
        };
        self.slots.retain(|s| s.addr != EMPTY_ADDR);
        debug_assert_eq!(self.slots.len(), self.live);
        self.slots.reserve(new_cap.saturating_sub(self.slots.len()));
        self.used = self.slots.len();
        self.fenwick = Fenwick::new(self.slots.capacity());
        for i in 0..self.used {
            self.fenwick.add(i, 1);
        }
    }

    /// Structural self-check for tests: ts order, fenwick/live agreement.
    #[doc(hidden)]
    pub fn validate(&self) {
        assert!(self.slots[..self.used]
            .windows(2)
            .all(|w| w[0].ts < w[1].ts));
        let live = self.slots[..self.used]
            .iter()
            .filter(|s| s.addr != EMPTY_ADDR)
            .count();
        assert_eq!(live, self.live);
        assert_eq!(self.fenwick.total(), self.live as u64);
        for (i, slot) in self.slots[..self.used].iter().enumerate() {
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
        // Fast path: strictly larger than everything seen — append.
        if self.used == 0 || self.slots[self.used - 1].ts < timestamp {
            if self.used == self.slots.capacity() || self.used == self.fenwick.len() {
                self.compact();
            }
            self.slots.push(Slot {
                ts: timestamp,
                addr,
            });
            self.fenwick.add(self.used, 1);
            self.used += 1;
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
        if self.slots[idx].ts == timestamp {
            // Reviving a dead slot in place.
            self.slots[idx].addr = addr;
            self.fenwick.add(idx, 1);
            self.live += 1;
            return;
        }
        self.slots.insert(
            idx,
            Slot {
                ts: timestamp,
                addr,
            },
        );
        self.used += 1;
        self.live += 1;
        self.fenwick = Fenwick::new(self.slots.capacity().max(self.used));
        for (i, slot) in self.slots[..self.used].iter().enumerate() {
            if slot.addr != EMPTY_ADDR {
                self.fenwick.add(i, 1);
            }
        }
    }

    fn distance(&mut self, timestamp: u64) -> u64 {
        // Count of live slots strictly after `timestamp`.
        let idx = self.lower_bound(timestamp + 1);
        self.fenwick.suffix_sum(idx)
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
        // is the suffix just past it — one binary search serves both halves.
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

    fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.fenwick = Fenwick::new(self.slots.capacity().max(Self::INITIAL_SLOTS));
        self.used = 0;
        self.live = 0;
    }

    fn collect_in_order(&self, out: &mut Vec<(u64, u64)>) {
        out.extend(
            self.slots[..self.used]
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
            let slots = &self.slots[..self.used];
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
        self.used = pairs.len();
        self.live = pairs.len();
        self.fenwick = Fenwick::new(self.slots.capacity().max(Self::INITIAL_SLOTS));
        for i in 0..self.used {
            self.fenwick.add(i, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{self, op_strategy};
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

    proptest! {
        #[test]
        fn conforms_to_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let mut tree = VectorTree::new();
            conformance::run_ops(&mut tree, ops);
            tree.validate();
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
