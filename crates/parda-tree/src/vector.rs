//! Fenwick-backed time vector — the Bennett & Kruskal (1975) lineage.
//!
//! The oldest fast stack-distance structure is not a search tree at all: a
//! vector indexed by access time, holding a 1 for each *live* element
//! (most recent access) and 0 elsewhere, with an m-ary partial-sum tree on
//! top. The reuse distance of an access is the count of 1s after the slot
//! of the previous access to the same element.
//!
//! **Keys are positions.** An append takes the next slot of the time axis
//! and returns the slot's index as its key; the caller keeps that key in
//! its last-access table instead of a timestamp. So the structure stores
//! no timestamps: a slot holds only its address (8 bytes), which bounded
//! eviction and the windowed streamer's export need. A hit goes straight
//! to its slot, with no search and no slot read.
//!
//! **Two levels.** The 1s are an occupancy bitmap, one bit per slot, and a
//! [`Fenwick`] tree counts the live slots of each 512-slot block — the
//! partial-sum tree's wide bottom level. A rank is a block prefix sum plus
//! the popcount of at most 8 words, all in one cache line; a removal clears
//! one bit and walks the block tree, which is 1/512 the length of the axis.
//! The bit alone says whether a slot is live, so every address, `u64::MAX`
//! included, is plain data. The oldest entry, bounded mode's LRU victim, is
//! a block `select` plus the first set bit.
//!
//! **Compaction relabels.** The time axis grows with N, not M, so the
//! structure compacts: when an append would pass the end of the axis, the
//! dead slots are squeezed out and the axis is resized to twice the live
//! count (at least 64 slots, and room for the appends asked for). A
//! survivor's new position is its rank among the old live bits, read from
//! per-word prefix counts over the old bitmap; [`ReuseTree::make_room`]
//! lends that map ([`Relabel`]) to the caller, who rewrites its table in
//! one sweep. The survivors are a prefix of ones, so the bitmap and block
//! counts are rebuilt linearly. Each compaction buys as many appends as it
//! moved slots: amortized O(1) per access. A capacity hint (`reserve`)
//! reserves memory for slots and bitmap words without lengthening the
//! axis: the memory stays untouched until the axis reaches it, and it
//! spares an engine the freed growth steps of arrays grown from 64 slots,
//! which stay resident.
//!
//! This is the [`ReuseTree`] the CLI and the daemon run by default, the
//! windowed streamer's history and the SHARDS sketch's distance oracle.

use crate::{Fenwick, ReuseTree};

/// Time slots per block of the Fenwick level.
const BLOCK: usize = 512;
/// Bitmap words per block: one cache line.
const BLOCK_WORDS: usize = BLOCK / 64;

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

/// How a [`VectorTree`] compaction moved the live keys: each one's new key
/// is its rank among the keys live before the compaction.
#[derive(Clone, Debug, Default)]
pub struct Relabel {
    /// Per word of the old bitmap: its bits, and the live slots before it.
    words: Vec<(u64, u64)>,
}

impl Relabel {
    /// The new key of `key`, which must have been live at the compaction.
    #[inline]
    pub fn apply(&self, key: u64) -> u64 {
        let (bits, before) = self.words[(key / 64) as usize];
        before + u64::from((bits & ((1 << (key % 64)) - 1)).count_ones())
    }
}

/// Bennett–Kruskal style time-vector structure with Fenwick partial sums.
///
/// # Examples
///
/// ```
/// use parda_tree::{ReuseTree, VectorTree};
///
/// let mut v = VectorTree::new();
/// assert!(v.make_room(10).is_none());
/// let keys: Vec<u64> = (0..10).map(|ts| v.append(ts, ts + 100)).collect();
/// assert_eq!(v.distance_and_remove(keys[4]), Some(5));
/// assert_eq!(v.remove(keys[7]), Some(107));
/// assert_eq!(v.oldest(), Some((keys[0], 100)));
/// ```
#[derive(Clone, Debug)]
pub struct VectorTree {
    /// The address appended at each slot of the axis; a dead slot keeps
    /// its address and only loses its bit.
    addrs: Vec<u64>,
    /// Occupancy: bit `i % 64` of word `i / 64` is set iff slot `i` is
    /// live. Covers the whole axis.
    bits: Vec<u64>,
    /// Live slots per `BLOCK`-slot block of the axis.
    blocks: Fenwick,
    /// Slots that fit before the next compaction.
    axis: usize,
    live: usize,
    /// The last compaction's key map, lent out by `make_room`.
    relabel: Relabel,
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
            addrs: Vec::new(),
            bits: Vec::new(),
            blocks: Fenwick::new(0),
            axis: 0,
            live: 0,
            relabel: Relabel::default(),
        };
        v.reset_axis(0);
        v
    }

    fn is_live(&self, idx: usize) -> bool {
        self.bits
            .get(idx / 64)
            .is_some_and(|word| word & (1 << (idx % 64)) != 0)
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

    /// Mark live slot `idx` dead. Its address stays.
    fn kill(&mut self, idx: usize) {
        self.bits[idx / 64] &= !(1 << (idx % 64));
        self.blocks.sub(idx / BLOCK, 1);
        self.live -= 1;
    }

    /// Squeeze out the dead slots, recording in `relabel` where each
    /// survivor goes: its rank among the old live bits.
    fn compact(&mut self) {
        self.relabel.words.clear();
        self.relabel.words.reserve(self.bits.len());
        let mut kept = 0;
        for (w, &word) in self.bits.iter().enumerate() {
            self.relabel.words.push((word, kept as u64));
            let mut rest = word;
            while rest != 0 {
                self.addrs[kept] = self.addrs[w * 64 + rest.trailing_zeros() as usize];
                kept += 1;
                rest &= rest - 1;
            }
        }
        debug_assert_eq!(kept, self.live);
        self.addrs.truncate(kept);
    }

    /// Lay out an axis of `max(2 × live, live + room, 64)` slots for
    /// `addrs`, which must hold exactly the live set, in order: the bitmap
    /// becomes `live` leading ones and the block counts follow.
    fn reset_axis(&mut self, room: usize) {
        debug_assert_eq!(self.addrs.len(), self.live);
        let live = self.live;
        self.axis = (2 * live).max(live + room).max(Self::MIN_AXIS);
        self.addrs.reserve_exact(self.axis - live);
        self.bits.clear();
        self.bits.resize(live / 64, u64::MAX);
        // The partial word, perhaps empty: the axis has room for it.
        self.bits.push((1 << (live % 64)) - 1);
        self.bits.resize(self.axis.div_ceil(64), 0);
        self.blocks
            .reset_prefix_filled(self.axis.div_ceil(BLOCK), live, BLOCK);
    }

    /// Structural self-check for tests: the axis, and agreement of bits,
    /// block counts and the live count.
    #[doc(hidden)]
    pub fn validate(&self) {
        assert!(self.addrs.len() <= self.axis, "slots overflow the axis");
        assert_eq!(self.bits.len(), self.axis.div_ceil(64), "bitmap length");
        assert_eq!(self.blocks.len(), self.axis.div_ceil(BLOCK), "blocks");
        assert!(
            (self.addrs.len()..self.bits.len() * 64).all(|i| !self.is_live(i)),
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
    /// The key is the next slot of the axis; the timestamp is not stored.
    fn append(&mut self, _timestamp: u64, addr: u64) -> u64 {
        let idx = self.addrs.len();
        assert!(
            idx < self.axis,
            "VectorTree::append past the axis: make room first"
        );
        self.bits[idx / 64] |= 1 << (idx % 64);
        self.blocks.add(idx / BLOCK, 1);
        self.addrs.push(addr);
        self.live += 1;
        idx as u64
    }

    fn next_key(&self, _timestamp: u64) -> u64 {
        self.addrs.len() as u64
    }

    /// Compacts when the appends would pass the end of the axis. Only a
    /// compaction that squeezed out dead slots moved keys; an axis that is
    /// all live just grows.
    fn make_room(&mut self, appends: usize) -> Option<&Relabel> {
        if self.addrs.len() + appends <= self.axis {
            return None;
        }
        let moved = self.live < self.addrs.len();
        if moved {
            self.compact();
        }
        self.reset_axis(appends);
        moved.then_some(&self.relabel)
    }

    /// Live slots after `key`'s, for any `key` on the axis.
    fn distance(&mut self, key: u64) -> u64 {
        self.live as u64 - self.rank(key as usize + 1)
    }

    fn remove(&mut self, key: u64) -> Option<u64> {
        let idx = key as usize;
        if !self.is_live(idx) {
            return None;
        }
        self.kill(idx);
        Some(self.addrs[idx])
    }

    fn distance_and_remove(&mut self, key: u64) -> Option<u64> {
        // Fused: `key` is live, so the newer entries are everything live
        // but it and the slots before it. The slot itself is never read.
        let idx = key as usize;
        if !self.is_live(idx) {
            return None;
        }
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
        let idx = first * 64 + bit;
        Some((idx as u64, self.addrs[idx]))
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Reserve memory only: the axis stays sized to the live set, and the
    /// reserved slots stay untouched until the axis reaches them.
    fn reserve(&mut self, additional: usize) {
        self.addrs.reserve(additional);
        self.bits.reserve(additional / 64);
    }

    fn clear(&mut self) {
        // Keep the axis and the allocations for the next fill; its first
        // compaction sizes the axis to the new live set.
        self.addrs.clear();
        self.bits.fill(0);
        self.blocks.reset_prefix_filled(self.blocks.len(), 0, BLOCK);
        self.live = 0;
    }

    fn for_each_in_order(&self, mut visit: impl FnMut(u64, u64)) {
        for idx in set_bits(&self.bits) {
            visit(idx as u64, self.addrs[idx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{self, keyed_op_strategy, Keyed};
    use proptest::prelude::*;

    #[test]
    fn smoke() {
        conformance::keyed_smoke(VectorTree::new());
    }

    #[test]
    fn compaction_relabels_survivors_to_their_ranks() {
        let mut v = VectorTree::new();
        assert!(v.make_room(64).is_none());
        let keys: Vec<u64> = (0..64u64).map(|ts| v.append(ts, ts + 500)).collect();
        assert_eq!(keys, (0..64).collect::<Vec<_>>(), "keys are slots");
        for &key in keys.iter().filter(|&&k| k % 3 != 0) {
            v.remove(key);
        }
        let relabel = v.make_room(1).expect("dead slots move the survivors");
        let moved: Vec<u64> = (0..64u64).step_by(3).map(|k| relabel.apply(k)).collect();
        assert_eq!(moved, (0..22).collect::<Vec<_>>());
        let contents: Vec<(u64, u64)> = (0..22u64).map(|k| (k, k * 3 + 500)).collect();
        assert_eq!(v.to_sorted_vec(), contents);
        assert_eq!(v.next_key(64), 22, "appends continue after the survivors");
        v.validate();
    }

    #[test]
    fn an_all_live_axis_grows_without_moving_keys() {
        let mut v = VectorTree::new();
        let _ = v.make_room(64);
        for ts in 0..64u64 {
            v.append(ts, ts);
        }
        assert!(v.make_room(1).is_none(), "nothing dead, nothing moves");
        assert_eq!(v.append(64, 64), 64);
        assert_eq!(v.distance_and_remove(0), Some(64));
        v.validate();
    }

    #[test]
    fn compaction_leaves_room_for_the_appends_asked_for() {
        let mut v = VectorTree::new();
        let _ = v.make_room(64);
        for ts in 0..64u64 {
            let key = v.append(ts, ts);
            if ts < 60 {
                v.remove(key);
            }
        }
        // Four survivors would get a 64-slot axis; the batch needs more.
        assert!(v.make_room(1_000).is_some());
        for ts in 0..1_000u64 {
            assert_eq!(v.append(ts, ts), ts + 4);
        }
        v.validate();
    }

    #[test]
    fn axis_follows_the_live_set_not_the_capacity_hint() {
        // An engine passes its chunk length as a capacity hint; a sliding
        // window of 1,000 live entries must still run on a ~2K axis.
        const LIVE: u64 = 1_000;
        let mut k = Keyed::new(VectorTree::new());
        k.tree.reserve(1 << 20);
        for ts in 0..100_000u64 {
            if ts >= LIVE {
                assert_eq!(k.distance_and_remove(ts - LIVE), Some(LIVE - 1));
            }
            k.append(0, ts);
            let axis = k.tree.axis;
            assert!(
                axis <= (2 * k.tree.len()).max(64),
                "axis {axis} for {} live at ts {ts}",
                k.tree.len()
            );
        }
        k.check();
        k.tree.validate();
    }

    #[test]
    fn distance_counts_strictly_newer() {
        let mut v = VectorTree::new();
        let _ = v.make_room(5);
        let keys: Vec<u64> = [10u64, 20, 30, 40, 50].map(|ts| v.append(ts, ts)).to_vec();
        assert_eq!(v.distance(keys[2]), 2);
        assert_eq!(v.distance(keys[4]), 0);
        assert_eq!(v.distance(keys[0]), 4);
        v.remove(keys[1]);
        assert_eq!(v.distance(keys[1]), 3, "a dead slot still has a place");
        v.validate();
    }

    #[test]
    fn oldest_skips_dead_slots() {
        let mut v = VectorTree::new();
        let _ = v.make_room(10);
        let keys: Vec<u64> = (0..10u64).map(|ts| v.append(ts, ts * 2)).collect();
        for &key in &keys[..5] {
            v.remove(key);
        }
        assert_eq!(v.oldest(), Some((keys[5], 10)));
        v.validate();
    }

    #[test]
    fn oldest_skips_an_emptied_first_block() {
        let mut v = VectorTree::new();
        // Three full blocks and part of a fourth.
        let _ = v.make_room(1_636);
        let keys: Vec<u64> = (0..1_636u64).map(|ts| v.append(ts, ts + 7)).collect();
        // Empty the whole first block and most of the second, so the
        // select lands in block 1 and the bit scan skips its leading words.
        for ts in 0..(BLOCK as u64 + 300) {
            assert_eq!(v.distance_and_remove(keys[ts as usize]), Some(1_635 - ts));
        }
        assert_eq!(v.oldest(), Some((keys[812], 819)));
        v.remove(keys[812]);
        assert_eq!(v.oldest(), Some((keys[813], 820)));
        v.validate();
    }

    #[test]
    fn the_largest_address_is_plain_data() {
        const MAX: u64 = u64::MAX;
        let mut v = VectorTree::new();
        let _ = v.make_room(5);
        let keys: Vec<u64> = [MAX, 3, MAX - 1, MAX]
            .iter()
            .enumerate()
            .map(|(ts, &addr)| v.append(ts as u64, addr))
            .collect();
        assert_eq!(v.oldest(), Some((keys[0], MAX)));
        assert_eq!(v.distance_and_remove(keys[0]), Some(3));
        assert_eq!(v.oldest(), Some((keys[1], 3)));
        assert_eq!(v.remove(keys[3]), Some(MAX));
        assert_eq!(v.to_sorted_vec(), vec![(keys[1], 3), (keys[2], MAX - 1)]);
        let last = v.append(4, MAX);
        assert_eq!(
            v.to_sorted_vec(),
            vec![(keys[1], 3), (keys[2], MAX - 1), (last, MAX)]
        );
        assert_eq!(v.distance(keys[1]), 2);
        v.validate();
    }

    #[test]
    fn stream_order_batch_crosses_blocks_and_compactions() {
        // Hits in scattered stream order, several blocks apart, on a tree
        // that compacted on the way: the default batch loop must give the
        // model's distances.
        let mut k = Keyed::new(VectorTree::new());
        for ts in 0..5_000u64 {
            k.append(0, ts);
            if ts % 3 == 0 {
                k.distance_and_remove(ts);
            }
        }
        let batch: Vec<u64> = (0..5_000u64)
            .map(|i| (i * 2_654_435_761) % 5_000)
            .filter(|ts| ts % 3 != 0 && ts % 7 < 2)
            .collect();
        let mut keys: Vec<u64> = batch.iter().map(|&ts| k.key(ts)).collect();
        let expect: Vec<u64> = batch
            .iter()
            .map(|&ts| {
                k.model.remove(ts);
                k.model.distance(ts)
            })
            .collect();
        k.tree.distance_and_remove_each(&mut keys);
        assert_eq!(keys, expect);
        k.tree.validate();
    }

    proptest! {
        /// Appends with gaps, every hit path, forced compactions and batch
        /// absorbs, against the model, with the keys relabelled as the
        /// engines relabel their tables.
        #[test]
        fn keyed_conforms_to_model(
            ops in proptest::collection::vec(keyed_op_strategy(), 0..400),
        ) {
            conformance::run_keyed(VectorTree::new(), ops).validate();
        }
    }
}
