//! Fenwick-backed time vector — the Bennett & Kruskal (1975) lineage.
//!
//! The oldest fast stack-distance structure is not a search tree at all: a
//! vector indexed by access time, holding a 1 for each *live* element
//! (most recent access) and 0 elsewhere, with an m-ary partial-sum tree on
//! top. The reuse distance of an access is the count of 1s after the slot
//! of the previous access to the same element.
//!
//! **Keys are positions, and a slot is one bit.** An append takes the next
//! slot of the time axis and returns the slot's index as its key; the
//! caller keeps that key in its last-access table instead of a timestamp.
//! So the structure is an occupancy set: it stores no timestamps and no
//! addresses, only which slots are live. A caller that needs a live key's
//! address knows it already — an engine that started its chunk empty reads
//! it from the chunk at the key's offset. A hit goes straight to its bit,
//! with no search.
//!
//! **Two levels.** The 1s are an occupancy bitmap, one bit per slot, and a
//! [`Fenwick`] tree counts the live slots of each 512-slot block — the
//! partial-sum tree's wide bottom level. A rank is a block prefix sum plus
//! the popcount of at most 8 words, all in one cache line; a removal clears
//! one bit and walks the block tree, which is 1/512 the length of the axis.
//! The oldest entry, bounded mode's LRU victim, is a block `select` plus
//! the first set bit.
//!
//! **Compaction relabels.** The time axis grows with N, not M, so the
//! structure compacts: when the appends asked for would pass the end of the
//! axis, the dead slots are squeezed out and the axis is resized to twice
//! the live count (at least 64 slots, and room for the appends asked for).
//! A survivor's new position is its rank among the old live bits, read from
//! per-word prefix counts over the old bitmap; [`ReuseTree::make_room`]
//! lends that map ([`Relabel`]) to the caller, who rewrites its table in
//! one sweep and drops the keys the map reports dead. The survivors are a
//! prefix of ones, so the bitmap and block counts are rebuilt linearly, and
//! the whole compaction reads one word per 64 slots. Each compaction buys
//! as many appends as it moved slots: amortized O(1) per access. A caller
//! that makes room for all its appends at once on an empty structure —
//! an engine analyzing one chunk — never compacts: its keys are its
//! appends' offsets. A capacity hint (`reserve`) reserves bitmap words
//! without lengthening the axis.
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

/// How a [`VectorTree`] compaction moved the keys: a key live at the
/// compaction moves to its rank among the live keys, and any other key
/// (one the caller still holds for an entry it removed) is dead.
#[derive(Clone, Debug, Default)]
pub struct Relabel {
    /// Per word of the old bitmap: its bits, and the live slots before it.
    words: Vec<(u64, u64)>,
}

impl Relabel {
    /// The new key of `key`, or `None` if its entry was not live at the
    /// compaction. `key` must be below the old axis's next key.
    #[inline]
    pub fn apply(&self, key: u64) -> Option<u64> {
        let (bits, before) = self.words[(key / 64) as usize];
        let bit = 1u64 << (key % 64);
        (bits & bit != 0).then(|| before + u64::from((bits & (bit - 1)).count_ones()))
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
/// let keys: Vec<u64> = (0..10).map(|ts| v.append(ts)).collect();
/// assert_eq!(keys, (0..10).collect::<Vec<u64>>(), "keys are offsets");
/// assert_eq!(v.distance_and_remove(keys[4]), Some(5));
/// assert!(v.remove(keys[7]));
/// assert_eq!(v.oldest(), Some(keys[0]));
/// ```
#[derive(Clone, Debug)]
pub struct VectorTree {
    /// Occupancy: bit `i % 64` of word `i / 64` is set iff slot `i` is
    /// live. Covers the whole axis.
    bits: Vec<u64>,
    /// Live slots per `BLOCK`-slot block of the axis.
    blocks: Fenwick,
    /// Slots taken since the last compaction: the next append's key.
    next: usize,
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
            bits: Vec::new(),
            blocks: Fenwick::new(0),
            next: 0,
            axis: 0,
            live: 0,
            relabel: Relabel::default(),
        };
        v.reset_axis(0);
        v
    }

    /// Bytes the axis holds: its bitmap words and block counts.
    pub fn memory_bytes(&self) -> u64 {
        let words = self.bits.len() * std::mem::size_of::<u64>();
        let blocks = (self.blocks.len() + 1) * std::mem::size_of::<u32>();
        (words + blocks) as u64
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

    /// Mark live slot `idx` dead.
    fn kill(&mut self, idx: usize) {
        self.bits[idx / 64] &= !(1 << (idx % 64));
        self.blocks.sub(idx / BLOCK, 1);
        self.live -= 1;
    }

    /// Record in `relabel` where each survivor goes — its rank among the
    /// old live bits — and squeeze the dead slots out of the count of
    /// taken slots.
    fn compact(&mut self) {
        self.relabel.words.clear();
        self.relabel.words.reserve(self.bits.len());
        let mut kept = 0;
        for &word in &self.bits {
            self.relabel.words.push((word, kept));
            kept += u64::from(word.count_ones());
        }
        debug_assert_eq!(kept, self.live as u64);
        self.next = self.live;
    }

    /// Lay out an axis of `max(2 × live, live + room, 64)` slots whose
    /// first `live` slots are the live set: the bitmap becomes `live`
    /// leading ones and the block counts follow.
    fn reset_axis(&mut self, room: usize) {
        debug_assert_eq!(self.next, self.live);
        let live = self.live;
        self.axis = (2 * live).max(live + room).max(Self::MIN_AXIS);
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
        assert!(self.next <= self.axis, "slots overflow the axis");
        assert_eq!(self.bits.len(), self.axis.div_ceil(64), "bitmap length");
        assert_eq!(self.blocks.len(), self.axis.div_ceil(BLOCK), "blocks");
        assert!(
            (self.next..self.bits.len() * 64).all(|i| !self.is_live(i)),
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
    fn append(&mut self, _timestamp: u64) -> u64 {
        let idx = self.next;
        assert!(
            idx < self.axis,
            "VectorTree::append past the axis: make room first"
        );
        self.bits[idx / 64] |= 1 << (idx % 64);
        self.blocks.add(idx / BLOCK, 1);
        self.next += 1;
        self.live += 1;
        idx as u64
    }

    fn next_key(&self, _timestamp: u64) -> u64 {
        self.next as u64
    }

    /// Compacts when the appends would pass the end of the axis. Only a
    /// compaction that squeezed out dead slots moved keys; an axis that is
    /// all live just grows.
    fn make_room(&mut self, appends: usize) -> Option<&Relabel> {
        if self.next + appends <= self.axis {
            return None;
        }
        let moved = self.live < self.next;
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

    fn remove(&mut self, key: u64) -> bool {
        let idx = key as usize;
        let live = self.is_live(idx);
        if live {
            self.kill(idx);
        }
        live
    }

    fn distance_and_remove(&mut self, key: u64) -> Option<u64> {
        // Fused: `key` is live, so the newer entries are everything live
        // but it and the slots before it.
        let idx = key as usize;
        if !self.is_live(idx) {
            return None;
        }
        let d = self.live as u64 - 1 - self.rank(idx);
        self.kill(idx);
        Some(d)
    }

    fn oldest(&self) -> Option<u64> {
        // The first block with a live slot holds the first set bit.
        let first = self.blocks.select(1)? * BLOCK_WORDS;
        let bit = set_bits(&self.bits[first..])
            .next()
            .expect("a counted block holds a set bit");
        Some((first * 64 + bit) as u64)
    }

    fn len(&self) -> usize {
        self.live
    }

    /// Reserve memory only: the axis stays as it is, and the reserved
    /// words stay untouched until the axis reaches them.
    fn reserve(&mut self, additional: usize) {
        self.bits.reserve(additional.div_ceil(64));
    }

    fn clear(&mut self) {
        // Keep the axis and the allocations for the next fill; making room
        // past it sizes the axis to the new live set.
        self.next = 0;
        self.bits.fill(0);
        self.blocks.reset_prefix_filled(self.blocks.len(), 0, BLOCK);
        self.live = 0;
    }

    fn for_each_in_order(&self, mut visit: impl FnMut(u64)) {
        for idx in set_bits(&self.bits[..self.next.div_ceil(64)]) {
            visit(idx as u64);
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
        let trace: Vec<u64> = (0..64u64).map(|ts| ts + 500).collect();
        let keys: Vec<u64> = (0..64u64).map(|ts| v.append(ts)).collect();
        assert_eq!(keys, (0..64).collect::<Vec<_>>(), "keys are slots");
        for &key in keys.iter().filter(|&&k| k % 3 != 0) {
            v.remove(key);
        }
        let relabel = v.make_room(1).expect("dead slots move the survivors");
        let moved: Vec<u64> = (0..64u64)
            .step_by(3)
            .map(|k| relabel.apply(k).unwrap())
            .collect();
        assert_eq!(moved, (0..22).collect::<Vec<_>>());
        assert_eq!(relabel.apply(1), None, "a removed key is reported dead");
        assert_eq!(relabel.apply(62), None);
        // Each survivor's address, read from the trace at its old key.
        let contents: Vec<(u64, u64)> = (0..64u64)
            .step_by(3)
            .map(|old| (relabel.apply(old).unwrap(), trace[old as usize]))
            .collect();
        let expect: Vec<(u64, u64)> = (0..22u64).map(|k| (k, k * 3 + 500)).collect();
        assert_eq!(contents, expect);
        assert_eq!(v.to_sorted_vec(), (0..22).collect::<Vec<_>>());
        assert_eq!(v.next_key(64), 22, "appends continue after the survivors");
        v.validate();
    }

    #[test]
    fn an_all_live_axis_grows_without_moving_keys() {
        let mut v = VectorTree::new();
        let _ = v.make_room(64);
        for ts in 0..64u64 {
            v.append(ts);
        }
        assert!(v.make_room(1).is_none(), "nothing dead, nothing moves");
        assert_eq!(v.append(64), 64);
        assert_eq!(v.distance_and_remove(0), Some(64));
        v.validate();
    }

    #[test]
    fn room_made_up_front_never_compacts() {
        // An engine that starts a chunk empty makes room for the whole
        // chunk: every later make_room is free, however many die.
        let mut v = VectorTree::new();
        assert!(v.make_room(10_000).is_none());
        for ts in 0..10_000u64 {
            assert!(v.make_room(1).is_none(), "compacted at {ts}");
            assert_eq!(v.append(ts), ts, "the key is the offset");
            if ts >= 10 {
                assert_eq!(v.distance_and_remove(ts - 10), Some(10));
            }
        }
        assert_eq!(v.to_sorted_vec(), (9_990..10_000).collect::<Vec<_>>());
        v.validate();
    }

    #[test]
    fn compaction_leaves_room_for_the_appends_asked_for() {
        let mut v = VectorTree::new();
        let _ = v.make_room(64);
        for ts in 0..64u64 {
            let key = v.append(ts);
            if ts < 60 {
                v.remove(key);
            }
        }
        // Four survivors would get a 64-slot axis; the batch needs more.
        assert!(v.make_room(1_000).is_some());
        for ts in 0..1_000u64 {
            assert_eq!(v.append(ts), ts + 4);
        }
        v.validate();
    }

    #[test]
    fn axis_follows_the_live_set_not_the_capacity_hint() {
        // A capacity hint reserves memory only; a sliding window of 1,000
        // live entries appended one at a time runs on a ~2K axis.
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
        let keys: Vec<u64> = [10u64, 20, 30, 40, 50].map(|ts| v.append(ts)).to_vec();
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
        let keys: Vec<u64> = (0..10u64).map(|ts| v.append(ts)).collect();
        for &key in &keys[..5] {
            v.remove(key);
        }
        assert_eq!(v.oldest(), Some(keys[5]));
        v.validate();
    }

    #[test]
    fn oldest_skips_an_emptied_first_block() {
        let mut v = VectorTree::new();
        // Three full blocks and part of a fourth.
        let _ = v.make_room(1_636);
        let keys: Vec<u64> = (0..1_636u64).map(|ts| v.append(ts)).collect();
        // Empty the whole first block and most of the second, so the
        // select lands in block 1 and the bit scan skips its leading words.
        for ts in 0..(BLOCK as u64 + 300) {
            assert_eq!(v.distance_and_remove(keys[ts as usize]), Some(1_635 - ts));
        }
        assert_eq!(v.oldest(), Some(keys[812]));
        v.remove(keys[812]);
        assert_eq!(v.oldest(), Some(keys[813]));
        v.validate();
    }

    #[test]
    fn removing_a_dead_key_changes_nothing() {
        let mut v = VectorTree::new();
        let _ = v.make_room(5);
        let keys: Vec<u64> = (0..4u64).map(|ts| v.append(ts)).collect();
        assert!(v.remove(keys[0]));
        assert!(!v.remove(keys[0]), "removed twice");
        assert_eq!(v.distance_and_remove(keys[0]), None);
        assert_eq!(v.oldest(), Some(keys[1]));
        assert_eq!(v.to_sorted_vec(), keys[1..].to_vec());
        let last = v.append(4);
        assert_eq!(v.to_sorted_vec(), vec![keys[1], keys[2], keys[3], last]);
        assert_eq!(v.distance(keys[1]), 3);
        v.validate();
    }

    #[test]
    fn memory_is_the_axis_bits_and_block_counts() {
        let mut v = VectorTree::new();
        assert_eq!(v.memory_bytes(), 8 + 2 * 4, "one word, one block");
        let _ = v.make_room(4_096);
        assert_eq!(v.memory_bytes(), 64 * 8 + 9 * 4);
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
