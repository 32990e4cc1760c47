//! An indexable LRU stack with O(log M) operations.
//!
//! The model-driven generator ([`crate::gen::StackDistGen`]) inverts reuse
//! distance analysis: it *samples* a stack depth and must fetch the address
//! at that depth, then move it to the top. A `Vec` gives O(M) per access; a
//! plain list can't index. This structure uses the classic time-slot +
//! Fenwick technique: every address occupies a monotonically increasing
//! "time slot", a Fenwick tree counts live slots, and depth-k lookup becomes
//! a rank-select query. Slots are compacted in O(M) when the slot array
//! fills, which amortizes to O(1) per access.

use crate::{Addr, Fenwick};

const EMPTY: Addr = Addr::MAX;

/// LRU stack supporting depth-indexed access.
///
/// Depth 0 is the most recently used element.
///
/// # Examples
///
/// ```
/// use parda_trace::LruStack;
///
/// let mut s = LruStack::new();
/// s.push_new(10);
/// s.push_new(20);
/// s.push_new(30);                  // stack: 30 20 10
/// assert_eq!(s.access_depth(2), 10); // stack: 10 30 20
/// assert_eq!(s.access_depth(0), 10);
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct LruStack {
    /// `slots[t]` = address whose last touch was at slot time `t`, or EMPTY.
    slots: Vec<Addr>,
    /// Occupancy (1 per live slot).
    fenwick: Fenwick,
    /// Next free slot time.
    next: usize,
    live: usize,
}

impl Default for LruStack {
    fn default() -> Self {
        Self::new()
    }
}

impl LruStack {
    const INITIAL_SLOTS: usize = 64;

    /// Create an empty stack.
    pub fn new() -> Self {
        Self {
            slots: vec![EMPTY; Self::INITIAL_SLOTS],
            fenwick: Fenwick::new(Self::INITIAL_SLOTS),
            next: 0,
            live: 0,
        }
    }

    /// Number of live (distinct) addresses.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if no address is on the stack.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Push a never-seen address onto the top of the stack.
    pub fn push_new(&mut self, addr: Addr) {
        debug_assert_ne!(addr, EMPTY, "sentinel address is reserved");
        self.ensure_slot();
        self.slots[self.next] = addr;
        self.fenwick.add(self.next, 1);
        self.next += 1;
        self.live += 1;
    }

    /// Address at `depth` (0 = most recent) without reordering.
    pub fn peek_depth(&self, depth: usize) -> Option<Addr> {
        if depth >= self.live {
            return None;
        }
        // The element at depth d is the (live - d)-th occupied slot from the
        // left (slots are in access-time order).
        let rank = (self.live - depth) as u64;
        let slot = self.fenwick.select(rank).expect("rank within total");
        Some(self.slots[slot])
    }

    /// Touch the element at `depth`, moving it to the top. Returns its
    /// address. Panics if `depth >= len()`.
    pub fn access_depth(&mut self, depth: usize) -> Addr {
        assert!(
            depth < self.live,
            "depth {depth} out of range (len {})",
            self.live
        );
        let rank = (self.live - depth) as u64;
        let slot = self.fenwick.select(rank).expect("rank within total");
        let addr = self.slots[slot];
        if depth == 0 {
            return addr; // already on top; no slot movement needed
        }
        // Vacate first and keep `live` consistent: `ensure_slot` may compact,
        // and compaction counts exactly the occupied slots.
        self.slots[slot] = EMPTY;
        self.fenwick.sub(slot, 1);
        self.live -= 1;
        self.ensure_slot();
        self.slots[self.next] = addr;
        self.fenwick.add(self.next, 1);
        self.next += 1;
        self.live += 1;
        addr
    }

    /// The stack from most to least recently used (O(M); diagnostics/tests).
    pub fn to_vec(&self) -> Vec<Addr> {
        let mut out = Vec::with_capacity(self.live);
        for t in (0..self.next).rev() {
            let a = self.slots[t];
            if a != EMPTY {
                out.push(a);
            }
        }
        out
    }

    /// Make sure `self.next` is a valid slot, compacting or growing as
    /// needed.
    fn ensure_slot(&mut self) {
        if self.next < self.slots.len() {
            return;
        }
        if self.live * 2 <= self.slots.len() {
            // At least half the slots are holes: compact in place.
            self.compact();
        } else {
            // Mostly live: double the slot array, then compact into it.
            let new_len = self.slots.len() * 2;
            self.slots.resize(new_len, EMPTY);
            self.compact();
        }
    }

    /// Slide live entries to the front, preserving order, and rebuild the
    /// Fenwick tree.
    fn compact(&mut self) {
        let mut write = 0;
        for read in 0..self.next {
            let a = self.slots[read];
            if a != EMPTY {
                self.slots[write] = a;
                write += 1;
            }
        }
        let clear_end = self.next.min(self.slots.len());
        for slot in &mut self.slots[write..clear_end] {
            *slot = EMPTY;
        }
        debug_assert_eq!(write, self.live);
        self.next = write;
        self.fenwick.reset_prefix_ones(self.slots.len(), write);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive reference: Vec with index 0 = top.
    #[derive(Default)]
    struct NaiveLru(Vec<Addr>);

    impl NaiveLru {
        fn push_new(&mut self, a: Addr) {
            self.0.insert(0, a);
        }

        fn access_depth(&mut self, d: usize) -> Addr {
            let a = self.0.remove(d);
            self.0.insert(0, a);
            a
        }
    }

    #[test]
    fn push_and_peek() {
        let mut s = LruStack::new();
        for a in [1u64, 2, 3] {
            s.push_new(a);
        }
        assert_eq!(s.peek_depth(0), Some(3));
        assert_eq!(s.peek_depth(1), Some(2));
        assert_eq!(s.peek_depth(2), Some(1));
        assert_eq!(s.peek_depth(3), None);
        assert_eq!(s.to_vec(), vec![3, 2, 1]);
    }

    #[test]
    fn access_moves_to_front() {
        let mut s = LruStack::new();
        for a in [1u64, 2, 3, 4] {
            s.push_new(a);
        }
        assert_eq!(s.access_depth(3), 1);
        assert_eq!(s.to_vec(), vec![1, 4, 3, 2]);
        assert_eq!(s.access_depth(0), 1, "depth 0 is a no-op move");
        assert_eq!(s.to_vec(), vec![1, 4, 3, 2]);
        assert_eq!(s.access_depth(2), 3);
        assert_eq!(s.to_vec(), vec![3, 1, 4, 2]);
    }

    #[test]
    fn survives_many_compactions() {
        let mut s = LruStack::new();
        for a in 0..16u64 {
            s.push_new(a);
        }
        // Thousands of touches force repeated slot exhaustion + compaction.
        for i in 0..10_000usize {
            s.access_depth(i % 16);
        }
        assert_eq!(s.len(), 16);
        let mut contents = s.to_vec();
        contents.sort_unstable();
        assert_eq!(contents, (0..16u64).collect::<Vec<_>>());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = LruStack::new();
        for a in 0..10_000u64 {
            s.push_new(a);
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.peek_depth(9_999), Some(0));
        assert_eq!(s.access_depth(9_999), 0);
        assert_eq!(s.peek_depth(0), Some(0));
    }

    proptest! {
        #[test]
        fn matches_naive_model(ops in proptest::collection::vec(any::<u16>(), 1..400)) {
            let mut fast = LruStack::new();
            let mut slow = NaiveLru::default();
            let mut next_addr = 0u64;
            for op in ops {
                if slow.0.is_empty() || op % 3 == 0 {
                    slow.push_new(next_addr);
                    fast.push_new(next_addr);
                    next_addr += 1;
                } else {
                    let d = (op as usize) % slow.0.len();
                    prop_assert_eq!(fast.access_depth(d), slow.access_depth(d));
                }
                prop_assert_eq!(fast.len(), slow.0.len());
            }
            prop_assert_eq!(fast.to_vec(), slow.0);
        }
    }
}
