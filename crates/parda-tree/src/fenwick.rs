//! Fenwick (binary indexed) tree with prefix sums and rank selection.
//!
//! Backs [`crate::VectorTree`] (the Bennett–Kruskal partial-sum structure,
//! over live counts of 512-slot time blocks) and `parda_trace::LruStack`
//! (over 0/1 time slots), with O(log n) point update, prefix sum, and
//! `select` (find the k-th occupied slot) via binary lifting.

/// Fenwick tree over `u32` counts with rank selection.
///
/// Node `i` holds the sum of the slots it covers. Every user counts live
/// time slots: a slot of `LruStack` holds 0 or 1, and one of
/// `VectorTree`'s holds the live count of a 512-slot block of its time
/// axis, at most 512. Either way a node holds at most the number of time
/// slots under it, so `u32` nodes cannot overflow below 2^32 time slots
/// (2^23 blocks), and they take half the cache lines `u64` nodes would.
/// Sums and totals are reported as `u64`.
///
/// # Examples
///
/// ```
/// use parda_tree::Fenwick;
///
/// let mut f = Fenwick::new(8);
/// f.add(2, 1);
/// f.add(5, 1);
/// assert_eq!(f.prefix_sum(5), 1);    // slots 0..5 contain one item
/// assert_eq!(f.select(1), Some(2));  // 1st item lives at slot 2
/// assert_eq!(f.select(2), Some(5));
/// assert_eq!(f.select(3), None);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fenwick {
    /// 1-based internal array; `tree[i]` covers `i - lowbit(i) + 1 ..= i`.
    tree: Vec<u32>,
    total: u64,
}

impl Fenwick {
    /// Create a tree over `n` slots, all zero.
    pub fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
            total: 0,
        }
    }

    /// Reset to `len` slots of `per_slot` units each, filled in order with
    /// `total` units: the first `total / per_slot` slots hold `per_slot`,
    /// the next the remainder, the rest 0 (with `per_slot` 1, a prefix of
    /// ones). O(len), keeping the allocation: node `i` covers slots
    /// `i - lowbit(i) .. i`, so it counts the units below `total` in that
    /// span.
    pub fn reset_prefix_filled(&mut self, len: usize, total: usize, per_slot: usize) {
        debug_assert!(total <= len * per_slot);
        self.tree.clear();
        self.tree.push(0);
        self.tree.extend((1..=len).map(|i| {
            let first = i - (i & i.wrapping_neg());
            total.min(i * per_slot).saturating_sub(first * per_slot) as u32
        }));
        self.total = total as u64;
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// `true` if the tree covers no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all slots.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Add `delta` to slot `idx` (0-based).
    pub fn add(&mut self, idx: usize, delta: u32) {
        self.total += u64::from(delta);
        let mut i = idx + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Subtract `delta` from slot `idx` (0-based). Panics in debug builds if
    /// the slot would go negative.
    pub fn sub(&mut self, idx: usize, delta: u32) {
        debug_assert!(self.total >= u64::from(delta));
        self.total -= u64::from(delta);
        let mut i = idx + 1;
        while i < self.tree.len() {
            debug_assert!(self.tree[i] >= delta, "Fenwick underflow at {idx}");
            self.tree[i] -= delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of slots `0..idx` (exclusive upper bound; 0-based).
    pub fn prefix_sum(&self, idx: usize) -> u64 {
        let mut i = idx.min(self.len());
        let mut sum = 0;
        while i > 0 {
            sum += u64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Find the smallest slot index such that the prefix sum through it
    /// reaches `k` (1-based rank). `None` if `k > total`. O(log n) binary
    /// lifting.
    pub fn select(&self, k: u64) -> Option<usize> {
        if k == 0 || k > self.total {
            return None;
        }
        let mut remaining = k;
        let mut pos = 0usize; // 1-based cursor into tree
        let mut step = self.tree.len().next_power_of_two() / 2;
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && u64::from(self.tree[next]) < remaining {
                remaining -= u64::from(self.tree[next]);
                pos = next;
            }
            step /= 2;
        }
        Some(pos) // pos is 0-based slot (1-based tree index of predecessor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prefix_sums_match_naive() {
        let values = [3u32, 0, 5, 1, 0, 2, 7];
        let mut f = Fenwick::new(values.len());
        for (i, &v) in values.iter().enumerate() {
            f.add(i, v);
        }
        let mut acc = 0;
        for i in 0..=values.len() {
            assert_eq!(f.prefix_sum(i), acc, "prefix {i}");
            if i < values.len() {
                acc += u64::from(values[i]);
            }
        }
        assert_eq!(f.total(), 18);
    }

    #[test]
    fn select_finds_kth_occupied() {
        let mut f = Fenwick::new(10);
        for idx in [1usize, 4, 9] {
            f.add(idx, 1);
        }
        assert_eq!(f.select(1), Some(1));
        assert_eq!(f.select(2), Some(4));
        assert_eq!(f.select(3), Some(9));
        assert_eq!(f.select(4), None);
        assert_eq!(f.select(0), None);
    }

    #[test]
    fn select_with_multiplicity() {
        let mut f = Fenwick::new(4);
        f.add(0, 2);
        f.add(3, 3);
        assert_eq!(f.select(1), Some(0));
        assert_eq!(f.select(2), Some(0));
        assert_eq!(f.select(3), Some(3));
        assert_eq!(f.select(5), Some(3));
        assert_eq!(f.select(6), None);
    }

    #[test]
    fn sub_then_select_skips_removed() {
        let mut f = Fenwick::new(8);
        for idx in 0..8 {
            f.add(idx, 1);
        }
        f.sub(3, 1);
        f.sub(0, 1);
        assert_eq!(f.select(1), Some(1));
        assert_eq!(f.select(3), Some(4));
        assert_eq!(f.total(), 6);
    }

    #[test]
    fn non_power_of_two_sizes() {
        // Binary lifting must not read past the end for awkward sizes.
        for n in [1usize, 3, 5, 7, 100, 1000, 1023, 1025] {
            let mut f = Fenwick::new(n);
            for i in 0..n {
                f.add(i, 1);
            }
            for k in 1..=n as u64 {
                assert_eq!(f.select(k), Some(k as usize - 1), "n={n} k={k}");
            }
        }
    }

    proptest! {
        #[test]
        fn select_is_inverse_of_prefix_sum(
            values in proptest::collection::vec(0u32..4, 1..200),
            k in 1u64..500,
        ) {
            let mut f = Fenwick::new(values.len());
            for (i, &v) in values.iter().enumerate() {
                f.add(i, v);
            }
            match f.select(k) {
                None => prop_assert!(k > f.total()),
                Some(idx) => {
                    prop_assert!(f.prefix_sum(idx) < k);
                    prop_assert!(f.prefix_sum(idx + 1) >= k);
                }
            }
        }

        /// The linear build equals one `add` per leading slot, whatever the
        /// tree held before: a full slot per `per_slot` units, then the
        /// remainder.
        #[test]
        fn prefix_filled_build_equals_repeated_add(
            len in 0usize..600,
            per_slot in prop_oneof![Just(1usize), 1usize..600],
            fill_pct in 0usize..=100,
            before in 0usize..300,
        ) {
            let total = len * per_slot * fill_pct / 100;
            let mut expect = Fenwick::new(len);
            for i in 0..len {
                let units = total.saturating_sub(i * per_slot).min(per_slot);
                if units > 0 {
                    expect.add(i, units as u32);
                }
            }
            let mut built = Fenwick::new(before);
            built.add(before / 2, 1);
            built.reset_prefix_filled(len, total, per_slot);
            prop_assert_eq!(built, expect);
        }
    }
}
