//! Size-augmented treap with hash-derived priorities.
//!
//! A third, independently implemented order-statistics structure for the
//! D1 structure ablation. Priorities come from hashing the key
//! ([`parda_hash::fx_hash_u64`]), which makes the shape a deterministic
//! function of the key set — no RNG state to thread around, and identical
//! behaviour across runs and threads.

use crate::{sweep, ReuseTree, SearchTree, NIL};
use parda_hash::fx_hash_u64;

#[derive(Clone, Debug)]
struct Node {
    ts: u64,
    priority: u64,
    left: u32,
    right: u32,
    size: u32,
}

/// Randomized balanced search tree keyed by timestamp with subtree sizes.
///
/// # Examples
///
/// ```
/// use parda_tree::{ReuseTree, Treap};
///
/// let mut tree = Treap::new();
/// tree.append(1);
/// tree.append(2);
/// tree.append(3);
/// assert_eq!(tree.distance(1), 2);
/// assert_eq!(tree.to_sorted_vec(), vec![1, 2, 3]);
/// ```
#[derive(Clone, Debug)]
pub struct Treap {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
}

impl Default for Treap {
    fn default() -> Self {
        Self::new()
    }
}

impl Treap {
    /// Create an empty treap.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
        }
    }

    /// Create an empty treap with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            root: NIL,
        }
    }

    #[inline]
    fn size(&self, n: u32) -> u32 {
        if n == NIL {
            0
        } else {
            self.nodes[n as usize].size
        }
    }

    #[inline]
    fn update(&mut self, n: u32) {
        let (l, r) = {
            let node = &self.nodes[n as usize];
            (node.left, node.right)
        };
        self.nodes[n as usize].size = 1 + self.size(l) + self.size(r);
    }

    fn alloc(&mut self, ts: u64) -> u32 {
        let node = Node {
            ts,
            priority: fx_hash_u64(ts),
            left: NIL,
            right: NIL,
            size: 1,
        };
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Split subtree `n` into (< ts, ≥ ts).
    fn split(&mut self, n: u32, ts: u64) -> (u32, u32) {
        if n == NIL {
            return (NIL, NIL);
        }
        if self.nodes[n as usize].ts < ts {
            let right = self.nodes[n as usize].right;
            let (mid, hi) = self.split(right, ts);
            self.nodes[n as usize].right = mid;
            self.update(n);
            (n, hi)
        } else {
            let left = self.nodes[n as usize].left;
            let (lo, mid) = self.split(left, ts);
            self.nodes[n as usize].left = mid;
            self.update(n);
            (lo, n)
        }
    }

    /// Merge subtrees `a` (all keys smaller) and `b` (all keys larger).
    fn merge(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        if self.nodes[a as usize].priority >= self.nodes[b as usize].priority {
            let right = self.nodes[a as usize].right;
            let merged = self.merge(right, b);
            self.nodes[a as usize].right = merged;
            self.update(a);
            a
        } else {
            let left = self.nodes[b as usize].left;
            let merged = self.merge(a, left);
            self.nodes[b as usize].left = merged;
            self.update(b);
            b
        }
    }

    /// Remove `ts` from the subtree at `n` while accumulating its rank
    /// (count of strictly-greater keys) into `rank` along the same descent.
    /// At the found node the two children are merged in place — one descent
    /// plus one merge, instead of the find + split + split + merge dance.
    fn remove_rank_at(&mut self, n: u32, ts: u64, rank: &mut u64, removed: &mut bool) -> u32 {
        if n == NIL {
            return NIL;
        }
        match ts.cmp(&self.nodes[n as usize].ts) {
            std::cmp::Ordering::Less => {
                let right = self.nodes[n as usize].right;
                *rank += 1 + self.size(right) as u64;
                let child = self.remove_rank_at(self.nodes[n as usize].left, ts, rank, removed);
                self.nodes[n as usize].left = child;
                self.update(n);
                n
            }
            std::cmp::Ordering::Greater => {
                let child = self.remove_rank_at(self.nodes[n as usize].right, ts, rank, removed);
                self.nodes[n as usize].right = child;
                self.update(n);
                n
            }
            std::cmp::Ordering::Equal => {
                let (left, right) = {
                    let node = &self.nodes[n as usize];
                    (node.left, node.right)
                };
                *rank += self.size(right) as u64;
                *removed = true;
                self.free.push(n);
                self.merge(left, right)
            }
        }
    }

    fn find(&self, ts: u64) -> u32 {
        let mut cur = self.root;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            cur = match ts.cmp(&node.ts) {
                std::cmp::Ordering::Less => node.left,
                std::cmp::Ordering::Greater => node.right,
                std::cmp::Ordering::Equal => return cur,
            };
        }
        NIL
    }

    /// Recompute subtree sizes below `root` in one iterative post-order
    /// walk (treap depth is only *expected* logarithmic, so no recursion).
    fn fixup_sizes(&mut self, root: u32) {
        let mut stack = vec![(root, false)];
        while let Some((n, visited)) = stack.pop() {
            if n == NIL {
                continue;
            }
            if visited {
                let (l, r) = {
                    let node = &self.nodes[n as usize];
                    (node.left, node.right)
                };
                self.nodes[n as usize].size = 1 + self.size(l) + self.size(r);
            } else {
                stack.push((n, true));
                let node = &self.nodes[n as usize];
                stack.push((node.left, false));
                stack.push((node.right, false));
            }
        }
    }

    /// Structural self-check for tests: BST order, heap order, sizes.
    #[doc(hidden)]
    pub fn validate(&self) {
        fn walk(tree: &Treap, n: u32, lo: Option<u64>, hi: Option<u64>) -> u32 {
            if n == NIL {
                return 0;
            }
            let node = &tree.nodes[n as usize];
            if let Some(lo) = lo {
                assert!(node.ts > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(node.ts < hi, "BST order violated");
            }
            for child in [node.left, node.right] {
                if child != NIL {
                    assert!(
                        tree.nodes[child as usize].priority <= node.priority,
                        "heap order violated"
                    );
                }
            }
            let ls = walk(tree, node.left, lo, Some(node.ts));
            let rs = walk(tree, node.right, Some(node.ts), hi);
            assert_eq!(node.size, 1 + ls + rs, "size augmentation stale");
            node.size
        }
        walk(self, self.root, None, None);
    }
}

impl ReuseTree for Treap {
    /// The key is the timestamp.
    fn append(&mut self, timestamp: u64) -> u64 {
        self.insert(timestamp);
        timestamp
    }

    fn distance(&mut self, timestamp: u64) -> u64 {
        let mut cur = self.root;
        let mut d: u64 = 0;
        while cur != NIL {
            let node = &self.nodes[cur as usize];
            match timestamp.cmp(&node.ts) {
                std::cmp::Ordering::Greater => cur = node.right,
                std::cmp::Ordering::Less => {
                    d += 1 + self.size(node.right) as u64;
                    cur = node.left;
                }
                std::cmp::Ordering::Equal => {
                    return d + self.size(node.right) as u64;
                }
            }
        }
        d
    }

    fn remove(&mut self, timestamp: u64) -> bool {
        let mut removed = false;
        let mut rank = 0;
        self.root = self.remove_rank_at(self.root, timestamp, &mut rank, &mut removed);
        removed
    }

    fn distance_and_remove(&mut self, timestamp: u64) -> Option<u64> {
        // Fused: rank accumulates along the removal descent, one walk total.
        let mut removed = false;
        let mut rank = 0;
        self.root = self.remove_rank_at(self.root, timestamp, &mut rank, &mut removed);
        removed.then_some(rank)
    }

    fn distance_and_remove_each(&mut self, keys: &mut [u64]) {
        sweep::distance_and_remove_each(self, keys);
    }

    fn oldest(&self) -> Option<u64> {
        if self.root == NIL {
            return None;
        }
        let mut cur = self.root;
        while self.nodes[cur as usize].left != NIL {
            cur = self.nodes[cur as usize].left;
        }
        Some(self.nodes[cur as usize].ts)
    }

    fn len(&self) -> usize {
        self.size(self.root) as usize
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
    }

    fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    fn for_each_in_order(&self, mut visit: impl FnMut(u64)) {
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            let n = stack.pop().expect("stack non-empty");
            let node = &self.nodes[n as usize];
            visit(node.ts);
            cur = node.right;
        }
    }
}

impl SearchTree for Treap {
    fn insert(&mut self, timestamp: u64) {
        debug_assert_eq!(
            self.find(timestamp),
            NIL,
            "duplicate timestamp {timestamp} inserted into Treap"
        );
        let new = self.alloc(timestamp);
        let (lo, hi) = self.split(self.root, timestamp);
        let left = self.merge(lo, new);
        self.root = self.merge(left, hi);
    }

    /// O(n) cartesian build over the right spine. Keys arrive in increasing
    /// order, so each new node can only displace a suffix of the spine: pop
    /// while the spine top's priority is *strictly* smaller (on a tie the
    /// earlier — smaller-key — node stays above, matching `merge`'s `>=`
    /// preference for the left operand), hang the popped chain as the new
    /// node's left child, and attach. Priorities are a pure function of the
    /// key, so the rebuilt shape is identical to incremental insertion.
    fn rebuild_from_sorted(&mut self, keys: &[u64]) {
        self.nodes.clear();
        self.free.clear();
        self.nodes.reserve(keys.len());
        self.root = NIL;
        let mut spine: Vec<u32> = Vec::new();
        for &ts in keys {
            let new = self.alloc(ts);
            let p = self.nodes[new as usize].priority;
            let mut popped = NIL;
            while let Some(&top) = spine.last() {
                if self.nodes[top as usize].priority < p {
                    popped = top;
                    spine.pop();
                } else {
                    break;
                }
            }
            self.nodes[new as usize].left = popped;
            match spine.last() {
                Some(&top) => self.nodes[top as usize].right = new,
                None => self.root = new,
            }
            spine.push(new);
        }
        let root = self.root;
        self.fixup_sizes(root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{self, keyed_op_strategy, op_strategy};
    use proptest::prelude::*;

    #[test]
    fn smoke() {
        conformance::smoke(&mut Treap::new());
        conformance::keyed_smoke(Treap::new());
    }

    #[test]
    fn shape_is_deterministic_in_key_set() {
        let mut a = Treap::new();
        let mut b = Treap::new();
        for ts in 0..100u64 {
            a.insert(ts);
        }
        for ts in (0..100u64).rev() {
            b.insert(ts);
        }
        // Same key set via different insertion orders ⇒ same treap shape,
        // hence identical root.
        assert_eq!(a.nodes[a.root as usize].ts, b.nodes[b.root as usize].ts);
        assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
        a.validate();
        b.validate();
    }

    #[test]
    fn depth_is_logarithmic_in_expectation() {
        let mut tree = Treap::new();
        for ts in 0..8192u64 {
            tree.insert(ts);
        }
        fn depth(t: &Treap, n: u32) -> u32 {
            if n == NIL {
                return 0;
            }
            1 + depth(t, t.nodes[n as usize].left).max(depth(t, t.nodes[n as usize].right))
        }
        let d = depth(&tree, tree.root);
        // E[depth] ≈ 3 ln n ≈ 27 for n = 8192; 64 is a generous ceiling that
        // still rules out degenerate (linear) shapes.
        assert!(d < 64, "treap depth {d} looks degenerate");
        tree.validate();
    }

    #[test]
    fn remove_then_reinsert_round_trips() {
        let mut tree = Treap::new();
        for ts in 0..50u64 {
            tree.insert(ts);
        }
        for ts in 10..20u64 {
            assert!(tree.remove(ts));
        }
        for ts in 10..20u64 {
            tree.insert(ts);
        }
        assert_eq!(tree.len(), 50);
        assert_eq!(tree.distance(9), 40);
        tree.validate();
    }

    #[test]
    fn batch_smoke() {
        conformance::batch_smoke(&mut Treap::new());
    }

    #[test]
    fn dense_batch_rebuild_matches_incremental_shape() {
        let mut tree = Treap::new();
        for ts in 0..512u64 {
            tree.insert(ts);
        }
        // Keep every third key: dense path (341 * 8 ≥ 512) → cartesian
        // rebuild, whose shape must equal incremental insertion of the
        // survivors (priorities are a pure function of the key).
        let delete: Vec<u64> = (0..512u64).filter(|t| t % 3 != 0).collect();
        let mut out = Vec::new();
        sweep::rank_delete_batch(&mut tree, &delete, &mut out);
        tree.validate();

        let mut fresh = Treap::new();
        for ts in (0..512u64).filter(|t| t % 3 == 0) {
            fresh.insert(ts);
        }
        assert_eq!(
            tree.nodes[tree.root as usize].ts,
            fresh.nodes[fresh.root as usize].ts
        );
        assert_eq!(tree.to_sorted_vec(), fresh.to_sorted_vec());
    }

    proptest! {
        #[test]
        fn keyed_conforms_to_model(ops in proptest::collection::vec(keyed_op_strategy(), 0..300)) {
            conformance::run_keyed(Treap::new(), ops).validate();
        }

        #[test]
        fn conforms_to_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let mut tree = Treap::new();
            conformance::run_ops(&mut tree, ops);
            tree.validate();
        }

        #[test]
        fn batch_conforms_to_model(
            live in proptest::collection::vec((0u64..256, 0u64..1_000_000), 0..200),
            mask in proptest::collection::vec(any::<bool>(), 1..64),
        ) {
            let mut tree = Treap::new();
            conformance::run_batch(&mut tree, live, mask);
            tree.validate();
        }
    }
}
