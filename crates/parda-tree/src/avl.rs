//! Size-augmented AVL tree — Olken's original balanced-tree formulation of
//! the stack-distance structure (LBL-12370, 1981).
//!
//! Strictly height-balanced, so `distance`, `insert` and `remove` are
//! worst-case O(log M) (the splay tree only achieves this amortized).
//! Kept alongside [`crate::SplayTree`] both as an ablation point (paper
//! Section VII surveys AVL- vs splay-based analyzers) and as an
//! independently-implemented cross-check in the test suite.

use crate::{sweep, ReuseTree, SearchTree, NIL};

#[derive(Clone, Debug)]
struct Node {
    ts: u64,
    left: u32,
    right: u32,
    height: u8,
    size: u32,
}

/// Height-balanced binary search tree keyed by timestamp with subtree sizes.
///
/// # Examples
///
/// ```
/// use parda_tree::{AvlTree, ReuseTree};
///
/// let mut tree = AvlTree::new();
/// for ts in 0..10 {
///     tree.append(ts);
/// }
/// assert_eq!(tree.distance(4), 5);
/// assert!(tree.remove(4));
/// assert_eq!(tree.distance(3), 5);
/// ```
#[derive(Clone, Debug)]
pub struct AvlTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
}

impl Default for AvlTree {
    fn default() -> Self {
        Self::new()
    }
}

impl AvlTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
        }
    }

    /// Create an empty tree with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            root: NIL,
        }
    }

    #[inline]
    fn height(&self, n: u32) -> u8 {
        if n == NIL {
            0
        } else {
            self.nodes[n as usize].height
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
        let height = 1 + self.height(l).max(self.height(r));
        let size = 1 + self.size(l) + self.size(r);
        let node = &mut self.nodes[n as usize];
        node.height = height;
        node.size = size;
    }

    #[inline]
    fn balance_factor(&self, n: u32) -> i32 {
        let node = &self.nodes[n as usize];
        self.height(node.left) as i32 - self.height(node.right) as i32
    }

    fn rotate_right(&mut self, n: u32) -> u32 {
        let l = self.nodes[n as usize].left;
        let lr = self.nodes[l as usize].right;
        self.nodes[n as usize].left = lr;
        self.nodes[l as usize].right = n;
        self.update(n);
        self.update(l);
        l
    }

    fn rotate_left(&mut self, n: u32) -> u32 {
        let r = self.nodes[n as usize].right;
        let rl = self.nodes[r as usize].left;
        self.nodes[n as usize].right = rl;
        self.nodes[r as usize].left = n;
        self.update(n);
        self.update(r);
        r
    }

    /// Restore the AVL invariant at `n`, returning the new subtree root.
    fn rebalance(&mut self, n: u32) -> u32 {
        self.update(n);
        let bf = self.balance_factor(n);
        if bf > 1 {
            if self.balance_factor(self.nodes[n as usize].left) < 0 {
                let l = self.nodes[n as usize].left;
                self.nodes[n as usize].left = self.rotate_left(l);
            }
            self.rotate_right(n)
        } else if bf < -1 {
            if self.balance_factor(self.nodes[n as usize].right) > 0 {
                let r = self.nodes[n as usize].right;
                self.nodes[n as usize].right = self.rotate_right(r);
            }
            self.rotate_left(n)
        } else {
            n
        }
    }

    fn alloc(&mut self, ts: u64) -> u32 {
        let node = Node {
            ts,
            left: NIL,
            right: NIL,
            height: 1,
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

    fn insert_at(&mut self, n: u32, ts: u64) -> u32 {
        if n == NIL {
            return self.alloc(ts);
        }
        match ts.cmp(&self.nodes[n as usize].ts) {
            std::cmp::Ordering::Less => {
                let child = self.insert_at(self.nodes[n as usize].left, ts);
                self.nodes[n as usize].left = child;
            }
            std::cmp::Ordering::Greater => {
                let child = self.insert_at(self.nodes[n as usize].right, ts);
                self.nodes[n as usize].right = child;
            }
            std::cmp::Ordering::Equal => {
                panic!("duplicate timestamp {ts} inserted into AvlTree");
            }
        }
        self.rebalance(n)
    }

    /// Detach the minimum node of the subtree at `n`; returns
    /// `(new_subtree_root, detached_index)`.
    fn take_min(&mut self, n: u32) -> (u32, u32) {
        if self.nodes[n as usize].left == NIL {
            return (self.nodes[n as usize].right, n);
        }
        let (new_left, min) = self.take_min(self.nodes[n as usize].left);
        self.nodes[n as usize].left = new_left;
        (self.rebalance(n), min)
    }

    /// Remove `ts` from the subtree at `n` while accumulating its rank
    /// (count of strictly-greater keys, paper Algorithm 2) into `rank` along
    /// the same descent — the fused `distance_and_remove` body. `remove`
    /// passes a scratch accumulator and discards it.
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
            }
            std::cmp::Ordering::Greater => {
                let child = self.remove_rank_at(self.nodes[n as usize].right, ts, rank, removed);
                self.nodes[n as usize].right = child;
            }
            std::cmp::Ordering::Equal => {
                let right = self.nodes[n as usize].right;
                *rank += self.size(right) as u64;
                *removed = true;
                let (left, right) = {
                    let node = &self.nodes[n as usize];
                    (node.left, node.right)
                };
                self.free.push(n);
                if left == NIL {
                    return right;
                }
                if right == NIL {
                    return left;
                }
                // Replace with the in-order successor.
                let (new_right, successor) = self.take_min(right);
                self.nodes[successor as usize].left = left;
                self.nodes[successor as usize].right = new_right;
                return self.rebalance(successor);
            }
        }
        self.rebalance(n)
    }

    /// Build a perfectly balanced subtree over a sorted run, returning its
    /// root and height. Mid-split yields sibling sizes differing by at most
    /// one, so sibling heights differ by at most one — the AVL invariant
    /// holds by construction. Recursion depth is O(log n).
    fn build_balanced(&mut self, keys: &[u64]) -> (u32, u8) {
        if keys.is_empty() {
            return (NIL, 0);
        }
        let mid = keys.len() / 2;
        let idx = self.alloc(keys[mid]);
        let (left, lh) = self.build_balanced(&keys[..mid]);
        let (right, rh) = self.build_balanced(&keys[mid + 1..]);
        let height = 1 + lh.max(rh);
        let node = &mut self.nodes[idx as usize];
        node.left = left;
        node.right = right;
        node.height = height;
        node.size = keys.len() as u32;
        (idx, height)
    }

    /// Structural self-check for tests: BST order, sizes, heights, balance.
    #[doc(hidden)]
    pub fn validate(&self) {
        fn walk(tree: &AvlTree, n: u32, lo: Option<u64>, hi: Option<u64>) -> (u32, u8) {
            if n == NIL {
                return (0, 0);
            }
            let node = &tree.nodes[n as usize];
            if let Some(lo) = lo {
                assert!(node.ts > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(node.ts < hi, "BST order violated");
            }
            let (ls, lh) = walk(tree, node.left, lo, Some(node.ts));
            let (rs, rh) = walk(tree, node.right, Some(node.ts), hi);
            assert_eq!(node.size, 1 + ls + rs, "size augmentation stale");
            assert_eq!(node.height, 1 + lh.max(rh), "height stale");
            assert!(
                (lh as i32 - rh as i32).abs() <= 1,
                "AVL balance violated at ts {}",
                node.ts
            );
            (node.size, node.height)
        }
        walk(self, self.root, None, None);
    }
}

impl ReuseTree for AvlTree {
    /// The key is the timestamp.
    fn append(&mut self, timestamp: u64) -> u64 {
        self.insert(timestamp);
        timestamp
    }

    fn distance(&mut self, timestamp: u64) -> u64 {
        // Paper Algorithm 2: every left turn contributes the right subtree
        // plus the node itself.
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
        // Fused: the rank accumulates along the removal descent itself, so
        // the hot path pays one root-to-node walk instead of two.
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

impl SearchTree for AvlTree {
    fn insert(&mut self, timestamp: u64) {
        self.root = self.insert_at(self.root, timestamp);
    }

    fn rebuild_from_sorted(&mut self, keys: &[u64]) {
        self.nodes.clear();
        self.free.clear();
        self.nodes.reserve(keys.len());
        let (root, _) = self.build_balanced(keys);
        self.root = root;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{self, keyed_op_strategy, op_strategy};
    use proptest::prelude::*;

    #[test]
    fn smoke() {
        conformance::smoke(&mut AvlTree::new());
        conformance::keyed_smoke(AvlTree::new());
    }

    #[test]
    fn stays_balanced_under_sequential_inserts() {
        let mut tree = AvlTree::new();
        for ts in 0..4096u64 {
            tree.insert(ts);
        }
        // A perfectly balanced tree of 4096 nodes has height 13; AVL
        // guarantees ≤ 1.44 log2(n) ≈ 17.
        assert!(
            tree.height(tree.root) <= 17,
            "height {}",
            tree.height(tree.root)
        );
        tree.validate();
    }

    #[test]
    fn validates_under_interleaved_deletes() {
        let mut tree = AvlTree::new();
        for ts in 0..2000u64 {
            tree.insert(ts);
            if ts % 2 == 1 {
                assert!(tree.remove(ts / 2));
            }
        }
        tree.validate();
        assert_eq!(tree.len(), 1000);
    }

    #[test]
    fn distance_counts_strictly_greater() {
        let mut tree = AvlTree::new();
        for ts in [10u64, 20, 30, 40, 50] {
            tree.insert(ts);
        }
        assert_eq!(tree.distance(30), 2);
        assert_eq!(tree.distance(25), 3, "absent key counts all greater keys");
        assert_eq!(tree.distance(50), 0);
        assert_eq!(tree.distance(5), 5);
        assert_eq!(tree.distance(55), 0);
    }

    #[test]
    fn remove_interior_node_with_two_children() {
        let mut tree = AvlTree::new();
        for ts in [50u64, 30, 70, 20, 40, 60, 80] {
            tree.insert(ts);
        }
        assert!(tree.remove(50));
        tree.validate();
        assert_eq!(tree.to_sorted_vec(), vec![20, 30, 40, 60, 70, 80]);
    }

    #[test]
    fn batch_smoke() {
        conformance::batch_smoke(&mut AvlTree::new());
    }

    proptest! {
        #[test]
        fn keyed_conforms_to_model(ops in proptest::collection::vec(keyed_op_strategy(), 0..300)) {
            conformance::run_keyed(AvlTree::new(), ops).validate();
        }

        #[test]
        fn conforms_to_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let mut tree = AvlTree::new();
            conformance::run_ops(&mut tree, ops);
            tree.validate();
        }

        #[test]
        fn batch_conforms_to_model(
            live in proptest::collection::vec((0u64..256, 0u64..1_000_000), 0..200),
            mask in proptest::collection::vec(any::<bool>(), 1..64),
        ) {
            let mut tree = AvlTree::new();
            conformance::run_batch(&mut tree, live, mask);
            tree.validate();
        }
    }
}
