//! Size-augmented **top-down** splay tree — the structure used by the
//! reference PARDA implementation.
//!
//! Sugumar & Abraham observed that self-adjusting trees perform well for
//! stack-distance processing because trace locality maps directly onto tree
//! locality: recently referenced timestamps sit near the root. Every node
//! maintains the size of its subtree, so the rank query of paper Algorithm 2
//! (count of timestamps greater than `t`) is answered along a single root-to-
//! node path.
//!
//! This is Sleator's sized top-down splay (the exact variant the original
//! PARDA C code ships): the search descent itself performs the
//! restructuring, linking left/right subtrees onto two accumulator spines
//! and fixing their sizes in one pass — no parent pointers, no second
//! bottom-up walk. `distance_and_remove` is therefore a genuinely fused
//! operation: rank lookup and deletion share one descent.
//!
//! Nodes live in an index-based arena (`Vec<Node>` + free list): no
//! per-node allocation, 32-bit links halve pointer traffic, and `clear`
//! reuses the buffer across analysis phases.

use crate::{ReuseTree, NIL};

#[derive(Clone, Debug)]
struct Node {
    ts: u64,
    addr: u64,
    left: u32,
    right: u32,
    /// Number of nodes in the subtree rooted here (including this node).
    size: u32,
}

/// Self-adjusting binary search tree keyed by timestamp with subtree sizes.
///
/// # Examples
///
/// ```
/// use parda_tree::{ReuseTree, SplayTree};
///
/// let mut tree = SplayTree::new();
/// for (ts, addr) in [(0, 100), (1, 200), (2, 300)] {
///     tree.insert(ts, addr);
/// }
/// // Two elements were accessed after time 0:
/// assert_eq!(tree.distance(0), 2);
/// assert_eq!(tree.oldest(), Some((0, 100)));
/// ```
#[derive(Clone, Debug)]
pub struct SplayTree {
    nodes: Vec<Node>,
    free: Vec<u32>,
    root: u32,
    len: usize,
}

impl Default for SplayTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SplayTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
        }
    }

    /// Create an empty tree with room for `capacity` nodes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: Vec::new(),
            root: NIL,
            len: 0,
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

    fn alloc(&mut self, ts: u64, addr: u64) -> u32 {
        let node = Node {
            ts,
            addr,
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

    /// Sized top-down splay of `ts` within the subtree rooted at `t`,
    /// returning the new subtree root (Sleator's `top-down-size-splay`).
    ///
    /// The descent hangs everything smaller than the search path onto the
    /// right spine of an accumulated *left* tree and everything larger onto
    /// the left spine of a *right* tree, counting linked nodes as it goes.
    /// Two short spine walks then repair the sizes, and the pivot — the node
    /// holding `ts`, or its in-order neighbour when `ts` is absent — becomes
    /// the root with correct sizes everywhere.
    fn splay_from(&mut self, mut t: u32, ts: u64) -> u32 {
        if t == NIL {
            return NIL;
        }
        // Tails (deepest linked node) and roots of the accumulated trees.
        let mut l = NIL;
        let mut r = NIL;
        let mut l_root = NIL;
        let mut r_root = NIL;
        let mut l_size: u32 = 0;
        let mut r_size: u32 = 0;
        loop {
            let t_ts = self.nodes[t as usize].ts;
            if ts < t_ts {
                let mut child = self.nodes[t as usize].left;
                if child == NIL {
                    break;
                }
                if ts < self.nodes[child as usize].ts {
                    // Zig-zig: rotate right at t before linking.
                    let inner = self.nodes[child as usize].right;
                    self.nodes[t as usize].left = inner;
                    self.nodes[child as usize].right = t;
                    let t_right = self.nodes[t as usize].right;
                    self.nodes[t as usize].size = 1 + self.size(inner) + self.size(t_right);
                    t = child;
                    child = self.nodes[t as usize].left;
                    if child == NIL {
                        break;
                    }
                }
                // Link right: t and its right subtree join the right tree.
                if r == NIL {
                    r_root = t;
                } else {
                    self.nodes[r as usize].left = t;
                }
                r = t;
                let t_right = self.nodes[t as usize].right;
                r_size += 1 + self.size(t_right);
                t = child;
            } else if ts > t_ts {
                let mut child = self.nodes[t as usize].right;
                if child == NIL {
                    break;
                }
                if ts > self.nodes[child as usize].ts {
                    // Zig-zig: rotate left at t before linking.
                    let inner = self.nodes[child as usize].left;
                    self.nodes[t as usize].right = inner;
                    self.nodes[child as usize].left = t;
                    let t_left = self.nodes[t as usize].left;
                    self.nodes[t as usize].size = 1 + self.size(t_left) + self.size(inner);
                    t = child;
                    child = self.nodes[t as usize].right;
                    if child == NIL {
                        break;
                    }
                }
                // Link left: t and its left subtree join the left tree.
                if l == NIL {
                    l_root = t;
                } else {
                    self.nodes[l as usize].right = t;
                }
                l = t;
                let t_left = self.nodes[t as usize].left;
                l_size += 1 + self.size(t_left);
                t = child;
            } else {
                break;
            }
        }
        // `t` is the pivot. Its remaining children complete the two trees.
        let t_left = self.nodes[t as usize].left;
        let t_right = self.nodes[t as usize].right;
        l_size += self.size(t_left);
        r_size += self.size(t_right);
        self.nodes[t as usize].size = 1 + l_size + r_size;
        // Truncate the spines so the fix-up walks terminate.
        if l != NIL {
            self.nodes[l as usize].right = NIL;
        }
        if r != NIL {
            self.nodes[r as usize].left = NIL;
        }
        // Repair sizes down the right spine of the left tree…
        let mut y = l_root;
        let mut remaining = l_size;
        while y != NIL {
            self.nodes[y as usize].size = remaining;
            let y_left = self.nodes[y as usize].left;
            remaining -= 1 + self.size(y_left);
            y = self.nodes[y as usize].right;
        }
        // …and the left spine of the right tree.
        let mut y = r_root;
        let mut remaining = r_size;
        while y != NIL {
            self.nodes[y as usize].size = remaining;
            let y_right = self.nodes[y as usize].right;
            remaining -= 1 + self.size(y_right);
            y = self.nodes[y as usize].left;
        }
        // Assemble: pivot's children are hung off the spine tails, the
        // accumulated trees become the pivot's children.
        if l != NIL {
            self.nodes[l as usize].right = t_left;
            self.nodes[t as usize].left = l_root;
        }
        if r != NIL {
            self.nodes[r as usize].left = t_right;
            self.nodes[t as usize].right = r_root;
        }
        t
    }

    /// Splay `ts` to the root of the whole tree.
    #[inline]
    fn splay(&mut self, ts: u64) {
        let root = self.root;
        self.root = self.splay_from(root, ts);
    }

    /// Remove the current root, joining its subtrees (splay-tree delete:
    /// splay the left subtree's maximum up, then adopt the right subtree).
    fn delete_root(&mut self) -> (u64, u64) {
        let old = self.root;
        debug_assert_ne!(old, NIL);
        let Node {
            ts,
            addr,
            left,
            right,
            ..
        } = self.nodes[old as usize];
        if left == NIL {
            self.root = right;
        } else {
            // `ts` exceeds every key in `left`, so this splays the maximum
            // of the left subtree to its root (right child becomes NIL).
            let join = self.splay_from(left, ts);
            debug_assert_eq!(self.nodes[join as usize].right, NIL);
            self.nodes[join as usize].right = right;
            let join_left = self.nodes[join as usize].left;
            self.nodes[join as usize].size = 1 + self.size(join_left) + self.size(right);
            self.root = join;
        }
        self.free.push(old);
        self.len -= 1;
        (ts, addr)
    }

    /// Build a perfectly balanced subtree over a sorted run, returning its
    /// root. Any BST shape answers rank queries identically — distances
    /// depend only on the key set — so the rebuild picks the shape that
    /// minimizes subsequent descent depth. Recursion depth is O(log n).
    fn build_balanced(&mut self, pairs: &[(u64, u64)]) -> u32 {
        if pairs.is_empty() {
            return NIL;
        }
        let mid = pairs.len() / 2;
        let idx = self.alloc(pairs[mid].0, pairs[mid].1);
        let left = self.build_balanced(&pairs[..mid]);
        let right = self.build_balanced(&pairs[mid + 1..]);
        let node = &mut self.nodes[idx as usize];
        node.left = left;
        node.right = right;
        node.size = pairs.len() as u32;
        idx
    }

    /// Structural self-check for tests: BST order and size augmentation.
    #[doc(hidden)]
    pub fn validate(&self) {
        fn walk(tree: &SplayTree, n: u32, lo: Option<u64>, hi: Option<u64>) -> u32 {
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
            let ls = walk(tree, node.left, lo, Some(node.ts));
            let rs = walk(tree, node.right, Some(node.ts), hi);
            assert_eq!(node.size, 1 + ls + rs, "size augmentation stale");
            node.size
        }
        let total = walk(self, self.root, None, None);
        assert_eq!(total as usize, self.len, "len out of sync");
    }
}

impl ReuseTree for SplayTree {
    fn insert(&mut self, timestamp: u64, addr: u64) {
        if self.root == NIL {
            self.root = self.alloc(timestamp, addr);
            self.len = 1;
            return;
        }
        // Splay the insertion point to the root, then split around it.
        self.splay(timestamp);
        let t = self.root;
        let t_ts = self.nodes[t as usize].ts;
        if t_ts == timestamp {
            panic!("duplicate timestamp {timestamp} inserted into SplayTree");
        }
        let new = self.alloc(timestamp, addr);
        if timestamp < t_ts {
            let t_left = self.nodes[t as usize].left;
            self.nodes[new as usize].left = t_left;
            self.nodes[new as usize].right = t;
            self.nodes[t as usize].left = NIL;
            let t_right = self.nodes[t as usize].right;
            self.nodes[t as usize].size = 1 + self.size(t_right);
        } else {
            let t_right = self.nodes[t as usize].right;
            self.nodes[new as usize].right = t_right;
            self.nodes[new as usize].left = t;
            self.nodes[t as usize].right = NIL;
            let t_left = self.nodes[t as usize].left;
            self.nodes[t as usize].size = 1 + self.size(t_left);
        }
        self.len += 1;
        self.nodes[new as usize].size = self.len as u32;
        self.root = new;
    }

    fn distance(&mut self, timestamp: u64) -> u64 {
        // Paper Algorithm 2 on the splayed tree: after the descent the root
        // is `timestamp` or its in-order neighbour, so the rank is the right
        // subtree plus the root itself when the root is newer.
        if self.root == NIL {
            return 0;
        }
        self.splay(timestamp);
        let node = &self.nodes[self.root as usize];
        let (root_ts, right) = (node.ts, node.right);
        let mut d = self.size(right) as u64;
        if root_ts > timestamp {
            d += 1;
        }
        d
    }

    fn remove(&mut self, timestamp: u64) -> Option<u64> {
        if self.root == NIL {
            return None;
        }
        self.splay(timestamp);
        if self.nodes[self.root as usize].ts != timestamp {
            return None;
        }
        let (_, addr) = self.delete_root();
        Some(addr)
    }

    fn distance_and_remove(&mut self, timestamp: u64) -> Option<u64> {
        // Fused hot-path op: the single splay descent both answers the rank
        // query (size of the right subtree once the node is at the root) and
        // positions the node for deletion.
        if self.root == NIL {
            return None;
        }
        self.splay(timestamp);
        if self.nodes[self.root as usize].ts != timestamp {
            return None;
        }
        let right = self.nodes[self.root as usize].right;
        let d = self.size(right) as u64;
        self.delete_root();
        Some(d)
    }

    fn oldest(&self) -> Option<(u64, u64)> {
        if self.root == NIL {
            return None;
        }
        let mut cur = self.root;
        while self.nodes[cur as usize].left != NIL {
            cur = self.nodes[cur as usize].left;
        }
        let node = &self.nodes[cur as usize];
        Some((node.ts, node.addr))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.root = NIL;
        self.len = 0;
    }

    fn reserve(&mut self, additional: usize) {
        self.nodes.reserve(additional);
    }

    fn rebuild_from_sorted(&mut self, pairs: &[(u64, u64)]) {
        self.nodes.clear();
        self.free.clear();
        self.nodes.reserve(pairs.len());
        self.root = self.build_balanced(pairs);
        self.len = pairs.len();
    }

    fn collect_in_order(&self, out: &mut Vec<(u64, u64)>) {
        // Iterative in-order traversal; recursion depth on a splay tree can
        // reach O(n) in adversarial shapes.
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur as usize].left;
            }
            let n = stack.pop().expect("stack non-empty");
            let node = &self.nodes[n as usize];
            out.push((node.ts, node.addr));
            cur = node.right;
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
        conformance::smoke(&mut SplayTree::new());
    }

    #[test]
    fn validates_after_mixed_workload() {
        let mut tree = SplayTree::new();
        for ts in 0..500u64 {
            tree.insert(ts, ts ^ 0xff);
            if ts % 3 == 0 && ts > 10 {
                tree.remove(ts - 7);
            }
            if ts % 97 == 0 {
                tree.validate();
            }
        }
        tree.validate();
    }

    #[test]
    fn figure1_distance_for_a_at_time_9() {
        // Paper Figure 1 / Table I: trace `d a c b c c g e f a`; at time 9
        // the tree holds {0:d, 1:a, 3:b, 5:c, 6:g, 7:e, 8:f} and the reuse
        // distance of the second `a` (previous access at ts 1) is 5.
        let mut tree = SplayTree::new();
        for (ts, addr) in [
            (0, b'd'),
            (1, b'a'),
            (3, b'b'),
            (5, b'c'),
            (6, b'g'),
            (7, b'e'),
            (8, b'f'),
        ] {
            tree.insert(ts, addr as u64);
        }
        assert_eq!(tree.distance(1), 5);

        // Processing the reference deletes ts 1 and re-inserts at ts 9,
        // yielding Figure 1(b)'s node set.
        assert_eq!(tree.remove(1), Some(b'a' as u64));
        tree.insert(9, b'a' as u64);
        tree.validate();
        let contents = tree.to_sorted_vec();
        assert_eq!(
            contents,
            vec![
                (0, b'd' as u64),
                (3, b'b' as u64),
                (5, b'c' as u64),
                (6, b'g' as u64),
                (7, b'e' as u64),
                (8, b'f' as u64),
                (9, b'a' as u64),
            ]
        );
    }

    #[test]
    fn splay_moves_accessed_node_to_root() {
        let mut tree = SplayTree::new();
        for ts in 0..64u64 {
            tree.insert(ts, ts);
        }
        tree.distance(13);
        assert_eq!(tree.nodes[tree.root as usize].ts, 13);
        tree.validate();
    }

    #[test]
    fn top_down_splay_of_absent_key_lands_on_neighbour() {
        let mut tree = SplayTree::new();
        for ts in (0..64u64).map(|t| t * 2) {
            tree.insert(ts, ts);
        }
        // Searching an absent key restructures toward its neighbourhood and
        // the rank query still counts strictly-greater keys.
        assert_eq!(tree.distance(13), 57);
        let root_ts = tree.nodes[tree.root as usize].ts;
        assert!(root_ts == 12 || root_ts == 14, "root ts {root_ts}");
        tree.validate();
    }

    #[test]
    fn fused_distance_and_remove_matches_two_step() {
        let mut fused = SplayTree::new();
        let mut twostep = SplayTree::new();
        for ts in 0..256u64 {
            fused.insert(ts, ts + 1000);
            twostep.insert(ts, ts + 1000);
        }
        for ts in (0..256u64).step_by(3) {
            let d = twostep.distance(ts);
            let addr = twostep.remove(ts);
            assert_eq!(fused.distance_and_remove(ts), addr.map(|_| d));
            fused.validate();
        }
        assert_eq!(fused.to_sorted_vec(), twostep.to_sorted_vec());
    }

    #[test]
    fn sequential_inserts_make_distance_zero_for_latest() {
        let mut tree = SplayTree::new();
        for ts in 0..1000u64 {
            tree.insert(ts, ts);
            assert_eq!(tree.distance(ts), 0);
        }
    }

    #[test]
    fn remove_missing_returns_none_and_keeps_state() {
        let mut tree = SplayTree::new();
        tree.insert(10, 1);
        tree.insert(20, 2);
        assert_eq!(tree.remove(15), None);
        assert_eq!(tree.len(), 2);
        tree.validate();
    }

    #[test]
    fn free_list_reuses_slots() {
        let mut tree = SplayTree::new();
        for ts in 0..100u64 {
            tree.insert(ts, ts);
        }
        for ts in 0..50u64 {
            tree.remove(ts);
        }
        let arena = tree.nodes.len();
        for ts in 100..150u64 {
            tree.insert(ts, ts);
        }
        assert_eq!(tree.nodes.len(), arena, "freed slots must be reused");
        tree.validate();
    }

    #[test]
    fn batch_smoke() {
        conformance::batch_smoke(&mut SplayTree::new());
    }

    #[test]
    fn dense_batch_rebuilds_balanced() {
        let mut tree = SplayTree::new();
        // Left-spine adversarial shape: descending inserts.
        for ts in (0..4096u64).rev() {
            tree.insert(ts, ts);
        }
        let delete: Vec<u64> = (0..4096u64).step_by(2).collect();
        let mut out = Vec::new();
        tree.rank_delete_batch(&delete, &mut out);
        assert_eq!(tree.len(), 2048);
        tree.validate();
        fn depth(t: &SplayTree, n: u32) -> u32 {
            if n == NIL {
                return 0;
            }
            1 + depth(t, t.nodes[n as usize].left).max(depth(t, t.nodes[n as usize].right))
        }
        assert!(depth(&tree, tree.root) <= 12, "rebuild must be balanced");
    }

    proptest! {
        #[test]
        fn conforms_to_model(ops in proptest::collection::vec(op_strategy(), 0..300)) {
            let mut tree = SplayTree::new();
            conformance::run_ops(&mut tree, ops);
            tree.validate();
        }

        #[test]
        fn batch_conforms_to_model(
            live in proptest::collection::vec((0u64..256, 0u64..1_000_000), 0..200),
            mask in proptest::collection::vec(any::<bool>(), 1..64),
        ) {
            let mut tree = SplayTree::new();
            conformance::run_batch(&mut tree, live, mask);
            tree.validate();
        }
    }
}
