//! Ordered search structures for reuse-distance analysis.
//!
//! The tree-based sequential algorithm (paper Section III-B, Olken 1981)
//! keeps one node per *currently live* data element, keyed by the timestamp
//! of its most recent access, with subtree sizes maintained at every node.
//! The reuse distance of a reference whose previous access happened at time
//! `t` is then the number of nodes with timestamp `> t` — an order-statistics
//! rank query (paper Algorithm 2).
//!
//! This crate provides the abstract interface ([`ReuseTree`]) plus four
//! interchangeable implementations:
//!
//! * [`SplayTree`] — the structure used by the original PARDA C code
//!   (following Sugumar & Abraham's observation that splay trees have
//!   excellent locality for stack-distance workloads);
//! * [`AvlTree`] — Olken's original balanced-tree formulation;
//! * [`Treap`] — a randomized alternative with priorities derived
//!   deterministically from the key hash;
//! * [`NaiveStack`] — the O(M)-per-access move-to-front list of the naïve
//!   algorithm (paper Section III-A), kept as the correctness baseline.
//!
//! All tree nodes store `(timestamp, addr)`; the address payload is needed by
//! the bounded algorithm's LRU eviction (paper Algorithm 7, `find_oldest`)
//! and by the windowed streamer, which appends each window's live state to
//! its history.

pub mod avl;
pub mod fenwick;
pub mod naive;
pub mod splay;
pub mod treap;
pub mod vector;

pub use avl::AvlTree;
pub use fenwick::Fenwick;
pub use naive::NaiveStack;
pub use splay::SplayTree;
pub use treap::Treap;
pub use vector::VectorTree;

/// Sentinel index for "no node" in the arena-based trees.
pub(crate) const NIL: u32 = u32::MAX;

/// The ordered-set interface required by the reuse-distance engines.
///
/// Keys are access timestamps. Every engine inserts them in increasing
/// order (forward analysis and the windowed streamer's history append);
/// the trait itself accepts any order. Each key carries the address
/// that was accessed at that time. A tree owns its state (`'static`), so
/// an engine can travel to a worker that outlives the call that made it.
pub trait ReuseTree: 'static {
    /// Insert a `(timestamp, addr)` pair. Timestamps must be unique;
    /// inserting a duplicate timestamp is a logic error and may panic.
    fn insert(&mut self, timestamp: u64, addr: u64);

    /// Number of live nodes with timestamp strictly greater than `timestamp`
    /// (paper Algorithm 2). The queried timestamp itself does not count.
    ///
    /// Takes `&mut self` because self-adjusting implementations (splay)
    /// restructure on access.
    fn distance(&mut self, timestamp: u64) -> u64;

    /// Remove the node with exactly `timestamp`, returning its address.
    fn remove(&mut self, timestamp: u64) -> Option<u64>;

    /// Fused hot-path operation: `distance(timestamp)` followed by
    /// `remove(timestamp)`. Returns the distance alone, or `None` if
    /// `timestamp` is not live.
    ///
    /// This is what Algorithm 1's body performs per hit; implementations can
    /// do it in a single descent. No caller needs the address (the engines'
    /// last-access table already knows it), so an implementation need not
    /// read the node that holds it: the vector tree only clears the node's
    /// occupancy bit.
    fn distance_and_remove(&mut self, timestamp: u64) -> Option<u64> {
        let d = self.distance(timestamp);
        self.remove(timestamp).map(|_| d)
    }

    /// The node with the smallest timestamp, as `(timestamp, addr)` — the
    /// LRU victim for bounded analysis (`find_oldest` in Algorithm 7).
    fn oldest(&self) -> Option<(u64, u64)>;

    /// Number of live nodes.
    fn len(&self) -> usize;

    /// `true` if the structure holds no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every node, retaining allocations.
    fn clear(&mut self);

    /// Pre-allocate room for at least `additional` further nodes. Purely an
    /// allocation hint (the engine passes its chunk length so arenas are
    /// sized once instead of reallocating mid-chunk); default is a no-op.
    fn reserve(&mut self, _additional: usize) {}

    /// Append all `(timestamp, addr)` pairs in increasing timestamp order.
    /// Used by the windowed streamer to append item state to its history.
    fn collect_in_order(&self, out: &mut Vec<(u64, u64)>);

    /// Bulk rank+delete sweep — the batched cascade's tree half.
    ///
    /// `sorted_ts` holds strictly increasing timestamps, every one of which
    /// must be live in the tree (a missing timestamp is a logic error and
    /// panics). For each `sorted_ts[j]`, pushes onto `out` the number of
    /// live nodes with timestamp strictly greater than `sorted_ts[j]` **as
    /// measured against the tree state at entry** (the *initial rank*), then
    /// removes all `sorted_ts` nodes. Exactly equivalent to — and the
    /// default is literally — a loop of [`Self::distance_and_remove`] in
    /// ascending timestamp order: removing a smaller timestamp never changes
    /// a strictly-greater count, so each fused result *is* the initial rank.
    ///
    /// Implementations switch to an O(live + k) path when `k` is a large
    /// fraction of the tree: one in-order walk pairs each deleted node with
    /// its rank (`live − 1 − position`), survivors are kept in order, and
    /// the tree is rebuilt via [`Self::rebuild_from_sorted`]. Ranks depend
    /// only on the key *set*, never on tree shape, so rebuilds are
    /// observationally transparent.
    fn rank_delete_batch(&mut self, sorted_ts: &[u64], out: &mut Vec<u64>) {
        let k = sorted_ts.len();
        if k == 0 {
            return;
        }
        // Sparse sweep: fused per-key descents, ascending.
        if k * 8 < self.len() {
            for &ts in sorted_ts {
                let d = self
                    .distance_and_remove(ts)
                    .expect("rank_delete_batch: timestamp not live in tree");
                out.push(d);
            }
            return;
        }
        // Dense sweep: one in-order pass plus a rebuild of the survivors.
        let live = self.len() as u64;
        let mut pairs = Vec::with_capacity(self.len());
        self.collect_in_order(&mut pairs);
        let mut cursor = 0usize;
        let mut survivors = Vec::with_capacity(self.len() - k);
        for (i, &(ts, addr)) in pairs.iter().enumerate() {
            if cursor < k && sorted_ts[cursor] == ts {
                // `live − 1 − i` nodes sit strictly after position i.
                out.push(live - 1 - i as u64);
                cursor += 1;
            } else {
                survivors.push((ts, addr));
            }
        }
        assert_eq!(
            cursor, k,
            "rank_delete_batch: timestamp not live in tree (matched {cursor} of {k})"
        );
        self.rebuild_from_sorted(&survivors);
    }

    /// Replace the tree's contents with `pairs` (strictly increasing
    /// timestamps). Implementations rebuild in O(n) from the sorted run;
    /// the default clears and re-inserts.
    fn rebuild_from_sorted(&mut self, pairs: &[(u64, u64)]) {
        self.clear();
        self.reserve(pairs.len());
        for &(ts, addr) in pairs {
            self.insert(ts, addr);
        }
    }

    /// Convenience wrapper around [`Self::collect_in_order`].
    fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
        let mut v = Vec::with_capacity(self.len());
        self.collect_in_order(&mut v);
        v
    }
}

/// Which tree implementation a generic engine should use. Handy for CLI
/// flags and the structure-ablation benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TreeKind {
    /// Self-adjusting splay tree (paper default).
    Splay,
    /// Height-balanced AVL tree (Olken 1981).
    Avl,
    /// Randomized treap with hash-derived priorities.
    Treap,
    /// Fenwick-backed time vector (Bennett & Kruskal 1975).
    Vector,
}

impl Default for TreeKind {
    /// The paper's default structure: the splay tree.
    fn default() -> Self {
        TreeKind::Splay
    }
}

impl TreeKind {
    /// All supported kinds, for sweeps.
    pub const ALL: [TreeKind; 4] = [
        TreeKind::Splay,
        TreeKind::Avl,
        TreeKind::Treap,
        TreeKind::Vector,
    ];

    /// Stable lowercase name (CLI/reporting).
    pub fn name(self) -> &'static str {
        match self {
            TreeKind::Splay => "splay",
            TreeKind::Avl => "avl",
            TreeKind::Treap => "treap",
            TreeKind::Vector => "vector",
        }
    }
}

impl std::str::FromStr for TreeKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "splay" => Ok(TreeKind::Splay),
            "avl" => Ok(TreeKind::Avl),
            "treap" => Ok(TreeKind::Treap),
            "vector" => Ok(TreeKind::Vector),
            other => Err(format!(
                "unknown tree kind `{other}` (expected splay|avl|treap|vector)"
            )),
        }
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! Shared black-box conformance suite run against every [`ReuseTree`].

    use super::ReuseTree;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Reference model: a sorted map from timestamp to address.
    #[derive(Default)]
    pub struct Model {
        map: BTreeMap<u64, u64>,
    }

    impl Model {
        pub fn insert(&mut self, ts: u64, addr: u64) {
            assert!(self.map.insert(ts, addr).is_none(), "duplicate ts {ts}");
        }

        pub fn distance(&self, ts: u64) -> u64 {
            self.map.range(ts + 1..).count() as u64
        }

        pub fn remove(&mut self, ts: u64) -> Option<u64> {
            self.map.remove(&ts)
        }

        pub fn oldest(&self) -> Option<(u64, u64)> {
            self.map.iter().next().map(|(&k, &v)| (k, v))
        }

        pub fn len(&self) -> usize {
            self.map.len()
        }

        pub fn sorted(&self) -> Vec<(u64, u64)> {
            self.map.iter().map(|(&k, &v)| (k, v)).collect()
        }
    }

    /// One random operation against both model and implementation.
    #[derive(Clone, Debug)]
    pub enum Op {
        Insert(u64, u64),
        Distance(u64),
        Remove(u64),
        DistanceAndRemove(u64),
        Oldest,
    }

    pub fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u64..128, any::<u64>()).prop_map(|(ts, a)| Op::Insert(ts, a)),
            (0u64..128).prop_map(Op::Distance),
            (0u64..128).prop_map(Op::Remove),
            (0u64..128).prop_map(Op::DistanceAndRemove),
            Just(Op::Oldest),
        ]
    }

    /// Drive an arbitrary op sequence, asserting agreement with the model.
    pub fn run_ops<T: ReuseTree>(tree: &mut T, ops: Vec<Op>) {
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Insert(ts, addr) => {
                    if model.map.contains_key(&ts) {
                        continue; // duplicate timestamps are excluded by contract
                    }
                    model.insert(ts, addr);
                    tree.insert(ts, addr);
                }
                Op::Distance(ts) => {
                    assert_eq!(tree.distance(ts), model.distance(ts), "distance({ts})");
                }
                Op::Remove(ts) => {
                    assert_eq!(tree.remove(ts), model.remove(ts), "remove({ts})");
                }
                Op::DistanceAndRemove(ts) => {
                    let expect = model.remove(ts).map(|_| model.distance(ts));
                    assert_eq!(
                        tree.distance_and_remove(ts),
                        expect,
                        "distance_and_remove({ts})"
                    );
                }
                Op::Oldest => {
                    assert_eq!(tree.oldest(), model.oldest(), "oldest");
                }
            }
            assert_eq!(tree.len(), model.len(), "len after op");
            assert_eq!(tree.to_sorted_vec(), model.sorted(), "in-order contents");
        }
    }

    /// Drive `rank_delete_batch` + `rebuild_from_sorted` against the model:
    /// insert `live` pairs, batch-delete the masked subset of timestamps
    /// (in ascending order, as the engine guarantees), and check the
    /// reported ranks are the *pre-batch* strictly-greater counts, the
    /// survivors are exact, and the structure still answers queries after
    /// a possible rebuild.
    pub fn run_batch<T: ReuseTree>(tree: &mut T, live: Vec<(u64, u64)>, mask: Vec<bool>) {
        let mut model = Model::default();
        for &(ts, addr) in &live {
            if model.map.contains_key(&ts) {
                continue;
            }
            model.insert(ts, addr);
            tree.insert(ts, addr);
        }
        let keys: Vec<u64> = model.map.keys().copied().collect();
        let sorted_ts: Vec<u64> = keys
            .iter()
            .zip(mask.iter().cycle())
            .filter(|&(_, &m)| m)
            .map(|(&ts, _)| ts)
            .collect();
        let expected: Vec<u64> = sorted_ts.iter().map(|&ts| model.distance(ts)).collect();
        let mut out = Vec::new();
        tree.rank_delete_batch(&sorted_ts, &mut out);
        assert_eq!(out, expected, "batch ranks must be pre-batch ranks");
        for &ts in &sorted_ts {
            model.remove(ts);
        }
        assert_eq!(tree.len(), model.len(), "len after batch");
        assert_eq!(
            tree.to_sorted_vec(),
            model.sorted(),
            "survivors after batch"
        );

        // The structure must remain fully functional after any rebuild.
        let next_ts = keys.last().map_or(0, |&t| t + 1);
        model.insert(next_ts, 4242);
        tree.insert(next_ts, 4242);
        for &ts in keys.iter().take(8) {
            assert_eq!(
                tree.distance(ts),
                model.distance(ts),
                "distance({ts}) after batch"
            );
        }
        assert_eq!(tree.oldest(), model.oldest(), "oldest after batch");
        assert_eq!(tree.to_sorted_vec(), model.sorted(), "contents after batch");
    }

    /// Deterministic batch smoke: exercises the sparse (fused-descent) path,
    /// the dense (merge + rebuild) path, and the empty batch.
    pub fn batch_smoke<T: ReuseTree>(tree: &mut T) {
        for ts in 0..200u64 {
            tree.insert(ts, ts * 3);
        }
        // Empty batch is a no-op.
        let mut out = Vec::new();
        tree.rank_delete_batch(&[], &mut out);
        assert!(out.is_empty());
        assert_eq!(tree.len(), 200);

        // Sparse path: 3 * 8 < 200.
        tree.rank_delete_batch(&[10, 100, 199], &mut out);
        assert_eq!(out, vec![189, 99, 0]);
        assert_eq!(tree.len(), 197);

        // Dense path: delete every other survivor (98 * 8 >= 197).
        let remaining: Vec<u64> = tree.to_sorted_vec().iter().map(|&(ts, _)| ts).collect();
        let half: Vec<u64> = remaining.iter().copied().step_by(2).collect();
        let mut model = Model::default();
        for &ts in &remaining {
            model.insert(ts, ts * 3);
        }
        let expected: Vec<u64> = half.iter().map(|&ts| model.distance(ts)).collect();
        out.clear();
        tree.rank_delete_batch(&half, &mut out);
        assert_eq!(out, expected);
        for &ts in &half {
            model.remove(ts);
        }
        assert_eq!(tree.to_sorted_vec(), model.sorted());

        // Still usable: insert past the end and query.
        tree.insert(500, 5000);
        assert_eq!(tree.distance(500), 0);
        assert_eq!(tree.oldest(), model.oldest());
    }

    /// Deterministic smoke sequence exercising all operations.
    pub fn smoke<T: ReuseTree>(tree: &mut T) {
        assert!(tree.is_empty());
        assert_eq!(tree.oldest(), None);
        assert_eq!(tree.remove(3), None);
        assert_eq!(tree.distance(0), 0);

        for ts in 0..100u64 {
            tree.insert(ts, ts * 10);
        }
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.distance(49), 50);
        assert_eq!(tree.distance(0), 99);
        assert_eq!(tree.distance(99), 0);
        assert_eq!(tree.oldest(), Some((0, 0)));

        assert_eq!(tree.remove(0), Some(0));
        assert_eq!(tree.oldest(), Some((1, 10)));
        assert_eq!(tree.distance_and_remove(50), Some(49));
        assert_eq!(tree.remove(50), None);
        assert_eq!(tree.distance(49), 49);
        assert_eq!(tree.len(), 98);

        // Re-insert in the middle (the contract allows any order).
        tree.insert(50, 777);
        assert_eq!(tree.distance(49), 50);
        assert_eq!(tree.remove(50), Some(777));

        tree.clear();
        assert!(tree.is_empty());
        tree.insert(5, 55);
        assert_eq!(tree.to_sorted_vec(), vec![(5, 55)]);
    }
}
