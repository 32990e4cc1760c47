//! Ordered search structures for reuse-distance analysis.
//!
//! The tree-based sequential algorithm (paper Section III-B, Olken 1981)
//! keeps one node per *currently live* data element, keyed by the timestamp
//! of its most recent access, with subtree sizes maintained at every node.
//! The reuse distance of a reference whose previous access happened at time
//! `t` is then the number of nodes with timestamp `> t` — an order-statistics
//! rank query (paper Algorithm 2).
//!
//! This crate provides the abstract interface ([`ReuseTree`]) and four
//! interchangeable implementations of it ([`TreeKind`] names them):
//!
//! * [`VectorTree`] — the production structure: the CLI, the daemon and
//!   every windowed history run it. A Bennett–Kruskal time vector, an
//!   occupancy bitmap under a Fenwick tree of 512-slot block counts,
//!   keyed by axis position, so a hit needs no search;
//! * [`SplayTree`] — the structure used by the original PARDA C code
//!   (following Sugumar & Abraham's observation that splay trees have
//!   excellent locality for stack-distance workloads), the library
//!   default and the timestamp-keyed sequential oracle;
//! * [`AvlTree`] — Olken's original balanced-tree formulation;
//! * [`Treap`] — a randomized alternative with priorities derived
//!   deterministically from the key hash.
//!
//! Beside them, [`NaiveStack`] is the O(M)-per-access move-to-front list
//! of the naïve algorithm (paper Section III-A), kept as the correctness
//! baseline; it answers distances directly and is no [`ReuseTree`].
//!
//! Every structure stores keys only. A key is what [`ReuseTree::append`]
//! returned: the timestamp itself in the search trees, and an axis
//! position in the [`VectorTree`], which stores no timestamps at all. The
//! engines keep that key in their last-access table and hand it back on a
//! hit, a removal or an LRU eviction. No structure stores the address an
//! entry stands for: the engines' table maps addresses to keys, and where
//! a caller needs the address of a key — the bounded algorithm's LRU
//! eviction (paper Algorithm 7, `find_oldest`) and the windowed streamer's
//! export of each window's live addresses to its history — it reads it
//! from the chunk the engine analyzed, at the key's offset.

pub mod avl;
pub mod fenwick;
pub mod naive;
pub mod splay;
mod sweep;
pub mod treap;
pub mod vector;

pub use avl::AvlTree;
pub use fenwick::Fenwick;
pub use naive::NaiveStack;
pub use splay::SplayTree;
pub use treap::Treap;
pub use vector::{Relabel, VectorTree};

/// Sentinel index for "no node" in the arena-based trees.
pub(crate) const NIL: u32 = u32::MAX;

/// The ordered-set interface required by the reuse-distance engines.
///
/// Entries are appended in access order, each newer than every entry
/// already live, and each append returns the *key* its caller stores (the
/// engines keep it as `H(z)`). Keys order entries by recency. A search
/// tree's key is the entry's timestamp; the [`VectorTree`]'s is its position
/// on the time axis, which a compaction can move: [`ReuseTree::make_room`]
/// then hands back the [`Relabel`] that the caller applies to every key it
/// holds. A tree owns its state (`'static`), so an engine can travel to a
/// worker that outlives the call that made it.
pub trait ReuseTree: 'static {
    /// Append an entry for an access at `timestamp`, newer than every live
    /// entry, and return its key. The structure must have room for it: call
    /// [`ReuseTree::make_room`] first.
    fn append(&mut self, timestamp: u64) -> u64;

    /// The key the next append, of an access at `timestamp`, will return.
    /// After [`ReuseTree::make_room`]`(n)`, appends of consecutive timestamps
    /// return consecutive keys, so a batch knows its keys before it appends.
    /// The default suits a tree keyed by timestamp.
    fn next_key(&self, timestamp: u64) -> u64 {
        timestamp
    }

    /// Make room for `appends` further appends. A structure that has to
    /// move live keys to do so returns how it moved them, and the caller
    /// must map every key it holds through the [`Relabel`] before it uses
    /// one again, dropping the keys it reports dead. After
    /// `make_room(n)` on an empty structure, `n` appends never move a key.
    /// The search trees never move a key.
    fn make_room(&mut self, appends: usize) -> Option<&Relabel> {
        let _ = appends;
        None
    }

    /// Number of live entries newer than `key` (paper Algorithm 2). The
    /// entry at `key` itself does not count.
    ///
    /// Takes `&mut self` because self-adjusting implementations (splay)
    /// restructure on access.
    fn distance(&mut self, key: u64) -> u64;

    /// Remove the entry at `key`; `false` if no entry at `key` is live.
    fn remove(&mut self, key: u64) -> bool;

    /// Fused hot-path operation: `distance(key)` followed by `remove(key)`.
    /// Returns the distance alone, or `None` if `key` is not live.
    ///
    /// This is what Algorithm 1's body performs per hit; implementations can
    /// do it in a single descent. The vector tree only clears the entry's
    /// occupancy bit.
    fn distance_and_remove(&mut self, key: u64) -> Option<u64> {
        let d = self.distance(key);
        self.remove(key).then_some(d)
    }

    /// [`ReuseTree::distance_and_remove`] of each of `keys` in turn,
    /// replacing each key with its distance — the batched cascade absorb's
    /// tree half. Every key must be live (a missing key is a logic error
    /// and panics). The default is that loop, in stream order; the search
    /// trees sort the batch and sweep it instead.
    fn distance_and_remove_each(&mut self, keys: &mut [u64]) {
        for key in keys {
            *key = self
                .distance_and_remove(*key)
                .expect("distance_and_remove_each: key not live");
        }
    }

    /// The key of the oldest live entry — the LRU victim for bounded
    /// analysis (`find_oldest` in Algorithm 7).
    fn oldest(&self) -> Option<u64>;

    /// Number of live entries.
    fn len(&self) -> usize;

    /// `true` if the structure holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove every entry, retaining allocations.
    fn clear(&mut self);

    /// Pre-allocate room for at least `additional` further entries. Purely
    /// an allocation hint (the engine passes its chunk length so arenas are
    /// sized once instead of reallocating mid-chunk); default is a no-op.
    fn reserve(&mut self, _additional: usize) {}

    /// Visit every live key, oldest first. The windowed streamer exports
    /// an item's live addresses to its history this way, reading each
    /// key's address from the item's chunk.
    fn for_each_in_order(&self, visit: impl FnMut(u64));

    /// Every live key, oldest first.
    fn to_sorted_vec(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.len());
        self.for_each_in_order(|key| v.push(key));
        v
    }
}

/// A search tree keyed by timestamp (splay, AVL, treap). Its keys never
/// move, so it can take an entry at any timestamp and rebuild itself from
/// a sorted run, which the batched absorb's dense sweep does
/// ([`sweep`]).
pub(crate) trait SearchTree: ReuseTree {
    /// Insert `timestamp` anywhere in timestamp order. Timestamps must be
    /// unique; a duplicate is a logic error and may panic.
    fn insert(&mut self, timestamp: u64);

    /// Replace the contents with `keys` (strictly increasing timestamps)
    /// in O(n).
    fn rebuild_from_sorted(&mut self, keys: &[u64]);
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
    //! Shared black-box conformance suites: the keyed one runs against
    //! every [`ReuseTree`], the timestamp-keyed one against the search
    //! trees. The trees store keys only; each suite reads a live key's
    //! address from the trace it appended, as the engines read it from
    //! their chunk, and compares `(key, addr)` pairs with the model's.

    use super::{sweep, ReuseTree, SearchTree};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Reference model: a sorted map from live timestamp to the address
    /// the trace holds there.
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

        /// Timestamp keys paired with the address the trace holds at each:
        /// a search tree's contents as the engines read them.
        pub fn read(&self, keys: &[u64]) -> Vec<(u64, u64)> {
            keys.iter()
                .map(|&ts| (ts, *self.map.get(&ts).unwrap_or(&u64::MAX)))
                .collect()
        }

        /// The live timestamp `pick` lands on, if any entry is live.
        fn pick(&self, pick: usize) -> Option<u64> {
            let n = self.map.len();
            (n > 0).then(|| *self.map.keys().nth(pick % n).expect("in range"))
        }
    }

    /// A tree driven the way the engines drive it: appends of increasing
    /// timestamps, each key kept beside its timestamp (the engines' `H`)
    /// and relabelled whenever [`ReuseTree::make_room`] moves keys.
    pub struct Keyed<T: ReuseTree> {
        pub tree: T,
        pub model: Model,
        /// Timestamp → the key the tree gave it.
        keys: BTreeMap<u64, u64>,
        next_ts: u64,
    }

    impl<T: ReuseTree> Keyed<T> {
        pub fn new(tree: T) -> Self {
            Self {
                tree,
                model: Model::default(),
                keys: BTreeMap::new(),
                next_ts: 0,
            }
        }

        /// The key of live timestamp `ts`.
        pub fn key(&self, ts: u64) -> u64 {
            self.keys[&ts]
        }

        /// Make room for `n` appends, relabelling the kept keys. Every kept
        /// key is live, so none may come back dead.
        pub fn make_room(&mut self, n: usize) {
            if let Some(relabel) = self.tree.make_room(n) {
                for key in self.keys.values_mut() {
                    *key = relabel.apply(*key).expect("a live key stays live");
                }
            }
        }

        /// Append `addr` at the next timestamp plus `gap`, returning the
        /// timestamp.
        pub fn append(&mut self, gap: u64, addr: u64) -> u64 {
            self.make_room(1);
            let ts = self.next_ts + gap;
            let expect = self.tree.next_key(ts);
            let key = self.tree.append(ts);
            assert_eq!(
                key, expect,
                "append({ts}) returned another key than next_key"
            );
            self.keys.insert(ts, key);
            self.model.insert(ts, addr);
            self.next_ts = ts + 1;
            ts
        }

        pub fn distance_and_remove(&mut self, ts: u64) -> Option<u64> {
            let key = self.keys.remove(&ts)?;
            let expect = self.model.remove(ts).map(|_| self.model.distance(ts));
            let d = self.tree.distance_and_remove(key);
            assert_eq!(d, expect, "distance_and_remove of ts {ts}");
            assert!(!self.tree.remove(key), "a removed key is gone");
            d
        }

        /// Live keys paired with the address the trace holds at each one's
        /// timestamp (`u64::MAX` for a key the harness never handed out).
        pub fn read(&self, keys: &[u64]) -> Vec<(u64, u64)> {
            let ts_of: BTreeMap<u64, u64> = self.keys.iter().map(|(&ts, &k)| (k, ts)).collect();
            keys.iter()
                .map(|key| {
                    let addr = ts_of.get(key).and_then(|ts| self.model.map.get(ts));
                    (*key, *addr.unwrap_or(&u64::MAX))
                })
                .collect()
        }

        /// Every check that reads the whole state.
        pub fn check(&self) {
            assert_eq!(self.tree.len(), self.model.len(), "len");
            let contents: Vec<(u64, u64)> = self
                .model
                .sorted()
                .into_iter()
                .map(|(ts, addr)| (self.key(ts), addr))
                .collect();
            assert_eq!(
                self.read(&self.tree.to_sorted_vec()),
                contents,
                "in-order contents"
            );
            let oldest: Vec<u64> = self.tree.oldest().into_iter().collect();
            assert_eq!(
                self.read(&oldest).first().copied(),
                contents.first().copied(),
                "oldest"
            );
        }
    }

    /// One step of the keyed proptest. `pick` names a live entry by its
    /// index modulo the live count.
    #[derive(Clone, Debug)]
    pub enum KeyedOp {
        /// Append `gap` timestamps past the next one.
        Append {
            gap: u64,
        },
        MakeRoom(usize),
        Distance(usize),
        Remove(usize),
        DistanceAndRemove(usize),
        /// `distance_and_remove_each` over distinct live entries, in the
        /// order picked.
        Each(Vec<usize>),
        Oldest,
    }

    pub fn keyed_op_strategy() -> impl Strategy<Value = KeyedOp> {
        let append = || {
            (0u64..8).prop_map(|g| KeyedOp::Append {
                gap: g.saturating_sub(5),
            })
        };
        prop_oneof![
            append(),
            append(),
            append(),
            (0usize..200).prop_map(KeyedOp::MakeRoom),
            any::<usize>().prop_map(KeyedOp::Distance),
            any::<usize>().prop_map(KeyedOp::Remove),
            any::<usize>().prop_map(KeyedOp::DistanceAndRemove),
            proptest::collection::vec(any::<usize>(), 0..24).prop_map(KeyedOp::Each),
            Just(KeyedOp::Oldest),
        ]
    }

    /// Drive a keyed op sequence, checking every step against the model.
    pub fn run_keyed<T: ReuseTree>(tree: T, ops: Vec<KeyedOp>) -> T {
        let mut k = Keyed::new(tree);
        for op in ops {
            match op {
                KeyedOp::Append { gap } => {
                    let addr = k.next_ts.wrapping_mul(0x9e37_79b9) ^ u64::MAX;
                    k.append(gap, addr);
                }
                KeyedOp::MakeRoom(n) => k.make_room(n),
                KeyedOp::Distance(pick) => {
                    if let Some(ts) = k.model.pick(pick) {
                        let key = k.key(ts);
                        assert_eq!(k.tree.distance(key), k.model.distance(ts), "distance");
                    }
                }
                KeyedOp::Remove(pick) => {
                    if let Some(ts) = k.model.pick(pick) {
                        let key = k.keys.remove(&ts).expect("live");
                        assert_eq!(k.tree.remove(key), k.model.remove(ts).is_some(), "remove");
                        assert!(!k.tree.remove(key), "remove twice");
                    }
                }
                KeyedOp::DistanceAndRemove(pick) => {
                    if let Some(ts) = k.model.pick(pick) {
                        k.distance_and_remove(ts);
                    }
                }
                KeyedOp::Each(picks) => {
                    let mut batch: Vec<u64> = Vec::new();
                    for pick in picks {
                        let Some(ts) = k.model.pick(pick) else { break };
                        if !batch.contains(&ts) {
                            batch.push(ts);
                        }
                    }
                    let expect: Vec<u64> = batch
                        .iter()
                        .map(|&ts| {
                            k.model.remove(ts);
                            k.model.distance(ts)
                        })
                        .collect();
                    let mut keys: Vec<u64> = batch
                        .iter()
                        .map(|ts| k.keys.remove(ts).expect("live"))
                        .collect();
                    k.tree.distance_and_remove_each(&mut keys);
                    assert_eq!(keys, expect, "distance_and_remove_each in stream order");
                }
                KeyedOp::Oldest => {}
            }
            k.check();
        }
        k.tree
    }

    /// Deterministic keyed smoke sequence exercising every operation the
    /// engines use.
    pub fn keyed_smoke<T: ReuseTree>(tree: T) {
        let mut k = Keyed::new(tree);
        assert!(k.tree.is_empty());
        assert_eq!(k.tree.oldest(), None);
        for ts in 0..100u64 {
            k.append(0, ts * 10);
        }
        k.check();
        assert_eq!(k.tree.distance(k.key(49)), 50);
        assert_eq!(k.tree.distance(k.key(0)), 99);
        assert_eq!(k.tree.distance(k.key(99)), 0);
        assert_eq!(k.read(&[k.tree.oldest().unwrap()]), vec![(k.key(0), 0)]);
        assert!(k.tree.remove(k.key(0)));
        k.keys.remove(&0);
        k.model.remove(0);
        k.check();
        assert_eq!(k.distance_and_remove(50), Some(49));
        assert_eq!(k.distance_and_remove(1), Some(97));
        // Enough appends past a gap to force a compaction that moves keys.
        for _ in 0..300 {
            k.append(3, 7);
            let oldest = k.model.oldest().expect("live").0;
            k.distance_and_remove(oldest);
        }
        k.check();
        k.tree.clear();
        assert!(k.tree.is_empty());
        assert!(k.tree.make_room(1).is_none(), "a cleared tree has room");
        let key = k.tree.append(5);
        assert_eq!(k.tree.to_sorted_vec(), vec![key]);
    }

    /// One random operation of the timestamp-keyed suite.
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

    /// Drive an arbitrary op sequence, inserts at any timestamp and queries
    /// at absent ones included, asserting agreement with the model.
    pub fn run_ops<T: SearchTree>(tree: &mut T, ops: Vec<Op>) {
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Insert(ts, addr) => {
                    if model.map.contains_key(&ts) {
                        continue; // duplicate timestamps are excluded by contract
                    }
                    model.insert(ts, addr);
                    tree.insert(ts);
                }
                Op::Distance(ts) => {
                    assert_eq!(tree.distance(ts), model.distance(ts), "distance({ts})");
                }
                Op::Remove(ts) => {
                    assert_eq!(tree.remove(ts), model.remove(ts).is_some(), "remove({ts})");
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
                    let oldest: Vec<u64> = tree.oldest().into_iter().collect();
                    assert_eq!(
                        model.read(&oldest).first().copied(),
                        model.oldest(),
                        "oldest"
                    );
                }
            }
            assert_eq!(tree.len(), model.len(), "len after op");
            assert_eq!(
                model.read(&tree.to_sorted_vec()),
                model.sorted(),
                "in-order contents"
            );
        }
    }

    /// Drive the sorted sweep ([`sweep::rank_delete_batch`]) and
    /// `rebuild_from_sorted` against the model: insert `live` pairs,
    /// batch-delete the masked subset of timestamps (in ascending order),
    /// and check the reported ranks are the *pre-batch* strictly-greater
    /// counts, the survivors are exact, and the structure still answers
    /// queries after a possible rebuild.
    pub fn run_batch<T: SearchTree>(tree: &mut T, live: Vec<(u64, u64)>, mask: Vec<bool>) {
        let mut model = Model::default();
        for &(ts, addr) in &live {
            if model.map.contains_key(&ts) {
                continue;
            }
            model.insert(ts, addr);
            tree.insert(ts);
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
        sweep::rank_delete_batch(tree, &sorted_ts, &mut out);
        assert_eq!(out, expected, "batch ranks must be pre-batch ranks");
        for &ts in &sorted_ts {
            model.remove(ts);
        }
        assert_eq!(tree.len(), model.len(), "len after batch");
        assert_eq!(
            model.read(&tree.to_sorted_vec()),
            model.sorted(),
            "survivors after batch"
        );

        // The structure must remain fully functional after any rebuild.
        let next_ts = keys.last().map_or(0, |&t| t + 1);
        model.insert(next_ts, 4242);
        tree.insert(next_ts);
        for &ts in keys.iter().take(8) {
            assert_eq!(
                tree.distance(ts),
                model.distance(ts),
                "distance({ts}) after batch"
            );
        }
        assert_eq!(
            tree.oldest(),
            model.oldest().map(|(ts, _)| ts),
            "oldest after batch"
        );
        assert_eq!(
            model.read(&tree.to_sorted_vec()),
            model.sorted(),
            "contents after batch"
        );
    }

    /// Deterministic batch smoke: exercises the sparse (fused-descent) path,
    /// the dense (merge + rebuild) path, and the empty batch.
    pub fn batch_smoke<T: SearchTree>(tree: &mut T) {
        for ts in 0..200u64 {
            tree.insert(ts);
        }
        // Empty batch is a no-op.
        let mut out = Vec::new();
        sweep::rank_delete_batch(tree, &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(tree.len(), 200);

        // Sparse path: 3 * 8 < 200.
        sweep::rank_delete_batch(tree, &[10, 100, 199], &mut out);
        assert_eq!(out, vec![189, 99, 0]);
        assert_eq!(tree.len(), 197);

        // Dense path: delete every other survivor (98 * 8 >= 197).
        let remaining: Vec<u64> = tree.to_sorted_vec();
        let half: Vec<u64> = remaining.iter().copied().step_by(2).collect();
        let mut model = Model::default();
        for &ts in &remaining {
            model.insert(ts, ts * 3);
        }
        let expected: Vec<u64> = half.iter().map(|&ts| model.distance(ts)).collect();
        out.clear();
        sweep::rank_delete_batch(tree, &half, &mut out);
        assert_eq!(out, expected);
        for &ts in &half {
            model.remove(ts);
        }
        assert_eq!(model.read(&tree.to_sorted_vec()), model.sorted());

        // Still usable: insert past the end and query.
        tree.insert(500);
        assert_eq!(tree.distance(500), 0);
        assert_eq!(tree.oldest(), model.oldest().map(|(ts, _)| ts));
    }

    /// Deterministic smoke sequence exercising all operations, inserts in
    /// the middle and queries at absent timestamps included. The trace
    /// holds address `ts * 10` at timestamp `ts`.
    pub fn smoke<T: SearchTree>(tree: &mut T) {
        let addr = |ts: u64| ts * 10;
        assert!(tree.is_empty());
        assert_eq!(tree.oldest(), None);
        assert!(!tree.remove(3));
        assert_eq!(tree.distance(0), 0);

        for ts in 0..100u64 {
            tree.insert(ts);
        }
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.distance(49), 50);
        assert_eq!(tree.distance(0), 99);
        assert_eq!(tree.distance(99), 0);
        assert_eq!(tree.oldest().map(|ts| (ts, addr(ts))), Some((0, 0)));

        assert!(tree.remove(0));
        assert_eq!(tree.oldest().map(|ts| (ts, addr(ts))), Some((1, 10)));
        assert_eq!(tree.distance_and_remove(50), Some(49));
        assert!(!tree.remove(50));
        assert_eq!(tree.distance(49), 49);
        assert_eq!(tree.len(), 98);

        // Re-insert in the middle (a search tree takes any order).
        tree.insert(50);
        assert_eq!(tree.distance(49), 50);
        assert!(tree.remove(50));

        tree.clear();
        assert!(tree.is_empty());
        tree.insert(5);
        assert_eq!(tree.to_sorted_vec(), vec![5]);
    }
}
