//! Large randomized torture runs over every ordered structure: all four
//! `ReuseTree` implementations driven through hundreds of thousands of
//! mixed operations must agree with each other at every checkpoint.
//!
//! The trees are driven as the engines drive them. Each append returns a
//! key: the search trees' is the timestamp, the vector's an axis position,
//! which this harness keeps beside the timestamp and relabels whenever
//! `make_room` compacts the vector's axis. Timestamps come in stretches:
//! consecutive ones alternate with gapped ones, which the search trees see
//! and the vector ignores. The trees store keys only; the harness keeps
//! the trace (the address appended at each timestamp) and reads each live
//! key's address from it, as the engines read it from their chunk.

use parda::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The four trees, the vector's key for each live timestamp, and the
/// trace.
#[derive(Default)]
struct Trees {
    splay: SplayTree,
    avl: AvlTree,
    treap: Treap,
    vector: VectorTree,
    /// Timestamp → the vector's key for it.
    keys: HashMap<u64, u64>,
    /// Timestamp → the address appended there.
    trace: HashMap<u64, u64>,
}

impl Trees {
    fn append(&mut self, ts: u64, addr: u64) {
        assert!(
            self.splay.make_room(1).is_none(),
            "search trees never move keys"
        );
        if let Some(relabel) = self.vector.make_room(1) {
            for key in self.keys.values_mut() {
                *key = relabel.apply(*key).expect("a kept key is live");
            }
        }
        assert_eq!(self.splay.append(ts), ts);
        assert_eq!(self.avl.append(ts), ts);
        assert_eq!(self.treap.append(ts), ts);
        let key = self.vector.append(ts);
        self.keys.insert(ts, key);
        self.trace.insert(ts, addr);
    }

    /// Remove live `ts` from every tree, returning its address.
    fn remove(&mut self, ts: u64) -> u64 {
        assert!(self.splay.remove(ts), "live");
        assert!(self.avl.remove(ts));
        assert!(self.treap.remove(ts));
        let key = self.keys.remove(&ts).expect("live");
        assert!(self.vector.remove(key));
        assert!(!self.vector.remove(key), "removed twice");
        self.trace[&ts]
    }

    /// The engines' fused hit on live `ts`.
    fn distance_and_remove(&mut self, ts: u64, at: &str) -> u64 {
        let d = self.splay.distance_and_remove(ts);
        assert!(d.is_some(), "{at}");
        assert_eq!(self.avl.distance_and_remove(ts), d, "{at}");
        assert_eq!(self.treap.distance_and_remove(ts), d, "{at}");
        let key = self.keys.remove(&ts).expect("live");
        assert_eq!(self.vector.distance_and_remove(key), d, "{at}");
        d.expect("live")
    }

    /// The batched absorb's tree half over live `batch`, in stream order:
    /// the search trees' sorted sweep against the vector's stream loop.
    fn distance_and_remove_each(&mut self, batch: &[u64], at: &str) {
        let mut expect = batch.to_vec();
        self.splay.distance_and_remove_each(&mut expect);
        let mut avl = batch.to_vec();
        self.avl.distance_and_remove_each(&mut avl);
        assert_eq!(avl, expect, "{at}");
        let mut treap = batch.to_vec();
        self.treap.distance_and_remove_each(&mut treap);
        assert_eq!(treap, expect, "{at}");
        let mut vector: Vec<u64> = batch
            .iter()
            .map(|ts| self.keys.remove(ts).expect("live"))
            .collect();
        self.vector.distance_and_remove_each(&mut vector);
        assert_eq!(vector, expect, "{at}");
    }

    fn check(&self) {
        // Each tree's live keys, each with the address read from the trace
        // at its timestamp.
        let read = |keys: Vec<u64>, ts_of: &dyn Fn(u64) -> Option<u64>| -> Vec<(u64, u64)> {
            keys.into_iter()
                .map(|key| (key, ts_of(key).map_or(u64::MAX, |ts| self.trace[&ts])))
                .collect()
        };
        let contents = read(self.splay.to_sorted_vec(), &Some);
        assert_eq!(read(self.avl.to_sorted_vec(), &Some), contents);
        assert_eq!(read(self.treap.to_sorted_vec(), &Some), contents);
        let keyed: Vec<(u64, u64)> = contents
            .iter()
            .map(|&(ts, addr)| (self.keys[&ts], addr))
            .collect();
        let ts_of: HashMap<u64, u64> = self.keys.iter().map(|(&ts, &key)| (key, ts)).collect();
        let vector = read(self.vector.to_sorted_vec(), &|key| ts_of.get(&key).copied());
        assert_eq!(vector, keyed);
        self.splay.validate();
        self.avl.validate();
        self.treap.validate();
        self.vector.validate();
    }
}

/// Drive all four trees through an identical op stream; cross-check state
/// at checkpoints.
fn torture(seed: u64, ops: usize) {
    let mut t = Trees::default();
    let mut live: Vec<u64> = Vec::new(); // timestamps currently present
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_ts = 0u64;

    for step in 0..ops {
        let consecutive = (step / 10_000) % 2 == 0;
        let roll = rng.gen_range(0..100);
        if roll < 52 || live.is_empty() {
            // Append a fresh (monotone) timestamp — the analyzer's common op.
            let addr = rng.gen::<u32>() as u64;
            t.append(next_ts, addr);
            live.push(next_ts);
            next_ts += if consecutive { 1 } else { rng.gen_range(1..4) };
        } else if roll < 64 {
            let idx = rng.gen_range(0..live.len());
            t.remove(live.swap_remove(idx));
        } else if roll < 78 {
            // The engines' fused hit.
            let idx = rng.gen_range(0..live.len());
            let ts = live.swap_remove(idx);
            t.distance_and_remove(ts, &format!("distance_and_remove({ts}) at step {step}"));
        } else if roll < 80 {
            // A cascade absorb: a few distinct live entries in stream order.
            let n = rng.gen_range(1..=live.len().min(40));
            let batch: Vec<u64> = (0..n)
                .map(|_| live.swap_remove(rng.gen_range(0..live.len())))
                .collect();
            t.distance_and_remove_each(&batch, &format!("batch at step {step}"));
        } else if roll < 90 {
            // Any timestamp in the search trees; a live one in the vector.
            let ts = rng.gen_range(0..next_ts.max(1));
            let d = t.splay.distance(ts);
            assert_eq!(t.avl.distance(ts), d, "distance({ts}) at step {step}");
            assert_eq!(t.treap.distance(ts), d);
            let ts = live[rng.gen_range(0..live.len())];
            let d = t.splay.distance(ts);
            assert_eq!(
                t.vector.distance(t.keys[&ts]),
                d,
                "live {ts} at step {step}"
            );
        } else {
            let o = t.splay.oldest();
            assert_eq!(t.avl.oldest(), o);
            assert_eq!(t.treap.oldest(), o);
            let keyed = o.map(|ts| t.keys[&ts]);
            assert_eq!(t.vector.oldest(), keyed, "oldest at step {step}");
        }

        if step % 20_000 == 0 {
            assert_eq!(t.splay.len(), live.len());
            assert_eq!(t.vector.len(), live.len());
            t.check();
        }
    }
    assert_eq!(t.splay.len(), live.len());
    t.check();
}

#[test]
fn torture_seed_1() {
    torture(1, 120_000);
}

#[test]
fn torture_seed_2() {
    torture(2, 120_000);
}

#[test]
fn clear_and_reuse_cycle() {
    // Engines reuse trees across phases: clear must fully reset.
    let mut t = Trees::default();
    for round in 0..5u64 {
        for i in 0..5_000u64 {
            let ts = i; // same timestamps every round: stale state would collide
            t.append(ts, round * 10_000 + i);
        }
        assert_eq!(t.splay.distance(2_499), 2_500);
        assert_eq!(t.vector.distance(t.keys[&2_499]), 2_500);
        assert_eq!(t.distance_and_remove(0, "first"), 4_999);
        t.check();
        t.splay.clear();
        t.avl.clear();
        t.treap.clear();
        t.vector.clear();
        t.keys.clear();
        assert!(t.splay.is_empty() && t.avl.is_empty());
        assert!(t.treap.is_empty() && t.vector.is_empty());
    }
}
