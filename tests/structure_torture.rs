//! Large randomized torture runs over every ordered structure: all four
//! `ReuseTree` implementations driven through hundreds of thousands of
//! mixed operations must agree with each other at every checkpoint.
//! Timestamps come in stretches: consecutive ones, which the vector tree
//! holds as runs spanning many of its 512-slot blocks, alternate with
//! gapped ones, which exercise absent keys.

use parda::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drive all four trees through an identical op stream; cross-check state
/// at checkpoints.
fn torture(seed: u64, ops: usize) {
    let mut splay = SplayTree::new();
    let mut avl = AvlTree::new();
    let mut treap = Treap::new();
    let mut vector = VectorTree::new();
    let mut live: Vec<u64> = Vec::new(); // timestamps currently present
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_ts = 0u64;

    for step in 0..ops {
        let consecutive = (step / 10_000) % 2 == 0;
        let roll = rng.gen_range(0..100);
        if roll < 52 || live.is_empty() {
            // Insert a fresh (monotone) timestamp — the analyzer's common op.
            let addr = rng.gen::<u32>() as u64;
            splay.insert(next_ts, addr);
            avl.insert(next_ts, addr);
            treap.insert(next_ts, addr);
            vector.insert(next_ts, addr);
            live.push(next_ts);
            next_ts += if consecutive { 1 } else { rng.gen_range(1..4) };
        } else if roll < 66 {
            let idx = rng.gen_range(0..live.len());
            let ts = live.swap_remove(idx);
            let a = splay.remove(ts);
            assert_eq!(avl.remove(ts), a);
            assert_eq!(treap.remove(ts), a);
            assert_eq!(vector.remove(ts), a);
            assert!(a.is_some());
        } else if roll < 80 {
            // The engines' fused hit.
            let idx = rng.gen_range(0..live.len());
            let ts = live.swap_remove(idx);
            let d = splay.distance_and_remove(ts);
            assert!(d.is_some());
            let at = format!("distance_and_remove({ts}) at step {step}");
            assert_eq!(avl.distance_and_remove(ts), d, "{at}");
            assert_eq!(treap.distance_and_remove(ts), d, "{at}");
            assert_eq!(vector.distance_and_remove(ts), d, "{at}");
        } else if roll < 95 {
            let ts = rng.gen_range(0..next_ts.max(1));
            let d = splay.distance(ts);
            assert_eq!(avl.distance(ts), d, "distance({ts}) at step {step}");
            assert_eq!(treap.distance(ts), d);
            assert_eq!(vector.distance(ts), d);
        } else {
            let o = splay.oldest();
            assert_eq!(avl.oldest(), o);
            assert_eq!(treap.oldest(), o);
            assert_eq!(vector.oldest(), o);
        }

        if step % 20_000 == 0 {
            assert_eq!(splay.len(), live.len());
            let contents = splay.to_sorted_vec();
            assert_eq!(avl.to_sorted_vec(), contents);
            assert_eq!(treap.to_sorted_vec(), contents);
            assert_eq!(vector.to_sorted_vec(), contents);
            splay.validate();
            avl.validate();
            treap.validate();
            vector.validate();
        }
    }
    assert_eq!(splay.len(), live.len());
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
    let mut trees: (SplayTree, AvlTree, Treap, VectorTree) = Default::default();
    for round in 0..5u64 {
        for i in 0..5_000u64 {
            let ts = i; // same timestamps every round: stale state would collide
            let addr = round * 10_000 + i;
            trees.0.insert(ts, addr);
            trees.1.insert(ts, addr);
            trees.2.insert(ts, addr);
            trees.3.insert(ts, addr);
        }
        assert_eq!(trees.0.distance(2_499), 2_500);
        assert_eq!(trees.3.distance(2_499), 2_500);
        trees.0.clear();
        trees.1.clear();
        trees.2.clear();
        trees.3.clear();
        assert!(trees.0.is_empty() && trees.1.is_empty());
        assert!(trees.2.is_empty() && trees.3.is_empty());
    }
}
