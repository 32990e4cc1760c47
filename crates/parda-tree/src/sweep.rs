//! The search trees' batched cascade absorb.
//!
//! A search tree answers a batch of hits faster in key order than in
//! stream order: one ascending rank-and-delete sweep, which turns into an
//! O(live + k) in-order walk and rebuild when the batch is a large share
//! of the tree. The stream order is then restored arithmetically. The
//! [`crate::VectorTree`] needs none of this: a hit costs it a block prefix
//! sum and a bit clear, so it takes the batch in stream order.

use crate::{Fenwick, SearchTree};

/// [`crate::ReuseTree::distance_and_remove_each`] by one sorted sweep.
///
/// The loop it replaces gives the hit at batch index `j` its distance
/// *now*, after the removals of every earlier hit. The sweep instead asks
/// the tree once for every hit's **initial** rank (live keys greater at the
/// batch's start, via [`rank_delete_batch`] on the ascending keys) and
/// subtracts the inversion count: the earlier hits with a *greater* key,
/// each of whose removals lowered the count by one. The inversion counts
/// come from a Fenwick tree over sorted positions, replayed in batch order.
pub(crate) fn distance_and_remove_each<T: SearchTree>(tree: &mut T, keys: &mut [u64]) {
    let k = keys.len();
    if k == 0 {
        return;
    }
    // Order the keys ascending and learn each hit's sorted position.
    // Cascade hits cluster inside one chunk's timestamp span, so a bitmap
    // counting sort over [min, max] usually beats a comparison sort; fall
    // back to sorting when the span is too wide.
    let min = keys.iter().copied().min().expect("non-empty");
    let max = keys.iter().copied().max().expect("non-empty");
    let range = max - min + 1;
    let mut sorted = Vec::with_capacity(k);
    let mut pos = vec![0u32; k];
    if range <= 64 * k as u64 {
        let words = (range as usize).div_ceil(64);
        let mut bits = vec![0u64; words];
        for &key in keys.iter() {
            let off = (key - min) as usize;
            bits[off >> 6] |= 1 << (off & 63);
        }
        let mut cum = vec![0u32; words];
        let mut acc = 0u32;
        for (w, &b) in bits.iter().enumerate() {
            cum[w] = acc;
            acc += b.count_ones();
            let mut rest = b;
            while rest != 0 {
                sorted.push(min + (w as u64) * 64 + u64::from(rest.trailing_zeros()));
                rest &= rest - 1;
            }
        }
        debug_assert_eq!(acc as usize, k, "keys must be distinct");
        for (j, &key) in keys.iter().enumerate() {
            let off = (key - min) as usize;
            let below = (bits[off >> 6] & ((1u64 << (off & 63)) - 1)).count_ones();
            pos[j] = cum[off >> 6] + below;
        }
    } else {
        let mut order: Vec<u32> = (0..k as u32).collect();
        order.sort_unstable_by_key(|&j| keys[j as usize]);
        for (s, &j) in order.iter().enumerate() {
            sorted.push(keys[j as usize]);
            pos[j as usize] = s as u32;
        }
    }

    let mut ranks = Vec::with_capacity(k);
    rank_delete_batch(tree, &sorted, &mut ranks);
    // Replay in batch order: j hits processed so far, of which
    // `prefix_sum(s + 1)` sit at sorted positions ≤ s, so the rest are
    // inversions (earlier hits with greater keys).
    let mut fen = Fenwick::new(k);
    for (j, key) in keys.iter_mut().enumerate() {
        let s = pos[j] as usize;
        let inv = j as u64 - fen.prefix_sum(s + 1);
        *key = ranks[s] - inv;
        fen.add(s, 1);
    }
}

/// Bulk rank+delete sweep — the sorted absorb's tree half.
///
/// `sorted` holds strictly increasing keys, every one of which must be
/// live (a missing key is a logic error and panics). For each `sorted[j]`,
/// pushes onto `out` the number of live entries with a greater key **as
/// measured against the tree state at entry** (the *initial rank*), then
/// removes all `sorted` entries. Removing a smaller key never changes a
/// strictly-greater count, so an ascending loop of fused
/// `distance_and_remove` calls gives exactly the initial ranks.
///
/// When `k` is a large fraction of the tree, one in-order walk pairs each
/// deleted entry with its rank (`live − 1 − position`), survivors are kept
/// in order, and the tree is rebuilt from them. Ranks depend only on the
/// key *set*, never on tree shape, so rebuilds are observationally
/// transparent.
pub(crate) fn rank_delete_batch<T: SearchTree>(tree: &mut T, sorted: &[u64], out: &mut Vec<u64>) {
    let k = sorted.len();
    if k == 0 {
        return;
    }
    // Sparse sweep: fused per-key descents, ascending.
    if k * 8 < tree.len() {
        for &key in sorted {
            let d = tree
                .distance_and_remove(key)
                .expect("rank_delete_batch: key not live in tree");
            out.push(d);
        }
        return;
    }
    // Dense sweep: one in-order pass plus a rebuild of the survivors.
    let live = tree.len() as u64;
    let keys = tree.to_sorted_vec();
    let mut cursor = 0usize;
    let mut survivors = Vec::with_capacity(keys.len() - k.min(keys.len()));
    for (i, &key) in keys.iter().enumerate() {
        if cursor < k && sorted[cursor] == key {
            // `live − 1 − i` entries sit strictly after position i.
            out.push(live - 1 - i as u64);
            cursor += 1;
        } else {
            survivors.push(key);
        }
    }
    assert_eq!(
        cursor, k,
        "rank_delete_batch: key not live in tree (matched {cursor} of {k})"
    );
    tree.rebuild_from_sorted(&survivors);
}
