//! Robin Hood open-addressing hash map with backward-shift deletion.
//!
//! This is the stand-in for the GLib hash table used by the original PARDA C
//! code. The design choices follow the access pattern of reuse-distance
//! analysis:
//!
//! * every trace reference performs `get` + (`insert` or overwrite), so probe
//!   sequences must be short and cache-friendly — Robin Hood probing bounds
//!   the variance of probe lengths;
//! * the bounded algorithm (paper Algorithm 7) deletes evicted victims, so
//!   deletion must not poison the table — backward-shift deletion leaves no
//!   tombstones and keeps probe distances tight;
//! * the table grows with the address footprint, so a slot holds only its
//!   key, its value and one byte of probe length — 17 bytes for
//!   `u64 → u64` — and fills fewer cache lines and pages;
//! * keys are word-granular addresses, hashed with one multiply: a key's
//!   home slot is the *high* bits of its product with 2^64/φ (Fibonacci
//!   hashing). The low bits of a product depend only on the low bits of
//!   the key, so strided addresses (`base + k · 2^s`) would share a
//!   handful of homes; the high bits spread them, and still give a run of
//!   dense keys nearly one slot each.

/// 2^64 / φ, forced odd: the Fibonacci-hashing multiplier.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

/// The hash whose high bits are a key's home slot: a Fibonacci multiply
/// of the key with its high half folded onto its low half first, so keys
/// that differ only in their high bits still differ where the multiply
/// spreads them.
#[inline]
fn home_hash(key: u64) -> u64 {
    (key ^ (key >> 32)).wrapping_mul(FIBONACCI)
}

/// Keys storable in a [`RobinHoodMap`]: cheaply projectable to 64 bits.
///
/// The projection must be injective over the keys actually inserted (it is
/// the identity for the integer types below), because the map compares keys
/// with `Eq` after hashing the projection.
pub trait FixedKey: Copy + Eq {
    /// Project the key to the 64-bit value that is hashed.
    fn as_u64(self) -> u64;
}

impl FixedKey for u64 {
    #[inline]
    fn as_u64(self) -> u64 {
        self
    }
}

impl FixedKey for u32 {
    #[inline]
    fn as_u64(self) -> u64 {
        self as u64
    }
}

impl FixedKey for usize {
    #[inline]
    fn as_u64(self) -> u64 {
        self as u64
    }
}

/// Slot byte of an entry whose probe distance is 255 or more. The byte then
/// says only "at least 255": the exact distance is recomputed from the
/// resident key's home slot.
const SATURATED: u8 = u8::MAX;

/// The slot byte for an entry `dib - 1` slots past its home.
#[inline]
fn dib_byte(dib: usize) -> u8 {
    dib.min(SATURATED as usize) as u8
}

/// Open-addressing hash map with Robin Hood probing.
///
/// Capacity is always a power of two; the table resizes at 87.5% load.
/// Each slot is a bare `(K, V)` entry plus one byte in a parallel array
/// holding the entry's probe distance from its home slot, plus one. A zero
/// byte marks an empty slot, so an entry is meaningful only while its byte
/// is non-zero. For `u64 → u64` that is 17 bytes a slot.
///
/// # Examples
///
/// ```
/// use parda_hash::RobinHoodMap;
///
/// let mut map: RobinHoodMap<u64, u64> = RobinHoodMap::new();
/// map.insert(0x1000, 7);
/// assert_eq!(map.get(0x1000), Some(&7));
/// assert_eq!(map.remove(0x1000), Some(7));
/// assert!(map.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct RobinHoodMap<K, V> {
    /// Per slot: probe distance plus one, saturating at [`SATURATED`];
    /// zero marks an empty slot.
    dibs: Vec<u8>,
    /// Per slot: the resident pair, stale wherever `dibs` is zero.
    entries: Vec<(K, V)>,
    mask: usize,
    /// `64 - log2(capacity)`: a hash shifted right by this is a slot.
    shift: u32,
    len: usize,
}

impl<K: FixedKey + Default, V: Copy + Default> Default for RobinHoodMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: FixedKey + Default, V: Copy + Default> RobinHoodMap<K, V> {
    const MIN_CAPACITY: usize = 8;

    /// Create an empty map with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::MIN_CAPACITY)
    }

    /// Create an empty map able to hold at least `capacity` entries without
    /// resizing.
    pub fn with_capacity(capacity: usize) -> Self {
        // Head-room for the 7/8 load factor, then round up to a power of two.
        let wanted = capacity.max(Self::MIN_CAPACITY) * 8 / 7 + 1;
        let cap = wanted.next_power_of_two();
        Self {
            dibs: vec![0; cap],
            entries: vec![(K::default(), V::default()); cap],
            mask: cap - 1,
            shift: Self::shift_for(cap),
            len: 0,
        }
    }

    /// Number of entries in the map.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count (diagnostic; not the number of entries).
    pub fn capacity(&self) -> usize {
        self.dibs.len()
    }

    /// Remove all entries, keeping the allocation. Only the slot bytes are
    /// rewritten: the entries behind them go stale.
    pub fn clear(&mut self) {
        self.dibs.fill(0);
        self.len = 0;
    }

    /// The [`RobinHoodMap::shift`] of a `cap`-slot table.
    fn shift_for(cap: usize) -> u32 {
        u64::BITS - cap.trailing_zeros()
    }

    /// A key's home slot: the top `log2(capacity)` bits of its hash.
    #[inline]
    fn home(&self, key: K) -> usize {
        (home_hash(key.as_u64()) >> self.shift) as usize
    }

    /// Issue a software prefetch for `key`'s home slot: its entry and its
    /// byte. Purely a latency hint: the batched engine hot path calls this
    /// for a whole batch of keys before probing, turning a chain of
    /// dependent cache misses into overlapped ones. No-op on architectures
    /// without a prefetch intrinsic.
    #[inline]
    pub fn prefetch(&self, key: K) {
        let idx = self.home(key);
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `idx <= mask` and both arrays hold `mask + 1` slots, so
        // both pointers are in bounds; prefetch has no architectural effect
        // beyond the cache.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.entries.as_ptr().add(idx) as *const i8, _MM_HINT_T0);
            _mm_prefetch(self.dibs.as_ptr().add(idx) as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = idx;
    }

    /// Probe distance plus one of slot `idx`'s entry; 0 if the slot is
    /// empty. Exact past 255 too: a saturated byte recomputes it from the
    /// resident key's home.
    #[inline]
    fn dib(&self, idx: usize) -> usize {
        match self.dibs[idx] {
            SATURATED => (idx.wrapping_sub(self.home(self.entries[idx].0)) & self.mask) + 1,
            byte => byte as usize,
        }
    }

    /// `true` if a probe that reaches slot `idx` at distance `dib` stops
    /// there: the slot is empty, or its resident sits nearer its home. By
    /// the Robin Hood invariant the probed key cannot be at or past it.
    #[inline]
    fn stops(&self, idx: usize, dib: usize) -> bool {
        let byte = self.dibs[idx];
        (byte as usize) < dib && (byte < SATURATED || self.dib(idx) < dib)
    }

    /// Slot holding `key`, if present.
    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        let mut idx = self.home(key);
        let mut dib = 1;
        while !self.stops(idx, dib) {
            if self.entries[idx].0 == key {
                return Some(idx);
            }
            idx = (idx + 1) & self.mask;
            dib += 1;
        }
        None
    }

    /// Look up `key`, returning a reference to its value.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        self.find(key).map(|idx| &self.entries[idx].1)
    }

    /// `true` if `key` is present.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.find(key).is_some()
    }

    /// Insert `key → value`; returns the previous value if the key was
    /// already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if (self.len + 1) * 8 > self.capacity() * 7 {
            self.grow();
        }
        let mut idx = self.home(key);
        let mut dib = 1;
        while !self.stops(idx, dib) {
            if self.entries[idx].0 == key {
                return Some(std::mem::replace(&mut self.entries[idx].1, value));
            }
            idx = (idx + 1) & self.mask;
            dib += 1;
        }
        // `key` is absent and belongs at `idx`. Rob from the rich: each slot
        // that stops the carried entry takes it and hands on its resident,
        // until an empty slot ends the chain.
        self.len += 1;
        let mut carried = (key, value);
        loop {
            if self.stops(idx, dib) {
                let resident = self.dib(idx);
                self.dibs[idx] = dib_byte(dib);
                carried = std::mem::replace(&mut self.entries[idx], carried);
                if resident == 0 {
                    return None;
                }
                dib = resident;
            }
            idx = (idx + 1) & self.mask;
            dib += 1;
        }
    }

    /// Remove `key`, returning its value if present. Uses backward-shift
    /// deletion: subsequent displaced entries slide one slot back toward
    /// their home buckets, so no tombstones are needed.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let mut hole = self.find(key)?;
        let removed = self.entries[hole].1;
        self.len -= 1;
        // Backward shift: pull each follower not at its home one slot back.
        loop {
            let next = (hole + 1) & self.mask;
            let dib = self.dib(next);
            if dib <= 1 {
                break;
            }
            self.entries[hole] = self.entries[next];
            self.dibs[hole] = dib_byte(dib - 1);
            hole = next;
        }
        self.dibs[hole] = 0;
        Some(removed)
    }

    /// Map every value through `map` in one sequential sweep of the table,
    /// dropping the entries it maps to `None`.
    ///
    /// The sweep starts past an empty slot, which no probe sequence
    /// crosses, so every entry's home lies between that slot and the entry.
    /// Each survivor then moves to the first free slot at or past its home:
    /// in a table that dropped nothing that is where it already sits, and
    /// otherwise it slides back over the freed slots as backward-shift
    /// deletion would have moved it, keeping the Robin Hood order.
    pub fn retain_map(&mut self, mut map: impl FnMut(V) -> Option<V>) {
        let start = self
            .dibs
            .iter()
            .position(|&byte| byte == 0)
            .expect("the load factor leaves a slot empty");
        // `free` is the offset past `start` of the first slot not yet
        // taken by a survivor.
        let mut free = 1;
        for off in 1..self.capacity() {
            let idx = (start + off) & self.mask;
            let dib = self.dib(idx);
            if dib == 0 {
                continue;
            }
            let (key, value) = self.entries[idx];
            let Some(value) = map(value) else {
                self.dibs[idx] = 0;
                self.len -= 1;
                continue;
            };
            let home = off + 1 - dib;
            let to_off = home.max(free);
            free = to_off + 1;
            if to_off == off {
                self.entries[idx].1 = value;
                continue;
            }
            let to = (start + to_off) & self.mask;
            self.dibs[idx] = 0;
            self.entries[to] = (key, value);
            self.dibs[to] = dib_byte(to_off - home + 1);
        }
    }

    /// Longest probe distance currently present, exact past 255
    /// (diagnostic for tests and benchmarks; 0 for an empty map).
    pub fn max_probe_distance(&self) -> usize {
        (0..self.capacity())
            .map(|idx| self.dib(idx))
            .max()
            .unwrap_or(0)
    }

    fn grow(&mut self) {
        let new_cap = self.capacity() * 2;
        let dibs = std::mem::replace(&mut self.dibs, vec![0; new_cap]);
        let entries = std::mem::replace(
            &mut self.entries,
            vec![(K::default(), V::default()); new_cap],
        );
        self.mask = new_cap - 1;
        self.shift = Self::shift_for(new_cap);
        self.len = 0;
        for (&byte, &(key, value)) in dibs.iter().zip(&entries) {
            if byte != 0 {
                self.insert(key, value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_roundtrip() {
        let mut map = RobinHoodMap::new();
        for i in 0u64..1_000 {
            assert_eq!(map.insert(i, i * 3), None);
        }
        for i in 0u64..1_000 {
            assert_eq!(map.get(i), Some(&(i * 3)));
        }
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.get(1_000), None);
    }

    #[test]
    fn insert_overwrites_and_returns_old() {
        let mut map = RobinHoodMap::new();
        assert_eq!(map.insert(42u64, 1), None);
        assert_eq!(map.insert(42u64, 2), Some(1));
        assert_eq!(map.get(42), Some(&2));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn remove_returns_value_and_shrinks_len() {
        let mut map = RobinHoodMap::new();
        for i in 0u64..100 {
            map.insert(i, i);
        }
        for i in (0u64..100).step_by(2) {
            assert_eq!(map.remove(i), Some(i));
        }
        assert_eq!(map.len(), 50);
        for i in 0u64..100 {
            let expect = (i % 2 == 1).then_some(i);
            assert_eq!(map.get(i).copied(), expect, "key {i}");
        }
        assert_eq!(map.remove(0), None, "double remove yields None");
    }

    #[test]
    fn backward_shift_preserves_chains() {
        // Force long chains by inserting many keys, then delete from the
        // middle of chains and verify every survivor is still reachable.
        let mut map = RobinHoodMap::with_capacity(8);
        let keys: Vec<u64> = (0..500).map(|i| i * 0x10).collect();
        for &k in &keys {
            map.insert(k, k + 1);
        }
        for &k in keys.iter().step_by(3) {
            assert_eq!(map.remove(k), Some(k + 1));
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(map.get(k), None);
            } else {
                assert_eq!(map.get(k), Some(&(k + 1)));
            }
        }
    }

    #[test]
    fn retain_map_rewrites_every_value_in_place() {
        let mut map = RobinHoodMap::new();
        for i in 0u64..1_000 {
            map.insert(i * 7, i);
        }
        for i in (0u64..1_000).step_by(3) {
            map.remove(i * 7);
        }
        let len = map.len();
        let mut visited = 0;
        map.retain_map(|v| {
            visited += 1;
            Some(v + 5_000)
        });
        assert_eq!(visited, len);
        assert_eq!(map.len(), len);
        for i in 0u64..1_000 {
            let expect = (i % 3 != 0).then_some(i + 5_000);
            assert_eq!(map.get(i * 7).copied(), expect, "key {}", i * 7);
        }
    }

    #[test]
    fn retain_map_drops_entries_and_keeps_chains_reachable() {
        // Keys sharing a home past the byte limit make one long cluster;
        // dropping every third entry must leave the rest reachable, each
        // at its backward-shifted slot, and the map as a fresh one would
        // be after the same removals.
        let mut seen = std::collections::HashSet::new();
        let keys: Vec<u64> = (1u64..)
            .filter(|&k| home_hash(k) >> 54 == 0)
            .take(600)
            .chain((0..3_000u64).map(|k| k * 0x10))
            .filter(|&k| seen.insert(k))
            .collect();
        let mut ours: RobinHoodMap<u64, u64> = RobinHoodMap::new();
        let mut reference: RobinHoodMap<u64, u64> = RobinHoodMap::new();
        for (i, &k) in keys.iter().enumerate() {
            ours.insert(k, i as u64);
            reference.insert(k, i as u64);
        }
        for (i, &k) in keys.iter().enumerate() {
            if i % 3 == 0 {
                reference.remove(k);
            } else {
                reference.insert(k, i as u64 * 2);
            }
        }
        ours.retain_map(|v| (v % 3 != 0).then_some(v * 2));
        assert_eq!(ours.len(), reference.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ours.get(k), reference.get(k), "key {k:#x} (#{i})");
        }
        assert_eq!(ours.dibs, reference.dibs, "every survivor at its slot");
        assert_eq!(ours.max_probe_distance(), reference.max_probe_distance());
        for &k in &keys {
            ours.insert(k, k);
        }
        assert_eq!(ours.len(), keys.len());
    }

    #[test]
    fn clear_retains_capacity() {
        let mut map = RobinHoodMap::new();
        for i in 0u64..1_000 {
            map.insert(i, i);
        }
        let cap = map.capacity();
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.capacity(), cap);
        map.insert(3u64, 4);
        assert_eq!(map.get(3), Some(&4));
    }

    #[test]
    fn probe_distances_stay_bounded_at_load() {
        let mut map = RobinHoodMap::with_capacity(16);
        for i in 0u64..100_000 {
            map.insert(i.wrapping_mul(0x9e3779b97f4a7c15), i);
        }
        // Robin Hood at 7/8 load keeps worst-case probes small in practice.
        assert!(
            map.max_probe_distance() < 64,
            "max probe distance {} is pathological",
            map.max_probe_distance()
        );
    }

    #[test]
    fn colliding_keys_past_the_byte_limit() {
        // Keys whose hash has its top 11 bits clear share home slot 0 in
        // every table up to 2048 slots, the size 1,202 keys grow this one
        // to; 0 hashes to 0. So the cluster is as long as the map, far
        // past the 255 a slot byte holds.
        let keys: Vec<u64> = (1u64..)
            .filter(|&k| home_hash(k) >> 53 == 0)
            .take(1_201)
            .chain([0])
            .collect();
        assert!(keys.iter().all(|&k| home_hash(k) >> 53 == 0));
        let mut ours: RobinHoodMap<u64, u64> = RobinHoodMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let sweep = |ours: &RobinHoodMap<u64, u64>, reference: &HashMap<u64, u64>| {
            assert_eq!(ours.len(), reference.len());
            for &k in &keys {
                assert_eq!(ours.get(k), reference.get(&k), "key {k:#x}");
            }
        };
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(ours.insert(k, i as u64), reference.insert(k, i as u64));
        }
        sweep(&ours, &reference);
        assert_eq!(ours.max_probe_distance(), keys.len());

        // Interleave overwrites, fresh inserts and removes (7 in 16) over
        // the same keys; the live set hovers near 680, still past 255.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..6_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let k = keys[(state % keys.len() as u64) as usize];
            if state >> 60 < 7 {
                assert_eq!(ours.remove(k), reference.remove(&k), "step {step}");
            } else {
                assert_eq!(
                    ours.insert(k, step),
                    reference.insert(k, step),
                    "step {step}"
                );
            }
            assert_eq!(ours.len(), reference.len());
            assert_eq!(ours.get(k), reference.get(&k), "step {step}");
            if step % 1_000 == 999 {
                sweep(&ours, &reference);
                assert_eq!(ours.max_probe_distance(), ours.len());
            }
        }
        for &k in &keys {
            assert_eq!(ours.insert(k, k), reference.insert(k, k));
        }
        sweep(&ours, &reference);
        assert!(ours.max_probe_distance() >= 1_000);
        assert_eq!(ours.max_probe_distance(), keys.len());
    }

    #[test]
    fn strided_keys_spread_over_the_table() {
        // The low bits of `k << s` are all zero: a home taken from the
        // hash's low bits would crowd these keys into a few slots.
        let base = 0x7f3a_5c00_0000u64;
        for s in 0..=20 {
            let mut map: RobinHoodMap<u64, u64> = RobinHoodMap::new();
            for k in 0..65_536u64 {
                map.insert(base.wrapping_add(k << s), k);
            }
            assert_eq!(map.len(), 65_536);
            assert!(
                map.max_probe_distance() <= 32,
                "stride 2^{s}: max probe distance {}",
                map.max_probe_distance()
            );
            for k in (0..65_536u64).step_by(97) {
                assert_eq!(map.get(base.wrapping_add(k << s)), Some(&k));
            }
        }
    }

    proptest! {
        /// The map must behave exactly like std::HashMap under an arbitrary
        /// interleaving of inserts and removes over a small key universe
        /// (small so that collisions between operations are common).
        #[test]
        fn behaves_like_std_hashmap(ops in proptest::collection::vec((any::<bool>(), 0u64..64, any::<u32>()), 0..400)) {
            let mut ours: RobinHoodMap<u64, u32> = RobinHoodMap::new();
            let mut reference: HashMap<u64, u32> = HashMap::new();
            for (is_insert, key, value) in ops {
                if is_insert {
                    prop_assert_eq!(ours.insert(key, value), reference.insert(key, value));
                } else {
                    prop_assert_eq!(ours.remove(key), reference.remove(&key));
                }
                prop_assert_eq!(ours.len(), reference.len());
            }
            for (key, value) in &reference {
                prop_assert_eq!(ours.get(*key), Some(value));
            }
        }

        /// A sweep that drops some entries leaves exactly the entries a
        /// removal of each would, every one of them still reachable.
        #[test]
        fn retain_map_equals_removing_the_dropped(
            keys in proptest::collection::vec(0u64..4_096, 0..600),
            drop_mod in 1u64..5,
        ) {
            let mut ours: RobinHoodMap<u64, u64> = RobinHoodMap::new();
            let mut reference: HashMap<u64, u64> = HashMap::new();
            for &k in &keys {
                ours.insert(k, k);
                reference.insert(k, k);
            }
            ours.retain_map(|v| (v % drop_mod != 0).then_some(v + 1));
            reference.retain(|_, v| *v % drop_mod != 0);
            prop_assert_eq!(ours.len(), reference.len());
            for &k in &keys {
                prop_assert_eq!(ours.get(k).copied(), reference.get(&k).map(|v| v + 1));
            }
        }
    }
}
