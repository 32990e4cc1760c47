//! A fast, non-cryptographic hasher in the style of rustc's `FxHasher`.
//!
//! Reuse-distance analysis performs one hash-table lookup and one update per
//! trace reference, so hashing sits squarely on the hot path. SipHash (the
//! `std` default) costs several times more than a multiply for 8-byte keys;
//! the Fx construction (xor + rotate + multiply with a golden-ratio-derived
//! odd constant) is the standard answer when HashDoS resistance is not a
//! concern — which it is not for offline trace analysis.

use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / phi, forced odd. The classic Fibonacci-hashing multiplier.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const ROTATE: u32 = 26;

/// Hash a single `u64` with one round of the Fx mix.
///
/// Exposed so other crates hash addresses consistently: SHARDS samples on
/// it and the treap draws its priorities from it. [`crate::RobinHoodMap`]
/// places keys by the high bits of a plain Fibonacci multiply instead.
#[inline]
pub fn fx_hash_u64(value: u64) -> u64 {
    (value.rotate_left(ROTATE) ^ value).wrapping_mul(SEED)
}

/// A streaming [`Hasher`] applying the Fx mix per word.
///
/// Equivalent in spirit to `rustc_hash::FxHasher`; implemented here because
/// the workspace builds all substrates from scratch.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A final avalanche round: the plain Fx state leaves low bits weak,
        // which hurts power-of-two-sized open tables.
        let mut h = self.state;
        h ^= h >> 32;
        h = h.wrapping_mul(SEED);
        h ^= h >> 29;
        h
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`], usable with `std` collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&0xdead_beefu64), hash_of(&0xdead_beefu64));
        assert_eq!(hash_of(&"parda"), hash_of(&"parda"));
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let hashes: HashSet<u64> = (0u64..10_000).map(|i| hash_of(&i)).collect();
        assert_eq!(hashes.len(), 10_000, "sequential u64 keys must not collide");
    }

    #[test]
    fn fx_hash_u64_spreads_low_bits() {
        // Addresses are typically 8-byte aligned; the low 3 bits of the input
        // are constant. The output's low bits must still vary.
        // 1000 keys into 2^16 buckets: an ideal hash keeps ~992 distinct
        // (birthday bound), so 950 leaves slack without accepting clustering.
        let low_bits: HashSet<u64> = (0u64..1_000)
            .map(|i| fx_hash_u64(i << 3) & 0xffff)
            .collect();
        assert!(
            low_bits.len() > 950,
            "low 16 output bits too clustered: {} distinct",
            low_bits.len()
        );
    }

    #[test]
    fn streaming_matches_padding_rules() {
        // 7-byte input hashes as one zero-padded word; different from the
        // 8-byte input that has an explicit non-zero final byte.
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn works_as_std_hashmap_hasher() {
        let mut map: crate::FxHashMap<u64, u64> = crate::FxHashMap::default();
        for i in 0..1_000u64 {
            map.insert(i, i * 2);
        }
        assert_eq!(map.len(), 1_000);
        assert_eq!(map.get(&500), Some(&1000));
    }
}
