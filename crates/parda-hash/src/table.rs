//! The address → last-access-timestamp table (`H` in the paper's
//! Algorithms 1, 3, 4 and 7).

use crate::map::RobinHoodMap;

/// The hash table `H` of the PARDA algorithms: maps a data address to the
/// timestamp of its most recent access.
///
/// A thin domain wrapper over [`RobinHoodMap`] so the analysis engines in
/// `parda-core` read like the paper's pseudocode (`H(z)`, `H(z) ← t`,
/// `H(z) ← ∅`).
///
/// # Examples
///
/// ```
/// use parda_hash::LastAccessTable;
///
/// let mut table = LastAccessTable::new();
/// assert_eq!(table.last_access(0x40), None);       // H(z) = ∅
/// table.record(0x40, 9);                           // H(z) ← 9
/// assert_eq!(table.last_access(0x40), Some(9));
/// assert_eq!(table.forget(0x40), Some(9));         // H(z) ← ∅
/// ```
#[derive(Clone, Debug, Default)]
pub struct LastAccessTable {
    map: RobinHoodMap<u64, u64>,
}

impl LastAccessTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self {
            map: RobinHoodMap::new(),
        }
    }

    /// Create an empty table sized for `capacity` distinct addresses.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            map: RobinHoodMap::with_capacity(capacity),
        }
    }

    /// `H(z)`: timestamp of the most recent access to `addr`, if any.
    #[inline]
    pub fn last_access(&self, addr: u64) -> Option<u64> {
        self.map.get(addr).copied()
    }

    /// Hint the cache that `addr`'s probe slots are about to be touched
    /// (see [`RobinHoodMap::prefetch`]). The batched engine calls this for a
    /// whole batch of upcoming addresses before probing any of them.
    #[inline]
    pub fn prefetch(&self, addr: u64) {
        self.map.prefetch(addr);
    }

    /// `H(z) ← t`: record that `addr` was accessed at time `timestamp`.
    /// Returns the previous timestamp if the address was known.
    #[inline]
    pub fn record(&mut self, addr: u64, timestamp: u64) -> Option<u64> {
        self.map.insert(addr, timestamp)
    }

    /// `H(z) ← ∅`: remove `addr` from the table (bounded-analysis eviction
    /// and the space-optimized infinity processing both need this).
    #[inline]
    pub fn forget(&mut self, addr: u64) -> Option<u64> {
        self.map.remove(addr)
    }

    /// Number of distinct addresses currently tracked (`|H|` in Algorithm 7).
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no address is tracked.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Remove every entry, keeping allocations for reuse across phases.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup() {
        let mut t = LastAccessTable::new();
        assert!(t.is_empty());
        assert_eq!(t.record(10, 0), None);
        assert_eq!(t.record(10, 5), Some(0));
        assert_eq!(t.last_access(10), Some(5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn forget_removes() {
        let mut t = LastAccessTable::new();
        t.record(1, 1);
        t.record(2, 2);
        assert_eq!(t.forget(1), Some(1));
        assert_eq!(t.forget(1), None);
        assert_eq!(t.last_access(1), None);
        assert_eq!(t.len(), 1);
    }
}
