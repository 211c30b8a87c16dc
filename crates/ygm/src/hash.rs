//! Fast, deterministic hashing.
//!
//! Two jobs in one module:
//!
//! 1. [`hash64`] — the *deterministic* 64-bit mix used everywhere a hash
//!    must agree across ranks and across runs: vertex ownership
//!    (`Rank(v) = hash64(v) % nranks` for the "random" partitioning of
//!    §4.2) and the tie-break in the degree comparator `<+` of §3. It is a
//!    SplitMix64 finalizer: bijective on `u64`, so distinct vertices never
//!    collide in the tie-break.
//! 2. [`FastHasher`] / [`FastBuildHasher`] — an FxHash-style `Hasher` for
//!    rank-local hash maps on hot paths, where SipHash's HashDoS
//!    resistance is unnecessary (keys are internal vertex ids, not
//!    attacker-controlled input).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Deterministic 64-bit mixing function (SplitMix64 finalizer).
///
/// Bijective: `hash64(a) == hash64(b)` implies `a == b`, which the
/// degree-order tie-break relies on for a total order over vertices.
#[inline]
pub fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style multiply-rotate hasher for rank-local tables.
#[derive(Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One extra mix so sequential keys spread across all bits.
        hash64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
            self.add(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }
    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }
    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed with the fast rank-local hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` keyed with the fast rank-local hasher.
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hash64_is_deterministic() {
        assert_eq!(hash64(42), hash64(42));
        assert_ne!(hash64(42), hash64(43));
    }

    #[test]
    fn hash64_bijective_on_small_range() {
        let mut seen = std::collections::HashSet::new();
        for v in 0..100_000u64 {
            assert!(seen.insert(hash64(v)), "collision at {v}");
        }
    }

    #[test]
    fn hash64_spreads_low_bits() {
        // Ownership uses hash64(v) % nranks; sequential ids must not all
        // land on the same rank.
        let nranks = 8;
        let mut counts = vec![0usize; nranks];
        for v in 0..8000u64 {
            counts[(hash64(v) % nranks as u64) as usize] += 1;
        }
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (800..1200).contains(&c),
                "rank {rank} owns {c} of 8000 sequential ids"
            );
        }
    }

    #[test]
    fn fast_map_works_with_common_keys() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, (i * 2) as u32);
        }
        for i in 0..1000 {
            assert_eq!(m[&i], (i * 2) as u32);
        }
    }

    #[test]
    fn fast_hasher_string_keys_distinct() {
        let bh = FastBuildHasher::default();
        let h = |s: &str| bh.hash_one(s);
        assert_ne!(h("amazon.example"), h("amazon.example2"));
        assert_ne!(h("ab"), h("ba"));
        assert_ne!(h(""), h("\0"));
    }
}
