//! Distributed containers composed on top of the active-message layer
//! (paper §4.1.4).
//!
//! YGM's fire-and-forget RPC makes it possible to build small, composable
//! distributed data structures whose update messages interleave freely
//! with application traffic. TriPoll's surveys use one of them:
//! [`DistCountingSet`], a counting multiset with a per-rank write-back
//! cache, used by every survey callback that tallies metadata categories
//! (Algs. 3 and 4). Cache flushes piggyback on the same runtime as the
//! triangle-identification messages, "without ever interfering" (§4.1.4).
//!
//! A key lives at [`owner_of`]`(key) = hash(key) % nranks`, the same
//! pattern by which the DODGr graph store places vertices (§4.2).

mod counting_set;

pub use counting_set::DistCountingSet;

use crate::hash::FastBuildHasher;
use std::hash::{BuildHasher, Hash};

/// Deterministic owner rank for a hashable key.
///
/// Uses the crate's deterministic [`FastBuildHasher`], so every rank (and
/// every run) agrees where a key lives — the distributed-container
/// equivalent of the paper's `Rank(u)`.
#[inline]
pub fn owner_of<K: Hash>(key: &K, nranks: usize) -> usize {
    let h = FastBuildHasher::default().hash_one(key);
    (h % nranks as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_stable_and_in_range() {
        for nranks in [1usize, 2, 5, 16] {
            for key in 0u64..1000 {
                let o1 = owner_of(&key, nranks);
                let o2 = owner_of(&key, nranks);
                assert_eq!(o1, o2);
                assert!(o1 < nranks);
            }
        }
    }

    #[test]
    fn owner_spreads_keys() {
        let nranks = 4;
        let mut counts = vec![0usize; nranks];
        for key in 0u64..4000 {
            counts[owner_of(&key, nranks)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "skewed ownership: {counts:?}");
        }
    }

    #[test]
    fn string_keys_have_owners() {
        let o = owner_of(&"amazon.example".to_string(), 7);
        assert!(o < 7);
        assert_eq!(o, owner_of(&"amazon.example".to_string(), 7));
    }
}
