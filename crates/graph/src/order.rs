//! The degree ordering `<+` (paper §3).
//!
//! Triangle enumeration on the degree-ordered directed graph needs a
//! *total* order on vertices: `u <+ v` iff `d(u) < d(v)`, with ties broken
//! by a deterministic hash. Our tie-break is [`hash64`], which is
//! bijective on `u64`, so `OrderKey` equality implies vertex equality —
//! the property that lets merge-path intersection identify matching
//! vertices by key comparison alone.

use tripoll_ygm::hash::hash64;

/// Position of a vertex in the `<+` order: degree first, then a
/// deterministic hash of the vertex id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrderKey {
    /// Undirected degree `d(v)`.
    pub degree: u64,
    /// Deterministic tie-break, `hash64(v)`.
    pub tie: u64,
}

impl OrderKey {
    /// Key of vertex `v` with undirected degree `degree`.
    #[inline]
    pub fn new(v: u64, degree: u64) -> Self {
        OrderKey {
            degree,
            tie: hash64(v),
        }
    }

    /// The key as one 128-bit word, degree in the high half and tie in
    /// the low half. Comparing two words is exactly the derived
    /// lexicographic order on `(degree, tie)`, and two words are equal
    /// exactly when the keys are, so a merge may compare words instead
    /// of keys with one compare per step and no branch on the first
    /// field.
    #[inline]
    pub fn word(self) -> u128 {
        (self.degree as u128) << 64 | self.tie as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_dominates() {
        assert!(OrderKey::new(100, 1) < OrderKey::new(5, 2));
        assert!(OrderKey::new(5, 2) >= OrderKey::new(100, 1));
    }

    #[test]
    fn hash_breaks_ties_deterministically() {
        let a = OrderKey::new(1, 5) < OrderKey::new(2, 5);
        let b = OrderKey::new(2, 5) < OrderKey::new(1, 5);
        assert_ne!(a, b, "exactly one direction holds");
        // Stable across calls.
        assert_eq!(a, OrderKey::new(1, 5) < OrderKey::new(2, 5));
    }

    #[test]
    fn total_order_no_self_less() {
        assert!(OrderKey::new(7, 3) >= OrderKey::new(7, 3));
    }

    #[test]
    fn key_equality_implies_same_vertex() {
        // hash64 is bijective, so same (degree, tie) means same id.
        for u in 0..1000u64 {
            for v in (u + 1)..(u + 4) {
                assert_ne!(OrderKey::new(u, 9), OrderKey::new(v, 9));
            }
        }
    }

    #[test]
    fn keys_sort_by_degree_then_tie() {
        let mut keys = [
            OrderKey::new(1, 10),
            OrderKey::new(2, 3),
            OrderKey::new(3, 3),
            OrderKey::new(4, 1),
        ];
        keys.sort();
        assert_eq!(keys[0].degree, 1);
        assert_eq!(keys[3].degree, 10);
        assert_eq!(keys[1].degree, 3);
        assert_eq!(keys[2].degree, 3);
        assert!(keys[1].tie < keys[2].tie);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn key((degree, tie): (u64, u64)) -> OrderKey {
            OrderKey { degree, tie }
        }

        /// Asserts the one-word key orders and equates exactly like the
        /// derived `Ord` / `Eq` on the two fields.
        fn assert_word_orders_like_key(a: OrderKey, b: OrderKey) {
            assert_eq!(a.cmp(&b), a.word().cmp(&b.word()), "{a:?} vs {b:?}");
            assert_eq!(a == b, a.word() == b.word(), "{a:?} vs {b:?}");
        }

        #[test]
        fn word_orders_like_key_at_the_field_boundaries() {
            let edges = [0, 1, u64::MAX - 1, u64::MAX];
            for &da in &edges {
                for &ta in &edges {
                    for &db in &edges {
                        for &tb in &edges {
                            assert_word_orders_like_key(key((da, ta)), key((db, tb)));
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]
            /// Random `(degree, tie)` pairs, each field drawn with the
            /// shim's edge bias (0, 1, `u64::MAX - 1` and `u64::MAX`
            /// one draw in four). `share` copies one field or both from
            /// the first key, so equal degrees, equal ties and equal
            /// keys all occur.
            #[test]
            fn word_orders_like_key(
                a in (any::<u64>(), any::<u64>()),
                b in (any::<u64>(), any::<u64>()),
                share in 0u8..4,
            ) {
                let b = match share {
                    1 => (a.0, b.1),
                    2 => (b.0, a.1),
                    3 => a,
                    _ => b,
                };
                assert_word_orders_like_key(key(a), key(b));
                assert_word_orders_like_key(key(b), key(a));
            }
        }
    }
}
