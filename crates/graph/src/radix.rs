//! Stable LSD radix sort by a `u128` key: the one grouping sort of the
//! DODGr build ([`crate::dodgr`]), of [`EdgeList::canonicalize_by`] and
//! of `tripoll-core`'s Push-Pull resume plan.
//!
//! A pair `(u, v)` sorts as the key `u << 64 | v`, a single id as
//! itself. Digits are eight bits wide, least significant first, and a
//! digit that every record shares is skipped: ids below `2^24` cost
//! three passes per id, not eight.
//!
//! [`EdgeList::canonicalize_by`]: crate::EdgeList::canonicalize_by

use std::ptr;

/// Bits per digit; a pass scatters into `1 << DIGIT_BITS` bins.
const DIGIT_BITS: u32 = 8;
const BINS: usize = 1 << DIGIT_BITS;
/// Digits of a `u128` key.
const DIGITS: u32 = u128::BITS / DIGIT_BITS;

/// The key that sorts pairs by `u`, then by `v`.
#[inline]
pub(crate) fn pair_key(u: u64, v: u64) -> u128 {
    u128::from(u) << 64 | u128::from(v)
}

/// The digit of `key` at position `d`, least significant first.
#[inline]
fn digit(key: u128, d: u32) -> usize {
    (key >> (d * DIGIT_BITS)) as usize & (BINS - 1)
}

/// Sorts `v` stably by `key`: records with equal keys keep their order.
///
/// One pass finds the digits on which the keys differ, one more counts
/// them, and each such digit then scatters every record once between
/// `v` and `scratch`. Records are moved, never cloned. A `v` of fewer
/// than two records, or whose keys are all equal, moves nothing.
///
/// `scratch` is the second buffer of the scatter: its contents are
/// dropped, and a caller that sorts many vectors passes the same one
/// to each, so that it grows to the largest of them only once. On
/// return it is empty.
///
/// # Panics
///
/// If `key` does not return the same key for a record every time it is
/// called. Records that were being scattered when a panic struck are
/// leaked, not dropped.
pub fn radix_sort_by_key<T>(v: &mut Vec<T>, scratch: &mut Vec<T>, key: impl Fn(&T) -> u128) {
    scratch.clear();
    let n = v.len();
    if n < 2 {
        return;
    }
    let (mut all, mut any) = (u128::MAX, 0u128);
    for rec in v.iter() {
        let k = key(rec);
        all &= k;
        any |= k;
    }
    let varying: Vec<u32> = (0..DIGITS).filter(|&d| digit(all ^ any, d) != 0).collect();
    if varying.is_empty() {
        return;
    }
    let mut counts = vec![[0usize; BINS]; varying.len()];
    for rec in v.iter() {
        let k = key(rec);
        for (c, &d) in counts.iter_mut().zip(&varying) {
            c[digit(k, d)] += 1;
        }
    }
    scratch.reserve(n);
    for (c, &d) in counts.iter().zip(&varying) {
        // Bin `b` fills `next[b]..end[b]` of the output.
        let (mut next, mut end) = ([0usize; BINS], [0usize; BINS]);
        let mut at = 0;
        for b in 0..BINS {
            next[b] = at;
            at += c[b];
            end[b] = at;
        }
        let src = v.as_ptr();
        let dst = scratch.as_mut_ptr();
        // SAFETY: shrinking a length is always sound. From here until
        // the swap below, neither vector owns a record, so a panic (the
        // assert, or one in `key`) leaks the records instead of letting
        // both vectors drop them.
        unsafe { v.set_len(0) };
        for i in 0..n {
            // SAFETY: `i < n`, the old length of `v`, whose buffer is
            // still allocated; record `i` is read before it is copied
            // below and never again.
            let b = digit(key(unsafe { &*src.add(i) }), d);
            let slot = next[b];
            assert!(slot < end[b], "radix key changed between calls");
            next[b] += 1;
            // SAFETY: `slot < end[b] <= n <= scratch.capacity()`, and
            // `slot` was never written in this pass: `next[b]` only
            // grows within its bin, and bins do not overlap. `src` and
            // `dst` are distinct allocations.
            unsafe { ptr::copy_nonoverlapping(src.add(i), dst.add(slot), 1) };
        }
        // SAFETY: the bins tile `0..n` and each received exactly its
        // count: `n` copies landed, none past its bin's end, so none
        // fell short. All `n` slots of `scratch` now hold the records,
        // each once; `v` holds none.
        unsafe { scratch.set_len(n) };
        std::mem::swap(v, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Keys that reach every digit: small ids, ids at and above `2^32`,
    /// ids that differ only in the top byte of either half, and the
    /// extremes.
    fn wide_key(word: u64, pick: u8) -> u128 {
        let id = |w: u64, p: u8| match p % 5 {
            0 => w % 8,
            1 => (1 << 32) + w % 300,
            2 => (w % 4) << 56 | 0x00ab_cdef,
            3 => u64::MAX - w % 3,
            _ => w,
        };
        u128::from(id(word, pick)) << 64 | u128::from(id(word.rotate_left(17), pick / 5))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The radix sort orders exactly as a stable comparison sort:
        /// each record carries its input position, so an unstable or
        /// mis-ordered scatter shows.
        #[test]
        fn matches_a_stable_sort_by_key(
            words in proptest::collection::vec((0u64..u64::MAX, 0u8..25), 0..200),
            one_key in 0u8..4,
        ) {
            let keys: Vec<u128> = if one_key == 0 {
                // Every digit is shared: no pass runs.
                vec![words.first().map_or(5, |&(w, p)| wide_key(w, p)); words.len()]
            } else {
                // Every other record draws from a few keys, so that
                // equal keys are common.
                words.iter().enumerate().map(|(i, &(w, p))| {
                    if i % 2 == 0 { wide_key(w % 3, p % 5) } else { wide_key(w, p) }
                }).collect()
            };
            let recs: Vec<(u128, String)> =
                keys.iter().enumerate().map(|(i, &k)| (k, i.to_string())).collect();
            // A stale scratch, then one left by a longer sort.
            let mut scratch = vec![(7, "stale".to_string())];
            for len in [recs.len(), recs.len() / 2] {
                let mut want = recs[..len].to_vec();
                want.sort_by_key(|r| r.0);
                let mut got = recs[..len].to_vec();
                radix_sort_by_key(&mut got, &mut scratch, |r| r.0);
                prop_assert_eq!(got, want);
                prop_assert!(scratch.is_empty());
            }
        }
    }
}
