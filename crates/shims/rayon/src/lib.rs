//! Offline stand-in for the subset of `rayon` this workspace uses.
//!
//! The container has no crates.io access, so this shim provides the
//! rayon method names its three callers need — `into_par_iter` with
//! `map` / `flat_map_iter` / `collect` / `sum`, and
//! `par_sort_unstable` — executed **sequentially** on the calling
//! thread. In this workspace a rank is already a thread, so the rank
//! is the unit of parallelism; nothing here adds a second layer.
//!
//! Every adapter preserves input order, so results are identical to
//! real rayon's for these call sites. Closure and item bounds mirror
//! real rayon (`Fn + Sync`, items `Send`), so swapping the real crate
//! back in is a one-line Cargo.toml change.

/// The rayon prelude: traits that add `par_*` methods.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSliceMut};
}

/// A materialized "parallel" iterator: adapters execute eagerly, in
/// order, on the calling thread.
pub struct Par<T>(Vec<T>);

impl<T: Send> Par<T> {
    /// Maps each item.
    pub fn map<B, F>(self, f: F) -> Par<B>
    where
        B: Send,
        F: Fn(T) -> B + Sync,
    {
        Par(self.0.into_iter().map(f).collect())
    }

    /// Flat-maps each item through a serial iterator (rayon's
    /// `flat_map_iter`).
    pub fn flat_map_iter<U, F>(self, f: F) -> Par<U::Item>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(T) -> U + Sync,
    {
        Par(self.0.into_iter().flat_map(f).collect())
    }

    /// Collects into a container.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.0.into_iter().collect()
    }

    /// Sums the items.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T> + std::iter::Sum<S> + Send,
    {
        self.0.into_iter().sum()
    }
}

/// Types convertible into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item;
    /// Converts `self` (materializing the source).
    fn into_par_iter(self) -> Par<Self::Item>;
}

impl<T: IntoIterator> IntoParallelIterator for T {
    type Item = T::Item;
    fn into_par_iter(self) -> Par<T::Item> {
        Par(self.into_iter().collect())
    }
}

/// Slice sorting with rayon's `par_sort*` names.
pub trait ParallelSliceMut<T> {
    /// Unstable sort.
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Send;
}

impl<T> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable(&mut self)
    where
        T: Ord + Send,
    {
        self.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_pipeline_matches_serial() {
        let out: Vec<u64> = (0..10u64)
            .into_par_iter()
            .flat_map_iter(|i| (0..i).map(move |j| i * 10 + j))
            .collect();
        let expect: Vec<u64> = (0..10u64)
            .flat_map(|i| (0..i).map(move |j| i * 10 + j))
            .collect();
        assert_eq!(out, expect);

        let mut v = vec![5, 3, 9, 1];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 3, 5, 9]);

        let s: u64 = (0..100u64).into_par_iter().map(|x| x * 2).sum();
        assert_eq!(s, 9900);
    }

    #[test]
    fn large_pipeline_preserves_order_and_results() {
        let n = 100_000u64;
        let out: Vec<u64> = (0..n)
            .into_par_iter()
            .map(|x| x.wrapping_mul(2654435761))
            .collect();
        let expect: Vec<u64> = (0..n).map(|x| x.wrapping_mul(2654435761)).collect();
        assert_eq!(out, expect);
        let sum: u64 = (0..n).into_par_iter().map(|x| x % 97).sum();
        let expect_sum: u64 = (0..n).map(|x| x % 97).sum();
        assert_eq!(sum, expect_sum);
    }

    #[test]
    fn large_sorts_match_std() {
        let mut a: Vec<u64> = (0..200_000u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let mut b = a.clone();
        a.par_sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
