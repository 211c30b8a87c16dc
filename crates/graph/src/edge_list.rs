//! Edge-list ingest utilities.
//!
//! Generators and file readers produce flat `(u, v, meta)` records; these
//! helpers canonicalize them the way the paper's datasets are prepared
//! (§5.2): graphs are treated as undirected, self-loops dropped, parallel
//! edges collapsed, and edge counts reported as *directed* edges after
//! symmetrization (nonzeros of the symmetrized adjacency matrix).

use crate::radix::{pair_key, radix_sort_by_key};

/// A list of undirected edges with metadata of type `EM`.
#[derive(Debug, Clone, Default)]
pub struct EdgeList<EM> {
    edges: Vec<(u64, u64, EM)>,
}

impl<EM> EdgeList<EM> {
    /// Creates an empty list.
    pub fn new() -> Self {
        EdgeList { edges: Vec::new() }
    }

    /// Creates a list from raw records (kept as given).
    pub fn from_vec(edges: Vec<(u64, u64, EM)>) -> Self {
        EdgeList { edges }
    }

    /// Appends an edge.
    pub fn push(&mut self, u: u64, v: u64, meta: EM) {
        self.edges.push((u, v, meta));
    }

    /// Number of records currently held (before canonicalization this may
    /// include duplicates and self-loops).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Borrowed view of the records.
    pub fn as_slice(&self) -> &[(u64, u64, EM)] {
        &self.edges
    }

    /// Consumes the list, returning the records.
    pub fn into_vec(self) -> Vec<(u64, u64, EM)> {
        self.edges
    }

    /// Removes self-loops and collapses parallel edges, keeping each
    /// undirected edge exactly once as `(min(u,v), max(u,v), meta)`.
    ///
    /// When duplicates carry different metadata the first record with
    /// the least `key` wins — the Reddit preparation in §5.2 ("keeps the
    /// chronologically-first comment") is `canonicalize_by(|m| timestamp)`.
    /// A stable radix sort groups the records by `(u, v)`; `key` is then
    /// called at most once per record, and never for an edge recorded
    /// once.
    pub fn canonicalize_by<K: Ord>(mut self, key: impl Fn(&EM) -> K) -> Self {
        self.edges.retain(|(u, v, _)| u != v);
        for e in &mut self.edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        radix_sort_by_key(&mut self.edges, &mut Vec::new(), |e| pair_key(e.0, e.1));
        // Each run of equal `(u, v)` keeps its best record, swapped down
        // to `kept`; what it displaced is left inside the run.
        let mut kept = 0;
        let mut at = 0;
        while at < self.edges.len() {
            let edge = (self.edges[at].0, self.edges[at].1);
            let run = self.edges[at..]
                .iter()
                .take_while(|e| (e.0, e.1) == edge)
                .count();
            let mut best = at;
            if run > 1 {
                let mut best_key = key(&self.edges[at].2);
                for i in at + 1..at + run {
                    let k = key(&self.edges[i].2);
                    if k < best_key {
                        (best, best_key) = (i, k);
                    }
                }
            }
            self.edges.swap(kept, best);
            kept += 1;
            at += run;
        }
        self.edges.truncate(kept);
        self
    }

    /// [`Self::canonicalize_by`] with arbitrary duplicate choice (fine when
    /// duplicates never differ in metadata, e.g. topology-only graphs).
    pub fn canonicalize(self) -> Self {
        self.canonicalize_by(|_| 0u8)
    }

    /// This rank's share of the records under a strided decomposition —
    /// the SPMD idiom for feeding a deterministic global list into a
    /// distributed build.
    pub fn stride_for_rank(&self, rank: usize, nranks: usize) -> Vec<(u64, u64, EM)>
    where
        EM: Clone,
    {
        self.edges
            .iter()
            .skip(rank)
            .step_by(nranks)
            .cloned()
            .collect()
    }

    /// Number of distinct vertices touched by the records.
    pub fn vertex_count(&self) -> usize {
        let mut ids: Vec<u64> = self.edges.iter().flat_map(|(u, v, _)| [*u, *v]).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalize_removes_self_loops_and_duplicates() {
        let list = EdgeList::from_vec(vec![
            (1u64, 2u64, ()),
            (2, 1, ()),
            (3, 3, ()),
            (2, 3, ()),
            (1, 2, ()),
        ])
        .canonicalize();
        assert_eq!(list.as_slice(), &[(1, 2, ()), (2, 3, ())]);
    }

    /// The rule before the radix grouping, kept as the oracle: a stable
    /// sort by `(u, v)` then `key`, and the first of each run.
    fn canonicalize_by_sorting<EM, K: Ord>(
        mut edges: Vec<(u64, u64, EM)>,
        key: impl Fn(&EM) -> K,
    ) -> Vec<(u64, u64, EM)> {
        edges.retain(|(u, v, _)| u != v);
        for e in &mut edges {
            if e.0 > e.1 {
                std::mem::swap(&mut e.0, &mut e.1);
            }
        }
        edges.sort_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then_with(|| key(&a.2).cmp(&key(&b.2)))
        });
        edges.dedup_by(|next, first| (next.0, next.1) == (first.0, first.1));
        edges
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]
        /// Each record carries its input position next to a key drawn
        /// from a few values, so equal keys are common and the kept
        /// record shows whether input order broke the tie.
        #[test]
        fn canonicalize_by_keeps_first_by_key(
            raw in proptest::collection::vec((0u8..6, 0u8..6, 0u8..3, 0u8..16), 0..120),
        ) {
            let id = |pick: u8, wide: u8| match wide {
                0 => u64::from(pick),
                1 => (1 << 32) + u64::from(pick),
                2 => u64::from(pick) << 56,
                _ => u64::MAX - u64::from(pick),
            };
            let edges: Vec<(u64, u64, (u8, usize))> = raw
                .iter()
                .enumerate()
                .map(|(i, &(u, v, key, wide))| (id(u, wide % 4), id(v, wide / 4), (key, i)))
                .collect();
            let want = canonicalize_by_sorting(edges.clone(), |m| m.0);
            let got = EdgeList::from_vec(edges).canonicalize_by(|m| m.0).into_vec();
            proptest::prop_assert_eq!(got, want);
            // Reddit-style: keep the chronologically-first edge.
            let list = EdgeList::from_vec(vec![(2u64, 1u64, 50u64), (1, 2, 10), (1, 2, 99)])
                .canonicalize_by(|t| *t);
            proptest::prop_assert_eq!(list.as_slice(), &[(1, 2, 10)]);
        }
    }

    #[test]
    fn stride_partitions_cover_all_edges() {
        let list = EdgeList::from_vec((0..10u64).map(|i| (i, i + 1, i)).collect::<Vec<_>>());
        let nranks = 3;
        let mut all: Vec<_> = (0..nranks)
            .flat_map(|r| list.stride_for_rank(r, nranks))
            .collect();
        all.sort();
        assert_eq!(all.len(), 10);
        assert_eq!(all, list.into_vec());
    }

    #[test]
    fn vertex_count() {
        let list = EdgeList::from_vec(vec![(5u64, 9u64, ()), (9, 7, ()), (5, 9, ())]);
        assert_eq!(list.vertex_count(), 3);
    }

    #[test]
    fn empty_list() {
        let list: EdgeList<()> = EdgeList::new().canonicalize();
        assert!(list.is_empty());
        assert_eq!(list.vertex_count(), 0);
    }
}
