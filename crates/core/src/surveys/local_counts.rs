//! Local triangle participation counts (paper §5.3).
//!
//! "Exceptions are distributed versions of computing truss
//! decompositions, where counts of triangles are desired at edges, and
//! computing clustering coefficient where local counts of triangles are
//! desired at vertices. Callbacks designed for these local participation
//! counts would merely increment local counters." — this module is those
//! callbacks:
//!
//! * [`vertex_triangle_counts`] — triangles incident on each vertex
//!   (the numerator of the local clustering coefficient),
//! * [`edge_triangle_counts`] — triangles supported by each edge (the
//!   support values a k-truss decomposition filters on),
//! * [`clustering_coefficients`] — per-vertex `2·T(v) / (d(v)·(d(v)−1))`.

use tripoll_graph::DistGraph;
use tripoll_ygm::container::DistCountingSet;
use tripoll_ygm::wire::Wire;
use tripoll_ygm::Comm;

use crate::engine::{EngineMode, SurveyReport};
use crate::surveys::survey;

/// Gathered per-edge triangle support: `((min, max), triangles)`.
pub type EdgeSupport = Vec<((u64, u64), u64)>;

/// Counts, for every vertex, the triangles it participates in.
/// Collective; all ranks receive the gathered `(vertex, count)` pairs
/// (vertices participating in no triangle are absent).
pub fn vertex_triangle_counts<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    mode: EngineMode,
) -> (Vec<(u64, u64)>, SurveyReport)
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let counters = DistCountingSet::<u64>::new(comm);
    let counters_cb = counters.clone();
    let report = survey(comm, graph, mode, move |c, tm| {
        c.add_work(3);
        counters_cb.increment(c, tm.p);
        counters_cb.increment(c, tm.q);
        counters_cb.increment(c, tm.r);
    });
    let gathered = counters.gather(comm);
    (gathered, report)
}

/// Counts, for every undirected edge `{min, max}`, the triangles it
/// supports (k-truss support). Collective.
pub fn edge_triangle_counts<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    mode: EngineMode,
) -> (EdgeSupport, SurveyReport)
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let counters = DistCountingSet::<(u64, u64)>::new(comm);
    let counters_cb = counters.clone();
    let report = survey(comm, graph, mode, move |c, tm| {
        c.add_work(3);
        let e = |a: u64, b: u64| (a.min(b), a.max(b));
        counters_cb.increment(c, e(tm.p, tm.q));
        counters_cb.increment(c, e(tm.p, tm.r));
        counters_cb.increment(c, e(tm.q, tm.r));
    });
    let gathered = counters.gather(comm);
    (gathered, report)
}

/// Per-vertex local clustering coefficients,
/// `c(v) = 2·T(v) / (d(v)·(d(v)−1))` (0 for degree < 2). Collective;
/// returns `(vertex, coefficient)` sorted by vertex, covering every
/// vertex of the graph.
pub fn clustering_coefficients<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    mode: EngineMode,
) -> (Vec<(u64, f64)>, SurveyReport)
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let (tri, report) = vertex_triangle_counts(comm, graph, mode);
    let tri: std::collections::HashMap<u64, u64> = tri.into_iter().collect();
    // Degrees live with the owners; gather (id, degree) pairs.
    let mine: Vec<(u64, u64)> = graph
        .shard()
        .vertices()
        .map(|v| (v.id, v.degree()))
        .collect();
    let mut out: Vec<(u64, f64)> = comm
        .all_gather(&mine)
        .into_iter()
        .flatten()
        .map(|(v, d)| {
            let t = tri.get(&v).copied().unwrap_or(0) as f64;
            let pairs = (d * d.saturating_sub(1)) as f64 / 2.0;
            (v, if pairs > 0.0 { t / pairs } else { 0.0 })
        })
        .collect();
    out.sort_unstable_by_key(|a| a.0);
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripoll_graph::{build_dist_graph, EdgeList, Partition};
    use tripoll_ygm::World;

    /// Hash-map view of a gathered count list.
    fn as_map<K: Eq + std::hash::Hash, V>(pairs: Vec<(K, V)>) -> std::collections::HashMap<K, V> {
        pairs.into_iter().collect()
    }

    fn bowtie() -> EdgeList<()> {
        // Two triangles sharing vertex 2: {0,1,2} and {2,3,4}.
        EdgeList::from_vec(vec![
            (0u64, 1u64, ()),
            (1, 2, ()),
            (2, 0, ()),
            (2, 3, ()),
            (3, 4, ()),
            (4, 2, ()),
        ])
    }

    #[test]
    fn vertex_counts_on_bowtie() {
        for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
            let out = World::new(3).run(|comm| {
                let local = bowtie().stride_for_rank(comm.rank(), comm.nranks());
                let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
                vertex_triangle_counts(comm, &g, mode).0
            });
            for gathered in out {
                let m = as_map(gathered);
                assert_eq!(m[&0], 1);
                assert_eq!(m[&1], 1);
                assert_eq!(m[&2], 2, "shared vertex belongs to both triangles");
                assert_eq!(m[&3], 1);
                assert_eq!(m[&4], 1);
            }
        }
    }

    #[test]
    fn edge_counts_on_k4() {
        // K4: every edge supports exactly 2 triangles.
        let mut edges = Vec::new();
        for u in 0..4u64 {
            for v in (u + 1)..4 {
                edges.push((u, v, ()));
            }
        }
        let list = EdgeList::from_vec(edges);
        let out = World::new(2).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            edge_triangle_counts(comm, &g, EngineMode::PushPull).0
        });
        for gathered in out {
            assert_eq!(gathered.len(), 6);
            for ((u, v), c) in gathered {
                assert!(u < v, "edge keys canonical");
                assert_eq!(c, 2, "edge ({u},{v})");
            }
        }
    }

    #[test]
    fn clustering_coefficients_on_known_graph() {
        // Triangle + pendant: c(0)=c(1)=1, c(2)=1/3 (d=3, one of three
        // pairs closed), c(3)=0.
        let list = EdgeList::from_vec(vec![(0u64, 1u64, ()), (1, 2, ()), (2, 0, ()), (2, 3, ())]);
        let out = World::new(2).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            clustering_coefficients(comm, &g, EngineMode::PushPull).0
        });
        for coeffs in out {
            let m: std::collections::HashMap<u64, f64> = coeffs.into_iter().collect();
            assert!((m[&0] - 1.0).abs() < 1e-12);
            assert!((m[&1] - 1.0).abs() < 1e-12);
            assert!((m[&2] - 1.0 / 3.0).abs() < 1e-12);
            assert_eq!(m[&3], 0.0);
        }
    }

    #[test]
    fn vertex_counts_sum_to_three_times_triangles() {
        let edges: Vec<(u64, u64, ())> = (0..30u64)
            .flat_map(|i| {
                [
                    (i, (i + 1) % 30, ()),
                    (i, (i + 2) % 30, ()),
                    (i, (i + 5) % 30, ()),
                ]
            })
            .collect();
        let list = EdgeList::from_vec(edges);
        let out = World::new(3).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let (counts, _) = vertex_triangle_counts(comm, &g, EngineMode::PushOnly);
            let total: u64 = counts.iter().map(|(_, c)| c).sum();
            let (global, _) = crate::surveys::count::triangle_count(comm, &g, EngineMode::PushOnly);
            (total, global)
        });
        for (sum, count) in out {
            assert_eq!(sum, 3 * count);
            assert!(count > 0);
        }
    }
}
