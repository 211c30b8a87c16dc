//! Serial reference triangle enumeration.
//!
//! A single-machine, obviously-correct triangle enumerator over [`Csr`],
//! using the same degree ordering `<+` as the distributed engines. It is
//! the oracle every distributed implementation (TriPoll Push-Only,
//! Push-Pull, and all three baselines) is validated against, and it
//! computes the `|T|` column of Table 1 for the dataset stand-ins.

use rayon::prelude::*;
use tripoll_graph::order::OrderKey;
use tripoll_graph::Csr;

/// Enumerates every triangle, invoking `f(p, q, r)` once per triangle
/// with **original** vertex ids ordered `p <+ q <+ r`.
pub fn enumerate_triangles(csr: &Csr, mut f: impl FnMut(u64, u64, u64)) {
    let n = csr.num_vertices();
    let key = |v: usize| OrderKey::new(csr.original_id(v), csr.degree(v) as u64);

    // Out-adjacency under <+, sorted by order key.
    let out: Vec<Vec<usize>> = (0..n)
        .map(|u| {
            let ku = key(u);
            let mut o: Vec<usize> = csr
                .neighbors(u)
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| ku < key(v))
                .collect();
            o.sort_by_key(|&v| key(v));
            o
        })
        .collect();

    for p in 0..n {
        let adj_p = &out[p];
        for (i, &q) in adj_p.iter().enumerate() {
            // Merge-path intersect suffix of Adj+(p) after q with Adj+(q).
            let suffix = &adj_p[i + 1..];
            let adj_q = &out[q];
            let (mut a, mut b) = (0, 0);
            while a < suffix.len() && b < adj_q.len() {
                let (ka, kb) = (key(suffix[a]), key(adj_q[b]));
                match ka.cmp(&kb) {
                    std::cmp::Ordering::Less => a += 1,
                    std::cmp::Ordering::Greater => b += 1,
                    std::cmp::Ordering::Equal => {
                        f(
                            csr.original_id(p),
                            csr.original_id(q),
                            csr.original_id(suffix[a]),
                        );
                        a += 1;
                        b += 1;
                    }
                }
            }
        }
    }
}

/// Counts triangles (one merge pass per pivot vertex).
pub fn triangle_count(csr: &Csr) -> u64 {
    let n = csr.num_vertices();
    let key = |v: usize| OrderKey::new(csr.original_id(v), csr.degree(v) as u64);

    let out: Vec<Vec<usize>> = (0..n)
        .into_par_iter()
        .map(|u| {
            let ku = key(u);
            let mut o: Vec<usize> = csr
                .neighbors(u)
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| ku < key(v))
                .collect();
            o.sort_by_key(|&v| key(v));
            o
        })
        .collect();

    (0..n)
        .into_par_iter()
        .map(|p| {
            let adj_p = &out[p];
            let mut count = 0u64;
            for (i, &q) in adj_p.iter().enumerate() {
                let suffix = &adj_p[i + 1..];
                let adj_q = &out[q];
                let (mut a, mut b) = (0, 0);
                while a < suffix.len() && b < adj_q.len() {
                    match key(suffix[a]).cmp(&key(adj_q[b])) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            count += 1;
                            a += 1;
                            b += 1;
                        }
                    }
                }
            }
            count
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(edges: &[(u64, u64)]) -> u64 {
        triangle_count(&Csr::from_edges(edges))
    }

    #[test]
    fn single_triangle() {
        assert_eq!(count(&[(0, 1), (1, 2), (2, 0)]), 1);
    }

    #[test]
    fn path_has_none() {
        assert_eq!(count(&[(0, 1), (1, 2), (2, 3)]), 0);
    }

    #[test]
    fn complete_graphs() {
        // K_n has C(n,3) triangles.
        for n in 2..=8u64 {
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    edges.push((u, v));
                }
            }
            let expect = n * (n - 1) * (n - 2) / 6;
            assert_eq!(count(&edges), expect, "K{n}");
        }
    }

    #[test]
    fn bowtie() {
        // Two triangles sharing vertex 2.
        assert_eq!(count(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]), 2);
    }

    #[test]
    fn petersen_graph_is_triangle_free() {
        let edges: &[(u64, u64)] = &[
            // outer 5-cycle
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            // spokes
            (0, 5),
            (1, 6),
            (2, 7),
            (3, 8),
            (4, 9),
            // inner pentagram
            (5, 7),
            (7, 9),
            (9, 6),
            (6, 8),
            (8, 5),
        ];
        assert_eq!(count(edges), 0);
    }

    #[test]
    fn duplicate_edges_do_not_inflate() {
        assert_eq!(count(&[(0, 1), (0, 1), (1, 0), (1, 2), (2, 0)]), 1);
    }

    #[test]
    fn enumeration_matches_count_and_orders_vertices() {
        let edges: Vec<(u64, u64)> = vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)];
        let csr = Csr::from_edges(&edges);
        let mut triangles = Vec::new();
        enumerate_triangles(&csr, |p, q, r| triangles.push((p, q, r)));
        assert_eq!(triangles.len() as u64, triangle_count(&csr));
        // K4 on {0,1,2,3} → 4 triangles, each emitted once, each ordered.
        assert_eq!(triangles.len(), 4);
        let deg = |v: u64| csr.degree(csr.csr_index(v).unwrap()) as u64;
        for &(p, q, r) in &triangles {
            let (kp, kq, kr) = (
                OrderKey::new(p, deg(p)),
                OrderKey::new(q, deg(q)),
                OrderKey::new(r, deg(r)),
            );
            assert!(kp < kq && kq < kr, "ordering violated: {p},{q},{r}");
        }
        // No duplicates.
        let mut dedup = triangles.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), triangles.len());
    }

    #[test]
    fn larger_random_ish_graph_sane() {
        // Deterministic pseudo-random graph; cross-check count via the
        // brute-force O(n^3) method.
        let n = 40u64;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if (u * 7919 + v * 104729) % 7 == 0 {
                    edges.push((u, v));
                }
            }
        }
        let csr = Csr::from_edges(&edges);
        let fast = triangle_count(&csr);

        // Brute force on the adjacency.
        let mut brute = 0u64;
        let nn = csr.num_vertices();
        for a in 0..nn {
            for b in (a + 1)..nn {
                if !csr.has_edge(a, b) {
                    continue;
                }
                for c in (b + 1)..nn {
                    if csr.has_edge(a, c) && csr.has_edge(b, c) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(fast, brute);
        assert!(brute > 0, "test graph should contain triangles");
    }
}
