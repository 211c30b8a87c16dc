//! R-MAT graph generator (Chakrabarti, Zhan, Faloutsos 2004).
//!
//! The paper's weak-scaling studies (§5.5, §5.9) use R-MAT graphs "up to
//! scale 32", one scale-24 instance per compute node. This generator
//! produces the same family: `2^scale` vertices, `edge_factor · 2^scale`
//! undirected edges drawn by recursive quadrant descent with the
//! (a,b,c,d) probabilities, Graph500-style parameters by default, and
//! optional vertex scrambling so vertex id gives no locality hint.
//!
//! Generation is deterministic in `seed` and chunked: each chunk of
//! edges derives its own stream from the seed, so the output does not
//! depend on how the chunks are scheduled.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use tripoll_ygm::hash::hash64;

/// R-MAT parameters.
#[derive(Debug, Clone)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Edges generated per vertex (Graph500 uses 16).
    pub edge_factor: u32,
    /// Quadrant probability `a` (top-left).
    pub a: f64,
    /// Quadrant probability `b` (top-right).
    pub b: f64,
    /// Quadrant probability `c` (bottom-left).
    pub c: f64,
    /// RNG seed; equal seeds give identical graphs.
    pub seed: u64,
    /// Permute vertex ids by a hash so degree correlates with nothing.
    pub scramble: bool,
}

impl RmatConfig {
    /// Graph500-flavored defaults: a=0.57, b=c=0.19, d=0.05, ef=16.
    pub fn graph500(scale: u32, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed,
            scramble: true,
        }
    }

    /// Number of vertices, `2^scale`.
    pub fn vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of generated edge records.
    fn edge_records(&self) -> u64 {
        u64::from(self.edge_factor) << self.scale
    }
}

/// Generates the edge records of an R-MAT graph (undirected, may contain
/// duplicates and self-loops; canonicalize before building).
pub fn rmat_edges(cfg: &RmatConfig) -> Vec<(u64, u64)> {
    assert!(cfg.scale > 0 && cfg.scale < 40, "scale out of range");
    assert!(
        cfg.a > 0.0 && cfg.b >= 0.0 && cfg.c >= 0.0 && cfg.a + cfg.b + cfg.c < 1.0,
        "quadrant probabilities must leave d > 0"
    );
    let n_edges = cfg.edge_records() as usize;
    let mask = cfg.vertices() - 1;

    const CHUNK: usize = 1 << 14;
    let chunks = n_edges.div_ceil(CHUNK);
    (0..chunks)
        .into_par_iter()
        .flat_map_iter(|chunk| {
            let mut rng = StdRng::seed_from_u64(hash64(cfg.seed ^ (chunk as u64)));
            let count = CHUNK.min(n_edges - chunk * CHUNK);
            let (scale, scramble) = (cfg.scale, cfg.scramble);
            // The quadrant thresholds ascend (`b, c >= 0`), so three
            // comparisons pick the quadrant the `x < t` chain would: one
            // draw per level, the same stream.
            let (a, ab, abc) = (cfg.a, cfg.a + cfg.b, cfg.a + cfg.b + cfg.c);
            (0..count).map(move |_| {
                let (mut u, mut v) = (0u64, 0u64);
                for _level in 0..scale {
                    let x: f64 = rng.random();
                    let du = x >= ab;
                    let dv = ((x >= a) & (x < ab)) | (x >= abc);
                    u = (u << 1) | u64::from(du);
                    v = (v << 1) | u64::from(dv);
                }
                if scramble {
                    (hash64(u) & mask, hash64(v) & mask)
                } else {
                    (u, v)
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `hash64` fold over every record, in output order.
    fn fingerprint(edges: &[(u64, u64)]) -> u64 {
        edges.iter().fold(0, |h, &(u, v)| hash64(hash64(h ^ u) ^ v))
    }

    #[test]
    fn rmat_benchmark_shape_is_pinned() {
        // The `rmat_pull` workload's graph at seed 42.
        let edges = rmat_edges(&RmatConfig::graph500(13, hash64(42)));
        assert_eq!(edges.len(), 131_072);
        assert_eq!(fingerprint(&edges), 8_777_433_862_960_774_269);
    }

    #[test]
    fn deterministic_in_seed() {
        let cfg = RmatConfig::graph500(8, 42);
        let edges = rmat_edges(&cfg);
        assert_eq!(edges.len(), 4_096);
        assert_eq!(fingerprint(&edges), 15_793_815_058_076_185_951);
        let other = RmatConfig::graph500(8, 43);
        assert_ne!(edges, rmat_edges(&other));
    }

    #[test]
    fn sizes_match_config() {
        let cfg = RmatConfig::graph500(10, 1);
        let edges = rmat_edges(&cfg);
        assert_eq!(edges.len() as u64, cfg.edge_records());
        let n = cfg.vertices();
        for &(u, v) in &edges {
            assert!(u < n && v < n);
        }
    }

    #[test]
    fn degree_distribution_is_skewed() {
        // R-MAT graphs are scale-free-ish: the max degree must far exceed
        // the average degree (2 * edge_factor = 32).
        let cfg = RmatConfig::graph500(12, 7);
        let edges = rmat_edges(&cfg);
        let mut deg = vec![0u64; cfg.vertices() as usize];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let dmax = *deg.iter().max().unwrap();
        assert!(dmax > 200, "dmax={dmax}, expected heavy tail");
    }

    #[test]
    fn scramble_changes_ids_not_structure() {
        let mut cfg = RmatConfig::graph500(8, 5);
        cfg.scramble = false;
        let plain = rmat_edges(&cfg);
        cfg.scramble = true;
        let scrambled = rmat_edges(&cfg);
        assert_eq!(plain.len(), scrambled.len());
        assert_ne!(plain, scrambled);
        // Scrambling is a bijection of the id space: per-edge it maps
        // (u,v) -> (h(u)&m, h(v)&m)... the multiset of hashed plain edges
        // must equal the scrambled edges.
        let mask = cfg.vertices() - 1;
        let mut a: Vec<(u64, u64)> = plain
            .iter()
            .map(|&(u, v)| (hash64(u) & mask, hash64(v) & mask))
            .collect();
        let mut b = scrambled.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "quadrant probabilities")]
    fn rejects_bad_probabilities() {
        let mut cfg = RmatConfig::graph500(8, 1);
        cfg.a = 0.6;
        cfg.b = 0.3;
        cfg.c = 0.2;
        rmat_edges(&cfg);
    }

    #[test]
    fn triangles_exist_at_moderate_scale() {
        let cfg = RmatConfig::graph500(10, 3);
        let edges = rmat_edges(&cfg);
        let csr = tripoll_graph::Csr::from_edges(&edges);
        let t = tripoll_analysis::triangle_count(&csr);
        assert!(
            t > 1000,
            "R-MAT scale 10 should have many triangles, got {t}"
        );
    }
}
