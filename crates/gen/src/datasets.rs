//! Named dataset stand-ins for the paper's evaluation graphs.
//!
//! The real corpora of Table 1 range from 69M to 224B edges — far beyond
//! a development box (and several are multi-TB downloads). Each function
//! here produces a *scaled-down synthetic stand-in* that preserves the
//! structural property the paper's experiments exercise on that graph:
//!
//! | Paper graph          | Property preserved                           | Stand-in |
//! |----------------------|----------------------------------------------|----------|
//! | LiveJournal          | community-rich social, moderate hubs         | community model, γ=2.5 |
//! | Friendster           | social with *mild* hubs (`d_max/|V| ≈ 8e-5`) — the graph where Push-Pull barely wins (Tab. 4) | community model, γ=2.9 |
//! | Twitter              | extreme hubs (`d_max/|V| ≈ 0.07`)            | community model, γ=2.05, low intra |
//! | uk-2007-05           | domain-local web crawl, very triangle-dense  | web model, high intra |
//! | web-cc12-hostgraph   | host graph: dense, huge hubs — Push-Pull's best case (>10x traffic cut) | web model, dense + hub-heavy |
//! | Web Data Commons 2012| page-level web at largest scale + FQDN strings | web model, largest preset |
//! | Reddit               | temporal comment graph, bursty timestamps    | reddit model |
//!
//! The real graphs' published statistics (Table 1; `|E|` counts directed
//! edges after symmetrization):
//!
//! | Paper graph          | `|V|`  | `|E|`  | `|T|`  | `d_max` | `d_max+` |
//! |----------------------|--------|--------|--------|---------|----------|
//! | LiveJournal          | 4.85M  | 69.0M  | 286M   | 20 333  | 686      |
//! | Friendster           | 66M    | 3.6B   | 4.2B   | 5 214   | 868      |
//! | Twitter              | 42M    | 2.4B   | 34.8B  | 3.0M    | 4 102    |
//! | uk-2007-05           | 106M   | 6.6B   | 286.7B | 975K    | 5 704    |
//! | web-cc12-hostgraph   | 101M   | 3.8B   | 415B   | 3.0M    | 10 654   |
//! | Web Data Commons 2012| 3.56B  | 224.5B | 9.65T  | 95M     | 10 683   |
//! | Reddit               | 835M   | 9.4B   | 88.1B  | 1.70M   | 3 301    |
//!
//! Every stand-in has a vertex count on the order of 1.5k and is
//! deterministic in its seed, so experiments are reproducible
//! run-to-run.

use tripoll_graph::EdgeList;

use crate::reddit::{reddit_edges, RedditConfig};
use crate::social::{community_social_edges, CommunityConfig, CrossModel};
use crate::webgraph::{web_graph, WebGraph, WebGraphConfig};

/// Base vertex count of every stand-in: small enough that a debug-build
/// test surveys one in well under a second.
const BASE_VERTICES: u64 = 1_500;

/// A topology-only dataset stand-in.
#[derive(Debug, Clone)]
pub struct TopoDataset {
    /// Stand-in name (matches the paper's dataset name).
    pub name: &'static str,
    /// Undirected edge records (not yet canonicalized).
    pub edges: Vec<(u64, u64)>,
}

impl TopoDataset {
    /// Canonical edge list with unit metadata.
    pub fn edge_list(&self) -> EdgeList<()> {
        EdgeList::from_vec(self.edges.iter().map(|&(u, v)| (u, v, ())).collect()).canonicalize()
    }
}

/// LiveJournal stand-in (paper: 4.85M vertices, 69M edges, 286M triangles).
pub fn livejournal_like(seed: u64) -> TopoDataset {
    let v = BASE_VERTICES;
    TopoDataset {
        name: "LiveJournal",
        edges: community_social_edges(&CommunityConfig {
            vertices: v,
            edges: v * 8,
            mean_community: 25,
            intra_fraction: 0.65,
            cross: CrossModel::ChungLu { exponent: 2.5 },
            seed,
        }),
    }
}

/// Friendster stand-in (66M vertices, 3.6B edges; mild hubs — the graph
/// where the Push-Pull dry-run does not pay for itself in Table 4).
pub fn friendster_like(seed: u64) -> TopoDataset {
    let v = BASE_VERTICES;
    TopoDataset {
        name: "Friendster",
        edges: community_social_edges(&CommunityConfig {
            vertices: v,
            edges: v * 5,
            mean_community: 90,
            intra_fraction: 0.4,
            cross: CrossModel::Uniform,
            seed,
        }),
    }
}

/// Twitter stand-in (42M vertices, 2.4B edges, d_max 3M — extreme hubs).
pub fn twitter_like(seed: u64) -> TopoDataset {
    let v = BASE_VERTICES;
    TopoDataset {
        name: "Twitter",
        edges: community_social_edges(&CommunityConfig {
            vertices: v,
            edges: v * 10,
            mean_community: 30,
            intra_fraction: 0.2,
            cross: CrossModel::ChungLu { exponent: 2.2 },
            seed,
        }),
    }
}

/// uk-2007-05 stand-in (106M vertices, 6.6B edges, 286.7B triangles —
/// domain-local crawl).
pub fn uk2007_like(seed: u64) -> WebGraph {
    let v = BASE_VERTICES;
    web_graph(&WebGraphConfig {
        domains: (v / 45).max(8),
        pages_per_domain_mean: 34,
        edges: v * 12,
        intra_fraction: 0.78,
        popularity_power: 1.4,
        seed,
    })
}

/// web-cc12-hostgraph stand-in (101M hosts, 3.8B edges, 415B triangles,
/// d_max 3.0M — the Push-Pull best case of Table 4).
pub fn webcc12_like(seed: u64) -> WebGraph {
    let v = BASE_VERTICES;
    web_graph(&WebGraphConfig {
        domains: (v / 10).max(8),
        pages_per_domain_mean: 8,
        edges: v * 20,
        intra_fraction: 0.4,
        popularity_power: 2.4,
        seed,
    })
}

/// Web Data Commons 2012 stand-in (3.56B pages, 224.5B edges, 9.65T
/// triangles; FQDN strings on every vertex).
pub fn wdc_like(seed: u64) -> WebGraph {
    let v = BASE_VERTICES;
    web_graph(&WebGraphConfig {
        domains: (v / 20).max(10),
        pages_per_domain_mean: 15,
        edges: v * 13,
        intra_fraction: 0.68,
        popularity_power: 1.6,
        seed,
    })
}

/// Reddit stand-in (835M authors, 9.4B deduplicated edges, timestamps).
pub fn reddit_like(seed: u64) -> EdgeList<u64> {
    let v = BASE_VERTICES;
    reddit_edges(&RedditConfig {
        users: v,
        comments: v * 12,
        seed,
        ..Default::default()
    })
}

/// The four graphs of the paper's Table 2 comparison.
pub fn table2_suite(seed: u64) -> Vec<TopoDataset> {
    vec![
        livejournal_like(seed),
        friendster_like(seed + 1),
        twitter_like(seed + 2),
        TopoDataset {
            name: "Web Data Commons",
            edges: wdc_like(seed + 3).edges,
        },
    ]
}

/// The four graphs of the paper's strong-scaling studies (Fig. 4, Tab. 4).
pub fn table4_suite(seed: u64) -> Vec<TopoDataset> {
    vec![
        friendster_like(seed + 1),
        twitter_like(seed + 2),
        TopoDataset {
            name: "uk-2007-05",
            edges: uk2007_like(seed + 4).edges,
        },
        TopoDataset {
            name: "web-cc12-hostgraph",
            edges: webcc12_like(seed + 5).edges,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripoll_graph::Csr;

    fn dmax_of(edges: &[(u64, u64)]) -> (u64, u64) {
        let csr = Csr::from_edges(edges);
        let dmax = csr.max_degree() as u64;
        (dmax, csr.num_vertices() as u64)
    }

    #[test]
    fn suites_have_expected_members() {
        let t2 = table2_suite(1);
        assert_eq!(
            t2.iter().map(|d| d.name).collect::<Vec<_>>(),
            vec!["LiveJournal", "Friendster", "Twitter", "Web Data Commons"]
        );
        let t4 = table4_suite(1);
        assert_eq!(
            t4.iter().map(|d| d.name).collect::<Vec<_>>(),
            vec!["Friendster", "Twitter", "uk-2007-05", "web-cc12-hostgraph"]
        );
    }

    #[test]
    fn twitter_hubs_dwarf_friendster_hubs() {
        // The defining contrast of the paper's dataset mix.
        let tw = twitter_like(3);
        let fr = friendster_like(3);
        let (tw_dmax, tw_n) = dmax_of(&tw.edges);
        let (fr_dmax, fr_n) = dmax_of(&fr.edges);
        let tw_ratio = tw_dmax as f64 / tw_n as f64;
        let fr_ratio = fr_dmax as f64 / fr_n as f64;
        assert!(
            tw_ratio > 3.0 * fr_ratio,
            "twitter dmax ratio {tw_ratio:.4} vs friendster {fr_ratio:.4}"
        );
    }

    #[test]
    fn all_standins_have_triangles() {
        for d in table2_suite(7) {
            let t = tripoll_analysis::triangle_count(&Csr::from_edges(&d.edges));
            assert!(t > 50, "{} has only {t} triangles", d.name);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = livejournal_like(9);
        let b = livejournal_like(9);
        assert_eq!(a.edges, b.edges);
        let c = livejournal_like(10);
        assert_ne!(a.edges, c.edges);
    }

    #[test]
    fn edge_list_canonicalizes() {
        let d = livejournal_like(2);
        let list = d.edge_list();
        // No duplicates, no self-loops, canonical orientation.
        for w in list.as_slice().windows(2) {
            assert!((w[0].0, w[0].1) < (w[1].0, w[1].1));
        }
        for (u, v, _) in list.as_slice() {
            assert!(u < v);
        }
    }
}
