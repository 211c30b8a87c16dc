//! Domain-structured web-graph generator with FQDN string metadata.
//!
//! Stand-in for the paper's web corpora (uk-2007-05, web-cc12-hostgraph,
//! Web Data Commons 2012 — §5.2) and substrate of the FQDN survey
//! (§5.8, Fig. 8). The generator plants the structural properties the
//! evaluation depends on:
//!
//! * **Domain locality** — pages belong to domains; most links stay
//!   inside a domain and revolve around its index page, which makes the
//!   graphs extremely triangle-dense (WDC 2012: 9.65T triangles from
//!   224B edges) and gives Push-Pull its aggregation opportunities (many
//!   co-located sources pushing candidates at the same few targets —
//!   the regime where Table 4 shows >10x traffic reduction).
//! * **Hub pages** — cross-domain links target popular domains' index
//!   pages, producing the `d_max ≈ 3M` web hubs of Table 1.
//! * **A planted community story** — special domains reproduce Fig. 8's
//!   narrative: an `amazon.example` retail family, the competing
//!   bookseller `abebooks.example`, and an education/library community
//!   that co-links with booksellers.
//!
//! FQDNs are materialized as real `String`s (not interned labels), like
//! the paper, which stores C++ strings to exercise the serialization
//! layer's variable-length payloads.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tripoll_ygm::hash::hash64;

/// Names of the planted domains (index 0 is the Fig. 8 hub).
pub const PLANTED_DOMAINS: &[&str] = &[
    "amazon.example",
    "amazon.co.example",
    "amazon-media.example",
    "audible.example",
    "abebooks.example",
    "lib0.edu.example",
    "lib1.edu.example",
    "lib2.edu.example",
    "lib3.edu.example",
    "university.edu.example",
];

/// Web graph configuration.
#[derive(Debug, Clone)]
pub struct WebGraphConfig {
    /// Generic domains in addition to the planted ones.
    pub domains: u64,
    /// Mean pages per domain (sizes are heavy-tailed around this).
    pub pages_per_domain_mean: u64,
    /// Edge records to draw.
    pub edges: u64,
    /// Fraction of edges inside a single domain.
    pub intra_fraction: f64,
    /// Exponent applied to domain size when choosing cross-domain link
    /// targets: higher concentrates links on the top domains' index
    /// pages (bigger hubs, stronger Push-Pull aggregation).
    pub popularity_power: f64,
    /// RNG seed.
    pub seed: u64,
}

/// Page-to-domain metadata shared by all ranks.
#[derive(Debug)]
struct WebMeta {
    /// Domain index of each page.
    domain_of_page: Vec<u32>,
    /// FQDN of each domain.
    domain_names: Vec<String>,
}

/// A generated web graph: topology plus the page→FQDN mapping.
#[derive(Debug, Clone)]
pub struct WebGraph {
    /// Undirected edge records (may contain duplicates; canonicalize).
    pub edges: Vec<(u64, u64)>,
    meta: Arc<WebMeta>,
}

impl WebGraph {
    /// Number of pages (vertices).
    pub fn vertices(&self) -> u64 {
        self.meta.domain_of_page.len() as u64
    }

    /// Number of domains (planted + generic).
    pub fn num_domains(&self) -> usize {
        self.meta.domain_names.len()
    }

    /// FQDN of page `v`.
    pub fn fqdn(&self, v: u64) -> &str {
        &self.meta.domain_names[self.meta.domain_of_page[v as usize] as usize]
    }

    /// A cheap, clonable, thread-safe `v → FQDN` function for
    /// `build_dist_graph`'s `vm_fn`.
    pub fn fqdn_fn(&self) -> impl Fn(u64) -> String + Clone + Send + Sync + 'static {
        let meta = Arc::clone(&self.meta);
        move |v: u64| meta.domain_names[meta.domain_of_page[v as usize] as usize].clone()
    }
}

/// Generates a web graph.
pub fn web_graph(cfg: &WebGraphConfig) -> WebGraph {
    assert!(cfg.domains >= 4, "need a few generic domains");
    assert!((0.0..=1.0).contains(&cfg.intra_fraction));
    let mut rng = StdRng::seed_from_u64(hash64(cfg.seed ^ 0x5eb_c0de));

    // ---- Domains & pages ------------------------------------------------
    let planted = PLANTED_DOMAINS.len();
    let total_domains = planted + cfg.domains as usize;
    let mut domain_names: Vec<String> = PLANTED_DOMAINS.iter().map(|s| s.to_string()).collect();
    let tlds = ["example", "com.example", "org.example", "net.example"];
    for d in 0..cfg.domains {
        let tld = tlds[(hash64(d ^ cfg.seed) % tlds.len() as u64) as usize];
        domain_names.push(format!("site{d}.{tld}"));
    }

    // Heavy-tailed domain sizes; planted retail domains get large sizes
    // so they become hubs of the link distribution.
    let mut sizes: Vec<u64> = Vec::with_capacity(total_domains);
    for d in 0..total_domains {
        let boost = if d < planted { 4.0 } else { 1.0 };
        let u: f64 = rng.random::<f64>().max(1e-9);
        let size = (cfg.pages_per_domain_mean as f64 * boost * u.powf(-0.5)).ceil() as u64;
        sizes.push(size.clamp(2, cfg.pages_per_domain_mean * 50));
    }

    let mut domain_of_page = Vec::new();
    let mut index_page = Vec::with_capacity(total_domains);
    for (d, &size) in sizes.iter().enumerate() {
        index_page.push(domain_of_page.len() as u64);
        domain_of_page.extend(std::iter::repeat_n(d as u32, size as usize));
    }
    let n_pages = domain_of_page.len() as u64;
    let page_range = |d: usize| index_page[d]..index_page[d] + sizes[d];

    // Popularity for cross-domain targeting: size^1.5, planted boosted.
    let mut cum_pop = Vec::with_capacity(total_domains);
    let mut total_pop = 0.0;
    for (d, &size) in sizes.iter().enumerate() {
        let boost = if d < planted { 3.0 } else { 1.0 };
        total_pop += (size as f64).powf(cfg.popularity_power) * boost;
        cum_pop.push(total_pop);
    }
    let pick_domain = |rng: &mut StdRng| -> usize {
        let x: f64 = rng.random::<f64>() * total_pop;
        cum_pop.partition_point(|&c| c < x)
    };

    // ---- Edges ----------------------------------------------------------
    let mut edges: Vec<(u64, u64)> = Vec::with_capacity(cfg.edges as usize + 256);
    let n_intra = (cfg.edges as f64 * cfg.intra_fraction) as u64;

    // Intra-domain: half navigation links (index ↔ page), half page ↔
    // page — together every page-page link closes a triangle through the
    // index page.
    for _ in 0..n_intra {
        let d = pick_domain(&mut rng);
        let r = page_range(d);
        if rng.random::<f64>() < 0.5 {
            let p = rng.random_range(r.clone());
            edges.push((index_page[d], p));
        } else {
            let p = rng.random_range(r.clone());
            let q = rng.random_range(r);
            edges.push((p, q));
        }
    }

    // Cross-domain: source page anywhere, target the index page of a
    // popular domain (hub formation).
    for _ in 0..(cfg.edges - n_intra) {
        let s = rng.random_range(0..n_pages);
        let d = pick_domain(&mut rng);
        edges.push((s, index_page[d]));
    }

    // ---- Planted communities (Fig. 8 narrative) --------------------------
    let relate = |edges: &mut Vec<(u64, u64)>, rng: &mut StdRng, a: usize, b: usize, k: u64| {
        edges.push((index_page[a], index_page[b]));
        for _ in 0..k {
            let pa = rng.random_range(page_range(a));
            let pb = rng.random_range(page_range(b));
            edges.push((pa, pb));
        }
    };
    // Planted three-domain triangles: pages of three domains wired into
    // an actual triangle, so the FQDN tuple (A, B, C) appears in the
    // survey with weight `k` — the raw material of Fig. 8's communities.
    let plant_triangles =
        |edges: &mut Vec<(u64, u64)>, rng: &mut StdRng, a: usize, b: usize, c: usize, k: u64| {
            for _ in 0..k {
                let pa = rng.random_range(page_range(a));
                let pb = rng.random_range(page_range(b));
                let pc = rng.random_range(page_range(c));
                edges.push((pa, pb));
                edges.push((pb, pc));
                edges.push((pa, pc));
            }
        };
    // Amazon family cross-links + family triangles.
    for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
        relate(&mut edges, &mut rng, a, b, 12);
    }
    for (a, b, c) in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)] {
        plant_triangles(&mut edges, &mut rng, a, b, c, 10);
    }
    // Competitor co-linking: external pages link to both amazon and
    // abebooks (the "same product at the competing retailer" pattern).
    for _ in 0..48 {
        let s = rng.random_range(0..n_pages);
        edges.push((s, index_page[0]));
        edges.push((s, index_page[4]));
    }
    edges.push((index_page[0], index_page[4]));
    // Library/education community, tied to the bookseller: pairwise
    // links plus dense three-way triangles over {abebooks, libs, uni}.
    for a in 5..=9usize {
        relate(&mut edges, &mut rng, a, 4, 8);
        for b in (a + 1)..=9 {
            relate(&mut edges, &mut rng, a, b, 6);
        }
    }
    for a in 4..=9usize {
        for b in (a + 1)..=9 {
            for c in (b + 1)..=9 {
                plant_triangles(&mut edges, &mut rng, a, b, c, 8);
            }
        }
    }

    WebGraph {
        edges,
        meta: Arc::new(WebMeta {
            domain_of_page,
            domain_names,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tripoll_graph::Csr;

    /// The index page (first page) of a named domain, if the domain
    /// exists.
    fn index_page_of(g: &WebGraph, fqdn: &str) -> Option<u64> {
        let d = g.meta.domain_names.iter().position(|d| d == fqdn)?;
        let page = g
            .meta
            .domain_of_page
            .iter()
            .position(|&p| p as usize == d)?;
        Some(page as u64)
    }

    fn small() -> WebGraphConfig {
        WebGraphConfig {
            domains: 40,
            pages_per_domain_mean: 12,
            edges: 12_000,
            intra_fraction: 0.6,
            popularity_power: 1.5,
            seed: 77,
        }
    }

    #[test]
    fn deterministic() {
        let a = web_graph(&small());
        let b = web_graph(&small());
        assert_eq!(a.edges, b.edges);
        assert_eq!(a.vertices(), b.vertices());
    }

    #[test]
    fn fqdns_consistent_within_domain() {
        let g = web_graph(&small());
        assert_eq!(g.fqdn(0), "amazon.example");
        let f = g.fqdn_fn();
        for v in 0..g.vertices() {
            assert_eq!(f(v), g.fqdn(v));
        }
        assert_eq!(g.num_domains(), PLANTED_DOMAINS.len() + 40);
    }

    #[test]
    fn hub_pages_exist() {
        let g = web_graph(&small());
        let mut deg = vec![0u64; g.vertices() as usize];
        for &(u, v) in &g.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let dmax = *deg.iter().max().unwrap();
        let avg = 2 * g.edges.len() as u64 / g.vertices();
        assert!(
            dmax > 20 * avg.max(1),
            "web hubs missing: dmax={dmax}, avg={avg}"
        );
    }

    #[test]
    fn triangle_dense() {
        let g = web_graph(&small());
        let csr = Csr::from_edges(&g.edges);
        let t = tripoll_analysis::triangle_count(&csr);
        // Web corpora have |T| well above |E| proportionally; demand at
        // least |E|/2 triangles at this scale.
        assert!(
            t > g.edges.len() as u64 / 2,
            "expected triangle-dense graph, got {t} triangles for {} edges",
            g.edges.len()
        );
    }

    #[test]
    fn planted_domains_are_wired() {
        let g = web_graph(&small());
        let amazon = index_page_of(&g, "amazon.example").unwrap();
        let abebooks = index_page_of(&g, "abebooks.example").unwrap();
        assert!(g
            .edges
            .iter()
            .any(|&(u, v)| (u, v) == (amazon, abebooks) || (v, u) == (amazon, abebooks)));
        assert!(index_page_of(&g, "lib0.edu.example").is_some());
        assert!(index_page_of(&g, "nonexistent.example").is_none());
    }

    #[test]
    fn index_pages_have_domain_fqdn() {
        let g = web_graph(&small());
        for name in [
            "amazon.example",
            "abebooks.example",
            "university.edu.example",
        ] {
            let p = index_page_of(&g, name).unwrap();
            assert_eq!(g.fqdn(p), name);
        }
    }
}
