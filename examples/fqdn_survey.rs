//! FQDN metadata survey on a web graph (the paper's §5.8 / Fig. 8).
//!
//! ```text
//! cargo run --release --example fqdn_survey [nranks]
//! ```
//!
//! Every page carries its fully qualified domain name as a *string*
//! vertex metadata value — exercising the serialization layer's
//! variable-length payloads exactly as the paper does. The survey counts
//! FQDN 3-tuples over triangles with three distinct domains; the
//! post-processing slices the tuples around `amazon.example` and orders
//! the co-occurring domains by Louvain communities.

use tripoll::prelude::*;

fn main() {
    let nranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    println!("Generating a Web-Data-Commons-like page graph with FQDN metadata...");
    let web = tripoll::gen::wdc_like(42);
    let edges = EdgeList::from_vec(
        web.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    println!(
        "  {} pages across {} domains, {} edges\n",
        web.vertices(),
        web.num_domains(),
        edges.len()
    );

    let fqdn_fn = web.fqdn_fn();
    let outputs = World::new(nranks).run(move |comm| {
        let local = edges.stride_for_rank(comm.rank(), comm.nranks());
        let graph: DistGraph<String, ()> =
            build_dist_graph(comm, local, fqdn_fn.clone(), Partition::Hashed);
        fqdn_tuple_survey(comm, &graph, EngineMode::PushPull)
    });
    let (result, _report) = &outputs[0];

    println!(
        "Triangles with 3 distinct FQDNs: {}; unique FQDN 3-tuples: {}\n",
        result.distinct_triangles,
        result.unique_tuples()
    );

    // Community structure of the co-occurrence graph.
    let mut co: std::collections::BTreeMap<(String, String), f64> = Default::default();
    for ((a, b, c), count) in &result.tuples {
        for (x, y) in [(a, b), (a, c), (b, c)] {
            *co.entry((x.clone(), y.clone())).or_insert(0.0) += *count as f64;
        }
    }
    let co_edges: Vec<(String, String, f64)> =
        co.into_iter().map(|((a, b), w)| (a, b, w)).collect();
    let (communities, louvain) = louvain_labeled(&co_edges);
    println!(
        "Louvain: {} FQDNs -> {} communities (modularity {:.3})\n",
        communities.len(),
        louvain.num_communities(),
        louvain.modularity
    );
    // Fig. 8's library community: the planted library domains cluster.
    let community_of = |name: &str| communities.iter().find(|(n, _)| n == name).map(|(_, c)| *c);
    let libs = (
        community_of("lib0.edu.example"),
        community_of("lib1.edu.example"),
    );
    assert!(
        libs.0.is_some() && libs.0 == libs.1,
        "library domains should share a Louvain community: {libs:?}"
    );

    // The Fig. 8 slice: who shares triangles with the hub?
    let hub = "amazon.example";
    let pairs = result.pairs_with(hub);
    let mut weight: std::collections::BTreeMap<&str, u64> = Default::default();
    for (a, b, c) in &pairs {
        *weight.entry(a.as_str()).or_insert(0) += c;
        *weight.entry(b.as_str()).or_insert(0) += c;
    }
    for planted in ["amazon.co.example", "abebooks.example"] {
        assert!(
            weight.contains_key(planted),
            "{planted} shares no triangle with {hub}"
        );
    }
    let mut table = Table::new(
        format!("Top FQDNs co-occurring in triangles with \"{hub}\""),
        &["FQDN", "weight", "community"],
    );
    let mut rows: Vec<(&str, u64)> = weight.into_iter().collect();
    rows.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    for (name, w) in rows.into_iter().take(15) {
        let com = community_of(name).map_or_else(|| "-".into(), |c| c.to_string());
        table.row(&[name.to_string(), w.to_string(), com]);
    }
    println!("{}", table.render());
    println!(
        "Expect the amazon family (amazon.co / amazon-media / audible) near the top,\n\
         the competing bookseller abebooks.example well-connected, and the\n\
         edu/library domains grouped in their own community."
    );
}
