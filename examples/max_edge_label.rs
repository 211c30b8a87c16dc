//! Max-edge-label distribution (the paper's Alg. 3).
//!
//! ```text
//! cargo run --release --example max_edge_label [nranks]
//! ```
//!
//! "Suppose we wish to know the distribution of maximum edge labels seen
//! among all triangles in which all vertex labels are distinct." A social
//! graph is decorated with vertex group labels and edge interaction
//! labels; the survey callback filters triangles with three distinct
//! groups and tallies the strongest interaction on each.

use tripoll::prelude::*;
use tripoll_ygm::hash::hash64;

/// Edge interaction labels, ordered weakest to strongest.
const INTERACTIONS: [&str; 4] = ["viewed", "messaged", "traded", "endorsed"];

fn main() {
    let nranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    println!("Generating a labeled social graph...");
    let topo = tripoll::gen::livejournal_like(7);
    // Edge label: deterministic "interaction strength" 0..4.
    let edges = EdgeList::from_vec(
        topo.edges
            .iter()
            .map(|&(u, v)| (u, v, hash64(u.min(v) ^ u.max(v).rotate_left(17)) % 4))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    println!("  {} edges\n", edges.len());

    let outputs = World::new(nranks).run(|comm| {
        let local = edges.stride_for_rank(comm.rank(), comm.nranks());
        // Vertex label: one of 5 user groups.
        let graph = build_dist_graph(comm, local, |v| hash64(v) % 5, Partition::Hashed);
        max_edge_label_distribution(comm, &graph, EngineMode::PushPull, |&label| label)
    });
    let (dist, _report) = &outputs[0];

    let total: u64 = dist.iter().map(|(_, c)| c).sum();
    println!("Triangles with three distinct vertex groups: {total}\n");
    let mut table = Table::new(
        "Distribution of the strongest interaction per triangle (Alg. 3)",
        &["max edge label", "interaction", "triangles", "share"],
    );
    for (label, count) in dist {
        table.row(&[
            label.to_string(),
            INTERACTIONS[*label as usize].to_string(),
            count.to_string(),
            format!("{:.1}%", 100.0 * *count as f64 / total.max(1) as f64),
        ]);
    }
    println!("{}", table.render());
}
