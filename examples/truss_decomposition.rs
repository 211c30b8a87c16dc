//! k-truss decomposition from a distributed triangle survey.
//!
//! ```text
//! cargo run --release --example truss_decomposition [nranks]
//! ```
//!
//! The paper's §1 motivates processing every triangle with downstream
//! applications like truss decomposition [Cohen 2008]: counts of
//! triangles at *edges*. This example runs that pipeline end-to-end:
//!
//! 1. survey the distributed graph with the per-edge participation
//!    callback (`edge_triangle_counts`, a two-line survey);
//! 2. peel the gathered supports into the full truss decomposition.

use tripoll::analysis::truss_decomposition;
use tripoll::graph::Csr;
use tripoll::prelude::*;

fn main() {
    let nranks: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);

    println!("Generating a web-like graph (dense domains -> dense trusses)...");
    let web = tripoll::gen::webcc12_like(3);
    let edges = EdgeList::from_vec(
        web.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    println!("  {} edges\n", edges.len());

    // Distributed: per-edge triangle supports via the survey engine.
    let outputs = World::new(nranks).run(|comm| {
        let local = edges.stride_for_rank(comm.rank(), comm.nranks());
        let graph = build_dist_graph(comm, local, |_| (), Partition::Hashed);
        edge_triangle_counts(comm, &graph, EngineMode::PushPull).0
    });
    let supports = &outputs[0];
    let supported: usize = supports.len();
    println!("Distributed survey: {supported} edges participate in at least one triangle.");

    // Serial peeling on the gathered supports.
    let d = truss_decomposition(&Csr::from_edges(&web.edges));
    let mut table = Table::new(
        format!("Truss decomposition (max k = {})", d.max_k),
        &["k", "edges in k-truss"],
    );
    for k in 3..=d.max_k {
        table.row(&[k.to_string(), d.ktruss_edges(k).len().to_string()]);
    }
    println!("{}", table.render());

    // Consistency: initial supports from the distributed survey equal the
    // trussness-3 candidates.
    let with_triangles = d.trussness.iter().filter(|(_, t)| *t >= 3).count();
    println!(
        "{with_triangles} edges have trussness >= 3; the distributed survey found \
         supports for {supported} edges."
    );
    assert_eq!(with_triangles, supported);
    println!("Distributed supports and serial peeling agree.");
}
