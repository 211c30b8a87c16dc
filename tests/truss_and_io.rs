//! End-to-end: distributed edge supports feed the k-truss application,
//! and survey inputs round-trip through the file format.

use tripoll::analysis::{self, truss_decomposition};
use tripoll::gen;
use tripoll::graph::{build_dist_graph, io, Csr, EdgeList, Partition};
use tripoll::prelude::*;
use tripoll_ygm::hash::FastMap;

#[test]
fn distributed_edge_supports_match_serial_truss_inputs() {
    let ds = gen::livejournal_like(8);
    let csr = Csr::from_edges(&ds.edges);

    // Serial supports: triangles per edge via the oracle enumerator.
    let mut serial: FastMap<(u64, u64), u64> = FastMap::default();
    analysis::enumerate_triangles(&csr, |p, q, r| {
        for (a, b) in [(p, q), (p, r), (q, r)] {
            *serial.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        }
    });

    let list = EdgeList::from_vec(
        ds.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    );
    let out = World::new(4).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
        edge_triangle_counts(comm, &g, EngineMode::PushPull).0
    });
    for gathered in out {
        let distributed: FastMap<(u64, u64), u64> = gathered.into_iter().collect();
        assert_eq!(distributed, serial);
    }
}

#[test]
fn truss_decomposition_on_distributed_standin() {
    // The §1 pipeline: survey the graph distributed, decompose serially.
    let ds = gen::webcc12_like(6);
    let csr = Csr::from_edges(&ds.edges);
    let d = truss_decomposition(&csr);
    assert!(d.max_k >= 4, "web stand-in should have dense trusses");
    // k-truss edge sets are nested.
    let mut prev = usize::MAX;
    for k in 3..=d.max_k {
        let size = d.ktruss_edges(k).len();
        assert!(size <= prev, "k-truss sizes must be non-increasing");
        assert!(size > 0, "k={k} within max_k must be non-empty");
        prev = size;
    }
    // Every edge of the k-truss has support >= k-2 *within the truss*.
    let top = d.ktruss_edges(d.max_k);
    let sub = Csr::from_edges(&top);
    let mut support: FastMap<(u64, u64), u64> = FastMap::default();
    analysis::enumerate_triangles(&sub, |p, q, r| {
        for (a, b) in [(p, q), (p, r), (q, r)] {
            *support.entry((a.min(b), a.max(b))).or_insert(0) += 1;
        }
    });
    for &(u, v) in &top {
        assert!(
            support.get(&(u, v)).copied().unwrap_or(0) >= (d.max_k - 2) as u64,
            "edge ({u},{v}) under-supported in the {}-truss",
            d.max_k
        );
    }
}

#[test]
fn survey_inputs_roundtrip_through_files() {
    // Write the Reddit stand-in to disk, read it back, and get the exact
    // same closure-time distribution.
    let edges = gen::reddit_like(12);
    let dir = std::env::temp_dir().join("tripoll-roundtrip-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reddit.tsv");
    io::write_edge_file(&path, &edges).unwrap();

    let reread = io::read_edge_file_with_attr(&path).unwrap();
    let relist = EdgeList::from_vec(reread).canonicalize_by(|&t| t);
    assert_eq!(relist.as_slice(), edges.as_slice());

    let run = |list: &EdgeList<u64>| {
        let out = World::new(2).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g: DistGraph<(), u64> = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            closure_time_survey(comm, &g, EngineMode::PushPull, |&t| t).0
        });
        out.into_iter().next().unwrap()
    };
    assert_eq!(run(&edges), run(&relist));
    std::fs::remove_dir_all(&dir).ok();
}
