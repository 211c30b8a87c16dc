//! The Table 2 cast — TriPoll (both engines), Pearce et al., Tom et al.
//! and TriC — must produce identical triangle counts on every dataset
//! stand-in, on the same simulated runtime, and each system's remote
//! bytes are pinned to the Table 2 literals.

use tripoll::baselines::{pearce_count, tom2d_count, tric_count};
use tripoll::gen;
use tripoll::graph::{build_dist_graph, DistGraph, EdgeList, Partition};
use tripoll::prelude::*;

fn strided(edges: &[(u64, u64)], rank: usize, nranks: usize) -> Vec<(u64, u64)> {
    edges.iter().skip(rank).step_by(nranks).copied().collect()
}

/// Tab. 2: remote bytes of each system's whole run (build and count) on
/// four ranks, seed 42 — `(graph, [TriPoll Push-Only, TriPoll
/// Push-Pull, Pearce et al., Tom et al., TriC])`. Exact send-side
/// counts: a change that moves one fails here.
const TAB2_REMOTE_BYTES: [(&str, [u64; 5]); 4] = [
    ("LiveJournal", [297_880, 166_944, 419_066, 174_096, 271_464]),
    ("Friendster", [138_637, 115_988, 166_462, 110_904, 105_120]),
    ("Twitter", [328_865, 167_298, 465_729, 181_491, 351_290]),
    (
        "Web Data Commons",
        [272_547, 187_134, 332_919, 207_735, 161_362],
    ),
];

/// Runs `f` in a world of its own, returning the per-rank counts and the
/// remote bytes summed over ranks.
fn remote_bytes(nranks: usize, f: impl Fn(&Comm) -> u64 + Sync) -> (Vec<u64>, u64) {
    let out = World::new(nranks).run_with_stats(f);
    let bytes = out.total_stats().bytes_remote;
    (out.results, bytes)
}

#[test]
fn four_systems_one_answer() {
    // 4 ranks: a perfect square, so the 2D baseline can participate.
    let nranks = 4;
    // Raw stand-in edges, with duplicates, self-loops and both
    // orientations: every system must clean its own input.
    for ds in gen::table2_suite(23) {
        let edges = ds.edges.clone();
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        let counts = World::new(nranks).run(|comm| {
            let local_topo = strided(&edges, comm.rank(), comm.nranks());
            let local_list = list.stride_for_rank(comm.rank(), comm.nranks());

            let g = build_dist_graph(comm, local_list, |_| (), Partition::Hashed);
            let tripoll_po = triangle_count(comm, &g, EngineMode::PushOnly).0;
            let tripoll_pp = triangle_count(comm, &g, EngineMode::PushPull).0;
            let (pearce, _) = pearce_count(comm, local_topo.clone(), Partition::Hashed);
            let (tom, _) = tom2d_count(comm, local_topo.clone());
            let (tric, _) = tric_count(comm, local_topo);
            [tripoll_po, tripoll_pp, pearce, tom, tric]
        });
        for rank_counts in &counts {
            assert!(
                rank_counts.iter().all(|&c| c == rank_counts[0]),
                "{}: systems disagree on raw input: {rank_counts:?}",
                ds.name
            );
            assert!(rank_counts[0] > 0, "{}: no triangles found", ds.name);
        }
    }

    // Canonical input, one world per system, for the Tab. 2 byte pins.
    let suite = gen::table2_suite(42);
    assert_eq!(suite.len(), TAB2_REMOTE_BYTES.len());
    for (ds, (name, pinned)) in suite.iter().zip(TAB2_REMOTE_BYTES) {
        assert_eq!(ds.name, name);
        let list = ds.edge_list();
        let topo = |comm: &Comm| -> Vec<(u64, u64)> {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            local.into_iter().map(|(u, v, ())| (u, v)).collect()
        };
        let tripoll = |mode: EngineMode| {
            remote_bytes(nranks, |comm| {
                let local = list.stride_for_rank(comm.rank(), comm.nranks());
                // Dummy boolean vertex metadata, as for plain counting (§5.3).
                let g: DistGraph<bool, ()> =
                    build_dist_graph(comm, local, |_| false, Partition::Hashed);
                triangle_count(comm, &g, mode).0
            })
        };
        let runs = [
            tripoll(EngineMode::PushOnly),
            tripoll(EngineMode::PushPull),
            remote_bytes(nranks, |comm| {
                pearce_count(comm, topo(comm), Partition::Hashed).0
            }),
            remote_bytes(nranks, |comm| tom2d_count(comm, topo(comm)).0),
            remote_bytes(nranks, |comm| tric_count(comm, topo(comm)).0),
        ];
        let counts: Vec<u64> = runs.iter().flat_map(|(c, _)| c.iter().copied()).collect();
        assert!(
            counts.iter().all(|&c| c == counts[0]),
            "{name}: systems disagree: {counts:?}"
        );
        assert!(counts[0] > 0, "{name}: no triangles found");
        let bytes = runs.map(|(_, b)| b);
        assert_eq!(bytes, pinned, "{name}: Tab. 2 remote bytes moved");
        // Pearce et al. send one query per wedge, TriPoll one batch per
        // target vertex.
        assert!(bytes[2] > bytes[1], "{name}: Pearce {bytes:?}");
    }
}

#[test]
fn baselines_handle_pruned_away_graphs() {
    // A pure tree prunes to nothing under Pearce and has no triangles
    // anywhere.
    let edges: Vec<(u64, u64)> = (1..40u64).map(|v| (v / 2, v)).collect();
    let out = World::new(4).run(|comm| {
        let local = strided(&edges, comm.rank(), comm.nranks());
        let (p, _) = pearce_count(comm, local.clone(), Partition::Hashed);
        let (t, _) = tom2d_count(comm, local.clone());
        let (c, _) = tric_count(comm, local);
        (p, t, c)
    });
    for (p, t, c) in out {
        assert_eq!((p, t, c), (0, 0, 0));
    }
}

#[test]
fn pearce_sends_more_records_than_tripoll() {
    // The structural claim behind Table 2: Pearce's per-wedge queries
    // cost more application records than TriPoll's batched suffixes on a
    // wedge-heavy graph.
    let ds = gen::twitter_like(31);
    let edges = ds.edges.clone();
    let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
    let nranks = 4;

    let tripoll_out = World::new(nranks).run_with_stats(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
        let before = comm.stats();
        let (count, _) = triangle_count(comm, &g, EngineMode::PushPull);
        (count, comm.stats().delta(&before))
    });
    let pearce_out = World::new(nranks).run_with_stats(|comm| {
        let local = strided(&edges, comm.rank(), comm.nranks());
        pearce_count(comm, local, Partition::Hashed)
    });

    let tripoll_records: u64 = tripoll_out
        .results
        .iter()
        .map(|(_, d)| d.records_total())
        .sum();
    let pearce_records: u64 = pearce_out.total_stats().records_total();
    assert!(
        pearce_records > 2 * tripoll_records,
        "expected Pearce to send far more records: {pearce_records} vs {tripoll_records}"
    );
}
