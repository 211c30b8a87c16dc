//! The paper's communication tables as exact literals (arXiv:2107.12330).
//!
//! * **Tab. 4** — Push-Only vs Push-Pull communication volume across
//!   rank counts on the four strong-scaling stand-ins.
//! * **Tab. 3** — adjacency lists pulled per rank by the Push-Pull
//!   closure-time survey on the Reddit stand-in.
//!
//! Every figure is an exact, send-side count, deterministic in the seed
//! and the rank count, so it is pinned as a literal. A failure means a
//! change moved a byte or a pull decision: fix the change, or re-record
//! the literal and say which default moved and why. The shape asserts
//! beside each table are the paper's claims about it.

use tripoll::gen::{reddit_like, table4_suite};
use tripoll::graph::{build_dist_graph, DistGraph, EdgeList, Partition};
use tripoll::prelude::*;

const SEED: u64 = 42;
const RANKS: [usize; 4] = [1, 2, 4, 8];

/// Tab. 4: survey payload bytes (local + remote, summed over ranks) at
/// ranks 1, 2, 4, 8 — `(graph, Push-Only, Push-Pull)`.
const TAB4_BYTES: [(&str, [u64; 4], [u64; 4]); 4] = [
    (
        "Friendster",
        [111_279, 111_279, 111_279, 111_279],
        [31_612, 54_231, 81_566, 104_794],
    ),
    (
        "Twitter",
        [330_406, 330_406, 330_406, 330_406],
        [41_652, 71_597, 115_954, 170_933],
    ),
    (
        "uk-2007-05",
        [195_918, 195_918, 195_918, 195_918],
        [55_879, 87_079, 121_590, 153_915],
    ),
    (
        "web-cc12-hostgraph",
        [381_670, 381_670, 381_670, 381_670],
        [53_484, 86_987, 130_157, 178_935],
    ),
];

/// Tab. 3: Σ `pulled_vertices` over ranks at ranks 1, 2, 4, 8.
const TAB3_PULLS: [u64; 4] = [1_001, 1_640, 2_462, 3_074];

/// Triangle count and survey payload bytes of a plain count on `nranks`
/// ranks, with the dummy boolean vertex metadata the paper affixes for
/// plain counting (§5.3).
fn count_bytes(list: &EdgeList<()>, nranks: usize, mode: EngineMode) -> (u64, u64) {
    let out = World::new(nranks).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g: DistGraph<bool, ()> = build_dist_graph(comm, local, |_| false, Partition::Hashed);
        let (count, report) = triangle_count(comm, &g, mode);
        (count, report.local_stats().bytes_total())
    });
    let count = out[0].0;
    assert!(out.iter().all(|&(c, _)| c == count), "ranks disagree");
    (count, out.iter().map(|&(_, b)| b).sum())
}

#[test]
fn tab4_push_only_vs_push_pull_volume_is_pinned() {
    let suite = table4_suite(SEED);
    assert_eq!(suite.len(), TAB4_BYTES.len());
    for (ds, (name, push_only, push_pull)) in suite.iter().zip(TAB4_BYTES) {
        assert_eq!(ds.name, name);
        let list = ds.edge_list();
        let mut triangles = Vec::new();
        let mut bytes = [[0u64; 4]; 2];
        for (i, mode) in [EngineMode::PushOnly, EngineMode::PushPull]
            .into_iter()
            .enumerate()
        {
            for (j, &n) in RANKS.iter().enumerate() {
                let (t, b) = count_bytes(&list, n, mode);
                triangles.push(t);
                bytes[i][j] = b;
            }
        }
        assert!(
            triangles.iter().all(|&t| t == triangles[0]) && triangles[0] > 0,
            "{name}: counts differ across engines and ranks: {triangles:?}"
        );
        assert_eq!(bytes, [push_only, push_pull], "{name}: Tab. 4 volume moved");
        // Every wedge batch is sent whatever the placement, so the
        // Push-Only volume does not depend on the rank count.
        assert!(push_only.iter().all(|&b| b == push_only[0]), "{name}");
        // Fewer edges per rank leave fewer profitable pulls.
        assert!(push_pull.windows(2).all(|w| w[0] <= w[1]), "{name}");
    }
}

#[test]
fn tab3_pulls_per_rank_are_pinned() {
    let edges = reddit_like(SEED);
    let mut pulls = [0u64; 4];
    for (j, &n) in RANKS.iter().enumerate() {
        let out = World::new(n).run(|comm| {
            let local = edges.stride_for_rank(comm.rank(), comm.nranks());
            let g: DistGraph<(), u64> = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            closure_time_survey(comm, &g, EngineMode::PushPull, |&t| t)
                .1
                .pulled_vertices
        });
        pulls[j] = out.iter().sum();
    }
    assert_eq!(pulls, TAB3_PULLS, "Tab. 3 pulls moved");
    // The paper's trend (861K pulls per rank at 16 nodes, 42.2K at 256):
    // the mean per rank strictly falls as ranks grow.
    let per_rank: Vec<f64> = pulls
        .iter()
        .zip(RANKS)
        .map(|(&p, n)| p as f64 / n as f64)
        .collect();
    assert!(per_rank.windows(2).all(|w| w[1] < w[0]), "{per_rank:?}");
}
