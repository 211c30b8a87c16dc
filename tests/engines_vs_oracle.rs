//! Cross-crate validation: both distributed survey engines against the
//! serial oracle, across rank counts, modes and generated workloads.

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

use tripoll::analysis;
use tripoll::gen;
use tripoll::graph::{build_dist_graph, Csr, EdgeList, Partition};
use tripoll::prelude::*;

fn oracle(edges: &[(u64, u64)]) -> u64 {
    analysis::triangle_count(&Csr::from_edges(edges))
}

fn distributed_count(edges: &[(u64, u64)], nranks: usize, mode: EngineMode) -> u64 {
    let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
    let out = World::new(nranks).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
        triangle_count(comm, &g, mode).0
    });
    assert!(out.iter().all(|&c| c == out[0]), "ranks disagree");
    out[0]
}

#[test]
fn all_dataset_standins_match_oracle() {
    for ds in gen::table2_suite(11) {
        let expect = oracle(&ds.edges);
        assert!(expect > 0, "{} has no triangles", ds.name);
        for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
            assert_eq!(
                distributed_count(&ds.edges, 3, mode),
                expect,
                "{} under {mode}",
                ds.name
            );
        }
    }
}

#[test]
fn counts_invariant_across_rank_counts_and_partitions() {
    let ds = gen::webcc12_like(3);
    let expect = oracle(&ds.edges);
    let list = EdgeList::from_vec(
        ds.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    );
    for nranks in [1, 2, 3, 5, 8] {
        for partition in [Partition::Hashed, Partition::Cyclic] {
            let out = World::new(nranks).run(|comm| {
                let local = list.stride_for_rank(comm.rank(), comm.nranks());
                let g = build_dist_graph(comm, local, |_| (), partition);
                triangle_count(comm, &g, EngineMode::PushPull).0
            });
            assert_eq!(out[0], expect, "nranks={nranks} partition={partition:?}");
        }
    }
}

#[test]
fn every_triangle_reported_exactly_once() {
    // Gather the (p, q, r) id triples from every rank's callbacks and
    // compare against the oracle's enumeration as *sets with
    // multiplicity*.
    let ds = gen::livejournal_like(5);
    let csr = Csr::from_edges(&ds.edges);
    let mut expected: Vec<(u64, u64, u64)> = Vec::new();
    analysis::enumerate_triangles(&csr, |p, q, r| {
        let mut t = [p, q, r];
        t.sort_unstable();
        expected.push((t[0], t[1], t[2]));
    });
    expected.sort_unstable();

    let list = EdgeList::from_vec(
        ds.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    );
    for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
        let out = World::new(4).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let seen: Rc<RefCell<Vec<(u64, u64, u64)>>> = Rc::new(RefCell::new(Vec::new()));
            let seen_cb = seen.clone();
            survey(comm, &g, mode, move |_c, tm| {
                let mut t = [tm.p, tm.q, tm.r];
                t.sort_unstable();
                seen_cb.borrow_mut().push((t[0], t[1], t[2]));
            });
            comm.barrier();
            let collected = seen.borrow().clone();
            collected
        });
        let mut got: Vec<(u64, u64, u64)> = out.into_iter().flatten().collect();
        got.sort_unstable();
        assert_eq!(got, expected, "{mode}");
    }
}

#[test]
fn rmat_counts_match_oracle() {
    let edges = gen::rmat_edges(&gen::RmatConfig::graph500(9, 17));
    let expect = oracle(&edges);
    assert!(expect > 0);
    for nranks in [1, 4] {
        for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
            assert_eq!(distributed_count(&edges, nranks, mode), expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn random_graphs_match_oracle(
        edges in proptest::collection::vec((0u64..48, 0u64..48), 1..160),
        nranks in 1usize..5,
        push_pull in any::<bool>(),
    ) {
        let expect = oracle(&edges);
        let mode = if push_pull { EngineMode::PushPull } else { EngineMode::PushOnly };
        prop_assert_eq!(distributed_count(&edges, nranks, mode), expect);
    }
}
