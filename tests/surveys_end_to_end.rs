//! End-to-end survey validation on generated workloads: the paper's
//! analyses produce identical results whichever engine runs them, on any
//! rank count, and match a serial recomputation.

use tripoll::analysis::{self, ceil_log2, JointHistogram};
use tripoll::gen;
use tripoll::graph::{build_dist_graph, Csr, EdgeList, Partition};
use tripoll::prelude::*;
use tripoll_ygm::hash::FastMap;

#[test]
fn closure_survey_matches_serial_on_reddit_standin() {
    let edges = gen::reddit_like(9);

    // Serial recomputation.
    let ts: FastMap<(u64, u64), u64> = edges
        .as_slice()
        .iter()
        .map(|&(u, v, t)| ((u, v), t))
        .collect();
    let topo: Vec<(u64, u64)> = edges.as_slice().iter().map(|&(u, v, _)| (u, v)).collect();
    let csr = Csr::from_edges(&topo);
    let mut expect = JointHistogram::new();
    analysis::enumerate_triangles(&csr, |p, q, r| {
        let get = |a: u64, b: u64| ts[&(a.min(b), a.max(b))];
        let mut tt = [get(p, q), get(p, r), get(q, r)];
        tt.sort_unstable();
        expect.add(ceil_log2(tt[1] - tt[0]), ceil_log2(tt[2] - tt[0]), 1);
    });
    assert!(expect.total() > 100, "stand-in should be triangle-rich");

    // Fig. 6's shape: wedges open fast, triangles close late — the mean
    // close bucket exceeds the mean open bucket, and at least a fifth of
    // the triangles close 4x (two buckets) or more after they opened.
    let mean_bucket =
        |h: &Histogram| h.iter().map(|(b, c)| b as f64 * c as f64).sum::<f64>() / h.total() as f64;
    let (open_mean, close_mean) = (
        mean_bucket(&expect.marginal_x()),
        mean_bucket(&expect.marginal_y()),
    );
    assert!(close_mean > open_mean, "{close_mean} <= {open_mean}");
    let slow: u64 = expect
        .iter()
        .filter(|&((open, close), _)| close >= open + 2)
        .map(|(_, c)| c)
        .sum();
    assert!(5 * slow >= expect.total(), "{slow} of {}", expect.total());

    for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
        for nranks in [1, 4] {
            let out = World::new(nranks).run(|comm| {
                let local = edges.stride_for_rank(comm.rank(), comm.nranks());
                let g: DistGraph<(), u64> =
                    build_dist_graph(comm, local, |_| (), Partition::Hashed);
                closure_time_survey(comm, &g, mode, |&t| t).0
            });
            for hist in &out {
                assert_eq!(*hist, expect, "{mode} nranks={nranks}");
            }
        }
    }
}

#[test]
fn fqdn_survey_engines_agree_and_find_planted_structure() {
    let web = gen::wdc_like(13);
    let list = EdgeList::from_vec(
        web.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    let fqdn_fn = web.fqdn_fn();
    let out = World::new(3).run(move |comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g: DistGraph<String, ()> =
            build_dist_graph(comm, local, fqdn_fn.clone(), Partition::Hashed);
        let (a, _) = fqdn_tuple_survey(comm, &g, EngineMode::PushOnly);
        let (b, _) = fqdn_tuple_survey(comm, &g, EngineMode::PushPull);
        (a, b)
    });
    for (a, b) in &out {
        assert_eq!(a.tuples, b.tuples, "engines disagree on tuple counts");
        assert_eq!(a.distinct_triangles, b.distinct_triangles);
        // Planted structure: the amazon family co-occurs with the hub.
        let partners: Vec<String> = a
            .pairs_with("amazon.example")
            .into_iter()
            .flat_map(|(x, y, _)| [x, y])
            .collect();
        assert!(
            partners.iter().any(|p| p == "abebooks.example"),
            "competitor bookseller missing from hub triangles"
        );
        assert!(
            partners
                .iter()
                .any(|p| p.starts_with("amazon") || p == "audible.example"),
            "amazon family missing from hub triangles"
        );
    }
}

#[test]
fn degree_triples_sum_to_triangle_count() {
    let ds = gen::livejournal_like(21);
    let expect = analysis::triangle_count(&Csr::from_edges(&ds.edges));
    let list = EdgeList::from_vec(
        ds.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    // Degree table (canonical edges).
    let mut deg: FastMap<u64, u64> = FastMap::default();
    for (u, v, ()) in list.as_slice() {
        *deg.entry(*u).or_insert(0) += 1;
        *deg.entry(*v).or_insert(0) += 1;
    }
    let deg = std::sync::Arc::new(deg);
    let out = World::new(4).run(move |comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let deg = std::sync::Arc::clone(&deg);
        let g = build_dist_graph(comm, local, move |v| deg[&v], Partition::Hashed);
        degree_triple_survey(comm, &g, EngineMode::PushPull).0
    });
    for dist in out {
        let total: u64 = dist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, expect, "every triangle contributes one triple");
    }
}

#[test]
fn custom_callback_with_counting_set_composes_with_engine_traffic() {
    // The §4.1.4 composability claim: a user survey may drive its own
    // distributed counting set from inside the callback, interleaving
    // counting-set flushes with triangle identification messages.
    let ds = gen::friendster_like(2);
    let expect = analysis::triangle_count(&Csr::from_edges(&ds.edges));
    let list = EdgeList::from_vec(
        ds.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    );
    let out = World::new(4).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g = build_dist_graph(comm, local, |v| v % 7, Partition::Hashed);
        // Tiny cache so flushes definitely interleave with pushes/pulls.
        let set = tripoll_ygm::container::DistCountingSet::<u64>::with_cache_capacity(comm, 8);
        let set_cb = set.clone();
        survey(comm, &g, EngineMode::PushPull, move |c, tm| {
            set_cb.increment(c, (*tm.meta_p + *tm.meta_q + *tm.meta_r) % 21);
        });
        let gathered = set.gather(comm);
        gathered.iter().map(|(_, c)| c).sum::<u64>()
    });
    assert_eq!(out, vec![expect; 4]);
}

#[test]
fn survey_reports_are_consistent() {
    let ds = gen::webcc12_like(4);
    let list = EdgeList::from_vec(
        ds.edges
            .iter()
            .map(|&(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    let out = World::new(3).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g = build_dist_graph(comm, local, |_| false, Partition::Hashed);
        let (_, po) = triangle_count(comm, &g, EngineMode::PushOnly);
        let (_, pp) = triangle_count(comm, &g, EngineMode::PushPull);
        (po, pp)
    });
    for (po, pp) in &out {
        assert_eq!(po.mode, EngineMode::PushOnly);
        assert_eq!(po.phases.len(), 1);
        assert_eq!(po.pulled_vertices, 0);
        assert_eq!(pp.mode, EngineMode::PushPull);
        assert_eq!(pp.phases.len(), 3);
        assert!(pp.total_seconds >= 0.0);
        // Phase stats sum to the local stats.
        let sum = pp.local_stats();
        assert_eq!(
            sum.records_total(),
            pp.phases
                .iter()
                .map(|p| p.stats.records_total())
                .sum::<u64>()
        );
    }
    // Push-Pull moves fewer payload bytes than Push-Only on this
    // hub-heavy web graph (the Table 4 headline).
    let po_bytes: u64 = out
        .iter()
        .map(|(po, _)| po.local_stats().bytes_total())
        .sum();
    let pp_bytes: u64 = out
        .iter()
        .map(|(_, pp)| pp.local_stats().bytes_total())
        .sum();
    assert!(
        pp_bytes * 2 < po_bytes,
        "expected >=2x traffic cut on web graph: push-only {po_bytes}, push-pull {pp_bytes}"
    );
}
