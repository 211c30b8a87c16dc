//! Shared support of the differential suites (`kernels`,
//! `production_path`, `incremental`): the string-metadata graphs they
//! survey, one survey runner that harvests everything any of them
//! compares, and a field-by-field comparison of resident storage. Each
//! suite uses a subset, hence the `dead_code` allow.

#![allow(dead_code)]

use std::cell::Cell;
use std::fmt::Debug;
use std::rc::Rc;

use tripoll::core::{
    kernel_stats_take, survey_push_only_with, survey_push_pull_with, EngineMode, KernelStats,
    ResidentGraph, ResidentQuery, SurveyConfig, SurveyReport, TriangleMeta,
};
use tripoll::graph::{build_dist_graph, EdgeList, LocalVertex, Partition};
use tripoll::ygm::hash::hash64;
use tripoll::ygm::wire::Wire;
use tripoll::ygm::{Comm, World};

/// The deterministic send-side fingerprint of one rank's survey run.
/// Send-side traffic is compared per phase; `handlers_run` and `work`
/// are receive-side counters whose *phase* attribution depends on
/// barrier timing (a rank spinning in the previous phase's quiescence
/// barrier may execute early-arriving records there), so only their
/// survey-wide totals are kept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `(phase, records_remote, records_local, bytes_remote, bytes_local)`.
    pub phases: Vec<(&'static str, u64, u64, u64, u64)>,
    pub handlers_total: u64,
    pub work_total: u64,
    pub pulled: u64,
    pub grants: u64,
}

impl Fingerprint {
    fn of(r: &SurveyReport) -> Fingerprint {
        Fingerprint {
            phases: r
                .phases
                .iter()
                .map(|p| {
                    (
                        p.name,
                        p.stats.records_remote,
                        p.stats.records_local,
                        p.stats.bytes_remote,
                        p.stats.bytes_local,
                    )
                })
                .collect(),
            handlers_total: r.phases.iter().map(|p| p.stats.handlers_run).sum(),
            work_total: r.phases.iter().map(|p| p.stats.work).sum(),
            pulled: r.pulled_vertices,
            grants: r.pull_grants,
        }
    }
}

/// One run's observable outcome on one rank. Everything but the
/// fingerprint is summed over the world, so it reads the same on every
/// rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Triangles found (callback invocations).
    pub count: u64,
    /// Fold of all six metadata values of every triangle.
    pub checksum: u64,
    /// Every [`KernelStats`] field, so a run that dispatched through a
    /// different kernel arm or double-counted a batch fails even if its
    /// match totals happen to agree.
    pub stats: KernelStats,
    /// Payload bytes serialized by senders.
    pub bytes_encoded: u64,
    /// Records sent (remote + local).
    pub records: u64,
    /// Records whose handler decoded them in place.
    pub borrowed: u64,
    /// This rank's send-side fingerprint.
    pub fingerprint: Fingerprint,
}

/// Runs one survey with string metadata. The checksum folds all six
/// metadata values of every triangle, so any divergence in what a
/// callback observes — not just how many times it ran — fails the
/// comparison.
pub fn run_survey(
    list: &EdgeList<String>,
    nranks: usize,
    mode: EngineMode,
    config: SurveyConfig,
) -> Vec<Outcome> {
    World::new(nranks).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g = build_dist_graph(comm, local, |v| format!("v{v}"), Partition::Hashed);
        let _ = kernel_stats_take(); // fresh counters for this rank
        let count = Rc::new(Cell::new(0u64));
        let sum = Rc::new(Cell::new(0u64));
        let (c2, s2) = (count.clone(), sum.clone());
        let cb = move |_c: &Comm, tm: &TriangleMeta<'_, String, String>| {
            c2.set(c2.get() + 1);
            let mut h = hash64(tm.p) ^ hash64(tm.q).rotate_left(1) ^ hash64(tm.r).rotate_left(2);
            for (i, m) in [
                tm.meta_p, tm.meta_q, tm.meta_r, tm.meta_pq, tm.meta_pr, tm.meta_qr,
            ]
            .iter()
            .enumerate()
            {
                for b in m.bytes() {
                    h = h.rotate_left(7) ^ hash64(u64::from(b) + i as u64);
                }
            }
            // Masked so the cross-rank all_reduce_sum cannot overflow.
            s2.set(s2.get() + (h & 0xffff_ffff));
        };
        let report = match mode {
            EngineMode::PushOnly => survey_push_only_with(comm, &g, config, cb),
            EngineMode::PushPull => survey_push_pull_with(comm, &g, config, cb),
        };
        let ks = kernel_stats_take();
        let sent = report.local_stats();
        Outcome {
            count: comm.all_reduce_sum(count.get()),
            checksum: comm.all_reduce_sum(sum.get()),
            stats: KernelStats {
                compares: comm.all_reduce_sum(ks.compares),
                candidates: comm.all_reduce_sum(ks.candidates),
                matches: comm.all_reduce_sum(ks.matches),
                scalar_runs: comm.all_reduce_sum(ks.scalar_runs),
                gallop_runs: comm.all_reduce_sum(ks.gallop_runs),
                merge_runs: comm.all_reduce_sum(ks.merge_runs),
                probe_runs: comm.all_reduce_sum(ks.probe_runs),
            },
            bytes_encoded: comm.all_reduce_sum(sent.bytes_encoded),
            records: comm.all_reduce_sum(sent.records_total()),
            borrowed: comm.all_reduce_sum(sent.records_borrowed),
            fingerprint: Fingerprint::of(&report),
        }
    })
}

/// An edge list whose edge metadata names the edge, over `v{id}` vertex
/// metadata (see [`run_survey`]).
pub fn labeled(edges: Vec<(u64, u64)>) -> EdgeList<String> {
    EdgeList::from_vec(
        edges
            .into_iter()
            .map(|(u, v)| (u, v, format!("e{}-{}", u.min(v), u.max(v))))
            .collect(),
    )
}

/// A deterministic dense-ish random graph (the general case).
pub fn random_graph() -> EdgeList<String> {
    let mut edges = Vec::new();
    for u in 0..32u64 {
        for v in (u + 1)..32 {
            if (u * 7919 + v * 104_729) % 4 == 0 {
                edges.push((u, v));
            }
        }
    }
    labeled(edges)
}

/// The shared-hub construction that forces the Push-Pull pull phase to
/// carry the triangles (the pulled key columns, decoded once per
/// delivery and intersected against every resume suffix) and yields
/// skewed intersections for the size-ratio heuristic. One triangle per
/// source vertex.
pub fn hub_graph() -> EdgeList<String> {
    let (h1, h2) = (1000, 1001);
    let mut edges = vec![(h1, h2)];
    for sv in 0..24u64 {
        edges.push((sv, h1));
        edges.push((sv, h2));
    }
    labeled(edges)
}

/// Every vertex a resident graph stores, by id, read through a one-rank
/// query, whose single shard owns them all.
fn storage<VM, EM>(g: &ResidentGraph<VM, EM>) -> Vec<LocalVertex<VM, EM>>
where
    VM: Wire + Clone + Send + Sync + 'static,
    EM: Wire + Clone + Send + Sync + 'static,
{
    let mut all = g
        .run(&ResidentQuery::new(1), |_, g| {
            g.shard().vertices().cloned().collect::<Vec<_>>()
        })
        .pop()
        .expect("a one-rank query");
    all.sort_by_key(|lv| lv.id);
    all
}

/// The first difference between the storage of `a` and `b`, or `None`:
/// id, key and metadata of each record, and target, key, edge metadata
/// and target metadata of each entry. Unlike snapshot bytes, it sees
/// the keys and target metadata every entry carries in memory.
pub fn storage_diff<VM, EM>(a: &ResidentGraph<VM, EM>, b: &ResidentGraph<VM, EM>) -> Option<String>
where
    VM: Wire + Clone + Send + Sync + 'static + PartialEq + Debug,
    EM: Wire + Clone + Send + Sync + 'static + PartialEq + Debug,
{
    let (a, b) = (storage(a), storage(b));
    if a.len() != b.len() {
        return Some(format!("{} records != {}", a.len(), b.len()));
    }
    for (x, y) in a.iter().zip(&b) {
        if (x.id, x.key, &x.meta) != (y.id, y.key, &y.meta) {
            return Some(format!(
                "record {:?} != {:?}",
                (x.id, x.key, &x.meta),
                (y.id, y.key, &y.meta)
            ));
        }
        if x.adj.len() != y.adj.len() {
            return Some(format!(
                "vertex {}: {} entries != {}",
                x.id,
                x.adj.len(),
                y.adj.len()
            ));
        }
        for (p, q) in x.adj.iter().zip(&y.adj) {
            if (p.v, p.key, &p.em, &p.vm) != (q.v, q.key, &q.em, &q.vm) {
                return Some(format!(
                    "vertex {}: entry {:?} != {:?}",
                    x.id,
                    (p.v, p.key, &p.em, &p.vm),
                    (q.v, q.key, &q.em, &q.vm)
                ));
            }
        }
    }
    None
}
