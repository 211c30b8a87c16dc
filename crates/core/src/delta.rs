//! Delta surveys: triangles involving at least one edge of an
//! ingested batch.
//!
//! After [`tripoll_graph::ingest`] appends a batch to DODGr storage,
//! the surveys of the new graph differ from the old ones exactly by the
//! triangles with ≥ 1 batch edge. [`survey_delta_push`] enumerates
//! precisely those: for every apex `p` in the batch's
//! [`BatchDelta`] plan it runs the one wedge generator of every survey
//! (`push_common::push_apex_wedges`), which ships
//!
//! * the **full suffix** wedge batch for each *new* out-entry of `p`
//!   (new edge × everything after it — the new×existing cross terms in
//!   one direction plus new×new within the batch), as a byte suffix of
//!   `Adjm+(p)`'s columns encoded once per apex, and
//! * a **gathered** candidate batch for each *old* out-entry `q`:
//!   the new entries past `q` (cross terms in the other direction)
//!   plus the old entries whose targets a batch edge newly joined
//!   (wedges the batch *closed* at `p` — their triangle's closing edge
//!   is the new edge itself, stored at `Rank(q)` by the `<+`
//!   orientation), encoded through index projections into `Adjm+(p)`.
//!
//! Each wedge with ≥ 1 new edge is generated exactly once. A full
//! survey is the same generator with every entry new, so a delta
//! survey of a whole graph ingested into an empty one sends exactly
//! the batches of the cold Push-Only survey; and every batch goes
//! through the same wire frame, registered handlers, and intersection
//! kernels — a delta survey is indistinguishable from a full one on the
//! receiving side, so callbacks, metadata colocation, and
//! [`KernelStats`] accounting all behave identically.
//!
//! Additive merging of the per-triangle results into running totals is
//! the [`crate::surveys::delta`] seam; the resident tier couples both
//! with an epoch guard in [`crate::service`].
//!
//! [`KernelStats`]: crate::engine::KernelStats

use std::rc::Rc;

use tripoll_graph::ingest::{ApexDelta, BatchDelta};
use tripoll_graph::DistGraph;
use tripoll_ygm::wire::Wire;
use tripoll_ygm::{Comm, Handler};

use crate::engine::{EngineMode, PhaseTimer, SurveyConfig, SurveyReport};
use crate::meta::SurveyCallback;
use crate::push_common::{push_apex_wedges, register_push_handler, PushMsg, WedgeScratch};

/// Runs a delta survey for one ingested batch: `callback` executes once
/// per triangle that involves at least one edge of the batch, on the
/// rank where the six metadata values are colocated — exactly the
/// triangles by which the new graph's full survey differs from the old
/// one.
///
/// Collective: every rank calls with the same post-ingest graph, the
/// same [`BatchDelta`], and an equivalent callback. The plan is
/// index-based and only valid against the storage state its ingest
/// produced; the resident tier enforces that with an epoch check
/// (`ResidentGraph::survey_delta`).
///
/// Deltas always push: the Push-Pull pull side is a bandwidth
/// optimization for *high-degree* full enumerations and has no
/// analogue for the sparse wedge sets of a batch, so the report's mode
/// is [`EngineMode::PushOnly`] regardless of which engine full surveys
/// use. Differential tests hold `full(G) + delta(G, B)` against
/// full surveys of `G ∪ B` from **both** engines.
pub fn survey_delta_push<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    plan: &BatchDelta,
    config: impl Into<SurveyConfig>,
    callback: F,
) -> SurveyReport
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    let config = config.into();
    let handler = register_push_handler(comm, graph, Rc::new(callback), config);

    let timer = PhaseTimer::begin(comm, "delta-push");
    push_delta_wedges(comm, graph, plan, &handler);
    comm.barrier();
    let phase = timer.end();

    SurveyReport {
        mode: EngineMode::PushOnly,
        total_seconds: phase.seconds,
        phases: vec![phase],
        pulled_vertices: 0,
        pull_grants: 0,
    }
}

/// Generates exactly the wedges of this rank's shard that involve at
/// least one batch edge: [`push_apex_wedges`] over the plan's apexes,
/// each asked which of its entries are new.
fn push_delta_wedges<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    plan: &BatchDelta,
    handler: &Handler<PushMsg<VM, EM>>,
) where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let mut scratch = WedgeScratch::default();
    // Walk the plan, not the shard: set-up proportional to the delta.
    // Ascending ids, so batches leave in the shard's own vertex order.
    let mut apexes: Vec<(u64, &ApexDelta)> = plan.apexes.iter().map(|(&p, ap)| (p, ap)).collect();
    apexes.sort_unstable_by_key(|&(p, _)| p);
    for (p, ap) in apexes {
        let Some(lv) = graph.shard().get(p) else {
            continue; // another rank's apex
        };
        push_apex_wedges(
            comm,
            graph,
            handler,
            lv,
            Some(ap),
            &mut |_| false,
            &mut scratch,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push_only::survey_push_only_with;
    use std::cell::Cell;
    use std::sync::Arc;
    use tripoll_graph::ingest::{apply_edge_batch_with, ReverseIndex};
    use tripoll_graph::{DistGraph, LocalShard, LocalVertex, Partition};
    use tripoll_ygm::World;

    fn vm_of(v: u64) -> u64 {
        v * 31 + 7
    }

    fn em_of(u: u64, v: u64) -> u32 {
        ((u.min(v) as u32) << 8) | (u.max(v) as u32)
    }

    fn meta_edges(pairs: &[(u64, u64)]) -> Vec<(u64, u64, u32)> {
        pairs.iter().map(|&(u, v)| (u, v, em_of(u, v))).collect()
    }

    /// Global vertex list of `edges` built purely incrementally.
    fn storage(edges: &[(u64, u64, u32)]) -> Vec<LocalVertex<u64, u32>> {
        let mut vertices = Vec::new();
        let mut rev = ReverseIndex::default();
        apply_edge_batch_with(&mut vertices, &mut rev, edges, vm_of).unwrap();
        vertices
    }

    fn count_with(
        nranks: usize,
        vertices: &[LocalVertex<u64, u32>],
        f: impl Fn(&Comm, &DistGraph<u64, u32>) -> u64 + Sync,
    ) -> u64 {
        let vertices = vertices.to_vec();
        let out = World::new(nranks).run(move |comm| {
            let partition = Partition::Hashed;
            let mine: Vec<_> = vertices
                .iter()
                .filter(|lv| partition.owner(lv.id, comm.nranks()) == comm.rank())
                .cloned()
                .collect();
            let shard = Arc::new(LocalShard::from_vertices(mine));
            let g = DistGraph::from_parts(shard, partition, comm.nranks());
            let local = f(comm, &g);
            comm.all_reduce_sum(local)
        });
        let first = out[0];
        assert!(out.iter().all(|&c| c == first), "ranks disagree: {out:?}");
        first
    }

    /// full(G ∪ B) == full(G) + delta(G, B) for plain counts across
    /// world sizes, exercising both gathered and full-suffix paths.
    #[test]
    fn delta_count_completes_full_count() {
        let base: Vec<(u64, u64)> = (0..12u64)
            .flat_map(|i| [(i, (i + 1) % 12), (i, (i + 4) % 12)])
            .collect();
        let batch: Vec<(u64, u64)> = vec![(0, 6), (1, 7), (2, 5), (3, 11), (13, 0), (13, 1)];
        let base = meta_edges(&base);
        let batch = meta_edges(&batch);

        let old_vertices = storage(&base);
        let mut new_vertices = old_vertices.clone();
        let mut rev = ReverseIndex::build(&new_vertices);
        let plan = apply_edge_batch_with(&mut new_vertices, &mut rev, &batch, vm_of).unwrap();

        for nranks in [1usize, 2, 3, 5] {
            let full_old = count_with(nranks, &old_vertices, |comm, g| {
                let c = std::rc::Rc::new(Cell::new(0u64));
                let c2 = c.clone();
                survey_push_only_with(comm, g, SurveyConfig::default(), move |_, _| {
                    c2.set(c2.get() + 1)
                });
                c.get()
            });
            let full_new = count_with(nranks, &new_vertices, |comm, g| {
                let c = std::rc::Rc::new(Cell::new(0u64));
                let c2 = c.clone();
                survey_push_only_with(comm, g, SurveyConfig::default(), move |_, _| {
                    c2.set(c2.get() + 1)
                });
                c.get()
            });
            let plan2 = plan.clone();
            let delta = count_with(nranks, &new_vertices, move |comm, g| {
                let c = std::rc::Rc::new(Cell::new(0u64));
                let c2 = c.clone();
                let report =
                    survey_delta_push(comm, g, &plan2, SurveyConfig::default(), move |_, _| {
                        c2.set(c2.get() + 1)
                    });
                assert_eq!(report.mode, EngineMode::PushOnly);
                assert_eq!(report.phases.len(), 1);
                assert_eq!(report.phases[0].name, "delta-push");
                c.get()
            });
            assert!(full_new >= full_old);
            assert_eq!(
                full_old + delta,
                full_new,
                "delta mismatch at nranks={nranks}"
            );
        }
    }

    /// An empty plan generates nothing.
    #[test]
    fn empty_plan_is_a_no_op() {
        let vertices = storage(&meta_edges(&[(0, 1), (1, 2), (2, 0)]));
        let plan = BatchDelta::default();
        let delta = count_with(2, &vertices, move |comm, g| {
            let c = std::rc::Rc::new(Cell::new(0u64));
            let c2 = c.clone();
            survey_delta_push(comm, g, &plan, SurveyConfig::default(), move |_, _| {
                c2.set(c2.get() + 1)
            });
            c.get()
        });
        assert_eq!(delta, 0);
    }
}
