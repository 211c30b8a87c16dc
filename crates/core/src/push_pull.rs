//! The Push-Pull survey engine (paper §4.4).
//!
//! Distributed triangle identification generates `O(d+(p)²)` wedge checks
//! per vertex; the Push-Pull optimization reduces the traffic they cost
//! by letting each (source rank, target vertex) pair choose the cheaper
//! direction:
//!
//! 1. **Dry-run** — a communication-free pass records, per target vertex
//!    `q`, resume pointers `(p, index of q in Adjm+(p))` for the pull
//!    case (`ResumePlan`: one sorted vector with run-length grouping,
//!    not a hash map per target). One `(q, count)` record per target —
//!    the count of candidate edges this rank would push, derived from
//!    the grouped pointers — goes to `Rank(q)`, which grants a pull when
//!    `|Adjm+(q)| < count` — i.e. shipping `q`'s adjacency once is
//!    cheaper than receiving `count` candidates — and otherwise replies
//!    with a push veto.
//! 2. **Push phase** — wedge batches for vetoed targets are pushed
//!    exactly as in Push-Only.
//! 3. **Pull phase** — each owner ships `Adjm+(q)` once to every granted
//!    rank (coalesced across that rank's sources); the puller resumes its
//!    recorded pointers and intersects locally, running callbacks on
//!    `Rank(p)` (where, by the storage design of §4.2, all six metadata
//!    values are already resident).
//!
//! Like a pushed batch, a pull delivery is a columnar frame: it is
//! captured once as a [`ColView`] (three bounded takes) and re-walked
//! per resume suffix with metadata decoded only on matches.

use std::cell::RefCell;
use std::rc::Rc;

use tripoll_graph::{DistGraph, OrderKey};
use tripoll_ygm::hash::{FastMap, FastSet};
use tripoll_ygm::wire::{ColBatch, ColCursor, ColView, Wire};
use tripoll_ygm::{Comm, Handler};

use crate::engine::{
    intersect_col, intersect_slices, EngineMode, IntersectKernel, PhaseTimer, SurveyConfig,
    SurveyReport,
};
use crate::meta::{SurveyCallback, TriangleMeta};
use crate::par::{par_queue_for, Ctx, ParQueue};
use crate::push_common::{
    encode_candidate_columns, push_wedge_batches, register_push_handler, DynCallback,
};

/// Dry-run record: `(q, planned candidate count, source rank)`.
type DryRunMsg = (u64, u64, u32);
/// Pull delivery: `(q, Adjm+(q) projected to (r, d(r), meta(q,r)))`,
/// the projection as three packed columns.
type PullMsg<EM> = (u64, ColBatch<EM>);

/// Dry-run resume pointers, grouped by wedge target.
///
/// The paper's "pointers to efficiently iterate over source vertices
/// stored locally" (§4.4). Stored as **one** `(q, slot, index)` vector
/// sorted by `q` — runs of equal `q` are contiguous — rather than a map
/// per target: building it is a push per wedge target plus one sort
/// with no per-target allocation, the planned candidate count is
/// derived from a run when the dry-run record is sent (so no second
/// map), a target's pointers are found by binary search, and the
/// post-dry-run veto filtering is an in-place `retain`.
#[derive(Default)]
struct ResumePlan {
    /// `(q, vertex slot, adjacency index)`, sorted by `q` after
    /// [`ResumePlan::seal`].
    entries: Vec<(u64, u32, u32)>,
}

impl ResumePlan {
    /// Records one resume pointer (pre-seal, vertex-major order).
    #[inline]
    fn push(&mut self, q: u64, slot: u32, idx: u32) {
        self.entries.push((q, slot, idx));
    }

    /// Sorts the pointers by target so equal-`q` runs are contiguous.
    fn seal(&mut self) {
        self.entries.sort_unstable();
    }

    /// The contiguous runs, one per distinct target (requires a sealed
    /// plan).
    fn runs(&self) -> impl Iterator<Item = (u64, &[(u64, u32, u32)])> {
        self.entries
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run))
    }

    /// The resume pointers recorded for `q` (empty if none). Binary
    /// search over the sealed vector.
    fn get(&self, q: u64) -> &[(u64, u32, u32)] {
        let start = self.entries.partition_point(|e| e.0 < q);
        let end = start + self.entries[start..].partition_point(|e| e.0 == q);
        &self.entries[start..end]
    }

    /// Drops every pointer whose target fails `keep`, in place.
    fn retain_targets(&mut self, mut keep: impl FnMut(u64) -> bool) {
        self.entries.retain(|&(q, _, _)| keep(q));
    }
}

/// A captured dry-run outcome, reusable across queries.
///
/// The dry-run is a pure function of the graph content, the partition,
/// and the rank count — it does not depend on the [`SurveyConfig`]. A
/// resident graph therefore captures the plan on the first Push-Pull
/// query at a given rank count and replays it (zero dry-run traffic)
/// for every later query at that count, with bit-identical results: the
/// replay prefills exactly the veto set, pull list, and post-veto
/// resume pointers the fresh dry-run would have produced.
///
/// Plans are per-rank: rank `r`'s plan is only valid on rank `r` of a
/// world with the same rank count over the same shards.
///
/// "Same shards" is enforced by lifetime, not by checksum: captured
/// plans live inside the resident tier's per-world-size cache, and
/// `ResidentGraph::ingest_batch` drops that cache wholesale when a
/// batch changes the storage — degrees, `d+`, and pull decisions may
/// all shift, so the first Push-Pull query after an ingest runs a
/// fresh dry-run and re-captures.
#[derive(Debug, Clone, Default)]
pub(crate) struct DryRunPlan {
    /// Post-veto resume pointers (sealed order).
    entries: Vec<(u64, u32, u32)>,
    /// Targets whose owner vetoed the pull, sorted.
    veto: Vec<u64>,
    /// Locally-owned vertices `q` → sorted ranks granted a pull.
    pull_list: Vec<(u64, Vec<u32>)>,
    /// Pull requests this rank granted.
    grants: u64,
}

/// How [`survey_push_pull_planned`] treats the dry-run phase.
pub(crate) enum PlanMode<'a> {
    /// Run the dry-run and discard its plan (the classic path).
    Fresh,
    /// Run the dry-run and store the captured plan for later replay.
    Capture(&'a mut Option<DryRunPlan>),
    /// Skip the dry-run traffic; prefill its outcome from the plan.
    Replay(&'a DryRunPlan),
}

#[derive(Default)]
struct PpState {
    /// Resume pointers per wedge target (also yields the dry-run
    /// planned counts; see [`ResumePlan`]).
    resume: ResumePlan,
    /// Targets whose owner vetoed the pull (push instead).
    veto: FastSet<u64>,
    /// Local vertices q → ranks that will pull `Adjm+(q)`.
    pull_list: FastMap<u64, Vec<u32>>,
    /// Adjacency lists this rank pulled (received).
    pulled: u64,
    /// Pull requests this rank granted.
    grants: u64,
}

/// Runs a Push-Pull triangle survey; `callback` executes once per
/// triangle, on `Rank(q)` for pushed wedges and on `Rank(p)` for pulled
/// ones. Collective. Returns this rank's [`SurveyReport`]. Runs the
/// production [`SurveyConfig`]; see [`survey_push_pull_with`] to select
/// the configuration explicitly.
pub fn survey_push_pull<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    callback: F,
) -> SurveyReport
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    survey_push_pull_with(comm, graph, SurveyConfig::default(), callback)
}

/// [`survey_push_pull`] with an explicit [`SurveyConfig`] (or a bare
/// [`IntersectKernel`] / [`crate::engine::Parallelism`], via `Into`).
/// Both fields are local compute choices; [`IntersectKernel::MergeScalar`]
/// selects the reference path the differential suites compare against.
pub fn survey_push_pull_with<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    config: impl Into<SurveyConfig>,
    callback: F,
) -> SurveyReport
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    survey_push_pull_planned(comm, graph, config.into(), PlanMode::Fresh, callback)
}

/// [`survey_push_pull_with`] with explicit dry-run plan handling — the
/// resident-graph entry point (see [`crate::service::ResidentGraph`]).
/// Collective; all four handlers are registered in every [`PlanMode`],
/// so handler ids and registration order are identical whether the
/// dry-run runs fresh, is captured, or is replayed.
pub(crate) fn survey_push_pull_planned<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    config: SurveyConfig,
    mode: PlanMode<'_>,
    callback: F,
) -> SurveyReport
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    let cb: DynCallback<VM, EM> = Rc::new(callback);
    let st = Rc::new(RefCell::new(PpState::default()));
    let queue = par_queue_for(graph, &cb, config);

    // Handler registration order is part of the SPMD contract: all four
    // registrations below happen on every rank in this exact order.
    let push_handler = register_push_handler(comm, graph, cb.clone(), config, queue.clone());

    let st_veto = st.clone();
    let veto_handler = comm.register::<u64, _>(move |_c, q| {
        st_veto.borrow_mut().veto.insert(q);
    });

    let st_dry = st.clone();
    let g_dry = graph.clone();
    let dry_handler = comm.register::<DryRunMsg, _>(move |c, (q, count, src)| {
        let dplus_q = g_dry.shard().get(q).map_or(0, |lv| lv.dplus());
        if dplus_q < count {
            let mut s = st_dry.borrow_mut();
            s.pull_list.entry(q).or_default().push(src);
            s.grants += 1;
        } else {
            c.send(src as usize, &veto_handler, &q);
        }
    });

    let pull_handler = register_pull_handler(comm, graph, st.clone(), cb.clone(), config, &queue);
    if let Some(q) = &queue {
        // Queued merge work is drained inside every quiescence barrier:
        // the hook flushes pending batches to the pool, and the deferred
        // work counter keeps the barrier from completing early.
        let q2 = q.clone();
        comm.set_drain_hook(move |c| q2.flush(c));
    }

    // --- Phase 1: Push vs Pull Dry-Run -------------------------------
    let timer = PhaseTimer::begin(comm, "dry-run");
    if let PlanMode::Replay(plan) = &mode {
        // The dry-run is a pure function of (graph, partition, rank
        // count); a replayed plan prefills its entire outcome with
        // zero traffic. The phase barrier below still runs, keeping
        // the collective structure identical across modes.
        let mut s = st.borrow_mut();
        s.resume.entries = plan.entries.clone();
        s.veto = plan.veto.iter().copied().collect();
        for (q, ranks) in &plan.pull_list {
            s.pull_list.insert(*q, ranks.clone());
        }
        s.grants = plan.grants;
    } else {
        {
            let mut s = st.borrow_mut();
            for (slot, lv) in graph.shard().vertices().enumerate() {
                for (i, e) in lv.adj.iter().enumerate() {
                    let suffix_len = lv.adj.len() - i - 1;
                    if suffix_len == 0 {
                        break;
                    }
                    s.resume.push(e.v, slot as u32, i as u32);
                }
            }
            s.resume.seal();
        }
        // One dry-run record per run; the planned candidate count is
        // the sum of the suffix lengths its pointers name.
        let s = st.borrow();
        let shard = graph.shard();
        let my_rank = comm.rank() as u32;
        for (q, run) in s.resume.runs() {
            let count: u64 = run
                .iter()
                .map(|&(_, slot, i)| {
                    (shard.vertex(slot as usize).adj.len() - i as usize - 1) as u64
                })
                .sum();
            comm.send(graph.owner(q), &dry_handler, &(q, count, my_rank));
        }
    }
    comm.barrier();
    let dry_phase = timer.end();

    // The dry-run's bookkeeping is O(wedge targets); release what the
    // remaining phases will never read so the push phase doesn't carry
    // it at peak: resume pointers of vetoed targets will be satisfied
    // by pushes, not pulls (the veto set is final once the dry-run
    // barrier completes). A replayed plan arrives already filtered.
    if !matches!(mode, PlanMode::Replay(_)) {
        let mut s = st.borrow_mut();
        let veto = std::mem::take(&mut s.veto);
        s.resume.retain_targets(|q| !veto.contains(&q));
        s.veto = veto;
    }
    if let PlanMode::Capture(out) = mode {
        // Snapshot the post-veto dry-run outcome. Rank vectors and the
        // pull list arrive in message order, which is scheduling
        // dependent; sort them so a captured plan is deterministic.
        let s = st.borrow();
        let mut veto: Vec<u64> = s.veto.iter().copied().collect();
        veto.sort_unstable();
        let mut pull_list: Vec<(u64, Vec<u32>)> = s
            .pull_list
            .iter()
            .map(|(&q, ranks)| {
                let mut r = ranks.clone();
                r.sort_unstable();
                (q, r)
            })
            .collect();
        pull_list.sort_unstable_by_key(|&(q, _)| q);
        *out = Some(DryRunPlan {
            entries: s.resume.entries.clone(),
            veto,
            pull_list,
            grants: s.grants,
        });
    }

    // --- Phase 2: Push ------------------------------------------------
    let timer = PhaseTimer::begin(comm, "push");
    {
        let s = st.borrow();
        push_wedge_batches(comm, graph, &push_handler, |q| !s.veto.contains(&q));
    }
    comm.barrier();
    let push_phase = timer.end();

    // --- Phase 3: Pull --------------------------------------------------
    let timer = PhaseTimer::begin(comm, "pull");
    {
        let s = st.borrow();
        let shard = graph.shard();
        for (&q, ranks) in &s.pull_list {
            let lv = shard
                .get(q)
                .expect("pull-granted vertex must be locally owned");
            // Encode-once fan-out: the `Adjm+(q)` projection serializes
            // straight from graph storage exactly once, and the encoded
            // record is memcpy'd to every granted rank.
            let dests = ranks.iter().map(|&src| src as usize);
            comm.send_to_many(dests, &pull_handler, (q, encode_candidate_columns(&lv.adj)));
        }
    }
    comm.barrier();
    let pull_phase = timer.end();
    if queue.is_some() {
        comm.clear_drain_hook();
    }

    let s = st.borrow();
    SurveyReport {
        mode: EngineMode::PushPull,
        total_seconds: dry_phase.seconds + push_phase.seconds + pull_phase.seconds,
        phases: vec![dry_phase, push_phase, pull_phase],
        pulled_vertices: s.pulled,
        pull_grants: s.grants,
    }
}

/// Registers the pull-delivery handler. Collective (handler
/// registration); `config` and `queue` only choose the handler body —
/// every body reads the same wire type.
///
/// One arriving `Adjm+(q)` projection is intersected against **every**
/// resume suffix recorded for `q`. The production body captures the
/// frame's column extents once ([`ColView`], three bounded takes) and
/// re-walks the key columns per suffix, decoding `meta(q,r)` only for
/// triangle matches. With a `queue` (parallel merge path) it instead
/// copies the delivered frame once and enqueues one work item per
/// resume suffix — empty suffixes included, so the per-suffix kernel
/// accounting matches the inline path exactly. The reference body
/// materializes the projection and runs the two-pointer merge.
fn register_pull_handler<VM, EM>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    st: Rc<RefCell<PpState>>,
    cb: DynCallback<VM, EM>,
    config: SurveyConfig,
    queue: &Option<Rc<ParQueue<VM, EM>>>,
) -> Handler<PullMsg<EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let kernel = config.kernel;
    let g = graph.clone();
    if config.is_reference() {
        return comm.register::<PullMsg<EM>, _>(move |c, (q, batch)| {
            st.borrow_mut().pulled += 1;
            let s = st.borrow();
            let shard = g.shard();
            for &(_, slot, idx) in s.resume.get(q) {
                let lv = shard.vertex(slot as usize);
                let eq = &lv.adj[idx as usize];
                debug_assert_eq!(eq.v, q);
                let suffix = &lv.adj[idx as usize + 1..];
                c.add_work((suffix.len() + batch.0.len()) as u64);
                intersect_slices(
                    IntersectKernel::MergeScalar,
                    suffix,
                    &batch.0,
                    |s| s.key,
                    |pe| OrderKey::new(pe.0, pe.1),
                    |s_entry, pe| {
                        let tm = TriangleMeta {
                            p: lv.id,
                            q,
                            r: s_entry.v,
                            meta_p: &lv.meta,
                            meta_q: &eq.vm,
                            meta_r: &s_entry.vm,
                            meta_pq: &eq.em,
                            meta_pr: &s_entry.em,
                            meta_qr: &pe.2,
                        };
                        cb(c, &tm);
                    },
                );
            }
        });
    }
    match queue.clone() {
        Some(pq) => comm.register_borrowed::<PullMsg<EM>, _>(move |c, r| {
            let q = u64::decode(r)?;
            let start = r.position();
            let view: ColView<'_, EM> = ColView::capture(r)?;
            let frame = r.since(start);
            st.borrow_mut().pulled += 1;
            let s = st.borrow();
            let shard = g.shard();
            let entries = s.resume.get(q);
            if !entries.is_empty() {
                // One frame copy shared by every resume suffix.
                let raw = pq.alloc_frame(frame);
                for &(_, slot, idx) in entries {
                    let lv = shard.vertex(slot as usize);
                    debug_assert_eq!(lv.adj[idx as usize].v, q);
                    let suffix = &lv.adj[idx as usize + 1..];
                    c.add_work((suffix.len() + view.len()) as u64);
                    pq.push_task(c, raw, suffix, Ctx::Pull { slot, idx });
                }
            }
            drop(s);
            pq.maybe_flush(c);
            Ok(())
        }),
        None => comm.register_borrowed::<PullMsg<EM>, _>(move |c, r| {
            let q = u64::decode(r)?;
            let view: ColView<'_, EM> = ColView::capture(r)?;
            st.borrow_mut().pulled += 1;
            let s = st.borrow();
            let shard = g.shard();
            for &(_, slot, idx) in s.resume.get(q) {
                let lv = shard.vertex(slot as usize);
                let eq = &lv.adj[idx as usize];
                debug_assert_eq!(eq.v, q);
                let suffix = &lv.adj[idx as usize + 1..];
                c.add_work((suffix.len() + view.len()) as u64);
                let ColCursor {
                    mut keys,
                    mut metas,
                } = view.walk();
                intersect_col(
                    kernel,
                    &mut keys,
                    suffix,
                    |s_entry| s_entry.key,
                    |k, s_entry| {
                        debug_assert_eq!(
                            k.v, s_entry.v,
                            "OrderKey equality implies vertex equality"
                        );
                        let meta_qr = metas.get(k.idx)?;
                        let tm = TriangleMeta {
                            p: lv.id,
                            q,
                            r: s_entry.v,
                            meta_p: &lv.meta,
                            meta_q: &eq.vm,
                            meta_r: &s_entry.vm,
                            meta_pq: &eq.em,
                            meta_pr: &s_entry.em,
                            meta_qr: &meta_qr,
                        };
                        cb(c, &tm);
                        Ok(())
                    },
                )?;
            }
            Ok(())
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use tripoll_graph::{build_dist_graph, EdgeList, Partition};
    use tripoll_ygm::World;

    #[test]
    fn resume_plan_groups_sorts_and_retains() {
        let mut plan = ResumePlan::default();
        // Vertex-major insertion order, targets deliberately shuffled.
        plan.push(9, 0, 0);
        plan.push(2, 0, 1);
        plan.push(9, 1, 0);
        plan.push(5, 1, 1);
        plan.push(2, 2, 0);
        plan.seal();
        let runs: Vec<(u64, usize)> = plan.runs().map(|(q, run)| (q, run.len())).collect();
        assert_eq!(runs, vec![(2, 2), (5, 1), (9, 2)]);
        assert_eq!(plan.get(9), &[(9, 0, 0), (9, 1, 0)]);
        assert_eq!(plan.get(5), &[(5, 1, 1)]);
        assert!(plan.get(7).is_empty());
        plan.retain_targets(|q| q != 9);
        assert!(plan.get(9).is_empty());
        assert_eq!(plan.get(2), &[(2, 0, 1), (2, 2, 0)]);
        let runs: Vec<u64> = plan.runs().map(|(q, _)| q).collect();
        assert_eq!(runs, vec![2, 5]);
    }

    fn run_count(edges: &[(u64, u64)], nranks: usize) -> (u64, Vec<SurveyReport>) {
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        let out = World::new(nranks).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let count = Rc::new(Cell::new(0u64));
            let count2 = count.clone();
            let report = survey_push_pull(comm, &g, move |_c, _tm| {
                count2.set(count2.get() + 1);
            });
            (comm.all_reduce_sum(count.get()), report)
        });
        let total = out[0].0;
        for (t, _) in &out {
            assert_eq!(*t, total);
        }
        (total, out.into_iter().map(|(_, r)| r).collect())
    }

    #[test]
    fn triangle() {
        let (count, reports) = run_count(&[(0, 1), (1, 2), (2, 0)], 2);
        assert_eq!(count, 1);
        for r in &reports {
            assert_eq!(r.mode, EngineMode::PushPull);
            assert_eq!(r.phases.len(), 3);
            assert_eq!(r.phases[0].name, "dry-run");
            assert_eq!(r.phases[1].name, "push");
            assert_eq!(r.phases[2].name, "pull");
        }
    }

    #[test]
    fn k6_various_ranks() {
        let mut edges = Vec::new();
        for u in 0..6u64 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        for nranks in [1, 2, 3, 5] {
            let (count, _) = run_count(&edges, nranks);
            assert_eq!(count, 20, "K6 has C(6,3)=20 triangles, nranks={nranks}");
        }
    }

    #[test]
    fn pull_happens_on_shared_hub_targets() {
        // Many low-degree sources on each rank share two high-degree hubs
        // whose adjacency is short relative to the candidates aimed at
        // them — the Fig. 3 scenario, which must trigger pulls.
        //
        // Construction: k "source" vertices each adjacent to hubs h1, h2;
        // plus the edge (h1, h2) closing k triangles. Source degree 2 <
        // hub degree k+1, so each source points at both hubs and pushes a
        // single candidate per wedge — unless pulling wins.
        let k = 24u64;
        let h1 = 1000;
        let h2 = 1001;
        let mut edges = vec![(h1, h2)];
        for sv in 0..k {
            edges.push((sv, h1));
            edges.push((sv, h2));
        }
        let (count, reports) = run_count(&edges, 2);
        assert_eq!(count, k, "one triangle per source vertex");
        let pulled: u64 = reports.iter().map(|r| r.pulled_vertices).sum();
        let grants: u64 = reports.iter().map(|r| r.pull_grants).sum();
        assert!(pulled > 0, "expected pulls on hub-shared topology");
        assert_eq!(pulled, grants, "every grant results in one delivery");
    }

    #[test]
    fn star_has_no_wedges_no_pulls_no_pushes() {
        // Every leaf's Adj+ is just the hub (empty suffix): no wedge
        // batches exist, so the dry-run plans nothing and nothing moves.
        let edges: Vec<(u64, u64)> = (1..=20u64).map(|v| (0, v)).collect();
        let (count, reports) = run_count(&edges, 3);
        assert_eq!(count, 0);
        for r in &reports {
            assert_eq!(r.pulled_vertices, 0);
            assert_eq!(r.pull_grants, 0);
            assert_eq!(r.phases[1].stats.records_total(), 0, "no pushes");
        }
    }

    #[test]
    fn single_triangle_vetoes_the_pull() {
        // K3: the one wedge pushes one candidate to q, and |Adj+(q)| = 1
        // is not < 1, so the owner vetoes and the wedge is pushed.
        let (count, reports) = run_count(&[(0, 1), (1, 2), (2, 0)], 1);
        assert_eq!(count, 1);
        for r in &reports {
            assert_eq!(r.pulled_vertices, 0, "K3 must not pull");
        }
    }

    #[test]
    fn empty_adjacency_targets_are_pulled_cheaply() {
        // In a cycle, hash tie-breaks give some vertices d+ = 0; pulling
        // their empty adjacency beats pushing even one candidate, so the
        // paper's rule (|Adj+(q)| < count) grants those pulls. Counts are
        // unaffected.
        let n = 40u64;
        let edges: Vec<(u64, u64)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let (count, reports) = run_count(&edges, 3);
        assert_eq!(count, 0);
        let pulled: u64 = reports.iter().map(|r| r.pulled_vertices).sum();
        let grants: u64 = reports.iter().map(|r| r.pull_grants).sum();
        assert_eq!(pulled, grants);
    }

    #[test]
    fn metadata_correct_in_pull_path() {
        // Same hub construction as above so the pull path executes, with
        // content-addressed metadata validated inside the callback —
        // on the production path (the ColView re-walk) and on the
        // reference it is compared against.
        for kernel in [IntersectKernel::Auto, IntersectKernel::MergeScalar] {
            let k = 16u64;
            let h1 = 500;
            let h2 = 501;
            let mut edges = vec![(h1, h2)];
            for sv in 0..k {
                edges.push((sv, h1));
                edges.push((sv, h2));
            }
            let em_of = |u: u64, v: u64| (u.min(v) << 20) | u.max(v);
            let list = EdgeList::from_vec(
                edges
                    .iter()
                    .map(|&(u, v)| (u, v, em_of(u, v)))
                    .collect::<Vec<_>>(),
            );
            let out = World::new(2).run(|comm| {
                let local = list.stride_for_rank(comm.rank(), comm.nranks());
                let g = build_dist_graph(comm, local, |v| v * 31 + 7, Partition::Hashed);
                let seen = Rc::new(Cell::new(0u64));
                let seen2 = seen.clone();
                let report = survey_push_pull_with(comm, &g, kernel, move |_c, tm| {
                    assert_eq!(*tm.meta_p, tm.p * 31 + 7);
                    assert_eq!(*tm.meta_q, tm.q * 31 + 7);
                    assert_eq!(*tm.meta_r, tm.r * 31 + 7);
                    assert_eq!(*tm.meta_pq, em_of(tm.p, tm.q));
                    assert_eq!(*tm.meta_pr, em_of(tm.p, tm.r));
                    assert_eq!(*tm.meta_qr, em_of(tm.q, tm.r));
                    seen2.set(seen2.get() + 1);
                });
                (comm.all_reduce_sum(seen.get()), report.pulled_vertices)
            });
            assert_eq!(out[0].0, k, "kernel {kernel}");
            let pulled: u64 = out.iter().map(|(_, p)| p).sum();
            assert!(pulled > 0, "test must exercise the pull path ({kernel})");
        }
    }

    #[test]
    fn agrees_with_push_only_on_dense_graph() {
        use crate::push_only::survey_push_only;
        // Random-ish deterministic graph.
        let mut edges = Vec::new();
        for u in 0..30u64 {
            for v in (u + 1)..30 {
                if (u * 7919 + v * 104729) % 5 == 0 {
                    edges.push((u, v));
                }
            }
        }
        let list = EdgeList::from_vec(edges.iter().map(|&(u, v)| (u, v, ())).collect::<Vec<_>>());
        let out = World::new(3).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let c1 = Rc::new(Cell::new(0u64));
            let c1b = c1.clone();
            survey_push_only(comm, &g, move |_c, _tm| c1b.set(c1b.get() + 1));
            let c2 = Rc::new(Cell::new(0u64));
            let c2b = c2.clone();
            survey_push_pull(comm, &g, move |_c, _tm| c2b.set(c2b.get() + 1));
            (comm.all_reduce_sum(c1.get()), comm.all_reduce_sum(c2.get()))
        });
        for (push_only, push_pull) in out {
            assert_eq!(push_only, push_pull);
            assert!(push_only > 0, "graph should contain triangles");
        }
    }
}
