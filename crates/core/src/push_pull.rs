//! The Push-Pull survey engine (paper §4.4).
//!
//! Distributed triangle identification generates `O(d+(p)²)` wedge checks
//! per vertex; the Push-Pull optimization reduces the traffic they cost
//! by letting each (source rank, target vertex) pair choose the cheaper
//! direction:
//!
//! 1. **Dry-run** — a communication-free pass records, per target vertex
//!    `q`, resume pointers `(p, index of q in Adjm+(p))` for the pull
//!    case ([`ResumePlan`]: the pointers grouped by a radix sort on `q`
//!    into one table keyed by target, found with one hash probe). One
//!    `(q, count)` record per target, in increasing `q` — the count of
//!    candidate edges this rank would push, derived from the grouped
//!    pointers — goes to `Rank(q)`, which grants a pull when
//!    `|Adjm+(q)| < count` — i.e. shipping `q`'s adjacency once is
//!    cheaper than receiving `count` candidates — and otherwise replies
//!    with a push veto, which removes `q` from the plan.
//! 2. **Push phase** — wedge batches for vetoed targets, the ones the
//!    plan no longer holds, are pushed exactly as in Push-Only.
//! 3. **Pull phase** — each owner ships `Adjm+(q)` once to every granted
//!    rank (coalesced across that rank's sources); the puller resumes its
//!    recorded pointers and intersects locally, running callbacks on
//!    `Rank(p)` (where, by the storage design of §4.2, all six metadata
//!    values are already resident).
//!
//! Like a pushed batch, a pull delivery is a columnar frame, encoded
//! once per granted `q` and fanned out to every granted rank. It is
//! captured once as a [`ColCursor`] (three bounded takes), its two key
//! columns are decoded once into a rank-owned flat [`OrderKey`] column
//! (a key's frame index is its position), and that column is indexed
//! once in a rank-owned hash table ([`KeyIndex`]). Every resume suffix
//! is then probed into the index, one lookup per candidate, instead of
//! merged against the pulled list; `meta(q,r)` is decoded only on
//! matches. One pulled list serves many short suffixes, the shape a
//! hash-indexed intersection suits; pushed batches, one per
//! `(p, q)`, keep the merge kernels.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use tripoll_graph::{DistGraph, OrderKey};
use tripoll_ygm::hash::FastMap;
use tripoll_ygm::wire::{ColBatch, ColCursor, ColSuffixes, Wire};
use tripoll_ygm::{Comm, Handler};

use crate::engine::{
    intersect_slices, EngineMode, FrameDecoder, IntersectKernel, KeyIndex, PhaseTimer,
    SurveyConfig, SurveyReport,
};
use crate::meta::{SurveyCallback, TriangleMeta};
use crate::push_common::{fill_candidates, push_wedge_batches, register_push_handler};

/// Dry-run record: `(q, planned candidate count, source rank)`.
type DryRunMsg = (u64, u64, u32);
/// Pull delivery: `(q, Adjm+(q) projected to (r, d(r), meta(q,r)))`,
/// the projection as three packed columns.
type PullMsg<EM> = (u64, ColBatch<EM>);

/// Dry-run resume pointers, keyed by wedge target.
///
/// The paper's "pointers to efficiently iterate over source vertices
/// stored locally" (§4.4). The dry run stages one `(q, slot, index)`
/// pointer per wedge target, vertex-major, and [`ResumePlan::seal`]
/// groups them by `q` without a comparison sort: a stable LSD radix
/// sort on `q`, 8-bit digits, that skips every digit all staged targets
/// share. One pass then splits the sorted pointers into a target table
/// — `(q, start, end)` in increasing `q` — and the `(slot, index)`
/// pointers themselves, 8 bytes each, every run in vertex-major order.
/// One hash entry per target (never one per pointer) maps `q` to its
/// row, so a pull delivery finds its run with one probe.
///
/// The planned candidate count is derived from a run when the dry-run
/// record is sent, so there is no second map. A vetoed target is
/// [removed](ResumePlan::remove): after the dry run the plan holds
/// exactly the granted pulls, and the push phase skips a target exactly
/// when the plan [contains](ResumePlan::contains) it.
///
/// ```
/// use tripoll_core::ResumePlan;
///
/// let mut plan = ResumePlan::new();
/// // (target, vertex slot, adjacency index), vertex-major.
/// plan.push(9, 0, 0);
/// plan.push(2, 0, 1);
/// plan.push(9, 1, 0);
/// plan.seal();
/// assert_eq!(plan.get(9), &[(0, 0), (1, 0)]);
/// plan.remove(9);
/// assert!(!plan.contains(9));
/// let runs: Vec<u64> = plan.runs().map(|(q, _)| q).collect();
/// assert_eq!(runs, [2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ResumePlan {
    /// `(q, vertex slot, adjacency index)` as pushed, until sealed.
    staged: Vec<(u64, u32, u32)>,
    /// One `(q, start, end)` per target, in increasing `q`: its run is
    /// `ptrs[start..end]`, empty once the target is removed.
    targets: Vec<(u64, u32, u32)>,
    /// `(vertex slot, adjacency index)`, grouped by target.
    ptrs: Vec<(u32, u32)>,
    /// `q` → its row in `targets`, for every target still planned.
    rows: FastMap<u64, u32>,
}

impl ResumePlan {
    /// An empty plan.
    pub fn new() -> Self {
        ResumePlan::default()
    }

    /// Stages one resume pointer: `q`'s index `idx` in the adjacency
    /// of the vertex in shard slot `slot`. Pointers are pushed
    /// vertex-major, and a run keeps their order.
    #[inline]
    pub fn push(&mut self, q: u64, slot: u32, idx: u32) {
        self.staged.push((q, slot, idx));
    }

    /// Groups the staged pointers by target and indexes the targets,
    /// replacing whatever the plan held.
    ///
    /// # Panics
    ///
    /// If more than `u32::MAX` pointers are staged.
    pub fn seal(&mut self) {
        let mut staged = std::mem::take(&mut self.staged);
        assert!(
            u32::try_from(staged.len()).is_ok(),
            "a resume plan holds at most u32::MAX pointers"
        );
        radix_sort_by_target(&mut staged);
        self.targets.clear();
        self.ptrs.clear();
        self.ptrs.reserve_exact(staged.len());
        for &(q, slot, idx) in &staged {
            let at = self.ptrs.len() as u32;
            match self.targets.last_mut() {
                Some(t) if t.0 == q => t.2 = at + 1,
                _ => self.targets.push((q, at, at + 1)),
            }
            self.ptrs.push((slot, idx));
        }
        self.rows.clear();
        self.rows.reserve(self.targets.len());
        for (row, &(q, _, _)) in self.targets.iter().enumerate() {
            self.rows.insert(q, row as u32);
        }
    }

    /// One run per planned target, in increasing `q` (requires a sealed
    /// plan).
    pub fn runs(&self) -> impl Iterator<Item = (u64, &[(u32, u32)])> {
        self.targets
            .iter()
            .filter(|&&(_, start, end)| start < end)
            .map(|&(q, start, end)| (q, &self.ptrs[start as usize..end as usize]))
    }

    /// The resume pointers planned for `q` (empty if none): one probe.
    #[inline]
    pub fn get(&self, q: u64) -> &[(u32, u32)] {
        match self.rows.get(&q) {
            Some(&row) => {
                let (_, start, end) = self.targets[row as usize];
                &self.ptrs[start as usize..end as usize]
            }
            None => &[],
        }
    }

    /// Whether the plan still holds pointers for `q`.
    #[inline]
    pub fn contains(&self, q: u64) -> bool {
        self.rows.contains_key(&q)
    }

    /// Drops `q` and its pointers from the plan; a target it does not
    /// hold is ignored.
    pub fn remove(&mut self, q: u64) {
        if let Some(row) = self.rows.remove(&q) {
            let t = &mut self.targets[row as usize];
            t.2 = t.1;
        }
    }
}

/// Stable LSD radix sort of `v` on the target, one 8-bit digit per
/// pass from the lowest. A digit every target shares moves nothing, so
/// its pass is skipped; an empty or one-target `v` is never scattered.
fn radix_sort_by_target(v: &mut Vec<(u64, u32, u32)>) {
    let n = v.len();
    let mut counts = [[0u32; 256]; 8];
    for &(q, _, _) in v.iter() {
        for (d, c) in counts.iter_mut().enumerate() {
            c[(q >> (8 * d)) as usize & 0xff] += 1;
        }
    }
    let mut out = Vec::new();
    for (d, c) in counts.iter_mut().enumerate() {
        if c.iter().any(|&k| k as usize == n) {
            continue;
        }
        let mut at = 0;
        for k in c.iter_mut() {
            (*k, at) = (at, at + *k);
        }
        out.resize(n, (0, 0, 0));
        for &e in v.iter() {
            let b = (e.0 >> (8 * d)) as usize & 0xff;
            out[c[b] as usize] = e;
            c[b] += 1;
        }
        std::mem::swap(v, &mut out);
    }
}

/// A captured dry-run outcome, reusable across queries.
///
/// The dry-run is a pure function of the graph content, the partition,
/// and the rank count — it does not depend on the [`SurveyConfig`]. A
/// resident graph therefore captures the plan on the first Push-Pull
/// query at a given rank count and replays it (zero dry-run traffic)
/// for every later query at that count, with bit-identical results: the
/// replay prefills exactly the pull list and post-veto resume plan the
/// fresh dry-run would have produced. The plan is shared behind an
/// [`Arc`], so a replay copies no pointer.
///
/// Plans are per-rank: rank `r`'s plan is only valid on rank `r` of a
/// world with the same rank count over the same shards.
///
/// "Same shards" holds by construction, not by checksum: captured
/// plans live inside the resident tier's per-world-size state next to
/// the shards they were captured from, and a query replays a plan only
/// in a world built from that same state.
/// `ResidentGraph::ingest_batch` drops the cache of those states
/// wholesale when a batch changes the storage — degrees, `d+`, and pull
/// decisions may all shift, so the first Push-Pull query after an
/// ingest runs a fresh dry-run and re-captures.
#[derive(Debug, Clone, Default)]
pub(crate) struct DryRunPlan {
    /// The post-veto resume plan: exactly the granted pulls.
    resume: Arc<ResumePlan>,
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
    /// planned counts; see [`ResumePlan`]). Vetoes remove their
    /// targets, so after the dry run it holds exactly the granted
    /// pulls.
    resume: Arc<ResumePlan>,
    /// Local vertices q → ranks that will pull `Adjm+(q)`.
    pull_list: FastMap<u64, Vec<u32>>,
    /// Adjacency lists this rank pulled (received).
    pulled: u64,
    /// Pull requests this rank granted.
    grants: u64,
    /// Decodes the key columns of the pull delivery being served once,
    /// into a flat key column (the push handler's [`FrameDecoder`]).
    frame_decoder: FrameDecoder,
    /// The hash index over that key column, built once per delivery
    /// and probed by every resume suffix.
    frame_index: KeyIndex,
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
/// [`IntersectKernel`], via `Into`). The kernel is a local compute
/// choice; [`IntersectKernel::MergeScalar`] selects the reference path
/// the differential suites compare against.
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
    let cb = Rc::new(callback);
    let st = Rc::new(RefCell::new(PpState::default()));

    // Handler registration order is part of the SPMD contract: all four
    // registrations below happen on every rank in this exact order.
    let push_handler = register_push_handler(comm, graph, cb.clone(), config);

    let st_veto = st.clone();
    let veto_handler = comm.register::<u64, _>(move |_c, q| {
        Arc::make_mut(&mut st_veto.borrow_mut().resume).remove(q);
    });

    let st_dry = st.clone();
    let g_dry = graph.clone();
    let dry_handler = comm.register::<DryRunMsg, _>(move |c, (q, count, src)| {
        let Some(lv) = g_dry.shard().get(q) else {
            c.abort(format_args!(
                "dry-run record for vertex {q} from rank {src} arrived on a rank that does not \
                 own {q} — vertex ownership disagrees across ranks; aborting survey"
            ));
        };
        if lv.dplus() < count {
            let mut s = st_dry.borrow_mut();
            s.pull_list.entry(q).or_default().push(src);
            s.grants += 1;
        } else {
            c.send(src as usize, &veto_handler, &q);
        }
    });

    let pull_handler = register_pull_handler(comm, graph, st.clone(), cb, config);

    // --- Phase 1: Push vs Pull Dry-Run -------------------------------
    let timer = PhaseTimer::begin(comm, "dry-run");
    if let PlanMode::Replay(plan) = &mode {
        // The dry-run is a pure function of (graph, partition, rank
        // count); a replayed plan prefills its entire outcome with
        // zero traffic. The phase barrier below still runs, keeping
        // the collective structure identical across modes.
        let mut s = st.borrow_mut();
        s.resume = plan.resume.clone();
        for (q, ranks) in &plan.pull_list {
            s.pull_list.insert(*q, ranks.clone());
        }
        s.grants = plan.grants;
    } else {
        let mut plan = ResumePlan::new();
        for (slot, lv) in graph.shard().vertices().enumerate() {
            for (i, e) in lv.adj.iter().enumerate() {
                let suffix_len = lv.adj.len() - i - 1;
                if suffix_len == 0 {
                    break;
                }
                plan.push(e.v, slot as u32, i as u32);
            }
        }
        plan.seal();
        st.borrow_mut().resume = Arc::new(plan);
        // One dry-run record per run; the planned candidate count is
        // the sum of the suffix lengths its pointers name.
        let s = st.borrow();
        let shard = graph.shard();
        let my_rank = comm.rank() as u32;
        for (q, run) in s.resume.runs() {
            let count: u64 = run
                .iter()
                .map(|&(slot, i)| (shard.vertex(slot as usize).adj.len() - i as usize - 1) as u64)
                .sum();
            comm.send(graph.owner(q), &dry_handler, &(q, count, my_rank));
        }
    }
    comm.barrier();
    let dry_phase = timer.end();

    // Every veto has arrived once the dry-run barrier completes, so the
    // plan now holds exactly the granted pulls.
    if let PlanMode::Capture(out) = mode {
        // Snapshot the post-veto dry-run outcome. Rank vectors and the
        // pull list arrive in message order, which is scheduling
        // dependent; sort them so a captured plan is deterministic.
        let s = st.borrow();
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
            resume: s.resume.clone(),
            pull_list,
            grants: s.grants,
        });
    }

    // --- Phase 2: Push ------------------------------------------------
    let timer = PhaseTimer::begin(comm, "push");
    {
        let s = st.borrow();
        push_wedge_batches(comm, graph, &push_handler, |q| s.resume.contains(q));
    }
    comm.barrier();
    let push_phase = timer.end();

    // --- Phase 3: Pull --------------------------------------------------
    let timer = PhaseTimer::begin(comm, "pull");
    {
        let s = st.borrow();
        let shard = graph.shard();
        let mut cols = ColSuffixes::new();
        for (&q, ranks) in &s.pull_list {
            let lv = shard
                .get(q)
                .expect("pull-granted vertex must be locally owned");
            // Encode-once fan-out: the `Adjm+(q)` projection is encoded
            // from graph storage exactly once, and the encoded record
            // is memcpy'd to every granted rank.
            fill_candidates(&mut cols, &lv.adj);
            let dests = ranks.iter().map(|&src| src as usize);
            comm.send_to_many(dests, &pull_handler, (q, cols.suffix(0)));
        }
    }
    comm.barrier();
    let pull_phase = timer.end();

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
/// registration); `config` only chooses the handler body — both bodies
/// read the same wire type.
///
/// One arriving `Adjm+(q)` projection is intersected against **every**
/// resume suffix recorded for `q`. The production body captures the
/// frame's column extents once ([`ColCursor`], three bounded takes),
/// decodes its key columns once per delivery ([`FrameDecoder`]),
/// builds one [`KeyIndex`] over them, and probes each suffix
/// `Adjm+(p)[idx+1..]` into it with [`KeyIndex::probe`], decoding
/// `meta(q,r)` only for triangle matches, from a clone of the captured
/// meta column. It runs for every `config` but the reference, whatever
/// its kernel: the kernel selects the push arm only. The reference body
/// materializes the projection and runs the two-pointer merge.
fn register_pull_handler<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    st: Rc<RefCell<PpState>>,
    cb: Rc<F>,
    config: SurveyConfig,
) -> Handler<PullMsg<EM>>
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    let g = graph.clone();
    if config.is_reference() {
        return comm.register::<PullMsg<EM>, _>(move |c, (q, batch)| {
            st.borrow_mut().pulled += 1;
            let s = st.borrow();
            let shard = g.shard();
            for &(slot, idx) in s.resume.get(q) {
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
    comm.register_borrowed::<PullMsg<EM>, _>(move |c, r| {
        let q = u64::decode(r)?;
        let ColCursor { keys, metas } = ColCursor::<'_, EM>::begin(r)?;
        let mut s = st.borrow_mut();
        s.pulled += 1;
        let PpState {
            resume,
            frame_decoder,
            frame_index,
            ..
        } = &mut *s;
        let frame_keys = frame_decoder.decode(keys)?;
        frame_index.build(frame_keys)?;
        let shard = g.shard();
        for &(slot, idx) in resume.get(q) {
            let lv = shard.vertex(slot as usize);
            let eq = &lv.adj[idx as usize];
            debug_assert_eq!(eq.v, q);
            let suffix = &lv.adj[idx as usize + 1..];
            c.add_work((suffix.len() + frame_keys.len()) as u64);
            let mut metas = metas.clone();
            let mut failed = None;
            frame_index.probe(
                suffix,
                |s_entry| s_entry.key,
                |a, i| {
                    if failed.is_some() {
                        return;
                    }
                    let s_entry = &suffix[a];
                    match metas.get(i) {
                        Ok(meta_qr) => cb(
                            c,
                            &TriangleMeta {
                                p: lv.id,
                                q,
                                r: s_entry.v,
                                meta_p: &lv.meta,
                                meta_q: &eq.vm,
                                meta_r: &s_entry.vm,
                                meta_pq: &eq.em,
                                meta_pr: &s_entry.em,
                                meta_qr: &meta_qr,
                            },
                        ),
                        Err(e) => failed = Some(e),
                    }
                },
            );
            if let Some(e) = failed {
                return Err(e);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeMap;
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
        assert_eq!(plan.get(9), &[(0, 0), (1, 0)]);
        assert_eq!(plan.get(5), &[(1, 1)]);
        assert!(plan.get(7).is_empty());
        assert!(plan.contains(9) && !plan.contains(7));
        plan.remove(9);
        plan.remove(7);
        assert!(plan.get(9).is_empty());
        assert!(!plan.contains(9));
        assert_eq!(plan.get(2), &[(0, 1), (2, 0)]);
        let runs: Vec<u64> = plan.runs().map(|(q, _)| q).collect();
        assert_eq!(runs, vec![2, 5]);
    }

    /// Targets that exercise every radix digit: small ids, ids that
    /// differ only in the top byte, and ids spread over all 64 bits.
    fn plan_target(rng_word: u64, pick: u64) -> u64 {
        match pick % 4 {
            0 => rng_word % 8,
            1 => (rng_word % 4) << 56 | 0x00ab_cdef,
            2 => u64::MAX - rng_word % 3,
            _ => rng_word,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]
        /// A sealed plan, vetoes removed, answers `runs`, `get` (present
        /// and absent targets) and the push-skip question exactly as a
        /// `BTreeMap` from target to its pointers in push order does.
        #[test]
        fn resume_plan_matches_a_btreemap_oracle(
            words in proptest::collection::vec((0u64..u64::MAX, 0u64..4), 0..160),
            one_target in 0u64..4,
            vetoes in proptest::collection::vec(0usize..200, 0..12),
        ) {
            let targets: Vec<u64> = if one_target == 0 {
                // Every digit is shared: no radix pass runs.
                vec![words.first().map_or(7, |&(w, _)| w); words.len()]
            } else {
                words.iter().map(|&(w, p)| plan_target(w, p)).collect()
            };
            let mut plan = ResumePlan::new();
            let mut oracle: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new();
            // Vertex-major: slots ascend, indices ascend within a slot.
            for (i, &q) in targets.iter().enumerate() {
                let (slot, idx) = ((i / 3) as u32, (i % 3) as u32);
                plan.push(q, slot, idx);
                oracle.entry(q).or_default().push((slot, idx));
            }
            plan.seal();
            let keys: Vec<u64> = oracle.keys().copied().collect();
            for &v in &vetoes {
                // Half the vetoes name a planned target, half likely not.
                let q = if v % 2 == 0 && !keys.is_empty() {
                    keys[v % keys.len()]
                } else {
                    v as u64 * 0x9e37_79b9
                };
                plan.remove(q);
                oracle.remove(&q);
            }
            let runs: Vec<(u64, Vec<(u32, u32)>)> =
                plan.runs().map(|(q, run)| (q, run.to_vec())).collect();
            let expected: Vec<(u64, Vec<(u32, u32)>)> =
                oracle.iter().map(|(&q, run)| (q, run.clone())).collect();
            proptest::prop_assert_eq!(runs, expected);
            for q in keys.iter().copied().chain([3, 1 << 56, u64::MAX - 7]) {
                let want = oracle.get(&q).map_or(&[][..], |run| &run[..]);
                proptest::prop_assert_eq!(plan.get(q), want);
                proptest::prop_assert_eq!(plan.contains(q), oracle.contains_key(&q));
            }
        }
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
        // One pulled q whose Adjm+(q) has five entries r0..r4, ordered
        // by their distinct degrees 50..54 (padded with leaves) so r_j
        // sits at frame index j. Each of 40 apexes (degree 2) closes one
        // triangle with q and r_{1 + i % 4}: matches land at the four
        // non-zero frame indices, and ColMetas::get must skip to each.
        // Every rank hosts more than five apexes aimed at q, so every
        // rank pulls Adjm+(q) and every triangle comes from the pull.
        let q = 500u64;
        let r = |j: u64| 600 + j;
        let mut edges = Vec::new();
        for i in 0..40u64 {
            edges.push((i, q));
            edges.push((i, r(1 + i % 4)));
        }
        let mut leaf = 10_000u64;
        for j in 0..5u64 {
            edges.push((q, r(j)));
            let matched = if j == 0 { 0 } else { 10 };
            for _ in 0..(50 + j - 1 - matched) {
                edges.push((r(j), leaf));
                leaf += 1;
            }
        }
        let em_of = |u: u64, v: u64| (u.min(v) << 20) | u.max(v);
        let list = EdgeList::from_vec(
            edges
                .iter()
                .map(|&(u, v)| (u, v, em_of(u, v)))
                .collect::<Vec<_>>(),
        );
        let run = |kernel: IntersectKernel, nranks: usize| {
            World::new(nranks).run(|comm| {
                let local = list.stride_for_rank(comm.rank(), comm.nranks());
                let g = build_dist_graph(comm, local, |v| v * 31 + 7, Partition::Hashed);
                if let Some(lv) = g.shard().get(q) {
                    let adj: Vec<u64> = lv.adj.iter().map(|e| e.v).collect();
                    assert_eq!(adj, (0..5).map(r).collect::<Vec<_>>());
                }
                let seen = Rc::new(Cell::new((0u64, 0u64)));
                let seen2 = seen.clone();
                let report = survey_push_pull_with(comm, &g, kernel, move |_c, tm| {
                    assert_eq!(*tm.meta_p, tm.p * 31 + 7);
                    assert_eq!(*tm.meta_q, tm.q * 31 + 7);
                    assert_eq!(*tm.meta_r, tm.r * 31 + 7);
                    assert_eq!(*tm.meta_pq, em_of(tm.p, tm.q));
                    assert_eq!(*tm.meta_pr, em_of(tm.p, tm.r));
                    assert_eq!(*tm.meta_qr, em_of(tm.q, tm.r));
                    let (n, sum) = seen2.get();
                    seen2.set((
                        n + 1,
                        sum ^ (tm.p << 40 | tm.r << 20).wrapping_add(*tm.meta_qr),
                    ));
                });
                let (n, sum) = seen.get();
                let pulled = comm.all_reduce_sum(report.pulled_vertices);
                (
                    comm.all_reduce_sum(n),
                    comm.all_reduce(sum, |a, b| a ^ b),
                    pulled,
                )
            })[0]
        };
        for nranks in [1, 2, 3] {
            let reference = run(IntersectKernel::MergeScalar, nranks);
            assert_eq!(reference.0, 40, "one triangle per apex (n={nranks})");
            // Every rank pulls q; Rank(q) also pulls the empty Adjm+(r_j)
            // of r0..r3, whose wedges (q, r_j, r_k>j) are q's own.
            assert_eq!(
                reference.2,
                nranks as u64 + 4,
                "every rank pulls q (n={nranks})"
            );
            for kernel in [
                IntersectKernel::Auto,
                IntersectKernel::Gallop,
                IntersectKernel::Merge,
            ] {
                assert_eq!(
                    run(kernel, nranks),
                    reference,
                    "kernel {kernel}, n={nranks}"
                );
            }
        }
    }

    /// Delivers one pull frame to a directly registered production pull
    /// handler, its `(v, degree)` keys first reordered by `mangle_keys`
    /// and its encoded key columns then corrupted by `mangle`. The
    /// frame's first key matches the resume suffix and every later key
    /// lies past it, so a kernel that stopped at the suffix's end would
    /// never reach the corruption; the callback panics if the survey
    /// emits anything.
    fn hostile_pull(mangle_keys: fn(&mut Vec<(u64, u64)>), mangle: fn(&mut Vec<u8>, &mut Vec<u8>)) {
        use tripoll_ygm::wire::{put_varint, WireEncode};
        struct Raw(Vec<u8>);
        impl WireEncode for Raw {
            fn encode_wire(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.0);
            }
        }
        let mut edges = Vec::new();
        for u in 0..8u64 {
            for v in (u + 1)..8 {
                edges.push((u, v, ()));
            }
        }
        let list = EdgeList::from_vec(edges);
        World::new(2).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let g = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let st = Rc::new(RefCell::new(PpState::default()));
            let cb = Rc::new(|_c: &Comm, _tm: &TriangleMeta<'_, (), ()>| {
                panic!("callback ran on a corrupt pull frame")
            });
            let h = register_pull_handler(comm, &g, st.clone(), cb, SurveyConfig::default());
            if comm.rank() == 0 {
                let (slot, lv) = g
                    .shard()
                    .vertices()
                    .enumerate()
                    .find(|(_, lv)| lv.adj.len() >= 2)
                    .expect("K8 has a vertex with two out-neighbours");
                let (q, r) = (&lv.adj[0], &lv.adj[1]);
                let mut plan = ResumePlan::new();
                plan.push(q.v, slot as u32, 0);
                plan.seal();
                st.borrow_mut().resume = Arc::new(plan);
                let mut keys = vec![(r.v, r.key.degree)];
                keys.extend((0..63).map(|i| (i, (1 << 40) + i)));
                mangle_keys(&mut keys);
                let (mut vcol, mut dcol) = (Vec::new(), Vec::new());
                let mut prev = 0;
                for (i, &(v, d)) in keys.iter().enumerate() {
                    put_varint(&mut vcol, v);
                    // The first degree is raw, every later one a zigzag
                    // delta.
                    let delta = d.wrapping_sub(prev) as i64;
                    let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
                    put_varint(&mut dcol, if i == 0 { d } else { zigzag });
                    prev = d;
                }
                mangle(&mut vcol, &mut dcol);
                let mut frame = Vec::new();
                put_varint(&mut frame, q.v);
                put_varint(&mut frame, keys.len() as u64);
                for col in [&vcol, &dcol] {
                    put_varint(&mut frame, col.len() as u64);
                    frame.extend_from_slice(col);
                }
                put_varint(&mut frame, 0); // the unit meta column
                comm.send_encoded(0, &h, Raw(frame));
            }
            comm.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_trailing_key_bytes_aborts() {
        hostile_pull(|_| {}, |vcol, _| vcol.push(0));
    }

    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_truncated_vertex_column_aborts() {
        hostile_pull(|_| {}, |vcol, _| *vcol.last_mut().unwrap() |= 0x80);
    }

    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_truncated_degree_column_aborts() {
        hostile_pull(|_| {}, |_, dcol| *dcol.last_mut().unwrap() |= 0x80);
    }

    /// The matching key moves behind a larger one: a merge would step
    /// past it and a hash probe would find it, so the frame is refused.
    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_swapped_keys_aborts() {
        hostile_pull(|keys| keys.swap(0, 1), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_repeated_key_aborts() {
        hostile_pull(|keys| keys[1] = keys[0], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "dry-run record for vertex")]
    fn misrouted_dry_run_aborts_cleanly() {
        // Both ranks store a hashed build, but rank 1 routes by the
        // cyclic map: some of its dry-run records reach a rank that does
        // not own their target, which must abort the survey naming the
        // vertex and sender instead of granting a pull nobody can serve.
        let mut edges = Vec::new();
        for u in 0..12u64 {
            for v in (u + 1)..12 {
                edges.push((u, v, ()));
            }
        }
        let list = EdgeList::from_vec(edges);
        World::new(2).run(|comm| {
            let local = list.stride_for_rank(comm.rank(), comm.nranks());
            let built = build_dist_graph(comm, local, |_| (), Partition::Hashed);
            let partition = [Partition::Hashed, Partition::Cyclic][comm.rank()];
            let g = DistGraph::from_parts(built.shard().clone(), partition, comm.nranks());
            survey_push_pull(comm, &g, |_c, _tm| {});
        });
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
