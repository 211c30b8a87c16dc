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
//!    rank (coalesced across that rank's sources), in increasing `q`;
//!    the puller resumes its recorded pointers and intersects locally,
//!    running callbacks on `Rank(p)` (where, by the storage design of
//!    §4.2, all six metadata values are already resident).
//!
//! The dry run is a function of the graph, the partition and the rank
//! count, so its outcome is a value: `dry_run` returns one rank's
//! `DryRunPlan` (the post-veto resume plan and the pulls this rank
//! grants), and every survey runs its push and pull phases from a plan
//! behind an [`Arc`]. A cold survey makes the plan and drops it; a
//! resident query makes it once per world size and hands it to every
//! later query at that size, which then skips the dry run's traffic.
//!
//! Like a pushed batch, a pull delivery is a columnar frame, encoded
//! once per granted `q` and fanned out to every granted rank. It is
//! captured once as a [`ColCursor`] (three bounded takes), its two key
//! columns are decoded once into a rank-owned flat [`OrderKey`] column
//! (a key's frame index is its position), its meta column is walked
//! once into rank-owned element offsets, and the key column is indexed
//! once in a rank-owned hash table ([`KeyIndex`]). Nothing of the frame
//! is kept for the next delivery: unlike a pushed batch, a pulled list
//! is almost never a suffix of the one before, so the push handler's
//! [`FrameDecoder`](crate::engine::FrameDecoder) memo would not be
//! served. Every resume suffix is then probed into the index, one
//! lookup per candidate, instead of merged against the pulled list;
//! `meta(q,r)` is decoded only on matches, at its offset. One pulled
//! list serves many short suffixes, the shape a hash-indexed
//! intersection suits; pushed batches, one per `(p, q)`, keep the
//! merge kernels.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use tripoll_graph::{radix_sort_by_key, DistGraph, OrderKey};
use tripoll_ygm::hash::FastMap;
use tripoll_ygm::wire::{ColBatch, ColCursor, ColSuffixes, Wire};
use tripoll_ygm::{Comm, Handler};

use crate::engine::{
    decode_key_column, intersect_slices, EngineMode, IntersectKernel, KeyIndex, PhaseTimer,
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
/// stored locally" (§4.4). The dry run collects one `(q, slot, index)`
/// pointer per wedge target, vertex-major, and
/// [`ResumePlan::from_pointers`] groups them by `q` without a comparison
/// sort: [`radix_sort_by_key`] on `q`, 8-bit digits, which skips every
/// digit all the targets share. One pass then splits the sorted pointers
/// into a target table — `(q, start, end)` in increasing `q` — and the
/// `(slot, index)` pointers themselves, 8 bytes each, every run in
/// vertex-major order. One hash entry per target (never one per pointer)
/// maps `q` to its row, so a pull delivery finds its run with one probe.
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
/// // (target, vertex slot, adjacency index), vertex-major.
/// let mut plan = ResumePlan::from_pointers(vec![(9, 0, 0), (2, 0, 1), (9, 1, 0)]);
/// assert_eq!(plan.get(9), &[(0, 0), (1, 0)]);
/// plan.remove(9);
/// assert!(!plan.contains(9));
/// let runs: Vec<u64> = plan.runs().map(|(q, _)| q).collect();
/// assert_eq!(runs, [2]);
/// ```
#[derive(Debug, Default)]
pub struct ResumePlan {
    /// One `(q, start, end)` per target, in increasing `q`: its run is
    /// `ptrs[start..end]`, empty once the target is removed.
    targets: Vec<(u64, u32, u32)>,
    /// `(vertex slot, adjacency index)`, grouped by target.
    ptrs: Vec<(u32, u32)>,
    /// `q` → its row in `targets`, for every target still planned.
    rows: FastMap<u64, u32>,
}

impl ResumePlan {
    /// Groups `(q, vertex slot, adjacency index)` resume pointers by
    /// target and indexes the targets. Each pointer names `q`'s index in
    /// the adjacency of the vertex in shard slot `slot`; pointers come
    /// vertex-major, and a run keeps their order.
    ///
    /// # Panics
    ///
    /// If there are more than `u32::MAX` pointers.
    pub fn from_pointers(mut staged: Vec<(u64, u32, u32)>) -> Self {
        assert!(
            u32::try_from(staged.len()).is_ok(),
            "a resume plan holds at most u32::MAX pointers"
        );
        radix_sort_by_key(&mut staged, &mut Vec::new(), |&(q, _, _)| u128::from(q));
        let mut targets: Vec<(u64, u32, u32)> = Vec::new();
        let mut ptrs = Vec::with_capacity(staged.len());
        for &(q, slot, idx) in &staged {
            let at = ptrs.len() as u32;
            match targets.last_mut() {
                Some(t) if t.0 == q => t.2 = at + 1,
                _ => targets.push((q, at, at + 1)),
            }
            ptrs.push((slot, idx));
        }
        let rows = (0u32..).zip(&targets).map(|(row, t)| (t.0, row)).collect();
        ResumePlan {
            targets,
            ptrs,
            rows,
        }
    }

    /// One run per planned target, in increasing `q`.
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

/// One rank's Push-Pull dry-run outcome: what [`dry_run`] returns and
/// what every survey's push and pull phases read.
///
/// The dry run is a function of the graph content, the partition and
/// the rank count — not of the [`SurveyConfig`] — so one plan serves
/// every later survey of the same shards at the same rank count with
/// results identical to a fresh dry run. A resident graph makes it on
/// the first Push-Pull query at a world size, keeps each rank's plan
/// behind an [`Arc`], and hands it back to every later query at that
/// size, which moves no dry-run record and copies nothing.
///
/// Plans are per-rank: rank `r`'s plan is only valid on rank `r` of a
/// world with the same rank count over the same shards.
///
/// "Same shards" holds by construction, not by checksum: the resident
/// tier keeps plans inside its per-world-size state next to the shards
/// they were made from, and a query reuses a plan only in a world built
/// from that same state. `ResidentGraph::ingest_batch` drops those
/// states wholesale when a batch changes the storage — degrees, `d+`,
/// and pull decisions may all shift, so the first Push-Pull query after
/// an ingest runs a fresh dry run.
pub(crate) struct DryRunPlan {
    /// The post-veto resume plan: exactly the granted pulls.
    pub(crate) resume: ResumePlan,
    /// Locally owned vertices `q`, in increasing `q`, each with the
    /// ranks granted a pull of `Adjm+(q)`, in increasing rank.
    pub(crate) pull_list: Vec<(u64, Vec<u32>)>,
}

impl DryRunPlan {
    /// Pull requests this rank granted.
    fn grants(&self) -> u64 {
        self.pull_list
            .iter()
            .map(|(_, ranks)| ranks.len() as u64)
            .sum()
    }
}

/// Runs the Push-Pull dry run on this rank and returns its outcome.
/// Collective: registers the veto and dry-run handlers, sends one
/// dry-run record per planned target, and returns after the barrier
/// that has delivered every veto.
pub(crate) fn dry_run<VM, EM>(comm: &Comm, graph: &DistGraph<VM, EM>) -> DryRunPlan
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
{
    let mut staged = Vec::new();
    for (slot, lv) in graph.shard().vertices().enumerate() {
        // The last entry has an empty suffix: no wedge, no pointer.
        let wedged = lv.adj.len().saturating_sub(1);
        for (i, e) in lv.adj[..wedged].iter().enumerate() {
            staged.push((e.v, slot as u32, i as u32));
        }
    }
    let resume = Rc::new(RefCell::new(ResumePlan::from_pointers(staged)));
    // `(q, granted rank)` in arrival order, grouped after the barrier.
    let granted: Rc<RefCell<Vec<(u64, u32)>>> = Rc::default();

    let resume_veto = resume.clone();
    let veto_handler = comm.register::<u64, _>(move |_c, q| {
        resume_veto.borrow_mut().remove(q);
    });
    let granted_dry = granted.clone();
    let g_dry = graph.clone();
    let dry_handler = comm.register::<DryRunMsg, _>(move |c, (q, count, src)| {
        let Some(lv) = g_dry.shard().get(q) else {
            c.abort(format_args!(
                "dry-run record for vertex {q} from rank {src} arrived on a rank that does not \
                 own {q} — vertex ownership disagrees across ranks; aborting survey"
            ));
        };
        if lv.dplus() < count {
            granted_dry.borrow_mut().push((q, src));
        } else {
            c.send(src as usize, &veto_handler, &q);
        }
    });

    // One dry-run record per run; the planned candidate count is the
    // sum of the suffix lengths its pointers name.
    {
        let resume = resume.borrow();
        let shard = graph.shard();
        let my_rank = comm.rank() as u32;
        for (q, run) in resume.runs() {
            let count: u64 = run
                .iter()
                .map(|&(slot, i)| (shard.vertex(slot as usize).adj.len() - i as usize - 1) as u64)
                .sum();
            comm.send(graph.owner(q), &dry_handler, &(q, count, my_rank));
        }
    }
    comm.barrier();

    // Every veto has arrived, so the resume plan holds exactly the
    // granted pulls. Grants arrive in message order, which depends on
    // scheduling; sorting makes the plan a function of its inputs.
    let mut granted = granted.take();
    granted.sort_unstable();
    let pull_list = granted
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| (run[0].0, run.iter().map(|&(_, src)| src).collect()))
        .collect();
    DryRunPlan {
        resume: resume.take(),
        pull_list,
    }
}

/// The state the pull handler changes.
#[derive(Default)]
struct PpState {
    /// Adjacency lists this rank pulled (received).
    pulled: u64,
    /// The key column of the pull delivery being served, decoded once.
    frame_keys: Vec<OrderKey>,
    /// The hash index over that key column, built once per delivery
    /// and probed by every resume suffix.
    frame_index: KeyIndex,
    /// Where each element of the delivery's meta column starts, from
    /// one walk of the column.
    meta_offsets: Vec<u32>,
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
    survey_push_pull_planned(comm, graph, config.into(), None, callback).0
}

/// [`survey_push_pull_with`] from a given dry-run plan, or from a fresh
/// [`dry_run`] when `plan` is `None`; returns the report and the plan
/// the survey ran from. The resident-graph entry point (see
/// [`crate::service::ResidentGraph`]).
///
/// Collective. A given plan skips the dry run's traffic but not its
/// barrier, so the report still has three phases. Every rank of a world
/// must pass a plan or every rank `None`: the dry run registers two
/// handlers that a planned survey does not, and handler ids follow
/// registration order.
pub(crate) fn survey_push_pull_planned<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    config: SurveyConfig,
    plan: Option<Arc<DryRunPlan>>,
    callback: F,
) -> (SurveyReport, Arc<DryRunPlan>)
where
    VM: Wire + Clone + 'static,
    EM: Wire + Clone + 'static,
    F: SurveyCallback<VM, EM>,
{
    let cb = Rc::new(callback);
    let push_handler = register_push_handler(comm, graph, cb.clone(), config);

    // --- Phase 1: Push vs Pull Dry-Run -------------------------------
    let timer = PhaseTimer::begin(comm, "dry-run");
    let plan = match plan {
        Some(plan) => {
            comm.barrier();
            plan
        }
        None => Arc::new(dry_run(comm, graph)),
    };
    let dry_phase = timer.end();

    let st = Rc::new(RefCell::new(PpState::default()));
    let pull_handler = register_pull_handler(comm, graph, plan.clone(), st.clone(), cb, config);

    // --- Phase 2: Push ------------------------------------------------
    let timer = PhaseTimer::begin(comm, "push");
    push_wedge_batches(comm, graph, &push_handler, |q| plan.resume.contains(q));
    comm.barrier();
    let push_phase = timer.end();

    // --- Phase 3: Pull --------------------------------------------------
    let timer = PhaseTimer::begin(comm, "pull");
    let shard = graph.shard();
    let mut cols = ColSuffixes::new();
    for (q, ranks) in &plan.pull_list {
        let lv = shard
            .get(*q)
            .expect("pull-granted vertex must be locally owned");
        // Encode-once fan-out: the `Adjm+(q)` projection is encoded
        // from graph storage exactly once, and the encoded record is
        // memcpy'd to every granted rank.
        fill_candidates(&mut cols, &lv.adj);
        let dests = ranks.iter().map(|&src| src as usize);
        comm.send_to_many(dests, &pull_handler, (*q, cols.suffix(0)));
    }
    comm.barrier();
    let pull_phase = timer.end();

    let report = SurveyReport {
        mode: EngineMode::PushPull,
        total_seconds: dry_phase.seconds + push_phase.seconds + pull_phase.seconds,
        phases: vec![dry_phase, push_phase, pull_phase],
        pulled_vertices: st.borrow().pulled,
        pull_grants: plan.grants(),
    };
    (report, plan)
}

/// Registers the pull-delivery handler, which reads its resume pointers
/// from `plan` and counts deliveries in `st`. Collective (handler
/// registration); `config` only chooses the handler body — both bodies
/// read the same wire type.
///
/// One arriving `Adjm+(q)` projection is intersected against **every**
/// resume suffix recorded for `q`. The production body serves a
/// delivery in one pass over its bytes: it captures the frame's column
/// extents ([`ColCursor`], three bounded takes), decodes its key
/// columns into a reused column ([`decode_key_column`], which keeps no
/// copy of the frame), walks its meta column once into reused element
/// offsets ([`ColMetas::offsets`], which enforces the column's byte
/// budget), and builds one [`KeyIndex`] over the keys. It then probes
/// each suffix `Adjm+(p)[idx+1..]` into the index with
/// [`KeyIndex::probe`], decoding `meta(q,r)` only for triangle matches,
/// at its stored offset. It runs for every `config` but the reference,
/// whatever its kernel: the kernel selects the push arm only. The
/// reference body materializes the projection and runs the two-pointer
/// merge.
///
/// [`ColMetas::offsets`]: tripoll_ygm::wire::ColMetas::offsets
fn register_pull_handler<VM, EM, F>(
    comm: &Comm,
    graph: &DistGraph<VM, EM>,
    plan: Arc<DryRunPlan>,
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
            let shard = g.shard();
            for &(slot, idx) in plan.resume.get(q) {
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
            frame_keys,
            frame_index,
            meta_offsets,
            ..
        } = &mut *s;
        decode_key_column(keys, frame_keys)?;
        metas.offsets(meta_offsets)?;
        frame_index.build(frame_keys)?;
        let shard = g.shard();
        for &(slot, idx) in plan.resume.get(q) {
            let lv = shard.vertex(slot as usize);
            let eq = &lv.adj[idx as usize];
            debug_assert_eq!(eq.v, q);
            let suffix = &lv.adj[idx as usize + 1..];
            c.add_work((suffix.len() + frame_keys.len()) as u64);
            let mut failed = None;
            frame_index.probe(
                suffix,
                |s_entry| s_entry.key,
                |a, i| {
                    if failed.is_some() {
                        return;
                    }
                    let s_entry = &suffix[a];
                    match metas.decode_at(meta_offsets[i]) {
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
        // Vertex-major pointer order, targets deliberately shuffled.
        let mut plan =
            ResumePlan::from_pointers(vec![(9, 0, 0), (2, 0, 1), (9, 1, 0), (5, 1, 1), (2, 2, 0)]);
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
            let mut pointers = Vec::new();
            let mut oracle: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new();
            // Vertex-major: slots ascend, indices ascend within a slot.
            for (i, &q) in targets.iter().enumerate() {
                let (slot, idx) = ((i / 3) as u32, (i % 3) as u32);
                pointers.push((q, slot, idx));
                oracle.entry(q).or_default().push((slot, idx));
            }
            let mut plan = ResumePlan::from_pointers(pointers);
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
            assert_eq!(
                run(IntersectKernel::Merge, nranks),
                reference,
                "production, n={nranks}"
            );
        }
    }

    /// Delivers one pull frame to a directly registered production pull
    /// handler, its `(v, degree)` keys first reordered by `mangle_keys`
    /// and its encoded vertex, degree and (unit, so empty) meta columns
    /// then corrupted by `mangle`. The frame's first key matches the
    /// resume suffix and every later key lies past it, so a kernel that
    /// stopped at the suffix's end would never reach the corruption;
    /// the callback panics if the survey emits anything.
    fn hostile_pull(mangle_keys: fn(&mut Vec<(u64, u64)>), mangle: fn(&mut [Vec<u8>; 3])) {
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
            let cb = Rc::new(|_c: &Comm, _tm: &TriangleMeta<'_, (), ()>| {
                panic!("callback ran on a corrupt pull frame")
            });
            // Rank 0 plans one resume suffix of its first vertex with
            // two out-neighbours; rank 1 plans nothing.
            let target = g
                .shard()
                .vertices()
                .enumerate()
                .find(|(_, lv)| lv.adj.len() >= 2)
                .filter(|_| comm.rank() == 0);
            let plan = DryRunPlan {
                resume: ResumePlan::from_pointers(
                    target
                        .iter()
                        .map(|&(slot, lv)| (lv.adj[0].v, slot as u32, 0))
                        .collect(),
                ),
                pull_list: Vec::new(),
            };
            let st = Rc::new(RefCell::new(PpState::default()));
            let h =
                register_pull_handler(comm, &g, Arc::new(plan), st, cb, SurveyConfig::default());
            if let Some((_, lv)) = target {
                let (q, r) = (&lv.adj[0], &lv.adj[1]);
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
                let mut cols = [vcol, dcol, Vec::new()];
                mangle(&mut cols);
                let mut frame = Vec::new();
                put_varint(&mut frame, q.v);
                put_varint(&mut frame, keys.len() as u64);
                for col in &cols {
                    put_varint(&mut frame, col.len() as u64);
                    frame.extend_from_slice(col);
                }
                comm.send_encoded(0, &h, Raw(frame));
            }
            comm.barrier();
        });
    }

    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_trailing_key_bytes_aborts() {
        hostile_pull(|_| {}, |[vcol, ..]| vcol.push(0));
    }

    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_truncated_vertex_column_aborts() {
        hostile_pull(|_| {}, |[vcol, ..]| *vcol.last_mut().unwrap() |= 0x80);
    }

    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_truncated_degree_column_aborts() {
        hostile_pull(|_| {}, |[_, dcol, _]| *dcol.last_mut().unwrap() |= 0x80);
    }

    /// The matching key moves behind a larger one: a merge would step
    /// past it and a hash probe would find it, so the frame is refused.
    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_swapped_keys_aborts() {
        hostile_pull(|keys| keys.swap(0, 1), |_| {});
    }

    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_repeated_key_aborts() {
        hostile_pull(|keys| keys[1] = keys[0], |_| {});
    }

    /// A byte past the last element of the unit meta column. The one
    /// match is the first element, so a lazy walk that decoded only as
    /// far as the matches would never reach the end of the column; the
    /// one walk of the whole column does, and refuses the frame.
    #[test]
    #[should_panic(expected = "failed to decode message in place")]
    fn pull_frame_with_trailing_meta_bytes_aborts() {
        hostile_pull(|_| {}, |[.., mcol]| mcol.push(0));
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
