//! Resident survey service: graph lifetime separated from survey
//! lifetime.
//!
//! TriPoll's value is surveying the *same* massive graph many times
//! with different metadata folds (paper §5 runs several survey types
//! over one ingested graph), yet the classic entry points pay graph
//! build + dry-run from scratch on every call. A [`ResidentGraph`]
//! inverts that: the partitioned DODGr storage is built **once** and
//! held behind [`Arc`] as immutable shared state, and every query
//! spins up a fresh per-query comm world — its own simulated ranks —
//! against the shared storage. Concurrent queries with different world
//! sizes, engines and kernels run against one resident graph with
//! bit-identical results to the from-scratch path.
//!
//! Three mechanisms make the "load once, serve many" shape real:
//!
//! * **Re-shardable storage** — DODGr content (degrees, `<+` keys,
//!   oriented adjacency, `d+`) is independent of the rank count, so the
//!   resident graph keeps one global vertex list and derives the
//!   per-rank shards for any requested world size by the partition map
//!   alone, with no communication. A shard is a *view*
//!   ([`LocalShard::view`]): the indices of the rank's vertices in the
//!   one list, which every shard of every world size shares — sharding
//!   copies no vertex. Views are cached per rank count.
//! * **Dry-run plan caching** — the Push-Pull dry-run is a pure
//!   function of (graph, partition, rank count) and returns each rank's
//!   plan as a value; the first Push-Pull query at a given world size
//!   keeps those plans and every later one runs from them with zero
//!   dry-run traffic (see [`crate::push_pull`]'s `DryRunPlan`).
//! * **Snapshots** — [`ResidentGraph::save_snapshot`] /
//!   [`ResidentGraph::load_snapshot`] persist the storage in the
//!   versioned binary format of [`tripoll_graph::snapshot`], so a
//!   restart is O(read) instead of re-ingest + two build rounds.
//!
//! # Incremental ingestion
//!
//! [`ResidentGraph::ingest_batch`] appends an edge batch through
//! [`tripoll_graph::ingest`], leaving the storage bit-identical to a
//! from-scratch build of the concatenated input. The batch is *staged*
//! against the storage first — every decision, and all caller code,
//! before the first write — so a rejected batch, or a `vm_fn` that
//! panics, leaves the graph exactly as it was, and a no-op batch
//! (duplicates and self-loops only) is recognised before anything is
//! invalidated. A real batch then drops the cached world state —
//! per-rank shard views *and* cached Push-Pull dry-run plans — and
//! only *then* takes the vertex list mutably: with the views gone the
//! list is normally unshared and is patched in place. Every ingest
//! bumps the graph **epoch**; the returned [`IngestDelta`] carries that
//! epoch plus the batch's delta-wedge plan, and
//! [`ResidentGraph::survey_delta`] surveys exactly the triangles the
//! batch added ([`crate::delta`]), rejecting a stale delta (one from a
//! superseded epoch) with a structured [`StaleDeltaError`].
//!
//! Concurrent queries racing an ingest are safe by snapshotting: a
//! query holds an `Arc` of the world state it started with — and
//! through its shard views, of the vertex list — so an ingest that
//! finds a query in flight writes a copy of the list
//! ([`Arc::make_mut`]) and the query finishes on the one it started
//! with. It sees either the pre-ingest or the post-ingest graph in its
//! entirety, never a torn mix. The epoch atomic is an advisory
//! staleness check — actual publication of mutated storage happens
//! under the state lock
//! (see `docs/CONCURRENCY.md`, "ingest-epoch handoff").

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tripoll_graph::ingest::{BatchDelta, ReverseIndex, StagedBatch};
use tripoll_graph::snapshot::{decode_snapshot, encode_snapshot, load_snapshot, SnapshotError};
use tripoll_graph::{DistGraph, EdgeList, GraphError, LocalShard, LocalVertex, Partition};
use tripoll_ygm::wire::Wire;
use tripoll_ygm::{Comm, World};

use crate::delta::survey_delta_push;
use crate::engine::{kernel_stats_take, EngineMode, KernelStats, SurveyConfig, SurveyReport};
use crate::meta::TriangleMeta;
use crate::push_only::survey_push_only_with;
use crate::push_pull::{survey_push_pull_planned, DryRunPlan};

/// One query against a [`ResidentGraph`]: the world size plus fully
/// explicit engine settings, so a query's behavior is a function of its
/// fields alone.
#[derive(Debug, Clone)]
pub struct ResidentQuery {
    /// Simulated ranks of the per-query world.
    pub nranks: usize,
    /// Engine configuration (the intersection kernel).
    pub config: SurveyConfig,
    /// Which survey engine runs a *full* survey
    /// ([`ResidentGraph::survey`]). Delta surveys
    /// ([`ResidentGraph::survey_delta`]) do not read it: they always
    /// push, and report [`EngineMode::PushOnly`].
    pub mode: EngineMode,
}

impl ResidentQuery {
    /// A query over `nranks` simulated ranks with the defaults:
    /// Push-Pull engine and production [`SurveyConfig`].
    pub fn new(nranks: usize) -> Self {
        ResidentQuery {
            nranks,
            config: SurveyConfig::new(),
            mode: EngineMode::PushPull,
        }
    }

    /// This query with the given engine.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// This query with the given engine configuration.
    pub fn with_config(mut self, config: SurveyConfig) -> Self {
        self.config = config;
        self
    }
}

/// One rank's result of a resident survey query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The rank's phase/traffic report.
    pub report: SurveyReport,
    /// Intersection-kernel counters accumulated by this rank's thread
    /// during the query.
    pub kernel: KernelStats,
}

/// Cached per-world-size state: the shard views and, for Push-Pull,
/// the dry-run plans.
struct WorldState<VM, EM> {
    /// `shards[r]` is rank `r`'s view of the vertex list at this world
    /// size.
    shards: Vec<Arc<LocalShard<VM, EM>>>,
    /// `plans[r]` is rank `r`'s dry-run plan, kept from the first
    /// Push-Pull query: set for every rank at once or for none.
    plans: OnceLock<Vec<Arc<DryRunPlan>>>,
}

/// The mutable resident state: storage plus everything derived from
/// it. One lock guards all three so an ingest replaces storage and
/// invalidates the derived caches atomically with respect to queries.
struct ResidentState<VM, EM> {
    /// The global vertex list (every rank's vertices), sorted by id.
    vertices: Arc<Vec<LocalVertex<VM, EM>>>,
    /// Shards + plans per requested world size.
    worlds: HashMap<usize, Arc<WorldState<VM, EM>>>,
    /// Reverse adjacency for incremental ingestion, built lazily on
    /// the first [`ResidentGraph::ingest_batch`] and maintained across
    /// batches.
    rev: Option<ReverseIndex>,
}

/// The proof of one ingested batch: the graph epoch it produced and
/// the delta-wedge plan for surveying exactly the triangles the batch
/// added.
///
/// Pass it to [`ResidentGraph::survey_delta`] *before* the next
/// ingest; the plan is index-based against the storage state its
/// ingest produced, so a later epoch makes it stale (a structured
/// [`StaleDeltaError`], never a wrong answer).
#[derive(Debug, Clone)]
pub struct IngestDelta {
    epoch: u64,
    plan: Arc<BatchDelta>,
}

impl IngestDelta {
    /// The graph epoch this ingest produced.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The canonicalized `(min, max)` pairs of the genuinely-new edges
    /// (self-loops, duplicates within the batch, and edges already
    /// stored are dropped).
    pub fn new_edges(&self) -> &[(u64, u64)] {
        &self.plan.new_edges
    }

    /// True when the batch changed nothing: a delta survey of it
    /// visits zero triangles.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// The underlying delta-wedge plan (for direct use with
    /// [`crate::delta::survey_delta_push`]).
    pub fn plan(&self) -> &Arc<BatchDelta> {
        &self.plan
    }
}

/// A delta survey was requested against a graph that has ingested
/// further batches since the delta was produced: the plan's entry
/// indices no longer describe the storage.
///
/// Re-derive by surveying the newest [`IngestDelta`]s (each batch's
/// delta remains valid until the *next* ingest) or fall back to a full
/// [`ResidentGraph::survey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleDeltaError {
    /// The epoch the delta was produced at.
    pub delta_epoch: u64,
    /// The graph's current epoch.
    pub graph_epoch: u64,
}

impl std::fmt::Display for StaleDeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale ingest delta: produced at epoch {}, graph is at epoch {}",
            self.delta_epoch, self.graph_epoch
        )
    }
}

impl std::error::Error for StaleDeltaError {}

/// A graph resident in memory, shared across queries.
///
/// Build it once ([`ResidentGraph::build`], or O(read) from a snapshot
/// via [`ResidentGraph::load_snapshot`]), then call
/// [`ResidentGraph::survey`] as many times as needed — including
/// concurrently from several threads, each query with its own world
/// size, engine, and configuration. Between queries,
/// [`ResidentGraph::ingest_batch`] appends edge batches incrementally;
/// queries in flight keep surveying the snapshot they started with.
pub struct ResidentGraph<VM, EM> {
    state: Mutex<ResidentState<VM, EM>>,
    /// Monotone ingest counter; see the module docs ("ingest-epoch
    /// handoff" in `docs/CONCURRENCY.md`).
    epoch: AtomicU64,
    partition: Partition,
}

impl<VM, EM> ResidentGraph<VM, EM>
where
    VM: Wire + Clone + Send + Sync + 'static,
    EM: Wire + Clone + Send + Sync + 'static,
{
    /// Ingests an edge list into resident DODGr storage. The build
    /// itself runs a private single-rank world (DODGr content is
    /// independent of the rank count, so building at one rank and
    /// re-sharding per query loses nothing); `vm_fn` must be
    /// deterministic, exactly as for
    /// [`tripoll_graph::build_dist_graph`].
    pub fn build<F>(list: &EdgeList<EM>, vm_fn: F, partition: Partition) -> Self
    where
        F: Fn(u64) -> VM + Sync,
    {
        let mut out = World::new(1).run(|comm| {
            let g =
                tripoll_graph::build_dist_graph(comm, list.as_slice().to_vec(), &vm_fn, partition);
            Arc::into_inner(g.into_shard())
                .expect("the build returns the only handle to its shard")
                .into_vertices()
        });
        Self::from_vertices(out.pop().expect("single-rank world"), partition)
    }

    /// Wraps an already-materialized global vertex list (sorted or
    /// not) as resident storage.
    pub fn from_vertices(mut vertices: Vec<LocalVertex<VM, EM>>, partition: Partition) -> Self {
        vertices.sort_by_key(|v| v.id);
        ResidentGraph {
            state: Mutex::new(ResidentState {
                vertices: Arc::new(vertices),
                worlds: HashMap::new(),
                rev: None,
            }),
            epoch: AtomicU64::new(0),
            partition,
        }
    }

    /// Reconstitutes a resident graph from snapshot bytes. Hostile
    /// input returns a structured [`SnapshotError`]; it cannot panic.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let (vertices, partition) = decode_snapshot(bytes)?;
        Ok(Self::from_vertices(vertices, partition))
    }

    /// Reconstitutes a resident graph from a snapshot file — the
    /// O(read) restart path.
    pub fn load_snapshot<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let (vertices, partition) = load_snapshot(path)?;
        Ok(Self::from_vertices(vertices, partition))
    }

    /// Serializes the resident storage into snapshot bytes with
    /// `nsections` partition sections. Snapshots taken after an ingest
    /// capture the appended state — a restart resumes from the newest
    /// batch.
    pub fn snapshot_bytes(&self, nsections: usize) -> Vec<u8> {
        let vertices = self.vertices();
        encode_snapshot(&vertices, self.partition, nsections)
    }

    /// Writes a snapshot file with `nsections` partition sections.
    pub fn save_snapshot<P: AsRef<Path>>(
        &self,
        path: P,
        nsections: usize,
    ) -> Result<(), SnapshotError> {
        let vertices = self.vertices();
        tripoll_graph::snapshot::save_snapshot(path, &vertices, self.partition, nsections)
    }

    /// The partition map the storage was built with.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Number of resident vertices (with at least one incident edge).
    pub fn num_vertices(&self) -> usize {
        self.state().vertices.len()
    }

    /// The current graph epoch: 0 at build/load, +1 per
    /// [`ResidentGraph::ingest_batch`] (even a no-op batch).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Locks the state. A poisoned lock is recovered, not propagated:
    /// the only caller code that runs under it — an ingest's `vm_fn`
    /// and metadata clones — runs while the batch is being staged,
    /// before the first write, so a panic there leaves the state as the
    /// previous holder found it.
    fn state(&self) -> std::sync::MutexGuard<'_, ResidentState<VM, EM>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A shared handle to the current storage.
    fn vertices(&self) -> Arc<Vec<LocalVertex<VM, EM>>> {
        self.state().vertices.clone()
    }

    /// The cached per-world-size state, sharding the resident storage
    /// on first use of a given rank count.
    fn world_state(&self, nranks: usize) -> Arc<WorldState<VM, EM>> {
        Self::world_state_locked(&mut self.state(), self.partition, nranks)
    }

    fn world_state_locked(
        state: &mut ResidentState<VM, EM>,
        partition: Partition,
        nranks: usize,
    ) -> Arc<WorldState<VM, EM>> {
        let vertices = &state.vertices;
        state
            .worlds
            .entry(nranks)
            .or_insert_with(|| {
                let mut owned: Vec<Vec<u32>> = vec![Vec::new(); nranks];
                for (i, v) in (0u32..).zip(vertices.iter()) {
                    owned[partition.owner(v.id, nranks)].push(i);
                }
                Arc::new(WorldState {
                    shards: owned
                        .into_iter()
                        .map(|owned| Arc::new(LocalShard::view(vertices.clone(), owned)))
                        .collect(),
                    plans: OnceLock::new(),
                })
            })
            .clone()
    }

    /// Appends an edge batch to the resident storage, **strict** on
    /// vertices: every endpoint must already be resident, otherwise
    /// the batch is rejected with [`GraphError::UnknownVertex`] and
    /// the graph is unchanged (the epoch does not advance). See
    /// [`ResidentGraph::ingest_batch_with`] to admit new vertices.
    ///
    /// On success the storage is bit-identical to a from-scratch build
    /// of the concatenated input; cached shards and Push-Pull
    /// dry-run plans are invalidated (queries in flight finish on the
    /// snapshot they started with), and the returned [`IngestDelta`]
    /// drives [`ResidentGraph::survey_delta`].
    pub fn ingest_batch(&self, batch: &[(u64, u64, EM)]) -> Result<IngestDelta, GraphError> {
        self.ingest(batch, None)
    }

    /// [`ResidentGraph::ingest_batch`] that admits previously-unknown
    /// vertices, creating their records with metadata from `vm_fn` —
    /// which must be the same deterministic function of the vertex id
    /// the resident storage was built with (it is consulted only for
    /// new vertices; existing metadata is immutable under ingest). A
    /// `vm_fn` that panics leaves the graph as it was.
    pub fn ingest_batch_with<F>(
        &self,
        batch: &[(u64, u64, EM)],
        vm_fn: F,
    ) -> Result<IngestDelta, GraphError>
    where
        F: Fn(u64) -> VM,
    {
        self.ingest(batch, Some(&vm_fn))
    }

    /// Stages the batch against the current storage and, unless it
    /// turns out to be a no-op, commits it: drop the cached worlds —
    /// and with them their shares of the vertex list — *then* take the
    /// list mutably, so it is patched in place unless a query in flight
    /// still reads it (then that query keeps the old list and the
    /// ingest writes a copy).
    fn ingest(
        &self,
        batch: &[(u64, u64, EM)],
        admit: Option<&dyn Fn(u64) -> VM>,
    ) -> Result<IngestDelta, GraphError> {
        let mut state = self.state();
        let staged = StagedBatch::stage(&state.vertices, batch, admit)?;
        let plan = if staged.is_empty() {
            BatchDelta::default()
        } else {
            let ResidentState {
                vertices,
                worlds,
                rev,
            } = &mut *state;
            worlds.clear();
            let rev = rev.get_or_insert_with(|| ReverseIndex::build(vertices));
            staged.commit(Arc::make_mut(vertices), rev)
        };
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        Ok(IngestDelta {
            epoch,
            plan: Arc::new(plan),
        })
    }

    /// Runs an arbitrary collective `f` in a fresh per-query world
    /// against the resident storage; returns each rank's result. The
    /// graph handle every rank receives shares the resident shards —
    /// nothing is rebuilt.
    pub fn run<R, F>(&self, query: &ResidentQuery, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm, &DistGraph<VM, EM>) -> R + Sync,
    {
        let ws = self.world_state(query.nranks);
        self.run_in_world(&ws, query, f)
    }

    /// Runs `f` against an already-fetched world state (a storage
    /// snapshot): later ingests cannot affect this world.
    fn run_in_world<R, F>(&self, ws: &WorldState<VM, EM>, query: &ResidentQuery, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Comm, &DistGraph<VM, EM>) -> R + Sync,
    {
        World::new(query.nranks).run(|comm| {
            let g =
                DistGraph::from_parts(ws.shards[comm.rank()].clone(), self.partition, query.nranks);
            f(comm, &g)
        })
    }

    /// Runs one survey per rank of a fresh world over `ws`, taking the
    /// rank's kernel counters around it. `survey` returns the rank's
    /// report plus whatever else the caller keeps (a dry-run plan);
    /// both come back in rank order.
    fn survey_in_world<T, S>(
        &self,
        ws: &WorldState<VM, EM>,
        query: &ResidentQuery,
        survey: S,
    ) -> (Vec<QueryOutcome>, Vec<T>)
    where
        T: Send,
        S: Fn(&Comm, &DistGraph<VM, EM>) -> (SurveyReport, T) + Sync,
    {
        self.run_in_world(ws, query, |comm, g| {
            let _ = kernel_stats_take();
            let (report, kept) = survey(comm, g);
            let outcome = QueryOutcome {
                report,
                kernel: kernel_stats_take(),
            };
            (outcome, kept)
        })
        .into_iter()
        .unzip()
    }

    /// Runs a triangle survey in a fresh per-query world against the
    /// resident storage. The callback executes once per triangle with
    /// all six metadata values, exactly as in the from-scratch
    /// `survey_*_with` entry points, and the results are bit-identical
    /// to them. Returns each rank's [`QueryOutcome`].
    ///
    /// For [`EngineMode::PushPull`], the first query at a given world
    /// size keeps the dry-run plans its ranks made; later queries at
    /// that size run from them and skip the dry run's traffic (any
    /// [`SurveyConfig`] — the plan does not depend on the engine
    /// configuration). The query runs on the one world state it
    /// fetched, so a plan only ever serves the shards it was made
    /// from, whatever an ingest does meanwhile.
    pub fn survey<F>(&self, query: &ResidentQuery, callback: F) -> Vec<QueryOutcome>
    where
        F: Fn(&Comm, &TriangleMeta<'_, VM, EM>) + Send + Sync + 'static,
    {
        let ws = self.world_state(query.nranks);
        let cb = Arc::new(callback);
        match query.mode {
            EngineMode::PushOnly => {
                self.survey_in_world(&ws, query, |comm, g| {
                    let report = survey_push_only_with(comm, g, query.config, rank_callback(&cb));
                    (report, ())
                })
                .0
            }
            EngineMode::PushPull => {
                // Read once, so every rank takes the same branch.
                let cached = ws.plans.get();
                let (outcomes, plans) = self.survey_in_world(&ws, query, |comm, g| {
                    let plan = cached.map(|plans| plans[comm.rank()].clone());
                    survey_push_pull_planned(comm, g, query.config, plan, rank_callback(&cb))
                });
                // The first query to finish keeps its plans. Setting
                // again is a no-op: a racing first query's plans are
                // identical, and a later query's are the cached ones.
                let _ = ws.plans.set(plans);
                outcomes
            }
        }
    }

    /// Surveys exactly the triangles `delta`'s batch added: the
    /// callback executes once per triangle involving at least one
    /// batch edge, with all six metadata values colocated — the
    /// difference between full surveys of the post- and pre-ingest
    /// graphs, generated without recounting anything old
    /// ([`crate::delta`]).
    ///
    /// Accumulated additively (e.g. into
    /// [`crate::surveys::delta::SurveyDelta`]), the results satisfy
    /// `full(G ∪ B) == full(G) + delta(G, B)` bit-for-bit.
    ///
    /// The delta must be from the **current** epoch: if other batches
    /// were ingested since, the plan no longer describes the storage
    /// and a [`StaleDeltaError`] is returned. The epoch check and the
    /// world-state fetch happen under one state lock, so the surveyed
    /// snapshot is exactly the one `delta`'s ingest produced.
    ///
    /// `query.mode` applies to full surveys only and is not read here:
    /// the pull side has no analogue for the sparse wedge set of a
    /// batch ([`crate::delta`]), so a delta survey always pushes and
    /// every returned [`SurveyReport::mode`] is
    /// [`EngineMode::PushOnly`], whichever engine the query names.
    pub fn survey_delta<F>(
        &self,
        delta: &IngestDelta,
        query: &ResidentQuery,
        callback: F,
    ) -> Result<Vec<QueryOutcome>, StaleDeltaError>
    where
        F: Fn(&Comm, &TriangleMeta<'_, VM, EM>) + Send + Sync + 'static,
    {
        let ws = {
            let mut state = self.state();
            let graph_epoch = self.epoch.load(Ordering::Acquire);
            if delta.epoch != graph_epoch {
                return Err(StaleDeltaError {
                    delta_epoch: delta.epoch,
                    graph_epoch,
                });
            }
            Self::world_state_locked(&mut state, self.partition, query.nranks)
        };
        let cb = Arc::new(callback);
        let plan = delta.plan.clone();
        let (outcomes, _) = self.survey_in_world(&ws, query, |comm, g| {
            let report = survey_delta_push(comm, g, &plan, query.config, rank_callback(&cb));
            (report, ())
        });
        Ok(outcomes)
    }

    /// Convenience: the global triangle count of one query, the sum of
    /// every rank's [`KernelStats::matches`]: each match the kernels
    /// report is one triangle.
    pub fn triangle_count(&self, query: &ResidentQuery) -> u64 {
        self.survey(query, |_, _| {})
            .iter()
            .map(|o| o.kernel.matches)
            .sum()
    }
}

/// One rank's handle on a query's shared callback.
fn rank_callback<VM, EM, F>(cb: &Arc<F>) -> impl Fn(&Comm, &TriangleMeta<'_, VM, EM>) + 'static
where
    F: Fn(&Comm, &TriangleMeta<'_, VM, EM>) + 'static,
{
    let cb = cb.clone();
    move |c: &Comm, tm: &TriangleMeta<'_, VM, EM>| cb(c, tm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IntersectKernel;

    fn triangle_list() -> EdgeList<u32> {
        EdgeList::from_vec(vec![
            (0u64, 1u64, 1u32),
            (1, 2, 2),
            (2, 0, 3),
            (2, 3, 4),
            (3, 0, 5),
        ])
    }

    #[test]
    fn counts_across_world_sizes_and_engines() {
        let resident = ResidentGraph::build(&triangle_list(), |v| v * 2, Partition::Hashed);
        for nranks in [1, 2, 4, 7] {
            for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
                let q = ResidentQuery::new(nranks).with_mode(mode);
                assert_eq!(resident.triangle_count(&q), 2, "{mode} at {nranks} ranks");
            }
        }
    }

    #[test]
    fn push_pull_plan_replay_is_identical() {
        let resident = ResidentGraph::build(&triangle_list(), |v| v, Partition::Hashed);
        let q = ResidentQuery::new(3);
        let first = resident.survey(&q, |_c, _tm| {});
        assert!(
            resident.world_state(3).plans.get().is_some(),
            "plan captured"
        );
        let second = resident.survey(&q, |_c, _tm| {});
        // Replay must reproduce pulls, grants, and kernel counters
        // exactly; its dry-run phase moves zero records.
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.report.pulled_vertices, b.report.pulled_vertices);
            assert_eq!(a.report.pull_grants, b.report.pull_grants);
            assert_eq!(a.kernel, b.kernel);
            assert_eq!(b.report.phases[0].name, "dry-run");
            assert_eq!(b.report.phases[0].stats.records_total(), 0);
        }
        assert_eq!(resident.triangle_count(&q), 2);
    }

    /// Three hubs closing triangles with 40 low-degree sources, plus a
    /// ring through the sources. Every rank aims many single-candidate
    /// wedges at each hub, so the hubs are pulled.
    fn hub_list() -> EdgeList<u32> {
        let hubs = [1000u64, 1001, 1002];
        let mut edges = vec![(hubs[0], hubs[1], 1), (hubs[1], hubs[2], 2)];
        for v in 0..40u64 {
            let (a, b) = (hubs[v as usize % 3], hubs[(v as usize + 1) % 3]);
            edges.push((v, a, v as u32));
            edges.push((v, b, v as u32 + 100));
            edges.push((v, (v + 1) % 40, v as u32 + 200));
        }
        EdgeList::from_vec(edges)
    }

    /// Each rank's `(p, q, r)` triangles, sorted, with its pull counts.
    type RankSurvey = (Vec<(u64, u64, u64)>, u64, u64);

    /// One rank's planned runs and pull list.
    type PlanView = (Vec<(u64, Vec<(u32, u32)>)>, Vec<(u64, Vec<u32>)>);

    /// Each rank's plan, as the world state at `nranks` keeps it.
    fn cached_plans(resident: &ResidentGraph<u64, u32>, nranks: usize) -> Vec<PlanView> {
        let ws = resident.world_state(nranks);
        let plans = ws.plans.get().expect("a Push-Pull query keeps its plans");
        assert_eq!(plans.len(), nranks);
        plans
            .iter()
            .map(|plan| {
                let runs = plan.resume.runs().map(|(q, run)| (q, run.to_vec()));
                (runs.collect(), plan.pull_list.clone())
            })
            .collect()
    }

    /// A cold survey, the resident query that keeps its plans, and one
    /// that runs from them see the same triangles on the same ranks and
    /// the same pulls; two independent dry runs make the same plans.
    /// Callback order depends on scheduling, so triangles are compared
    /// as sorted lists.
    #[test]
    fn cold_capturing_and_replaying_surveys_agree() {
        use crate::push_pull::survey_push_pull;
        use std::cell::RefCell;
        use std::rc::Rc;

        let list = hub_list();
        let vm = |v: u64| v * 7;
        for nranks in [2, 3, 4] {
            let resident = ResidentGraph::build(&list, vm, Partition::Hashed);
            let q = ResidentQuery::new(nranks);
            let cold: Vec<RankSurvey> = resident.run(&q, |comm, g| {
                let seen = Rc::new(RefCell::new(Vec::new()));
                let sink = seen.clone();
                let report = survey_push_pull(comm, g, move |_c, tm| {
                    sink.borrow_mut().push((tm.p, tm.q, tm.r));
                });
                let mut seen = seen.take();
                seen.sort_unstable();
                (seen, report.pulled_vertices, report.pull_grants)
            });
            assert!(
                cold.iter().any(|&(_, _, grants)| grants > 0),
                "the hubs are pulled at {nranks} ranks"
            );
            let resident_survey = |resident: &ResidentGraph<u64, u32>| -> Vec<RankSurvey> {
                let seen = Arc::new(Mutex::new(vec![Vec::new(); nranks]));
                let sink = seen.clone();
                let outcomes = resident.survey(&q, move |c, tm| {
                    sink.lock().unwrap()[c.rank()].push((tm.p, tm.q, tm.r));
                });
                let mut seen = Arc::into_inner(seen).unwrap().into_inner().unwrap();
                seen.iter_mut().for_each(|s| s.sort_unstable());
                seen.into_iter()
                    .zip(&outcomes)
                    .map(|(s, o)| (s, o.report.pulled_vertices, o.report.pull_grants))
                    .collect()
            };
            let capturing = resident_survey(&resident);
            let replaying = resident_survey(&resident);
            assert_eq!(capturing, cold, "capturing vs cold at {nranks} ranks");
            assert_eq!(replaying, cold, "replaying vs cold at {nranks} ranks");

            let other = ResidentGraph::build(&list, vm, Partition::Hashed);
            assert_eq!(resident_survey(&other), cold);
            assert_eq!(
                cached_plans(&resident, nranks),
                cached_plans(&other, nranks),
                "independent dry runs make the same plans at {nranks} ranks"
            );
        }
    }

    #[test]
    fn queries_carry_explicit_settings() {
        let q = ResidentQuery::new(2);
        assert_eq!(q.nranks, 2);
        assert_eq!(q.config, SurveyConfig::new());
        assert_eq!(q.mode, EngineMode::PushPull);
        let q = q
            .with_config(SurveyConfig::new().with_kernel(IntersectKernel::MergeScalar))
            .with_mode(EngineMode::PushOnly);
        assert_eq!(q.config.kernel, IntersectKernel::MergeScalar);
        assert_eq!(q.mode, EngineMode::PushOnly);
    }

    #[test]
    fn ingest_batch_matches_rebuilt_graph() {
        // Build from the first three edges, ingest the last two; counts
        // and Push-Pull plan recapture must match a from-scratch build.
        let all = triangle_list().into_vec();
        let resident = ResidentGraph::build(
            &EdgeList::from_vec(all[..3].to_vec()),
            |v| v * 2,
            Partition::Hashed,
        );
        let full = ResidentGraph::build(&triangle_list(), |v| v * 2, Partition::Hashed);
        assert_eq!(resident.epoch(), 0);
        let q = ResidentQuery::new(3);
        assert_eq!(resident.triangle_count(&q), 1, "prefix graph");
        // (2,3)/(3,0) introduce vertex 3: admit it with the same vm_fn.
        let delta = resident.ingest_batch_with(&all[3..], |v| v * 2).unwrap();
        assert_eq!(resident.epoch(), 1);
        assert_eq!(delta.epoch(), 1);
        assert_eq!(delta.new_edges().len(), 2);
        for nranks in [1, 2, 4] {
            for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
                let q = ResidentQuery::new(nranks).with_mode(mode);
                assert_eq!(resident.triangle_count(&q), full.triangle_count(&q));
            }
        }
        // The delta survey sees exactly the one added triangle.
        let found = Arc::new(AtomicU64::new(0));
        let f = found.clone();
        let outcomes = resident
            .survey_delta(&delta, &ResidentQuery::new(2), move |_c, _tm| {
                f.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(found.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stale_delta_is_a_structured_error() {
        let resident = ResidentGraph::build(&triangle_list(), |v| v, Partition::Hashed);
        let d1 = resident.ingest_batch_with(&[(0, 4, 9u32)], |v| v).unwrap();
        let d2 = resident.ingest_batch_with(&[(1, 4, 9u32)], |v| v).unwrap();
        let err = resident
            .survey_delta(&d1, &ResidentQuery::new(2), |_c, _tm| {})
            .unwrap_err();
        assert_eq!(
            err,
            StaleDeltaError {
                delta_epoch: 1,
                graph_epoch: 2
            }
        );
        assert!(err.to_string().contains("epoch 1"));
        assert!(resident
            .survey_delta(&d2, &ResidentQuery::new(2), |_c, _tm| {})
            .is_ok());
    }

    #[test]
    fn ingest_strict_rejects_unknown_vertex_and_keeps_graph() {
        let resident = ResidentGraph::build(&triangle_list(), |v| v, Partition::Hashed);
        let err = resident.ingest_batch(&[(0, 99, 7u32)]).unwrap_err();
        assert_eq!(err, GraphError::UnknownVertex { vertex: 99 });
        assert_eq!(resident.epoch(), 0, "failed ingest leaves the epoch");
        assert_eq!(resident.triangle_count(&ResidentQuery::new(2)), 2);
    }

    #[test]
    fn noop_batch_bumps_epoch_but_keeps_worlds() {
        let resident = ResidentGraph::build(&triangle_list(), |v| v, Partition::Hashed);
        let q = ResidentQuery::new(3);
        let _ = resident.survey(&q, |_c, _tm| {});
        assert!(resident.world_state(3).plans.get().is_some());
        // Duplicate edge and self-loop: no storage change, worlds
        // survive, epoch still advances (the delta is provably empty).
        // The cached world shares the vertex list, so a no-op ingest
        // that took it mutably would have copied it.
        let storage = resident.vertices();
        let delta = resident.ingest_batch(&[(0, 1, 77u32), (2, 2, 78)]).unwrap();
        assert!(delta.is_empty());
        assert_eq!(resident.epoch(), 1);
        assert!(
            resident.world_state(3).plans.get().is_some(),
            "no-op ingest keeps cached worlds and plans"
        );
        assert!(
            Arc::ptr_eq(&storage, &resident.vertices()),
            "no-op ingest leaves the storage where it was"
        );
    }

    #[test]
    fn ingest_invalidates_cached_plans() {
        let resident = ResidentGraph::build(&triangle_list(), |v| v, Partition::Hashed);
        let q = ResidentQuery::new(3);
        let _ = resident.survey(&q, |_c, _tm| {});
        assert!(resident.world_state(3).plans.get().is_some());
        let delta = resident
            .ingest_batch_with(&[(0, 4, 9u32), (1, 4, 9u32)], |v| v)
            .unwrap();
        assert!(!delta.is_empty());
        {
            let state = resident.state();
            assert!(state.worlds.is_empty(), "worlds dropped on real ingest");
        }
        // Recapture happens transparently on the next Push-Pull query.
        assert_eq!(resident.triangle_count(&q), 3);
        assert!(resident.world_state(3).plans.get().is_some());
    }

    #[test]
    fn snapshot_after_ingest_restarts_appended_state() {
        let resident = ResidentGraph::build(&triangle_list(), |v| v * 3, Partition::Hashed);
        resident
            .ingest_batch_with(&[(0, 4, 9u32), (1, 4, 10u32)], |v| v * 3)
            .unwrap();
        let restored =
            ResidentGraph::<u64, u32>::from_snapshot_bytes(&resident.snapshot_bytes(2)).unwrap();
        assert_eq!(restored.num_vertices(), resident.num_vertices());
        for nranks in [1, 2, 4] {
            let q = ResidentQuery::new(nranks);
            assert_eq!(resident.triangle_count(&q), restored.triangle_count(&q));
        }
        // A restored graph ingests further batches from epoch 0.
        assert_eq!(restored.epoch(), 0);
        let d = restored
            .ingest_batch_with(&[(3, 4, 11u32)], |v| v * 3)
            .unwrap();
        assert_eq!(d.epoch(), 1);
        assert_eq!(d.new_edges(), &[(3, 4)]);
    }

    #[test]
    fn snapshot_roundtrip_preserves_counts() {
        let resident = ResidentGraph::build(&triangle_list(), |v| v * 3, Partition::Cyclic);
        let bytes = resident.snapshot_bytes(4);
        let restored = ResidentGraph::<u64, u32>::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.partition(), Partition::Cyclic);
        assert_eq!(restored.num_vertices(), resident.num_vertices());
        for nranks in [1, 2, 4] {
            let q = ResidentQuery::new(nranks);
            assert_eq!(resident.triangle_count(&q), restored.triangle_count(&q));
        }
    }
}
