//! The one module that calls into the repository.
//!
//! Everything the benchmark knows about TriPoll's API lives here: the
//! four workloads (generator, metadata, published survey, resident
//! callback, serial reference) and one function per pipeline step the
//! run loop times. A later API change edits this file and nothing else
//! in the package.
//!
//! Only the default production path is named — `SurveyConfig::default()`,
//! `CommConfig::default()`, `EngineMode`, `ResidentGraph` — never a
//! kernel, wire layout or decode variant, so the metric names survive
//! any later collapse of the configuration matrix.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tripoll::analysis::{enumerate_triangles, triangle_count as oracle_count, JointHistogram};
use tripoll::core::surveys::closure_times::closure_time_survey;
use tripoll::core::surveys::count::triangle_count;
use tripoll::core::surveys::fqdn_tuples::{fqdn_tuple_survey, FqdnTriple};
use tripoll::core::{
    intersect_slices, kernel_stats_take, EngineMode, IngestDelta, KernelStats, ResidentGraph,
    ResidentQuery, SurveyConfig, SurveyDelta, SurveyDeltaSink, SurveyReport, TriangleMeta,
    TriangleSample,
};
use tripoll::gen::{
    reddit_comments, rmat_edges, web_graph, RedditConfig, RmatConfig, WebGraph, WebGraphConfig,
};
use tripoll::graph::snapshot::decode_snapshot;
use tripoll::graph::{
    apply_edge_batch_with, build_dist_graph, Csr, DistGraph, EdgeList, LocalShard, Partition,
    ReverseIndex,
};
use tripoll::ygm::hash::{hash64, FastMap};
use tripoll::ygm::wire::Wire;
use tripoll::ygm::{Comm, CommStats, CostModel, World};

/// Simulated ranks of every timed world: one OS thread per rank, and
/// this host has two cores. More ranks than cores would time the
/// scheduler, so larger worlds contribute counts only.
pub const RANKS: usize = 2;

/// Rank count of the count-only scaling survey (Tab. 3 / Tab. 4).
pub const RANKS_WIDE: usize = 8;

const PARTITION: Partition = Partition::Hashed;

/// The environment variables the library reads for its defaults; the
/// benchmark removes them so it always measures the documented default
/// path, whatever shell it was started from.
pub const ENV_KNOBS: [&str; 3] = ["TRIPOLL_THREADS", "TRIPOLL_RPN", "TRIPOLL_OVERLAP"];

/// Input size: the measured one, or a seconds-long one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }
}

/// One undirected edge record with its metadata.
pub type Edge<EM> = (u64, u64, EM);

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

/// What distinguishes one workload from another: its metadata types,
/// the published survey its cold solve runs, the callback its resident
/// queries run, and the serial reference both are checked against.
pub trait Workload: Sync + Sized + 'static {
    type VM: Wire + Clone + Send + Sync + 'static;
    type EM: Wire + Clone + Send + Sync + 'static;
    /// Gathered result of the published survey.
    type Solved: PartialEq + Send;
    /// Additive result of a resident query: a full query of `G ∪ B`
    /// equals the full query of `G` merged with the delta survey of `B`.
    type Acc: Clone + Default + PartialEq + Send + 'static;
    /// The `Send + Sync` endpoint resident callbacks record into.
    type Sink: Clone + Send + Sync + 'static;

    fn mode(&self) -> EngineMode;

    /// Collapses raw records to one record per undirected edge.
    fn canonicalize(raw: Vec<Edge<Self::EM>>) -> EdgeList<Self::EM> {
        EdgeList::from_vec(raw).canonicalize()
    }

    /// Position of a canonical edge in the arrival stream. Graphs
    /// without timestamps arrive in a fixed pseudo-random order, so the
    /// stream tail is a uniform sample of the graph and not its
    /// highest vertex ids.
    fn arrival(&self, e: &Edge<Self::EM>) -> u64 {
        hash64(e.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ e.1)
    }

    /// Deterministic vertex metadata, identical on every rank.
    fn vertex_meta(&self, v: u64) -> Self::VM;

    /// The published survey, run collectively inside a world.
    fn survey(
        &self,
        comm: &Comm,
        graph: &DistGraph<Self::VM, Self::EM>,
    ) -> (Self::Solved, SurveyReport);

    fn new_sink() -> Self::Sink;
    fn record(sink: &Self::Sink, comm: &Comm, tm: &TriangleMeta<'_, Self::VM, Self::EM>);
    fn take(sink: &Self::Sink) -> Self::Acc;
    fn merge(into: &mut Self::Acc, other: &Self::Acc);
    fn triangles(acc: &Self::Acc) -> u64;

    /// Serial reference for a full query of the graph `edges` describe.
    fn reference(&self, edges: &[Edge<Self::EM>]) -> Self::Acc;
    /// Whether a cold solve's gathered result agrees with the reference.
    fn solved_matches(solved: &Self::Solved, reference: &Self::Acc) -> bool;
}

fn csr_of<EM>(edges: &[Edge<EM>]) -> Csr {
    let topo: Vec<(u64, u64)> = edges.iter().map(|e| (e.0, e.1)).collect();
    Csr::from_edges(&topo)
}

fn topology_only(edges: &[(u64, u64)]) -> Vec<Edge<()>> {
    edges.iter().map(|&(u, v)| (u, v, ())).collect()
}

/// Triangle counting over a topology-only graph with `bool` vertex
/// metadata — the paper's Tab. 4 measurement. `rmat_pull` and
/// `web_push` differ in the generator and the engine.
pub struct Count {
    mode: EngineMode,
}

impl Count {
    /// Graph500 R-MAT, surveyed by Push-Pull.
    pub fn rmat_pull(seed: u64, size: Size) -> (Self, Vec<Edge<()>>) {
        // `rmat_edges` seeds chunk `c` with `hash64(seed ^ c)`: seeds that
        // differ only in the bits that number the chunks permute the same
        // chunks. Hashing first makes neighbouring seeds different graphs.
        let cfg = RmatConfig::graph500(size.pick(13, 9), hash64(seed));
        let mode = EngineMode::PushPull;
        (Count { mode }, topology_only(&rmat_edges(&cfg)))
    }

    /// web-cc12-like host graph, surveyed by Push-Only.
    pub fn web_push(seed: u64, size: Size) -> (Self, Vec<Edge<()>>) {
        let v = size.pick(24_000, 1_600);
        let web = web_graph(&WebGraphConfig {
            domains: v / 4,
            pages_per_domain_mean: 2,
            edges: 25 * v / 2,
            intra_fraction: 0.4,
            popularity_power: 1.6,
            seed,
        });
        let mode = EngineMode::PushOnly;
        (Count { mode }, topology_only(&web.edges))
    }
}

impl Workload for Count {
    type VM = bool;
    type EM = ();
    type Solved = u64;
    type Acc = u64;
    type Sink = Arc<AtomicU64>;

    fn mode(&self) -> EngineMode {
        self.mode
    }

    fn vertex_meta(&self, _v: u64) -> bool {
        false
    }

    fn survey(&self, comm: &Comm, graph: &DistGraph<bool, ()>) -> (u64, SurveyReport) {
        triangle_count(comm, graph, self.mode)
    }

    fn new_sink() -> Self::Sink {
        Arc::default()
    }

    fn record(sink: &Self::Sink, _comm: &Comm, _tm: &TriangleMeta<'_, bool, ()>) {
        sink.fetch_add(1, Ordering::Relaxed);
    }

    fn take(sink: &Self::Sink) -> u64 {
        sink.swap(0, Ordering::Relaxed)
    }

    fn merge(into: &mut u64, other: &u64) {
        *into += other;
    }

    fn triangles(acc: &u64) -> u64 {
        *acc
    }

    fn reference(&self, edges: &[Edge<()>]) -> u64 {
        oracle_count(&csr_of(edges))
    }

    fn solved_matches(solved: &u64, reference: &u64) -> bool {
        solved == reference
    }
}

/// The FQDN 3-tuple survey of §5.8 over a wdc-like page graph whose
/// vertices carry their domain name as a `String`.
pub struct Fqdn {
    web: WebGraph,
}

/// Tally of the FQDN survey: all triangles, those with three distinct
/// FQDNs, and the count per sorted FQDN triple.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FqdnTally {
    triangles: u64,
    distinct: u64,
    tuples: FastMap<FqdnTriple, u64>,
}

impl FqdnTally {
    fn add(&mut self, p: &str, q: &str, r: &str) {
        self.triangles += 1;
        if p != q && q != r && p != r {
            self.distinct += 1;
            let mut trio = [p, q, r];
            trio.sort_unstable();
            let key = (trio[0].to_owned(), trio[1].to_owned(), trio[2].to_owned());
            *self.tuples.entry(key).or_insert(0) += 1;
        }
    }
}

impl Fqdn {
    /// wdc-like page graph, surveyed by Push-Pull.
    pub fn wdc(seed: u64, size: Size) -> (Self, Vec<Edge<()>>) {
        let v = size.pick(20_000, 2_000);
        let web = web_graph(&WebGraphConfig {
            domains: v / 15,
            pages_per_domain_mean: 15,
            edges: 13 * v,
            intra_fraction: 0.68,
            popularity_power: 1.2,
            seed,
        });
        let raw = topology_only(&web.edges);
        (Fqdn { web }, raw)
    }
}

impl Workload for Fqdn {
    type VM = String;
    type EM = ();
    /// Distinct-FQDN triangles and the gathered `(triple, count)` pairs,
    /// sorted by triple, exactly as the published survey returns them.
    type Solved = (u64, Vec<(FqdnTriple, u64)>);
    type Acc = FqdnTally;
    type Sink = Arc<Vec<Mutex<FqdnTally>>>;

    fn mode(&self) -> EngineMode {
        EngineMode::PushPull
    }

    fn vertex_meta(&self, v: u64) -> String {
        self.web.fqdn(v).to_owned()
    }

    fn survey(&self, comm: &Comm, graph: &DistGraph<String, ()>) -> (Self::Solved, SurveyReport) {
        let (result, report) = fqdn_tuple_survey(comm, graph, self.mode());
        ((result.distinct_triangles, result.tuples), report)
    }

    /// One tally per rank, so ranks never contend on a lock.
    fn new_sink() -> Self::Sink {
        Arc::new((0..RANKS_WIDE).map(|_| Mutex::default()).collect())
    }

    fn record(sink: &Self::Sink, comm: &Comm, tm: &TriangleMeta<'_, String, ()>) {
        sink[comm.rank()]
            .lock()
            .expect("a rank panicked while recording")
            .add(tm.meta_p, tm.meta_q, tm.meta_r);
    }

    fn take(sink: &Self::Sink) -> FqdnTally {
        let mut total = FqdnTally::default();
        for slot in sink.iter() {
            let part = std::mem::take(&mut *slot.lock().expect("a rank panicked while recording"));
            Self::merge(&mut total, &part);
        }
        total
    }

    fn merge(into: &mut FqdnTally, other: &FqdnTally) {
        into.triangles += other.triangles;
        into.distinct += other.distinct;
        for (k, n) in &other.tuples {
            *into.tuples.entry(k.clone()).or_insert(0) += n;
        }
    }

    fn triangles(acc: &FqdnTally) -> u64 {
        acc.triangles
    }

    fn reference(&self, edges: &[Edge<()>]) -> FqdnTally {
        let mut tally = FqdnTally::default();
        enumerate_triangles(&csr_of(edges), |p, q, r| {
            tally.add(self.web.fqdn(p), self.web.fqdn(q), self.web.fqdn(r));
        });
        tally
    }

    /// The published survey gathers only the distinct-FQDN part.
    fn solved_matches(solved: &Self::Solved, reference: &FqdnTally) -> bool {
        let mut tuples: Vec<_> = reference
            .tuples
            .iter()
            .map(|(k, &n)| (k.clone(), n))
            .collect();
        tuples.sort_unstable();
        solved.0 == reference.distinct && solved.1 == tuples
    }
}

/// The temporal Reddit comment graph: edges carry the first comment's
/// timestamp and arrive in timestamp order; vertices carry a fixed
/// per-author weight feeding the degree-triple buckets. The cold solve
/// is the closure-time survey of §5.7; resident queries maintain all
/// four `SurveyDelta` accumulators.
pub struct Reddit;

impl Reddit {
    pub fn stream(seed: u64, size: Size) -> (Self, Vec<Edge<u64>>) {
        let users = size.pick(20_000, 1_500);
        let cfg = RedditConfig {
            users,
            comments: 12 * users,
            seed,
            ..RedditConfig::default()
        };
        (Reddit, reddit_comments(&cfg))
    }

    fn sample(tm: &TriangleMeta<'_, u64, u64>) -> TriangleSample {
        TriangleSample {
            p: tm.p,
            q: tm.q,
            r: tm.r,
            degree_p: *tm.meta_p,
            degree_q: *tm.meta_q,
            degree_r: *tm.meta_r,
            t_pq: *tm.meta_pq,
            t_pr: *tm.meta_pr,
            t_qr: *tm.meta_qr,
        }
    }
}

impl Workload for Reddit {
    type VM = u64;
    type EM = u64;
    type Solved = JointHistogram;
    type Acc = SurveyDelta;
    type Sink = SurveyDeltaSink;

    fn mode(&self) -> EngineMode {
        EngineMode::PushPull
    }

    /// The paper's preparation: keep the chronologically-first comment.
    fn canonicalize(raw: Vec<Edge<u64>>) -> EdgeList<u64> {
        EdgeList::from_vec(raw).canonicalize_by(|&t| t)
    }

    fn arrival(&self, e: &Edge<u64>) -> u64 {
        e.2
    }

    fn vertex_meta(&self, v: u64) -> u64 {
        hash64(v) % 1000 + 1
    }

    fn survey(&self, comm: &Comm, graph: &DistGraph<u64, u64>) -> (JointHistogram, SurveyReport) {
        closure_time_survey(comm, graph, self.mode(), |&t| t)
    }

    fn new_sink() -> SurveyDeltaSink {
        SurveyDeltaSink::new()
    }

    fn record(sink: &SurveyDeltaSink, _comm: &Comm, tm: &TriangleMeta<'_, u64, u64>) {
        sink.record(Self::sample(tm));
    }

    fn take(sink: &SurveyDeltaSink) -> SurveyDelta {
        sink.take()
    }

    fn merge(into: &mut SurveyDelta, other: &SurveyDelta) {
        into.merge(other);
    }

    fn triangles(acc: &SurveyDelta) -> u64 {
        acc.count()
    }

    /// `SurveyDelta::record` is invariant under the role assignment of
    /// `(p, q, r)`, so a serial enumeration folds to the same value.
    fn reference(&self, edges: &[Edge<u64>]) -> SurveyDelta {
        let time: FastMap<(u64, u64), u64> = edges.iter().map(|&(u, v, t)| ((u, v), t)).collect();
        let t = |a: u64, b: u64| time[&(a.min(b), a.max(b))];
        let mut acc = SurveyDelta::default();
        enumerate_triangles(&csr_of(edges), |p, q, r| {
            acc.record(TriangleSample {
                p,
                q,
                r,
                degree_p: self.vertex_meta(p),
                degree_q: self.vertex_meta(q),
                degree_r: self.vertex_meta(r),
                t_pq: t(p, q),
                t_pr: t(p, r),
                t_qr: t(q, r),
            });
        });
        acc
    }

    fn solved_matches(solved: &JointHistogram, reference: &SurveyDelta) -> bool {
        solved.iter().collect::<Vec<_>>() == reference.closure_times()
    }
}

// --------------------------------------------------------------------
// Facts a survey reports about itself
// --------------------------------------------------------------------

/// Communication counters, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    pub bytes_remote: u64,
    pub bytes_local: u64,
    pub bytes_encoded: u64,
    pub records: u64,
    pub records_remote: u64,
    pub envelopes: u64,
    pub handlers_run: u64,
    pub barriers: u64,
    pub pool_reuses: u64,
    pub records_borrowed: u64,
    pub records_multicast: u64,
}

impl Traffic {
    /// `bytes_local + bytes_remote`: Tab. 4's communication volume.
    pub fn wire_bytes(&self) -> u64 {
        self.bytes_remote + self.bytes_local
    }
}

impl From<&CommStats> for Traffic {
    fn from(s: &CommStats) -> Traffic {
        Traffic {
            bytes_remote: s.bytes_remote,
            bytes_local: s.bytes_local,
            bytes_encoded: s.bytes_encoded,
            records: s.records_total(),
            records_remote: s.records_remote,
            envelopes: s.envelopes_remote + s.envelopes_local,
            handlers_run: s.handlers_run,
            barriers: s.barriers,
            pool_reuses: s.pool_reuses,
            records_borrowed: s.records_borrowed,
            records_multicast: s.records_multicast,
        }
    }
}

/// One engine phase over all ranks.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    /// Seconds each rank spent in the phase, barrier inclusive.
    pub rank_seconds: Vec<f64>,
    pub bytes: u64,
}

/// Intersection-kernel counters summed over ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Kernel {
    pub compares: u64,
    pub candidates: u64,
    pub matches: u64,
}

impl std::ops::AddAssign<KernelStats> for Kernel {
    fn add_assign(&mut self, k: KernelStats) {
        self.compares += k.compares;
        self.candidates += k.candidates;
        self.matches += k.matches;
    }
}

/// What one survey's per-rank reports say, summed or maxed over ranks.
#[derive(Debug, Clone, Default)]
pub struct SurveyFacts {
    pub phases: Vec<Phase>,
    /// Survey-scoped traffic, summed over ranks and phases.
    pub traffic: Traffic,
    /// What a cluster would pay for this traffic under the α-β-γ model:
    /// per phase the slowest rank, summed over phases.
    pub modeled_s: f64,
    pub pulled_vertices: u64,
    pub pull_grants: u64,
    pub kernel: Kernel,
}

impl SurveyFacts {
    fn new(reports: &[&SurveyReport], kernels: &[KernelStats]) -> SurveyFacts {
        let model = CostModel::catalyst_like();
        let nphases = reports.first().map_or(0, |r| r.phases.len());
        let mut facts = SurveyFacts::default();
        let mut total = CommStats::default();
        for i in 0..nphases {
            let per_rank: Vec<CommStats> = reports.iter().map(|r| r.phases[i].stats).collect();
            let sum = CommStats::sum(&per_rank);
            facts.modeled_s += model.phase_time(&per_rank);
            facts.phases.push(Phase {
                name: reports[0].phases[i].name,
                rank_seconds: reports.iter().map(|r| r.phases[i].seconds).collect(),
                bytes: sum.bytes_total(),
            });
            total = total.merge(&sum);
        }
        facts.traffic = Traffic::from(&total);
        facts.pulled_vertices = reports.iter().map(|r| r.pulled_vertices).sum();
        facts.pull_grants = reports.iter().map(|r| r.pull_grants).sum();
        for &k in kernels {
            facts.kernel += k;
        }
        facts
    }

    /// Seconds and bytes of the named phase: the slowest rank's time.
    pub fn phase(&self, name: &str) -> (f64, u64) {
        self.phases
            .iter()
            .filter(|p| p.name == name)
            .fold((0.0, 0), |(s, b), p| {
                (
                    s + p.rank_seconds.iter().cloned().fold(0.0, f64::max),
                    b + p.bytes,
                )
            })
    }
}

// --------------------------------------------------------------------
// Input preparation
// --------------------------------------------------------------------

/// Canonical edges in arrival order: the first `base` of them are the
/// resident graph, the rest arrives as equal batches.
pub struct Input<W: Workload> {
    pub workload: W,
    pub edges: EdgeList<W::EM>,
    pub base: usize,
    pub batch: usize,
}

/// Share of the edges that form the stream tail, in batches of 1 %.
pub const TAIL_BATCHES: usize = 10;

impl<W: Workload> Input<W> {
    /// Canonicalizes raw records and orders them by arrival.
    pub fn prepare(workload: W, raw: Vec<Edge<W::EM>>) -> Input<W> {
        let mut edges = W::canonicalize(raw).into_vec();
        edges.sort_by_key(|e| (workload.arrival(e), e.0, e.1));
        let batch = (edges.len() / 100).max(1);
        let base = edges.len() - TAIL_BATCHES * batch;
        Input {
            workload,
            edges: EdgeList::from_vec(edges),
            base,
            batch,
        }
    }

    pub fn base_edges(&self) -> &[Edge<W::EM>] {
        &self.edges.as_slice()[..self.base]
    }

    /// The `TAIL_BATCHES` stream batches, in arrival order.
    pub fn batches(&self) -> impl Iterator<Item = &[Edge<W::EM>]> {
        self.edges.as_slice()[self.base..].chunks(self.batch)
    }
}

// --------------------------------------------------------------------
// Cold pipeline: stride → DODGr build → survey, in one world
// --------------------------------------------------------------------

/// Counts taken around the build, in a traced solve only.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildFacts {
    pub traffic: Traffic,
    pub edges: u64,
    pub wedges: u64,
    pub max_out_degree: u64,
}

/// One rank's view of a cold solve. `marks` are the instants the rank
/// entered the closure, finished its stride copy, finished the build,
/// finished the (traced-only) graph statistics, finished the survey and
/// finished dropping the graph.
pub struct RankSolve<S> {
    pub solved: S,
    pub marks: [Instant; 6],
}

/// A cold solve over all ranks.
pub struct Solve<S> {
    pub ranks: Vec<RankSolve<S>>,
    pub survey: SurveyFacts,
    pub build: Option<BuildFacts>,
    pub started: Instant,
    pub finished: Instant,
}

/// One world: stride, build, `survey`, drop — with the instants between.
fn solve_with<W: Workload, S: Send>(
    input: &Input<W>,
    nranks: usize,
    detail: bool,
    survey: impl Fn(&Comm, &DistGraph<W::VM, W::EM>) -> (S, SurveyReport) + Sync,
) -> Solve<S> {
    let w = &input.workload;
    let started = Instant::now();
    let out = World::new(nranks).run(|comm| {
        let entered = Instant::now();
        let local = input.edges.stride_for_rank(comm.rank(), comm.nranks());
        let strided = Instant::now();
        let before = comm.stats();
        let graph = build_dist_graph(comm, local, |v| w.vertex_meta(v), PARTITION);
        let built = Instant::now();
        let build = detail.then(|| (comm.stats().delta(&before), graph.global_stats(comm)));
        let described = Instant::now();
        let _ = kernel_stats_take();
        let (solved, report) = survey(comm, &graph);
        let kernel = kernel_stats_take();
        let surveyed = Instant::now();
        drop(graph);
        let marks = [entered, strided, built, described, surveyed, Instant::now()];
        (RankSolve { solved, marks }, report, kernel, build)
    });
    let finished = Instant::now();
    let mut ranks = Vec::new();
    let mut reports = Vec::new();
    let mut kernels = Vec::new();
    let mut builds = Vec::new();
    for (rank, report, kernel, build) in out {
        ranks.push(rank);
        reports.push(report);
        kernels.push(kernel);
        builds.extend(build);
    }
    // Build traffic is per rank; the graph statistics are already global.
    let build = builds.first().map(|(_, graph)| BuildFacts {
        traffic: Traffic::from(&CommStats::sum(builds.iter().map(|(stats, _)| stats))),
        edges: graph.dodgr_edges,
        wedges: graph.wedges,
        max_out_degree: graph.max_out_degree,
    });
    Solve {
        ranks,
        survey: SurveyFacts::new(&reports.iter().collect::<Vec<_>>(), &kernels),
        build,
        started,
        finished,
    }
}

/// Cold time to solution on [`RANKS`] ranks: every rank strides the
/// edge list, the world builds the DODGr and runs the published survey
/// to its gathered result. `detail` adds the traced run's counts.
pub fn solve<W: Workload>(input: &Input<W>, detail: bool) -> Solve<W::Solved> {
    solve_with(input, RANKS, detail, |comm, graph| {
        input.workload.survey(comm, graph)
    })
}

/// The same solve on [`RANKS_WIDE`] ranks. Eight threads on two cores
/// time the scheduler, so only its counts are used.
pub fn solve_wide<W: Workload>(input: &Input<W>) -> Solve<W::Solved> {
    solve_with(input, RANKS_WIDE, false, |comm, graph| {
        input.workload.survey(comm, graph)
    })
}

/// Seconds the slowest rank spent in the survey step of a solve that
/// counts triangles with a bare counter instead of the workload's
/// callback: the difference prices the callback.
pub fn bare_survey_seconds<W: Workload>(input: &Input<W>) -> f64 {
    let mode = input.workload.mode();
    let s = solve_with(input, RANKS, false, |comm, graph| {
        triangle_count(comm, graph, mode)
    });
    s.ranks
        .iter()
        .map(|r| (r.marks[4] - r.marks[3]).as_secs_f64())
        .fold(0.0, f64::max)
}

/// A world whose ranks only meet at a barrier: its wall is the floor
/// under every solve and every resident query.
pub fn spawn_only() {
    World::new(RANKS).run(|comm| comm.barrier());
}

/// The layer the workload's engine phases are attributed to.
pub fn engine_layer<W: Workload>(w: &W) -> &'static str {
    match w.mode() {
        EngineMode::PushOnly => "core.push_only",
        EngineMode::PushPull => "core.push_pull",
    }
}

// --------------------------------------------------------------------
// Replays: one layer's work with the others taken away
// --------------------------------------------------------------------

/// The per-rank shards a [`RANKS`]-rank build of the full graph produces.
pub struct Shards<W: Workload>(Vec<Arc<LocalShard<W::VM, W::EM>>>);

pub fn build_shards<W: Workload>(input: &Input<W>) -> Shards<W> {
    let w = &input.workload;
    Shards(World::new(RANKS).run(|comm| {
        let local = input.edges.stride_for_rank(comm.rank(), comm.nranks());
        let graph = build_dist_graph(comm, local, |v| w.vertex_meta(v), PARTITION);
        graph.shard().clone()
    }))
}

/// Kernel replay: serially, outside any world, every wedge check of
/// the survey — for each `p` and each `q ∈ Adj+(p)`, the suffix of
/// `Adj+(p)` after `q` intersected with `Adj+(q)` — with no wire, no
/// callback and no second thread. Returns `(seconds, counters)`;
/// `matches` is the triangle count.
pub fn kernel_replay<W: Workload>(shards: &Shards<W>) -> (f64, Kernel) {
    let kernel = SurveyConfig::default().kernel;
    let nranks = shards.0.len();
    let _ = kernel_stats_take();
    let mut matches = 0u64;
    let t = Instant::now();
    for shard in &shards.0 {
        for p in shard.vertices() {
            for (i, e) in p.adj.iter().enumerate() {
                let Some(q) = shards.0[PARTITION.owner(e.v, nranks)].get(e.v) else {
                    continue;
                };
                intersect_slices(
                    kernel,
                    &p.adj[i + 1..],
                    &q.adj,
                    |l| l.key,
                    |r| r.key,
                    |_, _| matches += 1,
                );
            }
        }
    }
    let seconds = t.elapsed().as_secs_f64();
    let mut counters = Kernel::default();
    counters += kernel_stats_take();
    assert_eq!(counters.matches, std::hint::black_box(matches));
    (seconds, counters)
}

/// Transport replay: a [`RANKS`]-rank world that registers a handler
/// which only skips its payload, and sends the survey's record count
/// with the survey's mean record size to the same local/remote split,
/// then barriers. The time the runtime alone needs for this traffic.
/// Returns `(seconds, bytes moved)`.
pub fn transport_replay(traffic: &Traffic) -> (f64, u64) {
    if traffic.records == 0 {
        return (0.0, 0);
    }
    let nranks = RANKS as u64;
    let mean = (traffic.wire_bytes() / traffic.records) as usize;
    // A record is its handler id, a length prefix and the payload.
    let payload = "x".repeat(mean.saturating_sub(3).max(1));
    let remote = traffic.records_remote / nranks;
    let local = (traffic.records - traffic.records_remote) / nranks;
    let t = Instant::now();
    let out = World::new(RANKS).run_with_stats(|comm| {
        let h = comm.register_borrowed::<String, _>(|_c, r| String::skip(r));
        let peer = (comm.rank() + 1) % comm.nranks();
        // Interleave the two destinations the way wedge pushes do.
        let (mut to_peer, mut to_self) = (remote, local);
        while to_peer + to_self > 0 {
            if to_peer * local >= to_self * remote && to_peer > 0 {
                comm.send(peer, &h, &payload);
                to_peer -= 1;
            } else {
                comm.send(comm.rank(), &h, &payload);
                to_self -= 1;
            }
        }
        comm.barrier();
    });
    (t.elapsed().as_secs_f64(), out.total_stats().bytes_total())
}

// --------------------------------------------------------------------
// Resident tier
// --------------------------------------------------------------------

/// A resident graph plus the query every operation on it uses.
pub struct Resident<W: Workload> {
    graph: ResidentGraph<W::VM, W::EM>,
    query: ResidentQuery,
}

/// Proof of one ingested batch, to be delta-surveyed before the next.
pub struct Ingested(IngestDelta);

impl Ingested {
    /// Genuinely new edges (duplicates of stored edges are dropped).
    pub fn new_edges(&self) -> usize {
        self.0.new_edges().len()
    }
}

/// A query's accumulated result and what its ranks reported.
pub struct Queried<A> {
    pub acc: A,
    pub facts: SurveyFacts,
    /// Seconds each rank spent inside the engine.
    pub rank_seconds: Vec<f64>,
}

impl<W: Workload> Resident<W> {
    fn wrap(graph: ResidentGraph<W::VM, W::EM>, w: &W) -> Self {
        Resident {
            graph,
            query: ResidentQuery::new(RANKS).with_mode(w.mode()),
        }
    }

    /// Builds the resident graph from the base edges.
    pub fn build(input: &Input<W>) -> Self {
        let w = &input.workload;
        let list = EdgeList::from_vec(input.base_edges().to_vec());
        Self::wrap(
            ResidentGraph::build(&list, |v| w.vertex_meta(v), PARTITION),
            w,
        )
    }

    /// Restart: reconstitutes the graph from snapshot bytes.
    pub fn restore(w: &W, bytes: &[u8]) -> Result<Self, String> {
        ResidentGraph::from_snapshot_bytes(bytes)
            .map(|g| Self::wrap(g, w))
            .map_err(|e| e.to_string())
    }

    pub fn snapshot(&self) -> Vec<u8> {
        self.graph.snapshot_bytes(RANKS)
    }

    fn queried(sink: &W::Sink, outcomes: Vec<tripoll::core::QueryOutcome>) -> Queried<W::Acc> {
        let reports: Vec<&SurveyReport> = outcomes.iter().map(|o| &o.report).collect();
        let kernels: Vec<KernelStats> = outcomes.iter().map(|o| o.kernel).collect();
        Queried {
            acc: W::take(sink),
            facts: SurveyFacts::new(&reports, &kernels),
            rank_seconds: reports.iter().map(|r| r.total_seconds).collect(),
        }
    }

    /// A full survey in a fresh per-query world.
    pub fn query(&self) -> Queried<W::Acc> {
        let sink = W::new_sink();
        let s = sink.clone();
        let outcomes = self.graph.survey(
            &self.query,
            move |c: &Comm, tm: &TriangleMeta<'_, W::VM, W::EM>| W::record(&s, c, tm),
        );
        Self::queried(&sink, outcomes)
    }

    /// Appends one batch, admitting new vertices.
    pub fn ingest(&self, w: &W, batch: &[Edge<W::EM>]) -> Result<Ingested, String> {
        self.graph
            .ingest_batch_with(batch, |v| w.vertex_meta(v))
            .map(Ingested)
            .map_err(|e| e.to_string())
    }

    /// Surveys exactly the triangles the batch added.
    pub fn delta(&self, ingested: &Ingested) -> Result<Queried<W::Acc>, String> {
        let sink = W::new_sink();
        let s = sink.clone();
        self.graph
            .survey_delta(
                &ingested.0,
                &self.query,
                move |c: &Comm, tm: &TriangleMeta<'_, W::VM, W::EM>| W::record(&s, c, tm),
            )
            .map(|outcomes| Self::queried(&sink, outcomes))
            .map_err(|e| e.to_string())
    }
}

/// The storage layer under the resident tier, driven directly: decode
/// a snapshot into an owned vertex list, build the reverse index over
/// it, and apply every stream batch. Returns `(decode seconds, reverse
/// index seconds, seconds per batch)`.
pub fn ingest_directly<W: Workload>(input: &Input<W>, snapshot: &[u8]) -> (f64, f64, Vec<f64>) {
    let w = &input.workload;
    let t = Instant::now();
    let (mut vertices, _) =
        decode_snapshot::<W::VM, W::EM>(snapshot).expect("the benchmark's own snapshot decodes");
    let decode_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut rev = ReverseIndex::build(&vertices);
    let reverse_index_s = t.elapsed().as_secs_f64();
    let per_batch = input
        .batches()
        .map(|batch| {
            let t = Instant::now();
            apply_edge_batch_with(&mut vertices, &mut rev, batch, |v| w.vertex_meta(v))
                .expect("canonical batches apply");
            t.elapsed().as_secs_f64()
        })
        .collect();
    (decode_s, reverse_index_s, per_batch)
}
