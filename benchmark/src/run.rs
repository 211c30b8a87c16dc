//! One measured run of one workload.
//!
//! A run sets the workload up [`SETUP_REPS`] times (generate →
//! canonicalise → resident build → snapshot → warm-up query), then
//! repeats one *round* of the whole pipeline until `--seconds` are
//! spent, one client, closed loop:
//!
//! 1. **solve** — a cold world strides the full edge list, builds the
//!    DODGr and runs the published survey to its gathered result;
//! 2. **query** — warm full surveys of the resident base graph;
//! 3. **restart** — the base snapshot is decoded into a new resident
//!    graph and queried for the first time;
//! 4. **stream** — that graph ingests [`STREAM_BATCHES`] arrival-ordered
//!    batches, delta-surveying each and merging into a running result;
//! 5. **ingest → query** — each remaining batch is ingested and fully
//!    queried at once, nothing warmed in between.
//!
//! Every metric is the median over the rounds; one round before the
//! clock starts is discarded as warm-up. Every result is compared with
//! the first of its kind at once, and the first of each kind with a
//! serial reference after the timed section, so no repetition goes
//! unchecked and the reference never shares the clock or the peak
//! memory with the measured work.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::layers::{
    self, Edge, Input, Queried, Resident, Size, Solve, SurveyFacts, Workload, RANKS_WIDE,
};
use crate::stats::{median, tail};
use crate::trace::{layer_table, self_times_ns, Recorder};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Warm queries per round.
const QUERIES_PER_ROUND: usize = 2;
/// Stream-tail batches that are ingested and delta-surveyed; the rest
/// of the tail is ingested and fully queried.
const STREAM_BATCHES: usize = 8;
/// Repetitions of the kernel replay and of the transport replay.
const REPLAYS: usize = 5;
/// The engine phases of `SurveyReport.phases`, with the per-layer
/// metrics that carry their seconds and bytes.
const PHASES: [(&str, &str, &str); 3] = [
    (
        "dry-run",
        "core.phase.dry_run_s",
        "core.phase.dry_run_bytes",
    ),
    ("push", "core.phase.push_s", "core.phase.push_bytes"),
    ("pull", "core.phase.pull_s", "core.phase.pull_bytes"),
];
/// Rounds measured however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Where the traced run writes its spans and layer table.
    pub out: Option<PathBuf>,
}

/// What one run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Samples behind each median.
    pub samples: BTreeMap<&'static str, usize>,
}

/// Runs the named workload, or `None` for an unknown name.
pub fn run_workload(name: &str, opts: &Options) -> Option<Outcome> {
    let (seed, size) = (opts.seed, opts.size);
    Some(match name {
        "rmat_pull" => run(name, opts, || layers::Count::rmat_pull(seed, size)),
        "web_push" => run(name, opts, || layers::Count::web_push(seed, size)),
        "wdc_fqdn" => run(name, opts, || layers::Fqdn::wdc(seed, size)),
        "reddit_stream" => run(name, opts, || layers::Reddit::stream(seed, size)),
        _ => return None,
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// --------------------------------------------------------------------
// Set-up
// --------------------------------------------------------------------

/// Everything the rounds run against.
struct Stage<W: Workload> {
    input: Input<W>,
    resident: Resident<W>,
    snapshot: Vec<u8>,
    /// Result of the warm-up query: the anchor every later query of
    /// the base graph is compared with.
    base: W::Acc,
    raw_records: usize,
    /// Seconds of generate, canonicalise, resident build, snapshot
    /// encode, warm-up query.
    steps: [f64; 5],
}

impl<W: Workload> Stage<W> {
    fn set_up(generate: &impl Fn() -> (W, Vec<Edge<W::EM>>)) -> Stage<W> {
        let mut marks = vec![Instant::now()];
        let (workload, raw) = generate();
        let raw_records = raw.len();
        marks.push(Instant::now());
        let input = Input::prepare(workload, raw);
        marks.push(Instant::now());
        let resident = Resident::build(&input);
        marks.push(Instant::now());
        let snapshot = resident.snapshot();
        marks.push(Instant::now());
        let base = resident.query().acc;
        marks.push(Instant::now());
        let mut steps = [0.0; 5];
        for (step, pair) in steps.iter_mut().zip(marks.windows(2)) {
            *step = (pair[1] - pair[0]).as_secs_f64();
        }
        Stage {
            input,
            resident,
            snapshot,
            base,
            raw_records,
            steps,
        }
    }
}

// --------------------------------------------------------------------
// Correctness bookkeeping
// --------------------------------------------------------------------

/// Operations of one kind, all compared with the same anchor result.
#[derive(Debug, Default)]
struct Class {
    attempted: u64,
    failed: u64,
}

impl Class {
    fn ops(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// The anchor itself disagreed with the reference: every operation
    /// that agreed with it was wrong too.
    fn anchor(&mut self, ok: bool) {
        if !ok {
            self.failed = self.attempted;
        }
    }
}

/// Anchors and counts of the three kinds of operation.
struct Checks<W: Workload> {
    /// Cold solves, anchored on the first solve's gathered result.
    solves: Class,
    solved: Option<W::Solved>,
    /// Queries of the base graph (warm, and first after a restart).
    base: Class,
    /// Ingests, delta surveys and post-ingest queries, chained from the
    /// base result to the final graph's result.
    stream: Class,
    streamed: Option<W::Acc>,
}

// --------------------------------------------------------------------
// Samples
// --------------------------------------------------------------------

/// Timings of every round, one vector per quantity.
#[derive(Debug, Default)]
struct Samples {
    solve_s: Vec<f64>,
    stride_s: Vec<f64>,
    build_s: Vec<f64>,
    survey_s: Vec<f64>,
    drop_s: Vec<f64>,
    rank_imbalance: Vec<f64>,
    /// Slowest rank's seconds in each of [`PHASES`].
    phase_s: [Vec<f64>; 3],
    /// From the last rank leaving its closure to `World::run` returning:
    /// communicators (and the handlers' captured state) are dropped and
    /// the rank threads joined.
    teardown_s: Vec<f64>,
    wire_bytes: Vec<f64>,
    query_s: Vec<f64>,
    restart_s: Vec<f64>,
    decode_s: Vec<f64>,
    cold_query_s: Vec<f64>,
    updates_per_s: Vec<f64>,
    ingest_share: Vec<f64>,
    ingest_s: Vec<f64>,
    delta_s: Vec<f64>,
    ingest_to_query_s: Vec<f64>,
    post_ingest_query_s: Vec<f64>,
}

/// Counts of the first traced round.
#[derive(Debug, Default)]
struct Counts {
    solve: Option<(SurveyFacts, layers::BuildFacts)>,
    query: Option<SurveyFacts>,
    /// Summed over the stream batches of that round.
    stream_counted: bool,
    delta_bytes: u64,
    delta_candidates: u64,
    delta_triangles: u64,
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

// --------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------

/// Lays a survey's phases out under `parent`, back to back from
/// `start`: the engine reports each phase's seconds on each rank, in
/// execution order, and nothing runs between two phases.
fn phase_spans(
    rec: &mut Recorder,
    parent: u32,
    layer: &str,
    rank: usize,
    start: Instant,
    facts: &SurveyFacts,
) {
    let mut at = start;
    for phase in &facts.phases {
        let end = at + std::time::Duration::from_secs_f64(phase.rank_seconds[rank]);
        let name = format!("{layer}.{}", phase.name.replace('-', "_"));
        let id = rec.span(Some(parent), &name, Some(rank), at, end);
        // Bytes are summed over ranks; attach them once.
        if rank == 0 {
            rec.count(id, "bytes", phase.bytes);
        }
        at = end;
    }
}

fn solve_spans<S>(
    rec: &mut Recorder,
    layer: &str,
    solve: &Solve<S>,
    first_in: Instant,
    last_out: Instant,
) {
    let root = rec.span(None, "bench.solve", None, solve.started, solve.finished);
    rec.span(Some(root), "ygm.world.spawn", None, solve.started, first_in);
    rec.span(
        Some(root),
        "ygm.world.teardown",
        None,
        last_out,
        solve.finished,
    );
    for (rank, r) in solve.ranks.iter().enumerate() {
        let m = &r.marks;
        let some = Some(rank);
        rec.span(Some(root), "graph.edge_list.stride", some, m[0], m[1]);
        let build = rec.span(Some(root), "graph.dodgr.build", some, m[1], m[2]);
        rec.span(Some(root), "graph.dodgr.stats", some, m[2], m[3]);
        let survey = rec.span(Some(root), "core.surveys.survey", some, m[3], m[4]);
        rec.span(Some(root), "graph.dodgr.drop", some, m[4], m[5]);
        phase_spans(rec, survey, layer, rank, m[3], &solve.survey);
        if rank == 0 {
            if let Some(b) = &solve.build {
                rec.count(build, "bytes", b.traffic.wire_bytes());
                rec.count(build, "records", b.traffic.records);
                rec.count(build, "edges", b.edges);
            }
            rec.count(survey, "bytes", solve.survey.traffic.wire_bytes());
            rec.count(survey, "records", solve.survey.traffic.records);
            rec.count(survey, "candidates", solve.survey.kernel.candidates);
            rec.count(survey, "matches", solve.survey.kernel.matches);
        }
    }
}

/// A resident survey seen from outside: the call's wall is the root,
/// and each rank's engine time (which the call reports) is placed at
/// the end of it — what precedes is world spawn and, on first use,
/// re-sharding.
fn query_spans<A>(
    rec: &mut Recorder,
    parent: Option<u32>,
    name: &str,
    layer: &str,
    started: Instant,
    finished: Instant,
    q: &Queried<A>,
) -> u32 {
    let root = rec.span(parent, name, None, started, finished);
    rec.count(root, "bytes", q.facts.traffic.wire_bytes());
    rec.count(root, "candidates", q.facts.kernel.candidates);
    for (rank, &s) in q.rank_seconds.iter().enumerate() {
        let engine = std::time::Duration::from_secs_f64(s);
        let start = finished
            .checked_sub(engine)
            .map_or(started, |t| t.max(started));
        let id = rec.span(
            Some(root),
            &format!("{layer}.survey"),
            Some(rank),
            start,
            finished,
        );
        phase_spans(rec, id, layer, rank, start, &q.facts);
    }
    root
}

// --------------------------------------------------------------------
// One round
// --------------------------------------------------------------------

fn round<W: Workload>(
    stage: &Stage<W>,
    samples: &mut Samples,
    checks: &mut Checks<W>,
    mut trace: Option<(&mut Recorder, &mut Counts)>,
) -> Result<(), String> {
    let w = &stage.input.workload;
    let layer = layers::engine_layer(w);

    // ---- 1. cold solve ------------------------------------------------
    let solve = layers::solve(&stage.input, trace.is_some());
    let per_rank = |a: usize, b: usize| {
        solve
            .ranks
            .iter()
            .map(|r| secs(r.marks[a], r.marks[b]))
            .collect::<Vec<f64>>()
    };
    let max = |v: Vec<f64>| v.into_iter().fold(0.0, f64::max);
    let solve_s = secs(solve.started, solve.finished);
    let surveys = per_rank(3, 4);
    let mean_survey = surveys.iter().sum::<f64>() / surveys.len() as f64;
    let survey_s = max(surveys);
    let first_in = solve.ranks.iter().map(|r| r.marks[0]).min();
    let first_in = first_in.expect("a world has ranks");
    let last_out = solve.ranks.iter().map(|r| r.marks[5]).max();
    let last_out = last_out.expect("a world has ranks");
    let teardown_s = secs(last_out, solve.finished);
    samples.solve_s.push(solve_s);
    samples.stride_s.push(max(per_rank(0, 1)));
    samples.build_s.push(max(per_rank(1, 2)));
    samples.survey_s.push(survey_s);
    samples.drop_s.push(max(per_rank(4, 5)));
    samples.rank_imbalance.push(survey_s / mean_survey);
    for (all, (phase, _, _)) in samples.phase_s.iter_mut().zip(PHASES) {
        all.push(solve.survey.phase(phase).0);
    }
    samples.teardown_s.push(teardown_s);
    samples
        .wire_bytes
        .push(solve.survey.traffic.wire_bytes() as f64);
    if let Some((rec, counts)) = trace.as_mut() {
        solve_spans(rec, layer, &solve, first_in, last_out);
        if counts.solve.is_none() {
            let build = solve
                .build
                .expect("a traced solve takes the build's counts");
            counts.solve = Some((solve.survey.clone(), build));
        }
    }
    let mut results = solve.ranks.into_iter().map(|r| r.solved);
    let first = results.next().expect("a world has a rank 0");
    let mut agree = results.all(|r| r == first);
    match &checks.solved {
        Some(anchor) => agree &= *anchor == first,
        None => checks.solved = Some(first),
    }
    checks.solves.ops(1, agree);

    // ---- 2. warm queries of the resident base graph -------------------
    for _ in 0..QUERIES_PER_ROUND {
        let t = Instant::now();
        let q = stage.resident.query();
        let done = Instant::now();
        samples.query_s.push(secs(t, done));
        checks.base.ops(1, q.acc == stage.base);
        if let Some((rec, counts)) = trace.as_mut() {
            query_spans(rec, None, "core.service.query", layer, t, done, &q);
            counts.query.get_or_insert(q.facts);
        }
    }

    // ---- 3. restart: decode the snapshot, query for the first time ----
    let t = Instant::now();
    let restored = Resident::restore(w, &stage.snapshot)?;
    let decoded = Instant::now();
    let q = restored.query();
    let done = Instant::now();
    samples.restart_s.push(secs(t, done));
    samples.decode_s.push(secs(t, decoded));
    samples.cold_query_s.push(secs(decoded, done));
    checks.base.ops(1, q.acc == stage.base);
    if let Some((rec, _)) = trace.as_mut() {
        let root = rec.span(None, "core.service.restart", None, t, done);
        let decode = rec.span(Some(root), "graph.snapshot.decode", None, t, decoded);
        rec.count(decode, "bytes", stage.snapshot.len() as u64);
        query_spans(
            rec,
            Some(root),
            "core.service.cold_query",
            layer,
            decoded,
            done,
            &q,
        );
    }

    // ---- 4. stream: ingest + delta survey per batch -------------------
    let batches: Vec<&[Edge<W::EM>]> = stage.input.batches().collect();
    let (stream, rest) = batches.split_at(STREAM_BATCHES.min(batches.len()));
    let mut running = stage.base.clone();
    let mut pending = 0;
    let count_stream = trace.as_ref().is_some_and(|(_, c)| !c.stream_counted);
    let loop_start = Instant::now();
    let (mut edges, mut ingest_total) = (0, 0.0);
    for batch in stream {
        let t = Instant::now();
        let ingested = restored.ingest(w, batch)?;
        let mid = Instant::now();
        let delta = restored.delta(&ingested)?;
        let done = Instant::now();
        W::merge(&mut running, &delta.acc);
        edges += ingested.new_edges();
        pending += 2;
        ingest_total += secs(t, mid);
        samples.ingest_s.push(secs(t, mid));
        samples.delta_s.push(secs(mid, done));
        if let Some((rec, counts)) = trace.as_mut() {
            let root = rec.span(None, "core.service.ingest", None, t, mid);
            rec.count(root, "new_edges", ingested.new_edges() as u64);
            query_spans(
                rec,
                None,
                "core.delta.survey",
                "core.delta",
                mid,
                done,
                &delta,
            );
            if count_stream {
                counts.delta_bytes += delta.facts.traffic.wire_bytes();
                counts.delta_candidates += delta.facts.kernel.candidates;
                counts.delta_triangles += W::triangles(&delta.acc);
            }
        }
    }
    let loop_s = secs(loop_start, Instant::now());
    if let Some((_, counts)) = trace.as_mut() {
        counts.stream_counted = true;
    }
    samples.updates_per_s.push(edges as f64 / loop_s);
    samples.ingest_share.push(ingest_total / loop_s);

    // ---- 5. ingest → first query, cold and timed together -------------
    let mut last = None;
    for batch in rest {
        let t = Instant::now();
        let ingested = restored.ingest(w, batch)?;
        let mid = Instant::now();
        let q = restored.query();
        let done = Instant::now();
        samples.ingest_to_query_s.push(secs(t, done));
        samples.ingest_s.push(secs(t, mid));
        samples.post_ingest_query_s.push(secs(mid, done));
        if let Some((rec, _)) = trace.as_mut() {
            let root = rec.span(None, "bench.ingest_to_query", None, t, done);
            rec.span(Some(root), "core.service.ingest", None, t, mid);
            query_spans(
                rec,
                Some(root),
                "core.service.post_ingest_query",
                layer,
                mid,
                done,
                &q,
            );
        }
        // Untimed: the batch's delta survey links this query to the one
        // before it, `full(G ∪ B) == full(G) + delta(G, B)`, on every
        // accumulator — which checks every ingest and delta survey
        // since the last full query along the way.
        let delta = restored.delta(&ingested)?;
        W::merge(&mut running, &delta.acc);
        pending += 3;
        checks.stream.ops(pending, q.acc == running);
        pending = 0;
        last = Some(q.acc);
    }
    // The chain ends at the full graph's result, anchored on the first
    // round's and through it on the serial reference.
    match (last, &checks.streamed) {
        (Some(last), Some(anchor)) if *anchor != last => {
            checks.stream.failed = (checks.stream.failed + 1).min(checks.stream.attempted)
        }
        (Some(last), None) => checks.streamed = Some(last),
        _ => {}
    }
    Ok(())
}

// --------------------------------------------------------------------
// The run
// --------------------------------------------------------------------

fn run<W: Workload>(
    name: &str,
    opts: &Options,
    generate: impl Fn() -> (W, Vec<Edge<W::EM>>),
) -> Outcome {
    // ---- set-up, several times; the last one is kept ------------------
    let mut setup_s = Vec::new();
    let mut steps: [Vec<f64>; 5] = Default::default();
    let mut stage = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous stage first: two resident graphs at once
        // would double the peak memory the run reports.
        drop(stage.take());
        let t = Instant::now();
        let s = Stage::set_up(&generate);
        setup_s.push(t.elapsed().as_secs_f64());
        for (all, step) in steps.iter_mut().zip(s.steps) {
            all.push(step);
        }
        stage = Some(s);
    }
    let stage: Stage<W> = stage.expect("SETUP_REPS is at least one");

    let mut checks = Checks {
        solves: Class::default(),
        solved: None,
        base: Class::default(),
        stream: Class::default(),
        streamed: None,
    };
    // The warm-up query of the set-up is the base anchor: one operation.
    checks.base.ops(1, true);

    // ---- rounds ---------------------------------------------------------
    let mut warmup = Samples::default();
    let mut plain = Samples::default();
    let mut traced = Samples::default();
    let mut counts = Counts::default();
    let mut recorder = opts.trace.then(Recorder::new);
    let mut error = round(&stage, &mut warmup, &mut checks, None).err();
    let clock = Instant::now();
    let mut rounds = 0;
    while error.is_none() && (rounds < MIN_ROUNDS || clock.elapsed().as_secs_f64() < opts.seconds) {
        // A traced run alternates plain and traced rounds, so the two
        // sets of samples see the same machine and their difference is
        // the tracing overhead.
        let result = match recorder.as_mut() {
            Some(rec) if rounds % 2 == 1 => {
                round(&stage, &mut traced, &mut checks, Some((rec, &mut counts)))
            }
            _ => round(&stage, &mut plain, &mut checks, None),
        };
        error = result.err();
        rounds += 1;
    }
    let peak_rss_mb = peak_rss_mib();

    // ---- end-to-end metrics ---------------------------------------------
    let mut out = Outcome::default();
    let mut put = |name: &'static str, samples: &[f64]| {
        out.metrics.insert(name, median(samples));
        out.samples.insert(name, samples.len());
    };
    put("setup_s", &setup_s);
    put("solve_s", &plain.solve_s);
    put("build_s", &plain.build_s);
    put("survey_s", &plain.survey_s);
    put("wire_bytes", &plain.wire_bytes);
    put("query_s", &plain.query_s);
    put("ingest_to_query_s", &plain.ingest_to_query_s);
    put("updates_per_s", &plain.updates_per_s);
    put("restart_s", &plain.restart_s);
    put("peak_rss_mb", &[peak_rss_mb]);

    // ---- per-layer metrics, from the traced rounds ------------------------
    if let Some(mut rec) = recorder {
        let mut put = |name: &'static str, value: f64| {
            out.metrics.insert(name, value);
        };
        let (survey, build) = counts.solve.take().unwrap_or_default();
        let query = counts.query.take().unwrap_or_default();
        let survey_s = median(&traced.survey_s);
        let build_s = median(&traced.build_s);
        let warm_query_s = median(&traced.query_s);

        put("gen.generate_s", median(&steps[0]));
        put("gen.edges", stage.raw_records as f64);
        put("graph.edge_list.canonicalize_s", median(&steps[1]));
        put("core.service.build_s", median(&steps[2]));
        put("graph.snapshot.encode_s", median(&steps[3]));
        put("graph.snapshot.bytes", stage.snapshot.len() as f64);
        put("graph.edge_list.stride_s", median(&traced.stride_s));
        put("graph.dodgr.build_bytes", build.traffic.wire_bytes() as f64);
        put("graph.dodgr.build_records", build.traffic.records as f64);
        put(
            "graph.dodgr.build_envelopes",
            build.traffic.envelopes as f64,
        );
        put("graph.dodgr.edges", build.edges as f64);
        put("graph.dodgr.wedges", build.wedges as f64);
        put("graph.dodgr.max_out_degree", build.max_out_degree as f64);
        put(
            "graph.dodgr.build_edges_per_s",
            build.edges as f64 / build_s,
        );
        put("graph.dodgr.drop_s", median(&traced.drop_s));
        put("graph.snapshot.decode_s", median(&traced.decode_s));

        let t = survey.traffic;
        put("ygm.comm.bytes_remote", t.bytes_remote as f64);
        put("ygm.comm.bytes_local", t.bytes_local as f64);
        put("ygm.comm.bytes_encoded", t.bytes_encoded as f64);
        put("ygm.comm.records", t.records as f64);
        put("ygm.comm.envelopes", t.envelopes as f64);
        put(
            "ygm.comm.bytes_per_envelope",
            t.wire_bytes() as f64 / t.envelopes.max(1) as f64,
        );
        put("ygm.comm.handlers_run", t.handlers_run as f64);
        put("ygm.comm.barriers", t.barriers as f64);
        put("ygm.comm.pool_reuses", t.pool_reuses as f64);
        put("ygm.comm.records_borrowed", t.records_borrowed as f64);
        put("ygm.comm.records_multicast", t.records_multicast as f64);
        put("ygm.comm.modeled_s", survey.modeled_s);
        for ((phase, key_s, key_bytes), seconds) in PHASES.into_iter().zip(&traced.phase_s) {
            put(key_s, median(seconds));
            put(key_bytes, survey.phase(phase).1 as f64);
        }
        put(
            "core.push_pull.pulled_vertices",
            survey.pulled_vertices as f64,
        );
        put("core.push_pull.pull_grants", survey.pull_grants as f64);
        put("core.rank_imbalance", median(&traced.rank_imbalance));
        let k = survey.kernel;
        put("core.engine.compares", k.compares as f64);
        put("core.engine.candidates", k.candidates as f64);
        put("core.engine.matches", k.matches as f64);
        put(
            "core.engine.compares_per_candidate",
            k.compares as f64 / k.candidates.max(1) as f64,
        );

        let triangles = checks.streamed.as_ref().map_or(0, W::triangles);
        put("core.surveys.triangles", triangles as f64);
        put("core.surveys.triangles_per_s", triangles as f64 / survey_s);

        let cold_query_s = median(&traced.cold_query_s);
        let ingest_s = median(&traced.ingest_s);
        put("core.service.cold_query_s", cold_query_s);
        put("core.service.reshard_s", cold_query_s - warm_query_s);
        put("core.service.ingest_s", ingest_s);
        put(
            "core.service.ingest_share_pct",
            100.0 * median(&traced.ingest_share),
        );
        put(
            "core.service.post_ingest_query_s",
            median(&traced.post_ingest_query_s),
        );
        // Warm queries are the same operation traced or not: the tail
        // is taken over all of them.
        let all_queries: Vec<f64> = plain
            .query_s
            .iter()
            .chain(&traced.query_s)
            .copied()
            .collect();
        let (tail_pct, tail_s) = tail(&all_queries);
        put("core.service.query_tail_s", tail_s);
        put("core.service.query_tail_pct", tail_pct);
        put("core.service.query_samples", all_queries.len() as f64);
        put(
            "core.service.query_bytes",
            query.traffic.wire_bytes() as f64,
        );
        put("core.delta.survey_s", median(&traced.delta_s));
        put("core.delta.bytes", counts.delta_bytes as f64);
        put("core.delta.candidates", counts.delta_candidates as f64);
        put("core.delta.triangles", counts.delta_triangles as f64);

        // ---- one layer at a time, after the clock has stopped -------------
        let timed = |rec: &mut Recorder, name: &str, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            let done = Instant::now();
            rec.span(None, name, None, t, done);
            secs(t, done)
        };
        let spawns: Vec<f64> = (0..9)
            .map(|_| timed(&mut rec, "ygm.world.spawn_only", &mut layers::spawn_only))
            .collect();
        let spawn_s = median(&spawns);
        put("ygm.world.spawn_s", spawn_s);
        put("ygm.world.teardown_s", median(&traced.teardown_s));

        let bare: Vec<f64> = (0..3)
            .map(|_| layers::bare_survey_seconds(&stage.input))
            .collect();
        put(
            "core.surveys.callback_s",
            (survey_s - median(&bare)).max(0.0),
        );

        // Each replay is a single-shot measurement on a host whose
        // operations vary by a fifth: repeat it and keep the median.
        let shards = layers::build_shards(&stage.input);
        let mut kernel = layers::Kernel::default();
        let kernel_s: Vec<f64> = (0..REPLAYS)
            .map(|_| {
                let mut seconds = 0.0;
                timed(&mut rec, "core.engine.intersect_replay", &mut || {
                    (seconds, kernel) = layers::kernel_replay(&shards)
                });
                seconds
            })
            .collect();
        drop(shards);
        put("core.engine.intersect_replay_s", median(&kernel_s));
        put(
            "core.engine.replay_ns_per_candidate",
            median(&kernel_s) * 1e9 / kernel.candidates.max(1) as f64,
        );
        // The replay enumerates every triangle: one more check.
        checks.solves.ops(1, kernel.matches == triangles);

        let mut moved = 0;
        let transport_s: Vec<f64> = (0..REPLAYS)
            .map(|_| {
                let mut seconds = 0.0;
                timed(&mut rec, "ygm.comm.replay", &mut || {
                    (seconds, moved) = layers::transport_replay(&survey.traffic)
                });
                seconds
            })
            .collect();
        put("ygm.comm.replay_s", median(&transport_s));
        put(
            "ygm.comm.replay_mb_per_s",
            moved as f64 / 1e6 / median(&transport_s).max(1e-9),
        );

        let wide = layers::solve_wide(&stage.input);
        put(
            "ygm.comm.wire_bytes_r8",
            wide.survey.traffic.wire_bytes() as f64,
        );
        put(
            "core.push_pull.pulls_per_rank_r8",
            wide.survey.pulled_vertices as f64 / RANKS_WIDE as f64,
        );
        let wide_ok = checks
            .solved
            .as_ref()
            .is_some_and(|a| wide.ranks.iter().all(|r| r.solved == *a));
        checks.solves.ops(1, wide_ok);

        let mut direct = (0.0, 0.0, Vec::new());
        timed(&mut rec, "graph.ingest.apply_batches", &mut || {
            direct = layers::ingest_directly(&stage.input, &stage.snapshot)
        });
        let apply_batch_s = median(&direct.2);
        put("graph.ingest.reverse_index_s", direct.1);
        put("graph.ingest.apply_batch_s", apply_batch_s);
        put("core.service.ingest_overhead_s", ingest_s - apply_batch_s);

        // The share of the traced solves' wall that no span under them
        // covers: not the spawn (until the first rank is in its closure),
        // not a step of either rank, not the teardown.
        let (mut solve_ns, mut own_ns) = (0, 0);
        for (span, own) in rec.spans().iter().zip(self_times_ns(rec.spans())) {
            if span.name == "bench.solve" {
                solve_ns += span.duration_ns();
                own_ns += own;
            }
        }
        let unattributed_pct = 100.0 * own_ns as f64 / solve_ns.max(1) as f64;
        put("bench.unattributed_pct", unattributed_pct);
        // A trace that cannot say where a twentieth of the wall went is
        // a failed trace. Smoke inputs solve in milliseconds, where the
        // spawn alone jitters by more than that; with fewer cores than
        // ranks the skew is the scheduler's.
        if opts.size == Size::Full && host_cores() >= layers::RANKS && unattributed_pct > 5.0 {
            eprintln!("{name}: {unattributed_pct:.1} % of the solve wall is unattributed");
            checks.solves.ops(1, false);
        }
        let overhead =
            |traced: &[f64], plain: &[f64]| 100.0 * (median(traced) / median(plain) - 1.0);
        put(
            "bench.trace_overhead_pct",
            overhead(&traced.solve_s, &plain.solve_s)
                .max(overhead(&traced.query_s, &plain.query_s)),
        );
        put("bench.host_cores", host_cores() as f64);

        if let Some(dir) = &opts.out {
            if let Err(e) = write_trace(dir, name, &rec) {
                eprintln!("could not write the trace under {}: {e}", dir.display());
            }
        }
    }

    // ---- the serial reference, after everything that is measured ----------
    let t = Instant::now();
    let w = &stage.input.workload;
    let base_ref = w.reference(stage.input.base_edges());
    let full_ref = w.reference(stage.input.edges.as_slice());
    out.metrics
        .insert("bench.reference_s", t.elapsed().as_secs_f64());
    checks.base.anchor(stage.base == base_ref);
    checks.solves.anchor(
        checks
            .solved
            .as_ref()
            .is_some_and(|s| W::solved_matches(s, &full_ref)),
    );
    checks
        .stream
        .anchor(checks.streamed.as_ref().is_none_or(|s| *s == full_ref));

    for class in [&checks.solves, &checks.base, &checks.stream] {
        out.attempted += class.attempted;
        out.failed += class.failed;
    }
    if let Some(e) = error {
        eprintln!("{name}: an operation returned an error: {e}");
        out.attempted += 1;
        out.failed += 1;
    }
    out
}

fn write_trace(dir: &std::path::Path, workload: &str, rec: &Recorder) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("trace-{workload}.jsonl")),
    )?);
    rec.write_jsonl(&mut file)?;
    file.flush()?;
    let mut table = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("layers-{workload}.txt")),
    )?);
    writeln!(
        table,
        "{:<22} {:>7} {:>12} {:>12}",
        "layer", "spans", "total_s", "self_s"
    )?;
    for (layer, spans, total, own) in layer_table(rec.spans()) {
        writeln!(table, "{layer:<22} {spans:>7} {total:>12.6} {own:>12.6}")?;
    }
    table.flush()
}
