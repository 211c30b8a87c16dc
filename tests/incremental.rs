//! Batch-split differential oracle for incremental ingestion.
//!
//! The incremental contract is bit-exactness, twice over:
//!
//! 1. **Storage**: after `ResidentGraph::ingest_batch` the resident
//!    DODGr storage — and therefore every full survey of it — is
//!    bit-identical to a from-scratch build + survey of the
//!    concatenated prefix: the same stored fields, record by record and
//!    entry by entry (`common::storage_diff`; one named test also pins
//!    the snapshot bytes), and same counts,
//!    same metadata seen by every callback (checksummed), same merged
//!    [`KernelStats`] counters, across engine × ranks {1,2,4,7}.
//! 2. **Surveys**: the delta survey of each batch, merged additively
//!    into a running [`SurveyDelta`], equals the full survey of the
//!    prefix: `full(G ∪ B) == full(G) + delta(G, B)` for the count,
//!    local counts, degree triples, and closure times.
//!
//! The delta survey's wire bytes and kernel candidates for a 1 % batch
//! on a fixed R-MAT graph are pinned to literals, with unit and with
//! `String` metadata, and a whole graph ingested as one batch surveys
//! as its cold Push-Only survey: the identity that lets full and delta
//! surveys share one wedge generator.
//!
//! The full 8-combination setting matrix is too slow to cross with
//! every (graph, split, batch) triple, so each batch checks a rotating
//! deterministic slice of the matrix — every combination is exercised
//! against several prefixes across the test — and selected final
//! prefixes sweep all 8.
//!
//! Hostile cases ride along: empty first batches, batches referencing
//! unknown vertices under strict ingest (structured error, graph
//! untouched), a `vm_fn` that panics mid-batch (graph untouched and
//! still usable), ingest after a snapshot restart, a query held in
//! flight across an ingest (it keeps the graph it started on),
//! concurrent queries racing an ingest (old or new graph, never torn),
//! and a proptest
//! sweep over random partitions of random edge lists (duplicates and
//! self-loops included) converging to the one-shot survey.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use proptest::prelude::*;
use tripoll::core::{
    kernel_stats_take, survey_push_only_with, survey_push_pull_with, EngineMode, KernelStats,
    QueryOutcome, ResidentGraph, ResidentQuery, SurveyConfig, SurveyDelta, SurveyDeltaSink,
    TriangleMeta, TriangleSample,
};
use tripoll::gen::{edge_batches, rmat_edges, RmatConfig};
use tripoll::graph::{build_dist_graph, EdgeList, GraphError, Partition};
use tripoll::ygm::hash::hash64;
use tripoll::ygm::wire::Wire;
use tripoll::ygm::{Comm, World};

mod common;

use common::storage_diff;

/// One run's observable outcome: global triangle count, global
/// metadata checksum, and the globally summed kernel counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    count: u64,
    checksum: u64,
    stats: KernelStats,
}

/// Commutative checksum over ids and all six metadata values (same
/// folding as tests/resident.rs, generic over the metadata's byte
/// rendering).
fn triangle_hash<VM: std::fmt::Debug, EM: std::fmt::Debug>(tm: &TriangleMeta<'_, VM, EM>) -> u64 {
    let mut h = hash64(tm.p) ^ hash64(tm.q).rotate_left(1) ^ hash64(tm.r).rotate_left(2);
    for (i, m) in [
        format!("{:?}", tm.meta_p),
        format!("{:?}", tm.meta_q),
        format!("{:?}", tm.meta_r),
        format!("{:?}", tm.meta_pq),
        format!("{:?}", tm.meta_pr),
        format!("{:?}", tm.meta_qr),
    ]
    .iter()
    .enumerate()
    {
        for b in m.bytes() {
            h = h.rotate_left(7) ^ hash64(u64::from(b) + i as u64);
        }
    }
    h & 0xffff_ffff
}

fn vm_of(v: u64) -> String {
    format!("v{v}")
}

fn em_of(u: u64, v: u64) -> String {
    format!("e{}-{}", u.min(v), u.max(v))
}

/// Numeric metadata universe for the accumulator tests: the vertex
/// value doubles as a pseudo-degree, the edge value as a timestamp.
/// Both are **fixed** deterministic functions of the ids — the ingest
/// bit-identity contract requires metadata that does not change as the
/// graph grows.
fn vm_num(v: u64) -> u64 {
    v * 31 + 7
}

fn em_num(u: u64, v: u64) -> u64 {
    hash64(u.min(v) * 2_000_003 + u.max(v)) % 997
}

fn sample_of(tm: &TriangleMeta<'_, u64, u64>) -> TriangleSample {
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

/// The from-scratch reference: build the prefix graph inside the
/// world, run `survey_*_with`, harvest the globally-reduced outcome.
fn run_direct<VM, EM>(
    list: &EdgeList<EM>,
    nranks: usize,
    mode: EngineMode,
    config: SurveyConfig,
    vm_fn: fn(u64) -> VM,
) -> Outcome
where
    VM: Wire + Clone + Send + Sync + std::fmt::Debug + 'static,
    EM: Wire + Clone + Send + Sync + std::fmt::Debug + 'static,
{
    let out = World::new(nranks).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g = build_dist_graph(comm, local, vm_fn, Partition::Hashed);
        let _ = kernel_stats_take();
        let count = Rc::new(Cell::new(0u64));
        let sum = Rc::new(Cell::new(0u64));
        let (c2, s2) = (count.clone(), sum.clone());
        let cb = move |_c: &Comm, tm: &TriangleMeta<'_, VM, EM>| {
            c2.set(c2.get() + 1);
            s2.set(s2.get() + triangle_hash(tm));
        };
        match mode {
            EngineMode::PushOnly => survey_push_only_with(comm, &g, config, cb),
            EngineMode::PushPull => survey_push_pull_with(comm, &g, config, cb),
        };
        let ks = kernel_stats_take();
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
        }
    });
    for o in &out {
        assert_eq!(o, &out[0], "direct path must agree on all ranks");
    }
    out[0]
}

/// The incremental path: one query against the resident graph.
fn run_resident<VM, EM>(resident: &ResidentGraph<VM, EM>, query: &ResidentQuery) -> Outcome
where
    VM: Wire + Clone + Send + Sync + std::fmt::Debug + 'static,
    EM: Wire + Clone + Send + Sync + std::fmt::Debug + 'static,
{
    let acc = Arc::new(Mutex::new((0u64, 0u64)));
    let acc2 = acc.clone();
    let outcomes = resident.survey(query, move |_c, tm| {
        let mut a = acc2.lock().unwrap();
        a.0 += 1;
        a.1 += triangle_hash(tm);
    });
    let mut stats = KernelStats::default();
    for o in &outcomes {
        stats += o.kernel;
    }
    let (count, checksum) = *acc.lock().unwrap();
    Outcome {
        count,
        checksum,
        stats,
    }
}

fn labeled(edges: Vec<(u64, u64)>) -> Vec<(u64, u64, String)> {
    edges
        .into_iter()
        .map(|(u, v)| (u, v, em_of(u, v)))
        .collect()
}

/// A deterministic dense-ish random graph (the general case).
fn random_edges() -> Vec<(u64, u64)> {
    let mut edges = Vec::new();
    for u in 0..32u64 {
        for v in (u + 1)..32 {
            if (u * 7919 + v * 104_729) % 4 == 0 {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// The shared-hub construction that forces Push-Pull's pull phase to
/// carry triangles.
fn hub_edges() -> Vec<(u64, u64)> {
    let k = 24u64;
    let (h1, h2) = (1000, 1001);
    let mut edges = vec![(h1, h2)];
    for sv in 0..k {
        edges.push((sv, h1));
        edges.push((sv, h2));
    }
    edges
}

fn query(nranks: usize, mode: EngineMode) -> ResidentQuery {
    ResidentQuery::new(nranks).with_mode(mode)
}

/// The full setting matrix: ranks {1,2,4,7} × engine — 8 combinations.
fn combos() -> Vec<(usize, EngineMode)> {
    let mut out = Vec::new();
    for &nranks in &[1usize, 2, 4, 7] {
        for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
            out.push((nranks, mode));
        }
    }
    out
}

/// Satellite 1: after EVERY batch of every split, the incrementally
/// maintained resident graph surveys bit-identically to a from-scratch
/// build of the prefix — counts, metadata checksums, merged kernel
/// counters.
#[test]
fn batch_split_differential_oracle() {
    let combos = combos();
    for (gname, edges) in [
        ("random", labeled(random_edges())),
        ("hub", labeled(hub_edges())),
    ] {
        for (ki, &k) in [1usize, 2, 5, 17].iter().enumerate() {
            let chunk = edges.len().div_ceil(k);
            let nbatches = edges.len().div_ceil(chunk);
            let resident: ResidentGraph<String, String> =
                ResidentGraph::from_vertices(Vec::new(), Partition::Hashed);
            let mut prefix: Vec<(u64, u64, String)> = Vec::new();
            for (bi, batch) in edges.chunks(chunk).enumerate() {
                let delta = resident
                    .ingest_batch_with(batch, vm_of)
                    .expect("oracle batches only add known-good edges");
                assert_eq!(delta.epoch(), bi as u64 + 1);
                prefix.extend(batch.iter().cloned());
                let plist = EdgeList::from_vec(prefix.clone());
                let oneshot = ResidentGraph::build(&plist, vm_of, Partition::Hashed);
                assert_eq!(
                    storage_diff(&resident, &oneshot),
                    None,
                    "storage != from-scratch storage [{gname} k={k} batch={bi}]"
                );
                // Rotating slice of the matrix per batch; a full sweep
                // on the final prefix of the 5-way split (the final
                // prefixes of all splits are the same graph).
                let picks: Vec<usize> = if bi + 1 == nbatches && k == 5 {
                    (0..combos.len()).collect()
                } else {
                    (0..3)
                        .map(|j| (bi * 3 + j + ki * 11) % combos.len())
                        .collect()
                };
                for ci in picks {
                    let (nranks, mode) = combos[ci];
                    let q = query(nranks, mode);
                    let reference = run_direct(&plist, nranks, mode, q.config, vm_of);
                    let got = run_resident(&resident, &q);
                    assert_eq!(
                        got, reference,
                        "incremental != from-scratch [{gname} k={k} batch={bi} \
                         {mode} n={nranks}]"
                    );
                }
            }
            assert_eq!(resident.epoch(), nbatches as u64);
        }
    }
}

/// Snapshot bytes: after every batch of a five-way split, the ingested
/// graph's snapshot is byte-identical to a from-scratch build's. The
/// other storage oracles compare field by field, which also sees the
/// keys and target metadata that entries carry in memory and a
/// snapshot does not store.
#[test]
fn ingested_snapshot_bytes_equal_from_scratch_bytes() {
    for (gname, edges) in [
        ("random", labeled(random_edges())),
        ("hub", labeled(hub_edges())),
    ] {
        let resident: ResidentGraph<String, String> =
            ResidentGraph::from_vertices(Vec::new(), Partition::Hashed);
        let chunk = edges.len().div_ceil(5);
        for (bi, batch) in edges.chunks(chunk).enumerate() {
            resident.ingest_batch_with(batch, vm_of).unwrap();
            let plist = EdgeList::from_vec(edges[..(bi * chunk + batch.len())].to_vec());
            let oneshot = ResidentGraph::build(&plist, vm_of, Partition::Hashed);
            assert!(
                resident.snapshot_bytes(3) == oneshot.snapshot_bytes(3),
                "snapshot bytes != from-scratch bytes [{gname} batch={bi}]"
            );
        }
    }
}

/// A full survey of the resident graph folded into a [`SurveyDelta`].
fn full_accumulation(resident: &ResidentGraph<u64, u64>, q: &ResidentQuery) -> SurveyDelta {
    let sink = SurveyDeltaSink::new();
    let s2 = sink.clone();
    resident.survey(q, move |_c, tm| s2.record(sample_of(tm)));
    sink.take()
}

/// Tentpole acceptance: `full(G ∪ B) == full(G) + delta(G, B)` holds
/// bit-for-bit for all four accumulators, after every batch, with the
/// full side surveyed by both engines.
#[test]
fn merged_deltas_match_full_survey_accumulators() {
    let edges: Vec<(u64, u64, u64)> = random_edges()
        .into_iter()
        .map(|(u, v)| (u, v, em_num(u, v)))
        .collect();
    for k in [1usize, 4, 9] {
        let chunk = edges.len().div_ceil(k);
        let resident: ResidentGraph<u64, u64> =
            ResidentGraph::from_vertices(Vec::new(), Partition::Hashed);
        let mut running = SurveyDelta::default();
        for batch in edges.chunks(chunk) {
            let delta = resident.ingest_batch_with(batch, vm_num).unwrap();
            // `ResidentQuery::mode` applies to full surveys only: a
            // delta always pushes and says so, whichever engine the
            // query names, and accumulates the same triangles.
            let [pushed, named_pull] = [EngineMode::PushOnly, EngineMode::PushPull].map(|mode| {
                let sink = SurveyDeltaSink::new();
                let s2 = sink.clone();
                let outcomes = resident
                    .survey_delta(&delta, &query(2, mode), move |_c, tm| {
                        s2.record(sample_of(tm))
                    })
                    .expect("delta is current");
                for o in &outcomes {
                    assert_eq!(o.report.mode, EngineMode::PushOnly, "query named {mode}");
                }
                sink.take()
            });
            assert_eq!(
                pushed, named_pull,
                "delta must not depend on the query's mode"
            );
            running.merge(&pushed);
            for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
                let full = full_accumulation(&resident, &query(3, mode));
                assert_eq!(full.count(), running.count(), "count [k={k} {mode}]");
                assert_eq!(full, running, "accumulators diverged [k={k} {mode}]");
                assert_eq!(full.local_counts(), running.local_counts());
                assert_eq!(full.degree_triples(), running.degree_triples());
                assert_eq!(full.closure_times(), running.closure_times());
            }
        }
    }
}

/// The delta survey of a 1 % batch — the last 96 edges of a scale-10
/// Graph500 R-MAT graph (seed 42) landing on the rest — at 4 ranks:
/// `(bytes, kernel candidates, triangles)`, after checking that it
/// completes the recount.
fn one_percent_delta<VM, EM>(em: impl Fn(u64, u64) -> EM, vm: fn(u64) -> VM) -> (u64, u64, u64)
where
    VM: Wire + Clone + Send + Sync + 'static,
    EM: Wire + Clone + Send + Sync + 'static,
{
    let edges = rmat_edges(&RmatConfig::graph500(10, 42));
    let list = EdgeList::from_vec(edges.into_iter().map(|(u, v)| (u, v, em(u, v))).collect())
        .canonicalize();
    let all = list.as_slice();
    let cut = all.len() - all.len() / 100;
    assert_eq!(all.len() - cut, 96);
    let resident = ResidentGraph::build(
        &EdgeList::from_vec(all[..cut].to_vec()),
        vm,
        Partition::Hashed,
    );
    let q = ResidentQuery::new(4);
    let before = resident.triangle_count(&q);
    let delta = resident.ingest_batch_with(&all[cut..], vm).unwrap();
    let count = Arc::new(Mutex::new(0u64));
    let c2 = count.clone();
    let outcomes = resident
        .survey_delta(&delta, &q, move |_c, _tm| *c2.lock().unwrap() += 1)
        .expect("freshest delta is never stale");
    let bytes: u64 = outcomes
        .iter()
        .flat_map(|o| &o.report.phases)
        .map(|p| p.stats.bytes_remote + p.stats.bytes_local)
        .sum();
    let candidates: u64 = outcomes.iter().map(|o| o.kernel.candidates).sum();
    let triangles = *count.lock().unwrap();
    assert_eq!(before + triangles, resident.triangle_count(&q));
    (bytes, candidates, triangles)
}

/// With unit metadata the 1 % delta sends exactly 13 994 bytes for
/// 2 350 kernel candidates (5.955 per candidate): growth means delta
/// wedge batches got fatter than the wedges they replace.
#[test]
fn one_percent_delta_traffic_is_pinned() {
    let got = one_percent_delta(|_, _| (), |_| ());
    assert_eq!(got, (13_994, 2_350, 1_523));
}

/// With `String` metadata (`v{v}` per vertex, `{min}-{max}` per edge)
/// the same delta sends 42 970 bytes: gathered batches carry their
/// metadata column too.
#[test]
fn one_percent_delta_with_metadata_is_pinned() {
    let got = one_percent_delta(
        |u, v| format!("{}-{}", u.min(v), u.max(v)),
        |v| format!("v{v}"),
    );
    assert_eq!(got, (42_970, 2_350, 1_523));
}

/// Encoded bytes and records, then kernel candidates, compares and
/// matches, summed over a query's ranks.
fn work_of(outcomes: &[QueryOutcome]) -> [u64; 5] {
    let mut out = [0; 5];
    for o in outcomes {
        for p in &o.report.phases {
            out[0] += p.stats.bytes_encoded;
            out[1] += p.stats.records_encoded;
        }
        out[2] += o.kernel.candidates;
        out[3] += o.kernel.compares;
        out[4] += o.kernel.matches;
    }
    out
}

/// A one-part delta is the cold survey: a whole graph ingested as one
/// batch into an empty resident graph makes every out-entry new, so
/// its delta survey sends exactly the wedge batches of a cold Push-Only
/// survey of that graph — the same encoded bytes and records, the same
/// kernel candidates, compares and matches — at 1, 2 and 4 ranks.
#[test]
fn one_part_delta_is_the_cold_survey() {
    let edges = rmat_edges(&RmatConfig::graph500(9, 7));
    let list = EdgeList::from_vec(labeled(edges)).canonicalize();
    let cold = ResidentGraph::build(&list, vm_of, Partition::Hashed);
    let resident: ResidentGraph<String, String> =
        ResidentGraph::from_vertices(Vec::new(), Partition::Hashed);
    let delta = resident.ingest_batch_with(list.as_slice(), vm_of).unwrap();
    for nranks in [1, 2, 4] {
        let q = query(nranks, EngineMode::PushOnly);
        let full = work_of(&cold.survey(&q, |_c, _tm| {}));
        let part = resident
            .survey_delta(&delta, &q, |_c, _tm| {})
            .expect("the only delta is current");
        assert_eq!(work_of(&part), full, "{nranks} ranks");
        assert_eq!(
            [full[0], full[1], full[2]],
            [564_024, 4_012, 42_656],
            "{nranks} ranks"
        );
    }
}

/// Hostile: an empty first batch (and empty batches between real ones)
/// must be a no-op that still advances the epoch and leaves every
/// later survey exact.
#[test]
fn empty_first_batch_is_harmless() {
    let resident: ResidentGraph<String, String> =
        ResidentGraph::from_vertices(Vec::new(), Partition::Hashed);
    let d0 = resident.ingest_batch_with(&[], vm_of).unwrap();
    assert!(d0.is_empty());
    assert_eq!(d0.epoch(), 1);
    let edges = labeled(hub_edges());
    let d1 = resident.ingest_batch_with(&edges, vm_of).unwrap();
    assert!(!d1.is_empty());
    let d2 = resident.ingest_batch_with(&[], vm_of).unwrap();
    assert!(d2.is_empty());
    assert_eq!(resident.epoch(), 3);
    let q = query(2, EngineMode::PushPull);
    let reference = run_direct(
        &EdgeList::from_vec(edges),
        2,
        EngineMode::PushPull,
        q.config,
        vm_of,
    );
    assert_eq!(run_resident(&resident, &q), reference);
    // An empty delta surveys zero triangles (and is current).
    let sink = Arc::new(Mutex::new(0u64));
    let s2 = sink.clone();
    resident
        .survey_delta(&d2, &q, move |_c, _tm| *s2.lock().unwrap() += 1)
        .expect("latest delta is current");
    assert_eq!(*sink.lock().unwrap(), 0);
}

/// Hostile: strict ingest of a batch naming an unknown vertex is a
/// structured [`GraphError::UnknownVertex`] — not a panic — and the
/// graph (storage, epoch, surveys) is untouched.
#[test]
fn unknown_vertex_rejection_stays_structured() {
    let edges = labeled(random_edges());
    let resident =
        ResidentGraph::build(&EdgeList::from_vec(edges.clone()), vm_of, Partition::Hashed);
    let q = query(2, EngineMode::PushOnly);
    let before = run_resident(&resident, &q);
    let bad = vec![
        (0u64, 1u64, "dup".to_string()),
        (5, 4242, "ghost".to_string()),
    ];
    let err = resident.ingest_batch(&bad).unwrap_err();
    assert_eq!(err, GraphError::UnknownVertex { vertex: 4242 });
    assert!(err.to_string().contains("4242"), "error names the vertex");
    assert_eq!(resident.epoch(), 0, "failed ingest leaves no trace");
    assert_eq!(run_resident(&resident, &q), before, "graph unchanged");
}

/// Hostile: a snapshot-loaded graph accepts further batches, and the
/// result is bit-identical to a from-scratch build of the whole list.
#[test]
fn ingest_after_snapshot_load_is_exact() {
    let edges = labeled(random_edges());
    let half = edges.len() / 2;
    let first = ResidentGraph::build(
        &EdgeList::from_vec(edges[..half].to_vec()),
        vm_of,
        Partition::Hashed,
    );
    let restored =
        ResidentGraph::<String, String>::from_snapshot_bytes(&first.snapshot_bytes(3)).unwrap();
    let delta = restored.ingest_batch_with(&edges[half..], vm_of).unwrap();
    assert_eq!(delta.epoch(), 1, "restored graph restarts its epochs");
    // One step further: the grown graph goes through a snapshot too.
    let again =
        ResidentGraph::<String, String>::from_snapshot_bytes(&restored.snapshot_bytes(2)).unwrap();
    let plist = EdgeList::from_vec(edges);
    let oneshot = ResidentGraph::build(&plist, vm_of, Partition::Hashed);
    assert_eq!(
        storage_diff(&again, &oneshot),
        None,
        "snapshot+ingest+snapshot storage != from-scratch storage"
    );
    for (nranks, mode) in [(2, EngineMode::PushOnly), (4, EngineMode::PushPull)] {
        let q = query(nranks, mode);
        let reference = run_direct(&plist, nranks, mode, q.config, vm_of);
        for (name, graph) in [("ingest", &restored), ("ingest+snapshot", &again)] {
            assert_eq!(
                run_resident(graph, &q),
                reference,
                "snapshot+{name} != from-scratch [{mode} n={nranks}]"
            );
        }
    }
}

/// Hostile: a `vm_fn` that panics on one of the batch's new vertices —
/// whichever one — leaves storage and epoch exactly as they were, and
/// the same graph then ingests the batch and answers queries.
#[test]
fn panicking_vm_fn_leaves_the_graph_untouched() {
    let edges = labeled(random_edges());
    let resident =
        ResidentGraph::build(&EdgeList::from_vec(edges.clone()), vm_of, Partition::Hashed);
    // A twin build: every failed ingest must leave `resident` equal to it.
    let untouched =
        ResidentGraph::build(&EdgeList::from_vec(edges.clone()), vm_of, Partition::Hashed);
    let batch = labeled(vec![
        (0, 100),
        (100, 101),
        (101, 1),
        (5, 102),
        (102, 0),
        (3, 9),
    ]);
    for bad in [100u64, 101, 102] {
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            resident.ingest_batch_with(&batch, |v| {
                assert_ne!(v, bad, "injected vm_fn failure");
                vm_of(v)
            })
        }));
        assert!(attempt.is_err(), "the injected panic reaches the caller");
        assert_eq!(resident.epoch(), 0, "failed ingest leaves the epoch");
        assert_eq!(
            storage_diff(&resident, &untouched),
            None,
            "failed ingest leaves the storage [vm_fn panics on {bad}]"
        );
    }
    let delta = resident.ingest_batch_with(&batch, vm_of).unwrap();
    assert_eq!(delta.epoch(), 1);
    let mut all = edges;
    all.extend(batch);
    let q = query(2, EngineMode::PushPull);
    let reference = run_direct(
        &EdgeList::from_vec(all),
        2,
        EngineMode::PushPull,
        q.config,
        vm_of,
    );
    assert_eq!(run_resident(&resident, &q), reference);
}

/// A query in flight when a batch lands keeps the graph it started on
/// (the ingest writes a copy); the next query sees the batch.
#[test]
fn query_in_flight_across_an_ingest_keeps_its_graph() {
    let edges = labeled(random_edges());
    let half = edges.len() / 2;
    let resident = ResidentGraph::build(
        &EdgeList::from_vec(edges[..half].to_vec()),
        vm_of,
        Partition::Hashed,
    );
    let q = query(2, EngineMode::PushOnly);
    let before = resident.triangle_count(&q);
    // Every rank and the ingesting thread meet twice: once the query's
    // world is up, and again once the batch is in.
    let started = Barrier::new(q.nranks + 1);
    let ingested = Barrier::new(q.nranks + 1);
    let in_flight = std::thread::scope(|s| {
        let query_thread = s.spawn(|| {
            resident.run(&q, |comm, g| {
                started.wait();
                ingested.wait();
                let count = Rc::new(Cell::new(0u64));
                let c2 = count.clone();
                survey_push_only_with(
                    comm,
                    g,
                    q.config,
                    move |_: &Comm, _: &TriangleMeta<'_, String, String>| c2.set(c2.get() + 1),
                );
                comm.all_reduce_sum(count.get())
            })
        });
        started.wait();
        resident
            .ingest_batch_with(&edges[half..], vm_of)
            .expect("ingest under a query in flight succeeds");
        ingested.wait();
        query_thread.join().expect("query thread panicked")
    });
    let after = resident.triangle_count(&q);
    assert_ne!(before, after, "the batch adds triangles");
    assert_eq!(in_flight, vec![before; q.nranks], "in-flight query");
    let oneshot = ResidentGraph::build(&EdgeList::from_vec(edges), vm_of, Partition::Hashed);
    assert_eq!(after, oneshot.triangle_count(&q), "query after the ingest");
    assert_eq!(storage_diff(&resident, &oneshot), None);
}

/// Hostile: queries racing an ingest must observe some complete graph
/// state — the count of one of the ingested prefixes — never a torn
/// intermediate. Under Push-Pull the racing queries also capture and
/// replay dry-run plans, so a replay must never meet the shards of an
/// epoch other than the one its plan was captured from.
#[test]
fn concurrent_queries_racing_ingest_see_whole_graphs() {
    let edges = labeled(random_edges());
    let chunk = edges.len().div_ceil(5);
    let batches: Vec<&[(u64, u64, String)]> = edges.chunks(chunk).collect();

    // Valid observable counts: every prefix of whole batches.
    let mut valid = vec![0u64]; // before the first batch lands
    for j in 1..=batches.len() {
        let plist = EdgeList::from_vec(edges[..(j * chunk).min(edges.len())].to_vec());
        let direct = run_direct(&plist, 2, EngineMode::PushOnly, SurveyConfig::new(), vm_of);
        valid.push(direct.count);
    }

    for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
        let q = query(2, mode);
        let resident: Arc<ResidentGraph<String, String>> =
            Arc::new(ResidentGraph::from_vertices(Vec::new(), Partition::Hashed));
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for t in 0..2 {
            let (r, stop2, valid2, q2) = (resident.clone(), stop.clone(), valid.clone(), q.clone());
            joins.push(std::thread::spawn(move || {
                let mut observed = Vec::new();
                while !stop2.load(Ordering::Relaxed) {
                    let c = r.triangle_count(&q2);
                    assert!(
                        valid2.contains(&c),
                        "{mode}: thread {t} observed torn count {c}, valid: {valid2:?}"
                    );
                    observed.push(c);
                }
                observed
            }));
        }
        for batch in &batches {
            resident
                .ingest_batch_with(batch, vm_of)
                .expect("racing ingest succeeds");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        let mut all_observed = Vec::new();
        for j in joins {
            all_observed.extend(j.join().expect("query thread panicked"));
        }
        assert!(
            !all_observed.is_empty(),
            "{mode}: raced queries actually ran"
        );
        // After the dust settles the final graph is complete.
        assert_eq!(resident.triangle_count(&q), *valid.last().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Satellite 2: ANY partition of an edge list into batches —
    /// empty batches, duplicates and self-loops straddling boundaries —
    /// converges to the same final survey as one-shot ingest, and the
    /// merged per-batch deltas equal the full accumulation.
    #[test]
    fn any_batch_partition_converges(eb in edge_batches(10, 60, 6)) {
        let resident: ResidentGraph<u64, u64> =
            ResidentGraph::from_vertices(Vec::new(), Partition::Hashed);
        let mut running = SurveyDelta::default();
        for batch in eb.batches() {
            let b: Vec<(u64, u64, u64)> =
                batch.iter().map(|&(u, v)| (u, v, em_num(u, v))).collect();
            let delta = resident.ingest_batch_with(&b, vm_num).unwrap();
            let sink = SurveyDeltaSink::new();
            let s2 = sink.clone();
            resident
                .survey_delta(
                    &delta,
                    &query(2, EngineMode::PushOnly),
                    move |_c, tm| s2.record(sample_of(tm)),
                )
                .expect("freshest delta is never stale");
            running.merge(&sink.take());
        }
        let all: Vec<(u64, u64, u64)> = eb
            .edges
            .iter()
            .map(|&(u, v)| (u, v, em_num(u, v)))
            .collect();
        let oneshot =
            ResidentGraph::build(&EdgeList::from_vec(all), vm_num, Partition::Hashed);
        prop_assert_eq!(resident.num_vertices(), oneshot.num_vertices());
        prop_assert_eq!(
            storage_diff(&resident, &oneshot),
            None,
            "storage != one-shot storage"
        );
        for (nranks, mode) in [(2usize, EngineMode::PushOnly), (3, EngineMode::PushPull)] {
            let q = query(nranks, mode);
            prop_assert_eq!(
                run_resident(&resident, &q),
                run_resident(&oneshot, &q),
                "incremental != one-shot [{} n={}]", mode, nranks
            );
        }
        let full = full_accumulation(
            &resident,
            &query(2, EngineMode::PushOnly),
        );
        prop_assert_eq!(full, running, "merged deltas != full accumulation");
    }
}
