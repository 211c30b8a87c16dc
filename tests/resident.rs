//! Differential tests of the resident survey service.
//!
//! A [`ResidentGraph`] separates graph lifetime from survey lifetime:
//! storage is built (or snapshot-loaded) once and every query runs in
//! a fresh per-query world against the shared shards. Its contract is
//! strict: a resident query must be **observationally identical** to
//! the from-scratch `survey_*_with` path — same triangle counts, same
//! metadata seen by every callback, bit-identical merged
//! [`KernelStats`] — across engine × ranks {1,2,4,7},
//! whether the resident graph came from ingest or from a
//! saved-then-loaded snapshot. Hostile snapshot bytes must always
//! surface as structured errors, never panics, and the snapshot sizes
//! of a fixed R-MAT graph and of the `String`-metadata hub graph are
//! pinned to the byte.

mod common;

use std::cell::Cell;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use common::{all_reduce_kernel_stats, hub_graph, random_graph};
use tripoll::core::{
    kernel_stats_take, survey_push_only_with, survey_push_pull_with, EngineMode, IntersectKernel,
    KernelStats, ResidentGraph, ResidentQuery, SurveyConfig,
};
use tripoll::gen::{rmat_edges, RmatConfig};
use tripoll::graph::snapshot::{encode_snapshot, SNAPSHOT_MAGIC};
use tripoll::graph::{build_dist_graph, EdgeList, Partition, SnapshotError};
use tripoll::ygm::hash::hash64;
use tripoll::ygm::wire::{Wire, WireError, WireReader};
use tripoll::ygm::{Comm, World};

/// One run's observable outcome: global triangle count, global
/// metadata checksum, and the globally summed kernel counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    count: u64,
    checksum: u64,
    stats: KernelStats,
}

/// Folds one triangle's ids and all six metadata values into a
/// commutative checksum contribution.
fn triangle_hash(tm: &tripoll::core::TriangleMeta<'_, String, String>) -> u64 {
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
    h & 0xffff_ffff
}

fn vm_of(v: u64) -> String {
    format!("v{v}")
}

/// The from-scratch reference: build the graph inside the world, run
/// `survey_*_with`, harvest globally-reduced outcome.
fn run_direct(
    list: &EdgeList<String>,
    nranks: usize,
    mode: EngineMode,
    config: SurveyConfig,
) -> Outcome {
    let out = World::new(nranks).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g = build_dist_graph(comm, local, vm_of, Partition::Hashed);
        let _ = kernel_stats_take();
        let count = Rc::new(Cell::new(0u64));
        let sum = Rc::new(Cell::new(0u64));
        let (c2, s2) = (count.clone(), sum.clone());
        let cb = move |_c: &Comm, tm: &tripoll::core::TriangleMeta<'_, String, String>| {
            c2.set(c2.get() + 1);
            s2.set(s2.get() + triangle_hash(tm));
        };
        match mode {
            EngineMode::PushOnly => survey_push_only_with(comm, &g, config, cb),
            EngineMode::PushPull => survey_push_pull_with(comm, &g, config, cb),
        };
        let stats = all_reduce_kernel_stats(comm, kernel_stats_take());
        Outcome {
            count: comm.all_reduce_sum(count.get()),
            checksum: comm.all_reduce_sum(sum.get()),
            stats,
        }
    });
    for o in &out {
        assert_eq!(o, &out[0], "direct path must agree on all ranks");
    }
    out[0]
}

/// The resident path: one query against shared storage; count and
/// checksum accumulate through a mutex (commutative sums), kernel
/// counters come from the per-rank [`tripoll::core::QueryOutcome`]s.
fn run_resident(resident: &ResidentGraph<String, String>, query: &ResidentQuery) -> Outcome {
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

fn query(nranks: usize, mode: EngineMode) -> ResidentQuery {
    ResidentQuery::new(nranks).with_mode(mode)
}

/// The acceptance matrix: resident surveys — direct **and** via a
/// saved-then-loaded snapshot — bit-identical to the from-scratch path
/// across engine × ranks {1,2,4,7}.
#[test]
fn snapshot_differential_resident_matches_from_scratch() {
    for (gname, list) in [("random", random_graph()), ("hub", hub_graph())] {
        let resident = ResidentGraph::build(&list, vm_of, Partition::Hashed);
        let restored =
            ResidentGraph::<String, String>::from_snapshot_bytes(&resident.snapshot_bytes(3))
                .expect("own snapshot must load");
        for nranks in [1usize, 2, 4, 7] {
            for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
                let q = query(nranks, mode);
                let reference = run_direct(&list, nranks, mode, q.config);
                assert!(reference.count > 0, "{gname} must contain triangles");
                let ctx = format!("{gname} {mode} n={nranks}");
                assert_eq!(
                    run_resident(&resident, &q),
                    reference,
                    "resident != from-scratch [{ctx}]"
                );
                assert_eq!(
                    run_resident(&restored, &q),
                    reference,
                    "snapshot-restored != from-scratch [{ctx}]"
                );
            }
        }
    }
}

/// Repeat queries replay the cached Push-Pull dry-run plan; the
/// replayed query must be bit-identical and its dry-run phase silent.
#[test]
fn snapshot_differential_plan_replay_is_bit_identical() {
    let list = hub_graph();
    let resident = ResidentGraph::build(&list, vm_of, Partition::Hashed);
    let q = query(4, EngineMode::PushPull);
    let first = run_resident(&resident, &q);
    // Replay twice — once with the same config, once with a different
    // engine configuration (the plan is config-independent).
    let again = run_resident(&resident, &q);
    assert_eq!(first, again, "replayed query diverged");
    let scalar = query(4, EngineMode::PushPull)
        .with_config(SurveyConfig::from(IntersectKernel::MergeScalar));
    let reference = run_direct(&list, 4, EngineMode::PushPull, scalar.config);
    assert_eq!(run_resident(&resident, &scalar), reference);
    let replay_outcomes = resident.survey(&q, |_c, _tm| {});
    for o in &replay_outcomes {
        assert_eq!(o.report.phases[0].name, "dry-run");
        assert_eq!(
            o.report.phases[0].stats.records_total(),
            0,
            "replayed dry-run must move zero records"
        );
    }
}

/// `triangle_count` sums the ranks' kernel match counters instead of
/// counting callbacks: on both engines, at 1, 2 and 4 ranks, under the
/// production kernel and the reference, it must equal the triangles a
/// callback counts.
#[test]
fn triangle_count_equals_a_callback_count() {
    for (gname, list) in [("random", random_graph()), ("hub", hub_graph())] {
        let resident = ResidentGraph::build(&list, vm_of, Partition::Hashed);
        for nranks in [1usize, 2, 4] {
            for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
                for kernel in [IntersectKernel::Merge, IntersectKernel::MergeScalar] {
                    let q = query(nranks, mode).with_config(kernel.into());
                    let counted = run_resident(&resident, &q).count;
                    assert!(counted > 0, "{gname} must contain triangles");
                    assert_eq!(
                        resident.triangle_count(&q),
                        counted,
                        "{gname} {mode} n={nranks} {kernel}"
                    );
                }
            }
        }
    }
}

/// Two *concurrent* queries with different world sizes and engines
/// against one resident graph: each must match its own direct
/// reference — queries carry explicit settings and share no state.
#[test]
fn concurrent_queries_with_different_configs_do_not_interfere() {
    let list = random_graph();
    let resident = Arc::new(ResidentGraph::build(&list, vm_of, Partition::Hashed));
    let q_narrow = ResidentQuery::new(2);
    let q_wide = query(4, EngineMode::PushOnly);

    let ref_narrow = run_direct(&list, 2, EngineMode::PushPull, q_narrow.config);
    let ref_wide = run_direct(&list, 4, EngineMode::PushOnly, q_wide.config);

    let mut joins = Vec::new();
    for _ in 0..2 {
        let (r, qn, qw) = (resident.clone(), q_narrow.clone(), q_wide.clone());
        joins.push(std::thread::spawn(move || {
            (run_resident(&r, &qn), run_resident(&r, &qw))
        }));
    }
    for j in joins {
        let (narrow, wide) = j.join().expect("query thread panicked");
        assert_eq!(
            narrow, ref_narrow,
            "narrow query diverged under concurrency"
        );
        assert_eq!(wide, ref_wide, "wide query diverged under concurrency");
    }
}

/// The snapshot of a scale-10 Graph500 R-MAT graph (seed 42, unit
/// metadata) in four sections, and of the hub graph with `String`
/// metadata in two, are pinned to the byte: growth means the binary
/// format got fatter, and the hub graph pins what entries store of
/// their targets' metadata.
#[test]
fn rmat_snapshot_size_is_pinned() {
    let edges = rmat_edges(&RmatConfig::graph500(10, 42));
    let list =
        EdgeList::from_vec(edges.into_iter().map(|(u, v)| (u, v, ())).collect()).canonicalize();
    let resident: ResidentGraph<(), ()> = ResidentGraph::build(&list, |_| (), Partition::Hashed);
    assert_eq!(resident.snapshot_bytes(4).len(), 20_251);
    let hub = ResidentGraph::build(&hub_graph(), vm_of, Partition::Hashed);
    assert_eq!(hub.snapshot_bytes(2).len(), 717);
}

/// Hostile-snapshot fuzz sweep: every strict prefix of a valid
/// snapshot, wrong magic, a future schema version, and a per-section
/// length overrun must all surface as structured [`SnapshotError`]s
/// from the resident loader — never a panic.
#[test]
fn snapshot_differential_hostile_bytes_never_panic() {
    let resident = ResidentGraph::build(&hub_graph(), vm_of, Partition::Hashed);
    let bytes = resident.snapshot_bytes(2);

    // Sanity: the intact bytes load.
    assert!(ResidentGraph::<String, String>::from_snapshot_bytes(&bytes).is_ok());

    // Every strict prefix.
    for cut in 0..bytes.len() {
        let err = ResidentGraph::<String, String>::from_snapshot_bytes(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("prefix of {cut} bytes loaded successfully"));
        let _ = format!("{err}"); // structured and printable
    }

    // Wrong magic.
    let mut wrong = bytes.clone();
    wrong[0] ^= 0xFF;
    assert!(matches!(
        ResidentGraph::<String, String>::from_snapshot_bytes(&wrong),
        Err(SnapshotError::BadMagic)
    ));

    // A future and the retired schema versions (the version varint
    // follows the magic).
    for version in [0x7F, 2, 1] {
        let mut other = bytes.clone();
        other[SNAPSHOT_MAGIC.len()] = version;
        assert!(matches!(
            ResidentGraph::<String, String>::from_snapshot_bytes(&other),
            Err(SnapshotError::UnsupportedVersion(v)) if v == u64::from(version)
        ));
    }

    // Per-section length overrun: regenerate with a single empty
    // section (header | byte_len varint | body), strip the trailing
    // byte_len + body, and claim a section far past the buffer end.
    let one = encode_snapshot::<String, String>(&[], Partition::Hashed, 1);
    let mut evil = one[..one.len() - 2].to_vec();
    evil.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0x7F]);
    assert!(matches!(
        ResidentGraph::<String, String>::from_snapshot_bytes(&evil),
        Err(SnapshotError::SectionOverrun { .. })
    ));

    // Truncated envelopes are covered by tripoll-ygm's structural abort
    // suite; here the loader-level guarantee is: no byte string reaches
    // a panic. Random-ish mutations of every byte:
    for i in 0..bytes.len() {
        let mut m = bytes.clone();
        m[i] = m[i].wrapping_add(1 + (i as u8 % 7));
        // Either still decodable (mutation hit metadata) or a
        // structured error — both fine; a panic fails the test.
        let _ = ResidentGraph::<String, String>::from_snapshot_bytes(&m);
    }
}

/// Vertex metadata whose every clone is counted.
#[derive(Debug)]
struct CountedMeta(u64);

static META_CLONES: AtomicUsize = AtomicUsize::new(0);

impl Clone for CountedMeta {
    fn clone(&self) -> Self {
        META_CLONES.fetch_add(1, Ordering::Relaxed);
        CountedMeta(self.0)
    }
}

impl Wire for CountedMeta {
    const MIN_ENCODED_BYTES: usize = u64::MIN_ENCODED_BYTES;

    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        u64::decode(r).map(CountedMeta)
    }
}

/// Copy guard (the storage-side twin of `build_traffic_is_chunked`):
/// sharding the resident graph for a new world size copies no vertex,
/// and an ingest copies in proportion to its batch, not to the graph.
#[test]
fn resharding_shares_storage_and_ingest_copies_per_batch() {
    const N: u64 = 2_048;
    let edges: Vec<(u64, u64, u32)> = (0..N)
        .flat_map(|i| [(i, (i + 1) % N, 1), (i, (i * 7 + 3) % N, 2)])
        .collect();
    let resident = ResidentGraph::build(&EdgeList::from_vec(edges), CountedMeta, Partition::Hashed);
    assert!(resident.num_vertices() >= 2_000);
    let reshard = || {
        for nranks in [1usize, 2, 4] {
            let owned = resident.run(&ResidentQuery::new(nranks), |_c, g| g.shard().len());
            assert_eq!(owned.iter().sum::<usize>(), resident.num_vertices());
        }
    };

    let built = META_CLONES.load(Ordering::Relaxed);
    reshard();
    let resharded = META_CLONES.load(Ordering::Relaxed);
    assert_eq!(resharded - built, 0, "re-sharding cloned vertex metadata");

    // Eight new edges, every other one to a new vertex. Each stored entry a
    // batch creates — a new edge, or an old one it re-orients — clones
    // its target's metadata once.
    let batch: Vec<(u64, u64, u32)> = (0..8)
        .map(|i| (i * 200, i * 200 + 100 + i % 2 * N, 3))
        .collect();
    let delta = resident.ingest_batch_with(&batch, CountedMeta).unwrap();
    assert_eq!(delta.new_edges().len(), batch.len());
    reshard();
    let ingested = META_CLONES.load(Ordering::Relaxed) - resharded;
    assert!(
        ingested <= 16 * batch.len(),
        "an {}-edge batch cloned vertex metadata {ingested} times",
        batch.len()
    );
}
