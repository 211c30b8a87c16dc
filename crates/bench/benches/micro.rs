//! Micro-benchmarks for the hot kernels underneath TriPoll: wire codec,
//! varints, send-buffer accumulation, merge-path intersection, the
//! deterministic hash — plus a head-to-head of the **materialized** vs
//! **encode-once** push encode paths, the columnar frame's wire volume
//! and encode/decode cost, and an instrumented survey run.
//!
//! Besides the human-readable lines, the harness writes
//! `BENCH_micro.json` (schema `tripoll-bench-micro/v10`) so successive
//! PRs can track the perf trajectory mechanically: kernel ns/iter,
//! bytes sent, envelope counts, allocation-count proxies for the push
//! (encode) and columnar receive (decode) paths, the intersection-kernel
//! comparison (scalar vs gallop vs blocked at four degree
//! skews, with deterministic compare counters), the SWAR varint-crack
//! ns/key proxy, the parallel batch-dispatch scaling (ns/batch at
//! 1/2/4 threads plus the 4-thread survey's merged compare counters),
//! the node-aggregation fan-out (pull bytes/candidate at rpn 1 vs 4,
//! multicast savings, overlapped-vs-inline flush handoff), the
//! resident service's snapshot-restart trade (cold ingest vs snapshot
//! load, resident vs from-scratch query dispatch), the incremental
//! ingest trade (delta survey vs full recount at 1% and 10% batch
//! sizes, with the delta's wire bytes per candidate), and wall time.
//! CI diffs the columnar receive allocation proxy and bytes/candidate,
//! the Auto kernel's compares/candidate, the parallel survey's
//! merged compares/candidate (0% drift — the deterministic-reduction
//! invariant), the multicast fan-out's bytes/candidate, the
//! deterministic snapshot byte size, and the delta survey's
//! bytes/candidate against the committed baseline (`bench_diff`).

use criterion::{criterion_group, BatchSize, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rayon::pool::ThreadPool;
use tripoll_core::{
    intersect_col, kernel_stats_take, merge_path, survey_push_pull_with, EngineMode,
    IntersectKernel, Parallelism, ResidentGraph, ResidentQuery, SurveyConfig,
};
use tripoll_graph::{build_dist_graph, DistGraph, EdgeList, OrderKey, Partition};
use tripoll_ygm::buffer::{BufferPool, SendBuffer};
use tripoll_ygm::hash::{hash64, FastMap};
use tripoll_ygm::wire::{
    encode_columns, from_bytes, put_varint, to_bytes, ColBatch, ColCursor, KeyBlock, Wire,
    WireEncode, WireReader, KEY_BLOCK_LEN,
};
use tripoll_ygm::{CommConfig, World};

/// Counts heap allocations so the push-path comparison can report an
/// allocation proxy alongside wall time.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure delegation to `System` plus a relaxed counter bump —
// every layout/pointer contract is forwarded unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: layout is forwarded to `System.alloc` verbatim, so the
    // caller's `GlobalAlloc` obligations transfer directly.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    // SAFETY: pointer and layout are forwarded to `System.dealloc`
    // verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    // SAFETY: all arguments are forwarded to `System.realloc` verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}

fn bench_varint(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/varint");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("encode_1k_mixed", |b| {
        let values: Vec<u64> = (0..1024u64).map(|i| hash64(i) >> (i % 48)).collect();
        b.iter_batched(
            || Vec::with_capacity(16 * 1024),
            |mut buf| {
                for &v in &values {
                    put_varint(&mut buf, v);
                }
                buf
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("decode_1k_mixed", |b| {
        let values: Vec<u64> = (0..1024u64).map(|i| hash64(i) >> (i % 48)).collect();
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        b.iter(|| {
            let mut r = WireReader::new(&buf);
            let mut sum = 0u64;
            while !r.is_empty() {
                sum = sum.wrapping_add(r.take_varint().unwrap());
            }
            sum
        })
    });
    group.finish();
}

type PushLikeMsg = (u64, u64, u64, u64, ColBatch<u64>);

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire/codec");
    // A realistic push message: (p, q, meta_p, meta_pq, 64 candidates).
    let msg: PushLikeMsg = (
        12_345,
        67_890,
        42,
        7,
        ColBatch((0..64).map(|i| (hash64(i), i * 3 + 1, i)).collect()),
    );
    group.throughput(Throughput::Elements(64));
    group.bench_function("push_message_roundtrip", |b| {
        b.iter(|| {
            let bytes = to_bytes(black_box(&msg));
            let back: PushLikeMsg = from_bytes(&bytes).unwrap();
            back.4 .0.len()
        })
    });
    group.bench_function("string_payload_roundtrip", |b| {
        let payload: Vec<String> = (0..32)
            .map(|i| format!("site{i}.example/path/to/page"))
            .collect();
        b.iter(|| {
            let bytes = to_bytes(black_box(&payload));
            let back: Vec<String> = from_bytes(&bytes).unwrap();
            back.len()
        })
    });
    group.finish();
}

fn bench_buffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer");
    group.throughput(Throughput::Elements(1024));
    group.bench_function("push_1k_records", |b| {
        b.iter_batched(
            SendBuffer::new,
            |mut buf| {
                for i in 0..1024u64 {
                    buf.push_record(3, &(i, i * 2));
                }
                buf.drain().0.len()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_merge_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_path");
    for size in [64usize, 1024] {
        let left: Vec<(u64, OrderKey)> = (0..size as u64)
            .map(|i| (i * 2, OrderKey::new(i * 2, i)))
            .collect();
        let right: Vec<(u64, OrderKey)> = (0..size as u64)
            .map(|i| (i * 3, OrderKey::new(i * 3, i)))
            .collect();
        group.throughput(Throughput::Elements(size as u64));
        group.bench_function(format!("intersect_{size}"), |b| {
            b.iter(|| {
                let mut matches = 0u64;
                merge_path(
                    black_box(&left),
                    black_box(&right),
                    |l| l.1,
                    |r| r.1,
                    |_, _| matches += 1,
                );
                matches
            })
        });
    }
    group.finish();
}

fn bench_hash(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash64");
    group.throughput(Throughput::Elements(4096));
    group.bench_function("mix_4k", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..4096u64 {
                acc ^= hash64(black_box(i));
            }
            acc
        })
    });
    group.finish();
}

/// Adjacency-entry stand-in matching the DODGr layout the engines
/// serialize from: `(v, OrderKey, edge meta)`.
struct Entry {
    v: u64,
    degree: u64,
    em: u64,
}

/// The production candidate projection of an adjacency slice.
fn candidate_columns(adj: &[Entry]) -> impl WireEncode + '_ {
    encode_columns(
        adj,
        |e: &Entry| e.v,
        |e| e.degree,
        |e, out| e.em.encode(out),
    )
}

fn synthetic_adjacency(len: usize) -> Vec<Entry> {
    (0..len as u64)
        .map(|i| Entry {
            v: hash64(i),
            degree: i + 1,
            em: i % 7,
        })
        .collect()
}

/// The materializing push path: build an owned [`ColBatch`] (plus
/// metadata clones) per wedge batch, then encode the owned message —
/// what a sender without the borrowed encoders would do. Flushes use
/// the pooled drain, as production does, so the comparison isolates the
/// per-batch cost rather than buffer regrowth.
fn push_batches_materialized(
    adj: &[Entry],
    batches: usize,
    buf: &mut SendBuffer,
    pool: &mut BufferPool,
) -> usize {
    let mut total = 0;
    for b in 0..batches {
        let candidates = ColBatch(adj.iter().map(|e| (e.v, e.degree, e.em)).collect());
        total += buf.push_record(3, &(b as u64, b as u64 + 1, 42u64, 7u64, candidates));
        if buf.len() > FLUSH_BYTES {
            let (data, _) = buf.drain_pooled(pool);
            pool.put(data);
        }
    }
    total
}

/// The production push path: candidate columns stream straight from the
/// adjacency slice, metadata by reference, via the borrowed encoders.
fn push_batches_encode_once(
    adj: &[Entry],
    batches: usize,
    buf: &mut SendBuffer,
    pool: &mut BufferPool,
) -> usize {
    let mut total = 0;
    for b in 0..batches {
        total += buf.push_record_with(3, |out| {
            (
                b as u64,
                b as u64 + 1,
                &42u64,
                &7u64,
                candidate_columns(adj),
            )
                .encode_wire(out)
        });
        if buf.len() > FLUSH_BYTES {
            let (data, _) = buf.drain_pooled(pool);
            pool.put(data);
        }
    }
    total
}

/// Measurement of one push-path variant.
struct PathRun {
    allocs: u64,
    ns: f64,
    bytes: usize,
}

fn measure_path(f: impl Fn(&mut SendBuffer, &mut BufferPool) -> usize) -> PathRun {
    // Warm-up pass primes the buffer pool so the measured pass appends
    // into steady-state (recycled) storage, exactly as a survey phase
    // does between flushes — the measurement isolates per-batch cost.
    let mut buf = SendBuffer::new();
    let mut pool = BufferPool::new(8, FLUSH_BYTES * 4);
    f(&mut buf, &mut pool);
    let (data, _) = buf.drain_pooled(&mut pool);
    pool.put(data);
    let before_allocs = allocs_now();
    let start = Instant::now();
    let bytes = f(&mut buf, &mut pool);
    let ns = start.elapsed().as_nanos() as f64;
    let allocs = allocs_now() - before_allocs;
    PathRun { allocs, ns, bytes }
}

const PUSH_BATCHES: usize = 4096;
const PUSH_CANDIDATES: usize = 64;
/// Bench stand-in for the communicator's flush threshold.
const FLUSH_BYTES: usize = 1 << 20;

/// Materialized-vs-encode-once comparison of the wedge-batch encode path.
fn compare_push_paths() -> (PathRun, PathRun) {
    let adj = synthetic_adjacency(PUSH_CANDIDATES);
    let old = measure_path(|buf, pool| push_batches_materialized(&adj, PUSH_BATCHES, buf, pool));
    let new = measure_path(|buf, pool| push_batches_encode_once(&adj, PUSH_BATCHES, buf, pool));
    println!(
        "push_path/materialized                    {:>12.1} ns/batch  {:>8} allocs  {:>9} bytes",
        old.ns / PUSH_BATCHES as f64,
        old.allocs,
        old.bytes
    );
    println!(
        "push_path/encode_once                     {:>12.1} ns/batch  {:>8} allocs  {:>9} bytes",
        new.ns / PUSH_BATCHES as f64,
        new.allocs,
        new.bytes
    );
    assert_eq!(old.bytes, new.bytes, "wire images must be byte-identical");
    (old, new)
}

/// Hub-scale adjacency for the frame measurement: vertex ids spread by
/// hash (multi-byte varints, as scrambled R-MAT ids are) and degrees in
/// the thousands (two-byte varints raw, one-byte deltas columnar) —
/// the regime where the delta-coded degree column pays.
fn hub_adjacency(len: usize) -> Vec<Entry> {
    (0..len as u64)
        .map(|i| Entry {
            v: hash64(i),
            degree: 4096 + i * 3,
            em: i % 7,
        })
        .collect()
}

/// Encodes the push stream: `PUSH_BATCHES` wedge-batch records
/// concatenated, exactly as one envelope's payload lays them out
/// (headers + `encode_columns` candidates, as the production sender
/// does; handler-id varints excluded).
fn push_stream(adj: &[Entry]) -> Vec<u8> {
    let mut buf = Vec::new();
    for b in 0..PUSH_BATCHES {
        (
            b as u64,
            b as u64 + 1,
            &42u64,
            &7u64,
            candidate_columns(adj),
        )
            .encode_wire(&mut buf);
    }
    buf
}

/// The element-wise walk: key columns walked one element at a time,
/// metadata column touched only on the simulated matches (every 8th
/// candidate) — the access pattern of the `MergeScalar` / `Gallop`
/// arms, and the baseline of the blocked-decode comparison.
fn decode_batches_columnar_scalar(buf: &[u8]) -> u64 {
    let mut r = WireReader::new(buf);
    let mut acc = 0u64;
    while !r.is_empty() {
        let p = u64::decode(&mut r).expect("p");
        let q = u64::decode(&mut r).expect("q");
        let mp = u64::decode(&mut r).expect("meta_p");
        let mpq = u64::decode(&mut r).expect("meta_pq");
        acc = acc
            .wrapping_add(p)
            .wrapping_add(q)
            .wrapping_add(mp)
            .wrapping_add(mpq);
        let mut cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).expect("columns");
        while let Some(k) = cur.keys.next_key() {
            let k = k.expect("key");
            acc = acc.wrapping_add(k.v).wrapping_add(k.degree);
            if k.idx.is_multiple_of(8) {
                acc = acc.wrapping_add(cur.metas.get(k.idx).expect("match meta"));
            }
        }
    }
    acc
}

/// The blocked decode proxy: key columns decoded through the
/// blocked kernel's [`KeyBlock`] bulk walk ([`ColKeys::next_block`]),
/// so the varint-decode loop runs tight over each column and the
/// consumer scans stack arrays — the access pattern the
/// `BlockedMerge`/`Auto` production kernel uses.
///
/// [`ColKeys::next_block`]: tripoll_ygm::wire::ColKeys::next_block
fn decode_batches_columnar(buf: &[u8]) -> u64 {
    let mut r = WireReader::new(buf);
    let mut acc = 0u64;
    let mut block = KeyBlock::new();
    while !r.is_empty() {
        let p = u64::decode(&mut r).expect("p");
        let q = u64::decode(&mut r).expect("q");
        let mp = u64::decode(&mut r).expect("meta_p");
        let mpq = u64::decode(&mut r).expect("meta_pq");
        acc = acc
            .wrapping_add(p)
            .wrapping_add(q)
            .wrapping_add(mp)
            .wrapping_add(mpq);
        let mut cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).expect("columns");
        while let Some(res) = cur.keys.next_block(&mut block) {
            res.expect("key block");
            for i in 0..block.len {
                acc = acc.wrapping_add(block.v[i]).wrapping_add(block.degree[i]);
                let idx = block.base + i;
                if idx.is_multiple_of(8) {
                    acc = acc.wrapping_add(cur.metas.get(idx).expect("match meta"));
                }
            }
        }
    }
    acc
}

/// Measurement of the columnar frame: wire volume plus steady-state
/// encode and decode cost, the decode both blocked and element-wise.
struct LayoutRun {
    bytes: usize,
    encode: PathRun,
    decode: PathRun,
    decode_scalar: PathRun,
}

/// The wedge-batch frame on hub-scale batches: bytes per candidate (the
/// §5.4 communication-volume story) and the encode/decode proxies that
/// CI gates — the decode must not allocate (the zero-copy receive
/// property).
fn measure_batch_layout() -> LayoutRun {
    let adj = hub_adjacency(PUSH_CANDIDATES);
    let stream = push_stream(&adj);
    // Differential check before anything is timed: both walks read
    // every value identically.
    assert_eq!(
        decode_batches_columnar_scalar(&stream),
        decode_batches_columnar(&stream),
        "columnar walks disagree"
    );

    let encode = measure_path(|buf, pool| push_batches_encode_once(&adj, PUSH_BATCHES, buf, pool));
    let decode_with = |f: &dyn Fn(&[u8]) -> u64| {
        let _warm = black_box(f(&stream));
        let before_allocs = allocs_now();
        let start = Instant::now();
        let acc = black_box(f(&stream));
        let ns = start.elapsed().as_nanos() as f64;
        let allocs = allocs_now() - before_allocs;
        black_box(acc);
        PathRun {
            allocs,
            ns,
            bytes: stream.len(),
        }
    };
    let run = LayoutRun {
        bytes: stream.len(),
        encode,
        decode: decode_with(&decode_batches_columnar),
        decode_scalar: decode_with(&decode_batches_columnar_scalar),
    };
    println!(
        "batch_layout/columnar     {:>7.2} B/cand  encode {:>8.1} ns/batch {:>4} allocs  decode {:>8.1} ns/batch {:>4} allocs",
        run.bytes as f64 / (PUSH_BATCHES * PUSH_CANDIDATES) as f64,
        run.encode.ns / PUSH_BATCHES as f64,
        run.encode.allocs,
        run.decode.ns / PUSH_BATCHES as f64,
        run.decode.allocs,
    );
    println!(
        "batch_layout/columnar_scalar_walk decode {:>8.1} ns/batch {:>4} allocs  -> blocked {:>8.1} ns/batch",
        run.decode_scalar.ns / PUSH_BATCHES as f64,
        run.decode_scalar.allocs,
        run.decode.ns / PUSH_BATCHES as f64,
    );
    // Deliberately NOT asserted to be zero here: the harness records
    // reality in BENCH_micro.json and CI's bench_diff gate enforces the
    // policy (committed baseline 0 allocs ⇒ any allocation fails). A
    // hard assert would kill the bench before the report is written,
    // leaving the gate nothing to diagnose.
    if run.decode.allocs > 0 {
        println!(
            "WARNING: columnar recv path allocated {} times (expected 0)",
            run.decode.allocs
        );
    }
    run
}

/// One kernel's measurement at one skew.
struct KernelRun {
    name: &'static str,
    ns_per_candidate: f64,
    compares_per_candidate: f64,
    allocs: u64,
    matches_per_iter: u64,
}

/// One skew point of the intersection-kernel comparison.
struct SkewRun {
    name: &'static str,
    left: usize,
    right: usize,
    runs: Vec<KernelRun>,
}

/// Passes per (skew, kernel) measurement.
const KERNEL_ITERS: usize = 64;

/// Head-to-head of the intersection kernels over a real columnar frame
/// (the production shape: keys decoded off the wire, right side in
/// storage, metadata decoded on match only) at four degree skews (balanced, 10:1, 1000:1 and its reverse).
/// The compare counters are deterministic — CI gates the Auto kernel's
/// compares-per-candidate — while ns/candidate is context.
fn compare_intersect_kernels() -> (Vec<SkewRun>, f64) {
    let mut skews = Vec::new();
    let (mut auto_compares, mut auto_candidates) = (0u64, 0u64);
    for (name, left_n, right_n) in [
        ("balanced", 4096usize, 4096usize),
        ("skew_10_1", 512, 5120),
        ("skew_1000_1", 64, 64_000),
        ("skew_1_1000", 64_000, 64),
    ] {
        // The denser side holds every even value; the sparser side
        // spreads across that range, alternating hits (even values)
        // and off-by-one misses (odd values). Key order follows the
        // value (degree = value).
        let (dense_n, sparse_n) = (left_n.max(right_n), left_n.min(right_n));
        let dense: Vec<u64> = (0..dense_n as u64).map(|i| 2 * i).collect();
        let step = 2 * (dense_n / sparse_n) as u64;
        let sparse: Vec<u64> = (0..sparse_n as u64).map(|i| i * step + (i % 2)).collect();
        let (left_vals, right_vals) = if right_n >= left_n {
            (sparse, dense)
        } else {
            (dense, sparse)
        };
        let right: Vec<(u64, OrderKey)> = right_vals
            .iter()
            .map(|&v| (v, OrderKey::new(v, v)))
            .collect();
        let left: Vec<(u64, u64)> = left_vals.iter().map(|&v| (v, v)).collect();
        let frame = to_bytes(&ColBatch::<u64>(
            left.iter()
                .enumerate()
                .map(|(i, &(v, d))| (v, d, i as u64))
                .collect(),
        ));
        // Oracle: the expected match count per pass.
        let left_keys: Vec<(u64, OrderKey)> = left
            .iter()
            .map(|&(v, d)| (v, OrderKey::new(v, d)))
            .collect();
        let mut expected = 0u64;
        merge_path(&left_keys, &right, |l| l.1, |r| r.1, |_, _| expected += 1);
        assert!(expected > 0, "skew {name} must produce matches");

        let mut runs = Vec::new();
        for (kname, kernel) in [
            ("scalar", IntersectKernel::MergeScalar),
            ("gallop", IntersectKernel::Gallop),
            ("blocked", IntersectKernel::BlockedMerge),
            ("auto", IntersectKernel::Auto),
        ] {
            let one_pass = |acc: &mut u64, matches: &mut u64| {
                let mut r = WireReader::new(&frame);
                let cur: ColCursor<'_, u64> = ColCursor::begin(&mut r).expect("frame");
                let ColCursor {
                    mut keys,
                    mut metas,
                } = cur;
                intersect_col(
                    kernel,
                    &mut keys,
                    &right,
                    |e| e.1,
                    |k, e| {
                        // Production pattern: metadata decoded on match.
                        *acc = acc.wrapping_add(metas.get(k.idx)?).wrapping_add(e.0);
                        *matches += 1;
                        Ok(())
                    },
                )
                .expect("intersect");
            };
            // Warm-up, then a counted, timed, alloc-metered run.
            let (mut acc, mut warm_matches) = (0u64, 0u64);
            one_pass(&mut acc, &mut warm_matches);
            assert_eq!(warm_matches, expected, "kernel {kname} disagrees at {name}");
            let _ = kernel_stats_take();
            let mut matches = 0u64;
            let before_allocs = allocs_now();
            let start = Instant::now();
            for _ in 0..KERNEL_ITERS {
                one_pass(&mut acc, &mut matches);
            }
            let ns = start.elapsed().as_nanos() as f64;
            let allocs = allocs_now() - before_allocs;
            black_box(acc);
            let ks = kernel_stats_take();
            let candidates = (left_n * KERNEL_ITERS) as u64;
            if kernel == IntersectKernel::Auto {
                auto_compares += ks.compares;
                auto_candidates += candidates;
            }
            runs.push(KernelRun {
                name: kname,
                ns_per_candidate: ns / candidates as f64,
                compares_per_candidate: ks.compares as f64 / candidates as f64,
                allocs,
                matches_per_iter: matches / KERNEL_ITERS as u64,
            });
        }
        for r in &runs {
            println!(
                "intersect_kernel/{name:<12}/{:<8} {:>8.2} ns/cand  {:>8.2} compares/cand  {:>4} allocs  {:>6} matches",
                r.name, r.ns_per_candidate, r.compares_per_candidate, r.allocs, r.matches_per_iter
            );
            if r.allocs > 0 {
                println!(
                    "WARNING: kernel {} allocated {} times at {} (expected 0)",
                    r.name, r.allocs, name
                );
            }
        }
        skews.push(SkewRun {
            name,
            left: left_n,
            right: right_n,
            runs,
        });
    }
    // The headline claim: at 1000:1 skew the gallop or blocked kernel
    // must beat the scalar merge on ns/candidate.
    if let Some(s) = skews.iter().find(|s| s.name == "skew_1000_1") {
        let ns_of = |n: &str| {
            s.runs
                .iter()
                .find(|r| r.name == n)
                .map(|r| r.ns_per_candidate)
        };
        let (scalar, gallop, blocked) = (
            ns_of("scalar").unwrap(),
            ns_of("gallop").unwrap(),
            ns_of("blocked").unwrap(),
        );
        if gallop.min(blocked) >= scalar {
            println!(
                "WARNING: neither gallop ({gallop:.2}) nor blocked ({blocked:.2}) beat scalar \
                 ({scalar:.2}) ns/candidate at 1000:1 skew"
            );
        }
    }
    (skews, auto_compares as f64 / auto_candidates as f64)
}

/// Keys decoded per varint-crack measurement pass.
const CRACK_KEYS: usize = 1 << 16;

/// Measurement of the SWAR varint cracker against the per-byte scalar
/// decode loop it replaced in the block paths.
struct CrackRun {
    scalar_ns_per_key: f64,
    crack_ns_per_key: f64,
}

/// Head-to-head of block key decoding: the per-byte scalar LEB128 loop
/// vs [`WireReader::take_varints`] (SWAR terminator find +
/// shift-and-mask lane fold) over the same mixed-width key column —
/// the ns/key proxy behind the SWAR block-decode claim.
fn compare_varint_crack() -> CrackRun {
    // The vertex-column profile of a massive-scale graph: scrambled
    // ids whose encoded widths (2–6 bytes) vary unpredictably key to
    // key — the regime where the per-byte loop pays a mispredicted
    // continuation branch per key while the cracker's terminator find
    // is branchless — plus a sprinkle of full-width 64-bit hashes
    // exercising the 9–10-byte scalar fallback inside the cracked
    // path.
    let values: Vec<u64> = (0..CRACK_KEYS as u64)
        .map(|i| {
            let h = hash64(i);
            if i % 32 == 0 {
                h
            } else {
                h >> (24 + (h >> 58) % 5 * 7)
            }
        })
        .collect();
    let mut col = Vec::new();
    for &v in &values {
        put_varint(&mut col, v);
    }
    // The reference: the checked per-byte loop `ColKeys::next_block`
    // used to run — `take_varint`'s pre-cracker body over a
    // `WireReader`, reproduced faithfully (bounds-checked byte reads,
    // overflow guards) so the "before" stays measurable after the
    // production path switched to the cracker.
    let scalar_pass = |col: &[u8]| -> u64 {
        let mut r = WireReader::new(col);
        let mut acc = 0u64;
        while !r.is_empty() {
            let mut value = 0u64;
            let mut shift = 0u32;
            loop {
                let byte = r.take_u8().expect("in-bounds varint byte");
                assert!(shift != 63 || byte <= 1, "varint overflow");
                value |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
                assert!(shift <= 63, "varint overflow");
            }
            acc = acc.wrapping_add(value);
        }
        acc
    };
    let crack_pass = |col: &[u8]| -> u64 {
        let mut r = WireReader::new(col);
        let mut block = [0u64; KEY_BLOCK_LEN];
        let mut acc = 0u64;
        let mut left = CRACK_KEYS;
        while left > 0 {
            let take = left.min(KEY_BLOCK_LEN);
            r.take_varints(&mut block[..take]).expect("crack decode");
            for &v in &block[..take] {
                acc = acc.wrapping_add(v);
            }
            left -= take;
        }
        acc
    };
    assert_eq!(
        scalar_pass(&col),
        crack_pass(&col),
        "decoders disagree on the key column"
    );
    const PASSES: usize = 64;
    let measure = |f: &dyn Fn(&[u8]) -> u64| -> f64 {
        let _warm = black_box(f(&col));
        let start = Instant::now();
        for _ in 0..PASSES {
            black_box(f(&col));
        }
        start.elapsed().as_nanos() as f64 / (PASSES * CRACK_KEYS) as f64
    };
    let run = CrackRun {
        scalar_ns_per_key: measure(&scalar_pass),
        crack_ns_per_key: measure(&crack_pass),
    };
    println!(
        "varint_crack/scalar_block_decode          {:>12.3} ns/key",
        run.scalar_ns_per_key
    );
    println!(
        "varint_crack/swar_cracker                 {:>12.3} ns/key  ({:+.1}%)",
        run.crack_ns_per_key,
        100.0 * (run.crack_ns_per_key / run.scalar_ns_per_key - 1.0)
    );
    if run.crack_ns_per_key >= run.scalar_ns_per_key {
        println!(
            "WARNING: the SWAR cracker ({:.3}) did not beat the scalar block decode ({:.3}) ns/key",
            run.crack_ns_per_key, run.scalar_ns_per_key
        );
    }
    run
}

/// Batches per parallel-dispatch measurement pass.
const PD_BATCHES: usize = 256;
/// Candidates per batch — hub scale, where batch parallelism pays.
const PD_CANDS: usize = 512;
/// Right-side (stored adjacency) length per batch.
const PD_RIGHT: usize = 16_384;
/// Timed passes over the full batch set per thread count.
const PD_PASSES: usize = 8;

/// Measurement of the multi-threaded batch dispatch.
struct ParallelDispatch {
    /// `(threads, ns_per_batch)` at 1, 2 and 4 threads.
    threads: Vec<(usize, f64)>,
    /// Merged compares/candidate of a 4-thread Push-Pull survey.
    par_compares_per_candidate: f64,
    /// Same survey, serial — must match the parallel value exactly.
    serial_compares_per_candidate: f64,
}

/// One rank's merged kernel counters plus the triangle count for the
/// instrumented R-MAT survey at the given thread setting.
fn survey_merged_counters(threads: Parallelism) -> (u64, u64, u64) {
    let edges = tripoll_gen::rmat_edges(&tripoll_gen::RmatConfig::graph500(10, 42));
    let list = EdgeList::from_vec(
        edges
            .into_iter()
            .map(|(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    let out = World::new(4).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g: DistGraph<(), ()> = build_dist_graph(comm, local, |_| (), Partition::Hashed);
        let _ = kernel_stats_take();
        let count = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let c2 = count.clone();
        survey_push_pull_with(
            comm,
            &g,
            SurveyConfig::default().with_threads(threads),
            move |_c, _tm| c2.set(c2.get() + 1),
        );
        let ks = kernel_stats_take();
        (
            comm.all_reduce_sum(ks.compares),
            comm.all_reduce_sum(ks.candidates),
            comm.all_reduce_sum(count.get()),
        )
    });
    assert!(out.iter().all(|&o| o == out[0]), "ranks disagree");
    out[0]
}

/// Scaling of the work-stealing batch dispatch: the same hub-scale
/// batch set (columnar candidate frames intersected against a stored
/// adjacency, the production `Task` shape) processed by dedicated
/// pools of 1, 2 and 4 threads, plus the end-to-end determinism
/// record: merged compares/candidate of a 4-thread survey vs its
/// serial twin (CI gates the parallel value at 0% drift).
fn compare_parallel_dispatch() -> ParallelDispatch {
    let right: Vec<(u64, OrderKey)> = (0..PD_RIGHT as u64)
        .map(|i| (2 * i, OrderKey::new(2 * i, 2 * i)))
        .collect();
    struct PdTask {
        frame: Vec<u8>,
        checksum: u64,
    }
    let step = 2 * (PD_RIGHT / PD_CANDS) as u64;
    let mut tasks: Vec<PdTask> = (0..PD_BATCHES as u64)
        .map(|b| {
            // Alternating hits and off-by-one misses, phase-shifted per
            // batch so frames are distinct.
            let keys: Vec<(u64, u64, u64)> = (0..PD_CANDS as u64)
                .map(|i| {
                    let v = i * step + ((i + b) % 2);
                    (v, v, i)
                })
                .collect();
            PdTask {
                frame: to_bytes(&ColBatch::<u64>(keys)),
                checksum: 0,
            }
        })
        .collect();
    let process = |t: &mut PdTask| {
        let mut r = WireReader::new(&t.frame);
        let ColCursor {
            mut keys,
            mut metas,
        }: ColCursor<'_, u64> = ColCursor::begin(&mut r).expect("frame");
        let mut acc = 0u64;
        intersect_col(
            IntersectKernel::Auto,
            &mut keys,
            &right,
            |e| e.1,
            |k, e| {
                // Production pattern: metadata decoded on match.
                acc = acc.wrapping_add(metas.get(k.idx)?).wrapping_add(e.0);
                Ok(())
            },
        )
        .expect("intersect");
        t.checksum = acc;
    };

    let mut threads = Vec::new();
    let mut reference: Option<u64> = None;
    for t in [1usize, 2, 4] {
        // A dedicated pool per thread count (the caller participates,
        // so `t` threads = `t - 1` workers), sidestepping the global
        // pool's host-dependent width.
        let pool = ThreadPool::new(t - 1);
        pool.run_mut(&mut tasks, |task| process(task)); // warm-up
        let checksum: u64 = tasks.iter().map(|task| task.checksum).sum();
        match reference {
            None => reference = Some(checksum),
            Some(r) => assert_eq!(r, checksum, "dispatch diverged at {t} threads"),
        }
        let start = Instant::now();
        for _ in 0..PD_PASSES {
            pool.run_mut(&mut tasks, |task| process(task));
        }
        let ns = start.elapsed().as_nanos() as f64 / (PD_PASSES * PD_BATCHES) as f64;
        println!("parallel_dispatch/threads_{t}                {ns:>10.1} ns/batch");
        threads.push((t, ns));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t1 = threads[0].1;
    for &(t, ns) in &threads[1..] {
        let speedup = t1 / ns;
        let target = if t == 2 { 1.7 } else { 3.0 };
        println!("parallel_dispatch/speedup_{t}                {speedup:>10.2} x");
        if speedup < target {
            println!(
                "WARNING: {t}-thread dispatch speedup {speedup:.2}x is below the {target}x \
                 target (host has {cores} core(s); scaling needs >= {t})"
            );
        }
    }
    // Reset the caller's thread-local tallies the dispatch runs above
    // accumulated before the gated survey measurement.
    let _ = kernel_stats_take();

    let serial = survey_merged_counters(Parallelism::Serial);
    let parallel = survey_merged_counters(Parallelism::Threads(4));
    assert_eq!(
        serial, parallel,
        "4-thread survey diverged from serial (compares, candidates, triangles)"
    );
    let cpc = |(compares, candidates, _): (u64, u64, u64)| compares as f64 / candidates as f64;
    println!(
        "parallel_dispatch/survey_compares_per_cand serial {:>8.4}  threads4 {:>8.4}",
        cpc(serial),
        cpc(parallel)
    );
    ParallelDispatch {
        threads,
        par_compares_per_candidate: cpc(parallel),
        serial_compares_per_candidate: cpc(serial),
    }
}

/// Node-aggregation scale: vertices whose candidate projection is
/// fanned out, destination ranks per fan-out (one remote node), and
/// candidates per projection — the §4.4 pull-delivery shape.
const NA_VERTS: usize = 256;
const NA_FANOUT: usize = 4;
const NA_CANDS: usize = 128;
/// Sends timed per overlap setting in the flush-handoff comparison.
const NA_SENDS: usize = 8192;

/// Measurement of the node-aggregation machinery: the pull fan-out's
/// wire bytes per delivered candidate with per-rank copies (rpn = 1)
/// vs multicast sections (rpn = 4), plus the overlapped-vs-inline
/// transport handoff timing.
struct NodeAggRun {
    flat_bytes_remote: u64,
    agg_bytes_remote: u64,
    flat_bytes_per_candidate: f64,
    agg_bytes_per_candidate: f64,
    records_multicast: u64,
    multicast_bytes_saved: u64,
    inline_ns_per_send: f64,
    overlap_ns_per_send: f64,
}

/// Emulates the §4.4 pull fan-out at the comm layer: rank 0 sends each
/// vertex's candidate projection to every rank of one remote node via
/// `send_to_many`, at rpn = 1 (per-rank payload copies) vs rpn = 4
/// (one multicast section per node). The gated metric is the rpn = 4
/// wire bytes per delivered candidate — deterministic, since every
/// byte is counted at send time. The overlapped-flush handoff is timed
/// as wall-clock context (not gated; on a single-core host the
/// transport worker cannot actually run in parallel).
fn compare_node_aggregation() -> NodeAggRun {
    let fan_out = |rpn: usize| {
        let config = CommConfig {
            ranks_per_node: rpn,
            overlap_flush: Some(false),
            ..Default::default()
        };
        World::new(8).with_config(config).run_with_stats(|comm| {
            let h = comm.register::<(u64, Vec<(u64, u64, u64)>), _>(|_c, _msg| {});
            if comm.rank() == 0 {
                for q in 0..NA_VERTS as u64 {
                    let cands: Vec<(u64, u64, u64)> = (0..NA_CANDS as u64)
                        .map(|i| (hash64(q * 131 + i), 4096 + i * 3, i % 7))
                        .collect();
                    comm.send_to_many(4..4 + NA_FANOUT, &h, &(q, cands));
                }
            }
            comm.barrier();
        })
    };
    let flat = fan_out(1);
    let agg = fan_out(4);
    let delivered = (NA_VERTS * NA_FANOUT) as u64;
    assert_eq!(flat.total_stats().handlers_run, delivered);
    assert_eq!(agg.total_stats().handlers_run, delivered);
    let per_cand = |bytes: u64| bytes as f64 / (delivered as usize * NA_CANDS) as f64;
    let (f0, a0) = (flat.stats[0], agg.stats[0]);
    let run = NodeAggRun {
        flat_bytes_remote: f0.bytes_remote,
        agg_bytes_remote: a0.bytes_remote,
        flat_bytes_per_candidate: per_cand(f0.bytes_remote),
        agg_bytes_per_candidate: per_cand(a0.bytes_remote),
        records_multicast: a0.records_multicast,
        multicast_bytes_saved: a0.multicast_bytes_saved,
        inline_ns_per_send: flush_handoff_ns(false),
        overlap_ns_per_send: flush_handoff_ns(true),
    };
    println!(
        "node_aggregation/pull_fanout_rpn1         {:>12.3} B/cand  {:>10} bytes",
        run.flat_bytes_per_candidate, run.flat_bytes_remote
    );
    println!(
        "node_aggregation/pull_fanout_rpn4         {:>12.3} B/cand  {:>10} bytes  {:>8} multicast records  {:>10} bytes saved",
        run.agg_bytes_per_candidate,
        run.agg_bytes_remote,
        run.records_multicast,
        run.multicast_bytes_saved
    );
    if run.agg_bytes_remote >= run.flat_bytes_remote {
        println!(
            "WARNING: multicast fan-out did not shrink the wire ({} vs {})",
            run.agg_bytes_remote, run.flat_bytes_remote
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "node_aggregation/flush_inline             {:>12.1} ns/send",
        run.inline_ns_per_send
    );
    println!(
        "node_aggregation/flush_overlapped         {:>12.1} ns/send  ({:+.1}%)",
        run.overlap_ns_per_send,
        100.0 * (run.overlap_ns_per_send / run.inline_ns_per_send - 1.0)
    );
    if run.overlap_ns_per_send >= run.inline_ns_per_send && cores < 4 {
        println!(
            "WARNING: overlapped flush did not beat inline on this {cores}-core host — \
             the transport worker needs a spare core to pipeline; treat as context, not signal"
        );
    }
    run
}

/// Times the encode-side cost of one `send` (including its share of
/// flush handoffs) with the transport stage on or off.
fn flush_handoff_ns(overlap: bool) -> f64 {
    let config = CommConfig {
        flush_threshold: Some(4096),
        ranks_per_node: 1,
        overlap_flush: Some(overlap),
    };
    let out = World::new(2).with_config(config).run(|comm| {
        let h = comm.register::<Vec<u64>, _>(|_c, _v| {});
        if comm.rank() == 0 {
            let payload = vec![u64::MAX; 64]; // ~644 B/record: flush every ~7 sends
            for _ in 0..NA_SENDS / 8 {
                comm.send(1, &h, &payload); // warm-up: prime buffers + pool
            }
            let start = Instant::now();
            for _ in 0..NA_SENDS {
                comm.send(1, &h, &payload);
            }
            let ns = start.elapsed().as_nanos() as f64 / NA_SENDS as f64;
            comm.barrier();
            ns
        } else {
            comm.barrier();
            0.0
        }
    });
    out[0]
}

/// Synthetic dry-run input: `verts` local vertices, each with `deg`
/// wedge targets spread over a hashed id space.
fn dry_run_adjacency(verts: usize, deg: usize) -> Vec<Vec<u64>> {
    (0..verts as u64)
        .map(|s| {
            (0..deg as u64)
                .map(|i| hash64(s * 131 + i) % (verts as u64 * 2))
                .collect()
        })
        .collect()
}

/// The retired dry-run bookkeeping: per-target hash maps for planned
/// counts and resume pointers (one heap vector per distinct target).
fn plan_hashed(adj: &[Vec<u64>]) -> (u64, usize) {
    let mut planned: FastMap<u64, u64> = FastMap::default();
    let mut resume: FastMap<u64, Vec<(u32, u32)>> = FastMap::default();
    for (slot, targets) in adj.iter().enumerate() {
        for (i, &q) in targets.iter().enumerate() {
            let suffix = targets.len() - i - 1;
            if suffix == 0 {
                break;
            }
            *planned.entry(q).or_insert(0) += suffix as u64;
            resume.entry(q).or_default().push((slot as u32, i as u32));
        }
    }
    (planned.values().sum(), resume.len())
}

/// The current dry-run bookkeeping: one sorted `(q, slot, idx)` vector;
/// planned counts derived from the contiguous runs.
fn plan_sorted(adj: &[Vec<u64>]) -> (u64, usize) {
    let mut entries: Vec<(u64, u32, u32)> = Vec::new();
    for (slot, targets) in adj.iter().enumerate() {
        for (i, &q) in targets.iter().enumerate() {
            if targets.len() - i - 1 == 0 {
                break;
            }
            entries.push((q, slot as u32, i as u32));
        }
    }
    entries.sort_unstable();
    let mut total = 0u64;
    let mut runs = 0usize;
    for run in entries.chunk_by(|a, b| a.0 == b.0) {
        runs += 1;
        total += run
            .iter()
            .map(|&(_, slot, i)| (adj[slot as usize].len() - i as usize - 1) as u64)
            .sum::<u64>();
    }
    (total, runs)
}

const DRY_RUN_VERTS: usize = 2048;
const DRY_RUN_DEG: usize = 16;

/// Old-vs-new comparison of the Push-Pull dry-run planning structures
/// (ROADMAP "dry-run maps" item; allocation counts are the gate-worthy
/// signal, wall time is context).
fn compare_dry_run_plans() -> (PathRun, PathRun) {
    let adj = dry_run_adjacency(DRY_RUN_VERTS, DRY_RUN_DEG);
    assert_eq!(
        plan_hashed(&adj),
        plan_sorted(&adj),
        "planning structures disagree"
    );
    type PlanFn = dyn Fn(&[Vec<u64>]) -> (u64, usize);
    let measure = |f: &PlanFn| {
        let _warm = black_box(f(&adj));
        let before_allocs = allocs_now();
        let start = Instant::now();
        let out = black_box(f(&adj));
        let ns = start.elapsed().as_nanos() as f64;
        PathRun {
            allocs: allocs_now() - before_allocs,
            ns,
            bytes: out.1, // distinct targets, for the report
        }
    };
    let old = measure(&plan_hashed);
    let new = measure(&plan_sorted);
    println!(
        "dry_run_plan/hashed_maps                  {:>12.1} ns  {:>8} allocs  {:>9} targets",
        old.ns, old.allocs, old.bytes
    );
    println!(
        "dry_run_plan/sorted_vec                   {:>12.1} ns  {:>8} allocs  {:>9} targets",
        new.ns, new.allocs, new.bytes
    );
    (old, new)
}

/// "Load once, serve many": cold ingest vs snapshot restart of the
/// resident service, plus the resident per-query dispatch cost against
/// the from-scratch build-and-survey path (same graph as the survey
/// section). `snapshot_bytes` is the deterministic, gate-worthy
/// signal; the timings are wall-clock context.
struct SnapshotRestartRun {
    cold_ingest_ns: f64,
    snapshot_load_ns: f64,
    snapshot_bytes: usize,
    resident_query_ns: f64,
    fresh_query_ns: f64,
}

fn compare_snapshot_restart() -> SnapshotRestartRun {
    let edges = tripoll_gen::rmat_edges(&tripoll_gen::RmatConfig::graph500(10, 42));
    let list = EdgeList::from_vec(
        edges
            .into_iter()
            .map(|(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();

    let start = Instant::now();
    let resident: ResidentGraph<(), ()> = ResidentGraph::build(&list, |_| (), Partition::Hashed);
    let cold_ingest_ns = start.elapsed().as_nanos() as f64;

    let bytes = resident.snapshot_bytes(4);
    let start = Instant::now();
    let restored =
        ResidentGraph::<(), ()>::from_snapshot_bytes(&bytes).expect("own snapshot loads");
    let snapshot_load_ns = start.elapsed().as_nanos() as f64;

    // Warm the per-world-size shard cache and the dry-run plan, then
    // time the steady-state resident query.
    let q = ResidentQuery::new(4);
    let warm = restored.triangle_count(&q);
    let start = Instant::now();
    let resident_count = restored.triangle_count(&q);
    let resident_query_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(warm, resident_count, "resident query must be stable");

    // The from-scratch path pays graph build + dry-run every query.
    let start = Instant::now();
    let out = World::new(4).run(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g: DistGraph<(), ()> = build_dist_graph(comm, local, |_| (), Partition::Hashed);
        tripoll_core::surveys::count::triangle_count(comm, &g, EngineMode::PushPull).0
    });
    let fresh_query_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(out[0], resident_count, "resident and fresh counts agree");

    let run = SnapshotRestartRun {
        cold_ingest_ns,
        snapshot_load_ns,
        snapshot_bytes: bytes.len(),
        resident_query_ns,
        fresh_query_ns,
    };
    println!(
        "snapshot_restart/cold_ingest              {:>12.1} ns",
        run.cold_ingest_ns
    );
    println!(
        "snapshot_restart/snapshot_load            {:>12.1} ns  {:>8} bytes",
        run.snapshot_load_ns, run.snapshot_bytes
    );
    println!(
        "snapshot_restart/resident_query           {:>12.1} ns  (fresh path {:>12.1} ns)",
        run.resident_query_ns, run.fresh_query_ns
    );
    run
}

/// One batch-size point of the incremental-ingest comparison.
struct IncrementalPoint {
    batch_pct: usize,
    batch_edges: usize,
    delta_triangles: u64,
    delta_bytes: u64,
    delta_candidates: u64,
    delta_survey_ns: f64,
    full_recount_ns: f64,
}

/// Streaming appends: after `ingest_batch` lands a 1% / 10% batch on
/// the fixed survey graph, how does surveying only the delta wedges
/// compare against recounting the whole graph? The delta survey's wire
/// bytes per kernel candidate (at the 1% point, where the delta
/// machinery's overheads would show first) is the deterministic,
/// gate-worthy signal; the delta-vs-recount timings are wall-clock
/// context.
struct IncrementalIngestRun {
    delta_bytes_per_candidate: f64,
    points: Vec<IncrementalPoint>,
}

fn compare_incremental_ingest() -> IncrementalIngestRun {
    let edges = tripoll_gen::rmat_edges(&tripoll_gen::RmatConfig::graph500(10, 42));
    let list = EdgeList::from_vec(
        edges
            .into_iter()
            .map(|(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    let all = list.as_slice();

    let mut points = Vec::new();
    for pct in [1usize, 10] {
        let cut = all.len() - all.len() * pct / 100;
        let resident: ResidentGraph<(), ()> = ResidentGraph::build(
            &EdgeList::from_vec(all[..cut].to_vec()),
            |_| (),
            Partition::Hashed,
        );
        let q = ResidentQuery::new(4);
        let before = resident.triangle_count(&q);
        // The batch tail may introduce vertices absent from the base
        // prefix, so admit them with the same (unit) metadata function.
        let delta = resident
            .ingest_batch_with(&all[cut..], |_| ())
            .expect("append of canonical edges succeeds");
        // Warm the post-ingest shard cache so both timings below
        // measure the survey, not the per-world-size rebuild.
        let after = resident.triangle_count(&q);

        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        let start = Instant::now();
        let outcomes = resident
            .survey_delta(&delta, &q, move |_c, _tm| {
                c2.fetch_add(1, Ordering::Relaxed);
            })
            .expect("freshest delta is never stale");
        let delta_survey_ns = start.elapsed().as_nanos() as f64;
        let delta_triangles = count.load(Ordering::Relaxed);
        assert_eq!(
            before + delta_triangles,
            after,
            "delta must complete the recount exactly"
        );
        let delta_bytes: u64 = outcomes
            .iter()
            .flat_map(|o| o.report.phases.iter())
            .map(|p| p.stats.bytes_remote + p.stats.bytes_local)
            .sum();
        let delta_candidates: u64 = outcomes.iter().map(|o| o.kernel.candidates).sum();

        let start = Instant::now();
        let full = resident.triangle_count(&q);
        let full_recount_ns = start.elapsed().as_nanos() as f64;
        assert_eq!(full, after, "warmed recount is stable");

        let p = IncrementalPoint {
            batch_pct: pct,
            batch_edges: all.len() - cut,
            delta_triangles,
            delta_bytes,
            delta_candidates,
            delta_survey_ns,
            full_recount_ns,
        };
        println!(
            "incremental_ingest/batch{:02}pct            {:>12.1} ns  (full recount {:>12.1} ns, {:>7} delta triangles)",
            p.batch_pct, p.delta_survey_ns, p.full_recount_ns, p.delta_triangles
        );
        points.push(p);
    }
    let p1 = &points[0];
    IncrementalIngestRun {
        delta_bytes_per_candidate: p1.delta_bytes as f64 / p1.delta_candidates.max(1) as f64,
        points,
    }
}

/// Instrumented end-to-end survey: exact communication counters plus
/// wall time for both engines on a deterministic R-MAT graph.
struct SurveyRun {
    mode: &'static str,
    nranks: usize,
    triangles: u64,
    wall_seconds: f64,
    stats: tripoll_ygm::stats::CommStats,
}

fn run_survey(mode: EngineMode, nranks: usize) -> SurveyRun {
    let edges = tripoll_gen::rmat_edges(&tripoll_gen::RmatConfig::graph500(10, 42));
    let list = EdgeList::from_vec(
        edges
            .into_iter()
            .map(|(u, v)| (u, v, ()))
            .collect::<Vec<_>>(),
    )
    .canonicalize();
    let start = Instant::now();
    let out = World::new(nranks).run_with_stats(|comm| {
        let local = list.stride_for_rank(comm.rank(), comm.nranks());
        let g: DistGraph<bool, ()> = build_dist_graph(comm, local, |_| false, Partition::Hashed);
        tripoll_core::surveys::count::triangle_count(comm, &g, mode).0
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    let triangles = out.results[0];
    assert!(out.results.iter().all(|&c| c == triangles));
    SurveyRun {
        mode: match mode {
            EngineMode::PushOnly => "push_only",
            EngineMode::PushPull => "push_pull",
        },
        nranks,
        triangles,
        wall_seconds,
        stats: out.total_stats(),
    }
}

fn json_escape_free(s: &str) -> &str {
    debug_assert!(!s.contains('"') && !s.contains('\\'));
    s
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    kernels: &[criterion::BenchResult],
    old: &PathRun,
    new: &PathRun,
    layout: &LayoutRun,
    dry_old: &PathRun,
    dry_new: &PathRun,
    kernel_skews: &[SkewRun],
    kernel_cpc: f64,
    crack: &CrackRun,
    pd: &ParallelDispatch,
    na: &NodeAggRun,
    snap: &SnapshotRestartRun,
    inc: &IncrementalIngestRun,
    surveys: &[SurveyRun],
) {
    let mut j = String::from("{\n");
    j.push_str("  \"schema\": \"tripoll-bench-micro/v10\",\n");

    j.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.2}, \"iterations\": {}}}{}\n",
            json_escape_free(&k.id),
            k.ns_per_iter,
            k.iterations,
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");

    let alloc_reduction = if old.allocs > 0 {
        100.0 * (1.0 - new.allocs as f64 / old.allocs as f64)
    } else {
        0.0
    };
    j.push_str(&format!(
        "  \"push_path\": {{\n    \"batches\": {PUSH_BATCHES},\n    \"candidates_per_batch\": {PUSH_CANDIDATES},\n    \"materialized\": {{\"allocs\": {}, \"ns_per_batch\": {:.1}, \"bytes\": {}}},\n    \"encode_once\": {{\"allocs\": {}, \"ns_per_batch\": {:.1}, \"bytes\": {}}},\n    \"alloc_reduction_pct\": {:.1}\n  }},\n",
        old.allocs,
        old.ns / PUSH_BATCHES as f64,
        old.bytes,
        new.allocs,
        new.ns / PUSH_BATCHES as f64,
        new.bytes,
        alloc_reduction
    ));

    j.push_str(&format!(
        "  \"batch_layout\": {{\n    \"batches\": {PUSH_BATCHES},\n    \"candidates_per_batch\": {PUSH_CANDIDATES},\n    \"columnar\": {{\"bytes\": {}, \"bytes_per_candidate\": {:.3}, \"encode_allocs\": {}, \"encode_ns_per_batch\": {:.1}, \"decode_allocs\": {}, \"decode_allocs_per_batch\": {:.4}, \"decode_ns_per_batch\": {:.1}, \"decode_scalar_walk_ns_per_batch\": {:.1}, \"decode_scalar_walk_allocs\": {}}}\n  }},\n",
        layout.bytes,
        layout.bytes as f64 / (PUSH_BATCHES * PUSH_CANDIDATES) as f64,
        layout.encode.allocs,
        layout.encode.ns / PUSH_BATCHES as f64,
        layout.decode.allocs,
        layout.decode.allocs as f64 / PUSH_BATCHES as f64,
        layout.decode.ns / PUSH_BATCHES as f64,
        layout.decode_scalar.ns / PUSH_BATCHES as f64,
        layout.decode_scalar.allocs,
    ));

    let dry_reduction = if dry_old.allocs > 0 {
        100.0 * (1.0 - dry_new.allocs as f64 / dry_old.allocs as f64)
    } else {
        0.0
    };
    j.push_str(&format!(
        "  \"dry_run_plan\": {{\n    \"vertices\": {DRY_RUN_VERTS},\n    \"targets_per_vertex\": {DRY_RUN_DEG},\n    \"hashed_maps\": {{\"allocs\": {}, \"ns\": {:.1}}},\n    \"sorted_vec\": {{\"allocs\": {}, \"ns\": {:.1}}},\n    \"alloc_reduction_pct\": {:.1}\n  }},\n",
        dry_old.allocs, dry_old.ns, dry_new.allocs, dry_new.ns, dry_reduction
    ));

    // The gated summary (Auto compares/candidate over all
    // skews) leads the section so the minimal scraper in bench_diff
    // reads it first. Key order matters to that scraper: the bare
    // `compares_per_candidate` must come before any key containing it
    // as a suffix would — the per-skew entries use the distinct
    // `kernel_compares_per_candidate` key for the same reason.
    j.push_str(&format!(
        "  \"intersect_kernel\": {{\n    \"compares_per_candidate\": {kernel_cpc:.4},\n    \"block_len\": {KEY_BLOCK_LEN},\n    \"iters\": {KERNEL_ITERS},\n    \"skews\": [\n"
    ));
    for (i, s) in kernel_skews.iter().enumerate() {
        let kernel_obj = |r: &KernelRun| {
            format!(
                "\"{}\": {{\"ns_per_candidate\": {:.3}, \"kernel_compares_per_candidate\": {:.4}, \"allocs\": {}, \"matches_per_iter\": {}}}",
                r.name, r.ns_per_candidate, r.compares_per_candidate, r.allocs, r.matches_per_iter
            )
        };
        let runs: Vec<String> = s.runs.iter().map(kernel_obj).collect();
        j.push_str(&format!(
            "      {{\"skew\": \"{}\", \"left\": {}, \"right\": {}, {}}}{}\n",
            s.name,
            s.left,
            s.right,
            runs.join(", "),
            if i + 1 < kernel_skews.len() { "," } else { "" }
        ));
    }
    j.push_str("    ]\n  },\n");

    j.push_str(&format!(
        "  \"varint_crack\": {{\n    \"keys\": {CRACK_KEYS},\n    \"scalar_ns_per_key\": {:.3},\n    \"crack_ns_per_key\": {:.3},\n    \"reduction_pct\": {:.1}\n  }},\n",
        crack.scalar_ns_per_key,
        crack.crack_ns_per_key,
        100.0 * (1.0 - crack.crack_ns_per_key / crack.scalar_ns_per_key),
    ));

    // The gated summary (`parallel_compares_per_candidate`, CI tolerance
    // 0%) leads the section; ns/batch and speedups are wall-clock
    // context, honest about the host's core count.
    let pd_t1 = pd.threads[0].1;
    let pd_threads: Vec<String> = pd
        .threads
        .iter()
        .map(|&(t, ns)| {
            format!(
                "{{\"threads\": {t}, \"ns_per_batch\": {ns:.1}, \"speedup\": {:.2}}}",
                pd_t1 / ns
            )
        })
        .collect();
    j.push_str(&format!(
        "  \"parallel_dispatch\": {{\n    \"parallel_compares_per_candidate\": {:.4},\n    \"serial_compares_per_candidate\": {:.4},\n    \"batches\": {PD_BATCHES},\n    \"candidates_per_batch\": {PD_CANDS},\n    \"right_len\": {PD_RIGHT},\n    \"host_cores\": {},\n    \"scaling\": [\n      {}\n    ]\n  }},\n",
        pd.par_compares_per_candidate,
        pd.serial_compares_per_candidate,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pd_threads.join(",\n      "),
    ));

    // The gated metric (`multicast_bytes_per_candidate`, the rpn = 4
    // pull fan-out's wire bytes per delivered candidate) leads the
    // section for the minimal scraper; the flush-handoff timings are
    // wall-clock context and deliberately not gated.
    j.push_str(&format!(
        "  \"node_aggregation\": {{\n    \"multicast_bytes_per_candidate\": {:.3},\n    \"flat_bytes_per_candidate\": {:.3},\n    \"verts\": {NA_VERTS},\n    \"fanout\": {NA_FANOUT},\n    \"candidates_per_vertex\": {NA_CANDS},\n    \"flat_bytes_remote\": {},\n    \"aggregated_bytes_remote\": {},\n    \"records_multicast\": {},\n    \"multicast_bytes_saved\": {},\n    \"bytes_reduction_pct\": {:.1},\n    \"flush_inline_ns_per_send\": {:.1},\n    \"flush_overlap_ns_per_send\": {:.1},\n    \"host_cores\": {}\n  }},\n",
        na.agg_bytes_per_candidate,
        na.flat_bytes_per_candidate,
        na.flat_bytes_remote,
        na.agg_bytes_remote,
        na.records_multicast,
        na.multicast_bytes_saved,
        100.0 * (1.0 - na.agg_bytes_remote as f64 / na.flat_bytes_remote as f64),
        na.inline_ns_per_send,
        na.overlap_ns_per_send,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));

    // The gated metric (`snapshot_bytes`, deterministic for a fixed
    // graph + format version) leads the section for the minimal
    // scraper; ingest/load/query timings are wall-clock context and
    // deliberately not gated.
    j.push_str(&format!(
        "  \"snapshot_restart\": {{\n    \"snapshot_bytes\": {},\n    \"cold_ingest_ns\": {:.1},\n    \"snapshot_load_ns\": {:.1},\n    \"restart_speedup\": {:.2},\n    \"resident_query_ns\": {:.1},\n    \"fresh_query_ns\": {:.1},\n    \"query_speedup\": {:.2}\n  }},\n",
        snap.snapshot_bytes,
        snap.cold_ingest_ns,
        snap.snapshot_load_ns,
        snap.cold_ingest_ns / snap.snapshot_load_ns,
        snap.resident_query_ns,
        snap.fresh_query_ns,
        snap.fresh_query_ns / snap.resident_query_ns,
    ));

    // The gated metric (`delta_bytes_per_candidate`, the 1% batch's
    // delta-survey wire bytes per kernel candidate — deterministic
    // record content for the fixed graph and batch) leads the section
    // for the minimal scraper; the delta-vs-recount timings are
    // wall-clock context and deliberately not gated.
    let inc_points: Vec<String> = inc
        .points
        .iter()
        .map(|p| {
            format!(
                "{{\"batch_pct\": {}, \"batch_edges\": {}, \"delta_triangles\": {}, \"delta_bytes\": {}, \"delta_candidates\": {}, \"delta_survey_ns\": {:.1}, \"full_recount_ns\": {:.1}, \"delta_speedup\": {:.2}}}",
                p.batch_pct,
                p.batch_edges,
                p.delta_triangles,
                p.delta_bytes,
                p.delta_candidates,
                p.delta_survey_ns,
                p.full_recount_ns,
                p.full_recount_ns / p.delta_survey_ns,
            )
        })
        .collect();
    j.push_str(&format!(
        "  \"incremental_ingest\": {{\n    \"delta_bytes_per_candidate\": {:.3},\n    \"points\": [\n      {}\n    ]\n  }},\n",
        inc.delta_bytes_per_candidate,
        inc_points.join(",\n      "),
    ));

    j.push_str("  \"surveys\": [\n");
    for (i, s) in surveys.iter().enumerate() {
        let st = &s.stats;
        let encode_savings = if st.bytes_remote + st.bytes_local > 0 {
            100.0 * (1.0 - st.bytes_encoded as f64 / (st.bytes_remote + st.bytes_local) as f64)
        } else {
            0.0
        };
        j.push_str(&format!(
            "    {{\"mode\": \"{}\", \"nranks\": {}, \"triangles\": {}, \"wall_seconds\": {:.4}, \"bytes_total\": {}, \"bytes_encoded\": {}, \"encode_savings_pct\": {:.1}, \"envelopes_total\": {}, \"records_total\": {}, \"records_encoded\": {}, \"pool_reuses\": {}, \"records_borrowed\": {}, \"bytes_decoded_in_place\": {}}}{}\n",
            s.mode,
            s.nranks,
            s.triangles,
            s.wall_seconds,
            st.bytes_remote + st.bytes_local,
            st.bytes_encoded,
            encode_savings,
            st.envelopes_remote + st.envelopes_local,
            st.records_remote + st.records_local,
            st.records_encoded,
            st.pool_reuses,
            st.records_borrowed,
            st.bytes_decoded_in_place,
            if i + 1 < surveys.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n}\n");

    // Default to the workspace root (benches run with the package dir as
    // CWD) so the trajectory file lands in one predictable place.
    let path = std::env::var("TRIPOLL_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_micro.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, &j).expect("write BENCH_micro.json");
    println!("\nwrote {path}");
}

criterion_group!(
    benches,
    bench_varint,
    bench_codec,
    bench_buffer,
    bench_merge_path,
    bench_hash
);

fn main() {
    let mut c = Criterion::new();
    benches(&mut c);

    println!();
    let (old, new) = compare_push_paths();
    let layout = measure_batch_layout();
    let (dry_old, dry_new) = compare_dry_run_plans();
    let (kernel_skews, kernel_cpc) = compare_intersect_kernels();
    let crack = compare_varint_crack();
    let pd = compare_parallel_dispatch();
    let na = compare_node_aggregation();
    let snap = compare_snapshot_restart();
    let inc = compare_incremental_ingest();

    let mut surveys = Vec::new();
    for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
        for nranks in [1, 4] {
            let s = run_survey(mode, nranks);
            println!(
                "survey/{}/ranks{}                    {:>9} triangles  {:>10} bytes  {:>6} envelopes  {:.3}s",
                s.mode,
                s.nranks,
                s.triangles,
                s.stats.bytes_remote + s.stats.bytes_local,
                s.stats.envelopes_remote + s.stats.envelopes_local,
                s.wall_seconds
            );
            surveys.push(s);
        }
    }
    // Counts must agree across engines and rank counts.
    let t0 = surveys[0].triangles;
    assert!(surveys.iter().all(|s| s.triangles == t0), "count mismatch");

    write_json(
        c.results(),
        &old,
        &new,
        &layout,
        &dry_old,
        &dry_new,
        &kernel_skews,
        kernel_cpc,
        &crack,
        &pd,
        &na,
        &snap,
        &inc,
        &surveys,
    );
}
