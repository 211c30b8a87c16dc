//! Wall-clock context for the design choices below, printed to
//! stdout:
//!
//! * `intersect_kernel` — ns and key compares per candidate of every
//!   intersection kernel over a columnar frame at four degree skews
//!   (where the `Auto` boundary should sit);
//! * `pull_probe` — one pull delivery's shape: a 100-key pulled list
//!   serving 35 resume suffixes, merged per suffix under `Auto` against
//!   indexed once and probed per suffix (what the pull handler runs);
//!   then the pull shapes of `reddit_stream` and `rmat_pull`, hits at
//!   random positions, indexed and probed. The `100x35` row reads low
//!   against them (about 2–3 ns per candidate, the shapes 6–9): its
//!   one delivery repeats, and its hits follow a fixed three-in-five
//!   pattern, so the branch predictor learns the probe loop's exits.
//!   The shape rows, over 512 distinct deliveries, are the ones that
//!   chose the table's sparseness;
//! * `push_decode` — one apex's nested wedge-batch frames, every key
//!   decoded fresh (what the pull handler runs on each delivery)
//!   against served through a [`FrameDecoder`] (what the push handler
//!   runs);
//! * `plan` — the Push-Pull dry run's [`ResumePlan`] on a
//!   `wdc_fqdn`-shaped stream: building it from the pointers (ns per
//!   pointer) and finding one pull delivery's pointers (ns per lookup);
//! * `gen` — the load layer: ns per raw comment of the `reddit_stream`
//!   generator and ns per edge record of the `rmat_pull` one, at the
//!   benchmark's shapes and seed 42;
//! * `build` — the DODGr build's local grouping (one radix sort per
//!   arrival bucket): ns per input record of a 1-rank build of the
//!   `web_push` and `reddit_stream` canonical edges at seed 42, and
//!   `canonicalize/reddit_stream`, ns per raw comment of the first-
//!   comment-wins canonicalization that precedes it;
//! * `incremental_ingest` — a delta survey against a full recount after
//!   a 1 % and a 10 % batch on scale-15 R-MAT and 2 ranks, each timed
//!   as the first query after its ingest (whether the delta needs a
//!   pull side);
//! * `sink/record` — a [`SurveyDeltaSink`] fed the `reddit_stream`
//!   resident query's triangle samples, ns per triangle from one thread
//!   and from two threads recording one rank's triangles each (what
//!   the query's callbacks pay), then the `take` that merges them.
//!
//! Nothing here is a floor. The deterministic counts these sections
//! once recorded are exact assertions in the tier-1 tests:
//! `tests/zero_alloc.rs`, `tests/kernels.rs`, `tests/resident.rs` and
//! `tests/incremental.rs`.
//!
//! Nor does it decide a kernel change: on a 2-vCPU host the
//! `intersect_kernel` ns per candidate swung 1.8–2× between identical
//! back-to-back runs. Paired end-to-end runs of the `benchmark/`
//! harness decide kernel changes; the compares printed here are exact.
//!
//! ```text
//! cargo bench -p tripoll-core --bench micro
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tripoll_core::{
    decode_key_column, intersect_indices, kernel_stats_take, merge_path, FrameDecoder,
    IntersectKernel, KeyIndex, ResidentGraph, ResidentQuery, ResumePlan, SurveyDeltaSink,
    TriangleSample,
};
use tripoll_graph::{build_dist_graph, EdgeList, OrderKey, Partition};
use tripoll_ygm::hash::hash64;
use tripoll_ygm::wire::{to_bytes, ColBatch, ColCursor, ColSuffixes, Wire, WireEncode, WireReader};
use tripoll_ygm::World;

/// Passes per (skew, kernel) measurement.
const KERNEL_ITERS: usize = 64;

/// Intersects one columnar frame of `left` against `right` under
/// `kernel` as production does: the key columns are decoded whole into
/// the flat key column `cands`, reused across calls, then intersected
/// in index form, and metadata is decoded on match; returns a checksum
/// and the match count.
fn intersect_frame(
    kernel: IntersectKernel,
    frame: &[u8],
    right: &[(u64, OrderKey)],
    cands: &mut Vec<OrderKey>,
) -> (u64, u64) {
    let mut r = WireReader::new(frame);
    let ColCursor { keys, mut metas }: ColCursor<'_, u64> =
        ColCursor::begin(&mut r).expect("frame");
    cands.clear();
    for k in keys {
        let k = k.expect("key columns");
        cands.push(OrderKey::new(k.v, k.degree));
    }
    let (mut acc, mut matches) = (0u64, 0u64);
    intersect_indices(
        kernel,
        cands,
        right,
        |&k| k,
        |e| e.1,
        |i, j| {
            acc = acc
                .wrapping_add(metas.get(i).expect("meta"))
                .wrapping_add(right[j].0);
            matches += 1;
        },
    );
    (acc, matches)
}

/// Every kernel over a columnar frame (keys decoded off the wire, right
/// side in storage) at four degree skews: balanced, 10:1, 1000:1 and
/// its reverse, a long frame against a short adjacency. Both receive
/// handlers decode a frame's keys before intersecting, so `Auto`
/// resolves every shape by the one symmetric rule.
fn compare_intersect_kernels() {
    let mut cands = Vec::new();
    for (name, left_n, right_n) in [
        ("balanced", 4096usize, 4096usize),
        ("skew_10_1", 512, 5120),
        ("skew_1000_1", 64, 64_000),
        ("skew_1_1000", 64_000, 64),
    ] {
        // The denser side holds every even value; the sparser side
        // spreads across that range, alternating hits (even values) and
        // off-by-one misses (odd values). Degree = value.
        let (dense_n, sparse_n) = (left_n.max(right_n), left_n.min(right_n));
        let dense: Vec<u64> = (0..dense_n as u64).map(|i| 2 * i).collect();
        let step = 2 * (dense_n / sparse_n) as u64;
        let sparse: Vec<u64> = (0..sparse_n as u64).map(|i| i * step + (i % 2)).collect();
        let (left_vals, right_vals) = if right_n >= left_n {
            (sparse, dense)
        } else {
            (dense, sparse)
        };
        let key = |v: u64| (v, OrderKey::new(v, v));
        let right: Vec<(u64, OrderKey)> = right_vals.iter().map(|&v| key(v)).collect();
        let left: Vec<(u64, OrderKey)> = left_vals.iter().map(|&v| key(v)).collect();
        let frame = to_bytes(&ColBatch::<u64>(
            left_vals
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, v, i as u64))
                .collect(),
        ));
        let mut expected = 0u64;
        merge_path(&left, &right, |l| l.1, |r| r.1, |_, _| expected += 1);

        for (kname, kernel) in [
            ("scalar", IntersectKernel::MergeScalar),
            ("gallop", IntersectKernel::Gallop),
            ("merge", IntersectKernel::Merge),
            ("auto", IntersectKernel::Auto),
        ] {
            let (_, warm_matches) = intersect_frame(kernel, &frame, &right, &mut cands);
            assert_eq!(warm_matches, expected, "kernel {kname} disagrees at {name}");
            let _ = kernel_stats_take();
            let mut acc = 0u64;
            let start = Instant::now();
            for _ in 0..KERNEL_ITERS {
                acc = acc.wrapping_add(intersect_frame(kernel, &frame, &right, &mut cands).0);
            }
            let ns = start.elapsed().as_nanos() as f64;
            std::hint::black_box(acc);
            let candidates = (left_n * KERNEL_ITERS) as f64;
            println!(
                "intersect_kernel/{name:<12}/{kname:<8} {:>8.2} ns/cand  {:>8.2} compares/cand  {:>6} matches",
                ns / candidates,
                kernel_stats_take().compares as f64 / candidates,
                expected
            );
        }
    }
}

/// Passes per pull-probe measurement.
const PULL_ITERS: usize = 4096;

/// One pull delivery as the pull handler sees it: a 100-key decoded
/// `Adjm+(q)` and 35 resume suffixes of a 60-key `Adjm+(p)`, three in
/// five of whose keys are pulled keys (the match rate of an R-MAT
/// survey's pull phase). The merge intersects each suffix against the
/// pulled column under `Auto`; the probe indexes the column once per
/// delivery and probes each suffix into it.
fn compare_pull_probe() {
    let pulled: Vec<OrderKey> = (0..100u64)
        .map(|i| OrderKey::new(hash64(i), 64 + 2 * i))
        .collect();
    // 60 keys: pulled keys at positions 0, 1, 2 of every 5, near misses
    // (one degree up) at 3 and 4.
    let puller: Vec<OrderKey> = (0..60u64)
        .map(|j| {
            let k = pulled[j as usize];
            if j % 5 < 3 {
                k
            } else {
                OrderKey::new(!j, k.degree + 1)
            }
        })
        .collect();
    let suffixes: Vec<&[OrderKey]> = (0..35).map(|s| &puller[s..]).collect();
    let candidates: usize = suffixes.iter().map(|s| s.len()).sum();
    let mut index = KeyIndex::new();
    for name in ["merge", "probe"] {
        let serve = |index: &mut KeyIndex| -> u64 {
            let mut acc = 0u64;
            if name == "probe" {
                index.build(&pulled).expect("short frame");
                for s in &suffixes {
                    index.probe(s, |&k| k, |a, i| acc += (a ^ i) as u64);
                }
            } else {
                for s in &suffixes {
                    intersect_indices(
                        IntersectKernel::Auto,
                        s,
                        &pulled,
                        |&k| k,
                        |&k| k,
                        |a, i| acc += (a ^ i) as u64,
                    );
                }
            }
            acc
        };
        let warm = serve(&mut index);
        let _ = kernel_stats_take();
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..PULL_ITERS {
            acc = acc.wrapping_add(serve(&mut index));
        }
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(
            acc,
            warm.wrapping_mul(PULL_ITERS as u64),
            "{name} is deterministic"
        );
        let s = kernel_stats_take();
        let per = (candidates * PULL_ITERS) as f64;
        println!(
            "pull_probe/100x35/{name:<8} {:>8.2} ns/cand  {:>8.2} compares/cand  {:>6} matches",
            ns / per,
            s.compares as f64 / per,
            s.matches / PULL_ITERS as u64
        );
    }
}

/// Distinct deliveries per pull-shape measurement: enough that no hit
/// pattern repeats within a pass.
const SHAPE_DELIVERIES: usize = 512;

/// Candidates probed per pull-shape measurement, over repeated passes.
const SHAPE_CANDIDATES: usize = 4 << 20;

/// One workload's pull shape, as the pull handler serves it: each of
/// [`SHAPE_DELIVERIES`] deliveries is a pulled list of `keys / 2` to
/// `3 * keys / 2` keys, indexed once, and `suffixes` resume suffixes
/// probed into it. A suffix holds `cands / 2` to `3 * cands / 2`
/// candidates, in `<+` order, each a pulled key with probability
/// `hit_pct` % and a near miss (one degree up) otherwise, so hits fall
/// at random positions. Times the build and the probes together, per
/// candidate.
fn pull_shape(name: &str, keys: usize, suffixes: usize, cands: usize, hit_pct: u64) {
    let mut word = 0u64;
    let mut rand = |below: usize| -> usize {
        word += 1;
        (hash64(word) % below as u64) as usize
    };
    let deliveries: Vec<(Vec<OrderKey>, Vec<Vec<OrderKey>>)> = (0..SHAPE_DELIVERIES)
        .map(|d| {
            let n = keys / 2 + rand(keys + 1);
            let pulled: Vec<OrderKey> = (0..n as u64)
                .map(|i| OrderKey::new(hash64((d as u64) << 32 | i), 64 + 2 * i))
                .collect();
            let suffixes = (0..suffixes)
                .map(|_| {
                    let mut suffix: Vec<OrderKey> = (0..cands / 2 + rand(cands + 1))
                        .map(|j| {
                            let k = pulled[rand(n)];
                            if (rand(100) as u64) < hit_pct {
                                k
                            } else {
                                OrderKey::new(!(j as u64), k.degree + 1)
                            }
                        })
                        .collect();
                    suffix.sort_unstable();
                    suffix.dedup();
                    suffix
                })
                .collect();
            (pulled, suffixes)
        })
        .collect();
    let candidates: usize = deliveries.iter().flat_map(|(_, s)| s).map(Vec::len).sum();
    let passes = SHAPE_CANDIDATES.div_ceil(candidates);
    let mut index = KeyIndex::new();
    let mut serve = || -> u64 {
        let mut acc = 0u64;
        for (pulled, suffixes) in &deliveries {
            index.build(pulled).expect("short frame");
            for s in suffixes {
                index.probe(s, |&k| k, |a, i| acc += (a ^ i) as u64);
            }
        }
        acc
    };
    let warm = serve();
    let _ = kernel_stats_take();
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..passes {
        acc = acc.wrapping_add(serve());
    }
    let ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        acc,
        warm.wrapping_mul(passes as u64),
        "{name} is deterministic"
    );
    let s = kernel_stats_take();
    let per = (candidates * passes) as f64;
    println!(
        "pull_probe/{name:<15} {:>8.2} ns/cand  {:>8.2} compares/cand  {:>5.1} % hits  ({keys}-key lists, {suffixes} suffixes of {cands})",
        ns / per,
        s.compares as f64 / per,
        100.0 * s.matches as f64 / per,
    );
}

/// The pull shapes of the two Push-Pull workloads whose pull phase is
/// most of their survey, per rank at seed 42: `reddit_stream`'s short
/// lists and rare hits, `rmat_pull`'s longer lists and frequent hits.
fn compare_pull_shapes() {
    pull_shape("reddit_stream", 11, 8, 6, 10);
    pull_shape("rmat_pull", 53, 36, 25, 60);
}

/// Passes per push-decode measurement.
const DECODE_ITERS: usize = 512;

/// One apex's pushes as its target ranks receive them: the 64 nested
/// suffixes of a 64-key `Adjm+(p)` (hashed ids, degrees in the
/// thousands), in the order the apex ships them. `fresh` decodes every
/// key of every frame with [`decode_key_column`] (what each frame paid
/// before a [`FrameDecoder`] served nested frames from the one before,
/// and what each pull delivery pays); `decoder` decodes the first frame
/// and serves the other 63 from its key column.
fn compare_push_decode() {
    let list: Vec<(u64, u64)> = (0..64u64).map(|i| (hash64(i), 4096 + 3 * i)).collect();
    let mut cols = ColSuffixes::new();
    cols.fill(&list, |e| e.0, |e| e.1, |e, buf| e.0.encode_wire(buf));
    let frames: Vec<Vec<u8>> = (0..list.len())
        .map(|j| {
            let mut frame = Vec::new();
            cols.suffix(j).encode_wire(&mut frame);
            frame
        })
        .collect();
    let keys: usize = (1..=list.len()).sum();
    let (mut decoder, mut out) = (FrameDecoder::new(), Vec::new());
    for name in ["fresh", "decoder"] {
        let mut serve = || -> u64 {
            let mut acc = 0u64;
            for frame in &frames {
                let cursor = ColCursor::<u64>::begin(&mut WireReader::new(frame)).expect("frame");
                let cands = if name == "fresh" {
                    decode_key_column(cursor.keys, &mut out).expect("key columns");
                    &out[..]
                } else {
                    decoder.decode(cursor.keys).expect("key columns")
                };
                acc = acc.wrapping_add(cands[0].tie);
            }
            acc
        };
        let warm = serve();
        let start = Instant::now();
        let mut acc = 0u64;
        for _ in 0..DECODE_ITERS {
            acc = acc.wrapping_add(serve());
        }
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(acc, warm.wrapping_mul(DECODE_ITERS as u64), "{name}");
        println!(
            "push_decode/nested/{name:<8} {:>8.2} ns/key   {:>6} keys in {} frames",
            ns / (keys * DECODE_ITERS) as f64,
            keys,
            frames.len()
        );
    }
}

/// Passes per resume-plan measurement.
const PLAN_ITERS: usize = 32;

/// One rank's dry run on `wdc_fqdn`'s scale: about 77 k resume
/// pointers over about 20 k targets, pushed vertex-major (one to six
/// per vertex slot, targets uniform over 20 000 page ids below 2^18).
/// `build` groups a fresh copy of the stream; `get` looks up every
/// planned target once, in a scattered order, as pull deliveries
/// arrive.
fn compare_resume_plan() {
    const POINTERS: usize = 77_000;
    let ids: Vec<u64> = (0..20_000u64).map(|t| t * 13).collect();
    let mut stream = Vec::with_capacity(POINTERS);
    for slot in 0u32.. {
        for i in 0..1 + hash64(slot as u64) % 6 {
            let t = hash64((slot as u64) << 8 | i) % ids.len() as u64;
            stream.push((ids[t as usize], slot, i as u32));
        }
        if stream.len() >= POINTERS {
            break;
        }
    }
    let mut plan = ResumePlan::default();
    let mut build_ns = 0.0;
    for _ in 0..PLAN_ITERS {
        let staged = stream.clone();
        let start = Instant::now();
        let built = ResumePlan::from_pointers(staged);
        build_ns += start.elapsed().as_nanos() as f64;
        plan = built;
    }
    let mut order: Vec<u64> = plan.runs().map(|(q, _)| q).collect();
    order.sort_unstable_by_key(|&q| hash64(q));
    let start = Instant::now();
    let mut found = 0usize;
    for _ in 0..PLAN_ITERS {
        for &q in &order {
            found += std::hint::black_box(plan.get(q)).len();
        }
    }
    let get_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(found, stream.len() * PLAN_ITERS, "every pointer is found");
    println!(
        "plan/build {:>7.2} ns/pointer  {:>6} pointers",
        build_ns / (stream.len() * PLAN_ITERS) as f64,
        stream.len()
    );
    println!(
        "plan/get  {:>8.2} ns/lookup   {:>6} targets",
        get_ns / (order.len() * PLAN_ITERS) as f64,
        order.len()
    );
}

/// Streaming appends: after a 1 % / 10 % batch lands on a scale-15
/// R-MAT graph, surveying only the delta wedges against recounting the
/// whole graph, each on 2 ranks over its own freshly ingested copy: no
/// query has sharded the new storage or cached a Push-Pull plan for
/// it, as for the first query after an ingest.
fn compare_incremental_ingest() {
    let edges = tripoll_gen::rmat_edges(&tripoll_gen::RmatConfig::graph500(15, 42));
    let list =
        EdgeList::from_vec(edges.into_iter().map(|(u, v)| (u, v, ())).collect()).canonicalize();
    let all = list.as_slice();
    let q = ResidentQuery::new(2);

    for pct in [1usize, 10] {
        let cut = all.len() - all.len() * pct / 100;
        let ingest = |resident: &ResidentGraph<(), ()>| {
            resident
                .ingest_batch_with(&all[cut..], |_| ())
                .expect("append of canonical edges succeeds")
        };
        let build = || {
            ResidentGraph::build(
                &EdgeList::from_vec(all[..cut].to_vec()),
                |_| (),
                Partition::Hashed,
            )
        };

        let resident = build();
        let before = resident.triangle_count(&q);
        let delta = ingest(&resident);
        let count = Arc::new(AtomicU64::new(0));
        let c2 = count.clone();
        let start = Instant::now();
        resident
            .survey_delta(&delta, &q, move |_c, _tm| {
                c2.fetch_add(1, Ordering::Relaxed);
            })
            .expect("freshest delta is never stale");
        let delta_ns = start.elapsed().as_nanos() as f64;
        let delta_triangles = count.load(Ordering::Relaxed);
        drop(resident);

        let resident = build();
        ingest(&resident);
        let start = Instant::now();
        let full = resident.triangle_count(&q);
        let full_ns = start.elapsed().as_nanos() as f64;
        assert_eq!(
            before + delta_triangles,
            full,
            "delta must complete the recount"
        );
        println!(
            "incremental_ingest/batch{pct:02}pct            {delta_ns:>12.1} ns  (full recount {full_ns:>12.1} ns, {:.2}x, {delta_triangles:>7} delta triangles)",
            full_ns / delta_ns
        );
    }
}

/// The `reddit_stream` workload's comment stream at seed 42.
fn reddit_stream_config() -> tripoll_gen::RedditConfig {
    tripoll_gen::RedditConfig {
        users: 20_000,
        comments: 240_000,
        seed: 42,
        ..tripoll_gen::RedditConfig::default()
    }
}

/// Passes per `gen/*` row.
const GEN_ITERS: usize = 5;

/// The load layer at the benchmark's shapes: `reddit_stream`'s raw
/// comment stream and `rmat_pull`'s edge records, both at seed 42.
fn compare_generators() {
    let reddit = reddit_stream_config();
    let rmat = tripoll_gen::RmatConfig::graph500(13, hash64(42));
    let (mut reddit_ns, mut reddit_records) = (0.0, 0);
    let (mut rmat_ns, mut rmat_records) = (0.0, 0);
    for _ in 0..GEN_ITERS {
        let start = Instant::now();
        reddit_records += std::hint::black_box(tripoll_gen::reddit_comments(&reddit)).len();
        reddit_ns += start.elapsed().as_nanos() as f64;
        let start = Instant::now();
        rmat_records += std::hint::black_box(tripoll_gen::rmat_edges(&rmat)).len();
        rmat_ns += start.elapsed().as_nanos() as f64;
    }
    println!(
        "gen/reddit {:>8.2} ns/comment  {:>7} comments",
        reddit_ns / reddit_records as f64,
        reddit_records / GEN_ITERS
    );
    println!(
        "gen/rmat   {:>8.2} ns/edge     {:>7} edge records",
        rmat_ns / rmat_records as f64,
        rmat_records / GEN_ITERS
    );
}

/// Passes per `build/*` and `canonicalize/*` row.
const BUILD_ITERS: usize = 5;

/// The `web_push` workload's raw edge records at seed 42.
fn web_push_raw() -> Vec<(u64, u64, ())> {
    let v = 24_000;
    let web = tripoll_gen::web_graph(&tripoll_gen::WebGraphConfig {
        domains: v / 4,
        pages_per_domain_mean: 2,
        edges: 25 * v / 2,
        intra_fraction: 0.4,
        popularity_power: 1.6,
        seed: 42,
    });
    web.edges.iter().map(|&(u, v)| (u, v, ())).collect()
}

/// ns per input record of a 1-rank `build_dist_graph` over `edges`.
fn time_build<VM, EM>(name: &str, edges: &[(u64, u64, EM)], vm: impl Fn(u64) -> VM + Sync)
where
    VM: Clone + 'static,
    EM: Wire + Clone + Send + Sync + 'static,
{
    let mut ns = 0.0;
    for _ in 0..BUILD_ITERS {
        ns += World::new(1).run(|comm| {
            let local = edges.to_vec();
            let start = Instant::now();
            let g = build_dist_graph(comm, local, &vm, Partition::Hashed);
            let ns = start.elapsed().as_nanos() as f64;
            std::hint::black_box(g.shard().len());
            ns
        })[0];
    }
    println!(
        "build/{name:<14} {:>7.2} ns/record  {:>7} input records",
        ns / (edges.len() * BUILD_ITERS) as f64,
        edges.len()
    );
}

/// The DODGr build's local grouping at the benchmark shapes: a 1-rank
/// build of `web_push`'s and of `reddit_stream`'s canonical edges, in
/// the arrival order the benchmark feeds them, and the canonicalization
/// of `reddit_stream`'s raw comments (first comment per edge kept).
fn compare_build() {
    let mut web = EdgeList::from_vec(web_push_raw()).canonicalize().into_vec();
    web.sort_by_key(|e| {
        (
            hash64(e.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ e.1),
            e.0,
            e.1,
        )
    });
    time_build("web_push", &web, |_| false);

    let raw = tripoll_gen::reddit_comments(&reddit_stream_config());
    let mut canon_ns = 0.0;
    let mut reddit = Vec::new();
    for _ in 0..BUILD_ITERS {
        let list = EdgeList::from_vec(raw.clone());
        let start = Instant::now();
        reddit = list.canonicalize_by(|&t| t).into_vec();
        canon_ns += start.elapsed().as_nanos() as f64;
    }
    reddit.sort_by_key(|e| (e.2, e.0, e.1));
    time_build("reddit_stream", &reddit, |v| hash64(v) % 1000 + 1);
    println!(
        "canonicalize/reddit_stream {:>7.2} ns/record  {:>7} raw records",
        canon_ns / (raw.len() * BUILD_ITERS) as f64,
        raw.len()
    );
}

/// Passes per `sink/record` row.
const SINK_ITERS: usize = 16;

/// The triangle samples of the `reddit_stream` workload's resident
/// query, per rank of a 2-rank world, as its callback builds them:
/// per-author weights for degrees, first-comment timestamps on edges.
fn reddit_samples() -> Vec<Vec<TriangleSample>> {
    let raw = tripoll_gen::reddit_comments(&reddit_stream_config());
    let list = EdgeList::from_vec(raw).canonicalize_by(|&t| t);
    let resident: ResidentGraph<u64, u64> =
        ResidentGraph::build(&list, |v| hash64(v) % 1000 + 1, Partition::Hashed);
    let per_rank = Arc::new([Mutex::new(Vec::new()), Mutex::new(Vec::new())]);
    let sink = per_rank.clone();
    resident.survey(&ResidentQuery::new(2), move |c, tm| {
        let sample = TriangleSample {
            p: tm.p,
            q: tm.q,
            r: tm.r,
            degree_p: *tm.meta_p,
            degree_q: *tm.meta_q,
            degree_r: *tm.meta_r,
            t_pq: *tm.meta_pq,
            t_pr: *tm.meta_pr,
            t_qr: *tm.meta_qr,
        };
        sink[c.rank()].lock().expect("rank panicked").push(sample);
    });
    per_rank
        .iter()
        .map(|m| std::mem::take(&mut *m.lock().expect("rank panicked")))
        .collect()
}

/// One fresh sink per pass, fed from fresh threads as a query's ranks
/// feed it: all samples from one thread, then each rank's from its own.
fn compare_sink_record() {
    let per_rank = reddit_samples();
    let all = per_rank.concat();
    let total = all.len();
    for parts in [vec![&all[..]], per_rank.iter().map(Vec::as_slice).collect()] {
        let (mut record_ns, mut take_ns) = (0.0, 0.0);
        for _ in 0..SINK_ITERS {
            let sink = SurveyDeltaSink::new();
            let start = Instant::now();
            std::thread::scope(|scope| {
                for &part in &parts {
                    let sink = &sink;
                    scope.spawn(move || part.iter().for_each(|&s| sink.record(s)));
                }
            });
            record_ns += start.elapsed().as_nanos() as f64;
            let start = Instant::now();
            let delta = std::hint::black_box(sink.take());
            take_ns += start.elapsed().as_nanos() as f64;
            assert_eq!(delta.count(), total as u64, "every sample is folded");
        }
        let per = (total * SINK_ITERS) as f64;
        println!(
            "sink/record/{}thread   {:>7.2} ns/triangle  (take {:>5.2} ns/triangle, {total} triangles)",
            parts.len(),
            record_ns / per,
            take_ns / per
        );
    }
}

fn main() {
    compare_intersect_kernels();
    compare_pull_probe();
    compare_pull_shapes();
    compare_push_decode();
    compare_resume_plan();
    compare_generators();
    compare_build();
    compare_incremental_ingest();
    compare_sink_record();
}
