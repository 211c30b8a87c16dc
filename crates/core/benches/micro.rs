//! Wall-clock context for two open design questions, printed to
//! stdout:
//!
//! * `intersect_kernel` — ns and key compares per candidate of every
//!   intersection kernel over a columnar frame at four degree skews
//!   (where the `Auto` boundary should sit);
//! * `incremental_ingest` — a delta survey against a full recount after
//!   a 1 % and a 10 % batch (whether the delta needs a pull side).
//!
//! Nothing here is a floor. The deterministic counts these sections
//! once recorded are exact assertions in the tier-1 tests:
//! `tests/zero_alloc.rs`, `tests/kernels.rs`, `tests/resident.rs` and
//! `tests/incremental.rs`.
//!
//! ```text
//! cargo bench -p tripoll-core --bench micro
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tripoll_core::{
    intersect_col, kernel_stats_take, merge_path, IntersectKernel, ResidentGraph, ResidentQuery,
};
use tripoll_graph::{EdgeList, OrderKey, Partition};
use tripoll_ygm::wire::{to_bytes, ColBatch, ColCursor, WireReader};

/// Passes per (skew, kernel) measurement.
const KERNEL_ITERS: usize = 64;

/// Intersects one columnar frame of `left` against `right` under
/// `kernel`, decoding metadata on match as production does; returns a
/// checksum and the match count.
fn intersect_frame(kernel: IntersectKernel, frame: &[u8], right: &[(u64, OrderKey)]) -> (u64, u64) {
    let mut r = WireReader::new(frame);
    let ColCursor {
        mut keys,
        mut metas,
    }: ColCursor<'_, u64> = ColCursor::begin(&mut r).expect("frame");
    let (mut acc, mut matches) = (0u64, 0u64);
    intersect_col(
        kernel,
        &mut keys,
        right,
        |e| e.1,
        |k, e| {
            acc = acc.wrapping_add(metas.get(k.idx)?).wrapping_add(e.0);
            matches += 1;
            Ok(())
        },
    )
    .expect("intersect");
    (acc, matches)
}

/// Every kernel over a columnar frame (keys decoded off the wire, right
/// side in storage) at four degree skews: balanced, 10:1, 1000:1 and
/// its reverse, the pull phase's long-left shape.
fn compare_intersect_kernels() {
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
            ("blocked", IntersectKernel::BlockedMerge),
            ("auto", IntersectKernel::Auto),
        ] {
            let (_, warm_matches) = intersect_frame(kernel, &frame, &right);
            assert_eq!(warm_matches, expected, "kernel {kname} disagrees at {name}");
            let _ = kernel_stats_take();
            let mut acc = 0u64;
            let start = Instant::now();
            for _ in 0..KERNEL_ITERS {
                acc = acc.wrapping_add(intersect_frame(kernel, &frame, &right).0);
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

/// Streaming appends: after a 1 % / 10 % batch lands on a scale-10
/// R-MAT graph, surveying only the delta wedges against recounting the
/// whole graph.
fn compare_incremental_ingest() {
    let edges = tripoll_gen::rmat_edges(&tripoll_gen::RmatConfig::graph500(10, 42));
    let list =
        EdgeList::from_vec(edges.into_iter().map(|(u, v)| (u, v, ())).collect()).canonicalize();
    let all = list.as_slice();

    for pct in [1usize, 10] {
        let cut = all.len() - all.len() * pct / 100;
        let resident: ResidentGraph<(), ()> = ResidentGraph::build(
            &EdgeList::from_vec(all[..cut].to_vec()),
            |_| (),
            Partition::Hashed,
        );
        let q = ResidentQuery::new(4);
        let before = resident.triangle_count(&q);
        let delta = resident
            .ingest_batch_with(&all[cut..], |_| ())
            .expect("append of canonical edges succeeds");
        // Warm the post-ingest shard cache so both timings below
        // measure the survey, not the per-world-size rebuild.
        let after = resident.triangle_count(&q);

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
        assert_eq!(
            before + delta_triangles,
            after,
            "delta must complete the recount"
        );

        let start = Instant::now();
        let full = resident.triangle_count(&q);
        let full_ns = start.elapsed().as_nanos() as f64;
        assert_eq!(full, after, "warmed recount is stable");
        println!(
            "incremental_ingest/batch{pct:02}pct            {delta_ns:>12.1} ns  (full recount {full_ns:>12.1} ns, {:.2}x, {delta_triangles:>7} delta triangles)",
            full_ns / delta_ns
        );
    }
}

fn main() {
    compare_intersect_kernels();
    compare_incremental_ingest();
}
