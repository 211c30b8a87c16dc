//! Differential tests of the production path against the reference.
//!
//! A survey runs one of two receive paths (see `tripoll::core::engine`):
//! the **production** path — columnar frames decoded in place, the
//! kernel `Auto` picks from the two side lengths (or an explicit
//! `Gallop` / `BlockedMerge`) — or the **reference**
//! ([`IntersectKernel::MergeScalar`]): the same bytes materialised as an
//! owned batch and intersected by the two-pointer merge. The contract is
//! strict: every kernel emits the **identical match sequence** — same
//! pairs, same callback order — as the reference, on every engine and
//! rank count. Two layers of evidence:
//!
//! * **Surveys** — production kernels × engine × {1,2,4,7}-rank
//!   surveys on string-metadata graphs (random, shared-hub, the Table 4
//!   topologies, proptest-generated): triangle counts, six-value
//!   metadata checksums, the kernels' deterministic match counters and
//!   the send-side traffic fingerprint (both paths read the same bytes)
//!   must all agree with the reference run.
//! * **Kernel fuzz** — the kernels run directly (no engines) over
//!   random sorted lists and adversarial shapes (empty sides,
//!   all-equal keys, hub-scale 1000:1 skew, near-miss off-by-one
//!   keys), on slices ([`intersect_slices`]) and on columnar frames
//!   ([`intersect_col`], which exercises the `ColKeys` block decode),
//!   asserting the exact ordered match set of [`merge_path`].
//!
//! Besides agreement, `Auto`'s key-compare counts at four fixed degree
//! skews are pinned to literals: the work the gallop and blocked arms
//! exist to avoid.

mod common;

use common::{hub_graph, labeled, random_graph, run_survey};
use proptest::prelude::*;
use tripoll::core::{
    intersect_col, intersect_slices, kernel_stats, kernel_stats_take, merge_path, EngineMode,
    IntersectKernel, SurveyConfig,
};
use tripoll::gen::table4_suite;
use tripoll::graph::{EdgeList, OrderKey};
use tripoll::ygm::wire::{to_bytes, ColBatch, ColCursor, WireReader};

/// The kernels of the production path: what `Auto` resolves to, plus
/// `Auto` itself.
const PRODUCTION: [IntersectKernel; 3] = [
    IntersectKernel::Auto,
    IntersectKernel::Gallop,
    IntersectKernel::BlockedMerge,
];

const KERNELS: [IntersectKernel; 4] = [
    IntersectKernel::MergeScalar,
    IntersectKernel::Gallop,
    IntersectKernel::BlockedMerge,
    IntersectKernel::Auto,
];

const ENGINES: [EngineMode; 2] = [EngineMode::PushOnly, EngineMode::PushPull];

// ------------------------------------------------------------------
// Survey-level differential
// ------------------------------------------------------------------

/// Runs `list` through the reference and through the production path
/// under each of `kernels`, and asserts every production run agrees
/// with the reference on every rank: count, checksum, match counter,
/// send-side fingerprint, and the in-place decode accounting that tells
/// the two receive paths apart. Returns the triangle count.
fn assert_production_matches_reference(
    list: &EdgeList<String>,
    nranks: usize,
    mode: EngineMode,
    kernels: &[IntersectKernel],
    ctx: &str,
) -> u64 {
    let reference = run_survey(list, nranks, mode, IntersectKernel::MergeScalar.into());
    for kernel in kernels {
        let runs = run_survey(list, nranks, mode, (*kernel).into());
        for (rank, (o, r)) in runs.iter().zip(reference.iter()).enumerate() {
            let ctx = format!("{ctx} {mode} n={nranks} {kernel} rank {rank}");
            assert_eq!(o.count, r.count, "triangle count [{ctx}]");
            assert_eq!(o.checksum, r.checksum, "metadata checksum [{ctx}]");
            // Every kernel emits exactly the reference's match set, and
            // each match is one triangle callback.
            assert_eq!(o.stats.matches, r.stats.matches, "match counter [{ctx}]");
            assert_eq!(o.stats.matches, o.count, "matches are triangles [{ctx}]");
            // Same frames on the wire, whoever decodes them.
            assert_eq!(o.fingerprint, r.fingerprint, "send fingerprint [{ctx}]");
            assert_eq!(o.bytes_encoded, r.bytes_encoded, "bytes encoded [{ctx}]");
            // The reference materialises every batch and only ever runs
            // the scalar merge; the production path never does either.
            assert_eq!(r.borrowed, 0, "reference must not decode in place [{ctx}]");
            assert_eq!(r.stats.gallop_runs + r.stats.blocked_runs, 0, "[{ctx}]");
            assert_eq!(o.stats.scalar_runs, 0, "reference leaked [{ctx}]");
            if o.count > 0 {
                // A triangle needs a received wedge batch or pull
                // delivery, all of which production decodes in place.
                assert!(o.borrowed > 0, "production must decode in place [{ctx}]");
            }
        }
    }
    reference[0].count
}

/// Production kernels × engine × {1,2,4,7} ranks against the reference,
/// on the general random graph and on the shared-hub graph whose
/// triangles all ride the pull phase.
#[test]
fn kernel_matrix_agrees_with_the_scalar_oracle() {
    for (gname, list) in [("random", random_graph()), ("hub", hub_graph())] {
        for nranks in [1usize, 2, 4, 7] {
            for mode in ENGINES {
                let count =
                    assert_production_matches_reference(&list, nranks, mode, &PRODUCTION, gname);
                assert!(count > 0, "{gname} must contain triangles");
            }
        }
    }
}

/// The Table 4 suite at tiny scale, both engines, 1/2/4/7 ranks: the
/// default configuration against the reference.
#[test]
fn tab4_topologies_production_matches_reference() {
    for ds in table4_suite(42) {
        let list = labeled(ds.edges.clone());
        for nranks in [1usize, 2, 4, 7] {
            for mode in ENGINES {
                assert_production_matches_reference(
                    &list,
                    nranks,
                    mode,
                    &[IntersectKernel::Auto],
                    ds.name,
                );
            }
        }
    }
}

/// The kernel counters are deterministic: the same configuration on
/// the same graph yields bit-identical tallies, run to run.
#[test]
fn kernel_counters_are_deterministic() {
    let list = hub_graph();
    for kernel in KERNELS {
        let config = SurveyConfig::default().with_kernel(kernel);
        let a = run_survey(&list, 4, EngineMode::PushPull, config);
        let b = run_survey(&list, 4, EngineMode::PushPull, config);
        assert_eq!(a, b, "kernel {kernel} counters must be reproducible");
        assert!(
            a[0].stats.compares > 0 && a[0].stats.candidates > 0,
            "kernel {kernel} ran"
        );
    }
}

// ------------------------------------------------------------------
// Kernel-level fuzz harness (no engines)
// ------------------------------------------------------------------

/// Builds `<+`-sorted entries from raw values: degree = value (so key
/// order follows value order, with hash ties only between duplicates)
/// and the entry's original position as payload.
fn entries(vals: &[u64]) -> Vec<(u64, OrderKey)> {
    let mut out: Vec<(u64, OrderKey)> = vals.iter().map(|&v| (v, OrderKey::new(v, v))).collect();
    out.sort_by_key(|e| e.1);
    out
}

/// Ordered match list of the `merge_path` oracle over two entry lists.
fn oracle_matches(left: &[(u64, OrderKey)], right: &[(u64, OrderKey)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    merge_path(left, right, |l| l.1, |r| r.1, |l, r| out.push((l.0, r.0)));
    out
}

/// Asserts every kernel reproduces the oracle's ordered match list on
/// both kernel entry points: slices and the columnar frame walk (which
/// exercises the `ColKeys` block decode under `BlockedMerge`).
fn assert_kernels_match(left_vals: &[u64], right_vals: &[u64], ctx: &str) {
    let left = entries(left_vals);
    let right = entries(right_vals);
    let oracle = oracle_matches(&left, &right);

    // Columnar frame of the left side: metadata is the left position,
    // so ColKey.idx mapping is verified on every match.
    let frame = to_bytes(&ColBatch::<u64>(
        left.iter()
            .enumerate()
            .map(|(i, e)| (e.0, e.1.degree, i as u64))
            .collect(),
    ));

    for kernel in KERNELS {
        // Slices.
        let mut got = Vec::new();
        intersect_slices(
            kernel,
            &left,
            &right,
            |l| l.1,
            |r| r.1,
            |l, r| {
                got.push((l.0, r.0));
            },
        );
        assert_eq!(got, oracle, "slices, kernel {kernel} [{ctx}]");

        // Columnar frame.
        let mut r = WireReader::new(&frame);
        let ColCursor {
            mut keys,
            mut metas,
        }: ColCursor<'_, u64> = ColCursor::begin(&mut r).expect("frame");
        let mut got = Vec::new();
        intersect_col(
            kernel,
            &mut keys,
            &right,
            |e| e.1,
            |k, e| {
                assert_eq!(metas.get(k.idx)?, k.idx as u64, "meta idx mapping [{ctx}]");
                got.push((k.v, e.0));
                Ok(())
            },
        )
        .expect("columnar intersect");
        assert_eq!(got, oracle, "columnar, kernel {kernel} [{ctx}]");
    }
}

#[test]
fn adversarial_shapes_match_the_oracle() {
    // Empty sides.
    assert_kernels_match(&[], &[], "both empty");
    assert_kernels_match(&[1, 2, 3], &[], "right empty");
    assert_kernels_match(&[], &[1, 2, 3], "left empty");
    // All-equal keys (duplicate keys on one or both sides).
    assert_kernels_match(&[7; 40], &[7; 40], "all equal both");
    assert_kernels_match(&[7; 100], &[7], "all equal, singleton right");
    assert_kernels_match(&[7], &[7; 100], "all equal, singleton left");
    // Hub-scale 1000:1 skew with sprinkled matches.
    let big: Vec<u64> = (0..16_000u64).collect();
    let small: Vec<u64> = (0..16u64).map(|i| i * 1000 + 1).collect();
    assert_kernels_match(&small, &big, "1000:1 small left");
    assert_kernels_match(&big, &small, "1000:1 small right");
    // Near-miss off-by-one keys: interleaved, zero matches.
    let evens: Vec<u64> = (0..200u64).map(|i| i * 2).collect();
    let odds: Vec<u64> = (0..200u64).map(|i| i * 2 + 1).collect();
    assert_kernels_match(&evens, &odds, "off-by-one disjoint");
    // Off-by-one with a single aligned key in the middle.
    let mut nearly = odds.clone();
    nearly[100] = 200;
    assert_kernels_match(&evens, &nearly, "off-by-one single match");
    // Block-boundary shapes around KEY_BLOCK_LEN (32).
    for n in [31u64, 32, 33, 63, 64, 65] {
        let l: Vec<u64> = (0..n).collect();
        let r: Vec<u64> = (0..n).filter(|v| v % 3 == 0).collect();
        assert_kernels_match(&l, &r, &format!("block boundary n={n}"));
    }
}

/// At hub-scale skew the gallop kernel must do strictly fewer compares
/// than the scalar merge — the deterministic inequality the Auto
/// heuristic banks on (and `auto_compares_at_four_skews_are_pinned`
/// pins).
#[test]
fn gallop_beats_scalar_compares_at_heavy_skew() {
    let small = entries(&(0..16u64).map(|i| i * 1000 + 1).collect::<Vec<_>>());
    let big = entries(&(0..16_000u64).collect::<Vec<_>>());
    let tally = |kernel| {
        let _ = kernel_stats_take();
        intersect_slices(kernel, &small, &big, |l| l.1, |r| r.1, |_, _| {});
        kernel_stats_take().compares
    };
    let scalar = tally(IntersectKernel::MergeScalar);
    let gallop = tally(IntersectKernel::Gallop);
    let auto = tally(IntersectKernel::Auto);
    assert!(
        gallop * 10 < scalar,
        "gallop ({gallop}) must be far under scalar ({scalar}) at 1000:1"
    );
    assert_eq!(auto, gallop, "Auto resolves to Gallop at this skew");
    // And the dispatch counters say so.
    let _ = kernel_stats_take();
    intersect_slices(
        IntersectKernel::Auto,
        &small,
        &big,
        |l| l.1,
        |r| r.1,
        |_, _| {},
    );
    let s = kernel_stats();
    assert_eq!((s.gallop_runs, s.scalar_runs, s.blocked_runs), (1, 0, 0));
}

/// The Auto kernel's exact key compares over one columnar frame at four
/// degree skews: balanced, 10:1, 1000:1 (hub adjacency on the right)
/// and its reverse (the pull phase's long-left shape). The denser side
/// holds every even value; the sparser side spreads across it,
/// alternating hits and off-by-one misses. In total 22 375 compares
/// over 68 672 candidates: 0.3258 per candidate.
#[test]
fn auto_compares_at_four_skews_are_pinned() {
    for (ctx, left_n, right_n, compares, matches) in [
        ("balanced", 4096u64, 4096u64, 10_366u64, 2048u64),
        ("10:1", 512, 5120, 4_601, 256),
        ("1000:1", 64, 64_000, 1_325, 32),
        ("1:1000", 64_000, 64, 6_083, 32),
    ] {
        let (dense_n, sparse_n) = (left_n.max(right_n), left_n.min(right_n));
        let dense: Vec<u64> = (0..dense_n).map(|i| 2 * i).collect();
        let step = 2 * (dense_n / sparse_n);
        let sparse: Vec<u64> = (0..sparse_n).map(|i| i * step + i % 2).collect();
        let (left, right) = if right_n >= left_n {
            (sparse, dense)
        } else {
            (dense, sparse)
        };
        let right = entries(&right);
        let frame = to_bytes(&ColBatch::<u64>(
            left.iter()
                .enumerate()
                .map(|(i, &v)| (v, v, i as u64))
                .collect(),
        ));
        let mut r = WireReader::new(&frame);
        let ColCursor {
            mut keys,
            mut metas,
        }: ColCursor<'_, u64> = ColCursor::begin(&mut r).expect("frame");
        let _ = kernel_stats_take();
        intersect_col(
            IntersectKernel::Auto,
            &mut keys,
            &right,
            |e| e.1,
            |k, _| metas.get(k.idx).map(drop),
        )
        .expect("intersect");
        let s = kernel_stats_take();
        assert_eq!((s.compares, s.matches), (compares, matches), "[{ctx}]");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Random sorted `u64` lists with random skew: gallop and blocked
    /// must emit the exact ordered match set of `merge_path` on every
    /// kernel entry point.
    #[test]
    fn kernels_emit_identical_matches_on_random_lists(
        lv in proptest::collection::vec(0u64..800, 0..160),
        rv in proptest::collection::vec(0u64..800, 0..160),
        skew in 0usize..3,
    ) {
        // Skew 1/2 shrink one side hard so the Auto heuristic flips.
        let (lv, rv): (Vec<u64>, Vec<u64>) = match skew {
            1 => (lv.into_iter().take(3).collect(), rv),
            2 => (lv, rv.into_iter().take(3).collect()),
            _ => (lv, rv),
        };
        assert_kernels_match(&lv, &rv, &format!("proptest skew={skew}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Random graphs with string metadata: the default configuration
    /// against the reference, either engine, 1–4 ranks.
    #[test]
    fn random_string_metadata_graphs_production_matches_reference(
        edges in proptest::collection::vec((0u64..40, 0u64..40), 1..120),
        nranks in 1usize..5,
        push_pull in any::<bool>(),
    ) {
        let mode = if push_pull { EngineMode::PushPull } else { EngineMode::PushOnly };
        assert_production_matches_reference(
            &labeled(edges),
            nranks,
            mode,
            &[IntersectKernel::Auto],
            "proptest",
        );
    }
}
