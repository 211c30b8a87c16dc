//! Differential tests of the production path against the reference.
//!
//! A survey runs one of two receive paths (see `tripoll::core::engine`):
//! the **production** path — columnar frames decoded in place into a
//! flat key column, the kernel `Auto` picks from the two side lengths
//! (or an explicit `Gallop` / `Merge`), matches reported as index
//! pairs — or the **reference** ([`IntersectKernel::MergeScalar`]): the
//! same bytes materialised as an owned batch and intersected by the
//! two-pointer merge. The contract is strict: every kernel emits the
//! **identical match sequence** — same pairs, same callback order — as
//! the reference, on every engine and rank count. Five layers of
//! evidence:
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
//!   keys), on slices through [`intersect_slices`] and on columnar
//!   frames whose keys are decoded whole into a flat column first and
//!   intersected through [`intersect_indices`], as the production
//!   handlers do, asserting the exact ordered match set of
//!   [`merge_path`].
//! * **Same steps** — the branchless [`IntersectKernel::Merge`] reads
//!   each key as one `u128` word and advances both pointers by flags,
//!   but it takes the reference merge's steps: on random strictly
//!   increasing lists it emits the ordered matches of `MergeScalar`
//!   and `merge_path` with exactly `MergeScalar`'s compare count.
//! * **Same pairs by hash** — [`KeyIndex::probe`], which every
//!   production pull delivery runs instead of a merge, emits the
//!   ordered index pairs of `merge_path` with its candidate and match
//!   counts, at every skew, on empty sides, under forced tie collisions
//!   (long probe chains) and across the table's wrap-around; a rebuilt
//!   index never matches a slot of the frame before; and misses into
//!   hashed frames of the workloads' pull lengths inspect a pinned
//!   number of slots, which holds the table's sparseness.
//! * **Served equals decoded** — a [`FrameDecoder`] fed interleaved
//!   suffix frames of two lists, some with a key column mutated,
//!   returns on every frame what a fresh decoder and the plain key
//!   walk return: the same key column or the same error. So does
//!   [`decode_key_column`], the pull handler's decode, which keeps
//!   nothing of a frame.
//!
//! Besides agreement, `Auto`'s key-compare counts at four fixed degree
//! skews are pinned to literals: the work the gallop and merge arms
//! are chosen to keep small.

mod common;

use common::{hub_graph, labeled, random_graph, run_survey};
use proptest::prelude::*;
use tripoll::core::{
    decode_key_column, intersect_indices, intersect_slices, kernel_stats, kernel_stats_take,
    merge_path, EngineMode, FrameDecoder, IntersectKernel, KernelStats, KeyIndex, SurveyConfig,
    GALLOP_RATIO,
};
use tripoll::gen::table4_suite;
use tripoll::graph::{EdgeList, OrderKey};
use tripoll::ygm::wire::{
    put_varint, to_bytes, ColBatch, ColCursor, ColKeys, ColSuffixes, Wire, WireEncode, WireError,
    WireReader,
};

/// The kernels of the production path: what `Auto` resolves to, plus
/// `Auto` itself.
const PRODUCTION: [IntersectKernel; 3] = [
    IntersectKernel::Auto,
    IntersectKernel::Gallop,
    IntersectKernel::Merge,
];

const KERNELS: [IntersectKernel; 4] = [
    IntersectKernel::MergeScalar,
    IntersectKernel::Gallop,
    IntersectKernel::Merge,
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
            assert_eq!(
                r.stats.gallop_runs + r.stats.merge_runs + r.stats.probe_runs,
                0,
                "[{ctx}]"
            );
            assert_eq!(o.stats.scalar_runs, 0, "reference leaked [{ctx}]");
            // Only pull deliveries probe, and Push-Only pulls nothing.
            if mode == EngineMode::PushOnly {
                assert_eq!(o.stats.probe_runs, 0, "Push-Only probed [{ctx}]");
            }
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

/// Decodes a frame's two key columns whole, as both production
/// handlers do, into a flat key column: an element's frame index is
/// its position.
fn decode_keys(keys: ColKeys<'_>) -> Vec<OrderKey> {
    keys.enumerate()
        .map(|(pos, k)| {
            let k = k.expect("key columns");
            assert_eq!(k.idx, pos, "frame index is the position");
            OrderKey::new(k.v, k.degree)
        })
        .collect()
}

/// Asserts every kernel reproduces the oracle's ordered match list on
/// slices and on a columnar frame decoded first, then intersected.
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

        // Columnar frame, decoded into a flat key column.
        let mut r = WireReader::new(&frame);
        let ColCursor { keys, mut metas }: ColCursor<'_, u64> =
            ColCursor::begin(&mut r).expect("frame");
        let cands = decode_keys(keys);
        let mut got = Vec::new();
        intersect_indices(
            kernel,
            &cands,
            &right,
            |&k| k,
            |e| e.1,
            |i, j| {
                assert_eq!(metas.get(i), Ok(i as u64), "meta idx mapping [{ctx}]");
                got.push((left[i].0, right[j].0));
            },
        );
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
    // Length edge cases: one side a third of the other, at lengths
    // around powers of two.
    for n in [31u64, 32, 33, 63, 64, 65] {
        let l: Vec<u64> = (0..n).collect();
        let r: Vec<u64> = (0..n).filter(|v| v % 3 == 0).collect();
        assert_kernels_match(&l, &r, &format!("length edge n={n}"));
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
    assert_eq!((s.gallop_runs, s.scalar_runs, s.merge_runs), (1, 0, 0));
}

/// Ordered matches and compare count of one kernel over two entry
/// lists, through the index form.
fn run_kernel(
    kernel: IntersectKernel,
    left: &[(u64, OrderKey)],
    right: &[(u64, OrderKey)],
) -> (Vec<(u64, u64)>, u64) {
    let mut got = Vec::new();
    let _ = kernel_stats_take();
    intersect_indices(
        kernel,
        left,
        right,
        |l| l.1,
        |r| r.1,
        |a, b| got.push((left[a].0, right[b].0)),
    );
    (got, kernel_stats_take().compares)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Random strictly increasing lists at side ratios at or below
    /// `GALLOP_RATIO`, where `Auto` resolves to the branchless merge:
    /// `Merge` emits the ordered matches of `MergeScalar` and
    /// `merge_path` and counts the same compares, because both take
    /// one compare per pointer step and step identically.
    #[test]
    fn branchless_merge_steps_like_the_reference(
        lv in proptest::collection::vec(0u64..600, 1..200),
        rv in proptest::collection::vec(0u64..600, 1..200),
    ) {
        let strict = |mut v: Vec<u64>| {
            v.sort_unstable();
            v.dedup();
            entries(&v)
        };
        let (left, right) = (strict(lv), strict(rv));
        let (small, large) = (left.len().min(right.len()), left.len().max(right.len()));
        // Trim the longer side into the merge's range of ratios.
        let keep = large.min(small * GALLOP_RATIO);
        let (left, right) = if left.len() >= right.len() {
            (left[..keep].to_vec(), right)
        } else {
            (left, right[..keep].to_vec())
        };
        assert_eq!(
            IntersectKernel::Auto.select(left.len(), right.len()),
            IntersectKernel::Merge
        );
        let oracle = oracle_matches(&left, &right);
        let (scalar, scalar_compares) = run_kernel(IntersectKernel::MergeScalar, &left, &right);
        let (merge, merge_compares) = run_kernel(IntersectKernel::Merge, &left, &right);
        prop_assert_eq!(&scalar, &oracle);
        prop_assert_eq!(&merge, &oracle);
        prop_assert_eq!(merge_compares, scalar_compares);
    }
}

/// The Auto kernel's exact key compares over one columnar frame,
/// decoded whole and then intersected, at four degree skews: balanced,
/// 10:1, 1000:1 (hub adjacency on the right) and its reverse (a long
/// frame on the left). The denser side holds every even value; the
/// sparser side spreads across it, alternating hits and off-by-one
/// misses. In total 13 394 compares over 68 672 candidates: 0.1950 per
/// candidate. The one symmetric rule gallops into the larger side, so
/// the 1:1000 row costs what its mirror 1000:1 row does.
#[test]
fn auto_compares_at_four_skews_are_pinned() {
    for (ctx, left_n, right_n, compares, matches) in [
        ("balanced", 4096u64, 4096u64, 6_143u64, 2048u64),
        ("10:1", 512, 5120, 4_601, 256),
        ("1000:1", 64, 64_000, 1_325, 32),
        ("1:1000", 64_000, 64, 1_325, 32),
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
        let ColCursor { keys, mut metas }: ColCursor<'_, u64> =
            ColCursor::begin(&mut r).expect("frame");
        let cands = decode_keys(keys);
        let _ = kernel_stats_take();
        intersect_indices(
            IntersectKernel::Auto,
            &cands,
            &right,
            |&k| k,
            |e| e.1,
            |i, _| metas.get(i).map(drop).expect("meta"),
        );
        let s = kernel_stats_take();
        assert_eq!((s.compares, s.matches), (compares, matches), "[{ctx}]");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// Random sorted `u64` lists with random skew: gallop and merge
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

// ------------------------------------------------------------------
// The pull side's hash probe against the merge
// ------------------------------------------------------------------

/// How [`probe_keys`] chooses each key's `tie`, the index's home-slot
/// hash.
#[derive(Debug, Clone, Copy)]
enum Ties {
    /// `hash64(v)`, as every real key's.
    Hashed,
    /// Equal low 32 bits on every key: one home slot, one long chain.
    Colliding,
    /// Low 32 bits all ones: every key's home is the table's last slot,
    /// so each chain wraps to slot 0.
    Wrapping,
}

/// Strictly increasing keys from strictly increasing values: degree =
/// value, tie per `ties`. Distinct degrees keep the words strictly
/// increasing whatever the ties.
fn probe_keys(vals: &[u64], ties: Ties) -> Vec<OrderKey> {
    vals.iter()
        .map(|&v| match ties {
            Ties::Hashed => OrderKey::new(v, v),
            Ties::Colliding => OrderKey {
                degree: v,
                tie: v << 32 | 0x5a5a,
            },
            Ties::Wrapping => OrderKey {
                degree: v,
                tie: v << 32 | 0xffff_ffff,
            },
        })
        .collect()
}

/// Ordered `(left index, frame index)` pairs and the counters of one
/// probe of `left` into an index built over `frame`.
fn probe_pairs(
    index: &mut KeyIndex,
    left: &[OrderKey],
    frame: &[OrderKey],
) -> (Vec<(usize, usize)>, KernelStats) {
    index.build(frame).expect("short frame");
    let mut got = Vec::new();
    let _ = kernel_stats_take();
    index.probe(left, |&k| k, |a, i| got.push((a, i)));
    (got, kernel_stats_take())
}

/// Asserts the probe reports exactly `merge_path`'s ordered index pairs
/// and counts its candidates and matches.
fn assert_probe_matches_merge(left: &[OrderKey], frame: &[OrderKey], ctx: &str) {
    let tagged = |keys: &[OrderKey]| -> Vec<(usize, OrderKey)> {
        keys.iter().copied().enumerate().collect()
    };
    let (l, f) = (tagged(left), tagged(frame));
    let mut oracle = Vec::new();
    merge_path(&l, &f, |e| e.1, |e| e.1, |a, i| oracle.push((a.0, i.0)));
    let (got, s) = probe_pairs(&mut KeyIndex::new(), left, frame);
    assert_eq!(got, oracle, "ordered pairs [{ctx}]");
    assert_eq!(s.candidates, left.len() as u64, "candidates [{ctx}]");
    assert_eq!(s.matches, oracle.len() as u64, "matches [{ctx}]");
    assert_eq!(
        (s.probe_runs, s.scalar_runs, s.gallop_runs, s.merge_runs),
        (1, 0, 0, 0),
        "dispatch [{ctx}]"
    );
    // Every candidate inspects at least its home slot.
    assert!(s.compares >= left.len() as u64, "compares [{ctx}]");
}

#[test]
fn probe_handles_empty_sides_collisions_and_wrap_around() {
    let evens: Vec<u64> = (0..300u64).map(|i| 2 * i).collect();
    let thirds: Vec<u64> = (0..200u64).map(|i| 3 * i).collect();
    for ties in [Ties::Hashed, Ties::Colliding, Ties::Wrapping] {
        let ctx = format!("{ties:?}");
        let (e, t) = (probe_keys(&evens, ties), probe_keys(&thirds, ties));
        assert_probe_matches_merge(&[], &[], &format!("both empty {ctx}"));
        assert_probe_matches_merge(&e, &[], &format!("empty frame {ctx}"));
        assert_probe_matches_merge(&[], &e, &format!("empty left {ctx}"));
        assert_probe_matches_merge(&t, &e, &format!("thirds into evens {ctx}"));
        assert_probe_matches_merge(&e, &t, &format!("evens into thirds {ctx}"));
        assert_probe_matches_merge(&e, &e, &format!("identical {ctx}"));
    }
    // One home slot for all 300 keys: a miss walks the whole chain, to
    // the first empty slot past it.
    let e = probe_keys(&evens, Ties::Colliding);
    let odd = probe_keys(&[1], Ties::Colliding);
    let (got, s) = probe_pairs(&mut KeyIndex::new(), &odd, &e);
    assert!(got.is_empty());
    assert_eq!(s.compares, 301, "a chain of 300 keys, then the empty slot");
    // Wrap-around: every key is homed on the last slot, so the last
    // key sits 299 slots past the table's end and is still found after
    // inspecting every key before it.
    let wrap = probe_keys(&evens, Ties::Wrapping);
    let (got, s) = probe_pairs(&mut KeyIndex::new(), &wrap[299..], &wrap);
    assert_eq!(got, vec![(0, 299)]);
    assert_eq!(s.compares, 300);
}

/// The table's sparseness, pinned: 1 000 misses, hashed like every
/// real key, probed into hashed frames of the workloads' pull lengths
/// (11 keys on `reddit_stream`, 53 on `rmat_pull`). A miss inspects
/// its home slot and, only where a key sits there, the chain past it,
/// so its compares exceed one only by the collisions. A table of at
/// least eight slots per key makes them rare.
#[test]
fn misses_into_a_sparse_table_mostly_end_at_home() {
    let misses: Vec<OrderKey> = (1_000..2_000u64).map(|v| OrderKey::new(v, v)).collect();
    for (n, pinned) in [(11u64, 1_079), (53, 1_103)] {
        let frame = probe_keys(&(0..n).collect::<Vec<_>>(), Ties::Hashed);
        let (got, s) = probe_pairs(&mut KeyIndex::new(), &misses, &frame);
        assert!(got.is_empty(), "{n} keys: a miss matched");
        assert_eq!(s.compares, pinned, "{n} keys: compares of 1 000 misses");
    }
}

/// One index serves every delivery of a rank: a rebuild for another
/// frame — shorter, or of the same table size — must forget every slot
/// of the frame before.
#[test]
fn rebuilt_index_never_matches_a_stale_slot() {
    let mut index = KeyIndex::new();
    let long = probe_keys(&(0..64u64).collect::<Vec<_>>(), Ties::Hashed);
    let (got, _) = probe_pairs(&mut index, &long, &long);
    assert_eq!(got.len(), 64);
    // The same table size (64 and 60 keys both take 512 slots) and
    // disjoint keys: nothing of the frame before survives.
    let other = probe_keys(&(100..160u64).collect::<Vec<_>>(), Ties::Hashed);
    let (got, _) = probe_pairs(&mut index, &long, &other);
    assert!(got.is_empty(), "stale slot matched: {got:?}");
    // A shorter frame sharing two of the long frame's keys: only those
    // two match, at their new frame indices.
    probe_pairs(&mut index, &long, &long);
    let short = probe_keys(&[5, 40, 1000], Ties::Hashed);
    let (got, _) = probe_pairs(&mut index, &long, &short);
    assert_eq!(got, vec![(5, 0), (40, 1)]);
    // Colliding ties: the rebuilt chain must not extend the old one.
    let colliding = probe_keys(&(0..64u64).collect::<Vec<_>>(), Ties::Colliding);
    probe_pairs(&mut index, &colliding, &colliding);
    let (got, _) = probe_pairs(&mut index, &colliding, &colliding[60..]);
    assert_eq!(got, vec![(60, 0), (61, 1), (62, 2), (63, 3)]);
    // An empty frame matches nothing.
    let (got, s) = probe_pairs(&mut index, &long, &[]);
    assert!(got.is_empty());
    assert_eq!(s.compares, 64, "one empty slot per candidate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// Random strictly increasing lists at every skew — either side cut
    /// to a few keys or left long — under each tie shape: the probe
    /// emits `merge_path`'s ordered `(a, i)` pairs, with its candidate
    /// and match counts.
    #[test]
    fn probe_emits_the_merge_pairs(
        lv in proptest::collection::vec(0u64..900, 0..240),
        fv in proptest::collection::vec(0u64..900, 0..240),
        skew in 0usize..3,
        ties in 0usize..3,
    ) {
        let strict = |mut v: Vec<u64>| {
            v.sort_unstable();
            v.dedup();
            v
        };
        let (mut lv, mut fv) = (strict(lv), strict(fv));
        match skew {
            1 => lv.truncate(3),
            2 => fv.truncate(3),
            _ => {}
        }
        let ties = [Ties::Hashed, Ties::Colliding, Ties::Wrapping][ties];
        let (left, frame) = (probe_keys(&lv, ties), probe_keys(&fv, ties));
        assert_probe_matches_merge(&left, &frame, &format!("skew={skew} {ties:?}"));
    }
}

// ------------------------------------------------------------------
// Frame decoder: nested suffixes served from the last decoded frame
// ------------------------------------------------------------------

/// A `<+`-sorted list of distinct `(v, d)` keys from raw pairs.
fn sorted_list(raw: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut list = raw;
    list.sort_by_key(|&(v, d)| OrderKey::new(v, d));
    list.dedup_by_key(|&mut (v, d)| OrderKey::new(v, d));
    list
}

/// A frame's element count and its three columns.
fn split_frame(frame: &[u8]) -> (u64, [Vec<u8>; 3]) {
    let mut r = WireReader::new(frame);
    let n = r.take_varint().expect("count");
    let mut col = || {
        let len = r.take_varint().expect("column length") as usize;
        r.take(len).expect("column").to_vec()
    };
    let cols = [col(), col(), col()];
    (n, cols)
}

/// The frame of an element count and three columns.
fn join_frame(n: u64, cols: &[Vec<u8>; 3]) -> Vec<u8> {
    let mut frame = Vec::new();
    put_varint(&mut frame, n);
    for col in cols {
        put_varint(&mut frame, col.len() as u64);
        frame.extend_from_slice(col);
    }
    frame
}

/// Applies mutation `kind` to one key column of `frame`, chosen and
/// placed by `bits`: 0–3 none, 4 a flipped bit, 5 the first raw degree
/// one up or down, 6 an appended byte, 7 a truncated byte.
fn mutate_frame(frame: Vec<u8>, kind: usize, bits: u64) -> Vec<u8> {
    let (n, mut cols) = split_frame(&frame);
    let c = (bits >> 32) as usize & 1;
    match kind {
        4 if !cols[c].is_empty() => {
            let at = (bits >> 3) as usize % cols[c].len();
            cols[c][at] ^= 1 << (bits & 7);
        }
        5 if !cols[1].is_empty() => {
            let mut r = WireReader::new(&cols[1]);
            let head = r.take_varint().expect("first raw degree");
            let rest = cols[1][r.position()..].to_vec();
            let head = if bits & 1 == 0 {
                head.wrapping_add(1)
            } else {
                head.wrapping_sub(1)
            };
            cols[1].clear();
            put_varint(&mut cols[1], head);
            cols[1].extend_from_slice(&rest);
        }
        6 => cols[c].push(bits as u8),
        7 => {
            cols[c].pop();
        }
        _ => {}
    }
    join_frame(n, &cols)
}

/// A frame's keys decoded one by one off its key walk, or the first
/// error: the decode the [`FrameDecoder`] must reproduce.
fn walk_keys(keys: ColKeys<'_>) -> Result<Vec<OrderKey>, WireError> {
    let mut out: Vec<OrderKey> = Vec::new();
    for k in keys {
        let k = k?;
        let key = OrderKey::new(k.v, k.degree);
        if out.last().is_some_and(|prev| prev.word() >= key.word()) {
            return Err(WireError::InvalidValue("frame keys must strictly increase"));
        }
        out.push(key);
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// A stream of suffix frames of two random `<+`-sorted lists,
    /// interleaved, half of them intact and the rest with one key
    /// column mutated: one [`FrameDecoder`] across the whole stream
    /// returns, frame by frame, exactly what a fresh decoder and the
    /// key walk return — the same key column or the same error — and
    /// so does [`decode_key_column`], the pull handler's decode, into
    /// one column reused across the stream.
    #[test]
    fn frame_decoder_serves_what_a_fresh_decode_returns(
        a in proptest::collection::vec((0u64..1 << 40, 0u64..5000), 1..40),
        b in proptest::collection::vec((0u64..1 << 40, 0u64..5000), 1..40),
        stream in proptest::collection::vec((0usize..2, 0usize..41, 0usize..8, any::<u64>()), 1..120),
    ) {
        let cols = [sorted_list(a), sorted_list(b)].map(|list| {
            let mut cols = ColSuffixes::new();
            cols.fill(&list, |e| e.0, |e| e.1, |e, buf| e.0.encode(buf));
            cols
        });
        let mut decoder = FrameDecoder::new();
        let mut column = Vec::new();
        for (which, j, kind, bits) in stream {
            let cols = &cols[which];
            let mut frame = Vec::new();
            cols.suffix(j % (cols.len() + 1)).encode_wire(&mut frame);
            let frame = mutate_frame(frame, kind, bits);
            // A frame whose columns fail capture never reaches a decoder.
            let Ok(cursor) = ColCursor::<u64>::begin(&mut WireReader::new(&frame)) else {
                continue;
            };
            let walked = walk_keys(cursor.keys.clone());
            let fresh = FrameDecoder::new().decode(cursor.keys.clone()).map(<[OrderKey]>::to_vec);
            let unstored = decode_key_column(cursor.keys.clone(), &mut column).map(|()| column.clone());
            let got = decoder.decode(cursor.keys).map(<[OrderKey]>::to_vec);
            prop_assert_eq!(&fresh, &walked);
            prop_assert_eq!(&unstored, &walked);
            prop_assert_eq!(&got, &fresh);
        }
    }
}
