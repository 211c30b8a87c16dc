//! Differential tests of the multi-threaded intra-rank merge path.
//!
//! [`Parallelism`] routes received wedge batches and pull deliveries
//! through the persistent work-stealing pool instead of intersecting
//! them inline, and its contract is strict determinism: a parallel
//! survey must be **observationally identical** to the serial one —
//! same triangle counts, same metadata seen by every callback, and
//! bit-identical merged [`KernelStats`] (the per-worker tallies are
//! reduced in batch-index order, so even the compare counters cannot
//! drift). Three layers of evidence:
//!
//! * **Thread sweep** — serial vs {1, 2, 4, 8} threads × both engines
//!   × {1, 2, 4, 7} ranks on random and hub graphs.
//! * **Kernel spot matrix** — every kernel at 4 threads against its
//!   serial twin (the reference cell documents the designed serial
//!   fallback: the queued path only exists on the production path).
//! * **Stealing stress** — repeated runs with many tiny batches and
//!   more ranks than cores, so partial flushes, barrier-drain flushes
//!   and cross-worker stealing all occur, asserting run-to-run
//!   stability.

mod common;

use common::{hub_graph, labeled, random_graph, run_survey, run_survey_with_comm};
use tripoll::core::{EngineMode, IntersectKernel, KernelStats, Parallelism, SurveyConfig};
use tripoll::ygm::CommConfig;

const THREADS: [Parallelism; 4] = [
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Threads(8),
];

/// What a parallel run must reproduce of its serial twin on every rank:
/// count, checksum and every merged kernel counter.
fn results(runs: &[common::Outcome]) -> Vec<(u64, u64, KernelStats)> {
    runs.iter().map(common::Outcome::result).collect()
}

/// Serial vs every thread count, both engines, {1,2,4,7} ranks, random
/// and hub graphs: counts, checksums and every merged kernel counter
/// must be bit-identical to the serial reference.
#[test]
fn parallel_surveys_are_bit_identical_to_serial() {
    for (gname, list) in [("random", random_graph()), ("hub", hub_graph())] {
        for nranks in [1usize, 2, 4, 7] {
            for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
                let serial = run_survey(
                    &list,
                    nranks,
                    mode,
                    SurveyConfig::default().with_threads(Parallelism::Serial),
                );
                assert!(serial[0].count > 0, "{gname} must contain triangles");
                for threads in THREADS {
                    let runs = run_survey(
                        &list,
                        nranks,
                        mode,
                        SurveyConfig::default().with_threads(threads),
                    );
                    for (rank, (o, r)) in runs.iter().zip(serial.iter()).enumerate() {
                        let ctx = format!("{gname} {mode} n={nranks} {threads} rank {rank}");
                        assert_eq!(o.count, r.count, "triangle count [{ctx}]");
                        assert_eq!(o.checksum, r.checksum, "metadata checksum [{ctx}]");
                        assert_eq!(o.stats, r.stats, "merged kernel stats [{ctx}]");
                    }
                }
            }
        }
    }
}

/// Every kernel at 4 threads against its serial twin. The production
/// kernels run the parallel merge queue; the reference cell documents
/// the designed fallback (no queued path exists for the materializing
/// decode, so it must — trivially — agree too).
#[test]
fn parallel_config_matrix_agrees_with_serial() {
    const KERNELS: [IntersectKernel; 4] = [
        IntersectKernel::MergeScalar,
        IntersectKernel::Gallop,
        IntersectKernel::BlockedMerge,
        IntersectKernel::Auto,
    ];
    let list = hub_graph();
    for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
        for kernel in KERNELS {
            let base = SurveyConfig {
                kernel,
                threads: Parallelism::Serial,
            };
            let serial = run_survey(&list, 4, mode, base);
            let parallel = run_survey(&list, 4, mode, base.with_threads(Parallelism::Threads(4)));
            assert_eq!(parallel, serial, "parallel != serial [{mode} {kernel}]");
        }
    }
}

/// Stealing stress: a graph of many tiny wedge batches (every target's
/// candidate list is short) on more ranks than this machine has cores,
/// at 8 threads. Partial batches are flushed by the barrier drain hook,
/// full batches by the threshold, and the per-rank caller competes with
/// the shared pool's workers — across repeated runs every outcome must
/// be stable and equal to the serial reference.
#[test]
fn tiny_batch_stealing_is_deterministic() {
    // A ring of overlapping K4 cliques: lots of distinct targets with
    // 1-3 candidate wedges each, spread over all ranks.
    let n = 64u64;
    let mut edges = Vec::new();
    for i in 0..n {
        for a in 1..=3u64 {
            for b in (a + 1)..=3 {
                edges.push(((i + a) % n, (i + b) % n));
            }
        }
        edges.push((i, (i + 1) % n));
    }
    edges.sort_unstable();
    edges.dedup();
    let list = labeled(edges);
    for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
        let serial = run_survey(
            &list,
            7,
            mode,
            SurveyConfig::default().with_threads(Parallelism::Serial),
        );
        assert!(serial[0].count > 0, "stress graph must contain triangles");
        for round in 0..8 {
            let runs = run_survey(
                &list,
                7,
                mode,
                SurveyConfig::default().with_threads(Parallelism::Threads(8)),
            );
            assert_eq!(runs, serial, "{mode} round {round} diverged");
        }
    }
}

/// The comm-layer topology axes must be invisible to survey results:
/// node aggregation (`ranks_per_node` ∈ {1, 2, 4}) crossed with the
/// overlapped transport stage (on/off) and the merge parallelism
/// (serial / 4 threads), on the pull-heavy hub graph under both
/// engines. Multicast fan-out, gateway forwarding, per-destination
/// flush thresholds and the drain-stage handoff may reshape the wire —
/// counts, metadata checksums and merged kernel counters may not move
/// a bit.
#[test]
fn node_aggregation_and_overlap_are_bit_identical() {
    let list = hub_graph();
    for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
        let reference = run_survey_with_comm(
            &list,
            4,
            mode,
            SurveyConfig::default().with_threads(Parallelism::Serial),
            CommConfig {
                ranks_per_node: 1,
                overlap_flush: Some(false),
                ..Default::default()
            },
        );
        assert!(reference[0].count > 0, "hub graph must contain triangles");
        for rpn in [1usize, 2, 4] {
            for overlap in [false, true] {
                for threads in [Parallelism::Serial, Parallelism::Threads(4)] {
                    let runs = run_survey_with_comm(
                        &list,
                        4,
                        mode,
                        SurveyConfig::default().with_threads(threads),
                        CommConfig {
                            ranks_per_node: rpn,
                            overlap_flush: Some(overlap),
                            ..Default::default()
                        },
                    );
                    assert_eq!(
                        results(&runs),
                        results(&reference),
                        "survey outcome diverged [{mode} rpn={rpn} overlap={overlap} {threads}]"
                    );
                }
            }
        }
    }
}

/// The `TRIPOLL_THREADS` environment axis resolves once per process and
/// `Threads(n)` overrides it — the knobs the CI matrix and the bench
/// harness rely on.
#[test]
fn thread_axis_resolution_contract() {
    assert_eq!(Parallelism::Serial.resolved(), 1);
    assert!(!Parallelism::Serial.is_parallel());
    assert_eq!(Parallelism::Threads(0).resolved(), 1);
    assert_eq!(Parallelism::Threads(4).resolved(), 4);
    assert!(Parallelism::Threads(2).is_parallel());
    // Env resolves to a fixed value for the whole process (whatever the
    // harness set), and the explicit variants ignore it entirely.
    assert_eq!(Parallelism::Env.resolved(), Parallelism::Env.resolved());
    let cfg = SurveyConfig::default().with_threads(Parallelism::Threads(3));
    assert_eq!(cfg.threads.resolved(), 3);
}
