//! Pins the production path byte for byte and compare for compare.
//!
//! Every literal below was recorded at the commit *before* the
//! configuration matrix was collapsed to this one path, so a change
//! that moves a byte on the wire, a record, a key compare or the kernel
//! `Auto` resolves to fails here first. `TRIPOLL_THREADS` is
//! deliberately left to the environment — the queued receive path
//! merges kernel tallies in batch order, so it must read them too.

mod common;

use common::{hub_graph, labeled, run_survey};
use tripoll::core::{EngineMode, KernelStats, SurveyConfig};
use tripoll::gen::{rmat_edges, RmatConfig};
use tripoll::graph::EdgeList;

/// One pinned run: `(engine, ranks, compares, candidates, gallop_runs,
/// blocked_runs, bytes_encoded, records)`. Push-Pull's rows differ per
/// rank count because pull decisions are taken per (source rank,
/// target vertex).
type Pin = (EngineMode, usize, u64, u64, u64, u64, u64, u64);

fn assert_pinned(gname: &str, list: &EdgeList<String>, count: u64, checksum: u64, pins: &[Pin]) {
    for &(mode, nranks, compares, candidates, gallop_runs, blocked_runs, bytes_encoded, records) in
        pins
    {
        let runs = run_survey(list, nranks, mode, SurveyConfig::default());
        let o = &runs[0];
        let ctx = format!("{gname} {mode} n={nranks}");
        assert_eq!(o.count, count, "triangle count [{ctx}]");
        assert_eq!(o.checksum, checksum, "metadata checksum [{ctx}]");
        assert_eq!(
            o.stats,
            KernelStats {
                compares,
                candidates,
                matches: count,
                // The reference kernel never runs on the production path.
                scalar_runs: 0,
                gallop_runs,
                blocked_runs,
            },
            "kernel counters [{ctx}]"
        );
        assert_eq!(o.bytes_encoded, bytes_encoded, "bytes_encoded [{ctx}]");
        assert_eq!(o.records, records, "records [{ctx}]");
    }
}

#[test]
fn rmat_is_pinned() {
    use EngineMode::{PushOnly, PushPull};
    let list = labeled(rmat_edges(&RmatConfig::graph500(8, 42))).canonicalize();
    assert_pinned(
        "rmat",
        &list,
        10_976,
        23_202_816_223_048,
        &[
            (PushOnly, 1, 35_690, 13_123, 24, 1_593, 170_560, 1_617),
            (PushOnly, 2, 35_690, 13_123, 24, 1_593, 170_560, 1_617),
            (PushOnly, 4, 35_690, 13_123, 24, 1_593, 170_560, 1_617),
            (PushPull, 1, 41_486, 19_136, 0, 1_617, 15_104, 201),
            (PushPull, 2, 41_312, 18_939, 1, 1_616, 17_276, 362),
            (PushPull, 4, 40_915, 18_503, 5, 1_612, 22_880, 635),
        ],
    );
}

#[test]
fn shared_hub_is_pinned() {
    use EngineMode::{PushOnly, PushPull};
    assert_pinned(
        "hub",
        &hub_graph(),
        24,
        55_006_949_705,
        &[
            (PushOnly, 1, 72, 24, 0, 24, 762, 24),
            (PushOnly, 2, 72, 24, 0, 24, 762, 24),
            (PushOnly, 4, 72, 24, 0, 24, 762, 24),
            (PushPull, 1, 72, 24, 0, 24, 26, 2),
            (PushPull, 2, 72, 24, 0, 24, 31, 4),
            (PushPull, 4, 72, 24, 0, 24, 41, 8),
        ],
    );
}
