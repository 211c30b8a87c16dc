//! Pins the production path byte for byte and compare for compare.
//!
//! A change that moves a byte on the wire, a record, a key compare or
//! a kernel run fails here first.
//!
//! The Push-Only rows, and every `bytes_encoded` and `records` value,
//! were recorded at the commit *before* the configuration matrix was
//! collapsed to this one path. The Push-Pull kernel counters were
//! re-recorded when the pull handler began decoding a pulled
//! `Adjm+(q)` once per delivery instead of once per resume suffix: each
//! wedge is now intersected exactly once, pushed or pulled, so on these
//! graphs they equal the Push-Only row's counters at every rank count.
//! The `compares` column was re-recorded once more when the blocked
//! merge arm gave way to the branchless merge, which counts one compare
//! per pointer step as the reference merge does; no other column moved.
//! The Push-Pull rows' `compares`, `gallop_runs` and `merge_runs` were
//! re-recorded, and `probe_runs` added, when the pull handler began
//! probing every resume suffix into one hash index per delivery
//! instead of merging it against the pulled list: a probe counts one
//! compare per slot inspected, and each suffix is one probe run.
//! Candidates, matches, bytes and records did not move. The rmat
//! Push-Pull rows' `compares` were re-recorded once more when the hash
//! index grew from at least two to at least eight slots per key: a
//! sparser table ends more probes at their home slot, so fewer slots
//! are inspected. No other column moved, and the hub rows, one slot per
//! candidate already, did not move at all. The `gallop_runs` column was
//! dropped when the galloping kernel was deleted and every pushed batch
//! took the branchless merge: only the rows that had galloped moved,
//! their gallop runs joining `merge_runs` and their `compares`
//! re-recorded.

mod common;

use std::collections::HashMap;

use common::{hub_graph, labeled, run_survey};
use tripoll::core::{EngineMode, KernelStats, SurveyConfig};
use tripoll::gen::{rmat_edges, RmatConfig};
use tripoll::graph::{EdgeList, OrderKey};

/// One pinned run: `(engine, ranks, compares, candidates, merge_runs,
/// probe_runs, bytes_encoded, records)`. Push-Pull's rows
/// differ per rank count because pull decisions are taken per (source
/// rank, target vertex).
type Pin = (EngineMode, usize, u64, u64, u64, u64, u64, u64);

fn assert_pinned(gname: &str, list: &EdgeList<String>, count: u64, checksum: u64, pins: &[Pin]) {
    for &(mode, nranks, compares, candidates, merge_runs, probe_runs, bytes_encoded, records) in
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
                merge_runs,
                probe_runs,
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
            (PushOnly, 1, 21_085, 13_123, 1_617, 0, 170_560, 1_617),
            (PushOnly, 2, 21_085, 13_123, 1_617, 0, 170_560, 1_617),
            (PushOnly, 4, 21_085, 13_123, 1_617, 0, 170_560, 1_617),
            (PushPull, 1, 13_631, 13_123, 23, 1_594, 15_104, 201),
            (PushPull, 2, 13_902, 13_123, 48, 1_569, 17_276, 362),
            (PushPull, 4, 14_421, 13_123, 93, 1_524, 22_880, 635),
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
            (PushOnly, 1, 24, 24, 24, 0, 762, 24),
            (PushOnly, 2, 24, 24, 24, 0, 762, 24),
            (PushOnly, 4, 24, 24, 24, 0, 762, 24),
            (PushPull, 1, 24, 24, 0, 24, 26, 2),
            (PushPull, 2, 24, 24, 0, 24, 31, 4),
            (PushPull, 4, 24, 24, 0, 24, 41, 8),
        ],
    );
}

/// `Σ_p C(d+(p), 2)` of a canonical edge list, computed from the list
/// alone: each edge is an out-edge of its `<+`-smaller endpoint, and
/// every pair of out-neighbours of `p` is one wedge.
fn wedges(list: &EdgeList<String>) -> u64 {
    let mut degree: HashMap<u64, u64> = HashMap::new();
    for &(u, v, _) in list.as_slice() {
        *degree.entry(u).or_default() += 1;
        *degree.entry(v).or_default() += 1;
    }
    let mut dplus: HashMap<u64, u64> = HashMap::new();
    for &(u, v, _) in list.as_slice() {
        let p = if OrderKey::new(u, degree[&u]) < OrderKey::new(v, degree[&v]) {
            u
        } else {
            v
        };
        *dplus.entry(p).or_default() += 1;
    }
    dplus.values().map(|&d| d * (d - 1) / 2).sum()
}

/// No pulled candidate is decoded twice, and no pushed one is skipped:
/// a pushed frame's keys are decoded whole and a pulled list is decoded
/// once per delivery, so on both engines the production path's kernel
/// candidates equal the wedge count exactly.
#[test]
fn no_pulled_candidate_is_decoded_twice() {
    let rmat = labeled(rmat_edges(&RmatConfig::graph500(8, 42))).canonicalize();
    for (gname, list) in [("rmat", rmat), ("hub", hub_graph())] {
        let wedges = wedges(&list);
        for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
            for nranks in [1, 2, 4] {
                let runs = run_survey(&list, nranks, mode, SurveyConfig::default());
                if mode == EngineMode::PushPull {
                    let pulled: u64 = runs.iter().map(|o| o.fingerprint.pulled).sum();
                    assert!(pulled > 0, "{gname} n={nranks} must exercise the pull path");
                }
                let candidates = runs[0].stats.candidates;
                assert_eq!(
                    candidates, wedges,
                    "{gname} {mode} n={nranks}: candidates against wedges"
                );
            }
        }
    }
}
