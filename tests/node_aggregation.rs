//! Differential test of the node-aggregation transport against the flat
//! one: `ranks_per_node` and the overlapped transport stage may reshape
//! the wire, never the survey.

mod common;

use common::{hub_graph, run_survey_with_comm};
use tripoll::core::{EngineMode, SurveyConfig};
use tripoll::ygm::CommConfig;

/// Node aggregation (`ranks_per_node` ∈ {1, 2, 4}) crossed with the
/// overlapped transport stage, against the flat rpn=1 reference, on the
/// pull-heavy hub topology at even and odd world sizes. Two tiers of
/// invariance:
///
/// * across **rpn**: triangle counts, metadata checksums, handler/work
///   totals, pull accounting and per-phase record totals are identical
///   — only the remote/local split and wire bytes may move (that is
///   the documented wire change multicast makes);
/// * across **overlap** at fixed rpn: the *full* send fingerprint is
///   bit-identical — the transport stage changes when envelopes are
///   handed to the channel, never what is sent.
#[test]
fn node_aggregation_and_overlap_matrix_preserves_surveys() {
    let list = hub_graph();
    let run = |nranks, mode, rpn, overlap| {
        run_survey_with_comm(
            &list,
            nranks,
            mode,
            SurveyConfig::default(),
            CommConfig {
                ranks_per_node: rpn,
                overlap_flush: Some(overlap),
                ..Default::default()
            },
        )
    };
    for nranks in [4usize, 7] {
        for mode in [EngineMode::PushOnly, EngineMode::PushPull] {
            let reference = run(nranks, mode, 1, false);
            for rpn in [1usize, 2, 4] {
                let off = run(nranks, mode, rpn, false);
                let on = run(nranks, mode, rpn, true);
                for (overlap, runs) in [(false, &off), (true, &on)] {
                    for (rank, (o, r)) in runs.iter().zip(reference.iter()).enumerate() {
                        let ctx =
                            format!("{mode} n={nranks} rpn={rpn} overlap={overlap} rank {rank}");
                        assert_eq!(o.count, r.count, "triangle count [{ctx}]");
                        assert_eq!(o.checksum, r.checksum, "metadata checksum [{ctx}]");
                        let (of, rf) = (&o.fingerprint, &r.fingerprint);
                        assert_eq!(of.handlers_total, rf.handlers_total, "handlers [{ctx}]");
                        assert_eq!(of.work_total, rf.work_total, "work total [{ctx}]");
                        assert_eq!(of.pulled, rf.pulled, "pulled [{ctx}]");
                        assert_eq!(of.grants, rf.grants, "grants [{ctx}]");
                        assert_eq!(
                            of.phase_record_totals(),
                            rf.phase_record_totals(),
                            "per-phase record totals [{ctx}]"
                        );
                    }
                }
                for (rank, (a, b)) in off.iter().zip(on.iter()).enumerate() {
                    assert_eq!(
                        a.fingerprint, b.fingerprint,
                        "overlap must not reshape the wire [{mode} n={nranks} rpn={rpn} rank {rank}]"
                    );
                }
            }
        }
    }
}
