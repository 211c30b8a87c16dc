//! `compare A.json B.json`: two result files of the `suite` command,
//! metric by metric.
//!
//! Every (end-to-end metric, workload) pair gets one row with both
//! medians and quartiles, the ratio with its base, the bound and a
//! verdict. `B` is `worse` when its median is worse than `A`'s by more
//! than the bound; a pair whose run-to-run spread on either side is
//! wider than the bound is `unresolved`, not unchanged. Per-layer
//! counts are compared exactly when both files traced the same seed.

use std::fmt::Write;

use crate::json::Json;
use crate::spec::{Better, Metric, Spec};
use crate::stats::{median, quartiles, spread};

/// Verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against the baseline `a` under `metric`'s direction and
/// bound. Fewer than two runs on a side cannot show a spread, so the
/// pair is unresolved.
pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.expect("end-to-end metrics carry a bound");
    let (Some(spread_a), Some(spread_b)) = (spread(a), spread(b)) else {
        return Verdict::Unresolved;
    };
    let (ma, mb) = (median(a), median(b));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if spread_a > bound || spread_b > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| {
            w.get(workload)?
                .get("end_to_end")?
                .get(metric)?
                .get("values")
        })
        .map(|v| v.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn layer_value(file: &Json, workload: &str, metric: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get("per_layer")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn trace_seed(file: &Json, workload: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get("trace_seed")?
        .as_f64()
}

/// A per-layer metric that is an exact count of work, bytes or
/// records — as opposed to a time, a rate or a ratio of times.
fn is_exact(metric: &Metric) -> bool {
    matches!(metric.unit.as_str(), "count" | "B") && !NOT_EXACT.contains(&metric.name.as_str())
}

/// Counts and byte figures that do not repeat from run to run at one
/// seed. How records are cut into envelopes, and how often a pooled
/// buffer is back in time to be reused, depends on when each rank's
/// flushes interleave with its peer's; the last two describe the run
/// and the host, not work done on the input.
const NOT_EXACT: [&str; 6] = [
    "graph.dodgr.build_envelopes",
    "ygm.comm.envelopes",
    "ygm.comm.bytes_per_envelope",
    "ygm.comm.pool_reuses",
    "core.service.query_samples",
    "bench.host_cores",
];

/// The comparison table and whether every row passed.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let resolved = |f: &Json| f.get("resolved").and_then(Json::as_bool).unwrap_or(true);
    let wall_resolved = resolved(a) && resolved(b);
    writeln!(
        out,
        "{:<14} {:<18} {:>13} {:>27} {:>13} {:>27} {:>22} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "quartiles A",
        "median B",
        "quartiles B",
        "B/A (base A)",
        "bound"
    )
    .unwrap();
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (va, vb) = (
                values(a, workload, &metric.name),
                values(b, workload, &metric.name),
            );
            let verdict = if metric.is_wall() && !wall_resolved {
                Verdict::Unresolved
            } else if va.is_empty() && vb.is_empty() {
                continue;
            } else {
                judge(metric, &va, &vb)
            };
            pass &= verdict == Verdict::Ok;
            let quart = |v: &[f64]| {
                quartiles(v).map_or("-".to_owned(), |q| {
                    format!("{:.4} {:.4} {:.4}", q[0], q[1], q[2])
                })
            };
            let (ma, mb) = (median(&va), median(&vb));
            writeln!(
                out,
                "{:<14} {:<18} {:>13.4} {:>27} {:>13.4} {:>27} {:>9.4} ({:>10.4}) {:>5.1}%  {}",
                workload,
                metric.name,
                ma,
                quart(&va),
                mb,
                quart(&vb),
                mb / ma,
                ma,
                100.0 * metric.bound.unwrap_or(f64::NAN),
                verdict.label()
            )
            .unwrap();
        }
    }
    writeln!(out).unwrap();
    for workload in &spec.workloads {
        let same_seed = match (trace_seed(a, workload), trace_seed(b, workload)) {
            (Some(x), Some(y)) => x == y,
            _ => continue,
        };
        if !same_seed {
            writeln!(
                out,
                "{workload}: traced at different seeds; per-layer counts are not comparable"
            )
            .unwrap();
            continue;
        }
        let mut differing = 0;
        for metric in spec.per_layer.iter().filter(|m| is_exact(m)) {
            let (x, y) = (
                layer_value(a, workload, &metric.name),
                layer_value(b, workload, &metric.name),
            );
            if x != y {
                differing += 1;
                pass = false;
                writeln!(out, "{workload}: {} differs: {x:?} vs {y:?}", metric.name).unwrap();
            }
        }
        if differing == 0 {
            writeln!(out, "{workload}: every exact per-layer count is identical").unwrap();
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: Better, bound: f64) -> Metric {
        Metric {
            name: "solve_s".into(),
            unit: "s".into(),
            better,
            bound: Some(bound),
        }
    }

    fn around(center: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| center + step * (i as f64 - 4.5)).collect()
    }

    #[test]
    fn within_the_bound_is_ok() {
        let m = metric(Better::Lower, 0.10);
        assert_eq!(
            judge(&m, &around(1.0, 0.002), &around(1.05, 0.002)),
            Verdict::Ok
        );
        // Getting better is never a regression, however large.
        assert_eq!(
            judge(&m, &around(1.0, 0.002), &around(0.5, 0.002)),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_the_bound_is_worse_in_the_metrics_direction() {
        let lower = metric(Better::Lower, 0.10);
        assert_eq!(
            judge(&lower, &around(1.0, 0.002), &around(1.2, 0.002)),
            Verdict::Worse
        );
        let higher = metric(Better::Higher, 0.10);
        assert_eq!(
            judge(&higher, &around(1.0, 0.002), &around(1.2, 0.002)),
            Verdict::Ok
        );
        assert_eq!(
            judge(&higher, &around(1.0, 0.002), &around(0.8, 0.002)),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let m = metric(Better::Lower, 0.10);
        assert_eq!(
            judge(&m, &around(1.0, 0.05), &around(1.0, 0.002)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&m, &around(1.0, 0.002), &around(1.0, 0.05)),
            Verdict::Unresolved
        );
        assert_eq!(judge(&m, &[1.0], &[1.0]), Verdict::Unresolved);
    }

    fn file(solve: &[f64], records: f64, seed: f64, resolved: bool) -> Json {
        file_with(solve, &[("ygm.comm.records", records)], seed, resolved)
    }

    fn file_with(solve: &[f64], layers: &[(&str, f64)], seed: f64, resolved: bool) -> Json {
        let values = Json::Arr(solve.iter().map(|&v| Json::from(v)).collect());
        let per_layer = layers
            .iter()
            .map(|&(name, v)| (name, Json::obj([("value", Json::from(v))])));
        Json::obj([
            ("resolved", Json::Bool(resolved)),
            (
                "workloads",
                Json::obj([(
                    "rmat_pull",
                    Json::obj([
                        ("trace_seed", Json::from(seed)),
                        (
                            "end_to_end",
                            Json::obj([("solve_s", Json::obj([("values", values)]))]),
                        ),
                        ("per_layer", Json::obj(per_layer)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn compares_result_files() {
        let spec = Spec::load();
        let a = file(&around(1.0, 0.002), 100.0, 42.0, true);
        let (table, pass) = compare(&spec, &a, &file(&around(1.02, 0.002), 100.0, 42.0, true));
        assert!(pass, "{table}");
        assert!(table.contains("rmat_pull") && table.contains("solve_s") && table.contains("ok"));
        assert!(table.contains("every exact per-layer count is identical"));

        // A count that moved fails the comparison at the same seed ...
        let (table, pass) = compare(&spec, &a, &file(&around(1.0, 0.002), 101.0, 42.0, true));
        assert!(
            !pass && table.contains("ygm.comm.records differs"),
            "{table}"
        );
        // ... and is not comparable at another.
        let (table, pass) = compare(&spec, &a, &file(&around(1.0, 0.002), 101.0, 43.0, true));
        assert!(pass && table.contains("different seeds"), "{table}");

        // A regression fails it.
        let (table, pass) = compare(&spec, &a, &file(&around(1.3, 0.002), 100.0, 42.0, true));
        assert!(!pass && table.contains("worse"), "{table}");

        // A host with fewer cores than ranks resolves no wall metric.
        let (table, pass) = compare(&spec, &a, &file(&around(1.0, 0.002), 100.0, 42.0, false));
        assert!(!pass && table.contains("unresolved"), "{table}");
    }

    #[test]
    fn counts_that_depend_on_thread_interleaving_are_not_compared() {
        let spec = Spec::load();
        // Two traced runs of one commit at one seed, as they really
        // differ: the records and bytes repeat, their cut into
        // envelopes and the pooled buffers reused do not.
        let run = |envelopes: f64, per_envelope: f64, reuses: f64, samples: f64| {
            let layers = [
                ("ygm.comm.records", 100_637.0),
                ("ygm.comm.envelopes", envelopes),
                ("ygm.comm.bytes_per_envelope", per_envelope),
                ("ygm.comm.pool_reuses", reuses),
                ("graph.dodgr.build_envelopes", envelopes + 278.0),
                ("core.service.query_samples", samples),
            ];
            file_with(&around(1.0, 0.002), &layers, 42.0, true)
        };
        let (table, pass) = compare(
            &spec,
            &run(513.0, 3391.8, 213.0, 38.0),
            &run(516.0, 3372.1, 215.0, 40.0),
        );
        assert!(
            pass && table.contains("every exact per-layer count is identical"),
            "{table}"
        );
        // Every exception names a declared metric that would otherwise
        // be compared.
        for name in NOT_EXACT {
            let metric = spec.per_layer.iter().find(|m| m.name == name);
            let metric = metric.unwrap_or_else(|| panic!("{name} is not in BENCHMARK.json"));
            assert!(matches!(metric.unit.as_str(), "count" | "B"), "{name}");
        }
    }
}
