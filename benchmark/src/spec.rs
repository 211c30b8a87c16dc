//! The benchmark's contract, read from `BENCHMARK.json`.
//!
//! The file at the repository root is the single source of workload
//! names, metric names, units, directions and bounds; it is compiled
//! into the binary so the program and the contract cannot drift apart.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression; per-layer metrics are
    /// context and have none.
    pub bound: Option<f64>,
}

impl Metric {
    /// A wall-clock time or rate: what a host with fewer cores than rank
    /// threads cannot measure, because it would time the scheduler.
    pub fn is_wall(&self) -> bool {
        self.unit == "s" || self.unit.ends_with("/s")
    }
}

/// The parsed contract.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The contract compiled into this binary.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed")
    }

    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let field = |key: &str| {
            doc.get(key)
                .ok_or_else(|| format!("BENCHMARK.json: no {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            field(key)?
                .items()
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_owned);
                    Some(Metric {
                        name: text("name")?,
                        unit: text("unit")?,
                        better: match text("better")?.as_str() {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            _ => return None,
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect::<Option<_>>()
                .ok_or_else(|| format!("BENCHMARK.json: malformed metric in {key}"))
        };
        Ok(Spec {
            run_seconds: field("run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: run_seconds is not a number")?,
            workloads: field("workloads")?
                .items()
                .iter()
                .filter_map(|w| w.get("name")?.as_str().map(str::to_owned))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The metrics one run prints: end-to-end untraced, per-layer traced.
    pub fn printed(&self, trace: bool) -> &[Metric] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_has_the_required_shape() {
        let spec = Spec::load();
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert_eq!(
            spec.workloads,
            ["rmat_pull", "web_push", "wdc_fqdn", "reddit_stream"]
        );
        assert_eq!(spec.end_to_end.len(), 10);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        for m in &spec.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            assert!(
                bound <= setup.bound.unwrap(),
                "setup_s has the largest bound"
            );
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
