//! Bench-regression gate over `BENCH_micro.json`.
//!
//! ```text
//! cargo run -p tripoll-bench --bin bench_diff -- <baseline.json> <new.json>
//! ```
//!
//! Compares the deterministic perf proxies of a fresh bench run against
//! the committed baseline and exits non-zero on a regression:
//!
//! * `batch_layout.columnar` decode allocs-per-batch — the zero-copy
//!   receive property of the production path (a zero baseline means
//!   **any** allocation fails, not a percentage);
//! * `batch_layout.columnar` bytes-per-candidate — the communication
//!   volume of the wedge-batch frame;
//! * `intersect_kernel.compares_per_candidate` — the Auto kernel's
//!   deterministic key-compare count per candidate, summed over the
//!   fixed skew points (balanced, 10:1, 1000:1 and its reverse) — the
//!   work the gallop and blocked kernels exist to avoid;
//! * `parallel_dispatch.parallel_compares_per_candidate` — the merged
//!   compare counters of a 4-thread survey. Gated at **0%** in both
//!   directions: the parallel reduction is defined to be bit-identical
//!   to serial, so any drift is a broken stats merge, not a perf
//!   change.
//! * `node_aggregation.multicast_bytes_per_candidate` — the rpn = 4
//!   pull fan-out's wire bytes per delivered candidate, every byte
//!   counted at send time. This is the payload-dedup half of the §5.4
//!   node aggregation: a regression means `send_to_many` went back to
//!   copying the projection once per co-node rank.
//! * `snapshot_restart.snapshot_bytes` — the resident service's
//!   snapshot size for the fixed survey graph. Deterministic for a
//!   given format version; growth means the binary format got fatter
//!   (the restart timings next to it are wall-clock context and stay
//!   ungated).
//! * `incremental_ingest.delta_bytes_per_candidate` — the delta
//!   survey's wire bytes per kernel candidate after a 1% batch ingest.
//!   The delta path shares the encode-once/columnar wire with the full
//!   engines, so growth means delta wedge batches got fatter than the
//!   wedges they replace (the delta-vs-recount timings next to it are
//!   wall-clock context and stay ungated).
//!
//! Each growth gate allows 10% relative growth over the baseline;
//! wall-time numbers are deliberately *not* gated (CI machines are too
//! noisy), while allocation counts, encoded byte volumes and kernel
//! compare counters are deterministic.
//!
//! The parser is a minimal scraper for the known
//! `tripoll-bench-micro/v10` schema (the container vendors no JSON
//! crate); a baseline predating a gated section passes with a notice so
//! a gate can be adopted in the same change that introduces its
//! section.

use std::process::ExitCode;

/// Allowed relative growth of a gated metric before the gate fails.
const MAX_REGRESSION: f64 = 0.10;

/// Returns the text after the first occurrence of `"key"` in `s`.
fn after_key<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    Some(&s[s.find(&needle)? + needle.len()..])
}

/// Reads the number following `"key":` in `s` (first occurrence).
fn number_after(s: &str, key: &str) -> Option<f64> {
    let t = after_key(s, key)?;
    let t = t[t.find(':')? + 1..].trim_start();
    let end = t
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(t.len());
    t[..end].parse().ok()
}

/// Extracts `batch_layout.columnar` decode allocs-per-batch.
fn columnar_decode_allocs_per_batch(json: &str) -> Option<f64> {
    let layout = after_key(json, "batch_layout")?;
    let batches = number_after(layout, "batches")?;
    let columnar = after_key(layout, "columnar")?;
    let allocs = number_after(columnar, "decode_allocs")?;
    if batches <= 0.0 {
        return None;
    }
    Some(allocs / batches)
}

/// Extracts `batch_layout.columnar` bytes-per-candidate.
fn columnar_bytes_per_candidate(json: &str) -> Option<f64> {
    let layout = after_key(json, "batch_layout")?;
    let columnar = after_key(layout, "columnar")?;
    number_after(columnar, "bytes_per_candidate")
}

/// Extracts `intersect_kernel.compares_per_candidate` (the Auto
/// kernel's deterministic summary, first field of its section; the
/// per-kernel skew entries use a distinct key, so this scrape cannot
/// drift onto them).
fn kernel_compares_per_candidate(json: &str) -> Option<f64> {
    let section = after_key(json, "intersect_kernel")?;
    number_after(section, "compares_per_candidate")
}

/// Extracts `parallel_dispatch.parallel_compares_per_candidate` — the
/// merged kernel compare counters of a 4-thread Push-Pull survey,
/// normalized per candidate. The per-worker tallies reduce in
/// batch-index order, so the value is deterministic down to the bit.
fn parallel_compares_per_candidate(json: &str) -> Option<f64> {
    let section = after_key(json, "parallel_dispatch")?;
    number_after(section, "parallel_compares_per_candidate")
}

/// Extracts `node_aggregation.multicast_bytes_per_candidate` — the
/// rpn = 4 pull fan-out's wire bytes per delivered candidate (the
/// section's first field; the flat rpn = 1 twin uses a distinct key).
fn multicast_bytes_per_candidate(json: &str) -> Option<f64> {
    let section = after_key(json, "node_aggregation")?;
    number_after(section, "multicast_bytes_per_candidate")
}

/// Extracts `snapshot_restart.snapshot_bytes` — the resident service's
/// snapshot size for the fixed survey graph (the section's first
/// field; deterministic for a given snapshot format version).
fn snapshot_bytes(json: &str) -> Option<f64> {
    let section = after_key(json, "snapshot_restart")?;
    number_after(section, "snapshot_bytes")
}

/// Extracts `incremental_ingest.delta_bytes_per_candidate` — the delta
/// survey's wire bytes per kernel candidate at the 1% batch point (the
/// section's first field; the per-point entries use the distinct
/// `delta_bytes` key, which the quoted-needle match keeps apart even
/// though it is a prefix of this one).
fn delta_bytes_per_candidate(json: &str) -> Option<f64> {
    let section = after_key(json, "incremental_ingest")?;
    number_after(section, "delta_bytes_per_candidate")
}

/// One gated metric: compares fresh vs baseline under the shared
/// regression policy. Returns false on failure. A zero baseline is an
/// invariant, not a ratio: any growth at all fails.
fn gate(name: &str, baseline: Option<f64>, fresh: Option<f64>, new_path: &str) -> bool {
    let Some(new_v) = fresh else {
        eprintln!("bench_diff: {new_path} has no {name} metric — did the micro bench run?");
        return false;
    };
    let Some(base_v) = baseline else {
        println!(
            "bench_diff: baseline predates the {name} metric; gate passes \
             (new value {new_v:.4} — commit the fresh BENCH_micro.json to make it the reference)"
        );
        return true;
    };
    println!("{name}: baseline {base_v:.4}, new {new_v:.4}");
    let limit = if base_v == 0.0 {
        0.0
    } else {
        base_v * (1.0 + MAX_REGRESSION)
    };
    if new_v > limit {
        eprintln!(
            "bench_diff: FAIL — {name} regressed beyond {:.0}% ({base_v:.4} -> {new_v:.4})",
            MAX_REGRESSION * 100.0
        );
        return false;
    }
    println!("bench_diff: OK (limit {limit:.4})");
    true
}

/// A determinism gate: the fresh value must equal the baseline exactly
/// (0% tolerance, both directions). Used for metrics whose *identity*
/// is the invariant — the parallel merge's reduced counters — where a
/// decrease is as much a bug as an increase. The missing-baseline
/// adoption path matches [`gate`].
fn gate_exact(name: &str, baseline: Option<f64>, fresh: Option<f64>, new_path: &str) -> bool {
    let Some(new_v) = fresh else {
        eprintln!("bench_diff: {new_path} has no {name} metric — did the micro bench run?");
        return false;
    };
    let Some(base_v) = baseline else {
        println!(
            "bench_diff: baseline predates the {name} metric; gate passes \
             (new value {new_v:.4} — commit the fresh BENCH_micro.json to make it the reference)"
        );
        return true;
    };
    println!("{name}: baseline {base_v:.4}, new {new_v:.4}");
    if new_v != base_v {
        eprintln!("bench_diff: FAIL — {name} drifted ({base_v:.4} -> {new_v:.4}); tolerance is 0%");
        return false;
    }
    println!("bench_diff: OK (exact)");
    true
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, new_path] = &args[..] else {
        eprintln!("usage: bench_diff <baseline.json> <new.json>");
        return ExitCode::FAILURE;
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("bench_diff: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(fresh)) = (read(baseline_path), read(new_path)) else {
        return ExitCode::FAILURE;
    };

    let ok = [
        gate(
            "columnar recv-path allocs/batch",
            columnar_decode_allocs_per_batch(&baseline),
            columnar_decode_allocs_per_batch(&fresh),
            new_path,
        ),
        gate(
            "columnar bytes/candidate",
            columnar_bytes_per_candidate(&baseline),
            columnar_bytes_per_candidate(&fresh),
            new_path,
        ),
        gate(
            "intersect-kernel compares/candidate",
            kernel_compares_per_candidate(&baseline),
            kernel_compares_per_candidate(&fresh),
            new_path,
        ),
        gate_exact(
            "parallel-survey merged compares/candidate",
            parallel_compares_per_candidate(&baseline),
            parallel_compares_per_candidate(&fresh),
            new_path,
        ),
        gate(
            "multicast fan-out bytes/candidate",
            multicast_bytes_per_candidate(&baseline),
            multicast_bytes_per_candidate(&fresh),
            new_path,
        ),
        gate(
            "resident snapshot bytes",
            snapshot_bytes(&baseline),
            snapshot_bytes(&fresh),
            new_path,
        ),
        gate(
            "delta-wedge bytes/candidate",
            delta_bytes_per_candidate(&baseline),
            delta_bytes_per_candidate(&fresh),
            new_path,
        ),
    ]
    .into_iter()
    .all(|g| g);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "tripoll-bench-micro/v10",
  "push_path": {
    "batches": 4096,
    "materialized": {"allocs": 4096, "ns_per_batch": 700.0, "bytes": 3000000},
    "encode_once": {"allocs": 0, "ns_per_batch": 500.0, "bytes": 3000000}
  },
  "batch_layout": {
    "batches": 4096,
    "candidates_per_batch": 64,
    "columnar": {"bytes": 2953216, "bytes_per_candidate": 11.266, "encode_allocs": 0, "decode_allocs": 0, "decode_allocs_per_batch": 0.0000, "decode_scalar_walk_ns_per_batch": 900.0, "decode_scalar_walk_allocs": 0}
  },
  "intersect_kernel": {
    "compares_per_candidate": 3.75,
    "block_len": 32,
    "skews": [
      {"skew": "balanced", "left": 4096, "right": 4096, "scalar": {"ns_per_candidate": 4.1, "kernel_compares_per_candidate": 2.0, "allocs": 0, "matches_per_iter": 2048}, "auto": {"ns_per_candidate": 3.0, "kernel_compares_per_candidate": 2.1, "allocs": 0, "matches_per_iter": 2048}}
    ]
  },
  "parallel_dispatch": {
    "parallel_compares_per_candidate": 2.5000,
    "serial_compares_per_candidate": 2.5000,
    "batches": 256,
    "candidates_per_batch": 512,
    "scaling": [
      {"threads": 1, "ns_per_batch": 9000.0, "speedup": 1.00},
      {"threads": 4, "ns_per_batch": 2500.0, "speedup": 3.60}
    ]
  },
  "node_aggregation": {
    "multicast_bytes_per_candidate": 2.577,
    "flat_bytes_per_candidate": 10.055,
    "verts": 256,
    "fanout": 4,
    "flat_bytes_remote": 1317888,
    "aggregated_bytes_remote": 337664,
    "records_multicast": 1024,
    "multicast_bytes_saved": 980224,
    "flush_inline_ns_per_send": 300.0,
    "flush_overlap_ns_per_send": 280.0
  },
  "snapshot_restart": {
    "snapshot_bytes": 44374,
    "cold_ingest_ns": 4400000.0,
    "snapshot_load_ns": 460000.0,
    "restart_speedup": 9.57,
    "resident_query_ns": 7000000.0,
    "fresh_query_ns": 9000000.0,
    "query_speedup": 1.29
  },
  "incremental_ingest": {
    "delta_bytes_per_candidate": 9.125,
    "points": [
      {"batch_pct": 1, "batch_edges": 80, "delta_triangles": 120, "delta_bytes": 73000, "delta_candidates": 8000, "delta_survey_ns": 400000.0, "full_recount_ns": 7000000.0, "delta_speedup": 17.50},
      {"batch_pct": 10, "batch_edges": 800, "delta_triangles": 1400, "delta_bytes": 700000, "delta_candidates": 80000, "delta_survey_ns": 1500000.0, "full_recount_ns": 7000000.0, "delta_speedup": 4.67}
    ]
  }
}"#;

    #[test]
    fn missing_section_is_none() {
        assert_eq!(
            columnar_decode_allocs_per_batch("{\"schema\": \"v1\"}"),
            None
        );
        assert_eq!(columnar_bytes_per_candidate("{\"schema\": \"v1\"}"), None);
        assert_eq!(kernel_compares_per_candidate("{\"schema\": \"v1\"}"), None);
    }

    #[test]
    fn extracts_kernel_compares() {
        // The section-level summary, not a per-kernel skew entry.
        assert_eq!(kernel_compares_per_candidate(SAMPLE), Some(3.75));
    }

    #[test]
    fn nonzero_allocs_extracted() {
        // The decode count, not the encode count beside it nor the
        // push-path section's `allocs` before it.
        let s = SAMPLE.replace("\"decode_allocs\": 0,", "\"decode_allocs\": 2048,");
        assert_eq!(columnar_decode_allocs_per_batch(&s), Some(0.5));
    }

    #[test]
    fn extracts_columnar_metrics() {
        assert_eq!(columnar_decode_allocs_per_batch(SAMPLE), Some(0.0));
        assert_eq!(columnar_bytes_per_candidate(SAMPLE), Some(11.266));
    }

    #[test]
    fn extracts_parallel_compares() {
        // The section's own summary, not the serial twin recorded next
        // to it (quoted-needle match keeps the two keys apart).
        assert_eq!(parallel_compares_per_candidate(SAMPLE), Some(2.5));
        assert_eq!(
            parallel_compares_per_candidate("{\"schema\": \"v1\"}"),
            None
        );
        // A baseline predating the section scrapes as None (adoption).
        let pre = &SAMPLE[..SAMPLE.find("\"parallel_dispatch\"").unwrap()];
        assert_eq!(parallel_compares_per_candidate(pre), None);
    }

    #[test]
    fn extracts_multicast_bytes() {
        // The section's gated summary, not the flat rpn=1 twin (its
        // key contains this one as a suffix, but the quoted-needle
        // match keeps them apart) and not batch_layout's
        // bytes_per_candidate (the section anchor skips past it).
        assert_eq!(multicast_bytes_per_candidate(SAMPLE), Some(2.577));
        assert_eq!(multicast_bytes_per_candidate("{\"schema\": \"v1\"}"), None);
        // A baseline predating the section scrapes as None (adoption).
        let pre = &SAMPLE[..SAMPLE.find("\"node_aggregation\"").unwrap()];
        assert_eq!(multicast_bytes_per_candidate(pre), None);
    }

    #[test]
    fn extracts_snapshot_bytes() {
        // The section's gated first field, not the ns timings beside
        // it and not any earlier section's byte counters (the section
        // anchor skips past them).
        assert_eq!(snapshot_bytes(SAMPLE), Some(44374.0));
        assert_eq!(snapshot_bytes("{\"schema\": \"v1\"}"), None);
        // A baseline predating the section scrapes as None — the
        // adoption path for the gate introduced with the section.
        let pre = &SAMPLE[..SAMPLE.find("\"snapshot_restart\"").unwrap()];
        assert_eq!(snapshot_bytes(pre), None);
    }

    #[test]
    fn extracts_delta_bytes_per_candidate() {
        // The section's gated first field, not the per-point
        // `delta_bytes` entries after it (a prefix of this key, kept
        // apart by the quoted-needle match) and not any earlier
        // section's bytes/candidate (the section anchor skips them).
        assert_eq!(delta_bytes_per_candidate(SAMPLE), Some(9.125));
        assert_eq!(delta_bytes_per_candidate("{\"schema\": \"v1\"}"), None);
        // A baseline predating the section scrapes as None — the
        // adoption path for the gate introduced with the section.
        let pre = &SAMPLE[..SAMPLE.find("\"incremental_ingest\"").unwrap()];
        assert_eq!(delta_bytes_per_candidate(pre), None);
        assert_eq!(snapshot_bytes(pre), Some(44374.0));
    }

    #[test]
    fn gate_exact_policy() {
        // Bit-equality required, both directions.
        assert!(gate_exact("g", Some(2.5), Some(2.5), "x"));
        assert!(!gate_exact("g", Some(2.5), Some(2.5001), "x"));
        assert!(!gate_exact("g", Some(2.5), Some(2.4999), "x"));
        // Adoption path: metric missing from the baseline passes.
        assert!(gate_exact("g", None, Some(2.5), "x"));
        // Metric missing from the fresh run fails.
        assert!(!gate_exact("g", Some(2.5), None, "x"));
    }

    #[test]
    fn gate_policy() {
        // Zero baseline: any allocation fails.
        assert!(gate("g", Some(0.0), Some(0.0), "x"));
        assert!(!gate("g", Some(0.0), Some(0.001), "x"));
        // Nonzero baseline: 10% headroom.
        assert!(gate("g", Some(10.0), Some(10.9), "x"));
        assert!(!gate("g", Some(10.0), Some(11.1), "x"));
        // Adoption path: metric missing from the baseline passes.
        assert!(gate("g", None, Some(5.0), "x"));
        // Metric missing from the fresh run fails.
        assert!(!gate("g", Some(1.0), None, "x"));
    }
}
