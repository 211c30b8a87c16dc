//! Every workload at its smoke size, through the built binary: the
//! result line must carry exactly the names `BENCHMARK.json` declares,
//! and two suites of one commit must agree under `compare`.

use std::path::Path;

use std::process::Command;

use tripoll_benchmark::json::Json;
use tripoll_benchmark::spec::Spec;

fn run(workload: &str, trace: bool) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_tripoll-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0.3",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        // A knob left in the environment must not reach the library.
        .env("TRIPOLL_THREADS", "4")
        .env("TRIPOLL_BENCH_SIZE", "medium")
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line");
    (
        out.status.success(),
        Json::parse(line).expect("the last line is JSON"),
    )
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let spec = Spec::load();
    for workload in &spec.workloads {
        for trace in [false, true] {
            let (ok, result) = run(workload, trace);
            assert!(ok, "{workload} trace={trace}: {result}");
            let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

            let declared = spec.printed(trace);
            let printed = result.get("metrics").unwrap().members();
            let names =
                |it: &mut dyn Iterator<Item = &str>| it.map(str::to_owned).collect::<Vec<_>>();
            assert_eq!(
                names(&mut printed.iter().map(|(k, _)| k.as_str())),
                names(&mut declared.iter().map(|m| m.name.as_str())),
                "{workload} trace={trace}"
            );
            for ((name, entry), metric) in printed.iter().zip(declared) {
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(metric.unit.as_str())
                );
                let value = entry.get("value").and_then(Json::as_f64);
                let value = value.unwrap_or_else(|| panic!("{workload}: {name} is not a number"));
                // An end-to-end metric that reads 0 was not measured.
                assert!(trace || value > 0.0, "{workload}: {name} = {value}");
            }
        }
    }
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_tripoll-benchmark"))
        .args(["--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("the benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

fn suite(result: &Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_tripoll-benchmark"))
        .args(["suite", "--smoke", "--seed", "7", "--runs", "2"])
        .args(["--seconds", "0.3", "--result"])
        .arg(result)
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "suite failed: {stderr}");
}

#[test]
fn two_suites_of_one_commit_agree_on_every_exact_count() {
    let spec = Spec::load();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (dir.join("smoke-A.json"), dir.join("smoke-B.json"));
    suite(&a);
    suite(&b);

    let file = Json::parse(&std::fs::read_to_string(&a).unwrap()).expect("the result file is JSON");
    for key in ["host_cores", "ranks", "seed", "git_head", "rustc"] {
        assert!(file.get(key).is_some(), "the result file records {key}");
    }
    let workloads = file.get("workloads").unwrap().members();
    let names: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, spec.workloads);
    for (name, w) in workloads {
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{name}");
        for m in &spec.end_to_end {
            let runs = w
                .get("end_to_end")
                .and_then(|e| e.get(&m.name)?.get("runs"));
            assert_eq!(runs.and_then(Json::as_f64), Some(2.0), "{name}: {}", m.name);
        }
    }

    let out = Command::new(env!("CARGO_BIN_EXE_tripoll-benchmark"))
        .arg("compare")
        .args([&a, &b])
        .output()
        .expect("the benchmark binary starts");
    let table = String::from_utf8(out.stdout).expect("UTF-8 output");
    // Millisecond operations over two runs resolve no timing; what must
    // hold is a row for every pair and every exact count repeating.
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let row = table
                .lines()
                .find(|l| l.starts_with(workload.as_str()) && l.contains(&format!(" {} ", m.name)));
            assert!(row.is_some(), "no row for {workload} {}:\n{table}", m.name);
        }
        let identical = format!("{workload}: every exact per-layer count is identical");
        assert!(table.contains(&identical), "{table}");
    }
}
