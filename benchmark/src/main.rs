use std::path::PathBuf;

use tripoll_benchmark::json::Json;
use tripoll_benchmark::layers::{Size, ENV_KNOBS, RANKS};
use tripoll_benchmark::run::{host_cores, run_workload, Options};
use tripoll_benchmark::spec::Spec;
use tripoll_benchmark::{compare, suite};

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]\n\
         \x20      run.sh suite [--seed N] [--runs K] --result FILE\n\
         \x20      run.sh compare A.json B.json"
    );
    std::process::exit(2)
}

fn main() {
    // The library reads these for its defaults; measure the documented
    // default path whatever shell started the benchmark.
    for (key, _) in std::env::vars_os() {
        let name = key.to_string_lossy();
        if ENV_KNOBS.contains(&name.as_ref()) || name.starts_with("TRIPOLL_BENCH_") {
            std::env::remove_var(&key);
        }
    }
    let spec = Spec::load();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Options {
        seed: 42,
        seconds: spec.run_seconds,
        trace: false,
        size: Size::Full,
        out: None,
    };
    match args.first().map(String::as_str) {
        Some("compare") => compare_files(&spec, &args[1..]),
        Some("suite") => run_suite(&spec, &args[1..]),
        _ => {}
    }
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value() != "0",
            "--out" => opts.out = Some(PathBuf::from(value())),
            "--smoke" => opts.size = Size::Smoke,
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    // Fewer cores than rank threads time the scheduler, not the
    // pipeline: the counts are still exact, the wall metrics are withheld.
    let resolved = host_cores() >= RANKS;
    if !resolved {
        eprintln!(
            "host has {} core(s) for {RANKS} rank threads: wall metrics are unresolved and print as null",
            host_cores()
        );
    }
    let Some(outcome) = run_workload(&workload, &opts) else {
        eprintln!(
            "unknown workload {workload}; BENCHMARK.json names {:?}",
            spec.workloads
        );
        std::process::exit(2)
    };
    for (name, value) in &outcome.metrics {
        eprintln!(
            "{name:<40} {value:>18.6}  n={}",
            outcome.samples.get(name).copied().unwrap_or(1)
        );
    }
    let metrics = spec.printed(opts.trace).iter().map(|m| {
        let value = match outcome.metrics.get(m.name.as_str()) {
            Some(&v) if resolved || !m.is_wall() => Json::from(v),
            _ => Json::Null,
        };
        let entry = Json::obj([("value", value), ("unit", Json::str(m.unit.as_str()))]);
        (m.name.as_str(), entry)
    });
    let correct = outcome.failed == 0;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    std::process::exit(if correct { 0 } else { 1 })
}

fn compare_files(spec: &Spec, args: &[String]) -> ! {
    let [a, b] = args else { usage() };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2)
            })
    };
    let (table, pass) = compare::compare(spec, &read(a), &read(b));
    print!("{table}");
    std::process::exit(if pass { 0 } else { 1 })
}

fn run_suite(spec: &Spec, args: &[String]) -> ! {
    let mut plan = suite::Plan {
        seed: 42,
        runs: 10,
        seconds: spec.run_seconds,
        smoke: false,
        out: None,
    };
    let mut result = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seed" => plan.seed = value().parse().unwrap_or_else(|_| usage()),
            "--runs" => plan.runs = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => plan.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--result" => result = Some(value()),
            "--out" => plan.out = Some(value()),
            "--smoke" => plan.smoke = true,
            _ => usage(),
        }
    }
    let Some(result) = result else { usage() };
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let written = suite::suite(spec, &exe, &plan)
        .and_then(|file| std::fs::write(&result, file.pretty()).map_err(|e| e.to_string()));
    match written {
        Ok(()) => {
            eprintln!("wrote {result}");
            std::process::exit(0)
        }
        Err(e) => {
            eprintln!("suite failed: {e}");
            std::process::exit(1)
        }
    }
}
