//! `suite`: a complete set of runs, written to one result file.
//!
//! Every workload runs in a process of its own (so `peak_rss_mb` is
//! the workload's, not the suite's): `runs` untraced runs at seeds
//! `seed, seed + 1, …` — the protocol the acceptance check applies —
//! and one traced run at `seed`. The file records what the numbers
//! depend on: cores, ranks, seeds, commit and compiler.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::layers::RANKS;
use crate::run::host_cores;
use crate::spec::Spec;

/// What `suite` was asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    pub runs: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Directory the traced runs write their spans to.
    pub out: Option<String>,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// One child run; returns the result object of its last stdout line.
fn child(exe: &Path, plan: &Plan, workload: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::null());
    if plan.smoke {
        cmd.arg("--smoke");
    }
    if let Some(out) = &plan.out {
        cmd.args(["--out", out]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line"))?;
    let result = Json::parse(line)?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: failed run: {line}"));
    }
    Ok(result)
}

/// Runs the suite and returns the result file's content.
pub fn suite(spec: &Spec, exe: &Path, plan: &Plan) -> Result<Json, String> {
    let cores = host_cores();
    // Fewer cores than rank threads time the scheduler, not the
    // pipeline: counts are still exact, wall metrics are not published.
    let resolved = cores >= RANKS;
    if !resolved {
        eprintln!("host has {cores} core(s) for {RANKS} rank threads: wall metrics are unresolved");
    }
    let mut workloads = Vec::new();
    for workload in &spec.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.end_to_end.len()];
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut tally = |r: &Json| {
            attempted += r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        };
        for i in 0..plan.runs {
            let r = child(exe, plan, workload, plan.seed + i, false)?;
            tally(&r);
            for (metric, values) in spec.end_to_end.iter().zip(&mut values) {
                let v = r
                    .get("metrics")
                    .and_then(|m| m.get(&metric.name)?.get("value")?.as_f64());
                match v {
                    Some(v) => values.push(v),
                    // An unresolved host prints its wall metrics as null.
                    None if !resolved && metric.is_wall() => {}
                    None => return Err(format!("{workload}: no {}", metric.name)),
                }
            }
            eprintln!("{workload}: run {} of {} done", i + 1, plan.runs);
        }
        let traced = child(exe, plan, workload, plan.seed, true)?;
        tally(&traced);
        eprintln!("{workload}: traced run done");
        let end_to_end = spec.end_to_end.iter().zip(values).map(|(m, v)| {
            let entry = Json::obj([
                ("unit", Json::str(m.unit.as_str())),
                ("runs", Json::from(v.len() as u64)),
                ("values", Json::Arr(v.into_iter().map(Json::from).collect())),
            ]);
            (m.name.as_str(), entry)
        });
        let per_layer = traced.get("metrics").cloned().unwrap_or(Json::Null);
        workloads.push((
            workload.as_str(),
            Json::obj([
                ("attempted", Json::from(attempted)),
                ("failed", Json::from(failed)),
                ("trace_seed", Json::from(plan.seed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", per_layer),
            ]),
        ));
    }
    Ok(Json::obj([
        ("host_cores", Json::from(cores as u64)),
        ("ranks", Json::from(RANKS as u64)),
        ("resolved", Json::Bool(resolved)),
        ("seed", Json::from(plan.seed)),
        ("runs", Json::from(plan.runs)),
        ("run_seconds", Json::from(plan.seconds)),
        (
            "git_head",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["-V"]))),
        ("workloads", Json::obj(workloads)),
    ]))
}
