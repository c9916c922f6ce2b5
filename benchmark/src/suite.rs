//! `remo-benchmark suite [--seed N] [--seconds S] [--workload W] [--aa]`:
//! the one command for people. Runs every workload in its own child
//! process — an untraced pass for the end-to-end metrics, then a traced
//! pass for the per-layer metrics — fails if any output check fails,
//! and prints every metric by name with its unit.
//!
//! `--aa` runs the untraced set twice on the same build and prints both
//! columns with their relative difference; it fails when a pair differs
//! by more than that metric's bound in `BENCHMARK.json`.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{Workload, NOMINAL_SECONDS};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

struct Options {
    seed: u64,
    seconds: f64,
    workloads: Vec<Workload>,
    aa: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        seed: 1,
        seconds: NOMINAL_SECONDS,
        workloads: Workload::ALL.to_vec(),
        aa: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--aa" => o.aa = true,
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--workload" => {
                let name = value()?;
                o.workloads =
                    vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?];
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(o)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

/// The metrics of one child run, and whether its checks held.
struct Run {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn child(o: &Options, workload: Workload, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed no result ({})", workload.name(), output.status))?;
    let doc = serde_json::parse(last).map_err(|e| format!("{}: {e}", workload.name()))?;
    let Some(Value::Object(fields)) = doc.get("metrics") else {
        return Err(format!("{}: result without metrics", workload.name()));
    };
    Ok(Run {
        correct: doc.get("correct") == Some(&Value::Bool(true)) && output.status.success(),
        attempted: doc.get("attempted").and_then(number).unwrap_or(0.0),
        failed: doc.get("failed").and_then(number).unwrap_or(0.0),
        metrics: fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), number(v.get("value")?)?)))
            .collect(),
    })
}

/// `(bound, higher is better)` per end-to-end metric, from the
/// `BENCHMARK.json` in the working directory.
fn bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(items)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end".into());
    };
    Ok(items
        .iter()
        .filter_map(|m| {
            let Some(Value::Str(name)) = m.get("name") else {
                return None;
            };
            let higher = m.get("better") == Some(&Value::Str("higher".into()));
            Some((name.clone(), (number(m.get("bound")?)?, higher)))
        })
        .collect())
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let o = parse(args)?;
    let bounds = bounds()?;
    let mut ok = true;
    for &w in &o.workloads {
        println!("== {} (seed {}, {} s)", w.name(), o.seed, o.seconds);
        let a = child(&o, w, false)?;
        let b = if o.aa {
            Some(child(&o, w, false)?)
        } else {
            None
        };
        let traced = child(&o, w, true)?;
        for run in [Some(&a), b.as_ref(), Some(&traced)].into_iter().flatten() {
            ok &= run.correct;
        }
        println!(
            "  operations: {} attempted, {} failed; checks {}",
            a.attempted,
            a.failed,
            if a.correct && traced.correct {
                "passed"
            } else {
                "FAILED"
            }
        );
        for (name, unit) in END_TO_END {
            let va = a.metrics.get(*name).copied().unwrap_or(0.0);
            match &b {
                None => println!("  {name:<42} {va:>16.4} {unit}"),
                Some(b) => {
                    let vb = b.metrics.get(*name).copied().unwrap_or(0.0);
                    let (bound, higher) = bounds.get(*name).copied().unwrap_or((0.0, false));
                    // Worsening of B against A, as a share of A.
                    let worse = if higher {
                        (va - vb) / va
                    } else {
                        (vb - va) / va
                    };
                    let within = worse.abs() <= bound;
                    ok &= within;
                    println!(
                        "  {name:<42} {va:>16.4} {vb:>16.4} {unit:<6} {:>+7.2} % (bound {:.0} %){}",
                        100.0 * (vb - va) / va,
                        100.0 * bound,
                        if within { "" } else { "  OUT OF BOUND" }
                    );
                }
            }
        }
        for (name, unit) in PER_LAYER {
            let v = traced.metrics.get(*name).copied().unwrap_or(0.0);
            if v != 0.0 {
                println!("  {name:<42} {v:>16.4} {unit}");
            }
        }
    }
    println!("{}", if ok { "suite passed" } else { "suite FAILED" });
    Ok(ok)
}
