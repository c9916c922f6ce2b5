//! `remo-plan` — plan a monitoring forest from a JSON deployment spec.
//!
//! ```sh
//! remo-plan spec.json              # human-readable summary, then how
//!                                  # the search went and why it ended
//! remo-plan spec.json --dot        # Graphviz DOT of the forest
//! remo-plan spec.json --audit      # run the full rule registry
//! remo-plan spec.json --bundle     # emit a bundle for remo-audit
//! remo-plan --example              # print a starter spec
//! ```
//!
//! Observability: `--trace <file.jsonl>` writes the planner's span and
//! event trace as JSON lines; `--metrics <file.prom>` writes the
//! metrics registry in Prometheus text format. Either flag enables
//! collection for the run; summarize the files with `remo-obs dump`.

use remo::spec::{AttrSpec, DeploymentSpec, TaskSpec};
use remo_audit::{Audit, AuditBundle};
use remo_core::export::{summarize, to_dot};
use remo_core::planner::{PlanReport, StopReason};
use std::process::ExitCode;

fn example_spec() -> DeploymentSpec {
    DeploymentSpec {
        nodes: 12,
        node_capacity: 40.0,
        capacity_overrides: Default::default(),
        collector_capacity: 400.0,
        per_message_cost: 6.0,
        per_value_cost: 1.0,
        attributes: vec![
            AttrSpec {
                name: "cpu_utilization".into(),
                ..AttrSpec::default()
            },
            AttrSpec {
                name: "memory_rss".into(),
                ..AttrSpec::default()
            },
            AttrSpec {
                name: "peak_latency".into(),
                aggregation: Some("max".into()),
                frequency: None,
            },
        ],
        tasks: vec![
            TaskSpec {
                attrs: vec![0, 1],
                nodes: (0..12).collect(),
            },
            TaskSpec {
                attrs: vec![2],
                nodes: (0..6).collect(),
            },
        ],
        aggregation_aware: true,
        frequency_aware: false,
    }
}

/// Removes `name <value>` from `args` and returns the value, if the
/// flag is present.
fn take_value_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    if i + 1 >= args.len() || args[i + 1].starts_with("--") {
        return Err(format!("{name} requires a file path"));
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Writes the drained trace and/or the metrics registry to the
/// requested files.
fn write_obs_outputs(trace: Option<&str>, metrics: Option<&str>) -> Result<(), String> {
    if let Some(path) = trace {
        let records = remo_obs::drain_trace();
        std::fs::write(path, remo_obs::trace::to_jsonl(&records))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = metrics {
        let text = remo_obs::registry::registry().render_prometheus();
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

/// One line on the search behind the plan: work done and why it ended.
fn search_line(report: &PlanReport) -> String {
    let stop = match report.stop {
        StopReason::Converged => "converged".to_string(),
        StopReason::Cycle { period } => format!("state cycles with period {period}"),
        StopReason::RoundCap => "round cap".to_string(),
    };
    format!(
        "search: {} seed forests ({} abandoned), {} rounds run, {} skipped; stopped: {stop}",
        report.seeds_evaluated, report.seeds_abandoned, report.rounds, report.rounds_skipped
    )
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--example") {
        println!("{}", example_spec().to_json());
        return ExitCode::SUCCESS;
    }
    let (trace_path, metrics_path) = match (|| -> Result<_, String> {
        Ok((
            take_value_flag(&mut args, "--trace")?,
            take_value_flag(&mut args, "--metrics")?,
        ))
    })() {
        Ok(paths) => paths,
        Err(e) => {
            eprintln!("remo-plan: {e}");
            return ExitCode::FAILURE;
        }
    };
    if trace_path.is_some() || metrics_path.is_some() {
        remo_obs::enable();
    }
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!(
            "usage: remo-plan <spec.json> [--dot|--audit|--bundle] \
             [--trace <file.jsonl>] [--metrics <file.prom>] | remo-plan --example"
        );
        return ExitCode::FAILURE;
    };
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("remo-plan: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = match DeploymentSpec::from_json(&json) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("remo-plan: bad spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (plan, report) = match spec.plan_with_report() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("remo-plan: planning failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Planner activity is over: export collected observability now so
    // the files exist whichever output mode (and exit path) follows.
    if let Err(e) = write_obs_outputs(trace_path.as_deref(), metrics_path.as_deref()) {
        eprintln!("remo-plan: {e}");
        return ExitCode::FAILURE;
    }

    if args.iter().any(|a| a == "--dot") {
        print!("{}", to_dot(&plan));
    } else if args.iter().any(|a| a == "--audit" || a == "--bundle") {
        let caps = match spec.capacities() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("remo-plan: {e}");
                return ExitCode::FAILURE;
            }
        };
        let cost = match spec.cost() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("remo-plan: {e}");
                return ExitCode::FAILURE;
            }
        };
        let catalog = match spec.catalog() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("remo-plan: {e}");
                return ExitCode::FAILURE;
            }
        };
        let pairs = match spec.pairs() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("remo-plan: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut bundle = AuditBundle::new(plan, pairs, caps, cost);
        bundle.catalog = catalog;
        bundle.aggregation_aware = spec.aggregation_aware;
        bundle.frequency_aware = spec.frequency_aware;
        if args.iter().any(|a| a == "--bundle") {
            match bundle.to_json() {
                Ok(text) => println!("{text}"),
                Err(e) => {
                    eprintln!("remo-plan: cannot serialize bundle: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            let outcome = bundle.audit(&Audit::new());
            if outcome.findings.is_empty() {
                println!("audit clean: plan satisfies all rules");
            } else {
                print!("{}", outcome.render());
            }
            if !outcome.is_clean() {
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", summarize(&plan));
        println!("{}", search_line(&report));
    }
    ExitCode::SUCCESS
}
