//! `remo-plan` — plan a monitoring forest from a JSON deployment spec.
//!
//! ```sh
//! remo-plan spec.json              # human-readable summary, then how
//!                                  # the search went and why it ended
//! remo-plan spec.json --dot        # Graphviz DOT of the forest
//! remo-plan spec.json --audit      # run the full rule registry
//! remo-plan spec.json --bundle     # emit a bundle for remo-check audit
//! remo-plan --example              # print a starter spec
//! ```
//!
//! Observability: `--trace <file.jsonl>` writes the planner's span and
//! event trace as JSON lines; `--metrics <file.prom>` writes the
//! metrics registry in Prometheus text format. Either flag enables
//! collection for the run; summarize the files with `remo-obs dump`.
//!
//! Exit status, as for `remo-check`: 0 when the run passed (and for
//! `--help`), 1 when `--audit` found an error, 2 on a usage, I/O or
//! spec problem (an unknown option or a second spec path is a usage
//! problem).

use remo::spec::{AttrSpec, DeploymentSpec, TaskSpec};
use remo_check::AuditBundle;
use remo_core::export::{summarize, to_dot};
use remo_core::planner::{PlanReport, StopReason};
use remo_core::validate::Audit;
use remo_obs::cli::{Args, Cli};
use remo_obs::{out, outln};
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
        "search: {} seed forests ({} abandoned), {} rounds run, {} skipped, \
         {} candidates cut; stopped: {stop}",
        report.seeds_evaluated,
        report.seeds_abandoned,
        report.rounds,
        report.rounds_skipped,
        report.candidates_cut
    )
}

const CLI: Cli = Cli {
    bin: "remo-plan",
    usage: "\
usage: remo-plan <spec.json> [--dot | --audit | --bundle]
                 [--trace <file.jsonl>] [--metrics <file.prom>]
       remo-plan --example
",
};

/// The flags: of the output modes `--dot` wins over `--bundle`, which
/// wins over `--audit`; without one, the plan summary.
const FLAGS: &[&str] = &[
    "--dot",
    "--audit",
    "--bundle",
    "--trace <file.jsonl>",
    "--metrics <file.prom>",
    "--example",
];

fn main() -> ExitCode {
    let args = match CLI.args(FLAGS, "[<spec.json>]") {
        Ok(args) => args,
        Err(exit) => return exit,
    };
    if args.has("--example") {
        outln!("{}", example_spec().to_json());
        return ExitCode::SUCCESS;
    }
    let Some(path) = &args.input else {
        return CLI.usage_error("no <spec.json> given");
    };
    run(path, &args).unwrap_or_else(|message| {
        eprintln!("remo-plan: {message}");
        ExitCode::from(2)
    })
}

fn run(path: &str, args: &Args) -> Result<ExitCode, String> {
    let (trace_path, metrics_path) = (args.get("--trace"), args.get("--metrics"));
    if trace_path.is_some() || metrics_path.is_some() {
        remo_obs::enable();
    }
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let spec = DeploymentSpec::from_json(&json).map_err(|e| format!("bad spec: {e}"))?;
    let (plan, report) = spec
        .plan_with_report()
        .map_err(|e| format!("planning failed: {e}"))?;
    // Planner activity is over: export collected observability now so
    // the files exist whichever output mode (and exit path) follows.
    write_obs_outputs(trace_path, metrics_path)?;

    if args.has("--dot") {
        out!("{}", to_dot(&plan));
        return Ok(ExitCode::SUCCESS);
    }
    if !args.has("--audit") && !args.has("--bundle") {
        out!("{}", summarize(&plan));
        outln!("{}", search_line(&report));
        return Ok(ExitCode::SUCCESS);
    }
    let caps = spec.capacities().map_err(|e| e.to_string())?;
    let cost = spec.cost().map_err(|e| e.to_string())?;
    let catalog = spec.catalog()?;
    let pairs = spec.pairs().map_err(|e| e.to_string())?;
    let mut bundle = AuditBundle::new(plan, pairs, caps, cost);
    bundle.catalog = catalog;
    bundle.aggregation_aware = spec.aggregation_aware;
    bundle.frequency_aware = spec.frequency_aware;
    if args.has("--bundle") {
        let text = bundle
            .to_json()
            .map_err(|e| format!("cannot serialize bundle: {e}"))?;
        outln!("{text}");
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = bundle.audit(&Audit::new());
    if outcome.findings.is_empty() {
        outln!("audit clean: plan satisfies all rules");
    } else {
        out!("{}", outcome.render());
    }
    Ok(ExitCode::from(u8::from(!outcome.is_clean())))
}
