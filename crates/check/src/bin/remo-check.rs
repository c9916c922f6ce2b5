//! `remo-check` — the one front-end of REMO's four analyzers (see
//! [`USAGE`]). Everything an analyzer CLI needs that is not analysis
//! lives here once: `--list-rules`, `--example`, reading the input,
//! printing findings, `--sarif`, the exit code; the flags are parsed by
//! `remo_obs::cli`, the parser every binary of the workspace shares.
//! What stays per analyzer is a row of [`ANALYZERS`] and a function
//! from parsed arguments to findings.
//!
//! Exit status: 0 when the run passed (and for `--help`), 1 when a
//! finding at or above the analyzer's `fails_on` severity fired, 2 on
//! usage or I/O problems. `audit` fails on errors only (warnings are
//! advisory); `static`, `proto` and `mc` fail on any finding. An `mc replay`
//! passes when the trace reproduces the verdict recorded in its file —
//! a recorded violation included — and fails when it does not.

use remo_check::corpus::{audit_cases, proto_cases, static_cases};
use remo_check::verify::verify_with_depth;
use remo_check::{
    analyze, explore, seeded_specs, AuditBundle, InvariantConfig, ReplayFile, ReplayOutcome,
    StaticBundle, TopologySpec,
};
use remo_core::corpus::example;
use remo_core::sarif;
use remo_core::validate::{
    rule, Analyzer, Audit, AuditOutcome, Finding, RuleMeta, RuleSet, Severity, RULES,
};
use remo_obs::cli::{self, Args, Cli};
use remo_obs::{out, outln};
use remo_runtime::spec::ProtocolSpec;
use std::fmt::Write as _;
use std::process::ExitCode;

const USAGE: &str = "\
usage: remo-check audit <bundle.json> [options]
       remo-check static analyze <bundle.json>
       remo-check proto verify [<spec.json>] [--depth <n>]
       remo-check mc explore [options]
       remo-check mc replay <trace.json>
       remo-check <analyzer> --list-rules | --example [<case>]

every run:
  --sarif <out.json>        also write a SARIF-style report
  --list-rules              print the rules the analyzer owns and exit
  --example [<case>]        print a known-bad input from the corpus (by
                            case name, rule or code; default: the first)
audit (a plan bundle; exits 1 on error-severity findings only):
  --errors-only             run only error-severity rules
  --disable <rule>          skip a rule by name (repeatable)
  --severity <rule>=<level> set a rule to error|warn|info (repeatable)
static analyze ({spec, net?, net_config?, staleness_slo?} or a bare
deployment spec; exits 1 on any finding)
proto verify (default: the shipped spec; exits 1 on any finding):
  --depth <n>               bound the trace length (default: closure)
mc explore (exits 1 on any violated invariant):
  --depth <k>               event-interleaving depth bound (default 4)
  --spec <spec.json>        one topology instead of the seeded set
  --max-nodes <n>           drop seeded topologies larger than n nodes
  --pair-slack <n>          RA015 pair loss allowed after recovery (1)
  --volume-tol <f>          RA015 volume growth factor allowed (1.5)
  --replay-dir <dir>        where counterexamples are written (.)
mc replay (exits 1 unless the trace replays to its recorded verdict)
";

const CLI: Cli = Cli {
    bin: "remo-check",
    usage: USAGE,
};

/// What one run hands back to the front-end.
#[derive(Default)]
struct Run {
    /// Printed above the findings: state counts, bounds, replay paths.
    report: String,
    findings: Vec<Finding>,
    /// Owned rules the run was told to skip (`audit` only).
    disabled: usize,
    /// `mc replay` only: whether the findings match the verdict
    /// recorded in the file. Decides the exit code instead of
    /// `fails_on`, because there a reproduced violation is a pass.
    recorded: Option<bool>,
}

/// What stays per analyzer — one row per sub-command, so `mc` has two.
struct Row {
    name: &'static str,
    /// Empty when the analyzer has a single, unnamed command.
    verb: &'static str,
    owner: Analyzer,
    /// The lowest severity that fails a run.
    fails_on: Severity,
    /// `--example [<case>]`: the corpus case as JSON.
    example: fn(Option<&str>) -> Option<String>,
    /// Flags in usage form: `--name`, or `--name <value>` if it takes one.
    flags: &'static [&'static str],
    /// The input file in usage form: `<required>`, `[<optional>]` or
    /// empty when the command reads none.
    input: &'static str,
    /// The analysis, given the command line and the input file's
    /// contents (empty without one). `Err` is an I/O or input problem:
    /// one line, exit 2.
    run: fn(&Args, &str) -> Result<Run, String>,
}

const ANALYZERS: &[Row] = &[
    Row {
        name: "audit",
        verb: "",
        owner: Analyzer::Audit,
        fails_on: Severity::Error,
        example: |key| example(&audit_cases(), key),
        flags: &[
            "--errors-only",
            "--disable <rule>",
            "--severity <rule>=<level>",
        ],
        input: "<bundle.json>",
        run: audit,
    },
    Row {
        name: "static",
        verb: "analyze",
        owner: Analyzer::Static,
        fails_on: Severity::Info,
        example: |key| example(&static_cases(), key),
        flags: &[],
        input: "<bundle.json>",
        run: static_analyze,
    },
    Row {
        name: "proto",
        verb: "verify",
        owner: Analyzer::Proto,
        fails_on: Severity::Info,
        example: |key| example(&proto_cases(), key),
        flags: &["--depth <n>"],
        input: "[<spec.json>]",
        run: proto_verify,
    },
    // The mc corpus is replay files (crates/check/corpus), not inputs built
    // to trip one rule, so there is nothing for `--example` to print.
    Row {
        name: "mc",
        verb: "explore",
        owner: Analyzer::Mc,
        fails_on: Severity::Info,
        example: |_| None,
        flags: &[
            "--depth <k>",
            "--spec <spec.json>",
            "--max-nodes <n>",
            "--pair-slack <n>",
            "--volume-tol <f>",
            "--replay-dir <dir>",
        ],
        input: "",
        run: mc_explore,
    },
    Row {
        name: "mc",
        verb: "replay",
        owner: Analyzer::Mc,
        fails_on: Severity::Info,
        example: |_| None,
        flags: &[],
        input: "<trace.json>",
        run: mc_replay,
    },
];

fn owned(owner: Analyzer) -> impl Iterator<Item = &'static RuleMeta> {
    RULES.iter().filter(move |r| r.owner == owner)
}

// ----------------------------------------------------------- the analyzers

fn audit(args: &Args, text: &str) -> Result<Run, String> {
    let mut audit = Audit::new();
    if args.has("--errors-only") {
        *audit.rules_mut() = RuleSet::errors_only();
    }
    let known = |name: &str| rule(name).ok_or(format!("unknown rule `{name}`"));
    for name in args.all("--disable") {
        audit.rules_mut().disable(known(name)?.name);
    }
    for spec in args.all("--severity") {
        let (name, level) = spec
            .split_once('=')
            .ok_or("--severity needs <rule>=<level>")?;
        let severity = match level {
            "error" => Severity::Error,
            "warn" | "warning" => Severity::Warn,
            "info" | "note" => Severity::Info,
            _ => return Err(format!("unknown severity `{level}`")),
        };
        audit.rules_mut().set_severity(known(name)?.name, severity);
    }
    let bundle = AuditBundle::from_json(text)
        .map_err(|e| format!("{} is not a valid bundle: {e}", input(args)))?;
    let skipped = owned(Analyzer::Audit).filter(|r| !audit.rules().is_enabled(r.name));
    Ok(Run {
        disabled: skipped.count(),
        findings: bundle.audit(&audit).findings,
        ..Run::default()
    })
}

fn static_analyze(args: &Args, text: &str) -> Result<Run, String> {
    let path = input(args);
    let bundle =
        StaticBundle::from_json(text).map_err(|e| format!("{path} is not a valid bundle: {e}"))?;
    let report = analyze(&bundle).map_err(|e| format!("{path}: {e}"))?;
    Ok(Run {
        report: report.render(),
        findings: report.findings,
        ..Run::default()
    })
}

fn proto_verify(args: &Args, text: &str) -> Result<Run, String> {
    let spec = match &args.input {
        None => ProtocolSpec::shipped(),
        Some(path) => {
            ProtocolSpec::from_json(text).map_err(|e| format!("{path} is not a valid spec: {e}"))?
        }
    };
    let result = verify_with_depth(&spec, args.num("--depth")?.unwrap_or(100_000));
    let mut report = String::new();
    let phases = result.phases.into_iter();
    for (name, stats) in phases.chain([("total", result.totals())]) {
        let _ = writeln!(
            report,
            "{name:<6} visited {:>8}  expanded {:>8}  deduped {:>8}",
            stats.visited, stats.expanded, stats.deduped
        );
    }
    Ok(Run {
        report,
        findings: result.findings,
        ..Run::default()
    })
}

fn mc_explore(args: &Args, _: &str) -> Result<Run, String> {
    let depth = args.num("--depth")?.unwrap_or(4);
    let cfg = InvariantConfig {
        pair_slack: args.num("--pair-slack")?.unwrap_or(1),
        volume_tolerance: args.num("--volume-tol")?.unwrap_or(1.5),
    };
    let mut specs: Vec<TopologySpec> = match args.get("--spec") {
        None => seeded_specs(),
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            vec![serde_json::from_str(&text)
                .map_err(|e| format!("{path} is not a valid topology spec: {e}"))?]
        }
    };
    if let Some(cap) = args.num::<u32>("--max-nodes")? {
        specs.retain(|s| s.nodes <= cap);
        if specs.is_empty() {
            return Err(format!("--max-nodes {cap} leaves no topology to explore"));
        }
    }
    let dir = args.get("--replay-dir").unwrap_or(".");

    let mut run = Run::default();
    let mut counterexamples = 0usize;
    for spec in &specs {
        let result =
            explore::explore(spec, &cfg, depth).map_err(|e| format!("cannot plan spec: {e:?}"))?;
        let _ = writeln!(
            run.report,
            "==> n={} attrs={} seed={} scheme={:?} depth={depth}\n    \
             states: {} visited, {} expanded, {} deduplicated; violations: {}",
            spec.nodes,
            spec.attrs,
            spec.seed,
            spec.scheme,
            result.stats.visited,
            result.stats.expanded,
            result.stats.deduped,
            result.violations.len()
        );
        for v in result.violations {
            let path = format!("{dir}/remo-mc-counterexample-{counterexamples}.json");
            let file = ReplayFile::capture(spec.clone(), cfg, v.minimized);
            let text = file.to_json().map_err(|e| e.to_string())?;
            std::fs::write(&path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            counterexamples += 1;
            let _ = writeln!(
                run.report,
                "    {} finding(s), minimized to {} events → {path} \
                 (replay with `remo-check mc replay {path}`)",
                v.findings.len(),
                file.events.len()
            );
            run.findings.extend(v.findings);
        }
    }
    Ok(run)
}

fn mc_replay(args: &Args, text: &str) -> Result<Run, String> {
    let path = input(args);
    let file = ReplayFile::from_json(text)
        .map_err(|e| format!("{path} is not a valid replay file: {e}"))?;
    let (report, findings, matches) = match file.verify() {
        Ok(ReplayOutcome::Violation { findings, at_step }) => (
            format!("reproduced the recorded violation at step {at_step}"),
            findings,
            true,
        ),
        Ok(_) => ("replayed clean, as recorded".to_string(), Vec::new(), true),
        Err(mismatch) => (mismatch, Vec::new(), false),
    };
    Ok(Run {
        report: format!("{path}: {report}\n"),
        findings,
        recorded: Some(matches),
        ..Run::default()
    })
}

// ----------------------------------------------------------- the front-end

/// The input path, or `""` for a command that read none.
fn input(args: &Args) -> &str {
    args.input.as_deref().unwrap_or_default()
}

fn list_rules(owner: Analyzer) {
    let row = |code: &str, rule: &str, level: &str, paper: &str, summary: &str| {
        outln!("{code:<7} {rule:<30} {level:<8} {paper:<12} {summary}");
    };
    row("code", "rule", "level", "paper", "summary");
    for r in owned(owner) {
        let level = r.severity.to_string();
        row(r.code, r.name, &level, r.paper_section, r.summary);
    }
}

/// The two flags that print about an analyzer instead of running it.
/// Every command takes them, and they need no command word
/// (`remo-check mc --list-rules`).
const ABOUT: &[&str] = &["--list-rules", "--example [<case>]"];

fn main() -> ExitCode {
    let words = match CLI.words() {
        Ok(words) => words,
        Err(exit) => return exit,
    };
    let word = |i: usize| words.get(i).map(String::as_str);
    let mut rows = ANALYZERS.iter().filter(|r| Some(r.name) == word(0));
    let Some(first) = rows.clone().next() else {
        return CLI.usage_error("the first argument must be audit, static, proto or mc");
    };
    let needs_command = || CLI.usage_error(&format!("{} needs a command", first.name));
    let row = rows.find(|r| r.verb.is_empty() || Some(r.verb) == word(1));
    let (flags, input, rest) = match row {
        Some(row) => {
            // `--list-rules` and `--example` need no input: it is
            // checked after them.
            let input = if row.input.starts_with('<') {
                format!("[{}]", row.input)
            } else {
                row.input.to_string()
            };
            let rest = if row.verb.is_empty() { 1 } else { 2 };
            let flags = [row.flags, ABOUT, &["--sarif <out.json>"]].concat();
            (flags, input, rest)
        }
        None => (ABOUT.to_vec(), String::new(), 1),
    };
    let args = match cli::parse(&flags, &input, &words[rest..]) {
        Ok(args) => args,
        Err(_) if row.is_none() => return needs_command(),
        Err(message) => return CLI.usage_error(&message),
    };
    let fail = |message: String| {
        eprintln!("remo-check {}: {message}", first.name);
        ExitCode::from(2)
    };
    if args.has("--list-rules") {
        list_rules(first.owner);
        return ExitCode::SUCCESS;
    }
    if let Some(case) = args.get("--example") {
        let case = Some(case).filter(|c| !c.is_empty());
        return match (first.example)(case) {
            Some(text) => {
                outln!("{text}");
                ExitCode::SUCCESS
            }
            None => fail(format!("no corpus case `{}`", case.unwrap_or("*"))),
        };
    }
    let Some(row) = row else {
        return needs_command();
    };
    if args.input.is_none() && row.input.starts_with('<') {
        return CLI.usage_error(&format!("no {} given", row.input));
    }
    let text = match &args.input {
        None => String::new(),
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return fail(format!("cannot read {path}: {e}")),
        },
    };
    let run = match (row.run)(&args, &text) {
        Ok(run) => run,
        Err(message) => return fail(message),
    };

    let outcome = AuditOutcome {
        findings: run.findings,
        ..AuditOutcome::default()
    };
    if let Some(out) = args.get("--sarif") {
        if let Err(e) = std::fs::write(out, sarif::sarif_json(&outcome)) {
            return fail(format!("cannot write {out}: {e}"));
        }
    }
    out!("{}{}", run.report, outcome.render());
    let label = match &args.input {
        None => format!("{} {}", row.name, row.verb),
        Some(path) => path.clone(),
    };
    if outcome.findings.is_empty() {
        let rules = owned(row.owner).count() - run.disabled;
        outln!("{label}: clean ({rules} rules)");
    } else {
        let (all, errors) = (outcome.findings.len(), outcome.errors().count());
        outln!("{label}: {all} finding(s), {errors} error(s)");
    }
    let tripped = outcome.findings.iter().any(|f| f.severity >= row.fails_on);
    ExitCode::from(u8::from(run.recorded.map_or(tripped, |matches| !matches)))
}
