//! End-to-end checks of the `remo-check` binary, table-driven over the
//! four analyzers: every corpus case through `--example` → file → run,
//! clean inputs, rule listing and toggling, and the exit-code contract
//! (0 passed, 1 a finding at or above the analyzer's `fails_on`, 2
//! usage or I/O).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_check::corpus::{audit_cases, proto_cases, static_cases, Case};
use remo_core::validate::{rule, Analyzer, Severity, RULES};
use remo_core::CapacityMap;
use serde_json::Value;
use std::collections::BTreeSet;
use std::process::{Command, Output};

#[path = "../../../tests/cli_contract.rs"]
mod cli_contract;

/// (case name, rule name, code) of a corpus.
fn names<T>(cases: Vec<Case<T>>) -> Vec<[&'static str; 3]> {
    cases.iter().map(|c| [c.name, c.rule, c.code]).collect()
}

type Words = &'static [&'static str];

/// Per analyzer: the words that invoke a run, the owner tag, the
/// documented `fails_on`, and the corpus.
fn rows() -> [(Words, Analyzer, Severity, Vec<[&'static str; 3]>); 4] {
    use Severity::{Error, Info};
    let audit = names(audit_cases());
    let stat = names(static_cases());
    let proto = names(proto_cases());
    // Depth 14 reaches every protocol corpus bug and keeps debug runs fast.
    let verify: Words = &["proto", "verify", "--depth", "14"];
    [
        (&["audit"], Analyzer::Audit, Error, audit),
        (&["static", "analyze"], Analyzer::Static, Info, stat),
        (verify, Analyzer::Proto, Info, proto),
        (&["mc", "replay"], Analyzer::Mc, Info, Vec::new()),
    ]
}

fn check(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_remo-check");
    Command::new(bin).args(args).output().unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// A path in a scratch directory of this test (tests run in parallel
/// threads of one process, so the thread id keeps them apart).
fn scratch(name: &str) -> String {
    let test = format!("{}-{:?}", std::process::id(), std::thread::current().id());
    let dir = std::env::temp_dir().join(format!("remo-check-cli-{test}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_str().unwrap().to_string()
}

fn write(name: &str, text: &str) -> String {
    let path = scratch(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// `remo-check <analyzer> --example [<case>]`, saved to a file.
fn example(analyzer: &str, case: &[&str]) -> String {
    let out = check(&[&[analyzer, "--example"], case].concat());
    assert_eq!(out.status.code(), Some(0), "{analyzer} {case:?}: {out:?}");
    write(&format!("{analyzer}-{}.json", case.concat()), &stdout(&out))
}

/// Runs every row and checks its exit code and a stdout fragment.
fn expect(table: &[(&[&str], i32, &str)]) {
    for (args, exit, needle) in table {
        let out = check(args);
        assert_eq!(out.status.code(), Some(*exit), "{args:?}: {out:?}");
        assert!(stdout(&out).contains(needle), "{args:?}: {out:?}");
    }
}

/// The distinct `ruleId`s of a SARIF report.
fn rule_ids(sarif_path: &str) -> BTreeSet<String> {
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(sarif_path).unwrap()).unwrap();
    assert_eq!(doc.get("version"), Some(&Value::Str("2.1.0".to_string())));
    let Some(Value::Array(runs)) = doc.get("runs") else {
        panic!("{sarif_path}: no runs");
    };
    let Some(Value::Array(results)) = runs[0].get("results") else {
        panic!("{sarif_path}: no results");
    };
    let ids = results.iter().map(|r| match r.get("ruleId") {
        Some(Value::Str(id)) => id.clone(),
        other => panic!("{sarif_path}: bad ruleId {other:?}"),
    });
    ids.collect()
}

/// The `over-budget` corpus bundle with its capacities restored.
fn clean_bundle() -> String {
    let mut bundle = audit_cases().remove(0).input;
    bundle.caps = CapacityMap::uniform(8, 100.0, 500.0).unwrap();
    write("clean.json", &bundle.to_json().unwrap())
}

fn mc_corpus(file: &str) -> String {
    format!("{}/corpus/{file}", env!("CARGO_MANIFEST_DIR"))
}

/// Every corpus case of every analyzer: `--example <case>` → file →
/// run with `--sarif`. The exit code follows the analyzer's `fails_on`
/// and the SARIF names exactly the case's code.
#[test]
fn corpus_cases_exit_by_fails_on_and_write_sarif() {
    let mut exits = Vec::new();
    for (run, _, fails_on, corpus) in rows() {
        for [name, rule_name, code] in corpus {
            let path = example(run[0], &[name]);
            let sarif = scratch(&format!("{name}.sarif.json"));
            let out = check(&[run, &[&path, "--sarif", &sarif]].concat());
            let fails = rule(rule_name).unwrap().severity >= fails_on;
            assert_eq!(out.status.code(), Some(i32::from(fails)), "{name}: {out:?}");
            assert_eq!(rule_ids(&sarif), [code.to_string()].into(), "{name}");
            let line = format!("[{code}] {rule_name}");
            assert!(stdout(&out).contains(&line), "{name}: {out:?}");
            exits.push((name, i32::from(fails)));
        }
    }
    // The documented difference, pinned on warn-only inputs: `audit`
    // fails on errors only, `static` on any finding.
    assert!(exits.contains(&("unmeetable-staleness-slo", 0)), "RA017");
    assert!(exits.contains(&("degrade-divergence", 1)), "RA020");
    assert_eq!(exits.len(), 10 + 4 + 7);

    // A replay that reproduces its recorded violation passes, and
    // still reports what it reproduced.
    let sarif = scratch("replay.sarif.json");
    let trace = mc_corpus("violation-recovery-convergence.json");
    expect(&[(&["mc", "replay", &trace, "--sarif", &sarif], 0, "[RA015]")]);
    assert_eq!(rule_ids(&sarif), ["RA015".to_string()].into());
}

/// `--example` without a case prints the corpus's first entry, which
/// fails its analyzer when fed back.
#[test]
fn example_bundle_feeds_back_into_the_cli() {
    for (run, _, _, corpus) in rows() {
        let Some([_, _, first]) = corpus.first() else {
            let out = check(&[run[0], "--example"]);
            assert_eq!(out.status.code(), Some(2), "mc has no example corpus");
            continue;
        };
        let path = example(run[0], &[]);
        let named = std::fs::read_to_string(example(run[0], &[first])).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), named);
        expect(&[(&[run, &[path.as_str()]].concat(), 1, first)]);
    }
}

/// One clean input per analyzer exits 0, and the summary counts the
/// rules that ran — the analyzer's own, minus the disabled ones.
#[test]
fn clean_bundle_exits_zero() {
    let bundle = clean_bundle();
    // A bare deployment spec, the shape `remo-plan --example` prints.
    let mut roomy = static_cases().remove(0).input;
    roomy.spec.node_capacity = 100.0;
    let spec = serde_json::to_string_pretty(&roomy.spec).unwrap();
    let spec = write("spec.json", &spec);
    let trace = mc_corpus("clean-single-failure-cycle.json");
    let dir = scratch("replays");
    std::fs::create_dir_all(&dir).unwrap();
    let b = bundle.as_str();
    let explore = ["mc", "explore", "--depth", "2", "--replay-dir", &dir];
    expect(&[
        (&["audit", b], 0, ": clean (13 rules)\n"),
        (&["audit", b, "--disable", "relay-only"], 0, "(12 rules)"),
        (&["audit", b, "--errors-only"], 0, ": clean (8 rules)\n"),
        (&["static", "analyze", &spec], 0, ": clean (4 rules)\n"),
        (&["proto", "verify", "--depth", "14"], 0, "(4 rules)"),
        (&["mc", "replay", &trace], 0, ": clean (4 rules)\n"),
        (
            &[&explore[..], &["--max-nodes", "4"]].concat(),
            0,
            "4 rules",
        ),
    ]);
}

#[test]
fn disabling_the_rule_silences_the_finding() {
    let over = example("audit", &["capacity-budget"]);
    let slo = example("audit", &["staleness-bound"]);
    let disable = ["--disable", "capacity-budget"];
    expect(&[
        (&[&["audit", &over], &disable[..]].concat(), 0, "(12 rules)"),
        // An error rule survives --errors-only; a warning rule does not.
        (&["audit", &over, "--errors-only"], 1, "error[RA001]"),
        (&["audit", &slo, "--errors-only"], 0, "clean (8 rules)"),
    ]);
}

#[test]
fn severity_override_demotes_to_warning() {
    let over = example("audit", &["RA001"]);
    // Still reported, but no longer fails the audit.
    let demote = ["audit", &over, "--severity", "capacity-budget=warn"];
    expect(&[(&demote, 0, "warning[RA001]")]);
}

/// `--list-rules` prints exactly the rows the analyzer owns; the four
/// listings together cover the registry once.
#[test]
fn list_rules_covers_the_registry() {
    let mut listed = Vec::new();
    for (run, owner, _, _) in rows() {
        let out = check(&[run[0], "--list-rules"]);
        assert_eq!(out.status.code(), Some(0));
        let text = stdout(&out);
        let rows: Vec<[&str; 2]> = text.lines().skip(1).map(|l| [&l[..5], &l[8..38]]).collect();
        let owned = RULES.iter().filter(|r| r.owner == owner);
        let owned: Vec<[&str; 2]> = owned.map(|r| [r.code, r.name]).collect();
        assert_eq!(rows.len(), owned.len(), "{}", run[0]);
        for (row, [code, name]) in rows.iter().zip(&owned) {
            assert_eq!([row[0], row[1].trim_end()], [*code, *name]);
        }
        listed.extend(owned.iter().map(|o| o[0]));
    }
    listed.sort_unstable();
    assert_eq!(listed, RULES.iter().map(|r| r.code).collect::<Vec<_>>());
}

/// Usage problems print the usage; I/O and input problems print one
/// line; both exit 2.
#[test]
fn usage_problems_exit_two() {
    let garbage = write("garbage.json", "{ not json");
    let clean = clean_bundle();
    let table: [(&[&str], bool); 20] = [
        (&[], true),
        (&["lint"], true),
        (&["audit"], true),
        (&["static", "bundle.json"], true),
        (&["proto", "verify", "--bogus"], true),
        (&["mc"], true),
        (&["mc", "explore", "--bogus"], true),
        (&["mc", "replay"], true),
        (&["audit", &clean, "--sarif"], true),
        (&["audit", "/nonexistent/bundle.json"], false),
        (&["audit", &garbage], false),
        (&["audit", &clean, "--disable", "not-a-rule"], false),
        (&["audit", &clean, "--severity", "relay-only=loud"], false),
        (&["static", "analyze", "/nonexistent/bundle.json"], false),
        (&["static", "analyze", &garbage], false),
        (&["proto", "verify", &garbage], false),
        (&["proto", "verify", "--depth", "deep"], false),
        (&["proto", "--example", "no-such-case"], false),
        (&["mc", "replay", &garbage], false),
        (&["mc", "explore", "--spec", "/nonexistent.json"], false),
    ];
    for (args, usage) in table {
        let out = check(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let text = String::from_utf8(out.stderr).unwrap();
        assert!(text.starts_with("remo-check"), "{args:?}: {text}");
        assert_eq!(text.contains("usage: remo-check"), usage, "{args:?}");
        assert!(usage || text.lines().count() == 1, "{args:?}: {text}");
    }
}

#[test]
fn remo_check_keeps_the_cli_contract() {
    let bin = cli_contract::Bin {
        exe: env!("CARGO_BIN_EXE_remo-check"),
        name: "remo-check",
        lead: &["mc", "explore"],
        valued: "--depth",
    };
    let stray: &[&str] = &["mc", "explore", "stray.json"];
    // `--list-rules` is a flag, not a word found anywhere: here it is
    // the missing value of `--disable`.
    let valueless: &[&str] = &["audit", "b.json", "--disable", "--list-rules"];
    cli_contract::keeps_the_contract(&bin, &[&[], &["proto"], stray, valueless]);
    let printing: [&[&str]; 3] = [
        &["audit", "--list-rules"],
        &["audit", "--example"],
        &["mc", "explore", "--depth", "1"],
    ];
    cli_contract::survives_a_closed_stdout(&bin, &printing);
}
