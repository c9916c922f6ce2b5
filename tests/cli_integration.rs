//! End-to-end tests of the `remo-plan` CLI binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

mod cli_contract;

fn remo_plan() -> Command {
    Command::new(env!("CARGO_BIN_EXE_remo-plan"))
}

#[test]
fn example_spec_round_trips_through_planning() {
    let out = remo_plan().arg("--example").output().expect("run");
    assert!(out.status.success());
    let spec_json = String::from_utf8(out.stdout).expect("utf8");
    assert!(spec_json.contains("\"nodes\""));

    let dir = std::env::temp_dir().join("remo-plan-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, &spec_json).unwrap();

    // Summary mode.
    let out = remo_plan().arg(&path).output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("monitoring plan:"), "summary output: {text}");
    assert!(text.contains("coverage"));
    // The summary ends with how the search went and why it stopped.
    let search = text.lines().last().unwrap();
    assert!(search.starts_with("search: "), "summary output: {text}");
    assert!(search.contains(" abandoned), "), "summary output: {text}");
    assert!(
        search.contains(" candidates cut; "),
        "summary output: {text}"
    );
    assert!(
        search.contains("stopped: converged"),
        "summary output: {text}"
    );

    // DOT mode.
    let out = remo_plan().arg(&path).arg("--dot").output().expect("run");
    assert!(out.status.success());
    let dot = String::from_utf8(out.stdout).unwrap();
    assert!(dot.starts_with("digraph monitoring"));
    assert!(dot.contains("collector"));

    // Audit mode.
    let out = remo_plan().arg(&path).arg("--audit").output().expect("run");
    assert!(out.status.success());
    let audit = String::from_utf8(out.stdout).unwrap();
    assert!(audit.contains("audit clean"), "audit output: {audit}");
}

#[test]
fn trace_and_metrics_flags_write_parseable_exports() {
    let out = remo_plan().arg("--example").output().expect("run");
    assert!(out.status.success());
    let dir = std::env::temp_dir().join("remo-plan-test-obs");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    std::fs::write(&spec, &out.stdout).unwrap();
    let trace = dir.join("out.jsonl");
    let metrics = dir.join("out.prom");

    // Flag order must not matter: values before the spec path.
    let out = remo_plan()
        .arg("--trace")
        .arg(&trace)
        .arg("--metrics")
        .arg(&metrics)
        .arg(&spec)
        .output()
        .expect("run");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("monitoring plan:"), "summary still prints");

    let jsonl = std::fs::read_to_string(&trace).unwrap();
    let summary = remo_obs::summary::parse_trace(&jsonl).expect("trace parses");
    for phase in ["planner.seed", "planner.local"] {
        assert!(summary.spans.contains_key(phase), "missing span {phase}");
    }
    let prom = std::fs::read_to_string(&metrics).unwrap();
    let samples = remo_obs::summary::parse_prometheus(&prom).expect("metrics parse");
    assert_eq!(samples["remo_planner_plans_total"], 1.0);

    // A value-less flag is a usage error, not a mis-parsed spec path.
    let out = remo_plan().arg(&spec).arg("--trace").output().expect("run");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--trace requires"), "stderr: {err}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = remo_plan()
        .arg("/nonexistent/spec.json")
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read"));
}

#[test]
fn malformed_spec_fails_cleanly() {
    let dir = std::env::temp_dir().join("remo-plan-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, "{\"nodes\": }").unwrap();
    let out = remo_plan().arg(&path).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("bad spec"));
}

#[test]
fn no_arguments_prints_usage() {
    let out = remo_plan().output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("usage:"));

    // A mistyped option and a second spec path are usage errors too,
    // not a summary of the first spec.
    let dir = std::env::temp_dir().join("remo-plan-test-usage");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = dir.join("spec.json");
    let example = remo_plan().arg("--example").output().expect("run");
    std::fs::write(&spec, &example.stdout).unwrap();
    for (args, says) in [
        (
            vec![spec.clone(), "--audti".into()],
            "unknown option `--audti`",
        ),
        (
            vec![spec.clone(), spec.clone(), "--dot".into()],
            "more than one",
        ),
    ] {
        let out = remo_plan().args(&args).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(says) && err.contains("usage:"), "{err}");
    }
}

#[test]
fn remo_plan_keeps_the_cli_contract() {
    let bin = cli_contract::Bin {
        exe: env!("CARGO_BIN_EXE_remo-plan"),
        name: "remo-plan",
        lead: &[],
        valued: "--metrics",
    };
    cli_contract::keeps_the_contract(&bin, &[&[], &["a.json", "b.json"], &["--dot"]]);
    cli_contract::survives_a_closed_stdout(&bin, &[&["--example"]]);
}
