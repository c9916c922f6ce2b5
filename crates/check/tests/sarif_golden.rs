//! Golden SARIF reports: the bytes `remo-check --sarif` writes for every
//! corpus case, every committed `mc` replay trace and one clean run per
//! analyzer must stay what `golden/sarif_digests.txt` pins.
//!
//! A SARIF report embeds no path and no clock: it is a pure function of
//! the findings (plus the rule registry every report carries), so one
//! digest per run pins it. Each line is `<analyzer> <run> <digest>
//! <codes>`, the codes being the findings' rule codes in report order
//! (`-` for none), so a mismatch says roughly what moved. The findings
//! are computed the way the CLI computes them; `proto` runs at depth 14,
//! the depth of the CLI test and of `scripts/check.sh --check-smoke`.
//!
//! Regenerate (only when a report change is intended and explained):
//! `cargo test -p remo-check --test sarif_golden -- --ignored regenerate`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_check::corpus::{audit_cases, proto_cases, static_cases};
use remo_check::sarif::sarif_json;
use remo_check::verify::verify_with_depth;
use remo_check::{analyze, explore, seeded_specs, InvariantConfig, ReplayFile, ReplayOutcome};
use remo_core::validate::{Audit, AuditOutcome, Finding};
use remo_core::CapacityMap;
use remo_runtime::spec::ProtocolSpec;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = include_str!("golden/sarif_digests.txt");
const PROTO_DEPTH: usize = 14;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every run, as (analyzer, run name, findings).
fn runs() -> Vec<(&'static str, String, Vec<Finding>)> {
    let mut out = Vec::new();
    for case in audit_cases() {
        let findings = case.input.audit(&Audit::new()).findings;
        out.push(("audit", case.name.to_string(), findings));
    }
    for case in static_cases() {
        let findings = analyze(&case.input).unwrap().findings;
        out.push(("static", case.name.to_string(), findings));
    }
    for case in proto_cases() {
        let findings = verify_with_depth(&case.input, PROTO_DEPTH).findings;
        out.push(("proto", case.name.to_string(), findings));
    }
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    let mut traces: Vec<PathBuf> = std::fs::read_dir(corpus)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    traces.sort();
    for path in traces {
        let file = ReplayFile::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let findings = match file.verify().unwrap() {
            ReplayOutcome::Violation { findings, .. } => findings,
            _ => Vec::new(),
        };
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        out.push(("mc", name, findings));
    }

    // One clean run per analyzer: the first audit case with its
    // capacities restored, the first static case with a roomy node
    // budget, the shipped protocol spec, and a small sweep.
    let mut bundle = audit_cases().remove(0).input;
    bundle.caps = CapacityMap::uniform(8, 100.0, 500.0).unwrap();
    let findings = bundle.audit(&Audit::new()).findings;
    out.push(("audit", "clean".into(), findings));
    let mut roomy = static_cases().remove(0).input;
    roomy.spec.node_capacity = 100.0;
    let findings = analyze(&roomy).unwrap().findings;
    out.push(("static", "clean".into(), findings));
    let findings = verify_with_depth(&ProtocolSpec::shipped(), PROTO_DEPTH).findings;
    out.push(("proto", "clean".into(), findings));
    let mut findings = Vec::new();
    for spec in seeded_specs().into_iter().filter(|s| s.nodes <= 4) {
        let result = explore::explore(&spec, &InvariantConfig::default(), 2).unwrap();
        findings.extend(result.violations.into_iter().flat_map(|v| v.findings));
    }
    out.push(("mc", "clean".into(), findings));
    out
}

fn table() -> String {
    let mut t = String::new();
    for (analyzer, run, findings) in runs() {
        let codes: Vec<&str> = findings.iter().map(|f| f.code.as_str()).collect();
        let codes = if codes.is_empty() {
            "-".to_string()
        } else {
            codes.join(",")
        };
        let outcome = AuditOutcome {
            findings,
            ..AuditOutcome::default()
        };
        let digest = fnv1a(sarif_json(&outcome).as_bytes());
        writeln!(t, "{analyzer} {run} {digest:016x} {codes}").unwrap();
    }
    t
}

#[test]
fn sarif_reports_match_the_pinned_digests() {
    let got = table();
    let mismatches: Vec<String> = FIXTURE
        .lines()
        .zip(got.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("want {want}\n got {got}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} reports changed:\n{}",
        mismatches.len(),
        FIXTURE.lines().count(),
        mismatches.join("\n")
    );
    assert_eq!(got.lines().count(), FIXTURE.lines().count());
}

#[test]
#[ignore = "rewrites the fixture; run only when a report change is intended"]
fn regenerate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/sarif_digests.txt"
    );
    std::fs::write(path, table()).unwrap();
}
