//! SARIF-style machine-readable report rendering.
//!
//! The output follows the shape of SARIF 2.1.0 (`runs[].tool.driver.
//! rules[]` for the registry, `runs[].results[]` for findings) so it
//! slots into existing result viewers; the tree/node/attribute and
//! actual/limit figures that SARIF has no first-class home for ride
//! in `properties` bags. Keys are assembled by hand because the
//! vendored serde stand-in has no field renaming for camelCase.

use remo_core::validate::{AuditOutcome, Severity, RULES};
use serde::Value;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn text_block(text: &str) -> Value {
    obj(vec![("text", s(text))])
}

fn level(severity: Severity) -> Value {
    s(match severity {
        Severity::Error => "error",
        Severity::Warn => "warning",
        Severity::Info => "note",
    })
}

/// Renders the full rule registry as SARIF `tool.driver.rules`.
fn rules_value() -> Value {
    Value::Array(
        RULES
            .iter()
            .map(|r| {
                obj(vec![
                    ("id", s(r.code)),
                    ("name", s(r.name)),
                    ("shortDescription", text_block(r.summary)),
                    ("help", text_block(r.fix_hint)),
                    (
                        "defaultConfiguration",
                        obj(vec![("level", level(r.severity))]),
                    ),
                    (
                        "properties",
                        obj(vec![("paperSection", s(r.paper_section))]),
                    ),
                ])
            })
            .collect(),
    )
}

/// Converts an audit outcome into a SARIF-style [`Value`] tree.
pub fn to_sarif(outcome: &AuditOutcome) -> Value {
    let results = Value::Array(
        outcome
            .findings
            .iter()
            .map(|f| {
                let mut props = Vec::new();
                if let Some(t) = f.tree {
                    props.push(("tree".to_string(), Value::U64(t as u64)));
                }
                if let Some(n) = f.node {
                    props.push(("node".to_string(), Value::U64(u64::from(n.0))));
                }
                if let Some(a) = f.attr {
                    props.push(("attr".to_string(), Value::U64(u64::from(a.0))));
                }
                if let Some(x) = f.actual {
                    props.push(("actual".to_string(), Value::F64(x)));
                }
                if let Some(x) = f.limit {
                    props.push(("limit".to_string(), Value::F64(x)));
                }
                obj(vec![
                    ("ruleId", s(&f.code)),
                    ("level", level(f.severity)),
                    ("message", text_block(&f.message)),
                    ("properties", Value::Object(props)),
                ])
            })
            .collect(),
    );
    obj(vec![
        (
            "$schema",
            s("https://json.schemastore.org/sarif-2.1.0.json"),
        ),
        ("version", s("2.1.0")),
        (
            "runs",
            Value::Array(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("remo-check")),
                            ("informationUri", s("https://example.com/remo")),
                            ("rules", rules_value()),
                        ]),
                    )]),
                ),
                ("results", results),
            ])]),
        ),
    ])
}

/// Renders an audit outcome as pretty-printed SARIF JSON.
pub fn sarif_json(outcome: &AuditOutcome) -> String {
    serde_json::to_string_pretty(&to_sarif(outcome)).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use remo_core::validate::Finding;
    use remo_core::NodeId;

    #[test]
    fn sarif_report_has_registry_and_results() {
        let outcome = AuditOutcome {
            findings: vec![Finding {
                rule: "capacity-budget".to_string(),
                code: "RA001".to_string(),
                severity: Severity::Error,
                message: "node n3 uses 12.50 of budget 10.00".to_string(),
                tree: Some(0),
                node: Some(NodeId(3)),
                attr: None,
                actual: Some(12.5),
                limit: Some(10.0),
                fix_hint: "raise the budget".to_string(),
            }],
            ..AuditOutcome::default()
        };
        let text = sarif_json(&outcome);
        let parsed = serde_json::parse(&text).expect("valid JSON");
        assert!(text.contains("\"ruleId\": \"RA001\""), "{text}");
        assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
        // Every registry rule appears under tool.driver.rules.
        for r in RULES {
            assert!(text.contains(r.code), "missing {} in report", r.code);
        }
        assert!(matches!(parsed, Value::Object(_)));
    }

    #[test]
    fn clean_outcome_renders_empty_results() {
        let text = sarif_json(&AuditOutcome::default());
        assert!(text.contains("\"results\": []"), "{text}");
    }
}
