//! The shape of a known-bad corpus, shared by the audit, static and
//! protocol analyzers: each [`Case`] is an input engineered to trip
//! exactly one rule. The fixture builders — the actual tampering —
//! live with the analyzer that owns the rule; what is written once
//! here is the type, the `--example` lookup, and the law every corpus
//! must obey ([`check`]).

use crate::validate::{rule, Finding};
use serde::{Deserialize, Serialize};

/// One known-bad input and the single rule it must trip.
#[derive(Debug, Clone)]
pub struct Case<T> {
    /// Short, stable case name.
    pub name: &'static str,
    /// The rule every finding must carry (kebab-case name).
    pub rule: &'static str,
    /// The rule's stable `RA…` code.
    pub code: &'static str,
    /// What was corrupted and why it is wrong.
    pub why: &'static str,
    /// The offending input, as the analyzer consumes it.
    pub input: T,
}

/// The pretty JSON of the case matching `key` by name, rule name or
/// code — the first case when `key` is `None`. This is what
/// `remo-check <analyzer> --example [<case>]` prints.
pub fn example<T: Serialize>(cases: &[Case<T>], key: Option<&str>) -> Option<String> {
    let case = cases
        .iter()
        .find(|c| key.is_none_or(|k| c.name == k || c.rule == k || c.code == k))?;
    serde_json::to_string_pretty(&case.input).ok()
}

/// The corpus law: every case names a registered rule, trips that
/// rule's code and *only* that code, and still does — finding for
/// finding — after a round-trip through its `--example` JSON.
///
/// # Panics
///
/// On the first case that breaks the law; this is test support.
pub fn check<T: Serialize + Deserialize>(cases: &[Case<T>], run: impl Fn(&T) -> Vec<Finding>) {
    for case in cases {
        let name = case.name;
        assert_eq!(
            rule(case.rule).map(|r| r.code),
            Some(case.code),
            "case `{name}` names an unregistered rule/code pair"
        );
        let findings = run(&case.input);
        assert!(!findings.is_empty(), "case `{name}` tripped nothing");
        for f in &findings {
            assert_eq!(
                (f.rule.as_str(), f.code.as_str()),
                (case.rule, case.code),
                "case `{name}` ({}) tripped a foreign rule: {f}",
                case.why
            );
        }
        let back = serde_json::to_string_pretty(&case.input)
            .and_then(|text| serde_json::from_str::<T>(&text))
            .unwrap_or_else(|e| panic!("case `{name}` does not survive JSON: {e}"));
        assert_eq!(run(&back), findings, "case `{name}` changed across JSON");
    }
}
