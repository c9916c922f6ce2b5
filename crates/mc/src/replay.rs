//! The serializable replay format: a minimized counterexample (or a
//! known-clean trace) as a self-contained regression test.
//!
//! A replay file pins the topology spec, the invariant tolerances the
//! trace was found under, the event sequence, and the expected
//! verdict. `remo-check mc replay <file>` re-runs it through the same
//! harness and compares; the committed `corpus/` directory is a suite
//! of these.

use crate::harness::{Event, InvariantConfig};
use crate::minimize::{replay_events, ReplayOutcome};
use crate::topology::TopologySpec;
use serde::{Deserialize, Serialize};

/// Expected verdict of a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Every event applies and no invariant fires.
    Clean,
    /// An error-severity invariant fires at some step.
    Violation,
}

/// What a replay file asserts about its trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Expectation {
    /// The expected verdict.
    pub verdict: Verdict,
    /// For violations: the rule that must be among the findings.
    #[serde(default)]
    pub rule: Option<String>,
}

/// A self-contained replayable trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayFile {
    /// The topology the trace runs on.
    pub spec: TopologySpec,
    /// Invariant tolerances in force.
    pub invariants: InvariantConfig,
    /// The event sequence.
    pub events: Vec<Event>,
    /// The asserted outcome.
    pub expect: Expectation,
}

impl ReplayFile {
    /// Wraps a trace with the verdict it currently produces.
    pub fn capture(spec: TopologySpec, invariants: InvariantConfig, events: Vec<Event>) -> Self {
        let expect = match replay_events(&spec, &invariants, &events) {
            ReplayOutcome::Violation { findings, .. } => Expectation {
                verdict: Verdict::Violation,
                rule: findings.first().map(|f| f.rule.clone()),
            },
            _ => Expectation {
                verdict: Verdict::Clean,
                rule: None,
            },
        };
        ReplayFile {
            spec,
            invariants,
            events,
            expect,
        }
    }

    /// Re-runs the trace and checks it against the expectation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable mismatch description: wrong verdict,
    /// missing expected rule, or a non-applicable event.
    pub fn verify(&self) -> Result<ReplayOutcome, String> {
        let outcome = replay_events(&self.spec, &self.invariants, &self.events);
        match (&outcome, self.expect.verdict) {
            (ReplayOutcome::Invalid { at_step }, _) => Err(format!(
                "event {} (`{}`) is not enabled at step {at_step}",
                at_step, self.events[*at_step]
            )),
            (ReplayOutcome::Clean, Verdict::Clean) => Ok(outcome),
            (ReplayOutcome::Violation { findings, at_step }, Verdict::Violation) => {
                if let Some(rule) = &self.expect.rule {
                    if !findings.iter().any(|f| &f.rule == rule) {
                        return Err(format!(
                            "violation at step {at_step} fired {:?}, expected rule `{rule}`",
                            findings.iter().map(|f| f.rule.as_str()).collect::<Vec<_>>()
                        ));
                    }
                }
                Ok(outcome)
            }
            (ReplayOutcome::Clean, Verdict::Violation) => {
                Err("trace replayed clean but a violation was expected".to_string())
            }
            (ReplayOutcome::Violation { findings, at_step }, Verdict::Clean) => Err(format!(
                "trace was expected clean but violated {:?} at step {at_step}",
                findings.iter().map(|f| f.rule.as_str()).collect::<Vec<_>>()
            )),
        }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Propagates serializer errors.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a replay file from JSON text.
    ///
    /// # Errors
    ///
    /// Returns the parse or shape error verbatim.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use remo_core::NodeId;

    #[test]
    fn capture_and_verify_roundtrip() {
        let spec = TopologySpec::small(1);
        let events = vec![
            Event::Fail(NodeId(0)),
            Event::Tick,
            Event::Repair(NodeId(0)),
        ];
        let file = ReplayFile::capture(spec, InvariantConfig::default(), events);
        assert_eq!(file.expect.verdict, Verdict::Clean);
        file.verify().unwrap();
        let text = file.to_json().unwrap();
        let back = ReplayFile::from_json(&text).unwrap();
        assert_eq!(back, file);
        back.verify().unwrap();
    }

    #[test]
    fn verdict_mismatch_is_reported() {
        let spec = TopologySpec::small(1);
        let mut file = ReplayFile::capture(
            spec,
            InvariantConfig::default(),
            vec![Event::Tick, Event::Tick],
        );
        file.expect.verdict = Verdict::Violation;
        let err = file.verify().unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }

    #[test]
    fn violation_capture_records_the_rule() {
        let spec = TopologySpec::small(1);
        let tight = InvariantConfig {
            pair_slack: 1,
            volume_tolerance: 0.1,
        };
        let events = vec![
            Event::Fail(NodeId(0)),
            Event::Tick,
            Event::Recover(NodeId(0)),
            Event::Tick,
        ];
        let file = ReplayFile::capture(spec, tight, events);
        assert_eq!(file.expect.verdict, Verdict::Violation);
        assert_eq!(
            file.expect.rule.as_deref(),
            Some(remo_audit::rules::RECOVERY_CONVERGENCE)
        );
        file.verify().unwrap();
    }
}
