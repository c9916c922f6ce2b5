//! Counterexample minimization: delta debugging (ddmin) over event
//! sequences.
//!
//! A candidate subsequence reproduces the violation only if every one
//! of its events is enabled when applied in order from the initial
//! state *and* an error-severity finding fires — dropping an event
//! that a later one depends on (a `repair` whose `fail` was removed)
//! simply makes the candidate invalid, never a spurious reproduction.

use crate::harness::{Event, Harness, InvariantConfig};
use crate::topology::TopologySpec;
use remo_core::validate::{Finding, Severity};

/// Outcome of replaying an event sequence from the initial state.
#[derive(Debug, Clone)]
pub enum ReplayOutcome {
    /// Every event applied, no invariant violated.
    Clean,
    /// An invariant fired; the error-severity findings of the first
    /// violating step, and how many events had been applied.
    Violation {
        /// Error-severity findings at the violating step.
        findings: Vec<Finding>,
        /// Events applied up to and including the violating one.
        at_step: usize,
    },
    /// An event was not enabled in the state it was applied to.
    Invalid {
        /// Index of the non-applicable event.
        at_step: usize,
    },
}

impl ReplayOutcome {
    /// Whether this outcome is a reproduced violation.
    pub fn is_violation(&self) -> bool {
        matches!(self, ReplayOutcome::Violation { .. })
    }
}

/// Replays `events` in order from the spec's initial state.
///
/// The run stops at the first violation or the first non-enabled
/// event; a sequence that survives to the end is [`ReplayOutcome::Clean`].
pub fn replay_events(
    spec: &TopologySpec,
    cfg: &InvariantConfig,
    events: &[Event],
) -> ReplayOutcome {
    let Ok(mut h) = Harness::new(spec.clone(), *cfg) else {
        return ReplayOutcome::Invalid { at_step: 0 };
    };
    for (i, &ev) in events.iter().enumerate() {
        if !h.is_enabled(ev) {
            return ReplayOutcome::Invalid { at_step: i };
        }
        let findings: Vec<Finding> = h
            .apply(ev)
            .into_iter()
            .filter(|f| f.severity == Severity::Error)
            .collect();
        if !findings.is_empty() {
            return ReplayOutcome::Violation {
                findings,
                at_step: i + 1,
            };
        }
    }
    ReplayOutcome::Clean
}

/// Shrinks `events` to a locally minimal subsequence that still
/// violates an invariant (classic ddmin). Returns the input unchanged
/// if it does not reproduce in the first place.
pub fn minimize(spec: &TopologySpec, cfg: &InvariantConfig, events: &[Event]) -> Vec<Event> {
    if !replay_events(spec, cfg, events).is_violation() {
        return events.to_vec();
    }
    let mut current: Vec<Event> = events.to_vec();
    let mut chunks = 2usize;
    while current.len() >= 2 {
        let chunk_len = current.len().div_ceil(chunks);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk_len).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if !candidate.is_empty() && replay_events(spec, cfg, &candidate).is_violation() {
                current = candidate;
                chunks = chunks.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunks >= current.len() {
                break;
            }
            chunks = (chunks * 2).min(current.len());
        }
    }
    current
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use remo_core::NodeId;

    fn tight() -> InvariantConfig {
        InvariantConfig {
            pair_slack: 1,
            volume_tolerance: 0.1,
        }
    }

    #[test]
    fn clean_sequence_replays_clean() {
        let spec = TopologySpec::small(1);
        let outcome = replay_events(
            &spec,
            &InvariantConfig::default(),
            &[Event::Tick, Event::Fail(NodeId(0)), Event::Tick],
        );
        assert!(matches!(outcome, ReplayOutcome::Clean), "{outcome:?}");
    }

    #[test]
    fn disabled_event_is_invalid_not_violating() {
        let spec = TopologySpec::small(1);
        let outcome = replay_events(
            &spec,
            &InvariantConfig::default(),
            &[Event::Repair(NodeId(0))],
        );
        assert!(
            matches!(outcome, ReplayOutcome::Invalid { at_step: 0 }),
            "{outcome:?}"
        );
    }

    #[test]
    fn minimize_strips_padding_from_a_failing_trace() {
        let spec = TopologySpec::small(1);
        let cfg = tight();
        // A padded trace: leading and trailing no-op ticks around the
        // fail → confirm → recover → reintegrate core.
        let padded = vec![
            Event::Tick,
            Event::Tick,
            Event::Fail(NodeId(0)),
            Event::Tick,
            Event::Recover(NodeId(0)),
            Event::Tick,
        ];
        assert!(replay_events(&spec, &cfg, &padded).is_violation());
        let min = minimize(&spec, &cfg, &padded);
        assert!(replay_events(&spec, &cfg, &min).is_violation());
        assert!(
            min.len() < padded.len(),
            "padding must be stripped: {min:?}"
        );
        // 1-minimality: removing any single event breaks reproduction.
        for skip in 0..min.len() {
            let mut cand = min.clone();
            cand.remove(skip);
            assert!(
                cand.is_empty() || !replay_events(&spec, &cfg, &cand).is_violation(),
                "removing event {skip} from {min:?} still reproduces"
            );
        }
    }
}
