//! Bounded exhaustive exploration: every event interleaving up to a
//! depth bound, with state-fingerprint deduplication — an
//! instantiation of the shared [`remo_core::explore`] DFS.
//!
//! Every transition clones the [`Harness`], applies one enabled event
//! through the real planner/runtime code, and re-checks the
//! invariants. A state whose fingerprint was already visited is not
//! expanded again — permutations of commuting events (two failures in
//! either order, say) collapse into one subtree. Violating traces are
//! delta-debugged down to minimal counterexamples before being
//! reported.

use crate::harness::{Event, Harness, InvariantConfig};
use crate::minimize;
use crate::topology::TopologySpec;
use remo_audit::{Finding, Severity};
pub use remo_core::explore::ExploreStats;

/// One invariant violation: the raw trace that found it, the
/// delta-debugged minimal trace, and the findings at the violating
/// step.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The full event sequence the DFS was on.
    pub trace: Vec<Event>,
    /// The ddmin-reduced sequence that still reproduces it.
    pub minimized: Vec<Event>,
    /// Error-severity findings at the violating transition.
    pub findings: Vec<Finding>,
}

/// Result of one bounded exploration.
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Counters (violating transitions are reported, not counted).
    pub stats: ExploreStats,
    /// Violations, each with a minimized counterexample.
    pub violations: Vec<Violation>,
}

/// Explores `spec` exhaustively up to `depth` events, checking every
/// invariant after every transition.
///
/// # Errors
///
/// Propagates [`remo_core::PlanError`] from initial planning.
pub fn explore(
    spec: &TopologySpec,
    cfg: &InvariantConfig,
    depth: usize,
) -> Result<ExploreResult, remo_core::PlanError> {
    let root = Harness::new(spec.clone(), *cfg)?;
    let mut violations = Vec::new();
    let expand = |state: &Harness, trace: &[Event]| {
        let mut successors = Vec::new();
        for event in state.enabled_events() {
            let mut next = state.clone();
            let mut findings = next.apply(event);
            findings.retain(|f| f.severity == Severity::Error);
            if findings.is_empty() {
                successors.push((event, next));
                continue;
            }
            // A violated state is reported, not expanded: deeper
            // suffixes of a broken prefix add no information.
            let trace = [trace, &[event]].concat();
            violations.push(Violation {
                minimized: minimize::minimize(spec, cfg, &trace),
                trace,
                findings,
            });
        }
        successors
    };
    let stats = remo_core::explore::explore(root, depth, Harness::fingerprint, expand);
    Ok(ExploreResult { stats, violations })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn small_exploration_is_clean_and_dedups() {
        let spec = TopologySpec::small(1);
        let result = explore(&spec, &InvariantConfig::default(), 4).unwrap();
        assert!(
            result.violations.is_empty(),
            "seeded small topology must be violation-free: {:?}",
            result.violations.first().map(|v| &v.findings)
        );
        assert!(result.stats.expanded > result.stats.visited);
        assert!(
            result.stats.deduped > 0,
            "commuting interleavings must collapse: {:?}",
            result.stats
        );
        assert_eq!(
            result.stats.expanded,
            result.stats.visited - 1 + result.stats.deduped,
            "every transition either discovers a state or dedups"
        );
    }

    /// Depth-4 sweeps over every seeded topology cross-check the
    /// static analyzer's usage intervals on each explored plan state:
    /// the bounds must hold everywhere (a violation surfaces as an
    /// RA018 finding through the harness and would land in
    /// `violations`).
    #[test]
    fn static_bounds_hold_on_every_explored_state() {
        for spec in crate::topology::seeded_specs() {
            let result = explore(&spec, &InvariantConfig::default(), 4).unwrap();
            let bound_violations: Vec<_> = result
                .violations
                .iter()
                .flat_map(|v| &v.findings)
                .filter(|f| f.rule == remo_audit::rules::STATIC_INFEASIBLE_CAPACITY)
                .collect();
            assert!(
                bound_violations.is_empty(),
                "static usage bounds violated during exploration: {bound_violations:?}"
            );
            assert!(
                result.violations.is_empty(),
                "seeded spec must stay violation-free: {:?}",
                result.violations.first().map(|v| &v.findings)
            );
            // The sweep actually exercised the comparison: replaying a
            // single tick on a fresh harness counts per-node + collector
            // checks.
            let mut h = crate::harness::Harness::new(spec, InvariantConfig::default()).unwrap();
            h.apply(crate::harness::Event::Tick);
            assert!(h.bound_checks() > 0);
        }
    }

    #[test]
    fn impossible_tolerance_produces_minimized_counterexample() {
        // Volume tolerance below 1.0 makes the convergence invariant
        // unsatisfiable: the recovered plan's volume always exceeds
        // a fraction of itself. The checker must find it, and ddmin
        // must shrink the trace to the canonical
        // fail → confirm → recover → reintegrate skeleton.
        let spec = TopologySpec::small(1);
        let cfg = InvariantConfig {
            pair_slack: 1,
            volume_tolerance: 0.1,
        };
        let result = explore(&spec, &cfg, 5).unwrap();
        assert!(!result.violations.is_empty(), "tolerance 0.1 must trip");
        let v = &result.violations[0];
        assert!(v
            .findings
            .iter()
            .any(|f| f.rule == remo_audit::rules::RECOVERY_CONVERGENCE));
        assert!(!v.minimized.is_empty());
        assert!(v.minimized.len() <= v.trace.len());
        // The minimized trace still needs a failure and a recovery.
        assert!(v.minimized.iter().any(|e| matches!(e, Event::Fail(_))));
        assert!(v.minimized.iter().any(|e| matches!(e, Event::Recover(_))));
    }
}
