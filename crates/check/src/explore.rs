//! The one explicit-state explorer, [`dfs`], and its `mc` instance:
//! bounded exhaustive exploration of every event interleaving up to a
//! depth bound, with state-fingerprint deduplication.
//!
//! [`dfs`] is depth-bounded, pre-order and iterative (closure runs of
//! the protocol automata are thousands of transitions deep), with a
//! visited set; `remo-check proto`'s product-automaton phases
//! ([`crate::verify`]) instantiate it too. It owns the visited set, the
//! trace stack and the counters; the caller owns the model. `expand`
//! runs once per state that is new and above the depth bound, with the
//! path that first reached it. Invariant and deadlock reporting happen
//! inside it; a successor the caller does not want explored is just not
//! returned. A successor enters the visited set when the walk *reaches*
//! it, not when its parent is expanded.
//!
//! In [`explore`], every transition clones the [`Harness`], applies one
//! enabled event through the real planner/runtime code, and re-checks
//! the invariants. A state whose fingerprint was already visited is not
//! expanded again — permutations of commuting events (two failures in
//! either order, say) collapse into one subtree. Violating traces are
//! delta-debugged down to minimal counterexamples before being
//! reported.
//!
//! ```
//! use remo_check::{explore, InvariantConfig, TopologySpec};
//!
//! let spec = TopologySpec::small(1);
//! let result = explore::explore(&spec, &InvariantConfig::default(), 3).unwrap();
//! assert!(result.violations.is_empty());
//! assert!(result.stats.visited > 1);
//! ```

use crate::harness::{Event, Harness, InvariantConfig};
use crate::minimize;
use crate::topology::TopologySpec;
use remo_core::validate::{Finding, Severity};
use std::collections::HashSet;
use std::hash::Hash;

/// Exploration counters. Every returned successor either discovers a
/// state or lands on a known one: `expanded == visited - 1 + deduped`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Unique states reached (including the root).
    pub visited: u64,
    /// Transitions applied.
    pub expanded: u64,
    /// Transitions that reached an already-visited state.
    pub deduped: u64,
}

impl std::ops::AddAssign for ExploreStats {
    fn add_assign(&mut self, other: Self) {
        self.visited += other.visited;
        self.expanded += other.expanded;
        self.deduped += other.deduped;
    }
}

/// Explores every state reachable from `root` within `depth`
/// transitions, deduplicating by `key` (a fingerprint, or the state
/// itself). `expand(state, trace)` returns `(label, successor)` pairs;
/// `trace` is the labels on the path from the root.
pub fn dfs<S, K: Hash + Eq, L>(
    root: S,
    depth: usize,
    key: impl Fn(&S) -> K,
    mut expand: impl FnMut(&S, &[L]) -> Vec<(L, S)>,
) -> ExploreStats {
    let mut stats = ExploreStats {
        visited: 1,
        ..ExploreStats::default()
    };
    let mut seen = HashSet::from([key(&root)]);
    let mut trace: Vec<L> = Vec::new();
    // One frame per state on the current path — its successors not yet
    // walked — so `stack.len() == trace.len() + 1`.
    let mut stack = Vec::new();
    if depth > 0 {
        stack.push(expand(&root, &trace).into_iter());
    }
    while let Some(frame) = stack.last_mut() {
        let Some((label, next)) = frame.next() else {
            stack.pop();
            trace.pop();
            continue;
        };
        stats.expanded += 1;
        if !seen.insert(key(&next)) {
            stats.deduped += 1;
        } else {
            stats.visited += 1;
            if stack.len() < depth {
                trace.push(label);
                stack.push(expand(&next, &trace).into_iter());
            }
        }
    }
    stats
}

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
    let stats = dfs(root, depth, Harness::fingerprint, expand);
    Ok(ExploreResult { stats, violations })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    /// A diamond (0 → 1 → 3, 0 → 2 → 3) whose tip closes a cycle back
    /// to the root and opens a tail 3 → 4 → 5.
    fn toy(s: u8) -> Vec<(&'static str, u8)> {
        match s {
            0 => vec![("left", 1), ("right", 2)],
            1 | 2 => vec![("join", 3)],
            3 => vec![("back", 0), ("on", 4)],
            4 => vec![("on", 5)],
            _ => vec![],
        }
    }

    fn run(depth: usize) -> (ExploreStats, Vec<(u8, Vec<&'static str>)>) {
        let mut calls = Vec::new();
        let stats = dfs(
            0u8,
            depth,
            |s| *s,
            |&s, trace: &[&'static str]| {
                calls.push((s, trace.to_vec()));
                toy(s)
            },
        );
        (stats, calls)
    }

    #[test]
    fn diamond_and_cycle_under_a_depth_bound() {
        let (stats, calls) = run(usize::MAX);
        assert_eq!((stats.visited, stats.expanded, stats.deduped), (6, 7, 2));
        assert_eq!(stats.expanded, stats.visited - 1 + stats.deduped);
        // Pre-order: the left arm is walked to the end before `right`,
        // and each state is expanded once, with the path that found it.
        let expected: Vec<(u8, Vec<&str>)> = vec![
            (0, vec![]),
            (1, vec!["left"]),
            (3, vec!["left", "join"]),
            (4, vec!["left", "join", "on"]),
            (5, vec!["left", "join", "on", "on"]),
            (2, vec!["right"]),
        ];
        assert_eq!(calls, expected);

        // Depth 3: state 4 (three transitions out) is discovered and
        // counted, but never expanded, so 5 is never reached.
        let (stats, calls) = run(3);
        assert_eq!((stats.visited, stats.expanded, stats.deduped), (5, 6, 2));
        assert_eq!(stats.expanded, stats.visited - 1 + stats.deduped);
        assert!(calls.iter().all(|(s, trace)| *s != 4 && trace.len() < 3));
        // Depth 0 expands nothing at all.
        let (stats, calls) = run(0);
        assert_eq!((stats.visited, stats.expanded, calls.len()), (1, 0, 0));
    }

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
    /// `violations`). The sweep's `(visited, expanded, deduped)` counts
    /// are pinned per spec: a change to the epoch close, the repair
    /// path or the fingerprint moves them.
    #[test]
    fn static_bounds_hold_on_every_explored_state() {
        let pinned = [(85, 112, 28), (95, 119, 25), (152, 233, 82), (197, 252, 56)];
        let specs = crate::topology::seeded_specs();
        assert_eq!(specs.len(), pinned.len());
        for (spec, counts) in specs.into_iter().zip(pinned) {
            let result = explore(&spec, &InvariantConfig::default(), 4).unwrap();
            let s = &result.stats;
            assert_eq!(
                (s.visited, s.expanded, s.deduped),
                counts,
                "explored-state counts moved for n={} seed={}",
                spec.nodes,
                spec.seed
            );
            let bound_violations: Vec<_> = result
                .violations
                .iter()
                .flat_map(|v| &v.findings)
                .filter(|f| f.rule == remo_core::validate::rules::STATIC_INFEASIBLE_CAPACITY)
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
            .any(|f| f.rule == remo_core::validate::rules::RECOVERY_CONVERGENCE));
        assert!(!v.minimized.is_empty());
        assert!(v.minimized.len() <= v.trace.len());
        // The minimized trace still needs a failure and a recovery.
        assert!(v.minimized.iter().any(|e| matches!(e, Event::Fail(_))));
        assert!(v.minimized.iter().any(|e| matches!(e, Event::Recover(_))));
    }
}
