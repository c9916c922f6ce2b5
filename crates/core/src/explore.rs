//! The one explicit-state explorer: depth-bounded, pre-order DFS with
//! a visited set, shared by the `remo-check mc` interleaving sweep and
//! the `remo-check proto` product-automaton phases.
//!
//! The explorer owns the visited set, the trace stack and the
//! counters; the caller owns the model. `expand` runs once per state
//! that is new and above the depth bound, with the path that first
//! reached it. Invariant and deadlock reporting happen inside it; a
//! successor the caller does not want explored is just not returned.
//!
//! The walk is iterative (closure runs of the protocol automata are
//! thousands of transitions deep) and strictly pre-order: a successor
//! enters the visited set when the walk *reaches* it, not when its
//! parent is expanded.

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
pub fn explore<S, K: Hash + Eq, L>(
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

#[cfg(test)]
mod tests {
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
        let stats = explore(
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
}
