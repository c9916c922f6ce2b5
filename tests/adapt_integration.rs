//! Runtime-adaptation integration: long churn sequences across all
//! four schemes must preserve plan validity and the paper's relative
//! ordering of costs.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo::prelude::*;
use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
use remo_workloads::churn::churn_pairs;

fn scenario() -> Scenario {
    Scenario::synthetic(&ScenarioConfig {
        nodes: 30,
        attrs: 25,
        tasks: 35,
        node_budget: 18.0,
        collector_budget: 220.0,
        c_over_a: 2.0,
        seed: 21,
    })
}

fn run_churn(scheme: AdaptScheme, batches: usize) -> (AdaptivePlanner, usize, usize) {
    let s = scenario();
    let mut ap = AdaptivePlanner::new(
        Planner::default(),
        scheme,
        s.pairs.clone(),
        s.caps.clone(),
        s.cost,
        AttrCatalog::new(),
    );
    let cfg = ChurnConfig {
        attr_universe: 25,
        ..ChurnConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(77);
    let mut pairs = s.pairs.clone();
    let mut total_adapt = 0;
    let mut total_ops = 0;
    for b in 1..=batches {
        pairs = churn_pairs(&pairs, &cfg, &mut rng);
        let report = ap.update(pairs.clone(), b as u64 * 10);
        total_adapt += report.adaptation_messages;
        total_ops += report.ops_applied;
        // Invariants after every batch.
        let plan = ap.plan();
        assert!(plan.partition().is_valid(), "{scheme:?} broke partition");
        assert_eq!(
            plan.demanded_pairs(),
            pairs.len(),
            "{scheme:?} lost track of demand"
        );
        for (n, u) in plan.node_usage() {
            assert!(
                u <= s.caps.node(n).unwrap() + 1e-6,
                "{scheme:?} violated capacity at {n}"
            );
        }
        for t in plan.trees() {
            if let Some(tree) = &t.tree {
                assert!(tree.is_valid());
            }
        }
    }
    (ap, total_adapt, total_ops)
}

#[test]
fn all_schemes_maintain_invariants_under_churn() {
    for scheme in [
        AdaptScheme::DirectApply,
        AdaptScheme::Rebuild,
        AdaptScheme::NoThrottle,
        AdaptScheme::Adaptive,
    ] {
        let _ = run_churn(scheme, 6);
    }
}

#[test]
fn rebuild_adapts_hardest_direct_apply_least() {
    let (_, da_adapt, _) = run_churn(AdaptScheme::DirectApply, 6);
    let (_, rb_adapt, _) = run_churn(AdaptScheme::Rebuild, 6);
    assert!(
        rb_adapt >= da_adapt,
        "rebuild messages {rb_adapt} must be at least d-a's {da_adapt}"
    );
}

#[test]
fn throttling_bounds_ops() {
    let (_, _, nothrottle_ops) = run_churn(AdaptScheme::NoThrottle, 6);
    let (_, _, adaptive_ops) = run_churn(AdaptScheme::Adaptive, 6);
    assert!(
        adaptive_ops <= nothrottle_ops,
        "throttling must never apply more ops ({adaptive_ops} vs {nothrottle_ops})"
    );
}

#[test]
fn optimizing_schemes_collect_at_least_direct_apply() {
    let (da, ..) = run_churn(AdaptScheme::DirectApply, 6);
    let (nt, ..) = run_churn(AdaptScheme::NoThrottle, 6);
    let (ad, ..) = run_churn(AdaptScheme::Adaptive, 6);
    assert!(nt.plan().collected_pairs() >= da.plan().collected_pairs());
    assert!(ad.plan().collected_pairs() >= da.plan().collected_pairs());
}

#[test]
fn task_level_changes_flow_through_task_manager() {
    use remo_core::{TaskChange, TaskId};
    let s = scenario();
    let mut tm = TaskManager::new();
    for t in &s.tasks {
        tm.add(t.clone()).unwrap();
    }
    let mut ap = AdaptivePlanner::new(
        Planner::default(),
        AdaptScheme::Adaptive,
        tm.pairs(),
        s.caps.clone(),
        s.cost,
        AttrCatalog::new(),
    );
    // Add a brand-new task over a brand-new attribute.
    tm.add(MonitoringTask::new(
        TaskId(900),
        [AttrId(999)],
        (0..10).map(NodeId),
    ))
    .unwrap();
    ap.update(tm.pairs(), 10);
    assert!(ap.plan().tree_of_attr(AttrId(999)).is_some());

    // Withdraw it again.
    tm.apply(TaskChange::Remove(TaskId(900))).unwrap();
    ap.update(tm.pairs(), 20);
    assert!(ap.plan().tree_of_attr(AttrId(999)).is_none());
}

/// FNV-1a of every plan one adaptation stream passes through: the
/// initial plan's JSON, then per step the report's counts and the
/// adapted plan's JSON. Six churn steps through `update`, one failure
/// (step 3) and the recovery (step 6) of node 4.
fn trajectory_digest(scheme: AdaptScheme) -> String {
    let s = scenario();
    let mut ap = AdaptivePlanner::new(
        Planner::default(),
        scheme,
        s.pairs.clone(),
        s.caps.clone(),
        s.cost,
        AttrCatalog::new(),
    );
    let cfg = ChurnConfig {
        attr_universe: 25,
        ..ChurnConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(77);
    let mut pairs = s.pairs.clone();
    let victim = NodeId(4);
    let mut text = serde_json::to_string(ap.plan()).unwrap();
    for step in 1..=8u64 {
        let now = 10 * step;
        let report = match step {
            3 => ap.handle_node_failure(victim, now),
            6 => ap.handle_node_recovery(victim, s.caps.node(victim).unwrap(), now),
            _ => {
                pairs = churn_pairs(&pairs, &cfg, &mut rng);
                ap.update(pairs.clone(), now)
            }
        };
        text += &format!(
            "|{} {} {} {}|",
            report.adaptation_messages,
            report.trees_rebuilt,
            report.ops_applied,
            report.ops_throttled
        );
        text += &serde_json::to_string(ap.plan()).unwrap();
    }
    let digest = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{digest:016x}")
}

/// Every adapted plan, byte for byte, per scheme. Refactors of the
/// adaptation step must leave these digests where they are.
#[test]
fn adaptation_trajectories_are_pinned() {
    assert_eq!(
        trajectory_digest(AdaptScheme::DirectApply),
        "7c28fe1739ec3cf2"
    );
    assert_eq!(trajectory_digest(AdaptScheme::Rebuild), "2c9834d7a384a8da");
    assert_eq!(
        trajectory_digest(AdaptScheme::NoThrottle),
        "afa9f3e2992c2769"
    );
    assert_eq!(trajectory_digest(AdaptScheme::Adaptive), "70ac3f3cfda3e3df");
}

#[test]
fn adaptation_is_deterministic() {
    let run = || {
        let (ap, adapt, ops) = run_churn(AdaptScheme::Adaptive, 4);
        (
            ap.plan().collected_pairs(),
            ap.plan().partition().clone(),
            adapt,
            ops,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
}
