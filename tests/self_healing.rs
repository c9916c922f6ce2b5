//! Chaos-harness integration tests: crash and heal agents mid-run and
//! assert the self-healing coordinator's recovery SLOs — confirmation
//! within K epochs of a silent crash, automatic plan repair, and
//! ≥ 95% of the surviving (node, attribute) pairs delivered within 10
//! epochs of confirmation — with time-to-detect, MTTR, and lost-value
//! telemetry present in the [`HealthReport`].

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo::prelude::*;
use remo::runtime::{EpochReport, Sampler};
use std::sync::Arc;
use std::time::Duration;

const CONFIRM_AFTER: u32 = 2;

fn sampler() -> Sampler {
    Arc::new(|n: NodeId, a: AttrId, e: u64| (n.0 * 100 + a.0 * 10) as f64 + (e % 5) as f64)
}

fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
    (0..nodes)
        .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
        .collect()
}

fn fast_health() -> HealthConfig {
    HealthConfig {
        deadline: Duration::from_millis(80),
        confirm_after: CONFIRM_AFTER,
    }
}

/// A self-healing deployment over `nodes` nodes plus the planned pair
/// set and the root of the first monitoring tree (a relay whose crash
/// orphans a whole subtree).
fn launch(nodes: usize, attrs: u32) -> (Deployment, PairSet, NodeId) {
    launch_with(nodes, attrs, fast_health())
}

fn launch_with(nodes: usize, attrs: u32, health: HealthConfig) -> (Deployment, PairSet, NodeId) {
    let caps = CapacityMap::uniform(nodes, 100.0, 10_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs = dense_pairs(nodes as u32, attrs);
    let planner = AdaptivePlanner::new(
        Planner::default(),
        AdaptScheme::Adaptive,
        pairs.clone(),
        caps,
        cost,
        AttrCatalog::new(),
    );
    let root = planner.plan().trees()[0]
        .tree
        .as_ref()
        .expect("first tree planned")
        .root();
    let dep = Deployment::launch_self_healing(planner, sampler(), health);
    (dep, pairs, root)
}

/// Fraction of `pairs` whose collector snapshot was produced at or
/// after `since`.
fn fresh_fraction(
    dep: &Deployment,
    pairs: impl IntoIterator<Item = (NodeId, AttrId)>,
    since: u64,
) -> f64 {
    let mut total = 0u64;
    let mut fresh = 0u64;
    for (n, a) in pairs {
        total += 1;
        if dep.observed(n, a).is_some_and(|obs| obs.produced >= since) {
            fresh += 1;
        }
    }
    fresh as f64 / total.max(1) as f64
}

#[test]
fn crashed_relay_confirmed_repaired_and_survivors_recover() {
    let (mut dep, pairs, victim) = launch(12, 2);
    dep.run(6);
    assert_eq!(
        dep.observed_pairs(),
        pairs.len(),
        "healthy warm-up collects everything"
    );

    // Crash the first tree's root: its entire subtree is orphaned.
    let crash_epoch = dep.epoch();
    dep.fail_node(victim);

    // The coordinator must confirm at the K-th miss, the first being
    // the tick after the crash.
    let mut confirm_epoch = None;
    for _ in 0..CONFIRM_AFTER as u64 + 1 {
        dep.tick();
        if dep.health_report().states[&victim] == HealthState::Dead {
            confirm_epoch = Some(dep.epoch());
            break;
        }
    }
    let confirm_epoch = confirm_epoch.expect("confirmed within K epochs of the crash");
    assert_eq!(confirm_epoch, crash_epoch + CONFIRM_AFTER as u64);

    // Confirmation triggered handle_node_failure + targeted repair.
    let hr = dep.health_report();
    assert_eq!(hr.stats[&victim].confirmed, 1);
    assert_eq!(
        hr.stats[&victim].repaired, 1,
        "plan repaired on confirmation"
    );
    assert!(hr.stats[&victim].values_lost > 0, "lost readings accounted");
    assert!(hr.stats[&victim].mttr_epochs >= hr.stats[&victim].time_to_detect);

    // SLO: within 10 epochs of confirmation, ≥95% of the remaining
    // pairs deliver values produced after confirmation.
    dep.run(10);
    let remaining = pairs.iter().filter(|(n, _)| *n != victim);
    let fraction = fresh_fraction(&dep, remaining, confirm_epoch);
    assert!(
        fraction >= 0.95,
        "only {:.0}% of surviving pairs recovered within 10 epochs",
        fraction * 100.0
    );
    dep.shutdown();
}

#[test]
fn chaos_schedule_crashes_and_heals_agents_mid_run() {
    let (mut dep, pairs, victim) = launch(10, 1);

    // Two overlapping windows on the victim: the union is [4, 14].
    let mut sched = FailureSchedule::new();
    sched.add(Outage::node(victim, 4, Some(14)));
    sched.add(Outage::node(victim, 6, Some(10)));

    let reports = sched.run(&mut dep, 30);
    let confirmed: u64 = reports.iter().map(|r| r.confirmed_dead).sum();
    let repaired: u64 = reports.iter().map(|r| r.repaired).sum();
    let recovered: u64 = reports.iter().map(|r| r.recovered).sum();
    assert_eq!(
        confirmed, 1,
        "one crash confirmed despite overlapping windows"
    );
    assert_eq!(repaired, 1, "confirmation repaired the plan once");
    assert_eq!(
        recovered, 1,
        "healing at the end of the union window reintegrates"
    );
    // Silent from epoch 4: suspected at 4, confirmed and repaired at
    // the K-th miss, back on the first tick after the union window.
    let epoch_of = |count: fn(&EpochReport) -> u64| {
        let hit = reports.iter().find(|r| count(r) > 0);
        hit.map(|r| r.epoch)
    };
    assert_eq!(epoch_of(|r| r.suspected), Some(4));
    assert_eq!(epoch_of(|r| r.confirmed_dead), Some(5));
    assert_eq!(epoch_of(|r| r.repaired), Some(5));
    assert_eq!(epoch_of(|r| r.recovered), Some(15));

    let hr = dep.health_report();
    assert_eq!(hr.states[&victim], HealthState::Healthy);
    assert_eq!(hr.stats[&victim].recovered, 1);
    assert!(hr.stats[&victim].values_lost > 0);

    // After reintegration every pair — including the victim's — is
    // delivered again.
    let fraction = fresh_fraction(&dep, pairs.iter(), dep.epoch().saturating_sub(10));
    assert!(
        fraction >= 0.95,
        "only {:.0}% of all pairs fresh after reintegration",
        fraction * 100.0
    );
    dep.shutdown();
}

#[test]
fn epoch_reports_aggregate_health_counters() {
    let (mut dep, _pairs, victim) = launch(8, 1);
    dep.run(3);
    dep.fail_node(victim);
    let total = dep.run(6);
    assert_eq!(total.suspected, 1);
    assert_eq!(total.confirmed_dead, 1);
    assert_eq!(total.repaired, 1);
    assert!(total.reconfigure_messages >= 1, "survivors re-routed");
    assert!(total.values_lost > 0);
    dep.shutdown();
}

/// The epoch counter is the only clock. With an hour-long report
/// deadline a crashed relay is still suspected on the next tick,
/// confirmed dead at exactly `crash + confirm_after`, and repaired —
/// in the time it takes to step the agents, because a report that is
/// not there when they have run is not coming. (A coordinator that
/// waits out `HealthConfig::deadline` spends the hour on the first
/// suspected epoch.)
#[test]
fn detection_counts_epochs_and_never_waits_for_the_deadline() {
    const K: u32 = 3;
    let started = std::time::Instant::now();
    let health = HealthConfig {
        deadline: Duration::from_secs(3600),
        confirm_after: K,
    };
    let (mut dep, pairs, victim) = launch_with(12, 2, health);
    dep.run(6);
    assert_eq!(dep.observed_pairs(), pairs.len());

    let crash_epoch = dep.epoch();
    dep.fail_node(victim);
    let reports: Vec<EpochReport> = (0..K + 2).map(|_| dep.tick()).collect();
    let at = |offset: u64| &reports[offset as usize - 1];
    assert_eq!(at(1).suspected, 1, "first miss is the tick after the crash");
    for offset in 1..K as u64 {
        assert_eq!(at(offset).confirmed_dead, 0, "confirmed early at +{offset}");
    }
    assert_eq!(at(K as u64).epoch, crash_epoch + K as u64);
    assert_eq!((at(K as u64).confirmed_dead, at(K as u64).repaired), (1, 1));
    let stats = dep.health_report().stats[&victim];
    assert_eq!(stats.time_to_detect, K as u64 - 1);
    assert_eq!(stats.mttr_epochs, K as u64 - 1);
    assert_eq!(
        stats.values_lost,
        2 * K as u64,
        "two pairs, K silent epochs"
    );

    assert!(
        started.elapsed() < Duration::from_secs(60),
        "a tick waited on the wall clock: {:?}",
        started.elapsed()
    );
    dep.shutdown();
}
