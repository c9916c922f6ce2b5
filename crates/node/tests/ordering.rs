//! The ordering the lockstep protocol relies on, pinned at tier 1: on
//! TCP, with the collector ticking as fast as the report barrier lets
//! it (`epoch_interval = 0`), a child's frame reaches its parent
//! before the parent's next tick and its ack reaches the child before
//! the tick after that. If either slipped, a reading would arrive an
//! epoch late (a delivered count off the plan's promise) or ARQ would
//! fire (a retransmit, then a duplicate). Until this test only the
//! benchmark's `collect-thin` checks saw that.
//!
//! The hub holds what it routes until the destination's next tick, so
//! the same must hold with a real `epoch_interval`: whatever arrives
//! while the hub pumps out the rest of an interval (and whatever the
//! epoch close queued) has to be in the write that carries the tick.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
use remo_core::planner::Planner;
use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, NodeId, PairSet};
use remo_node::{dist_sampler, spawn_node, CollectorService, NodeConfig, ServiceConfig};
use remo_runtime::agent::Route;
use remo_runtime::deployment::plan_assignments;
use remo_runtime::EpochReport;
use std::time::Duration;

const NODES: u32 = 8;
const ATTRS: u32 = 24;
/// Too small for one tree to carry everything: the planner splits the
/// attributes over several trees whose inner edges the hub routes.
const NODE_CAPACITY: f64 = 80.0;
const EPOCHS: u64 = 320;

#[test]
fn every_epoch_delivers_the_plans_promise_and_arq_stays_idle() {
    exact_promise_every_epoch(Duration::ZERO);
}

#[test]
fn held_frames_make_the_tick_across_a_real_epoch_interval() {
    exact_promise_every_epoch(Duration::from_millis(5));
}

fn exact_promise_every_epoch(epoch_interval: Duration) {
    let pairs: PairSet = (0..NODES)
        .flat_map(|n| (0..ATTRS).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let caps = CapacityMap::uniform(NODES as usize, NODE_CAPACITY, 1e9).unwrap();

    // The service plans internally; the same deterministic call tells
    // the test what that plan promises per epoch.
    let planner = AdaptivePlanner::new(
        Planner::default(),
        AdaptScheme::Adaptive,
        pairs.clone(),
        caps.clone(),
        CostModel::default(),
        AttrCatalog::new(),
    );
    let assignments = plan_assignments(planner.plan(), &pairs, &AttrCatalog::new());
    let all = || assignments.values().flatten();
    let promised: u64 = all().map(|a| a.local.len() as u64).sum();
    let trees = all().filter(|a| a.parent == Route::Collector).count();
    let hub_edges = all().filter(|a| a.parent != Route::Collector).count();
    assert!(trees >= 3, "shape must force several trees, got {trees}");
    assert!(hub_edges >= trees, "trees must have hub-routed edges");
    // No path is longer than the node count; the pipeline is full, and
    // every count exact, one epoch after that.
    let warmup = u64::from(NODES) + 1;

    let mut cfg = ServiceConfig::new("127.0.0.1:0", pairs, caps);
    cfg.epochs = EPOCHS;
    cfg.epoch_interval = epoch_interval;
    // Generous: load must never fake a miss, which would repair the
    // plan and change the promise.
    cfg.health.deadline = Duration::from_secs(5);
    cfg.health.confirm_after = 5;
    cfg.net.ingress_capacity = 1 << 20;
    let service = CollectorService::start(cfg).unwrap();
    let addr = service.addr().to_string();
    let handles: Vec<_> = (0..NODES)
        .map(|id| spawn_node(NodeConfig::new(addr.clone(), NodeId(id)), dist_sampler()))
        .collect();
    assert_eq!(service.wait_for_nodes(NODES as usize), NODES as usize);

    let mut reports: Vec<EpochReport> = Vec::new();
    let summary = service.run(|r| reports.push(*r));
    for h in handles {
        h.join();
    }

    assert_eq!(reports.len() as u64, EPOCHS);
    for r in &reports {
        assert_eq!(r.retransmit_messages, 0, "ARQ fired in epoch {}", r.epoch);
        assert_eq!(r.duplicate_messages_ignored, 0, "epoch {}", r.epoch);
        assert_eq!(
            r.dropped_messages + r.dropped_readings + r.shed_readings + r.abandoned_messages,
            0,
            "epoch {} lost something",
            r.epoch
        );
        assert_eq!(r.suspected + r.confirmed_dead, 0, "epoch {}", r.epoch);
        if r.epoch > warmup {
            assert_eq!(
                r.delivered_values, promised,
                "epoch {} delivered off the plan's promise",
                r.epoch
            );
        }
    }
    assert_eq!(summary.epochs, EPOCHS);
    assert_eq!(
        summary.observed_pairs, promised,
        "every planned pair observed"
    );
    assert_eq!(summary.integrity_checked, promised);
    assert_eq!(summary.integrity_violations, 0);
    assert_eq!(summary.protocol_rejects, 0);
    assert_eq!(summary.degrade_factor, 1);
}
