//! In-process runtime integration: plans must carry real traffic end to
//! end, and the deployment's behavior must mirror the simulator's
//! semantics (latency = depth, capacity enforcement, reconfiguration).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo::prelude::*;
use remo_runtime::{Deployment, Sampler};
use std::sync::Arc;

fn sampler() -> Sampler {
    Arc::new(|n: NodeId, a: AttrId, e: u64| {
        (n.0 as f64) * 100.0 + (a.0 as f64) * 10.0 + (e % 5) as f64
    })
}

fn plan_for(
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
    catalog: &AttrCatalog,
) -> MonitoringPlan {
    Planner::default().plan_with_catalog(pairs, caps, cost, catalog)
}

#[test]
fn deployment_collects_every_planned_pair() {
    let caps = CapacityMap::uniform(12, 60.0, 2_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs: PairSet = (0..12)
        .flat_map(|n| (0..3).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let catalog = AttrCatalog::new();
    let plan = plan_for(&pairs, &caps, cost, &catalog);
    let planned: usize = plan.collected_pairs();

    let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
    dep.run(20);
    assert_eq!(dep.observed_pairs(), planned);
    dep.shutdown();
}

#[test]
fn values_arrive_untampered() {
    let caps = CapacityMap::uniform(8, 80.0, 2_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs: PairSet = (0..8)
        .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let catalog = AttrCatalog::new();
    let plan = plan_for(&pairs, &caps, cost, &catalog);
    let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
    dep.run(15);
    let s = sampler();
    for (n, a) in pairs.iter() {
        let obs = dep.observed(n, a).expect("pair observed");
        assert_eq!(obs.value, s(n, a, obs.produced));
        assert!(obs.received > obs.produced, "one hop costs one epoch");
    }
    dep.shutdown();
}

#[test]
fn runtime_and_sim_agree_on_steady_state_delivery() {
    // Same plan, same budgets: the in-process runtime and the simulator
    // should deliver the same pairs per epoch in steady state.
    let caps = CapacityMap::uniform(10, 40.0, 1_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs: PairSet = (0..10)
        .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let catalog = AttrCatalog::new();
    let plan = plan_for(&pairs, &caps, cost, &catalog);

    let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
    let warm = 10;
    dep.run(warm);
    let r = dep.tick();
    let runtime_rate = r.delivered_values;
    dep.shutdown();

    let mut sim = Simulator::new(SimSetup {
        plan: &plan,
        planned_pairs: &pairs,
        metric_pairs: None,
        caps: &caps,
        cost,
        catalog: &catalog,
        aliases: Default::default(),
        config: SimConfig::default(),
    });
    sim.run(warm);
    let sim_rate = sim.step().delivered_values;
    assert_eq!(
        runtime_rate, sim_rate,
        "substrates disagree on steady-state delivery"
    );
}

#[test]
fn reconfiguration_mid_flight_loses_nothing_permanently() {
    let caps = CapacityMap::uniform(9, 60.0, 2_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs: PairSet = (0..9).map(|n| (NodeId(n), AttrId(0))).collect();
    let catalog = AttrCatalog::new();
    let plan = plan_for(&pairs, &caps, cost, &catalog);
    let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
    dep.run(5);

    // Grow the demand and push the new plan.
    let mut pairs2 = pairs.clone();
    for n in 0..9 {
        pairs2.insert(NodeId(n), AttrId(1));
    }
    let plan2 = plan_for(&pairs2, &caps, cost, &catalog);
    dep.apply_plan(&plan2, &pairs2, &catalog);
    dep.run(15);
    assert_eq!(dep.observed_pairs(), plan2.collected_pairs());
    dep.shutdown();
}

#[test]
fn wire_protocol_overhead_is_the_header() {
    use remo_runtime::proto::{WireMessage, WireReading, HEADER_LEN, READING_LEN};
    let msg = WireMessage::data(
        0,
        NodeId(0),
        1,
        (0..10)
            .map(|i| WireReading {
                node: NodeId(i),
                attr: AttrId(0),
                value: 1.0,
                produced: 0,
                contributors: 1,
            })
            .collect(),
    );
    // The C + a·x cost model made concrete: fixed header (C) plus
    // per-reading payload (a·x).
    assert_eq!(msg.encoded_len(), HEADER_LEN + 10 * READING_LEN);
}

#[test]
fn shutdown_is_idempotent_and_clean() {
    let caps = CapacityMap::uniform(4, 50.0, 500.0).unwrap();
    let cost = CostModel::default();
    let pairs: PairSet = (0..4).map(|n| (NodeId(n), AttrId(0))).collect();
    let catalog = AttrCatalog::new();
    let plan = plan_for(&pairs, &caps, cost, &catalog);
    let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
    dep.run(3);
    dep.shutdown(); // explicit
                    // Drop of a second deployment exercises the Drop path.
    let plan2 = plan_for(&pairs, &caps, cost, &catalog);
    let mut dep2 = Deployment::launch(&plan2, &pairs, &caps, cost, &catalog, sampler());
    dep2.run(2);
    drop(dep2);
}
