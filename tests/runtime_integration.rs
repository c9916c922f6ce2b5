//! In-process runtime integration: plans must carry real traffic end to
//! end, and the deployment's behavior must mirror the simulator's
//! semantics (latency = depth, capacity enforcement, reconfiguration).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo::prelude::*;
use remo::sim::ValueProcess;
use remo_core::reliability::rewrite_ssdp;
use remo_runtime::{Deployment, EpochReport, Sampler};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

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

/// The `Simulator` is a `Deployment` plus ground truth: on the same
/// plan, with a sampler reading the same seeded value map, both report
/// the same traffic in every one of 50 epochs and end with the same
/// store. `outage` crashes a node over `[from, until)`.
fn simulator_steps_the_deployment(
    nodes: usize,
    attrs: u32,
    (plan_budget, run_budget): (f64, f64),
    outage: Option<(NodeId, u64, u64)>,
) -> EpochReport {
    let plan_caps = CapacityMap::uniform(nodes, plan_budget, 10_000.0).unwrap();
    let run_caps = CapacityMap::uniform(nodes, run_budget, 10_000.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let pairs: PairSet = (0..nodes as u32)
        .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let catalog = AttrCatalog::new();
    let plan = plan_for(&pairs, &plan_caps, cost, &catalog);

    let config = SimConfig::default();
    let mut sim = Simulator::new(SimSetup {
        plan: &plan,
        planned_pairs: &pairs,
        metric_pairs: None,
        caps: &run_caps,
        cost,
        catalog: &catalog,
        aliases: BTreeMap::new(),
        config,
    });

    // The simulator's ground truth, rebuilt by hand: one process per
    // pair, advanced in pair order from the configured seed.
    let values: BTreeMap<(NodeId, AttrId), ValueProcess> = pairs
        .iter()
        .map(|pair| (pair, ValueProcess::new(config.default_model)))
        .collect();
    let values = Arc::new(Mutex::new(values));
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let reader = Arc::clone(&values);
    let sampler: Sampler = Arc::new(move |n, a, _| reader.lock().unwrap()[&(n, a)].value());
    let mut dep = Deployment::launch(&plan, &pairs, &run_caps, cost, &catalog, sampler);

    let mut total = EpochReport::default();
    for epoch in 1..=50u64 {
        if let Some((victim, from, until)) = outage {
            if epoch == from {
                sim.fail_node(victim);
                dep.fail_node(victim);
            } else if epoch == until {
                sim.heal_node(victim);
                dep.heal_node(victim);
            }
        }
        for process in values.lock().unwrap().values_mut() {
            process.step(&mut rng);
        }
        let (s, r) = (sim.step(), dep.tick());
        assert_eq!(
            (
                s.monitoring_volume,
                s.dropped_messages,
                s.dropped_readings,
                s.delivered_values
            ),
            (
                r.volume,
                r.dropped_messages,
                r.dropped_readings,
                r.delivered_values
            ),
            "simulator and deployment diverge at epoch {epoch}"
        );
        total.delivered_values += r.delivered_values;
        total.dropped_messages += r.dropped_messages;
        total.dropped_readings += r.dropped_readings;
        total.values_lost += r.values_lost;
    }
    assert_eq!(sim.collector().store(), dep.collector().store());
    total
}

#[test]
fn simulator_steps_the_deployment_on_a_roomy_fleet() {
    let total = simulator_steps_the_deployment(16, 4, (100.0, 100.0), None);
    assert!(total.delivered_values > 0);
    assert_eq!(total.dropped_readings + total.dropped_messages, 0);
}

#[test]
fn simulator_steps_the_deployment_on_a_starved_fleet() {
    // Planned at budget 1 000, run at 7: the overload regime where the
    // old epoch engine and the agents disagreed.
    let total = simulator_steps_the_deployment(12, 3, (1_000.0, 7.0), None);
    assert!(total.dropped_readings + total.dropped_messages > 0);
}

#[test]
fn simulator_steps_the_deployment_across_a_node_outage() {
    let total = simulator_steps_the_deployment(16, 4, (100.0, 100.0), Some((NodeId(5), 15, 30)));
    assert!(
        total.values_lost > 0,
        "the outage window is charged to the victim"
    );
}

/// §6 on the real runtime: an SSDP-rewritten plan carries every pair
/// down two trees under alias attributes. With the original tree's
/// links into its root cut, the replica tree alone must keep refreshing
/// the *original* pair at the collector.
#[test]
fn ssdp_replica_refreshes_the_original_pair_on_a_bare_deployment() {
    let mut catalog = AttrCatalog::new();
    let attr = catalog.register(AttrInfo::new("critical"));
    let task = MonitoringTask::new(TaskId(0), [attr], (0..12).map(NodeId));
    let rw = rewrite_ssdp(&task, 2, &mut catalog, TaskId(1)).unwrap();
    let pairs: PairSet = rw.tasks.iter().flat_map(MonitoringTask::pairs).collect();
    let aliases: BTreeMap<AttrId, AttrId> = rw
        .aliases
        .iter()
        .flat_map(|(&orig, ids)| ids.iter().map(move |&id| (id, orig)))
        .collect();
    let caps = CapacityMap::uniform(12, 40.0, 400.0).unwrap();
    let cost = CostModel::default();
    let plan = Planner::new(PlannerConfig {
        forbidden_pairs: rw.forbidden_pairs.clone(),
        ..PlannerConfig::default()
    })
    .plan_with_catalog(&pairs, &caps, cost, &catalog);

    let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler());
    dep.set_aliases(aliases);
    dep.run(10);
    // Only original pairs are stored: a replica is not another attribute.
    assert_eq!(dep.observed_pairs(), 12);

    // Cut every link into the root of the tree that carries the
    // original attribute; its subtree now reaches the collector through
    // the replica tree only.
    let k = plan.tree_of_attr(attr).expect("original attr planned");
    let tree = plan.trees()[k].tree.as_ref().unwrap();
    let root = tree.root();
    let cut = tree.children(root).to_vec();
    assert!(!cut.is_empty(), "the original tree has relayed members");
    for &child in &cut {
        assert!(dep.set_link_down(child, root, true));
    }
    dep.run(20);
    assert!(dep.net_stats().dropped_link_down > 0);
    let now = dep.epoch();
    for &node in &cut {
        let obs = dep.observed(node, attr).expect("original pair observed");
        assert!(
            now - obs.produced <= 12,
            "{node}'s original pair went stale behind the cut: produced {} at {now}",
            obs.produced
        );
    }
    dep.shutdown();
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
