//! Extensions end to end (paper §6): in-network aggregation,
//! reliability rewriting, and heterogeneous update frequencies.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo::prelude::*;
use remo_core::frequency::plan_frequency_groups;
use remo_core::reliability::{rewrite_dsdp, rewrite_ssdp};
use remo_core::{MonitoringTask, TaskId};
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn aggregation_aware_plan_collects_more_under_tight_collector() {
    let mut catalog = AttrCatalog::new();
    let maxes: Vec<AttrId> = (0..3)
        .map(|i| {
            catalog.register(AttrInfo::new(format!("max{i}")).with_aggregation(Aggregation::Max))
        })
        .collect();
    let pairs: PairSet = (0..20)
        .flat_map(|n| maxes.iter().map(move |&a| (NodeId(n), a)))
        .collect();
    let caps = CapacityMap::uniform(20, 12.0, 30.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();

    let naive = Planner::default()
        .plan_with_catalog(&pairs, &caps, cost, &catalog)
        .collected_pairs();
    let aware = Planner::new(PlannerConfig {
        aggregation_aware: true,
        ..PlannerConfig::default()
    })
    .plan_with_catalog(&pairs, &caps, cost, &catalog)
    .collected_pairs();
    assert!(
        aware > naive,
        "aggregation awareness must pay off: {aware} vs {naive}"
    );
}

#[test]
fn aggregated_values_are_correct_in_simulation() {
    let mut catalog = AttrCatalog::new();
    let m = catalog.register(AttrInfo::new("m").with_aggregation(Aggregation::Max));
    let pairs: PairSet = (0..6).map(|n| (NodeId(n), m)).collect();
    let caps = CapacityMap::uniform(6, 50.0, 500.0).unwrap();
    let cost = CostModel::default();
    let plan = Planner::new(PlannerConfig {
        aggregation_aware: true,
        ..PlannerConfig::default()
    })
    .plan_with_catalog(&pairs, &caps, cost, &catalog);

    let mut sim = Simulator::new(SimSetup {
        plan: &plan,
        planned_pairs: &pairs,
        metric_pairs: None,
        caps: &caps,
        cost,
        catalog: &catalog,
        aliases: BTreeMap::new(),
        config: SimConfig {
            default_model: ValueModel::Constant(0.0),
            ..SimConfig::default()
        },
    });
    // Give each node a distinct constant; the MAX must win.
    for n in 0..6 {
        sim.set_model(NodeId(n), m, ValueModel::Constant(10.0 + n as f64));
    }
    sim.run(12);
    let agg = sim
        .collector()
        .observed_aggregate(m)
        .expect("aggregate recorded");
    assert_eq!(agg.value, 15.0, "MAX over 10..=15");
}

#[test]
fn ssdp_replication_survives_single_link_failure() {
    let mut catalog = AttrCatalog::new();
    let attr = catalog.register(AttrInfo::new("critical"));
    let task = MonitoringTask::new(TaskId(0), [attr], (0..12).map(NodeId));
    let metric_pairs: PairSet = task.pairs().collect();
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

    // Replicas in different trees.
    for (a, b) in &rw.forbidden_pairs {
        assert_ne!(plan.tree_of_attr(*a), plan.tree_of_attr(*b));
    }

    let mut sim = Simulator::new(SimSetup {
        plan: &plan,
        planned_pairs: &pairs,
        metric_pairs: Some(&metric_pairs),
        caps: &caps,
        cost,
        catalog: &catalog,
        aliases,
        config: SimConfig::default(),
    });
    sim.run(10);
    // Sever one tree's root link entirely.
    let t0 = plan.trees()[0].tree.as_ref().unwrap();
    for child in t0.children(t0.root()) {
        sim.fail_link(*child, t0.root());
    }
    sim.run(20);
    // The other replica keeps the snapshot fresh for most pairs.
    assert!(
        sim.fresh_fraction(4) > 0.5,
        "replication should keep most pairs fresh, got {}",
        sim.fresh_fraction(4)
    );
}

#[test]
fn ssdp_delivers_every_attribute_with_replica_tree_root_down() {
    // Same rewrite as above, but the failure is a whole NODE — the
    // root of the tree carrying the original attribute — scripted as
    // a FailureSchedule instead of imperative fail_link calls. Every
    // original attribute must keep flowing through the surviving
    // replica tree; only pairs sourced at the dead node itself can go
    // stale.
    let mut catalog = AttrCatalog::new();
    let attr = catalog.register(AttrInfo::new("critical"));
    let task = MonitoringTask::new(TaskId(0), [attr], (0..12).map(NodeId));
    let metric_pairs: PairSet = task.pairs().collect();
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

    let mut sim = Simulator::new(SimSetup {
        plan: &plan,
        planned_pairs: &pairs,
        metric_pairs: Some(&metric_pairs),
        caps: &caps,
        cost,
        catalog: &catalog,
        aliases,
        config: SimConfig::default(),
    });
    sim.run(10);

    // Crash the root of the original attribute's tree, permanently,
    // from epoch 11 on.
    let k = plan.tree_of_attr(attr).expect("original attr planned");
    let victim = plan.trees()[k].tree.as_ref().unwrap().root();
    let mut sched = FailureSchedule::new();
    sched.add(Outage::node(victim, 11, None));
    sim.run_schedule(&sched, 20);

    let now = sim.epoch();
    // Every original pair not sourced at the dead node is still being
    // delivered through the surviving replica's tree.
    for (n, a) in metric_pairs.iter().filter(|(n, _)| *n != victim) {
        let stored = sim.collector().observed(n, a).expect("pair delivered");
        assert!(
            now - stored.produced <= 12,
            "pair {n}/{a} went stale with one replica root down: produced {} at epoch {now}",
            stored.produced
        );
    }
    // Attribute-level SLO: the schedule killed one of twelve sources,
    // so at least 11/12 of the task's pairs stay fresh.
    let fraction = sim.fresh_fraction(12);
    assert!(
        fraction >= 11.0 / 12.0 - 1e-9,
        "replication should hold all surviving pairs fresh, got {fraction}"
    );
}

#[test]
fn dsdp_uses_disjoint_sources() {
    let mut catalog = AttrCatalog::new();
    let attr = catalog.register(AttrInfo::new("shared_storage_iops"));
    let groups: Vec<BTreeSet<NodeId>> = (0..4)
        .map(|g| (0..3).map(|i| NodeId(g * 3 + i)).collect())
        .collect();
    let rw = rewrite_dsdp(attr, &groups, 2, &mut catalog, TaskId(0)).unwrap();
    let all_nodes: BTreeSet<NodeId> = rw
        .tasks
        .iter()
        .flat_map(|t| t.nodes().iter().copied())
        .collect();
    assert_eq!(all_nodes.len(), 8, "2 representatives × 4 groups");
    let pairs: PairSet = rw.tasks.iter().flat_map(MonitoringTask::pairs).collect();
    let caps = CapacityMap::uniform(12, 40.0, 400.0).unwrap();
    let plan = Planner::new(PlannerConfig {
        forbidden_pairs: rw.forbidden_pairs.clone(),
        ..PlannerConfig::default()
    })
    .plan_with_catalog(&pairs, &caps, CostModel::default(), &catalog);
    for (a, b) in &rw.forbidden_pairs {
        assert_ne!(plan.tree_of_attr(*a), plan.tree_of_attr(*b));
    }
}

#[test]
fn frequency_groups_collect_slow_attrs_cheaply() {
    let mut catalog = AttrCatalog::new();
    let fast = catalog.register(AttrInfo::new("fast"));
    let slow = catalog.register(AttrInfo::new("slow").with_frequency(0.25).unwrap());
    let mut pairs = PairSet::new();
    for n in 0..15 {
        pairs.insert(NodeId(n), fast);
        pairs.insert(NodeId(n), slow);
    }
    let caps = CapacityMap::uniform(15, 20.0, 200.0).unwrap();
    let grouped = plan_frequency_groups(
        &Planner::default(),
        &pairs,
        &caps,
        CostModel::default(),
        &catalog,
    );
    assert_eq!(grouped.groups.len(), 2);
    // The slow group's per-unit-time volume is a fraction of the fast
    // group's despite identical pair counts.
    let fast_vol = grouped.groups[0].plan.message_volume();
    let slow_vol = grouped.groups[1].plan.message_volume();
    assert!(
        slow_vol < fast_vol * 0.5,
        "slow {slow_vol} vs fast {fast_vol}"
    );
}

#[test]
fn frequency_aware_piggyback_collects_at_least_naive() {
    let mut catalog = AttrCatalog::new();
    let mut pairs = PairSet::new();
    for i in 0..4 {
        let a = catalog.register(
            AttrInfo::new(format!("a{i}"))
                .with_frequency(if i % 2 == 0 { 1.0 } else { 0.5 })
                .unwrap(),
        );
        for n in 0..15 {
            pairs.insert(NodeId(n), a);
        }
    }
    let caps = CapacityMap::uniform(15, 14.0, 80.0).unwrap();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let naive = Planner::default()
        .plan_with_catalog(&pairs, &caps, cost, &catalog)
        .collected_pairs();
    let aware = Planner::new(PlannerConfig {
        frequency_aware: true,
        ..PlannerConfig::default()
    })
    .plan_with_catalog(&pairs, &caps, cost, &catalog)
    .collected_pairs();
    assert!(
        aware >= naive,
        "frequency awareness regressed: {aware} < {naive}"
    );
}
