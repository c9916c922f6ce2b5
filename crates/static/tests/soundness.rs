//! Soundness of the static analyzer against the dynamic layers.
//!
//! Random (deployment spec, NetSpec, degrade policy) triples are
//! pushed through the *real* lossy runtime and every observation is
//! checked against the analyzer's closed-form bounds:
//!
//! * the concrete plan the planner picks lands inside the symbolic
//!   per-node / collector usage intervals,
//! * per-epoch traffic volume never exceeds the token-bucket ceiling
//!   the analyzer assumes,
//! * the collector ingress depth never exceeds the static queue
//!   bound, a shed-free certification is never contradicted, and the
//!   degrade factor stays within the configured ladder,
//! * on certified triples, once the network heals the end-to-end
//!   snapshot age settles under the worst-case staleness bound.
//!
//! Precision (bound / observed) is logged per case so looseness is
//! visible, not silent.
//!
//! A failing case replays: the case's inputs are a function of the test
//! name and the case number, and the deployment steps its agents on
//! this thread, so the run those inputs produce is the same every time.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use remo::spec::{AttrSpec, DeploymentSpec, TaskSpec};
use remo_core::planner::Planner;
use remo_core::{AttrId, NodeId};
use remo_runtime::{
    Deployment, HealthConfig, NetConfig, NetSpec, PartitionWindow, Sampler, TransportSpec,
};
use remo_static::{analyze, StaticBundle};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Epoch the random network faults cease.
const FAULTY_END: u64 = 12;

fn sampler() -> Sampler {
    Arc::new(|n: NodeId, a: AttrId, e: u64| (n.0 as f64) * 100.0 + (a.0 as f64) * 10.0 + e as f64)
}

#[derive(Debug, Clone)]
struct Triple {
    bundle: StaticBundle,
}

fn freq_of(ix: u8) -> f64 {
    [1.0, 0.5, 0.25][ix as usize % 3]
}

#[allow(clippy::too_many_arguments)]
fn build_triple(
    nodes: u32,
    attrs: u32,
    freq_ix: u8,
    node_budget: f64,
    seed: u64,
    drop: f64,
    delay_max: u64,
    dup: f64,
    reorder: f64,
    part: Option<(u32, u64, u64)>,
    base_rto: u64,
    max_attempts: u32,
    ingress_capacity: usize,
    max_degrade_level: u32,
) -> Triple {
    let spec = DeploymentSpec {
        nodes: nodes as usize,
        node_capacity: node_budget,
        capacity_overrides: BTreeMap::new(),
        collector_capacity: 1_000_000.0,
        per_message_cost: 2.0,
        per_value_cost: 1.0,
        attributes: (0..attrs)
            .map(|a| AttrSpec {
                name: format!("m{a}"),
                aggregation: None,
                frequency: Some(freq_of(freq_ix.wrapping_add(a as u8))),
            })
            .collect(),
        tasks: vec![TaskSpec {
            attrs: (0..attrs).collect(),
            nodes: (0..nodes).collect(),
        }],
        aggregation_aware: false,
        frequency_aware: false,
    };
    let partitions = match part {
        Some((member, from, len)) => vec![PartitionWindow {
            name: "window".into(),
            members: [NodeId(member % nodes)].into_iter().collect(),
            from_epoch: 3 + from % 6,
            until_epoch: Some(3 + from % 6 + 1 + len % 4),
        }],
        None => Vec::new(),
    };
    let net = NetSpec {
        seed,
        drop,
        delay_max,
        dup,
        reorder,
        partitions,
        active_until: Some(FAULTY_END),
        ..NetSpec::default()
    };
    let cfg = NetConfig {
        base_rto,
        max_attempts,
        ingress_capacity,
        max_degrade_level,
        ..NetConfig::default()
    };
    Triple {
        bundle: StaticBundle {
            spec,
            net: Some(net),
            net_config: Some(cfg),
            staleness_slo: None,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn static_bounds_hold_against_the_lossy_runtime(
        nodes in 2u32..5,
        attrs in 1u32..3,
        freq_ix in 0u8..3,
        tight_nodes in 0u8..2,
        seed in 0u64..u64::MAX,
        drop in 0.0f64..0.25,
        delay_max in 0u64..3,
        dup in 0.0f64..0.15,
        reorder in 0.0f64..0.15,
        part_member in 0u32..9,
        part_from in 0u64..8,
        part_len in 0u64..8,
        base_rto in 1u64..3,
        max_attempts in 1u32..4,
        ingress_ix in 0usize..3,
        max_degrade_level in 0u32..3,
    ) {
        let node_budget = if tight_nodes == 0 { 60.0 } else { 10_000.0 };
        let ingress_capacity = [16usize, 2048, 4096][ingress_ix];
        // part_member == 8 (out of node range for every size we draw)
        // doubles as "no partition window".
        let part = (part_member < 8).then_some((part_member, part_from, part_len));
        let triple = build_triple(
            nodes, attrs, freq_ix, node_budget, seed, drop, delay_max, dup, reorder,
            part, base_rto, max_attempts, ingress_capacity, max_degrade_level,
        );
        let report = analyze(&triple.bundle).expect("triple analyzes");

        // Concrete plan vs the symbolic cost intervals.
        let spec = &triple.bundle.spec;
        let pairs = spec.pairs().unwrap();
        let caps = spec.capacities().unwrap();
        let cost = spec.cost().unwrap();
        let catalog = spec.catalog().unwrap();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let fully_collected = plan.collected_pairs() == pairs.len();
        for (n, u) in plan.node_usage() {
            let iv = report.cost.node(n);
            prop_assert!(
                u <= iv.hi() * (1.0 + 1e-6),
                "node {} usage {} escapes static hi {}", n, u, iv.hi()
            );
            if fully_collected {
                prop_assert!(
                    u >= iv.lo() * (1.0 - 1e-6),
                    "node {} usage {} undercuts static lo {}", n, u, iv.lo()
                );
            }
        }
        prop_assert!(plan.collector_usage() <= report.cost.collector.hi() * (1.0 + 1e-6));
        if fully_collected {
            prop_assert!(plan.collector_usage() >= report.cost.collector.lo() * (1.0 - 1e-6));
        }

        // Drive the lossy runtime: faulty phase, then a quiet tail at
        // least as long as the worst staleness bound.
        let worst = report.staleness.worst().expect("attrs demanded");
        let total = FAULTY_END + worst + 4;
        let net = triple.bundle.net.clone().unwrap();
        let cfg = triple.bundle.net_config.unwrap();
        let budget_ceiling: f64 = caps.iter().map(|(_, b)| b).sum();
        let mut dep = Deployment::launch_with_transport(
            &plan, &pairs, &caps, cost, &catalog, sampler(),
            HealthConfig::default(), TransportSpec::Lossy(net, cfg),
        );
        let mut peak_depth = 0u64;
        let mut shed_total = 0u64;
        let mut peak_volume = 0.0f64;
        for _ in 0..total {
            let r = dep.run(1);
            peak_depth = peak_depth.max(r.ingress_depth);
            shed_total += r.shed_readings;
            peak_volume = peak_volume.max(r.volume);
            prop_assert!(
                r.volume <= budget_ceiling * (1.0 + 1e-6),
                "epoch volume {} escapes the token-bucket ceiling {}", r.volume, budget_ceiling
            );
            prop_assert!(
                r.ingress_depth <= report.degrade.queue_bound as u64,
                "ingress depth {} escapes the static queue bound {}",
                r.ingress_depth, report.degrade.queue_bound
            );
            prop_assert!(
                r.degrade_factor <= report.staleness.max_degrade_factor,
                "degrade factor {} escapes the ladder cap {}",
                r.degrade_factor, report.staleness.max_degrade_factor
            );
        }
        if report.degrade.shed_free {
            prop_assert!(
                shed_total == 0,
                "analyzer certified shed-freedom but {} readings were shed", shed_total
            );
        }

        // Certified staleness: after the quiet tail every collected
        // pair's snapshot age sits under its closed-form bound.
        if fully_collected && report.staleness_certified() {
            let epoch = dep.epoch();
            let mut worst_age = 0u64;
            for (n, a) in pairs.iter() {
                let obs = dep.observed(n, a);
                prop_assert!(obs.is_some(), "certified pair {}/{} never observed", n, a);
                let age = epoch - obs.unwrap().produced;
                let bound = report.staleness.per_attr[&a];
                prop_assert!(
                    age <= bound,
                    "pair {}/{} age {} escapes the static staleness bound {}", n, a, age, bound
                );
                worst_age = worst_age.max(age);
            }
            eprintln!(
                "precision: staleness bound {worst} / observed {worst_age}; \
                 queue bound {} / observed {peak_depth}; \
                 volume ceiling {budget_ceiling:.0} / observed {peak_volume:.0}",
                report.degrade.queue_bound
            );
        }
        dep.shutdown();
    }
}
