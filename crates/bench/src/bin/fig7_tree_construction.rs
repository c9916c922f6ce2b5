//! Fig. 7 — tree-construction schemes (STAR, CHAIN, MAX_AVB, REMO's
//! ADAPTIVE) under varying workload and system characteristics.
//!
//! Paper shapes: ADAPTIVE best everywhere; CHAIN wins among baselines
//! only under light load (its relay cost kills it under heavy load);
//! STAR is relatively better under heavy load; MAX_AVB is good under
//! light load but degrades with pressure.

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo_bench::{f3, Reporter};
use remo_core::build::{AdjustConfig, BuilderKind};
use remo_core::planner::{Planner, PlannerConfig};
use remo_core::{AttrCatalog, CapacityMap, CostModel, MonitoringTask, PairSet, Partition, TaskId};
use remo_workloads::TaskGenConfig;

const BUILDERS: [(&str, BuilderKind); 4] = [
    ("STAR", BuilderKind::Star),
    ("CHAIN", BuilderKind::Chain),
    ("MAX_AVB", BuilderKind::MaxAvb),
    (
        "ADAPTIVE",
        BuilderKind::Adaptive(AdjustConfig {
            branch_based: true,
            subtree_only: true,
        }),
    ),
];

fn collected(builder: BuilderKind, pairs: &PairSet, caps: &CapacityMap, cost: CostModel) -> f64 {
    let catalog = AttrCatalog::new();
    let planner = Planner::new(PlannerConfig {
        builder,
        ..PlannerConfig::default()
    });
    // Fixed mid-granularity partition (5 sets) isolates tree
    // construction from partition search.
    let universe: Vec<_> = pairs.attrs().collect();
    let k = 5usize;
    let sets: Vec<_> = (0..k)
        .map(|g| {
            universe
                .iter()
                .enumerate()
                .filter(|(i, _)| i % k == g)
                .map(|(_, &a)| a)
                .collect()
        })
        .collect();
    let partition = Partition::from_sets(sets).expect("disjoint");
    let ev = planner.evaluate_partition(&partition, pairs, caps, cost, &catalog);
    remo_core::validate::assert_plan_clean(&ev.plan, pairs, caps, cost, &catalog);
    ev.coverage() * 100.0
}

fn main() {
    let nodes = 50usize;
    let attrs = 40usize;
    // Payload-dominated regime for the workload sweeps: relay cost is
    // what separates STAR from CHAIN under heavy load (paper §7).
    let cost = CostModel::new(2.0, 1.0).expect("cost");

    // 7a: sweep workload (number of tasks) — light to heavy.
    let mut rep = Reporter::new("fig7a_workload");
    rep.header(&["tasks", "builder", "collected_pct"]);
    for &count in &[5usize, 15, 40, 100] {
        let gen = TaskGenConfig::small_scale(nodes, attrs);
        let mut rng = SmallRng::seed_from_u64(3 + count as u64);
        let tasks = gen.generate(count, TaskId(0), &mut rng);
        let pairs: PairSet = tasks.iter().flat_map(MonitoringTask::pairs).collect();
        let caps = CapacityMap::uniform(nodes, 300.0, 8_000.0).expect("caps");
        for (name, kind) in BUILDERS {
            rep.row(&[&count, &name, &f3(collected(kind, &pairs, &caps, cost))]);
        }
    }

    // 7b: sweep node budget (system generosity) at fixed heavy load.
    let mut rep = Reporter::new("fig7b_budget");
    rep.header(&["node_budget", "builder", "collected_pct"]);
    let gen = TaskGenConfig::small_scale(nodes, attrs);
    let mut rng = SmallRng::seed_from_u64(11);
    let tasks = gen.generate(60, TaskId(0), &mut rng);
    let pairs: PairSet = tasks.iter().flat_map(MonitoringTask::pairs).collect();
    for &budget in &[60.0f64, 120.0, 240.0, 480.0] {
        let caps = CapacityMap::uniform(nodes, budget, 5_000.0).expect("caps");
        for (name, kind) in BUILDERS {
            rep.row(&[&budget, &name, &f3(collected(kind, &pairs, &caps, cost))]);
        }
    }

    // 7c/7d: sweep C/a under light and heavy workloads.
    for (fig, count, budget) in [
        ("fig7c_ca_light", 10usize, 200.0f64),
        ("fig7d_ca_heavy", 60, 150.0),
    ] {
        let mut rep = Reporter::new(fig);
        rep.header(&["c_over_a", "builder", "collected_pct"]);
        let gen = TaskGenConfig::small_scale(nodes, attrs);
        let mut rng = SmallRng::seed_from_u64(23);
        let tasks = gen.generate(count, TaskId(0), &mut rng);
        let pairs: PairSet = tasks.iter().flat_map(MonitoringTask::pairs).collect();
        for &ca in &[1.0f64, 5.0, 20.0, 50.0] {
            let cost = CostModel::new(ca, 1.0).expect("cost");
            let caps = CapacityMap::uniform(nodes, budget, 5_000.0).expect("caps");
            for (name, kind) in BUILDERS {
                rep.row(&[&f3(ca), &name, &f3(collected(kind, &pairs, &caps, cost))]);
            }
        }
    }
}
