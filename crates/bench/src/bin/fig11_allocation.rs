//! Fig. 11 — tree-wise capacity allocation schemes: UNIFORM,
//! PROPORTIONAL, ON-DEMAND, ORDERED.
//!
//! Paper shape: ON-DEMAND and ORDERED consistently beat the static
//! schemes, and ORDERED's edge over ON-DEMAND grows with scale (more
//! trees of very different sizes, where building small trees first
//! avoids starving them).

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo_bench::{f3, Reporter};
use remo_core::alloc::AllocationScheme;
use remo_core::planner::{Planner, PlannerConfig};
use remo_core::{AttrCatalog, CapacityMap, CostModel, MonitoringTask, PairSet, Partition, TaskId};
use remo_workloads::TaskGenConfig;

const ALLOCS: [(&str, AllocationScheme); 4] = [
    ("UNIFORM", AllocationScheme::Uniform),
    ("PROPORTIONAL", AllocationScheme::Proportional),
    ("ON-DEMAND", AllocationScheme::OnDemand),
    ("ORDERED", AllocationScheme::Ordered),
];

/// Mixed small + large tasks produce trees of very different sizes —
/// the regime where allocation order matters.
fn mixed_pairs(nodes: usize, attrs: usize, tasks: usize, seed: u64) -> PairSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    let small = TaskGenConfig::small_scale(nodes, attrs);
    let large = TaskGenConfig::large_scale(nodes, attrs);
    let n_small = tasks * 7 / 10;
    let mut all: Vec<MonitoringTask> = small.generate(n_small, TaskId(0), &mut rng);
    all.extend(large.generate(tasks - n_small, TaskId(n_small as u32), &mut rng));
    all.iter().flat_map(MonitoringTask::pairs).collect()
}

fn coverage(alloc: AllocationScheme, pairs: &PairSet, caps: &CapacityMap, cost: CostModel) -> f64 {
    let catalog = AttrCatalog::new();
    let planner = Planner::new(PlannerConfig {
        allocation: alloc,
        ..PlannerConfig::default()
    });
    // Fixed singleton partition isolates allocation effects.
    let ev = planner.evaluate_partition(
        &Partition::singleton(pairs.attr_universe()),
        pairs,
        caps,
        cost,
        &catalog,
    );
    remo_core::validate::assert_plan_clean(&ev.plan, pairs, caps, cost, &catalog);
    ev.coverage() * 100.0
}

fn main() {
    let cost = CostModel::new(10.0, 1.0).expect("cost");

    // 11a: sweep node count.
    let mut rep = Reporter::new("fig11a_alloc_vs_nodes");
    rep.header(&["nodes", "scheme", "collected_pct"]);
    for &nodes in &[25usize, 50, 100, 150] {
        let pairs = mixed_pairs(nodes, 40, nodes, 31 + nodes as u64);
        let caps = CapacityMap::uniform(nodes, 500.0, 120.0 * nodes as f64).expect("caps");
        for (name, alloc) in ALLOCS {
            rep.row(&[&nodes, &name, &f3(coverage(alloc, &pairs, &caps, cost))]);
        }
    }

    // 11b: sweep task count.
    let mut rep = Reporter::new("fig11b_alloc_vs_tasks");
    rep.header(&["tasks", "scheme", "collected_pct"]);
    let nodes = 60usize;
    for &tasks in &[20usize, 40, 80, 160] {
        let pairs = mixed_pairs(nodes, 40, tasks, 400 + tasks as u64);
        let caps = CapacityMap::uniform(nodes, 500.0, 7_200.0).expect("caps");
        for (name, alloc) in ALLOCS {
            rep.row(&[&tasks, &name, &f3(coverage(alloc, &pairs, &caps, cost))]);
        }
    }
}
