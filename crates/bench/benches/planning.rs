//! Planning-time benchmarks: the three partition schemes at two
//! scales. Complements the figure harnesses with statistically sound
//! timing (the schemes' *coverage* comparison lives in fig5/fig6).

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo_core::planner::{PartitionScheme, Planner, PlannerConfig};
use remo_core::{AttrCatalog, CapacityMap, CostModel, MonitoringTask, PairSet, TaskId};
use remo_workloads::TaskGenConfig;

fn workload(nodes: usize, attrs: usize, tasks: usize) -> (PairSet, CapacityMap, CostModel) {
    let gen = TaskGenConfig::small_scale(nodes, attrs);
    let mut rng = SmallRng::seed_from_u64(42);
    let tasks = gen.generate(tasks, TaskId(0), &mut rng);
    let pairs: PairSet = tasks.iter().flat_map(MonitoringTask::pairs).collect();
    let caps = CapacityMap::uniform(nodes, 800.0, 16_000.0).expect("caps");
    (pairs, caps, CostModel::new(50.0, 1.0).expect("cost"))
}

fn bench_partition_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan");
    group.sample_size(10);
    for &(nodes, attrs, tasks) in &[(50usize, 40usize, 40usize), (100, 80, 100)] {
        let (pairs, caps, cost) = workload(nodes, attrs, tasks);
        let catalog = AttrCatalog::new();
        let planner = Planner::new(PlannerConfig::default());
        for (name, scheme) in [
            ("singleton", PartitionScheme::SingletonSet),
            ("one-set", PartitionScheme::OneSet),
            ("remo", PartitionScheme::Remo),
        ] {
            group.bench_with_input(
                BenchmarkId::new(name, format!("n{nodes}_t{tasks}")),
                &scheme,
                |b, &scheme| {
                    b.iter(|| scheme.plan(&planner, &pairs, &caps, cost, &catalog));
                },
            );
        }
    }
    group.finish();
}

/// An n = 1 000 input of the end-to-end benchmark's planning workloads
/// (100 attributes, 500 tasks, C/a = 20): node capacity
/// `node_capacity` x pairs / attrs, collector `collector_capacity` x n.
fn benchmark_shape(
    node_capacity: f64,
    collector_capacity: f64,
) -> (PairSet, CapacityMap, CostModel) {
    let (nodes, attrs) = (1_000, 100);
    let mut rng = SmallRng::seed_from_u64(42);
    let tasks = TaskGenConfig::small_scale(nodes, attrs).generate(500, TaskId(0), &mut rng);
    let pairs: PairSet = tasks.iter().flat_map(MonitoringTask::pairs).collect();
    let per_node = node_capacity * pairs.len() as f64 / attrs as f64;
    let caps =
        CapacityMap::uniform(nodes, per_node, collector_capacity * nodes as f64).expect("caps");
    (pairs, caps, CostModel::from_ratio(20.0).expect("cost"))
}

/// The capacity-starved shape of `plan-saturated` (node capacity 0.35,
/// collector 40), planned with the default round cap and with one that
/// used to cost 17.5 s (`benchmark/README.md`). The search state first
/// repeats after a few hundred rounds with period 198; past that the
/// cap is free.
fn bench_saturated_cap(c: &mut Criterion) {
    let (pairs, caps, cost) = benchmark_shape(0.35, 40.0);
    let catalog = AttrCatalog::new();

    let mut group = c.benchmark_group("plan_saturated_cap");
    group.sample_size(10);
    for max_rounds in [128usize, 100_000] {
        let planner = Planner::new(PlannerConfig {
            max_rounds,
            ..PlannerConfig::default()
        });
        group.bench_with_input(
            BenchmarkId::new("max_rounds", max_rounds),
            &planner,
            |b, planner| b.iter(|| planner.plan_with_catalog(&pairs, &caps, cost, &catalog)),
        );
    }
    group.finish();
}

/// The feasible shape of `plan-feasible` (node capacity 8, collector
/// 1 000) by phase: the seed phase alone (`max_rounds: 0` returns the
/// chosen seed forest) and the whole cold plan. The difference of the
/// two is the search's rounds.
fn bench_plan_phases(c: &mut Criterion) {
    let (pairs, caps, cost) = benchmark_shape(8.0, 1_000.0);
    let catalog = AttrCatalog::new();

    let mut group = c.benchmark_group("plan_phases");
    group.sample_size(10);
    for (phase, max_rounds) in [
        ("seed", 0),
        ("cold_plan", PlannerConfig::default().max_rounds),
    ] {
        let planner = Planner::new(PlannerConfig {
            max_rounds,
            ..PlannerConfig::default()
        });
        group.bench_function(phase, |b| {
            b.iter(|| planner.plan_with_catalog(&pairs, &caps, cost, &catalog))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partition_schemes,
    bench_saturated_cap,
    bench_plan_phases
);
criterion_main!(benches);
