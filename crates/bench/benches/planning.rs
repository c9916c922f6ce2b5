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

/// The capacity-starved shape of the end-to-end benchmark's
/// `plan-saturated` workload at n = 1 000 (100 attributes, 500 tasks,
/// node capacity 0.35 x pairs / attrs, collector 40 x n, C/a = 20),
/// planned with the default round cap and with one that used to cost
/// 17.5 s (`benchmark/README.md`). The search state first repeats after
/// a few hundred rounds with period 198; past that the cap is free.
fn bench_saturated_cap(c: &mut Criterion) {
    let (nodes, attrs) = (1_000, 100);
    let mut rng = SmallRng::seed_from_u64(42);
    let tasks = TaskGenConfig::small_scale(nodes, attrs).generate(500, TaskId(0), &mut rng);
    let pairs: PairSet = tasks.iter().flat_map(MonitoringTask::pairs).collect();
    let per_node = 0.35 * pairs.len() as f64 / attrs as f64;
    let caps = CapacityMap::uniform(nodes, per_node, 40.0 * nodes as f64).expect("caps");
    let cost = CostModel::from_ratio(20.0).expect("cost");
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

criterion_group!(benches, bench_partition_schemes, bench_saturated_cap);
criterion_main!(benches);
