//! Tree-construction benchmarks: the four builders (Fig. 7's
//! candidates), the adjustment-optimization variants (Fig. 10's
//! timing dimension), the feasible and saturated regimes the planner's
//! cold plans spend their time in, the load tracker's attach at the
//! saturated trees' depth, and whole forests of the benchmark's planning
//! shapes.

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use remo_core::build::{
    build_tree, AdjustConfig, BuildRequest, BuilderKind, LoadTracker, LocalLoad, NodeDemand,
};
use remo_core::evaluate::{build_forest, EvalContext};
use remo_core::planner::Planner;
use remo_core::{
    AttrCatalog, AttrId, CapacityMap, CostModel, MonitoringTask, NodeId, PairSet, Partition, TaskId,
};
use remo_workloads::TaskGenConfig;

fn uniform_request(nodes: usize, budget: f64) -> BuildRequest {
    BuildRequest {
        attrs: [AttrId(0)].into_iter().collect(),
        demand: (0..nodes)
            .map(|i| NodeDemand {
                node: NodeId(i as u32),
                load: LocalLoad::holistic(2.0),
                budget,
                pairs: 2,
            })
            .collect(),
        collector_budget: 1e9,
        cost: CostModel::new(6.0, 1.0).expect("cost"),
        funnels: Vec::new(),
    }
}

/// Hub-pressure request (the Fig. 10 adjust-heavy regime).
fn hub_request(nodes: usize) -> BuildRequest {
    let hub = 0.7 * nodes as f64 * 2.0;
    BuildRequest {
        attrs: [AttrId(0)].into_iter().collect(),
        demand: (0..nodes)
            .map(|i| NodeDemand {
                node: NodeId(i as u32),
                load: LocalLoad::holistic(2.0),
                budget: 30.0 + hub * (1.0 - i as f64 / nodes as f64),
                pairs: 2,
            })
            .collect(),
        collector_budget: 1e9,
        cost: CostModel::new(6.0, 1.0).expect("cost"),
        funnels: Vec::new(),
    }
}

/// The `plan-feasible` benchmark's regime, one tree at a time: C/a =
/// 20, integer loads, and node budgets of 8x the tree's total load seen
/// through residual factors (earlier trees of the forest have already
/// charged the nodes). Everyone fits.
fn feasible_request(nodes: usize) -> BuildRequest {
    // Weyl sequences: seed-free, evenly spread loads and residuals.
    let load = |i: usize| 1.0 + (i * 7 % 4) as f64;
    let residual = |i: usize| 0.05 + 0.95 * (i as f64 * 0.618_033_988_749_895).fract();
    let total: f64 = (0..nodes).map(load).sum();
    BuildRequest {
        attrs: [AttrId(0)].into_iter().collect(),
        demand: (0..nodes)
            .map(|i| NodeDemand {
                node: NodeId(i as u32),
                load: LocalLoad::holistic(load(i)),
                budget: 8.0 * total * residual(i),
                pairs: load(i) as usize,
            })
            .collect(),
        collector_budget: 1e9,
        cost: CostModel::new(20.0, 1.0).expect("cost"),
        funnels: Vec::new(),
    }
}

/// The `plan-saturated` benchmark's first singleton tree: C/a = 20,
/// unit loads, and one budget (0.35x the mean pairs per attribute) that
/// fits a relay chain of 81 nodes — the pass builds that chain, its
/// first relief sweep finds nothing to move, and the other ~500 nodes
/// stay out.
fn saturated_request(nodes: usize) -> BuildRequest {
    // A k-node chain charges its root 2C - a + 2ak.
    let budget = 2.0 * 20.0 - 1.0 + 2.0 * 81.0 + 1.0;
    BuildRequest {
        attrs: [AttrId(0)].into_iter().collect(),
        demand: (0..nodes)
            .map(|i| NodeDemand {
                node: NodeId(i as u32),
                load: LocalLoad::holistic(1.0),
                budget,
                pairs: 1,
            })
            .collect(),
        collector_budget: 1e9,
        cost: CostModel::new(20.0, 1.0).expect("cost"),
        funnels: Vec::new(),
    }
}

const SCHEMES: [(&str, BuilderKind); 4] = [
    ("star", BuilderKind::Star),
    ("chain", BuilderKind::Chain),
    ("max_avb", BuilderKind::MaxAvb),
    (
        "adaptive",
        BuilderKind::Adaptive(AdjustConfig {
            branch_based: true,
            subtree_only: true,
        }),
    ),
];

fn bench_builders(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_builders");
    group.sample_size(20);
    for &nodes in &[50usize, 200] {
        let req = uniform_request(nodes, 60.0);
        for (name, kind) in SCHEMES {
            group.bench_with_input(BenchmarkId::new(name, nodes), &kind, |b, &kind| {
                b.iter(|| build_tree(kind, &req));
            });
        }
    }
    group.finish();
}

/// The criterion twin of the benchmark's `core.build.tree_us_adaptive`
/// (and `_star`): runs without the fleet or the planner around it.
fn bench_feasible(c: &mut Criterion) {
    let mut group = c.benchmark_group("feasible");
    group.sample_size(20);
    for &nodes in &[230usize, 700] {
        let req = feasible_request(nodes);
        for (name, kind) in SCHEMES {
            group.bench_with_input(BenchmarkId::new(name, nodes), &kind, |b, &kind| {
                b.iter(|| build_tree(kind, &req));
            });
        }
    }
    group.finish();
}

/// Where the adaptive builder's MAX_AVB challenger continues from its
/// own pass instead of rebuilding the shared chain (CHAIN, timed here
/// as a baseline, is no challenger).
fn bench_saturated(c: &mut Criterion) {
    let mut group = c.benchmark_group("saturated");
    group.sample_size(20);
    let nodes = 580;
    let req = saturated_request(nodes);
    for (name, kind) in SCHEMES {
        group.bench_with_input(BenchmarkId::new(name, nodes), &kind, |b, &kind| {
            b.iter(|| build_tree(kind, &req));
        });
    }
    group.finish();
}

/// A relay chain `depth` nodes deep below its root, at C/a = 20 with
/// unit loads: the saturated trees' shape. The relays have room to
/// spare and the root is the binding budget, with room for one more
/// value.
fn root_bound_chain(depth: u32) -> LoadTracker {
    let mut t = LoadTracker::new(CostModel::new(20.0, 1.0).expect("cost"), Vec::new(), 1e9);
    // A k-node chain charges its root 2C - a + 2ak; one more value
    // relayed to it costs it 2a more.
    let k = f64::from(depth + 1);
    let root_budget = 2.0 * 20.0 - 1.0 + 2.0 * k + 2.0;
    t.init_root(NodeId(0), LocalLoad::holistic(1.0), root_budget)
        .expect("root");
    for i in 1..=depth {
        t.try_attach(NodeId(i), LocalLoad::holistic(1.0), 1e9, NodeId(i - 1))
            .expect("relay");
    }
    t
}

/// One leaf attach below a 40-deep chain's tail, `ATTACHES` times per
/// iteration: each walks the whole path to the root. An accepted attach
/// is followed by the leaf's detach (which walks the path again), so
/// every attach sees the same chain; a refused one is turned down at
/// the root and leaves the chain as it was.
fn bench_tracker(c: &mut Criterion) {
    const ATTACHES: u32 = 1_000;
    let mut group = c.benchmark_group("tracker");
    let depth = 40;
    let mut t = root_bound_chain(depth);
    let (leaf, tail) = (NodeId(depth + 1), NodeId(depth));
    let accepted = BenchmarkId::new(format!("accepted_attach_detach_x{ATTACHES}"), depth);
    group.bench_with_input(accepted, &depth, |b, _| {
        b.iter(|| {
            for _ in 0..ATTACHES {
                t.try_attach(leaf, LocalLoad::holistic(1.0), 1e9, tail)
                    .expect("one more value fits");
                t.detach_subtree(leaf);
            }
        });
    });
    let refused = BenchmarkId::new(format!("refused_attach_x{ATTACHES}"), depth);
    group.bench_with_input(refused, &depth, |b, _| {
        b.iter(|| {
            for _ in 0..ATTACHES {
                t.try_attach(leaf, LocalLoad::holistic(2.0), 1e9, tail)
                    .expect_err("two more values do not");
            }
        });
    });
    group.finish();
}

/// An input of the end-to-end benchmark's planning workloads: `tasks`
/// small-scale tasks over `nodes` nodes and 100 attributes at C/a = 20,
/// node capacity `node_capacity` x pairs / attrs, collector
/// `collector_capacity` x n.
fn plan_shape(
    nodes: usize,
    tasks: usize,
    node_capacity: f64,
    collector_capacity: f64,
) -> (PairSet, CapacityMap, CostModel) {
    let attrs = 100;
    let mut rng = SmallRng::seed_from_u64(42);
    let tasks = TaskGenConfig::small_scale(nodes, attrs).generate(tasks, TaskId(0), &mut rng);
    let pairs: PairSet = tasks.iter().flat_map(MonitoringTask::pairs).collect();
    let per_node = node_capacity * pairs.len() as f64 / attrs as f64;
    let caps =
        CapacityMap::uniform(nodes, per_node, collector_capacity * nodes as f64).expect("caps");
    (pairs, caps, CostModel::from_ratio(20.0).expect("cost"))
}

/// Whole forests, where the tree kernel's id and budget lookups add up:
/// the singleton forest of the `plan-saturated` shape (n = 10 000, one
/// starved tree per attribute) and a cold plan of the `plan-feasible`
/// shape (n = 1 000), the seed forests, the local window's candidate
/// trees and the global phase's forests together.
fn bench_forest(c: &mut Criterion) {
    let mut group = c.benchmark_group("forest");
    group.sample_size(10);
    let planner = Planner::default();
    let catalog = AttrCatalog::new();

    let (pairs, caps, cost) = plan_shape(10_000, 2_000, 0.35, 40.0);
    let ctx = EvalContext::basic(&pairs, &caps, cost, &catalog);
    let singletons = Partition::singleton(pairs.attr_universe());
    group.bench_with_input(
        BenchmarkId::new("saturated_singletons", 10_000),
        &singletons,
        |b, singletons| b.iter(|| build_forest(singletons, &ctx)),
    );

    let (pairs, caps, cost) = plan_shape(1_000, 500, 8.0, 1_000.0);
    group.bench_with_input(
        BenchmarkId::new("feasible_cold_plan", 1_000),
        &planner,
        |b, planner| b.iter(|| planner.plan_with_catalog(&pairs, &caps, cost, &catalog)),
    );
    group.finish();
}

fn bench_adjust_optimizations(c: &mut Criterion) {
    let mut group = c.benchmark_group("adjusting_procedure");
    group.sample_size(10);
    let req = hub_request(200);
    for (name, cfg) in [
        ("basic", AdjustConfig::basic()),
        (
            "branch_based",
            AdjustConfig {
                branch_based: true,
                subtree_only: false,
            },
        ),
        ("combined", AdjustConfig::default()),
    ] {
        group.bench_with_input(BenchmarkId::new(name, 200), &cfg, |b, &cfg| {
            b.iter(|| build_tree(BuilderKind::Adaptive(cfg), &req));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_builders,
    bench_adjust_optimizations,
    bench_feasible,
    bench_saturated,
    bench_tracker,
    bench_forest
);
criterion_main!(benches);
