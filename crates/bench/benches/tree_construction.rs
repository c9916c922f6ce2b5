//! Tree-construction benchmarks: the four builders (Fig. 7's
//! candidates), the adjustment-optimization variants (Fig. 10's
//! timing dimension), and the feasible and saturated regimes the
//! planner's cold plans spend their time in.

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use remo_core::build::{
    build_tree, AdjustConfig, BuildRequest, BuilderKind, LocalLoad, NodeDemand,
};
use remo_core::{AttrId, CostModel, NodeId};

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

/// Where the adaptive builder's challengers continue from its own pass
/// instead of rebuilding the shared chain.
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
    bench_saturated
);
criterion_main!(benches);
