//! Golden build outcomes: every builder must keep producing, bit for
//! bit, the outcomes pinned in `golden/build_outcomes.txt`.
//!
//! The fixture was generated at the commit *before* the tree kernel was
//! first touched (challenger pruning; a dense tracker and linear relief
//! sweeps are to follow), so it is the original kernel's answer, not a
//! later kernel's opinion of itself. One line per (scenario, builder, n): a digest over the tree's
//! JSON, every usage float's bits, the exclusion order and the bits of
//! `message_volume` / `collector_usage`, followed by the collected-pair
//! and exclusion counts so a mismatch says roughly what moved.
//!
//! Regenerate (only when an outcome change is intended and explained):
//! `cargo test -p remo-core --test golden_build -- --ignored regenerate`

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use remo_core::build::{
    build_tree, AdjustConfig, BuildOutcome, BuildRequest, BuilderKind, LocalLoad, NodeDemand,
};
use remo_core::{Aggregation, AttrId, CostModel, NodeId};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("golden/build_outcomes.txt");
const SIZES: [usize; 5] = [1, 2, 50, 229, 700];

fn kinds() -> Vec<(&'static str, BuilderKind)> {
    vec![
        ("star", BuilderKind::Star),
        ("chain", BuilderKind::Chain),
        ("max_avb", BuilderKind::MaxAvb),
        (
            "adaptive_basic",
            BuilderKind::Adaptive(AdjustConfig::basic()),
        ),
        (
            "adaptive_branch",
            BuilderKind::Adaptive(AdjustConfig {
                branch_based: true,
                subtree_only: false,
            }),
        ),
        (
            "adaptive_combined",
            BuilderKind::Adaptive(AdjustConfig::default()),
        ),
    ]
}

/// A request over nodes with sparse ascending ids, listed in id order
/// as the planner lists them, loads from `load`, budgets from `budget`.
fn request(
    n: usize,
    cost: (f64, f64),
    collector: f64,
    funnels: Vec<Aggregation>,
    mut load: impl FnMut(usize) -> LocalLoad,
    mut budget: impl FnMut(usize, &LocalLoad) -> f64,
) -> BuildRequest {
    BuildRequest {
        attrs: [AttrId(0)].into_iter().collect(),
        demand: (0..n)
            .map(|i| {
                let l = load(i);
                NodeDemand {
                    node: NodeId(3 * i as u32 + 1),
                    budget: budget(i, &l),
                    pairs: l.total().ceil().max(1.0) as usize,
                    load: l,
                }
            })
            .collect(),
        collector_budget: collector,
        cost: CostModel::new(cost.0, cost.1).unwrap(),
        funnels,
    }
}

/// Seeded integer loads in `1..=hi`, precomputed so budget closures can
/// see their sum.
fn int_loads(n: usize, hi: u32, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(1..=hi) as f64).collect()
}

/// Residual-budget factors in `[lo, 1]`: the planner hands builders
/// what earlier trees left over, never a flat budget.
fn residuals(n: usize, lo: f64, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    (0..n).map(|_| rng.gen_range(lo..1.0)).collect()
}

fn scenarios(n: usize) -> Vec<(&'static str, BuildRequest)> {
    let seed = n as u64;
    let loads = int_loads(n, 4, seed);
    let total: f64 = loads.iter().sum();
    let hol = |i: usize| LocalLoad::holistic(loads[i]);
    let res = residuals(n, 0.05, seed);
    let mut out = Vec::new();

    // The criterion bench's two regimes.
    out.push((
        "uniform",
        request(
            n,
            (6.0, 1.0),
            1e9,
            vec![],
            |_| LocalLoad::holistic(2.0),
            |_, _| 60.0,
        ),
    ));
    let hub = 0.7 * n as f64 * 2.0;
    out.push((
        "hub",
        request(
            n,
            (6.0, 1.0),
            1e9,
            vec![],
            |_| LocalLoad::holistic(2.0),
            |i, _| 30.0 + hub * (1.0 - i as f64 / n as f64),
        ),
    ));
    // Benchmark `plan-feasible` shape: C/a = 20, node capacity 8x the
    // tree's mean per-attribute load, seen through residual factors.
    out.push((
        "feasible",
        request(n, (20.0, 1.0), 1e9, vec![], hol, |i, _| {
            8.0 * total * res[i]
        }),
    ));
    // Same, every node at the full 8x (no relief, challengers lose).
    out.push((
        "feasible_flat",
        request(n, (20.0, 1.0), 1e9, vec![], hol, |_, _| 8.0 * total),
    ));
    // Between the two: budgets bind, relief relocations pay off.
    for (name, m) in [("pressure_1.6", 1.6), ("pressure_2", 2.0)] {
        out.push((
            name,
            request(n, (20.0, 1.0), 1e9, vec![], hol, |i, _| {
                (m * total * res[i]).max(25.0)
            }),
        ));
    }
    // Residual budgets as later trees of a forest see them: a tenth of
    // the nodes cannot even send their own message, a tenth can only be
    // leaves, the rest have room.
    out.push((
        "residual",
        request(n, (20.0, 1.0), 1e9, vec![], hol, |i, l| match i % 10 {
            3 => 19.0,
            7 => 20.0 + l.total(),
            _ => 3.0 * total * res[i],
        }),
    ));
    // Benchmark `plan-saturated` shape: 0.35x.
    out.push((
        "starved",
        request(n, (20.0, 1.0), 1e9, vec![], hol, |i, _| {
            (0.35 * total * res[i]).max(24.0)
        }),
    ));
    // Collector admits about half the total payload.
    out.push((
        "tight_collector",
        request(n, (2.0, 1.0), 2.0 + 0.5 * total, vec![], hol, |i, _| {
            40.0 + 4.0 * total * res[i]
        }),
    ));
    // Funnel metrics: SUM and MAX collapse upstream, TOP-3 caps.
    let funnel_load = |i: usize| LocalLoad {
        holistic: loads[i] - 1.0,
        funnel: vec![1.0, 1.0, (i % 3) as f64],
    };
    out.push((
        "funnels",
        request(
            n,
            (3.0, 1.0),
            1e9,
            vec![Aggregation::Sum, Aggregation::Max, Aggregation::Top(3)],
            funnel_load,
            |i, _| 14.0 + 30.0 * res[i],
        ),
    ));
    // Frequency-weighted fractional loads (paper §6.3 weights).
    let freq_load = |i: usize| LocalLoad::holistic(loads[i] * [0.25, 0.5, 1.0][i % 3]);
    out.push((
        "freq_weighted",
        request(n, (20.0, 1.0), 1e9, vec![], freq_load, |i, _| {
            30.0 + 2.0 * total * res[i]
        }),
    ));
    // Demand listed out of id order, some nodes twice: the builders
    // must not lean on the planner's sorted, duplicate-free requests.
    let mut shuffled = request(n, (6.0, 1.0), 1e9, vec![], hol, |i, _| {
        30.0 + 1.5 * total * res[i]
    });
    shuffled.demand.reverse();
    let repeats: Vec<NodeDemand> = shuffled
        .demand
        .iter()
        .step_by(7)
        .cloned()
        .map(|d| NodeDemand {
            budget: d.budget * 0.5,
            ..d
        })
        .collect();
    shuffled.demand.extend(repeats);
    out.push(("shuffled", shuffled));
    // Equal budgets and loads everywhere with a binding budget: every
    // tie-break is exercised.
    out.push((
        "ties",
        request(
            n,
            (2.0, 1.0),
            1e9,
            vec![],
            |_| LocalLoad::holistic(1.0),
            |_, _| 9.0 + 0.02 * n as f64,
        ),
    ));
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(out: &BuildOutcome) -> u64 {
    let mut s = serde_json::to_string(&out.tree).unwrap();
    for (n, u) in &out.usage {
        write!(s, "|{}:{:016x}", n.0, u.to_bits()).unwrap();
    }
    s.push('|');
    for n in &out.excluded {
        write!(s, "{},", n.0).unwrap();
    }
    write!(
        s,
        "|{:016x}|{:016x}|{}|{}",
        out.message_volume.to_bits(),
        out.collector_usage.to_bits(),
        out.collected_pairs,
        out.demanded_pairs
    )
    .unwrap();
    fnv1a(s.as_bytes())
}

fn table() -> String {
    let mut t = String::new();
    for n in SIZES {
        for (scenario, req) in scenarios(n) {
            for (name, kind) in kinds() {
                let out = build_tree(kind, &req);
                writeln!(
                    t,
                    "{scenario} {name} {n} {:016x} pairs={} excluded={}",
                    digest(&out),
                    out.collected_pairs,
                    out.excluded.len()
                )
                .unwrap();
            }
        }
    }
    t
}

#[test]
fn builders_reproduce_the_pinned_outcomes() {
    let got = table();
    let mut mismatches = Vec::new();
    for (want, got) in FIXTURE.lines().zip(got.lines()) {
        if want != got {
            mismatches.push(format!("want {want}\n got {got}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} outcomes changed:\n{}",
        mismatches.len(),
        FIXTURE.lines().count(),
        mismatches.join("\n")
    );
    assert_eq!(got.lines().count(), FIXTURE.lines().count());
}

#[test]
#[ignore = "rewrites the fixture; run only when an outcome change is intended"]
fn regenerate() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/build_outcomes.txt"
    );
    std::fs::write(path, table()).unwrap();
}
