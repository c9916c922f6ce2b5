//! Property-based tests over the core data structures and invariants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use remo::prelude::*;
use remo_core::build::{build_tree, BuildRequest, BuilderKind, LoadTracker, LocalLoad, NodeDemand};
use remo_core::{AttrSet, Partition};

/// Slack the tracker grants a budget comparison.
const TRACKER_EPS: f64 = 1e-9;

/// Everything a load tracker shows of itself, floats as bits: its epoch,
/// and per node in id order the parent, the children, the usage, the
/// remaining budget and the outgoing values.
type TrackerView = (u64, Vec<(NodeId, Option<NodeId>, Vec<NodeId>, [u64; 3])>);

fn tracker_view(lt: &LoadTracker) -> TrackerView {
    let nodes = lt
        .nodes()
        .map(|n| {
            let bits = [
                lt.usage(n).unwrap().to_bits(),
                lt.available(n).unwrap().to_bits(),
                lt.outgoing_values(n).unwrap().to_bits(),
            ];
            (n, lt.parent(n), lt.children(n).to_vec(), bits)
        })
        .collect();
    (lt.epoch(), nodes)
}

/// Attaches a leaf that brings `parent`'s usage to within `slack` of its
/// budget, on a budget of its own within `slack` of its own message, at
/// per-value cost 1 and no funnels: a parent's usage grows by
/// `C + 2x` for a leaf of `x` values. The load is clamped to zero.
fn attach_at_the_limit(lt: &mut LoadTracker, c: f64, node: NodeId, parent: NodeId, slack: f64) {
    let x = ((lt.available(parent).unwrap() - c + slack) / 2.0).max(0.0);
    let _ = lt.try_attach(node, LocalLoad::holistic(x), c + x + slack, parent);
}

fn arb_universe(max: u32) -> impl Strategy<Value = Vec<AttrId>> {
    prop::collection::btree_set(0..max, 1..(max as usize))
        .prop_map(|s| s.into_iter().map(AttrId).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of valid merge/split operations keeps the partition
    /// a partition: disjoint, non-empty sets covering the universe.
    #[test]
    fn partition_ops_preserve_invariants(
        universe in arb_universe(24),
        ops in prop::collection::vec((0usize..64, 0usize..64, 0u32..24), 0..40),
    ) {
        let total: AttrSet = universe.iter().copied().collect();
        let mut p = Partition::singleton(universe);
        for (i, j, attr) in ops {
            if i % 2 == 0 && p.len() >= 2 {
                let a = i % p.len();
                let b = j % p.len();
                if a != b {
                    p.merge(a, b).unwrap();
                }
            } else if !p.is_empty() {
                let s = i % p.len();
                let _ = p.split(s, AttrId(attr)); // may legitimately fail
            }
            prop_assert!(p.is_valid());
            prop_assert_eq!(&p.universe(), &total);
        }
    }

    /// Every tree builder respects node budgets, includes each node at
    /// most once, and produces a structurally valid tree.
    #[test]
    fn builders_respect_budgets(
        n in 2usize..24,
        budget in 4.0f64..60.0,
        collector in 10.0f64..300.0,
        c in 0.5f64..8.0,
        loads in prop::collection::vec(1usize..6, 24),
    ) {
        let req = BuildRequest {
            attrs: [AttrId(0)].into_iter().collect(),
            demand: (0..n)
                .map(|i| NodeDemand {
                    node: NodeId(i as u32),
                    load: LocalLoad::holistic(loads[i] as f64),
                    budget,
                    pairs: loads[i],
                })
                .collect(),
            collector_budget: collector,
            cost: CostModel::new(c, 1.0).unwrap(),
            funnels: Vec::new(),
        };
        for kind in [
            BuilderKind::Star,
            BuilderKind::Chain,
            BuilderKind::MaxAvb,
            BuilderKind::default(),
        ] {
            let out = build_tree(kind, &req);
            for u in out.usage.values() {
                prop_assert!(*u <= budget + 1e-6, "{kind:?} violated a budget");
            }
            prop_assert!(out.collector_usage <= collector + 1e-6);
            if let Some(tree) = &out.tree {
                prop_assert!(tree.is_valid());
                prop_assert_eq!(tree.len() + out.excluded.len(), n);
            } else {
                prop_assert_eq!(out.excluded.len(), n);
            }
            // Collected pairs must equal the load of included nodes.
            let included: usize = out
                .tree
                .as_ref()
                .map(|t| t.nodes().map(|nd| loads[nd.0 as usize]).sum())
                .unwrap_or(0);
            prop_assert_eq!(out.collected_pairs, included);
        }
    }

    /// Every (partition scheme × tree builder) combination produces a
    /// plan that passes the full audit rule registry with no
    /// error-severity finding, regardless of workload shape. This is
    /// the audit engine's soundness property: it never cries wolf on a
    /// planner-constructed plan.
    #[test]
    fn every_scheme_and_builder_audits_clean(
        nodes in 3usize..14,
        attrs in 1u32..6,
        budget in 5.0f64..45.0,
        density in 0.3f64..1.0,
        seed in 0u64..500,
        scheme_ix in 0usize..3,
        builder_ix in 0usize..4,
    ) {
        use rand::{Rng, SeedableRng, rngs::SmallRng};
        use remo_core::validate::{Audit, AuditInput};
        use remo_core::build::AdjustConfig;
        use remo_core::planner::{PartitionScheme, PlannerConfig};

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pairs = PairSet::new();
        for n in 0..nodes {
            for a in 0..attrs {
                if rng.gen_bool(density) {
                    pairs.insert(NodeId(n as u32), AttrId(a));
                }
            }
        }
        pairs.insert(NodeId(0), AttrId(0)); // never empty
        let schemes = [
            PartitionScheme::SingletonSet,
            PartitionScheme::OneSet,
            PartitionScheme::Remo,
        ];
        let builders = [
            BuilderKind::Star,
            BuilderKind::Chain,
            BuilderKind::MaxAvb,
            BuilderKind::Adaptive(AdjustConfig::default()),
        ];
        let caps = CapacityMap::uniform(nodes, budget, budget * nodes as f64).unwrap();
        let cost = CostModel::default();
        let catalog = AttrCatalog::new();
        let planner = Planner::new(PlannerConfig {
            builder: builders[builder_ix],
            ..PlannerConfig::default()
        });
        let plan = schemes[scheme_ix].plan(&planner, &pairs, &caps, cost, &catalog);
        let outcome = Audit::new().run(&AuditInput::new(&plan, &pairs, &caps, cost, &catalog));
        prop_assert!(
            outcome.is_clean(),
            "{:?} × {:?} failed its audit:\n{}",
            schemes[scheme_ix],
            builders[builder_ix],
            outcome.render()
        );
    }

    /// The planner never violates capacity and never collects more
    /// than demanded, regardless of workload shape.
    #[test]
    fn planner_is_always_feasible(
        nodes in 3usize..16,
        attrs in 1u32..8,
        budget in 5.0f64..50.0,
        density in 0.2f64..1.0,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng, rngs::SmallRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut pairs = PairSet::new();
        for n in 0..nodes {
            for a in 0..attrs {
                if rng.gen_bool(density) {
                    pairs.insert(NodeId(n as u32), AttrId(a));
                }
            }
        }
        let caps = CapacityMap::uniform(nodes, budget, budget * nodes as f64).unwrap();
        let plan = Planner::default().plan(&pairs, &caps, CostModel::default());
        prop_assert!(plan.collected_pairs() <= plan.demanded_pairs());
        prop_assert_eq!(plan.demanded_pairs(), pairs.len());
        for (n, u) in plan.node_usage() {
            prop_assert!(u <= budget + 1e-6, "node {} over budget: {}", n, u);
        }
        prop_assert!(plan.partition().is_valid());
    }

    /// Wire protocol round-trips arbitrary messages.
    #[test]
    fn wire_roundtrip(
        tree in 0u32..100,
        from in 0u32..1000,
        seq in 0u64..u64::MAX,
        readings in prop::collection::vec(
            (0u32..1000, 0u32..1000, -1e12f64..1e12, 0u64..1_000_000, 1u32..100),
            0..50,
        ),
    ) {
        use remo_runtime::proto::{WireMessage, WireReading};
        let msg = WireMessage::data(
            tree,
            NodeId(from),
            seq,
            readings
                .into_iter()
                .map(|(n, a, v, p, c)| WireReading {
                    node: NodeId(n),
                    attr: AttrId(a),
                    value: v,
                    produced: p,
                    contributors: c,
                })
                .collect(),
        );
        let back = WireMessage::decode(msg.encode()).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Task-manager deduplication equals the set-union semantics.
    #[test]
    fn dedup_matches_union(
        tasks in prop::collection::vec(
            (
                prop::collection::btree_set(0u32..10, 1..5),
                prop::collection::btree_set(0u32..10, 1..5),
            ),
            1..8,
        ),
    ) {
        use std::collections::BTreeSet;
        let mut tm = TaskManager::new();
        let mut expected: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (i, (attrs, nodes)) in tasks.iter().enumerate() {
            for &n in nodes {
                for &a in attrs {
                    expected.insert((n, a));
                }
            }
            tm.add(MonitoringTask::new(
                remo_core::TaskId(i as u32),
                attrs.iter().copied().map(AttrId),
                nodes.iter().copied().map(NodeId),
            ))
            .unwrap();
        }
        let pairs = tm.pairs();
        prop_assert_eq!(pairs.len(), expected.len());
        for (n, a) in expected {
            prop_assert!(pairs.contains(NodeId(n), AttrId(a)));
        }
    }

    /// Plan edge-diff is symmetric and zero iff identical.
    #[test]
    fn edge_diff_symmetry(
        nodes in 3usize..12,
        attrs in 1u32..4,
        budget_a in 8.0f64..40.0,
        budget_b in 8.0f64..40.0,
    ) {
        let pairs: PairSet = (0..nodes as u32)
            .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
            .collect();
        let caps_a = CapacityMap::uniform(nodes, budget_a, 500.0).unwrap();
        let caps_b = CapacityMap::uniform(nodes, budget_b, 500.0).unwrap();
        let pa = Planner::default().plan(&pairs, &caps_a, CostModel::default());
        let pb = Planner::default().plan(&pairs, &caps_b, CostModel::default());
        prop_assert_eq!(pa.edge_diff(&pb), pb.edge_diff(&pa));
        prop_assert_eq!(pa.edge_diff(&pa), 0);
    }

    /// Random attach/detach/reattach sequences keep the load tracker's
    /// incremental accounting consistent with a from-scratch
    /// recomputation, under fractional `C` and budgets within the
    /// tracker's slack of their limit, and a refused attach leaves the
    /// tracker bit-identical.
    #[test]
    fn load_tracker_incremental_accounting_is_consistent(
        ops in prop::collection::vec((0u8..4, 0u32..12, 0u32..12, 1u32..4), 1..60),
        c in 0.0f64..10.0,
        budget in 20.0f64..200.0,
        slack in 0usize..5,
    ) {
        let slack = [-2.0, -0.5, 0.0, 0.5, 2.0][slack] * TRACKER_EPS;
        let cost = CostModel::new(c, 1.0).unwrap();
        let mut lt = LoadTracker::new(cost, Vec::new(), 1e9);
        lt.init_root(NodeId(100), LocalLoad::holistic(1.0), budget).unwrap();
        for (kind, a, b, load) in ops {
            let before = tracker_view(&lt);
            let epoch = lt.epoch();
            match kind {
                0 => {
                    // Attach a fresh leaf under some present node.
                    let members: Vec<NodeId> = lt.nodes().collect();
                    let parent = members[a as usize % members.len()];
                    let _ = lt.try_attach(
                        NodeId(b),
                        LocalLoad::holistic(load as f64),
                        budget,
                        parent,
                    );
                }
                3 => {
                    // A leaf that fills its parent to the limit, give or
                    // take a fraction of the slack.
                    let members: Vec<NodeId> = lt.nodes().collect();
                    let parent = members[a as usize % members.len()];
                    attach_at_the_limit(&mut lt, c, NodeId(b), parent, slack);
                }
                1 => {
                    // Detach a non-root subtree and reattach it
                    // somewhere (or back where it came from).
                    let members: Vec<NodeId> = lt.nodes().collect();
                    let victim = members[a as usize % members.len()];
                    if Some(victim) == lt.root() {
                        continue;
                    }
                    let old_parent = lt.parent(victim).unwrap();
                    let branch = lt.detach_subtree(victim);
                    let detached = tracker_view(&lt);
                    let remaining: Vec<NodeId> = lt.nodes().collect();
                    let target = remaining[b as usize % remaining.len()];
                    match lt.try_attach_branch(branch, target) {
                        Ok(()) => {}
                        Err((back, _)) => {
                            prop_assert_eq!(&tracker_view(&lt), &detached, "refused branch wrote");
                            lt.try_attach_branch(back, old_parent)
                                .expect("restore cannot fail");
                        }
                    }
                }
                _ => {
                    // Pure detach + guaranteed restore.
                    let members: Vec<NodeId> = lt.nodes().collect();
                    let victim = members[a as usize % members.len()];
                    if Some(victim) == lt.root() {
                        continue;
                    }
                    let parent = lt.parent(victim).unwrap();
                    let branch = lt.detach_subtree(victim);
                    lt.try_attach_branch(branch, parent)
                        .expect("restore cannot fail");
                }
            }
            if matches!(kind, 0 | 3) && lt.epoch() == epoch {
                prop_assert_eq!(&tracker_view(&lt), &before, "refused attach wrote");
            }
            prop_assert!(lt.check_consistency(), "incremental state diverged");
            for n in lt.nodes().collect::<Vec<_>>() {
                prop_assert!(
                    lt.usage(n).unwrap() <= budget + 1e-6,
                    "budget violated at {}",
                    n
                );
            }
        }
    }

    /// The incremental accounting also holds with funnel metrics in
    /// play (SUM collapses, TOP-k caps) across attach/detach churn, under
    /// fractional `C` and binding budgets, and a refused attach or
    /// branch move leaves the tracker bit-identical. A heavy root's own
    /// payload (2^60 values) absorbs funnel changes in its total, so its
    /// outgoing vector changes while its send cost does not.
    #[test]
    fn load_tracker_consistent_with_funnels(
        ops in prop::collection::vec((0u8..3, 0u32..10, 0u32..10), 1..40),
        k in 1u32..5,
        c in 0.0f64..6.0,
        budget in 12.0f64..80.0,
        heavy in 0u8..2,
    ) {
        let cost = CostModel::new(c, 1.0).unwrap();
        let funnels = vec![Aggregation::Sum, Aggregation::Top(k)];
        let mut lt = LoadTracker::new(cost, funnels, 1e30);
        let load = |h: f64| LocalLoad { holistic: h, funnel: vec![1.0, 1.0] };
        let heavy = heavy == 1;
        let root_load = if heavy { 2f64.powi(60) } else { 1.0 };
        lt.init_root(NodeId(50), load(root_load), 1e30).unwrap();
        for (kind, a, b) in ops {
            let members: Vec<NodeId> = lt.nodes().collect();
            match kind {
                0 => {
                    let parent = members[a as usize % members.len()];
                    let before = tracker_view(&lt);
                    if lt.try_attach(NodeId(b), load((b % 3) as f64), budget, parent).is_err() {
                        prop_assert_eq!(&tracker_view(&lt), &before, "refused attach wrote");
                    }
                }
                1 => {
                    let victim = members[a as usize % members.len()];
                    if Some(victim) == lt.root() {
                        continue;
                    }
                    let parent = lt.parent(victim).unwrap();
                    let branch = lt.detach_subtree(victim);
                    lt.try_attach_branch(branch, parent).expect("restore");
                }
                _ => {
                    // Move a branch elsewhere, back home if refused.
                    let victim = members[a as usize % members.len()];
                    if Some(victim) == lt.root() {
                        continue;
                    }
                    let parent = lt.parent(victim).unwrap();
                    let branch = lt.detach_subtree(victim);
                    let before = tracker_view(&lt);
                    let remaining: Vec<NodeId> = lt.nodes().collect();
                    let target = remaining[b as usize % remaining.len()];
                    if let Err((back, _)) = lt.try_attach_branch(branch, target) {
                        prop_assert_eq!(&tracker_view(&lt), &before, "refused branch wrote");
                        lt.try_attach_branch(back, parent).expect("restore");
                    }
                }
            }
            prop_assert!(lt.check_consistency(), "funnel accounting diverged");
            // TOP-k funnel: no node emits more than k values of the
            // capped metric plus its holistic + 1 (SUM) load bound.
            // (Plus a heavy root's own payload.)
            let n = lt.len() as f64;
            for node in lt.nodes().collect::<Vec<_>>() {
                let out = lt.outgoing_values(node).unwrap();
                let own = if heavy && Some(node) == lt.root() { root_load } else { 0.0 };
                prop_assert!(
                    out <= 3.0 * n + 1.0 + k as f64 + own,
                    "outgoing {} too large at {}",
                    out,
                    node
                );
            }
        }
    }

    /// Funnel functions never increase traffic and are monotone.
    #[test]
    fn funnels_are_contractive_and_monotone(
        x in 0.0f64..1000.0,
        y in 0.0f64..1000.0,
        k in 1u32..50,
    ) {
        for agg in [
            Aggregation::Holistic,
            Aggregation::Sum,
            Aggregation::Max,
            Aggregation::Top(k),
            Aggregation::Distinct,
        ] {
            prop_assert!(agg.funnel(x) <= x + 1e-12);
            let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
            prop_assert!(agg.funnel(lo) <= agg.funnel(hi) + 1e-12);
        }
    }
}
