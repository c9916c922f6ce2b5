//! Post-hoc analysis of collector snapshots: where does staleness come
//! from?
//!
//! The paper's Fig. 8 observation — bushier trees produce fresher
//! snapshots — is a structural claim: a value produced at depth `d`
//! is stamped received `d + 1` epochs later. This module decomposes a snapshot's
//! staleness by each pair's depth in the deployed forest, turning the
//! claim into a measurable distribution.

use remo_core::{AttrId, MonitoringPlan, NodeId, PairSet};
use remo_runtime::CollectorCore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Staleness statistics for one tree depth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DepthStats {
    /// Number of observed pairs at this depth.
    pub pairs: usize,
    /// Mean staleness (epochs between production and `now`).
    pub mean_staleness: f64,
    /// Maximum staleness.
    pub max_staleness: u64,
}

/// A staleness-by-depth decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct StalenessProfile {
    /// Per-depth statistics (depth 0 = tree roots).
    pub by_depth: BTreeMap<usize, DepthStats>,
    /// Pairs demanded but never observed.
    pub unobserved: usize,
    /// Pairs observed but not locatable in the plan (e.g. collected
    /// under an older topology).
    pub orphaned: usize,
}

impl StalenessProfile {
    /// Overall mean staleness across observed, locatable pairs.
    pub fn mean_staleness(&self) -> f64 {
        let (sum, count) = self.by_depth.values().fold((0.0, 0usize), |(s, c), d| {
            (s + d.mean_staleness * d.pairs as f64, c + d.pairs)
        });
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    /// The deepest populated depth.
    pub fn max_depth(&self) -> Option<usize> {
        self.by_depth.keys().next_back().copied()
    }
}

/// Builds the staleness-by-depth profile of `store` at epoch `now`
/// against the deployed `plan`.
///
/// # Examples
///
/// ```
/// use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet, AttrCatalog};
/// use remo_core::planner::Planner;
/// use remo_sim::{Simulator, SimSetup, SimConfig};
/// use remo_sim::analysis::staleness_profile;
///
/// # fn main() -> Result<(), remo_core::PlanError> {
/// let caps = CapacityMap::uniform(6, 50.0, 500.0)?;
/// let cost = CostModel::default();
/// let pairs: PairSet = (0..6).map(|n| (NodeId(n), AttrId(0))).collect();
/// let catalog = AttrCatalog::new();
/// let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
/// let mut sim = Simulator::new(SimSetup {
///     plan: &plan, planned_pairs: &pairs, metric_pairs: None,
///     caps: &caps, cost, catalog: &catalog,
///     aliases: Default::default(), config: SimConfig::default(),
/// });
/// sim.run(10);
/// // The store after step `e` holds what is stamped received `e + 1`.
/// let profile = staleness_profile(sim.collector(), &plan, &pairs, sim.epoch() + 1);
/// assert_eq!(profile.unobserved, 0);
/// // Depth-d pairs are exactly d+1 epochs stale in steady state.
/// for (&depth, stats) in &profile.by_depth {
///     assert_eq!(stats.mean_staleness, (depth + 1) as f64);
/// }
/// # Ok(())
/// # }
/// ```
pub fn staleness_profile(
    store: &CollectorCore,
    plan: &MonitoringPlan,
    pairs: &PairSet,
    now: u64,
) -> StalenessProfile {
    // Locate every pair's depth: the depth of its node in the tree
    // whose attribute set contains its attribute.
    let mut depth_of: BTreeMap<(NodeId, AttrId), usize> = BTreeMap::new();
    for (set, planned) in plan.partition().sets().iter().zip(plan.trees()) {
        if let Some(tree) = planned.tree.as_ref() {
            for n in tree.nodes() {
                if let Some(d) = tree.depth(n) {
                    for &a in set {
                        depth_of.insert((n, a), d);
                    }
                }
            }
        }
    }

    let mut sums: BTreeMap<usize, (f64, usize, u64)> = BTreeMap::new();
    let mut profile = StalenessProfile::default();
    for (n, a) in pairs.iter() {
        let Some(s) = store.observed(n, a) else {
            profile.unobserved += 1;
            continue;
        };
        let staleness = now.saturating_sub(s.produced);
        match depth_of.get(&(n, a)) {
            None => profile.orphaned += 1,
            Some(&d) => {
                let e = sums.entry(d).or_insert((0.0, 0, 0));
                e.0 += staleness as f64;
                e.1 += 1;
                e.2 = e.2.max(staleness);
            }
        }
    }
    for (d, (sum, count, max)) in sums {
        profile.by_depth.insert(
            d,
            DepthStats {
                pairs: count,
                mean_staleness: sum / count as f64,
                max_staleness: max,
            },
        );
    }
    profile
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::engine::{SimConfig, SimSetup, Simulator};
    use remo_core::build::BuilderKind;
    use remo_core::planner::{Planner, PlannerConfig};
    use remo_core::{AttrCatalog, CapacityMap, CostModel, Partition};

    fn run_profile(builder: BuilderKind) -> StalenessProfile {
        let pairs: PairSet = (0..10).map(|n| (NodeId(n), AttrId(0))).collect();
        let caps = CapacityMap::uniform(10, 1_000.0, 1_000.0).unwrap();
        let cost = CostModel::default();
        let catalog = AttrCatalog::new();
        let plan = Planner::new(PlannerConfig {
            builder,
            ..PlannerConfig::default()
        })
        .evaluate_partition(
            &Partition::one_set(pairs.attr_universe()),
            &pairs,
            &caps,
            cost,
            &catalog,
        )
        .into_plan();
        let mut sim = Simulator::new(SimSetup {
            plan: &plan,
            planned_pairs: &pairs,
            metric_pairs: None,
            caps: &caps,
            cost,
            catalog: &catalog,
            aliases: Default::default(),
            config: SimConfig::default(),
        });
        sim.run(15);
        // Profiled at the epoch the store's freshest values are stamped
        // received: what the roots sent during step `e` arrives `e + 1`.
        staleness_profile(sim.collector(), &plan, &pairs, sim.epoch() + 1)
    }

    #[test]
    fn staleness_equals_depth_plus_one_in_steady_state() {
        let p = run_profile(BuilderKind::Star);
        assert_eq!(p.unobserved, 0);
        assert_eq!(p.orphaned, 0);
        for (&d, stats) in &p.by_depth {
            assert_eq!(
                stats.mean_staleness,
                (d + 1) as f64,
                "depth {d} staleness mismatch"
            );
            assert_eq!(stats.max_staleness, (d + 1) as u64);
        }
    }

    #[test]
    fn chains_are_staler_than_stars() {
        let star = run_profile(BuilderKind::Star);
        let chain = run_profile(BuilderKind::Chain);
        assert!(chain.mean_staleness() > star.mean_staleness());
        assert!(chain.max_depth().unwrap() > star.max_depth().unwrap());
    }

    #[test]
    fn unobserved_pairs_are_counted() {
        let pairs: PairSet = (0..3).map(|n| (NodeId(n), AttrId(0))).collect();
        let plan = Planner::default().plan(
            &pairs,
            &CapacityMap::uniform(3, 50.0, 100.0).unwrap(),
            CostModel::default(),
        );
        let store = crate::collector::fixture::store();
        let p = staleness_profile(&store, &plan, &pairs, 5);
        assert_eq!(p.unobserved, 3);
        assert_eq!(p.mean_staleness(), 0.0);
        assert!(p.max_depth().is_none());
    }
}
