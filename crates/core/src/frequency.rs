//! Heterogeneous update frequencies (paper §6.3).
//!
//! Two complementary mechanisms:
//!
//! 1. **Piggybacking** — within one tree, metrics updated slower than
//!    the tree's epoch ride along in the regular messages at fractional
//!    cost `freq_j / freq_max`. This is the
//!    [`frequency_aware`](crate::evaluate::EvalContext::frequency_aware)
//!    flag of the evaluator.
//! 2. **Frequency grouping** — when piggyback approximation is
//!    unacceptable, pairs are grouped by exact update frequency and a
//!    separate forest is planned per group, with the per-message
//!    overhead scaled by the group's message rate.

use crate::attribute::AttrCatalog;
use crate::capacity::CapacityMap;
use crate::cost::CostModel;
use crate::evaluate::BudgetLedger;
use crate::pairs::PairSet;
use crate::plan::MonitoringPlan;
use crate::planner::Planner;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The per-unit-time cost weight of piggybacking a metric of frequency
/// `freq` on a message stream running at `freq_max` (paper §6.3:
/// `u_i = C + a·Σ_j freq_j/freq_max`).
///
/// # Examples
///
/// ```
/// use remo_core::frequency::piggyback_weight;
/// assert_eq!(piggyback_weight(0.5, 1.0), 0.5);
/// assert_eq!(piggyback_weight(1.0, 1.0), 1.0);
/// // Piggybacking cannot exceed the carrier rate.
/// assert_eq!(piggyback_weight(2.0, 1.0), 1.0);
/// ```
pub fn piggyback_weight(freq: f64, freq_max: f64) -> f64 {
    if freq_max <= 0.0 {
        return 0.0;
    }
    (freq / freq_max).min(1.0)
}

/// One frequency group's plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrequencyGroup {
    /// The group's update frequency (messages per epoch).
    pub frequency: f64,
    /// The pairs collected at this frequency.
    pub pairs: PairSet,
    /// The forest planned for this group.
    pub plan: MonitoringPlan,
}

/// A forest-of-forests: one planned forest per distinct update
/// frequency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrequencyGroupedPlan {
    /// Groups in decreasing frequency order (planned first: fast
    /// groups are the most load-bearing).
    pub groups: Vec<FrequencyGroup>,
}

impl FrequencyGroupedPlan {
    /// Total pairs collected across groups.
    pub fn collected_pairs(&self) -> usize {
        self.groups.iter().map(|g| g.plan.collected_pairs()).sum()
    }

    /// Total pairs demanded across groups.
    pub fn demanded_pairs(&self) -> usize {
        self.groups.iter().map(|g| g.plan.demanded_pairs()).sum()
    }

    /// Aggregate per-unit-time message volume (each group's volume is
    /// already scaled by its rate).
    pub fn message_volume(&self) -> f64 {
        self.groups.iter().map(|g| g.plan.message_volume()).sum()
    }
}

/// Plans a separate forest per distinct attribute update frequency.
///
/// Each group's plan uses a cost model scaled to the group's rate
/// (`C·f, a·f` per unit time) and draws on the capacity left over by
/// faster groups, which are planned first.
///
/// # Examples
///
/// ```
/// use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet, AttrCatalog, AttrInfo};
/// use remo_core::frequency::plan_frequency_groups;
/// use remo_core::planner::Planner;
///
/// # fn main() -> Result<(), remo_core::PlanError> {
/// let mut catalog = AttrCatalog::new();
/// let fast = catalog.register(AttrInfo::new("fast"));
/// let slow = catalog.register(AttrInfo::new("slow").with_frequency(0.2)?);
/// let mut pairs = PairSet::new();
/// for n in 0..6 {
///     pairs.insert(NodeId(n), fast);
///     pairs.insert(NodeId(n), slow);
/// }
/// let caps = CapacityMap::uniform(6, 30.0, 100.0)?;
/// let grouped = plan_frequency_groups(
///     &Planner::default(), &pairs, &caps, CostModel::default(), &catalog,
/// );
/// assert_eq!(grouped.groups.len(), 2);
/// assert!(grouped.groups[0].frequency > grouped.groups[1].frequency);
/// # Ok(())
/// # }
/// ```
pub fn plan_frequency_groups(
    planner: &Planner,
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
    catalog: &AttrCatalog,
) -> FrequencyGroupedPlan {
    // Bucket pairs by exact frequency.
    let mut buckets: BTreeMap<u64, (f64, PairSet)> = BTreeMap::new();
    for (node, attr) in pairs.iter() {
        let f = catalog.get_or_default(attr).frequency();
        let key = (f * 1e9) as u64;
        let entry = buckets.entry(key).or_insert_with(|| (f, PairSet::new()));
        entry.1.insert(node, attr);
    }

    // Fast groups first.
    let mut ordered: Vec<(f64, PairSet)> = buckets.into_values().collect();
    ordered.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

    let mut remaining = BudgetLedger::new(pairs, caps);
    let mut groups = Vec::with_capacity(ordered.len());

    for (freq, group_pairs) in ordered {
        let mut group_caps = CapacityMap::new(remaining.collector().max(0.0))
            .unwrap_or_else(|e| panic!("non-negative collector budget: {e}"));
        for (n, b) in remaining.residuals() {
            group_caps
                .set_node(n, b.max(0.0))
                .unwrap_or_else(|e| panic!("non-negative budget: {e}"));
        }
        let group_cost = CostModel::new(cost.per_message() * freq, cost.per_value() * freq)
            .unwrap_or_else(|e| panic!("scaled cost model is valid: {e}"));
        let plan = planner.plan_with_catalog(&group_pairs, &group_caps, group_cost, catalog);
        remaining.charge_plan(&plan);
        groups.push(FrequencyGroup {
            frequency: freq,
            pairs: group_pairs,
            plan,
        });
    }

    FrequencyGroupedPlan { groups }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::attribute::AttrInfo;
    use crate::ids::{AttrId, NodeId};

    #[test]
    fn weight_bounds() {
        assert_eq!(piggyback_weight(0.25, 1.0), 0.25);
        assert_eq!(piggyback_weight(1.0, 0.5), 1.0);
        assert_eq!(piggyback_weight(0.3, 0.0), 0.0);
    }

    #[test]
    fn groups_split_by_frequency() {
        let mut catalog = AttrCatalog::new();
        let f1 = catalog.register(AttrInfo::new("a"));
        let f2 = catalog.register(AttrInfo::new("b").with_frequency(0.5).unwrap());
        let f3 = catalog.register(AttrInfo::new("c").with_frequency(0.5).unwrap());
        let mut pairs = PairSet::new();
        for n in 0..4 {
            pairs.insert(NodeId(n), f1);
            pairs.insert(NodeId(n), f2);
            pairs.insert(NodeId(n), f3);
        }
        let caps = CapacityMap::uniform(4, 50.0, 200.0).unwrap();
        let grouped = plan_frequency_groups(
            &Planner::default(),
            &pairs,
            &caps,
            CostModel::default(),
            &catalog,
        );
        assert_eq!(grouped.groups.len(), 2);
        assert_eq!(grouped.groups[0].frequency, 1.0);
        assert_eq!(grouped.groups[0].pairs.len(), 4);
        assert_eq!(grouped.groups[1].pairs.len(), 8);
        assert_eq!(grouped.demanded_pairs(), 12);
    }

    #[test]
    fn slow_groups_cost_less_per_unit_time() {
        // Same pair structure; at frequency 0.1 the volume is a tenth.
        let mut fast_catalog = AttrCatalog::new();
        let fa = fast_catalog.register(AttrInfo::new("x"));
        let mut slow_catalog = AttrCatalog::new();
        let sa = slow_catalog.register(AttrInfo::new("x").with_frequency(0.1).unwrap());
        let fast_pairs: PairSet = (0..5).map(|n| (NodeId(n), fa)).collect();
        let slow_pairs: PairSet = (0..5).map(|n| (NodeId(n), sa)).collect();
        let caps = CapacityMap::uniform(5, 50.0, 100.0).unwrap();
        let planner = Planner::default();
        let fast = plan_frequency_groups(
            &planner,
            &fast_pairs,
            &caps,
            CostModel::default(),
            &fast_catalog,
        );
        let slow = plan_frequency_groups(
            &planner,
            &slow_pairs,
            &caps,
            CostModel::default(),
            &slow_catalog,
        );
        assert!(slow.message_volume() < fast.message_volume() * 0.2);
        assert_eq!(slow.collected_pairs(), fast.collected_pairs());
    }

    #[test]
    fn capacity_shared_across_groups() {
        // Tight budgets: the slow group must live off what the fast
        // group leaves; nothing may exceed the node budget in total.
        let mut catalog = AttrCatalog::new();
        let fast: Vec<AttrId> = (0..3)
            .map(|i| catalog.register(AttrInfo::new(format!("f{i}"))))
            .collect();
        let slow = catalog.register(AttrInfo::new("s").with_frequency(0.5).unwrap());
        let mut pairs = PairSet::new();
        for n in 0..6 {
            for &a in &fast {
                pairs.insert(NodeId(n), a);
            }
            pairs.insert(NodeId(n), slow);
        }
        let caps = CapacityMap::uniform(6, 15.0, 60.0).unwrap();
        let grouped = plan_frequency_groups(
            &Planner::default(),
            &pairs,
            &caps,
            CostModel::default(),
            &catalog,
        );
        let mut total: BTreeMap<NodeId, f64> = BTreeMap::new();
        for g in &grouped.groups {
            for (n, u) in g.plan.node_usage() {
                *total.entry(n).or_insert(0.0) += u;
            }
        }
        for (n, u) in total {
            assert!(u <= 15.0 + 1e-6, "node {n} over combined budget: {u}");
        }
    }
}
