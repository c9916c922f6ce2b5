//! The monitoring plan: a forest of collection trees plus bookkeeping.

use crate::ids::{AttrId, NodeId};
use crate::partition::Partition;
use crate::tree::Tree;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One constructed tree together with its evaluation figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedTree {
    /// The tree, or `None` when not a single participant could be
    /// placed (the attribute set is then entirely uncollected).
    pub tree: Option<Tree>,
    /// Per-node resource usage attributable to this tree.
    pub usage: BTreeMap<NodeId, f64>,
    /// Collector-side usage of this tree (receive cost of the root's
    /// message).
    pub collector_usage: f64,
    /// Node-attribute pairs collected by this tree.
    pub collected_pairs: usize,
    /// Node-attribute pairs demanded of this tree.
    pub demanded_pairs: usize,
    /// Nodes that could not be included.
    pub excluded: Vec<NodeId>,
    /// Per-epoch message volume in cost units (Σ send costs).
    pub message_volume: f64,
}

impl PlannedTree {
    /// Number of nodes included in this tree.
    pub fn len(&self) -> usize {
        self.tree.as_ref().map_or(0, Tree::len)
    }

    /// Returns `true` if the tree includes no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A complete monitoring plan: the attribute partition and one
/// [`PlannedTree`] per partition set (parallel vectors).
///
/// # Examples
///
/// ```
/// use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet};
/// use remo_core::planner::{Planner, PlannerConfig};
///
/// # fn main() -> Result<(), remo_core::PlanError> {
/// let caps = CapacityMap::uniform(6, 20.0, 100.0)?;
/// let pairs: PairSet = (0..6)
///     .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
///     .collect();
/// let plan = Planner::new(PlannerConfig::default())
///     .plan(&pairs, &caps, CostModel::default());
/// assert_eq!(plan.demanded_pairs(), 12);
/// assert!(plan.coverage() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitoringPlan {
    partition: Partition,
    trees: Vec<PlannedTree>,
}

impl MonitoringPlan {
    /// Assembles a plan; `trees` must parallel `partition.sets()`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ (construction code upholds this).
    pub fn new(partition: Partition, trees: Vec<PlannedTree>) -> Self {
        assert_eq!(
            partition.len(),
            trees.len(),
            "one planned tree per partition set"
        );
        MonitoringPlan { partition, trees }
    }

    /// This plan's trees in the set order of `to`, which must be a
    /// permutation of its partition.
    pub(crate) fn reordered(&self, to: &Partition) -> MonitoringPlan {
        let sets = self.partition.sets().iter();
        let tree_of: BTreeMap<_, _> = sets.zip(&self.trees).collect();
        let trees = to.sets().iter().map(|s| tree_of[s].clone()).collect();
        MonitoringPlan::new(to.clone(), trees)
    }

    /// The attribute partition this plan realizes.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The planned trees, parallel to `partition().sets()`.
    pub fn trees(&self) -> &[PlannedTree] {
        &self.trees
    }

    /// Total node-attribute pairs demanded.
    pub fn demanded_pairs(&self) -> usize {
        self.trees.iter().map(|t| t.demanded_pairs).sum()
    }

    /// Total node-attribute pairs collected.
    pub fn collected_pairs(&self) -> usize {
        self.trees.iter().map(|t| t.collected_pairs).sum()
    }

    /// Fraction of demanded pairs collected, in `[0, 1]`; `1.0` for an
    /// empty plan.
    pub fn coverage(&self) -> f64 {
        let demanded = self.demanded_pairs();
        if demanded == 0 {
            1.0
        } else {
            self.collected_pairs() as f64 / demanded as f64
        }
    }

    /// Aggregate per-node usage across all trees.
    pub fn node_usage(&self) -> BTreeMap<NodeId, f64> {
        let mut out: BTreeMap<NodeId, f64> = BTreeMap::new();
        for t in &self.trees {
            for (&n, &u) in &t.usage {
                *out.entry(n).or_insert(0.0) += u;
            }
        }
        out
    }

    /// Aggregate collector usage across all trees.
    pub fn collector_usage(&self) -> f64 {
        self.trees.iter().map(|t| t.collector_usage).sum()
    }

    /// Total per-epoch message volume in cost units — the `C_cur` of
    /// the cost-benefit throttling threshold (paper §4.2).
    pub fn message_volume(&self) -> f64 {
        self.trees.iter().map(|t| t.message_volume).sum()
    }

    /// Total number of monitoring messages per epoch (each included
    /// node sends one).
    pub fn message_count(&self) -> usize {
        self.trees.iter().map(PlannedTree::len).sum()
    }

    /// Index of the tree delivering `attr`, if any.
    pub fn tree_of_attr(&self, attr: AttrId) -> Option<usize> {
        self.partition.set_of(attr)
    }

    /// Number of tree edges that differ between two plans — the
    /// adaptation message volume `M_adapt` (paper §4.2). Trees are
    /// matched by attribute set; unmatched trees count every edge
    /// (plus the root's collector link) as changed.
    pub fn edge_diff(&self, other: &MonitoringPlan) -> usize {
        let mut diff = 0;
        let mut matched_other = vec![false; other.trees.len()];
        for (i, set) in self.partition.sets().iter().enumerate() {
            let this_tree = self.trees[i].tree.as_ref();
            match other.partition.sets().iter().position(|s| s == set) {
                Some(j) => {
                    matched_other[j] = true;
                    match (this_tree, other.trees[j].tree.as_ref()) {
                        (Some(a), Some(b)) => diff += a.edge_diff(b),
                        (Some(t), None) | (None, Some(t)) => diff += t.len(),
                        (None, None) => {}
                    }
                }
                None => {
                    if let Some(t) = this_tree {
                        diff += t.len();
                    }
                }
            }
        }
        for (j, t) in other.trees.iter().enumerate() {
            if !matched_other[j] {
                if let Some(tree) = t.tree.as_ref() {
                    diff += tree.len();
                }
            }
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::ids::AttrId;
    use crate::partition::AttrSet;

    fn leaf_tree(attr: u32, nodes: &[u32]) -> PlannedTree {
        let attrs: AttrSet = [AttrId(attr)].into_iter().collect();
        let mut tree = Tree::new(attrs, NodeId(nodes[0]));
        for &n in &nodes[1..] {
            tree.attach(NodeId(n), NodeId(nodes[0]));
        }
        let usage = nodes.iter().map(|&n| (NodeId(n), 1.0)).collect();
        PlannedTree {
            tree: Some(tree),
            usage,
            collector_usage: 3.0,
            collected_pairs: nodes.len(),
            demanded_pairs: nodes.len() + 1,
            excluded: Vec::new(),
            message_volume: nodes.len() as f64 * 3.0,
        }
    }

    fn sample_plan() -> MonitoringPlan {
        let partition = Partition::singleton([AttrId(0), AttrId(1)]);
        MonitoringPlan::new(
            partition,
            vec![leaf_tree(0, &[0, 1, 2]), leaf_tree(1, &[0, 3])],
        )
    }

    #[test]
    fn totals_aggregate_over_trees() {
        let plan = sample_plan();
        assert_eq!(plan.collected_pairs(), 5);
        assert_eq!(plan.demanded_pairs(), 7);
        assert!((plan.coverage() - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(plan.collector_usage(), 6.0);
        assert_eq!(plan.message_count(), 5);
    }

    #[test]
    fn node_usage_sums_across_trees() {
        let plan = sample_plan();
        let usage = plan.node_usage();
        assert_eq!(usage[&NodeId(0)], 2.0, "n0 is in both trees");
        assert_eq!(usage[&NodeId(3)], 1.0);
    }

    #[test]
    fn tree_of_attr_follows_partition() {
        let plan = sample_plan();
        assert_eq!(plan.tree_of_attr(AttrId(1)), Some(1));
        assert_eq!(plan.tree_of_attr(AttrId(9)), None);
    }

    #[test]
    fn edge_diff_zero_for_identical() {
        let plan = sample_plan();
        assert_eq!(plan.edge_diff(&plan.clone()), 0);
    }

    #[test]
    fn edge_diff_counts_reparenting_and_set_changes() {
        let a = sample_plan();
        // Re-parent node 2 in the first tree.
        let mut b = sample_plan();
        let attrs: AttrSet = [AttrId(0)].into_iter().collect();
        let mut t = Tree::new(attrs, NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(1));
        b.trees[0].tree = Some(t);
        assert_eq!(a.edge_diff(&b), 1);

        // A plan with a different partition counts whole trees.
        let merged = Partition::one_set([AttrId(0), AttrId(1)]);
        let c = MonitoringPlan::new(merged, vec![leaf_tree(0, &[0, 1, 2, 3])]);
        // a's two trees (3 + 2 nodes) all differ, plus c's 4 nodes.
        assert_eq!(a.edge_diff(&c), 9);
    }

    #[test]
    #[should_panic(expected = "one planned tree per partition set")]
    fn mismatched_lengths_panic() {
        let partition = Partition::singleton([AttrId(0), AttrId(1)]);
        let _ = MonitoringPlan::new(partition, vec![leaf_tree(0, &[0])]);
    }

    #[test]
    fn empty_plan_coverage_is_one() {
        let plan = MonitoringPlan::new(Partition::one_set([]), Vec::new());
        assert_eq!(plan.coverage(), 1.0);
        assert_eq!(plan.message_volume(), 0.0);
    }
}
