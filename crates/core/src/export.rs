//! Plan export: Graphviz DOT rendering of monitoring forests and a
//! compact text summary — the operator-facing views of a topology.

use crate::plan::MonitoringPlan;
use crate::tree::Parent;
use std::fmt::Write as _;

/// Renders the forest as a Graphviz DOT digraph: one cluster per tree,
/// edges pointing upstream toward the collector node.
///
/// # Examples
///
/// ```
/// use remo_core::{CapacityMap, CostModel, NodeId, AttrId, PairSet};
/// use remo_core::planner::Planner;
/// use remo_core::export::to_dot;
///
/// # fn main() -> Result<(), remo_core::PlanError> {
/// let caps = CapacityMap::uniform(4, 50.0, 200.0)?;
/// let pairs: PairSet = (0..4).map(|n| (NodeId(n), AttrId(0))).collect();
/// let plan = Planner::default().plan(&pairs, &caps, CostModel::default());
/// let dot = to_dot(&plan);
/// assert!(dot.starts_with("digraph monitoring"));
/// assert!(dot.contains("collector"));
/// # Ok(())
/// # }
/// ```
pub fn to_dot(plan: &MonitoringPlan) -> String {
    let mut out = String::from("digraph monitoring {\n");
    out.push_str("  rankdir=BT;\n");
    out.push_str("  collector [shape=doublecircle, label=\"collector\"];\n");
    for (k, (set, planned)) in plan.partition().sets().iter().zip(plan.trees()).enumerate() {
        let attrs: Vec<String> = set.iter().map(|a| a.to_string()).collect();
        let _ = writeln!(out, "  subgraph cluster_{k} {{");
        let _ = writeln!(out, "    label=\"tree {k}: {}\";", attrs.join(" "));
        if let Some(tree) = planned.tree.as_ref() {
            for n in tree.nodes() {
                let _ = writeln!(out, "    t{k}_{} [label=\"{}\"];", n.0, n);
            }
        }
        out.push_str("  }\n");
        if let Some(tree) = planned.tree.as_ref() {
            for n in tree.nodes() {
                match tree
                    .parent(n)
                    .unwrap_or_else(|| unreachable!("member has parent"))
                {
                    Parent::Collector => {
                        let _ = writeln!(out, "  t{k}_{} -> collector;", n.0);
                    }
                    Parent::Node(p) => {
                        let _ = writeln!(out, "  t{k}_{} -> t{k}_{};", n.0, p.0);
                    }
                }
            }
        }
    }
    out.push_str("}\n");
    out
}

/// A compact, human-readable summary of the plan: per-tree attribute
/// sets, sizes, heights, and coverage.
pub fn summarize(plan: &MonitoringPlan) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "monitoring plan: {} trees, {}/{} pairs ({:.1}% coverage), volume {:.1}",
        plan.trees().len(),
        plan.collected_pairs(),
        plan.demanded_pairs(),
        plan.coverage() * 100.0,
        plan.message_volume(),
    );
    for (k, (set, planned)) in plan.partition().sets().iter().zip(plan.trees()).enumerate() {
        let attrs: Vec<String> = set.iter().map(|a| a.to_string()).collect();
        match planned.tree.as_ref() {
            Some(tree) => {
                let _ = writeln!(
                    out,
                    "  tree {k} [{}]: {} nodes, height {}, root {}, {} pairs",
                    attrs.join(" "),
                    tree.len(),
                    tree.height(),
                    tree.root(),
                    planned.collected_pairs,
                );
            }
            None => {
                let _ = writeln!(out, "  tree {k} [{}]: unplaceable", attrs.join(" "));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::capacity::CapacityMap;
    use crate::cost::CostModel;
    use crate::ids::{AttrId, NodeId};
    use crate::pairs::PairSet;
    use crate::planner::Planner;

    fn plan() -> MonitoringPlan {
        let caps = CapacityMap::uniform(6, 40.0, 200.0).unwrap();
        let pairs: PairSet = (0..6)
            .flat_map(|n| (0..2).map(move |a| (NodeId(n), AttrId(a))))
            .collect();
        Planner::default().plan(&pairs, &caps, CostModel::default())
    }

    #[test]
    fn dot_contains_every_member_edge() {
        let p = plan();
        let dot = to_dot(&p);
        let edges = dot.matches("->").count();
        let expected: usize = p.trees().iter().map(|t| t.len()).sum();
        assert_eq!(edges, expected, "one upstream edge per member");
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn summary_mentions_every_tree() {
        let p = plan();
        let s = summarize(&p);
        for k in 0..p.trees().len() {
            assert!(s.contains(&format!("tree {k} ")), "missing tree {k}: {s}");
        }
        assert!(s.contains("coverage"));
    }
}
