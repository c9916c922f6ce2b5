//! Per-node resource budgets.
//!
//! Every node `i` — and the central collector — has a capacity `b_i`
//! for receiving and transmitting monitoring data per epoch
//! (paper §2.3). The planner must keep each node's demand `d_i ≤ b_i`.

use crate::error::PlanError;
use crate::ids::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Capacity budgets for the collector and every monitoring node.
///
/// # Examples
///
/// ```
/// use remo_core::{CapacityMap, NodeId};
/// let caps = CapacityMap::uniform(4, 100.0, 1_000.0)?;
/// assert_eq!(caps.node(NodeId(2)), Some(100.0));
/// assert_eq!(caps.collector(), 1_000.0);
/// assert_eq!(caps.len(), 4);
/// # Ok::<(), remo_core::PlanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityMap {
    nodes: BTreeMap<NodeId, f64>,
    collector: f64,
}

impl CapacityMap {
    /// Creates a capacity map with an explicit collector budget and no
    /// monitoring nodes; add nodes with [`set_node`](Self::set_node).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidParameter`] if `collector` is
    /// negative or non-finite.
    pub fn new(collector: f64) -> Result<Self, PlanError> {
        validate("collector_capacity", collector)?;
        Ok(CapacityMap {
            nodes: BTreeMap::new(),
            collector,
        })
    }

    /// Creates `n` nodes (`NodeId(0)..NodeId(n-1)`) with identical
    /// budget `per_node` and collector budget `collector`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidParameter`] on negative or
    /// non-finite budgets.
    pub fn uniform(n: usize, per_node: f64, collector: f64) -> Result<Self, PlanError> {
        validate("node_capacity", per_node)?;
        let mut map = CapacityMap::new(collector)?;
        for i in 0..n {
            map.nodes.insert(NodeId(i as u32), per_node);
        }
        Ok(map)
    }

    /// Sets (or overrides) one node's budget.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::InvalidParameter`] on a negative or
    /// non-finite budget.
    pub fn set_node(&mut self, node: NodeId, capacity: f64) -> Result<(), PlanError> {
        validate("node_capacity", capacity)?;
        self.nodes.insert(node, capacity);
        Ok(())
    }

    /// Budget of `node`, or `None` if unregistered.
    pub fn node(&self, node: NodeId) -> Option<f64> {
        self.nodes.get(&node).copied()
    }

    /// Budget of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::UnknownNode`] if the node is unregistered.
    pub fn require(&self, node: NodeId) -> Result<f64, PlanError> {
        self.node(node).ok_or(PlanError::UnknownNode(node))
    }

    /// The central collector's budget.
    pub fn collector(&self) -> f64 {
        self.collector
    }

    /// Number of registered monitoring nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no monitoring nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over `(node, budget)` in node order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.nodes.iter().map(|(&n, &c)| (n, c))
    }

    /// All registered node ids in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }
}

fn validate(name: &'static str, value: f64) -> Result<(), PlanError> {
    if !value.is_finite() || value < 0.0 {
        Err(PlanError::InvalidParameter { name, value })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn uniform_builds_dense_ids() {
        let caps = CapacityMap::uniform(3, 10.0, 50.0).unwrap();
        assert_eq!(
            caps.node_ids().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(caps.node(NodeId(3)), None);
    }

    #[test]
    fn rejects_invalid_budgets() {
        assert!(CapacityMap::new(-1.0).is_err());
        assert!(CapacityMap::uniform(2, f64::INFINITY, 1.0).is_err());
        let mut caps = CapacityMap::uniform(1, 1.0, 1.0).unwrap();
        assert!(caps.set_node(NodeId(0), f64::NAN).is_err());
    }

    #[test]
    fn require_reports_unknown() {
        let caps = CapacityMap::uniform(1, 1.0, 1.0).unwrap();
        assert!(caps.require(NodeId(0)).is_ok());
        assert_eq!(
            caps.require(NodeId(5)),
            Err(PlanError::UnknownNode(NodeId(5)))
        );
    }

    #[test]
    fn override_node_budget() {
        let mut caps = CapacityMap::uniform(2, 10.0, 100.0).unwrap();
        caps.set_node(NodeId(1), 25.0).unwrap();
        assert_eq!(caps.node(NodeId(1)), Some(25.0));
        assert_eq!(caps.node(NodeId(0)), Some(10.0));
    }

    #[test]
    fn zero_capacity_is_legal() {
        // A node may be fully busy with application work; the planner
        // must simply exclude it.
        let caps = CapacityMap::uniform(1, 0.0, 0.0).unwrap();
        assert_eq!(caps.node(NodeId(0)), Some(0.0));
    }
}
