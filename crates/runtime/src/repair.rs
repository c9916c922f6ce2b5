//! Plan repair around confirmed failures — shared by the in-process
//! [`Deployment`](crate::Deployment) and the distributed
//! `remo-collector` service.
//!
//! [`RepairEngine`] wraps the self-healing
//! [`AdaptivePlanner`]: it applies
//! confirmed failures and recoveries, re-derives every node's tree
//! assignments, and reports which nodes actually changed so the caller
//! can send *targeted* reconfiguration — `AgentMsg::Reconfigure` over
//! channels in process, an `Assign` control frame over sockets.

use crate::agent::TreeAssignment;
use crate::deployment::{changed_assignments, plan_assignments};
use remo_core::adapt::AdaptivePlanner;
use remo_core::{AttrCatalog, CapacityMap, NodeId};
use std::collections::BTreeMap;

/// Repairs the monitoring plan around node failures and recoveries.
#[derive(Debug, Clone)]
pub struct RepairEngine {
    healer: AdaptivePlanner,
    /// Capacities as launched, used to reintegrate recovered nodes.
    original_caps: CapacityMap,
    catalog: AttrCatalog,
}

impl RepairEngine {
    /// Wraps `healer`; recovered nodes reintegrate at the capacity the
    /// planner held for them at construction time.
    pub fn new(healer: AdaptivePlanner) -> Self {
        let original_caps = healer.caps().clone();
        let catalog = healer.catalog().clone();
        RepairEngine {
            healer,
            original_caps,
            catalog,
        }
    }

    /// The wrapped planner (for its plan, pairs, and cache counters).
    pub fn planner(&self) -> &AdaptivePlanner {
        &self.healer
    }

    /// Applies `confirmed` failures and `recovered` nodes to the
    /// planner and re-derives assignments. Returns the fresh
    /// assignment map plus the nodes whose assignments changed from
    /// `current` — the only agents that need a reconfiguration
    /// message.
    ///
    /// In debug builds the repaired plan is audited; a repair that
    /// leaves a plan failing an error-severity rule is a logic error.
    pub fn repair(
        &mut self,
        confirmed: &[NodeId],
        recovered: &[NodeId],
        current: &BTreeMap<NodeId, Vec<TreeAssignment>>,
        epoch: u64,
    ) -> (BTreeMap<NodeId, Vec<TreeAssignment>>, Vec<NodeId>) {
        for &node in confirmed {
            self.healer.handle_node_failure(node, epoch);
        }
        for &node in recovered {
            let capacity = self.original_caps.node(node).unwrap_or(0.0);
            self.healer.handle_node_recovery(node, capacity, epoch);
        }
        let fresh = plan_assignments(self.healer.plan(), self.healer.pairs(), &self.catalog);
        let changed = changed_assignments(current, &fresh);
        #[cfg(debug_assertions)]
        {
            // Post-condition: the repaired plan must still pass every
            // error-severity audit rule before agents act on it.
            let outcome = self.healer.audit();
            debug_assert!(
                outcome.is_clean(),
                "repair left a plan that fails the audit:\n{}",
                outcome.render()
            );
        }
        (fresh, changed)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use remo_core::adapt::AdaptScheme;
    use remo_core::planner::Planner;
    use remo_core::{AttrId, CostModel, PairSet};

    #[test]
    fn repair_returns_only_changed_nodes() {
        let caps = CapacityMap::uniform(6, 100.0, 10_000.0).unwrap();
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let pairs: PairSet = (0..6).map(|n| (NodeId(n), AttrId(0))).collect();
        let catalog = AttrCatalog::new();
        let planner = AdaptivePlanner::new(
            Planner::default(),
            AdaptScheme::Adaptive,
            pairs.clone(),
            caps,
            cost,
            catalog.clone(),
        );
        let current = plan_assignments(planner.plan(), planner.pairs(), &catalog);
        let mut engine = RepairEngine::new(planner);

        let (fresh, changed) = engine.repair(&[NodeId(2)], &[], &current, 3);
        assert!(
            fresh.get(&NodeId(2)).is_none_or(Vec::is_empty),
            "failed node keeps no assignments"
        );
        assert!(!changed.is_empty(), "some survivor must be re-routed");
        assert!(
            changed
                .iter()
                .all(|n| current.get(n).unwrap_or(&Vec::new())
                    != fresh.get(n).unwrap_or(&Vec::new())),
            "changed list only contains nodes whose assignments differ"
        );

        // Repairing again with no events is a no-op diff.
        let (fresh2, changed2) = engine.repair(&[], &[], &fresh, 4);
        assert_eq!(fresh, fresh2);
        assert!(changed2.is_empty());
    }
}
