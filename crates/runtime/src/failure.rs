//! Declarative failure scenarios: scripted node and link outages
//! applied to a [`Deployment`] as it ticks.
//!
//! Reliability experiments (Fig. 12b and the SSDP/DSDP tests) and the
//! chaos tests need repeatable outage patterns; this module expresses
//! them as data, and [`FailureSchedule::apply`] is the one translation
//! of that data into [`Deployment::fail_node`] /
//! [`Deployment::heal_node`] / [`Deployment::set_link_down`] calls —
//! `remo-sim`'s `Simulator` drives its deployment through it too. The
//! deployment runs on the caller's thread with the epoch counter as its
//! only clock, so a schedule's outcome — the epoch a crash is confirmed
//! at, every retransmission on a lossy transport — is the same on every
//! run.

use crate::collector::EpochReport;
use crate::deployment::Deployment;
use remo_core::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailureTarget {
    /// A whole node crashes (drops all traffic).
    Node(NodeId),
    /// A directed link `from → to` drops messages.
    Link(NodeId, NodeId),
}

/// One scripted outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Outage {
    /// What fails.
    pub target: FailureTarget,
    /// First epoch (inclusive) the failure is in effect.
    pub from_epoch: u64,
    /// Last epoch (inclusive), or `None` for permanent.
    pub until_epoch: Option<u64>,
}

impl Outage {
    /// A node outage over `[from, until]`.
    pub fn node(node: NodeId, from_epoch: u64, until_epoch: Option<u64>) -> Self {
        Outage {
            target: FailureTarget::Node(node),
            from_epoch,
            until_epoch,
        }
    }

    /// A link outage over `[from, until]`.
    pub fn link(from: NodeId, to: NodeId, from_epoch: u64, until_epoch: Option<u64>) -> Self {
        Outage {
            target: FailureTarget::Link(from, to),
            from_epoch,
            until_epoch,
        }
    }

    fn active_at(&self, epoch: u64) -> bool {
        epoch >= self.from_epoch && self.until_epoch.is_none_or(|u| epoch <= u)
    }
}

/// A schedule of outages driven alongside a deployment.
///
/// # Examples
///
/// ```
/// use remo_runtime::failure::{FailureSchedule, Outage};
/// use remo_core::NodeId;
/// let mut sched = FailureSchedule::new();
/// sched.add(Outage::node(NodeId(3), 10, Some(20)));
/// sched.add(Outage::link(NodeId(1), NodeId(0), 15, None));
/// assert_eq!(sched.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FailureSchedule {
    outages: Vec<Outage>,
}

impl FailureSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an outage.
    pub fn add(&mut self, outage: Outage) -> &mut Self {
        self.outages.push(outage);
        self
    }

    /// The scripted outages, in insertion order.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// Number of scripted outages.
    pub fn len(&self) -> usize {
        self.outages.len()
    }

    /// Returns `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.outages.is_empty()
    }

    /// Net per-node failure state at `epoch`: a node is failed iff
    /// *any* outage targeting it is active, regardless of the order
    /// outages were added in.
    pub fn node_states_at(&self, epoch: u64) -> BTreeMap<NodeId, bool> {
        let mut states: BTreeMap<NodeId, bool> = BTreeMap::new();
        for o in &self.outages {
            if let FailureTarget::Node(n) = o.target {
                *states.entry(n).or_insert(false) |= o.active_at(epoch);
            }
        }
        states
    }

    /// Net per-link failure state at `epoch` (keyed by the directed
    /// edge `from → to`), ORed across overlapping outages like
    /// [`FailureSchedule::node_states_at`].
    pub fn link_states_at(&self, epoch: u64) -> BTreeMap<(NodeId, NodeId), bool> {
        let mut states: BTreeMap<(NodeId, NodeId), bool> = BTreeMap::new();
        for o in &self.outages {
            if let FailureTarget::Link(a, b) = o.target {
                *states.entry((a, b)).or_insert(false) |= o.active_at(epoch);
            }
        }
        states
    }

    /// Applies the schedule's net node and link state for the
    /// *upcoming* epoch (call immediately before each
    /// [`Deployment::tick`]).
    ///
    /// Every scheduled target is re-asserted, its state the OR over all
    /// outages covering it, so overlapping windows on the same target
    /// compose correctly: an outage that has ended cannot heal a target
    /// another outage still holds down. Re-asserting changes nothing: a
    /// crashed agent has no volatile state left to lose, and a link's
    /// state is set membership.
    pub fn apply(&self, dep: &mut Deployment) {
        let epoch = dep.epoch() + 1;
        for (node, failed) in self.node_states_at(epoch) {
            if failed {
                dep.fail_node(node);
            } else {
                dep.heal_node(node);
            }
        }
        for ((a, b), down) in self.link_states_at(epoch) {
            dep.set_link_down(a, b, down);
        }
    }

    /// Runs `epochs` ticks under the schedule, returning every epoch's
    /// report (in order).
    pub fn run(&self, dep: &mut Deployment, epochs: u64) -> Vec<EpochReport> {
        (0..epochs)
            .map(|_| {
                self.apply(dep);
                dep.tick()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::samplers;
    use remo_core::planner::Planner;
    use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, PairSet};

    fn deployment() -> Deployment {
        let pairs: PairSet = (0..6).map(|n| (NodeId(n), AttrId(0))).collect();
        let caps = CapacityMap::uniform(6, 50.0, 500.0).unwrap();
        let cost = CostModel::default();
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        let sampler = samplers::deterministic();
        Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler)
    }

    fn delivered(reports: &[EpochReport]) -> u64 {
        reports.iter().map(|r| r.delivered_values).sum()
    }

    #[test]
    fn outage_window_arithmetic() {
        let o = Outage::node(NodeId(0), 5, Some(9));
        assert!(!o.active_at(4));
        assert!(o.active_at(5));
        assert!(o.active_at(9));
        assert!(!o.active_at(10));
        let forever = Outage::node(NodeId(0), 3, None);
        assert!(forever.active_at(1_000_000));
    }

    #[test]
    fn windowed_node_outage_degrades_then_recovers() {
        let mut dep = deployment();
        let mut sched = FailureSchedule::new();
        // All nodes down for epochs 11..=20.
        for n in 0..6 {
            sched.add(Outage::node(NodeId(n), 11, Some(20)));
        }
        let before = delivered(&sched.run(&mut dep, 10));
        assert!(before > 0);
        let during = delivered(&sched.run(&mut dep, 10)); // outage window
        assert!(during <= 6, "at most the pipeline tail leaks through");
        let after = delivered(&sched.run(&mut dep, 10)); // healed
        assert!(after > 0, "flow resumes after the window");
    }

    #[test]
    fn link_outage_blocks_one_edge_only() {
        let mut dep = deployment();
        dep.run(5);
        // Fail a single leaf-to-parent edge forever; the rest flows.
        let mut sched = FailureSchedule::new();
        sched.add(Outage::link(NodeId(5), NodeId(0), 6, None));
        assert!(delivered(&sched.run(&mut dep, 10)) > 0);
    }

    #[test]
    fn overlapping_outages_on_one_target_compose() {
        // Regression: a short outage ending mid-way through a longer
        // one must not heal the target — the net state is the OR over
        // all covering windows, independent of insertion order.
        let mut sched = FailureSchedule::new();
        sched.add(Outage::node(NodeId(2), 5, Some(20)));
        sched.add(Outage::node(NodeId(2), 1, Some(10)));
        for epoch in [1, 5, 10, 11, 15, 20] {
            assert!(
                sched.node_states_at(epoch)[&NodeId(2)],
                "node 2 covered at epoch {epoch}"
            );
        }
        assert!(!sched.node_states_at(21)[&NodeId(2)]);

        // End-to-end: the node stays dark for the whole union window.
        let mut dep = deployment();
        let victim = NodeId(5);
        let mut sched = FailureSchedule::new();
        sched.add(Outage::node(victim, 10, Some(25)));
        sched.add(Outage::node(victim, 5, Some(12))); // ends inside the first
        sched.run(&mut dep, 25);
        // Between epoch 13 (where the buggy per-outage loop healed the
        // victim) and 25, nothing fresh from the victim arrives.
        let stored = dep.observed(victim, AttrId(0)).expect("seen early");
        assert!(
            stored.produced < 13,
            "victim healed mid-outage: fresh value produced at {}",
            stored.produced
        );
        sched.run(&mut dep, 10);
        let healed = dep.observed(victim, AttrId(0)).expect("resumes");
        assert!(
            healed.produced > 25,
            "victim flows again after the union window"
        );

        // Links compose the same way.
        let mut sched = FailureSchedule::new();
        sched.add(Outage::link(NodeId(0), NodeId(1), 3, None));
        sched.add(Outage::link(NodeId(0), NodeId(1), 1, Some(4)));
        assert!(sched.link_states_at(100)[&(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let mut a = deployment();
        let mut b = deployment();
        let scheduled = delivered(&FailureSchedule::new().run(&mut a, 8));
        assert_eq!(scheduled, b.run(8).delivered_values);
    }
}
