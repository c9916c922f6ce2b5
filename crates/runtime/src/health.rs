//! Failure detection and health telemetry for deployments.
//!
//! The coordinator drives agents in lockstep epochs; a healthy agent
//! acknowledges every `Tick` with a [`TickReport`](crate::TickReport).
//! A crashed agent goes silent, so liveness falls out of the tick
//! barrier itself: any agent whose report for the epoch is missing when
//! the epoch closes (in process: when the agents have run; over TCP:
//! at [`HealthConfig::deadline`]) is *suspected*, and after
//! [`HealthConfig::confirm_after`] consecutive misses it is
//! *confirmed dead*. Confirmation is the
//! signal the self-healing deployment uses to invoke
//! `AdaptivePlanner::handle_node_failure` and reconfigure the
//! survivors; an agent that reports again after confirmation is
//! *recovered* and reintegrated via `handle_node_recovery`.
//!
//! [`HealthMonitor`] holds the per-node detector state machine and
//! incident statistics; [`HealthReport`] is the serializable snapshot
//! exposed through
//! [`Deployment::health_report`](crate::Deployment::health_report).

use remo_core::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Liveness state of one agent as seen by the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum HealthState {
    /// Reporting on time.
    #[default]
    Healthy,
    /// Missed at least one epoch deadline, not yet confirmed dead.
    Suspected,
    /// Missed `confirm_after` consecutive deadlines.
    Dead,
}

/// Failure-detector tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// How long the `remo-collector` service waits each epoch for
    /// outstanding tick reports before declaring the stragglers
    /// missed. Unused in process: a [`Deployment`](crate::Deployment)
    /// runs its agents to completion, so a report that is not there
    /// when they have run is not coming.
    pub deadline: Duration,
    /// Consecutive missed epochs before a suspect is confirmed dead
    /// (the paper-style `K`).
    pub confirm_after: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            deadline: Duration::from_millis(200),
            confirm_after: 3,
        }
    }
}

/// Per-node incident statistics (cumulative over the deployment's
/// lifetime; epoch quantities refer to the most recent incident).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct NodeHealthStats {
    /// Times this node entered the suspected state.
    pub suspected: u64,
    /// Times this node was confirmed dead.
    pub confirmed: u64,
    /// Times a plan repair completed after this node's confirmation.
    pub repaired: u64,
    /// Times this node reported again after being confirmed dead.
    pub recovered: u64,
    /// Epochs from first missed deadline to confirmation (last
    /// incident): the detector's time-to-detect.
    pub time_to_detect: u64,
    /// Epochs from first missed deadline to completed plan repair
    /// (last incident): mean-time-to-repair in epochs.
    pub mttr_epochs: u64,
    /// Readings this node was scheduled to produce but could not,
    /// accumulated over its unhealthy windows.
    pub values_lost: u64,
    /// Reports that arrived carrying an older epoch than the barrier
    /// they were observed in (clock skew / slow node): each counted as
    /// a miss-then-arrival, never as current liveness.
    pub stale_reports: u64,
}

/// Serializable snapshot of deployment health.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct HealthReport {
    /// Epoch the snapshot was taken at.
    pub epoch: u64,
    /// Current liveness state per node.
    pub states: BTreeMap<NodeId, HealthState>,
    /// Cumulative incident statistics per node.
    pub stats: BTreeMap<NodeId, NodeHealthStats>,
}

impl HealthReport {
    /// Nodes currently confirmed dead.
    pub fn dead_nodes(&self) -> Vec<NodeId> {
        self.states
            .iter()
            .filter(|(_, &s)| s == HealthState::Dead)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Total confirmed-dead incidents across all nodes.
    pub fn total_confirmed(&self) -> u64 {
        self.stats.values().map(|s| s.confirmed).sum()
    }

    /// Total completed repairs across all nodes.
    pub fn total_repaired(&self) -> u64 {
        self.stats.values().map(|s| s.repaired).sum()
    }

    /// Total readings lost to unhealthy windows across all nodes.
    pub fn total_values_lost(&self) -> u64 {
        self.stats.values().map(|s| s.values_lost).sum()
    }
}

/// State transitions produced by one epoch's observation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealthEvents {
    /// Nodes that just became suspected.
    pub suspected: Vec<NodeId>,
    /// Nodes that just became confirmed dead.
    pub confirmed: Vec<NodeId>,
    /// Previously dead nodes that reported again.
    pub recovered: Vec<NodeId>,
}

impl HealthEvents {
    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.suspected.is_empty() && self.confirmed.is_empty() && self.recovered.is_empty()
    }
}

#[derive(Debug, Clone, Copy)]
struct NodeHealth {
    state: HealthState,
    misses: u32,
    first_miss: u64,
    stats: NodeHealthStats,
}

/// The per-node failure-detector state machine.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    confirm_after: u32,
    nodes: BTreeMap<NodeId, NodeHealth>,
}

impl HealthMonitor {
    /// A monitor tracking `nodes`, confirming death after
    /// `confirm_after` consecutive missed deadlines (clamped to ≥ 1).
    pub fn new(nodes: impl IntoIterator<Item = NodeId>, confirm_after: u32) -> Self {
        HealthMonitor {
            confirm_after: confirm_after.max(1),
            nodes: nodes
                .into_iter()
                .map(|n| {
                    (
                        n,
                        NodeHealth {
                            state: HealthState::Healthy,
                            misses: 0,
                            first_miss: 0,
                            stats: NodeHealthStats::default(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// Current state of a node (`Dead` for untracked nodes).
    pub fn state(&self, node: NodeId) -> HealthState {
        self.nodes.get(&node).map_or(HealthState::Dead, |h| h.state)
    }

    /// Consecutive missed deadlines of a node's current incident
    /// (zero for healthy or untracked nodes). The `remo-check mc` model
    /// checker folds this into its state fingerprint: two states with
    /// equal miss counts are behaviorally equivalent to the detector.
    pub fn consecutive_misses(&self, node: NodeId) -> u32 {
        self.nodes.get(&node).map_or(0, |h| h.misses)
    }

    /// Nodes the tick barrier should still wait for (everything not
    /// confirmed dead).
    pub fn expected_reporters(&self) -> BTreeSet<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, h)| h.state != HealthState::Dead)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Folds one epoch's reports — `node → newest report epoch heard
    /// during this barrier` — into the detector and returns the
    /// transitions.
    ///
    /// Liveness for `epoch` requires a report *for* `epoch` (or
    /// newer): a late frame from a previous epoch is real evidence the
    /// process was alive back then, but the node still missed this
    /// deadline, so it counts as a miss-then-arrival. Crediting stale
    /// reports as current liveness has two failure modes this method
    /// exists to close: a consistently one-epoch-behind node resets
    /// its miss counter every barrier and is never detected, and a
    /// killed node's last pre-death frame, delivered late, "recovers"
    /// it after confirmation — triggering `handle_node_recovery`
    /// followed by a second detection and a double repair.
    pub fn observe_reports(&mut self, epoch: u64, reports: &BTreeMap<NodeId, u64>) -> HealthEvents {
        let mut events = HealthEvents::default();
        for (&node, h) in self.nodes.iter_mut() {
            let report_epoch = reports.get(&node);
            if report_epoch.is_some_and(|&e| e < epoch) {
                h.stats.stale_reports += 1;
                if remo_obs::enabled() {
                    remo_obs::counter("remo_runtime_stale_reports_total").inc();
                }
            }
            if report_epoch.is_some_and(|&e| e >= epoch) {
                if h.state == HealthState::Dead {
                    h.stats.recovered += 1;
                    events.recovered.push(node);
                    if remo_obs::enabled() {
                        remo_obs::counter("remo_runtime_recovered_total").inc();
                    }
                    remo_obs::event!("health.recovered", "node" => node.0, "epoch" => epoch);
                }
                h.state = HealthState::Healthy;
                h.misses = 0;
            } else {
                h.misses += 1;
                if h.state == HealthState::Healthy {
                    h.state = HealthState::Suspected;
                    h.first_miss = epoch;
                    h.stats.suspected += 1;
                    events.suspected.push(node);
                    if remo_obs::enabled() {
                        remo_obs::counter("remo_runtime_suspected_total").inc();
                    }
                    remo_obs::event!("health.suspected", "node" => node.0, "epoch" => epoch);
                }
                if h.state == HealthState::Suspected && h.misses >= self.confirm_after {
                    h.state = HealthState::Dead;
                    h.stats.confirmed += 1;
                    h.stats.time_to_detect = epoch.saturating_sub(h.first_miss);
                    events.confirmed.push(node);
                    if remo_obs::enabled() {
                        remo_obs::counter("remo_runtime_confirmed_dead_total").inc();
                        // Detection latency in epochs, the Fig. 12-style
                        // failure-detection metric.
                        remo_obs::histogram("remo_runtime_time_to_detect_epochs")
                            .observe(h.stats.time_to_detect as f64);
                    }
                    remo_obs::event!("health.confirmed",
                        "node" => node.0,
                        "epoch" => epoch,
                        "time_to_detect" => h.stats.time_to_detect);
                }
            }
        }
        events
    }

    /// Records that the plan was repaired around `node` at `epoch`
    /// (sets the incident's MTTR).
    pub fn mark_repaired(&mut self, node: NodeId, epoch: u64) {
        if let Some(h) = self.nodes.get_mut(&node) {
            h.stats.repaired += 1;
            h.stats.mttr_epochs = epoch.saturating_sub(h.first_miss);
            if remo_obs::enabled() {
                remo_obs::counter("remo_runtime_repairs_total").inc();
                remo_obs::histogram("remo_runtime_mttr_epochs").observe(h.stats.mttr_epochs as f64);
            }
            remo_obs::event!("health.repaired",
                "node" => node.0,
                "epoch" => epoch,
                "mttr_epochs" => h.stats.mttr_epochs);
        }
    }

    /// Charges `count` lost readings to `node`'s current incident.
    pub fn add_values_lost(&mut self, node: NodeId, count: u64) {
        if let Some(h) = self.nodes.get_mut(&node) {
            h.stats.values_lost += count;
        }
    }

    /// Serializable snapshot at `epoch`.
    pub fn report(&self, epoch: u64) -> HealthReport {
        HealthReport {
            epoch,
            states: self.nodes.iter().map(|(&n, h)| (n, h.state)).collect(),
            stats: self.nodes.iter().map(|(&n, h)| (n, h.stats)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn all(n: u32) -> BTreeSet<NodeId> {
        (0..n).map(NodeId).collect()
    }

    /// One lockstep barrier: every node in `reporters` reported for
    /// `epoch`.
    fn observe(m: &mut HealthMonitor, epoch: u64, reporters: &BTreeSet<NodeId>) -> HealthEvents {
        let reports: BTreeMap<NodeId, u64> = reporters.iter().map(|&n| (n, epoch)).collect();
        m.observe_reports(epoch, &reports)
    }

    #[test]
    fn silent_node_is_suspected_then_confirmed() {
        for confirm_after in [3, 2] {
            let mut m = HealthMonitor::new((0..4).map(NodeId), confirm_after);
            let mut reporters = all(4);
            reporters.remove(&NodeId(2));

            let e1 = observe(&mut m, 1, &reporters);
            assert_eq!(e1.suspected, vec![NodeId(2)]);
            assert!(e1.confirmed.is_empty());
            assert_eq!(m.state(NodeId(2)), HealthState::Suspected);

            let confirm = u64::from(confirm_after);
            for epoch in 2..confirm {
                let e = observe(&mut m, epoch, &reporters);
                assert!(e.is_empty(), "miss {epoch} is not yet confirmation");
                assert_eq!(m.state(NodeId(2)), HealthState::Suspected);
            }

            let e = observe(&mut m, confirm, &reporters);
            assert_eq!(e.confirmed, vec![NodeId(2)]);
            assert_eq!(m.state(NodeId(2)), HealthState::Dead);
            // Silent on: still dead, confirmed once; the reporters never
            // left healthy.
            assert!(observe(&mut m, confirm + 1, &reporters).is_empty());
            assert_eq!(m.state(NodeId(2)), HealthState::Dead);
            assert!(reporters
                .iter()
                .all(|&n| m.state(n) == HealthState::Healthy));
            let r = m.report(confirm + 1);
            // First miss at epoch 1, confirmed at epoch `confirm_after`.
            assert_eq!(r.stats[&NodeId(2)].time_to_detect, confirm - 1);
            assert_eq!(r.dead_nodes(), vec![NodeId(2)]);
            assert_eq!(r.total_confirmed(), 1);
        }
    }

    #[test]
    fn single_miss_recovers_without_confirmation() {
        let mut m = HealthMonitor::new((0..2).map(NodeId), 3);
        let mut some = all(2);
        some.remove(&NodeId(1));
        observe(&mut m, 1, &some);
        assert_eq!(m.state(NodeId(1)), HealthState::Suspected);
        observe(&mut m, 2, &all(2));
        assert_eq!(m.state(NodeId(1)), HealthState::Healthy);
        // Misses are consecutive: a fresh incident restarts the count.
        observe(&mut m, 3, &some);
        observe(&mut m, 4, &some);
        assert_eq!(m.state(NodeId(1)), HealthState::Suspected);
        observe(&mut m, 5, &some);
        assert_eq!(m.state(NodeId(1)), HealthState::Dead);
    }

    #[test]
    fn dead_node_reporting_again_is_recovered() {
        // Back at the epoch after its confirmation, or one silent epoch
        // later.
        for back in [2, 3] {
            let mut m = HealthMonitor::new((0..3).map(NodeId), 1);
            let mut down = all(3);
            down.remove(&NodeId(0));
            let e = observe(&mut m, 1, &down);
            assert_eq!(
                e.confirmed,
                vec![NodeId(0)],
                "confirm_after=1 confirms at once"
            );
            for epoch in 2..back {
                assert!(observe(&mut m, epoch, &down).is_empty());
            }
            assert_eq!(m.expected_reporters(), down);
            assert_eq!(m.state(NodeId(0)), HealthState::Dead);

            let e = observe(&mut m, back, &all(3));
            assert_eq!(e.recovered, vec![NodeId(0)]);
            assert_eq!(m.state(NodeId(0)), HealthState::Healthy);
            // Reporting on is not another recovery.
            assert!(observe(&mut m, back + 1, &all(3)).is_empty());
            assert_eq!(m.report(back + 1).stats[&NodeId(0)].recovered, 1);
        }
    }

    /// A slow-but-alive node whose report always arrives one barrier
    /// late must be detected: its stale reports are miss-then-arrival,
    /// not liveness. (Pre-fix, any report in the barrier window reset
    /// the miss counter, so a perpetually lagging node was never
    /// confirmed.)
    #[test]
    fn perpetually_late_reporter_is_confirmed_not_reset() {
        let mut m = HealthMonitor::new((0..3).map(NodeId), 3);
        for epoch in 1..=3u64 {
            // Nodes 0 and 1 report the current epoch; node 2's report
            // is delayed transport — it carries the previous epoch.
            let reports: BTreeMap<NodeId, u64> = [
                (NodeId(0), epoch),
                (NodeId(1), epoch),
                (NodeId(2), epoch - 1),
            ]
            .into_iter()
            .collect();
            let events = m.observe_reports(epoch, &reports);
            if epoch < 3 {
                assert!(events.confirmed.is_empty());
            } else {
                assert_eq!(events.confirmed, vec![NodeId(2)]);
            }
        }
        assert_eq!(m.state(NodeId(2)), HealthState::Dead);
        assert_eq!(m.report(3).stats[&NodeId(2)].stale_reports, 3);
    }

    /// A confirmed-dead node's last pre-death frame delivered late
    /// must not resurrect it: recovery (and the repair it triggers)
    /// requires a current-epoch report. Pre-fix the stale report
    /// flipped the node back to healthy, and its continued silence
    /// then drove a second suspect→confirm→repair cycle for the same
    /// crash.
    #[test]
    fn stale_report_does_not_resurrect_a_dead_node() {
        let mut m = HealthMonitor::new((0..2).map(NodeId), 1);
        let only0: BTreeMap<NodeId, u64> = [(NodeId(0), 1)].into_iter().collect();
        let e = m.observe_reports(1, &only0);
        assert_eq!(e.confirmed, vec![NodeId(1)]);

        // Epoch 2: node 1's dying report from epoch 1 straggles in.
        let late: BTreeMap<NodeId, u64> = [(NodeId(0), 2), (NodeId(1), 1)].into_iter().collect();
        let e = m.observe_reports(2, &late);
        assert!(e.recovered.is_empty(), "stale frame resurrected the dead");
        assert_eq!(m.state(NodeId(1)), HealthState::Dead);
        assert_eq!(m.report(2).stats[&NodeId(1)].confirmed, 1);

        // Epoch 3: silence again — no second confirmation fires (the
        // node never left Dead, so no double repair can be triggered).
        let only0: BTreeMap<NodeId, u64> = [(NodeId(0), 3)].into_iter().collect();
        let e = m.observe_reports(3, &only0);
        assert!(e.is_empty());
        assert_eq!(m.report(3).stats[&NodeId(1)].confirmed, 1);

        // A genuine current-epoch report does recover it.
        let both: BTreeMap<NodeId, u64> = [(NodeId(0), 4), (NodeId(1), 4)].into_iter().collect();
        let e = m.observe_reports(4, &both);
        assert_eq!(e.recovered, vec![NodeId(1)]);
    }

    /// A miss-then-arrival straggler catches up: reports for both the
    /// missed epoch and the current one arrive in the same barrier —
    /// the newest wins and the node is healthy again.
    #[test]
    fn catching_up_straggler_is_healthy() {
        let mut m = HealthMonitor::new((0..2).map(NodeId), 3);
        let miss: BTreeMap<NodeId, u64> = [(NodeId(0), 1)].into_iter().collect();
        m.observe_reports(1, &miss);
        assert_eq!(m.state(NodeId(1)), HealthState::Suspected);
        // Barrier 2 hears both the late epoch-1 report and the
        // current epoch-2 one (the caller keeps the max).
        let caught_up: BTreeMap<NodeId, u64> =
            [(NodeId(0), 2), (NodeId(1), 2)].into_iter().collect();
        m.observe_reports(2, &caught_up);
        assert_eq!(m.state(NodeId(1)), HealthState::Healthy);
        assert_eq!(m.consecutive_misses(NodeId(1)), 0);
    }

    #[test]
    fn repair_and_loss_accounting() {
        let mut m = HealthMonitor::new((0..2).map(NodeId), 2);
        let mut down = all(2);
        down.remove(&NodeId(1));
        observe(&mut m, 5, &down);
        observe(&mut m, 6, &down);
        assert_eq!(m.state(NodeId(1)), HealthState::Dead);
        m.add_values_lost(NodeId(1), 3);
        m.mark_repaired(NodeId(1), 7);
        let r = m.report(7);
        assert_eq!(r.stats[&NodeId(1)].mttr_epochs, 2);
        assert_eq!(r.stats[&NodeId(1)].values_lost, 3);
        assert_eq!(r.total_repaired(), 1);
        assert_eq!(r.total_values_lost(), 3);
    }

    #[test]
    fn report_serde_roundtrip() {
        let mut m = HealthMonitor::new((0..3).map(NodeId), 2);
        let mut down = all(3);
        down.remove(&NodeId(2));
        observe(&mut m, 1, &down);
        observe(&mut m, 2, &down);
        let report = m.report(2);
        let v = serde::Serialize::serialize(&report);
        let back: HealthReport = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, report);
        let state = HealthState::Suspected;
        let v = serde::Serialize::serialize(&state);
        let back: HealthState = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, state);
    }
}
