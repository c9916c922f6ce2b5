//! The coordinator's books and the one way an epoch is closed — shared
//! by the in-process [`Deployment`](crate::Deployment), the
//! distributed `remo-collector` service and the `remo-check mc` model
//! checker.
//!
//! The two runtimes drive the same lockstep protocol: tick every agent,
//! gather the tick reports and the collector-bound frames the epoch
//! produced, then *close* the epoch — fold the reports, run the failure
//! detector, charge lost readings, repair the plan around confirmed
//! failures, and take the frames in under the collector's budget.
//! [`Coordinator::close_epoch`] is that close. It does no I/O: what has
//! to be told to the agents comes back in an [`EpochClose`], and each
//! caller sends it its own way (`AgentMsg` over queues in process,
//! control envelopes over sockets).
//! The model checker calls its halves, [`Coordinator::observe`] and
//! [`Coordinator::repair`], itself, to hold a repair back as an event.

use crate::agent::{TickReport, TreeAssignment};
use crate::collector::{CollectorCore, EpochReport};
use crate::deployment::due_readings;
use crate::health::{HealthEvents, HealthMonitor, HealthState};
use crate::repair::RepairEngine;
use crate::transport::Transport;
use bytes::Bytes;
use remo_core::NodeId;
use std::collections::BTreeMap;

/// Everything a coordinator keeps between epochs.
#[derive(Debug, Clone)]
pub struct Coordinator {
    /// The failure detector, fed by each epoch's tick reports.
    pub health: HealthMonitor,
    /// The collector's ingest core and snapshot store.
    pub collector: CollectorCore,
    /// Plan repair; `None` leaves confirmed failures unrepaired.
    pub healer: Option<RepairEngine>,
    /// The assignments each agent currently holds; plan repair replaces
    /// them.
    pub assignments: BTreeMap<NodeId, Vec<TreeAssignment>>,
}

/// What closing an epoch decided: the epoch's report, plus what the
/// caller has to tell the agents.
#[derive(Debug)]
pub struct EpochClose {
    /// The epoch's aggregate report. `reconfigure_messages` is left to
    /// the caller, who knows which sends reached their agent.
    pub report: EpochReport,
    /// Failure-detector transitions of this epoch.
    pub events: HealthEvents,
    /// Nodes whose entry in [`Coordinator::assignments`] plan repair
    /// changed; each is owed its new assignments.
    pub reassigned: Vec<NodeId>,
    /// The new degrade factor when the backpressure level moved; every
    /// agent is owed it.
    pub degrade: Option<u64>,
}

impl Coordinator {
    /// What `node` is currently assigned (nothing, for a node the plan
    /// does not use).
    pub fn assigned(&self, node: NodeId) -> Vec<TreeAssignment> {
        self.assignments.get(&node).cloned().unwrap_or_default()
    }

    /// Closes `epoch` over the tick `reports` and collector-bound
    /// `frames` (`(sent_epoch, frame)`) it produced. Acks for the
    /// frames go out through `transport`, whose reliability also
    /// selects the intake path (whole-message on a reliable transport,
    /// ack + dedup + bounded ingress on an unreliable one).
    pub fn close_epoch(
        &mut self,
        epoch: u64,
        reports: impl IntoIterator<Item = TickReport>,
        frames: impl IntoIterator<Item = (u64, Bytes)>,
        transport: &dyn Transport,
    ) -> EpochClose {
        let (mut report, events) = self.observe(epoch, reports);
        let reassigned = self.repair(&events.confirmed, &events.recovered, epoch, &mut report);

        self.collector.refill();
        let mut degrade = None;
        if transport.reliable() {
            for (sent_epoch, frame) in frames {
                self.collector
                    .accept_perfect(sent_epoch, frame, &mut report);
            }
        } else {
            for (sent_epoch, frame) in frames {
                self.collector
                    .accept_arq(epoch, sent_epoch, frame, transport, &mut report);
            }
            degrade = self.collector.drain_arq(epoch, &mut report);
        }

        EpochClose {
            report,
            events,
            reassigned,
            degrade,
        }
    }

    /// The first half of [`Coordinator::close_epoch`]: the report fold,
    /// the failure detector and the charge for lost readings.
    pub fn observe(
        &mut self,
        epoch: u64,
        reports: impl IntoIterator<Item = TickReport>,
    ) -> (EpochReport, HealthEvents) {
        let mut report = EpochReport {
            epoch,
            ..EpochReport::default()
        };

        // Each reporter is credited with the freshest epoch it claimed:
        // a report proves its sender alive *as of that epoch*, so a
        // stale one cannot satisfy this epoch's liveness check (see
        // [`HealthMonitor::observe_reports`]).
        let mut reporters: BTreeMap<NodeId, u64> = BTreeMap::new();
        for tr in reports {
            let e = reporters.entry(tr.node).or_insert(tr.epoch);
            *e = (*e).max(tr.epoch);
            report.dropped_messages += tr.dropped_messages as u64;
            report.dropped_readings += tr.dropped_readings as u64;
            report.volume += tr.volume;
            report.retransmit_messages += tr.retransmits as u64;
            report.duplicate_messages_ignored += tr.dup_ignored as u64;
            report.abandoned_messages += tr.abandoned as u64;
        }

        let events = self.health.observe_reports(epoch, &reporters);
        report.suspected = events.suspected.len() as u64;
        report.confirmed_dead = events.confirmed.len() as u64;
        report.recovered = events.recovered.len() as u64;

        // Degradation telemetry: readings unhealthy nodes were
        // scheduled to produce this epoch are lost until the plan is
        // repaired around them (their assignments then become empty).
        for (&node, assigns) in &self.assignments {
            if self.health.state(node) == HealthState::Healthy {
                continue;
            }
            let due = due_readings(assigns, epoch);
            if due > 0 {
                self.health.add_values_lost(node, due);
                report.values_lost += due;
            }
        }
        (report, events)
    }

    /// The second half of [`Coordinator::close_epoch`]: plan repair
    /// around `confirmed` failures and `recovered` nodes. Returns the
    /// nodes whose assignments changed; a no-op without a healer or
    /// with both lists empty.
    pub fn repair(
        &mut self,
        confirmed: &[NodeId],
        recovered: &[NodeId],
        epoch: u64,
        report: &mut EpochReport,
    ) -> Vec<NodeId> {
        let idle = confirmed.is_empty() && recovered.is_empty();
        let Some(healer) = self.healer.as_mut().filter(|_| !idle) else {
            return Vec::new();
        };
        let (fresh, changed) = healer.repair(confirmed, recovered, &self.assignments, epoch);
        self.assignments = fresh;
        for &node in confirmed {
            self.health.mark_repaired(node, epoch);
            report.repaired += 1;
        }
        changed
    }
}
