//! Chaos harness: drives a live [`Deployment`] from a declarative
//! [`FailureSchedule`].
//!
//! `remo-sim`'s failure module scripts outages as data; this adapter
//! replays the same schedule against the in-process runtime, so chaos
//! scenarios (crash at epoch E, heal at epoch F, overlapping windows)
//! can be asserted against the self-healing coordinator with the exact
//! outage timeline the simulator used. The deployment runs on the
//! driver's thread with the epoch counter as its only clock, so a
//! schedule's outcome — the epoch a crash is confirmed at, every
//! retransmission on a lossy transport — is the same on every run. Node outages map to
//! [`Deployment::fail_node`] / [`Deployment::heal_node`]; link outages
//! map to [`Deployment::set_link_down`], which both in-process
//! transports honour: a frame sent over a down link is lost (and, on
//! `TransportSpec::Lossy`, retransmitted by the ARQ layer).

use remo_core::NodeId;
use remo_runtime::{Deployment, EpochReport};
use remo_sim::failure::FailureSchedule;
use std::collections::BTreeMap;

/// Replays a [`FailureSchedule`]'s node and link outages against a
/// [`Deployment`], tick by tick.
///
/// The driver tracks the last state it pushed per node so an agent
/// only sees transitions, not a crash re-asserted every epoch (which
/// would clear its buffers again); a link's state is a set membership
/// and is simply re-asserted.
#[derive(Debug, Clone)]
pub struct ChaosDriver {
    schedule: FailureSchedule,
    pushed: BTreeMap<NodeId, bool>,
}

impl ChaosDriver {
    /// Wraps a schedule for runtime replay.
    pub fn new(schedule: FailureSchedule) -> Self {
        ChaosDriver {
            schedule,
            pushed: BTreeMap::new(),
        }
    }

    /// The wrapped schedule.
    pub fn schedule(&self) -> &FailureSchedule {
        &self.schedule
    }

    /// Applies the schedule's net node and link state for the
    /// *upcoming* epoch (call immediately before each
    /// [`Deployment::tick`]). Returns the nodes whose state changed.
    pub fn apply(&mut self, dep: &mut Deployment) -> Vec<NodeId> {
        let epoch = dep.epoch() + 1;
        let mut changed = Vec::new();
        for (node, failed) in self.schedule.node_states_at(epoch) {
            if self.pushed.get(&node) == Some(&failed) {
                continue;
            }
            if failed {
                dep.fail_node(node);
            } else {
                dep.heal_node(node);
            }
            self.pushed.insert(node, failed);
            changed.push(node);
        }
        for ((a, b), down) in self.schedule.link_states_at(epoch) {
            dep.set_link_down(a, b, down);
        }
        changed
    }

    /// Runs `epochs` ticks under the schedule, returning every epoch's
    /// report (in order).
    pub fn run(&mut self, dep: &mut Deployment, epochs: u64) -> Vec<EpochReport> {
        (0..epochs)
            .map(|_| {
                self.apply(dep);
                dep.tick()
            })
            .collect()
    }
}
