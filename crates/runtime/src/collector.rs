//! The collector's ingest core — shared by the in-process
//! [`Deployment`](crate::Deployment) and the distributed
//! `remo-collector` service.
//!
//! [`CollectorCore`] owns everything the paper's central collector
//! does with arriving traffic: the per-epoch token bucket (collector
//! capacity), receive-side dedup and acking on unreliable transports,
//! the bounded ingress queue with lowest-frequency-weight shedding,
//! per-value budgeted processing, the backpressure degrade ladder, and
//! the freshest-value snapshot store. Extracting it from the
//! deployment lets the TCP collector service reuse the exact same
//! capacity-enforcement arithmetic the in-memory runtime pins in its
//! perfect-path equivalence test.

use crate::proto::{FrameKind, WireMessage, WireReading};
use crate::throttle::TokenBucket;
use crate::transport::{Endpoint, IncarnationTracker, NetConfig, Transport};
use bytes::Bytes;
use remo_core::{AttrCatalog, AttrId, CostModel, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};

/// A value stored at the collector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observed {
    /// Reported value.
    pub value: f64,
    /// Epoch the sample was produced.
    pub produced: u64,
    /// Epoch it reached the collector.
    pub received: u64,
    /// Samples folded in (aggregates).
    pub contributors: u32,
}

/// Aggregate statistics of one epoch across the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpochReport {
    /// Epoch covered.
    pub epoch: u64,
    /// Values recorded at the collector.
    pub delivered_values: u64,
    /// Messages dropped anywhere.
    pub dropped_messages: u64,
    /// Readings lost anywhere.
    pub dropped_readings: u64,
    /// Monitoring traffic volume in cost units.
    pub volume: f64,
    /// Nodes that entered the suspected state this epoch.
    pub suspected: u64,
    /// Nodes confirmed dead this epoch.
    pub confirmed_dead: u64,
    /// Confirmed failures the plan was repaired around this epoch.
    pub repaired: u64,
    /// Previously dead nodes that reported again this epoch.
    pub recovered: u64,
    /// Readings unhealthy nodes were scheduled to produce but could
    /// not this epoch.
    pub values_lost: u64,
    /// Targeted reconfiguration messages sent by plan repair.
    pub reconfigure_messages: u64,
    /// Cumulative tree-cache counters of the self-healing planner, if
    /// one is attached: repairs that warm-start from memoized builds
    /// show up as hits here.
    pub planner_cache: Option<remo_core::CacheStats>,
    /// ARQ retransmissions sent this epoch (zero on a reliable
    /// transport).
    pub retransmit_messages: u64,
    /// Duplicate data frames discarded by receive-side dedup.
    pub duplicate_messages_ignored: u64,
    /// Frames abandoned after the retry budget ran out.
    pub abandoned_messages: u64,
    /// Readings shed by the collector's bounded ingress queue.
    pub shed_readings: u64,
    /// Degrade-level transitions signalled to the agents this epoch.
    pub backpressure_signals: u64,
    /// Collector ingress queue depth (readings) after this epoch.
    pub ingress_depth: u64,
    /// Effective reporting-interval multiplier in force after this
    /// epoch (1 = no degradation). Zero only in unticked defaults.
    pub degrade_factor: u64,
}

/// One reading as it was accepted into the collector store (recorded
/// only when [`NetConfig::record_deliveries`] is set; a test and
/// diagnosis aid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveredReading {
    /// Source node.
    pub node: NodeId,
    /// Attribute.
    pub attr: AttrId,
    /// Reported value.
    pub value: f64,
    /// Epoch the sample was produced.
    pub produced: u64,
    /// Samples folded in.
    pub contributors: u32,
    /// Epoch the collector recorded it.
    pub received: u64,
}

/// The collector's capacity-enforcing ingest state machine.
#[derive(Debug)]
pub struct CollectorCore {
    bucket: TokenBucket,
    cost: CostModel,
    net: NetConfig,
    catalog: AttrCatalog,
    store: BTreeMap<(NodeId, AttrId), Observed>,
    aggregates: BTreeMap<AttrId, Observed>,
    /// Alias attribute → original attribute (SSDP/DSDP reliability
    /// rewrites); empty unless [`CollectorCore::set_aliases`] was
    /// called.
    aliases: BTreeMap<AttrId, AttrId>,
    /// Bounded ingress queue: `(reading, sent_epoch)` awaiting budget
    /// (ARQ path only).
    ingress: VecDeque<(WireReading, u64)>,
    /// Receive-side dedup state per root sender, incarnation-scoped
    /// (ARQ path only).
    seen: BTreeMap<NodeId, IncarnationTracker>,
    /// Current backpressure degrade level; the agents' period
    /// multiplier is `2^level`.
    degrade_level: u32,
    /// Every accepted reading, when `net.record_deliveries`.
    delivery_log: Vec<DeliveredReading>,
}

impl CollectorCore {
    /// A collector with `capacity` cost units of per-epoch budget.
    pub fn new(capacity: f64, cost: CostModel, net: NetConfig, catalog: AttrCatalog) -> Self {
        CollectorCore {
            bucket: TokenBucket::new(capacity),
            cost,
            net,
            catalog,
            store: BTreeMap::new(),
            aggregates: BTreeMap::new(),
            aliases: BTreeMap::new(),
            ingress: VecDeque::new(),
            seen: BTreeMap::new(),
            degrade_level: 0,
            delivery_log: Vec::new(),
        }
    }

    /// Installs the alias map of a reliability rewrite
    /// (`rewrite_ssdp`/`rewrite_dsdp`): a replica's readings are stored
    /// under, and queries for it answered from, the original attribute.
    pub fn set_aliases(&mut self, aliases: BTreeMap<AttrId, AttrId>) {
        self.aliases = aliases;
    }

    /// Resolves an attribute through the alias map. `record` calls
    /// this per value; with no rewrite installed the map has no root
    /// node and the lookup is one branch.
    fn resolve(&self, attr: AttrId) -> AttrId {
        self.aliases.get(&attr).copied().unwrap_or(attr)
    }

    /// Starts a new collection epoch (refills the token bucket).
    pub fn refill(&mut self) {
        self.bucket.refill();
    }

    /// Intake of one frame on the reliable path: no acks, no dedup, no
    /// queueing — the whole message is processed now or dropped now.
    /// This is the pre-transport behavior, bit for bit — the
    /// perfect-path regression test pins its `EpochReport`s.
    pub fn accept_perfect(&mut self, sent_epoch: u64, frame: Bytes, report: &mut EpochReport) {
        let Ok(msg) = WireMessage::decode(frame) else {
            return;
        };
        let cost = self.cost.message_cost(msg.readings.len() as f64);
        if !self.bucket.try_consume(cost) {
            report.dropped_messages += 1;
            report.dropped_readings += msg.readings.len() as u64;
            return;
        }
        for r in msg.readings {
            self.record(&r, sent_epoch + 1, report);
        }
    }

    /// Intake of one frame on an unreliable transport: ack + dedup,
    /// pay the fixed per-message overhead `C` on arrival, and stage
    /// the readings in the bounded ingress queue for
    /// [`CollectorCore::drain_arq`].
    pub fn accept_arq(
        &mut self,
        epoch: u64,
        sent_epoch: u64,
        frame: Bytes,
        transport: &dyn Transport,
        report: &mut EpochReport,
    ) {
        let Ok(msg) = WireMessage::decode(frame) else {
            return;
        };
        if msg.kind != FrameKind::Data {
            return;
        }
        // Replayed frame: re-ack (the first ack may have been lost)
        // and discard.
        if self
            .seen
            .get(&msg.from)
            .is_some_and(|t| t.contains(msg.incarnation, msg.seq))
        {
            transport.send_ack(
                Endpoint::Collector,
                msg.from,
                msg.incarnation,
                msg.seq,
                epoch,
            );
            report.duplicate_messages_ignored += 1;
            if remo_obs::enabled() {
                remo_obs::counter("remo_net_dedup_dropped_total").inc();
            }
            return;
        }
        transport.send_ack(
            Endpoint::Collector,
            msg.from,
            msg.incarnation,
            msg.seq,
            epoch,
        );
        self.seen
            .entry(msg.from)
            .or_default()
            .insert(msg.incarnation, msg.seq);
        // The fixed per-message overhead C is paid on arrival —
        // parsing a frame costs the collector whether or not its
        // readings are ever processed.
        self.bucket.charge(self.cost.per_message());
        for r in msg.readings {
            self.ingress.push_back((r, sent_epoch));
        }
    }

    /// Sheds the queue down to capacity, processes under the per-value
    /// budget, and runs the backpressure control loop. Returns the new
    /// degrade factor when the level transitioned — the caller fans it
    /// out to the agents (`SetDegrade` in process, a `Degrade` control
    /// frame across sockets).
    pub fn drain_arq(&mut self, epoch: u64, report: &mut EpochReport) -> Option<u64> {
        // Bounded ingress: shed the lowest-frequency-weight readings
        // first (they contribute least to the cost-model's planned
        // load; ties broken oldest-produced first), exactly the
        // degradation order the paper's collector-capacity constraint
        // suggests.
        while self.ingress.len() > self.net.ingress_capacity {
            let victim = self
                .ingress
                .iter()
                .enumerate()
                .min_by(|(_, (a, _)), (_, (b, _))| {
                    let fa = self.catalog.get_or_default(a.attr).frequency();
                    let fb = self.catalog.get_or_default(b.attr).frequency();
                    fa.partial_cmp(&fb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.produced.cmp(&b.produced))
                })
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            self.ingress.remove(i);
            report.shed_readings += 1;
            if remo_obs::enabled() {
                remo_obs::counter("remo_collector_shed_readings_total").inc();
            }
        }

        // Process under the per-value budget; what the budget cannot
        // cover stays queued (backpressure) instead of being lost.
        while let Some(&(r, _sent_epoch)) = self.ingress.front() {
            if !self.bucket.try_consume(self.cost.per_value()) {
                break;
            }
            self.ingress.pop_front();
            if remo_obs::enabled() {
                remo_obs::histogram("remo_net_delivery_latency_epochs")
                    .observe((epoch + 1).saturating_sub(r.produced) as f64);
            }
            self.record(&r, epoch + 1, report);
        }

        report.ingress_depth = self.ingress.len() as u64;
        if remo_obs::enabled() {
            remo_obs::gauge("remo_collector_queue_depth").set(self.ingress.len() as f64);
        }

        // Backpressure control loop: widen the agents' effective
        // reporting intervals while the queue stays saturated, relax
        // when it drains. Shedding this epoch counts as saturation
        // even when processing drains the residual queue below the
        // watermark — otherwise a small ingress bound sheds forever
        // without ever engaging degradation.
        let depth = self.ingress.len() as f64;
        let cap = self.net.ingress_capacity as f64;
        let saturated = depth > cap * self.net.high_watermark || report.shed_readings > 0;
        let mut level = self.degrade_level;
        if saturated && level < self.net.max_degrade_level {
            level += 1;
        } else if !saturated && depth < cap * self.net.low_watermark && level > 0 {
            level -= 1;
        }
        let transitioned = level != self.degrade_level;
        if transitioned {
            self.degrade_level = level;
            report.backpressure_signals += 1;
            if remo_obs::enabled() {
                remo_obs::counter("remo_collector_backpressure_transitions_total").inc();
            }
            remo_obs::event!("runtime.backpressure",
                "level" => u64::from(level),
                "queue_depth" => self.ingress.len() as u64);
        }
        report.degrade_factor = NetConfig::degrade_factor_at(self.degrade_level);
        transitioned.then(|| NetConfig::degrade_factor_at(self.degrade_level))
    }

    /// Records one reading into the snapshot store (shared by both
    /// intake paths): a reading only replaces the stored one if it was
    /// produced no earlier, so replays, stragglers and a slower replica
    /// path never regress the snapshot. Aliases are stored under their
    /// original attribute; the delivery log keeps the attribute as it
    /// arrived.
    pub fn record(&mut self, r: &WireReading, received: u64, report: &mut EpochReport) {
        let observed = Observed {
            value: r.value,
            produced: r.produced,
            received,
            contributors: r.contributors,
        };
        report.delivered_values += r.contributors as u64;
        if self.net.record_deliveries {
            self.delivery_log.push(DeliveredReading {
                node: r.node,
                attr: r.attr,
                value: r.value,
                produced: r.produced,
                contributors: r.contributors,
                received,
            });
        }
        let attr = self.resolve(r.attr);
        if r.contributors > 1 {
            let slot = self.aggregates.entry(attr).or_insert(observed);
            if observed.produced >= slot.produced {
                *slot = observed;
            }
        } else {
            let slot = self.store.entry((r.node, attr)).or_insert(observed);
            if observed.produced >= slot.produced {
                *slot = observed;
            }
        }
    }

    /// The snapshot of a pair.
    pub fn observed(&self, node: NodeId, attr: AttrId) -> Option<Observed> {
        self.store.get(&(node, self.resolve(attr))).copied()
    }

    /// The snapshot of an aggregated attribute.
    pub fn observed_aggregate(&self, attr: AttrId) -> Option<Observed> {
        self.aggregates.get(&self.resolve(attr)).copied()
    }

    /// Number of distinct pairs ever observed.
    pub fn observed_pairs(&self) -> usize {
        self.store.len()
    }

    /// The full per-pair snapshot store (keyed by original attributes
    /// when aliases are installed).
    pub fn store(&self) -> &BTreeMap<(NodeId, AttrId), Observed> {
        &self.store
    }

    /// Readings accepted into the store, in order (only populated when
    /// [`NetConfig::record_deliveries`] is set).
    pub fn delivery_log(&self) -> &[DeliveredReading] {
        &self.delivery_log
    }

    /// Current backpressure degrade level.
    pub fn degrade_level(&self) -> u32 {
        self.degrade_level
    }

    /// Effective reporting-interval multiplier currently in force
    /// (1 = no degradation).
    pub fn degrade_factor(&self) -> u64 {
        NetConfig::degrade_factor_at(self.degrade_level)
    }

    /// Current ingress queue depth in readings.
    pub fn ingress_depth(&self) -> usize {
        self.ingress.len()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn reading(node: u32, attr: u32, value: f64, produced: u64) -> WireReading {
        WireReading {
            node: NodeId(node),
            attr: AttrId(attr),
            value,
            produced,
            contributors: 1,
        }
    }

    fn core(capacity: f64) -> CollectorCore {
        CollectorCore::new(
            capacity,
            CostModel::new(2.0, 1.0).unwrap(),
            NetConfig::default(),
            AttrCatalog::new(),
        )
    }

    #[test]
    fn perfect_intake_charges_message_cost_and_records() {
        let mut c = core(10.0);
        let mut report = EpochReport::default();
        let frame = WireMessage::data(0, NodeId(1), 0, vec![reading(1, 0, 5.0, 3)]).encode();
        c.refill();
        c.accept_perfect(3, frame, &mut report);
        assert_eq!(report.delivered_values, 1);
        let obs = c.observed(NodeId(1), AttrId(0)).unwrap();
        assert_eq!(obs.value, 5.0);
        assert_eq!(obs.received, 4, "received at sent_epoch + 1");
    }

    #[test]
    fn perfect_intake_drops_whole_message_over_budget() {
        let mut c = core(2.5); // C = 2, a = 1: one reading costs 3
        let mut report = EpochReport::default();
        let frame = WireMessage::data(0, NodeId(1), 0, vec![reading(1, 0, 5.0, 3)]).encode();
        c.refill();
        c.accept_perfect(3, frame, &mut report);
        assert_eq!(report.dropped_messages, 1);
        assert_eq!(report.dropped_readings, 1);
        assert_eq!(c.observed_pairs(), 0);
    }

    #[test]
    fn stale_reading_never_regresses_the_snapshot() {
        let mut c = core(100.0);
        let mut report = EpochReport::default();
        c.record(&reading(0, 0, 9.0, 10), 11, &mut report);
        c.record(&reading(0, 0, 1.0, 5), 12, &mut report);
        assert_eq!(c.observed(NodeId(0), AttrId(0)).unwrap().value, 9.0);
    }

    #[test]
    fn aliases_fold_to_original() {
        let mut c = core(100.0);
        let mut report = EpochReport::default();
        c.set_aliases([(AttrId(100), AttrId(0))].into_iter().collect());
        c.record(&reading(2, 100, 7.0, 1), 2, &mut report);
        assert_eq!(c.observed(NodeId(2), AttrId(0)).unwrap().value, 7.0);
        assert_eq!(c.observed(NodeId(2), AttrId(100)).unwrap().value, 7.0);
        assert_eq!(c.observed_pairs(), 1, "one pair, not one per replica");
        // The slower replica path never regresses the snapshot.
        c.record(&reading(2, 0, 3.0, 0), 3, &mut report);
        assert_eq!(c.observed(NodeId(2), AttrId(0)).unwrap().value, 7.0);
    }

    #[test]
    fn arq_intake_dedups_restarted_sender_by_incarnation() {
        // Two frames with the same seq: incarnation 0 then a restart's
        // incarnation 1. Without incarnation-scoped dedup the second
        // (fresh) frame would be swallowed as a replay.
        let mut c = core(100.0);
        let mut report = EpochReport::default();
        let transport = NullTransport;
        c.refill();
        let old = WireMessage::data(0, NodeId(1), 1, vec![reading(1, 0, 1.0, 1)]).encode();
        c.accept_arq(1, 1, old, &transport, &mut report);
        let replay = WireMessage::data(0, NodeId(1), 1, vec![reading(1, 0, 1.0, 1)]).encode();
        c.accept_arq(1, 1, replay, &transport, &mut report);
        assert_eq!(report.duplicate_messages_ignored, 1);
        let restarted = WireMessage::data(0, NodeId(1), 1, vec![reading(1, 0, 7.0, 5)])
            .with_incarnation(1)
            .encode();
        c.accept_arq(5, 5, restarted, &transport, &mut report);
        assert_eq!(
            report.duplicate_messages_ignored, 1,
            "restarted sender's seq 1 must not be treated as a replay"
        );
        c.drain_arq(5, &mut report);
        assert_eq!(c.observed(NodeId(1), AttrId(0)).unwrap().value, 7.0);
    }

    #[derive(Debug, Default)]
    struct NullTransport;

    impl Transport for NullTransport {
        fn send_data(&self, _: NodeId, _: Endpoint, _: u64, _: u64, _: Bytes) {}
        fn send_ack(&self, _: Endpoint, _: NodeId, _: u32, _: u64, _: u64) {}
        fn reliable(&self) -> bool {
            false
        }
    }
}
