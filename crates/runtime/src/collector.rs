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
//!
//! A reading is touched once per stage: intake decodes a frame's
//! records straight into the ingress queue (no intermediate message),
//! shedding picks all its victims in one pass, and the per-pair store
//! is a hash map ([`PairStore`]) — the per-value cost `a` of this hop
//! is a decode, a queue slot and one O(1) lookup.

use crate::proto::{parse_frame, FrameKind, WireReading};
use crate::throttle::TokenBucket;
use crate::transport::{Endpoint, IncarnationTracker, NetConfig, Transport};
use bytes::Bytes;
use remo_core::ids::IdMap;
use remo_core::{AttrCatalog, AttrId, AttrInfo, CostModel, NodeId};
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

impl EpochReport {
    /// Publishes this epoch's report into the process-wide metrics
    /// registry (no-op while observability is disabled); both runtimes
    /// call it once per closed epoch. Health transitions are counted at
    /// their source, [`crate::HealthMonitor::observe_reports`].
    pub fn export_metrics(&self) {
        if !remo_obs::enabled() {
            return;
        }
        let add = |name: &str, n: u64| remo_obs::counter(name).inc_by(n as f64);
        remo_obs::counter("remo_runtime_epochs_total").inc();
        add("remo_runtime_delivered_values_total", self.delivered_values);
        add("remo_runtime_dropped_messages_total", self.dropped_messages);
        add("remo_runtime_dropped_readings_total", self.dropped_readings);
        remo_obs::counter("remo_runtime_volume_cost_units_total").inc_by(self.volume);
        add("remo_runtime_values_lost_total", self.values_lost);
        add(
            "remo_runtime_reconfigure_messages_total",
            self.reconfigure_messages,
        );
    }
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

/// The per-pair snapshot store: freshest [`Observed`] per `(node,
/// attribute)`, O(1) per lookup under the id hasher
/// ([`remo_core::ids::IdHasher`]): `record` looks a pair up for every
/// delivered value. Iteration order is unspecified.
pub type PairStore = IdMap<(NodeId, AttrId), Observed>;

/// The collector's capacity-enforcing ingest state machine.
#[derive(Debug, Clone)]
pub struct CollectorCore {
    bucket: TokenBucket,
    cost: CostModel,
    net: NetConfig,
    catalog: AttrCatalog,
    store: PairStore,
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
            store: PairStore::default(),
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
        let Ok((_, readings)) = parse_frame(&frame) else {
            return;
        };
        let cost = self.cost.message_cost(readings.len() as f64);
        if !self.bucket.try_consume(cost) {
            report.dropped_messages += 1;
            report.dropped_readings += readings.len() as u64;
            return;
        }
        for r in readings {
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
        let Ok((header, readings)) = parse_frame(&frame) else {
            return;
        };
        if header.kind != FrameKind::Data {
            return;
        }
        // Replayed frame: re-ack (the first ack may have been lost)
        // and discard.
        if let Some(t) = self
            .seen
            .get(&header.from)
            .filter(|t| t.contains(header.incarnation, header.seq))
        {
            if remo_obs::enabled() && t.expired(header.incarnation, header.seq) {
                remo_obs::counter("remo_net_dedup_expired_total").inc();
            }
            transport.send_ack(
                Endpoint::Collector,
                header.from,
                header.incarnation,
                header.seq,
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
            header.from,
            header.incarnation,
            header.seq,
            epoch,
        );
        self.seen
            .entry(header.from)
            .or_default()
            .insert(header.incarnation, header.seq);
        // The fixed per-message overhead C is paid on arrival —
        // parsing a frame costs the collector whether or not its
        // readings are ever processed.
        self.bucket.charge(self.cost.per_message());
        self.ingress.extend(readings.map(|r| (r, sent_epoch)));
    }

    /// The seqs each root sender's dedup window holds as seen.
    pub(crate) fn dedup_tracked(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.seen.iter().map(|(&from, t)| (from, t.tracked()))
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
        let excess = self.ingress.len().saturating_sub(self.net.ingress_capacity);
        if excess > 0 {
            self.shed(excess);
            report.shed_readings += excess as u64;
            if remo_obs::enabled() {
                remo_obs::counter("remo_collector_shed_readings_total").inc_by(excess as f64);
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

    /// Removes the `excess` readings that rank lowest by (attribute
    /// frequency, producing epoch, queue position) in one pass — the
    /// ones taking the first minimum `excess` times over would take —
    /// and keeps the rest in queue order.
    fn shed(&mut self, excess: usize) {
        let mut rank: Vec<(f64, u64, usize)> = self
            .ingress
            .iter()
            .enumerate()
            .map(|(i, (r, _))| (self.frequency(r.attr), r.produced, i))
            .collect();
        let (victims, last, _) = rank.select_nth_unstable_by(excess - 1, |a, b| {
            (a.0.partial_cmp(&b.0))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        let mut shed = vec![false; self.ingress.len()];
        for &(_, _, i) in victims.iter().chain(std::iter::once(&*last)) {
            shed[i] = true;
        }
        let mut shed = shed.into_iter();
        self.ingress.retain(|_| shed.next() != Some(true));
    }

    /// An attribute's update frequency (an unregistered attribute's is
    /// [`AttrCatalog::get_or_default`]'s, without building its name).
    fn frequency(&self, attr: AttrId) -> f64 {
        match self.catalog.get(attr) {
            Some(info) => info.frequency(),
            None => AttrInfo::new(String::new()).frequency(),
        }
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
    pub fn store(&self) -> &PairStore {
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
    use crate::proto::WireMessage;
    use proptest::prelude::*;

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

    /// Shedding as it was: take the first minimum by (frequency,
    /// produced) and `VecDeque::remove` it, once per victim — O(k·n),
    /// two catalog clones per comparison. The reference
    /// `CollectorCore::shed` must agree with.
    fn shed_one_by_one(
        ingress: &mut VecDeque<(WireReading, u64)>,
        capacity: usize,
        catalog: &AttrCatalog,
    ) -> u64 {
        let mut shed = 0;
        while ingress.len() > capacity {
            let victim = ingress
                .iter()
                .enumerate()
                .min_by(|(_, (a, _)), (_, (b, _))| {
                    let fa = catalog.get_or_default(a.attr).frequency();
                    let fb = catalog.get_or_default(b.attr).frequency();
                    fa.partial_cmp(&fb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.produced.cmp(&b.produced))
                })
                .map(|(i, _)| i);
            let Some(i) = victim else { break };
            ingress.remove(i);
            shed += 1;
        }
        shed
    }

    /// A collector with `capacity` ingress slots, no budget to process
    /// anything (so a drain only sheds), attributes 0–2 registered at
    /// frequencies 1, ½ and ½ and every other attribute left to the
    /// catalog's default.
    fn shedding_core(capacity: usize) -> CollectorCore {
        let mut catalog = AttrCatalog::new();
        for f in [1.0, 0.5, 0.5] {
            catalog.register(AttrInfo::new("a").with_frequency(f).unwrap());
        }
        let net = NetConfig {
            ingress_capacity: capacity,
            ..NetConfig::default()
        };
        CollectorCore::new(0.0, CostModel::new(2.0, 1.0).unwrap(), net, catalog)
    }

    proptest! {
        /// One pass sheds the victims the one-by-one loop sheds and
        /// leaves the survivors in the same order, ties in frequency
        /// and in `produced` included.
        #[test]
        fn shed_matches_one_by_one_removal(
            queue in prop::collection::vec((0u32..5, 0u64..4), 0..80),
            capacity in 0usize..40,
        ) {
            let mut c = shedding_core(capacity);
            // Node and value number the queue positions, so equal
            // queues are equal position by position.
            c.ingress = queue
                .iter()
                .enumerate()
                .map(|(i, &(attr, produced))| (reading(i as u32, attr, i as f64, produced), 7))
                .collect();
            let mut expected = c.ingress.clone();
            let expected_shed = shed_one_by_one(&mut expected, capacity, &c.catalog);

            let mut report = EpochReport::default();
            c.drain_arq(9, &mut report);
            prop_assert_eq!(report.shed_readings, expected_shed);
            prop_assert_eq!(&c.ingress, &expected);
            prop_assert_eq!(report.ingress_depth, expected.len() as u64);
        }
    }

    #[test]
    fn shedding_eight_ninths_of_a_large_queue_is_one_pass() {
        // 32 768 victims out of 36 864: minutes one victim at a time.
        let (total, capacity) = (36_864u32, 4_096usize);
        let mut c = shedding_core(capacity);
        c.ingress = (0..total)
            .map(|i| (reading(i, i % 7, 0.0, u64::from(i % 11)), 0))
            .collect();
        let mut report = EpochReport::default();
        let started = std::time::Instant::now();
        c.drain_arq(1, &mut report);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "shedding took {:?}",
            started.elapsed()
        );
        assert_eq!(report.shed_readings, u64::from(total) - capacity as u64);
        assert_eq!(c.ingress_depth(), capacity);
        // Survivors are the highest-ranked readings, still in queue
        // order: every unit-frequency attribute (0 and 3–6) outranks
        // every half-frequency one (1, 2).
        let survivors: Vec<u32> = c.ingress.iter().map(|(r, _)| r.node.0).collect();
        assert!(survivors.is_sorted());
        assert!(c.ingress.iter().all(|(r, _)| ![1, 2].contains(&r.attr.0)));
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
