//! Pluggable message transports between agents and the collector.
//!
//! The deployment wires every agent's upstream traffic through a
//! [`Transport`]. Two implementations ship:
//!
//! - [`PerfectTransport`] — immediate, loss-free, in-order delivery
//!   over the same crossbeam channels the runtime has always used.
//!   This is the deterministic default that keeps the model checker
//!   and the failure-schedule suites honest, and it is bit-for-bit the
//!   pre-transport behavior.
//! - [`LossyTransport`] — a fault-injecting transport driven by a
//!   declarative [`NetSpec`]: per-link drop probability, uniform delay
//!   in epochs, duplication, reordering, named partition windows, and
//!   chaos-driven link outages. Every random decision is derived by
//!   hashing `(seed, from, to, seq, attempt)`, so outcomes are
//!   reproducible regardless of thread scheduling.
//!
//! On top of an unreliable transport the agents and the collector run
//! a per-hop ARQ protocol (sequence numbers, acks, timeout-based
//! retransmission with exponential backoff and a retry budget, and
//! idempotent receiver-side dedup via [`SeqTracker`]); see the
//! [`agent`](crate::agent) and [`deployment`](crate::deployment)
//! modules. [`Transport::reliable`] tells them whether that machinery
//! is needed at all.

use crate::agent::AgentMsg;
use bytes::Bytes;
use crossbeam::channel::Sender;
use remo_core::ids::IdMap;
use remo_core::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Where a frame is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// Another monitoring agent.
    Node(NodeId),
    /// The central collector.
    Collector,
}

/// Internal link-key tag for an endpoint ([`Endpoint::Collector`] maps
/// to `u32::MAX`, which is never a valid agent id in this runtime).
fn tag(to: Endpoint) -> u32 {
    match to {
        Endpoint::Node(n) => n.0,
        Endpoint::Collector => u32::MAX,
    }
}

// ----------------------------------------------------------------- NetSpec

/// Per-link drop-probability override.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Drop probability on this directed link (overrides
    /// [`NetSpec::drop`]).
    pub drop: f64,
}

/// A named partition window: while active, traffic crossing the
/// boundary between `members` and everyone else (the collector counts
/// as outside) is cut in both directions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionWindow {
    /// Human-readable name (surfaced in fault telemetry).
    pub name: String,
    /// Nodes inside the partition.
    pub members: BTreeSet<NodeId>,
    /// First epoch (inclusive) the partition is in effect.
    pub from_epoch: u64,
    /// Last epoch (inclusive), or `None` for permanent.
    pub until_epoch: Option<u64>,
}

impl PartitionWindow {
    fn active_at(&self, epoch: u64) -> bool {
        epoch >= self.from_epoch && self.until_epoch.is_none_or(|u| epoch <= u)
    }

    /// Whether a `from → to` frame crosses this partition's boundary.
    fn cuts(&self, from: NodeId, to: Endpoint, epoch: u64) -> bool {
        if !self.active_at(epoch) {
            return false;
        }
        let from_inside = self.members.contains(&from);
        let to_inside = match to {
            Endpoint::Node(n) => self.members.contains(&n),
            Endpoint::Collector => false,
        };
        from_inside != to_inside
    }
}

/// Declarative description of a lossy network.
///
/// All probabilities are per transmission attempt; retransmissions
/// draw fresh (but reproducible) outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetSpec {
    /// RNG seed for the hash-derived fault decisions.
    pub seed: u64,
    /// Default per-link drop probability.
    pub drop: f64,
    /// Per-link drop overrides.
    pub links: Vec<LinkSpec>,
    /// Uniform delivery delay in `0..=delay_max` epochs.
    pub delay_max: u64,
    /// Duplication probability (the copy is delivered with its own
    /// independent delay).
    pub dup: f64,
    /// Reordering probability: a reordered frame is held one extra
    /// epoch so later traffic overtakes it.
    pub reorder: f64,
    /// Named partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Epoch after which the random faults (drop/delay/dup/reorder)
    /// cease — the network "heals". Partition windows and chaos link
    /// outages keep their own schedules.
    pub active_until: Option<u64>,
}

impl Default for NetSpec {
    fn default() -> Self {
        NetSpec {
            seed: 0,
            drop: 0.0,
            links: Vec::new(),
            delay_max: 0,
            dup: 0.0,
            reorder: 0.0,
            partitions: Vec::new(),
            active_until: None,
        }
    }
}

impl NetSpec {
    /// Drop probability of the directed link `from → to`.
    pub fn drop_of(&self, from: NodeId, to: Endpoint) -> f64 {
        if let Endpoint::Node(n) = to {
            for l in &self.links {
                if l.from == from && l.to == n {
                    return l.drop;
                }
            }
        }
        self.drop
    }

    /// Whether the random faults apply at `epoch`.
    pub fn faults_active(&self, epoch: u64) -> bool {
        self.active_until.is_none_or(|u| epoch <= u)
    }
}

/// ARQ and collector-ingress tuning for deployments on an unreliable
/// transport.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Epochs before the first retransmission of an unacked frame;
    /// doubles per attempt (exponential backoff).
    pub base_rto: u64,
    /// Total transmission attempts per frame before it is abandoned
    /// (the retry budget).
    pub max_attempts: u32,
    /// Collector ingress queue capacity, in readings.
    pub ingress_capacity: usize,
    /// Queue fill fraction above which the collector widens the
    /// agents' effective reporting intervals (degrade level +1).
    pub high_watermark: f64,
    /// Queue fill fraction below which the degrade level steps back
    /// toward zero.
    pub low_watermark: f64,
    /// Maximum degrade level; the reporting-interval multiplier is
    /// `2^level`.
    pub max_degrade_level: u32,
    /// Record every reading delivered at the collector (test/diagnosis
    /// aid; unbounded memory — keep off in production).
    pub record_deliveries: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            base_rto: 2,
            max_attempts: 5,
            ingress_capacity: 4096,
            high_watermark: 0.75,
            low_watermark: 0.25,
            max_degrade_level: 3,
            record_deliveries: false,
        }
    }
}

/// Cap on the exponent of the exponential backoff: attempts beyond
/// `MAX_BACKOFF_SHIFT + 1` reuse the largest backoff instead of
/// overflowing the shift.
pub const MAX_BACKOFF_SHIFT: u32 = 32;

impl NetConfig {
    /// Backoff before retry number `attempts` (1-based transmission
    /// count): `base_rto · 2^(attempts-1)`, shift-capped — the ARQ
    /// retransmit schedule in closed form. `attempts == 0` is treated
    /// as the first attempt.
    pub fn backoff(&self, attempts: u32) -> u64 {
        let shift = attempts.saturating_sub(1).min(MAX_BACKOFF_SHIFT);
        self.base_rto.saturating_mul(1u64 << shift).max(1)
    }

    /// Epoch offset (from the original send) of the **last**
    /// transmission attempt: the geometric series
    /// `Σ_{i=0}^{A-2} base_rto·2^i = base_rto·(2^(A-1) − 1)` for a
    /// retry budget of `A = max_attempts` transmissions. Zero when the
    /// budget allows a single attempt.
    pub fn last_attempt_offset(&self) -> u64 {
        let mut offset = 0u64;
        for attempt in 1..self.max_attempts {
            offset = offset.saturating_add(self.backoff(attempt));
        }
        offset
    }

    /// Epochs a frame can stay in flight before it is delivered or
    /// abandoned: the last attempt's offset plus one epoch for the
    /// final transmission itself.
    pub fn retry_window(&self) -> u64 {
        self.last_attempt_offset().saturating_add(1)
    }

    /// The reporting-interval multiplier at a degrade level:
    /// `2^level`, shift-capped.
    pub fn degrade_factor_at(level: u32) -> u64 {
        1u64 << level.min(MAX_BACKOFF_SHIFT)
    }

    /// The largest reporting-interval multiplier backpressure can
    /// impose under this configuration.
    pub fn max_degrade_factor(&self) -> u64 {
        Self::degrade_factor_at(self.max_degrade_level)
    }

    /// Probability that a frame facing per-attempt drop probability
    /// `drop` is delivered within the retry budget: the complement of
    /// all `max_attempts` independent attempts failing,
    /// `1 − drop^A`. Purely informational — the worst-case bounds do
    /// not depend on it — but it quantifies how much of the budget a
    /// given `NetSpec` consumes.
    pub fn delivery_probability(&self, drop: f64) -> f64 {
        let p = drop.clamp(0.0, 1.0);
        1.0 - p.powi(self.max_attempts.max(1) as i32)
    }
}

// ----------------------------------------------------------------- stats

/// Fault-injection and delivery counters of a transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TransportStats {
    /// Data frames handed to the transport.
    pub data_sent: u64,
    /// Acks handed to the transport.
    pub acks_sent: u64,
    /// Frames dropped by the random loss process.
    pub dropped_random: u64,
    /// Frames dropped on a chaos-injected down link.
    pub dropped_link_down: u64,
    /// Frames cut by an active partition window.
    pub dropped_partition: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
    /// Frames held for later delivery (delay or reorder).
    pub delayed: u64,
    /// Frames actually delivered to a receiver.
    pub delivered: u64,
}

impl TransportStats {
    /// Every frame the transport refused to carry.
    pub fn total_dropped(&self) -> u64 {
        self.dropped_random + self.dropped_link_down + self.dropped_partition
    }
}

// ----------------------------------------------------------------- trait

/// Carries encoded wire frames between agents and up to the collector.
///
/// Sends never block and never report failure to the caller: loss is a
/// property of the network, and reliability is the ARQ layer's job.
pub trait Transport: Send + Sync + std::fmt::Debug {
    /// Carries a data frame from `from` toward `to`, sent during
    /// `epoch`. `seq` is the sender's sequence number (already encoded
    /// in the frame; passed separately so the transport can derive
    /// per-attempt randomness without decoding).
    fn send_data(&self, from: NodeId, to: Endpoint, seq: u64, epoch: u64, frame: Bytes);

    /// Carries an ack for `seq` from `from` back to `to`.
    /// `incarnation` echoes the acked data frame's sender incarnation,
    /// so a restarted sender never credits an ack earned by its
    /// previous life.
    fn send_ack(&self, from: Endpoint, to: NodeId, incarnation: u32, seq: u64, epoch: u64);

    /// Whether delivery is loss-free, exactly-once, and prompt. A
    /// reliable transport lets agents skip the ARQ machinery entirely,
    /// which keeps the perfect path byte-identical to the
    /// pre-transport runtime.
    fn reliable(&self) -> bool;

    /// Releases any held frames whose delivery epoch has arrived.
    /// Called by the coordinator at the start of every epoch, before
    /// ticks go out.
    fn advance(&self, _epoch: u64) {}

    /// Forces a directed link up or down (chaos injection). Returns
    /// `false` when this transport cannot model link faults.
    fn set_link_down(&self, _from: NodeId, _to: NodeId, _down: bool) -> bool {
        false
    }

    /// Snapshot of the fault counters.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

// ----------------------------------------------------------------- perfect

/// Immediate, loss-free channel delivery — the deterministic default.
/// The only fault it models is a scripted link outage
/// ([`Transport::set_link_down`]): a node→node frame sent over a down
/// link is dropped and counted, nothing is retried.
pub struct PerfectTransport {
    peers: Arc<BTreeMap<NodeId, Sender<AgentMsg>>>,
    collector: Sender<(u64, Bytes)>,
    /// Down links (directed) and the frames dropped on them.
    outages: Mutex<(BTreeSet<(NodeId, NodeId)>, u64)>,
}

impl std::fmt::Debug for PerfectTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerfectTransport")
            .field("peers", &self.peers.len())
            .finish()
    }
}

impl PerfectTransport {
    /// Wraps the deployment's channels.
    pub fn new(
        peers: Arc<BTreeMap<NodeId, Sender<AgentMsg>>>,
        collector: Sender<(u64, Bytes)>,
    ) -> Self {
        PerfectTransport {
            peers,
            collector,
            outages: Mutex::default(),
        }
    }
}

impl Transport for PerfectTransport {
    fn send_data(&self, from: NodeId, to: Endpoint, _seq: u64, epoch: u64, frame: Bytes) {
        match to {
            Endpoint::Collector => {
                let _ = self.collector.send((epoch, frame));
            }
            Endpoint::Node(n) => {
                let mut outages = self.outages.lock().unwrap_or_else(|e| e.into_inner());
                if outages.0.contains(&(from, n)) {
                    outages.1 += 1;
                } else if let Some(tx) = self.peers.get(&n) {
                    let _ = tx.send(AgentMsg::Data {
                        sent_epoch: epoch,
                        frame,
                    });
                }
            }
        }
    }

    fn send_ack(&self, _from: Endpoint, to: NodeId, incarnation: u32, seq: u64, _epoch: u64) {
        if let Some(tx) = self.peers.get(&to) {
            let _ = tx.send(AgentMsg::Ack { incarnation, seq });
        }
    }

    fn reliable(&self) -> bool {
        true
    }

    fn set_link_down(&self, from: NodeId, to: NodeId, down: bool) -> bool {
        let links = &mut self.outages.lock().unwrap_or_else(|e| e.into_inner()).0;
        if down {
            links.insert((from, to));
        } else {
            links.remove(&(from, to));
        }
        true
    }

    fn stats(&self) -> TransportStats {
        TransportStats {
            dropped_link_down: self.outages.lock().unwrap_or_else(|e| e.into_inner()).1,
            ..TransportStats::default()
        }
    }
}

// ----------------------------------------------------------------- lossy

/// A frame held for later delivery.
#[derive(Debug)]
enum Queued {
    Data {
        to: Endpoint,
        sent_epoch: u64,
        frame: Bytes,
    },
    Ack {
        to: NodeId,
        incarnation: u32,
        seq: u64,
    },
}

/// A frame's identity on the wire: `(from, to, seq, is_ack)`.
type FrameKey = (u32, u32, u64, bool);

/// Per-frame transmission counters, so retransmits of the same frame
/// draw fresh, still-reproducible outcomes — kept only as long as the
/// frame can still be retransmitted.
///
/// Two generations: a counter lives in `young` from its last use until
/// the next rotation, then in `old` until the one after, and moves back
/// to `young` whenever it is used. Rotations are at least `horizon`
/// epochs apart, so a counter survives at least `horizon` epochs of
/// silence and the whole structure holds at most the frames used in the
/// last `2·horizon` epochs — with no per-epoch sweep. A frame's
/// transmissions are never further apart than the ARQ's retry window
/// (data) or that plus the delivery delay (acks answering delayed
/// copies), which is what `horizon` is set to: a live frame's counter
/// is never forgotten, and no fault decision changes. Only a sender
/// that restarts and reuses sequence numbers after `horizon` epochs of
/// silence on them is counted from one again; those are new frames.
///
/// Nothing iterates either generation, so both hash under the id
/// hasher. An entry is one link and sequence number, `(from << 32 | to,
/// seq)`, holding the data frame's and the ack's counters side by side:
/// 24 bytes where the padded `FrameKey` and its counter took 32, which
/// keeps the two tables about as small as the ordered maps they
/// replaced.
#[derive(Debug, Default)]
struct AttemptLedger {
    young: IdMap<(u64, u64), [u32; 2]>,
    old: IdMap<(u64, u64), [u32; 2]>,
    /// Epoch of the last rotation.
    rotated: u64,
}

impl AttemptLedger {
    /// Counts one more transmission of `key` at `epoch`; returns its
    /// 1-based attempt number.
    fn next_attempt(&mut self, key: FrameKey, epoch: u64, horizon: u64) -> u32 {
        if epoch >= self.rotated.saturating_add(horizon) {
            std::mem::swap(&mut self.old, &mut self.young);
            self.young.clear();
            self.rotated = epoch;
        }
        let (from, to, seq, is_ack) = key;
        let slot = (u64::from(from) << 32 | u64::from(to), seq);
        let carried = self.old.remove(&slot).unwrap_or_default();
        let n = &mut self.young.entry(slot).or_insert(carried)[usize::from(is_ack)];
        *n += 1;
        *n
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.young.len() + self.old.len()
    }
}

#[derive(Debug, Default)]
struct LossyState {
    /// delivery epoch → held frames.
    delayed: BTreeMap<u64, Vec<Queued>>,
    attempts: AttemptLedger,
    /// Chaos-injected down links (directed).
    link_down: BTreeSet<(u32, u32)>,
    stats: TransportStats,
}

/// Fault-injecting transport driven by a [`NetSpec`].
pub struct LossyTransport {
    peers: Arc<BTreeMap<NodeId, Sender<AgentMsg>>>,
    collector: Sender<(u64, Bytes)>,
    spec: NetSpec,
    /// Epochs of silence after which a frame's attempt counter may be
    /// forgotten (see [`AttemptLedger`]).
    horizon: u64,
    state: Mutex<LossyState>,
}

impl std::fmt::Debug for LossyTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LossyTransport")
            .field("peers", &self.peers.len())
            .field("spec", &self.spec)
            .finish()
    }
}

/// SplitMix64: a tiny, high-quality bit mixer. Fault decisions hash
/// the send coordinates through it instead of drawing from a shared
/// mutable RNG stream, so outcomes do not depend on thread scheduling.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` for one (link, seq, attempt, salt)
/// coordinate.
fn unit(seed: u64, from: u32, to: u32, seq: u64, attempt: u32, salt: u64) -> f64 {
    let mut h = seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
    h = splitmix64(h ^ (u64::from(from) << 32 | u64::from(to)));
    h = splitmix64(h ^ seq);
    h = splitmix64(h ^ u64::from(attempt));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

const SALT_DROP: u64 = 1;
const SALT_DUP: u64 = 2;
const SALT_DELAY: u64 = 3;
const SALT_REORDER: u64 = 4;
const SALT_DELAY_COPY: u64 = 5;
const SALT_REORDER_COPY: u64 = 6;

/// The `(attempt, salt)` coordinate of the reorder draw for `copy` of
/// transmission `attempt`. Duplicates get their own salt domain at the
/// *same* attempt: deriving the copy's draw at `attempt + 1` instead
/// (as this code once did) aliases the genuine next retry's coordinate
/// for the same (link, seq), correlating outcomes the seeded-hash
/// design promises are independent.
fn reorder_coordinate(attempt: u32, copy: u32) -> (u32, u64) {
    if copy == 0 {
        (attempt, SALT_REORDER)
    } else {
        (attempt, SALT_REORDER_COPY)
    }
}

impl LossyTransport {
    /// Wraps the deployment's channels in a faulty network.
    /// `retry_window` is the senders' [`NetConfig::retry_window`]: how
    /// long the ARQ keeps retransmitting a frame, and so how long the
    /// transport must remember how often it has carried it.
    pub fn new(
        peers: Arc<BTreeMap<NodeId, Sender<AgentMsg>>>,
        collector: Sender<(u64, Bytes)>,
        spec: NetSpec,
        retry_window: u64,
    ) -> Self {
        // An ack answers a copy that may arrive `delay_max` epochs
        // after it was sent, one more when reordered.
        let horizon = retry_window
            .saturating_add(spec.delay_max)
            .saturating_add(2);
        LossyTransport {
            peers,
            collector,
            spec,
            horizon,
            state: Mutex::new(LossyState::default()),
        }
    }

    /// The network description this transport injects.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    fn deliver(&self, q: Queued, stats: &mut TransportStats) {
        match q {
            Queued::Data {
                to,
                sent_epoch,
                frame,
            } => match to {
                Endpoint::Collector => {
                    let _ = self.collector.send((sent_epoch, frame));
                    stats.delivered += 1;
                }
                Endpoint::Node(n) => {
                    if let Some(tx) = self.peers.get(&n) {
                        let _ = tx.send(AgentMsg::Data { sent_epoch, frame });
                        stats.delivered += 1;
                    }
                }
            },
            Queued::Ack {
                to,
                incarnation,
                seq,
            } => {
                if let Some(tx) = self.peers.get(&to) {
                    let _ = tx.send(AgentMsg::Ack { incarnation, seq });
                    stats.delivered += 1;
                }
            }
        }
    }

    /// The shared faulty path for data and acks. `from`/`to_tag` are
    /// link-key tags; `build` constructs the queued frame per copy.
    #[allow(clippy::too_many_arguments)]
    fn route(
        &self,
        from_node: NodeId,
        from_tag: u32,
        to: Endpoint,
        seq: u64,
        epoch: u64,
        is_ack: bool,
        make: impl Fn() -> Queued,
    ) {
        let to_tag = tag(to);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if is_ack {
            st.stats.acks_sent += 1;
        } else {
            st.stats.data_sent += 1;
        }

        // Structural faults apply on their own schedules, healed or not.
        if st.link_down.contains(&(from_tag, to_tag)) {
            st.stats.dropped_link_down += 1;
            if remo_obs::enabled() {
                remo_obs::counter("remo_net_dropped_frames_total").inc();
            }
            return;
        }
        if self
            .spec
            .partitions
            .iter()
            .any(|p| p.cuts(from_node, to, epoch))
        {
            st.stats.dropped_partition += 1;
            if remo_obs::enabled() {
                remo_obs::counter("remo_net_dropped_frames_total").inc();
            }
            return;
        }

        if !self.spec.faults_active(epoch) {
            let q = make();
            let stats = &mut st.stats;
            // Deliver inline while holding the lock: cheap, and keeps
            // the delivered counter consistent.
            self.deliver(q, stats);
            return;
        }

        let attempt =
            st.attempts
                .next_attempt((from_tag, to_tag, seq, is_ack), epoch, self.horizon);

        if unit(self.spec.seed, from_tag, to_tag, seq, attempt, SALT_DROP)
            < self.spec.drop_of(from_node, to)
        {
            st.stats.dropped_random += 1;
            if remo_obs::enabled() {
                remo_obs::counter("remo_net_dropped_frames_total").inc();
            }
            return;
        }

        let copies =
            if unit(self.spec.seed, from_tag, to_tag, seq, attempt, SALT_DUP) < self.spec.dup {
                st.stats.duplicated += 1;
                if remo_obs::enabled() {
                    remo_obs::counter("remo_net_duplicated_frames_total").inc();
                }
                2
            } else {
                1
            };

        for copy in 0..copies {
            let salt = if copy == 0 {
                SALT_DELAY
            } else {
                SALT_DELAY_COPY
            };
            let mut d = if self.spec.delay_max == 0 {
                0
            } else {
                (unit(self.spec.seed, from_tag, to_tag, seq, attempt, salt)
                    * (self.spec.delay_max + 1) as f64) as u64
            };
            let (reorder_attempt, reorder_salt) = reorder_coordinate(attempt, copy);
            if unit(
                self.spec.seed,
                from_tag,
                to_tag,
                seq,
                reorder_attempt,
                reorder_salt,
            ) < self.spec.reorder
            {
                d += 1;
            }
            let q = make();
            if d == 0 {
                let stats = &mut st.stats;
                self.deliver(q, stats);
            } else {
                st.stats.delayed += 1;
                if remo_obs::enabled() {
                    remo_obs::counter("remo_net_delayed_frames_total").inc();
                }
                st.delayed.entry(epoch + d).or_default().push(q);
            }
        }
    }
}

impl Transport for LossyTransport {
    fn send_data(&self, from: NodeId, to: Endpoint, seq: u64, epoch: u64, frame: Bytes) {
        self.route(from, from.0, to, seq, epoch, false, || Queued::Data {
            to,
            sent_epoch: epoch,
            frame: frame.clone(),
        });
    }

    fn send_ack(&self, from: Endpoint, to: NodeId, incarnation: u32, seq: u64, epoch: u64) {
        self.route(
            match from {
                Endpoint::Node(n) => n,
                // The collector is never inside a partition's member
                // set; use a sentinel node id for the link key.
                Endpoint::Collector => NodeId(u32::MAX),
            },
            tag(from),
            Endpoint::Node(to),
            seq,
            epoch,
            true,
            || Queued::Ack {
                to,
                incarnation,
                seq,
            },
        );
    }

    fn reliable(&self) -> bool {
        false
    }

    fn advance(&self, epoch: u64) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let due: Vec<u64> = st.delayed.range(..=epoch).map(|(&e, _)| e).collect();
        for e in due {
            if let Some(queued) = st.delayed.remove(&e) {
                for q in queued {
                    let stats = &mut st.stats;
                    self.deliver(q, stats);
                }
            }
        }
    }

    fn set_link_down(&self, from: NodeId, to: NodeId, down: bool) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if down {
            st.link_down.insert((from.0, to.0));
        } else {
            st.link_down.remove(&(from.0, to.0));
        }
        true
    }

    fn stats(&self) -> TransportStats {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).stats
    }
}

// ----------------------------------------------------------------- dedup

/// Width of every receiver's anti-replay window, in seqs. Each
/// sender's numbers share one counter across all its parents, so a
/// receiver sees a subsequence; the window keeps what it remembers of
/// one sender at `DEDUP_WINDOW` bits (512 B) whatever the plan. The
/// sender abandons an unacked frame once its seq falls this far behind
/// the next one it issues, so no frame it still retries is ever below a
/// window. Sized so that rule stays idle: sending `F` frames per epoch,
/// a frame normally lives `retry_window + delay_max + 2` epochs, and
/// `F` times that is far below 4 096 on every fleet this repository
/// runs (1 026 for ten attempts at one frame per epoch). That lifetime
/// is not a bound: a retry the token bucket cannot pay for is
/// postponed without spending an attempt, so under budget pressure a
/// frame can outlive its retry window and the sender rule, not the
/// budget, abandons it. The rule keeps dedup sound either way.
pub const DEDUP_WINDOW: u64 = 4096;

const WINDOW_WORDS: usize = (DEDUP_WINDOW / 64) as usize;

/// Idempotent receive-side dedup keyed on a sender's sequence numbers:
/// an anti-replay window (RFC 4303 §3.4.3). It keeps the highest seq
/// seen and a ring bitmap of the [`DEDUP_WINDOW`] seqs ending there;
/// a seq that far or farther below the top counts as seen. Its state is
/// the same `DEDUP_WINDOW / 8` bytes after one frame or a billion,
/// contiguous or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqTracker {
    top: u64,
    /// Bit `seq % DEDUP_WINDOW` is set iff `seq` in `(top − W, top]`
    /// has been seen.
    ring: [u64; WINDOW_WORDS],
}

impl Default for SeqTracker {
    fn default() -> Self {
        SeqTracker {
            top: 0,
            ring: [0; WINDOW_WORDS],
        }
    }
}

impl SeqTracker {
    fn slot(seq: u64) -> (usize, u64) {
        let i = (seq % DEDUP_WINDOW) as usize;
        (i / 64, 1 << (i % 64))
    }

    /// Records `seq`; returns `true` iff it was never seen before.
    pub fn insert(&mut self, seq: u64) -> bool {
        let (w, b) = Self::slot(seq);
        if seq > self.top {
            let gap = seq - self.top;
            if gap >= DEDUP_WINDOW {
                self.ring = [0; WINDOW_WORDS];
            } else {
                // The slots of the seqs the window slides over now
                // stand for seqs not yet seen.
                for s in self.top + 1..seq {
                    let (w, b) = Self::slot(s);
                    self.ring[w] &= !b;
                }
            }
            self.top = seq;
            self.ring[w] |= b;
            return true;
        }
        if self.expired(seq) {
            return false;
        }
        let fresh = self.ring[w] & b == 0;
        self.ring[w] |= b;
        fresh
    }

    /// Whether `seq` has been seen (or fell below the window).
    pub fn contains(&self, seq: u64) -> bool {
        if seq > self.top {
            return false;
        }
        let (w, b) = Self::slot(seq);
        self.expired(seq) || self.ring[w] & b != 0
    }

    /// Whether `seq` counts as seen only because it is
    /// [`DEDUP_WINDOW`] or more below the highest seq seen.
    pub fn expired(&self, seq: u64) -> bool {
        seq.saturating_add(DEDUP_WINDOW) <= self.top
    }

    /// The seqs inside the window that have been seen.
    pub fn tracked(&self) -> usize {
        self.ring.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// [`SeqTracker`] dedup that survives sender restarts: the sequence
/// window is scoped to the sender's incarnation. A frame from a
/// newer incarnation resets the window — the restarted sender's seqs
/// legitimately start over, and without the reset its fresh frames
/// would be taken for the old life's and silently swallowed. A
/// frame from an older incarnation is a stale replay from a previous
/// life and always counts as seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncarnationTracker {
    incarnation: u32,
    seqs: SeqTracker,
    /// Debug-build shadow of the dedup specification
    /// ([`crate::machine::DedupModel`]): the ring-bitmap window must
    /// agree with the explicit seen-set model on every call, or the
    /// disagreement is a spec violation caught at the exact call site.
    #[cfg(debug_assertions)]
    shadow: crate::machine::DedupModel,
}

impl IncarnationTracker {
    /// Records `(incarnation, seq)`; returns `true` iff never seen.
    pub fn insert(&mut self, incarnation: u32, seq: u64) -> bool {
        let fresh = self.insert_impl(incarnation, seq);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            fresh,
            self.shadow.insert(incarnation, seq),
            "IncarnationTracker::insert({incarnation}, {seq}) diverged from the spec model"
        );
        fresh
    }

    fn insert_impl(&mut self, incarnation: u32, seq: u64) -> bool {
        match incarnation.cmp(&self.incarnation) {
            std::cmp::Ordering::Greater => {
                self.incarnation = incarnation;
                self.seqs = SeqTracker::default();
            }
            std::cmp::Ordering::Less => return false,
            std::cmp::Ordering::Equal => {}
        }
        self.seqs.insert(seq)
    }

    /// Whether `(incarnation, seq)` has been seen. Frames from older
    /// incarnations always have; frames from newer ones never have.
    pub fn contains(&self, incarnation: u32, seq: u64) -> bool {
        let seen = match incarnation.cmp(&self.incarnation) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.seqs.contains(seq),
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            seen,
            self.shadow.contains(incarnation, seq),
            "IncarnationTracker::contains({incarnation}, {seq}) diverged from the spec model"
        );
        seen
    }

    /// Whether `(incarnation, seq)` counts as seen only because it fell
    /// below the current incarnation's window (see
    /// [`SeqTracker::expired`]).
    pub fn expired(&self, incarnation: u32, seq: u64) -> bool {
        incarnation == self.incarnation && self.seqs.expired(seq)
    }

    /// The seqs of the current incarnation the window holds as seen.
    pub fn tracked(&self) -> usize {
        self.seqs.tracked()
    }

    /// The newest sender incarnation observed.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn seq_tracker_dedups_and_compacts() {
        let mut t = SeqTracker::default();
        assert!(t.insert(1));
        assert!(t.insert(3));
        assert!(!t.insert(1), "replay below the top");
        assert!(!t.insert(3), "replay of the top");
        assert!(t.insert(2), "gap fill");
        assert_eq!(t.tracked(), 3);
        assert!(t.contains(2) && t.contains(3) && !t.contains(4));
        // A jump past the window forgets everything behind it; what
        // falls below counts as seen without being remembered.
        let far = 3 + DEDUP_WINDOW;
        assert!(t.insert(far));
        assert_eq!(t.tracked(), 1, "the window slid, the old bits cleared");
        assert!(t.expired(3) && !t.expired(4));
        assert!(!t.insert(3) && t.contains(2), "below the window: seen");
        assert!(t.insert(4), "the window's oldest slot is fresh");
        assert!(!t.insert(4));
    }

    /// The leak this window closed: a receiver that sees one seq in
    /// `k` of a sender's (a sender with several parents) used to keep
    /// one entry per frame forever. Over 10^5 frames, with replays and
    /// reorders inside the window, every call agrees with the spec's
    /// `DedupModel` and the state stays at what one window holds.
    #[test]
    fn a_gapped_stream_is_deduped_in_bounded_state() {
        const FRAMES: u64 = 100_000;
        for k in [1u64, 4, 12] {
            let mut t = IncarnationTracker::default();
            let mut model = crate::machine::DedupModel::new();
            let bound = ((DEDUP_WINDOW - 1) / k + 1) as usize;
            let mut check = |t: &mut IncarnationTracker, seq: u64| {
                let fresh = t.insert(0, seq);
                assert_eq!(fresh, model.insert(0, seq), "insert {seq}, 1 in {k}");
                assert_eq!(t.contains(0, seq), model.contains(0, seq));
                assert!(t.tracked() <= bound && model.tracked() <= bound);
                fresh
            };
            let mut fresh = 0u64;
            for i in 1..=FRAMES {
                // Each step delivers frame i before frame i − 1 (a
                // reorder), replays frame i − 8 (a duplicate inside the
                // window) and, now and then, a frame from long ago.
                let seq = |j: u64| j * k;
                if i % 2 == 0 {
                    fresh += u64::from(check(&mut t, seq(i)));
                    fresh += u64::from(check(&mut t, seq(i - 1)));
                }
                if i > 8 {
                    assert!(!check(&mut t, seq(i - 8)), "replay of {}", seq(i - 8));
                }
                if i % 1_000 == 0 {
                    assert!(!check(&mut t, seq(i / 2)), "ancient replay");
                }
            }
            assert_eq!(fresh, FRAMES, "every frame fresh exactly once");
            assert_eq!(t.tracked(), model.tracked());
            assert_eq!(t.tracked(), bound, "one window of a 1-in-{k} stream");
        }
    }

    #[test]
    fn incarnation_tracker_resets_on_restart_and_rejects_past_lives() {
        let mut t = IncarnationTracker::default();
        assert!(t.insert(0, 1));
        assert!(t.insert(0, 2));
        assert!(!t.insert(0, 1), "same-incarnation replay");
        // Restarted sender: seqs start over at 1 and must be fresh.
        assert!(t.insert(1, 1), "post-restart seq 1 swallowed");
        assert_eq!(t.incarnation(), 1);
        assert!(t.contains(1, 1) && !t.contains(1, 2));
        // A straggler from the previous life arrives late: stale.
        assert!(!t.insert(0, 3));
        assert!(t.contains(0, 3), "old incarnations always count seen");
        // Frames from a future incarnation are never pre-seen.
        assert!(!t.contains(2, 1));
    }

    /// Pre-fix, the duplicate copy of attempt `n` drew its reorder
    /// decision at `(attempt n+1, SALT_REORDER)` — byte-for-byte the
    /// genuine next retry's coordinate for the same (link, seq), so
    /// the two outcomes were perfectly correlated. The copy must draw
    /// from its own salt domain: equal draws across many coordinates
    /// would flag the aliasing (with the old
    /// `attempt.wrapping_add(copy)` derivation every single pair
    /// collides and this test fails).
    #[test]
    fn duplicate_reorder_draw_is_independent_of_later_retries() {
        let seed = 2026;
        for &(from, to) in &[(3u32, u32::MAX), (0, 1), (7, 2)] {
            for seq in 0..512u64 {
                for attempt in 1..4u32 {
                    let (a, s) = reorder_coordinate(attempt, 1);
                    let dup_draw = unit(seed, from, to, seq, a, s);
                    let retry_draw = unit(seed, from, to, seq, attempt + 1, SALT_REORDER);
                    assert_ne!(
                        dup_draw,
                        retry_draw,
                        "duplicate of attempt {attempt} aliases retry {} on \
                         ({from},{to},{seq})",
                        attempt + 1
                    );
                }
            }
        }
        // Determinism: the same coordinate always draws the same value,
        // and the primary copy's coordinate is unchanged by the fix.
        let (a, s) = reorder_coordinate(4, 1);
        assert_eq!(unit(7, 1, 2, 9, a, s), unit(7, 1, 2, 9, a, s));
        assert_eq!(reorder_coordinate(5, 0), (5, SALT_REORDER));
        assert_eq!(reorder_coordinate(5, 1), (5, SALT_REORDER_COPY));
    }

    /// Worst-case ARQ traffic through a lossy transport: every node
    /// sends a fresh frame to the collector and to its neighbour each
    /// epoch and retransmits each one on the full backoff schedule (as
    /// if never acked); every copy that arrives is acked. Returns the
    /// counters, everything that came out of the network in arrival
    /// order, and the number of attempt counters still held.
    fn arq_soak(
        retry_window: u64,
        net: NetConfig,
        fleet: u32,
        epochs: u64,
    ) -> (TransportStats, Vec<String>, usize) {
        let spec = NetSpec {
            seed: 11,
            drop: 0.25,
            delay_max: 2,
            dup: 0.1,
            reorder: 0.1,
            ..NetSpec::default()
        };
        let (collector_tx, collector_rx) = crossbeam::channel::unbounded();
        let mut peers = BTreeMap::new();
        let mut inboxes = Vec::new();
        for n in 0..fleet {
            let (tx, rx) = crossbeam::channel::unbounded();
            peers.insert(NodeId(n), tx);
            inboxes.push(rx);
        }
        let t = LossyTransport::new(Arc::new(peers), collector_tx, spec, retry_window);
        // A frame is its sender, on the wire as one byte.
        let frame = |from: u32| Bytes::from(vec![from as u8]);
        let mut due: BTreeMap<u64, Vec<(u32, Endpoint, u64)>> = BTreeMap::new();
        let mut log = Vec::new();
        for epoch in 0..epochs {
            t.advance(epoch);
            for from in 0..fleet {
                for to in [
                    Endpoint::Collector,
                    Endpoint::Node(NodeId((from + 1) % fleet)),
                ] {
                    let mut at = epoch;
                    due.entry(at).or_default().push((from, to, epoch + 1));
                    for attempt in 1..net.max_attempts {
                        at += net.backoff(attempt);
                        due.entry(at).or_default().push((from, to, epoch + 1));
                    }
                }
            }
            for (from, to, seq) in due.remove(&epoch).unwrap_or_default() {
                t.send_data(NodeId(from), to, seq, epoch, frame(from));
            }
            while let Ok((sent, f)) = collector_rx.try_recv() {
                log.push(format!("{epoch}: collector got {sent} from {}", f[0]));
                // The collector cannot see seqs; `sent` identifies the
                // copy's transmission well enough for an ack key.
                t.send_ack(Endpoint::Collector, NodeId(u32::from(f[0])), 0, sent, epoch);
            }
            for (me, inbox) in inboxes.iter().enumerate() {
                while let Ok(msg) = inbox.try_recv() {
                    match msg {
                        AgentMsg::Data { sent_epoch, frame } => {
                            log.push(format!("{epoch}: {me} got {sent_epoch} from {}", frame[0]));
                            t.send_ack(
                                Endpoint::Node(NodeId(me as u32)),
                                NodeId(u32::from(frame[0])),
                                0,
                                sent_epoch,
                                epoch,
                            );
                        }
                        AgentMsg::Ack { seq, .. } => log.push(format!("{epoch}: {me} acked {seq}")),
                        _ => {}
                    }
                }
            }
        }
        let held = t.state.lock().unwrap().attempts.len();
        (t.stats(), log, held)
    }

    /// Regression: the attempt counters used to be kept forever — one
    /// map entry per frame ever sent, 32 per epoch on the benchmark's
    /// lossy fleet. They must now be bounded by what the ARQ can still
    /// retransmit, and forgetting the rest must not move a single
    /// fault decision.
    #[test]
    fn attempt_counters_are_bounded_without_changing_a_fault_decision() {
        let net = NetConfig::default();
        let (fleet, epochs) = (8, 5_000);
        let (stats, log, held) = arq_soak(net.retry_window(), net, fleet, epochs);
        let (stats_forever, log_forever, held_forever) = arq_soak(u64::MAX, net, fleet, epochs);
        assert_eq!(stats, stats_forever);
        assert!(stats.dropped_random > 0 && stats.duplicated > 0 && stats.delayed > 0);
        assert_eq!(log.len(), log_forever.len());
        assert!(
            log == log_forever,
            "pruning changed what the network delivered"
        );
        // Two generations of `window + delay + 2` epochs; per epoch and
        // link (two per node) one new data key and an ack key for each
        // of its transmissions that arrives.
        let bound = 2
            * (net.retry_window() as usize + 4)
            * (2 * fleet as usize)
            * (1 + net.max_attempts as usize);
        assert!(held <= bound, "{held} counters held, bound {bound}");
        assert!(
            held_forever > 2 * fleet as usize * epochs as usize,
            "the unpruned reference must actually have grown ({held_forever})"
        );
    }

    #[test]
    fn unit_draw_is_deterministic_and_uniformish() {
        let a = unit(42, 1, 2, 7, 1, SALT_DROP);
        let b = unit(42, 1, 2, 7, 1, SALT_DROP);
        assert_eq!(a, b, "same coordinates, same draw");
        assert_ne!(
            a,
            unit(42, 1, 2, 7, 2, SALT_DROP),
            "fresh attempt, fresh draw"
        );
        let n = 4000;
        let mean: f64 = (0..n).map(|i| unit(9, 0, 1, i, 1, SALT_DROP)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from uniform");
    }

    #[test]
    fn backoff_closed_forms_match_the_retransmit_schedule() {
        let net = NetConfig::default(); // base_rto 2, 5 attempts
        assert_eq!(net.backoff(1), 2);
        assert_eq!(net.backoff(2), 4);
        assert_eq!(net.backoff(3), 8);
        assert_eq!(net.backoff(0), 2, "attempt 0 treated as the first");
        // Geometric series: 2·(2^(5-1) − 1) = 30.
        assert_eq!(net.last_attempt_offset(), 30);
        assert_eq!(net.retry_window(), 31);
        // Iterated schedule agrees with the closed form.
        let mut offset = 0u64;
        for attempt in 1..net.max_attempts {
            offset += net.backoff(attempt);
        }
        assert_eq!(offset, net.last_attempt_offset());
        // Single-attempt budget: no retries, zero offset.
        let one = NetConfig {
            max_attempts: 1,
            ..NetConfig::default()
        };
        assert_eq!(one.last_attempt_offset(), 0);
        assert_eq!(one.retry_window(), 1);
        // Shift cap: huge attempt counts saturate instead of
        // overflowing.
        assert_eq!(
            net.backoff(200),
            2u64.saturating_mul(1 << MAX_BACKOFF_SHIFT)
        );
        // Zero base_rto still advances the retry clock.
        let zero = NetConfig {
            base_rto: 0,
            ..NetConfig::default()
        };
        assert_eq!(zero.backoff(3), 1);
    }

    #[test]
    fn degrade_factor_and_delivery_probability() {
        assert_eq!(NetConfig::degrade_factor_at(0), 1);
        assert_eq!(NetConfig::degrade_factor_at(3), 8);
        assert_eq!(NetConfig::default().max_degrade_factor(), 8);
        let net = NetConfig::default();
        assert_eq!(net.delivery_probability(0.0), 1.0);
        assert!((net.delivery_probability(0.5) - (1.0 - 0.5f64.powi(5))).abs() < 1e-12);
        assert_eq!(net.delivery_probability(1.0), 0.0);
        assert_eq!(net.delivery_probability(7.0), 0.0, "clamped");
    }

    #[test]
    fn partition_cuts_boundary_both_ways_within_window() {
        let p = PartitionWindow {
            name: "west".into(),
            members: [NodeId(1), NodeId(2)].into_iter().collect(),
            from_epoch: 10,
            until_epoch: Some(20),
        };
        // inside → outside, inside → collector: cut.
        assert!(p.cuts(NodeId(1), Endpoint::Node(NodeId(5)), 15));
        assert!(p.cuts(NodeId(1), Endpoint::Collector, 10));
        // outside → inside: cut. inside → inside: flows.
        assert!(p.cuts(NodeId(5), Endpoint::Node(NodeId(2)), 20));
        assert!(!p.cuts(NodeId(1), Endpoint::Node(NodeId(2)), 15));
        // outside the window: flows.
        assert!(!p.cuts(NodeId(1), Endpoint::Collector, 9));
        assert!(!p.cuts(NodeId(1), Endpoint::Collector, 21));
    }

    #[test]
    fn netspec_serde_roundtrip() {
        let spec = NetSpec {
            seed: 7,
            drop: 0.05,
            links: vec![LinkSpec {
                from: NodeId(1),
                to: NodeId(2),
                drop: 0.5,
            }],
            delay_max: 2,
            dup: 0.01,
            reorder: 0.1,
            partitions: vec![PartitionWindow {
                name: "west".into(),
                members: [NodeId(1)].into_iter().collect(),
                from_epoch: 5,
                until_epoch: None,
            }],
            active_until: Some(100),
        };
        let v = serde::Serialize::serialize(&spec);
        let back: NetSpec = serde::Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, spec);
    }
}
