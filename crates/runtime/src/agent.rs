//! Node agents: one state machine per monitoring node, a plain
//! function of the messages it is given ([`Agent::handle`]). Nothing
//! here starts a thread: the in-process `Deployment` steps every agent
//! on its caller's thread, a `remo-node` process steps its one agent on
//! the thread that owns the socket.
//!
//! Agents run in coordinator-driven lockstep: each `Tick(e)` starts
//! epoch `e`, on which the agent refills its token bucket, samples its
//! local attributes, folds in traffic received from children during
//! epoch `e − 1`, applies in-network aggregation, and forwards one
//! message per tree upstream — exactly the per-epoch behavior the
//! planner budgets for.
//!
//! Per reading the relay does no more than move it: a child's frame
//! is decoded record by record into the tree's buffer, a tick gathers
//! what is due into one reused vector, one stable sort by attribute
//! lines up the runs `fold_aggregates` copies or folds, and the frame
//! is encoded from that slice into one pre-sized buffer. What a tick
//! allocates is per frame sent, never per reading or per attribute
//! (`tests/alloc_budget.rs`).
//!
//! All upstream traffic goes through a [`Transport`]. On a reliable
//! transport (the deterministic default) the agent behaves exactly as
//! it always has. On an unreliable one it runs an ARQ layer: every
//! data frame carries a sequence number, receivers ack and
//! deduplicate (via [`SeqTracker`](crate::transport::SeqTracker)'s
//! anti-replay window), and unacked frames are retransmitted on an
//! exponential-backoff timer until a retry budget runs out or the
//! frame falls [`DEDUP_WINDOW`] seqs behind the next one issued.

use crate::proto::{encode_frame, parse_frame, FrameKind, WireReading};
use crate::throttle::TokenBucket;
use crate::transport::{Endpoint, IncarnationTracker, NetConfig, Transport, DEDUP_WINDOW};
use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use remo_core::{Aggregation, AttrId, CostModel, NodeId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Produces the locally observed value of `(node, attr)` at an epoch.
pub type Sampler = Arc<dyn Fn(NodeId, AttrId, u64) -> f64 + Send + Sync>;

/// Where an agent forwards a tree's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// This agent is the tree's root; traffic goes to the collector.
    Collector,
    /// Forward to another agent.
    Node(NodeId),
}

impl Route {
    fn endpoint(self) -> Endpoint {
        match self {
            Route::Collector => Endpoint::Collector,
            Route::Node(n) => Endpoint::Node(n),
        }
    }
}

/// One attribute an agent samples locally for a tree.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalAttr {
    /// The attribute.
    pub attr: AttrId,
    /// Sampling period in epochs (1 = every epoch).
    pub period: u64,
    /// In-network aggregation applied at relay points.
    pub aggregation: Aggregation,
}

/// An agent's role within one monitoring tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeAssignment {
    /// Tree index in the deployed forest.
    pub tree: u32,
    /// Upstream route.
    pub parent: Route,
    /// Locally sampled attributes.
    pub local: Vec<LocalAttr>,
    /// Aggregation kinds for attributes this agent may relay (keyed by
    /// attribute; holistic if absent).
    pub relay_aggregation: BTreeMap<AttrId, Aggregation>,
}

/// Messages an agent can receive.
#[derive(Debug)]
pub enum AgentMsg {
    /// A monitoring frame from a child, tagged with the epoch it was
    /// sent in (transport metadata, not part of the frame).
    Data {
        /// Sender's epoch.
        sent_epoch: u64,
        /// Encoded [`WireMessage`](crate::proto::WireMessage).
        frame: Bytes,
    },
    /// The upstream receiver acknowledged this agent's data frame
    /// `seq` (ARQ; only seen on unreliable transports).
    Ack {
        /// Sender incarnation the ack was earned under (echoed from
        /// the data frame; an ack for another incarnation is stale).
        incarnation: u32,
        /// Acknowledged sequence number.
        seq: u64,
    },
    /// Start of an epoch.
    Tick {
        /// The epoch now beginning.
        epoch: u64,
    },
    /// Replace this agent's tree assignments (topology adaptation).
    Reconfigure {
        /// New assignments (full replacement).
        assignments: Vec<TreeAssignment>,
    },
    /// Collector backpressure: multiply every local sampling period by
    /// `factor` (1 = no degradation). Widening the effective reporting
    /// interval sheds load at the source, per the paper's cost model.
    SetDegrade {
        /// Period multiplier (a power of two in practice).
        factor: u64,
    },
    /// Crash or heal the agent (failure injection): a failed agent
    /// drops all data traffic and goes silent — it stops acknowledging
    /// ticks, so the coordinator's failure detector observes the
    /// misses and can confirm the crash.
    SetFailed(bool),
    /// Stop: [`Agent::run`] returns.
    Shutdown,
}

/// Per-epoch activity report sent back to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TickReport {
    /// Reporting node.
    pub node: NodeId,
    /// Epoch covered.
    pub epoch: u64,
    /// Messages sent upstream (first transmissions).
    pub sent_messages: u32,
    /// Readings sent upstream.
    pub sent_readings: u32,
    /// Messages dropped on the receive side (budget exhausted).
    pub dropped_messages: u32,
    /// Readings lost (receive drops + send-side trimming + abandoned
    /// retransmissions).
    pub dropped_readings: u32,
    /// Cost-units of traffic this agent paid for this epoch.
    pub volume: f64,
    /// ARQ retransmissions sent this epoch.
    pub retransmits: u32,
    /// Duplicate data frames ignored by receive-side dedup.
    pub dup_ignored: u32,
    /// Frames abandoned after the retry budget ran out or below the
    /// receivers' dedup window.
    pub abandoned: u32,
}

/// A data frame awaiting its ack.
#[derive(Debug)]
struct Unacked {
    to: Endpoint,
    tree: u32,
    frame: Bytes,
    readings: u32,
    /// Transmissions so far (the initial send counts as 1).
    attempts: u32,
    /// Epoch at which the next retransmission is due.
    next_retry: u64,
}

/// The agent state machine, stepped by whoever owns it
/// ([`Agent::handle`]).
pub struct Agent {
    id: NodeId,
    inbox: Receiver<AgentMsg>,
    transport: Arc<dyn Transport>,
    reports: Sender<TickReport>,
    bucket: TokenBucket,
    cost: CostModel,
    net: NetConfig,
    /// ARQ engaged (transport is unreliable).
    arq: bool,
    sampler: Sampler,
    assignments: Vec<TreeAssignment>,
    /// Buffered readings per tree: `(sent_epoch, reading)`, decoded
    /// straight out of the child's frame.
    buffers: BTreeMap<u32, Vec<(u64, WireReading)>>,
    /// The readings one tree forwards this tick, before and after the
    /// fold; both are emptied and reused, tree after tree, tick after
    /// tick, so a tick allocates for the frames it sends and nothing
    /// per reading.
    gathered: Vec<WireReading>,
    outgoing: Vec<WireReading>,
    /// This process's incarnation, stamped on every outgoing frame.
    /// In-process agents never restart and stay at 0; distributed
    /// node processes get a fresh (higher) incarnation per restart.
    incarnation: u32,
    /// Sequence counter for outgoing data frames (monotone across
    /// crashes so fresh frames are never mistaken for replays); only
    /// [`Agent::issue_seq`] advances it.
    next_seq: u64,
    /// Sent-but-unacked data frames, by seq.
    unacked: BTreeMap<u64, Unacked>,
    /// Receive-side dedup state per child sender, incarnation-scoped
    /// so a restarted child's seqs starting over are not swallowed.
    seen: BTreeMap<NodeId, IncarnationTracker>,
    /// Sampling-period multiplier pushed by collector backpressure.
    degrade: u64,
    epoch: u64,
    failed: bool,
    /// Receive-side drops accumulated since the last tick report.
    drop_messages: u32,
    drop_readings: u32,
    dup_ignored: u32,
}

impl std::fmt::Debug for Agent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Agent")
            .field("id", &self.id)
            .field("epoch", &self.epoch)
            .field("assignments", &self.assignments.len())
            .field("arq", &self.arq)
            .finish()
    }
}

impl Agent {
    /// Creates an agent; it does nothing until it is stepped.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: NodeId,
        inbox: Receiver<AgentMsg>,
        transport: Arc<dyn Transport>,
        reports: Sender<TickReport>,
        capacity: f64,
        cost: CostModel,
        net: NetConfig,
        sampler: Sampler,
        assignments: Vec<TreeAssignment>,
    ) -> Self {
        let arq = !transport.reliable();
        Agent {
            id,
            inbox,
            transport,
            reports,
            bucket: TokenBucket::new(capacity),
            cost,
            net,
            arq,
            sampler,
            assignments,
            buffers: BTreeMap::new(),
            gathered: Vec::new(),
            outgoing: Vec::new(),
            incarnation: 0,
            next_seq: 0,
            unacked: BTreeMap::new(),
            seen: BTreeMap::new(),
            degrade: 1,
            epoch: 0,
            failed: false,
            drop_messages: 0,
            drop_readings: 0,
            dup_ignored: 0,
        }
    }

    /// Sets the process incarnation stamped on outgoing frames (a
    /// restarted node process must use a higher incarnation than its
    /// previous life; in-process deployments keep the default 0).
    pub fn with_incarnation(mut self, incarnation: u32) -> Self {
        self.incarnation = incarnation;
        self
    }

    /// Processes messages until shutdown.
    pub fn run(mut self) {
        while let Ok(msg) = self.inbox.recv() {
            if !self.handle(msg) {
                break;
            }
        }
    }

    /// Handles every message already in the inbox, without waiting for
    /// more; whether there was one.
    pub(crate) fn run_ready(&mut self) -> bool {
        let mut ran = false;
        while let Ok(msg) = self.inbox.try_recv() {
            ran = true;
            self.handle(msg);
        }
        ran
    }

    /// Applies one message; `false` once the agent was told to shut
    /// down. [`Agent::run`] is this in a loop over the inbox; a caller
    /// that owns the agent's thread (a `remo-node` process) calls it
    /// directly and never touches the inbox.
    pub fn handle(&mut self, msg: AgentMsg) -> bool {
        match msg {
            AgentMsg::Shutdown => return false,
            AgentMsg::Reconfigure { assignments } => {
                // Buffers and in-flight frames of trees we no
                // longer serve are dropped.
                let live: Vec<u32> = assignments.iter().map(|a| a.tree).collect();
                self.buffers.retain(|tree, _| live.contains(tree));
                self.unacked.retain(|_, u| live.contains(&u.tree));
                self.assignments = assignments;
            }
            AgentMsg::SetDegrade { factor } => {
                self.degrade = factor.max(1);
            }
            AgentMsg::SetFailed(failed) => {
                self.failed = failed;
                if failed {
                    // A crashed process loses its volatile state:
                    // buffers, retransmit queue, and dedup window.
                    // `next_seq` survives (monotone identity), so
                    // post-recovery frames are never taken for
                    // replays upstream.
                    self.buffers.clear();
                    self.unacked.clear();
                    self.seen.clear();
                }
            }
            AgentMsg::Data { sent_epoch, frame } => self.on_data(sent_epoch, frame),
            AgentMsg::Ack { incarnation, seq } => {
                // An ack earned under another incarnation says
                // nothing about this life's frames.
                if !self.failed && incarnation == self.incarnation {
                    self.unacked.remove(&seq);
                }
            }
            AgentMsg::Tick { epoch } => self.on_tick(epoch),
        }
        true
    }

    fn on_data(&mut self, sent_epoch: u64, frame: Bytes) {
        let Ok((header, readings)) = parse_frame(&frame) else {
            return; // corrupt frames are silently dropped
        };
        if self.failed {
            self.pending_drop(readings.len() as u32);
            return;
        }
        if header.kind != FrameKind::Data {
            return; // acks arrive as AgentMsg::Ack, not as frames
        }
        if self.arq {
            // Replay? Re-ack (the first ack may have been lost) and
            // discard — dedup keeps duplicates out of the buffers.
            if let Some(t) = self
                .seen
                .get(&header.from)
                .filter(|t| t.contains(header.incarnation, header.seq))
            {
                if remo_obs::enabled() && t.expired(header.incarnation, header.seq) {
                    remo_obs::counter("remo_net_dedup_expired_total").inc();
                }
                self.transport.send_ack(
                    Endpoint::Node(self.id),
                    header.from,
                    header.incarnation,
                    header.seq,
                    self.epoch,
                );
                self.dup_ignored += 1;
                return;
            }
        }
        let cost = self.cost.message_cost(readings.len() as f64);
        if !self.bucket.try_consume(cost) {
            // Receive-side drop; reported with the next tick. No ack:
            // on an unreliable transport the sender will retry once
            // budget pressure eases.
            self.pending_drop(readings.len() as u32);
            return;
        }
        if self.arq {
            self.transport.send_ack(
                Endpoint::Node(self.id),
                header.from,
                header.incarnation,
                header.seq,
                self.epoch,
            );
            self.seen
                .entry(header.from)
                .or_default()
                .insert(header.incarnation, header.seq);
        }
        self.buffers
            .entry(header.tree)
            .or_default()
            .extend(readings.map(|r| (sent_epoch, r)));
    }

    // Receive-side drops accumulate between ticks.
    fn pending_drop(&mut self, readings: u32) {
        self.drop_readings += readings;
        self.drop_messages += 1;
    }

    /// Retransmits overdue unacked frames, abandoning those whose
    /// retry budget ran out. Runs before new sends so retransmissions
    /// get first claim on the epoch's budget.
    fn retransmit_pass(&mut self, epoch: u64, report: &mut TickReport) {
        let due: Vec<u64> = self
            .unacked
            .iter()
            .filter(|(_, u)| u.next_retry <= epoch)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in due {
            let Some(u) = self.unacked.get_mut(&seq) else {
                continue;
            };
            if u.attempts >= self.net.max_attempts {
                report.abandoned += 1;
                report.dropped_readings += u.readings;
                if remo_obs::enabled() {
                    remo_obs::counter("remo_net_abandoned_frames_total").inc();
                }
                self.unacked.remove(&seq);
                continue;
            }
            let cost = self.cost.message_cost(u.readings as f64);
            if !self.bucket.try_consume(cost) {
                // Budget exhausted: postpone rather than abandon.
                u.next_retry = epoch + 1;
                continue;
            }
            u.attempts += 1;
            // Exponential backoff: base_rto, 2·base_rto, 4·base_rto…
            // (the closed form `NetConfig::backoff` the static
            // analyzer sums into its staleness bound).
            u.next_retry = epoch + self.net.backoff(u.attempts);
            report.retransmits += 1;
            report.volume += cost;
            if remo_obs::enabled() {
                remo_obs::counter("remo_net_retransmits_total").inc();
            }
            self.transport
                .send_data(self.id, u.to, seq, epoch, u.frame.clone());
        }
    }

    /// Issues the next data-frame seq. First it abandons every unacked
    /// frame at or below `seq − DEDUP_WINDOW`, counted like a spent
    /// retry budget: a receiver's window ends at most that far below
    /// the highest seq it has seen, so no frame the sender still
    /// retries can ever arrive below one and be taken for a replay.
    /// The only place `next_seq` moves.
    fn issue_seq(&mut self, report: &mut TickReport) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        let floor = seq.saturating_sub(DEDUP_WINDOW);
        while let Some(oldest) = self.unacked.first_entry().filter(|e| *e.key() <= floor) {
            report.abandoned += 1;
            report.dropped_readings += oldest.remove().readings;
            if remo_obs::enabled() {
                remo_obs::counter("remo_net_abandoned_frames_total").inc();
                remo_obs::counter("remo_net_window_abandoned_total").inc();
            }
        }
        seq
    }

    /// The seqs each child sender's dedup window holds as seen.
    pub(crate) fn dedup_tracked(&self) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        self.seen.iter().map(|(&from, t)| (from, t.tracked()))
    }

    fn on_tick(&mut self, epoch: u64) {
        self.epoch = epoch;
        if self.failed {
            // Crashed: produce nothing and stay silent. The missing
            // report is the failure signal; receive-side drop counters
            // keep accumulating and surface with the first report
            // after healing.
            return;
        }
        self.bucket.refill();
        let mut report = TickReport {
            node: self.id,
            epoch,
            dropped_messages: std::mem::take(&mut self.drop_messages),
            dropped_readings: std::mem::take(&mut self.drop_readings),
            dup_ignored: std::mem::take(&mut self.dup_ignored),
            ..TickReport::default()
        };

        if self.arq {
            self.retransmit_pass(epoch, &mut report);
        }

        // Taken out for the loop so the body can borrow the rest of
        // `self` mutably; nothing in it reads them.
        let assignments = std::mem::take(&mut self.assignments);
        let mut gathered = std::mem::take(&mut self.gathered);
        let mut readings = std::mem::take(&mut self.outgoing);
        for a in &assignments {
            gathered.clear();
            for la in &a.local {
                let period = la.period.max(1).saturating_mul(self.degrade);
                if !epoch.is_multiple_of(period) {
                    continue;
                }
                gathered.push(WireReading {
                    node: self.id,
                    attr: la.attr,
                    value: (self.sampler)(self.id, la.attr, epoch),
                    produced: epoch,
                    contributors: 1,
                });
            }
            // Forward child traffic sent strictly before this epoch.
            if let Some(buf) = self.buffers.get_mut(&a.tree) {
                buf.retain(|&(sent, r)| {
                    let forward = sent < epoch;
                    if forward {
                        gathered.push(r);
                    }
                    !forward
                });
            }
            if gathered.is_empty() {
                continue;
            }
            readings.clear();
            fold_aggregates(self.id, &mut gathered, a, &mut readings);

            // Send-side budget enforcement (oldest trimmed first).
            let full = self.cost.message_cost(readings.len() as f64);
            if !self.bucket.try_consume(full) {
                let affordable = ((self.bucket.available() - self.cost.per_message())
                    / self.cost.per_value())
                .floor();
                if affordable < 1.0 {
                    report.dropped_readings += readings.len() as u32;
                    continue;
                }
                readings.sort_by_key(|r| std::cmp::Reverse(r.produced));
                let keep = (affordable as usize).min(readings.len());
                report.dropped_readings += (readings.len() - keep) as u32;
                readings.truncate(keep);
                let cost = self.cost.message_cost(readings.len() as f64);
                let ok = self.bucket.try_consume(cost);
                debug_assert!(ok, "trimmed message must fit");
            }

            let seq = self.issue_seq(&mut report);
            report.sent_messages += 1;
            report.sent_readings += readings.len() as u32;
            report.volume += self.cost.message_cost(readings.len() as f64);
            let frame = encode_frame(
                FrameKind::Data,
                a.tree,
                self.id,
                self.incarnation,
                seq,
                &readings,
            );
            let to = a.parent.endpoint();
            if self.arq {
                self.unacked.insert(
                    seq,
                    Unacked {
                        to,
                        tree: a.tree,
                        frame: frame.clone(),
                        readings: readings.len() as u32,
                        attempts: 1,
                        next_retry: epoch + self.net.backoff(1),
                    },
                );
            }
            self.transport.send_data(self.id, to, seq, epoch, frame);
        }
        self.gathered = gathered;
        self.outgoing = readings;
        self.assignments = assignments;
        let _ = self.reports.send(report);
    }
}

/// Applies in-network aggregation at a relay point: appends to `out`
/// what `readings` fold to, grouped by attribute in ascending order
/// and, within an attribute, in the order they were given. One stable
/// sort brings each attribute's readings together as a run; a run is
/// copied as it is (holistic, distinct) or folded (sum, max, top-k),
/// with no allocation per attribute. `readings` is left reordered.
fn fold_aggregates(
    at: NodeId,
    readings: &mut [WireReading],
    assignment: &TreeAssignment,
    out: &mut Vec<WireReading>,
) {
    readings.sort_by_key(|r| r.attr);
    for group in readings.chunk_by_mut(|a, b| a.attr == b.attr) {
        let attr = group[0].attr;
        let kind = assignment
            .relay_aggregation
            .get(&attr)
            .copied()
            .unwrap_or(Aggregation::Holistic);
        match kind {
            Aggregation::Holistic | Aggregation::Distinct => out.extend_from_slice(group),
            Aggregation::Sum => {
                out.push(fold(at, attr, group, group.iter().map(|r| r.value).sum()))
            }
            Aggregation::Max => out.push(fold(
                at,
                attr,
                group,
                group
                    .iter()
                    .map(|r| r.value)
                    .fold(f64::NEG_INFINITY, f64::max),
            )),
            Aggregation::Top(k) => {
                group.sort_by(|a, b| {
                    b.value
                        .partial_cmp(&a.value)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                out.extend_from_slice(&group[..group.len().min(k as usize)]);
            }
        }
    }
}

fn fold(at: NodeId, attr: AttrId, group: &[WireReading], value: f64) -> WireReading {
    WireReading {
        node: at,
        attr,
        value,
        produced: group.iter().map(|r| r.produced).min().unwrap_or(0),
        contributors: group.iter().map(|r| r.contributors).sum(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::proto::WireMessage;
    use crossbeam::channel::unbounded;
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Records every send, in order.
    #[derive(Debug, Default)]
    struct Tape(Mutex<Vec<String>>);

    impl Transport for Tape {
        fn send_data(&self, from: NodeId, to: Endpoint, seq: u64, epoch: u64, frame: Bytes) {
            let line = format!(
                "data {from}->{to:?} seq {seq} epoch {epoch} {:?}",
                &frame[..]
            );
            self.0.lock().unwrap().push(line);
        }

        fn send_ack(&self, from: Endpoint, to: NodeId, incarnation: u32, seq: u64, epoch: u64) {
            let line = format!("ack {from:?}->{to} inc {incarnation} seq {seq} epoch {epoch}");
            self.0.lock().unwrap().push(line);
        }

        fn reliable(&self) -> bool {
            false
        }
    }

    fn assignment(tree: u32, parent: Route, attrs: &[u32]) -> TreeAssignment {
        TreeAssignment {
            tree,
            parent,
            local: attrs
                .iter()
                .map(|&a| LocalAttr {
                    attr: AttrId(a),
                    period: 1,
                    aggregation: Aggregation::Holistic,
                })
                .collect(),
            relay_aggregation: BTreeMap::new(),
        }
    }

    /// Holistic samples of attribute 0, one per value, and an
    /// assignment that relays attribute 0 under `kind`.
    fn fold_input(values: &[f64], kind: Aggregation) -> (Vec<WireReading>, TreeAssignment) {
        let readings = values
            .iter()
            .enumerate()
            .map(|(i, &value)| WireReading {
                node: NodeId(i as u32),
                attr: AttrId(0),
                value,
                produced: 100 + i as u64,
                contributors: 1,
            })
            .collect();
        let mut a = assignment(0, Route::Collector, &[]);
        a.relay_aggregation.insert(AttrId(0), kind);
        (readings, a)
    }

    /// What `readings` fold to at `at`.
    fn folded(at: u32, mut readings: Vec<WireReading>, a: &TreeAssignment) -> Vec<WireReading> {
        let mut out = Vec::new();
        fold_aggregates(NodeId(at), &mut readings, a, &mut out);
        out
    }

    /// The fold as it was before the run-sorted one: regroup every
    /// reading through a map of per-attribute vectors. Kept as the
    /// reference the property test below holds the new one to.
    fn fold_by_map(
        at: NodeId,
        readings: Vec<WireReading>,
        assignment: &TreeAssignment,
    ) -> Vec<WireReading> {
        let mut by_attr: BTreeMap<AttrId, Vec<WireReading>> = BTreeMap::new();
        for r in readings {
            by_attr.entry(r.attr).or_default().push(r);
        }
        let mut out = Vec::new();
        for (attr, group) in by_attr {
            let kind = assignment
                .relay_aggregation
                .get(&attr)
                .copied()
                .unwrap_or(Aggregation::Holistic);
            match kind {
                Aggregation::Holistic | Aggregation::Distinct => out.extend(group),
                Aggregation::Sum => {
                    out.push(fold(at, attr, &group, group.iter().map(|r| r.value).sum()))
                }
                Aggregation::Max => out.push(fold(
                    at,
                    attr,
                    &group,
                    group
                        .iter()
                        .map(|r| r.value)
                        .fold(f64::NEG_INFINITY, f64::max),
                )),
                Aggregation::Top(k) => {
                    let mut g = group;
                    g.sort_by(|a, b| {
                        b.value
                            .partial_cmp(&a.value)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    g.truncate(k as usize);
                    out.extend(g);
                }
            }
        }
        out
    }

    proptest! {
        /// Same readings, same order, as the map-grouped fold: over
        /// mixed aggregation kinds, attributes the map does not name
        /// (holistic), duplicate attributes and tied values.
        #[test]
        fn fold_matches_the_map_grouped_reference(
            kinds in prop::collection::vec((0u32..8, 0u32..6, 0u32..4), 0..8),
            input in prop::collection::vec(
                (0u32..12, 0u32..8, 0u32..6, 0u64..50, 1u32..4),
                0..120,
            ),
        ) {
            let mut a = assignment(0, Route::Collector, &[]);
            for (attr, kind, k) in kinds {
                let kind = match kind {
                    0 => Aggregation::Holistic,
                    1 => Aggregation::Distinct,
                    2 => Aggregation::Sum,
                    3 => Aggregation::Max,
                    _ => Aggregation::Top(k),
                };
                a.relay_aggregation.insert(AttrId(attr), kind);
            }
            let readings: Vec<WireReading> = input
                .into_iter()
                .map(|(node, attr, value, produced, contributors)| WireReading {
                    node: NodeId(node),
                    attr: AttrId(attr),
                    // Few distinct values: top-k must break ties the
                    // same way.
                    value: f64::from(value) * 0.5 - 1.0,
                    produced,
                    contributors,
                })
                .collect();
            prop_assert_eq!(
                folded(9, readings.clone(), &a),
                fold_by_map(NodeId(9), readings, &a)
            );
        }
    }

    #[test]
    fn sum_folds_to_one() {
        let (rs, a) = fold_input(&[1.0, 2.0, 3.0], Aggregation::Sum);
        let out = folded(9, rs, &a);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 6.0);
        assert_eq!(out[0].contributors, 3);
        assert_eq!(out[0].node, NodeId(9));
    }

    #[test]
    fn max_keeps_oldest_contributors_epoch() {
        let (mut rs, a) = fold_input(&[5.0, 9.0], Aggregation::Max);
        rs[1].produced = 8;
        let out = folded(2, rs, &a);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 9.0);
        assert_eq!(out[0].contributors, 2);
        assert_eq!(out[0].produced, 8, "oldest contributor's epoch");
    }

    #[test]
    fn topk_keeps_largest() {
        let (rs, a) = fold_input(&[5.0, 1.0, 9.0, 3.0], Aggregation::Top(2));
        let out = folded(9, rs, &a);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, 9.0);
        assert_eq!(out[1].value, 5.0);
    }

    #[test]
    fn holistic_passthrough() {
        let (rs, a) = fold_input(&[4.0, 2.0], Aggregation::Holistic);
        let out = folded(9, rs.clone(), &a);
        assert_eq!(out, rs);
    }

    #[test]
    fn empty_is_empty() {
        let (_, a) = fold_input(&[], Aggregation::Sum);
        assert!(folded(0, Vec::new(), &a).is_empty());
    }

    #[test]
    fn nested_sum_preserves_contributor_count() {
        let (rs, a) = fold_input(&[1.0, 1.0], Aggregation::Sum);
        let first = folded(5, rs, &a);
        let (mut next, _) = fold_input(&[1.0], Aggregation::Sum);
        next.extend(first);
        let out = folded(6, next, &a);
        assert_eq!(out[0].contributors, 3);
        assert_eq!(out[0].value, 3.0);
    }

    /// A relay's whole repertoire: reconfigure, child traffic (fresh,
    /// replayed, for the current epoch), acks (own and stale
    /// incarnation), degrade, crash and heal, a tree dropped with
    /// frames in flight — and a message after Shutdown that must not
    /// run.
    fn script() -> Vec<AgentMsg> {
        let child = |seq: u64, produced: u64| AgentMsg::Data {
            sent_epoch: produced,
            frame: WireMessage::data(
                0,
                NodeId(7),
                seq,
                vec![WireReading {
                    node: NodeId(7),
                    attr: AttrId(1),
                    value: produced as f64,
                    produced,
                    contributors: 1,
                }],
            )
            .encode(),
        };
        vec![
            AgentMsg::Tick { epoch: 1 },
            AgentMsg::Reconfigure {
                assignments: vec![
                    assignment(0, Route::Node(NodeId(2)), &[1, 2]),
                    assignment(1, Route::Collector, &[3]),
                ],
            },
            child(1, 1),
            AgentMsg::Tick { epoch: 2 },
            AgentMsg::Ack {
                incarnation: 4,
                seq: 1,
            },
            AgentMsg::Ack {
                incarnation: 3,
                seq: 2,
            },
            child(1, 1),
            child(2, 2),
            child(3, 3),
            AgentMsg::Tick { epoch: 3 },
            AgentMsg::SetDegrade { factor: 2 },
            AgentMsg::Tick { epoch: 4 },
            AgentMsg::Tick { epoch: 5 },
            AgentMsg::SetFailed(true),
            child(4, 5),
            AgentMsg::Tick { epoch: 6 },
            AgentMsg::SetFailed(false),
            AgentMsg::Reconfigure {
                assignments: vec![assignment(1, Route::Collector, &[3])],
            },
            AgentMsg::Tick { epoch: 7 },
            AgentMsg::Tick { epoch: 8 },
            AgentMsg::Shutdown,
            AgentMsg::Tick { epoch: 9 },
        ]
    }

    struct Rig {
        inbox: Sender<AgentMsg>,
        tape: Arc<Tape>,
        reports: Receiver<TickReport>,
    }

    fn rig() -> (Agent, Rig) {
        let (inbox, rx) = unbounded();
        let (report_tx, reports) = unbounded();
        let tape = Arc::new(Tape::default());
        let agent = Agent::new(
            NodeId(1),
            rx,
            Arc::clone(&tape) as Arc<dyn Transport>,
            report_tx,
            1_000.0,
            CostModel::default(),
            NetConfig::default(),
            crate::samplers::deterministic(),
            Vec::new(),
        )
        .with_incarnation(4);
        let rig = Rig {
            inbox,
            tape,
            reports,
        };
        (agent, rig)
    }

    #[test]
    fn handle_one_by_one_is_run_over_the_inbox() {
        let (agent, ran) = rig();
        for msg in script() {
            ran.inbox.send(msg).unwrap();
        }
        agent.run();

        let (mut agent, handled) = rig();
        let mut stopped_at = None;
        for (i, msg) in script().into_iter().enumerate() {
            if !agent.handle(msg) {
                stopped_at = Some(i);
                break;
            }
        }
        assert_eq!(stopped_at, Some(script().len() - 2), "stops at Shutdown");

        let sends = |r: &Rig| r.tape.0.lock().unwrap().clone();
        let reports =
            |r: &Rig| std::iter::from_fn(|| r.reports.try_recv().ok()).collect::<Vec<_>>();
        assert_eq!(sends(&handled), sends(&ran));
        let (a, b) = (reports(&handled), reports(&ran));
        assert_eq!(a, b);
        // The script really exercised the agent: ticks 1–5, 7 and 8
        // report (6 is silent: crashed), frames and acks went out, a
        // replay was re-acked, and nothing ran after Shutdown.
        assert_eq!(
            a.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            [1, 2, 3, 4, 5, 7, 8]
        );
        assert_eq!(a.iter().map(|r| r.dup_ignored).sum::<u32>(), 1);
        assert!(a.iter().map(|r| r.retransmits).sum::<u32>() > 0);
        let tape = sends(&ran);
        assert!(tape.iter().any(|l| l.starts_with("data")));
        assert_eq!(tape.iter().filter(|l| l.starts_with("ack")).count(), 4);
    }

    /// The sender half of the dedup window: a frame nobody acks is
    /// abandoned once its seq falls `DEDUP_WINDOW` behind the next one
    /// issued, counted like a spent retry budget, even when the budget
    /// would retry it for much longer. A child frame from below the
    /// window is taken for a replay and re-acked. Both show on their
    /// counters.
    #[test]
    fn frames_are_abandoned_at_the_window_and_expired_ones_counted() {
        let _guard = remo_obs::test_guard();
        let count = |name: &str| remo_obs::counter(name).get() as u64;
        let (window_0, expired_0) = (
            count("remo_net_window_abandoned_total"),
            count("remo_net_dedup_expired_total"),
        );
        remo_obs::enable();
        const TREES: u32 = 64;
        const EPOCHS: u64 = 70;
        let (_inbox, rx) = unbounded();
        let (report_tx, reports) = unbounded();
        let mut agent = Agent::new(
            NodeId(1),
            rx,
            Arc::new(Tape::default()),
            report_tx,
            1e9,
            CostModel::default(),
            NetConfig {
                max_attempts: 20,
                ..NetConfig::default()
            },
            crate::samplers::deterministic(),
            (0..TREES)
                .map(|t| assignment(t, Route::Collector, &[t]))
                .collect(),
        );
        for epoch in 1..=EPOCHS {
            agent.handle(AgentMsg::Tick { epoch });
        }
        let child = |seq: u64| AgentMsg::Data {
            sent_epoch: EPOCHS,
            frame: WireMessage::data(0, NodeId(7), seq, Vec::new()).encode(),
        };
        agent.handle(child(DEDUP_WINDOW + 5));
        agent.handle(child(5));
        remo_obs::disable();

        let reports: Vec<TickReport> = std::iter::from_fn(|| reports.try_recv().ok()).collect();
        let abandoned: u32 = reports.iter().map(|r| r.abandoned).sum();
        let dropped: u32 = reports.iter().map(|r| r.dropped_readings).sum();
        let sent = EPOCHS * u64::from(TREES);
        assert_eq!(u64::from(abandoned), sent - DEDUP_WINDOW);
        assert_eq!(dropped, abandoned, "one reading per frame");
        assert_eq!(agent.unacked.len() as u64, DEDUP_WINDOW);
        assert_eq!(
            count("remo_net_window_abandoned_total") - window_0,
            u64::from(abandoned)
        );
        assert_eq!(count("remo_net_dedup_expired_total") - expired_0, 1);
    }
}
