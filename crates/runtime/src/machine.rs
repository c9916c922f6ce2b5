//! Spec-driven state machines: the executable side of the
//! specification.
//!
//! The runtime embeds these machines and *asks* them what to do —
//! `client.rs` steps a [`ClientMachine`] per supervisor, and the
//! collector's [`Sessions`] book a [`SessionMachine`] per node, which
//! `service.rs` and `remo-check mc` both step — so a transition the
//! spec does not define cannot be silently improvised. An undefined
//! step returns `None` and bumps a reject counter: node-side callers
//! `debug_assert!` on it (their input comes from the trusted
//! collector), the collector counts it for input that arrives over the
//! open network and records it for its own steps. The [`DedupModel`]
//! is the obviously-correct restatement of `IncarnationTracker` that
//! the runtime shadows in debug builds.

use crate::agent::TickReport;
use crate::health::HealthEvents;
use crate::spec::{
    ClientAction, ClientEvent, ClientState, DedupPolicy, ProtocolSpec, SessionAction, SessionEvent,
    SessionState,
};
use remo_core::NodeId;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn shipped() -> Arc<ProtocolSpec> {
    Arc::new(ProtocolSpec::shipped())
}

// ----------------------------------------------------------- client machine

/// The node-side supervisor machine. One instance per node process:
/// construct it when the supervisor starts, step it for every
/// connection edge and every decoded control frame.
#[derive(Debug, Clone)]
pub struct ClientMachine {
    spec: Arc<ProtocolSpec>,
    state: ClientState,
    held: Option<u32>,
    rejects: u64,
}

impl Default for ClientMachine {
    fn default() -> Self {
        ClientMachine::new()
    }
}

impl ClientMachine {
    /// A machine over the shipped spec.
    pub fn new() -> ClientMachine {
        ClientMachine::with_spec(shipped())
    }

    /// A machine over an explicit (possibly mutated) spec.
    pub fn with_spec(spec: Arc<ProtocolSpec>) -> ClientMachine {
        ClientMachine {
            spec,
            state: ClientState::Disconnected,
            held: None,
            rejects: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// The incarnation adopted from the last Welcome, if any.
    pub fn held_incarnation(&self) -> Option<u32> {
        self.held
    }

    /// Transitions the spec left undefined that this machine was asked
    /// to take anyway.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Steps the machine. `Some(action)` on a defined transition;
    /// `None` (and a counted reject, state unchanged) on an undefined
    /// one.
    pub fn step(&mut self, event: ClientEvent) -> Option<ClientAction> {
        match self.spec.client_step(self.state, event) {
            Some((action, next)) => {
                self.state = next;
                Some(action)
            }
            None => {
                self.rejects += 1;
                None
            }
        }
    }

    /// Records the incarnation a Welcome assigned. Returns `false` if
    /// it regressed below an incarnation this process already held —
    /// the client-side half of RA024.
    pub fn adopt_incarnation(&mut self, incarnation: u32) -> bool {
        let ok = self.held.is_none_or(|h| incarnation >= h);
        if ok {
            self.held = Some(incarnation);
        }
        ok
    }
}

// ---------------------------------------------------------- session machine

/// How a Hello landed on a [`SessionMachine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelloOutcome {
    /// Admitted; carry this incarnation in the Welcome.
    Admitted(u32),
    /// The spec defines the Hello as ignored (e.g. during drain):
    /// refuse the registration without counting a protocol reject.
    Refused,
    /// The spec leaves the Hello undefined here; counted as a reject.
    Rejected,
}

/// The collector-side per-node session machine. One instance per
/// expected node for the collector's lifetime; it also owns the
/// node's incarnation slot, so incarnation assignment itself flows
/// through the spec.
#[derive(Debug, Clone)]
pub struct SessionMachine {
    spec: Arc<ProtocolSpec>,
    state: SessionState,
    slot: u32,
    rejects: u64,
}

impl Default for SessionMachine {
    fn default() -> Self {
        SessionMachine::new()
    }
}

impl SessionMachine {
    /// A machine over the shipped spec.
    pub fn new() -> SessionMachine {
        SessionMachine::with_spec(shipped())
    }

    /// A machine over an explicit (possibly mutated) spec.
    pub fn with_spec(spec: Arc<ProtocolSpec>) -> SessionMachine {
        SessionMachine {
            spec,
            state: SessionState::Listening,
            slot: 0,
            rejects: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The newest incarnation this session has assigned.
    pub fn incarnation_slot(&self) -> u32 {
        self.slot
    }

    /// Transitions the spec left undefined that this machine was asked
    /// to take anyway.
    pub fn rejects(&self) -> u64 {
        self.rejects
    }

    /// Steps the machine. `Some(action)` on a defined transition;
    /// `None` (and a counted reject, state unchanged) on an undefined
    /// one.
    pub fn step(&mut self, event: SessionEvent) -> Option<SessionAction> {
        match self.spec.session_step(self.state, event) {
            Some((action, next)) => {
                self.state = next;
                Some(action)
            }
            None => {
                self.rejects += 1;
                None
            }
        }
    }

    /// Handles a Hello carrying `held` (0 = fresh life): steps the
    /// table, updates the incarnation slot per the spec's policy, and
    /// — when the table admits it — immediately steps the paired
    /// `SendAssign`, mirroring the atomic Welcome+Assign queueing in
    /// the collector.
    pub fn on_hello(&mut self, held: u32) -> HelloOutcome {
        let event = if held == 0 {
            SessionEvent::RecvHelloFresh
        } else {
            SessionEvent::RecvHelloHeld
        };
        match self.step(event) {
            Some(SessionAction::AssignFreshIncarnation) => {
                if self.spec.fresh_bump {
                    self.slot += 1;
                }
                let assigned = self.slot;
                self.step(SessionEvent::SendAssign);
                HelloOutcome::Admitted(assigned)
            }
            Some(SessionAction::KeepHeldIncarnation) => {
                self.slot = self.slot.max(held);
                self.step(SessionEvent::SendAssign);
                // The Welcome echoes the *held* incarnation, not the
                // slot max: a reconnecting stale life stays on its own
                // incarnation instead of adopting a newer one and
                // colliding with that life's sequence space.
                HelloOutcome::Admitted(held)
            }
            Some(_) => HelloOutcome::Refused,
            None => HelloOutcome::Rejected,
        }
    }
}

// ------------------------------------------------------------- session book

/// The collector's session book: one [`SessionMachine`] per node it has
/// heard of, for its whole run, and the one mapping from what the
/// collector does to the [`SessionEvent`]s the spec steps. The TCP hub
/// (`remo-node`'s `service.rs`) and `remo-check mc`'s harness both step
/// their sessions through it.
///
/// A step the spec leaves undefined is counted by the node's machine
/// ([`Sessions::rejects`]). Input from a node — a Hello, a report, its
/// connection dropping — arrives over the open network, so that is
/// all. A collector step (fan-out, barrier verdict, repair) is also
/// recorded as `(node, state, event)` for [`Sessions::take_undefined`]:
/// it is a bug in collector logic, not hostile input.
#[derive(Debug, Clone, Default)]
pub struct Sessions {
    machines: BTreeMap<NodeId, SessionMachine>,
    undefined: Vec<(NodeId, SessionState, SessionEvent)>,
    steps: u64,
}

impl Sessions {
    /// Admits (or refuses) a Hello from `node` carrying `held`
    /// (0 = fresh life); see [`SessionMachine::on_hello`].
    pub fn hello(&mut self, node: NodeId, held: u32) -> HelloOutcome {
        self.machines.entry(node).or_default().on_hello(held)
    }

    /// The connection that owned `node`'s session is gone.
    pub fn conn_lost(&mut self, node: NodeId) {
        let m = self.machines.entry(node).or_default();
        m.step(SessionEvent::ConnLost);
    }

    /// Credits `reports`, read during `epoch`'s barrier, to their
    /// senders — attendance if a report is for `epoch` (or newer), a
    /// liveness hint only if it is stale — and strikes each sender from
    /// `missing`.
    pub fn credit<'a>(
        &mut self,
        reports: impl IntoIterator<Item = &'a TickReport>,
        epoch: u64,
        missing: &mut BTreeSet<NodeId>,
    ) {
        for report in reports {
            let event = if report.epoch >= epoch {
                SessionEvent::RecvReportFresh
            } else {
                SessionEvent::RecvReportStale
            };
            self.machines.entry(report.node).or_default().step(event);
            missing.remove(&report.node);
        }
    }

    /// The epoch tick goes out to `nodes`.
    pub fn tick(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.fan_out(nodes, SessionEvent::SendTick);
    }

    /// The verdicts of a closed epoch: every node still `missing` when
    /// the barrier closed missed its deadline, then the detector's
    /// confirmations and recoveries.
    pub fn verdicts(&mut self, missing: &BTreeSet<NodeId>, events: &HealthEvents) {
        self.fan_out(missing.iter().copied(), SessionEvent::MissDeadline);
        self.fan_out(events.confirmed.iter().copied(), SessionEvent::ConfirmDead);
        self.fan_out(
            events.recovered.iter().copied(),
            SessionEvent::MarkRecovered,
        );
    }

    /// The plan was repaired around confirmed-dead `node`.
    pub fn repair(&mut self, node: NodeId) {
        self.fan_out([node], SessionEvent::Repair);
    }

    /// A degrade `factor` goes out to `nodes`: factor 1 restores the
    /// reporting interval, anything wider widens it.
    pub fn degrade(&mut self, nodes: impl IntoIterator<Item = NodeId>, factor: u64) {
        let event = if factor > 1 {
            SessionEvent::SendDegrade
        } else {
            SessionEvent::SendRecover
        };
        self.fan_out(nodes, event);
    }

    /// Shutdown goes out to `nodes`.
    pub fn shutdown(&mut self, nodes: impl IntoIterator<Item = NodeId>) {
        self.fan_out(nodes, SessionEvent::SendShutdown);
    }

    /// The undefined collector steps recorded since the last call.
    pub fn take_undefined(&mut self) -> Vec<(NodeId, SessionState, SessionEvent)> {
        std::mem::take(&mut self.undefined)
    }

    /// Steps the spec left undefined, input and collector steps alike.
    pub fn rejects(&self) -> u64 {
        self.machines.values().map(SessionMachine::rejects).sum()
    }

    /// Collector steps taken so far, defined or not.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Every session's current state, in node order.
    pub fn states(&self) -> impl Iterator<Item = (NodeId, SessionState)> + '_ {
        self.machines.iter().map(|(&node, m)| (node, m.state()))
    }

    /// Steps every one of `nodes` with the collector's own `event`.
    fn fan_out(&mut self, nodes: impl IntoIterator<Item = NodeId>, event: SessionEvent) {
        for node in nodes {
            self.steps += 1;
            let m = self.machines.entry(node).or_default();
            let state = m.state();
            if m.step(event).is_none() {
                self.undefined.push((node, state, event));
            }
        }
    }
}

// -------------------------------------------------------------- dedup model

/// The specification of the receive-side dedup lattice: an explicit
/// (incarnation, seen-set) pair with none of `SeqTracker`'s bitmap
/// arithmetic, plus the anti-replay window rule: a seq `window` or
/// more below the highest seq seen counts as seen, and the set is
/// pruned below it, so it never holds more than `window` seqs. The
/// window is the runtime's
/// [`DEDUP_WINDOW`](crate::transport::DEDUP_WINDOW); only the verifier
/// shrinks it ([`DedupModel::with_window`]). `IncarnationTracker` must
/// agree with this model on every `insert`/`contains` — debug builds
/// assert exactly that — and the verifier exhaustively checks the
/// model's own laws.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DedupModel {
    scoped: bool,
    window: u64,
    incarnation: u32,
    seen: BTreeSet<u64>,
}

impl Default for DedupModel {
    /// The shipped (incarnation-scoped, windowed) policy.
    fn default() -> Self {
        DedupModel::new()
    }
}

impl DedupModel {
    /// A model with the shipped policy: incarnation-scoped, with the
    /// runtime's [`DEDUP_WINDOW`](crate::transport::DEDUP_WINDOW).
    pub fn new() -> DedupModel {
        DedupModel::with_policy(DedupPolicy {
            incarnation_scoped: true,
        })
    }

    /// A model with an explicit policy (`incarnation_scoped: false`
    /// reproduces the seq-restart swallow) and the runtime's window.
    pub fn with_policy(policy: DedupPolicy) -> DedupModel {
        DedupModel::with_window(policy, crate::transport::DEDUP_WINDOW)
    }

    /// A model with an explicit policy and a `window` of that many
    /// seqs, for explorations too small to reach the runtime's window:
    /// the rule compares seq distances with the window and nothing
    /// else, so a small window loses what the runtime's loses, given
    /// a sender that many seqs ahead.
    pub fn with_window(policy: DedupPolicy, window: u64) -> DedupModel {
        DedupModel {
            scoped: policy.incarnation_scoped,
            window,
            incarnation: 0,
            seen: BTreeSet::new(),
        }
    }

    /// Records `(incarnation, seq)`; returns `true` iff never seen.
    pub fn insert(&mut self, incarnation: u32, seq: u64) -> bool {
        if self.scoped {
            match incarnation.cmp(&self.incarnation) {
                std::cmp::Ordering::Greater => {
                    self.incarnation = incarnation;
                    self.seen.clear();
                }
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Equal => {}
            }
        } else {
            // Buggy policy: one flat window across incarnations.
            self.incarnation = self.incarnation.max(incarnation);
        }
        if self.expired(seq) || !self.seen.insert(seq) {
            return false;
        }
        while self.seen.first().is_some_and(|&s| self.expired(s)) {
            self.seen.pop_first();
        }
        true
    }

    /// Whether `(incarnation, seq)` has been seen.
    pub fn contains(&self, incarnation: u32, seq: u64) -> bool {
        if self.scoped {
            match incarnation.cmp(&self.incarnation) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Greater => false,
                std::cmp::Ordering::Equal => self.expired(seq) || self.seen.contains(&seq),
            }
        } else {
            self.expired(seq) || self.seen.contains(&seq)
        }
    }

    /// Whether `seq` of the current incarnation sits below the window:
    /// `window` or more below the highest seq seen.
    pub fn expired(&self, seq: u64) -> bool {
        let top = self.seen.last().copied().unwrap_or(0);
        seq.saturating_add(self.window) <= top
    }

    /// The seqs remembered one by one (never more than the window).
    pub fn tracked(&self) -> usize {
        self.seen.len()
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
    fn client_machine_walks_the_happy_path() {
        let mut m = ClientMachine::new();
        assert_eq!(
            m.step(ClientEvent::Connected),
            Some(ClientAction::SendHello)
        );
        assert_eq!(
            m.step(ClientEvent::RecvWelcome),
            Some(ClientAction::AdoptWelcome)
        );
        assert!(m.adopt_incarnation(1));
        assert_eq!(
            m.step(ClientEvent::RecvAssign),
            Some(ClientAction::ApplyAssign)
        );
        assert_eq!(m.step(ClientEvent::RecvTick), Some(ClientAction::RunTick));
        assert_eq!(m.step(ClientEvent::RecvShutdown), Some(ClientAction::Stop));
        assert_eq!(m.state(), ClientState::Done);
        assert_eq!(m.rejects(), 0);
    }

    #[test]
    fn client_machine_rejects_undefined_and_holds_state() {
        let mut m = ClientMachine::new();
        assert_eq!(m.step(ClientEvent::RecvTick), None, "tick before connect");
        assert_eq!(m.state(), ClientState::Disconnected);
        assert_eq!(m.rejects(), 1);
    }

    #[test]
    fn adopting_a_regressed_incarnation_is_refused() {
        let mut m = ClientMachine::new();
        assert!(m.adopt_incarnation(3));
        assert!(!m.adopt_incarnation(2));
        assert_eq!(m.held_incarnation(), Some(3));
    }

    #[test]
    fn session_assigns_strictly_growing_incarnations() {
        let mut s = SessionMachine::new();
        assert_eq!(s.on_hello(0), HelloOutcome::Admitted(1));
        assert_eq!(s.state(), SessionState::Assigned);
        // Reconnect of the same life keeps it.
        assert_eq!(s.on_hello(1), HelloOutcome::Admitted(1));
        // A restarted process gets a strictly newer one.
        assert_eq!(s.on_hello(0), HelloOutcome::Admitted(2));
    }

    #[test]
    fn draining_sessions_refuse_new_hellos() {
        let mut s = SessionMachine::new();
        assert_eq!(s.on_hello(0), HelloOutcome::Admitted(1));
        assert_eq!(
            s.step(SessionEvent::SendShutdown),
            Some(SessionAction::Drain)
        );
        assert_eq!(s.on_hello(0), HelloOutcome::Refused);
        assert_eq!(s.rejects(), 0, "a defined Ignore is not a reject");
    }

    #[test]
    fn the_book_records_undefined_collector_steps_and_counts_input_rejects() {
        let mut book = Sessions::default();
        let (up, stranger) = (NodeId(0), NodeId(1));
        assert_eq!(book.hello(up, 0), HelloOutcome::Admitted(1));
        // A report from a node that never said Hello is hostile input:
        // a reject, not a collector bug.
        let report = TickReport {
            node: stranger,
            epoch: 1,
            ..TickReport::default()
        };
        let mut missing: BTreeSet<NodeId> = [up, stranger].into();
        book.credit([&report], 1, &mut missing);
        assert_eq!(missing, [up].into(), "a report strikes its sender");
        assert_eq!(book.rejects(), 1);
        assert!(book.take_undefined().is_empty());
        // Ticking a node that never registered is the collector's own.
        book.tick([up, stranger]);
        assert_eq!(
            book.take_undefined(),
            [(stranger, SessionState::Listening, SessionEvent::SendTick)]
        );
        assert!(book.take_undefined().is_empty(), "taken once");
        // The degrade factor picks the edge: wider degrades, 1 restores.
        book.degrade([up], 4);
        assert_eq!(book.states().next(), Some((up, SessionState::Degraded)));
        book.degrade([up], 1);
        assert_eq!(book.states().next(), Some((up, SessionState::Ticking)));
        assert_eq!(book.rejects(), 2);
    }

    #[test]
    fn dedup_model_scopes_the_window_to_the_incarnation() {
        let mut m = DedupModel::new();
        assert!(m.insert(1, 1));
        assert!(m.insert(1, 2));
        assert!(!m.insert(1, 1), "replay within a life");
        // A restarted sender's seqs start over and must land fresh.
        assert!(m.insert(2, 1), "fresh incarnation resets the window");
        assert!(!m.insert(1, 3), "stale life is always seen");
        assert!(m.contains(1, 99), "stale life is always seen");
        assert!(!m.contains(3, 1), "future life is never seen");
    }

    #[test]
    fn unscoped_dedup_model_reproduces_the_seq_restart_swallow() {
        let mut m = DedupModel::with_policy(DedupPolicy {
            incarnation_scoped: false,
        });
        assert!(m.insert(1, 1));
        assert!(
            !m.insert(2, 1),
            "the buggy flat window swallows the restarted sender's frame"
        );
    }

    #[test]
    fn the_window_expires_old_seqs_and_bounds_the_set() {
        let mut m = DedupModel::with_window(
            DedupPolicy {
                incarnation_scoped: true,
            },
            4,
        );
        // A 1-in-3 subsequence: the set keeps what is inside the window.
        for seq in (1..=30).step_by(3) {
            assert!(m.insert(1, seq));
            assert!(m.tracked() <= 2, "{} seqs held at {seq}", m.tracked());
        }
        // Top is 28: 25..=28 is the window, 24 and below count as seen.
        assert!(m.expired(24) && !m.expired(25));
        assert!(!m.insert(1, 24), "below the window: taken for a replay");
        assert!(m.contains(1, 3), "long gone, still seen");
        assert!(m.insert(1, 26), "a gap inside the window is fresh");
        assert!(!m.insert(1, 26));
        // A fresh life starts a fresh window.
        assert!(m.insert(2, 1));
        assert!(!m.contains(2, 24) && !m.expired(24));
    }
}
