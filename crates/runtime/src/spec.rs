//! The executable control-plane specification: per-role transition
//! tables plus the policy knobs that PR 9's bugfixes pinned down.
//!
//! Everything here is *data*, not code: a [`ProtocolSpec`] is a plain
//! serializable document listing, for every `(state, event)` pair a
//! role defines, the action taken and the successor state. The
//! runtime drives its real transitions through these tables (see
//! [`crate::machine`]), `remo-check proto verify` exhaustively explores
//! their product under lossy-channel semantics, and its known-bad
//! corpus mutates them one knob at a time. A `(state, event)` pair
//! *absent* from a table is an undefined transition: the verifier
//! reports it as RA023 if any reachable interleaving delivers it, and
//! the runtime counts it as a protocol reject.

use serde::{Deserialize, Serialize};

// --------------------------------------------------------------- messages

/// The seven control-plane message kinds of `remo_runtime::ctrl`, by
/// wire tag order. This is the abstract alphabet the client and
/// session tables are written over; `CtrlMsg::kind` maps concrete
/// frames onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CtrlKind {
    /// Node → collector: join/rejoin with a held incarnation (0 = fresh).
    Hello,
    /// Collector → node: admission, limits, and the assigned incarnation.
    Welcome,
    /// Collector → node: per-tree routing/sampling assignments.
    Assign,
    /// Collector → node: epoch heartbeat driving the sampling loop.
    Tick,
    /// Node → collector: the epoch's aggregated readings.
    Report,
    /// Collector → node: backpressure interval widening (factor 1 restores).
    Degrade,
    /// Collector → node: drain and exit.
    Shutdown,
}

impl CtrlKind {
    /// Every kind, in wire-tag order.
    pub const ALL: [CtrlKind; 7] = [
        CtrlKind::Hello,
        CtrlKind::Welcome,
        CtrlKind::Assign,
        CtrlKind::Tick,
        CtrlKind::Report,
        CtrlKind::Degrade,
        CtrlKind::Shutdown,
    ];
}

// ----------------------------------------------------------- client machine

/// Node-side supervisor states. One machine lives for one node
/// *process*: a restart is a brand-new machine (held incarnation
/// gone), while a reconnect keeps the machine (and the held
/// incarnation) across `Disconnected`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ClientState {
    /// No TCP connection; between attempts (backoff) or before the first.
    Disconnected,
    /// Connected and Hello sent; waiting for Welcome.
    Greeting,
    /// Welcomed; sampling loop live, processing Assign/Tick/Degrade.
    Running,
    /// Drained after Shutdown, or gave up reconnecting.
    Done,
}

/// Events the node-side supervisor reacts to: delivered control
/// frames plus the connection-lifecycle edges the supervisor itself
/// observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ClientEvent {
    /// TCP connect succeeded.
    Connected,
    /// A Hello frame arrived (never legal at a node).
    RecvHello,
    /// A Welcome frame arrived.
    RecvWelcome,
    /// An Assign frame arrived.
    RecvAssign,
    /// A Tick frame arrived.
    RecvTick,
    /// A Report frame arrived (never legal at a node).
    RecvReport,
    /// A Degrade frame arrived.
    RecvDegrade,
    /// A Shutdown frame arrived.
    RecvShutdown,
    /// The connection died (read/write error or EOF).
    ConnLost,
    /// Reconnect budget exhausted after registration.
    GiveUp,
}

impl ClientEvent {
    /// The delivery event for a control frame of the given kind.
    pub fn recv(kind: CtrlKind) -> ClientEvent {
        match kind {
            CtrlKind::Hello => ClientEvent::RecvHello,
            CtrlKind::Welcome => ClientEvent::RecvWelcome,
            CtrlKind::Assign => ClientEvent::RecvAssign,
            CtrlKind::Tick => ClientEvent::RecvTick,
            CtrlKind::Report => ClientEvent::RecvReport,
            CtrlKind::Degrade => ClientEvent::RecvDegrade,
            CtrlKind::Shutdown => ClientEvent::RecvShutdown,
        }
    }
}

/// What the node-side supervisor does on a defined transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ClientAction {
    /// Send Hello carrying the held incarnation (0 if fresh).
    SendHello,
    /// Adopt the Welcome: record the assigned incarnation, start (or
    /// keep) the agent. The adopted incarnation must never regress.
    AdoptWelcome,
    /// A redundant Welcome while already running; keep current state.
    DropDuplicate,
    /// Reconfigure the agent with the new assignments.
    ApplyAssign,
    /// Run the epoch sampling pass.
    RunTick,
    /// Apply the interval widening factor.
    ApplyDegrade,
    /// Drain and exit cleanly.
    Stop,
    /// Schedule a reconnect attempt.
    EnterBackoff,
    /// Explicit no-op.
    Ignore,
}

/// One row of the client transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientRule {
    /// State the rule fires in.
    pub state: ClientState,
    /// Event that triggers it.
    pub event: ClientEvent,
    /// Action the implementation must take.
    pub action: ClientAction,
    /// Successor state.
    pub next: ClientState,
}

// ---------------------------------------------------------- session machine

/// Collector-side per-node session states. One machine lives per
/// *expected node* for the whole collector run, across that node's
/// connections, restarts, and deaths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SessionState {
    /// Node expected but has never said Hello.
    Listening,
    /// Hello accepted, incarnation assigned, Welcome queued.
    Registered,
    /// Assignments delivered; waiting for the first tick fan-out.
    Assigned,
    /// In the tick/report steady state.
    Ticking,
    /// Interval widened by collector backpressure.
    Degraded,
    /// Shutdown sent; waiting for the node to hang up.
    Draining,
    /// Confirmed dead by consecutive missed barriers; repaired around.
    Dead,
    /// Connection closed after draining.
    Closed,
}

/// Events a collector-side session reacts to: frames from its node,
/// internal barrier/health verdicts, and collector-initiated sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SessionEvent {
    /// Hello with incarnation 0: a fresh process life.
    RecvHelloFresh,
    /// Hello with a held incarnation: a reconnect of a known life.
    RecvHelloHeld,
    /// Collector queues the Assign right after the Welcome.
    SendAssign,
    /// Collector fans out the epoch tick.
    SendTick,
    /// A report for the current barrier epoch arrived.
    RecvReportFresh,
    /// A report for an already-closed epoch arrived (straggler).
    RecvReportStale,
    /// The barrier closed without a fresh report from this node.
    MissDeadline,
    /// Consecutive misses crossed the health threshold.
    ConfirmDead,
    /// The repair engine re-planned around this dead node.
    Repair,
    /// Health saw fresh evidence from a confirmed-dead node.
    MarkRecovered,
    /// Collector widens this node's reporting interval.
    SendDegrade,
    /// Collector restores the reporting interval (factor 1).
    SendRecover,
    /// Collector broadcasts Shutdown.
    SendShutdown,
    /// This node's connection deregistered.
    ConnLost,
}

/// What the collector-side session does on a defined transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SessionAction {
    /// Mint a strictly greater incarnation for a fresh process life.
    AssignFreshIncarnation,
    /// Keep `max(slot, held)` for a reconnecting known life.
    KeepHeldIncarnation,
    /// Deliver the routing/sampling assignments.
    DeliverAssign,
    /// Deliver the epoch tick.
    DeliverTick,
    /// Count the report toward barrier attendance.
    CreditReport,
    /// Note a stale frame as a liveness hint only — never attendance.
    ObserveStale,
    /// Record a missed barrier.
    NoteMiss,
    /// Declare the node dead; its load must be repaired around.
    DeclareDead,
    /// Re-plan around the dead node (at most once per death).
    RepairPlan,
    /// Reintegrate a recovered node into the steady state.
    Reintegrate,
    /// Widen the node's reporting interval.
    WidenInterval,
    /// Restore the node's reporting interval.
    RestoreInterval,
    /// Enter the drain phase.
    Drain,
    /// Close the session for good.
    CloseSession,
    /// Explicit no-op.
    Ignore,
}

/// One row of the session transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionRule {
    /// State the rule fires in.
    pub state: SessionState,
    /// Event that triggers it.
    pub event: SessionEvent,
    /// Action the implementation must take.
    pub action: SessionAction,
    /// Successor state.
    pub next: SessionState,
}

// ------------------------------------------------------------ policy knobs

/// ARQ retry/backoff discipline for the data plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArqParams {
    /// Transmissions per frame before abandonment (first send included).
    pub max_attempts: u8,
    /// Whether the retry budget is actually enforced. Shipped: `true`.
    /// `false` reproduces an unbounded-retransmission sender whose
    /// in-flight set grows without bound (RA025).
    pub retry_budget_enforced: bool,
    /// Declared bound on packets simultaneously in a channel.
    pub channel_cap: u8,
    /// Whether the sender respects the receivers' dedup window: before
    /// it issues seq `N` it abandons every unacked frame at or below
    /// `N − DEDUP_WINDOW` ([`DEDUP_WINDOW`](crate::transport::DEDUP_WINDOW)),
    /// counted like a spent retry budget, so no live frame ever sits
    /// below a receiver's window. Shipped: `true`. `false` lets a
    /// retransmission arrive below the window, where it is taken for a
    /// replay, re-acked and lost while its sender believes it
    /// delivered (RA024).
    pub window_enforced: bool,
}

/// Receive-side dedup discipline (the `IncarnationTracker` lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedupPolicy {
    /// Whether the seq watermark is scoped to the sender incarnation.
    /// Shipped: `true`. `false` reproduces PR 9's seq-restart bug —
    /// a restarted sender's fresh frames sit below the old watermark
    /// and are silently swallowed (RA024).
    pub incarnation_scoped: bool,
}

/// Report-barrier attendance discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BarrierPolicy {
    /// Whether a stale (already-closed-epoch) report counts as barrier
    /// attendance. Shipped: `false`. `true` reproduces PR 9's
    /// straggler-resurrection bug — a queued frame from a dead node
    /// revives it and double-repairs the plan (RA023).
    pub credit_stale_reports: bool,
    /// Consecutive missed barriers before a node is confirmed dead.
    pub confirm_after: u8,
}

/// Exploration bounds for the verifier: how many of each fault and
/// lifecycle event the closed system budgets per run. Small on
/// purpose — every interesting PR 9 bug fits in two epochs, one
/// restart, and one reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerifyBounds {
    /// Epochs the collector runs before shutting down.
    pub epochs: u8,
    /// Node process restarts (fresh incarnation) budgeted.
    pub restarts: u8,
    /// Connection resets (held incarnation survives) budgeted.
    pub resets: u8,
    /// Data frames the ARQ exploration produces per sender life.
    pub frames: u8,
    /// Packet duplications budgeted in the ARQ exploration.
    pub dups: u8,
}

impl Default for VerifyBounds {
    fn default() -> Self {
        VerifyBounds {
            epochs: 3,
            restarts: 1,
            resets: 1,
            frames: 2,
            dups: 1,
        }
    }
}

// ------------------------------------------------------------------- spec

/// The complete protocol specification: both role tables plus the
/// ARQ, dedup, and barrier policies. [`ProtocolSpec::shipped`] is the
/// canonical spec the runtime conforms to; everything else (corpus
/// mutations, operator-supplied JSON) goes through the same verifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolSpec {
    /// Node-side supervisor transition table.
    pub client: Vec<ClientRule>,
    /// Collector-side session transition table.
    pub session: Vec<SessionRule>,
    /// ARQ retry discipline.
    pub arq: ArqParams,
    /// Receive-side dedup discipline.
    pub dedup: DedupPolicy,
    /// Barrier attendance discipline.
    pub barrier: BarrierPolicy,
    /// Whether a fresh Hello mints a strictly greater incarnation.
    /// Shipped: `true`. `false` lets a restarted node reuse its old
    /// incarnation (RA024).
    pub fresh_bump: bool,
    /// Exploration bounds for the verifier.
    pub bounds: VerifyBounds,
}

impl ProtocolSpec {
    /// The canonical spec the runtime implements.
    pub fn shipped() -> ProtocolSpec {
        use ClientAction as CA;
        use ClientEvent as CE;
        use ClientState as CS;
        use SessionAction as SA;
        use SessionEvent as SE;
        use SessionState as SS;

        let c = |state, event, action, next| ClientRule {
            state,
            event,
            action,
            next,
        };
        let client = vec![
            c(CS::Disconnected, CE::Connected, CA::SendHello, CS::Greeting),
            c(CS::Disconnected, CE::ConnLost, CA::Ignore, CS::Disconnected),
            c(CS::Disconnected, CE::GiveUp, CA::Stop, CS::Done),
            c(CS::Greeting, CE::RecvWelcome, CA::AdoptWelcome, CS::Running),
            c(CS::Greeting, CE::RecvShutdown, CA::Stop, CS::Done),
            c(
                CS::Greeting,
                CE::ConnLost,
                CA::EnterBackoff,
                CS::Disconnected,
            ),
            c(CS::Running, CE::RecvWelcome, CA::DropDuplicate, CS::Running),
            c(CS::Running, CE::RecvAssign, CA::ApplyAssign, CS::Running),
            c(CS::Running, CE::RecvTick, CA::RunTick, CS::Running),
            c(CS::Running, CE::RecvDegrade, CA::ApplyDegrade, CS::Running),
            c(CS::Running, CE::RecvShutdown, CA::Stop, CS::Done),
            c(
                CS::Running,
                CE::ConnLost,
                CA::EnterBackoff,
                CS::Disconnected,
            ),
        ];

        let s = |state, event, action, next| SessionRule {
            state,
            event,
            action,
            next,
        };
        let mut session = vec![
            s(
                SS::Listening,
                SE::RecvHelloFresh,
                SA::AssignFreshIncarnation,
                SS::Registered,
            ),
            s(
                SS::Listening,
                SE::RecvHelloHeld,
                SA::KeepHeldIncarnation,
                SS::Registered,
            ),
            s(SS::Listening, SE::MissDeadline, SA::NoteMiss, SS::Listening),
            s(SS::Listening, SE::ConfirmDead, SA::DeclareDead, SS::Dead),
            s(SS::Listening, SE::ConnLost, SA::Ignore, SS::Listening),
            s(
                SS::Registered,
                SE::SendAssign,
                SA::DeliverAssign,
                SS::Assigned,
            ),
            s(SS::Registered, SE::ConnLost, SA::Ignore, SS::Registered),
            s(
                SS::Registered,
                SE::RecvHelloFresh,
                SA::AssignFreshIncarnation,
                SS::Registered,
            ),
            s(
                SS::Registered,
                SE::RecvHelloHeld,
                SA::KeepHeldIncarnation,
                SS::Registered,
            ),
        ];
        // The live steady states share most rows: re-registration,
        // reports, barrier verdicts, degrade fan-out, drain.
        for live in [SS::Assigned, SS::Ticking, SS::Degraded] {
            session.push(s(
                live,
                SE::RecvHelloFresh,
                SA::AssignFreshIncarnation,
                SS::Registered,
            ));
            session.push(s(
                live,
                SE::RecvHelloHeld,
                SA::KeepHeldIncarnation,
                SS::Registered,
            ));
            session.push(s(live, SE::RecvReportFresh, SA::CreditReport, live));
            session.push(s(live, SE::RecvReportStale, SA::ObserveStale, live));
            session.push(s(live, SE::MissDeadline, SA::NoteMiss, live));
            session.push(s(live, SE::ConfirmDead, SA::DeclareDead, SS::Dead));
            session.push(s(live, SE::Repair, SA::Ignore, live));
            session.push(s(live, SE::MarkRecovered, SA::Ignore, live));
            session.push(s(live, SE::ConnLost, SA::Ignore, live));
            session.push(s(live, SE::SendShutdown, SA::Drain, SS::Draining));
        }
        session.extend([
            s(SS::Assigned, SE::SendTick, SA::DeliverTick, SS::Ticking),
            s(
                SS::Assigned,
                SE::SendDegrade,
                SA::WidenInterval,
                SS::Degraded,
            ),
            s(SS::Assigned, SE::SendRecover, SA::Ignore, SS::Assigned),
            s(SS::Ticking, SE::SendTick, SA::DeliverTick, SS::Ticking),
            s(
                SS::Ticking,
                SE::SendDegrade,
                SA::WidenInterval,
                SS::Degraded,
            ),
            s(SS::Ticking, SE::SendRecover, SA::Ignore, SS::Ticking),
            s(SS::Degraded, SE::SendTick, SA::DeliverTick, SS::Degraded),
            s(
                SS::Degraded,
                SE::SendDegrade,
                SA::WidenInterval,
                SS::Degraded,
            ),
            s(
                SS::Degraded,
                SE::SendRecover,
                SA::RestoreInterval,
                SS::Ticking,
            ),
            // Dead: only fresh evidence reintegrates; stale frames are
            // liveness hints at most (the PR 9 straggler property).
            s(
                SS::Dead,
                SE::RecvHelloFresh,
                SA::AssignFreshIncarnation,
                SS::Registered,
            ),
            s(
                SS::Dead,
                SE::RecvHelloHeld,
                SA::KeepHeldIncarnation,
                SS::Registered,
            ),
            // A dead-but-still-connected node keeps receiving the
            // collector's broadcasts (tick and backpressure fan-out go
            // to every live connection, not just healthy sessions).
            s(SS::Dead, SE::SendTick, SA::DeliverTick, SS::Dead),
            s(SS::Dead, SE::SendDegrade, SA::WidenInterval, SS::Dead),
            s(SS::Dead, SE::SendRecover, SA::RestoreInterval, SS::Dead),
            s(SS::Dead, SE::RecvReportFresh, SA::CreditReport, SS::Dead),
            s(SS::Dead, SE::RecvReportStale, SA::ObserveStale, SS::Dead),
            s(SS::Dead, SE::MissDeadline, SA::NoteMiss, SS::Dead),
            s(SS::Dead, SE::ConfirmDead, SA::Ignore, SS::Dead),
            s(SS::Dead, SE::Repair, SA::RepairPlan, SS::Dead),
            s(SS::Dead, SE::MarkRecovered, SA::Reintegrate, SS::Ticking),
            s(SS::Dead, SE::ConnLost, SA::Ignore, SS::Dead),
            s(SS::Dead, SE::SendShutdown, SA::Drain, SS::Draining),
            // Draining: refuse new registrations, swallow stragglers,
            // close when the node hangs up.
            s(SS::Draining, SE::RecvHelloFresh, SA::Ignore, SS::Draining),
            s(SS::Draining, SE::RecvHelloHeld, SA::Ignore, SS::Draining),
            s(SS::Draining, SE::RecvReportFresh, SA::Ignore, SS::Draining),
            s(SS::Draining, SE::RecvReportStale, SA::Ignore, SS::Draining),
            s(SS::Draining, SE::SendShutdown, SA::Ignore, SS::Draining),
            s(SS::Draining, SE::ConnLost, SA::CloseSession, SS::Closed),
            s(SS::Closed, SE::ConnLost, SA::Ignore, SS::Closed),
            s(SS::Closed, SE::RecvHelloFresh, SA::Ignore, SS::Closed),
            s(SS::Closed, SE::RecvHelloHeld, SA::Ignore, SS::Closed),
            s(SS::Closed, SE::RecvReportFresh, SA::Ignore, SS::Closed),
            s(SS::Closed, SE::RecvReportStale, SA::Ignore, SS::Closed),
        ]);

        ProtocolSpec {
            client,
            session,
            arq: ArqParams {
                max_attempts: 3,
                retry_budget_enforced: true,
                channel_cap: 12,
                window_enforced: true,
            },
            dedup: DedupPolicy {
                incarnation_scoped: true,
            },
            barrier: BarrierPolicy {
                credit_stale_reports: false,
                confirm_after: 2,
            },
            fresh_bump: true,
            bounds: VerifyBounds::default(),
        }
    }

    /// Looks up the client table entry for `(state, event)`.
    pub fn client_step(
        &self,
        state: ClientState,
        event: ClientEvent,
    ) -> Option<(ClientAction, ClientState)> {
        self.client
            .iter()
            .find(|r| r.state == state && r.event == event)
            .map(|r| (r.action, r.next))
    }

    /// Looks up the session table entry for `(state, event)`.
    pub fn session_step(
        &self,
        state: SessionState,
        event: SessionEvent,
    ) -> Option<(SessionAction, SessionState)> {
        self.session
            .iter()
            .find(|r| r.state == state && r.event == event)
            .map(|r| (r.action, r.next))
    }

    /// Serializes the spec as pretty JSON.
    pub fn to_json(&self) -> Option<String> {
        serde_json::to_string_pretty(self).ok()
    }

    /// Parses a spec from JSON.
    pub fn from_json(text: &str) -> Result<ProtocolSpec, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn shipped_tables_are_unambiguous() {
        let spec = ProtocolSpec::shipped();
        for (i, a) in spec.client.iter().enumerate() {
            for b in &spec.client[i + 1..] {
                assert!(
                    !(a.state == b.state && a.event == b.event),
                    "duplicate client row {:?}/{:?}",
                    a.state,
                    a.event
                );
            }
        }
        for (i, a) in spec.session.iter().enumerate() {
            for b in &spec.session[i + 1..] {
                assert!(
                    !(a.state == b.state && a.event == b.event),
                    "duplicate session row {:?}/{:?}",
                    a.state,
                    a.event
                );
            }
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ProtocolSpec::shipped();
        let text = spec.to_json().unwrap();
        let back = ProtocolSpec::from_json(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn stale_frames_never_credit_and_never_resurrect() {
        let spec = ProtocolSpec::shipped();
        assert!(!spec.barrier.credit_stale_reports);
        let (action, next) = spec
            .session_step(SessionState::Dead, SessionEvent::RecvReportStale)
            .unwrap();
        assert_eq!(action, SessionAction::ObserveStale);
        assert_eq!(next, SessionState::Dead);
    }
}
