//! Exhaustive verification of a [`ProtocolSpec`] under lossy-channel
//! semantics.
//!
//! Three bounded-exhaustive explorations over a *closed* system built
//! from the spec — the first two instantiate the shared [`dfs`], the
//! third enumerates a fixed universe breadth-first:
//!
//! 1. **Control plane** (`verify_ctrl`): the runtime's own
//!    [`ClientMachine`] (one node supervisor) × [`SessionMachine`] (its
//!    collector session), both over the spec under test, so incarnation
//!    minting, echo and adoption are the code the node and the hub run.
//!    They talk over FIFO channels, with the channel faults the runtime
//!    tolerates — message drop via connection reset, process restart
//!    (a fresh `ClientMachine`), late/straggler delivery — interleaved
//!    against the epoch/barrier loop. Whether a stale report is credited
//!    (`credit_stale_reports`) is decided here: it is a corpus mutation
//!    point, and the runtime's `HealthMonitor` runs the shipped policy.
//! 2. **ARQ** (`verify_arq`): sender/receiver over a multiset
//!    channel with drop, duplication, reordering, and sender restart
//!    (sequence numbers restart at 1 in the new life — the exact
//!    seq-restart scenario), with the receiver's anti-replay window
//!    and the sender's rule that keeps live frames inside it. It runs
//!    twice: `arq` at a window the exploration's frames cannot
//!    overrun, so every frame of a life can be live at once, and
//!    `arq-w` at one they overrun, where the sender rule fires (see
//!    `explored_window`).
//! 3. **Dedup lattice** (`verify_dedup`): every insert sequence
//!    over a small (incarnation, seq) universe against the
//!    [`DedupModel`] laws, at a window the universe overruns.
//!
//! Properties proved (rule codes from `remo_core::validate`):
//! RA022 — every reachable non-terminal state has an enabled
//! transition; RA023 — no reachable delivery lands on an undefined
//! table entry, and no stale frame is ever treated as fresh evidence
//! (the straggler-resurrection / double-repair property); RA024 —
//! assigned incarnations grow strictly across fresh Hellos, adopted
//! incarnations never regress, and the dedup lattice never swallows a
//! current- or future-life frame its sender has not given up on;
//! RA025 — per-frame transmissions respect the retry budget, channels
//! stay within their declared caps, and dedup state within its window.
//!
//! Undefined entries are handled by kind: an undefined **message**
//! delivery is an RA023 finding (the message is dropped and
//! exploration continues, so one mutation yields one rule); an
//! undefined **internal** event (connection edges, fan-out) leaves
//! the machine unmoved — the resulting starvation surfaces as RA022.
//!
//! ```
//! use remo_check::verify::verify_with_depth;
//! use remo_runtime::spec::ProtocolSpec;
//!
//! let report = verify_with_depth(&ProtocolSpec::shipped(), 16);
//! assert!(report.is_clean());
//!
//! let mut buggy = ProtocolSpec::shipped();
//! buggy.dedup.incarnation_scoped = false; // the seq-restart dedup bug
//! let report = verify_with_depth(&buggy, 16);
//! assert!(report.findings.iter().any(|f| f.code == "RA024"));
//! ```

use crate::explore::{dfs, ExploreStats};
use remo_core::validate::{rules, Finding, RuleSet};
use remo_runtime::machine::{ClientMachine, DedupModel, HelloOutcome, SessionMachine};
use remo_runtime::spec::{
    ClientAction, ClientEvent, ClientState, ProtocolSpec, SessionAction, SessionEvent, SessionState,
};
use remo_runtime::transport::DEDUP_WINDOW;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// The full verification result.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Per-phase (`ctrl`, `arq`, `arq-w`, `dedup`) counters.
    pub phases: [(&'static str, ExploreStats); 4],
    /// Deduplicated findings across phases (empty = verified).
    pub findings: Vec<Finding>,
}

impl VerifyReport {
    /// Whether the spec verified with zero violations.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Summed counters across phases.
    pub fn totals(&self) -> ExploreStats {
        let mut t = ExploreStats::default();
        for (_, stats) in self.phases {
            t += stats;
        }
        t
    }
}

/// Collects findings with message-level dedup so a violation reached
/// through many interleavings reports once.
#[derive(Debug, Default)]
struct Sink {
    seen: BTreeSet<(String, String)>,
    findings: Vec<Finding>,
}

impl Sink {
    fn push(&mut self, name: &str, message: String) {
        if self.seen.insert((name.to_string(), message.clone())) {
            self.findings.extend(RuleSet::all().finding(name, message));
        }
    }
}

/// Verifies `spec` across all three phases. `depth` bounds the DFS
/// trace length (the state spaces are finite, so the default
/// [`verify`] bound is effectively "until closure").
pub fn verify_with_depth(spec: &ProtocolSpec, depth: usize) -> VerifyReport {
    let mut sink = Sink::default();
    let ctrl = verify_ctrl(spec, depth, &mut sink);
    let frames = spec.bounds.frames;
    let arq = verify_arq(spec, depth, DEDUP_WINDOW.min(frames.into()), &mut sink);
    let arq_w = verify_arq(spec, depth, explored_window(frames), &mut sink);
    let dedup = verify_dedup(spec, &mut sink);
    VerifyReport {
        phases: [
            ("ctrl", ctrl),
            ("arq", arq),
            ("arq-w", arq_w),
            ("dedup", dedup),
        ],
        findings: sink.findings,
    }
}

/// Verifies `spec` to state-space closure.
pub fn verify(spec: &ProtocolSpec) -> VerifyReport {
    verify_with_depth(spec, 100_000)
}

// =========================================================== ctrl product

/// Collector → node control frames (abstracted payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CMsg {
    Welcome { inc: u32 },
    Assign,
    Tick { epoch: u8 },
    DegradeOn,
    DegradeOff,
    Shutdown,
}

/// Node → collector control frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NMsg {
    Hello { inc: u32 },
    Report { epoch: u8 },
}

/// The closed-system state: the runtime's own supervisor and session
/// machines, both over the spec under test, and the world around them.
/// A process restart is a fresh [`ClientMachine`].
#[derive(Debug, Clone)]
struct Ctrl {
    client: ClientMachine,
    session: SessionMachine,
    world: World,
}

/// Everything around the two machines: the connection and its two FIFO
/// queues, the collector's epoch loop, the fault budgets, and what the
/// properties need remembered.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct World {
    last_fresh_grant: u32,
    fresh_evidence: bool,
    evidence_stale: bool,
    conn: bool,
    conn_registered: bool,
    c2n: Vec<CMsg>,
    n2c: Vec<NMsg>,
    epoch: u8,
    ticked: bool,
    credited: bool,
    misses: u8,
    degraded: bool,
    degrade_moved: bool,
    shutdown_sent: bool,
    collector_done: bool,
    restarts_left: u8,
    resets_left: u8,
}

/// What the explorer deduplicates a [`Ctrl`] on.
type CtrlKey = (ClientState, Option<u32>, SessionState, u32, World);

impl Ctrl {
    fn initial(spec: &Arc<ProtocolSpec>) -> Ctrl {
        Ctrl {
            client: ClientMachine::with_spec(Arc::clone(spec)),
            session: SessionMachine::with_spec(Arc::clone(spec)),
            world: World {
                restarts_left: spec.bounds.restarts,
                resets_left: spec.bounds.resets,
                ..World::default()
            },
        }
    }

    /// Each machine projected onto its state and incarnation (held or
    /// slot), and the world: the spec is the same in every state and
    /// the reject counters are not protocol state.
    fn key(&self) -> CtrlKey {
        (
            self.client.state(),
            self.client.held(),
            self.session.state(),
            self.session.slot(),
            self.world.clone(),
        )
    }

    fn terminal(&self) -> bool {
        self.world.collector_done
            && !self.world.conn
            && (self.client.state() == ClientState::Done
                || (self.client.state() == ClientState::Disconnected
                    && self.client.held().is_none()))
    }

    /// The connection closes: its queues are lost and the session sees
    /// `ConnLost`. The node side is the caller's: a drained node has
    /// stopped, a restarted one is a fresh machine.
    fn hang_up(&mut self) {
        self.world.conn = false;
        self.world.conn_registered = false;
        self.world.c2n.clear();
        self.world.n2c.clear();
        self.session.step(SessionEvent::ConnLost);
    }

    /// The connection goes away under both ends.
    fn drop_conn(&mut self) {
        self.hang_up();
        self.client.step(ClientEvent::ConnLost);
    }
}

impl World {
    /// The session admitted a Hello on `inc`: the Welcome goes out,
    /// chased by the Assign.
    fn admit(&mut self, inc: u32, spec: &ProtocolSpec, sink: &mut Sink) {
        self.conn_registered = true;
        self.c2n.push(CMsg::Welcome { inc });
        self.c2n.push(CMsg::Assign);
        self.check_caps(spec, sink);
    }

    fn check_caps(&self, spec: &ProtocolSpec, sink: &mut Sink) {
        let cap = spec.arq.channel_cap as usize;
        if self.c2n.len() > cap || self.n2c.len() > cap {
            sink.push(
                rules::UNBOUNDED_INFLIGHT,
                format!(
                    "ctrl: a control channel exceeded its declared cap of {cap} frames \
                     (collector→node {}, node→collector {})",
                    self.c2n.len(),
                    self.n2c.len()
                ),
            );
        }
    }
}

/// All successors of `s`, stepping the machines and recording
/// findings. An undefined message delivery is recorded and the
/// message dropped; an undefined internal event leaves its machine
/// unmoved.
fn ctrl_successors(s: &Ctrl, spec: &Arc<ProtocolSpec>, sink: &mut Sink) -> Vec<Ctrl> {
    let mut out = Vec::new();
    let w = &s.world;

    // Connect: the supervisor dials while the collector is alive. A
    // mutated Connected entry dials without a Hello.
    if !w.collector_done && !w.conn && s.client.state() == ClientState::Disconnected {
        let mut n = s.clone();
        n.world.conn = true;
        n.world.conn_registered = false;
        if n.client.step(ClientEvent::Connected) == Some(ClientAction::SendHello) {
            n.world.n2c.push(NMsg::Hello {
                inc: n.client.held().unwrap_or(0),
            });
            n.world.check_caps(spec, sink);
        }
        out.push(n);
    }

    // Deliver the head of the collector→node FIFO.
    if w.conn && !w.c2n.is_empty() {
        let mut n = s.clone();
        let msg = n.world.c2n.remove(0);
        let event = match msg {
            CMsg::Welcome { .. } => ClientEvent::RecvWelcome,
            CMsg::Assign => ClientEvent::RecvAssign,
            CMsg::Tick { .. } => ClientEvent::RecvTick,
            CMsg::DegradeOn | CMsg::DegradeOff => ClientEvent::RecvDegrade,
            CMsg::Shutdown => ClientEvent::RecvShutdown,
        };
        let held = n.client.held();
        match (n.client.step(event), msg) {
            (None, _) => {
                sink.push(
                    rules::UNEXPECTED_MESSAGE,
                    format!(
                        "ctrl: node in {:?} has no table entry for {event:?}",
                        n.client.state()
                    ),
                );
            }
            (Some(ClientAction::AdoptWelcome), CMsg::Welcome { inc }) => {
                if !n.client.adopt_incarnation(inc) {
                    sink.push(
                        rules::INCARNATION_REGRESSION,
                        format!(
                            "ctrl: Welcome regressed the node's incarnation \
                             from {held:?} to {inc}"
                        ),
                    );
                }
            }
            (Some(ClientAction::RunTick), CMsg::Tick { epoch }) => {
                n.world.n2c.push(NMsg::Report { epoch });
                n.world.check_caps(spec, sink);
            }
            (Some(_), _) => {}
        }
        out.push(n);
    }

    // Deliver the head of the node→collector FIFO.
    if w.conn && !w.n2c.is_empty() {
        let mut n = s.clone();
        match n.world.n2c.remove(0) {
            NMsg::Hello { inc } => match n.session.on_hello(inc) {
                HelloOutcome::Rejected => {
                    let event = if inc == 0 {
                        SessionEvent::RecvHelloFresh
                    } else {
                        SessionEvent::RecvHelloHeld
                    };
                    sink.push(
                        rules::UNEXPECTED_MESSAGE,
                        format!(
                            "ctrl: session in {:?} has no table entry for {event:?}",
                            n.session.state()
                        ),
                    );
                }
                HelloOutcome::Minted(granted) => {
                    let last = n.world.last_fresh_grant;
                    if granted <= last {
                        sink.push(
                            rules::INCARNATION_REGRESSION,
                            format!(
                                "ctrl: fresh Hello granted incarnation {granted}, not strictly \
                                 above the previous grant {last}"
                            ),
                        );
                    }
                    n.world.last_fresh_grant = last.max(granted);
                    n.world.admit(granted, spec, sink);
                }
                HelloOutcome::Echoed(held) => n.world.admit(held, spec, sink),
                // Refused (e.g. draining): the collector hangs up.
                HelloOutcome::Refused => n.drop_conn(),
            },
            NMsg::Report { epoch } => {
                let stale = !(w.ticked && epoch == w.epoch);
                let as_fresh = !stale || spec.barrier.credit_stale_reports;
                let event = if as_fresh {
                    SessionEvent::RecvReportFresh
                } else {
                    SessionEvent::RecvReportStale
                };
                match n.session.step(event) {
                    None => {
                        sink.push(
                            rules::UNEXPECTED_MESSAGE,
                            format!(
                                "ctrl: session in {:?} has no table entry for {event:?} \
                                 (report epoch {epoch}, barrier epoch {})",
                                n.session.state(),
                                w.epoch
                            ),
                        );
                    }
                    Some(SessionAction::CreditReport) => {
                        n.world.credited = true;
                        if n.session.state() == SessionState::Dead {
                            n.world.fresh_evidence = true;
                            n.world.evidence_stale = stale;
                        }
                    }
                    Some(_) => {}
                }
            }
        }
        out.push(n);
    }

    // Tick: the epoch loop advances and fans out to the registry.
    if !w.collector_done && !w.shutdown_sent && !w.ticked && w.epoch < spec.bounds.epochs {
        let mut n = s.clone();
        n.world.epoch += 1;
        n.world.ticked = true;
        n.world.credited = false;
        n.world.degrade_moved = false;
        if n.world.conn
            && n.world.conn_registered
            && n.session.step(SessionEvent::SendTick) == Some(SessionAction::DeliverTick)
        {
            n.world.c2n.push(CMsg::Tick {
                epoch: n.world.epoch,
            });
            n.world.check_caps(spec, sink);
        }
        out.push(n);
    }

    // Barrier: the report deadline expires and health verdicts land.
    if w.ticked {
        let mut n = s.clone();
        n.world.ticked = false;
        if n.session.state() == SessionState::Dead && n.world.fresh_evidence {
            if n.world.evidence_stale {
                sink.push(
                    rules::UNEXPECTED_MESSAGE,
                    "ctrl: a stale straggler report resurrected a confirmed-dead \
                     session (a second repair of already-repaired load follows)"
                        .to_string(),
                );
            }
            n.session.step(SessionEvent::MarkRecovered);
            n.world.fresh_evidence = false;
            n.world.evidence_stale = false;
            n.world.misses = 0;
        } else if n.world.credited {
            n.world.misses = 0;
        } else {
            n.world.misses = (n.world.misses + 1).min(spec.barrier.confirm_after);
            n.session.step(SessionEvent::MissDeadline);
            if n.world.misses >= spec.barrier.confirm_after
                && n.session.state() != SessionState::Dead
            {
                n.session.step(SessionEvent::ConfirmDead);
                n.session.step(SessionEvent::Repair);
            }
        }
        out.push(n);
    }

    // Degrade fan-out: at most one backpressure move per epoch.
    if !w.collector_done && !w.shutdown_sent && !w.degrade_moved && w.conn && w.conn_registered {
        let mut n = s.clone();
        n.world.degrade_moved = true;
        n.world.degraded = !w.degraded;
        if w.degraded {
            n.session.step(SessionEvent::SendRecover);
            n.world.c2n.push(CMsg::DegradeOff);
        } else {
            n.session.step(SessionEvent::SendDegrade);
            n.world.c2n.push(CMsg::DegradeOn);
        }
        n.world.check_caps(spec, sink);
        out.push(n);
    }

    // Shutdown broadcast after the last barrier closes.
    if !w.collector_done && !w.shutdown_sent && w.epoch == spec.bounds.epochs && !w.ticked {
        let mut n = s.clone();
        n.world.shutdown_sent = true;
        if n.world.conn && n.world.conn_registered {
            n.session.step(SessionEvent::SendShutdown);
            n.world.c2n.push(CMsg::Shutdown);
            n.world.check_caps(spec, sink);
        }
        out.push(n);
    }

    // Collector process exit: after the broadcast drains.
    if w.shutdown_sent && !w.collector_done && w.c2n.is_empty() {
        let mut n = s.clone();
        n.world.collector_done = true;
        if n.world.conn {
            n.drop_conn();
        }
        out.push(n);
    }

    // Node hangs up after draining.
    if w.conn && s.client.state() == ClientState::Done {
        let mut n = s.clone();
        n.hang_up();
        out.push(n);
    }

    // Connection reset: both sides observe ConnLost, queues are lost,
    // the process (and its held incarnation) survives.
    if w.conn && w.resets_left > 0 {
        let mut n = s.clone();
        n.world.resets_left -= 1;
        n.drop_conn();
        out.push(n);
    }

    // Process restart: a brand-new supervisor with no held state.
    if w.restarts_left > 0 && s.client.state() != ClientState::Done {
        let mut n = s.clone();
        n.world.restarts_left -= 1;
        if n.world.conn {
            n.hang_up();
        }
        n.client = ClientMachine::with_spec(Arc::clone(spec));
        out.push(n);
    }

    // Give up: a registered supervisor stops redialing once the
    // collector is gone.
    if w.collector_done
        && s.client.state() == ClientState::Disconnected
        && s.client.held().is_some()
    {
        let mut n = s.clone();
        n.client.step(ClientEvent::GiveUp);
        out.push(n);
    }

    out
}

/// Hands successors to the explorer unlabelled (findings here name
/// states, not paths) and last-first: the order the phases have always
/// walked them, which fixes the order findings are reported in and
/// what a `--depth` bound reaches.
fn walk_order<S>(succs: Vec<S>) -> Vec<((), S)> {
    succs.into_iter().rev().map(|next| ((), next)).collect()
}

/// Explores the control-plane product automaton.
fn verify_ctrl(spec: &ProtocolSpec, depth: usize, sink: &mut Sink) -> ExploreStats {
    let spec = Arc::new(spec.clone());
    dfs(Ctrl::initial(&spec), depth, Ctrl::key, |state, _: &[()]| {
        let succs = ctrl_successors(state, &spec, sink);
        if succs.is_empty() && !state.terminal() {
            sink.push(
                rules::PROTOCOL_DEADLOCK,
                format!(
                    "ctrl: stuck non-terminal state (client {:?}, session {:?}, \
                     conn {}, epoch {}) has no enabled transition",
                    state.client.state(),
                    state.session.state(),
                    state.world.conn,
                    state.world.epoch
                ),
            );
        }
        walk_order(succs)
    })
}

// ================================================================== arq

const ARQ_NET_CAP: usize = 3;

/// A dedup window an exploration producing `seqs` seqs overruns: the
/// runtime's, shrunk to one seq fewer (but at least one). The window
/// rules compare seq distances with the window and nothing else, so
/// what a window of `W` loses, a window of `W' < W` loses the same
/// way given `W' + 1` seqs; a window the bounds cannot overrun proves
/// nothing about it.
fn explored_window(seqs: u8) -> u64 {
    DEDUP_WINDOW.min(u64::from(seqs.saturating_sub(1)).max(1))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Pkt {
    Data { inc: u8, seq: u8 },
    Ack { inc: u8, seq: u8 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct FrameSt {
    seq: u8,
    attempts: u8,
    acked: bool,
    abandoned: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Arq {
    /// The dedup window both ends run at (constant over a run).
    window: u64,
    inc: u8,
    produced: u8,
    frames: Vec<FrameSt>,
    receiver: DedupModel,
    delivered: BTreeSet<(u8, u8)>,
    net: Vec<Pkt>,
    dups_left: u8,
    restarts_left: u8,
}

impl Arq {
    fn initial(spec: &ProtocolSpec, window: u64) -> Arq {
        Arq {
            window,
            inc: 1,
            produced: 0,
            frames: Vec::new(),
            receiver: DedupModel::with_window(spec.dedup, window),
            delivered: BTreeSet::new(),
            net: Vec::new(),
            dups_left: spec.bounds.dups,
            restarts_left: spec.bounds.restarts,
        }
    }

    /// Whether the sender is done with frame `(inc, seq)`: acked or
    /// abandoned in this life, or of a past life (a restart drops every
    /// unacked frame, and the crash counts that loss). Dedup rejecting
    /// such a frame loses nothing new — an acked frame that was never
    /// delivered was lost at the rejection that earned the ack, and
    /// that one is checked.
    fn resolved(&self, inc: u8, seq: u8) -> bool {
        inc < self.inc
            || self
                .frames
                .iter()
                .any(|f| f.seq == seq && (f.acked || f.abandoned))
    }

    fn terminal(&self, spec: &ProtocolSpec) -> bool {
        self.produced == spec.bounds.frames
            && self.restarts_left == 0
            && self.net.is_empty()
            && self.frames.iter().all(|f| f.acked || f.abandoned)
    }
}

fn arq_successors(s: &Arq, spec: &ProtocolSpec, sink: &mut Sink) -> Vec<Arq> {
    let mut out = Vec::new();
    let max = spec.arq.max_attempts;

    // Produce the next frame of this life (first transmission). When
    // the spec enforces the window, issuing `seq` first abandons every
    // unresolved frame at or below `seq − window`.
    if s.produced < spec.bounds.frames && s.net.len() < ARQ_NET_CAP {
        let mut n = s.clone();
        n.produced += 1;
        let seq = n.produced;
        if spec.arq.window_enforced {
            for f in &mut n.frames {
                if !f.acked && u64::from(f.seq) + s.window <= u64::from(seq) {
                    f.abandoned = true;
                }
            }
        }
        n.frames.push(FrameSt {
            seq,
            attempts: 1,
            acked: false,
            abandoned: false,
        });
        n.net.push(Pkt::Data { inc: n.inc, seq });
        out.push(n);
    }

    for (i, f) in s.frames.iter().enumerate() {
        if f.acked || f.abandoned {
            continue;
        }
        let budget_ok = f.attempts < max;
        // Retransmit: within budget always; past it only when the
        // spec (buggily) fails to enforce the budget — RA025.
        if s.net.len() < ARQ_NET_CAP && (budget_ok || !spec.arq.retry_budget_enforced) {
            let mut n = s.clone();
            if !budget_ok {
                sink.push(
                    rules::UNBOUNDED_INFLIGHT,
                    format!(
                        "arq: frame seq {} retransmitted past the {max}-attempt retry \
                         budget; the unacked set never drains",
                        f.seq
                    ),
                );
            }
            n.frames[i].attempts = (f.attempts + 1).min(max + 1);
            n.net.push(Pkt::Data {
                inc: n.inc,
                seq: f.seq,
            });
            out.push(n);
        }
        // Abandon once the budget is spent.
        if !budget_ok && spec.arq.retry_budget_enforced {
            let mut n = s.clone();
            n.frames[i].abandoned = true;
            out.push(n);
        }
    }

    for (k, pkt) in s.net.iter().enumerate() {
        // Deliver (any index: the network reorders freely).
        let mut n = s.clone();
        let pkt = *pkt;
        n.net.remove(k);
        match pkt {
            Pkt::Data { inc, seq } => {
                let watermark = s.receiver.incarnation();
                let was_delivered = s.delivered.contains(&(inc, seq));
                let accepted = n.receiver.insert(u32::from(inc), u64::from(seq));
                if accepted {
                    if was_delivered {
                        sink.push(
                            rules::UNEXPECTED_MESSAGE,
                            format!(
                                "arq: frame (inc {inc}, seq {seq}) accepted twice — \
                                 duplicate delivery reached the application"
                            ),
                        );
                    }
                    n.delivered.insert((inc, seq));
                } else if !was_delivered && u32::from(inc) >= watermark && !s.resolved(inc, seq) {
                    // Only a scoped window is this life's own: an
                    // unscoped one expires a restarted sender's seqs
                    // against its past life's top, the seq-restart
                    // swallow below.
                    let own_window = spec.dedup.incarnation_scoped && u32::from(inc) == watermark;
                    let message = if own_window && s.receiver.expired(seq.into()) {
                        format!(
                            "arq: live frame (inc {inc}, seq {seq}) arrived below the dedup \
                             window and was swallowed — re-acked as a replay, so its sender \
                             counts it delivered"
                        )
                    } else {
                        format!(
                            "arq: fresh frame (inc {inc}, seq {seq}) swallowed by dedup — \
                             a restarted sender's first frames are silently lost"
                        )
                    };
                    sink.push(rules::INCARNATION_REGRESSION, message);
                }
                if n.net.len() < ARQ_NET_CAP {
                    n.net.push(Pkt::Ack { inc, seq });
                }
            }
            Pkt::Ack { inc, seq } => {
                if inc == n.inc {
                    for f in &mut n.frames {
                        if f.seq == seq && !f.abandoned {
                            f.acked = true;
                        }
                    }
                }
            }
        }
        out.push(n);

        // Drop.
        let mut n = s.clone();
        n.net.remove(k);
        out.push(n);

        // Duplicate.
        if s.dups_left > 0 && s.net.len() < ARQ_NET_CAP {
            let mut n = s.clone();
            n.dups_left -= 1;
            n.net.push(pkt);
            out.push(n);
        }
    }

    // Sender restart: new incarnation, sequence numbers start over,
    // the old life's packets stay in flight.
    if s.restarts_left > 0 {
        let mut n = s.clone();
        n.restarts_left -= 1;
        n.inc += 1;
        n.produced = 0;
        n.frames.clear();
        out.push(n);
    }

    out
}

/// Explores the ARQ sender/receiver automaton with both ends at a
/// dedup window of `window` seqs.
fn verify_arq(spec: &ProtocolSpec, depth: usize, window: u64, sink: &mut Sink) -> ExploreStats {
    dfs(
        Arq::initial(spec, window),
        depth,
        Arq::clone,
        |state, _: &[()]| {
            let succs = arq_successors(state, spec, sink);
            if succs.is_empty() && !state.terminal(spec) {
                let unresolved = state.frames.iter().filter(|f| !f.acked && !f.abandoned);
                sink.push(
                    rules::PROTOCOL_DEADLOCK,
                    format!(
                        "arq: stuck non-terminal state (inc {}, {} frames unresolved)",
                        state.inc,
                        unresolved.count()
                    ),
                );
            }
            walk_order(succs)
        },
    )
}

// ================================================================ dedup

/// Exhaustively enumerates insert sequences over a small
/// (incarnation, seq) universe and checks the lattice laws, at a
/// window the universe's seqs overrun.
fn verify_dedup(spec: &ProtocolSpec, sink: &mut Sink) -> ExploreStats {
    const INCS: [u8; 2] = [1, 2];
    const SEQS: [u8; 3] = [1, 2, 3];
    const DEPTH: usize = 4;
    let window = explored_window(SEQS.len() as u8);

    let mut stats = ExploreStats::default();
    let universe: Vec<(u8, u8)> = INCS
        .iter()
        .flat_map(|&i| SEQS.iter().map(move |&q| (i, q)))
        .collect();

    // (model, accepted ground truth) pairs, expanded breadth-first;
    // dedup collapses permutations that reach the same lattice state.
    let mut seen: HashSet<(DedupModel, BTreeSet<(u8, u8)>)> = HashSet::new();
    let root = (DedupModel::with_window(spec.dedup, window), BTreeSet::new());
    seen.insert(root.clone());
    stats.visited = 1;
    let mut frontier = vec![root];
    for _ in 0..DEPTH {
        let mut next_frontier = Vec::new();
        for (model, accepted) in &frontier {
            for &(inc, seq) in &universe {
                stats.expanded += 1;
                let mut m = model.clone();
                let mut acc = accepted.clone();
                let watermark = m.incarnation();
                let max_inc_accepted = acc.iter().map(|&(i, _)| i).max().unwrap_or(0);
                let fresh = inc > max_inc_accepted
                    || (inc == max_inc_accepted && !acc.contains(&(inc, seq)));
                // Below the window of its own life: counts as seen.
                let top = acc
                    .iter()
                    .filter(|&&(i, _)| i == inc)
                    .map(|&(_, q)| q)
                    .max()
                    .unwrap_or(0);
                let expired = u64::from(seq) + window <= u64::from(top);
                let pre = m.contains(u32::from(inc), u64::from(seq));
                let r = m.insert(u32::from(inc), u64::from(seq));
                if m.incarnation() < watermark {
                    sink.push(
                        rules::INCARNATION_REGRESSION,
                        format!(
                            "dedup: watermark regressed from {watermark} to {} on \
                             insert (inc {inc}, seq {seq})",
                            m.incarnation()
                        ),
                    );
                }
                if r && pre {
                    sink.push(
                        rules::UNEXPECTED_MESSAGE,
                        format!(
                            "dedup: insert (inc {inc}, seq {seq}) accepted a frame \
                             contains() already reported seen"
                        ),
                    );
                }
                if !r && fresh && !expired && u32::from(inc) >= watermark {
                    sink.push(
                        rules::INCARNATION_REGRESSION,
                        format!(
                            "dedup: never-accepted frame (inc {inc}, seq {seq}) from a \
                             current-or-newer life rejected — swallowed by a stale window"
                        ),
                    );
                }
                if r && acc.contains(&(inc, seq)) {
                    sink.push(
                        rules::UNEXPECTED_MESSAGE,
                        format!("dedup: frame (inc {inc}, seq {seq}) accepted twice"),
                    );
                }
                if r {
                    acc.insert((inc, seq));
                }
                if m.tracked() as u64 > window {
                    sink.push(
                        rules::UNBOUNDED_INFLIGHT,
                        format!(
                            "dedup: {} seqs held after insert (inc {inc}, seq {seq}), past \
                             the {}-seq window",
                            m.tracked(),
                            window
                        ),
                    );
                }
                let state = (m, acc);
                if seen.insert(state.clone()) {
                    stats.visited += 1;
                    next_frontier.push(state);
                } else {
                    stats.deduped += 1;
                }
            }
        }
        frontier = next_frontier;
    }
    stats
}

/// Full closure in release; a bounded dive in debug builds so plain
/// `cargo test` stays fast. Depth 20 is past every corpus trip point
/// (the deepest, the RA022 stuck state, needs 14) with margin.
#[cfg(test)]
pub(crate) fn test_verify(spec: &ProtocolSpec) -> VerifyReport {
    if cfg!(debug_assertions) {
        verify_with_depth(spec, 20)
    } else {
        verify(spec)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn shipped_spec_verifies_clean() {
        let report = test_verify(&ProtocolSpec::shipped());
        assert!(
            report.is_clean(),
            "shipped spec must verify with zero violations: {:?}",
            report.findings
        );
        let totals = report.totals();
        assert!(totals.visited > 100, "exploration must be non-trivial");
        assert!(totals.deduped > 0, "interleavings must collapse");
        for (name, stats) in report.phases {
            assert!(stats.visited > 0, "phase {name} explored nothing");
        }
    }

    /// The shipped spec's per-phase `(visited, expanded, deduped)` at
    /// `--depth 14`, and the control-plane phase's at closure: a change
    /// to the stepped machines, the product or the explorer moves them.
    #[test]
    fn shipped_exploration_is_pinned() {
        let spec = ProtocolSpec::shipped();
        let counts =
            |(name, s): (&'static str, ExploreStats)| (name, s.visited, s.expanded, s.deduped);
        let report = verify_with_depth(&spec, 14);
        assert_eq!(
            report.phases.map(counts),
            [
                ("ctrl", 6_806, 15_933, 9_128),
                ("arq", 33_140, 161_444, 128_305),
                ("arq-w", 25_453, 116_393, 90_941),
                ("dedup", 57, 252, 196),
            ]
        );
        let closure = verify_ctrl(&spec, 100_000, &mut Sink::default());
        assert_eq!(counts(("ctrl", closure)), ("ctrl", 15_847, 41_419, 25_573));
    }

    #[test]
    fn conservation_of_transitions() {
        let report = test_verify(&ProtocolSpec::shipped());
        for (name, stats) in report.phases {
            // Every applied transition either discovers a state or
            // lands on a known one.
            let landed = stats.visited - 1 + stats.deduped;
            assert_eq!(stats.expanded, landed, "phase {name}: {stats:?}");
        }
    }
}
