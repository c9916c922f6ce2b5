//! Exhaustive verification of a [`ProtocolSpec`] under lossy-channel
//! semantics.
//!
//! Three bounded-exhaustive explorations over a *closed* system built
//! from the spec tables themselves — the first two instantiate the
//! shared [`remo_core::explore`] DFS with the state as its own dedup
//! key, the third enumerates a fixed universe breadth-first:
//!
//! 1. **Control plane** (`verify_ctrl`): one node supervisor × one
//!    collector session over FIFO channels, with the channel faults
//!    the runtime tolerates — message drop via connection reset,
//!    process restart with a fresh incarnation, late/straggler
//!    delivery — interleaved against the epoch/barrier loop.
//! 2. **ARQ** (`verify_arq`): sender/receiver over a multiset
//!    channel with drop, duplication, reordering, and sender restart
//!    (sequence numbers restart at 1 in the new life — the exact
//!    PR 9 scenario).
//! 3. **Dedup lattice** (`verify_dedup`): every insert sequence
//!    over a small (incarnation, seq) universe against the
//!    [`DedupModel`] laws.
//!
//! Properties proved (rule codes from `remo_core::validate`):
//! RA022 — every reachable non-terminal state has an enabled
//! transition; RA023 — no reachable delivery lands on an undefined
//! table entry, and no stale frame is ever treated as fresh evidence
//! (the straggler-resurrection / double-repair property); RA024 —
//! assigned incarnations grow strictly across fresh Hellos, adopted
//! incarnations never regress, and the dedup lattice never swallows a
//! current- or future-life frame; RA025 — per-frame transmissions
//! respect the retry budget and channels stay within their declared
//! caps.
//!
//! Undefined entries are handled by kind: an undefined **message**
//! delivery is an RA023 finding (the message is dropped and
//! exploration continues, so one mutation yields one rule); an
//! undefined **internal** event (connection edges, fan-out) leaves
//! the machine unmoved — the resulting starvation surfaces as RA022.

use crate::machine::DedupModel;
use crate::spec::{
    ClientAction, ClientEvent, ClientState, ProtocolSpec, SessionAction, SessionEvent, SessionState,
};
use remo_core::explore::{explore, ExploreStats};
use remo_core::validate::{rule, rules, Finding};
use std::collections::{BTreeSet, HashSet};

/// The full verification result.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Per-phase (`ctrl`, `arq`, `dedup`) counters.
    pub phases: [(&'static str, ExploreStats); 3],
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

fn finding(name: &str, message: String) -> Finding {
    match rule(name) {
        Some(meta) => Finding::new(meta, message),
        None => Finding {
            rule: name.to_string(),
            code: "RA000".to_string(),
            message,
            ..Finding::default()
        },
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
            self.findings.push(finding(name, message));
        }
    }
}

/// Verifies `spec` across all three phases. `depth` bounds the DFS
/// trace length (the state spaces are finite, so the default
/// [`verify`] bound is effectively "until closure").
pub fn verify_with_depth(spec: &ProtocolSpec, depth: usize) -> VerifyReport {
    let mut sink = Sink::default();
    let ctrl = verify_ctrl(spec, depth, &mut sink);
    let arq = verify_arq(spec, depth, &mut sink);
    let dedup = verify_dedup(spec, &mut sink);
    VerifyReport {
        phases: [("ctrl", ctrl), ("arq", arq), ("dedup", dedup)],
        findings: sink.findings,
    }
}

/// Verifies `spec` to state-space closure.
pub fn verify(spec: &ProtocolSpec) -> VerifyReport {
    verify_with_depth(spec, 100_000)
}

// =========================================================== ctrl product

/// Collector → node control frames (abstracted payloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum CMsg {
    Welcome { inc: u8 },
    Assign,
    Tick { epoch: u8 },
    DegradeOn,
    DegradeOff,
    Shutdown,
}

/// Node → collector control frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum NMsg {
    Hello { inc: u8 },
    Report { epoch: u8 },
}

/// The closed-system state: one supervisor, one session, two FIFO
/// queues, the collector's epoch loop, and the fault budgets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Ctrl {
    client: ClientState,
    held: Option<u8>,
    registered_once: bool,
    session: SessionState,
    slot: u8,
    last_fresh_grant: u8,
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

impl Ctrl {
    fn initial(spec: &ProtocolSpec) -> Ctrl {
        Ctrl {
            client: ClientState::Disconnected,
            held: None,
            registered_once: false,
            session: SessionState::Listening,
            slot: 0,
            last_fresh_grant: 0,
            fresh_evidence: false,
            evidence_stale: false,
            conn: false,
            conn_registered: false,
            c2n: Vec::new(),
            n2c: Vec::new(),
            epoch: 0,
            ticked: false,
            credited: false,
            misses: 0,
            degraded: false,
            degrade_moved: false,
            shutdown_sent: false,
            collector_done: false,
            restarts_left: spec.bounds.restarts,
            resets_left: spec.bounds.resets,
        }
    }

    fn terminal(&self) -> bool {
        self.collector_done
            && !self.conn
            && (self.client == ClientState::Done
                || (self.client == ClientState::Disconnected && !self.registered_once))
    }

    /// Steps the session table for an internal (non-message) event;
    /// an undefined entry leaves the machine unmoved (starvation is
    /// RA022's job, not RA023's).
    fn session_internal(&mut self, spec: &ProtocolSpec, event: SessionEvent) {
        if let Some((_, next)) = spec.session_step(self.session, event) {
            self.session = next;
        }
    }

    /// Steps the client table for an internal event.
    fn client_internal(&mut self, spec: &ProtocolSpec, event: ClientEvent) {
        if let Some((_, next)) = spec.client_step(self.client, event) {
            self.client = next;
        }
    }

    fn drop_conn(&mut self, spec: &ProtocolSpec) {
        self.conn = false;
        self.conn_registered = false;
        self.c2n.clear();
        self.n2c.clear();
        self.client_internal(spec, ClientEvent::ConnLost);
        self.session_internal(spec, SessionEvent::ConnLost);
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

/// All successors of `s`, applying spec semantics and recording
/// findings. A successor equal to `None` means the transition
/// recorded a violation and the offending input was dropped.
fn ctrl_successors(s: &Ctrl, spec: &ProtocolSpec, sink: &mut Sink) -> Vec<Ctrl> {
    let mut out = Vec::new();

    // Connect: the supervisor dials while the collector is alive.
    if !s.collector_done && !s.conn && s.client == ClientState::Disconnected {
        let mut n = s.clone();
        n.conn = true;
        n.conn_registered = false;
        if let Some((ClientAction::SendHello, next)) =
            spec.client_step(n.client, ClientEvent::Connected)
        {
            n.client = next;
            n.n2c.push(NMsg::Hello {
                inc: n.held.unwrap_or(0),
            });
            n.check_caps(spec, sink);
        } else {
            // Undefined/mutated Connected entry: dial without Hello.
            n.client_internal(spec, ClientEvent::Connected);
        }
        out.push(n);
    }

    // Deliver the head of the collector→node FIFO.
    if s.conn && !s.c2n.is_empty() {
        let mut n = s.clone();
        let msg = n.c2n.remove(0);
        let event = match msg {
            CMsg::Welcome { .. } => ClientEvent::RecvWelcome,
            CMsg::Assign => ClientEvent::RecvAssign,
            CMsg::Tick { .. } => ClientEvent::RecvTick,
            CMsg::DegradeOn | CMsg::DegradeOff => ClientEvent::RecvDegrade,
            CMsg::Shutdown => ClientEvent::RecvShutdown,
        };
        match spec.client_step(n.client, event) {
            None => {
                sink.push(
                    rules::UNEXPECTED_MESSAGE,
                    format!(
                        "ctrl: node in {:?} has no table entry for {event:?}",
                        n.client
                    ),
                );
            }
            Some((action, next)) => {
                n.client = next;
                match (action, msg) {
                    (ClientAction::AdoptWelcome, CMsg::Welcome { inc }) => {
                        if n.held.is_some_and(|h| inc < h) {
                            sink.push(
                                rules::INCARNATION_REGRESSION,
                                format!(
                                    "ctrl: Welcome regressed the node's incarnation \
                                     from {:?} to {inc}",
                                    n.held
                                ),
                            );
                        }
                        n.held = Some(inc.max(n.held.unwrap_or(0)));
                        n.registered_once = true;
                    }
                    (ClientAction::RunTick, CMsg::Tick { epoch }) => {
                        n.n2c.push(NMsg::Report { epoch });
                        n.check_caps(spec, sink);
                    }
                    _ => {}
                }
            }
        }
        out.push(n);
    }

    // Deliver the head of the node→collector FIFO.
    if s.conn && !s.n2c.is_empty() {
        let mut n = s.clone();
        let msg = n.n2c.remove(0);
        match msg {
            NMsg::Hello { inc } => {
                let event = if inc == 0 {
                    SessionEvent::RecvHelloFresh
                } else {
                    SessionEvent::RecvHelloHeld
                };
                match spec.session_step(n.session, event) {
                    None => {
                        sink.push(
                            rules::UNEXPECTED_MESSAGE,
                            format!(
                                "ctrl: session in {:?} has no table entry for {event:?}",
                                n.session
                            ),
                        );
                    }
                    Some((SessionAction::AssignFreshIncarnation, next)) => {
                        n.session = next;
                        if spec.fresh_bump {
                            n.slot += 1;
                        }
                        if n.slot <= n.last_fresh_grant {
                            sink.push(
                                rules::INCARNATION_REGRESSION,
                                format!(
                                    "ctrl: fresh Hello granted incarnation {}, not strictly \
                                     above the previous grant {}",
                                    n.slot, n.last_fresh_grant
                                ),
                            );
                        }
                        n.last_fresh_grant = n.last_fresh_grant.max(n.slot);
                        n.conn_registered = true;
                        n.c2n.push(CMsg::Welcome { inc: n.slot });
                        n.session_internal(spec, SessionEvent::SendAssign);
                        n.c2n.push(CMsg::Assign);
                        n.check_caps(spec, sink);
                    }
                    Some((SessionAction::KeepHeldIncarnation, next)) => {
                        n.session = next;
                        n.slot = n.slot.max(inc);
                        n.conn_registered = true;
                        // Welcome echoes the *held* incarnation, not the
                        // slot max: a stale life must stay on its own
                        // incarnation rather than adopt a newer one.
                        n.c2n.push(CMsg::Welcome { inc });
                        n.session_internal(spec, SessionEvent::SendAssign);
                        n.c2n.push(CMsg::Assign);
                        n.check_caps(spec, sink);
                    }
                    Some((_, next)) => {
                        // Refused (e.g. draining): the collector hangs up.
                        n.session = next;
                        n.drop_conn(spec);
                    }
                }
            }
            NMsg::Report { epoch } => {
                let stale = !(s.ticked && epoch == s.epoch);
                let as_fresh = !stale || spec.barrier.credit_stale_reports;
                let event = if as_fresh {
                    SessionEvent::RecvReportFresh
                } else {
                    SessionEvent::RecvReportStale
                };
                match spec.session_step(n.session, event) {
                    None => {
                        sink.push(
                            rules::UNEXPECTED_MESSAGE,
                            format!(
                                "ctrl: session in {:?} has no table entry for {event:?} \
                                 (report epoch {epoch}, barrier epoch {})",
                                n.session, s.epoch
                            ),
                        );
                    }
                    Some((action, next)) => {
                        n.session = next;
                        if action == SessionAction::CreditReport {
                            n.credited = true;
                            if n.session == SessionState::Dead {
                                n.fresh_evidence = true;
                                n.evidence_stale = stale;
                            }
                        }
                    }
                }
            }
        }
        out.push(n);
    }

    // Tick: the epoch loop advances and fans out to the registry.
    if !s.collector_done && !s.shutdown_sent && !s.ticked && s.epoch < spec.bounds.epochs {
        let mut n = s.clone();
        n.epoch += 1;
        n.ticked = true;
        n.credited = false;
        n.degrade_moved = false;
        if n.conn && n.conn_registered {
            if let Some((SessionAction::DeliverTick, next)) =
                spec.session_step(n.session, SessionEvent::SendTick)
            {
                n.session = next;
                n.c2n.push(CMsg::Tick { epoch: n.epoch });
                n.check_caps(spec, sink);
            } else {
                n.session_internal(spec, SessionEvent::SendTick);
            }
        }
        out.push(n);
    }

    // Barrier: the report deadline expires and health verdicts land.
    if s.ticked {
        let mut n = s.clone();
        n.ticked = false;
        if n.session == SessionState::Dead && n.fresh_evidence {
            if n.evidence_stale {
                sink.push(
                    rules::UNEXPECTED_MESSAGE,
                    "ctrl: a stale straggler report resurrected a confirmed-dead \
                     session (a second repair of already-repaired load follows)"
                        .to_string(),
                );
            }
            n.session_internal(spec, SessionEvent::MarkRecovered);
            n.fresh_evidence = false;
            n.evidence_stale = false;
            n.misses = 0;
        } else if n.credited {
            n.misses = 0;
        } else {
            n.misses = (n.misses + 1).min(spec.barrier.confirm_after);
            n.session_internal(spec, SessionEvent::MissDeadline);
            if n.misses >= spec.barrier.confirm_after && n.session != SessionState::Dead {
                n.session_internal(spec, SessionEvent::ConfirmDead);
                n.session_internal(spec, SessionEvent::Repair);
            }
        }
        out.push(n);
    }

    // Degrade fan-out: at most one backpressure move per epoch.
    if !s.collector_done && !s.shutdown_sent && !s.degrade_moved && s.conn && s.conn_registered {
        let mut n = s.clone();
        n.degrade_moved = true;
        if s.degraded {
            n.degraded = false;
            n.session_internal(spec, SessionEvent::SendRecover);
            n.c2n.push(CMsg::DegradeOff);
        } else {
            n.degraded = true;
            n.session_internal(spec, SessionEvent::SendDegrade);
            n.c2n.push(CMsg::DegradeOn);
        }
        n.check_caps(spec, sink);
        out.push(n);
    }

    // Shutdown broadcast after the last barrier closes.
    if !s.collector_done && !s.shutdown_sent && s.epoch == spec.bounds.epochs && !s.ticked {
        let mut n = s.clone();
        n.shutdown_sent = true;
        if n.conn && n.conn_registered {
            n.session_internal(spec, SessionEvent::SendShutdown);
            n.c2n.push(CMsg::Shutdown);
            n.check_caps(spec, sink);
        }
        out.push(n);
    }

    // Collector process exit: after the broadcast drains.
    if s.shutdown_sent && !s.collector_done && s.c2n.is_empty() {
        let mut n = s.clone();
        n.collector_done = true;
        if n.conn {
            n.drop_conn(spec);
        }
        out.push(n);
    }

    // Node hangs up after draining.
    if s.conn && s.client == ClientState::Done {
        let mut n = s.clone();
        n.conn = false;
        n.conn_registered = false;
        n.c2n.clear();
        n.n2c.clear();
        n.session_internal(spec, SessionEvent::ConnLost);
        out.push(n);
    }

    // Connection reset: both sides observe ConnLost, queues are lost,
    // the process (and its held incarnation) survives.
    if s.conn && s.resets_left > 0 {
        let mut n = s.clone();
        n.resets_left -= 1;
        n.drop_conn(spec);
        out.push(n);
    }

    // Process restart: a brand-new supervisor with no held state.
    if s.restarts_left > 0 && s.client != ClientState::Done {
        let mut n = s.clone();
        n.restarts_left -= 1;
        if n.conn {
            n.conn = false;
            n.conn_registered = false;
            n.c2n.clear();
            n.n2c.clear();
            n.session_internal(spec, SessionEvent::ConnLost);
        }
        n.client = ClientState::Disconnected;
        n.held = None;
        n.registered_once = false;
        out.push(n);
    }

    // Give up: a registered supervisor stops redialing once the
    // collector is gone.
    if s.collector_done && s.client == ClientState::Disconnected && s.registered_once {
        let mut n = s.clone();
        n.client_internal(spec, ClientEvent::GiveUp);
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
    explore(
        Ctrl::initial(spec),
        depth,
        Ctrl::clone,
        |state, _: &[()]| {
            let succs = ctrl_successors(state, spec, sink);
            if succs.is_empty() && !state.terminal() {
                sink.push(
                    rules::PROTOCOL_DEADLOCK,
                    format!(
                        "ctrl: stuck non-terminal state (client {:?}, session {:?}, \
                     conn {}, epoch {}) has no enabled transition",
                        state.client, state.session, state.conn, state.epoch
                    ),
                );
            }
            walk_order(succs)
        },
    )
}

// ================================================================== arq

const ARQ_NET_CAP: usize = 3;

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
    fn initial(spec: &ProtocolSpec) -> Arq {
        Arq {
            inc: 1,
            produced: 0,
            frames: Vec::new(),
            receiver: DedupModel::with_policy(spec.dedup),
            delivered: BTreeSet::new(),
            net: Vec::new(),
            dups_left: spec.bounds.dups,
            restarts_left: spec.bounds.restarts,
        }
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

    // Produce the next frame of this life (first transmission).
    if s.produced < spec.bounds.frames && s.net.len() < ARQ_NET_CAP {
        let mut n = s.clone();
        n.produced += 1;
        let seq = n.produced;
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
                } else if !was_delivered && u32::from(inc) >= watermark {
                    sink.push(
                        rules::INCARNATION_REGRESSION,
                        format!(
                            "arq: fresh frame (inc {inc}, seq {seq}) swallowed by dedup — \
                             a restarted sender's first frames are silently lost"
                        ),
                    );
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

/// Explores the ARQ sender/receiver automaton.
fn verify_arq(spec: &ProtocolSpec, depth: usize, sink: &mut Sink) -> ExploreStats {
    explore(Arq::initial(spec), depth, Arq::clone, |state, _: &[()]| {
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
    })
}

// ================================================================ dedup

/// Exhaustively enumerates insert sequences over a small
/// (incarnation, seq) universe and checks the lattice laws.
fn verify_dedup(spec: &ProtocolSpec, sink: &mut Sink) -> ExploreStats {
    const INCS: [u8; 2] = [1, 2];
    const SEQS: [u8; 3] = [1, 2, 3];
    const DEPTH: usize = 4;

    let mut stats = ExploreStats::default();
    let universe: Vec<(u8, u8)> = INCS
        .iter()
        .flat_map(|&i| SEQS.iter().map(move |&q| (i, q)))
        .collect();

    // (model, accepted ground truth) pairs, expanded breadth-first;
    // dedup collapses permutations that reach the same lattice state.
    let mut seen: HashSet<(DedupModel, BTreeSet<(u8, u8)>)> = HashSet::new();
    let root = (DedupModel::with_policy(spec.dedup), BTreeSet::new());
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
                if !r && fresh && u32::from(inc) >= watermark {
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
