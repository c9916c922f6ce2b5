//! The `remo-collector` process: registration, hub routing, lockstep
//! epochs, failure repair, and capacity-enforced intake.
//!
//! The service closes every epoch with the function the in-process
//! runtime closes its own with ([`Coordinator::close_epoch`]:
//! [`HealthMonitor`] fed through the epoch-report barrier,
//! [`RepairEngine`] for plan repair around confirmed failures,
//! [`CollectorCore`] for ingest — token bucket, dedup, bounded ingress
//! and shedding, degrade ladder) — the distributed deployment adds
//! only sockets and session machines around it.
//!
//! All of it runs on one thread. A `Hub` owns the listener, every
//! connection (non-blocking socket, frame decoder, out-buffer), the
//! session machines and the assignments, and advances them in rounds
//! of one `poll(2)`: wait → accept → read each ready
//! socket → handshake / hub-route / set reports and collector-bound
//! frames aside → write each out-buffer that holds something that
//! cannot wait. Writes are tick-aligned: what the hub routes between
//! nodes, the collector's own acks and a closed epoch's
//! `Assign`/`Degrade` are needed before the destination's next `Tick`
//! and no earlier, so they are held in its out-buffer and leave in the
//! one write that carries that `Tick` — a node is woken, read from and
//! written to once per epoch. The
//! epoch loop in [`CollectorService::run`] drives those rounds itself:
//! it never sleeps and never blocks on a socket, which is what lets a
//! node block in its own `write_all`. Registration runs the same
//! rounds on the caller's thread: [`CollectorService::start`] binds and
//! plans and spawns nothing, and
//! [`CollectorService::wait_for_nodes`] pumps until the expected nodes
//! own a session. Nothing is served between calls; a connecting node
//! waits in the listen backlog. DESIGN.md "Collection data path" has
//! the ordering argument the lockstep protocol relies on.
//!
//! Session lifecycle is driven through the shared protocol
//! specification (`remo_runtime::spec`) by the collector's session
//! book, [`Sessions`], which `remo-check mc` steps too: it owns every
//! node's incarnation slot and maps every Hello, report, barrier
//! verdict, and fan-out the collector performs to its session event.
//! Frames the spec leaves undefined in the session's current state are
//! dropped and counted (surfaced as `protocol_rejects` in the run
//! summary); the collector's own steps `debug_assert!` on spec
//! definedness, because an undefined internal transition is a bug in
//! collector logic, not hostile input.

use crate::net::{
    ack_envelope, ctrl_envelope, decode_all, lock, poll, OutBuf, PollFd, READ_BUF_LEN,
};
use crate::summary::RunSummary;
use bytes::Bytes;
use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
use remo_core::planner::Planner;
use remo_core::{AttrCatalog, CapacityMap, CostModel, NodeId, PairSet};
use remo_runtime::agent::TickReport;
use remo_runtime::deployment::plan_assignments;
use remo_runtime::framing::{Envelope, FrameDecoder, CHAN_CTRL, CHAN_DATA, DEST_COLLECTOR};
use remo_runtime::health::{HealthConfig, HealthMonitor};
use remo_runtime::machine::{HelloOutcome, Sessions};
use remo_runtime::spec::ProtocolSpec;
use remo_runtime::transport::{Endpoint, NetConfig, Transport};
use remo_runtime::{CollectorCore, Coordinator, CtrlMsg, EpochReport, RepairEngine, Sampler};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Everything a collector run needs.
#[derive(Clone)]
pub struct ServiceConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// The monitoring task.
    pub pairs: PairSet,
    /// Node and collector budgets.
    pub caps: CapacityMap,
    /// Cost model shared with every node.
    pub cost: CostModel,
    /// Attribute catalog (frequencies, aggregations).
    pub catalog: AttrCatalog,
    /// ARQ + backpressure tuning pushed to nodes at registration.
    pub net: NetConfig,
    /// Failure-detector tuning (`deadline` bounds the report barrier).
    pub health: HealthConfig,
    /// Epochs to run.
    pub epochs: u64,
    /// Wall-clock epoch length.
    pub epoch_interval: Duration,
    /// How long to wait for expected nodes before ticking anyway.
    pub startup_wait: Duration,
    /// Deterministic sampler for end-of-run integrity checking
    /// (`None` skips the check).
    pub integrity_sampler: Option<Sampler>,
}

impl std::fmt::Debug for ServiceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceConfig")
            .field("addr", &self.addr)
            .field("epochs", &self.epochs)
            .finish_non_exhaustive()
    }
}

impl ServiceConfig {
    /// Defaults for `pairs`/`caps` on `addr`: 40 epochs of 150 ms, a
    /// 100 ms report barrier, a node confirmed dead after the shipped
    /// spec's `confirm_after` (2) missed epochs — the number `remo-check
    /// proto` verifies — and 10 s for the nodes to register.
    pub fn new(addr: impl Into<String>, pairs: PairSet, caps: CapacityMap) -> Self {
        let health = HealthConfig {
            deadline: Duration::from_millis(100),
            confirm_after: ProtocolSpec::shipped().barrier.confirm_after.into(),
        };
        ServiceConfig {
            addr: addr.into(),
            pairs,
            caps,
            cost: CostModel::default(),
            catalog: AttrCatalog::new(),
            net: NetConfig::default(),
            health,
            epochs: 40,
            epoch_interval: Duration::from_millis(150),
            startup_wait: Duration::from_secs(10),
            integrity_sampler: Some(crate::dist_sampler()),
        }
    }
}

/// One node connection as the hub holds it.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    out: OutBuf,
    /// `out` holds bytes that cannot wait for the next tick: a
    /// handshake reply, or the tail of a short write.
    due: bool,
    /// The node this connection registered as.
    who: Option<u32>,
}

impl Conn {
    /// Whether `out` is written at the end of this round. Held bytes
    /// are bounded by what the peer takes in one read: past that they
    /// would cost it a second read anyway, so they leave now.
    fn is_due(&self) -> bool {
        self.due || self.out.pending() >= READ_BUF_LEN
    }
}

/// The hub's system calls, counted where they are made, and the bytes
/// each connection holds when a tick releases them (`remo_hub_*` in
/// the `remo-obs` registry; no-ops while observability is off).
struct HubStats {
    polls: remo_obs::Counter,
    reads: remo_obs::Counter,
    /// Out-buffer writes: one `write` each, two when the socket takes
    /// only part and the second would block.
    writes: remo_obs::Counter,
    held_bytes: remo_obs::Histogram,
}

impl HubStats {
    fn new() -> Self {
        HubStats {
            polls: remo_obs::counter("remo_hub_polls_total"),
            reads: remo_obs::counter("remo_hub_reads_total"),
            writes: remo_obs::counter("remo_hub_writes_total"),
            held_bytes: remo_obs::registry::registry().histogram_with_buckets(
                "remo_hub_held_bytes",
                &[
                    0.0,
                    64.0,
                    256.0,
                    1024.0,
                    4096.0,
                    16384.0,
                    READ_BUF_LEN as f64,
                ],
            ),
        }
    }
}

/// Everything the collection path touches, on the thread that calls
/// into the [`CollectorService`].
struct Hub {
    cfg: ServiceConfig,
    listener: TcpListener,
    /// Connections by slot; a closed connection's slot is reused.
    conns: Vec<Option<Conn>>,
    /// Node id → the slot of the connection that owns the node's
    /// session. A reconnect replaces the entry, and only the owner's
    /// death is the session's `ConnLost`.
    owner: BTreeMap<u32, usize>,
    /// Per-node protocol sessions. Each owns its node's incarnation
    /// slot and lives for the collector's whole run, across that
    /// node's connections, restarts, and deaths.
    sessions: Sessions,
    /// Failure detector, repair engine, collector core, and the
    /// current per-node assignments (updated by plan repair; sent to a
    /// node at registration).
    coord: Coordinator,
    /// Current epoch (stamped into `Welcome`).
    epoch: u64,
    /// Tick reports and collector-bound data frames `(sent_epoch,
    /// frame)` read so far and not yet consumed by the epoch loop.
    reports: Vec<TickReport>,
    data: Vec<(u64, Bytes)>,
    /// Scratch reused every round: the poll set, the slot of each of
    /// its connection entries, and the read buffer.
    fds: Vec<PollFd>,
    slots: Vec<usize>,
    buf: Vec<u8>,
    stats: HubStats,
}

impl Hub {
    /// Binds the listener and computes the initial plan.
    fn new(cfg: ServiceConfig) -> io::Result<Hub> {
        let planner = AdaptivePlanner::new(
            Planner::default(),
            AdaptScheme::Adaptive,
            cfg.pairs.clone(),
            cfg.caps.clone(),
            cfg.cost,
            cfg.catalog.clone(),
        );
        let coord = Coordinator {
            health: HealthMonitor::new(cfg.caps.node_ids(), cfg.health.confirm_after),
            collector: CollectorCore::new(
                cfg.caps.collector(),
                cfg.cost,
                cfg.net,
                cfg.catalog.clone(),
            ),
            assignments: plan_assignments(planner.plan(), planner.pairs(), &cfg.catalog),
            healer: Some(RepairEngine::new(planner)),
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Hub {
            cfg,
            listener,
            conns: Vec::new(),
            owner: BTreeMap::new(),
            sessions: Sessions::default(),
            coord,
            epoch: 0,
            reports: Vec::new(),
            data: Vec::new(),
            fds: Vec::new(),
            slots: Vec::new(),
            buf: vec![0; READ_BUF_LEN],
            stats: HubStats::new(),
        })
    }

    /// Queues `env` for `node` if it is connected. It is held: nothing
    /// is written until the next [`Hub::flush`] (the tick), or until
    /// the connection is due for another reason.
    fn send(&mut self, node: u32, env: &Envelope) -> bool {
        let Some(conn) = self
            .owner
            .get(&node)
            .and_then(|&slot| self.conns[slot].as_mut())
        else {
            return false;
        };
        conn.out.push(env);
        true
    }

    /// Queues one control message for every connected node.
    fn broadcast(&mut self, msg: &CtrlMsg, epoch: u64) {
        let env = ctrl_envelope(DEST_COLLECTOR, epoch, msg);
        for &slot in self.owner.values() {
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.out.push(&env);
            }
        }
    }

    /// One round: wait up to `timeout` for any socket, accept, read
    /// every ready connection, write what is due.
    ///
    /// # Errors
    ///
    /// `poll(2)`'s own (`EINVAL`, `ENOMEM`). Nothing was waited for, so
    /// a caller that loops on rounds must stop: retrying would spin.
    fn pump(&mut self, timeout: Duration) -> io::Result<()> {
        self.fds.clear();
        self.slots.clear();
        self.fds.push(PollFd::new(&self.listener, false));
        for (slot, conn) in self.conns.iter().enumerate() {
            if let Some(c) = conn {
                // `POLLOUT` follows `due`, not `pending`: held bytes
                // on a writable socket would turn the wait into a spin.
                let want_write = c.due && c.out.pending() > 0;
                self.fds.push(PollFd::new(&c.stream, want_write));
                self.slots.push(slot);
            }
        }
        self.stats.polls.inc();
        if poll(&mut self.fds, timeout)? == 0 {
            return Ok(());
        }
        if self.fds[0].readable() {
            self.accept_all();
        }
        // Level-triggered: one read per ready connection per round.
        // What a read leaves behind re-arms the next poll, and no peer
        // can hold the loop by sending faster than we read.
        for i in 1..self.fds.len() {
            if self.fds[i].readable() {
                self.read_conn(self.slots[i - 1]);
            }
        }
        self.flush_due();
        Ok(())
    }

    fn accept_all(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: the backlog is empty
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let conn = Some(Conn {
                stream,
                dec: FrameDecoder::new(),
                out: OutBuf::default(),
                due: false,
                who: None,
            });
            match self.conns.iter().position(Option::is_none) {
                Some(free) => self.conns[free] = conn,
                None => self.conns.push(conn),
            }
        }
    }

    /// Reads `slot` once and executes every envelope that completes.
    fn read_conn(&mut self, slot: usize) {
        // Out of the slab while its envelopes are handled, so routing
        // can reach every other connection.
        let Some(mut conn) = self.conns[slot].take() else {
            return;
        };
        let mut buf = std::mem::take(&mut self.buf);
        self.stats.reads.inc();
        let alive = match conn.stream.read(&mut buf) {
            Ok(0) => false,
            Ok(n) => {
                let Conn {
                    dec, out, due, who, ..
                } = &mut conn;
                dec.push(&buf[..n]);
                // A refused registration or a hostile length closes.
                decode_all(dec, |env| self.on_envelope(slot, who, out, due, env)).unwrap_or(false)
            }
            Err(e) => matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
            ),
        };
        self.buf = buf;
        self.conns[slot] = Some(conn);
        if !alive {
            self.close(slot);
        }
    }

    /// Executes one envelope read from the connection in `slot` (whose
    /// `who`, `out` and `due` are passed apart, the connection being
    /// out of the slab). `false` closes the connection.
    fn on_envelope(
        &mut self,
        slot: usize,
        who: &mut Option<u32>,
        out: &mut OutBuf,
        due: &mut bool,
        env: Envelope,
    ) -> bool {
        match env.chan {
            CHAN_CTRL => match CtrlMsg::decode(env.payload) {
                Ok(CtrlMsg::Hello { node, incarnation }) => {
                    if who.is_some() {
                        return true; // duplicate Hello: ignore
                    }
                    let Some(capacity) = self.cfg.caps.node(node) else {
                        return false; // unknown node: refuse
                    };
                    // The session machine owns the incarnation slot: a
                    // fresh life (incarnation 0) mints a strictly
                    // greater one so receivers reset their seq
                    // watermarks, a reconnect keeps the life it already
                    // holds. A Hello the spec refuses (e.g. while
                    // draining) or leaves undefined closes the
                    // connection.
                    let outcome = self.sessions.hello(node, incarnation);
                    let (HelloOutcome::Minted(assigned) | HelloOutcome::Echoed(assigned)) = outcome
                    else {
                        return false;
                    };
                    // Welcome chased by Assign, in one write, and in
                    // this round: a node cannot wait for a tick it has
                    // to be registered to be sent.
                    let welcome = CtrlMsg::Welcome {
                        capacity,
                        per_message: self.cfg.cost.per_message(),
                        per_value: self.cfg.cost.per_value(),
                        net: self.cfg.net,
                        incarnation: assigned,
                        epoch: self.epoch,
                    };
                    let assignments = self.coord.assigned(node);
                    out.push(&ctrl_envelope(node.0, self.epoch, &welcome));
                    out.push(&ctrl_envelope(
                        node.0,
                        self.epoch,
                        &CtrlMsg::Assign { assignments },
                    ));
                    *due = true;
                    *who = Some(node.0);
                    // A reconnect supersedes the node's previous
                    // connection, which is dropped without a ConnLost:
                    // the session lives on in this one.
                    if let Some(stale) = self.owner.insert(node.0, slot) {
                        self.conns[stale] = None;
                    }
                }
                Ok(CtrlMsg::Report { report }) => self.reports.push(report),
                Ok(_) | Err(_) => {}
            },
            CHAN_DATA => {
                if env.dest == DEST_COLLECTOR {
                    self.data.push((env.sent_epoch, env.payload));
                } else if self.owner.get(&env.dest) == Some(&slot) {
                    out.push(&env);
                } else {
                    // Hub routing: node→node tree traffic (data frames
                    // and peer acks) forwarded by destination tag, held
                    // for the destination's next tick.
                    self.send(env.dest, &env);
                }
            }
            _ => {}
        }
        true
    }

    /// Writes every out-buffer that has bytes, once: the tick and
    /// shutdown fan-outs, which release everything held.
    fn flush(&mut self) {
        self.write_where(|_| true);
    }

    /// Writes, once, the out-buffers that cannot wait for the tick.
    fn flush_due(&mut self) {
        self.write_where(Conn::is_due);
    }

    /// One write for each connection `pick` selects that has bytes. A
    /// short write leaves the connection due, so the tail follows as
    /// soon as the socket takes it. A connection whose write fails, or
    /// whose peer has let `net::MAX_PENDING_OUT` pile up, is closed.
    fn write_where(&mut self, pick: impl Fn(&Conn) -> bool) {
        for slot in 0..self.conns.len() {
            let Some(c) = self.conns[slot].as_mut() else {
                continue;
            };
            if c.out.pending() == 0 || !pick(c) {
                continue;
            }
            self.stats.writes.inc();
            match c.out.flush(&mut c.stream) {
                Ok(done) => c.due = !done,
                Err(_) => self.close(slot),
            }
        }
    }

    /// Records how many bytes each connection holds as a tick is about
    /// to release them.
    fn sample_held(&self) {
        if remo_obs::enabled() {
            for c in self.conns.iter().flatten() {
                self.stats.held_bytes.observe(c.out.pending() as f64);
            }
        }
    }

    /// Drops the connection in `slot`. If it still owns its node's
    /// session, the session takes `ConnLost` — a superseded connection
    /// never gets here with an `owner` entry, so the live connection's
    /// session does not observe the old one's death.
    fn close(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        if let Some(node) = conn.who {
            if self.owner.get(&node) == Some(&slot) {
                self.owner.remove(&node);
                self.sessions.conn_lost(NodeId(node));
            }
        }
    }

    /// Pumps rounds until `done` says so or `length` has passed since
    /// `from`, whichever is first; `done` is asked before every wait.
    ///
    /// # Errors
    ///
    /// [`Hub::pump`]'s: the wait is over, and so is every later one.
    fn pump_until(
        &mut self,
        from: Instant,
        length: Duration,
        mut done: impl FnMut(&mut Hub) -> bool,
    ) -> io::Result<()> {
        loop {
            let done = done(self);
            let wait = length.saturating_sub(from.elapsed());
            if done || wait.is_zero() {
                return Ok(());
            }
            self.pump(wait)?;
        }
    }
}

/// Collector-side [`Transport`]: holds the acks an intake pass emits
/// until the pass is over and they can be queued on their nodes'
/// connections. The collector originates no data frames.
#[derive(Debug, Default)]
struct AckSink {
    acks: Mutex<Vec<Envelope>>,
}

impl Transport for AckSink {
    fn send_data(&self, _from: NodeId, _to: Endpoint, _seq: u64, _epoch: u64, _frame: Bytes) {}

    fn send_ack(&self, _from: Endpoint, to: NodeId, incarnation: u32, seq: u64, epoch: u64) {
        lock(&self.acks).push(ack_envelope(
            NodeId(DEST_COLLECTOR),
            to,
            incarnation,
            seq,
            epoch,
        ));
    }

    fn reliable(&self) -> bool {
        false
    }
}

/// A listening collector service. Create with
/// [`CollectorService::start`], register nodes with
/// [`CollectorService::wait_for_nodes`], then call
/// [`CollectorService::run`] to drive the epochs — all on the caller's
/// thread.
pub struct CollectorService {
    addr: std::net::SocketAddr,
    /// Behind a `RefCell` because registration takes `&self`.
    hub: RefCell<Hub>,
}

impl std::fmt::Debug for CollectorService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CollectorService")
            .field("addr", &self.addr)
            .finish()
    }
}

impl CollectorService {
    /// Binds the listener and computes the initial plan. Nothing is
    /// served until [`CollectorService::wait_for_nodes`] or
    /// [`CollectorService::run`]; epochs do not tick until `run`.
    pub fn start(cfg: ServiceConfig) -> std::io::Result<Self> {
        let hub = Hub::new(cfg)?;
        Ok(CollectorService {
            addr: hub.listener.local_addr()?,
            hub: RefCell::new(hub),
        })
    }

    /// The bound address (useful with an ephemeral-port bind).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Serves registrations on the caller's thread until `expected`
    /// nodes registered or the startup window elapsed; returns how many
    /// are connected.
    pub fn wait_for_nodes(&self, expected: usize) -> usize {
        let mut hub = self.hub.borrow_mut();
        let window = hub.cfg.startup_wait;
        // A failing `poll` ends the wait; `run` meets the same error on
        // its own first round.
        let _ = hub.pump_until(Instant::now(), window, |hub| hub.owner.len() >= expected);
        hub.owner.len()
    }

    /// Drives the configured number of lockstep epochs, then shuts the
    /// deployment down and returns the reconciliation summary.
    /// `on_epoch` observes every epoch's report (progress logging).
    pub fn run(self, mut on_epoch: impl FnMut(&EpochReport)) -> RunSummary {
        let mut hub = self.hub.into_inner();
        let cfg = hub.cfg.clone();
        let acks = AckSink::default();
        let mut summary = RunSummary {
            planned_pairs: cfg.pairs.len() as u64,
            ..RunSummary::default()
        };
        let mut poll_error = None;

        for epoch in 1..=cfg.epochs {
            let started = Instant::now();
            hub.epoch = epoch;
            // Tick fan-out to every live connection, behind whatever
            // was held for it since its last tick (routed tree
            // traffic, intake acks, Assign): one write each.
            hub.sample_held();
            hub.sessions.tick(hub.owner.keys().map(|&n| NodeId(n)));
            hub.broadcast(&CtrlMsg::Tick { epoch }, epoch);
            hub.flush();

            // Deadline-bounded report barrier: pump until no reporter
            // is missing or the deadline passes, crediting each report
            // as it is read (they stay in `hub.reports` for the close).
            // A failing `poll` ends it the way the deadline does.
            let mut missing = hub.coord.health.expected_reporters();
            let mut credited = 0;
            let barrier = hub.pump_until(started, cfg.health.deadline, |hub| {
                let fresh = &hub.reports[credited..];
                hub.sessions.credit(fresh, epoch, &mut missing);
                credited = hub.reports.len();
                missing.is_empty()
            });

            // The close itself — detector, lost readings, plan repair,
            // capacity-enforced intake — is the in-process runtime's.
            // Nothing is routed while it runs: the trees may be about
            // to change under that traffic anyway.
            let closed =
                hub.coord
                    .close_epoch(epoch, hub.reports.drain(..), hub.data.drain(..), &acks);
            let mut report = closed.report;
            hub.sessions.verdicts(&missing, &closed.events);
            // Targeted Assign fan-out to the nodes whose routes changed.
            for node in closed.reassigned {
                let assignments = hub.coord.assigned(node);
                let assign = ctrl_envelope(node.0, epoch, &CtrlMsg::Assign { assignments });
                if hub.send(node.0, &assign) {
                    report.reconfigure_messages += 1;
                }
            }
            for &node in &closed.events.confirmed {
                hub.sessions.repair(node);
            }
            for ack in lock(&acks.acks).drain(..) {
                hub.send(ack.dest, &ack);
            }
            if let Some(factor) = closed.degrade {
                hub.sessions
                    .degrade(hub.owner.keys().map(|&n| NodeId(n)), factor);
                hub.broadcast(&CtrlMsg::Degrade { factor }, epoch);
            }
            report.export_metrics();

            summary.epochs = epoch;
            summary.delivered_values += report.delivered_values;
            summary.confirmed_dead += report.confirmed_dead;
            summary.repaired += report.repaired;
            summary.recovered += report.recovered;
            summary.values_lost += report.values_lost;
            summary.reconfigure_messages += report.reconfigure_messages;
            summary.duplicate_messages_ignored += report.duplicate_messages_ignored;
            summary.shed_readings += report.shed_readings;
            summary.degrade_factor = report.degrade_factor;
            on_epoch(&report);

            // The rest of the epoch is pumped, not slept: the hub keeps
            // reading and routing between ticks. What this epoch queued
            // (acks, Assign, Degrade) is held like routed traffic and
            // leaves with the next tick, which is when an agent could
            // first act on it.
            let rest =
                barrier.and_then(|()| hub.pump_until(started, cfg.epoch_interval, |_| false));
            if let Err(e) = rest {
                poll_error = Some(e);
                break;
            }
        }

        // Goodbye to every node, then stay until they have hung up (or
        // a barrier's worth of time): closing first could reset a
        // connection whose Shutdown is still unread.
        hub.sessions.shutdown(hub.owner.keys().map(|&n| NodeId(n)));
        // The collector's own session steps are always spec-defined: an
        // undefined one is a collector bug, not hostile input.
        let undefined = hub.sessions.take_undefined();
        debug_assert!(
            undefined.is_empty(),
            "undefined collector steps: {undefined:?}"
        );
        hub.broadcast(&CtrlMsg::Shutdown, cfg.epochs);
        hub.flush();
        let hung_up = match poll_error {
            Some(e) => Err(e),
            None => hub.pump_until(Instant::now(), cfg.health.deadline, |hub| {
                hub.owner.is_empty()
            }),
        };
        if let Err(e) = hung_up {
            // The service cannot wait on its sockets any more: it
            // stops with the error, `summary.epochs` short of the plan.
            eprintln!(
                "remo-collector: poll failed ({e}); stopped after epoch {}",
                summary.epochs
            );
        }

        let core = &hub.coord.collector;
        summary.observed_pairs = core.observed_pairs() as u64;
        summary.protocol_rejects = hub.sessions.rejects();
        if let Some(sampler) = cfg.integrity_sampler.as_ref() {
            for (&(node, attr), obs) in core.store() {
                summary.integrity_checked += 1;
                if obs.value != sampler(node, attr, obs.produced) {
                    summary.integrity_violations += 1;
                }
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use proptest::prelude::*;
    use remo_core::AttrId;
    use remo_runtime::machine::SessionMachine;
    use remo_runtime::spec::CtrlKind;
    use std::io::Write;

    const WAIT: Duration = Duration::from_secs(10);

    /// A hub for `nodes` nodes on an ephemeral port: the test pumps it,
    /// one round at a time.
    fn hub(nodes: u32) -> Hub {
        let pairs: PairSet = (0..nodes).map(|n| (NodeId(n), AttrId(0))).collect();
        let caps = CapacityMap::uniform(nodes as usize, 1000.0, 100_000.0).unwrap();
        Hub::new(ServiceConfig::new("127.0.0.1:0", pairs, caps)).unwrap()
    }

    /// Rounds until `done`; the test fails after `WAIT`.
    fn pump_to(hub: &mut Hub, what: &str, mut done: impl FnMut(&Hub) -> bool) {
        hub.pump_until(Instant::now(), WAIT, |hub| done(hub))
            .unwrap();
        assert!(done(hub), "timed out before {what}");
    }

    fn conn(hub: &Hub, node: u32) -> &Conn {
        hub.conns[hub.owner[&node]].as_ref().unwrap()
    }

    /// The test's end of one node connection.
    struct Peer {
        stream: TcpStream,
        dec: FrameDecoder,
    }

    impl Peer {
        /// Connects; the hub has not accepted it yet.
        fn connect(hub: &Hub) -> Peer {
            let stream = TcpStream::connect(hub.listener.local_addr().unwrap()).unwrap();
            stream.set_nodelay(true).unwrap();
            stream.set_read_timeout(Some(WAIT)).unwrap();
            Peer {
                stream,
                dec: FrameDecoder::new(),
            }
        }

        /// Connects and greets as `node`; the hub has not read it yet.
        fn greet(hub: &Hub, node: u32) -> Peer {
            let mut peer = Peer::connect(hub);
            let hello = CtrlMsg::Hello {
                node: NodeId(node),
                incarnation: 0,
            };
            peer.send(&ctrl_envelope(DEST_COLLECTOR, 0, &hello));
            peer
        }

        /// Registers as `node` and swallows the handshake reply.
        fn join(hub: &mut Hub, node: u32) -> Peer {
            let mut peer = Peer::greet(hub, node);
            pump_to(hub, "registration", |hub| hub.owner.contains_key(&node));
            peer.recv(2);
            peer
        }

        fn send(&mut self, env: &Envelope) {
            self.stream.write_all(&env.encode()).unwrap();
        }

        /// Blocks until `n` more envelopes are in.
        fn recv(&mut self, n: usize) -> Vec<Envelope> {
            let mut got = Vec::new();
            let mut buf = vec![0; READ_BUF_LEN];
            loop {
                while got.len() < n {
                    match self.dec.try_next().unwrap() {
                        Some(env) => got.push(env),
                        None => break,
                    }
                }
                if got.len() == n {
                    return got;
                }
                let len = self.stream.read(&mut buf).unwrap();
                assert!(len > 0, "hub hung up");
                self.dec.push(&buf[..len]);
            }
        }

        /// What a read that does not wait returns.
        fn read_now(&mut self, buf: &mut [u8]) -> usize {
            self.stream.set_nonblocking(true).unwrap();
            let got = self.stream.read(buf);
            self.stream.set_nonblocking(false).unwrap();
            match got {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => 0,
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    fn routed(dest: u32, sent_epoch: u64, len: usize) -> Envelope {
        Envelope {
            dest,
            chan: CHAN_DATA,
            sent_epoch,
            payload: Bytes::from(vec![dest as u8 + 1; len]),
        }
    }

    fn ctrl_kinds(envs: &[Envelope]) -> Vec<CtrlKind> {
        envs.iter()
            .map(|e| CtrlMsg::decode(e.payload.clone()).unwrap().kind())
            .collect()
    }

    #[test]
    fn a_hello_is_answered_in_the_round_that_read_it() {
        let mut hub = hub(2);
        let mut peer = Peer::greet(&hub, 1);
        while !hub.owner.contains_key(&1) {
            hub.pump(WAIT).unwrap();
        }
        // No round has run since the one that read the Hello.
        assert_eq!(conn(&hub, 1).out.pending(), 0, "reply still held");
        assert!(!conn(&hub, 1).due);
        let reply = peer.recv(2);
        assert_eq!(ctrl_kinds(&reply), [CtrlKind::Welcome, CtrlKind::Assign]);
    }

    #[test]
    fn routed_traffic_is_held_and_the_tick_releases_it_in_append_order() {
        let mut hub = hub(3);
        let mut child = Peer::join(&mut hub, 0);
        let mut parent = Peer::join(&mut hub, 1);

        // A routed data frame and a routed peer ack, read in one round.
        let frame = routed(1, 7, 100);
        let peer_ack = ack_envelope(NodeId(0), NodeId(1), 1, 41, 7);
        let mut want = frame.encode().to_vec();
        want.extend_from_slice(&peer_ack.encode());
        child.stream.write_all(&want).unwrap();
        pump_to(&mut hub, "the hub routes both", |hub| {
            conn(hub, 1).out.pending() == want.len()
        });
        assert!(!conn(&hub, 1).is_due(), "routed traffic must not be due");
        let mut buf = vec![0; READ_BUF_LEN];
        assert_eq!(parent.read_now(&mut buf), 0, "written before the tick");

        // Merely holding: `poll` is not asked for POLLOUT, so a round
        // with nothing to read waits out its whole timeout (on a
        // writable socket it would return at once, every time).
        let timeout = Duration::from_millis(30);
        let began = Instant::now();
        hub.pump(timeout).unwrap();
        assert!(began.elapsed() >= timeout, "the hub spun on held bytes");
        assert_eq!(conn(&hub, 1).out.pending(), want.len());

        // What an epoch close queues is held behind it, and the tick
        // releases all of it: one write, append order, byte for byte.
        let own_ack = ack_envelope(NodeId(DEST_COLLECTOR), NodeId(1), 1, 40, 7);
        let assignments = hub.coord.assigned(NodeId(1));
        let assign = ctrl_envelope(1, 7, &CtrlMsg::Assign { assignments });
        assert!(hub.send(1, &own_ack) && hub.send(1, &assign));
        assert!(!conn(&hub, 1).is_due());
        hub.broadcast(&CtrlMsg::Tick { epoch: 8 }, 8);
        hub.flush();
        let tick = ctrl_envelope(DEST_COLLECTOR, 8, &CtrlMsg::Tick { epoch: 8 });
        for env in [&own_ack, &assign, &tick] {
            want.extend_from_slice(&env.encode());
        }
        let len = parent.stream.read(&mut buf).unwrap();
        assert_eq!(&buf[..len], &want[..], "one write, in append order");
        assert_eq!(conn(&hub, 1).out.pending(), 0);
        assert_eq!(ctrl_kinds(&child.recv(1)), [CtrlKind::Tick]);
    }

    #[test]
    fn held_bytes_leave_in_the_round_that_crosses_one_read() {
        let mut hub = hub(2);
        let mut child = Peer::join(&mut hub, 0);
        let mut parent = Peer::join(&mut hub, 1);
        let frame = routed(1, 3, 20_000);
        let per = frame.encode().len();
        assert!(3 * per < READ_BUF_LEN && 4 * per >= READ_BUF_LEN);

        for _ in 0..3 {
            child.send(&frame);
        }
        pump_to(&mut hub, "three frames are held", |hub| {
            conn(hub, 1).out.pending() == 3 * per
        });
        assert!(!conn(&hub, 1).is_due());
        let mut buf = vec![0; READ_BUF_LEN];
        assert_eq!(parent.read_now(&mut buf), 0, "written under the bound");

        // The fourth crosses it: the round that routes it writes, with
        // no tick, and a short write is followed up (POLLOUT now asked).
        child.send(&frame);
        pump_to(&mut hub, "the fourth frame is routed", |hub| {
            conn(hub, 1).out.pending() != 3 * per
        });
        let mut got = Vec::new();
        let deadline = Instant::now() + WAIT;
        while got.len() < 4 * per && Instant::now() < deadline {
            let n = parent.read_now(&mut buf);
            got.extend_from_slice(&buf[..n]);
            if n == 0 {
                hub.pump(Duration::from_millis(1)).unwrap();
            }
        }
        assert_eq!(got, frame.encode().repeat(4));
        assert!(!conn(&hub, 1).due, "a finished write clears due");
    }

    #[test]
    fn a_peer_that_never_reads_is_closed_at_the_cap() {
        let mut hub = hub(2);
        let child = Peer::join(&mut hub, 0);
        let _deaf = Peer::join(&mut hub, 1);
        let wire = routed(1, 3, 256 * 1024).encode();
        child.stream.set_nonblocking(true).unwrap();

        // Held bytes count: the flood passes one read's worth, is
        // written until the deaf peer's socket is full, then piles up.
        let (mut off, mut sent, mut peak) = (0, 0usize, 0);
        while hub.owner.contains_key(&1) {
            assert!(sent < 64 * crate::net::MAX_PENDING_OUT, "never closed");
            match (&child.stream).write(&wire[off..]) {
                Ok(n) => {
                    off = (off + n) % wire.len();
                    sent += n;
                }
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
            hub.pump(Duration::ZERO).unwrap();
            if hub.owner.contains_key(&1) {
                peak = peak.max(conn(&hub, 1).out.pending());
            }
        }
        assert!(peak > READ_BUF_LEN, "closed before anything piled up");
        assert!(peak <= crate::net::MAX_PENDING_OUT + wire.len());
        assert!(hub.owner.contains_key(&0), "the sender is not at fault");
    }

    #[test]
    fn a_connection_whose_read_fails_is_closed_in_the_round_that_sees_it() {
        let mut hub = hub(2);
        let _other = Peer::join(&mut hub, 0);
        let peer = Peer::greet(&hub, 1);
        pump_to(&mut hub, "registration", |hub| hub.owner.contains_key(&1));
        // Hanging up on the unread handshake reply resets the
        // connection: the hub's next read is an error, not an EOF.
        drop(peer);
        pump_to(&mut hub, "the reset is seen", |hub| {
            !hub.owner.contains_key(&1)
        });
        assert!(hub.owner.contains_key(&0));
        assert_eq!(hub.conns.iter().flatten().count(), 1);
    }

    /// One scripted connection of the conformance proptest.
    #[derive(Debug, Clone)]
    struct Greeting {
        /// Hostile frames sent before the Hello (ignored by the spec).
        preamble: Vec<u8>,
        /// `Some(h)` greets with held incarnation `h`; `None` greets
        /// with whatever the previous connection was assigned (a
        /// reconnect).
        held: Option<u32>,
    }

    fn greeting_strategy() -> impl Strategy<Value = Greeting> {
        let ctrl = |msg: &CtrlMsg| ctrl_envelope(DEST_COLLECTOR, 0, msg).encode().to_vec();
        (
            prop::collection::vec(0u16..4, 0..3),
            // (0, _) reconnects with the previously assigned
            // incarnation; (1, h) greets with an arbitrary held value
            // (0 = fresh life).
            (0u16..2, 0u16..4),
        )
            .prop_map(move |(pre, (fresh, h))| Greeting {
                preamble: pre
                    .into_iter()
                    .flat_map(|k| match k {
                        // A control envelope whose payload does not
                        // decode (unknown kind tag).
                        0 => Envelope {
                            dest: DEST_COLLECTOR,
                            chan: CHAN_CTRL,
                            sent_epoch: 0,
                            payload: Bytes::from(vec![0x52, 0x43, 1, 200, 9, 9, 9, 9]),
                        }
                        .encode()
                        .to_vec(),
                        1 => ctrl(&CtrlMsg::Tick { epoch: 9 }),
                        2 => ctrl(&CtrlMsg::Degrade { factor: 3 }),
                        _ => ctrl(&CtrlMsg::Shutdown),
                    })
                    .collect(),
                held: (fresh == 1).then_some(u32::from(h)),
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        /// Collector conformance: for any sequence of connections —
        /// fresh lives, reconnects with the held incarnation, arbitrary
        /// held values, hostile preambles — the Welcome's incarnation
        /// is exactly what the spec's session machine assigns, and the
        /// Welcome is always chased by the paired Assign.
        #[test]
        fn collector_assigns_incarnations_exactly_as_the_spec(
            greetings in prop::collection::vec(greeting_strategy(), 1..5),
        ) {
            let mut hub = hub(1);
            let mut oracle = SessionMachine::new();
            let mut last_assigned = 0u32;
            let mut max_assigned = 0u32;
            for greeting in &greetings {
                let held = greeting.held.unwrap_or(last_assigned);
                let expected = match oracle.on_hello(held) {
                    HelloOutcome::Minted(a) | HelloOutcome::Echoed(a) => a,
                    other => panic!("spec refused a pre-shutdown Hello: {other:?}"),
                };

                let mut peer = Peer::connect(&hub);
                peer.stream.write_all(&greeting.preamble).unwrap();
                let hello = CtrlMsg::Hello {
                    node: NodeId(0),
                    incarnation: held,
                };
                peer.send(&ctrl_envelope(DEST_COLLECTOR, 0, &hello));
                pump_to(&mut hub, "registration", |hub| hub.owner.contains_key(&0));

                let reply = peer.recv(2);
                let msgs: Vec<CtrlMsg> = reply
                    .into_iter()
                    .map(|env| CtrlMsg::decode(env.payload).unwrap())
                    .collect();
                match &msgs[0] {
                    CtrlMsg::Welcome { incarnation, .. } => {
                        prop_assert_eq!(
                            *incarnation, expected,
                            "Welcome incarnation diverged from the session machine"
                        );
                        // A held-incarnation reconnect is *echoed* (a
                        // stale life stays on its own incarnation);
                        // only fresh lives must mint strictly above
                        // everything ever assigned (RA024).
                        if held == 0 {
                            prop_assert!(
                                *incarnation > max_assigned,
                                "fresh incarnation did not grow (RA024)"
                            );
                        }
                        max_assigned = max_assigned.max(*incarnation);
                        last_assigned = *incarnation;
                    }
                    other => panic!("expected Welcome first, got {other:?}"),
                }
                prop_assert!(
                    matches!(msgs[1], CtrlMsg::Assign { .. }),
                    "Welcome must be chased by Assign"
                );

                // Hang up, and let the hub see it before the next life
                // greets.
                drop(peer);
                pump_to(&mut hub, "the hang-up", |hub| hub.owner.is_empty());
            }
        }
    }
}
