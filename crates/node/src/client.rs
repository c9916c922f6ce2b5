//! The `remo-node` process: one monitoring node of the distributed
//! deployment.
//!
//! A node runs the unmodified [`Agent`] state machine from
//! `remo-runtime` — the same code the in-process deployment and the
//! chaos soaks exercise — on a [`TcpTransport`]. This module supplies
//! the process scaffolding around it:
//!
//! * a supervisor loop that connects to the collector, registers with
//!   [`CtrlMsg::Hello`], and reconnects with exponential backoff when
//!   the connection drops;
//! * the read loop, which *is* the node: the supervisor thread reads,
//!   decodes a whole read's worth of envelopes, steps the protocol
//!   machine and calls [`Agent::handle`] inline (control frames drive
//!   ticks/assignments, data frames carry tree traffic and acks);
//! * one write per batch: everything the agent said while the batch
//!   was handled — acks, the tick's data frames, and its
//!   [`TickReport`] as a
//!   [`CtrlMsg::Report`] frame, in that order — sits in the
//!   transport's out-buffer and leaves in a single `write_all` once
//!   the batch is done.
//!
//! One thread per node, and it may block in exactly two places: the
//! `read` it waits for work in, and that `write_all` — safe because the
//! collector never blocks on a socket, so it always drains its peers.
//!
//! Every transition the supervisor takes is driven through the shared
//! protocol specification (`remo_runtime::spec`): a [`ClientMachine`] is
//! stepped for each connection edge and each decoded control frame,
//! and the action it returns is what the handler executes. A frame the
//! spec leaves undefined in the current state (a Hello or Report
//! arriving at a node, say) is dropped and counted as a protocol
//! reject instead of being improvised around.
//!
//! Incarnation: a *fresh* process greets with incarnation 0 and adopts
//! whatever the collector assigns (each restart gets a higher one, so
//! receivers reset their seq watermarks instead of swallowing the
//! restarted sender's frames). A *reconnecting* process — same life,
//! new socket — re-greets with the incarnation it already holds.

use crate::net::{lock, read_batches, TcpTransport};
use crossbeam::channel::{unbounded, Receiver};
use remo_core::{CostModel, NodeId};
use remo_runtime::agent::{Agent, AgentMsg, TickReport};
use remo_runtime::framing::{Envelope, CHAN_CTRL, CHAN_DATA};
use remo_runtime::machine::ClientMachine;
use remo_runtime::proto::{FrameKind, WireMessage};
use remo_runtime::spec::{ClientAction, ClientEvent};
use remo_runtime::transport::{NetConfig, Transport};
use remo_runtime::{CtrlMsg, Sampler};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection settings for one node process.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Collector address, e.g. `127.0.0.1:7701`.
    pub addr: String,
    /// This node's identity.
    pub node: NodeId,
    /// Initial reconnect backoff (doubles per failure, capped 32×).
    pub reconnect_base: Duration,
    /// Consecutive failed reconnects after a successful registration
    /// before the process gives up (the collector is gone).
    pub max_reconnect_failures: u32,
}

impl NodeConfig {
    /// Defaults for `node` against `addr`: a 50 ms first reconnect
    /// backoff, and 40 failed reconnects before giving up.
    pub fn new(addr: impl Into<String>, node: NodeId) -> Self {
        NodeConfig {
            addr: addr.into(),
            node,
            reconnect_base: Duration::from_millis(50),
            max_reconnect_failures: 40,
        }
    }
}

/// Handle to a spawned node (test and supervisor aid).
#[derive(Debug)]
pub struct NodeHandle {
    abort: Arc<AtomicBool>,
    stream: Arc<Mutex<Option<TcpStream>>>,
    thread: JoinHandle<()>,
}

impl NodeHandle {
    /// Kills the node abruptly: the socket is torn down without any
    /// goodbye, exactly like a SIGKILL'd process as seen from the
    /// collector. Joins the supervisor thread.
    pub fn abort(self) {
        self.abort.store(true, Ordering::SeqCst);
        if let Some(s) = lock(&self.stream).as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let _ = self.thread.join();
    }

    /// Waits for the node to exit on its own (collector shutdown).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Spawns a node process' supervisor loop on a background thread.
pub fn spawn_node(cfg: NodeConfig, sampler: Sampler) -> NodeHandle {
    let abort = Arc::new(AtomicBool::new(false));
    let stream_slot: Arc<Mutex<Option<TcpStream>>> = Arc::new(Mutex::new(None));
    let thread = {
        let abort = Arc::clone(&abort);
        let stream_slot = Arc::clone(&stream_slot);
        std::thread::spawn(move || run_supervisor(&cfg, sampler, &abort, &stream_slot))
    };
    NodeHandle {
        abort,
        stream: stream_slot,
        thread,
    }
}

/// What survives a node's connections: the agent (created by the
/// first `Welcome`), the protocol machine, and the transport whose
/// out-buffer the agent speaks into.
struct NodeState {
    transport: Arc<TcpTransport>,
    /// The executable spec: every connection edge and every decoded
    /// control frame steps this machine, and the action it returns is
    /// what gets executed. One machine per process life; it holds the
    /// incarnation this life adopted, which a reconnect re-greets with.
    machine: ClientMachine,
    /// `None` until first registration, then the agent and the
    /// receiving end of its tick-report channel.
    agent: Option<(Agent, Receiver<TickReport>)>,
    sampler: Sampler,
    node: NodeId,
}

impl NodeState {
    /// Handles the collector's `Welcome`: the first one creates the
    /// agent; later ones (reconnects) are consistency checks only.
    fn on_welcome(
        &mut self,
        capacity: f64,
        per_message: f64,
        per_value: f64,
        net: NetConfig,
        incarnation: u32,
    ) {
        if self.agent.is_some() {
            return;
        }
        let Ok(cost) = CostModel::new(per_message, per_value) else {
            return;
        };
        // The agent is driven through `Agent::handle`, never `run`, so
        // its inbox is a closed channel nobody reads.
        let (_, inbox) = unbounded();
        let (report_tx, report_rx) = unbounded();
        let agent = Agent::new(
            self.node,
            inbox,
            Arc::clone(&self.transport) as Arc<dyn Transport>,
            report_tx,
            capacity,
            cost,
            net,
            Arc::clone(&self.sampler),
            Vec::new(),
        )
        .with_incarnation(incarnation);
        self.agent = Some((agent, report_rx));
    }

    /// Runs the agent on `msg`, then queues any tick report it produced
    /// behind the frames of the same tick.
    fn handle(&mut self, msg: AgentMsg) {
        if let Some((agent, reports)) = self.agent.as_mut() {
            agent.handle(msg);
            while let Ok(report) = reports.try_recv() {
                self.transport
                    .send_ctrl(&CtrlMsg::Report { report }, report.epoch);
            }
        }
    }

    /// Executes one envelope; `false` when the spec says stop.
    fn on_envelope(&mut self, env: Envelope) -> bool {
        match env.chan {
            CHAN_CTRL => {
                let Ok(msg) = CtrlMsg::decode(env.payload) else {
                    return true;
                };
                // The spec decides; the handler executes. An undefined
                // (state, frame) pair returns None: the frame is
                // dropped and the reject counted.
                match (self.machine.step(ClientEvent::recv(msg.kind())), msg) {
                    (
                        Some(ClientAction::AdoptWelcome),
                        CtrlMsg::Welcome {
                            capacity,
                            per_message,
                            per_value,
                            net,
                            incarnation,
                            epoch: _,
                        },
                    ) => {
                        // Adoption refuses a regressed incarnation
                        // (RA024's client half).
                        if self.machine.adopt_incarnation(incarnation) {
                            self.on_welcome(capacity, per_message, per_value, net, incarnation);
                        }
                    }
                    (Some(ClientAction::DropDuplicate), _) => {}
                    (Some(ClientAction::ApplyAssign), CtrlMsg::Assign { assignments }) => {
                        self.handle(AgentMsg::Reconfigure { assignments });
                    }
                    (Some(ClientAction::RunTick), CtrlMsg::Tick { epoch }) => {
                        self.handle(AgentMsg::Tick { epoch });
                    }
                    (Some(ClientAction::ApplyDegrade), CtrlMsg::Degrade { factor }) => {
                        self.handle(AgentMsg::SetDegrade { factor });
                    }
                    (Some(ClientAction::Stop), _) => return false,
                    (Some(_) | None, _) => {}
                }
            }
            // The header says which; the agent decodes its own data
            // frames, so only an ack (a bare header) is decoded here.
            CHAN_DATA => match WireMessage::peek_kind(&env.payload) {
                Ok(FrameKind::Ack) => {
                    if let Ok(msg) = WireMessage::decode(env.payload) {
                        self.handle(AgentMsg::Ack {
                            incarnation: msg.incarnation,
                            seq: msg.seq,
                        });
                    }
                }
                Ok(FrameKind::Data) => self.handle(AgentMsg::Data {
                    sent_epoch: env.sent_epoch,
                    frame: env.payload,
                }),
                Err(_) => {}
            },
            _ => {}
        }
        true
    }
}

fn run_supervisor(
    cfg: &NodeConfig,
    sampler: Sampler,
    abort: &AtomicBool,
    stream_slot: &Mutex<Option<TcpStream>>,
) {
    let transport = Arc::new(TcpTransport::new(cfg.node));
    let mut state = NodeState {
        transport: Arc::clone(&transport),
        machine: ClientMachine::new(),
        agent: None,
        sampler,
        node: cfg.node,
    };
    let mut backoff = cfg.reconnect_base;
    let max_backoff = cfg.reconnect_base.saturating_mul(32);
    let mut failures: u32 = 0;
    let mut done = false;

    while !abort.load(Ordering::SeqCst) && !done {
        let mut stream = match TcpStream::connect(&cfg.addr) {
            Ok(s) => s,
            Err(_) => {
                failures += 1;
                // Registered once and the collector has been gone for
                // a while: the run is over, exit instead of spinning.
                if state.machine.held().is_some() && failures > cfg.max_reconnect_failures {
                    state.machine.step(ClientEvent::GiveUp);
                    break;
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(max_backoff);
                continue;
            }
        };
        failures = 0;
        backoff = cfg.reconnect_base;
        let _ = stream.set_nodelay(true);
        *lock(stream_slot) = stream.try_clone().ok();

        // Register (a reconnect re-greets with the held incarnation).
        transport.attach();
        let action = state.machine.step(ClientEvent::Connected);
        debug_assert_eq!(
            action,
            Some(ClientAction::SendHello),
            "the spec must define Connected in {:?}",
            state.machine.state()
        );
        if action == Some(ClientAction::SendHello) {
            transport.send_ctrl(
                &CtrlMsg::Hello {
                    node: cfg.node,
                    incarnation: state.machine.held().unwrap_or(0),
                },
                0,
            );
        }

        if transport.flush(&mut stream).is_ok() {
            let _ = read_batches(
                &mut stream,
                |env| {
                    done = !state.on_envelope(env);
                    !done
                },
                |stream| transport.flush(stream),
            );
        }

        transport.detach();
        let _ = stream.shutdown(Shutdown::Both);
        *lock(stream_slot) = None;
        if !done {
            state.machine.step(ClientEvent::ConnLost);
        }
    }
}
