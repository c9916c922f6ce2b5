//! Protocol conformance: random valid + hostile control-frame
//! interleavings are driven through the *real* collector and node
//! handlers over real TCP sockets, with `remo_runtime`'s spec machines
//! as the oracle.
//!
//! Collector side: every Hello the collector answers must carry
//! exactly the incarnation the spec's [`SessionMachine`] assigns for
//! that history, across fresh lives, held-incarnation reconnects, and
//! hostile preamble frames. Node side: the supervisor must survive
//! arbitrary hostile interleavings without panicking and must exit
//! exactly when the spec's [`ClientMachine`] says Stop.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use remo_core::{AttrId, CapacityMap, NodeId, PairSet};
use remo_node::{dist_sampler, spawn_node, CollectorService, NodeConfig, ServiceConfig};
use remo_runtime::framing::{Envelope, FrameDecoder, CHAN_CTRL, DEST_COLLECTOR};
use remo_runtime::machine::{ClientMachine, HelloOutcome, SessionMachine};
use remo_runtime::spec::{ClientAction, ClientEvent};
use remo_runtime::transport::NetConfig;
use remo_runtime::CtrlMsg;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn ctrl_env(msg: &CtrlMsg) -> Vec<u8> {
    Envelope {
        dest: DEST_COLLECTOR,
        chan: CHAN_CTRL,
        sent_epoch: 0,
        payload: msg.encode(),
    }
    .encode()
    .to_vec()
}

/// A control envelope whose payload is not a decodable `CtrlMsg`
/// (unknown kind tag). The framing layer passes it through; the
/// control decoder rejects it with a structured error.
fn junk_env() -> Vec<u8> {
    Envelope {
        dest: DEST_COLLECTOR,
        chan: CHAN_CTRL,
        sent_epoch: 0,
        payload: bytes::Bytes::from(vec![0x52, 0x43, 1, 200, 9, 9, 9, 9]),
    }
    .encode()
    .to_vec()
}

/// Reads control envelopes off `stream` until `want` have arrived.
fn read_ctrl(stream: &mut TcpStream, want: usize) -> Vec<CtrlMsg> {
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    while got.len() < want {
        let n = stream.read(&mut buf).expect("collector closed early");
        assert!(n > 0, "collector closed early");
        dec.push(&buf[..n]);
        while let Some(env) = dec.try_next().expect("bad frame from collector") {
            if env.chan == CHAN_CTRL {
                got.push(CtrlMsg::decode(env.payload).expect("bad ctrl from collector"));
            }
        }
    }
    got
}

/// One scripted connection from the fake node's point of view.
#[derive(Debug, Clone)]
struct Conn {
    /// Hostile frames sent before the Hello (ignored by the spec).
    preamble: Vec<u8>,
    /// `Some(h)` greets with held incarnation `h`; `None` greets with
    /// whatever the previous connection was assigned (a reconnect).
    held: Option<u32>,
}

fn conn_strategy() -> impl Strategy<Value = Conn> {
    (
        prop::collection::vec(0u16..4, 0..3),
        // (0, _) reconnects with the previously assigned incarnation;
        // (1, h) greets with an arbitrary held value (0 = fresh life).
        (0u16..2, 0u16..4),
    )
        .prop_map(|(pre, (fresh, h))| Conn {
            preamble: pre
                .into_iter()
                .flat_map(|k| match k {
                    0 => junk_env(),
                    1 => ctrl_env(&CtrlMsg::Tick { epoch: 9 }),
                    2 => ctrl_env(&CtrlMsg::Degrade { factor: 3 }),
                    _ => ctrl_env(&CtrlMsg::Shutdown),
                })
                .collect(),
            held: (fresh == 1).then_some(u32::from(h)),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Collector conformance: for any sequence of connections — fresh
    /// lives, reconnects with the held incarnation, arbitrary held
    /// values, hostile preambles — the Welcome's incarnation is
    /// exactly what the spec's session machine assigns, and the
    /// Welcome is always chased by the paired Assign.
    #[test]
    fn collector_assigns_incarnations_exactly_as_the_spec(
        conns in prop::collection::vec(conn_strategy(), 1..5),
    ) {
        let caps = CapacityMap::uniform(1, 1000.0, 100_000.0).unwrap();
        let pairs: PairSet = [(NodeId(0), AttrId(0))].into_iter().collect();
        let service =
            CollectorService::start(ServiceConfig::new("127.0.0.1:0", pairs, caps)).unwrap();
        let addr = service.addr();

        let mut oracle = SessionMachine::new();
        let mut last_assigned = 0u32;
        let mut max_assigned = 0u32;
        for conn in &conns {
            let held = conn.held.unwrap_or(last_assigned);
            let expected = match oracle.on_hello(held) {
                HelloOutcome::Admitted(a) => a,
                other => panic!("spec refused a pre-shutdown Hello: {other:?}"),
            };

            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream.write_all(&conn.preamble).unwrap();
            stream
                .write_all(&ctrl_env(&CtrlMsg::Hello {
                    node: NodeId(0),
                    incarnation: held,
                }))
                .unwrap();

            let msgs = read_ctrl(&mut stream, 2);
            match &msgs[0] {
                CtrlMsg::Welcome { incarnation, .. } => {
                    prop_assert_eq!(
                        *incarnation, expected,
                        "Welcome incarnation diverged from the session machine"
                    );
                    // A held-incarnation reconnect is *echoed* (a
                    // stale life stays on its own incarnation); only
                    // fresh lives must mint strictly above everything
                    // ever assigned (RA024).
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
        }
    }
}

/// One scripted frame from the fake collector's point of view.
#[derive(Debug, Clone, Copy)]
enum Script {
    Welcome {
        incarnation: u32,
    },
    Assign,
    Tick {
        epoch: u64,
    },
    Degrade {
        factor: u64,
    },
    /// A Hello sent *to* a node — never legal, must be dropped.
    HostileHello,
    /// An undecodable control payload in a well-framed envelope.
    Junk,
}

impl Script {
    fn encode(self) -> Vec<u8> {
        match self {
            Script::Welcome { incarnation } => ctrl_env(&CtrlMsg::Welcome {
                capacity: 1000.0,
                per_message: 1.0,
                per_value: 0.1,
                net: NetConfig::default(),
                incarnation,
                epoch: 0,
            }),
            Script::Assign => ctrl_env(&CtrlMsg::Assign {
                assignments: Vec::new(),
            }),
            Script::Tick { epoch } => ctrl_env(&CtrlMsg::Tick { epoch }),
            Script::Degrade { factor } => ctrl_env(&CtrlMsg::Degrade { factor }),
            Script::HostileHello => ctrl_env(&CtrlMsg::Hello {
                node: NodeId(9),
                incarnation: 0,
            }),
            Script::Junk => junk_env(),
        }
    }

    /// The client-machine event this frame delivers, if it decodes.
    fn event(self) -> Option<ClientEvent> {
        match self {
            Script::Welcome { .. } => Some(ClientEvent::RecvWelcome),
            Script::Assign => Some(ClientEvent::RecvAssign),
            Script::Tick { .. } => Some(ClientEvent::RecvTick),
            Script::Degrade { .. } => Some(ClientEvent::RecvDegrade),
            Script::HostileHello => Some(ClientEvent::RecvHello),
            Script::Junk => None,
        }
    }
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (0u16..6, 0u16..4).prop_map(|(k, v)| match k {
        0 => Script::Welcome {
            incarnation: u32::from(v),
        },
        1 => Script::Assign,
        2 => Script::Tick {
            epoch: u64::from(v) + 1,
        },
        3 => Script::Degrade {
            factor: u64::from(v) + 1,
        },
        4 => Script::HostileHello,
        _ => Script::Junk,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Node conformance: a real `spawn_node` supervisor fed an
    /// arbitrary interleaving of valid and hostile control frames
    /// (duplicate and regressed Welcomes, ticks before registration,
    /// Hellos aimed at a node, undecodable payloads) never panics,
    /// and exits exactly when the spec's client machine reaches Stop
    /// on the closing Shutdown.
    #[test]
    fn node_survives_hostile_interleavings_and_stops_on_shutdown(
        script in prop::collection::vec(script_strategy(), 0..8),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let handle = spawn_node(
            NodeConfig::new(addr.to_string(), NodeId(0)),
            dist_sampler(),
        );

        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // The node greets first; drain its Hello before scripting.
        let hello = read_ctrl(&mut conn, 1);
        assert!(matches!(hello[0], CtrlMsg::Hello { .. }));

        // Oracle: replay the connection edges and the script through
        // the client machine; the closing Shutdown must reach Stop.
        let mut oracle = ClientMachine::new();
        oracle.step(ClientEvent::Connected);
        for s in &script {
            if let Some(ev) = s.event() {
                oracle.step(ev);
            }
        }
        let stop = oracle.step(ClientEvent::RecvShutdown);
        prop_assert_eq!(stop, Some(ClientAction::Stop));

        // Later frames may race the node's exit; broken pipes are the
        // expected outcome then, not a failure.
        for s in &script {
            let _ = conn.write_all(&s.encode());
        }
        let _ = conn.write_all(&ctrl_env(&CtrlMsg::Shutdown));

        // The node must drain and exit on its own.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.join();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("node did not exit after Shutdown");
    }
}
