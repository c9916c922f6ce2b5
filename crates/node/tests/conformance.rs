//! Protocol conformance, node side: random valid + hostile
//! control-frame interleavings are driven through the *real* node
//! handler over a real TCP socket, with `remo_runtime`'s
//! [`ClientMachine`] as the oracle: the supervisor must survive
//! arbitrary hostile interleavings without panicking and must exit
//! exactly when the spec says Stop. The collector side (every Welcome
//! carries exactly the incarnation the spec's session machine assigns)
//! is a proptest beside the hub, in `service.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use remo_core::NodeId;
use remo_node::{dist_sampler, spawn_node, NodeConfig};
use remo_runtime::framing::{Envelope, FrameDecoder, CHAN_CTRL, DEST_COLLECTOR};
use remo_runtime::machine::ClientMachine;
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
