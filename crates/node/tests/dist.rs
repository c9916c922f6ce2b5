//! End-to-end tests of the distributed runtime over real TCP sockets
//! on localhost: full-coverage collection, the SIGKILL →
//! detect → repair → restart cycle (the seq-restart regression), and
//! adversarial segmentation on a live connection.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_core::{AttrId, CapacityMap, NodeId, PairSet};
use remo_node::{
    dist_sampler, spawn_node, CollectorService, NodeConfig, RunSummary, ServiceConfig,
};
use remo_runtime::framing::{Envelope, CHAN_DATA};
use std::time::Duration;

fn dense_pairs(nodes: u32, attrs: u32) -> PairSet {
    (0..nodes)
        .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
        .collect()
}

fn test_config(nodes: u32, attrs: u32, epochs: u64) -> ServiceConfig {
    let caps = CapacityMap::uniform(nodes as usize, 1000.0, 100_000.0).unwrap();
    let mut cfg = ServiceConfig::new("127.0.0.1:0", dense_pairs(nodes, attrs), caps);
    cfg.epochs = epochs;
    // Generous wall-clock budgets: CI runs this on one core with
    // dozens of threads.
    cfg.epoch_interval = Duration::from_millis(120);
    cfg.health.deadline = Duration::from_millis(100);
    cfg.health.confirm_after = 2;
    cfg.startup_wait = Duration::from_secs(10);
    cfg
}

/// 8 nodes over real sockets: every planned pair is observed, every
/// observed value matches the deterministic sampler exactly, and
/// nothing is falsely detected as dead.
#[test]
fn eight_nodes_collect_and_reconcile_over_tcp() {
    const NODES: u32 = 8;
    let service = CollectorService::start(test_config(NODES, 2, 25)).unwrap();
    let addr = service.addr().to_string();

    let handles: Vec<_> = (0..NODES)
        .map(|id| spawn_node(NodeConfig::new(addr.clone(), NodeId(id)), dist_sampler()))
        .collect();
    assert_eq!(service.wait_for_nodes(NODES as usize), NODES as usize);

    let summary: RunSummary = service.run(|_| {});
    for h in handles {
        h.join();
    }

    assert_eq!(summary.epochs, 25);
    assert_eq!(
        summary.observed_pairs, summary.planned_pairs,
        "every planned (node, attribute) pair must reach the collector"
    );
    assert_eq!(summary.confirmed_dead, 0, "no false positives");
    assert!(summary.integrity_checked > 0);
    assert_eq!(
        summary.integrity_violations, 0,
        "observed values must match the sampler end-to-end"
    );
}

/// The SIGKILL cycle: an aborted node is confirmed dead and repaired
/// around; a restarted process (greeting with incarnation 0) gets a
/// fresh incarnation, so its restarted seq numbers are NOT swallowed
/// by the collector's dedup watermark — its values flow again and the
/// detector reports a recovery. Pre-fix (no incarnation in the wire
/// header), the restarted node's frames deduped as replays and its
/// pairs went permanently stale.
#[test]
fn killed_node_is_detected_repaired_and_reintegrated_after_restart() {
    const NODES: u32 = 5;
    const VICTIM: u32 = 2;
    let service = CollectorService::start(test_config(NODES, 2, 60)).unwrap();
    let addr = service.addr().to_string();

    let mut handles: Vec<_> = (0..NODES)
        .map(|id| spawn_node(NodeConfig::new(addr.clone(), NodeId(id)), dist_sampler()))
        .collect();
    assert_eq!(service.wait_for_nodes(NODES as usize), NODES as usize);

    let runner = std::thread::spawn(move || {
        let mut retransmits = 0;
        let summary = service.run(|r| retransmits += r.retransmit_messages);
        (summary, retransmits)
    });

    // Let the deployment reach steady state, then kill the victim the
    // hard way: socket torn down mid-run, no goodbye.
    std::thread::sleep(Duration::from_millis(1200));
    handles.remove(VICTIM as usize).abort();

    // Confirmation needs `confirm_after` missed barriers; give it
    // slack, then restart the process (fresh life, greets with
    // incarnation 0).
    std::thread::sleep(Duration::from_millis(1500));
    handles.push(spawn_node(
        NodeConfig::new(addr, NodeId(VICTIM)),
        dist_sampler(),
    ));

    let (summary, retransmits) = runner.join().unwrap();
    for h in handles {
        h.join();
    }

    // What the hub held for the victim's connection when it died is
    // lost exactly like bytes in a dead socket, and the only frames ARQ
    // may re-send are the ones the outage explains: at most one per
    // surviving node for each epoch between the kill and the
    // reintegration (1.5 s of 120 ms epochs, plus detection and
    // reconnect slack), each re-sent once. A retransmit that repeated
    // every epoch for the rest of the run would be many times that.
    let explained = u64::from(NODES - 1) * (1500 / 120 + 8);
    assert!(
        retransmits <= explained,
        "{retransmits} retransmits: more than the outage explains"
    );
    assert!(
        summary.duplicate_messages_ignored <= explained,
        "{} duplicates: more than the outage explains",
        summary.duplicate_messages_ignored
    );
    assert!(summary.confirmed_dead >= 1, "kill must be detected");
    assert!(summary.repaired >= 1, "plan must be repaired around it");
    assert!(
        summary.values_lost > 0,
        "the victim's due readings are charged while it is suspected"
    );
    assert!(summary.recovered >= 1, "restart must be reintegrated");
    assert_eq!(
        summary.observed_pairs, summary.planned_pairs,
        "restarted node's values must flow again (seq-restart regression)"
    );
    assert!(summary.integrity_checked > 0);
    assert_eq!(summary.integrity_violations, 0);
}

/// Envelope framing survives a real socket delivering the byte stream
/// in adversarially small, ragged chunks.
#[test]
fn envelopes_reassemble_across_adversarial_segmentation_on_a_real_socket() {
    use std::io::{Read, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let envelopes: Vec<Envelope> = (0..50u32)
        .map(|i| Envelope {
            dest: i,
            chan: CHAN_DATA,
            sent_epoch: u64::from(i) * 7,
            payload: bytes::Bytes::from(vec![i as u8; (i as usize * 13) % 97]),
        })
        .collect();

    let to_send = envelopes.clone();
    let writer = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        let mut wire = Vec::new();
        for env in &to_send {
            wire.extend_from_slice(&env.encode());
        }
        // Ragged chunk sizes, one flush per chunk, with pauses every
        // few chunks so the reader really does observe partial frames.
        let mut off = 0;
        let mut step = 1;
        while off < wire.len() {
            let end = (off + step).min(wire.len());
            s.write_all(&wire[off..end]).unwrap();
            s.flush().unwrap();
            if step % 5 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            off = end;
            step = step % 7 + 1;
        }
    });

    let (mut conn, _) = listener.accept().unwrap();
    let mut dec = remo_runtime::framing::FrameDecoder::new();
    let mut got = Vec::new();
    let mut buf = [0u8; 64];
    while got.len() < envelopes.len() {
        let n = conn.read(&mut buf).unwrap();
        assert!(n > 0, "stream ended early");
        dec.push(&buf[..n]);
        while let Some(env) = dec.try_next().unwrap() {
            got.push(env);
        }
    }
    writer.join().unwrap();
    assert_eq!(got, envelopes);
    assert_eq!(dec.pending(), 0);
}
