//! Substrate benchmarks: simulator epoch throughput, wire-protocol
//! encode/decode, and the stages a reading crosses on the collection
//! data path (`datapath`: relay tick, stream decoder, collector intake,
//! shedding).

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use remo_core::planner::Planner;
use remo_core::{Aggregation, AttrCatalog, AttrId, CapacityMap, CostModel, NodeId, PairSet};
use remo_runtime::agent::{Agent, AgentMsg, LocalAttr, Route, TreeAssignment};
use remo_runtime::framing::{Envelope, FrameDecoder, CHAN_DATA, DEST_COLLECTOR};
use remo_runtime::proto::{WireMessage, WireReading};
use remo_runtime::transport::{Endpoint, NetConfig, Transport};
use remo_runtime::{CollectorCore, EpochReport};
use remo_sim::{SimConfig, SimSetup, Simulator};
use std::collections::BTreeMap;
use std::sync::Arc;

fn bench_simulator_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step");
    group.sample_size(20);
    for &nodes in &[50usize, 200] {
        let pairs: PairSet = (0..nodes as u32)
            .flat_map(|n| (0..5).map(move |a| (NodeId(n), AttrId(a))))
            .collect();
        let caps = CapacityMap::uniform(nodes, 200.0, 10_000.0).expect("caps");
        let cost = CostModel::new(10.0, 1.0).expect("cost");
        let catalog = AttrCatalog::new();
        let plan = Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog);
        group.throughput(Throughput::Elements(pairs.len() as u64));
        group.bench_with_input(BenchmarkId::new("epoch", nodes), &nodes, |b, _| {
            let mut sim = Simulator::new(SimSetup {
                plan: &plan,
                planned_pairs: &pairs,
                metric_pairs: None,
                caps: &caps,
                cost,
                catalog: &catalog,
                aliases: BTreeMap::new(),
                config: SimConfig::default(),
            });
            b.iter(|| sim.step());
        });
    }
    group.finish();
}

fn bench_wire_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    for &n in &[1usize, 64, 1024] {
        let msg = WireMessage::data(
            3,
            NodeId(7),
            1,
            (0..n)
                .map(|i| WireReading {
                    node: NodeId(i as u32),
                    attr: AttrId((i % 50) as u32),
                    value: i as f64 * 0.5,
                    produced: 1_000 + i as u64,
                    contributors: 1,
                })
                .collect(),
        );
        group.throughput(Throughput::Bytes(msg.encoded_len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", n), &msg, |b, msg| {
            b.iter(|| msg.encode());
        });
        let frame = msg.encode();
        group.bench_with_input(BenchmarkId::new("decode", n), &frame, |b, frame| {
            b.iter(|| WireMessage::decode(frame.clone()).expect("valid frame"));
        });
    }
    group.finish();
}

/// Swallows what an agent or collector sends; unreliable, so the ARQ
/// path the TCP runtime uses is the one measured.
#[derive(Debug)]
struct Sink;

impl Transport for Sink {
    fn send_data(&self, _: NodeId, _: Endpoint, _: u64, _: u64, _: Bytes) {}
    fn send_ack(&self, _: Endpoint, _: NodeId, _: u32, _: u64, _: u64) {}
    fn reliable(&self) -> bool {
        false
    }
}

/// `count` readings of attributes `0..128` from nodes `0..`, produced
/// at `epoch`, as one data frame from `from` with sequence number `seq`.
fn data_frame(from: u32, seq: u64, epoch: u64, count: u32) -> Bytes {
    let readings = (0..count)
        .map(|i| WireReading {
            node: NodeId(from + i / 128),
            attr: AttrId(i % 128),
            value: f64::from(i) + epoch as f64,
            produced: epoch,
            contributors: 1,
        })
        .collect();
    WireMessage::data(0, NodeId(from), seq, readings).encode()
}

/// A copy of `frame` with sequence number `seq` (header bytes 16..24),
/// so one prebuilt frame passes receive-side dedup iteration after
/// iteration.
fn with_seq(frame: &[u8], seq: u64) -> Bytes {
    let mut raw = frame.to_vec();
    raw[16..24].copy_from_slice(&seq.to_be_bytes());
    Bytes::from(raw)
}

/// `frames` envelopes of `payload` bytes each, as one read delivers them.
fn envelope_batch(frames: usize, payload: usize) -> Vec<u8> {
    let mut wire = Vec::new();
    for i in 0..frames {
        Envelope {
            dest: DEST_COLLECTOR,
            chan: CHAN_DATA,
            sent_epoch: i as u64,
            payload: Bytes::from_vec(vec![i as u8; payload]),
        }
        .encode_into(&mut wire);
    }
    wire
}

fn bench_datapath(c: &mut Criterion) {
    let mut group = c.benchmark_group("datapath");

    // A tree root's tick: 128 samples of its own, 7 child frames of 128.
    group.throughput(Throughput::Elements(8 * 128));
    group.bench_function("relay_tick/7x128+128", |b| {
        let (_inbox, rx) = crossbeam::channel::unbounded();
        let (report_tx, reports) = crossbeam::channel::unbounded();
        let mut agent = Agent::new(
            NodeId(0),
            rx,
            Arc::new(Sink),
            report_tx,
            1e12,
            CostModel::default(),
            NetConfig::default(),
            remo_runtime::samplers::deterministic(),
            vec![TreeAssignment {
                tree: 0,
                parent: Route::Collector,
                local: (0..128)
                    .map(|a| LocalAttr {
                        attr: AttrId(a),
                        period: 1,
                        aggregation: Aggregation::Holistic,
                    })
                    .collect(),
                relay_aggregation: BTreeMap::new(),
            }],
        );
        let children: Vec<Bytes> = (1..=7).map(|c| data_frame(c, 0, 0, 128)).collect();
        let mut epoch = 0;
        b.iter(|| {
            epoch += 1;
            for frame in &children {
                agent.handle(AgentMsg::Data {
                    sent_epoch: epoch - 1,
                    frame: with_seq(frame, epoch),
                });
            }
            agent.handle(AgentMsg::Tick { epoch });
            agent.handle(AgentMsg::Ack {
                incarnation: 0,
                seq: epoch,
            });
            reports.try_recv().expect("one report per tick")
        });
    });

    // One read's worth of frames through the stream decoder: many
    // small ones (a hub's read of a thin fleet) and few large ones.
    for (frames, payload) in [(25usize, 250usize), (8, 3_612)] {
        let wire = envelope_batch(frames, payload);
        group.throughput(Throughput::Bytes(wire.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("frame_decoder", format!("{frames}x{payload}B")),
            &wire,
            |b, wire| {
                let mut dec = FrameDecoder::new();
                b.iter(|| {
                    dec.push(wire);
                    let mut pulled = 0;
                    while let Some(env) = dec.try_next().expect("valid stream") {
                        pulled += env.payload.len();
                    }
                    pulled
                });
            },
        );
    }

    // Collector intake of one frame of 1 024 values whose pairs are
    // all in the store already.
    group.throughput(Throughput::Elements(1024));
    group.bench_function("accept_drain/1024_stored_pairs", |b| {
        let mut core = CollectorCore::new(
            1e12,
            CostModel::default(),
            NetConfig::default(),
            AttrCatalog::new(),
        );
        let mut report = EpochReport::default();
        let frame = data_frame(0, 0, 0, 1024);
        let mut epoch = 0;
        b.iter(|| {
            epoch += 1;
            core.refill();
            core.accept_arq(epoch, epoch, with_seq(&frame, epoch), &Sink, &mut report);
            core.drain_arq(epoch, &mut report);
            report.delivered_values
        });
    });

    // Overload: the queue stands at its 4 096-reading bound with no
    // budget to work it off, and each epoch's frame puts it 1 024 over.
    group.bench_function("shed/1024_of_5120", |b| {
        let net = NetConfig::default();
        assert_eq!(net.ingress_capacity, 4096);
        let mut core = CollectorCore::new(0.0, CostModel::default(), net, AttrCatalog::new());
        let mut report = EpochReport::default();
        let frame = data_frame(0, 0, 0, 1024);
        let mut epoch = 0;
        let mut intake = |core: &mut CollectorCore, report: &mut EpochReport| {
            epoch += 1;
            core.accept_arq(epoch, epoch, with_seq(&frame, epoch), &Sink, report);
        };
        for _ in 0..4 {
            intake(&mut core, &mut report);
        }
        b.iter(|| {
            intake(&mut core, &mut report);
            core.drain_arq(0, &mut report);
            assert_eq!(core.ingress_depth(), 4096);
            report.shed_readings
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulator_step,
    bench_wire_protocol,
    bench_datapath
);
criterion_main!(benches);
