//! Per-layer micro-measurements of the traced pass.
//!
//! Every number is taken from outside: a public function of the layer is
//! called and timed on inputs lifted from the workload (its real plan,
//! assignments and frame sizes). Spans inside the program are a later
//! change. Each measurement is one span, so the trace file shows where
//! the traced pass itself spent its time.

use crate::collect::{Assignments, Promise};
use crate::metrics::Layers;
use crate::plan::Input;
use crate::stats::{median, relative_fit};
use crate::Ctx;
use bytes::Bytes;
use crossbeam::channel::unbounded;
use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
use remo_core::build::{build_tree, BuilderKind};
use remo_core::estimate::GainEstimator;
use remo_core::evaluate::{make_request, EvalContext};
use remo_core::planner::Planner;
use remo_core::validate::{Audit, AuditInput};
use remo_core::{
    AttrCatalog, AttrId, CapacityMap, CostModel, MonitoringPlan, NodeId, PairSet, Partition,
    TreeCache,
};
use remo_node::net::{read_envelopes, spawn_writer};
use remo_runtime::agent::{Agent, AgentMsg, Route, TickReport};
use remo_runtime::deployment::plan_assignments;
use remo_runtime::framing::{Envelope, FrameDecoder, CHAN_DATA, DEST_COLLECTOR};
use remo_runtime::transport::{Endpoint, IncarnationTracker, NetConfig, Transport};
use remo_runtime::{CollectorCore, CtrlMsg, EpochReport, RepairEngine, WireMessage, WireReading};
use remo_sim::engine::{SimConfig, SimSetup, Simulator};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Median seconds of `f` over `reps` calls, recorded as one span.
fn timed<T>(ctx: &mut Ctx, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    ctx.rec.span(name, |_| {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    })
}

/// Median nanoseconds per call of `f`, over `reps` batches of `batch`.
fn ns_per_call<T>(
    ctx: &mut Ctx,
    name: &'static str,
    reps: usize,
    batch: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    timed(ctx, name, reps, || {
        for _ in 0..batch {
            black_box(f());
        }
    }) * 1e9
        / batch as f64
}

fn plan_shape(l: &mut Layers, plan: &MonitoringPlan) {
    l.set("core.plan.trees", plan.trees().len() as f64);
    l.set("core.plan.volume", plan.message_volume());
    l.set("core.plan.msgs_per_epoch", plan.message_count() as f64);
    l.set(
        "core.plan.cost_per_pair",
        plan.message_volume() / plan.collected_pairs().max(1) as f64,
    );
}

fn audit_ms(
    ctx: &mut Ctx,
    plan: &MonitoringPlan,
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
) -> f64 {
    let catalog = AttrCatalog::new();
    timed(ctx, "audit.plan_check", 3, || {
        Audit::new()
            .run(&AuditInput::new(plan, pairs, caps, cost, &catalog))
            .is_clean()
    }) * 1e3
}

/// `core::*` layers on a plan workload's first task set and its plan.
pub fn planner_layers(
    ctx: &mut Ctx,
    l: &mut Layers,
    input: &Input,
    plan: &MonitoringPlan,
    cost: CostModel,
    catalog: &AttrCatalog,
) {
    let (pairs, caps) = (&input.pairs, &input.caps);
    let planner = Planner::default();
    plan_shape(l, plan);
    l.set(
        "audit.plan_check_ms",
        audit_ms(ctx, plan, pairs, caps, cost),
    );

    // Forest build + allocation with no search: the work `seed` and
    // `global` are made of.
    let universe = || pairs.attrs();
    for (name, partition) in [
        ("core.evaluate.one_set_ms", Partition::one_set(universe())),
        (
            "core.evaluate.singleton_ms",
            Partition::singleton(universe()),
        ),
    ] {
        let s = timed(ctx, "core.evaluate", 3, || {
            planner.evaluate_partition(&partition, pairs, caps, cost, catalog)
        });
        l.set(name, s * 1e3);
    }

    // One tree construction on the plan's largest attribute set.
    if let Some(set) = plan.partition().sets().iter().max_by_key(|s| s.len()) {
        let eval = EvalContext::basic(pairs, caps, cost, catalog);
        let avail: BTreeMap<NodeId, f64> = caps.iter().collect();
        let request = make_request(set, &eval, &avail, caps.collector());
        for (name, kind) in [
            ("core.build.tree_us_adaptive", BuilderKind::default()),
            ("core.build.tree_us_star", BuilderKind::Star),
        ] {
            let s = timed(ctx, "core.build.tree", 5, || build_tree(kind, &request));
            l.set(name, s * 1e6);
        }
    }

    let max_budget = caps.iter().map(|(_, b)| b).fold(0.0, f64::max);
    let estimator = GainEstimator::with_capacity(pairs, cost, max_budget);
    let s = timed(ctx, "core.estimate.rank", 5, || {
        estimator.rank_ops(plan.partition(), plan).len()
    });
    l.set("core.estimate.rank_ms", s * 1e3);

    // First `index()` on a freshly collected pair set (it is built
    // lazily and cached, so every repetition needs its own set).
    let id = ctx.rec.enter("core.pairs.index_build");
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let fresh: PairSet = pairs.iter().collect();
            let t0 = Instant::now();
            let _ = black_box(fresh.index());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    ctx.rec.exit(id);
    l.set("core.pairs.index_build_ms", median(&samples) * 1e3);

    // One cold plan against a caller-owned cache, to read its counters.
    let cache = TreeCache::new();
    ctx.rec.span("core.cache.plan", |_| {
        planner.plan_with_report_cached(pairs, caps, cost, catalog, Some(&cache))
    });
    let stats = cache.stats();
    l.set("core.cache.hit_ratio", stats.hit_rate());
    l.set("core.cache.invalidations", stats.invalidations as f64);
    l.set("core.cache.entries", stats.entries as f64);
}

// ------------------------------------------------------------ collection

fn reading(node: u32, attr: u32, epoch: u64) -> WireReading {
    WireReading {
        node: NodeId(node),
        attr: AttrId(attr),
        value: f64::from(node) * 1000.0 + f64::from(attr),
        produced: epoch,
        contributors: 1,
    }
}

/// A data frame of `values` readings with sequence number `seq`.
fn data_frame(values: usize, seq: u64) -> WireMessage {
    let readings = (0..values as u32)
        .map(|i| reading(i / 128, i % 128, seq))
        .collect();
    WireMessage::data(0, NodeId(0), seq, readings)
}

/// Swallows everything an agent or collector sends.
#[derive(Debug)]
struct SinkTransport;

impl Transport for SinkTransport {
    fn send_data(&self, _from: NodeId, _to: Endpoint, _seq: u64, _epoch: u64, frame: Bytes) {
        black_box(frame);
    }
    fn send_ack(&self, _from: Endpoint, _to: NodeId, _incarnation: u32, _seq: u64, _epoch: u64) {}
    fn reliable(&self) -> bool {
        false
    }
}

/// Microseconds per `Tick` of one real `Agent` holding the root
/// assignment of the plan's largest tree, fed each epoch the frames its
/// children would send and the ack for the frame it sent.
fn agent_tick_us(assignments: &Assignments, promise: &Promise, cost: CostModel) -> f64 {
    const TICKS: u64 = 200;
    let Some((&root, root_assign)) = assignments
        .iter()
        .flat_map(|(n, v)| v.iter().map(move |a| (n, a)))
        .filter(|(_, a)| a.parent == Route::Collector)
        .max_by_key(|(n, a)| promise.carried.get(&(a.tree, **n)).copied())
    else {
        return 0.0;
    };
    // Its direct children, with what each child's frame carries.
    let children: Vec<(NodeId, usize)> = assignments
        .iter()
        .filter(|(_, v)| {
            v.iter()
                .any(|a| a.tree == root_assign.tree && a.parent == Route::Node(root))
        })
        .map(|(&n, _)| (n, promise.carried[&(root_assign.tree, n)]))
        .collect();

    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let (tx, rx) = unbounded();
            let (report_tx, report_rx) = unbounded::<TickReport>();
            let agent = Agent::new(
                root,
                rx,
                Arc::new(SinkTransport),
                report_tx,
                1e12,
                cost,
                NetConfig::default(),
                remo_runtime::samplers::deterministic(),
                vec![root_assign.clone()],
            );
            for epoch in 1..=TICKS {
                for &(child, carried) in &children {
                    let readings = (0..carried as u32)
                        .map(|i| reading(child.0, i, epoch - 1))
                        .collect();
                    let frame = WireMessage::data(root_assign.tree, child, epoch, readings);
                    let _ = tx.send(AgentMsg::Data {
                        sent_epoch: epoch - 1,
                        frame: frame.encode(),
                    });
                }
                let _ = tx.send(AgentMsg::Tick { epoch });
                // The root sends one frame per tick; ack it so the ARQ
                // queue stays as short as it does in a healthy run.
                let _ = tx.send(AgentMsg::Ack {
                    incarnation: 0,
                    seq: epoch,
                });
            }
            let _ = tx.send(AgentMsg::Shutdown);
            let t0 = Instant::now();
            agent.run();
            let us = t0.elapsed().as_secs_f64() * 1e6 / TICKS as f64;
            black_box(report_rx.try_recv().is_ok());
            us
        })
        .collect();
    median(&batches)
}

/// `runtime::*`, cost-model and simulator layers on a collect
/// workload's plan, assignments and frame sizes.
#[allow(clippy::too_many_arguments)]
pub fn collection_layers(
    ctx: &mut Ctx,
    l: &mut Layers,
    plan: &MonitoringPlan,
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
    assignments: &Assignments,
    promise: &Promise,
) {
    let catalog = AttrCatalog::new();
    plan_shape(l, plan);
    l.set(
        "audit.plan_check_ms",
        audit_ms(ctx, plan, pairs, caps, cost),
    );
    let s = timed(ctx, "runtime.deployment.plan_assignments", 5, || {
        plan_assignments(plan, pairs, &catalog).len()
    });
    l.set("runtime.deployment.plan_assignments_ms", s * 1e3);

    let us = ctx.rec.span("runtime.agent.tick", |_| {
        agent_tick_us(assignments, promise, cost)
    });
    l.set("runtime.agent.tick_us_p50", us);

    // proto + framing at the workload's median frame size.
    let sizes: Vec<f64> = promise.frame_sizes.iter().map(|&n| n as f64).collect();
    let values = (median(&sizes).round() as usize).max(1);
    let msg = data_frame(values, 1);
    let encoded = msg.encode();
    let ns = ns_per_call(ctx, "runtime.proto.encode", 5, 2_000, || msg.encode());
    l.set("runtime.proto.encode_ns_per_value", ns / values as f64);
    let ns = ns_per_call(ctx, "runtime.proto.decode", 5, 2_000, || {
        WireMessage::decode(encoded.clone())
    });
    l.set("runtime.proto.decode_ns_per_value", ns / values as f64);
    l.set(
        "runtime.proto.bytes_per_value",
        encoded.len() as f64 / values as f64,
    );
    l.set("runtime.proto.bytes_per_msg", encoded.len() as f64);

    let envelope = Envelope {
        dest: DEST_COLLECTOR,
        chan: CHAN_DATA,
        sent_epoch: 1,
        payload: encoded.clone(),
    };
    let wire = envelope.encode();
    let ns = ns_per_call(ctx, "runtime.framing.encode", 5, 2_000, || {
        envelope.encode()
    });
    l.set("runtime.framing.encode_ns_per_frame", ns);
    let mut decoder = FrameDecoder::new();
    let ns = ns_per_call(ctx, "runtime.framing.decode", 5, 2_000, || {
        decoder.push(&wire);
        decoder.try_next()
    });
    l.set("runtime.framing.decode_ns_per_frame", ns);

    // ctrl: the two control frames every epoch exchanges with each node.
    let report = TickReport {
        node: NodeId(3),
        epoch: 7,
        sent_messages: 12,
        sent_readings: 58,
        volume: 82.0,
        ..TickReport::default()
    };
    let ns = ns_per_call(ctx, "runtime.ctrl.tick_report", 5, 2_000, || {
        let tick = CtrlMsg::decode(CtrlMsg::Tick { epoch: 7 }.encode());
        let rep = CtrlMsg::decode(CtrlMsg::Report { report }.encode());
        (tick.is_ok(), rep.is_ok())
    });
    l.set("runtime.ctrl.tick_report_ns", ns);

    // collector intake on the frames the roots send per epoch.
    let (accept_ns, drain_ns) = collector_intake(ctx, &promise.root_frame_sizes, cost);
    l.set("runtime.collector.accept_ns_per_frame", accept_ns);
    l.set("runtime.collector.drain_ns_per_value", drain_ns);

    let mut tracker = IncarnationTracker::default();
    let mut seq = 0u64;
    let ns = ns_per_call(ctx, "runtime.transport.dedup", 5, 10_000, || {
        seq += 1;
        tracker.insert(0, seq)
    });
    l.set("runtime.transport.dedup_ns_per_seq", ns);

    // One confirmed failure repaired on the workload's own plan.
    let victim = assignments.keys().next().copied().unwrap_or(NodeId(0));
    let mut engines: Vec<RepairEngine> = (0..3)
        .map(|_| {
            RepairEngine::new(AdaptivePlanner::new(
                Planner::default(),
                AdaptScheme::Adaptive,
                pairs.clone(),
                caps.clone(),
                cost,
                catalog.clone(),
            ))
        })
        .collect();
    let s = timed(ctx, "runtime.repair", 3, || {
        let mut engine = engines.pop().expect("one engine per repetition");
        engine.repair(&[victim], &[], assignments, 1).1.len()
    });
    l.set("runtime.repair.repair_ms", s * 1e3);

    cost_model_fit(ctx, l, cost);

    // The simulator stepping the same plan: a guard for the substrate
    // merge (ROADMAP item 3), not something a collect metric depends on.
    let mut sim = Simulator::new(SimSetup {
        plan,
        planned_pairs: pairs,
        metric_pairs: None,
        caps,
        cost,
        catalog: &catalog,
        aliases: BTreeMap::new(),
        config: SimConfig::default(),
    });
    const STEPS: u64 = 200;
    let mut delivered = 0;
    let s = timed(ctx, "sim.engine.step", 1, || {
        for _ in 0..STEPS {
            delivered += sim.step().delivered_values;
        }
    });
    l.set(
        "sim.engine.step_us_per_value",
        s * 1e6 / delivered.max(1) as f64,
    );
}

/// `(accept ns per frame, drain ns per value)` of `CollectorCore` fed,
/// epoch after epoch, the frames the plan's roots send.
fn collector_intake(ctx: &mut Ctx, root_sizes: &[usize], cost: CostModel) -> (f64, f64) {
    const EPOCHS: u64 = 300;
    let mut core = CollectorCore::new(
        1e12,
        cost,
        NetConfig {
            ingress_capacity: 1 << 20,
            ..NetConfig::default()
        },
        AttrCatalog::new(),
    );
    let sink = SinkTransport;
    let (mut accept_s, mut drain_s) = (0.0, 0.0);
    let (mut frames, mut values) = (0u64, 0u64);
    let id = ctx.rec.enter("runtime.collector.intake");
    for epoch in 1..=EPOCHS {
        // Encoding the input is the harness's work, not the collector's.
        let batch: Vec<Bytes> = root_sizes
            .iter()
            .enumerate()
            .map(|(root, &n)| {
                let readings = (0..n as u32)
                    .map(|i| reading(root as u32, i, epoch))
                    .collect();
                WireMessage::data(root as u32, NodeId(root as u32), epoch, readings).encode()
            })
            .collect();
        let mut report = EpochReport::default();
        core.refill();
        let t0 = Instant::now();
        for frame in batch {
            core.accept_arq(epoch, epoch, frame, &sink, &mut report);
        }
        let t1 = Instant::now();
        core.drain_arq(epoch, &mut report);
        drain_s += t1.elapsed().as_secs_f64();
        accept_s += (t1 - t0).as_secs_f64();
        frames += root_sizes.len() as u64;
        values += report.delivered_values;
    }
    ctx.rec.exit(id);
    (
        accept_s * 1e9 / frames.max(1) as f64,
        drain_s * 1e9 / values.max(1) as f64,
    )
}

/// The paper's Fig. 2 on this repo's own wire: time and bytes of one
/// message of x values through the single-threaded path
/// `WireMessage::encode → Envelope::encode → FrameDecoder →
/// WireMessage::decode → accept_arq → drain_arq`, fitted to `C + a·x`.
fn cost_model_fit(ctx: &mut Ctx, l: &mut Layers, cost: CostModel) {
    const SIZES: [usize; 6] = [1, 4, 16, 64, 256, 1024];
    const MESSAGES: u64 = 400;
    let sink = SinkTransport;
    let id = ctx.rec.enter("costmodel.sweep");
    let (mut time_points, mut byte_points) = (Vec::new(), Vec::new());
    for &x in &SIZES {
        let mut core = CollectorCore::new(
            1e12,
            cost,
            NetConfig {
                ingress_capacity: 1 << 20,
                ..NetConfig::default()
            },
            AttrCatalog::new(),
        );
        let mut decoder = FrameDecoder::new();
        let mut wire_bytes = 0;
        let mut samples = Vec::new();
        for rep in 0..5u64 {
            let t0 = Instant::now();
            for i in 1..=MESSAGES {
                let seq = rep * MESSAGES + i;
                let wire = Envelope {
                    dest: DEST_COLLECTOR,
                    chan: CHAN_DATA,
                    sent_epoch: seq,
                    payload: data_frame(x, seq).encode(),
                }
                .encode();
                wire_bytes = wire.len();
                decoder.push(&wire);
                let Ok(Some(env)) = decoder.try_next() else {
                    continue;
                };
                let mut report = EpochReport::default();
                core.refill();
                core.accept_arq(seq, env.sent_epoch, env.payload, &sink, &mut report);
                core.drain_arq(seq, &mut report);
                black_box(report.delivered_values);
            }
            samples.push(t0.elapsed().as_secs_f64() * 1e6 / MESSAGES as f64);
        }
        time_points.push((x as f64, median(&samples)));
        byte_points.push((x as f64, wire_bytes as f64));
    }
    ctx.rec.exit(id);
    let time = relative_fit(&time_points);
    let bytes = relative_fit(&byte_points);
    l.set("costmodel.C_us", time.intercept);
    l.set("costmodel.a_us", time.slope);
    l.set("costmodel.ratio", time.intercept / time.slope);
    l.set("costmodel.r2", time.r2);
    l.set("costmodel.wire_C_bytes", bytes.intercept);
    l.set("costmodel.wire_a_bytes", bytes.slope);
}

// ------------------------------------------------------------------- net

/// An echo peer built from the same `spawn_writer` / `read_envelopes`
/// plumbing the node client and the collector service use.
fn echo_server(listener: TcpListener) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let (tx, rx) = unbounded();
        let writer = spawn_writer(write_half, rx);
        let _ = read_envelopes(&mut stream, |env| {
            // dest 0 asks for an echo; anything else is one-way traffic
            // acknowledged once, by the envelope tagged dest 1.
            if env.dest <= 1 {
                let _ = tx.send(env.encode());
            }
            true
        });
        drop(tx);
        let _ = writer.join();
    })
}

/// `node::net`: one hop over loopback, and one-way throughput at a
/// small and a large payload.
pub fn net_layers(ctx: &mut Ctx, l: &mut Layers) -> Result<(), String> {
    const PINGS: usize = 2_000;
    const SMALL: (usize, usize) = (64, 50_000);
    const LARGE: (usize, usize) = (64 * 1024, 1_500);
    let io = |e: std::io::Error| format!("net layer: {e}");

    let id = ctx.rec.enter("node.net");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let server = echo_server(listener);
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let (tx, rx) = unbounded();
    let writer = spawn_writer(stream.try_clone().map_err(io)?, rx);
    let (echo_tx, echo_rx) = unbounded();
    let reader = std::thread::spawn(move || {
        let _ = read_envelopes(&mut stream, |env| echo_tx.send(env).is_ok());
    });
    let envelope = |dest: u32, len: usize| {
        Envelope {
            dest,
            chan: CHAN_DATA,
            sent_epoch: 0,
            payload: Bytes::from(vec![7u8; len]),
        }
        .encode()
    };

    let ping = envelope(0, SMALL.0);
    let mut hops = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let t0 = Instant::now();
        tx.send(ping.clone()).map_err(|e| e.to_string())?;
        echo_rx.recv().map_err(|e| e.to_string())?;
        hops.push(t0.elapsed().as_secs_f64() * 1e6 / 2.0);
    }
    l.set("node.net.hop_us_p50", median(&hops));

    let one_way = |(len, count): (usize, usize)| -> Result<f64, String> {
        let body = envelope(2, len);
        let last = envelope(1, len);
        let t0 = Instant::now();
        for _ in 1..count {
            tx.send(body.clone()).map_err(|e| e.to_string())?;
        }
        tx.send(last).map_err(|e| e.to_string())?;
        echo_rx.recv().map_err(|e| e.to_string())?;
        Ok(t0.elapsed().as_secs_f64())
    };
    let s = one_way(SMALL)?;
    l.set("node.net.frames_per_s_small", SMALL.1 as f64 / s);
    let s = one_way(LARGE)?;
    l.set(
        "node.net.mb_per_s_large",
        (LARGE.0 * LARGE.1) as f64 / 1e6 / s,
    );

    drop(tx);
    let _ = writer.join();
    let _ = reader.join();
    let _ = server.join();
    ctx.rec.exit(id);
    Ok(())
}
