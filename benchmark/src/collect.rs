//! The collection path: `collect-thin` and `collect-fat` run a
//! `CollectorService` with 8 in-process `spawn_node` clients over
//! loopback TCP; `collect-lossy` runs the threaded `Deployment` on a
//! seeded `LossyTransport` with no sockets at all.
//!
//! All three are closed loops: `epoch_interval` is zero, so the
//! collector ticks epoch e+1 the moment epoch e's report barrier is
//! satisfied. The barrier deadline is 2 s with `confirm_after` 5, so
//! load never fakes a death. The node threads are the system under
//! test, not the generator; the fleet size is fixed regardless of the
//! core count.

use crate::inputs;
use crate::layers;
use crate::metrics::Layers;
use crate::stats::{mean, median, overhead_pct, percentile, tail};
use crate::{procfs, Ctx, Outcome};
use remo_core::adapt::{AdaptScheme, AdaptivePlanner};
use remo_core::planner::Planner;
use remo_core::{AttrCatalog, CapacityMap, CostModel, MonitoringPlan, NodeId, PairSet};
use remo_node::{
    dist_sampler, spawn_node, CollectorService, NodeConfig, NodeHandle, ServiceConfig,
};
use remo_runtime::agent::{Route, TreeAssignment};
use remo_runtime::deployment::plan_assignments;
use remo_runtime::health::HealthConfig;
use remo_runtime::transport::{NetConfig, NetSpec};
use remo_runtime::{samplers, Deployment, EpochReport, TransportSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Untimed epochs after the measured window, so that readings still in
/// flight are counted before the run is reconciled.
const DRAIN_EPOCHS: u64 = 10;
const SETUP_REPS: usize = 3;
/// Fleets a TCP run pools (see `run_tcp`).
const FLEETS: u64 = 3;
/// Large enough that the collector never sheds or degrades: overload is
/// deliberately not part of this benchmark (see the README).
const INGRESS_CAPACITY: usize = 1 << 20;
const COLLECTOR_CAPACITY: f64 = 1e9;

fn health() -> HealthConfig {
    HealthConfig {
        deadline: Duration::from_secs(2),
        confirm_after: 5,
        ..HealthConfig::default()
    }
}

pub type Assignments = BTreeMap<NodeId, Vec<TreeAssignment>>;

/// What the plan promises per epoch, derived from its assignments.
pub struct Promise {
    /// Readings produced (and, once the pipeline is full, delivered)
    /// every epoch: all sampling periods are 1.
    pub values_per_epoch: u64,
    /// Data frames per epoch that the hub routes node → node.
    pub hub_frames: u64,
    /// Data frames per epoch addressed to the collector (one per tree).
    pub collector_frames: u64,
    /// Longest leaf-to-collector path, in hops.
    pub max_depth: u64,
    /// Readings the one frame of `(tree, node)` carries per epoch: the
    /// node's own plus everything relayed from its subtree.
    pub carried: BTreeMap<(u32, NodeId), usize>,
    /// `carried` of every sender, and of the tree roots alone.
    pub frame_sizes: Vec<usize>,
    pub root_frame_sizes: Vec<usize>,
}

impl Promise {
    pub fn of(assignments: &Assignments) -> Promise {
        let route = |node: NodeId, tree: u32| {
            assignments
                .get(&node)
                .and_then(|v| v.iter().find(|a| a.tree == tree))
                .map(|a| a.parent)
        };
        let mut p = Promise {
            values_per_epoch: 0,
            hub_frames: 0,
            collector_frames: 0,
            max_depth: 0,
            carried: BTreeMap::new(),
            frame_sizes: Vec::new(),
            root_frame_sizes: Vec::new(),
        };
        for (&node, assigns) in assignments {
            for a in assigns {
                p.values_per_epoch += a.local.len() as u64;
                match a.parent {
                    Route::Collector => p.collector_frames += 1,
                    Route::Node(_) => p.hub_frames += 1,
                }
                // Walk to the root, crediting every ancestor's frame.
                let (mut cur, mut depth) = (node, 1u64);
                *p.carried.entry((a.tree, node)).or_insert(0) += a.local.len();
                while let Some(Route::Node(parent)) = route(cur, a.tree) {
                    *p.carried.entry((a.tree, parent)).or_insert(0) += a.local.len();
                    cur = parent;
                    depth += 1;
                    if depth > assignments.len() as u64 {
                        break; // corrupt (cyclic) routes: the audit reports them
                    }
                }
                p.max_depth = p.max_depth.max(depth);
            }
        }
        for (&(tree, node), &n) in p.carried.iter().filter(|(_, &n)| n > 0) {
            p.frame_sizes.push(n);
            if route(node, tree) == Some(Route::Collector) {
                p.root_frame_sizes.push(n);
            }
        }
        p
    }
}

// ------------------------------------------------------------------ TCP

/// Nodes of a TCP fleet.
const TCP_NODES: u32 = 8;

#[derive(Debug)]
pub struct TcpShape {
    /// Attributes every node owns (see `inputs::dense_pairs`).
    pub attrs: usize,
    pub node_capacity: f64,
    pub base_warmup: u64,
    pub base_epochs: u64,
}

/// Many small frames: node capacity 200 under C = 2, a = 1 forces 12
/// trees and 80 frames of ~11 values per epoch, so the per-message cost
/// (framing, ctrl, socket write/read, hub route, ack, thread wake-ups)
/// dominates. Coverage is below 100 % by design: this is the paper's
/// resource-constrained regime.
pub const THIN: TcpShape = TcpShape {
    attrs: 64,
    node_capacity: 200.0,
    base_warmup: 500,
    base_epochs: 8_000,
};

/// Few large frames: one tree, 7 hub-routed frames of 128 values and
/// one root frame of 1 024 values per epoch, so the per-value cost
/// (proto encode/decode, dedup, collector store) dominates.
pub const FAT: TcpShape = TcpShape {
    attrs: 128,
    node_capacity: 1e5,
    base_warmup: 500,
    base_epochs: 13_000,
};

struct Fleet {
    service: CollectorService,
    nodes: Vec<NodeHandle>,
}

fn launch(cfg: ServiceConfig) -> Result<Fleet, String> {
    let service = CollectorService::start(cfg).map_err(|e| format!("collector start: {e}"))?;
    let addr = service.addr().to_string();
    let handles: Vec<NodeHandle> = (0..TCP_NODES)
        .map(|id| {
            let cfg = NodeConfig {
                addr: addr.clone(),
                node: NodeId(id),
                reconnect_base: Duration::from_millis(50),
                max_reconnect_failures: 40,
            };
            spawn_node(cfg, dist_sampler())
        })
        .collect();
    let connected = service.wait_for_nodes(TCP_NODES as usize);
    if connected != TCP_NODES as usize {
        return Err(format!("only {connected} of {TCP_NODES} nodes registered"));
    }
    Ok(Fleet {
        service,
        nodes: handles,
    })
}

impl Fleet {
    /// Drives the configured epochs, then waits for every node thread.
    fn run(self, on_epoch: impl FnMut(&EpochReport)) -> remo_node::RunSummary {
        let summary = self.service.run(on_epoch);
        for h in self.nodes {
            h.join();
        }
        summary
    }
}

/// What the epoch reports of a run's measured windows add up to (one
/// window per fleet on TCP, a single one in process).
#[derive(Default)]
struct Window {
    /// Instant, process CPU and voluntary switches when the current
    /// fleet's window opened.
    start: Option<(Instant, f64, u64)>,
    last_tick: Option<Instant>,
    /// Wall, CPU and voluntary switches summed over the closed windows.
    busy_s: f64,
    cpu_s: f64,
    switches: u64,
    epoch_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    delivered: u64,
    /// Measured epochs that lost something for good: a frame abandoned
    /// or a reading shed and, on TCP, any drop at all or a delivered
    /// count other than the promised one.
    failed_epochs: u64,
    /// Readings dropped on the way (on an unreliable transport most are
    /// receive-side budget drops that ARQ delivers later).
    dropped: u64,
    retransmits: u64,
    duplicates: u64,
    abandoned: u64,
    confirmed_dead: u64,
    ingress_depth_max: u64,
    degrade_factor_max: u64,
    shed: u64,
}

impl Window {
    /// Folds the loss and pressure counters of one epoch report.
    fn fold(&mut self, r: &EpochReport) {
        self.dropped += r.dropped_readings;
        self.shed += r.shed_readings;
        self.retransmits += r.retransmit_messages;
        self.duplicates += r.duplicate_messages_ignored;
        self.abandoned += r.abandoned_messages;
        self.confirmed_dead += r.confirmed_dead;
        self.ingress_depth_max = self.ingress_depth_max.max(r.ingress_depth);
        self.degrade_factor_max = self.degrade_factor_max.max(r.degrade_factor);
    }

    /// The epoch callback of a TCP fleet: the window opens when epoch
    /// `warmup` completes and spans the next `epochs` tick-to-tick
    /// intervals.
    fn observe(&mut self, r: &EpochReport, warmup: u64, epochs: u64, promised: u64, ctx: &mut Ctx) {
        let now = Instant::now();
        self.fold(r);
        if r.epoch == warmup {
            self.start = Some((now, procfs::cpu_s(), procfs::voluntary_switches()));
        } else if r.epoch > warmup && r.epoch <= warmup + epochs {
            let prev = self.last_tick.expect("window started");
            let ms = (now - prev).as_secs_f64() * 1e3;
            self.epoch_ms.push(ms);
            // Alternate epochs are recorded as spans; the others are the
            // untraced reference for `trace.overhead_pct`.
            if r.epoch.is_multiple_of(2) {
                ctx.rec.record("epoch", prev, now);
                self.traced_ms.push(ms);
            } else {
                self.untraced_ms.push(ms);
            }
            self.delivered += r.delivered_values;
            let lossless = r.dropped_readings + r.shed_readings + r.abandoned_messages == 0;
            if !(lossless && r.delivered_values == promised) {
                self.failed_epochs += 1;
            }
            if r.epoch == warmup + epochs {
                let (t0, cpu0, sw0) = self.start.take().expect("window started");
                self.busy_s += (now - t0).as_secs_f64();
                self.cpu_s += procfs::cpu_s() - cpu0;
                self.switches += procfs::voluntary_switches().saturating_sub(sw0);
            }
        }
        self.last_tick = Some(now);
    }
}

pub fn run_tcp(ctx: &mut Ctx, shape: &TcpShape) -> Result<Outcome, String> {
    let warmup = ctx.ops(shape.base_warmup);
    let epochs = ctx.ops(shape.base_epochs);

    let pairs = ctx.rec.span("gen_input", |_| {
        inputs::dense_pairs(TCP_NODES, shape.attrs, &mut inputs::rng(ctx.seed, 0))
    });
    let caps = CapacityMap::uniform(TCP_NODES as usize, shape.node_capacity, COLLECTOR_CAPACITY)
        .expect("positive capacities");
    let config = |epochs: u64| ServiceConfig {
        addr: "127.0.0.1:0".into(),
        pairs: pairs.clone(),
        caps: caps.clone(),
        cost: CostModel::default(),
        catalog: AttrCatalog::new(),
        net: NetConfig {
            ingress_capacity: INGRESS_CAPACITY,
            ..NetConfig::default()
        },
        health: health(),
        epochs,
        epoch_interval: Duration::ZERO,
        startup_wait: Duration::from_secs(10),
        integrity_sampler: Some(dist_sampler()),
    };

    // The service plans internally; the same deterministic call gives the
    // harness the plan and assignments the fleet runs on.
    let planner = AdaptivePlanner::new(
        Planner::default(),
        AdaptScheme::Adaptive,
        pairs.clone(),
        caps.clone(),
        CostModel::default(),
        AttrCatalog::new(),
    );
    let assignments = plan_assignments(planner.plan(), &pairs, &AttrCatalog::new());
    let promise = Promise::of(&assignments);
    if warmup <= promise.max_depth {
        return Err(format!(
            "warm-up {warmup} shorter than tree depth {}",
            promise.max_depth
        ));
    }

    // A run is FLEETS fleets in a row, each launched, warmed up, measured
    // for its share of the epochs, drained and shut down. Which cores the
    // ~50 threads of a fleet settle on shifts its epoch time by several
    // percent for its whole life, so one fleet per run would report that
    // luck; pooling three also gives three samples of the set-up, which
    // is start (plan + bind) → all nodes registered → warm-up epochs done.
    let per_fleet = epochs.div_ceil(FLEETS);
    let epochs = per_fleet * FLEETS;
    let total = warmup + per_fleet + DRAIN_EPOCHS;
    let covered = promise.values_per_epoch;
    let mut out = Outcome::default();
    let mut w = Window::default();
    let mut launch_ms = Vec::new();
    let mut threads = 0;
    for fleet_no in 0..FLEETS {
        let t0 = Instant::now();
        let id = ctx.rec.enter("setup");
        let fleet = ctx.rec.span("launch", |_| launch(config(total)))?;
        launch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        threads = procfs::threads();
        let mut open = Some((id, ctx.rec.enter("warmup")));
        let summary = fleet.run(|r| {
            if r.epoch == warmup {
                ctx.setup_s.push(t0.elapsed().as_secs_f64());
                if let Some((setup, warm)) = open.take() {
                    ctx.rec.exit(warm);
                    ctx.rec.exit(setup);
                }
            }
            w.observe(r, warmup, per_fleet, covered, ctx);
        });

        out.check(
            summary.epochs == total,
            format!("fleet {fleet_no} ran {} epochs", summary.epochs),
        );
        out.check(
            summary.observed_pairs == covered,
            format!(
                "fleet {fleet_no} observed {} pairs, plan covers {covered}",
                summary.observed_pairs
            ),
        );
        out.check(
            summary.integrity_violations == 0 && summary.integrity_checked == covered,
            format!(
                "fleet {fleet_no} integrity: {} violations over {} checked",
                summary.integrity_violations, summary.integrity_checked
            ),
        );
        out.check(
            summary.confirmed_dead == 0 && summary.protocol_rejects == 0,
            format!(
                "fleet {fleet_no}: {} confirmed dead, {} protocol rejects",
                summary.confirmed_dead, summary.protocol_rejects
            ),
        );
        out.check(
            summary.degrade_factor == 1 && summary.shed_readings == 0,
            format!("fleet {fleet_no} shed or degraded"),
        );
        out.coverage_pct = 100.0 * summary.observed_pairs as f64 / summary.planned_pairs as f64;
    }
    ctx.rec.count("epochs", epochs);
    ctx.rec.count("values", w.delivered);
    if w.epoch_ms.len() as u64 != epochs {
        return Err(format!("{} of {epochs} epochs observed", w.epoch_ms.len()));
    }
    out.ops.busy_s = w.busy_s;
    out.ops.cpu_s = w.cpu_s;
    out.ops.ms = std::mem::take(&mut w.epoch_ms);

    // Reconciliation. Lockstep makes the pipeline exact: once it is
    // full, every epoch delivers exactly what the plan promises.
    out.attempted = epochs;
    out.failed = w.failed_epochs;
    out.check(
        w.failed_epochs == 0 && w.delivered == epochs * covered,
        format!(
            "{} epochs did not deliver exactly {covered} values; {} of {} due readings delivered",
            w.failed_epochs,
            w.delivered,
            epochs * covered
        ),
    );
    out.check(w.degrade_factor_max == 1, "the collector degraded".into());
    // TCP loses nothing and lockstep orders every ack before the next
    // tick, so the ARQ layer must stay idle.
    out.check(
        w.retransmits == 0 && w.duplicates == 0,
        format!(
            "{} retransmits, {} duplicates on TCP",
            w.retransmits, w.duplicates
        ),
    );
    out.notes.push(format!(
        "{epochs} epochs over {FLEETS} fleets: {} values delivered ({covered} per epoch, {covered} of {} pairs), {} trees",
        w.delivered,
        pairs.len(),
        promise.collector_frames
    ));

    if ctx.traced {
        let l = &mut out.layers;
        let epoch_us: Vec<f64> = out.ops.ms.iter().map(|ms| ms * 1e3).collect();
        l.set("node.service.launch_ms", median(&launch_ms));
        l.set("node.service.epoch_us_tail", tail(&epoch_us));
        l.set("node.service.epoch_us_max", percentile(&epoch_us, 100.0));
        l.set(
            "node.service.hub_frames_per_epoch",
            promise.hub_frames as f64,
        );
        l.set(
            "node.service.collector_frames_per_epoch",
            promise.collector_frames as f64,
        );
        l.set(
            "node.service.values_per_frame_mean",
            mean(
                &promise
                    .frame_sizes
                    .iter()
                    .map(|&n| n as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        l.set("node.proc.threads", threads as f64);
        l.set(
            "node.proc.ctx_switches_per_epoch",
            w.switches as f64 / epochs as f64,
        );
        l.set(
            "trace.overhead_pct",
            overhead_pct(&w.traced_ms, &w.untraced_ms),
        );
        collector_counters(l, &w, out.ops.busy_s, out.ops.cpu_s, epochs);
        layers::net_layers(ctx, l)?;
        layers::collection_layers(
            ctx,
            l,
            planner.plan(),
            &pairs,
            &caps,
            CostModel::default(),
            &assignments,
            &promise,
        );
    }
    Ok(out)
}

fn collector_counters(l: &mut Layers, w: &Window, busy_s: f64, cpu_s: f64, epochs: u64) {
    l.set(
        "runtime.collector.values_per_s",
        w.delivered as f64 / busy_s,
    );
    l.set(
        "runtime.collector.values_per_epoch",
        w.delivered as f64 / epochs as f64,
    );
    l.set(
        "runtime.collector.cpu_us_per_value",
        cpu_s * 1e6 / w.delivered.max(1) as f64,
    );
    l.set(
        "runtime.collector.ingress_depth_max",
        w.ingress_depth_max as f64,
    );
    l.set("runtime.collector.shed_readings", w.shed as f64);
    l.set(
        "runtime.collector.degrade_factor_max",
        w.degrade_factor_max as f64,
    );
    l.set("runtime.transport.abandoned", w.abandoned as f64);
}

// ---------------------------------------------------------------- lossy

const LOSSY_NODES: u32 = 16;
const LOSSY_ATTRS: usize = 16;
const LOSSY_NODE_CAPACITY: f64 = 1_000.0;
const LOSSY_BASE_WARMUP: u64 = 1_000;
const LOSSY_BASE_EPOCHS: u64 = 30_000;

fn lossy_net(seed: u64) -> NetSpec {
    NetSpec {
        seed,
        drop: 0.05,
        delay_max: 1,
        dup: 0.02,
        reorder: 0.02,
        ..NetSpec::default()
    }
}

struct LossyInput {
    pairs: PairSet,
    caps: CapacityMap,
    plan: MonitoringPlan,
}

/// Same agent and collector code as the TCP workloads with no sockets,
/// and with ARQ retransmit, dedup and reorder actually firing. It
/// bypasses `node::*` and `framing` entirely: the prediction for a
/// net-layer change is no movement here.
pub fn run_lossy(ctx: &mut Ctx) -> Result<Outcome, String> {
    let warmup = ctx.ops(LOSSY_BASE_WARMUP);
    let epochs = ctx.ops(LOSSY_BASE_EPOCHS);
    let cost = CostModel::default();
    let catalog = AttrCatalog::new();
    let net = NetConfig {
        ingress_capacity: INGRESS_CAPACITY,
        // With the default 5 attempts one frame in 10^5 is abandoned
        // (data or ack lost five times running) and its readings count
        // as failed operations; 10 attempts make that one in 10^10.
        max_attempts: 10,
        // Staleness needs the delivery log; its memory is unbounded, so
        // it is on in the traced pass only.
        record_deliveries: ctx.traced,
        ..NetConfig::default()
    };
    let sampler = samplers::deterministic();

    // Set-up = pairs → plan → assignments + agent threads → warm-up.
    let (input, mut dep) = ctx.setup(SETUP_REPS, |ctx| {
        let pairs = ctx.rec.span("gen_input", |_| {
            inputs::dense_pairs(LOSSY_NODES, LOSSY_ATTRS, &mut inputs::rng(ctx.seed, 0))
        });
        let caps = CapacityMap::uniform(
            LOSSY_NODES as usize,
            LOSSY_NODE_CAPACITY,
            COLLECTOR_CAPACITY,
        )
        .expect("positive capacities");
        let plan = ctx.rec.span("initial_plan", |_| {
            Planner::default().plan_with_catalog(&pairs, &caps, cost, &catalog)
        });
        let mut dep = ctx.rec.span("launch", |_| {
            Deployment::launch_with_transport(
                &plan,
                &pairs,
                &caps,
                cost,
                &catalog,
                sampler.clone(),
                health(),
                TransportSpec::Lossy(lossy_net(ctx.seed), net),
            )
        });
        ctx.rec.span("warmup", |_| dep.run(warmup));
        (LossyInput { pairs, caps, plan }, dep)
    });

    let promise = Promise::of(dep.assignments());
    let mut w = Window::default();
    let threads = procfs::threads();
    let cpu0 = procfs::cpu_s();
    let sw0 = procfs::voluntary_switches();
    let mut out = Outcome::default();
    let t_start = Instant::now();
    let measured = ctx.rec.enter("measured");
    for i in 0..epochs {
        let spanned = i % 2 == 0;
        let id = ctx.rec.enter_if(spanned, "epoch");
        let t0 = Instant::now();
        let r = dep.tick();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        ctx.rec.exit(id);
        (if spanned {
            &mut w.traced_ms
        } else {
            &mut w.untraced_ms
        })
        .push(ms);
        w.epoch_ms.push(ms);
        w.fold(&r);
        w.delivered += r.delivered_values;
        if r.abandoned_messages + r.shed_readings > 0 {
            w.failed_epochs += 1;
        }
    }
    ctx.rec.exit(measured);
    out.ops.busy_s = t_start.elapsed().as_secs_f64();
    out.ops.cpu_s = procfs::cpu_s() - cpu0;
    let switches = procfs::voluntary_switches() - sw0;
    out.ops.ms = std::mem::take(&mut w.epoch_ms);
    for _ in 0..DRAIN_EPOCHS {
        w.fold(&dep.tick());
    }
    let dead = w.confirmed_dead;
    ctx.rec.count("epochs", epochs);
    ctx.rec.count("values", w.delivered);

    // An epoch fails when a frame is abandoned or a reading shed in it;
    // receive-side budget drops are retried by ARQ and lose nothing.
    out.attempted = epochs;
    out.failed = w.failed_epochs;
    let observed = dep.observed_pairs();
    out.coverage_pct = 100.0 * observed as f64 / input.pairs.len() as f64;
    let wrong = input
        .pairs
        .iter()
        .filter(|&(n, a)| {
            dep.observed(n, a)
                .is_none_or(|o| o.value != sampler(n, a, o.produced))
        })
        .count();
    out.check(
        wrong == 0,
        format!("{wrong} pairs unobserved or not equal to the sampler at their produced epoch"),
    );
    out.check(
        dead == 0 && w.degrade_factor_max <= 1 && w.shed == 0,
        format!(
            "{dead} confirmed dead, degrade {}, shed {}",
            w.degrade_factor_max, w.shed
        ),
    );
    // Late readings move between epochs (a few epochs' worth cross each
    // end of the window) but must not vanish or double.
    let due = epochs * promise.values_per_epoch;
    out.check(
        w.delivered.abs_diff(due) as f64 <= 0.001 * due as f64,
        format!("{} values delivered against {due} due", w.delivered),
    );
    let stats = dep.net_stats();
    out.notes.push(format!(
        "{epochs} epochs: {} values delivered of {due} due; {} frames sent, {} retransmits, {} duplicates ignored, {} readings dropped and retried, {} frames abandoned",
        w.delivered, stats.data_sent, w.retransmits, w.duplicates, w.dropped, w.abandoned
    ));

    if ctx.traced {
        let l = &mut out.layers;
        let staleness: Vec<f64> = dep
            .delivery_log()
            .iter()
            .map(|d| d.received.saturating_sub(d.produced) as f64)
            .collect();
        l.set("runtime.collector.staleness_epochs_mean", mean(&staleness));
        l.set(
            "runtime.collector.staleness_epochs_p99",
            percentile(&staleness, 99.0),
        );
        l.set(
            "runtime.transport.retransmit_ratio",
            w.retransmits as f64 / stats.data_sent.max(1) as f64,
        );
        l.set(
            "runtime.transport.dup_ignored_ratio",
            w.duplicates as f64 / stats.delivered.max(1) as f64,
        );
        l.set("node.proc.threads", threads as f64);
        l.set(
            "node.proc.ctx_switches_per_epoch",
            switches as f64 / epochs as f64,
        );
        l.set(
            "trace.overhead_pct",
            overhead_pct(&w.traced_ms, &w.untraced_ms),
        );
        collector_counters(l, &w, out.ops.busy_s, out.ops.cpu_s, epochs);
        let assignments = dep.assignments().clone();
        dep.shutdown();
        layers::collection_layers(
            ctx,
            l,
            &input.plan,
            &input.pairs,
            &input.caps,
            cost,
            &assignments,
            &promise,
        );
    } else {
        dep.shutdown();
    }
    Ok(out)
}
