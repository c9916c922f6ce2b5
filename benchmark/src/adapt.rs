//! `adapt-churn`: `AdaptivePlanner::update` under a seeded stream of
//! task add / remove / modify events.
//!
//! This uses the planner layer differently from the cold-plan
//! workloads: a warm `TreeCache`, the direct-apply base plus a
//! restricted search, calls of milliseconds instead of a second. A
//! change that speeds cold plans by spending memory or set-up shows its
//! cost here.

use crate::inputs;
use crate::plan::COST_RATIO;
use crate::stats::{mean, median, overhead_pct, tail};
use crate::{Ctx, OpSamples, Outcome};
use rand::rngs::SmallRng;
use remo_core::adapt::{AdaptScheme, AdaptationReport, AdaptivePlanner};
use remo_core::planner::Planner;
use remo_core::{AttrCatalog, CapacityMap, CostModel, NodeId, TaskChange, TaskManager};
use remo_workloads::taskchurn::{churn_step, TaskChurnConfig};
use std::time::Instant;

const NODES: usize = 200;
const ATTRS: usize = 40;
const TASKS: usize = 100;
/// At 200 (coverage ~45 %) the median update took 4 to 13 ms depending on
/// the seed; at 400 (~93 %) it stays within a few percent of 36 ms.
const NODE_CAPACITY: f64 = 400.0;
const COLLECTOR_CAPACITY: f64 = 40.0 * NODES as f64;
/// Independent task managers + planners per run, each fed its own churn
/// stream: update time depends on the plan the stream started from, so
/// one stream alone would tie the result to the seed.
const STREAMS: u64 = 4;
const WARMUP_EVENTS: u64 = 8;
const BASE_EVENTS: u64 = 300;
const SETUP_REPS: usize = 3;
/// Failure / recovery pairs timed in the traced pass.
const FAILURES: u32 = 10;

struct Stream {
    tm: TaskManager,
    planner: AdaptivePlanner,
    rng: SmallRng,
    now: u64,
}

fn churn() -> TaskChurnConfig {
    TaskChurnConfig::balanced(NODES, ATTRS)
}

impl Stream {
    fn new(ctx: &mut Ctx, index: u64) -> Stream {
        let mut rng = inputs::rng(ctx.seed, index);
        let mut tm = TaskManager::new();
        ctx.rec.span("gen_input", |_| {
            for t in inputs::small_tasks(NODES, ATTRS, TASKS, &mut rng) {
                tm.add(t).expect("generated tasks are non-empty and unique");
            }
        });
        let planner = ctx.rec.span("initial_plan", |_| {
            AdaptivePlanner::new(
                Planner::default(),
                AdaptScheme::Adaptive,
                tm.pairs(),
                CapacityMap::uniform(NODES, NODE_CAPACITY, COLLECTOR_CAPACITY)
                    .expect("positive capacities"),
                CostModel::from_ratio(COST_RATIO).expect("positive ratio"),
                AttrCatalog::new(),
            )
        });
        let mut s = Stream {
            tm,
            planner,
            rng,
            now: 0,
        };
        ctx.rec.span("warmup", |_| {
            let mut untimed = OpSamples::default();
            for _ in 0..WARMUP_EVENTS {
                if s.next_event().is_some() {
                    s.apply(&mut untimed);
                }
            }
        });
        s
    }

    /// Draws the next churn event into the task manager.
    fn next_event(&mut self) -> Option<TaskChange> {
        churn_step(&mut self.tm, &churn(), &mut self.rng)
    }

    /// Hands the planner the task manager's current pairs; only the
    /// `update` call itself is timed into `ops`.
    fn apply(&mut self, ops: &mut OpSamples) -> AdaptationReport {
        let pairs = self.tm.pairs();
        self.now += 1;
        ops.time(|| self.planner.update(pairs, self.now))
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut streams = ctx.setup(SETUP_REPS, |ctx| {
        (0..STREAMS)
            .map(|i| Stream::new(ctx, i))
            .collect::<Vec<_>>()
    });

    let mut out = Outcome::default();
    let events = ctx.ops(BASE_EVENTS);
    let mut by_kind: [Vec<f64>; 3] = Default::default();
    let (mut rebuilt, mut applied, mut throttled, mut messages) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut collected, mut demanded) = (0usize, 0usize);
    for i in 0..events {
        let s = &mut streams[(i % STREAMS) as usize];
        let Some(change) = s.next_event() else {
            continue;
        };
        // Alternate events are recorded as spans; the others give the
        // untraced reference for `trace.overhead_pct`.
        let spanned = (i / STREAMS).is_multiple_of(2);
        let id = ctx.rec.enter_if(spanned, "update");
        let report = s.apply(&mut out.ops);
        ctx.rec.exit(id);
        ctx.rec.count("events", 1);
        let ms = *out.ops.ms.last().expect("just timed");
        (if spanned {
            &mut traced_ms
        } else {
            &mut untraced_ms
        })
        .push(ms);
        by_kind[match change {
            TaskChange::Add(_) => 0,
            TaskChange::Remove(_) => 1,
            TaskChange::Modify { .. } => 2,
        }]
        .push(ms);
        rebuilt.push(report.trees_rebuilt as f64);
        applied.push(report.ops_applied as f64);
        throttled.push(report.ops_throttled as f64);
        messages.push(report.adaptation_messages as f64);

        collected += s.planner.plan().collected_pairs();
        demanded += s.planner.plan().demanded_pairs();

        // Audited outside the timed region.
        out.attempted += 1;
        let outcome = s.planner.audit();
        if !outcome.is_clean() {
            out.failed += 1;
            out.violations
                .push(format!("event {i}: {}", outcome.render()));
        }
    }

    // Coverage of the plan in force after every event, not of the final
    // plans alone: where a churn stream happens to end is seed luck.
    out.coverage_pct = 100.0 * collected as f64 / demanded as f64;
    out.notes.push(format!(
        "{} events over {STREAMS} streams; the plans in force collected {collected} of {demanded} pairs",
        out.ops.ms.len()
    ));

    if ctx.traced {
        let l = &mut out.layers;
        l.set("core.adapt.update_ms_add", median(&by_kind[0]));
        l.set("core.adapt.update_ms_remove", median(&by_kind[1]));
        l.set("core.adapt.update_ms_modify", median(&by_kind[2]));
        l.set("core.adapt.update_ms_tail", tail(&out.ops.ms));
        l.set("core.adapt.trees_rebuilt_mean", mean(&rebuilt));
        l.set("core.adapt.ops_applied_mean", mean(&applied));
        l.set("core.adapt.ops_throttled_mean", mean(&throttled));
        l.set("core.adapt.messages_mean", mean(&messages));
        l.set("trace.overhead_pct", overhead_pct(&traced_ms, &untraced_ms));
        let stats = streams[0].planner.cache_stats();
        l.set("core.cache.hit_ratio", stats.hit_rate());
        l.set("core.cache.invalidations", stats.invalidations as f64);
        l.set("core.cache.entries", stats.entries as f64);
        let plan = streams[0].planner.plan();
        l.set("core.plan.trees", plan.trees().len() as f64);
        l.set("core.plan.volume", plan.message_volume());
        l.set("core.plan.msgs_per_epoch", plan.message_count() as f64);
        l.set(
            "core.plan.cost_per_pair",
            plan.message_volume() / plan.collected_pairs().max(1) as f64,
        );

        // Failure → repair → recovery on the churned plan: moves no
        // end-to-end metric here; the before-number for repair work.
        let s = &mut streams[0];
        let (mut fail_ms, mut recover_ms) = (Vec::new(), Vec::new());
        for k in 0..FAILURES {
            let node = NodeId(k * (NODES as u32 / FAILURES));
            s.now += 1;
            let t0 = Instant::now();
            ctx.rec.span("core.adapt.fail", |_| {
                s.planner.handle_node_failure(node, s.now)
            });
            fail_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            s.now += 1;
            let t0 = Instant::now();
            ctx.rec.span("core.adapt.recover", |_| {
                s.planner.handle_node_recovery(node, NODE_CAPACITY, s.now)
            });
            recover_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if !s.planner.audit().is_clean() {
                out.violations
                    .push(format!("plan not clean after failing {node}"));
            }
        }
        out.layers.set("core.adapt.fail_ms_p50", median(&fail_ms));
        out.layers
            .set("core.adapt.recover_ms_p50", median(&recover_ms));
    }
    Ok(out)
}
