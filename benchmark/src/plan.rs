//! `plan-feasible` and `plan-saturated`: cold `plan_with_report` calls.
//!
//! One run plans several *different* task sets drawn from the seed, one
//! cold plan each. Plan time depends on how many rounds the search
//! happens to need (3 to 6 on the feasible shape), so a run over a
//! single task set would mostly measure which task set the seed drew.

use crate::inputs;
use crate::layers;
use crate::stats::{mean, median};
use crate::{Ctx, Outcome};
use remo_core::planner::{PlanReport, Planner, PlannerConfig};
use remo_core::validate::{Audit, AuditInput};
use remo_core::{AttrCatalog, CapacityMap, CostModel, MonitoringPlan, PairSet};
use std::time::Instant;

/// C/a of the planning workloads (the paper's default ratio).
pub const COST_RATIO: f64 = 20.0;
const SETUP_REPS: usize = 3;

#[derive(Debug)]
pub struct Shape {
    pub nodes: usize,
    pub attrs: usize,
    pub tasks: usize,
    /// Node capacity as a multiple of pairs ÷ attrs.
    pub node_capacity: f64,
    /// Collector capacity as a multiple of the node count.
    pub collector_capacity: f64,
    /// Task sets planned by a nominal untraced run.
    pub base_inputs: u64,
}

/// Capacity suffices (≥ 99.8 % coverage); the search reaches its own
/// fixed point in a few rounds, so seeding and global refinement do
/// most of the work.
pub const FEASIBLE: Shape = Shape {
    nodes: 1_000,
    attrs: 100,
    tasks: 500,
    node_capacity: 8.0,
    collector_capacity: 1_000.0,
    base_inputs: 12,
};

/// Capacity-starved (~14 % coverage): the search stops at the 128-round
/// cap with no global phase; local search and ranking dominate. This is
/// the n = 10 000 row of `BENCH_planner.json`.
pub const SATURATED: Shape = Shape {
    nodes: 10_000,
    attrs: 100,
    tasks: 2_000,
    node_capacity: 0.35,
    collector_capacity: 40.0,
    base_inputs: 26,
};

pub struct Input {
    pub pairs: PairSet,
    pub caps: CapacityMap,
}

fn cost() -> CostModel {
    CostModel::from_ratio(COST_RATIO).expect("positive ratio")
}

fn input(shape: &Shape, ctx: &mut Ctx, stream: u64) -> Input {
    let mut rng = inputs::rng(ctx.seed, stream);
    let pairs = ctx.rec.span("gen_input", |_| {
        inputs::pairs_of(&inputs::small_tasks(
            shape.nodes,
            shape.attrs,
            shape.tasks,
            &mut rng,
        ))
    });
    ctx.rec.span("index", |_| {
        let _ = pairs.index();
    });
    let per_node = shape.node_capacity * pairs.len() as f64 / shape.attrs as f64;
    let caps = CapacityMap::uniform(
        shape.nodes,
        per_node,
        shape.collector_capacity * shape.nodes as f64,
    )
    .expect("positive capacities");
    Input { pairs, caps }
}

fn audit_clean(plan: &MonitoringPlan, input: &Input, catalog: &AttrCatalog) -> bool {
    Audit::new()
        .run(&AuditInput::new(
            plan,
            &input.pairs,
            &input.caps,
            cost(),
            catalog,
        ))
        .is_clean()
}

fn plan_json(plan: &MonitoringPlan) -> String {
    serde_json::to_string(plan).expect("plans serialize")
}

pub fn run(ctx: &mut Ctx, shape: &Shape) -> Result<Outcome, String> {
    let planner = Planner::default();
    let catalog = AttrCatalog::new();
    // The traced pass plans every task set twice and alternates which of
    // the two is recorded, so it wants an even number of them.
    let count = ctx
        .ops(shape.base_inputs)
        .next_multiple_of(if ctx.traced { 2 } else { 1 });

    // Set-up: generate and index every task set, then one warm-up plan
    // (thread pool, allocator arenas, lazily built indices).
    let (inputs, warm_json) = ctx.setup(SETUP_REPS, |ctx| {
        let inputs: Vec<Input> = (0..count).map(|i| input(shape, ctx, i)).collect();
        let warm = ctx.rec.span("warmup", |_| {
            planner.plan_with_report(&inputs[0].pairs, &inputs[0].caps, cost(), &catalog)
        });
        (inputs, plan_json(&warm.0))
    });

    let mut out = Outcome::default();
    let mut reports: Vec<PlanReport> = Vec::new();
    let (mut collected, mut demanded) = (0usize, 0usize);
    // ln(recorded ÷ unrecorded plan time) per task set of the traced pass.
    let mut overhead_ln = Vec::new();
    let mut first: Option<MonitoringPlan> = None;
    // The traced pass plans each task set twice, once inside a span and
    // once outside, so the overhead compares like with like. The second
    // plan of a task set runs warmer than the first; alternating which
    // one is recorded cancels that in the geometric mean.
    let repeats = if ctx.traced { 2 } else { 1 };
    for (i, inp) in inputs.iter().enumerate() {
        // What this task set's next plan must be byte-identical to: the
        // warm-up plan for the first task set, then the previous repeat.
        let mut previous = (i == 0).then(|| warm_json.clone());
        for r in 0..repeats {
            let spanned = r == i % 2;
            let id = ctx.rec.enter_if(spanned, "plan");
            let (plan, report) = out
                .ops
                .time(|| planner.plan_with_report(&inp.pairs, &inp.caps, cost(), &catalog));
            ctx.rec.exit(id);
            ctx.rec.count("plans", 1);

            out.attempted += 1;
            let clean = audit_clean(&plan, inp, &catalog);
            let json = plan_json(&plan);
            let identical = previous.as_ref().is_none_or(|p| *p == json);
            previous = Some(json);
            if !(clean && identical) {
                out.failed += 1;
                out.violations.push(format!(
                    "plan {i}.{r}: audit clean {clean}, identical to its repeat {identical}"
                ));
            }
            if r == 1 {
                let n = out.ops.ms.len();
                let ratio = out.ops.ms[n - 2] / out.ops.ms[n - 1];
                overhead_ln.push(if spanned { -ratio.ln() } else { ratio.ln() });
            }
            if r == 0 {
                collected += plan.collected_pairs();
                demanded += plan.demanded_pairs();
                reports.push(report);
                if i == 0 {
                    first = Some(plan);
                }
            }
        }
    }
    out.coverage_pct = 100.0 * collected as f64 / demanded as f64;
    out.notes.push(format!(
        "{} cold plans over {count} task sets: {collected} of {demanded} pairs collected, rounds {:?}",
        out.ops.ms.len(),
        reports.iter().map(|r| r.rounds).collect::<Vec<_>>()
    ));

    if ctx.traced {
        let first = first.expect("at least two task sets");
        let l = &mut out.layers;
        let col = |f: fn(&PlanReport) -> f64| reports.iter().map(f).collect::<Vec<_>>();
        l.set("core.planner.seed_ms", median(&col(|r| r.seed_ms)));
        l.set("core.planner.rank_ms", median(&col(|r| r.rank_ms)));
        l.set("core.planner.local_ms", median(&col(|r| r.local_ms)));
        l.set("core.planner.global_ms", median(&col(|r| r.global_ms)));
        l.set("core.planner.rounds", mean(&col(|r| r.rounds as f64)));
        l.set(
            "core.planner.local_evals",
            mean(&col(|r| r.local_evals as f64)),
        );
        let cap = PlannerConfig::default().max_rounds;
        let capped = reports.iter().filter(|r| r.rounds >= cap).count();
        l.set(
            "core.planner.hit_round_cap",
            capped as f64 / reports.len() as f64,
        );
        l.set(
            "core.planner.cpu_s",
            out.ops.cpu_s / out.ops.ms.len() as f64,
        );
        l.set(
            "trace.overhead_pct",
            100.0 * (mean(&overhead_ln).exp() - 1.0),
        );

        // The serial reference engine on the first task set: ROADMAP
        // item 2's referee against `op_ms_p50`.
        let serial = Planner::new(PlannerConfig {
            parallelism: 1,
            cache: false,
            ..PlannerConfig::default()
        });
        let t0 = Instant::now();
        let (serial_plan, _) = ctx.rec.span("core.planner.serial", |_| {
            serial.plan_with_report(&inputs[0].pairs, &inputs[0].caps, cost(), &catalog)
        });
        l.set("core.planner.serial_s", t0.elapsed().as_secs_f64());
        if plan_json(&serial_plan) != plan_json(&first) {
            out.violations
                .push("serial engine disagrees with the default engine".into());
        }

        layers::planner_layers(ctx, l, &inputs[0], &first, cost(), &catalog);
    }
    Ok(out)
}
