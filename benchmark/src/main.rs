//! The repo's benchmark: six closed-loop workloads over the planner,
//! the adaptive planner and the collection path, each run in its own
//! process. See `benchmark/README.md` for what every workload and
//! metric means.
//!
//! One run: `remo-benchmark --workload W --seed N --seconds S --trace 0|1`
//! prints, as the last line of standard output, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `remo-benchmark suite ...` runs every workload both
//! ways in child processes and prints a table (see `suite.rs`).

mod adapt;
mod collect;
mod inputs;
mod layers;
mod metrics;
mod plan;
mod procfs;
mod stats;
mod suite;
mod trace;

use metrics::{Layers, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;

/// `run_seconds` in `BENCHMARK.json`: the run length the operation
/// counts below are sized for on a 2-core box.
pub const NOMINAL_SECONDS: f64 = 12.0;
/// The traced pass runs this fraction of the untraced operation counts.
const TRACED_SHARE: f64 = 1.0 / 3.0;
/// Where the traced pass writes its spans, relative to the checkout root.
const TRACE_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanFeasible,
    PlanSaturated,
    AdaptChurn,
    CollectThin,
    CollectFat,
    CollectLossy,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PlanFeasible,
        Workload::PlanSaturated,
        Workload::AdaptChurn,
        Workload::CollectThin,
        Workload::CollectFat,
        Workload::CollectLossy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanFeasible => "plan-feasible",
            Workload::PlanSaturated => "plan-saturated",
            Workload::AdaptChurn => "adapt-churn",
            Workload::CollectThin => "collect-thin",
            Workload::CollectFat => "collect-fat",
            Workload::CollectLossy => "collect-lossy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one workload run is given: the seed, the length scale and the
/// span recorder (disabled on an untraced run).
pub struct Ctx {
    pub seed: u64,
    pub traced: bool,
    pub rec: Recorder,
    scale: f64,
    pub setup_s: Vec<f64>,
}

impl Ctx {
    /// Operation count for this run: `base` is the count of a nominal
    /// untraced run; `--seconds` scales it linearly and the traced pass
    /// runs a third. The count is fixed by the arguments alone, so it is
    /// identical on every commit.
    pub fn ops(&self, base: u64) -> u64 {
        let share = if self.traced { TRACED_SHARE } else { 1.0 };
        ((base as f64 * self.scale * share).round() as u64).max(2)
    }

    /// Runs the set-up `reps` times and keeps the last result; the
    /// reported `setup_s` is the median repetition, because a single
    /// sub-second set-up is too noisy to gate on.
    pub fn setup<T>(&mut self, reps: usize, mut f: impl FnMut(&mut Ctx) -> T) -> T {
        let mut last = None;
        for _ in 0..reps {
            drop(last.take());
            let t0 = Instant::now();
            let id = self.rec.enter("setup");
            let out = f(self);
            self.rec.exit(id);
            self.setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(out);
        }
        last.expect("at least one set-up repetition")
    }
}

/// Wall and CPU time of the measured operations.
#[derive(Debug, Default)]
pub struct OpSamples {
    /// Wall time per operation, ms.
    pub ms: Vec<f64>,
    /// Wall time the operations covered, s.
    pub busy_s: f64,
    /// Process CPU (user + system, all threads) over the same time, s.
    pub cpu_s: f64,
}

impl OpSamples {
    /// Times one operation on the driver thread. CPU is read around the
    /// call so that the harness's own checks between operations are not
    /// billed to the program.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu0 = procfs::cpu_s();
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.cpu_s += procfs::cpu_s() - cpu0;
        self.busy_s += dt;
        self.ms.push(dt * 1e3);
        out
    }
}

/// Result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (plans, events, readings due) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run
    /// incorrect.
    pub violations: Vec<String>,
    pub coverage_pct: f64,
    pub ops: OpSamples,
    pub layers: Layers,
    /// Exact counts worth printing next to the metrics (stderr only).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `what` as a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: String) {
        if !ok {
            self.violations.push(what);
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = NOMINAL_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_one(args: &Args) -> Result<bool, String> {
    let run_id = format!("{}-s{}", args.workload.name(), args.seed);
    let mut ctx = Ctx {
        seed: args.seed,
        traced: args.trace,
        rec: Recorder::new(args.trace, run_id),
        scale: args.seconds / NOMINAL_SECONDS,
        setup_s: Vec::new(),
    };
    let root = ctx.rec.enter("run");
    let mut out = match args.workload {
        Workload::PlanFeasible => plan::run(&mut ctx, &plan::FEASIBLE),
        Workload::PlanSaturated => plan::run(&mut ctx, &plan::SATURATED),
        Workload::AdaptChurn => adapt::run(&mut ctx),
        Workload::CollectThin => collect::run_tcp(&mut ctx, &collect::THIN),
        Workload::CollectFat => collect::run_tcp(&mut ctx, &collect::FAT),
        Workload::CollectLossy => collect::run_lossy(&mut ctx),
    }?;
    ctx.rec.exit(root);

    let n = out.ops.ms.len() as f64;
    let mut values: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
        let path = format!("{TRACE_DIR}/{}.trace.jsonl", args.workload.name());
        std::fs::write(&path, ctx.rec.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
        for (name, unit) in PER_LAYER {
            values.push((name, unit, out.layers.get(name)));
        }
    } else {
        let e2e = [
            stats::median(&ctx.setup_s),
            stats::median(&out.ops.ms),
            n / out.ops.busy_s,
            out.ops.cpu_s * 1e3 / n,
            out.coverage_pct,
            procfs::peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            out.check(v.is_finite() && v > 0.0, format!("{name} = {v}"));
            values.push((name, unit, v));
        }
    }

    for note in &out.notes {
        eprintln!("{}: {note}", args.workload.name());
    }
    for v in &out.violations {
        eprintln!("{}: CHECK FAILED: {v}", args.workload.name());
    }
    let correct = out.violations.is_empty();
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted.max(1),
        out.failed
    );
    for (i, (name, unit, v)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("suite") {
        suite::run(&args[1..])
    } else {
        parse_args(&args).and_then(|a| run_one(&a))
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("remo-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
