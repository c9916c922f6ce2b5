//! Round-trips between the planner and the observability layer.
//!
//! Two contracts are pinned here: the JSONL trace a planner run emits
//! describes the same phase timings as its [`PlanReport`], and the
//! Prometheus export carries the planner's cache and search counters
//! in a form the `remo-obs` parser (and any Prometheus scraper)
//! accepts. Plus the `REMO_PLANNER_DEBUG` activation predicate, which
//! historically treated `REMO_PLANNER_DEBUG=0` as *enabled*.
//!
//! Every test takes [`remo_obs::test_guard`]: the trace sink, the
//! registry, and the enabled flag are process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_core::planner::{Planner, PlannerConfig, StopReason};
use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, NodeId, PairSet};

/// Dense demand: every attribute on every node.
fn demand(nodes: u32, attrs: u32) -> PairSet {
    let mut pairs = PairSet::new();
    for n in 0..nodes {
        for a in 0..attrs {
            pairs.insert(NodeId(n), AttrId(a));
        }
    }
    pairs
}

/// `REMO_PLANNER_DEBUG` must be read as a boolean flag, not as mere
/// presence. The planner's old predicate — `std::env::var(..).is_ok()`
/// — treated every one of these off-spellings as *enabled*, so
/// `REMO_PLANNER_DEBUG=0` in an environment turned the debug firehose
/// on; the planner now activates on exactly `remo_obs::env_flag`.
#[test]
fn planner_debug_flag_rejects_off_spellings() {
    let _g = remo_obs::test_guard();
    for off in ["", "0", "false", "FALSE", "off", "no", " 0 "] {
        std::env::set_var("REMO_PLANNER_DEBUG", off);
        assert!(
            std::env::var("REMO_PLANNER_DEBUG").is_ok(),
            "the old predicate saw {off:?} as enabled"
        );
        assert!(
            !remo_obs::env_flag("REMO_PLANNER_DEBUG"),
            "{off:?} must not enable planner debug output"
        );
    }
    for on in ["1", "true", "yes", "verbose"] {
        std::env::set_var("REMO_PLANNER_DEBUG", on);
        assert!(
            remo_obs::env_flag("REMO_PLANNER_DEBUG"),
            "{on:?} must enable planner debug output"
        );
    }
    std::env::remove_var("REMO_PLANNER_DEBUG");
    assert!(!remo_obs::env_flag("REMO_PLANNER_DEBUG"));
}

/// A traced planner run, serialized to JSONL and re-parsed through the
/// `remo-obs` summary pipeline, must describe the same per-phase cost
/// as the `PlanReport` the run returned: for each phase the summed
/// span durations land within tolerance of the report's milliseconds.
/// The spans wrap exactly the regions the report's `Instant` timers
/// measure, so disagreement means a span drifted off its phase.
#[test]
fn trace_spans_cover_plan_report_timings() {
    let _g = remo_obs::test_guard();
    remo_obs::drain_trace();
    remo_obs::enable();
    let pairs = demand(14, 7);
    let caps = CapacityMap::uniform(14, 25.0, 300.0).unwrap();
    let catalog = AttrCatalog::new();
    let planner = Planner::new(PlannerConfig::default());
    let (plan, report) = planner.plan_with_report(&pairs, &caps, CostModel::default(), &catalog);
    remo_obs::disable();
    let records = remo_obs::drain_trace();
    assert!(plan.collected_pairs() > 0, "planning must do real work");

    let jsonl = remo_obs::trace::to_jsonl(&records);
    let summary = remo_obs::summary::parse_trace(&jsonl).expect("emitted JSONL must parse");
    for (phase, reported_ms) in [
        ("planner.seed", report.seed_ms),
        ("planner.rank", report.rank_ms),
        ("planner.local", report.local_ms),
        ("planner.global", report.global_ms),
    ] {
        let span_ms = summary
            .spans
            .get(phase)
            .map_or(0.0, |agg| agg.total_us as f64 / 1000.0);
        // Spans and timers bracket the same code but are read at
        // slightly different instants; allow half the larger reading
        // plus 2ms of scheduler noise.
        let tol = 0.5 * reported_ms.max(span_ms) + 2.0;
        assert!(
            (span_ms - reported_ms).abs() <= tol,
            "{phase}: spans sum to {span_ms:.3}ms but the report says {reported_ms:.3}ms"
        );
    }
    // The seed phase runs exactly once per plan.
    assert_eq!(summary.spans["planner.seed"].count, 1);
}

/// The Prometheus text export of a cached planner run must parse and
/// carry the `TreeCache` hit/miss counters, the tree kernel's
/// challenger and relief counters, and the planner's phase histograms
/// — the series EXPERIMENTS.md points Fig. 9a readers at.
#[test]
fn prometheus_export_round_trips_cache_counters() {
    let _g = remo_obs::test_guard();
    remo_obs::registry::registry().reset();
    remo_obs::enable();
    let pairs = demand(12, 6);
    let caps = CapacityMap::uniform(12, 25.0, 300.0).unwrap();
    let catalog = AttrCatalog::new();
    let planner = Planner::new(PlannerConfig {
        cache: true,
        ..PlannerConfig::default()
    });
    let (_, report) = planner.plan_with_report(&pairs, &caps, CostModel::default(), &catalog);
    remo_obs::disable();

    let text = remo_obs::registry::registry().render_prometheus();
    let samples = remo_obs::summary::parse_prometheus(&text).expect("export must parse");
    assert_eq!(
        samples["remo_planner_seeds_abandoned_total"],
        report.seeds_abandoned as f64
    );
    let misses = samples["remo_planner_cache_misses_total"];
    let hits = samples["remo_planner_cache_hits_total"];
    assert!(misses > 0.0, "first builds always miss the cache");
    assert!(hits >= 0.0);
    assert_eq!(samples["remo_planner_plans_total"], 1.0);
    assert!(samples["remo_planner_rounds_total"] >= 1.0);
    // Why the search ended: one of the three stop counters ticks per
    // plan, and skipped rounds are counted apart from executed ones.
    // Ample capacity here, so this search converges and skips nothing.
    assert_eq!(samples["remo_planner_stops_converged_total"], 1.0);
    assert_eq!(samples["remo_planner_stops_cycle_total"], 0.0);
    assert_eq!(samples["remo_planner_stops_round_cap_total"], 0.0);
    assert_eq!(samples["remo_planner_rounds_skipped_total"], 0.0);
    // The tree kernel says which challengers it built from the seed,
    // which it continued from where its own pass forked them, and which
    // it proved equal or unable to win: every adaptive build accounts
    // for each of the three schemes exactly once. STAR is never forked,
    // and CHAIN and MAX_AVB are never rebuilt from the seed.
    let count = |what: &str, scheme: &str| {
        samples
            .get(&format!("remo_build_challengers_{what}_{scheme}_total"))
            .copied()
    };
    let builds = |scheme: &str| {
        ["built", "forked", "skipped"]
            .iter()
            .map(|what| count(what, scheme).unwrap_or(0.0))
            .sum::<f64>()
    };
    assert!(builds("star") > 0.0, "the planner built adaptive trees");
    assert_eq!(count("forked", "star"), None);
    for scheme in ["chain", "max_avb"] {
        assert_eq!(builds(scheme), builds("star"), "{scheme}");
        assert_eq!(count("built", scheme), Some(0.0), "{scheme}");
        assert!(count("forked", scheme).is_some(), "{scheme}");
    }
    assert!(samples["remo_build_relief_sweeps_total"] >= 0.0);
    // Histogram series render as _bucket/_sum/_count families.
    assert!(samples.contains_key("remo_planner_local_duration_ms_count"));
    assert!(samples
        .keys()
        .any(|k| k.starts_with("remo_planner_local_duration_ms_bucket{le=")));
}

/// A search that walks its plateau in a circle says so: one
/// `planner.cycle` event naming the period and the rounds it skipped,
/// matching the report, and the cycle stop counter ticks.
#[test]
fn cycle_stop_is_traced_and_counted() {
    let _g = remo_obs::test_guard();
    remo_obs::registry::registry().reset();
    remo_obs::drain_trace();
    remo_obs::enable();
    // Capacity-starved: the payload a root can take is below one value
    // per attribute.
    let pairs = demand(18, 7);
    let caps = CapacityMap::uniform(18, 6.0, 19.0).unwrap();
    let catalog = AttrCatalog::new();
    let cost = CostModel::new(2.0, 1.0).unwrap();
    let (_, report) = Planner::default().plan_with_report(&pairs, &caps, cost, &catalog);
    remo_obs::disable();
    let records = remo_obs::drain_trace();

    let StopReason::Cycle { period } = report.stop else {
        panic!("the starved search must cycle: {report:?}");
    };
    assert_eq!(report.rounds + report.rounds_skipped, 128);
    let jsonl = remo_obs::trace::to_jsonl(&records);
    let cycles: Vec<&str> = jsonl
        .lines()
        .filter(|l| l.contains("\"planner.cycle\""))
        .collect();
    assert_eq!(cycles.len(), 1, "one event per plan: {cycles:?}");
    assert!(
        cycles[0].contains(&format!("\"period\":{period}")),
        "{}",
        cycles[0]
    );
    assert!(
        cycles[0].contains(&format!("\"skipped\":{}", report.rounds_skipped)),
        "{}",
        cycles[0]
    );

    let text = remo_obs::registry::registry().render_prometheus();
    let samples = remo_obs::summary::parse_prometheus(&text).expect("export must parse");
    assert_eq!(samples["remo_planner_stops_cycle_total"], 1.0);
    assert_eq!(samples["remo_planner_stops_converged_total"], 0.0);
    assert_eq!(samples["remo_planner_stops_round_cap_total"], 0.0);
    assert_eq!(
        samples["remo_planner_rounds_skipped_total"],
        report.rounds_skipped as f64
    );
    assert_eq!(samples["remo_planner_rounds_total"], report.rounds as f64);
}
