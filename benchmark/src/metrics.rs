//! The metric names and units the benchmark reports. `BENCHMARK.json`
//! lists the same names (a unit test holds the two together).
//!
//! Every workload reports every metric: the driver's contract asks for
//! the whole list on each run. A per-layer metric reads 0 on a workload
//! whose path does not cross that layer, which is itself the prediction
//! "a change to this layer moves nothing here".

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`; reported by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("coverage_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`; reported by a traced run. The
/// prefix is the repo module the number was taken from.
pub const PER_LAYER: &[(&str, &str)] = &[
    // core::planner — phase split from `PlanReport`.
    ("core.planner.seed_ms", "ms"),
    ("core.planner.rank_ms", "ms"),
    ("core.planner.local_ms", "ms"),
    ("core.planner.global_ms", "ms"),
    ("core.planner.rounds", "count"),
    ("core.planner.local_evals", "count"),
    ("core.planner.hit_round_cap", "ratio"),
    ("core.planner.serial_s", "s"),
    ("core.planner.cpu_s", "s"),
    ("core.evaluate.one_set_ms", "ms"),
    ("core.evaluate.singleton_ms", "ms"),
    ("core.build.tree_us_adaptive", "us"),
    ("core.build.tree_us_star", "us"),
    ("core.estimate.rank_ms", "ms"),
    ("core.pairs.index_build_ms", "ms"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.invalidations", "count"),
    ("core.cache.entries", "count"),
    // core::adapt
    ("core.adapt.update_ms_add", "ms"),
    ("core.adapt.update_ms_remove", "ms"),
    ("core.adapt.update_ms_modify", "ms"),
    ("core.adapt.update_ms_tail", "ms"),
    ("core.adapt.trees_rebuilt_mean", "count"),
    ("core.adapt.ops_applied_mean", "count"),
    ("core.adapt.ops_throttled_mean", "count"),
    ("core.adapt.messages_mean", "count"),
    ("core.adapt.fail_ms_p50", "ms"),
    ("core.adapt.recover_ms_p50", "ms"),
    // core::plan — shape of the plan the workload ran on.
    ("core.plan.trees", "count"),
    ("core.plan.volume", "cost"),
    ("core.plan.cost_per_pair", "cost"),
    ("core.plan.msgs_per_epoch", "count"),
    ("audit.plan_check_ms", "ms"),
    // runtime
    ("runtime.deployment.plan_assignments_ms", "ms"),
    ("runtime.agent.tick_us_p50", "us"),
    ("runtime.proto.encode_ns_per_value", "ns"),
    ("runtime.proto.decode_ns_per_value", "ns"),
    ("runtime.proto.bytes_per_value", "bytes"),
    ("runtime.proto.bytes_per_msg", "bytes"),
    ("runtime.framing.encode_ns_per_frame", "ns"),
    ("runtime.framing.decode_ns_per_frame", "ns"),
    ("runtime.ctrl.tick_report_ns", "ns"),
    ("runtime.collector.accept_ns_per_frame", "ns"),
    ("runtime.collector.drain_ns_per_value", "ns"),
    ("runtime.collector.values_per_s", "1/s"),
    ("runtime.collector.values_per_epoch", "count"),
    ("runtime.collector.cpu_us_per_value", "us"),
    ("runtime.collector.ingress_depth_max", "count"),
    ("runtime.collector.shed_readings", "count"),
    ("runtime.collector.degrade_factor_max", "count"),
    ("runtime.collector.staleness_epochs_mean", "epochs"),
    ("runtime.collector.staleness_epochs_p99", "epochs"),
    ("runtime.transport.retransmit_ratio", "ratio"),
    ("runtime.transport.dup_ignored_ratio", "ratio"),
    ("runtime.transport.abandoned", "count"),
    ("runtime.transport.dedup_ns_per_seq", "ns"),
    ("runtime.repair.repair_ms", "ms"),
    // node (TCP runtime)
    ("node.service.launch_ms", "ms"),
    ("node.service.epoch_us_tail", "us"),
    ("node.service.epoch_us_max", "us"),
    ("node.service.hub_frames_per_epoch", "count"),
    ("node.service.collector_frames_per_epoch", "count"),
    ("node.service.values_per_frame_mean", "count"),
    ("node.net.hop_us_p50", "us"),
    ("node.net.frames_per_s_small", "1/s"),
    ("node.net.mb_per_s_large", "MB/s"),
    ("node.proc.threads", "count"),
    ("node.proc.ctx_switches_per_epoch", "count"),
    // The paper's Fig. 2 on this repo's own wire.
    ("costmodel.C_us", "us"),
    ("costmodel.a_us", "us"),
    ("costmodel.ratio", "ratio"),
    ("costmodel.r2", "ratio"),
    ("costmodel.wire_C_bytes", "bytes"),
    ("costmodel.wire_a_bytes", "bytes"),
    ("sim.engine.step_us_per_value", "us"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer values of one traced run. Unset metrics read 0.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`, which must be listed in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted per-layer metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no array {key}");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("metric without name/unit in {key}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse(&text).expect("valid JSON");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(PER_LAYER));
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("no workloads");
        };
        let listed: Vec<&str> = workloads
            .iter()
            .filter_map(|w| match w.get("name") {
                Some(Value::Str(n)) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        let own: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(listed, own);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    #[should_panic(expected = "unlisted")]
    fn setting_an_unlisted_metric_is_a_harness_bug() {
        Layers::default().set("core.nope", 1.0);
    }
}
