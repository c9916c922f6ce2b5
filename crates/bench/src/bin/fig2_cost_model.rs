//! Fig. 2 — CPU usage vs. increasing message number/size.
//!
//! The paper measures a BlueGene/P node receiving one fixed small
//! message per child over TCP/IP: root CPU grows roughly linearly from
//! ~6% at 16 children to ~68% at 256 children (per-message overhead),
//! while the cost of receiving a *single* message grows only 0.2% →
//! 1.4% as its payload grows 1 → 256 values.
//!
//! We regenerate the first series by driving a star topology through
//! the in-process runtime and reading back the traffic volume a
//! steady-state epoch paid for, in cost units calibrated to CPU percent
//! of the paper's node; the second is the cost model itself.

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo_bench::{f3, Reporter};
use remo_core::{AttrCatalog, AttrId, CapacityMap, CostModel, NodeId, PairSet, Partition};
use remo_runtime::{Deployment, Sampler};
use std::sync::Arc;

fn main() {
    // Cost model calibrated to the paper's endpoints: receiving one
    // 1-value message ≈ 0.26% CPU, one 256-value message ≈ 1.4%.
    // With cost units = CPU percent: C + a·1 = 0.26 and C + a·256 = 1.4
    // → a ≈ 0.00447, C ≈ 0.2553.
    let cost = CostModel::new(0.2553, 0.00447).expect("valid model");

    let mut rep = Reporter::new("fig2a_messages");
    rep.header(&["children", "root_cpu_percent"]);
    for &n in &[16u32, 32, 64, 128, 256] {
        // A star over n nodes: n − 1 children each deliver one value
        // to the root, which relays all n upstream in one message.
        let pairs: PairSet = (0..n).map(|i| (NodeId(i), AttrId(0))).collect();
        let caps = CapacityMap::uniform(n as usize, 100.0, 100.0).expect("caps");
        // Star partition/tree: deployed on the runtime so real frames
        // flow; the volume the agents report paying is the measurement.
        let partition = Partition::singleton(pairs.attr_universe());
        let catalog = AttrCatalog::new();
        let planner = remo_core::planner::Planner::new(remo_core::planner::PlannerConfig {
            builder: remo_core::build::BuilderKind::Star,
            ..Default::default()
        });
        let plan = planner
            .evaluate_partition(&partition, &pairs, &caps, cost, &catalog)
            .into_plan();
        let sampler: Sampler = Arc::new(|_, _, _| 1.0);
        let mut dep = Deployment::launch(&plan, &pairs, &caps, cost, &catalog, sampler);
        // The pipeline is full from the second epoch on; the fourth is
        // steady state. Every message of the epoch is one the root
        // receives or sends and costs both ends the same, so the
        // epoch's volume is the root's load: n − 1 one-value messages
        // in, one n-value message out.
        dep.run(3);
        let root_cpu = dep.tick().volume;
        rep.row(&[&n, &f3(root_cpu)]);
    }

    let mut rep = Reporter::new("fig2b_values");
    rep.header(&["values_per_message", "receive_cpu_percent"]);
    for &x in &[1u32, 2, 4, 8, 16, 32, 64, 128, 256] {
        rep.row(&[&x, &f3(cost.message_cost(x as f64))]);
    }
}
