//! Self-healing runtime demo: crash a relay agent mid-run, watch the
//! coordinator suspect, confirm, and repair the plan, then heal the
//! node and watch it reintegrate.
//!
//! ```sh
//! cargo run --example self_healing [nodes] [confirm_after] [crashes]
//! ```

// Examples favor terse unwraps over error plumbing; a panic here is a
// broken example, not a library error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use remo::prelude::*;
use remo::runtime::Sampler;
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(10);
    let confirm_after: u32 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    let crashes: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(1);

    let caps = CapacityMap::uniform(nodes, 100.0, 10_000.0).expect("caps");
    let cost = CostModel::new(2.0, 1.0).expect("cost");
    let pairs: PairSet = (0..nodes as u32).map(|n| (NodeId(n), AttrId(0))).collect();
    let planner = AdaptivePlanner::new(
        Planner::default(),
        AdaptScheme::Adaptive,
        pairs.clone(),
        caps,
        cost,
        AttrCatalog::new(),
    );

    // Crash tree roots first: their whole subtree is orphaned, which
    // is the interesting repair case.
    let mut victims: Vec<NodeId> = Vec::new();
    for v in planner
        .plan()
        .trees()
        .iter()
        .filter_map(|t| t.tree.as_ref().map(|t| t.root()))
        .chain((0..nodes as u32).map(NodeId))
    {
        if !victims.contains(&v) {
            victims.push(v);
        }
        if victims.len() == crashes {
            break;
        }
    }

    let sampler: Sampler =
        Arc::new(|n: NodeId, a: AttrId, e: u64| (n.0 * 100 + a.0 * 10) as f64 + (e % 7) as f64);
    let health = HealthConfig {
        confirm_after,
        ..HealthConfig::default()
    };
    let mut dep = Deployment::launch_self_healing(planner, sampler, health);

    dep.run(5);
    println!(
        "warm-up: epoch {}, {}/{} pairs observed",
        dep.epoch(),
        dep.observed_pairs(),
        pairs.len()
    );

    for &v in &victims {
        println!("crashing {v} at epoch {}", dep.epoch());
        dep.fail_node(v);
    }

    for _ in 0..u64::from(confirm_after) + 2 {
        let r = dep.tick();
        let hr = dep.health_report();
        let dead = hr.dead_nodes();
        println!(
            "epoch {:>2}: suspected {} confirmed {} repaired {} reconfigs {} lost {} dead {:?}",
            r.epoch,
            r.suspected,
            r.confirmed_dead,
            r.repaired,
            r.reconfigure_messages,
            r.values_lost,
            dead
        );
    }

    for &v in &victims {
        println!("healing {v} at epoch {}", dep.epoch());
        dep.heal_node(v);
    }
    let total = dep.run(10);
    println!(
        "after heal: recovered {} over 10 epochs, {}/{} pairs observed",
        total.recovered,
        dep.observed_pairs(),
        pairs.len()
    );

    let hr = dep.health_report();
    for &v in &victims {
        let s = &hr.stats[&v];
        println!(
            "{v}: state {:?}, detect {} epochs, mttr {} epochs, values lost {}",
            hr.states[&v], s.time_to_detect, s.mttr_epochs, s.values_lost
        );
    }
    println!(
        "totals: confirmed {} repaired {} values_lost {}",
        hr.total_confirmed(),
        hr.total_repaired(),
        hr.total_values_lost()
    );
    dep.shutdown();
}
