//! Runs every figure harness in sequence, leaving all series under
//! `results/`. This is the one-shot reproduction of the paper's §7.
//!
//! It launches the figure binaries that sit next to it, so build the
//! whole package first (`cargo run --bin` builds only the one binary):
//!
//! ```sh
//! cargo build --release -p remo-bench
//! cargo run --release -p remo-bench --bin all_figures
//! ```

// Benchmark scaffolding: inputs are compile-time constants, so a
// failed unwrap is a broken harness, not a runtime error path.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

const FIGURES: [&str; 8] = [
    "fig2_cost_model",
    "fig5_partition_workload",
    "fig6_partition_system",
    "fig7_tree_construction",
    "fig8_percentage_error",
    "fig9_adaptation",
    "fig10_optimization",
    "fig11_allocation",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    let mut failures = Vec::new();
    for fig in FIGURES.iter().chain(["fig12_extensions"].iter()) {
        eprintln!("==> {fig}");
        let status = Command::new(dir.join(fig)).status().unwrap_or_else(|e| {
            eprintln!("cannot launch {fig} ({e}); run `cargo build --release -p remo-bench` first");
            std::process::exit(2);
        });
        if !status.success() {
            failures.push(*fig);
        }
    }
    if failures.is_empty() {
        eprintln!("all figures regenerated; CSVs under results/");
    } else {
        eprintln!("FAILED figures: {failures:?}");
        std::process::exit(1);
    }
}
