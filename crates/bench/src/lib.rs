//! Shared infrastructure for the figure-reproduction harness.
//!
//! Every binary in `src/bin/` regenerates one figure of the paper's
//! evaluation (§7) and prints its series as CSV — the same rows the
//! paper plots. Numbers differ from the paper's BlueGene testbed; the
//! *shape* (who wins, by what factor, where crossovers fall) is what
//! reproduces. Each binary also writes its CSV under `results/`.

use remo_core::planner::{EvalBreakdown, PartitionScheme, Planner, PlannerConfig};
use remo_core::{AttrCatalog, CapacityMap, CostModel, MonitoringPlan, PairSet, Partition};
use std::fmt::Display;
use std::fs::{create_dir_all, File};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Writes one figure's series to stdout and `results/<name>.csv`.
#[derive(Debug)]
pub struct Reporter {
    name: String,
    file: Option<File>,
}

impl Reporter {
    /// Opens a reporter for figure `name` (e.g. `fig5a`).
    pub fn new(name: &str) -> Self {
        let file = results_dir().and_then(|dir| {
            let path = dir.join(format!("{name}.csv"));
            File::create(path).ok()
        });
        println!("# {name}");
        Reporter {
            name: name.to_string(),
            file,
        }
    }

    /// Emits the CSV header.
    pub fn header(&mut self, cols: &[&str]) {
        self.line(&cols.join(","));
    }

    /// Emits one row.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        let joined = cells
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.line(&joined);
    }

    fn line(&mut self, s: &str) {
        println!("{s}");
        if let Some(f) = self.file.as_mut() {
            let _ = writeln!(f, "{s}");
        }
    }

    /// The figure name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

fn results_dir() -> Option<PathBuf> {
    // Walk up from the crate to the workspace root.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    let dir = dir.join("results");
    create_dir_all(&dir).ok()?;
    Some(dir)
}

/// The three §7 partition schemes in display order.
pub const SCHEMES: [(&str, PartitionScheme); 3] = [
    ("SINGLETON-SET", PartitionScheme::SingletonSet),
    ("ONE-SET", PartitionScheme::OneSet),
    ("REMO", PartitionScheme::Remo),
];

/// Plans one scheme with a search window sized for experiment scale.
///
/// Every plan is audited against the error-severity paper invariants
/// before it is returned, so no reported figure can come from a plan
/// that violates a budget or miscounts its own coverage.
pub fn plan_scheme(
    scheme: PartitionScheme,
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
    catalog: &AttrCatalog,
) -> MonitoringPlan {
    eval_scheme(scheme, pairs, caps, cost, catalog).into_plan()
}

/// Like [`plan_scheme`], but returns the full [`EvalBreakdown`] (plan
/// plus per-tree cost/coverage decomposition and wall time) so figure
/// binaries report from one structured source instead of recomputing
/// totals by hand.
pub fn eval_scheme(
    scheme: PartitionScheme,
    pairs: &PairSet,
    caps: &CapacityMap,
    cost: CostModel,
    catalog: &AttrCatalog,
) -> EvalBreakdown {
    let planner = Planner::new(PlannerConfig {
        max_rounds: 256,
        ..PlannerConfig::default()
    });
    let breakdown = match scheme {
        PartitionScheme::SingletonSet => planner.evaluate_partition(
            &Partition::singleton(pairs.attr_universe()),
            pairs,
            caps,
            cost,
            catalog,
        ),
        PartitionScheme::OneSet => planner.evaluate_partition(
            &Partition::one_set(pairs.attr_universe()),
            pairs,
            caps,
            cost,
            catalog,
        ),
        PartitionScheme::Remo => {
            let t0 = Instant::now();
            let plan = planner.plan_with_catalog(pairs, caps, cost, catalog);
            EvalBreakdown::from_plan(plan, t0.elapsed())
        }
    };
    remo_core::validate::assert_plan_clean(&breakdown.plan, pairs, caps, cost, catalog);
    breakdown
}

/// Formats a float with three decimals for CSV cells.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn f3_formats() {
        assert_eq!(f3(1.23456), "1.235");
    }
}
