//! The data collector's user-facing query library (paper §2.2: the
//! data collector "serves as the repository of monitoring data and
//! provides monitoring data access to users and high-level
//! applications").

use remo_core::{AttrId, MonitoringTask, NodeId};
use remo_runtime::{CollectorCore, Observed};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A task-scoped snapshot: the collector's latest view of every pair a
/// task requested.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSnapshot {
    /// Values present at the collector, keyed by pair.
    pub values: BTreeMap<(NodeId, AttrId), Observed>,
    /// Requested pairs with no observation yet.
    pub missing: Vec<(NodeId, AttrId)>,
    /// Epoch the snapshot was taken.
    pub taken_at: u64,
}

impl TaskSnapshot {
    /// Fraction of the task's pairs that have ever been observed.
    pub fn completeness(&self) -> f64 {
        let total = self.values.len() + self.missing.len();
        if total == 0 {
            1.0
        } else {
            self.values.len() as f64 / total as f64
        }
    }

    /// Maximum staleness (epochs since production) across observed
    /// pairs; `None` when nothing has been observed.
    pub fn max_staleness(&self) -> Option<u64> {
        self.values
            .values()
            .map(|s| self.taken_at.saturating_sub(s.produced))
            .max()
    }

    /// Mean of the observed values (a quick dashboard aggregate).
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.values().map(|s| s.value).sum::<f64>() / self.values.len() as f64)
    }

    /// The pair with the largest observed value.
    pub fn max_pair(&self) -> Option<((NodeId, AttrId), Observed)> {
        self.values
            .iter()
            .max_by(|a, b| {
                a.1.value
                    .partial_cmp(&b.1.value)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(&k, &v)| (k, v))
    }
}

/// Takes a task-scoped snapshot from the collector at epoch `now`.
///
/// # Examples
///
/// ```
/// use remo_sim::query::snapshot_for_task;
/// use remo_runtime::{CollectorCore, EpochReport, NetConfig, WireReading};
/// use remo_core::{AttrCatalog, CostModel, MonitoringTask, TaskId, NodeId, AttrId};
///
/// let (cost, net) = (CostModel::default(), NetConfig::default());
/// let mut store = CollectorCore::new(100.0, cost, net, AttrCatalog::new());
/// let (node, attr) = (NodeId(0), AttrId(0));
/// let reading = WireReading { node, attr, value: 42.0, produced: 5, contributors: 1 };
/// store.record(&reading, 6, &mut EpochReport::default());
/// let task = MonitoringTask::new(TaskId(0), [AttrId(0)], [NodeId(0), NodeId(1)]);
/// let snap = snapshot_for_task(&store, &task, 7);
/// assert_eq!(snap.values.len(), 1);
/// assert_eq!(snap.missing.len(), 1);
/// assert_eq!(snap.completeness(), 0.5);
/// ```
pub fn snapshot_for_task(store: &CollectorCore, task: &MonitoringTask, now: u64) -> TaskSnapshot {
    snapshot_for_pairs(store, task.pairs(), now)
}

/// Takes a snapshot over an explicit pair list — the variant to use
/// when a task's node-attribute cross product includes pairs the
/// application cannot observe (pass the observable subset instead).
pub fn snapshot_for_pairs(
    store: &CollectorCore,
    pairs: impl IntoIterator<Item = (NodeId, AttrId)>,
    now: u64,
) -> TaskSnapshot {
    let mut values = BTreeMap::new();
    let mut missing = Vec::new();
    for (node, attr) in pairs {
        match store.observed(node, attr) {
            Some(s) => {
                values.insert((node, attr), s);
            }
            None => missing.push((node, attr)),
        }
    }
    TaskSnapshot {
        values,
        missing,
        taken_at: now,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::collector::fixture;
    use remo_core::TaskId;

    fn store() -> CollectorCore {
        let mut s = fixture::store();
        fixture::record(&mut s, (0, 0), 10.0, 4, 5);
        fixture::record(&mut s, (1, 0), 30.0, 8, 9);
        s
    }

    fn task() -> MonitoringTask {
        MonitoringTask::new(TaskId(0), [AttrId(0)], (0..3).map(NodeId))
    }

    #[test]
    fn snapshot_partitions_observed_and_missing() {
        let snap = snapshot_for_task(&store(), &task(), 10);
        assert_eq!(snap.values.len(), 2);
        assert_eq!(snap.missing, vec![(NodeId(2), AttrId(0))]);
        assert!((snap.completeness() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn staleness_and_aggregates() {
        let snap = snapshot_for_task(&store(), &task(), 10);
        assert_eq!(snap.max_staleness(), Some(6)); // produced 4 at now 10
        assert_eq!(snap.mean(), Some(20.0));
        let (pair, v) = snap.max_pair().unwrap();
        assert_eq!(pair, (NodeId(1), AttrId(0)));
        assert_eq!(v.value, 30.0);
    }

    #[test]
    fn empty_task_snapshot() {
        let t = MonitoringTask::new(TaskId(1), [AttrId(9)], [NodeId(9)]);
        let snap = snapshot_for_task(&store(), &t, 1);
        assert!(snap.values.is_empty());
        assert_eq!(snap.completeness(), 0.0);
        assert_eq!(snap.max_staleness(), None);
        assert_eq!(snap.mean(), None);
        assert!(snap.max_pair().is_none());
    }
}
