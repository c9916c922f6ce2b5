//! Monitoring tasks and task-churn descriptions.
//!
//! A monitoring task `t = (A_t, N_t)` (paper Definition 1) asks for the
//! values of every attribute in `A_t` on every node in `N_t`,
//! i.e. the cross product of node-attribute pairs.

use crate::ids::{AttrId, NodeId, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A monitoring task: collect attributes `attrs` from nodes `nodes`.
///
/// # Examples
///
/// ```
/// use remo_core::{MonitoringTask, TaskId, NodeId, AttrId};
/// let t = MonitoringTask::new(
///     TaskId(0),
///     [AttrId(0), AttrId(1)],
///     [NodeId(0), NodeId(1), NodeId(2)],
/// );
/// assert_eq!(t.pair_count(), 6);
/// assert!(t.covers(NodeId(1), AttrId(0)));
/// assert!(!t.covers(NodeId(3), AttrId(0)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitoringTask {
    id: TaskId,
    attrs: BTreeSet<AttrId>,
    nodes: BTreeSet<NodeId>,
}

impl MonitoringTask {
    /// Creates a task from attribute and node collections.
    pub fn new(
        id: TaskId,
        attrs: impl IntoIterator<Item = AttrId>,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        MonitoringTask {
            id,
            attrs: attrs.into_iter().collect(),
            nodes: nodes.into_iter().collect(),
        }
    }

    /// The task's identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Attributes collected by this task.
    pub fn attrs(&self) -> &BTreeSet<AttrId> {
        &self.attrs
    }

    /// Nodes this task collects from.
    pub fn nodes(&self) -> &BTreeSet<NodeId> {
        &self.nodes
    }

    /// Number of node-attribute pairs this task requests (before
    /// deduplication against other tasks).
    pub fn pair_count(&self) -> usize {
        self.attrs.len() * self.nodes.len()
    }

    /// Returns `true` if the task requests attribute `attr` on `node`.
    pub fn covers(&self, node: NodeId, attr: AttrId) -> bool {
        self.nodes.contains(&node) && self.attrs.contains(&attr)
    }

    /// Iterates over all `(node, attr)` pairs the task requests.
    ///
    /// # Examples
    ///
    /// ```
    /// use remo_core::{MonitoringTask, TaskId, NodeId, AttrId};
    /// let t = MonitoringTask::new(TaskId(0), [AttrId(5)], [NodeId(1), NodeId(2)]);
    /// let pairs: Vec<_> = t.pairs().collect();
    /// assert_eq!(pairs, vec![(NodeId(1), AttrId(5)), (NodeId(2), AttrId(5))]);
    /// ```
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, AttrId)> + '_ {
        self.nodes
            .iter()
            .flat_map(move |&n| self.attrs.iter().map(move |&a| (n, a)))
    }

    /// Returns `true` if the task requests nothing.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty() || self.nodes.is_empty()
    }
}

/// A change to the running task set, driving runtime adaptation
/// (paper §4).
///
/// # Examples
///
/// ```
/// use remo_core::{TaskChange, MonitoringTask, TaskId, NodeId, AttrId};
/// let add = TaskChange::Add(MonitoringTask::new(TaskId(1), [AttrId(0)], [NodeId(0)]));
/// let rm = TaskChange::Remove(TaskId(1));
/// assert_ne!(add, rm);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TaskChange {
    /// Submit a new task.
    Add(MonitoringTask),
    /// Withdraw an existing task.
    Remove(TaskId),
    /// Replace the attribute and node sets of an existing task, e.g. a
    /// user swapping attributes while debugging (paper §1).
    Modify {
        /// Task to modify.
        id: TaskId,
        /// New attribute set.
        attrs: BTreeSet<AttrId>,
        /// New node set.
        nodes: BTreeSet<NodeId>,
    },
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }
    fn attrs(ids: &[u32]) -> Vec<AttrId> {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn pair_count_is_cross_product() {
        let t = MonitoringTask::new(TaskId(0), attrs(&[0, 1, 2]), nodes(&[0, 1]));
        assert_eq!(t.pair_count(), 6);
        assert_eq!(t.pairs().count(), 6);
    }

    #[test]
    fn duplicate_members_collapse() {
        let t = MonitoringTask::new(
            TaskId(0),
            [AttrId(1), AttrId(1)],
            [NodeId(2), NodeId(2), NodeId(3)],
        );
        assert_eq!(t.pair_count(), 2);
    }

    #[test]
    fn empty_detection() {
        let t = MonitoringTask::new(TaskId(0), attrs(&[]), nodes(&[1]));
        assert!(t.is_empty());
        let t = MonitoringTask::new(TaskId(0), attrs(&[1]), nodes(&[]));
        assert!(t.is_empty());
        let t = MonitoringTask::new(TaskId(0), attrs(&[1]), nodes(&[1]));
        assert!(!t.is_empty());
    }
}
