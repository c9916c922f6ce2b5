//! Monitoring-tree structure.
//!
//! A [`Tree`] is the finished product of tree construction: a rooted
//! collection tree over a subset of the monitoring nodes, delivering
//! one attribute set of the partition. Its root reports to the central
//! collector. Nodes that could not be included without violating a
//! resource constraint are simply absent (their pairs go uncollected,
//! which is what the planner's objective counts).

use crate::ids::NodeId;
use crate::partition::AttrSet;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The upstream endpoint a node forwards its update message to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Parent {
    /// The node is the tree root and reports to the central collector.
    Collector,
    /// The node forwards to another monitoring node.
    Node(NodeId),
}

/// A rooted monitoring tree delivering one attribute set.
///
/// # Examples
///
/// ```
/// use remo_core::{Tree, Parent, NodeId, AttrId};
/// use std::collections::BTreeSet;
/// let attrs: BTreeSet<AttrId> = [AttrId(0)].into_iter().collect();
/// let mut tree = Tree::new(attrs, NodeId(0));
/// tree.attach(NodeId(1), NodeId(0));
/// tree.attach(NodeId(2), NodeId(1));
/// assert_eq!(tree.len(), 3);
/// assert_eq!(tree.depth(NodeId(2)), Some(2));
/// assert_eq!(tree.parent(NodeId(1)), Some(Parent::Node(NodeId(0))));
/// assert_eq!(tree.height(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    attrs: AttrSet,
    root: NodeId,
    parent: BTreeMap<NodeId, Parent>,
    children: BTreeMap<NodeId, Vec<NodeId>>,
}

impl Tree {
    /// Creates a tree containing only `root`.
    pub fn new(attrs: AttrSet, root: NodeId) -> Self {
        let mut parent = BTreeMap::new();
        parent.insert(root, Parent::Collector);
        Tree {
            attrs,
            root,
            parent,
            children: BTreeMap::new(),
        }
    }

    /// The attribute set this tree delivers.
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// The root node (reports to the collector).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Returns `true` if the tree somehow has no nodes (never produced
    /// by the builders, which always include a root).
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Returns `true` if `node` is part of the tree.
    pub fn contains(&self, node: NodeId) -> bool {
        self.parent.contains_key(&node)
    }

    /// The parent of `node`, or `None` if the node is not in the tree.
    pub fn parent(&self, node: NodeId) -> Option<Parent> {
        self.parent.get(&node).copied()
    }

    /// The children of `node` (empty slice for leaves or absent nodes).
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        self.children.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Attaches `node` as a new leaf under `parent_node`.
    ///
    /// # Panics
    ///
    /// Panics if `parent_node` is not in the tree or `node` already is;
    /// builders uphold this internally.
    pub fn attach(&mut self, node: NodeId, parent_node: NodeId) {
        assert!(
            self.parent.contains_key(&parent_node),
            "parent {parent_node} not in tree"
        );
        let prev = self.parent.insert(node, Parent::Node(parent_node));
        assert!(prev.is_none(), "node {node} already in tree");
        self.children.entry(parent_node).or_default().push(node);
    }

    /// Depth of `node` (root = 0), or `None` if absent or on a cycle.
    /// Deserialized trees can contain cycles (the builders cannot
    /// create them), so this walks at most `len` edges instead of
    /// asserting.
    pub fn depth(&self, node: NodeId) -> Option<usize> {
        let mut cur = node;
        let mut d = 0;
        loop {
            match self.parent.get(&cur)? {
                Parent::Collector => return Some(d),
                Parent::Node(p) => {
                    cur = *p;
                    d += 1;
                    if d > self.parent.len() {
                        return None;
                    }
                }
            }
        }
    }

    /// Height of the tree: the maximum node depth.
    pub fn height(&self) -> usize {
        self.parent
            .keys()
            .filter_map(|&n| self.depth(n))
            .max()
            .unwrap_or(0)
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.parent.keys().copied()
    }

    /// All `(child, parent)` edges between monitoring nodes (the
    /// root-to-collector edge is excluded).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.parent.iter().filter_map(|(&n, &p)| match p {
            Parent::Collector => None,
            Parent::Node(pn) => Some((n, pn)),
        })
    }

    /// The set of nodes in the subtree rooted at `node` (including
    /// `node` itself); empty if the node is absent.
    pub fn subtree(&self, node: NodeId) -> BTreeSet<NodeId> {
        let mut out = BTreeSet::new();
        if !self.contains(node) {
            return out;
        }
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            if out.insert(n) {
                stack.extend(self.children(n).iter().copied());
            }
        }
        out
    }

    /// Structural validity: exactly one root, every parent present,
    /// children index consistent, no cycles.
    pub fn is_valid(&self) -> bool {
        let mut roots = 0;
        for (&n, &p) in &self.parent {
            match p {
                Parent::Collector => {
                    roots += 1;
                    if n != self.root {
                        return false;
                    }
                }
                Parent::Node(pn) => {
                    if !self.parent.contains_key(&pn) {
                        return false;
                    }
                    if !self.children(pn).contains(&n) {
                        return false;
                    }
                }
            }
            if self.depth(n).is_none() {
                return false;
            }
        }
        for (p, kids) in &self.children {
            for k in kids {
                if self.parent.get(k) != Some(&Parent::Node(*p)) {
                    return false;
                }
            }
        }
        roots == 1
    }

    /// Counts the edges that differ between `self` and `other`
    /// (treating the parent assignment of each node as one edge; a node
    /// present in only one tree counts as one changed edge). This is
    /// the adaptation-cost measure `M_adapt` of paper §4.2.
    pub fn edge_diff(&self, other: &Tree) -> usize {
        let mut diff = 0;
        for (&n, &p) in &self.parent {
            match other.parent.get(&n) {
                None => diff += 1,
                Some(&op) if op != p => diff += 1,
                _ => {}
            }
        }
        for &n in other.parent.keys() {
            if !self.parent.contains_key(&n) {
                diff += 1;
            }
        }
        diff
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::ids::AttrId;

    fn attrs() -> AttrSet {
        [AttrId(0)].into_iter().collect()
    }

    fn chain3() -> Tree {
        let mut t = Tree::new(attrs(), NodeId(0));
        t.attach(NodeId(1), NodeId(0));
        t.attach(NodeId(2), NodeId(1));
        t
    }

    #[test]
    fn new_tree_has_root_only() {
        let t = Tree::new(attrs(), NodeId(7));
        assert_eq!(t.len(), 1);
        assert_eq!(t.root(), NodeId(7));
        assert_eq!(t.parent(NodeId(7)), Some(Parent::Collector));
        assert_eq!(t.height(), 0);
        assert!(t.is_valid());
    }

    #[test]
    fn attach_builds_structure() {
        let t = chain3();
        assert_eq!(t.children(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.depth(NodeId(2)), Some(2));
        assert_eq!(t.height(), 2);
        assert!(t.is_valid());
    }

    #[test]
    #[should_panic(expected = "parent")]
    fn attach_to_missing_parent_panics() {
        let mut t = Tree::new(attrs(), NodeId(0));
        t.attach(NodeId(1), NodeId(9));
    }

    #[test]
    #[should_panic(expected = "already")]
    fn double_attach_panics() {
        let mut t = chain3();
        t.attach(NodeId(1), NodeId(0));
    }

    #[test]
    fn subtree_collects_descendants() {
        let mut t = chain3();
        t.attach(NodeId(3), NodeId(1));
        let sub = t.subtree(NodeId(1));
        assert_eq!(
            sub.into_iter().collect::<Vec<_>>(),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
        assert!(t.subtree(NodeId(9)).is_empty());
    }

    #[test]
    fn edges_exclude_collector_link() {
        let t = chain3();
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&(NodeId(1), NodeId(0))));
    }

    #[test]
    fn edge_diff_counts_changes() {
        let a = chain3();
        // Same membership, n2 re-parented to n0.
        let mut b = Tree::new(attrs(), NodeId(0));
        b.attach(NodeId(1), NodeId(0));
        b.attach(NodeId(2), NodeId(0));
        assert_eq!(a.edge_diff(&b), 1);
        // Node present on one side only.
        let mut c = chain3();
        c.attach(NodeId(3), NodeId(2));
        assert_eq!(a.edge_diff(&c), 1);
        assert_eq!(c.edge_diff(&a), 1);
        assert_eq!(a.edge_diff(&a), 0);
    }
}
