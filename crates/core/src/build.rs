//! Resource-constrained collection-tree construction (paper §3.2 and
//! the adjustment optimizations of §5.1).
//!
//! Given one attribute set of the partition and the per-node residual
//! budgets, a builder produces a rooted collection tree that includes
//! as many participating nodes as the `C + a·x` cost model allows.
//! Four schemes are provided, matching Fig. 7's candidates:
//!
//! - [`BuilderKind::Star`] — every node reports directly to the root,
//!   minimizing relay cost but concentrating per-message overhead.
//! - [`BuilderKind::Chain`] — a linear relay chain, minimizing
//!   per-message overhead at the root but maximizing relay cost.
//! - [`BuilderKind::MaxAvb`] — each node attaches beneath the member
//!   with the most available capacity.
//! - [`BuilderKind::Adaptive`] — REMO's adjusting procedure: greedy
//!   placement with congestion-relieving branch relocation, seeded
//!   against the simple schemes so it dominates them by construction.
//!
//! All schemes share the [`LoadTracker`], an incrementally-maintained
//! account of per-node outgoing values (with in-network aggregation
//! funnels), usage, and budget feasibility. The tracker stores its
//! per-node state in flat parallel arrays (slot arena indexed through
//! one id map) and keeps usage cached per node — send cost plus a
//! running receive sum — so a budget check is O(1) and an attach costs
//! O(path length) instead of O(children) per ancestor. Mutations
//! journal every touched slot and restore the exact prior floats on
//! rollback, preserving the transactional semantics.
//!
//! The adaptive scheme finishes a simple-scheme challenger only when it
//! could displace the incumbent, and continues CHAIN and MAX_AVB from
//! where its own pass stopped matching them instead of rebuilding the
//! shared prefix (`adjusted_pass`); DESIGN.md, "Tree kernel", has the
//! exactness arguments and `tests/golden_build.rs` pins every scheme's
//! outcomes to the bit.

use crate::cost::{Aggregation, CostModel};
use crate::ids::NodeId;
use crate::partition::AttrSet;
use crate::tree::Tree;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Slack tolerated in floating-point budget comparisons.
const EPS: f64 = 1e-9;

/// How many candidate parents a greedy placement tries before giving
/// up (or, for ADAPTIVE, before invoking the adjusting procedure).
const PARENT_CANDIDATES: usize = 8;

/// Local per-metric load of one node: values it produces itself.
///
/// `holistic` carries all identity-funnel metrics folded into one
/// scalar; `funnel` has one entry per non-identity aggregation in the
/// request's funnel table (parallel to [`BuildRequest::funnels`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LocalLoad {
    /// Values of holistic (identity-funnel) metrics.
    pub holistic: f64,
    /// Values per funnel metric, parallel to the funnel table.
    pub funnel: Vec<f64>,
}

impl LocalLoad {
    /// A purely holistic load (empty funnel vector; trackers pad it to
    /// the funnel-table length).
    pub fn holistic(values: f64) -> Self {
        LocalLoad {
            holistic: values,
            funnel: Vec::new(),
        }
    }

    /// Total values represented.
    pub fn total(&self) -> f64 {
        self.holistic + self.funnel.iter().sum::<f64>()
    }

    fn add(&mut self, other: &LocalLoad) {
        self.holistic += other.holistic;
        for (a, b) in self.funnel.iter_mut().zip(&other.funnel) {
            *a += *b;
        }
    }

    fn sub(&mut self, other: &LocalLoad) {
        self.holistic -= other.holistic;
        for (a, b) in self.funnel.iter_mut().zip(&other.funnel) {
            *a -= *b;
        }
    }

    /// Applies the element-wise change `new - old` to `self` — the
    /// delta-propagation step when a child's outgoing vector changes.
    fn add_delta(&mut self, new: &LocalLoad, old: &LocalLoad) {
        self.holistic += new.holistic - old.holistic;
        for ((a, b), c) in self.funnel.iter_mut().zip(&new.funnel).zip(&old.funnel) {
            *a += *b - *c;
        }
    }

    fn padded(mut self, funnels: usize) -> Self {
        self.funnel.resize(funnels, 0.0);
        self
    }
}

/// One participating node's demand on the tree under construction.
#[derive(Debug, Clone)]
pub struct NodeDemand {
    /// The node.
    pub node: NodeId,
    /// Values it produces locally for this attribute set.
    pub load: LocalLoad,
    /// Its residual capacity budget.
    pub budget: f64,
    /// Raw node-attribute pairs it contributes (the objective unit).
    pub pairs: usize,
}

/// Everything a tree builder needs for one attribute set.
#[derive(Debug, Clone)]
pub struct BuildRequest {
    /// The attribute set the tree delivers.
    pub attrs: AttrSet,
    /// Participating nodes with loads and budgets.
    pub demand: Vec<NodeDemand>,
    /// Residual collector budget available to this tree's root link.
    pub collector_budget: f64,
    /// The message cost model.
    pub cost: CostModel,
    /// Funnel table: the non-identity aggregations present in the set
    /// (loads' `funnel` vectors are parallel to this).
    pub funnels: Vec<Aggregation>,
}

/// Knobs of the adjusting procedure (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdjustConfig {
    /// Relocate whole branches instead of single leaves (§5.1.1).
    pub branch_based: bool,
    /// Restrict relocation targets to the congested node's subtree
    /// (§5.1.2).
    pub subtree_only: bool,
}

impl AdjustConfig {
    /// The basic adjusting procedure: single-node moves, global target
    /// search.
    pub fn basic() -> Self {
        AdjustConfig {
            branch_based: false,
            subtree_only: false,
        }
    }
}

impl Default for AdjustConfig {
    /// Both optimizations on (the paper's COMBINED variant).
    fn default() -> Self {
        AdjustConfig {
            branch_based: true,
            subtree_only: true,
        }
    }
}

/// Tree-construction scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BuilderKind {
    /// All nodes report directly to the root.
    Star,
    /// A linear relay chain.
    Chain,
    /// Attach beneath the member with maximum available capacity.
    MaxAvb,
    /// REMO's adjusting procedure.
    Adaptive(AdjustConfig),
}

impl Default for BuilderKind {
    fn default() -> Self {
        BuilderKind::Adaptive(AdjustConfig::default())
    }
}

/// The product of one tree construction.
#[derive(Debug, Clone)]
pub struct BuildOutcome {
    /// The constructed tree, or `None` when no node could be placed.
    pub tree: Option<Tree>,
    /// Per-node usage attributable to this tree.
    pub usage: BTreeMap<NodeId, f64>,
    /// Collector-side usage (receive cost of the root's message).
    pub collector_usage: f64,
    /// Node-attribute pairs collected (Σ pairs over included nodes).
    pub collected_pairs: usize,
    /// Node-attribute pairs demanded (Σ pairs over all demand).
    pub demanded_pairs: usize,
    /// Nodes that could not be included.
    pub excluded: Vec<NodeId>,
    /// Σ send costs over included nodes.
    pub message_volume: f64,
}

/// Why an attach was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachError {
    /// The node is already in the tracker.
    DuplicateNode,
    /// The requested parent is not in the tracker.
    MissingParent,
    /// Some node's usage would exceed its budget.
    BudgetExceeded,
    /// The root's message would exceed the collector budget.
    CollectorExceeded,
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AttachError::DuplicateNode => "node already in tree",
            AttachError::MissingParent => "parent not in tree",
            AttachError::BudgetExceeded => "node budget exceeded",
            AttachError::CollectorExceeded => "collector budget exceeded",
        };
        f.write_str(s)
    }
}

impl std::error::Error for AttachError {}

/// A detached subtree: structure, loads, and budgets, ready for
/// reattachment elsewhere.
#[derive(Debug, Clone)]
pub struct Branch {
    /// Preorder list: `(node, parent-within-branch, load, budget)`.
    /// The first entry is the branch root with parent `None`.
    nodes: Vec<(NodeId, Option<NodeId>, LocalLoad, f64)>,
}

impl Branch {
    /// The branch's root node.
    pub fn root(&self) -> NodeId {
        self.nodes[0].0
    }

    /// Number of nodes in the branch.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the branch is empty (never produced by
    /// [`LoadTracker::detach_subtree`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Rollback record: the exact float state of one slot before an
/// operation first touched it. Restoring entries in reverse order
/// reproduces the pre-operation state bit-for-bit.
#[derive(Debug)]
struct Saved {
    slot: u32,
    incoming: LocalLoad,
    outgoing: LocalLoad,
    send: f64,
    recv: f64,
}

/// Incrementally-maintained load accounting for a tree under
/// construction or adjustment.
///
/// Tracks, per node, the outgoing value vector (holistic plus one
/// entry per funnel metric), from which usage follows: a node pays the
/// send cost of its own message and the receive cost of each child's
/// message (`C + a·x` each, paper §2.3). Attach operations are
/// transactional — on budget violation the tracker is left unchanged.
///
/// Internally the per-node state lives in parallel arrays indexed by
/// slot (freed slots are recycled): `incoming` is the pre-funnel value
/// vector (local plus children's outgoing), `outgoing` its
/// post-funnel image, `send` the cached cost of the node's own
/// message, and `recv` the cached sum of children receive costs — so
/// `usage = send + recv` is O(1) and a mutation only walks the
/// root-ward path, stopping early once nothing changes.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    cost: CostModel,
    funnels: Vec<Aggregation>,
    collector_budget: f64,
    root: Option<NodeId>,
    idx: HashMap<NodeId, u32>,
    ids: Vec<NodeId>,
    parent: Vec<Option<u32>>,
    children: Vec<Vec<NodeId>>,
    local: Vec<LocalLoad>,
    budget: Vec<f64>,
    incoming: Vec<LocalLoad>,
    outgoing: Vec<LocalLoad>,
    send: Vec<f64>,
    recv: Vec<f64>,
    free: Vec<u32>,
    /// Nodes that joined, or whose availability rose, in the last
    /// successful mutation (cleared at the start of each mutating
    /// call); the greedy builders use this to keep their parent ranking
    /// fresh. An attach only lowers its ancestors' availability, which
    /// the ranking re-checks lazily, so they are not listed.
    dirty: Vec<NodeId>,
    /// Bumped on every successful mutation. Failed operations roll
    /// back to the exact prior state and leave it unchanged, so equal
    /// epochs mean the tracker is bit-identical — the builders' failed-
    /// placement memo keys on this.
    epoch: u64,
}

impl LoadTracker {
    /// An empty tracker.
    pub fn new(cost: CostModel, funnels: Vec<Aggregation>, collector_budget: f64) -> Self {
        LoadTracker {
            cost,
            funnels,
            collector_budget,
            root: None,
            idx: HashMap::new(),
            ids: Vec::new(),
            parent: Vec::new(),
            children: Vec::new(),
            local: Vec::new(),
            budget: Vec::new(),
            incoming: Vec::new(),
            outgoing: Vec::new(),
            send: Vec::new(),
            recv: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            epoch: 0,
        }
    }

    /// Mutation epoch: bumped on every successful mutation, untouched
    /// by rolled-back failures.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the funnel table is empty (purely holistic loads, where
    /// attach feasibility is monotone in the candidate's load total).
    pub fn holistic_only(&self) -> bool {
        self.funnels.is_empty()
    }

    fn alloc_slot(
        &mut self,
        node: NodeId,
        parent: Option<u32>,
        local: LocalLoad,
        budget: f64,
    ) -> u32 {
        let incoming = local.clone();
        let outgoing = self.apply_funnels(incoming.clone());
        let send = self.cost.message_cost(outgoing.total());
        let slot = match self.free.pop() {
            Some(s) => {
                let i = s as usize;
                self.ids[i] = node;
                self.parent[i] = parent;
                self.children[i].clear();
                self.local[i] = local;
                self.budget[i] = budget;
                self.incoming[i] = incoming;
                self.outgoing[i] = outgoing;
                self.send[i] = send;
                self.recv[i] = 0.0;
                s
            }
            None => {
                let s = u32::try_from(self.ids.len())
                    .unwrap_or_else(|_| unreachable!("more than u32::MAX tree members"));
                self.ids.push(node);
                self.parent.push(parent);
                self.children.push(Vec::new());
                self.local.push(local);
                self.budget.push(budget);
                self.incoming.push(incoming);
                self.outgoing.push(outgoing);
                self.send.push(send);
                self.recv.push(0.0);
                s
            }
        };
        self.idx.insert(node, slot);
        slot
    }

    fn free_slot(&mut self, node: NodeId, slot: u32) {
        self.idx.remove(&node);
        self.children[slot as usize].clear();
        self.free.push(slot);
    }

    fn save(&self, journal: &mut Vec<Saved>, slot: u32) {
        let i = slot as usize;
        journal.push(Saved {
            slot,
            incoming: self.incoming[i].clone(),
            outgoing: self.outgoing[i].clone(),
            send: self.send[i],
            recv: self.recv[i],
        });
    }

    fn restore(&mut self, journal: Vec<Saved>) {
        for s in journal.into_iter().rev() {
            let i = s.slot as usize;
            self.incoming[i] = s.incoming;
            self.outgoing[i] = s.outgoing;
            self.send[i] = s.send;
            self.recv[i] = s.recv;
        }
    }

    /// Re-derives `outgoing`/`send` from the (already updated)
    /// `incoming` of `start` and propagates the change root-ward,
    /// journaling every touched slot. Stops as soon as a node's
    /// outgoing vector and send cost are unchanged (nothing above can
    /// differ then). With `check` set, verifies each touched node's
    /// budget on the way up and the collector constraint at the root,
    /// returning the first violation (the caller rolls back).
    ///
    /// A checked bubble follows an attach: the start node's incoming
    /// values grew, funnels are non-decreasing and `a > 0`, so every
    /// send cost on the path grows or stays and every touched node's
    /// availability falls or stays — those nodes are not marked dirty.
    /// An unchecked bubble follows a detach and marks every node it
    /// touches.
    fn bubble(
        &mut self,
        start: u32,
        journal: &mut Vec<Saved>,
        check: bool,
    ) -> Result<(), AttachError> {
        let mut n = start;
        loop {
            let i = n as usize;
            self.save(journal, n);
            if !check {
                self.dirty.push(self.ids[i]);
            }
            let new_out = self.apply_funnels(self.incoming[i].clone());
            let old_send = self.send[i];
            self.send[i] = self.cost.message_cost(new_out.total());
            debug_assert!(
                !check || self.send[i] >= old_send,
                "an attach lowered a send cost (negative load?)"
            );
            if check && self.send[i] + self.recv[i] > self.budget[i] + EPS {
                return Err(AttachError::BudgetExceeded);
            }
            let out_changed = new_out != self.outgoing[i];
            if !out_changed && self.send[i] == old_send {
                return Ok(());
            }
            match self.parent[i] {
                None => {
                    self.outgoing[i] = new_out;
                    if check && self.send[i] > self.collector_budget + EPS {
                        return Err(AttachError::CollectorExceeded);
                    }
                    return Ok(());
                }
                Some(p) => {
                    self.save(journal, p);
                    let pi = p as usize;
                    self.recv[pi] += self.send[i] - old_send;
                    let old_out = std::mem::replace(&mut self.outgoing[i], new_out);
                    // Split borrows: clone the new outgoing for the
                    // delta (funnel vectors are tiny).
                    let new_ref = self.outgoing[i].clone();
                    self.incoming[pi].add_delta(&new_ref, &old_out);
                    n = p;
                }
            }
        }
    }

    /// Installs the root node.
    ///
    /// # Errors
    ///
    /// [`AttachError::DuplicateNode`] if the tracker already has a
    /// root; [`AttachError::BudgetExceeded`] /
    /// [`AttachError::CollectorExceeded`] if even the root's own
    /// message does not fit.
    pub fn init_root(
        &mut self,
        node: NodeId,
        load: LocalLoad,
        budget: f64,
    ) -> Result<(), AttachError> {
        if self.root.is_some() {
            return Err(AttachError::DuplicateNode);
        }
        self.dirty.clear();
        let local = load.padded(self.funnels.len());
        let outgoing = self.apply_funnels(local.clone());
        let send = self.cost.message_cost(outgoing.total());
        if send > budget + EPS {
            return Err(AttachError::BudgetExceeded);
        }
        if send > self.collector_budget + EPS {
            return Err(AttachError::CollectorExceeded);
        }
        self.alloc_slot(node, None, local, budget);
        self.root = Some(node);
        self.dirty.push(node);
        self.epoch += 1;
        Ok(())
    }

    /// The root node, if any.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the tracker is empty.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// All tracked nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let mut ids: Vec<NodeId> = self.idx.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
    }

    /// Every tracked node with its remaining budget, in no particular
    /// order.
    fn availability(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.idx.iter().map(|(&n, &s)| (n, self.avail_at(s)))
    }

    fn avail_at(&self, slot: u32) -> f64 {
        let s = slot as usize;
        self.budget[s] - (self.send[s] + self.recv[s])
    }

    /// Whether `node` is tracked.
    pub fn contains(&self, node: NodeId) -> bool {
        self.idx.contains_key(&node)
    }

    fn slot(&self, node: NodeId) -> Option<u32> {
        self.idx.get(&node).copied()
    }

    /// The parent of `node` (`None` for the root or an absent node).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let s = self.slot(node)?;
        self.parent[s as usize].map(|p| self.ids[p as usize])
    }

    /// The children of `node` (empty for leaves or absent nodes).
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        match self.slot(node) {
            Some(s) => self.children[s as usize].as_slice(),
            None => &[],
        }
    }

    /// Values leaving `node` per epoch (after funnels).
    pub fn outgoing_values(&self, node: NodeId) -> Option<f64> {
        let s = self.slot(node)?;
        Some(self.outgoing[s as usize].total())
    }

    /// Current usage of `node`: send cost of its message plus receive
    /// cost of each child's message. O(1) from the cached accounting.
    pub fn usage(&self, node: NodeId) -> Option<f64> {
        let s = self.slot(node)? as usize;
        Some(self.send[s] + self.recv[s])
    }

    /// Remaining budget of `node`.
    pub fn available(&self, node: NodeId) -> Option<f64> {
        Some(self.avail_at(self.slot(node)?))
    }

    /// Collector-side usage: receive cost of the root's message.
    pub fn collector_usage(&self) -> f64 {
        match self.root.and_then(|r| self.slot(r)) {
            Some(s) => self.send[s as usize],
            None => 0.0,
        }
    }

    /// Σ send costs over all tracked nodes (summed in id order, so the
    /// result does not depend on insertion history).
    pub fn message_volume(&self) -> f64 {
        self.nodes()
            .map(|n| {
                let s = self.slot(n).unwrap_or_else(|| unreachable!("tracked node"));
                self.send[s as usize]
            })
            .sum()
    }

    fn apply_funnels(&self, incoming: LocalLoad) -> LocalLoad {
        LocalLoad {
            holistic: incoming.holistic,
            funnel: incoming
                .funnel
                .iter()
                .zip(&self.funnels)
                .map(|(&v, agg)| agg.funnel(v))
                .collect(),
        }
    }

    /// Nodes whose availability changed in the last successful
    /// mutation; drains the list. The greedy builders consume this to
    /// keep their availability ranking current.
    fn take_dirty(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.dirty)
    }

    /// Attaches `node` as a leaf under `parent`, transactionally.
    ///
    /// # Errors
    ///
    /// Returns the violated constraint; the tracker is unchanged on
    /// error.
    pub fn try_attach(
        &mut self,
        node: NodeId,
        load: LocalLoad,
        budget: f64,
        parent: NodeId,
    ) -> Result<(), AttachError> {
        if self.idx.contains_key(&node) {
            return Err(AttachError::DuplicateNode);
        }
        let Some(p) = self.slot(parent) else {
            return Err(AttachError::MissingParent);
        };
        self.dirty.clear();
        let local = load.padded(self.funnels.len());
        let s = self.alloc_slot(node, Some(p), local, budget);
        if self.send[s as usize] > budget + EPS {
            self.free_slot(node, s);
            return Err(AttachError::BudgetExceeded);
        }
        let pi = p as usize;
        self.children[pi].push(node);
        let mut journal = Vec::new();
        self.save(&mut journal, p);
        let child_out = self.outgoing[s as usize].clone();
        self.incoming[pi].add(&child_out);
        self.recv[pi] += self.send[s as usize];
        self.dirty.push(node);
        match self.bubble(p, &mut journal, true) {
            Ok(()) => {
                self.epoch += 1;
                Ok(())
            }
            Err(e) => {
                self.restore(journal);
                self.children[pi].pop();
                self.free_slot(node, s);
                self.dirty.clear();
                Err(e)
            }
        }
    }

    /// Detaches the subtree rooted at `node` and returns it as a
    /// [`Branch`]; ancestors' accounting is updated.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not tracked.
    pub fn detach_subtree(&mut self, node: NodeId) -> Branch {
        let s = self.slot(node);
        assert!(s.is_some(), "detach of absent node");
        let s = s.unwrap_or_else(|| unreachable!("checked above"));
        self.dirty.clear();
        // Preorder walk over slots.
        let mut order = vec![s];
        let mut i = 0;
        while i < order.len() {
            let kids = self.children[order[i] as usize].clone();
            order.extend(kids.iter().map(|&k| {
                self.slot(k)
                    .unwrap_or_else(|| unreachable!("child tracked"))
            }));
            i += 1;
        }
        let old_parent = self.parent[s as usize];
        let detached_out = self.outgoing[s as usize].clone();
        let detached_send = self.send[s as usize];
        let mut nodes = Vec::with_capacity(order.len());
        for (k, &slot) in order.iter().enumerate() {
            let i = slot as usize;
            let n = self.ids[i];
            let parent_in_branch = if k == 0 {
                None
            } else {
                self.parent[i].map(|p| self.ids[p as usize])
            };
            nodes.push((n, parent_in_branch, self.local[i].clone(), self.budget[i]));
            self.free_slot(n, slot);
        }
        match old_parent {
            Some(p) => {
                let pi = p as usize;
                self.children[pi].retain(|&k| k != node);
                let mut journal = Vec::new();
                self.save(&mut journal, p);
                self.incoming[pi].sub(&detached_out);
                self.recv[pi] -= detached_send;
                self.bubble(p, &mut journal, false)
                    .unwrap_or_else(|_| unreachable!("unchecked bubble cannot fail"));
            }
            None => self.root = None,
        }
        self.epoch += 1;
        Branch { nodes }
    }

    /// Reattaches a detached branch under `target`, transactionally.
    ///
    /// # Errors
    ///
    /// Returns the branch back together with the violated constraint;
    /// the tracker is unchanged on error.
    pub fn try_attach_branch(
        &mut self,
        branch: Branch,
        target: NodeId,
    ) -> Result<(), (Branch, AttachError)> {
        let Some(t) = self.slot(target) else {
            return Err((branch, AttachError::MissingParent));
        };
        if branch.nodes.iter().any(|(n, ..)| self.idx.contains_key(n)) {
            return Err((branch, AttachError::DuplicateNode));
        }
        self.dirty.clear();

        // Insert structurally in preorder (parents before children).
        let mut slots = Vec::with_capacity(branch.nodes.len());
        for (n, parent_in_branch, local, budget) in branch.nodes.iter() {
            let p = match parent_in_branch {
                Some(bp) => self
                    .slot(*bp)
                    .unwrap_or_else(|| unreachable!("branch parent inserted first")),
                None => t,
            };
            let slot = self.alloc_slot(
                *n,
                Some(p),
                local.clone().padded(self.funnels.len()),
                *budget,
            );
            slots.push(slot);
        }
        for (n, parent_in_branch, ..) in branch.nodes.iter() {
            let pi = match parent_in_branch {
                Some(bp) => self
                    .slot(*bp)
                    .unwrap_or_else(|| unreachable!("branch parent present")),
                None => t,
            } as usize;
            self.children[pi].push(*n);
        }
        // Branch-internal accounting, children before parents (each
        // node's incoming sums its children's final outgoing).
        for &slot in slots.iter().rev() {
            let i = slot as usize;
            let mut incoming = self.local[i].clone();
            let mut recv = 0.0;
            for ck in 0..self.children[i].len() {
                let c = self.children[i][ck];
                let cs = self
                    .slot(c)
                    .unwrap_or_else(|| unreachable!("branch child present"))
                    as usize;
                incoming.add(&self.outgoing[cs]);
                recv += self.send[cs];
            }
            self.outgoing[i] = self.apply_funnels(incoming.clone());
            self.incoming[i] = incoming;
            self.send[i] = self.cost.message_cost(self.outgoing[i].total());
            self.recv[i] = recv;
        }

        let rollback = |me: &mut Self, journal: Vec<Saved>| {
            me.restore(journal);
            for (&slot, (n, ..)) in slots.iter().zip(&branch.nodes).rev() {
                me.free_slot(*n, slot);
            }
            let ti = t as usize;
            me.children[ti].retain(|k| branch.nodes[0].0 != *k);
            me.dirty.clear();
        };

        // Branch-node budget checks (their accounting is final).
        for &slot in &slots {
            let i = slot as usize;
            if self.send[i] + self.recv[i] > self.budget[i] + EPS {
                rollback(self, Vec::new());
                return Err((branch, AttachError::BudgetExceeded));
            }
        }

        let mut journal = Vec::new();
        self.save(&mut journal, t);
        let ti = t as usize;
        let root_slot = slots[0] as usize;
        let branch_out = self.outgoing[root_slot].clone();
        self.incoming[ti].add(&branch_out);
        self.recv[ti] += self.send[root_slot];
        match self.bubble(t, &mut journal, true) {
            Ok(()) => {
                self.dirty.extend(branch.nodes.iter().map(|(n, ..)| *n));
                self.epoch += 1;
                Ok(())
            }
            Err(e) => {
                rollback(self, journal);
                Err((branch, e))
            }
        }
    }

    /// Verifies the incremental accounting against a from-scratch
    /// recomputation (and the structural indices against each other).
    pub fn check_consistency(&self) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6;
        for n in self.nodes() {
            let s = self.slot(n).unwrap_or_else(|| unreachable!("tracked node"));
            let i = s as usize;
            if self.ids[i] != n {
                return false;
            }
            match self.parent[i] {
                None => {
                    if self.root != Some(n) {
                        return false;
                    }
                }
                Some(p) => {
                    if !self.children[p as usize].contains(&n) {
                        return false;
                    }
                }
            }
            // Recompute incoming/recv from the children lists.
            let mut incoming = self.local[i].clone();
            let mut recv = 0.0;
            for c in &self.children[i] {
                let cs = match self.slot(*c) {
                    Some(cs) if self.parent[cs as usize] == Some(s) => cs as usize,
                    _ => return false,
                };
                incoming.add(&self.outgoing[cs]);
                recv += self.send[cs];
            }
            let fresh_out = self.apply_funnels(incoming.clone());
            if !close(incoming.holistic, self.incoming[i].holistic)
                || !close(fresh_out.holistic, self.outgoing[i].holistic)
                || fresh_out.funnel.len() != self.outgoing[i].funnel.len()
            {
                return false;
            }
            for (a, b) in fresh_out.funnel.iter().zip(&self.outgoing[i].funnel) {
                if !close(*a, *b) {
                    return false;
                }
            }
            if !close(recv, self.recv[i])
                || !close(
                    self.cost.message_cost(self.outgoing[i].total()),
                    self.send[i],
                )
            {
                return false;
            }
        }
        true
    }

    /// Materializes the tracked structure as a [`Tree`].
    pub fn to_tree(&self, attrs: AttrSet) -> Option<Tree> {
        let root = self.root?;
        let mut tree = Tree::new(attrs, root);
        let mut stack: Vec<NodeId> = self.children(root).to_vec();
        while let Some(n) = stack.pop() {
            let p = self
                .parent(n)
                .unwrap_or_else(|| unreachable!("non-root has parent"));
            tree.attach(n, p);
            stack.extend(self.children(n).iter().copied());
        }
        Some(tree)
    }

    /// Per-node usage map (for [`BuildOutcome::usage`]).
    pub fn usage_map(&self) -> BTreeMap<NodeId, f64> {
        self.nodes()
            .map(|n| (n, self.usage(n).unwrap_or_else(|| unreachable!("tracked"))))
            .collect()
    }
}

/// Builds one collection tree for `request` under `kind`.
pub fn build_tree(kind: BuilderKind, request: &BuildRequest) -> BuildOutcome {
    let Some(seed) = Seed::new(request) else {
        return empty_outcome(request);
    };
    match kind {
        BuilderKind::Star => build_star(&seed),
        BuilderKind::Chain => build_chain(&seed),
        BuilderKind::MaxAvb => build_max_avb(&seed),
        BuilderKind::Adaptive(cfg) => build_adaptive(&seed, cfg),
    }
}

fn empty_outcome(request: &BuildRequest) -> BuildOutcome {
    BuildOutcome {
        tree: None,
        usage: BTreeMap::new(),
        collector_usage: 0.0,
        collected_pairs: 0,
        demanded_pairs: request.demand.iter().map(|d| d.pairs).sum(),
        excluded: request.demand.iter().map(|d| d.node).collect(),
        message_volume: 0.0,
    }
}

fn finish(tracker: &LoadTracker, request: &BuildRequest, excluded: Vec<NodeId>) -> BuildOutcome {
    BuildOutcome {
        tree: tracker.to_tree(request.attrs.clone()),
        usage: tracker.usage_map(),
        collector_usage: tracker.collector_usage(),
        collected_pairs: collected_pairs(tracker, request),
        demanded_pairs: request.demand.iter().map(|d| d.pairs).sum(),
        excluded,
        message_volume: tracker.message_volume(),
    }
}

/// Σ pairs over the demand `tracker` holds. A node the demand lists
/// more than once is held once and counts its last listing's pairs.
fn collected_pairs(tracker: &LoadTracker, request: &BuildRequest) -> usize {
    let held = request.demand.iter().filter(|d| tracker.contains(d.node));
    let (listings, pairs) = held.fold((0, 0), |(n, p), d| (n + 1, p + d.pairs));
    if listings == tracker.len() {
        return pairs;
    }
    let mut counted = HashSet::new();
    request
        .demand
        .iter()
        .rev()
        .filter(|d| tracker.contains(d.node) && counted.insert(d.node))
        .map(|d| d.pairs)
        .sum()
}

/// What every scheme starts from, computed once per request: the
/// placement order and a tracker with the first workable root
/// installed.
struct Seed<'a> {
    request: &'a BuildRequest,
    /// Demand by budget descending (ties by node id): hubs first.
    order: Vec<&'a NodeDemand>,
    /// Position of the root within `order`.
    root_idx: usize,
    /// Tracker holding just the root.
    tracker: LoadTracker,
}

impl<'a> Seed<'a> {
    /// `None` when no node can serve as root.
    fn new(request: &'a BuildRequest) -> Option<Self> {
        let mut order: Vec<&NodeDemand> = request.demand.iter().collect();
        order.sort_by(|a, b| {
            b.budget
                .partial_cmp(&a.budget)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        order
            .iter()
            .enumerate()
            .find_map(|(root_idx, d)| {
                let mut tracker = LoadTracker::new(
                    request.cost,
                    request.funnels.clone(),
                    request.collector_budget,
                );
                tracker
                    .init_root(d.node, d.load.clone(), d.budget)
                    .is_ok()
                    .then_some((root_idx, tracker))
            })
            .map(|(root_idx, tracker)| Seed {
                request,
                order,
                root_idx,
                tracker,
            })
    }

    fn root(&self) -> &'a NodeDemand {
        self.order[self.root_idx]
    }

    /// The demand still to place, in placement order.
    fn rest(&self) -> impl DoubleEndedIterator<Item = &'a NodeDemand> + '_ {
        let root = self.root_idx;
        self.order
            .iter()
            .enumerate()
            .filter(move |&(i, _)| i != root)
            .map(|(_, &d)| d)
    }

    /// A placement loop's state before its first placement.
    fn start(&self) -> Start {
        Start {
            tracker: self.tracker.clone(),
            next: 0,
            excluded: Vec::new(),
            memo: PlaceMemo::new(),
        }
    }
}

/// A simple scheme's placement-loop state: where it starts from the
/// seed, or where the adjusted pass forked it off (`adjusted_pass`).
#[derive(Debug, Clone)]
struct Start {
    tracker: LoadTracker,
    /// Position within [`Seed::rest`] of the next node to place.
    next: usize,
    excluded: Vec<NodeId>,
    memo: PlaceMemo,
}

/// STAR and CHAIN: every node has exactly one candidate parent, which
/// `next_parent` derives from the node just attached. The loop runs
/// from `start` with `parent` as the first candidate.
fn build_fixed_parent(
    seed: &Seed<'_>,
    start: Start,
    mut parent: NodeId,
    next_parent: impl Fn(NodeId, NodeId) -> NodeId,
) -> BuildOutcome {
    // The candidate parent moves only on success — the failed-placement
    // memo applies verbatim.
    let Start {
        tracker: mut t,
        next,
        mut excluded,
        mut memo,
    } = start;
    for d in seed.rest().skip(next) {
        let total = d.load.total();
        if memo.known_to_fail(&t, total) {
            excluded.push(d.node);
            continue;
        }
        match t.try_attach(d.node, d.load.clone(), d.budget, parent) {
            Ok(()) => parent = next_parent(parent, d.node),
            Err(_) => {
                memo.record_failure(&t, total);
                excluded.push(d.node);
            }
        }
    }
    finish(&t, seed.request, excluded)
}

fn build_star(seed: &Seed<'_>) -> BuildOutcome {
    build_fixed_parent(seed, seed.start(), seed.root().node, |root, _| root)
}

fn build_chain(seed: &Seed<'_>) -> BuildOutcome {
    chain_from(seed, seed.start(), seed.root().node)
}

/// CHAIN from `start`, whose tail is `tail`.
fn chain_from(seed: &Seed<'_>, start: Start, tail: NodeId) -> BuildOutcome {
    build_fixed_parent(seed, start, tail, |_, tail| tail)
}

/// Members ranked by available budget, best first: `(avail desc, id
/// asc)`, a total order on members since availability is never NaN.
fn members_by_avail(t: &LoadTracker) -> Vec<NodeId> {
    let mut m: Vec<(NodeId, f64)> = t.availability().collect();
    m.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    m.into_iter().map(|(n, _)| n).collect()
}

/// One lazy max-heap entry: a node at a point-in-time availability.
#[derive(Debug)]
struct AvailEntry {
    avail: f64,
    node: NodeId,
}

impl PartialEq for AvailEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for AvailEntry {}
impl PartialOrd for AvailEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for AvailEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap pops highest availability first; ties pop the
        // smallest node id — exactly the `members_by_avail` order.
        self.avail
            .total_cmp(&other.avail)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Lazily-invalidated availability ranking over the tracker's members.
///
/// Invariant: every member has an entry keyed at or above its current
/// availability. A node that joins or whose availability rises gets a
/// fresh entry (the tracker reports it dirty); one whose availability
/// falls — an attach beneath it — keeps its old, now stale-high entry.
/// Popping an entry that matches its node's availability therefore
/// yields the best remaining member: any other member's entry ranks at
/// or above that member and at or below the popped one. A stale-high
/// entry is re-pushed at the node's current availability, a stale-low
/// one (a fresher entry exists) or a detached node's is dropped. Pops
/// come out in exact `(avail desc, id asc)` order, and an attach at
/// depth d costs one push instead of d.
#[derive(Debug, Default)]
struct AvailHeap {
    heap: std::collections::BinaryHeap<AvailEntry>,
}

impl AvailHeap {
    /// A ranking over every current member of `t`.
    fn over(t: &LoadTracker) -> Self {
        AvailHeap {
            heap: t
                .availability()
                .map(|(node, avail)| AvailEntry { avail, node })
                .collect(),
        }
    }

    /// Absorbs the tracker's dirty set after a successful mutation.
    fn refresh(&mut self, t: &mut LoadTracker) {
        for n in t.take_dirty() {
            if let Some(avail) = t.available(n) {
                self.heap.push(AvailEntry { avail, node: n });
            }
        }
    }

    /// The top `k` members by `(avail desc, id asc)`, written into
    /// `out`. Valid entries that were popped are pushed back.
    fn top(&mut self, t: &LoadTracker, k: usize, out: &mut Vec<NodeId>) {
        out.clear();
        let mut keep = Vec::with_capacity(k);
        while out.len() < k {
            let Some(e) = self.heap.pop() else { break };
            if out.contains(&e.node) {
                // A duplicate entry; one survivor suffices.
                continue;
            }
            match t.available(e.node) {
                Some(avail) if avail == e.avail => {
                    out.push(e.node);
                    keep.push(e);
                }
                Some(avail) if avail < e.avail => self.heap.push(AvailEntry {
                    avail,
                    node: e.node,
                }),
                _ => {}
            }
        }
        for e in keep {
            self.heap.push(e);
        }
    }
}

/// Failed-placement memo. With purely holistic loads, attach
/// feasibility is monotone: every budget check a load of `L` fails, a
/// load `≥ L` fails at least as hard (given equal-or-smaller own
/// budget, which the budget-descending demand order guarantees). A
/// failed placement rolls back without touching the tracker, so while
/// the epoch stands still the same candidate parents would be retried
/// to the same verdict — the memo turns each of those retries into one
/// comparison. On saturated instances most of the demand is excluded,
/// and this removes the dominant cost of building the tree.
#[derive(Debug, Default, Clone, Copy)]
struct PlaceMemo {
    epoch: u64,
    min_failed: f64,
}

impl PlaceMemo {
    fn new() -> Self {
        PlaceMemo {
            epoch: 0,
            min_failed: f64::INFINITY,
        }
    }

    fn known_to_fail(&self, t: &LoadTracker, load_total: f64) -> bool {
        t.holistic_only() && self.epoch == t.epoch() && load_total >= self.min_failed
    }

    fn record_failure(&mut self, t: &LoadTracker, load_total: f64) {
        if !t.holistic_only() {
            return;
        }
        if self.epoch != t.epoch() {
            self.epoch = t.epoch();
            self.min_failed = f64::INFINITY;
        }
        self.min_failed = self.min_failed.min(load_total);
    }
}

/// Greedy placement under the best-available parents. `before_try`
/// sees the tracker, the candidate's rank and the candidate before each
/// attach attempt — every failed attempt rolls back, so that is the
/// state before `d` each time.
fn try_place(
    t: &mut LoadTracker,
    heap: &mut AvailHeap,
    scratch: &mut Vec<NodeId>,
    d: &NodeDemand,
    memo: &mut PlaceMemo,
    mut before_try: impl FnMut(&LoadTracker, usize, NodeId),
) -> bool {
    let total = d.load.total();
    if memo.known_to_fail(t, total) {
        return false;
    }
    heap.top(t, PARENT_CANDIDATES, scratch);
    for (rank, &parent) in scratch.iter().enumerate() {
        before_try(t, rank, parent);
        if t.try_attach(d.node, d.load.clone(), d.budget, parent)
            .is_ok()
        {
            heap.refresh(t);
            return true;
        }
    }
    memo.record_failure(t, total);
    false
}

fn build_max_avb(seed: &Seed<'_>) -> BuildOutcome {
    max_avb_from(seed, seed.start())
}

/// MAX_AVB from `start`.
fn max_avb_from(seed: &Seed<'_>, start: Start) -> BuildOutcome {
    let Start {
        tracker: mut t,
        next,
        mut excluded,
        mut memo,
    } = start;
    let mut heap = AvailHeap::over(&t);
    let mut scratch = Vec::new();
    for d in seed.rest().skip(next) {
        if !try_place(&mut t, &mut heap, &mut scratch, d, &mut memo, |_, _, _| {}) {
            excluded.push(d.node);
        }
    }
    finish(&t, seed.request, excluded)
}

/// One congestion-relief attempt: relocate load away from the most
/// congested members so a pending node can fit. Returns `true` if any
/// relocation was applied.
fn relieve_congestion(t: &mut LoadTracker, heap: &mut AvailHeap, cfg: AdjustConfig) -> bool {
    let mut donors = members_by_avail(t);
    donors.reverse(); // most congested first
    for donor in donors.into_iter().take(4) {
        // Movable units under this donor.
        let movable: Vec<NodeId> = if cfg.branch_based {
            t.children(donor).to_vec()
        } else {
            // Single leaves within the donor's subtree.
            let mut leaves = Vec::new();
            let mut stack = t.children(donor).to_vec();
            while let Some(n) = stack.pop() {
                if t.children(n).is_empty() {
                    leaves.push(n);
                } else {
                    stack.extend(t.children(n).iter().copied());
                }
            }
            leaves
        };
        for unit in movable {
            let old_parent = t
                .parent(unit)
                .unwrap_or_else(|| unreachable!("movable unit has a parent"));
            let branch = t.detach_subtree(unit);
            heap.refresh(t);
            let in_branch: std::collections::BTreeSet<NodeId> =
                branch.nodes.iter().map(|(n, ..)| *n).collect();
            let targets: Vec<NodeId> = if cfg.subtree_only {
                // Restrict to the donor's remaining subtree (§5.1.2).
                let mut sub = vec![donor];
                let mut i = 0;
                while i < sub.len() {
                    sub.extend(t.children(sub[i]).iter().copied());
                    i += 1;
                }
                let sub: std::collections::HashSet<NodeId> = sub.into_iter().collect();
                let mut ranked = members_by_avail(t);
                ranked.retain(|n| sub.contains(n) && *n != old_parent);
                ranked
            } else {
                let mut ranked = members_by_avail(t);
                ranked.retain(|n| *n != old_parent);
                ranked
            };
            let mut carried = Some(branch);
            for target in targets
                .into_iter()
                .filter(|n| !in_branch.contains(n))
                .take(PARENT_CANDIDATES)
            {
                match t.try_attach_branch(
                    carried
                        .take()
                        .unwrap_or_else(|| unreachable!("branch in hand")),
                    target,
                ) {
                    Ok(()) => {
                        heap.refresh(t);
                        break;
                    }
                    Err((back, _)) => carried = Some(back),
                }
            }
            match carried {
                None => return true,
                Some(back) => {
                    t.try_attach_branch(back, old_parent).unwrap_or_else(|_| {
                        unreachable!("restoring a just-detached branch cannot fail")
                    });
                    heap.refresh(t);
                }
            }
        }
    }
    false
}

/// The volume of the complete STAR or CHAIN over `seed` — every node
/// included — in closed form, together with the rounding margin within
/// which a tracker-built tree's volume may differ from it. `None` when
/// no such bound holds (funnels reshape the payloads; a node without
/// pairs could be dropped for free).
///
/// A chain's k-th node sends the loads from k to the tail; a star's
/// root sends everything and each leaf its own load. The tracker
/// reaches the same sums by incremental delta propagation, one update
/// per ancestor per attach, so the two agree up to accumulated
/// rounding: n attaches, each leaving up to ε of the total load between
/// every node's sum and its child's, compounding along at most n
/// levels — n²·ε of the volume. `4(n+2)²·ε` covers that, the id-order
/// volume sum and this function's own additions with room to spare.
/// (Loads that are integers — the planner's, unless frequency weighting
/// is on — make every one of those sums exact.)
fn complete_volume(seed: &Seed<'_>, chain: bool) -> Option<(f64, f64)> {
    if !seed.request.funnels.is_empty() {
        return None;
    }
    let cost = seed.request.cost;
    let mut volume = 0.0;
    let mut carried = 0.0;
    // From the tail towards the root, which sends everything.
    for (d, relays) in seed
        .rest()
        .rev()
        .map(|d| (d, chain))
        .chain([(seed.root(), true)])
    {
        let load = d.load.holistic;
        if d.pairs == 0 || load.is_nan() || load < 0.0 {
            return None;
        }
        carried += load;
        volume += cost.message_cost(if relays { carried } else { load });
    }
    let n = seed.order.len() as f64 + 2.0;
    Some((volume, volume * 4.0 * n * n * f64::EPSILON))
}

/// Whether `cand` displaces `best`: more pairs, then lower volume.
fn better(cand: &BuildOutcome, best: &BuildOutcome) -> bool {
    cand.collected_pairs > best.collected_pairs
        || (cand.collected_pairs == best.collected_pairs
            && cand.message_volume < best.message_volume - 1e-9)
}

/// Pruning rule (b): a STAR or CHAIN challenger cannot displace an
/// incumbent that collects every demanded pair unless it is complete
/// too (else it loses on pairs) and cheaper (else it loses on volume).
/// A complete challenger's volume is known without building it.
fn cannot_win(seed: &Seed<'_>, chain: bool, best: &BuildOutcome) -> bool {
    best.collected_pairs == best.demanded_pairs
        && complete_volume(seed, chain)
            .is_some_and(|(volume, margin)| volume - margin >= best.message_volume - 1e-9)
}

/// What the adjusted pass hands the fold.
struct Adjusted {
    outcome: BuildOutcome,
    /// Relief sweeps run.
    sweeps: u64,
    /// Where CHAIN stopped making the pass's placements, with its tail
    /// there; `None` when it made all of them.
    chain: Option<(Start, NodeId)>,
    /// Where MAX_AVB stopped making the pass's placements (just before
    /// the first relief sweep); `None` when it made all of them.
    max_avb: Option<Start>,
}

/// The adjusting procedure's own pass: greedy placement with
/// congestion relief. It shadows CHAIN and MAX_AVB on the way: while a
/// scheme would have made the same placements from the same seed, the
/// pass's state *is* that scheme's state, and at the first placement
/// where it would act differently the pass hands over a copy of that
/// state for the scheme to continue from. DESIGN.md, "Tree kernel",
/// has the argument.
fn adjusted_pass(seed: &Seed<'_>, cfg: AdjustConfig) -> Adjusted {
    let mut t = seed.tracker.clone();
    let mut heap = AvailHeap::over(&t);
    let mut scratch = Vec::new();
    let mut excluded = Vec::new();
    let mut sweeps = 0;
    // Congestion-relief moves are budgeted: each one is cheap, but an
    // adversarial workload could otherwise trigger quadratically many.
    let mut moves_left = 2 * seed.request.demand.len();
    // A sweep that finds no applicable relocation has detached and
    // restored every unit it tried. That puts membership, the parent
    // relation and every node's accounting back where they were (a
    // restored branch is re-attached node by node, which can move a
    // last bit when loads are fractional) — but *not* slot numbering or
    // children order: a restored unit takes whatever slots are free and
    // now sits last among its siblings. Whether some (unit, target)
    // pair is feasible depends on the former only, so re-running the
    // sweep for the next unplaced node would re-scan the same donors to
    // the same answer. Skip it until some placement actually mutates
    // the tree again — on a saturated instance this turns thousands of
    // futile full-tree sweeps into one.
    let mut relief_futile = false;
    let mut memo = PlaceMemo::new();
    // CHAIN's tail while CHAIN is in step. In step it has placed every
    // node so far, so its own memo has recorded nothing.
    let mut tail = Some(seed.root().node);
    let mut chain = None;
    let mut max_avb = None;
    for (i, d) in seed.rest().enumerate() {
        // CHAIN's state before `d`, copied before the first attempt
        // CHAIN would not make: a first candidate other than the tail,
        // or any second candidate.
        let mut fork = None;
        let mut placed = try_place(
            &mut t,
            &mut heap,
            &mut scratch,
            d,
            &mut memo,
            |t, rank, parent| {
                if fork.is_none() && tail.is_some_and(|tail| rank > 0 || parent != tail) {
                    fork = Some(t.clone());
                }
            },
        );
        if let Some(at) = tail {
            if placed && fork.is_none() {
                // Attached at the tail on the first try: CHAIN's move.
                tail = Some(d.node);
            } else {
                let start = Start {
                    tracker: fork.unwrap_or_else(|| t.clone()),
                    next: i,
                    excluded: excluded.clone(),
                    memo: PlaceMemo::new(),
                };
                chain = Some((start, at));
                tail = None;
            }
        }
        while !placed && moves_left > 0 && !relief_futile {
            if sweeps == 0 {
                // MAX_AVB has made every placement so far, this failed
                // one included; it excludes `d` and moves on.
                let mut excluded = excluded.clone();
                excluded.push(d.node);
                max_avb = Some(Start {
                    tracker: t.clone(),
                    next: i + 1,
                    excluded,
                    memo,
                });
            }
            moves_left -= 1;
            sweeps += 1;
            if !relieve_congestion(&mut t, &mut heap, cfg) {
                relief_futile = true;
                break;
            }
            placed = try_place(&mut t, &mut heap, &mut scratch, d, &mut memo, |_, _, _| {});
        }
        if placed {
            relief_futile = false;
        } else {
            excluded.push(d.node);
        }
    }
    Adjusted {
        outcome: finish(&t, seed.request, excluded),
        sweeps,
        chain,
        max_avb,
    }
}

/// How the fold disposed of one challenger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Proved equal to the adjusted outcome, or unable to win.
    Skipped,
    /// Built from the seed.
    Built,
    /// Continued from where the adjusted pass forked it.
    Forked,
}

/// The adjusting procedure is seeded against the simple schemes and
/// keeps the best outcome (more pairs, then lower volume) — the
/// dominance the paper reports in Fig. 7 holds by construction. The
/// fold runs adjusted → STAR → CHAIN → MAX_AVB, finishing only the
/// challengers that could displace the incumbent they meet:
///
/// - a challenger the adjusted pass kept in step to the end has the
///   adjusted outcome, which the incumbent either is or has strictly
///   beaten, so it cannot win;
/// - STAR and CHAIN cannot win when [`cannot_win`] says so;
/// - STAR is built from the seed, CHAIN and MAX_AVB continue from the
///   adjusted pass's forks.
fn build_adaptive(seed: &Seed<'_>, cfg: AdjustConfig) -> BuildOutcome {
    let Adjusted {
        outcome: mut best,
        sweeps,
        chain,
        max_avb,
    } = adjusted_pass(seed, cfg);
    let mut fates = [Fate::Skipped; 3];
    let consider = |best: &mut BuildOutcome, cand: BuildOutcome| {
        if better(&cand, best) {
            *best = cand;
        }
    };
    if !cannot_win(seed, false, &best) {
        fates[0] = Fate::Built;
        consider(&mut best, build_star(seed));
    }
    if let Some((start, tail)) = chain.filter(|_| !cannot_win(seed, true, &best)) {
        fates[1] = Fate::Forked;
        consider(&mut best, chain_from(seed, start, tail));
    }
    if let Some(start) = max_avb {
        fates[2] = Fate::Forked;
        consider(&mut best, max_avb_from(seed, start));
    }
    if remo_obs::enabled() {
        record_build(&fates, sweeps);
    }
    best
}

/// Exports what one adaptive build did: which challengers it built,
/// continued from a fork or skipped, and how many relief sweeps its
/// adjusted pass ran.
fn record_build(fates: &[Fate; 3], sweeps: u64) {
    type Handles = [[Option<remo_obs::Counter>; 3]; 3];
    static HANDLES: std::sync::OnceLock<(Handles, remo_obs::Counter)> = std::sync::OnceLock::new();
    let (challengers, relief) = HANDLES.get_or_init(|| {
        (
            ["star", "chain", "max_avb"].map(|scheme| {
                [Fate::Skipped, Fate::Built, Fate::Forked].map(|fate| {
                    let what = match fate {
                        Fate::Skipped => "skipped",
                        Fate::Built => "built",
                        // STAR is never forked.
                        Fate::Forked if scheme == "star" => return None,
                        Fate::Forked => "forked",
                    };
                    Some(remo_obs::counter(&format!(
                        "remo_build_challengers_{what}_{scheme}_total"
                    )))
                })
            }),
            remo_obs::counter("remo_build_relief_sweeps_total"),
        )
    });
    for (handles, &fate) in challengers.iter().zip(fates) {
        if let Some(counter) = &handles[fate as usize] {
            counter.inc();
        }
    }
    relief.inc_by(sweeps as f64);
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::ids::AttrId;

    fn uniform_request(n: u32, budget: f64, collector: f64, c: f64) -> BuildRequest {
        BuildRequest {
            attrs: [AttrId(0)].into_iter().collect(),
            demand: (0..n)
                .map(|i| NodeDemand {
                    node: NodeId(i),
                    load: LocalLoad::holistic(2.0),
                    budget,
                    pairs: 2,
                })
                .collect(),
            collector_budget: collector,
            cost: CostModel::new(c, 1.0).unwrap(),
            funnels: Vec::new(),
        }
    }

    const ALL: [BuilderKind; 4] = [
        BuilderKind::Star,
        BuilderKind::Chain,
        BuilderKind::MaxAvb,
        BuilderKind::Adaptive(AdjustConfig {
            branch_based: true,
            subtree_only: true,
        }),
    ];

    #[test]
    fn ample_budget_includes_everyone() {
        let req = uniform_request(10, 1_000.0, 1_000.0, 2.0);
        for kind in ALL {
            let out = build_tree(kind, &req);
            let tree = out.tree.expect("tree built");
            assert_eq!(tree.len(), 10, "{kind:?}");
            assert!(out.excluded.is_empty());
            assert_eq!(out.collected_pairs, 20);
            assert_eq!(out.demanded_pairs, 20);
            assert!(tree.is_valid());
        }
    }

    #[test]
    fn star_is_flat_chain_is_deep() {
        let req = uniform_request(8, 1_000.0, 1_000.0, 2.0);
        let star = build_tree(BuilderKind::Star, &req).tree.unwrap();
        let chain = build_tree(BuilderKind::Chain, &req).tree.unwrap();
        assert_eq!(star.height(), 1);
        assert_eq!(chain.height(), 7);
    }

    #[test]
    fn budgets_bind_and_exclusions_account() {
        let req = uniform_request(12, 9.0, 500.0, 2.0);
        for kind in ALL {
            let out = build_tree(kind, &req);
            for (&n, &u) in &out.usage {
                assert!(u <= 9.0 + 1e-6, "{kind:?}: {n} over budget ({u})");
            }
            let included = out.tree.as_ref().map_or(0, Tree::len);
            assert_eq!(included + out.excluded.len(), 12, "{kind:?}");
            assert_eq!(out.collected_pairs, included * 2, "{kind:?}");
        }
    }

    #[test]
    fn adaptive_dominates_simple_schemes() {
        for (budget, c) in [(9.0, 2.0), (14.0, 6.0), (30.0, 1.0)] {
            let req = uniform_request(20, budget, 1e9, c);
            let adaptive = build_tree(BuilderKind::default(), &req).collected_pairs;
            for kind in [BuilderKind::Star, BuilderKind::Chain, BuilderKind::MaxAvb] {
                let other = build_tree(kind, &req).collected_pairs;
                assert!(
                    adaptive >= other,
                    "{kind:?} collected {other} > adaptive {adaptive} (budget {budget}, c {c})"
                );
            }
        }
    }

    #[test]
    fn collector_budget_limits_root_payload() {
        // Collector can take C + a·x = 2 + x ≤ 8 → at most 6 values.
        let mut req = uniform_request(10, 1_000.0, 8.0, 2.0);
        req.demand.iter_mut().for_each(|d| {
            d.load = LocalLoad::holistic(1.0);
            d.pairs = 1;
        });
        for kind in ALL {
            let out = build_tree(kind, &req);
            assert!(out.collector_usage <= 8.0 + 1e-6, "{kind:?}");
            assert!(out.collected_pairs <= 6, "{kind:?}");
        }
    }

    #[test]
    fn infeasible_root_yields_empty_outcome() {
        let req = uniform_request(3, 1.0, 100.0, 5.0); // send cost 7 > 1
        for kind in ALL {
            let out = build_tree(kind, &req);
            assert!(out.tree.is_none(), "{kind:?}");
            assert_eq!(out.excluded.len(), 3);
            assert_eq!(out.collected_pairs, 0);
            assert_eq!(out.demanded_pairs, 6);
            assert_eq!(out.message_volume, 0.0);
        }
    }

    #[test]
    fn funnels_collapse_upstream_traffic() {
        // One SUM metric: every node contributes 1 value, but each
        // message carries at most 1 value upstream.
        let req = BuildRequest {
            attrs: [AttrId(0)].into_iter().collect(),
            demand: (0..10)
                .map(|i| NodeDemand {
                    node: NodeId(i),
                    load: LocalLoad {
                        holistic: 0.0,
                        funnel: vec![1.0],
                    },
                    budget: 7.0, // send (2+1) + one child recv (2+1) + margin
                    pairs: 1,
                })
                .collect(),
            collector_budget: 7.0,
            cost: CostModel::new(2.0, 1.0).unwrap(),
            funnels: vec![Aggregation::Sum],
        };
        let out = build_tree(BuilderKind::default(), &req);
        // A star would need the root to receive 9 messages (27 cost);
        // funnel-aware chains collect everything within budget 7.
        assert_eq!(out.collected_pairs, 10, "excluded: {:?}", out.excluded);
    }

    #[test]
    fn tracker_transactional_attach_rolls_back() {
        let cost = CostModel::new(2.0, 1.0).unwrap();
        let mut lt = LoadTracker::new(cost, Vec::new(), 1e9);
        lt.init_root(NodeId(0), LocalLoad::holistic(1.0), 100.0)
            .unwrap();
        // Budget 2.9 cannot even cover the leaf's send cost (2 + 1).
        let err = lt
            .try_attach(NodeId(1), LocalLoad::holistic(1.0), 2.9, NodeId(0))
            .unwrap_err();
        assert_eq!(err, AttachError::BudgetExceeded);
        assert_eq!(lt.len(), 1);
        assert!(lt.check_consistency());
        // Root usage unchanged: its own send only.
        assert!((lt.usage(NodeId(0)).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn tracker_branch_detach_reattach_roundtrip() {
        let cost = CostModel::new(1.0, 1.0).unwrap();
        let mut lt = LoadTracker::new(cost, Vec::new(), 1e9);
        lt.init_root(NodeId(0), LocalLoad::holistic(1.0), 1e9)
            .unwrap();
        for (n, p) in [(1u32, 0u32), (2, 1), (3, 1), (4, 0)] {
            lt.try_attach(NodeId(n), LocalLoad::holistic(1.0), 1e9, NodeId(p))
                .unwrap();
        }
        let before_root_out = lt.outgoing_values(NodeId(0)).unwrap();
        let branch = lt.detach_subtree(NodeId(1));
        assert_eq!(branch.len(), 3);
        assert_eq!(lt.len(), 2);
        assert!(lt.check_consistency());
        lt.try_attach_branch(branch, NodeId(4)).unwrap();
        assert_eq!(lt.len(), 5);
        assert!(lt.check_consistency());
        assert_eq!(lt.parent(NodeId(1)), Some(NodeId(4)));
        assert_eq!(
            lt.parent(NodeId(2)),
            Some(NodeId(1)),
            "branch structure kept"
        );
        assert!((lt.outgoing_values(NodeId(0)).unwrap() - before_root_out).abs() < 1e-9);
    }

    type Scheme = fn(&Seed<'_>) -> BuildOutcome;

    /// The three simple schemes built from the seed, in fold order.
    const CHALLENGERS: [(&str, Scheme); 3] = [
        ("star", build_star),
        ("chain", build_chain),
        ("max_avb", build_max_avb),
    ];

    /// The unpruned four-way fold: every challenger is built from the
    /// seed. Returns the outcome and who produced it (0 = the adjusted
    /// pass).
    fn build_adaptive_unpruned(seed: &Seed<'_>, cfg: AdjustConfig) -> (BuildOutcome, usize) {
        let adjusted = adjusted_pass(seed, cfg).outcome;
        CHALLENGERS
            .iter()
            .enumerate()
            .fold((adjusted, 0), |(best, who), (which, (_, build))| {
                let cand = build(seed);
                if better(&cand, &best) {
                    (cand, which + 1)
                } else {
                    (best, who)
                }
            })
    }

    /// Bit-for-bit equality of two outcomes.
    fn same(a: &BuildOutcome, b: &BuildOutcome) -> bool {
        let bits = |o: &BuildOutcome| -> Vec<(NodeId, u64)> {
            o.usage.iter().map(|(&n, u)| (n, u.to_bits())).collect()
        };
        a.tree == b.tree
            && bits(a) == bits(b)
            && a.collector_usage.to_bits() == b.collector_usage.to_bits()
            && a.message_volume.to_bits() == b.message_volume.to_bits()
            && (a.collected_pairs, a.demanded_pairs) == (b.collected_pairs, b.demanded_pairs)
            && a.excluded == b.excluded
    }

    /// Checks one request: the pruned fold returns the unpruned fold's
    /// outcome; a challenger the adjusted pass kept in step to the end
    /// has the adjusted outcome, and a forked one continues to its
    /// from-scratch outcome; whenever a challenger is skipped, building
    /// it anyway shows it would not have displaced the incumbent.
    /// Returns the adjusted pass, for the caller to look at its forks.
    fn assert_pruning_is_exact(req: &BuildRequest, cfg: AdjustConfig) -> Option<Adjusted> {
        let seed = Seed::new(req)?;
        let (reference, _) = build_adaptive_unpruned(&seed, cfg);
        assert!(same(&build_adaptive(&seed, cfg), &reference), "{req:?}");
        let pass = adjusted_pass(&seed, cfg);
        let [star, chain, max_avb] = CHALLENGERS.map(|(_, build)| build(&seed));
        let continued = match &pass.chain {
            None => pass.outcome.clone(),
            Some((start, tail)) => chain_from(&seed, start.clone(), *tail),
        };
        assert!(same(&continued, &chain), "chain: {req:?}");
        let continued = match &pass.max_avb {
            None => pass.outcome.clone(),
            Some(start) => max_avb_from(&seed, start.clone()),
        };
        assert!(same(&continued, &max_avb), "max_avb: {req:?}");
        assert_eq!(pass.max_avb.is_none(), pass.sweeps == 0, "{req:?}");
        let mut best = pass.outcome.clone();
        for (which, cand) in [star, chain, max_avb].into_iter().enumerate() {
            let skipped = match which {
                0 => cannot_win(&seed, false, &best),
                1 => pass.chain.is_none() || cannot_win(&seed, true, &best),
                _ => pass.max_avb.is_none(),
            };
            if skipped {
                let name = CHALLENGERS[which].0;
                assert!(!better(&cand, &best), "{name} skipped but wins: {req:?}");
            }
            if better(&cand, &best) {
                best = cand;
            }
        }
        Some(pass)
    }

    fn request_of(
        c: f64,
        collector: f64,
        funnels: Vec<Aggregation>,
        demand: &[(f64, f64)],
    ) -> BuildRequest {
        BuildRequest {
            attrs: [AttrId(0)].into_iter().collect(),
            demand: demand
                .iter()
                .enumerate()
                .map(|(i, &(holistic, budget))| {
                    let load = LocalLoad {
                        holistic,
                        funnel: vec![1.0; funnels.len()],
                    };
                    NodeDemand {
                        node: NodeId(i as u32),
                        pairs: load.total().ceil() as usize,
                        load,
                        budget,
                    }
                })
                .collect(),
            collector_budget: collector,
            cost: CostModel::new(c, 1.0).unwrap(),
            funnels,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        #[test]
        fn pruning_never_changes_the_winner(
            demand in proptest::prop::collection::vec((0u32..9, 2.0f64..90.0), 1..48),
            ratio in 0usize..4,
            shape in 0u8..6,
            collector in 6.0f64..160.0,
            flags in 0u8..4,
        ) {
            // Shapes: integer loads, fractional (frequency-weighted)
            // loads, a SUM funnel beside them; each with an ample or a
            // binding collector. Zero loads make pair-less nodes.
            let scale = if shape % 3 == 1 { 0.25 } else { 1.0 };
            let funnels = if shape % 3 == 2 { vec![Aggregation::Sum] } else { Vec::new() };
            let demand: Vec<(f64, f64)> =
                demand.iter().map(|&(l, b)| (f64::from(l) * scale, b)).collect();
            let req = request_of(
                [0.5, 2.0, 6.0, 20.0][ratio],
                if shape < 3 { 1e9 } else { collector },
                funnels,
                &demand,
            );
            let cfg = AdjustConfig { branch_based: flags & 1 != 0, subtree_only: flags & 2 != 0 };
            assert_pruning_is_exact(&req, cfg);
        }

        #[test]
        fn heap_ranks_members_like_a_full_sort(
            ops in proptest::prop::collection::vec((0u8..4, 0u32..24, 0u32..24, 1u32..6, 0usize..10), 1..80),
            c in 0.0f64..8.0,
        ) {
            let mut t = LoadTracker::new(CostModel::new(c, 1.0).unwrap(), Vec::new(), 1e9);
            t.init_root(NodeId(0), LocalLoad::holistic(1.0), 400.0).unwrap();
            let mut heap = AvailHeap::over(&t);
            let mut out = Vec::new();
            for (op, a, b, load, k) in ops {
                let pick = |t: &LoadTracker, x: u32| {
                    let members: Vec<NodeId> = t.nodes().collect();
                    members[x as usize % members.len()]
                };
                match op {
                    // A new leaf, on budgets from too tight for its own
                    // message to roomy.
                    0 => {
                        let load = LocalLoad::holistic(f64::from(load));
                        let _ = t.try_attach(NodeId(1 + a), load, f64::from(b) * 10.0, pick(&t, b));
                    }
                    // A leaf its ancestors cannot afford.
                    1 => {
                        let load = LocalLoad::holistic(1e6);
                        let _ = t.try_attach(NodeId(100 + a), load, 1e9, pick(&t, b));
                    }
                    // Detach a branch; leave it out, or move it under
                    // another member (back where it was if that fails).
                    _ => {
                        let node = pick(&t, a);
                        if let Some(old) = t.parent(node) {
                            let branch = t.detach_subtree(node);
                            heap.refresh(&mut t);
                            if op == 3 {
                                if let Err((back, _)) = t.try_attach_branch(branch, pick(&t, b)) {
                                    t.try_attach_branch(back, old).unwrap();
                                }
                            }
                        }
                    }
                }
                heap.refresh(&mut t);
                heap.top(&t, k, &mut out);
                let ranked = members_by_avail(&t);
                assert_eq!(&out[..], &ranked[..k.min(ranked.len())]);
            }
        }
    }

    #[test]
    fn challengers_that_win_are_still_built() {
        // MAX_AVB wins: relief relocations cost the adjusted pass volume.
        let max_avb = request_of(
            6.0,
            1e9,
            Vec::new(),
            &[
                (3.0, 37.0),
                (3.0, 22.0),
                (1.0, 50.0),
                (1.0, 19.0),
                (3.0, 56.0),
                (1.0, 6.0),
                (1.0, 48.0),
            ],
        );
        // CHAIN wins: under a SUM funnel every relay forwards one value.
        let chain = request_of(
            6.0,
            70.0,
            vec![Aggregation::Sum],
            &[
                (2.0, 37.0),
                (0.0, 50.0),
                (1.0, 5.0),
                (0.0, 49.0),
                (0.0, 22.0),
                (1.0, 48.0),
                (0.0, 23.0),
                (0.0, 42.0),
            ],
        );
        // STAR wins: the collector caps the payload, so every scheme
        // collects the same pairs and the flattest tree is cheapest.
        let star = request_of(
            2.0,
            12.0,
            Vec::new(),
            &[
                (1.0, 40.0),
                (1.0, 30.0),
                (1.0, 20.0),
                (1.0, 12.0),
                (1.0, 10.0),
            ],
        );
        for (req, winner) in [(&star, 1), (&chain, 2), (&max_avb, 3)] {
            let seed = Seed::new(req).unwrap();
            let cfg = AdjustConfig::default();
            let (reference, who) = build_adaptive_unpruned(&seed, cfg);
            assert_eq!(who, winner, "{} should win", CHALLENGERS[winner - 1].0);
            assert!(same(&build_adaptive(&seed, cfg), &reference));
            assert_pruning_is_exact(req, cfg);
        }
    }

    #[test]
    fn volumes_inside_the_rounding_margin_are_settled_by_building() {
        // Equal budgets and C = 10 make the greedy pass build the chain
        // 0 ← 1 ← 2, which relays node 2's load once more than a star
        // would: the star's volume is lower by exactly that load. Put
        // the load a hair under the fold's 1e-9 volume tolerance. The
        // star then cannot win (it is not 1e-9 cheaper), but its closed
        // form lands within the rounding margin of winning, so the rule
        // must decline to decide and leave it to the build.
        let hair = 1e-9 - 3e-13;
        let req = request_of(
            10.0,
            1e9,
            Vec::new(),
            &[(1.0, 100.0), (1.0, 100.0), (hair, 100.0)],
        );
        let seed = Seed::new(&req).unwrap();
        let pass = adjusted_pass(&seed, AdjustConfig::default());
        let adjusted = &pass.outcome;
        assert_eq!(adjusted.tree.as_ref().map(Tree::height), Some(2));
        let (star, margin) = complete_volume(&seed, false).unwrap();
        let gap = adjusted.message_volume - star;
        assert!(
            gap < 1e-9 && gap + margin > 1e-9,
            "gap {gap}, margin {margin}"
        );
        assert!(!cannot_win(&seed, false, adjusted), "inside the margin");
        assert!(
            cannot_win(&seed, true, adjusted),
            "a chain equals the incumbent"
        );
        assert!(pass.chain.is_none(), "CHAIN made every placement");
        assert!(pass.max_avb.is_none(), "no relief ran");
        assert_pruning_is_exact(&req, AdjustConfig::default());
        // Clear of the margin on either side, the rule decides.
        for (load, skipped) in [(1e-9 - 1e-11, true), (1e-9 + 1e-11, false)] {
            let req = request_of(
                10.0,
                1e9,
                Vec::new(),
                &[(1.0, 100.0), (1.0, 100.0), (load, 100.0)],
            );
            let seed = Seed::new(&req).unwrap();
            let adjusted = adjusted_pass(&seed, AdjustConfig::default()).outcome;
            assert_eq!(cannot_win(&seed, false, &adjusted), skipped);
            assert_pruning_is_exact(&req, AdjustConfig::default());
        }
    }

    /// Unit loads at C/a = 20 under one budget that fits a relay chain
    /// of `depth` nodes — `plan-saturated`'s trees, in small. (A chain
    /// of k nodes charges its root 2C − a + 2ak.)
    fn saturated_chain(n: usize, depth: u32) -> BuildRequest {
        let budget = 40.0 + 2.0 * f64::from(depth);
        request_of(20.0, 1e9, Vec::new(), &vec![(1.0, budget); n])
    }

    #[test]
    fn saturated_chain_forks_before_the_sweep_and_ends_where_the_pass_does() {
        let req = saturated_chain(40, 10);
        let seed = Seed::new(&req).unwrap();
        let pass = assert_pruning_is_exact(&req, AdjustConfig::default()).unwrap();
        assert_eq!(pass.outcome.tree.as_ref().map(Tree::height), Some(9));
        assert_eq!(pass.sweeps, 1, "one futile sweep, then the memo");
        // Both forks are taken at the first node that does not fit:
        // CHAIN before trying it, MAX_AVB after.
        let (chain, tail) = pass.chain.as_ref().unwrap();
        assert_eq!((chain.next, chain.tracker.len()), (9, 10));
        assert_eq!(members_by_avail(&chain.tracker)[0], *tail);
        let max_avb = pass.max_avb.as_ref().unwrap();
        assert_eq!((max_avb.next, max_avb.excluded.len()), (10, 1));
        // A futile sweep on a chain puts it back exactly, so all three
        // schemes end in the adjusted pass's tree.
        assert!(same(&build_chain(&seed), &pass.outcome));
        assert!(same(&build_max_avb(&seed), &pass.outcome));
    }

    #[test]
    fn bushy_request_forks_chain_at_its_first_choice_of_parent() {
        // A roomy root: the pass hangs everyone off it, CHAIN relays.
        let mut demand = vec![(1.0, 1000.0)];
        demand.extend([(1.0, 10.0); 7]);
        let req = request_of(2.0, 1e9, Vec::new(), &demand);
        let pass = assert_pruning_is_exact(&req, AdjustConfig::default()).unwrap();
        assert_eq!(pass.outcome.tree.as_ref().map(Tree::height), Some(1));
        // The first placement has one candidate, the root, which is
        // CHAIN's tail too; at the second the root outranks the tail.
        let (chain, tail) = pass.chain.as_ref().unwrap();
        assert_eq!((chain.next, chain.tracker.len(), *tail), (1, 2, NodeId(1)));
        assert!(chain.excluded.is_empty());
        assert!(pass.max_avb.is_none(), "no relief ran");
    }

    #[test]
    fn a_node_the_tail_refuses_forks_chain_before_it() {
        // The pass relays its first six nodes as a chain; the tail — the
        // best-ranked member — refuses the seventh, and a relief move
        // (whole branches, anywhere in the tree) makes room for it.
        // CHAIN, forked before that node, leaves it out.
        let req = request_of(
            6.0,
            1e9,
            Vec::new(),
            &[
                (1.0, 41.0),
                (3.0, 32.0),
                (2.0, 27.0),
                (3.0, 14.0),
                (1.0, 27.0),
                (1.0, 34.0),
                (2.0, 20.0),
                (3.0, 33.0),
                (3.0, 16.0),
            ],
        );
        let cfg = AdjustConfig {
            branch_based: true,
            subtree_only: false,
        };
        let seed = Seed::new(&req).unwrap();
        let pass = assert_pruning_is_exact(&req, cfg).unwrap();
        let (chain, tail) = pass.chain.as_ref().unwrap();
        assert_eq!((chain.next, chain.tracker.len()), (5, 6));
        assert_eq!(members_by_avail(&chain.tracker)[0], *tail);
        let refused = seed.rest().nth(chain.next).unwrap().node;
        assert!(pass.sweeps > 0);
        assert!(pass.outcome.tree.as_ref().unwrap().contains(refused));
        assert!(build_chain(&seed).excluded.contains(&refused));
    }

    #[test]
    fn forks_are_exact_under_fractional_loads_and_a_sum_funnel() {
        for (scale, funnels) in [(0.25, vec![]), (1.0, vec![Aggregation::Sum])] {
            let mut forked = [false; 2];
            for n in [12u32, 24, 40] {
                for budget in [30.0, 45.0, 60.0, 90.0] {
                    let demand: Vec<(f64, f64)> = (0..n)
                        .map(|i| (f64::from(1 + i % 3) * scale, budget + f64::from(i * 7 % 11)))
                        .collect();
                    let req = request_of(6.0, 1e9, funnels.clone(), &demand);
                    for cfg in [AdjustConfig::default(), AdjustConfig::basic()] {
                        let pass = assert_pruning_is_exact(&req, cfg).unwrap();
                        forked[0] |= pass.chain.is_some_and(|(start, _)| start.next > 1);
                        forked[1] |= pass.max_avb.is_some();
                    }
                }
            }
            assert_eq!(forked, [true; 2], "scale {scale}, funnels {funnels:?}");
        }
    }

    #[test]
    fn serde_roundtrip_builder_kind() {
        for kind in ALL {
            let v = serde::Serialize::serialize(&kind);
            let back: BuilderKind = serde::Deserialize::deserialize(&v).unwrap();
            assert_eq!(back, kind);
        }
    }
}
