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
//! funnels), usage, and budget feasibility. A builder knows its nodes
//! before the first attach, so the tracker gives each one a fixed slot
//! — its rank in id order — in one flat array and every operation is an
//! array access. Usage is cached per node — send cost plus a running
//! receive sum — so a budget check is O(1) and an attach costs O(path
//! length). Mutations journal every touched slot and restore the exact
//! prior floats on rollback, preserving the transactional semantics.
//!
//! A build does only work that can change its answer: the adaptive
//! scheme builds a simple-scheme challenger only when it could displace
//! the incumbent (`provably_loses`), and a relief sweep selects its few
//! donors and targets instead of sorting the membership. DESIGN.md,
//! "Tree kernel", has the exactness arguments; `tests/golden_build.rs`
//! pins the outcomes to the bit.

use crate::cost::{Aggregation, CostModel};
use crate::ids::NodeId;
use crate::partition::AttrSet;
use crate::tree::Tree;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Slack tolerated in floating-point budget comparisons.
const EPS: f64 = 1e-9;

/// How many candidate parents a greedy placement tries before giving
/// up (or, for ADAPTIVE, before invoking the adjusting procedure).
const PARENT_CANDIDATES: usize = 8;

/// How many of the most congested members one relief sweep tries to
/// unload.
const RELIEF_DONORS: usize = 4;

/// "No slot": the parent of a root, of a branch root, of a non-member.
const NONE: u32 = u32::MAX;

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
        total(self.holistic, &self.funnel)
    }
}

/// Values in a load vector: the holistic scalar plus the funnel row.
/// Every total in this module goes through this one expression so that
/// a tracker, a detached branch and a request agree to the bit.
#[inline]
fn total(holistic: f64, funnel: &[f64]) -> f64 {
    holistic + funnel.iter().sum::<f64>()
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

/// One node of a detached [`Branch`].
#[derive(Debug, Clone)]
struct BranchNode {
    slot: u32,
    node: NodeId,
    /// Index of the parent within the branch (`NONE` for its root).
    parent: u32,
    /// Its children are the branch nodes `kids.0 .. kids.0 + kids.1`,
    /// in the order the tracker listed them.
    kids: (u32, u32),
    budget: f64,
    local: f64,
    incoming: f64,
    outgoing: f64,
    send: f64,
    recv: f64,
}

/// A detached subtree: structure, loads, and budgets, ready for
/// reattachment elsewhere in the tracker it was detached from.
///
/// The branch carries its own accounting, re-summed from its members'
/// local loads in children order when it was detached. That accounting
/// does not depend on where the branch lands, so a reattachment attempt
/// only has to test the target's root-ward path against the branch
/// root's message; the branch itself is written back only once that
/// path has accepted it.
#[derive(Debug, Clone)]
pub struct Branch {
    /// Breadth-first: every node after its parent, siblings adjacent
    /// and in the tracker's children order. `nodes[0]` is the root.
    nodes: Vec<BranchNode>,
    /// Funnel rows (`nodes.len() × funnels`; empty without funnels).
    local_fun: Vec<f64>,
    incoming_fun: Vec<f64>,
    outgoing_fun: Vec<f64>,
    /// Some branch node's own usage exceeds its budget.
    over_budget: bool,
}

impl Branch {
    /// The branch's root node.
    pub fn root(&self) -> NodeId {
        self.nodes[0].node
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

/// Per-node state of the tracker, one cache line per slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    node: NodeId,
    member: bool,
    /// Parent slot (`NONE` for the root and for non-members).
    parent: u32,
    budget: f64,
    /// Holistic values produced locally, entering (local plus the
    /// children's outgoing) and leaving the node.
    local: f64,
    incoming: f64,
    outgoing: f64,
    /// Cost of the node's own message / of receiving its children's.
    send: f64,
    recv: f64,
}

/// Rollback record: the exact float state of one slot before an
/// operation first touched it. Restoring entries in reverse order
/// reproduces the pre-operation state bit-for-bit. The funnel rows of
/// entry `k` are `journal_fun[2·F·k ..]`: incoming, then outgoing.
#[derive(Debug, Clone, Copy)]
struct Saved {
    slot: u32,
    incoming: f64,
    outgoing: f64,
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
/// A node keeps one slot for the life of the tracker, a member or not.
/// The builders declare their node universe up front
/// (`with_universe`), which makes a slot the node's rank in id order
/// and every operation an array access; the `NodeId`-keyed public
/// methods find slots by binary search and register unknown nodes on
/// first attach. Holistic values live in the slot, funnel values in
/// row-major side tables that stay empty without funnels. `usage =
/// send + recv` is O(1) and a mutation only walks the root-ward path,
/// stopping early once nothing changes.
#[derive(Debug, Clone)]
pub struct LoadTracker {
    cost: CostModel,
    funnels: Vec<Aggregation>,
    collector_budget: f64,
    root: u32,
    members: usize,
    slots: Vec<Slot>,
    /// Slots in ascending node-id order: id lookup and ordered walks.
    by_id: Vec<u32>,
    /// Children in attach order.
    children: Vec<Vec<u32>>,
    local_fun: Vec<f64>,
    incoming_fun: Vec<f64>,
    outgoing_fun: Vec<f64>,
    /// Slots whose availability changed in the last successful
    /// mutation (cleared at the start of each mutating call); the
    /// greedy builders use this to keep their parent ranking fresh.
    dirty: Vec<u32>,
    journal: Vec<Saved>,
    journal_fun: Vec<f64>,
    /// One funnel row of scratch for `bubble`.
    row: Vec<f64>,
    /// Bumped on every successful mutation. Failed operations roll
    /// back to the exact prior state and leave it unchanged, so equal
    /// epochs mean the tracker is bit-identical — the builders' failed-
    /// placement memo keys on this.
    epoch: u64,
}

impl LoadTracker {
    /// An empty tracker; nodes get their slots as they are attached.
    pub fn new(cost: CostModel, funnels: Vec<Aggregation>, collector_budget: f64) -> Self {
        let row = vec![0.0; funnels.len()];
        LoadTracker {
            cost,
            funnels,
            collector_budget,
            root: NONE,
            members: 0,
            slots: Vec::new(),
            by_id: Vec::new(),
            children: Vec::new(),
            local_fun: Vec::new(),
            incoming_fun: Vec::new(),
            outgoing_fun: Vec::new(),
            dirty: Vec::new(),
            journal: Vec::new(),
            journal_fun: Vec::new(),
            row,
            epoch: 0,
        }
    }

    /// An empty tracker over `nodes`, which must ascend strictly: the
    /// k-th node gets slot k, so slot order is id order.
    fn with_universe(request: &BuildRequest, nodes: &[NodeId]) -> Self {
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        let mut t = LoadTracker::new(
            request.cost,
            request.funnels.clone(),
            request.collector_budget,
        );
        t.slots = nodes.iter().map(|&n| Slot::vacant(n)).collect();
        t.by_id = (0..slot_id(nodes.len())).collect();
        t.children = vec![Vec::new(); nodes.len()];
        let cells = nodes.len() * t.funnels.len();
        t.local_fun = vec![0.0; cells];
        t.incoming_fun = vec![0.0; cells];
        t.outgoing_fun = vec![0.0; cells];
        t
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

    /// The slot of a *member* node.
    fn slot(&self, node: NodeId) -> Option<u32> {
        let k = self
            .by_id
            .binary_search_by_key(&node, |&s| self.slots[s as usize].node)
            .ok()?;
        let s = self.by_id[k];
        self.slots[s as usize].member.then_some(s)
    }

    /// The slot of `node`, allotting one if it has none yet.
    fn register(&mut self, node: NodeId) -> u32 {
        match self
            .by_id
            .binary_search_by_key(&node, |&s| self.slots[s as usize].node)
        {
            Ok(k) => self.by_id[k],
            Err(k) => {
                let s = slot_id(self.slots.len());
                self.slots.push(Slot::vacant(node));
                self.children.push(Vec::new());
                let cells = self.slots.len() * self.funnels.len();
                self.local_fun.resize(cells, 0.0);
                self.incoming_fun.resize(cells, 0.0);
                self.outgoing_fun.resize(cells, 0.0);
                self.by_id.insert(k, s);
                s
            }
        }
    }

    /// The funnel cells of `slot` within a `slots × funnels` table.
    #[inline]
    fn cells(&self, slot: u32) -> std::ops::Range<usize> {
        let f = self.funnels.len();
        slot as usize * f..(slot as usize + 1) * f
    }

    /// Writes `load` as `s`'s local, incoming and (funnelled) outgoing
    /// vector — the state of a childless node — and returns the send
    /// cost of that message. Funnel entries beyond the funnel table are
    /// dropped, missing ones read as zero.
    fn write_leaf(&mut self, s: u32, load: &LocalLoad) -> f64 {
        let cells = self.cells(s);
        for (k, cell) in cells.clone().enumerate() {
            let v = load.funnel.get(k).copied().unwrap_or(0.0);
            self.local_fun[cell] = v;
            self.incoming_fun[cell] = v;
            self.outgoing_fun[cell] = self.funnels[k].funnel(v);
        }
        let slot = &mut self.slots[s as usize];
        slot.local = load.holistic;
        slot.incoming = load.holistic;
        slot.outgoing = load.holistic;
        slot.recv = 0.0;
        slot.send = self
            .cost
            .message_cost(total(load.holistic, &self.outgoing_fun[cells]));
        slot.send
    }

    fn save(&mut self, s: u32) {
        let slot = &self.slots[s as usize];
        self.journal.push(Saved {
            slot: s,
            incoming: slot.incoming,
            outgoing: slot.outgoing,
            send: slot.send,
            recv: slot.recv,
        });
        if !self.funnels.is_empty() {
            let cells = self.cells(s);
            self.journal_fun
                .extend_from_slice(&self.incoming_fun[cells.clone()]);
            self.journal_fun
                .extend_from_slice(&self.outgoing_fun[cells]);
        }
    }

    /// Undoes everything journaled since the journal was last cleared.
    fn restore(&mut self) {
        let f = self.funnels.len();
        while let Some(saved) = self.journal.pop() {
            let slot = &mut self.slots[saved.slot as usize];
            slot.incoming = saved.incoming;
            slot.outgoing = saved.outgoing;
            slot.send = saved.send;
            slot.recv = saved.recv;
            if f > 0 {
                let cells = self.cells(saved.slot);
                let at = self.journal_fun.len() - 2 * f;
                self.incoming_fun[cells.clone()].copy_from_slice(&self.journal_fun[at..at + f]);
                self.outgoing_fun[cells].copy_from_slice(&self.journal_fun[at + f..]);
                self.journal_fun.truncate(at);
            }
        }
    }

    /// Adds a new child message (`holistic` plus the funnel row in
    /// `self.row`, costing `send`) to `p`'s incoming side, journaled.
    fn receive(&mut self, p: u32, holistic: f64, send: f64) {
        self.journal.clear();
        self.journal_fun.clear();
        self.save(p);
        let cells = self.cells(p);
        for (cell, v) in self.incoming_fun[cells].iter_mut().zip(&self.row) {
            *cell += *v;
        }
        let slot = &mut self.slots[p as usize];
        slot.incoming += holistic;
        slot.recv += send;
    }

    /// Re-derives `outgoing`/`send` from the (already updated)
    /// `incoming` of `start` and propagates the change root-ward.
    /// Stops as soon as a node's outgoing vector and send cost are
    /// unchanged (nothing above can differ then). With `check` set,
    /// journals every touched slot, verifies each one's budget on the
    /// way up and the collector constraint at the root, and returns the
    /// first violation (the caller rolls back).
    fn bubble(&mut self, start: u32, check: bool) -> Result<(), AttachError> {
        let mut n = start;
        loop {
            if check {
                self.save(n);
            }
            self.dirty.push(n);
            let cells = self.cells(n);
            for (k, cell) in cells.clone().enumerate() {
                self.row[k] = self.funnels[k].funnel(self.incoming_fun[cell]);
            }
            let slot = &mut self.slots[n as usize];
            let new_out = slot.incoming;
            let old_send = slot.send;
            slot.send = self.cost.message_cost(total(new_out, &self.row));
            let send = slot.send;
            if check && send + slot.recv > slot.budget + EPS {
                return Err(AttachError::BudgetExceeded);
            }
            let old_out = slot.outgoing;
            let out_changed =
                new_out != old_out || self.row[..] != self.outgoing_fun[cells.clone()];
            if !out_changed && send == old_send {
                return Ok(());
            }
            slot.outgoing = new_out;
            let p = slot.parent;
            if p == NONE {
                self.outgoing_fun[cells].copy_from_slice(&self.row);
                if check && send > self.collector_budget + EPS {
                    return Err(AttachError::CollectorExceeded);
                }
                return Ok(());
            }
            if check {
                self.save(p);
            }
            let up = self.cells(p);
            for ((cell, new), old) in self.incoming_fun[up]
                .iter_mut()
                .zip(&self.row)
                .zip(&self.outgoing_fun[cells.clone()])
            {
                *cell += *new - *old;
            }
            self.outgoing_fun[cells].copy_from_slice(&self.row);
            let parent = &mut self.slots[p as usize];
            parent.recv += send - old_send;
            parent.incoming += new_out - old_out;
            n = p;
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
        let s = self.register(node);
        self.init_root_at(s, &load, budget)
    }

    fn init_root_at(&mut self, s: u32, load: &LocalLoad, budget: f64) -> Result<(), AttachError> {
        if self.root != NONE {
            return Err(AttachError::DuplicateNode);
        }
        self.dirty.clear();
        let send = self.write_leaf(s, load);
        if send > budget + EPS {
            return Err(AttachError::BudgetExceeded);
        }
        if send > self.collector_budget + EPS {
            return Err(AttachError::CollectorExceeded);
        }
        let slot = &mut self.slots[s as usize];
        slot.member = true;
        slot.parent = NONE;
        slot.budget = budget;
        self.children[s as usize].clear();
        self.root = s;
        self.members += 1;
        self.dirty.push(s);
        self.epoch += 1;
        Ok(())
    }

    /// The root node, if any.
    pub fn root(&self) -> Option<NodeId> {
        (self.root != NONE).then(|| self.slots[self.root as usize].node)
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.members
    }

    /// Whether the tracker is empty.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Member slots in node-id order.
    fn member_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.by_id
            .iter()
            .copied()
            .filter(|&s| self.slots[s as usize].member)
    }

    /// All tracked nodes, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.member_slots().map(|s| self.slots[s as usize].node)
    }

    /// Whether `node` is tracked.
    pub fn contains(&self, node: NodeId) -> bool {
        self.slot(node).is_some()
    }

    /// The parent of `node` (`None` for the root or an absent node).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let p = self.slots[self.slot(node)? as usize].parent;
        (p != NONE).then(|| self.slots[p as usize].node)
    }

    /// The children of `node` in attach order (none for leaves or
    /// absent nodes).
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.slot(node)
            .into_iter()
            .flat_map(|s| &self.children[s as usize])
            .map(|&c| self.slots[c as usize].node)
    }

    /// Values leaving `node` per epoch (after funnels).
    pub fn outgoing_values(&self, node: NodeId) -> Option<f64> {
        let s = self.slot(node)?;
        Some(total(
            self.slots[s as usize].outgoing,
            &self.outgoing_fun[self.cells(s)],
        ))
    }

    /// Current usage of `node`: send cost of its message plus receive
    /// cost of each child's message. O(1) from the cached accounting.
    pub fn usage(&self, node: NodeId) -> Option<f64> {
        Some(self.usage_at(self.slot(node)?))
    }

    /// Remaining budget of `node`.
    pub fn available(&self, node: NodeId) -> Option<f64> {
        Some(self.available_at(self.slot(node)?))
    }

    #[inline]
    fn usage_at(&self, s: u32) -> f64 {
        let slot = &self.slots[s as usize];
        slot.send + slot.recv
    }

    #[inline]
    fn available_at(&self, s: u32) -> f64 {
        self.slots[s as usize].budget - self.usage_at(s)
    }

    /// Collector-side usage: receive cost of the root's message.
    pub fn collector_usage(&self) -> f64 {
        if self.root == NONE {
            0.0
        } else {
            self.slots[self.root as usize].send
        }
    }

    /// Σ send costs over all tracked nodes (summed in id order, so the
    /// result does not depend on insertion history).
    pub fn message_volume(&self) -> f64 {
        self.member_slots()
            .map(|s| self.slots[s as usize].send)
            .sum()
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
        if self.contains(node) {
            return Err(AttachError::DuplicateNode);
        }
        let Some(p) = self.slot(parent) else {
            return Err(AttachError::MissingParent);
        };
        let s = self.register(node);
        self.attach_at(s, &load, budget, p)
    }

    /// [`Self::try_attach`] on slots: `s` under the member `p`.
    fn attach_at(
        &mut self,
        s: u32,
        load: &LocalLoad,
        budget: f64,
        p: u32,
    ) -> Result<(), AttachError> {
        if self.slots[s as usize].member {
            return Err(AttachError::DuplicateNode);
        }
        self.dirty.clear();
        let send = self.write_leaf(s, load);
        if send > budget + EPS {
            return Err(AttachError::BudgetExceeded);
        }
        let slot = &mut self.slots[s as usize];
        slot.member = true;
        slot.parent = p;
        slot.budget = budget;
        let holistic = slot.outgoing;
        self.children[s as usize].clear();
        self.children[p as usize].push(s);
        let cells = self.cells(s);
        self.row.copy_from_slice(&self.outgoing_fun[cells]);
        self.receive(p, holistic, send);
        self.dirty.push(s);
        match self.bubble(p, true) {
            Ok(()) => {
                self.members += 1;
                self.epoch += 1;
                Ok(())
            }
            Err(e) => {
                self.restore();
                self.children[p as usize].pop();
                let slot = &mut self.slots[s as usize];
                slot.member = false;
                slot.parent = NONE;
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
        self.detach_at(s.unwrap_or_else(|| unreachable!("checked above")))
    }

    /// [`Self::detach_subtree`] on the member slot `s`.
    fn detach_at(&mut self, s: u32) -> Branch {
        self.dirty.clear();
        let f = self.funnels.len();
        let vacated = self.slots[s as usize];

        // Breadth-first walk; a node's children land adjacent, in
        // children order.
        let mut nodes = vec![BranchNode::of(&vacated, s, NONE)];
        let mut i = 0;
        while i < nodes.len() {
            let kids = &mut self.children[nodes[i].slot as usize];
            nodes[i].kids = (slot_id(nodes.len()), slot_id(kids.len()));
            let parent = slot_id(i);
            nodes.extend(
                kids.drain(..)
                    .map(|c| BranchNode::of(&self.slots[c as usize], c, parent)),
            );
            i += 1;
        }
        let mut branch = Branch {
            local_fun: Vec::with_capacity(nodes.len() * f),
            incoming_fun: vec![0.0; nodes.len() * f],
            outgoing_fun: vec![0.0; nodes.len() * f],
            over_budget: false,
            nodes,
        };
        for n in &branch.nodes {
            branch
                .local_fun
                .extend_from_slice(&self.local_fun[self.cells(n.slot)]);
            let slot = &mut self.slots[n.slot as usize];
            slot.member = false;
            slot.parent = NONE;
        }
        self.members -= branch.nodes.len();
        self.settle(&mut branch);

        // The ancestors shed the message they were receiving, which is
        // the incrementally maintained one, not the re-summed one.
        if vacated.parent == NONE {
            self.root = NONE;
        } else {
            let p = vacated.parent;
            self.children[p as usize].retain(|&k| k != s);
            let gone = self.cells(s);
            let up = self.cells(p);
            for (cell, v) in self.incoming_fun[up]
                .iter_mut()
                .zip(&self.outgoing_fun[gone])
            {
                *cell -= *v;
            }
            let parent = &mut self.slots[p as usize];
            parent.incoming -= vacated.outgoing;
            parent.recv -= vacated.send;
            self.bubble(p, false)
                .unwrap_or_else(|_| unreachable!("unchecked bubble cannot fail"));
        }
        self.epoch += 1;
        branch
    }

    /// Branch-internal accounting, children before parents: each
    /// node's incoming sums its local load and its children's final
    /// outgoing, in children order.
    fn settle(&self, branch: &mut Branch) {
        let f = self.funnels.len();
        for i in (0..branch.nodes.len()).rev() {
            let (first, count) = branch.nodes[i].kids;
            let kids = first as usize..(first + count) as usize;
            let mut incoming = branch.nodes[i].local;
            let mut recv = 0.0;
            for c in kids.clone() {
                incoming += branch.nodes[c].outgoing;
                recv += branch.nodes[c].send;
            }
            // Funnel rows: children sit after their parent, so the
            // parent's row and its children's rows split cleanly.
            let (head, tail) = branch.outgoing_fun.split_at_mut((i + 1) * f);
            let row = &mut branch.incoming_fun[i * f..(i + 1) * f];
            row.copy_from_slice(&branch.local_fun[i * f..(i + 1) * f]);
            for c in kids {
                let at = (c - i - 1) * f;
                for (cell, v) in row.iter_mut().zip(&tail[at..at + f]) {
                    *cell += *v;
                }
            }
            let out = &mut head[i * f..];
            for ((o, v), agg) in out.iter_mut().zip(row.iter()).zip(&self.funnels) {
                *o = agg.funnel(*v);
            }
            let n = &mut branch.nodes[i];
            n.incoming = incoming;
            n.outgoing = incoming;
            n.send = self.cost.message_cost(total(incoming, out));
            n.recv = recv;
            branch.over_budget |= n.send + n.recv > n.budget + EPS;
        }
    }

    /// Reattaches a detached branch under `target`, transactionally.
    ///
    /// # Errors
    ///
    /// Returns the branch back together with the violated constraint;
    /// the tracker is unchanged on error.
    ///
    /// # Panics
    ///
    /// Panics if the branch was detached from a different tracker.
    pub fn try_attach_branch(
        &mut self,
        branch: Branch,
        target: NodeId,
    ) -> Result<(), (Branch, AttachError)> {
        let Some(t) = self.slot(target) else {
            return Err((branch, AttachError::MissingParent));
        };
        for n in &branch.nodes {
            let slot = self.slots.get(n.slot as usize);
            assert!(
                slot.is_some_and(|s| s.node == n.node),
                "branch belongs to another tracker"
            );
            if slot.is_some_and(|s| s.member) {
                return Err((branch, AttachError::DuplicateNode));
            }
        }
        self.attach_branch_at(branch, t)
    }

    /// [`Self::try_attach_branch`] on the member slot `t`, for a branch
    /// none of whose nodes is a member. The target's root-ward path is
    /// tested with the branch root's message before the branch itself
    /// is touched, so a rejection costs O(depth).
    fn attach_branch_at(&mut self, branch: Branch, t: u32) -> Result<(), (Branch, AttachError)> {
        self.dirty.clear();
        if branch.over_budget {
            return Err((branch, AttachError::BudgetExceeded));
        }
        let f = self.funnels.len();
        let root = &branch.nodes[0];
        self.row.copy_from_slice(&branch.outgoing_fun[..f]);
        self.receive(t, root.outgoing, root.send);
        if let Err(e) = self.bubble(t, true) {
            self.restore();
            self.dirty.clear();
            return Err((branch, e));
        }
        for (i, n) in branch.nodes.iter().enumerate() {
            let parent = match n.parent {
                NONE => t,
                k => branch.nodes[k as usize].slot,
            };
            self.slots[n.slot as usize] = Slot {
                node: n.node,
                member: true,
                parent,
                budget: n.budget,
                local: n.local,
                incoming: n.incoming,
                outgoing: n.outgoing,
                send: n.send,
                recv: n.recv,
            };
            let cells = self.cells(n.slot);
            let row = i * f..(i + 1) * f;
            self.local_fun[cells.clone()].copy_from_slice(&branch.local_fun[row.clone()]);
            self.incoming_fun[cells.clone()].copy_from_slice(&branch.incoming_fun[row.clone()]);
            self.outgoing_fun[cells].copy_from_slice(&branch.outgoing_fun[row]);
            self.children[n.slot as usize].clear();
            self.children[parent as usize].push(n.slot);
            self.dirty.push(n.slot);
        }
        self.members += branch.nodes.len();
        self.epoch += 1;
        Ok(())
    }

    /// Verifies the incremental accounting against a from-scratch
    /// recomputation (and the structural indices against each other).
    pub fn check_consistency(&self) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6;
        let sorted = self
            .by_id
            .windows(2)
            .all(|w| self.slots[w[0] as usize].node < self.slots[w[1] as usize].node);
        if !sorted || self.by_id.len() != self.slots.len() {
            return false;
        }
        if self.member_slots().count() != self.members {
            return false;
        }
        for s in self.member_slots() {
            let slot = &self.slots[s as usize];
            let linked = match slot.parent {
                NONE => self.root == s,
                p => self.slots[p as usize].member && self.children[p as usize].contains(&s),
            };
            if !linked {
                return false;
            }
            // Recompute incoming/recv from the children lists.
            let mut incoming = slot.local;
            let mut incoming_fun = self.local_fun[self.cells(s)].to_vec();
            let mut recv = 0.0;
            for &c in &self.children[s as usize] {
                let child = &self.slots[c as usize];
                if !child.member || child.parent != s {
                    return false;
                }
                incoming += child.outgoing;
                for (cell, v) in incoming_fun
                    .iter_mut()
                    .zip(&self.outgoing_fun[self.cells(c)])
                {
                    *cell += *v;
                }
                recv += child.send;
            }
            let fresh_out: Vec<f64> = incoming_fun
                .iter()
                .zip(&self.funnels)
                .map(|(&v, agg)| agg.funnel(v))
                .collect();
            let out_fun = &self.outgoing_fun[self.cells(s)];
            if !close(incoming, slot.incoming)
                || !close(incoming, slot.outgoing)
                || fresh_out.iter().zip(out_fun).any(|(a, b)| !close(*a, *b))
                || !close(recv, slot.recv)
                || !close(
                    self.cost.message_cost(total(slot.outgoing, out_fun)),
                    slot.send,
                )
            {
                return false;
            }
        }
        true
    }

    /// Materializes the tracked structure as a [`Tree`].
    pub fn to_tree(&self, attrs: AttrSet) -> Option<Tree> {
        if self.root == NONE {
            return None;
        }
        let node = |s: u32| self.slots[s as usize].node;
        let mut tree = Tree::new(attrs, node(self.root));
        let mut stack: Vec<u32> = self.children[self.root as usize].clone();
        while let Some(s) = stack.pop() {
            tree.attach(node(s), node(self.slots[s as usize].parent));
            stack.extend_from_slice(&self.children[s as usize]);
        }
        Some(tree)
    }

    /// Per-node usage map (for [`BuildOutcome::usage`]).
    pub fn usage_map(&self) -> BTreeMap<NodeId, f64> {
        self.member_slots()
            .map(|s| (self.slots[s as usize].node, self.usage_at(s)))
            .collect()
    }
}

impl Slot {
    fn vacant(node: NodeId) -> Self {
        Slot {
            node,
            member: false,
            parent: NONE,
            budget: 0.0,
            local: 0.0,
            incoming: 0.0,
            outgoing: 0.0,
            send: 0.0,
            recv: 0.0,
        }
    }
}

impl BranchNode {
    /// `slot` as it leaves the tracker; the accounting fields are
    /// placeholders until the branch is settled.
    fn of(slot: &Slot, s: u32, parent: u32) -> Self {
        BranchNode {
            slot: s,
            node: slot.node,
            parent,
            kids: (0, 0),
            budget: slot.budget,
            local: slot.local,
            incoming: 0.0,
            outgoing: 0.0,
            send: 0.0,
            recv: 0.0,
        }
    }
}

fn slot_id(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&s| s != NONE)
        .unwrap_or_else(|| unreachable!("more than u32::MAX - 1 tree members"))
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

/// What every scheme starts from, computed once per request: the
/// placement order, and a tracker over the request's nodes with the
/// first workable root installed.
struct Seed<'a> {
    request: &'a BuildRequest,
    /// Demand by budget descending (ties by node id) — hubs first —
    /// each with its tracker slot.
    order: Vec<(u32, &'a NodeDemand)>,
    /// Position of the root within `order`.
    root_idx: usize,
    /// Tracker holding just the root.
    tracker: LoadTracker,
    /// Pairs contributed by the node in each slot.
    pairs: Vec<usize>,
}

impl<'a> Seed<'a> {
    /// `None` when no node can serve as root.
    fn new(request: &'a BuildRequest) -> Option<Self> {
        // Slots are ranks in id order. The planner's requests already
        // list their demand that way.
        let mut ids: Vec<NodeId> = request.demand.iter().map(|d| d.node).collect();
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            ids.sort_unstable();
            ids.dedup();
        }
        let mut pairs = vec![0; ids.len()];
        let mut order: Vec<(u32, &NodeDemand)> = request
            .demand
            .iter()
            .map(|d| {
                let s = ids
                    .binary_search(&d.node)
                    .unwrap_or_else(|_| unreachable!("every demanded node has a slot"));
                pairs[s] = d.pairs;
                (slot_id(s), d)
            })
            .collect();
        order.sort_by(|(_, a), (_, b)| {
            b.budget
                .partial_cmp(&a.budget)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.node.cmp(&b.node))
        });
        let mut tracker = LoadTracker::with_universe(request, &ids);
        let root_idx = order
            .iter()
            .position(|&(s, d)| tracker.init_root_at(s, &d.load, d.budget).is_ok())?;
        Some(Seed {
            request,
            order,
            root_idx,
            tracker,
            pairs,
        })
    }

    /// The demand still to place, in placement order.
    fn rest(&self) -> impl DoubleEndedIterator<Item = (u32, &'a NodeDemand)> + '_ {
        let root = self.root_idx;
        self.order
            .iter()
            .enumerate()
            .filter(move |&(i, _)| i != root)
            .map(|(_, &entry)| entry)
    }

    fn finish(&self, t: &LoadTracker, excluded: Vec<NodeId>) -> BuildOutcome {
        BuildOutcome {
            tree: t.to_tree(self.request.attrs.clone()),
            usage: t.usage_map(),
            collector_usage: t.collector_usage(),
            collected_pairs: t.member_slots().map(|s| self.pairs[s as usize]).sum(),
            demanded_pairs: self.request.demand.iter().map(|d| d.pairs).sum(),
            excluded,
            message_volume: t.message_volume(),
        }
    }
}

/// STAR and CHAIN: every node has exactly one candidate parent, which
/// `next_parent` derives from the slot just attached.
fn build_fixed_parent(seed: &Seed<'_>, next_parent: impl Fn(u32, u32) -> u32) -> BuildOutcome {
    let mut t = seed.tracker.clone();
    let mut parent = seed.order[seed.root_idx].0;
    let mut excluded = Vec::new();
    // The candidate parent moves only on success — the failed-placement
    // memo applies verbatim.
    let mut memo = PlaceMemo::new();
    for (s, d) in seed.rest() {
        let load = d.load.total();
        if memo.known_to_fail(&t, load) {
            excluded.push(d.node);
            continue;
        }
        match t.attach_at(s, &d.load, d.budget, parent) {
            Ok(()) => parent = next_parent(parent, s),
            Err(_) => {
                memo.record_failure(&t, load);
                excluded.push(d.node);
            }
        }
    }
    seed.finish(&t, excluded)
}

fn build_star(seed: &Seed<'_>) -> BuildOutcome {
    build_fixed_parent(seed, |root, _| root)
}

fn build_chain(seed: &Seed<'_>) -> BuildOutcome {
    build_fixed_parent(seed, |_, tail| tail)
}

/// Best-first order over `(available budget, slot)`: availability
/// descending, ties by slot ascending. The builders' trackers number
/// their slots in node-id order, so this is the `(avail desc, id asc)`
/// ranking every placement and relocation decision uses.
fn rank(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.1.cmp(&b.1))
}

/// Offers `item` to `top`, which holds the first (at most) `k` items
/// under `order` seen so far, in that order: selection by bounded
/// insertion, a few comparisons per offered item.
fn offer(
    top: &mut Vec<(f64, u32)>,
    k: usize,
    item: (f64, u32),
    order: impl Fn(&(f64, u32), &(f64, u32)) -> std::cmp::Ordering,
) {
    let at = top.partition_point(|x| order(x, &item).is_le());
    if at < k {
        top.truncate(k - 1);
        top.insert(at, item);
    }
}

/// One lazy max-heap entry: a slot at a point-in-time availability.
#[derive(Debug)]
struct AvailEntry {
    avail: f64,
    slot: u32,
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
        // smallest slot, i.e. the smallest node id.
        self.avail
            .total_cmp(&other.avail)
            .then_with(|| other.slot.cmp(&self.slot))
    }
}

/// Lazily-invalidated availability ranking over the tracker's members.
///
/// A fresh entry is pushed for every slot the tracker reports dirty
/// after a successful mutation, so the current availability of every
/// member always has a live entry; stale entries (value no longer
/// matching, or node detached) are discarded on pop. Popping therefore
/// yields members in exact `(avail desc, id asc)` order without a
/// re-sort per placement.
#[derive(Debug, Default)]
struct AvailHeap {
    heap: std::collections::BinaryHeap<AvailEntry>,
    /// Live entries popped by `top`, on their way back in.
    kept: Vec<AvailEntry>,
}

impl AvailHeap {
    /// Absorbs the tracker's dirty set after a successful mutation.
    fn refresh(&mut self, t: &mut LoadTracker) {
        for &slot in &t.dirty {
            if t.slots[slot as usize].member {
                self.heap.push(AvailEntry {
                    avail: t.available_at(slot),
                    slot,
                });
            }
        }
        t.dirty.clear();
    }

    /// The top `k` members by `(avail desc, id asc)`, written into
    /// `out`. Valid entries that were popped are pushed back.
    fn top(&mut self, t: &LoadTracker, k: usize, out: &mut Vec<u32>) {
        out.clear();
        while out.len() < k {
            let Some(e) = self.heap.pop() else { break };
            // Stale entries and duplicate live entries for the same
            // slot are dropped; one survivor suffices.
            if t.slots[e.slot as usize].member
                && t.available_at(e.slot) == e.avail
                && !out.contains(&e.slot)
            {
                out.push(e.slot);
                self.kept.push(e);
            }
        }
        self.heap.extend(self.kept.drain(..));
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

/// The state of one greedy (max-available-parent) pass.
#[derive(Debug)]
struct Greedy {
    t: LoadTracker,
    heap: AvailHeap,
    candidates: Vec<u32>,
    memo: PlaceMemo,
    excluded: Vec<NodeId>,
}

impl Greedy {
    fn new(seed: &Seed<'_>) -> Self {
        let mut g = Greedy {
            t: seed.tracker.clone(),
            heap: AvailHeap::default(),
            candidates: Vec::new(),
            memo: PlaceMemo::new(),
            excluded: Vec::new(),
        };
        g.heap.refresh(&mut g.t);
        g
    }

    /// Greedy placement under the best-available parents.
    fn try_place(&mut self, s: u32, d: &NodeDemand) -> bool {
        let load = d.load.total();
        if self.memo.known_to_fail(&self.t, load) {
            return false;
        }
        self.heap
            .top(&self.t, PARENT_CANDIDATES, &mut self.candidates);
        for &parent in &self.candidates {
            if self.t.attach_at(s, &d.load, d.budget, parent).is_ok() {
                self.heap.refresh(&mut self.t);
                return true;
            }
        }
        self.memo.record_failure(&self.t, load);
        false
    }
}

fn build_max_avb(seed: &Seed<'_>) -> BuildOutcome {
    let mut g = Greedy::new(seed);
    for (s, d) in seed.rest() {
        if !g.try_place(s, d) {
            g.excluded.push(d.node);
        }
    }
    seed.finish(&g.t, g.excluded)
}

/// One congestion-relief sweep: relocate load away from the most
/// congested members so a pending node can fit. Returns `true` if a
/// relocation was applied (the sweep stops at the first one).
///
/// Each step is linear in what it looks at: donors and relocation
/// targets are *selected* under [`rank`] rather than sorted out of the
/// whole membership, and with `subtree_only` only the donor's remaining
/// subtree is ranked at all.
fn relieve_congestion(g: &mut Greedy, cfg: AdjustConfig) -> bool {
    let Greedy { t, heap, .. } = g;
    // Most congested first: the last of the best-first order.
    let mut donors = Vec::with_capacity(RELIEF_DONORS);
    for s in t.member_slots() {
        offer(
            &mut donors,
            RELIEF_DONORS,
            (t.available_at(s), s),
            |a, b| rank(b, a),
        );
    }
    let mut movable = Vec::new();
    let mut walk = Vec::new();
    let mut targets = Vec::with_capacity(PARENT_CANDIDATES);
    for (_, donor) in donors {
        // Movable units under this donor: its child branches, or the
        // single leaves of its subtree.
        movable.clear();
        if cfg.branch_based {
            movable.extend_from_slice(&t.children[donor as usize]);
        } else {
            walk.clear();
            walk.extend_from_slice(&t.children[donor as usize]);
            while let Some(n) = walk.pop() {
                if t.children[n as usize].is_empty() {
                    movable.push(n);
                } else {
                    walk.extend_from_slice(&t.children[n as usize]);
                }
            }
        }
        for &unit in &movable {
            let old_parent = t.slots[unit as usize].parent;
            let mut branch = t.detach_at(unit);
            heap.refresh(t);
            targets.clear();
            let mut consider = |s: u32| {
                if s != old_parent {
                    offer(
                        &mut targets,
                        PARENT_CANDIDATES,
                        (t.available_at(s), s),
                        rank,
                    );
                }
            };
            if cfg.subtree_only {
                // Restrict to the donor's remaining subtree (§5.1.2).
                walk.clear();
                walk.push(donor);
                let mut i = 0;
                while i < walk.len() {
                    consider(walk[i]);
                    walk.extend_from_slice(&t.children[walk[i] as usize]);
                    i += 1;
                }
            } else {
                t.member_slots().for_each(consider);
            }
            for &(_, target) in &targets {
                match t.attach_branch_at(branch, target) {
                    Ok(()) => {
                        heap.refresh(t);
                        return true;
                    }
                    Err((back, _)) => branch = back,
                }
            }
            t.attach_branch_at(branch, old_parent)
                .unwrap_or_else(|_| unreachable!("restoring a just-detached branch cannot fail"));
            heap.refresh(t);
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
/// volume sum and this function's own additions with room to spare. (Loads that are
/// integers — the planner's, unless frequency weighting is on — make
/// every one of those sums exact.)
fn complete_volume(seed: &Seed<'_>, chain: bool) -> Option<(f64, f64)> {
    if !seed.request.funnels.is_empty() {
        return None;
    }
    let cost = seed.request.cost;
    let mut volume = 0.0;
    let mut carried = 0.0;
    // From the tail towards the root, which sends everything.
    let root = seed.order[seed.root_idx].1;
    for (d, relays) in seed
        .rest()
        .rev()
        .map(|(_, d)| (d, chain))
        .chain([(root, true)])
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

/// The adjusting procedure's own pass: greedy placement with
/// congestion relief. Returns the outcome and the number of relief
/// sweeps it ran.
fn adjusted_pass(seed: &Seed<'_>, cfg: AdjustConfig) -> (BuildOutcome, u64) {
    let mut g = Greedy::new(seed);
    let mut sweeps = 0;
    // Congestion-relief moves are budgeted: each one is cheap, but an
    // adversarial workload could otherwise trigger quadratically many.
    let mut moves_left = 2 * seed.request.demand.len();
    // A sweep that finds no applicable relocation has detached and
    // restored every unit it tried. That leaves membership, the parent
    // relation and every node's accounting where they were (restored
    // branches are re-summed, which can move a last bit when loads are
    // fractional) — but *not* the children order: a restored unit now
    // sits last among its siblings. Whether some (unit, target) pair is
    // feasible depends on the former only, so re-running the sweep for
    // the next unplaced node would re-scan the same donors to the same
    // answer. Skip it until some placement actually mutates the tree
    // again — on a saturated instance this turns thousands of futile
    // full-tree sweeps into one.
    let mut relief_futile = false;
    for (s, d) in seed.rest() {
        let mut placed = g.try_place(s, d);
        while !placed && moves_left > 0 && !relief_futile {
            moves_left -= 1;
            sweeps += 1;
            if !relieve_congestion(&mut g, cfg) {
                relief_futile = true;
                break;
            }
            placed = g.try_place(s, d);
        }
        if placed {
            relief_futile = false;
        } else {
            g.excluded.push(d.node);
        }
    }
    (seed.finish(&g.t, g.excluded), sweeps)
}

type Scheme = fn(&Seed<'_>) -> BuildOutcome;

/// The three simple schemes the adjusting procedure is seeded against,
/// in fold order.
const CHALLENGERS: [(&str, Scheme); 3] = [
    ("star", build_star),
    ("chain", build_chain),
    ("max_avb", build_max_avb),
];

/// Whether challenger `which` provably cannot displace `best`, the
/// incumbent at its position in the fold, after an adjusted pass that
/// ran `sweeps` relief sweeps:
///
/// - (a) MAX_AVB, when there was no sweep. The two passes then
///   performed the same placements on the same seed, so MAX_AVB's
///   outcome *is* the adjusted outcome, which the incumbent either is
///   or has strictly beaten.
/// - (b) STAR and CHAIN, when [`cannot_win`] says so.
fn provably_loses(which: usize, seed: &Seed<'_>, sweeps: u64, best: &BuildOutcome) -> bool {
    match which {
        2 => sweeps == 0,
        _ => cannot_win(seed, which == 1, best),
    }
}

/// The adjusting procedure is seeded against the simple schemes and
/// keeps the best outcome (more pairs, then lower volume) — the
/// dominance the paper reports in Fig. 7 holds by construction. The
/// fold runs adjusted → STAR → CHAIN → MAX_AVB, building only the
/// challengers that could displace the incumbent they meet.
fn build_adaptive(seed: &Seed<'_>, cfg: AdjustConfig) -> BuildOutcome {
    let (mut best, sweeps) = adjusted_pass(seed, cfg);
    let mut built = [false; 3];
    for (which, (_, build)) in CHALLENGERS.iter().enumerate() {
        if !provably_loses(which, seed, sweeps, &best) {
            built[which] = true;
            let cand = build(seed);
            if better(&cand, &best) {
                best = cand;
            }
        }
    }
    if remo_obs::enabled() {
        record_build(&built, sweeps);
    }
    best
}

/// Exports what one adaptive build did: which challengers it built or
/// skipped, and how many relief sweeps its adjusted pass ran.
fn record_build(built: &[bool; 3], sweeps: u64) {
    static HANDLES: std::sync::OnceLock<([[remo_obs::Counter; 2]; 3], remo_obs::Counter)> =
        std::sync::OnceLock::new();
    let (challengers, relief) = HANDLES.get_or_init(|| {
        (
            CHALLENGERS.map(|(scheme, _)| {
                ["skipped", "built"].map(|what| {
                    remo_obs::counter(&format!("remo_build_challengers_{what}_{scheme}_total"))
                })
            }),
            remo_obs::counter("remo_build_relief_sweeps_total"),
        )
    });
    for (handles, &built) in challengers.iter().zip(built) {
        handles[usize::from(built)].inc();
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

    /// The unpruned four-way fold: every challenger is built. Returns
    /// the outcome and who produced it (0 = the adjusted pass).
    fn build_adaptive_unpruned(seed: &Seed<'_>, cfg: AdjustConfig) -> (BuildOutcome, usize) {
        let (adjusted, _) = adjusted_pass(seed, cfg);
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
    /// outcome, and whenever a rule would skip a challenger, building
    /// it anyway shows it would not have displaced the incumbent.
    fn assert_pruning_is_exact(req: &BuildRequest, cfg: AdjustConfig) {
        let Some(seed) = Seed::new(req) else { return };
        let (reference, _) = build_adaptive_unpruned(&seed, cfg);
        assert!(same(&build_adaptive(&seed, cfg), &reference), "{req:?}");
        let (mut best, sweeps) = adjusted_pass(&seed, cfg);
        for (which, (name, build)) in CHALLENGERS.iter().enumerate() {
            let cand = build(&seed);
            if provably_loses(which, &seed, sweeps, &best) {
                assert!(!better(&cand, &best), "{name} skipped but wins: {req:?}");
            }
            if better(&cand, &best) {
                best = cand;
            }
        }
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
        let (adjusted, sweeps) = adjusted_pass(&seed, AdjustConfig::default());
        assert_eq!(adjusted.tree.as_ref().map(Tree::height), Some(2));
        let (star, margin) = complete_volume(&seed, false).unwrap();
        let gap = adjusted.message_volume - star;
        assert!(
            gap < 1e-9 && gap + margin > 1e-9,
            "gap {gap}, margin {margin}"
        );
        assert!(
            !provably_loses(0, &seed, sweeps, &adjusted),
            "inside the margin"
        );
        assert!(
            provably_loses(1, &seed, sweeps, &adjusted),
            "a chain equals the incumbent"
        );
        assert!(provably_loses(2, &seed, sweeps, &adjusted), "no relief ran");
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
            let (adjusted, sweeps) = adjusted_pass(&seed, AdjustConfig::default());
            assert_eq!(provably_loses(0, &seed, sweeps, &adjusted), skipped);
            assert_pruning_is_exact(&req, AdjustConfig::default());
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
