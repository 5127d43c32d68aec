//! Incrementally maintained structural analyses and edit
//! transactions for the SA loop.
//!
//! The simulated-annealing optimizer evaluates thousands of candidate
//! graphs, and most of the per-candidate analysis cost is levels and
//! fanout counts. [`IncrementalAnalysis`] keeps both quantities live
//! across graph edits so that the cost of an update scales with the
//! size of the *edit*, not the size of the graph:
//!
//! * appended nodes and retargeted outputs are absorbed by
//!   [`IncrementalAnalysis::sync`] in time proportional to the number
//!   of appended nodes plus the number of outputs;
//! * in-place node substitution ([`IncrementalAnalysis::substitute`])
//!   rewires every consumer of a node to an equivalent earlier
//!   literal and re-levels only the *transitive fanout* of the
//!   substituted node, stopping as soon as levels stop changing. The
//!   touched sets are reported as a [`DirtyRegion`];
//! * wholesale graph replacement (a recipe step produced a fresh
//!   graph) is handled by [`IncrementalAnalysis::rebuild`], which
//!   recomputes everything but reuses every buffer.
//!
//! [`crate::analysis::levels`] and [`crate::analysis::fanout_counts`]
//! are kept untouched as the full-recompute oracle; the differential
//! test suite drives random recipe walks and edit scripts asserting
//! the incremental state stays bit-identical to the oracle after
//! every step.
//!
//! # Edit transactions
//!
//! [`Transaction`] is the speculative-edit layer the SA loop uses to
//! try a move *in place*: it borrows a graph together with its
//! analysis, applies any number of edits (node appends via
//! [`Transaction::and`], output retargets via
//! [`Transaction::retarget_output`], substitutions via
//! [`Transaction::substitute`]), and then either keeps them
//! ([`Transaction::commit`]) or reverts every one of them
//! ([`Transaction::rollback`]). The lifecycle and its invariants:
//!
//! 1. **begin** — [`Transaction::begin`] asserts the analysis is in
//!    sync with the graph (same node count). While the transaction is
//!    alive it holds both borrows, so no edits can bypass the
//!    journal.
//! 2. **edit** — every mutating call appends an inverse record to an
//!    undo journal: fanin rewires capture the exact structural-hash
//!    mutations they performed, substitutions additionally capture
//!    the moved fanout units, moved consumer entries, rewritten
//!    output literals and every changed level, and appends capture
//!    the created node id. Analysis state (levels, fanout, consumer
//!    adjacency, output snapshot, `max_level`) is maintained exactly
//!    after every edit, so evaluation can read it mid-transaction.
//! 3. **commit** — drops the journal; the edits stay. Dropping the
//!    transaction without calling either method is equivalent to
//!    commit.
//! 4. **rollback** — replays the journal in reverse: node vector,
//!    input registration, output literals, *and the structural-hash
//!    table* are restored exactly (not merely equivalently), and the
//!    analysis is returned to its pre-transaction state. The cost is
//!    proportional to the journal, i.e. to the edit, not the graph.
//!
//! The rollback-exactness contract is what makes the SA transaction
//! path byte-identical to the clone-based path: after a rejected
//! move, subsequent strashed lookups ([`Aig::and`],
//! [`Aig::find_and`]) behave as if the move never happened. The
//! differential suites drive random edit walks with interleaved
//! rollbacks asserting graph serialization, strash behavior, levels
//! and fanout all match a never-edited twin.
//!
//! # Fresh-cone appends and forward references
//!
//! A transaction may build a *replacement cone* with
//! [`Transaction::and`] (strashed nodes appended above the current
//! high-water mark) and splice it in with [`Transaction::substitute`],
//! even though the appended root's id *succeeds* the node being
//! replaced. The resulting graph carries **forward references**: the
//! rewired consumers keep their (small) ids but read fanins with
//! larger ids. The contract:
//!
//! * ids are permanent — nothing is renumbered on commit. The graph
//!   tracks the forward set ([`Aig::forward_ids`]); ascending id order
//!   stops being a topological order while it is non-empty
//!   ([`Aig::is_topological`]). Dependency order is served by the
//!   cached per-forward-epoch [`crate::TopoIndex`]
//!   ([`Aig::topo_and_order`], delta-extended across appends), whose
//!   position table is the worklist key incremental consumers (the
//!   mapper's per-row cutoff) order by; every full traversal in the
//!   crate family goes through [`Aig::for_each_and_topo`] so fresh
//!   recomputations stay bit-identical to the incrementally
//!   maintained state;
//! * the only rejected substitution shapes are `with.var() == node`
//!   and (checked in debug builds) a target whose transitive fanin
//!   contains a current reader of `node` — both would close a
//!   combinational cycle. Everything else, forward or backward, is
//!   legal;
//! * [`DirtyRegion::min_touched`] stays a true *id* watermark: every
//!   per-node quantity of every id strictly below it is untouched by
//!   the edit. It is **not** a cone bound — with forward references a
//!   consumer below the watermark may *read* a node above it, which
//!   is why suffix-recompute consumers (the mapper) additionally
//!   clamp their cursor to the smallest registered forward reader;
//! * rollback order is append-safe by construction: the journal is
//!   LIFO, substitutions that created forward references are undone
//!   before the appends they point into, so [`Aig::pop_node`] never
//!   pops a node that is still referenced.
//!
//! Reserved (appended-but-not-yet-committed) ids are observable to
//! every reader of the live graph mid-transaction — analysis,
//! [`crate::cut::CutDb`] after a `sync_appends`, and the mapper all
//! see them; exact rollback is what guarantees a rejected move leaves
//! no trace of them.

use crate::analysis;
use crate::graph::{Aig, FaninEdit};
use crate::lit::{Lit, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The sets of nodes touched by the latest edit.
///
/// A [`DirtyRegion`] is a report, not a worklist: it names exactly
/// what the incremental propagation visited, which downstream
/// consumers use to bound their own incremental work. Three sets are
/// reported, because different consumers need different
/// approximations of "changed":
///
/// * [`DirtyRegion::nodes`] — nodes whose level was *recomputed*
///   (visited by the propagation; a visited node's level may end up
///   unchanged, and propagation stops early where levels settle, so
///   this neither over- nor under-approximates the set of re-leveled
///   nodes but says nothing about fanin identity);
/// * [`DirtyRegion::edited`] — nodes whose fanin literals were
///   rewired (deduplicated, ascending). This is the seed set for cut
///   invalidation: a node's cut sets can only change if its own
///   fanins changed or a node in its fanin cone was edited, so the
///   transitive closure of this set over consumer edges bounds every
///   cut-set change ([`crate::cut::CutDb`] walks it with an equality
///   cutoff);
/// * [`DirtyRegion::fanout_touched`] — nodes whose fanout *count*
///   changed (ascending). Fanout feeds area-flow estimates in the
///   mapper; this set (not the re-leveled set) is the exact
///   invalidation key for per-node state derived from fanout.
#[derive(Clone, Debug, Default)]
pub struct DirtyRegion {
    nodes: Vec<NodeId>,
    edited: Vec<NodeId>,
    fanout_touched: Vec<NodeId>,
}

impl DirtyRegion {
    /// The ids whose level was recomputed, in increasing order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The ids whose fanin literals were rewired, deduplicated, in
    /// increasing order (the cut-invalidation seed set).
    pub fn edited(&self) -> &[NodeId] {
        &self.edited
    }

    /// The ids whose fanout count changed, in increasing order.
    pub fn fanout_touched(&self) -> &[NodeId] {
        &self.fanout_touched
    }

    /// The smallest id in any of the three sets, or `None` when the
    /// edit touched nothing. Every per-node quantity of every node
    /// below this id is untouched by the edit — the watermark the
    /// incremental mapper uses to reuse DP rows. Note this bounds
    /// *writes* by id, not by cone: once a graph carries forward
    /// references (see the module docs), a node below the watermark
    /// may still *read* a node above it, so suffix-recompute
    /// consumers additionally clamp to the smallest forward reader.
    pub fn min_touched(&self) -> Option<NodeId> {
        [
            self.nodes.first(),
            self.edited.first(),
            self.fanout_touched.first(),
        ]
        .into_iter()
        .flatten()
        .copied()
        .min()
    }

    /// Number of recomputed nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the edit left every level untouched.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Accumulates `other` into `self` (per-set sorted union). Used by
    /// [`Transaction::touched_region`] to fold the per-edit regions of
    /// a whole transaction into one footprint.
    pub fn merge(&mut self, other: &DirtyRegion) {
        merge_sorted(&mut self.nodes, &other.nodes);
        merge_sorted(&mut self.edited, &other.edited);
        merge_sorted(&mut self.fanout_touched, &other.fanout_touched);
    }

    /// Empties all three sets. Callers that keep a long-lived region
    /// as a merge accumulator (the SA loops capture a move's footprint
    /// across a rollback to drive evaluator resync) reset it with this
    /// instead of reallocating.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.edited.clear();
        self.fanout_touched.clear();
    }
}

/// Sorted, deduplicated in-place union (`dst` stays ascending).
fn merge_sorted(dst: &mut Vec<NodeId>, src: &[NodeId]) {
    if src.is_empty() {
        return;
    }
    dst.extend_from_slice(src);
    dst.sort_unstable();
    dst.dedup();
}

/// Undo journal of one [`Transaction`].
#[derive(Debug, Default)]
struct Journal {
    ops: Vec<UndoOp>,
}

#[derive(Debug)]
enum UndoOp {
    Substitute(Box<SubstUndo>),
    Append { id: NodeId },
    Retarget { idx: usize, old: Lit },
}

/// Inverse record of one substitution: everything needed to restore
/// graph and analysis exactly.
#[derive(Debug, Default)]
struct SubstUndo {
    node: NodeId,
    wvar: NodeId,
    moved_edges: u32,
    moved_outputs: u32,
    fanin_edits: Vec<FaninEdit>,
    level_changes: Vec<(NodeId, u32)>,
    output_edits: Vec<(usize, Lit)>,
}

/// Incrementally maintained levels + fanout counts of one [`Aig`].
///
/// The state mirrors [`crate::analysis::levels`] and
/// [`crate::analysis::fanout_counts`] exactly (including the
/// primary-output contribution to fanout), plus a consumer adjacency
/// used to propagate substitutions through the transitive fanout.
///
/// # Examples
///
/// ```
/// use aig::{incremental::IncrementalAnalysis, Aig};
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let ab = g.and(a, b);
/// g.add_output(ab, None::<&str>);
/// let mut inc = IncrementalAnalysis::new(&g);
/// assert_eq!(inc.max_level(), 1);
///
/// // Append a node and retarget the output: sync() absorbs both.
/// let c = g.add_input();
/// let abc = g.and(ab, c);
/// g.set_output(0, abc);
/// inc.sync(&g);
/// assert_eq!(inc.max_level(), 2);
/// assert_eq!(inc.levels(), &aig::analysis::levels(&g).level[..]);
/// assert_eq!(inc.fanout_counts(), &aig::analysis::fanout_counts(&g)[..]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IncrementalAnalysis {
    level: Vec<u32>,
    fanout: Vec<u32>,
    /// `consumers[v]` lists the AND nodes reading `v`, one entry per
    /// fanin edge (a node whose both fanins read `v` appears twice).
    consumers: Vec<Vec<NodeId>>,
    /// Output literals at the last sync, for diffing output edits.
    out_snapshot: Vec<Lit>,
    max_level: u32,
    dirty: DirtyRegion,
    // Propagation scratch.
    queued: Vec<bool>,
    heap: BinaryHeap<Reverse<NodeId>>,
}

impl IncrementalAnalysis {
    /// Builds the analysis state for `aig`.
    pub fn new(aig: &Aig) -> Self {
        let mut s = IncrementalAnalysis::default();
        s.rebuild(aig);
        s
    }

    /// Per-node levels (identical to [`crate::analysis::levels`]).
    pub fn levels(&self) -> &[u32] {
        &self.level
    }

    /// Level of node `id`.
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id as usize]
    }

    /// Maximum level over all primary-output drivers.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Per-node fanout counts (identical to
    /// [`crate::analysis::fanout_counts`]: AND fanins plus
    /// primary-output drivers).
    pub fn fanout_counts(&self) -> &[u32] {
        &self.fanout
    }

    /// Fanout count of node `id`.
    pub fn fanout(&self, id: NodeId) -> u32 {
        self.fanout[id as usize]
    }

    /// The AND nodes currently reading node `id`, one entry per fanin
    /// edge (a consumer reading `id` on both fanins appears twice).
    /// On topological graphs consumer ids always exceed `id`; after a
    /// forward splice a consumer may precede `id`, which the cut
    /// database's invalidation handles by running its worklist to a
    /// fixpoint (consumers re-enqueue on any list change).
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.consumers[id as usize]
    }

    /// The touched sets of the most recent edit — a
    /// [`IncrementalAnalysis::substitute`] or a
    /// [`IncrementalAnalysis::sync`] (appended consumers move their
    /// fanins' fanout; retargeted outputs move their drivers').
    /// [`IncrementalAnalysis::rebuild`] clears it.
    pub fn last_dirty(&self) -> &DirtyRegion {
        &self.dirty
    }

    /// Number of nodes currently tracked.
    pub fn num_nodes(&self) -> usize {
        self.level.len()
    }

    /// Full recompute into the existing buffers (no oracle
    /// allocations). Use after a transform replaced the graph
    /// wholesale; [`IncrementalAnalysis::sync`] covers append-only
    /// growth of the *same* graph.
    pub fn rebuild(&mut self, aig: &Aig) {
        let n = aig.num_nodes();
        self.level.clear();
        self.level.resize(n, 0);
        self.fanout.clear();
        self.fanout.resize(n, 0);
        self.consumers.truncate(n);
        for c in &mut self.consumers {
            c.clear();
        }
        self.consumers.resize_with(n, Vec::new);
        self.queued.clear();
        self.queued.resize(n, false);
        let (f0s, f1s) = aig.fanin_arrays();
        aig.for_each_and_topo(|id| self.absorb_and([f0s[id as usize], f1s[id as usize]], id));
        self.dirty.clear();
        self.out_snapshot.clear();
        for o in aig.outputs() {
            self.fanout[o.lit.var() as usize] += 1;
            self.out_snapshot.push(o.lit);
        }
        self.refresh_max_level();
    }

    /// Absorbs appended nodes and output edits of the same graph.
    ///
    /// Cost is `O(appended nodes + outputs)` — independent of the
    /// graph size, which is what makes single-step SA edits cheap.
    ///
    /// # Panics
    ///
    /// Panics if the graph shrank (node removal never happens in
    /// place; use [`IncrementalAnalysis::rebuild`] after a sweep).
    pub fn sync(&mut self, aig: &Aig) {
        let old_n = self.level.len();
        let n = aig.num_nodes();
        assert!(
            n >= old_n,
            "sync() only supports append-only growth ({old_n} -> {n} nodes); use rebuild()"
        );
        self.level.resize(n, 0);
        self.fanout.resize(n, 0);
        self.consumers.resize_with(n, Vec::new);
        self.queued.resize(n, false);
        self.dirty.clear();
        for id in old_n as NodeId..n as NodeId {
            if aig.is_and(id) {
                let [f0, f1] = aig.fanins(id);
                self.absorb_and([f0, f1], id);
                self.dirty.nodes.push(id);
                self.dirty.fanout_touched.push(f0.var());
                self.dirty.fanout_touched.push(f1.var());
            }
        }
        // Diff the outputs: changed drivers move one fanout unit.
        let outs = aig.outputs();
        for (i, o) in outs.iter().enumerate() {
            match self.out_snapshot.get(i) {
                Some(&old) if old == o.lit => {}
                Some(&old) => {
                    self.fanout[old.var() as usize] -= 1;
                    self.fanout[o.lit.var() as usize] += 1;
                    self.dirty.fanout_touched.push(old.var());
                    self.dirty.fanout_touched.push(o.lit.var());
                    self.out_snapshot[i] = o.lit;
                }
                None => {
                    self.fanout[o.lit.var() as usize] += 1;
                    self.dirty.fanout_touched.push(o.lit.var());
                    self.out_snapshot.push(o.lit);
                }
            }
        }
        self.dirty.fanout_touched.sort_unstable();
        self.dirty.fanout_touched.dedup();
        assert!(
            self.out_snapshot.len() == outs.len(),
            "outputs are append-only"
        );
        self.refresh_max_level();
    }

    /// Substitutes `node` by the (functionally equivalent) literal
    /// `with`: every fanin edge and primary output reading `node` is
    /// rewired to `with`, fanout counts move with the edges, and
    /// levels are re-propagated through the transitive fanout of
    /// `node` only, stopping early where levels settle.
    ///
    /// Returns the [`DirtyRegion`] naming the re-leveled, rewired and
    /// fanout-touched nodes. `node` itself keeps its level and (now
    /// zero AND-edge) fanout; a later [`Aig::sweep`] drops it if it
    /// became dangling.
    ///
    /// Functional equivalence of `node` and `with` is the *caller's*
    /// contract (the analysis stays exact either way, but the graph's
    /// function only survives if the two agree). Structural hashing
    /// stays consistent: rewired nodes are re-keyed, and a rewired
    /// node is **not** re-simplified even if its fanins became equal
    /// or complementary.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the constant node, if `with.var() == node`
    /// (a self-substitution closes a cycle), or if the analysis is out
    /// of sync with `aig`. `with.var()` may *succeed* `node` (a
    /// forward splice onto an appended cone — see the module docs); in
    /// debug builds a target whose transitive fanin contains a current
    /// reader of `node` is rejected as a combinational cycle.
    pub fn substitute(&mut self, aig: &mut Aig, node: NodeId, with: Lit) -> &DirtyRegion {
        self.substitute_inner(aig, node, with, None)
    }

    fn substitute_inner(
        &mut self,
        aig: &mut Aig,
        node: NodeId,
        with: Lit,
        mut undo: Option<&mut SubstUndo>,
    ) -> &DirtyRegion {
        assert!(node != 0, "cannot substitute the constant node");
        assert!(
            with.var() != node,
            "substitute target {} must differ from node {node} (self-substitution is a cycle)",
            with.var()
        );
        assert!(
            self.level.len() == aig.num_nodes(),
            "analysis out of sync: call sync() or rebuild() first"
        );
        #[cfg(debug_assertions)]
        if !self.consumers[node as usize].is_empty() {
            // Rewiring the readers of `node` onto `with` closes a
            // combinational cycle iff `node` is in the transitive
            // fanin of `with` (see [`Aig::reaches`]). Transform-level
            // callers run the same check in release mode before
            // accepting candidates that could trip it.
            assert!(
                !aig.reaches(with.var(), node),
                "substituting node {node} with {} creates a combinational cycle",
                with.var()
            );
        }
        let wvar = with.var();
        let edges = std::mem::take(&mut self.consumers[node as usize]);
        self.dirty.clear();
        // Rewire each consumer once (duplicate entries mean both
        // fanins read `node`; the first visit rewires both).
        for &c in &edges {
            let [f0, f1] = aig.fanins(c);
            if f0.var() != node && f1.var() != node {
                continue;
            }
            let nf0 = if f0.var() == node {
                with.complement_if(f0.is_complement())
            } else {
                f0
            };
            let nf1 = if f1.var() == node {
                with.complement_if(f1.is_complement())
            } else {
                f1
            };
            let edit = aig.replace_fanins(c, nf0, nf1);
            self.dirty.edited.push(c);
            if let Some(u) = &mut undo {
                u.fanin_edits.push(edit);
            }
        }
        self.dirty.edited.sort_unstable();
        self.dirty.edited.dedup();
        // Every edge moves from `node` to `with.var()`.
        self.fanout[node as usize] -= edges.len() as u32;
        self.fanout[wvar as usize] += edges.len() as u32;
        for &c in &edges {
            self.consumers[wvar as usize].push(c);
        }
        let moved_edges = edges.len() as u32;
        // Outputs driven by `node` follow.
        let mut moved_outputs = 0u32;
        for i in 0..aig.num_outputs() {
            let lit = aig.outputs()[i].lit;
            if lit.var() == node {
                let nl = with.complement_if(lit.is_complement());
                aig.set_output(i, nl);
                self.out_snapshot[i] = nl;
                self.fanout[node as usize] -= 1;
                self.fanout[wvar as usize] += 1;
                moved_outputs += 1;
                if let Some(u) = &mut undo {
                    u.output_edits.push((i, lit));
                }
            }
        }
        if moved_edges + moved_outputs > 0 {
            // Keep the set ascending: a forward splice has wvar > node.
            let (lo, hi) = if wvar < node {
                (wvar, node)
            } else {
                (node, wvar)
            };
            self.dirty.fanout_touched.push(lo);
            self.dirty.fanout_touched.push(hi);
        }
        if let Some(u) = &mut undo {
            u.node = node;
            u.wvar = wvar;
            u.moved_edges = moved_edges;
            u.moved_outputs = moved_outputs;
        }
        // Re-level the transitive fanout, smallest id first. On a
        // topological graph every node finalizes in one visit (fanins
        // precede it); a forward reader may be re-enqueued after one
        // of its (larger-id) fanins settles, so the loop is a
        // worklist fixpoint rather than a single sweep — it still
        // terminates because levels are a function of an acyclic
        // fanin relation.
        for &c in &edges {
            self.enqueue(c);
        }
        while let Some(Reverse(id)) = self.heap.pop() {
            self.queued[id as usize] = false;
            let [f0, f1] = aig.fanins(id);
            let nl = 1 + self.level[f0.var() as usize].max(self.level[f1.var() as usize]);
            self.dirty.nodes.push(id);
            if nl != self.level[id as usize] {
                if let Some(u) = &mut undo {
                    u.level_changes.push((id, self.level[id as usize]));
                }
                self.level[id as usize] = nl;
                let cs = std::mem::take(&mut self.consumers[id as usize]);
                for &cc in &cs {
                    self.enqueue(cc);
                }
                self.consumers[id as usize] = cs;
            }
        }
        // A re-enqueued forward reader is pushed twice; the region's
        // sets are sorted-and-deduped by contract (no-op without
        // forward edges, where pops are ascending and unique).
        self.dirty.nodes.sort_unstable();
        self.dirty.nodes.dedup();
        self.refresh_max_level();
        &self.dirty
    }

    /// Exactly reverts one substitution (reverse-journal order).
    fn undo_substitute(&mut self, aig: &mut Aig, u: &SubstUndo) {
        for e in u.fanin_edits.iter().rev() {
            aig.undo_fanin_edit(e);
        }
        // The moved consumer entries are the current tail of the
        // target's list (later ops were already undone).
        let wlist = &mut self.consumers[u.wvar as usize];
        let tail = wlist.split_off(wlist.len() - u.moved_edges as usize);
        debug_assert!(self.consumers[u.node as usize].is_empty());
        self.consumers[u.node as usize] = tail;
        let total = u.moved_edges + u.moved_outputs;
        self.fanout[u.node as usize] += total;
        self.fanout[u.wvar as usize] -= total;
        for &(idx, old) in u.output_edits.iter().rev() {
            aig.set_output(idx, old);
            self.out_snapshot[idx] = old;
        }
        for &(id, old) in u.level_changes.iter().rev() {
            self.level[id as usize] = old;
        }
    }

    /// Absorbs the single AND node `id` just appended to `aig`
    /// (transaction append path; `sync` covers the bulk case).
    fn absorb_appended(&mut self, aig: &Aig, id: NodeId) {
        debug_assert_eq!(id as usize, self.level.len());
        self.level.push(0);
        self.fanout.push(0);
        self.consumers.push(Vec::new());
        self.queued.push(false);
        self.absorb_and(aig.fanins(id), id);
    }

    /// Exactly reverts one appended-AND absorb.
    fn undo_append(&mut self, aig: &mut Aig, id: NodeId) {
        let [f0, f1] = aig.fanins(id);
        self.fanout[f0.var() as usize] -= 1;
        self.fanout[f1.var() as usize] -= 1;
        debug_assert_eq!(self.consumers[f1.var() as usize].last(), Some(&id));
        self.consumers[f1.var() as usize].pop();
        debug_assert_eq!(self.consumers[f0.var() as usize].last(), Some(&id));
        self.consumers[f0.var() as usize].pop();
        aig.pop_node(id);
        self.level.pop();
        self.fanout.pop();
        self.consumers.pop();
        self.queued.pop();
    }

    fn enqueue(&mut self, id: NodeId) {
        if !self.queued[id as usize] {
            self.queued[id as usize] = true;
            self.heap.push(Reverse(id));
        }
    }

    fn absorb_and(&mut self, [f0, f1]: [Lit; 2], id: NodeId) {
        self.level[id as usize] =
            1 + self.level[f0.var() as usize].max(self.level[f1.var() as usize]);
        self.fanout[f0.var() as usize] += 1;
        self.fanout[f1.var() as usize] += 1;
        self.consumers[f0.var() as usize].push(id);
        self.consumers[f1.var() as usize].push(id);
    }

    fn refresh_max_level(&mut self) {
        self.max_level = self
            .out_snapshot
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
    }

    /// Asserts the incremental state equals the full-recompute oracle
    /// (debugging/testing aid; `O(n)`).
    ///
    /// # Panics
    ///
    /// Panics (with a diff message) on the first mismatch.
    pub fn assert_matches_oracle(&self, aig: &Aig) {
        let lv = analysis::levels(aig);
        assert_eq!(
            self.level, lv.level,
            "incremental levels diverged from oracle"
        );
        assert_eq!(self.max_level, lv.max_level, "max_level diverged");
        let fo = analysis::fanout_counts(aig);
        assert_eq!(self.fanout, fo, "incremental fanout diverged from oracle");
    }
}

/// A speculative, exactly-revertible edit session over a graph and
/// its [`IncrementalAnalysis`] (see the [module docs](self) for the
/// lifecycle and invariants).
///
/// # Examples
///
/// ```
/// use aig::{incremental::IncrementalAnalysis, incremental::Transaction, Aig};
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let ab = g.and(a, b);
/// g.add_output(ab, None::<&str>);
/// let baseline = aig::aiger::to_ascii(&g);
/// let mut inc = IncrementalAnalysis::new(&g);
///
/// // Speculatively deepen the graph, then change our mind.
/// let mut txn = Transaction::begin(&mut g, &mut inc);
/// let c = txn.and(ab, !a);
/// txn.retarget_output(0, c);
/// assert_eq!(txn.analysis().max_level(), 2);
/// txn.rollback();
///
/// assert_eq!(aig::aiger::to_ascii(&g), baseline);
/// inc.assert_matches_oracle(&g);
/// ```
#[derive(Debug)]
pub struct Transaction<'a> {
    aig: &'a mut Aig,
    inc: &'a mut IncrementalAnalysis,
    journal: Journal,
    base_nodes: usize,
    base_outputs: usize,
    min_touched: NodeId,
    touched: DirtyRegion,
}

impl<'a> Transaction<'a> {
    /// Opens a transaction over `aig` and its analysis.
    ///
    /// # Panics
    ///
    /// Panics if `inc` is out of sync with `aig`.
    pub fn begin(aig: &'a mut Aig, inc: &'a mut IncrementalAnalysis) -> Self {
        assert!(
            inc.num_nodes() == aig.num_nodes(),
            "analysis out of sync: call sync() or rebuild() first"
        );
        let base_nodes = aig.num_nodes();
        let base_outputs = aig.num_outputs();
        Transaction {
            aig,
            inc,
            journal: Journal::default(),
            base_nodes,
            base_outputs,
            min_touched: NodeId::MAX,
            touched: DirtyRegion::default(),
        }
    }

    /// The graph under edit (read access; edits go through the
    /// transaction methods so they land in the journal).
    pub fn aig(&self) -> &Aig {
        self.aig
    }

    /// The live analysis of the graph under edit.
    pub fn analysis(&self) -> &IncrementalAnalysis {
        self.inc
    }

    /// Number of journaled edits so far.
    pub fn edit_count(&self) -> usize {
        self.journal.ops.len()
    }

    /// The smallest node id any journaled edit may have touched
    /// (levels, fanout, fanins, consumer lists), or [`NodeId::MAX`]
    /// when nothing was edited. Everything strictly below is
    /// guaranteed untouched — the watermark incremental consumers
    /// (the mapper's DP-row reuse) key on.
    pub fn min_touched(&self) -> NodeId {
        self.min_touched
    }

    /// The accumulated [`DirtyRegion`] of every journaled edit so far
    /// (per-set sorted union across substitutions, appends and output
    /// retargets). This is the transaction's write footprint — the
    /// delta the SA loop hands to delta-based evaluators, and the
    /// region they re-sync over after a rollback. Accumulated over the
    /// transaction's whole lifetime; rolling back does not shrink it.
    pub fn touched_region(&self) -> &DirtyRegion {
        &self.touched
    }

    /// Strashed AND construction inside the transaction (the `append`
    /// edit). Returns an existing literal when structural hashing or
    /// the trivial rules resolve the request; otherwise the appended
    /// node is journaled and absorbed into the analysis.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        let before = self.aig.num_nodes();
        let l = self.aig.and(a, b);
        if self.aig.num_nodes() > before {
            let id = l.var();
            self.inc.absorb_appended(self.aig, id);
            self.journal.ops.push(UndoOp::Append { id });
            let [f0, f1] = self.aig.fanins(id);
            self.touch(f0.var().min(f1.var()));
            merge_sorted(&mut self.touched.nodes, &[id]);
            merge_sorted(&mut self.touched.edited, &[id]);
            let (lo, hi) = if f0.var() <= f1.var() {
                (f0.var(), f1.var())
            } else {
                (f1.var(), f0.var())
            };
            merge_sorted(&mut self.touched.fanout_touched, &[lo, hi]);
        }
        l
    }

    /// Retargets output `idx` to `lit` (journaled; analysis fanout
    /// and `max_level` follow immediately).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn retarget_output(&mut self, idx: usize, lit: Lit) {
        assert!(idx < self.base_outputs, "output {idx} out of bounds");
        let old = self.aig.outputs()[idx].lit;
        if old == lit {
            return;
        }
        self.aig.set_output(idx, lit);
        self.inc.fanout[old.var() as usize] -= 1;
        self.inc.fanout[lit.var() as usize] += 1;
        self.inc.out_snapshot[idx] = lit;
        self.inc.refresh_max_level();
        self.journal.ops.push(UndoOp::Retarget { idx, old });
        self.touch(old.var().min(lit.var()));
        merge_sorted(&mut self.touched.fanout_touched, &[old.var(), lit.var()]);
    }

    /// [`IncrementalAnalysis::substitute`] through the journal:
    /// rewires every reader of `node` to the equivalent literal
    /// `with` and re-levels the transitive fanout. Returns the
    /// [`DirtyRegion`] of the step.
    ///
    /// # Panics
    ///
    /// Exactly [`IncrementalAnalysis::substitute`]'s panics.
    pub fn substitute(&mut self, node: NodeId, with: Lit) -> &DirtyRegion {
        let mut undo = SubstUndo::default();
        self.inc
            .substitute_inner(self.aig, node, with, Some(&mut undo));
        self.journal.ops.push(UndoOp::Substitute(Box::new(undo)));
        if let Some(m) = self.inc.dirty.min_touched() {
            self.touch(m);
        }
        self.touched.merge(&self.inc.dirty);
        self.inc.last_dirty()
    }

    /// A marker at the current journal position. Edits made after the
    /// savepoint can be reverted selectively with
    /// [`Transaction::rollback_to`] while keeping everything before
    /// it — the partial-trial primitive (try a candidate cone, keep
    /// the transaction open either way).
    pub fn savepoint(&self) -> Savepoint {
        Savepoint {
            ops: self.journal.ops.len(),
            min_touched: self.min_touched,
            touched: self.touched.clone(),
        }
    }

    /// Reverts every edit journaled after `sp` (reverse order),
    /// restoring graph, strash table and analysis exactly to their
    /// state at [`Transaction::savepoint`]; the accumulated footprint
    /// ([`Transaction::touched_region`], [`Transaction::min_touched`])
    /// is restored with it.
    ///
    /// # Panics
    ///
    /// Panics if `sp` comes from a point this transaction has already
    /// rolled back past.
    pub fn rollback_to(&mut self, sp: &Savepoint) {
        assert!(
            sp.ops <= self.journal.ops.len(),
            "savepoint beyond the current journal"
        );
        while self.journal.ops.len() > sp.ops {
            let op = self.journal.ops.pop().expect("length checked");
            self.undo_op(op);
        }
        self.inc.refresh_max_level();
        self.min_touched = sp.min_touched;
        self.touched = sp.touched.clone();
    }

    /// Keeps every edit (drops the journal). Dropping the transaction
    /// without calling [`Transaction::rollback`] is equivalent.
    pub fn commit(self) {
        drop(self);
    }

    /// Reverts every journaled edit in reverse order, restoring the
    /// graph (nodes, outputs, structural-hash table) and the analysis
    /// exactly to their state at [`Transaction::begin`].
    pub fn rollback(mut self) {
        while let Some(op) = self.journal.ops.pop() {
            self.undo_op(op);
        }
        self.inc.refresh_max_level();
        debug_assert_eq!(self.aig.num_nodes(), self.base_nodes);
        debug_assert_eq!(self.aig.num_outputs(), self.base_outputs);
    }

    fn undo_op(&mut self, op: UndoOp) {
        match op {
            UndoOp::Substitute(u) => self.inc.undo_substitute(self.aig, &u),
            UndoOp::Append { id } => self.inc.undo_append(self.aig, id),
            UndoOp::Retarget { idx, old } => {
                let cur = self.aig.outputs()[idx].lit;
                self.aig.set_output(idx, old);
                self.inc.out_snapshot[idx] = old;
                self.inc.fanout[cur.var() as usize] -= 1;
                self.inc.fanout[old.var() as usize] += 1;
            }
        }
    }

    fn touch(&mut self, id: NodeId) {
        self.min_touched = self.min_touched.min(id);
    }
}

/// A journal position of a [`Transaction`], for
/// [`Transaction::rollback_to`].
#[derive(Clone, Debug)]
pub struct Savepoint {
    ops: usize,
    min_touched: NodeId,
    touched: DirtyRegion,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_growing_walk(seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..6).map(|_| g.add_input()).collect();
        for _ in 0..20 {
            let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            lits.push(g.and(a, b));
        }
        g.add_output(*lits.last().unwrap(), None::<&str>);
        let mut inc = IncrementalAnalysis::new(&g);
        inc.assert_matches_oracle(&g);

        for step in 0..60 {
            match rng.gen_range(0..3) {
                0 => {
                    // Append a handful of nodes.
                    for _ in 0..rng.gen_range(1..4) {
                        let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                        let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                        lits.push(g.and(a, b));
                    }
                    inc.sync(&g);
                }
                1 => {
                    // Retarget a random output.
                    let idx = rng.gen_range(0..g.num_outputs());
                    let l = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                    g.set_output(idx, l);
                    inc.sync(&g);
                }
                _ => {
                    // Substitute a random AND by a random earlier lit.
                    let ands: Vec<NodeId> = g.and_ids().collect();
                    if ands.is_empty() {
                        continue;
                    }
                    let node = ands[rng.gen_range(0..ands.len())];
                    let with = Lit::new(rng.gen_range(0..node), rng.gen());
                    inc.substitute(&mut g, node, with);
                }
            }
            inc.assert_matches_oracle(&g);
            let _ = step;
        }
    }

    #[test]
    fn random_edit_walks_match_oracle() {
        for seed in 0..8 {
            random_growing_walk(seed);
        }
    }

    #[test]
    fn substitute_relevels_only_fanout_cone() {
        // Two independent chains; substituting inside one must not
        // re-level the other.
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..6).map(|_| g.add_input()).collect();
        let mut left = ins[0];
        for l in &ins[1..3] {
            left = g.and(left, *l);
        }
        let mut right = ins[3];
        for l in &ins[4..6] {
            right = g.and(right, *l);
        }
        g.add_output(left, None::<&str>);
        g.add_output(right, None::<&str>);
        let mut inc = IncrementalAnalysis::new(&g);
        // Substitute the first AND of the left chain by an input.
        let first_and = g.and_ids().next().unwrap();
        let dirty = inc.substitute(&mut g, first_and, ins[0]);
        let releveled: Vec<NodeId> = dirty.nodes().to_vec();
        let edited: Vec<NodeId> = dirty.edited().to_vec();
        let fanout_touched: Vec<NodeId> = dirty.fanout_touched().to_vec();
        let min = dirty.min_touched();
        inc.assert_matches_oracle(&g);
        // Only the left chain's remaining AND is re-leveled; the
        // right chain stays untouched.
        assert_eq!(releveled, vec![left.var()]);
        assert_eq!(edited, vec![left.var()]);
        // Fanout moved from the substituted AND to the input.
        assert_eq!(fanout_touched, vec![ins[0].var(), first_and]);
        assert_eq!(min, Some(ins[0].var()));
    }

    #[test]
    fn substitute_preserves_function_for_equivalent_nodes() {
        // f = (a&b) | (a&!b) == a; substitute the OR node by `a`.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let t0 = g.and(a, b);
        let t1 = g.and(a, !b);
        let f = g.or(t0, t1); // == a
        let top = g.and(f, b); // consumer of f
        g.add_output(top, None::<&str>);
        let before = g.clone();
        let mut inc = IncrementalAnalysis::new(&g);
        inc.substitute(&mut g, f.var(), a.complement_if(f.is_complement()));
        inc.assert_matches_oracle(&g);
        assert!(crate::sim::equiv_exhaustive(&before, &g).expect("tiny"));
        // The substituted cone got shallower.
        assert!(inc.max_level() < crate::analysis::levels(&before).max_level);
    }

    #[test]
    #[should_panic(expected = "append-only")]
    fn sync_rejects_shrunk_graph() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, None::<&str>);
        let inc = IncrementalAnalysis::new(&g);
        let smaller = Aig::new();
        let mut inc = inc;
        inc.sync(&smaller);
    }

    #[test]
    #[should_panic(expected = "differ from node")]
    fn substitute_rejects_self_substitution() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, None::<&str>);
        let mut inc = IncrementalAnalysis::new(&g);
        inc.substitute(&mut g, f.var(), Lit::new(f.var(), false));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "cycle")]
    fn substitute_rejects_cycle_through_reader() {
        // h reads f; substituting f by h would make h read itself.
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        let h = g.and(f, b);
        g.add_output(h, None::<&str>);
        let mut inc = IncrementalAnalysis::new(&g);
        inc.substitute(&mut g, f.var(), Lit::new(h.var(), false));
    }

    /// The forward-splice shape: append a replacement cone inside a
    /// transaction, substitute an *earlier* node by the appended root,
    /// and check analysis exactness on commit plus exact restoration
    /// on rollback.
    #[test]
    fn transaction_forward_splice_roundtrip() {
        for commit in [false, true] {
            let mut g = Aig::new();
            let a = g.add_input();
            let b = g.add_input();
            let c = g.add_input();
            let ab = g.and(a, b);
            let f = g.and(ab, c);
            let top = g.and(f, !a);
            g.add_output(top, None::<&str>);
            let before_ascii = crate::aiger::to_ascii(&g);
            let before_probe = strash_probe(&g);
            let mut inc = IncrementalAnalysis::new(&g);

            let mut txn = Transaction::begin(&mut g, &mut inc);
            // Fresh cone above the high-water mark: (b & c) & a, a
            // re-association of f = (a & b) & c.
            let bc = txn.and(b, c);
            let f2 = txn.and(bc, a);
            assert!(f2.var() > f.var(), "replacement root must be appended");
            txn.substitute(f.var(), f2);
            assert!(!txn.aig().is_topological(), "splice leaves forward refs");
            txn.analysis().assert_matches_oracle(txn.aig());
            if commit {
                txn.commit();
                assert!(!g.is_topological());
                assert_eq!(g.forward_ids().collect::<Vec<_>>(), vec![top.var()]);
                inc.assert_matches_oracle(&g);
                // A swept copy is topological again and equivalent.
                let swept = g.sweep();
                assert!(swept.is_topological());
                assert!(crate::sim::equiv_exhaustive(&g, &swept).expect("tiny"));
            } else {
                txn.rollback();
                assert!(g.is_topological());
                assert_eq!(crate::aiger::to_ascii(&g), before_ascii);
                assert_eq!(strash_probe(&g), before_probe);
                inc.assert_matches_oracle(&g);
            }
        }
    }

    /// Savepoints revert the journal suffix only, restoring the
    /// accumulated footprint with it.
    #[test]
    fn savepoint_partial_rollback() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let f = g.and(ab, c);
        g.add_output(f, None::<&str>);
        let mut inc = IncrementalAnalysis::new(&g);

        let mut txn = Transaction::begin(&mut g, &mut inc);
        let keep = txn.and(f, !a);
        txn.retarget_output(0, keep);
        let sp = txn.savepoint();
        let wm = txn.min_touched();
        let mid_ascii = crate::aiger::to_ascii(txn.aig());

        let bc = txn.and(b, c);
        let f2 = txn.and(bc, a);
        txn.substitute(f.var(), f2);
        assert_ne!(crate::aiger::to_ascii(txn.aig()), mid_ascii);
        txn.rollback_to(&sp);
        assert_eq!(crate::aiger::to_ascii(txn.aig()), mid_ascii);
        assert_eq!(txn.min_touched(), wm);
        assert_eq!(txn.edit_count(), 2);
        txn.analysis().assert_matches_oracle(txn.aig());
        txn.commit();
        inc.assert_matches_oracle(&g);
    }

    /// A graph fingerprint that includes strash *behavior*: serialize
    /// the structure, then probe `find_and` over every node pair.
    fn strash_probe(g: &Aig) -> Vec<Option<Lit>> {
        let n = g.num_nodes() as NodeId;
        let mut probes = Vec::new();
        for a in 0..n {
            for b in a..n {
                probes.push(g.find_and(Lit::new(a, false), Lit::new(b, true)));
                probes.push(g.find_and(Lit::new(a, false), Lit::new(b, false)));
            }
        }
        probes
    }

    /// Random transactions (substitutions, retargets, appends) rolled
    /// back must restore serialization, strash behavior, and analysis
    /// exactly; committed ones must match the oracle.
    #[test]
    fn transaction_rollback_restores_everything() {
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(0xBEEF ^ seed);
            let mut g = Aig::new();
            let mut lits: Vec<Lit> = (0..5).map(|_| g.add_input()).collect();
            for _ in 0..30 {
                let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                lits.push(g.and(a, b));
            }
            for _ in 0..3 {
                let l = lits[rng.gen_range(0..lits.len())];
                g.add_output(l.complement_if(rng.gen()), None::<&str>);
            }
            let mut inc = IncrementalAnalysis::new(&g);

            for _ in 0..12 {
                let before_ascii = crate::aiger::to_ascii(&g);
                let before_probe = strash_probe(&g);
                let before_inc = (
                    inc.level.clone(),
                    inc.fanout.clone(),
                    inc.out_snapshot.clone(),
                    inc.max_level,
                );
                let commit = rng.gen::<bool>();
                let mut txn = Transaction::begin(&mut g, &mut inc);
                for _ in 0..rng.gen_range(1..6) {
                    match rng.gen_range(0..3) {
                        0 => {
                            let n = txn.aig().num_nodes() as NodeId;
                            let a = Lit::new(rng.gen_range(0..n), rng.gen());
                            let b = Lit::new(rng.gen_range(0..n), rng.gen());
                            txn.and(a, b);
                        }
                        1 => {
                            let idx = rng.gen_range(0..txn.aig().num_outputs());
                            let n = txn.aig().num_nodes() as NodeId;
                            let l = Lit::new(rng.gen_range(0..n), rng.gen());
                            txn.retarget_output(idx, l);
                        }
                        _ => {
                            let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                            if ands.is_empty() {
                                continue;
                            }
                            let node = ands[rng.gen_range(0..ands.len())];
                            let with = Lit::new(rng.gen_range(0..node), rng.gen());
                            txn.substitute(node, with);
                        }
                    }
                }
                if commit {
                    txn.commit();
                    inc.assert_matches_oracle(&g);
                } else {
                    txn.rollback();
                    assert_eq!(
                        crate::aiger::to_ascii(&g),
                        before_ascii,
                        "seed {seed}: rollback must restore the graph"
                    );
                    assert_eq!(
                        strash_probe(&g),
                        before_probe,
                        "seed {seed}: rollback must restore strash behavior"
                    );
                    assert_eq!(inc.level, before_inc.0, "seed {seed}: levels");
                    assert_eq!(inc.fanout, before_inc.1, "seed {seed}: fanout");
                    assert_eq!(inc.out_snapshot, before_inc.2, "seed {seed}: outputs");
                    assert_eq!(inc.max_level, before_inc.3, "seed {seed}: max_level");
                    inc.assert_matches_oracle(&g);
                }
            }
        }
    }

    /// The transaction's min-touched watermark never exceeds any
    /// touched id: everything below it must be bit-identical across
    /// the edit.
    #[test]
    fn min_touched_is_a_true_watermark() {
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0xAB ^ seed);
            let mut g = Aig::new();
            let mut lits: Vec<Lit> = (0..5).map(|_| g.add_input()).collect();
            for _ in 0..40 {
                let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                lits.push(g.and(a, b));
            }
            g.add_output(*lits.last().unwrap(), None::<&str>);
            let mut inc = IncrementalAnalysis::new(&g);
            let before_levels = inc.level.clone();
            let before_fanout = inc.fanout.clone();
            let before_fanins: Vec<[Lit; 2]> = g.and_ids().map(|id| g.fanins(id)).collect();
            let and_ids: Vec<NodeId> = g.and_ids().collect();

            let mut txn = Transaction::begin(&mut g, &mut inc);
            for _ in 0..4 {
                let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                let node = ands[rng.gen_range(0..ands.len())];
                let with = Lit::new(rng.gen_range(0..node), rng.gen());
                txn.substitute(node, with);
            }
            let wm = txn.min_touched();
            txn.commit();

            for id in 0..wm {
                assert_eq!(inc.level[id as usize], before_levels[id as usize]);
                assert_eq!(inc.fanout[id as usize], before_fanout[id as usize]);
            }
            for (k, &id) in and_ids.iter().enumerate() {
                if id < wm {
                    assert_eq!(g.fanins(id), before_fanins[k], "node {id} below watermark");
                }
            }
        }
    }

    /// `and()` inside a transaction strashes against the live table,
    /// and rollback of an append removes the strash entry again.
    #[test]
    fn transaction_append_strash_roundtrip() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let ab = g.and(a, b);
        g.add_output(ab, None::<&str>);
        let mut inc = IncrementalAnalysis::new(&g);

        let mut txn = Transaction::begin(&mut g, &mut inc);
        assert_eq!(txn.and(a, b), ab, "existing node is strashed");
        assert_eq!(txn.edit_count(), 0, "no journal entry for a strash hit");
        let fresh = txn.and(ab, !a);
        assert_eq!(txn.analysis().level(fresh.var()), 2);
        txn.rollback();

        assert!(g.find_and(ab, !a).is_none(), "appended entry removed");
        assert_eq!(g.find_and(a, b), Some(ab), "original entry intact");
        inc.assert_matches_oracle(&g);
    }

    /// Two independent cones; edits inside one must touch no node of
    /// the other's region, and a merged region covers both.
    #[test]
    fn dirty_region_overlap_and_merge() {
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..6).map(|_| g.add_input()).collect();
        let mut left = ins[0];
        for l in &ins[1..3] {
            left = g.and(left, *l);
        }
        let mut right = ins[3];
        for l in &ins[4..6] {
            right = g.and(right, *l);
        }
        g.add_output(left, None::<&str>);
        g.add_output(right, None::<&str>);
        let mut inc = IncrementalAnalysis::new(&g);

        let first_left = g.and_ids().next().unwrap();
        let left_dirty = inc.substitute(&mut g, first_left, ins[0]).clone();
        let first_right = g.and_ids().find(|&id| id > left.var()).unwrap();
        let right_dirty = inc.substitute(&mut g, first_right, ins[3]).clone();

        let footprint = |r: &DirtyRegion| -> std::collections::BTreeSet<NodeId> {
            r.nodes()
                .iter()
                .chain(r.edited())
                .chain(r.fanout_touched())
                .copied()
                .collect()
        };
        assert!(
            footprint(&left_dirty).is_disjoint(&footprint(&right_dirty)),
            "independent cones must report disjoint regions"
        );

        let mut merged = left_dirty.clone();
        merged.merge(&right_dirty);
        let whole = footprint(&merged);
        assert!(footprint(&left_dirty).is_subset(&whole));
        assert!(footprint(&right_dirty).is_subset(&whole));
        assert_eq!(
            merged.min_touched(),
            left_dirty.min_touched().min(right_dirty.min_touched())
        );
        for (part, whole) in [
            (left_dirty.edited(), merged.edited()),
            (right_dirty.edited(), merged.edited()),
            (left_dirty.fanout_touched(), merged.fanout_touched()),
            (right_dirty.fanout_touched(), merged.fanout_touched()),
        ] {
            assert!(part.iter().all(|id| whole.contains(id)));
        }
        assert!(merged.edited().windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    /// A transaction's accumulated footprint equals the merge of its
    /// per-edit regions and survives until commit.
    #[test]
    fn transaction_touched_region_accumulates() {
        let mut g = Aig::new();
        let ins: Vec<Lit> = (0..6).map(|_| g.add_input()).collect();
        let mut left = ins[0];
        for l in &ins[1..3] {
            left = g.and(left, *l);
        }
        let mut right = ins[3];
        for l in &ins[4..6] {
            right = g.and(right, *l);
        }
        g.add_output(left, None::<&str>);
        g.add_output(right, None::<&str>);
        let mut inc = IncrementalAnalysis::new(&g);
        let first_left = g.and_ids().next().unwrap();
        let first_right = g.and_ids().find(|&id| id > left.var()).unwrap();

        let mut txn = Transaction::begin(&mut g, &mut inc);
        assert!(txn.touched_region().min_touched().is_none(), "starts empty");
        let d1 = txn.substitute(first_left, ins[0]).clone();
        let d2 = txn.substitute(first_right, ins[3]).clone();
        let mut expect = d1.clone();
        expect.merge(&d2);
        assert_eq!(txn.touched_region().edited(), expect.edited());
        assert_eq!(
            txn.touched_region().fanout_touched(),
            expect.fanout_touched()
        );
        assert_eq!(txn.touched_region().min_touched(), expect.min_touched());
        assert_eq!(txn.touched_region().nodes(), expect.nodes());
        txn.commit();
    }
}
