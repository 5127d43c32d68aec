//! The And-Inverter Graph container.
//!
//! # Storage layout (struct-of-arrays)
//!
//! Node fanins live in two parallel arrays, `fanin0` / `fanin1`,
//! indexed by node id ([`Aig::fanin_arrays`] exposes them to hot
//! loops). A node is an AND gate iff its `fanin0` entry is a real
//! literal; the constant node 0 and primary inputs hold
//! [`Lit::INVALID`] in both lanes. The former array-of-structs
//! (`Node { fanin: [Lit; 2] }`) layout paid for both lanes on every
//! touch; the split keeps single-lane scans (topological DFS seeding,
//! liveness marking, fanout counting) at half the bandwidth and makes
//! a clone a flat copy per lane.
//!
//! # Structural-hash invariants
//!
//! The strash table ([`crate::strash::StrashTable`], open addressing,
//! reservable, rebuild-free on clone) maps the packed fanin
//! pair `(lo.raw() << 32) | hi.raw()` (with `lo.raw() <= hi.raw()`) of
//! every *canonically owned* AND node to its id:
//!
//! * [`Aig::and`] never creates a duplicate pair — it returns the
//!   owner found in the table;
//! * [`Aig::replace_fanins`] transfers ownership exactly: the old key
//!   is dropped iff `id` owned it, the new key is claimed iff no
//!   other node owns it, and the returned [`FaninEdit`] records both
//!   decisions so [`Aig::undo_fanin_edit`] (applied in reverse
//!   journal order) restores the table byte for byte;
//! * a pair can be *unowned* only transiently inside a transaction
//!   (two nodes holding equal fanins after a rewire — the second one
//!   keeps its key out of the table until the journal resolves).
//!
//! Fanins of AND nodes are never [`Lit::INVALID`], which is what makes
//! the packed key `u64::MAX` safe as the table's empty sentinel.

use crate::lit::{Lit, NodeId};
use crate::strash::StrashTable;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The kind of an AIG node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The constant-false node (always node 0).
    Const,
    /// A primary input.
    Input,
    /// A two-input AND gate.
    And,
}

/// A primary output: a literal plus an optional symbol name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Output {
    /// The literal driving this output.
    pub lit: Lit,
    /// Optional symbol-table name.
    pub name: Option<String>,
}

/// Undo record for one [`Aig::replace_fanins`] call (see
/// [`Aig::undo_fanin_edit`]); part of the transaction rollback
/// machinery in [`crate::incremental`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaninEdit {
    id: NodeId,
    old: [Lit; 2],
    removed_old_key: bool,
    inserted_new_key: bool,
    noop: bool,
}

/// Packs a sorted fanin pair into the strash key (see module docs).
#[inline]
fn strash_key(x: Lit, y: Lit) -> u64 {
    debug_assert!(x.raw() <= y.raw());
    ((x.raw() as u64) << 32) | y.raw() as u64
}

/// A dependency-order snapshot of the graph's AND nodes: the listing
/// itself ([`TopoIndex::order`], fanins first) plus the inverse
/// *position* table ([`TopoIndex::positions`]) consumers use as a
/// worklist key — `pos[leaf] < pos[root]` for every node in a root's
/// transitive fanin, whatever the raw ids say.
///
/// Produced by [`Aig::topo_and_order`], which caches one instance per
/// *forward epoch*: the snapshot is derived at most once between
/// structural edits, delta-extended in place when fresh nodes are
/// appended (they only reference earlier ids, so pushing them at the
/// tail keeps the order valid), and dropped whenever an edit could
/// reorder dependencies (`Aig::replace_fanins` /
/// `Aig::undo_fanin_edit` introducing a non-preceding fanin,
/// `Aig::pop_node` mid-order). Holding the `Arc` across edits is
/// safe but yields a stale snapshot — refetch per use.
#[derive(Debug)]
pub struct TopoIndex {
    order: Vec<NodeId>,
    pos: Vec<u32>,
}

impl TopoIndex {
    /// Position value of the constant and of primary inputs — they
    /// precede every AND node in dependency order.
    pub const NOT_AND: u32 = u32::MAX;

    /// The AND ids in dependency order (fanins before consumers).
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Per-node position key, indexed by node id: `pos[order[i]] == i`
    /// for AND nodes, [`TopoIndex::NOT_AND`] for the constant and
    /// primary inputs (which sort before every AND — callers ordering
    /// mixed ids map the sentinel to the front).
    #[inline]
    pub fn positions(&self) -> &[u32] {
        &self.pos
    }
}

impl std::ops::Deref for TopoIndex {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.order
    }
}

/// A combinational And-Inverter Graph with structural hashing.
///
/// Nodes are stored in an arena: node 0 is the constant-false node,
/// and an AND node made by [`Aig::and`] appears after both of its
/// fanins. A transaction that splices an appended cone into an
/// earlier node leaves forward references ([`Aig::forward_ids`]), so
/// ascending ids are a dependency order only while
/// [`Aig::is_topological`] holds; code that needs dependency order
/// uses [`Aig::for_each_and_topo`]. Inversion is represented on edges
/// via [`Lit`] complement bits, so the graph itself only contains AND
/// gates and inputs.
///
/// [`Aig::and`] performs constant propagation, trivial simplification
/// (`a & a = a`, `a & !a = 0`, ...) and structural hashing, so
/// logically identical AND gates are created only once.
///
/// # Examples
///
/// Build a full adder and inspect it:
///
/// ```
/// use aig::Aig;
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let cin = g.add_input();
/// let ab = g.xor(a, b);
/// let sum = g.xor(ab, cin);
/// let and_ab = g.and(a, b);
/// let and_c = g.and(cin, ab);
/// let carry = g.or(and_ab, and_c);
/// g.add_output(sum, Some("sum"));
/// g.add_output(carry, Some("carry"));
///
/// assert_eq!(g.num_inputs(), 3);
/// assert_eq!(g.num_outputs(), 2);
/// assert!(g.num_ands() <= 9);
/// ```
pub struct Aig {
    /// First fanin per node id; [`Lit::INVALID`] for the constant and
    /// primary inputs (struct-of-arrays, see module docs).
    fanin0: Vec<Lit>,
    /// Second fanin per node id, same convention as `fanin0`.
    fanin1: Vec<Lit>,
    inputs: Vec<NodeId>,
    input_names: Vec<Option<String>>,
    outputs: Vec<Output>,
    strash: StrashTable,
    /// AND nodes with a fanin variable *greater* than their own id.
    ///
    /// Fresh nodes from [`Aig::and`] always reference earlier ids, so
    /// this set only gains members through [`Aig::replace_fanins`] —
    /// i.e. when a transaction splices an appended replacement cone
    /// into an existing node. While non-empty, ascending id order is
    /// no longer a topological order and traversals must go through
    /// [`Aig::for_each_and_topo`] / [`Aig::topo_and_order`].
    forward: BTreeSet<NodeId>,
    /// Lazily derived [`TopoIndex`] for the current forward epoch
    /// (`None` until [`Aig::topo_and_order`] is called, and again
    /// after any structural edit that could reorder dependencies).
    /// Behind a `Mutex` so the read-only accessor can fill it from
    /// `&self` while the graph stays `Sync` for `aig::par`.
    topo_cache: Mutex<Option<Arc<TopoIndex>>>,
    name: String,
}

impl Clone for Aig {
    fn clone(&self) -> Self {
        Aig {
            fanin0: self.fanin0.clone(),
            fanin1: self.fanin1.clone(),
            inputs: self.inputs.clone(),
            input_names: self.input_names.clone(),
            outputs: self.outputs.clone(),
            strash: self.strash.clone(),
            forward: self.forward.clone(),
            // The snapshot is immutable and valid for the identical
            // clone; sharing the `Arc` keeps the clone cheap.
            topo_cache: Mutex::new(self.topo_cache.lock().unwrap().clone()),
            name: self.name.clone(),
        }
    }
}

/// Content equality: both fanin lanes (node ids included), the
/// primary inputs and their names, the outputs with their names, and
/// the design name. The strash table, the forward-reference set and
/// the topological-order cache are bookkeeping over that content and
/// are not compared.
impl PartialEq for Aig {
    fn eq(&self, other: &Aig) -> bool {
        self.fanin0 == other.fanin0
            && self.fanin1 == other.fanin1
            && self.inputs == other.inputs
            && self.input_names == other.input_names
            && self.outputs == other.outputs
            && self.name == other.name
    }
}

impl Eq for Aig {}

impl Default for Aig {
    fn default() -> Self {
        Self::new()
    }
}

impl Aig {
    /// Creates an empty AIG containing only the constant-false node.
    pub fn new() -> Self {
        Aig {
            fanin0: vec![Lit::INVALID],
            fanin1: vec![Lit::INVALID],
            inputs: Vec::new(),
            input_names: Vec::new(),
            outputs: Vec::new(),
            strash: StrashTable::new(),
            forward: BTreeSet::new(),
            topo_cache: Mutex::new(None),
            name: String::new(),
        }
    }

    /// Creates an empty AIG with `n` primary inputs already added.
    pub fn with_inputs(n: usize) -> Self {
        let mut g = Aig::new();
        for _ in 0..n {
            g.add_input();
        }
        g
    }

    /// Pre-sizes the node lanes and the strash table for a graph of
    /// `nodes` total nodes of which `ands` are AND gates, so a
    /// known-size build (benchgen large tier, AIGER ingest) never
    /// grows incrementally.
    pub fn reserve_nodes(&mut self, nodes: usize, ands: usize) {
        let extra = nodes.saturating_sub(self.fanin0.len());
        self.fanin0.reserve(extra);
        self.fanin1.reserve(extra);
        self.strash.reserve(self.strash.len() + ands);
    }

    /// Bytes held by the per-node storage: both fanin lanes plus the
    /// strash slot arrays (capacities, not lengths — this is the
    /// resident footprint the bytes/node bench series tracks).
    pub fn node_storage_bytes(&self) -> usize {
        self.fanin0.capacity() * std::mem::size_of::<Lit>()
            + self.fanin1.capacity() * std::mem::size_of::<Lit>()
            + self.strash.storage_bytes()
    }

    /// A free-form design name (used in reports and AIGER comments).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the design name.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Total number of nodes including the constant and inputs.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.fanin0.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[inline]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of AND nodes (the paper's "node count" proxy for area).
    #[inline]
    pub fn num_ands(&self) -> usize {
        self.fanin0.len() - 1 - self.inputs.len()
    }

    /// The primary-input node ids in creation order.
    #[inline]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The primary outputs in creation order.
    #[inline]
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// The name of input `idx` (position in [`Aig::inputs`]), if any.
    pub fn input_name(&self, idx: usize) -> Option<&str> {
        self.input_names.get(idx).and_then(|n| n.as_deref())
    }

    /// Kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        if id == 0 {
            NodeKind::Const
        } else if self.fanin0[id as usize] != Lit::INVALID {
            NodeKind::And
        } else {
            NodeKind::Input
        }
    }

    /// Whether node `id` is an AND gate.
    #[inline]
    pub fn is_and(&self, id: NodeId) -> bool {
        id != 0 && self.fanin0[id as usize] != Lit::INVALID
    }

    /// The two fanin literals of AND node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an AND node.
    #[inline]
    pub fn fanins(&self, id: NodeId) -> [Lit; 2] {
        let f0 = self.fanin0[id as usize];
        assert!(f0 != Lit::INVALID, "node {id} is not an AND gate");
        [f0, self.fanin1[id as usize]]
    }

    /// The raw fanin lanes, indexed by node id: `(fanin0, fanin1)`,
    /// both of length [`Aig::num_nodes`], holding [`Lit::INVALID`] in
    /// both lanes for the constant and primary inputs.
    ///
    /// This is the bulk-scan interface for hot loops (levels, fanout
    /// counts, simulation, cut enumeration): one bounds check per
    /// slice instead of per node, and single-lane passes read half
    /// the bytes of the former array-of-structs layout.
    #[inline]
    pub fn fanin_arrays(&self) -> (&[Lit], &[Lit]) {
        (&self.fanin0, &self.fanin1)
    }

    /// Adds a fresh primary input and returns its (plain) literal.
    pub fn add_input(&mut self) -> Lit {
        self.add_named_input(None::<String>)
    }

    /// Adds a named primary input and returns its (plain) literal.
    pub fn add_named_input(&mut self, name: Option<impl Into<String>>) -> Lit {
        let id = self.fanin0.len() as NodeId;
        self.fanin0.push(Lit::INVALID);
        self.fanin1.push(Lit::INVALID);
        self.inputs.push(id);
        self.input_names.push(name.map(Into::into));
        self.topo_cache_append(id, false);
        Lit::new(id, false)
    }

    /// Delta-extends the cached [`TopoIndex`] for a freshly appended
    /// node: appended nodes only reference earlier ids, so the tail of
    /// the dependency order is the only place they can go. A snapshot
    /// some consumer still holds (`Arc` shared) cannot be mutated and
    /// is dropped instead — the next [`Aig::topo_and_order`] re-derives.
    #[inline]
    fn topo_cache_append(&mut self, id: NodeId, is_and: bool) {
        let cache = self.topo_cache.get_mut().unwrap();
        if let Some(arc) = cache.as_mut() {
            match Arc::get_mut(arc) {
                Some(ix) => {
                    debug_assert_eq!(ix.pos.len(), id as usize);
                    if is_and {
                        ix.pos.push(ix.order.len() as u32);
                        ix.order.push(id);
                    } else {
                        ix.pos.push(TopoIndex::NOT_AND);
                    }
                }
                None => *cache = None,
            }
        }
    }

    /// Keeps the cached [`TopoIndex`] across a fanin rewire iff both
    /// new fanins already precede the node in the cached order (then
    /// the old order is still a valid dependency order of the new
    /// graph); drops it otherwise — e.g. when a transaction splices an
    /// appended cone (tail positions) into an earlier node.
    #[inline]
    fn topo_cache_check_rewire(&mut self, id: NodeId, fanins: [Lit; 2]) {
        let cache = self.topo_cache.get_mut().unwrap();
        if let Some(ix) = cache.as_deref() {
            let p = ix.pos[id as usize];
            let precedes = |f: Lit| {
                let fp = ix.pos[f.var() as usize];
                fp == TopoIndex::NOT_AND || fp < p
            };
            if !(precedes(fanins[0]) && precedes(fanins[1])) {
                *cache = None;
            }
        }
    }

    /// Registers `lit` as a primary output; returns the output index.
    pub fn add_output(&mut self, lit: Lit, name: Option<impl Into<String>>) -> usize {
        debug_assert!((lit.var() as usize) < self.fanin0.len());
        self.outputs.push(Output {
            lit,
            name: name.map(Into::into),
        });
        self.outputs.len() - 1
    }

    /// Replaces the literal driving output `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set_output(&mut self, idx: usize, lit: Lit) {
        self.outputs[idx].lit = lit;
    }

    /// Renames output `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn rename_output(&mut self, idx: usize, name: Option<String>) {
        self.outputs[idx].name = name;
    }

    /// Returns the AND of `a` and `b`, creating a node only if needed.
    ///
    /// Applies constant propagation, the trivial rules
    /// `x & x = x`, `x & !x = 0`, and structural hashing, so the result
    /// may be an existing literal or even a constant.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant and trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (x, y) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        let key = strash_key(x, y);
        if let Some(id) = self.strash.get(key) {
            return Lit::new(id, false);
        }
        let id = self.fanin0.len() as NodeId;
        self.fanin0.push(x);
        self.fanin1.push(y);
        self.strash.insert(key, id);
        self.topo_cache_append(id, true);
        Lit::new(id, false)
    }

    /// Probes for the AND of `a` and `b` without creating a node.
    ///
    /// Applies the same constant propagation and trivial rules as
    /// [`Aig::and`]; returns `Some` when the result is a constant, a
    /// trivially reduced literal, or an existing strashed node, and
    /// `None` when [`Aig::and`] would have to allocate a new node.
    pub fn find_and(&self, a: Lit, b: Lit) -> Option<Lit> {
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Some(Lit::FALSE);
        }
        if a == Lit::TRUE {
            return Some(b);
        }
        if b == Lit::TRUE || a == b {
            return Some(a);
        }
        let (x, y) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        self.strash
            .get(strash_key(x, y))
            .map(|id| Lit::new(id, false))
    }

    /// Rewires the fanins of AND node `id` in place, keeping the
    /// structural-hash table consistent: the old key is dropped (if it
    /// still maps to `id`) and the new key is registered unless an
    /// equivalent node already owns it.
    ///
    /// This is the raw edit primitive behind
    /// [`crate::incremental::Transaction::substitute`]; it does not
    /// re-run the trivial-AND simplifications, so the node stays an AND
    /// gate even if its fanins become equal or complementary.
    ///
    /// Returns the [`FaninEdit`] undo record consumed by
    /// [`Aig::undo_fanin_edit`] (the transaction rollback path); the
    /// unit tests that edit a bare graph drop it.
    pub(crate) fn replace_fanins(&mut self, id: NodeId, a: Lit, b: Lit) -> FaninEdit {
        let old = [self.fanin0[id as usize], self.fanin1[id as usize]];
        debug_assert!(old[0] != Lit::INVALID, "node {id} is not an AND gate");
        let (x, y) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        if [x, y] == old {
            return FaninEdit {
                id,
                old,
                removed_old_key: false,
                inserted_new_key: false,
                noop: true,
            };
        }
        let old_key = strash_key(old[0], old[1]);
        let removed_old_key = if self.strash.get(old_key) == Some(id) {
            self.strash.remove(old_key);
            true
        } else {
            false
        };
        self.fanin0[id as usize] = x;
        self.fanin1[id as usize] = y;
        if x.var().max(y.var()) > id {
            self.forward.insert(id);
        } else {
            self.forward.remove(&id);
        }
        self.topo_cache_check_rewire(id, [x, y]);
        let inserted_new_key = self.strash.try_insert(strash_key(x, y), id);
        FaninEdit {
            id,
            old,
            removed_old_key,
            inserted_new_key,
            noop: false,
        }
    }

    /// Exactly reverts one [`Aig::replace_fanins`] edit: the node's
    /// fanins and both touched strash entries are restored. Edits must
    /// be undone in reverse application order (the transaction journal
    /// guarantees this), otherwise strash ownership may be wrong.
    pub(crate) fn undo_fanin_edit(&mut self, e: &FaninEdit) {
        if e.noop {
            return;
        }
        let cur = [self.fanin0[e.id as usize], self.fanin1[e.id as usize]];
        if e.inserted_new_key {
            let key = strash_key(cur[0], cur[1]);
            debug_assert_eq!(self.strash.get(key), Some(e.id));
            self.strash.remove(key);
        }
        self.fanin0[e.id as usize] = e.old[0];
        self.fanin1[e.id as usize] = e.old[1];
        if e.old[0].var().max(e.old[1].var()) > e.id {
            self.forward.insert(e.id);
        } else {
            self.forward.remove(&e.id);
        }
        self.topo_cache_check_rewire(e.id, e.old);
        if e.removed_old_key {
            self.strash.insert(strash_key(e.old[0], e.old[1]), e.id);
        }
    }

    /// Removes node `id`, which must be the most recently appended
    /// node (transaction rollback of an append). Drops its strash
    /// entry (AND) or its input registration (input).
    pub(crate) fn pop_node(&mut self, id: NodeId) {
        assert_eq!(
            id as usize + 1,
            self.fanin0.len(),
            "pop_node only removes the last node"
        );
        debug_assert!(
            !self.forward.contains(&id),
            "pop_node on a forward node {id}: undo substitutions before appends"
        );
        let f0 = self.fanin0.pop().expect("non-empty");
        let f1 = self.fanin1.pop().expect("non-empty");
        let was_and = f0 != Lit::INVALID;
        if was_and {
            let key = strash_key(f0, f1);
            debug_assert_eq!(self.strash.get(key), Some(id));
            self.strash.remove(key);
        } else {
            debug_assert_eq!(self.inputs.last(), Some(&id));
            self.inputs.pop();
            self.input_names.pop();
        }
        // Shrink the cached order in place when the popped node sits
        // at its tail (the common rollback shape: the cache was
        // extended or derived while the node was newest); a snapshot
        // derived later — or shared — is dropped instead.
        let cache = self.topo_cache.get_mut().unwrap();
        if let Some(arc) = cache.as_mut() {
            match Arc::get_mut(arc) {
                Some(ix)
                    if ix.pos.len() == id as usize + 1
                        && (!was_and || ix.order.last() == Some(&id)) =>
                {
                    if was_and {
                        ix.order.pop();
                    }
                    ix.pos.pop();
                }
                _ => *cache = None,
            }
        }
    }

    /// Returns the OR of `a` and `b` (built from AND + inversion).
    #[inline]
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Returns the XOR of `a` and `b` (three AND nodes or fewer).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let t0 = self.and(a, !b);
        let t1 = self.and(!a, b);
        self.or(t0, t1)
    }

    /// Returns the XNOR of `a` and `b`.
    #[inline]
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Returns `if s { t } else { e }` (a 2:1 multiplexer).
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// AND of an arbitrary number of literals (balanced reduction).
    ///
    /// Returns [`Lit::TRUE`] for an empty slice.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Self::and)
    }

    /// OR of an arbitrary number of literals (balanced reduction).
    ///
    /// Returns [`Lit::FALSE`] for an empty slice.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::or)
    }

    /// XOR of an arbitrary number of literals (balanced reduction).
    ///
    /// Returns [`Lit::FALSE`] for an empty slice.
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Self::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        empty: Lit,
        mut op: impl FnMut(&mut Self, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            _ => {
                let mut layer: Vec<Lit> = lits.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    for pair in layer.chunks(2) {
                        next.push(if pair.len() == 2 {
                            op(self, pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Iterates over the ids of all AND nodes in ascending id order.
    ///
    /// Ascending order is a topological order exactly when
    /// [`Aig::is_topological`] holds (always true for graphs built
    /// purely with [`Aig::and`]); after a transaction splices an
    /// appended cone into an earlier node, use
    /// [`Aig::for_each_and_topo`] for dependency-ordered traversal.
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.fanin0.len() as NodeId).filter(move |&id| self.fanin0[id as usize] != Lit::INVALID)
    }

    /// Whether ascending id order is a valid topological order (no AND
    /// node references a fanin with a larger id).
    #[inline]
    pub fn is_topological(&self) -> bool {
        self.forward.is_empty()
    }

    /// Ids of AND nodes whose fanins include a larger id (ascending).
    ///
    /// Empty iff [`Aig::is_topological`]; populated only by committed
    /// transactional substitutions that splice appended cones into
    /// earlier nodes.
    pub fn forward_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.forward.iter().copied()
    }

    /// The dependency-ordered (fanins first) [`TopoIndex`] over all
    /// AND node ids — the listing plus its inverse position table.
    /// Deterministic: iterative DFS seeded in ascending id order,
    /// visiting fanin 0 before fanin 1, which degenerates to plain
    /// ascending order on topological graphs.
    ///
    /// Cached per forward epoch: the DFS runs at most once between
    /// structural edits — repeat calls return the same snapshot
    /// (`Arc`-shared), and plain appends extend it in place instead of
    /// re-deriving. Structural edits that could reorder dependencies
    /// (`Aig::replace_fanins` introducing a non-preceding fanin,
    /// rollback pops of mid-order nodes) drop the cache; the next call
    /// re-derives against the current graph.
    pub fn topo_and_order(&self) -> Arc<TopoIndex> {
        let mut cache = self.topo_cache.lock().unwrap();
        if let Some(ix) = cache.as_ref() {
            return Arc::clone(ix);
        }
        let (fanin0, fanin1) = (&self.fanin0[..], &self.fanin1[..]);
        let n = fanin0.len();
        let mut order = Vec::with_capacity(self.num_ands());
        let mut pos = vec![TopoIndex::NOT_AND; n];
        // 0 = unvisited, 1 = on the current DFS path, 2 = emitted.
        let mut state = vec![0u8; n];
        let mut stack: Vec<(NodeId, bool)> = Vec::new();
        for root in 1..n as NodeId {
            if fanin0[root as usize] == Lit::INVALID || state[root as usize] == 2 {
                continue;
            }
            stack.push((root, false));
            while let Some((id, expanded)) = stack.pop() {
                if state[id as usize] == 2 {
                    continue;
                }
                if expanded {
                    state[id as usize] = 2;
                    pos[id as usize] = order.len() as u32;
                    order.push(id);
                    continue;
                }
                state[id as usize] = 1;
                stack.push((id, true));
                let f0 = fanin0[id as usize];
                let f1 = fanin1[id as usize];
                for f in [f1, f0] {
                    let v = f.var();
                    if v != 0 && fanin0[v as usize] != Lit::INVALID && state[v as usize] != 2 {
                        debug_assert!(state[v as usize] != 1, "combinational cycle at node {v}");
                        stack.push((v, false));
                    }
                }
            }
        }
        let ix = Arc::new(TopoIndex { order, pos });
        *cache = Some(Arc::clone(&ix));
        ix
    }

    /// Calls `f` for every AND node id in dependency order (fanins
    /// before consumers). On topological graphs this is the plain
    /// ascending [`Aig::and_ids`] walk at zero extra cost; with
    /// forward references it falls back to [`Aig::topo_and_order`].
    pub fn for_each_and_topo(&self, mut f: impl FnMut(NodeId)) {
        if self.forward.is_empty() {
            for id in self.and_ids() {
                f(id);
            }
        } else {
            for &id in self.topo_and_order().iter() {
                f(id);
            }
        }
    }

    /// Whether `target` lies in the transitive fanin of `from`
    /// (inclusive: `reaches(x, x)` is true).
    ///
    /// This is the exact cycle test for substitutions: rewiring the
    /// readers of `node` onto `with` closes a combinational cycle iff
    /// `reaches(with.var(), node)` — every fanin path into `node`
    /// comes from one of its readers, so reaching `node` from `with`
    /// is the same as reaching a reader. The DFS prunes on the
    /// forward-reference floor: below `min(target, first forward id)`
    /// every fanin strictly descends, so no path can climb back up to
    /// `target`.
    pub fn reaches(&self, from: NodeId, target: NodeId) -> bool {
        if from == target {
            return true;
        }
        if !self.is_and(from) {
            return false;
        }
        let floor = match self.forward.first() {
            None => target,
            Some(&mf) => target.min(mf),
        };
        if from < floor {
            return false;
        }
        let mut seen = vec![false; self.fanin0.len()];
        let mut stack = vec![from];
        while let Some(v) = stack.pop() {
            if seen[v as usize] {
                continue;
            }
            seen[v as usize] = true;
            let f0 = self.fanin0[v as usize];
            let f1 = self.fanin1[v as usize];
            for f in [f0.var(), f1.var()] {
                if f == target {
                    return true;
                }
                if f >= floor && self.is_and(f) && !seen[f as usize] {
                    stack.push(f);
                }
            }
        }
        false
    }

    /// Iterates over all node ids (constant, inputs, ANDs) in
    /// topological order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.fanin0.len() as NodeId
    }

    /// Rebuilds the AIG keeping only logic reachable from the outputs
    /// ("sweep"): dangling AND nodes are dropped, inputs are preserved.
    ///
    /// Returns the cleaned copy; `self` is untouched.
    ///
    /// A graph already in the form a sweep produces comes back as a
    /// clone, without a rebuild; every transform primitive sweeps its
    /// input, and most inputs are the swept output of another
    /// primitive. That form is checked in one O(n) pass:
    ///
    /// * the inputs are nodes `1..=I` in order, and every later node
    ///   is an AND;
    /// * every AND is reachable from the outputs;
    /// * every AND reads two distinct variables, neither of them the
    ///   constant, both below its own id, the smaller one in
    ///   `fanin0`: no forward reference, no `AND(x, x)`, `AND(x, !x)`
    ///   or constant fanin, and fanins in the `(lo, hi)` raw order
    ///   [`Aig::and`] stores;
    /// * every AND owns its structural-hash key, so no two ANDs share
    ///   a fanin pair.
    ///
    /// The rebuild of such a graph maps every node to its own id, so
    /// the clone equals it in content and in its AIGER bytes.
    pub fn sweep(&self) -> Aig {
        if self.is_swept() {
            return self.clone();
        }
        self.sweep_rebuild()
    }

    /// Whether [`Aig::sweep`] may return a clone (see its conditions).
    fn is_swept(&self) -> bool {
        if !self.forward.is_empty()
            || self.strash.len() != self.num_ands()
            || self
                .inputs
                .iter()
                .enumerate()
                .any(|(k, &pi)| pi as usize != k + 1)
        {
            return false;
        }
        // Every reader of a node has a larger id, so a descending pass
        // has marked a node by the time it reaches it, iff it is live.
        let mut live = vec![false; self.fanin0.len()];
        for o in &self.outputs {
            live[o.lit.var() as usize] = true;
        }
        for id in (self.inputs.len() + 1..self.fanin0.len()).rev() {
            let (f0, f1) = (self.fanin0[id].var(), self.fanin1[id].var());
            let live_and = live[id];
            let proper = 0 < f0 && f0 < f1 && (f1 as usize) < id;
            if !(live_and && proper) {
                return false;
            }
            live[f0 as usize] = true;
            live[f1 as usize] = true;
        }
        true
    }

    /// The rebuild behind [`Aig::sweep`], for any graph; the reference
    /// its fast path is tested against.
    pub(crate) fn sweep_rebuild(&self) -> Aig {
        let mut out = Aig::new();
        out.name = self.name.clone();
        let mut map: Vec<Lit> = vec![Lit::INVALID; self.fanin0.len()];
        map[0] = Lit::FALSE;
        for (idx, &pi) in self.inputs.iter().enumerate() {
            let lit = out.add_named_input(self.input_names[idx].clone());
            map[pi as usize] = lit;
        }
        // Mark reachable nodes.
        let mut live = vec![false; self.fanin0.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|o| o.lit.var()).collect();
        while let Some(id) = stack.pop() {
            if live[id as usize] {
                continue;
            }
            live[id as usize] = true;
            if self.is_and(id) {
                stack.push(self.fanin0[id as usize].var());
                stack.push(self.fanin1[id as usize].var());
            }
        }
        // Copy live ANDs in dependency order.
        self.for_each_and_topo(|id| {
            if !live[id as usize] {
                return;
            }
            let f0 = self.fanin0[id as usize];
            let f1 = self.fanin1[id as usize];
            let a = map[f0.var() as usize].complement_if(f0.is_complement());
            let b = map[f1.var() as usize].complement_if(f1.is_complement());
            map[id as usize] = out.and(a, b);
        });
        for o in &self.outputs {
            let l = map[o.lit.var() as usize].complement_if(o.lit.is_complement());
            out.add_output(l, o.name.clone());
        }
        out
    }

    /// Number of AND nodes reachable from the outputs (i.e. the size
    /// after a [`Aig::sweep`], without building the swept copy).
    pub fn num_live_ands(&self) -> usize {
        let mut live = vec![false; self.fanin0.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|o| o.lit.var()).collect();
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            if live[id as usize] {
                continue;
            }
            live[id as usize] = true;
            if self.is_and(id) {
                count += 1;
                stack.push(self.fanin0[id as usize].var());
                stack.push(self.fanin1[id as usize].var());
            }
        }
        count
    }

    /// Structural statistics used throughout the crate family.
    pub fn stats(&self) -> AigStats {
        AigStats {
            inputs: self.num_inputs(),
            outputs: self.num_outputs(),
            ands: self.num_ands(),
            levels: crate::analysis::levels(self).max_level,
        }
    }
}

/// Summary statistics of an [`Aig`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AigStats {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Number of AND nodes.
    pub ands: usize,
    /// Number of AND levels on the longest input-to-output path.
    pub levels: u32,
}

impl fmt::Display for AigStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "i/o = {}/{}  and = {}  lev = {}",
            self.inputs, self.outputs, self.ands, self.levels
        )
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig({:?}, pi={}, po={}, and={})",
            self.name,
            self.num_inputs(),
            self.num_outputs(),
            self.num_ands()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pos` must be the exact inverse of `order`, with the sentinel
    /// on every non-AND id.
    fn assert_index_consistent(g: &Aig, ix: &TopoIndex) {
        assert_eq!(ix.order().len(), g.num_ands());
        for (i, &id) in ix.order().iter().enumerate() {
            assert_eq!(ix.positions()[id as usize], i as u32);
        }
        for id in g.node_ids() {
            if !g.is_and(id) {
                assert_eq!(ix.positions()[id as usize], TopoIndex::NOT_AND);
            }
        }
    }

    #[test]
    fn topo_cache_stable_across_calls() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let _ = g.and(x, a);
        let t1 = g.topo_and_order();
        let t2 = g.topo_and_order();
        assert!(Arc::ptr_eq(&t1, &t2), "repeat calls share the snapshot");
        assert_index_consistent(&g, &t1);
    }

    #[test]
    fn topo_cache_extends_on_append() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let before = g.topo_and_order().order().to_vec();
        drop(g.topo_and_order());
        // Sole owner: fresh nodes extend the snapshot in place.
        let y = g.and(x, !a);
        let c = g.add_input();
        let z = g.and(y, c);
        let after = g.topo_and_order();
        assert_eq!(after.order()[..before.len()], before[..]);
        assert_eq!(after.order()[before.len()..], [y.var(), z.var()]);
        assert_index_consistent(&g, &after);
    }

    #[test]
    fn topo_cache_dropped_when_snapshot_shared() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let held = g.topo_and_order();
        // A live external reference pins the old snapshot; the cache
        // cannot extend it in place and must re-derive.
        let _ = g.and(x, !b);
        let fresh = g.topo_and_order();
        assert!(!Arc::ptr_eq(&held, &fresh));
        assert_eq!(held.order().len(), 1, "held snapshot is the stale one");
        assert_index_consistent(&g, &fresh);
    }

    #[test]
    fn topo_cache_survives_backward_rewire_drops_on_forward() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let x = g.and(a, b);
        let y = g.and(x, c);
        let z = g.and(y, a);
        drop(g.topo_and_order());
        // Rewiring onto earlier nodes preserves the cached order.
        let t1 = g.topo_and_order();
        g.replace_fanins(z.var(), x, c);
        let t2 = g.topo_and_order();
        assert!(Arc::ptr_eq(&t1, &t2));
        drop((t1, t2));
        // A forward fanin (an appended replacement cone spliced into
        // an earlier reader) invalidates it.
        let w = g.and(b, c);
        g.replace_fanins(x.var(), w, a);
        assert!(!g.is_topological());
        let t3 = g.topo_and_order();
        assert_index_consistent(&g, &t3);
        let px = t3.positions()[x.var() as usize];
        let pw = t3.positions()[w.var() as usize];
        assert!(pw < px, "fanin w must precede its reader x");
    }

    #[test]
    fn topo_cache_shrinks_on_tail_pop() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        drop(g.topo_and_order());
        let y = g.and(x, !a);
        let before = g.topo_and_order().order().to_vec();
        drop(g.topo_and_order());
        g.pop_node(y.var());
        let after = g.topo_and_order();
        assert_eq!(after.order(), &before[..before.len() - 1]);
        assert_index_consistent(&g, &after);
    }

    #[test]
    fn trivial_and_rules() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(Lit::TRUE, b), b);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn strashing_dedupes() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn or_demorgan() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let o = g.or(a, b);
        assert!(o.is_complement());
        assert_eq!(g.num_ands(), 1);
    }

    #[test]
    fn xor_structure() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.xor(a, b);
        assert_eq!(g.num_ands(), 3);
        // xor with self is false, xor with complement is true
        assert_eq!(g.xor(a, a), Lit::FALSE);
        assert_eq!(g.xor(a, !a), Lit::TRUE);
        let _ = x;
    }

    #[test]
    fn sweep_removes_dangling() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let keep = g.and(a, b);
        let _dangling = g.and(a, !b);
        g.add_output(keep, Some("f"));
        assert_eq!(g.num_ands(), 2);
        assert_eq!(g.num_live_ands(), 1);
        let swept = g.sweep();
        assert_eq!(swept.num_ands(), 1);
        assert_eq!(swept.num_inputs(), 2);
        assert_eq!(swept.num_outputs(), 1);
        assert_eq!(swept.outputs()[0].name.as_deref(), Some("f"));
    }

    /// `sweep()` equals the rebuild its fast path skips, in content and
    /// in binary AIGER bytes.
    fn assert_sweep_matches_rebuild(g: &Aig, what: &str) {
        let (fast, rebuilt) = (g.sweep(), g.sweep_rebuild());
        assert_eq!(fast, rebuilt, "{what}");
        assert_eq!(
            crate::aiger::to_binary(&fast),
            crate::aiger::to_binary(&rebuilt),
            "{what}"
        );
    }

    /// A graph in swept form, with the literals it was built from:
    /// inputs `a b c d`, then `x = a·b`, `y = x·!c`, `z = !y·d` and
    /// `w = x·c`, outputs `z` and `!w`.
    fn swept_base() -> (Aig, [Lit; 8]) {
        let mut g = Aig::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| g.add_named_input(Some(n)));
        let x = g.and(a, b);
        let y = g.and(x, !c);
        let z = g.and(!y, d);
        let w = g.and(x, c);
        g.add_output(z, Some("z"));
        g.add_output(!w, Some("w"));
        g.set_name("base");
        (g, [a, b, c, d, x, y, z, w])
    }

    #[test]
    fn a_swept_graph_sweeps_to_itself() {
        let (g, _) = swept_base();
        assert!(g.is_swept());
        assert_eq!(g.sweep(), g);
        assert_sweep_matches_rebuild(&g, "swept base");
    }

    #[test]
    fn sweep_matches_the_rebuild_on_unswept_shapes() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        let (base, [a, _, c, d, x, y, z, w]) = swept_base();
        let edited = |edit: &dyn Fn(&mut Aig)| {
            let mut g = base.clone();
            edit(&mut g);
            g
        };
        let forward = edited(&|g| {
            let mut inc = IncrementalAnalysis::new(g);
            let mut txn = Transaction::begin(g, &mut inc);
            let fresh = txn.and(a, !c);
            txn.substitute(x.var(), fresh);
            txn.commit();
            assert!(!g.is_topological());
        });
        let shapes = [
            (
                "a dead AND appended",
                edited(&|g| {
                    let _ = g.and(a, !d);
                }),
            ),
            (
                "an input added after ANDs",
                edited(&|g| {
                    let e = g.add_input();
                    let f = g.and(e, x);
                    g.add_output(f, Some("f"));
                }),
            ),
            ("a forward reference", forward),
            (
                "AND(x, x)",
                edited(&|g| {
                    let _ = g.replace_fanins(z.var(), d, d);
                }),
            ),
            (
                "AND(x, !x)",
                edited(&|g| {
                    let _ = g.replace_fanins(w.var(), x, !x);
                }),
            ),
            (
                "a constant fanin",
                edited(&|g| {
                    let _ = g.replace_fanins(y.var(), Lit::TRUE, x);
                }),
            ),
            (
                "two ANDs sharing one fanin pair",
                edited(&|g| {
                    let _ = g.replace_fanins(w.var(), x, !c);
                }),
            ),
        ];
        for (what, g) in &shapes {
            assert!(!g.is_swept(), "{what}");
            assert_sweep_matches_rebuild(g, what);
        }
    }

    /// Random graphs edited by random committed transactions, with a
    /// sweep now and then: `sweep()` matches the rebuild after every
    /// step, and a rebuilt graph of plain `Aig::and` nodes takes the
    /// fast path.
    #[test]
    fn sweep_matches_the_rebuild_through_random_committed_walks() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..32u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = Aig::new();
            let mut lits: Vec<Lit> = (0..5).map(|_| g.add_input()).collect();
            for _ in 0..40 {
                let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
                lits.push(g.and(a, b));
            }
            for k in 0..3 {
                g.add_output(lits[lits.len() - 1 - 7 * k], None::<&str>);
            }
            assert_sweep_matches_rebuild(&g, "random graph");
            let swept = g.sweep();
            assert!(swept.is_swept(), "seed {seed}");
            assert_eq!(swept.sweep(), swept, "seed {seed}");

            let mut inc = IncrementalAnalysis::new(&g);
            for step in 0..16 {
                let what = format!("seed {seed} step {step}");
                if rng.gen_bool(0.2) {
                    g = g.sweep();
                    inc.rebuild(&g);
                }
                let n = g.num_nodes() as NodeId;
                let mut txn = Transaction::begin(&mut g, &mut inc);
                let lit = Lit::new(rng.gen_range(0..n), rng.gen());
                match rng.gen_range(0..3) {
                    0 => {
                        let other = Lit::new(rng.gen_range(0..n), rng.gen());
                        let fresh = txn.and(lit, other);
                        txn.retarget_output(rng.gen_range(0..3), fresh);
                    }
                    1 => txn.retarget_output(rng.gen_range(0..3), lit),
                    _ => {
                        let node = rng.gen_range(1..n);
                        let aig = txn.aig();
                        if aig.is_and(node) && lit.var() != node && !aig.reaches(lit.var(), node) {
                            txn.substitute(node, lit);
                        }
                    }
                }
                txn.commit();
                assert_sweep_matches_rebuild(&g, &what);
            }
        }
    }

    #[test]
    fn and_many_balanced() {
        let mut g = Aig::new();
        let lits: Vec<Lit> = (0..8).map(|_| g.add_input()).collect();
        let f = g.and_many(&lits);
        g.add_output(f, None::<&str>);
        let lv = crate::analysis::levels(&g);
        assert_eq!(lv.max_level, 3); // log2(8)
        assert_eq!(g.num_ands(), 7);
    }

    #[test]
    fn mux_selects() {
        let mut g = Aig::new();
        let s = g.add_input();
        let t = g.add_input();
        let e = g.add_input();
        let m = g.mux(s, t, e);
        g.add_output(m, None::<&str>);
        let sim = crate::sim::SimTable::exhaustive(&g).expect("3 inputs");
        for p in 0..8 {
            let want = if sim.lit_bit(s, p) {
                sim.lit_bit(t, p)
            } else {
                sim.lit_bit(e, p)
            };
            assert_eq!(sim.lit_bit(m, p), want, "pattern {p}");
        }
    }

    #[test]
    fn stats_display() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, None::<&str>);
        let s = g.stats();
        assert_eq!(s.ands, 1);
        assert_eq!(s.levels, 1);
        assert!(format!("{s}").contains("and = 1"));
    }

    #[test]
    fn fanin_arrays_match_fanins() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, !b);
        let y = g.and(x, b);
        let (f0, f1) = g.fanin_arrays();
        assert_eq!(f0.len(), g.num_nodes());
        assert_eq!(f1.len(), g.num_nodes());
        assert_eq!(f0[0], Lit::INVALID);
        assert_eq!(f0[a.var() as usize], Lit::INVALID);
        for id in [x.var(), y.var()] {
            assert_eq!([f0[id as usize], f1[id as usize]], g.fanins(id));
        }
    }

    #[test]
    fn reserve_nodes_prevents_regrowth() {
        let mut g = Aig::new();
        g.reserve_nodes(1000, 900);
        let cap = {
            let (f0, _) = g.fanin_arrays();
            f0.len() // length is 1; capacity probe below via bytes
        };
        assert_eq!(cap, 1);
        let bytes = g.node_storage_bytes();
        let mut lits = vec![g.add_input(), g.add_input(), g.add_input()];
        for i in 0..900usize {
            let a = lits[i % lits.len()];
            let b = !lits[(i * 7 + 1) % lits.len()];
            lits.push(g.and(a, b));
        }
        assert_eq!(
            g.node_storage_bytes(),
            bytes,
            "reserved lanes and strash must not regrow"
        );
    }

    #[test]
    fn equality_is_over_content() {
        let mut g = Aig::new();
        let a = g.add_named_input(Some("a"));
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, Some("f"));
        // Reserved capacity and a filled topological cache are not
        // content.
        let mut h = g.clone();
        h.reserve_nodes(100, 90);
        let _ = h.topo_and_order();
        assert_eq!(g, h);

        let mut renamed = g.clone();
        renamed.rename_output(0, Some("g".to_owned()));
        assert_ne!(g, renamed);
        let mut titled = g.clone();
        titled.set_name("top");
        assert_ne!(g, titled);
        let mut grown = g.clone();
        let _ = grown.and(a, !b); // a dead AND still counts
        assert_ne!(g, grown);
        let mut swapped = Aig::new();
        let b2 = swapped.add_input();
        let a2 = swapped.add_named_input(Some("a"));
        let f2 = swapped.and(a2, b2);
        swapped.add_output(f2, Some("f"));
        assert_ne!(g, swapped, "input names are compared per position");
    }
}
