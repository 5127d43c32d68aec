//! K-feasible cut enumeration with cut functions.
//!
//! Cuts are the workhorse of both the rewriting engine (4-input cuts
//! resynthesized against an NPN cache) and the technology mapper
//! (4-input cuts Boolean-matched against the cell library). Because
//! the SA loop re-enumerates cuts on every candidate, this module is
//! the hottest code in the repository and is written allocation-free:
//!
//! * [`Cut`] keeps its leaves in an inline `[NodeId; 6]` (ABC-style)
//!   with a separate length, so cuts are `Copy` and merging two leaf
//!   sets never touches the heap;
//! * every cut carries a 64-bit Bloom-style *signature* of its leaf
//!   set; `sig_a & !sig_b != 0` proves `a ⊄ b`, which prefilters both
//!   the k-feasibility of merges (via a popcount bound) and the
//!   dominance scan in O(1);
//! * the truth table is masked to the cut's width once, at
//!   construction, instead of on every [`Cut::tt`] call;
//! * [`CutDb`] stores all cut lists in one flat arena indexed by
//!   per-node spans, so enumeration performs no per-node `Vec`
//!   allocations;
//! * a node's fanin cut pairs are merged *lazily, in size order*: the
//!   pair loop reads only signatures and records each pair whose
//!   popcount bound fits `k`; a pair is merged only once the size
//!   pass reaches its bound, so pairs whose bound exceeds the size at
//!   which the node's list filled are never merged at all;
//! * dominance reads only sizes, signatures and leaves, so a truth
//!   table is computed only for a cut that is kept, from the same
//!   fanin pair as always.
//!
//! [`shrink_support`] is the one support reduction of cut functions
//! (resynthesis and the mapper both call it once per cut): almost
//! every cut has full support and returns its table as is; otherwise
//! each missing variable is deleted by an O(n) mask-and-shift step.
//!
//! The previous `Vec`-backed implementation survives as
//! [`enumerate_cuts_naive`]; parity tests assert both produce
//! identical cut sets, and the component benchmark measures the
//! speedup between them.
//!
//! [`CutDb`] is the one cut table: [`enumerate_cuts`] builds one once,
//! a reused one is rebuilt in place by [`CutDb::build`], and the SA
//! loop's *in-place* moves keep one alive across graph edits. Seeded
//! by the [`DirtyRegion`](crate::incremental::DirtyRegion) of a
//! substitution, it recomputes only the edited nodes and the part of
//! their transitive fanout whose lists actually change (equality
//! cutoff), and supports exact rollback in step with an edit
//! [`Transaction`](crate::incremental::Transaction). Its table is
//! bit-identical to a fresh [`enumerate_cuts`] after any edit
//! sequence.

use crate::graph::Aig;
use crate::lit::{Lit, NodeId};
use std::collections::BinaryHeap;

/// Maximum number of leaves a [`Cut`] can hold.
pub const MAX_CUT_SIZE: usize = 6;

/// A k-feasible cut of a node: a set of leaves plus the function of
/// the node expressed over those leaves.
///
/// Leaves are sorted ascending; [`Cut::tt`] is the truth table over
/// the leaves (leaf `i` is variable `i`), already masked to the cut's
/// width, valid for cuts of at most six leaves. The truth table is
/// expressed for the *plain* (uncomplemented) polarity of the root
/// node.
#[derive(Clone, Copy, Debug)]
pub struct Cut {
    leaves: [NodeId; MAX_CUT_SIZE],
    len: u8,
    sig: u64,
    tt: u64,
}

impl PartialEq for Cut {
    fn eq(&self, other: &Self) -> bool {
        // sig is derived from leaves; tt is stored masked — plain
        // field comparison after the cheap discriminators.
        self.len == other.len
            && self.sig == other.sig
            && self.tt == other.tt
            && self.leaves() == other.leaves()
    }
}

impl Eq for Cut {}

#[inline]
fn leaf_sig(leaf: NodeId) -> u64 {
    1u64 << (leaf & 63)
}

#[inline]
fn width_mask(len: usize) -> u64 {
    let bits = 1usize << len;
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

impl Cut {
    /// The trivial cut `{node}` with the identity function.
    pub fn trivial(node: NodeId) -> Cut {
        let mut leaves = [0; MAX_CUT_SIZE];
        leaves[0] = node;
        Cut {
            leaves,
            len: 1,
            sig: leaf_sig(node),
            tt: 0b10, // f = x0 over one variable
        }
    }

    /// Builds a cut from sorted-ascending `leaves` and a truth table
    /// (masked to the cut width on construction).
    ///
    /// # Panics
    ///
    /// Panics if `leaves` has more than [`MAX_CUT_SIZE`] entries or is
    /// not strictly ascending.
    pub fn from_leaves(leaves: &[NodeId], tt: u64) -> Cut {
        assert!(
            leaves.len() <= MAX_CUT_SIZE,
            "cut of {} leaves",
            leaves.len()
        );
        assert!(
            leaves.windows(2).all(|w| w[0] < w[1]),
            "cut leaves must be sorted ascending: {leaves:?}"
        );
        let mut arr = [0; MAX_CUT_SIZE];
        arr[..leaves.len()].copy_from_slice(leaves);
        let mut sig = 0;
        for &l in leaves {
            sig |= leaf_sig(l);
        }
        Cut {
            leaves: arr,
            len: leaves.len() as u8,
            sig,
            tt: tt & width_mask(leaves.len()),
        }
    }

    /// The cut leaves, ascending node ids.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// The Bloom-style 64-bit signature of the leaf set (bit
    /// `leaf & 63` set for every leaf).
    #[inline]
    pub fn signature(&self) -> u64 {
        self.sig
    }

    /// The cut function over the leaves, masked to the cut width.
    #[inline]
    pub fn tt(&self) -> u64 {
        self.tt
    }

    /// Whether every leaf of `self` also appears in `other`
    /// (i.e. `self` dominates `other` and renders it redundant).
    #[inline]
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len || self.sig & !other.sig != 0 {
            return false;
        }
        self.subset_scan(other)
    }

    /// Exact subset test by merge scan (no signature prefilter); the
    /// property tests validate the prefilter against it.
    fn subset_scan(&self, other: &Cut) -> bool {
        let a = self.leaves();
        let b = other.leaves();
        let mut j = 0;
        for &l in a {
            while j < b.len() && b[j] < l {
                j += 1;
            }
            if j == b.len() || b[j] != l {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Merges the leaf sets of `a` and `b` into `(leaves, len, sig)`;
    /// `None` when the union exceeds `k` leaves.
    #[inline]
    fn merged_leaves(a: &Cut, b: &Cut, k: usize) -> Option<([NodeId; MAX_CUT_SIZE], u8, u64)> {
        let (la, lb) = (a.leaves(), b.leaves());
        let mut out = [0; MAX_CUT_SIZE];
        let (mut i, mut j, mut n) = (0, 0, 0usize);
        while i < la.len() || j < lb.len() {
            let next = if j == lb.len() || (i < la.len() && la[i] <= lb[j]) {
                let x = la[i];
                if j < lb.len() && lb[j] == x {
                    j += 1;
                }
                i += 1;
                x
            } else {
                let y = lb[j];
                j += 1;
                y
            };
            if n == k {
                return None;
            }
            out[n] = next;
            n += 1;
        }
        Some((out, n as u8, a.sig | b.sig))
    }
}

/// Duplicates each `2^p`-bit block of `tt`, i.e. inserts a don't-care
/// variable at position `p`. Butterfly spread by magic masks: the
/// input may occupy at most 32 bits (a 5-variable table), which holds
/// for every insertion on the way to a 6-variable result.
#[inline]
fn insert_var(tt: u64, p: usize) -> u64 {
    const SPREAD: [(u32, u64); 5] = [
        (1, 0x5555_5555_5555_5555),
        (2, 0x3333_3333_3333_3333),
        (4, 0x0F0F_0F0F_0F0F_0F0F),
        (8, 0x00FF_00FF_00FF_00FF),
        (16, 0x0000_FFFF_0000_FFFF),
    ];
    let k = 1u32 << p;
    let mut x = tt;
    for &(s, m) in SPREAD.iter().rev() {
        if s >= k {
            x = (x | (x << s)) & m;
        }
    }
    x | (x << k)
}

/// Re-expresses `tt` (over sorted leaf set `from`) over the sorted
/// superset leaf set `to`.
///
/// Runs one O(1) butterfly insertion per variable of `to` missing
/// from `from` (the hot operation of cut merging), instead of the
/// naive reference's O(2^n) per-minterm loop.
///
/// # Panics
///
/// Panics (debug) if `from` is not a subset of `to` or `to.len() > 6`.
pub fn expand_tt(tt: u64, from: &[NodeId], to: &[NodeId]) -> u64 {
    debug_assert!(to.len() <= MAX_CUT_SIZE);
    // Mask to `from`'s width first: the butterfly would otherwise OR
    // garbage high bits into valid positions of the result (the old
    // per-minterm loop ignored them implicitly).
    let mut t = tt & width_mask(from.len());
    // Invariant: `t` is expressed over the vars of `to[..i]` already
    // processed followed by the pending tail `from[j..]`; a var of
    // `to` absent from `from` is inserted at its final position `i`,
    // shifting the pending tail up by one.
    let mut j = 0;
    for (i, &v) in to.iter().enumerate() {
        if j < from.len() && from[j] == v {
            j += 1;
        } else {
            t = insert_var(t, i);
        }
    }
    debug_assert_eq!(j, from.len(), "`from` leaves must be a subset of `to`");
    t
}

/// `VAR_LO[i]`: the minterm positions whose variable `i` is 0.
const VAR_LO: [u64; MAX_CUT_SIZE] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0x0000_0000_FFFF_FFFF,
];

/// Deletes variable `i`, on which `tt` does not depend: keeps the
/// `x_i = 0` half and closes the gaps by mask-and-shift (the inverse
/// of `insert_var`'s butterfly), so variables above `i` move down by
/// one. O(n) word operations.
#[inline]
fn delete_var(tt: u64, i: usize) -> u64 {
    let mut x = tt & VAR_LO[i];
    for j in i..MAX_CUT_SIZE - 1 {
        x = (x | (x >> (1u32 << j))) & VAR_LO[j + 1];
    }
    x
}

/// Reduces a cut function to its support: drops the leaves `tt` does
/// not depend on and returns the table over the surviving leaves,
/// those leaves in order (the first `nv` entries of the array) and
/// `nv`; `None` when the function is constant. `tt` is read over
/// `leaves` (leaf `i` is variable `i`, at most six).
///
/// This is the one support reduction of the workspace: both
/// resynthesis loops and the technology mapper call it once per cut.
/// Almost every enumerated cut has full support, and such a cut's
/// table is returned as is; each missing variable costs one O(n)
/// mask-and-shift deletion. Allocation-free.
///
/// # Examples
///
/// ```
/// use aig::cut::shrink_support;
///
/// // f = x1 over leaves {10, 20}: leaf 10 is not in the support.
/// let (tt, kept, nv) = shrink_support(0b1100, &[10, 20]).expect("non-constant");
/// assert_eq!((tt, &kept[..nv]), (0b10, &[20][..]));
/// assert!(shrink_support(0b1111, &[10, 20]).is_none());
/// ```
pub fn shrink_support(tt: u64, leaves: &[NodeId]) -> Option<(u64, [NodeId; MAX_CUT_SIZE], usize)> {
    let n = leaves.len();
    debug_assert!(n <= MAX_CUT_SIZE);
    let tt = tt & width_mask(n);
    let mut support = 0u32;
    for (i, lo) in VAR_LO.iter().enumerate().take(n) {
        if (tt ^ (tt >> (1u32 << i))) & lo != 0 {
            support |= 1 << i;
        }
    }
    if support == 0 {
        return None;
    }
    let mut kept = [0; MAX_CUT_SIZE];
    if support == (1 << n) - 1 {
        kept[..n].copy_from_slice(leaves);
        return Some((tt, kept, n));
    }
    // Delete from the top, so pending indices stay put.
    let mut t = tt;
    for i in (0..n).rev() {
        if support >> i & 1 == 0 {
            t = delete_var(t, i);
        }
    }
    let mut nv = 0;
    for (i, &leaf) in leaves.iter().enumerate() {
        if support >> i & 1 == 1 {
            kept[nv] = leaf;
            nv += 1;
        }
    }
    Some((t, kept, nv))
}

/// Enumerates up to `max_cuts` k-feasible cuts per node, `k <= 6`,
/// into a freshly built [`CutDb`].
///
/// Every node's cut list begins with its trivial cut. Dominated cuts
/// (supersets of another kept cut) are filtered; surplus cuts are
/// pruned preferring fewer leaves. Produces exactly the same cut sets
/// as [`enumerate_cuts_naive`] (asserted by the parity tests) while
/// performing no per-candidate allocation. A loop that enumerates
/// many graphs keeps one database and calls [`CutDb::build`], which
/// reuses its arena and scratch.
///
/// # Panics
///
/// Panics if `k > 6` or `k == 0`.
///
/// # Examples
///
/// ```
/// use aig::{Aig, cut::enumerate_cuts};
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let c = g.add_input();
/// let ab = g.and(a, b);
/// let abc = g.and(ab, c);
/// g.add_output(abc, None::<&str>);
/// let cuts = enumerate_cuts(&g, 4, 8);
/// // abc has the trivial cut, {ab, c} and {a, b, c}.
/// assert!(cuts.cuts(abc.var()).len() >= 3);
/// ```
pub fn enumerate_cuts(aig: &Aig, k: usize, max_cuts: usize) -> CutDb {
    let mut db = CutDb::new(k, max_cuts);
    db.build(aig);
    db
}

/// A fanin cut pair of `node_cut_list`, recorded by the
/// signature-only pair loop and merged lazily.
#[derive(Clone, Copy, Debug)]
struct Cand {
    /// Arena index of the fanin-0 cut.
    i0: u32,
    /// Arena index of the fanin-1 cut.
    i1: u32,
    /// `popcount(sig0 | sig1)`: the union has at least this many
    /// leaves.
    bound: u8,
    /// `PENDING` until merged, `INFEASIBLE` when the union
    /// exceeds `k`, else the union's size.
    len: u8,
    /// Index of the merged leaf set in `NodeScratch::merged`.
    slot: u32,
}

/// `Cand::len` of a pair not merged yet.
const PENDING: u8 = u8::MAX;
/// `Cand::len` of a pair whose union exceeds `k`.
const INFEASIBLE: u8 = u8::MAX - 1;

/// Per-node scratch of `node_cut_list`, owned by the enumerating
/// [`CutDb`] so steady-state enumeration allocates nothing.
#[derive(Clone, Debug, Default)]
struct NodeScratch {
    /// Fanin cut pairs that pass the signature bound, in `(i0, i1)`
    /// order.
    cands: Vec<Cand>,
    /// Merged leaf sets (truth table unset), in merge order.
    merged: Vec<Cut>,
    /// The node's cut list, the result.
    list: Vec<Cut>,
}

/// One open [`CutDb`] edit session: `(node, old span)` records plus
/// the arena, span-table and live sizes at [`CutDb::begin_edit`].
/// Versions are not journaled: a rollback stamps the lists it
/// restores afresh.
#[derive(Clone, Debug)]
struct EditJournal {
    old_spans: Vec<(NodeId, (u32, u32))>,
    arena_len: usize,
    span_len: usize,
    live: usize,
}

/// The per-node cut table, built once or maintained through edits.
///
/// Cut lists are stored back-to-back in one arena; [`CutDb::cuts`]
/// returns a node's span as a slice. [`CutDb::build`] (and
/// [`enumerate_cuts`], which calls it) recomputes every node's list
/// from scratch — the right tool when the whole graph changed. The SA
/// loop's in-place moves instead edit a handful of nodes, and a
/// single substitution can only change the cut sets of the edited
/// nodes and their transitive fanout, so the table can also be kept
/// alive across edits:
///
/// * [`CutDb::build`] — full enumeration, reusing the arena;
/// * [`CutDb::sync_appends`] — absorbs appended nodes only;
/// * [`CutDb::invalidate`] — seeded by a
///   [`DirtyRegion`](crate::incremental::DirtyRegion)'s
///   [`edited`](crate::incremental::DirtyRegion::edited) set, recomputes dirty nodes in
///   ascending id order and propagates to a node's consumers **only
///   when its recomputed list actually changed** (equality cutoff),
///   so the cost tracks the true footprint of the edit;
/// * [`CutDb::begin_edit`] / [`CutDb::commit_edit`] /
///   [`CutDb::rollback_edit`] — bracket the updates belonging to one
///   speculative [`Transaction`](crate::incremental::Transaction), so
///   a rejected SA move also rolls the cut table back exactly.
///
/// Updated lists are appended to the arena and the node's span is
/// redirected; the stale region is garbage that [`CutDb::commit_edit`]
/// compacts away once it outweighs the live cuts. The maintained
/// table is **bit-identical** to a fresh enumeration after any edit
/// sequence ([`CutDb::assert_matches_fresh`] is the oracle check the
/// differential suite runs after every step) — which is what lets the
/// rewriting engine and the mapper consume cached cuts without any
/// behavioral difference from re-enumeration.
///
/// # Version counters
///
/// The database keeps a monotone **clock** ([`CutDb::clock`]) that
/// ticks whenever a list changes, and every node carries a **cut-list
/// version** ([`CutDb::version`]): the clock stamp of the last write
/// to its list. Stamps are never reused:
///
/// * [`CutDb::build`] stamps every node with one fresh tick (the
///   whole table was rewritten);
/// * [`CutDb::sync_appends`] stamps the appended nodes only;
/// * [`CutDb::invalidate`] stamps a node iff the recomputed list
///   differs from the stored one (the equality cutoff that stops
///   propagation also leaves the version untouched);
/// * [`CutDb::rollback_edit`] stamps every list it restores with one
///   fresh tick, later than any clock read during the edit.
///
/// So `version(id) <= c`, for a clock value `c` read at some earlier
/// moment, *proves* that `id`'s list is unchanged since that moment;
/// a later stamp means "maybe changed" (a rolled-back list may equal
/// the one a consumer cached before the edit). Downstream caches (the
/// mapper's per-row DP cutoff) keep one clock read instead of a
/// per-node copy of the versions. A clock read is only meaningful
/// against the instance it came from ([`CutDb::instance_id`]): clones
/// evolve independently and get a fresh identity.
#[derive(Debug)]
pub struct CutDb {
    k: usize,
    max_cuts: usize,
    /// Process-unique identity that clock reads are keyed to (fresh
    /// per clone, never reused — see the type docs on version
    /// counters).
    instance_id: u64,
    arena: Vec<Cut>,
    span: Vec<(u32, u32)>,
    /// Per-node cut-list versions: clock stamps (see the type docs).
    versions: Vec<u64>,
    /// Monotone clock; never decremented, not rolled back.
    clock: u64,
    /// Total cuts across live spans (arena occupancy heuristic).
    live: usize,
    /// Open edit session, `None` outside one.
    journal: Option<EditJournal>,
    // Scratch.
    scratch: NodeScratch,
    heap: BinaryHeap<std::cmp::Reverse<NodeId>>,
    queued: Vec<bool>,
}

fn next_cutdb_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT_ID: AtomicU64 = AtomicU64::new(0);
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

impl Clone for CutDb {
    /// Clones the full table but under a **fresh**
    /// [`CutDb::instance_id`]: the clone evolves independently, so
    /// clock reads taken against the original must not vouch for it.
    fn clone(&self) -> Self {
        CutDb {
            instance_id: next_cutdb_id(),
            k: self.k,
            max_cuts: self.max_cuts,
            arena: self.arena.clone(),
            span: self.span.clone(),
            versions: self.versions.clone(),
            clock: self.clock,
            live: self.live,
            journal: self.journal.clone(),
            scratch: self.scratch.clone(),
            heap: self.heap.clone(),
            queued: self.queued.clone(),
        }
    }
}

impl CutDb {
    /// An empty database enumerating `k`-feasible cuts, up to
    /// `max_cuts` per node.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside `1..=6`.
    pub fn new(k: usize, max_cuts: usize) -> Self {
        assert!(
            (1..=MAX_CUT_SIZE).contains(&k),
            "cut size k must be in 1..=6"
        );
        CutDb {
            k,
            max_cuts,
            instance_id: next_cutdb_id(),
            arena: Vec::new(),
            span: Vec::new(),
            versions: Vec::new(),
            clock: 0,
            live: 0,
            journal: None,
            scratch: NodeScratch::default(),
            heap: BinaryHeap::new(),
            queued: Vec::new(),
        }
    }

    /// Process-unique identity of this database (fresh per
    /// [`CutDb::new`] and per clone). Clock reads are only meaningful
    /// against the instance they were taken from.
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The current clock: at least every node's
    /// [version](CutDb::version), and `0` only before the first list
    /// is written.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The cut-list version of node `id` (see the type docs): the
    /// clock stamp of the last write to its list, so a version at or
    /// below an earlier [`CutDb::clock`] read proves the list is
    /// unchanged since that read.
    #[inline]
    pub fn version(&self, id: NodeId) -> u64 {
        self.versions[id as usize]
    }

    /// Advances the clock and returns the fresh stamp.
    fn bump(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The cut-size bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The per-node cut-count bound.
    pub fn max_cuts(&self) -> usize {
        self.max_cuts
    }

    /// Number of nodes currently tracked.
    pub fn num_nodes(&self) -> usize {
        self.span.len()
    }

    /// Total number of cuts across all nodes' current lists.
    pub fn num_cuts(&self) -> usize {
        self.live
    }

    /// The cuts of node `id` (trivial cut included, first).
    pub fn cuts(&self, id: NodeId) -> &[Cut] {
        let (s, e) = self.span[id as usize];
        &self.arena[s as usize..e as usize]
    }

    /// Full (re-)enumeration for `aig`, reusing the arena.
    ///
    /// # Panics
    ///
    /// Panics inside an open edit session.
    pub fn build(&mut self, aig: &Aig) {
        assert!(self.journal.is_none(), "build() inside an edit session");
        let n = aig.num_nodes();
        self.arena.clear();
        self.arena
            .reserve(n.saturating_mul(self.max_cuts.min(8) + 1));
        self.span.clear();
        self.span.resize(n, (0, 0));
        // The whole table is rewritten: every node gets a stamp later
        // than any clock read before the rebuild.
        let v = self.bump();
        self.versions.clear();
        self.versions.resize(n, v);
        self.queued.clear();
        self.queued.resize(n, false);
        self.push_list_for(0, &[Cut::from_leaves(&[], 0)]);
        for &pi in aig.inputs() {
            self.push_list_for(pi, &[Cut::trivial(pi)]);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let (f0s, f1s) = aig.fanin_arrays();
        aig.for_each_and_topo(|id| {
            self.node_cut_list(f0s[id as usize], f1s[id as usize], id, &mut scratch);
            self.push_list_for(id, &scratch.list);
        });
        self.scratch = scratch;
        self.live = self.arena.len();
    }

    /// Absorbs nodes appended to the same graph since the last
    /// `build`/`sync_appends` (cost proportional to the appended
    /// suffix).
    ///
    /// # Panics
    ///
    /// Panics if the graph shrank.
    pub fn sync_appends(&mut self, aig: &Aig) {
        let old_n = self.span.len();
        let n = aig.num_nodes();
        assert!(
            n >= old_n,
            "sync_appends() only supports append-only growth ({old_n} -> {n} nodes)"
        );
        self.span.resize(n, (0, 0));
        let v = self.bump();
        self.versions.resize(n, v);
        self.queued.resize(n, false);
        let mut scratch = std::mem::take(&mut self.scratch);
        let (f0s, f1s) = aig.fanin_arrays();
        for id in old_n as NodeId..n as NodeId {
            if aig.is_and(id) {
                self.node_cut_list(f0s[id as usize], f1s[id as usize], id, &mut scratch);
                self.push_list_for(id, &scratch.list);
                self.live += scratch.list.len();
            } else {
                self.push_list_for(id, &[Cut::trivial(id)]);
                self.live += 1;
            }
        }
        self.scratch = scratch;
    }

    /// Recomputes the cut lists invalidated by an in-place edit.
    ///
    /// `dirty` is the report of the edit (the region a
    /// [`Transaction::substitute`] returned, or one accumulated across
    /// a transaction step); its
    /// [`edited`](crate::incremental::DirtyRegion::edited) nodes
    /// seed an ascending worklist. Each popped node's list is
    /// recomputed from its (current) fanin lists; if the result
    /// differs from the stored list, the node's consumers (read from
    /// `inc`, which must be live for the same graph) are enqueued —
    /// if it is identical, propagation stops there (and the node's
    /// [version](CutDb::version) stays put; changed lists get a fresh
    /// stamp). After the call the table equals a fresh enumeration of
    /// the current graph.
    ///
    /// [`Transaction::substitute`]:
    /// crate::incremental::Transaction::substitute
    ///
    /// # Panics
    ///
    /// Panics if the database tracks a different node count than
    /// `aig` — a desynced database would read fanin cut lists through
    /// stale spans and corrupt the arena, so the mismatch is rejected
    /// in **all** build profiles (not just under `debug_assertions`).
    /// Call [`CutDb::build`] or [`CutDb::sync_appends`] first.
    pub fn invalidate(
        &mut self,
        aig: &Aig,
        inc: &crate::incremental::IncrementalAnalysis,
        dirty: &crate::incremental::DirtyRegion,
    ) {
        assert_eq!(
            self.span.len(),
            aig.num_nodes(),
            "cut database out of sync with the graph: call build() or sync_appends() first"
        );
        for &seed in dirty.edited() {
            self.enqueue(seed);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let (f0s, f1s) = aig.fanin_arrays();
        while let Some(std::cmp::Reverse(id)) = self.heap.pop() {
            self.queued[id as usize] = false;
            self.node_cut_list(f0s[id as usize], f1s[id as usize], id, &mut scratch);
            let list = &scratch.list;
            if self.cuts(id) == &list[..] {
                continue; // equality cutoff: consumers see no change
            }
            let old = self.span[id as usize];
            if let Some(journal) = &mut self.journal {
                journal.old_spans.push((id, old));
            }
            self.live = self.live + list.len() - (old.1 - old.0) as usize;
            self.versions[id as usize] = self.bump();
            self.push_list_for(id, list);
            for &c in inc.consumers(id) {
                self.enqueue(c);
            }
        }
        self.scratch = scratch;
    }

    /// Opens an edit session: span updates are journaled so
    /// [`CutDb::rollback_edit`] can revert them exactly.
    ///
    /// # Panics
    ///
    /// Panics if a session is already open.
    pub fn begin_edit(&mut self) {
        assert!(self.journal.is_none(), "edit session already open");
        self.journal = Some(EditJournal {
            old_spans: Vec::new(),
            arena_len: self.arena.len(),
            span_len: self.span.len(),
            live: self.live,
        });
    }

    /// Closes the edit session keeping every update, and compacts the
    /// arena when stale spans outweigh live cuts.
    ///
    /// # Panics
    ///
    /// Panics without an open session.
    pub fn commit_edit(&mut self) {
        assert!(self.journal.take().is_some(), "no edit session open");
        if self.arena.len() > self.live.saturating_mul(4) {
            self.compact();
        }
    }

    /// Closes the edit session reverting every update since
    /// [`CutDb::begin_edit`]: spans and the appended suffix are
    /// restored exactly, and every restored list gets one fresh
    /// [version](CutDb::version) stamp, later than any clock read
    /// during the session (the clock itself is not rewound — see the
    /// type docs).
    ///
    /// # Panics
    ///
    /// Panics without an open session.
    pub fn rollback_edit(&mut self) {
        let journal = self.journal.take().expect("no edit session open");
        self.span.truncate(journal.span_len);
        self.versions.truncate(journal.span_len);
        self.queued.truncate(journal.span_len);
        let stamp = self.bump();
        for &(id, old) in journal.old_spans.iter().rev() {
            if (id as usize) < journal.span_len {
                self.span[id as usize] = old;
                self.versions[id as usize] = stamp;
            }
            // Entries for nodes appended within this session (an
            // invalidate can change a mid-session append's list) were
            // dropped wholesale by the truncation above.
        }
        self.arena.truncate(journal.arena_len);
        self.live = journal.live;
    }

    /// Rewrites the arena without the stale spans (relative order of
    /// live spans is irrelevant; lookups go through `span`).
    fn compact(&mut self) {
        let mut fresh: Vec<Cut> = Vec::with_capacity(self.live);
        for sp in self.span.iter_mut() {
            let (s, e) = *sp;
            let ns = fresh.len() as u32;
            fresh.extend_from_slice(&self.arena[s as usize..e as usize]);
            *sp = (ns, fresh.len() as u32);
        }
        self.arena = fresh;
        debug_assert_eq!(self.arena.len(), self.live);
    }

    /// Computes the cut list of AND node `id` (fanins `f0`/`f1`, as read
    /// from [`Aig::fanin_arrays`]) into `scratch.list`, reading the
    /// fanins' lists from the table. This is the one inner loop of
    /// [`CutDb::build`] (full enumeration), [`CutDb::sync_appends`] and
    /// [`CutDb::invalidate`] (incremental re-enumeration), so a
    /// maintained table keeps *identical* per-node cut lists to a fresh
    /// build by construction.
    ///
    /// The list is the trivial cut followed by the merged fanin cut
    /// pairs visited in size order, and within a size in `(i0, i1)`
    /// order, skipping dominated ones, until `max_cuts` cuts are kept.
    /// Only the work that list needs is done:
    /// * the pair loop reads signatures only, recording the pairs whose
    ///   popcount bound fits `k`;
    /// * a pair is merged when the size pass first reaches its bound (no
    ///   union is smaller), so once the list fills, pairs with a larger
    ///   bound are never merged;
    /// * a truth table is computed only for a cut that is kept.
    fn node_cut_list(&self, f0: Lit, f1: Lit, id: NodeId, scratch: &mut NodeScratch) {
        let (k, max_cuts, arena, span) = (self.k, self.max_cuts, &self.arena[..], &self.span[..]);
        let NodeScratch {
            cands,
            merged,
            list,
        } = scratch;
        list.clear();
        list.push(Cut::trivial(id));
        if list.len() >= max_cuts {
            return;
        }
        let (s0, e0) = span[f0.var() as usize];
        let (s1, e1) = span[f1.var() as usize];
        let c1s = &arena[s1 as usize..e1 as usize];
        cands.clear();
        merged.clear();
        for i0 in s0..e0 {
            let sig0 = arena[i0 as usize].sig;
            for (j, c1) in c1s.iter().enumerate() {
                // Signature prefilter: the union has at least
                // popcount(sig0 | sig1) distinct leaves.
                let bound = (sig0 | c1.sig).count_ones();
                if bound as usize > k {
                    continue;
                }
                cands.push(Cand {
                    i0,
                    i1: s1 + j as u32,
                    bound: bound as u8,
                    len: PENDING,
                    slot: 0,
                });
            }
        }
        // Visit candidates in size order (prefer small cuts) without
        // sorting: sizes span 1..=6, so stable size-bucket passes are
        // cheaper than a (heap-allocating) stable sort. Filter
        // dominated/duplicate cuts; `dominates` covers equality, and
        // its signature-subset prefilter rejects most candidates in
        // one AND.
        'fill: for size in 1..=k {
            for cand in cands.iter_mut() {
                if cand.bound as usize > size {
                    continue; // its union has more than `size` leaves
                }
                if cand.len == PENDING {
                    let (c0, c1) = (&arena[cand.i0 as usize], &arena[cand.i1 as usize]);
                    cand.len = match Cut::merged_leaves(c0, c1, k) {
                        Some((leaves, len, sig)) => {
                            cand.slot = merged.len() as u32;
                            merged.push(Cut {
                                leaves,
                                len,
                                sig,
                                tt: 0,
                            });
                            len
                        }
                        None => INFEASIBLE,
                    };
                }
                if cand.len as usize != size {
                    continue;
                }
                let mut c = merged[cand.slot as usize];
                if list.iter().any(|kept| kept.dominates(&c)) {
                    continue;
                }
                // Kept: its function, from the same fanin pair.
                let (c0, c1) = (&arena[cand.i0 as usize], &arena[cand.i1 as usize]);
                let leaves = c.leaves();
                let mask = width_mask(leaves.len());
                let t0 = expand_tt(c0.tt, c0.leaves(), leaves);
                let t1 = expand_tt(c1.tt, c1.leaves(), leaves);
                let t0 = if f0.is_complement() { !t0 & mask } else { t0 };
                let t1 = if f1.is_complement() { !t1 & mask } else { t1 };
                c.tt = t0 & t1;
                list.push(c);
                if list.len() >= max_cuts {
                    break 'fill;
                }
            }
        }
    }

    fn push_list_for(&mut self, id: NodeId, cuts: &[Cut]) {
        let s = self.arena.len() as u32;
        self.arena.extend_from_slice(cuts);
        self.span[id as usize] = (s, self.arena.len() as u32);
    }

    fn enqueue(&mut self, id: NodeId) {
        if !self.queued[id as usize] {
            self.queued[id as usize] = true;
            self.heap.push(std::cmp::Reverse(id));
        }
    }

    /// Asserts every node's list equals a fresh [`enumerate_cuts`] of
    /// the current graph (differential-testing oracle; full-cost).
    ///
    /// # Panics
    ///
    /// Panics (with the node id) on the first mismatch.
    pub fn assert_matches_fresh(&self, aig: &Aig) {
        assert_eq!(self.span.len(), aig.num_nodes(), "node count diverged");
        let fresh = enumerate_cuts(aig, self.k, self.max_cuts);
        for id in aig.node_ids() {
            assert_eq!(
                self.cuts(id),
                fresh.cuts(id),
                "cut db diverged from fresh enumeration at node {id}"
            );
        }
    }
}

/// The seed's per-minterm truth-table expansion, retained as the
/// oracle for the butterfly [`expand_tt`] and so the naive reference
/// enumeration measures the full pre-optimization cost profile.
fn expand_tt_minterm(tt: u64, from: &[NodeId], to: &[NodeId]) -> u64 {
    let mut pos = [0usize; MAX_CUT_SIZE];
    let mut j = 0;
    for (i, &t) in to.iter().enumerate() {
        if j < from.len() && from[j] == t {
            pos[j] = i;
            j += 1;
        }
    }
    let bits = 1usize << to.len();
    let mut out = 0u64;
    for m in 0..bits {
        let mut src = 0usize;
        for (jj, &p) in pos.iter().enumerate().take(from.len()) {
            src |= ((m >> p) & 1) << jj;
        }
        out |= ((tt >> src) & 1) << m;
    }
    out
}

/// The pre-optimization reference implementation: heap-allocated leaf
/// vectors, no signatures, O(n²) full-leaf dominance scans.
///
/// Kept verbatim (modulo the [`Cut`] constructors) as the oracle for
/// the parity tests and as the baseline the `cut_enum` component
/// benchmark measures [`enumerate_cuts`] against.
///
/// # Panics
///
/// Panics if `k > 6` or `k == 0`.
pub fn enumerate_cuts_naive(aig: &Aig, k: usize, max_cuts: usize) -> Vec<Vec<Cut>> {
    assert!(
        (1..=MAX_CUT_SIZE).contains(&k),
        "cut size k must be in 1..=6"
    );
    fn merge_leaves(a: &[NodeId], b: &[NodeId], k: usize) -> Option<Vec<NodeId>> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if out.len() == k {
                return None;
            }
            out.push(next);
        }
        Some(out)
    }
    fn dominates(a: &[NodeId], b: &[NodeId]) -> bool {
        if a.len() > b.len() {
            return false;
        }
        let mut j = 0;
        for &l in a {
            while j < b.len() && b[j] < l {
                j += 1;
            }
            if j == b.len() || b[j] != l {
                return false;
            }
        }
        true
    }
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); aig.num_nodes()];
    cuts[0].push(Cut::from_leaves(&[], 0));
    for &pi in aig.inputs() {
        cuts[pi as usize].push(Cut::trivial(pi));
    }
    for id in aig.and_ids() {
        let [f0, f1] = aig.fanins(id);
        let mut list: Vec<Cut> = vec![Cut::trivial(id)];
        let c0s = &cuts[f0.var() as usize];
        let c1s = &cuts[f1.var() as usize];
        let mut merged: Vec<(Vec<NodeId>, u64)> = Vec::new();
        for c0 in c0s {
            for c1 in c1s {
                let Some(leaves) = merge_leaves(c0.leaves(), c1.leaves(), k) else {
                    continue;
                };
                let t0 = expand_tt_minterm(c0.tt(), c0.leaves(), &leaves);
                let t1 = expand_tt_minterm(c1.tt(), c1.leaves(), &leaves);
                let mask = width_mask(leaves.len());
                let t0 = if f0.is_complement() { !t0 & mask } else { t0 };
                let t1 = if f1.is_complement() { !t1 & mask } else { t1 };
                merged.push((leaves, t0 & t1));
            }
        }
        merged.sort_by_key(|(leaves, _)| leaves.len());
        for (leaves, tt) in merged {
            if list.len() >= max_cuts {
                break;
            }
            if list
                .iter()
                .any(|kept| kept.leaves() == leaves || dominates(kept.leaves(), &leaves))
            {
                continue;
            }
            list.push(Cut::from_leaves(&leaves, tt));
        }
        cuts[id as usize] = list;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimTable;
    use crate::Lit;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The per-minterm support compaction [`shrink_support`] replaced,
    /// retained as its oracle (as `expand_tt_minterm` is for
    /// [`expand_tt`]).
    fn shrink_support_minterm(
        tt: u64,
        leaves: &[NodeId],
    ) -> Option<(u64, [NodeId; MAX_CUT_SIZE], usize)> {
        let nv = leaves.len();
        let mask = width_mask(nv);
        let mut kept = [0; MAX_CUT_SIZE];
        let mut orig = [0usize; MAX_CUT_SIZE];
        let mut knv = 0;
        for (i, &leaf) in leaves.iter().enumerate() {
            let lo = tt & VAR_LO[i] & mask;
            let hi = (tt >> (1usize << i)) & VAR_LO[i] & mask;
            if lo != hi {
                kept[knv] = leaf;
                orig[knv] = i;
                knv += 1;
            }
        }
        if knv == 0 {
            return None;
        }
        let mut out = 0u64;
        for m in 0..(1usize << knv) {
            let mut src = 0usize;
            for (jj, &o) in orig[..knv].iter().enumerate() {
                src |= ((m >> jj) & 1) << o;
            }
            out |= ((tt >> src) & 1) << m;
        }
        Some((out, kept, knv))
    }

    #[test]
    fn expand_identity() {
        let leaves = [3u32, 7, 9];
        assert_eq!(expand_tt(0b1010_1010, &leaves, &leaves), 0b1010_1010);
    }

    #[test]
    fn expand_inserts_var() {
        // f = x0 over {5}; expand to {2, 5}: x0 becomes var 1.
        let t = expand_tt(0b10, &[5], &[2, 5]);
        assert_eq!(t, 0b1100);
    }

    /// The butterfly expansion must agree with the retained
    /// per-minterm reference on random subsets and tables, at every
    /// width.
    #[test]
    fn butterfly_expand_matches_minterm_reference() {
        let reference = expand_tt_minterm;
        let mut rng = SmallRng::seed_from_u64(777);
        for _ in 0..5000 {
            let to_len = rng.gen_range(1usize..7);
            let mut to: Vec<NodeId> = Vec::new();
            while to.len() < to_len {
                let v = rng.gen_range(1u32..40);
                if !to.contains(&v) {
                    to.push(v);
                }
            }
            to.sort_unstable();
            let from: Vec<NodeId> = to.iter().copied().filter(|_| rng.gen::<bool>()).collect();
            if from.is_empty() {
                continue;
            }
            let tt = rng.gen::<u64>() & ((1u64 << (1 << from.len()).min(63)) - 1);
            assert_eq!(
                expand_tt(tt, &from, &to),
                reference(tt, &from, &to),
                "tt {tt:#x} from {from:?} to {to:?}"
            );
        }
    }

    #[test]
    fn shrink_support_examples() {
        // f = x1 over leaves {10, 20}: drops leaf 10.
        let (tt, kept, nv) = shrink_support(0b1100, &[10, 20]).expect("non-const");
        assert_eq!(kept[..nv], [20]);
        assert_eq!(tt & 0b11, 0b10);
        assert!(shrink_support(0b1111, &[10, 20]).is_none());
        assert!(shrink_support(0, &[10, 20]).is_none());
    }

    #[test]
    fn shrink_support_drops_redundant() {
        // f = x0 over 2 leaves (leaf 1 redundant).
        let cut = Cut::from_leaves(&[4, 9], 0b1010);
        let (tt, kept, nv) = shrink_support(cut.tt(), cut.leaves()).expect("non-const");
        assert_eq!(kept[..nv], [4]);
        assert_eq!(tt & 0b11, 0b10);
        // constant cut
        let cut = Cut::from_leaves(&[4, 9], 0b0000);
        assert!(shrink_support(cut.tt(), cut.leaves()).is_none());
    }

    /// The mask-and-shift support shrink must agree with the retained
    /// per-minterm compaction — table and kept leaves — over random
    /// tables of 1..=6 variables with random support subsets,
    /// constants and full support included.
    #[test]
    fn shrink_support_matches_minterm_reference() {
        let mut rng = SmallRng::seed_from_u64(0x5EED);
        for round in 0..20_000 {
            let n = rng.gen_range(1usize..MAX_CUT_SIZE + 1);
            let leaves: Vec<NodeId> = (0..n as NodeId).map(|i| 3 * i + 1).collect();
            // A random function over a random subset of the variables:
            // a random table over `s` variables, expanded onto the
            // subset's positions (constants when `s` is 0 or the draw
            // degenerates; full support when every variable is drawn).
            let subset: Vec<NodeId> = match round % 4 {
                0 => leaves.clone(),
                _ => leaves
                    .iter()
                    .copied()
                    .filter(|_| rng.gen::<bool>())
                    .collect(),
            };
            let tt = match round % 16 {
                1 => 0,
                2 => width_mask(n),
                _ => expand_tt(rng.gen::<u64>(), &subset, &leaves),
            };
            let got = shrink_support(tt, &leaves);
            let want = shrink_support_minterm(tt & width_mask(n), &leaves);
            assert_eq!(got, want, "tt {tt:#x} over {n} leaves");
            if let Some((t, kept, nv)) = got {
                assert_eq!(t & !width_mask(nv), 0, "table confined to its width");
                assert!(kept[..nv].iter().all(|l| subset.contains(l)));
            }
        }
    }

    #[test]
    fn dominance() {
        let small = Cut::from_leaves(&[1, 3], 0);
        let big = Cut::from_leaves(&[1, 2, 3], 0);
        assert!(small.dominates(&big));
        assert!(!big.dominates(&small));
        assert!(small.dominates(&small), "equal sets dominate");
    }

    #[test]
    fn construction_masks_tt_and_builds_signature() {
        let c = Cut::from_leaves(&[2, 5], u64::MAX);
        assert_eq!(c.tt(), 0b1111, "tt masked to 2^2 bits at construction");
        assert_eq!(c.signature(), (1 << 2) | (1 << 5));
        // Signature wraps modulo 64.
        let c = Cut::from_leaves(&[64, 129], 0);
        assert_eq!(c.signature(), (1 << 0) | (1 << 1));
    }

    /// The signature prefilter may only produce false positives
    /// (claimed-maybe-subset that is not), never false negatives:
    /// whenever the exact scan says subset, the signatures must agree.
    #[test]
    fn signature_subset_agrees_with_exact_dominates() {
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        for _ in 0..20_000 {
            let mut mk = |max_len: usize| {
                let len = rng.gen_range(0..max_len + 1);
                let mut ls: Vec<NodeId> = Vec::new();
                while ls.len() < len {
                    let l = rng.gen_range(1u32..90);
                    if !ls.contains(&l) {
                        ls.push(l);
                    }
                }
                ls.sort_unstable();
                Cut::from_leaves(&ls, 0)
            };
            let a = mk(6);
            let b = mk(6);
            let exact = a.len <= b.len && a.subset_scan(&b);
            assert_eq!(
                a.dominates(&b),
                exact,
                "a={:?} b={:?}",
                a.leaves(),
                b.leaves()
            );
            if exact {
                assert_eq!(
                    a.signature() & !b.signature(),
                    0,
                    "prefilter must never reject a true subset"
                );
            }
        }
    }

    /// The optimized enumeration must keep exactly the cut sets the
    /// naive reference keeps — same cuts, same order, same functions.
    #[test]
    fn parity_with_naive_reference() {
        for seed in 0..12 {
            let g = crate::test_support::random_aig(seed, 8, 120, 4);
            for (k, max_cuts) in [(4, 8), (6, 5), (3, 12), (2, 4)] {
                let fast = enumerate_cuts(&g, k, max_cuts);
                let naive = enumerate_cuts_naive(&g, k, max_cuts);
                for id in g.node_ids() {
                    assert_eq!(
                        fast.cuts(id),
                        &naive[id as usize][..],
                        "seed {seed} node {id} k {k}"
                    );
                }
            }
        }
    }

    /// Cut truth tables must agree with simulation: for every cut of
    /// every node, evaluating the cut function on the leaves'
    /// simulated values must reproduce the node's simulated value.
    #[test]
    fn cut_functions_match_simulation() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let d = g.add_input();
        let ab = g.and(a, !b);
        let cd = g.or(c, d);
        let f = g.xor(ab, cd);
        let h = g.mux(a, f, cd);
        g.add_output(h, None::<&str>);
        let sim = SimTable::exhaustive(&g).expect("4 inputs");
        let cuts = enumerate_cuts(&g, 4, 12);
        for id in g.and_ids() {
            for cut in cuts.cuts(id) {
                let nbits = 1usize << g.num_inputs();
                for m in 0..nbits {
                    // Build the cut minterm from leaf values.
                    let mut idx = 0usize;
                    for (j, &leaf) in cut.leaves().iter().enumerate() {
                        if sim.node_bit(leaf, m) {
                            idx |= 1 << j;
                        }
                    }
                    let cut_val = cut.tt() >> idx & 1 == 1;
                    assert_eq!(
                        cut_val,
                        sim.node_bit(id, m),
                        "node {id} cut {:?} minterm {m}",
                        cut.leaves()
                    );
                }
            }
        }
    }

    /// Random edit walks: after every substitution + invalidate (and
    /// every rolled-back speculative edit) the database must equal a
    /// fresh enumeration bit for bit.
    #[test]
    fn cutdb_tracks_fresh_enumeration_through_edits() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(0xCDB ^ seed);
            let mut g = crate::test_support::random_aig(seed, 7, 80, 3);
            let mut inc = IncrementalAnalysis::new(&g);
            let mut db = CutDb::new(4, 8);
            db.build(&g);
            db.assert_matches_fresh(&g);

            for _ in 0..12 {
                let commit = rng.gen::<bool>();
                db.begin_edit();
                let mut txn = Transaction::begin(&mut g, &mut inc);
                for _ in 0..rng.gen_range(1..4) {
                    let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                    let node = ands[rng.gen_range(0..ands.len())];
                    let with = crate::Lit::new(rng.gen_range(0..node), rng.gen());
                    txn.substitute(node, with);
                    db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
                }
                if commit {
                    txn.commit();
                    db.commit_edit();
                } else {
                    txn.rollback();
                    db.rollback_edit();
                }
                db.assert_matches_fresh(&g);
            }
        }
    }

    /// Appends are absorbed incrementally, and compaction (forced by
    /// many edits) preserves the table.
    #[test]
    fn cutdb_sync_appends_and_compaction() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut g = crate::test_support::random_aig(3, 6, 50, 2);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        for _ in 0..30 {
            // Grow a little...
            let n = g.num_nodes() as NodeId;
            let a = Lit::new(rng.gen_range(0..n), rng.gen());
            let b = Lit::new(rng.gen_range(0..n), rng.gen());
            db.begin_edit();
            let mut txn = Transaction::begin(&mut g, &mut inc);
            txn.and(a, b);
            db.sync_appends(txn.aig());
            // ...then churn one substitution, committing every time so
            // stale spans accumulate and compaction eventually fires.
            let ands: Vec<NodeId> = txn.aig().and_ids().collect();
            let node = ands[rng.gen_range(0..ands.len())];
            let with = Lit::new(rng.gen_range(0..node), rng.gen());
            txn.substitute(node, with);
            db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
            txn.commit();
            db.commit_edit();
            db.assert_matches_fresh(&g);
        }
        assert!(
            db.arena.len() <= db.live.saturating_mul(4),
            "commit_edit must keep the arena compact"
        );
    }

    #[test]
    #[should_panic(expected = "edit session")]
    fn cutdb_rejects_unpaired_commit() {
        let mut db = CutDb::new(4, 8);
        db.commit_edit();
    }

    /// A node appended *inside* an edit session whose list is then
    /// changed by an `invalidate` in the same session (its journal
    /// entry indexes past the pre-edit length) must roll back
    /// cleanly: the truncation drops the appended suffix, and the
    /// journaled entry for it is skipped rather than written out of
    /// bounds.
    #[test]
    fn cutdb_rollback_with_mid_session_appends() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        let mut g = crate::test_support::random_aig(5, 6, 40, 2);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        let x = g
            .and_ids()
            .find(|&id| !inc.consumers(id).is_empty())
            .expect("an AND with consumers");
        let last = g.num_nodes() as NodeId - 1;

        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        let before = txn.aig().num_nodes();
        let z = txn.and(Lit::new(x, false), Lit::new(last, true));
        assert!(
            txn.aig().num_nodes() > before,
            "appended node must be fresh (z = {z:?})"
        );
        db.sync_appends(txn.aig());
        // Rewiring x's readers changes z's cut list too, journaling a
        // span beyond the pre-edit length.
        txn.substitute(x, Lit::new(0, true));
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        txn.rollback();
        db.rollback_edit();
        db.assert_matches_fresh(&g);
    }

    /// A desynced database must be rejected in every build profile —
    /// silently reading fanin lists through stale spans would corrupt
    /// the arena (this used to be a `debug_assert`).
    #[test]
    #[should_panic(expected = "out of sync")]
    fn cutdb_invalidate_rejects_desynced_graph() {
        use crate::incremental::IncrementalAnalysis;
        let mut g = crate::test_support::random_aig(1, 5, 30, 2);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        // Grow the graph behind the database's back.
        let a = Lit::new(g.inputs()[0], false);
        let b = Lit::new(*g.inputs().last().unwrap(), true);
        g.and(a, b);
        let inc = IncrementalAnalysis::new(&g);
        db.invalidate(&g, &inc, &crate::incremental::DirtyRegion::default());
    }

    /// Version-counter contract: versions are clock stamps that move
    /// exactly when a node's list changes, build/sync_appends hand out
    /// fresh stamps, and a rollback stamps the lists it restores past
    /// every clock read during the edit while the untouched lists keep
    /// their versions.
    #[test]
    fn cutdb_version_counters_track_list_changes() {
        use crate::incremental::{IncrementalAnalysis, Transaction};
        let mut g = crate::test_support::random_aig(11, 6, 60, 3);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        let baseline: Vec<u64> = g.node_ids().map(|id| db.version(id)).collect();

        // Rebuild for the same graph: lists identical, but versions
        // must still move past the earlier clock (the whole table was
        // rewritten).
        let clock = db.clock();
        db.build(&g);
        for id in g.node_ids() {
            assert_ne!(db.version(id), baseline[id as usize], "node {id}");
            assert!(db.version(id) > clock, "node {id}");
        }
        let before: Vec<u64> = g.node_ids().map(|id| db.version(id)).collect();

        // A committed substitution: exactly the nodes whose lists
        // changed get new versions.
        let pre_lists: Vec<Vec<Cut>> = g.node_ids().map(|id| db.cuts(id).to_vec()).collect();
        let node = g
            .and_ids()
            .find(|&id| !inc.consumers(id).is_empty())
            .expect("some AND has consumers");
        let with = Lit::new(g.inputs()[0], false);
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(node, with);
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        txn.commit();
        db.commit_edit();
        let mut changed = 0;
        for id in g.node_ids() {
            let bumped = db.version(id) != before[id as usize];
            let list_changed = db.cuts(id) != &pre_lists[id as usize][..];
            assert_eq!(
                bumped, list_changed,
                "version must move iff the list changed (node {id})"
            );
            changed += usize::from(bumped);
        }
        assert!(changed > 0, "the substitution must have changed lists");

        // A rolled-back edit restores every list, stamping the
        // restored ones past the clock a consumer read mid-edit; the
        // lists the edit never touched keep their versions.
        let pre: Vec<u64> = g.node_ids().map(|id| db.version(id)).collect();
        let node = g
            .and_ids()
            .filter(|&id| !inc.consumers(id).is_empty())
            .nth(3)
            .expect("several ANDs have consumers");
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(node, !with);
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        let mid: Vec<u64> = txn.aig().node_ids().map(|id| db.version(id)).collect();
        let mid_clock = db.clock();
        txn.rollback();
        db.rollback_edit();
        db.assert_matches_fresh(&g);
        let mut restored = 0;
        for id in g.node_ids() {
            let vi = id as usize;
            if mid[vi] == pre[vi] {
                assert_eq!(db.version(id), pre[vi], "untouched list keeps its version");
            } else {
                assert!(
                    db.version(id) > mid_clock,
                    "restored list {id} reads as unchanged"
                );
                restored += 1;
            }
            assert!(db.version(id) <= db.clock());
        }
        assert!(restored > 0, "the rolled-back edit must have changed lists");

        // Clones get a fresh identity.
        let clone = db.clone();
        assert_ne!(clone.instance_id(), db.instance_id());
    }

    #[test]
    fn trivial_cut_first() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let f = g.and(a, b);
        g.add_output(f, None::<&str>);
        let cuts = enumerate_cuts(&g, 4, 8);
        assert_eq!(cuts.cuts(f.var())[0].leaves(), &[f.var()]);
        assert_eq!(cuts.k(), 4);
        assert!(cuts.num_cuts() >= 4);
    }
}
