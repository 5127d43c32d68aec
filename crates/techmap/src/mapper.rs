//! Cut-based technology mapping (delay- or area-oriented).
//!
//! The mapper mirrors the classic ABC `map` structure: enumerate
//! 4-feasible cuts, Boolean-match each cut function against the
//! library, run a topological dynamic program selecting the best match
//! per node (arrival time for delay mode, area flow for area mode),
//! then extract the cover from the outputs and instantiate gates,
//! inserting shared inverters for complemented connections.

use crate::matcher::{CellMatch, Matcher};
use crate::netlist::{NetId, Netlist};
use aig::cut::{shrink_support, Cut, CutDb};
use aig::tt::TtBuildHasher;
use aig::{Aig, NodeId};
use cells::{CellId, Library};
use std::collections::HashMap;
use std::fmt;

/// Mapping objective.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MapGoal {
    /// Minimize estimated critical-path arrival (paper's delay flows).
    #[default]
    Delay,
    /// Minimize area flow, with arrival as tie-break.
    Area,
}

/// Options controlling [`Mapper`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapOptions {
    /// Cut size for matching; must be 2..=4.
    pub cut_size: usize,
    /// Cuts kept per node during enumeration.
    pub max_cuts: usize,
    /// Nominal load (fF) assumed while ranking matches; the final
    /// netlist is re-timed with true loads by the `sta` crate.
    pub est_load_ff: f64,
    /// Delay- or area-oriented selection.
    pub goal: MapGoal,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions {
            cut_size: 4,
            max_cuts: 8,
            est_load_ff: 9.0,
            goal: MapGoal::Delay,
        }
    }
}

impl MapOptions {
    /// Checks every option range, so invalid options surface as
    /// [`MapError::BadOptions`] up front — never as a misleading
    /// [`MapError::NoMatch`] (or a bogus netlist) later in the run.
    /// Both [`Mapper::map`] and [`Mapper::map_with`] call this before
    /// doing any work.
    ///
    /// # Errors
    ///
    /// [`MapError::BadOptions`] naming the offending option.
    pub fn validate(&self) -> Result<(), MapError> {
        if !(2..=4).contains(&self.cut_size) {
            return Err(MapError::BadOptions(format!(
                "cut_size must be 2..=4, got {}",
                self.cut_size
            )));
        }
        if self.max_cuts < 2 {
            return Err(MapError::BadOptions(format!(
                "max_cuts must be >= 2, got {}",
                self.max_cuts
            )));
        }
        if !self.est_load_ff.is_finite() || self.est_load_ff <= 0.0 {
            return Err(MapError::BadOptions(format!(
                "est_load_ff must be finite and positive, got {}",
                self.est_load_ff
            )));
        }
        Ok(())
    }
}

/// Errors from [`Mapper::map`].
#[derive(Debug)]
pub enum MapError {
    /// A node reachable from the outputs matched no library cell.
    /// Cannot happen with a library covering all two-input AND-class
    /// functions. Dangling nodes are exempt: in-place SA edits leave
    /// trivially-reducible dead nodes behind (e.g. a reader rewired
    /// to `AND(x, !x)`, whose every cut function is constant), and
    /// the cover never visits them.
    NoMatch {
        /// The unmappable node.
        node: NodeId,
    },
    /// Invalid [`MapOptions`].
    BadOptions(String),
    /// The library has no inverter, which mapping needs for every
    /// complemented connection. Reported before any mapping work.
    NoInverter,
    /// The caller-maintained [`CutDb`] tracks a different node count
    /// than the graph being mapped — it missed a
    /// [`build`](CutDb::build) / [`sync_appends`](CutDb::sync_appends)
    /// after the graph changed shape. Mapping through stale cut lists
    /// would silently produce a wrong netlist (or index out of
    /// bounds), so the incremental entry points reject the mismatch
    /// up front in **all** build profiles.
    StaleCuts {
        /// Nodes tracked by the cut database.
        db_nodes: usize,
        /// Nodes in the graph being mapped.
        graph_nodes: usize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::NoMatch { node } => write!(f, "no library match for node {node}"),
            MapError::BadOptions(m) => write!(f, "bad mapping options: {m}"),
            MapError::NoInverter => f.write_str("the cell library has no inverter"),
            MapError::StaleCuts {
                db_nodes,
                graph_nodes,
            } => write!(
                f,
                "stale cut database: tracks {db_nodes} nodes but the graph has \
                 {graph_nodes} (rebuild or sync it before mapping)"
            ),
        }
    }
}

impl std::error::Error for MapError {}

/// Inline leaf set of a mapped cut (mapper cuts have at most four
/// leaves), keeping the per-node DP table allocation-free.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CutLeaves {
    pub(crate) arr: [NodeId; 4],
    pub(crate) len: u8,
}

impl CutLeaves {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[NodeId] {
        &self.arr[..self.len as usize]
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Chosen {
    pub(crate) m: CellMatch,
    pub(crate) leaves: CutLeaves,
    arrival_ps: f64,
    area_flow: f64,
}

/// A library match with everything the DP inner loop needs
/// precomputed at the mapper's estimated load: per-variable arrival
/// increments (pin delay plus input-inverter penalty), the output
/// increment, and the fixed area (cell plus inverters).
#[derive(Clone, Copy, Debug)]
struct PreMatch {
    m: CellMatch,
    add: [f64; 4],
    out_add: f64,
    fixed_area: f64,
}

/// The per-cut-function match shortlist memo, keyed by `(nv, tt)`.
/// One lookup per cut, so it hashes with the fixed multiplicative
/// [`TtHasher`](aig::tt::TtHasher); nothing reads its iteration order.
type Shortlists = HashMap<(u8, u64), Vec<PreMatch>, TtBuildHasher>;

/// Reusable state for [`Mapper::map_with`]: the cut table, the
/// `chosen`/`arrival`/`flow` DP tables, and a per-cut-function match
/// shortlist memo.
///
/// The ground-truth cost evaluator maps thousands of candidate AIGs
/// per SA run. With a warm context the per-candidate DP performs no
/// heap allocation once the buffers have grown to the largest graph
/// seen (shrinking and regrowing the candidate is fine — every table
/// is fully re-initialized per call, as the parity tests assert),
/// and every cut function resolves through the memo: matches are
/// fetched once per distinct function, their delay/area constants
/// folded at the estimated load, and dominated entries pruned, so the
/// steady-state inner loop is a handful of float max/adds per match.
///
/// A context may be reused across mappers: the memo is keyed to the
/// mapper instance that built it (libraries and options differ per
/// mapper) and silently rebuilt when a different mapper uses the
/// context, whose first call then recomputes every DP row.
#[derive(Debug, Default)]
pub struct MapContext {
    /// The cut table [`Mapper::map_with`] rebuilds per call; replaced
    /// when a mapper with other cut parameters uses the context.
    cuts: Option<CutDb>,
    fanout: Vec<u32>,
    pub(crate) chosen: Vec<Option<Chosen>>,
    arrival: Vec<f64>,
    flow: Vec<f64>,
    shortlists: Shortlists,
    /// [`Mapper::instance_id`] the memo was built for.
    fingerprint: Option<u64>,
    /// Node count the DP rows (`chosen`/`arrival`/`flow`) are valid
    /// for, under the fingerprinted mapper; `None` after an error or
    /// before the first successful map. [`Mapper::map_incremental`]
    /// reuses rows below its dirty watermark only when this matches —
    /// the "DirtyRegion hint" handshake that lets SA steps skip the
    /// clean prefix of the DP.
    rows_for: Option<usize>,
    // Netlist-construction scratch: node -> net, net -> its inverter
    // net, and the post-order traversal stack.
    net_of: Vec<Option<NetId>>,
    inv_of: Vec<Option<NetId>>,
    build_stack: Vec<(NodeId, bool)>,
    /// Output-reachability scratch: unmatchable nodes are an error
    /// only when live (see [`MapError::NoMatch`]).
    live: Vec<bool>,
    /// Sorted ids of rows whose `chosen` is `None` (unmatchable
    /// nodes), maintained across [`Mapper::dp_update`] calls so the
    /// per-row cutoff can run the liveness check without a full
    /// sweep. Valid whenever `rows_for` is.
    none_rows: Vec<NodeId>,
    /// Per-row DP cutoff switch, stored inverted so the default
    /// (`false`) means *enabled*; see [`MapContext::set_row_cutoff`].
    cutoff_disabled: bool,
    /// The [`CutDb::instance_id`] and [`CutDb::clock`] the rows were
    /// last computed against: a row whose [`CutDb::version`] is at
    /// most that clock has an unchanged cut list. `None`, read as
    /// clock 0 ("reuse nothing"), after `map_with`, an error or a
    /// mapper change.
    seen: Option<(u64, u64)>,
    /// Ascending ids of the rows whose emission-visible choice
    /// (cell/pins/leaves/polarities) changed, **accumulated** across
    /// every DP pass since a design last consumed the record
    /// ([`MapContext::consume_changed_rows`]) — an interleaved
    /// `map_incremental` must stay visible to the next
    /// `sync_design`. Both passes record into it; `map_with`, which
    /// recomputes every row from a cleared table, starts it afresh.
    pub(crate) changed_rows: Vec<NodeId>,
    /// Per-node `CHANGED` / `WAKE` bits of the cutoff sweep in
    /// progress; reset per call.
    row_bits: Vec<u8>,
    /// Suffix fanout recompute scratch for the per-row cutoff.
    fanout_scratch: Vec<u32>,
    /// DP rows actually recomputed by the last mapping call.
    last_recomputed_rows: usize,
}

/// Marks the nodes reachable from the outputs into `live`.
fn mark_live(aig: &Aig, live: &mut Vec<bool>, stack: &mut Vec<(NodeId, bool)>) {
    live.clear();
    live.resize(aig.num_nodes(), false);
    stack.clear();
    stack.extend(aig.outputs().iter().map(|o| (o.lit.var(), false)));
    while let Some((id, _)) = stack.pop() {
        if live[id as usize] {
            continue;
        }
        live[id as usize] = true;
        if aig.is_and(id) {
            let [f0, f1] = aig.fanins(id);
            stack.push((f0.var(), false));
            stack.push((f1.var(), false));
        }
    }
}

impl MapContext {
    /// An empty context (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct cut functions memoized so far.
    pub fn num_memoized_functions(&self) -> usize {
        self.shortlists.len()
    }

    /// Enables or disables the incremental per-row DP cutoff
    /// (default **on**). With the cutoff off,
    /// [`Mapper::map_incremental`] / [`Mapper::sync_design`] run the
    /// same sweep under clock 0, as if every cut list had changed, so
    /// it recomputes every DP row at or above the dirty watermark —
    /// the no-reuse run kept as the benchmark baseline and as the
    /// second side of the cutoff parity tests. Results are
    /// bit-identical either way.
    pub fn set_row_cutoff(&mut self, on: bool) {
        self.cutoff_disabled = !on;
    }

    /// Whether the per-row DP cutoff is enabled (see
    /// [`MapContext::set_row_cutoff`]).
    pub fn row_cutoff(&self) -> bool {
        !self.cutoff_disabled
    }

    /// DP rows actually recomputed by the last mapping call through
    /// this context (full maps count every AND row). With the per-row
    /// cutoff this tracks the true footprint of the edit — the
    /// differential suite asserts it stays strictly below the
    /// watermark-to-top row count on windowed edits.
    pub fn recomputed_rows(&self) -> usize {
        self.last_recomputed_rows
    }

    /// The liveness check every entry point ends its DP with: an
    /// unmatchable row is an error only when the outputs reach it.
    /// Such rows are rare, so the output DFS runs only when one
    /// exists. `none_rows` ascends, so the reported node is the first
    /// live unmatchable id, whatever order the rows settled in.
    fn check_unmatched(&mut self, aig: &Aig) -> Result<(), MapError> {
        if self.none_rows.is_empty() {
            return Ok(());
        }
        mark_live(aig, &mut self.live, &mut self.build_stack);
        match self.none_rows.iter().find(|&&id| self.live[id as usize]) {
            Some(&node) => Err(MapError::NoMatch { node }),
            None => Ok(()),
        }
    }

    /// Resets the accumulated changed-row record after a design has
    /// applied it (see `changed_rows`).
    pub(crate) fn consume_changed_rows(&mut self) {
        self.changed_rows.clear();
    }

    /// Sorts and deduplicates the changed-row record and drops the
    /// ids an `n`-node graph no longer has (a shrink retires those
    /// rows through the design's release cascade instead), so the
    /// record stays at most `n` long however many passes feed it.
    fn settle_changed_rows(&mut self, n: usize) {
        self.changed_rows.sort_unstable();
        self.changed_rows.dedup();
        let kept = self.changed_rows.partition_point(|&id| (id as usize) < n);
        self.changed_rows.truncate(kept);
    }
}

/// Cutoff-sweep bit: the node's leaf-visible row state (arrival, flow,
/// fanout) changed in this call, so a row using it as a candidate cut
/// leaf must be recomputed.
const CHANGED: u8 = 1;
/// Cutoff-sweep bit: the node passes a wake-up on to the rows reading
/// it as a structural fanin.
const WAKE: u8 = 2;

/// A reusable technology mapper bound to a library.
///
/// Construction precomputes the Boolean match tables, so a `Mapper`
/// should be created once and reused across many mapping calls — the
/// ground-truth optimization flow maps thousands of candidate AIGs.
///
/// # Examples
///
/// ```
/// use aig::Aig;
/// use cells::sky130ish;
/// use techmap::{Mapper, MapOptions};
///
/// let mut g = Aig::new();
/// let a = g.add_input();
/// let b = g.add_input();
/// let f = g.xor(a, b);
/// g.add_output(f, Some("y"));
///
/// let lib = sky130ish();
/// let mapper = Mapper::new(&lib, MapOptions::default());
/// let netlist = mapper.map(&g)?;
/// assert!(netlist.num_gates() >= 1);
/// // The mapped netlist computes the same function.
/// assert_eq!(netlist.eval(&lib, &[true, false]), vec![true]);
/// assert_eq!(netlist.eval(&lib, &[true, true]), vec![false]);
/// # Ok::<(), techmap::MapError>(())
/// ```
pub struct Mapper<'a> {
    lib: &'a Library,
    matcher: Matcher,
    opts: MapOptions,
    /// The library's smallest inverter, resolved once; `None` makes
    /// every mapping call fail with [`MapError::NoInverter`].
    inverter: Option<CellId>,
    /// Process-unique id keying context memos to this mapper (never
    /// reused, so a dropped mapper's cached constants can't be
    /// mistaken for a new mapper's — unlike an address comparison).
    instance_id: u64,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper for `lib`, precomputing match tables.
    pub fn new(lib: &'a Library, opts: MapOptions) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Mapper {
            lib,
            matcher: Matcher::new(lib),
            opts,
            inverter: lib.find_inverter(),
            instance_id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Checks what every mapping call needs before it does any work:
    /// valid options ([`MapOptions::validate`]) and an inverter.
    fn check_ready(&self) -> Result<CellId, MapError> {
        self.opts.validate()?;
        self.inverter.ok_or(MapError::NoInverter)
    }

    /// The library this mapper targets.
    pub fn library(&self) -> &Library {
        self.lib
    }

    /// The options in use.
    pub fn options(&self) -> &MapOptions {
        &self.opts
    }

    /// Maps `aig` to a gate-level [`Netlist`].
    ///
    /// Equivalent to [`Mapper::map_with`] on a fresh [`MapContext`];
    /// loops that map many candidates should hold a context and call
    /// `map_with` to skip the per-call table allocations.
    ///
    /// # Errors
    ///
    /// [`MapError::BadOptions`] for out-of-range options (checked
    /// up front, see [`MapOptions::validate`]) and
    /// [`MapError::NoInverter`] for a library without an inverter
    /// (also up front); [`MapError::NoMatch`] if some node cannot be
    /// matched (possible only with an incomplete user library).
    pub fn map(&self, aig: &Aig) -> Result<Netlist, MapError> {
        self.map_with(&mut MapContext::new(), aig)
    }

    /// Maps `aig` reusing `ctx`'s cut table and DP tables.
    ///
    /// Produces a netlist identical to [`Mapper::map`]'s regardless of
    /// what the context previously mapped (asserted by the parity
    /// tests); on the steady state the cut enumeration and DP make no
    /// heap allocation.
    ///
    /// # Errors
    ///
    /// Exactly [`Mapper::map`]'s errors: options and the inverter are
    /// checked first, so neither surfaces as a later
    /// [`MapError::NoMatch`].
    pub fn map_with(&self, ctx: &mut MapContext, aig: &Aig) -> Result<Netlist, MapError> {
        let inv = self.check_ready()?;
        // The shortlist memo folds this mapper's library and load
        // model into its constants: rebuild it if the context last
        // served a different mapper.
        if ctx.fingerprint != Some(self.instance_id) {
            ctx.shortlists.clear();
            ctx.fingerprint = Some(self.instance_id);
        }
        ctx.rows_for = None;
        // The rows come from the context's own table, not a caller's
        // database, so no caller's clock vouches for them: the next
        // incremental call recomputes every row at or above its
        // watermark. The sweep recomputes every row of a cleared
        // table and so records every matched row afresh.
        ctx.seen = None;
        ctx.changed_rows.clear();
        let (k, max_cuts) = (self.opts.cut_size, self.opts.max_cuts);
        let mut cuts = match ctx.cuts.take() {
            Some(db) if db.k() == k && db.max_cuts() == max_cuts => db,
            _ => CutDb::new(k, max_cuts),
        };
        cuts.build(aig);
        // Every row is recomputed, and non-AND rows (inputs of this
        // graph that may have been ANDs of the last one) must read 0.
        let n = aig.num_nodes();
        ctx.chosen.clear();
        ctx.chosen.resize(n, None);
        ctx.arrival.clear();
        ctx.arrival.resize(n, 0.0);
        ctx.flow.clear();
        ctx.flow.resize(n, 0.0);
        ctx.last_recomputed_rows = self.dp_sweep(ctx, aig, &cuts);
        ctx.settle_changed_rows(n);
        ctx.cuts = Some(cuts);
        ctx.check_unmatched(aig)?;
        ctx.rows_for = Some(n);

        Ok(self.build_netlist(
            aig,
            inv,
            &ctx.chosen,
            &mut ctx.net_of,
            &mut ctx.inv_of,
            &mut ctx.build_stack,
        ))
    }

    /// Incremental remap after an in-place edit: DP rows below
    /// `dirty_since` are reused, those at or above it are checked and
    /// recomputed where their inputs changed, and cut lists come from
    /// the caller-maintained [`CutDb`] instead of a fresh enumeration.
    ///
    /// `dirty_since` is the edit's watermark — typically
    /// [`Transaction::min_touched`] or
    /// [`DirtyRegion::min_touched`] accumulated since the context
    /// last mapped this graph. The caller contracts that (a) `cuts`
    /// is live for `aig` with this mapper's `cut_size`/`max_cuts`,
    /// and (b) the context's previous map call (any of the three
    /// entry points) was for the same graph modulo edits at ids
    /// `>= dirty_since` — node ids below the watermark then have
    /// bit-identical cut lists, fanout counts and leaf arrivals, so
    /// their reused rows equal what a full DP would recompute. Above
    /// the watermark, consecutive calls against the same database
    /// reuse rows through a per-row cutoff, also when the graph shrank
    /// back after a rejected append: a row is recomputed only if its
    /// [`CutDb::version`] is later than the [`CutDb::clock`] the
    /// previous call read, or a candidate cut leaf's
    /// arrival/flow/fanout changed (bit-equality, settled in
    /// dependency order). Either way the produced netlist is
    /// **identical** to [`Mapper::map`]'s (asserted by the parity
    /// suites on random edit walks). Pass `0` to check every row, or a
    /// fresh context to recompute every row, while still skipping cut
    /// enumeration.
    ///
    /// [`Transaction::min_touched`]:
    /// aig::incremental::Transaction::min_touched
    /// [`DirtyRegion::min_touched`]:
    /// aig::incremental::DirtyRegion::min_touched
    ///
    /// # Errors
    ///
    /// [`Mapper::map`]'s errors, plus [`MapError::BadOptions`] when
    /// `cuts` was built with different cut parameters than this
    /// mapper's options, and [`MapError::StaleCuts`] when the
    /// database tracks a different node count than `aig` (a missed
    /// [`CutDb::build`]/[`CutDb::sync_appends`] — checked in every
    /// build profile, since a stale database would otherwise produce
    /// a silently wrong netlist in release builds).
    pub fn map_incremental(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        dirty_since: NodeId,
    ) -> Result<Netlist, MapError> {
        self.dp_update(ctx, aig, cuts, dirty_since)?;
        Ok(self.build_netlist(
            aig,
            self.inverter.expect("dp_update checked the inverter"),
            &ctx.chosen,
            &mut ctx.net_of,
            &mut ctx.inv_of,
            &mut ctx.build_stack,
        ))
    }

    /// The shared DP core of [`Mapper::map_incremental`] and
    /// [`Mapper::sync_design`]: refreshes the context's DP rows at or
    /// above the effective watermark through one dependency-ordered
    /// row sweep (`dp_rows_cutoff`; validating options, cut-database
    /// parameters, and the row-reuse handshake first) and records the
    /// rows whose emission-visible choice changed in `changed_rows`.
    /// Every row below the effective watermark is untouched.
    ///
    /// The sweep recomputes a row only if its [`CutDb::version`] is
    /// later than the [`CutDb::clock`] the context's previous call
    /// read from the same database, or the leaf-visible state
    /// (arrival, flow, fanout) of one of its candidate cuts' leaves
    /// changed, compared by bit-equality. Skipped rows are provably
    /// bit-identical to what a recompute would produce (deterministic
    /// DP over unchanged inputs), so the result — and the produced
    /// netlist — never depends on the cutoff. Clock 0 reuses nothing:
    /// after `map_with`, a mapper change, an error, against another
    /// database, or with [`MapContext::set_row_cutoff`]`(false)`, the
    /// sweep recomputes every row at or above the watermark. A graph
    /// that shrank back after a rejected append (the rollback stamped
    /// every restored list past the clock) runs the same sweep.
    ///
    /// **Cutoff invariant (leaf settles before root).** The cutoff
    /// sweep visits rows in dependency order: ascending ids on
    /// topological graphs, the cached [`aig::TopoIndex`] order under
    /// committed forward references. Every leaf of every candidate
    /// cut lies in the transitive fanin of its root, so the sweep
    /// finalizes a leaf's (arrival, flow, fanout) bits and its
    /// `CHANGED` / `WAKE` bits before any root row consults them, and
    /// the equality cutoff never reads half-settled state. The
    /// watermark is additionally clamped below the first forward id
    /// (see the clamp in the body), which restores the suffix-closure
    /// argument the suffix fanout refresh relies on: below the clamp
    /// no forward node exists, so no node below the watermark reads
    /// one at or above it.
    pub(crate) fn dp_update(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        dirty_since: NodeId,
    ) -> Result<(), MapError> {
        // A per-call count: a call that returns early recomputed
        // nothing.
        ctx.last_recomputed_rows = 0;
        self.check_ready()?;
        if cuts.k() != self.opts.cut_size || cuts.max_cuts() != self.opts.max_cuts {
            return Err(MapError::BadOptions(format!(
                "cut database (k={}, max_cuts={}) does not match mapper options (k={}, max_cuts={})",
                cuts.k(),
                cuts.max_cuts(),
                self.opts.cut_size,
                self.opts.max_cuts
            )));
        }
        let n = aig.num_nodes();
        if cuts.num_nodes() != n {
            // A real check in every profile: a stale database would
            // silently map through wrong cut lists in release builds.
            return Err(MapError::StaleCuts {
                db_nodes: cuts.num_nodes(),
                graph_nodes: n,
            });
        }
        // A context that last served a different mapper (or errored)
        // has no reusable rows; likewise everything from the first
        // appended node on, when the graph grew.
        let mut since = dirty_since;
        if ctx.fingerprint != Some(self.instance_id) {
            ctx.shortlists.clear();
            ctx.fingerprint = Some(self.instance_id);
            // The clock dates the other mapper's rows: it must not
            // vouch for them to this one.
            ctx.seen = None;
            since = 0;
        }
        since = match ctx.rows_for {
            Some(prev_n) if prev_n <= n => since.min(prev_n as NodeId),
            // The graph shrank back below the context's rows (a
            // rejected fresh-cone append rolled back). Rows below the
            // caller's watermark were restored bit-exactly, so the
            // watermark survives. Clamped below `n` so the no-op fast
            // path cannot skip dropping the larger graph's rows.
            Some(_) => since.min((n - 1) as NodeId),
            None => 0,
        };
        if since as usize >= n {
            // The edit touched nothing (an SA window with no
            // applicable rewrite): the graph is unchanged since the
            // previous call, so every row — and the previous call's
            // liveness verdict — still holds. The steady-state
            // no-op costs O(1), not O(graph).
            return Ok(());
        }
        // Committed forward references: a consumer below the dirty
        // watermark can read a recomputed row through a forward
        // fanin, so reused rows are only provably unchanged below the
        // first forward id — clamp the watermark there. (Placed after
        // the no-op fast path: an untouched graph's rows all hold.)
        if let Some(mf) = aig.forward_ids().next() {
            since = since.min(mf);
        }
        // A different `CutDb` instance never matches; forward
        // references do not disqualify the clock, since the sweep runs
        // in dependency order (see `dp_rows_cutoff`).
        let clock = match ctx.seen {
            Some((db, clock)) if db == cuts.instance_id() && !ctx.cutoff_disabled => clock,
            _ => 0,
        };
        ctx.rows_for = None;
        ctx.seen = None;
        ctx.chosen.resize(n, None);
        ctx.arrival.resize(n, 0.0);
        ctx.flow.resize(n, 0.0);
        // A shrink drops the larger graph's unmatchable rows too.
        let kept = ctx.none_rows.partition_point(|&id| (id as usize) < n);
        ctx.none_rows.truncate(kept);
        // The changed-row record accumulates across calls until a
        // `sync_design` consumes it — an interleaved `map_incremental`
        // must not make its changes invisible to the next design
        // patch.
        ctx.last_recomputed_rows = self.dp_rows_cutoff(ctx, aig, cuts, since, clock);
        ctx.settle_changed_rows(n);
        ctx.check_unmatched(aig)?;
        ctx.rows_for = Some(n);
        ctx.seen = Some((cuts.instance_id(), cuts.clock()));
        Ok(())
    }

    /// The DP sweep of [`Mapper::map_with`] over the context's freshly
    /// built table and cleared rows: recounts fanout, computes every
    /// AND row in dependency order, records the matched rows as
    /// changed, and rebuilds the ascending unmatchable-row set. It
    /// reuses nothing, so it stays the reference the parity suites
    /// hold every incremental result to. Returns the number of rows
    /// computed.
    fn dp_sweep(&self, ctx: &mut MapContext, aig: &Aig, cuts: &CutDb) -> usize {
        aig::analysis::fanout_counts_into(aig, &mut ctx.fanout);
        let MapContext {
            fanout,
            chosen,
            arrival,
            flow,
            shortlists,
            none_rows,
            changed_rows,
            ..
        } = ctx;
        none_rows.clear();
        // Recomputed rows must settle in dependency order: ascending
        // ids, except under committed forward references, where an
        // appended leaf's row must settle before its spliced reader's
        // — `for_each_and_topo` serves the cached dependency order in
        // that case, with no per-call allocation either way.
        let mut recomputed = 0usize;
        aig.for_each_and_topo(|id| {
            recomputed += 1;
            match self.choose_for_node(id, cuts.cuts(id), fanout, arrival, flow, shortlists) {
                Some(best) => {
                    arrival[id as usize] = best.arrival_ps;
                    flow[id as usize] = best.area_flow;
                    chosen[id as usize] = Some(best);
                    changed_rows.push(id);
                }
                None => none_rows.push(id),
            }
        });
        if !aig.is_topological() {
            // Dependency-ordered pushes above; `none_rows` must stay
            // ascending (first-live-unmatchable reporting, binary
            // searches in the cutoff pass).
            none_rows.sort_unstable();
        }
        recomputed
    }

    /// The row sweep of [`Mapper::dp_update`] (see its docs for the
    /// clock): one sweep over the AND rows at or above `since` in
    /// dependency order that recomputes a row only when its
    /// [`CutDb::version`] is later than `clock` (every row, under
    /// clock 0), or when a structural fanin passed a wake-up on
    /// (`WAKE`) and one of the row's candidate cuts' leaves carries a
    /// changed (arrival, flow, fanout) bit-state (`CHANGED`). A node
    /// passes a wake-up on when its fanout count moved, or when it was
    /// recomputed and either its arrival/flow bits changed or it still
    /// carries a dirty candidate leaf: merged cuts inherit leaves, so
    /// a reader may read that leaf directly even though this row's
    /// outputs settled. A row nothing woke costs a version compare and
    /// two bit reads, so the heavy DP cost tracks the edit footprint;
    /// the watermark-to-top work is this sweep plus the suffix fanout
    /// refresh, a few bytes per node each. Maintains `none_rows`
    /// incrementally and records the emission-visible changed rows in
    /// `changed_rows`. Returns the number of rows recomputed.
    fn dp_rows_cutoff(
        &self,
        ctx: &mut MapContext,
        aig: &Aig,
        cuts: &CutDb,
        since: NodeId,
        clock: u64,
    ) -> usize {
        let n = aig.num_nodes();
        let s = since as usize;
        ctx.row_bits.clear();
        ctx.row_bits.resize(n, 0);
        // Suffix fanout refresh: fanout below the watermark is
        // unchanged by the caller contract, and every consumer of a
        // node at or above it also sits at or above it — `dp_update`
        // clamped the watermark below the first forward id, so a
        // consumer below it reading a node above it would itself be a
        // forward node below the first one, a contradiction. The
        // suffix counts therefore close over themselves.
        // Leaves whose count moved feed the area-flow term of every
        // row using them, and wake their readers.
        ctx.fanout_scratch.clear();
        ctx.fanout_scratch.resize(n - s, 0);
        for id in since..n as NodeId {
            if aig.is_and(id) {
                let [f0, f1] = aig.fanins(id);
                for v in [f0.var() as usize, f1.var() as usize] {
                    if v >= s {
                        ctx.fanout_scratch[v - s] += 1;
                    }
                }
            }
        }
        for o in aig.outputs() {
            let v = o.lit.var() as usize;
            if v >= s {
                ctx.fanout_scratch[v - s] += 1;
            }
        }
        ctx.fanout.resize(n, 0);
        for (i, &fo) in ctx.fanout_scratch.iter().enumerate() {
            if ctx.fanout[s + i] != fo {
                ctx.fanout[s + i] = fo;
                ctx.row_bits[s + i] = CHANGED | WAKE;
            }
        }
        let MapContext {
            fanout,
            chosen,
            arrival,
            flow,
            shortlists,
            none_rows,
            changed_rows,
            row_bits,
            ..
        } = ctx;
        let mut recomputed = 0usize;
        let mut visit = |id: NodeId| {
            let vi = id as usize;
            let version_moved = cuts.version(id) > clock;
            let [f0, f1] = aig.fanins(id);
            let woken = (row_bits[f0.var() as usize] | row_bits[f1.var() as usize]) & WAKE != 0;
            if !version_moved && !woken {
                return; // no wake-up reached this row
            }
            let cut_list = cuts.cuts(id);
            let leaf_dirty = cut_list.iter().any(|c| {
                c.leaves()
                    .iter()
                    .any(|&l| row_bits[l as usize] & CHANGED != 0)
            });
            if !version_moved && !leaf_dirty {
                return; // equality cutoff: the row's inputs settled
            }
            recomputed += 1;
            let old_arrival = arrival[vi];
            let old_flow = flow[vi];
            let best = self.choose_for_node(id, cut_list, fanout, arrival, flow, shortlists);
            if !emit_eq(&chosen[vi], &best) {
                changed_rows.push(id);
            }
            match best {
                Some(b) => {
                    arrival[vi] = b.arrival_ps;
                    flow[vi] = b.area_flow;
                    chosen[vi] = Some(b);
                }
                None => {
                    arrival[vi] = 0.0;
                    flow[vi] = 0.0;
                    chosen[vi] = None;
                }
            }
            // Bit-equality cutoff: readers read a leaf's arrival,
            // flow and fanout — chosen-match changes alone do not
            // propagate (they only matter for emission, recorded in
            // `changed_rows` above).
            if arrival[vi].to_bits() != old_arrival.to_bits()
                || flow[vi].to_bits() != old_flow.to_bits()
            {
                row_bits[vi] |= CHANGED;
            }
            if row_bits[vi] & CHANGED != 0 || leaf_dirty {
                row_bits[vi] |= WAKE;
            }
            let is_none = chosen[vi].is_none();
            if is_none {
                if let Err(pos) = none_rows.binary_search(&id) {
                    none_rows.insert(pos, id);
                }
            } else if let Ok(pos) = none_rows.binary_search(&id) {
                none_rows.remove(pos);
            }
        };
        if aig.is_topological() {
            for id in since..n as NodeId {
                if aig.is_and(id) {
                    visit(id);
                }
            }
        } else {
            // The cached dependency order may interleave rows below
            // the watermark with rows above it (its prefix is
            // ascending only up to the forward id it was derived at):
            // start at the first position a row above it holds.
            let topo = aig.topo_and_order();
            let first = topo.positions()[s..]
                .iter()
                .min()
                .map_or(usize::MAX, |&p| p as usize);
            for &id in topo.order().iter().skip(first) {
                if id >= since {
                    visit(id);
                }
            }
        }
        recomputed
    }

    /// One DP row: the best library match for `id` over its cut list,
    /// given the rows of every preceding node. Shared verbatim by the
    /// full and incremental entry points so both select identically.
    fn choose_for_node(
        &self,
        id: NodeId,
        cut_list: &[Cut],
        fanout: &[u32],
        arrival: &[f64],
        flow: &[f64],
        shortlists: &mut Shortlists,
    ) -> Option<Chosen> {
        let mut best: Option<Chosen> = None;
        for cut in cut_list {
            if cut.size() == 1 && cut.leaves()[0] == id {
                continue; // trivial cut: a node cannot implement itself
            }
            let Some((tt, kept, nv)) = shrink_support(cut.tt(), cut.leaves()) else {
                continue; // constant function over the cut
            };
            debug_assert!(nv <= 4, "mapper cuts have at most four leaves");
            let leaves = CutLeaves {
                arr: [kept[0], kept[1], kept[2], kept[3]],
                len: nv as u8,
            };
            let matches = shortlists
                .entry((nv as u8, tt))
                .or_insert_with(|| self.build_shortlist(nv, tt));
            if matches.is_empty() {
                continue;
            }
            let leaf_flow: f64 = leaves
                .as_slice()
                .iter()
                .map(|&l| flow[l as usize] / f64::from(fanout[l as usize].max(1)))
                .sum();
            for pm in matches.iter() {
                let mut arr: f64 = 0.0;
                for (j, &leaf) in leaves.as_slice().iter().enumerate() {
                    arr = arr.max(arrival[leaf as usize] + pm.add[j]);
                }
                arr += pm.out_add;
                let af = pm.fixed_area + leaf_flow;
                let better = match &best {
                    None => true,
                    Some(b) => match self.opts.goal {
                        MapGoal::Delay => (arr, af) < (b.arrival_ps, b.area_flow),
                        MapGoal::Area => (af, arr) < (b.area_flow, b.arrival_ps),
                    },
                };
                if better {
                    best = Some(Chosen {
                        m: pm.m,
                        leaves,
                        arrival_ps: arr,
                        area_flow: af,
                    });
                }
            }
        }
        best
    }

    /// Folds the matcher's entries for an `nv`-variable cut function
    /// into [`PreMatch`] constants at the estimated load, dropping
    /// matches that are weakly dominated by an earlier entry (at
    /// least as slow on every variable and output, and at least as
    /// large — such a match can never be selected, under either
    /// goal, for any leaf arrivals).
    fn build_shortlist(&self, nv: usize, tt: u64) -> Vec<PreMatch> {
        let inv = self.lib.cell(
            self.inverter
                .expect("mapping calls check the inverter first"),
        );
        let inv_delay = inv.pins[0].intrinsic_ps + inv.drive_res * self.opts.est_load_ff;
        let inv_area = inv.area_um2;
        let mut out: Vec<PreMatch> = Vec::new();
        'matches: for m in self.matcher.matches_cut_fn(nv, tt) {
            let cell = self.lib.cell(m.cell);
            let mut pm = PreMatch {
                m: *m,
                add: [0.0; 4],
                out_add: if m.output_compl { inv_delay } else { 0.0 },
                fixed_area: cell.area_um2 + if m.output_compl { inv_area } else { 0.0 },
            };
            for j in 0..nv {
                let mut a = cell.delay_ps(m.pin_of_var[j] as usize, self.opts.est_load_ff);
                if m.input_compl >> j & 1 == 1 {
                    a += inv_delay;
                    pm.fixed_area += inv_area;
                }
                pm.add[j] = a;
            }
            for kept in &out {
                let dominated = kept.fixed_area <= pm.fixed_area
                    && kept.out_add <= pm.out_add
                    && (0..nv).all(|j| kept.add[j] <= pm.add[j]);
                if dominated {
                    continue 'matches;
                }
            }
            out.push(pm);
        }
        out
    }

    /// Instantiates the selected cover into a netlist.
    ///
    /// `net_of`/`inv_of`/`stack` are caller-owned scratch (dense
    /// node→net and net→inverter-net tables), fully re-initialized
    /// here so reuse across calls cannot leak state.
    fn build_netlist(
        &self,
        aig: &Aig,
        inv_cell: CellId,
        chosen: &[Option<Chosen>],
        net_of: &mut Vec<Option<NetId>>,
        inv_of: &mut Vec<Option<NetId>>,
        stack: &mut Vec<(NodeId, bool)>,
    ) -> Netlist {
        let mut nl = Netlist::new();
        net_of.clear();
        net_of.resize(aig.num_nodes(), None);
        inv_of.clear();
        for &pi in aig.inputs() {
            net_of[pi as usize] = Some(nl.add_input());
        }
        fn inverter_of(
            nl: &mut Netlist,
            inv_of: &mut Vec<Option<NetId>>,
            inv_cell: CellId,
            base: NetId,
        ) -> NetId {
            let idx = base.0 as usize;
            if inv_of.len() <= idx {
                inv_of.resize(idx + 1, None);
            }
            *inv_of[idx].get_or_insert_with(|| nl.add_gate(inv_cell, vec![base]))
        }

        // Iterative post-order construction of needed nodes.
        stack.clear();
        stack.extend(
            aig.outputs()
                .iter()
                .filter(|o| aig.is_and(o.lit.var()))
                .map(|o| (o.lit.var(), false)),
        );
        while let Some((node, expanded)) = stack.pop() {
            if net_of[node as usize].is_some() {
                continue;
            }
            let ch = chosen[node as usize]
                .as_ref()
                .expect("cover reaches only mapped AND nodes");
            if !expanded {
                stack.push((node, true));
                for &leaf in ch.leaves.as_slice() {
                    if aig.is_and(leaf) && net_of[leaf as usize].is_none() {
                        stack.push((leaf, false));
                    }
                }
                continue;
            }
            let cell = self.lib.cell(ch.m.cell);
            let mut inputs: Vec<NetId> = vec![NetId(u32::MAX); cell.num_inputs()];
            for (j, &leaf) in ch.leaves.as_slice().iter().enumerate() {
                let base = net_of[leaf as usize].expect("leaves built before the root");
                let sig = if ch.m.input_compl >> j & 1 == 1 {
                    inverter_of(&mut nl, inv_of, inv_cell, base)
                } else {
                    base
                };
                inputs[ch.m.pin_of_var[j] as usize] = sig;
            }
            debug_assert!(inputs.iter().all(|n| n.0 != u32::MAX), "all pins assigned");
            let mut out = nl.add_gate(ch.m.cell, inputs);
            if ch.m.output_compl {
                out = inverter_of(&mut nl, inv_of, inv_cell, out);
            }
            net_of[node as usize] = Some(out);
        }

        for o in aig.outputs() {
            let var = o.lit.var();
            let base = if var == 0 {
                nl.const_net(false)
            } else {
                net_of[var as usize].expect("all output drivers built")
            };
            let net = if o.lit.is_complement() {
                if let aig::NodeKind::Const = aig.node_kind(var) {
                    nl.const_net(true)
                } else {
                    inverter_of(&mut nl, inv_of, inv_cell, base)
                }
            } else {
                base
            };
            nl.add_output(net, o.name.clone());
        }
        nl
    }
}

/// Whether two DP row choices would emit identical gates: same cell,
/// pin assignment, polarities and leaves. Timing scores are excluded
/// on purpose — they never reach the netlist, so rows differing only
/// in scores need no re-emission (readers track score changes
/// through the DP cutoff's `CHANGED` bits instead).
fn emit_eq(a: &Option<Chosen>, b: &Option<Chosen>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => a.m == b.m && a.leaves.as_slice() == b.leaves.as_slice(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::sim::SimTable;
    use cells::sky130ish;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn verify_mapping(aig: &Aig, nl: &Netlist, lib: &Library) {
        assert!(aig.num_inputs() <= 12, "test helper uses exhaustive sim");
        let sim = SimTable::exhaustive(aig).expect("small");
        let n = aig.num_inputs();
        for m in 0..(1usize << n) {
            let pis: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            let got = nl.eval(lib, &pis);
            for (k, o) in aig.outputs().iter().enumerate() {
                assert_eq!(
                    got[k],
                    sim.lit_bit(o.lit, m),
                    "output {k} pattern {m:b} differs"
                );
            }
        }
    }

    fn random_aig(seed: u64, num_inputs: usize, num_nodes: usize) -> Aig {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<aig::Lit> = (0..num_inputs).map(|_| g.add_input()).collect();
        for _ in 0..num_nodes {
            let a = lits[rng.gen_range(0..lits.len())];
            let b = lits[rng.gen_range(0..lits.len())];
            let a = a.complement_if(rng.gen());
            let b = b.complement_if(rng.gen());
            let f = g.and(a, b);
            lits.push(f);
        }
        for _ in 0..3 {
            let l = lits[rng.gen_range(0..lits.len())];
            g.add_output(l.complement_if(rng.gen()), None::<&str>);
        }
        g
    }

    #[test]
    fn maps_simple_functions() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let f = g.or(ab, c); // AO21 shape
        let x = g.xor(a, c);
        g.add_output(f, Some("f"));
        g.add_output(x, Some("x"));
        g.add_output(!f, None::<&str>);
        let nl = mapper.map(&g).expect("mappable");
        verify_mapping(&g, &nl, &lib);
        // XOR should map to a single XOR cell rather than 3 gates.
        let hist = nl.cell_histogram(&lib);
        assert!(
            hist.iter()
                .any(|(n, _)| n.starts_with("XOR") || n.starts_with("XNOR")),
            "expected an XOR-family cell, got {hist:?}"
        );
    }

    #[test]
    fn maps_random_graphs_correctly() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        for seed in 0..8 {
            let g = random_aig(seed, 6, 40);
            let nl = mapper.map(&g).expect("mappable");
            verify_mapping(&g, &nl, &lib);
        }
    }

    #[test]
    fn area_mode_not_larger_than_delay_mode() {
        let lib = sky130ish();
        let delay = Mapper::new(&lib, MapOptions::default());
        let area = Mapper::new(
            &lib,
            MapOptions {
                goal: MapGoal::Area,
                ..MapOptions::default()
            },
        );
        let mut total_d = 0.0;
        let mut total_a = 0.0;
        for seed in 0..4 {
            let g = random_aig(100 + seed, 8, 80);
            total_d += delay.map(&g).expect("ok").area_um2(&lib);
            total_a += area.map(&g).expect("ok").area_um2(&lib);
        }
        assert!(
            total_a <= total_d * 1.05,
            "area mode {total_a} should not exceed delay mode {total_d}"
        );
    }

    #[test]
    fn po_edge_cases() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        g.add_output(aig::Lit::TRUE, Some("tie1"));
        g.add_output(aig::Lit::FALSE, Some("tie0"));
        g.add_output(a, Some("pass"));
        g.add_output(!a, Some("inv"));
        let f = g.and(a, b);
        g.add_output(f, Some("f"));
        g.add_output(f, Some("f_again"));
        let nl = mapper.map(&g).expect("mappable");
        verify_mapping(&g, &nl, &lib);
    }

    #[test]
    fn shared_inverters() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let a = g.add_input();
        g.add_output(!a, None::<&str>);
        g.add_output(!a, None::<&str>);
        let nl = mapper.map(&g).expect("mappable");
        assert_eq!(nl.num_gates(), 1, "inverter must be shared");
    }

    /// Every invalid option must surface as `BadOptions` — never as a
    /// later `NoMatch` — from both `map` and `map_with`.
    #[test]
    fn bad_options_rejected() {
        let lib = sky130ish();
        let g = random_aig(1, 4, 10);
        let bad = [
            MapOptions {
                cut_size: 6,
                ..MapOptions::default()
            },
            MapOptions {
                cut_size: 1,
                ..MapOptions::default()
            },
            MapOptions {
                max_cuts: 1,
                ..MapOptions::default()
            },
            MapOptions {
                est_load_ff: 0.0,
                ..MapOptions::default()
            },
            MapOptions {
                est_load_ff: -3.0,
                ..MapOptions::default()
            },
            MapOptions {
                est_load_ff: f64::NAN,
                ..MapOptions::default()
            },
            MapOptions {
                est_load_ff: f64::INFINITY,
                ..MapOptions::default()
            },
        ];
        for opts in bad {
            assert!(
                matches!(opts.validate(), Err(MapError::BadOptions(_))),
                "{opts:?}"
            );
            let m = Mapper::new(&lib, opts);
            assert!(
                matches!(m.map(&g), Err(MapError::BadOptions(_))),
                "map must reject {opts:?} up front"
            );
            let mut ctx = MapContext::new();
            assert!(
                matches!(m.map_with(&mut ctx, &g), Err(MapError::BadOptions(_))),
                "map_with must reject {opts:?} up front"
            );
        }
        assert!(MapOptions::default().validate().is_ok());
    }

    /// A context reused across distinct graphs (including a
    /// shrink-then-grow size sequence) must reproduce `map`'s netlist
    /// exactly.
    #[test]
    fn context_reuse_matches_fresh_map() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut ctx = MapContext::new();
        // big -> small -> big again: stale table contents from the
        // larger graph must not leak into the smaller one.
        for (seed, nodes) in [(11u64, 80), (12, 8), (13, 60), (11, 80), (14, 25)] {
            let g = random_aig(seed, 6, nodes);
            let fresh = mapper.map(&g).expect("mappable");
            let reused = mapper.map_with(&mut ctx, &g).expect("mappable");
            assert_eq!(
                format!("{fresh:?}"),
                format!("{reused:?}"),
                "seed {seed}: context-reusing map diverged"
            );
            verify_mapping(&g, &reused, &lib);
        }
    }

    /// Random in-place edit walks: after every substitution, mapping
    /// incrementally (cut database + dirty watermark, rows reused
    /// below it) must reproduce the fresh `map` netlist exactly.
    #[test]
    fn incremental_map_matches_fresh_map_across_edits() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0x1A9 ^ seed);
            let mut g = random_aig(700 + seed, 7, 90);
            let mut inc = IncrementalAnalysis::new(&g);
            let mut db = CutDb::new(4, 8);
            db.build(&g);
            let mut ctx = MapContext::new();
            // Seed the context rows with the unedited graph.
            let first = mapper
                .map_incremental(&mut ctx, &g, &db, 0)
                .expect("mappable");
            assert_eq!(
                format!("{first:?}"),
                format!("{:?}", mapper.map(&g).unwrap())
            );
            for _ in 0..10 {
                let mut txn = Transaction::begin(&mut g, &mut inc);
                for _ in 0..rng.gen_range(1..3) {
                    let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                    let node = ands[rng.gen_range(0..ands.len())];
                    let with = aig::Lit::new(rng.gen_range(0..node), rng.gen());
                    txn.substitute(node, with);
                    db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
                }
                let since = txn.min_touched();
                txn.commit();
                // Arbitrary test substitutions can leave a *live*
                // constant node behind (e.g. AND(x, !x) on an output
                // path), which no cell matches; both entry points
                // must then fail identically.
                let incr = mapper.map_incremental(&mut ctx, &g, &db, since);
                let fresh = mapper.map(&g);
                match (incr, fresh) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "seed {seed}: incremental map diverged (since={since})"
                    ),
                    (Err(MapError::NoMatch { node: a }), Err(MapError::NoMatch { node: b })) => {
                        assert_eq!(a, b, "seed {seed}: error node diverged");
                    }
                    (a, b) => panic!("seed {seed}: outcome diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    /// The watermark fast path: an untouched graph remaps through
    /// reused rows only, still yielding the identical netlist.
    #[test]
    fn incremental_map_with_clean_rows_is_identical() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let g = random_aig(42, 6, 60);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        let mut ctx = MapContext::new();
        let a = mapper
            .map_incremental(&mut ctx, &g, &db, 0)
            .expect("mappable");
        let b = mapper
            .map_incremental(&mut ctx, &g, &db, NodeId::MAX)
            .expect("mappable");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// A dead unmatchable node (every cut function constant) below
    /// the dirty watermark that an edit pulls back into the cover
    /// must error exactly like a fresh `map` — the reused-row fast
    /// path may not mask it.
    #[test]
    fn incremental_map_errors_on_resurrected_dead_node() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let z = g.add_input();
        // Dead cone: e = x & !x (unmatchable), c consumes it.
        let e = {
            // Bypass `and`'s trivial rules to get a real AND(x, !x):
            // build x&y then rewire it, as an in-place edit would.
            let t = g.and(x, y);
            let mut inc = IncrementalAnalysis::new(&g);
            let mut txn = Transaction::begin(&mut g, &mut inc);
            txn.substitute(y.var(), !x);
            txn.commit();
            t
        };
        let c = g.and(e, z);
        // Live logic, built after the dead cone so c < zn.
        let zn = g.and(y, z);
        g.add_output(zn, None::<&str>);

        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        let mut ctx = MapContext::new();
        // Prior call caches rows: e is dead, row None, map succeeds.
        mapper
            .map_incremental(&mut ctx, &g, &db, 0)
            .expect("dead unmatchable node is skipped");
        // Retarget the output into the dead cone: e becomes live.
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(zn.var(), c);
        let since = txn.min_touched();
        txn.commit();
        db.invalidate(&g, &inc, inc.last_dirty());
        assert!(e.var() < since, "e's row sits below the watermark");
        let fresh = mapper.map(&g);
        let incr = mapper.map_incremental(&mut ctx, &g, &db, since);
        match (incr, fresh) {
            (Err(MapError::NoMatch { node: a }), Err(MapError::NoMatch { node: b })) => {
                assert_eq!(a, b, "both entry points must name the same node");
                assert_eq!(a, e.var());
            }
            (a, b) => panic!("outcome diverged: {a:?} vs {b:?}"),
        }
    }

    /// `map_with` skips unmatchable rows the outputs do not reach, and
    /// once such rows are live it names the first one in ascending id
    /// order, whatever order the outputs list them in.
    #[test]
    fn map_with_skips_dead_unmatchable_rows_and_names_first_live() {
        use aig::incremental::{IncrementalAnalysis, Transaction};
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let mut g = Aig::new();
        let x = g.add_input();
        let y = g.add_input();
        let w = g.add_input();
        let z = g.add_input();
        // Two real AND(x, !x) nodes (every cut function constant),
        // made by rewiring their second fanins as an in-place edit
        // would; `and` itself folds the pattern away.
        let e1 = g.and(x, y);
        let e2 = g.and(x, w);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(y.var(), !x);
        txn.substitute(w.var(), !x);
        txn.commit();
        let f = g.and(x, z);
        g.add_output(f, None::<&str>);
        let mut ctx = MapContext::new();
        let warm = random_aig(3, 6, 40);
        mapper.map_with(&mut ctx, &warm).expect("mappable");
        let nl = mapper
            .map_with(&mut ctx, &g)
            .expect("dead unmatchable rows are skipped");
        verify_mapping(&g, &nl, &lib);
        assert_eq!(format!("{nl:?}"), format!("{:?}", mapper.map(&g).unwrap()));

        g.add_output(e2, None::<&str>);
        g.add_output(e1, None::<&str>);
        assert!(e1.var() < e2.var());
        for got in [mapper.map_with(&mut ctx, &g), mapper.map(&g)] {
            match got {
                Err(MapError::NoMatch { node }) => assert_eq!(node, e1.var()),
                other => panic!("expected NoMatch, got {other:?}"),
            }
        }
    }

    /// A mismatched cut database is a caller bug surfaced up front.
    #[test]
    fn incremental_map_rejects_mismatched_cutdb() {
        let lib = sky130ish();
        let mapper = Mapper::new(&lib, MapOptions::default());
        let g = random_aig(1, 4, 10);
        let mut db = CutDb::new(3, 8); // wrong k
        db.build(&g);
        let mut ctx = MapContext::new();
        assert!(matches!(
            mapper.map_incremental(&mut ctx, &g, &db, 0),
            Err(MapError::BadOptions(_))
        ));
    }

    /// A user library without an inverter is a typed error before any
    /// mapping work, on every entry point; one with only an inverter
    /// still reports the first unmatchable node.
    #[test]
    fn library_without_inverter_is_a_typed_error() {
        let full = sky130ish();
        let only = |names: &[&str]| {
            let mut lib = Library::new("user", full.wire_cap_per_fanout_ff());
            for c in full
                .cells()
                .iter()
                .filter(|c| names.contains(&c.name.as_str()))
            {
                lib.push(c.clone());
            }
            assert_eq!(lib.len(), names.len(), "cells {names:?} exist");
            lib
        };
        let g = random_aig(5, 5, 30);
        let nand_only = only(&["NAND2_X1"]);
        assert!(nand_only.find_inverter().is_none());
        let mapper = Mapper::new(&nand_only, MapOptions::default());
        assert!(matches!(mapper.map(&g), Err(MapError::NoInverter)));
        let mut ctx = MapContext::new();
        assert!(matches!(
            mapper.map_with(&mut ctx, &g),
            Err(MapError::NoInverter)
        ));
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        assert!(matches!(
            mapper.map_incremental(&mut ctx, &g, &db, 0),
            Err(MapError::NoInverter)
        ));
        let mut design = crate::MappedDesign::new();
        assert!(matches!(
            mapper.sync_design(&mut ctx, &g, &db, 0, &mut design),
            Err(MapError::NoInverter)
        ));
        assert_eq!(
            MapError::NoInverter.to_string(),
            "the cell library has no inverter"
        );

        let inv_only = only(&["INV_X1"]);
        let mapper = Mapper::new(&inv_only, MapOptions::default());
        assert!(matches!(mapper.map(&g), Err(MapError::NoMatch { .. })));
    }
}
