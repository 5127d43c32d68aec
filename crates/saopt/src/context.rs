//! The reusable evaluation context carried across SA iterations.
//!
//! One SA run prices thousands of candidate AIGs, and before this
//! subsystem every candidate paid three graph-sized setup costs: the
//! resynthesis transforms rebuilt their `(nv, tt) -> SmallStructure`
//! cache from scratch, the proxy evaluator allocated a fresh level
//! table, and the ground-truth evaluator allocated the mapper's DP
//! tables (the mapper side lives in [`techmap::MapContext`], held by
//! [`crate::GroundTruthCost`]). [`EvalContext`] owns the pieces that
//! persist across iterations:
//!
//! * a shared [`ResynthCache`] (`Arc`, NPN-canonical) threaded into
//!   every recipe application — one cache serves a whole run *and*
//!   all parallel chains of [`crate::optimize_seeds`] /
//!   [`crate::sweep`];
//! * a [`RecipeMemo`] of the whole-graph moves' recipe prefixes on the
//!   chain's current graph ([`EvalContext::apply_recipe`]): the chain
//!   rejects most moves and draws from a fixed action set, so the same
//!   prefixes keep meeting the same graph, and each is now applied at
//!   most once per graph. The memo is keyed on graph content, so a
//!   context reused for another run (or another input) needs no
//!   reset;
//! * a reusable [`Levels`] buffer for proxy evaluations
//!   ([`aig::analysis::levels_into`]), so the per-candidate analysis
//!   allocates nothing on the steady state;
//! * the in-place engine's [`IncrementalAnalysis`] + [`CutDb`]
//!   buffers: [`crate::optimize_with`] used to build both from
//!   scratch per run (and per whole-graph accept), so
//!   [`crate::optimize_seeds`] restarts and datagen sweeps paid a
//!   graph-sized allocation storm per chain. The context now owns the
//!   buffers; each run re-*fills* them for its own graph
//!   ([`IncrementalAnalysis::rebuild`] / [`CutDb::build`] reuse every
//!   allocation), so warm state persists across runs sharing a
//!   context — content never leaks between runs, only capacity.
//!   Rebuilding the [`CutDb`] also hands every node a fresh cut-list
//!   [version](CutDb::version), so the ground-truth evaluator's
//!   per-row DP cutoff can never mistake a previous run's rows for
//!   the new graph's.
//!
//! Results never depend on the context: every cached value is a pure
//! function of its key, so [`crate::optimize`] with a fresh, shared,
//! or disabled cache, and with the recipe memo on or off, produces
//! byte-identical outputs (asserted by the determinism integration
//! tests). For *edit-level* incrementality —
//! levels/fanout maintained through in-place graph edits rather than
//! recomputed per candidate — see [`aig::incremental`], which the
//! differential tests and benchmarks exercise directly.

use aig::analysis::Levels;
use aig::cut::CutDb;
use aig::incremental::IncrementalAnalysis;
use aig::Aig;
use std::sync::Arc;
use transform::{Recipe, RecipeMemo, ResynthCache};

/// Reusable evaluation state for one SA run (see the module docs).
///
/// It owns both memo layers of the whole-graph moves: the recipe memo
/// (per graph, per prefix) and a handle on the resynthesis cache (per
/// cut function). [`EvalContext::without_cache`] turns both off.
#[derive(Debug)]
pub struct EvalContext {
    resynth: Arc<ResynthCache>,
    /// Recipe-prefix results on the chain's current graph.
    memo: RecipeMemo,
    levels: Levels,
    /// Whether in-place-capable SA moves run through the edit
    /// transaction engine (`true`, the default) or through the
    /// clone-based oracle path. Results are byte-identical either
    /// way; the toggle exists so the determinism suite can pit the
    /// two against each other.
    inplace: bool,
    /// The in-place engine's warm buffers (see the module docs).
    engine: Option<(IncrementalAnalysis, CutDb)>,
    /// Pool of graph-shaped mapping buffers for ground-truth
    /// evaluators constructed against this context
    /// ([`techmap::MapPool`]): capacity survives across evaluator
    /// lifetimes exactly like the engine buffers above.
    map_pool: techmap::MapPool,
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalContext {
    /// A context with its own fresh (enabled) resynthesis cache.
    pub fn new() -> Self {
        Self::with_shared(Arc::new(ResynthCache::new()))
    }

    /// A context that memoizes nothing — neither recipe prefixes nor
    /// cut resyntheses. The oracle side of the cache-on-vs-off
    /// determinism tests.
    pub fn without_cache() -> Self {
        EvalContext {
            memo: RecipeMemo::disabled(),
            ..Self::with_shared(Arc::new(ResynthCache::disabled()))
        }
    }

    /// A context over an existing shared cache; parallel chains each
    /// get their own context (and recipe memo) but one cache.
    pub fn with_shared(resynth: Arc<ResynthCache>) -> Self {
        EvalContext {
            resynth,
            memo: RecipeMemo::new(),
            levels: Levels {
                level: Vec::new(),
                max_level: 0,
            },
            inplace: true,
            engine: None,
            map_pool: techmap::MapPool::new(),
        }
    }

    /// The context's pool of graph-shaped mapping buffers (hand it to
    /// [`crate::GroundTruthCost::with_pool`] /
    /// [`crate::GroundTruthCost::recycle`]).
    pub fn map_pool(&mut self) -> &mut techmap::MapPool {
        &mut self.map_pool
    }

    /// Pre-sizes the context's reusable buffers for an `nodes`-node
    /// graph (capacity only): the proxy level table, the in-place
    /// engine's cut database when present, and the mapping pool's
    /// checkout floor. Call once before a large-tier run so nothing
    /// graph-shaped grows mid-flight.
    pub fn reserve_nodes(&mut self, nodes: usize) {
        let lv = &mut self.levels.level;
        lv.reserve(nodes.saturating_sub(lv.len()));
        if let Some((_, db)) = &mut self.engine {
            db.reserve_nodes(nodes);
        }
        self.map_pool
            .reserve_nodes(nodes, techmap::MapOptions::default().max_cuts);
    }

    /// Takes the warm engine buffers (the SA loop re-fills them for
    /// its own graph before first use and returns them at run end).
    pub(crate) fn take_engine(&mut self) -> Option<(IncrementalAnalysis, CutDb)> {
        self.engine.take()
    }

    /// Returns the engine buffers for the next run sharing this
    /// context.
    pub(crate) fn put_engine(&mut self, engine: Option<(IncrementalAnalysis, CutDb)>) {
        self.engine = engine;
    }

    /// Whether [`crate::optimize_with`] executes in-place-capable
    /// moves through the edit transaction engine (default `true`).
    pub fn inplace_transactions(&self) -> bool {
        self.inplace
    }

    /// Switches the transaction engine on or off. Off routes every
    /// in-place-capable move through the clone-based whole-graph
    /// path — the oracle the byte-identity tests compare against.
    pub fn set_inplace_transactions(&mut self, on: bool) {
        self.inplace = on;
    }

    /// The resynthesis cache recipes are applied against.
    pub fn resynth(&self) -> &ResynthCache {
        &self.resynth
    }

    /// Applies `recipe` to `aig` through the context's recipe memo and
    /// resynthesis cache: exactly [`Recipe::apply_with`]`(aig,
    /// self.resynth())`, computing only the steps the memo does not
    /// hold for `aig`.
    pub fn apply_recipe(&mut self, recipe: &Recipe, aig: &Aig) -> Aig {
        self.memo.apply(aig, recipe, &self.resynth)
    }

    /// The recipe memo behind [`EvalContext::apply_recipe`] (its
    /// hit and miss counters).
    pub fn recipe_memo(&self) -> &RecipeMemo {
        &self.memo
    }

    /// Levels of `aig` computed into the context's reusable buffer.
    pub fn levels_of(&mut self, aig: &Aig) -> &Levels {
        aig::analysis::levels_into(aig, &mut self.levels);
        &self.levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_buffer_matches_oracle_across_graphs() {
        let mut ctx = EvalContext::new();
        for (inputs, chain) in [(4usize, 10usize), (2, 3), (6, 30)] {
            let mut g = Aig::new();
            let mut acc = g.add_input();
            for _ in 0..inputs.max(1) {
                for _ in 0..chain / inputs.max(1) {
                    let x = g.add_input();
                    acc = g.and(acc, x);
                }
            }
            g.add_output(acc, None::<&str>);
            let oracle = aig::analysis::levels(&g);
            let got = ctx.levels_of(&g);
            assert_eq!(got.level, oracle.level);
            assert_eq!(got.max_level, oracle.max_level);
        }
    }

    #[test]
    fn shared_handles_point_at_one_cache() {
        let ctx = EvalContext::new();
        let sibling = EvalContext::with_shared(Arc::clone(&ctx.resynth));
        assert!(Arc::ptr_eq(&ctx.resynth, &sibling.resynth));
        assert!(ctx.resynth().is_enabled());
        assert!(ctx.recipe_memo().is_enabled());
        let off = EvalContext::without_cache();
        assert!(!off.resynth().is_enabled());
        assert!(!off.recipe_memo().is_enabled());
    }
}
