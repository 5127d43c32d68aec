//! The reusable evaluation context carried across SA iterations.
//!
//! One SA run prices thousands of candidate AIGs. [`EvalContext`]
//! owns the state a run may leave to the next run on the same thread,
//! because it is keyed on content; evaluators keep their own pricing
//! buffers (the ground-truth mapper's [`techmap::MapContext`] lives in
//! [`crate::GroundTruthCost`]). The context holds:
//!
//! * its own NPN-canonical [`ResynthCache`], threaded into every
//!   recipe application — one cache serves a whole run, and every
//!   chain a worker of [`crate::optimize_seeds`] / [`crate::sweep`]
//!   runs, since each worker keeps one context;
//! * a [`RecipeMemo`] of the graphs the whole-graph moves reach from
//!   the chain's current graph: the chain rejects most moves and draws
//!   from a fixed action set, so it keeps reaching the same few
//!   graphs. The memo holds each distinct graph once and runs each
//!   primitive at most once per distinct input graph. It is keyed on
//!   graph content, so a context reused for another run (or another
//!   input) needs no reset;
//! * the switch between the in-place transaction engine and its
//!   clone-based oracle.
//!
//! Everything else a chain keeps is local to [`crate::optimize_with`]:
//! the in-place engine's buffers and the prices of the memo's graphs,
//! which are the run's evaluator's and so cannot outlive the run.
//!
//! Results never depend on the context: every cached value is a pure
//! function of its key, so [`crate::optimize`] with a fresh, warm, or
//! disabled cache, and with the recipe memo on or off, produces
//! byte-identical outputs (asserted by the determinism integration
//! tests). For *edit-level* incrementality —
//! levels/fanout maintained through in-place graph edits rather than
//! recomputed per candidate — see [`aig::incremental`], which the
//! differential tests and benchmarks exercise directly.

use aig::Aig;
use transform::{Recipe, RecipeMemo, ResynthCache, Walk};

/// Reusable evaluation state for one SA run (see the module docs).
///
/// It owns both memo layers of the whole-graph moves: the recipe memo
/// (distinct graphs, per base graph) and the resynthesis cache (per
/// cut function). [`EvalContext::without_cache`] turns both off.
#[derive(Debug)]
pub struct EvalContext {
    resynth: ResynthCache,
    /// Graphs reached from the chain's current graph.
    memo: RecipeMemo,
    /// Whether in-place-capable SA moves run through the edit
    /// transaction engine (`true`, the default) or through the
    /// clone-based oracle path. Results are byte-identical either
    /// way; the toggle exists so the determinism suite can pit the
    /// two against each other.
    inplace: bool,
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::new()
    }
}

impl EvalContext {
    /// A context with a fresh (enabled) resynthesis cache and recipe
    /// memo.
    pub fn new() -> Self {
        EvalContext {
            resynth: ResynthCache::new(),
            memo: RecipeMemo::new(),
            inplace: true,
        }
    }

    /// A context that memoizes nothing — neither recipe results nor
    /// cut resyntheses, so no candidate price is reused either. The
    /// oracle side of the cache-on-vs-off determinism tests.
    pub fn without_cache() -> Self {
        EvalContext {
            resynth: ResynthCache::disabled(),
            memo: RecipeMemo::disabled(),
            ..Self::new()
        }
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

    /// Walks `recipe` from `aig` through the context's recipe memo and
    /// resynthesis cache (see [`RecipeMemo::walk`]).
    pub(crate) fn walk_recipe(&mut self, recipe: &Recipe, aig: &Aig) -> Walk {
        self.memo.walk(aig, recipe, &self.resynth)
    }

    /// The memo behind [`crate::optimize_with`]'s whole-graph moves
    /// (its graphs and primitive counters).
    pub fn recipe_memo(&self) -> &RecipeMemo {
        &self.memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_cache_turns_both_memo_layers_off() {
        let ctx = EvalContext::new();
        assert!(ctx.resynth().is_enabled());
        assert!(ctx.recipe_memo().is_enabled());
        let off = EvalContext::without_cache();
        assert!(!off.resynth().is_enabled());
        assert!(!off.recipe_memo().is_enabled());
    }
}
