//! The reusable evaluation context carried across SA iterations.
//!
//! One SA run prices thousands of candidate AIGs. [`EvalContext`]
//! owns the state a run may share with other runs or leave to the
//! next one, because it is keyed on content; evaluators keep their
//! own pricing buffers (the ground-truth mapper's
//! [`techmap::MapContext`] lives in [`crate::GroundTruthCost`]). The
//! context holds:
//!
//! * a shared [`ResynthCache`] (`Arc`, NPN-canonical) threaded into
//!   every recipe application — one cache serves a whole run *and*
//!   all parallel chains of [`crate::optimize_seeds`] /
//!   [`crate::sweep`];
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
//! function of its key, so [`crate::optimize`] with a fresh, shared,
//! or disabled cache, and with the recipe memo on or off, produces
//! byte-identical outputs (asserted by the determinism integration
//! tests). For *edit-level* incrementality —
//! levels/fanout maintained through in-place graph edits rather than
//! recomputed per candidate — see [`aig::incremental`], which the
//! differential tests and benchmarks exercise directly.

use aig::Aig;
use std::sync::Arc;
use transform::{Recipe, RecipeMemo, ResynthCache, Walk};

/// Reusable evaluation state for one SA run (see the module docs).
///
/// It owns both memo layers of the whole-graph moves: the recipe memo
/// (distinct graphs, per base graph) and a handle on the resynthesis
/// cache (per cut function).
/// [`EvalContext::without_cache`] turns both off.
#[derive(Debug)]
pub struct EvalContext {
    resynth: Arc<ResynthCache>,
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
    /// A context with its own fresh (enabled) resynthesis cache.
    pub fn new() -> Self {
        Self::with_shared(Arc::new(ResynthCache::new()))
    }

    /// A context that memoizes nothing — neither recipe results nor
    /// cut resyntheses, so no candidate price is reused either. The
    /// oracle side of the cache-on-vs-off determinism tests.
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
            inplace: true,
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
