//! Memoized recipe application over one base graph.
//!
//! An SA chain prices moves against the same current graph until one
//! is accepted, and draws them from a fixed action set whose recipes
//! share prefixes (`rw`, `rw;b`, `rw;rf`, ...). Most moves are
//! rejected, and many accepted ones leave the graph unchanged, so the
//! chain keeps applying the same prefixes to the same graph.
//! [`RecipeMemo`] applies each prefix at most once per graph.

use crate::cache::ResynthCache;
use crate::recipes::{apply_with, Recipe, Transform};
use aig::{aiger, Aig};
use std::collections::HashMap;

/// The results of recipe prefixes applied to one base graph.
///
/// [`RecipeMemo::apply`] starts from the longest prefix of the recipe
/// already computed on its graph, computes only the remaining steps,
/// and keeps every prefix result it computes.
///
/// * **Exact.** `apply(g, recipe, cache)` returns exactly what
///   [`Recipe::apply_with`]`(g, cache)` returns, for every `g`. This
///   rests on the primitives' purity contract (see [`apply_with`]): a
///   primitive's result depends only on its input's content. An entry
///   is kept only if its bytes decode back to the very graph they
///   encode.
/// * **Keyed on content.** Each call compares its graph with the base
///   ([`Aig`]'s content equality) and starts over when they differ, so
///   callers need no invalidation hooks, and a caller that moves to a
///   graph equal to the base keeps every entry.
/// * **Compact.** Entries are binary AIGER ([`aiger::to_binary`],
///   about 2.6 bytes per AND) instead of in-memory graphs. The memo
///   holds one base and at most one entry per distinct prefix of the
///   recipes it is given: 103 for [`crate::recipes()`], whose proper
///   prefixes are all recipes themselves.
///
/// [`RecipeMemo::hits`] / [`RecipeMemo::misses`] count primitive
/// applications served from an entry / computed. A
/// [`RecipeMemo::disabled`] memo computes everything and counts
/// nothing, like [`ResynthCache::disabled`].
#[derive(Debug)]
pub struct RecipeMemo {
    enabled: bool,
    /// The graph every entry was computed from.
    base: Option<Aig>,
    /// Binary AIGER of each computed prefix's result.
    entries: HashMap<Vec<Transform>, Vec<u8>>,
    hits: u64,
    misses: u64,
}

impl Default for RecipeMemo {
    fn default() -> Self {
        Self::new()
    }
}

impl RecipeMemo {
    /// An empty, enabled memo.
    pub fn new() -> Self {
        RecipeMemo {
            enabled: true,
            base: None,
            entries: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// A memo that stores nothing: [`RecipeMemo::apply`] is
    /// [`Recipe::apply_with`]. The oracle side of the memo-on-vs-off
    /// determinism tests.
    pub fn disabled() -> Self {
        RecipeMemo {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether the memo stores results.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Primitive applications served from an entry so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Primitive applications computed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of prefix results held for the current base.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no prefix result is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Applies `recipe` to `aig` against `cache`: exactly
    /// [`Recipe::apply_with`]`(aig, cache)`, computing only the steps
    /// past the longest prefix already held for `aig`.
    pub fn apply(&mut self, aig: &Aig, recipe: &Recipe, cache: &ResynthCache) -> Aig {
        let steps = recipe.0.as_slice();
        if !self.enabled || steps.is_empty() {
            return recipe.apply_with(aig, cache);
        }
        if self.base.as_ref() != Some(aig) {
            self.entries.clear();
            self.base = Some(aig.clone());
        }
        let done = (1..=steps.len())
            .rev()
            .find(|&k| self.entries.contains_key(&steps[..k]))
            .unwrap_or(0);
        self.hits += done as u64;
        let mut current = (done > 0).then(|| {
            aiger::from_binary(&self.entries[&steps[..done]])
                .expect("entries are verified to decode when stored")
        });
        for k in done..steps.len() {
            let next = apply_with(current.as_ref().unwrap_or(aig), steps[k], cache);
            self.misses += 1;
            let bytes = aiger::to_binary(&next);
            if aiger::from_binary(&bytes).is_ok_and(|back| back == next) {
                self.entries.insert(steps[..=k].to_vec(), bytes);
            }
            current = Some(next);
        }
        current.expect("the recipe is non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipes::recipes;
    use aig::Lit;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_aig(seed: u64) -> Aig {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..7).map(|_| g.add_named_input(Some("x"))).collect();
        for _ in 0..90 {
            let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            lits.push(g.and(a, b));
        }
        for k in 0..4 {
            let l = lits[lits.len() - 1 - 5 * k];
            g.add_output(l.complement_if(rng.gen()), Some(format!("o{k}")));
        }
        g.set_name("memo");
        g
    }

    #[test]
    fn every_recipe_matches_the_reference_and_prefixes_are_reused() {
        let g = random_aig(3);
        let cache = ResynthCache::new();
        let mut memo = RecipeMemo::new();
        let all = recipes();
        for recipe in &all {
            assert_eq!(
                memo.apply(&g, recipe, &cache),
                recipe.apply_with(&g, &cache),
                "recipe `{recipe}`"
            );
        }
        // Every recipe's proper prefixes are recipes listed before it,
        // so each one computes exactly its last step.
        assert_eq!(memo.misses(), all.len() as u64);
        let steps: usize = all.iter().map(Recipe::len).sum();
        assert_eq!(memo.hits(), (steps - all.len()) as u64);
        assert_eq!(memo.len(), all.len());
        // A second pass over the same content is all hits.
        let copy = g.clone();
        for recipe in &all {
            assert_eq!(
                memo.apply(&copy, recipe, &cache),
                recipe.apply_with(&g, &cache)
            );
        }
        assert_eq!(memo.misses(), all.len() as u64);
    }

    #[test]
    fn a_different_graph_starts_over() {
        let (g, h) = (random_aig(5), random_aig(6));
        let cache = ResynthCache::new();
        let mut memo = RecipeMemo::new();
        let recipe: Recipe = "rw;b".parse().expect("parses");
        let _ = memo.apply(&g, &recipe, &cache);
        assert_eq!(memo.len(), 2);
        assert_eq!(
            memo.apply(&h, &recipe, &cache),
            recipe.apply_with(&h, &cache)
        );
        assert_eq!((memo.hits(), memo.misses()), (0, 4));
    }

    #[test]
    fn disabled_and_empty_recipes_bypass_the_memo() {
        let g = random_aig(7);
        let cache = ResynthCache::new();
        let mut off = RecipeMemo::disabled();
        let recipe: Recipe = "b;rf".parse().expect("parses");
        assert_eq!(
            off.apply(&g, &recipe, &cache),
            recipe.apply_with(&g, &cache)
        );
        assert!(!off.is_enabled() && off.is_empty());
        assert_eq!((off.hits(), off.misses()), (0, 0));
        let mut on = RecipeMemo::new();
        assert_eq!(on.apply(&g, &Recipe(Vec::new()), &cache), g);
        assert_eq!((on.hits(), on.misses()), (0, 0));
    }
}
