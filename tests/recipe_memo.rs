//! Differential coverage of `transform::RecipeMemo`: along random
//! walks that move their current graph the way an SA chain does, every
//! memoized recipe application must equal `Recipe::apply_with` in exact
//! content (node ids, fanins, inputs, outputs and every name).

use aig::cut::CutDb;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::Aig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transform::{recipes, InplaceMode, Recipe, RecipeMemo, ResynthCache};

mod common;
use common::random_aig_with;

/// Commits one append-capable in-place refactor pass over the whole
/// graph, as the SA loop's `rfz` move does; fresh cones spliced into
/// earlier nodes leave forward references behind.
fn commit_append_move(g: &mut Aig, cache: &ResynthCache, start: u32) {
    let mut inc = IncrementalAnalysis::new(g);
    let mut db = CutDb::new(4, 8);
    db.build(g);
    let window = g.num_nodes();
    let mut txn = Transaction::begin(g, &mut inc);
    transform::resynth_inplace_window(
        &mut txn,
        &mut db,
        cache,
        InplaceMode::ZeroCost,
        true,
        start,
        window,
    );
    txn.commit();
}

/// What a walk exercised.
#[derive(Default)]
struct Coverage {
    hits: u64,
    forward_rebases: usize,
}

/// Walks `steps` memoized applications of recipes drawn from
/// `recipes()` plus the empty recipe, checking each against the
/// reference. Between calls the current graph is kept (a rejected
/// move) or replaced by an accepted candidate, an equal-content copy,
/// an in-place append result, or a compaction sweep.
fn walk(start: &Aig, seed: u64, steps: usize) -> Coverage {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut actions = recipes();
    actions.push("".parse::<Recipe>().expect("the empty recipe parses"));
    let cache = ResynthCache::new();
    let mut memo = RecipeMemo::new();
    let mut current = start.clone();
    let mut coverage = Coverage::default();
    for step in 0..steps {
        let recipe = &actions[rng.gen_range(0..actions.len())];
        let got = memo.apply(&current, recipe, &cache);
        assert_eq!(
            got,
            recipe.apply_with(&current, &cache),
            "seed {seed}, step {step}: `{recipe}` differs from the reference"
        );
        match rng.gen_range(0..8) {
            0 => current = got,
            // An accepted candidate with the current graph's content
            // (the empty recipe, or `sw` of a swept graph).
            1 => current = current.clone(),
            2 => {
                let at = rng.gen_range(0..current.num_nodes() as u32);
                commit_append_move(&mut current, &cache, at);
                coverage.forward_rebases += usize::from(!current.is_topological());
            }
            3 => current = current.sweep(),
            _ => {}
        }
    }
    coverage.hits = memo.hits();
    coverage
}

#[test]
fn random_graph_walks_match_the_reference() {
    let mut forward = 0;
    for seed in 0..4u64 {
        let g = random_aig_with(0x3E30 ^ seed, 8, 140, 4);
        let coverage = walk(&g, 0x3E31 ^ seed, 48);
        assert!(coverage.hits > 0, "seed {seed}: the memo never hit");
        forward += coverage.forward_rebases;
    }
    assert!(
        forward > 0,
        "no walk rebased on a graph with forward references"
    );
}

#[test]
fn benchgen_walks_match_the_reference() {
    let mut forward = 0;
    for (k, design) in benchgen::iwls_like_suite().into_iter().take(3).enumerate() {
        let coverage = walk(&design.aig, 0x3E32 + k as u64, 24);
        assert!(coverage.hits > 0, "{}: the memo never hit", design.name);
        forward += coverage.forward_rebases;
    }
    assert!(
        forward > 0,
        "no walk rebased on a graph with forward references"
    );
}
