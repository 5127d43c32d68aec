//! Determinism guarantees of the shared NPN resynthesis cache, the
//! recipe memo and the SA evaluation context: optimization outputs
//! must be byte-identical whether the caches are cold, warm, shared,
//! or disabled. (The `AIG_THREADS` 1-vs-many half of the guarantee
//! lives in its own test binary, `npn_thread_determinism`, because
//! the env var is process-global.)

use aig::aiger::{to_ascii, to_binary};
use saopt::{optimize, optimize_with, EvalContext, ProxyCost, SaOptions};
use std::sync::Arc;
use transform::{recipes, Recipe, ResynthCache, Transform};

mod common;
use common::random_aig_with;

/// `optimize` with the default (enabled) cache vs a disabled cache:
/// best AIG, cost history, and per-candidate metrics all identical.
#[test]
fn optimize_cache_on_vs_off_is_byte_identical() {
    let g = random_aig_with(42, 9, 140, 4);
    let actions = recipes();
    let opts = SaOptions {
        iterations: 12,
        seed: 5,
        ..SaOptions::default()
    };
    let on = optimize_with(&g, &mut ProxyCost, &actions, &opts, &mut EvalContext::new());
    let off = optimize_with(
        &g,
        &mut ProxyCost,
        &actions,
        &opts,
        &mut EvalContext::without_cache(),
    );
    assert_eq!(
        to_ascii(&on.best),
        to_ascii(&off.best),
        "best AIG must not depend on the cache"
    );
    assert_eq!(on.history, off.history);
    assert_eq!(on.evaluated, off.evaluated);
    assert_eq!(on.best_cost, off.best_cost);
    assert_eq!(on.accepted, off.accepted);

    // And the plain entry point (transient cache) agrees too.
    let plain = optimize(&g, &mut ProxyCost, &actions, &opts);
    assert_eq!(to_ascii(&on.best), to_ascii(&plain.best));
    assert_eq!(on.history, plain.history);
}

/// The SA transaction engine on vs off: same seeds, same action
/// space (including the in-place-planned `rw`/`rwz` moves), the full
/// `SaResult` must be byte-identical — under the proxy evaluator
/// across several seeds, and under the ground-truth evaluator (whose
/// engine-on path maps incrementally through the cut database).
#[test]
fn optimize_transaction_engine_on_vs_off_is_byte_identical() {
    let g = random_aig_with(43, 9, 140, 4);
    // In-place-heavy action mix over the full widened vocabulary
    // (`rw`/`rwz`/`rf`/`rfz`/`b`/`rsb` all plan in place; refactor
    // and balance append fresh replacement cones), with whole-graph
    // moves interleaved to force engine rebuilds.
    let actions = vec![
        Recipe(vec![Transform::Rewrite]),
        Recipe(vec![Transform::RewriteZero]),
        Recipe(vec![Transform::Refactor]),
        Recipe(vec![Transform::RefactorZero]),
        Recipe(vec![Transform::Balance]),
        Recipe(vec![Transform::Resub]),
        Recipe(vec![Transform::Sweep]),
        Recipe(vec![Transform::Resub, Transform::Rewrite]),
    ];
    for seed in [5u64, 29, 71] {
        let opts = SaOptions {
            iterations: 30,
            seed,
            ..SaOptions::default()
        };
        let mut on_ctx = EvalContext::new();
        let mut off_ctx = EvalContext::new();
        off_ctx.set_inplace_transactions(false);
        let on = optimize_with(&g, &mut ProxyCost, &actions, &opts, &mut on_ctx);
        let off = optimize_with(&g, &mut ProxyCost, &actions, &opts, &mut off_ctx);
        assert_eq!(
            to_ascii(&on.best),
            to_ascii(&off.best),
            "seed {seed}: best AIG must not depend on the engine"
        );
        assert_eq!(on.history, off.history, "seed {seed}");
        assert_eq!(on.evaluated, off.evaluated, "seed {seed}");
        assert_eq!(on.accepted, off.accepted, "seed {seed}");
    }

    // Ground truth: the engine path exercises incremental mapping
    // (cut-database cuts + DP-row reuse) against full remapping.
    let lib = cells::sky130ish();
    let opts = SaOptions {
        iterations: 12,
        seed: 9,
        ..SaOptions::default()
    };
    let mut on_ctx = EvalContext::new();
    let mut off_ctx = EvalContext::new();
    off_ctx.set_inplace_transactions(false);
    let on = optimize_with(
        &g,
        &mut saopt::GroundTruthCost::new(&lib),
        &actions,
        &opts,
        &mut on_ctx,
    );
    let off = optimize_with(
        &g,
        &mut saopt::GroundTruthCost::new(&lib),
        &actions,
        &opts,
        &mut off_ctx,
    );
    assert_eq!(to_ascii(&on.best), to_ascii(&off.best), "ground truth");
    assert_eq!(on.history, off.history);
    assert_eq!(on.evaluated, off.evaluated);
}

/// Both memo layers on (`EvalContext::new`) vs off
/// (`EvalContext::without_cache`) on the paper's ground-truth flow: a
/// chain over the 103 recipes, most of whose moves take the memoized
/// whole-graph path, must be byte-identical, with the recipe memo
/// serving primitive applications. A context reused for a second run
/// on the same input (its memo warm from the first) matches too.
#[test]
fn recipe_memo_on_vs_off_is_byte_identical() {
    let g = random_aig_with(47, 10, 300, 12);
    let lib = cells::sky130ish();
    let actions = recipes();
    let opts = SaOptions {
        iterations: 120,
        seed: 13,
        ..SaOptions::default()
    };
    let run = |ctx: &mut EvalContext| {
        optimize_with(
            &g,
            &mut saopt::GroundTruthCost::new(&lib),
            &actions,
            &opts,
            ctx,
        )
    };
    let assert_same = |a: &saopt::SaResult, b: &saopt::SaResult, what: &str| {
        assert_eq!(a.history, b.history, "{what}: history");
        assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
        assert_eq!(a.accepted, b.accepted, "{what}: accepted");
        assert_eq!(to_binary(&a.best), to_binary(&b.best), "{what}: best AIG");
    };
    let mut ctx = EvalContext::new();
    let on = run(&mut ctx);
    let off = run(&mut EvalContext::without_cache());
    assert_same(&on, &off, "memo on vs off");
    let first_hits = ctx.recipe_memo().hits();
    assert!(first_hits > 0, "the recipe memo never hit");
    let again = run(&mut ctx);
    assert_same(&on, &again, "reused context");
    assert!(ctx.recipe_memo().hits() > first_hits);
}

/// A cache pre-warmed by *other* graphs must not perturb results:
/// recipes applied through a dirty shared cache equal the uncached
/// application, byte for byte.
#[test]
fn warm_shared_cache_does_not_change_transform_outputs() {
    let cache = Arc::new(ResynthCache::new());
    // Pollute the cache with structures from unrelated graphs.
    for seed in 200..204u64 {
        let other = random_aig_with(seed, 7, 90, 3);
        let _ = transform::rewrite_with(&other, &cache);
        let _ = transform::refactor_with(&other, &cache);
    }
    assert!(cache.hits() + cache.misses() > 0);

    let g = random_aig_with(77, 8, 110, 4);
    for recipe in [
        Recipe(vec![Transform::Rewrite]),
        Recipe(vec![Transform::RefactorZero, Transform::Balance]),
        Recipe(vec![Transform::Perturb, Transform::RewriteZero]),
    ] {
        let via_cache = recipe.apply_with(&g, &cache);
        let plain = recipe.apply(&g);
        assert_eq!(
            to_ascii(&via_cache),
            to_ascii(&plain),
            "recipe `{recipe}` output depends on cache state"
        );
    }
}

/// `optimize_seeds` (all chains share one cache) must reproduce
/// serial per-seed runs exactly — the cache-sharing analog of the
/// existing multi-seed determinism test.
#[test]
fn shared_cache_chains_match_serial_runs() {
    let g = random_aig_with(55, 8, 100, 3);
    let actions = recipes();
    let opts = SaOptions {
        iterations: 6,
        ..SaOptions::default()
    };
    let seeds = [2u64, 71, 828];
    let chains = saopt::optimize_seeds(&g, || ProxyCost, &actions, &opts, &seeds);
    for (&seed, res) in seeds.iter().zip(&chains) {
        let serial = optimize(&g, &mut ProxyCost, &actions, &SaOptions { seed, ..opts });
        assert_eq!(to_ascii(&res.best), to_ascii(&serial.best), "seed {seed}");
        assert_eq!(res.history, serial.history, "seed {seed}");
    }
}

/// The cache actually caches: a second identical run over a warm
/// shared cache performs no new synthesis (misses stay flat) and
/// still produces identical output.
#[test]
fn second_run_is_all_hits() {
    let g = random_aig_with(99, 8, 120, 3);
    let cache = Arc::new(ResynthCache::new());
    let first = transform::rewrite_with(&g, &cache);
    let misses_after_first = cache.misses();
    assert!(misses_after_first > 0, "first run must synthesize");
    let second = transform::rewrite_with(&g, &cache);
    assert_eq!(
        cache.misses(),
        misses_after_first,
        "second identical run must be served entirely from the cache"
    );
    assert!(cache.hits() >= misses_after_first);
    assert_eq!(to_ascii(&first), to_ascii(&second));
}
