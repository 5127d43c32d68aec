//! Determinism guarantees of the NPN resynthesis cache, the recipe
//! memo and the SA evaluation context: optimization outputs must be
//! byte-identical whether the caches are cold, warm from other runs
//! or graphs, or disabled. (The `AIG_THREADS` 1-vs-many half of the
//! guarantee lives in its own test binary, `npn_thread_determinism`,
//! because the env var is process-global.)

use aig::aiger::{to_ascii, to_binary};
use aig::{Aig, Lit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use saopt::{
    optimize, optimize_with, CostEvaluator, CostMetrics, EditScope, EvalContext, GroundTruthCost,
    MlCost, ProxyCost, SaOptions, SaResult,
};
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

/// Forwards every call to the wrapped evaluator, counting `evaluate`
/// calls and the compaction sweeps the in-place calls reveal.
struct Counted<'a> {
    inner: Box<dyn CostEvaluator + 'a>,
    evaluates: u64,
    sweeps: u64,
    /// Node count of the chain's current graph, as the in-place calls
    /// since the last `evaluate` reveal it. In-place moves only append
    /// and rollbacks restore, so the count falls only when the chain
    /// moves to a whole-graph candidate (which `evaluate` prices) or
    /// sweeps.
    current_nodes: Option<usize>,
    /// Node count of the last in-place candidate, until the next call
    /// shows whether it was accepted.
    candidate_nodes: Option<usize>,
}

impl<'a> Counted<'a> {
    fn new(inner: Box<dyn CostEvaluator + 'a>) -> Self {
        Counted {
            inner,
            evaluates: 0,
            sweeps: 0,
            current_nodes: None,
            candidate_nodes: None,
        }
    }
}

impl CostEvaluator for Counted<'_> {
    fn evaluate(&mut self, aig: &Aig) -> CostMetrics {
        self.evaluates += 1;
        self.current_nodes = None;
        self.candidate_nodes = None;
        self.inner.evaluate(aig)
    }

    fn evaluate_edit(
        &mut self,
        aig: &Aig,
        scope: &EditScope<'_>,
        ctx: &mut EvalContext,
    ) -> CostMetrics {
        // No rollback followed the previous candidate: it was accepted.
        if let Some(n) = self.candidate_nodes.take() {
            self.current_nodes = Some(n);
        }
        if self.current_nodes.is_some_and(|n| aig.num_nodes() < n) {
            self.sweeps += 1;
        }
        self.candidate_nodes = Some(aig.num_nodes());
        self.inner.evaluate_edit(aig, scope, ctx)
    }

    fn resync_edit(&mut self, aig: &Aig, scope: &EditScope<'_>, ctx: &mut EvalContext) {
        self.candidate_nodes = None;
        self.current_nodes = Some(aig.num_nodes());
        self.inner.resync_edit(aig, scope, ctx);
    }

    fn wants_rollback_resync(&self) -> bool {
        self.inner.wants_rollback_resync()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A constant-zero cone of five inputs, built first, gating a large
/// random cone. Once an in-place move finds the constant (balancing
/// collects `x0` and `!x0` into one supergate), the large cone is dead
/// logic, and the chain compacts at its next checkpoint unless a
/// whole-graph move is accepted first.
fn gated_graph() -> Aig {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut g = Aig::new();
    let x: Vec<Lit> = (0..9).map(|_| g.add_input()).collect();
    let a = g.and(x[0], x[1]);
    let a = g.and(a, x[2]);
    let b = g.and(!x[0], x[3]);
    let b = g.and(b, x[4]);
    let zero = g.and(a, b);
    let mut lits = x.clone();
    for _ in 0..250 {
        // One fanin from the last few nodes keeps most of the cone live.
        let p = lits[rng.gen_range(lits.len() - 4..lits.len())].complement_if(rng.gen());
        let q = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
        lits.push(g.and(p, q));
    }
    let gated = g.and(zero, lits[lits.len() - 1]);
    let small = g.and(x[5], x[6]);
    let out = g.or(gated, small);
    g.add_output(out, None::<&str>);
    let parity = g.xor(x[7], x[8]);
    g.add_output(parity, None::<&str>);
    g
}

/// Delay/area models trained on a few recipe variants of `g`, labeled
/// by ground truth.
fn ml_models(g: &Aig, lib: &cells::Library) -> (gbt::GbtModel, gbt::GbtModel) {
    let mut gt = GroundTruthCost::new(lib);
    let mut delay = gbt::Dataset::new(features::NUM_FEATURES);
    let mut area = gbt::Dataset::new(features::NUM_FEATURES);
    let mut variant = g.clone();
    for recipe in recipes().iter().step_by(9).take(10) {
        let f = features::extract(&variant);
        let m = gt.evaluate(&variant);
        delay.push_row_f64(f.as_slice(), m.delay);
        area.push_row_f64(f.as_slice(), m.area);
        variant = recipe.apply(&variant);
    }
    let params = gbt::GbtParams {
        num_rounds: 20,
        seed: 5,
        ..gbt::GbtParams::default()
    };
    (gbt::train(&delay, &params), gbt::train(&area, &params))
}

/// Both memo layers on (`EvalContext::new`) vs off
/// (`EvalContext::without_cache`), on the ground-truth and ML flows,
/// must give byte-identical chains while the memo serves both
/// primitive applications and prices. Five chains per flow:
///
/// * the default chain over the 103 recipes, most of whose moves take
///   the whole-graph path;
/// * a hot chain (temperature 1, no decay) and a warm one (temperature
///   0.02, no decay) that also accept served candidates other than the
///   current graph, so the loop re-prices them to leave the evaluator
///   as pricing leaves it (ground truth does so in both chains, ML in
///   the warm one);
/// * an in-place-heavy mix at two seeds, so in-place steps follow
///   served candidates (the evaluator's per-node state must still
///   mirror the current graph) and chains compact (a swept current
///   graph has no known price, and a walk back to it must not reuse a
///   stale one).
///
/// A context reused for a second run on the same input (its memo warm
/// from the first) matches too.
#[test]
fn recipe_memo_on_vs_off_is_byte_identical() {
    let g = random_aig_with(47, 10, 300, 12);
    let gated = gated_graph();
    let lib = cells::sky130ish();
    let (delay_model, area_model) = ml_models(&g, &lib);
    let paper = recipes();
    let mixed = vec![
        Recipe(vec![Transform::Rewrite]),
        Recipe(vec![Transform::RewriteZero]),
        Recipe(vec![Transform::Refactor]),
        Recipe(vec![Transform::RefactorZero]),
        Recipe(vec![Transform::Balance]),
        Recipe(vec![Transform::Resub]),
        Recipe(vec![Transform::Sweep]),
        Recipe(vec![Transform::Resub, Transform::Rewrite]),
    ];
    let default = SaOptions {
        iterations: 120,
        seed: 13,
        ..SaOptions::default()
    };
    let hot = SaOptions {
        initial_temp: 1.0,
        decay: 1.0,
        ..default
    };
    let chains = [
        ("default", &g, &paper, default),
        ("hot", &g, &paper, hot),
        (
            "warm",
            &g,
            &paper,
            SaOptions {
                initial_temp: 0.02,
                seed: 15,
                ..hot
            },
        ),
        // Seed 15 compacts; seed 61 compacts and then walks back to the
        // swept graph before any accept, pricing it afresh.
        (
            "mixed",
            &gated,
            &mixed,
            SaOptions {
                iterations: 200,
                seed: 15,
                ..default
            },
        ),
        (
            "mixed",
            &gated,
            &mixed,
            SaOptions {
                iterations: 200,
                seed: 61,
                ..default
            },
        ),
    ];
    let assert_same = |a: &SaResult, b: &SaResult, what: &str| {
        assert_eq!(a.history, b.history, "{what}: history");
        assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
        assert_eq!(a.accepted, b.accepted, "{what}: accepted");
        assert_eq!(to_binary(&a.best), to_binary(&b.best), "{what}: best AIG");
    };
    for flow in ["ground-truth", "ml"] {
        let make = || -> Box<dyn CostEvaluator + '_> {
            match flow {
                "ml" => Box::new(MlCost::new(&delay_model, &area_model)),
                _ => Box::new(GroundTruthCost::new(&lib)),
            }
        };
        let (mut served, mut identity, mut sweeps) = (0, 0, 0);
        for (name, input, actions, opts) in &chains {
            let what = format!("{flow}, {name} chain");
            let mut ctx = EvalContext::new();
            let mut counted = Counted::new(make());
            let on = optimize_with(input, &mut counted, actions, opts, &mut ctx);
            let off = optimize_with(
                input,
                &mut *make(),
                actions,
                opts,
                &mut EvalContext::without_cache(),
            );
            assert_same(&on, &off, &what);
            assert_eq!(
                (off.prices_requested, off.prices_computed),
                (0, 0),
                "{what}: a disabled memo serves no price"
            );
            let memo = ctx.recipe_memo();
            assert!(memo.hits() > 0, "{what}: no primitive application served");
            served += on.prices_requested - on.prices_computed;
            identity += memo.identity_walks();
            sweeps += counted.sweeps;
            // One `evaluate` prices the input; the others price a
            // candidate without a known price or re-price an accepted
            // served one.
            let repriced = counted.evaluates - 1 - on.prices_computed as u64;
            if *name == "warm" || (*name == "hot" && flow == "ground-truth") {
                assert!(repriced > 0, "{what}: no served candidate was accepted");
            }
            if *name == "default" && flow == "ground-truth" {
                let hits = ctx.recipe_memo().hits();
                let again = optimize_with(input, &mut *make(), actions, opts, &mut ctx);
                assert_same(&on, &again, "reused context");
                assert!(ctx.recipe_memo().hits() > hits);
            }
        }
        assert!(served > 0, "{flow}: no price was served");
        assert!(
            identity > 0,
            "{flow}: no candidate equalled its current graph"
        );
        assert!(sweeps > 0, "{flow}: no chain compacted");
    }
}

/// A cache pre-warmed by *other* graphs must not perturb results:
/// recipes applied through a dirty cache equal the uncached
/// application, byte for byte.
#[test]
fn warm_shared_cache_does_not_change_transform_outputs() {
    let cache = ResynthCache::new();
    // Pollute the cache with structures from unrelated graphs.
    for seed in 200..204u64 {
        let other = random_aig_with(seed, 7, 90, 3);
        let _ = transform::apply_with(&other, Transform::Rewrite, &cache);
        let _ = transform::apply_with(&other, Transform::Refactor, &cache);
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

/// `optimize_seeds` (a worker's chains reuse its context and warm
/// cache) must reproduce fresh per-seed runs exactly — the cache-reuse
/// analog of the existing multi-seed determinism test.
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
/// cache performs no new synthesis (misses stay flat) and still
/// produces identical output.
#[test]
fn second_run_is_all_hits() {
    let g = random_aig_with(99, 8, 120, 3);
    let cache = ResynthCache::new();
    let first = transform::apply_with(&g, Transform::Rewrite, &cache);
    let misses_after_first = cache.misses();
    assert!(misses_after_first > 0, "first run must synthesize");
    let second = transform::apply_with(&g, Transform::Rewrite, &cache);
    assert_eq!(
        cache.misses(),
        misses_after_first,
        "second identical run must be served entirely from the cache"
    );
    assert!(cache.hits() >= misses_after_first);
    assert_eq!(to_ascii(&first), to_ascii(&second));
}
