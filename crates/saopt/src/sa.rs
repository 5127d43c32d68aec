//! The simulated-annealing optimization loop (paper §IV, following
//! the SA paradigm of Hillier et al. [5]).
//!
//! # Determinism
//!
//! [`optimize_with`] runs one serial chain. Each iteration draws its
//! recipe (and, for an in-place move, its window start) from the
//! chain's RNG, prices the candidate, and draws exactly one
//! acceptance sample ([`metropolis`]), so RNG consumption per move is
//! a pure function of the recipe draw, never of the move's metrics.
//! In-place moves run through the edit transaction engine or, with
//! the engine off, through a clone of the current graph; both paths
//! execute the same [`transform::InplacePlan::run`], so results are
//! byte-identical either way, for any context state and any
//! `AIG_THREADS` (the determinism suites assert this). Parallelism
//! lives across chains ([`optimize_seeds`], [`crate::sweep`]), never
//! within one.
//!
//! # The whole-graph path
//!
//! Recipes without an in-place plan (every multi-step recipe, `sw`,
//! `bd`, `rs`, `pt`) rebuild the graph. On the paper's flows this is
//! where a step's time goes, and much of it repeats: the chain rejects
//! most moves, so it keeps reaching the same few graphs from the same
//! current graph. These moves walk the context's recipe memo
//! ([`transform::RecipeMemo`]), which holds each distinct graph
//! reached from the current graph once, runs each primitive at most
//! once per distinct input graph, and reaches exactly what
//! [`Recipe::apply_with`] returns. The run keeps its evaluator's
//! metrics of each memo node it priced, so a candidate is priced
//! ([`CostEvaluator::evaluate`]) only if no equal graph was priced on
//! the same current graph. These prices are a local of the run,
//! indexed by memo node and dropped whenever a walk reports that the
//! memo started over ([`transform::Walk::rebased`]), so a price never
//! outlives its run or its base. A candidate equal to the current
//! graph reuses the chain's metrics of it, which are known after the
//! initial evaluation and after every accept, but not after a
//! compaction sweep.
//!
//! Skipping a price must not change what the evaluator's per-node
//! state mirrors, so the loop keeps three rules:
//!
//! * a served candidate that is rejected, or that equals the current
//!   graph, changes neither the graph nor the evaluator, so the engine
//!   buffers and the evaluator state stay synced (an identity accept
//!   keeps the warm engine);
//! * an accepted served candidate that differs from the current graph
//!   is priced once more, which leaves the evaluator exactly as pricing
//!   it always did (a debug assertion checks the metrics against the
//!   stored ones);
//! * every evaluation of another graph marks the evaluator state as
//!   not mirroring the current graph.
//!
//! All of this rests on the contract stated on
//! [`CostEvaluator::evaluate`]: metrics are a pure function of graph
//! content. Results are byte-identical with the memo on or off
//! ([`EvalContext::without_cache`]).

use crate::context::EvalContext;
use crate::cost::{CostEvaluator, CostMetrics, EditScope};
use aig::cut::CutDb;
use aig::incremental::{DirtyRegion, IncrementalAnalysis, Transaction};
use aig::{Aig, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transform::{Recipe, MEMO_BASE};

/// Cut parameters of the in-place engine: identical to `rewrite`'s
/// 4-input cuts *and* to the default `techmap::MapOptions`, so one
/// database serves both the local rewriter and the incremental
/// ground-truth evaluator.
const INPLACE_CUT_SIZE: usize = 4;
const INPLACE_MAX_CUTS: usize = 8;

/// Deterministic dead-logic compaction checkpoint (both paths apply
/// it identically, so it is part of the byte-identity contract):
/// after the `it`-th iteration's *accepted* move, the graph is swept
/// when less than a quarter of its nodes are live. Append-capable moves strand their replaced
/// cones as dead nodes; without a liveness-aware bound the arena (and
/// every analysis over it) would grow without limit over a long
/// chain. This is purely a garbage-ratio policy: the mapper's per-row
/// cutoff and the design's in-place grow path stay active on
/// uncompacted (non-topological) graphs, so sweeping is never needed
/// to restore per-step speed.
fn should_compact(it: usize, aig: &Aig) -> bool {
    (it & 15) == 15 && aig.num_live_ands() * 4 < aig.num_ands()
}

/// The Metropolis acceptance rule. One definition on purpose: the
/// engine-on and whole-graph paths must draw from the RNG identically
/// for the byte-identity contracts to hold.
///
/// The sample is drawn **unconditionally** — even though a downhill
/// move accepts regardless of it — so the stream advances by exactly
/// one `f64` per evaluated move: RNG consumption is a pure function
/// of the recipe draw, never of the move's metrics.
fn metropolis(delta: f64, temp: f64, rng: &mut SmallRng) -> bool {
    let sample: f64 = rng.gen();
    delta <= 0.0 || sample < (-delta / temp.max(1e-12)).exp()
}

/// SA hyperparameters.
///
/// `weight_delay`/`weight_area` are the cost-blend weights the
/// paper's hyperparameter sweep varies, and `decay` is the annealing
/// temperature decay rate it sweeps alongside.
#[derive(Clone, Copy, Debug)]
pub struct SaOptions {
    /// Number of SA iterations (moves attempted).
    pub iterations: usize,
    /// Initial temperature (in normalized-cost units).
    pub initial_temp: f64,
    /// Multiplicative temperature decay per iteration.
    pub decay: f64,
    /// Weight of normalized delay in the scalar cost.
    pub weight_delay: f64,
    /// Weight of normalized area in the scalar cost.
    pub weight_area: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaOptions {
    fn default() -> Self {
        SaOptions {
            iterations: 60,
            initial_temp: 0.05,
            decay: 0.95,
            weight_delay: 0.7,
            weight_area: 0.3,
            seed: 1,
        }
    }
}

/// Outcome of one SA run.
#[derive(Clone, Debug)]
pub struct SaResult {
    /// The best AIG seen (by scalar cost).
    pub best: Aig,
    /// Evaluator metrics of `best`.
    pub best_metrics: CostMetrics,
    /// Scalar cost of `best` (normalized units).
    pub best_cost: f64,
    /// Metrics of every evaluated candidate, in order (the point
    /// cloud behind the paper's Fig. 5 Pareto fronts).
    pub evaluated: Vec<CostMetrics>,
    /// Number of accepted moves.
    pub accepted: usize,
    /// Scalar cost after each iteration (current state).
    pub history: Vec<f64>,
    /// Whole-graph candidates that ended at a node of the recipe memo,
    /// so that a price of an equal graph could be reused.
    pub prices_requested: usize,
    /// Of those, the candidates the evaluator priced; the others were
    /// served a price the run already had.
    pub prices_computed: usize,
}

/// Runs simulated annealing from `aig` under the given evaluator.
///
/// Each iteration draws a random [`Recipe`] from `actions`, applies
/// it, prices the candidate, and accepts with the Metropolis rule
/// (hill-climbing allowed while the temperature is high). Cost is
/// `weight_delay * delay / delay0 + weight_area * area / area0`,
/// normalized by the initial metrics so different evaluators'
/// units are comparable.
///
/// # Panics
///
/// Panics if `actions` is empty, `iterations` is 0, or the initial
/// evaluation returns non-positive metrics.
///
/// # Examples
///
/// ```
/// use saopt::{optimize, ProxyCost, SaOptions};
/// use transform::recipes;
///
/// let mut g = aig::Aig::new();
/// let mut acc = g.add_input();
/// for _ in 0..15 {
///     let x = g.add_input();
///     acc = g.and(acc, x);
/// }
/// g.add_output(acc, None::<&str>);
///
/// let actions = recipes();
/// let opts = SaOptions { iterations: 10, ..SaOptions::default() };
/// let result = optimize(&g, &mut ProxyCost, &actions, &opts);
/// // The chain balances to logarithmic depth.
/// assert!(result.best_metrics.delay <= 5.0);
/// ```
pub fn optimize(
    aig: &Aig,
    evaluator: &mut dyn CostEvaluator,
    actions: &[Recipe],
    opts: &SaOptions,
) -> SaResult {
    optimize_with(aig, evaluator, actions, opts, &mut EvalContext::new())
}

/// [`optimize`] carrying an explicit [`EvalContext`] across
/// iterations.
///
/// The context's resynthesis cache is threaded into every recipe
/// application, so iteration cost no longer includes rebuilding it
/// from scratch. Whole-graph moves walk the context's
/// recipe memo ([`EvalContext::recipe_memo`]): a move computes only the
/// primitives the memo has not run on their input graph, and prices
/// its candidate only if no equal graph was priced on the current
/// graph (see the module docs, "The whole-graph path";
/// [`SaResult::prices_requested`] / [`SaResult::prices_computed`]
/// count those candidates and prices). Results are
/// byte-identical to [`optimize`] for any context state — warm from
/// earlier runs, cold, or with both memo layers disabled
/// ([`EvalContext::without_cache`]; the determinism tests assert
/// this).
///
/// # The in-place transaction engine
///
/// Moves whose recipe has an in-place plan
/// ([`Recipe::as_inplace`]: single-step `rw`/`rwz`/`rf`/`rfz`/`b`/
/// `rsb`) do **not** rebuild the graph. The loop keeps an
/// [`IncrementalAnalysis`] and a [`CutDb`] live for the current graph
/// and executes the move ([`transform::InplacePlan::run`], a windowed
/// in-place pass) inside an edit [`Transaction`]: accept
/// commits the edits (ids stable, analyses and cut lists already
/// updated), reject rolls graph, analysis and cut database back
/// exactly — including any fresh replacement cones the refactor- and
/// balance-flavor moves appended above the high-water mark.
/// Evaluation goes through [`CostEvaluator::evaluate_edit`] with the
/// edit's dirty watermark, so the ground-truth evaluator reuses its
/// clean-prefix DP rows and never re-enumerates cuts. Per-iteration
/// cost of these moves is therefore governed by the edit footprint,
/// not the graph size. Once dead cones stranded by append-capable
/// moves outnumber the live logic, a deterministic checkpoint
/// (`should_compact`) sweeps the graph.
///
/// [`EvalContext::set_inplace_transactions`]`(false)` reroutes the
/// same moves through a clone of the current graph (the whole-graph
/// path, which also backs every recipe without an in-place plan) —
/// results are byte-identical with the engine on or off, for any
/// `AIG_THREADS` and any context state, as the determinism suite
/// asserts.
///
/// The chain itself is serial; to spend more cores, run independent
/// restarts with [`optimize_seeds`] / [`optimize_best_of`].
///
/// # Panics
///
/// Exactly [`optimize`]'s panics.
pub fn optimize_with(
    aig: &Aig,
    evaluator: &mut dyn CostEvaluator,
    actions: &[Recipe],
    opts: &SaOptions,
    ctx: &mut EvalContext,
) -> SaResult {
    assert!(!actions.is_empty(), "need at least one action");
    assert!(opts.iterations > 0, "iterations must be positive");
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let initial = evaluator.evaluate(aig);
    assert!(
        initial.delay > 0.0 && initial.area > 0.0,
        "initial metrics must be positive for normalization, got {initial:?}"
    );
    let scalar = |m: &CostMetrics| {
        opts.weight_delay * m.delay / initial.delay + opts.weight_area * m.area / initial.area
    };
    let mut current = aig.clone();
    let mut current_cost = scalar(&initial);
    // The evaluator's metrics of `current`, when known: after the
    // initial evaluation and every accept, not after a compaction
    // sweep. A whole-graph candidate equal to `current` reuses them.
    let mut current_metrics = Some(initial);
    // The evaluator's metrics of the memo's graphs, indexed by memo
    // node and valid for the memo's current base; node `MEMO_BASE`
    // reads `current_metrics` instead.
    let mut prices: Vec<Option<CostMetrics>> = Vec::new();
    let (mut prices_requested, mut prices_computed) = (0, 0);
    // `best` is tracked lazily: `None` means the input itself is
    // still the best seen, so runs that never improve clone nothing.
    let mut best: Option<Aig> = None;
    let mut best_metrics = initial;
    let mut best_cost = current_cost;
    let mut temp = opts.initial_temp;
    let mut evaluated = Vec::with_capacity(opts.iterations + 1);
    evaluated.push(initial);
    let mut accepted = 0usize;
    let mut history = Vec::with_capacity(opts.iterations + 1);
    // In-place engine state for `current`: built on first in-place
    // use and re-synced after whole-graph accepts.
    let mut engine: Option<(IncrementalAnalysis, CutDb)> = None;
    let mut engine_synced = false;
    // Whether the evaluator's per-node state (mapper DP rows, the
    // persistent mapped design) mirrors `current`. In-place moves
    // leave it synced: accepts keep the priced graph, and rejects
    // re-sync the evaluator at once (`CostEvaluator::resync_edit`).
    // Whole-graph evaluations and compaction leave state of a
    // different graph, so the next in-place move's watermark is 0.
    let mut rows_synced = false;
    // A rejected move's footprint, captured before the rollback so
    // delta-based evaluators can re-sync over exactly the nodes the
    // rollback restored (the buffer is reused across iterations).
    let mut move_region = DirtyRegion::default();

    for it in 0..opts.iterations {
        let recipe = &actions[rng.gen_range(0..actions.len())];
        let metrics;
        let cost;
        let accept;
        let inplace_move = recipe.as_inplace().map(|plan| {
            // The window start is part of the move: drawn before the
            // engine split so both paths see the same draw.
            (plan, rng.gen_range(0..current.num_nodes() as NodeId))
        });
        match inplace_move {
            Some((plan, start)) if ctx.inplace_transactions() => {
                let (inc, db) = engine.get_or_insert_with(|| {
                    (
                        IncrementalAnalysis::default(),
                        CutDb::new(INPLACE_CUT_SIZE, INPLACE_MAX_CUTS),
                    )
                });
                if !engine_synced {
                    inc.rebuild(&current);
                    db.build(&current);
                    engine_synced = true;
                }
                db.begin_edit();
                let mut txn = Transaction::begin(&mut current, inc);
                plan.run(&mut txn, db, ctx.resynth(), start);
                let dirty_since = if rows_synced { txn.min_touched() } else { 0 };
                let scope = EditScope::new(db, dirty_since)
                    .with_delta(txn.touched_region(), txn.analysis());
                metrics = evaluator.evaluate_edit(txn.aig(), &scope, ctx);
                cost = scalar(&metrics);
                accept = metropolis(cost - current_cost, temp, &mut rng);
                if accept {
                    txn.commit();
                    db.commit_edit();
                } else {
                    // Capture the move's footprint: the rollback
                    // restores exactly these nodes, so they are also
                    // the delta a feature-maintaining evaluator must
                    // re-sync over.
                    move_region.clear();
                    move_region.merge(txn.touched_region());
                    txn.rollback();
                    db.rollback_edit();
                    // Bring stateful evaluators back to `current` now
                    // (cost bounded by the rejected edit), instead of
                    // letting watermarks accumulate toward a
                    // whole-graph DP recompute.
                    let scope = EditScope::new(db, dirty_since).with_delta(&move_region, inc);
                    evaluator.resync_edit(&current, &scope, ctx);
                }
                rows_synced = true;
            }
            _ => {
                // The whole-graph path: recipes without an in-place
                // plan, and (engine off) the same in-place move
                // through a clone — the byte-identity oracle.
                let (node, mut graph) = match inplace_move {
                    Some((plan, start)) => {
                        let mut cand = current.clone();
                        let mut inc = IncrementalAnalysis::new(&cand);
                        let mut db = CutDb::new(INPLACE_CUT_SIZE, INPLACE_MAX_CUTS);
                        db.build(&cand);
                        let mut txn = Transaction::begin(&mut cand, &mut inc);
                        plan.run(&mut txn, &mut db, ctx.resynth(), start);
                        txn.commit();
                        (None, Some(cand))
                    }
                    None => {
                        let walk = ctx.walk_recipe(recipe, &current);
                        // Only the memo knows when its ids name other
                        // graphs: `current` can change without its
                        // content changing (an accepted in-place move
                        // that fires nothing), and then the prices
                        // stay valid.
                        if walk.rebased {
                            prices.clear();
                        }
                        prices.resize(ctx.recipe_memo().len(), None);
                        (walk.node, walk.graph)
                    }
                };
                // A walk served from the memo leaves its graph there;
                // it is copied only if this step needs it.
                prices_requested += usize::from(node.is_some());
                let served = node.and_then(|n| match n {
                    MEMO_BASE => current_metrics,
                    _ => prices[n],
                });
                metrics = match served {
                    Some(m) => m,
                    None => {
                        let g = graph
                            .get_or_insert_with(|| ctx.recipe_memo().graph(node.expect("stored")));
                        let m = evaluator.evaluate(g);
                        if let Some(n) = node {
                            prices[n] = Some(m);
                            prices_computed += 1;
                        }
                        // `evaluate` left per-node state of another graph.
                        rows_synced = false;
                        m
                    }
                };
                cost = scalar(&metrics);
                accept = metropolis(cost - current_cost, temp, &mut rng);
                if node == Some(MEMO_BASE) {
                    // The candidate has `current`'s content: keep
                    // `current` and its warm engine, accepted or not.
                    current_metrics = Some(metrics);
                } else if accept {
                    let next =
                        graph.unwrap_or_else(|| ctx.recipe_memo().graph(node.expect("stored")));
                    if served.is_some() {
                        // Leave the evaluator exactly as pricing the
                        // accepted graph leaves it.
                        let repriced = evaluator.evaluate(&next);
                        debug_assert_eq!(repriced, metrics, "a stored price went stale");
                        rows_synced = false;
                    }
                    current = next;
                    engine_synced = false;
                }
            }
        }
        evaluated.push(metrics);
        if accept {
            current_cost = cost;
            current_metrics = Some(metrics);
            accepted += 1;
            if cost < best_cost {
                best_cost = cost;
                best = Some(current.clone());
                best_metrics = metrics;
            }
            // Deterministic compaction checkpoint (after the best
            // clone, so `best` is independent of compaction): sweep
            // once dead logic dominates the arena.
            if should_compact(it, &current) {
                current = current.sweep();
                current_metrics = None;
                engine_synced = false;
                rows_synced = false;
            }
        }
        temp *= opts.decay;
        history.push(current_cost);
    }
    SaResult {
        best: best.unwrap_or_else(|| aig.clone()),
        best_metrics,
        best_cost,
        evaluated,
        accepted,
        history,
        prices_requested,
        prices_computed,
    }
}

/// Runs one independent SA chain per seed in parallel (via
/// [`aig::par`]) and returns the results in seed order.
///
/// SA is highly seed-sensitive; the standard remedy is restarting the
/// chain several times and keeping the best outcome. `make_eval`
/// builds one evaluator per *worker*, and each worker builds one
/// [`EvalContext`]; chains executed by the same worker share both, so
/// match tables, mapper DP buffers and the worker's NPN-canonical
/// resynthesis cache persist across restarts. Every reused piece is
/// pure with respect to the evaluated graph, so results are
/// deterministic and independent of the worker count (asserted by the
/// determinism suites).
///
/// # Panics
///
/// Panics if `seeds` is empty, plus everything [`optimize`] panics on.
///
/// # Examples
///
/// ```
/// use saopt::{optimize_seeds, ProxyCost, SaOptions};
/// use transform::recipes;
///
/// let mut g = aig::Aig::new();
/// let mut acc = g.add_input();
/// for _ in 0..15 {
///     let x = g.add_input();
///     acc = g.and(acc, x);
/// }
/// g.add_output(acc, None::<&str>);
///
/// let opts = SaOptions { iterations: 8, ..SaOptions::default() };
/// let runs = optimize_seeds(&g, || ProxyCost, &recipes(), &opts, &[1, 2, 3]);
/// assert_eq!(runs.len(), 3);
/// let best = runs.iter().map(|r| r.best_cost).fold(f64::INFINITY, f64::min);
/// assert!(best <= runs[0].best_cost);
/// ```
pub fn optimize_seeds<E, F>(
    aig: &Aig,
    make_eval: F,
    actions: &[Recipe],
    opts: &SaOptions,
    seeds: &[u64],
) -> Vec<SaResult>
where
    E: CostEvaluator,
    F: Fn() -> E + Sync,
{
    assert!(!seeds.is_empty(), "need at least one seed");
    aig::par::par_map_with(
        seeds,
        || (make_eval(), EvalContext::new()),
        |(eval, ctx), _, &seed| {
            let opts = SaOptions { seed, ..*opts };
            optimize_with(aig, eval, actions, &opts, ctx)
        },
    )
}

/// Multi-seed restart helper: runs [`optimize_seeds`] and returns the
/// single best result (ties broken toward the earliest seed, keeping
/// the outcome deterministic).
///
/// # Panics
///
/// Panics if `seeds` is empty, plus everything [`optimize`] panics on.
pub fn optimize_best_of<E, F>(
    aig: &Aig,
    make_eval: F,
    actions: &[Recipe],
    opts: &SaOptions,
    seeds: &[u64],
) -> SaResult
where
    E: CostEvaluator,
    F: Fn() -> E + Sync,
{
    optimize_seeds(aig, make_eval, actions, opts, seeds)
        .into_iter()
        .reduce(|best, r| {
            if r.best_cost < best.best_cost {
                r
            } else {
                best
            }
        })
        .expect("seeds is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ProxyCost;
    use transform::recipes;

    fn messy_graph(seed: u64) -> Aig {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<aig::Lit> = (0..10).map(|_| g.add_input()).collect();
        for _ in 0..150 {
            let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            lits.push(g.and(a, b));
        }
        for k in 0..5 {
            let l = lits[lits.len() - 1 - 7 * k];
            g.add_output(l, None::<&str>);
        }
        g
    }

    #[test]
    fn sa_improves_proxy_cost() {
        let g = messy_graph(5);
        let actions = recipes();
        let opts = SaOptions {
            iterations: 25,
            seed: 9,
            ..SaOptions::default()
        };
        let res = optimize(&g, &mut ProxyCost, &actions, &opts);
        let initial = ProxyCost.evaluate(&g);
        assert!(
            res.best_cost <= opts.weight_delay + opts.weight_area + 1e-9,
            "best must not be worse than start"
        );
        assert!(
            res.best_metrics.area <= initial.area,
            "optimization should not grow the graph: {} -> {}",
            initial.area,
            res.best_metrics.area
        );
        assert_eq!(res.evaluated.len(), opts.iterations + 1);
        assert_eq!(res.history.len(), opts.iterations);
        assert!(res.accepted >= 1);
    }

    #[test]
    fn sa_preserves_function() {
        let g = messy_graph(6);
        let actions = recipes();
        let res = optimize(
            &g,
            &mut ProxyCost,
            &actions,
            &SaOptions {
                iterations: 12,
                ..SaOptions::default()
            },
        );
        assert!(aig::sim::equiv_exhaustive(&g, &res.best).expect("10 inputs"));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = messy_graph(7);
        let actions = recipes();
        let opts = SaOptions {
            iterations: 8,
            seed: 123,
            ..SaOptions::default()
        };
        let r1 = optimize(&g, &mut ProxyCost, &actions, &opts);
        let r2 = optimize(&g, &mut ProxyCost, &actions, &opts);
        assert_eq!(r1.best_cost, r2.best_cost);
        assert_eq!(r1.accepted, r2.accepted);
    }

    #[test]
    fn weights_steer_the_search() {
        let g = messy_graph(8);
        let actions = recipes();
        let delay_first = optimize(
            &g,
            &mut ProxyCost,
            &actions,
            &SaOptions {
                iterations: 30,
                weight_delay: 1.0,
                weight_area: 0.0,
                seed: 4,
                ..SaOptions::default()
            },
        );
        let area_first = optimize(
            &g,
            &mut ProxyCost,
            &actions,
            &SaOptions {
                iterations: 30,
                weight_delay: 0.0,
                weight_area: 1.0,
                seed: 4,
                ..SaOptions::default()
            },
        );
        assert!(delay_first.best_metrics.delay <= area_first.best_metrics.delay + 1.0);
        assert!(area_first.best_metrics.area <= delay_first.best_metrics.area + 2.0);
    }

    /// The transaction engine must be invisible in the results: with
    /// the same seed, engine-on and engine-off (clone oracle) runs
    /// produce byte-identical histories, metrics and best graphs —
    /// under both the proxy and the ground-truth evaluator, on an
    /// action mix that interleaves in-place and whole-graph moves.
    #[test]
    fn inplace_engine_matches_clone_oracle() {
        use transform::Transform;
        let g = messy_graph(12);
        let actions = vec![
            Recipe(vec![Transform::Rewrite]),
            Recipe(vec![Transform::RewriteZero]),
            Recipe(vec![Transform::Balance]),
            Recipe(vec![Transform::Sweep]),
            Recipe(vec![Transform::Rewrite, Transform::Balance]),
        ];
        let opts = SaOptions {
            iterations: 24,
            seed: 77,
            ..SaOptions::default()
        };
        let run = |inplace: bool, eval: &mut dyn crate::CostEvaluator, opts: &SaOptions| {
            let mut ctx = EvalContext::new();
            ctx.set_inplace_transactions(inplace);
            optimize_with(&g, eval, &actions, opts, &mut ctx)
        };
        let on = run(true, &mut ProxyCost, &opts);
        let off = run(false, &mut ProxyCost, &opts);
        assert_eq!(
            aig::aiger::to_ascii(&on.best),
            aig::aiger::to_ascii(&off.best),
            "proxy: best graph diverged"
        );
        assert_eq!(on.history, off.history, "proxy: history diverged");
        assert_eq!(on.evaluated, off.evaluated, "proxy: metrics diverged");
        assert_eq!(on.accepted, off.accepted);

        let lib = cells::sky130ish();
        let gt_opts = SaOptions {
            iterations: 10,
            ..opts
        };
        let on = run(true, &mut crate::GroundTruthCost::new(&lib), &gt_opts);
        let off = run(false, &mut crate::GroundTruthCost::new(&lib), &gt_opts);
        assert_eq!(
            aig::aiger::to_ascii(&on.best),
            aig::aiger::to_ascii(&off.best),
            "ground-truth: best graph diverged"
        );
        assert_eq!(on.history, off.history, "ground-truth: history diverged");
        assert_eq!(
            on.evaluated, off.evaluated,
            "ground-truth: metrics diverged"
        );
    }

    /// Four constant cones `AND(AND(x, e), AND(!x, f))` whose readers
    /// `AND(k, y)` sit past ~90 live filler ANDs, so a move window that
    /// reaches a cone ends before its reader.
    fn constant_cone_graph() -> Aig {
        let mut g = Aig::new();
        let ins: Vec<aig::Lit> = (0..8).map(|_| g.add_input()).collect();
        let cones: Vec<aig::Lit> = (0..4)
            .map(|i| {
                let t = g.and(ins[i], ins[4]);
                let u = g.and(!ins[i], ins[5 + i % 3]);
                g.and(t, u)
            })
            .collect();
        let mut acc = ins[0];
        for j in 0..30 {
            acc = g.xor(acc, ins[(3 * j + 1) % 8]);
        }
        g.add_output(acc, None::<&str>);
        for (i, &k) in cones.iter().enumerate() {
            let r = g.and(k, ins[7 - i]);
            g.add_output(r, None::<&str>);
        }
        g
    }

    /// A constant substitution whose reader lies outside the window
    /// used to leave a live `AND(0, y)` that no cell maps. Now the
    /// reader is simplified within the move: the ground-truth
    /// evaluator prices the edit exactly like a fresh evaluation, and
    /// SA chains stay byte-identical with the engine on or off.
    #[test]
    fn constant_substitutions_leave_mappable_graphs() {
        let g = constant_cone_graph();
        let lib = cells::sky130ish();
        let cone = g.and_ids().nth(2).expect("first cone root");
        let mut edited = g.clone();
        let mut inc = IncrementalAnalysis::new(&edited);
        let mut db = CutDb::new(INPLACE_CUT_SIZE, INPLACE_MAX_CUTS);
        db.build(&edited);
        let mut ctx = EvalContext::new();
        let mut gt = crate::GroundTruthCost::new(&lib);
        let before = gt.evaluate_edit(&edited, &EditScope::new(&db, 0), &mut ctx);
        assert!(before.area > 0.0);
        let mut txn = Transaction::begin(&mut edited, &mut inc);
        let plan = transform::InplacePlan::Rewrite(transform::InplaceMode::Standard);
        plan.run(&mut txn, &mut db, ctx.resynth(), cone);
        for o in &txn.aig().outputs()[1..] {
            assert_eq!(o.lit, aig::Lit::FALSE, "each reader folds to 0");
        }
        let scope =
            EditScope::new(&db, txn.min_touched()).with_delta(txn.touched_region(), txn.analysis());
        let priced = gt.evaluate_edit(txn.aig(), &scope, &mut ctx);
        txn.commit();
        assert_eq!(priced, crate::GroundTruthCost::new(&lib).evaluate(&edited));

        let actions = vec![
            Recipe(vec![transform::Transform::Rewrite]),
            Recipe(vec![transform::Transform::RewriteZero]),
        ];
        // Seeds whose chains hit a cone without its reader (both
        // panicked with `NoMatch` before readers were simplified).
        for seed in [7u64, 9] {
            let opts = SaOptions {
                iterations: 24,
                seed,
                ..SaOptions::default()
            };
            let run = |inplace: bool| {
                let mut ctx = EvalContext::new();
                ctx.set_inplace_transactions(inplace);
                let mut gt = crate::GroundTruthCost::new(&lib);
                optimize_with(&g, &mut gt, &actions, &opts, &mut ctx)
            };
            let (on, off) = (run(true), run(false));
            assert_eq!(
                aig::aiger::to_ascii(&on.best),
                aig::aiger::to_ascii(&off.best),
                "seed {seed}"
            );
            assert_eq!(on.history, off.history, "seed {seed}");
            assert_eq!(on.evaluated, off.evaluated, "seed {seed}");
        }
    }

    /// In-place moves preserve the Boolean function end to end.
    #[test]
    fn inplace_moves_preserve_function() {
        use transform::Transform;
        let g = messy_graph(13);
        let actions = vec![
            Recipe(vec![Transform::Rewrite]),
            Recipe(vec![Transform::RewriteZero]),
        ];
        let res = optimize(
            &g,
            &mut ProxyCost,
            &actions,
            &SaOptions {
                iterations: 20,
                seed: 5,
                ..SaOptions::default()
            },
        );
        assert!(aig::sim::equiv_exhaustive(&g, &res.best).expect("10 inputs"));
    }

    /// Stored prices belong to the run's evaluator: a context reused
    /// by another evaluator on the same input, whose every move walks
    /// back to it, must not serve the first evaluator's metrics.
    #[test]
    fn stored_prices_do_not_outlive_their_run() {
        let g = messy_graph(14).sweep();
        let actions = vec![Recipe(vec![transform::Transform::Sweep])];
        let opts = SaOptions {
            iterations: 4,
            ..SaOptions::default()
        };
        let mut ctx = EvalContext::new();
        let _ = optimize_with(&g, &mut ProxyCost, &actions, &opts, &mut ctx);
        let lib = cells::sky130ish();
        let mut gt = crate::GroundTruthCost::new(&lib);
        let reused = optimize_with(&g, &mut gt, &actions, &opts, &mut ctx);
        let fresh = optimize_with(&g, &mut gt, &actions, &opts, &mut EvalContext::new());
        assert_eq!(reused.evaluated, fresh.evaluated);
        assert_eq!(
            ctx.recipe_memo().identity_walks(),
            8,
            "every move is `sw` of a swept graph"
        );
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn empty_actions_panic() {
        let g = messy_graph(9);
        let _ = optimize(&g, &mut ProxyCost, &[], &SaOptions::default());
    }

    /// Parallel multi-seed chains must produce exactly the results of
    /// running each seed serially, in seed order.
    #[test]
    fn multi_seed_matches_serial_runs() {
        let g = messy_graph(10);
        let actions = recipes();
        let opts = SaOptions {
            iterations: 6,
            ..SaOptions::default()
        };
        let seeds = [3u64, 14, 15, 92, 65];
        let par = optimize_seeds(&g, || ProxyCost, &actions, &opts, &seeds);
        assert_eq!(par.len(), seeds.len());
        for (&seed, r) in seeds.iter().zip(&par) {
            let serial = optimize(&g, &mut ProxyCost, &actions, &SaOptions { seed, ..opts });
            assert_eq!(r.best_cost, serial.best_cost, "seed {seed}");
            assert_eq!(r.history, serial.history, "seed {seed}");
        }
        let best = optimize_best_of(&g, || ProxyCost, &actions, &opts, &seeds);
        let min = par
            .iter()
            .map(|r| r.best_cost)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best.best_cost, min);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_panic() {
        let g = messy_graph(11);
        let _ = optimize_seeds(&g, || ProxyCost, &recipes(), &SaOptions::default(), &[]);
    }
}
