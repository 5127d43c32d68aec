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
//! execute the same [`run_inplace_plan`], so results are
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
//! most moves, so it applies the same recipe prefixes to the same
//! current graph again and again. These moves go through the
//! context's recipe memo ([`EvalContext::apply_recipe`]), which
//! applies each prefix at most once per graph and returns exactly
//! what [`Recipe::apply_with`] would, so results stay byte-identical
//! with the memo on or off. Every candidate is still priced.

use crate::context::EvalContext;
use crate::cost::{CostEvaluator, CostMetrics, EditScope};
use aig::cut::CutDb;
use aig::incremental::{DirtyRegion, IncrementalAnalysis, Transaction};
use aig::{Aig, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use transform::{
    balance_inplace_window, resub_inplace_window, resynth_inplace_window, InplacePlan,
    InplaceStats, Recipe, ResynthCache,
};

/// Cut parameters of the in-place engine: identical to `rewrite`'s
/// 4-input cuts *and* to the default `techmap::MapOptions`, so one
/// database serves both the local rewriter and the incremental
/// ground-truth evaluator.
const INPLACE_CUT_SIZE: usize = 4;
const INPLACE_MAX_CUTS: usize = 8;
/// Live AND nodes examined by one in-place move
/// ([`transform::resynth_inplace_window`]); the window start is drawn
/// from the chain's RNG as part of the move, so edits stay local and
/// the per-iteration cost is independent of the graph size.
const INPLACE_WINDOW: usize = 64;

/// Window width of an in-place move: refactor-flavor moves scan twice
/// the baseline window (their whole-graph counterpart works on larger
/// cones; the in-place flavor compensates with coverage).
fn plan_window(plan: InplacePlan) -> usize {
    match plan {
        InplacePlan::Refactor(_) => 2 * INPLACE_WINDOW,
        _ => INPLACE_WINDOW,
    }
}

/// Executes one in-place SA move according to its plan. The single
/// definition is shared by the engine path and the clone-oracle path,
/// so the two are bitwise interchangeable by construction.
fn run_inplace_plan(
    plan: InplacePlan,
    txn: &mut Transaction<'_>,
    db: &mut CutDb,
    cache: &ResynthCache,
    start: NodeId,
) -> InplaceStats {
    let window = plan_window(plan);
    match plan {
        InplacePlan::Rewrite(mode) => {
            resynth_inplace_window(txn, db, cache, mode, false, start, window)
        }
        InplacePlan::Refactor(mode) => {
            resynth_inplace_window(txn, db, cache, mode, true, start, window)
        }
        InplacePlan::Balance => balance_inplace_window(txn, db, start, window),
        InplacePlan::Resub => resub_inplace_window(txn, db, start, window),
    }
}

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
/// The context's shared resynthesis cache is threaded into every
/// recipe application and its analysis buffers into every evaluation
/// ([`CostEvaluator::evaluate_ctx`]), so iteration cost no longer
/// includes rebuilding either from scratch. Whole-graph moves go
/// through the context's recipe memo ([`EvalContext::apply_recipe`]):
/// a move starts from the longest prefix of its recipe already
/// computed on the current graph. Results are byte-identical to
/// [`optimize`] for any context state — warm, cold, shared with other
/// chains, or with both memo layers disabled
/// ([`EvalContext::without_cache`]; the determinism tests assert
/// this).
///
/// # The in-place transaction engine
///
/// Moves whose recipe has an in-place plan
/// ([`Recipe::as_inplace`]: single-step `rw`/`rwz`/`rf`/`rfz`/`b`/
/// `rsb`) do **not** rebuild the graph. The loop keeps an
/// [`IncrementalAnalysis`] and a [`CutDb`] live for the current graph
/// and executes the move through a windowed in-place pass
/// ([`run_inplace_plan`]) inside an edit [`Transaction`]: accept
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
/// ([`should_compact`]) sweeps the graph.
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
    let initial = evaluator.evaluate_ctx(aig, ctx);
    assert!(
        initial.delay > 0.0 && initial.area > 0.0,
        "initial metrics must be positive for normalization, got {initial:?}"
    );
    let scalar = |m: &CostMetrics| {
        opts.weight_delay * m.delay / initial.delay + opts.weight_area * m.area / initial.area
    };
    let mut current = aig.clone();
    let mut current_cost = scalar(&initial);
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
    // In-place engine state for `current`. The *buffers* live in the
    // context (warm across runs sharing it — multi-seed chains,
    // datagen sweeps); the *content* is synced to `current` on first
    // in-place use and re-synced after whole-graph accepts.
    let mut engine = ctx.take_engine();
    let mut engine_synced = false;
    // First node id whose evaluator-side per-node state (mapper DP
    // rows, the persistent mapped design) may disagree with
    // `current`. Rejected in-place moves re-sync the evaluator
    // immediately (`CostEvaluator::resync_edit`), so on the engine
    // path this stays `MAX`; whole-graph evaluations leave rows of a
    // different graph entirely and reset it to 0.
    let mut rows_since: NodeId = 0;
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
                run_inplace_plan(plan, &mut txn, db, ctx.resynth(), start);
                let move_min = txn.min_touched();
                let scope = EditScope::new(db, rows_since.min(move_min))
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
                    let scope =
                        EditScope::new(db, rows_since.min(move_min)).with_delta(&move_region, inc);
                    evaluator.resync_edit(&current, &scope, ctx);
                }
                rows_since = NodeId::MAX; // rows now match `current`
            }
            _ => {
                // The whole-graph path: recipes without an in-place
                // plan, and (engine off) the same in-place move
                // through a clone — the byte-identity oracle.
                let candidate = match inplace_move {
                    Some((plan, start)) => {
                        let mut cand = current.clone();
                        let mut inc = IncrementalAnalysis::new(&cand);
                        let mut db = CutDb::new(INPLACE_CUT_SIZE, INPLACE_MAX_CUTS);
                        db.build(&cand);
                        let mut txn = Transaction::begin(&mut cand, &mut inc);
                        run_inplace_plan(plan, &mut txn, &mut db, ctx.resynth(), start);
                        txn.commit();
                        cand
                    }
                    None => ctx.apply_recipe(recipe, &current),
                };
                metrics = evaluator.evaluate_ctx(&candidate, ctx);
                cost = scalar(&metrics);
                accept = metropolis(cost - current_cost, temp, &mut rng);
                if accept {
                    current = candidate;
                    engine_synced = false;
                }
                rows_since = 0;
            }
        }
        evaluated.push(metrics);
        if accept {
            current_cost = cost;
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
                engine_synced = false;
                rows_since = 0;
            }
        }
        temp *= opts.decay;
        history.push(current_cost);
    }
    ctx.put_engine(engine);
    SaResult {
        best: best.unwrap_or_else(|| aig.clone()),
        best_metrics,
        best_cost,
        evaluated,
        accepted,
        history,
    }
}

/// Runs one independent SA chain per seed in parallel (via
/// [`aig::par`]) and returns the results in seed order.
///
/// SA is highly seed-sensitive; the standard remedy is restarting the
/// chain several times and keeping the best outcome. `make_eval`
/// builds one evaluator per *worker* (chains executed by the same
/// worker share it, along with a warm [`EvalContext`] — match tables,
/// mapper DP buffers, and the in-place engine's analysis/cut-database
/// allocations all persist across restarts); all chains share one
/// NPN-canonical resynthesis cache. Every reused piece is pure with
/// respect to the evaluated graph, so results are deterministic and
/// independent of the worker count (asserted by the determinism
/// suites).
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
    let cache = Arc::new(ResynthCache::new());
    aig::par::par_map_with(
        seeds,
        || (make_eval(), EvalContext::with_shared(Arc::clone(&cache))),
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
        let plan = InplacePlan::Rewrite(transform::InplaceMode::Standard);
        run_inplace_plan(plan, &mut txn, &mut db, ctx.resynth(), cone);
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
