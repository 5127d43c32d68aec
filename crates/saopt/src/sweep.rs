//! Hyperparameter sweeps producing Pareto point clouds (paper Fig. 5).
//!
//! The paper sweeps the cost-function weights and the annealing
//! temperature decay rate, collecting the optimal AIG of each run;
//! the Pareto front over those runs is the flow's quality curve.

use crate::context::EvalContext;
use crate::cost::{CostEvaluator, CostMetrics};
use crate::sa::{optimize_with, SaOptions};
use aig::{par, Aig};
use std::sync::Arc;
use transform::{Recipe, ResynthCache};

/// Sweep grid: every weight pair × every decay rate is one SA run.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// `(weight_delay, weight_area)` pairs.
    pub weights: Vec<(f64, f64)>,
    /// Temperature decay rates.
    pub decays: Vec<f64>,
    /// SA iterations per run.
    pub iterations: usize,
    /// Base RNG seed (each run derives its own).
    pub seed: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            weights: vec![(1.0, 0.0), (0.8, 0.2), (0.6, 0.4), (0.4, 0.6), (0.2, 0.8)],
            decays: vec![0.85, 0.92, 0.97],
            iterations: 40,
            seed: 7,
        }
    }
}

/// One sweep run's outcome.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Delay weight of the run.
    pub weight_delay: f64,
    /// Area weight of the run.
    pub weight_area: f64,
    /// Temperature decay of the run.
    pub decay: f64,
    /// Best AIG found by the run.
    pub best: Aig,
    /// Metrics of `best` in the flow evaluator's units.
    pub flow_metrics: CostMetrics,
}

/// Runs the full sweep in parallel (via [`aig::par`]; worker count
/// follows `AIG_THREADS`); `make_eval` builds one evaluator per
/// *worker*, and runs executed by the same worker share it together
/// with a warm [`EvalContext`] (mapper tables, analysis and
/// cut-database buffers persist across the grid). All runs share one
/// NPN-canonical resynthesis cache ([`transform::ResynthCache`]), so
/// a cut function is factored once for the whole grid.
///
/// Results are deterministic and independent of the worker count:
/// each run derives its own seed from the grid index, and the shared
/// cache only memoizes pure functions.
///
/// # Panics
///
/// Panics if the grid is empty.
pub fn sweep<E, F>(
    aig: &Aig,
    make_eval: F,
    actions: &[Recipe],
    cfg: &SweepConfig,
) -> Vec<SweepPoint>
where
    E: CostEvaluator,
    F: Fn() -> E + Sync,
{
    assert!(
        !cfg.weights.is_empty() && !cfg.decays.is_empty(),
        "sweep grid must be non-empty"
    );
    let grid: Vec<((f64, f64), f64)> = cfg
        .weights
        .iter()
        .flat_map(|&w| cfg.decays.iter().map(move |&d| (w, d)))
        .collect();
    let cache = Arc::new(ResynthCache::new());
    par::par_map_with(
        &grid,
        || (make_eval(), EvalContext::with_shared(Arc::clone(&cache))),
        |(eval, ctx), i, &((wd, wa), decay)| {
            let opts = SaOptions {
                iterations: cfg.iterations,
                decay,
                weight_delay: wd,
                weight_area: wa,
                seed: cfg.seed.wrapping_add(i as u64 * 0x9E37_79B9),
                ..SaOptions::default()
            };
            let res = optimize_with(aig, eval, actions, &opts, ctx);
            SweepPoint {
                weight_delay: wd,
                weight_area: wa,
                decay,
                best: res.best,
                flow_metrics: res.best_metrics,
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ProxyCost;
    use transform::recipes;

    #[test]
    fn sweep_covers_grid() {
        let mut g = Aig::new();
        let mut acc = g.add_input();
        for _ in 0..20 {
            let x = g.add_input();
            acc = g.and(acc, x);
        }
        g.add_output(acc, None::<&str>);
        let cfg = SweepConfig {
            weights: vec![(1.0, 0.0), (0.5, 0.5)],
            decays: vec![0.9, 0.95],
            iterations: 5,
            seed: 3,
        };
        let actions = recipes();
        let pts = sweep(&g, || ProxyCost, &actions, &cfg);
        assert_eq!(pts.len(), 4);
        // All runs must preserve function.
        for p in &pts {
            assert!(aig::sim::equiv_random(&g, &p.best, 4, 1).expect("iface"));
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_grid_panics() {
        let g = Aig::with_inputs(1);
        let cfg = SweepConfig {
            weights: vec![],
            ..SweepConfig::default()
        };
        let _ = sweep(&g, || ProxyCost, &recipes(), &cfg);
    }
}
