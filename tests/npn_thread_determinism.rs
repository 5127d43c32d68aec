//! Worker-count independence of the parallel SA chains, driven
//! through the public API by toggling `AIG_THREADS`.
//!
//! This lives in its own test binary on purpose (like
//! `par_dispatch`): the env var is process-global, and here the
//! toggling test is the only test in the process, so no sibling test
//! can observe a mid-flight value. `optimize_seeds` and `sweep` give
//! each worker one evaluator and one `EvalContext`, whose NPN
//! resynthesis cache stays warm across the chains that worker runs.
//! Which chains share a worker, and so a warm cache, depends on the
//! worker count; with 4 workers and with one, every chain's output
//! must be byte-identical.

use aig::aiger::to_ascii;
use saopt::{optimize_seeds, sweep, ProxyCost, SaOptions, SweepConfig};
use transform::recipes;

mod common;
use common::random_aig_with;

/// Restores the pre-test `AIG_THREADS` value even if an assert
/// unwinds mid-loop.
struct EnvGuard(Option<String>);

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match self.0.take() {
            Some(v) => std::env::set_var("AIG_THREADS", v),
            None => std::env::remove_var("AIG_THREADS"),
        }
    }
}

#[test]
fn shared_cache_outputs_independent_of_worker_count() {
    let _guard = EnvGuard(std::env::var("AIG_THREADS").ok());
    let g = random_aig_with(31, 8, 110, 4);
    let actions = recipes();
    let opts = SaOptions {
        iterations: 5,
        ..SaOptions::default()
    };
    let seeds = [1u64, 9, 43, 77];
    let cfg = SweepConfig {
        weights: vec![(1.0, 0.0), (0.5, 0.5)],
        decays: vec![0.9, 0.95],
        iterations: 4,
        seed: 13,
    };

    std::env::set_var("AIG_THREADS", "1");
    let serial_chains = optimize_seeds(&g, || ProxyCost, &actions, &opts, &seeds);
    let serial_sweep = sweep(&g, || ProxyCost, &actions, &cfg);

    std::env::set_var("AIG_THREADS", "4");
    let parallel_chains = optimize_seeds(&g, || ProxyCost, &actions, &opts, &seeds);
    let parallel_sweep = sweep(&g, || ProxyCost, &actions, &cfg);

    assert_eq!(serial_chains.len(), parallel_chains.len());
    for (i, (s, p)) in serial_chains.iter().zip(&parallel_chains).enumerate() {
        assert_eq!(
            to_ascii(&s.best),
            to_ascii(&p.best),
            "chain {i}: best AIG differs between 1 and 4 workers"
        );
        assert_eq!(s.history, p.history, "chain {i}");
        assert_eq!(s.evaluated, p.evaluated, "chain {i}");
    }
    assert_eq!(serial_sweep.len(), parallel_sweep.len());
    for (i, (s, p)) in serial_sweep.iter().zip(&parallel_sweep).enumerate() {
        assert_eq!(
            to_ascii(&s.best),
            to_ascii(&p.best),
            "sweep point {i}: best AIG differs between 1 and 4 workers"
        );
        assert_eq!(s.flow_metrics, p.flow_metrics, "sweep point {i}");
    }

    // The in-place transaction engine (default-on inside every chain)
    // under an action mix that exercises it on every other draw: the
    // worker's cache is read from the in-place resynthesis probes too,
    // and results must stay independent of the worker count.
    let inplace_actions = vec![
        transform::Recipe(vec![transform::Transform::Rewrite]),
        transform::Recipe(vec![transform::Transform::RewriteZero]),
        transform::Recipe(vec![transform::Transform::Refactor]),
        transform::Recipe(vec![transform::Transform::RefactorZero]),
        transform::Recipe(vec![transform::Transform::Balance]),
        transform::Recipe(vec![transform::Transform::Resub]),
        transform::Recipe(vec![transform::Transform::Sweep]),
    ];
    let opts = SaOptions {
        iterations: 12,
        ..SaOptions::default()
    };
    std::env::set_var("AIG_THREADS", "1");
    let serial = optimize_seeds(&g, || ProxyCost, &inplace_actions, &opts, &seeds);
    std::env::set_var("AIG_THREADS", "4");
    let parallel = optimize_seeds(&g, || ProxyCost, &inplace_actions, &opts, &seeds);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(
            to_ascii(&s.best),
            to_ascii(&p.best),
            "in-place chain {i}: best AIG differs between 1 and 4 workers"
        );
        assert_eq!(s.history, p.history, "in-place chain {i}");
        assert_eq!(s.evaluated, p.evaluated, "in-place chain {i}");
    }

    // The ground-truth evaluator on the same in-place mix: mapping,
    // sizing and STA must not depend on the worker count either.
    let lib = cells::sky130ish();
    let gt_opts = SaOptions {
        iterations: 8,
        ..opts
    };
    let gt = || {
        saopt::optimize_with(
            &g,
            &mut saopt::GroundTruthCost::new(&lib),
            &inplace_actions,
            &gt_opts,
            &mut saopt::EvalContext::new(),
        )
    };
    std::env::set_var("AIG_THREADS", "1");
    let gt_1 = gt();
    std::env::set_var("AIG_THREADS", "4");
    let gt_4 = gt();
    assert_eq!(
        to_ascii(&gt_1.best),
        to_ascii(&gt_4.best),
        "ground truth: best AIG differs between 1 and 4 workers"
    );
    assert_eq!(gt_1.history, gt_4.history, "ground truth");
    assert_eq!(gt_1.evaluated, gt_4.evaluated, "ground truth");
}
