//! Simulated-annealing logic optimization with pluggable cost
//! evaluators — the three flows of the paper's Fig. 3.
//!
//! * **Baseline** — [`ProxyCost`]: AIG levels and node count;
//! * **Ground truth** — [`GroundTruthCost`]: technology mapping +
//!   STA per iteration (accurate, ~20× slower);
//! * **ML** — [`MlCost`]: Table II features + boosted-tree inference
//!   (accurate and fast — the paper's contribution).
//!
//! [`optimize`] runs one SA search; [`optimize_seeds`] /
//! [`optimize_best_of`] restart independent chains across seeds in
//! parallel; [`sweep`] runs the paper's hyperparameter grid (cost
//! weights × temperature decay) in parallel; [`pareto`]
//! post-processes point clouds into the fronts compared in Fig. 5.
//! Parallel loops go through [`aig::par`], so `AIG_THREADS=1` forces
//! serial execution; results never depend on the worker count.
//!
//! Every run carries an [`EvalContext`] across iterations: its
//! NPN-canonical resynthesis cache ([`transform::ResynthCache`])
//! feeds the recipe applications, and a recipe memo
//! ([`transform::RecipeMemo`]) holds the graphs the whole-graph moves
//! reach from the current graph, so each distinct candidate is built
//! once per current graph. The run keeps its evaluator's price of each
//! such graph, so it is priced once per current graph too.
//! [`GroundTruthCost`] holds a [`techmap::MapContext`] so mapping
//! reuses its DP tables. Contexts never change results — outputs are
//! byte-identical with the caches warm, cold, or disabled, and for
//! any `AIG_THREADS` value (the determinism integration tests assert
//! both).
//!
//! # Examples
//!
//! ```
//! use saopt::{optimize, ProxyCost, SaOptions};
//! use transform::recipes;
//!
//! // A deep AND chain: SA with the proxy evaluator balances it.
//! let mut g = aig::Aig::new();
//! let mut acc = g.add_input();
//! for _ in 0..31 {
//!     let x = g.add_input();
//!     acc = g.and(acc, x);
//! }
//! g.add_output(acc, None::<&str>);
//!
//! let result = optimize(
//!     &g,
//!     &mut ProxyCost,
//!     &recipes(),
//!     &SaOptions { iterations: 12, ..SaOptions::default() },
//! );
//! assert!(result.best_metrics.delay <= 6.0); // ceil(log2(32)) = 5
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod context;
mod cost;
pub mod pareto;
mod sa;
mod sweep;

pub use context::EvalContext;
pub use cost::{CostEvaluator, CostMetrics, EditScope, GroundTruthCost, MlCost, ProxyCost};
pub use sa::{optimize, optimize_best_of, optimize_seeds, optimize_with, SaOptions, SaResult};
pub use sweep::{sweep, SweepConfig, SweepPoint};
