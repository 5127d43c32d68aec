//! # aig-timing
//!
//! A Rust reproduction of *"ML-based AIG Timing Prediction to Enhance
//! Logic Optimization"* (Jiang, Yan, Sapatnekar — DATE 2025,
//! arXiv:2412.02268), built from scratch: AIG infrastructure, logic
//! transformations, a standard-cell library, technology mapping,
//! static timing analysis, gradient-boosted trees, a GNN baseline,
//! and the simulated-annealing optimization flows the paper compares.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | crate | role |
//! |---|---|
//! | [`aig`] | And-Inverter Graphs, AIGER I/O, cuts, simulation |
//! | [`transform`] | balance / rewrite / refactor / reshape / perturb |
//! | [`cells`] | 130nm-class standard-cell library (liberty-lite) |
//! | [`techmap`] | cut-based Boolean-matching technology mapper |
//! | [`sta`] | load-aware static timing analysis |
//! | [`features`] | Table II graph-level feature extraction |
//! | [`gbt`] | XGBoost-style gradient-boosted trees |
//! | [`gnn`] | message-passing GNN regressor (ablation baseline) |
//! | [`saopt`] | SA optimizer with proxy / ground-truth / ML costs |
//! | [`benchgen`] | IWLS-like synthetic benchmark suite |
//! | [`experiments`] | drivers regenerating every table and figure |
//!
//! # Quickstart
//!
//! Map a small circuit and read its post-mapping timing — the
//! ground-truth signal the paper's ML model learns to predict:
//!
//! ```
//! use aig_timing::prelude::*;
//!
//! let mut g = Aig::new();
//! let a = g.add_input();
//! let b = g.add_input();
//! let c = g.add_input();
//! let ab = g.and(a, b);
//! let f = g.xor(ab, c);
//! g.add_output(f, Some("y"));
//!
//! let lib = sky130ish();
//! let netlist = Mapper::new(&lib, MapOptions::default()).map(&g)?;
//! let report = sta::analyze(&netlist, &lib);
//! assert!(report.max_delay_ps > 0.0);
//!
//! // ... and the features the predictor uses instead:
//! let fv = features::extract(&g);
//! assert_eq!(fv.as_slice().len(), features::NUM_FEATURES);
//! # Ok::<(), techmap::MapError>(())
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and the
//! `repro` binary (`cargo run --release -p experiments --bin repro --
//! all`) for the full paper evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use aig;
pub use benchgen;
pub use cells;
pub use experiments;
pub use features;
pub use gbt;
pub use gnn;
pub use saopt;
pub use sta;
pub use techmap;
pub use transform;

/// Convenience re-exports for the common flow:
/// build AIG → transform → map → time → featurize → predict.
pub mod prelude {
    pub use aig::{Aig, AigError, Lit, NodeId};
    pub use benchgen::{iwls_like_suite, multiplier};
    pub use cells::{sky130ish, Library};
    pub use features;
    pub use gbt::{train, Dataset, GbtModel, GbtParams};
    pub use saopt::{optimize, GroundTruthCost, MlCost, ProxyCost, SaOptions};
    pub use sta;
    pub use techmap::{MapOptions, Mapper, Netlist};
    pub use transform::{balance, recipes, Recipe, Transform};
}
