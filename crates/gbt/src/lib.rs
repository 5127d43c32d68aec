//! Gradient-boosted regression trees, from scratch.
//!
//! This crate substitutes for XGBoost in the paper's ML flow: a
//! second-order gradient-boosting regressor (RMSE objective) over
//! depth-limited trees with histogram split finding, shrinkage,
//! row/column subsampling, L2 leaf regularization, early stopping,
//! gain-based feature importance, and JSON model serialization.
//!
//! # Examples
//!
//! Train on a synthetic target and predict:
//!
//! ```
//! use gbt::{train, Dataset, GbtParams};
//!
//! let mut data = Dataset::new(2);
//! for i in 0..300 {
//!     let x = i as f32 / 10.0;
//!     data.push_row(&[x, -x], x * x);
//! }
//! let model = train(&data, &GbtParams { num_rounds: 80, ..GbtParams::default() });
//! let pred = model.predict(&[15.0, -15.0]);
//! assert!((pred - 225.0).abs() < 20.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod boost;
mod dataset;
mod forest;
pub mod metrics;
mod tree;

pub use boost::{train, train_with_validation, GbtModel, GbtParams, TrainLog};
pub use dataset::Dataset;
pub use forest::Forest;
pub use metrics::{mae, pct_error_stats, pearson, rmse, PctErrorStats};
pub use tree::{Bins, Tree, TreeNode, TreeParams};
