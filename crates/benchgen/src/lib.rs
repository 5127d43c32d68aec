//! Synthetic benchmark designs for the `aig-timing` experiments.
//!
//! This crate substitutes for the IWLS 2024 contest benchmarks used
//! by the paper: [`iwls_like_suite`] returns eight designs whose
//! PI/PO interfaces match Table III and whose AIG sizes land in the
//! same ranges (tens of nodes for `ex00`/`ex68`, one-to-three
//! thousand for the rest), built from the word-level generator
//! vocabulary in [`word`].
//!
//! # Examples
//!
//! ```
//! use benchgen::{iwls_like_suite, multiplier};
//!
//! let suite = iwls_like_suite();
//! assert_eq!(suite.len(), 8);
//! let m = multiplier(8);
//! assert_eq!(m.aig.num_inputs(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod designs;
mod large;
pub mod word;

pub use designs::{
    ex00, ex02, ex08, ex11, ex16, ex28, ex54, ex68, iwls_like_suite, multiplier, Design,
    TEST_DESIGNS, TRAIN_DESIGNS,
};
pub use large::{large_100k, large_10k, large_1m, large_mix};
