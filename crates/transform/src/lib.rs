//! Function-preserving AIG transformations.
//!
//! This crate substitutes for ABC's logic-optimization commands in
//! the paper's flows. Each of its ten primitives is a [`Transform`]
//! (balance, rewrite and refactor with their zero-cost variants,
//! sweep, and the diversifiers), run on a whole graph by [`apply`] or
//! [`apply_with`]; a [`Recipe`] chains them, and [`recipes`] is the
//! 103-entry action space matching the industry flow the paper cites.
//!
//! Cut resynthesis is memoized through [`ResynthCache`], an
//! NPN-canonical structure cache: 4-input cut functions are
//! synthesized once per NPN class and derived by leaf relabeling, and
//! one cache may be carried across SA iterations and runs on one
//! thread ([`apply_with`] accepts it; [`apply`] creates a transient
//! one, with byte-identical results either way). Whole
//! recipes are memoized per base graph through [`RecipeMemo`], which
//! holds each distinct graph reached from the base once and runs each
//! primitive at most once per distinct input graph.
//!
//! All transforms preserve Boolean function; the test suites verify
//! this with exhaustive simulation on every transform and on sampled
//! recipes.
//!
//! # Examples
//!
//! ```
//! use aig::{Aig, sim::equiv_exhaustive};
//! use transform::{recipes, Recipe, Transform};
//!
//! let mut g = Aig::new();
//! let a = g.add_input();
//! let b = g.add_input();
//! let c = g.add_input();
//! let ab = g.and(a, b);
//! let abc = g.and(ab, c);
//! g.add_output(abc, None::<&str>);
//!
//! let script = Recipe(vec![Transform::Balance, Transform::Rewrite]);
//! let h = script.apply(&g);
//! assert!(equiv_exhaustive(&g, &h)?);
//! assert_eq!(recipes().len(), 103);
//! # Ok::<(), aig::AigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod balance;
mod cache;
pub mod factor;
mod memo;
mod recipes;
mod resub;
mod rewrite;
pub mod structure;

pub use balance::{balance, balance_dup, balance_inplace_window, reshape};
pub use cache::ResynthCache;
pub use memo::{RecipeMemo, Walk, MEMO_BASE};
pub use recipes::{apply, apply_with, recipes, InplacePlan, ParseRecipeError, Recipe, Transform};
pub use resub::{resub, resub_inplace_window};
pub use rewrite::{
    resynth_inplace_window, resynthesize_with, InplaceMode, InplaceStats, ResynthOptions,
};
