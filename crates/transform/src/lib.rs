//! Function-preserving AIG transformations.
//!
//! This crate substitutes for ABC's logic-optimization commands in
//! the paper's flows. It provides the primitives
//! ([`balance`], [`rewrite`], [`rewrite_zero`], [`refactor`],
//! [`refactor_zero`], plus sweep via [`aig::Aig::sweep`]), the
//! [`Transform`]/[`Recipe`] action abstraction, and [`recipes`] — the
//! 103-entry action space matching the industry flow the paper cites.
//!
//! Cut resynthesis is memoized through [`ResynthCache`], a shared
//! NPN-canonical structure cache: 4-input cut functions are
//! synthesized once per NPN class and derived by leaf relabeling, and
//! one cache may be carried across SA iterations and parallel sweep
//! chains (`*_with` variants accept it; the plain entry points create
//! a transient one, with byte-identical results either way). Whole
//! recipes are memoized per graph through [`RecipeMemo`], which
//! applies each recipe prefix at most once to a given graph.
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
pub use memo::RecipeMemo;
pub use recipes::{apply, apply_with, recipes, InplacePlan, ParseRecipeError, Recipe, Transform};
pub use resub::{resub, resub_inplace_window};
pub use rewrite::{
    perturb, perturb_with, refactor, refactor_with, refactor_zero, refactor_zero_with,
    resynth_inplace_window, resynthesize, resynthesize_with, rewrite, rewrite_inplace,
    rewrite_inplace_window, rewrite_with, rewrite_zero, rewrite_zero_with, InplaceMode,
    InplaceStats, ResynthOptions,
};
