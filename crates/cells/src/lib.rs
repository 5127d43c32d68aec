//! Standard-cell library modeling for the `aig-timing` project.
//!
//! This crate substitutes for the SkyWater 130nm PDK used by the
//! paper: it defines combinational [`Cell`]s with a linear
//! resistance-based delay model, a [`Library`] container, the builtin
//! [`sky130ish`] library, and a small [`liberty`] text format for
//! loading custom libraries.
//!
//! # Examples
//!
//! ```
//! use cells::sky130ish;
//!
//! let lib = sky130ish();
//! let nand = lib.cell(lib.find("NAND2_X1").expect("builtin cell"));
//! // Delay grows linearly with load.
//! assert!(nand.delay_ps(0, 20.0) > nand.delay_ps(0, 5.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expr;
pub mod liberty;
mod library;

pub use expr::BoolExpr;
pub use library::{
    asap7ish, from_fixed, sky130ish, to_fixed, Cell, CellId, Library, Pin, FIXED_UNITS_PER_UNIT,
};
