//! And-Inverter Graphs for logic synthesis research.
//!
//! This crate is the structural substrate of the `aig-timing` project,
//! a reproduction of *"ML-based AIG Timing Prediction to Enhance Logic
//! Optimization"* (DATE 2025). It provides:
//!
//! * [`Aig`] — a structurally hashed And-Inverter Graph with
//!   constant propagation and edge-complement representation;
//! * [`analysis`] — levels, fanout, weighted path depths and path
//!   counts (the raw material for the paper's Table II features);
//! * [`incremental`] — incrementally maintained levels/fanout with a
//!   dirty-region tracker, plus the edit
//!   [`Transaction`](incremental::Transaction) layer (trial
//!   substitutions/retargets/appends with exact rollback of graph,
//!   strash table and analyses), so SA moves mutate the current
//!   graph in place and evaluation cost scales with the edit size
//!   instead of the graph size ([`analysis`] stays the
//!   full-recompute oracle);
//! * [`cut`] — k-feasible cut enumeration with cut truth tables
//!   (used by rewriting and technology mapping), and the
//!   [`CutDb`](cut::CutDb) incremental cut database invalidated by
//!   dirty regions instead of rebuilt;
//! * [`tt`] — truth-table arithmetic, ISOP covers, NPN canonization;
//! * [`sim`] — bit-parallel random/exhaustive simulation and
//!   equivalence checking;
//! * [`par`] — std::thread data-parallel helpers used by the hot
//!   paths across the workspace;
//! * [`aiger`] — ASCII and binary AIGER I/O;
//! * [`blif`] — combinational BLIF read (with `.names` synthesis)
//!   and write.
//!
//! # Hot-path design notes
//!
//! Cut enumeration is the inner loop of both rewriting and technology
//! mapping, and therefore of every SA iteration. [`cut::Cut`] stores
//! its leaves in an inline fixed-capacity array (`[NodeId; 6]` plus a
//! length, ABC-style) together with a precomputed 64-bit Bloom-style
//! *leaf signature*, so leaf merging and dominance filtering are
//! allocation-free and dominance checks short-circuit through an O(1)
//! signature-subset prefilter. Per-node cut lists live in one flat
//! arena inside [`cut::CutSet`]. The naive `Vec`-per-cut
//! implementation is retained as [`cut::enumerate_cuts_naive`] — it is
//! the oracle for the parity tests and the baseline for the
//! `cut_enum` component benchmark.
//!
//! Simulation ([`sim::SimTable`]) propagates either serially or in
//! parallel: wide tables split across the word dimension, narrow
//! tables level-by-level across nodes. Both orderings produce
//! bit-identical tables.
//!
//! # Parallelism switches
//!
//! All parallelism funnels through [`par`]: the `parallel` cargo
//! feature (default on) compiles the threaded paths, and the
//! `AIG_THREADS` environment variable sets the worker count at
//! runtime (`AIG_THREADS=1` forces fully serial, bit-identical
//! execution). Every parallel helper returns results in input order,
//! so outputs never depend on the worker count.
//!
//! # Examples
//!
//! Build a majority gate and verify an optimized rebuild against it:
//!
//! ```
//! use aig::{Aig, sim::equiv_exhaustive};
//!
//! let mut g = Aig::new();
//! let (a, b, c) = (g.add_input(), g.add_input(), g.add_input());
//! let ab = g.and(a, b);
//! let bc = g.and(b, c);
//! let ac = g.and(a, c);
//! let t = g.or(ab, bc);
//! let maj = g.or(t, ac);
//! g.add_output(maj, Some("maj"));
//!
//! let swept = g.sweep();
//! assert!(equiv_exhaustive(&g, &swept)?);
//! # Ok::<(), aig::AigError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aiger;
pub mod analysis;
pub mod blif;
pub mod cut;
mod error;
mod graph;
pub mod incremental;
mod lit;
pub mod par;
pub mod sim;
mod strash;
pub mod tt;

pub use error::AigError;
pub use graph::{Aig, AigStats, NodeKind, Output, TopoIndex};
pub use lit::{Lit, NodeId};

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the crate's unit tests.

    use crate::{Aig, Lit};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A seeded random strashed AIG with the given shape.
    pub fn random_aig(seed: u64, num_inputs: usize, num_nodes: usize, num_outputs: usize) -> Aig {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..num_inputs).map(|_| g.add_input()).collect();
        for _ in 0..num_nodes {
            let a = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            let b = lits[rng.gen_range(0..lits.len())].complement_if(rng.gen());
            lits.push(g.and(a, b));
        }
        for _ in 0..num_outputs {
            let l = lits[rng.gen_range(0..lits.len())];
            g.add_output(l.complement_if(rng.gen()), None::<&str>);
        }
        g
    }
}
