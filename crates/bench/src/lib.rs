//! Shared fixtures for the benchmark suite.
//!
//! Benchmarks regenerate the paper's tables and figures (see the
//! per-table benches in `benches/`) and time the individual flow
//! components. This library provides the common fixtures so each
//! bench pays setup cost once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use aig::Aig;
use benchgen::Design;
use cells::Library;
use experiments::datagen::{labeled_set, LabeledSet, Target};
use gbt::{GbtModel, GbtParams};

/// A small/large design pair used by size-scaling benches.
pub fn design_pair() -> (Design, Design) {
    (benchgen::ex00(), benchgen::ex28())
}

/// The builtin library.
pub fn library() -> Library {
    cells::sky130ish()
}

/// A bench-scale labeled corpus for one design.
pub fn small_corpus(design: &Design, lib: &Library, n: usize, seed: u64) -> LabeledSet {
    labeled_set(design, n, seed, lib)
}

/// Trains a bench-scale delay model from a labeled set.
pub fn small_delay_model(set: &LabeledSet, rounds: usize) -> GbtModel {
    gbt::train(
        &set.to_dataset(Target::Delay),
        &GbtParams {
            num_rounds: rounds,
            ..GbtParams::default()
        },
    )
}

/// A bench-scale area model.
pub fn small_area_model(set: &LabeledSet, rounds: usize) -> GbtModel {
    gbt::train(
        &set.to_dataset(Target::Area),
        &GbtParams {
            num_rounds: rounds,
            ..GbtParams::default()
        },
    )
}

/// A fixed candidate AIG (one recipe applied) for evaluator benches.
pub fn candidate_of(design: &Design) -> Aig {
    let actions = transform::recipes();
    actions[7].apply(&design.aig)
}

/// Where a machine-readable bench report should be written: the
/// directory named by `BENCH_JSON_DIR` when set, else the workspace
/// root, so the perf-tracking reports (`BENCH_fig2.json`, ...) land
/// in a stable place across PRs.
pub fn bench_json_path(name: &str) -> std::path::PathBuf {
    match std::env::var_os("BENCH_JSON_DIR") {
        Some(dir) => std::path::PathBuf::from(dir).join(name),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name),
    }
}
