//! Shared fixtures for the benchmark suite.
//!
//! The benches in `benches/` time the individual flow components
//! (`components`), one SA iteration under the baseline and the
//! ground-truth evaluator (`fig2_iteration_cost`, the paper's Fig. 2
//! slowdown) and the priced step's scaling on the large tier
//! (`scale_sweep`), and write the machine-readable `BENCH_*.json`
//! reports. The paper's tables and figures themselves are
//! regenerated, and their runtimes timed, by the `repro` binary of
//! the `experiments` crate. This library provides the common fixtures
//! so each bench pays setup cost once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use aig::Aig;
use benchgen::Design;
use cells::Library;

/// A small/large design pair used by size-scaling benches.
pub fn design_pair() -> (Design, Design) {
    (benchgen::ex00(), benchgen::ex28())
}

/// The builtin library.
pub fn library() -> Library {
    cells::sky130ish()
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
