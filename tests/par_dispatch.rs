//! Serial-vs-parallel GNN forward passes, driven through the public
//! API by toggling `AIG_THREADS`.
//!
//! This lives in its own test binary on purpose: the env var is
//! process-global, and here the toggling test is the only test in
//! the process, so no sibling test can observe a mid-flight value.
//! `AIG_THREADS=4` forces four workers whatever the machine's core
//! count, and the graph is large enough (asserted below) that the
//! forward pass's node loop really splits its rows across them.

use gnn::{GnnModel, GnnParams, GraphData};

mod common;
use common::random_aig_with;

/// Restores the pre-test `AIG_THREADS` value even if an assert
/// unwinds mid-loop.
struct EnvGuard(Option<String>);

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match self.0.take() {
            Some(v) => std::env::set_var("AIG_THREADS", v),
            None => std::env::remove_var("AIG_THREADS"),
        }
    }
}

/// A trained model's prediction, called from the test thread, must be
/// bit-identical whether the forward pass runs its node rows serially
/// (`AIG_THREADS=1`) or split across four workers (`AIG_THREADS=4`).
#[test]
fn gnn_predictions_independent_of_worker_count() {
    let _guard = EnvGuard(std::env::var("AIG_THREADS").ok());
    let train: Vec<(GraphData, f64)> = (0..4u64)
        .map(|seed| {
            let g = random_aig_with(seed, 6, 40 + 10 * seed as usize, 3);
            (GraphData::from_aig(&g), 50.0 + 7.5 * seed as f64)
        })
        .collect();
    let (model, _losses) = GnnModel::train(
        &train,
        &GnnParams {
            epochs: 3,
            seed: 5,
            ..GnnParams::default()
        },
    );
    // The forward pass hands each worker at least 256 node rows, so
    // a split needs twice that.
    let large = GraphData::from_aig(&random_aig_with(11, 24, 1500, 8));
    assert!(
        large.n >= 2 * 256,
        "{} nodes cannot split the rows",
        large.n
    );
    std::env::set_var("AIG_THREADS", "1");
    let serial = model.predict(&large);
    std::env::set_var("AIG_THREADS", "4");
    let parallel = model.predict(&large);
    assert!(serial.is_finite());
    assert_eq!(
        serial.to_bits(),
        parallel.to_bits(),
        "prediction {serial} serial vs {parallel} with 4 threads"
    );
}
