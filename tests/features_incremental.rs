//! Differential tests for the incremental feature-maintenance state
//! and the batched proxy-inference paths: [`IncrementalFeatures`]
//! must stay bit-identical to the full [`extract`] oracle through
//! random edit walks (rollbacks included) and on every `benchgen`
//! design; batched GBT/GNN inference must match the scalar paths bit
//! for bit; and ML-guided SA must be byte-identical with the
//! transaction engine on or off, and for any `AIG_THREADS` worker
//! count.

use aig::aiger::to_ascii;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::{Aig, Lit, NodeId};
use features::{extract, IncrementalFeatures};
use gbt::{Forest, GbtParams};
use gnn::{GnnModel, GnnParams, GnnScratch, GraphData};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use saopt::{optimize_with, EvalContext, MlCost, SaOptions};
use transform::{recipes, Recipe, Transform};

mod common;
use common::random_aig_with;

/// Syncs the features over `txn`'s footprint, then commits it (the
/// graph the features see is the committed one).
fn commit_synced(txn: Transaction<'_>, feats: &mut IncrementalFeatures) {
    feats.sync(txn.aig(), txn.touched_region(), txn.analysis());
    txn.commit();
}

/// One random in-place edit with the feature state maintained in
/// lock-step: committed transactions of plain appends, retargets and
/// substitutions, and fresh-cone splices (half rolled back, mirroring
/// the SA loops' reject protocol: sync to the edited graph, then
/// re-sync over the same footprint after the rollback).
fn random_edit(
    g: &mut Aig,
    inc: &mut IncrementalAnalysis,
    feats: &mut IncrementalFeatures,
    rng: &mut SmallRng,
) {
    match rng.gen_range(0..4) {
        0 => {
            let n = g.num_nodes() as NodeId;
            let mut txn = Transaction::begin(g, inc);
            for _ in 0..rng.gen_range(1..5) {
                let a = Lit::new(rng.gen_range(0..n), rng.gen());
                let b = Lit::new(rng.gen_range(0..n), rng.gen());
                txn.and(a, b);
            }
            commit_synced(txn, feats);
        }
        1 if g.num_outputs() > 0 => {
            let idx = rng.gen_range(0..g.num_outputs());
            let l = Lit::new(rng.gen_range(0..g.num_nodes() as NodeId), rng.gen());
            let mut txn = Transaction::begin(g, inc);
            txn.retarget_output(idx, l);
            commit_synced(txn, feats);
        }
        2 => {
            let ands: Vec<NodeId> = g.and_ids().collect();
            if ands.is_empty() {
                return;
            }
            let node = ands[rng.gen_range(0..ands.len())];
            let with = Lit::new(rng.gen_range(0..node), rng.gen());
            if g.reaches(with.var(), node) {
                return;
            }
            let mut txn = Transaction::begin(g, inc);
            txn.substitute(node, with);
            commit_synced(txn, feats);
        }
        _ => {
            // Fresh replacement cone spliced through a transaction;
            // half roll back.
            let mut txn = Transaction::begin(g, inc);
            let n = txn.aig().num_nodes() as NodeId;
            let ands: Vec<NodeId> = txn.aig().and_ids().collect();
            if ands.is_empty() {
                txn.rollback();
                return;
            }
            let node = ands[rng.gen_range(0..ands.len())];
            let mut root = Lit::new(rng.gen_range(0..n), rng.gen());
            for _ in 0..rng.gen_range(1..4) {
                let b = Lit::new(rng.gen_range(0..n), rng.gen());
                root = txn.and(root, b);
            }
            if root.var() != node && !txn.aig().reaches(root.var(), node) {
                txn.substitute(node, root);
            }
            let region = txn.touched_region().clone();
            feats.sync(txn.aig(), &region, txn.analysis());
            // The mid-edit state must already match the oracle on the
            // edited graph (this is what prices a candidate move).
            feats.assert_matches_oracle(txn.aig());
            if rng.gen() {
                txn.commit();
            } else {
                txn.rollback();
                feats.sync(g, &region, inc);
            }
        }
    }
}

/// Random recipe walks interleaved with in-place edits: after every
/// step — wholesale graph replacement (absorbed via `rebuild`),
/// occasional invalidation (absorbed by `sync`'s rebuild path), or an
/// in-place edit with rollbacks — the maintained features must equal
/// the full `extract` bit for bit.
#[test]
fn random_edit_walks_with_rollbacks_match_extract() {
    let actions = recipes();
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(0xFEA7 ^ seed);
        let mut g = random_aig_with(seed, 8, 120, 4);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut feats = IncrementalFeatures::default();
        feats.rebuild(&g);
        feats.assert_matches_oracle(&g);
        for _step in 0..24 {
            if rng.gen::<f64>() < 0.3 {
                let recipe = &actions[rng.gen_range(0..actions.len())];
                g = recipe.apply(&g);
                inc.rebuild(&g);
                feats.rebuild(&g);
            } else if rng.gen::<f64>() < 0.08 {
                // An invalid state must rebuild itself on sync.
                feats.invalidate();
                assert!(!feats.is_valid());
                random_edit(&mut g, &mut inc, &mut feats, &mut rng);
            } else {
                random_edit(&mut g, &mut inc, &mut feats, &mut rng);
            }
            feats.assert_matches_oracle(&g);
            inc.assert_matches_oracle(&g);
        }
    }
}

/// Every `benchgen` design: seeded edit scripts with oracle checks
/// after each step, so the incremental state is exercised on the real
/// suite topologies (deep arithmetic cones, wide control logic).
#[test]
fn benchgen_designs_match_extract_through_edits() {
    for design in benchgen::iwls_like_suite() {
        let mut rng = SmallRng::seed_from_u64(0xFEA8 ^ design.aig.num_nodes() as u64);
        let mut g = design.aig.clone();
        let mut inc = IncrementalAnalysis::new(&g);
        let mut feats = IncrementalFeatures::default();
        feats.rebuild(&g);
        feats.assert_matches_oracle(&g);
        for _step in 0..10 {
            random_edit(&mut g, &mut inc, &mut feats, &mut rng);
            feats.assert_matches_oracle(&g);
        }
    }
}

/// Batched GBT inference over real design features: `predict_all`
/// (the flattened-forest path) and `Forest::predict_into` must match
/// the scalar tree-walk predictions bit for bit, and the `f64` row
/// path must equal the convert-then-predict reference.
#[test]
fn gbt_batched_predictions_match_scalar_bits() {
    let mut data = gbt::Dataset::new(features::NUM_FEATURES);
    let mut rows_f64: Vec<Vec<f64>> = Vec::new();
    for (i, design) in benchgen::iwls_like_suite().iter().enumerate() {
        let mut g = design.aig.clone();
        for (j, recipe) in recipes().iter().take(3).enumerate() {
            let fv = extract(&g);
            data.push_row_f64(fv.as_slice(), 50.0 + 13.7 * i as f64 + 3.1 * j as f64);
            rows_f64.push(fv.as_slice().to_vec());
            g = recipe.apply(&g);
        }
    }
    let model = gbt::train(
        &data,
        &GbtParams {
            num_rounds: 30,
            seed: 7,
            ..GbtParams::default()
        },
    );
    let forest = Forest::flatten(&model);
    let batched = model.predict_all(&data);
    let mut into = vec![0.0f64; data.len()];
    forest.predict_into(data.features(), &mut into);
    assert_eq!(batched.len(), data.len());
    for i in 0..data.len() {
        let scalar = model.predict(data.row(i));
        assert_eq!(
            batched[i].to_bits(),
            scalar.to_bits(),
            "row {i}: predict_all"
        );
        assert_eq!(into[i].to_bits(), scalar.to_bits(), "row {i}: predict_into");
        let f64_path = model.predict_f64(&rows_f64[i]);
        let converted: Vec<f32> = rows_f64[i].iter().map(|&v| v as f32).collect();
        assert_eq!(
            f64_path.to_bits(),
            model.predict(&converted).to_bits(),
            "row {i}: f64 path must equal convert-then-predict"
        );
        assert_eq!(
            forest.predict_row_f64(&rows_f64[i]).to_bits(),
            f64_path.to_bits(),
            "row {i}: flattened f64 path"
        );
    }
}

/// Batched GNN inference over real design graphs: `predict_batch`
/// (graph-parallel, scratch-reusing) and `predict_with` must match
/// the scalar `predict` bit for bit — for any worker count, since the
/// per-node arithmetic order is unchanged.
#[test]
fn gnn_batched_predictions_match_scalar_bits() {
    let designs = benchgen::iwls_like_suite();
    let train: Vec<(GraphData, f64)> = designs
        .iter()
        .take(3)
        .enumerate()
        .map(|(i, d)| (GraphData::from_aig(&d.aig), 80.0 + 21.3 * i as f64))
        .collect();
    let (model, _losses) = GnnModel::train(
        &train,
        &GnnParams {
            seed: 3,
            epochs: 4,
            ..GnnParams::default()
        },
    );
    let graphs: Vec<GraphData> = designs
        .iter()
        .map(|d| GraphData::from_aig(&d.aig))
        .collect();
    let batch = model.predict_batch(&graphs);
    assert_eq!(batch.len(), graphs.len());
    let mut scratch = GnnScratch::default();
    for (i, gd) in graphs.iter().enumerate() {
        let scalar = model.predict(gd);
        assert_eq!(batch[i].to_bits(), scalar.to_bits(), "graph {i}: batch");
        assert_eq!(
            model.predict_with(gd, &mut scratch).to_bits(),
            scalar.to_bits(),
            "graph {i}: warm scratch"
        );
    }
}

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

/// ML-guided SA through the incremental feature path: the transaction
/// engine on vs off (full `extract` oracle per candidate) must produce
/// byte-identical `SaResult`s — and both must be independent of
/// `AIG_THREADS`.
#[test]
fn ml_guided_sa_engine_and_threads_byte_identical() {
    let _guard = EnvGuard(std::env::var("AIG_THREADS").ok());
    let g = random_aig_with(43, 9, 140, 4);
    // Train small delay/area models on recipe variants of the graph
    // itself, labeled with the proxy truths — enough signal for SA to
    // accept and reject a realistic mix of moves.
    let mut delay_data = gbt::Dataset::new(features::NUM_FEATURES);
    let mut area_data = gbt::Dataset::new(features::NUM_FEATURES);
    let mut variant = g.clone();
    for recipe in recipes().iter().cycle().take(16) {
        let fv = extract(&variant);
        let delay = f64::from(aig::analysis::levels(&variant).max_level).max(1.0) * 35.0;
        let area = (variant.num_ands() as f64).max(1.0) * 1.6;
        delay_data.push_row_f64(fv.as_slice(), delay);
        area_data.push_row_f64(fv.as_slice(), area);
        variant = recipe.apply(&variant);
    }
    let params = GbtParams {
        num_rounds: 25,
        seed: 17,
        ..GbtParams::default()
    };
    let delay_model = gbt::train(&delay_data, &params);
    let area_model = gbt::train(&area_data, &params);

    let actions = vec![
        Recipe(vec![Transform::Rewrite]),
        Recipe(vec![Transform::RewriteZero]),
        Recipe(vec![Transform::Refactor]),
        Recipe(vec![Transform::RefactorZero]),
        Recipe(vec![Transform::Balance]),
        Recipe(vec![Transform::Resub]),
        Recipe(vec![Transform::Sweep]),
    ];
    let opts = SaOptions {
        iterations: 30,
        seed: 11,
        ..SaOptions::default()
    };
    let mut per_thread_results = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("AIG_THREADS", threads);
        let on = optimize_with(
            &g,
            &mut MlCost::new(&delay_model, &area_model),
            &actions,
            &opts,
            &mut EvalContext::new(),
        );
        let mut off_ctx = EvalContext::new();
        off_ctx.set_inplace_transactions(false);
        let off = optimize_with(
            &g,
            &mut MlCost::new(&delay_model, &area_model),
            &actions,
            &opts,
            &mut off_ctx,
        );
        assert_eq!(
            to_ascii(&on.best),
            to_ascii(&off.best),
            "{threads} threads: best AIG must not depend on the engine"
        );
        assert_eq!(on.history, off.history, "{threads} threads");
        assert_eq!(on.evaluated, off.evaluated, "{threads} threads");
        assert_eq!(on.accepted, off.accepted, "{threads} threads");
        per_thread_results.push(on);
    }
    let (a, b) = (&per_thread_results[0], &per_thread_results[1]);
    assert_eq!(
        to_ascii(&a.best),
        to_ascii(&b.best),
        "results must be independent of AIG_THREADS"
    );
    assert_eq!(a.history, b.history);
    assert_eq!(a.evaluated, b.evaluated);
}
