//! Differential suite for the incremental cut database: after any
//! random edit walk — node appends, output retargets, substitutions,
//! committed and rolled-back transactions, interleaved with wholesale
//! recipe applications — [`aig::cut::CutDb`] must equal a fresh
//! [`aig::cut::enumerate_cuts`] of the final graph bit for bit, on
//! random graphs and on every `benchgen` design.

use aig::cut::CutDb;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::{Aig, Lit, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transform::recipes;

mod common;
use common::random_aig_with;

/// One speculative transaction of 1..4 random edits against
/// `(g, inc, db)`; commits or rolls back both the graph and the
/// database according to `commit`.
fn random_transaction(
    g: &mut Aig,
    inc: &mut IncrementalAnalysis,
    db: &mut CutDb,
    rng: &mut SmallRng,
    commit: bool,
) {
    db.begin_edit();
    let mut txn = Transaction::begin(g, inc);
    for _ in 0..rng.gen_range(1..4) {
        match rng.gen_range(0..4) {
            0 => {
                let n = txn.aig().num_nodes() as NodeId;
                let a = Lit::new(rng.gen_range(0..n), rng.gen());
                let b = Lit::new(rng.gen_range(0..n), rng.gen());
                let lit = txn.and(a, b);
                // Appends reach the database through sync_appends.
                db.sync_appends(txn.aig());
                let _ = lit;
            }
            1 if txn.aig().num_outputs() > 0 => {
                let idx = rng.gen_range(0..txn.aig().num_outputs());
                let n = txn.aig().num_nodes() as NodeId;
                txn.retarget_output(idx, Lit::new(rng.gen_range(0..n), rng.gen()));
                // Output retargets do not touch any cut list.
            }
            2 => {
                // Fresh replacement cone spliced into an earlier node
                // — the transforms' append protocol: build the cone,
                // sync the appended rows, substitute under the cycle
                // guard, invalidate the dirty region.
                let n = txn.aig().num_nodes() as NodeId;
                let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                if ands.is_empty() {
                    continue;
                }
                let node = ands[rng.gen_range(0..ands.len())];
                let mut root = Lit::new(rng.gen_range(0..n), rng.gen());
                for _ in 0..rng.gen_range(1..4) {
                    let b = Lit::new(rng.gen_range(0..n), rng.gen());
                    root = txn.and(root, b);
                }
                db.sync_appends(txn.aig());
                if root.var() != node && !txn.aig().reaches(root.var(), node) {
                    txn.substitute(node, root);
                    db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
                }
            }
            _ => {
                let ands: Vec<NodeId> = txn.aig().and_ids().collect();
                if ands.is_empty() {
                    continue;
                }
                let node = ands[rng.gen_range(0..ands.len())];
                let with = Lit::new(rng.gen_range(0..node), rng.gen());
                // `with < node` no longer implies acyclic once
                // committed forward references exist.
                if txn.aig().reaches(with.var(), node) {
                    continue;
                }
                txn.substitute(node, with);
                db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
            }
        }
    }
    if commit {
        txn.commit();
        db.commit_edit();
    } else {
        txn.rollback();
        db.rollback_edit();
    }
}

/// Random graphs, random edit walks with rollbacks: the database
/// equals fresh enumeration after every transaction.
#[test]
fn random_edit_walks_match_fresh_enumeration() {
    for seed in 0..6u64 {
        for (k, max_cuts) in [(4usize, 8usize), (6, 5)] {
            let mut rng = SmallRng::seed_from_u64(0xD1FFC ^ seed);
            let mut g = random_aig_with(seed, 8, 100, 4);
            let mut inc = IncrementalAnalysis::new(&g);
            let mut db = CutDb::new(k, max_cuts);
            db.build(&g);
            for _ in 0..12 {
                let commit = rng.gen::<bool>();
                random_transaction(&mut g, &mut inc, &mut db, &mut rng, commit);
                inc.assert_matches_oracle(&g);
                db.assert_matches_fresh(&g);
            }
        }
    }
}

/// Recipe walks interleaved with in-place transactions: wholesale
/// graph replacements are absorbed by `build`, edits incrementally —
/// the database equals fresh enumeration after every step.
#[test]
fn recipe_walks_with_edits_match_fresh_enumeration() {
    let actions = recipes();
    for seed in 0..4u64 {
        let mut rng = SmallRng::seed_from_u64(0xCDB0 ^ seed);
        let mut g = random_aig_with(seed + 50, 7, 90, 3);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        for _ in 0..10 {
            if rng.gen::<f64>() < 0.35 {
                let recipe = &actions[rng.gen_range(0..actions.len())];
                g = recipe.apply(&g);
                inc.rebuild(&g);
                db.build(&g);
            } else {
                let commit = rng.gen::<bool>();
                random_transaction(&mut g, &mut inc, &mut db, &mut rng, commit);
            }
            db.assert_matches_fresh(&g);
        }
    }
}

/// Every `benchgen` design: a scripted edit sequence (substitutions
/// spread across the graph, an output retarget, appends, one
/// rollback) keeps the database exact at realistic design sizes.
#[test]
fn benchgen_designs_match_fresh_enumeration_through_edits() {
    for design in benchgen::iwls_like_suite() {
        let mut rng = SmallRng::seed_from_u64(0xBE9C ^ design.aig.num_nodes() as u64);
        let mut g = design.aig.clone();
        let mut inc = IncrementalAnalysis::new(&g);
        let mut db = CutDb::new(4, 8);
        db.build(&g);
        for step in 0..6 {
            let commit = step % 3 != 2; // every third transaction rolls back
            random_transaction(&mut g, &mut inc, &mut db, &mut rng, commit);
            db.assert_matches_fresh(&g);
        }
        inc.assert_matches_oracle(&g);
    }
}

/// The equality cutoff keeps single-substitution invalidation local
/// on a large design: far fewer lists are recomputed than exist.
#[test]
fn invalidation_is_local_on_large_designs() {
    let design = benchgen::ex28();
    let mut g = design.aig.clone();
    let ands: Vec<NodeId> = g.and_ids().collect();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let node = ands[ands.len() * 3 / 4];
    let with = Lit::new(g.inputs()[0], false);
    let mut txn = Transaction::begin(&mut g, &mut inc);
    let dirty_len = txn.substitute(node, with).edited().len();
    assert!(dirty_len > 0, "the node has consumers");
    db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
    txn.commit();
    db.assert_matches_fresh(&g);
}
