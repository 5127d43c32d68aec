//! Differential tests for the incremental analysis state: seeded
//! random recipe walks and edit scripts asserting that
//! [`aig::incremental::IncrementalAnalysis`] stays bit-identical to
//! the full-recompute oracle (`aig::analysis::{levels,
//! fanout_counts}`) after every single step — on random graphs and on
//! every `benchgen` design.

use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::{Aig, Lit, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transform::recipes;

mod common;
use common::random_aig_with;

/// One random in-place edit, each through a committed [`Transaction`]:
/// append a few ANDs, retarget an output, substitute a node by an
/// earlier literal, or splice a freshly appended replacement cone
/// (half of those transactions roll back exactly).
fn random_inplace_edit(g: &mut Aig, inc: &mut IncrementalAnalysis, rng: &mut SmallRng) {
    match rng.gen_range(0..4) {
        0 => {
            let n = g.num_nodes() as NodeId;
            let mut txn = Transaction::begin(g, inc);
            for _ in 0..rng.gen_range(1..5) {
                let a = Lit::new(rng.gen_range(0..n), rng.gen());
                let b = Lit::new(rng.gen_range(0..n), rng.gen());
                txn.and(a, b);
            }
            txn.commit();
        }
        1 if g.num_outputs() > 0 => {
            let idx = rng.gen_range(0..g.num_outputs());
            let l = Lit::new(rng.gen_range(0..g.num_nodes() as NodeId), rng.gen());
            let mut txn = Transaction::begin(g, inc);
            txn.retarget_output(idx, l);
            txn.commit();
        }
        2 => {
            let ands: Vec<NodeId> = g.and_ids().collect();
            if ands.is_empty() {
                return;
            }
            let node = ands[rng.gen_range(0..ands.len())];
            let with = Lit::new(rng.gen_range(0..node), rng.gen());
            // `with < node` no longer implies acyclic once committed
            // forward references exist — check reachability exactly
            // like the transforms' cycle guard does.
            if g.reaches(with.var(), node) {
                return;
            }
            let mut txn = Transaction::begin(g, inc);
            txn.substitute(node, with);
            txn.commit();
        }
        _ => {
            // Fresh replacement cone: append strashed nodes above the
            // high-water mark inside a transaction, splice them into
            // an earlier node by substitution (a committed forward
            // reference), and roll half of the transactions back.
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
            if rng.gen() {
                txn.commit();
            } else {
                txn.rollback();
            }
        }
    }
}

/// Random recipe walks interleaved with in-place edits: after every
/// step — whether the graph was replaced wholesale by a recipe
/// (absorbed via `rebuild`) or edited in place through a transaction
/// — the incremental state must equal the oracle exactly.
#[test]
fn recipe_walks_with_edits_match_oracle_on_random_graphs() {
    let actions = recipes();
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(0xD1FF ^ seed);
        let mut g = random_aig_with(seed, 8, 120, 4);
        let mut inc = IncrementalAnalysis::new(&g);
        inc.assert_matches_oracle(&g);
        for step in 0..24 {
            if rng.gen::<f64>() < 0.4 {
                let recipe = &actions[rng.gen_range(0..actions.len())];
                g = recipe.apply(&g);
                inc.rebuild(&g);
            } else {
                random_inplace_edit(&mut g, &mut inc, &mut rng);
            }
            inc.assert_matches_oracle(&g);
            let _ = step;
        }
    }
}

/// Every `benchgen` design: a scripted edit sequence (substitutions
/// spread across the graph, output retargets, appended nodes, and one
/// recipe step) with oracle checks after each step.
#[test]
fn benchgen_designs_match_oracle_through_edits() {
    let actions = recipes();
    for design in benchgen::iwls_like_suite() {
        let mut rng = SmallRng::seed_from_u64(0xBE9C ^ design.aig.num_nodes() as u64);
        let mut g = design.aig.clone();
        let mut inc = IncrementalAnalysis::new(&g);
        inc.assert_matches_oracle(&g);
        for _ in 0..8 {
            random_inplace_edit(&mut g, &mut inc, &mut rng);
            inc.assert_matches_oracle(&g);
        }
        // One recipe step (wholesale replacement) per design: rebuild
        // absorbs it and the state matches the oracle again.
        let recipe = &actions[rng.gen_range(0..actions.len())];
        g = recipe.apply(&g);
        inc.rebuild(&g);
        inc.assert_matches_oracle(&g);
    }
}

/// Substituting a node by a functionally equivalent literal must
/// preserve the graph's function end to end (sweep + equivalence),
/// not just the analyses.
#[test]
fn equivalent_substitution_preserves_function() {
    // Build redundant logic with a known-equivalent pair:
    // f = (a & b) | (a & !b) == a, consumed downstream.
    let mut g = Aig::new();
    let a = g.add_input();
    let b = g.add_input();
    let c = g.add_input();
    let t0 = g.and(a, b);
    let t1 = g.and(a, !b);
    let f = g.or(t0, t1); // == a
    let top = g.xor(f, c);
    g.add_output(top, Some("y"));
    let before = g.clone();

    let mut inc = IncrementalAnalysis::new(&g);
    let mut txn = Transaction::begin(&mut g, &mut inc);
    let dirty = txn.substitute(f.var(), a.complement_if(f.is_complement()));
    assert!(!dirty.is_empty());
    txn.commit();
    inc.assert_matches_oracle(&g);
    assert!(aig::sim::equiv_exhaustive(&before, &g).expect("tiny"));

    // The swept graph drops the now-dangling redundant cone.
    let swept = g.sweep();
    assert!(swept.num_ands() < before.num_live_ands());
    assert!(aig::sim::equiv_exhaustive(&before, &swept).expect("tiny"));
}

/// The dirty region of a single-step substitution must stay local:
/// bounded by the transitive fanout, not the graph.
#[test]
fn dirty_region_is_local_on_large_designs() {
    let design = benchgen::ex28();
    let mut g = design.aig.clone();
    let ands: Vec<NodeId> = g.and_ids().collect();
    let mut inc = IncrementalAnalysis::new(&g);
    // A node three quarters into the graph: its transitive fanout is
    // a fraction of the whole design.
    let node = ands[ands.len() * 3 / 4];
    let with = Lit::new(g.inputs()[0], false);
    let mut txn = Transaction::begin(&mut g, &mut inc);
    let dirty = txn.substitute(node, with).len();
    txn.commit();
    inc.assert_matches_oracle(&g);
    assert!(
        dirty * 4 < ands.len(),
        "dirty region {dirty} should be well under the {} AND nodes",
        ands.len()
    );
}
