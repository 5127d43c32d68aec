//! Large-tier coverage: the `benchgen::large_*` scale designs run
//! through the same structural, differential, and serialization
//! guarantees the paper-sized suite enjoys.
//!
//! Always-on tests stay on `large_10k` (plus one 100k serialization
//! round-trip, which is pure I/O); the full-size differential runs
//! ride behind `#[ignore]` — `cargo test -- --ignored` — so the tier-1
//! wall clock stays bounded while the deep runs remain one flag away.

use aig::aiger;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::{Aig, Lit, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use saopt::{optimize_with, EvalContext, ProxyCost, SaOptions};
use transform::{Recipe, Transform};

/// Structural invariants every large-tier build must hold: the graph
/// arrives topological, every AND is registered in the structural
/// hash under its own fanin pair, and no sampled node can reach
/// itself through its fanin cone.
fn assert_well_formed(g: &Aig) {
    assert!(g.is_topological(), "fresh build must be topological");
    for id in g.and_ids() {
        let [f0, f1] = g.fanins(id);
        assert_eq!(
            g.find_and(f0, f1),
            Some(Lit::new(id, false)),
            "AND {id} must be strash-consistent"
        );
    }
    // Acyclicity by traversal (spot-checked: `reaches` walks the full
    // fanin cone, so a graph-wide pass would be quadratic).
    let ands: Vec<NodeId> = g.and_ids().collect();
    let stride = (ands.len() / 64).max(1);
    for &id in ands.iter().step_by(stride) {
        let [f0, f1] = g.fanins(id);
        assert!(
            !g.reaches(f0.var(), id) && !g.reaches(f1.var(), id),
            "AND {id} reachable from its own fanins"
        );
    }
}

#[test]
fn large_10k_is_strash_consistent_and_acyclic() {
    assert_well_formed(&benchgen::large_10k().aig);
}

/// One random in-place edit, mirroring the differential suite's move
/// vocabulary: append ANDs, retarget an output, substitute by an
/// earlier literal, or splice a fresh transaction cone (half of the
/// transactions roll back).
fn random_inplace_edit(g: &mut Aig, inc: &mut IncrementalAnalysis, rng: &mut SmallRng) {
    match rng.gen_range(0..4) {
        0 => {
            let n = g.num_nodes() as NodeId;
            for _ in 0..rng.gen_range(1..5) {
                let a = Lit::new(rng.gen_range(0..n), rng.gen());
                let b = Lit::new(rng.gen_range(0..n), rng.gen());
                g.and(a, b);
            }
            inc.sync(g);
        }
        1 if g.num_outputs() > 0 => {
            let idx = rng.gen_range(0..g.num_outputs());
            let l = Lit::new(rng.gen_range(0..g.num_nodes() as NodeId), rng.gen());
            g.set_output(idx, l);
            inc.sync(g);
        }
        2 => {
            let ands: Vec<NodeId> = g.and_ids().collect();
            let node = ands[rng.gen_range(0..ands.len())];
            let with = Lit::new(rng.gen_range(0..node), rng.gen());
            if g.reaches(with.var(), node) {
                return;
            }
            inc.substitute(g, node, with);
        }
        _ => {
            let mut txn = Transaction::begin(g, inc);
            let n = txn.aig().num_nodes() as NodeId;
            let ands: Vec<NodeId> = txn.aig().and_ids().collect();
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

/// Seeded edit walk over a large-tier design with the incremental
/// state checked against the full-recompute level/fanout oracle after
/// every step — the tier's tiles must not hide any analysis drift the
/// paper-sized designs would have caught.
fn edit_walk_matches_oracle(mut g: Aig, steps: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut inc = IncrementalAnalysis::new(&g);
    inc.assert_matches_oracle(&g);
    for _ in 0..steps {
        random_inplace_edit(&mut g, &mut inc, &mut rng);
        inc.assert_matches_oracle(&g);
    }
    // The walk's committed forward references and dangling cones must
    // still sweep into a topological graph.
    assert!(g.sweep().is_topological());
}

#[test]
fn large_10k_levels_stable_under_random_edit_walks() {
    edit_walk_matches_oracle(benchgen::large_10k().aig, 12, 0x1A26E);
}

/// Serialization round-trips on the 100k-node design: binary AIGER
/// must survive a write/read/write cycle byte for byte, and the BLIF
/// printer must be a fixed point of its own parser.
#[test]
fn large_100k_round_trips_through_aiger_and_blif() {
    let d = benchgen::large_100k();
    let bin = aiger::to_binary(&d.aig);
    let back = aiger::from_binary(&bin).expect("own binary output must parse");
    assert_eq!(aiger::to_binary(&back), bin, "binary AIGER round trip");
    // (`to_binary` renumbers into the format's contiguous order, so
    // the ascii check is a fixed point on the reparsed graph, not a
    // comparison against the generator's numbering.)
    let txt = aiger::to_ascii(&back);
    let back2 = aiger::from_ascii(&txt).expect("own ascii output must parse");
    assert_eq!(aiger::to_ascii(&back2), txt, "ascii AIGER round trip");

    let blif = aig::blif::to_blif(&d.aig, "large100k");
    let back = aig::blif::from_blif(&blif).expect("own BLIF output must parse");
    assert_eq!(back.num_inputs(), d.aig.num_inputs());
    assert_eq!(back.num_outputs(), d.aig.num_outputs());
    assert_eq!(
        aig::blif::to_blif(&back, "large100k"),
        blif,
        "BLIF round trip"
    );
}

fn inplace_actions() -> Vec<Recipe> {
    vec![
        Recipe(vec![Transform::Rewrite]),
        Recipe(vec![Transform::RewriteZero]),
        Recipe(vec![Transform::Refactor]),
        Recipe(vec![Transform::RefactorZero]),
        Recipe(vec![Transform::Balance]),
        Recipe(vec![Transform::Resub]),
        Recipe(vec![Transform::Sweep]),
        Recipe(vec![Transform::Resub, Transform::Rewrite]),
    ]
}

/// Trimmed always-on byte-identity smoke on `large_10k`: one short SA
/// run under the default context is the baseline, and the engine-off
/// run must reproduce it exactly — best AIG, history, and
/// per-candidate counters.
#[test]
fn large_10k_engine_byte_identical_smoke() {
    let g = benchgen::large_10k().aig;
    let actions = inplace_actions();
    let opts = SaOptions {
        iterations: 6,
        seed: 5,
        ..SaOptions::default()
    };
    let base = optimize_with(&g, &mut ProxyCost, &actions, &opts, &mut EvalContext::new());

    let mut off_ctx = EvalContext::new();
    off_ctx.set_inplace_transactions(false);
    let off = optimize_with(&g, &mut ProxyCost, &actions, &opts, &mut off_ctx);
    assert_eq!(
        aiger::to_ascii(&base.best),
        aiger::to_ascii(&off.best),
        "best AIG must not depend on the transaction engine"
    );
    assert_eq!(base.history, off.history);
    assert_eq!(base.evaluated, off.evaluated);
    assert_eq!(base.accepted, off.accepted);
}

/// Full-size differential run, `#[ignore]`-by-default: the 100k
/// design through a longer oracle-checked edit walk and the proxy
/// byte-identity contract, plus the ground-truth evaluator (engine
/// on/off exercises incremental mapping through the cut database) on
/// the 10k design. Run with `cargo test -- --ignored`.
#[test]
#[ignore = "full large-tier differential run; minutes on a laptop"]
fn large_100k_full_differential() {
    let d = benchgen::large_100k();
    assert_well_formed(&d.aig);
    edit_walk_matches_oracle(d.aig.clone(), 16, 0x1A100E);

    let actions = inplace_actions();
    let opts = SaOptions {
        iterations: 10,
        seed: 9,
        ..SaOptions::default()
    };
    let mut off_ctx = EvalContext::new();
    off_ctx.set_inplace_transactions(false);
    let on = optimize_with(
        &d.aig,
        &mut ProxyCost,
        &actions,
        &opts,
        &mut EvalContext::new(),
    );
    let off = optimize_with(&d.aig, &mut ProxyCost, &actions, &opts, &mut off_ctx);
    assert_eq!(aiger::to_ascii(&on.best), aiger::to_ascii(&off.best));
    assert_eq!(on.history, off.history);
    assert_eq!(on.evaluated, off.evaluated);
    assert_eq!(on.accepted, off.accepted);

    let g = benchgen::large_10k().aig;
    let lib = cells::sky130ish();
    let opts = SaOptions {
        iterations: 4,
        seed: 9,
        ..SaOptions::default()
    };
    let mut off_ctx = EvalContext::new();
    off_ctx.set_inplace_transactions(false);
    let on = optimize_with(
        &g,
        &mut saopt::GroundTruthCost::new(&lib),
        &actions,
        &opts,
        &mut EvalContext::new(),
    );
    let off = optimize_with(
        &g,
        &mut saopt::GroundTruthCost::new(&lib),
        &actions,
        &opts,
        &mut off_ctx,
    );
    assert_eq!(
        aiger::to_ascii(&on.best),
        aiger::to_ascii(&off.best),
        "ground truth"
    );
    assert_eq!(on.history, off.history);
    assert_eq!(on.evaluated, off.evaluated);
}
