//! Golden outputs of the per-cut kernels.
//!
//! Every other byte-identity suite compares two paths of one build
//! (memo on/off, engine on/off, cache on/off, traced vs production),
//! so a kernel change that alters what `rw` produces passes them all.
//! This suite pins the outputs themselves: FNV-1a-64 digests of the
//! binary AIGER each primitive, each in-place window pass,
//! `datagen::degrade` and a few recipes produce on `ex11`, the bit
//! patterns of `GroundTruthCost::evaluate` on two graphs, and the
//! outcome of a short paper-recipe ground-truth SA chain. A digest
//! changes only when an output does; an intended output change
//! updates the constants here and says why.

use aig::aiger::to_binary;
use aig::cut::CutDb;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::Aig;
use saopt::{optimize_with, CostEvaluator, EvalContext, GroundTruthCost, SaOptions};
use transform::{apply, recipes, Recipe, ResynthCache, Transform};

mod common;
use common::random_aig_with;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(g: &Aig) -> u64 {
    fnv1a64(&to_binary(g))
}

/// Compares every `(name, actual)` pair with its expected value and
/// reports all mismatches at once, in the table's own format.
fn check(table: &[(&str, u64)], actual: &[(String, u64)]) {
    check_with(table, actual, |v| format!("{v:#018x}"));
}

/// [`check`] for any value type, written back by `show`.
fn check_with<V: PartialEq>(
    table: &[(&str, V)],
    actual: &[(String, V)],
    show: impl Fn(&V) -> String,
) {
    assert_eq!(
        table.len(),
        actual.len(),
        "table and outputs differ in length"
    );
    let mut bad = Vec::new();
    for ((name, want), (got_name, got)) in table.iter().zip(actual) {
        assert_eq!(name, got_name, "table order");
        if want != got {
            bad.push(format!(
                "(\"{name}\", {}), // was {}",
                show(got),
                show(want)
            ));
        }
    }
    assert!(bad.is_empty(), "golden outputs moved:\n{}", bad.join("\n"));
}

fn ex11() -> Aig {
    benchgen::ex11().aig
}

const PRIMITIVES: [(&str, u64); 30] = [
    ("b", 0x77b36aa781f8a082),
    ("rw", 0xe8d6e1e8c9a0745a),
    ("rwz", 0xe8d6e1e8c9a0745a),
    ("rf", 0xe8d6e1e8c9a0745a),
    ("rfz", 0xe8d6e1e8c9a0745a),
    ("sw", 0xe8d6e1e8c9a0745a),
    ("bd", 0xb17b9c234326dd8b),
    ("rs", 0xb64c9dcc43126dca),
    ("pt", 0xa853fe71e1757b28),
    ("rsb", 0xe8d6e1e8c9a0745a),
    ("degraded b", 0x8050265fc682acd3),
    ("degraded rw", 0x8d0dd657344c954b),
    ("degraded rwz", 0x5e29bd778a89b6f9),
    ("degraded rf", 0x0af9995adadf85e4),
    ("degraded rfz", 0x31f0f204a9a3fb0c),
    ("degraded sw", 0xa198ceffa9ab9ca1),
    ("degraded bd", 0xb5cf2bdee8dc50e2),
    ("degraded rs", 0x0f8f9ff0f94ce1da),
    ("degraded pt", 0xdedf93e2d15f1343),
    ("degraded rsb", 0xa198ceffa9ab9ca1),
    ("random b", 0xe7054592151b496f),
    ("random rw", 0xc1a7ecbe6ccf326d),
    ("random rwz", 0xfce43636cb548709),
    ("random rf", 0xa228dfe186b90fd3),
    ("random rfz", 0xa228dfe186b90fd3),
    ("random sw", 0x0eac12165048bc9d),
    ("random bd", 0x61dac51d13a37618),
    ("random rs", 0x8c604c7cb4bf3e41),
    ("random pt", 0xf6ac221b42d4a7cc),
    ("random rsb", 0x26176127b38cc6ac),
];

/// Each of the ten primitives applied to `ex11`, to its degraded
/// variant and to a random graph. `ex11` is near-optimal, so several
/// primitives leave it unchanged; the degraded graph gives the
/// resynthesis kernels work, and the random graph's reconvergent
/// redundancy gives `rsb` some.
#[test]
fn primitives_on_ex11() {
    let g = ex11();
    let degraded = experiments::datagen::degrade(&g, 1);
    let random = random_aig_with(2024, 12, 600, 8);
    let mut actual = Vec::new();
    for (prefix, graph) in [("", &g), ("degraded ", &degraded), ("random ", &random)] {
        for t in Transform::ALL {
            let name = format!("{prefix}{}", t.mnemonic());
            actual.push((name, digest(&apply(graph, t))));
        }
    }
    check(&PRIMITIVES, &actual);
}

/// Digest of the committed, unswept graph and the
/// `(substitutions, appended_nodes, skipped_nontopo)` counters.
type InplaceOutput = (u64, [usize; 3]);

const INPLACE: [(&str, InplaceOutput); 24] = [
    ("degraded b @1", (0x5aad9ad91369f188, [3, 1, 0])),
    ("degraded b @1500", (0x7f13eeb16c1cfae8, [5, 7, 0])),
    ("degraded rw @1", (0x20329def4433143b, [2, 0, 0])),
    ("degraded rw @1500", (0xb7646f6080f0652c, [3, 0, 0])),
    ("degraded rwz @1", (0x3e59f1079fd75bca, [12, 0, 0])),
    ("degraded rwz @1500", (0x919e2b8c0ed2bce2, [15, 0, 0])),
    ("degraded rf @1", (0xba42131cf0e44c9f, [12, 15, 0])),
    ("degraded rf @1500", (0xe8a937b4da43d63c, [8, 11, 0])),
    ("degraded rfz @1", (0xf1ed3992215c7ceb, [41, 32, 0])),
    ("degraded rfz @1500", (0x896aca5f15cc6b6e, [32, 32, 0])),
    ("degraded rsb @1", (0xa198ceffa9ab9ca1, [0, 0, 0])),
    ("degraded rsb @1500", (0xa198ceffa9ab9ca1, [0, 0, 0])),
    ("random b @1", (0x929051b25fa6a853, [0, 0, 0])),
    ("random b @300", (0x5bc6bea69db5b46e, [2, 4, 0])),
    ("random rw @1", (0x438a91d2543f41de, [26, 0, 0])),
    ("random rw @300", (0x6280ab956507a57d, [4, 0, 0])),
    ("random rwz @1", (0x438a91d2543f41de, [26, 0, 0])),
    ("random rwz @300", (0x6280ab956507a57d, [4, 0, 0])),
    ("random rf @1", (0x55eef0016dfe2102, [53, 32, 0])),
    ("random rf @300", (0xe369c1455101c81d, [18, 32, 0])),
    ("random rfz @1", (0xfe003e67f2a90c95, [59, 32, 0])),
    ("random rfz @300", (0x439034b34e11bde9, [21, 32, 0])),
    ("random rsb @1", (0x438a91d2543f41de, [26, 0, 0])),
    ("random rsb @300", (0x6280ab956507a57d, [4, 0, 0])),
];

/// Every in-place plan [`Recipe::as_inplace`] returns, run as the SA
/// engine runs it: one [`transform::InplacePlan::run`] window through
/// a [`Transaction`] over a (4, 8) [`CutDb`], at two fixed starts on
/// the degraded `ex11` and on the random graph.
#[test]
fn inplace_passes_on_ex11() {
    let degraded = experiments::datagen::degrade(&ex11(), 1);
    let random = random_aig_with(2024, 12, 600, 8);
    let cache = ResynthCache::new();
    let mut actual = Vec::new();
    for (prefix, graph, starts) in [
        ("degraded", &degraded, [1, 1500]),
        ("random", &random, [1, 300]),
    ] {
        for t in Transform::ALL {
            let Some(plan) = Recipe(vec![t]).as_inplace() else {
                continue;
            };
            for start in starts {
                let mut g = graph.clone();
                let mut inc = IncrementalAnalysis::new(&g);
                let mut db = CutDb::new(4, 8);
                db.build(&g);
                let mut txn = Transaction::begin(&mut g, &mut inc);
                let stats = plan.run(&mut txn, &mut db, &cache, start);
                txn.commit();
                let counters = [
                    stats.substitutions,
                    stats.appended_nodes,
                    stats.skipped_nontopo,
                ];
                actual.push((format!("{prefix} {t} @{start}"), (digest(&g), counters)));
            }
        }
    }
    check_with(&INPLACE, &actual, |(d, s)| format!("({d:#018x}, {s:?})"));
    for t in ["rw", "rwz", "rf", "rfz", "b", "rsb"] {
        assert!(
            INPLACE
                .iter()
                .any(|(name, (_, [subs, ..]))| name.split(' ').nth(1) == Some(t) && *subs > 0),
            "no `{t}` window fired"
        );
    }
}

const RECIPES: [(&str, u64); 4] = [
    ("degrade(ex11, 1)", 0xa198ceffa9ab9ca1),
    ("b;rw;rf;rwz;b", 0xec63aa2c6ae3833a),
    ("rsb;rfz;pt;rw", 0x2b17e5e0f004071c),
    ("rs;bd;rwz;rsb;rf", 0x8b6bf2909e16ee74),
];

/// `datagen::degrade`, which runs the resynthesis kernel with
/// perturbation, and three multi-step recipes on its output.
#[test]
fn degrade_and_recipes_on_ex11() {
    let degraded = experiments::datagen::degrade(&ex11(), 1);
    let mut actual = vec![(RECIPES[0].0.to_owned(), digest(&degraded))];
    for &(script, _) in &RECIPES[1..] {
        let recipe: Recipe = script.parse().expect("recipe parses");
        actual.push((script.to_owned(), digest(&recipe.apply(&degraded))));
    }
    check(&RECIPES, &actual);
}

const GROUND_TRUTH: [(&str, u64); 4] = [
    ("ex11 delay", 0x40c2c49c28f5c290),
    ("ex11 area", 0x40b54d999999999a),
    ("degraded delay", 0x40d0d4e333333333),
    ("degraded area", 0x40ce08cccccccccd),
];

/// `GroundTruthCost::evaluate` (mapping, sizing, STA) on `ex11` and
/// on its degraded variant, bit for bit.
#[test]
fn ground_truth_metrics() {
    let lib = cells::sky130ish();
    let g = ex11();
    let degraded = experiments::datagen::degrade(&g, 1);
    let mut actual = Vec::new();
    for (name, graph) in [("ex11", &g), ("degraded", &degraded)] {
        let m = GroundTruthCost::new(&lib).evaluate(graph);
        actual.push((format!("{name} delay"), m.delay.to_bits()));
        actual.push((format!("{name} area"), m.area.to_bits()));
    }
    check(&GROUND_TRUTH, &actual);
}

const CHAIN: [(&str, u64); 5] = [
    ("best delay", 0x40cabfe8f5c28f5d),
    ("best area", 0x40c2abc000000000),
    ("best cost", 0x3fe7c4795aff3d1e),
    ("accepted", 0x000000000000001c),
    ("best graph", 0x2e497386e4a2adf3),
];

/// A 40-step ground-truth SA chain over the paper's 103 recipes,
/// starting from the degraded `ex11`.
#[test]
fn paper_recipe_ground_truth_chain() {
    let lib = cells::sky130ish();
    let degraded = experiments::datagen::degrade(&ex11(), 1);
    let opts = SaOptions {
        iterations: 40,
        seed: 7,
        ..SaOptions::default()
    };
    let r = optimize_with(
        &degraded,
        &mut GroundTruthCost::new(&lib),
        &recipes(),
        &opts,
        &mut EvalContext::new(),
    );
    let actual = vec![
        ("best delay".to_owned(), r.best_metrics.delay.to_bits()),
        ("best area".to_owned(), r.best_metrics.area.to_bits()),
        ("best cost".to_owned(), r.best_cost.to_bits()),
        ("accepted".to_owned(), r.accepted as u64),
        ("best graph".to_owned(), digest(&r.best.sweep())),
    ];
    check(&CHAIN, &actual);
}
