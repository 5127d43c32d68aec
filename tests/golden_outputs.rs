//! Golden outputs of the per-cut kernels and of the ML set-up.
//!
//! Every other byte-identity suite compares two paths of one build
//! (memo on/off, engine on/off, cache on/off, traced vs production),
//! so a kernel change that alters what `rw` produces passes them all.
//! This suite pins the outputs themselves: FNV-1a-64 digests of the
//! binary AIGER each primitive, each in-place window pass,
//! `datagen::degrade` and a few recipes produce on `ex11`, the bit
//! patterns of `GroundTruthCost::evaluate` on two graphs, the
//! outcome of a short paper-recipe ground-truth SA chain, and the
//! trained models and Table III rows of a small corpus. A digest
//! changes only when an output does; an intended output change
//! updates the constants here and says why.

use aig::aiger::to_binary;
use aig::cut::CutDb;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::Aig;
use experiments::table3::{self, train_models, Corpus};
use gbt::GbtParams;
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

const TRAINED: [(&str, u64); 26] = [
    ("delay model", 0x4829c4bf43188db0),
    ("area model", 0xa6ea448192c7be4d),
    ("ex00 mean", 0x40300d00cb8938d5),
    ("ex00 max", 0x403e1849cf694c36),
    ("ex00 std", 0x4025200774abf384),
    ("ex08 mean", 0x3ffea22d6c14c5cb),
    ("ex08 max", 0x401f49f3481ceb8a),
    ("ex08 std", 0x3fffe6663acf768b),
    ("ex28 mean", 0x3fe4606e646123ec),
    ("ex28 max", 0x3ffb25e2d3e13968),
    ("ex28 std", 0x3fe26d4c9ff23899),
    ("ex68 mean", 0x4018a36e8c4458e7),
    ("ex68 max", 0x40314b68a4953bea),
    ("ex68 std", 0x4013f48074e7b6e2),
    ("ex02 mean", 0x4041f1c785d8c1fd),
    ("ex02 max", 0x4049701daa90762a),
    ("ex02 std", 0x4028acb9b8163352),
    ("ex11 mean", 0x401de36b3e70b307),
    ("ex11 max", 0x4032b63a4b350ef5),
    ("ex11 std", 0x40166937420d1a33),
    ("ex16 mean", 0x40218a2c76cdb039),
    ("ex16 max", 0x40314e33ea64e10f),
    ("ex16 std", 0x4014bccb86e26f46),
    ("ex54 mean", 0x4022f0edbb89d89f),
    ("ex54 max", 0x403173bf714faaff),
    ("ex54 std", 0x4015225ba843da22),
];

/// The ML flow's set-up at a small corpus (12 variants per design,
/// seed 5): the digests of both models' `GbtModel::to_json` from
/// `train_models` on `Corpus::generate`, and the bit patterns of
/// every Table III row's absolute %error mean, max and std.
#[test]
fn trained_models() {
    let cfg = experiments::Config {
        samples: 12,
        seed: 5,
        out_dir: std::env::temp_dir().join("aig_timing_golden_trained_models"),
        ..experiments::Config::smoke()
    };
    let params = GbtParams {
        seed: cfg.seed,
        ..GbtParams::default()
    };
    let (delay, area) = train_models(&Corpus::generate(&cfg), &params);
    let mut actual = Vec::new();
    for (name, model) in [("delay model", delay), ("area model", area)] {
        actual.push((name.to_owned(), fnv1a64(model.to_json().as_bytes())));
    }
    for row in &table3::run(&cfg).rows {
        let stats = &row.stats;
        for (name, v) in [("mean", stats.mean), ("max", stats.max), ("std", stats.std)] {
            actual.push((format!("{} {name}", row.design), v.to_bits()));
        }
    }
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
    check(&TRAINED, &actual);
}
