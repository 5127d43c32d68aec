//! Parity tests for the reusable mapping context:
//! `Mapper::map_with(&mut ctx, ..)` must produce netlists identical
//! to `Mapper::map(..)` — gates, wiring, and evaluation — no matter
//! what the context previously mapped, including shrink-then-grow
//! size sequences, benchgen designs, and context hand-off between
//! mappers with different options.

use aig::cut::CutDb;
use aig::Aig;
use cells::sky130ish;
use techmap::{MapContext, MapGoal, MapOptions, Mapper};

mod common;
use common::random_aig_with;

/// Deep netlist identity: the derived `Debug` form covers drivers,
/// gates (cells + pin wiring), inputs, and output ports.
fn assert_same_netlist(a: &techmap::Netlist, b: &techmap::Netlist, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

fn eval_all(nl: &techmap::Netlist, lib: &cells::Library, n: usize) -> Vec<Vec<bool>> {
    (0..1usize << n)
        .map(|m| nl.eval(lib, &(0..n).map(|i| m >> i & 1 == 1).collect::<Vec<_>>()))
        .collect()
}

/// One context across many distinct random graphs, sizes
/// deliberately shrinking and regrowing.
#[test]
fn reuse_across_many_graphs_matches_fresh() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let mut ctx = MapContext::new();
    let shapes = [
        (1u64, 8usize, 120usize),
        (2, 4, 10),
        (3, 7, 90),
        (4, 2, 3),
        (5, 8, 120),
        (6, 5, 40),
    ];
    for (seed, inputs, nodes) in shapes {
        let g = random_aig_with(seed, inputs, nodes, 3);
        let fresh = mapper.map(&g).expect("mappable");
        let reused = mapper.map_with(&mut ctx, &g).expect("mappable");
        assert_same_netlist(&fresh, &reused, &format!("seed {seed}"));
        if inputs <= 8 {
            assert_eq!(
                eval_all(&fresh, &lib, g.num_inputs()),
                eval_all(&reused, &lib, g.num_inputs()),
                "seed {seed}: evaluation diverged"
            );
        }
    }
    assert!(ctx.num_memoized_functions() > 0, "memo must have filled");
}

/// Benchgen designs through one warm context, in both goals.
#[test]
fn benchgen_designs_match_fresh() {
    let lib = sky130ish();
    for goal in [MapGoal::Delay, MapGoal::Area] {
        let opts = MapOptions {
            goal,
            ..MapOptions::default()
        };
        let mapper = Mapper::new(&lib, opts);
        let mut ctx = MapContext::new();
        for design in [benchgen::ex00(), benchgen::ex68(), benchgen::ex08()] {
            let fresh = mapper.map(&design.aig).expect("mappable");
            let reused = mapper.map_with(&mut ctx, &design.aig).expect("mappable");
            assert_same_netlist(&fresh, &reused, &format!("{} {goal:?}", design.name));
        }
    }
}

/// Handing one context between mappers with different options (the
/// memo fingerprint must invalidate, and a mapper with other cut
/// parameters must replace the context's cut table) keeps parity,
/// through `map_with` and through `map_incremental`. The incremental
/// context is handed over too, each mapper reading the `CutDb` of its
/// own cut parameters: the delay and area mappers share one, so the
/// clock read a mapper leaves behind must not let the next one skip
/// rows it never computed.
#[test]
fn context_handoff_between_mappers_matches_fresh() {
    let lib = sky130ish();
    let delay = Mapper::new(&lib, MapOptions::default());
    let small_cuts = Mapper::new(
        &lib,
        MapOptions {
            cut_size: 3,
            max_cuts: 6,
            ..MapOptions::default()
        },
    );
    let area = Mapper::new(
        &lib,
        MapOptions {
            goal: MapGoal::Area,
            est_load_ff: 4.0,
            ..MapOptions::default()
        },
    );
    let mut ctx = MapContext::new();
    let mut incr_ctx = MapContext::new();
    for seed in 0..4u64 {
        let g = random_aig_with(100 + seed, 6, 50, 3);
        let mut wide = CutDb::new(4, 8);
        wide.build(&g);
        let mut narrow = CutDb::new(3, 6);
        narrow.build(&g);
        for m in [&delay, &small_cuts, &area, &delay] {
            let fresh = m.map(&g).expect("mappable");
            let reused = m.map_with(&mut ctx, &g).expect("mappable");
            assert_same_netlist(&fresh, &reused, &format!("seed {seed}"));
            let cuts = if m.options().cut_size == 4 {
                &wide
            } else {
                &narrow
            };
            let incr = m
                .map_incremental(&mut incr_ctx, &g, cuts, 0)
                .expect("mappable");
            assert_same_netlist(&fresh, &incr, &format!("seed {seed} incremental"));
        }
    }
}

/// PO edge cases (constants, pass-throughs, inverted rails, shared
/// drivers) through a warm context.
#[test]
fn po_edge_cases_through_warm_context() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let mut ctx = MapContext::new();
    // Warm the context on an unrelated graph first.
    let warmup = random_aig_with(7, 6, 60, 2);
    mapper.map_with(&mut ctx, &warmup).expect("mappable");

    let mut g = Aig::new();
    let a = g.add_input();
    let b = g.add_input();
    g.add_output(aig::Lit::TRUE, Some("tie1"));
    g.add_output(aig::Lit::FALSE, Some("tie0"));
    g.add_output(a, Some("pass"));
    g.add_output(!a, Some("inv"));
    let f = g.and(a, b);
    g.add_output(f, Some("f"));
    g.add_output(!f, Some("fbar"));
    let fresh = mapper.map(&g).expect("mappable");
    let reused = mapper.map_with(&mut ctx, &g).expect("mappable");
    assert_same_netlist(&fresh, &reused, "po edge cases");
    assert_eq!(eval_all(&fresh, &lib, 2), eval_all(&reused, &lib, 2));
}
