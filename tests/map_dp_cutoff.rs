//! Differential suite for the footprint-bounded incremental mapper:
//! [`Mapper::map_incremental`] / [`Mapper::sync_design`] with the
//! per-row DP cutoff (CutDb version stamps against the clock the
//! previous call read, plus leaf bit-equality) must produce netlists
//! **bit-identical** to `Mapper::map` across random in-place edit
//! walks with rollbacks — on random graphs and on every benchgen
//! design — while recomputing only rows inside the edit's footprint.
//! The cutoff-off context (the same sweep reusing nothing above the
//! watermark) runs alongside as a second oracle.

use aig::cut::CutDb;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::{Aig, Lit, NodeId};
use cells::sky130ish;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use techmap::{MapContext, MapError, MapOptions, Mapper};

mod common;
use common::random_aig_with;

/// Deep netlist identity: the derived `Debug` form covers drivers,
/// gates (cells + pin wiring), inputs, and output ports.
fn assert_same_netlist(a: &techmap::Netlist, b: &techmap::Netlist, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

/// Asserts two mapping outcomes (netlist or error) are identical.
fn assert_same_outcome(
    incr: Result<techmap::Netlist, MapError>,
    fresh: Result<techmap::Netlist, MapError>,
    what: &str,
) {
    match (incr, fresh) {
        (Ok(a), Ok(b)) => assert_same_netlist(&a, &b, what),
        (Err(MapError::NoMatch { node: a }), Err(MapError::NoMatch { node: b })) => {
            assert_eq!(a, b, "{what}: error node diverged");
        }
        (a, b) => panic!("{what}: outcome diverged: {a:?} vs {b:?}"),
    }
}

/// Random in-place edit walks with rollbacks, mapping mid-edit and
/// after commit/rollback, with three mappers racing: fresh `map`
/// (oracle), cutoff-on incremental, cutoff-off incremental (every row
/// at or above the watermark recomputed). All three must agree bit
/// for bit at every step — including on `NoMatch` errors from edits
/// that leave a live constant node behind.
fn drive_walk(g0: &Aig, seed: u64, steps: usize) {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = g0.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx_on = MapContext::new();
    let mut ctx_off = MapContext::new();
    ctx_off.set_row_cutoff(false);
    assert!(ctx_on.row_cutoff() && !ctx_off.row_cutoff());
    // Seed both contexts' rows (and the clock the cutoff context
    // reads) with the unedited graph.
    let first_on = mapper.map_incremental(&mut ctx_on, &g, &db, 0);
    let first_off = mapper.map_incremental(&mut ctx_off, &g, &db, 0);
    assert_same_outcome(first_on, mapper.map(&g), "seed");
    assert_same_outcome(first_off, mapper.map(&g), "seed (cutoff off)");

    for step in 0..steps {
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        for _ in 0..rng.gen_range(1..4) {
            let ands: Vec<NodeId> = txn.aig().and_ids().collect();
            if ands.is_empty() {
                break;
            }
            let node = ands[rng.gen_range(0..ands.len())];
            let with = Lit::new(rng.gen_range(0..node), rng.gen());
            txn.substitute(node, with);
            db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        }
        let since = txn.min_touched();
        // Mid-edit mapping: the cutoff context reads the clock here —
        // a following rollback must still be detected (it stamps the
        // restored lists past that clock).
        let fresh_mid = mapper.map(txn.aig());
        let incr_mid = mapper.map_incremental(&mut ctx_on, txn.aig(), &db, since);
        let off_mid = mapper.map_incremental(&mut ctx_off, txn.aig(), &db, since);
        assert_same_outcome(incr_mid, mapper.map(txn.aig()), &format!("step {step} mid"));
        assert_same_outcome(off_mid, fresh_mid, &format!("step {step} mid (cutoff off)"));
        if rng.gen_bool(0.5) {
            txn.commit();
            db.commit_edit();
        } else {
            txn.rollback();
            db.rollback_edit();
        }
        // Post-outcome remap with the same watermark (the SA loop's
        // resync pattern after a reject).
        let fresh = mapper.map(&g);
        let incr = mapper.map_incremental(&mut ctx_on, &g, &db, since);
        let off = mapper.map_incremental(&mut ctx_off, &g, &db, since);
        assert_same_outcome(incr, mapper.map(&g), &format!("step {step} post"));
        assert_same_outcome(off, fresh, &format!("step {step} post (cutoff off)"));
        db.assert_matches_fresh(&g);
    }
}

#[test]
fn edit_walks_bit_identical_on_random_graphs() {
    for seed in 0..5u64 {
        let g = random_aig_with(0xD9 ^ seed, 7, 100, 3);
        drive_walk(&g, 0xC0DE ^ seed, 10);
    }
}

/// Every benchgen design: realistic structures, fewer steps to bound
/// runtime.
#[test]
fn edit_walks_bit_identical_on_benchgen_designs() {
    for design in benchgen::iwls_like_suite() {
        drive_walk(&design.aig, 0xFACE, 3);
    }
}

/// Windowed edits on a large design: the cutoff's recomputed-row
/// counter must stay strictly below the watermark-to-top row count
/// (what the old path always paid), and a no-op resync must recompute
/// nothing.
#[test]
fn recompute_count_is_footprint_bounded_on_windowed_edits() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let design = benchgen::ex28();
    let mut g = design.aig.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx = MapContext::new();
    mapper
        .map_incremental(&mut ctx, &g, &db, 0)
        .expect("mappable");

    let mut rng = SmallRng::seed_from_u64(7);
    let ands: Vec<NodeId> = g.and_ids().collect();
    let mut exercised = 0usize;
    for round in 0..12 {
        // A windowed edit: substitute a mid-graph node by a nearby
        // earlier literal, so the watermark sits well below the top.
        let k = rng.gen_range(ands.len() / 4..ands.len() * 3 / 4);
        let node = ands[k];
        let with = Lit::new(ands[k - 1].min(node - 1), rng.gen());
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(node, with);
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        let since = txn.min_touched();
        let rows_above = txn.aig().and_ids().filter(|&id| id >= since).count();
        match mapper.map_incremental(&mut ctx, txn.aig(), &db, since) {
            Ok(nl) => {
                assert_same_netlist(
                    &nl,
                    &mapper.map(txn.aig()).expect("mappable"),
                    &format!("round {round}"),
                );
                assert!(
                    ctx.recomputed_rows() < rows_above,
                    "round {round}: recomputed {} rows, watermark-to-top is {rows_above}",
                    ctx.recomputed_rows()
                );
                exercised += 1;
                // A call with nothing to do reports its own count,
                // not the previous call's.
                mapper
                    .map_incremental(&mut ctx, txn.aig(), &db, NodeId::MAX)
                    .expect("mappable");
                assert_eq!(ctx.recomputed_rows(), 0, "round {round}: untouched call");
                // A no-op resync over the unchanged graph recomputes
                // nothing at all.
                mapper
                    .map_incremental(&mut ctx, txn.aig(), &db, since)
                    .expect("mappable");
                assert_eq!(ctx.recomputed_rows(), 0, "round {round}: no-op resync");
                txn.commit();
                db.commit_edit();
            }
            Err(MapError::NoMatch { .. }) => {
                // The raw substitution left a live constant node; not
                // the footprint scenario under test — roll it back.
                txn.rollback();
                db.rollback_edit();
                let restored = mapper
                    .map_incremental(&mut ctx, &g, &db, since)
                    .expect("restored graph is mappable");
                assert_same_netlist(&restored, &mapper.map(&g).expect("mappable"), "restored");
            }
            Err(e) => panic!("round {round}: unexpected error {e}"),
        }
    }
    assert!(exercised >= 4, "too few committed windowed edits");
}

/// A persistent [`techmap::MappedDesign`] plus incremental
/// sizing/STA riding one mapping context through a walk, priced the
/// way `GroundTruthCost::evaluate_edit` prices it.
struct DesignRider {
    ctx: MapContext,
    sizing: techmap::SizingTable,
    design: techmap::MappedDesign,
    ista: sta::IncrementalSta,
    seeds: Vec<techmap::GateId>,
}

impl DesignRider {
    fn new(lib: &cells::Library, cutoff: bool) -> Self {
        let mut ctx = MapContext::new();
        ctx.set_row_cutoff(cutoff);
        DesignRider {
            ctx,
            sizing: techmap::SizingTable::new(lib),
            design: techmap::MappedDesign::new(),
            ista: sta::IncrementalSta::new(),
            seeds: Vec::new(),
        }
    }

    /// Syncs the design to `g` at watermark `since` and asserts its
    /// priced delay/area are bit-identical to a fresh `map` +
    /// `resize_greedy(.., 2)` + `delay_and_area`. Returns whether the
    /// sync rebuilt the design.
    fn sync(&mut self, mapper: &Mapper, g: &Aig, db: &CutDb, since: NodeId, what: &str) -> bool {
        let lib = mapper.library();
        let rebuilt = mapper
            .sync_design(&mut self.ctx, g, db, since, &mut self.design)
            .expect("mappable");
        if rebuilt {
            self.design.finish_full(&self.sizing);
            let (nl, keys) = (self.design.netlist(), self.design.topo_keys());
            self.ista.build(nl, lib, keys);
        } else {
            self.seeds.clear();
            self.design
                .finish_incremental(&self.sizing, &mut self.seeds);
            let (nl, keys) = (self.design.netlist(), self.design.topo_keys());
            self.ista.update(nl, lib, keys, &self.seeds);
        }
        let pd = self.ista.max_delay_ps(self.design.netlist());
        let pa = self.design.netlist().area_um2(lib);
        let mut full = mapper.map(g).expect("mappable");
        techmap::resize_greedy(&mut full, lib, 2);
        let (fd, fa) = sta::delay_and_area(&full, lib);
        assert!(
            pd.to_bits() == fd.to_bits() && pa.to_bits() == fa.to_bits(),
            "{what}: design diverged: {pd}/{pa} vs {fd}/{fa}"
        );
        rebuilt
    }
}

/// Fresh-cone walks: windowed in-place passes that append replacement
/// cones and splice them into earlier readers, leaving the graph
/// non-topological after commit. Three mappers race as in
/// `drive_walk` — fresh `map` (oracle), cutoff-on, cutoff-off — and
/// two persistent designs ride along, one through a cutoff-on and one
/// through a cutoff-off context. Each design syncs on every mid-edit
/// graph (grown shape) and again after the move's outcome: after a
/// commit, or after a rollback (shrunk shape) — SA rolls back every
/// move it could not price and a share of those it could. After the
/// warm-up sync no sync rebuilds, and every sync prices
/// bit-identically to the fresh full pipeline. Returns whether the
/// walk committed a forward reference, the DP rows the cutoff-on
/// design recomputed on shrunk graphs, and the rows at or above
/// those syncs' (forward-clamped) watermarks.
fn drive_append_walk(g0: &Aig, seed: u64, steps: usize) -> (bool, usize, usize) {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    if mapper.map(g0).is_err() {
        // Random seeds can leave a live constant node (unmappable by
        // construction); the design pipeline under test requires a
        // mappable start.
        return (false, 0, 0);
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = g0.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx_on = MapContext::new();
    let mut ctx_off = MapContext::new();
    ctx_off.set_row_cutoff(false);
    mapper
        .map_incremental(&mut ctx_on, &g, &db, 0)
        .expect("mappable");
    mapper
        .map_incremental(&mut ctx_off, &g, &db, 0)
        .expect("mappable");
    let mut riders = [DesignRider::new(&lib, true), DesignRider::new(&lib, false)];
    for r in &mut riders {
        r.sync(&mapper, &g, &db, 0, "warm-up");
    }

    let cache = transform::ResynthCache::new();
    let mut saw_forward = false;
    let (mut shrunk_rows, mut shrunk_above) = (0usize, 0usize);
    for step in 0..steps {
        let n = g.num_nodes() as u32;
        let start = rng.gen_range(0..n);
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        match step % 3 {
            0 => {
                transform::balance_inplace_window(&mut txn, &mut db, start, 48);
            }
            1 => {
                transform::resynth_inplace_window(
                    &mut txn,
                    &mut db,
                    &cache,
                    transform::InplaceMode::ZeroCost,
                    true,
                    start,
                    64,
                );
            }
            _ => {
                transform::resub_inplace_window(&mut txn, &mut db, start, 48);
            }
        }
        let since = txn.min_touched();
        let priceable = mapper.map(txn.aig()).is_ok();
        let mid_n = txn.aig().num_nodes();
        if priceable {
            for r in &mut riders {
                let what = format!("append step {step} mid");
                assert!(
                    !r.sync(&mapper, txn.aig(), &db, since, &what),
                    "{what}: rebuilt"
                );
            }
        }
        // A window that left a live unmatchable node is rolled back
        // (which also exercises append rollback against the cached
        // topo index); so is a quarter of the rest.
        if priceable && rng.gen_bool(0.75) {
            txn.commit();
            db.commit_edit();
        } else {
            txn.rollback();
            db.rollback_edit();
        }
        saw_forward |= !g.is_topological();
        let fresh = mapper.map(&g);
        let incr = mapper.map_incremental(&mut ctx_on, &g, &db, since);
        let off = mapper.map_incremental(&mut ctx_off, &g, &db, since);
        assert_same_outcome(incr, mapper.map(&g), &format!("append step {step}"));
        assert_same_outcome(off, fresh, &format!("append step {step} (cutoff off)"));
        db.assert_matches_fresh(&g);
        for r in &mut riders {
            let what = format!("append step {step} post");
            assert!(!r.sync(&mapper, &g, &db, since, &what), "{what}: rebuilt");
        }
        if priceable && g.num_nodes() < mid_n {
            let eff = since.min(g.forward_ids().next().unwrap_or(NodeId::MAX));
            shrunk_rows += riders[0].ctx.recomputed_rows();
            shrunk_above += g.and_ids().filter(|&id| id >= eff).count();
        }
    }
    (saw_forward, shrunk_rows, shrunk_above)
}

/// The per-row cutoff also runs on graphs that shrank back after a
/// rejected append: summed over a test's walks, those syncs recompute
/// strictly fewer rows than lie at or above their watermarks (a walk
/// whose only shrink sits low in a small graph can recompute every
/// one of them).
fn assert_shrunk_syncs_cut_off(rows: usize, above: usize) {
    assert!(above > 0, "no walk synced a shrunk graph");
    assert!(
        rows < above,
        "shrunk-graph syncs recomputed {rows} rows, {above} at or above their watermarks"
    );
}

/// An output retargeted to or from a constant leaves the constant
/// node out of the watermark: the designs' port diff must still see
/// the move, patch in place, and price bit-identically to a fresh
/// map.
#[test]
fn designs_follow_outputs_retargeted_to_and_from_constants() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let mut g = random_aig_with(0xC0, 8, 120, 3);
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut riders = [DesignRider::new(&lib, true), DesignRider::new(&lib, false)];
    for r in &mut riders {
        r.sync(&mapper, &g, &db, 0, "warm-up");
    }
    let driver = g.outputs()[0].lit;
    assert!(g.is_and(driver.var()), "output 0 is driven by an AND");
    for (step, lit) in [Lit::FALSE, Lit::TRUE, driver].into_iter().enumerate() {
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.retarget_output(0, lit);
        let since = txn.min_touched();
        txn.commit();
        assert!(
            since > 0,
            "step {step}: the constant dragged the watermark to 0"
        );
        for r in &mut riders {
            let what = format!("retarget step {step}");
            assert!(!r.sync(&mapper, &g, &db, since, &what), "{what}: rebuilt");
        }
    }
}

#[test]
fn append_walks_bit_identical_on_random_graphs() {
    let (mut forward_walks, mut rows, mut above) = (0usize, 0usize, 0usize);
    for seed in 0..6u64 {
        let g = random_aig_with(0xA9 ^ seed, 7, 110, 3);
        let (forward, r, a) = drive_append_walk(&g, 0xBEEF ^ seed, 9);
        forward_walks += usize::from(forward);
        (rows, above) = (rows + r, above + a);
    }
    assert_shrunk_syncs_cut_off(rows, above);
    assert!(
        forward_walks >= 2,
        "too few walks committed forward references ({forward_walks})"
    );
}

#[test]
fn append_walks_bit_identical_on_benchgen_designs() {
    let (mut forward_walks, mut rows, mut above) = (0usize, 0usize, 0usize);
    for design in benchgen::iwls_like_suite().into_iter().take(4) {
        let (forward, r, a) = drive_append_walk(&design.aig, 0xFEED, 4);
        forward_walks += usize::from(forward);
        (rows, above) = (rows + r, above + a);
    }
    assert_shrunk_syncs_cut_off(rows, above);
    assert!(
        forward_walks >= 1,
        "no benchgen walk committed a forward reference"
    );
}

/// On a graph carrying committed forward references the cutoff must
/// stay active: recomputed rows strictly below the effective
/// (forward-clamped) watermark-to-top row count — the fallback the
/// old `is_topological` guard always forced.
#[test]
fn recompute_count_stays_footprint_bounded_under_forward_refs() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let design = benchgen::ex28();
    let mut g = design.aig.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx = MapContext::new();
    mapper
        .map_incremental(&mut ctx, &g, &db, 0)
        .expect("mappable");
    mapper
        .map_incremental(&mut ctx, &g, &db, NodeId::MAX)
        .expect("mappable");

    let mut rng = SmallRng::seed_from_u64(19);
    let cache = transform::ResynthCache::new();
    let mut exercised = 0usize;
    for round in 0..12 {
        let n = g.num_nodes() as u32;
        let start = rng.gen_range(n / 4..n);
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        transform::resynth_inplace_window(
            &mut txn,
            &mut db,
            &cache,
            transform::InplaceMode::ZeroCost,
            true,
            start,
            96,
        );
        let since = txn.min_touched();
        txn.commit();
        db.commit_edit();
        if since as usize >= g.num_nodes() {
            continue; // window found nothing to do
        }
        // `dp_update` clamps the watermark below the first forward id
        // — that clamped suffix is what the watermark fallback would
        // recompute wholesale.
        let eff = since.min(g.forward_ids().next().unwrap_or(NodeId::MAX));
        let rows_above = g.and_ids().filter(|&id| id >= eff).count();
        let nl = mapper
            .map_incremental(&mut ctx, &g, &db, since)
            .expect("mappable");
        assert_same_netlist(
            &nl,
            &mapper.map(&g).expect("mappable"),
            &format!("forward round {round}"),
        );
        if !g.is_topological() {
            assert!(
                ctx.recomputed_rows() < rows_above,
                "round {round}: recomputed {} rows, clamped watermark-to-top is {rows_above}",
                ctx.recomputed_rows()
            );
            exercised += 1;
        }
    }
    assert!(exercised >= 4, "too few forward-carrying rounds");
}

/// A stale cut database (missed `build`/`sync_appends`) must surface
/// as a typed error from the incremental entry points — in *every*
/// build profile. This used to be a `debug_assert_eq!`, i.e. release
/// builds would silently map through stale spans; the test pins the
/// release-mode behavior (it does not rely on `debug_assertions`).
#[test]
fn stale_cutdb_is_a_typed_error_not_a_debug_assert() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let mut g = random_aig_with(42, 6, 40, 2);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let tracked = g.num_nodes();
    // Grow the graph behind the database's back.
    let a = Lit::new(g.inputs()[0], false);
    let b = Lit::new(*g.inputs().last().unwrap(), true);
    g.and(a, b);
    let mut ctx = MapContext::new();
    match mapper.map_incremental(&mut ctx, &g, &db, 0) {
        Err(MapError::StaleCuts {
            db_nodes,
            graph_nodes,
        }) => {
            assert_eq!(db_nodes, tracked);
            assert_eq!(graph_nodes, g.num_nodes());
        }
        other => panic!("expected StaleCuts, got {other:?}"),
    }
    // The error is recoverable: syncing the database makes the same
    // call succeed and match the fresh map.
    db.sync_appends(&g);
    let incr = mapper
        .map_incremental(&mut ctx, &g, &db, 0)
        .expect("synced db maps");
    assert_same_netlist(&incr, &mapper.map(&g).expect("mappable"), "after sync");
}

/// A `map_incremental` interleaved between two `sync_design` calls
/// must stay visible to the design: the changed-row record
/// accumulates until a design consumes it, so the second sync heals
/// the netlist even though its own `dp_update` is a no-op (rows
/// already current, watermark `NodeId::MAX`).
#[test]
fn sync_design_sees_interleaved_map_incremental_changes() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let sizing = techmap::SizingTable::new(&lib);
    let g0 = random_aig_with(3100, 8, 120, 3);
    let mut g = g0.clone();
    let mut inc = IncrementalAnalysis::new(&g);
    let mut db = CutDb::new(4, 8);
    db.build(&g);
    let mut ctx = MapContext::new();
    let mut design = techmap::MappedDesign::new();
    let mut ista = sta::IncrementalSta::new();
    let mut sta_seeds: Vec<techmap::GateId> = Vec::new();
    mapper
        .sync_design(&mut ctx, &g, &db, 0, &mut design)
        .expect("mappable");
    design.finish_full(&sizing);
    ista.build(design.netlist(), &lib, design.topo_keys());

    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let mut exercised = 0usize;
    for _ in 0..40 {
        if exercised >= 6 {
            break;
        }
        // Commit an edit that keeps the graph mappable AND actually
        // changes the mapped netlist (random nodes are often dead —
        // a cover-neutral edit cannot exercise the design patch), so
        // prefer nodes in the live cover.
        let mut live = vec![false; g.num_nodes()];
        let mut stack: Vec<NodeId> = g.outputs().iter().map(|o| o.lit.var()).collect();
        while let Some(v) = stack.pop() {
            if !std::mem::replace(&mut live[v as usize], true) && g.is_and(v) {
                let [f0, f1] = g.fanins(v);
                stack.push(f0.var());
                stack.push(f1.var());
            }
        }
        let ands: Vec<NodeId> = g.and_ids().filter(|&id| live[id as usize]).collect();
        if ands.is_empty() {
            break;
        }
        let node = ands[rng.gen_range(0..ands.len())];
        if node == 0 {
            continue;
        }
        let with = Lit::new(rng.gen_range(0..node), rng.gen());
        {
            let mut trial = g.clone();
            let mut tinc = IncrementalAnalysis::new(&trial);
            let mut txn = Transaction::begin(&mut trial, &mut tinc);
            txn.substitute(node, with);
            txn.commit();
            match mapper.map(&trial) {
                Ok(nl) => {
                    let before = mapper.map(&g).expect("mappable");
                    if format!("{nl:?}") == format!("{before:?}") {
                        continue;
                    }
                }
                Err(_) => continue,
            }
        }
        db.begin_edit();
        let mut txn = Transaction::begin(&mut g, &mut inc);
        txn.substitute(node, with);
        db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
        let since = txn.min_touched();
        txn.commit();
        db.commit_edit();
        // Interleaved row refresh that bypasses the design entirely.
        mapper
            .map_incremental(&mut ctx, &g, &db, since)
            .expect("mappable");
        // The design sync's own DP pass now finds nothing to
        // recompute (rows already current) — alternating between the
        // same-watermark re-entry and the O(1) fast path, the design
        // must heal purely from the accumulated changed-row record.
        let resync_since = if exercised.is_multiple_of(2) {
            since
        } else {
            NodeId::MAX
        };
        let rebuilt = mapper
            .sync_design(&mut ctx, &g, &db, resync_since, &mut design)
            .expect("mappable");
        // Price the patched design exactly like
        // `GroundTruthCost::evaluate_edit` (full sizing capture only
        // on rebuilds; incremental sizing + STA update on patches —
        // the design's slots are not id-topological, so STA goes
        // through the incremental engine + topo keys).
        if rebuilt {
            design.finish_full(&sizing);
            ista.build(design.netlist(), &lib, design.topo_keys());
        } else {
            sta_seeds.clear();
            design.finish_incremental(&sizing, &mut sta_seeds);
            ista.update(design.netlist(), &lib, design.topo_keys(), &sta_seeds);
        }
        let pd = ista.max_delay_ps(design.netlist());
        let pa = design.netlist().area_um2(&lib);
        let mut fresh = mapper.map(&g).expect("mappable");
        techmap::resize_greedy(&mut fresh, &lib, 2);
        let (fd, fa) = sta::delay_and_area(&fresh, &lib);
        assert!(
            pd.to_bits() == fd.to_bits() && pa.to_bits() == fa.to_bits(),
            "patched design diverged after interleaved map: {pd}/{pa} vs {fd}/{fa}"
        );
        exercised += 1;
    }
    assert!(exercised >= 4, "too few committed edits");
}

/// Switching a context between two independent `CutDb` instances must
/// not let the old database's clock vouch for the new one's lists:
/// the context keys its clock read to the database instance, so the
/// switch call reuses nothing at or above its watermark, and the
/// next call compares the new database's versions only against the
/// new database's clock. This drives the exact switch sequence with
/// numerically colliding values engineered below (each database
/// stamps `x` with its second clock tick) and asserts bit-identity.
#[test]
fn snapshot_is_not_reattributed_across_databases() {
    let lib = sky130ish();
    let mapper = Mapper::new(&lib, MapOptions::default());
    // x = AND(u, v) with u, v single-consumer helpers, plus logic
    // above x so the database-switch call can use a high watermark.
    let mut g = Aig::new();
    let a = g.add_input();
    let b = g.add_input();
    let c = g.add_input();
    let d = g.add_input();
    let u = g.and(a, b);
    let v = g.and(c, d);
    let x = g.and(u, v);
    let mut top = x;
    for _ in 0..6 {
        let t = g.xor(a, d);
        top = g.and(top, t);
    }
    g.add_output(top, None::<&str>);
    let high = top.var();

    let mut inc = IncrementalAnalysis::new(&g);
    let mut ctx = MapContext::new();
    let mut db_a = CutDb::new(4, 8);
    db_a.build(&g);
    mapper
        .map_incremental(&mut ctx, &g, &db_a, 0)
        .expect("mappable");
    // Edit through A so x's version becomes A's second value (build
    // handed out the first): substitute u by `a` — x is the first
    // (smallest-id) node whose list changes.
    let mut txn = Transaction::begin(&mut g, &mut inc);
    txn.substitute(u.var(), a);
    db_a.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
    let since_a = txn.min_touched();
    txn.commit();
    mapper
        .map_incremental(&mut ctx, &g, &db_a, since_a)
        .expect("mappable");
    // Switch to an independently built database with a high
    // watermark: A's clock must not vouch for B's lists.
    let mut db_b = CutDb::new(4, 8);
    db_b.build(&g);
    mapper
        .map_incremental(&mut ctx, &g, &db_b, high)
        .expect("mappable");
    // Edit through B so x's version becomes B's second tick — the
    // same numeric value A stamped it with, which A's clock would
    // read as "unchanged".
    let mut txn = Transaction::begin(&mut g, &mut inc);
    txn.substitute(v.var(), c);
    db_b.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
    let since_b = txn.min_touched();
    txn.commit();
    let incr = mapper.map_incremental(&mut ctx, &g, &db_b, since_b);
    assert_same_outcome(incr, mapper.map(&g), "after database switch");
}

/// Ground-truth SA evaluation with the cutoff on vs off must be
/// byte-identical (same metrics, same best graph) — the evaluator
/// toggle is `GroundTruthCost::set_dp_row_cutoff`.
#[test]
fn ground_truth_sa_byte_identical_with_cutoff_on_or_off() {
    use saopt::{optimize_with, EvalContext, GroundTruthCost, SaOptions};
    use transform::{Recipe, Transform};
    let g = random_aig_with(777, 8, 110, 4);
    let lib = sky130ish();
    let actions = vec![
        Recipe(vec![Transform::Rewrite]),
        Recipe(vec![Transform::RewriteZero]),
        Recipe(vec![Transform::Balance]),
    ];
    let opts = SaOptions {
        iterations: 10,
        seed: 31,
        ..SaOptions::default()
    };
    let run = |cutoff: bool| {
        let mut eval = GroundTruthCost::new(&lib);
        eval.set_dp_row_cutoff(cutoff);
        let mut ctx = EvalContext::new();
        optimize_with(&g, &mut eval, &actions, &opts, &mut ctx)
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(
        aig::aiger::to_ascii(&on.best),
        aig::aiger::to_ascii(&off.best),
        "best graph diverged"
    );
    assert_eq!(on.evaluated, off.evaluated, "metrics diverged");
    assert_eq!(on.history, off.history, "history diverged");
    assert_eq!(on.accepted, off.accepted);
}
