//! Scale-sweep bench: per-step incremental cost across the large
//! design tier (`benchgen::large_10k` / `large_100k` / `large_1m`).
//!
//! The claim under test is a *scaling exponent*: an in-place SA step
//! and its incremental ground-truth pricing touch an edit-local
//! footprint, so per-step cost must stay within a constant factor
//! while the design grows 100x (10k -> 1M ANDs). Wall-time series are
//! recorded for trend tracking, but the gate in `scripts/verify.sh`
//! runs over deterministic work counters (`map_incr_rows_per_step_*`,
//! DP rows recomputed per pricing step over a fixed LCG walk), so it
//! is immune to machine noise.
//!
//! The move is the accepted fresh-cone append of
//! `fig2_iteration/map_dp_cutoff_append_ex28`: pick a live AND,
//! append a two-node cone over its own fanin literals, substitute,
//! commit. Unlike a windowed rewrite — which finds nothing to do on
//! the already-compact generated tiles — the append is guaranteed to
//! edit, and the commit path keeps the mapper's per-row cutoff live
//! (a rollback would shrink the graph and force the watermark
//! fallback). Targets are restricted to nodes whose fanins are both
//! AND gates: the large tier's tiles share their primary inputs, so
//! bumping a PI's fanout count would wake that PI's cut-leaf readers
//! in *every* tile and turn an edit-local step into a global one —
//! the exact coupling the tier exists to avoid.
//!
//! The storage series track the tentpole's memory side: resident
//! node-storage bytes per node under the SoA lanes + open-addressing
//! strash, against an estimate of the pre-refactor AoS +
//! `std::collections::HashMap` layout.
//!
//! Results are written to `BENCH_scale.json` at the workspace root.

use aig::cut::CutDb;
use aig::incremental::{IncrementalAnalysis, Transaction};
use aig::Aig;
use bench::{bench_json_path, library};
use benchgen::{large_100k, large_10k, large_1m, Design};
use criterion::{criterion_group, criterion_main, Criterion};
use saopt::{CostEvaluator, EditScope, EvalContext, GroundTruthCost};
use std::hint::black_box;

/// Fixed length of the deterministic counter walk per size, so the
/// recorded row counters are pure functions of the design — sampling
/// env knobs (`BENCH_SAMPLE_MS`, `BENCH_MAX_SAMPLES`) cannot move
/// them.
const COUNTER_STEPS: u32 = 32;

/// How far past a target id the move searches for a live AND whose
/// fanins are both ANDs (a couple of tile diameters; the probe is
/// bounded so a step stays O(1) in the design size).
const PROBE: u32 = 4096;

/// One accepted fresh-cone SA move: picks a live AND near the LCG
/// draw, appends a two-node cone built from the target's own fanin
/// literals (polarities from the draw's high bits — fanins precede
/// the target, so the splice can never close a cycle), substitutes
/// the target and commits. Returns the edit watermark
/// (`Transaction::min_touched`), or `u32::MAX` when the step did not
/// fire (no eligible target in the probe window, or strashing folded
/// the cone onto existing logic and the move rolled back).
fn append_move(
    current: &mut Aig,
    inc: &mut IncrementalAnalysis,
    db: &mut CutDb,
    state: u32,
) -> u32 {
    let n = current.num_nodes() as u32;
    let start = state % n.max(2);
    let mut target = 0u32;
    for off in 0..PROBE.min(n) {
        let id = (start + off) % n;
        if current.is_and(id) && !inc.consumers(id).is_empty() {
            let [f0, f1] = current.fanins(id);
            if current.is_and(f0.var()) && current.is_and(f1.var()) {
                target = id;
                break;
            }
        }
    }
    if target == 0 {
        return u32::MAX;
    }
    db.begin_edit();
    let mut txn = Transaction::begin(current, inc);
    let [f0, f1] = txn.aig().fanins(target);
    let sel = state >> 16;
    let a = if sel & 1 == 0 { f0 } else { !f0 };
    let b = if sel & 2 == 0 { f1 } else { !f1 };
    let c = if sel & 4 == 0 { f1 } else { !f0 };
    let before = txn.aig().num_nodes() as u32;
    let cone = txn.and(a, b);
    let root = txn.and(cone, c);
    if cone.var() < before || root.var() <= cone.var() {
        // Strashing folded the cone onto existing logic: not a
        // fresh-cone move, roll back (the no-fire path still pays the
        // transaction machinery, like an SA probe that found nothing).
        txn.rollback();
        db.rollback_edit();
        return u32::MAX;
    }
    db.sync_appends(txn.aig());
    txn.substitute(target, root);
    db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
    let since = txn.min_touched();
    txn.commit();
    db.commit_edit();
    since
}

fn bench_scale(c: &mut Criterion) {
    let lib = library();
    // Deterministic pseudo-series (node counts, DP rows per step,
    // bytes per node) collected while the group borrows `c` and
    // recorded after it closes.
    let mut recorded: Vec<(String, f64)> = Vec::new();
    let mut g = c.benchmark_group("scale_sweep");
    g.sample_size(10);
    type Gen = fn() -> Design;
    let sizes: [(&str, Gen); 3] = [("10k", large_10k), ("100k", large_100k), ("1m", large_1m)];
    for (tag, make) in sizes {
        let design = make();
        let base = design.aig;
        let nodes = base.num_nodes();
        let ands = base.num_ands();
        let soa = base.node_storage_bytes() as f64 / nodes as f64;
        // Pre-SoA reference layout: an AoS node array (two packed
        // literals — the same 8 B/node the lanes hold) plus a
        // std HashMap strash at 12 B per (Lit, Lit) -> NodeId entry
        // and one control byte per slot, slots a power of two sized
        // for the SwissTable 7/8 max load over the AND count.
        let slots = (ands * 8 / 7).next_power_of_two();
        let aos_ref = 8.0 + slots as f64 * 13.0 / nodes as f64;
        recorded.push((format!("sweep_nodes_{tag}"), nodes as f64));
        recorded.push((format!("soa_bytes_per_node_{tag}"), soa));
        recorded.push((format!("aos_hash_ref_bytes_per_node_{tag}"), aos_ref));
        // Committed appends accumulate garbage; sweeping at a fixed
        // growth factor keeps it bounded with an O(1) per-step check
        // (`num_live_ands` would be a graph-sized scan per iteration).
        let cap_nodes = nodes + nodes / 4;

        // The move machinery alone at this size: transaction + append
        // + substitute + cut-database maintenance, on its own state so
        // the pricing series below keeps an uninterrupted view of its
        // graph's edit trail.
        {
            let mut cur = base.clone();
            let mut inc = IncrementalAnalysis::new(&cur);
            let mut db = CutDb::new(4, 8);
            db.build(&cur);
            let mut state = 1u32;
            g.bench_function(format!("sa_step_inplace_sweep_{tag}"), |b| {
                b.iter(|| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    let since = black_box(append_move(&mut cur, &mut inc, &mut db, state));
                    if cur.num_nodes() > cap_nodes {
                        cur = cur.sweep();
                        inc.rebuild(&cur);
                        db.build(&cur);
                    }
                    since
                })
            });
        }

        // Pricing state shared by the counter walk and the timed
        // series, built ONCE per size: the bench harness re-invokes
        // the closure per sample, and at the 1M tier the cut-database
        // build plus the first full map are seconds each.
        let mut current = base;
        let mut ctx = EvalContext::new();
        let mut e = GroundTruthCost::new(&lib);
        let mut inc = IncrementalAnalysis::new(&current);
        let mut db = CutDb::new(4, 8);
        db.build(&current);
        let _ = e.evaluate_edit(&current, &EditScope::new(&db, 0), &mut ctx);

        // Deterministic counter walk: a fixed-length accepted-append
        // trajectory, accumulating the DP rows each incremental
        // pricing recomputed. Runs before the timed series so the
        // counters see a fixed prefix of the move stream.
        let mut rows_total: u64 = 0;
        let mut fired: u64 = 0;
        let mut state = 1u32;
        for _ in 0..COUNTER_STEPS {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let since = append_move(&mut current, &mut inc, &mut db, state);
            if since == u32::MAX {
                continue;
            }
            let _ = e.evaluate_edit(&current, &EditScope::new(&db, since), &mut ctx);
            rows_total += e.dp_recomputed_rows() as u64;
            fired += 1;
        }
        recorded.push((
            format!("map_incr_rows_per_step_{tag}"),
            rows_total as f64 / fired.max(1) as f64,
        ));
        recorded.push((format!("map_incr_steps_fired_{tag}"), fired as f64));

        // The same move priced through the persistent incremental
        // mapping/timing state (design patch + worklist sizing +
        // worklist STA) — the SA loop's steady-state ground-truth
        // iteration at this size.
        g.bench_function(format!("map_incr_sweep_{tag}"), |b| {
            b.iter(|| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let since = append_move(&mut current, &mut inc, &mut db, state);
                let m = if since != u32::MAX {
                    e.evaluate_edit(&current, &EditScope::new(&db, since), &mut ctx)
                } else {
                    e.evaluate_edit(&current, &EditScope::new(&db, u32::MAX), &mut ctx)
                };
                if current.num_nodes() > cap_nodes {
                    current = current.sweep();
                    inc.rebuild(&current);
                    db.build(&current);
                    let _ = e.evaluate_edit(&current, &EditScope::new(&db, 0), &mut ctx);
                }
                m
            })
        });
    }
    g.finish();
    for (name, value) in &recorded {
        c.record_value("scale_sweep", name, *value);
    }
    let series = |name: String| recorded.iter().find(|(n2, _)| *n2 == name).map(|(_, v)| *v);
    if let (Some(r10), Some(r1m)) = (
        series("map_incr_rows_per_step_10k".into()),
        series("map_incr_rows_per_step_1m".into()),
    ) {
        eprintln!(
            "map_incr_sweep: {r10:.1} DP rows/step at 10k vs {r1m:.1} at 1M — {:.2}x while \
             size grows 100x (gated <= 3x)",
            r1m / r10.max(1e-9)
        );
    }
    if let (Some(soa), Some(aos)) = (
        series("soa_bytes_per_node_1m".into()),
        series("aos_hash_ref_bytes_per_node_1m".into()),
    ) {
        eprintln!(
            "node storage at 1M: {soa:.1} B/node (SoA + open-addressing strash) vs \
             {aos:.1} B/node AoS + std HashMap reference"
        );
    }
    c.save_json(bench_json_path("BENCH_scale.json"))
        .expect("bench report writable");
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
