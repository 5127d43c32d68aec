//! Component microbenchmarks: the building blocks whose costs explain
//! the flow-level numbers in Fig. 2 and Table IV.
//!
//! `cut_enum_*` measures the signature-pruned allocation-free cut
//! enumeration; `cut_enum_naive_ref_*` measures the retained naive
//! reference implementation in the same run, so the report carries
//! the real speedup on this machine (tracked to stay ≥ 2×). Results
//! are written to `BENCH_components.json` at the workspace root.

use aig::incremental::IncrementalAnalysis;
use aig::{Lit, NodeId};
use bench::{bench_json_path, design_pair, library};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use techmap::{MapContext, MapOptions, Mapper};

/// Transitive-fanout cone size of every node (plan classification
/// only — distinguishes footprint-bounded moves from global ones).
fn fanout_cone_sizes(base: &aig::Aig) -> Vec<u32> {
    let n = base.num_nodes();
    let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for id in base.and_ids() {
        let [f0, f1] = base.fanins(id);
        consumers[f0.var() as usize].push(id);
        consumers[f1.var() as usize].push(id);
    }
    let mut out = vec![0u32; n];
    let mut seen = vec![false; n];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    for id in base.and_ids() {
        stack.push(id);
        while let Some(x) = stack.pop() {
            for &c in &consumers[x as usize] {
                if !seen[c as usize] {
                    seen[c as usize] = true;
                    touched.push(c);
                    stack.push(c);
                }
            }
        }
        out[id as usize] = touched.len() as u32;
        for &t in &touched {
            seen[t as usize] = false;
        }
        touched.clear();
    }
    out
}

fn bench_components(c: &mut Criterion) {
    let (small, large) = design_pair();
    let lib = library();
    let mapper = Mapper::new(&lib, MapOptions::default());
    let netlist = mapper.map(&large.aig).expect("mappable");

    let mut g = c.benchmark_group("components");
    g.sample_size(20);

    g.bench_function("cut_enum_k4_ex28", |b| {
        b.iter(|| aig::cut::enumerate_cuts(black_box(&large.aig), 4, 8))
    });
    g.bench_function("cut_enum_naive_ref_k4_ex28", |b| {
        b.iter(|| aig::cut::enumerate_cuts_naive(black_box(&large.aig), 4, 8))
    });
    g.bench_function("cut_enum_k6_ex28", |b| {
        b.iter(|| aig::cut::enumerate_cuts(black_box(&large.aig), 6, 5))
    });
    g.bench_function("cut_enum_naive_ref_k6_ex28", |b| {
        b.iter(|| aig::cut::enumerate_cuts_naive(black_box(&large.aig), 6, 5))
    });
    g.bench_function("feature_extract_ex28", |b| {
        b.iter(|| features::extract(black_box(&large.aig)))
    });
    // Full Table II extraction (the ML evaluator's per-candidate cost
    // before incremental maintenance) vs `IncrementalFeatures`
    // replaying a *rejected* move (the dominant SA case):
    // transaction substitute → sync + assemble on the edited graph →
    // rollback → re-sync to the restored graph. Every rollback
    // restores the base exactly, so the replay is rebuild-free steady
    // state. The PO cache counters land as `feat_incr_pos_*` work
    // bounds: most per-sync output evaluations must be served from
    // the cache, not recomputed.
    g.bench_function("feat_full_ex28", |b| {
        b.iter(|| features::extract(black_box(&large.aig)))
    });
    let (feat_pos_recomputed, feat_pos_total);
    {
        use aig::incremental::{DirtyRegion, Transaction};
        let base = large.aig.clone();
        // Small transitive-fanout moves: a feature edit re-propagates
        // the PO path-count recurrences through the node's whole
        // downstream cone, so a footprint-bounded SA move is one on a
        // small cone (the same move class `map_dp_*_ex28` replays).
        let cones = fanout_cone_sizes(&base);
        let small: Vec<NodeId> = base
            .and_ids()
            .filter(|&id| cones[id as usize] <= 60)
            .collect();
        // Deterministic plan of rewires onto an earlier small-cone
        // node; every step must actually edit (some nodes have no
        // readers).
        let mut plan: Vec<(NodeId, Lit)> = Vec::new();
        for i in 0..192u64 {
            let node = small[((i.wrapping_mul(2654435761)) % small.len() as u64) as usize];
            let lows: Vec<NodeId> = small.iter().copied().filter(|&v| v < node).collect();
            if lows.is_empty() {
                continue;
            }
            let with = Lit::new(lows[(i as usize).wrapping_mul(13) % lows.len()], i % 4 == 0);
            let mut trial = base.clone();
            let mut tinc = IncrementalAnalysis::new(&trial);
            tinc.substitute(&mut trial, node, with);
            if !tinc.last_dirty().edited().is_empty() {
                plan.push((node, with));
            }
            if plan.len() >= 32 {
                break;
            }
        }
        assert!(plan.len() >= 16, "substitution plan degenerated");
        let mut edited = base.clone();
        let mut inc = IncrementalAnalysis::new(&edited);
        let mut feats = features::IncrementalFeatures::default();
        feats.rebuild(&edited);
        let mut region = DirtyRegion::default();
        let mut step = 0usize;
        g.bench_function("feat_incr_edit_ex28", |b| {
            b.iter(|| {
                let (node, with) = plan[step % plan.len()];
                step += 1;
                let mut txn = Transaction::begin(&mut edited, &mut inc);
                txn.substitute(node, with);
                region.clear();
                region.merge(txn.touched_region());
                feats.sync(txn.aig(), &region, txn.analysis());
                let probe = feats.features(txn.aig());
                txn.rollback();
                feats.sync(&edited, &region, &inc);
                black_box(probe)
            })
        });
        feat_pos_recomputed = feats.pos_recomputed();
        feat_pos_total = feats.pos_evaluated();
    }
    // Batched allocation-free GBT inference: the pre-flattened SoA
    // forest filling a caller-owned output slice vs the per-row
    // boxed-tree walk, on a paper-sized model (120 rounds) over a
    // few thousand feature rows.
    {
        use gbt::Forest;
        let mut data = gbt::Dataset::new(features::NUM_FEATURES);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut row = vec![0.0f32; features::NUM_FEATURES];
        for _ in 0..2048 {
            let mut label = 10.0f32;
            for f in row.iter_mut() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *f = ((state >> 40) as f32) / ((1u32 << 24) as f32);
                label += *f;
            }
            data.push_row(&row, label);
        }
        let model = gbt::train(
            &data,
            &gbt::GbtParams {
                num_rounds: 120,
                seed: 5,
                ..gbt::GbtParams::default()
            },
        );
        let forest = Forest::flatten(&model);
        let mut out = vec![0.0f64; data.len()];
        g.bench_function("gbt_scalar_predict", |b| {
            b.iter(|| {
                let mut acc = 0.0;
                for i in 0..data.len() {
                    acc += model.predict(black_box(data.row(i)));
                }
                acc
            })
        });
        g.bench_function("gbt_batch_predict", |b| {
            b.iter(|| {
                forest.predict_into(black_box(data.features()), &mut out);
                out[out.len() - 1]
            })
        });
    }
    g.bench_function("map_ex00", |b| b.iter(|| mapper.map(black_box(&small.aig))));
    g.bench_function("map_ex28", |b| b.iter(|| mapper.map(black_box(&large.aig))));
    // Context-reusing mapping: same netlists as `map_*`, but the
    // match-shortlist memo, cut arena and DP tables persist across
    // calls (the ground-truth evaluator's steady state). On small
    // designs the per-call memo rebuild dominates fresh `map`.
    let mut map_ctx = MapContext::new();
    g.bench_function("map_ctx_reuse_ex00", |b| {
        b.iter(|| mapper.map_with(&mut map_ctx, black_box(&small.aig)))
    });
    g.bench_function("map_ctx_reuse_ex28", |b| {
        b.iter(|| mapper.map_with(&mut map_ctx, black_box(&large.aig)))
    });

    // Full levels+fanout recompute (the oracle the SA loop used to
    // pay per candidate) vs incremental maintenance of the same state
    // across single-step edits.
    g.bench_function("analysis_full_recompute_ex28", |b| {
        b.iter(|| {
            (
                aig::analysis::levels(black_box(&large.aig)),
                aig::analysis::fanout_counts(black_box(&large.aig)),
            )
        })
    });
    // Single-step output retarget: toggle one PO between two drivers
    // and absorb the edit (O(|PO|), no graph growth).
    {
        let mut edited = large.aig.clone();
        let drv = edited.outputs()[0].lit;
        let ands: Vec<NodeId> = edited.and_ids().collect();
        let alt = Lit::new(ands[ands.len() / 2], false);
        let mut inc = IncrementalAnalysis::new(&edited);
        let mut flip = false;
        g.bench_function("analysis_incr_output_edit_ex28", |b| {
            b.iter(|| {
                flip = !flip;
                edited.set_output(0, if flip { alt } else { drv });
                inc.sync(&edited);
                black_box(inc.max_level())
            })
        });
    }
    // Single-step substitution: rewire one mid-graph node to an input
    // and re-level only its transitive fanout. Substitutions are
    // irreversible, so a fixed plan is replayed and the state is
    // rebuilt once per plan cycle (the rebuild + clone cost is
    // included, amortized over the plan — still a fraction of one
    // full recompute per edit).
    {
        let base = large.aig.clone();
        let ands: Vec<NodeId> = base.and_ids().collect();
        let stride = ((ands.len() / 2) / 64).max(1);
        let plan: Vec<NodeId> = (0..64.min(ands.len() / 2))
            .map(|i| ands[ands.len() / 4 + i * stride])
            .collect();
        let with = Lit::new(base.inputs()[0], false);
        let mut edited = base.clone();
        let mut inc = IncrementalAnalysis::new(&edited);
        let mut step = 0usize;
        g.bench_function("analysis_incr_substitute_ex28", |b| {
            b.iter(|| {
                if step == plan.len() {
                    step = 0;
                    edited = base.clone();
                    inc.rebuild(&edited);
                }
                let dirty = inc.substitute(&mut edited, plan[step], with).len();
                step += 1;
                black_box(dirty)
            })
        });
    }
    // Full cut enumeration vs dirty-region invalidation of a warm cut
    // database: one substitution's footprint worth of lists is
    // recomputed instead of every node's. Same fixed-plan replay
    // scheme as `analysis_incr_substitute_ex28` (rebuild per cycle
    // amortized over the plan).
    g.bench_function("cut_enum_full_ex28", |b| {
        b.iter(|| aig::cut::enumerate_cuts(black_box(&large.aig), 4, 8))
    });
    {
        let base = large.aig.clone();
        let ands: Vec<NodeId> = base.and_ids().collect();
        let stride = ((ands.len() / 2) / 64).max(1);
        let plan: Vec<NodeId> = (0..64.min(ands.len() / 2))
            .map(|i| ands[ands.len() / 4 + i * stride])
            .collect();
        let with = Lit::new(base.inputs()[0], false);
        let mut edited = base.clone();
        let mut inc = IncrementalAnalysis::new(&edited);
        let mut db = aig::cut::CutDb::new(4, 8);
        db.build(&edited);
        let mut step = 0usize;
        g.bench_function("cutdb_invalidate_substitute_ex28", |b| {
            b.iter(|| {
                if step == plan.len() {
                    step = 0;
                    edited = base.clone();
                    inc.rebuild(&edited);
                    db.build(&edited);
                }
                inc.substitute(&mut edited, plan[step], with);
                db.invalidate(&edited, &inc, inc.last_dirty());
                step += 1;
                black_box(db.num_nodes())
            })
        });
    }
    // Incremental DP after a windowed in-place edit, replayed as a
    // *rejected* move (the dominant SA case): trial substitution →
    // sync → rollback → resync. The watermark path
    // (`map_dp_watermark_ex28`, per-row cutoff disabled) recomputes
    // every DP row at or above the edit watermark on both syncs; the
    // per-row cutoff (`map_dp_cutoff_ex28`) recomputes only rows
    // whose cut-list version or leaf rows changed — the true
    // footprint of the move (tracked >= 2x). The fixed plan mixes the
    // two shapes an SA rewire takes: *local* moves (readers rewired
    // to an adjacent earlier node — footprint is the node's arrival/
    // flow cone) and *global* moves (readers of a small side cone
    // rewired to a much earlier equivalent — the watermark drops to
    // the target's id and the old path recomputes nearly every row
    // while the true footprint stays small). Every rollback restores
    // the base graph exactly, so the replay is rebuild-free steady
    // state.
    {
        use aig::incremental::Transaction;
        let base = large.aig.clone();
        let ands: Vec<NodeId> = base.and_ids().collect();
        let cones = fanout_cone_sizes(&base);
        let small: Vec<NodeId> = ands
            .iter()
            .copied()
            .filter(|&id| cones[id as usize] <= 60)
            .collect();
        // Deterministic plan; every step must actually edit and leave
        // the graph mappable (raw substitutions can create live
        // constant nodes no cell matches).
        let mut plan: Vec<(NodeId, Lit)> = Vec::new();
        for i in 0..192u64 {
            let (node, with) = if i % 2 == 0 {
                // Local: a uniformly drawn node, readers rewired to
                // the adjacent earlier AND.
                let k = ((i.wrapping_mul(2654435761)) % (ands.len() as u64 - 1)) as usize + 1;
                (ands[k], Lit::new(ands[k - 1], i % 4 == 0))
            } else {
                // Global: a small-cone node, readers rewired to one
                // of the earliest small-cone nodes.
                let node = small[((i.wrapping_mul(2654435761)) % small.len() as u64) as usize];
                let lows: Vec<NodeId> = small.iter().copied().filter(|&v| v < node).collect();
                if lows.is_empty() {
                    continue;
                }
                let with = lows[(i as usize).wrapping_mul(13) % lows.len().min(20)];
                (node, Lit::new(with, i % 4 == 1))
            };
            let mut trial = base.clone();
            let mut tinc = IncrementalAnalysis::new(&trial);
            tinc.substitute(&mut trial, node, with);
            if !tinc.last_dirty().edited().is_empty() && mapper.map(&trial).is_ok() {
                plan.push((node, with));
            }
            if plan.len() >= 32 {
                break;
            }
        }
        assert!(plan.len() >= 16, "substitution plan degenerated");
        for (name, cutoff) in [
            ("map_dp_watermark_ex28", false),
            ("map_dp_cutoff_ex28", true),
        ] {
            let mut edited = base.clone();
            let mut inc = IncrementalAnalysis::new(&edited);
            let mut db = aig::cut::CutDb::new(4, 8);
            db.build(&edited);
            let mut ctx = MapContext::new();
            ctx.set_row_cutoff(cutoff);
            let mut design = techmap::MappedDesign::new();
            mapper
                .sync_design(&mut ctx, &edited, &db, 0, &mut design)
                .expect("mappable");
            let mut step = 0usize;
            g.bench_function(name, |b| {
                b.iter(|| {
                    let (node, with) = plan[step % plan.len()];
                    step += 1;
                    db.begin_edit();
                    let mut txn = Transaction::begin(&mut edited, &mut inc);
                    txn.substitute(node, with);
                    db.invalidate(txn.aig(), txn.analysis(), txn.analysis().last_dirty());
                    let since = txn.min_touched();
                    // Price the candidate...
                    mapper
                        .sync_design(&mut ctx, txn.aig(), &db, since, &mut design)
                        .expect("mappable");
                    // ...reject it, and re-sync to the restored graph
                    // (the SA loop's `resync_edit` after a reject).
                    txn.rollback();
                    db.rollback_edit();
                    mapper
                        .sync_design(&mut ctx, &edited, &db, since, &mut design)
                        .expect("mappable");
                    black_box(ctx.recomputed_rows())
                })
            });
        }
    }
    g.bench_function("sta_ex28", |b| {
        b.iter(|| sta::delay_and_area(black_box(&netlist), &lib))
    });
    // Full STA (buffer-reusing oracle) vs the incremental engine
    // absorbing one gate edit: the worklist re-propagates only the
    // edited gate's cone, with an equality cutoff (tracked >= 5x).
    {
        let mut bufs = sta::StaBuffers::new();
        g.bench_function("sta_full_ex28", |b| {
            b.iter(|| sta::delay_and_area_into(black_box(&netlist), &lib, &mut bufs))
        });
        let mut tracked = netlist.clone();
        techmap::resize_greedy(&mut tracked, &lib, 2);
        tracked.enable_tracking(&lib);
        let order: Vec<u64> = (0..tracked.num_gates() as u64).collect();
        let mut inc = sta::IncrementalSta::new();
        inc.build(&tracked, &lib, &order);
        // Toggle one mid-netlist gate between two drive variants: a
        // realistic single-gate edit with a non-trivial dirty cone.
        let gid = techmap::GateId(tracked.num_gates() as u32 / 2);
        let variants = lib.drive_variants(tracked.gate(gid).cell);
        let mut seeds = vec![gid];
        for &n in &tracked.gate(gid).inputs {
            if let techmap::NetDriver::Gate(d) = *tracked.driver(n) {
                seeds.push(d);
            }
        }
        let mut flip = false;
        g.bench_function("sta_incr_edit_ex28", |b| {
            b.iter(|| {
                flip = !flip;
                let cell = variants[usize::from(flip) % variants.len()];
                tracked.set_gate_cell(gid, cell);
                inc.update(&tracked, &lib, &order, &seeds);
                black_box(inc.max_delay_ps(&tracked))
            })
        });
    }
    g.bench_function("balance_ex28", |b| {
        b.iter(|| transform::balance(black_box(&large.aig)))
    });
    g.bench_function("rewrite_ex28", |b| {
        b.iter(|| transform::rewrite(black_box(&large.aig)))
    });
    g.bench_function("refactor_ex28", |b| {
        b.iter(|| transform::refactor(black_box(&large.aig)))
    });
    g.bench_function("resub_ex28", |b| {
        b.iter(|| transform::resub(black_box(&large.aig)))
    });
    g.bench_function("resize_ex28", |b| {
        b.iter(|| {
            let mut nl = netlist.clone();
            techmap::resize_greedy(&mut nl, &lib, 2)
        })
    });
    g.bench_function("verilog_export_ex28", |b| {
        b.iter(|| techmap::to_verilog(black_box(&netlist), &lib, "bench"))
    });
    g.bench_function("exhaustive_sim_ex00", |b| {
        b.iter(|| aig::sim::SimTable::exhaustive(black_box(&small.aig)).expect("16 pis"))
    });

    // A fixed-length ground-truth SA chain of in-place rw/rwz moves.
    // The evaluator and context are built once and primed by an
    // untimed warm-up chain, so samples see the steady state (warm
    // caches and buffers) rather than first-run construction cost.
    {
        use transform::{Recipe, Transform};
        let actions = vec![
            Recipe(vec![Transform::Rewrite]),
            Recipe(vec![Transform::RewriteZero]),
        ];
        // Long enough that per-run fixed costs amortize and the
        // per-move steady state dominates the sample.
        let opts = saopt::SaOptions {
            iterations: 400,
            seed: 17,
            ..saopt::SaOptions::default()
        };
        let mut eval = saopt::GroundTruthCost::new(&lib);
        let mut ctx = saopt::EvalContext::new();
        saopt::optimize_with(&large.aig, &mut eval, &actions, &opts, &mut ctx);
        g.bench_function("sa_chain_serial_ex28", |b| {
            b.iter(|| {
                saopt::optimize_with(black_box(&large.aig), &mut eval, &actions, &opts, &mut ctx)
            })
        });
    }

    // The paper's ground-truth flow: a chain over the 103 recipes, so
    // most steps take the whole-graph path through the recipe memo. A
    // fresh context per iteration starts every chain with a cold memo,
    // as a run does. The memo's counters give the deterministic work
    // bound: primitive applications the chain requested vs computed.
    let (prims_requested, prims_computed) = {
        let actions = transform::recipes();
        let opts = saopt::SaOptions {
            iterations: 150,
            seed: 17,
            ..saopt::SaOptions::default()
        };
        let mut eval = saopt::GroundTruthCost::new(&lib);
        g.bench_function("sa_chain_paper_ex28", |b| {
            b.iter(|| {
                let mut ctx = saopt::EvalContext::new();
                saopt::optimize_with(black_box(&large.aig), &mut eval, &actions, &opts, &mut ctx)
            })
        });
        let mut ctx = saopt::EvalContext::new();
        saopt::optimize_with(&large.aig, &mut eval, &actions, &opts, &mut ctx);
        let memo = ctx.recipe_memo();
        (memo.hits() + memo.misses(), memo.misses())
    };
    g.finish();

    for k in ["k4", "k6"] {
        let fast = c.median_ns("components", &format!("cut_enum_{k}_ex28"));
        let naive = c.median_ns("components", &format!("cut_enum_naive_ref_{k}_ex28"));
        if let (Some(fast), Some(naive)) = (fast, naive) {
            eprintln!(
                "cut_enum {k}: {:.2}x faster than naive reference",
                naive / fast
            );
        }
    }
    let full = c.median_ns("components", "analysis_full_recompute_ex28");
    for name in [
        "analysis_incr_output_edit_ex28",
        "analysis_incr_substitute_ex28",
    ] {
        if let (Some(full), Some(incr)) = (full, c.median_ns("components", name)) {
            eprintln!(
                "{name}: {:.1}x faster than full recompute (tracked >= 5x)",
                full / incr
            );
        }
    }
    for ex in ["ex00", "ex28"] {
        if let (Some(fresh), Some(reused)) = (
            c.median_ns("components", &format!("map_{ex}")),
            c.median_ns("components", &format!("map_ctx_reuse_{ex}")),
        ) {
            eprintln!("map_ctx_reuse {ex}: {:.2}x vs fresh map", fresh / reused);
        }
    }
    c.record_value(
        "components",
        "feat_incr_pos_recomputed",
        feat_pos_recomputed as f64,
    );
    c.record_value("components", "feat_incr_pos_total", feat_pos_total as f64);
    c.record_value(
        "components",
        "sa_paper_prims_requested_ex28",
        prims_requested as f64,
    );
    c.record_value(
        "components",
        "sa_paper_prims_computed_ex28",
        prims_computed as f64,
    );
    eprintln!(
        "sa_chain_paper_ex28: {prims_computed}/{prims_requested} primitive applications \
         computed (recipe memo; tracked requested >= 1.25x computed)"
    );
    if let (Some(full), Some(incr)) = (
        c.median_ns("components", "feat_full_ex28"),
        c.median_ns("components", "feat_incr_edit_ex28"),
    ) {
        eprintln!(
            "feat_incr_edit_ex28: {:.1}x faster than full extraction (tracked >= 5x; \
             PO cache: {feat_pos_recomputed}/{feat_pos_total} recomputed)",
            full / incr
        );
    }
    if let (Some(scalar), Some(batch)) = (
        c.median_ns("components", "gbt_scalar_predict"),
        c.median_ns("components", "gbt_batch_predict"),
    ) {
        eprintln!(
            "gbt_batch_predict: {:.2}x faster than the per-row tree walk (tracked >= 2x)",
            scalar / batch
        );
    }
    if let (Some(full), Some(incr)) = (
        c.median_ns("components", "cut_enum_full_ex28"),
        c.median_ns("components", "cutdb_invalidate_substitute_ex28"),
    ) {
        eprintln!(
            "cutdb_invalidate_substitute_ex28: {:.1}x faster than full cut enumeration (tracked >= 5x)",
            full / incr
        );
    }
    if let (Some(full), Some(incr)) = (
        c.median_ns("components", "sta_full_ex28"),
        c.median_ns("components", "sta_incr_edit_ex28"),
    ) {
        eprintln!(
            "sta_incr_edit_ex28: {:.1}x faster than full STA (tracked >= 5x)",
            full / incr
        );
    }
    if let (Some(watermark), Some(cutoff)) = (
        c.median_ns("components", "map_dp_watermark_ex28"),
        c.median_ns("components", "map_dp_cutoff_ex28"),
    ) {
        eprintln!(
            "map_dp_cutoff_ex28: {:.1}x faster than the watermark DP recompute (tracked >= 2x)",
            watermark / cutoff
        );
    }
    c.save_json(bench_json_path("BENCH_components.json"))
        .expect("bench report writable");
}

criterion_group!(benches, bench_components);
criterion_main!(benches);
