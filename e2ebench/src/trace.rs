//! Per-layer tracing taken entirely from the benchmark's side.
//!
//! The traced run prices through [`Traced`] evaluators. Their pricers
//! ([`GtPricer`], [`MlPricer`]) call the same public functions of
//! `techmap`, `sta`, `features` and `gbt`, in the same order, as
//! `saopt::GroundTruthCost` and `saopt::MlCost`, so the traced run
//! reproduces the production `SaResult` bit for bit; the benchmark
//! checks that on every traced run.
//!
//! Spans are taken at two levels:
//!
//! * the `CostEvaluator` boundary (`cost.*`): one span per `evaluate`,
//!   `evaluate_edit` and `resync_edit` call;
//! * inside those, one span per call into a layer (`techmap.*`,
//!   `sta.*`, `features.*`, `gbt.*`).
//!
//! The SA loop itself is not instrumented. Its time between two
//! evaluator calls (the *gap*) is charged to the kind of call that
//! follows: a gap before `evaluate` is `transform.whole_move_s`
//! (whole-graph recipe application plus the loop's bookkeeping), a gap
//! before `evaluate_edit` is `transform.inplace_move_s` (the windowed
//! in-place move, including any engine re-sync), and a gap before
//! `resync_edit` is `aig.rollback_s` (Metropolis draw plus the
//! transaction and cut-database rollback). A step runs from the end
//! of the previous step's last evaluator call to the end of its own
//! last call.

use aig::cut::CutDb;
use aig::Aig;
use cells::Library;
use features::{extract, FeatureVector, IncrementalFeatures};
use gbt::{Forest, GbtModel};
use saopt::{CostEvaluator, CostMetrics, EditScope, EvalContext};
use sta::{IncrementalSta, StaBuffers};
use std::time::Instant;
use techmap::{GateId, MapContext, MapOptions, MappedDesign, Mapper, SizingTable};

/// Runs `f` and adds its wall time, in seconds, to `acc`.
fn timed<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// The evaluator hook a call came through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Hook {
    Full,
    Edit,
    Resync,
}

/// Spans and counters of traced SA runs, summed until
/// [`Traced::take_trace`]. Times are seconds; counts are plain counts.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    pub full_calls: u64,
    pub full_s: f64,
    pub edit_calls: u64,
    pub edit_s: f64,
    /// Edit calls whose dirty region touched at least one node.
    pub fired_edits: u64,
    /// Level-recomputed nodes summed over edit calls.
    pub region_nodes: u64,
    pub resync_calls: u64,
    pub resync_s: f64,

    pub map_s: f64,
    pub resize_s: f64,
    pub sync_design_s: f64,
    pub sync_calls: u64,
    pub sync_rebuilds: u64,
    pub dp_rows: u64,
    pub finish_incr_s: f64,
    pub finish_full_s: f64,
    pub area_s: f64,

    pub sta_full_s: f64,
    pub incr_build_s: f64,
    pub incr_update_s: f64,
    pub update_calls: u64,
    pub sta_seeds: u64,
    pub max_delay_s: f64,

    pub extract_s: f64,
    pub incr_sync_s: f64,
    pub incr_rebuild_s: f64,
    pub vector_s: f64,

    pub predict_s: f64,
    pub predict_calls: u64,

    pub whole_move_s: f64,
    pub inplace_move_s: f64,
    pub rollback_s: f64,

    /// Duration of every SA step, in milliseconds.
    pub step_ms: Vec<f64>,
    last_exit: Option<Instant>,
    step_start: Option<Instant>,
}

impl Trace {
    fn enter(&mut self, hook: Hook) -> Instant {
        let now = Instant::now();
        if let Some(prev) = self.last_exit {
            let gap = (now - prev).as_secs_f64();
            match hook {
                Hook::Full => self.whole_move_s += gap,
                Hook::Edit => self.inplace_move_s += gap,
                Hook::Resync => self.rollback_s += gap,
            }
            // Every pricing call after the initial evaluation opens a
            // step; it closes the previous one at its last call's end.
            if hook != Hook::Resync {
                if let Some(start) = self.step_start {
                    self.step_ms.push((prev - start).as_secs_f64() * 1e3);
                }
                self.step_start = Some(prev);
            }
        }
        now
    }

    fn exit(&mut self, hook: Hook, entered: Instant) {
        let now = Instant::now();
        let d = (now - entered).as_secs_f64();
        match hook {
            Hook::Full => {
                self.full_calls += 1;
                self.full_s += d;
            }
            Hook::Edit => {
                self.edit_calls += 1;
                self.edit_s += d;
            }
            Hook::Resync => {
                self.resync_calls += 1;
                self.resync_s += d;
            }
        }
        self.last_exit = Some(now);
    }

    /// Closes the run's last step; call after each SA run returns.
    /// Sums carry over into the next run.
    fn end_run(&mut self) {
        if let (Some(start), Some(end)) = (self.step_start.take(), self.last_exit.take()) {
            self.step_ms.push((end - start).as_secs_f64() * 1e3);
        }
    }
}

/// The pricing behind one production evaluator, with spans around
/// every call into a layer.
pub trait Pricer {
    /// The whole-graph path (`CostEvaluator::evaluate`).
    fn full(&mut self, aig: &Aig, t: &mut Trace) -> CostMetrics;
    /// The in-place path (`evaluate_edit`; `resync_edit` calls it too).
    fn edit(&mut self, aig: &Aig, scope: &EditScope<'_>, t: &mut Trace) -> CostMetrics;
    /// `CostEvaluator::wants_rollback_resync` of the mirrored evaluator.
    fn rollback_resync(&self) -> bool;
    /// `CostEvaluator::name` of the mirrored evaluator.
    fn name(&self) -> &'static str;
}

/// A [`CostEvaluator`] that records a [`Trace`] around a [`Pricer`].
pub struct Traced<'a> {
    pricer: Box<dyn Pricer + 'a>,
    trace: Trace,
}

impl<'a> Traced<'a> {
    pub fn new(pricer: Box<dyn Pricer + 'a>) -> Self {
        Traced {
            pricer,
            trace: Trace::default(),
        }
    }

    /// Ends one SA run (see [`Trace`]'s step definition).
    pub fn end_run(&mut self) {
        self.trace.end_run();
    }

    /// The trace summed over the runs since the last call.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }
}

impl CostEvaluator for Traced<'_> {
    fn evaluate(&mut self, aig: &Aig) -> CostMetrics {
        let entered = self.trace.enter(Hook::Full);
        let m = self.pricer.full(aig, &mut self.trace);
        self.trace.exit(Hook::Full, entered);
        m
    }

    fn evaluate_edit(
        &mut self,
        aig: &Aig,
        scope: &EditScope<'_>,
        _ctx: &mut EvalContext,
    ) -> CostMetrics {
        let entered = self.trace.enter(Hook::Edit);
        if let Some((region, _)) = scope.delta {
            self.trace.region_nodes += region.len() as u64;
            self.trace.fired_edits += u64::from(region.min_touched().is_some());
        }
        let m = self.pricer.edit(aig, scope, &mut self.trace);
        self.trace.exit(Hook::Edit, entered);
        m
    }

    fn resync_edit(&mut self, aig: &Aig, scope: &EditScope<'_>, _ctx: &mut EvalContext) {
        let entered = self.trace.enter(Hook::Resync);
        let _ = self.pricer.edit(aig, scope, &mut self.trace);
        self.trace.exit(Hook::Resync, entered);
    }

    fn wants_rollback_resync(&self) -> bool {
        self.pricer.rollback_resync()
    }

    fn name(&self) -> &'static str {
        self.pricer.name()
    }
}

/// Mirrors `saopt::GroundTruthCost`: full mapping, sizing and STA on
/// the whole-graph path; `Mapper::sync_design`, `MappedDesign::finish_*`
/// and `IncrementalSta` on the in-place path.
pub struct GtPricer<'a> {
    lib: &'a Library,
    mapper: Mapper<'a>,
    map_ctx: MapContext,
    sizing: SizingTable,
    sta_bufs: StaBuffers,
    resize_loads: Vec<f64>,
    design: MappedDesign,
    inc_sta: IncrementalSta,
    sta_seeds: Vec<GateId>,
}

impl<'a> GtPricer<'a> {
    pub fn new(lib: &'a Library) -> Self {
        GtPricer {
            lib,
            mapper: Mapper::new(lib, MapOptions::default()),
            map_ctx: MapContext::new(),
            sizing: SizingTable::new(lib),
            sta_bufs: StaBuffers::new(),
            resize_loads: Vec::new(),
            design: MappedDesign::new(),
            inc_sta: IncrementalSta::new(),
            sta_seeds: Vec::new(),
        }
    }

    fn cut_params_match(&self, cuts: &CutDb) -> bool {
        let opts = self.mapper.options();
        cuts.k() == opts.cut_size && cuts.max_cuts() == opts.max_cuts
    }
}

impl Pricer for GtPricer<'_> {
    fn full(&mut self, aig: &Aig, t: &mut Trace) -> CostMetrics {
        self.design.invalidate();
        let mut nl = timed(&mut t.map_s, || {
            self.mapper.map_with(&mut self.map_ctx, aig)
        })
        .expect("builtin library maps every strashed AIG");
        timed(&mut t.resize_s, || {
            techmap::resize_greedy_with(&mut nl, self.lib, &self.sizing, 2, &mut self.resize_loads)
        });
        let (delay, area) = timed(&mut t.sta_full_s, || {
            sta::delay_and_area_into(&nl, self.lib, &mut self.sta_bufs)
        });
        CostMetrics { delay, area }
    }

    fn edit(&mut self, aig: &Aig, scope: &EditScope<'_>, t: &mut Trace) -> CostMetrics {
        if !self.cut_params_match(scope.cuts) {
            return self.full(aig, t);
        }
        let rebuilt = timed(&mut t.sync_design_s, || {
            self.mapper.sync_design(
                &mut self.map_ctx,
                aig,
                scope.cuts,
                scope.dirty_since,
                &mut self.design,
            )
        })
        .expect("builtin library maps every strashed AIG");
        t.sync_calls += 1;
        t.sync_rebuilds += u64::from(rebuilt);
        t.dp_rows += self.map_ctx.recomputed_rows() as u64;
        if rebuilt {
            timed(&mut t.finish_full_s, || {
                self.design.finish_full(&self.sizing)
            });
            timed(&mut t.incr_build_s, || {
                self.inc_sta
                    .build(self.design.netlist(), self.lib, self.design.topo_keys())
            });
        } else {
            self.sta_seeds.clear();
            timed(&mut t.finish_incr_s, || {
                self.design
                    .finish_incremental(&self.sizing, &mut self.sta_seeds)
            });
            t.update_calls += 1;
            t.sta_seeds += self.sta_seeds.len() as u64;
            timed(&mut t.incr_update_s, || {
                self.inc_sta.update(
                    self.design.netlist(),
                    self.lib,
                    self.design.topo_keys(),
                    &self.sta_seeds,
                )
            });
        }
        let nl = self.design.netlist();
        CostMetrics {
            delay: timed(&mut t.max_delay_s, || self.inc_sta.max_delay_ps(nl)),
            area: timed(&mut t.area_s, || nl.area_um2(self.lib)),
        }
    }

    fn rollback_resync(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "ground-truth"
    }
}

/// Mirrors `saopt::MlCost`: `features::extract` on the whole-graph
/// path, `IncrementalFeatures` on the in-place path, and two
/// `Forest::predict_row_f64` calls per pricing.
pub struct MlPricer {
    delay_forest: Forest,
    area_forest: Forest,
    feats: IncrementalFeatures,
}

impl MlPricer {
    pub fn new(delay_model: &GbtModel, area_model: &GbtModel) -> Self {
        MlPricer {
            delay_forest: Forest::flatten(delay_model),
            area_forest: Forest::flatten(area_model),
            feats: IncrementalFeatures::default(),
        }
    }

    fn metrics_of(&self, f: &FeatureVector, t: &mut Trace) -> CostMetrics {
        t.predict_calls += 2;
        timed(&mut t.predict_s, || CostMetrics {
            delay: self.delay_forest.predict_row_f64(f.as_slice()),
            area: self.area_forest.predict_row_f64(f.as_slice()),
        })
    }
}

impl Pricer for MlPricer {
    fn full(&mut self, aig: &Aig, t: &mut Trace) -> CostMetrics {
        self.feats.invalidate();
        let f = timed(&mut t.extract_s, || extract(aig));
        self.metrics_of(&f, t)
    }

    fn edit(&mut self, aig: &Aig, scope: &EditScope<'_>, t: &mut Trace) -> CostMetrics {
        match scope.delta {
            Some((region, analysis)) if scope.dirty_since > 0 && self.feats.is_valid() => {
                timed(&mut t.incr_sync_s, || {
                    self.feats.sync(aig, region, analysis)
                });
            }
            _ => timed(&mut t.incr_rebuild_s, || self.feats.rebuild(aig)),
        }
        let f = timed(&mut t.vector_s, || self.feats.features(aig));
        self.metrics_of(&f, t)
    }

    fn rollback_resync(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "ml"
    }
}
