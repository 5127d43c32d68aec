//! End-to-end benchmark of the paper's simulated-annealing flow.
//!
//! Four workloads cross two move vocabularies with two pricings (see
//! [`WORKLOADS`]). Each starts from `experiments::datagen::degrade`
//! of a `benchgen` design, as the paper's Fig. 5 does, and hands the
//! SA run nothing but the degraded design's AIGER bytes. A run is one
//! serial chain through `saopt::optimize_with` with default
//! `SaOptions` (no speculation); an invocation runs cycles of
//! [`Workload::chains`] runs on seeds derived from its own.
//!
//! [`measure`] gives the end-to-end metrics from the production
//! evaluators; [`measure_traced`] gives the per-layer metrics from a
//! traced run (see [`trace`]) and checks it against a production run.
//! Every run's output is checked; see [`run_once`].

pub mod trace;

use benchgen::Design;
use cells::Library;
use experiments::table3::{train_models, Corpus};
use gbt::{GbtModel, GbtParams};
use saopt::{
    CostEvaluator, CostMetrics, EvalContext, GroundTruthCost, MlCost, SaOptions, SaResult,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::{GtPricer, MlPricer, Trace, Traced};
use transform::Recipe;

/// How candidates are priced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pricing {
    /// `saopt::GroundTruthCost`: mapping, sizing and STA.
    GroundTruth,
    /// `saopt::MlCost`: Table II features and GBT inference.
    Ml,
}

/// Which recipe vocabulary the chain draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Moves {
    /// The paper's 103 recipes (`transform::recipes`); most take the
    /// whole-graph path.
    Paper,
    /// The six single-step recipes that run as in-place moves.
    Inplace,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// The design degraded into the run's input.
    pub design: fn() -> Design,
    /// Recipe vocabulary.
    pub moves: Moves,
    /// Pricing.
    pub pricing: Pricing,
    /// SA steps per run.
    pub steps: usize,
    /// Runs per cycle, one SA chain each, on seeds
    /// [`chain_seed`]`(seed, 0..chains)`. The SA trajectory, and with
    /// it the graph size every later step works on, depends on the
    /// seed; aggregating several chains keeps the metrics of one
    /// invocation close to those of the next seed's.
    pub chains: usize,
}

/// The workloads. `ex11` is an unseen test design of the paper's
/// split; `large_100k` is the repository's large tier, where an
/// in-place step's cost should track its footprint, not the graph.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_gt_ex11",
        design: benchgen::ex11,
        moves: Moves::Paper,
        pricing: Pricing::GroundTruth,
        steps: 300,
        chains: 6,
    },
    Workload {
        name: "paper_ml_ex11",
        design: benchgen::ex11,
        moves: Moves::Paper,
        pricing: Pricing::Ml,
        steps: 300,
        chains: 6,
    },
    Workload {
        name: "inplace_gt_large100k",
        design: benchgen::large_100k,
        moves: Moves::Inplace,
        pricing: Pricing::GroundTruth,
        steps: 300,
        chains: 1,
    },
    Workload {
        name: "inplace_ml_large100k",
        design: benchgen::large_100k,
        moves: Moves::Inplace,
        pricing: Pricing::Ml,
        steps: 600,
        chains: 3,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|w| w.name == name).copied()
}

/// Labeled variants per design for the ML models' training corpus.
const TRAIN_SAMPLES: usize = 60;
/// Random-simulation words of the equivalence check (64 patterns
/// each) on designs too wide for exhaustive simulation.
const EQUIV_WORDS: usize = 16;

/// Everything a run needs that set-up produced.
pub struct Prepared {
    /// The degraded design as binary AIGER: the program's only input.
    pub input: Vec<u8>,
    /// AND count of the input.
    pub ands: usize,
    /// The cell library.
    pub lib: Library,
    /// The chain's recipe vocabulary.
    pub actions: Vec<Recipe>,
    /// Delay and area models (ML workloads only).
    pub models: Option<(GbtModel, GbtModel)>,
}

/// Generates, degrades and serializes the workload's design, and for
/// ML workloads labels the training corpus and trains both models.
pub fn prepare(w: &Workload, seed: u64) -> Prepared {
    let design = (w.design)();
    let degraded = experiments::datagen::degrade(&design.aig, seed);
    let models = (w.pricing == Pricing::Ml).then(|| {
        let cfg = experiments::Config {
            samples: TRAIN_SAMPLES,
            seed,
            ..experiments::Config::smoke()
        };
        let params = GbtParams {
            seed,
            ..GbtParams::default()
        };
        train_models(&Corpus::generate(&cfg), &params)
    });
    let actions = match w.moves {
        Moves::Paper => transform::recipes(),
        Moves::Inplace => ["rw", "rwz", "rf", "rfz", "b", "rsb"]
            .iter()
            .map(|s| s.parse().expect("in-place mnemonics parse"))
            .collect(),
    };
    Prepared {
        input: aig::aiger::to_binary(&degraded),
        ands: degraded.num_ands(),
        lib: cells::sky130ish(),
        actions,
        models,
    }
}

/// The production evaluator: `MlCost` when set-up trained models,
/// `GroundTruthCost` otherwise.
pub fn production_evaluator(p: &Prepared) -> Box<dyn CostEvaluator + '_> {
    match &p.models {
        Some((delay, area)) => Box::new(MlCost::new(delay, area)),
        None => Box::new(GroundTruthCost::new(&p.lib)),
    }
}

/// The traced evaluator mirroring [`production_evaluator`].
pub fn traced_evaluator(p: &Prepared) -> Traced<'_> {
    match &p.models {
        Some((delay, area)) => Traced::new(Box::new(MlPricer::new(delay, area))),
        None => Traced::new(Box::new(GtPricer::new(&p.lib))),
    }
}

/// One run: ingest, the SA chain, the output checks and the export.
pub struct RunRecord {
    /// The chain's result.
    pub result: SaResult,
    /// The best AIG as `aiger::to_ascii` writes it, unswept.
    pub best_text: String,
    /// The exported best AIG: swept, then binary AIGER.
    pub exported: Vec<u8>,
    /// Fresh ground-truth metrics of the best AIG.
    pub fresh: CostMetrics,
    /// Wall time of the whole run, seconds.
    pub run_s: f64,
    /// Wall time of `optimize_with`, seconds.
    pub sa_s: f64,
    /// AIGER parse of the input, seconds.
    pub ingest_s: f64,
    /// Equivalence check of the best AIG against the input, seconds.
    pub equiv_s: f64,
    /// AIGER export of the best AIG, seconds.
    pub export_s: f64,
    /// Re-parse and re-export of the exported bytes, seconds.
    pub roundtrip_s: f64,
    /// Fresh evaluations of the best AIG (ground truth, plus the ML
    /// pricing on ML workloads), seconds.
    pub fresh_eval_s: f64,
    /// Checks that failed; empty on a correct run.
    pub problems: Vec<String>,
}

impl RunRecord {
    /// `|flow's best delay - fresh GT delay| / fresh GT delay`, in %.
    pub fn pred_delay_err_pct(&self) -> f64 {
        (self.result.best_metrics.delay - self.fresh.delay).abs() / self.fresh.delay * 100.0
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs one chain on `p` with `eval` and checks its output:
///
/// * `aig::sim::equiv_auto` of the best AIG against the input;
/// * an AIGER `to_binary` → `from_binary` → `to_binary` byte round
///   trip of the exported AIG;
/// * the flow's reported best metrics against a fresh whole-graph
///   evaluation by the same pricing (`GroundTruthCost` or `MlCost`),
///   bit for bit;
/// * a fresh `GroundTruthCost::evaluate` of the best AIG, which must
///   be positive; under ML pricing, comparing it with the reported
///   delay gives the model error ([`RunRecord::pred_delay_err_pct`]);
/// * the chain's shape (one history entry per step).
///
/// A panic or a typed error is returned as `Err`.
pub fn run_once(
    w: &Workload,
    p: &Prepared,
    seed: u64,
    eval: &mut dyn CostEvaluator,
) -> Result<RunRecord, String> {
    let opts = SaOptions {
        iterations: w.steps,
        seed,
        ..SaOptions::default()
    };
    catch_unwind(AssertUnwindSafe(|| {
        let t_run = Instant::now();
        let t = Instant::now();
        let input = aig::aiger::from_binary(&p.input).map_err(|e| format!("ingest: {e}"))?;
        let ingest_s = secs(t);

        let t = Instant::now();
        let result = saopt::optimize_with(&input, eval, &p.actions, &opts, &mut EvalContext::new());
        let sa_s = secs(t);

        let mut problems = Vec::new();
        let t = Instant::now();
        match aig::sim::equiv_auto(&input, &result.best, EQUIV_WORDS, seed) {
            Ok(true) => {}
            Ok(false) => problems.push("best AIG is not equivalent to the input".to_owned()),
            Err(e) => problems.push(format!("equivalence check: {e}")),
        }
        let equiv_s = secs(t);

        // `aiger::to_binary` writes ANDs in node-id order, which is
        // not topological once in-place moves have appended fresh
        // cones below their readers; such a graph is swept into
        // topological order before export.
        let t = Instant::now();
        let exported = aig::aiger::to_binary(&result.best.sweep());
        let export_s = secs(t);

        let t = Instant::now();
        match aig::aiger::from_binary(&exported) {
            Ok(back) if aig::aiger::to_binary(&back) == exported => {}
            Ok(_) => problems.push("AIGER round trip changed the bytes".to_owned()),
            Err(e) => problems.push(format!("AIGER re-parse: {e}")),
        }
        let roundtrip_s = secs(t);

        // The flow's reported metrics must equal a fresh whole-graph
        // evaluation by its own pricing, bit for bit: incremental
        // pricing (DP rows, patched netlist, incremental STA or
        // incremental features) must not drift from the full path.
        let t = Instant::now();
        let fresh = GroundTruthCost::new(&p.lib).evaluate(&result.best);
        let full = match &p.models {
            Some((delay, area)) => MlCost::new(delay, area).evaluate(&result.best),
            None => fresh,
        };
        let fresh_eval_s = secs(t);
        let run_s = secs(t_run);

        let reported = result.best_metrics;
        if reported.delay.to_bits() != full.delay.to_bits()
            || reported.area.to_bits() != full.area.to_bits()
        {
            problems.push(format!(
                "reported best metrics {reported:?} differ from a fresh evaluation {full:?}"
            ));
        }
        if !(fresh.delay > 0.0 && fresh.area > 0.0 && reported.delay.is_finite()) {
            problems.push(format!("fresh ground truth {fresh:?} is not positive"));
        }
        if result.history.len() != w.steps || result.evaluated.len() != w.steps + 1 {
            problems.push("chain did not run every step".to_owned());
        }
        Ok(RunRecord {
            best_text: aig::aiger::to_ascii(&result.best),
            result,
            exported,
            fresh,
            run_s,
            sa_s,
            ingest_s,
            equiv_s,
            export_s,
            roundtrip_s,
            fresh_eval_s,
            problems,
        })
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    })
}

/// Whether two runs produced the same `SaResult`, bit for bit:
/// history, evaluated metrics, accepted count and the best AIG's
/// bytes.
pub fn same_result(a: &RunRecord, b: &RunRecord) -> bool {
    let bits = |m: &CostMetrics| (m.delay.to_bits(), m.area.to_bits());
    let (ra, rb) = (&a.result, &b.result);
    ra.accepted == rb.accepted
        && ra.history.len() == rb.history.len()
        && ra
            .history
            .iter()
            .zip(&rb.history)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && ra.evaluated.len() == rb.evaluated.len()
        && ra
            .evaluated
            .iter()
            .zip(&rb.evaluated)
            .all(|(x, y)| bits(x) == bits(y))
        && bits(&ra.best_metrics) == bits(&rb.best_metrics)
        && a.best_text == b.best_text
        && a.exported == b.exported
}

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `ms`, `1/s`, `MB`, `ps`, `um2`, `%`, `count`).
    pub unit: &'static str,
}

/// What one invocation measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a check, panicked or returned an error.
    pub failed: u64,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
    /// One line per failure.
    pub problems: Vec<String>,
    /// AND count of the workload's input.
    pub ands: usize,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0..=100) of `v`.
fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// An untraced invocation sets up at least [`SETUP_MIN_REPEATS`]
/// times, and keeps repeating a cheap set-up until
/// [`SETUP_MIN_SECONDS`] have passed or [`SETUP_MAX_REPEATS`] are
/// done; `setup_s` is the median.
pub const SETUP_MIN_REPEATS: usize = 3;
/// See [`SETUP_MIN_REPEATS`].
pub const SETUP_MAX_REPEATS: usize = 50;
/// See [`SETUP_MIN_REPEATS`].
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// SA seed of chain `chain` of an invocation with workload seed
/// `seed`. Chain 0 runs on the workload seed itself.
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    seed.wrapping_add((chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs `cycle` until `budget` would be exceeded by one more cycle of
/// the last cycle's length (at least once).
fn repeat_within(budget: Duration, mut cycle: impl FnMut()) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        cycle();
        if start.elapsed().as_secs_f64() + secs(t) > budget.as_secs_f64() {
            break;
        }
    }
}

/// Mean of `v`; 0 when empty.
fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The untraced invocation: repeated set-ups (see
/// [`SETUP_MIN_REPEATS`]), then cycles of every chain of the workload
/// (see [`Workload::chains`]) with the production evaluator, repeated
/// for `budget`. Every repeat of a chain must reproduce its first run
/// bit for bit.
///
/// Metrics: `setup_s` (median set-up), `run_s` (mean over chains of
/// each chain's median run), `steps_per_s` (steps of all chains over
/// the sum of each chain's median `optimize_with` time),
/// `peak_rss_mb`, and `best_delay_ps` / `best_area_um2` (medians over
/// chains).
pub fn measure(w: &Workload, seed: u64, budget: Duration) -> Report {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut prepared: Option<Prepared> = None;
    while setup_s.len() < SETUP_MIN_REPEATS
        || (setup_s.len() < SETUP_MAX_REPEATS && setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        let t = Instant::now();
        let p = prepare(w, seed);
        drop(production_evaluator(&p));
        setup_s.push(secs(t));
        if let Some(first) = &prepared {
            assert!(first.input == p.input, "set-up is not deterministic");
        }
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let mut eval = production_evaluator(&p);

    let mut report = Report {
        ands: p.ands,
        ..Report::default()
    };
    let mut first: Vec<Option<RunRecord>> = (0..w.chains).map(|_| None).collect();
    let mut run_s = vec![Vec::new(); w.chains];
    let mut sa_s = vec![Vec::new(); w.chains];
    repeat_within(budget, || {
        for c in 0..w.chains {
            report.attempted += 1;
            match run_once(w, &p, chain_seed(seed, c), eval.as_mut()) {
                Ok(r) if !r.problems.is_empty() => {
                    report.fail(format!("chain {c}: {}", r.problems.join("; ")));
                }
                Ok(r) if first[c].as_ref().is_some_and(|f| !same_result(f, &r)) => {
                    report.fail(format!("chain {c}: a repeated run diverged from the first"));
                }
                Ok(r) => {
                    run_s[c].push(r.run_s);
                    sa_s[c].push(r.sa_s);
                    first[c].get_or_insert(r);
                }
                Err(e) => report.fail(format!("chain {c}: {e}")),
            }
        }
    });
    let chain_run_s: Vec<f64> = run_s.iter().map(|v| median(v)).collect();
    let chain_sa_s: f64 = sa_s.iter().map(|v| median(v)).sum();
    let fresh: Vec<CostMetrics> = first.iter().flatten().map(|r| r.fresh).collect();
    report.push("setup_s", median(&setup_s), "s");
    report.push("run_s", mean(&chain_run_s), "s");
    report.push(
        "steps_per_s",
        (w.chains * w.steps) as f64 / chain_sa_s,
        "1/s",
    );
    report.push("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    let delays: Vec<f64> = fresh.iter().map(|m| m.delay).collect();
    let areas: Vec<f64> = fresh.iter().map(|m| m.area).collect();
    report.push("best_delay_ps", median(&delays), "ps");
    report.push("best_area_um2", median(&areas), "um2");
    report
}

/// Per-layer metrics whose values are exact functions of the workload
/// and seed: they repeat across runs and across thread counts.
pub const DETERMINISTIC: [&str; 21] = [
    "quality.best_delay_ps",
    "quality.best_area_um2",
    "quality.pred_delay_err_pct",
    "aig.ands",
    "saopt.steps",
    "saopt.accepted",
    "saopt.accept_rate",
    "saopt.inplace_frac",
    "saopt.edit_fired",
    "saopt.fired_frac",
    "saopt.step_samples",
    "cost.full_calls",
    "cost.edit_calls",
    "cost.resync_calls",
    "cost.region_nodes_mean",
    "techmap.sync_calls",
    "techmap.sync_rebuilds",
    "techmap.dp_rows_per_call",
    "sta.update_calls",
    "sta.seeds_per_call",
    "gbt.predict_calls",
];

/// The traced invocation: one set-up, then cycles over the workload's
/// chains, each chain as a production run followed by a traced run,
/// repeated for `budget`. Each traced run must reproduce its
/// production run bit for bit, and every cycle must repeat the first
/// cycle's deterministic metrics. The per-layer metrics are those of
/// the last cycle, summed over its chains.
pub fn measure_traced(w: &Workload, seed: u64, budget: Duration) -> Report {
    let p = prepare(w, seed);
    let mut eval = production_evaluator(&p);
    let mut traced = traced_evaluator(&p);
    let mut report = Report {
        ands: p.ands,
        ..Report::default()
    };
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last: Option<(Vec<RunRecord>, Trace)> = None;
    let mut first_layers: Option<Vec<Metric>> = None;
    repeat_within(budget, || {
        let mut runs = Vec::with_capacity(w.chains);
        for c in 0..w.chains {
            report.attempted += 2;
            let s = chain_seed(seed, c);
            let plain = run_once(w, &p, s, eval.as_mut());
            let run = run_once(w, &p, s, &mut traced);
            traced.end_run();
            let (plain, run) = match (plain, run) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => {
                    for e in [a.err(), b.err()].into_iter().flatten() {
                        report.fail(format!("chain {c}: {e}"));
                    }
                    continue;
                }
            };
            for r in [&plain, &run] {
                if !r.problems.is_empty() {
                    report.fail(format!("chain {c}: {}", r.problems.join("; ")));
                }
            }
            if !same_result(&plain, &run) {
                report.fail(format!(
                    "chain {c}: traced run diverged from the production run"
                ));
            }
            plain_s.push(plain.run_s);
            traced_s.push(run.run_s);
            runs.push(run);
        }
        let trace = traced.take_trace();
        let det: Vec<Metric> = layer_metrics(p.ands, &runs, &trace, 0.0)
            .into_iter()
            .filter(|m| DETERMINISTIC.contains(&m.name))
            .collect();
        match &first_layers {
            Some(f) if *f != det => {
                report.fail("a repeated cycle changed a deterministic metric".to_owned());
            }
            Some(_) => {}
            None => first_layers = Some(det),
        }
        last = Some((runs, trace));
    });
    if let Some((runs, trace)) = &last {
        let overhead = (median(&traced_s) / median(&plain_s) - 1.0) * 100.0;
        report.metrics = layer_metrics(p.ands, runs, trace, overhead);
    }
    report
}

/// The per-layer metrics of one traced cycle: sums over its runs,
/// except the quality metrics, which are medians over them.
fn layer_metrics(ands: usize, runs: &[RunRecord], t: &Trace, overhead_pct: f64) -> Vec<Metric> {
    let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
    let sum = |f: fn(&RunRecord) -> f64| runs.iter().map(f).sum::<f64>();
    let med = |f: fn(&RunRecord) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let steps = t.step_ms.len();
    let accepted = runs.iter().map(|r| r.result.accepted).sum::<usize>();
    // The highest percentile with at least ten samples beyond it.
    let tail_pct = [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|q| steps as f64 * (1.0 - q / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let (ingest_s, equiv_s, export_s) =
        (sum(|r| r.ingest_s), sum(|r| r.equiv_s), sum(|r| r.export_s));
    let (roundtrip_s, fresh_eval_s, wall_s) = (
        sum(|r| r.roundtrip_s),
        sum(|r| r.fresh_eval_s),
        sum(|r| r.run_s),
    );
    let named_s = ingest_s
        + t.full_s
        + t.edit_s
        + t.resync_s
        + t.whole_move_s
        + t.inplace_move_s
        + t.rollback_s
        + equiv_s
        + export_s
        + roundtrip_s
        + fresh_eval_s;
    let mut r = Report::default();
    r.push("quality.best_delay_ps", med(|r| r.fresh.delay), "ps");
    r.push("quality.best_area_um2", med(|r| r.fresh.area), "um2");
    r.push(
        "quality.pred_delay_err_pct",
        med(RunRecord::pred_delay_err_pct),
        "%",
    );
    r.push("aig.ands", ands as f64, "count");

    r.push("saopt.steps", steps as f64, "count");
    r.push("saopt.accepted", accepted as f64, "count");
    r.push(
        "saopt.accept_rate",
        per(accepted as f64, steps as u64),
        "ratio",
    );
    r.push(
        "saopt.inplace_frac",
        per(t.edit_calls as f64, steps as u64),
        "ratio",
    );
    r.push("saopt.edit_fired", t.fired_edits as f64, "count");
    r.push(
        "saopt.fired_frac",
        per(t.fired_edits as f64, t.edit_calls),
        "ratio",
    );
    r.push("saopt.step_ms_p50", percentile(&t.step_ms, 50.0), "ms");
    r.push("saopt.step_ms_tail", percentile(&t.step_ms, tail_pct), "ms");
    r.push("saopt.step_tail_pct", tail_pct, "%");
    r.push("saopt.step_samples", steps as f64, "count");
    r.push("saopt.run_s", sum(|r| r.sa_s), "s");

    r.push("cost.full_calls", t.full_calls as f64, "count");
    r.push("cost.full_s", t.full_s, "s");
    r.push("cost.edit_calls", t.edit_calls as f64, "count");
    r.push("cost.edit_s", t.edit_s, "s");
    r.push("cost.resync_calls", t.resync_calls as f64, "count");
    r.push("cost.resync_s", t.resync_s, "s");
    r.push(
        "cost.region_nodes_mean",
        per(t.region_nodes as f64, t.edit_calls),
        "count",
    );

    r.push("techmap.map_s", t.map_s, "s");
    r.push("techmap.resize_s", t.resize_s, "s");
    r.push("techmap.sync_design_s", t.sync_design_s, "s");
    r.push("techmap.sync_calls", t.sync_calls as f64, "count");
    r.push("techmap.sync_rebuilds", t.sync_rebuilds as f64, "count");
    r.push(
        "techmap.dp_rows_per_call",
        per(t.dp_rows as f64, t.sync_calls),
        "count",
    );
    r.push("techmap.finish_incr_s", t.finish_incr_s, "s");
    r.push("techmap.finish_full_s", t.finish_full_s, "s");
    r.push("techmap.area_s", t.area_s, "s");

    r.push("sta.full_s", t.sta_full_s, "s");
    r.push("sta.incr_build_s", t.incr_build_s, "s");
    r.push("sta.incr_update_s", t.incr_update_s, "s");
    r.push("sta.update_calls", t.update_calls as f64, "count");
    r.push("sta.max_delay_s", t.max_delay_s, "s");
    r.push(
        "sta.seeds_per_call",
        per(t.sta_seeds as f64, t.update_calls),
        "count",
    );

    r.push("features.extract_s", t.extract_s, "s");
    r.push("features.incr_sync_s", t.incr_sync_s, "s");
    r.push("features.incr_rebuild_s", t.incr_rebuild_s, "s");
    r.push("features.vector_s", t.vector_s, "s");

    r.push("gbt.predict_s", t.predict_s, "s");
    r.push("gbt.predict_calls", t.predict_calls as f64, "count");

    r.push("transform.whole_move_s", t.whole_move_s, "s");
    r.push("transform.inplace_move_s", t.inplace_move_s, "s");

    r.push("aig.ingest_s", ingest_s, "s");
    r.push("aig.export_s", export_s, "s");
    r.push("aig.equiv_s", equiv_s, "s");
    r.push("aig.roundtrip_s", roundtrip_s, "s");
    r.push("aig.rollback_s", t.rollback_s, "s");
    r.push("check.fresh_eval_s", fresh_eval_s, "s");

    r.push("trace.wall_s", wall_s, "s");
    r.push("trace.unattributed_s", wall_s - named_s, "s");
    r.push("trace.overhead_pct", overhead_pct, "%");
    r.metrics
}
