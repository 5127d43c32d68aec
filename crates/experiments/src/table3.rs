//! Table III — timing-prediction accuracy with cross-design
//! generalization.
//!
//! Four designs train the model (ex00, ex08, ex28, ex68); four unseen
//! designs test it (ex02, ex11, ex16, ex54). [`Corpus`] labels only
//! the training split, which is all the models read, so the ML flow's
//! set-up ([`Corpus::generate`] plus [`train_models`]) labels no test
//! design; [`run`] labels the test split itself for its rows.
//! Accuracy is reported as the mean / max / standard deviation of the
//! absolute percentage error, exactly as in the paper (which reports
//! 4.03% average mean error and 39.85% worst max error at 40k samples
//! per design).

use crate::datagen::{labeled_set, LabeledSet, Target};
use crate::Config;
use benchgen::{iwls_like_suite, Design, TRAIN_DESIGNS};
use cells::sky130ish;
use gbt::{pct_error_stats, train_with_validation, Dataset, GbtModel, GbtParams, PctErrorStats};

/// The labeled training corpus: the sets of the four `TRAIN_DESIGNS`,
/// the only rows the models train on.
#[derive(Clone, Debug)]
pub struct Corpus {
    /// Labeled sets of the training designs, suite order.
    pub sets: Vec<LabeledSet>,
}

impl Corpus {
    /// Generates `cfg.samples` labeled variants per training design,
    /// one design per parallel task (variant walks are sequential per
    /// design, so the design sweep is the natural outer parallelism).
    ///
    /// The design at suite index `i` walks on seed
    /// `cfg.seed + 100 + i` in either split. So the training rows do
    /// not depend on which designs are labeled beside them, and they
    /// are the rows a corpus of all eight designs would hold.
    pub fn generate(cfg: &Config) -> Corpus {
        Corpus {
            sets: label_split(cfg, true),
        }
    }

    /// Whether `design` belongs to the training split.
    pub fn is_train(design: &str) -> bool {
        TRAIN_DESIGNS.contains(&design)
    }

    /// Concatenated dataset over the corpus's sets.
    pub fn train_dataset(&self, target: Target) -> Dataset {
        let mut d = Dataset::new(features::NUM_FEATURES);
        for set in &self.sets {
            d.extend_from(&set.to_dataset(target));
        }
        d
    }
}

/// Labels `cfg.samples` variants of every suite design in the
/// training (`train`) or test split, one design per parallel task,
/// the design at suite index `i` on seed `cfg.seed + 100 + i`.
fn label_split(cfg: &Config, train: bool) -> Vec<LabeledSet> {
    let lib = sky130ish();
    let split: Vec<(usize, Design)> = iwls_like_suite()
        .into_iter()
        .enumerate()
        .filter(|(_, d)| Corpus::is_train(&d.name) == train)
        .collect();
    aig::par::par_map(&split, |_, (i, d)| {
        let seed = cfg.seed.wrapping_add(100 + *i as u64);
        labeled_set(d, cfg.samples, seed, &lib)
    })
}

/// Trains the delay and area models on the corpus (10% of its rows
/// held out for early stopping), both at once through
/// [`aig::par::par_map`]. Each model is a pure function of its dataset
/// and `params`, so both are identical at any `AIG_THREADS`.
pub fn train_models(corpus: &Corpus, params: &GbtParams) -> (GbtModel, GbtModel) {
    let models = aig::par::par_map(&[Target::Delay, Target::Area], |_, &target| {
        let full = corpus.train_dataset(target);
        let (tr, va) = full.shuffle_split(0.9, params.seed.wrapping_add(13));
        train_with_validation(&tr, Some(&va), params).0
    });
    let [delay, area]: [GbtModel; 2] = models.try_into().expect("one model per target");
    (delay, area)
}

/// One accuracy row of Table III.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Design name.
    pub design: String,
    /// Whether the design was in the training split.
    pub train: bool,
    /// AND-node range over the design's variants.
    pub node_range: (f64, f64),
    /// Absolute %error statistics of the delay prediction.
    pub stats: PctErrorStats,
}

/// Output of the Table III experiment.
#[derive(Clone, Debug)]
pub struct Table3Result {
    /// Per-design rows, suite order (training designs first).
    pub rows: Vec<Table3Row>,
    /// Average of the per-design mean %errors (paper: 4.03%).
    pub avg_mean: f64,
    /// Worst max %error (paper: 39.85%).
    pub max_max: f64,
    /// Average of the per-design std %errors (paper: 3.27%).
    pub avg_std: f64,
    /// The trained delay model.
    pub delay_model: GbtModel,
    /// The trained area model.
    pub area_model: GbtModel,
    /// The training corpus the models were trained on (reusable by
    /// downstream experiments). The test designs' sets are labeled
    /// only for their rows and not kept.
    pub corpus: Corpus,
}

/// Runs the experiment: trains both models on a fresh [`Corpus`],
/// labels the test split on its suite-index seeds, and scores the
/// delay model on every design. Writes `table3_accuracy.csv`.
pub fn run(cfg: &Config) -> Table3Result {
    let corpus = Corpus::generate(cfg);
    let params = GbtParams {
        seed: cfg.seed,
        ..GbtParams::default()
    };
    let (delay_model, area_model) = train_models(&corpus, &params);
    let test_sets = label_split(cfg, false);
    let mut rows = Vec::new();
    for set in corpus.sets.iter().chain(&test_sets) {
        let ds = set.to_dataset(Target::Delay);
        let preds = delay_model.predict_all(&ds);
        let truths: Vec<f64> = ds.labels().iter().map(|&v| f64::from(v)).collect();
        rows.push(Table3Row {
            design: set.design.clone(),
            train: Corpus::is_train(&set.design),
            node_range: set.node_range(),
            stats: pct_error_stats(&preds, &truths),
        });
    }
    let n = rows.len() as f64;
    let avg_mean = rows.iter().map(|r| r.stats.mean).sum::<f64>() / n;
    let max_max = rows.iter().map(|r| r.stats.max).fold(0.0, f64::max);
    let avg_std = rows.iter().map(|r| r.stats.std).sum::<f64>() / n;
    let result = Table3Result {
        rows,
        avg_mean,
        max_max,
        avg_std,
        delay_model,
        area_model,
        corpus,
    };
    let _ = crate::write_csv(
        cfg,
        "table3_accuracy.csv",
        "design,split,nodes_min,nodes_max,mean_pct_err,max_pct_err,std_pct_err",
        result.rows.iter().map(|r| {
            format!(
                "{},{},{:.0},{:.0},{:.3},{:.3},{:.3}",
                r.design,
                if r.train { "train" } else { "test" },
                r.node_range.0,
                r.node_range.1,
                r.stats.mean,
                r.stats.max,
                r.stats.std
            )
        }),
    );
    result
}

/// Renders a human-readable summary table.
pub fn summarize(r: &Table3Result) -> String {
    let mut s = String::from(
        "Table III: delay-prediction accuracy (absolute %error)\n\
         design  split  #node range     mean%    max%    std%\n",
    );
    for row in &r.rows {
        s.push_str(&format!(
            "{:7} {:5} {:6.0}-{:<7.0} {:7.2} {:7.2} {:7.2}\n",
            row.design,
            if row.train { "train" } else { "test" },
            row.node_range.0,
            row.node_range.1,
            row.stats.mean,
            row.stats.max,
            row.stats.std
        ));
    }
    s.push_str(&format!(
        "avg mean = {:.2}%  max = {:.2}%  avg std = {:.2}%  (paper: 4.03 / 39.85 / 3.27)",
        r.avg_mean, r.max_max, r.avg_std
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_accuracy_pipeline() {
        let cfg = Config {
            samples: 30,
            out_dir: std::env::temp_dir().join("aig_timing_table3_test"),
            ..Config::smoke()
        };
        let r = run(&cfg);
        assert_eq!(r.rows.len(), 8);
        // Training designs should fit reasonably well even tiny.
        for row in r.rows.iter().filter(|r| r.train) {
            assert!(
                row.stats.mean < 50.0,
                "{}: train error {:.1}% absurd",
                row.design,
                row.stats.mean
            );
        }
        assert!(r.avg_mean.is_finite() && r.max_max.is_finite());
        assert!(summarize(&r).contains("avg mean"));
        // Models are reusable.
        let ds = r.corpus.sets[0].to_dataset(Target::Delay);
        assert!(r.delay_model.predict(ds.row(0)).is_finite());
        assert!(r.area_model.predict(ds.row(0)).is_finite());
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }
}
