//! Reproduction drivers for the paper's evaluation.
//!
//! One module per table/figure of *"ML-based AIG Timing Prediction
//! to Enhance Logic Optimization"* (DATE 2025):
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig1`] | Fig. 1 — level/delay scatter and Pearson correlation |
//! | [`table1`] | Table I — equal (level, nodes) pairs with different PPA |
//! | [`fig2`] | Fig. 2 — baseline vs ground-truth iteration runtime |
//! | [`table3`] | Table III — XGBoost-style model accuracy, train/test split |
//! | [`table4`] | Table IV — per-iteration runtime of the three flows |
//! | [`fig5`] | Fig. 5 — Pareto fronts of the three flows |
//! | [`gnn_ablation`] | §III-B — GNN vs decision-tree accuracy claim |
//!
//! The `repro` binary exposes each as a subcommand; all experiments
//! also run (scaled down) inside the integration test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datagen;
pub mod fig1;
pub mod fig2;
pub mod fig5;
pub mod gnn_ablation;
pub mod table1;
pub mod table3;
pub mod table4;

use std::path::PathBuf;

/// Shared experiment configuration.
///
/// The defaults are sized so the complete suite runs in minutes on a
/// laptop. The paper labels 40,000 AIGs per design for Table III;
/// `samples` defaults to 600, and raising it approaches that scale.
#[derive(Clone, Debug)]
pub struct Config {
    /// Labeled samples per design (Table III corpus).
    pub samples: usize,
    /// Samples for the Fig. 1 scatter.
    pub fig1_samples: usize,
    /// SA iterations per sweep run (Fig. 5).
    pub sa_iterations: usize,
    /// Repetitions when timing per-iteration costs (Fig. 2, Table IV).
    pub timing_reps: usize,
    /// Graphs per design for the GNN ablation.
    pub gnn_samples: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Output directory for CSV artifacts.
    pub out_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            samples: 600,
            fig1_samples: 400,
            sa_iterations: 30,
            timing_reps: 12,
            gnn_samples: 120,
            seed: 2024,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl Config {
    /// A fast configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        Config {
            samples: 40,
            fig1_samples: 30,
            sa_iterations: 6,
            timing_reps: 2,
            gnn_samples: 16,
            seed: 7,
            out_dir: std::env::temp_dir().join("aig_timing_smoke"),
        }
    }
}

/// Writes a CSV artifact into `cfg.out_dir`, creating the directory.
///
/// Returns the path written. Errors are propagated to the caller so
/// the binary can report them; library callers typically run with a
/// writable temp dir.
pub fn write_csv(
    cfg: &Config,
    name: &str,
    header: &str,
    rows: impl IntoIterator<Item = String>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let path = cfg.out_dir.join(name);
    let mut text = String::from(header);
    text.push('\n');
    for r in rows {
        text.push_str(&r);
        text.push('\n');
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_writer_creates_files() {
        let cfg = Config {
            out_dir: std::env::temp_dir().join("aig_timing_csv_test"),
            ..Config::smoke()
        };
        let p = write_csv(&cfg, "t.csv", "a,b", ["1,2".to_owned(), "3,4".to_owned()])
            .expect("writable temp");
        let text = std::fs::read_to_string(&p).expect("written");
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }

    #[test]
    fn config_presets() {
        assert!(Config::default().samples > Config::smoke().samples);
    }
}
