//! Minimal, dependency-free stand-in for the `criterion` bench
//! harness (the build environment is offline).
//!
//! Implements the subset of the criterion 0.5 API the workspace's
//! benches use — [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`], [`Bencher::iter`],
//! [`criterion_group!`], [`criterion_main!`] — with a fixed
//! warmup/calibrate/sample methodology, and adds what upstream
//! criterion lacks here: every run can be dumped as machine-readable
//! JSON via [`Criterion::save_json`], which the perf-tracking scripts
//! diff across PRs.
//!
//! Environment knobs:
//! * `BENCH_SAMPLE_MS` — target milliseconds per sample (default 20).
//! * `BENCH_MAX_SAMPLES` — cap on samples per benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use minijson::Json;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// One completed benchmark measurement.
#[derive(Clone, Debug)]
pub struct Record {
    /// Benchmark-group name (empty for ungrouped benches).
    pub group: String,
    /// Benchmark id within the group.
    pub name: String,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

/// The top-level bench driver; collects [`Record`]s.
#[derive(Debug, Default)]
pub struct Criterion {
    records: Vec<Record>,
    sample_size: usize,
}

/// A named group of benchmarks sharing a sample-size setting.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

/// Passed to each benchmark closure; [`Bencher::iter`] runs and times
/// the measured routine.
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` calls of `routine`, keeping return values alive
    /// until timing stops (so the optimizer cannot discard the work).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn env_ms(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

impl Criterion {
    /// Opens a named group; benches registered through it share the
    /// group label in reports.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = if self.sample_size == 0 {
            10
        } else {
            self.sample_size
        };
        BenchmarkGroup {
            c: self,
            name: name.into(),
            sample_size,
        }
    }

    /// Registers and immediately runs an ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let record = run_bench(String::new(), id.into(), 10, f);
        print_record(&record);
        self.records.push(record);
        self
    }

    /// All measurements recorded so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Registers a deterministic counter (recomputed rows, worklist
    /// sizes, …) as a pseudo-measurement so it lands in the JSON
    /// report as an ordinary series — median/mean/min all carry
    /// `value`, with a single one-iteration sample. Ratio gates over
    /// such series express *work* bounds instead of wall-clock ones,
    /// immune to machine noise.
    pub fn record_value(
        &mut self,
        group: impl Into<String>,
        name: impl Into<String>,
        value: f64,
    ) -> &mut Self {
        let record = Record {
            group: group.into(),
            name: name.into(),
            median_ns: value,
            mean_ns: value,
            min_ns: value,
            samples: 1,
            iters_per_sample: 1,
        };
        print_record(&record);
        self.records.push(record);
        self
    }

    /// The median time of a recorded benchmark, by `(group, name)`.
    pub fn median_ns(&self, group: &str, name: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(|r| r.median_ns)
    }

    /// Writes every recorded measurement as a JSON report.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing `path`.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let benches: Vec<Json> = self
            .records
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("group".into(), Json::Str(r.group.clone())),
                    ("name".into(), Json::Str(r.name.clone())),
                    ("median_ns".into(), Json::Num(r.median_ns)),
                    ("mean_ns".into(), Json::Num(r.mean_ns)),
                    ("min_ns".into(), Json::Num(r.min_ns)),
                    ("samples".into(), Json::Num(r.samples as f64)),
                    (
                        "iters_per_sample".into(),
                        Json::Num(r.iters_per_sample as f64),
                    ),
                ])
            })
            .collect();
        let unix = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let doc = Json::Obj(vec![
            ("generated_unix".into(), Json::Num(unix as f64)),
            ("benchmarks".into(), Json::Arr(benches)),
        ]);
        let path = path.as_ref();
        std::fs::write(path, doc.dump())?;
        eprintln!("bench report written to {}", path.display());
        Ok(())
    }

    /// Prints a closing one-line summary.
    pub fn final_summary(&self) {
        eprintln!("{} benchmarks measured", self.records.len());
    }
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Registers and immediately runs a benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        let record = run_bench(self.name.clone(), id.into(), self.sample_size, f);
        print_record(&record);
        self.c.records.push(record);
        self
    }

    /// Ends the group (measurements are already recorded).
    pub fn finish(self) {}
}

fn run_bench<F: FnMut(&mut Bencher)>(
    group: String,
    name: String,
    sample_size: usize,
    mut f: F,
) -> Record {
    // Warmup + calibration: one single-iteration run.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let once_ns = b.elapsed.as_nanos().max(1) as u64;

    // Choose iterations so one sample lasts ~BENCH_SAMPLE_MS, but the
    // whole benchmark stays bounded even for second-long routines.
    let target_sample_ns = env_ms("BENCH_SAMPLE_MS", 20) * 1_000_000;
    let iters = (target_sample_ns / once_ns).clamp(1, 1_000_000);
    let samples = sample_size
        .min(env_ms("BENCH_MAX_SAMPLES", 64) as usize)
        .max(2);

    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        per_iter_ns.push(b.elapsed.as_nanos() as f64 / iters as f64);
    }
    per_iter_ns.sort_by(f64::total_cmp);
    let median_ns = if samples % 2 == 1 {
        per_iter_ns[samples / 2]
    } else {
        (per_iter_ns[samples / 2 - 1] + per_iter_ns[samples / 2]) / 2.0
    };
    let mean_ns = per_iter_ns.iter().sum::<f64>() / samples as f64;
    Record {
        group,
        name,
        median_ns,
        mean_ns,
        min_ns: per_iter_ns[0],
        samples,
        iters_per_sample: iters,
    }
}

fn human(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

fn print_record(r: &Record) {
    let id = if r.group.is_empty() {
        r.name.clone()
    } else {
        format!("{}/{}", r.group, r.name)
    };
    eprintln!(
        "{id:<44} median {:>12}  mean {:>12}  ({} samples x {} iters)",
        human(r.median_ns),
        human(r.mean_ns),
        r.samples,
        r.iters_per_sample
    );
}

/// Declares a bench group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trivial(c: &mut Criterion) {
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        g.bench_function("add", |b| b.iter(|| std::hint::black_box(1u64 + 2)));
        g.finish();
    }

    #[test]
    fn records_and_reports() {
        let mut c = Criterion::default();
        trivial(&mut c);
        assert_eq!(c.records().len(), 1);
        let r = &c.records()[0];
        assert_eq!((r.group.as_str(), r.name.as_str()), ("t", "add"));
        assert!(r.median_ns > 0.0 && r.median_ns.is_finite());
        assert!(c.median_ns("t", "add").is_some());

        let path = std::env::temp_dir().join("criterion_shim_test.json");
        c.save_json(&path).expect("writable temp");
        let text = std::fs::read_to_string(&path).expect("written");
        let doc = minijson::Json::parse(&text).expect("valid json");
        assert_eq!(doc.field("benchmarks").unwrap().as_arr().unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
