//! Command line of the end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human summary on stderr and, as the last line of stdout,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer metrics of a traced run.

use e2ebench::{measure, measure_traced, workload, Report, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

/// Worker threads of the parallel helpers (`aig::par`): at most two,
/// and never more than the machine has, so both sides of a comparison
/// run with the same count on one machine.
const MAX_THREADS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "e2ebench: unknown workload {}; one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_THREADS);
    // Set before any worker starts; `aig::par` reads it per call.
    std::env::set_var("AIG_THREADS", threads.to_string());

    let budget = Duration::from_secs(args.seconds);
    let mut report = if args.trace {
        measure_traced(&w, args.seed, budget)
    } else {
        measure(&w, args.seed, budget)
    };
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        report.failed += 1;
        report
            .problems
            .push("a metric is not a finite number".to_owned());
        for m in &mut report.metrics {
            if !m.value.is_finite() {
                m.value = 0.0;
            }
        }
    }
    eprintln!(
        "e2ebench {} seed {} ({} ANDs, {} threads): {} runs, {} failed",
        w.name, args.seed, report.ands, threads, report.attempted, report.failed
    );
    for p in &report.problems {
        eprintln!("  FAILED: {p}");
    }
    for m in &report.metrics {
        eprintln!("  {:28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
