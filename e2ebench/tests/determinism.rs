//! The benchmark's deterministic metrics repeat exactly: across two
//! traced runs, and across one worker thread against every available
//! one. Counters never carry a time unit.

use e2ebench::{measure_traced, Report, Workload, DETERMINISTIC, WORKLOADS};
use std::time::Duration;

/// Steps per chain and chains per cycle here: enough for accepts,
/// rejects and (on the paper vocabulary) both move kinds, at a
/// fraction of the benchmark's cycle.
const STEPS: usize = 40;
const CHAINS: usize = 2;
const SEED: u64 = 3;

fn traced(w: &Workload, threads: usize) -> Report {
    // One test in this binary, so nothing else reads the variable
    // while it changes.
    std::env::set_var("AIG_THREADS", threads.to_string());
    let r = measure_traced(w, SEED, Duration::ZERO);
    assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.problems);
    r
}

fn deterministic(r: &Report) -> Vec<(&'static str, u64)> {
    DETERMINISTIC
        .iter()
        .map(|&name| {
            let v = r
                .get(name)
                .unwrap_or_else(|| panic!("missing metric {name}"));
            (name, v.to_bits())
        })
        .collect()
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_thread_counts() {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    for w in WORKLOADS {
        let w = Workload {
            steps: STEPS,
            chains: CHAINS,
            ..w
        };
        let first = traced(&w, nproc);
        let again = traced(&w, nproc);
        let serial = traced(&w, 1);
        assert_eq!(
            deterministic(&first),
            deterministic(&again),
            "{}: rerun",
            w.name
        );
        assert_eq!(
            deterministic(&first),
            deterministic(&serial),
            "{}: 1 vs {nproc} threads",
            w.name
        );
        let steps = (STEPS * CHAINS) as f64;
        assert_eq!(first.get("saopt.steps"), Some(steps), "{}", w.name);
        for m in &first.metrics {
            let time_name = m.name.ends_with("_s") || m.name.contains("_ms_");
            let time_unit = matches!(m.unit, "s" | "ms" | "us" | "ns");
            assert_eq!(
                time_name, time_unit,
                "{}: {} has unit {}",
                w.name, m.name, m.unit
            );
        }
    }
}
