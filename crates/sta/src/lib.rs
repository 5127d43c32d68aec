//! Static timing analysis (STA) for mapped netlists.
//!
//! This crate substitutes for the STA step of the paper's
//! ground-truth flow: after technology mapping, [`analyze`] computes
//! load-dependent arrival times, required times, slacks, the maximum
//! (critical-path) delay — the label the paper's ML model learns to
//! predict — and total cell area.
//!
//! The delay model is the library's linear one: the delay through a
//! gate from pin `p` is `intrinsic(p) + R_drive * C_load(output
//! net)`, with net loads from pin capacitances plus per-fanout wire
//! capacitance. This reproduces the two effects behind
//! level/delay miscorrelation that the paper analyses: cell merging
//! changes stage counts, and fanout changes gate delay.
//!
//! # Examples
//!
//! ```
//! use aig::Aig;
//! use cells::sky130ish;
//! use techmap::{MapOptions, Mapper};
//!
//! let mut g = Aig::new();
//! let a = g.add_input();
//! let b = g.add_input();
//! let f = g.and(a, b);
//! g.add_output(f, Some("y"));
//!
//! let lib = sky130ish();
//! let nl = Mapper::new(&lib, MapOptions::default()).map(&g)?;
//! let report = sta::analyze(&nl, &lib);
//! assert!(report.max_delay_ps > 0.0);
//! assert!(report.area_um2 > 0.0);
//! # Ok::<(), techmap::MapError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod incremental;

pub use incremental::IncrementalSta;

use cells::Library;
use techmap::{GateId, NetDriver, NetId, Netlist};

/// One stage of a reported timing path, in source-to-sink order.
#[derive(Clone, Debug)]
pub struct PathStage {
    /// The gate traversed.
    pub gate: GateId,
    /// Name of the instantiated cell.
    pub cell_name: String,
    /// Input pin through which the path enters.
    pub pin: usize,
    /// Arrival time (ps) at the gate output.
    pub arrival_ps: f64,
    /// Load (fF) seen by the gate output.
    pub load_ff: f64,
}

/// Full timing/area report for a netlist.
#[derive(Clone, Debug)]
pub struct TimingReport {
    /// Arrival time per net (ps); inputs and constants are 0.
    pub arrival_ps: Vec<f64>,
    /// Required time per net against the critical-path clock (ps).
    pub required_ps: Vec<f64>,
    /// Maximum arrival over the primary outputs — the post-mapping
    /// delay used throughout the paper.
    pub max_delay_ps: f64,
    /// Total cell area (µm²) — the post-mapping area.
    pub area_um2: f64,
    /// The critical path, source to sink.
    pub critical_path: Vec<PathStage>,
    /// Index of the output port where `max_delay_ps` occurs.
    pub critical_output: Option<usize>,
}

impl TimingReport {
    /// Slack (ps) of `net` against the critical-path-derived required
    /// times (the critical path itself has slack 0).
    pub fn slack_ps(&self, net: NetId) -> f64 {
        self.required_ps[net.0 as usize] - self.arrival_ps[net.0 as usize]
    }

    /// Worst (minimum) slack over all nets.
    pub fn worst_slack_ps(&self) -> f64 {
        self.required_ps
            .iter()
            .zip(&self.arrival_ps)
            .map(|(r, a)| r - a)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Reusable buffers for the full-recompute STA paths, so hot loops
/// (the ground-truth cost evaluator prices thousands of candidates)
/// allocate nothing per call.
#[derive(Clone, Debug, Default)]
pub struct StaBuffers {
    loads: Vec<f64>,
    arrival: Vec<f64>,
}

impl StaBuffers {
    /// Empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Post-mapping delay and area of a netlist.
///
/// The hot path of the ground-truth optimization flow: equivalent to
/// [`analyze`] but skips required times and path extraction.
pub fn delay_and_area(nl: &Netlist, lib: &Library) -> (f64, f64) {
    delay_and_area_into(nl, lib, &mut StaBuffers::new())
}

/// [`delay_and_area`] against caller-owned [`StaBuffers`]: identical
/// results, no per-call allocation on the steady state.
pub fn delay_and_area_into(nl: &Netlist, lib: &Library, bufs: &mut StaBuffers) -> (f64, f64) {
    nl.net_loads_ff_into(lib, &mut bufs.loads);
    arrivals_into(nl, lib, &bufs.loads, &mut bufs.arrival);
    let max_delay = nl
        .outputs()
        .iter()
        .map(|o| bufs.arrival[o.net.0 as usize])
        .fold(0.0, f64::max);
    (max_delay, nl.area_um2(lib))
}

/// Computes load-dependent arrival times per net into `arrival`
/// (cleared and resized), given per-net `loads` — the full-recompute
/// oracle the incremental engine ([`IncrementalSta`]) is checked
/// against. Inputs and constants arrive at 0; retired gate slots are
/// skipped.
pub fn arrivals_into(nl: &Netlist, lib: &Library, loads: &[f64], arrival: &mut Vec<f64>) {
    arrival.clear();
    arrival.resize(nl.num_nets(), 0.0);
    for (gi, g) in nl.gates().iter().enumerate() {
        if nl.is_retired(GateId(gi as u32)) {
            continue;
        }
        let cell = lib.cell(g.cell);
        let load = loads[g.output.0 as usize];
        let mut arr: f64 = 0.0;
        for (pin, n) in g.inputs.iter().enumerate() {
            arr = arr.max(arrival[n.0 as usize] + cell.delay_ps(pin, load));
        }
        arrival[g.output.0 as usize] = arr;
    }
}

fn arrivals(nl: &Netlist, lib: &Library, loads: &[f64]) -> Vec<f64> {
    let mut arrival = Vec::new();
    arrivals_into(nl, lib, loads, &mut arrival);
    arrival
}

/// Runs full STA: arrivals, required times, slacks, critical path.
///
/// Required times are computed against a clock equal to the critical
/// path delay, so the critical path has zero slack and every other
/// net's slack is non-negative.
pub fn analyze(nl: &Netlist, lib: &Library) -> TimingReport {
    let loads = nl.net_loads_ff(lib);
    let arrival = arrivals(nl, lib, &loads);
    let mut max_delay = 0.0f64;
    let mut critical_output = None;
    for (k, o) in nl.outputs().iter().enumerate() {
        let a = arrival[o.net.0 as usize];
        if a > max_delay {
            max_delay = a;
            critical_output = Some(k);
        }
    }
    // Required times: initialize to clock at POs, min-propagate back.
    let mut required = vec![f64::INFINITY; nl.num_nets()];
    for o in nl.outputs() {
        required[o.net.0 as usize] = required[o.net.0 as usize].min(max_delay);
    }
    for (gi, g) in nl.gates().iter().enumerate().rev() {
        if nl.is_retired(GateId(gi as u32)) {
            continue;
        }
        let cell = lib.cell(g.cell);
        let load = loads[g.output.0 as usize];
        let r_out = required[g.output.0 as usize];
        if r_out.is_infinite() {
            continue; // dangling gate (not in any output cone)
        }
        for (pin, n) in g.inputs.iter().enumerate() {
            let r = r_out - cell.delay_ps(pin, load);
            let slot = &mut required[n.0 as usize];
            *slot = slot.min(r);
        }
    }
    // Any net never constrained (dangling) gets the clock as required.
    for r in &mut required {
        if r.is_infinite() {
            *r = max_delay;
        }
    }
    let critical_path = extract_critical_path(nl, lib, &arrival, &loads, critical_output);
    TimingReport {
        arrival_ps: arrival,
        required_ps: required,
        max_delay_ps: max_delay,
        area_um2: nl.area_um2(lib),
        critical_path,
        critical_output,
    }
}

fn extract_critical_path(
    nl: &Netlist,
    lib: &Library,
    arrival: &[f64],
    loads: &[f64],
    critical_output: Option<usize>,
) -> Vec<PathStage> {
    let Some(co) = critical_output else {
        return Vec::new();
    };
    let mut path = Vec::new();
    let mut net = nl.outputs()[co].net;
    while let NetDriver::Gate(gid) = *nl.driver(net) {
        let g = nl.gate(gid);
        let cell = lib.cell(g.cell);
        let load = loads[net.0 as usize];
        // Find the pin whose arrival realizes the output arrival.
        let (mut best_pin, mut best_err) = (0usize, f64::INFINITY);
        for (pin, n) in g.inputs.iter().enumerate() {
            let err =
                (arrival[n.0 as usize] + cell.delay_ps(pin, load) - arrival[net.0 as usize]).abs();
            if err < best_err {
                best_err = err;
                best_pin = pin;
            }
        }
        path.push(PathStage {
            gate: gid,
            cell_name: cell.name.clone(),
            pin: best_pin,
            arrival_ps: arrival[net.0 as usize],
            load_ff: load,
        });
        net = g.inputs[best_pin];
    }
    path.reverse();
    path
}

/// A per-output timing path report.
#[derive(Clone, Debug)]
pub struct PathReport {
    /// Output port index.
    pub output: usize,
    /// Output port name, if any.
    pub name: Option<String>,
    /// Arrival time at the port (ps).
    pub arrival_ps: f64,
    /// The path from source to this port.
    pub stages: Vec<PathStage>,
}

/// Reports the `n` slowest primary outputs with their critical paths,
/// slowest first — the multi-path view a designer uses to see whether
/// one cone or many dominate the clock period (the paper's
/// `number_of_paths` feature targets exactly this distinction).
pub fn worst_output_paths(nl: &Netlist, lib: &Library, n: usize) -> Vec<PathReport> {
    let loads = nl.net_loads_ff(lib);
    let arrival = arrivals(nl, lib, &loads);
    let mut order: Vec<usize> = (0..nl.num_outputs()).collect();
    order.sort_by(|&a, &b| {
        arrival[nl.outputs()[b].net.0 as usize].total_cmp(&arrival[nl.outputs()[a].net.0 as usize])
    });
    order
        .into_iter()
        .take(n)
        .map(|o| PathReport {
            output: o,
            name: nl.outputs()[o].name.clone(),
            arrival_ps: arrival[nl.outputs()[o].net.0 as usize],
            stages: extract_critical_path(nl, lib, &arrival, &loads, Some(o)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Aig;
    use cells::sky130ish;
    use techmap::{MapOptions, Mapper};

    fn chain_netlist(n: usize) -> (Netlist, Library) {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        let mut nl = Netlist::new();
        let mut net = nl.add_input();
        for _ in 0..n {
            net = nl.add_gate(inv, vec![net]);
        }
        nl.add_output(net, Some("y"));
        (nl, lib)
    }

    #[test]
    fn inverter_chain_delay_additive() {
        let (nl1, lib) = chain_netlist(1);
        let (nl4, _) = chain_netlist(4);
        let (d1, a1) = delay_and_area(&nl1, &lib);
        let (d4, a4) = delay_and_area(&nl4, &lib);
        assert!(d4 > 3.0 * d1, "4 stages should be ~4x 1 stage");
        assert!((a4 - 4.0 * a1).abs() < 1e-9);
    }

    #[test]
    fn report_matches_fast_path() {
        let (nl, lib) = chain_netlist(5);
        let (d, a) = delay_and_area(&nl, &lib);
        let rep = analyze(&nl, &lib);
        assert!((rep.max_delay_ps - d).abs() < 1e-9);
        assert!((rep.area_um2 - a).abs() < 1e-9);
    }

    #[test]
    fn critical_path_has_zero_slack() {
        let (nl, lib) = chain_netlist(6);
        let rep = analyze(&nl, &lib);
        assert_eq!(rep.critical_path.len(), 6);
        // Every net on the chain is critical.
        assert!(rep.worst_slack_ps() > -1e-9);
        for st in &rep.critical_path {
            let g = nl.gate(st.gate);
            assert!(rep.slack_ps(g.output).abs() < 1e-6);
        }
        // Arrivals along the path are non-decreasing.
        for w in rep.critical_path.windows(2) {
            assert!(w[0].arrival_ps <= w[1].arrival_ps);
        }
    }

    #[test]
    fn fanout_increases_delay() {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        // One inverter driving 1 sink vs driving 8 sinks.
        let build = |sinks: usize| {
            let mut nl = Netlist::new();
            let a = nl.add_input();
            let x = nl.add_gate(inv, vec![a]);
            for _ in 0..sinks {
                let y = nl.add_gate(inv, vec![x]);
                nl.add_output(y, None::<&str>);
            }
            nl
        };
        let d1 = delay_and_area(&build(1), &lib).0;
        let d8 = delay_and_area(&build(8), &lib).0;
        assert!(
            d8 > d1 + 50.0,
            "high fanout should slow the driver: {d1} vs {d8}"
        );
    }

    #[test]
    fn mapped_xor_tree_timing() {
        let lib = sky130ish();
        let mut g = Aig::new();
        let lits: Vec<aig::Lit> = (0..8).map(|_| g.add_input()).collect();
        let f = g.xor_many(&lits);
        g.add_output(f, Some("parity"));
        let nl = Mapper::new(&lib, MapOptions::default())
            .map(&g)
            .expect("ok");
        let rep = analyze(&nl, &lib);
        assert!(rep.max_delay_ps > 100.0, "3 XOR stages at least");
        assert!(rep.critical_output == Some(0));
        assert!(!rep.critical_path.is_empty());
    }

    #[test]
    fn empty_netlist() {
        let lib = sky130ish();
        let mut nl = Netlist::new();
        let a = nl.add_input();
        nl.add_output(a, Some("wire"));
        let rep = analyze(&nl, &lib);
        assert_eq!(rep.max_delay_ps, 0.0);
        assert!(rep.critical_path.is_empty());
        let c = nl.const_net(true);
        nl.add_output(c, Some("tie"));
        let (d, area) = delay_and_area(&nl, &lib);
        assert_eq!(d, 0.0);
        assert_eq!(area, 0.0);
    }

    #[test]
    fn worst_paths_ordered_and_complete() {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let x1 = nl.add_gate(inv, vec![a]);
        let x2 = nl.add_gate(inv, vec![x1]);
        let x3 = nl.add_gate(inv, vec![x2]);
        nl.add_output(x1, Some("fast"));
        nl.add_output(x3, Some("slow"));
        let reports = worst_output_paths(&nl, &lib, 5);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].name.as_deref(), Some("slow"));
        assert_eq!(reports[0].stages.len(), 3);
        assert_eq!(reports[1].stages.len(), 1);
        assert!(reports[0].arrival_ps > reports[1].arrival_ps);
        // Truncation honored.
        assert_eq!(worst_output_paths(&nl, &lib, 1).len(), 1);
    }
}
