//! Gate-level netlists produced by technology mapping.
//!
//! # Fixed-point load and area accumulation
//!
//! Per-net capacitive loads and total cell area are sums of per-pin /
//! per-cell contributions. Both the full-recompute paths
//! ([`Netlist::net_loads_ff`], [`Netlist::area_um2`]) and the
//! incremental timing engine (which maintains the same sums by delta
//! as gates are resized, retired, or revived) accumulate in exact
//! integer micro-units ([`cells::to_fixed`]) and convert to `f64`
//! once at the end, so any summation order — including delta
//! maintenance — produces bit-identical results.
//!
//! # Tracking and in-place patching
//!
//! [`Netlist::enable_tracking`] attaches a net→sink adjacency index
//! plus incrementally maintained per-net loads and total area. With
//! tracking enabled, the structural mutators ([`Netlist::add_gate`],
//! [`Netlist::set_gate_cell`], [`Netlist::retire_gate`],
//! [`Netlist::revive_gate`], [`Netlist::set_output_net`]) keep the
//! index and the sums exact, so the incremental STA and sizing passes
//! never walk the whole netlist. Retired gate slots stay in the gate
//! vector (ids remain stable for the incremental state keyed on them)
//! but contribute nothing to loads, area, evaluation, or exports.

use cells::{CellId, Library};
use std::fmt;

/// Index of a net (signal) in a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub u32);

/// Index of a gate instance in a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub u32);

/// What drives a net.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetDriver {
    /// Constant logic value.
    Const(bool),
    /// Primary input (index into [`Netlist::inputs`]).
    Input(usize),
    /// Output of a gate.
    Gate(GateId),
}

/// One standard-cell instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// Which library cell is instantiated.
    pub cell: CellId,
    /// Input nets in cell pin order.
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
}

/// A primary output port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutputPort {
    /// The net exposed at this port.
    pub net: NetId,
    /// Optional port name.
    pub name: Option<String>,
}

/// One gate input pin reading a net (an edge of the net→sink
/// adjacency maintained by [`Netlist::enable_tracking`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sink {
    /// The reading gate.
    pub gate: GateId,
    /// The pin index on that gate.
    pub pin: u32,
}

/// Tracking state attached by [`Netlist::enable_tracking`]: the
/// net→sink adjacency plus maintained fixed-point loads and area.
///
/// The per-cell constants (pin caps, areas, wire cap) are snapshotted
/// in fixed point at attach time, so the structural mutators need no
/// library argument and pay no float conversion.
#[derive(Clone, Debug, Default)]
struct Tracking {
    /// Per net: the gate input pins reading it (live gates only).
    sinks: Vec<Vec<Sink>>,
    /// Per net: number of output ports exposing it.
    port_refs: Vec<u32>,
    /// Per net: capacitive load in micro-fF (pin caps + wire cap per
    /// fanout branch), kept exact through every mutator.
    load_fixed: Vec<i64>,
    /// Total live cell area in micro-µm².
    area_fixed: i64,
    /// The library's per-fanout wire capacitance in micro-fF.
    wire_fixed: i64,
    /// Per cell: input pin caps in micro-fF (cells have ≤ 4 pins).
    cell_caps: Vec<[i64; 4]>,
    /// Per cell: area in micro-µm².
    cell_area: Vec<i64>,
}

/// A combinational gate-level netlist over a [`Library`].
///
/// Gates are stored in topological order by the mapper (every gate
/// appears after the gates driving its inputs), which the
/// full-recompute timing analyses rely on; netlists patched in place
/// by the incremental mapper may violate id order (revived slots) and
/// are only analyzed through the worklist-based incremental STA.
/// Instances refer to cells by [`CellId`]; the library itself is
/// passed alongside the netlist to analyses so one library can serve
/// many netlists.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    drivers: Vec<NetDriver>,
    gates: Vec<Gate>,
    retired: Vec<bool>,
    inputs: Vec<NetId>,
    outputs: Vec<OutputPort>,
    tracking: Option<Tracking>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.drivers.len()
    }

    /// Number of gate instance slots (including retired slots).
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of live (non-retired) gate instances.
    pub fn num_live_gates(&self) -> usize {
        self.retired.iter().filter(|r| !**r).count()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The driver of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds.
    pub fn driver(&self, net: NetId) -> &NetDriver {
        &self.drivers[net.0 as usize]
    }

    /// All gate slots in id order (retired slots included; see
    /// [`Netlist::is_retired`]).
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.0 as usize]
    }

    /// Whether gate slot `id` has been retired by the incremental
    /// patcher (it then contributes nothing to loads, area, timing,
    /// evaluation, or exports).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn is_retired(&self, id: GateId) -> bool {
        self.retired[id.0 as usize]
    }

    /// Primary-input nets in port order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary-output ports in port order.
    pub fn outputs(&self) -> &[OutputPort] {
        &self.outputs
    }

    /// Adds a primary input, returning its net.
    pub fn add_input(&mut self) -> NetId {
        let idx = self.inputs.len();
        let net = self.fresh_net(NetDriver::Input(idx));
        self.inputs.push(net);
        net
    }

    /// Adds (or reuses) a constant net.
    pub fn const_net(&mut self, value: bool) -> NetId {
        // Constants are rare; linear scan keeps the structure simple.
        for (i, d) in self.drivers.iter().enumerate() {
            if *d == NetDriver::Const(value) {
                return NetId(i as u32);
            }
        }
        self.fresh_net(NetDriver::Const(value))
    }

    /// Instantiates a gate; returns its output net.
    ///
    /// Inputs must already exist; this preserves topological order.
    ///
    /// # Panics
    ///
    /// Panics if any input net is out of bounds.
    pub fn add_gate(&mut self, cell: CellId, inputs: Vec<NetId>) -> NetId {
        for n in &inputs {
            assert!((n.0 as usize) < self.drivers.len(), "undefined input net");
        }
        let gid = GateId(self.gates.len() as u32);
        let out = self.fresh_net(NetDriver::Gate(gid));
        self.gates.push(Gate {
            cell,
            inputs,
            output: out,
        });
        self.retired.push(false);
        if self.tracking.is_some() {
            self.attach_gate(gid);
        }
        out
    }

    /// Declares a primary output.
    pub fn add_output(&mut self, net: NetId, name: Option<impl Into<String>>) {
        self.outputs.push(OutputPort {
            net,
            name: name.map(Into::into),
        });
        if let Some(t) = &mut self.tracking {
            t.port_refs[net.0 as usize] += 1;
            t.load_fixed[net.0 as usize] += t.wire_fixed;
        }
    }

    /// Repoints output port `idx` at `net`, maintaining the tracked
    /// port refs and wire loads.
    ///
    /// # Panics
    ///
    /// Panics if `idx` or `net` is out of bounds.
    pub fn set_output_net(&mut self, idx: usize, net: NetId) {
        assert!((net.0 as usize) < self.drivers.len(), "undefined net");
        let old = self.outputs[idx].net;
        if old == net {
            return;
        }
        self.outputs[idx].net = net;
        if let Some(t) = &mut self.tracking {
            t.port_refs[old.0 as usize] -= 1;
            t.load_fixed[old.0 as usize] -= t.wire_fixed;
            t.port_refs[net.0 as usize] += 1;
            t.load_fixed[net.0 as usize] += t.wire_fixed;
        }
    }

    /// Swaps the cell of gate `id` for a pin-compatible variant. With
    /// tracking enabled this applies the input-capacitance load delta
    /// to the tracked loads (exact, in fixed point) instead of
    /// forcing a full [`Netlist::net_loads_ff`] recompute.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds, or retired while tracked. The
    /// caller must ensure the new cell has the same arity and pin
    /// semantics (use [`cells::Library::drive_variants`]).
    pub fn set_gate_cell(&mut self, id: GateId, cell: CellId) {
        let g = &mut self.gates[id.0 as usize];
        let old = g.cell;
        if old == cell {
            return;
        }
        g.cell = cell;
        if let Some(t) = &mut self.tracking {
            assert!(!self.retired[id.0 as usize], "retired gate slot");
            let g = &self.gates[id.0 as usize];
            let (oc, nc) = (t.cell_caps[old.0 as usize], t.cell_caps[cell.0 as usize]);
            for (pin, n) in g.inputs.iter().enumerate() {
                t.load_fixed[n.0 as usize] += nc[pin] - oc[pin];
            }
            t.area_fixed += t.cell_area[cell.0 as usize] - t.cell_area[old.0 as usize];
        }
    }

    /// Retires gate slot `id`: detaches its input pins from the
    /// tracked adjacency and loads and removes its area contribution.
    /// The slot and its output net keep their ids (the incremental
    /// mapper revives slots via [`Netlist::revive_gate`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds, already retired, or tracking
    /// is not enabled.
    pub fn retire_gate(&mut self, id: GateId) {
        assert!(!self.retired[id.0 as usize], "gate retired twice");
        self.retired[id.0 as usize] = true;
        let t = self.tracking.as_mut().expect("tracking enabled");
        let g = &self.gates[id.0 as usize];
        let caps = t.cell_caps[g.cell.0 as usize];
        for (pin, n) in g.inputs.iter().enumerate() {
            let sinks = &mut t.sinks[n.0 as usize];
            let at = sinks
                .iter()
                .position(|s| s.gate == id && s.pin as usize == pin)
                .expect("sink indexed");
            sinks.swap_remove(at);
            t.load_fixed[n.0 as usize] -= caps[pin] + t.wire_fixed;
        }
        t.area_fixed -= t.cell_area[g.cell.0 as usize];
    }

    /// Revives a retired gate slot with a (possibly different) cell
    /// and input set; the slot keeps its original output net. The
    /// tracked adjacency, loads and area are maintained exactly.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not retired, an input net is undefined, or
    /// tracking is not enabled.
    pub fn revive_gate(&mut self, id: GateId, cell: CellId, inputs: Vec<NetId>) {
        assert!(self.retired[id.0 as usize], "slot must be retired");
        for n in &inputs {
            assert!((n.0 as usize) < self.drivers.len(), "undefined input net");
        }
        self.retired[id.0 as usize] = false;
        let g = &mut self.gates[id.0 as usize];
        g.cell = cell;
        g.inputs = inputs;
        self.attach_gate(id);
    }

    /// Registers a (live) gate's pins into the tracking state.
    fn attach_gate(&mut self, id: GateId) {
        let t = self.tracking.as_mut().expect("tracking enabled");
        let g = &self.gates[id.0 as usize];
        let caps = t.cell_caps[g.cell.0 as usize];
        for (pin, n) in g.inputs.iter().enumerate() {
            t.sinks[n.0 as usize].push(Sink {
                gate: id,
                pin: pin as u32,
            });
            t.load_fixed[n.0 as usize] += caps[pin] + t.wire_fixed;
        }
        t.area_fixed += t.cell_area[g.cell.0 as usize];
    }

    fn fresh_net(&mut self, driver: NetDriver) -> NetId {
        let id = NetId(self.drivers.len() as u32);
        self.drivers.push(driver);
        if let Some(t) = &mut self.tracking {
            t.sinks.push(Vec::new());
            t.port_refs.push(0);
            t.load_fixed.push(0);
        }
        id
    }

    /// Attaches (or rebuilds) the tracking state: net→sink adjacency,
    /// per-net fixed-point loads, and total area, all computed from
    /// scratch, plus the fixed-point per-cell constant snapshot of
    /// `lib`. Subsequent structural mutators maintain them exactly.
    pub fn enable_tracking(&mut self, lib: &Library) {
        let n = self.num_nets();
        let mut t = Tracking {
            sinks: vec![Vec::new(); n],
            port_refs: vec![0; n],
            load_fixed: vec![0; n],
            area_fixed: 0,
            wire_fixed: lib.wire_cap_fixed(),
            cell_caps: lib
                .cells()
                .iter()
                .map(|c| {
                    let mut caps = [0i64; 4];
                    for (i, p) in c.pins.iter().enumerate() {
                        caps[i] = p.cap_fixed();
                    }
                    caps
                })
                .collect(),
            cell_area: lib.cells().iter().map(|c| c.area_fixed()).collect(),
        };
        for (gi, g) in self.gates.iter().enumerate() {
            if self.retired[gi] {
                continue;
            }
            let caps = t.cell_caps[g.cell.0 as usize];
            for (pin, net) in g.inputs.iter().enumerate() {
                t.sinks[net.0 as usize].push(Sink {
                    gate: GateId(gi as u32),
                    pin: pin as u32,
                });
                t.load_fixed[net.0 as usize] += caps[pin] + t.wire_fixed;
            }
            t.area_fixed += t.cell_area[g.cell.0 as usize];
        }
        for o in &self.outputs {
            t.port_refs[o.net.0 as usize] += 1;
            t.load_fixed[o.net.0 as usize] += t.wire_fixed;
        }
        self.tracking = Some(t);
    }

    /// The tracked sink pins of `net`.
    ///
    /// # Panics
    ///
    /// Panics if tracking is not enabled or `net` is out of bounds.
    pub fn sinks(&self, net: NetId) -> &[Sink] {
        &self.tracking.as_ref().expect("tracking enabled").sinks[net.0 as usize]
    }

    /// The tracked number of output ports exposing `net`.
    ///
    /// # Panics
    ///
    /// Panics if tracking is not enabled or `net` is out of bounds.
    pub fn port_refs(&self, net: NetId) -> u32 {
        self.tracking.as_ref().expect("tracking enabled").port_refs[net.0 as usize]
    }

    /// The tracked load of `net` in integer micro-fF (the exact sum
    /// behind [`Netlist::load_ff`]).
    ///
    /// # Panics
    ///
    /// Panics if tracking is not enabled or `net` is out of bounds.
    pub fn load_fixed(&self, net: NetId) -> i64 {
        self.tracking.as_ref().expect("tracking enabled").load_fixed[net.0 as usize]
    }

    /// The tracked load (fF) of `net` — bit-identical to the
    /// corresponding [`Netlist::net_loads_ff`] entry.
    ///
    /// # Panics
    ///
    /// Panics if tracking is not enabled or `net` is out of bounds.
    pub fn load_ff(&self, net: NetId) -> f64 {
        cells::from_fixed(
            self.tracking.as_ref().expect("tracking enabled").load_fixed[net.0 as usize],
        )
    }

    /// Total cell area (µm²) over live gates, accumulated in fixed
    /// point (bit-identical for any gate order, and to the tracked
    /// delta-maintained total).
    pub fn area_um2(&self, lib: &Library) -> f64 {
        if let Some(t) = &self.tracking {
            return cells::from_fixed(t.area_fixed);
        }
        let mut area = 0i64;
        for (gi, g) in self.gates.iter().enumerate() {
            if !self.retired[gi] {
                area += lib.cell(g.cell).area_fixed();
            }
        }
        cells::from_fixed(area)
    }

    /// Fanout count per net: number of live gate input pins plus
    /// output ports connected to the net.
    pub fn net_fanouts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.num_nets()];
        for (gi, g) in self.gates.iter().enumerate() {
            if self.retired[gi] {
                continue;
            }
            for n in &g.inputs {
                fo[n.0 as usize] += 1;
            }
        }
        for o in &self.outputs {
            fo[o.net.0 as usize] += 1;
        }
        fo
    }

    /// Capacitive load (fF) per net: connected pin caps plus the
    /// library's per-fanout wire capacitance, accumulated in fixed
    /// point (order-independent, delta-compatible — see the module
    /// docs).
    pub fn net_loads_ff(&self, lib: &Library) -> Vec<f64> {
        let mut load = Vec::new();
        self.net_loads_ff_into(lib, &mut load);
        load
    }

    /// [`Netlist::net_loads_ff`] into a caller-owned buffer, so the
    /// full-recompute oracle paths allocate nothing per call.
    ///
    /// Micro-fF contributions are integers well below 2^53, so they
    /// accumulate *exactly* in the `f64` buffer — the sum is
    /// order-independent and bit-identical to the delta-maintained
    /// tracked loads.
    pub fn net_loads_ff_into(&self, lib: &Library, load: &mut Vec<f64>) {
        load.clear();
        load.resize(self.num_nets(), 0.0);
        let wire = lib.wire_cap_fixed() as f64;
        for (gi, g) in self.gates.iter().enumerate() {
            if self.retired[gi] {
                continue;
            }
            let cell = lib.cell(g.cell);
            for (pin, n) in g.inputs.iter().enumerate() {
                load[n.0 as usize] += cell.pins[pin].cap_fixed() as f64 + wire;
            }
        }
        for o in &self.outputs {
            load[o.net.0 as usize] += wire;
        }
        for l in load.iter_mut() {
            *l /= cells::FIXED_UNITS_PER_UNIT;
        }
    }

    /// Evaluates the netlist on one input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len() != num_inputs()`.
    pub fn eval(&self, lib: &Library, pi_values: &[bool]) -> Vec<bool> {
        assert_eq!(pi_values.len(), self.num_inputs());
        let mut val = vec![false; self.num_nets()];
        for (i, d) in self.drivers.iter().enumerate() {
            match d {
                NetDriver::Const(v) => val[i] = *v,
                NetDriver::Input(idx) => val[i] = pi_values[*idx],
                NetDriver::Gate(_) => {}
            }
        }
        for (gi, g) in self.gates.iter().enumerate() {
            if self.retired[gi] {
                continue;
            }
            let cell = lib.cell(g.cell);
            let mut minterm = 0usize;
            for (pin, n) in g.inputs.iter().enumerate() {
                if val[n.0 as usize] {
                    minterm |= 1 << pin;
                }
            }
            val[g.output.0 as usize] = cell.tt >> minterm & 1 == 1;
        }
        self.outputs.iter().map(|o| val[o.net.0 as usize]).collect()
    }

    /// Histogram of instantiated (live) cell names (for reports).
    pub fn cell_histogram(&self, lib: &Library) -> Vec<(String, usize)> {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for (gi, g) in self.gates.iter().enumerate() {
            if !self.retired[gi] {
                *counts.entry(&lib.cell(g.cell).name).or_default() += 1;
            }
        }
        counts.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist: {} gates, {} nets, {}/{} ports",
            self.num_gates(),
            self.num_nets(),
            self.num_inputs(),
            self.num_outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::sky130ish;

    #[test]
    fn build_and_eval_nand() {
        let lib = sky130ish();
        let nand = lib.find("NAND2_X1").expect("builtin");
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let y = nl.add_gate(nand, vec![a, b]);
        nl.add_output(y, Some("y"));
        assert_eq!(nl.eval(&lib, &[true, true]), vec![false]);
        assert_eq!(nl.eval(&lib, &[true, false]), vec![true]);
        assert_eq!(nl.num_gates(), 1);
        assert!(nl.area_um2(&lib) > 0.0);
    }

    #[test]
    fn const_nets_are_shared() {
        let mut nl = Netlist::new();
        let c0 = nl.const_net(false);
        let c0b = nl.const_net(false);
        let c1 = nl.const_net(true);
        assert_eq!(c0, c0b);
        assert_ne!(c0, c1);
    }

    #[test]
    fn fanouts_and_loads() {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let x = nl.add_gate(inv, vec![a]);
        let _y = nl.add_gate(inv, vec![x]);
        let z = nl.add_gate(inv, vec![x]);
        nl.add_output(z, None::<&str>);
        let fo = nl.net_fanouts();
        assert_eq!(fo[x.0 as usize], 2);
        let loads = nl.net_loads_ff(&lib);
        let inv_cap = lib.cell(inv).pins[0].cap_ff;
        let expect = 2.0 * (inv_cap + lib.wire_cap_per_fanout_ff());
        assert!((loads[x.0 as usize] - expect).abs() < 1e-9);
    }

    #[test]
    fn histogram() {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let x = nl.add_gate(inv, vec![a]);
        let y = nl.add_gate(inv, vec![x]);
        nl.add_output(y, None::<&str>);
        assert_eq!(nl.cell_histogram(&lib), vec![("INV_X1".to_owned(), 2)]);
    }

    #[test]
    #[should_panic(expected = "undefined input net")]
    fn bad_input_net_panics() {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        let mut nl = Netlist::new();
        let _ = lib;
        nl.add_gate(inv, vec![NetId(5)]);
    }

    /// Tracked loads and area must stay bit-identical to the full
    /// recompute through cell swaps, retires, revives, appends, and
    /// output repointing.
    #[test]
    fn tracking_matches_recompute_through_edits() {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        let inv4 = lib.find("INV_X4").expect("builtin");
        let nand = lib.find("NAND2_X1").expect("builtin");
        let nand2 = lib.find("NAND2_X2").expect("builtin");
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let b = nl.add_input();
        let x = nl.add_gate(nand, vec![a, b]);
        let y = nl.add_gate(inv, vec![x]);
        let z = nl.add_gate(nand, vec![x, y]);
        nl.add_output(z, Some("z"));
        nl.enable_tracking(&lib);
        let check = |nl: &Netlist| {
            let oracle = nl.net_loads_ff(&lib);
            for (n, want) in oracle.iter().enumerate() {
                let t = nl.load_ff(NetId(n as u32));
                assert!(t == *want, "net {n}: tracked {t} != recomputed {want}");
            }
            let mut untracked = nl.clone();
            untracked.tracking = None;
            assert!(nl.area_um2(&lib) == untracked.area_um2(&lib));
        };
        check(&nl);
        // Cell swap applies an exact delta.
        nl.set_gate_cell(GateId(0), nand2);
        check(&nl);
        nl.set_gate_cell(GateId(1), inv4);
        check(&nl);
        // Retire the inverter; rewire its consumer through a revive.
        nl.retire_gate(GateId(1));
        nl.retire_gate(GateId(2));
        nl.revive_gate(GateId(2), nand, vec![x, x]);
        check(&nl);
        assert_eq!(nl.num_live_gates(), 2);
        assert!(nl.is_retired(GateId(1)));
        // Revive the inverter slot with a different cell.
        nl.revive_gate(GateId(1), inv4, vec![x]);
        check(&nl);
        // Append a fresh gate while tracked.
        let w = nl.add_gate(inv, vec![z]);
        nl.add_output(w, Some("w"));
        check(&nl);
        // Move an output port.
        nl.set_output_net(0, w);
        check(&nl);
        assert_eq!(nl.sinks(x).len(), 3);
    }

    /// Retired gates vanish from every full-recompute view.
    #[test]
    fn retired_gates_excluded_everywhere() {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        let mut nl = Netlist::new();
        let a = nl.add_input();
        let x = nl.add_gate(inv, vec![a]);
        let y = nl.add_gate(inv, vec![a]);
        nl.add_output(x, Some("x"));
        nl.enable_tracking(&lib);
        let area_before = nl.area_um2(&lib);
        nl.retire_gate(GateId(1));
        let _ = y;
        assert!(nl.area_um2(&lib) < area_before);
        assert_eq!(nl.num_live_gates(), 1);
        assert_eq!(nl.net_fanouts()[a.0 as usize], 1);
        assert_eq!(nl.cell_histogram(&lib), vec![("INV_X1".to_owned(), 1)]);
        assert_eq!(nl.eval(&lib, &[true]), vec![false]);
    }
}
