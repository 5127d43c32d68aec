//! Cell and library definitions plus the builtin 130nm-class library.

use crate::expr::BoolExpr;
use std::fmt;

/// Fixed-point scale for capacitance/area accumulation: quantities
/// are accumulated in integer micro-units (1e-6 fF, 1e-6 µm²).
///
/// Net loads and total cell area are *sums* of per-pin/per-cell
/// contributions, and `f64` addition is not associative — two code
/// paths summing the same contributions in different orders can
/// disagree in the last bit. The incremental timing engine maintains
/// these sums by delta, so every accumulation in the workspace
/// instead sums exact integers (micro-units, converted back to `f64`
/// once at the end): any summation order, including delta
/// maintenance, produces bit-identical results. The quantization
/// (1e-6 fF / 1e-6 µm²) is far below library data precision.
pub const FIXED_UNITS_PER_UNIT: f64 = 1e6;

/// Converts a femtofarad/µm² quantity to exact integer micro-units.
#[inline]
pub fn to_fixed(x: f64) -> i64 {
    (x * FIXED_UNITS_PER_UNIT).round() as i64
}

/// Converts integer micro-units back to the `f64` quantity.
#[inline]
pub fn from_fixed(u: i64) -> f64 {
    (u as f64) / FIXED_UNITS_PER_UNIT
}

/// Index of a cell within a [`Library`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub u32);

/// Electrical and timing data of one input pin.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pin {
    /// Input capacitance in femtofarads.
    pub cap_ff: f64,
    /// Pin-to-output intrinsic delay in picoseconds.
    pub intrinsic_ps: f64,
}

/// A combinational standard cell.
///
/// The delay from input pin `i` to the output under load `C` (fF) is
/// modeled as `pins[i].intrinsic_ps + drive_res * C` — a linear
/// (resistance-based) approximation of an NLDM table, sufficient to
/// reproduce the load/merging timing effects the paper studies.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Cell name, e.g. `NAND2_X1`.
    pub name: String,
    /// Cell area in square micrometers.
    pub area_um2: f64,
    /// Function truth table over the input pins (pin `i` = variable
    /// `i`), low `2^n` bits of the word.
    pub tt: u16,
    /// Input pins in function-variable order.
    pub pins: Vec<Pin>,
    /// Output drive resistance in ps/fF.
    pub drive_res: f64,
    /// The function in expression form (kept for round-tripping).
    pub function: BoolExpr,
    /// Names of the pins matching `pins` order.
    pub pin_names: Vec<String>,
}

impl Pin {
    /// Input capacitance in integer micro-femtofarads (see
    /// [`FIXED_UNITS_PER_UNIT`]).
    #[inline]
    pub fn cap_fixed(&self) -> i64 {
        to_fixed(self.cap_ff)
    }
}

impl Cell {
    /// Number of input pins.
    pub fn num_inputs(&self) -> usize {
        self.pins.len()
    }

    /// Cell area in integer micro-µm² (see [`FIXED_UNITS_PER_UNIT`]).
    #[inline]
    pub fn area_fixed(&self) -> i64 {
        to_fixed(self.area_um2)
    }

    /// Delay (ps) from pin `pin` to the output driving `load_ff`.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of bounds.
    #[inline]
    pub fn delay_ps(&self, pin: usize, load_ff: f64) -> f64 {
        self.pins[pin].intrinsic_ps + self.drive_res * load_ff
    }
}

/// An ordered collection of cells plus global interconnect constants.
#[derive(Clone, Debug, PartialEq)]
pub struct Library {
    name: String,
    cells: Vec<Cell>,
    /// Estimated extra load per fanout branch (wire capacitance), fF.
    wire_cap_per_fanout_ff: f64,
}

impl Library {
    /// Creates an empty library.
    pub fn new(name: impl Into<String>, wire_cap_per_fanout_ff: f64) -> Self {
        Library {
            name: name.into(),
            cells: Vec::new(),
            wire_cap_per_fanout_ff,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Wire capacitance added to a net per fanout branch (fF).
    pub fn wire_cap_per_fanout_ff(&self) -> f64 {
        self.wire_cap_per_fanout_ff
    }

    /// Per-fanout wire capacitance in integer micro-femtofarads (see
    /// [`FIXED_UNITS_PER_UNIT`]).
    #[inline]
    pub fn wire_cap_fixed(&self) -> i64 {
        to_fixed(self.wire_cap_per_fanout_ff)
    }

    /// All cells in id order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of bounds.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0 as usize]
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the library has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds a cell, returning its id.
    pub fn push(&mut self, cell: Cell) -> CellId {
        self.cells.push(cell);
        CellId(self.cells.len() as u32 - 1)
    }

    /// Finds a cell by name.
    pub fn find(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| CellId(i as u32))
    }

    /// Id of the smallest inverter (fewest-area cell computing `!x`).
    ///
    /// # Panics
    ///
    /// Panics if the library has no inverter — every mapping-capable
    /// library must provide one ([`Library::find_inverter`] asks
    /// without panicking).
    pub fn smallest_inverter(&self) -> CellId {
        self.find_inverter()
            .expect("library must contain an inverter")
    }

    /// Id of the smallest inverter, or `None` when the library has
    /// none (a user library can lack one; mapping needs it).
    pub fn find_inverter(&self) -> Option<CellId> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.num_inputs() == 1 && c.tt & 0b11 == 0b01)
            .min_by(|a, b| a.1.area_um2.total_cmp(&b.1.area_um2))
            .map(|(i, _)| CellId(i as u32))
    }

    /// Inverters ordered by increasing drive strength (decreasing
    /// output resistance).
    pub fn inverters(&self) -> Vec<CellId> {
        let mut invs: Vec<CellId> = (0..self.cells.len() as u32)
            .map(CellId)
            .filter(|&id| {
                let c = self.cell(id);
                c.num_inputs() == 1 && c.tt & 0b11 == 0b01
            })
            .collect();
        invs.sort_by(|&a, &b| self.cell(b).drive_res.total_cmp(&self.cell(a).drive_res));
        invs
    }

    /// Variants of `base` (same function, different drive): cells
    /// whose truth table and arity match.
    pub fn drive_variants(&self, base: CellId) -> Vec<CellId> {
        let c = self.cell(base);
        (0..self.cells.len() as u32)
            .map(CellId)
            .filter(|&id| {
                let o = self.cell(id);
                o.num_inputs() == c.num_inputs() && o.tt == c.tt
            })
            .collect()
    }
}

impl fmt::Display for Library {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "library {} ({} cells)", self.name, self.cells.len())
    }
}

/// Helper used by the builtin library: builds a [`Cell`] from an
/// expression string and uniform pin data.
///
/// # Panics
///
/// Panics on a malformed expression (builtin data is trusted).
fn cell(
    name: &str,
    area: f64,
    func: &str,
    pin_names: &[&str],
    cap_ff: f64,
    intrinsic_ps: f64,
    drive_res: f64,
) -> Cell {
    let function = BoolExpr::parse(func).expect("builtin cell function parses");
    let tt = function.to_tt(pin_names);
    Cell {
        name: name.to_owned(),
        area_um2: area,
        tt,
        pins: pin_names
            .iter()
            .map(|_| Pin {
                cap_ff,
                intrinsic_ps,
            })
            .collect(),
        drive_res,
        function,
        pin_names: pin_names.iter().map(|&s| s.to_owned()).collect(),
    }
}

/// The builtin 130nm-class library used throughout the project.
///
/// This substitutes for the SkyWater 130nm PDK referenced in the
/// paper: cell names, areas, pin capacitances and delays are in
/// plausible 130nm ranges, and the cell set covers the common 1–4
/// input NPN classes at multiple drive strengths, so technology
/// mapping exhibits both node merging (stage-count changes) and
/// load-dependent delay — the two miscorrelation mechanisms §III-B of
/// the paper analyses.
///
/// # Examples
///
/// ```
/// use cells::sky130ish;
///
/// let lib = sky130ish();
/// assert!(lib.len() > 30);
/// let inv = lib.cell(lib.smallest_inverter());
/// assert_eq!(inv.num_inputs(), 1);
/// ```
pub fn sky130ish() -> Library {
    let mut lib = Library::new("sky130ish", 1.4);
    let a1 = ["a"];
    let a2 = ["a", "b"];
    let a3 = ["a", "b", "c"];
    let a4 = ["a", "b", "c", "d"];
    // name, area um2, function, pins, cap fF, intrinsic ps, R ps/fF
    let defs: Vec<Cell> = vec![
        cell("INV_X1", 2.5, "!a", &a1, 2.9, 14.0, 9.0),
        cell("INV_X2", 3.8, "!a", &a1, 5.6, 13.0, 4.6),
        cell("INV_X4", 6.3, "!a", &a1, 11.0, 12.5, 2.4),
        cell("INV_X8", 11.3, "!a", &a1, 21.5, 12.0, 1.3),
        cell("BUF_X1", 3.8, "a", &a1, 2.7, 32.0, 8.5),
        cell("BUF_X2", 5.0, "a", &a1, 3.2, 30.0, 4.4),
        cell("BUF_X4", 8.8, "a", &a1, 4.9, 29.0, 2.3),
        cell("NAND2_X1", 3.8, "!(a & b)", &a2, 3.3, 22.0, 10.0),
        cell("NAND2_X2", 6.3, "!(a & b)", &a2, 6.4, 21.0, 5.2),
        cell("NAND3_X1", 5.0, "!(a & b & c)", &a3, 3.6, 31.0, 11.5),
        cell("NAND4_X1", 6.3, "!(a & b & c & d)", &a4, 3.9, 40.0, 13.0),
        cell("NOR2_X1", 3.8, "!(a | b)", &a2, 3.2, 25.0, 11.5),
        cell("NOR2_X2", 6.3, "!(a | b)", &a2, 6.2, 24.0, 6.0),
        cell("NOR3_X1", 5.0, "!(a | b | c)", &a3, 3.4, 36.0, 13.5),
        cell("NOR4_X1", 6.3, "!(a | b | c | d)", &a4, 3.7, 47.0, 15.5),
        cell("AND2_X1", 5.0, "a & b", &a2, 3.0, 38.0, 8.8),
        cell("AND3_X1", 6.3, "a & b & c", &a3, 3.2, 46.0, 9.4),
        cell("AND4_X1", 7.5, "a & b & c & d", &a4, 3.4, 54.0, 10.0),
        cell("OR2_X1", 5.0, "a | b", &a2, 3.0, 41.0, 9.0),
        cell("OR3_X1", 6.3, "a | b | c", &a3, 3.2, 50.0, 9.6),
        cell("OR4_X1", 7.5, "a | b | c | d", &a4, 3.4, 59.0, 10.2),
        cell("AOI21_X1", 5.0, "!((a & b) | c)", &a3, 3.5, 30.0, 12.0),
        cell(
            "AOI22_X1",
            6.3,
            "!((a & b) | (c & d))",
            &a4,
            3.7,
            35.0,
            12.8,
        ),
        cell("AOI211_X1", 6.9, "!((a & b) | c | d)", &a4, 3.8, 39.0, 13.6),
        cell("OAI21_X1", 5.0, "!((a | b) & c)", &a3, 3.5, 29.0, 11.8),
        cell(
            "OAI22_X1",
            6.3,
            "!((a | b) & (c | d))",
            &a4,
            3.7,
            34.0,
            12.6,
        ),
        cell("OAI211_X1", 6.9, "!((a | b) & c & d)", &a4, 3.8, 38.0, 13.4),
        cell("ANDNOT_X1", 5.0, "a & !b", &a2, 3.1, 36.0, 9.2),
        cell("ORNOT_X1", 5.0, "a | !b", &a2, 3.1, 39.0, 9.4),
        cell("XOR2_X1", 7.5, "a ^ b", &a2, 4.3, 52.0, 11.0),
        cell("XNOR2_X1", 7.5, "!(a ^ b)", &a2, 4.3, 52.0, 11.0),
        cell("XOR3_X1", 11.9, "a ^ b ^ c", &a3, 4.9, 78.0, 12.5),
        cell(
            "MUX2_X1",
            8.8,
            "(s & b) | (!s & a)",
            &["a", "b", "s"],
            3.9,
            48.0,
            10.5,
        ),
        cell(
            "NMUX2_X1",
            8.2,
            "!((s & b) | (!s & a))",
            &["a", "b", "s"],
            3.8,
            41.0,
            11.0,
        ),
        cell(
            "MAJ3_X1",
            10.0,
            "(a & b) | (b & c) | (a & c)",
            &a3,
            4.1,
            56.0,
            11.5,
        ),
        cell("AO21_X1", 5.7, "(a & b) | c", &a3, 3.4, 42.0, 9.8),
        cell("OA21_X1", 5.7, "(a | b) & c", &a3, 3.4, 41.0, 9.7),
        cell("AO22_X1", 6.9, "(a & b) | (c & d)", &a4, 3.6, 47.0, 10.4),
        cell("OA22_X1", 6.9, "(a | b) & (c | d)", &a4, 3.6, 46.0, 10.3),
        cell("NAND2B_X1", 4.4, "!(!a & b)", &a2, 3.3, 27.0, 10.4),
        cell("NOR2B_X1", 4.4, "!(!a | b)", &a2, 3.3, 30.0, 11.0),
    ];
    for c in defs {
        lib.push(c);
    }
    lib
}

/// A 7nm-class FinFET-flavoured library derived by rescaling
/// [`sky130ish`]: roughly 7x faster intrinsics, 4x smaller pin
/// capacitances, 12x smaller areas, and cheaper XOR/MUX cells
/// (complex cells are relatively cheaper in FinFET nodes).
///
/// `aigtool --lib asap7ish` selects it, to map and time a design
/// under a second technology.
///
/// # Examples
///
/// ```
/// use cells::{asap7ish, sky130ish};
///
/// let a = asap7ish();
/// let s = sky130ish();
/// assert_eq!(a.len(), s.len());
/// let inv7 = a.cell(a.find("INV_X1").expect("same cell set"));
/// let inv130 = s.cell(s.find("INV_X1").expect("builtin"));
/// assert!(inv7.pins[0].intrinsic_ps < inv130.pins[0].intrinsic_ps);
/// ```
pub fn asap7ish() -> Library {
    let base = sky130ish();
    let mut lib = Library::new("asap7ish", 0.35);
    for cell in base.cells() {
        let complex = cell.name.starts_with("XOR")
            || cell.name.starts_with("XNOR")
            || cell.name.starts_with("MUX")
            || cell.name.starts_with("NMUX")
            || cell.name.starts_with("MAJ");
        // Complex cells get an extra discount at the FinFET node.
        let delay_scale = if complex { 0.10 } else { 0.14 };
        let area_scale = if complex { 0.06 } else { 0.08 };
        lib.push(Cell {
            name: cell.name.clone(),
            area_um2: cell.area_um2 * area_scale,
            tt: cell.tt,
            pins: cell
                .pins
                .iter()
                .map(|p| Pin {
                    cap_ff: p.cap_ff * 0.25,
                    intrinsic_ps: p.intrinsic_ps * delay_scale,
                })
                .collect(),
            drive_res: cell.drive_res * 0.60,
            function: cell.function.clone(),
            pin_names: cell.pin_names.clone(),
        });
    }
    lib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asap7ish_scales_down() {
        let a = asap7ish();
        let s = sky130ish();
        assert_eq!(a.name(), "asap7ish");
        for (ca, cs) in a.cells().iter().zip(s.cells()) {
            assert_eq!(ca.tt, cs.tt, "{}: function must match", ca.name);
            assert!(ca.area_um2 < cs.area_um2);
            assert!(ca.pins[0].intrinsic_ps < cs.pins[0].intrinsic_ps);
        }
        assert!(a.wire_cap_per_fanout_ff() < s.wire_cap_per_fanout_ff());
    }

    #[test]
    fn builtin_sanity() {
        let lib = sky130ish();
        assert!(lib.len() >= 40);
        assert!(!lib.is_empty());
        for c in lib.cells() {
            assert!(c.num_inputs() >= 1 && c.num_inputs() <= 4, "{}", c.name);
            assert!(c.area_um2 > 0.0);
            assert!(c.drive_res > 0.0);
            // tt must not be constant (no tie cells in this library)
            let bits = 1u32 << c.num_inputs();
            let mask = if bits >= 16 {
                0xFFFF
            } else {
                (1u16 << bits) - 1
            };
            assert_ne!(c.tt & mask, 0, "{} constant 0", c.name);
            assert_ne!(c.tt & mask, mask, "{} constant 1", c.name);
            // function expression agrees with the stored tt
            let pins: Vec<&str> = c.pin_names.iter().map(String::as_str).collect();
            assert_eq!(c.function.to_tt(&pins), c.tt, "{}", c.name);
        }
    }

    #[test]
    fn inverter_lookup() {
        let lib = sky130ish();
        let inv = lib.smallest_inverter();
        assert_eq!(lib.cell(inv).name, "INV_X1");
        let invs = lib.inverters();
        assert_eq!(invs.len(), 4);
        // ordered by increasing drive == decreasing resistance
        for w in invs.windows(2) {
            assert!(lib.cell(w[0]).drive_res >= lib.cell(w[1]).drive_res);
        }
    }

    #[test]
    fn delay_model_monotone_in_load() {
        let lib = sky130ish();
        let c = lib.cell(lib.find("NAND2_X1").expect("exists"));
        assert!(c.delay_ps(0, 10.0) > c.delay_ps(0, 2.0));
    }

    #[test]
    fn drive_variants_share_function() {
        let lib = sky130ish();
        let base = lib.find("NAND2_X1").expect("exists");
        let variants = lib.drive_variants(base);
        assert_eq!(variants.len(), 2); // X1, X2
        for v in variants {
            assert_eq!(lib.cell(v).tt, lib.cell(base).tt);
        }
    }

    #[test]
    fn bigger_drive_less_resistance() {
        let lib = sky130ish();
        let x1 = lib.cell(lib.find("INV_X1").expect("x1"));
        let x8 = lib.cell(lib.find("INV_X8").expect("x8"));
        assert!(x8.drive_res < x1.drive_res);
        assert!(x8.pins[0].cap_ff > x1.pins[0].cap_ff);
        assert!(x8.area_um2 > x1.area_um2);
    }

    #[test]
    fn find_missing() {
        let lib = sky130ish();
        assert!(lib.find("DFF_X1").is_none());
    }

    #[test]
    fn mux_function_correct() {
        let lib = sky130ish();
        let m = lib.cell(lib.find("MUX2_X1").expect("exists"));
        // pins a=var0, b=var1, s=var2; f = s ? b : a
        for mt in 0..8u16 {
            let a = mt & 1 == 1;
            let b = mt >> 1 & 1 == 1;
            let s = mt >> 2 & 1 == 1;
            let want = if s { b } else { a };
            assert_eq!(m.tt >> mt & 1 == 1, want, "minterm {mt}");
        }
    }
}
