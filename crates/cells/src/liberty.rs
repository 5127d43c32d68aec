//! A tiny, self-contained "liberty-lite" text format for cell
//! libraries.
//!
//! The format is deliberately a small subset of Liberty:
//!
//! ```text
//! library(sky130ish) {
//!   wire_cap_per_fanout : 1.4;
//!   cell(NAND2_X1) {
//!     area : 3.8;
//!     function : "!(a & b)";
//!     resistance : 10.0;
//!     pin(a) { cap : 3.3; intrinsic : 22.0; }
//!     pin(b) { cap : 3.3; intrinsic : 22.0; }
//!   }
//! }
//! ```
//!
//! Pin declaration order defines the function-variable order.

use crate::expr::BoolExpr;
use crate::library::{Cell, Library, Pin};
use std::fmt;

/// Error from [`parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLibertyError {
    /// 1-based line of the failure.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseLibertyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "liberty-lite parse error on line {}: {}",
            self.line, self.msg
        )
    }
}

impl std::error::Error for ParseLibertyError {}

fn err(line: usize, msg: impl Into<String>) -> ParseLibertyError {
    ParseLibertyError {
        line,
        msg: msg.into(),
    }
}

/// Serializes a [`Library`] in liberty-lite format.
pub fn to_string(lib: &Library) -> String {
    let mut s = format!("library({}) {{\n", lib.name());
    s.push_str(&format!(
        "  wire_cap_per_fanout : {};\n",
        lib.wire_cap_per_fanout_ff()
    ));
    for c in lib.cells() {
        s.push_str(&format!("  cell({}) {{\n", c.name));
        s.push_str(&format!("    area : {};\n", c.area_um2));
        s.push_str(&format!("    function : \"{}\";\n", c.function));
        s.push_str(&format!("    resistance : {};\n", c.drive_res));
        for (name, pin) in c.pin_names.iter().zip(&c.pins) {
            s.push_str(&format!(
                "    pin({name}) {{ cap : {}; intrinsic : {}; }}\n",
                pin.cap_ff, pin.intrinsic_ps
            ));
        }
        s.push_str("  }\n");
    }
    s.push_str("}\n");
    s
}

/// Parses a liberty-lite document into a [`Library`].
///
/// # Errors
///
/// Returns [`ParseLibertyError`] with a line number for malformed
/// input, unknown attributes, or function/pin mismatches.
///
/// # Examples
///
/// ```
/// use cells::{liberty, sky130ish};
///
/// let lib = sky130ish();
/// let text = liberty::to_string(&lib);
/// let back = liberty::parse(&text)?;
/// assert_eq!(lib, back);
/// # Ok::<(), cells::liberty::ParseLibertyError>(())
/// ```
pub fn parse(text: &str) -> Result<Library, ParseLibertyError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with("//"));

    let (lib_line, first) = lines.next().ok_or_else(|| err(1, "empty document"))?;
    let lib_name = first
        .strip_prefix("library(")
        .and_then(|r| r.split(')').next())
        .ok_or_else(|| err(lib_line, "expected `library(NAME) {`"))?
        .to_owned();
    let mut wire_cap = 0.0f64;
    let mut cells: Vec<Cell> = Vec::new();

    #[derive(Default)]
    struct PendingCell {
        name: String,
        area: Option<f64>,
        function: Option<BoolExpr>,
        resistance: Option<f64>,
        pin_names: Vec<String>,
        pins: Vec<Pin>,
        line: usize,
    }
    let mut current: Option<PendingCell> = None;

    for (ln, line) in lines {
        if line == "}" {
            match current.take() {
                Some(pc) => {
                    let function = pc.function.ok_or_else(|| {
                        err(pc.line, format!("cell {} missing function", pc.name))
                    })?;
                    let names: Vec<&str> = pc.pin_names.iter().map(String::as_str).collect();
                    for p in function.pins() {
                        if !names.contains(&p) {
                            return Err(err(
                                pc.line,
                                format!("cell {}: function pin `{p}` not declared", pc.name),
                            ));
                        }
                    }
                    if names.len() > 4 {
                        return Err(err(pc.line, format!("cell {}: more than 4 pins", pc.name)));
                    }
                    let tt = function.to_tt(&names);
                    cells.push(Cell {
                        name: pc.name,
                        area_um2: pc.area.ok_or_else(|| err(pc.line, "cell missing area"))?,
                        tt,
                        pins: pc.pins,
                        drive_res: pc
                            .resistance
                            .ok_or_else(|| err(pc.line, "cell missing resistance"))?,
                        function,
                        pin_names: pc.pin_names,
                    });
                }
                None => {
                    // closing the library block: done
                    let mut lib = Library::new(lib_name, wire_cap);
                    for c in cells {
                        lib.push(c);
                    }
                    return Ok(lib);
                }
            }
        } else if let Some(rest) = line.strip_prefix("cell(") {
            if current.is_some() {
                return Err(err(ln, "nested cell blocks are not allowed"));
            }
            let name = rest
                .split(')')
                .next()
                .ok_or_else(|| err(ln, "expected `cell(NAME) {`"))?
                .to_owned();
            current = Some(PendingCell {
                name,
                line: ln,
                ..Default::default()
            });
        } else if let Some(rest) = line.strip_prefix("pin(") {
            let pc = current
                .as_mut()
                .ok_or_else(|| err(ln, "pin outside of cell block"))?;
            let name = rest
                .split(')')
                .next()
                .ok_or_else(|| err(ln, "expected `pin(NAME) { ... }`"))?
                .to_owned();
            let cap = attr_value(rest, "cap").ok_or_else(|| err(ln, "pin missing cap"))?;
            let intrinsic =
                attr_value(rest, "intrinsic").ok_or_else(|| err(ln, "pin missing intrinsic"))?;
            pc.pin_names.push(name);
            pc.pins.push(Pin {
                cap_ff: cap,
                intrinsic_ps: intrinsic,
            });
        } else if let Some((key, value)) = split_attr(line) {
            match (key, &mut current) {
                ("wire_cap_per_fanout", None) => {
                    wire_cap = value.parse().map_err(|_| err(ln, "bad number"))?;
                }
                ("area", Some(pc)) => {
                    pc.area = Some(value.parse().map_err(|_| err(ln, "bad number"))?);
                }
                ("resistance", Some(pc)) => {
                    pc.resistance = Some(value.parse().map_err(|_| err(ln, "bad number"))?);
                }
                ("function", Some(pc)) => {
                    let quoted = value.trim().trim_matches('"');
                    pc.function = Some(
                        BoolExpr::parse(quoted)
                            .map_err(|e| err(ln, format!("bad function: {e}")))?,
                    );
                }
                (k, _) => return Err(err(ln, format!("unknown attribute `{k}`"))),
            }
        } else {
            return Err(err(ln, format!("cannot parse line: `{line}`")));
        }
    }
    // The innermost open block: a pending cell, else the library.
    let open = current.map_or(lib_line, |pc| pc.line);
    Err(err(open, "unexpected end of input (unclosed block)"))
}

/// Splits `key : value;` into components.
fn split_attr(line: &str) -> Option<(&str, &str)> {
    let line = line.strip_suffix(';')?;
    let (key, value) = line.split_once(':')?;
    Some((key.trim(), value.trim()))
}

/// Extracts `key : NUMBER;` from inside an inline pin block.
fn attr_value(text: &str, key: &str) -> Option<f64> {
    let idx = text.find(key)?;
    let rest = &text[idx + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?;
    let end = rest.find(';')?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::sky130ish;

    #[test]
    fn builtin_roundtrip() {
        let lib = sky130ish();
        let text = to_string(&lib);
        let back = parse(&text).expect("roundtrip");
        assert_eq!(lib, back);
    }

    #[test]
    fn minimal_library() {
        let text = r#"
            library(mini) {
              wire_cap_per_fanout : 2.0;
              cell(INV) {
                area : 1.0;
                function : "!a";
                resistance : 5.0;
                pin(a) { cap : 1.5; intrinsic : 10.0; }
              }
            }
        "#;
        let lib = parse(text).expect("parse");
        assert_eq!(lib.name(), "mini");
        assert_eq!(lib.len(), 1);
        assert_eq!(lib.wire_cap_per_fanout_ff(), 2.0);
        let c = lib.cell(lib.find("INV").expect("exists"));
        assert_eq!(c.tt & 0b11, 0b01);
    }

    #[test]
    fn error_reporting() {
        assert_eq!(parse("").unwrap_err().line, 1);
        // An unclosed block points at the line that opened the
        // innermost one: the library header, or a cell left open.
        assert_eq!(parse("library(x) {").unwrap_err().line, 1);
        let e = parse("library(x) {\n  cell(C) {\n    area : 1.0;\n").unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.msg.contains("unclosed"), "{e}");
        let bad_fn = r#"
            library(x) {
              cell(C) {
                area : 1.0;
                function : "a &&& b";
                resistance : 1.0;
                pin(a) { cap : 1.0; intrinsic : 1.0; }
                pin(b) { cap : 1.0; intrinsic : 1.0; }
              }
            }
        "#;
        let e = parse(bad_fn).unwrap_err();
        assert!(e.msg.contains("bad function"), "{e}");
    }

    #[test]
    fn undeclared_pin_rejected() {
        let text = r#"
            library(x) {
              cell(C) {
                area : 1.0;
                function : "a & q";
                resistance : 1.0;
                pin(a) { cap : 1.0; intrinsic : 1.0; }
              }
            }
        "#;
        let e = parse(text).unwrap_err();
        assert!(e.msg.contains("not declared"), "{e}");
    }

    #[test]
    fn missing_attrs_rejected() {
        let text = r#"
            library(x) {
              cell(C) {
                function : "a";
                resistance : 1.0;
                pin(a) { cap : 1.0; intrinsic : 1.0; }
              }
            }
        "#;
        let e = parse(text).unwrap_err();
        assert!(e.msg.contains("area"), "{e}");
    }
}
