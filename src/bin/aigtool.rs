//! `aigtool` — a command-line front end to the synthesis stack.
//!
//! ```text
//! aigtool <command> [args]
//!
//! commands:
//!   stats <file>                      AIG statistics (PI/PO/nodes/levels)
//!   opt <file> --script S [-o OUT]    apply a transformation script
//!   map <file> [--lib L] [--verilog OUT.v] [--no-resize]
//!                                     technology map; report delay/area
//!   sta <file> [--lib L] [--paths N]  full timing report
//!   features <file>                   print the Table II feature vector
//!   gen <design> -o OUT               write a builtin benchmark design
//!
//! file formats: ASCII (.aag) / binary (.aig) AIGER and .blif.
//! scripts: semicolon-separated mnemonics, e.g. "b;rw;rf;rwz;b"
//!   (b, rw, rwz, rf, rfz, sw, bd, rs, pt, rsb)
//! libraries: "sky130ish" (default), "asap7ish", or a liberty-lite file.
//! designs: ex00 ex02 ex08 ex11 ex16 ex28 ex54 ex68 multN (e.g. mult8),
//!   and the scale tier large10k / large100k / large1m / largeN
//! ```

#![forbid(unsafe_code)]

use aig::{aiger, Aig};
use cells::Library;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("usage: aigtool <stats|opt|map|sta|features|gen> [args]; see crate docs");
        exit(if args.is_empty() { 2 } else { 0 });
    }
    let cmd = args[0].as_str();
    let rest = &args[1..];
    let result = match cmd {
        "stats" => cmd_stats(rest),
        "opt" => cmd_opt(rest),
        "map" => cmd_map(rest),
        "sta" => cmd_sta(rest),
        "features" => cmd_features(rest),
        "gen" => cmd_gen(rest),
        other => {
            eprintln!("unknown command `{other}`");
            exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

type ToolResult = Result<(), Box<dyn std::error::Error>>;

/// The first argument that is neither a flag nor the value of a flag
/// that takes one, wherever the flags stand.
fn positional(rest: &[String]) -> Result<&str, String> {
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i].as_str();
        if flag_takes_value(a) {
            i += 2;
        } else if a.starts_with('-') {
            i += 1;
        } else {
            return Ok(a);
        }
    }
    Err("missing input file".to_owned())
}

fn flag_takes_value(flag: &str) -> bool {
    matches!(flag, "--script" | "-o" | "--lib" | "--verilog" | "--paths")
}

fn flag_value<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

fn has_flag(rest: &[String], flag: &str) -> bool {
    rest.iter().any(|a| a == flag)
}

fn load(path: &str) -> Result<Aig, Box<dyn std::error::Error>> {
    if path.ends_with(".blif") {
        Ok(aig::blif::from_blif(&std::fs::read_to_string(path)?)?)
    } else {
        Ok(aiger::read_file(path)?)
    }
}

fn save(g: &Aig, path: &str) -> Result<(), Box<dyn std::error::Error>> {
    if path.ends_with(".blif") {
        let model = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("model");
        std::fs::write(path, aig::blif::to_blif(g, model))?;
    } else {
        aiger::write_file(g, path)?;
    }
    Ok(())
}

fn load_library(rest: &[String]) -> Result<Library, Box<dyn std::error::Error>> {
    match flag_value(rest, "--lib").unwrap_or("sky130ish") {
        "sky130ish" => Ok(cells::sky130ish()),
        "asap7ish" => Ok(cells::asap7ish()),
        path => {
            let text = std::fs::read_to_string(path)?;
            Ok(cells::liberty::parse(&text)?)
        }
    }
}

fn cmd_stats(rest: &[String]) -> ToolResult {
    let g = load(positional(rest)?)?;
    println!("{}", g.stats());
    let f = features::extract(&g);
    println!(
        "top path depth {}  paths(log2) {:.1}  max fanout {}",
        f[features::LONG_PATH_DEPTH] as u64,
        f[features::NUM_PATHS],
        f[features::FANOUT_STATS + 1] as u64
    );
    Ok(())
}

fn cmd_opt(rest: &[String]) -> ToolResult {
    let g = load(positional(rest)?)?;
    let script: transform::Recipe = flag_value(rest, "--script")
        .unwrap_or("b;rw;rf;b;rwz;rfz")
        .parse()?;
    let out = script.apply(&g);
    println!("before: {}", g.stats());
    println!("after `{script}`: {}", out.stats());
    if !aig::sim::equiv_auto(&g, &out, 16, 7)? {
        return Err("INTERNAL: transformation changed the function".into());
    }
    if let Some(path) = flag_value(rest, "-o") {
        save(&out, path)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn map_with(
    rest: &[String],
) -> Result<(Aig, Library, techmap::Netlist), Box<dyn std::error::Error>> {
    let g = load(positional(rest)?)?;
    let lib = load_library(rest)?;
    let mapper = techmap::Mapper::new(&lib, techmap::MapOptions::default());
    let mut nl = mapper.map(&g)?;
    if !has_flag(rest, "--no-resize") {
        techmap::resize_greedy(&mut nl, &lib, 2);
    }
    Ok((g, lib, nl))
}

fn cmd_map(rest: &[String]) -> ToolResult {
    let (_, lib, nl) = map_with(rest)?;
    let (delay, area) = sta::delay_and_area(&nl, &lib);
    println!(
        "mapped to {}: {} gates, {:.1} um2, {:.1} ps",
        lib.name(),
        nl.num_gates(),
        area,
        delay
    );
    for (cell, n) in nl.cell_histogram(&lib) {
        println!("  {cell:12} x{n}");
    }
    if let Some(path) = flag_value(rest, "--verilog") {
        let module = "mapped";
        let mut text = techmap::to_verilog(&nl, &lib, module);
        text.push('\n');
        text.push_str(&techmap::library_models(&lib));
        std::fs::write(path, text)?;
        println!("wrote {path} (module `{module}` + cell models)");
    }
    Ok(())
}

fn cmd_sta(rest: &[String]) -> ToolResult {
    let (_, lib, nl) = map_with(rest)?;
    let report = sta::analyze(&nl, &lib);
    println!(
        "critical path {:.1} ps, area {:.1} um2, worst slack {:.2} ps",
        report.max_delay_ps,
        report.area_um2,
        report.worst_slack_ps()
    );
    let n: usize = flag_value(rest, "--paths").unwrap_or("3").parse()?;
    for p in sta::worst_output_paths(&nl, &lib, n) {
        println!(
            "output {} ({}): {:.1} ps, {} stages",
            p.output,
            p.name.as_deref().unwrap_or("?"),
            p.arrival_ps,
            p.stages.len()
        );
        for st in &p.stages {
            println!(
                "    {:12} pin {}  arrival {:8.1} ps  load {:5.1} fF",
                st.cell_name, st.pin, st.arrival_ps, st.load_ff
            );
        }
    }
    Ok(())
}

fn cmd_features(rest: &[String]) -> ToolResult {
    let g = load(positional(rest)?)?;
    print!("{}", features::extract(&g));
    Ok(())
}

fn cmd_gen(rest: &[String]) -> ToolResult {
    let name = positional(rest)?;
    let design = if let Some(bits) = name.strip_prefix("mult") {
        benchgen::multiplier(bits.parse()?)
    } else if name == "large10k" {
        benchgen::large_10k()
    } else if name == "large100k" {
        benchgen::large_100k()
    } else if name == "large1m" {
        benchgen::large_1m()
    } else if let Some(ands) = name.strip_prefix("large") {
        benchgen::large_mix(ands.parse()?)
    } else {
        benchgen::iwls_like_suite()
            .into_iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("unknown design `{name}`"))?
    };
    let out = flag_value(rest, "-o").ok_or("missing -o OUT")?;
    save(&design.aig, out)?;
    println!("wrote {} ({}) to {out}", design.name, design.aig.stats());
    Ok(())
}
