//! `aigtool` — a command-line front end to the synthesis stack.
//!
//! ```text
//! aigtool <command> [args]
//!
//! commands:
//!   stats <file>                      AIG statistics (PI/PO/nodes/levels)
//!   opt <file> [--script S] [-o OUT]  apply a transformation script
//!   map <file> [--lib L] [--verilog OUT.v] [--no-resize]
//!                                     technology map; report delay/area
//!   sta <file> [--lib L] [--paths N] [--no-resize]
//!                                     full timing report
//!   features <file>                   print the Table II feature vector
//!   gen <design> -o OUT               write a builtin benchmark design
//!
//! A command rejects any flag it does not list, a flag without its
//! value, and a second input.
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

/// A command's input (a file or a design name) and the flags it was
/// given, each with its value when it takes one.
struct Args<'a> {
    input: &'a str,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Reads `rest` in one indexed pass: a flag in `valued` takes the
    /// next argument as its value, one in `switches` stands alone, and
    /// the one other argument is the input, wherever the flags stand.
    /// Any other `-`-prefixed argument, a valued flag without a value
    /// and a second input are errors that name them; so is a missing
    /// input.
    fn parse(rest: &'a [String], valued: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut input = None;
        let mut flags = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let a = rest[i].as_str();
            if valued.contains(&a) {
                let value = rest
                    .get(i + 1)
                    .ok_or_else(|| format!("flag `{a}` needs a value"))?;
                flags.push((a, Some(value.as_str())));
                i += 1;
            } else if switches.contains(&a) {
                flags.push((a, None));
            } else if a.starts_with('-') {
                return Err(format!("unknown flag `{a}`"));
            } else if input.is_some() {
                return Err(format!("unexpected argument `{a}`"));
            } else {
                input = Some(a);
            }
            i += 1;
        }
        let input = input.ok_or("missing input file")?;
        Ok(Args { input, flags })
    }

    /// The value of the first `flag`, when it was given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }
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

fn load_library(args: &Args<'_>) -> Result<Library, Box<dyn std::error::Error>> {
    match args.value("--lib").unwrap_or("sky130ish") {
        "sky130ish" => Ok(cells::sky130ish()),
        "asap7ish" => Ok(cells::asap7ish()),
        path => {
            let text = std::fs::read_to_string(path)?;
            Ok(cells::liberty::parse(&text)?)
        }
    }
}

fn cmd_stats(rest: &[String]) -> ToolResult {
    let g = load(Args::parse(rest, &[], &[])?.input)?;
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
    let args = Args::parse(rest, &["--script", "-o"], &[])?;
    let g = load(args.input)?;
    let script: transform::Recipe = args
        .value("--script")
        .unwrap_or("b;rw;rf;b;rwz;rfz")
        .parse()?;
    let out = script.apply(&g);
    println!("before: {}", g.stats());
    println!("after `{script}`: {}", out.stats());
    if !aig::sim::equiv_auto(&g, &out, 16, 7)? {
        return Err("INTERNAL: transformation changed the function".into());
    }
    if let Some(path) = args.value("-o") {
        save(&out, path)?;
        println!("wrote {path}");
    }
    Ok(())
}

fn map_with(args: &Args<'_>) -> Result<(Library, techmap::Netlist), Box<dyn std::error::Error>> {
    let g = load(args.input)?;
    let lib = load_library(args)?;
    let mapper = techmap::Mapper::new(&lib, techmap::MapOptions::default());
    let mut nl = mapper.map(&g)?;
    if !args.has("--no-resize") {
        techmap::resize_greedy(&mut nl, &lib, 2);
    }
    Ok((lib, nl))
}

fn cmd_map(rest: &[String]) -> ToolResult {
    let args = Args::parse(rest, &["--lib", "--verilog"], &["--no-resize"])?;
    let (lib, nl) = map_with(&args)?;
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
    if let Some(path) = args.value("--verilog") {
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
    let args = Args::parse(rest, &["--lib", "--paths"], &["--no-resize"])?;
    let (lib, nl) = map_with(&args)?;
    let report = sta::analyze(&nl, &lib);
    println!(
        "critical path {:.1} ps, area {:.1} um2, worst slack {:.2} ps",
        report.max_delay_ps,
        report.area_um2,
        report.worst_slack_ps()
    );
    let n: usize = args.value("--paths").unwrap_or("3").parse()?;
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
    let g = load(Args::parse(rest, &[], &[])?.input)?;
    print!("{}", features::extract(&g));
    Ok(())
}

fn cmd_gen(rest: &[String]) -> ToolResult {
    let args = Args::parse(rest, &["-o"], &[])?;
    let name = args.input;
    let design = if let Some(bits) = name.strip_prefix("mult") {
        benchgen::multiplier(bits.parse()?)
    } else if name == "large10k" {
        benchgen::large_10k()
    } else if name == "large100k" {
        benchgen::large_100k()
    } else if name == "large1m" {
        benchgen::large_1m()
    } else if let Some(ands) = name.strip_prefix("large") {
        match ands.parse()? {
            0 => return Err(format!("design `{name}` needs a positive AND count").into()),
            ands => benchgen::large_mix(ands),
        }
    } else {
        benchgen::iwls_like_suite()
            .into_iter()
            .find(|d| d.name == name)
            .ok_or_else(|| format!("unknown design `{name}`"))?
    };
    let out = args.value("-o").ok_or("missing -o OUT")?;
    save(&design.aig, out)?;
    println!("wrote {} ({}) to {out}", design.name, design.aig.stats());
    Ok(())
}
