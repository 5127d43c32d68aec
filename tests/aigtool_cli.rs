//! The `aigtool` command line: an input file is found wherever the
//! flags stand, and a flag's value is never read as the input file.
//! A flag the command does not read, a flag without its value, a
//! second input and a design it cannot build are errors that name the
//! argument: the tool exits 1 and writes nothing.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A temp directory of this test process, so parallel test runs
/// never share files.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aigtool_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn aigtool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aigtool"))
        .args(args)
        .output()
        .expect("run aigtool")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what}: exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

fn path_str(p: &std::path::Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn gen_accepts_output_flag_first() {
    let dir = temp_dir("gen");
    let out = dir.join("m5.aag");
    assert_ok(
        &aigtool(&["gen", "-o", path_str(&out), "mult5"]),
        "gen -o OUT mult5",
    );
    assert!(out.is_file(), "gen must write {}", out.display());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn opt_reads_the_same_input_whatever_the_flag_order() {
    let dir = temp_dir("opt");
    let input = dir.join("m4.aag");
    assert_ok(&aigtool(&["gen", "mult4", "-o", path_str(&input)]), "gen");
    let first = dir.join("flag_first.aag");
    let last = dir.join("flag_last.aag");
    assert_ok(
        &aigtool(&["opt", "-o", path_str(&first), path_str(&input)]),
        "opt -o OUT IN",
    );
    assert_ok(
        &aigtool(&["opt", path_str(&input), "-o", path_str(&last)]),
        "opt IN -o OUT",
    );
    let a = std::fs::read(&first).expect("flag-first output");
    let b = std::fs::read(&last).expect("flag-last output");
    assert!(!a.is_empty());
    assert_eq!(a, b, "flag order changed the optimized file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flags_alone_report_a_missing_input() {
    let out = aigtool(&["opt", "--script", "b;rw", "-o", "unused.aag"]);
    assert!(
        !out.status.success(),
        "a command without an input file must fail"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("missing input file"),
        "unexpected stderr: {stderr}"
    );
}

/// A flag the command does not read, a flag without its value, a
/// second input and an empty design: each run exits 1 with an error
/// that names the argument, prints nothing and writes no file.
#[test]
fn bad_arguments_are_rejected_by_name() {
    let dir = temp_dir("rejected");
    let input = dir.join("m4.aag");
    let other = dir.join("other.aag");
    let out = dir.join("out.aag");
    assert_ok(&aigtool(&["gen", "mult4", "-o", path_str(&input)]), "gen");
    std::fs::copy(&input, &other).expect("copy input");
    let (i, o, out_str) = (path_str(&input), path_str(&other), path_str(&out));
    let cases: [(&[&str], &str); 6] = [
        (&["opt", i, "--scirpt", "b", "-o", out_str], "--scirpt"),
        (&["opt", i, "-o", out_str, "--script"], "--script"),
        (
            &["map", i, "--verilog", out_str, "--no-resise"],
            "--no-resise",
        ),
        (&["sta", i, "--paths"], "--paths"),
        (&["opt", i, o, "-o", out_str], o),
        (&["gen", "large0", "-o", out_str], "large0"),
    ];
    let mut accepted = Vec::new();
    for (args, culprit) in cases {
        let run = aigtool(args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        if run.status.code() != Some(1)
            || !stderr.contains(&format!("`{culprit}`"))
            || !run.stdout.is_empty()
            || out.exists()
        {
            accepted.push(format!("{args:?}: exit {:?}, stderr: {stderr}", run.status));
            std::fs::remove_file(&out).ok();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        accepted.is_empty(),
        "not rejected by name:\n{}",
        accepted.join("\n")
    );
}
