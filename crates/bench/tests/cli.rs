//! `simcxl-report` rejects mistyped flags instead of ignoring them: a
//! misspelled CI gate must fail, not print a report and exit 0.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simcxl-report"))
        .args(args)
        .output()
        .expect("simcxl-report runs")
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let out = run(&["faults", "--chek-determinism"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no report may be printed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--chek-determinism") && err.contains("usage:"),
        "{err}"
    );
}

/// `--expect-mode` and `--quick` are gone: `--check-determinism` always
/// regenerates the full report itself.
#[test]
fn unknown_expect_mode_is_a_usage_error() {
    let out = run(&["faults", "--check-determinism", "--expect-mode=full"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    let out = run(&["faults", "--quick"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// The stdout printers are gone: a former report name such as `fig13`
/// is no suite, so it is a usage error (its numbers live in the
/// `figures` suite).
#[test]
fn removed_report_name_is_a_usage_error() {
    let out = run(&["fig13"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
