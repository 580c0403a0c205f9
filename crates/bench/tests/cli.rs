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

/// Asserts `args` exit 2 with a usage line naming `needle` and print
/// nothing on stdout.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = run(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may be printed");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(needle) && err.contains("usage:"), "{err}");
}

/// One run reports one suite (or `all`); a second name is rejected, not
/// ignored.
#[test]
fn second_suite_is_a_usage_error() {
    assert_usage_error(&["faults", "figures"], "\"figures\"");
}

/// `--github` only adds the digest to `--check-determinism`, and there
/// is no `--summary` mode: the committed `BENCH_<suite>.json` is the
/// summary.
#[test]
fn github_without_summary_is_a_usage_error() {
    assert_usage_error(&["faults", "--github"], "--github needs");
    assert_usage_error(&["faults", "--summary"], "--summary");
    assert_usage_error(&["faults", "--summary", "--github"], "--summary");
}

/// `--json` writes a freshly run report; the gate compares the
/// committed one with a regeneration, so the pair would ignore `--json`.
#[test]
fn json_with_a_gate_mode_is_a_usage_error() {
    assert_usage_error(&["faults", "--json", "--check-determinism"], "--json");
}
