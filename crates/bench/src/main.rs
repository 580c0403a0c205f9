//! `simcxl-report`: runs, writes and checks the bench suites, the
//! paper's figures among them.
//!
//! ```text
//! simcxl-report [<suite>|all] [--json | --check-determinism [--github]]
//! ```
//!
//! A `<suite>` is any entry of `simcxl_bench::report::SUITES`; `all`
//! (the default) means every suite. Naming one runs its full workload
//! and prints its report; `--json` also writes the committed report
//! file. The suite's in-process gates are asserted before anything is
//! printed. The committed `BENCH_<suite>.json` is itself the report's
//! summary: read it with `cat`.
//!
//! `--check-determinism` regenerates each full report in-process,
//! checks its pinned checksums, and requires the committed file to be
//! the regeneration byte for byte, naming the first differing line.
//! Every failing suite is listed, not just the first. Status lines go
//! to stderr; `--github` prints each regenerated report's markdown
//! digest to stdout, which CI appends to `$GITHUB_STEP_SUMMARY`.
//!
//! At most one suite may be named, `--github` needs
//! `--check-determinism`, and `--json` does not combine with it;
//! anything else is a usage error.
//!
//! Exit codes: 0 on success, 1 on a determinism failure, 2 on a usage
//! error or an unreadable report.

use simcxl_bench::report::{self, SUITES};

const USAGE: &str = "usage: simcxl-report [SUITE|all] [--json | --check-determinism [--github]]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let (mut json, mut github, mut check) = (false, false, false);
    let mut arg = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            "--github" => github = true,
            "--check-determinism" => check = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            _ if arg.is_some() => usage_error(&format!("unexpected second suite {a:?}")),
            _ => arg = Some(a),
        }
    }
    if github && !check {
        usage_error("--github needs --check-determinism");
    }
    if json && check {
        usage_error("--json writes a fresh report; it does not combine with --check-determinism");
    }
    let arg = arg.unwrap_or_else(|| "all".to_owned());
    let suites: Vec<_> = if arg == "all" {
        SUITES.iter().collect()
    } else {
        match report::suite(&arg) {
            Some(s) => vec![s],
            None => usage_error(&format!("unknown suite {arg:?}")),
        }
    };
    if !check {
        for suite in suites {
            let report = if json {
                suite
                    .write()
                    .unwrap_or_else(|e| panic!("writing {} failed: {e}", suite.file))
            } else {
                suite.report(false)
            };
            println!("{report}\n");
        }
        return;
    }
    // Every committed file is read before any suite runs, so a missing
    // one fails at once.
    let committed: Vec<String> = suites
        .iter()
        .map(|suite| {
            suite.committed().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        })
        .collect();
    // `all` aggregates: every suite is checked and every failure
    // reported, so a drift in one suite cannot mask another.
    let mut failures = Vec::new();
    for (suite, committed) in suites.into_iter().zip(&committed) {
        let regenerated = suite.report(false);
        if github {
            print!("{}", suite.github_summary(&regenerated));
        }
        match suite.check_committed(committed, &regenerated) {
            Ok(msg) => eprintln!("determinism ok [{}]: {msg}", suite.name),
            Err(e) => failures.push(format!("{}: {e}", suite.name)),
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("determinism check FAILED: {f}");
        }
        std::process::exit(1);
    }
}
