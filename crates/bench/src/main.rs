//! `simcxl-report`: runs, writes and checks the bench suites, the
//! paper's figures among them.
//!
//! ```text
//! simcxl-report [<suite>|all] [--json] [--summary [--github]] [--check-determinism]
//! ```
//!
//! A `<suite>` is any entry of `simcxl_bench::report::SUITES`; `all`
//! (the default) means every suite. Naming one runs its full workload
//! and prints its report; `--json` also writes the committed report
//! file. The suite's in-process gates are asserted before anything is
//! printed.
//!
//! Two modes work on one suite, or on every suite with `all`:
//!
//! * `--summary` prints each committed report's sections whole; with
//!   `--github` it prints the markdown digest CI appends to
//!   `$GITHUB_STEP_SUMMARY`.
//! * `--check-determinism` regenerates each full report in-process,
//!   checks its pinned checksums, and compares the whole committed file
//!   with the regeneration, naming the first differing dotted path.
//!   Every failing suite is listed, not just the first.
//!
//! At most one suite may be named, `--github` needs `--summary`, and
//! `--json` combines with neither mode; anything else is a usage error.
//!
//! Exit codes: 0 on success, 1 on a determinism failure, 2 on a usage
//! error or an unreadable report.

use simcxl_bench::report::{self, SUITES};

const USAGE: &str = "usage: simcxl-report [SUITE|all] [--json] \
                     [--summary [--github]] [--check-determinism]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let (mut json, mut summary, mut github, mut check) = (false, false, false, false);
    let mut arg = None;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            "--summary" => summary = true,
            "--github" => github = true,
            "--check-determinism" => check = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            _ if arg.is_some() => usage_error(&format!("unexpected second suite {a:?}")),
            _ => arg = Some(a),
        }
    }
    if github && !summary {
        usage_error("--github needs --summary");
    }
    if json && (summary || check) {
        usage_error("--json writes a fresh report; it does not combine with a gate mode");
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
    if !(summary || check) {
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
    // `all` aggregates: every suite is checked and every failure
    // reported, so a drift in one suite cannot mask another.
    let mut failures = Vec::new();
    for suite in suites {
        let committed = suite.load().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        if summary {
            if github {
                print!("{}", suite.github_summary(&committed));
            } else {
                print!("{}", suite.summary(&committed));
            }
        }
        if !check {
            continue;
        }
        match suite.check_committed(&committed, &suite.report(false)) {
            Ok(msg) => println!("determinism ok [{}]: {msg}", suite.name),
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
