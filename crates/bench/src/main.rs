//! `simcxl-report`: regenerates every table and figure of the paper.
//!
//! ```text
//! simcxl-report [table1|fig12|fig13|fig14|fig15|fig16|fig17|fig18|
//!                calibration|headline|shapes|<suite>|all]
//!               [--json] [--quick] [--summary [--github]]
//!               [--check-determinism [--expect-mode=full|quick]]
//! ```
//!
//! A `<suite>` is any entry of `simcxl_bench::report::SUITES`. Naming
//! one runs it and prints its report; `--json` also writes the report
//! file and `--quick` selects the reduced CI smoke workload. The suite's
//! in-process gates are asserted before anything is printed.
//!
//! Two read-only modes operate on the written report files of one suite,
//! or of every suite with `all`, instead of re-running anything:
//!
//! * `--summary` prints each report's sections whole; with `--github`
//!   it prints the markdown digest CI appends to `$GITHUB_STEP_SUMMARY`.
//! * `--check-determinism` verifies each report's pinned checksums for
//!   its mode. Every failing suite is listed, not just the first.
//!   `--expect-mode=quick` also fails unless the file records that
//!   mode: CI uses it to prove the checked file came from this run's
//!   quick bench, not from the committed full-mode file.
//!
//! Exit codes: 0 on success, 1 on a determinism failure, 2 on a usage
//! error or an unreadable report.

use simcxl_bench::report::{self, SUITES};

const USAGE: &str = "usage: simcxl-report [REPORT|SUITE|all] [--json] [--quick] \
                     [--summary [--github]] [--check-determinism [--expect-mode=full|quick]]";

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let (mut json, mut quick, mut summary, mut github, mut check) =
        (false, false, false, false, false);
    let (mut expect, mut arg) = (None, None);
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--json" => json = true,
            "--quick" => quick = true,
            "--summary" => summary = true,
            "--github" => github = true,
            "--check-determinism" => check = true,
            "--expect-mode=full" => expect = Some("full"),
            "--expect-mode=quick" => expect = Some("quick"),
            flag if flag.starts_with("--") => usage_error(&format!("unknown option {flag}")),
            _ => arg = arg.or(Some(a)),
        }
    }
    let arg = arg.unwrap_or_else(|| "all".to_owned());
    if summary || check {
        let suites: Vec<_> = if arg == "all" {
            SUITES.iter().collect()
        } else {
            match report::suite(&arg) {
                Some(s) => vec![s],
                None => usage_error(&format!(
                    "--summary/--check-determinism apply to a bench suite or `all`, not {arg:?}"
                )),
            }
        };
        // `all` aggregates: every suite is checked and every failure
        // reported, so a drift in one suite cannot mask another.
        let mut failures = Vec::new();
        for suite in suites {
            let report = suite.load().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            if summary {
                if github {
                    print!("{}", suite.github_summary(&report));
                } else {
                    print!("{}", suite.summary(&report));
                }
            }
            if !check {
                continue;
            }
            let mode = report.get("mode").and_then(report::Json::as_str);
            let verdict = match expect {
                Some(want) if mode != Some(want) => Err(format!(
                    "report mode is {mode:?}, expected {want:?} — the checked file was not \
                     produced by the expected run (did the bench step fail before writing?)"
                )),
                _ => suite.check_determinism(&report),
            };
            match verdict {
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
        return;
    }
    if let Some(suite) = report::suite(&arg) {
        let report = if json {
            suite
                .write(quick)
                .unwrap_or_else(|e| panic!("writing {} failed: {e}", suite.file))
        } else {
            suite.report(quick)
        };
        println!("{report}\n");
        return;
    }
    let run = |name: &str| {
        match name {
            "table1" => simcxl_bench::table1(),
            "fig12" => simcxl_bench::fig12(200),
            "fig13" => simcxl_bench::fig13(100),
            "fig14" => simcxl_bench::fig14(),
            "fig15" => simcxl_bench::fig15(),
            "fig16" => simcxl_bench::fig16(),
            "fig17" => simcxl_bench::fig17(2048),
            "fig18" => simcxl_bench::fig18(0),
            "calibration" => simcxl_bench::calibration(100),
            "headline" => simcxl_bench::headline(100),
            "shapes" => simcxl_bench::bench_shapes(),
            other => usage_error(&format!("unknown report: {other}")),
        }
        println!();
    };
    if arg == "all" {
        for name in [
            "table1",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "fig18",
            "calibration",
            "headline",
            "shapes",
        ] {
            run(name);
        }
    } else {
        run(&arg);
    }
}
