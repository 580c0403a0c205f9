//! `simcxl-report`: regenerates every table and figure of the paper.
//!
//! ```text
//! simcxl-report [table1|fig12|fig13|fig14|fig15|fig16|fig17|fig18|
//!                calibration|headline|shapes|hotpath|scenarios|faults|
//!                rebalance|all]
//!               [--json] [--quick] [--summary] [--github] [--profile]
//!               [--check-determinism] [--expect-mode=full|quick]
//! ```
//!
//! `hotpath` runs the event-loop stress workload; with `--json` it also
//! writes `BENCH_hotpath.json` (see README for the schema).
//! `scenarios` runs the three canonical million-client client
//! scenarios the same way, writing `BENCH_scenarios.json` under
//! `--json`. `faults` runs the three canonical degradation scenarios
//! (flaky link, stalling expander, drain under load), writing
//! `BENCH_faults.json` under `--json` — the run itself asserts the
//! degradation gates before writing. `rebalance` runs the three
//! canonical adaptive re-interleave scenarios (drifting hot set,
//! stationary hot set, uniform noop) against their static-weights
//! controls, writing `BENCH_rebalance.json` under `--json` — the run
//! asserts the convergence gates before writing. `--quick` selects the
//! reduced CI smoke workload. Two read-only modes operate on the already-written
//! report file instead of re-running anything (both exit 2 if the file
//! is unreadable):
//!
//! * `hotpath|scenarios|faults|rebalance --summary` prints the
//!   per-variant summary blocks (what CI logs instead of ad-hoc JSON
//!   digging). With `--github` it prints a GitHub-flavored markdown
//!   digest instead — the table CI appends to `$GITHUB_STEP_SUMMARY`.
//! * `hotpath --profile` prints each stress variant's hot-path profile
//!   block (busy-hit/fast-path/general split, pending-depth and
//!   snoop-fan-out histograms) from the written report — the
//!   measurement layer behind the dense-contention restructure.
//! * `hotpath|scenarios|faults|rebalance --check-determinism` verifies
//!   the pinned checksums for the report's mode and exits 1 on drift —
//!   the gating determinism canaries of the CI perf job (`hotpath` pins
//!   the wave-driven `stress` checksum *and* the dense upfront-batch
//!   `stress_upfront` checksum; `scenarios`, `faults`, and `rebalance`
//!   pin all three of their case checksums). `all --check-determinism`
//!   verifies all four suite reports in one gating invocation — the
//!   consolidated CI determinism gate — failing with every drifted
//!   suite listed rather than stopping at the first.
//!   `--expect-mode=quick` additionally fails (exit 1)
//!   unless the file records that mode: CI uses it to prove the
//!   checked file was written by *this run's* quick bench rather than
//!   falling back to the committed full-mode file when the bench step
//!   died early.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let summary = args.iter().any(|a| a == "--summary");
    let github = args.iter().any(|a| a == "--github");
    let profile = args.iter().any(|a| a == "--profile");
    let check = args.iter().any(|a| a == "--check-determinism");
    let arg = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_owned());
    if summary || profile || check {
        let suites: &[&str] = match arg.as_str() {
            "hotpath" => &["hotpath"],
            "scenarios" => &["scenarios"],
            "faults" => &["faults"],
            "rebalance" => &["rebalance"],
            "all" => &["hotpath", "scenarios", "faults", "rebalance"],
            _ => {
                eprintln!(
                    "--summary/--profile/--check-determinism apply to the hotpath, \
                     scenarios, faults, and rebalance reports (or `all` for every \
                     suite at once): run `simcxl-report \
                     hotpath|scenarios|faults|rebalance|all \
                     --summary|--profile|--check-determinism`"
                );
                std::process::exit(2);
            }
        };
        if profile && arg != "hotpath" {
            eprintln!(
                "--profile reads the hot-path profile blocks of \
                 BENCH_hotpath.json: run `simcxl-report hotpath --profile`"
            );
            std::process::exit(2);
        }
        let expect = args
            .iter()
            .find_map(|a| a.strip_prefix("--expect-mode="))
            .map(str::to_owned);
        // `all` aggregates: every suite is read and checked, every
        // failure reported, and the exit code reflects the union — a
        // drift in one suite must not mask a drift in another.
        let mut failures: Vec<String> = Vec::new();
        for suite in suites {
            let path = match *suite {
                "hotpath" => simcxl_bench::hotpath::report_path(),
                "scenarios" => simcxl_bench::scenarios::report_path(),
                "rebalance" => simcxl_bench::rebalance::report_path(),
                _ => simcxl_bench::faults::report_path(),
            };
            let report = match std::fs::read_to_string(path) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                }
            };
            if summary {
                let text = match (*suite, github) {
                    ("hotpath", false) => simcxl_bench::hotpath::summary(&report),
                    ("hotpath", true) => simcxl_bench::hotpath::github_summary(&report),
                    ("scenarios", false) => simcxl_bench::scenarios::summary(&report),
                    ("scenarios", true) => simcxl_bench::scenarios::github_summary(&report),
                    ("rebalance", false) => simcxl_bench::rebalance::summary(&report),
                    ("rebalance", true) => simcxl_bench::rebalance::github_summary(&report),
                    (_, false) => simcxl_bench::faults::summary(&report),
                    (_, true) => simcxl_bench::faults::github_summary(&report),
                };
                print!("{text}");
            }
            if profile {
                print!("{}", simcxl_bench::hotpath::profile_summary(&report));
            }
            if check {
                if let Some(expect) = &expect {
                    let mode = simcxl_bench::hotpath::extract_scalar(&report, "mode");
                    if mode != Some(expect.as_str()) {
                        failures.push(format!(
                            "{suite}: report mode is {mode:?}, expected {expect:?} — the \
                             checked file was not produced by the expected run (did the \
                             bench step fail before writing?)"
                        ));
                        continue;
                    }
                }
                let verdict = match *suite {
                    "hotpath" => simcxl_bench::hotpath::check_determinism(&report).map(|sum| {
                        format!(
                            "stress checksum {sum:#018x} and the dense upfront-batch \
                             checksum match their pins"
                        )
                    }),
                    "scenarios" => simcxl_bench::scenarios::check_determinism(&report),
                    "rebalance" => simcxl_bench::rebalance::check_determinism(&report),
                    _ => simcxl_bench::faults::check_determinism(&report),
                };
                match verdict {
                    Ok(msg) => println!("determinism ok [{suite}]: {msg}"),
                    Err(e) => failures.push(format!("{suite}: {e}")),
                }
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
    let run = |name: &str| {
        match name {
            "hotpath" => {
                let out = if json {
                    simcxl_bench::hotpath::write_report(quick)
                        .expect("writing BENCH_hotpath.json failed")
                } else {
                    simcxl_bench::hotpath::report_json(quick)
                };
                print!("{out}");
            }
            "scenarios" => {
                let out = if json {
                    simcxl_bench::scenarios::write_report(quick)
                        .expect("writing BENCH_scenarios.json failed")
                } else {
                    simcxl_bench::scenarios::report_json(quick)
                };
                print!("{out}");
            }
            "faults" => {
                let out = if json {
                    simcxl_bench::faults::write_report(quick)
                        .expect("writing BENCH_faults.json failed")
                } else {
                    simcxl_bench::faults::report_json(quick)
                };
                print!("{out}");
            }
            "rebalance" => {
                let out = if json {
                    simcxl_bench::rebalance::write_report(quick)
                        .expect("writing BENCH_rebalance.json failed")
                } else {
                    simcxl_bench::rebalance::report_json(quick)
                };
                print!("{out}");
            }
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
            other => {
                eprintln!("unknown report: {other}");
                std::process::exit(2);
            }
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
