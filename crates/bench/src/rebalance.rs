//! The rebalance bench harness behind `BENCH_rebalance.json`: the
//! three canonical adaptive re-interleave scenarios from
//! [`cohet::rebalance`], each reported with the full per-epoch
//! trajectory (balance error, weights in force, per-home request
//! deltas, stripes re-homed, metered migration cost) for both the
//! adaptive run and its static-weights control.
//!
//! Mirrors [`faults`](crate::faults): `full` mode produces the
//! committed workspace-root report, `quick` mode is the CI smoke
//! variant, and [`check_determinism`] is the gating half of the CI
//! perf step. Before a report is written, every case's convergence
//! gates are asserted in-process
//! ([`RebalanceOutcome::assert_gates`]): the gated cases must end
//! under the convergence bound, strictly beat the static baseline,
//! and have paid a nonzero metered migration for it; the noop case
//! must never trip the controller.

use crate::hotpath::{extract_scalar, extract_section};
use cohet::rebalance::RebalanceCase;
use cohet::RebalanceOutcome;

/// The fixed seed: these runs exist to be reproduced, not sampled.
pub const BENCH_SEED: u64 = 0x5EBA;

/// Pinned full-mode per-case checksums (the committed
/// `BENCH_rebalance.json`).
pub const PINNED_REBALANCE_CHECKSUMS_FULL: [(&str, u64); 3] = [
    ("drifting_hot_set", 0x7551a884452a80c7),
    ("stationary_hot_set", 0xc4682cd5dddc7377),
    ("uniform_noop", 0xeed41cc518f1d823),
];

/// Pinned quick-mode per-case checksums (what CI regenerates and gates
/// on).
pub const PINNED_REBALANCE_CHECKSUMS_QUICK: [(&str, u64); 3] = [
    ("drifting_hot_set", 0xfe184be115abd013),
    ("stationary_hot_set", 0x3453e1d84b80bbc2),
    ("uniform_noop", 0x451d27e63b2d8cd5),
];

/// Background client populations per case at full or quick (CI smoke)
/// scale. The hot tenant mass is fixed per case, so this scales only
/// the weight-tracking background floor the controller has to see
/// through.
pub fn populations(quick: bool) -> [(RebalanceCase, u64); 3] {
    let (drift, stationary, noop) = if quick {
        (360, 240, 240)
    } else {
        (3_600, 2_400, 2_400)
    };
    [
        (RebalanceCase::DriftingHotSet, drift),
        (RebalanceCase::StationaryHotSet, stationary),
        (RebalanceCase::UniformNoop, noop),
    ]
}

fn push_run(out: &mut String, key: &str, r: &cohet::RebalanceRun, last: bool) {
    out.push_str(&format!("    \"{key}\": {{\n"));
    out.push_str(&format!("      \"completed\": {},\n", r.completed));
    out.push_str(&format!("      \"capped\": {},\n", r.capped));
    out.push_str(&format!("      \"accesses\": {},\n", r.accesses));
    out.push_str(&format!("      \"checksum\": \"{:#018x}\",\n", r.checksum));
    out.push_str(&format!(
        "      \"invariant_checks\": {},\n",
        r.invariant_checks
    ));
    out.push_str(&format!(
        "      \"final_weights\": {:?},\n",
        r.final_weights
    ));
    out.push_str(&format!(
        "      \"final_balance_error\": {:.6},\n",
        r.final_balance_error()
    ));
    out.push_str(&format!("      \"rebalances\": {},\n", r.rebalances()));
    out.push_str(&format!(
        "      \"moved_stripes\": {},\n",
        r.total_moved_stripes()
    ));
    out.push_str(&format!(
        "      \"moved_lines\": {},\n",
        r.total_moved_lines()
    ));
    out.push_str(&format!(
        "      \"migration_cost_us\": {:.3},\n",
        r.total_migration_cost().as_us_f64()
    ));
    out.push_str(&format!(
        "      \"wire_time_us\": {:.3},\n",
        r.total_wire_time().as_us_f64()
    ));
    out.push_str("      \"epochs\": [\n");
    let n = r.epochs.len();
    for (i, e) in r.epochs.iter().enumerate() {
        out.push_str(&format!(
            "        {{\"epoch\": {}, \"balance_error\": {:.6}, \
             \"weights\": {:?}, \"requests\": {:?}, \"changed\": {}, \
             \"moved_stripes\": {}, \"moved_lines\": {}, \
             \"migration_cost_us\": {:.3}, \"wire_time_us\": {:.3}}}{}\n",
            e.epoch,
            e.balance_error,
            e.weights,
            e.epoch_requests,
            e.changed,
            e.moved_stripes,
            e.moved_lines,
            e.migration_cost.as_us_f64(),
            e.wire_time.as_us_f64(),
            if i + 1 == n { "" } else { "," }
        ));
    }
    out.push_str("      ]\n");
    out.push_str(&format!("    }}{}\n", if last { "" } else { "," }));
}

fn push_case(out: &mut String, r: &RebalanceOutcome, wall: f64, last: bool) {
    out.push_str(&format!("  \"{}\": {{\n", r.name));
    out.push_str(&format!("    \"clients\": {},\n", r.clients));
    out.push_str(&format!("    \"checksum\": \"{:#018x}\",\n", r.checksum));
    out.push_str("    \"spec\": {\n");
    out.push_str(&format!(
        "      \"epoch_len_us\": {:.3},\n",
        r.spec.epoch_len.as_us_f64()
    ));
    out.push_str(&format!("      \"threshold\": {:.4},\n", r.spec.threshold));
    out.push_str(&format!("      \"max_delta\": {}\n", r.spec.max_delta));
    out.push_str("    },\n");
    out.push_str(&format!("    \"wall_secs\": {wall:.4},\n"));
    push_run(out, "adaptive", &r.adaptive, false);
    push_run(out, "static", &r.static_run, true);
    out.push_str(&format!("  }}{}\n", if last { "" } else { "," }));
}

/// Renders the rebalance report as JSON (schema `simcxl-rebalance/v1`;
/// see README for the field-by-field description). Runs all three
/// canonical cases and asserts their convergence gates in-process
/// before returning — a report that fails its own gates is never
/// produced.
///
/// # Panics
///
/// Panics if a case's convergence/noop gate fails (see
/// [`RebalanceOutcome::assert_gates`]).
pub fn report_json(quick: bool) -> String {
    let pops = populations(quick);
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"simcxl-rebalance/v1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str(&format!("  \"seed\": {BENCH_SEED},\n"));
    let n = pops.len();
    for (i, (case, clients)) in pops.into_iter().enumerate() {
        let start = std::time::Instant::now();
        let r = case.run(clients, BENCH_SEED, 1);
        let wall = start.elapsed().as_secs_f64();
        r.assert_gates();
        push_case(&mut out, &r, wall, i + 1 == n);
    }
    out.push_str("}\n");
    out
}

/// Workspace-root path of `BENCH_rebalance.json` (anchored via the
/// crate manifest, like the other reports).
pub fn report_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_rebalance.json")
}

/// Runs the report and writes `BENCH_rebalance.json` at the workspace
/// root.
///
/// # Errors
///
/// Propagates the I/O error if the report file cannot be written.
pub fn write_report(quick: bool) -> std::io::Result<String> {
    let json = report_json(quick);
    std::fs::write(report_path(), &json)?;
    Ok(json)
}

/// Renders the human-oriented summary of a `BENCH_rebalance.json`:
/// one block per case.
pub fn summary(json: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "schema {} ({} mode)\n",
        extract_scalar(json, "schema").unwrap_or("?"),
        extract_scalar(json, "mode").unwrap_or("?"),
    ));
    for (name, _) in PINNED_REBALANCE_CHECKSUMS_FULL {
        match extract_section(json, name) {
            Some(sec) => out.push_str(&format!("\"{name}\": {sec}\n")),
            None => out.push_str(&format!("\"{name}\": <missing>\n")),
        }
    }
    out
}

/// Renders a GitHub-flavored markdown digest of a
/// `BENCH_rebalance.json` for `$GITHUB_STEP_SUMMARY`: one table row per
/// case comparing the adaptive run's final balance error against its
/// static-weights control (the convergence gates were asserted when the
/// report was produced).
pub fn github_summary(json: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "### rebalance ({} mode, schema {})\n\n",
        extract_scalar(json, "mode").unwrap_or("?"),
        extract_scalar(json, "schema").unwrap_or("?"),
    ));
    out.push_str("| case | clients | adaptive err | static err | rebalances | checksum |\n");
    out.push_str("|---|---:|---:|---:|---:|---|\n");
    for (name, _) in PINNED_REBALANCE_CHECKSUMS_FULL {
        let sec = extract_section(json, name);
        let field = |key: &str| {
            sec.and_then(|s| extract_scalar(s, key))
                .unwrap_or("?")
                .to_owned()
        };
        let sub = |run: &str, key: &str| {
            sec.and_then(|s| extract_section(s, run))
                .and_then(|r| extract_scalar(r, key))
                .unwrap_or("?")
                .to_owned()
        };
        out.push_str(&format!(
            "| {name} | {} | {} | {} | {} | `{}` |\n",
            field("clients"),
            sub("adaptive", "final_balance_error"),
            sub("static", "final_balance_error"),
            sub("adaptive", "rebalances"),
            field("checksum"),
        ));
    }
    out
}

/// Checks the determinism canary of a `BENCH_rebalance.json`: every
/// case's checksum must equal the pinned value for the report's mode.
/// Returns a one-line confirmation, or a description of the drift.
///
/// # Errors
///
/// An explanatory message when the mode, a case section, or a checksum
/// field is missing or malformed, or when any checksum does not match
/// its pin.
pub fn check_determinism(json: &str) -> Result<String, String> {
    let mode = extract_scalar(json, "mode").ok_or("report has no \"mode\" field")?;
    let pins = match mode {
        "full" => PINNED_REBALANCE_CHECKSUMS_FULL,
        "quick" => PINNED_REBALANCE_CHECKSUMS_QUICK,
        other => return Err(format!("unknown report mode {other:?}")),
    };
    for (name, pinned) in pins {
        let sec = extract_section(json, name).ok_or(format!("report has no \"{name}\" section"))?;
        let checksum = extract_scalar(sec, "checksum").ok_or(format!("{name} has no checksum"))?;
        let value = u64::from_str_radix(checksum.trim_start_matches("0x"), 16)
            .map_err(|e| format!("unparsable {name} checksum {checksum:?}: {e}"))?;
        if value != pinned {
            return Err(format!(
                "{name} checksum drifted: got {value:#018x}, pinned {pinned:#018x} \
                 ({mode} mode) — the rebalance traffic or the controller's \
                 decisions changed; if intentional, update the pins in \
                 crates/bench/src/rebalance.rs"
            ));
        }
    }
    Ok(format!(
        "{} rebalance-case checksums match their {mode}-mode pins",
        pins.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_the_extractors() {
        let r = RebalanceCase::StationaryHotSet.run(240, BENCH_SEED, 1);
        let mut json =
            String::from("{\n  \"schema\": \"simcxl-rebalance/v1\",\n  \"mode\": \"quick\",\n");
        push_case(&mut json, &r, 0.1, true);
        json.push_str("}\n");
        let sec = extract_section(&json, "stationary_hot_set").expect("section");
        let sum = extract_scalar(sec, "checksum").expect("checksum");
        assert_eq!(
            u64::from_str_radix(sum.trim_start_matches("0x"), 16).unwrap(),
            r.checksum,
            "the case-level checksum must be the outcome fold, not a run's"
        );
        let adaptive = extract_section(sec, "adaptive").expect("adaptive block");
        assert!(extract_scalar(adaptive, "final_balance_error").is_some());
        let epochs = extract_section(adaptive, "epochs").expect("epochs");
        assert_eq!(
            epochs.matches("\"balance_error\"").count(),
            r.adaptive.epochs.len()
        );
        let stat = extract_section(sec, "static").expect("static block");
        assert_eq!(extract_scalar(stat, "rebalances"), Some("0"));
    }

    #[test]
    fn pins_cover_every_canonical_case() {
        let names: Vec<&str> = populations(true).iter().map(|(c, _)| c.name()).collect();
        for pins in [
            PINNED_REBALANCE_CHECKSUMS_FULL,
            PINNED_REBALANCE_CHECKSUMS_QUICK,
        ] {
            assert_eq!(pins.len(), names.len());
            for ((pin_name, _), name) in pins.iter().zip(&names) {
                assert_eq!(pin_name, name);
            }
        }
    }

    /// The quick-mode pins are live: re-running the quick cases
    /// reproduces them bit-for-bit (the in-process twin of the CI
    /// `rebalance --check-determinism --expect-mode=quick` gate).
    #[test]
    fn quick_cases_reproduce_their_pins() {
        for ((case, clients), (name, pin)) in populations(true)
            .into_iter()
            .zip(PINNED_REBALANCE_CHECKSUMS_QUICK)
        {
            let out = case.run(clients, BENCH_SEED, 1);
            out.assert_gates();
            assert_eq!(out.name, name);
            assert_eq!(
                out.checksum, pin,
                "{name} quick checksum drifted from its pin"
            );
        }
    }

    #[test]
    fn determinism_check_flags_drift_and_missing_fields() {
        assert!(check_determinism("{}").is_err());
        assert!(check_determinism("{\n  \"mode\": \"warp\",\n}").is_err());
        let mut json = String::from("{\n  \"mode\": \"quick\",\n");
        for (name, pin) in PINNED_REBALANCE_CHECKSUMS_QUICK {
            json.push_str(&format!(
                "  \"{name}\": {{\n    \"checksum\": \"{pin:#018x}\"\n  }},\n"
            ));
        }
        json.push_str("}\n");
        assert!(check_determinism(&json).is_ok());
        let drifted = json.replacen(
            &format!("{:#018x}", PINNED_REBALANCE_CHECKSUMS_QUICK[0].1),
            "0x1111111111111111",
            1,
        );
        let err = check_determinism(&drifted).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
    }
}
