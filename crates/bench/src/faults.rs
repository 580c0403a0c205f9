//! The fault-injection bench harness behind `BENCH_faults.json`: the
//! three canonical degradation scenarios from [`cohet::faults`], each
//! reported with per-segment latency percentiles (healthy vs degraded
//! vs recovered), the fault counters, the drain's migration cost, and
//! the determinism checksums.
//!
//! Mirrors [`scenarios`](crate::scenarios): `full` mode produces the
//! committed workspace-root report, `quick` mode is the CI smoke
//! variant, and [`check_determinism`] is the gating half of the CI
//! perf step. Before a report is written, every case's degradation
//! gates are asserted in-process ([`FaultOutcome::assert_gates`]):
//! degraded medians strictly above the healthy baseline, and — in full
//! mode — recovered medians back within 15% of it.

use crate::hotpath::{extract_scalar, extract_section};
use cohet::faults::FaultCase;
use cohet::FaultOutcome;

/// The fixed seed: these runs exist to be reproduced, not sampled.
pub const BENCH_SEED: u64 = 0xFA17;

/// Pinned full-mode per-case checksums (the committed
/// `BENCH_faults.json`).
pub const PINNED_FAULT_CHECKSUMS_FULL: [(&str, u64); 3] = [
    ("flaky_link", 0x9afef3c7575426d3),
    ("stalling_expander", 0xf09d0be2e00aff31),
    ("drain_under_load", 0x3e1e19b626616091),
];

/// Pinned quick-mode per-case checksums (what CI regenerates and gates
/// on).
pub const PINNED_FAULT_CHECKSUMS_QUICK: [(&str, u64); 3] = [
    ("flaky_link", 0x74416ba7608fd8db),
    ("stalling_expander", 0x44a64054528d95f9),
    ("drain_under_load", 0x49559fcbca042abf),
];

/// Logical client populations per case at full or quick (CI smoke)
/// scale.
pub fn populations(quick: bool) -> [(FaultCase, u64); 3] {
    let (flaky, stall, drain) = if quick {
        (4_000, 2_400, 4_000)
    } else {
        (48_000, 32_000, 48_000)
    };
    [
        (FaultCase::FlakyLink, flaky),
        (FaultCase::StallingExpander, stall),
        (FaultCase::DrainUnderLoad, drain),
    ]
}

fn push_case(out: &mut String, clients: u64, r: &FaultOutcome, wall: f64, last: bool) {
    out.push_str(&format!("  \"{}\": {{\n", r.name));
    out.push_str(&format!("    \"clients\": {clients},\n"));
    out.push_str(&format!("    \"completed\": {},\n", r.completed));
    out.push_str(&format!("    \"capped\": {},\n", r.capped));
    out.push_str(&format!("    \"accesses\": {},\n", r.accesses));
    out.push_str(&format!("    \"events\": {},\n", r.events));
    out.push_str(&format!("    \"checksum\": \"{:#018x}\",\n", r.checksum));
    out.push_str(&format!(
        "    \"recovery_checksum\": \"{:#018x}\",\n",
        r.recovery_checksum
    ));
    out.push_str(&format!(
        "    \"invariant_checks\": {},\n",
        r.invariant_checks
    ));
    out.push_str(&format!("    \"link_faulted\": {},\n", r.link_faulted));
    out.push_str(&format!("    \"link_retries\": {},\n", r.link_retries));
    out.push_str(&format!(
        "    \"link_backoff_us\": {:.3},\n",
        r.link_backoff.as_us_f64()
    ));
    out.push_str(&format!("    \"replay_flits\": {},\n", r.replay_flits));
    out.push_str(&format!(
        "    \"replay_wire_bytes\": {},\n",
        r.replay_wire_bytes
    ));
    out.push_str(&format!("    \"port_slowed\": {},\n", r.port_slowed));
    out.push_str(&format!("    \"port_stalled\": {},\n", r.port_stalled));
    out.push_str(&format!("    \"port_starved\": {},\n", r.port_starved));
    out.push_str(&format!(
        "    \"port_stall_time_us\": {:.3},\n",
        r.port_stall_time.as_us_f64()
    ));
    if let Some(d) = &r.drain {
        out.push_str("    \"drain\": {\n");
        out.push_str(&format!("      \"pages\": {},\n", d.pages));
        out.push_str(&format!(
            "      \"migration_cost_us\": {:.3},\n",
            d.migration_cost.as_us_f64()
        ));
        out.push_str(&format!(
            "      \"wire_time_us\": {:.3},\n",
            d.wire_time.as_us_f64()
        ));
        out.push_str(&format!("      \"moved_lines\": {},\n", d.moved_lines));
        out.push_str(&format!("      \"with_peers\": {}\n", d.with_peers));
        out.push_str("    },\n");
    }
    out.push_str(&format!("    \"wall_secs\": {wall:.4},\n"));
    out.push_str("    \"phases\": [\n");
    let n = r.phases.len();
    for (i, p) in r.phases.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"name\": \"{}\", \"mode\": \"{}\", \"p50_ns\": {:.1}, \
             \"p95_ns\": {:.1}, \"mean_ns\": {:.1}, \"accesses\": {}, \
             \"checksum\": \"{:#018x}\"}}{}\n",
            p.name,
            p.mode.as_str(),
            p.p50_ns,
            p.p95_ns,
            p.mean_ns,
            p.accesses,
            p.checksum,
            if i + 1 == n { "" } else { "," }
        ));
    }
    out.push_str("    ]\n");
    out.push_str(&format!("  }}{}\n", if last { "" } else { "," }));
}

/// Renders the fault report as JSON (schema `simcxl-faults/v1`; see
/// README for the field-by-field description). Runs all three canonical
/// cases and asserts their degradation gates in-process before
/// returning — a report that fails its own gates is never produced.
///
/// # Panics
///
/// Panics if a case's degradation/recovery gate fails (see
/// [`FaultOutcome::assert_gates`]; the recovery band is only enforced
/// in full mode, where the populations are large enough for stable
/// percentiles).
pub fn report_json(quick: bool) -> String {
    let pops = populations(quick);
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"simcxl-faults/v1\",\n");
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
        r.assert_gates(!quick);
        push_case(&mut out, clients, &r, wall, i + 1 == n);
    }
    out.push_str("}\n");
    out
}

/// Workspace-root path of `BENCH_faults.json` (anchored via the crate
/// manifest, like the hotpath and scenario reports).
pub fn report_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json")
}

/// Runs the report and writes `BENCH_faults.json` at the workspace
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

/// Renders the human-oriented summary of a `BENCH_faults.json`: one
/// block per fault case.
pub fn summary(json: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "schema {} ({} mode)\n",
        extract_scalar(json, "schema").unwrap_or("?"),
        extract_scalar(json, "mode").unwrap_or("?"),
    ));
    for (name, _) in PINNED_FAULT_CHECKSUMS_FULL {
        match extract_section(json, name) {
            Some(sec) => out.push_str(&format!("\"{name}\": {sec}\n")),
            None => out.push_str(&format!("\"{name}\": <missing>\n")),
        }
    }
    out
}

/// Renders a GitHub-flavored markdown digest of a `BENCH_faults.json`
/// for `$GITHUB_STEP_SUMMARY`: one table row per degradation case
/// (clients, completed, invariant checks, checksum + recovery
/// checksum). The degradation gates were already asserted when the
/// report was produced; the table records what they certified.
pub fn github_summary(json: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "### faults ({} mode, schema {})\n\n",
        extract_scalar(json, "mode").unwrap_or("?"),
        extract_scalar(json, "schema").unwrap_or("?"),
    ));
    out.push_str("| case | clients | completed | invariant checks | checksum | recovery |\n");
    out.push_str("|---|---:|---:|---:|---|---|\n");
    for (name, _) in PINNED_FAULT_CHECKSUMS_FULL {
        let sec = extract_section(json, name);
        let field = |key: &str| {
            sec.and_then(|s| extract_scalar(s, key))
                .unwrap_or("?")
                .to_owned()
        };
        out.push_str(&format!(
            "| {name} | {} | {} | {} | `{}` | `{}` |\n",
            field("clients"),
            field("completed"),
            field("invariant_checks"),
            field("checksum"),
            field("recovery_checksum"),
        ));
    }
    out
}

/// Checks the determinism canary of a `BENCH_faults.json`: every case's
/// checksum must equal the pinned value for the report's mode. Returns
/// a one-line confirmation, or a description of the drift.
///
/// # Errors
///
/// An explanatory message when the mode, a case section, or a checksum
/// field is missing or malformed, or when any checksum does not match
/// its pin.
pub fn check_determinism(json: &str) -> Result<String, String> {
    let mode = extract_scalar(json, "mode").ok_or("report has no \"mode\" field")?;
    let pins = match mode {
        "full" => PINNED_FAULT_CHECKSUMS_FULL,
        "quick" => PINNED_FAULT_CHECKSUMS_QUICK,
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
                 ({mode} mode) — the fault-path completion stream changed; if \
                 intentional, update the pins in crates/bench/src/faults.rs"
            ));
        }
    }
    Ok(format!(
        "{} fault-case checksums match their {mode}-mode pins",
        pins.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_the_extractors() {
        let r = FaultCase::DrainUnderLoad.run(1_200, BENCH_SEED, 1);
        let mut json =
            String::from("{\n  \"schema\": \"simcxl-faults/v1\",\n  \"mode\": \"quick\",\n");
        push_case(&mut json, 1_200, &r, 0.1, true);
        json.push_str("}\n");
        let sec = extract_section(&json, "drain_under_load").expect("section");
        let sum = extract_scalar(sec, "checksum").expect("checksum");
        assert_eq!(
            u64::from_str_radix(sum.trim_start_matches("0x"), 16).unwrap(),
            r.checksum
        );
        let drain = extract_section(sec, "drain").expect("drain block");
        assert!(extract_scalar(drain, "migration_cost_us").is_some());
        let phases = extract_section(sec, "phases").expect("phases");
        assert_eq!(phases.matches("\"mode\"").count(), r.phases.len());
    }

    #[test]
    fn pins_cover_every_canonical_case() {
        let names: Vec<&str> = populations(true).iter().map(|(c, _)| c.name()).collect();
        for pins in [PINNED_FAULT_CHECKSUMS_FULL, PINNED_FAULT_CHECKSUMS_QUICK] {
            assert_eq!(pins.len(), names.len());
            for ((pin_name, _), name) in pins.iter().zip(&names) {
                assert_eq!(pin_name, name);
            }
        }
    }

    /// The quick-mode pins are live: re-running the quick cases
    /// reproduces them bit-for-bit (the in-process twin of the CI
    /// `faults --check-determinism --expect-mode=quick` gate).
    #[test]
    fn quick_cases_reproduce_their_pins() {
        for ((case, clients), (name, pin)) in populations(true)
            .into_iter()
            .zip(PINNED_FAULT_CHECKSUMS_QUICK)
        {
            let out = case.run(clients, BENCH_SEED, 1);
            out.assert_gates(false);
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
        for (name, pin) in PINNED_FAULT_CHECKSUMS_QUICK {
            json.push_str(&format!(
                "  \"{name}\": {{\n    \"checksum\": \"{pin:#018x}\"\n  }},\n"
            ));
        }
        json.push_str("}\n");
        assert!(check_determinism(&json).is_ok());
        let drifted = json.replacen(
            &format!("{:#018x}", PINNED_FAULT_CHECKSUMS_QUICK[0].1),
            "0x1111111111111111",
            1,
        );
        let err = check_determinism(&drifted).unwrap_err();
        assert!(err.contains("drifted"), "{err}");
    }
}
