//! The fault-injection bench harness behind `BENCH_faults.json`: the
//! three canonical degradation scenarios from [`cohet::faults`], each
//! reported with per-segment latency percentiles (healthy vs degraded
//! vs recovered), the fault counters, the drain's migration cost, and
//! the determinism checksums.
//!
//! `full` mode produces the committed workspace-root report, `quick`
//! mode is the unit-test variant; `SUITE` pins every case's checksum.
//! Before a report is produced, every case's degradation gates are
//! asserted in-process ([`FaultOutcome::assert_gates`]): degraded
//! medians strictly above the healthy baseline, and — in full mode —
//! recovered medians back within 15% of it.

use crate::report::{Json, Suite};
use cohet::faults::FaultCase;
use cohet::FaultOutcome;

/// The fixed seed: these runs exist to be reproduced, not sampled.
pub(crate) const BENCH_SEED: u64 = 0xFA17;

/// The `simcxl-faults/v2` suite. Its pins are the per-case checksums
/// `(name, full, quick)`: the committed full-mode report and the quick
/// one the unit tests run.
pub(crate) const SUITE: Suite = Suite {
    name: "faults",
    schema: "simcxl-faults/v2",
    file: "BENCH_faults.json",
    run,
    pins: &[
        ("flaky_link", 0x9afef3c7575426d3, 0x74416ba7608fd8db),
        ("stalling_expander", 0xf09d0be2e00aff31, 0x44a64054528d95f9),
        ("drain_under_load", 0x3e1e19b626616091, 0x49559fcbca042abf),
    ],
    columns: &[
        ("clients", "clients"),
        ("completed", "completed"),
        ("invariant checks", "invariant_checks"),
        ("checksum", "checksum"),
        ("recovery", "recovery_checksum"),
    ],
};

/// Logical client populations per case at full or quick (unit-test)
/// scale.
pub(crate) fn populations(quick: bool) -> [(FaultCase, u64); 3] {
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

fn case_json(clients: u64, r: &FaultOutcome) -> Json {
    let us = |t: sim_core::Tick| Json::fixed(t.as_us_f64(), 3);
    let mut m = vec![
        ("clients", clients.into()),
        ("completed", r.completed.into()),
        ("capped", r.capped.into()),
        ("accesses", r.accesses.into()),
        ("events", r.events.into()),
        ("checksum", Json::hex(r.checksum)),
        ("recovery_checksum", Json::hex(r.recovery_checksum)),
        ("invariant_checks", r.invariant_checks.into()),
        ("link_faulted", r.link_faulted.into()),
        ("link_retries", r.link_retries.into()),
        ("link_backoff_us", us(r.link_backoff)),
        ("replay_flits", r.replay_flits.into()),
        ("replay_wire_bytes", r.replay_wire_bytes.into()),
        ("port_slowed", r.port_slowed.into()),
        ("port_stalled", r.port_stalled.into()),
        ("port_starved", r.port_starved.into()),
        ("port_stall_time_us", us(r.port_stall_time)),
    ];
    if let Some(d) = &r.drain {
        let drain = Json::obj([
            ("pages", d.pages.into()),
            ("migration_cost_us", us(d.migration_cost)),
            ("wire_time_us", us(d.wire_time)),
            ("moved_lines", d.moved_lines.into()),
            ("with_peers", d.with_peers.into()),
        ]);
        m.push(("drain", drain));
    }
    let phases = r.phases.iter().map(|p| {
        Json::obj([
            ("name", p.name.as_str().into()),
            ("mode", p.mode.as_str().into()),
            ("p50_ns", Json::fixed(p.p50_ns, 1)),
            ("p95_ns", Json::fixed(p.p95_ns, 1)),
            ("mean_ns", Json::fixed(p.mean_ns, 1)),
            ("accesses", p.accesses.into()),
            ("checksum", Json::hex(p.checksum)),
        ])
    });
    m.push(("phases", Json::Arr(phases.collect())));
    Json::obj(m)
}

/// Runs all three canonical cases and asserts their degradation gates
/// in-process; the report body of `SUITE` (see README for the
/// field-by-field description).
///
/// # Panics
///
/// Panics if a case's degradation/recovery gate fails (see
/// [`FaultOutcome::assert_gates`]; the recovery band is only enforced
/// in full mode, where the populations are large enough for stable
/// percentiles).
fn run(quick: bool) -> Json {
    let cases = populations(quick).into_iter().map(|(case, clients)| {
        let r = case.run(clients, BENCH_SEED, 1);
        r.assert_gates(!quick);
        (r.name.clone(), case_json(clients, &r))
    });
    let mut members = vec![("seed".to_owned(), BENCH_SEED.into())];
    members.extend(cases);
    Json::Obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_cover_every_canonical_case() {
        let names: Vec<&str> = populations(true).iter().map(|(c, _)| c.name()).collect();
        let pinned: Vec<&str> = SUITE.pins.iter().map(|&(name, ..)| name).collect();
        assert_eq!(pinned, names);
    }

    #[test]
    fn determinism_check_flags_drift_and_missing_fields() {
        crate::report::tests::check_suite(&SUITE);
    }
}
