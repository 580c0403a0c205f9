//! The rebalance bench harness behind `BENCH_rebalance.json`: the
//! three canonical adaptive re-interleave scenarios from
//! [`cohet::rebalance`], each reported with the full per-epoch
//! trajectory (balance error, weights in force, per-home request
//! deltas, stripes re-homed, metered migration cost) for both the
//! adaptive run and its static-weights control.
//!
//! `full` mode produces the committed workspace-root report, `quick`
//! mode is the unit-test variant; `SUITE` pins every case's checksum.
//! Before a report is produced, every case's convergence gates are
//! asserted in-process
//! ([`RebalanceOutcome::assert_gates`]): the gated cases must end
//! under the convergence bound, strictly beat the static baseline,
//! and have paid a nonzero metered migration for it; the noop case
//! must never trip the controller.

use crate::report::{Json, Suite};
use cohet::rebalance::RebalanceCase;
use cohet::RebalanceOutcome;

/// The fixed seed: these runs exist to be reproduced, not sampled.
pub(crate) const BENCH_SEED: u64 = 0x5EBA;

/// The `simcxl-rebalance/v2` suite. Its pins are the per-case checksums
/// `(name, full, quick)`: the committed full-mode report and the quick
/// one the unit tests run.
pub(crate) const SUITE: Suite = Suite {
    name: "rebalance",
    schema: "simcxl-rebalance/v2",
    file: "BENCH_rebalance.json",
    run,
    pins: &[
        ("drifting_hot_set", 0x7551a884452a80c7, 0xfe184be115abd013),
        ("stationary_hot_set", 0xc4682cd5dddc7377, 0x3453e1d84b80bbc2),
        ("uniform_noop", 0xeed41cc518f1d823, 0x451d27e63b2d8cd5),
    ],
    columns: &[
        ("clients", "clients"),
        ("adaptive err", "adaptive.final_balance_error"),
        ("static err", "static.final_balance_error"),
        ("rebalances", "adaptive.rebalances"),
        ("checksum", "checksum"),
    ],
};

/// Background client populations per case at full or quick (unit-test)
/// scale. The hot tenant mass is fixed per case, so this scales only
/// the weight-tracking background floor the controller has to see
/// through.
pub(crate) fn populations(quick: bool) -> [(RebalanceCase, u64); 3] {
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

fn run_json(r: &cohet::RebalanceRun) -> Json {
    let us = |t: sim_core::Tick| Json::fixed(t.as_us_f64(), 3);
    let epochs = r.epochs.iter().map(|e| {
        Json::obj([
            ("epoch", e.epoch.into()),
            ("balance_error", Json::fixed(e.balance_error, 6)),
            ("weights", e.weights.as_slice().into()),
            ("requests", e.epoch_requests.as_slice().into()),
            ("changed", e.changed.into()),
            ("moved_stripes", e.moved_stripes.into()),
            ("moved_lines", e.moved_lines.into()),
            ("migration_cost_us", us(e.migration_cost)),
            ("wire_time_us", us(e.wire_time)),
        ])
    });
    Json::obj([
        ("completed", r.completed.into()),
        ("capped", r.capped.into()),
        ("accesses", r.accesses.into()),
        ("checksum", Json::hex(r.checksum)),
        ("invariant_checks", r.invariant_checks.into()),
        ("final_weights", r.final_weights.as_slice().into()),
        (
            "final_balance_error",
            Json::fixed(r.final_balance_error(), 6),
        ),
        ("rebalances", r.rebalances().into()),
        ("moved_stripes", r.total_moved_stripes().into()),
        ("moved_lines", r.total_moved_lines().into()),
        ("migration_cost_us", us(r.total_migration_cost())),
        ("wire_time_us", us(r.total_wire_time())),
        ("epochs", Json::Arr(epochs.collect())),
    ])
}

fn case_json(r: &RebalanceOutcome) -> Json {
    let spec = Json::obj([
        ("epoch_len_us", Json::fixed(r.spec.epoch_len.as_us_f64(), 3)),
        ("threshold", Json::fixed(r.spec.threshold, 4)),
        ("max_delta", r.spec.max_delta.into()),
    ]);
    Json::obj([
        ("clients", r.clients.into()),
        ("checksum", Json::hex(r.checksum)),
        ("spec", spec),
        ("adaptive", run_json(&r.adaptive)),
        ("static", run_json(&r.static_run)),
    ])
}

/// Runs all three canonical cases and asserts their convergence gates
/// in-process; the report body of `SUITE` (see README for the
/// field-by-field description).
///
/// # Panics
///
/// Panics if a case's convergence/noop gate fails (see
/// [`RebalanceOutcome::assert_gates`]).
fn run(quick: bool) -> Json {
    let cases = populations(quick).into_iter().map(|(case, clients)| {
        let r = case.run(clients, BENCH_SEED, 1);
        r.assert_gates();
        (r.name.clone(), case_json(&r))
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
