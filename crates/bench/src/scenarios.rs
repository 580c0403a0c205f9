//! The scenario bench harness behind `BENCH_scenarios.json`: three
//! canonical million-client scenarios, each on a representative
//! directory topology, reported with per-phase latency percentiles and
//! the determinism checksum.
//!
//! `full` mode produces the committed workspace-root report (≥ 1 M
//! logical clients per scenario), `quick` mode is the unit-test
//! variant; `SUITE` pins every scenario's checksum.

use crate::report::{Json, Suite};
use cohet::{CohetSystem, TopologySpec};
use simcxl_workloads::scenario::{self, ScenarioOutcome, ScenarioSpec};

/// The `simcxl-scenarios/v2` suite. Its pins are the per-scenario
/// checksums `(name, full, quick)`: the committed full-mode report and
/// the quick one the unit tests run.
pub(crate) const SUITE: Suite = Suite {
    name: "scenarios",
    schema: "simcxl-scenarios/v2",
    file: "BENCH_scenarios.json",
    run,
    pins: &[
        ("ramp_then_burst", 0xe4071f9e605ecdfa, 0x1981fe52d2394759),
        ("steady_closed", 0x6f70cf11a5084b55, 0x69b897d245804a27),
        ("hot_key_storm", 0xec9696beb5f96c81, 0xffb54423b6959cee),
    ],
    columns: &[
        ("clients", "clients"),
        ("completed", "completed"),
        ("events", "events"),
        ("checksum", "checksum"),
    ],
};

/// One benchmarked scenario: the declarative spec plus the system it
/// runs on. The three canonical cases deliberately exercise three
/// different [`TopologySpec`] variants so the report also tracks the
/// topology router.
pub(crate) struct ScenarioCase {
    /// The scenario itself.
    pub spec: ScenarioSpec,
    /// Directory topology of the system under test.
    pub topology: TopologySpec,
    /// Optional Type-3 expander capacity (claims its own home under
    /// `CapacityWeighted`).
    pub expander_mem: Option<u64>,
}

impl ScenarioCase {
    /// Builds the system and runs the scenario.
    pub(crate) fn run(&self) -> ScenarioOutcome {
        let mut builder = CohetSystem::builder().topology(self.topology.clone());
        if let Some(bytes) = self.expander_mem {
            builder = builder.expander_memory(bytes);
        }
        builder.build().run_scenario(&self.spec)
    }
}

/// The three canonical cases at full (≥ 1 M logical clients each) or
/// quick (unit-test) scale. The seed is fixed: these runs exist to be
/// reproduced, not sampled.
pub(crate) fn cases(quick: bool) -> Vec<ScenarioCase> {
    let (ramp, steady, storm) = if quick {
        (30_000, 24_000, 24_000)
    } else {
        (1_200_000, 1_000_000, 1_000_000)
    };
    vec![
        // Uniform 4-way interleave absorbing an open-loop spike.
        ScenarioCase {
            spec: scenario::ramp_then_burst(ramp, 0xC0_11EC7),
            topology: TopologySpec::Interleaved {
                homes: 4,
                stride: 4096,
            },
            expander_mem: None,
        },
        // Skewed 3:1 weighted stripes under closed-loop throughput.
        ScenarioCase {
            spec: scenario::steady_closed(steady, 0xC0_11EC7),
            topology: TopologySpec::Weighted {
                weights: vec![3, 1],
                stride: 4096,
            },
            expander_mem: None,
        },
        // Capacity-proportional host + expander split under a hot-key
        // storm (the expander claims the second home).
        ScenarioCase {
            spec: scenario::hot_key_storm(storm, 0xC0_11EC7),
            topology: TopologySpec::CapacityWeighted { stride: 4096 },
            expander_mem: Some(128 << 20),
        },
    ]
}

fn case_json(case: &ScenarioCase, r: &ScenarioOutcome) -> Json {
    let phases = r.phases.iter().map(|p| {
        Json::obj([
            ("name", p.name.as_str().into()),
            ("sessions", p.sessions.into()),
            ("accesses", p.accesses.into()),
            ("p50_ns", Json::fixed(p.p50_ns, 1)),
            ("p95_ns", Json::fixed(p.p95_ns, 1)),
            ("p99_ns", Json::fixed(p.p99_ns, 1)),
            ("mean_ns", Json::fixed(p.mean_ns, 1)),
            ("throughput_per_us", Json::fixed(p.throughput_per_us(), 1)),
        ])
    });
    Json::obj([
        ("topology", format!("{:?}", case.topology).into()),
        ("clients", case.spec.clients.into()),
        ("agents", case.spec.agents.into()),
        ("completed", r.completed.into()),
        ("capped", r.capped.into()),
        ("accesses", r.accesses.into()),
        ("events", r.events.into()),
        ("checksum", Json::hex(r.checksum)),
        ("peak_live", r.peak_live.into()),
        ("elapsed_sim_us", Json::fixed(r.elapsed.as_us_f64(), 1)),
        ("phases", Json::Arr(phases.collect())),
    ])
}

/// Runs all three canonical cases; the report body of `SUITE` (see
/// README for the field-by-field description).
fn run(quick: bool) -> Json {
    Json::obj(cases(quick).iter().map(|case| {
        let r = case.run();
        (r.name.clone(), case_json(case, &r))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down case (debug builds run these) that still exercises
    /// the full system path: builder, topology resolution, scenario
    /// executor.
    fn tiny() -> ScenarioCase {
        let mut c = cases(true).remove(0);
        c.spec.clients = 1_500;
        c
    }

    #[test]
    fn case_runs_are_reproducible() {
        let case = tiny();
        let a = case.run();
        let b = case.run();
        assert_eq!(a, b);
        assert_eq!(a.completed + a.capped, case.spec.clients);
        assert_ne!(a.checksum, 0);
    }

    #[test]
    fn pins_cover_every_canonical_case() {
        let names: Vec<String> = cases(true).iter().map(|c| c.spec.name.clone()).collect();
        let pinned: Vec<&str> = SUITE.pins.iter().map(|&(name, ..)| name).collect();
        assert_eq!(pinned, names);
    }

    #[test]
    fn determinism_check_flags_drift_and_missing_fields() {
        crate::report::tests::check_suite(&SUITE);
    }
}
