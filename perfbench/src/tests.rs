//! The benchmark's self-test, at small sizes: every metric is emitted
//! with its unit, the workloads reproduce the existing quick-mode pins,
//! and a perturbed checksum is reported as failed operations.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use super::*;
use engine::{EngineBatch, Issue};
use figures::FiguresAndFaults;
use scenario::MillionClients;

fn dense_quick() -> EngineBatch {
    EngineBatch {
        issue: Issue::Dense,
        requests: 20_000,
    }
}

fn wave_quick() -> EngineBatch {
    EngineBatch {
        issue: Issue::Waves,
        requests: 20_000,
    }
}

/// `dense_quick` with every pin off by one bit.
struct Perturbed(EngineBatch);

impl Workload for Perturbed {
    type Input = engine::Input;

    fn pins(&self) -> Vec<(&'static str, u64)> {
        self.0.pins().into_iter().map(|(n, v)| (n, v ^ 1)).collect()
    }

    fn setup(&self, seed: Option<u64>, tr: &mut Tracer) -> engine::Input {
        self.0.setup(seed, tr)
    }

    fn pass(&self, input: &mut engine::Input, tr: &mut Tracer) -> Pass {
        self.0.pass(input, tr)
    }

    fn mem_stream(&self, seed: Option<u64>) -> MemStream {
        self.0.mem_stream(seed)
    }
}

/// Runs `w` at its default seeds and expects every pass to hit the pins.
fn assert_reproduces_pins<W: Workload>(w: &W) {
    assert!(!w.pins().is_empty(), "no pins to reproduce");
    let out = run(w, None, 0.0, false);
    assert!(out.correct && out.failed == 0, "{:?}", out.notes);
}

#[test]
fn quick_upfront_batch_reproduces_its_pin() {
    assert_reproduces_pins(&dense_quick());
}

#[test]
fn quick_scenario_reproduces_its_pin() {
    assert_reproduces_pins(&MillionClients { clients: 30_000 });
}

#[test]
fn quick_fault_and_rebalance_cases_reproduce_their_pins() {
    assert_reproduces_pins(&FiguresAndFaults::quick());
}

#[test]
fn perturbed_checksum_fails_every_operation() {
    let out = run(&Perturbed(dense_quick()), None, 0.0, false);
    assert!(!out.correct);
    assert_eq!(out.attempted, 20_000 * (1 + MIN_PASSES as u64));
    assert_eq!(out.failed, out.attempted);
}

#[test]
fn non_default_seed_is_checked_by_rerun_equality() {
    let out = run(&dense_quick(), Some(7), 0.0, false);
    assert!(out.correct && out.failed == 0, "{:?}", out.notes);
    assert_eq!(out.attempted, 20_000 * (1 + MIN_PASSES as u64));
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .unwrap_or_default();
    for traced in [false, true] {
        let out = run(&wave_quick(), None, 0.0, traced);
        assert!(out.correct, "{:?}", out.notes);
        let line = result_json(&out, traced);
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for (name, unit) in table {
            let field = format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                out.metrics[name]
            );
            assert!(line.contains(&field), "{field} missing from {line}");
            // The benchmark description, where present, lists the same
            // metric with the same unit.
            if !spec.is_empty() {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        assert_eq!(out.metrics.len(), table.len(), "unlisted metric emitted");
    }
}

#[test]
fn traced_run_covers_the_pass_and_counts_allocations() {
    let out = run(&wave_quick(), None, 0.0, true);
    assert!(out.metrics["trace.coverage"] >= 0.9, "{:?}", out.metrics);
    assert!(out.metrics["coherence.allocs_per_event"] > 0.0);
    assert!(out.metrics["coherence.events"] > 0.0);
}

#[test]
fn arguments_parse() {
    let args: Vec<String> = "--workload wave_stress --seed 0xC0FFEE --seconds 2.5 --trace 1"
        .split(' ')
        .map(str::to_owned)
        .collect();
    assert_eq!(
        parse_args(&args),
        Ok(Args {
            workload: "wave_stress".into(),
            seed: Some(0xC0FFEE),
            seconds: 2.5,
            trace: true,
        })
    );
    assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    assert!(parse_args(&["--seed".into()]).is_err());
    assert!(run_named("no_such_workload", None, 0.0, false).is_none());
}
