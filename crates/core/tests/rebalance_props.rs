//! Differential/property suite for the adaptive rebalance loop: random
//! scenarios and specs must stay lossless (every background session
//! accounted for), bit-deterministic across reruns,
//! and the controller's live weight trajectory must replay exactly from
//! the recorded per-epoch counters through the pure planner.

use cohet::rebalance::RebalanceCase;
use proptest::prelude::*;
use sim_core::Tick;
use simcxl_coherence::rebalance::{balance_error_of, plan_weights};
use simcxl_coherence::RebalanceSpec;

fn case_of(idx: usize) -> RebalanceCase {
    RebalanceCase::all()[idx % RebalanceCase::all().len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The headline property: any case/population/seed runs lossless,
    /// reproduces bit-for-bit on a rerun, and
    /// the adaptive run's weight trajectory is a pure function of its
    /// recorded counters.
    #[test]
    fn rebalance_deterministic_and_lossless(
        case_idx in 0usize..3,
        clients in 60u64..160,
        seed in 0u64..(1 << 16),
    ) {
        let case = case_of(case_idx);
        let one = case.run(clients, seed, 1);

        // Lossless: every background session reached a terminal state
        // in both runs.
        prop_assert_eq!(one.adaptive.completed + one.adaptive.capped, clients);
        prop_assert_eq!(one.static_run.completed + one.static_run.capped, clients);

        // Deterministic: bit-identical on a rerun.
        let again = case.run(clients, seed, 1);
        prop_assert_eq!(&one, &again);

        // Counter purity: replaying the recorded per-epoch request
        // deltas through the pure planner reproduces the live weight
        // trajectory and every recorded decision.
        let spec = case.spec();
        let mut w = one.static_run.final_weights.clone(); // initial == static final
        for e in &one.adaptive.epochs {
            prop_assert_eq!(&e.weights, &w, "weights in force at epoch {}", e.epoch);
            let err = balance_error_of(&e.epoch_requests, &w);
            prop_assert!(
                (err - e.balance_error).abs() < 1e-12,
                "recorded error {} != replayed {} at epoch {}",
                e.balance_error, err, e.epoch
            );
            let next = plan_weights(&spec, &w, &e.epoch_requests);
            prop_assert_eq!(e.changed, next != w, "changed flag at epoch {}", e.epoch);
            w = next;
        }
        prop_assert_eq!(&one.adaptive.final_weights, &w);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Planner invariants under arbitrary specs and counter vectors:
    /// the weight sum is conserved, no home is zeroed, no step exceeds
    /// the clamp, and the planner is a pure function of its inputs.
    #[test]
    fn plan_weights_invariants_hold_for_random_specs(
        current in proptest::collection::vec(1u64..40, 2..8),
        requests_seed in proptest::collection::vec(0u64..10_000, 2..8),
        threshold_milli in 0u64..500,
        max_delta in 1u64..32,
    ) {
        let n = current.len();
        let requests: Vec<u64> = (0..n)
            .map(|i| requests_seed[i % requests_seed.len()])
            .collect();
        let spec = RebalanceSpec {
            epoch_len: Tick::from_us(200),
            threshold: threshold_milli as f64 / 1000.0,
            max_delta,
        };
        let next = plan_weights(&spec, &current, &requests);
        prop_assert_eq!(next.len(), n);
        prop_assert_eq!(
            next.iter().sum::<u64>(),
            current.iter().sum::<u64>(),
            "weight resolution must be conserved"
        );
        for (i, (&c, &p)) in current.iter().zip(&next).enumerate() {
            prop_assert!(p >= 1, "home {i} zeroed");
            prop_assert!(p.abs_diff(c) <= max_delta, "home {i} moved past the clamp");
        }
        // Pure: the same inputs plan the same vector.
        prop_assert_eq!(next, plan_weights(&spec, &current, &requests));
    }
}
