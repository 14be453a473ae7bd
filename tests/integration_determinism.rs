//! Determinism guarantees across the whole stack: every experiment is a
//! pure function of its configuration, enabling exact reproduction of
//! all tables and figures from seeds.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use laer_moe::prelude::*;

#[test]
fn experiments_are_pure_functions_of_config() {
    let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
        .with_layers(3)
        .with_iterations(5, 2)
        .with_seed(7);
    let a = run_experiment(&cfg);
    let b = run_experiment(&cfg);
    assert_eq!(a.iteration_times, b.iteration_times);
    assert_eq!(a.tokens_per_second, b.tokens_per_second);
    assert_eq!(a.avg_max_token_ratio, b.avg_max_token_ratio);
}

#[test]
fn different_seeds_differ() {
    let mk = |seed| {
        run_experiment(
            &ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
                .with_layers(3)
                .with_iterations(5, 2)
                .with_seed(seed),
        )
    };
    assert_ne!(mk(7).iteration_times, mk(8).iteration_times);
}

#[test]
fn convergence_model_is_deterministic() {
    let a = ConvergenceModel::new(1e-4, 5.0, 9);
    let b = ConvergenceModel::new(1e-4, 5.0, 9);
    for step in (0..2000).step_by(97) {
        assert_eq!(a.loss(step), b.loss(step));
    }
}

#[test]
fn routing_traces_replay_identically_after_json() {
    let trace = RoutingTrace::record(RoutingGeneratorConfig::new(8, 8, 4096).with_seed(3), 6);
    let json = serde_json::to_string(&trace).expect("encode");
    let back: RoutingTrace = serde_json::from_str(&json).expect("decode");
    assert_eq!(trace, back);
}

mod fault_determinism {
    use laer_moe::prelude::*;
    use laer_moe::train::RunnerCheckpoint;
    use proptest::prelude::*;
    use serde::{Deserialize, Serialize};

    /// A small, fast configuration: one 8-GPU node, one MoE layer.
    fn small(seed: u64) -> ExperimentConfig {
        ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
            .with_cluster(1, 8)
            .with_layers(1)
            .with_seed(seed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The tentpole guarantee: a fault-injected run is a pure
        /// function of `(seed, FaultPlan)` — two runs over the same
        /// pair produce bit-identical per-iteration reports.
        #[test]
        fn fault_runs_are_pure_functions_of_seed_and_plan(
            seed in 0u64..1000,
            plan_seed in 0u64..1000,
        ) {
            let plan = FaultPlan::random(plan_seed, 8, 10);
            let run = || FaultRunner::new(small(seed), plan.clone()).run(10);
            match (run(), run()) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                // An unsatisfiable survivor set must fail identically.
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a, b),
            }
        }

        /// Checkpoint/restore mid-run resumes bit-identically to the
        /// uninterrupted run, wherever the cut lands relative to the
        /// injected faults.
        #[test]
        fn checkpoint_restore_matches_uninterrupted(
            seed in 0u64..1000,
            plan_seed in 0u64..1000,
            cut in 1u64..10,
        ) {
            let plan = FaultPlan::random(plan_seed, 8, 10);
            let full = match FaultRunner::new(small(seed), plan.clone()).run(10) {
                Ok(r) => r,
                Err(_) => return Ok(()), // unsatisfiable plan: nothing to resume
            };
            let mut first = FaultRunner::new(small(seed), plan.clone());
            let head = first.run(cut).expect("prefix of a successful run");
            // Round-trip the checkpoint through serde, as a real
            // save/load would.
            let value = first.checkpoint().serialize_value();
            let ckpt = RunnerCheckpoint::deserialize_value(&value).expect("decode");
            let mut second = FaultRunner::new(small(seed), plan);
            second.restore(ckpt).expect("restore");
            let tail = second.run(10 - cut).expect("suffix of a successful run");
            let resumed: Vec<_> = head.into_iter().chain(tail).collect();
            prop_assert_eq!(resumed, full);
        }
    }
}
