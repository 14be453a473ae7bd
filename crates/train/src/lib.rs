//! End-to-end training experiments: the driver that turns systems,
//! routing traces and the simulator into the numbers of Sec. 5.
//!
//! One training loop serves every experiment. [`FaultRunner::step`] is
//! one iteration of the Fig. 7 pipeline: it takes each layer's routing
//! demand from its caller, plans every layer, drops the dead devices'
//! tokens, stretches straggler compute, schedules dispatch, expert
//! compute and combine on the live devices' S1–S4 streams, and returns
//! the report, the per-layer plans and the engine. Every other entry
//! point is a driver that only picks the demand source and aggregates
//! or observes the steps.
//!
//! * [`faults`] — the loop itself ([`FaultRunner`]): deterministic
//!   fault injection and the detect → re-plan → resume recovery state
//!   machine behind the robustness experiments, with checkpoint/restore.
//!   An empty fault plan trains fault-free.
//! * [`runner`] — the experiment drivers (Figs. 1b, 8, 10a, 10b, 12 and
//!   `ext-rack`): each iteration draws every layer's demand from the
//!   configuration's routing generators (or a recorded trace), steps the
//!   loop and collects throughput, breakdowns, balance metrics, the
//!   decision audit and the critical-path diagnosis.
//! * [`rl`] — the RL post-training workload: rollout→train epochs where
//!   the train phase replays routing traces recorded during rollout,
//!   giving the layout tuner perfect foresight instead of a stale EMA.
//! * [`convergence`] — the loss-curve model behind Figs. 2 and 9 (higher
//!   auxiliary-loss weight → slower per-step convergence but better
//!   balance → faster iterations).
//! * [`scaling`] — the trace-driven MLP-speedup study of Appendix D /
//!   Tab. 4.
//!
//! # Example
//!
//! ```no_run
//! use laer_baselines::SystemKind;
//! use laer_model::ModelPreset;
//! use laer_train::{ExperimentConfig, run_experiment};
//!
//! let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
//!     .with_iterations(5, 2)
//!     .with_layers(4);
//! let result = run_experiment(&cfg);
//! println!("{} tokens/s", result.tokens_per_second);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod convergence;
pub mod faults;
pub mod rl;
pub mod runner;
pub mod scaling;

pub use convergence::{ConvergenceModel, LossPoint};
pub use faults::{
    window_throughput, FaultRunner, IterationReport, RunnerCheckpoint, TrainError, TrainStep,
    CHECKPOINT_RELOAD, COLLECTIVE_TIMEOUT, DETECTION_DELAY, REPLAN_PENALTY,
};
pub use rl::{run_rl, run_rl_observed, RlConfig, RlEpochReport, RlResult};
pub use runner::{
    run_experiment, run_experiment_diagnosed, run_experiment_observed, run_experiment_on_trace,
    run_experiment_with, ExperimentConfig, ExperimentResult, TrainDiagnosis,
};
pub use scaling::{mlp_speedup, MlpSpeedupRow};
