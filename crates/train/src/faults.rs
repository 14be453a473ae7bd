//! Deterministic fault injection and graceful degraded-mode training.
//!
//! [`FaultRunner`] drives a [`MoeSystem`] through a multi-iteration run
//! while a seeded [`FaultPlan`] injects stragglers, link degradation,
//! device failures and planner outages. The runner is the recovery
//! state machine of the robustness experiments:
//!
//! * **detect** — at the first iteration a device failure is active, the
//!   system is asked to react ([`MoeSystem::handle_device_failures`]);
//! * **re-plan** — LAER re-runs Alg. 1/2 on the survivors and continues
//!   *elastically* (the failed device's tokens are dropped, everything
//!   else keeps training). Static-layout baselines cannot re-form their
//!   EP groups — nor can LAER while its planner process is down — so
//!   they pay the classic restart path: a collective timeout before the
//!   failure is even observed, a checkpoint reload, and re-execution of
//!   every iteration since the last checkpoint;
//! * **resume** — subsequent iterations run on the degraded cluster
//!   (elastic) or on replacement hardware (restart) with All-to-Alls
//!   priced against the degraded network view.
//!
//! Everything is a deterministic function of `(seed, FaultPlan)`: the
//! same pair produces bit-identical iteration times, and
//! [`FaultRunner::checkpoint`] / [`FaultRunner::restore`] round-trip the
//! full mutable state (routing generators, planner history, recovery
//! bookkeeping) so a resumed run continues bit-identically.

use crate::runner::ExperimentConfig;
use laer_baselines::{MoeSystem, SystemError};
use laer_cluster::{DegradedView, DeviceId, ExpertId, Topology};
use laer_fsep::{schedule_iteration_on, LayerTimings};
use laer_planner::CapacityResponse;
use laer_routing::{CheckpointError, GeneratorCheckpoint, RoutingGenerator};
use laer_sim::{record_fault_spans, write_chrome_trace, Engine, FaultPlan};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Time for an elastic system to notice a dead peer: the asynchronous
/// CPU planner process doubles as a failure detector (it heartbeats the
/// workers every iteration, Fig. 7), so detection is fast.
pub const DETECTION_DELAY: f64 = 20e-3;

/// One synchronous survivor re-plan (Alg. 1 + Alg. 2 on the CPU) before
/// elastic execution resumes.
pub const REPLAN_PENALTY: f64 = 10e-3;

/// Static baselines have no out-of-band failure detector: they learn of
/// a dead rank only when a collective on it times out.
pub const COLLECTIVE_TIMEOUT: f64 = 2.0;

/// Reloading model and optimizer state from the last checkpoint during
/// a restart.
pub const CHECKPOINT_RELOAD: f64 = 0.235;

/// Default interval (iterations) between simulated checkpoint writes;
/// restarting systems must redo the iterations since the last one.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 5;

/// Typed failure of a fault-injected training run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The system could not recover from a device failure (e.g. too few
    /// survivors to host every expert).
    Recovery(SystemError),
    /// A checkpoint could not be restored.
    Checkpoint(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Recovery(e) => write!(f, "unrecoverable fault: {e}"),
            TrainError::Checkpoint(msg) => write!(f, "checkpoint restore failed: {msg}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<SystemError> for TrainError {
    fn from(e: SystemError) -> Self {
        TrainError::Recovery(e)
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e.to_string())
    }
}

/// One iteration's outcome under fault injection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationReport {
    /// Global iteration index.
    pub iteration: u64,
    /// Wall-clock seconds, including any recovery penalty paid this
    /// iteration.
    pub time: f64,
    /// Tokens trained this iteration (shrinks under elastic execution).
    pub tokens: u64,
    /// Whether any fault was active.
    pub degraded: bool,
}

/// Serializable snapshot of a [`FaultRunner`] mid-run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunnerCheckpoint {
    /// Iterations completed.
    pub iteration: u64,
    /// Per-layer routing-generator state.
    pub generators: Vec<GeneratorCheckpoint>,
    /// System-specific state ([`MoeSystem::snapshot`]).
    pub system_state: serde::Value,
    /// Per-iteration seconds so far.
    pub iteration_times: Vec<f64>,
    /// Per-iteration token counts so far.
    pub iteration_tokens: Vec<u64>,
    /// Iteration of the last simulated checkpoint write.
    pub last_checkpoint_iteration: u64,
    /// Device indices whose failure has already been handled.
    pub handled_failures: Vec<usize>,
    /// Whether the system is running elastically on survivors.
    pub elastic: bool,
}

/// Multi-iteration driver executing an [`ExperimentConfig`] under a
/// [`FaultPlan`].
pub struct FaultRunner {
    cfg: ExperimentConfig,
    plan: FaultPlan,
    topo: Topology,
    system: Box<dyn MoeSystem>,
    gens: Vec<RoutingGenerator>,
    iteration: u64,
    iteration_times: Vec<f64>,
    iteration_tokens: Vec<u64>,
    checkpoint_interval: u64,
    last_checkpoint_iteration: u64,
    handled_failures: Vec<usize>,
    elastic: bool,
    capture_trace: bool,
    last_trace: Option<String>,
}

impl FaultRunner {
    /// Creates a runner; the run is a deterministic function of
    /// `(cfg.seed, plan)`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero layers).
    pub fn new(cfg: ExperimentConfig, plan: FaultPlan) -> Self {
        assert!(cfg.layers > 0, "at least one layer");
        let topo = cfg.topology();
        let system = cfg.build_system();
        let gens = cfg.layer_generators();
        Self {
            cfg,
            plan,
            topo,
            system,
            gens,
            iteration: 0,
            iteration_times: Vec::new(),
            iteration_tokens: Vec::new(),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            last_checkpoint_iteration: 0,
            handled_failures: Vec::new(),
            elastic: false,
            capture_trace: false,
            last_trace: None,
        }
    }

    /// Overrides the simulated checkpoint interval (iterations).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "checkpoint interval must be non-zero");
        self.checkpoint_interval = interval;
        self
    }

    /// Enables capturing a Chrome trace of each iteration's timeline
    /// (fault spans included); read it via [`FaultRunner::last_trace`].
    pub fn with_trace_capture(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// The most recent iteration's Chrome trace, when capture is on.
    pub fn last_trace(&self) -> Option<&str> {
        self.last_trace.as_deref()
    }

    /// Iterations completed so far.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// The system under test.
    pub fn system_name(&self) -> &'static str {
        self.system.name()
    }

    /// Per-iteration seconds recorded so far.
    pub fn iteration_times(&self) -> &[f64] {
        &self.iteration_times
    }

    /// Per-iteration token counts recorded so far.
    pub fn iteration_tokens(&self) -> &[u64] {
        &self.iteration_tokens
    }

    /// Runs one iteration through the detect → re-plan → resume state
    /// machine.
    ///
    /// # Errors
    ///
    /// [`TrainError::Recovery`] if an active device failure leaves the
    /// system unable to continue (every expert needs a live replica).
    pub fn step(&mut self) -> Result<IterationReport, TrainError> {
        let active = self.plan.active_at(self.iteration);
        self.system.set_planner_available(!active.planner_outage());

        // ---- detect + re-plan on newly observed device failures ----
        let newly_failed: Vec<DeviceId> = active
            .failed_devices()
            .filter(|d| !self.handled_failures.contains(&d.index()))
            .collect();
        let mut penalty = 0.0;
        if !newly_failed.is_empty() {
            let failure_view = active.degraded_view(&self.topo);
            if self.system.handle_device_failures(&failure_view)? == CapacityResponse::Restart {
                // Static layout (or no planner to re-plan with):
                // collective timeout, reload the last checkpoint onto
                // replacement hardware, redo the lost iterations. The
                // restarted job runs on a whole cluster again.
                self.elastic = false;
                let redo = self
                    .iteration
                    .saturating_sub(self.last_checkpoint_iteration);
                let avg = if self.iteration_times.is_empty() {
                    0.0
                } else {
                    self.iteration_times.iter().sum::<f64>() / self.iteration_times.len() as f64
                };
                penalty += COLLECTIVE_TIMEOUT + CHECKPOINT_RELOAD + redo as f64 * avg;
            } else {
                // Elastic continuation on the survivors.
                self.elastic = true;
                penalty += DETECTION_DELAY + REPLAN_PENALTY;
            }
            for d in newly_failed {
                self.handled_failures.push(d.index());
            }
            self.handled_failures.sort_unstable();
        }

        // ---- network view for this iteration's pricing ----
        // Elastic systems keep the failures in view; restarted systems
        // got replacement hardware, so only link faults remain for them.
        let mut view = DegradedView::new(self.topo.clone());
        for (a, b, factor) in active.degraded_links() {
            view.degrade_link(a, b, factor);
        }
        if self.elastic {
            for d in active.failed_devices() {
                view.fail_device(d);
            }
        }
        let exec: Vec<DeviceId> = if self.elastic {
            view.survivors()
        } else {
            self.topo.devices().collect()
        };
        self.system
            .context_mut()
            .set_fault_view(if view.is_nominal() { None } else { Some(view) });

        // ---- plan and execute the iteration ----
        let degraded = !active.is_empty();
        let mut layer_timings: Vec<LayerTimings> = Vec::with_capacity(self.cfg.layers);
        for l in 0..self.cfg.layers {
            let mut demand = self.gens[l].next_iteration();
            if self.elastic {
                // Elastic batch: the dead device's tokens are dropped.
                for &di in &self.handled_failures {
                    for j in 0..demand.num_experts() {
                        demand.set(DeviceId::new(di), ExpertId::new(j), 0);
                    }
                }
            }
            let mut plan = self.system.plan_layer(l, self.iteration, &demand);
            // Stragglers slow the device's expert computation. (Attention
            // is a single scalar in LayerTimings, so the slowdown is
            // applied to the dominant, device-resolved compute term.)
            for (di, t) in plan.timings.expert_forward.iter_mut().enumerate() {
                *t *= active.compute_multiplier(DeviceId::new(di));
            }
            layer_timings.push(plan.timings);
        }
        let opts = self.cfg.schedule_options(self.system.as_ref());
        let mut engine = Engine::new(&self.topo);
        let t = schedule_iteration_on(&mut engine, &self.topo, &exec, &layer_timings, opts);
        record_fault_spans(engine.timeline_mut(), &active, 0.0, t.total);
        if self.capture_trace {
            let mut buf = Vec::new();
            if write_chrome_trace(engine.timeline(), &mut buf).is_ok() {
                self.last_trace = String::from_utf8(buf).ok();
            }
        }

        let time = t.total + penalty;
        let tokens = exec.len() as u64 * self.cfg.tokens_per_device;
        let report = IterationReport {
            iteration: self.iteration,
            time,
            tokens,
            degraded,
        };
        self.iteration += 1;
        self.iteration_times.push(time);
        self.iteration_tokens.push(tokens);
        if self.iteration.is_multiple_of(self.checkpoint_interval) {
            self.last_checkpoint_iteration = self.iteration;
        }
        Ok(report)
    }

    /// Runs `iterations` steps and returns their reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] from [`FaultRunner::step`].
    pub fn run(&mut self, iterations: u64) -> Result<Vec<IterationReport>, TrainError> {
        (0..iterations).map(|_| self.step()).collect()
    }

    /// Snapshots the full mutable state for checkpoint/restore.
    pub fn checkpoint(&self) -> RunnerCheckpoint {
        RunnerCheckpoint {
            iteration: self.iteration,
            generators: self.gens.iter().map(RoutingGenerator::checkpoint).collect(),
            system_state: self.system.snapshot(),
            iteration_times: self.iteration_times.clone(),
            iteration_tokens: self.iteration_tokens.clone(),
            last_checkpoint_iteration: self.last_checkpoint_iteration,
            handled_failures: self.handled_failures.clone(),
            elastic: self.elastic,
        }
    }

    /// Restores state captured by [`FaultRunner::checkpoint`]; the
    /// restored runner continues bit-identically to the snapshotted one
    /// (given the same `cfg` and `plan`).
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] on shape mismatches,
    /// [`TrainError::Recovery`] if the system rejects its snapshot.
    pub fn restore(&mut self, ckpt: RunnerCheckpoint) -> Result<(), TrainError> {
        if ckpt.generators.len() != self.gens.len() {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint has {} layer generators, config has {}",
                ckpt.generators.len(),
                self.gens.len()
            )));
        }
        self.gens = ckpt
            .generators
            .into_iter()
            .map(RoutingGenerator::from_checkpoint)
            .collect::<Result<_, _>>()?;
        self.system.restore(&ckpt.system_state)?;
        // Per-step state (fault view, planner availability) is re-derived
        // from the plan inside `step`, and `handled_failures` keeps the
        // detect phase from firing again, so nothing else to re-arm.
        self.iteration = ckpt.iteration;
        self.iteration_times = ckpt.iteration_times;
        self.iteration_tokens = ckpt.iteration_tokens;
        self.last_checkpoint_iteration = ckpt.last_checkpoint_iteration;
        self.handled_failures = ckpt.handled_failures;
        self.elastic = ckpt.elastic;
        Ok(())
    }
}

/// Throughput (tokens/second) over a window of reports.
///
/// # Panics
///
/// Panics if the window is empty.
pub fn window_throughput(reports: &[IterationReport]) -> f64 {
    assert!(!reports.is_empty(), "empty window");
    let tokens: u64 = reports.iter().map(|r| r.tokens).sum();
    let time: f64 = reports.iter().map(|r| r.time).sum();
    tokens as f64 / time
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_experiment;
    use laer_baselines::SystemKind;
    use laer_model::ModelPreset;
    use laer_sim::{FaultEvent, FaultKind};

    fn quick(system: SystemKind) -> ExperimentConfig {
        ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, system)
            .with_iterations(6, 2)
            .with_layers(2)
            .with_seed(3)
    }

    fn failure_plan(device: usize, at: u64) -> FaultPlan {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            kind: FaultKind::DeviceFailure {
                device: DeviceId::new(device),
            },
            start: at,
            end: u64::MAX,
        })
        .unwrap();
        plan
    }

    /// With an empty fault plan the runner reproduces `run_experiment`'s
    /// iteration times exactly, for planner-driven and static systems,
    /// with and without the chunked pipeline.
    #[test]
    fn empty_plan_matches_run_experiment() {
        for system in [SystemKind::Laer, SystemKind::FsdpEp, SystemKind::VanillaEp] {
            for cfg in [quick(system), quick(system).with_num_chunks(4)] {
                let baseline = run_experiment(&cfg);
                let mut runner = FaultRunner::new(cfg.clone(), FaultPlan::new());
                let reports = runner.run((cfg.warmup + cfg.iterations) as u64).unwrap();
                let times: Vec<f64> = reports[cfg.warmup..].iter().map(|r| r.time).collect();
                assert_eq!(
                    times, baseline.iteration_times,
                    "{system}, {} chunks",
                    cfg.num_chunks
                );
                assert!(reports.iter().all(|r| !r.degraded));
            }
        }
    }

    /// A device failure inside a planner outage cannot be planned
    /// around: LAER pays the restart path and keeps training on all 32
    /// (replacement) devices.
    #[test]
    fn failure_during_planner_outage_restarts() {
        let mut plan = failure_plan(13, 4);
        plan.push(FaultEvent {
            kind: FaultKind::PlannerOutage,
            start: 2,
            end: 10,
        })
        .unwrap();
        let reports = FaultRunner::new(quick(SystemKind::Laer), plan)
            .run(12)
            .unwrap();
        assert!(
            reports[4].time > COLLECTIVE_TIMEOUT + CHECKPOINT_RELOAD,
            "iteration 4 took {:.3} s",
            reports[4].time
        );
        assert!(reports.iter().all(|r| r.tokens == 32 * 16 * 1024));
    }

    /// Identical `(seed, FaultPlan)` pairs produce bit-identical runs.
    #[test]
    fn deterministic_under_seed_and_plan() {
        let plan = FaultPlan::random(7, 32, 12);
        let a = FaultRunner::new(quick(SystemKind::Laer), plan.clone())
            .run(12)
            .unwrap();
        let b = FaultRunner::new(quick(SystemKind::Laer), plan)
            .run(12)
            .unwrap();
        assert_eq!(a, b);
    }

    /// LAER survives a device failure elastically: zero panics, the dead
    /// device drops out of the token count, and rolling throughput over
    /// the 10 iterations after the failure stays within 90 % of
    /// fault-free.
    #[test]
    fn laer_recovers_elastically() {
        let fail_at = 4u64;
        let mut faulted = FaultRunner::new(quick(SystemKind::Laer), failure_plan(13, fail_at));
        let reports = faulted.run(fail_at + 10).unwrap();
        let mut clean = FaultRunner::new(quick(SystemKind::Laer), FaultPlan::new());
        let clean_reports = clean.run(fail_at + 10).unwrap();
        // Elastic: post-failure iterations train 31 devices' tokens.
        let post = &reports[fail_at as usize..];
        assert!(post.iter().all(|r| r.tokens == 31 * 16 * 1024));
        let ratio = window_throughput(post) / window_throughput(&clean_reports[fail_at as usize..]);
        assert!(
            ratio >= 0.9,
            "LAER should recover to >=90% of fault-free, got {ratio:.3}"
        );
    }

    /// The static vanilla-EP baseline pays the restart path and does
    /// *not* reach 90 % of its fault-free throughput in the same window.
    #[test]
    fn vanilla_restart_stalls() {
        let fail_at = 4u64;
        let mut faulted = FaultRunner::new(quick(SystemKind::VanillaEp), failure_plan(13, fail_at));
        let reports = faulted.run(fail_at + 10).unwrap();
        let mut clean = FaultRunner::new(quick(SystemKind::VanillaEp), FaultPlan::new());
        let clean_reports = clean.run(fail_at + 10).unwrap();
        let post = &reports[fail_at as usize..];
        let ratio = window_throughput(post) / window_throughput(&clean_reports[fail_at as usize..]);
        assert!(
            ratio < 0.9,
            "static restart should stall below 90%, got {ratio:.3}"
        );
    }

    /// An unrecoverable cluster aborts with a typed error, not a panic.
    #[test]
    fn unrecoverable_failure_aborts_typed() {
        // 4 devices, C = 2, E = 8: losing any device makes the instance
        // unsatisfiable for an elastic system.
        let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
            .with_cluster(1, 4)
            .with_layers(1)
            .with_seed(1);
        let mut runner = FaultRunner::new(cfg, failure_plan(2, 1));
        assert!(runner.step().is_ok());
        assert!(matches!(runner.step(), Err(TrainError::Recovery(_))));
    }

    /// Checkpoint → serde round trip → restore resumes bit-identically,
    /// across a fault boundary.
    #[test]
    fn checkpoint_restore_bit_identical() {
        use serde::{Deserialize, Serialize};
        let plan = FaultPlan::random(11, 32, 16);
        let cfg = quick(SystemKind::Laer);
        let mut uninterrupted = FaultRunner::new(cfg.clone(), plan.clone());
        let full = uninterrupted.run(16).unwrap();

        let mut first = FaultRunner::new(cfg.clone(), plan.clone());
        let head = first.run(9).unwrap();
        let value = first.checkpoint().serialize_value();
        let ckpt = RunnerCheckpoint::deserialize_value(&value).unwrap();
        let mut second = FaultRunner::new(cfg, plan);
        second.restore(ckpt).unwrap();
        let tail = second.run(7).unwrap();

        let resumed: Vec<IterationReport> = head.into_iter().chain(tail).collect();
        assert_eq!(resumed, full);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Satellite: a checkpoint taken *inside* an active straggler /
        /// link-degrade window restores bit-identically. The snapshot
        /// carries no fault state at all — the restored runner must
        /// re-derive the mid-fault view (compute multipliers, degraded
        /// links, planner availability) from the plan alone.
        #[test]
        fn checkpoint_mid_fault_restores_bit_identically(
            seed in 0u64..10_000,
            device in 0usize..32,
            factor in 1.5f64..4.0,
            link_factor in 0.1f64..0.9,
            start in 2u64..6,
            len in 3u64..6,
            sys in proptest::prelude::prop_oneof![
                proptest::prelude::Just(SystemKind::Laer),
                proptest::prelude::Just(SystemKind::FsdpEp),
            ],
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};

            let end = start + len;
            let mut plan = FaultPlan::new();
            plan.push(FaultEvent {
                kind: FaultKind::Straggler {
                    device: DeviceId::new(device),
                    factor,
                },
                start,
                end,
            })
            .unwrap();
            plan.push(FaultEvent {
                kind: FaultKind::LinkDegrade {
                    a: DeviceId::new(device),
                    b: DeviceId::new((device + 7) % 32),
                    factor: link_factor,
                },
                start,
                end,
            })
            .unwrap();
            let cfg = quick(sys).with_seed(seed);
            let total = end + 3;
            // Cut strictly inside the fault window.
            let cut = start + len / 2;
            prop_assert!(cut > start && cut < end);

            let mut uninterrupted = FaultRunner::new(cfg.clone(), plan.clone());
            let full = uninterrupted.run(total).unwrap();
            prop_assert!(full[cut as usize].degraded, "cut must land mid-fault");

            let mut first = FaultRunner::new(cfg.clone(), plan.clone());
            let head = first.run(cut).unwrap();
            let ckpt = first.checkpoint();
            let mut second = FaultRunner::new(cfg, plan);
            second.restore(ckpt).unwrap();
            let tail = second.run(total - cut).unwrap();

            let resumed: Vec<IterationReport> = head.into_iter().chain(tail).collect();
            prop_assert_eq!(resumed, full);
        }
    }

    /// Straggler iterations render fault spans into the Chrome trace.
    #[test]
    fn trace_renders_fault_spans() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            kind: FaultKind::Straggler {
                device: DeviceId::new(5),
                factor: 2.5,
            },
            start: 0,
            end: 4,
        })
        .unwrap();
        let mut runner = FaultRunner::new(quick(SystemKind::FsdpEp), plan).with_trace_capture(true);
        let _ = runner.run(2).unwrap();
        let trace = runner.last_trace().expect("capture enabled");
        assert!(trace.contains("fault"), "trace should render fault spans");
    }
}
