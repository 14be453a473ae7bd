//! The one training loop, with deterministic fault injection and
//! graceful degraded-mode training.
//!
//! [`FaultRunner`] steps a [`MoeSystem`] through training iterations.
//! Each [`FaultRunner::step`] is one iteration of the Fig. 7 pipeline:
//! it takes every layer's routing demand from the caller, plans every
//! layer, and schedules dispatch, expert compute and combine on the
//! S1–S4 streams of the live devices. Every training driver steps this
//! one loop: `run_experiment` and its variants, [`FaultRunner::run`],
//! the RL rollout→train replay, the Fig. 12 ablation and the cross-rack
//! study. A driver only picks the demand source and aggregates or
//! observes what each step returns.
//!
//! An empty [`FaultPlan`] trains fault-free. A seeded plan injects
//! stragglers, link degradation, device failures and planner outages,
//! and the runner is the recovery state machine of the robustness
//! experiments:
//!
//! * **detect** — at the first iteration a device failure is active, the
//!   system is asked to react ([`MoeSystem::handle_device_failures`]);
//!   a device whose failure window closed rejoins, and a later failure
//!   on it is detected afresh;
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
use laer_baselines::{LayerPlan, MoeSystem, SystemError};
use laer_cluster::{DegradedView, DeviceId, ExpertId, Topology};
use laer_fsep::{schedule_iteration_on, LayerTimings, ScheduleOptions};
use laer_planner::CapacityResponse;
use laer_routing::{CheckpointError, GeneratorCheckpoint, RoutingGenerator, RoutingMatrix};
use laer_sim::{record_fault_spans, ActiveFaults, Engine, EngineOptions, FaultPlan};
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

/// Interval (iterations) between simulated checkpoint writes;
/// restarting systems must redo the iterations since the last one.
pub const CHECKPOINT_INTERVAL: u64 = 5;

/// Typed failure of a training run.
#[derive(Debug, Clone, PartialEq)]
pub enum TrainError {
    /// The system could not recover from a device failure (e.g. too few
    /// survivors to host every expert).
    Recovery(SystemError),
    /// A checkpoint could not be restored.
    Checkpoint(String),
    /// A routing trace does not fit the experiment's cluster and model.
    Trace(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Recovery(e) => write!(f, "unrecoverable fault: {e}"),
            TrainError::Checkpoint(msg) => write!(f, "checkpoint restore failed: {msg}"),
            TrainError::Trace(msg) => write!(f, "trace does not fit the experiment: {msg}"),
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

/// Everything one [`FaultRunner::step`] produced.
pub struct TrainStep {
    /// The iteration's time, tokens and fault status.
    pub report: IterationReport,
    /// Every layer's decision, in layer order, with the timings as
    /// scheduled (straggler slowdown included).
    pub plans: Vec<LayerPlan>,
    /// The engine the iteration ran on; its timeline holds the S1–S4
    /// spans plus one fault span per affected device and stream.
    pub engine: Engine,
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
    /// Iteration of the last simulated checkpoint write.
    pub last_checkpoint_iteration: u64,
    /// Device indices whose failure has already been handled.
    pub handled_failures: Vec<usize>,
    /// Whether the system is running elastically on survivors.
    pub elastic: bool,
}

/// The training loop: one system on one cluster, stepped iteration by
/// iteration under a [`FaultPlan`] (empty for fault-free training).
pub struct FaultRunner {
    cfg: ExperimentConfig,
    system: Box<dyn MoeSystem>,
    topo: Topology,
    opts: ScheduleOptions,
    plan: FaultPlan,
    gens: Vec<RoutingGenerator>,
    iteration: u64,
    iteration_times: Vec<f64>,
    last_checkpoint_iteration: u64,
    handled_failures: Vec<usize>,
    elastic: bool,
}

impl FaultRunner {
    /// Creates a runner for `cfg`'s system; the run is a deterministic
    /// function of `(cfg.seed, plan)`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero layers).
    pub fn new(cfg: ExperimentConfig, plan: FaultPlan) -> Self {
        let system = cfg.build_system();
        Self::with_system(cfg, plan, system)
    }

    /// Creates a runner around a prebuilt `system`, for systems
    /// [`laer_baselines::SystemKind`] cannot name (the Fig. 12 ablation
    /// variants) or clusters a node × device shape cannot (racked
    /// topologies). The cluster is the system context's topology; the
    /// layers, routing generators, chunk count, dependency recording
    /// and token count come from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero layers), or its
    /// device count, expert count or tokens per device disagree with
    /// the system's context.
    pub(crate) fn with_system(
        cfg: ExperimentConfig,
        plan: FaultPlan,
        system: Box<dyn MoeSystem>,
    ) -> Self {
        assert!(cfg.layers > 0, "at least one layer");
        let ctx = system.context();
        let fits = (cfg.nodes * cfg.devices_per_node, cfg.tokens_per_device)
            == (ctx.topology().num_devices(), ctx.tokens_per_device())
            && cfg.preset.config().experts() == ctx.model().experts();
        assert!(fits, "the configuration does not fit the system's context");
        let topo = ctx.topology().clone();
        // The one place the configured chunk count reaches the schedule.
        let opts = match cfg.num_chunks {
            0 => system.schedule_options(),
            chunks => system.schedule_options().with_num_chunks(chunks),
        };
        Self {
            gens: cfg.layer_generators(),
            cfg,
            system,
            topo,
            opts,
            plan,
            iteration: 0,
            iteration_times: Vec::new(),
            last_checkpoint_iteration: 0,
            handled_failures: Vec::new(),
            elastic: false,
        }
    }

    /// The stream-scheduling options every step runs under: the
    /// system's own, with the configured chunk count applied.
    pub(crate) fn schedule_options(&self) -> ScheduleOptions {
        self.opts
    }

    /// The system under training.
    pub(crate) fn system_mut(&mut self) -> &mut dyn MoeSystem {
        self.system.as_mut()
    }

    /// Draws the next iteration's per-layer demand from the
    /// configuration's routing generators
    /// ([`ExperimentConfig::routing_config`]).
    pub(crate) fn next_demand(&mut self) -> Vec<RoutingMatrix> {
        self.gens
            .iter_mut()
            .map(RoutingGenerator::next_iteration)
            .collect()
    }

    /// Runs one iteration on `demand` (one matrix per layer) through the
    /// detect → re-plan → resume state machine: plans every layer, drops
    /// the dead devices' tokens, stretches straggler compute and
    /// schedules the iteration on the live devices.
    ///
    /// # Errors
    ///
    /// [`TrainError::Recovery`] if an active device failure leaves the
    /// system unable to continue (every expert needs a live replica).
    ///
    /// # Panics
    ///
    /// Panics if `demand` does not hold one matrix per layer, or a
    /// matrix's shape disagrees with the cluster and model.
    pub fn step(&mut self, mut demand: Vec<RoutingMatrix>) -> Result<TrainStep, TrainError> {
        assert_eq!(demand.len(), self.cfg.layers, "one demand matrix per layer");
        let active = self.plan.active_at(self.iteration);
        let penalty = self.detect(&active)?;
        let live = self.resume(&active);
        if self.elastic {
            // Elastic batch: the dead devices' tokens are dropped.
            for matrix in &mut demand {
                for &d in &self.handled_failures {
                    for e in 0..matrix.num_experts() {
                        matrix.set(DeviceId::new(d), ExpertId::new(e), 0);
                    }
                }
            }
        }
        let mut plans: Vec<LayerPlan> = demand
            .iter()
            .enumerate()
            .map(|(l, d)| self.system.plan_layer(l, self.iteration, d))
            .collect();
        // Lend every layer's timings to the schedule (handed back below),
        // stretching straggler compute. (Attention is a single scalar in
        // LayerTimings, so the slowdown is applied to the dominant,
        // device-resolved compute term.)
        let timings: Vec<LayerTimings> = plans
            .iter_mut()
            .map(|plan| {
                let mut timings = std::mem::take(&mut plan.timings);
                for (d, t) in timings.expert_forward.iter_mut().enumerate() {
                    *t *= active.compute_multiplier(DeviceId::new(d));
                }
                timings
            })
            .collect();
        let options = EngineOptions {
            record_deps: self.cfg.record_deps,
        };
        let mut engine = Engine::with_options(&self.topo, options);
        let t = schedule_iteration_on(&mut engine, &self.topo, &live, &timings, self.opts);
        record_fault_spans(engine.timeline_mut(), &active, 0.0, t.total);
        for (plan, timings) in plans.iter_mut().zip(timings) {
            plan.timings = timings;
        }

        let report = IterationReport {
            iteration: self.iteration,
            time: t.total + penalty,
            tokens: live.len() as u64 * self.cfg.tokens_per_device,
            degraded: !active.is_empty(),
        };
        self.iteration += 1;
        self.iteration_times.push(report.time);
        if self.iteration.is_multiple_of(CHECKPOINT_INTERVAL) {
            self.last_checkpoint_iteration = self.iteration;
        }
        Ok(TrainStep {
            report,
            plans,
            engine,
        })
    }

    /// Detect and re-plan: forgets the failures whose window closed (the
    /// device rejoined) and lets the system react to newly observed
    /// ones. Returns the recovery seconds charged to this iteration.
    fn detect(&mut self, active: &ActiveFaults) -> Result<f64, TrainError> {
        self.system.set_planner_available(!active.planner_outage());
        self.handled_failures
            .retain(|&d| active.is_failed(DeviceId::new(d)));
        let newly_failed: Vec<usize> = active
            .failed_devices()
            .map(DeviceId::index)
            .filter(|d| !self.handled_failures.contains(d))
            .collect();
        if newly_failed.is_empty() {
            return Ok(0.0);
        }
        let failure_view = active.degraded_view(&self.topo);
        let penalty =
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
                COLLECTIVE_TIMEOUT + CHECKPOINT_RELOAD + redo as f64 * avg
            } else {
                // Elastic continuation on the survivors.
                self.elastic = true;
                DETECTION_DELAY + REPLAN_PENALTY
            };
        self.handled_failures.extend(newly_failed);
        self.handled_failures.sort_unstable();
        Ok(penalty)
    }

    /// Resume: installs the network view this iteration is priced
    /// against and returns the devices that execute it. Elastic systems
    /// keep the failures in view; restarted systems got replacement
    /// hardware, so only link faults remain for them.
    fn resume(&mut self, active: &ActiveFaults) -> Vec<DeviceId> {
        if active.is_empty() {
            self.system.context_mut().set_fault_view(None);
            return self.topo.devices().collect();
        }
        let mut view = DegradedView::new(self.topo.clone());
        for (a, b, factor) in active.degraded_links() {
            view.degrade_link(a, b, factor);
        }
        let live = if self.elastic {
            for d in active.failed_devices() {
                view.fail_device(d);
            }
            view.survivors()
        } else {
            self.topo.devices().collect()
        };
        self.system
            .context_mut()
            .set_fault_view((!view.is_nominal()).then_some(view));
        live
    }

    /// Runs `iterations` steps on the configuration's routing generators
    /// and returns their reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TrainError`] from [`FaultRunner::step`].
    pub fn run(&mut self, iterations: u64) -> Result<Vec<IterationReport>, TrainError> {
        (0..iterations)
            .map(|_| {
                let demand = self.next_demand();
                self.step(demand).map(|step| step.report)
            })
            .collect()
    }

    /// Snapshots the full mutable state for checkpoint/restore.
    pub fn checkpoint(&self) -> RunnerCheckpoint {
        RunnerCheckpoint {
            iteration: self.iteration,
            generators: self.gens.iter().map(RoutingGenerator::checkpoint).collect(),
            system_state: self.system.snapshot(),
            iteration_times: self.iteration_times.clone(),
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
    /// [`TrainError::Checkpoint`] when the checkpoint does not fit this
    /// run (layer count, routing shapes, a failure on a device outside
    /// the cluster), [`TrainError::Recovery`] if the system rejects its
    /// snapshot.
    pub fn restore(&mut self, ckpt: RunnerCheckpoint) -> Result<(), TrainError> {
        if ckpt.generators.len() != self.gens.len() {
            return Err(TrainError::Checkpoint(format!(
                "checkpoint has {} layer generators, config has {}",
                ckpt.generators.len(),
                self.gens.len()
            )));
        }
        let n = self.topo.num_devices();
        if let Some(d) = ckpt.handled_failures.iter().find(|&&d| d >= n) {
            return Err(TrainError::Checkpoint(format!(
                "failure handled on device {d}, but the cluster has {n} devices"
            )));
        }
        let gens: Vec<RoutingGenerator> = ckpt
            .generators
            .into_iter()
            .map(RoutingGenerator::from_checkpoint)
            .collect::<Result<_, _>>()?;
        for (l, (restored, own)) in gens.iter().zip(&self.gens).enumerate() {
            let (a, b) = (restored.config(), own.config());
            if (a.devices, a.experts) != (b.devices, b.experts) {
                return Err(TrainError::Checkpoint(format!(
                    "layer {l} routes {}x{} (devices x experts), config has {}x{}",
                    a.devices, a.experts, b.devices, b.experts
                )));
            }
        }
        self.system.restore(&ckpt.system_state)?;
        // Per-step state (fault view, planner availability) is re-derived
        // from the plan inside `step`, and `handled_failures` keeps the
        // detect phase from firing again, so nothing else to re-arm.
        self.gens = gens;
        self.iteration = ckpt.iteration;
        self.iteration_times = ckpt.iteration_times;
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
    use laer_sim::{FaultEvent, FaultKind, Span, SpanLabel};

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
        assert!(runner.run(1).is_ok());
        assert!(matches!(runner.run(1), Err(TrainError::Recovery(_))));
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

    /// Straggler iterations stamp fault spans onto the step's timeline.
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
        let mut runner = FaultRunner::new(quick(SystemKind::FsdpEp), plan);
        let demand = runner.next_demand();
        let step = runner.step(demand).unwrap();
        let faults: Vec<&Span> = step
            .engine
            .timeline()
            .spans()
            .iter()
            .filter(|s| s.label == SpanLabel::Fault)
            .collect();
        assert!(!faults.is_empty(), "the straggler renders a fault span");
        assert!(faults.iter().all(|s| s.device == DeviceId::new(5)));
    }

    /// A device whose failure window closed trains again: its demand is
    /// routed and its tokens count. A second failure on it is detected
    /// afresh and pays the detect + re-plan charge again.
    #[test]
    fn rejoined_device_trains_again_and_refails_afresh() {
        let mut plan = FaultPlan::new();
        for (start, end) in [(4, 6), (8, u64::MAX)] {
            plan.push(FaultEvent {
                kind: FaultKind::DeviceFailure {
                    device: DeviceId::new(13),
                },
                start,
                end,
            })
            .unwrap();
        }
        let mut runner = FaultRunner::new(quick(SystemKind::Laer), plan);
        for iteration in 0..9u64 {
            let demand = runner.next_demand();
            let offered: u64 = demand.iter().map(RoutingMatrix::total).sum();
            let step = runner.step(demand).unwrap();
            let routed: u64 = step
                .plans
                .iter()
                .map(|p| p.routing.device_compute_loads().iter().sum::<u64>())
                .sum();
            let failed = (4..6).contains(&iteration) || iteration >= 8;
            assert_eq!(routed < offered, failed, "iteration {iteration}");
            let devices = if failed { 31 } else { 32 };
            assert_eq!(
                step.report.tokens,
                devices * 16 * 1024,
                "iteration {iteration}"
            );
            let penalty = step.report.time - step.engine.timeline().makespan();
            let expected = if iteration == 4 || iteration == 8 {
                DETECTION_DELAY + REPLAN_PENALTY
            } else {
                0.0
            };
            assert!(
                (penalty - expected).abs() < 1e-9,
                "iteration {iteration}: penalty {penalty}"
            );
        }
    }

    /// A checkpoint that does not fit the run is a typed error, and the
    /// runner it was offered to keeps training.
    #[test]
    fn restore_rejects_checkpoints_that_do_not_fit() {
        let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
            .with_cluster(1, 8)
            .with_layers(1)
            .with_seed(1);
        let mut out_of_range = FaultRunner::new(cfg.clone(), FaultPlan::new()).checkpoint();
        out_of_range.handled_failures = vec![999];
        let wider = FaultRunner::new(cfg.clone().with_cluster(4, 8), FaultPlan::new()).checkpoint();
        for ckpt in [out_of_range, wider] {
            let mut runner = FaultRunner::new(cfg.clone(), FaultPlan::new());
            let err = runner.restore(ckpt).unwrap_err();
            assert!(matches!(err, TrainError::Checkpoint(_)), "{err}");
            assert!(runner.run(2).is_ok());
        }
    }
}
