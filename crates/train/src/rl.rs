//! RL post-training workload with routing-replay foresight.
//!
//! RL post-training alternates **rollout** phases (generation over a
//! batch of prompts) with **train** phases that re-visit exactly those
//! prompts — so the routing demand of a train phase is *replayable*
//! from traces recorded during rollout (ReLibra, "Harnessing Routing
//! Foresight"). This driver runs that loop against the LAER system on
//! the one training loop ([`FaultRunner`]):
//!
//! * each epoch's rollout phase records one [`RoutingTrace`] per MoE
//!   layer from the live popularity process (which keeps drifting
//!   across epochs as the policy updates);
//! * the train phase steps the runner on the recorded demands, with the
//!   layout tuner driven either by the paper's stale EMA
//!   ([`PredictorKind::Ema`]) or by the recorded trace itself
//!   ([`PredictorKind::Replay`] via
//!   [`laer_baselines::MoeSystem::install_replay`]);
//! * per-epoch journal/audit records make the foresight-vs-EMA
//!   prediction error visible per predictor mode in
//!   [`laer_obs::AuditSummary`].
//!
//! Knobs model the ways replay foresight degrades in practice:
//! `replay_noise` perturbs the served predictions (rollout→train policy
//! mismatch), `drift` widens the popularity shift *between* epochs
//! (stressing the EMA at epoch boundaries), and `replay_shuffle`
//! permutes the train phase's visit order (the permutation is
//! prompt-keyed, so a recorded trace shuffles with it and foresight
//! survives).

use crate::faults::FaultRunner;
use crate::runner::{audit_decision, ExperimentConfig};
use laer_baselines::SystemKind;
use laer_model::ModelPreset;
use laer_obs::{journal, Observer, RlEpochRecord};
use laer_planner::{relocation_moves, ExpertLayout, PredictorKind};
use laer_routing::{RoutingTrace, TraceMeta};
use laer_sim::{FaultPlan, Timeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of one RL post-training run (LAER system only — the
/// predictor seam under test lives in its layout tuner).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlConfig {
    /// The training run the train phases step: model, dataset, aux
    /// weight, cluster, layers, tokens per device, sequence length,
    /// seed (of the demand process, the shuffle and the noise streams)
    /// and chunk count. Its `system`, `iterations`, `warmup` and
    /// `record_deps` are ignored: an RL run always trains LAER for
    /// `epochs × rollouts_per_epoch` iterations without recording span
    /// dependencies.
    pub experiment: ExperimentConfig,
    /// Rollout→train epochs to run.
    pub epochs: usize,
    /// Prompts recorded per rollout phase = iterations replayed per
    /// train phase.
    pub rollouts_per_epoch: usize,
    /// Whether the train phase visits the rollout buffer in a seeded
    /// shuffled order (the recorded trace shuffles with it).
    pub replay_shuffle: bool,
    /// Between-epoch popularity drift in [0, 1]: the fraction of an
    /// extra epoch the demand process advances while the policy
    /// updates. 0 leaves only the process's natural drift.
    pub drift: f64,
    /// Which predictor drives the layout tuner during train phases.
    pub predictor: PredictorKind,
    /// Replay mismatch noise in [0, 1] (0 = verbatim foresight); only
    /// meaningful with [`PredictorKind::Replay`].
    pub replay_noise: f64,
}

impl RlConfig {
    /// Defaults: the pre-training defaults of
    /// [`ExperimentConfig::new`] (4×8 cluster, wikitext prompts), 3
    /// epochs × 10 rollouts, in-order replay, no extra drift, EMA
    /// predictor.
    pub fn new(preset: ModelPreset) -> Self {
        Self {
            experiment: ExperimentConfig::new(preset, SystemKind::Laer),
            epochs: 3,
            rollouts_per_epoch: 10,
            replay_shuffle: false,
            drift: 0.0,
            predictor: PredictorKind::Ema,
            replay_noise: 0.0,
        }
    }

    /// Overrides the simulated layer count.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.experiment = self.experiment.with_layers(layers);
        self
    }

    /// Overrides the cluster shape.
    pub fn with_cluster(mut self, nodes: usize, devices_per_node: usize) -> Self {
        self.experiment = self.experiment.with_cluster(nodes, devices_per_node);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.experiment = self.experiment.with_seed(seed);
        self
    }

    /// Overrides the epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Overrides the rollouts recorded (= iterations replayed) per epoch.
    pub fn with_rollouts(mut self, rollouts: usize) -> Self {
        self.rollouts_per_epoch = rollouts;
        self
    }

    /// Selects the train-phase predictor.
    pub fn with_predictor(mut self, predictor: PredictorKind) -> Self {
        self.predictor = predictor;
        self
    }

    /// Sets the replay mismatch noise (0 = verbatim foresight).
    pub fn with_replay_noise(mut self, noise: f64) -> Self {
        self.replay_noise = noise;
        self
    }

    /// Sets the between-epoch popularity drift.
    pub fn with_drift(mut self, drift: f64) -> Self {
        self.drift = drift;
        self
    }

    /// Enables/disables the seeded train-order shuffle.
    pub fn with_shuffle(mut self, shuffle: bool) -> Self {
        self.replay_shuffle = shuffle;
        self
    }

    /// Mode-qualified system label, e.g. `laer-moe[replay]` — keyed
    /// into the audit log so [`laer_obs::AuditSummary`] separates
    /// predictor modes.
    pub fn system_label(&self) -> String {
        format!("laer-moe[{}]", self.predictor.id())
    }
}

/// One epoch's headline outcomes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlEpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Average train-phase step time, seconds.
    pub avg_step_time: f64,
    /// Mean |predicted-actual|/actual over this epoch's plan decisions.
    pub audit_mean_abs_rel_error: f64,
    /// Expert-weight relocations executed between consecutive layouts.
    pub relocation_moves: u64,
}

/// Aggregated output of one RL post-training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlResult {
    /// Mode-qualified system label (`laer-moe[ema]` / `laer-moe[replay]`).
    pub system: String,
    /// Predictor mode id (`ema` / `replay`).
    pub mode: String,
    /// Per-epoch reports, in order.
    pub epochs: Vec<RlEpochReport>,
    /// Average train-phase step time across all epochs, seconds.
    pub avg_step_time: f64,
    /// Global training throughput, tokens/second.
    pub tokens_per_second: f64,
    /// Mean |predicted-actual|/actual across all plan decisions.
    pub audit_mean_abs_rel_error: f64,
    /// Total expert-weight relocations across all epochs.
    pub relocation_moves: u64,
    /// Mean per-layer max-token/ideal ratio (balance quality).
    pub avg_max_token_ratio: f64,
}

/// Registry families the RL driver populates.
fn declare_rl_metrics(obs: &mut Observer) {
    obs.registry
        .declare_counter("laer_rl_epochs_total", "rollout→train epochs executed");
    obs.registry.declare_counter(
        "laer_rl_train_iterations_total",
        "train-phase iterations executed",
    );
    obs.registry.declare_gauge(
        "laer_rl_avg_step_seconds",
        "average train-phase iteration time",
    );
    obs.registry.declare_gauge(
        "laer_rl_audit_mean_abs_rel_error",
        "mean |predicted-actual|/actual of train-phase plan decisions",
    );
    obs.registry.declare_gauge(
        "laer_rl_relocation_moves",
        "expert-weight relocations executed across the run",
    );
}

/// Runs the rollout→train loop without a telemetry sink.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero layers, epochs or
/// rollouts).
pub fn run_rl(cfg: &RlConfig) -> RlResult {
    let mut obs = Observer::new();
    run_rl_observed(cfg, &mut obs).0
}

/// Runs the rollout→train loop with full observability: per-iteration
/// journal events, per-epoch [`RlEpochRecord`]s, plan-decision audits
/// under the mode-qualified system label, and headline gauges. Returns
/// the result plus the final iteration's [`Timeline`].
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero layers, epochs or
/// rollouts).
pub fn run_rl_observed(cfg: &RlConfig, obs: &mut Observer) -> (RlResult, Timeline) {
    assert!(cfg.epochs > 0, "at least one epoch");
    assert!(cfg.rollouts_per_epoch > 0, "at least one rollout");
    assert!((0.0..=1.0).contains(&cfg.drift), "drift must be in [0, 1]");
    let mut exp = cfg.experiment.clone().with_record_deps(false);
    exp.system = SystemKind::Laer;
    let topo = exp.topology();
    let n = topo.num_devices();
    let label = cfg.system_label();
    let mut runner = FaultRunner::new(exp.clone(), FaultPlan::new());
    let opts = runner.schedule_options();
    declare_rl_metrics(obs);

    let rollouts = cfg.rollouts_per_epoch;
    let mut prev_layouts: Vec<Option<ExpertLayout>> = vec![None; exp.layers];
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut all_step_time = 0.0f64;
    let mut all_err = 0.0f64;
    let mut all_decisions = 0usize;
    let mut all_moves = 0u64;
    let mut ratio_acc = 0.0f64;
    let mut last_timeline: Option<Timeline> = None;

    for epoch in 0..cfg.epochs {
        let recorded = rollout(&mut runner, cfg, epoch);
        // The train dataloader's visit order over the rollout buffer;
        // prompt-keyed, so the replayed traces permute with it.
        let order: Vec<usize> = if cfg.replay_shuffle {
            permutation(rollouts, exp.seed ^ (epoch as u64).wrapping_mul(0x9E37))
        } else {
            (0..rollouts).collect()
        };
        let exec: Vec<RoutingTrace> = recorded
            .iter()
            .map(|t| {
                let mut p = RoutingTrace::new(t.meta().clone());
                for &i in &order {
                    p.push(
                        t.get(i)
                            .unwrap_or_else(|| unreachable!("permutation index in range"))
                            .clone(),
                    );
                }
                p
            })
            .collect();
        if cfg.predictor == PredictorKind::Replay {
            runner.system_mut().install_replay(
                exec.clone(),
                cfg.replay_noise,
                exp.seed.wrapping_add(epoch as u64),
            );
        }

        // --- Train phase: replay the recorded prompts. ---
        let mut epoch_time = 0.0f64;
        let mut epoch_err = 0.0f64;
        let mut epoch_decisions = 0usize;
        let mut epoch_moves = 0u64;
        for t in 0..rollouts {
            let demand = exec
                .iter()
                .map(|trace| {
                    trace
                        .get(t)
                        .unwrap_or_else(|| unreachable!("recorded above"))
                        .clone()
                })
                .collect();
            let step = runner
                .step(demand)
                .unwrap_or_else(|e| unreachable!("a fault-free step cannot fail: {e}"));
            let iter = step.report.iteration;
            let mut iter_ratio = 0.0f64;
            for (l, plan) in step.plans.iter().enumerate() {
                let ratio = plan.max_token_ratio();
                iter_ratio += ratio;
                ratio_acc += ratio;
                if let Some(prev) = &prev_layouts[l] {
                    epoch_moves += relocation_moves(&topo, prev, &plan.layout).len() as u64;
                }
                epoch_err += audit_decision(obs, &label, iter, l, plan, ratio, opts);
                epoch_decisions += 1;
            }
            epoch_time += step.report.time;
            let record = journal::iteration_record(
                &label,
                iter,
                step.report.time,
                iter_ratio / exp.layers as f64,
                step.engine.timeline(),
                n,
                opts.effective_chunks(),
            );
            obs.journal.push("iteration", &record);
            obs.registry
                .inc("laer_rl_train_iterations_total", &[("system", &label)], 1);
            for (prev, plan) in prev_layouts.iter_mut().zip(step.plans) {
                *prev = Some(plan.layout);
            }
            if epoch + 1 == cfg.epochs && t + 1 == rollouts {
                last_timeline = Some(step.engine.into_timeline());
            }
        }

        let report = RlEpochReport {
            epoch,
            avg_step_time: epoch_time / rollouts as f64,
            audit_mean_abs_rel_error: epoch_err / epoch_decisions as f64,
            relocation_moves: epoch_moves,
        };
        obs.journal.push(
            "rl_epoch",
            &RlEpochRecord {
                system: label.clone(),
                mode: cfg.predictor.id().to_string(),
                epoch: epoch as u64,
                rollouts: rollouts as u64,
                drift: cfg.drift,
                avg_step_time: report.avg_step_time,
                audit_mean_abs_rel_error: report.audit_mean_abs_rel_error,
                relocation_moves: epoch_moves,
            },
        );
        obs.registry
            .inc("laer_rl_epochs_total", &[("system", &label)], 1);
        epochs.push(report);
        all_step_time += epoch_time;
        all_err += epoch_err;
        all_decisions += epoch_decisions;
        all_moves += epoch_moves;

        // --- Policy update: between epochs the popularity process
        // advances an extra `drift` fraction of an epoch. ---
        if epoch + 1 < cfg.epochs && cfg.drift > 0.0 {
            let skip = (cfg.drift * rollouts as f64).ceil() as usize;
            for _ in 0..skip {
                let _ = runner.next_demand();
            }
        }
    }

    let iters = (cfg.epochs * rollouts) as f64;
    let avg_step_time = all_step_time / iters;
    let global_tokens = n as u64 * exp.tokens_per_device;
    obs.registry.set(
        "laer_rl_avg_step_seconds",
        &[("system", &label)],
        avg_step_time,
    );
    obs.registry.set(
        "laer_rl_audit_mean_abs_rel_error",
        &[("system", &label)],
        all_err / all_decisions as f64,
    );
    obs.registry.set(
        "laer_rl_relocation_moves",
        &[("system", &label)],
        all_moves as f64,
    );
    let result = RlResult {
        system: label,
        mode: cfg.predictor.id().to_string(),
        epochs,
        avg_step_time,
        tokens_per_second: global_tokens as f64 / avg_step_time,
        audit_mean_abs_rel_error: all_err / all_decisions as f64,
        relocation_moves: all_moves,
        avg_max_token_ratio: ratio_acc / (iters * exp.layers as f64),
    };
    (
        result,
        last_timeline.unwrap_or_else(|| unreachable!("at least one iteration ran")),
    )
}

/// Rollout phase: generates this epoch's prompts from the runner's
/// demand process and records their routing, one trace per layer.
fn rollout(runner: &mut FaultRunner, cfg: &RlConfig, epoch: usize) -> Vec<RoutingTrace> {
    let mut traces: Vec<RoutingTrace> = (0..cfg.experiment.layers)
        .map(|l| {
            RoutingTrace::new(TraceMeta {
                description: format!("rl rollout epoch {epoch} layer {l}"),
                seed: Some(cfg.experiment.seed),
            })
        })
        .collect();
    for _ in 0..cfg.rollouts_per_epoch {
        for (trace, matrix) in traces.iter_mut().zip(runner.next_demand()) {
            trace.push(matrix);
        }
    }
    traces
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RlConfig {
        RlConfig::new(ModelPreset::Mixtral8x7bE8k2)
            .with_cluster(2, 4)
            .with_layers(2)
            .with_epochs(2)
            .with_rollouts(6)
            .with_seed(5)
    }

    /// The headline claim in miniature: replay foresight at zero noise
    /// cuts the EMA's stale-demand audit error by at least 5×.
    #[test]
    fn replay_slashes_audit_error() {
        let ema = run_rl(&quick());
        let replay = run_rl(&quick().with_predictor(PredictorKind::Replay));
        assert!(
            replay.audit_mean_abs_rel_error * 5.0 <= ema.audit_mean_abs_rel_error,
            "replay {:.5} vs ema {:.5}",
            replay.audit_mean_abs_rel_error,
            ema.audit_mean_abs_rel_error
        );
        assert!(
            replay.avg_step_time <= ema.avg_step_time * 1.02,
            "foresight should not slow the run: replay {:.6} vs ema {:.6}",
            replay.avg_step_time,
            ema.avg_step_time
        );
    }

    /// RL runs are pure functions of their configuration.
    #[test]
    fn rl_runs_are_deterministic() {
        let cfg = quick()
            .with_predictor(PredictorKind::Replay)
            .with_shuffle(true);
        let a = run_rl(&cfg);
        let b = run_rl(&cfg);
        assert_eq!(a, b);
    }

    /// The shuffle permutes visit order but is prompt-keyed: recorded
    /// traces shuffle with it, so replay foresight survives.
    #[test]
    fn shuffle_preserves_foresight() {
        let shuffled = run_rl(
            &quick()
                .with_predictor(PredictorKind::Replay)
                .with_shuffle(true),
        );
        let ema = run_rl(&quick().with_shuffle(true));
        assert!(
            shuffled.audit_mean_abs_rel_error * 5.0 <= ema.audit_mean_abs_rel_error,
            "shuffled replay {:.5} vs ema {:.5}",
            shuffled.audit_mean_abs_rel_error,
            ema.audit_mean_abs_rel_error
        );
    }

    /// Replay noise degrades foresight monotonically toward (and past)
    /// nothing: noisy replay errs more than clean replay.
    #[test]
    fn replay_noise_degrades_foresight() {
        let clean = run_rl(&quick().with_predictor(PredictorKind::Replay));
        let noisy = run_rl(
            &quick()
                .with_predictor(PredictorKind::Replay)
                .with_replay_noise(0.5),
        );
        assert!(
            clean.audit_mean_abs_rel_error < noisy.audit_mean_abs_rel_error,
            "clean {:.5} vs noisy {:.5}",
            clean.audit_mean_abs_rel_error,
            noisy.audit_mean_abs_rel_error
        );
    }

    /// Observability: per-epoch journal records and mode-qualified
    /// audit summaries land in the observer.
    #[test]
    fn observed_run_journals_epochs_and_audits_per_mode() {
        let mut obs = Observer::new();
        let cfg = quick().with_predictor(PredictorKind::Replay);
        let (result, _timeline) = run_rl_observed(&cfg, &mut obs);
        assert_eq!(result.epochs.len(), 2);
        let jsonl = obs.journal.to_jsonl();
        assert_eq!(
            jsonl.matches("\"type\":\"rl_epoch\"").count(),
            2,
            "one rl_epoch record per epoch"
        );
        let summary = obs
            .audit
            .summary("laer-moe[replay]")
            .expect("mode-qualified audit summary");
        assert_eq!(summary.decisions, 2 * 6 * 2);
        assert!((summary.mean_abs_rel_error - result.audit_mean_abs_rel_error).abs() < 1e-12);
    }

    /// Drift between epochs widens the EMA's error but leaves replay
    /// foresight (which re-records each epoch) essentially untouched.
    #[test]
    fn drift_hurts_ema_not_replay() {
        let ema_drift = run_rl(&quick().with_drift(1.0));
        let replay_drift = run_rl(
            &quick()
                .with_drift(1.0)
                .with_predictor(PredictorKind::Replay),
        );
        assert!(
            replay_drift.audit_mean_abs_rel_error * 5.0 <= ema_drift.audit_mean_abs_rel_error,
            "replay under drift {:.5} vs ema under drift {:.5}",
            replay_drift.audit_mean_abs_rel_error,
            ema_drift.audit_mean_abs_rel_error
        );
    }

    /// An EMA epoch without shuffle or drift replays exactly the
    /// pre-training run of the same configuration, at a non-default
    /// token count too: the rollouts draw the configured 8,192 tokens ×
    /// top-2 = 16,384 assignments per device, the count the context
    /// prices.
    #[test]
    fn rl_honours_the_configured_tokens_per_device() {
        use crate::runner::run_experiment;
        use laer_cluster::DeviceId;

        let mut cfg = quick().with_epochs(1);
        cfg.experiment.tokens_per_device = 8192;
        let mut runner = FaultRunner::new(cfg.experiment.clone(), FaultPlan::new());
        for trace in rollout(&mut runner, &cfg, 0) {
            for matrix in trace.iter() {
                for d in 0..matrix.num_devices() {
                    assert_eq!(matrix.device_total(DeviceId::new(d)), 16_384);
                }
            }
        }
        let rl = run_rl(&cfg);
        let pretraining = run_experiment(
            &cfg.experiment
                .clone()
                .with_iterations(cfg.rollouts_per_epoch, 0),
        );
        assert_eq!(rl.avg_step_time, pretraining.avg_iteration_time);
        assert_eq!(rl.tokens_per_second, pretraining.tokens_per_second);
    }

    /// The experiment's system, iteration counts and dependency
    /// recording do not reach an RL run: it trains LAER either way, and
    /// replay foresight still applies.
    #[test]
    fn rl_trains_laer_whatever_the_experiment_names() {
        for predictor in [PredictorKind::Ema, PredictorKind::Replay] {
            let cfg = quick().with_predictor(predictor);
            let mut other = cfg.clone();
            other.experiment = other
                .experiment
                .with_iterations(1, 7)
                .with_record_deps(true);
            other.experiment.system = SystemKind::VanillaEp;
            assert_eq!(run_rl(&cfg), run_rl(&other), "{predictor:?}");
        }
    }
}
