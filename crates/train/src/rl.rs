//! RL post-training workload with routing-replay foresight.
//!
//! RL post-training alternates **rollout** phases (generation over a
//! batch of prompts) with **train** phases that re-visit exactly those
//! prompts — so the routing demand of a train phase is *replayable*
//! from traces recorded during rollout (ReLibra, "Harnessing Routing
//! Foresight"). This driver runs that loop against the LAER system:
//!
//! * each epoch's rollout phase records one [`RoutingTrace`] per MoE
//!   layer from the live popularity process (which keeps drifting
//!   across epochs as the policy updates);
//! * the train phase replays the recorded demands, with the layout
//!   tuner driven either by the paper's stale EMA
//!   ([`PredictorKind::Ema`]) or by the recorded trace itself
//!   ([`PredictorKind::Replay`] via
//!   [`laer_baselines::LaerSystem::install_replay`]);
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

use crate::runner::ExperimentConfig;
use laer_baselines::{MoeSystem, SystemContext, SystemKind};
use laer_fsep::{schedule_iteration, LayerTimings};
use laer_model::ModelPreset;
use laer_obs::{journal, AuditRecord, Observer, RlEpochRecord};
use laer_planner::{relocation_moves, ExpertLayout, PredictorKind};
use laer_routing::{DatasetProfile, RoutingMatrix, RoutingTrace, TraceMeta};
use laer_sim::{Engine, Timeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of one RL post-training run (LAER system only — the
/// predictor seam under test lives in its layout tuner).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RlConfig {
    /// Model architecture.
    pub preset: ModelPreset,
    /// Dataset skew profile of the prompt distribution.
    pub dataset: DatasetProfile,
    /// Auxiliary-loss weight (affects routing balance).
    pub aux_loss_weight: f64,
    /// Cluster nodes.
    pub nodes: usize,
    /// Devices per node.
    pub devices_per_node: usize,
    /// MoE layers simulated.
    pub layers: usize,
    /// Tokens per device per iteration `S`.
    pub tokens_per_device: u64,
    /// Sequence length.
    pub seq_len: usize,
    /// Seed of the demand process, the shuffle and the noise streams.
    pub seed: u64,
    /// Executor pipeline chunk count (0/1 = whole-iteration schedule).
    #[serde(default)]
    pub num_chunks: usize,
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
    /// Defaults: 4×8 cluster, wikitext prompts, 3 epochs × 10 rollouts,
    /// in-order replay, no extra drift, EMA predictor.
    pub fn new(preset: ModelPreset) -> Self {
        let layers = preset.config().layers();
        Self {
            preset,
            dataset: DatasetProfile::Wikitext,
            aux_loss_weight: 0.0,
            nodes: 4,
            devices_per_node: 8,
            layers,
            tokens_per_device: 16 * 1024,
            seq_len: 8192,
            seed: 0,
            num_chunks: 0,
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
        self.layers = layers;
        self
    }

    /// Overrides the cluster shape.
    pub fn with_cluster(mut self, nodes: usize, devices_per_node: usize) -> Self {
        self.nodes = nodes;
        self.devices_per_node = devices_per_node;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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

    /// The equivalent training-runner configuration (topology, context
    /// and per-layer demand process are shared with the pre-training
    /// driver so RL numbers are comparable).
    fn base(&self) -> ExperimentConfig {
        let mut base = ExperimentConfig::new(self.preset, SystemKind::Laer)
            .with_dataset(self.dataset)
            .with_aux_loss(self.aux_loss_weight)
            .with_cluster(self.nodes, self.devices_per_node)
            .with_layers(self.layers)
            .with_seed(self.seed)
            .with_iterations(self.epochs * self.rollouts_per_epoch, 0);
        base.num_chunks = self.num_chunks;
        base
    }

    fn context(&self) -> SystemContext {
        let mut base = self.base();
        base.tokens_per_device = self.tokens_per_device;
        base.seq_len = self.seq_len;
        base.context()
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
    assert!(cfg.layers > 0, "at least one layer");
    assert!(cfg.epochs > 0, "at least one epoch");
    assert!(cfg.rollouts_per_epoch > 0, "at least one rollout");
    assert!((0.0..=1.0).contains(&cfg.drift), "drift must be in [0, 1]");
    let base = cfg.base();
    let topo = base.topology();
    let n = topo.num_devices();
    let label = cfg.system_label();
    let mut system = base.laer_system(cfg.context());
    let opts = base.schedule_options(&system);
    declare_rl_metrics(obs);

    let mut gens = base.layer_generators();
    let rollouts = cfg.rollouts_per_epoch;
    let mut prev_layouts: Vec<Option<ExpertLayout>> = vec![None; cfg.layers];
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut all_step_time = 0.0f64;
    let mut all_err = 0.0f64;
    let mut all_decisions = 0usize;
    let mut all_moves = 0u64;
    let mut ratio_acc = 0.0f64;
    let mut last_timeline: Option<Timeline> = None;

    for epoch in 0..cfg.epochs {
        // --- Rollout phase: generate this epoch's prompts and record
        // their routing, one trace per layer. ---
        let recorded: Vec<RoutingTrace> = (0..cfg.layers)
            .map(|l| {
                let mut t = RoutingTrace::new(TraceMeta {
                    description: format!("rl rollout epoch {epoch} layer {l}"),
                    seed: Some(cfg.seed),
                });
                t.record_from(&mut gens[l], rollouts);
                t
            })
            .collect();
        // The train dataloader's visit order over the rollout buffer;
        // prompt-keyed, so the replayed traces permute with it.
        let order: Vec<usize> = if cfg.replay_shuffle {
            permutation(rollouts, cfg.seed ^ (epoch as u64).wrapping_mul(0x9E37))
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
            system.install_replay(
                exec.clone(),
                cfg.replay_noise,
                cfg.seed.wrapping_add(epoch as u64),
            );
        }

        // --- Train phase: replay the recorded prompts. ---
        let mut epoch_time = 0.0f64;
        let mut epoch_err = 0.0f64;
        let mut epoch_decisions = 0usize;
        let mut epoch_moves = 0u64;
        for t in 0..rollouts {
            let iter = (epoch * rollouts + t) as u64;
            let mut iter_ratio = 0.0f64;
            let mut layer_timings: Vec<LayerTimings> = Vec::with_capacity(cfg.layers);
            for (l, trace) in exec.iter().enumerate() {
                let demand: &RoutingMatrix = trace
                    .get(t)
                    .unwrap_or_else(|| unreachable!("recorded above"));
                let plan = system.plan_layer(l, iter, demand);
                let ratio = plan.max_token_ratio();
                iter_ratio += ratio;
                ratio_acc += ratio;
                if let Some(prev) = &prev_layouts[l] {
                    epoch_moves += relocation_moves(&topo, prev, &plan.layout).len() as u64;
                }
                prev_layouts[l] = Some(plan.layout.clone());
                let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
                let record = AuditRecord {
                    system: label.clone(),
                    iteration: iter,
                    layer: l,
                    trigger: plan.audit.trigger.clone(),
                    predicted_comm: plan.audit.predicted_comm,
                    predicted_comp: plan.audit.predicted_comp,
                    actual_comm: 2.0 * max(&plan.timings.dispatch)
                        + 2.0 * max(&plan.timings.combine),
                    actual_comp: opts.expert_roundtrip_factor() * max(&plan.timings.expert_forward),
                    actual_imbalance: ratio,
                };
                epoch_err += record.rel_error().abs();
                epoch_decisions += 1;
                obs.registry.inc(
                    "laer_plan_decisions_total",
                    &[("system", label.as_str()), ("trigger", &plan.audit.trigger)],
                    1,
                );
                obs.audit.push(record);
                layer_timings.push(plan.timings);
            }
            let mut engine = Engine::new(&topo);
            let sched = schedule_iteration(&mut engine, &topo, &layer_timings, opts);
            epoch_time += sched.total;
            let record = journal::iteration_record(
                &label,
                iter,
                sched.total,
                iter_ratio / cfg.layers as f64,
                engine.timeline(),
                n,
                opts.effective_chunks(),
            );
            obs.journal.push("iteration", &record);
            obs.registry
                .inc("laer_rl_train_iterations_total", &[("system", &label)], 1);
            if epoch + 1 == cfg.epochs && t + 1 == rollouts {
                last_timeline = Some(engine.timeline().clone());
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
            for gen in &mut gens {
                for _ in 0..skip {
                    let _ = gen.next_iteration();
                }
            }
        }
    }

    let iters = (cfg.epochs * rollouts) as f64;
    let avg_step_time = all_step_time / iters;
    let global_tokens = n as u64 * cfg.tokens_per_device;
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
        avg_max_token_ratio: ratio_acc / (iters * cfg.layers as f64),
    };
    (
        result,
        last_timeline.unwrap_or_else(|| unreachable!("at least one iteration ran")),
    )
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
}
