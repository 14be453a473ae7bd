//! The experiment drivers: every `run_experiment*` steps one fault-free
//! [`FaultRunner`] and aggregates what its steps return.

use crate::faults::{FaultRunner, TrainError};
use laer_baselines::{
    predicted_bottleneck_device, FasterMoeSystem, FlexMoeSystem, FsdpEpSystem, LaerSystem,
    LayerPlan, MegatronSystem, MoeSystem, SmartMoeSystem, SystemContext, SystemKind,
    VanillaEpSystem,
};
use laer_cluster::Topology;
use laer_fsep::ScheduleOptions;
use laer_model::{GpuSpec, ModelPreset};
use laer_obs::{
    critpath, journal, AuditRecord, BlameEntry, CritPathRecord, Histogram, Observer, WhatIf,
};
use laer_routing::{DatasetProfile, RoutingGenerator, RoutingGeneratorConfig, RoutingTrace};
use laer_sim::{Breakdown, FaultPlan, Timeline};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of one end-to-end experiment (one bar of Fig. 8, one
/// stack of Fig. 10a, ...).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Model architecture.
    pub preset: ModelPreset,
    /// System under test.
    pub system: SystemKind,
    /// Dataset skew profile.
    pub dataset: DatasetProfile,
    /// Auxiliary-loss weight (affects routing balance).
    pub aux_loss_weight: f64,
    /// Cluster nodes.
    pub nodes: usize,
    /// Devices per node.
    pub devices_per_node: usize,
    /// Measured iterations (after warmup).
    pub iterations: usize,
    /// Warmup iterations excluded from averages (the paper uses 20).
    pub warmup: usize,
    /// MoE layers simulated (defaults to the model's layer count; reduce
    /// for fast tests).
    pub layers: usize,
    /// Tokens per device per iteration `S` (the paper's 16 K operating
    /// point).
    pub tokens_per_device: u64,
    /// Sequence length (8 K in the end-to-end runs).
    pub seq_len: usize,
    /// Trace seed.
    pub seed: u64,
    /// Chunk count of the executor's chunked dispatch/combine pipeline
    /// (`0` and `1` both mean the whole-iteration schedule; `0` is the
    /// serde default so configs serialized before the knob existed keep
    /// their meaning).
    #[serde(default)]
    pub num_chunks: usize,
    /// Record the span dependency DAG for critical-path diagnosis
    /// ([`laer_sim::EngineOptions::record_deps`]). Off by default: the
    /// engine hot path and every pre-existing artifact are unchanged.
    /// When on, each measured iteration additionally journals a
    /// `critpath` event and [`run_experiment_diagnosed`] returns the
    /// aggregated [`TrainDiagnosis`].
    #[serde(default)]
    pub record_deps: bool,
}

impl ExperimentConfig {
    /// Creates the paper's default configuration: 4×8 cluster, 8 K
    /// context, 16 K tokens/device, wikitext profile, aux weight 0,
    /// 20 warmup + 50 measured iterations.
    pub fn new(preset: ModelPreset, system: SystemKind) -> Self {
        let layers = preset.config().layers();
        Self {
            preset,
            system,
            dataset: DatasetProfile::Wikitext,
            aux_loss_weight: 0.0,
            nodes: 4,
            devices_per_node: 8,
            iterations: 50,
            warmup: 20,
            layers,
            tokens_per_device: 16 * 1024,
            seq_len: 8192,
            seed: 0,
            num_chunks: 0,
            record_deps: false,
        }
    }

    /// Overrides measured and warmup iteration counts.
    pub fn with_iterations(mut self, iterations: usize, warmup: usize) -> Self {
        self.iterations = iterations;
        self.warmup = warmup;
        self
    }

    /// Overrides the simulated layer count.
    pub fn with_layers(mut self, layers: usize) -> Self {
        self.layers = layers;
        self
    }

    /// Overrides the dataset profile.
    pub fn with_dataset(mut self, dataset: DatasetProfile) -> Self {
        self.dataset = dataset;
        self
    }

    /// Overrides the auxiliary-loss weight.
    pub fn with_aux_loss(mut self, weight: f64) -> Self {
        self.aux_loss_weight = weight;
        self
    }

    /// Overrides the cluster shape.
    pub fn with_cluster(mut self, nodes: usize, devices_per_node: usize) -> Self {
        self.nodes = nodes;
        self.devices_per_node = devices_per_node;
        self
    }

    /// Overrides the trace seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the executor's pipeline chunk count (clamped to at
    /// least 1). The knob reaches both the schedule (per-chunk A2A and
    /// compute spans) and, for the LAER system, the planner's pipelined
    /// Eq. 1 pricing.
    pub fn with_num_chunks(mut self, num_chunks: usize) -> Self {
        self.num_chunks = num_chunks.max(1);
        self
    }

    /// Enables (or disables) span dependency recording for critical-path
    /// diagnosis.
    pub fn with_record_deps(mut self, record_deps: bool) -> Self {
        self.record_deps = record_deps;
        self
    }

    /// The cluster topology of this experiment.
    ///
    /// # Panics
    ///
    /// Panics if the configured cluster shape is empty.
    pub fn topology(&self) -> Topology {
        Topology::new(self.nodes, self.devices_per_node)
            .unwrap_or_else(|e| panic!("invalid cluster shape: {e}"))
    }

    /// The system context of this experiment.
    pub fn context(&self) -> SystemContext {
        self.context_on(self.topology())
    }

    /// This experiment's system context on `topo` instead of its own
    /// cluster (a racked topology, for one).
    pub fn context_on(&self, topo: Topology) -> SystemContext {
        SystemContext::new(
            topo,
            self.preset.config(),
            GpuSpec::a100(),
            self.tokens_per_device,
            self.seq_len,
        )
    }

    pub(crate) fn build_system(&self) -> Box<dyn MoeSystem> {
        let ctx = self.context();
        match self.system {
            // Chunked pipelining reaches LAER's planner pricing too; the
            // other systems only chunk their schedules.
            SystemKind::Laer if self.num_chunks > 0 => {
                Box::new(LaerSystem::new(ctx).with_num_chunks(self.num_chunks))
            }
            SystemKind::Laer => Box::new(LaerSystem::new(ctx)),
            SystemKind::Flex => Box::new(FlexMoeSystem::new(ctx, self.layers)),
            SystemKind::FsdpEp => Box::new(FsdpEpSystem::new(ctx)),
            SystemKind::Megatron => Box::new(MegatronSystem::new(ctx)),
            SystemKind::VanillaEp => Box::new(VanillaEpSystem::new(ctx)),
            SystemKind::SmartMoe => Box::new(SmartMoeSystem::new(ctx, self.layers, 100)),
            SystemKind::FasterMoe => Box::new(FasterMoeSystem::new(ctx, 1)),
        }
    }

    /// The routing-generator configuration behind layer `layer`'s
    /// synthetic trace. Public so other drivers can continue the same
    /// popularity process: the serving extension resumes this exact
    /// config mid-stream (via `RoutingGenerator::starting_at`) to model
    /// inference traffic whose expert-popularity drift picks up where a
    /// training run stopped.
    pub fn routing_config(&self, layer: usize) -> RoutingGeneratorConfig {
        let n = self.nodes * self.devices_per_node;
        let cfg = self.preset.config();
        let assignments = self.tokens_per_device * cfg.top_k() as u64;
        RoutingGeneratorConfig::new(n, cfg.experts(), assignments)
            .with_profile(self.dataset)
            .with_aux_loss(self.aux_loss_weight)
            // Distinct hot experts per layer (Sec. 7: "heavy experts
            // often differ from one layer to the next").
            .with_seed(self.seed.wrapping_add(1 + layer as u64))
    }

    pub(crate) fn layer_generators(&self) -> Vec<RoutingGenerator> {
        (0..self.layers)
            .map(|l| RoutingGenerator::new(self.routing_config(l)))
            .collect()
    }
}

/// Aggregated output of one experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// System name.
    pub system: String,
    /// Average measured iteration seconds.
    pub avg_iteration_time: f64,
    /// Global training throughput in tokens/second (the Fig. 8 metric).
    pub tokens_per_second: f64,
    /// Average per-device time breakdown (Figs. 1b / 10a).
    pub breakdown: Breakdown,
    /// Mean over iterations of the per-layer max-token/ideal ratio
    /// (Fig. 10b).
    pub avg_max_token_ratio: f64,
    /// Measured per-iteration times, seconds.
    pub iteration_times: Vec<f64>,
}

/// Aggregated critical-path diagnosis of one training run (requires
/// [`ExperimentConfig::record_deps`]): the Eq.-1-vs-critical-path
/// bottleneck agreement, blame seconds summed over measured iterations,
/// and the last iteration's what-if scenarios and path edges.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainDiagnosis {
    /// System under test.
    pub system: String,
    /// Measured iterations diagnosed.
    pub iterations: u64,
    /// Iterations where Eq. 1's predicted bottleneck device equals the
    /// critical-path device.
    pub agreements: u64,
    /// `agreements / iterations`.
    pub agreement_rate: f64,
    /// Mean unattributed seconds per iteration.
    pub mean_residual: f64,
    /// Blame seconds per `label × device × stream`, summed over
    /// measured iterations, sorted by descending seconds.
    pub blame: Vec<BlameEntry>,
    /// What-if scenarios replayed on the last measured iteration's DAG.
    pub what_ifs: Vec<WhatIf>,
    /// The last measured iteration's critical-path edges (`(src, dst)`
    /// span-index pairs), for the flow-event Chrome export.
    pub critical_edges: Vec<(usize, usize)>,
}

/// Runs one experiment end to end with synthetic per-layer traces.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero layers/iterations).
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    drive(cfg, cfg.build_system(), None, None).0
}

/// [`run_experiment`] for a prebuilt `system` on its context's cluster:
/// the Fig. 12 ablation variants and racked topologies, which
/// [`SystemKind`] and the node × device shape cannot name. The layers,
/// routing generators, chunk count, dependency recording and token
/// count still come from `cfg`.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero layers/iterations),
/// or its device count, expert count or tokens per device disagree with
/// the system's context.
pub fn run_experiment_with(cfg: &ExperimentConfig, system: Box<dyn MoeSystem>) -> ExperimentResult {
    drive(cfg, system, None, None).0
}

/// [`run_experiment`] plus a telemetry sink: every measured iteration
/// appends an `iteration` journal event (step time, per-stream
/// utilization, exposed-vs-overlapped communication, routing imbalance),
/// every layer decision joins the system's planning-time belief with the
/// simulated actuals into the decision audit, and headline numbers land
/// in the metrics registry. Returns the result together with the last
/// measured iteration's [`Timeline`] so callers can render a Chrome
/// trace with counter tracks.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero layers/iterations).
pub fn run_experiment_observed(
    cfg: &ExperimentConfig,
    obs: &mut Observer,
) -> (ExperimentResult, Timeline) {
    let (result, timeline, _) = drive(cfg, cfg.build_system(), None, Some(obs));
    (
        result,
        timeline.unwrap_or_else(|| unreachable!("observed runs capture a timeline")),
    )
}

/// [`run_experiment_observed`] plus the critical-path diagnosis layer:
/// the engine records the span dependency DAG, every measured iteration
/// journals a `critpath` event (blame headline, Eq.-1-vs-actual
/// bottleneck agreement), and the aggregated [`TrainDiagnosis`] is
/// returned alongside the result and last timeline.
///
/// # Panics
///
/// Panics if `cfg.record_deps` is off or the configuration is
/// degenerate (zero layers/iterations).
pub fn run_experiment_diagnosed(
    cfg: &ExperimentConfig,
    obs: &mut Observer,
) -> (ExperimentResult, Timeline, TrainDiagnosis) {
    assert!(
        cfg.record_deps,
        "run_experiment_diagnosed requires cfg.record_deps"
    );
    let (result, timeline, diagnosis) = drive(cfg, cfg.build_system(), None, Some(obs));
    (
        result,
        timeline.unwrap_or_else(|| unreachable!("observed runs capture a timeline")),
        diagnosis.unwrap_or_else(|| unreachable!("record_deps runs produce a diagnosis")),
    )
}

/// Runs one experiment by *replaying* a recorded routing trace: every
/// layer of iteration `i` consumes the trace's matrix `i` (Appendix D's
/// trace-driven methodology). Iterations beyond the trace wrap around.
///
/// # Errors
///
/// [`TrainError::Trace`] if the trace is empty or a matrix's device or
/// expert count disagrees with the configuration's cluster and model.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero layers/iterations).
pub fn run_experiment_on_trace(
    cfg: &ExperimentConfig,
    trace: &RoutingTrace,
) -> Result<ExperimentResult, TrainError> {
    if trace.is_empty() {
        return Err(TrainError::Trace("the trace has no iterations".into()));
    }
    let devices = cfg.nodes * cfg.devices_per_node;
    let experts = cfg.preset.config().experts();
    for (i, m) in trace.iter().enumerate() {
        if (m.num_devices(), m.num_experts()) != (devices, experts) {
            return Err(TrainError::Trace(format!(
                "iteration {i} routes {} devices x {} experts, the experiment has {devices} x {experts}",
                m.num_devices(),
                m.num_experts()
            )));
        }
    }
    Ok(drive(cfg, cfg.build_system(), Some(trace), None).0)
}

/// Joins one layer decision's planning-time belief with what the
/// executor was actually charged into the decision audit, and counts the
/// decision by trigger. The layer's four A2A passes are the dispatch +
/// combine stragglers twice (forward and backward); expert compute is
/// the forward straggler times the schedule's roundtrip factor. Returns
/// the row's |relative error|.
pub(crate) fn audit_decision(
    obs: &mut Observer,
    system: &str,
    iteration: u64,
    layer: usize,
    plan: &LayerPlan,
    imbalance: f64,
    opts: ScheduleOptions,
) -> f64 {
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let record = AuditRecord {
        system: system.to_string(),
        iteration,
        layer,
        trigger: plan.audit.trigger.clone(),
        predicted_comm: plan.audit.predicted_comm,
        predicted_comp: plan.audit.predicted_comp,
        actual_comm: 2.0 * max(&plan.timings.dispatch) + 2.0 * max(&plan.timings.combine),
        actual_comp: opts.expert_roundtrip_factor() * max(&plan.timings.expert_forward),
        actual_imbalance: imbalance,
    };
    let error = record.rel_error().abs();
    obs.registry.inc(
        "laer_plan_decisions_total",
        &[("system", system), ("trigger", &plan.audit.trigger)],
        1,
    );
    obs.audit.push(record);
    error
}

/// Blame accumulator keyed by `(label, device, stream)`, merged across
/// iterations and re-sorted like [`laer_obs::CritPathReport::blame`].
fn merge_blame(acc: &mut BTreeMap<(String, usize, String), f64>, blame: &[BlameEntry]) {
    for b in blame {
        *acc.entry((b.label.clone(), b.device, b.stream.clone()))
            .or_insert(0.0) += b.seconds;
    }
}

fn sorted_blame(acc: BTreeMap<(String, usize, String), f64>) -> Vec<BlameEntry> {
    let mut blame: Vec<BlameEntry> = acc
        .into_iter()
        .map(|((label, device, stream), seconds)| BlameEntry {
            label,
            device,
            stream,
            seconds,
        })
        .collect();
    blame.sort_by(|a, b| {
        b.seconds
            .total_cmp(&a.seconds)
            .then_with(|| a.label.cmp(&b.label))
            .then_with(|| a.device.cmp(&b.device))
            .then_with(|| a.stream.cmp(&b.stream))
    });
    blame
}

/// Registry families the observed runner populates (documented on
/// [`run_experiment_observed`]'s export side in `DESIGN.md` §8).
fn declare_train_metrics(obs: &mut Observer) {
    obs.registry.declare_counter(
        "laer_train_iterations_total",
        "measured iterations executed",
    );
    obs.registry.declare_counter(
        "laer_plan_decisions_total",
        "layer (re-)layout decisions by trigger",
    );
    obs.registry.declare_histogram(
        "laer_train_step_seconds",
        "simulated iteration time",
        Histogram::exponential(5e-3, 2.0, 12),
    );
    obs.registry.declare_gauge(
        "laer_train_avg_step_seconds",
        "average measured iteration time",
    );
    obs.registry
        .declare_gauge("laer_train_tokens_per_second", "global training throughput");
    obs.registry.declare_gauge(
        "laer_plan_mean_abs_rel_error",
        "mean |predicted-actual|/actual of the Eq. 1 decision audit",
    );
}

/// The driver behind every `run_experiment*`: steps a fault-free
/// [`FaultRunner`] around `system` through `cfg.warmup + cfg.iterations`
/// iterations, on the configuration's routing generators or, with
/// `trace`, on the trace's matrix `i % len` for every layer of iteration
/// `i`. Aggregates the measured iterations and, with `obs`, audits every
/// decision and journals (and, with `cfg.record_deps`, diagnoses) every
/// measured iteration.
fn drive(
    cfg: &ExperimentConfig,
    system: Box<dyn MoeSystem>,
    trace: Option<&RoutingTrace>,
    mut obs: Option<&mut Observer>,
) -> (ExperimentResult, Option<Timeline>, Option<TrainDiagnosis>) {
    assert!(cfg.iterations > 0, "at least one measured iteration");
    let name = system.name();
    let n = system.context().topology().num_devices();
    let mut runner = FaultRunner::with_system(cfg.clone(), FaultPlan::new(), system);
    let opts = runner.schedule_options();
    if let Some(o) = obs.as_deref_mut() {
        declare_train_metrics(o);
        if cfg.record_deps {
            o.registry.declare_gauge(
                "laer_critpath_agreement_rate",
                "fraction of iterations where Eq. 1's bottleneck device matches the critical path",
            );
        }
    }

    let mut iteration_times = Vec::with_capacity(cfg.iterations);
    let mut breakdown_acc = Breakdown::default();
    let mut ratio_acc = 0.0f64;
    let mut last_timeline = None;
    let mut diag_agreements = 0u64;
    let mut diag_iterations = 0u64;
    let mut diag_residual = 0.0f64;
    let mut diag_blame: BTreeMap<(String, usize, String), f64> = BTreeMap::new();
    let mut diag_what_ifs: Vec<WhatIf> = Vec::new();
    let mut diag_edges: Vec<(usize, usize)> = Vec::new();

    let total_iters = cfg.warmup + cfg.iterations;
    for iter in 0..total_iters {
        let demand = match trace {
            Some(t) => {
                let matrix = t
                    .get(iter % t.len())
                    .unwrap_or_else(|| unreachable!("wrapped index in range"));
                vec![matrix.clone(); cfg.layers]
            }
            None => runner.next_demand(),
        };
        let step = runner
            .step(demand)
            .unwrap_or_else(|e| unreachable!("a fault-free step cannot fail: {e}"));
        let measured = iter >= cfg.warmup;
        let mut iter_ratio = 0.0f64;
        let mut iter_loads: Vec<Vec<u64>> = Vec::new();
        for (l, plan) in step.plans.iter().enumerate() {
            let ratio = plan.max_token_ratio();
            iter_ratio += ratio;
            if measured {
                ratio_acc += ratio;
                if cfg.record_deps {
                    iter_loads.push(plan.audit.predicted_loads.clone());
                }
            }
            if let Some(o) = obs.as_deref_mut() {
                audit_decision(o, name, iter as u64, l, plan, ratio, opts);
            }
        }
        if !measured {
            continue;
        }
        let t = step.report.time;
        let timeline = step.engine.timeline();
        iteration_times.push(t);
        breakdown_acc.accumulate(&timeline.breakdown(n));
        let Some(o) = obs.as_deref_mut() else {
            continue;
        };
        let record = journal::iteration_record(
            name,
            iter as u64,
            t,
            iter_ratio / cfg.layers as f64,
            timeline,
            n,
            opts.effective_chunks(),
        );
        o.journal.push("iteration", &record);
        o.registry
            .inc("laer_train_iterations_total", &[("system", name)], 1);
        o.registry
            .observe("laer_train_step_seconds", &[("system", name)], t);
        if cfg.record_deps {
            let report = critpath::critical_path(timeline)
                .unwrap_or_else(|| unreachable!("recording engine has a dep log"));
            let critical_device = report.critical_device().unwrap_or(0);
            let predicted_device = predicted_bottleneck_device(&iter_loads).unwrap_or(0);
            let agree = critical_device == predicted_device;
            o.journal.push(
                "critpath",
                &CritPathRecord {
                    system: name.to_string(),
                    iteration: iter as u64,
                    makespan: report.makespan,
                    residual: report.residual,
                    critical_device,
                    predicted_device,
                    agree,
                    top_blame: report.top_blame(3).to_vec(),
                },
            );
            diag_iterations += 1;
            diag_agreements += u64::from(agree);
            diag_residual += report.residual;
            merge_blame(&mut diag_blame, &report.blame);
            if iter + 1 == total_iters {
                diag_edges = report.edges();
                diag_what_ifs = critpath::standard_what_ifs(timeline)
                    .unwrap_or_else(|| unreachable!("recording engine has a dep log"));
            }
        }
        if iter + 1 == total_iters {
            last_timeline = Some(step.engine.into_timeline());
        }
    }

    let avg_iteration_time = iteration_times.iter().sum::<f64>() / iteration_times.len() as f64;
    let global_tokens = n as u64 * cfg.tokens_per_device;
    let diagnosis = (cfg.record_deps && diag_iterations > 0).then(|| TrainDiagnosis {
        system: name.to_string(),
        iterations: diag_iterations,
        agreements: diag_agreements,
        agreement_rate: diag_agreements as f64 / diag_iterations as f64,
        mean_residual: diag_residual / diag_iterations as f64,
        blame: sorted_blame(diag_blame),
        what_ifs: diag_what_ifs,
        critical_edges: diag_edges,
    });
    if let Some(o) = obs {
        o.registry.set(
            "laer_train_avg_step_seconds",
            &[("system", name)],
            avg_iteration_time,
        );
        o.registry.set(
            "laer_train_tokens_per_second",
            &[("system", name)],
            global_tokens as f64 / avg_iteration_time,
        );
        if let Some(summary) = o.audit.summary(name) {
            o.registry.set(
                "laer_plan_mean_abs_rel_error",
                &[("system", name)],
                summary.mean_abs_rel_error,
            );
        }
        if let Some(d) = &diagnosis {
            o.registry.set(
                "laer_critpath_agreement_rate",
                &[("system", name)],
                d.agreement_rate,
            );
        }
    }
    let result = ExperimentResult {
        system: name.to_string(),
        avg_iteration_time,
        tokens_per_second: global_tokens as f64 / avg_iteration_time,
        breakdown: breakdown_acc.scale(1.0 / cfg.iterations as f64),
        avg_max_token_ratio: ratio_acc / (cfg.iterations * cfg.layers) as f64,
        iteration_times,
    };
    (result, last_timeline, diagnosis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(system: SystemKind) -> ExperimentConfig {
        ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, system)
            .with_iterations(6, 2)
            .with_layers(4)
            .with_seed(3)
    }

    #[test]
    fn experiment_produces_sane_numbers() {
        let r = run_experiment(&quick(SystemKind::FsdpEp));
        assert!(r.avg_iteration_time > 0.0);
        assert!(r.tokens_per_second > 0.0);
        assert_eq!(r.iteration_times.len(), 6);
        assert!(r.avg_max_token_ratio >= 1.0);
        assert!(r.breakdown.expert_compute > 0.0);
    }

    /// The headline end-to-end ordering on a skewed trace: LAER faster
    /// than FSDP+EP, which resembles FlexMoE-or-better vs the static
    /// baselines.
    #[test]
    fn laer_outperforms_static_baseline() {
        let laer = run_experiment(&quick(SystemKind::Laer));
        let fsdp = run_experiment(&quick(SystemKind::FsdpEp));
        assert!(
            laer.tokens_per_second > fsdp.tokens_per_second,
            "LAER {} <= FSDP+EP {}",
            laer.tokens_per_second,
            fsdp.tokens_per_second
        );
        assert!(laer.avg_max_token_ratio < fsdp.avg_max_token_ratio);
    }

    /// Fig. 1(b): with imbalanced routing the A2A share of the
    /// unoptimized EP baseline is large; enforcing balanced routing
    /// (high aux weight) collapses it.
    #[test]
    fn a2a_share_tracks_imbalance() {
        let skew = run_experiment(&quick(SystemKind::VanillaEp));
        let balanced = run_experiment(&quick(SystemKind::VanillaEp).with_aux_loss(1.0));
        assert!(
            skew.breakdown.a2a_fraction() > balanced.breakdown.a2a_fraction() * 1.5,
            "skewed {:.3} vs balanced {:.3}",
            skew.breakdown.a2a_fraction(),
            balanced.breakdown.a2a_fraction()
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run_experiment(&quick(SystemKind::Laer));
        let b = run_experiment(&quick(SystemKind::Laer));
        assert_eq!(a.iteration_times, b.iteration_times);
    }

    /// The pipeline knob: one chunk is bit-identical to the default
    /// (whole-iteration) run, and chunking never slows an iteration.
    #[test]
    fn chunked_run_matches_then_beats_whole_iteration() {
        for system in [SystemKind::VanillaEp, SystemKind::Laer] {
            let whole = run_experiment(&quick(system));
            let one = run_experiment(&quick(system).with_num_chunks(1));
            assert_eq!(
                whole.iteration_times, one.iteration_times,
                "{system:?}: one chunk must reproduce the whole-iteration schedule"
            );
            let chunked = run_experiment(&quick(system).with_num_chunks(4));
            assert!(
                chunked.avg_iteration_time <= whole.avg_iteration_time + 1e-12,
                "{system:?}: chunking must not slow the step: {} vs {}",
                chunked.avg_iteration_time,
                whole.avg_iteration_time
            );
        }
        // On the skewed static-EP baseline the A2A is material, so
        // 4-way chunking must strictly help.
        let whole = run_experiment(&quick(SystemKind::VanillaEp));
        let chunked = run_experiment(&quick(SystemKind::VanillaEp).with_num_chunks(4));
        assert!(
            chunked.avg_iteration_time < whole.avg_iteration_time,
            "chunking should shorten the skewed EP step: {} vs {}",
            chunked.avg_iteration_time,
            whole.avg_iteration_time
        );
    }

    /// The diagnosis layer: recording the DAG does not change any
    /// simulated time, the critpath journal events appear once per
    /// measured iteration, and the diagnosis aggregates cover the run.
    #[test]
    fn diagnosed_run_matches_and_reports() {
        let plain = run_experiment(&quick(SystemKind::Laer));
        let mut obs = Observer::new();
        let cfg = quick(SystemKind::Laer).with_record_deps(true);
        let (diagnosed, timeline, diag) = run_experiment_diagnosed(&cfg, &mut obs);
        assert_eq!(
            plain.iteration_times, diagnosed.iteration_times,
            "recording must not perturb the schedule"
        );
        assert!(
            timeline.dep_log().is_some(),
            "last timeline carries the DAG"
        );
        assert_eq!(diag.iterations, cfg.iterations as u64);
        assert!(diag.agreement_rate >= 0.0 && diag.agreement_rate <= 1.0);
        assert!(!diag.blame.is_empty());
        assert_eq!(diag.what_ifs.len(), 4);
        assert!(!diag.critical_edges.is_empty());
        // Blame is sorted descending.
        for w in diag.blame.windows(2) {
            assert!(w[0].seconds >= w[1].seconds);
        }
        let critpath_events = obs
            .journal
            .to_jsonl()
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"critpath\""))
            .count();
        assert_eq!(critpath_events, cfg.iterations);
        // Off by default: the observed runner journals no critpath events.
        let mut plain_obs = Observer::new();
        let (_, t) = run_experiment_observed(&quick(SystemKind::Laer), &mut plain_obs);
        assert!(t.dep_log().is_none());
        assert!(!plain_obs.journal.to_jsonl().contains("\"critpath\""));
    }

    /// Trace replay: running on a recorded trace is valid and, with a
    /// stateless system and a single layer, reproduces the same kind of
    /// numbers as a live generator of the same seed.
    #[test]
    fn trace_replay_runs_and_wraps() {
        use laer_routing::{RoutingGeneratorConfig, RoutingTrace};
        let cfg = quick(SystemKind::FsdpEp).with_layers(1);
        let model = cfg.preset.config();
        let trace = RoutingTrace::record(
            RoutingGeneratorConfig::new(
                32,
                model.experts(),
                cfg.tokens_per_device * model.top_k() as u64,
            )
            .with_seed(3),
            4, // shorter than warmup+iterations: exercises wrap-around
        );
        let r = run_experiment_on_trace(&cfg, &trace).unwrap();
        assert!(r.tokens_per_second > 0.0);
        assert_eq!(r.iteration_times.len(), cfg.iterations);
    }

    /// A prebuilt system whose context disagrees with the configuration
    /// is refused before the run starts.
    #[test]
    #[should_panic(expected = "does not fit the system's context")]
    fn prebuilt_system_on_another_cluster_is_refused() {
        let cfg = quick(SystemKind::Laer);
        run_experiment_with(&cfg, cfg.clone().with_cluster(2, 8).build_system());
    }

    /// A trace that does not fit the experiment is a typed error, not a
    /// panic: an empty trace, a device-count and an expert-count
    /// mismatch.
    #[test]
    fn trace_shape_mismatch_is_an_error() {
        use laer_routing::{RoutingGeneratorConfig, RoutingTrace, TraceMeta};
        let cfg = quick(SystemKind::FsdpEp);
        let empty = RoutingTrace::new(TraceMeta {
            description: String::new(),
            seed: None,
        });
        let devices = RoutingTrace::record(RoutingGeneratorConfig::new(8, 8, 64).with_seed(1), 2);
        let experts = RoutingTrace::record(RoutingGeneratorConfig::new(32, 16, 64).with_seed(1), 2);
        for trace in [empty, devices, experts] {
            let err = run_experiment_on_trace(&cfg, &trace).unwrap_err();
            assert!(matches!(err, TrainError::Trace(_)), "{err}");
        }
    }
}
