//! The continuous-batching serving loop on the deterministic simulator.
//!
//! Each scheduler step forms a batch from two phases — prefills popped
//! from a bounded admission queue (token-budgeted) and one decode token
//! for every running request — then walks the step through the sim's
//! per-device streams: attention on S1, dispatch All-to-All on S3,
//! expert compute on S1, combine All-to-All on S3, and a fixed host-side
//! overhead closing the step. When the active [`ServingSystem`] adopts a
//! new expert layout, the weight movement is priced through
//! `sim::collective` and enqueued as [`SpanLabel::Relayout`] spans on
//! the prefetch stream. The transfer overlaps serving — the scheduler
//! keeps routing against the *stale* layout until the transfer's
//! simulated finish time has passed — so re-layout is charged, never
//! assumed free: the spans occupy the prefetch stream, consecutive
//! moves serialise on it, and the old (worse) placement stays live for
//! the whole copy.

use std::collections::{BTreeSet, VecDeque};

use laer_cluster::{DegradedView, DeviceId, Interconnect, Topology};
use laer_model::{CostModel, GpuSpec, ModelPreset, BF16_BYTES};
use laer_obs::{
    Histogram, HistogramSnapshot, Observer, ResilienceRecord, ServeStepRecord, ServingRecord,
};
use laer_planner::{lite_route, relocation_moves, CapacityResponse, ExpertLayout, RelocationMove};
use laer_sim::{
    all_to_all_time, record_timed_fault_spans, token_a2a_times, A2aMatrix, ActiveFaults, Engine,
    FaultPlan, Span, SpanHandle, SpanLabel, StreamKind, Timeline,
};
use laer_train::ExperimentConfig;
use serde::{Deserialize, Serialize};

use crate::resilience::{
    RecoveryEvent, RetryBuffer, RetryEntry, ServiceRate, ShedBreakdown, DEFAULT_MAX_RETRIES,
    DEFAULT_RETRY_BACKOFF, SERVE_DETECTION_DELAY, SERVE_FAILOVER_TIMEOUT, SERVE_RELOAD_TIME,
};
use crate::sla::{LatencySummary, SlaConfig};
use crate::systems::ServingSystemKind;
use crate::workload::{generate_requests, Request, TopicMix, WorkloadConfig};

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Model preset being served.
    pub preset: ModelPreset,
    /// Expert-placement policy under test.
    pub system: ServingSystemKind,
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Devices per node.
    pub devices_per_node: usize,
    /// Request workload and topic mix.
    pub workload: WorkloadConfig,
    /// The SLO defining goodput.
    pub sla: SlaConfig,
    /// Admission-queue bound; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Prefill token budget per step (continuous batching's chunk size).
    pub max_prefill_tokens: u64,
    /// Steps between re-layout decisions.
    pub relayout_period: u64,
    /// Recent steps whose served statistics feed each decision.
    pub stats_window: usize,
    /// Host-side per-step overhead in seconds (kernel launches, sampling).
    pub step_overhead: f64,
    /// Context length used to price attention per token.
    pub attention_context: usize,
    /// Hard cap on scheduler steps (safety valve; requests still pending
    /// when it trips are counted as rejected).
    pub max_steps: u64,
    /// Optional chaos schedule: time-stamped faults injected into the
    /// run. `None` (the default) serves fault-free and byte-identically
    /// to a plan-less build.
    pub faults: Option<FaultPlan>,
    /// Cap on per-request retries after failure interruptions; beyond it
    /// the request is shed as `retry_exhausted`.
    pub max_retries: u32,
    /// Base of the exponential retry backoff in virtual seconds.
    pub retry_backoff: f64,
    /// SLO-aware brownout: while capacity is degraded, shed arrivals
    /// whose estimated queueing wait exceeds this fraction of the TTFT
    /// budget. `None` disables brownout.
    pub brownout_ttft_margin: Option<f64>,
}

impl ServeConfig {
    /// A 2×8-device Mixtral serving setup with default workload and SLO.
    pub fn new(system: ServingSystemKind) -> Self {
        Self {
            preset: ModelPreset::Mixtral8x7bE8k2,
            system,
            nodes: 2,
            devices_per_node: 8,
            workload: WorkloadConfig::default(),
            sla: SlaConfig::default(),
            queue_capacity: 64,
            max_prefill_tokens: 4096,
            relayout_period: 8,
            stats_window: 8,
            step_overhead: 1.0e-3,
            attention_context: 512,
            max_steps: 200_000,
            faults: None,
            max_retries: DEFAULT_MAX_RETRIES,
            retry_backoff: DEFAULT_RETRY_BACKOFF,
            brownout_ttft_margin: Some(0.8),
        }
    }

    /// Serving continued from a training run: same cluster shape, same
    /// model, and — crucially — the *same popularity process*, resumed
    /// at `trained_iters` (the layer-0 routing stream the run trained
    /// on, fast-forwarded past the trained prefix).
    pub fn from_training(
        exp: &ExperimentConfig,
        system: ServingSystemKind,
        trained_iters: u64,
    ) -> Self {
        let mut cfg = Self::new(system);
        cfg.preset = exp.preset;
        cfg.nodes = exp.nodes;
        cfg.devices_per_node = exp.devices_per_node;
        cfg.workload.mix = Some(exp.routing_config(0));
        cfg.workload.start_iteration = trained_iters;
        cfg
    }

    /// The cluster topology implied by the shape fields.
    ///
    /// # Panics
    ///
    /// Panics if the shape is invalid (zero nodes or devices).
    pub fn topology(&self) -> Topology {
        match Topology::new(self.nodes, self.devices_per_node) {
            Ok(t) => t,
            Err(e) => panic!("serving topology: {e}"),
        }
    }

    /// Sets the workload (builder style).
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadConfig) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the SLO (builder style).
    #[must_use]
    pub fn with_sla(mut self, sla: SlaConfig) -> Self {
        self.sla = sla;
        self
    }
}

/// Summary of one serving run (the JSON row of `repro -- ext-serve`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Serving system identifier.
    pub system: String,
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Requests in the workload.
    pub requests: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected at admission (or still pending at `max_steps`).
    pub rejected: usize,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Virtual seconds from start to last completion.
    pub duration: f64,
    /// Output tokens generated per virtual second.
    pub throughput_tps: f64,
    /// Time-to-first-token statistics over admitted requests.
    pub ttft: LatencySummary,
    /// Time-per-output-token statistics over multi-token completions.
    pub tpot: LatencySummary,
    /// Fraction of *all* requests (rejections included) meeting the SLO.
    pub slo_attainment: f64,
    /// SLO-meeting completions per virtual second.
    pub goodput_rps: f64,
    /// Re-layouts applied.
    pub relayouts: u64,
    /// Expert-weight bytes moved by re-layouts.
    pub relocation_bytes: f64,
    /// Virtual seconds of charged relocation traffic (sum over events of
    /// the slowest participant).
    pub relocation_time: f64,
    /// Shed requests broken out by cause; `rejected` is its total.
    #[serde(default)]
    pub shed: ShedBreakdown,
    /// Retry re-enqueues after failure interruptions.
    #[serde(default)]
    pub retries: u64,
    /// In-flight requests interrupted by device failures.
    #[serde(default)]
    pub interrupted: u64,
    /// Device failures detected.
    #[serde(default)]
    pub failures: u64,
    /// Failed devices that rejoined after their fault window closed.
    #[serde(default)]
    pub rejoins: u64,
    /// Completed recovery episodes (drain-replan or restart).
    #[serde(default)]
    pub recoveries: u64,
    /// Total virtual seconds from failure detection to serving resuming,
    /// summed over recovery episodes (time-to-recover).
    #[serde(default)]
    pub recovery_time: f64,
}

/// Full result of a serving run: the report plus the raw material the
/// tests and the benchmark need (per-request samples, layout history,
/// the span timeline for Chrome-trace export).
#[derive(Debug, Clone)]
pub struct ServingOutcome {
    /// Aggregated metrics.
    pub report: ServeReport,
    /// TTFT per admitted request, completion order.
    pub ttft: Vec<f64>,
    /// Mean TPOT per multi-token completion, completion order.
    pub tpot: Vec<f64>,
    /// Replica-count vectors of every applied layout (initial first).
    pub layouts: Vec<Vec<usize>>,
    /// Admission-queue depth sampled once per scheduler step, as
    /// `(virtual time, depth)` — the raw series behind the journal's
    /// queue-depth histogram and the Chrome-trace counter track.
    pub queue_depth: Vec<(f64, usize)>,
    /// Every span the run enqueued (faulted runs also carry `Fault` and
    /// `Recovery` annotation spans).
    pub timeline: Timeline,
    /// Completed recovery episodes, in detection order.
    pub recovery_events: Vec<RecoveryEvent>,
    /// Live-device count sampled once per scheduler step, aligned with
    /// `queue_depth`.
    pub live_devices: Vec<(f64, usize)>,
    /// Whether the run carried a (non-empty) fault plan.
    pub faulted: bool,
}

/// A queued request: fresh from admission or re-enqueued after a
/// failure interruption.
struct QueueEntry {
    req: Request,
    retries: u32,
    /// TTFT of the first successful prefill, carried across retries so
    /// the client-visible sample is emitted exactly once.
    first_ttft: Option<f64>,
}

/// A request past prefill, decoding one token per step.
struct Active {
    req: Request,
    ttft: f64,
    first_token: f64,
    decode_left: u64,
    /// Device whose failure interrupts this request (its decode home).
    home: usize,
    retries: u32,
}

/// Splits `total` across `n` devices as evenly as possible (first
/// `total % n` devices get one extra).
fn split_even(total: u64, n: usize) -> Vec<u64> {
    let base = total / n as u64;
    let rem = (total % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < rem)).collect()
}

/// The network view serving prices a step on: active link degradations
/// plus the devices the scheduler has actually removed. Failures enter
/// through `live_mask`, not `active`, because a restarted (non-elastic)
/// system runs on replacement hardware — its device set never shrinks
/// even while the fault window is open.
fn capacity_view(topo: &Topology, active: &ActiveFaults, live_mask: &[bool]) -> DegradedView {
    let mut view = DegradedView::new(topo.clone());
    for (a, b, factor) in active.degraded_links() {
        view.degrade_link(a, b, factor);
    }
    for (i, &live) in live_mask.iter().enumerate() {
        if !live {
            view.fail_device(DeviceId::new(i));
        }
    }
    view
}

/// A run's relayout weight transfers: the bytes one expert's weights
/// occupy, and the bytes and seconds charged so far.
struct RelocationLedger {
    expert_bytes: f64,
    bytes: f64,
    time: f64,
}

impl RelocationLedger {
    /// Charges the weight moves from `applied` towards a target layout:
    /// one all-to-all of expert weights priced on `net`, enqueued as
    /// `Relayout` spans on the live devices' prefetch streams. A move
    /// whose planned source is dead is re-sourced from a surviving
    /// replica; when no replica of its expert survives, the transfer
    /// also waits out a host reload. Returns when the transfer
    /// completes, never before `clock`.
    fn charge(
        &mut self,
        engine: &mut Engine,
        net: &dyn Interconnect,
        applied: &ExpertLayout,
        moves: &[RelocationMove],
        live_mask: &[bool],
        clock: f64,
    ) -> f64 {
        let live = |d: &DeviceId| live_mask[d.index()];
        let mut traffic = A2aMatrix::new(live_mask.len());
        let mut host_fetch = false;
        for mv in moves {
            let src = Some(mv.src).filter(live).or_else(|| {
                let replicas = applied.replica_devices(mv.expert).into_iter();
                replicas.map(|(d, _)| d).find(live)
            });
            match src {
                Some(src) => traffic.add(src, mv.dst, self.expert_bytes),
                None => host_fetch = true,
            }
        }
        let durations = all_to_all_time(net, &traffic)
            .unwrap_or_else(|e| unreachable!("matrix sized from the run's topology: {e}"));
        self.bytes += traffic.total();
        self.time += durations.iter().fold(0.0f64, |a, &b| a.max(b));
        let devices: Vec<DeviceId> = (0..live_mask.len())
            .map(DeviceId::new)
            .filter(live)
            .collect();
        let durs: Vec<f64> = devices.iter().map(|d| durations[d.index()]).collect();
        let handles = engine.enqueue_collective(
            &devices,
            StreamKind::Prefetch,
            SpanLabel::Relayout,
            &durs,
            &vec![Vec::new(); devices.len()],
        );
        let finish = handles
            .iter()
            .map(|&h| engine.span(h).end)
            .fold(clock, f64::max);
        if host_fetch {
            finish + SERVE_RELOAD_TIME
        } else {
            finish
        }
    }
}

/// Mutable retry/shed state of one run, grouped so the interrupt path
/// can be shared between the drain-replan and restart transitions.
#[derive(Default)]
struct Resilience {
    retry_buf: RetryBuffer,
    shed: ShedBreakdown,
    retries: u64,
    interrupted: u64,
}

impl Resilience {
    /// Interrupts every running request matched by `dead`: requests
    /// under the retry cap re-enqueue with exponential backoff, the
    /// rest are shed as `retry_exhausted`.
    fn interrupt(
        &mut self,
        running: &mut Vec<Active>,
        dead: impl Fn(&Active) -> bool,
        clock: f64,
        max_retries: u32,
        retry_backoff: f64,
    ) {
        let mut kept = Vec::with_capacity(running.len());
        for a in running.drain(..) {
            if !dead(&a) {
                kept.push(a);
                continue;
            }
            self.interrupted += 1;
            if a.retries >= max_retries {
                self.shed.retry_exhausted += 1;
            } else {
                self.retries += 1;
                let backoff = retry_backoff * (1u64 << a.retries.min(32)) as f64;
                self.retry_buf.push(RetryEntry {
                    req: a.req,
                    retries: a.retries + 1,
                    eligible: clock + backoff,
                    first_ttft: Some(a.ttft),
                });
            }
        }
        *running = kept;
    }
}

/// Runs the serving loop to completion (every request finished or
/// rejected, or `max_steps` reached).
///
/// Deterministic: the outcome is a pure function of the configuration.
pub fn run_serving(cfg: &ServeConfig) -> ServingOutcome {
    let requests = generate_requests(&cfg.workload);
    let topo = cfg.topology();
    let n = topo.num_devices();
    let model = cfg.preset.config();
    let gpu = GpuSpec::a100();
    let cost = CostModel::new(&model, gpu);
    let capacity = model.default_capacity();
    let top_k = model.top_k() as u64;
    let att_per_token =
        model.attention_flops_per_token(cfg.attention_context) as f64 / gpu.effective_flops();

    let mut system = cfg.system.build(
        &topo,
        &model,
        gpu,
        capacity,
        cfg.relayout_period,
        cfg.stats_window,
    );
    let mut mix = TopicMix::new(&cfg.workload, n, model.experts());
    let mut engine = Engine::new(&topo);

    let mut applied: ExpertLayout = system.layout().clone();
    let mut layouts = vec![applied.replica_vector()];

    let mut queue: VecDeque<QueueEntry> = VecDeque::new();
    let mut running: Vec<Active> = Vec::new();
    let mut next_arrival = 0usize;
    let mut queue_depth: Vec<(f64, usize)> = Vec::new();
    let mut live_trace: Vec<(f64, usize)> = Vec::new();

    let mut ttft_samples = Vec::new();
    let mut tpot_samples = Vec::new();
    let mut completed = 0usize;
    let mut good = 0usize;
    let mut generated_tokens = 0u64;
    let mut relayouts = 0u64;
    let mut relocation = RelocationLedger {
        expert_bytes: (model.expert_params() * BF16_BYTES) as f64,
        bytes: 0.0,
        time: 0.0,
    };
    let mut steps = 0u64;
    // Virtual wall clock: end of the last scheduler step, or later when
    // the scheduler sat idle waiting for an arrival. Kept separately
    // from the engine makespan so an in-flight background relocation
    // (which may outlast the step that launched it) never stalls the
    // serving steps themselves.
    let mut clock = 0.0f64;
    // A re-layout in flight on the prefetch stream: target layout and
    // the virtual time its weight transfer completes.
    let mut pending: Option<(ExpertLayout, f64)> = None;

    // --- resilience state (inert when no fault plan is set) ---
    let fault_plan = cfg.faults.as_ref().filter(|p| !p.is_empty());
    let mut live_mask = vec![true; n];
    let mut handled_failed: BTreeSet<usize> = BTreeSet::new();
    let mut prev_links: Vec<(DeviceId, DeviceId, f64)> = Vec::new();
    let mut res = Resilience::default();
    let mut rate = ServiceRate::new(cfg.stats_window.max(1));
    let mut failures = 0u64;
    let mut rejoins = 0u64;
    let mut recovery_events: Vec<RecoveryEvent> = Vec::new();
    let mut recovery_spans: Vec<(usize, f64, f64)> = Vec::new();

    while steps < cfg.max_steps {
        // ---- Fault edges: sample the plan at the current virtual time
        // and run the detect → respond transitions before admission.
        let mut active = ActiveFaults::default();
        if let Some(plan) = fault_plan {
            active = plan.active_in(clock, clock);
            system.set_planner_available(!active.planner_outage());

            let failed_now: BTreeSet<usize> = active.failed_devices().map(|d| d.index()).collect();

            // Recovery edge: devices whose failure window closed rejoin;
            // an elastic system re-plans for the regained capacity as a
            // hitless background re-layout picked up below.
            let rejoined: Vec<usize> = handled_failed
                .iter()
                .copied()
                .filter(|d| !failed_now.contains(d))
                .collect();
            let mut grew = false;
            for d in rejoined {
                handled_failed.remove(&d);
                if !live_mask[d] {
                    live_mask[d] = true;
                    rejoins += 1;
                    grew = true;
                }
            }
            if grew {
                let view = capacity_view(&topo, &active, &live_mask);
                let _ = system.handle_capacity_change(&view);
            }

            // Link-profile edge: re-plan (in the background) when the
            // set of degraded links changes.
            let links_now: Vec<(DeviceId, DeviceId, f64)> = active.degraded_links().collect();
            if links_now != prev_links {
                prev_links = links_now;
                let view = capacity_view(&topo, &active, &live_mask);
                let _ = system.handle_capacity_change(&view);
            }

            // Failure edge: detect, then let the system choose between
            // an elastic survivor re-plan and a full restart.
            let newly: Vec<usize> = failed_now
                .iter()
                .copied()
                .filter(|d| !handled_failed.contains(d))
                .collect();
            if !newly.is_empty() {
                failures += newly.len() as u64;
                handled_failed.extend(newly.iter().copied());
                let detected = clock;
                clock += SERVE_DETECTION_DELAY;
                let mut trial = live_mask.clone();
                for &d in &newly {
                    trial[d] = false;
                }
                // The detection instant is telemetry too: without this
                // edge sample the next regular per-step sample lands
                // only after the (much longer) recovery response, so no
                // step-series detector could ever observe the live-set
                // drop at the detection delay.
                queue_depth.push((clock, queue.len()));
                live_trace.push((clock, trial.iter().filter(|&&l| l).count()));
                let view = capacity_view(&topo, &active, &trial);
                match system.handle_capacity_change(&view) {
                    CapacityResponse::Replan => {
                        live_mask = trial;
                        // In-flight requests homed on a dead device are
                        // interrupted: re-enqueued with backoff, or shed
                        // at the retry cap.
                        res.interrupt(
                            &mut running,
                            |a| !live_mask[a.home],
                            clock,
                            cfg.max_retries,
                            cfg.retry_backoff,
                        );
                        // Blocking drain: the applied layout holds
                        // replicas on the dead device, so serving stops
                        // until the survivor layout lands. The movement
                        // is charged on the prefetch stream; moves whose
                        // planned source died are re-fetched from a
                        // surviving replica, or from host storage when
                        // the sole replica died with the device.
                        pending = None;
                        let target = system.layout().clone();
                        let moves = relocation_moves(&topo, &applied, &target);
                        clock = relocation.charge(
                            &mut engine,
                            &view,
                            &applied,
                            &moves,
                            &live_mask,
                            clock,
                        );
                        applied = target;
                        relayouts += 1;
                        layouts.push(applied.replica_vector());
                        recovery_events.push(RecoveryEvent {
                            kind: "drain-replan".to_string(),
                            detected,
                            resumed: clock,
                        });
                        for d in (0..n).filter(|&d| live_mask[d]) {
                            recovery_spans.push((d, detected, clock));
                        }
                    }
                    CapacityResponse::Restart => {
                        // Non-elastic: every in-flight request dies with
                        // the job; the cluster waits out the collective
                        // timeout and reloads onto replacement hardware
                        // (the device set does not shrink).
                        res.interrupt(
                            &mut running,
                            |_| true,
                            clock,
                            cfg.max_retries,
                            cfg.retry_backoff,
                        );
                        clock = detected + SERVE_FAILOVER_TIMEOUT + SERVE_RELOAD_TIME;
                        recovery_events.push(RecoveryEvent {
                            kind: "restart".to_string(),
                            detected,
                            resumed: clock,
                        });
                        for d in 0..n {
                            recovery_spans.push((d, detected, clock));
                        }
                        // Replacement hardware: tell the system its
                        // post-restart capacity (links may still be
                        // degraded, but no devices are missing).
                        let _ = system
                            .handle_capacity_change(&capacity_view(&topo, &active, &live_mask));
                    }
                    CapacityResponse::Unchanged => {}
                }
                engine.barrier_at(clock);
            }
        }

        // Re-admit retries whose backoff expired: they were admitted
        // once already, so they take queue priority over new arrivals.
        for entry in res.retry_buf.drain_eligible(clock).into_iter().rev() {
            queue.push_front(QueueEntry {
                req: entry.req,
                retries: entry.retries,
                first_ttft: entry.first_ttft,
            });
        }

        // Admit arrivals up to the current virtual time. While capacity
        // is degraded, the SLO-aware brownout sheds arrivals whose
        // estimated queueing wait cannot fit inside the TTFT budget.
        let degraded = fault_plan.is_some()
            && (live_mask.iter().any(|&l| !l)
                || active.straggler_devices().next().is_some()
                || active.degraded_links().next().is_some());
        let brownout = if degraded {
            cfg.brownout_ttft_margin
        } else {
            None
        };
        while next_arrival < requests.len() && requests[next_arrival].arrival <= clock {
            let req = requests[next_arrival];
            next_arrival += 1;
            if queue.len() >= cfg.queue_capacity {
                res.shed.queue_full += 1;
                continue;
            }
            if let Some(margin) = brownout {
                if let Some(wait) = rate.estimated_wait(queue.len()) {
                    if wait > margin * cfg.sla.ttft {
                        res.shed.brownout += 1;
                        continue;
                    }
                }
            }
            queue.push_back(QueueEntry {
                req,
                retries: 0,
                first_ttft: None,
            });
        }

        if queue.is_empty() && running.is_empty() {
            let next_arr = (next_arrival < requests.len()).then(|| requests[next_arrival].arrival);
            let wake = match (next_arr, res.retry_buf.next_eligible()) {
                (Some(a), Some(r)) => a.min(r),
                (Some(a), None) => a,
                (None, Some(r)) => r,
                (None, None) => break,
            };
            // Idle: fast-forward to the next arrival or retry wakeup.
            clock = clock.max(wake);
            engine.barrier_at(clock);
            continue;
        }

        // Sample the admission-queue depth and live-device count once
        // per executed step, at step start (post-admission,
        // pre-batching).
        queue_depth.push((clock, queue.len()));
        live_trace.push((clock, live_mask.iter().filter(|&&l| l).count()));

        // Form the batch: token-budgeted prefills + one decode token per
        // running request (the continuous-batching mix).
        let mut prefills: Vec<QueueEntry> = Vec::new();
        let mut budget = cfg.max_prefill_tokens;
        loop {
            let fits = match queue.front() {
                Some(e) => prefills.is_empty() || e.req.prompt_tokens <= budget,
                None => false,
            };
            if !fits {
                break;
            }
            if let Some(e) = queue.pop_front() {
                budget = budget.saturating_sub(e.req.prompt_tokens);
                prefills.push(e);
            }
        }
        let decode_count = running.len() as u64;
        let prefill_tokens: u64 = prefills.iter().map(|e| e.req.prompt_tokens).sum();
        let step_tokens = prefill_tokens + decode_count;

        // The device subset and network view this step executes on.
        let live_devs: Vec<DeviceId> = (0..n)
            .filter(|&i| live_mask[i])
            .map(DeviceId::new)
            .collect();
        let m = live_devs.len();
        let step_view = fault_plan.map(|_| capacity_view(&topo, &active, &live_mask));
        let net: &dyn Interconnect = match &step_view {
            Some(v) => v,
            None => &topo,
        };

        // Adopt a weight transfer that has finished by now: the new
        // layout only serves traffic once its copy has been paid for.
        if let Some((target, finish)) = &pending {
            if *finish <= clock {
                applied = target.clone();
                relayouts += 1;
                layouts.push(applied.replica_vector());
                pending = None;
            }
        }
        // Launch the next transfer if the system wants a different
        // layout and the prefetch stream is free of one. The move is
        // priced as an all-to-all of expert weights and charged as
        // Relayout spans; serving continues on the stale layout until
        // `finish`.
        if pending.is_none() && system.layout() != &applied {
            let target = system.layout().clone();
            let moves = relocation_moves(&topo, &applied, &target);
            if moves.is_empty() {
                applied = target;
                relayouts += 1;
                layouts.push(applied.replica_vector());
            } else {
                let finish =
                    relocation.charge(&mut engine, net, &applied, &moves, &live_mask, clock);
                pending = Some((target, finish));
            }
        }

        // Routing demand for the step, routed against the applied
        // layout. Token budgets land on live devices only.
        let shares = split_even(step_tokens, m);
        let mut token_budgets = vec![0u64; n];
        for (k, d) in live_devs.iter().enumerate() {
            token_budgets[d.index()] = shares[k];
        }
        let assignment_budgets: Vec<u64> = token_budgets.iter().map(|&t| t * top_k).collect();
        let demand = mix.step(&assignment_budgets);
        let routing = lite_route(&topo, &demand, &applied);
        let compute_loads = routing.device_compute_loads();

        let traffic = routing
            .entries()
            .iter()
            .map(|&(src, _, dst, tokens)| (src, dst, tokens));
        let (dispatch_times, combine_times) = token_a2a_times(net, traffic, cost.v_comm());

        // Walk the step through the streams (live devices only;
        // stragglers stretch compute by their multiplier).
        let attention: Vec<SpanHandle> = live_devs
            .iter()
            .map(|&dev| {
                engine.enqueue(
                    dev,
                    StreamKind::Compute,
                    SpanLabel::Attention,
                    token_budgets[dev.index()] as f64
                        * att_per_token
                        * active.compute_multiplier(dev),
                    &[],
                )
            })
            .collect();
        let dispatch_deps: Vec<Vec<SpanHandle>> = attention.iter().map(|&h| vec![h]).collect();
        let dispatch_durs: Vec<f64> = live_devs
            .iter()
            .map(|d| dispatch_times[d.index()])
            .collect();
        let dispatched = engine.enqueue_collective(
            &live_devs,
            StreamKind::A2a,
            SpanLabel::AllToAll,
            &dispatch_durs,
            &dispatch_deps,
        );
        let expert: Vec<SpanHandle> = live_devs
            .iter()
            .enumerate()
            .map(|(k, &dev)| {
                engine.enqueue(
                    dev,
                    StreamKind::Compute,
                    SpanLabel::ExpertCompute,
                    cost.expert_forward_time(compute_loads[dev.index()])
                        * active.compute_multiplier(dev),
                    &[dispatched[k]],
                )
            })
            .collect();
        let combine_deps: Vec<Vec<SpanHandle>> = expert.iter().map(|&h| vec![h]).collect();
        let combine_durs: Vec<f64> = live_devs.iter().map(|d| combine_times[d.index()]).collect();
        let combined = engine.enqueue_collective(
            &live_devs,
            StreamKind::A2a,
            SpanLabel::AllToAll,
            &combine_durs,
            &combine_deps,
        );
        // The step ends when every device's closing span does — NOT at
        // the engine makespan, which may include a background relocation
        // still in flight past this step.
        let mut step_end = clock;
        for (k, &dev) in live_devs.iter().enumerate() {
            let h = engine.enqueue(
                dev,
                StreamKind::Compute,
                SpanLabel::Other,
                cfg.step_overhead,
                &[combined[k]],
            );
            step_end = step_end.max(engine.span(h).end);
        }
        engine.barrier_at(step_end);
        let step_seconds = step_end - clock;
        clock = step_end;
        rate.record(step_seconds, prefills.len());

        // Account decodes (snapshot taken before this step's prefills).
        generated_tokens += decode_count + prefills.len() as u64;
        for active in &mut running {
            active.decode_left -= 1;
        }
        let mut kept = Vec::with_capacity(running.len());
        for done in running.drain(..) {
            if done.decode_left > 0 {
                kept.push(done);
                continue;
            }
            let tpot = (step_end - done.first_token) / (done.req.decode_tokens - 1) as f64;
            tpot_samples.push(tpot);
            completed += 1;
            if done.ttft <= cfg.sla.ttft && tpot <= cfg.sla.tpot {
                good += 1;
            }
        }
        running = kept;

        // Account prefills: their first token lands at step end. A
        // retried request already delivered its first token before the
        // interruption, so its original TTFT stands and no second
        // sample is emitted.
        for entry in prefills {
            let r = entry.req;
            let ttft = match entry.first_ttft {
                Some(first) => first,
                None => {
                    let t = step_end - r.arrival;
                    ttft_samples.push(t);
                    t
                }
            };
            if r.decode_tokens <= 1 {
                completed += 1;
                if ttft <= cfg.sla.ttft {
                    good += 1;
                }
            } else {
                running.push(Active {
                    req: r,
                    ttft,
                    first_token: step_end,
                    decode_left: r.decode_tokens - 1,
                    home: live_devs[(r.id as usize) % m].index(),
                    retries: entry.retries,
                });
            }
        }

        system.observe(steps, &demand);
        steps += 1;
    }

    // Anything still pending when the step cap trips is accounted as
    // unserved shed — nothing is silently lost.
    res.shed.unserved =
        queue.len() + running.len() + res.retry_buf.len() + (requests.len() - next_arrival);
    let rejected = res.shed.total();

    let duration = engine.now();
    // `Sum<f64>` folds from -0.0 (the IEEE additive identity); pin the
    // empty case to +0.0 so fault-free reports serialize as plain zero.
    let recovery_time: f64 = if recovery_events.is_empty() {
        0.0
    } else {
        recovery_events.iter().map(RecoveryEvent::duration).sum()
    };
    let report = ServeReport {
        system: cfg.system.id().to_string(),
        offered_rps: cfg.workload.arrival_rate,
        requests: requests.len(),
        completed,
        rejected,
        steps,
        duration,
        throughput_tps: if duration > 0.0 {
            generated_tokens as f64 / duration
        } else {
            0.0
        },
        ttft: LatencySummary::from_samples(&ttft_samples),
        tpot: LatencySummary::from_samples(&tpot_samples),
        slo_attainment: if requests.is_empty() {
            1.0
        } else {
            good as f64 / requests.len() as f64
        },
        goodput_rps: if duration > 0.0 {
            good as f64 / duration
        } else {
            0.0
        },
        relayouts,
        relocation_bytes: relocation.bytes,
        relocation_time: relocation.time,
        shed: res.shed,
        retries: res.retries,
        interrupted: res.interrupted,
        failures,
        rejoins,
        recoveries: recovery_events.len() as u64,
        recovery_time,
    };
    // Faulted runs annotate the timeline with the injected fault
    // windows and the recovery episodes (excluded from makespan and
    // occupancy; rendered as their own tracks in the Chrome trace).
    let mut timeline = engine.into_timeline();
    if let Some(plan) = fault_plan {
        record_timed_fault_spans(&mut timeline, plan, duration.max(clock));
        for &(device, start, end) in &recovery_spans {
            if end > start {
                timeline.push(Span {
                    device: DeviceId::new(device),
                    stream: StreamKind::Compute,
                    label: SpanLabel::Recovery,
                    start,
                    end,
                });
            }
        }
    }
    ServingOutcome {
        report,
        ttft: ttft_samples,
        tpot: tpot_samples,
        layouts,
        queue_depth,
        timeline,
        recovery_events,
        live_devices: live_trace,
        faulted: fault_plan.is_some(),
    }
}

/// Records a finished serving run into an [`Observer`]: TTFT / TPOT /
/// queue-depth histograms and throughput gauges in the registry (all
/// labelled by `system`), plus one `serving` journal event carrying the
/// distributions ([`ServingRecord`]).
///
/// Bucket layouts are fixed here — not derived from the data — so two
/// runs of the same seeded configuration export byte-identical metrics.
pub fn record_observability(out: &ServingOutcome, obs: &mut Observer) {
    let report = &out.report;
    let system: &str = &report.system;
    let labels: [(&str, &str); 1] = [("system", system)];

    // Local histograms back the journal snapshot; the registry gets the
    // same observations under fixed, pre-declared bucket layouts.
    let mut ttft_hist = Histogram::exponential(1e-3, 2.0, 14);
    for &v in &out.ttft {
        ttft_hist.observe(v);
    }
    let mut tpot_hist = Histogram::exponential(1e-4, 2.0, 14);
    for &v in &out.tpot {
        tpot_hist.observe(v);
    }
    let mut queue_hist = Histogram::linear(0.0, 4.0, 16);
    for &(_, depth) in &out.queue_depth {
        queue_hist.observe(depth as f64);
    }

    let r = &mut obs.registry;
    r.declare_counter(
        "laer_serve_requests_total",
        "Serving requests by final disposition.",
    );
    r.inc(
        "laer_serve_requests_total",
        &[("system", system), ("outcome", "completed")],
        report.completed as u64,
    );
    r.inc(
        "laer_serve_requests_total",
        &[("system", system), ("outcome", "rejected")],
        report.rejected as u64,
    );
    r.declare_counter("laer_serve_steps_total", "Scheduler steps executed.");
    r.inc("laer_serve_steps_total", &labels, report.steps);
    r.declare_counter("laer_serve_relayouts_total", "Expert re-layouts applied.");
    r.inc("laer_serve_relayouts_total", &labels, report.relayouts);
    r.declare_gauge(
        "laer_serve_goodput_rps",
        "SLO-meeting completions per virtual second.",
    );
    r.set("laer_serve_goodput_rps", &labels, report.goodput_rps);
    r.declare_gauge(
        "laer_serve_throughput_tps",
        "Output tokens generated per virtual second.",
    );
    r.set("laer_serve_throughput_tps", &labels, report.throughput_tps);
    r.declare_gauge(
        "laer_serve_relocation_seconds",
        "Virtual seconds of charged re-layout weight traffic.",
    );
    r.set(
        "laer_serve_relocation_seconds",
        &labels,
        report.relocation_time,
    );

    r.declare_counter("laer_serve_shed_total", "Shed requests by cause.");
    for (cause, count) in [
        ("queue-full", report.shed.queue_full),
        ("brownout", report.shed.brownout),
        ("retry-exhausted", report.shed.retry_exhausted),
        ("unserved", report.shed.unserved),
    ] {
        r.inc(
            "laer_serve_shed_total",
            &[("system", system), ("cause", cause)],
            count as u64,
        );
    }
    r.declare_counter(
        "laer_serve_retries_total",
        "Retry re-enqueues after failure interruptions.",
    );
    r.inc("laer_serve_retries_total", &labels, report.retries);
    r.declare_counter("laer_serve_failures_total", "Device failures detected.");
    r.inc("laer_serve_failures_total", &labels, report.failures);
    r.declare_counter(
        "laer_serve_recoveries_total",
        "Completed recovery episodes (drain-replan or restart).",
    );
    r.inc("laer_serve_recoveries_total", &labels, report.recoveries);
    r.declare_gauge(
        "laer_serve_recovery_seconds",
        "Virtual seconds from failure detection to serving resuming.",
    );
    r.set("laer_serve_recovery_seconds", &labels, report.recovery_time);

    r.declare_histogram(
        "laer_serve_ttft_seconds",
        "Time to first token over admitted requests.",
        Histogram::exponential(1e-3, 2.0, 14),
    );
    for &v in &out.ttft {
        r.observe("laer_serve_ttft_seconds", &labels, v);
    }
    r.declare_histogram(
        "laer_serve_tpot_seconds",
        "Time per output token over multi-token completions.",
        Histogram::exponential(1e-4, 2.0, 14),
    );
    for &v in &out.tpot {
        r.observe("laer_serve_tpot_seconds", &labels, v);
    }
    r.declare_histogram(
        "laer_serve_queue_depth",
        "Admission-queue depth sampled once per scheduler step.",
        Histogram::linear(0.0, 4.0, 16),
    );
    for &(_, depth) in &out.queue_depth {
        r.observe("laer_serve_queue_depth", &labels, depth as f64);
    }

    obs.journal.push(
        "serving",
        &ServingRecord {
            system: system.to_string(),
            steps: report.steps,
            queue_depth: HistogramSnapshot::of(&queue_hist),
            ttft: HistogramSnapshot::of(&ttft_hist),
            tpot: HistogramSnapshot::of(&tpot_hist),
        },
    );

    // Faulted runs additionally journal the resilience summary and a
    // per-step record stream; fault-free runs keep the legacy journal
    // shape byte-for-byte.
    if out.faulted {
        obs.journal.push(
            "serving-resilience",
            &ResilienceRecord {
                system: system.to_string(),
                failures: report.failures,
                rejoins: report.rejoins,
                interrupted: report.interrupted,
                retries: report.retries,
                shed_queue_full: report.shed.queue_full as u64,
                shed_brownout: report.shed.brownout as u64,
                shed_retry_exhausted: report.shed.retry_exhausted as u64,
                shed_unserved: report.shed.unserved as u64,
                recoveries: out
                    .recovery_events
                    .iter()
                    .map(|e| (e.kind.clone(), e.detected, e.resumed))
                    .collect(),
            },
        );
        for record in step_records(out) {
            obs.journal.push("serving-step", &record);
        }
    }
}

/// The run's per-step telemetry stream as [`ServeStepRecord`]s — the
/// same records a faulted run journals under `serving-step`. Includes
/// the failure-edge samples taken at detection time, so streaming
/// detectors replaying this stream see the live-set drop exactly
/// [`SERVE_DETECTION_DELAY`](crate::SERVE_DETECTION_DELAY) after onset.
pub fn step_records(out: &ServingOutcome) -> Vec<ServeStepRecord> {
    out.queue_depth
        .iter()
        .zip(&out.live_devices)
        .enumerate()
        .map(|(step, (&(time, depth), &(_, live)))| ServeStepRecord {
            system: out.report.system.clone(),
            step: step as u64,
            time,
            queue_depth: depth as u64,
            live_devices: live as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn quick_workload(seed: u64) -> WorkloadConfig {
        WorkloadConfig::default()
            .with_seed(seed)
            .with_requests(40)
            .with_arrival_rate(300.0)
    }

    #[test]
    fn every_system_serves_the_stream() {
        for kind in ServingSystemKind::ALL {
            let mut cfg = ServeConfig::new(kind);
            cfg.workload = quick_workload(3);
            let out = run_serving(&cfg);
            assert_eq!(
                out.report.completed + out.report.rejected,
                out.report.requests,
                "{}: every request must resolve",
                kind.id()
            );
            assert!(out.report.completed > 0, "{}: nothing served", kind.id());
            assert_eq!(out.report.system, kind.id());
            assert!(out.report.duration > 0.0);
            assert!(out.report.throughput_tps > 0.0);
            assert!(!out.layouts.is_empty());
            assert!(out
                .timeline
                .spans()
                .iter()
                .any(|s| s.label == SpanLabel::ExpertCompute));
        }
    }

    #[test]
    fn relayout_spans_are_charged_for_adaptive_systems() {
        let mut cfg = ServeConfig::new(ServingSystemKind::Laer);
        cfg.workload = quick_workload(5).with_flip_period(Some(20));
        cfg.workload.requests = 80;
        let out = run_serving(&cfg);
        assert!(out.report.relayouts > 0, "drift must trigger re-layouts");
        assert!(out.report.relocation_bytes > 0.0);
        assert!(out.report.relocation_time > 0.0);
        let charged: f64 = out
            .timeline
            .spans()
            .iter()
            .filter(|s| s.label == SpanLabel::Relayout)
            .map(|s| s.duration())
            .sum();
        assert!(charged > 0.0, "relocation must appear as timeline spans");
        assert!(out.layouts.len() as u64 == out.report.relayouts + 1);
    }

    #[test]
    fn static_ep_never_relayouts() {
        let mut cfg = ServeConfig::new(ServingSystemKind::StaticEp);
        cfg.workload = quick_workload(5).with_flip_period(Some(20));
        let out = run_serving(&cfg);
        assert_eq!(out.report.relayouts, 0);
        assert_eq!(out.report.relocation_bytes, 0.0);
        assert!(out
            .timeline
            .spans()
            .iter()
            .all(|s| s.label != SpanLabel::Relayout));
    }

    #[test]
    fn bounded_queue_rejects_overload() {
        let mut cfg = ServeConfig::new(ServingSystemKind::StaticEp);
        // Far beyond capacity with a tiny queue: admission must shed load.
        cfg.workload = quick_workload(7)
            .with_requests(120)
            .with_arrival_rate(50_000.0);
        cfg.queue_capacity = 4;
        let out = run_serving(&cfg);
        assert!(out.report.rejected > 0, "overload must be shed");
        assert_eq!(out.report.completed + out.report.rejected, 120);
    }

    /// `from_training` inherits the run's cluster shape and model and
    /// resumes its layer-0 popularity process past the trained prefix,
    /// deterministically.
    #[test]
    fn from_training_resumes_the_training_mix() {
        use laer_baselines::SystemKind;

        let exp = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer);
        let mut cfg = ServeConfig::from_training(&exp, ServingSystemKind::Laer, 70);
        assert_eq!(cfg.nodes, exp.nodes);
        assert_eq!(cfg.devices_per_node, exp.devices_per_node);
        assert_eq!(cfg.preset, exp.preset);
        assert_eq!(cfg.workload.start_iteration, 70);
        assert!(cfg.workload.mix.is_some(), "must carry the training mix");
        cfg.workload.requests = 30;
        cfg.workload.arrival_rate = 300.0;
        let a = run_serving(&cfg);
        let b = run_serving(&cfg);
        assert!(a.report.completed > 0);
        assert_eq!(a.report, b.report, "resumed serving must be deterministic");
    }

    /// Satellite: re-layout under a hot-expert flip strictly reduces p99
    /// TTFT vs `static-ep` on a calibrated near-saturation workload.
    ///
    /// Calibration (see the ignored `calibrate::sweep` below): a 1×4
    /// cluster gives the even static layout exactly one replica per
    /// expert, so a hot expert concentrates on one device; at ~1200 rps
    /// that imbalance queues while a re-balanced layout keeps up.
    #[test]
    fn relayout_beats_static_p99_ttft_under_hot_flip() {
        let mut workload = WorkloadConfig::default()
            .with_seed(17)
            .with_requests(300)
            .with_arrival_rate(1200.0)
            .with_flip_period(Some(30));
        workload.mean_decode_tokens = 16.0;
        let run = |kind: ServingSystemKind| {
            let mut cfg = ServeConfig::new(kind);
            cfg.nodes = 1;
            cfg.devices_per_node = 4;
            cfg.queue_capacity = 512;
            cfg.step_overhead = 2.0e-4;
            cfg.workload = workload.clone();
            run_serving(&cfg)
        };
        let laer = run(ServingSystemKind::Laer);
        let staticep = run(ServingSystemKind::StaticEp);
        assert!(laer.report.relayouts > 0, "laer must adapt to the flips");
        assert!(
            laer.report.ttft.p99 < staticep.report.ttft.p99,
            "laer p99 TTFT {} must beat static-ep {}",
            laer.report.ttft.p99,
            staticep.report.ttft.p99
        );
        assert!(
            laer.report.goodput_rps >= staticep.report.goodput_rps,
            "laer goodput {} must be at least static-ep {}",
            laer.report.goodput_rps,
            staticep.report.goodput_rps
        );
    }

    /// Tentpole: queue-depth samples are one-per-step with
    /// non-decreasing timestamps, and `record_observability` populates
    /// the registry and journal deterministically.
    #[test]
    fn observability_records_the_run() {
        let mut cfg = ServeConfig::new(ServingSystemKind::Laer);
        cfg.workload = quick_workload(5).with_flip_period(Some(20));
        cfg.workload.requests = 80;
        let out = run_serving(&cfg);
        assert_eq!(
            out.queue_depth.len() as u64,
            out.report.steps,
            "one queue sample per executed step"
        );
        assert!(
            out.queue_depth.windows(2).all(|w| w[0].0 <= w[1].0),
            "sample times must be non-decreasing"
        );

        let observe = || {
            let mut obs = laer_obs::Observer::new();
            record_observability(&out, &mut obs);
            obs
        };
        let obs = observe();
        let text = obs.registry.to_openmetrics();
        assert!(text.contains("laer_serve_ttft_seconds_bucket{system=\"laer\""));
        assert!(text.contains("laer_serve_queue_depth_count{system=\"laer\"}"));
        assert_eq!(
            obs.registry
                .counter_value("laer_serve_steps_total", &[("system", "laer")]),
            out.report.steps
        );
        assert_eq!(
            obs.registry.counter_value(
                "laer_serve_requests_total",
                &[("system", "laer"), ("outcome", "completed")]
            ),
            out.report.completed as u64
        );
        assert_eq!(obs.journal.len(), 1);
        assert!(obs.journal.to_jsonl().starts_with("{\"type\":\"serving\""));
        assert_eq!(
            text,
            observe().registry.to_openmetrics(),
            "metric export must be deterministic"
        );
    }

    mod resilience {
        use super::*;
        use laer_sim::{FaultKind, TimedFaultEvent};

        fn timed(kind: FaultKind, start: f64, end: f64) -> TimedFaultEvent {
            TimedFaultEvent { kind, start, end }
        }

        fn device_failure_plan(device: usize, start: f64, end: f64) -> FaultPlan {
            let mut plan = FaultPlan::new();
            plan.push_timed(timed(
                FaultKind::DeviceFailure {
                    device: DeviceId::new(device),
                },
                start,
                end,
            ))
            .unwrap();
            plan
        }

        fn chaos_cfg(kind: ServingSystemKind, plan: FaultPlan) -> ServeConfig {
            let mut cfg = ServeConfig::new(kind);
            cfg.workload = quick_workload(11)
                .with_requests(80)
                .with_arrival_rate(600.0);
            cfg.workload.mean_decode_tokens = 16.0;
            cfg.queue_capacity = 512;
            cfg.step_overhead = 2.0e-4;
            cfg.faults = Some(plan);
            cfg
        }

        /// Tentpole: a transient device failure makes LAER drain,
        /// re-plan on the survivors, and re-layout back when the device
        /// rejoins — with every request accounted for and the fault and
        /// recovery windows annotated in the timeline.
        #[test]
        fn laer_drains_replans_and_recovers_from_device_failure() {
            let cfg = chaos_cfg(ServingSystemKind::Laer, device_failure_plan(3, 0.03, 0.09));
            let out = run_serving(&cfg);
            let r = &out.report;
            assert_eq!(r.failures, 1);
            assert_eq!(r.rejoins, 1);
            assert_eq!(r.recoveries, 1);
            assert_eq!(out.recovery_events[0].kind, "drain-replan");
            assert!(r.recovery_time > 0.0);
            assert!(r.completed > 0);
            assert_eq!(
                r.completed + r.shed.total(),
                r.requests,
                "zero lost requests"
            );
            assert_eq!(r.rejected, r.shed.total());
            // The cluster shrinks to 15 live devices during the outage
            // and grows back to 16 after the rejoin.
            assert!(out.live_devices.iter().any(|&(_, l)| l == 15));
            assert_eq!(out.live_devices.last().unwrap().1, 16);
            // The drain plus the rejoin re-layout both moved weights.
            assert!(r.relayouts >= 2);
            assert!(out.faulted);
            let spans = out.timeline.spans();
            assert!(spans.iter().any(|s| s.label == SpanLabel::Fault));
            assert!(spans.iter().any(|s| s.label == SpanLabel::Recovery));
        }

        /// Tentpole: the same failure forces static EP through the full
        /// timeout + reload + redo restart, while LAER's elastic drain
        /// keeps serving — the goodput gap is the headline comparison.
        #[test]
        fn static_restarts_while_laer_survives_failure() {
            let laer = run_serving(&chaos_cfg(
                ServingSystemKind::Laer,
                device_failure_plan(3, 0.03, 0.09),
            ));
            let st = run_serving(&chaos_cfg(
                ServingSystemKind::StaticEp,
                device_failure_plan(3, 0.03, 0.09),
            ));
            assert_eq!(st.recovery_events[0].kind, "restart");
            assert!(
                st.report.interrupted > 0,
                "a restart kills every in-flight request"
            );
            assert!(st.report.retries > 0, "interrupted requests retry");
            assert!(
                st.report.recovery_time > laer.report.recovery_time,
                "static stall {} must dwarf the elastic drain {}",
                st.report.recovery_time,
                laer.report.recovery_time
            );
            assert!(
                laer.report.goodput_rps > st.report.goodput_rps,
                "laer goodput {} must beat static-ep {} under failure",
                laer.report.goodput_rps,
                st.report.goodput_rps
            );
            for r in [&laer.report, &st.report] {
                assert_eq!(r.completed + r.shed.total(), r.requests);
            }
        }

        /// Zero-loss accounting and bit-identical determinism for every
        /// system under a composite chaos schedule (straggler + link
        /// degrade + device failure + planner outage).
        #[test]
        fn chaos_accounting_loses_nothing_and_is_deterministic() {
            let mut plan = FaultPlan::new();
            plan.push_timed(timed(
                FaultKind::Straggler {
                    device: DeviceId::new(1),
                    factor: 2.5,
                },
                0.02,
                0.06,
            ))
            .unwrap();
            plan.push_timed(timed(
                FaultKind::LinkDegrade {
                    a: DeviceId::new(0),
                    b: DeviceId::new(8),
                    factor: 0.2,
                },
                0.04,
                0.10,
            ))
            .unwrap();
            plan.push_timed(timed(
                FaultKind::DeviceFailure {
                    device: DeviceId::new(5),
                },
                0.05,
                0.09,
            ))
            .unwrap();
            plan.push_timed(timed(FaultKind::PlannerOutage, 0.03, 0.07))
                .unwrap();

            for kind in ServingSystemKind::ALL {
                let cfg = chaos_cfg(kind, plan.clone());
                let a = run_serving(&cfg);
                let b = run_serving(&cfg);
                assert_eq!(
                    a.report,
                    b.report,
                    "{}: chaos must be deterministic",
                    kind.id()
                );
                assert_eq!(&a.ttft, &b.ttft);
                assert_eq!(&a.layouts, &b.layouts);
                let r = &a.report;
                assert_eq!(
                    r.completed + r.shed.total(),
                    r.requests,
                    "{}: every request must finish, retry or be accounted as shed",
                    kind.id()
                );
                assert!(r.completed > 0, "{}: nothing served", kind.id());
                assert!(
                    r.failures > 0,
                    "{}: the failure must be detected",
                    kind.id()
                );
                // Exactly one TTFT sample per first successful prefill:
                // completions emitted one each, and only requests shed
                // *after* a prefill can add more.
                assert!(a.ttft.len() >= r.completed);
                assert!(a.ttft.len() <= r.completed + r.shed.retry_exhausted + r.shed.unserved);
            }
        }

        /// Satellite: the SLO-aware brownout sheds arrivals while
        /// capacity is degraded instead of letting every admitted
        /// request blow through the TTFT budget.
        #[test]
        fn brownout_sheds_to_protect_admitted_traffic() {
            let mut plan = FaultPlan::new();
            plan.push_timed(timed(
                FaultKind::Straggler {
                    device: DeviceId::new(0),
                    factor: 8.0,
                },
                0.01,
                0.30,
            ))
            .unwrap();
            let run = |margin: Option<f64>| {
                let mut cfg = chaos_cfg(ServingSystemKind::StaticEp, plan.clone());
                cfg.workload = quick_workload(13)
                    .with_requests(200)
                    .with_arrival_rate(1500.0);
                cfg.workload.mean_decode_tokens = 16.0;
                // A tight prefill chunk makes the straggler window a
                // genuine overload: admission control has to act.
                cfg.max_prefill_tokens = 512;
                cfg.brownout_ttft_margin = margin;
                run_serving(&cfg)
            };
            let with = run(Some(0.5));
            let without = run(None);
            assert!(
                with.report.shed.brownout > 0,
                "degraded capacity must trigger brownout"
            );
            assert_eq!(without.report.shed.brownout, 0);
            assert!(
                with.report.ttft.p99 <= without.report.ttft.p99,
                "brownout p99 {} must not exceed open-admission p99 {}",
                with.report.ttft.p99,
                without.report.ttft.p99
            );
            for r in [&with.report, &without.report] {
                assert_eq!(r.completed + r.shed.total(), r.requests);
            }
        }

        /// An empty fault plan is indistinguishable from `faults: None`
        /// — the resilience layer is inert unless faults are scheduled.
        #[test]
        fn empty_fault_plan_is_identical_to_none() {
            let mut cfg = ServeConfig::new(ServingSystemKind::Laer);
            cfg.workload = quick_workload(5).with_flip_period(Some(20));
            cfg.workload.requests = 80;
            let base = run_serving(&cfg);
            cfg.faults = Some(FaultPlan::new());
            let empty = run_serving(&cfg);
            assert!(!empty.faulted);
            assert_eq!(base.report, empty.report);
            assert_eq!(&base.ttft, &empty.ttft);
            assert_eq!(&base.layouts, &empty.layouts);
            assert_eq!(base.report.shed, ShedBreakdown::default());
        }

        /// Faulted runs export the resilience counters and journal the
        /// summary plus one record per telemetry sample: every scheduler
        /// step, plus one failure-edge sample per detection showing the
        /// reduced live set at the detection instant.
        #[test]
        fn faulted_run_journals_resilience_records() {
            let out = run_serving(&chaos_cfg(
                ServingSystemKind::Laer,
                device_failure_plan(3, 0.03, 0.09),
            ));
            let mut obs = laer_obs::Observer::new();
            record_observability(&out, &mut obs);
            let text = obs.registry.to_openmetrics();
            assert!(text.contains("laer_serve_shed_total"));
            assert!(text.contains("laer_serve_failures_total{system=\"laer\"}"));
            assert!(text.contains("laer_serve_recoveries_total{system=\"laer\"}"));
            let jsonl = obs.journal.to_jsonl();
            assert!(jsonl.contains("\"type\":\"serving-resilience\""));
            assert!(jsonl.contains("\"type\":\"serving-step\""));
            assert_eq!(obs.journal.len(), 2 + out.queue_depth.len());
            assert!(
                out.queue_depth.len() as u64 > out.report.steps,
                "a faulted run with detections carries failure-edge samples"
            );
            // The edge sample lands exactly one detection delay after
            // onset, carrying the reduced live count.
            let first = out
                .recovery_events
                .first()
                .expect("the plan injects a failure");
            let sample = out
                .live_devices
                .iter()
                .find(|&&(t, _)| (t - (first.detected + SERVE_DETECTION_DELAY)).abs() < 1e-12)
                .expect("detection-edge sample present");
            let full_live = out.live_devices.first().map_or(0, |&(_, l)| l);
            assert!(sample.1 < full_live, "edge sample shows the drop");
            assert_eq!(step_records(&out).len(), out.queue_depth.len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Satellite: identical `(seed, workload, SlaConfig)` produce
        /// identical latency histograms and layout histories.
        #[test]
        fn identical_configs_identical_outcomes(
            seed in 0u64..1_000_000,
            rate in 150.0f64..600.0,
            burst in 1.0f64..3.0,
            sys in prop_oneof![
                Just(ServingSystemKind::StaticEp),
                Just(ServingSystemKind::ReplicateHot),
                Just(ServingSystemKind::Laer),
            ],
        ) {
            let mut cfg = ServeConfig::new(sys);
            cfg.workload = WorkloadConfig::default()
                .with_seed(seed)
                .with_requests(25)
                .with_arrival_rate(rate)
                .with_burstiness(burst)
                .with_flip_period(Some(15));
            let a = run_serving(&cfg);
            let b = run_serving(&cfg);
            prop_assert_eq!(&a.ttft, &b.ttft, "TTFT histograms must be bit-identical");
            prop_assert_eq!(&a.tpot, &b.tpot, "TPOT histograms must be bit-identical");
            prop_assert_eq!(&a.layouts, &b.layouts, "layout histories must match");
            prop_assert_eq!(&a.report, &b.report);
        }
    }
}

#[cfg(test)]
mod calibrate {
    use super::*;

    #[test]
    #[ignore]
    fn sweep() {
        for &(nodes, dpn) in &[(1usize, 4usize)] {
            for &flip in &[None, Some(30u64)] {
                for &rate in &[900.0f64, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0] {
                    for kind in [
                        ServingSystemKind::StaticEp,
                        ServingSystemKind::ReplicateHot,
                        ServingSystemKind::Laer,
                    ] {
                        let mut cfg = ServeConfig::new(kind);
                        cfg.nodes = nodes;
                        cfg.devices_per_node = dpn;
                        cfg.queue_capacity = 512;
                        cfg.step_overhead = 2.0e-4;
                        cfg.workload = WorkloadConfig::default()
                            .with_seed(17)
                            .with_requests(300)
                            .with_arrival_rate(rate)
                            .with_flip_period(flip);
                        cfg.workload.mean_decode_tokens = 16.0;
                        let out = run_serving(&cfg);
                        let r = &out.report;
                        println!(
                            "{}x{} flip={:?} rate={:6.0} {:13} done={:3} rej={:3} steps={:5} p50={:.4} p99={:.4} tpot99={:.5} good={:7.1} thr={:9.0} relay={} reloc_t={:.4}",
                            nodes, dpn, flip, rate, r.system, r.completed, r.rejected, r.steps,
                            r.ttft.p50, r.ttft.p99, r.tpot.p99, r.goodput_rps, r.throughput_tps, r.relayouts, r.relocation_time
                        );
                    }
                }
            }
        }
    }
}
