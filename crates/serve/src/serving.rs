//! The continuous-batching serving loop on the deterministic simulator.
//!
//! Each scheduler step forms a batch from two phases — prefills popped
//! from a bounded admission queue (token-budgeted) and one decode token
//! for every running request — then walks the step through the sim's
//! per-device streams: attention on S1, dispatch All-to-All on S3,
//! expert compute on S1, combine All-to-All on S3, and a fixed host-side
//! overhead closing the step. When the active [`ServingSystem`] adopts
//! a new expert layout, the weight movement is priced through
//! `sim::collective` and enqueued as [`SpanLabel::Relayout`] spans on
//! the prefetch stream. The transfer overlaps serving — the scheduler
//! keeps routing against the *stale* layout until the transfer's
//! simulated finish time has passed — so re-layout is charged, never
//! assumed free: the spans occupy the prefetch stream, consecutive
//! moves serialise on it, and the old (worse) placement stays live for
//! the whole copy.
//!
//! [`run_serving`] loops over one private `ServingState`, which owns the
//! clock, queues, layouts and recovery state. Its `step` runs the phases
//! *fault edges*, *admit*, *relayout*, *execute* and *retire* in order,
//! or fast-forwards the clock when nothing is queued or running.

use std::collections::VecDeque;

use laer_cluster::{DegradedView, DeviceId, Interconnect, Topology};
use laer_model::{CostModel, GpuSpec, ModelPreset, BF16_BYTES};
use laer_obs::{
    Histogram, HistogramSnapshot, Observer, ResilienceRecord, ServeStepRecord, ServingRecord,
};
use laer_planner::{lite_route, relocation_moves, CapacityResponse, ExpertLayout, RelocationMove};
use laer_routing::RoutingMatrix;
use laer_sim::{
    all_to_all_time, record_timed_fault_spans, ActiveFaults, Engine, FaultPlan, HandledFailures,
    Span, SpanHandle, SpanLabel, StreamKind, Timeline,
};
use serde::{Deserialize, Serialize};

use crate::resilience::{
    RecoveryEvent, RetryBuffer, RetryEntry, ServiceRate, ShedBreakdown, MAX_RETRIES, RETRY_BACKOFF,
    SERVE_DETECTION_DELAY, SERVE_FAILOVER_TIMEOUT, SERVE_RELOAD_TIME,
};
use crate::sla::{LatencySummary, SLA};
use crate::systems::{ServingSystem, ServingSystemKind};
use crate::workload::{generate_requests, Request, TopicMix, WorkloadConfig};

/// Steps between re-layout decisions.
const RELAYOUT_PERIOD: u64 = 8;

/// Recent steps whose served statistics feed each re-layout decision
/// and the brownout's service-rate estimate.
const STATS_WINDOW: usize = 8;

/// Context length used to price attention per token.
const ATTENTION_CONTEXT: usize = 512;

/// Hard cap on scheduler steps (safety valve; requests still pending
/// when it trips are shed as `unserved`).
const MAX_STEPS: u64 = 200_000;

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
    /// Admission-queue bound; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Prefill token budget per step (continuous batching's chunk size).
    pub max_prefill_tokens: u64,
    /// Host-side per-step overhead in seconds (kernel launches, sampling).
    pub step_overhead: f64,
    /// Optional chaos schedule: time-stamped faults injected into the
    /// run. `None` (the default) serves fault-free and byte-identically
    /// to a plan-less build.
    pub faults: Option<FaultPlan>,
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
            queue_capacity: 64,
            max_prefill_tokens: 4096,
            step_overhead: 1.0e-3,
            faults: None,
            brownout_ttft_margin: Some(0.8),
        }
    }

    /// Serving continued from a training run: same cluster shape, same
    /// model, and — crucially — the *same popularity process*, resumed
    /// at `trained_iters` (the layer-0 routing stream the run trained
    /// on, fast-forwarded past the trained prefix).
    #[cfg(test)]
    fn from_training(
        exp: &laer_train::ExperimentConfig,
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
    /// Requests rejected at admission (or still pending at the step cap).
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
        // One unit per weight move, `expert_bytes` per unit.
        let mut traffic = Vec::with_capacity(moves.len());
        let mut host_fetch = false;
        for mv in moves {
            let src = Some(mv.src).filter(live).or_else(|| {
                let replicas = applied.replica_devices(mv.expert).into_iter();
                replicas.map(|(d, _)| d).find(live)
            });
            match src {
                Some(src) => traffic.push((src, mv.dst, 1)),
                None => host_fetch = true,
            }
        }
        let durations = all_to_all_time(net, traffic.iter().copied(), self.expert_bytes);
        // `expert_bytes` is integral, so this product is exact.
        let moved = traffic.iter().filter(|&&(src, dst, _)| src != dst).count();
        self.bytes += moved as f64 * self.expert_bytes;
        self.time += durations.iter().fold(0.0f64, |a, &b| a.max(b));
        let devices = live_devices(live_mask);
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
        let reload = if host_fetch { SERVE_RELOAD_TIME } else { 0.0 };
        finish + reload
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
    /// under [`MAX_RETRIES`] re-enqueue with exponential backoff, the
    /// rest are shed as `retry_exhausted`.
    fn interrupt(&mut self, running: &mut Vec<Active>, dead: impl Fn(&Active) -> bool, clock: f64) {
        let (interrupted, kept): (Vec<Active>, _) = running.drain(..).partition(|a| dead(a));
        *running = kept;
        for a in interrupted {
            self.interrupted += 1;
            if a.retries >= MAX_RETRIES {
                self.shed.retry_exhausted += 1;
            } else {
                self.retries += 1;
                let backoff = RETRY_BACKOFF * (1u64 << a.retries.min(32)) as f64;
                self.retry_buf.push(RetryEntry {
                    req: a.req,
                    retries: a.retries + 1,
                    eligible: clock + backoff,
                    first_ttft: Some(a.ttft),
                });
            }
        }
    }
}

/// The devices `live_mask` keeps in service, ascending.
fn live_devices(live_mask: &[bool]) -> Vec<DeviceId> {
    let live = live_mask.iter().enumerate().filter(|&(_, &l)| l);
    live.map(|(d, _)| DeviceId::new(d)).collect()
}

/// The network a step is priced on: its degraded view, else the
/// nominal topology.
fn priced_on<'n>(view: Option<&'n DegradedView>, topo: &'n Topology) -> &'n dyn Interconnect {
    match view {
        Some(v) => v,
        None => topo,
    }
}

/// The whole mutable state of one serving run, stepped by
/// [`run_serving`].
pub(crate) struct ServingState<'a> {
    cfg: &'a ServeConfig,
    /// The fault plan; `None` when absent or empty.
    plan: Option<&'a FaultPlan>,
    requests: Vec<Request>,
    topo: Topology,
    cost: CostModel,
    top_k: u64,
    /// Attention seconds per token at [`ATTENTION_CONTEXT`].
    att_per_token: f64,
    system: Box<dyn ServingSystem>,
    mix: TopicMix,
    engine: Engine,
    relocation: RelocationLedger,
    /// Virtual wall clock: end of the last step or idle wait. Not the
    /// engine makespan, so a background relocation that outlasts the
    /// step that launched it never stalls the serving steps.
    clock: f64,
    steps: u64,
    /// Index of the first request that has not arrived yet.
    next_arrival: usize,
    queue: VecDeque<QueueEntry>,
    running: Vec<Active>,
    rate: ServiceRate,
    res: Resilience,
    /// The layout serving routes against.
    applied: ExpertLayout,
    /// Replica-count vectors of every applied layout (initial first).
    layouts: Vec<Vec<usize>>,
    /// A re-layout in flight on the prefetch stream: target layout and
    /// the virtual time its weight transfer completes.
    pending: Option<(ExpertLayout, f64)>,
    /// The faults in force this step; empty without a plan.
    active: ActiveFaults,
    /// The devices serving runs on: failures enter only through an
    /// elastic re-plan, because a restarted system runs on replacement
    /// hardware and its device set never shrinks.
    live_mask: Vec<bool>,
    handled: HandledFailures,
    /// Degraded links at the last fault-edge sample.
    links: Vec<(DeviceId, DeviceId, f64)>,
    failures: u64,
    rejoins: u64,
    recovery_events: Vec<RecoveryEvent>,
    /// `Recovery` annotation spans of the devices each episode stalled.
    recovery_spans: Vec<Span>,
    queue_depth: Vec<(f64, usize)>,
    live_trace: Vec<(f64, usize)>,
    ttft: Vec<f64>,
    tpot: Vec<f64>,
    completed: usize,
    good: usize,
    generated_tokens: u64,
}

impl<'a> ServingState<'a> {
    /// A run of `cfg` before its first step.
    pub(crate) fn new(cfg: &'a ServeConfig) -> Self {
        let requests = generate_requests(&cfg.workload);
        let topo = cfg.topology();
        let n = topo.num_devices();
        let model = cfg.preset.config();
        let gpu = GpuSpec::a100();
        let capacity = model.default_capacity();
        let system = cfg
            .system
            .build(&topo, &model, gpu, capacity, RELAYOUT_PERIOD, STATS_WINDOW);
        let applied = system.layout().clone();
        Self {
            cfg,
            plan: cfg.faults.as_ref().filter(|p| !p.is_empty()),
            requests,
            cost: CostModel::new(&model, gpu),
            top_k: model.top_k() as u64,
            att_per_token: model.attention_flops_per_token(ATTENTION_CONTEXT) as f64
                / gpu.effective_flops(),
            system,
            mix: TopicMix::new(&cfg.workload, n, model.experts()),
            engine: Engine::new(&topo),
            relocation: RelocationLedger {
                expert_bytes: (model.expert_params() * BF16_BYTES) as f64,
                bytes: 0.0,
                time: 0.0,
            },
            clock: 0.0,
            steps: 0,
            next_arrival: 0,
            queue: VecDeque::new(),
            running: Vec::new(),
            rate: ServiceRate::new(STATS_WINDOW),
            res: Resilience::default(),
            layouts: vec![applied.replica_vector()],
            applied,
            pending: None,
            active: ActiveFaults::default(),
            live_mask: vec![true; n],
            handled: HandledFailures::default(),
            links: Vec::new(),
            failures: 0,
            rejoins: 0,
            recovery_events: Vec::new(),
            recovery_spans: Vec::new(),
            queue_depth: Vec::new(),
            live_trace: Vec::new(),
            ttft: Vec::new(),
            tpot: Vec::new(),
            completed: 0,
            good: 0,
            generated_tokens: 0,
            topo,
        }
    }

    /// One scheduler step: fault edges, admit, then either an idle
    /// fast-forward or one executed batch (relayout, execute, retire).
    /// Returns `false` once every request is resolved or the step cap
    /// tripped.
    pub(crate) fn step(&mut self) -> bool {
        if self.steps >= MAX_STEPS {
            return false;
        }
        if let Some(plan) = self.plan {
            self.fault_edges(plan);
        }
        self.admit();
        if self.queue.is_empty() && self.running.is_empty() {
            return self.idle();
        }
        // Telemetry once per executed step, at step start
        // (post-admission, pre-batching).
        let live_devs = live_devices(&self.live_mask);
        self.sample(live_devs.len());
        let prefills = self.prefill_batch();
        // The network view this step is priced on; a fault-free step
        // builds none.
        let degraded =
            live_devs.len() < self.live_mask.len() || self.active.degraded_links().next().is_some();
        let view = degraded.then(|| self.view_on(&self.live_mask));
        self.relayout(view.as_ref());
        let demand = self.execute(&prefills, &live_devs, view.as_ref());
        self.retire(prefills, &live_devs);
        self.system.observe(self.steps, &demand);
        self.steps += 1;
        true
    }

    /// The network view serving prices on when `live_mask` says which
    /// devices are in service.
    fn view_on(&self, live_mask: &[bool]) -> DegradedView {
        let removed = live_mask.iter().enumerate().filter(|&(_, &l)| !l);
        let removed = removed.map(|(d, _)| DeviceId::new(d));
        self.active.view(&self.topo, removed)
    }

    /// Samples the admission-queue depth and the live-device count.
    fn sample(&mut self, live: usize) {
        self.queue_depth.push((self.clock, self.queue.len()));
        self.live_trace.push((self.clock, live));
    }

    /// Fault edges: samples the plan at the current virtual time and
    /// runs the rejoin, link and failure transitions before admission.
    fn fault_edges(&mut self, plan: &FaultPlan) {
        self.active = plan.active_in(self.clock, self.clock);
        self.system
            .set_planner_available(!self.active.planner_outage());
        let edges = self.handled.edges(&self.active);

        // Recovery edge: removed devices whose failure window closed
        // rejoin; an elastic system re-plans for the regained capacity
        // as a hitless background re-layout picked up by `relayout`.
        let mut grew = false;
        for d in edges.rejoined {
            if !self.live_mask[d.index()] {
                self.live_mask[d.index()] = true;
                self.rejoins += 1;
                grew = true;
            }
        }
        if grew {
            let view = self.view_on(&self.live_mask);
            let _ = self.system.handle_capacity_change(&view);
        }

        // Link-profile edge: re-plan (in the background) when the set of
        // degraded links changes.
        let links: Vec<(DeviceId, DeviceId, f64)> = self.active.degraded_links().collect();
        if links != self.links {
            self.links = links;
            let view = self.view_on(&self.live_mask);
            let _ = self.system.handle_capacity_change(&view);
        }

        if !edges.failed.is_empty() {
            self.detect(&edges.failed);
        }
    }

    /// Failure edge: detects `failed`, then lets the system choose
    /// between an elastic survivor re-plan and a full restart.
    fn detect(&mut self, failed: &[DeviceId]) {
        self.failures += failed.len() as u64;
        self.handled.handle(failed);
        let detected = self.clock;
        self.clock += SERVE_DETECTION_DELAY;
        let mut trial = self.live_mask.clone();
        for d in failed {
            trial[d.index()] = false;
        }
        // The detection instant is telemetry too: without this sample the
        // next one lands only after the (much longer) recovery, so no
        // step-series detector could see the live-set drop at detection.
        self.sample(trial.iter().filter(|&&l| l).count());
        let view = self.view_on(&trial);
        match self.system.handle_capacity_change(&view) {
            CapacityResponse::Replan => {
                self.live_mask = trial;
                // Requests homed on a dead device are interrupted.
                let live = &self.live_mask;
                self.res
                    .interrupt(&mut self.running, |a| !live[a.home], self.clock);
                // Blocking drain: the applied layout holds replicas on
                // the dead device, so serving stops until the survivor
                // layout lands. Moves whose planned source died are
                // re-fetched from a surviving replica, or from host
                // storage when the sole replica died with the device.
                self.pending = None;
                let target = self.system.layout().clone();
                let moves = relocation_moves(&self.topo, &self.applied, &target);
                self.clock = self.relocation.charge(
                    &mut self.engine,
                    &view,
                    &self.applied,
                    &moves,
                    &self.live_mask,
                    self.clock,
                );
                self.adopt(target);
                self.recovered("drain-replan", detected, live_devices(&self.live_mask));
            }
            CapacityResponse::Restart => {
                // Non-elastic: every in-flight request dies with the job,
                // which waits out the collective timeout and reloads onto
                // replacement hardware (the device set does not shrink).
                self.res.interrupt(&mut self.running, |_| true, self.clock);
                self.clock = detected + SERVE_FAILOVER_TIMEOUT + SERVE_RELOAD_TIME;
                self.recovered("restart", detected, self.topo.devices().collect());
                // Replacement hardware: tell the system its post-restart
                // capacity (links may still be degraded, but no devices
                // are missing).
                let view = self.view_on(&self.live_mask);
                let _ = self.system.handle_capacity_change(&view);
            }
            CapacityResponse::Unchanged => {}
        }
        self.engine.barrier_at(self.clock);
    }

    /// Ends a `kind` recovery episode detected at `detected`: serving
    /// resumes now, and each `stalled` device gets a `Recovery` span.
    fn recovered(&mut self, kind: &str, detected: f64, stalled: Vec<DeviceId>) {
        let (start, end) = (detected, self.clock);
        if end > start {
            self.recovery_spans
                .extend(stalled.into_iter().map(|device| Span {
                    device,
                    stream: StreamKind::Compute,
                    label: SpanLabel::Recovery,
                    start,
                    end,
                }));
        }
        let kind = kind.to_string();
        let resumed = end;
        self.recovery_events.push(RecoveryEvent {
            kind,
            detected,
            resumed,
        });
    }

    /// Admit: retries whose backoff expired re-enter at the queue front
    /// (they were admitted once already), then arrivals up to now join
    /// its back. While capacity is degraded, the SLO-aware brownout
    /// sheds arrivals whose estimated queueing wait cannot fit inside
    /// the TTFT budget.
    fn admit(&mut self) {
        let retries = self.res.retry_buf.drain_eligible(self.clock);
        for entry in retries.into_iter().rev() {
            self.queue.push_front(QueueEntry {
                req: entry.req,
                retries: entry.retries,
                first_ttft: entry.first_ttft,
            });
        }
        let degraded = self.live_mask.contains(&false)
            || self.active.straggler_devices().next().is_some()
            || self.active.degraded_links().next().is_some();
        let brownout = self.cfg.brownout_ttft_margin.filter(|_| degraded);
        while let Some(&req) = self.requests.get(self.next_arrival) {
            if req.arrival > self.clock {
                break;
            }
            self.next_arrival += 1;
            if self.queue.len() >= self.cfg.queue_capacity {
                self.res.shed.queue_full += 1;
                continue;
            }
            let over_budget = |margin: f64| {
                let wait = self.rate.estimated_wait(self.queue.len());
                wait.is_some_and(|w| w > margin * SLA.ttft)
            };
            if brownout.is_some_and(over_budget) {
                self.res.shed.brownout += 1;
                continue;
            }
            self.queue.push_back(QueueEntry {
                req,
                retries: 0,
                first_ttft: None,
            });
        }
    }

    /// Nothing queued or running: fast-forwards the clock to the next
    /// arrival or retry wakeup. Returns `false` when there is none.
    fn idle(&mut self) -> bool {
        let next_arrival = self.requests.get(self.next_arrival).map(|r| r.arrival);
        let wakeups = [next_arrival, self.res.retry_buf.next_eligible()];
        let Some(wake) = wakeups.into_iter().flatten().reduce(f64::min) else {
            return false;
        };
        self.clock = self.clock.max(wake);
        self.engine.barrier_at(self.clock);
        true
    }

    /// Pops the step's prefills: queued requests within the prefill
    /// token budget, and always at least one.
    fn prefill_batch(&mut self) -> Vec<QueueEntry> {
        let mut prefills = Vec::new();
        let mut budget = self.cfg.max_prefill_tokens;
        while let Some(e) = self.queue.front() {
            if !prefills.is_empty() && e.req.prompt_tokens > budget {
                break;
            }
            budget = budget.saturating_sub(e.req.prompt_tokens);
            prefills.extend(self.queue.pop_front());
        }
        prefills
    }

    /// Serves `target` from now on.
    fn adopt(&mut self, target: ExpertLayout) {
        self.layouts.push(target.replica_vector());
        self.applied = target;
    }

    /// Relayout: adopts a weight transfer that has finished by now (the
    /// new layout only serves traffic once its copy has been paid for),
    /// then launches the next one if the system wants a different
    /// layout and the prefetch stream is free of one. The move is
    /// priced on the step's network as an all-to-all of expert weights;
    /// serving continues on the stale layout until it finishes.
    fn relayout(&mut self, view: Option<&DegradedView>) {
        match self.pending.take() {
            Some((target, finish)) if finish <= self.clock => self.adopt(target),
            pending => self.pending = pending,
        }
        if self.pending.is_some() || self.system.layout() == &self.applied {
            return;
        }
        let target = self.system.layout().clone();
        let moves = relocation_moves(&self.topo, &self.applied, &target);
        if moves.is_empty() {
            self.adopt(target);
        } else {
            let finish = self.relocation.charge(
                &mut self.engine,
                priced_on(view, &self.topo),
                &self.applied,
                &moves,
                &self.live_mask,
                self.clock,
            );
            self.pending = Some((target, finish));
        }
    }

    /// Execute: routes the batch's tokens (spread over the live devices)
    /// against the applied layout and walks the step through their
    /// streams, stretching straggler compute by its multiplier. Advances
    /// the clock to the step's end and returns the routed demand.
    fn execute(
        &mut self,
        prefills: &[QueueEntry],
        live_devs: &[DeviceId],
        view: Option<&DegradedView>,
    ) -> RoutingMatrix {
        let prefill_tokens: u64 = prefills.iter().map(|e| e.req.prompt_tokens).sum();
        let step_tokens = prefill_tokens + self.running.len() as u64;
        // Spread the tokens as evenly as possible over the live devices
        // (the first `step_tokens % m` get one extra).
        let m = live_devs.len() as u64;
        let mut token_budgets = vec![0u64; self.live_mask.len()];
        for (k, d) in live_devs.iter().enumerate() {
            token_budgets[d.index()] = step_tokens / m + u64::from((k as u64) < step_tokens % m);
        }
        let assignment_budgets: Vec<u64> = token_budgets.iter().map(|&t| t * self.top_k).collect();
        let demand = self.mix.step(&assignment_budgets);
        let routing = lite_route(&self.topo, &demand, &self.applied);
        let compute_loads = routing.device_compute_loads();
        let traffic = routing
            .entries()
            .iter()
            .map(|&(src, _, dst, tokens)| (src, dst, tokens));
        let net = priced_on(view, &self.topo);
        // Combine is dispatch transposed, which prices the same.
        let a2a_times = all_to_all_time(net, traffic, self.cost.v_comm());

        // Each stage's span on a device waits for that device's span of
        // the stage before.
        let (engine, active) = (&mut self.engine, &self.active);
        let compute = |engine: &mut Engine, label, secs: &dyn Fn(DeviceId) -> f64, after: &[_]| {
            let spans = live_devs.iter().enumerate().map(|(k, &dev)| {
                let deps = after.get(k).map(std::slice::from_ref).unwrap_or_default();
                engine.enqueue(dev, StreamKind::Compute, label, secs(dev), deps)
            });
            spans.collect::<Vec<SpanHandle>>()
        };
        let a2a = |engine: &mut Engine, times: &[f64], after: &[SpanHandle]| {
            let durs: Vec<f64> = live_devs.iter().map(|d| times[d.index()]).collect();
            let deps: Vec<Vec<SpanHandle>> = after.iter().map(|&h| vec![h]).collect();
            engine.enqueue_collective(
                live_devs,
                StreamKind::A2a,
                SpanLabel::AllToAll,
                &durs,
                &deps,
            )
        };
        let attention = |dev: DeviceId| {
            token_budgets[dev.index()] as f64 * self.att_per_token * active.compute_multiplier(dev)
        };
        let experts = |dev: DeviceId| {
            let loads = compute_loads[dev.index()];
            self.cost.expert_forward_time(loads) * active.compute_multiplier(dev)
        };
        let attended = compute(engine, SpanLabel::Attention, &attention, &[]);
        let dispatched = a2a(engine, &a2a_times, &attended);
        let computed = compute(engine, SpanLabel::ExpertCompute, &experts, &dispatched);
        let combined = a2a(engine, &a2a_times, &computed);
        let overhead = |_| self.cfg.step_overhead;
        let closing = compute(engine, SpanLabel::Other, &overhead, &combined);
        // The step ends when every device's closing span does — NOT at
        // the engine makespan, which may include a background relocation
        // still in flight past this step.
        let step_end = closing.iter().map(|&h| engine.span(h).end);
        let step_end = step_end.fold(self.clock, f64::max);
        engine.barrier_at(step_end);
        self.rate.record(step_end - self.clock, prefills.len());
        self.clock = step_end;
        demand
    }

    /// Retire: every running request decoded one token this step (those
    /// with none left complete), and the prefills' first tokens land at
    /// the step's end. A retried request already delivered its first
    /// token before the interruption, so its original TTFT stands and
    /// no second sample is emitted.
    fn retire(&mut self, prefills: Vec<QueueEntry>, live_devs: &[DeviceId]) {
        let step_end = self.clock;
        self.generated_tokens += (self.running.len() + prefills.len()) as u64;
        self.running.retain_mut(|a| {
            a.decode_left -= 1;
            if a.decode_left > 0 {
                return true;
            }
            let tpot = (step_end - a.first_token) / (a.req.decode_tokens - 1) as f64;
            self.tpot.push(tpot);
            self.completed += 1;
            if a.ttft <= SLA.ttft && tpot <= SLA.tpot {
                self.good += 1;
            }
            false
        });
        for entry in prefills {
            let r = entry.req;
            let ttft = entry.first_ttft.unwrap_or_else(|| {
                self.ttft.push(step_end - r.arrival);
                step_end - r.arrival
            });
            if r.decode_tokens <= 1 {
                self.completed += 1;
                if ttft <= SLA.ttft {
                    self.good += 1;
                }
            } else {
                self.running.push(Active {
                    req: r,
                    ttft,
                    first_token: step_end,
                    decode_left: r.decode_tokens - 1,
                    home: live_devs[(r.id as usize) % live_devs.len()].index(),
                    retries: entry.retries,
                });
            }
        }
    }

    /// The run's outcome. Anything still pending (the step cap tripped)
    /// is shed as `unserved`: nothing is silently lost.
    pub(crate) fn finish(mut self) -> ServingOutcome {
        self.res.shed.unserved = self.queue.len()
            + self.running.len()
            + self.res.retry_buf.len()
            + (self.requests.len() - self.next_arrival);
        let duration = self.engine.now();
        let per_second = |count: f64| {
            if duration > 0.0 {
                count / duration
            } else {
                0.0
            }
        };
        let events = self.recovery_events;
        // `Sum<f64>` folds from -0.0 (the IEEE additive identity); pin the
        // empty case to +0.0 so fault-free reports serialize as plain zero.
        let recovery_time: f64 = if events.is_empty() {
            0.0
        } else {
            events.iter().map(RecoveryEvent::duration).sum()
        };
        let report = ServeReport {
            system: self.cfg.system.id().to_string(),
            offered_rps: self.cfg.workload.arrival_rate,
            requests: self.requests.len(),
            completed: self.completed,
            rejected: self.res.shed.total(),
            steps: self.steps,
            duration,
            throughput_tps: per_second(self.generated_tokens as f64),
            ttft: LatencySummary::from_samples(&self.ttft),
            tpot: LatencySummary::from_samples(&self.tpot),
            slo_attainment: if self.requests.is_empty() {
                1.0
            } else {
                self.good as f64 / self.requests.len() as f64
            },
            goodput_rps: per_second(self.good as f64),
            relayouts: self.layouts.len() as u64 - 1,
            relocation_bytes: self.relocation.bytes,
            relocation_time: self.relocation.time,
            shed: self.res.shed,
            retries: self.res.retries,
            interrupted: self.res.interrupted,
            failures: self.failures,
            rejoins: self.rejoins,
            recoveries: events.len() as u64,
            recovery_time,
        };
        // Faulted runs annotate the timeline with the injected fault
        // windows and the recovery episodes (excluded from makespan and
        // occupancy; rendered as their own tracks in the Chrome trace).
        let mut timeline = self.engine.into_timeline();
        if let Some(plan) = self.plan {
            record_timed_fault_spans(&mut timeline, plan, duration.max(self.clock));
        }
        for span in self.recovery_spans {
            timeline.push(span);
        }
        ServingOutcome {
            report,
            ttft: self.ttft,
            tpot: self.tpot,
            layouts: self.layouts,
            queue_depth: self.queue_depth,
            timeline,
            recovery_events: events,
            live_devices: self.live_trace,
            faulted: self.plan.is_some(),
        }
    }
}

/// Runs the serving loop to completion (every request finished or
/// rejected, or the step cap reached).
///
/// Deterministic: the outcome is a pure function of the configuration.
pub fn run_serving(cfg: &ServeConfig) -> ServingOutcome {
    let mut state = ServingState::new(cfg);
    while state.step() {}
    state.finish()
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

    let r = &mut obs.registry;
    r.declare_counter(
        "laer_serve_requests_total",
        "Serving requests by final disposition.",
    );
    for (outcome, count) in [
        ("completed", report.completed),
        ("rejected", report.rejected),
    ] {
        let series = [("system", system), ("outcome", outcome)];
        r.inc("laer_serve_requests_total", &series, count as u64);
    }
    r.declare_counter("laer_serve_shed_total", "Shed requests by cause.");
    for (cause, count) in [
        ("queue-full", report.shed.queue_full),
        ("brownout", report.shed.brownout),
        ("retry-exhausted", report.shed.retry_exhausted),
        ("unserved", report.shed.unserved),
    ] {
        let series = [("system", system), ("cause", cause)];
        r.inc("laer_serve_shed_total", &series, count as u64);
    }
    for (name, help, count) in [
        (
            "laer_serve_steps_total",
            "Scheduler steps executed.",
            report.steps,
        ),
        (
            "laer_serve_relayouts_total",
            "Expert re-layouts applied.",
            report.relayouts,
        ),
        (
            "laer_serve_retries_total",
            "Retry re-enqueues after failure interruptions.",
            report.retries,
        ),
        (
            "laer_serve_failures_total",
            "Device failures detected.",
            report.failures,
        ),
        (
            "laer_serve_recoveries_total",
            "Completed recovery episodes (drain-replan or restart).",
            report.recoveries,
        ),
    ] {
        r.declare_counter(name, help);
        r.inc(name, &labels, count);
    }
    for (name, help, value) in [
        (
            "laer_serve_goodput_rps",
            "SLO-meeting completions per virtual second.",
            report.goodput_rps,
        ),
        (
            "laer_serve_throughput_tps",
            "Output tokens generated per virtual second.",
            report.throughput_tps,
        ),
        (
            "laer_serve_relocation_seconds",
            "Virtual seconds of charged re-layout weight traffic.",
            report.relocation_time,
        ),
        (
            "laer_serve_recovery_seconds",
            "Virtual seconds from failure detection to serving resuming.",
            report.recovery_time,
        ),
    ] {
        r.declare_gauge(name, help);
        r.set(name, &labels, value);
    }

    // Each distribution is observed into the registry and into a local
    // copy of its bucket layout, which the journal snapshots.
    let depths: Vec<f64> = out.queue_depth.iter().map(|&(_, d)| d as f64).collect();
    let [ttft, tpot, queue_depth] = [
        (
            "laer_serve_ttft_seconds",
            "Time to first token over admitted requests.",
            Histogram::exponential(1e-3, 2.0, 14),
            &out.ttft,
        ),
        (
            "laer_serve_tpot_seconds",
            "Time per output token over multi-token completions.",
            Histogram::exponential(1e-4, 2.0, 14),
            &out.tpot,
        ),
        (
            "laer_serve_queue_depth",
            "Admission-queue depth sampled once per scheduler step.",
            Histogram::linear(0.0, 4.0, 16),
            &depths,
        ),
    ]
    .map(|(name, help, mut hist, samples)| {
        r.declare_histogram(name, help, hist.clone());
        for &v in samples {
            hist.observe(v);
            r.observe(name, &labels, v);
        }
        HistogramSnapshot::of(&hist)
    });
    obs.journal.push(
        "serving",
        &ServingRecord {
            system: system.to_string(),
            steps: report.steps,
            queue_depth,
            ttft,
            tpot,
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
/// [`SERVE_DETECTION_DELAY`] after onset.
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
        use laer_train::ExperimentConfig;

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

        /// An interrupted request retries with exponential backoff until
        /// `MAX_RETRIES`; past it, it is shed as `retry_exhausted`.
        #[test]
        fn interrupts_retry_until_the_cap_then_shed() {
            let active = |id: u64, retries: u32| Active {
                req: Request {
                    id,
                    arrival: 0.0,
                    prompt_tokens: 8,
                    decode_tokens: 4,
                },
                ttft: 0.01,
                first_token: 0.01,
                decode_left: 2,
                home: id as usize,
                retries,
            };
            let mut res = Resilience::default();
            let mut running = vec![active(0, 2), active(1, MAX_RETRIES), active(2, 0)];
            res.interrupt(&mut running, |a| a.home != 2, 1.0);
            assert_eq!(running.len(), 1);
            assert_eq!((res.interrupted, res.retries), (2, 1));
            assert_eq!(res.shed.retry_exhausted, 1);
            let retry = res.retry_buf.drain_eligible(f64::INFINITY);
            assert_eq!(retry.len(), 1);
            assert_eq!((retry[0].req.id, retry[0].retries), (0, 3));
            assert_eq!(retry[0].eligible, 1.0 + 4.0 * RETRY_BACKOFF);
            assert_eq!(retry[0].first_ttft, Some(0.01));
        }

        /// Every request is in exactly one place after each step.
        fn accounted(state: &ServingState) -> usize {
            let shed = &state.res.shed;
            state.completed
                + shed.queue_full
                + shed.brownout
                + shed.retry_exhausted
                + state.queue.len()
                + state.running.len()
                + state.res.retry_buf.len()
                + (state.requests.len() - state.next_arrival)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Under a random plan (a failure that rejoins, a straggler,
            /// a degraded link and a planner outage), every step keeps
            /// each request accounted for exactly once and every running
            /// request homed on a live device, and the stepped run ends
            /// exactly as `run_serving` does.
            #[test]
            fn serving_invariants_hold_after_every_step(
                failed in 0usize..16,
                slow in 0usize..16,
                link in (0usize..16, 1usize..16),
                starts in proptest::collection::vec(0.0f64..0.08, 4),
                lens in proptest::collection::vec(0.01f64..0.06, 4),
                factors in (1.5f64..4.0, 0.1f64..0.9),
                sys in prop_oneof![
                    Just(ServingSystemKind::ReplicateHot),
                    Just(ServingSystemKind::Laer),
                ],
            ) {
                let d = DeviceId::new;
                let kinds = [
                    FaultKind::DeviceFailure { device: d(failed) },
                    FaultKind::Straggler { device: d(slow), factor: factors.0 },
                    FaultKind::LinkDegrade {
                        a: d(link.0),
                        b: d((link.0 + link.1) % 16),
                        factor: factors.1,
                    },
                    FaultKind::PlannerOutage,
                ];
                let mut plan = FaultPlan::new();
                for ((kind, start), len) in kinds.into_iter().zip(starts).zip(lens) {
                    plan.push_timed(timed(kind, start, start + len)).unwrap();
                }
                let cfg = chaos_cfg(sys, plan);
                let mut state = ServingState::new(&cfg);
                loop {
                    let more = state.step();
                    prop_assert_eq!(accounted(&state), state.requests.len());
                    prop_assert!(state.running.iter().all(|a| state.live_mask[a.home]));
                    if !more {
                        break;
                    }
                }
                prop_assert!(state.failures > 0 && state.rejoins <= state.failures);
                let stepped = format!("{:?}", state.finish());
                prop_assert_eq!(stepped, format!("{:?}", run_serving(&cfg)));
            }
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
