//! LAER-MoE as a [`MoeSystem`]: the FSEP executor driven by the
//! load-balancing planner, re-laying out experts *every iteration*.
//!
//! Two planning modes exist:
//!
//! * [`PlanningMode::Async`] (default) — faithful to the Fig. 7
//!   workflow: the layout tuner runs asynchronously on the CPU using the
//!   routing information of *previous* iterations (bridged by the
//!   [`LayoutPolicy`]'s per-layer demand history), so the layout a layer
//!   executes is one iteration stale; the synchronous lite-routing
//!   dispatcher then routes the actual demand on that layout.
//! * [`PlanningMode::Oracle`] — plans with the current iteration's
//!   demand; an upper bound useful for measuring the staleness cost.
//!
//! Demand history (the EMA, or replay foresight for RL via
//! [`LaerSystem::install_replay`]) and the network, outage and capacity
//! rules belong to the [`LayoutPolicy`] serving's LAER loop drives too;
//! this system keeps one prepared layout per layer and its fallbacks.

use crate::context::SystemContext;
use crate::system::{audit_belief, LayerPlan, MoeSystem, SystemError};
use laer_cluster::DegradedView;
use laer_fsep::ScheduleOptions;
use laer_obs::PlanAudit;
use laer_planner::{
    lite_route, AnyPredictor, CapacityResponse, ExpertLayout, LayoutPolicy, Plan, PlannerConfig,
    Proposal, ReplicaScheme,
};
use laer_routing::{RoutingMatrix, RoutingTrace};
use serde::{Deserialize, Serialize};

/// How the layout tuner sees the routing demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanningMode {
    /// Plan the next iteration's layout from the history of previous
    /// iterations (Fig. 7's CPU-side tuner).
    Async,
    /// Plan with the current iteration's demand (staleness-free upper
    /// bound).
    Oracle,
}

/// What the tuner believed when it produced a layout: the predicted
/// Eq. 1 cost and the per-device loads of the (possibly stale) demand it
/// planned on. Checkpointed with the layout so an audit survives
/// restore.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Belief {
    comm: f64,
    comp: f64,
    loads: Vec<u64>,
}

impl Belief {
    fn of(plan: &Plan) -> Self {
        Self {
            comm: plan.predicted.comm,
            comp: plan.predicted.comp,
            loads: plan.routing.device_compute_loads(),
        }
    }

    fn audit(&self, trigger: &str) -> PlanAudit {
        PlanAudit::new(trigger, self.comm, self.comp, self.loads.clone())
    }
}

/// A layout the CPU tuner prepared for a layer's next iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Prepared {
    layout: ExpertLayout,
    belief: Belief,
    /// Whether recorded-trace foresight predicted the demand (audited
    /// with trigger "replay" instead of "periodic").
    from_replay: bool,
}

impl Prepared {
    fn of(proposal: Proposal) -> Self {
        Self {
            belief: Belief::of(&proposal.plan),
            layout: proposal.plan.layout,
            from_replay: proposal.from_replay,
        }
    }
}

/// Per-layer asynchronous-tuner state (serializable: with the policy's
/// demand histories, this is what a training checkpoint must capture to
/// resume bit-identically).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct LayerState {
    next: Option<Prepared>,
    /// The layout executed by the most recent iteration and its belief
    /// (none for the boot layout) — the fallback while nothing can be
    /// planned.
    last: Option<(ExpertLayout, Option<Belief>)>,
}

/// Serialized form of [`LaerSystem`]'s mutable state.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LaerCheckpoint {
    layers: Vec<LayerState>,
    histories: Vec<AnyPredictor>,
}

/// The full LAER-MoE system (FSEP + planner).
#[derive(Debug, Clone)]
pub struct LaerSystem {
    ctx: SystemContext,
    policy: LayoutPolicy,
    schedule: ScheduleOptions,
    mode: PlanningMode,
    layers: Vec<LayerState>,
}

impl LaerSystem {
    /// Creates LAER-MoE with the full Alg. 2 planner, all Fig. 5
    /// communication optimisations and the asynchronous (Fig. 7)
    /// planning mode.
    pub fn new(ctx: SystemContext) -> Self {
        Self::with_scheme(ctx, ReplicaScheme::Both, ScheduleOptions::optimized())
    }

    /// Creates an ablated variant (Fig. 12): a single replica scheme
    /// and/or disabled communication optimisations.
    pub fn with_scheme(
        ctx: SystemContext,
        scheme: ReplicaScheme,
        schedule: ScheduleOptions,
    ) -> Self {
        let policy = LayoutPolicy::new(
            PlannerConfig::new(ctx.capacity())
                .with_scheme(scheme)
                .with_epsilon(4),
            ctx.model(),
            ctx.cost().gpu(),
            ctx.topology().clone(),
        );
        Self {
            ctx,
            policy,
            schedule,
            mode: PlanningMode::Async,
            layers: Vec::new(),
        }
    }

    /// Selects the planning mode (default [`PlanningMode::Async`]).
    pub fn with_mode(mut self, mode: PlanningMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enables the executor's chunked dispatch/combine pipeline (clamped
    /// to at least 1 chunk): the schedule splits every layer into
    /// `num_chunks` per-chunk A2A/expert spans AND the layout tuner
    /// prices candidates with the pipelined Eq. 1 model, so planning and
    /// execution agree on what "exposed communication" means.
    pub fn with_num_chunks(mut self, num_chunks: usize) -> Self {
        self.schedule = self.schedule.with_num_chunks(num_chunks);
        self.policy = self.policy.with_num_chunks(num_chunks);
        self
    }

    /// Installs per-layer replay traces ([`LayoutPolicy::install_replay`])
    /// — what an RL train phase calls at each epoch boundary — and
    /// re-plans every prepared layout from its trace's first iteration,
    /// so foresight applies from the very first replayed step.
    ///
    /// # Panics
    ///
    /// Panics if a trace's matrix shapes disagree with the cluster
    /// topology (the planner's documented preconditions).
    pub fn install_replay(&mut self, traces: Vec<RoutingTrace>, noise: f64, seed: u64) {
        self.policy.install_replay(traces, noise, seed);
        for (layer, state) in self.layers.iter_mut().enumerate() {
            if let Some(proposal) = self.policy.propose(layer, self.ctx.fault_view()) {
                state.next = Some(Prepared::of(proposal));
            }
        }
    }

    /// The planning mode in use.
    pub fn mode(&self) -> PlanningMode {
        self.mode
    }

    /// The layout executed this iteration under async planning, plus the
    /// audit trigger and the belief the layout was planned with: the
    /// layout the CPU tuner prepared; else a synchronous plan from the
    /// current demand (cold start, or the first iteration after an
    /// outage); else, while nothing can be planned, the previous
    /// iteration's layout or, on a cold start, the boot layout.
    fn async_layout(
        &mut self,
        layer: usize,
        demand: &RoutingMatrix,
    ) -> (ExpertLayout, &'static str, Option<Belief>) {
        if self.layers.len() <= layer {
            self.layers.resize_with(layer + 1, LayerState::default);
        }
        if let Some(next) = self.layers[layer].next.take() {
            let trigger = if next.from_replay {
                "replay"
            } else {
                "periodic"
            };
            return (next.layout, trigger, Some(next.belief));
        }
        if let Some(plan) = self.policy.plan(demand, self.ctx.fault_view()) {
            let belief = Belief::of(&plan);
            return (plan.layout, "cold-start", Some(belief));
        }
        if let Some((last, belief)) = self.layers[layer].last.clone() {
            return (last, "outage-fallback", belief);
        }
        // Cold start with the planner down: the initial static layout
        // every MoE job boots with (no belief to record).
        let (n, e, c) = (
            self.ctx.topology().num_devices(),
            self.ctx.model().experts(),
            self.ctx.capacity(),
        );
        let layout = ExpertLayout::classic_ep(n, e, c)
            .unwrap_or_else(|e| unreachable!("model shapes validated at construction: {e}"));
        (layout, "cold-start", None)
    }
}

impl MoeSystem for LaerSystem {
    fn name(&self) -> &'static str {
        "laer-moe"
    }

    fn schedule_options(&self) -> ScheduleOptions {
        self.schedule
    }

    fn plan_layer(&mut self, layer: usize, _iteration: u64, demand: &RoutingMatrix) -> LayerPlan {
        let (layout, routing, audit) = match self.mode {
            PlanningMode::Oracle => {
                let plan = self.policy.planner().plan(demand);
                let audit = Belief::of(&plan).audit("oracle");
                (plan.layout, plan.routing, audit)
            }
            PlanningMode::Async => {
                // Execute the layout prepared from history; the GPU-side
                // dispatcher routes the actual demand on it (Alg. 3).
                let (layout, trigger, belief) = self.async_layout(layer, demand);
                let routing = lite_route(self.ctx.topology(), demand, &layout);
                // The belief travels from the planning call site; when
                // none was recorded (boot fallback), price the executed
                // routing so the audit trail stays complete.
                let audit = match &belief {
                    Some(b) => b.audit(trigger),
                    None => audit_belief(&self.ctx, trigger, &routing),
                };
                // CPU side: fold this iteration's routing info into the
                // history and prepare the next iteration's layout — which
                // the policy declines while the planner process is down,
                // so the system keeps re-executing `last`.
                self.policy.observe(layer, demand);
                let next = self.policy.propose(layer, self.ctx.fault_view());
                let state = &mut self.layers[layer];
                state.next = next.map(Prepared::of);
                state.last = Some((layout.clone(), belief));
                (layout, routing, audit)
            }
        };
        let timings = self.ctx.layer_timings(
            &routing,
            0.0,
            self.ctx.fsep_prefetch_time(),
            self.ctx.fsep_grad_sync_time(),
        );
        LayerPlan {
            layout,
            routing,
            timings,
            audit,
        }
    }

    fn context(&self) -> &SystemContext {
        &self.ctx
    }

    fn context_mut(&mut self) -> &mut SystemContext {
        &mut self.ctx
    }

    fn handle_device_failures(
        &mut self,
        view: &DegradedView,
    ) -> Result<CapacityResponse, SystemError> {
        let response = self.policy.capacity_change(view)?;
        if response == CapacityResponse::Replan {
            // Prepared layouts may place replicas on the failed devices;
            // drop them so every layer re-plans onto the survivors.
            self.layers.fill_with(LayerState::default);
            self.ctx.set_fault_view(Some(view.clone()));
        }
        Ok(response)
    }

    fn set_planner_available(&mut self, available: bool) {
        self.policy.set_available(available);
    }

    fn snapshot(&self) -> serde::Value {
        LaerCheckpoint {
            layers: self.layers.clone(),
            histories: self.policy.histories().to_vec(),
        }
        .serialize_value()
    }

    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), SystemError> {
        let ckpt = LaerCheckpoint::deserialize_value(snapshot)
            .map_err(|e| SystemError::Restore(e.to_string()))?;
        self.layers = ckpt.layers;
        self.policy.restore_histories(ckpt.histories);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsdp_ep::FsdpEpSystem;
    use laer_cluster::Topology;
    use laer_model::{GpuSpec, ModelPreset};
    use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};

    fn ctx() -> SystemContext {
        SystemContext::new(
            Topology::paper_cluster(),
            ModelPreset::Mixtral8x7bE8k2.config(),
            GpuSpec::a100(),
            16 * 1024,
            8192,
        )
    }

    /// The core end-to-end claim in miniature: LAER's per-layer straggler
    /// compute is closer to ideal than the static EP baseline's.
    #[test]
    fn balances_better_than_fsdp_ep() {
        let mut laer = LaerSystem::new(ctx());
        let mut fsdp = FsdpEpSystem::new(ctx());
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(9));
        let mut laer_worse = 0;
        for it in 0..5 {
            let demand = gen.next_iteration();
            let pl = laer.plan_layer(0, it, &demand);
            let pf = fsdp.plan_layer(0, it, &demand);
            assert!(pl.routing.validate(&demand, &pl.layout).is_ok());
            if pl.max_token_ratio() > pf.max_token_ratio() {
                laer_worse += 1;
            }
        }
        assert_eq!(laer_worse, 0, "LAER should never balance worse");
    }

    /// Async (stale) planning costs only a small balance penalty over
    /// the oracle — the property that makes the Fig. 7 CPU offload
    /// viable (routing distributions are highly autocorrelated).
    #[test]
    fn async_planning_close_to_oracle() {
        let mut async_sys = LaerSystem::new(ctx());
        let mut oracle_sys = LaerSystem::new(ctx()).with_mode(PlanningMode::Oracle);
        assert_eq!(async_sys.mode(), PlanningMode::Async);
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(31));
        let mut r_async = 0.0;
        let mut r_oracle = 0.0;
        for it in 0..15 {
            let demand = gen.next_iteration();
            let pa = async_sys.plan_layer(0, it, &demand);
            let po = oracle_sys.plan_layer(0, it, &demand);
            assert!(pa.routing.validate(&demand, &pa.layout).is_ok());
            r_async += pa.max_token_ratio();
            r_oracle += po.max_token_ratio();
        }
        assert!(
            r_async <= r_oracle * 1.15,
            "staleness penalty too large: async {r_async:.2} vs oracle {r_oracle:.2}"
        );
    }

    /// Device failure: after `handle_device_failures` every planned
    /// layout lives on the survivors and routes no token to the dead
    /// device.
    #[test]
    fn replans_onto_survivors_after_failure() {
        use laer_cluster::{DegradedView, DeviceId};
        let mut laer = LaerSystem::new(ctx());
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(12));
        for it in 0..3 {
            let _ = laer.plan_layer(0, it, &gen.next_iteration());
        }
        let mut view = DegradedView::new(Topology::paper_cluster());
        let dead = DeviceId::new(13);
        view.fail_device(dead);
        assert_eq!(
            laer.handle_device_failures(&view),
            Ok(CapacityResponse::Replan)
        );
        for it in 3..6 {
            let mut demand = gen.next_iteration();
            for j in 0..8 {
                demand.set(dead, laer_cluster::ExpertId::new(j), 0);
            }
            let plan = laer.plan_layer(0, it, &demand);
            assert_eq!(plan.layout.device_slots_used(dead), 0, "iter {it}");
            for &(_, _, dst, _) in plan.routing.entries() {
                assert_ne!(dst, dead, "token routed to dead device");
            }
        }
    }

    /// An unrecoverable cluster (too few survivors to host every
    /// expert) aborts with a typed error instead of panicking.
    #[test]
    fn unrecoverable_failure_is_typed() {
        use laer_cluster::{DegradedView, DeviceId};
        use laer_planner::PlanError;
        let topo = Topology::single_node(4).unwrap();
        let small = SystemContext::new(
            topo.clone(),
            ModelPreset::Mixtral8x7bE8k2.config(),
            GpuSpec::a100(),
            1024,
            1024,
        );
        let mut laer = LaerSystem::new(small);
        let mut view = DegradedView::new(topo);
        view.fail_device(DeviceId::new(0));
        assert!(matches!(
            laer.handle_device_failures(&view),
            Err(crate::SystemError::Plan(
                PlanError::InsufficientCapacity { .. }
            ))
        ));
    }

    /// Planner outage: the system keeps executing the previous layout
    /// (graceful staleness) and resumes planning when the outage ends.
    #[test]
    fn planner_outage_reuses_previous_layout() {
        let mut laer = LaerSystem::new(ctx());
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(14));
        let warm = laer.plan_layer(0, 0, &gen.next_iteration());
        laer.set_planner_available(false);
        // First outage iteration may still consume the prepared layout;
        // afterwards the executed layout must freeze.
        let a = laer.plan_layer(0, 1, &gen.next_iteration());
        let b = laer.plan_layer(0, 2, &gen.next_iteration());
        let c = laer.plan_layer(0, 3, &gen.next_iteration());
        assert_eq!(b.layout, a.layout, "layout must freeze during outage");
        assert_eq!(c.layout, b.layout, "layout must freeze during outage");
        let _ = warm;
        laer.set_planner_available(true);
        let mut changed = false;
        for it in 4..10 {
            if laer.plan_layer(0, it, &gen.next_iteration()).layout != c.layout {
                changed = true;
                break;
            }
        }
        assert!(changed, "planning must resume after the outage");
    }

    /// A cold start while the planner is down runs the boot layout, and
    /// a failure while it is down cannot be planned around: `Restart`,
    /// with the prepared state and network left as they were.
    #[test]
    fn outage_boots_classic_ep_and_restarts_on_failure() {
        use laer_cluster::{DegradedView, DeviceId};
        let mut laer = LaerSystem::new(ctx());
        laer.set_planner_available(false);
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(16));
        let plan = laer.plan_layer(0, 0, &gen.next_iteration());
        let boot = ExpertLayout::classic_ep(32, 8, laer.context().capacity()).unwrap();
        assert_eq!(plan.layout, boot);
        assert_eq!(plan.audit.trigger, "cold-start");
        let mut view = DegradedView::new(Topology::paper_cluster());
        view.fail_device(DeviceId::new(13));
        assert_eq!(
            laer.handle_device_failures(&view),
            Ok(CapacityResponse::Restart)
        );
        assert!(laer.context().fault_view().is_none());
        let next = laer.plan_layer(0, 1, &gen.next_iteration());
        assert_eq!(next.layout, boot);
        assert_eq!(next.audit.trigger, "outage-fallback");
    }

    /// Snapshot/restore captures the full mutable state: a restored
    /// system continues bit-identically to the original.
    #[test]
    fn snapshot_restore_is_bit_identical() {
        let mut a = LaerSystem::new(ctx());
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(15));
        let mut demands = Vec::new();
        for it in 0..4 {
            let d = gen.next_iteration();
            let _ = a.plan_layer(0, it, &d);
            demands.push(d);
        }
        let snap = a.snapshot();
        let mut b = LaerSystem::new(ctx());
        b.restore(&snap).unwrap();
        for it in 4..8 {
            let d = gen.next_iteration();
            let pa = a.plan_layer(0, it, &d);
            let pb = b.plan_layer(0, it, &d);
            assert_eq!(pa.layout, pb.layout, "iter {it}");
            assert_eq!(pa.routing.entries(), pb.routing.entries(), "iter {it}");
        }
        // A malformed snapshot is a typed error.
        assert!(b.restore(&serde::Value::Bool(true)).is_err());
    }

    /// With the exact upcoming demands installed as a replay trace
    /// (noise 0), async planning becomes oracle planning: the cold
    /// start plans on the current demand (as oracle does) and every
    /// prepared layout is planned on the *actual* next demand.
    #[test]
    fn replay_foresight_matches_oracle() {
        let cfg = RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(77);
        let trace = laer_routing::RoutingTrace::record(cfg, 10);
        let mut replay = LaerSystem::new(ctx());
        replay.install_replay(vec![trace.clone()], 0.0, 0);
        let mut oracle = LaerSystem::new(ctx()).with_mode(PlanningMode::Oracle);
        for (it, demand) in trace.iter().enumerate() {
            let pr = replay.plan_layer(0, it as u64, demand);
            let po = oracle.plan_layer(0, it as u64, demand);
            assert_eq!(pr.layout, po.layout, "iter {it}");
            assert_eq!(pr.routing.entries(), po.routing.entries(), "iter {it}");
            if it > 0 {
                assert_eq!(pr.audit.trigger, "replay", "iter {it}");
            }
        }
    }

    /// Past the end of its trace the replay system keeps running on the
    /// EMA fallback instead of going cold, and re-installing a fresh
    /// trace restores foresight ("replay" audit trigger).
    #[test]
    fn replay_trace_end_falls_back_then_reinstall_restores() {
        let cfg = RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(78);
        let trace = laer_routing::RoutingTrace::record(cfg.clone(), 3);
        let mut laer = LaerSystem::new(ctx());
        laer.install_replay(vec![trace.clone()], 0.0, 0);
        let mut gen = RoutingGenerator::new(cfg);
        for it in 0..6u64 {
            let demand = gen.next_iteration();
            let plan = laer.plan_layer(0, it, &demand);
            assert!(plan.routing.validate(&demand, &plan.layout).is_ok());
            // Layouts planned past the trace end audit as "periodic"
            // (EMA fallback), not "replay".
            if it >= 4 {
                assert_eq!(plan.audit.trigger, "periodic", "iter {it}");
            }
        }
        let next_epoch = laer_routing::RoutingTrace::record(
            RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(79),
            3,
        );
        laer.install_replay(vec![next_epoch.clone()], 0.0, 1);
        let mut triggers = Vec::new();
        for (it, demand) in next_epoch.iter().enumerate() {
            let plan = laer.plan_layer(0, 6 + it as u64, demand);
            triggers.push(plan.audit.trigger.clone());
        }
        assert_eq!(triggers[1], "replay");
        assert_eq!(triggers[2], "replay");
    }

    #[test]
    fn layout_changes_across_iterations() {
        let mut laer = LaerSystem::new(ctx());
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(10));
        let a = laer.plan_layer(0, 0, &gen.next_iteration());
        let mut changed = false;
        for it in 1..10 {
            let b = laer.plan_layer(0, it, &gen.next_iteration());
            if b.layout != a.layout {
                changed = true;
                break;
            }
        }
        assert!(changed, "per-iteration re-layout should adapt the layout");
    }
}
