//! Serving-side expert-placement policies: the [`ServingSystem`] trait
//! and its `static-ep`, `replicate-hot` and `laer` implementations.
//!
//! The scheduler ([`crate::serving::run_serving`]) owns the loop; a
//! system only decides *where experts live*. After every step it is fed
//! the served routing statistics via [`ServingSystem::observe`]; when
//! its [layout](ServingSystem::layout) changes the scheduler charges the
//! relocation traffic before using it (see
//! [`laer_planner::relocation_moves`]).
//!
//! `laer` drives the [`LayoutPolicy`] training's `LaerSystem` drives,
//! adding only windows, hysteresis and the eager survivor re-plan.

use std::collections::VecDeque;
use std::str::FromStr;

use laer_cluster::{DegradedView, DeviceId, ExpertId, Topology};
use laer_model::{GpuSpec, ModelConfig};
use laer_planner::{
    even_replicas, expert_relocation, expert_relocation_on, lite_route, replica_allocation,
    time_cost, CapacityResponse, ExpertLayout, LayoutPolicy, PlannerConfig, Proposal,
};
use laer_routing::RoutingMatrix;

/// An online expert-placement policy.
pub trait ServingSystem {
    /// The layout the system currently wants deployed.
    fn layout(&self) -> &ExpertLayout;

    /// Feeds the routing statistics served at `step`; the system may
    /// change its desired [layout](Self::layout) (the scheduler then
    /// charges the relocation and applies it before the next step's
    /// expert compute).
    fn observe(&mut self, step: u64, served: &RoutingMatrix);

    /// Tells the system whether the asynchronous CPU planner host is
    /// reachable. While it is not, planner-backed systems must fall back
    /// to their stale layout (and cannot re-plan around failures).
    fn set_planner_available(&mut self, _available: bool) {}

    /// Notifies the system that the cluster's serving capacity changed:
    /// `view` carries the currently-failed devices and degraded links
    /// (it is nominal when everything recovered). The system updates its
    /// desired layout for the new capacity and reports how the
    /// scheduler should proceed.
    fn handle_capacity_change(&mut self, _view: &DegradedView) -> CapacityResponse {
        CapacityResponse::Unchanged
    }
}

/// The serving systems compared by the benchmark, mirroring the training
/// side's system matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingSystemKind {
    /// Classic expert parallelism: an even static layout, never changed.
    StaticEp,
    /// FasterMoE-style reactive replication: re-replicates by the raw
    /// windowed load, no prediction and no cost-model tuning.
    ReplicateHot,
    /// LAER: the layout policy's EMA load prediction feeding the full
    /// planner (Alg. 1–4).
    Laer,
}

impl ServingSystemKind {
    /// All kinds, in presentation order.
    pub const ALL: [ServingSystemKind; 3] = [
        ServingSystemKind::StaticEp,
        ServingSystemKind::ReplicateHot,
        ServingSystemKind::Laer,
    ];

    /// Artifact-style identifier.
    pub fn id(self) -> &'static str {
        match self {
            ServingSystemKind::StaticEp => "static-ep",
            ServingSystemKind::ReplicateHot => "replicate-hot",
            ServingSystemKind::Laer => "laer",
        }
    }

    /// Instantiates the system for a cluster and model.
    ///
    /// `capacity` is the per-device expert-slot budget `C` (identical
    /// across systems: same HBM); `relayout_period` is the number of
    /// steps between re-layout decisions and `window` the number of
    /// recent steps whose served statistics feed each decision.
    pub fn build(
        self,
        topo: &Topology,
        model: &ModelConfig,
        gpu: GpuSpec,
        capacity: usize,
        relayout_period: u64,
        window: usize,
    ) -> Box<dyn ServingSystem> {
        match self {
            ServingSystemKind::StaticEp => Box::new(StaticEp::new(topo, model.experts(), capacity)),
            ServingSystemKind::ReplicateHot => Box::new(ReplicateHot::new(
                topo,
                model.experts(),
                capacity,
                relayout_period,
                window,
            )),
            ServingSystemKind::Laer => Box::new(LaerServing::new(
                topo,
                model,
                gpu,
                capacity,
                relayout_period,
                window,
            )),
        }
    }
}

impl FromStr for ServingSystemKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ServingSystemKind::ALL
            .into_iter()
            .find(|k| k.id() == s)
            .ok_or_else(|| format!("unknown serving system `{s}` (static-ep, replicate-hot, laer)"))
    }
}

/// The even baseline layout every system starts from: `⌊N·C/E⌋` replicas
/// per expert placed topology-aware by Alg. 1 under uniform loads.
fn even_layout(topo: &Topology, experts: usize, capacity: usize) -> ExpertLayout {
    let uniform = vec![1u64; experts];
    let rep = even_replicas(&uniform, topo.num_devices(), capacity);
    expert_relocation(&rep, &uniform, topo, capacity)
}

/// Classic static expert parallelism: the layout never moves.
struct StaticEp {
    layout: ExpertLayout,
}

impl StaticEp {
    fn new(topo: &Topology, experts: usize, capacity: usize) -> Self {
        Self {
            layout: even_layout(topo, experts, capacity),
        }
    }
}

impl ServingSystem for StaticEp {
    fn layout(&self) -> &ExpertLayout {
        &self.layout
    }

    fn observe(&mut self, _step: u64, _served: &RoutingMatrix) {}

    /// Static EP cannot re-form its placement on survivors: a failure
    /// always costs the full restart path. Recoveries are no-ops (the
    /// restart already moved serving onto replacement hardware).
    fn handle_capacity_change(&mut self, view: &DegradedView) -> CapacityResponse {
        if view.failed_devices().is_empty() {
            CapacityResponse::Unchanged
        } else {
            CapacityResponse::Restart
        }
    }
}

/// FasterMoE-style reactive replication: every `period` steps,
/// re-allocate replicas proportionally to the *raw* windowed expert
/// loads (Alg. 4) and place them greedily (Alg. 1). No prediction, no
/// candidate tuning against the cost model — the contrast that isolates
/// what LAER's planner adds.
struct ReplicateHot {
    topo: Topology,
    capacity: usize,
    period: u64,
    window: VecDeque<Vec<u64>>,
    window_cap: usize,
    layout: ExpertLayout,
    /// Devices to place on: every device while the cluster is whole,
    /// the survivors while devices are failed.
    active: Vec<DeviceId>,
}

impl ReplicateHot {
    fn new(
        topo: &Topology,
        experts: usize,
        capacity: usize,
        period: u64,
        window_cap: usize,
    ) -> Self {
        Self {
            topo: topo.clone(),
            capacity,
            period: period.max(1),
            window: VecDeque::new(),
            window_cap: window_cap.max(1),
            layout: even_layout(topo, experts, capacity),
            active: topo.devices().collect(),
        }
    }

    /// Expert loads summed over the window; `None` when the window is
    /// empty or quiet.
    fn windowed_loads(&self) -> Option<Vec<u64>> {
        let mut loads = vec![0u64; self.layout.num_experts()];
        for sample in &self.window {
            for (acc, &l) in loads.iter_mut().zip(sample) {
                *acc += l;
            }
        }
        loads.iter().any(|&l| l > 0).then_some(loads)
    }

    /// Replicate-by-load placement on the active devices; returns
    /// whether the layout changed.
    fn place(&mut self, loads: &[u64]) -> bool {
        let rep = replica_allocation(loads, self.active.len(), self.capacity);
        let next = expert_relocation_on(&rep, loads, &self.topo, self.capacity, &self.active);
        if next == self.layout {
            return false;
        }
        self.layout = next;
        true
    }
}

impl ServingSystem for ReplicateHot {
    fn layout(&self) -> &ExpertLayout {
        &self.layout
    }

    fn observe(&mut self, step: u64, served: &RoutingMatrix) {
        if self.window.len() == self.window_cap {
            self.window.pop_front();
        }
        self.window.push_back(served.expert_loads());
        if !(step + 1).is_multiple_of(self.period) {
            return;
        }
        if let Some(loads) = self.windowed_loads() {
            self.place(&loads);
        }
    }

    /// Reactive replication adapts to capacity the same way it adapts
    /// to load: re-allocate replicas over whatever devices remain,
    /// from uniform loads when the window is quiet (a re-layout forced
    /// by a failure cannot wait for traffic). Only when the surviving
    /// slots cannot host every expert does it fall back to the restart
    /// path.
    fn handle_capacity_change(&mut self, view: &DegradedView) -> CapacityResponse {
        let experts = self.layout.num_experts();
        let survivors = view.survivors();
        if survivors.len() * self.capacity < experts {
            self.active = self.topo.devices().collect();
            return CapacityResponse::Restart;
        }
        self.active = survivors;
        let loads = self.windowed_loads().unwrap_or_else(|| vec![1; experts]);
        if self.place(&loads) {
            CapacityResponse::Replan
        } else {
            CapacityResponse::Unchanged
        }
    }
}

/// Relative predicted-cost improvement a candidate layout must clear
/// before LAER moves weights. Re-layout is never free — the copy
/// occupies the prefetch stream and the stale layout serves until it
/// lands — so marginal wins from planner jitter must not thrash the
/// placement.
const HYSTERESIS_MARGIN: f64 = 0.05;

/// LAER's serving controller: a sliding window of served routing
/// statistics feeds the [`LayoutPolicy`]'s demand history; every
/// `period` steps the policy plans the predicted demand with the full
/// planner (candidate tuner + Alg. 1/3/4 under the cost model) — and
/// the plan is adopted only if it beats *keeping the current layout* by
/// [`HYSTERESIS_MARGIN`] under the same predicted demand.
struct LaerServing {
    policy: LayoutPolicy,
    period: u64,
    window: VecDeque<RoutingMatrix>,
    window_cap: usize,
    layout: ExpertLayout,
    /// Degraded network view to plan against while faults are active;
    /// `None` when the cluster is nominal.
    view: Option<DegradedView>,
}

impl LaerServing {
    fn new(
        topo: &Topology,
        model: &ModelConfig,
        gpu: GpuSpec,
        capacity: usize,
        period: u64,
        window_cap: usize,
    ) -> Self {
        Self {
            policy: LayoutPolicy::new(
                PlannerConfig::new(capacity).with_epsilon(4),
                model,
                gpu,
                topo.clone(),
            ),
            period: period.max(1),
            window: VecDeque::new(),
            window_cap: window_cap.max(1),
            layout: even_layout(topo, model.experts(), capacity),
            view: None,
        }
    }

    /// Uniform demand to re-plan against when a capacity change forces
    /// a decision before any traffic has been observed.
    fn uniform_demand(&self) -> RoutingMatrix {
        let (n, experts) = (self.layout.num_devices(), self.layout.num_experts());
        let mut uniform = match RoutingMatrix::zeros(n, experts) {
            Ok(m) => m,
            Err(err) => panic!("planner shapes fixed at construction: {err}"),
        };
        for j in 0..experts {
            uniform.set(DeviceId::new(0), ExpertId::new(j), 1);
        }
        uniform
    }

    /// Element-wise sum of the window (the EMA smooths across windows;
    /// summing inside one keeps integer token counts exact).
    fn window_total(&self) -> Option<RoutingMatrix> {
        let first = self.window.front()?;
        let (n, e) = (first.num_devices(), first.num_experts());
        let mut total = match RoutingMatrix::zeros(n, e) {
            Ok(m) => m,
            Err(err) => panic!("window shape fixed at construction: {err}"),
        };
        for sample in &self.window {
            for (dev, exp, tokens) in sample.iter_nonzero() {
                total.add(dev, exp, tokens);
            }
        }
        Some(total)
    }
}

impl ServingSystem for LaerServing {
    fn layout(&self) -> &ExpertLayout {
        &self.layout
    }

    fn observe(&mut self, step: u64, served: &RoutingMatrix) {
        if self.window.len() == self.window_cap {
            self.window.pop_front();
        }
        self.window.push_back(served.clone());
        if !(step + 1).is_multiple_of(self.period) {
            return;
        }
        let Some(total) = self.window_total() else {
            return;
        };
        if total.total() == 0 {
            return;
        }
        self.policy.observe(0, &total);
        // Nothing is proposed while the planner host is down: keep
        // serving on the stale layout.
        let Some(Proposal { demand, plan, .. }) = self.policy.propose(0, self.view.as_ref()) else {
            return;
        };
        if plan.layout == self.layout {
            return;
        }
        // Cost-aware hysteresis: price *keeping* the current layout
        // under the same predicted demand; only move when the planner's
        // candidate clears the margin.
        let planner = self.policy.planner();
        let keep = lite_route(planner.topology(), &demand, &self.layout);
        let keep_cost = match &self.view {
            Some(view) => time_cost(view, &keep, planner.cost_params()).total(),
            None => time_cost(planner.topology(), &keep, planner.cost_params()).total(),
        };
        if plan.predicted.total() < keep_cost * (1.0 - HYSTERESIS_MARGIN) {
            self.layout = plan.layout;
        }
    }

    fn set_planner_available(&mut self, available: bool) {
        self.policy.set_available(available);
    }

    /// LAER's failure path *is* its load path: the policy's capacity
    /// rule, then an eager re-plan of the predicted (or, before any
    /// traffic, uniform) demand on the new network. An unsatisfiable
    /// survivor set or a failure while the planner host is down takes
    /// the restart path; a recovery while it is down waits.
    fn handle_capacity_change(&mut self, view: &DegradedView) -> CapacityResponse {
        self.view = (!view.is_nominal()).then(|| view.clone());
        match self.policy.capacity_change(view) {
            Ok(CapacityResponse::Replan) => {}
            Ok(response) => return response,
            Err(_) => return CapacityResponse::Restart,
        }
        let demand = self
            .policy
            .predict(0)
            .unwrap_or_else(|| self.uniform_demand());
        match self.policy.plan(&demand, self.view.as_ref()) {
            Some(plan) if plan.layout != self.layout => {
                self.layout = plan.layout;
                CapacityResponse::Replan
            }
            _ => CapacityResponse::Unchanged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_cluster::{DeviceId, ExpertId};
    use laer_model::ModelPreset;

    fn skewed(n: usize, e: usize, hot: usize, tokens: u64) -> RoutingMatrix {
        let mut m = RoutingMatrix::zeros(n, e).unwrap();
        for d in 0..n {
            m.set(DeviceId::new(d), ExpertId::new(hot), tokens);
            for j in 0..e {
                if j != hot {
                    m.add(DeviceId::new(d), ExpertId::new(j), tokens / 16);
                }
            }
        }
        m
    }

    #[test]
    fn ids_round_trip() {
        for kind in ServingSystemKind::ALL {
            assert_eq!(kind.id().parse::<ServingSystemKind>().unwrap(), kind);
        }
        assert!("nope".parse::<ServingSystemKind>().is_err());
    }

    #[test]
    fn static_ep_never_moves() {
        let topo = Topology::new(2, 4).unwrap();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        let mut sys = ServingSystemKind::StaticEp.build(&topo, &cfg, GpuSpec::a100(), 2, 4, 4);
        let before = sys.layout().clone();
        for step in 0..16 {
            sys.observe(step, &skewed(8, 8, 3, 512));
            assert_eq!(sys.layout(), &before);
        }
        assert!(before.validate().is_ok());
    }

    #[test]
    fn replicate_hot_replicates_the_hot_expert() {
        let topo = Topology::new(2, 4).unwrap();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        let mut sys = ServingSystemKind::ReplicateHot.build(&topo, &cfg, GpuSpec::a100(), 2, 4, 4);
        let before = sys.layout().clone();
        let even = before.expert_replicas(ExpertId::new(3));
        for step in 0..8 {
            sys.observe(step, &skewed(8, 8, 3, 512));
        }
        assert_ne!(
            sys.layout(),
            &before,
            "skewed traffic must trigger a re-layout"
        );
        assert!(sys.layout().validate().is_ok());
        assert!(
            sys.layout().expert_replicas(ExpertId::new(3)) > even,
            "hot expert must gain replicas"
        );
    }

    #[test]
    fn laer_adapts_and_keeps_layout_valid() {
        let topo = Topology::new(2, 4).unwrap();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        let mut sys = ServingSystemKind::Laer.build(&topo, &cfg, GpuSpec::a100(), 2, 4, 4);
        let before = sys.layout().clone();
        let even = before.expert_replicas(ExpertId::new(3));
        for step in 0..16 {
            sys.observe(step, &skewed(8, 8, 3, 512));
        }
        assert_ne!(
            sys.layout(),
            &before,
            "skewed traffic must trigger a re-layout"
        );
        assert!(sys.layout().validate().is_ok());
        assert!(sys.layout().expert_replicas(ExpertId::new(3)) > even);
    }

    #[test]
    fn static_ep_restarts_on_failure_and_ignores_links() {
        let topo = Topology::new(2, 4).unwrap();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        let mut sys = ServingSystemKind::StaticEp.build(&topo, &cfg, GpuSpec::a100(), 2, 4, 4);
        let mut failed = DegradedView::new(topo.clone());
        failed.fail_device(DeviceId::new(1));
        assert_eq!(
            sys.handle_capacity_change(&failed),
            CapacityResponse::Restart
        );
        let mut slow_link = DegradedView::new(topo.clone());
        slow_link.degrade_link(DeviceId::new(0), DeviceId::new(4), 0.2);
        assert_eq!(
            sys.handle_capacity_change(&slow_link),
            CapacityResponse::Unchanged
        );
        assert_eq!(
            sys.handle_capacity_change(&DegradedView::new(topo)),
            CapacityResponse::Unchanged
        );
    }

    #[test]
    fn replicate_hot_replans_on_survivors_and_back() {
        let topo = Topology::new(2, 4).unwrap();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        let mut sys = ServingSystemKind::ReplicateHot.build(&topo, &cfg, GpuSpec::a100(), 2, 4, 4);
        for step in 0..4 {
            sys.observe(step, &skewed(8, 8, 3, 512));
        }
        let mut view = DegradedView::new(topo.clone());
        view.fail_device(DeviceId::new(2));
        assert_eq!(sys.handle_capacity_change(&view), CapacityResponse::Replan);
        sys.layout()
            .validate_on(&view.survivors())
            .expect("survivor layout must host every expert off the dead device");
        // Subsequent periodic re-layouts stay on the survivor subset.
        for step in 4..12 {
            sys.observe(step, &skewed(8, 8, 5, 512));
            sys.layout().validate_on(&view.survivors()).unwrap();
        }
        // Rejoin: the whole cluster comes back.
        let whole = DegradedView::new(topo.clone());
        let resp = sys.handle_capacity_change(&whole);
        assert_ne!(resp, CapacityResponse::Restart);
        sys.layout()
            .validate()
            .expect("post-recovery layout must be valid on the full cluster");
    }

    #[test]
    fn replicate_hot_restarts_when_survivors_cannot_host_experts() {
        let topo = Topology::new(1, 4).unwrap();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        // capacity 2 × 3 survivors = 6 slots < 8 experts.
        let mut sys = ServingSystemKind::ReplicateHot.build(&topo, &cfg, GpuSpec::a100(), 2, 4, 4);
        let mut view = DegradedView::new(topo);
        view.fail_device(DeviceId::new(0));
        assert_eq!(sys.handle_capacity_change(&view), CapacityResponse::Restart);
    }

    #[test]
    fn laer_replans_on_survivors_and_restarts_without_planner() {
        let topo = Topology::new(2, 4).unwrap();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        let mut sys = ServingSystemKind::Laer.build(&topo, &cfg, GpuSpec::a100(), 2, 4, 4);
        let mut view = DegradedView::new(topo.clone());
        view.fail_device(DeviceId::new(2));
        assert_eq!(sys.handle_capacity_change(&view), CapacityResponse::Replan);
        sys.layout()
            .validate_on(&view.survivors())
            .expect("degraded plan must live on the survivors");
        // Recovery re-plans for the whole cluster.
        let resp = sys.handle_capacity_change(&DegradedView::new(topo.clone()));
        assert_ne!(resp, CapacityResponse::Restart);
        sys.layout().validate().unwrap();
        // With the planner host down a failure cannot be planned around.
        sys.set_planner_available(false);
        let mut second = DegradedView::new(topo);
        second.fail_device(DeviceId::new(5));
        assert_eq!(
            sys.handle_capacity_change(&second),
            CapacityResponse::Restart
        );
    }

    #[test]
    fn quiet_windows_do_not_relayout() {
        let topo = Topology::new(2, 4).unwrap();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        let empty = RoutingMatrix::zeros(8, 8).unwrap();
        for kind in [ServingSystemKind::ReplicateHot, ServingSystemKind::Laer] {
            let mut sys = kind.build(&topo, &cfg, GpuSpec::a100(), 2, 2, 4);
            let before = sys.layout().clone();
            for step in 0..8 {
                sys.observe(step, &empty);
                assert_eq!(
                    sys.layout(),
                    &before,
                    "{}: empty traffic moved experts",
                    kind.id()
                );
            }
        }
    }
}
