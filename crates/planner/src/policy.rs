//! The LAER layout policy shared by the training and serving loops.
//!
//! LAER's tuner runs as an asynchronous CPU planner process (Fig. 7).
//! [`LayoutPolicy`] states once each rule that whatever executes its
//! layouts — a training iteration or a serving window — follows around
//! that process: observe demand, plan on the network the executor sees,
//! propose a plan for a layer's predicted demand, and answer a capacity
//! change. What an executor does with a plan stays with the executor.

use crate::cost::CostParams;
use crate::predictor::{AnyPredictor, ReplayPredictor};
use crate::tuner::{Plan, PlanError, Planner, PlannerConfig};
use laer_cluster::{DegradedView, Topology};
use laer_model::{GpuSpec, ModelConfig};
use laer_routing::{RoutingMatrix, RoutingTrace};

/// How an executor proceeds after the cluster's capacity changed — a
/// device failing, rejoining, or the link profile shifting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityResponse {
    /// Re-plan for the new capacity and continue, elastically on the
    /// survivors when devices failed.
    Replan,
    /// The layout cannot adapt (a static placement, or devices failed
    /// while the planner is down): pay the full restart path —
    /// collective timeout, reload onto replacement hardware, redo of the
    /// lost work.
    Restart,
    /// The current layout already fits the new capacity.
    Unchanged,
}

/// A plan for a layer's predicted demand.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// The predicted demand the plan was made for.
    pub demand: RoutingMatrix,
    /// The planner's best plan for it.
    pub plan: Plan,
    /// Whether a recorded trace, not the EMA, predicted the demand.
    pub from_replay: bool,
}

/// LAER's layout policy: the [`Planner`], one demand history per layer
/// and whether the planner process is reachable.
#[derive(Debug, Clone)]
pub struct LayoutPolicy {
    planner: Planner,
    experts: usize,
    histories: Vec<AnyPredictor>,
    /// Per-layer replay predictors at their traces' first iteration:
    /// what a layer with an installed trace starts from.
    replay: Vec<AnyPredictor>,
    available: bool,
}

impl LayoutPolicy {
    /// The policy for `model` on `topo`, planning with `config` priced
    /// for `gpu`; EMA histories and a reachable planner process.
    pub fn new(config: PlannerConfig, model: &ModelConfig, gpu: GpuSpec, topo: Topology) -> Self {
        Self {
            planner: Planner::new(config, CostParams::from_model(model, gpu, false), topo),
            experts: model.experts(),
            histories: Vec::new(),
            replay: Vec::new(),
            available: true,
        }
    }

    /// Prices plans for a `num_chunks`-chunk executor pipeline.
    pub fn with_num_chunks(mut self, num_chunks: usize) -> Self {
        self.planner = self.planner.with_num_chunks(num_chunks);
        self
    }

    /// The planner in use.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// Records whether the planner process is reachable.
    pub fn set_available(&mut self, available: bool) {
        self.available = available;
    }

    /// Installs (or replaces) per-layer replay traces: `traces[l]`
    /// predicts layer `l`'s demand, perturbed by `noise` (0 = verbatim)
    /// with a deterministic stream keyed on `seed`. Every layer with
    /// history restarts at its trace's first iteration; layers without
    /// a trace keep the EMA, as does a layer past its trace's end.
    ///
    /// # Panics
    ///
    /// Panics if `noise` is not in `[0, 1]`.
    pub fn install_replay(&mut self, traces: Vec<RoutingTrace>, noise: f64, seed: u64) {
        self.replay = (0u64..)
            .zip(traces)
            .map(|(layer, trace)| {
                AnyPredictor::Replay(ReplayPredictor::new(trace, noise, seed.wrapping_add(layer)))
            })
            .collect();
        for layer in 0..self.histories.len() {
            self.histories[layer] = self.fresh_history(layer);
        }
    }

    fn fresh_history(&self, layer: usize) -> AnyPredictor {
        let fresh = self.replay.get(layer).cloned();
        fresh.unwrap_or_else(AnyPredictor::default_ema)
    }

    /// The per-layer demand histories, which a checkpoint must carry.
    pub fn histories(&self) -> &[AnyPredictor] {
        &self.histories
    }

    /// Restores histories captured by [`Self::histories`].
    pub fn restore_histories(&mut self, histories: Vec<AnyPredictor>) {
        self.histories = histories;
    }

    /// Folds one executed demand into `layer`'s history. A demand of a
    /// new shape no longer matches the history, so the layer restarts
    /// from a fresh EMA (whose first observation cannot fail).
    pub fn observe(&mut self, layer: usize, demand: &RoutingMatrix) {
        while self.histories.len() <= layer {
            self.histories
                .push(self.fresh_history(self.histories.len()));
        }
        let history = &mut self.histories[layer];
        if history.observe(demand).is_err() {
            *history = AnyPredictor::default_ema();
            let _ = history.observe(demand);
        }
    }

    /// `layer`'s predicted next demand; `None` before it has history.
    pub fn predict(&self, layer: usize) -> Option<RoutingMatrix> {
        self.histories.get(layer)?.predict()
    }

    /// Plans `demand` on `net`: the nominal topology, or the survivors
    /// priced on a non-nominal view. `None` while the planner process is
    /// unreachable or the survivors cannot host every expert.
    pub fn plan(&self, demand: &RoutingMatrix, net: Option<&DegradedView>) -> Option<Plan> {
        if !self.available {
            return None;
        }
        match net {
            Some(view) if !view.is_nominal() => self.planner.plan_degraded(demand, view).ok(),
            _ => Some(self.planner.plan(demand)),
        }
    }

    /// [`Self::plan`] for `layer`'s predicted demand.
    pub fn propose(&self, layer: usize, net: Option<&DegradedView>) -> Option<Proposal> {
        let demand = self.predict(layer)?;
        Some(Proposal {
            plan: self.plan(&demand, net)?,
            from_replay: self.histories[layer].serving_trace(),
            demand,
        })
    }

    /// Answers a change of the cluster's capacity to `view`: `Restart`
    /// when devices failed while the planner is down (no survivor
    /// layout can be computed), `Replan` otherwise.
    ///
    /// # Errors
    ///
    /// The planner's survivor check ([`Planner::survivors`]).
    pub fn capacity_change(&self, view: &DegradedView) -> Result<CapacityResponse, PlanError> {
        self.planner.survivors(view, self.experts)?;
        Ok(if !self.available && !view.failed_devices().is_empty() {
            CapacityResponse::Restart
        } else {
            CapacityResponse::Replan
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_cluster::DeviceId;
    use laer_model::ModelPreset;
    use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};

    fn policy(topo: &Topology) -> LayoutPolicy {
        LayoutPolicy::new(
            PlannerConfig::new(2),
            &ModelPreset::Mixtral8x7bE8k2.config(),
            GpuSpec::a100(),
            topo.clone(),
        )
    }

    /// The capacity rule: the survivor check first, then `Restart` for
    /// failures while the planner is down, `Replan` otherwise.
    #[test]
    fn capacity_change_rule() {
        let topo = Topology::new(2, 4).unwrap();
        let mut p = policy(&topo);
        let mut failed = DegradedView::new(topo.clone());
        failed.fail_device(DeviceId::new(3));
        let mut slow = DegradedView::new(topo.clone());
        slow.degrade_link(DeviceId::new(0), DeviceId::new(4), 0.5);
        assert_eq!(p.capacity_change(&failed), Ok(CapacityResponse::Replan));
        p.set_available(false);
        assert_eq!(p.capacity_change(&failed), Ok(CapacityResponse::Restart));
        assert_eq!(p.capacity_change(&slow), Ok(CapacityResponse::Replan));
        let mut all = DegradedView::new(topo.clone());
        for d in topo.devices() {
            all.fail_device(d);
        }
        assert_eq!(p.capacity_change(&all), Err(PlanError::NoSurvivors));
    }

    /// Nothing is planned while the planner is down or before a layer
    /// has history; a degraded view plans on its survivors.
    #[test]
    fn plans_on_the_network_while_reachable() {
        let topo = Topology::new(2, 4).unwrap();
        let mut p = policy(&topo);
        let mut gen = RoutingGenerator::new(RoutingGeneratorConfig::new(8, 8, 4096).with_seed(5));
        let demand = gen.next_iteration();
        assert!(p.propose(0, None).is_none(), "no history yet");
        p.observe(0, &demand);
        let mut view = DegradedView::new(topo);
        view.fail_device(DeviceId::new(6));
        let proposal = p.propose(0, Some(&view)).expect("planner reachable");
        assert_eq!(proposal.demand, demand);
        assert!(!proposal.from_replay);
        assert_eq!(proposal.plan.layout.device_slots_used(DeviceId::new(6)), 0);
        p.set_available(false);
        assert!(p.plan(&demand, None).is_none());
        assert!(p.propose(0, None).is_none());
    }

    /// A demand of a new shape restarts the layer's history, which then
    /// predicts the new shape.
    #[test]
    fn reshaped_demand_restarts_history() {
        let mut p = policy(&Topology::new(2, 4).unwrap());
        p.observe(0, &RoutingMatrix::zeros(8, 8).unwrap());
        let reshaped = RoutingMatrix::zeros(8, 4).unwrap();
        p.observe(0, &reshaped);
        assert_eq!(p.predict(0), Some(reshaped));
    }
}
