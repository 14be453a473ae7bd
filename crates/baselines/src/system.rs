//! The [`MoeSystem`] trait and common plan types.

use crate::context::SystemContext;
use laer_cluster::DegradedView;
use laer_fsep::{LayerTimings, ScheduleOptions};
use laer_obs::PlanAudit;
use laer_planner::{CapacityResponse, ExpertLayout, PlanError, TokenRouting};
use laer_routing::{RoutingMatrix, RoutingTrace};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A system's typed failure while reacting to a fault (device loss,
/// state restore). Planning itself stays infallible — systems degrade to
/// a previous layout instead — so this surfaces only unsatisfiable
/// situations the training loop must abort on.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// The degraded cluster cannot host every expert at least once.
    Plan(PlanError),
    /// A checkpoint snapshot does not match this system's state shape.
    Restore(String),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Plan(e) => write!(f, "degraded planning failed: {e}"),
            SystemError::Restore(msg) => write!(f, "state restore failed: {msg}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<PlanError> for SystemError {
    fn from(e: PlanError) -> Self {
        SystemError::Plan(e)
    }
}

/// A system's decision for one MoE layer of one iteration.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// Expert layout executed this iteration.
    pub layout: ExpertLayout,
    /// Token routing executed this iteration.
    pub routing: TokenRouting,
    /// Operation durations handed to the simulator.
    pub timings: LayerTimings,
    /// The decision's belief for the audit trail: why the system
    /// (re-)planned and what Eq. 1 cost it expected. Systems with their
    /// own planner report the belief formed at planning time (possibly
    /// on stale demand); systems without one report the cost model's
    /// prediction for the layout they executed
    /// ([`audit_belief`]).
    pub audit: PlanAudit,
}

/// Prices `routing` with the context's Eq. 1 model into a [`PlanAudit`]
/// belief — the default audit for systems that carry no planner-side
/// prediction of their own.
pub fn audit_belief(ctx: &SystemContext, trigger: &str, routing: &TokenRouting) -> PlanAudit {
    let cost = ctx.eq1_cost(routing);
    PlanAudit::new(
        trigger,
        cost.comm,
        cost.comp,
        routing.device_compute_loads(),
    )
}

/// The device Eq. 1 names as one iteration's bottleneck: argmax of the
/// per-device predicted loads accumulated element-wise across the
/// iteration's layers (ties break to the lowest device). `None` when no
/// layer reported a load — the agreement metric of the diagnosis layer
/// is undefined then.
pub fn predicted_bottleneck_device(per_layer_loads: &[Vec<u64>]) -> Option<usize> {
    let mut totals: Vec<u64> = Vec::new();
    for loads in per_layer_loads {
        if totals.len() < loads.len() {
            totals.resize(loads.len(), 0);
        }
        for (t, &l) in totals.iter_mut().zip(loads) {
            *t += l;
        }
    }
    totals
        .iter()
        .enumerate()
        .max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)))
        .filter(|&(_, &max)| max > 0)
        .map(|(d, _)| d)
}

impl LayerPlan {
    /// Maximum token-assignment count over devices divided by the ideal
    /// balanced count — the metric of Fig. 10(b).
    pub fn max_token_ratio(&self) -> f64 {
        let loads = self.routing.device_compute_loads();
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ideal = total as f64 / loads.len() as f64;
        max / ideal
    }
}

/// A distributed MoE training system: given each layer's routing demand,
/// decides layout, routing and costs.
pub trait MoeSystem {
    /// Human-readable system name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Stream-scheduling options the executor runs under.
    fn schedule_options(&self) -> ScheduleOptions;

    /// Plans one MoE layer. `layer` indexes the transformer layer (each
    /// layer has independent routing and, for stateful planners,
    /// independent state); `iteration` is the global step.
    fn plan_layer(&mut self, layer: usize, iteration: u64, demand: &RoutingMatrix) -> LayerPlan;

    /// The shared cost context.
    fn context(&self) -> &SystemContext;

    /// Mutable access to the cost context, so a fault harness can price
    /// the current iteration against a degraded network
    /// ([`SystemContext::set_fault_view`]).
    fn context_mut(&mut self) -> &mut SystemContext;

    /// Reacts to device failures described by `view`.
    ///
    /// Returns [`CapacityResponse::Replan`] if the system re-planned
    /// onto the survivors and can continue elastically, and
    /// [`CapacityResponse::Restart`] if it must restart from a
    /// checkpoint (the default — classic EP groups cannot be re-formed
    /// on an irregular survivor set).
    ///
    /// # Errors
    ///
    /// [`SystemError::Plan`] when even an elastic system cannot place
    /// every expert on the survivors.
    fn handle_device_failures(
        &mut self,
        view: &DegradedView,
    ) -> Result<CapacityResponse, SystemError> {
        let _ = view;
        Ok(CapacityResponse::Restart)
    }

    /// Signals whether the asynchronous planner process is reachable
    /// (the `PlannerOutage` fault class). Systems without a planner
    /// ignore this; LAER falls back to its previous layout while the
    /// planner is down.
    fn set_planner_available(&mut self, available: bool) {
        let _ = available;
    }

    /// Installs per-layer routing traces as the layout tuner's demand
    /// forecast, perturbed by `noise` (0 = verbatim) on a stream keyed
    /// on `seed` — the foresight an RL train phase has over the prompts
    /// its rollout recorded. Systems without a layout tuner ignore this.
    fn install_replay(&mut self, traces: Vec<RoutingTrace>, noise: f64, seed: u64) {
        let _ = (traces, noise, seed);
    }

    /// Serializes the system's mutable per-layer state for
    /// checkpointing. Stateless systems (the static baselines) return
    /// [`serde::Value::Null`]; stateful systems must override this
    /// together with [`MoeSystem::restore`] so a restored run continues
    /// bit-identically.
    fn snapshot(&self) -> serde::Value {
        serde::Value::Null
    }

    /// Restores state captured by [`MoeSystem::snapshot`].
    ///
    /// # Errors
    ///
    /// [`SystemError::Restore`] if the snapshot does not match this
    /// system's expected shape.
    fn restore(&mut self, snapshot: &serde::Value) -> Result<(), SystemError> {
        match snapshot {
            serde::Value::Null => Ok(()),
            other => Err(SystemError::Restore(format!(
                "stateless system given a `{}` snapshot",
                other.kind()
            ))),
        }
    }
}

/// Identifier for the systems compared in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// LAER-MoE (this paper).
    Laer,
    /// FlexMoE's scheduler running on FSEP (as evaluated in Sec. 5.2).
    Flex,
    /// FSDP + expert parallelism with the paper's comm optimisations.
    FsdpEp,
    /// Megatron with heterogeneous expert parallelism.
    Megatron,
    /// Vanilla expert parallelism without comm optimisations (Fig. 1b).
    VanillaEp,
    /// SmartMoE-style periodic relocation (related work).
    SmartMoe,
    /// FasterMoE-style hot-expert shadowing (related work).
    FasterMoe,
}

impl SystemKind {
    /// The four systems of the end-to-end comparison (Fig. 8).
    pub const FIG8: [SystemKind; 4] = [
        SystemKind::Laer,
        SystemKind::Flex,
        SystemKind::FsdpEp,
        SystemKind::Megatron,
    ];

    /// Artifact-appendix identifier (`LAER`, `FLEX`, `FSDP`,
    /// `megatron`, ...).
    pub fn id(self) -> &'static str {
        match self {
            SystemKind::Laer => "LAER",
            SystemKind::Flex => "FLEX",
            SystemKind::FsdpEp => "FSDP",
            SystemKind::Megatron => "megatron",
            SystemKind::VanillaEp => "vanillaEP",
            SystemKind::SmartMoe => "smartmoe",
            SystemKind::FasterMoe => "fastermoe",
        }
    }
}

impl fmt::Display for SystemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

impl FromStr for SystemKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [
            SystemKind::Laer,
            SystemKind::Flex,
            SystemKind::FsdpEp,
            SystemKind::Megatron,
            SystemKind::VanillaEp,
            SystemKind::SmartMoe,
            SystemKind::FasterMoe,
        ]
        .into_iter()
        .find(|k| k.id().eq_ignore_ascii_case(s))
        .ok_or_else(|| format!("unknown system `{s}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip() {
        for k in SystemKind::FIG8 {
            assert_eq!(k.id().parse::<SystemKind>().unwrap(), k);
        }
        assert_eq!("laer".parse::<SystemKind>().unwrap(), SystemKind::Laer);
        assert!("bogus".parse::<SystemKind>().is_err());
    }

    #[test]
    fn predicted_bottleneck_accumulates_layers() {
        // Device 2 leads layer 0, device 1 leads layer 1; summed,
        // device 1 carries the most load.
        let layers = vec![vec![1, 4, 5, 0], vec![1, 9, 2, 0]];
        assert_eq!(predicted_bottleneck_device(&layers), Some(1));
        // Ties break to the lowest device.
        assert_eq!(predicted_bottleneck_device(&[vec![3, 3]]), Some(0));
        // Ragged layers extend the total vector.
        assert_eq!(predicted_bottleneck_device(&[vec![1], vec![0, 2]]), Some(1));
        assert_eq!(predicted_bottleneck_device(&[]), None);
        assert_eq!(predicted_bottleneck_device(&[vec![0, 0]]), None);
    }
}
