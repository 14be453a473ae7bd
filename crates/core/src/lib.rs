//! # laer-moe
//!
//! A simulation-backed Rust reproduction of **LAER-MoE: Load-Adaptive
//! Expert Re-layout for Efficient Mixture-of-Experts Training**
//! (ASPLOS 2026).
//!
//! LAER-MoE attacks the expert-load-imbalance problem of
//! Mixture-of-Experts training with two pieces:
//!
//! * **FSEP (Fully Sharded Expert Parallelism)** — every expert's flat
//!   parameter buffer is sharded across all `N` devices; each device
//!   restores an *arbitrary* set of `C` complete experts per layer with a
//!   balanced All-to-All, making expert re-layout free of dedicated
//!   migration traffic ([`fsep`]).
//! * A **load-balancing planner** — per iteration, per layer: a
//!   priority-queue replica allocator (Alg. 4), a topology-aware greedy
//!   relocator (Alg. 1), a candidate-set tuner (Alg. 2) and the
//!   synchronous lite-routing token dispatcher (Alg. 3) ([`planner`]).
//!
//! Because the paper's 32×A100 testbed is not reproducible in a library,
//! the executor runs against a deterministic discrete-event cluster
//! simulator ([`sim`], [`cluster`]) with calibrated routing traces
//! ([`routing`]); the numeric claims of the paper (bit-exact
//! FSDP-equivalence of FSEP) are proven on a real — if small — `f32`
//! execution engine ([`fsep`]).
//!
//! ## Quickstart
//!
//! ```
//! use laer_moe::prelude::*;
//!
//! // Compare LAER-MoE against the FSDP+EP baseline on a small slice of
//! // the Mixtral-8x7B e8k2 workload.
//! let laer = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
//!     .with_layers(2)
//!     .with_iterations(3, 1);
//! let fsdp = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::FsdpEp)
//!     .with_layers(2)
//!     .with_iterations(3, 1);
//! let (a, b) = (run_experiment(&laer), run_experiment(&fsdp));
//! assert!(a.tokens_per_second > b.tokens_per_second);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`cluster`] | topology, `bw(i,j)`, device/node/expert ids |
//! | [`sim`] | multi-stream discrete-event engine, collectives, timelines |
//! | [`model`] | the six Tab. 2 architectures, cost model, Eq. 1, memory analysis |
//! | [`routing`] | gating, calibrated routing-trace generator, stats |
//! | [`planner`] | Algorithms 1–4, cost model, exact solver, incremental cost |
//! | [`fsep`] | numeric shard/unshard/reshard engine, Fig. 5 scheduling |
//! | [`systems`] | LAER + all baselines behind one trait |
//! | [`train`] | experiment runner, convergence model, Tab. 4 scaling |
//! | [`serve`] | online inference serving: request workloads, continuous batching, live re-layout |
//! | [`obs`] | deterministic telemetry: metrics registry, event journal, planner decision audit, perf gate |

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub use laer_baselines as systems;
pub use laer_cluster as cluster;
pub use laer_fsep as fsep;
pub use laer_model as model;
pub use laer_obs as obs;
pub use laer_planner as planner;
pub use laer_routing as routing;
pub use laer_serve as serve;
pub use laer_sim as sim;
pub use laer_train as train;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use laer_baselines::{
        FlexMoeSystem, FsdpEpSystem, LaerSystem, MegatronSystem, MoeSystem, SystemContext,
        SystemKind, VanillaEpSystem,
    };
    pub use laer_cluster::{DeviceId, ExpertId, NodeId, Topology, TopologyBuilder};
    pub use laer_fsep::{ExpertParams, FsepExperts, LayerTimings, ScheduleOptions, ShardedAdam};
    pub use laer_model::{CostModel, GpuSpec, ModelConfig, ModelConfigBuilder, ModelPreset};
    pub use laer_obs::{AuditLog, Journal, MetricsRegistry, Observer};
    pub use laer_planner::{
        lite_route, ExpertLayout, Plan, Planner, PlannerConfig, ReplicaScheme, TokenRouting,
    };
    pub use laer_routing::{
        DatasetProfile, RoutingGenerator, RoutingGeneratorConfig, RoutingMatrix, RoutingTrace,
    };
    pub use laer_serve::{
        run_serving, ServeConfig, ServeReport, ServingSystemKind, SlaConfig, WorkloadConfig,
    };
    pub use laer_sim::{
        Breakdown, Engine, FaultEvent, FaultKind, FaultPlan, SpanLabel, StreamKind, Timeline,
    };
    pub use laer_train::{
        mlp_speedup, run_experiment, window_throughput, ConvergenceModel, ExperimentConfig,
        ExperimentResult, FaultRunner, TrainError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_compose() {
        let topo = Topology::paper_cluster();
        let cfg = ModelPreset::Mixtral8x7bE8k2.config();
        let ctx = SystemContext::new(topo, cfg, GpuSpec::a100(), 4096, 8192);
        let mut sys = LaerSystem::new(ctx);
        let demand = RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 8192).with_seed(1))
            .next_iteration();
        let plan = sys.plan_layer(0, 0, &demand);
        assert!(plan.routing.validate(&demand, &plan.layout).is_ok());
    }
}
