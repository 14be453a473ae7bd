//! The LAER-MoE load-balancing planner (Sec. 3.2 of the paper).
//!
//! The planner answers two questions every iteration:
//!
//! 1. **expert re-layout** — which experts should each device restore
//!    during FSEP unshard (`A[i][j]`, the re-layout strategy of Tab. 1)?
//! 2. **token routing** — to which replica should each token go
//!    (`S[i][j][k]`)?
//!
//! It solves them with the paper's decomposition:
//!
//! * [`lite_routing`] — Alg. 3: the synchronous, topology-aware token
//!   dispatcher (intra-node replicas first, global replicas otherwise);
//! * [`replica`] — Alg. 4: priority-queue replica allocation by average
//!   load;
//! * [`relocation`] — Alg. 1: greedy topology-aware placement of replicas
//!   onto devices;
//! * [`tuner`] — Alg. 2: the asynchronous expert-layout tuner evaluating a
//!   candidate set ε of replica schemes (proportional, even, random
//!   perturbations) under the cost model and picking the cheapest,
//!   dropping each candidate once it provably cannot win;
//! * [`cost`] — the joint objective `T = T_comm + T_comp` of Eqs. 2–4;
//! * [`exact`] — a brute-force layout enumerator for tiny instances, used
//!   by tests to bound the greedy optimality gap;
//! * [`delta`] — incremental Eq. 2 evaluation for the refine/exact hot
//!   paths: a move re-routes only the cells of the affected experts
//!   whose targets changed, with results bit-identical to
//!   `lite_route` + `time_cost` from scratch;
//! * [`policy`] — the layout policy both LAER loops (training and
//!   serving) drive: per-layer demand history, planning on the network
//!   the executor sees, the planner-outage rule and the
//!   [`CapacityResponse`] to a capacity change.
//!
//! # Example
//!
//! ```
//! use laer_cluster::Topology;
//! use laer_planner::{CostParams, Planner, PlannerConfig};
//! use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};
//!
//! # fn main() {
//! let topo = Topology::single_node(4).unwrap();
//! let mut gen = RoutingGenerator::new(RoutingGeneratorConfig::new(4, 8, 4096).with_seed(1));
//! let planner = Planner::new(PlannerConfig::new(2), CostParams::mixtral_8x7b(), topo);
//! let plan = planner.plan(&gen.next_iteration());
//! assert_eq!(plan.layout.total_replicas(), 4 * 2);
//! # }
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod cost;
pub mod delta;
pub mod exact;
pub mod layout;
pub mod lite_routing;
pub mod policy;
pub mod predictor;
pub mod refine;
pub mod relocation;
pub mod replica;
pub mod tuner;

mod token_routing;

pub use cost::{time_cost, CostBreakdown, CostParams};
pub use delta::IncrementalCost;
pub use exact::exhaustive_best_layout;
pub use layout::{ExpertLayout, LayoutError};
pub use lite_routing::lite_route;
pub use policy::{CapacityResponse, LayoutPolicy, Proposal};
pub use predictor::{AnyPredictor, LoadPredictor, PredictError, PredictorKind, ReplayPredictor};
pub use refine::{refine_layout, refine_layout_scratch, RefinedPlan};
pub use relocation::{expert_relocation, expert_relocation_on, relocation_moves, RelocationMove};
pub use replica::{even_replicas, replica_allocation};
pub use token_routing::{RoutingViolation, TokenRouting};
pub use tuner::{Plan, PlanError, Planner, PlannerConfig, ReplicaScheme};
