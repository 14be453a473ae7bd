//! Online MoE inference serving with live-traffic-driven expert
//! re-layout.
//!
//! The training side of this repository replays recorded routing traces
//! through fixed-size iterations; serving is a different regime: requests
//! arrive stochastically, batches vary in size from step to step, and the
//! request mix drifts (and occasionally *flips*) which experts are hot.
//! This crate builds that regime on top of the deterministic simulator:
//!
//! * [`workload`] — a seeded request generator (Poisson or bursty
//!   arrivals, prompt/decode length distributions) plus a [`TopicMix`]
//!   that resumes the routing crate's drifting popularity process
//!   mid-stream and overlays sudden hot-expert flips;
//! * [`serving`] — a continuous-batching scheduler with separate prefill
//!   and decode phases on the sim's per-device streams, a bounded
//!   admission queue, and per-request latency accounting (TTFT, TPOT,
//!   percentiles, goodput under the [`SLA`]), stepped phase by phase;
//! * [`systems`] — the [`ServingSystem`] trait with `static-ep`,
//!   `replicate-hot` (FasterMoE-style reactive replication) and `laer`
//!   (the [`laer_planner::LayoutPolicy`] training's LAER drives too: EMA
//!   predictor + the full planner of Alg. 1–4) implementations;
//! * [`sla`] — the SLO and latency summaries;
//! * [`resilience`] — the fault-tolerance building blocks: retry
//!   buffering with exponential backoff, shed-cause accounting, the
//!   SLO-aware brownout estimator and recovery-episode records. An
//!   optional [`laer_sim::FaultPlan`] threaded through [`ServeConfig`]
//!   drives the detect → drain → re-plan → brownout → recover state
//!   machine in the step's fault-edge and admit phases.
//!
//! Re-layout is *charged, not assumed*: when a system adopts a new
//! layout, the weight movement is priced through `sim::collective` and
//! enqueued as [`laer_sim::SpanLabel::Relayout`] spans on the prefetch
//! stream, where it delays expert compute it fails to overlap.
//!
//! # Example
//!
//! ```
//! use laer_serve::{run_serving, ServeConfig, ServingSystemKind};
//!
//! let mut cfg = ServeConfig::new(ServingSystemKind::Laer);
//! cfg.workload.requests = 20;
//! let outcome = run_serving(&cfg);
//! assert_eq!(outcome.report.completed + outcome.report.rejected, 20);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

pub mod resilience;
pub mod serving;
pub mod sla;
pub mod systems;
pub mod workload;

pub use resilience::{
    RecoveryEvent, RetryBuffer, RetryEntry, ServiceRate, ShedBreakdown, SERVE_DETECTION_DELAY,
    SERVE_FAILOVER_TIMEOUT, SERVE_RELOAD_TIME,
};
pub use serving::{
    record_observability, run_serving, step_records, ServeConfig, ServeReport, ServingOutcome,
};
pub use sla::{LatencySummary, SlaConfig, SLA};
pub use systems::{ServingSystem, ServingSystemKind};
pub use workload::{generate_requests, Request, TopicMix, WorkloadConfig};
