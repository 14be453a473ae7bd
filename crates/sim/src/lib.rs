//! Deterministic discrete-event simulator of a multi-stream GPU cluster.
//!
//! This crate is the substrate that replaces the paper's physical 32×A100
//! testbed. It models exactly the execution structure of Fig. 5:
//!
//! * every device owns four CUDA-style **streams** — `S1` compute, `S2`
//!   parameter prefetch, `S3` token-dispatch All-to-All, `S4` gradient
//!   synchronisation ([`StreamKind`]);
//! * work is enqueued as **spans** with explicit dependencies; a span
//!   starts when its stream is free *and* all dependencies have finished,
//!   mirroring CUDA events;
//! * **collectives** ([`all_to_all_time`] and friends) are synchronising: every participant
//!   observes the completion time of the slowest member, which is how
//!   expert load imbalance turns into All-to-All tail latency (Fig. 1b).
//!   [`all_to_all_time`] is the one All-to-All price — a routing's
//!   tokens or a relayout's expert weights, as `(src, dst, units)`
//!   triples — and visits only the device pairs that carry traffic;
//! * a [`Timeline`] records every span so experiment harnesses can produce
//!   the paper's time breakdowns (Figs. 1b, 10a).
//!
//! # Example
//!
//! ```
//! use laer_cluster::{DeviceId, Topology};
//! use laer_sim::{Engine, SpanLabel, StreamKind};
//!
//! let topo = Topology::single_node(2)?;
//! let mut eng = Engine::new(&topo);
//! let d0 = DeviceId::new(0);
//! let a = eng.enqueue(d0, StreamKind::Compute, SpanLabel::Attention, 1e-3, &[]);
//! let b = eng.enqueue(d0, StreamKind::Prefetch, SpanLabel::Prefetch, 5e-4, &[a]);
//! assert!(eng.span(b).start >= eng.span(a).end);
//! # Ok::<(), laer_cluster::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod chrome;
mod collective;
mod engine;
pub mod faults;
mod timeline;

pub use chrome::{
    write_chrome_trace, write_chrome_trace_with_counters, write_chrome_trace_with_flow,
    CounterSample, CounterTrack,
};
pub use collective::{
    all_gather_time, all_reduce_time, all_to_all_time, reduce_scatter_time, CollectiveError,
};
pub use engine::{Engine, EngineOptions, SpanHandle, StreamKind};
pub use faults::{
    record_fault_spans, record_timed_fault_spans, ActiveFaults, FailureEdges, FaultError,
    FaultEvent, FaultKind, FaultPlan, HandledFailures, TimedFaultEvent,
};
pub use timeline::{Breakdown, CollectiveGroup, DepLog, Span, SpanLabel, Timeline};
