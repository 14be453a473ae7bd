//! Building blocks of the serving resilience layer: retry buffering
//! with exponential backoff, shed-cause accounting, the SLO-aware
//! brownout estimator and recovery-episode records.
//!
//! The state machine itself (detect → drain → re-plan → brownout →
//! recover) is the fault-edge and admit phases of the serving step
//! [`crate::serving::run_serving`] loops over; this module holds its
//! deterministic data structures so each piece can be tested alone.
//! Everything here is a pure function of its inputs — no clocks, no
//! randomness — which is what keeps chaos runs byte-identical across
//! `--jobs` counts.

use serde::{Deserialize, Serialize};

use crate::workload::Request;

/// Time for the serving control plane to notice a dead device. The
/// planner host doubles as a failure detector (it heartbeats workers
/// continuously, far more often than the training loop's per-iteration
/// check), so detection is fast.
pub const SERVE_DETECTION_DELAY: f64 = 5.0e-3;

/// Collective timeout a non-elastic system pays before it even observes
/// a failure: static EP has no out-of-band detector, so a dead rank
/// surfaces as a hung All-to-All.
pub const SERVE_FAILOVER_TIMEOUT: f64 = 0.25;

/// Reloading expert weights onto replacement hardware (restart path) or
/// fetching a sole-replica expert from host storage after its only
/// holder died (drain path).
pub const SERVE_RELOAD_TIME: f64 = 0.235;

/// Cap on per-request retries after failure interruptions; beyond it
/// the request is shed as `retry_exhausted`.
pub const MAX_RETRIES: u32 = 3;

/// Base of the exponential retry backoff, in virtual seconds: retry `k`
/// becomes eligible `RETRY_BACKOFF * 2^(k-1)` after interruption.
pub const RETRY_BACKOFF: f64 = 5.0e-3;

/// A request interrupted by a device failure, waiting out its backoff
/// before re-entering the admission queue.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryEntry {
    /// The interrupted request (re-executed from its prefill).
    pub req: Request,
    /// Times this request has been re-enqueued (including this one).
    pub retries: u32,
    /// Virtual time at which the retry may re-enter the queue.
    pub eligible: f64,
    /// TTFT of the first successful prefill, if one landed before the
    /// interruption — the client already received the first token, so
    /// the retry must not emit a second TTFT sample.
    pub first_ttft: Option<f64>,
}

/// Deterministic buffer of interrupted requests, drained in
/// `(eligible, id)` order so re-admission is independent of the order
/// interruptions were discovered in.
#[derive(Debug, Default)]
pub struct RetryBuffer {
    entries: Vec<RetryEntry>,
}

impl RetryBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queued retries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no retries are waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds an interrupted request, keeping `(eligible, id)` order.
    pub fn push(&mut self, entry: RetryEntry) {
        let key = (entry.eligible, entry.req.id);
        let at = self
            .entries
            .partition_point(|e| (e.eligible, e.req.id) <= key);
        self.entries.insert(at, entry);
    }

    /// Removes and returns every retry eligible at `now`, in
    /// `(eligible, id)` order.
    pub fn drain_eligible(&mut self, now: f64) -> Vec<RetryEntry> {
        let cut = self.entries.partition_point(|e| e.eligible <= now);
        self.entries.drain(..cut).collect()
    }

    /// Earliest eligibility time among waiting retries.
    pub fn next_eligible(&self) -> Option<f64> {
        self.entries.first().map(|e| e.eligible)
    }
}

/// Shed requests broken out by cause. Together with completions these
/// account for every generated request: nothing is silently lost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShedBreakdown {
    /// Arrivals dropped because the bounded admission queue was full.
    pub queue_full: usize,
    /// Arrivals dropped by the SLO-aware brownout under reduced
    /// capacity (estimated queueing wait exceeded the TTFT budget).
    pub brownout: usize,
    /// Interrupted requests dropped after exhausting their retry cap.
    pub retry_exhausted: usize,
    /// Requests still queued, running, in retry backoff or unarrived
    /// when the run hit its step cap.
    pub unserved: usize,
}

impl ShedBreakdown {
    /// Total shed requests across all causes.
    pub fn total(&self) -> usize {
        self.queue_full + self.brownout + self.retry_exhausted + self.unserved
    }
}

/// One completed recovery episode of the serving state machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    /// Episode kind: `drain-replan` (elastic survivor re-layout) or
    /// `restart` (timeout + reload onto replacement hardware).
    pub kind: String,
    /// Virtual time the failure was detected.
    pub detected: f64,
    /// Virtual time serving resumed.
    pub resumed: f64,
}

impl RecoveryEvent {
    /// Seconds from detection to resumption.
    pub fn duration(&self) -> f64 {
        self.resumed - self.detected
    }
}

/// Trailing estimate of the scheduler's service rate, driving the
/// SLO-aware brownout: admit a new request only if its estimated
/// queueing wait fits inside the TTFT budget.
#[derive(Debug)]
pub struct ServiceRate {
    window: std::collections::VecDeque<(f64, usize)>,
    cap: usize,
}

impl ServiceRate {
    /// Estimator over the last `cap` steps.
    pub fn new(cap: usize) -> Self {
        Self {
            window: std::collections::VecDeque::new(),
            cap: cap.max(1),
        }
    }

    /// Records one executed step: its duration and how many prefills
    /// it served.
    pub fn record(&mut self, step_seconds: f64, prefills: usize) {
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back((step_seconds, prefills));
    }

    /// Estimated queueing wait of a request admitted behind `depth`
    /// queued requests: steps needed to drain the queue at the recent
    /// prefill rate, times the recent step duration. `None` until
    /// enough steps have been observed to estimate anything.
    pub fn estimated_wait(&self, depth: usize) -> Option<f64> {
        if self.window.is_empty() {
            return None;
        }
        let steps = self.window.len() as f64;
        let mean_step = self.window.iter().map(|&(t, _)| t).sum::<f64>() / steps;
        let mean_prefills = self.window.iter().map(|&(_, p)| p as f64).sum::<f64>() / steps;
        if mean_prefills <= 0.0 {
            return None;
        }
        Some((depth as f64 + 1.0) / mean_prefills * mean_step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64) -> Request {
        Request {
            id,
            arrival: 0.0,
            prompt_tokens: 8,
            decode_tokens: 4,
        }
    }

    fn entry(id: u64, eligible: f64) -> RetryEntry {
        RetryEntry {
            req: req(id),
            retries: 1,
            eligible,
            first_ttft: None,
        }
    }

    #[test]
    fn retry_buffer_drains_in_eligible_then_id_order() {
        let mut buf = RetryBuffer::new();
        buf.push(entry(5, 0.3));
        buf.push(entry(2, 0.1));
        buf.push(entry(9, 0.1));
        buf.push(entry(1, 0.7));
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.next_eligible(), Some(0.1));
        let drained = buf.drain_eligible(0.3);
        let ids: Vec<u64> = drained.iter().map(|e| e.req.id).collect();
        assert_eq!(ids, vec![2, 9, 5]);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.next_eligible(), Some(0.7));
        assert!(buf.drain_eligible(0.5).is_empty());
        assert_eq!(buf.drain_eligible(0.7).len(), 1);
        assert!(buf.is_empty());
        assert_eq!(buf.next_eligible(), None);
    }

    #[test]
    fn retry_buffer_insertion_order_does_not_matter() {
        let mut a = RetryBuffer::new();
        let mut b = RetryBuffer::new();
        let entries = [entry(3, 0.2), entry(7, 0.1), entry(4, 0.2)];
        for e in &entries {
            a.push(e.clone());
        }
        for e in entries.iter().rev() {
            b.push(e.clone());
        }
        assert_eq!(a.drain_eligible(1.0), b.drain_eligible(1.0));
    }

    #[test]
    fn shed_breakdown_totals() {
        let shed = ShedBreakdown {
            queue_full: 3,
            brownout: 2,
            retry_exhausted: 1,
            unserved: 4,
        };
        assert_eq!(shed.total(), 10);
        assert_eq!(ShedBreakdown::default().total(), 0);
    }

    #[test]
    fn service_rate_estimates_queue_wait() {
        let mut rate = ServiceRate::new(4);
        assert_eq!(rate.estimated_wait(3), None);
        for _ in 0..4 {
            rate.record(2.0e-3, 2);
        }
        // 8 queued + 1 = 9 requests at 2 prefills/step = 4.5 steps of
        // 2 ms each.
        let wait = rate.estimated_wait(8).unwrap();
        assert!((wait - 9.0e-3).abs() < 1e-12, "got {wait}");
        // Decode-only windows give no prefill-rate evidence.
        let mut idle = ServiceRate::new(2);
        idle.record(1.0e-3, 0);
        assert_eq!(idle.estimated_wait(1), None);
    }

    #[test]
    fn service_rate_window_slides() {
        let mut rate = ServiceRate::new(2);
        rate.record(1.0, 1);
        rate.record(1.0, 1);
        rate.record(3.0, 1);
        // Window holds (1.0, 1) and (3.0, 1): mean step 2.0.
        let wait = rate.estimated_wait(0).unwrap();
        assert!((wait - 2.0).abs() < 1e-12, "got {wait}");
    }

    #[test]
    fn recovery_event_duration() {
        let e = RecoveryEvent {
            kind: "restart".into(),
            detected: 1.0,
            resumed: 1.5,
        };
        assert!((e.duration() - 0.5).abs() < 1e-12);
    }
}
