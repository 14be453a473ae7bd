//! Deterministic fault injection for the discrete-event simulator.
//!
//! A [`FaultPlan`] is a seeded, validated schedule of fault events —
//! compute stragglers, link-bandwidth degradations, whole-device
//! failures and planner outages — each active over a half-open
//! iteration window `[start, end)`. The plan is *data*, not behaviour:
//! the training runner queries [`FaultPlan::active_at`] every iteration
//! (the serving loop [`FaultPlan::active_in`] every step) and applies
//! the returned [`ActiveFaults`] to compute timings, the network view
//! ([`ActiveFaults::view`]) and the planner; [`HandledFailures::edges`]
//! tells both which failures are new. Two runs over the same
//! `(seed, FaultPlan)` therefore schedule byte-identical iterations —
//! the property the replay tests pin down.
//!
//! Fault windows are also recorded onto the [`Timeline`] as
//! [`SpanLabel::Fault`] annotation spans so
//! [`crate::write_chrome_trace`] renders them alongside the work they
//! perturbed.

use crate::timeline::{Span, SpanLabel, Timeline};
use crate::StreamKind;
use laer_cluster::{DegradedView, DeviceId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Validation error for a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A straggler multiplier was not finite and ≥ 1.
    BadStragglerFactor {
        /// The offending multiplier.
        factor: f64,
    },
    /// A link-degradation factor was not finite and in `(0, 1]`.
    BadLinkFactor {
        /// The offending multiplier.
        factor: f64,
    },
    /// A link-degradation event named the same device twice.
    SelfLink {
        /// The device on both ends.
        device: DeviceId,
    },
    /// An event window was empty (`start >= end`).
    EmptyWindow {
        /// Window start iteration.
        start: u64,
        /// Window end iteration.
        end: u64,
    },
    /// A time-stamped window was empty, negative or non-finite.
    /// Continuous-time windows must satisfy `0 <= start < end` with
    /// both endpoints finite — "permanent" faults use a finite end
    /// beyond the run horizon so plans stay JSON-serializable.
    BadTimeWindow {
        /// Window start, seconds of virtual time.
        start: f64,
        /// Window end, seconds of virtual time.
        end: f64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::BadStragglerFactor { factor } => {
                write!(f, "straggler factor must be finite and >= 1, got {factor}")
            }
            FaultError::BadLinkFactor { factor } => {
                write!(f, "link factor must be finite and in (0, 1], got {factor}")
            }
            FaultError::SelfLink { device } => {
                write!(
                    f,
                    "link degradation needs two distinct devices, got {device} twice"
                )
            }
            FaultError::EmptyWindow { start, end } => {
                write!(f, "fault window [{start}, {end}) is empty")
            }
            FaultError::BadTimeWindow { start, end } => {
                write!(
                    f,
                    "timed fault window [{start}, {end}) must be finite with 0 <= start < end"
                )
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// One class of injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A device computes `factor`× slower (thermal throttling, ECC
    /// retries, a noisy neighbour on shared infrastructure).
    Straggler {
        /// The slowed device.
        device: DeviceId,
        /// Compute-time multiplier, ≥ 1.
        factor: f64,
    },
    /// The `a`–`b` link runs at `factor`× its nominal bandwidth (cable
    /// errors, switch congestion, a flapping NIC).
    LinkDegrade {
        /// One endpoint.
        a: DeviceId,
        /// The other endpoint.
        b: DeviceId,
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
    },
    /// The device drops out of the job entirely.
    DeviceFailure {
        /// The failed device.
        device: DeviceId,
    },
    /// The asynchronous CPU planner host is unreachable: no fresh
    /// layout arrives, forcing the staleness fallback.
    PlannerOutage,
}

/// A fault active over the half-open iteration window `[start, end)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The fault class and parameters.
    pub kind: FaultKind,
    /// First iteration (inclusive) the fault is active.
    pub start: u64,
    /// First iteration (exclusive) after the fault clears. Device
    /// failures are conventionally permanent (`end = u64::MAX`), but a
    /// finite window models a node rejoining after a reboot.
    pub end: u64,
}

/// A fault active over the half-open wall-clock window `[start, end)`,
/// in seconds of virtual time. This is the continuous-time counterpart
/// of the iteration-indexed [`FaultEvent`]: online serving has no
/// iteration grid, so its scheduler consults faults by timestamp via
/// [`FaultPlan::active_in`]. Endpoints must be finite ("permanent"
/// faults use an end beyond the run horizon) so plans round-trip
/// through JSON as replayable artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedFaultEvent {
    /// The fault class and parameters.
    pub kind: FaultKind,
    /// Window start (inclusive), seconds of virtual time.
    pub start: f64,
    /// Window end (exclusive), seconds of virtual time.
    pub end: f64,
}

/// A validated, ordered schedule of fault events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    #[serde(default)]
    timed: Vec<TimedFaultEvent>,
}

impl FaultPlan {
    /// An empty plan (fault-free execution).
    pub fn new() -> Self {
        Self::default()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The scheduled continuous-time events, in insertion order.
    pub fn timed_events(&self) -> &[TimedFaultEvent] {
        &self.timed
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.timed.is_empty()
    }

    /// Adds an event after validating its parameters and window.
    ///
    /// # Errors
    ///
    /// Returns a [`FaultError`] for an empty window, a straggler factor
    /// below 1, a link factor outside `(0, 1]` or a self-link.
    pub fn push(&mut self, event: FaultEvent) -> Result<(), FaultError> {
        if event.start >= event.end {
            return Err(FaultError::EmptyWindow {
                start: event.start,
                end: event.end,
            });
        }
        validate_kind(&event.kind)?;
        self.events.push(event);
        Ok(())
    }

    /// Adds a continuous-time event after validating its parameters
    /// and window.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::BadTimeWindow`] unless
    /// `0 <= start < end` with both endpoints finite, or the same
    /// per-kind parameter errors as [`FaultPlan::push`].
    pub fn push_timed(&mut self, event: TimedFaultEvent) -> Result<(), FaultError> {
        let ok = event.start.is_finite()
            && event.end.is_finite()
            && event.start >= 0.0
            && event.start < event.end;
        if !ok {
            return Err(FaultError::BadTimeWindow {
                start: event.start,
                end: event.end,
            });
        }
        validate_kind(&event.kind)?;
        self.timed.push(event);
        Ok(())
    }

    /// A seeded random plan mixing all fault classes over a run of
    /// `iterations`: one straggler burst, one link flap, one permanent
    /// device failure and one planner outage, with windows and
    /// parameters drawn deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices < 2` or `iterations < 8` — too small to
    /// place disjoint fault windows.
    pub fn random(seed: u64, num_devices: usize, iterations: u64) -> Self {
        assert!(num_devices >= 2, "need at least two devices");
        assert!(iterations >= 8, "need at least eight iterations");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17);
        let mut plan = Self::new();
        let span = iterations / 4;
        let window = |rng: &mut StdRng, quarter: u64| {
            let base = quarter * span;
            let start = base + rng.gen_range(0..span.max(1) / 2 + 1);
            let len = 1 + rng.gen_range(0..span.max(2) / 2 + 1);
            (start, (start + len).min(iterations))
        };
        let (s0, e0) = window(&mut rng, 0);
        let straggler = FaultEvent {
            kind: FaultKind::Straggler {
                device: DeviceId::new(rng.gen_range(0..num_devices)),
                factor: 1.5 + rng.gen_range(0.0..2.0),
            },
            start: s0,
            end: e0,
        };
        let (s1, e1) = window(&mut rng, 1);
        let a = rng.gen_range(0..num_devices);
        let mut b = rng.gen_range(0..num_devices);
        if b == a {
            b = (b + 1) % num_devices;
        }
        let link = FaultEvent {
            kind: FaultKind::LinkDegrade {
                a: DeviceId::new(a),
                b: DeviceId::new(b),
                factor: 0.1 + rng.gen_range(0.0..0.4),
            },
            start: s1,
            end: e1,
        };
        let (s2, _) = window(&mut rng, 2);
        let failure = FaultEvent {
            kind: FaultKind::DeviceFailure {
                device: DeviceId::new(rng.gen_range(0..num_devices)),
            },
            start: s2,
            end: u64::MAX,
        };
        let (s3, e3) = window(&mut rng, 3);
        let outage = FaultEvent {
            kind: FaultKind::PlannerOutage,
            start: s3,
            end: e3,
        };
        for event in [straggler, link, failure, outage] {
            // Windows and factors are constructed in-range above.
            if plan.push(event).is_err() {
                unreachable!("random() generates validated events");
            }
        }
        plan
    }

    /// Resolves which faults are active at `iteration`, folding
    /// overlapping events together (straggler factors and link factors
    /// compose multiplicatively). Consults the iteration-indexed
    /// events only; use [`FaultPlan::active_in`] for timed events.
    pub fn active_at(&self, iteration: u64) -> ActiveFaults {
        let mut active = ActiveFaults::default();
        for event in &self.events {
            if iteration < event.start || iteration >= event.end {
                continue;
            }
            active.fold(&event.kind);
        }
        active
    }

    /// Resolves which continuous-time faults are active anywhere in
    /// the closed query interval `[t0, t1]` (seconds of virtual time),
    /// folding overlapping events like [`FaultPlan::active_at`]. An
    /// event window `[start, end)` overlaps the query iff
    /// `start <= t1 && t0 < end`; with `t0 == t1` this is an instant
    /// membership test, which is how the serving scheduler samples the
    /// plan at each step boundary. Consults timed events only.
    pub fn active_in(&self, t0: f64, t1: f64) -> ActiveFaults {
        let mut active = ActiveFaults::default();
        for event in &self.timed {
            if event.start <= t1 && t0 < event.end {
                active.fold(&event.kind);
            }
        }
        active
    }
}

/// Shared per-kind parameter validation for both event flavours.
fn validate_kind(kind: &FaultKind) -> Result<(), FaultError> {
    match *kind {
        FaultKind::Straggler { factor, .. } => {
            if !(factor.is_finite() && factor >= 1.0) {
                return Err(FaultError::BadStragglerFactor { factor });
            }
        }
        FaultKind::LinkDegrade { a, b, factor } => {
            if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
                return Err(FaultError::BadLinkFactor { factor });
            }
            if a == b {
                return Err(FaultError::SelfLink { device: a });
            }
        }
        FaultKind::DeviceFailure { .. } | FaultKind::PlannerOutage => {}
    }
    Ok(())
}

/// The faults in effect during one iteration, resolved from a
/// [`FaultPlan`] by [`FaultPlan::active_at`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActiveFaults {
    compute: BTreeMap<usize, f64>,
    links: BTreeMap<(usize, usize), f64>,
    failed: BTreeSet<usize>,
    planner_outage: bool,
}

impl ActiveFaults {
    /// Folds one event's effect into the set (straggler and link
    /// factors compose multiplicatively, failures union).
    fn fold(&mut self, kind: &FaultKind) {
        match *kind {
            FaultKind::Straggler { device, factor } => {
                *self.compute.entry(device.index()).or_insert(1.0) *= factor;
            }
            FaultKind::LinkDegrade { a, b, factor } => {
                let key = if a.index() <= b.index() {
                    (a.index(), b.index())
                } else {
                    (b.index(), a.index())
                };
                *self.links.entry(key).or_insert(1.0) *= factor;
            }
            FaultKind::DeviceFailure { device } => {
                self.failed.insert(device.index());
            }
            FaultKind::PlannerOutage => {
                self.planner_outage = true;
            }
        }
    }

    /// Whether nothing is degraded this iteration.
    pub fn is_empty(&self) -> bool {
        self.compute.is_empty()
            && self.links.is_empty()
            && self.failed.is_empty()
            && !self.planner_outage
    }

    /// Compute-time multiplier for `device` (1.0 when unaffected).
    pub fn compute_multiplier(&self, device: DeviceId) -> f64 {
        self.compute.get(&device.index()).copied().unwrap_or(1.0)
    }

    /// Devices with an active straggler multiplier.
    pub fn straggler_devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.compute.keys().map(|&i| DeviceId::new(i))
    }

    /// Active link degradations as `(a, b, factor)` triples.
    pub fn degraded_links(&self) -> impl Iterator<Item = (DeviceId, DeviceId, f64)> + '_ {
        self.links
            .iter()
            .map(|(&(a, b), &f)| (DeviceId::new(a), DeviceId::new(b), f))
    }

    /// Whether `device` has failed.
    pub fn is_failed(&self, device: DeviceId) -> bool {
        self.failed.contains(&device.index())
    }

    /// Failed devices, ascending.
    pub fn failed_devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.failed.iter().map(|&i| DeviceId::new(i))
    }

    /// Whether the planner host is down this iteration.
    pub fn planner_outage(&self) -> bool {
        self.planner_outage
    }

    /// The network view a step is priced on: `topo` with the active
    /// link degradations applied and `removed` marked failed. `removed`
    /// is what the executor took out of service, not the active
    /// failures: a restarted job runs on replacement hardware, so its
    /// device set does not shrink while a failure window is open.
    pub fn view(
        &self,
        topo: &Topology,
        removed: impl IntoIterator<Item = DeviceId>,
    ) -> DegradedView {
        let mut view = DegradedView::new(topo.clone());
        for (a, b, factor) in self.degraded_links() {
            view.degrade_link(a, b, factor);
        }
        for device in removed {
            view.fail_device(device);
        }
        view
    }
}

/// The device failures a loop has already responded to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandledFailures(BTreeSet<usize>);

/// What [`HandledFailures::edges`] found in a fresh sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailureEdges {
    /// Handled devices whose failure window closed, ascending.
    pub rejoined: Vec<DeviceId>,
    /// Active failures not handled yet, ascending.
    pub failed: Vec<DeviceId>,
}

impl HandledFailures {
    /// The one rule for which failures are new and which devices
    /// rejoined: forgets (and reports) each handled failure `active` no
    /// longer holds, then reports `active`'s unhandled failures. One
    /// stays new until [`HandledFailures::handle`] marks it.
    pub fn edges(&mut self, active: &ActiveFaults) -> FailureEdges {
        let ids = |d: &usize| DeviceId::new(*d);
        let rejoined = self.0.difference(&active.failed).map(ids).collect();
        self.0.retain(|d| active.failed.contains(d));
        let failed = active.failed.difference(&self.0).map(ids).collect();
        FailureEdges { rejoined, failed }
    }

    /// Marks `devices` as handled.
    pub fn handle(&mut self, devices: &[DeviceId]) {
        self.0.extend(devices.iter().map(|d| d.index()));
    }

    /// The handled devices, ascending.
    pub fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        self.0.iter().map(|&d| DeviceId::new(d))
    }
}

impl FromIterator<DeviceId> for HandledFailures {
    fn from_iter<I: IntoIterator<Item = DeviceId>>(devices: I) -> Self {
        Self(devices.into_iter().map(|d| d.index()).collect())
    }
}

/// Annotates `timeline` with one [`SpanLabel::Fault`] span per affected
/// device over the wall-clock window `[start, end)` (seconds of virtual
/// time — typically the span of the iteration the faults perturbed).
/// Stragglers and failures annotate the compute stream; link
/// degradations annotate the A2A stream of both endpoints.
pub fn record_fault_spans(timeline: &mut Timeline, active: &ActiveFaults, start: f64, end: f64) {
    if end <= start {
        return;
    }
    let mut push = |device: DeviceId, stream: StreamKind| {
        timeline.push(Span {
            device,
            stream,
            label: SpanLabel::Fault,
            start,
            end,
        });
    };
    for device in active.straggler_devices() {
        push(device, StreamKind::Compute);
    }
    for device in active.failed_devices() {
        push(device, StreamKind::Compute);
    }
    for (a, b, _) in active.degraded_links() {
        push(a, StreamKind::A2a);
        push(b, StreamKind::A2a);
    }
}

/// Annotates `timeline` with one [`SpanLabel::Fault`] span per timed
/// event in `plan`, clipped to the run window `[0, horizon)`. Unlike
/// [`record_fault_spans`] — which stamps the *resolved* fault set over
/// one iteration — this renders each scheduled window at its own
/// extent, so a Chrome trace of a serving run shows exactly when each
/// injected fault was in force. Planner outages annotate the compute
/// stream of device 0 (the planner has no device of its own).
pub fn record_timed_fault_spans(timeline: &mut Timeline, plan: &FaultPlan, horizon: f64) {
    for event in plan.timed_events() {
        let start = event.start.max(0.0);
        let end = event.end.min(horizon);
        if end <= start {
            continue;
        }
        let mut push = |device: DeviceId, stream: StreamKind| {
            timeline.push(Span {
                device,
                stream,
                label: SpanLabel::Fault,
                start,
                end,
            });
        };
        match event.kind {
            FaultKind::Straggler { device, .. } | FaultKind::DeviceFailure { device } => {
                push(device, StreamKind::Compute);
            }
            FaultKind::LinkDegrade { a, b, .. } => {
                push(a, StreamKind::A2a);
                push(b, StreamKind::A2a);
            }
            FaultKind::PlannerOutage => {
                push(DeviceId::new(0), StreamKind::Compute);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: usize) -> DeviceId {
        DeviceId::new(i)
    }

    fn straggler(device: usize, factor: f64, start: u64, end: u64) -> FaultEvent {
        FaultEvent {
            kind: FaultKind::Straggler {
                device: d(device),
                factor,
            },
            start,
            end,
        }
    }

    #[test]
    fn validation_rejects_bad_events() {
        let mut plan = FaultPlan::new();
        assert!(matches!(
            plan.push(straggler(0, 0.5, 0, 4)),
            Err(FaultError::BadStragglerFactor { .. })
        ));
        assert!(matches!(
            plan.push(straggler(0, 2.0, 4, 4)),
            Err(FaultError::EmptyWindow { .. })
        ));
        assert!(matches!(
            plan.push(FaultEvent {
                kind: FaultKind::LinkDegrade {
                    a: d(1),
                    b: d(1),
                    factor: 0.5
                },
                start: 0,
                end: 2,
            }),
            Err(FaultError::SelfLink { .. })
        ));
        assert!(matches!(
            plan.push(FaultEvent {
                kind: FaultKind::LinkDegrade {
                    a: d(0),
                    b: d(1),
                    factor: 1.5
                },
                start: 0,
                end: 2,
            }),
            Err(FaultError::BadLinkFactor { .. })
        ));
        assert!(plan.is_empty());
        plan.push(straggler(0, 2.0, 0, 4)).unwrap();
        assert_eq!(plan.events().len(), 1);
    }

    #[test]
    fn windows_are_half_open() {
        let mut plan = FaultPlan::new();
        plan.push(straggler(3, 2.0, 5, 8)).unwrap();
        assert!(plan.active_at(4).is_empty());
        assert_eq!(plan.active_at(5).compute_multiplier(d(3)), 2.0);
        assert_eq!(plan.active_at(7).compute_multiplier(d(3)), 2.0);
        assert!(plan.active_at(8).is_empty());
        assert_eq!(plan.active_at(6).compute_multiplier(d(2)), 1.0);
    }

    #[test]
    fn overlapping_faults_compose() {
        let mut plan = FaultPlan::new();
        plan.push(straggler(0, 2.0, 0, 10)).unwrap();
        plan.push(straggler(0, 1.5, 5, 10)).unwrap();
        plan.push(FaultEvent {
            kind: FaultKind::LinkDegrade {
                a: d(1),
                b: d(2),
                factor: 0.5,
            },
            start: 0,
            end: 10,
        })
        .unwrap();
        plan.push(FaultEvent {
            kind: FaultKind::LinkDegrade {
                a: d(2),
                b: d(1),
                factor: 0.5,
            },
            start: 0,
            end: 10,
        })
        .unwrap();
        assert_eq!(plan.active_at(2).compute_multiplier(d(0)), 2.0);
        assert_eq!(plan.active_at(6).compute_multiplier(d(0)), 3.0);
        let links: Vec<_> = plan.active_at(3).degraded_links().collect();
        assert_eq!(links, vec![(d(1), d(2), 0.25)]);
    }

    #[test]
    fn failures_and_survivors() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            kind: FaultKind::DeviceFailure { device: d(2) },
            start: 3,
            end: u64::MAX,
        })
        .unwrap();
        let topo = Topology::new(1, 4).unwrap();
        assert_eq!(plan.active_at(2).failed_devices().count(), 0);
        let after = plan.active_at(100);
        assert!(after.is_failed(d(2)));
        let view = after.view(&topo, after.failed_devices());
        assert_eq!(view.survivors(), vec![d(0), d(1), d(3)]);
        assert_eq!(after.failed_devices().collect::<Vec<_>>(), vec![d(2)]);
        // A restarted job removes nothing: every device executes.
        assert_eq!(after.view(&topo, []).survivors().len(), 4);
    }

    /// Handled failures are forgotten when their window closes, and a
    /// failure stays new until it is handled.
    #[test]
    fn failure_edges_report_new_failures_and_rejoins() {
        let mut plan = FaultPlan::new();
        for (device, start, end) in [(1, 2, 6), (3, 4, u64::MAX), (1, 8, u64::MAX)] {
            plan.push(FaultEvent {
                kind: FaultKind::DeviceFailure { device: d(device) },
                start,
                end,
            })
            .unwrap();
        }
        let mut handled = HandledFailures::default();
        let edges = |handled: &mut HandledFailures, at: u64| handled.edges(&plan.active_at(at));
        assert_eq!(edges(&mut handled, 0), FailureEdges::default());
        assert_eq!(edges(&mut handled, 2).failed, vec![d(1)]);
        // Unhandled, the failure is new again.
        assert_eq!(edges(&mut handled, 3).failed, vec![d(1)]);
        handled.handle(&[d(1)]);
        assert_eq!(edges(&mut handled, 4).failed, vec![d(3)]);
        handled.handle(&[d(3)]);
        let closed = edges(&mut handled, 6);
        assert_eq!((closed.rejoined, closed.failed), (vec![d(1)], vec![]));
        assert_eq!(handled.devices().collect::<Vec<_>>(), vec![d(3)]);
        assert_eq!(edges(&mut handled, 8).failed, vec![d(1)]);
        let restored: HandledFailures = handled.devices().collect();
        assert_eq!(restored, handled);
    }

    #[test]
    fn planner_outage_windowed() {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            kind: FaultKind::PlannerOutage,
            start: 2,
            end: 4,
        })
        .unwrap();
        assert!(!plan.active_at(1).planner_outage());
        assert!(plan.active_at(2).planner_outage());
        assert!(!plan.active_at(4).planner_outage());
    }

    #[test]
    fn degraded_view_reflects_active_faults() {
        let topo = Topology::paper_cluster();
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            kind: FaultKind::LinkDegrade {
                a: d(0),
                b: d(9),
                factor: 0.25,
            },
            start: 0,
            end: 5,
        })
        .unwrap();
        plan.push(FaultEvent {
            kind: FaultKind::DeviceFailure { device: d(31) },
            start: 0,
            end: u64::MAX,
        })
        .unwrap();
        let active = plan.active_at(0);
        let view = active.view(&topo, active.failed_devices());
        assert_eq!(view.link_factor(d(0), d(9)), 0.25);
        assert!(view.is_failed(d(31)));
        assert_eq!(view.survivors().len(), 31);
        // After the link window closes only the failure remains.
        let active = plan.active_at(6);
        let later = active.view(&topo, active.failed_devices());
        assert_eq!(later.link_factor(d(0), d(9)), 1.0);
        assert!(later.is_failed(d(31)));
    }

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let a = FaultPlan::random(7, 32, 40);
        let b = FaultPlan::random(7, 32, 40);
        assert_eq!(a, b);
        let c = FaultPlan::random(8, 32, 40);
        assert_ne!(a, c);
        assert_eq!(a.events().len(), 4);
        // Every class appears once.
        let mut classes = [0; 4];
        for e in a.events() {
            let idx = match e.kind {
                FaultKind::Straggler { .. } => 0,
                FaultKind::LinkDegrade { .. } => 1,
                FaultKind::DeviceFailure { .. } => 2,
                FaultKind::PlannerOutage => 3,
            };
            classes[idx] += 1;
            assert!(e.start < e.end);
        }
        assert_eq!(classes, [1, 1, 1, 1]);
    }

    #[test]
    fn fault_spans_land_on_the_right_streams() {
        let mut plan = FaultPlan::new();
        plan.push(straggler(1, 2.0, 0, 2)).unwrap();
        plan.push(FaultEvent {
            kind: FaultKind::LinkDegrade {
                a: d(2),
                b: d(3),
                factor: 0.5,
            },
            start: 0,
            end: 2,
        })
        .unwrap();
        let mut timeline = Timeline::new();
        record_fault_spans(&mut timeline, &plan.active_at(1), 0.0, 1.0);
        let spans = timeline.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans
            .iter()
            .all(|s| s.label == SpanLabel::Fault && s.start == 0.0 && s.end == 1.0));
        assert!(spans
            .iter()
            .any(|s| s.device == d(1) && s.stream == StreamKind::Compute));
        assert!(spans
            .iter()
            .any(|s| s.device == d(2) && s.stream == StreamKind::A2a));
        assert!(spans
            .iter()
            .any(|s| s.device == d(3) && s.stream == StreamKind::A2a));
        // Annotation spans do not move the makespan or occupancy.
        assert_eq!(timeline.makespan(), 0.0);
        // Degenerate window records nothing.
        record_fault_spans(&mut timeline, &plan.active_at(1), 1.0, 1.0);
        assert_eq!(timeline.len(), 3);
    }

    #[test]
    fn plan_serde_roundtrip() {
        let plan = FaultPlan::random(11, 8, 16);
        let v = plan.serialize_value();
        let back = FaultPlan::deserialize_value(&v).unwrap();
        assert_eq!(plan, back);
    }

    fn timed(kind: FaultKind, start: f64, end: f64) -> TimedFaultEvent {
        TimedFaultEvent { kind, start, end }
    }

    #[test]
    fn timed_window_validation() {
        let mut plan = FaultPlan::new();
        for (s, e) in [
            (1.0, 1.0),
            (2.0, 1.0),
            (-0.5, 1.0),
            (0.0, f64::INFINITY),
            (f64::NAN, 1.0),
        ] {
            assert!(matches!(
                plan.push_timed(timed(FaultKind::PlannerOutage, s, e)),
                Err(FaultError::BadTimeWindow { .. })
            ));
        }
        // Kind parameters are validated for timed events too.
        assert!(matches!(
            plan.push_timed(timed(
                FaultKind::Straggler {
                    device: d(0),
                    factor: 0.5
                },
                0.0,
                1.0
            )),
            Err(FaultError::BadStragglerFactor { .. })
        ));
        assert!(plan.is_empty());
        plan.push_timed(timed(FaultKind::PlannerOutage, 0.25, 0.75))
            .unwrap();
        assert!(!plan.is_empty());
        assert_eq!(plan.timed_events().len(), 1);
    }

    #[test]
    fn active_in_overlap_semantics() {
        let mut plan = FaultPlan::new();
        plan.push_timed(timed(
            FaultKind::Straggler {
                device: d(1),
                factor: 2.0,
            },
            0.5,
            1.5,
        ))
        .unwrap();
        // Instant queries: half-open membership.
        assert!(plan.active_in(0.4, 0.4).is_empty());
        assert_eq!(plan.active_in(0.5, 0.5).compute_multiplier(d(1)), 2.0);
        assert_eq!(plan.active_in(1.4, 1.4).compute_multiplier(d(1)), 2.0);
        assert!(plan.active_in(1.5, 1.5).is_empty());
        // Interval queries: any overlap counts.
        assert_eq!(plan.active_in(0.0, 0.5).compute_multiplier(d(1)), 2.0);
        assert_eq!(plan.active_in(1.4, 9.0).compute_multiplier(d(1)), 2.0);
        assert!(plan.active_in(0.0, 0.4).is_empty());
        assert!(plan.active_in(1.5, 9.0).is_empty());
        // Iteration-indexed events are invisible to active_in and
        // timed events invisible to active_at.
        plan.push(straggler(2, 3.0, 0, 100)).unwrap();
        assert_eq!(plan.active_in(1.0, 1.0).compute_multiplier(d(2)), 1.0);
        assert_eq!(plan.active_at(1).compute_multiplier(d(1)), 1.0);
    }

    #[test]
    fn timed_overlaps_compose_and_clear_edges_are_found() {
        let mut plan = FaultPlan::new();
        plan.push_timed(timed(
            FaultKind::Straggler {
                device: d(0),
                factor: 2.0,
            },
            0.0,
            2.0,
        ))
        .unwrap();
        plan.push_timed(timed(
            FaultKind::Straggler {
                device: d(0),
                factor: 1.5,
            },
            1.0,
            3.0,
        ))
        .unwrap();
        plan.push_timed(timed(FaultKind::DeviceFailure { device: d(3) }, 1.0, 4.0))
            .unwrap();
        assert_eq!(plan.active_in(1.5, 1.5).compute_multiplier(d(0)), 3.0);
        assert!(plan.active_in(1.5, 1.5).is_failed(d(3)));
        // Each window clears at its own end.
        assert_eq!(plan.active_in(2.0, 2.0).compute_multiplier(d(0)), 1.5);
        assert_eq!(plan.active_in(3.0, 3.0).compute_multiplier(d(0)), 1.0);
        assert!(plan.active_in(3.5, 3.5).is_failed(d(3)));
        assert!(plan.active_in(4.0, 4.0).is_empty());
    }

    #[test]
    fn timed_plan_json_roundtrip_is_replayable() {
        let mut plan = FaultPlan::random(11, 8, 16);
        plan.push_timed(timed(
            FaultKind::Straggler {
                device: d(2),
                factor: 2.5,
            },
            0.125,
            0.75,
        ))
        .unwrap();
        plan.push_timed(timed(
            FaultKind::LinkDegrade {
                a: d(0),
                b: d(4),
                factor: 0.25,
            },
            0.25,
            0.5,
        ))
        .unwrap();
        plan.push_timed(timed(FaultKind::DeviceFailure { device: d(1) }, 0.5, 1.0e9))
            .unwrap();
        plan.push_timed(timed(FaultKind::PlannerOutage, 0.0, 0.25))
            .unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        // Replaying the artifact resolves identical fault sets.
        assert_eq!(plan.active_in(0.3, 0.3), back.active_in(0.3, 0.3));
        // And re-encoding is byte-stable.
        assert_eq!(json, serde_json::to_string(&back).unwrap());
    }

    #[test]
    fn plans_without_timed_events_still_deserialize() {
        // Artifacts written before the continuous-time API carry no
        // `timed` field; `#[serde(default)]` must accept them.
        let legacy = "{\"events\":[{\"kind\":\"PlannerOutage\",\"start\":1,\"end\":3}]}";
        let plan: FaultPlan = serde_json::from_str(legacy).unwrap();
        assert_eq!(plan.events().len(), 1);
        assert!(plan.timed_events().is_empty());
    }

    #[test]
    fn timed_fault_spans_render_clipped_windows() {
        let mut plan = FaultPlan::new();
        plan.push_timed(timed(
            FaultKind::Straggler {
                device: d(1),
                factor: 2.0,
            },
            0.2,
            0.6,
        ))
        .unwrap();
        plan.push_timed(timed(
            FaultKind::LinkDegrade {
                a: d(0),
                b: d(2),
                factor: 0.5,
            },
            0.1,
            5.0,
        ))
        .unwrap();
        plan.push_timed(timed(FaultKind::PlannerOutage, 2.0, 3.0))
            .unwrap();
        let mut timeline = Timeline::new();
        record_timed_fault_spans(&mut timeline, &plan, 1.0);
        let spans = timeline.spans();
        // Straggler (1 span) + link (2 spans); the outage starts past
        // the horizon and is dropped.
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.label == SpanLabel::Fault));
        assert!(spans
            .iter()
            .any(|s| s.device == d(1) && s.stream == StreamKind::Compute && s.end == 0.6));
        assert!(spans
            .iter()
            .filter(|s| s.stream == StreamKind::A2a)
            .all(|s| s.start == 0.1 && s.end == 1.0));
    }

    #[test]
    fn error_display() {
        let e = FaultError::BadStragglerFactor { factor: 0.5 };
        assert!(e.to_string().contains(">= 1"));
        let e = FaultError::EmptyWindow { start: 3, end: 3 };
        assert!(e.to_string().contains("[3, 3)"));
    }
}
