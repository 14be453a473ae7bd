//! [`DegradedView`]: a fault-adjusted overlay on a [`Topology`].
//!
//! Fault injection (straggling NICs, flapping inter-node links, whole
//! device failures) must change what the collective cost models *price*
//! without mutating the underlying [`Topology`], which other components
//! keep borrowing. `DegradedView` wraps a topology with per-link
//! bandwidth multipliers and a failed-device set, and implements
//! [`Interconnect`] so every generic cost model prices the degraded
//! network transparently.
//!
//! Failed devices are a *membership* property, not a link property:
//! queries against a failed device still return base-topology numbers,
//! and callers are expected to route no traffic to failed devices
//! (see [`DegradedView::survivors`]).

use crate::ids::{DeviceId, NodeId};
use crate::interconnect::Interconnect;
use crate::topology::{LinkKind, Topology};
use std::collections::BTreeMap;

/// Unordered pair key for the link-factor map.
fn pair_key(a: DeviceId, b: DeviceId) -> (usize, usize) {
    let (x, y) = (a.index(), b.index());
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// A [`Topology`] overlaid with link degradations and device failures.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedView {
    base: Topology,
    /// Bandwidth multipliers in `(0, 1]` keyed by unordered device pair.
    link_factors: BTreeMap<(usize, usize), f64>,
    failed: Vec<bool>,
}

impl DegradedView {
    /// A view with no degradations: identical to `base`.
    pub fn new(base: Topology) -> Self {
        let n = base.num_devices();
        Self {
            base,
            link_factors: BTreeMap::new(),
            failed: vec![false; n],
        }
    }

    /// The underlying nominal topology.
    pub fn base(&self) -> &Topology {
        &self.base
    }

    /// Multiplies the bandwidth of the `a`–`b` link by `factor`.
    /// Repeated calls on the same pair compose multiplicatively.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and in `(0, 1]`, or if either
    /// device is out of range.
    pub fn degrade_link(&mut self, a: DeviceId, b: DeviceId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0 && factor <= 1.0,
            "link degradation factor must be in (0, 1], got {factor}"
        );
        assert!(
            a.index() < self.base.num_devices() && b.index() < self.base.num_devices(),
            "device out of range"
        );
        *self.link_factors.entry(pair_key(a, b)).or_insert(1.0) *= factor;
    }

    /// Marks `device` as failed. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn fail_device(&mut self, device: DeviceId) {
        self.failed[device.index()] = true;
    }

    /// Whether `device` has been marked failed.
    pub fn is_failed(&self, device: DeviceId) -> bool {
        self.failed.get(device.index()).copied().unwrap_or(false)
    }

    /// The current bandwidth multiplier on the `a`–`b` link (1.0 when
    /// undegraded).
    pub fn link_factor(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.link_factors
            .get(&pair_key(a, b))
            .copied()
            .unwrap_or(1.0)
    }

    /// Devices not marked failed, in index order.
    pub fn survivors(&self) -> Vec<DeviceId> {
        self.failed
            .iter()
            .enumerate()
            .filter(|(_, &f)| !f)
            .map(|(i, _)| DeviceId::new(i))
            .collect()
    }

    /// Devices marked failed, in index order.
    pub fn failed_devices(&self) -> Vec<DeviceId> {
        self.failed
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(i, _)| DeviceId::new(i))
            .collect()
    }

    /// Whether the view degrades anything at all.
    pub fn is_nominal(&self) -> bool {
        self.link_factors.is_empty() && !self.failed.iter().any(|&f| f)
    }
}

impl Interconnect for DegradedView {
    fn num_devices(&self) -> usize {
        self.base.num_devices()
    }

    fn devices_per_node(&self) -> usize {
        self.base.devices_per_node()
    }

    fn devices_per_rack(&self) -> Option<usize> {
        self.base.devices_per_rack()
    }

    fn node_of(&self, device: DeviceId) -> NodeId {
        self.base.node_of(device)
    }

    fn link_kind(&self, a: DeviceId, b: DeviceId) -> LinkKind {
        self.base.link_kind(a, b)
    }

    fn bandwidth(&self, a: DeviceId, b: DeviceId) -> f64 {
        // Local "links" stay infinite bandwidth regardless of factors.
        self.base.bandwidth(a, b) * self.link_factor(a, b)
    }

    fn latency(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.base.latency(a, b)
    }

    /// Failed devices leave link prices alone; a degraded link makes
    /// them pair-specific.
    fn prices_by_kind(&self) -> bool {
        self.link_factors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: usize) -> DeviceId {
        DeviceId::new(i)
    }

    #[test]
    fn nominal_view_matches_base() {
        let topo = Topology::paper_cluster();
        let view = DegradedView::new(topo.clone());
        assert!(view.is_nominal());
        for a in topo.devices() {
            for b in topo.devices() {
                assert_eq!(Interconnect::bandwidth(&view, a, b), topo.bandwidth(a, b));
            }
        }
        assert_eq!(view.survivors().len(), 32);
        assert!(view.failed_devices().is_empty());
    }

    #[test]
    fn degraded_link_is_symmetric_and_composes() {
        let mut view = DegradedView::new(Topology::paper_cluster());
        view.degrade_link(d(0), d(9), 0.5);
        let base = view.base().bandwidth(d(0), d(9));
        assert_eq!(Interconnect::bandwidth(&view, d(0), d(9)), base * 0.5);
        assert_eq!(Interconnect::bandwidth(&view, d(9), d(0)), base * 0.5);
        view.degrade_link(d(9), d(0), 0.5);
        assert_eq!(Interconnect::bandwidth(&view, d(0), d(9)), base * 0.25);
        // Other links untouched.
        assert_eq!(
            Interconnect::bandwidth(&view, d(0), d(10)),
            view.base().bandwidth(d(0), d(10))
        );
        assert!(!view.is_nominal());
    }

    #[test]
    fn only_degraded_links_make_prices_pair_specific() {
        let mut view = DegradedView::new(Topology::paper_cluster());
        assert!(view.prices_by_kind());
        view.fail_device(d(4));
        assert!(view.prices_by_kind(), "a failure changes membership only");
        view.degrade_link(d(0), d(9), 0.5);
        assert!(!view.prices_by_kind());
    }

    #[test]
    fn local_bandwidth_stays_infinite() {
        let mut view = DegradedView::new(Topology::paper_cluster());
        view.degrade_link(d(3), d(3), 0.1);
        assert_eq!(Interconnect::bandwidth(&view, d(3), d(3)), f64::INFINITY);
    }

    #[test]
    fn failures_track_membership_only() {
        let mut view = DegradedView::new(Topology::paper_cluster());
        view.fail_device(d(5));
        view.fail_device(d(5));
        assert!(view.is_failed(d(5)));
        assert!(!view.is_failed(d(6)));
        assert_eq!(view.survivors().len(), 31);
        assert_eq!(view.failed_devices(), vec![d(5)]);
        assert!(!view.survivors().contains(&d(5)));
        // Link queries against failed devices still answer.
        assert!(Interconnect::bandwidth(&view, d(5), d(6)).is_finite());
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn zero_factor_rejected() {
        let mut view = DegradedView::new(Topology::paper_cluster());
        view.degrade_link(d(0), d(1), 0.0);
    }
}
