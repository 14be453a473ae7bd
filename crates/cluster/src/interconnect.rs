//! The [`Interconnect`] abstraction: a read-only network view.
//!
//! Cost models (α–β collective estimates, the planner's Eq. 2–4
//! objective) only need link *queries* — kind, bandwidth, latency —
//! never the full [`Topology`] construction surface. Abstracting those
//! queries behind a trait lets a [`crate::DegradedView`] substitute
//! degraded link bandwidths (straggling NICs, flapping inter-node
//! links, failed devices) without every collective-time function
//! growing a second code path.

use crate::ids::{DeviceId, NodeId};
use crate::topology::{LinkKind, Topology};

/// Read-only queries over a cluster network.
///
/// Implemented by [`Topology`] (nominal bandwidths) and
/// [`crate::DegradedView`] (fault-adjusted bandwidths). All collective
/// cost models in the workspace are generic over this trait.
pub trait Interconnect {
    /// Number of devices in the cluster.
    fn num_devices(&self) -> usize;

    /// Devices per node.
    fn devices_per_node(&self) -> usize;

    /// Devices per rack, when the topology models racks.
    fn devices_per_rack(&self) -> Option<usize>;

    /// The node hosting `device`.
    fn node_of(&self, device: DeviceId) -> NodeId;

    /// Kind of link between two devices.
    fn link_kind(&self, a: DeviceId, b: DeviceId) -> LinkKind;

    /// Point-to-point bandwidth between two devices in bytes/s
    /// (`f64::INFINITY` for a device talking to itself).
    fn bandwidth(&self, a: DeviceId, b: DeviceId) -> f64;

    /// Point-to-point latency between two devices in seconds.
    fn latency(&self, a: DeviceId, b: DeviceId) -> f64;

    /// Whether two devices share a node.
    fn same_node(&self, a: DeviceId, b: DeviceId) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Effective point-to-point bandwidth between two devices in
    /// bytes/s, as every cost model prices it: NVLink is dedicated per
    /// device, the inter-node NIC is shared by the node's devices and
    /// the rack spine by the rack's (`f64::INFINITY` for a device
    /// talking to itself).
    fn effective_bandwidth(&self, a: DeviceId, b: DeviceId) -> f64 {
        match self.link_kind(a, b) {
            LinkKind::Local => f64::INFINITY,
            LinkKind::IntraNode => self.bandwidth(a, b),
            LinkKind::InterNode => self.bandwidth(a, b) / self.devices_per_node() as f64,
            LinkKind::InterRack => {
                self.bandwidth(a, b) / self.devices_per_rack().unwrap_or(1) as f64
            }
        }
    }

    /// Whether a link's bandwidth and latency depend only on its
    /// [`LinkKind`]. Every other sender on one node sees the same kind
    /// of link to a given device, so cost models may then resolve its
    /// price once per node instead of once per sender. `false` unless
    /// the network guarantees it.
    fn prices_by_kind(&self) -> bool {
        false
    }
}

impl Interconnect for Topology {
    fn num_devices(&self) -> usize {
        Topology::num_devices(self)
    }

    fn devices_per_node(&self) -> usize {
        Topology::devices_per_node(self)
    }

    fn devices_per_rack(&self) -> Option<usize> {
        Topology::devices_per_rack(self)
    }

    fn node_of(&self, device: DeviceId) -> NodeId {
        Topology::node_of(self, device)
    }

    fn link_kind(&self, a: DeviceId, b: DeviceId) -> LinkKind {
        Topology::link_kind(self, a, b)
    }

    fn bandwidth(&self, a: DeviceId, b: DeviceId) -> f64 {
        Topology::bandwidth(self, a, b)
    }

    fn latency(&self, a: DeviceId, b: DeviceId) -> f64 {
        Topology::latency(self, a, b)
    }

    fn prices_by_kind(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries_match<I: Interconnect>(net: &I, topo: &Topology) {
        assert_eq!(net.num_devices(), topo.num_devices());
        for a in topo.devices() {
            for b in topo.devices() {
                assert_eq!(net.link_kind(a, b), topo.link_kind(a, b));
                assert_eq!(net.bandwidth(a, b), topo.bandwidth(a, b));
                assert_eq!(net.latency(a, b), topo.latency(a, b));
                assert_eq!(net.same_node(a, b), topo.same_node(a, b));
            }
        }
    }

    #[test]
    fn topology_implements_itself() {
        let topo = Topology::paper_cluster();
        queries_match(&topo, &topo.clone());
    }

    #[test]
    fn trait_object_usable() {
        let topo = Topology::paper_cluster();
        let net: &dyn Interconnect = &topo;
        assert_eq!(net.num_devices(), 32);
        assert_eq!(net.devices_per_node(), 8);
    }
}
