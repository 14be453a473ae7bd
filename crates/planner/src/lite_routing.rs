//! The lite routing algorithm — Alg. 3 of the paper (Appendix B).
//!
//! The token dispatcher must pick a replica for every token *fast* and
//! without global coordination: it uses only the (globally known) expert
//! layout and the device's own routing demand. For each expert, tokens
//! are spread evenly over the replicas inside the sender's node when any
//! exist, and evenly over all replicas otherwise — minimising inter-node
//! transfers, the paper's consideration (1).
//!
//! Two entry points share one implementation: [`lite_route`] allocates
//! fresh buffers per call, [`lite_route_with`] reuses a caller-held
//! [`RouteScratch`] so hot paths (the tuner's candidate loop, the
//! delta evaluator in [`crate::delta`]) route without per-cell
//! allocation. Both produce identical output — entry for entry, bit for
//! bit — because they run the same code.

use crate::layout::ExpertLayout;
use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, ExpertId, NodeId, Topology};
use laer_routing::RoutingMatrix;

/// Reusable buffers for allocation-free routing: the per-cell target
/// list and the largest-remainder working set. One scratch serves any
/// shape — buffers grow to the largest cell seen and stay allocated.
#[derive(Debug, Default)]
pub struct RouteScratch {
    pub(crate) targets: Vec<(DeviceId, u32)>,
    pub(crate) shares: Vec<(usize, u64, f64)>,
    pub(crate) order: Vec<usize>,
}

impl RouteScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs lite routing for every source device, producing the full
/// `S[i][j][k]` strategy.
///
/// Equivalent to executing Alg. 3 independently on each rank (which is
/// how the GPU-side Triton kernel runs it) and concatenating the rows.
///
/// # Panics
///
/// Panics if the shapes of `demand`, `layout` and `topo` disagree, or if
/// some expert in demand has zero replicas (an invalid layout — validate
/// layouts first).
pub fn lite_route(topo: &Topology, demand: &RoutingMatrix, layout: &ExpertLayout) -> TokenRouting {
    lite_route_with(topo, demand, layout, &mut RouteScratch::new())
}

/// [`lite_route`] with caller-provided scratch buffers — the hot-path
/// variant that performs no per-cell allocation (only the returned
/// routing's entry vector is allocated).
///
/// # Panics
///
/// As [`lite_route`].
pub fn lite_route_with(
    topo: &Topology,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
    scratch: &mut RouteScratch,
) -> TokenRouting {
    assert_eq!(demand.num_devices(), topo.num_devices(), "device count");
    assert_eq!(layout.num_devices(), topo.num_devices(), "layout devices");
    assert_eq!(layout.num_experts(), demand.num_experts(), "expert count");
    let mut out = TokenRouting::new(demand.num_devices(), demand.num_experts());
    for rank in topo.devices() {
        route_one_rank(topo, demand, layout, rank, scratch, &mut out);
    }
    out
}

/// Alg. 3 for a single rank.
fn route_one_rank(
    topo: &Topology,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
    rank: DeviceId,
    scratch: &mut RouteScratch,
    out: &mut TokenRouting,
) {
    let node = topo.node_of(rank);
    for j in 0..demand.num_experts() {
        let expert = ExpertId::new(j);
        let tokens = demand.get(rank, expert);
        if tokens == 0 {
            continue;
        }
        fill_targets(topo, layout, expert, node, &mut scratch.targets);
        assert!(
            !scratch.targets.is_empty(),
            "layout hosts no replica of {expert}; validate layouts before routing"
        );
        let (targets, shares, order) = (&scratch.targets, &mut scratch.shares, &mut scratch.order);
        distribute_evenly_into(rank, tokens, targets, shares, order, |dst, count| {
            out.push(rank, expert, dst, count);
        });
    }
}

/// Fills `out` with the Alg. 3 target list for one `(sender-node,
/// expert)` cell: intra-node replicas first (lines 5-6), all replicas
/// globally otherwise (lines 8-9). Targets are in ascending device-id
/// order, matching [`ExpertLayout::replicas_in_node`] /
/// [`ExpertLayout::replica_devices`].
pub(crate) fn fill_targets(
    topo: &Topology,
    layout: &ExpertLayout,
    expert: ExpertId,
    node: NodeId,
    out: &mut Vec<(DeviceId, u32)>,
) {
    out.clear();
    for dev in topo.devices_on(node) {
        let c = layout.replica_count(dev, expert);
        if c > 0 {
            out.push((dev, c));
        }
    }
    if out.is_empty() {
        for i in 0..layout.num_devices() {
            let c = layout.replica_count(DeviceId::new(i), expert);
            if c > 0 {
                out.push((DeviceId::new(i), c));
            }
        }
    }
}

/// Splits `tokens` across `targets` proportionally to their replica
/// counts ("evenly distributed among all replicas"), with deterministic
/// largest-remainder rounding. Ties prefer the sender itself, then lower
/// device ids, keeping traffic local when possible.
///
/// Emits `(destination, tokens)` pairs in `targets` order, skipping
/// zero-token shares — the exact entry order and values of the original
/// allocating implementation, which the delta evaluator's bit-exactness
/// contract depends on.
pub(crate) fn distribute_evenly_into(
    src: DeviceId,
    tokens: u64,
    targets: &[(DeviceId, u32)],
    shares: &mut Vec<(usize, u64, f64)>,
    order: &mut Vec<usize>,
    mut emit: impl FnMut(DeviceId, u64),
) {
    let total_replicas: u64 = targets.iter().map(|&(_, c)| c as u64).sum();
    let mut assigned = 0u64;
    shares.clear();
    for (idx, &(_, count)) in targets.iter().enumerate() {
        let exact = tokens as f64 * count as f64 / total_replicas as f64;
        let floor = exact.floor() as u64;
        assigned += floor;
        shares.push((idx, floor, exact - floor as f64));
    }
    order.clear();
    order.extend(0..shares.len());
    order.sort_by(|&a, &b| {
        let (ia, _, ra) = shares[a];
        let (ib, _, rb) = shares[b];
        rb.total_cmp(&ra).then_with(|| {
            // Prefer the sender itself, then lower device ids.
            let la = targets[ia].0 == src;
            let lb = targets[ib].0 == src;
            lb.cmp(&la).then(targets[ia].0.cmp(&targets[ib].0))
        })
    });
    let mut left = tokens - assigned;
    let mut cursor = 0;
    while left > 0 {
        let slot = order[cursor % order.len()];
        shares[slot].1 += 1;
        left -= 1;
        cursor += 1;
    }
    for &(idx, count, _) in shares.iter() {
        if count > 0 {
            emit(targets[idx].0, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_routing::RoutingMatrix;

    /// Two nodes of two devices; expert 0 replicated on devices 0 and 2
    /// (one per node), expert 1 on devices 1 and 3.
    fn cross_node_setup() -> (Topology, ExpertLayout) {
        let topo = Topology::new(2, 2).unwrap();
        let l = ExpertLayout::classic_ep(4, 2, 1).unwrap();
        (topo, l)
    }

    #[test]
    fn prefers_intra_node_replica() {
        let (topo, l) = cross_node_setup();
        // Device 1 (node 0) demands expert 0: replicas on dev 0 (node 0)
        // and dev 2 (node 1) -> all tokens must stay on node 0.
        let mut r = RoutingMatrix::zeros(4, 2).unwrap();
        r.set(DeviceId::new(1), ExpertId::new(0), 100);
        let s = lite_route(&topo, &r, &l);
        assert!(s.validate(&r, &l).is_ok());
        assert_eq!(s.entries().len(), 1);
        assert_eq!(
            s.entries()[0],
            (DeviceId::new(1), ExpertId::new(0), DeviceId::new(0), 100)
        );
    }

    #[test]
    fn splits_across_intra_node_replicas() {
        let topo = Topology::single_node(4).unwrap();
        let mut l = ExpertLayout::empty(4, 4, 1).unwrap();
        // Expert 0 on devices 0 and 1; experts 1-3 parked elsewhere.
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(0));
        l.add_replica(DeviceId::new(2), ExpertId::new(1));
        l.add_replica(DeviceId::new(3), ExpertId::new(2));
        let mut r = RoutingMatrix::zeros(4, 4).unwrap();
        r.set(DeviceId::new(2), ExpertId::new(0), 101);
        let s = lite_route(&topo, &r, &l);
        let loads = s.device_compute_loads();
        // 101 split evenly over two replicas: 51/50 or 50/51.
        assert_eq!(loads[0] + loads[1], 101);
        assert!(loads[0].abs_diff(loads[1]) <= 1);
    }

    #[test]
    fn falls_back_to_global_replicas() {
        let (topo, l) = cross_node_setup();
        // Replicas of expert 0 are on devices 0 and 2; a sender on
        // node 1 (device 3) has an intra-node replica at dev 2. Make a
        // layout where expert 1 has replicas only on node 0.
        let mut l2 = ExpertLayout::empty(4, 2, 1).unwrap();
        l2.add_replica(DeviceId::new(0), ExpertId::new(1));
        l2.add_replica(DeviceId::new(1), ExpertId::new(1));
        l2.add_replica(DeviceId::new(2), ExpertId::new(0));
        l2.add_replica(DeviceId::new(3), ExpertId::new(0));
        let mut r = RoutingMatrix::zeros(4, 2).unwrap();
        r.set(DeviceId::new(3), ExpertId::new(1), 10); // node 1 -> node 0 only
        let s = lite_route(&topo, &r, &l2);
        assert!(s.validate(&r, &l2).is_ok());
        let loads = s.device_compute_loads();
        assert_eq!(loads[0] + loads[1], 10);
        assert_eq!(loads[0], 5);
        assert_eq!(loads[1], 5);
        let _ = l; // silence unused in this test
    }

    #[test]
    fn conservation_holds_for_random_demands() {
        let topo = Topology::new(2, 4).unwrap();
        let l = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        let mut gen = laer_routing::RoutingGenerator::new(
            laer_routing::RoutingGeneratorConfig::new(8, 8, 2048).with_seed(3),
        );
        for _ in 0..5 {
            let r = gen.next_iteration();
            let s = lite_route(&topo, &r, &l);
            assert!(s.validate(&r, &l).is_ok());
        }
    }

    #[test]
    fn replica_weight_respected() {
        let topo = Topology::single_node(2).unwrap();
        let mut l = ExpertLayout::empty(2, 2, 2).unwrap();
        // Device 0 hosts TWO replicas of expert 0, device 1 hosts one
        // replica plus expert 1.
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(1));
        let mut r = RoutingMatrix::zeros(2, 2).unwrap();
        r.set(DeviceId::new(0), ExpertId::new(0), 90);
        let s = lite_route(&topo, &r, &l);
        let loads = s.device_compute_loads();
        assert_eq!(loads[0], 60); // 2/3 of 90
        assert_eq!(loads[1], 30); // 1/3 of 90
    }

    #[test]
    fn remainder_prefers_sender() {
        let topo = Topology::single_node(2).unwrap();
        let mut l = ExpertLayout::empty(2, 2, 1).unwrap();
        l.add_replica(DeviceId::new(0), ExpertId::new(0));
        l.add_replica(DeviceId::new(1), ExpertId::new(0));
        let mut r = RoutingMatrix::zeros(2, 2).unwrap();
        r.set(DeviceId::new(1), ExpertId::new(0), 3);
        // Wait: layout has an orphan expert 1; fix by adding replicas.
        let mut l_ok = ExpertLayout::empty(2, 2, 2).unwrap();
        l_ok.add_replica(DeviceId::new(0), ExpertId::new(0));
        l_ok.add_replica(DeviceId::new(0), ExpertId::new(1));
        l_ok.add_replica(DeviceId::new(1), ExpertId::new(0));
        l_ok.add_replica(DeviceId::new(1), ExpertId::new(1));
        let s = lite_route(&topo, &r, &l_ok);
        let loads = s.device_compute_loads();
        // 3 tokens over 2 replicas: the odd token stays on the sender.
        assert_eq!(loads[1], 2);
        assert_eq!(loads[0], 1);
        let _ = l;
    }

    /// The scratch-reusing entry point reproduces the allocating path
    /// entry for entry across repeated solves.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let topo = Topology::new(2, 4).unwrap();
        let l = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        let mut gen = laer_routing::RoutingGenerator::new(
            laer_routing::RoutingGeneratorConfig::new(8, 8, 4096).with_seed(9),
        );
        let mut scratch = RouteScratch::new();
        for _ in 0..4 {
            let r = gen.next_iteration();
            let fresh = lite_route(&topo, &r, &l);
            let with = lite_route_with(&topo, &r, &l, &mut scratch);
            assert_eq!(fresh.entries(), with.entries());
        }
    }
}
