//! Greedy topology-aware expert relocation — Alg. 1 of the paper.
//!
//! Given the replica count of each expert and the expert loads, the
//! algorithm places replicas one by one, heaviest first, keeping replicas
//! of the same expert spread across nodes (so lite routing's intra-node
//! preference stays balanced) and packing each replica onto the
//! least-loaded eligible device.
//!
//! The paper's group scan — sort the nodes by how many replicas of the
//! expert they hold, then scan the lowest group's devices — costs
//! `O(N)` per replica. An expert's replicas are placed back to back and
//! every node climbs one *level* per replica it takes, so the lowest
//! group is exactly the nodes of the current level that still have
//! room. Placing on a node changes only that node's least-loaded device
//! and lifts the node out of the level, so within a level every node
//! takes at most one replica, at the `(load, device id)` slot it had
//! when the level began: a level with no more nodes than replicas left
//! takes one replica on each, and a last, partial level of `k` replicas
//! takes its `k` smallest slots by a select-nth. Every replica lands
//! where the scan puts it, with the same tie-breaks, in
//! `O(nodes + devices per node)` per level.

use crate::layout::ExpertLayout;
use laer_cluster::{DeviceId, ExpertId, NodeId, Topology};
use std::cmp::Ordering;

/// Alg. 1: builds an [`ExpertLayout`] from per-expert replica counts and
/// loads.
///
/// # Panics
///
/// Panics if `expert_rep` and `expert_loads` have different lengths, if
/// the total replica count differs from `N · C`, or if any expert has
/// zero replicas.
pub fn expert_relocation(
    expert_rep: &[usize],
    expert_loads: &[u64],
    topo: &Topology,
    capacity: usize,
) -> ExpertLayout {
    let all: Vec<DeviceId> = topo.devices().collect();
    expert_relocation_on(expert_rep, expert_loads, topo, capacity, &all)
}

/// Alg. 1 restricted to a device subset — the degraded-mode variant run
/// after device failures: replicas are placed only on `active` devices
/// (the survivors), the layout keeps the full `N × E` shape so device
/// ids stay stable, and the replica total must equal
/// `active.len() · C`.
///
/// # Panics
///
/// Panics if `expert_rep` and `expert_loads` have different lengths, if
/// the total replica count differs from `active.len() · C`, if any
/// expert has zero replicas, or if `active` is empty or repeats a
/// device.
pub fn expert_relocation_on(
    expert_rep: &[usize],
    expert_loads: &[u64],
    topo: &Topology,
    capacity: usize,
    active: &[DeviceId],
) -> ExpertLayout {
    let e = expert_rep.len();
    let n = topo.num_devices();
    assert_eq!(e, expert_loads.len(), "replica/load length mismatch");
    assert!(
        expert_rep.iter().all(|&r| r >= 1),
        "every expert needs a replica"
    );
    assert!(!active.is_empty(), "need at least one active device");
    let mut is_active = vec![false; n];
    for d in active {
        assert!(!is_active[d.index()], "active device listed twice");
        is_active[d.index()] = true;
    }
    assert_eq!(
        expert_rep.iter().sum::<usize>(),
        active.len() * capacity,
        "replica total must equal active device count * C"
    );

    // Lines 3-5: one list entry per replica, carrying the average load,
    // sorted descending (ties toward lower expert index). An expert's
    // replicas share one average, so they are contiguous in the list:
    // sorting the experts orders it.
    let avg: Vec<f64> = (0..e)
        .map(|j| expert_loads[j] as f64 / expert_rep[j] as f64)
        .collect();
    let mut order: Vec<usize> = (0..e).collect();
    order.sort_by(|&a, &b| avg[b].total_cmp(&avg[a]).then(a.cmp(&b)));

    let mut layout = ExpertLayout::empty(n, e, capacity)
        .unwrap_or_else(|_| unreachable!("caller-provided shape is consistent"));
    let mut expert_count = vec![0usize; n]; // slots used per device
    let mut device_loads = vec![0.0f64; n];
    // Lines 10-13 per node: its least-loaded device with spare capacity,
    // `None` once the node is full. Only placing on a node changes it.
    let least_loaded = |nid: NodeId, expert_count: &[usize], device_loads: &[f64]| {
        topo.devices_on(nid)
            .filter(|d| is_active[d.index()] && expert_count[d.index()] < capacity)
            .map(|d| Slot {
                load: device_loads[d.index()],
                device: d.index(),
            })
            .min()
    };
    let mut node_best: Vec<Option<Slot>> = topo
        .node_ids()
        .map(|nid| least_loaded(nid, &expert_count, &device_loads))
        .collect();
    // Lines 7-9: the nodes holding the fewest replicas of the expert
    // form the candidate group. Every node starts an expert at zero and
    // moves up one level per replica it takes, so the group is the
    // current level's nodes, each at the slot it had when the level
    // began: a whole level takes one replica per node, a partial last
    // level its `left` smallest slots.
    let mut level: Vec<Slot> = Vec::with_capacity(topo.num_nodes());
    for j in order {
        let expert = ExpertId::new(j);
        level.clear();
        level.extend(node_best.iter().flatten().copied());
        let mut left = expert_rep[j];
        while left > 0 {
            assert!(
                !level.is_empty(),
                "replica total equals slot total, placement must succeed"
            );
            if left < level.len() {
                level.select_nth_unstable(left - 1);
                level.truncate(left);
            }
            left -= level.len();
            // Place the level's replicas; the nodes that keep room form
            // the next level.
            level.retain_mut(|slot| {
                let device = DeviceId::new(slot.device);
                layout.add_replica(device, expert);
                device_loads[slot.device] += avg[j];
                expert_count[slot.device] += 1;
                let nid = topo.node_of(device);
                node_best[nid.index()] = least_loaded(nid, &expert_count, &device_loads);
                node_best[nid.index()].map(|next| *slot = next).is_some()
            });
        }
    }
    debug_assert!(layout.validate_on(active).is_ok());
    layout
}

/// A candidate device in Alg. 1's search, ordered by `(load, device
/// id)` — the group scan's tie-break.
#[derive(Debug, Clone, Copy)]
struct Slot {
    load: f64,
    device: usize,
}

impl Ord for Slot {
    fn cmp(&self, other: &Self) -> Ordering {
        self.load
            .total_cmp(&other.load)
            .then(self.device.cmp(&other.device))
    }
}

impl PartialOrd for Slot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Slot {}

/// One expert-weight transfer implied by switching layouts: `dst` must
/// fetch `expert`'s parameters from `src` before it can serve them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelocationMove {
    /// Expert whose weights move.
    pub expert: ExpertId,
    /// Device already holding the weights under the old layout.
    pub src: DeviceId,
    /// Device gaining the expert under the new layout.
    pub dst: DeviceId,
}

/// The parameter movements needed to turn layout `from` into layout
/// `to`: one entry per device that *gains* an expert it did not host
/// before (replica-count increases on a device that already hosts the
/// expert are free — the weights are already resident). Sources are
/// chosen topology-aware and deterministically: a same-node holder if
/// one exists, otherwise the lowest-indexed holder; holders are
/// evaluated under `from`, so every transfer reads weights that are
/// actually resident when the re-layout starts. Experts with no holder
/// in `from` are skipped (a valid layout places every expert at least
/// once, so this only arises on malformed inputs).
///
/// # Panics
///
/// Panics if the two layouts disagree in device or expert count.
pub fn relocation_moves(
    topo: &Topology,
    from: &ExpertLayout,
    to: &ExpertLayout,
) -> Vec<RelocationMove> {
    assert_eq!(from.num_devices(), to.num_devices(), "device count");
    assert_eq!(from.num_experts(), to.num_experts(), "expert count");
    let mut moves = Vec::new();
    for j in 0..to.num_experts() {
        let expert = ExpertId::new(j);
        let holders: Vec<DeviceId> = from
            .replica_devices(expert)
            .into_iter()
            .map(|(d, _)| d)
            .collect();
        if holders.is_empty() {
            continue;
        }
        for (dst, _) in to.replica_devices(expert) {
            if from.replica_count(dst, expert) > 0 {
                continue;
            }
            let src = holders
                .iter()
                .copied()
                .find(|&h| topo.same_node(h, dst))
                .unwrap_or(holders[0]);
            moves.push(RelocationMove { expert, src, dst });
        }
    }
    moves
}

/// Convenience: maximum projected device load under a layout built by
/// [`expert_relocation`], assuming each expert's load splits evenly over
/// its replicas.
pub fn projected_max_device_load(layout: &ExpertLayout, expert_loads: &[u64]) -> f64 {
    let rep = layout.replica_vector();
    let mut device_loads = vec![0.0f64; layout.num_devices()];
    for j in 0..layout.num_experts() {
        if rep[j] == 0 {
            continue;
        }
        let per_replica = expert_loads[j] as f64 / rep[j] as f64;
        for (dev, count) in layout.replica_devices(ExpertId::new(j)) {
            device_loads[dev.index()] += per_replica * count as f64;
        }
    }
    device_loads.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::replica_allocation;

    #[test]
    fn produces_valid_layout() {
        let topo = Topology::new(2, 2).unwrap();
        let loads = [400u64, 100, 100, 100];
        let rep = replica_allocation(&loads, 4, 2);
        let layout = expert_relocation(&rep, &loads, &topo, 2);
        assert!(layout.validate().is_ok());
        assert_eq!(layout.total_replicas(), 8);
    }

    #[test]
    fn replicas_spread_across_nodes() {
        let topo = Topology::new(2, 2).unwrap();
        // Expert 0 has exactly 2 replicas: they must land on different
        // nodes.
        let rep = vec![2usize, 2, 2, 2];
        let loads = [100u64, 90, 80, 70];
        let layout = expert_relocation(&rep, &loads, &topo, 2);
        for j in 0..4 {
            let counts = layout.node_replica_counts(&topo, ExpertId::new(j));
            assert_eq!(counts, vec![1, 1], "expert {j} unbalanced: {counts:?}");
        }
    }

    /// Fig. 6's scenario: skewed load toward experts 0 and 1 should make
    /// the greedy layout give them more devices than the cold experts.
    #[test]
    fn hot_experts_get_more_devices() {
        let topo = Topology::single_node(4).unwrap();
        let loads = [500u64, 450, 50, 40];
        let rep = replica_allocation(&loads, 4, 2);
        let layout = expert_relocation(&rep, &loads, &topo, 2);
        assert!(layout.expert_replicas(ExpertId::new(0)) >= 2);
        assert!(
            layout.expert_replicas(ExpertId::new(0)) > layout.expert_replicas(ExpertId::new(3))
        );
        // Projected max device load beats the classic fixed layout.
        let classic = ExpertLayout::classic_ep(4, 4, 2).unwrap();
        let greedy_max = projected_max_device_load(&layout, &loads);
        let classic_max = projected_max_device_load(&classic, &loads);
        assert!(
            greedy_max < classic_max,
            "greedy {greedy_max} should beat classic {classic_max}"
        );
    }

    #[test]
    fn least_loaded_device_chosen() {
        let topo = Topology::single_node(2).unwrap();
        // Single replica each of experts 0 (heavy) and 1..=3 (light);
        // the heavy expert is placed first on device 0, then lights fill
        // the lighter device first.
        let rep = vec![1usize, 1, 1, 1];
        let loads = [1000u64, 10, 10, 10];
        let layout = expert_relocation(&rep, &loads, &topo, 2);
        // Device hosting expert 0 should host exactly one more (light)
        // expert; device 1 hosts two lights.
        let hot_dev = layout.replica_devices(ExpertId::new(0))[0].0;
        assert_eq!(layout.device_slots_used(hot_dev), 2);
        assert!(layout.validate().is_ok());
    }

    #[test]
    fn deterministic() {
        let topo = Topology::new(2, 4).unwrap();
        let loads = [100u64, 300, 50, 200, 70, 10, 90, 40];
        let rep = replica_allocation(&loads, 8, 2);
        let a = expert_relocation(&rep, &loads, &topo, 2);
        let b = expert_relocation(&rep, &loads, &topo, 2);
        assert_eq!(a, b);
    }

    /// Relocation moves: identical layouts need no traffic; gaining a
    /// previously-unhosted expert needs exactly one fetch per gaining
    /// device, sourced same-node when possible.
    #[test]
    fn relocation_moves_diff_layouts() {
        let topo = Topology::new(2, 2).unwrap();
        let from = ExpertLayout::classic_ep(4, 4, 2).unwrap();
        assert!(relocation_moves(&topo, &from, &from).is_empty());

        // Rebuild with expert 0 hot: it gains devices it never lived on.
        let loads = [900u64, 40, 30, 30];
        let rep = replica_allocation(&loads, 4, 2);
        let to = expert_relocation(&rep, &loads, &topo, 2);
        let moves = relocation_moves(&topo, &from, &to);
        for m in &moves {
            // Every source actually held the expert under `from`, and no
            // destination already did.
            assert!(from.replica_count(m.src, m.expert) > 0);
            assert_eq!(from.replica_count(m.dst, m.expert), 0);
            assert!(to.replica_count(m.dst, m.expert) > 0);
            // classic_ep(4, 4, 2) hosts every expert once per node, so
            // every gaining device has a same-node source.
            assert!(topo.same_node(m.src, m.dst), "cross-node move {m:?}");
        }
    }

    /// Growing the replica count of an expert on a device that already
    /// hosts it is free — the weights are resident, so no move.
    #[test]
    fn relocation_moves_skip_resident_experts() {
        use laer_cluster::DeviceId;
        let topo = Topology::single_node(2).unwrap();
        let copy_into = |cap: usize, extra: Option<(usize, usize)>| {
            let mut l = ExpertLayout::empty(2, 2, cap).unwrap();
            l.add_replica(DeviceId::new(0), ExpertId::new(0));
            l.add_replica(DeviceId::new(1), ExpertId::new(1));
            if let Some((d, e)) = extra {
                l.add_replica(DeviceId::new(d), ExpertId::new(e));
            }
            l
        };
        let base = copy_into(2, None);
        // Second replica of expert 0 on device 0: resident, free.
        assert!(relocation_moves(&topo, &base, &copy_into(2, Some((0, 0)))).is_empty());
        // Replica of expert 1 on device 0: one fetch from device 1.
        let moves = relocation_moves(&topo, &base, &copy_into(2, Some((0, 1))));
        assert_eq!(
            moves,
            vec![RelocationMove {
                expert: ExpertId::new(1),
                src: DeviceId::new(1),
                dst: DeviceId::new(0),
            }]
        );
    }

    #[test]
    #[should_panic(expected = "must equal active device count")]
    fn wrong_total_panics() {
        let topo = Topology::single_node(2).unwrap();
        let _ = expert_relocation(&[1, 1, 1], &[1, 1, 1], &topo, 2);
    }

    /// Degraded mode: relocation onto survivors leaves failed devices
    /// empty, fills survivors to capacity and keeps node spreading.
    #[test]
    fn relocation_on_survivors() {
        use laer_cluster::DeviceId;
        let topo = Topology::new(2, 4).unwrap();
        // Device 5 failed: 7 survivors * C=2 = 14 replicas over 8 experts.
        let survivors: Vec<DeviceId> = (0..8).filter(|&i| i != 5).map(DeviceId::new).collect();
        let loads = [500u64, 300, 200, 100, 90, 80, 70, 60];
        let rep = crate::replica::replica_allocation(&loads, 7, 2);
        assert_eq!(rep.iter().sum::<usize>(), 14);
        let layout = expert_relocation_on(&rep, &loads, &topo, 2, &survivors);
        assert!(layout.validate_on(&survivors).is_ok());
        assert_eq!(layout.device_slots_used(DeviceId::new(5)), 0);
        assert_eq!(layout.total_replicas(), 14);
        // Full-device variant is the all-devices special case.
        let all: Vec<DeviceId> = topo.devices().collect();
        let rep_all = crate::replica::replica_allocation(&loads, 8, 2);
        let a = expert_relocation(&rep_all, &loads, &topo, 2);
        let b = expert_relocation_on(&rep_all, &loads, &topo, 2, &all);
        assert_eq!(a, b);
    }
}
