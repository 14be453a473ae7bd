//! Cost models for the collective operations used in MoE training.
//!
//! Bandwidth accounting follows the paper's hardware description: NVLink
//! bandwidth (300 GB/s) is per device, while the InfiniBand figure
//! (800 Gbps ≈ 100 GB/s) is the *node* NIC, shared by the node's devices.
//! An α–β model is used throughout: each message pays the link latency α
//! once plus `bytes / bandwidth`, with the bandwidth shared as
//! [`Interconnect::effective_bandwidth`] states.
//!
//! All-to-All is modelled per device: a device's local cost is the larger
//! of its total send time and total receive time across peers; the
//! synchronising max over devices is applied by
//! [`crate::Engine::enqueue_collective`], so a single overloaded receiver
//! (a device hosting a hot expert) inflates everyone's All-to-All span —
//! the tail-latency mechanism of Fig. 1(b).

use laer_cluster::{DeviceId, Interconnect};
use std::fmt;

/// Error produced by collective cost functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// A collective group was empty.
    EmptyGroup,
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::EmptyGroup => write!(f, "collective group is empty"),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Per-device local cost of one (possibly imbalanced) All-to-All:
/// `traffic` yields `(src, dst, units)` triples, several of which may
/// name one device pair, and every unit carries `unit_bytes` — a token
/// of a routing, or one expert's weights in a relayout.
///
/// A pair's units are summed before they are priced, so the pair pays
/// one message; units a device keeps (`src == dst`) and pairs of zero
/// bytes are free. Device `i` costs `max(send_i, recv_i)`, where each
/// direction adds `α + bytes/bw` of the link `(i, peer)` over its peers
/// in ascending order.
///
/// Only the pairs that carry traffic are visited. The triples are
/// bucketed by sender (a counting sort over two passes of `traffic`),
/// each sender's receivers are merged and sorted, and walking the
/// senders in ascending order then adds every receiver's terms in
/// ascending sender order too: both sums keep the order of a full
/// `N × N` scan, in O(N + triples) memory.
///
/// Combine sends every token back, so its traffic is dispatch
/// transposed. Transposing swaps each device's send and receive sums
/// term for term, which leaves every device's `max(send, recv)` — and
/// so the combine times — bit-identical to dispatch's.
///
/// # Panics
///
/// Panics if a device index is outside `net`.
pub fn all_to_all_time<I: Interconnect + ?Sized>(
    net: &I,
    traffic: impl IntoIterator<Item = (DeviceId, DeviceId, u64), IntoIter: Clone>,
    unit_bytes: f64,
) -> Vec<f64> {
    let n = net.num_devices();
    let traffic = traffic.into_iter().filter(|&(src, dst, units)| {
        assert!(src.index() < n && dst.index() < n, "device out of range");
        src != dst && units > 0
    });
    // `end[i]` counts sender i's triples, then holds the next free slot
    // of its bucket, and ends one past the bucket.
    let mut end = vec![0usize; n];
    for (src, _, _) in traffic.clone() {
        end[src.index()] += 1;
    }
    let mut filled = 0;
    for slot in &mut end {
        (*slot, filled) = (filled, filled + *slot);
    }
    let mut bucket = vec![(0usize, 0u64); filled];
    for (src, dst, units) in traffic {
        let slot = &mut end[src.index()];
        bucket[*slot] = (dst.index(), units);
        *slot += 1;
    }

    let (mut send, mut recv) = (vec![0.0; n], vec![0.0; n]);
    let mut units_to = vec![0u64; n];
    let mut peers = Vec::new();
    let mut start = 0;
    for (i, &stop) in end.iter().enumerate() {
        for &(k, units) in &bucket[start..stop] {
            if units_to[k] == 0 {
                peers.push(k);
            }
            units_to[k] += units;
        }
        start = stop;
        peers.sort_unstable();
        let src = DeviceId::new(i);
        for k in peers.drain(..) {
            let bytes = std::mem::take(&mut units_to[k]) as f64 * unit_bytes;
            if bytes > 0.0 {
                let dst = DeviceId::new(k);
                send[i] += net.latency(src, dst) + bytes / net.effective_bandwidth(src, dst);
                recv[k] += net.latency(dst, src) + bytes / net.effective_bandwidth(dst, src);
            }
        }
    }
    for (s, r) in send.iter_mut().zip(recv) {
        *s = s.max(r);
    }
    send
}

/// Slowest link bandwidth and latency within a group of at least two
/// devices (rings are bottlenecked by their slowest hop).
fn group_bottleneck<I: Interconnect + ?Sized>(net: &I, group: &[DeviceId]) -> (f64, f64) {
    let a = group[0];
    let cross = group.iter().find(|&&d| net.node_of(d) != net.node_of(a));
    let b = *cross.unwrap_or(&group[1]);
    (net.effective_bandwidth(a, b), net.latency(a, b))
}

/// Ring all-gather over `group`: every device holds `shard_bytes` and ends
/// with all `P` shards. Time = `(P−1) · (α + shard_bytes / bw)`.
///
/// # Errors
///
/// Returns [`CollectiveError::EmptyGroup`] for an empty group.
pub fn all_gather_time<I: Interconnect + ?Sized>(
    net: &I,
    group: &[DeviceId],
    shard_bytes: f64,
) -> Result<f64, CollectiveError> {
    match group.len() {
        0 => Err(CollectiveError::EmptyGroup),
        1 => Ok(0.0),
        p => {
            let (bw, alpha) = group_bottleneck(net, group);
            Ok((p as f64 - 1.0) * (alpha + shard_bytes / bw))
        }
    }
}

/// Ring reduce-scatter over `group` of a full buffer of `full_bytes`
/// (each device ends with `full_bytes / P` reduced). Symmetric to
/// all-gather of the shard size.
///
/// # Errors
///
/// Returns [`CollectiveError::EmptyGroup`] for an empty group.
pub fn reduce_scatter_time<I: Interconnect + ?Sized>(
    net: &I,
    group: &[DeviceId],
    full_bytes: f64,
) -> Result<f64, CollectiveError> {
    all_gather_time(net, group, full_bytes / group.len() as f64)
}

/// Ring all-reduce over `group` of `full_bytes`: reduce-scatter followed
/// by all-gather.
///
/// # Errors
///
/// Returns [`CollectiveError::EmptyGroup`] for an empty group.
pub fn all_reduce_time<I: Interconnect + ?Sized>(
    net: &I,
    group: &[DeviceId],
    full_bytes: f64,
) -> Result<f64, CollectiveError> {
    Ok(reduce_scatter_time(net, group, full_bytes)?
        + all_gather_time(net, group, full_bytes / group.len() as f64)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_cluster::{DegradedView, Topology};

    fn paper() -> Topology {
        Topology::paper_cluster()
    }

    /// Degraded views plug into the same cost functions and price the
    /// weakened links higher, leaving untouched links alone.
    #[test]
    fn degraded_view_prices_weak_links() {
        let topo = paper();
        let d = DeviceId::new;
        let mut view = DegradedView::new(topo.clone());
        view.degrade_link(d(0), d(8), 0.25);
        let weak = [(d(0), d(8), 1)];
        let nominal = all_to_all_time(&topo, weak, 1e9)[0];
        let degraded = all_to_all_time(&view, weak, 1e9)[0];
        assert!(
            degraded > nominal * 3.0 && degraded < nominal * 4.5,
            "nominal {nominal} degraded {degraded}"
        );
        let other = [(d(1), d(9), 1)];
        assert_eq!(
            all_to_all_time(&topo, other, 1e9)[1],
            all_to_all_time(&view, other, 1e9)[1]
        );
        // Ring collectives accept the view too.
        let group: Vec<_> = (0..16).map(DeviceId::new).collect();
        let ag_nom = all_gather_time(&topo, &group, 1e8).unwrap();
        let ag_deg = all_gather_time(&view, &group, 1e8).unwrap();
        assert!(ag_deg >= ag_nom);
    }

    /// The token All-to-All sums a device pair's entries before pricing
    /// (one message, one α), charges nothing for self-traffic or zero
    /// units, and prices combine — dispatch transposed — the same.
    #[test]
    fn token_a2a_sums_pairs_skips_self_and_transposes_combine() {
        let topo = paper();
        let d = DeviceId::new;
        let bytes = 4096.0;
        let split = [(d(0), d(8), 3), (d(9), d(1), 5), (d(0), d(8), 4)];
        let whole = [(d(0), d(8), 7), (d(9), d(1), 5)];
        let times = all_to_all_time(&topo, whole, bytes);
        assert_eq!(all_to_all_time(&topo, split, bytes), times);
        let pair = |a, b, t: f64| {
            topo.latency(d(a), d(b)) + t * bytes / topo.effective_bandwidth(d(a), d(b))
        };
        assert_eq!(times[0], pair(0, 8, 7.0));
        assert_eq!(times[8], pair(8, 0, 7.0));
        assert_eq!(times[1], pair(1, 9, 5.0));
        assert!(times
            .iter()
            .enumerate()
            .all(|(i, &t)| [0, 1, 8, 9].contains(&i) || t == 0.0));
        let transposed = whole.map(|(src, dst, t)| (dst, src, t));
        assert_eq!(all_to_all_time(&topo, transposed, bytes), times);

        let local = all_to_all_time(&topo, [(d(3), d(3), 1000), (d(4), d(5), 0)], bytes);
        assert!(local.iter().all(|&t| t == 0.0));
    }

    /// A triple naming a device outside the network is a caller bug.
    #[test]
    #[should_panic(expected = "device out of range")]
    fn out_of_range_device_panics() {
        all_to_all_time(&paper(), [(DeviceId::new(0), DeviceId::new(32), 1)], 1.0);
    }

    #[test]
    fn imbalanced_receiver_dominates() {
        let topo = Topology::single_node(4).unwrap();
        // Everyone floods device 0.
        let flood = (1..4).map(|i| (DeviceId::new(i), DeviceId::new(0), 1));
        let t = all_to_all_time(&topo, flood, 1e9);
        assert!(
            t[0] > t[1] * 2.0,
            "receiver should be the bottleneck: {t:?}"
        );
    }

    #[test]
    fn inter_node_is_slower_than_intra() {
        let topo = paper();
        let d = DeviceId::new;
        let ti = all_to_all_time(&topo, [(d(0), d(1), 1)], 1e9)[0];
        let tx = all_to_all_time(&topo, [(d(0), d(8), 1)], 1e9)[0];
        assert!(tx > ti * 5.0, "inter {tx} vs intra {ti}");
    }

    #[test]
    fn all_gather_matches_ring_formula() {
        let topo = Topology::single_node(8).unwrap();
        let group: Vec<_> = topo.devices().collect();
        let t = all_gather_time(&topo, &group, 1e9).unwrap();
        let expect = 7.0 * (laer_cluster::DEFAULT_INTRA_LATENCY + 1e9 / 300.0e9);
        assert!((t - expect).abs() < 1e-9, "{t} vs {expect}");
    }

    #[test]
    fn cross_node_group_bottlenecked_by_nic() {
        let topo = paper();
        let intra_group: Vec<_> = (0..8).map(DeviceId::new).collect();
        let cross_group: Vec<_> = (0..32).step_by(4).map(DeviceId::new).collect();
        let ti = all_gather_time(&topo, &intra_group, 1e8).unwrap() / 7.0;
        let tx = all_gather_time(&topo, &cross_group, 1e8).unwrap() / 7.0;
        assert!(tx > ti);
    }

    #[test]
    fn all_reduce_is_roughly_double_reduce_scatter() {
        let topo = Topology::single_node(8).unwrap();
        let group: Vec<_> = topo.devices().collect();
        let rs = reduce_scatter_time(&topo, &group, 8e8).unwrap();
        let ar = all_reduce_time(&topo, &group, 8e8).unwrap();
        assert!((ar - 2.0 * rs).abs() / ar < 1e-9);
    }

    #[test]
    fn single_member_group_is_free() {
        let topo = paper();
        assert_eq!(
            all_gather_time(&topo, &[DeviceId::new(0)], 1e9).unwrap(),
            0.0
        );
        assert!(all_gather_time(&topo, &[], 1e9).is_err());
    }
}
