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
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced by collective cost functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CollectiveError {
    /// The traffic matrix does not match the topology's device count.
    DimensionMismatch {
        /// Devices in the matrix.
        matrix: usize,
        /// Devices in the topology.
        topology: usize,
    },
    /// A collective group was empty.
    EmptyGroup,
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::DimensionMismatch { matrix, topology } => write!(
                f,
                "traffic matrix is {matrix} devices but topology has {topology}"
            ),
            CollectiveError::EmptyGroup => write!(f, "collective group is empty"),
        }
    }
}

impl std::error::Error for CollectiveError {}

/// Dense `N × N` byte-count matrix for one All-to-All: entry `(i, k)` is
/// the number of bytes device `i` sends to device `k`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct A2aMatrix {
    n: usize,
    bytes: Vec<f64>,
}

impl A2aMatrix {
    /// Creates a zero matrix for `n` devices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            bytes: vec![0.0; n * n],
        }
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.n
    }

    /// Bytes sent from `src` to `dst`.
    pub fn get(&self, src: DeviceId, dst: DeviceId) -> f64 {
        self.bytes[src.index() * self.n + dst.index()]
    }

    /// Adds bytes to the `(src, dst)` cell.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add(&mut self, src: DeviceId, dst: DeviceId, bytes: f64) {
        assert!(src.index() < self.n && dst.index() < self.n, "index range");
        self.bytes[src.index() * self.n + dst.index()] += bytes;
    }

    /// Total bytes sent by `src` to other devices (self-sends are local
    /// copies and excluded).
    pub fn send_total(&self, src: DeviceId) -> f64 {
        (0..self.n)
            .filter(|&k| k != src.index())
            .map(|k| self.bytes[src.index() * self.n + k])
            .sum()
    }

    /// Total bytes received by `dst` from other devices.
    pub fn recv_total(&self, dst: DeviceId) -> f64 {
        (0..self.n)
            .filter(|&i| i != dst.index())
            .map(|i| self.bytes[i * self.n + dst.index()])
            .sum()
    }

    /// Sum of all off-diagonal traffic.
    pub fn total(&self) -> f64 {
        (0..self.n).map(|i| self.send_total(DeviceId::new(i))).sum()
    }
}

/// Per-device local cost of an arbitrary (possibly imbalanced) All-to-All
/// described by `traffic`.
///
/// For device `i` the cost is `max(send_i, recv_i)` where each direction
/// sums `α + bytes/bw` over peers with non-zero traffic.
///
/// # Errors
///
/// Returns [`CollectiveError::DimensionMismatch`] if the matrix and the
/// topology disagree on `N`.
pub fn all_to_all_time<I: Interconnect + ?Sized>(
    net: &I,
    traffic: &A2aMatrix,
) -> Result<Vec<f64>, CollectiveError> {
    let n = net.num_devices();
    if traffic.num_devices() != n {
        return Err(CollectiveError::DimensionMismatch {
            matrix: traffic.num_devices(),
            topology: n,
        });
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let dev = DeviceId::new(i);
        let mut send = 0.0;
        let mut recv = 0.0;
        for k in 0..n {
            if k == i {
                continue;
            }
            let peer = DeviceId::new(k);
            let tx = traffic.get(dev, peer);
            if tx > 0.0 {
                send += net.latency(dev, peer) + tx / net.effective_bandwidth(dev, peer);
            }
            let rx = traffic.get(peer, dev);
            if rx > 0.0 {
                recv += net.latency(dev, peer) + rx / net.effective_bandwidth(dev, peer);
            }
        }
        out.push(send.max(recv));
    }
    Ok(out)
}

/// Per-device dispatch and combine All-to-All local costs of a token
/// routing: `traffic` yields `(src, dst, tokens)` triples, several of
/// which may name one device pair, and every token carries
/// `token_bytes`. A pair's tokens are summed before they are priced, so
/// the pair pays one message; tokens a device keeps (`src == dst`) are
/// free.
///
/// Combine sends every token back, so its traffic is dispatch
/// transposed. Transposing swaps each device's send and receive sums
/// term for term, which leaves every device's `max(send, recv)` — and
/// so the combine times — bit-identical to dispatch's.
///
/// # Panics
///
/// Panics if a device index is outside `net`.
pub fn token_a2a_times<I: Interconnect + ?Sized>(
    net: &I,
    traffic: impl IntoIterator<Item = (DeviceId, DeviceId, u64)>,
    token_bytes: f64,
) -> (Vec<f64>, Vec<f64>) {
    let n = net.num_devices();
    let mut tokens = vec![0u64; n * n];
    for (src, dst, t) in traffic {
        assert!(src.index() < n && dst.index() < n, "device out of range");
        tokens[src.index() * n + dst.index()] += t;
    }
    let mut dispatch = A2aMatrix::new(n);
    for (cell, &t) in tokens.iter().enumerate() {
        let (src, dst) = (cell / n, cell % n);
        if t > 0 && src != dst {
            dispatch.add(
                DeviceId::new(src),
                DeviceId::new(dst),
                t as f64 * token_bytes,
            );
        }
    }
    let times = all_to_all_time(net, &dispatch)
        .unwrap_or_else(|e| unreachable!("matrix sized from the network: {e}"));
    (times.clone(), times)
}

/// Per-device cost of a *balanced* All-to-All where every device sends
/// `bytes_per_device` in total, split evenly across the other `N − 1`
/// peers — the regular communication pattern of FSEP unshard (Sec. 3.1).
pub fn all_to_all_balanced_time<I: Interconnect + ?Sized>(net: &I, bytes_per_device: f64) -> f64 {
    let n = net.num_devices();
    if n <= 1 || bytes_per_device <= 0.0 {
        return 0.0;
    }
    let per_peer = bytes_per_device / (n as f64 - 1.0);
    let mut traffic = A2aMatrix::new(n);
    for i in 0..n {
        for k in 0..n {
            if i != k {
                traffic.add(DeviceId::new(i), DeviceId::new(k), per_peer);
            }
        }
    }
    // The matrix is sized from `net`, so the dimension check cannot fail.
    match all_to_all_time(net, &traffic) {
        Ok(times) => times.into_iter().fold(0.0, f64::max),
        Err(_) => 0.0,
    }
}

/// Slowest link bandwidth and latency within a device group (rings are
/// bottlenecked by their slowest hop).
fn group_bottleneck<I: Interconnect + ?Sized>(
    net: &I,
    group: &[DeviceId],
) -> Result<(f64, f64), CollectiveError> {
    let Some(&a) = group.first() else {
        return Err(CollectiveError::EmptyGroup);
    };
    if let Some(&b) = group.iter().find(|&&d| net.node_of(d) != net.node_of(a)) {
        Ok((net.effective_bandwidth(a, b), net.latency(a, b)))
    } else if group.len() >= 2 {
        Ok((
            net.effective_bandwidth(group[0], group[1]),
            net.latency(group[0], group[1]),
        ))
    } else {
        Ok((f64::INFINITY, 0.0))
    }
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
    let p = group.len();
    if p <= 1 {
        return if p == 0 {
            Err(CollectiveError::EmptyGroup)
        } else {
            Ok(0.0)
        };
    }
    let (bw, alpha) = group_bottleneck(net, group)?;
    Ok((p as f64 - 1.0) * (alpha + shard_bytes / bw))
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
    let p = group.len();
    if p <= 1 {
        return if p == 0 {
            Err(CollectiveError::EmptyGroup)
        } else {
            Ok(0.0)
        };
    }
    all_gather_time(net, group, full_bytes / p as f64)
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
    let p = group.len();
    if p <= 1 {
        return if p == 0 {
            Err(CollectiveError::EmptyGroup)
        } else {
            Ok(0.0)
        };
    }
    Ok(reduce_scatter_time(net, group, full_bytes)?
        + all_gather_time(net, group, full_bytes / p as f64)?)
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
        let mut view = DegradedView::new(topo.clone());
        view.degrade_link(DeviceId::new(0), DeviceId::new(8), 0.25);
        let mut m = A2aMatrix::new(32);
        m.add(DeviceId::new(0), DeviceId::new(8), 1e9);
        let nominal = all_to_all_time(&topo, &m).unwrap()[0];
        let degraded = all_to_all_time(&view, &m).unwrap()[0];
        assert!(
            degraded > nominal * 3.0 && degraded < nominal * 4.5,
            "nominal {nominal} degraded {degraded}"
        );
        let mut other = A2aMatrix::new(32);
        other.add(DeviceId::new(1), DeviceId::new(9), 1e9);
        assert_eq!(
            all_to_all_time(&topo, &other).unwrap()[1],
            all_to_all_time(&view, &other).unwrap()[1]
        );
        // Ring collectives accept the view too.
        let group: Vec<_> = (0..16).map(DeviceId::new).collect();
        let ag_nom = all_gather_time(&topo, &group, 1e8).unwrap();
        let ag_deg = all_gather_time(&view, &group, 1e8).unwrap();
        assert!(ag_deg >= ag_nom);
    }

    /// The token All-to-All sums a device pair's entries before pricing
    /// (one message, one α), charges nothing for self-traffic, and
    /// prices combine as dispatch transposed.
    #[test]
    fn token_a2a_sums_pairs_skips_self_and_transposes_combine() {
        let topo = paper();
        let d = DeviceId::new;
        let bytes = 4096.0;
        let split = [(d(0), d(8), 3), (d(0), d(8), 4), (d(9), d(1), 5)];
        let whole = [(d(0), d(8), 7), (d(9), d(1), 5)];
        assert_eq!(
            token_a2a_times(&topo, split, bytes),
            token_a2a_times(&topo, whole, bytes)
        );
        let mut dispatch = A2aMatrix::new(32);
        let mut combine = A2aMatrix::new(32);
        for (src, dst, t) in whole {
            dispatch.add(src, dst, t as f64 * bytes);
            combine.add(dst, src, t as f64 * bytes);
        }
        let (dispatch_times, combine_times) = token_a2a_times(&topo, whole, bytes);
        assert_eq!(dispatch_times, all_to_all_time(&topo, &dispatch).unwrap());
        assert_eq!(combine_times, all_to_all_time(&topo, &combine).unwrap());
        let transposed = whole.map(|(src, dst, t)| (dst, src, t));
        assert_eq!(token_a2a_times(&topo, transposed, bytes).0, combine_times);

        let (local_d, local_c) = token_a2a_times(&topo, [(d(3), d(3), 1000)], bytes);
        assert!(local_d.iter().chain(&local_c).all(|&t| t == 0.0));
    }

    #[test]
    fn matrix_totals() {
        let mut m = A2aMatrix::new(4);
        m.add(DeviceId::new(0), DeviceId::new(1), 10.0);
        m.add(DeviceId::new(0), DeviceId::new(2), 5.0);
        m.add(DeviceId::new(3), DeviceId::new(0), 7.0);
        m.add(DeviceId::new(0), DeviceId::new(0), 100.0); // local, excluded
        assert_eq!(m.send_total(DeviceId::new(0)), 15.0);
        assert_eq!(m.recv_total(DeviceId::new(0)), 7.0);
        assert_eq!(m.total(), 22.0);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let m = A2aMatrix::new(8);
        let err = all_to_all_time(&paper(), &m).unwrap_err();
        assert!(matches!(err, CollectiveError::DimensionMismatch { .. }));
    }

    #[test]
    fn imbalanced_receiver_dominates() {
        let topo = Topology::single_node(4).unwrap();
        let mut m = A2aMatrix::new(4);
        // Everyone floods device 0.
        for i in 1..4 {
            m.add(DeviceId::new(i), DeviceId::new(0), 1e9);
        }
        let t = all_to_all_time(&topo, &m).unwrap();
        assert!(
            t[0] > t[1] * 2.0,
            "receiver should be the bottleneck: {t:?}"
        );
    }

    #[test]
    fn inter_node_is_slower_than_intra() {
        let topo = paper();
        let mut intra = A2aMatrix::new(32);
        intra.add(DeviceId::new(0), DeviceId::new(1), 1e9);
        let mut inter = A2aMatrix::new(32);
        inter.add(DeviceId::new(0), DeviceId::new(8), 1e9);
        let ti = all_to_all_time(&topo, &intra).unwrap()[0];
        let tx = all_to_all_time(&topo, &inter).unwrap()[0];
        assert!(tx > ti * 5.0, "inter {tx} vs intra {ti}");
    }

    #[test]
    fn balanced_a2a_scales_linearly() {
        let topo = paper();
        let t1 = all_to_all_balanced_time(&topo, 1e8);
        let t2 = all_to_all_balanced_time(&topo, 2e8);
        // Affine in volume (latency term constant).
        assert!(t2 > t1 * 1.8 && t2 < t1 * 2.05);
    }

    #[test]
    fn balanced_a2a_degenerate_cases() {
        let topo = Topology::single_node(1).unwrap();
        assert_eq!(all_to_all_balanced_time(&topo, 1e9), 0.0);
        assert_eq!(all_to_all_balanced_time(&paper(), 0.0), 0.0);
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
