//! The planner's time model — Eqs. 2–4 of the paper.
//!
//! `T = T_comm + T_comp` with
//!
//! * `T_comm` built from the paper's pairwise terms
//!   `S[i][j][k] · V_comm / bw(i, k)` (Eq. 2's communication sum), but
//!   aggregated per device and taken over the straggler:
//!   `T_comm = 4 · max_i max(send_i, recv_i)` where `send_i` sums the
//!   pairwise terms leaving device `i` and `recv_i` those arriving.
//!   The paper writes the aggregation as a flat sum; a flat sum is total
//!   byte-seconds rather than wall time, and since the All-to-All is a
//!   synchronising collective the executor's iteration time tracks the
//!   slowest device — the max aggregation makes the planner optimise the
//!   quantity the system actually experiences (and what
//!   `laer_sim::all_to_all_time` charges every device pair that
//!   carries traffic);
//! * `T_comp = (3 + F_ckpt) · max_i V_comp · Σ_{j,k} S[k][j][i] / B_comp`.
//!
//! Every evaluator counts a routing into the same exact integer sums
//! (`Eq2Sums`): per device and link price, the tokens and messages it
//! sends and receives, plus its compute load. One function turns those
//! sums into seconds, adding each device's price buckets in a fixed
//! order. [`time_cost`], the tuner's candidate pricing and the delta
//! evaluator therefore agree bit for bit by construction, whatever order
//! they count their traffic in — which is what lets the tuner fold a
//! rack's fallback splits into one histogram and the delta evaluator
//! keep its sums by subtract-and-add.

use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, Interconnect};
use laer_model::{CostModel, GpuSpec, ModelConfig, ModelPreset};
use serde::{Deserialize, Serialize};

/// Scalar parameters of the planner's time model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Bytes moved per token per All-to-All hop (`V_comm`).
    pub v_comm: f64,
    /// Forward FLOPs per (token, expert) assignment (`V_comp`).
    pub v_comp: f64,
    /// Effective per-GPU throughput (`B_comp`), FLOP/s.
    pub b_comp: f64,
    /// Whether activation checkpointing doubles the forward pass
    /// (`F_ckpt` of Eq. 2's computation term).
    pub checkpointing: bool,
    /// Whether the pairwise communication term also charges the link's
    /// per-message latency, matching `laer_sim::all_to_all_time`, which
    /// charges each device pair `latency + bytes/bw` once. The paper's
    /// Eq. 2 (and the default here) is bandwidth-only — accurate at the
    /// paper's 32 devices, but at fleet scale a rare expert's replica
    /// receives from hundreds of distinct peers and the accumulated
    /// latency dominates its A2A time, so fleet-size planning must price
    /// it.
    /// Charged per routing entry, as one message (a slight over-count
    /// when one peer pair carries several experts' traffic — the
    /// simulator charges per aggregated pair), which is conservative for
    /// planning.
    #[serde(default)]
    pub latency_aware: bool,
}

impl CostParams {
    /// Builds cost parameters from a model configuration and GPU spec.
    pub fn from_model(cfg: &ModelConfig, gpu: GpuSpec, checkpointing: bool) -> Self {
        let cm = CostModel::new(cfg, gpu);
        Self {
            v_comm: cm.v_comm(),
            v_comp: cm.v_comp(),
            b_comp: gpu.effective_flops(),
            checkpointing,
            latency_aware: false,
        }
    }

    /// Enables or disables per-peer latency in the communication term
    /// (see [`CostParams::latency_aware`]).
    #[must_use]
    pub fn with_latency_aware(mut self, on: bool) -> Self {
        self.latency_aware = on;
        self
    }

    /// The Mixtral-8x7B e8k2 / A100 operating point used in most of the
    /// paper's experiments.
    pub fn mixtral_8x7b() -> Self {
        Self::from_model(
            &ModelPreset::Mixtral8x7bE8k2.config(),
            GpuSpec::a100(),
            false,
        )
    }

    /// The `(3 + F_ckpt)` forward/backward multiplier.
    pub fn compute_multiplier(&self) -> f64 {
        if self.checkpointing {
            4.0
        } else {
            3.0
        }
    }

    /// Eq. 2's `T_comp` for a straggler computing `max_load` tokens:
    /// `(3 + F_ckpt) · max_load · V_comp / B_comp`. Non-decreasing in
    /// `max_load` in floating point too, every factor being positive.
    pub(crate) fn compute_time(&self, max_load: u64) -> f64 {
        self.compute_multiplier() * max_load as f64 * self.v_comp / self.b_comp
    }
}

/// The two components of the objective, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// `T_comm` of Eq. 2.
    pub comm: f64,
    /// `T_comp` of Eq. 2.
    pub comp: f64,
}

impl CostBreakdown {
    /// `T = T_comm + T_comp`.
    pub fn total(&self) -> f64 {
        self.comm + self.comp
    }

    /// Re-prices this breakdown for the executor's chunked
    /// dispatch/combine pipeline: the layer's A2A is split into
    /// `num_chunks` equal chunks and every chunk but the first can hide
    /// behind the previous chunk's expert compute, so the exposed
    /// communication becomes
    ///
    /// ```text
    /// T_comm' = T_comm/C + (C - 1) · max(0, T_comm/C - T_comp/C)
    /// ```
    ///
    /// — the first chunk's A2A plus the per-chunk residue that compute
    /// cannot cover (equivalently `max(T_comm - T_comp·(C-1)/C,
    /// T_comm/C)`, the pipeline makespan minus the compute it overlaps).
    /// `T_comp` is unchanged: chunking moves communication off the
    /// critical path but performs the same FLOPs. With `num_chunks <= 1`
    /// the breakdown is returned bit-identically, matching the
    /// executor's invariant that one chunk reproduces the whole-iteration
    /// schedule.
    pub fn pipelined(self, num_chunks: usize) -> CostBreakdown {
        if num_chunks <= 1 {
            return self;
        }
        let c = num_chunks as f64;
        let per_chunk_comm = self.comm / c;
        let per_chunk_comp = self.comp / c;
        CostBreakdown {
            comm: per_chunk_comm + (c - 1.0) * (per_chunk_comm - per_chunk_comp).max(0.0),
            comp: self.comp,
        }
    }
}

/// A network's link prices as Eq. 2 buckets: every distinct resolved
/// price `(effective bandwidth, latency)` (the bandwidth as
/// [`Interconnect::effective_bandwidth`] shares it) gets one bucket,
/// numbered in first-use order, so traffic over equally priced
/// links adds up in one exact integer sum. A network that [prices links
/// by kind](Interconnect::prices_by_kind) resolves each
/// [`laer_cluster::LinkKind`] once; any other network resolves every
/// pair it is asked about, so on a [`laer_cluster::DegradedView`] each
/// degraded pair lands in a bucket of its own price.
#[derive(Debug)]
pub(crate) struct LinkPrices<'a, I: ?Sized> {
    net: &'a I,
    /// Each link kind's bucket once resolved; `None` when the network
    /// prices pair by pair.
    kinds: Option<[Option<usize>; 4]>,
    prices: Vec<(f64, f64)>,
}

impl<'a, I: Interconnect + ?Sized> LinkPrices<'a, I> {
    pub(crate) fn new(net: &'a I) -> Self {
        Self {
            net,
            kinds: net.prices_by_kind().then_some([None; 4]),
            prices: Vec::new(),
        }
    }

    /// Whether every link of one kind shares one bucket.
    pub(crate) fn by_kind(&self) -> bool {
        self.kinds.is_some()
    }

    /// The bucket of the `src → dst` link, for `src != dst`.
    pub(crate) fn bucket(&mut self, src: DeviceId, dst: DeviceId) -> usize {
        let net = self.net;
        let prices = &mut self.prices;
        let mut intern = || {
            let price = (net.effective_bandwidth(src, dst), net.latency(src, dst));
            let bits = |(bw, lat): (f64, f64)| (bw.to_bits(), lat.to_bits());
            prices
                .iter()
                .position(|&p| bits(p) == bits(price))
                .unwrap_or_else(|| {
                    prices.push(price);
                    prices.len() - 1
                })
        };
        match &mut self.kinds {
            Some(kinds) => *kinds[net.link_kind(src, dst) as usize].get_or_insert_with(intern),
            None => intern(),
        }
    }

    /// Each bucket's `(effective bandwidth, latency)`.
    pub(crate) fn prices(&self) -> &[(f64, f64)] {
        &self.prices
    }
}

/// Exact traffic between one device and its links of one price: the
/// tokens, and the messages (routing entries) that carry them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Traffic {
    pub(crate) tokens: u64,
    pub(crate) messages: u64,
}

/// Eq. 2's exact inputs: per device and [`LinkPrices`] bucket, the
/// tokens and messages it sends and receives, plus per device its
/// compute load. Integer sums are exact, so they do not depend on the
/// order traffic is counted in, and they can be kept current by
/// subtract-and-add. [`Self::eq2`] turns them into seconds.
#[derive(Debug, Clone, Default)]
pub(crate) struct Eq2Sums {
    devices: usize,
    /// Bucket-major: `send[b * devices + d]` is what device `d` sends
    /// over bucket `b`'s links; grown a bucket at a time on first use.
    send: Vec<Traffic>,
    recv: Vec<Traffic>,
    loads: Vec<u64>,
}

impl Eq2Sums {
    /// Zeroes the sums for `devices` devices, keeping the buffers.
    pub(crate) fn reset(&mut self, devices: usize) {
        self.devices = devices;
        self.send.clear();
        self.recv.clear();
        self.loads.clear();
        self.loads.resize(devices, 0);
    }

    #[inline]
    fn slot(&mut self, bucket: usize, device: DeviceId) -> usize {
        let n = self.devices;
        if self.send.len() < (bucket + 1) * n {
            self.send.resize((bucket + 1) * n, Traffic::default());
            self.recv.resize((bucket + 1) * n, Traffic::default());
        }
        bucket * n + device.index()
    }

    /// Adds `tokens` to `dst`'s compute load.
    #[inline]
    pub(crate) fn load(&mut self, dst: DeviceId, tokens: u64) {
        self.loads[dst.index()] += tokens;
    }

    /// Adds `t` to what `src` sends over `bucket`'s links.
    #[inline]
    pub(crate) fn send(&mut self, src: DeviceId, bucket: usize, t: Traffic) {
        let s = self.slot(bucket, src);
        self.send[s].tokens += t.tokens;
        self.send[s].messages += t.messages;
    }

    /// Adds `t` to what `dst` receives over `bucket`'s links.
    #[inline]
    pub(crate) fn recv(&mut self, dst: DeviceId, bucket: usize, t: Traffic) {
        let s = self.slot(bucket, dst);
        self.recv[s].tokens += t.tokens;
        self.recv[s].messages += t.messages;
    }

    /// Counts one routing entry of `tokens` from `src` to `dst` into
    /// `dst`'s compute load and, unless it is local, as one message over
    /// `bucket`'s link into both ends' traffic.
    #[inline]
    pub(crate) fn add_entry(&mut self, src: DeviceId, dst: DeviceId, tokens: u64, bucket: usize) {
        self.load(dst, tokens);
        if src != dst {
            let t = Traffic {
                tokens,
                messages: 1,
            };
            self.send(src, bucket, t);
            self.recv(dst, bucket, t);
        }
    }

    /// Takes back one entry counted by [`Self::add_entry`].
    pub(crate) fn remove_entry(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        tokens: u64,
        bucket: usize,
    ) {
        self.loads[dst.index()] -= tokens;
        if src != dst {
            let (s, r) = (self.slot(bucket, src), self.slot(bucket, dst));
            self.send[s].tokens -= tokens;
            self.send[s].messages -= 1;
            self.recv[r].tokens -= tokens;
            self.recv[r].messages -= 1;
        }
    }

    /// Eq. 2 from the sums, with `prices` the [`LinkPrices`] they were
    /// counted against: `T_comm` is four A2A passes of the straggler's
    /// `max(send, recv)`, where a device's `send` adds
    /// `tokens · (V_comm / bw) + messages · latency` (latency only when
    /// the model charges it) over its buckets in ascending price order
    /// — highest bandwidth first, then lowest latency — and `recv`
    /// likewise; `T_comp` is the straggler's forward time
    /// `max_load · V_comp / B_comp` times `(3 + F_ckpt)`. The one
    /// conversion every evaluator shares: equal sums give equal bits,
    /// whatever order the traffic was counted in.
    ///
    /// Non-decreasing in every sum, in floating point too: each term is
    /// a non-negative product added to a non-negative running sum (a
    /// bucket not yet used adds zero), and the stragglers are `max`es.
    /// So the sums of part of a routing price it no higher than the
    /// whole — the tuner's fan-in bound — and so do the sums of stand-in
    /// devices each dominated by some real device's sums — its
    /// layout-free witness.
    pub(crate) fn eq2(&self, prices: &[(f64, f64)], params: &CostParams) -> CostBreakdown {
        let n = self.devices;
        let mut order: Vec<usize> = (0..self.send.len().checked_div(n).unwrap_or(0)).collect();
        order.sort_by(|&a, &b| {
            let ((bw_a, lat_a), (bw_b, lat_b)) = (prices[a], prices[b]);
            bw_b.total_cmp(&bw_a).then(lat_a.total_cmp(&lat_b))
        });
        // Per bucket in that order: its offset, seconds per token and
        // seconds per message.
        let rates: Vec<(usize, f64, f64)> = order
            .iter()
            .map(|&b| {
                let (bw, lat) = prices[b];
                (b * n, params.v_comm / bw, lat)
            })
            .collect();
        let seconds = |sum: f64, t: Traffic, per_token: f64, per_message: f64| {
            let s = sum + t.tokens as f64 * per_token;
            if params.latency_aware {
                s + t.messages as f64 * per_message
            } else {
                s
            }
        };
        let mut straggler = 0.0f64;
        for d in 0..n {
            let (mut send, mut recv) = (0.0, 0.0);
            for &(at, per_token, per_message) in &rates {
                send = seconds(send, self.send[at + d], per_token, per_message);
                recv = seconds(recv, self.recv[at + d], per_token, per_message);
            }
            straggler = straggler.max(send.max(recv));
        }
        let max_load = self.loads.iter().copied().max().unwrap_or(0);
        CostBreakdown {
            comm: 4.0 * straggler,
            comp: params.compute_time(max_load),
        }
    }
}

/// Evaluates the objective `T = T_comm + T_comp` for a routing strategy.
/// The result depends only on the multiset of entries, not their order.
pub fn time_cost<I: Interconnect + ?Sized>(
    net: &I,
    routing: &TokenRouting,
    params: &CostParams,
) -> CostBreakdown {
    let mut prices = LinkPrices::new(net);
    let mut sums = Eq2Sums::default();
    sums.reset(net.num_devices());
    for &(src, _, dst, tokens) in routing.entries() {
        if src == dst {
            sums.load(dst, tokens);
        } else {
            sums.add_entry(src, dst, tokens, prices.bucket(src, dst));
        }
    }
    sums.eq2(prices.prices(), params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_cluster::{DegradedView, DeviceId, ExpertId, Topology};

    /// A degraded view raises `T_comm` for routings over the weak link.
    #[test]
    fn degraded_link_raises_comm_cost() {
        let topo = Topology::paper_cluster();
        let mut view = DegradedView::new(topo.clone());
        view.degrade_link(DeviceId::new(0), DeviceId::new(9), 0.5);
        let mut s = TokenRouting::new(32, 8);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(9), 1000);
        let nominal = time_cost(&topo, &s, &params());
        let degraded = time_cost(&view, &s, &params());
        assert!((degraded.comm / nominal.comm - 2.0).abs() < 1e-9);
        assert_eq!(degraded.comp, nominal.comp);
    }

    fn params() -> CostParams {
        CostParams::mixtral_8x7b()
    }

    #[test]
    fn local_routing_has_zero_comm() {
        let topo = Topology::single_node(2).unwrap();
        let mut s = TokenRouting::new(2, 2);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 100);
        let c = time_cost(&topo, &s, &params());
        assert_eq!(c.comm, 0.0);
        assert!(c.comp > 0.0);
    }

    #[test]
    fn remote_routing_pays_comm() {
        let topo = Topology::paper_cluster();
        let mut s = TokenRouting::new(32, 8);
        s.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(9), 1000);
        let c = time_cost(&topo, &s, &params());
        assert!(c.comm > 0.0);
    }

    #[test]
    fn inter_node_comm_costs_more() {
        let topo = Topology::paper_cluster();
        let mut intra = TokenRouting::new(32, 8);
        intra.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(1), 1000);
        let mut inter = TokenRouting::new(32, 8);
        inter.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(9), 1000);
        let ci = time_cost(&topo, &intra, &params());
        let cx = time_cost(&topo, &inter, &params());
        assert!(cx.comm > ci.comm * 5.0);
    }

    #[test]
    fn comp_uses_straggler() {
        let topo = Topology::single_node(2).unwrap();
        let mut even = TokenRouting::new(2, 2);
        even.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 500);
        even.push(DeviceId::new(1), ExpertId::new(1), DeviceId::new(1), 500);
        let mut skew = TokenRouting::new(2, 2);
        skew.push(DeviceId::new(0), ExpertId::new(0), DeviceId::new(0), 900);
        skew.push(DeviceId::new(1), ExpertId::new(1), DeviceId::new(1), 100);
        let p = params();
        let ce = time_cost(&topo, &even, &p);
        let cs = time_cost(&topo, &skew, &p);
        assert!((cs.comp / ce.comp - 900.0 / 500.0).abs() < 1e-9);
    }

    #[test]
    fn checkpointing_multiplier() {
        let mut p = params();
        assert_eq!(p.compute_multiplier(), 3.0);
        p.checkpointing = true;
        assert_eq!(p.compute_multiplier(), 4.0);
    }

    #[test]
    fn breakdown_total() {
        let b = CostBreakdown {
            comm: 1.5,
            comp: 2.5,
        };
        assert_eq!(b.total(), 4.0);
    }

    /// One chunk is the identity — bit-identical, mirroring the
    /// executor's `num_chunks = 1` invariant.
    #[test]
    fn pipelined_single_chunk_is_identity() {
        let b = CostBreakdown {
            comm: 0.37,
            comp: 0.21,
        };
        for c in [0usize, 1] {
            let p = b.pipelined(c);
            assert_eq!(p.comm.to_bits(), b.comm.to_bits());
            assert_eq!(p.comp.to_bits(), b.comp.to_bits());
        }
    }

    /// Exposed communication is monotonically non-increasing in the
    /// chunk count and bounded below by the first chunk's A2A.
    #[test]
    fn pipelined_comm_monotone_and_floored() {
        let b = CostBreakdown {
            comm: 0.4,
            comp: 0.3,
        };
        let mut prev = b.pipelined(1).comm;
        for c in [2usize, 3, 4, 8, 16, 64] {
            let p = b.pipelined(c);
            assert!(p.comm <= prev + 1e-15, "chunks {c}: {} > {prev}", p.comm);
            assert!(p.comm >= b.comm / c as f64 - 1e-15);
            assert_eq!(p.comp, b.comp, "chunking must not change T_comp");
            prev = p.comm;
        }
    }

    /// Compute-bound layers hide everything but the first chunk; comm-
    /// bound layers keep the residue exposed.
    #[test]
    fn pipelined_limits() {
        // Compute-rich: comp >> comm, so exposed comm collapses to
        // comm / C exactly.
        let rich = CostBreakdown {
            comm: 0.1,
            comp: 1.0,
        };
        let p = rich.pipelined(4);
        assert!((p.comm - 0.1 / 4.0).abs() < 1e-15);
        // Comm-bound: comp = 0, chunking cannot hide anything.
        let bound = CostBreakdown {
            comm: 0.8,
            comp: 0.0,
        };
        let q = bound.pipelined(8);
        assert!((q.comm - 0.8).abs() < 1e-15);
    }
}
