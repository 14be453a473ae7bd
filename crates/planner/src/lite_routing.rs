//! The lite routing algorithm — Alg. 3 of the paper (Appendix B).
//!
//! The token dispatcher must pick a replica for every token *fast* and
//! without global coordination: it uses only the (globally known) expert
//! layout and the device's own routing demand. For each expert, tokens
//! are spread evenly over the replicas inside the sender's node when any
//! exist, and evenly over all replicas otherwise — minimising inter-node
//! transfers, the paper's consideration (1).
//!
//! A cell's target list depends only on the sender's node and the
//! expert, so one routing core (`Router`) works node by node: it
//! resolves each `(node, expert)` target list once, from per-expert
//! replica lists built once per layout (`ReplicaIndex`), and then
//! splits every sender's cell against it. A cell with one target, or
//! with equal replica counts, is split in closed form; the others take
//! a select-nth of the largest remainders instead of a full sort. Three
//! callers share the core: [`lite_route`] materialises the entries, the
//! tuner prices them as they are emitted (`crate::tuner`), and the delta
//! evaluator re-routes the stale nodes of one expert's column
//! (`crate::delta`). The two pricing callers get each target's link
//! price once per node when the network prices links by kind. All
//! three emit Alg. 3's entries in one order — sources ascending,
//! experts ascending, targets by device id — which is what keeps their
//! costs bit-identical.

use crate::cost::effective_bw;
use crate::layout::ExpertLayout;
use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, ExpertId, Interconnect, LinkKind, NodeId, Topology};
use laer_routing::RoutingMatrix;
use std::ops::Range;

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
    let index = ReplicaIndex::from_layout(layout);
    index.assert_shapes(topo, demand);
    let mut router = Router::default();
    let mut out = TokenRouting::new(demand.num_devices(), demand.num_experts());
    for node in topo.node_ids() {
        router.resolve::<Topology>(topo, &index, node, 0..index.num_experts(), None);
        for src in topo.devices_on(node) {
            for (j, &tokens) in demand.row(src).iter().enumerate() {
                if tokens > 0 {
                    let expert = ExpertId::new(j);
                    router.split(src, expert, tokens, j, |dst, count, _| {
                        out.push(src, expert, dst, count);
                    });
                }
            }
        }
    }
    out
}

/// A layout's replica placement as Alg. 3 reads it: row-major
/// `devices × experts` counts, plus each expert's `(device, count)`
/// list in ascending device id — the output of
/// [`ExpertLayout::replica_devices`], kept so a global fallback reads
/// its targets without a device scan. Mutable, so the delta evaluator
/// keeps one current through its moves.
#[derive(Debug, Clone)]
pub(crate) struct ReplicaIndex {
    devices: usize,
    experts: usize,
    capacity: usize,
    counts: Vec<u32>,
    lists: Vec<Vec<(DeviceId, u32)>>,
    totals: Vec<usize>,
}

impl ReplicaIndex {
    pub(crate) fn from_layout(layout: &ExpertLayout) -> Self {
        let devices = layout.num_devices();
        let experts = layout.num_experts();
        let counts = layout.replica_counts().to_vec();
        let mut lists = vec![Vec::new(); experts];
        let mut totals = vec![0usize; experts];
        for (d, row) in counts.chunks_exact(experts).enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if c > 0 {
                    lists[j].push((DeviceId::new(d), c));
                    totals[j] += c as usize;
                }
            }
        }
        Self {
            devices,
            experts,
            capacity: layout.capacity(),
            counts,
            lists,
            totals,
        }
    }

    /// Asserts that `topo`, `demand` and this index describe one shape.
    pub(crate) fn assert_shapes(&self, topo: &Topology, demand: &RoutingMatrix) {
        assert_eq!(demand.num_devices(), topo.num_devices(), "device count");
        assert_eq!(self.devices, topo.num_devices(), "layout devices");
        assert_eq!(self.experts, demand.num_experts(), "expert count");
    }

    pub(crate) fn num_devices(&self) -> usize {
        self.devices
    }

    pub(crate) fn num_experts(&self) -> usize {
        self.experts
    }

    pub(crate) fn replica_count(&self, device: DeviceId, expert: ExpertId) -> u32 {
        self.counts[device.index() * self.experts + expert.index()]
    }

    /// `expert`'s `(device, count)` list, ascending device id.
    pub(crate) fn replicas(&self, expert: ExpertId) -> &[(DeviceId, u32)] {
        &self.lists[expert.index()]
    }

    /// Total replicas of `expert`.
    pub(crate) fn expert_replicas(&self, expert: ExpertId) -> usize {
        self.totals[expert.index()]
    }

    pub(crate) fn all_experts_covered(&self) -> bool {
        self.totals.iter().all(|&t| t > 0)
    }

    pub(crate) fn add_replica(&mut self, device: DeviceId, expert: ExpertId) {
        self.counts[device.index() * self.experts + expert.index()] += 1;
        self.totals[expert.index()] += 1;
        let list = &mut self.lists[expert.index()];
        match list.binary_search_by(|&(d, _)| d.cmp(&device)) {
            Ok(pos) => list[pos].1 += 1,
            Err(pos) => list.insert(pos, (device, 1)),
        }
    }

    pub(crate) fn remove_replica(&mut self, device: DeviceId, expert: ExpertId) {
        let cell = device.index() * self.experts + expert.index();
        assert!(self.counts[cell] > 0, "removing absent replica");
        self.counts[cell] -= 1;
        self.totals[expert.index()] -= 1;
        let list = &mut self.lists[expert.index()];
        let pos = list
            .binary_search_by(|&(d, _)| d.cmp(&device))
            .unwrap_or_else(|_| unreachable!("count was positive"));
        if list[pos].1 == 1 {
            list.remove(pos);
        } else {
            list[pos].1 -= 1;
        }
    }

    pub(crate) fn to_layout(&self) -> ExpertLayout {
        ExpertLayout::from_counts(
            self.devices,
            self.experts,
            self.capacity,
            self.counts.clone(),
        )
        .unwrap_or_else(|_| unreachable!("index shape came from a constructed layout"))
    }
}

/// The routing core's reusable buffers: one node's resolved target
/// lists (and their link prices), plus the largest-remainder working
/// set. Buffers grow to the largest node seen and stay allocated.
#[derive(Debug, Default)]
pub(crate) struct Router {
    /// Resolved targets, flat; `lists[k]` spans the `k`-th resolved
    /// expert's.
    targets: Vec<(DeviceId, u32)>,
    lists: Vec<TargetList>,
    /// Per target, when priced per node: `(effective bandwidth,
    /// latency)` from the node's other senders.
    links: Vec<(f64, f64)>,
    shares: Vec<(u64, f64)>,
    order: Vec<usize>,
}

/// The link prices of a network that [prices links by
/// kind](Interconnect::prices_by_kind): one `(effective bandwidth,
/// latency)` per [`LinkKind`], each resolved on first use.
#[derive(Debug)]
pub(crate) struct KindPrices<'a, I: ?Sized> {
    net: &'a I,
    by_kind: [Option<(f64, f64)>; 4],
}

impl<'a, I: Interconnect + ?Sized> KindPrices<'a, I> {
    /// `None` unless `net` prices links by kind.
    pub(crate) fn of(net: &'a I) -> Option<Self> {
        net.prices_by_kind().then_some(Self {
            net,
            by_kind: [None; 4],
        })
    }

    fn get(&mut self, src: DeviceId, dst: DeviceId) -> (f64, f64) {
        let net = self.net;
        let slot = match net.link_kind(src, dst) {
            LinkKind::Local => 0,
            LinkKind::IntraNode => 1,
            LinkKind::InterNode => 2,
            LinkKind::InterRack => 3,
        };
        *self.by_kind[slot]
            .get_or_insert_with(|| (effective_bw(net, src, dst), net.latency(src, dst)))
    }
}

/// One resolved target list: its span of [`Router`]'s targets, their
/// replica total, and whether every target holds the same count.
#[derive(Debug, Clone, Copy)]
struct TargetList {
    start: usize,
    end: usize,
    total: u64,
    equal: bool,
}

impl Router {
    /// Alg. 3 lines 4-9 for senders on `node`: resolves the target list
    /// of every expert in `experts` — its replicas on `node` (line 6),
    /// or all of its replicas when the node holds none (line 9) — in
    /// ascending device id. With `prices`, each target also gets the
    /// link price every other sender on the node reaches it over, which
    /// [`Self::split`] hands out with its entries.
    pub(crate) fn resolve<I: Interconnect + ?Sized>(
        &mut self,
        topo: &Topology,
        index: &ReplicaIndex,
        node: NodeId,
        experts: Range<usize>,
        prices: Option<&mut KindPrices<'_, I>>,
    ) {
        self.targets.clear();
        self.lists.clear();
        for j in experts {
            let start = self.targets.len();
            for dev in topo.devices_on(node) {
                let c = index.replica_count(dev, ExpertId::new(j));
                if c > 0 {
                    self.targets.push((dev, c));
                }
            }
            if self.targets.len() == start {
                self.targets.extend_from_slice(&index.lists[j]);
            }
            let list = &self.targets[start..];
            self.lists.push(TargetList {
                start,
                end: self.targets.len(),
                total: list.iter().map(|&(_, c)| u64::from(c)).sum(),
                equal: list.iter().all(|&(_, c)| c == list[0].1),
            });
        }
        self.links.clear();
        if let Some(prices) = prices {
            self.links.extend(self.targets.iter().map(|&(dst, _)| {
                // Local traffic is free; every other sender on the node
                // reaches `dst` over one kind of link.
                topo.devices_on(node)
                    .find(|&src| src != dst)
                    .map_or((f64::INFINITY, 0.0), |src| prices.get(src, dst))
            }));
        }
    }

    /// Splits `src`'s `tokens` for `expert` over the `k`-th resolved
    /// target list, calling `emit(dst, count, link)` per entry.
    ///
    /// The split is proportional to replica counts ("evenly distributed
    /// among all replicas") with deterministic largest-remainder
    /// rounding: remainders descending, ties to the sender itself, then
    /// to lower device ids, which keeps traffic local when possible.
    /// Entries come in target order and skip zero-token shares.
    ///
    /// # Panics
    ///
    /// Panics if the list is empty (the layout hosts no replica of
    /// `expert`).
    pub(crate) fn split(
        &mut self,
        src: DeviceId,
        expert: ExpertId,
        tokens: u64,
        k: usize,
        mut emit: impl FnMut(DeviceId, u64, Option<(f64, f64)>),
    ) {
        let TargetList {
            start,
            end,
            total,
            equal,
        } = self.lists[k];
        let targets = &self.targets[start..end];
        let links = self.links.get(start..end);
        let mut out = |i: usize, count: u64| {
            if count > 0 {
                emit(targets[i].0, count, links.map(|l| l[i]));
            }
        };
        assert!(
            !targets.is_empty(),
            "layout hosts no replica of {expert}; validate layouts before routing"
        );
        let m = targets.len();
        if m == 1 {
            // The one share is the whole cell: its remainder, if any,
            // rounds back onto the same target.
            out(0, tokens);
            return;
        }
        if equal {
            // Equal counts: every target has the same share, floor and
            // remainder, so the remainder order is the sender first, then
            // ascending device id — the targets' own order.
            let exact = tokens as f64 * targets[0].1 as f64 / total as f64;
            let floor = exact.floor() as u64;
            let left = tokens - floor * m as u64;
            let (base, extra) = (left / m as u64, (left % m as u64) as usize);
            let sender = targets.iter().position(|&(d, _)| d == src);
            for i in 0..m {
                let rank = match sender {
                    Some(s) if i == s => 0,
                    Some(s) if i < s => i + 1,
                    _ => i,
                };
                out(i, floor + base + u64::from(rank < extra));
            }
            return;
        }
        let shares = &mut self.shares;
        shares.clear();
        let mut assigned = 0u64;
        for &(_, count) in targets {
            let exact = tokens as f64 * count as f64 / total as f64;
            let floor = exact.floor() as u64;
            assigned += floor;
            shares.push((floor, exact - floor as f64));
        }
        let left = tokens - assigned;
        let (base, extra) = (left / m as u64, (left % m as u64) as usize);
        if extra > 0 {
            // The `extra` largest remainders each take one more token.
            let order = &mut self.order;
            order.clear();
            order.extend(0..m);
            let rank = |&a: &usize, &b: &usize| {
                let (da, db) = (targets[a].0, targets[b].0);
                shares[b]
                    .1
                    .total_cmp(&shares[a].1)
                    .then_with(|| (db == src).cmp(&(da == src)))
                    .then(da.cmp(&db))
            };
            order.select_nth_unstable_by(extra - 1, rank);
            for &i in &order[..extra] {
                shares[i].0 += 1;
            }
        }
        for (i, &(floor, _)) in shares.iter().enumerate() {
            out(i, floor + base);
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

    /// A router reused across layouts and demands (as the tuner reuses
    /// one across candidates) reproduces a fresh `lite_route` entry for
    /// entry.
    #[test]
    fn scratch_reuse_is_bit_identical() {
        let topo = Topology::new(2, 4).unwrap();
        let mut gen = laer_routing::RoutingGenerator::new(
            laer_routing::RoutingGeneratorConfig::new(8, 8, 4096).with_seed(9),
        );
        let mut router = Router::default();
        for capacity in [2usize, 4, 2, 1] {
            let r = gen.next_iteration();
            let l = ExpertLayout::classic_ep(8, 8, capacity).unwrap();
            let fresh = lite_route(&topo, &r, &l);
            let mut reused = TokenRouting::new(8, 8);
            let index = ReplicaIndex::from_layout(&l);
            for node in topo.node_ids() {
                let mut prices = KindPrices::of(&topo);
                router.resolve(&topo, &index, node, 0..8, prices.as_mut());
                for src in topo.devices_on(node) {
                    for (j, &tokens) in r.row(src).iter().enumerate() {
                        if tokens > 0 {
                            let expert = ExpertId::new(j);
                            router.split(src, expert, tokens, j, |dst, n, link| {
                                assert!(link.is_some(), "a topology is priced per node");
                                reused.push(src, expert, dst, n);
                            });
                        }
                    }
                }
            }
            assert_eq!(fresh.entries(), reused.entries());
        }
    }
}
