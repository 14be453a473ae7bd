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
//! with equal replica counts, is split in closed form, in integers
//! (`tokens / m` and `tokens % m`); the others take a select-nth of the
//! largest remainders instead of a full sort. Three callers share the
//! core: [`lite_route`] materialises the entries, the tuner prices
//! candidates without materialising them (`Pricer`), and the delta
//! evaluator re-routes the stale nodes of one expert's column
//! (`crate::delta`). The two pricing callers count into Eq. 2's integer
//! sums (`crate::cost::Eq2Sums`), which do not depend on the order
//! entries are counted in, and get each target's link-price bucket once
//! per node when the network prices links by kind.
//!
//! On such a network the tuner also counts a node's *own* lists — its
//! replicas of an expert — a column at a time: every sender on the node
//! reaches every other device of the node over one link kind, so each
//! sender's share of the column is one send update, and each target's
//! receive sums and load are added once for the whole column.
//!
//! Order-free sums let the tuner skip the entries of a *fallback* list —
//! the expert's whole replica list, used when the senders' node holds
//! none of it. Every such node splits over the same list, none of it on
//! the node, and on a network that prices links by kind every node of
//! one rack reaches each target at one price. With equal replica counts
//! sender `s` gives target `i` the share `F_s + [i < x_s]`, so the
//! receive sums of all those splits follow from `Σ F_s` and a histogram
//! of the remainders `x_s` (`Spreads`): `O(senders + targets)` per
//! expert and rack instead of `O(senders × targets)` per node.
//!
//! `Pricer` counts those receive sums before anything else: which nodes
//! fall back needs only which nodes hold each expert, and an expert
//! with one or two replicas takes the fan-in of every other node. The
//! tuner prices the partial sums and stops a candidate whose fan-in
//! alone costs what the best candidate so far does.

use crate::cost::{Eq2Sums, LinkPrices, Traffic};
use crate::layout::ExpertLayout;
use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, ExpertId, Interconnect, NodeId, Topology};
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
        router.resolve(topo, &index, node, 0..index.num_experts(), &[]);
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
#[derive(Debug, Clone, Default)]
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
        let mut index = Self::default();
        index.assign(layout);
        index
    }

    /// Makes this the index of `layout`, keeping its buffers.
    pub(crate) fn assign(&mut self, layout: &ExpertLayout) {
        let experts = layout.num_experts();
        self.devices = layout.num_devices();
        self.experts = experts;
        self.capacity = layout.capacity();
        self.counts.clear();
        self.counts.extend_from_slice(layout.replica_counts());
        self.lists.resize_with(experts, Vec::new);
        self.lists.iter_mut().for_each(Vec::clear);
        self.totals.clear();
        self.totals.resize(experts, 0);
        for (d, row) in self.counts.chunks_exact(experts).enumerate() {
            for (j, &c) in row.iter().enumerate() {
                if c > 0 {
                    self.lists[j].push((DeviceId::new(d), c));
                    self.totals[j] += c as usize;
                }
            }
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
/// lists (and their link-price buckets), plus the largest-remainder
/// working set and a column's per-target sums. Buffers grow to the
/// largest node seen and stay allocated.
#[derive(Debug, Default)]
pub(crate) struct Router {
    /// Resolved targets, flat; `lists[k]` spans the `k`-th resolved
    /// expert's.
    targets: Vec<(DeviceId, u32)>,
    lists: Vec<TargetList>,
    /// Per target, once [attached](Self::attach_buckets): the
    /// [`LinkPrices`] bucket the node's other senders reach it over.
    buckets: Vec<usize>,
    remainders: Remainders,
    /// [`Self::count_column`]'s per-target load and receive sums.
    column: Vec<(u64, Traffic)>,
}

/// One resolved target list: its span of [`Router`]'s targets, their
/// replica total, whether every target holds the same count, whether
/// its targets are the senders' own node's replicas, and whether it was
/// left unresolved for the caller to spread.
#[derive(Debug, Clone, Copy)]
struct TargetList {
    start: usize,
    end: usize,
    total: u64,
    equal: bool,
    local: bool,
    spread: bool,
}

/// The largest-remainder working set of an unequal split: per target
/// its `(floor share, remainder)`, and the targets' rank keys.
#[derive(Debug, Default)]
struct Remainders {
    shares: Vec<(u64, f64)>,
    order: Vec<(u64, bool, DeviceId, usize)>,
}

/// The closed-form split of `tokens` over `m` targets that each hold
/// the same replica count: every target gets the floor share
/// `F = tokens / m`, and the first `x = tokens % m` in remainder order
/// one more. Returns `(F, x)`.
///
/// This is the proportional split [`split_list`] gives unequal lists,
/// `⌊tokens · count / (m · count)⌋` in `f64`, for as long as
/// `tokens · count ≤ 2^52`: the product is then exact, and the
/// quotient's rounding error (at most `tokens / m · 2^-53 ≤ 1 / 2m`)
/// cannot carry it to the next integer, which lies at least `1 / m`
/// above a quotient that is not one, so the float floor is `F` and the
/// tokens it leaves are `x`. Past that bound this split stays exact and
/// the float one may not.
#[inline]
fn equal_shares(tokens: u64, m: usize) -> (u64, usize) {
    let m = m as u64;
    (tokens / m, (tokens % m) as usize)
}

/// Alg. 3's split of `src`'s `tokens` over one resolved `list` with
/// targets `targets`, calling `emit(i, share)` for every target
/// position `i` in target order, zero shares included.
///
/// The split is proportional to replica counts ("evenly distributed
/// among all replicas") with deterministic largest-remainder rounding:
/// remainders descending, ties to the sender itself, then to lower
/// device ids, which keeps traffic local when possible.
fn split_list(
    list: &TargetList,
    targets: &[(DeviceId, u32)],
    src: DeviceId,
    tokens: u64,
    remainders: &mut Remainders,
    mut emit: impl FnMut(usize, u64),
) {
    let m = targets.len();
    if m == 1 {
        // The one share is the whole cell: its remainder, if any,
        // rounds back onto the same target.
        emit(0, tokens);
        return;
    }
    if list.equal {
        // Equal counts: every target has the same share, floor and
        // remainder, so the remainder order is the sender first, then
        // ascending device id — the targets' own order. A fallback list
        // lies off the sender's node.
        let (floor, extra) = equal_shares(tokens, m);
        let sender = if list.local {
            targets.iter().position(|&(d, _)| d == src)
        } else {
            None
        };
        for i in 0..m {
            let rank = match sender {
                Some(s) if i == s => 0,
                Some(s) if i < s => i + 1,
                _ => i,
            };
            emit(i, floor + u64::from(rank < extra));
        }
        return;
    }
    let Remainders { shares, order } = remainders;
    shares.clear();
    let mut assigned = 0u64;
    for &(_, count) in targets {
        let exact = tokens as f64 * count as f64 / list.total as f64;
        let floor = exact.floor() as u64;
        assigned += floor;
        shares.push((floor, exact - floor as f64));
    }
    let left = tokens - assigned;
    let (base, extra) = (left / m as u64, (left % m as u64) as usize);
    if extra > 0 {
        // The `extra` largest remainders each take one more token. A
        // remainder is a non-negative float, whose bits order as its
        // value, so each target's rank is one key: remainder descending,
        // then the sender, then ascending device id.
        order.clear();
        order.extend(
            targets
                .iter()
                .zip(shares.iter())
                .enumerate()
                .map(|(i, (&(d, _), &(_, rem)))| (u64::MAX - rem.to_bits(), d != src, d, i)),
        );
        order.select_nth_unstable(extra - 1);
        for &(.., i) in &order[..extra] {
            shares[i].0 += 1;
        }
    }
    for (i, &(floor, _)) in shares.iter().enumerate() {
        emit(i, floor + base);
    }
}

impl Router {
    /// Alg. 3 lines 4-9 for senders on `node`: resolves the target list
    /// of every expert in `experts` — its replicas on `node` (line 6),
    /// or all of its replicas when the node holds none (line 9) — in
    /// ascending device id. The fallback list of an expert `j` with
    /// `spreadable[j]` set is left unresolved: the caller spreads it.
    pub(crate) fn resolve(
        &mut self,
        topo: &Topology,
        index: &ReplicaIndex,
        node: NodeId,
        experts: Range<usize>,
        spreadable: &[bool],
    ) {
        self.targets.clear();
        self.lists.clear();
        self.buckets.clear();
        for j in experts {
            let start = self.targets.len();
            for dev in topo.devices_on(node) {
                let c = index.replica_count(dev, ExpertId::new(j));
                if c > 0 {
                    self.targets.push((dev, c));
                }
            }
            let local = self.targets.len() > start;
            let spread = !local && spreadable.get(j) == Some(&true);
            if !local && !spread {
                self.targets.extend_from_slice(&index.lists[j]);
            }
            let list = &self.targets[start..];
            self.lists.push(TargetList {
                start,
                end: self.targets.len(),
                total: list.iter().map(|&(_, c)| u64::from(c)).sum(),
                equal: list.iter().all(|&(_, c)| c == list[0].1),
                local,
                spread,
            });
        }
    }

    /// When `prices` prices links by kind, gives every resolved target
    /// the bucket each other sender on `node` reaches it over, which
    /// [`Self::split`] then hands out with its entries.
    pub(crate) fn attach_buckets<I: Interconnect + ?Sized>(
        &mut self,
        topo: &Topology,
        node: NodeId,
        prices: &mut LinkPrices<'_, I>,
    ) {
        if prices.by_kind() {
            self.buckets.extend(self.targets.iter().map(|&(dst, _)| {
                // Local traffic is free; every other sender on the node
                // reaches `dst` over one kind of link. A node's only
                // device reaches its own replicas locally, so that
                // bucket is never read.
                topo.devices_on(node)
                    .find(|&src| src != dst)
                    .map_or(usize::MAX, |src| prices.bucket(src, dst))
            }));
        }
    }

    /// Splits `src`'s `tokens` for `expert` over the `k`-th resolved
    /// target list ([`split_list`]), calling `emit(dst, count, bucket)`
    /// per entry, with the target's link-price bucket when the list was
    /// priced per node. Entries come in target order and skip
    /// zero-token shares.
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
        mut emit: impl FnMut(DeviceId, u64, Option<usize>),
    ) {
        let list = self.lists[k];
        let targets = &self.targets[list.start..list.end];
        let buckets = self.buckets.get(list.start..list.end);
        assert!(
            !targets.is_empty(),
            "layout hosts no replica of {expert}; validate layouts before routing"
        );
        split_list(
            &list,
            targets,
            src,
            tokens,
            &mut self.remainders,
            |i, count| {
                if count > 0 {
                    emit(targets[i].0, count, buckets.map(|b| b[i]));
                }
            },
        );
    }

    /// Counts into `sums` what [`Self::split`] would emit for each of
    /// `cells`, the senders of one node, over the `k`-th resolved list —
    /// one the node holds itself, with buckets
    /// [attached](Self::attach_buckets). Every sender reaches every
    /// other device of its node over one bucket, so each sender's sends
    /// are one update, and each target's receive sums and load are added
    /// once for the whole column.
    pub(crate) fn count_column(
        &mut self,
        k: usize,
        cells: impl Iterator<Item = (DeviceId, u64)>,
        sums: &mut Eq2Sums,
    ) {
        let list = self.lists[k];
        debug_assert!(list.local, "a column's targets are its senders' node's");
        let targets = &self.targets[list.start..list.end];
        // A node's only device is its own only target, so its bucket is
        // never read.
        let bucket = self.buckets[list.start];
        let column = &mut self.column;
        column.clear();
        column.resize(targets.len(), (0, Traffic::default()));
        for (src, tokens) in cells {
            let mut sent = Traffic::default();
            split_list(
                &list,
                targets,
                src,
                tokens,
                &mut self.remainders,
                |i, share| {
                    if share == 0 {
                        return;
                    }
                    let (load, recv) = &mut column[i];
                    *load += share;
                    if targets[i].0 != src {
                        for t in [recv, &mut sent] {
                            t.tokens += share;
                            t.messages += 1;
                        }
                    }
                },
            );
            if sent.messages > 0 {
                sums.send(src, bucket, sent);
            }
        }
        for (&(dst, _), &(load, recv)) in targets.iter().zip(column.iter()) {
            sums.load(dst, load);
            if recv.messages > 0 {
                sums.recv(dst, bucket, recv);
            }
        }
    }
}

/// The tuner's candidate pricing: Alg. 3's routing of a whole layout,
/// counted straight into Eq. 2's sums and never materialised. On a
/// network that prices links by kind, a node that holds none of an
/// expert whose replicas all hold the same count is spread per view
/// ([`Spreads`]), and a node's own list of an expert is counted a
/// column at a time ([`Router::count_column`]); every other
/// `(node, expert)` list is split and counted sender by sender, as
/// [`lite_route`] splits it. The sums come out exactly as if
/// `lite_route`'s entries were counted.
#[derive(Debug, Default)]
pub(crate) struct Pricer {
    router: Router,
    spreads: Spreads,
    /// Per expert: whether a node holding none of it spreads it — the
    /// network prices links by kind and its replicas all hold the same
    /// count.
    spreadable: Vec<bool>,
    /// Per `(expert, node)`, at `expert · nodes + node`: whether the
    /// node holds a replica of the expert.
    held: Vec<bool>,
    sums: Eq2Sums,
}

impl Pricer {
    /// Counts Alg. 3's routing of `demand` under `index` into Eq. 2's
    /// sums, against `prices`, receive side of the spread fallback
    /// lists first: their receivers' loads and receive sums, which
    /// need only which nodes hold each expert. When some list was
    /// spread, `can_win` sees those partial sums with the bucket
    /// prices; if it says no, counting stops and `None` is returned.
    /// Otherwise everything else is counted once — the spread senders'
    /// sends, every node's own columns, every other list — and the
    /// sums are those of the whole routing.
    pub(crate) fn price<I: Interconnect + ?Sized>(
        &mut self,
        topo: &Topology,
        index: &ReplicaIndex,
        demand: &RoutingMatrix,
        prices: &mut LinkPrices<'_, I>,
        can_win: impl FnOnce(&Eq2Sums, &[(f64, f64)]) -> bool,
    ) -> Option<&Eq2Sums> {
        index.assert_shapes(topo, demand);
        let Self {
            router,
            spreads,
            spreadable,
            held,
            sums,
        } = self;
        let (e, nodes) = (index.num_experts(), topo.num_nodes());
        sums.reset(topo.num_devices());
        spreads.reset(topo, e);
        spreadable.clear();
        spreadable.extend(index.lists.iter().map(|list| match list.first() {
            // An expert without replicas is left to `split`,
            // which rejects it only if some sender demands it.
            Some(&(_, count)) => prices.by_kind() && list.iter().all(|&(_, c)| c == count),
            None => false,
        }));
        held.clear();
        held.resize(e * nodes, false);
        for (j, list) in index.lists.iter().enumerate() {
            for &(dev, _) in list {
                held[j * nodes + topo.node_of(dev).index()] = true;
            }
        }
        for j in (0..e).filter(|&j| spreadable[j]) {
            let expert = ExpertId::new(j);
            for node in topo
                .node_ids()
                .filter(|node| !held[j * nodes + node.index()])
            {
                let cells = topo
                    .devices_on(node)
                    .map(|src| (src, demand.get(src, expert)))
                    .filter(|&(_, tokens)| tokens > 0);
                spreads.receive(topo, index, node, expert, cells, prices);
            }
        }
        spreads.finish(index, sums);
        if spreads.any() && !can_win(sums, prices.prices()) {
            return None;
        }
        for node in topo.node_ids() {
            router.resolve(topo, index, node, 0..e, spreadable);
            router.attach_buckets(topo, node, prices);
            for j in 0..e {
                let expert = ExpertId::new(j);
                let cells = topo
                    .devices_on(node)
                    .map(|src| (src, demand.get(src, expert)))
                    .filter(|&(_, tokens)| tokens > 0);
                let list = router.lists[j];
                if list.spread {
                    spreads.send(topo, index, node, expert, cells, sums);
                    continue;
                }
                if list.local && prices.by_kind() {
                    router.count_column(j, cells, sums);
                    continue;
                }
                for (src, tokens) in cells {
                    router.split(src, expert, tokens, j, |dst, count, bucket| {
                        if dst == src {
                            sums.load(dst, count);
                        } else {
                            let b = bucket.unwrap_or_else(|| prices.bucket(src, dst));
                            sums.add_entry(src, dst, count, b);
                        }
                    });
                }
            }
        }
        Some(sums)
    }
}

/// [`Pricer`]'s fallback spreads. A node that holds no replica of an
/// expert splits its senders' cells over the expert's whole replica
/// list, none of it on the node; on a network that prices links by
/// kind, every node of one rack (one *view*) reaches each of those
/// targets over the same bucket. With equal counts, sender `s` gives
/// target `i` the share `F_s + [i < x_s]` ([`equal_shares`]), so:
///
/// * `s` sends its whole cell, in `m` messages when `F_s > 0` and `x_s`
///   otherwise — per bucket, `F_s · cnt + pre[x_s]` tokens, with `cnt`
///   the bucket's targets and `pre` their prefix count over list
///   positions;
/// * target `i` receives `Σ F_s + #{s : x_s > i}` tokens from
///   `#{s : F_s > 0 or x_s > i}` senders — `Σ F_s` and a histogram of
///   the `x_s` over every fallback sender of the view.
///
/// Each `(expert, view)` therefore costs `O(senders + targets)`, and
/// its receive sums are counted once, however many nodes fall back.
/// The two sides are counted apart — [`Self::receive`] and
/// [`Self::finish`] first, [`Self::send`] later — so that the tuner
/// can drop a candidate on its receive side alone.
#[derive(Debug, Default)]
struct Spreads {
    views: usize,
    /// Per `(expert, view)`, at `expert · views + view`: its spread's
    /// index in `spreads` once a node fell back to it.
    slots: Vec<Option<usize>>,
    spreads: Vec<Spread>,
    /// Flat per-spread buffers at each spread's offsets: every target's
    /// bucket and remainder histogram `(all senders, those with F = 0)`,
    /// the spread's distinct buckets, and per distinct bucket its prefix
    /// counts over list positions.
    buckets: Vec<usize>,
    remainders: Vec<(u64, u64)>,
    groups: Vec<usize>,
    prefix: Vec<u64>,
}

/// One `(expert, view)` spread: its offsets into [`Spreads`]' buffers
/// and its sender totals.
#[derive(Debug, Clone)]
struct Spread {
    expert: ExpertId,
    /// Offset of its targets in `buckets` and `remainders`.
    at: usize,
    /// Its distinct buckets; group `g`'s `m + 1` prefix counts start at
    /// `prefix_at + g · (m + 1)`.
    groups: Range<usize>,
    prefix_at: usize,
    /// `Σ F_s`, the senders, and those with `F_s = 0`.
    floors: u64,
    senders: u64,
    idle: u64,
}

impl Spreads {
    fn reset(&mut self, topo: &Topology, experts: usize) {
        self.views = topo
            .devices_per_rack()
            .map_or(1, |per| topo.num_devices().div_ceil(per));
        self.slots.clear();
        self.slots.resize(experts * self.views, None);
        self.spreads.clear();
        self.buckets.clear();
        self.remainders.clear();
        self.groups.clear();
        self.prefix.clear();
    }

    /// Whether some node fell back to a spread.
    fn any(&self) -> bool {
        !self.spreads.is_empty()
    }

    /// The `(expert, view)` slot of `node`'s senders, and the node's
    /// first device, which stands for the view.
    fn slot(&self, topo: &Topology, node: NodeId, expert: ExpertId) -> (usize, DeviceId) {
        let rep = topo
            .devices_on(node)
            .next()
            .unwrap_or_else(|| unreachable!("nodes hold devices"));
        let view = topo.rack_of(rep).unwrap_or(0);
        (expert.index() * self.views + view, rep)
    }

    /// Folds the `cells` of `node`'s senders, which fall back to
    /// `expert`'s equal replica list, into its spread's receive
    /// histogram.
    fn receive<I: Interconnect + ?Sized>(
        &mut self,
        topo: &Topology,
        index: &ReplicaIndex,
        node: NodeId,
        expert: ExpertId,
        cells: impl Iterator<Item = (DeviceId, u64)>,
        prices: &mut LinkPrices<'_, I>,
    ) {
        let list = index.replicas(expert);
        let m = list.len();
        let (slot, rep) = self.slot(topo, node, expert);
        let s = match self.slots[slot] {
            Some(s) => s,
            None => self.open(slot, expert, list, rep, prices),
        };
        let spread = &mut self.spreads[s];
        for (_, tokens) in cells {
            let (floor, x) = equal_shares(tokens, m);
            spread.floors += floor;
            spread.senders += 1;
            let remainder = &mut self.remainders[spread.at + x];
            remainder.0 += 1;
            if floor == 0 {
                spread.idle += 1;
                remainder.1 += 1;
            }
        }
    }

    /// Counts the sends of the same `cells` of `node`'s senders, once
    /// [received](Self::receive).
    fn send(
        &self,
        topo: &Topology,
        index: &ReplicaIndex,
        node: NodeId,
        expert: ExpertId,
        cells: impl Iterator<Item = (DeviceId, u64)>,
        sums: &mut Eq2Sums,
    ) {
        let m = index.replicas(expert).len();
        let (slot, _) = self.slot(topo, node, expert);
        let Some(s) = self.slots[slot] else {
            unreachable!("every fallback node is received first")
        };
        let spread = &self.spreads[s];
        for (src, tokens) in cells {
            let (floor, x) = equal_shares(tokens, m);
            for (g, &b) in self.groups[spread.groups.clone()].iter().enumerate() {
                let pre = &self.prefix[spread.prefix_at + g * (m + 1)..][..=m];
                let (cnt, before) = (pre[m], pre[x]);
                let t = Traffic {
                    tokens: floor * cnt + before,
                    messages: if floor > 0 { cnt } else { before },
                };
                sums.send(src, b, t);
            }
        }
    }

    /// Opens the spread of `slot` over `expert`'s `list`, as seen from
    /// `rep` — like every sender of its view, `rep` reaches each target
    /// over that target's bucket — and returns its index.
    fn open<I: Interconnect + ?Sized>(
        &mut self,
        slot: usize,
        expert: ExpertId,
        list: &[(DeviceId, u32)],
        rep: DeviceId,
        prices: &mut LinkPrices<'_, I>,
    ) -> usize {
        let (at, m) = (self.buckets.len(), list.len());
        self.buckets
            .extend(list.iter().map(|&(dst, _)| prices.bucket(rep, dst)));
        self.remainders.resize(at + m, (0, 0));
        let first = self.groups.len();
        for i in at..at + m {
            if !self.groups[first..].contains(&self.buckets[i]) {
                self.groups.push(self.buckets[i]);
            }
        }
        let prefix_at = self.prefix.len();
        for &b in &self.groups[first..] {
            let mut before = 0;
            self.prefix.push(0);
            for &bi in &self.buckets[at..at + m] {
                before += u64::from(bi == b);
                self.prefix.push(before);
            }
        }
        self.spreads.push(Spread {
            expert,
            at,
            groups: first..self.groups.len(),
            prefix_at,
            floors: 0,
            senders: 0,
            idle: 0,
        });
        self.slots[slot] = Some(self.spreads.len() - 1);
        self.spreads.len() - 1
    }

    /// Counts every spread's receive sums.
    fn finish(&self, index: &ReplicaIndex, sums: &mut Eq2Sums) {
        for spread in &self.spreads {
            // Senders whose remainder exceeds `i`, of all and of the idle.
            let (mut above, mut idle_above) = (spread.senders, spread.idle);
            let busy = spread.senders - spread.idle;
            for (i, &(dst, _)) in index.replicas(spread.expert).iter().enumerate() {
                let (all, idle) = self.remainders[spread.at + i];
                above -= all;
                idle_above -= idle;
                let t = Traffic {
                    tokens: spread.floors + above,
                    messages: busy + idle_above,
                };
                if t.tokens > 0 {
                    sums.load(dst, t.tokens);
                    sums.recv(dst, self.buckets[spread.at + i], t);
                }
            }
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
            let mut prices = LinkPrices::new(&topo);
            for node in topo.node_ids() {
                router.resolve(&topo, &index, node, 0..8, &[]);
                router.attach_buckets(&topo, node, &mut prices);
                for src in topo.devices_on(node) {
                    for (j, &tokens) in r.row(src).iter().enumerate() {
                        if tokens > 0 {
                            let expert = ExpertId::new(j);
                            router.split(src, expert, tokens, j, |dst, n, bucket| {
                                assert!(bucket.is_some(), "a topology is priced per node");
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
