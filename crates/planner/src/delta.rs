//! Incremental (delta) evaluation of the planner objective — the
//! fleet-scale hot path.
//!
//! Every probe of the local-search refiner ([`crate::refine`]) and every
//! state of the exhaustive enumerator ([`crate::exact`]) differs from its
//! predecessor by the placement of one or two experts. Rebuilding the
//! whole `lite_route` + `time_cost` pipeline per probe is `O(n·e)` cells
//! of routing work when only the affected experts' columns can change:
//! lite routing decides each `(source, expert)` cell *only* from that
//! expert's replica placement, so a move touching experts `{a, b}`
//! invalidates at most the `2n` cells of those two columns — and within
//! a column only the senders whose Alg. 3 target list changed: those on
//! the nodes where the expert's replicas moved, and those on nodes that
//! hold none of it (they route to its full replica list, which moved).
//!
//! [`IncrementalCost`] exploits this. It caches, per `(source, expert)`
//! cell, the routed rows `(destination, tokens, link-price bucket)` and
//! re-routes only the cells marked stale by
//! [`IncrementalCost::apply_retarget`] / [`IncrementalCost::apply_swap`],
//! through the routing core shared with
//! [`crate::lite_routing::lite_route`]. Eq. 2's inputs are exact integer
//! sums (`crate::cost::Eq2Sums`: per device and bucket, the tokens and
//! messages sent and received, plus compute loads), so they are kept
//! current by subtract-and-add: a re-routed cell takes its old rows out
//! and counts its new ones in. [`IncrementalCost::cost`] then converts
//! the sums with the one function [`crate::cost::time_cost`] uses, in
//! `O(devices · buckets)` — bit-identical to the from-scratch oracle by
//! construction, which the property tests in `tests/proptests.rs`
//! enforce. The expensive per-cell work (target selection, splitting)
//! happens only for stale cells.
//!
//! Rows are stored per expert as one contiguous CSR-style column
//! (`starts` offsets + a flat entry array). A node's senders have
//! consecutive ids, so its cells are one run of the column: re-routing
//! a few nodes splices their runs in place, and a column stale on many
//! nodes is rebuilt linearly, with no per-cell allocation either way.
//!
//! [`IncrementalCost::apply_retarget`] / [`IncrementalCost::apply_swap`]
//! route any stale column first, then snapshot the two affected columns
//! (a pair of flat-array clones) and the sums, so
//! [`IncrementalCost::revert`] restores both by swap-back instead of
//! re-routing and re-counting. Routing stays a pure function of the
//! layout either way; the snapshot is purely an optimisation.

use crate::cost::{CostBreakdown, CostParams, Eq2Sums, LinkPrices};
use crate::layout::ExpertLayout;
use crate::lite_routing::{ReplicaIndex, Router};
use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, ExpertId, NodeId, Topology};
use laer_routing::RoutingMatrix;
use std::ops::Range;

/// One routed row: `(destination, tokens, bucket)`, where `bucket` is
/// the link's [`LinkPrices`] bucket (unread for local traffic).
type Row = (DeviceId, u64, usize);

/// One expert's routed rows for every source device, CSR-style:
/// `entries[starts[src]..starts[src + 1]]` is source `src`'s cell in
/// lite routing's emission order. A re-route is a linear rebuild into
/// the retained buffers — no per-cell allocation — or, when only a few
/// nodes' cells changed, a splice of those nodes' runs; a snapshot is a
/// pair of flat-array clones.
#[derive(Debug, Clone, Default)]
struct Column {
    /// Prefix offsets into `entries`; length `devices + 1` once routed.
    starts: Vec<u32>,
    /// Rows, sources ascending.
    entries: Vec<Row>,
}

impl Column {
    /// Every source the column has rows for.
    fn sources(&self) -> Range<usize> {
        0..self.starts.len().saturating_sub(1)
    }

    /// Takes the rows of `sources` back out of `sums`.
    fn uncount(&self, sources: Range<usize>, sums: &mut Eq2Sums) {
        for src in sources {
            let (lo, hi) = (self.starts[src] as usize, self.starts[src + 1] as usize);
            let src = DeviceId::new(src);
            for &(dst, tokens, bucket) in &self.entries[lo..hi] {
                sums.remove_entry(src, dst, tokens, bucket);
            }
        }
    }
}

/// Which of a column's rows may no longer match the layout.
#[derive(Debug, Clone)]
enum Stale {
    /// Every row matches.
    Fresh,
    /// The expert's replicas changed on these nodes (unsorted, may
    /// repeat).
    Nodes(Vec<usize>),
    /// Nothing is routed yet: the whole column is routed.
    All,
}

/// A move recorded for [`IncrementalCost::revert`]. Undo applies the
/// inverse index update and restores the two affected columns and the
/// sums from the snapshots taken at apply time — routing is a pure
/// function of the layout, so the snapshot rows are exactly what a
/// re-route would reproduce.
#[derive(Debug, Clone, Copy)]
enum Move {
    Retarget {
        device: DeviceId,
        from: ExpertId,
        to: ExpertId,
    },
    Swap {
        d1: DeviceId,
        a: ExpertId,
        d2: DeviceId,
        b: ExpertId,
    },
}

#[derive(Debug)]
struct UndoEntry {
    mv: Move,
    /// `(expert, column snapshot)` for the two experts the move touches,
    /// and the sums, captured with every column routed, before the
    /// index update.
    columns: [(usize, Column); 2],
    sums: Eq2Sums,
}

/// What routing a column's cells needs besides the layout: the
/// problem's inputs and the shared routing core with its link prices.
#[derive(Debug)]
struct CellRouter<'a> {
    topo: &'a Topology,
    demand: &'a RoutingMatrix,
    params: CostParams,
    router: Router,
    prices: LinkPrices<'a, Topology>,
}

impl CellRouter<'_> {
    /// Routes expert `j`'s cells for the senders on `node` through the
    /// shared core (which resolves the node's targets and their link
    /// buckets once), appending the rows to `rows` and counting them
    /// into `sums`, and calling `end(rows.len())` after each sender.
    fn route_node(
        &mut self,
        index: &ReplicaIndex,
        j: usize,
        node: NodeId,
        sums: &mut Eq2Sums,
        rows: &mut Vec<Row>,
        mut end: impl FnMut(usize),
    ) {
        let expert = ExpertId::new(j);
        self.router.resolve(self.topo, index, node, j..j + 1, &[]);
        self.router
            .attach_buckets(self.topo, node, &mut self.prices);
        for src in self.topo.devices_on(node) {
            let tokens = self.demand.get(src, expert);
            if tokens > 0 {
                self.router
                    .split(src, expert, tokens, 0, |dst, count, bucket| {
                        let bucket = bucket
                            .unwrap_or_else(|| unreachable!("a topology prices links by kind"));
                        sums.add_entry(src, dst, count, bucket);
                        rows.push((dst, count, bucket));
                    });
            }
            end(rows.len());
        }
    }
}

/// Incrementally-maintained Eq. 2 evaluation state: the current layout
/// (as a flat index), the routed rows it implies, and Eq. 2's integer
/// sums over them. See the module docs for the design.
#[derive(Debug)]
pub struct IncrementalCost<'a> {
    cells: CellRouter<'a>,
    index: ReplicaIndex,
    /// One CSR column per expert (see [`Column`]).
    columns: Vec<Column>,
    stale: Vec<Stale>,
    undo: Vec<UndoEntry>,
    /// Scratch of a node splice: the new rows, their senders' ends and
    /// which nodes hold the expert.
    rows: Vec<Row>,
    ends: Vec<usize>,
    holds: Vec<bool>,
    /// Eq. 2's sums, maintained as columns are rebuilt or restored: the
    /// invariant is that they count every column's current rows, stale
    /// or not.
    sums: Eq2Sums,
}

impl<'a> IncrementalCost<'a> {
    /// Builds the state for `layout`. Routing is deferred: columns are
    /// routed lazily on the first [`Self::cost`] / [`Self::routing`]
    /// call, so a not-yet-covering layout (every expert ≥ 1 replica is
    /// required only at evaluation time) can be constructed and patched
    /// first — the exhaustive enumerator depends on this.
    ///
    /// # Panics
    ///
    /// Panics if shapes of `topo`, `demand` and `layout` disagree.
    pub fn new(
        topo: &'a Topology,
        demand: &'a RoutingMatrix,
        layout: &ExpertLayout,
        params: &CostParams,
    ) -> Self {
        let index = ReplicaIndex::from_layout(layout);
        index.assert_shapes(topo, demand);
        let e = index.num_experts();
        let mut sums = Eq2Sums::default();
        sums.reset(index.num_devices());
        Self {
            cells: CellRouter {
                topo,
                demand,
                params: *params,
                router: Router::default(),
                prices: LinkPrices::new(topo),
            },
            index,
            columns: vec![Column::default(); e],
            stale: vec![Stale::All; e],
            undo: Vec::new(),
            rows: Vec::new(),
            ends: Vec::new(),
            holds: Vec::new(),
            sums,
        }
    }

    /// Replica count of `expert` on `device` in the current state.
    pub fn replica_count(&self, device: DeviceId, expert: ExpertId) -> u32 {
        self.index.replica_count(device, expert)
    }

    /// Total replicas of `expert` in the current state.
    pub fn expert_replicas(&self, expert: ExpertId) -> usize {
        self.index.expert_replicas(expert)
    }

    /// Whether every expert currently has at least one replica (the
    /// routability constraint — evaluation panics without it for experts
    /// with demand).
    pub fn all_experts_covered(&self) -> bool {
        self.index.all_experts_covered()
    }

    /// Moves one replica on `device` from expert `from` to expert `to`
    /// (the refiner's retarget move), recording it for [`Self::revert`].
    /// Only the two experts' routing columns are invalidated.
    ///
    /// # Panics
    ///
    /// Routes any stale column first, so panics as [`Self::cost`] does.
    pub fn apply_retarget(&mut self, device: DeviceId, from: ExpertId, to: ExpertId) {
        let entry = self.checkpoint(Move::Retarget { device, from, to }, from, to);
        self.index.remove_replica(device, from);
        self.index.add_replica(device, to);
        self.mark_stale(from.index(), device);
        self.mark_stale(to.index(), device);
        self.undo.push(entry);
    }

    /// Exchanges `d1`'s replica of `a` with `d2`'s replica of `b` (the
    /// refiner's swap move), recording it for [`Self::revert`]. Only the
    /// two experts' routing columns are invalidated.
    ///
    /// # Panics
    ///
    /// Routes any stale column first, so panics as [`Self::cost`] does.
    pub fn apply_swap(&mut self, d1: DeviceId, a: ExpertId, d2: DeviceId, b: ExpertId) {
        let entry = self.checkpoint(Move::Swap { d1, a, d2, b }, a, b);
        self.index.remove_replica(d1, a);
        self.index.remove_replica(d2, b);
        self.index.add_replica(d1, b);
        self.index.add_replica(d2, a);
        for expert in [a, b] {
            self.mark_stale(expert.index(), d1);
            self.mark_stale(expert.index(), d2);
        }
        self.undo.push(entry);
    }

    /// Routes every stale column, then snapshots what [`Self::revert`]
    /// restores for `mv`: the columns of `x` and `y`, and the sums.
    fn checkpoint(&mut self, mv: Move, x: ExpertId, y: ExpertId) -> UndoEntry {
        self.flush();
        let (x, y) = (x.index(), y.index());
        UndoEntry {
            mv,
            columns: [(x, self.columns[x].clone()), (y, self.columns[y].clone())],
            sums: self.sums.clone(),
        }
    }

    /// Undoes the most recent un-reverted [`Self::apply_retarget`] /
    /// [`Self::apply_swap`]: applies the inverse index update and
    /// restores the two columns and the sums from their apply-time
    /// snapshots (no re-route — the snapshot rows are what re-routing
    /// the restored layout would produce, and every other column is as
    /// it was then). Returns `false` if there is nothing to revert.
    pub fn revert(&mut self) -> bool {
        let Some(entry) = self.undo.pop() else {
            return false;
        };
        match entry.mv {
            Move::Retarget { device, from, to } => {
                self.index.remove_replica(device, to);
                self.index.add_replica(device, from);
            }
            Move::Swap { d1, a, d2, b } => {
                self.index.remove_replica(d1, b);
                self.index.remove_replica(d2, a);
                self.index.add_replica(d1, a);
                self.index.add_replica(d2, b);
            }
        }
        for (j, col) in entry.columns {
            self.columns[j] = col;
            self.stale[j] = Stale::Fresh;
        }
        self.sums = entry.sums;
        true
    }

    /// Applies an arbitrary per-device diff: removes one replica of each
    /// expert index in `remove`, adds one of each in `add`. Not
    /// revertible — the undo stack is cleared. This is the exhaustive
    /// enumerator's odometer step; intermediate states may leave experts
    /// uncovered as long as [`Self::cost`] is only called on covering
    /// states.
    pub fn set_device_experts(&mut self, device: DeviceId, remove: &[usize], add: &[usize]) {
        for &j in remove {
            self.index.remove_replica(device, ExpertId::new(j));
            self.mark_stale(j, device);
        }
        for &j in add {
            self.index.add_replica(device, ExpertId::new(j));
            self.mark_stale(j, device);
        }
        self.undo.clear();
    }

    /// Records that `expert`'s replicas changed on `device`'s node.
    fn mark_stale(&mut self, expert: usize, device: DeviceId) {
        let node = self.cells.topo.node_of(device).index();
        match &mut self.stale[expert] {
            Stale::All => {}
            Stale::Nodes(nodes) => nodes.push(node),
            fresh @ Stale::Fresh => *fresh = Stale::Nodes(vec![node]),
        }
    }

    /// Re-routes stale columns.
    fn flush(&mut self) {
        for j in 0..self.columns.len() {
            match std::mem::replace(&mut self.stale[j], Stale::Fresh) {
                Stale::Fresh => {}
                Stale::Nodes(nodes) => self.reroute_nodes(j, nodes),
                Stale::All => self.reroute_expert(j),
            }
        }
    }

    /// Routes expert `j`'s whole column — one Alg. 3 cell per source
    /// device — node by node.
    fn reroute_expert(&mut self, j: usize) {
        let column = &mut self.columns[j];
        column.uncount(column.sources(), &mut self.sums);
        let Column { starts, entries } = column;
        starts.clear();
        entries.clear();
        starts.push(0);
        for node in self.cells.topo.node_ids() {
            self.cells
                .route_node(&self.index, j, node, &mut self.sums, entries, |len| {
                    starts.push(len as u32);
                });
        }
    }

    /// Re-routes the cells of expert `j` whose targets may have changed:
    /// the senders on `nodes`, where its replicas changed, and on every
    /// node holding none of it, which route to its (changed) full
    /// replica list. Every other node keeps its own replicas and so its
    /// rows. A node's senders have consecutive ids, so its cells are one
    /// run of the column, spliced in place; a column that changed on
    /// many nodes is rebuilt instead.
    fn reroute_nodes(&mut self, j: usize, mut nodes: Vec<usize>) {
        let topo = self.cells.topo;
        let num_nodes = topo.num_nodes();
        self.holds.clear();
        self.holds.resize(num_nodes, false);
        for &(d, _) in self.index.replicas(ExpertId::new(j)) {
            self.holds[topo.node_of(d).index()] = true;
        }
        nodes.extend((0..num_nodes).filter(|&m| !self.holds[m]));
        nodes.sort_unstable();
        nodes.dedup();
        // A splice moves the column's tail; past a sixteenth of the
        // nodes, one linear rebuild is cheaper.
        if nodes.len() * 16 > num_nodes {
            return self.reroute_expert(j);
        }
        let dpn = topo.devices_per_node();
        let column = &mut self.columns[j];
        for m in nodes {
            let (first, end) = (m * dpn, (m + 1) * dpn);
            column.uncount(first..end, &mut self.sums);
            let Column { starts, entries } = &mut *column;
            let (lo, hi) = (starts[first] as usize, starts[end] as usize);
            let (rows, ends) = (&mut self.rows, &mut self.ends);
            rows.clear();
            ends.clear();
            self.cells.route_node(
                &self.index,
                j,
                NodeId::new(m),
                &mut self.sums,
                rows,
                |len| ends.push(lo + len),
            );
            let (old_end, new_end) = (hi as u32, (lo + rows.len()) as u32);
            entries.splice(lo..hi, rows.drain(..));
            for (s, &e) in starts[first + 1..=end].iter_mut().zip(ends.iter()) {
                *s = e as u32;
            }
            for s in &mut starts[end + 1..] {
                *s = *s - old_end + new_end;
            }
        }
    }

    /// Evaluates Eq. 2 for the current state, bit-identical to
    /// `time_cost(topo, &lite_route(topo, demand, &self.layout()),
    /// params)`: dirty columns are re-routed, which keeps the integer
    /// sums current, and the sums are converted as `time_cost` converts
    /// its own.
    ///
    /// # Panics
    ///
    /// Panics if some expert with demand has no replica (see
    /// [`Self::all_experts_covered`]).
    pub fn cost(&mut self) -> CostBreakdown {
        self.flush();
        self.sums
            .eq2(self.cells.prices.prices(), &self.cells.params)
    }

    /// Materialises the current layout.
    pub fn layout(&self) -> ExpertLayout {
        self.index.to_layout()
    }

    /// Materialises the current routing — entry-for-entry identical to
    /// `lite_route(topo, demand, &self.layout())`.
    pub fn routing(&mut self) -> TokenRouting {
        self.flush();
        let n = self.index.num_devices();
        let mut out = TokenRouting::new(n, self.index.num_experts());
        for src in 0..n {
            for (j, col) in self.columns.iter().enumerate() {
                let (lo, hi) = (col.starts[src] as usize, col.starts[src + 1] as usize);
                for &(dst, tokens, _) in &col.entries[lo..hi] {
                    out.push(DeviceId::new(src), ExpertId::new(j), dst, tokens);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::time_cost;
    use crate::lite_routing::lite_route;
    use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};

    fn setup(seed: u64) -> (Topology, RoutingMatrix, ExpertLayout, CostParams) {
        let topo = Topology::new(2, 4).unwrap();
        let demand = RoutingGenerator::new(RoutingGeneratorConfig::new(8, 8, 8192).with_seed(seed))
            .next_iteration();
        let layout = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        (topo, demand, layout, CostParams::mixtral_8x7b())
    }

    fn oracle(
        topo: &Topology,
        demand: &RoutingMatrix,
        layout: &ExpertLayout,
        params: &CostParams,
    ) -> CostBreakdown {
        time_cost(topo, &lite_route(topo, demand, layout), params)
    }

    fn assert_bits(a: CostBreakdown, b: CostBreakdown) {
        assert_eq!(a.comm.to_bits(), b.comm.to_bits(), "comm bits");
        assert_eq!(a.comp.to_bits(), b.comp.to_bits(), "comp bits");
    }

    #[test]
    fn initial_cost_matches_oracle_bitwise() {
        for seed in 1u64..6 {
            let (topo, demand, layout, params) = setup(seed);
            let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
            assert_bits(inc.cost(), oracle(&topo, &demand, &layout, &params));
            // Routing materialisation is entry-identical too.
            assert_eq!(
                inc.routing().entries(),
                lite_route(&topo, &demand, &layout).entries()
            );
        }
    }

    #[test]
    fn retarget_and_revert_match_oracle_bitwise() {
        let (topo, demand, layout, params) = setup(3);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        let before = inc.cost();
        // classic_ep(8,8,2): device 0 hosts experts {0,1}; retarget its
        // replica of expert 0 to expert 2.
        let (d, a, b) = (DeviceId::new(0), ExpertId::new(0), ExpertId::new(2));
        assert!(inc.replica_count(d, a) > 0 && inc.expert_replicas(a) >= 2);
        inc.apply_retarget(d, a, b);
        let moved_layout = inc.layout();
        assert_eq!(moved_layout.replica_count(d, a), 0);
        assert_eq!(moved_layout.replica_count(d, b), 1);
        assert_bits(inc.cost(), oracle(&topo, &demand, &moved_layout, &params));
        assert!(inc.revert());
        assert_eq!(inc.layout(), layout);
        assert_bits(inc.cost(), before);
        assert!(!inc.revert(), "undo stack exhausted");
    }

    #[test]
    fn swap_and_revert_match_oracle_bitwise() {
        let (topo, demand, layout, params) = setup(4);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        let before = inc.cost();
        // Device 0 hosts {0,1}, device 1 hosts {2,3}: swap 0's expert 0
        // with 1's expert 2.
        let (d1, a, d2, b) = (
            DeviceId::new(0),
            ExpertId::new(0),
            DeviceId::new(1),
            ExpertId::new(2),
        );
        inc.apply_swap(d1, a, d2, b);
        let swapped = inc.layout();
        assert_eq!(swapped.replica_count(d1, b), 1);
        assert_eq!(swapped.replica_count(d2, a), 1);
        assert_bits(inc.cost(), oracle(&topo, &demand, &swapped, &params));
        assert!(inc.revert());
        assert_eq!(inc.layout(), layout);
        assert_bits(inc.cost(), before);
    }

    /// A move applied before anything is routed routes every column
    /// first, so its snapshot, and the revert back to it, are exact.
    #[test]
    fn moves_before_first_cost_match_oracle_bitwise() {
        let (topo, demand, layout, params) = setup(6);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        let (d, a, b) = (DeviceId::new(0), ExpertId::new(0), ExpertId::new(2));
        inc.apply_retarget(d, a, b);
        inc.apply_swap(
            DeviceId::new(1),
            ExpertId::new(2),
            DeviceId::new(2),
            ExpertId::new(4),
        );
        assert!(inc.revert());
        let moved = inc.layout();
        assert_bits(inc.cost(), oracle(&topo, &demand, &moved, &params));
        assert!(inc.revert());
        assert_eq!(inc.layout(), layout);
        assert_bits(inc.cost(), oracle(&topo, &demand, &layout, &params));
    }

    #[test]
    fn deferred_construction_allows_uncovered_intermediate_states() {
        let (topo, demand, _, params) = setup(5);
        // Start from an empty (uncovered) layout, then patch device by
        // device into classic-EP via diffs — cost only at the end.
        let empty = ExpertLayout::empty(8, 8, 2).unwrap();
        let mut inc = IncrementalCost::new(&topo, &demand, &empty, &params);
        assert!(!inc.all_experts_covered());
        for d in 0..8usize {
            let block = d % 4;
            inc.set_device_experts(DeviceId::new(d), &[], &[block * 2, block * 2 + 1]);
        }
        assert!(inc.all_experts_covered());
        let classic = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        assert_eq!(inc.layout(), classic);
        assert_bits(inc.cost(), oracle(&topo, &demand, &classic, &params));
    }

    #[test]
    fn latency_aware_pricing_matches_oracle_bitwise() {
        let (topo, demand, layout, params) = setup(7);
        let params = params.with_latency_aware(true);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        assert_bits(inc.cost(), oracle(&topo, &demand, &layout, &params));
        // And through a move/revert cycle.
        let (d, a, b) = (DeviceId::new(0), ExpertId::new(0), ExpertId::new(2));
        inc.apply_retarget(d, a, b);
        let moved = inc.layout();
        assert_bits(inc.cost(), oracle(&topo, &demand, &moved, &params));
        assert!(inc.revert());
        assert_bits(inc.cost(), oracle(&topo, &demand, &layout, &params));
    }

    #[test]
    fn guards_read_through_index() {
        let (_, _, layout, params) = setup(1);
        let topo = Topology::new(2, 4).unwrap();
        let demand = RoutingMatrix::zeros(8, 8).unwrap();
        let inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        for d in 0..8 {
            for j in 0..8 {
                assert_eq!(
                    inc.replica_count(DeviceId::new(d), ExpertId::new(j)),
                    layout.replica_count(DeviceId::new(d), ExpertId::new(j))
                );
            }
        }
        for j in 0..8 {
            assert_eq!(
                inc.expert_replicas(ExpertId::new(j)),
                layout.expert_replicas(ExpertId::new(j))
            );
        }
        assert!(inc.all_experts_covered());
    }
}
