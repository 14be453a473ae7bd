//! The expert layout tuner — Alg. 2 of the paper.
//!
//! Builds a candidate set `ε` of replica schemes (priority-queue
//! proportional allocation, even allocation, and random perturbations of
//! members already in the set), solves each with the greedy relocation
//! (Alg. 1), routes under lite routing (Alg. 3), scores with the time
//! model (Eq. 2) and keeps the best. Candidates are priced without
//! materialising their routing — each `(node, expert)` target list is
//! counted into Eq. 2's integer sums, a node's own lists a column at a
//! time and an equal fallback list's receive side once per rack — so
//! only the winner is ever routed with `lite_route`. Because those sums
//! do not depend on the order entries are counted in, the cost is
//! bit-identical to pricing `lite_route`'s output with `time_cost`.
//!
//! A candidate stops as soon as a lower bound of its Eq. 2 total reaches
//! the best total so far, since it can then no longer be strictly
//! cheaper: first a layout-free witness built from its replica counts
//! alone, before Alg. 1 places it, then the fan-in of its fallback
//! lists, before the rest of its routing is counted. Candidates are
//! still visited in order and the first strict minimum wins, so the
//! plan is the one every candidate priced in full would give.

use crate::cost::{CostBreakdown, CostParams, Eq2Sums, LinkPrices, Traffic};
use crate::layout::ExpertLayout;
use crate::lite_routing::{lite_route, Pricer, ReplicaIndex};
use crate::relocation::expert_relocation_on;
use crate::replica::{even_replicas, replica_allocation};
use crate::token_routing::TokenRouting;
use laer_cluster::{DegradedView, DeviceId, Interconnect, Topology};
use laer_routing::RoutingMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

// Test-only counters of Alg. 2 candidate evaluations, used to prove
// that candidate deduplication actually skips redundant evaluations,
// and of the candidates each bound stopped (witness, fan-in).
#[cfg(test)]
thread_local! {
    static EVAL_COUNT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    static STOP_COUNT: std::cell::Cell<[usize; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Resets the test-only counters (current thread).
#[cfg(test)]
pub(crate) fn reset_eval_count() {
    EVAL_COUNT.with(|c| c.set(0));
    STOP_COUNT.with(|c| c.set([0; 2]));
}

/// Reads the test-only evaluation counter (current thread).
#[cfg(test)]
pub(crate) fn eval_count() -> usize {
    EVAL_COUNT.with(|c| c.get())
}

/// Reads the test-only counts of candidates stopped by the layout-free
/// witness and by the fan-in bound (current thread).
#[cfg(test)]
pub(crate) fn stop_counts() -> [usize; 2] {
    STOP_COUNT.with(|c| c.get())
}

/// Counts a candidate stopped by `bound` (0: witness, 1: fan-in).
#[cfg(test)]
fn count_stop(bound: usize) {
    STOP_COUNT.with(|c| {
        let mut counts = c.get();
        counts[bound] += 1;
        c.set(counts);
    });
}

/// Failure modes of [`Planner::plan_degraded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// After device failures, the surviving slots cannot give every
    /// expert a replica — the run must abort (constraint 4 of Tab. 1 is
    /// unsatisfiable).
    InsufficientCapacity {
        /// Surviving device count.
        survivors: usize,
        /// Per-device capacity `C`.
        capacity: usize,
        /// Expert count `E`.
        experts: usize,
    },
    /// Every device has failed.
    NoSurvivors,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::InsufficientCapacity {
                survivors,
                capacity,
                experts,
            } => write!(
                f,
                "{survivors} survivors x capacity {capacity} cannot host {experts} experts"
            ),
            PlanError::NoSurvivors => write!(f, "no surviving devices"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Which base replica schemes seed the candidate set — [`Self::Both`] is
/// the full Alg. 2; the single-scheme variants are the `pq` / `even`
/// ablations of Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplicaScheme {
    /// Proportional (Alg. 4) + even + perturbations (full Alg. 2).
    Both,
    /// Priority-queue proportional allocation only.
    PqOnly,
    /// Even allocation only.
    EvenOnly,
}

/// Planner configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// Expert capacity per device `C`.
    pub capacity: usize,
    /// Candidate-set size `ε` (the paper fixes `|ε| = 2` for Fig. 11 and
    /// allows larger sets with random perturbations).
    pub epsilon: usize,
    /// Replica-scheme selection (ablations use the single-scheme modes).
    pub scheme: ReplicaScheme,
    /// Seed for the perturbation RNG.
    pub seed: u64,
    /// Chunk count of the executor's chunked dispatch/combine pipeline
    /// that candidate plans are priced for
    /// ([`CostBreakdown::pipelined`]). `0` and `1` both mean the
    /// whole-iteration schedule; `0` is the serde default so configs
    /// serialized before the knob existed keep their meaning.
    #[serde(default)]
    pub num_chunks: usize,
}

impl PlannerConfig {
    /// Default configuration: full scheme set, `ε = 4`, seed 0,
    /// whole-iteration pricing.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            epsilon: 4,
            scheme: ReplicaScheme::Both,
            seed: 0,
            num_chunks: 0,
        }
    }

    /// Sets the pipeline chunk count candidate plans are priced for
    /// (clamped to at least 1).
    pub fn with_num_chunks(mut self, num_chunks: usize) -> Self {
        self.num_chunks = num_chunks.max(1);
        self
    }

    /// Sets the candidate-set size.
    pub fn with_epsilon(mut self, epsilon: usize) -> Self {
        self.epsilon = epsilon.max(1);
        self
    }

    /// Selects the replica scheme (for the Fig. 12 ablations).
    pub fn with_scheme(mut self, scheme: ReplicaScheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the perturbation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The planner's output for one MoE layer and iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// Expert re-layout strategy `A`.
    pub layout: ExpertLayout,
    /// Token routing strategy `S` under lite routing.
    pub routing: TokenRouting,
    /// The objective value the tuner predicted for this plan.
    pub predicted: CostBreakdown,
}

/// The asynchronous expert layout tuner plus synchronous token
/// dispatcher, bundled (Sec. 3.2's "load balancing planner").
#[derive(Debug, Clone)]
pub struct Planner {
    cfg: PlannerConfig,
    cost: CostParams,
    topo: Topology,
}

impl Planner {
    /// Creates a planner for a fixed topology and cost model.
    pub fn new(cfg: PlannerConfig, cost: CostParams, topo: Topology) -> Self {
        Self { cfg, cost, topo }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PlannerConfig {
        &self.cfg
    }

    /// The cost parameters in use.
    pub fn cost_params(&self) -> &CostParams {
        &self.cost
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Builds the candidate replica schemes of Alg. 2 lines 1–7.
    pub fn candidate_schemes(&self, demand: &RoutingMatrix) -> Vec<Vec<usize>> {
        self.candidate_schemes_for(self.topo.num_devices(), demand)
    }

    /// Candidate schemes sized for `n` participating devices (`n` is the
    /// survivor count in degraded mode).
    fn candidate_schemes_for(&self, n: usize, demand: &RoutingMatrix) -> Vec<Vec<usize>> {
        let c = self.cfg.capacity;
        let loads = demand.expert_loads();
        let mut set: Vec<Vec<usize>> = Vec::new();
        match self.cfg.scheme {
            ReplicaScheme::Both => {
                set.push(replica_allocation(&loads, n, c));
                set.push(even_replicas(&loads, n, c));
            }
            ReplicaScheme::PqOnly => set.push(replica_allocation(&loads, n, c)),
            ReplicaScheme::EvenOnly => set.push(even_replicas(&loads, n, c)),
        }
        // Lines 5-7: random perturbations, deterministic in (seed, demand).
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ demand.total());
        while set.len() < self.cfg.epsilon {
            let base = set[rng.gen_range(0..set.len())].clone();
            set.push(perturb(base, &mut rng));
        }
        set.truncate(self.cfg.epsilon);
        set
    }

    /// Drops duplicate replica schemes, keeping the first occurrence of
    /// each. Alg. 2's random perturbations frequently collide (a
    /// perturbation of an all-ones scheme is a no-op, and independent
    /// draws can land on the same scheme); duplicates produce
    /// bit-identical [`Plan`]s and the best-candidate comparison is a
    /// strict `<` (first occurrence wins ties), so skipping repeats can
    /// never change which plan is returned. Public so callers can see
    /// exactly the candidate set [`Self::plan`] evaluates.
    pub fn unique_schemes(&self, schemes: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        let mut seen: HashSet<Vec<usize>> = HashSet::with_capacity(schemes.len());
        schemes
            .into_iter()
            .filter(|s| seen.insert(s.clone()))
            .collect()
    }

    /// Alg. 2 lines 9–16: evaluates the candidates and returns the best
    /// plan. A candidate is dropped as soon as it provably cannot be
    /// strictly cheaper than the best so far, so the plan is the one
    /// evaluating every candidate in full gives.
    ///
    /// # Panics
    ///
    /// Panics if `demand`'s shapes disagree with the topology or the
    /// capacity cannot host every expert.
    pub fn plan(&self, demand: &RoutingMatrix) -> Plan {
        let all: Vec<DeviceId> = self.topo.devices().collect();
        self.solve(demand, &all, &self.topo)
    }

    /// Alg. 2 over the surviving devices of a degraded cluster: replica
    /// schemes are sized to the survivor count, Alg. 1 places replicas
    /// on survivors only, and candidates are priced against the degraded
    /// network `view` so weakened links steer the layout.
    ///
    /// # Errors
    ///
    /// Those of [`Self::survivors`].
    ///
    /// # Panics
    ///
    /// Panics if `demand`'s shapes disagree with the planner topology or
    /// `view` wraps a topology of another device, node or rack shape.
    pub fn plan_degraded(
        &self,
        demand: &RoutingMatrix,
        view: &DegradedView,
    ) -> Result<Plan, PlanError> {
        // The same device, node and rack shape: candidates are placed
        // and routed by node on the planner's topology and priced on the
        // view.
        let (base, topo) = (view.base(), &self.topo);
        assert!(
            base.num_devices() == topo.num_devices()
                && base.devices_per_node() == topo.devices_per_node()
                && base.devices_per_rack() == topo.devices_per_rack(),
            "degraded view topology mismatch"
        );
        let survivors = self.survivors(view, demand.num_experts())?;
        Ok(self.solve(demand, &survivors, view))
    }

    /// The survivors of `view`, once they can host `experts` experts —
    /// the precondition of [`Self::plan_degraded`].
    ///
    /// # Errors
    ///
    /// * [`PlanError::NoSurvivors`] if every device failed;
    /// * [`PlanError::InsufficientCapacity`] if the surviving slots
    ///   cannot give every expert at least one replica — the typed
    ///   "abort the run" condition.
    pub fn survivors(
        &self,
        view: &DegradedView,
        experts: usize,
    ) -> Result<Vec<DeviceId>, PlanError> {
        let survivors = view.survivors();
        if survivors.is_empty() {
            return Err(PlanError::NoSurvivors);
        }
        if survivors.len() * self.cfg.capacity < experts {
            return Err(PlanError::InsufficientCapacity {
                survivors: survivors.len(),
                capacity: self.cfg.capacity,
                experts,
            });
        }
        Ok(survivors)
    }

    /// The Alg. 2 loop shared by [`Self::plan`] and
    /// [`Self::plan_degraded`]: every deduplicated candidate is placed
    /// on the `active` devices (Alg. 1), priced on `net` as Alg. 3
    /// would route it, and the first strictly cheapest one wins. Only the
    /// winner's routing is materialised.
    ///
    /// A candidate stops once a lower bound of its total is at least
    /// the best total so far — it cannot be strictly cheaper:
    ///
    /// 1. before Alg. 1, Eq. 2 of a [`Witness`] built from its replica
    ///    counts alone: stand-in devices that each receive and compute
    ///    no more than some device of any layout with those counts does;
    /// 2. on whole-iteration pricing, Eq. 2 of its fallback fan-in, which
    ///    [`Pricer`] counts first: `Eq2Sums::eq2` is non-decreasing in
    ///    every sum. `pipelined` is not provably so in floating point,
    ///    so chunked pricing skips this bound.
    fn solve<I: Interconnect>(&self, demand: &RoutingMatrix, active: &[DeviceId], net: &I) -> Plan {
        let loads = demand.expert_loads();
        let mut schemes = self.unique_schemes(self.candidate_schemes_for(active.len(), demand));
        if schemes.is_empty() {
            // Degenerate `epsilon = 0` configuration: solve the base
            // proportional scheme so planning stays total.
            schemes.push(replica_allocation(&loads, active.len(), self.cfg.capacity));
        }
        let mut index = ReplicaIndex::default();
        let mut pricer = Pricer::default();
        let mut prices = LinkPrices::new(net);
        // Whole-iteration pricing: the fan-in bound and the witness's
        // receive side apply.
        let whole = self.cfg.num_chunks <= 1;
        let mut witness: Option<Witness> = None;
        let mut best: Option<(ExpertLayout, CostBreakdown)> = None;
        for replicas in &schemes {
            #[cfg(test)]
            EVAL_COUNT.with(|c| c.set(c.get() + 1));
            let best_total = best.as_ref().map(|(_, b)| b.total());
            if let Some(b) = best_total {
                let witness = witness
                    .get_or_insert_with(|| Witness::new(&self.topo, demand, &mut prices, whole));
                if witness.total(replicas, &loads, prices.prices(), &self.cost) >= b {
                    #[cfg(test)]
                    count_stop(0);
                    continue;
                }
            }
            let layout =
                expert_relocation_on(replicas, &loads, &self.topo, self.cfg.capacity, active);
            index.assign(&layout);
            let priced = pricer.price(&self.topo, &index, demand, &mut prices, |fan_in, prices| {
                !whole || best_total.is_none_or(|b| fan_in.eq2(prices, &self.cost).total() < b)
            });
            let Some(sums) = priced else {
                #[cfg(test)]
                count_stop(1);
                continue;
            };
            let predicted = sums
                .eq2(prices.prices(), &self.cost)
                .pipelined(self.cfg.num_chunks);
            if best_total.is_none_or(|b| predicted.total() < b) {
                best = Some((layout, predicted));
            }
        }
        let Some((layout, predicted)) = best else {
            unreachable!("the candidate set is never empty")
        };
        Plan {
            routing: lite_route(&self.topo, demand, &layout),
            layout,
            predicted,
        }
    }

    /// Returns this planner re-priced for a different executor chunk
    /// count (clamped to at least 1).
    pub fn with_num_chunks(mut self, num_chunks: usize) -> Self {
        self.cfg.num_chunks = num_chunks.max(1);
        self
    }
}

/// The compute floor of any layout with `replicas`, the load of the
/// [`Witness`]'s last stand-in: the devices holding expert `j` compute
/// all `load_j` of its tokens over its `r_j` replicas, so one of them
/// computes at least `load_j / r_j` per replica it holds, hence at least
/// `⌈load_j / r_j⌉`.
fn compute_floor(replicas: &[usize], loads: &[u64]) -> u64 {
    replicas
        .iter()
        .zip(loads)
        .map(|(&r, &load)| load.div_ceil(r as u64))
        .max()
        .unwrap_or(0)
}

/// Bound 1: a layout-free witness of a candidate's Eq. 2 total. Its
/// `Eq2Sums` hold `E + 1` stand-in devices, each dominated in every sum
/// by some device of *any* layout with the candidate's replica counts,
/// so `eq2` — non-decreasing in every sum, in floating point too —
/// prices the witness no higher than the candidate:
///
/// * stand-in `E` computes the [`compute_floor`];
/// * stand-in `j`, for an expert with `r_j < nodes`, computes
///   `T_j = ⌈S_j / r_j⌉` tokens, and receives them in `M_j` messages
///   over the one inter-node price. `S_j` is the demand for `j` outside
///   the `r_j` nodes holding the most of it, `M_j` the senders with
///   demand for `j` outside the `r_j` nodes holding the most such
///   senders.
///
/// Why stand-in `j` is dominated: at most `r_j` nodes hold expert `j`,
/// so the others send at least `S_j` tokens from at least `M_j` senders,
/// and each of them splits its cell over `j`'s whole replica list, off
/// its own node (Alg. 3's fallback). Under `split_list` the lowest-id
/// device holding the most replicas of `j` gets at least `⌈t / r_j⌉`
/// tokens and one message of every such cell with `t > 0`, and computes
/// them: for an equal list that is position 0's share `⌈t / m⌉` with
/// `m ≤ r_j`; for an unequal list it holds while `tokens · count ≤
/// 2^52`, the range `equal_shares` documents.
///
/// The receive side needs every fallback entry in one price bucket:
/// whole-iteration pricing on a two-level network priced by link kind.
/// Chunked pricing, racks and pair-priced networks keep the loads only;
/// with chunks, `pipelined` adds a non-negative `T_comm` to an
/// unchanged `T_comp`, which those loads bound.
#[derive(Debug)]
struct Witness {
    nodes: usize,
    /// The one bucket fallback traffic arrives over, when the receive
    /// side applies.
    bucket: Option<usize>,
    /// Per expert `j`, at `j · (nodes + 1) + r`: the demand for `j` on
    /// the `r` nodes holding the most of it, and the senders with demand
    /// for `j` on the `r` nodes holding the most such senders.
    top: Vec<(u64, u64)>,
    sums: Eq2Sums,
}

impl Witness {
    /// Sorts `demand`'s per-(expert, node) demand and sender counts once
    /// per plan; `whole` is whole-iteration pricing.
    fn new<I: Interconnect + ?Sized>(
        topo: &Topology,
        demand: &RoutingMatrix,
        prices: &mut LinkPrices<'_, I>,
        whole: bool,
    ) -> Self {
        let (experts, nodes) = (demand.num_experts(), topo.num_nodes());
        // Per (node, expert): its demand and its senders.
        let mut cells = vec![(0u64, 0u64); nodes * experts];
        for (node, row) in topo.node_ids().zip(cells.chunks_exact_mut(experts)) {
            for src in topo.devices_on(node) {
                for (cell, &tokens) in row.iter_mut().zip(demand.row(src)) {
                    cell.0 += tokens;
                    cell.1 += u64::from(tokens > 0);
                }
            }
        }
        let mut top = Vec::with_capacity(experts * (nodes + 1));
        let (mut tokens, mut senders) = (Vec::with_capacity(nodes), Vec::with_capacity(nodes));
        for j in 0..experts {
            let column = cells[j..].iter().step_by(experts);
            tokens.clear();
            tokens.extend(column.clone().map(|&(t, _)| t));
            tokens.sort_unstable_by(|a, b| b.cmp(a));
            senders.clear();
            senders.extend(column.map(|&(_, s)| s));
            senders.sort_unstable_by(|a, b| b.cmp(a));
            let mut held = (0, 0);
            top.push(held);
            for (t, s) in tokens.iter().zip(&senders) {
                held = (held.0 + t, held.1 + s);
                top.push(held);
            }
        }
        let bucket = (whole && prices.by_kind() && topo.devices_per_rack().is_none() && nodes > 1)
            .then(|| prices.bucket(DeviceId::new(0), DeviceId::new(topo.devices_per_node())));
        Self {
            nodes,
            bucket,
            top,
            sums: Eq2Sums::default(),
        }
    }

    /// The witness's Eq. 2 total for a candidate with `replicas`, of
    /// expert loads `loads`, against the planner's bucket `prices`.
    fn total(
        &mut self,
        replicas: &[usize],
        loads: &[u64],
        prices: &[(f64, f64)],
        cost: &CostParams,
    ) -> f64 {
        let (e, nodes) = (replicas.len(), self.nodes);
        let sums = &mut self.sums;
        sums.reset(e + 1);
        sums.load(DeviceId::new(e), compute_floor(replicas, loads));
        for (j, &r) in replicas.iter().enumerate() {
            let row = &self.top[j * (nodes + 1)..][..=nodes];
            let (all, held) = (row[nodes], row[r.min(nodes)]);
            let (fan_in, senders) = (all.0 - held.0, all.1 - held.1);
            if fan_in == 0 {
                continue;
            }
            let stand_in = DeviceId::new(j);
            let tokens = fan_in.div_ceil(r as u64);
            sums.load(stand_in, tokens);
            if let Some(bucket) = self.bucket {
                let t = Traffic {
                    tokens,
                    messages: senders,
                };
                sums.recv(stand_in, bucket, t);
            }
        }
        sums.eq2(prices, cost).total()
    }
}

/// Random perturbation of a replica scheme: move one replica from an
/// expert with ≥ 2 to a different expert (keeps total and ≥1 invariants).
fn perturb(mut replicas: Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
    let e = replicas.len();
    if e < 2 {
        return replicas;
    }
    let donors: Vec<usize> = (0..e).filter(|&i| replicas[i] >= 2).collect();
    if donors.is_empty() {
        return replicas;
    }
    let from = donors[rng.gen_range(0..donors.len())];
    let mut to = rng.gen_range(0..e);
    if to == from {
        to = (to + 1) % e;
    }
    replicas[from] -= 1;
    replicas[to] += 1;
    replicas
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::time_cost;
    use crate::relocation::expert_relocation;
    use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};
    use proptest::prelude::*;

    fn planner(scheme: ReplicaScheme) -> Planner {
        Planner::new(
            PlannerConfig::new(2).with_scheme(scheme).with_epsilon(4),
            CostParams::mixtral_8x7b(),
            Topology::paper_cluster(),
        )
    }

    fn demand(seed: u64) -> RoutingMatrix {
        RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 8192).with_seed(seed))
            .next_iteration()
    }

    #[test]
    fn plan_is_valid() {
        let p = planner(ReplicaScheme::Both);
        let d = demand(1);
        let plan = p.plan(&d);
        assert!(plan.layout.validate().is_ok());
        assert!(plan.routing.validate(&d, &plan.layout).is_ok());
        assert!(plan.predicted.total() > 0.0);
    }

    /// The tuner's plan must beat the fixed classic-EP layout on skewed
    /// demand — the core claim of Sec. 3.2's optimisation opportunity.
    #[test]
    fn beats_classic_ep_on_skewed_demand() {
        let p = planner(ReplicaScheme::Both);
        for seed in [1u64, 2, 3, 4, 5] {
            let d = demand(seed);
            let plan = p.plan(&d);
            let classic = ExpertLayout::classic_ep(32, 8, 2).unwrap();
            let classic_routing = lite_route(p.topology(), &d, &classic);
            let classic_cost = time_cost(p.topology(), &classic_routing, p.cost_params());
            assert!(
                plan.predicted.total() <= classic_cost.total() * 1.0001,
                "seed {seed}: planned {} vs classic {}",
                plan.predicted.total(),
                classic_cost.total()
            );
        }
    }

    /// Fig. 12 mechanism: with perturbations disabled, the multi-scheme
    /// candidate set (which contains both base schemes) is never worse
    /// than either single scheme alone.
    #[test]
    fn both_never_worse_than_single_schemes() {
        let mk = |scheme, eps| {
            Planner::new(
                PlannerConfig::new(2).with_scheme(scheme).with_epsilon(eps),
                CostParams::mixtral_8x7b(),
                Topology::paper_cluster(),
            )
        };
        let both = mk(ReplicaScheme::Both, 2);
        let pq = mk(ReplicaScheme::PqOnly, 1);
        let even = mk(ReplicaScheme::EvenOnly, 1);
        for seed in 1u64..6 {
            let d = demand(seed);
            let tb = both.plan(&d).predicted.total();
            let tp = pq.plan(&d).predicted.total();
            let te = even.plan(&d).predicted.total();
            assert!(tb <= tp + 1e-12, "seed {seed}: both {tb} vs pq {tp}");
            assert!(tb <= te + 1e-12, "seed {seed}: both {tb} vs even {te}");
        }
    }

    #[test]
    fn candidate_set_size_and_determinism() {
        let p = planner(ReplicaScheme::Both);
        let d = demand(7);
        let a = p.candidate_schemes(&d);
        let b = p.candidate_schemes(&d);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let n_c = 32 * 2;
        for scheme in &a {
            assert_eq!(scheme.iter().sum::<usize>(), n_c);
            assert!(scheme.iter().all(|&r| r >= 1));
        }
    }

    /// 8 experts on 4 devices with `C = 2` leave exactly one slot per
    /// expert, so `even_replicas` is all-ones and `perturb` has no donor
    /// — every perturbed candidate collides with the base scheme. Both
    /// entry points must evaluate it exactly once, and the plan must
    /// equal the first of the cheapest raw candidates.
    #[test]
    fn duplicate_candidates_evaluate_once() {
        let topo = Topology::single_node(4).unwrap();
        let cfg = PlannerConfig::new(2)
            .with_scheme(ReplicaScheme::EvenOnly)
            .with_epsilon(4);
        let p = Planner::new(cfg, CostParams::mixtral_8x7b(), topo.clone());
        let d = RoutingGenerator::new(RoutingGeneratorConfig::new(4, 8, 1024).with_seed(11))
            .next_iteration();
        let schemes = p.candidate_schemes(&d);
        assert_eq!(schemes.len(), 4);
        assert!(
            schemes.iter().all(|s| *s == schemes[0]),
            "scenario must produce identical candidates"
        );

        reset_eval_count();
        let deduped = p.plan(&d);
        assert_eq!(eval_count(), 1, "dedup must evaluate each scheme once");

        // Dedup never changes the plan.
        assert_eq!(deduped, reference_plan(&p, &schemes, &d));

        // The degraded path runs the same counted loop.
        reset_eval_count();
        let nominal = p.plan_degraded(&d, &DegradedView::new(topo)).unwrap();
        assert_eq!(eval_count(), 1);
        assert_eq!(nominal, deduped);
    }

    /// Every candidate of `schemes` placed, routed and priced in full
    /// through the public decomposition, and the first of the cheapest
    /// kept under strict `<`.
    fn reference_plan(p: &Planner, schemes: &[Vec<usize>], d: &RoutingMatrix) -> Plan {
        let (topo, loads) = (p.topology(), d.expert_loads());
        let mut reference: Option<Plan> = None;
        for scheme in schemes {
            let layout = expert_relocation(scheme, &loads, topo, p.config().capacity);
            let routing = lite_route(topo, d, &layout);
            let predicted =
                time_cost(topo, &routing, p.cost_params()).pipelined(p.config().num_chunks);
            if reference
                .as_ref()
                .is_none_or(|b| predicted.total() < b.predicted.total())
            {
                reference = Some(Plan {
                    layout,
                    routing,
                    predicted,
                });
            }
        }
        reference.expect("at least one scheme")
    }

    /// Both bounds stop candidates that cannot win, and every plan
    /// equals the one all candidates priced in full give. The witness
    /// fires at the Fig. 8 shape (N32, 8 experts, C = 2, ε = 4), and on
    /// `ext-scale`'s N1024 demand it stops all four losers before
    /// Alg. 1. The fan-in bound fires on `fleet-plan`'s dense round 13
    /// (seed 1), whose winner routes 264,840 entries: there the losers'
    /// busiest receiver holds replicas of two sparsely replicated
    /// experts and takes both fan-ins, which no layout-free witness can
    /// see.
    #[test]
    fn bounds_stop_losers_and_keep_the_plan() {
        let p = planner(ReplicaScheme::Both);
        reset_eval_count();
        for seed in 1u64..=10 {
            let d = demand(seed);
            let schemes = p.unique_schemes(p.candidate_schemes(&d));
            assert_eq!(p.plan(&d), reference_plan(&p, &schemes, &d), "seed {seed}");
        }
        assert!(
            stop_counts()[0] > 0,
            "witness never fired: {:?}",
            stop_counts()
        );

        // The N1024 planner of `ext-scale` and `fleet-plan`: 128 nodes of
        // 8, 16 experts, C = 2, ε = 8, the latency-aware E16k4/A100 Eq. 2.
        let params = CostParams::from_model(
            &laer_model::ModelPreset::Mixtral8x7bE16k4.config(),
            laer_model::GpuSpec::a100(),
            false,
        )
        .with_latency_aware(true);
        let p = Planner::new(
            PlannerConfig::new(2).with_epsilon(8),
            params,
            Topology::new(128, 8).unwrap(),
        );
        let d =
            RoutingGenerator::new(RoutingGeneratorConfig::new(1024, 16, 16 * 1024).with_seed(33))
                .next_iteration();
        let schemes = p.unique_schemes(p.candidate_schemes(&d));
        reset_eval_count();
        assert_eq!(p.plan(&d), reference_plan(&p, &schemes, &d));
        assert_eq!(eval_count(), schemes.len());
        assert_eq!(stop_counts(), [4, 0], "ext-scale N1024");

        let d = RoutingGenerator::new(
            RoutingGeneratorConfig::new(1024, 16, 16 * 1024)
                .with_profile(laer_routing::DatasetProfile::Wikitext)
                .with_seed((1 << 20) + 13),
        )
        .next_iteration();
        let schemes = p.unique_schemes(p.candidate_schemes(&d));
        reset_eval_count();
        let plan = p.plan(&d);
        assert_eq!(plan.routing.entries().len(), 264_840);
        assert_eq!(plan, reference_plan(&p, &schemes, &d));
        assert_eq!(stop_counts(), [2, 4], "fleet-plan seed 1, round 13");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The witness is a lower bound of every unique candidate's own
        /// total — its layout placed, routed and priced in full — on
        /// flat and racked topologies, with a failed device or a
        /// degraded link, latency on and off, 1–3 chunks, and a
        /// generated and a sparse demand (cells of 0–7 tokens, fewer
        /// than a fallback list's targets).
        #[test]
        fn witness_never_exceeds_a_candidates_total(
            (topo, experts, sparse) in (1usize..=3, 1usize..=3, 1usize..=4, any::<bool>(), 1usize..10)
                .prop_flat_map(|(racks, per_rack, per_node, racked, experts)| {
                    let topo = if racked {
                        Topology::with_racks(racks, per_rack, per_node, 5e9).unwrap()
                    } else {
                        Topology::new(racks * per_rack, per_node).unwrap()
                    };
                    let cells = proptest::collection::vec(0u64..8, topo.num_devices() * experts);
                    (Just(topo), Just(experts), cells)
                }),
            c in 1usize..4,
            epsilon in 1usize..8,
            chunks in 1usize..4,
            seed in 0u64..1_000,
            latency_aware in any::<bool>(),
            (fail, link) in (any::<u64>(), any::<bool>()),
        ) {
            let n = topo.num_devices();
            let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
            let cfg = PlannerConfig::new(c).with_epsilon(epsilon).with_seed(seed).with_num_chunks(chunks);
            let p = Planner::new(cfg, params, topo.clone());
            let generated =
                RoutingGenerator::new(RoutingGeneratorConfig::new(n, experts, 4096).with_seed(seed))
                    .next_iteration();
            let sparse = RoutingMatrix::from_rows(n, experts, sparse).unwrap();
            let mut view = DegradedView::new(topo.clone());
            let (a, b) = (DeviceId::new(fail as usize % n), DeviceId::new((fail >> 32) as usize % n));
            if link {
                view.degrade_link(a, b, 0.5);
            } else if n > 1 {
                view.fail_device(a);
            }
            let active = view.survivors();
            prop_assume!(active.len() * c >= experts);
            for demand in [&generated, &sparse] {
                let loads = demand.expert_loads();
                let mut prices = LinkPrices::new(&view);
                let mut witness = Witness::new(&topo, demand, &mut prices, chunks <= 1);
                for scheme in p.unique_schemes(p.candidate_schemes_for(active.len(), demand)) {
                    let layout = expert_relocation_on(&scheme, &loads, &topo, c, &active);
                    let routing = lite_route(&topo, demand, &layout);
                    let total = time_cost(&view, &routing, &params).pipelined(chunks).total();
                    let floor = witness.total(&scheme, &loads, prices.prices(), &params);
                    prop_assert!(floor <= total, "scheme {:?}: witness {} > total {}", scheme, floor, total);
                }
            }
        }
    }

    #[test]
    fn dedup_schemes_keeps_first_occurrence_order() {
        let schemes = vec![
            vec![2, 1, 1],
            vec![1, 2, 1],
            vec![2, 1, 1],
            vec![1, 1, 2],
            vec![1, 2, 1],
        ];
        assert_eq!(
            planner(ReplicaScheme::Both).unique_schemes(schemes),
            vec![vec![2, 1, 1], vec![1, 2, 1], vec![1, 1, 2]]
        );
    }

    /// Configs serialized before `dedup_disabled` or `predictor` was
    /// dropped still parse to the default configuration, whether or not
    /// they carry an old field.
    #[test]
    fn planner_config_dedup_default_round_trips() {
        let cfg = PlannerConfig::new(2);
        for legacy in [
            "{\"capacity\":2,\"epsilon\":4,\"scheme\":\"Both\",\"seed\":0}",
            "{\"capacity\":2,\"epsilon\":4,\"scheme\":\"Both\",\"seed\":0,\"dedup_disabled\":false}",
            "{\"capacity\":2,\"epsilon\":4,\"scheme\":\"Both\",\"seed\":0,\"predictor\":\"Replay\"}",
        ] {
            let parsed: PlannerConfig = serde_json::from_str(legacy).unwrap();
            assert_eq!(parsed, cfg);
        }
    }

    /// `num_chunks` defaults to the unchunked pricing and older
    /// serialized configs (no field) keep meaning unchunked.
    #[test]
    fn planner_config_num_chunks_defaults_to_unchunked() {
        let cfg = PlannerConfig::new(2);
        assert_eq!(cfg.num_chunks, 0);
        let legacy = "{\"capacity\":2,\"epsilon\":4,\"scheme\":\"Both\",\"seed\":0}";
        let parsed: PlannerConfig = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed.num_chunks, 0);
        assert_eq!(PlannerConfig::new(2).with_num_chunks(0).num_chunks, 1);
    }

    /// Chunked pricing never worsens a plan's predicted cost, keeps the
    /// same layout search space, and at one chunk is bit-identical to
    /// the unchunked planner.
    #[test]
    fn chunked_pricing_identity_and_improvement() {
        let base = planner(ReplicaScheme::Both);
        let d = demand(4);
        let whole = base.plan(&d);
        let one = base.clone().with_num_chunks(1).plan(&d);
        assert_eq!(whole, one, "one chunk must not change the plan");
        let four = base.clone().with_num_chunks(4).plan(&d);
        assert!(
            four.predicted.total() <= whole.predicted.total() + 1e-15,
            "pipelined pricing must not increase predicted cost"
        );
        assert_eq!(four.predicted.comp, whole.predicted.comp);
        // The degraded path prices with the same chunk count.
        let degraded = base
            .clone()
            .with_num_chunks(4)
            .plan_degraded(&d, &DegradedView::new(Topology::paper_cluster()))
            .unwrap();
        assert_eq!(
            degraded.predicted.total().to_bits(),
            four.predicted.total().to_bits()
        );
    }

    #[test]
    fn epsilon_one_keeps_base_scheme() {
        let p = Planner::new(
            PlannerConfig::new(2)
                .with_scheme(ReplicaScheme::PqOnly)
                .with_epsilon(1),
            CostParams::mixtral_8x7b(),
            Topology::paper_cluster(),
        );
        let d = demand(9);
        let schemes = p.candidate_schemes(&d);
        assert_eq!(schemes.len(), 1);
        assert_eq!(schemes[0], replica_allocation(&d.expert_loads(), 32, 2));
    }

    #[test]
    fn plan_degraded_places_on_survivors_only() {
        use laer_cluster::{DegradedView, DeviceId};
        let p = planner(ReplicaScheme::Both);
        let d = demand(5);
        let mut view = DegradedView::new(Topology::paper_cluster());
        view.fail_device(DeviceId::new(7));
        view.fail_device(DeviceId::new(20));
        let plan = p.plan_degraded(&d, &view).unwrap();
        let survivors = view.survivors();
        assert!(plan.layout.validate_on(&survivors).is_ok());
        assert_eq!(plan.layout.device_slots_used(DeviceId::new(7)), 0);
        assert_eq!(plan.layout.device_slots_used(DeviceId::new(20)), 0);
        assert_eq!(plan.layout.total_replicas(), 30 * 2);
        // No token is routed to a failed device.
        for &(_, _, dst, _) in plan.routing.entries() {
            assert!(!view.is_failed(dst), "token routed to failed {dst}");
        }
        // Nominal view reproduces the standard plan's layout.
        let nominal = p
            .plan_degraded(&d, &DegradedView::new(Topology::paper_cluster()))
            .unwrap();
        assert_eq!(nominal.layout, p.plan(&d).layout);
    }

    #[test]
    fn plan_degraded_prices_weak_links() {
        use laer_cluster::{DegradedView, DeviceId};
        let p = planner(ReplicaScheme::Both);
        let d = demand(6);
        let mut view = DegradedView::new(Topology::paper_cluster());
        for i in 8..16 {
            for j in 0..8 {
                view.degrade_link(DeviceId::new(i), DeviceId::new(j), 0.2);
            }
        }
        let nominal = p
            .plan_degraded(&d, &DegradedView::new(Topology::paper_cluster()))
            .unwrap();
        let degraded = p.plan_degraded(&d, &view).unwrap();
        // The degraded network can only raise the predicted cost.
        assert!(degraded.predicted.total() >= nominal.predicted.total() - 1e-12);
    }

    #[test]
    fn plan_degraded_typed_failures() {
        use laer_cluster::{DegradedView, DeviceId};
        let topo = Topology::single_node(4).unwrap();
        let p = Planner::new(
            PlannerConfig::new(2),
            CostParams::mixtral_8x7b(),
            topo.clone(),
        );
        let d = RoutingGenerator::new(RoutingGeneratorConfig::new(4, 8, 1024).with_seed(1))
            .next_iteration();
        // 4 devices x C=2 exactly hosts 8 experts; losing one device
        // makes every-expert-alive unsatisfiable.
        let mut view = DegradedView::new(topo.clone());
        view.fail_device(DeviceId::new(0));
        assert!(matches!(
            p.plan_degraded(&d, &view),
            Err(PlanError::InsufficientCapacity {
                survivors: 3,
                capacity: 2,
                experts: 8
            })
        ));
        let mut all = DegradedView::new(topo);
        for i in 0..4 {
            all.fail_device(DeviceId::new(i));
        }
        assert!(matches!(
            p.plan_degraded(&d, &all),
            Err(PlanError::NoSurvivors)
        ));
    }

    #[test]
    fn perturbation_preserves_invariants() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = vec![8usize, 4, 2, 1, 1];
        for _ in 0..100 {
            let p = perturb(base.clone(), &mut rng);
            assert_eq!(p.iter().sum::<usize>(), 16);
            assert!(p.iter().all(|&r| r >= 1));
        }
    }
}
