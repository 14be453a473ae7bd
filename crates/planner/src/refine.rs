//! Local-search refinement of expert layouts — the "more efficient and
//! effective planners" the paper names as future work (Sec. 5.2).
//!
//! Starting from a greedy plan (Alg. 2's output), hill-climb over two
//! move types while the objective improves:
//!
//! * **swap** — exchange one replica slot between two devices;
//! * **retarget** — replace a replica of one expert with a replica of
//!   another on the same device (changes the replica vector).
//!
//! Every accepted move is re-routed with lite routing and re-scored with
//! the Eq. 2 objective, so the search optimises exactly what the tuner
//! optimises. The search is deterministic (first-improvement over a
//! fixed move order) and budget-bounded.
//!
//! Probing runs through [`crate::delta::IncrementalCost`]: a candidate
//! move re-routes only the two affected experts' columns and updates
//! Eq. 2's integer sums by their rows, instead of rebuilding the layout
//! and re-routing all `n·e` cells. The selection is bit-identical to the from-scratch path
//! ([`refine_layout_scratch`], kept as the testing oracle) because the
//! delta evaluator reproduces `lite_route` + `time_cost` bit for bit.
//!
//! **Budget semantics:** `budget` bounds *priced* candidates — moves
//! that reach routing + cost evaluation. Moves rejected by the cheap
//! structural guards (no replica to move, expert would lose its last
//! replica, destination already hosts the expert) cost no budget; they
//! are filtered before the counter. [`RefinedPlan::probes_evaluated`]
//! reports the priced count, which is what the throughput benchmarks
//! meter.

use crate::cost::{time_cost, CostBreakdown, CostParams};
use crate::delta::IncrementalCost;
use crate::layout::ExpertLayout;
use crate::lite_routing::lite_route;
use crate::token_routing::TokenRouting;
use laer_cluster::{DeviceId, ExpertId, Topology};
use laer_routing::RoutingMatrix;

/// Outcome of a refinement pass.
#[derive(Debug, Clone)]
pub struct RefinedPlan {
    /// The refined layout.
    pub layout: ExpertLayout,
    /// Routing under the refined layout.
    pub routing: TokenRouting,
    /// Objective value of the refined plan.
    pub cost: CostBreakdown,
    /// Number of accepted moves.
    pub moves_accepted: usize,
    /// Number of candidate moves priced (routed + costed). Guard-rejected
    /// moves are not counted and consume no budget.
    pub probes_evaluated: usize,
}

/// Hill-climbs `layout` under `demand`, pricing at most `budget`
/// candidate moves. Never returns a plan worse than the input.
///
/// Probes run through the incremental evaluator; the chosen plan is
/// bit-identical to [`refine_layout_scratch`].
///
/// # Panics
///
/// Panics if shapes are inconsistent or the layout is invalid.
pub fn refine_layout(
    topo: &Topology,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
    params: &CostParams,
    budget: usize,
) -> RefinedPlan {
    if let Err(e) = layout.validate() {
        panic!("refine requires a valid layout: {e}");
    }
    let mut inc = IncrementalCost::new(topo, demand, layout, params);
    let mut cost = inc.cost();
    let mut accepted = 0usize;
    let mut evaluated = 0usize;

    // First-improvement search: scan from a consistent snapshot, apply
    // the first improving move, restart the scan on the new layout.
    while evaluated < budget {
        match find_improving_move(&mut inc, cost.total(), budget, &mut evaluated) {
            Some(cand_cost) => {
                cost = cand_cost;
                accepted += 1;
            }
            None => break,
        }
    }
    let refined = inc.layout();
    debug_assert!(refined.validate().is_ok());
    RefinedPlan {
        routing: inc.routing(),
        layout: refined,
        cost,
        moves_accepted: accepted,
        probes_evaluated: evaluated,
    }
}

/// Scans retarget and swap moves over a consistent layout snapshot and
/// applies the first improving candidate, if any, within the budget.
/// Returns the improved cost; on `None` the state is unchanged (every
/// probed move was reverted).
fn find_improving_move(
    inc: &mut IncrementalCost<'_>,
    current_total: f64,
    budget: usize,
    evaluated: &mut usize,
) -> Option<CostBreakdown> {
    let n = inc.layout().num_devices();
    let e = inc.layout().num_experts();
    // Move type 1: retarget a replica (device d: expert a -> b).
    for d in 0..n {
        for a in 0..e {
            if inc.replica_count(DeviceId::new(d), ExpertId::new(a)) == 0
                || inc.expert_replicas(ExpertId::new(a)) < 2
            {
                continue;
            }
            for b in 0..e {
                if a == b || inc.replica_count(DeviceId::new(d), ExpertId::new(b)) > 0 {
                    continue;
                }
                if *evaluated >= budget {
                    return None;
                }
                *evaluated += 1;
                inc.apply_retarget(DeviceId::new(d), ExpertId::new(a), ExpertId::new(b));
                let cand_cost = inc.cost();
                if cand_cost.total() + 1e-12 < current_total {
                    return Some(cand_cost);
                }
                inc.revert();
            }
        }
    }
    // Move type 2: swap replica slots between two devices.
    for d1 in 0..n {
        for d2 in (d1 + 1)..n {
            for a in 0..e {
                if inc.replica_count(DeviceId::new(d1), ExpertId::new(a)) == 0 {
                    continue;
                }
                for b in 0..e {
                    if a == b
                        || inc.replica_count(DeviceId::new(d2), ExpertId::new(b)) == 0
                        || inc.replica_count(DeviceId::new(d1), ExpertId::new(b)) > 0
                        || inc.replica_count(DeviceId::new(d2), ExpertId::new(a)) > 0
                    {
                        continue;
                    }
                    if *evaluated >= budget {
                        return None;
                    }
                    *evaluated += 1;
                    inc.apply_swap(
                        DeviceId::new(d1),
                        ExpertId::new(a),
                        DeviceId::new(d2),
                        ExpertId::new(b),
                    );
                    let cand_cost = inc.cost();
                    if cand_cost.total() + 1e-12 < current_total {
                        return Some(cand_cost);
                    }
                    inc.revert();
                }
            }
        }
    }
    None
}

/// The pre-delta from-scratch refiner: every probe rebuilds the layout,
/// re-routes all cells with `lite_route` and re-scores with `time_cost`.
/// Kept as the reference implementation — the delta path must select
/// bit-identically (tested in `tests/proptests.rs`) — and as the
/// baseline side of the probe-throughput benchmarks.
///
/// # Panics
///
/// As [`refine_layout`].
pub fn refine_layout_scratch(
    topo: &Topology,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
    params: &CostParams,
    budget: usize,
) -> RefinedPlan {
    if let Err(e) = layout.validate() {
        panic!("refine requires a valid layout: {e}");
    }
    let mut current = layout.clone();
    let mut routing = lite_route(topo, demand, &current);
    let mut cost = time_cost(topo, &routing, params);
    let mut accepted = 0usize;
    let mut evaluated = 0usize;
    while evaluated < budget {
        match find_improving_move_scratch(
            topo,
            demand,
            &current,
            cost.total(),
            params,
            budget,
            &mut evaluated,
        ) {
            Some((cand, cand_routing, cand_cost)) => {
                current = cand;
                routing = cand_routing;
                cost = cand_cost;
                accepted += 1;
            }
            None => break,
        }
    }
    debug_assert!(current.validate().is_ok());
    RefinedPlan {
        layout: current,
        routing,
        cost,
        moves_accepted: accepted,
        probes_evaluated: evaluated,
    }
}

/// The from-scratch scan behind [`refine_layout_scratch`].
#[allow(clippy::too_many_arguments)]
fn find_improving_move_scratch(
    topo: &Topology,
    demand: &RoutingMatrix,
    current: &ExpertLayout,
    current_total: f64,
    params: &CostParams,
    budget: usize,
    evaluated: &mut usize,
) -> Option<(ExpertLayout, TokenRouting, CostBreakdown)> {
    let n = current.num_devices();
    let e = current.num_experts();
    for d in 0..n {
        for a in 0..e {
            if current.replica_count(DeviceId::new(d), ExpertId::new(a)) == 0
                || current.expert_replicas(ExpertId::new(a)) < 2
            {
                continue;
            }
            for b in 0..e {
                if a == b || current.replica_count(DeviceId::new(d), ExpertId::new(b)) > 0 {
                    continue;
                }
                if *evaluated >= budget {
                    return None;
                }
                *evaluated += 1;
                let candidate = retarget(current, d, a, b);
                let cand_routing = lite_route(topo, demand, &candidate);
                let cand_cost = time_cost(topo, &cand_routing, params);
                if cand_cost.total() + 1e-12 < current_total {
                    return Some((candidate, cand_routing, cand_cost));
                }
            }
        }
    }
    for d1 in 0..n {
        for d2 in (d1 + 1)..n {
            for a in 0..e {
                if current.replica_count(DeviceId::new(d1), ExpertId::new(a)) == 0 {
                    continue;
                }
                for b in 0..e {
                    if a == b
                        || current.replica_count(DeviceId::new(d2), ExpertId::new(b)) == 0
                        || current.replica_count(DeviceId::new(d1), ExpertId::new(b)) > 0
                        || current.replica_count(DeviceId::new(d2), ExpertId::new(a)) > 0
                    {
                        continue;
                    }
                    if *evaluated >= budget {
                        return None;
                    }
                    *evaluated += 1;
                    let candidate = swap(current, d1, a, d2, b);
                    let cand_routing = lite_route(topo, demand, &candidate);
                    let cand_cost = time_cost(topo, &cand_routing, params);
                    if cand_cost.total() + 1e-12 < current_total {
                        return Some((candidate, cand_routing, cand_cost));
                    }
                }
            }
        }
    }
    None
}

/// Rebuilds `layout` with one replica on device `d` moved from expert
/// `a` to expert `b`.
fn retarget(layout: &ExpertLayout, d: usize, a: usize, b: usize) -> ExpertLayout {
    rebuild(layout, |dev, ex, count| {
        if dev == d && ex == a {
            count - 1
        } else if dev == d && ex == b {
            count + 1
        } else {
            count
        }
    })
}

/// Rebuilds `layout` with device `d1`'s replica of `a` and device
/// `d2`'s replica of `b` exchanged.
fn swap(layout: &ExpertLayout, d1: usize, a: usize, d2: usize, b: usize) -> ExpertLayout {
    rebuild(layout, |dev, ex, count| {
        if (dev == d1 && ex == a) || (dev == d2 && ex == b) {
            count - 1
        } else if (dev == d1 && ex == b) || (dev == d2 && ex == a) {
            count + 1
        } else {
            count
        }
    })
}

fn rebuild(layout: &ExpertLayout, f: impl Fn(usize, usize, i64) -> i64) -> ExpertLayout {
    let mut out = ExpertLayout::empty(
        layout.num_devices(),
        layout.num_experts(),
        layout.capacity(),
    )
    .unwrap_or_else(|_| unreachable!("rebuilding with the source layout's own shape"));
    for d in 0..layout.num_devices() {
        for e in 0..layout.num_experts() {
            let count = layout.replica_count(DeviceId::new(d), ExpertId::new(e)) as i64;
            let new_count = f(d, e, count);
            debug_assert!(new_count >= 0, "move produced negative replica count");
            for _ in 0..new_count {
                out.add_replica(DeviceId::new(d), ExpertId::new(e));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuner::{Planner, PlannerConfig};
    use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};

    fn setup(seed: u64) -> (Topology, RoutingMatrix, CostParams) {
        let topo = Topology::new(2, 4).unwrap();
        let demand = RoutingGenerator::new(RoutingGeneratorConfig::new(8, 8, 8192).with_seed(seed))
            .next_iteration();
        (topo, demand, CostParams::mixtral_8x7b())
    }

    #[test]
    fn refinement_never_hurts() {
        for seed in 1u64..6 {
            let (topo, demand, params) = setup(seed);
            let planner = Planner::new(PlannerConfig::new(2), params, topo.clone());
            let plan = planner.plan(&demand);
            let refined = refine_layout(&topo, &demand, &plan.layout, &params, 2000);
            assert!(refined.layout.validate().is_ok());
            assert!(refined.routing.validate(&demand, &refined.layout).is_ok());
            assert!(
                refined.cost.total() <= plan.predicted.total() + 1e-12,
                "seed {seed}: refined {} vs greedy {}",
                refined.cost.total(),
                plan.predicted.total()
            );
        }
    }

    #[test]
    fn refinement_improves_a_bad_layout() {
        let (topo, demand, params) = setup(7);
        // Start from the static classic layout (ignores the skew).
        let classic = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        let before = time_cost(&topo, &lite_route(&topo, &demand, &classic), &params);
        let refined = refine_layout(&topo, &demand, &classic, &params, 5000);
        assert!(
            refined.cost.total() < before.total() * 0.9,
            "refinement should improve the static layout by >10%: {} -> {}",
            before.total(),
            refined.cost.total()
        );
        assert!(refined.moves_accepted > 0);
    }

    #[test]
    fn zero_budget_is_identity() {
        let (topo, demand, params) = setup(3);
        let classic = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        let refined = refine_layout(&topo, &demand, &classic, &params, 0);
        assert_eq!(refined.layout, classic);
        assert_eq!(refined.moves_accepted, 0);
        assert_eq!(refined.probes_evaluated, 0);
    }

    #[test]
    fn refinement_is_deterministic() {
        let (topo, demand, params) = setup(9);
        let classic = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        let a = refine_layout(&topo, &demand, &classic, &params, 1000);
        let b = refine_layout(&topo, &demand, &classic, &params, 1000);
        assert_eq!(a.layout, b.layout);
        assert_eq!(a.moves_accepted, b.moves_accepted);
        assert_eq!(a.probes_evaluated, b.probes_evaluated);
    }

    /// The delta-probing refiner and the from-scratch oracle walk the
    /// same move sequence and return bit-identical plans, move counts
    /// and probe counts.
    #[test]
    fn delta_selection_is_bit_identical_to_scratch() {
        for seed in [1u64, 4, 7, 9, 12] {
            let (topo, demand, params) = setup(seed);
            let classic = ExpertLayout::classic_ep(8, 8, 2).unwrap();
            for budget in [0usize, 37, 500, 5000] {
                let delta = refine_layout(&topo, &demand, &classic, &params, budget);
                let scratch = refine_layout_scratch(&topo, &demand, &classic, &params, budget);
                assert_eq!(delta.layout, scratch.layout, "seed {seed} budget {budget}");
                assert_eq!(delta.routing.entries(), scratch.routing.entries());
                assert_eq!(delta.cost.comm.to_bits(), scratch.cost.comm.to_bits());
                assert_eq!(delta.cost.comp.to_bits(), scratch.cost.comp.to_bits());
                assert_eq!(delta.moves_accepted, scratch.moves_accepted);
                assert_eq!(delta.probes_evaluated, scratch.probes_evaluated);
            }
        }
    }

    /// Guard-rejected moves consume no budget: with a budget of exactly
    /// one, the single priced probe is the first move that passes the
    /// structural guards, however many guard rejections precede it.
    #[test]
    fn guard_rejections_consume_no_budget() {
        let (topo, demand, params) = setup(2);
        let classic = ExpertLayout::classic_ep(8, 8, 2).unwrap();
        let one = refine_layout(&topo, &demand, &classic, &params, 1);
        assert_eq!(one.probes_evaluated, 1, "exactly the budgeted probe runs");
        // The probe counter never exceeds the budget.
        for budget in [3usize, 10, 100] {
            let r = refine_layout(&topo, &demand, &classic, &params, budget);
            assert!(r.probes_evaluated <= budget);
        }
    }
}
