//! Property-based tests for the planner's core invariants: the
//! optimisation problem's constraints (Eqs. 3–4 of the paper) must hold
//! for *every* routing distribution, replica scheme and topology, not
//! just the unit-test examples.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use laer_cluster::{DegradedView, DeviceId, ExpertId, Topology};
use laer_planner::{
    even_replicas, expert_relocation, lite_route, refine_layout, refine_layout_scratch,
    replica_allocation, CostParams, IncrementalCost, LoadPredictor, Planner, PlannerConfig,
    Predictor, ReplayPredictor,
};
use laer_routing::{RoutingGenerator, RoutingGeneratorConfig, RoutingMatrix, RoutingTrace};
use proptest::prelude::*;

/// Strategy: a routing matrix for `devices × experts` with entries in
/// `0..max_tokens`.
fn demand_strategy(
    devices: usize,
    experts: usize,
    max_tokens: u64,
) -> impl Strategy<Value = RoutingMatrix> {
    proptest::collection::vec(0..max_tokens, devices * experts)
        .prop_map(move |data| RoutingMatrix::from_rows(devices, experts, data).expect("shape"))
}

/// Strategy: a small two-level topology.
fn topo_strategy() -> impl Strategy<Value = Topology> {
    (1usize..=4, 1usize..=4).prop_map(|(nodes, dpn)| Topology::new(nodes, dpn).expect("non-empty"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Alg. 4 output: every expert keeps ≥1 replica and the total is
    /// exactly N·C — for any load vector.
    #[test]
    fn replica_allocation_invariants(
        loads in proptest::collection::vec(0u64..100_000, 1..16),
        n in 1usize..64,
        c in 1usize..4,
    ) {
        prop_assume!(n * c >= loads.len());
        let rep = replica_allocation(&loads, n, c);
        prop_assert_eq!(rep.len(), loads.len());
        prop_assert_eq!(rep.iter().sum::<usize>(), n * c);
        prop_assert!(rep.iter().all(|&r| r >= 1));
        let even = even_replicas(&loads, n, c);
        prop_assert_eq!(even.iter().sum::<usize>(), n * c);
        prop_assert!(even.iter().all(|&r| r >= 1));
    }

    /// Alg. 4 grants replicas monotonically with load: a strictly
    /// heavier expert never gets fewer replicas than a lighter one.
    #[test]
    fn replica_allocation_is_monotone(
        loads in proptest::collection::vec(0u64..100_000, 2..10),
        c in 1usize..4,
    ) {
        let n = 16usize;
        prop_assume!(n * c >= loads.len());
        let rep = replica_allocation(&loads, n, c);
        for i in 0..loads.len() {
            for j in 0..loads.len() {
                if loads[i] > loads[j] {
                    prop_assert!(
                        rep[i] + 1 >= rep[j],
                        "load {} got {} replicas, load {} got {}",
                        loads[i], rep[i], loads[j], rep[j]
                    );
                }
            }
        }
    }

    /// Alg. 1 output is always a structurally valid layout (corrected
    /// constraint 3: every device filled to C, no orphan experts).
    #[test]
    fn relocation_produces_valid_layouts(
        topo in topo_strategy(),
        loads in proptest::collection::vec(0u64..50_000, 2..12),
        c in 1usize..4,
    ) {
        let n = topo.num_devices();
        prop_assume!(n * c >= loads.len());
        let rep = replica_allocation(&loads, n, c);
        let layout = expert_relocation(&rep, &loads, &topo, c);
        prop_assert!(layout.validate().is_ok());
        prop_assert_eq!(layout.replica_vector(), rep);
    }

    /// Alg. 3 satisfies constraint 4 for any demand and any valid
    /// layout: every token reaches a device hosting its expert, and
    /// token counts are conserved.
    #[test]
    fn lite_routing_satisfies_constraints(
        topo in topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..8),
        c in 1usize..3,
        demand_scale in 1u64..2000,
    ) {
        let n = topo.num_devices();
        let e = seed_loads.len();
        prop_assume!(n * c >= e);
        let rep = replica_allocation(&seed_loads, n, c);
        let layout = expert_relocation(&rep, &seed_loads, &topo, c);
        // Demand derived from the seed loads, scaled.
        let mut demand = RoutingMatrix::zeros(n, e).expect("shape");
        for i in 0..n {
            for (j, &l) in seed_loads.iter().enumerate() {
                demand.set(
                    DeviceId::new(i),
                    ExpertId::new(j),
                    (l * demand_scale + i as u64) % 5000,
                );
            }
        }
        let routing = lite_route(&topo, &demand, &layout);
        prop_assert!(routing.validate(&demand, &layout).is_ok());
        // Compute loads conserve the total demand.
        let total: u64 = routing.device_compute_loads().iter().sum();
        prop_assert_eq!(total, demand.total());
    }

    /// The full planner produces valid plans with non-negative predicted
    /// costs for arbitrary demands, and the plan never has *higher*
    /// straggler load than the classic static layout.
    #[test]
    fn planner_plans_are_valid_and_no_worse(
        demand in demand_strategy(8, 8, 5000),
        // ε ≥ 2 keeps both base schemes in the candidate set (ε = 1
        // truncates to the proportional scheme alone).
        epsilon in 2usize..6,
    ) {
        let topo = Topology::new(2, 4).expect("2x4");
        let planner = Planner::new(
            PlannerConfig::new(2).with_epsilon(epsilon),
            CostParams::mixtral_8x7b(),
            topo.clone(),
        );
        let plan = planner.plan(&demand);
        prop_assert!(plan.layout.validate().is_ok());
        prop_assert!(plan.routing.validate(&demand, &plan.layout).is_ok());
        prop_assert!(plan.predicted.comm >= 0.0);
        prop_assert!(plan.predicted.comp >= 0.0);
        // Guaranteed by construction: the tuner's pick is never worse
        // (under the Eq. 2 objective) than the relocated even-allocation
        // candidate, which is always in the Both candidate set.
        let loads = demand.expert_loads();
        let even = even_replicas(&loads, 8, 2);
        let even_layout = expert_relocation(&even, &loads, &topo, 2);
        let even_routing = lite_route(&topo, &demand, &even_layout);
        let even_cost =
            laer_planner::cost::time_cost(&topo, &even_routing, planner.cost_params());
        prop_assert!(
            plan.predicted.total() <= even_cost.total() + 1e-12,
            "plan {} vs even candidate {}",
            plan.predicted.total(),
            even_cost.total()
        );
    }

    /// On a healthy cluster the degraded entry point places on the same
    /// devices and prices on an identical network, so it must return the
    /// nominal plan bit for bit.
    #[test]
    fn plan_degraded_on_healthy_view_equals_plan(
        topo in topo_strategy(),
        experts in 1usize..12,
        c in 1usize..4,
        seed in 0u64..1_000,
        latency_aware in any::<bool>(),
    ) {
        prop_assume!(topo.num_devices() * c >= experts);
        let cfg = RoutingGeneratorConfig::new(topo.num_devices(), experts, 4096).with_seed(seed);
        let demand = RoutingGenerator::new(cfg).next_iteration();
        let planner = Planner::new(
            PlannerConfig::new(c).with_seed(seed),
            CostParams::mixtral_8x7b().with_latency_aware(latency_aware),
            topo.clone(),
        );
        let plan = planner.plan(&demand);
        let degraded = planner
            .plan_degraded(&demand, &DegradedView::new(topo))
            .expect("healthy cluster");
        prop_assert_eq!(&degraded.layout, &plan.layout);
        prop_assert_eq!(degraded.routing.entries(), plan.routing.entries());
        prop_assert_eq!(degraded.predicted.comm.to_bits(), plan.predicted.comm.to_bits());
        prop_assert_eq!(degraded.predicted.comp.to_bits(), plan.predicted.comp.to_bits());
    }

    /// The load predictor's output is always a valid matrix with totals
    /// between the observed extremes.
    #[test]
    fn predictor_stays_in_observed_range(
        a in demand_strategy(4, 4, 1000),
        b in demand_strategy(4, 4, 1000),
        alpha in 0.1f64..1.0,
    ) {
        let mut p = LoadPredictor::new(alpha);
        p.observe(&a).expect("first observation");
        p.observe(&b).expect("same shape");
        let pred = p.predict().expect("warm");
        prop_assert_eq!(pred.num_devices(), 4);
        let lo = a.total().min(b.total());
        let hi = a.total().max(b.total());
        // Rounding may stray by at most one per cell.
        let cells = 16u64;
        prop_assert!(pred.total() + cells >= lo && pred.total() <= hi + cells);
    }

    /// The incremental evaluator tracks the from-scratch
    /// `lite_route` + `time_cost` oracle through any random sequence of
    /// retarget / swap / revert operations — to 1e-9 on totals and in
    /// fact bit-for-bit, the contract the refine/exact rewires rely on.
    #[test]
    fn incremental_cost_tracks_oracle_through_random_moves(
        topo in topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..8),
        c in 1usize..3,
        demand_scale in 1u64..2000,
        op_seed in 0u64..10_000,
        latency_aware in any::<bool>(),
    ) {
        let n = topo.num_devices();
        let e = seed_loads.len();
        prop_assume!(n * c >= e);
        let rep = replica_allocation(&seed_loads, n, c);
        let layout = expert_relocation(&rep, &seed_loads, &topo, c);
        let mut demand = RoutingMatrix::zeros(n, e).expect("shape");
        for i in 0..n {
            for (j, &l) in seed_loads.iter().enumerate() {
                demand.set(
                    DeviceId::new(i),
                    ExpertId::new(j),
                    (l * demand_scale + i as u64) % 5000,
                );
            }
        }
        let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
        let mut inc = IncrementalCost::new(&topo, &demand, &layout, &params);
        // Reference state evolved in lockstep, plus a history stack for
        // revert.
        let mut reference = layout.clone();
        let mut history: Vec<laer_planner::ExpertLayout> = Vec::new();
        // Tiny deterministic xorshift for op choices.
        let mut state = op_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let idx = |d: usize, j: usize| d * e + j;
        for _ in 0..12 {
            match next(3) {
                0 => {
                    // Retarget under the refiner's guards.
                    let mut moves = Vec::new();
                    for d in 0..n {
                        for a in 0..e {
                            if reference.replica_count(DeviceId::new(d), ExpertId::new(a)) == 0
                                || reference.expert_replicas(ExpertId::new(a)) < 2
                            {
                                continue;
                            }
                            for b in 0..e {
                                if a != b
                                    && reference
                                        .replica_count(DeviceId::new(d), ExpertId::new(b))
                                        == 0
                                {
                                    moves.push((d, a, b));
                                }
                            }
                        }
                    }
                    if moves.is_empty() {
                        continue;
                    }
                    let (d, a, b) = moves[next(moves.len() as u64) as usize];
                    inc.apply_retarget(DeviceId::new(d), ExpertId::new(a), ExpertId::new(b));
                    history.push(reference.clone());
                    let mut counts = reference.replica_counts().to_vec();
                    counts[idx(d, a)] -= 1;
                    counts[idx(d, b)] += 1;
                    reference =
                        laer_planner::ExpertLayout::from_counts(n, e, c, counts).expect("shape");
                }
                1 => {
                    // Swap under the refiner's guards.
                    let mut moves = Vec::new();
                    for d1 in 0..n {
                        for d2 in (d1 + 1)..n {
                            for a in 0..e {
                                if reference
                                    .replica_count(DeviceId::new(d1), ExpertId::new(a))
                                    == 0
                                {
                                    continue;
                                }
                                for b in 0..e {
                                    if a == b
                                        || reference
                                            .replica_count(DeviceId::new(d2), ExpertId::new(b))
                                            == 0
                                        || reference
                                            .replica_count(DeviceId::new(d1), ExpertId::new(b))
                                            > 0
                                        || reference
                                            .replica_count(DeviceId::new(d2), ExpertId::new(a))
                                            > 0
                                    {
                                        continue;
                                    }
                                    moves.push((d1, a, d2, b));
                                }
                            }
                        }
                    }
                    if moves.is_empty() {
                        continue;
                    }
                    let (d1, a, d2, b) = moves[next(moves.len() as u64) as usize];
                    inc.apply_swap(
                        DeviceId::new(d1),
                        ExpertId::new(a),
                        DeviceId::new(d2),
                        ExpertId::new(b),
                    );
                    history.push(reference.clone());
                    let mut counts = reference.replica_counts().to_vec();
                    counts[idx(d1, a)] -= 1;
                    counts[idx(d2, b)] -= 1;
                    counts[idx(d1, b)] += 1;
                    counts[idx(d2, a)] += 1;
                    reference =
                        laer_planner::ExpertLayout::from_counts(n, e, c, counts).expect("shape");
                }
                _ => {
                    let popped = history.pop();
                    prop_assert_eq!(inc.revert(), popped.is_some());
                    if let Some(prev) = popped {
                        reference = prev;
                    }
                }
            }
            prop_assert_eq!(&inc.layout(), &reference);
            let got = inc.cost();
            let oracle_routing = lite_route(&topo, &demand, &reference);
            let want = laer_planner::cost::time_cost(&topo, &oracle_routing, &params);
            prop_assert!((got.total() - want.total()).abs() <= 1e-9);
            prop_assert_eq!(got.comm.to_bits(), want.comm.to_bits());
            prop_assert_eq!(got.comp.to_bits(), want.comp.to_bits());
        }
        // Materialised routing is entry-identical at the final state.
        let materialized = inc.routing();
        let oracle = lite_route(&topo, &demand, &reference);
        prop_assert_eq!(materialized.entries(), oracle.entries());
    }

    /// The delta-probing refiner selects bit-identically to the
    /// from-scratch reference implementation for arbitrary instances
    /// and budgets.
    #[test]
    fn refine_delta_matches_scratch_oracle(
        topo in topo_strategy(),
        seed_loads in proptest::collection::vec(1u64..1000, 2..8),
        c in 1usize..3,
        demand_scale in 1u64..2000,
        budget in 0usize..250,
        latency_aware in any::<bool>(),
    ) {
        let n = topo.num_devices();
        let e = seed_loads.len();
        prop_assume!(n * c >= e);
        let rep = replica_allocation(&seed_loads, n, c);
        let layout = expert_relocation(&rep, &seed_loads, &topo, c);
        let mut demand = RoutingMatrix::zeros(n, e).expect("shape");
        for i in 0..n {
            for (j, &l) in seed_loads.iter().enumerate() {
                demand.set(
                    DeviceId::new(i),
                    ExpertId::new(j),
                    (l * demand_scale + i as u64) % 5000,
                );
            }
        }
        let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
        let delta = refine_layout(&topo, &demand, &layout, &params, budget);
        let scratch = refine_layout_scratch(&topo, &demand, &layout, &params, budget);
        prop_assert_eq!(&delta.layout, &scratch.layout);
        prop_assert_eq!(delta.routing.entries(), scratch.routing.entries());
        prop_assert_eq!(delta.cost.comm.to_bits(), scratch.cost.comm.to_bits());
        prop_assert_eq!(delta.cost.comp.to_bits(), scratch.cost.comp.to_bits());
        prop_assert_eq!(delta.moves_accepted, scratch.moves_accepted);
        prop_assert_eq!(delta.probes_evaluated, scratch.probes_evaluated);
    }

    /// A `ReplayPredictor` over a recorded trace reproduces the
    /// recorded matrices verbatim at noise 0 — after observing
    /// iteration `i` it predicts exactly the recorded demand of
    /// `i + 1`, which is what makes its audit error vanish.
    #[test]
    fn replay_reproduces_recorded_trace(
        devices in 1usize..5,
        experts in 1usize..6,
        budget in 1u64..2_000,
        seed in 0u64..10_000,
        iters in 1usize..6,
    ) {
        let cfg = RoutingGeneratorConfig::new(devices, experts, budget).with_seed(seed);
        let trace = RoutingTrace::record(cfg, iters);
        let mut p = ReplayPredictor::new(trace.clone(), 0.0, seed);
        let first = p.predict();
        prop_assert_eq!(first.as_ref(), trace.get(0));
        for i in 0..trace.len() {
            p.observe(trace.get(i).expect("recorded")).expect("same shape");
            if i + 1 < trace.len() {
                let served = p.predict();
                prop_assert_eq!(served.as_ref(), trace.get(i + 1));
            }
        }
    }
}
