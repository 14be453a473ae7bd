//! Property-based tests for the planner's core invariants: the
//! optimisation problem's constraints (Eqs. 3–4 of the paper) must hold
//! for *every* routing distribution, replica scheme and topology, not
//! just the unit-test examples.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use laer_cluster::{DegradedView, DeviceId, ExpertId, Interconnect, NodeId, Topology};
use laer_planner::{
    even_replicas, expert_relocation, expert_relocation_on, lite_route, refine_layout,
    refine_layout_scratch, replica_allocation, time_cost, CostParams, ExpertLayout,
    IncrementalCost, LoadPredictor, Plan, Planner, PlannerConfig, ReplayPredictor, TokenRouting,
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

/// Strategy: a small topology, two-level or with racks.
fn any_topo_strategy() -> impl Strategy<Value = Topology> {
    (1usize..=3, 1usize..=3, 1usize..=4, any::<bool>()).prop_map(|(racks, npr, dpn, racked)| {
        if racked {
            Topology::with_racks(racks, npr, dpn, 5e9).expect("non-empty")
        } else {
            Topology::new(racks * npr, dpn).expect("non-empty")
        }
    })
}

/// The devices of `topo` whose bit in `mask` is clear — or device 0
/// alone when every bit is set.
fn survivors_of(topo: &Topology, mask: u64) -> Vec<DeviceId> {
    let alive: Vec<DeviceId> = topo
        .devices()
        .filter(|d| mask >> d.index() & 1 == 0)
        .collect();
    if alive.is_empty() {
        vec![DeviceId::new(0)]
    } else {
        alive
    }
}

/// Test-only oracle: Alg. 1 as a group scan. For every replica it
/// counts the expert's replicas per node, sorts the nodes by that
/// count, and takes the least-loaded device with spare capacity in the
/// lowest group that has one. `expert_relocation_on` must place every
/// replica exactly where this does.
fn oracle_relocation_on(
    expert_rep: &[usize],
    expert_loads: &[u64],
    topo: &Topology,
    capacity: usize,
    active: &[DeviceId],
) -> ExpertLayout {
    let (e, n) = (expert_rep.len(), topo.num_devices());
    let mut is_active = vec![false; n];
    for d in active {
        is_active[d.index()] = true;
    }
    let mut list: Vec<(usize, f64)> = Vec::new();
    for j in 0..e {
        let avg = expert_loads[j] as f64 / expert_rep[j] as f64;
        list.extend(std::iter::repeat_n((j, avg), expert_rep[j]));
    }
    list.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut layout = ExpertLayout::empty(n, e, capacity).expect("shape");
    let mut slots = vec![0usize; n];
    let mut device_loads = vec![0.0f64; n];
    for (j, load) in list {
        let expert = ExpertId::new(j);
        let node_cnt = layout.node_replica_counts(topo, expert);
        let mut nodes: Vec<usize> = (0..topo.num_nodes()).collect();
        nodes.sort_by_key(|&nid| node_cnt[nid]);
        let device = nodes
            .chunk_by(|&a, &b| node_cnt[a] == node_cnt[b])
            .find_map(|group| {
                group
                    .iter()
                    .flat_map(|&nid| topo.devices_on(NodeId::new(nid)))
                    .filter(|d| is_active[d.index()] && slots[d.index()] < capacity)
                    .min_by(|a, b| {
                        device_loads[a.index()]
                            .total_cmp(&device_loads[b.index()])
                            .then(a.index().cmp(&b.index()))
                    })
            })
            .expect("replica total equals slot total");
        layout.add_replica(device, expert);
        device_loads[device.index()] += load;
        slots[device.index()] += 1;
    }
    layout
}

/// Test-only oracle: Alg. 3 cell by cell. Every `(source, expert)` cell
/// looks up its own target list and sorts every remainder, then deals
/// the leftover tokens round-robin. `lite_route` must emit exactly these
/// entries in exactly this order.
fn oracle_lite_route(
    topo: &Topology,
    demand: &RoutingMatrix,
    layout: &ExpertLayout,
) -> TokenRouting {
    let mut out = TokenRouting::new(demand.num_devices(), demand.num_experts());
    for src in topo.devices() {
        for j in 0..demand.num_experts() {
            let expert = ExpertId::new(j);
            let tokens = demand.get(src, expert);
            if tokens == 0 {
                continue;
            }
            let mut targets: Vec<(DeviceId, u32)> = topo
                .devices_on(topo.node_of(src))
                .map(|d| (d, layout.replica_count(d, expert)))
                .filter(|&(_, c)| c > 0)
                .collect();
            if targets.is_empty() {
                targets = layout.replica_devices(expert);
            }
            let total: u64 = targets.iter().map(|&(_, c)| c as u64).sum();
            let mut shares: Vec<(u64, f64)> = targets
                .iter()
                .map(|&(_, c)| {
                    let exact = tokens as f64 * c as f64 / total as f64;
                    let floor = exact.floor() as u64;
                    (floor, exact - floor as f64)
                })
                .collect();
            let mut order: Vec<usize> = (0..targets.len()).collect();
            order.sort_by(|&a, &b| {
                let (da, db) = (targets[a].0, targets[b].0);
                shares[b]
                    .1
                    .total_cmp(&shares[a].1)
                    .then_with(|| (db == src).cmp(&(da == src)).then(da.cmp(&db)))
            });
            let assigned: u64 = shares.iter().map(|s| s.0).sum();
            for cursor in 0..(tokens - assigned) as usize {
                shares[order[cursor % order.len()]].0 += 1;
            }
            for (&(dst, _), &(count, _)) in targets.iter().zip(&shares) {
                out.push(src, expert, dst, count);
            }
        }
    }
    out
}

/// Alg. 2 through the public decomposition — relocation onto `active`,
/// `lite_route`, `time_cost` on `net`, pipelined — keeping the first
/// strictly cheapest of `schemes`.
fn decomposed_plan<I: Interconnect>(
    planner: &Planner,
    schemes: &[Vec<usize>],
    demand: &RoutingMatrix,
    active: &[DeviceId],
    net: &I,
) -> Plan {
    let topo = planner.topology();
    let cfg = planner.config();
    let loads = demand.expert_loads();
    let mut best: Option<Plan> = None;
    for scheme in schemes {
        let layout = expert_relocation_on(scheme, &loads, topo, cfg.capacity, active);
        let routing = lite_route(topo, demand, &layout);
        let predicted = time_cost(net, &routing, planner.cost_params()).pipelined(cfg.num_chunks);
        if best
            .as_ref()
            .is_none_or(|b| predicted.total() < b.predicted.total())
        {
            best = Some(Plan {
                layout,
                routing,
                predicted,
            });
        }
    }
    best.expect("at least one scheme")
}

/// Asserts two plans agree on layout, every routing entry and the
/// predicted cost's bits.
fn assert_same_plan(got: &Plan, want: &Plan) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.layout, &want.layout);
    prop_assert_eq!(got.routing.entries(), want.routing.entries());
    prop_assert_eq!(got.predicted.comm.to_bits(), want.predicted.comm.to_bits());
    prop_assert_eq!(got.predicted.comp.to_bits(), want.predicted.comp.to_bits());
    Ok(())
}

/// The body of the incremental-evaluator oracle proptests: twelve
/// random retarget / swap / revert steps from a relocated layout, each
/// checked bit for bit against `lite_route` + `time_cost` from scratch.
fn track_oracle_through_random_moves(
    topo: &Topology,
    seed_loads: &[u64],
    c: usize,
    demand_scale: u64,
    op_seed: u64,
    latency_aware: bool,
) -> Result<(), TestCaseError> {
    let n = topo.num_devices();
    let e = seed_loads.len();
    prop_assume!(n * c >= e);
    let rep = replica_allocation(seed_loads, n, c);
    let layout = expert_relocation(&rep, seed_loads, topo, c);
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
    let mut inc = IncrementalCost::new(topo, &demand, &layout, &params);
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
                                && reference.replica_count(DeviceId::new(d), ExpertId::new(b)) == 0
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
                            if reference.replica_count(DeviceId::new(d1), ExpertId::new(a)) == 0 {
                                continue;
                            }
                            for b in 0..e {
                                if a == b
                                    || reference.replica_count(DeviceId::new(d2), ExpertId::new(b))
                                        == 0
                                    || reference.replica_count(DeviceId::new(d1), ExpertId::new(b))
                                        > 0
                                    || reference.replica_count(DeviceId::new(d2), ExpertId::new(a))
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
        let oracle_routing = lite_route(topo, &demand, &reference);
        let want = laer_planner::cost::time_cost(topo, &oracle_routing, &params);
        prop_assert!((got.total() - want.total()).abs() <= 1e-9);
        prop_assert_eq!(got.comm.to_bits(), want.comm.to_bits());
        prop_assert_eq!(got.comp.to_bits(), want.comp.to_bits());
    }
    // Materialised routing is entry-identical at the final state.
    let materialized = inc.routing();
    let oracle = lite_route(topo, &demand, &reference);
    prop_assert_eq!(materialized.entries(), oracle.entries());
    Ok(())
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

    /// The level-at-a-time relocation places every replica where the
    /// group-scan oracle does: any survivor subset, tied loads (few
    /// distinct values, so averages and device loads tie), C = 1–4,
    /// with and without racks, for both base replica schemes.
    #[test]
    fn relocation_matches_group_scan_oracle(
        topo in any_topo_strategy(),
        c in 1usize..=4,
        levels in proptest::collection::vec(0u64..4, 1..12),
        fail_mask in any::<u64>(),
    ) {
        let active = survivors_of(&topo, fail_mask);
        prop_assume!(active.len() * c >= levels.len());
        let loads: Vec<u64> = levels.iter().map(|&l| l * 1000).collect();
        for rep in [
            replica_allocation(&loads, active.len(), c),
            even_replicas(&loads, active.len(), c),
        ] {
            let got = expert_relocation_on(&rep, &loads, &topo, c, &active);
            let want = oracle_relocation_on(&rep, &loads, &topo, c, &active);
            prop_assert_eq!(got, want);
        }
    }

    /// `lite_route` emits the per-cell oracle's entries in its order:
    /// arbitrary layouts (a device may hold two replicas of one expert),
    /// zero-token cells, single-node and one-GPU-per-node shapes. Cells
    /// of up to 2^40 tokens check large cells without overflow and catch
    /// a split of equal lists computed at coarse precision (say `f32`).
    /// With C ≤ 4 they stay inside `equal_shares`' `tokens · count ≤
    /// 2^52` bound, where the integer and `f64` splits provably agree,
    /// so they cannot reach a case where `f64` rounding parts the two.
    #[test]
    fn lite_route_matches_per_cell_oracle(
        (nodes, dpn) in prop_oneof![Just((1usize, 4usize)), Just((4, 1)), (1usize..=4, 1usize..=4)],
        c in 1usize..=4,
        experts in 1usize..8,
        picks in proptest::collection::vec(0usize..64, 64),
        cells in proptest::collection::vec(
            prop_oneof![Just(0u64), 0u64..50, 0u64..5000, 0u64..1 << 40],
            128,
        ),
    ) {
        let topo = Topology::new(nodes, dpn).expect("non-empty");
        let n = topo.num_devices();
        prop_assume!(n * c >= experts);
        let mut layout = ExpertLayout::empty(n, experts, c).expect("shape");
        for d in 0..n {
            for s in 0..c {
                let j = picks[(d * c + s) % picks.len()] % experts;
                layout.add_replica(DeviceId::new(d), ExpertId::new(j));
            }
        }
        let mut demand = RoutingMatrix::zeros(n, experts).expect("shape");
        for i in 0..n {
            for j in 0..experts {
                // Experts without a replica get no demand (they could
                // not be routed).
                if layout.expert_replicas(ExpertId::new(j)) > 0 {
                    demand.set(DeviceId::new(i), ExpertId::new(j), cells[(i * experts + j) % cells.len()]);
                }
            }
        }
        let got = lite_route(&topo, &demand, &layout);
        let want = oracle_lite_route(&topo, &demand, &layout);
        prop_assert_eq!(got.entries(), want.entries());
    }

    /// `plan` and `plan_degraded` return exactly the public
    /// decomposition's first strict minimum — layout, every routing
    /// entry and the cost's bits — on healthy clusters and on ones with
    /// failed devices and degraded links, with and without latency
    /// pricing and pipelining. Besides a generated demand, a sparse one
    /// (cells of 0–7 tokens) makes fallback lists meet senders with
    /// fewer tokens than targets: zero floor shares, remainders only,
    /// fewer messages than targets. Racks give fallback lists that mix
    /// inter-node and inter-rack targets.
    #[test]
    fn plan_matches_public_decomposition(
        (topo, experts, sparse) in (any_topo_strategy(), 1usize..10).prop_flat_map(|(topo, experts)| {
            let n = topo.num_devices();
            (Just(topo), Just(experts), demand_strategy(n, experts, 8))
        }),
        c in 1usize..4,
        epsilon in 1usize..6,
        chunks in 1usize..4,
        seed in 0u64..1_000,
        latency_aware in any::<bool>(),
        fail_mask in any::<u64>(),
        degraded in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.0), 0..4),
    ) {
        let n = topo.num_devices();
        prop_assume!(n * c >= experts);
        let cfg = PlannerConfig::new(c)
            .with_epsilon(epsilon)
            .with_seed(seed)
            .with_num_chunks(chunks);
        let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
        let planner = Planner::new(cfg.clone(), params, topo.clone());
        let generated =
            RoutingGenerator::new(RoutingGeneratorConfig::new(n, experts, 4096).with_seed(seed))
                .next_iteration();
        let all: Vec<DeviceId> = topo.devices().collect();
        for demand in [&generated, &sparse] {
            let schemes = planner.unique_schemes(planner.candidate_schemes(demand));
            assert_same_plan(
                &planner.plan(demand),
                &decomposed_plan(&planner, &schemes, demand, &all, &topo),
            )?;
        }

        let mut view = DegradedView::new(topo.clone());
        for d in topo.devices().filter(|d| fail_mask >> d.index() & 1 == 1) {
            view.fail_device(d);
        }
        for &(a, b, factor) in &degraded {
            view.degrade_link(DeviceId::new(a % n), DeviceId::new(b % n), factor);
        }
        let survivors = view.survivors();
        prop_assume!(survivors.len() * c >= experts);
        // Degraded schemes are sized to the survivor count: a planner
        // over that many devices draws the same candidates.
        let sized = Planner::new(cfg, params, Topology::single_node(survivors.len()).expect("n"));
        for demand in [&generated, &sparse] {
            let schemes = sized.unique_schemes(sized.candidate_schemes(demand));
            assert_same_plan(
                &planner.plan_degraded(demand, &view).expect("enough survivors"),
                &decomposed_plan(&planner, &schemes, demand, &survivors, &view),
            )?;
        }
    }

    /// Eq. 2 depends only on the multiset of a routing's entries:
    /// `time_cost` prices any permutation of them bit for bit the same,
    /// on racked topologies and on degraded views with failed devices
    /// and weakened links, with latency pricing on and off.
    #[test]
    fn time_cost_is_order_free(
        topo in any_topo_strategy(),
        raw in proptest::collection::vec((0usize..64, 0usize..4, 0usize..64, 1u64..100_000), 1..160),
        latency_aware in any::<bool>(),
        fail_mask in any::<u64>(),
        degraded in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.0), 0..4),
        shuffle in any::<u64>(),
    ) {
        let n = topo.num_devices();
        let mut entries: Vec<(DeviceId, ExpertId, DeviceId, u64)> = raw
            .iter()
            .map(|&(s, j, d, t)| (DeviceId::new(s % n), ExpertId::new(j), DeviceId::new(d % n), t))
            .collect();
        let routing_of = |entries: &[(DeviceId, ExpertId, DeviceId, u64)]| {
            let mut routing = TokenRouting::new(n, 4);
            for &(src, expert, dst, tokens) in entries {
                routing.push(src, expert, dst, tokens);
            }
            routing
        };
        let original = routing_of(&entries);
        // Fisher–Yates under a small xorshift.
        let mut state = shuffle | 1;
        for i in (1..entries.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            entries.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let permuted = routing_of(&entries);
        let mut view = DegradedView::new(topo.clone());
        for d in topo.devices().filter(|d| fail_mask >> d.index() & 1 == 1) {
            view.fail_device(d);
        }
        for &(a, b, factor) in &degraded {
            view.degrade_link(DeviceId::new(a % n), DeviceId::new(b % n), factor);
        }
        let params = CostParams::mixtral_8x7b().with_latency_aware(latency_aware);
        for (want, got) in [
            (time_cost(&topo, &original, &params), time_cost(&topo, &permuted, &params)),
            (time_cost(&view, &original, &params), time_cost(&view, &permuted, &params)),
        ] {
            prop_assert_eq!(got.comm.to_bits(), want.comm.to_bits());
            prop_assert_eq!(got.comp.to_bits(), want.comp.to_bits());
        }
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
        track_oracle_through_random_moves(&topo, &seed_loads, c, demand_scale, op_seed, latency_aware)?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same oracle check on clusters of sixteen or more nodes, where
    /// every node tends to hold every expert: a move then re-routes only
    /// the nodes it touches (plus those falling back to the expert's
    /// full replica list), splicing their rows into the cached columns.
    #[test]
    fn incremental_cost_splices_track_oracle_on_many_nodes(
        (nodes, dpn) in (16usize..=24, 1usize..=2),
        seed_loads in proptest::collection::vec(1u64..1000, 2..5),
        c in 1usize..3,
        demand_scale in 1u64..2000,
        op_seed in 0u64..10_000,
        latency_aware in any::<bool>(),
    ) {
        let topo = Topology::new(nodes, dpn).expect("non-empty");
        track_oracle_through_random_moves(&topo, &seed_loads, c, demand_scale, op_seed, latency_aware)?;
    }
}
