//! Cross-system integration: every evaluated system produces valid,
//! executable plans on shared workloads, and the relative orderings the
//! paper reports hold across seeds and model variants.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use laer_moe::prelude::*;
use laer_moe::systems::{FasterMoeSystem, SmartMoeSystem};

fn ctx(preset: ModelPreset) -> SystemContext {
    SystemContext::new(
        Topology::paper_cluster(),
        preset.config(),
        GpuSpec::a100(),
        16 * 1024,
        8192,
    )
}

fn all_systems(preset: ModelPreset, layers: usize) -> Vec<Box<dyn MoeSystem>> {
    vec![
        Box::new(LaerSystem::new(ctx(preset))),
        Box::new(FlexMoeSystem::new(ctx(preset), layers)),
        Box::new(FsdpEpSystem::new(ctx(preset))),
        Box::new(MegatronSystem::new(ctx(preset))),
        Box::new(VanillaEpSystem::new(ctx(preset))),
        Box::new(SmartMoeSystem::new(ctx(preset), layers, 10)),
        Box::new(FasterMoeSystem::new(ctx(preset), 1)),
    ]
}

/// Every system, every preset family, several iterations: plans always
/// satisfy the routing constraints and carry complete timing vectors.
#[test]
fn every_system_produces_valid_plans() {
    for preset in [ModelPreset::Mixtral8x7bE8k2, ModelPreset::Mixtral8x7bE16k4] {
        let cfg = preset.config();
        let mut systems = all_systems(preset, 2);
        let mut gen = RoutingGenerator::new(
            RoutingGeneratorConfig::new(32, cfg.experts(), 32 * 1024).with_seed(99),
        );
        for iter in 0..4 {
            let demand = gen.next_iteration();
            for sys in &mut systems {
                let plan = sys.plan_layer(0, iter, &demand);
                plan.routing
                    .validate(&demand, &plan.layout)
                    .unwrap_or_else(|e| panic!("{}: {e}", sys.name()));
                assert_eq!(plan.timings.dispatch.len(), 32, "{}", sys.name());
                assert_eq!(plan.timings.expert_forward.len(), 32, "{}", sys.name());
                assert!(plan.timings.attention > 0.0, "{}", sys.name());
                assert!(plan.max_token_ratio() >= 1.0, "{}", sys.name());
            }
        }
    }
}

/// The balance ordering of Fig. 10(b) holds in aggregate across seeds:
/// LAER ≤ FlexMoE ≤ static EP on max-token ratio.
#[test]
fn balance_ordering_across_seeds() {
    for seed in [3u64, 17, 91] {
        let preset = ModelPreset::Mixtral8x7bE8k2;
        let mut laer = LaerSystem::new(ctx(preset));
        let mut flex = FlexMoeSystem::new(ctx(preset), 1);
        let mut fsdp = FsdpEpSystem::new(ctx(preset));
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(seed));
        let (mut s_laer, mut s_flex, mut s_fsdp) = (0.0, 0.0, 0.0);
        for iter in 0..12 {
            let demand = gen.next_iteration();
            s_laer += laer.plan_layer(0, iter, &demand).max_token_ratio();
            s_flex += flex.plan_layer(0, iter, &demand).max_token_ratio();
            s_fsdp += fsdp.plan_layer(0, iter, &demand).max_token_ratio();
        }
        assert!(
            s_laer < s_flex && s_flex < s_fsdp,
            "seed {seed}: LAER {s_laer:.2} < FLEX {s_flex:.2} < FSDP {s_fsdp:.2} violated"
        );
    }
}

/// End-to-end throughput ordering across both dataset profiles: LAER
/// beats every baseline on skewed routing.
#[test]
fn throughput_ordering_on_both_datasets() {
    for dataset in [DatasetProfile::Wikitext, DatasetProfile::C4] {
        let mk = |system| {
            ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, system)
                .with_layers(4)
                .with_iterations(8, 3)
                .with_dataset(dataset)
                .with_seed(41)
        };
        let laer = run_experiment(&mk(SystemKind::Laer));
        for baseline in [SystemKind::Flex, SystemKind::FsdpEp, SystemKind::Megatron] {
            let r = run_experiment(&mk(baseline));
            assert!(
                laer.tokens_per_second > r.tokens_per_second,
                "{dataset:?}: LAER {} <= {} {}",
                laer.tokens_per_second,
                baseline.id(),
                r.tokens_per_second
            );
        }
    }
}

/// With a strongly balanced workload (high aux weight) LAER's advantage
/// over FSDP+EP shrinks — Sec. 7's "Performance in Balanced Scenarios".
#[test]
fn balanced_workloads_shrink_the_gap() {
    let mk = |system, aux: f64| {
        ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, system)
            .with_layers(4)
            .with_iterations(8, 3)
            .with_aux_loss(aux)
            .with_seed(43)
    };
    let speedup = |aux: f64| {
        let laer = run_experiment(&mk(SystemKind::Laer, aux));
        let fsdp = run_experiment(&mk(SystemKind::FsdpEp, aux));
        laer.tokens_per_second / fsdp.tokens_per_second
    };
    let skewed = speedup(0.0);
    let balanced = speedup(1.0);
    assert!(
        balanced < skewed,
        "gap should shrink when balanced: {balanced:.3} vs {skewed:.3}"
    );
    assert!(
        balanced < 1.25,
        "near-balanced speedup should be modest, got {balanced:.3}"
    );
}

/// SmartMoE (periodic relocation) and FasterMoE (shadowing) sit between
/// the static baseline and LAER on balance.
#[test]
fn related_work_baselines_are_intermediate() {
    let preset = ModelPreset::Mixtral8x7bE8k2;
    let mut laer = LaerSystem::new(ctx(preset));
    let mut smart = SmartMoeSystem::new(ctx(preset), 1, 10);
    let mut faster = FasterMoeSystem::new(ctx(preset), 1);
    let mut fsdp = FsdpEpSystem::new(ctx(preset));
    let mut gen =
        RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(53));
    let (mut s_laer, mut s_smart, mut s_faster, mut s_fsdp) = (0.0, 0.0, 0.0, 0.0);
    for iter in 0..20 {
        let demand = gen.next_iteration();
        s_laer += laer.plan_layer(0, iter, &demand).max_token_ratio();
        s_smart += smart.plan_layer(0, iter, &demand).max_token_ratio();
        s_faster += faster.plan_layer(0, iter, &demand).max_token_ratio();
        s_fsdp += fsdp.plan_layer(0, iter, &demand).max_token_ratio();
    }
    assert!(
        s_laer < s_smart,
        "LAER {s_laer:.1} vs SmartMoE {s_smart:.1}"
    );
    assert!(
        s_smart < s_fsdp,
        "SmartMoE {s_smart:.1} vs FSDP {s_fsdp:.1}"
    );
    assert!(
        s_faster < s_fsdp,
        "FasterMoE {s_faster:.1} vs FSDP {s_fsdp:.1}"
    );
}

/// One capacity event of the shared LAER-loop suite.
#[derive(Debug, Clone, Copy)]
enum Event {
    Fail(usize),
    Rejoin(usize),
    Degrade(usize, f64),
    TogglePlanner,
}

fn event((kind, device, factor): (u8, usize, f64)) -> Event {
    match kind {
        0 => Event::Fail(device),
        1 => Event::Rejoin(device),
        2 => Event::Degrade(device, factor),
        _ => Event::TogglePlanner,
    }
}

/// The network a loop sees: its failed devices plus the degraded links.
fn network(
    topo: &Topology,
    failed: &std::collections::BTreeSet<usize>,
    links: &[(usize, f64)],
) -> laer_moe::cluster::DegradedView {
    let mut view = laer_moe::cluster::DegradedView::new(topo.clone());
    for &d in failed {
        view.fail_device(DeviceId::new(d));
    }
    let n = topo.num_devices();
    for &(a, factor) in links {
        view.degrade_link(DeviceId::new(a), DeviceId::new((a + n / 2) % n), factor);
    }
    view
}

fn assert_avoids(layout: &ExpertLayout, failed: &std::collections::BTreeSet<usize>, what: &str) {
    for &d in failed {
        assert_eq!(
            layout.device_slots_used(DeviceId::new(d)),
            0,
            "{what}: replica on failed device {d}"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// One suite for both LAER loops, which share one layout policy:
    /// training's `LaerSystem` (driven as `FaultRunner` drives it) and
    /// serving's `laer` system go through the same random sequence of
    /// device failures, rejoins, link degradations and planner outages.
    /// After every `Replan` no replica sits on a failed device and no
    /// training token is routed to one; a failure while the planner is
    /// down answers `Restart` on both loops; and a `LaerSystem`
    /// snapshot taken mid-sequence restores and continues
    /// bit-identically.
    #[test]
    fn both_laer_loops_share_the_capacity_rules(
        seed in 0u64..1000,
        events in proptest::collection::vec((0u8..4, 0usize..16, 0.1f64..0.9), 4..12),
        cut in 0usize..12,
    ) {
        use laer_moe::planner::CapacityResponse;
        use std::collections::BTreeSet;

        let topo = Topology::new(2, 8).unwrap();
        let preset = ModelPreset::Mixtral8x7bE8k2;
        let context = || {
            SystemContext::new(topo.clone(), preset.config(), GpuSpec::a100(), 16 * 1024, 8192)
        };
        let capacity = context().capacity();
        let mut train = LaerSystem::new(context());
        let mut restored: Option<LaerSystem> = None;
        let mut serve = ServingSystemKind::Laer.build(
            &topo,
            &preset.config(),
            GpuSpec::a100(),
            capacity,
            1,
            2,
        );
        let mut gen =
            RoutingGenerator::new(RoutingGeneratorConfig::new(16, 8, 32 * 1024).with_seed(seed));
        let (mut train_failed, mut serve_failed) = (BTreeSet::new(), BTreeSet::new());
        let mut links: Vec<(usize, f64)> = Vec::new();
        let mut planner_up = true;
        // Snapshot strictly inside the sequence.
        let cut = 1 + cut % (events.len() - 1);

        for (step, ev) in events.into_iter().map(event).enumerate() {
            if step == cut {
                let mut twin = LaerSystem::new(context());
                twin.restore(&train.snapshot()).unwrap();
                twin.set_planner_available(planner_up);
                restored = Some(twin);
            }
            match ev {
                // Keep at least half the cluster alive: the survivors
                // always host every expert here.
                Event::Fail(d) if train_failed.len().max(serve_failed.len()) < 8 => {
                    let mut trial = train_failed.clone();
                    trial.insert(d);
                    let response = train.handle_device_failures(&network(&topo, &trial, &links));
                    if let Some(twin) = restored.as_mut() {
                        let twin_response =
                            twin.handle_device_failures(&network(&topo, &trial, &links));
                        assert_eq!(twin_response, response);
                    }
                    match response.unwrap() {
                        CapacityResponse::Restart => {
                            assert!(!planner_up, "training restarted with the planner up");
                            // Replacement hardware: the job runs whole again.
                            train_failed.clear();
                        }
                        _ => {
                            assert!(planner_up, "training re-planned with the planner down");
                            train_failed = trial;
                        }
                    }
                    let mut trial = serve_failed.clone();
                    trial.insert(d);
                    match serve.handle_capacity_change(&network(&topo, &trial, &links)) {
                        CapacityResponse::Restart => {
                            assert!(!planner_up, "serving restarted with the planner up");
                            serve.handle_capacity_change(&network(&topo, &serve_failed, &links));
                        }
                        _ => {
                            assert!(planner_up, "serving re-planned with the planner down");
                            serve_failed = trial;
                            assert_avoids(serve.layout(), &serve_failed, "serving after Replan");
                        }
                    }
                }
                Event::Fail(_) => {}
                Event::Rejoin(d) => {
                    train_failed.remove(&d);
                    if serve_failed.remove(&d) {
                        serve.handle_capacity_change(&network(&topo, &serve_failed, &links));
                    }
                }
                Event::Degrade(a, factor) => {
                    links.push((a, factor));
                    serve.handle_capacity_change(&network(&topo, &serve_failed, &links));
                }
                Event::TogglePlanner => {
                    planner_up = !planner_up;
                    train.set_planner_available(planner_up);
                    if let Some(twin) = restored.as_mut() {
                        twin.set_planner_available(planner_up);
                    }
                    serve.set_planner_available(planner_up);
                }
            }

            // Training executes one iteration on the network it sees;
            // the failed devices' tokens are dropped.
            let served = gen.next_iteration();
            let mut demand = served.clone();
            for &d in &train_failed {
                for j in 0..8 {
                    demand.set(DeviceId::new(d), ExpertId::new(j), 0);
                }
            }
            let view = network(&topo, &train_failed, &links);
            let view = (!view.is_nominal()).then_some(view);
            train.context_mut().set_fault_view(view.clone());
            let plan = train.plan_layer(0, step as u64, &demand);
            plan.routing.validate(&demand, &plan.layout).unwrap();
            assert_avoids(&plan.layout, &train_failed, "training");
            for &(_, _, dst, _) in plan.routing.entries() {
                assert!(!train_failed.contains(&dst.index()), "token routed to failed {dst:?}");
            }
            if let Some(twin) = restored.as_mut() {
                twin.context_mut().set_fault_view(view);
                let twin_plan = twin.plan_layer(0, step as u64, &demand);
                assert_eq!(&twin_plan.layout, &plan.layout, "restored layout, step {}", step);
                assert_eq!(twin_plan.routing.entries(), plan.routing.entries());
                assert_eq!(twin_plan.audit, plan.audit, "restored belief, step {}", step);
            }

            // Serving observes one step's traffic on its live devices.
            let mut traffic = served;
            for &d in &serve_failed {
                for j in 0..8 {
                    traffic.set(DeviceId::new(d), ExpertId::new(j), 0);
                }
            }
            serve.observe(step as u64, &traffic);
            assert_avoids(serve.layout(), &serve_failed, "serving");
        }
    }
}
