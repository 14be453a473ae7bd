//! Criterion bench for the expert layout solver (Fig. 11's quantity):
//! full Alg. 2 plans across cluster sizes and capacities, at the
//! `fleet-plan` benchmark's N1024 shape (a light and a dense demand)
//! and on `ext-scale`'s N4096 instance, plus the fleet-scale hot paths
//! on `ext-scale`'s instances — Alg. 1 relocation, lite routing and
//! refine probes through the incremental vs from-scratch evaluator.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laer_bench::ext_scale;
use laer_cluster::Topology;
use laer_model::{GpuSpec, ModelPreset};
use laer_planner::{
    expert_relocation, lite_route, refine_layout, refine_layout_scratch, replica_allocation,
    CostParams, Planner, PlannerConfig,
};
use laer_routing::{DatasetProfile, RoutingGenerator, RoutingGeneratorConfig, RoutingMatrix};

/// The `ext-scale` sweep's instance at cluster size `gpus`, from its own
/// constructors: 8-GPU nodes, 16 experts, capacity 2, ε = 8, its seeded
/// demand and the latency-aware E16k4/A100 Eq. 2.
fn scale_instance(gpus: usize) -> (Topology, RoutingMatrix, Planner) {
    let topo = ext_scale::topo_for(gpus);
    let planner = ext_scale::planner_for(topo.clone());
    (topo, ext_scale::demand_for(gpus), planner)
}

fn bench_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner_solve");
    for &(gpus, capacity) in &[(8usize, 2usize), (32, 2), (128, 2), (32, 4), (128, 4)] {
        let experts = 8.max(capacity * 4);
        let topo = Topology::new(gpus / 8, 8).expect("cluster");
        let planner = Planner::new(
            PlannerConfig::new(capacity).with_epsilon(2),
            CostParams::mixtral_8x7b(),
            topo,
        );
        let demand = RoutingGenerator::new(
            RoutingGeneratorConfig::new(gpus, experts, 16 * 1024).with_seed(1),
        )
        .next_iteration();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("N{gpus}_C{capacity}")),
            &demand,
            |b, demand| b.iter(|| planner.plan(demand)),
        );
    }
    // The `fleet-plan` benchmark's planner: 128 nodes × 8 GPUs, 16
    // experts, C = 2, ε = 8, the latency-aware E16k4/A100 Eq. 2 and
    // Wikitext-profile demands. Both regimes that set its p90 get a
    // row: a light demand whose winner routes 16,384 entries, and
    // round 13 of seed 1 (its segment generator's first draw), whose
    // winner routes 264,840.
    let topo = Topology::new(128, 8).expect("cluster");
    let params = CostParams::from_model(
        &ModelPreset::Mixtral8x7bE16k4.config(),
        GpuSpec::a100(),
        false,
    )
    .with_latency_aware(true);
    let planner = Planner::new(PlannerConfig::new(2).with_epsilon(8), params, topo);
    let wikitext = |seed| {
        RoutingGenerator::new(
            RoutingGeneratorConfig::new(1024, 16, 16 * 1024)
                .with_profile(DatasetProfile::Wikitext)
                .with_seed(seed),
        )
        .next_iteration()
    };
    group.sample_size(20);
    for (name, seed) in [
        ("fleet_N1024_C2_eps8", 1),
        ("fleet_N1024_dense", (1 << 20) + 13),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &wikitext(seed),
            |b, demand| b.iter(|| planner.plan(demand)),
        );
    }
    // `ext-scale`'s N4096 instance, whose plan-time column this is.
    let (_, demand, planner) = scale_instance(4096);
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::from_parameter("ext_scale_N4096"),
        &demand,
        |b, demand| b.iter(|| planner.plan(demand)),
    );
    group.finish();
}

/// Alg. 1 relocation of the proportional (Alg. 4) scheme on the
/// ext-scale sweep's fleet instances.
fn bench_relocation(c: &mut Criterion) {
    let mut group = c.benchmark_group("expert_relocation");
    group.sample_size(20);
    for &gpus in &[1024usize, 4096] {
        let (topo, demand, _) = scale_instance(gpus);
        let loads = demand.expert_loads();
        let replicas = replica_allocation(&loads, gpus, 2);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("N{gpus}")),
            &replicas,
            |b, replicas| b.iter(|| expert_relocation(replicas, &loads, &topo, 2)),
        );
    }
    group.finish();
}

/// Lite routing (Alg. 3) of the ext-scale sweep's plans.
fn bench_lite_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("lite_route");
    for &gpus in &[64usize, 256, 1024] {
        if gpus >= 1024 {
            group.sample_size(20);
        }
        let (topo, demand, planner) = scale_instance(gpus);
        let layout = planner.plan(&demand).layout;
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("N{gpus}")),
            &demand,
            |b, demand| b.iter(|| lite_route(&topo, demand, &layout)),
        );
    }
    group.finish();
}

/// Refinement probe throughput on the ext-scale sweep's plans: a fixed
/// probe budget through the incremental (delta) evaluator vs the
/// from-scratch reference — the committed `BENCH_planner.json` floor
/// in criterion form.
fn bench_refine_probes(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine_probes");
    group.sample_size(10);
    for &(gpus, budget) in &[(64usize, 200usize), (256, 100), (1024, 50)] {
        let (topo, demand, planner) = scale_instance(gpus);
        let layout = planner.plan(&demand).layout;
        let params = ext_scale::params_for();
        group.bench_with_input(
            BenchmarkId::new("delta", format!("N{gpus}")),
            &demand,
            |b, demand| b.iter(|| refine_layout(&topo, demand, &layout, &params, budget)),
        );
        group.bench_with_input(
            BenchmarkId::new("scratch", format!("N{gpus}")),
            &demand,
            |b, demand| b.iter(|| refine_layout_scratch(&topo, demand, &layout, &params, budget)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plan,
    bench_relocation,
    bench_lite_route,
    bench_refine_probes
);
criterion_main!(benches);
