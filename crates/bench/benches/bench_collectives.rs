//! Criterion bench of the token All-to-All cost model (the simulator's
//! inner loop) on the traffic it actually prices: the routing of
//! `ext-scale`'s plan at fleet scale.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use laer_bench::ext_scale;
use laer_sim::all_to_all_time;

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(20);
    for &gpus in &[1024usize, 4096] {
        let topo = ext_scale::topo_for(gpus);
        let planner = ext_scale::planner_for(topo.clone());
        let routing = planner.plan(&ext_scale::demand_for(gpus)).routing;
        let token_bytes = ext_scale::params_for().v_comm;
        group.bench_with_input(
            BenchmarkId::new("token_a2a", format!("N{gpus}")),
            routing.entries(),
            |b, entries| {
                let traffic = entries.iter().map(|&(src, _, dst, t)| (src, dst, t));
                b.iter(|| all_to_all_time(&topo, traffic.clone(), token_bytes))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_collectives);
criterion_main!(benches);
