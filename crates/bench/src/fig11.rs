//! Fig. 11 — performance of the expert layout solver: wall-clock solve
//! time as the cluster scales to 1024 GPUs, against the per-layer
//! iteration-time budget.

use crate::pool::{Batch, Slot};
use laer_cluster::Topology;
use laer_model::ModelPreset;
use laer_planner::{CostParams, Planner, PlannerConfig};
use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured point of Fig. 11.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Point {
    /// Devices `N`.
    pub gpus: usize,
    /// Capacity `C`.
    pub capacity: usize,
    /// Wall-clock milliseconds per layer solve (|ε| = 2).
    pub solve_ms: f64,
}

/// The paper's per-layer budget: average total time per transformer
/// layer of Mixtral-8x7B e8k2 (the grey dashed baseline). We compute it
/// from the simulated end-to-end run of that configuration.
pub fn baseline_layer_ms() -> f64 {
    use laer_baselines::SystemKind;
    use laer_train::{run_experiment, ExperimentConfig};
    let layers = 8;
    let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
        .with_layers(layers)
        .with_iterations(5, 2)
        .with_seed(11);
    let r = run_experiment(&cfg);
    r.avg_iteration_time / layers as f64 * 1e3
}

/// Measures the solver at one `(N, C)` point, averaging `reps` solves.
pub fn measure(gpus: usize, capacity: usize, reps: usize) -> Fig11Point {
    let experts = 8.max(capacity * 4);
    let topo = Topology::new((gpus / 8).max(1), 8.min(gpus))
        .unwrap_or_else(|e| unreachable!("cluster: {e}"));
    let planner = Planner::new(
        // |ε| = 2: proportional + even, as fixed in the paper's Fig. 11.
        PlannerConfig::new(capacity).with_epsilon(2),
        CostParams::mixtral_8x7b(),
        topo,
    );
    let mut gen =
        RoutingGenerator::new(RoutingGeneratorConfig::new(gpus, experts, 16 * 1024).with_seed(11));
    let demands: Vec<_> = (0..reps).map(|_| gen.next_iteration()).collect();
    let start = Instant::now();
    for d in &demands {
        std::hint::black_box(planner.plan(d));
    }
    Fig11Point {
        gpus,
        capacity,
        solve_ms: start.elapsed().as_secs_f64() / reps as f64 * 1e3,
    }
}

/// The figure's sweep: (capacity, GPUs, reps) per point.
fn sweep() -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for &c in &[2usize, 4] {
        for &n in &[8usize, 16, 32, 64, 128, 256, 512, 1024] {
            let reps = if n >= 256 { 3 } else { 10 };
            out.push((c, n, reps));
        }
    }
    out
}

/// The figure's cells — the baseline and every sweep point — pending
/// execution. The solve times are wall-clock, so the *values* vary run
/// to run; only the printed structure is deterministic.
pub struct Pending {
    baseline: Slot<f64>,
    points: Vec<Slot<Fig11Point>>,
}

/// Submits the baseline and every `(N, C)` point to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    let baseline = batch.submit("fig11/baseline", baseline_layer_ms);
    let points = sweep()
        .into_iter()
        .map(|(c, n, reps)| batch.submit(format!("fig11/n{n}/c{c}"), move || measure(n, c, reps)))
        .collect();
    Pending { baseline, points }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<Fig11Point> {
    let baseline = pending.baseline.take();
    println!("Fig. 11: expert layout solver wall-clock time (|ε| = 2)\n");
    println!("baseline (avg simulated time per transformer layer): {baseline:.1} ms\n");
    println!("{:>6} {:>4} {:>12}", "GPUs", "C", "solve (ms)");
    let mut out = Vec::new();
    for slot in pending.points {
        let p = slot.take();
        println!("{:>6} {:>4} {:>12.3}", p.gpus, p.capacity, p.solve_ms);
        out.push(p);
    }
    println!(
        "\nPaper: solve time grows as O(|ε|·N²·C) but stays below the per-layer\n\
         budget even at 1024 GPUs; layers can additionally be solved in parallel."
    );
    crate::output::save_json("fig11", &out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 11 claim: even at 256 GPUs (CI-sized sample of the
    /// sweep), a layer solves well under the per-layer time budget.
    #[test]
    fn solver_stays_under_budget() {
        let p = measure(256, 2, 3);
        let budget = baseline_layer_ms();
        assert!(
            p.solve_ms < budget,
            "solver {:.2} ms exceeds per-layer budget {budget:.2} ms",
            p.solve_ms
        );
    }

    #[test]
    fn solve_time_grows_with_n() {
        let small = measure(8, 2, 5);
        let big = measure(128, 2, 5);
        assert!(big.solve_ms > small.solve_ms);
    }
}
