//! Extension experiment (beyond the paper): local-search refinement of
//! the greedy layouts — the "more efficient and effective planners" the
//! paper lists as future work. Measures the residual objective gap the
//! greedy tuner leaves on the table and what it costs to close it.

use crate::pool::{Batch, Slot};
use laer_cluster::Topology;
use laer_planner::{refine_layout, CostParams, Planner, PlannerConfig};
use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One refinement measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RefineRow {
    /// Trace seed.
    pub seed: u64,
    /// Greedy (Alg. 2) objective, seconds.
    pub greedy_cost: f64,
    /// Refined objective, seconds.
    pub refined_cost: f64,
    /// Relative improvement (0.02 = 2 %).
    pub improvement: f64,
    /// Moves the hill-climb accepted.
    pub moves: usize,
    /// Wall-clock milliseconds spent refining.
    pub refine_ms: f64,
}

/// The seeds and hill-climb budget the full study runs.
const SEEDS: [u64; 5] = [1, 2, 3, 4, 5];
const BUDGET: usize = 20_000;

/// Measures refinement of one seeded iteration of the paper-cluster
/// workload.
pub fn row_for(seed: u64, budget: usize) -> RefineRow {
    let topo = Topology::paper_cluster();
    let params = CostParams::mixtral_8x7b();
    let planner = Planner::new(PlannerConfig::new(2), params, topo.clone());
    let demand =
        RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(seed))
            .next_iteration();
    let plan = planner.plan(&demand);
    let start = Instant::now();
    let refined = refine_layout(&topo, &demand, &plan.layout, &params, budget);
    let refine_ms = start.elapsed().as_secs_f64() * 1e3;
    let greedy_cost = plan.predicted.total();
    let refined_cost = refined.cost.total();
    RefineRow {
        seed,
        greedy_cost,
        refined_cost,
        improvement: 1.0 - refined_cost / greedy_cost,
        moves: refined.moves_accepted,
        refine_ms,
    }
}

/// Measures refinement on several iterations of the paper-cluster
/// workload.
pub fn rows(seeds: &[u64], budget: usize) -> Vec<RefineRow> {
    seeds.iter().map(|&seed| row_for(seed, budget)).collect()
}

/// The study's cells — one per seed — pending pool execution. The
/// refinement times are wall-clock, so the *values* vary run to run.
pub struct Pending {
    cells: Vec<Slot<RefineRow>>,
}

/// Submits each seed's refinement to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    Pending {
        cells: SEEDS
            .into_iter()
            .map(|seed| {
                batch.submit(format!("ext-refine/seed{seed}"), move || {
                    row_for(seed, BUDGET)
                })
            })
            .collect(),
    }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<RefineRow> {
    println!("Extension: local-search refinement of greedy layouts (future work)\n");
    println!(
        "{:>6} {:>12} {:>12} {:>9} {:>7} {:>10}",
        "seed", "greedy (ms)", "refined(ms)", "gain", "moves", "time (ms)"
    );
    let rows: Vec<RefineRow> = pending.cells.into_iter().map(Slot::take).collect();
    for r in &rows {
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>8.2}% {:>7} {:>10.1}",
            r.seed,
            r.greedy_cost * 1e3,
            r.refined_cost * 1e3,
            r.improvement * 100.0,
            r.moves,
            r.refine_ms
        );
    }
    let avg = rows.iter().map(|r| r.improvement).sum::<f64>() / rows.len() as f64;
    let avg_ms = rows.iter().map(|r| r.refine_ms).sum::<f64>() / rows.len() as f64;
    println!(
        "\nhill-climbing closes a further {:.1}% of the modelled objective, but at\n\
         ~{avg_ms:.0} ms per layer — two to three orders of magnitude above Alg. 2's\n\
         solve time and past the per-layer budget — supporting the paper's choice\n\
         of the cheap greedy heuristic for per-iteration re-layout (and marking\n\
         clear headroom for the 'more effective planners' named as future work).",
        avg * 100.0
    );
    crate::output::save_json("ext_refine", &rows);
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn refinement_never_regresses_and_sometimes_improves() {
        let rows = super::rows(&[1, 2, 3], 5_000);
        for r in &rows {
            assert!(r.refined_cost <= r.greedy_cost + 1e-12, "seed {}", r.seed);
            assert!(r.improvement >= -1e-12);
        }
    }
}
