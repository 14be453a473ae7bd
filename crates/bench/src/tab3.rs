//! Tab. 3 — performance of lite routing: the synchronous token
//! dispatcher's cost as a share of iteration time.
//!
//! The paper measures its Triton kernel at ~25–31 ms per iteration,
//! below 0.1 % of the total. Here we measure the Rust `lite_route`
//! implementation's wall-clock cost per iteration (all layers) and
//! relate it to the simulated iteration time of the same configuration.

use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::SystemKind;
use laer_cluster::Topology;
use laer_model::ModelPreset;
use laer_planner::{lite_route, CostParams, ExpertLayout, Planner, PlannerConfig};
use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};
use laer_train::{run_experiment, ExperimentConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One row of Tab. 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tab3Row {
    /// Model id.
    pub model: String,
    /// Lite-routing wall-clock milliseconds per iteration (all layers).
    pub lite_routing_ms: f64,
    /// Simulated iteration milliseconds.
    pub iteration_ms: f64,
    /// Percentage of the iteration spent in lite routing.
    pub percentage: f64,
}

/// Measures one model configuration.
pub fn measure(preset: ModelPreset, effort: Effort) -> Tab3Row {
    let cfg = preset.config();
    let topo = Topology::paper_cluster();
    let tokens = 16 * 1024u64;
    // A representative dynamic layout from the planner.
    let planner = Planner::new(
        PlannerConfig::new(cfg.default_capacity()).with_epsilon(2),
        CostParams::from_model(&cfg, laer_model::GpuSpec::a100(), false),
        topo.clone(),
    );
    let mut gen = RoutingGenerator::new(
        RoutingGeneratorConfig::new(32, cfg.experts(), tokens * cfg.top_k() as u64).with_seed(3),
    );
    let demand = gen.next_iteration();
    let layout: ExpertLayout = planner.plan(&demand).layout;
    // Wall-clock lite routing across all layers of one iteration.
    let reps = 20usize;
    let start = Instant::now();
    for _ in 0..reps {
        for _ in 0..cfg.layers() {
            std::hint::black_box(lite_route(&topo, &demand, &layout));
        }
    }
    let lite_ms = start.elapsed().as_secs_f64() / reps as f64 * 1e3;
    // Simulated iteration time at the same operating point.
    let (iters, warmup) = match effort {
        Effort::Quick => (6, 2),
        Effort::Full => (20, 5),
    };
    let e2e = run_experiment(
        &ExperimentConfig::new(preset, SystemKind::Laer)
            .with_layers(cfg.layers())
            .with_iterations(iters, warmup)
            .with_seed(3),
    );
    let iter_ms = e2e.avg_iteration_time * 1e3;
    Tab3Row {
        model: cfg.name().to_string(),
        lite_routing_ms: lite_ms,
        iteration_ms: iter_ms,
        percentage: 100.0 * lite_ms / iter_ms,
    }
}

/// The models measured in Tab. 3.
const PRESETS: [ModelPreset; 2] = [ModelPreset::Mixtral8x7bE8k2, ModelPreset::Mixtral8x7bE16k4];

/// The table's cells — one measurement per model — pending execution.
/// The lite-routing times are wall-clock, so the *values* vary run to
/// run; only the printed structure is deterministic.
pub struct Pending {
    cells: Vec<Slot<Tab3Row>>,
}

/// Submits each model's measurement to the pool.
pub fn submit(batch: &mut Batch, effort: Effort) -> Pending {
    Pending {
        cells: PRESETS
            .into_iter()
            .map(|p| batch.submit(format!("tab3/{}", p.id()), move || measure(p, effort)))
            .collect(),
    }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<Tab3Row> {
    println!("Tab. 3: performance of lite routing\n");
    println!(
        "{:<22} {:>18} {:>14} {:>12}",
        "Model", "Lite routing (ms)", "iter (ms)", "share"
    );
    let rows: Vec<_> = pending
        .cells
        .into_iter()
        .map(|slot| {
            let r = slot.take();
            println!(
                "{:<22} {:>18.3} {:>14.1} {:>11.4}%",
                r.model, r.lite_routing_ms, r.iteration_ms, r.percentage
            );
            r
        })
        .collect();
    println!("\nPaper: 24.965 ms (0.084%) and 30.994 ms (0.094%) — below 0.1% either way.");
    crate::output::save_json("tab3", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tab. 3's claim: lite routing costs well under 1% of an iteration
    /// (the paper reports <0.1% against its multi-second iterations; our
    /// Rust implementation on 32×8 inputs is far faster than the paper's
    /// Triton launch overhead, so the share is comfortably below too).
    #[test]
    fn lite_routing_share_is_negligible() {
        let r = measure(ModelPreset::Mixtral8x7bE8k2, Effort::Quick);
        assert!(
            r.percentage < 1.0,
            "lite routing share {:.4}% too large",
            r.percentage
        );
    }
}
