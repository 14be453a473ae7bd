//! Extension experiment: the cost of the Fig. 7 asynchrony.
//!
//! The paper delegates layout solving to the CPU, so a layer's layout is
//! planned from *previous* iterations' routing. This experiment
//! quantifies what that staleness costs against a hypothetical oracle
//! that plans with the current iteration's demand — evidence for the
//! paper's premise that routing distributions are autocorrelated enough
//! for asynchronous planning to be nearly free.

use crate::pool::{Batch, Slot};
use laer_baselines::{LaerSystem, MoeSystem, PlanningMode, SystemContext};
use laer_cluster::Topology;
use laer_model::{GpuSpec, ModelPreset};
use laer_routing::{DatasetProfile, RoutingGenerator, RoutingGeneratorConfig};
use serde::{Deserialize, Serialize};

/// One (dataset, mode) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StalenessRow {
    /// Dataset profile id.
    pub dataset: String,
    /// Mean max-token/ideal ratio under async (stale) planning.
    pub async_ratio: f64,
    /// Mean ratio under oracle planning.
    pub oracle_ratio: f64,
    /// Relative balance penalty of asynchrony.
    pub penalty: f64,
}

/// The datasets compared.
const DATASETS: [DatasetProfile; 2] = [DatasetProfile::Wikitext, DatasetProfile::C4];

/// Measures one dataset's (async, oracle) pair over `iters` iterations.
pub fn row_for(dataset: DatasetProfile, iters: u64) -> StalenessRow {
    let ctx = || {
        SystemContext::new(
            Topology::paper_cluster(),
            ModelPreset::Mixtral8x7bE8k2.config(),
            GpuSpec::a100(),
            16 * 1024,
            8192,
        )
    };
    let mut async_sys = LaerSystem::new(ctx());
    let mut oracle_sys = LaerSystem::new(ctx()).with_mode(PlanningMode::Oracle);
    let mut gen = RoutingGenerator::new(
        RoutingGeneratorConfig::new(32, 8, 32 * 1024)
            .with_profile(dataset)
            .with_seed(7),
    );
    let (mut a, mut o) = (0.0, 0.0);
    for iter in 0..iters {
        let demand = gen.next_iteration();
        a += async_sys.plan_layer(0, iter, &demand).max_token_ratio();
        o += oracle_sys.plan_layer(0, iter, &demand).max_token_ratio();
    }
    let (a, o) = (a / iters as f64, o / iters as f64);
    StalenessRow {
        dataset: dataset.id().to_string(),
        async_ratio: a,
        oracle_ratio: o,
        penalty: a / o - 1.0,
    }
}

/// Measures both planning modes over `iters` iterations per dataset.
pub fn rows(iters: u64) -> Vec<StalenessRow> {
    DATASETS
        .into_iter()
        .map(|dataset| row_for(dataset, iters))
        .collect()
}

/// The study's cells — one per dataset — pending pool execution.
pub struct Pending {
    cells: Vec<Slot<StalenessRow>>,
}

/// Submits each dataset's measurement to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    Pending {
        cells: DATASETS
            .into_iter()
            .map(|dataset| {
                batch.submit(format!("ext-staleness/{}", dataset.id()), move || {
                    row_for(dataset, 40)
                })
            })
            .collect(),
    }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<StalenessRow> {
    println!("Extension: asynchronous (Fig. 7) planning vs a same-iteration oracle\n");
    println!(
        "{:<10} {:>14} {:>14} {:>10}",
        "dataset", "async max/idl", "oracle max/idl", "penalty"
    );
    let rows: Vec<StalenessRow> = pending.cells.into_iter().map(Slot::take).collect();
    for r in &rows {
        println!(
            "{:<10} {:>14.3} {:>14.3} {:>9.1}%",
            r.dataset,
            r.async_ratio,
            r.oracle_ratio,
            r.penalty * 100.0
        );
    }
    println!(
        "\nOne-iteration staleness costs only a few percent of balance — the\n\
         autocorrelation of routing distributions (Fig. 1a) is what makes the\n\
         paper's CPU-offloaded, per-iteration re-layout viable."
    );
    crate::output::save_json("ext_staleness", &rows);
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn staleness_penalty_is_small() {
        for r in super::rows(25) {
            assert!(r.async_ratio >= r.oracle_ratio * 0.99, "{}", r.dataset);
            assert!(
                r.penalty < 0.15,
                "{}: staleness penalty {:.3} too large",
                r.dataset,
                r.penalty
            );
        }
    }
}
