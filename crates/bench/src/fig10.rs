//! Fig. 10 — case study on Mixtral-8x7B: (a) end-to-end time breakdown
//! per system with the All-to-All component highlighted; (b) maximum
//! token count per device relative to perfect balance.

use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::SystemKind;
use laer_model::ModelPreset;
use laer_routing::DatasetProfile;
use laer_train::{run_experiment, ExperimentConfig, ExperimentResult};
use serde::{Deserialize, Serialize};

/// One system's case-study measurements on one model config.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Model id.
    pub model: String,
    /// System id.
    pub system: String,
    /// A2A seconds per iteration.
    pub a2a: f64,
    /// Expert compute seconds per iteration.
    pub expert_compute: f64,
    /// Everything else.
    pub others: f64,
    /// A2A share of the iteration.
    pub a2a_fraction: f64,
    /// Mean max-token/ideal ratio (panel b; grey dashed line = 1.0).
    pub max_token_ratio: f64,
    /// End-to-end iteration seconds.
    pub iteration_time: f64,
}

/// The systems compared in the case study.
pub const SYSTEMS: [SystemKind; 3] = [SystemKind::FsdpEp, SystemKind::Flex, SystemKind::Laer];

fn measure(preset: ModelPreset, system: SystemKind, effort: Effort) -> ExperimentResult {
    let (iters, warmup) = effort.iterations();
    let cfg = ExperimentConfig::new(preset, system)
        .with_layers(effort.layers(preset.config().layers()))
        .with_iterations(iters, warmup)
        .with_dataset(DatasetProfile::Wikitext)
        .with_seed(10);
    run_experiment(&cfg)
}

/// The model variants of the case study.
const PRESETS: [ModelPreset; 2] = [ModelPreset::Mixtral8x7bE8k2, ModelPreset::Mixtral8x7bE16k4];

/// Measures one (model, system) cell into a table row.
pub fn row_for(preset: ModelPreset, system: SystemKind, effort: Effort) -> Fig10Row {
    let r = measure(preset, system, effort);
    let b = &r.breakdown;
    Fig10Row {
        model: preset.id().to_string(),
        system: system.id().to_string(),
        a2a: b.a2a,
        expert_compute: b.expert_compute,
        others: b.others + b.exposed_prefetch + b.exposed_grad_sync,
        a2a_fraction: b.a2a_fraction(),
        max_token_ratio: r.avg_max_token_ratio,
        iteration_time: r.avg_iteration_time,
    }
}

/// The figure's cells, pending pool execution.
pub struct Pending {
    cells: Vec<Slot<Fig10Row>>,
}

impl Pending {
    /// Redeems the executed cells in submission order.
    fn take(self) -> Vec<Fig10Row> {
        self.cells.into_iter().map(Slot::take).collect()
    }
}

/// Submits every (model, system) cell to the pool.
pub fn submit(batch: &mut Batch, effort: Effort) -> Pending {
    let mut cells = Vec::new();
    for preset in PRESETS {
        for system in SYSTEMS {
            cells.push(batch.submit(
                format!("fig10/{}/{}", preset.id(), system.id()),
                move || row_for(preset, system, effort),
            ));
        }
    }
    Pending { cells }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<Fig10Row> {
    let rows = pending.take();
    println!("Fig. 10(a): time breakdown per iteration (avg across ranks)\n");
    println!(
        "{:<20} {:<8} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "model", "system", "a2a(ms)", "expert", "others", "a2a %", "iter(ms)"
    );
    for r in &rows {
        println!(
            "{:<20} {:<8} {:>9.1} {:>9.1} {:>9.1} {:>8.1}% {:>10.1}",
            r.model,
            r.system,
            r.a2a * 1e3,
            r.expert_compute * 1e3,
            r.others * 1e3,
            r.a2a_fraction * 100.0,
            r.iteration_time * 1e3
        );
    }
    // Headline: A2A speedup of LAER over FSDP+EP.
    for model in ["mixtral-8x7b-e8k2", "mixtral-8x7b-e16k4"] {
        let get = |sys: &str| {
            rows.iter()
                .find(|r| r.model == model && r.system == sys)
                .unwrap_or_else(|| unreachable!("row present"))
        };
        println!(
            "\n{model}: LAER A2A speedup over FSDP+EP = {:.2}x (paper: up to 2.68x); \
             LAER a2a share {:.1}% (paper: below 20%)",
            get("FSDP").a2a / get("LAER").a2a,
            get("LAER").a2a_fraction * 100.0
        );
    }
    println!("\nFig. 10(b): max token count per device / perfect balance\n");
    println!("{:<20} {:<8} {:>12}", "model", "system", "max/ideal");
    for r in &rows {
        println!(
            "{:<20} {:<8} {:>12.2}",
            r.model, r.system, r.max_token_ratio
        );
    }
    crate::output::save_json("fig10", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 10 shape claims on the quick configuration.
    #[test]
    fn fig10_shapes() {
        let mut batch = Batch::new();
        let pending = submit(&mut batch, Effort::Quick);
        batch.run(2);
        let rows = pending.take();
        for model in ["mixtral-8x7b-e8k2", "mixtral-8x7b-e16k4"] {
            let get = |sys: &str| {
                rows.iter()
                    .find(|r| r.model == model && r.system == sys)
                    .unwrap()
            };
            let fsdp = get("FSDP");
            let flex = get("FLEX");
            let laer = get("LAER");
            // (a) A2A share ordering and LAER below 20%.
            assert!(fsdp.a2a_fraction > flex.a2a_fraction, "{model}");
            assert!(flex.a2a_fraction >= laer.a2a_fraction, "{model}");
            assert!(laer.a2a_fraction < 0.20, "{model}: {}", laer.a2a_fraction);
            // Expert compute is similar across systems (within 25%).
            let ratio = fsdp.expert_compute / laer.expert_compute;
            assert!(
                (0.75..1.35).contains(&ratio),
                "{model}: expert ratio {ratio}"
            );
            // (b) balance ordering, LAER near ideal (the one-iteration
            // staleness of the async tuner keeps it slightly above 1).
            assert!(fsdp.max_token_ratio > laer.max_token_ratio, "{model}");
            assert!(
                laer.max_token_ratio < 1.45,
                "{model}: {}",
                laer.max_token_ratio
            );
        }
        // e16k4's finer replica granularity gives near-perfect balance.
        let laer16_row = rows
            .iter()
            .find(|r| r.model.contains("e16k4") && r.system == "LAER")
            .unwrap();
        assert!(
            laer16_row.max_token_ratio < 1.3,
            "e16k4 LAER {}",
            laer16_row.max_token_ratio
        );
        // (b) e16k4 gives LAER near-perfect balance, better than e8k2.
        let laer8 = rows
            .iter()
            .find(|r| r.model.contains("e8k2") && r.system == "LAER")
            .unwrap();
        let laer16 = rows
            .iter()
            .find(|r| r.model.contains("e16k4") && r.system == "LAER")
            .unwrap();
        assert!(
            laer16.max_token_ratio <= laer8.max_token_ratio + 0.02,
            "e16k4 {} vs e8k2 {}",
            laer16.max_token_ratio,
            laer8.max_token_ratio
        );
    }
}
