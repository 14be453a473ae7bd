//! Fig. 8 — end-to-end throughput of LAER-MoE vs Megatron, FSDP+EP and
//! FlexMoE across six model configurations, two datasets and two
//! auxiliary-loss weights.

use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::SystemKind;
use laer_model::ModelPreset;
use laer_routing::DatasetProfile;
use laer_train::{run_experiment, ExperimentConfig};
use serde::{Deserialize, Serialize};

/// One (model, dataset, aux) panel with the four systems' throughput.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Panel {
    /// Model id.
    pub model: String,
    /// Dataset id.
    pub dataset: String,
    /// Auxiliary-loss weight.
    pub aux_weight: f64,
    /// tokens/s per system, keyed by system id.
    pub throughput: Vec<(String, f64)>,
    /// LAER speedup over Megatron.
    pub speedup_vs_megatron: f64,
    /// LAER speedup over FSDP+EP.
    pub speedup_vs_fsdp: f64,
    /// LAER speedup over FlexMoE.
    pub speedup_vs_flex: f64,
}

/// The (model, dataset, aux) grid of one reproduction run. `Quick` uses
/// a representative subset (both Mixtral-8x7B variants × wikitext ×
/// both aux weights); `Full` sweeps all six models × both datasets.
pub fn grid(effort: Effort) -> Vec<(ModelPreset, DatasetProfile, f64)> {
    let mut out = Vec::new();
    let (models, datasets): (Vec<ModelPreset>, Vec<DatasetProfile>) = match effort {
        Effort::Quick => (
            vec![ModelPreset::Mixtral8x7bE8k2, ModelPreset::Mixtral8x7bE16k4],
            vec![DatasetProfile::Wikitext],
        ),
        Effort::Full => (
            ModelPreset::ALL.to_vec(),
            vec![DatasetProfile::Wikitext, DatasetProfile::C4],
        ),
    };
    for m in &models {
        for d in &datasets {
            for aux in [0.0, 1e-4] {
                out.push((*m, *d, aux));
            }
        }
    }
    out
}

/// Measures one (panel, system) cell: tokens/s of one simulated run.
pub fn measure_system(
    preset: ModelPreset,
    dataset: DatasetProfile,
    aux: f64,
    system: SystemKind,
    effort: Effort,
) -> f64 {
    let (iters, warmup) = effort.iterations();
    let cfg = ExperimentConfig::new(preset, system)
        .with_layers(effort.layers(preset.config().layers()))
        .with_iterations(iters, warmup)
        .with_dataset(dataset)
        .with_aux_loss(aux)
        .with_seed(8);
    run_experiment(&cfg).tokens_per_second
}

/// Assembles one panel from per-system throughput measurements.
fn assemble(
    preset: ModelPreset,
    dataset: DatasetProfile,
    aux: f64,
    throughput: Vec<(String, f64)>,
) -> Fig8Panel {
    let get = |id: &str| {
        throughput
            .iter()
            .find(|(k, _)| k == id)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| unreachable!("system ran"))
    };
    let laer = get("LAER");
    Fig8Panel {
        model: preset.id().to_string(),
        dataset: dataset.id().to_string(),
        aux_weight: aux,
        speedup_vs_megatron: laer / get("megatron"),
        speedup_vs_fsdp: laer / get("FSDP"),
        speedup_vs_flex: laer / get("FLEX"),
        throughput,
    }
}

/// Runs one panel serially.
pub fn run_panel(
    preset: ModelPreset,
    dataset: DatasetProfile,
    aux: f64,
    effort: Effort,
) -> Fig8Panel {
    let throughput = SystemKind::FIG8
        .into_iter()
        .map(|system| {
            (
                system.id().to_string(),
                measure_system(preset, dataset, aux, system, effort),
            )
        })
        .collect();
    assemble(preset, dataset, aux, throughput)
}

/// One panel's pending cells: the four systems' throughput slots.
struct PendingPanel {
    preset: ModelPreset,
    dataset: DatasetProfile,
    aux: f64,
    systems: Vec<(SystemKind, Slot<f64>)>,
}

/// The figure's cells, pending pool execution.
pub struct Pending {
    panels: Vec<PendingPanel>,
}

/// Submits every (panel, system) cell of the figure to the pool.
pub fn submit(batch: &mut Batch, effort: Effort) -> Pending {
    let panels = grid(effort)
        .into_iter()
        .map(|(preset, dataset, aux)| PendingPanel {
            preset,
            dataset,
            aux,
            systems: SystemKind::FIG8
                .into_iter()
                .map(|system| {
                    let label = format!(
                        "fig8/{}/{}/aux{:.0e}/{}",
                        preset.id(),
                        dataset.id(),
                        aux,
                        system.id()
                    );
                    (
                        system,
                        batch.submit(label, move || {
                            measure_system(preset, dataset, aux, system, effort)
                        }),
                    )
                })
                .collect(),
        })
        .collect();
    Pending { panels }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<Fig8Panel> {
    println!("Fig. 8: end-to-end throughput (tokens/s), 8K context\n");
    let mut panels = Vec::new();
    for cell in pending.panels {
        let throughput = cell
            .systems
            .into_iter()
            .map(|(system, slot)| (system.id().to_string(), slot.take()))
            .collect();
        let p = assemble(cell.preset, cell.dataset, cell.aux, throughput);
        println!("{} / {} / aux {:.0e}:", p.model, p.dataset, p.aux_weight);
        let bars: Vec<(String, f64)> = p
            .throughput
            .iter()
            .map(|(sys, tps)| (sys.clone(), *tps))
            .collect();
        for line in crate::chart::bar_chart(&bars, 30) {
            println!("  {line}");
        }
        println!(
            "  LAER speedups: {:.2}x vs Megatron, {:.2}x vs FSDP+EP, {:.2}x vs FlexMoE\n",
            p.speedup_vs_megatron, p.speedup_vs_fsdp, p.speedup_vs_flex
        );
        panels.push(p);
    }
    let max_mega = panels
        .iter()
        .map(|p| p.speedup_vs_megatron)
        .fold(0.0, f64::max);
    let max_fsdp = panels.iter().map(|p| p.speedup_vs_fsdp).fold(0.0, f64::max);
    let max_flex = panels.iter().map(|p| p.speedup_vs_flex).fold(0.0, f64::max);
    let avg_flex = panels.iter().map(|p| p.speedup_vs_flex).sum::<f64>() / panels.len() as f64;
    println!(
        "max speedups: {max_mega:.2}x vs Megatron (paper: up to 1.69x), {max_fsdp:.2}x vs \
         FSDP+EP (paper: up to 1.50x), {max_flex:.2}x vs FlexMoE (paper: up to 1.39x, avg \
         1.20x — ours avg {avg_flex:.2}x)"
    );
    crate::output::save_json("fig8", &panels);
    panels
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The win/loss structure of Fig. 8 on the quick grid: LAER beats
    /// everything; FSDP+EP beats Megatron on e8k2 and loses on e16k4.
    #[test]
    fn fig8_shapes_on_quick_grid() {
        for preset in [ModelPreset::Mixtral8x7bE8k2, ModelPreset::Mixtral8x7bE16k4] {
            let p = run_panel(preset, DatasetProfile::Wikitext, 0.0, Effort::Quick);
            assert!(
                p.speedup_vs_megatron > 1.0,
                "{}: {:?}",
                p.model,
                p.throughput
            );
            assert!(p.speedup_vs_fsdp > 1.0, "{}: {:?}", p.model, p.throughput);
            assert!(p.speedup_vs_flex >= 0.99, "{}: {:?}", p.model, p.throughput);
            let get = |id: &str| {
                p.throughput
                    .iter()
                    .find(|(k, _)| k == id)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            if preset == ModelPreset::Mixtral8x7bE8k2 {
                assert!(
                    get("FSDP") > get("megatron"),
                    "e8k2: FSDP+EP should beat Megatron: {:?}",
                    p.throughput
                );
            } else {
                assert!(
                    get("megatron") > get("FSDP"),
                    "e16k4: Megatron should beat FSDP+EP: {:?}",
                    p.throughput
                );
            }
        }
    }
}
