//! Fig. 12 — ablation study on Mixtral-8x7B e8k2: single replica
//! schemes (`pq` / `even`), disabled communication optimisations, and
//! the FSDP+EP reference.

use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::{FsdpEpSystem, LaerSystem, MoeSystem, SystemContext, SystemKind};
use laer_fsep::ScheduleOptions;
use laer_model::ModelPreset;
use laer_planner::ReplicaScheme;
use laer_train::{run_experiment_with, ExperimentConfig};
use serde::{Deserialize, Serialize};

/// One ablation bar.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12Bar {
    /// Variant id (`LAER`, `no_even`, `no_pq`, `no_comm_opt`, `FSDP`).
    pub variant: String,
    /// Throughput, tokens/s.
    pub tokens_per_second: f64,
    /// Average iteration seconds.
    pub iteration_time: f64,
}

/// The ablation variant set of the artifact appendix.
pub const VARIANTS: [&str; 5] = ["LAER", "no_even", "no_pq", "no_comm_opt", "FSDP"];

fn build(variant: &str, ctx: SystemContext) -> Box<dyn MoeSystem> {
    match variant {
        "LAER" => Box::new(LaerSystem::new(ctx)),
        // `no_even`: only the priority-queue proportional scheme.
        "no_even" => Box::new(LaerSystem::with_scheme(
            ctx,
            ReplicaScheme::PqOnly,
            ScheduleOptions::optimized(),
        )),
        // `no_pq`: only the even scheme.
        "no_pq" => Box::new(LaerSystem::with_scheme(
            ctx,
            ReplicaScheme::EvenOnly,
            ScheduleOptions::optimized(),
        )),
        "no_comm_opt" => Box::new(LaerSystem::with_scheme(
            ctx,
            ReplicaScheme::Both,
            ScheduleOptions::unoptimized(),
        )),
        "FSDP" => Box::new(FsdpEpSystem::new(ctx)),
        other => panic!("unknown ablation variant {other}"),
    }
}

/// Trace seeds averaged by one ablation measurement (single-seed runs
/// are at the mercy of the tuner's random perturbation draws).
pub const SEEDS: [u64; 3] = [12, 120, 1200];

/// Runs one ablation variant with one trace seed: the paper's 4×8
/// cluster at 16 K tokens per device, layer `l` routed from trace seed
/// `seed + l`.
pub fn run_variant_seeded(variant: &str, effort: Effort, seed: u64) -> Fig12Bar {
    let (iters, warmup) = effort.iterations();
    // `routing_config` seeds layer `l` with `cfg.seed + 1 + l`.
    let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
        .with_layers(effort.layers(32))
        .with_iterations(iters, warmup)
        .with_seed(seed.wrapping_sub(1));
    let result = run_experiment_with(&cfg, build(variant, cfg.context()));
    Fig12Bar {
        variant: variant.to_string(),
        tokens_per_second: result.tokens_per_second,
        iteration_time: result.avg_iteration_time,
    }
}

/// Averages one variant's seeded runs into its Fig. 12 bar.
fn average(variant: &str, runs: &[Fig12Bar]) -> Fig12Bar {
    let n = runs.len() as f64;
    Fig12Bar {
        variant: variant.to_string(),
        tokens_per_second: runs.iter().map(|r| r.tokens_per_second).sum::<f64>() / n,
        iteration_time: runs.iter().map(|r| r.iteration_time).sum::<f64>() / n,
    }
}

/// The ablation's cells — one run per (variant, seed) — pending
/// execution.
pub struct Pending {
    variants: Vec<(&'static str, Vec<Slot<Fig12Bar>>)>,
}

impl Pending {
    /// Redeems the executed cells, averaging each variant's seeded
    /// runs into its bar.
    fn take(self) -> Vec<Fig12Bar> {
        self.variants
            .into_iter()
            .map(|(variant, seeds)| {
                let runs: Vec<Fig12Bar> = seeds.into_iter().map(Slot::take).collect();
                average(variant, &runs)
            })
            .collect()
    }
}

/// Submits every (variant, seed) run to the pool.
pub fn submit(batch: &mut Batch, effort: Effort) -> Pending {
    Pending {
        variants: VARIANTS
            .into_iter()
            .map(|variant| {
                let seeds = SEEDS
                    .into_iter()
                    .map(|seed| {
                        batch.submit(format!("fig12/{variant}/seed{seed}"), move || {
                            run_variant_seeded(variant, effort, seed)
                        })
                    })
                    .collect();
                (variant, seeds)
            })
            .collect(),
    }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<Fig12Bar> {
    println!("Fig. 12: ablation on Mixtral-8x7B e8k2\n");
    println!("{:<14} {:>14} {:>12}", "variant", "tokens/s", "iter (ms)");
    let bars = pending.take();
    for b in &bars {
        println!(
            "{:<14} {:>14.0} {:>12.1}",
            b.variant,
            b.tokens_per_second,
            b.iteration_time * 1e3
        );
    }
    println!(
        "\nPaper: single-scheme planners and disabled comm optimisations all lose\n\
         to full LAER-MoE; everything beats static FSDP+EP."
    );
    crate::output::save_json("fig12", &bars);
    bars
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 12's shape: the multi-scheme planner tracks the *best*
    /// single scheme (within 1.5 % — it cannot know in advance which
    /// scheme a distribution favours) while decisively beating the
    /// *worst* one — the robustness the paper claims ("relying solely on
    /// one scheme cannot effectively handle all routing distribution
    /// scenarios"); disabling the communication optimisations hurts; and
    /// every variant beats static FSDP+EP.
    #[test]
    fn ablation_ordering() {
        let mut batch = Batch::new();
        let pending = submit(&mut batch, Effort::Quick);
        batch.run(2);
        let bars = pending.take();
        let get = |v: &str| {
            bars.iter()
                .find(|b| b.variant == v)
                .map(|b| b.tokens_per_second)
                .unwrap()
        };
        let laer = get("LAER");
        let best_single = get("no_even").max(get("no_pq"));
        let worst_single = get("no_even").min(get("no_pq"));
        assert!(
            laer >= best_single * 0.985,
            "LAER {laer} should track the best single scheme {best_single}"
        );
        assert!(
            laer >= worst_single * 1.08,
            "LAER {laer} should decisively beat the worst single scheme {worst_single}"
        );
        for v in ["no_even", "no_pq", "no_comm_opt"] {
            assert!(
                get(v) > get("FSDP"),
                "{v} {} should beat FSDP {}",
                get(v),
                get("FSDP")
            );
        }
        assert!(
            laer > get("no_comm_opt") * 1.05,
            "comm opts must matter: {laer} vs {}",
            get("no_comm_opt")
        );
    }
}
