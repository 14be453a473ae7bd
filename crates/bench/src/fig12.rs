//! Fig. 12 — ablation study on Mixtral-8x7B e8k2: single replica
//! schemes (`pq` / `even`), disabled communication optimisations, and
//! the FSDP+EP reference.

use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::{FsdpEpSystem, LaerSystem, MoeSystem, SystemContext};
use laer_cluster::Topology;
use laer_fsep::{schedule_iteration, ScheduleOptions};
use laer_model::{GpuSpec, ModelPreset};
use laer_planner::ReplicaScheme;
use laer_routing::{RoutingGenerator, RoutingGeneratorConfig};
use laer_sim::Engine;
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

/// Runs one ablation variant with one trace seed.
pub fn run_variant_seeded(variant: &str, effort: Effort, seed: u64) -> Fig12Bar {
    let preset = ModelPreset::Mixtral8x7bE8k2;
    let cfg = preset.config();
    let topo = Topology::paper_cluster();
    let tokens = 16 * 1024u64;
    let layers = effort.layers(32);
    let (iters, warmup) = effort.iterations();
    let ctx = SystemContext::new(topo.clone(), cfg.clone(), GpuSpec::a100(), tokens, 8192);
    let mut system = build(variant, ctx);
    let opts = system.schedule_options();
    let mut gens: Vec<_> = (0..layers)
        .map(|l| {
            RoutingGenerator::new(
                RoutingGeneratorConfig::new(32, cfg.experts(), tokens * cfg.top_k() as u64)
                    .with_seed(seed + l as u64),
            )
        })
        .collect();
    let mut measured = Vec::new();
    for iter in 0..(warmup + iters) {
        let timings: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(l, g)| {
                system
                    .plan_layer(l, iter as u64, &g.next_iteration())
                    .timings
            })
            .collect();
        let mut engine = Engine::new(&topo);
        let t = schedule_iteration(&mut engine, &topo, &timings, opts);
        if iter >= warmup {
            measured.push(t.total);
        }
    }
    let avg = measured.iter().sum::<f64>() / measured.len() as f64;
    Fig12Bar {
        variant: variant.to_string(),
        tokens_per_second: 32.0 * tokens as f64 / avg,
        iteration_time: avg,
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
