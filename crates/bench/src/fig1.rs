//! Fig. 1 — the motivation: (a) drifting, skewed token distribution
//! during Mixtral-8x7B training; (b) time breakdown with the A2A share
//! rising from <10 % (balanced) to >40 % (default).

use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::SystemKind;
use laer_model::ModelPreset;
use laer_routing::{imbalance_ratio, RoutingGenerator, RoutingGeneratorConfig};
use laer_train::{run_experiment, ExperimentConfig};
use serde::{Deserialize, Serialize};

/// One sampled iteration of the Fig. 1(a) heatmap.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1aPoint {
    /// Iteration index.
    pub iteration: u64,
    /// Fraction of tokens per expert.
    pub expert_shares: Vec<f64>,
    /// max/mean expert-load ratio.
    pub imbalance: f64,
}

/// Fig. 1(b) data: one bar per condition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1bBar {
    /// Condition label ("default" / "balanced").
    pub condition: String,
    /// A2A seconds per iteration (average per device).
    pub a2a: f64,
    /// Everything else.
    pub rest: f64,
    /// A2A share of the iteration.
    pub a2a_fraction: f64,
}

/// Generates the Fig. 1(a) series: 200 iterations, sampled every 5.
pub fn fig1a() -> Vec<Fig1aPoint> {
    let mut gen =
        RoutingGenerator::new(RoutingGeneratorConfig::new(32, 8, 32 * 1024).with_seed(2024));
    let mut out = Vec::new();
    for it in 0..200u64 {
        let r = gen.next_iteration();
        if it % 5 != 0 {
            continue;
        }
        let total = r.total() as f64;
        out.push(Fig1aPoint {
            iteration: it,
            expert_shares: r.expert_loads().iter().map(|&l| l as f64 / total).collect(),
            imbalance: imbalance_ratio(&r),
        });
    }
    out
}

/// The two Fig. 1(b) conditions: (label, aux weight).
const FIG1B_CONDITIONS: [(&str, f64); 2] = [("default", 0.0), ("balanced", 1.0)];

/// Measures one Fig. 1(b) bar.
pub fn fig1b_bar(label: &str, aux: f64, effort: Effort) -> Fig1bBar {
    let (iters, warmup) = effort.iterations();
    let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::VanillaEp)
        .with_layers(effort.layers(32))
        .with_iterations(iters, warmup)
        .with_aux_loss(aux)
        .with_seed(2024);
    let r = run_experiment(&cfg);
    let b = r.breakdown;
    Fig1bBar {
        condition: label.to_string(),
        a2a: b.a2a,
        rest: b.total() - b.a2a,
        a2a_fraction: b.a2a_fraction(),
    }
}

/// Generates the Fig. 1(b) bars: vanilla EP (no comm opts, Megatron-like
/// default profile) with raw routing vs enforced balanced routing.
pub fn fig1b(effort: Effort) -> Vec<Fig1bBar> {
    FIG1B_CONDITIONS
        .into_iter()
        .map(|(label, aux)| fig1b_bar(label, aux, effort))
        .collect()
}

/// The figure's cells, pending pool execution.
pub struct Pending {
    a: Slot<Vec<Fig1aPoint>>,
    bars: Vec<Slot<Fig1bBar>>,
}

/// Submits the Fig. 1(a) series and each Fig. 1(b) bar to the pool.
pub fn submit(batch: &mut Batch, effort: Effort) -> Pending {
    let a = batch.submit("fig1/a", fig1a);
    let bars = FIG1B_CONDITIONS
        .into_iter()
        .map(|(label, aux)| {
            batch.submit(format!("fig1/b/{label}"), move || {
                fig1b_bar(label, aux, effort)
            })
        })
        .collect();
    Pending { a, bars }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> (Vec<Fig1aPoint>, Vec<Fig1bBar>) {
    println!("Fig. 1(a): token distribution over iterations (shares per expert)\n");
    let a = pending.a.take();
    for p in a.iter().step_by(4) {
        let shares: Vec<String> = p
            .expert_shares
            .iter()
            .map(|s| format!("{:>4.1}", s * 100.0))
            .collect();
        println!(
            "iter {:>3}: [{}]%  |{}|  max/mean {:.2}",
            p.iteration,
            shares.join(" "),
            crate::chart::heat_row(&p.expert_shares, 0.5),
            p.imbalance
        );
    }
    println!("\nFig. 1(b): time breakdown, default vs balanced routing\n");
    let b: Vec<Fig1bBar> = pending.bars.into_iter().map(Slot::take).collect();
    for bar in &b {
        println!(
            "{:<9} a2a {:>7.1} ms  rest {:>7.1} ms   A2A share {:>5.1}%",
            bar.condition,
            bar.a2a * 1e3,
            bar.rest * 1e3,
            bar.a2a_fraction * 100.0
        );
    }
    println!("\nPaper: A2A share rises from <10% (balanced) to >40% (default).");
    crate::output::save_json("fig1a", &a);
    crate::output::save_json("fig1b", &b);
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_shows_skew_and_drift() {
        let a = fig1a();
        let avg: f64 = a.iter().map(|p| p.imbalance).sum::<f64>() / a.len() as f64;
        assert!(avg > 1.6, "imbalance {avg}");
    }

    /// The headline Fig. 1(b) claim: default >4x the balanced A2A share,
    /// balanced below ~12%, default above 30%.
    #[test]
    fn fig1b_a2a_share_shapes() {
        let b = fig1b(Effort::Quick);
        let default = &b[0];
        let balanced = &b[1];
        assert!(
            default.a2a_fraction > 0.30,
            "default share {:.3}",
            default.a2a_fraction
        );
        assert!(
            balanced.a2a_fraction < 0.12,
            "balanced share {:.3}",
            balanced.a2a_fraction
        );
    }
}
