//! Fig. 9 — convergence study on Mixtral-8x7B e8k2 at 4K context:
//! (a) loss over wall-clock time and over steps for LAER@1e-4,
//! Megatron@1e-2 and Megatron@1e-4; (b) relative error between LAER and
//! Megatron at equal weight.

use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::SystemKind;
use laer_model::ModelPreset;
use laer_train::{run_experiment, ConvergenceModel, ExperimentConfig, LossPoint};
use serde::{Deserialize, Serialize};

/// One run of the convergence study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Run {
    /// Run label, e.g. "LAER aux=1e-4".
    pub label: String,
    /// Measured iteration seconds feeding the wall-clock axis.
    pub iteration_time: f64,
    /// Loss curve samples.
    pub points: Vec<LossPoint>,
    /// Wall-clock seconds to reach loss 2.30.
    pub time_to_target: Option<f64>,
    /// Steps to reach loss 2.30.
    pub steps_to_target: Option<u64>,
}

/// Full Fig. 9 output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9 {
    /// The three runs of panel (a).
    pub runs: Vec<Fig9Run>,
    /// Panel (b): max relative loss error LAER vs Megatron at 1e-4.
    pub max_relative_error: f64,
}

/// Measures iteration time for a (system, aux) pair on the 4K-context
/// convergence workload.
fn iteration_time(system: SystemKind, aux: f64, effort: Effort) -> f64 {
    let (iters, warmup) = match effort {
        Effort::Quick => (8, 3),
        Effort::Full => (30, 10),
    };
    let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, system)
        .with_layers(effort.layers(32))
        .with_iterations(iters, warmup)
        .with_aux_loss(aux)
        .with_seed(9);
    run_experiment(&cfg).avg_iteration_time
}

/// The three runs of the study: (label, system, aux weight, curve seed).
const SPECS: [(&str, SystemKind, f64, u64); 3] = [
    ("LAER aux=1e-4", SystemKind::Laer, 1e-4, 1),
    ("Megatron aux=1e-2", SystemKind::Megatron, 1e-2, 2),
    ("Megatron aux=1e-4", SystemKind::Megatron, 1e-4, 3),
];

/// Assembles the figure from the three measured iteration times.
fn assemble(times: &[f64], steps: u64) -> Fig9 {
    let target = 2.30;
    let mut runs = Vec::new();
    let mut models = Vec::new();
    for ((label, _, aux, seed), &t) in SPECS.into_iter().zip(times) {
        let m = ConvergenceModel::new(aux, t, seed);
        runs.push(Fig9Run {
            label: label.to_string(),
            iteration_time: t,
            points: m.curve(steps, (steps / 40).max(1)),
            time_to_target: m.time_to_loss(target),
            steps_to_target: m.steps_to_loss(target),
        });
        models.push(m);
    }
    Fig9 {
        max_relative_error: models[0].max_relative_error(&models[2], steps),
        runs,
    }
}

/// Runs the convergence study serially.
pub fn compute(effort: Effort, steps: u64) -> Fig9 {
    let times: Vec<f64> = SPECS
        .into_iter()
        .map(|(_, system, aux, _)| iteration_time(system, aux, effort))
        .collect();
    assemble(&times, steps)
}

/// The study's cells — one simulated run per spec — pending execution.
pub struct Pending {
    times: Vec<Slot<f64>>,
}

/// Submits each spec's iteration-time measurement to the pool.
pub fn submit(batch: &mut Batch, effort: Effort) -> Pending {
    Pending {
        times: SPECS
            .into_iter()
            .map(|(label, system, aux, _)| {
                batch.submit(format!("fig9/{label}"), move || {
                    iteration_time(system, aux, effort)
                })
            })
            .collect(),
    }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Fig9 {
    let times: Vec<f64> = pending.times.into_iter().map(Slot::take).collect();
    let fig = assemble(&times, 3000);
    println!("Fig. 9(a): convergence on Mixtral-8x7B e8k2 (target loss 2.30)\n");
    println!(
        "{:<20} {:>10} {:>12} {:>14}",
        "run", "iter (ms)", "steps to t", "time to t (h)"
    );
    for r in &fig.runs {
        println!(
            "{:<20} {:>10.1} {:>12} {:>14.2}",
            r.label,
            r.iteration_time * 1e3,
            r.steps_to_target.map_or("n/a".into(), |s| s.to_string()),
            r.time_to_target.map_or(f64::NAN, |t| t / 3600.0)
        );
    }
    println!(
        "\nFig. 9(b): max relative error LAER vs Megatron @1e-4 = {:.2e} (paper: < 1e-3)",
        fig.max_relative_error
    );
    crate::output::save_json("fig9", &fig);
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All the orderings of Fig. 9: in wall-clock LAER@1e-4 < Mega@1e-2 <
    /// Mega@1e-4; in steps the 1e-4 runs beat 1e-2; relative error < 1e-3.
    #[test]
    fn fig9_orderings() {
        let fig = compute(Effort::Quick, 1500);
        let t = |i: usize| fig.runs[i].time_to_target.expect("reachable");
        let s = |i: usize| fig.runs[i].steps_to_target.expect("reachable");
        assert!(t(0) < t(1), "LAER {} vs Mega@1e-2 {}", t(0), t(1));
        assert!(t(1) < t(2), "Mega@1e-2 {} vs Mega@1e-4 {}", t(1), t(2));
        assert!(s(0) < s(1), "1e-4 should need fewer steps than 1e-2");
        assert_eq!(s(0), s(2), "equal weights need equal steps");
        assert!(fig.max_relative_error < 1e-3);
        assert!(fig.max_relative_error > 0.0);
    }
}
