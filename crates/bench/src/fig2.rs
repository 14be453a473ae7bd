//! Fig. 2 — loss curves under different auxiliary-loss weights: larger
//! weights need more steps to reach the same loss.

use crate::pool::{Batch, Slot};
use laer_train::{ConvergenceModel, LossPoint};
use serde::{Deserialize, Serialize};

/// One curve of Fig. 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Curve {
    /// Auxiliary-loss weight.
    pub aux_weight: f64,
    /// Sampled loss curve (step, time, loss).
    pub points: Vec<LossPoint>,
    /// Steps to reach the reference loss 2.30.
    pub steps_to_target: Option<u64>,
}

/// The weights plotted in Fig. 2.
pub const WEIGHTS: [f64; 4] = [0.0, 1e-4, 1e-3, 1e-2];

/// Computes the four curves.
pub fn curves(steps: u64) -> Vec<Fig2Curve> {
    WEIGHTS
        .into_iter()
        .map(|w| {
            let m = ConvergenceModel::new(w, 1.0, 1);
            Fig2Curve {
                aux_weight: w,
                points: m.curve(steps, (steps / 30).max(1)),
                steps_to_target: m.steps_to_loss(2.30),
            }
        })
        .collect()
}

/// The figure's single cell, pending pool execution.
pub struct Pending {
    curves: Slot<Vec<Fig2Curve>>,
}

/// Submits the curve computation to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    Pending {
        curves: batch.submit("fig2/curves", || curves(3000)),
    }
}

/// Renders the executed cell — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<Fig2Curve> {
    let curves = pending.curves.take();
    println!("Fig. 2: loss curves with different auxiliary loss weights\n");
    println!(
        "{:<10} {:>12} {:>12} {:>16}",
        "weight", "loss@1000", "loss@3000", "steps to 2.30"
    );
    for c in &curves {
        let at = |s: u64| {
            c.points
                .iter()
                .min_by_key(|p| p.step.abs_diff(s))
                .map(|p| p.loss)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{:<10} {:>12.4} {:>12.4} {:>16}",
            format!("{:.0e}", c.aux_weight),
            at(1000),
            at(3000),
            c.steps_to_target
                .map_or("n/a".to_string(), |s| s.to_string())
        );
    }
    println!("\nPaper: increasing the weight increases the steps needed for equal loss.");
    crate::output::save_json("fig2", &curves);
    curves
}

#[cfg(test)]
mod tests {
    #[test]
    fn steps_to_target_monotone_in_weight() {
        let curves = super::curves(3000);
        let steps: Vec<u64> = curves
            .iter()
            .map(|c| c.steps_to_target.expect("reachable"))
            .collect();
        for w in steps.windows(2) {
            assert!(w[0] <= w[1], "steps not monotone: {steps:?}");
        }
        assert!(steps[3] > steps[0], "1e-2 must be strictly slower than 0");
    }
}
