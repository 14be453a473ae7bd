//! Eq. 1 — the computation/communication overlap threshold: per-device
//! token count above which expert computation hides expert-parameter
//! prefetching.

use crate::pool::{Batch, Slot};
use laer_cluster::Topology;
use laer_model::{CostModel, GpuSpec, ModelPreset};
use serde::{Deserialize, Serialize};

/// One model's overlap threshold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Eq1Row {
    /// Model id.
    pub model: String,
    /// Capacity `C` and top-k `K` used.
    pub c_and_k: (usize, usize),
    /// Threshold tokens per device `S*`.
    pub threshold_tokens: f64,
}

/// Computes the threshold for every preset on the paper cluster.
pub fn rows() -> Vec<Eq1Row> {
    let topo = Topology::paper_cluster();
    ModelPreset::ALL
        .into_iter()
        .map(|p| {
            let cfg = p.config();
            let cm = CostModel::new(&cfg, GpuSpec::a100());
            let c = cfg.default_capacity();
            let k = cfg.top_k();
            Eq1Row {
                model: cfg.name().to_string(),
                c_and_k: (c, k),
                threshold_tokens: cm.overlap_threshold_tokens(&topo, c, k),
            }
        })
        .collect()
}

/// The analysis' single cell, pending pool execution.
pub struct Pending {
    rows: Slot<Vec<Eq1Row>>,
}

/// Submits the threshold computation to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    Pending {
        rows: batch.submit("eq1/rows", rows),
    }
}

/// Renders the executed cell — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<Eq1Row> {
    let rows = pending.rows.take();
    println!("Eq. 1: overlap threshold S* (tokens/device) on the 4x8 A100 cluster\n");
    println!("{:<22} {:>8} {:>12}", "Model", "(C, K)", "S*");
    for r in &rows {
        println!(
            "{:<22} ({}, {}) {:>12.0}",
            r.model, r.c_and_k.0, r.c_and_k.1, r.threshold_tokens
        );
    }
    println!("\nPaper: threshold ≈ 17K tokens for Mixtral-8x7B e8k2; S = 16K suffices");
    println!("empirically because imbalance stretches the practical compute window.");
    crate::output::save_json("eq1", &rows);
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn mixtral_threshold_near_paper() {
        let rows = super::rows();
        let m = rows
            .iter()
            .find(|r| r.model.contains("8x7B e8k2") && r.model.starts_with("Mixtral"))
            .expect("mixtral row");
        assert!((14_000.0..20_000.0).contains(&m.threshold_tokens));
    }
}
