//! Tab. 2 — configurations of the evaluated models: exact parameter and
//! activated-parameter accounting.

use crate::pool::{Batch, Slot};
use laer_model::ModelPreset;
use serde::{Deserialize, Serialize};

/// One row of Tab. 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tab2Row {
    /// Model id.
    pub model: String,
    /// Transformer layers.
    pub layers: usize,
    /// Total parameters (billions), as computed by this reproduction.
    pub params_b: f64,
    /// Activated parameters (billions).
    pub activs_b: f64,
    /// Experts and top-k, e.g. "8&2".
    pub e_and_k: String,
    /// The value printed in the paper, for comparison.
    pub paper_params_b: f64,
    /// The paper's activated count.
    pub paper_activs_b: f64,
}

/// Computes every row of Tab. 2.
pub fn rows() -> Vec<Tab2Row> {
    ModelPreset::ALL
        .into_iter()
        .map(|p| {
            let cfg = p.config();
            let (paper_params, paper_activs) = p.table2_billions();
            Tab2Row {
                model: cfg.name().to_string(),
                layers: cfg.layers(),
                params_b: cfg.total_params() as f64 / 1e9,
                activs_b: cfg.activated_params() as f64 / 1e9,
                e_and_k: format!("{}&{}", cfg.experts(), cfg.top_k()),
                paper_params_b: paper_params,
                paper_activs_b: paper_activs,
            }
        })
        .collect()
}

/// The table's single cell, pending pool execution.
pub struct Pending {
    rows: Slot<Vec<Tab2Row>>,
}

/// Submits the row computation to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    Pending {
        rows: batch.submit("tab2/rows", rows),
    }
}

/// Renders the executed cell — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<Tab2Row> {
    let rows = pending.rows.take();
    println!("Tab. 2: configurations of the evaluated models\n");
    println!(
        "{:<22} {:>6} {:>10} {:>10} {:>7} | {:>10} {:>10}",
        "Model", "Layers", "Params", "Activs", "E&K", "paper P", "paper A"
    );
    for r in &rows {
        println!(
            "{:<22} {:>6} {:>9.2}B {:>9.2}B {:>7} | {:>9.2}B {:>9.2}B",
            r.model,
            r.layers,
            r.params_b,
            r.activs_b,
            r.e_and_k,
            r.paper_params_b,
            r.paper_activs_b
        );
    }
    crate::output::save_json("tab2", &rows);
    rows
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_rows_match_paper_within_tolerance() {
        for r in super::rows() {
            assert!(
                (r.params_b - r.paper_params_b).abs() / r.paper_params_b < 0.0015,
                "{}: {} vs {}",
                r.model,
                r.params_b,
                r.paper_params_b
            );
        }
    }
}
