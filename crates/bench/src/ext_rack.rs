//! Extension experiment: the cross-rack scenario of Sec. 7.
//!
//! "In cross-rack scenarios where bandwidth is typically constrained,
//! LAER-MoE is compatible with hybrid parallelism (e.g., Pipeline
//! Parallelism), which can mitigate limited cross-rack bandwidth by
//! confining All-to-All communication within racks."
//!
//! We measure three configurations of a 32-GPU deployment:
//!
//! 1. the paper's flat 4-node cluster (reference);
//! 2. the same 32 GPUs split over two racks with a constrained spine,
//!    running one global 32-way expert-parallel group (A2A crosses the
//!    spine);
//! 3. the two-rack cluster with A2A *confined* per rack — two
//!    independent 16-GPU expert-parallel groups, as pipeline parallelism
//!    across racks would arrange.

use crate::pool::{Batch, Slot};
use laer_baselines::{LaerSystem, SystemKind};
use laer_cluster::Topology;
use laer_model::ModelPreset;
use laer_train::{run_experiment_with, ExperimentConfig};
use serde::{Deserialize, Serialize};

/// One deployment's measured iteration time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RackRow {
    /// Deployment label.
    pub deployment: String,
    /// Average iteration seconds.
    pub iteration_time: f64,
    /// Slowdown relative to the flat cluster.
    pub slowdown: f64,
}

/// Constrained rack spine: 50 GB/s shared per rack (vs the 100 GB/s
/// per-node NICs).
const RACK_BW: f64 = 50.0e9;

/// Average iteration seconds of LAER on `topo` (3 warmup iterations),
/// layer `l` routed from trace seed `seed + l`.
fn measure(topo: &Topology, layers: usize, iters: usize, seed: u64) -> f64 {
    // `routing_config` seeds layer `l` with `cfg.seed + 1 + l`.
    let cfg = ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
        .with_cluster(topo.num_nodes(), topo.devices_per_node())
        .with_layers(layers)
        .with_iterations(iters, 3)
        .with_seed(seed.wrapping_sub(1));
    let system = LaerSystem::new(cfg.context_on(topo.clone()));
    run_experiment_with(&cfg, Box::new(system)).avg_iteration_time
}

fn flat_topology() -> Topology {
    Topology::new(4, 8).unwrap_or_else(|e| unreachable!("flat cluster: {e}"))
}

fn racked_topology() -> Topology {
    Topology::with_racks(2, 2, 8, RACK_BW).unwrap_or_else(|e| unreachable!("racked cluster: {e}"))
}

fn per_rack_topology() -> Topology {
    Topology::new(2, 8).unwrap_or_else(|e| unreachable!("one rack: {e}"))
}

/// Assembles the measured times into table rows. Confined takes the
/// slower of the two independent per-rack groups (they run
/// concurrently).
fn assemble(t_flat: f64, t_racked: f64, t_rack_a: f64, t_rack_b: f64) -> Vec<RackRow> {
    let t_confined = t_rack_a.max(t_rack_b);
    [
        ("flat 4x8 (paper cluster)", t_flat),
        ("2 racks, global A2A", t_racked),
        ("2 racks, A2A confined per rack", t_confined),
    ]
    .into_iter()
    .map(|(label, t)| RackRow {
        deployment: label.to_string(),
        iteration_time: t,
        slowdown: t / t_flat,
    })
    .collect()
}

/// The study's cells — one simulated deployment each — pending
/// execution.
pub struct Pending {
    flat: Slot<f64>,
    racked: Slot<f64>,
    rack_a: Slot<f64>,
    rack_b: Slot<f64>,
}

/// Submits the four deployment simulations to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    let (layers, iters) = (6, 8);
    let flat = flat_topology();
    let racked = racked_topology();
    let rack_a = per_rack_topology();
    let rack_b = per_rack_topology();
    Pending {
        flat: batch.submit("ext-rack/flat".to_string(), move || {
            measure(&flat, layers, iters, 13)
        }),
        racked: batch.submit("ext-rack/racked".to_string(), move || {
            measure(&racked, layers, iters, 13)
        }),
        rack_a: batch.submit("ext-rack/rack-a".to_string(), move || {
            measure(&rack_a, layers, iters, 13)
        }),
        rack_b: batch.submit("ext-rack/rack-b".to_string(), move || {
            measure(&rack_b, layers, iters, 1300)
        }),
    }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<RackRow> {
    println!("Extension: cross-rack deployments (Sec. 7 discussion)\n");
    println!(
        "{:<34} {:>12} {:>10}",
        "deployment", "iter (ms)", "slowdown"
    );
    let rows = assemble(
        pending.flat.take(),
        pending.racked.take(),
        pending.rack_a.take(),
        pending.rack_b.take(),
    );
    for r in &rows {
        println!(
            "{:<34} {:>12.1} {:>9.2}x",
            r.deployment,
            r.iteration_time * 1e3,
            r.slowdown
        );
    }
    println!(
        "\nA constrained rack spine inflates global All-to-All; confining A2A\n\
         within racks (as pipeline parallelism across racks would) recovers\n\
         near-flat-cluster efficiency — the paper's Sec. 7 mitigation."
    );
    crate::output::save_json("ext_rack", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the three deployments serially.
    fn rows(layers: usize, iters: usize) -> Vec<RackRow> {
        let t_flat = measure(&flat_topology(), layers, iters, 13);
        let t_racked = measure(&racked_topology(), layers, iters, 13);
        // Confined: each rack runs an independent 16-GPU EP group.
        let per_rack = per_rack_topology();
        assemble(
            t_flat,
            t_racked,
            measure(&per_rack, layers, iters, 13),
            measure(&per_rack, layers, iters, 1300),
        )
    }

    #[test]
    fn confinement_recovers_efficiency() {
        let rows = rows(3, 4);
        let flat = rows[0].iteration_time;
        let global = rows[1].iteration_time;
        let confined = rows[2].iteration_time;
        assert!(
            global > flat * 1.05,
            "constrained spine should hurt global A2A: {global} vs {flat}"
        );
        assert!(
            confined < global,
            "confinement should beat global A2A: {confined} vs {global}"
        );
        assert!(
            confined < flat * 1.15,
            "confined deployment should be near flat: {confined} vs {flat}"
        );
    }
}
