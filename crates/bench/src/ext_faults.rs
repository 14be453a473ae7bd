//! Extension experiment: robustness under injected faults.
//!
//! The paper evaluates LAER-MoE on a healthy cluster; this experiment
//! asks what the load-adaptive re-layout machinery buys when the cluster
//! is *not* healthy. Each fault class from [`laer_sim::faults`] —
//! compute straggler, link degradation, device failure, planner outage —
//! is injected mid-run into LAER, FSDP+EP and vanilla EP, and throughput
//! over the 10 iterations after onset is compared against the same
//! system's fault-free run.
//!
//! The headline contrast is the device-failure row: LAER's asynchronous
//! planner re-runs Alg. 1 on the survivors and continues elastically
//! (≥ 90 % of fault-free throughput), while the static-layout baselines
//! pay a collective timeout, a checkpoint reload and redone iterations.

use crate::pool::{Batch, Slot};
use laer_baselines::SystemKind;
use laer_cluster::DeviceId;
use laer_model::ModelPreset;
use laer_sim::{FaultEvent, FaultKind, FaultPlan};
use laer_train::{window_throughput, ExperimentConfig, FaultRunner};
use serde::{Deserialize, Serialize};

/// Iteration at which every fault switches on.
const ONSET: u64 = 4;
/// Post-onset window over which throughput is compared.
const WINDOW: u64 = 10;

/// One (fault class, system) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultRow {
    /// Fault class id.
    pub fault: String,
    /// System name.
    pub system: String,
    /// Tokens/second over the post-onset window, fault injected.
    pub faulted_tps: f64,
    /// Tokens/second over the same window, fault-free.
    pub clean_tps: f64,
    /// `faulted_tps / clean_tps` — the recovery ratio.
    pub ratio: f64,
}

fn fault_classes() -> Vec<(&'static str, FaultPlan)> {
    let end = ONSET + WINDOW;
    let mut rows = Vec::new();
    let mut push = |name: &'static str, kind: FaultKind, until: u64| {
        let mut plan = FaultPlan::new();
        plan.push(FaultEvent {
            kind,
            start: ONSET,
            end: until,
        })
        .unwrap_or_else(|e| unreachable!("static fault event is valid: {e}"));
        rows.push((name, plan));
    };
    push(
        "straggler",
        FaultKind::Straggler {
            device: DeviceId::new(5),
            factor: 2.0,
        },
        end,
    );
    // Intra-node link: with p_ep = 4 inside 8-GPU nodes, EP traffic is
    // NVLink-local, so an intra-node degradation is the one that hurts.
    push(
        "link-degrade",
        FaultKind::LinkDegrade {
            a: DeviceId::new(0),
            b: DeviceId::new(1),
            factor: 0.25,
        },
        end,
    );
    push(
        "device-failure",
        FaultKind::DeviceFailure {
            device: DeviceId::new(13),
        },
        u64::MAX,
    );
    push("planner-outage", FaultKind::PlannerOutage, end);
    rows
}

fn config(system: SystemKind) -> ExperimentConfig {
    ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, system)
        .with_layers(2)
        .with_seed(3)
}

fn measure(system: SystemKind, plan: FaultPlan) -> (f64, f64) {
    let total = ONSET + WINDOW;
    let post = ONSET as usize..;
    let faulted = FaultRunner::new(config(system), plan)
        .run(total)
        .unwrap_or_else(|e| panic!("paper-scale cluster recovers from a single fault: {e}"));
    let clean = FaultRunner::new(config(system), FaultPlan::new())
        .run(total)
        .unwrap_or_else(|e| unreachable!("fault-free run cannot fail: {e}"));
    (
        window_throughput(&faulted[post.clone()]),
        window_throughput(&clean[post]),
    )
}

/// The systems compared per fault class.
const SYSTEMS: [SystemKind; 3] = [SystemKind::Laer, SystemKind::FsdpEp, SystemKind::VanillaEp];

/// Measures one (fault class, system) cell into a table row.
fn row_for(fault: &'static str, system: SystemKind, plan: FaultPlan) -> FaultRow {
    let (faulted_tps, clean_tps) = measure(system, plan);
    FaultRow {
        fault: fault.to_string(),
        system: format!("{system:?}"),
        faulted_tps,
        clean_tps,
        ratio: faulted_tps / clean_tps,
    }
}

/// The study's cells, pending pool execution.
pub struct Pending {
    cells: Vec<Slot<FaultRow>>,
}

impl Pending {
    /// Redeems the executed cells in submission order.
    fn take(self) -> Vec<FaultRow> {
        self.cells.into_iter().map(Slot::take).collect()
    }
}

/// Submits every (fault class, system) cell to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    let mut cells = Vec::new();
    for (fault, plan) in fault_classes() {
        for system in SYSTEMS {
            let plan = plan.clone();
            cells.push(
                batch.submit(format!("ext-faults/{fault}/{system:?}"), move || {
                    row_for(fault, system, plan)
                }),
            );
        }
    }
    Pending { cells }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<FaultRow> {
    println!(
        "Extension: throughput under injected faults (onset iter {ONSET}, {WINDOW}-iter window)\n"
    );
    println!(
        "{:<16} {:<10} {:>14} {:>14} {:>9}",
        "fault", "system", "faulted tok/s", "clean tok/s", "ratio"
    );
    let rows = pending.take();
    for r in &rows {
        println!(
            "{:<16} {:<10} {:>14.0} {:>14.0} {:>8.1}%",
            r.fault,
            r.system,
            r.faulted_tps,
            r.clean_tps,
            r.ratio * 100.0
        );
    }
    println!(
        "\nLAER's CPU-side planner doubles as a failure detector: on a device\n\
         failure it re-runs Alg. 1 on the survivors and keeps training\n\
         elastically, while static EP layouts stall on a collective timeout,\n\
         reload the last checkpoint and redo the lost iterations."
    );
    crate::output::save_json("ext_faults", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance contrast: LAER recovers to ≥ 90 % of fault-free
    /// throughput within 10 iterations of a device failure; the static
    /// vanilla-EP baseline does not.
    #[test]
    fn device_failure_separates_elastic_from_static() {
        let mut batch = Batch::new();
        let pending = submit(&mut batch);
        batch.run(2);
        let rows = pending.take();
        let get = |fault: &str, system: &str| {
            rows.iter()
                .find(|r| r.fault == fault && r.system == system)
                .map(|r| r.ratio)
                .expect("row exists")
        };
        let laer = get("device-failure", "Laer");
        let vanilla = get("device-failure", "VanillaEp");
        assert!(laer >= 0.9, "LAER recovery ratio {laer:.3} < 0.9");
        assert!(vanilla < 0.9, "vanilla recovery ratio {vanilla:.3} >= 0.9");
        // Every fault class ran on every system without panicking and
        // produced finite throughput.
        assert_eq!(rows.len(), 12);
        assert!(rows
            .iter()
            .all(|r| r.faulted_tps.is_finite() && r.ratio > 0.0));
        // Degradation is real: no faulted run beats fault-free by more
        // than numerical noise.
        assert!(rows.iter().all(|r| r.ratio <= 1.001));
    }
}
