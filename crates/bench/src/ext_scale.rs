//! Extension experiment: fleet-scale planning — an N64→N4096 sweep of
//! the full planning stack, with the perf-regression gate over the
//! committed `BENCH_planner.json`.
//!
//! For each cluster size N ∈ {64, 256, 1024, 4096} (`--full`; the
//! default `--quick` sweep stops at {64, 256}) the study:
//!
//! * plans the instance with [`laer_planner::Planner::plan`], one
//!   [`crate::pool`] cell per size: the greedy (Alg. 2) plan and its
//!   deduplicated candidate count;
//! * refines the greedy layout through the incremental
//!   [`laer_planner::IncrementalCost`] evaluator and, at N ≤ 1024, the
//!   from-scratch reference refiner — the probes/sec ratio is the
//!   delta-evaluation speedup;
//! * times `Planner::plan` again, the median of five calls — the
//!   headline plan-time column. These timings and the two refinement
//!   legs run *serially*, after the pooled phases drain, so they
//!   measure the planner rather than pool contention;
//! * simulates one training iteration (4 layers, FSEP optimized
//!   schedule) under the static classic-EP layout and the LAER plan.
//!
//! The modelled Eq. 2 costs and simulated step times are fully
//! deterministic and gated two-sided against `BENCH_planner.json`
//! (same machinery as `ext-obs`); the wall-clock `probe/*` rows are
//! recorded for context but excluded from gating, as is any baseline
//! row for a cluster size the current run did not sweep (so the quick
//! sweep gates N64/N256 against the full committed baseline, which
//! only a full sweep may rewrite). A full run additionally enforces
//! the ≥ 5× delta-vs-scratch probe-throughput floor at N1024.

use crate::ext_obs::ObsOptions;
use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::SystemContext;
use laer_cluster::Topology;
use laer_fsep::{schedule_iteration, ScheduleOptions};
use laer_model::{GpuSpec, ModelPreset};
use laer_obs::{gate_snapshots, BenchSnapshot, GateReport, SnapshotRow};
use laer_planner::{
    lite_route, refine_layout, refine_layout_scratch, time_cost, CostParams, ExpertLayout, Plan,
    Planner, PlannerConfig, TokenRouting,
};
use laer_routing::{RoutingGenerator, RoutingGeneratorConfig, RoutingMatrix};
use laer_sim::Engine;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// Cluster sizes of the full sweep.
pub const FULL_SIZES: [usize; 4] = [64, 256, 1024, 4096];
/// Cluster sizes of the quick sweep (the default).
pub const QUICK_SIZES: [usize; 2] = [64, 256];
/// Experts per layer.
const EXPERTS: usize = 16;
/// Expert slots per device.
const CAPACITY: usize = 2;
/// Routed assignments per device per iteration (paper-scale token
/// volume, so layout-dependent expert compute and A2A terms are
/// macroscopic next to the layout-independent parameter collectives).
const ASSIGNMENTS_PER_DEVICE: u64 = 16 * 1024;
/// Candidate schemes the tuner draws (Alg. 2's ε).
const EPSILON: usize = 8;
/// Demand seed.
const SEED: u64 = 33;
/// Simulated transformer layers per iteration.
const SIM_LAYERS: usize = 4;
/// Relative tolerance of the deterministic-row gate.
pub const DEFAULT_TOLERANCE: f64 = 0.02;
/// Required delta-vs-scratch probe-throughput ratio at N1024 (full
/// runs only; the acceptance floor of the incremental evaluator).
const SPEEDUP_FLOOR: f64 = 5.0;
/// Largest size the from-scratch reference refiner still runs at —
/// beyond this a scratch probe is too slow to time in a smoke budget.
const SCRATCH_MAX_DEVICES: usize = 1024;
/// Serial `Planner::plan` calls per size whose median is the plan-time
/// column: the first call of a size runs cold.
const PLAN_TIMINGS: usize = 5;

/// Hill-climb probe budget per cluster size: more probes where each is
/// cheap, fewer at fleet scale.
fn refine_budget(devices: usize) -> usize {
    match devices {
        0..=64 => 2000,
        65..=256 => 800,
        257..=1024 => 400,
        _ => 200,
    }
}

/// The sweep's seeded demand for `devices` devices.
pub fn demand_for(devices: usize) -> RoutingMatrix {
    RoutingGenerator::new(
        RoutingGeneratorConfig::new(devices, EXPERTS, ASSIGNMENTS_PER_DEVICE).with_seed(SEED),
    )
    .next_iteration()
}

/// The sweep's topology: `devices / 8` nodes of 8 devices.
///
/// # Panics
///
/// Panics unless `devices` is a positive multiple of 8.
pub fn topo_for(devices: usize) -> Topology {
    assert!(
        devices >= 8 && devices.is_multiple_of(8),
        "sweep sizes are whole 8-GPU nodes"
    );
    Topology::new(devices / 8, 8).unwrap_or_else(|e| unreachable!("non-empty shape: {e}"))
}

/// The sweep's cost parameters: derived from the *same* model/GPU
/// operating point the simulator prices (the simulated step's
/// `SystemContext`), with per-peer latency in the communication term.
/// At fleet scale the accumulated fan-in latency of sparsely-replicated
/// experts dominates their A2A time; a bandwidth-only planner picks
/// layouts the simulator then measures as *slower* than static
/// classic-EP at N ≥ 1024.
pub fn params_for() -> CostParams {
    CostParams::from_model(
        &ModelPreset::Mixtral8x7bE16k4.config(),
        GpuSpec::a100(),
        false,
    )
    .with_latency_aware(true)
}

/// The sweep's planner.
pub fn planner_for(topo: Topology) -> Planner {
    Planner::new(
        PlannerConfig::new(CAPACITY).with_epsilon(EPSILON),
        params_for(),
        topo,
    )
}

/// Description string stored in the snapshot and the summary.
fn config_description() -> String {
    format!(
        "fleet-scale sweep: 8-GPU nodes, {EXPERTS} experts, capacity {CAPACITY}, \
         {ASSIGNMENTS_PER_DEVICE} assignments/device, epsilon {EPSILON}, seed {SEED}; \
         E16k4/A100 latency-aware cost model; {SIM_LAYERS} simulated layers (FSEP optimized)"
    )
}

/// Plans the `devices`-GPU instance: the deduplicated candidate count
/// and the plan.
fn plan_for(devices: usize) -> (usize, Plan) {
    let planner = planner_for(topo_for(devices));
    let demand = demand_for(devices);
    let schemes = planner
        .unique_schemes(planner.candidate_schemes(&demand))
        .len();
    (schemes, planner.plan(&demand))
}

/// The median wall-clock, in milliseconds, of [`PLAN_TIMINGS`]
/// [`Planner::plan`] calls on the `devices`-GPU instance, timed on the
/// calling thread.
fn time_plan(devices: usize) -> f64 {
    let planner = planner_for(topo_for(devices));
    let demand = demand_for(devices);
    let mut ms: Vec<f64> = (0..PLAN_TIMINGS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(planner.plan(&demand));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[PLAN_TIMINGS / 2]
}

/// Simulates one FSEP training iteration under `routing` and returns
/// its makespan in seconds. Deterministic in the routing.
fn simulated_step(topo: &Topology, routing: &TokenRouting) -> f64 {
    let ctx = SystemContext::new(
        topo.clone(),
        ModelPreset::Mixtral8x7bE16k4.config(),
        GpuSpec::a100(),
        ASSIGNMENTS_PER_DEVICE,
        8192,
    );
    let timings = ctx.layer_timings(
        routing,
        0.0,
        ctx.fsep_prefetch_time(),
        ctx.fsep_grad_sync_time(),
    );
    let layers = vec![timings; SIM_LAYERS];
    let mut engine = Engine::new(topo);
    schedule_iteration(&mut engine, topo, &layers, ScheduleOptions::optimized()).total
}

/// One refinement leg's outcome: accepted moves, priced probes, final
/// cost and wall-clock seconds.
struct RefineOutcome {
    moves: usize,
    probes: usize,
    cost: f64,
    seconds: f64,
}

/// One cluster size's results in `ext_scale.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Cluster size N.
    pub devices: usize,
    /// Deduplicated candidate schemes evaluated.
    pub schemes: usize,
    /// Median wall-clock of five serial `Planner::plan` calls, timed
    /// after the pooled phases drain, milliseconds.
    pub plan_wall_ms: f64,
    /// Eq. 2 cost of the static classic-EP layout, seconds.
    pub static_cost: f64,
    /// Eq. 2 cost of the greedy (Alg. 2) plan, seconds.
    pub greedy_cost: f64,
    /// Eq. 2 cost after hill-climb refinement, seconds.
    pub refined_cost: f64,
    /// Relative objective gain of refinement over greedy.
    pub refine_improvement: f64,
    /// Moves the hill-climb accepted within its budget.
    pub refine_moves: usize,
    /// Probes the hill-climb priced (budget-bounded).
    pub refine_probes: usize,
    /// Incremental-evaluator probe throughput, probes/second.
    pub delta_probes_per_sec: f64,
    /// From-scratch probe throughput (N ≤ 1024 only), probes/second.
    pub scratch_probes_per_sec: Option<f64>,
    /// Delta-vs-scratch probe-throughput ratio (N ≤ 1024 only).
    pub probe_speedup: Option<f64>,
    /// Simulated iteration seconds under the static layout.
    pub sim_static: f64,
    /// Simulated iteration seconds under the LAER plan.
    pub sim_laer: f64,
    /// Relative simulated-step gain of the LAER plan over static.
    pub sim_improvement: f64,
}

/// One size's plan, with its phase-2 simulation cell pending execution.
struct SizePending {
    devices: usize,
    schemes: usize,
    greedy_cost: f64,
    layout: ExpertLayout,
    sim: Slot<(f64, f64, f64)>,
}

/// Submits one size's simulation cell: the static classic-EP Eq. 2 cost
/// and the simulated static and LAER iterations. The refinement legs are
/// deliberately *not* pooled — see [`measure_refine`].
fn submit_sim_cell(
    batch: &mut Batch,
    devices: usize,
    laer_routing: TokenRouting,
) -> Slot<(f64, f64, f64)> {
    batch.submit(format!("ext-scale/N{devices}/simulate"), move || {
        let topo = topo_for(devices);
        let demand = demand_for(devices);
        let static_layout = ExpertLayout::classic_ep(devices, EXPERTS, CAPACITY)
            .unwrap_or_else(|e| unreachable!("capacity divides experts: {e}"));
        let static_routing = lite_route(&topo, &demand, &static_layout);
        let static_cost = time_cost(&topo, &static_routing, &params_for()).total();
        let sim_static = simulated_step(&topo, &static_routing);
        let sim_laer = simulated_step(&topo, &laer_routing);
        (static_cost, sim_static, sim_laer)
    })
}

/// Times one size's two refinement legs back to back on the calling
/// thread. Run *after* the pooled phases complete so each leg has the
/// machine to itself — in the pool the legs would contend with the
/// simulation cells for cores and the probes/sec ratio (the number the
/// acceptance floor checks) would measure scheduler interference, not
/// evaluator cost.
fn measure_refine(devices: usize, layout: &ExpertLayout) -> (RefineOutcome, Option<RefineOutcome>) {
    let topo = topo_for(devices);
    let demand = demand_for(devices);
    let params = params_for();
    let budget = refine_budget(devices);

    let start = Instant::now();
    let refined = refine_layout(&topo, &demand, layout, &params, budget);
    let delta = RefineOutcome {
        moves: refined.moves_accepted,
        probes: refined.probes_evaluated,
        cost: refined.cost.total(),
        seconds: start.elapsed().as_secs_f64(),
    };

    let scratch = (devices <= SCRATCH_MAX_DEVICES).then(|| {
        let start = Instant::now();
        let refined = refine_layout_scratch(&topo, &demand, layout, &params, budget);
        RefineOutcome {
            moves: refined.moves_accepted,
            probes: refined.probes_evaluated,
            cost: refined.cost.total(),
            seconds: start.elapsed().as_secs_f64(),
        }
    });

    (delta, scratch)
}

/// Collects one size's executed cells, serial plan time and serial
/// refinement legs into a [`ScaleRow`].
fn collect_row(
    pending: SizePending,
    plan_wall_ms: f64,
    delta: RefineOutcome,
    scratch: Option<RefineOutcome>,
) -> ScaleRow {
    if let Some(s) = &scratch {
        // The reference refiner must agree bit-for-bit with the delta
        // path — the core contract of this PR, re-checked on every run.
        assert_eq!(
            (s.moves, s.probes, s.cost.to_bits()),
            (delta.moves, delta.probes, delta.cost.to_bits()),
            "N{}: scratch and delta refiners disagree",
            pending.devices
        );
    }
    let (static_cost, sim_static, sim_laer) = pending.sim.take();
    let delta_pps = delta.probes as f64 / delta.seconds.max(1e-9);
    let scratch_pps = scratch
        .as_ref()
        .map(|s| s.probes as f64 / s.seconds.max(1e-9));
    ScaleRow {
        devices: pending.devices,
        schemes: pending.schemes,
        plan_wall_ms,
        static_cost,
        greedy_cost: pending.greedy_cost,
        refined_cost: delta.cost,
        refine_improvement: 1.0 - delta.cost / pending.greedy_cost,
        refine_moves: delta.moves,
        refine_probes: delta.probes,
        delta_probes_per_sec: delta_pps,
        scratch_probes_per_sec: scratch_pps,
        probe_speedup: scratch_pps.map(|s| delta_pps / s.max(1e-9)),
        sim_static,
        sim_laer,
        sim_improvement: 1.0 - sim_laer / sim_static,
    }
}

/// Builds the run's snapshot: deterministic modelled/simulated rows
/// plus informational wall-clock probe rows.
fn snapshot_of(rows: &[ScaleRow]) -> BenchSnapshot {
    let mut out = Vec::new();
    for r in rows {
        let n = r.devices;
        let tokens = (ASSIGNMENTS_PER_DEVICE * n as u64) as f64;
        for (key, step) in [
            (format!("plan/N{n}/static"), r.static_cost),
            (format!("plan/N{n}/laer"), r.greedy_cost),
            (format!("plan/N{n}/refined"), r.refined_cost),
            (format!("sim/N{n}/static"), r.sim_static),
            (format!("sim/N{n}/laer"), r.sim_laer),
        ] {
            out.push(SnapshotRow {
                key,
                step_time: step,
                tokens_per_second: tokens / step.max(1e-12),
            });
        }
        out.push(SnapshotRow {
            key: format!("probe/N{n}/delta"),
            step_time: 1.0 / r.delta_probes_per_sec.max(1e-9),
            tokens_per_second: r.delta_probes_per_sec,
        });
        if let Some(s) = r.scratch_probes_per_sec {
            out.push(SnapshotRow {
                key: format!("probe/N{n}/scratch"),
                step_time: 1.0 / s.max(1e-9),
                tokens_per_second: s,
            });
        }
    }
    BenchSnapshot::new(config_description(), out)
}

/// Restricts a snapshot to the gateable rows: wall-clock `probe/*`
/// rows are dropped (they vary run to run and machine to machine), and
/// so is any row for a cluster size outside `sizes` — a `--quick` run
/// gates its swept sizes against the full committed baseline.
fn gate_view(snap: &BenchSnapshot, sizes: &[usize]) -> BenchSnapshot {
    let keep = |key: &str| {
        !key.starts_with("probe/") && sizes.iter().any(|n| key.contains(&format!("/N{n}/")))
    };
    BenchSnapshot::new(
        snap.config.clone(),
        snap.rows.iter().filter(|r| keep(&r.key)).cloned().collect(),
    )
}

/// Default committed baseline path: `<repo root>/BENCH_planner.json`.
pub fn default_baseline_path() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("BENCH_planner.json");
    p
}

/// Runs the sweep across `workers` pool threads: [`FULL_SIZES`] at
/// [`Effort::Full`], else [`QUICK_SIZES`]. Returns `true` when the gate
/// (and, on full runs, the N1024 probe-speedup floor) passes — or the
/// baseline was just rewritten.
pub fn run_jobs(opts: &ObsOptions, effort: Effort, workers: usize) -> bool {
    let sizes: &[usize] = match effort {
        Effort::Quick => &QUICK_SIZES,
        Effort::Full => &FULL_SIZES,
    };
    println!(
        "Extension: fleet-scale planning sweep N{}..N{}\n({})\n",
        sizes[0],
        sizes[sizes.len() - 1],
        config_description()
    );

    // Phase 1: one `Planner::plan` cell per size, on one shared pool.
    let mut batch = Batch::new();
    let plans: Vec<Slot<(usize, Plan)>> = sizes
        .iter()
        .map(|&n| batch.submit(format!("ext-scale/N{n}/plan"), move || plan_for(n)))
        .collect();
    batch.run(workers);

    // Phase 2: the simulation cells, again pooled.
    let mut batch = Batch::new();
    let measures: Vec<SizePending> = sizes
        .iter()
        .zip(plans)
        .map(|(&devices, slot)| {
            let (schemes, plan) = slot.take();
            SizePending {
                devices,
                schemes,
                greedy_cost: plan.predicted.total(),
                sim: submit_sim_cell(&mut batch, devices, plan.routing),
                layout: plan.layout,
            }
        })
        .collect();
    batch.run(workers);

    // Phase 3: the plan timings and refinement legs, serial and
    // uncontended (see `measure_refine`).
    let rows: Vec<ScaleRow> = measures
        .into_iter()
        .map(|pending| {
            let plan_wall_ms = time_plan(pending.devices);
            let (delta, scratch) = measure_refine(pending.devices, &pending.layout);
            collect_row(pending, plan_wall_ms, delta, scratch)
        })
        .collect();

    println!(
        "{:>6} {:>8} {:>10} {:>11} {:>11} {:>11} {:>7} {:>12} {:>9}",
        "N",
        "schemes",
        "plan (ms)",
        "static(ms)",
        "greedy (ms)",
        "refined(ms)",
        "moves",
        "probes/s",
        "speedup"
    );
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>10.2} {:>11.3} {:>11.3} {:>11.3} {:>7} {:>12.0} {:>9}",
            r.devices,
            r.schemes,
            r.plan_wall_ms,
            r.static_cost * 1e3,
            r.greedy_cost * 1e3,
            r.refined_cost * 1e3,
            r.refine_moves,
            r.delta_probes_per_sec,
            match r.probe_speedup {
                Some(s) => format!("{s:.1}x"),
                None => "-".to_string(),
            }
        );
    }
    println!("\nsimulated iteration ({SIM_LAYERS} layers, FSEP optimized):");
    for r in &rows {
        println!(
            "  N{:<5} static {:>9.2} ms  laer {:>9.2} ms  ({:>5.1}% faster)",
            r.devices,
            r.sim_static * 1e3,
            r.sim_laer * 1e3,
            r.sim_improvement * 100.0
        );
    }
    crate::output::save_json("ext_scale", &rows);

    // The N1024 probe-speedup acceptance floor (full sweeps only — the
    // quick smoke does not reach N1024).
    let mut ok = true;
    if let Some(r) = rows.iter().find(|r| r.devices == 1024) {
        if let Some(speedup) = r.probe_speedup {
            if speedup < SPEEDUP_FLOOR {
                eprintln!(
                    "FAIL: delta probe throughput at N1024 is only {speedup:.1}x the \
                     from-scratch path (floor: {SPEEDUP_FLOOR:.0}x)"
                );
                ok = false;
            } else {
                println!(
                    "\nincremental evaluation at N1024: {speedup:.1}x probe throughput \
                     (floor {SPEEDUP_FLOOR:.0}x)"
                );
            }
        }
    }

    // The gate over the deterministic rows.
    let snapshot = snapshot_of(&rows);
    let baseline_path = opts.baseline.clone().unwrap_or_else(default_baseline_path);
    if opts.update_baseline {
        match serde_json::to_string_pretty(&snapshot) {
            Ok(json) => match std::fs::write(&baseline_path, json + "\n") {
                Ok(()) => println!("\nbaseline updated: {}", baseline_path.display()),
                Err(e) => {
                    eprintln!("error: cannot write {}: {e}", baseline_path.display());
                    ok = false;
                }
            },
            Err(e) => {
                eprintln!("warning: cannot serialize baseline: {e}");
                ok = false;
            }
        }
        return ok;
    }
    let tolerance = opts.tolerance.unwrap_or(DEFAULT_TOLERANCE);
    let report: Option<GateReport> = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|body| serde_json::from_str::<BenchSnapshot>(&body).ok())
        .map(|baseline| {
            gate_snapshots(
                &gate_view(&baseline, sizes),
                &gate_view(&snapshot, sizes),
                tolerance,
            )
        });
    match report {
        Some(report) => {
            crate::output::save_json("ext_scale_gate", &report);
            println!("\nPerf gate vs {}:", baseline_path.display());
            print!("{}", report.render());
            ok && report.pass
        }
        None => {
            eprintln!(
                "error: no readable baseline at {} — run `repro ext-scale --full --update-baseline`",
                baseline_path.display()
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic snapshot rows reproduce exactly across runs, and
    /// the gate view drops wall-clock and unswept-size rows.
    #[test]
    fn snapshot_is_reproducible_and_gate_view_filters() {
        let build = || {
            let topo = topo_for(64);
            let demand = demand_for(64);
            let plan = planner_for(topo.clone()).plan(&demand);
            let params = params_for();
            let refined = refine_layout(&topo, &demand, &plan.layout, &params, 200);
            (plan.predicted.total(), refined.cost.total())
        };
        assert_eq!(build(), build(), "modelled costs must reproduce exactly");

        let rows = vec![ScaleRow {
            devices: 64,
            schemes: 5,
            plan_wall_ms: 1.0,
            static_cost: 0.02,
            greedy_cost: 0.01,
            refined_cost: 0.009,
            refine_improvement: 0.1,
            refine_moves: 3,
            refine_probes: 100,
            delta_probes_per_sec: 1e5,
            scratch_probes_per_sec: Some(1e4),
            probe_speedup: Some(10.0),
            sim_static: 0.2,
            sim_laer: 0.15,
            sim_improvement: 0.25,
        }];
        let snap = snapshot_of(&rows);
        assert!(snap.rows.iter().any(|r| r.key == "probe/N64/delta"));
        let gated = gate_view(&snap, &[64]);
        assert!(gated.rows.iter().all(|r| !r.key.starts_with("probe/")));
        assert_eq!(gated.rows.len(), 5, "5 deterministic rows per size");
        // A baseline carrying sizes the current run skipped gates only
        // the overlap.
        let empty = gate_view(&snap, &[256]);
        assert!(empty.rows.is_empty());
    }

    /// The simulated step prefers the LAER plan over static classic EP
    /// on the skewed generator workload.
    #[test]
    fn laer_plan_beats_static_in_simulation() {
        let topo = topo_for(64);
        let demand = demand_for(64);
        let plan = planner_for(topo.clone()).plan(&demand);
        let static_layout = ExpertLayout::classic_ep(64, EXPERTS, CAPACITY).unwrap();
        let static_routing = lite_route(&topo, &demand, &static_layout);
        let sim_static = simulated_step(&topo, &static_routing);
        let sim_laer = simulated_step(&topo, &plan.routing);
        assert!(
            sim_laer < sim_static,
            "laer {sim_laer} should beat static {sim_static}"
        );
    }
}
