//! Extension experiment: the deterministic telemetry layer end to end,
//! plus the perf-regression gate.
//!
//! One calibrated configuration (fixed regardless of `--quick/--full`,
//! so the committed baseline always describes the same run) exercises
//! every piece of `laer-obs`:
//!
//! * three training systems (`laer-moe` + two baselines) run through
//!   [`laer_train::run_experiment_observed`], filling one shared
//!   [`Observer`] with per-iteration journal events, planner decision
//!   audits and registry metrics;
//! * one serving run feeds TTFT/TPOT/queue-depth histograms through
//!   [`laer_serve::record_observability`];
//! * the artifacts land under `target/repro/`: `ext_obs.json` (rows +
//!   audit summaries), `ext_obs_metrics.txt` (OpenMetrics text),
//!   `ext_obs_journal.jsonl` (the event journal) and two Chrome traces
//!   with `ph:"C"` counter tracks (per-stream utilisation for the
//!   training timeline; utilisation + admission-queue depth for the
//!   serving timeline) that render in Perfetto;
//! * the headline step times are compared against the committed
//!   `BENCH_obs.json` snapshot with a relative tolerance — the
//!   two-sided perf gate ([`laer_obs::gate`]).
//!
//! The simulator is deterministic, so a same-tree re-run reproduces
//! every artifact byte for byte; the gate failing therefore always
//! means the tree changed (or the baseline was doctored).

use crate::output::{save_json, save_text, save_with};
use crate::pool::{Batch, Slot};
use laer_baselines::SystemKind;
use laer_model::ModelPreset;
use laer_obs::{
    gate_snapshots, queue_depth_track, stream_utilization_tracks, AuditSummary, BenchSnapshot,
    GateReport, Observer, SnapshotRow,
};
use laer_serve::{record_observability, run_serving, ServeReport, ServingSystemKind};
use laer_sim::{write_chrome_trace_with_counters, CounterTrack, Timeline};
use laer_train::{run_experiment_observed, ExperimentConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Seed of the calibrated run.
const SEED: u64 = 42;
/// Training systems under observation: LAER plus two baselines, so the
/// audit reports prediction error for three planners.
const SYSTEMS: [SystemKind; 3] = [SystemKind::Laer, SystemKind::FsdpEp, SystemKind::SmartMoe];
/// Relative tolerance of the step-time gate.
pub const DEFAULT_TOLERANCE: f64 = 0.02;
/// Requests of the serving leg.
const SERVE_REQUESTS: usize = 150;

/// Gate options parsed from the `repro` command line.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Rewrite `BENCH_obs.json` from the current run instead of gating.
    pub update_baseline: bool,
    /// Baseline path override (defaults to `<repo>/BENCH_obs.json`).
    pub baseline: Option<PathBuf>,
    /// Tolerance override.
    pub tolerance: Option<f64>,
}

/// One training system's headline numbers in `ext_obs.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainObsRow {
    /// System name.
    pub system: String,
    /// Average measured iteration seconds.
    pub avg_iteration_time: f64,
    /// Training throughput, tokens per second.
    pub tokens_per_second: f64,
    /// Mean max-token/ideal routing imbalance.
    pub avg_max_token_ratio: f64,
}

/// The `ext_obs.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObsSummary {
    /// Human description of the calibrated configuration.
    pub config: String,
    /// Per-system training results.
    pub train: Vec<TrainObsRow>,
    /// Planner prediction-error summaries (LAER + the baselines).
    pub audit: Vec<AuditSummary>,
    /// The serving leg's report.
    pub serve: ServeReport,
    /// Journal events recorded.
    pub journal_events: usize,
}

/// Everything one calibrated run produces.
pub struct ObsRun {
    /// The JSON summary.
    pub summary: ObsSummary,
    /// The filled observer (registry + journal + audit).
    pub observer: Observer,
    /// Last measured iteration timeline of the `laer-moe` training run.
    pub train_timeline: Timeline,
    /// Devices of the training cluster.
    pub train_devices: usize,
    /// The serving run's timeline.
    pub serve_timeline: Timeline,
    /// Devices of the serving cluster.
    pub serve_devices: usize,
    /// Admission-queue depth samples of the serving run.
    pub queue_depth: Vec<(f64, usize)>,
    /// The gated snapshot of this run.
    pub snapshot: BenchSnapshot,
}

/// The calibrated training configuration for one system.
fn train_config(system: SystemKind) -> ExperimentConfig {
    ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, system)
        .with_cluster(2, 8)
        .with_layers(4)
        .with_iterations(10, 3)
        .with_seed(SEED)
}

/// Description string stored in the snapshot and the summary.
fn config_description() -> String {
    format!(
        "mixtral-8x7b 2x8, 4 layers, 10 measured + 3 warmup iters, seed {SEED}; \
         serving 1x4 laer @1200rps flip=30, {SERVE_REQUESTS} requests, seed 17"
    )
}

/// Runs the calibrated configuration and fills the observer.
pub fn collect() -> ObsRun {
    let mut observer = Observer::new();
    let mut train_rows = Vec::new();
    let mut snapshot_rows = Vec::new();
    let mut train_timeline = Timeline::new();
    let mut train_devices = 0;

    for system in SYSTEMS {
        let cfg = train_config(system);
        let (result, timeline) = run_experiment_observed(&cfg, &mut observer);
        if system == SystemKind::Laer {
            train_timeline = timeline;
            train_devices = cfg.nodes * cfg.devices_per_node;
        }
        snapshot_rows.push(SnapshotRow {
            key: format!("train/{}", result.system),
            step_time: result.avg_iteration_time,
            tokens_per_second: result.tokens_per_second,
        });
        train_rows.push(TrainObsRow {
            system: result.system,
            avg_iteration_time: result.avg_iteration_time,
            tokens_per_second: result.tokens_per_second,
            avg_max_token_ratio: result.avg_max_token_ratio,
        });
    }

    // The serving leg: LAER at the calibrated near-saturation point of
    // `ext-serve`, with drifting topics and hot-expert flips.
    let serve_cfg =
        crate::ext_serve::point(ServingSystemKind::Laer, 1200.0, Some(30), SERVE_REQUESTS);
    let serve_out = run_serving(&serve_cfg);
    record_observability(&serve_out, &mut observer);
    snapshot_rows.push(SnapshotRow {
        key: format!("serve/{}", serve_out.report.system),
        step_time: if serve_out.report.steps > 0 {
            serve_out.report.duration / serve_out.report.steps as f64
        } else {
            0.0
        },
        tokens_per_second: serve_out.report.throughput_tps,
    });

    let audit: Vec<AuditSummary> = observer.audit.summaries();
    let summary = ObsSummary {
        config: config_description(),
        train: train_rows,
        audit,
        serve: serve_out.report.clone(),
        journal_events: observer.journal.len(),
    };
    let snapshot = BenchSnapshot::new(config_description(), snapshot_rows);
    ObsRun {
        summary,
        observer,
        train_timeline,
        train_devices,
        serve_timeline: serve_out.timeline,
        serve_devices: serve_cfg.nodes * serve_cfg.devices_per_node,
        queue_depth: serve_out.queue_depth,
        snapshot,
    }
}

/// Counter tracks for a timeline: per-stream utilisation sampled over
/// ~48 windows of its makespan.
fn utilization_tracks(timeline: &Timeline, devices: usize) -> Vec<CounterTrack> {
    let makespan = timeline.makespan();
    if makespan <= 0.0 || devices == 0 {
        return Vec::new();
    }
    stream_utilization_tracks(timeline, devices, makespan / 48.0)
}

/// Default committed baseline path: `<repo root>/BENCH_obs.json`.
pub fn default_baseline_path() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("BENCH_obs.json");
    p
}

fn write_text(path: &Path, body: &str) {
    match std::fs::write(path, body) {
        Ok(()) => eprintln!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Gates `current` against the baseline at `path`. `None` means the
/// baseline is missing or unreadable (a failure unless updating).
pub fn gate_against(path: &Path, current: &BenchSnapshot, tolerance: f64) -> Option<GateReport> {
    let body = std::fs::read_to_string(path).ok()?;
    let baseline: BenchSnapshot = serde_json::from_str(&body).ok()?;
    Some(gate_snapshots(&baseline, current, tolerance))
}

/// The study's single cell — the full calibrated run, which fills one
/// shared observer — pending pool execution.
pub struct Pending {
    run: Slot<ObsRun>,
}

/// Submits the calibrated run to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    Pending {
        run: batch.submit("ext-obs/collect".to_string(), collect),
    }
}

/// Renders the executed cell, writes every artifact and gates against
/// the committed baseline — identical output to the serial run. Returns
/// `true` when the gate passes (or the baseline was just rewritten).
pub fn finish(opts: &ObsOptions, pending: Pending) -> bool {
    let tolerance = opts.tolerance.unwrap_or(DEFAULT_TOLERANCE);
    println!(
        "Extension: deterministic telemetry + perf-regression gate\n({})",
        config_description()
    );
    let run = pending.run.take();

    println!("\nTraining (observed):");
    for r in &run.summary.train {
        println!(
            "  {:<10} step {:>8.2} ms  {:>10.0} tok/s  imbalance {:.3}",
            r.system,
            r.avg_iteration_time * 1e3,
            r.tokens_per_second,
            r.avg_max_token_ratio
        );
    }
    println!("\nPlanner decision audit (predicted Eq. 1 vs simulated actual):");
    for a in &run.summary.audit {
        println!(
            "  {:<10} {:>4} decisions  mean |err| {:>6.2}%  bias {:>+6.2}%  worst {:>6.2}%",
            a.system,
            a.decisions,
            a.mean_abs_rel_error * 100.0,
            a.mean_rel_error * 100.0,
            a.worst_abs_rel_error * 100.0
        );
    }
    let s = &run.summary.serve;
    println!(
        "\nServing ({}): {} done / {} rejected in {} steps, p99 TTFT {:.1} ms, {} re-layouts",
        s.system,
        s.completed,
        s.rejected,
        s.steps,
        s.ttft.p99 * 1e3,
        s.relayouts
    );
    println!(
        "journal: {} events; registry: {} metric families",
        run.summary.journal_events,
        run.observer.registry.len()
    );

    // Artifacts.
    save_json("ext_obs", &run.summary);
    save_text(
        "ext_obs_metrics.txt",
        &run.observer.registry.to_openmetrics(),
    );
    save_text("ext_obs_journal.jsonl", &run.observer.journal.to_jsonl());
    let train_tracks = utilization_tracks(&run.train_timeline, run.train_devices);
    save_with("ext_obs_trace_train.json", |f| {
        write_chrome_trace_with_counters(&run.train_timeline, &train_tracks, f)
    });
    let mut serve_tracks = utilization_tracks(&run.serve_timeline, run.serve_devices);
    serve_tracks.push(queue_depth_track(&run.queue_depth));
    save_with("ext_obs_trace_serve.json", |f| {
        write_chrome_trace_with_counters(&run.serve_timeline, &serve_tracks, f)
    });

    // The gate.
    let baseline_path = opts.baseline.clone().unwrap_or_else(default_baseline_path);
    if opts.update_baseline {
        match serde_json::to_string_pretty(&run.snapshot) {
            Ok(json) => write_text(&baseline_path, &(json + "\n")),
            Err(e) => eprintln!("warning: cannot serialize baseline: {e}"),
        }
        println!("\nbaseline updated: {}", baseline_path.display());
        return true;
    }
    match gate_against(&baseline_path, &run.snapshot, tolerance) {
        Some(report) => {
            crate::output::save_json("ext_obs_gate", &report);
            println!("\nPerf gate vs {}:", baseline_path.display());
            print!("{}", report.render());
            report.pass
        }
        None => {
            eprintln!(
                "error: no readable baseline at {} — run `repro ext-obs --update-baseline`",
                baseline_path.display()
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A same-tree re-run of the calibrated config reproduces the
    /// snapshot exactly, every artifact is byte-identical, and the gate
    /// logic catches a doctored baseline.
    #[test]
    fn calibrated_run_is_reproducible_and_gated() {
        let a = collect();
        let b = collect();
        assert_eq!(a.snapshot, b.snapshot, "snapshot must reproduce exactly");
        assert_eq!(
            a.observer.registry.to_openmetrics(),
            b.observer.registry.to_openmetrics(),
            "metric export must be byte-identical"
        );
        assert_eq!(
            a.observer.journal.to_jsonl(),
            b.observer.journal.to_jsonl(),
            "journal must be byte-identical"
        );

        // LAER + at least two baselines report prediction error.
        assert!(a.summary.audit.len() >= 3, "3 audited systems expected");
        assert!(a
            .summary
            .audit
            .iter()
            .any(|s| s.system == "laer-moe" && s.decisions > 0));

        // Self-comparison passes; a doctored (inflated) baseline fails.
        let self_gate = gate_snapshots(&a.snapshot, &b.snapshot, DEFAULT_TOLERANCE);
        assert!(self_gate.pass, "identical runs must pass the gate");
        let mut doctored = a.snapshot.clone();
        doctored.rows[0].step_time *= 1.5;
        let gate = gate_snapshots(&doctored, &b.snapshot, DEFAULT_TOLERANCE);
        assert!(!gate.pass, "inflated baseline must fail the gate");

        // The serving timeline yields utilisation + queue-depth counter
        // tracks (>= 2 tracks, the acceptance bar).
        let mut tracks = utilization_tracks(&a.serve_timeline, a.serve_devices);
        tracks.push(queue_depth_track(&a.queue_depth));
        assert!(tracks.len() >= 2);
        assert!(!a.queue_depth.is_empty());
    }
}
