//! Extension experiment: critical-path diagnosis and online anomaly
//! alerting, end to end.
//!
//! Two sweeps share one report:
//!
//! * **Training diagnosis** — three systems (`laer-moe` + two
//!   baselines) run with dependency recording on
//!   ([`laer_train::run_experiment_diagnosed`]); every measured
//!   iteration's span DAG yields a critical-path blame breakdown
//!   (seconds per `label × device × stream`), and the device the path
//!   runs through is compared against the device Eq. 1 predicted as
//!   the bottleneck — the **agreement rate** says how often the cost
//!   model's belief names the device that actually gated the
//!   iteration. The last iteration's DAG is replayed under what-if
//!   scalings (2× A2A bandwidth, free relayout, ...) without
//!   re-simulating.
//! * **Chaos detection** — the `ext-chaos` fault plans (device
//!   failures, stragglers, degraded links) replay against the `laer`
//!   serving system while streaming detectors ([`EwmaDetector`] on
//!   queue depth, a [`ThresholdRule`] on the live-device count) watch
//!   the per-step telemetry. Alerts are joined against the labeled
//!   fault windows into a scoreboard of time-to-detect, precision and
//!   recall per fault kind; the live-set rule detects a severe device
//!   failure in exactly the serving stack's detection delay
//!   ([`SERVE_DETECTION_DELAY`]).
//!
//! Artifacts under `target/repro/`: `ext_diagnose.json` (both sweeps +
//! the scoreboards), `ext_diagnose_trace.json` — the `laer-moe`
//! training timeline as a Chrome trace whose flow arrows
//! (`ph:"s"/"f"`) draw the last iteration's critical path in Perfetto —
//! and the headline run's journal/metrics exports. Everything is
//! deterministic: any `--jobs` level reproduces every byte.

use crate::output::{save_text, save_with};
use crate::pool::{Batch, Slot};
use crate::Effort;
use laer_baselines::SystemKind;
use laer_cluster::DeviceId;
use laer_model::ModelPreset;
use laer_obs::{
    score_alerts, Alert, BlameEntry, EwmaDetector, FaultWindow, Observer, Scoreboard,
    ThresholdRule, WhatIf,
};
use laer_serve::{
    run_serving, step_records, ServingOutcome, ServingSystemKind, SERVE_DETECTION_DELAY,
};
use laer_sim::{write_chrome_trace_with_flow, FaultKind, FaultPlan, TimedFaultEvent, Timeline};
use laer_train::{run_experiment_diagnosed, ExperimentConfig, TrainDiagnosis};
use serde::{Deserialize, Serialize};

/// Seed of the calibrated training runs (the `ext-obs` calibration).
const SEED: u64 = 42;
/// Training systems under diagnosis.
const SYSTEMS: [SystemKind; 3] = [SystemKind::Laer, SystemKind::FsdpEp, SystemKind::SmartMoe];
/// Chaos kinds whose plans the detectors are scored against.
const KINDS: [&str; 3] = ["device-failure", "straggler", "link-degrade"];
/// Intensity levels per kind (matching `ext-chaos`).
const LEVELS: [u32; 3] = [1, 2, 3];
/// The headline detection cell: the severe device failure.
const HEADLINE: (&str, u32) = ("device-failure", 3);
/// Blame entries reported per system.
const TOP_BLAME: usize = 5;
/// Grace seconds past a fault window within which an alert still
/// counts: per-step detectors see backlog aggregates that legitimately
/// cross their threshold just after a short window closes.
const GRACE: f64 = 0.05;

/// One training system's diagnosis row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainDiagnoseRow {
    /// System name.
    pub system: String,
    /// Average measured iteration seconds.
    pub avg_iteration_time: f64,
    /// Measured iterations diagnosed.
    pub iterations: u64,
    /// Iterations where Eq. 1's predicted bottleneck device equals the
    /// critical-path device.
    pub agreements: u64,
    /// `agreements / iterations`.
    pub agreement_rate: f64,
    /// Mean unattributed seconds per iteration (≈ 0 on fault-free
    /// runs).
    pub mean_residual: f64,
    /// Top blame entries, descending seconds.
    pub top_blame: Vec<BlameEntry>,
    /// What-if scenarios replayed on the last iteration's DAG.
    pub what_ifs: Vec<WhatIf>,
}

/// One (fault kind, intensity) detection row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectRow {
    /// Injected fault kind.
    pub kind: String,
    /// Intensity level, 1–3.
    pub level: u32,
    /// Alerts fired over the run.
    pub alerts: usize,
    /// Ground-truth fault windows.
    pub events: u64,
    /// Windows with at least one matching alert.
    pub detected: u64,
    /// Mean seconds from window start to first matching alert.
    pub mean_ttd: f64,
    /// `detected / events`.
    pub recall: f64,
    /// `TP / (TP + FP)` over all alerts of the run.
    pub precision: f64,
}

/// The `ext_diagnose.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiagnoseSummary {
    /// Human description of the calibrated configuration.
    pub config: String,
    /// Per-system training diagnosis.
    pub train: Vec<TrainDiagnoseRow>,
    /// Per-(kind, level) detection quality.
    pub detect: Vec<DetectRow>,
}

/// One training cell's full result.
struct TrainCell {
    row: TrainDiagnoseRow,
    /// Timeline + critical-path edges + filled observer, kept only for
    /// the headline (`laer-moe`) system's artifacts.
    headline: Option<(Timeline, TrainDiagnosis, Observer)>,
}

/// One chaos cell's full result.
struct DetectCell {
    row: DetectRow,
    scoreboard: Scoreboard,
}

/// Measured iterations / warmup per effort.
fn iteration_budget(effort: Effort) -> (usize, usize) {
    match effort {
        Effort::Quick => (6, 2),
        Effort::Full => (12, 3),
    }
}

/// The calibrated training configuration for one system, with
/// dependency recording on.
fn train_config(system: SystemKind, effort: Effort) -> ExperimentConfig {
    let (iters, warmup) = iteration_budget(effort);
    ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, system)
        .with_cluster(2, 8)
        .with_layers(4)
        .with_iterations(iters, warmup)
        .with_seed(SEED)
        .with_record_deps(true)
}

fn config_description(effort: Effort, requests: usize) -> String {
    let (iters, warmup) = iteration_budget(effort);
    format!(
        "mixtral-8x7b 2x8, 4 layers, {iters} measured + {warmup} warmup iters, seed {SEED}, \
         record-deps on; chaos 2x8 laer, {requests} requests per cell, ext-chaos plans"
    )
}

fn run_train_cell(system: SystemKind, effort: Effort) -> TrainCell {
    let cfg = train_config(system, effort);
    let mut obs = Observer::new();
    let (result, timeline, diag) = run_experiment_diagnosed(&cfg, &mut obs);
    let row = TrainDiagnoseRow {
        system: result.system.clone(),
        avg_iteration_time: result.avg_iteration_time,
        iterations: diag.iterations,
        agreements: diag.agreements,
        agreement_rate: diag.agreement_rate,
        mean_residual: diag.mean_residual,
        top_blame: diag.blame.iter().take(TOP_BLAME).cloned().collect(),
        what_ifs: diag.what_ifs.clone(),
    };
    let headline = (system == SystemKind::Laer).then_some((timeline, diag, obs));
    TrainCell { row, headline }
}

/// Streams a run's per-step telemetry through the detectors: an EWMA
/// on queue depth (stragglers and dead links back the queue up) and a
/// fixed-limit rule on the live-device count (the hard invariant a
/// failure breaks). Alert order is record order, so times ascend.
fn run_detectors(out: &ServingOutcome) -> Vec<Alert> {
    let records = step_records(out);
    let fleet = records.first().map_or(0, |r| r.live_devices);
    let mut live_rule = ThresholdRule::below("live_devices", fleet as f64);
    let mut queue_ewma = EwmaDetector::new("queue_depth", 0.3, 3.5, 8, 0.5);
    let mut alerts = Vec::new();
    for r in &records {
        alerts.extend(live_rule.observe(r.time, r.live_devices as f64));
        alerts.extend(queue_ewma.observe(r.time, r.queue_depth as f64));
    }
    alerts
}

/// Ground-truth windows for scoring. Device failures open at the
/// serving stack's *detection* instant (`RecoveryEvent::detected`) —
/// the earliest moment any telemetry could reflect the loss — so the
/// live-set rule's time-to-detect measures pure detector latency.
/// Stragglers and degraded links have no recovery episode; their
/// windows are the injected plan's own.
fn fault_windows(kind: &str, plan: &FaultPlan, out: &ServingOutcome) -> Vec<FaultWindow> {
    if kind == "device-failure" {
        return out
            .recovery_events
            .iter()
            .map(|e| FaultWindow {
                kind: kind.to_string(),
                start: e.detected,
                end: e.resumed,
            })
            .collect();
    }
    plan.timed_events()
        .iter()
        .filter(|ev| {
            matches!(
                (kind, &ev.kind),
                ("straggler", FaultKind::Straggler { .. })
                    | ("link-degrade", FaultKind::LinkDegrade { .. })
            )
        })
        .map(|ev| FaultWindow {
            kind: kind.to_string(),
            start: ev.start,
            end: ev.end,
        })
        .fold(Vec::new(), |mut acc: Vec<FaultWindow>, w| {
            // The link plan injects one event per degraded pair over
            // the same window; that is one episode to detect, not
            // eight.
            if acc.last() != Some(&w) {
                acc.push(w);
            }
            acc
        })
}

/// The injected plan for one detection cell. Device failures and
/// stragglers reuse the `ext-chaos` plans verbatim. Link degradation
/// gets its own: `ext-chaos` degrades the single pair `(0, 8)`, which
/// `laer`'s replica placement routes around without a trace in the
/// step telemetry — nothing for a detector to detect. Here every
/// cross-node pair degrades at once (0.5/0.2/0.05× by level), so
/// cross-node dispatch genuinely slows and the backlog shows.
fn detect_plan(kind: &str, level: u32) -> FaultPlan {
    if kind != "link-degrade" {
        return crate::ext_chaos::fault_plan(kind, level);
    }
    let factor = [0.5, 0.2, 0.05][(level - 1) as usize];
    let mut plan = FaultPlan::new();
    for i in 0..8 {
        let ev = TimedFaultEvent {
            kind: FaultKind::LinkDegrade {
                a: DeviceId::new(i),
                b: DeviceId::new(8 + i),
                factor,
            },
            start: 0.02,
            end: 0.10,
        };
        if let Err(e) = plan.push_timed(ev) {
            panic!("link-degrade plan window: {e}");
        }
    }
    plan
}

fn run_detect_cell(kind: &'static str, level: u32, requests: usize) -> DetectCell {
    let plan = detect_plan(kind, level);
    let out = run_serving(&crate::ext_chaos::point(
        ServingSystemKind::Laer,
        Some(plan.clone()),
        requests,
    ));
    let alerts = run_detectors(&out);
    let windows = fault_windows(kind, &plan, &out);
    let scoreboard = score_alerts(&alerts, &windows, GRACE);
    let (events, detected, mean_ttd, recall) = scoreboard.row(kind).map_or((0, 0, 0.0, 0.0), |r| {
        (r.events, r.detected, r.mean_ttd, r.recall)
    });
    DetectCell {
        row: DetectRow {
            kind: kind.to_string(),
            level,
            alerts: alerts.len(),
            events,
            detected,
            mean_ttd,
            recall,
            precision: scoreboard.precision,
        },
        scoreboard,
    }
}

/// The two sweeps' cells, pending pool execution.
pub struct Pending {
    effort: Effort,
    requests: usize,
    train: Vec<Slot<TrainCell>>,
    detect: Vec<Slot<DetectCell>>,
}

/// Submits every cell of both sweeps to the pool.
pub fn submit(batch: &mut Batch, effort: Effort, requests_override: Option<usize>) -> Pending {
    let requests = requests_override.unwrap_or_else(|| crate::ext_chaos::default_requests(effort));
    let train = SYSTEMS
        .into_iter()
        .map(|system| {
            let label = format!("ext-diagnose/train/{}", system.id());
            batch.submit(label, move || run_train_cell(system, effort))
        })
        .collect();
    let detect = KINDS
        .iter()
        .flat_map(|&kind| {
            LEVELS.map(|level| {
                let label = format!("ext-diagnose/detect/{kind}/{level}");
                batch.submit(label, move || run_detect_cell(kind, level, requests))
            })
        })
        .collect();
    Pending {
        effort,
        requests,
        train,
        detect,
    }
}

/// Writes the headline artifacts: the `laer-moe` training timeline as
/// a flow-event Chrome trace (arrows along the last iteration's
/// critical path) plus the diagnosed run's journal/metrics exports.
fn save_headline(timeline: &Timeline, diag: &TrainDiagnosis, obs: &Observer) {
    save_with("ext_diagnose_trace.json", |f| {
        write_chrome_trace_with_flow(timeline, &[], &diag.critical_edges, f)
    });
    save_text("ext_diagnose_metrics.txt", &obs.registry.to_openmetrics());
    save_text("ext_diagnose_journal.jsonl", &obs.journal.to_jsonl());
}

fn print_train(rows: &[TrainDiagnoseRow]) {
    println!("\nCritical-path diagnosis (Eq. 1 predicted vs actual bottleneck device):");
    println!(
        "  {:<10} {:>9} {:>6} {:>9} {:>10}  top blame (label/device/stream: seconds)",
        "system", "step", "iters", "agree", "residual"
    );
    for r in rows {
        let blame = r
            .top_blame
            .first()
            .map(|b| format!("{}/d{}/{}: {:.4}s", b.label, b.device, b.stream, b.seconds))
            .unwrap_or_default();
        println!(
            "  {:<10} {:>7.2}ms {:>6} {:>8.0}% {:>9.6}s  {}",
            r.system,
            r.avg_iteration_time * 1e3,
            r.iterations,
            r.agreement_rate * 100.0,
            r.mean_residual,
            blame
        );
    }
    if let Some(laer) = rows.first() {
        println!("\nWhat-if replay of {}'s last iteration DAG:", laer.system);
        for w in &laer.what_ifs {
            println!(
                "  {:<20} makespan {:>8.3} ms  saves {:>8.3} ms",
                w.name,
                w.makespan * 1e3,
                w.saved * 1e3
            );
        }
    }
}

fn print_detect(rows: &[DetectRow]) {
    println!("\nDetector scoreboard (EWMA queue depth + live-set threshold, laer serving):");
    println!(
        "  {:<15} {:>3} {:>6} {:>6} {:>8} {:>10} {:>6} {:>9}",
        "fault", "lvl", "alerts", "events", "detected", "mean ttd", "recall", "precision"
    );
    for r in rows {
        println!(
            "  {:<15} {:>3} {:>6} {:>6} {:>8} {:>8.1}ms {:>5.0}% {:>8.0}%",
            r.kind,
            r.level,
            r.alerts,
            r.events,
            r.detected,
            r.mean_ttd * 1e3,
            r.recall * 100.0,
            r.precision * 100.0
        );
    }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> DiagnoseSummary {
    let config = config_description(pending.effort, pending.requests);
    println!("Extension: critical-path diagnosis + online anomaly alerting\n({config})");

    let mut train_rows = Vec::new();
    let mut headline = None;
    for slot in pending.train {
        let cell = slot.take();
        train_rows.push(cell.row);
        if cell.headline.is_some() {
            headline = cell.headline;
        }
    }
    let mut detect_rows = Vec::new();
    let mut headline_board = None;
    for slot in pending.detect {
        let cell = slot.take();
        if (cell.row.kind.as_str(), cell.row.level) == HEADLINE {
            headline_board = Some(cell.scoreboard);
        }
        detect_rows.push(cell.row);
    }

    print_train(&train_rows);
    print_detect(&detect_rows);
    if let Some(board) = &headline_board {
        if let Some(row) = board.row(HEADLINE.0) {
            println!(
                "\nSevere device failure: detected in {:.1} ms — the serving stack's own\n\
                 detection delay ({:.1} ms); the live-set rule adds zero detector latency.",
                row.mean_ttd * 1e3,
                SERVE_DETECTION_DELAY * 1e3
            );
        }
    }

    let summary = DiagnoseSummary {
        config,
        train: train_rows,
        detect: detect_rows,
    };
    crate::output::save_json("ext_diagnose", &summary);
    if let Some((timeline, diag, obs)) = &headline {
        save_headline(timeline, diag, obs);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: every diagnosed run attributes its makespan
    /// (tiny residual), reports a well-defined agreement rate and a
    /// non-empty blame table with what-ifs; the severe device failure
    /// is detected with time-to-detect equal to the serving stack's
    /// detection delay; and stragglers/degraded links are caught by the
    /// queue-depth EWMA.
    #[test]
    fn diagnosis_attributes_blame_and_detects_faults() {
        for system in SYSTEMS {
            let cell = run_train_cell(system, Effort::Quick);
            let r = &cell.row;
            assert_eq!(
                r.iterations, 6,
                "{}: all measured iters diagnosed",
                r.system
            );
            assert!(r.agreement_rate >= 0.0 && r.agreement_rate <= 1.0);
            assert_eq!(r.agreements as f64 / r.iterations as f64, r.agreement_rate);
            assert!(
                r.mean_residual < 1e-6,
                "{}: fault-free DAGs attribute the whole makespan, residual {}",
                r.system,
                r.mean_residual
            );
            assert!(!r.top_blame.is_empty());
            assert_eq!(r.what_ifs.len(), 4, "standard what-if set");
            assert!(
                r.what_ifs.iter().all(|w| w.makespan > 0.0),
                "replayed makespans are positive"
            );
            assert_eq!(cell.headline.is_some(), system == SystemKind::Laer);
        }

        // The headline: a severe device failure is detected exactly at
        // the serving stack's detection delay — the live-set rule fires
        // on the failure-edge telemetry sample, adding no latency.
        let severe = run_detect_cell("device-failure", 3, 60);
        assert!(severe.row.events > 0, "the plan injects failures");
        assert_eq!(severe.row.detected, severe.row.events, "full recall");
        assert!(
            severe.row.mean_ttd <= SERVE_DETECTION_DELAY + 1e-12,
            "time-to-detect {} must not exceed the detection delay {}",
            severe.row.mean_ttd,
            SERVE_DETECTION_DELAY
        );
        assert!(severe.row.mean_ttd > 0.0);

        // Stragglers and degraded links back up the admission queue;
        // the EWMA catches the severe levels.
        for kind in ["straggler", "link-degrade"] {
            let cell = run_detect_cell(kind, 3, 60);
            assert!(
                cell.row.detected > 0,
                "{kind}: severe level must be detected (alerts {})",
                cell.row.alerts
            );
            assert!(cell.row.mean_ttd >= 0.0);
        }
    }

    /// Pool execution at any worker count reproduces the serial
    /// summary exactly.
    #[test]
    fn summary_is_identical_across_job_counts() {
        let summary_at = |workers: usize| {
            let mut batch = Batch::new();
            let pending = submit(&mut batch, Effort::Quick, Some(40));
            batch.run(workers);
            serde_json::to_string(&finish(pending)).expect("serialize")
        };
        assert_eq!(
            summary_at(1),
            summary_at(3),
            "summaries must be byte-identical across --jobs"
        );
    }
}
