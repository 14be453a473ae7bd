//! Extension experiment: fault-tolerant serving under injected chaos.
//!
//! The resilience layer (`laer_serve`'s failure detection, capped-retry
//! re-enqueue, SLO-aware brownout and elastic survivor re-layout) is
//! exercised by sweeping fault **kind × intensity** across the three
//! serving systems on the calibrated 2×8 cluster of the serving unit
//! tests:
//!
//! * **device-failure** — 1/2/3 devices drop out over `[0.03, 0.09)`
//!   and rejoin; `laer` drains, re-plans on the survivors and
//!   re-admits, while `static-ep` pays failover timeout + weight reload
//!   + redone work;
//! * **straggler** — one device computes 2/4/8× slower;
//! * **link-degrade** — one cross-node link at 0.5/0.2/0.05× bandwidth;
//! * **planner-outage** — the planner host is unreachable while a
//!   device fails; intensity is whether the outage window has cleared
//!   by the failure instant (level 1) or still covers it (2–3), which
//!   forces even `laer` onto the restart path.
//!
//! Every row reports goodput-under-SLO, p99 TTFT, retries, the shed
//! breakdown and time-to-recover, plus the zero-loss check
//! `completed + shed = requests`. The injected plans are saved as a
//! replayable JSON artifact next to the sweep results, and the headline
//! cell (`laer` under the severe device failure) exports its Chrome
//! trace — fault/recovery spans and the queue-depth counter track —
//! and its journal/metrics records.

use laer_cluster::DeviceId;
use laer_obs::{queue_depth_track, Observer};
use laer_serve::{
    record_observability, run_serving, ServeConfig, ServingOutcome, ServingSystemKind,
    WorkloadConfig,
};
use laer_sim::{write_chrome_trace_with_counters, FaultKind, FaultPlan, TimedFaultEvent};
use serde::{Deserialize, Serialize};

use crate::output::{save_text, save_with};
use crate::pool::{Batch, Slot};
use crate::Effort;

/// Workload seed shared by every cell (the sweep varies faults, never
/// the randomness) — the calibration of the serving resilience tests.
const SEED: u64 = 11;
/// Offered load in requests per second.
const RATE: f64 = 600.0;
/// Fault kinds of the sweep, row order.
const KINDS: [&str; 4] = [
    "device-failure",
    "straggler",
    "link-degrade",
    "planner-outage",
];
/// Intensity levels per kind (level 0 is the fault-free baseline).
const LEVELS: [u32; 3] = [1, 2, 3];
/// The headline cell: `laer` under the severe device failure.
const HEADLINE: (&str, u32, ServingSystemKind) = ("device-failure", 3, ServingSystemKind::Laer);

/// One (fault kind, intensity, system) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosRow {
    /// Injected fault kind (`none` for the fault-free baseline).
    pub kind: String,
    /// Intensity level, 1–3 (0 for the baseline).
    pub level: u32,
    /// Serving system identifier.
    pub system: String,
    /// Requests in the workload.
    pub requests: usize,
    /// Requests served to completion.
    pub completed: usize,
    /// SLO-meeting completions per virtual second.
    pub goodput_rps: f64,
    /// 99th-percentile time-to-first-token (s).
    pub ttft_p99: f64,
    /// Fraction of all requests meeting the SLO.
    pub slo_attainment: f64,
    /// Retry re-enqueues after failure interruptions.
    pub retries: u64,
    /// In-flight requests interrupted by failures.
    pub interrupted: u64,
    /// Arrivals shed because the admission queue was full.
    pub shed_queue_full: usize,
    /// Arrivals shed by the SLO-aware brownout.
    pub shed_brownout: usize,
    /// Requests shed after exhausting their retry cap.
    pub shed_retry_exhausted: usize,
    /// Requests still pending when the run hit its step cap.
    pub shed_unserved: usize,
    /// Device failures detected.
    pub failures: u64,
    /// Completed recovery episodes.
    pub recoveries: u64,
    /// Virtual seconds from detection to serving resuming, summed.
    pub recovery_time: f64,
    /// Re-layouts applied.
    pub relayouts: u64,
    /// Accounting residue `completed + shed − requests`; zero means no
    /// request was lost.
    pub lost: i64,
}

/// One replayable injected plan of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanEntry {
    /// Fault kind the plan realises.
    pub kind: String,
    /// Intensity level.
    pub level: u32,
    /// The time-stamped schedule, replayable via `ServeConfig::faults`.
    pub plan: FaultPlan,
}

fn timed(kind: FaultKind, start: f64, end: f64) -> TimedFaultEvent {
    TimedFaultEvent { kind, start, end }
}

/// Builds the injected plan for one (kind, level) cell.
///
/// # Panics
///
/// Panics if a constant window is invalid (caught by the sweep test).
pub fn fault_plan(kind: &str, level: u32) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut push = |ev: TimedFaultEvent| match plan.push_timed(ev) {
        Ok(()) => {}
        Err(e) => panic!("chaos plan window: {e}"),
    };
    match kind {
        "device-failure" => {
            // 1/2/3 devices fail over the same window and all rejoin.
            for &d in [3usize, 5, 11].iter().take(level as usize) {
                push(timed(
                    FaultKind::DeviceFailure {
                        device: DeviceId::new(d),
                    },
                    0.03,
                    0.09,
                ));
            }
        }
        "straggler" => {
            push(timed(
                FaultKind::Straggler {
                    device: DeviceId::new(1),
                    factor: f64::from(1u32 << level), // 2×, 4×, 8×
                },
                0.02,
                0.10,
            ));
        }
        "link-degrade" => {
            let factor = [0.5, 0.2, 0.05][(level - 1) as usize];
            push(timed(
                FaultKind::LinkDegrade {
                    a: DeviceId::new(0),
                    b: DeviceId::new(8),
                    factor,
                },
                0.02,
                0.10,
            ));
        }
        "planner-outage" => {
            // A fixed single-device failure at 0.05; the outage window
            // either clears before it (level 1 — laer still re-plans)
            // or covers it (levels 2–3 — laer must restart).
            let outage_end = [0.04, 0.06, 0.09][(level - 1) as usize];
            push(timed(FaultKind::PlannerOutage, 0.02, outage_end));
            push(timed(
                FaultKind::DeviceFailure {
                    device: DeviceId::new(3),
                },
                0.05,
                0.09,
            ));
        }
        other => panic!("unknown chaos kind {other}"),
    }
    plan
}

/// The serving configuration of one cell: the calibrated 2×8 cluster of
/// the resilience unit tests (see `laer_serve::serving`'s chaos tests).
pub fn point(system: ServingSystemKind, plan: Option<FaultPlan>, requests: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(system);
    cfg.workload = WorkloadConfig::default()
        .with_seed(SEED)
        .with_requests(requests)
        .with_arrival_rate(RATE);
    cfg.workload.mean_decode_tokens = 16.0;
    cfg.queue_capacity = 512;
    cfg.step_overhead = 2.0e-4;
    cfg.faults = plan;
    cfg
}

fn row(kind: &str, level: u32, out: &ServingOutcome) -> ChaosRow {
    let r = &out.report;
    let shed_total = r.shed.total();
    ChaosRow {
        kind: kind.to_string(),
        level,
        system: r.system.clone(),
        requests: r.requests,
        completed: r.completed,
        goodput_rps: r.goodput_rps,
        ttft_p99: r.ttft.p99,
        slo_attainment: r.slo_attainment,
        retries: r.retries,
        interrupted: r.interrupted,
        shed_queue_full: r.shed.queue_full,
        shed_brownout: r.shed.brownout,
        shed_retry_exhausted: r.shed.retry_exhausted,
        shed_unserved: r.shed.unserved,
        failures: r.failures,
        recoveries: r.recoveries,
        recovery_time: r.recovery_time,
        relayouts: r.relayouts,
        lost: (r.completed + shed_total) as i64 - r.requests as i64,
    }
}

/// Requests per cell at the given effort.
pub fn default_requests(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 80,
        Effort::Full => 160,
    }
}

/// Every cell of the sweep in row order: (kind, level, system); level 0
/// with kind `none` is the fault-free baseline.
fn cells_list() -> Vec<(&'static str, u32, ServingSystemKind)> {
    let mut out = Vec::new();
    for system in ServingSystemKind::ALL {
        out.push(("none", 0, system));
    }
    for kind in KINDS {
        for level in LEVELS {
            for system in ServingSystemKind::ALL {
                out.push((kind, level, system));
            }
        }
    }
    out
}

/// Runs one cell; the outcome rides along only for the headline cell,
/// whose timeline carries the fault/recovery spans.
fn run_cell(
    kind: &'static str,
    level: u32,
    system: ServingSystemKind,
    requests: usize,
) -> (ChaosRow, Option<ServingOutcome>) {
    let plan = (level > 0).then(|| fault_plan(kind, level));
    let o = run_serving(&point(system, plan, requests));
    let r = row(kind, level, &o);
    let is_headline = (kind, level, system) == HEADLINE;
    (r, is_headline.then_some(o))
}

/// The sweep's cells, pending pool execution.
pub struct Pending {
    requests: usize,
    cells: Vec<Slot<(ChaosRow, Option<ServingOutcome>)>>,
}

impl Pending {
    /// Redeems the executed cells in submission order. The returned
    /// outcome is the headline `laer` run under the severe device
    /// failure.
    fn take(self) -> (Vec<ChaosRow>, ServingOutcome) {
        let mut rows = Vec::new();
        let mut headline = None;
        for slot in self.cells {
            let (r, h) = slot.take();
            rows.push(r);
            if h.is_some() {
                headline = h;
            }
        }
        let headline = headline.unwrap_or_else(|| unreachable!("the cell list contains HEADLINE"));
        (rows, headline)
    }
}

/// Submits every cell of the sweep to the pool.
pub fn submit(batch: &mut Batch, effort: Effort, requests_override: Option<usize>) -> Pending {
    let requests = requests_override.unwrap_or_else(|| default_requests(effort));
    let cells = cells_list()
        .into_iter()
        .map(|(kind, level, system)| {
            let label = format!("ext-chaos/{kind}/{level}/{}", system.id());
            batch.submit(label, move || run_cell(kind, level, system, requests))
        })
        .collect();
    Pending { requests, cells }
}

fn print_rows(rows: &[ChaosRow]) {
    println!(
        "{:<15} {:>3} {:<13} {:>5} {:>8} {:>9} {:>4} {:>4} {:>13} {:>4} {:>8} {:>5} {:>4}",
        "fault",
        "lvl",
        "system",
        "done",
        "goodput",
        "p99 ttft",
        "rtry",
        "intr",
        "shed q/b/r/u",
        "rcov",
        "t_rcov",
        "relay",
        "lost"
    );
    for r in rows {
        println!(
            "{:<15} {:>3} {:<13} {:>5} {:>8.1} {:>8.1}ms {:>4} {:>4} {:>4}/{}/{}/{} {:>4} {:>7.3}s {:>5} {:>4}",
            r.kind,
            r.level,
            r.system,
            r.completed,
            r.goodput_rps,
            r.ttft_p99 * 1e3,
            r.retries,
            r.interrupted,
            r.shed_queue_full,
            r.shed_brownout,
            r.shed_retry_exhausted,
            r.shed_unserved,
            r.recoveries,
            r.recovery_time,
            r.relayouts,
            r.lost
        );
    }
}

/// Writes the headline cell's artifacts: the Chrome trace with
/// fault/recovery spans and the queue-depth counter track, plus the
/// resilience journal/metrics exports.
fn save_headline(headline: &ServingOutcome) {
    let tracks = [queue_depth_track(&headline.queue_depth)];
    save_with("ext_chaos_trace.json", |f| {
        write_chrome_trace_with_counters(&headline.timeline, &tracks, f)
    });
    let mut obs = Observer::new();
    record_observability(headline, &mut obs);
    save_text("ext_chaos_metrics.txt", &obs.registry.to_openmetrics());
    save_text("ext_chaos_journal.jsonl", &obs.journal.to_jsonl());
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<ChaosRow> {
    let requests = pending.requests;
    println!(
        "Extension: fault-tolerant serving under injected chaos\n\
         (2×8 cluster, seed {SEED}, {requests} requests per cell at {RATE:.0} rps;\n\
         shed = queue-full/brownout/retry-exhausted/unserved, lost must be 0)"
    );
    let (all, headline) = pending.take();
    println!();
    print_rows(&all);
    println!(
        "\nUnder device failures, laer drains in-flight work off the dead\n\
         devices, re-plans the layout on the survivors and re-admits when\n\
         they rejoin, so goodput dips instead of cliffing; the static\n\
         baselines pay failover timeout + weight reload + redone work.\n\
         Brownout sheds excess arrivals to protect the p99 TTFT of what\n\
         it admits, and every request is accounted for (lost = 0)."
    );
    crate::output::save_json("ext_chaos", &all);
    let plans: Vec<PlanEntry> = KINDS
        .iter()
        .flat_map(|&kind| {
            LEVELS.map(|level| PlanEntry {
                kind: kind.to_string(),
                level,
                plan: fault_plan(kind, level),
            })
        })
        .collect();
    crate::output::save_json("ext_chaos_plans", &plans);
    save_headline(&headline);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_sim::SpanLabel;

    fn get<'a>(rows: &'a [ChaosRow], kind: &str, level: u32, system: &str) -> &'a ChaosRow {
        rows.iter()
            .find(|r| r.kind == kind && r.level == level && r.system == system)
            .expect("row exists")
    }

    /// The acceptance contrast: under device failures laer degrades
    /// gracefully and recovers while static-ep cliffs, nothing is ever
    /// lost, and the headline trace carries fault/recovery spans.
    #[test]
    fn laer_degrades_gracefully_while_static_cliffs() {
        let mut batch = Batch::new();
        let pending = submit(&mut batch, Effort::Quick, None);
        batch.run(2);
        let (rows, headline) = pending.take();
        assert_eq!(rows.len(), (KINDS.len() * LEVELS.len() + 1) * 3);
        // Zero-loss: every request completes, retries or is accounted
        // as shed — in every cell, for every system.
        assert!(rows.iter().all(|r| r.lost == 0), "no request may be lost");
        // Fault-free baselines see no failures and shed nothing.
        for r in rows.iter().filter(|r| r.kind == "none") {
            assert_eq!(r.failures, 0);
            assert_eq!(r.retries, 0);
            assert_eq!(r.recovery_time, 0.0);
        }
        for level in LEVELS {
            let laer = get(&rows, "device-failure", level, "laer");
            let stat = get(&rows, "device-failure", level, "static-ep");
            assert!(
                laer.goodput_rps > stat.goodput_rps,
                "level {level}: laer goodput {} vs static {}",
                laer.goodput_rps,
                stat.goodput_rps
            );
            assert!(
                laer.recovery_time < stat.recovery_time,
                "level {level}: laer recovers in {}s vs static {}s",
                laer.recovery_time,
                stat.recovery_time
            );
            // Static pays the full failover timeout + reload per episode.
            assert!(stat.recovery_time > 0.4);
            assert!(laer.interrupted > 0 || stat.interrupted > 0);
        }
        // A planner outage covering the failure forces laer onto the
        // restart path, which costs it the timeout it otherwise avoids.
        let replan = get(&rows, "planner-outage", 1, "laer");
        let restart = get(&rows, "planner-outage", 2, "laer");
        assert!(
            restart.recovery_time > replan.recovery_time + 0.3,
            "outage over the failure must force a restart: {} vs {}",
            restart.recovery_time,
            replan.recovery_time
        );
        // The headline timeline carries the injected fault windows and
        // the recovery annotations.
        let spans = headline.timeline.spans();
        assert!(spans.iter().any(|s| s.label == SpanLabel::Fault));
        assert!(spans.iter().any(|s| s.label == SpanLabel::Recovery));
    }

    /// Every injected plan round-trips through JSON unchanged — the
    /// saved `ext_chaos_plans.json` artifact is replayable.
    #[test]
    fn plans_round_trip_as_json() {
        for kind in KINDS {
            for level in LEVELS {
                let plan = fault_plan(kind, level);
                let json = serde_json::to_string(&plan).expect("serialize");
                let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
                assert_eq!(back, plan, "{kind}/{level}");
            }
        }
    }
}
