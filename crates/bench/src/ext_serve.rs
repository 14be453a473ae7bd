//! Extension experiment: online inference serving with live-traffic
//! -driven expert re-layout.
//!
//! The paper evaluates LAER-MoE as a *training* system; this experiment
//! asks what the same machinery — EMA load prediction feeding Alg. 1–4 —
//! buys when the traffic is inference requests whose topic mix drifts
//! and occasionally flips which experts are hot. Three serving systems
//! ([`laer_serve::ServingSystemKind`]) share one continuous-batching
//! scheduler on the deterministic simulator; only the expert-placement
//! policy differs, and every re-layout's weight movement is charged
//! through the sim (`SpanLabel::Relayout` spans on the prefetch stream).
//!
//! Two sweeps on a calibrated 1×4 cluster (one replica per expert under
//! the even static layout, so a hot expert concentrates on one device):
//!
//! * **load** — offered load from under- to over-saturation at a fixed
//!   mix-shift rate;
//! * **shift** — mix-shift (hot-expert flip) rate at a fixed
//!   near-saturation load.
//!
//! The headline contrast: under a drifting mix near saturation, `laer`
//! achieves higher goodput and lower p99 TTFT than `static-ep` even
//! though its relocation traffic is priced, not assumed free.

use laer_serve::{run_serving, ServeConfig, ServingOutcome, ServingSystemKind, WorkloadConfig};
use laer_sim::write_chrome_trace;
use serde::{Deserialize, Serialize};

use crate::pool::{Batch, Slot};
use crate::Effort;

/// Workload seed shared by every point (the sweeps vary load and drift,
/// never the randomness).
const SEED: u64 = 17;
/// Offered loads of the load sweep (requests/s).
const LOAD_SWEEP: [f64; 4] = [600.0, 900.0, 1200.0, 1500.0];
/// Near-saturation load the shift sweep holds fixed (requests/s).
const SHIFT_RATE: f64 = 1200.0;
/// Flip periods of the shift sweep (`None` = gradual drift only).
const SHIFT_SWEEP: [Option<u64>; 4] = [None, Some(60), Some(30), Some(15)];
/// Flip period the load sweep holds fixed.
const LOAD_FLIP: Option<u64> = Some(30);

/// One (sweep, operating point, system) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeRow {
    /// Which sweep the row belongs to (`load` or `shift`).
    pub sweep: String,
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Hot-expert flip period in scheduler steps (`None` = drift only).
    pub flip_period: Option<u64>,
    /// Serving system identifier.
    pub system: String,
    /// Requests served to completion.
    pub completed: usize,
    /// Requests rejected at admission.
    pub rejected: usize,
    /// Median time-to-first-token (s).
    pub ttft_p50: f64,
    /// 99th-percentile time-to-first-token (s).
    pub ttft_p99: f64,
    /// 99th-percentile time-per-output-token (s).
    pub tpot_p99: f64,
    /// Output tokens per virtual second.
    pub throughput_tps: f64,
    /// SLO-meeting completions per virtual second.
    pub goodput_rps: f64,
    /// Fraction of all requests meeting the SLO.
    pub slo_attainment: f64,
    /// Re-layouts applied.
    pub relayouts: u64,
    /// Virtual seconds of charged relocation traffic.
    pub relocation_time: f64,
}

/// The serving configuration at one operating point: the calibrated 1×4
/// cluster of the determinism/headline tests (see
/// `laer_serve::serving`'s calibration sweep).
pub fn point(
    kind: ServingSystemKind,
    rate: f64,
    flip: Option<u64>,
    requests: usize,
) -> ServeConfig {
    let mut cfg = ServeConfig::new(kind);
    cfg.nodes = 1;
    cfg.devices_per_node = 4;
    cfg.queue_capacity = 512;
    cfg.step_overhead = 2.0e-4;
    cfg.workload = WorkloadConfig::default()
        .with_seed(SEED)
        .with_requests(requests)
        .with_arrival_rate(rate)
        .with_flip_period(flip);
    cfg.workload.mean_decode_tokens = 16.0;
    cfg
}

fn row(sweep: &str, rate: f64, flip: Option<u64>, out: &ServingOutcome) -> ServeRow {
    let r = &out.report;
    ServeRow {
        sweep: sweep.to_string(),
        offered_rps: rate,
        flip_period: flip,
        system: r.system.clone(),
        completed: r.completed,
        rejected: r.rejected,
        ttft_p50: r.ttft.p50,
        ttft_p99: r.ttft.p99,
        tpot_p99: r.tpot.p99,
        throughput_tps: r.throughput_tps,
        goodput_rps: r.goodput_rps,
        slo_attainment: r.slo_attainment,
        relayouts: r.relayouts,
        relocation_time: r.relocation_time,
    }
}

/// Requests per operating point at the given effort.
pub fn default_requests(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 300,
        Effort::Full => 600,
    }
}

/// Both sweeps' operating points in row order:
/// (sweep, rate, flip, system).
fn points_list() -> Vec<(&'static str, f64, Option<u64>, ServingSystemKind)> {
    let mut out = Vec::new();
    for rate in LOAD_SWEEP {
        for kind in ServingSystemKind::ALL {
            out.push(("load", rate, LOAD_FLIP, kind));
        }
    }
    for flip in SHIFT_SWEEP {
        for kind in ServingSystemKind::ALL {
            out.push(("shift", SHIFT_RATE, flip, kind));
        }
    }
    out
}

/// Runs one operating point; the outcome rides along only for the
/// headline cell (the `laer` run at near saturation with 30-step flips),
/// whose timeline carries the charged `relayout` spans.
fn run_point(
    sweep: &'static str,
    rate: f64,
    flip: Option<u64>,
    kind: ServingSystemKind,
    requests: usize,
) -> (ServeRow, Option<ServingOutcome>) {
    let o = run_serving(&point(kind, rate, flip, requests));
    let r = row(sweep, rate, flip, &o);
    let is_headline = sweep == "load" && kind == ServingSystemKind::Laer && rate == SHIFT_RATE;
    (r, is_headline.then_some(o))
}

/// The study's cells, pending pool execution.
pub struct Pending {
    requests: usize,
    cells: Vec<Slot<(ServeRow, Option<ServingOutcome>)>>,
}

impl Pending {
    /// Redeems the executed cells in submission order. The returned
    /// outcome is the `laer` run at the headline point (near
    /// saturation, 30-step flips) — its timeline carries the charged
    /// `relayout` spans.
    fn take(self) -> (Vec<ServeRow>, ServingOutcome) {
        let mut rows = Vec::new();
        let mut headline = None;
        for slot in self.cells {
            let (r, h) = slot.take();
            rows.push(r);
            if h.is_some() {
                headline = h;
            }
        }
        let headline =
            headline.unwrap_or_else(|| unreachable!("the load sweep contains SHIFT_RATE"));
        (rows, headline)
    }
}

/// Submits every operating point of both sweeps to the pool.
pub fn submit(batch: &mut Batch, effort: Effort, requests_override: Option<usize>) -> Pending {
    let requests = requests_override.unwrap_or_else(|| default_requests(effort));
    let cells = points_list()
        .into_iter()
        .map(|(sweep, rate, flip, kind)| {
            let label = format!(
                "ext-serve/{sweep}/{rate:.0}/{}/{}",
                flip.map_or("drift".to_string(), |p| p.to_string()),
                kind.id()
            );
            batch.submit(label, move || run_point(sweep, rate, flip, kind, requests))
        })
        .collect();
    Pending { requests, cells }
}

fn print_rows(title: &str, rows: &[ServeRow]) {
    println!("\n{title}");
    println!(
        "{:<6} {:>8} {:>6} {:<13} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>9}",
        "sweep",
        "rps",
        "flip",
        "system",
        "done",
        "rej",
        "p50 ttft",
        "p99 ttft",
        "p99 tpot",
        "goodput",
        "tok/s",
        "relay",
        "reloc s"
    );
    for r in rows {
        println!(
            "{:<6} {:>8.0} {:>6} {:<13} {:>5} {:>5} {:>8.1}ms {:>8.1}ms {:>8.2}ms {:>9.1} {:>7.0} {:>6} {:>9.4}",
            r.sweep,
            r.offered_rps,
            r.flip_period.map_or("-".to_string(), |p| p.to_string()),
            r.system,
            r.completed,
            r.rejected,
            r.ttft_p50 * 1e3,
            r.ttft_p99 * 1e3,
            r.tpot_p99 * 1e3,
            r.goodput_rps,
            r.throughput_tps,
            r.relayouts,
            r.relocation_time
        );
    }
}

/// Renders the executed cells — identical output to the serial run.
pub fn finish(pending: Pending) -> Vec<ServeRow> {
    let requests = pending.requests;
    println!(
        "Extension: online serving with live-traffic-driven re-layout\n\
         (1×4 cluster, seed {SEED}, {requests} requests per point; re-layout\n\
         traffic charged on the prefetch stream)"
    );
    let (all, headline) = pending.take();
    let (load, shift): (Vec<_>, Vec<_>) = all.iter().cloned().partition(|r| r.sweep == "load");
    print_rows(
        "Throughput/latency/goodput vs offered load (flips every 30 steps):",
        &load,
    );
    print_rows(
        "… vs mix-shift rate (flip period, at near-saturation load):",
        &shift,
    );
    println!(
        "\nUnder a drifting request mix near saturation, the static even\n\
         layout concentrates the hot expert on one device and queues; LAER\n\
         re-layouts from served statistics and keeps p99 TTFT and goodput\n\
         ahead even though every weight move is priced, not assumed free."
    );
    crate::output::save_json("ext_serve", &all);
    crate::output::save_with("ext_serve_trace.json", |f| {
        write_chrome_trace(&headline.timeline, f)
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_sim::SpanLabel;

    /// The acceptance contrast: at the drifting-mix operating points,
    /// `laer` beats `static-ep` on goodput and p99 TTFT, and its
    /// relocation traffic is visible as charged timeline spans.
    #[test]
    fn laer_beats_static_under_drifting_mix() {
        let mut batch = Batch::new();
        let pending = submit(&mut batch, Effort::Quick, None);
        batch.run(2);
        let (rows, headline) = pending.take();
        let get = |sweep: &str, rate: f64, flip: Option<u64>, system: &str| {
            rows.iter()
                .find(|r| {
                    r.sweep == sweep
                        && r.offered_rps == rate
                        && r.flip_period == flip
                        && r.system == system
                })
                .expect("row exists")
        };
        let laer = get("shift", SHIFT_RATE, Some(30), "laer");
        let stat = get("shift", SHIFT_RATE, Some(30), "static-ep");
        assert!(laer.relayouts > 0, "laer must adapt");
        assert!(
            laer.ttft_p99 < stat.ttft_p99,
            "laer p99 {} vs static {}",
            laer.ttft_p99,
            stat.ttft_p99
        );
        assert!(laer.goodput_rps > stat.goodput_rps);
        assert!(laer.relocation_time > 0.0, "re-layout must be charged");
        // static-ep never pays relocation anywhere.
        assert!(rows
            .iter()
            .filter(|r| r.system == "static-ep")
            .all(|r| r.relayouts == 0 && r.relocation_time == 0.0));
        // The exported headline timeline carries the charged spans.
        assert!(headline
            .timeline
            .spans()
            .iter()
            .any(|s| s.label == SpanLabel::Relayout && s.duration() > 0.0));
        // Both sweeps are fully populated.
        assert_eq!(rows.len(), (LOAD_SWEEP.len() + SHIFT_SWEEP.len()) * 3);
    }
}
