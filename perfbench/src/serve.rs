//! `serve-chaos`: LAER serving under recurring faults.
//!
//! 2 × 8 Mixtral-8x7B at the `ext-chaos` calibration: an open-loop
//! Poisson stream at 600 rps in virtual time, 16-token mean decode, a
//! 512-request queue, 0.2 ms step overhead and hot-expert flips. A
//! `FaultPlan` recurs over the whole run: a device failure with rejoin,
//! a straggler and a degraded cross-node link in every period. Each call
//! serves one seeded request stream with `run_serving` and exports it
//! with `record_observability`. One op is one simulated request.
//!
//! `run_serving` is one opaque call, so the traced run splits only the
//! benchmark's own calls: request generation, serving and the export.

use crate::report::{
    closed_loop, distribution, fnv, ms, percentile, sub_seed, timed_setup, Report, WARMUP_SEED,
};
use crate::tracer::Tracer;
use laer_cluster::DeviceId;
use laer_obs::Observer;
use laer_serve::{
    generate_requests, record_observability, run_serving, ServeConfig, ServeReport,
    ServingSystemKind, WorkloadConfig,
};
use laer_sim::{FaultKind, FaultPlan, TimedFaultEvent};
use std::time::{Duration, Instant};

const RATE: f64 = 600.0;
const REQUESTS: usize = 2000;
const FLIP_PERIOD: u64 = 20;
/// Virtual seconds between repeats of the fault pattern.
const FAULT_PERIOD: f64 = 1.0;
/// Leading calls the simulated metrics and exact counters cover.
const LEAD_CALLS: usize = 16;
const WARMUP_REQUESTS: usize = 1000;
const SETUP_REPS: usize = 5;

/// The recurring fault schedule over `horizon` virtual seconds: in each
/// period one device (rotating over 3, 5, 11) fails and rejoins, device
/// 1 runs 4× slow, and the cross-node link 0–8 drops to 0.2× bandwidth.
fn fault_plan(horizon: f64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    let mut t = 0.0;
    let mut period = 0usize;
    while t < horizon {
        let events = [
            (
                FaultKind::DeviceFailure {
                    device: DeviceId::new([3, 5, 11][period % 3]),
                },
                0.05,
                0.11,
            ),
            (
                FaultKind::Straggler {
                    device: DeviceId::new(1),
                    factor: 4.0,
                },
                0.20,
                0.28,
            ),
            (
                FaultKind::LinkDegrade {
                    a: DeviceId::new(0),
                    b: DeviceId::new(8),
                    factor: 0.2,
                },
                0.32,
                0.40,
            ),
        ];
        for (kind, start, end) in events {
            let event = TimedFaultEvent {
                kind,
                start: t + start,
                end: t + end,
            };
            if let Err(e) = plan.push_timed(event) {
                unreachable!("fixed fault windows are valid: {e}");
            }
        }
        t += FAULT_PERIOD;
        period += 1;
    }
    plan
}

/// The serving configuration of call `k`.
fn config(seed: u64, k: usize, requests: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(ServingSystemKind::Laer);
    cfg.workload = WorkloadConfig::default()
        .with_seed(sub_seed(seed, k as u64))
        .with_requests(requests)
        .with_arrival_rate(RATE)
        .with_flip_period(Some(FLIP_PERIOD));
    cfg.workload.mean_decode_tokens = 16.0;
    cfg.queue_capacity = 512;
    cfg.step_overhead = 2.0e-4;
    cfg.faults = Some(fault_plan(requests as f64 / RATE));
    cfg
}

/// What one call produced; the traced rerun must reproduce it exactly.
#[derive(Debug, Clone, PartialEq)]
struct CallOut {
    requests: usize,
    report: ServeReport,
    ttft: Vec<f64>,
    spans: usize,
    export_bytes: usize,
    export_digest: [u64; 2],
}

/// `completed + shed == requests`: no request is lost.
fn check(out: &CallOut) -> Result<(), String> {
    let r = &out.report;
    if r.completed + r.shed.total() == out.requests && r.requests == out.requests {
        Ok(())
    } else {
        Err(format!(
            "{} completed + {} shed != {} requests",
            r.completed,
            r.shed.total(),
            out.requests
        ))
    }
}

/// Serves one call, each step in a span when `tr` is given.
fn call(cfg: &ServeConfig, mut tr: Option<&mut Tracer>) -> CallOut {
    let mut span = |name: &'static str, f: &mut dyn FnMut()| match tr.as_deref_mut() {
        Some(tr) => tr.span(name, |_| f()),
        None => f(),
    };
    let mut requests = 0;
    span("serve.generate_requests", &mut || {
        requests = generate_requests(&cfg.workload).len();
    });
    let mut outcome = None;
    span("serve.run_serving", &mut || {
        outcome = Some(run_serving(cfg))
    });
    let Some(outcome) = outcome else {
        unreachable!("run_serving ran above")
    };
    let mut export = (0, [0; 2]);
    span("obs.export", &mut || {
        let mut obs = Observer::new();
        record_observability(&outcome, &mut obs);
        let metrics = obs.registry.to_openmetrics();
        let journal = obs.journal.to_jsonl();
        export = (
            metrics.len() + journal.len(),
            [fnv(metrics.as_bytes()), fnv(journal.as_bytes())],
        );
    });
    CallOut {
        requests,
        spans: outcome.timeline.len(),
        report: outcome.report,
        ttft: outcome.ttft,
        export_bytes: export.0,
        export_digest: export.1,
    }
}

/// Runs the workload for `budget` (see the module docs).
pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    // Set-up: one short warm-up call with its configuration and fault plan.
    let (_, setup_s) = timed_setup(SETUP_REPS, || {
        call(&config(WARMUP_SEED, 0, WARMUP_REQUESTS), None)
    });
    report.set("setup_s", setup_s);

    let untraced_budget = if trace { budget / 2 } else { budget };
    let mut outs: Vec<CallOut> = Vec::new();
    let mut per_request_ms = Vec::new();
    let mut untraced_wall = Duration::ZERO;
    let calls = closed_loop(untraced_budget, LEAD_CALLS, |k| {
        let cfg = config(seed, k, REQUESTS);
        let start = Instant::now();
        let out = call(&cfg, None);
        let wall = start.elapsed();
        untraced_wall += wall;
        per_request_ms.push(ms(wall) / REQUESTS as f64);
        report.checks.record(REQUESTS as u64, check(&out));
        outs.push(out);
    });

    let lead = &outs[..LEAD_CALLS.min(calls)];
    let seconds: f64 = lead.iter().map(|o| o.report.duration).sum();
    let weighted = |f: fn(&ServeReport) -> f64| {
        lead.iter()
            .map(|o| f(&o.report) * o.report.duration)
            .sum::<f64>()
            / seconds
    };
    let ttft: Vec<f64> = lead.iter().flat_map(|o| o.ttft.iter().copied()).collect();
    let request_ms = ms(untraced_wall) / (calls * REQUESTS) as f64;
    let p90 = percentile(&per_request_ms, 0.9);
    report.note(format!(
        "serve_req_us = {:.3} us: wall / requests of {calls} calls of {REQUESTS} requests \
         with their export",
        request_ms * 1e3
    ));
    report.note(format!(
        "per-call ms/request: {}",
        distribution(&per_request_ms)
    ));
    report.note(format!(
        "sim_goodput_rps = {:.3}, sim_ttft_p50_ms = {:.4}, sim_ttft_p99_ms = {:.4} \
         over the first {} calls ({} TTFT samples)",
        weighted(|r| r.goodput_rps),
        percentile(&ttft, 0.5) * 1e3,
        percentile(&ttft, 0.99) * 1e3,
        lead.len(),
        ttft.len()
    ));

    report.set("sim_tokens_per_s", weighted(|r| r.throughput_tps));
    if !trace {
        report.set("op_ms_p90", p90);
        return report;
    }

    let mut tr = Tracer::new();
    let mut traced_wall = Duration::ZERO;
    for (k, untraced) in outs.iter().enumerate() {
        tr.set_op(k as u64);
        let cfg = config(seed, k, REQUESTS);
        let start = Instant::now();
        let out = call(&cfg, Some(&mut tr));
        let verdict = tr.span("bench.check", |_| {
            check(&out).and_then(|()| {
                if out == *untraced {
                    Ok(())
                } else {
                    Err(format!(
                        "call {k}: traced outputs differ from the untraced run"
                    ))
                }
            })
        });
        traced_wall += start.elapsed();
        report.checks.record(REQUESTS as u64, verdict);
    }

    let n = lead.len() as f64;
    let per_run = |f: fn(&ServeReport) -> f64| lead.iter().map(|o| f(&o.report)).sum::<f64>() / n;
    let shed: usize = lead.iter().map(|o| o.report.shed.total()).sum();
    let lead_requests: usize = lead.iter().map(|o| o.requests).sum();
    report.set(
        "serve.workload_ms",
        ms(tr.total("serve.generate_requests")) / calls as f64,
    );
    report.set(
        "serve.run_ms",
        ms(tr.total("serve.run_serving")) / calls as f64,
    );
    report.set("obs.export_ms", ms(tr.total("obs.export")) / calls as f64);
    report.set(
        "obs.export_bytes",
        lead.iter().map(|o| o.export_bytes).sum::<usize>() as f64 / n,
    );
    report.set(
        "sim.spans",
        lead.iter().map(|o| o.spans).sum::<usize>() as f64 / lead_requests as f64,
    );
    report.set("serve.steps", per_run(|r| r.steps as f64));
    report.set("serve.relayouts", per_run(|r| r.relayouts as f64));
    report.set("serve.retries", per_run(|r| r.retries as f64));
    report.set("serve.recoveries", per_run(|r| r.recoveries as f64));
    report.set("serve.relocation_s", per_run(|r| r.relocation_time));
    report.set("serve.recovery_s", per_run(|r| r.recovery_time));
    report.set(
        "serve.shed_queue_full",
        per_run(|r| r.shed.queue_full as f64),
    );
    report.set("serve.shed_brownout", per_run(|r| r.shed.brownout as f64));
    report.set(
        "serve.shed_retry_exhausted",
        per_run(|r| r.shed.retry_exhausted as f64),
    );
    report.set("serve.shed_unserved", per_run(|r| r.shed.unserved as f64));
    report.set("sim_goodput_rps", weighted(|r| r.goodput_rps));
    report.set("sim_ttft_p50_ms", percentile(&ttft, 0.5) * 1e3);
    report.set("sim_ttft_p99_ms", percentile(&ttft, 0.99) * 1e3);
    // A shed request counts as failed here, on top of failed checks.
    report.set(
        "failed_frac",
        report.checks.failed as f64 / report.checks.attempted.max(1) as f64
            + shed as f64 / lead_requests as f64,
    );
    report.set(
        "bench.trace_overhead_frac",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
    );
    report.set(
        "bench.unattributed_frac",
        1.0 - tr.covered().as_secs_f64() / traced_wall.as_secs_f64(),
    );
    report.spans = Some(tr);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two calls with the same seed reproduce every output exactly, the
    /// traced call matches, and no request is lost under the faults.
    #[test]
    fn calls_repeat_exactly_and_lose_no_request() {
        let cfg = config(4, 0, 400);
        let a = call(&cfg, None);
        let b = call(&cfg, None);
        assert_eq!(a, b);
        assert_eq!(check(&a), Ok(()));
        assert!(a.report.failures > 0, "the fault plan must fail devices");
        let mut tr = Tracer::new();
        assert_eq!(call(&cfg, Some(&mut tr)), a);
        assert_eq!(tr.count("serve.run_serving"), 1);
    }
}
