//! `train-paper`: the paper's Fig. 8 operating point.
//!
//! Mixtral-8x7B E8k2 on 4 × 8 A100, 32 layers, 16K tokens per device,
//! WikiText, aux 0, LAER with the asynchronous planner, dependency
//! recording on. Each call of `run_experiment_diagnosed` runs a few
//! iterations and ends with the Chrome-trace (critical-path flow), journal
//! and OpenMetrics export `ext-diagnose` writes. One op is one simulated
//! iteration; each call uses its own trace seed.
//!
//! The traced run re-drives the runner's loop through
//! `RoutingGenerator::next_iteration`, `MoeSystem::plan_layer`,
//! `schedule_iteration`, `journal::iteration_record` and
//! `critpath::critical_path`, and must reproduce the untraced call's
//! iteration times, span counts and export bytes exactly.

use crate::report::{
    closed_loop, distribution, fnv, ms, percentile, sub_seed, timed_setup, Report, WARMUP_SEED,
};
use crate::tracer::Tracer;
use laer_baselines::{predicted_bottleneck_device, LaerSystem, MoeSystem, SystemKind};
use laer_fsep::{schedule_iteration, LayerTimings};
use laer_model::ModelPreset;
use laer_obs::{critpath, journal, AuditRecord, CritPathRecord, Histogram, Observer};
use laer_routing::{RoutingGenerator, RoutingMatrix};
use laer_sim::{write_chrome_trace_with_flow, Breakdown, Engine, EngineOptions, Timeline};
use laer_train::{run_experiment_diagnosed, ExperimentConfig};
use std::time::{Duration, Instant};

const WARMUP: usize = 2;
const MEASURED: usize = 6;
const ITERATIONS: usize = WARMUP + MEASURED;
/// Leading calls the simulated metrics and exact counters cover.
const LEAD_CALLS: usize = 4;
const SETUP_REPS: usize = 5;

/// The configuration of call `k`. Layer `l` draws trace seed
/// `seed + 1 + l`, so calls are 64 seeds apart and never share a layer's
/// routing stream.
fn config(seed: u64, k: usize, warmup: usize, measured: usize) -> ExperimentConfig {
    ExperimentConfig::new(ModelPreset::Mixtral8x7bE8k2, SystemKind::Laer)
        .with_iterations(measured, warmup)
        .with_seed(sub_seed(seed, 64 * k as u64))
        .with_record_deps(true)
}

/// The `ext-diagnose` export of one run: the last timeline as a Chrome
/// trace with critical-path flow arrows, the OpenMetrics text and the
/// JSONL journal. Returns the byte count and a digest of each part.
fn export(timeline: &Timeline, edges: &[(usize, usize)], obs: &Observer) -> (usize, [u64; 3]) {
    let mut trace = Vec::new();
    if let Err(e) = write_chrome_trace_with_flow(timeline, &[], edges, &mut trace) {
        unreachable!("writing to memory cannot fail: {e}");
    }
    let metrics = obs.registry.to_openmetrics();
    let journal = obs.journal.to_jsonl();
    (
        trace.len() + metrics.len() + journal.len(),
        [
            fnv(&trace),
            fnv(metrics.as_bytes()),
            fnv(journal.as_bytes()),
        ],
    )
}

/// What one call produced; the traced rerun must reproduce it exactly.
#[derive(Debug, Clone, PartialEq)]
struct CallOut {
    iteration_times: Vec<f64>,
    last_spans: usize,
    last_dep_edges: usize,
    export_bytes: usize,
    export_digest: [u64; 3],
    breakdown: Breakdown,
    max_token_ratio: f64,
    audit_err: f64,
}

fn dep_edges(timeline: &Timeline) -> usize {
    timeline.dep_log().map_or(0, |d| {
        (0..d.len()).map(|i| d.edges_of(i).len()).sum::<usize>()
    })
}

/// Runs one diagnosed experiment plus its export, untraced.
fn call(cfg: &ExperimentConfig) -> (CallOut, Result<(), String>) {
    let mut obs = Observer::new();
    let (result, timeline, diag) = run_experiment_diagnosed(cfg, &mut obs);
    let (export_bytes, export_digest) = export(&timeline, &diag.critical_edges, &obs);
    let audit_err = obs
        .audit
        .summary(&result.system)
        .map_or(0.0, |s| s.mean_abs_rel_error);
    // Critical-path length equals the makespan on every diagnosed
    // iteration: residuals are non-negative, so a zero mean bounds each.
    let verdict = if diag.iterations != cfg.iterations as u64 {
        Err(format!(
            "{} diagnosed iterations, expected {}",
            diag.iterations, cfg.iterations
        ))
    } else if diag.mean_residual > 1e-9 * result.avg_iteration_time {
        Err(format!(
            "critical path misses the makespan by {} s per iteration",
            diag.mean_residual
        ))
    } else {
        Ok(())
    };
    let out = CallOut {
        iteration_times: result.iteration_times,
        last_spans: timeline.len(),
        last_dep_edges: dep_edges(&timeline),
        export_bytes,
        export_digest,
        breakdown: result.breakdown,
        max_token_ratio: result.avg_max_token_ratio,
        audit_err,
    };
    (out, verdict)
}

/// The registry families `run_experiment_diagnosed` declares, so the
/// re-driven loop exports the same OpenMetrics bytes.
fn declare_train_metrics(obs: &mut Observer) {
    let r = &mut obs.registry;
    r.declare_counter(
        "laer_train_iterations_total",
        "measured iterations executed",
    );
    r.declare_counter(
        "laer_plan_decisions_total",
        "layer (re-)layout decisions by trigger",
    );
    r.declare_histogram(
        "laer_train_step_seconds",
        "simulated iteration time",
        Histogram::exponential(5e-3, 2.0, 12),
    );
    r.declare_gauge(
        "laer_train_avg_step_seconds",
        "average measured iteration time",
    );
    r.declare_gauge("laer_train_tokens_per_second", "global training throughput");
    r.declare_gauge(
        "laer_plan_mean_abs_rel_error",
        "mean |predicted-actual|/actual of the Eq. 1 decision audit",
    );
    r.declare_gauge(
        "laer_critpath_agreement_rate",
        "fraction of iterations where Eq. 1's bottleneck device matches the critical path",
    );
}

/// Exact work counts of one traced call.
#[derive(Default)]
struct Work {
    spans: usize,
    dep_edges: usize,
}

/// The runner loop of `run_experiment_diagnosed`, re-driven with each
/// call into a layer in a span. Returns the call's outputs, work counts
/// and the per-iteration critical-path check.
fn traced_call(
    cfg: &ExperimentConfig,
    op0: u64,
    tr: &mut Tracer,
) -> (CallOut, Work, Result<(), String>) {
    let topo = cfg.topology();
    let n = topo.num_devices();
    let mut system = LaerSystem::new(cfg.context());
    let name = system.name();
    let opts = system.schedule_options();
    let mut gens: Vec<RoutingGenerator> = (0..cfg.layers)
        .map(|l| RoutingGenerator::new(cfg.routing_config(l)))
        .collect();
    let mut obs = Observer::new();
    declare_train_metrics(&mut obs);

    let total = cfg.warmup + cfg.iterations;
    let mut work = Work::default();
    let mut verdict = Ok(());
    let mut iteration_times = Vec::with_capacity(cfg.iterations);
    let mut breakdown = Breakdown::default();
    let (mut ratio_acc, mut ratio_count) = (0.0f64, 0usize);
    let (mut agreements, mut diagnosed) = (0u64, 0u64);
    let mut last: Option<(Timeline, Vec<(usize, usize)>)> = None;
    for iter in 0..total {
        tr.set_op(op0 + iter as u64);
        let measured = iter >= cfg.warmup;
        let mut iter_ratio = 0.0f64;
        let mut timings: Vec<LayerTimings> = Vec::with_capacity(cfg.layers);
        let mut iter_loads: Vec<Vec<u64>> = Vec::new();
        for (l, gen) in gens.iter_mut().enumerate() {
            let demand: RoutingMatrix = tr.span("routing.next_iteration", |_| gen.next_iteration());
            let plan = tr.span("baselines.plan_layer", |_| {
                system.plan_layer(l, iter as u64, &demand)
            });
            let ratio = plan.max_token_ratio();
            iter_ratio += ratio;
            if measured {
                ratio_acc += ratio;
                ratio_count += 1;
                iter_loads.push(plan.audit.predicted_loads.clone());
            }
            tr.span("obs.audit", |_| {
                let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
                obs.audit.push(AuditRecord {
                    system: name.to_string(),
                    iteration: iter as u64,
                    layer: l,
                    trigger: plan.audit.trigger.clone(),
                    predicted_comm: plan.audit.predicted_comm,
                    predicted_comp: plan.audit.predicted_comp,
                    actual_comm: 2.0 * max(&plan.timings.dispatch)
                        + 2.0 * max(&plan.timings.combine),
                    actual_comp: opts.expert_roundtrip_factor() * max(&plan.timings.expert_forward),
                    actual_imbalance: ratio,
                });
                obs.registry.inc(
                    "laer_plan_decisions_total",
                    &[("system", name), ("trigger", &plan.audit.trigger)],
                    1,
                );
            });
            timings.push(plan.timings);
        }
        let (engine, step) = tr.span("fsep.schedule_iteration", |_| {
            let mut engine = Engine::with_options(&topo, EngineOptions { record_deps: true });
            let step = schedule_iteration(&mut engine, &topo, &timings, opts).total;
            (engine, step)
        });
        let timeline = engine.timeline();
        work.spans += timeline.len();
        work.dep_edges += dep_edges(timeline);
        if !measured {
            continue;
        }
        iteration_times.push(step);
        tr.span("sim.breakdown", |_| {
            breakdown.accumulate(&timeline.breakdown(n))
        });
        tr.span("obs.journal", |_| {
            let record = journal::iteration_record(
                name,
                iter as u64,
                step,
                iter_ratio / cfg.layers as f64,
                timeline,
                n,
                opts.effective_chunks(),
            );
            obs.journal.push("iteration", &record);
            obs.registry
                .inc("laer_train_iterations_total", &[("system", name)], 1);
            obs.registry
                .observe("laer_train_step_seconds", &[("system", name)], step);
        });
        let report = tr.span("obs.critical_path", |_| {
            let report = critpath::critical_path(timeline)
                .unwrap_or_else(|| unreachable!("recording engine has a dep log"));
            let critical_device = report.critical_device().unwrap_or(0);
            let predicted_device = predicted_bottleneck_device(&iter_loads).unwrap_or(0);
            let agree = critical_device == predicted_device;
            obs.journal.push(
                "critpath",
                &CritPathRecord {
                    system: name.to_string(),
                    iteration: iter as u64,
                    makespan: report.makespan,
                    residual: report.residual,
                    critical_device,
                    predicted_device,
                    agree,
                    top_blame: report.top_blame(3).to_vec(),
                },
            );
            agreements += u64::from(agree);
            diagnosed += 1;
            if iter + 1 == total {
                // The runner's what-if replays, part of its work.
                std::hint::black_box(critpath::standard_what_ifs(timeline));
                last = Some((timeline.clone(), report.edges()));
            }
            report
        });
        let makespan = timeline.makespan();
        let check = tr.span("bench.check", |_| {
            if (report.attributed - makespan).abs() > 1e-9 * makespan {
                Err(format!(
                    "iteration {iter}: critical path {} s != makespan {makespan} s",
                    report.attributed
                ))
            } else {
                Ok(())
            }
        });
        verdict = verdict.and(check);
    }

    let avg = iteration_times.iter().sum::<f64>() / iteration_times.len() as f64;
    let tokens = (n as u64 * cfg.tokens_per_device) as f64;
    let audit_err = tr.span("obs.audit", |_| {
        obs.registry
            .set("laer_train_avg_step_seconds", &[("system", name)], avg);
        obs.registry.set(
            "laer_train_tokens_per_second",
            &[("system", name)],
            tokens / avg,
        );
        let summary = obs.audit.summary(name);
        if let Some(s) = &summary {
            obs.registry.set(
                "laer_plan_mean_abs_rel_error",
                &[("system", name)],
                s.mean_abs_rel_error,
            );
        }
        obs.registry.set(
            "laer_critpath_agreement_rate",
            &[("system", name)],
            agreements as f64 / diagnosed as f64,
        );
        summary.map_or(0.0, |s| s.mean_abs_rel_error)
    });
    let Some((timeline, edges)) = last else {
        unreachable!("the last iteration is always measured")
    };
    let (export_bytes, export_digest) = tr.span("obs.export", |_| export(&timeline, &edges, &obs));
    let out = CallOut {
        iteration_times,
        last_spans: timeline.len(),
        last_dep_edges: dep_edges(&timeline),
        export_bytes,
        export_digest,
        breakdown: breakdown.scale(1.0 / cfg.iterations as f64),
        max_token_ratio: ratio_acc / ratio_count as f64,
        audit_err,
    };
    (out, work, verdict)
}

/// Simulated tokens per second over the leading calls.
fn sim_tokens_per_s(outs: &[CallOut], tokens_per_iteration: f64) -> f64 {
    let lead = &outs[..LEAD_CALLS.min(outs.len())];
    let iterations: usize = lead.iter().map(|o| o.iteration_times.len()).sum();
    let seconds: f64 = lead.iter().flat_map(|o| &o.iteration_times).sum();
    tokens_per_iteration * iterations as f64 / seconds
}

/// Runs the workload for `budget` (see the module docs).
pub fn run(seed: u64, budget: Duration, trace: bool) -> Report {
    let mut report = Report::default();
    // Set-up: one short warm-up call, which builds the topology, context
    // and system, runs three iterations and exports them.
    let (_, setup_s) = timed_setup(SETUP_REPS, || call(&config(WARMUP_SEED, 0, 1, 2)));
    report.set("setup_s", setup_s);
    let tokens_per_iteration = {
        let cfg = config(seed, 0, WARMUP, MEASURED);
        ((cfg.nodes * cfg.devices_per_node) as u64 * cfg.tokens_per_device) as f64
    };

    let untraced_budget = if trace { budget / 2 } else { budget };
    let mut outs = Vec::new();
    let mut per_iter_ms = Vec::new();
    let mut untraced_wall = Duration::ZERO;
    let calls = closed_loop(untraced_budget, LEAD_CALLS, |k| {
        let cfg = config(seed, k, WARMUP, MEASURED);
        let start = Instant::now();
        let (out, verdict) = call(&cfg);
        let wall = start.elapsed();
        untraced_wall += wall;
        per_iter_ms.push(ms(wall) / ITERATIONS as f64);
        report.checks.record(ITERATIONS as u64, verdict);
        outs.push(out);
    });
    let iter_ms = ms(untraced_wall) / (calls * ITERATIONS) as f64;
    let p90 = percentile(&per_iter_ms, 0.9);
    report.note(format!(
        "train_iter_ms = {iter_ms:.3} ms: wall / iterations of {calls} calls of {ITERATIONS} \
         iterations ({WARMUP} warm-up) with their export"
    ));
    report.note(format!(
        "per-call ms/iteration: {}",
        distribution(&per_iter_ms)
    ));

    report.set(
        "sim_tokens_per_s",
        sim_tokens_per_s(&outs, tokens_per_iteration),
    );
    if !trace {
        report.set("op_ms_p90", p90);
        return report;
    }

    let mut tr = Tracer::new();
    let mut traced_wall = Duration::ZERO;
    let mut works = Vec::with_capacity(calls);
    for (k, untraced) in outs.iter().enumerate() {
        let cfg = config(seed, k, WARMUP, MEASURED);
        let start = Instant::now();
        let (out, work, verdict) = traced_call(&cfg, (k * ITERATIONS) as u64, &mut tr);
        traced_wall += start.elapsed();
        let same = verdict.and_then(|()| {
            if out == *untraced {
                Ok(())
            } else {
                Err(format!(
                    "call {k}: traced outputs differ from the untraced run"
                ))
            }
        });
        report.checks.record(ITERATIONS as u64, same);
        works.push(work);
    }

    let ops = (calls * ITERATIONS) as f64;
    let per_op = |names: &[&str]| names.iter().map(|n| ms(tr.total(n))).sum::<f64>() / ops;
    let lead = LEAD_CALLS.min(calls);
    let lead_outs = &outs[..lead];
    let lead_ops = (lead * ITERATIONS) as f64;
    let mean = |f: &dyn Fn(&CallOut) -> f64| lead_outs.iter().map(f).sum::<f64>() / lead as f64;
    let sim_iteration_ms = lead_outs
        .iter()
        .flat_map(|o| &o.iteration_times)
        .sum::<f64>()
        * 1e3
        / (lead * MEASURED) as f64;
    let layers = config(seed, 0, WARMUP, MEASURED).layers as f64;
    let plan_layer_call_ms =
        ms(tr.total("baselines.plan_layer")) / tr.count("baselines.plan_layer") as f64;

    report.set("routing.gen_ms", per_op(&["routing.next_iteration"]));
    report.set("baselines.plan_layer_ms", per_op(&["baselines.plan_layer"]));
    report.set("fsep.schedule_ms", per_op(&["fsep.schedule_iteration"]));
    report.set("obs.journal_ms", per_op(&["obs.journal", "obs.audit"]));
    report.set("obs.critpath_ms", per_op(&["obs.critical_path"]));
    report.set("obs.export_ms", ms(tr.total("obs.export")) / calls as f64);
    report.set("obs.export_bytes", mean(&|o| o.export_bytes as f64));
    report.set("obs.audit_err", mean(&|o| o.audit_err));
    report.set(
        "sim.spans",
        works[..lead].iter().map(|w| w.spans).sum::<usize>() as f64 / lead_ops,
    );
    report.set(
        "sim.dep_edges",
        works[..lead].iter().map(|w| w.dep_edges).sum::<usize>() as f64 / lead_ops,
    );
    report.set("sim.a2a_frac", mean(&|o| o.breakdown.a2a_fraction()));
    report.set(
        "sim.exposed_ms",
        mean(&|o| (o.breakdown.exposed_prefetch + o.breakdown.exposed_grad_sync) * 1e3),
    );
    report.set(
        "planner.budget_ratio",
        plan_layer_call_ms / (sim_iteration_ms / layers),
    );
    report.set("planner.max_token_ratio", mean(&|o| o.max_token_ratio));
    report.set(
        "failed_frac",
        report.checks.failed as f64 / report.checks.attempted.max(1) as f64,
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

    /// Two calls with the same seed reproduce every output exactly, and
    /// the re-driven loop reproduces the library's run.
    #[test]
    fn calls_repeat_exactly_and_traced_call_matches() {
        let cfg = config(3, 0, 1, 2).with_layers(4);
        let (a, va) = call(&cfg);
        let (b, vb) = call(&cfg);
        assert_eq!(a, b);
        assert_eq!((va, vb), (Ok(()), Ok(())));
        let mut tr = Tracer::new();
        let (t, work, verdict) = traced_call(&cfg, 0, &mut tr);
        assert_eq!(verdict, Ok(()));
        assert_eq!(t, a);
        assert!(work.spans > 0 && work.dep_edges > 0);
    }
}
