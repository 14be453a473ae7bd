//! Metric definitions, run statistics and the result line.

use crate::tracer::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A metric the benchmark reports, as recorded in `BENCHMARK.json`.
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Whether the value is a work count or a simulated quantity, which
    /// repeats exactly for a seed, rather than a host measurement.
    pub exact: bool,
    /// One-line definition.
    pub about: &'static str,
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";
const HOST: bool = false;
const EXACT: bool = true;

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    exact: bool,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact,
        about,
    }
}

/// End-to-end metrics, measured with tracing off on every workload.
pub const END_TO_END: &[MetricDef] = &[
    metric(
        "setup_s",
        "s",
        LOWER,
        HOST,
        "median set-up time (construction, inputs, warm-up op)",
    ),
    metric(
        "op_ms_p90",
        "ms",
        LOWER,
        HOST,
        "p90 host ms per op: per Planner::plan call, or per-call ms/iteration, ms/request",
    ),
    metric(
        "sim_tokens_per_s",
        "tokens/s",
        HIGHER,
        EXACT,
        "simulated FSEP step, Fig. 8 training, or served output tokens per second",
    ),
];

/// Per-layer metrics, measured by the traced run. A layer the workload
/// does not call reads 0 and prints as `-`.
pub const PER_LAYER: &[MetricDef] = &[
    metric(
        "routing.gen_ms",
        "ms/op",
        LOWER,
        HOST,
        "RoutingGenerator::next_iteration",
    ),
    metric(
        "planner.schemes",
        "count/plan",
        LOWER,
        EXACT,
        "unique candidate schemes",
    ),
    metric(
        "planner.relocation_ms",
        "ms/plan",
        LOWER,
        HOST,
        "expert_relocation, all candidates",
    ),
    metric(
        "planner.lite_route_ms",
        "ms/plan",
        LOWER,
        HOST,
        "lite_route, all candidates",
    ),
    metric(
        "planner.cost_ms",
        "ms/plan",
        LOWER,
        HOST,
        "time_cost, all candidates",
    ),
    metric(
        "planner.routing_entries",
        "count/cand",
        LOWER,
        EXACT,
        "TokenRouting entries",
    ),
    metric(
        "planner.refine_ms",
        "ms/round",
        LOWER,
        HOST,
        "refine_layout",
    ),
    metric(
        "planner.refine_probes",
        "count/round",
        LOWER,
        EXACT,
        "probes refine_layout priced",
    ),
    metric(
        "planner.refine_accept_frac",
        "ratio",
        HIGHER,
        EXACT,
        "accepted moves / probes",
    ),
    metric(
        "refine_probes_per_s",
        "probes/s",
        HIGHER,
        HOST,
        "median refine_layout probes/s",
    ),
    metric(
        "planner.eq2_ms",
        "sim_ms",
        LOWER,
        EXACT,
        "Eq. 2 cost of the refined plan",
    ),
    metric(
        "planner.budget_ratio",
        "ratio",
        LOWER,
        HOST,
        "host plan ms / simulated per-layer ms (Fig. 11: < 1)",
    ),
    metric(
        "planner.lite_route_iter_frac",
        "ratio",
        LOWER,
        HOST,
        "host lite_route ms / simulated per-layer ms (Tab. 3: < 0.001)",
    ),
    metric(
        "planner.max_token_ratio",
        "ratio",
        LOWER,
        EXACT,
        "max / ideal device load (Fig. 10b)",
    ),
    metric(
        "baselines.plan_layer_ms",
        "ms/iter",
        LOWER,
        HOST,
        "MoeSystem::plan_layer, all layers",
    ),
    metric(
        "baselines.layer_timings_ms",
        "ms/round",
        LOWER,
        HOST,
        "SystemContext::layer_timings of the refined routing",
    ),
    metric(
        "fsep.schedule_ms",
        "ms/iter",
        LOWER,
        HOST,
        "schedule_iteration with engine enqueue",
    ),
    metric("sim.spans", "count/op", LOWER, EXACT, "simulated spans"),
    metric(
        "sim.dep_edges",
        "count/op",
        LOWER,
        EXACT,
        "recorded dependency edges",
    ),
    metric(
        "sim.a2a_frac",
        "ratio",
        LOWER,
        EXACT,
        "A2A share of the simulated iteration",
    ),
    metric(
        "sim.exposed_ms",
        "sim_ms",
        LOWER,
        EXACT,
        "exposed prefetch + grad sync",
    ),
    metric(
        "obs.journal_ms",
        "ms/iter",
        LOWER,
        HOST,
        "iteration_record, journal and audit",
    ),
    metric(
        "obs.critpath_ms",
        "ms/iter",
        LOWER,
        HOST,
        "critical_path and its record",
    ),
    metric(
        "obs.export_ms",
        "ms/run",
        LOWER,
        HOST,
        "trace, journal and OpenMetrics export",
    ),
    metric(
        "obs.export_bytes",
        "bytes/run",
        LOWER,
        EXACT,
        "bytes of that export",
    ),
    metric(
        "obs.audit_err",
        "ratio",
        LOWER,
        EXACT,
        "Eq. 1 predicted vs simulated error",
    ),
    metric(
        "serve.workload_ms",
        "ms/run",
        LOWER,
        HOST,
        "generate_requests",
    ),
    metric("serve.run_ms", "ms/run", LOWER, HOST, "run_serving"),
    metric("serve.steps", "count/run", LOWER, EXACT, "scheduler steps"),
    metric(
        "serve.relayouts",
        "count/run",
        LOWER,
        EXACT,
        "re-layouts applied",
    ),
    metric(
        "serve.retries",
        "count/run",
        LOWER,
        EXACT,
        "retry re-enqueues",
    ),
    metric(
        "serve.recoveries",
        "count/run",
        LOWER,
        EXACT,
        "recovery episodes",
    ),
    metric(
        "serve.relocation_s",
        "sim_s/run",
        LOWER,
        EXACT,
        "charged relocation time",
    ),
    metric(
        "serve.recovery_s",
        "sim_s/run",
        LOWER,
        EXACT,
        "time to recover, summed",
    ),
    metric(
        "serve.shed_queue_full",
        "count/run",
        LOWER,
        EXACT,
        "shed: admission queue full",
    ),
    metric(
        "serve.shed_brownout",
        "count/run",
        LOWER,
        EXACT,
        "shed: SLO brownout",
    ),
    metric(
        "serve.shed_retry_exhausted",
        "count/run",
        LOWER,
        EXACT,
        "shed: retry cap",
    ),
    metric(
        "serve.shed_unserved",
        "count/run",
        LOWER,
        EXACT,
        "shed: step cap",
    ),
    metric(
        "sim_goodput_rps",
        "req/s",
        HIGHER,
        EXACT,
        "SLO-meeting requests per second",
    ),
    metric(
        "sim_ttft_p50_ms",
        "sim_ms",
        LOWER,
        EXACT,
        "median TTFT from scheduled arrival",
    ),
    metric(
        "sim_ttft_p99_ms",
        "sim_ms",
        LOWER,
        EXACT,
        "p99 TTFT from scheduled arrival",
    ),
    metric(
        "failed_frac",
        "ratio",
        LOWER,
        EXACT,
        "(failed checks + shed requests) / ops",
    ),
    metric(
        "bench.trace_overhead_frac",
        "ratio",
        LOWER,
        HOST,
        "traced / untraced wall - 1",
    ),
    metric(
        "bench.unattributed_frac",
        "ratio",
        LOWER,
        HOST,
        "traced op time outside leaf spans",
    ),
];

/// Output checks over a run's ops.
#[derive(Debug, Default)]
pub struct Checks {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Checks {
    /// Counts `ops` ops whose outputs `verdict` judged.
    pub fn record(&mut self, ops: u64, verdict: Result<(), String>) {
        self.attempted += ops;
        if let Err(e) = verdict {
            self.failed += ops;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks of the run.
    pub checks: Checks,
    /// Measured values by metric name (both tables; a traced run fills
    /// the per-layer names, an untraced run the end-to-end names).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the tables.
    pub notes: Vec<String>,
    /// The traced run's host spans.
    pub spans: Option<Tracer>,
}

impl Report {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Nearest-rank percentile of unsorted `samples` (`q` in `(0, 1]`).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One line describing the distribution of `samples`, with its count.
pub fn distribution(samples: &[f64]) -> String {
    format!(
        "n={} min={:.4} p25={:.4} p50={:.4} mean={:.4} p75={:.4} p90={:.4} max={:.4}",
        samples.len(),
        percentile(samples, f64::MIN_POSITIVE),
        percentile(samples, 0.25),
        percentile(samples, 0.5),
        mean(samples),
        percentile(samples, 0.75),
        percentile(samples, 0.9),
        percentile(samples, 1.0),
    )
}

/// Workload seed of the warm-up op in set-up. It is fixed, so that set-up
/// time does not change with the seed of the measured ops.
pub const WARMUP_SEED: u64 = 0;

/// The seed of the `index`-th independent input stream of workload seed
/// `seed`: distinct workload seeds never share a stream.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(index)
}

/// FNV-1a digest, to compare exports without keeping them.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Arithmetic mean of `samples`.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Median (nearest rank) of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up seconds. Each result is dropped before the next set-up starts.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        secs.push(start.elapsed().as_secs_f64());
    }
    match last {
        Some(v) => (v, median(&secs)),
        None => unreachable!("at least one repetition"),
    }
}

/// Calls `op(i)` for `i = 0, 1, ..` until at least `min_ops` ops ran and
/// `budget` has passed. Returns the number of ops.
pub fn closed_loop(budget: Duration, min_ops: usize, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut i = 0;
    while i < min_ops || start.elapsed() < budget {
        op(i);
        i += 1;
    }
    i
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Formats the result line: one JSON object with the four keys the
/// benchmark contract names, metrics in table order.
pub fn result_line(report: &Report, table: &[MetricDef]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.checks.failed == 0 && report.checks.attempted > 0,
        report.checks.attempted,
        report.checks.failed
    );
    for (i, m) in table.iter().enumerate() {
        let value = report.values.get(m.name).copied().unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_lists_every_metric_of_the_table() {
        let mut r = Report::default();
        r.checks.record(3, Ok(()));
        r.set("setup_s", 0.25);
        let line = result_line(&r, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn metric_names_are_unique_and_within_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m.better == LOWER || m.better == HIGHER);
        }
    }

    /// `BENCHMARK.json` records the same metrics, units and directions.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).unwrap();
        let entries = json.matches("\"name\": ").count();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len() + crate::WORKLOADS.len()
        );
    }
}
