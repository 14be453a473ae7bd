//! Extension experiment: chunked micro-batch pipelining in the FSEP
//! executor.
//!
//! The whole-iteration schedule serialises each layer's token
//! dispatch/combine A2A (S3) against its expert compute (S1): under an
//! imbalanced layout the A2A sits exposed on the critical path — the
//! Fig. 1b problem the planner attacks by re-layout. Chunking attacks
//! the *residual*: splitting the per-layer token batch into `C`
//! micro-chunks lets chunk `c`'s dispatch ride under chunk `c−1`'s
//! expert compute, shrinking the exposed A2A without moving a single
//! expert.
//!
//! The sweep fans chunk count × routing-imbalance profile over
//! [`crate::pool`] as independent cells. Imbalance is controlled by the
//! generator's aux-loss weight (1.0 ≈ balanced, 0.0 = natural skew) and
//! executed on the static classic-EP layout (`VanillaEpSystem`), which
//! preserves the skew and therefore the exposed A2A that pipelining can
//! reclaim. Each cell reports the measured step time, the exposed A2A
//! (iteration-time delta against a free-dispatch/combine run) and the
//! overlapped A2A from the per-chunk journal attribution; the skewed
//! `C = 4` cell also yields the headline Chrome trace.
//!
//! Artifacts under `target/repro/`: `ext_pipeline.json` (the sweep),
//! `ext_pipeline_journal.jsonl` (one `iteration` record per cell with
//! per-chunk exposed-vs-overlapped columns) and `ext_pipeline_trace.json`
//! (skewed `C = 4` timeline with per-stream utilisation counters, for
//! Perfetto).

use crate::output::{save_text, save_with};
use crate::pool::{Batch, Slot};
use laer_baselines::{MoeSystem, SystemContext, VanillaEpSystem};
use laer_cluster::Topology;
use laer_fsep::{schedule_iteration, LayerTimings, ScheduleOptions};
use laer_model::{GpuSpec, ModelPreset};
use laer_obs::{journal::iteration_record, stream_utilization_tracks, IterationRecord, Journal};
use laer_routing::{imbalance_ratio, RoutingGenerator, RoutingGeneratorConfig};
use laer_sim::{write_chrome_trace_with_counters, Engine, Timeline};
use serde::{Deserialize, Serialize};

/// Transformer layers of the swept workload.
const LAYERS: usize = 4;
/// Chunk counts swept per imbalance profile (1 = today's whole
/// iteration).
const CHUNKS: [usize; 4] = [1, 2, 4, 8];
/// The profile × chunk cell whose timeline becomes the headline trace.
const TRACE_CELL: (&str, usize) = ("skewed", 4);

/// Imbalance profiles: aux-loss weight of the routing generator.
fn profiles() -> Vec<(&'static str, f64)> {
    vec![("balanced", 1.0), ("moderate", 0.3), ("skewed", 0.0)]
}

/// One (profile, chunk-count) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineRow {
    /// Imbalance profile label.
    pub profile: String,
    /// Aux-loss weight feeding the routing generator.
    pub aux_loss_weight: f64,
    /// Mean max/mean routing imbalance across the workload's layers.
    pub imbalance: f64,
    /// Micro-chunks per layer batch.
    pub num_chunks: usize,
    /// Iteration seconds under the chunked schedule.
    pub step_time: f64,
    /// Exposed token-A2A seconds: iteration-time delta against a run
    /// with dispatch/combine free.
    pub exposed_a2a: f64,
    /// Token-A2A seconds hidden under same-device compute, summed over
    /// the journal's per-chunk attribution.
    pub overlapped_a2a: f64,
    /// Exposed-A2A shrink relative to the same profile's `C = 1` cell
    /// (filled at render time; 0 for the `C = 1` cell itself).
    pub shrink_vs_whole: f64,
}

/// What one pooled cell computes.
struct CellOut {
    row: PipelineRow,
    record: IterationRecord,
    timeline: Option<Timeline>,
}

/// The profile's planned workload: per-layer timings on the static
/// classic-EP layout, plus its mean routing imbalance.
fn profile_timings(aux_loss_weight: f64) -> (Topology, Vec<LayerTimings>, f64) {
    let topo = Topology::paper_cluster();
    let cfg = ModelPreset::Mixtral8x7bE8k2.config();
    let tokens = 16 * 1024u64;
    let ctx = SystemContext::new(topo.clone(), cfg.clone(), GpuSpec::a100(), tokens, 8192);
    let mut system = VanillaEpSystem::new(ctx);
    let mut timings = Vec::with_capacity(LAYERS);
    let mut imbalance = 0.0;
    for l in 0..LAYERS {
        let mut generator = RoutingGenerator::new(
            RoutingGeneratorConfig::new(32, cfg.experts(), tokens * cfg.top_k() as u64)
                .with_seed(101 + l as u64)
                .with_aux_loss(aux_loss_weight),
        );
        let demand = generator.next_iteration();
        imbalance += imbalance_ratio(&demand);
        timings.push(system.plan_layer(l, 0, &demand).timings);
    }
    (topo, timings, imbalance / LAYERS as f64)
}

/// Measures one (profile, chunk-count) cell.
fn cell(profile: &str, aux_loss_weight: f64, num_chunks: usize) -> CellOut {
    let (topo, timings, imbalance) = profile_timings(aux_loss_weight);
    let opts = ScheduleOptions::optimized().with_num_chunks(num_chunks);
    let mut engine = Engine::new(&topo);
    let t = schedule_iteration(&mut engine, &topo, &timings, opts);
    // Free-dispatch/combine reference: what the iteration costs if the
    // token A2A took zero time. The delta is the exposed A2A.
    let mut free_a2a = timings.clone();
    for lt in &mut free_a2a {
        lt.dispatch.iter_mut().for_each(|d| *d = 0.0);
        lt.combine.iter_mut().for_each(|c| *c = 0.0);
    }
    let mut free_engine = Engine::new(&topo);
    let t0 = schedule_iteration(&mut free_engine, &topo, &free_a2a, opts);
    let exposed = (t.total - t0.total).max(0.0);
    let n = topo.num_devices();
    let chunks = opts.effective_chunks();
    let record = iteration_record(
        "ext-pipeline",
        0,
        t.total,
        imbalance,
        engine.timeline(),
        n,
        chunks,
    );
    let overlapped: f64 = record.a2a_chunks.iter().map(|c| c.overlapped).sum();
    let keep_trace = (profile, num_chunks) == TRACE_CELL;
    CellOut {
        row: PipelineRow {
            profile: profile.to_string(),
            aux_loss_weight,
            imbalance,
            num_chunks,
            step_time: t.total,
            exposed_a2a: exposed,
            overlapped_a2a: overlapped,
            shrink_vs_whole: 0.0,
        },
        record,
        timeline: keep_trace.then(|| engine.timeline().clone()),
    }
}

/// The sweep's cells — one per (profile, chunk count) — pending pool
/// execution.
pub struct Pending {
    cells: Vec<Slot<CellOut>>,
}

/// Submits every cell of the sweep to the pool.
pub fn submit(batch: &mut Batch) -> Pending {
    let mut cells = Vec::new();
    for (profile, aux) in profiles() {
        for c in CHUNKS {
            cells.push(
                batch.submit(format!("ext-pipeline/{profile}/c{c}"), move || {
                    cell(profile, aux, c)
                }),
            );
        }
    }
    Pending { cells }
}

/// Renders the executed cells and writes the artifacts — identical
/// output to the serial run.
pub fn finish(pending: Pending) -> Vec<PipelineRow> {
    println!("Extension: chunked micro-batch pipelining (dispatch/combine under expert compute)\n");
    println!(
        "{:<10} {:>5} {:>7} {:>10} {:>13} {:>13} {:>8}",
        "profile", "aux", "chunks", "step (ms)", "exposed (ms)", "overlap (ms)", "shrink"
    );
    let outs: Vec<CellOut> = pending.cells.into_iter().map(Slot::take).collect();
    let mut rows: Vec<PipelineRow> = outs.iter().map(|o| o.row.clone()).collect();
    // Shrink vs the same profile's whole-iteration (C = 1) cell.
    for group in rows.chunks_mut(CHUNKS.len()) {
        let whole = group[0].exposed_a2a;
        for r in group {
            r.shrink_vs_whole = if whole > 0.0 {
                1.0 - r.exposed_a2a / whole
            } else {
                0.0
            };
        }
    }
    for r in &rows {
        println!(
            "{:<10} {:>5.2} {:>7} {:>10.2} {:>13.2} {:>13.2} {:>7.1}%",
            r.profile,
            r.aux_loss_weight,
            r.num_chunks,
            r.step_time * 1e3,
            r.exposed_a2a * 1e3,
            r.overlapped_a2a * 1e3,
            r.shrink_vs_whole * 100.0
        );
    }
    println!(
        "\nChunking shrinks the exposed token A2A monotonically until the layer\n\
         goes comm-bound; the skewed profile — where re-layout has the most\n\
         left on the table — benefits most. `C = 1` reproduces the\n\
         whole-iteration schedule bit for bit."
    );
    crate::output::save_json("ext_pipeline", &rows);

    let mut journal = Journal::new();
    for o in &outs {
        journal.push("iteration", &o.record);
    }
    save_text("ext_pipeline_journal.jsonl", &journal.to_jsonl());
    if let Some(timeline) = outs.iter().find_map(|o| o.timeline.as_ref()) {
        let n = Topology::paper_cluster().num_devices();
        let makespan = timeline.makespan();
        let tracks = if makespan > 0.0 {
            stream_utilization_tracks(timeline, n, makespan / 48.0)
        } else {
            Vec::new()
        };
        save_with("ext_pipeline_trace.json", |f| {
            write_chrome_trace_with_counters(timeline, &tracks, f)
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On the skewed profile the exposed A2A strictly shrinks from the
    /// whole iteration to 2 and 4 chunks, every chunked cell hides a
    /// positive amount of A2A, and the journal's per-chunk columns are
    /// populated.
    #[test]
    fn skewed_profile_exposed_a2a_shrinks_with_chunking() {
        let cells: Vec<CellOut> = CHUNKS.iter().map(|&c| cell("skewed", 0.0, c)).collect();
        assert!(cells[0].row.exposed_a2a > 0.0, "skewed EP must expose A2A");
        assert!(
            cells[1].row.exposed_a2a < cells[0].row.exposed_a2a,
            "C=2 must shrink exposed A2A: {} vs {}",
            cells[1].row.exposed_a2a,
            cells[0].row.exposed_a2a
        );
        assert!(
            cells[2].row.exposed_a2a < cells[1].row.exposed_a2a,
            "C=4 must shrink exposed A2A: {} vs {}",
            cells[2].row.exposed_a2a,
            cells[1].row.exposed_a2a
        );
        for c in &cells {
            if c.row.num_chunks > 1 {
                assert!(c.row.overlapped_a2a > 0.0, "chunked A2A must overlap");
            }
            assert_eq!(c.record.num_chunks, c.row.num_chunks);
            assert_eq!(c.record.a2a_chunks.len(), c.row.num_chunks);
            assert!(
                c.row.step_time <= cells[0].row.step_time + 1e-12,
                "chunking must not slow the step"
            );
        }
        assert!(
            cells[0].row.imbalance > 1.2,
            "aux 0.0 should skew routing, got {}",
            cells[0].row.imbalance
        );
    }

    /// The balanced profile stays ordered too (non-increasing), and the
    /// trace cell keeps its timeline.
    #[test]
    fn trace_cell_keeps_timeline_and_balanced_is_ordered() {
        let trace = cell(TRACE_CELL.0, 0.0, TRACE_CELL.1);
        assert!(trace.timeline.is_some(), "trace cell must keep a timeline");
        let other = cell("skewed", 0.0, 2);
        assert!(other.timeline.is_none());
        let balanced: Vec<f64> = [1usize, 4]
            .iter()
            .map(|&c| cell("balanced", 1.0, c).row.exposed_a2a)
            .collect();
        assert!(
            balanced[1] <= balanced[0] + 1e-12,
            "balanced exposed A2A must not grow with chunking"
        );
    }
}
