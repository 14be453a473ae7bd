//! Fine-grained communication scheduling — Fig. 5 of the paper.
//!
//! Enqueues one training iteration of an `L`-layer MoE model onto the
//! multi-stream simulator, with the three optimisations the paper
//! describes (each independently toggleable for the Fig. 12 ablation):
//!
//! * **relaxed prefetching** (Fig. 5b) — expert parameters for layer
//!   `L+1` are prefetched during layer `L`'s *expert* computation rather
//!   than during the (much shorter) attention computation;
//! * **A2A ordering** (Fig. 5c) — the prefetch is launched only after the
//!   token-dispatch All-to-All finishes, avoiding channel contention
//!   (modelled as a 50 % slowdown of the prefetch when the two
//!   communications overlap);
//! * **delayed gradient synchronisation** (Fig. 5e) — gradient reshard of
//!   layer `L` is deferred onto stream S4 under the next layer's backward
//!   computation instead of blocking the compute stream where the
//!   autograd engine happens to schedule it.

use laer_cluster::{DeviceId, Topology};
use laer_sim::{Engine, SpanHandle, SpanLabel, StreamKind};
use serde::{Deserialize, Serialize};

/// Penalty multiplier applied to a prefetch that overlaps the dispatch
/// All-to-All on the same links (channel contention, Fig. 5c).
const CONTENTION_PENALTY: f64 = 1.35;

/// Fraction of an autograd-scheduled gradient synchronisation that ends
/// up exposed on the compute stream when delayed grad sync (Fig. 5e) is
/// disabled.
const AUTOGRAD_EXPOSED_FRACTION: f64 = 0.5;

/// Fine-grained recomputation choices (Sec. 4): recomputation can be
/// applied at the granularity of attention and expert blocks, and for
/// the MoE layer "only the expert computation part" can be recomputed,
/// "preventing extra All-to-All communication overhead during
/// recomputation".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Recompute {
    /// No activation checkpointing (`F_ckpt = 0`).
    #[default]
    None,
    /// Recompute only the expert MLPs during backward (no extra A2A).
    ExpertsOnly,
    /// Recompute attention and experts (full per-layer checkpointing).
    Full,
}

/// Toggles for the Fig. 5 optimisations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleOptions {
    /// Prefetch next layer's experts during expert compute (Fig. 5b)
    /// instead of during attention (Fig. 5a).
    pub relaxed_prefetch: bool,
    /// Launch the prefetch after the dispatch A2A completes (Fig. 5c).
    pub order_prefetch_after_a2a: bool,
    /// Defer gradient synchronisation onto stream S4 (Fig. 5e).
    pub delayed_grad_sync: bool,
    /// Activation recomputation granularity (Sec. 4).
    pub recompute: Recompute,
    /// Micro-batch chunks the dispatch/combine pipeline splits each
    /// layer's token batch into: chunk `c`'s dispatch A2A runs on S3
    /// while S1 computes later attention chunks and earlier expert
    /// chunks (the fastmoe-style pipelined MoE block). `0` and `1` both
    /// mean the whole-iteration schedule; `0` is the serde default so
    /// options serialized before this knob existed deserialize to the
    /// unchunked behaviour.
    #[serde(default)]
    pub num_chunks: usize,
}

impl ScheduleOptions {
    /// All optimisations on — the LAER-MoE executor.
    pub fn optimized() -> Self {
        Self {
            relaxed_prefetch: true,
            order_prefetch_after_a2a: true,
            delayed_grad_sync: true,
            recompute: Recompute::None,
            num_chunks: 0,
        }
    }

    /// All optimisations off — the `no_comm_opt` ablation of Fig. 12.
    pub fn unoptimized() -> Self {
        Self {
            relaxed_prefetch: false,
            order_prefetch_after_a2a: false,
            delayed_grad_sync: false,
            recompute: Recompute::None,
            num_chunks: 0,
        }
    }

    /// Selects a recomputation granularity.
    pub fn with_recompute(mut self, recompute: Recompute) -> Self {
        self.recompute = recompute;
        self
    }

    /// Selects the pipeline chunk count (clamped to at least 1).
    pub fn with_num_chunks(mut self, num_chunks: usize) -> Self {
        self.num_chunks = num_chunks.max(1);
        self
    }

    /// The chunk count actually scheduled: the `0` serde/back-compat
    /// default means unchunked, i.e. one chunk.
    pub fn effective_chunks(&self) -> usize {
        self.num_chunks.max(1)
    }

    /// Total expert compute charged per layer, as a multiple of one
    /// forward pass: forward plus the backward multiplier. The
    /// decision audit uses this to reconstruct the Eq. 1 `T_comp`
    /// actually executed from per-device forward times.
    pub fn expert_roundtrip_factor(&self) -> f64 {
        1.0 + self.expert_backward_factor()
    }

    /// Backward multiplier for expert compute: 2x baseline plus one
    /// extra forward when experts are recomputed.
    fn expert_backward_factor(&self) -> f64 {
        match self.recompute {
            Recompute::None => 2.0,
            Recompute::ExpertsOnly | Recompute::Full => 3.0,
        }
    }

    /// Backward multiplier for attention.
    fn attention_backward_factor(&self) -> f64 {
        match self.recompute {
            Recompute::None | Recompute::ExpertsOnly => 2.0,
            Recompute::Full => 3.0,
        }
    }
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        Self::optimized()
    }
}

/// Per-layer operation durations (seconds), per device where the
/// operation is device-dependent.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LayerTimings {
    /// Attention (and other non-expert) forward time, uniform across
    /// devices.
    pub attention: f64,
    /// Dispatch All-to-All local cost per device.
    pub dispatch: Vec<f64>,
    /// Expert forward computation per device (includes the straggler's
    /// imbalance).
    pub expert_forward: Vec<f64>,
    /// Combine All-to-All local cost per device.
    pub combine: Vec<f64>,
    /// Expert-parameter prefetch (unshard) time, uniform (balanced A2A).
    pub prefetch: f64,
    /// Gradient reshard/synchronisation time, uniform (balanced A2A).
    pub grad_sync: f64,
}

impl LayerTimings {
    /// Validates that per-device vectors agree with `n` devices.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    fn check(&self, n: usize) {
        assert_eq!(self.dispatch.len(), n, "dispatch per device");
        assert_eq!(self.expert_forward.len(), n, "expert fwd per device");
        assert_eq!(self.combine.len(), n, "combine per device");
    }
}

/// Result of scheduling one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationTimings {
    /// End-to-end iteration seconds (forward + backward).
    pub total: f64,
    /// Seconds at which the forward pass finished.
    pub forward_end: f64,
}

/// Enqueues one iteration (forward + backward over all layers) and
/// returns its timings. The engine accumulates spans, so the caller can
/// pull breakdowns from [`Engine::timeline`].
///
/// Backward-pass costs follow the paper's model: expert backward is 2×
/// forward; the combine/dispatch A2As repeat in reverse.
///
/// # Panics
///
/// Panics if any per-device timing vector disagrees with the topology.
pub fn schedule_iteration(
    engine: &mut Engine,
    topo: &Topology,
    layers: &[LayerTimings],
    opts: ScheduleOptions,
) -> IterationTimings {
    let devices: Vec<DeviceId> = topo.devices().collect();
    schedule_iteration_on(engine, topo, &devices, layers, opts)
}

/// [`schedule_iteration`] restricted to a device subset — degraded-mode
/// execution after device failures: only `active` devices (the
/// survivors) have work enqueued; per-device timing vectors keep the
/// full `N` length and are indexed by device id, so callers hand in the
/// same [`LayerTimings`] they would for a healthy cluster.
///
/// # Panics
///
/// Panics if `active` is empty, repeats a device, names a device outside
/// the topology, or if any per-device timing vector disagrees with the
/// topology.
pub fn schedule_iteration_on(
    engine: &mut Engine,
    topo: &Topology,
    active: &[DeviceId],
    layers: &[LayerTimings],
    opts: ScheduleOptions,
) -> IterationTimings {
    let n_full = topo.num_devices();
    for l in layers {
        l.check(n_full);
    }
    assert!(!active.is_empty(), "need at least one active device");
    let mut seen = vec![false; n_full];
    for d in active {
        assert!(d.index() < n_full, "active device outside topology");
        assert!(!seen[d.index()], "active device listed twice");
        seen[d.index()] = true;
    }
    // Gather per-device timings down to the active subset so the
    // schedule body can index positionally.
    let local: Vec<LayerTimings> = layers
        .iter()
        .map(|l| LayerTimings {
            attention: l.attention,
            dispatch: active.iter().map(|d| l.dispatch[d.index()]).collect(),
            expert_forward: active.iter().map(|d| l.expert_forward[d.index()]).collect(),
            combine: active.iter().map(|d| l.combine[d.index()]).collect(),
            prefetch: l.prefetch,
            grad_sync: l.grad_sync,
        })
        .collect();
    schedule_on_devices(engine, active, &local, opts)
}

/// The schedule body: `layers` vectors are indexed positionally by
/// `devices` (already gathered to the participating subset).
///
/// With `opts.num_chunks > 1` each layer's token batch is split into
/// equal chunks and every chunk gets its own attention → dispatch →
/// expert → combine slice, so the S3 A2A stream runs chunk `c`'s
/// dispatch while S1 computes attention of chunks `> c` and experts of
/// chunks `< c`. All chunks of one phase are enqueued as a block
/// (attention chunks, then dispatch chunks, then expert chunks, then
/// combine chunks): streams execute in enqueue order, so interleaving
/// phases per chunk would serialize chunk `c`'s combine *before* chunk
/// `c+1`'s dispatch on S3 and destroy the overlap. At one chunk the
/// emitted span stream is bit-identical to
/// [`schedule_iteration_reference`] (durations are multiplied by
/// `1.0/1.0`, which is exact for IEEE-754 doubles).
fn schedule_on_devices(
    engine: &mut Engine,
    devices: &[DeviceId],
    layers: &[LayerTimings],
    opts: ScheduleOptions,
) -> IterationTimings {
    let n = devices.len();
    let chunks = opts.effective_chunks();
    let inv = 1.0 / chunks as f64;
    // Every layer enqueues at most `8·chunks + 3` spans per device
    // (forward: `chunks` each of attention/dispatch/expert/combine plus
    // one prefetch; backward: `chunks` each of dispatch/expert/combine/
    // attention plus up to two grad-sync spans), plus the up-front
    // layer-0 prefetch — reserve once instead of regrowing the timeline
    // mid-iteration. At one chunk this is the pre-pipelining 11 spans
    // per (layer, device).
    engine.reserve_spans(layers.len() * n * (8 * chunks + 3) + n);
    let start = engine.now();
    // ---------------- forward ----------------
    // prefetch_done[l] handles: expert compute of layer l waits on them.
    // The prefetch is per *layer* (parameters serve every chunk), so all
    // expert chunks of layer l depend on the same prefetch handle.
    let mut prefetch_done: Vec<Option<Vec<SpanHandle>>> = vec![None; layers.len()];
    // Layer 0's experts must be fetched up front (not overlappable).
    if let Some(first) = layers.first() {
        let handles: Vec<SpanHandle> = devices
            .iter()
            .map(|&d| {
                engine.enqueue(
                    d,
                    StreamKind::Prefetch,
                    SpanLabel::Prefetch,
                    first.prefetch,
                    &[],
                )
            })
            .collect();
        prefetch_done[0] = Some(handles);
    }
    // last_combine[c][di]: the previous layer's combine A2A of chunk c.
    // Chunk c's tokens flow attention → dispatch → expert → combine →
    // next layer's attention of the *same* chunk, so cross-layer
    // dependencies stay per chunk and chunk c+1 can start its attention
    // while chunk c is still in flight.
    let mut last_combine: Vec<Vec<SpanHandle>> = vec![Vec::new(); chunks];
    for (li, layer) in layers.iter().enumerate() {
        // Attention on the compute stream, chunk by chunk.
        let attn: Vec<Vec<SpanHandle>> = (0..chunks)
            .map(|c| {
                devices
                    .iter()
                    .enumerate()
                    .map(|(di, &d)| {
                        let deps: Vec<SpanHandle> =
                            last_combine[c].get(di).copied().into_iter().collect();
                        engine.enqueue(
                            d,
                            StreamKind::Compute,
                            SpanLabel::Attention,
                            layer.attention * inv,
                            &deps,
                        )
                    })
                    .collect()
            })
            .collect();
        // Unoptimized prefetch (Fig. 5a): fetch this layer's experts
        // during this layer's attention (its first chunk).
        if !opts.relaxed_prefetch && li > 0 {
            let handles: Vec<SpanHandle> = devices
                .iter()
                .enumerate()
                .map(|(di, &d)| {
                    engine.enqueue(
                        d,
                        StreamKind::Prefetch,
                        SpanLabel::Prefetch,
                        layer.prefetch,
                        &[attn[0][di]],
                    )
                })
                .collect();
            prefetch_done[li] = Some(handles);
        }
        // Token-dispatch A2As (synchronising collectives, one per
        // chunk). Dispatch of chunk c only needs chunk c's attention, so
        // on S3 it runs while S1 is still on later attention chunks or
        // earlier expert chunks — the overlap this pipeline exists for.
        let chunk_dispatch: Vec<f64> = layer.dispatch.iter().map(|&t| t * inv).collect();
        let dispatch: Vec<Vec<SpanHandle>> = (0..chunks)
            .map(|c| {
                let attn_dep: Vec<Vec<SpanHandle>> = attn[c].iter().map(|&h| vec![h]).collect();
                engine.enqueue_collective(
                    devices,
                    StreamKind::A2a,
                    SpanLabel::AllToAll,
                    &chunk_dispatch,
                    &attn_dep,
                )
            })
            .collect();
        // Relaxed prefetch (Fig. 5b/c): fetch the *next* layer's experts
        // now, ordered after the first dispatch chunk if requested.
        if opts.relaxed_prefetch && li + 1 < layers.len() {
            let next = &layers[li + 1];
            let duration = if opts.order_prefetch_after_a2a {
                next.prefetch
            } else {
                next.prefetch * CONTENTION_PENALTY
            };
            let handles: Vec<SpanHandle> = devices
                .iter()
                .enumerate()
                .map(|(di, &d)| {
                    let deps: Vec<SpanHandle> = if opts.order_prefetch_after_a2a {
                        vec![dispatch[0][di]]
                    } else {
                        vec![attn[0][di]]
                    };
                    engine.enqueue(
                        d,
                        StreamKind::Prefetch,
                        SpanLabel::Prefetch,
                        duration,
                        &deps,
                    )
                })
                .collect();
            prefetch_done[li + 1] = Some(handles);
        }
        // Expert forward per chunk: chunk c needs its own dispatched
        // tokens AND the layer's restored params.
        let expert: Vec<Vec<SpanHandle>> = (0..chunks)
            .map(|c| {
                devices
                    .iter()
                    .enumerate()
                    .map(|(di, &d)| {
                        let mut deps = vec![dispatch[c][di]];
                        if let Some(pf) = &prefetch_done[li] {
                            deps.push(pf[di]);
                        }
                        engine.enqueue(
                            d,
                            StreamKind::Compute,
                            SpanLabel::ExpertCompute,
                            layer.expert_forward[di] * inv,
                            &deps,
                        )
                    })
                    .collect()
            })
            .collect();
        // Combine A2As, one per chunk.
        let chunk_combine: Vec<f64> = layer.combine.iter().map(|&t| t * inv).collect();
        last_combine = (0..chunks)
            .map(|c| {
                let expert_dep: Vec<Vec<SpanHandle>> = expert[c].iter().map(|&h| vec![h]).collect();
                engine.enqueue_collective(
                    devices,
                    StreamKind::A2a,
                    SpanLabel::AllToAll,
                    &chunk_combine,
                    &expert_dep,
                )
            })
            .collect();
    }
    let forward_end = engine.now();
    // ---------------- backward (layers in reverse) ----------------
    // prev_bwd[c][di]: dependency lists feeding chunk c of the next
    // backward layer — the forward's last combine per chunk, then each
    // layer's attention-backward chunks.
    let mut prev_bwd: Vec<Vec<Vec<SpanHandle>>> = last_combine
        .iter()
        .map(|per_chunk| per_chunk.iter().map(|&h| vec![h]).collect())
        .collect();
    for layer in layers.iter().rev() {
        // Dispatch A2A for gradients w.r.t. expert outputs, per chunk.
        let chunk_bwd_dispatch: Vec<f64> = layer.combine.iter().map(|&t| t * inv).collect();
        let bwd_dispatch: Vec<Vec<SpanHandle>> = (0..chunks)
            .map(|c| {
                engine.enqueue_collective(
                    devices,
                    StreamKind::A2a,
                    SpanLabel::AllToAll,
                    &chunk_bwd_dispatch,
                    &prev_bwd[c],
                )
            })
            .collect();
        // Expert backward per chunk: 2x forward cost.
        let expert_bwd: Vec<Vec<SpanHandle>> = (0..chunks)
            .map(|c| {
                devices
                    .iter()
                    .enumerate()
                    .map(|(di, &d)| {
                        engine.enqueue(
                            d,
                            StreamKind::Compute,
                            SpanLabel::ExpertCompute,
                            opts.expert_backward_factor() * layer.expert_forward[di] * inv,
                            &[bwd_dispatch[c][di]],
                        )
                    })
                    .collect()
            })
            .collect();
        // Gradient reshard/synchronisation. Parameter gradients cover
        // every chunk, so the layer's single reshard waits on all of its
        // expert-backward chunks.
        if opts.delayed_grad_sync {
            // Fig. 5e: on S4, overlapped with the next (earlier) layer's
            // backward computation.
            for (di, &d) in devices.iter().enumerate() {
                let deps: Vec<SpanHandle> = expert_bwd.iter().map(|chunk| chunk[di]).collect();
                engine.enqueue(
                    d,
                    StreamKind::GradSync,
                    SpanLabel::GradSync,
                    layer.grad_sync,
                    &deps,
                );
            }
        }
        // Combine A2A for input gradients, per chunk.
        let chunk_bwd_combine: Vec<f64> = layer.dispatch.iter().map(|&t| t * inv).collect();
        let bwd_combine: Vec<Vec<SpanHandle>> = (0..chunks)
            .map(|c| {
                let expert_dep: Vec<Vec<SpanHandle>> =
                    expert_bwd[c].iter().map(|&h| vec![h]).collect();
                engine.enqueue_collective(
                    devices,
                    StreamKind::A2a,
                    SpanLabel::AllToAll,
                    &chunk_bwd_combine,
                    &expert_dep,
                )
            })
            .collect();
        // Attention backward per chunk: 2x forward cost, on the compute
        // stream.
        let attn_bwd: Vec<Vec<SpanHandle>> = (0..chunks)
            .map(|c| {
                devices
                    .iter()
                    .enumerate()
                    .map(|(di, &d)| {
                        engine.enqueue(
                            d,
                            StreamKind::Compute,
                            SpanLabel::Attention,
                            opts.attention_backward_factor() * layer.attention * inv,
                            &[bwd_combine[c][di]],
                        )
                    })
                    .collect()
            })
            .collect();
        if !opts.delayed_grad_sync {
            // Autograd-driven timing: NCCL still runs the reduction on
            // its own stream, but the engine's eager launch point makes
            // roughly half of it collide with (and block) subsequent
            // backward kernels — the "uncontrollable communication
            // timing and overlap effects" of Sec. 3.1.
            for &d in devices {
                engine.enqueue(
                    d,
                    StreamKind::Compute,
                    SpanLabel::GradSync,
                    AUTOGRAD_EXPOSED_FRACTION * layer.grad_sync,
                    &[],
                );
                engine.enqueue(
                    d,
                    StreamKind::GradSync,
                    SpanLabel::GradSync,
                    (1.0 - AUTOGRAD_EXPOSED_FRACTION) * layer.grad_sync,
                    &[],
                );
            }
        }
        prev_bwd = attn_bwd
            .iter()
            .map(|per_chunk| per_chunk.iter().map(|&h| vec![h]).collect())
            .collect();
    }
    let total_end = engine.now();
    engine.barrier_at(total_end);
    IterationTimings {
        total: total_end - start,
        forward_end: forward_end - start,
    }
}

/// The pre-pipelining whole-iteration scheduler, kept verbatim as the
/// executable reference for the chunking invariant: scheduling with
/// `num_chunks <= 1` must reproduce this span stream bit-identically
/// (pinned by the proptests in `tests/proptests.rs` and raced against
/// the chunked path in `bench_fsep`). Ignores `opts.num_chunks`.
///
/// # Panics
///
/// Panics if any per-device timing vector disagrees with the topology.
pub fn schedule_iteration_reference(
    engine: &mut Engine,
    topo: &Topology,
    layers: &[LayerTimings],
    opts: ScheduleOptions,
) -> IterationTimings {
    let n = topo.num_devices();
    for l in layers {
        l.check(n);
    }
    let devices: Vec<DeviceId> = topo.devices().collect();
    schedule_whole_on_devices(engine, &devices, layers, opts)
}

/// Whole-iteration schedule body as it stood before chunked pipelining
/// (one span per phase per layer per device).
fn schedule_whole_on_devices(
    engine: &mut Engine,
    devices: &[DeviceId],
    layers: &[LayerTimings],
    opts: ScheduleOptions,
) -> IterationTimings {
    let n = devices.len();
    // Every layer enqueues at most 11 spans per device (5 forward:
    // attention, prefetch, dispatch, expert, combine; 6 backward:
    // dispatch, expert, up to 2 grad-sync, combine, attention), plus the
    // up-front layer-0 prefetch — reserve once instead of regrowing the
    // timeline mid-iteration.
    engine.reserve_spans(layers.len() * n * 11 + n);
    let start = engine.now();
    // ---------------- forward ----------------
    // prefetch_done[l] handles: expert compute of layer l waits on them.
    let mut prefetch_done: Vec<Option<Vec<SpanHandle>>> = vec![None; layers.len()];
    // Layer 0's experts must be fetched up front (not overlappable).
    if let Some(first) = layers.first() {
        let handles: Vec<SpanHandle> = devices
            .iter()
            .map(|&d| {
                engine.enqueue(
                    d,
                    StreamKind::Prefetch,
                    SpanLabel::Prefetch,
                    first.prefetch,
                    &[],
                )
            })
            .collect();
        prefetch_done[0] = Some(handles);
    }
    let mut last_combine: Vec<Vec<SpanHandle>> = vec![Vec::new(); n];
    for (li, layer) in layers.iter().enumerate() {
        // Attention on the compute stream.
        let attn: Vec<SpanHandle> = devices
            .iter()
            .enumerate()
            .map(|(di, &d)| {
                let deps = last_combine[di].clone();
                engine.enqueue(
                    d,
                    StreamKind::Compute,
                    SpanLabel::Attention,
                    layer.attention,
                    &deps,
                )
            })
            .collect();
        // Unoptimized prefetch (Fig. 5a): fetch this layer's experts
        // during this layer's attention.
        if !opts.relaxed_prefetch && li > 0 {
            let handles: Vec<SpanHandle> = devices
                .iter()
                .enumerate()
                .map(|(di, &d)| {
                    engine.enqueue(
                        d,
                        StreamKind::Prefetch,
                        SpanLabel::Prefetch,
                        layer.prefetch,
                        &[attn[di]],
                    )
                })
                .collect();
            prefetch_done[li] = Some(handles);
        }
        // Token-dispatch A2A (synchronising collective).
        let attn_dep: Vec<Vec<SpanHandle>> = attn.iter().map(|&h| vec![h]).collect();
        let dispatch = engine.enqueue_collective(
            devices,
            StreamKind::A2a,
            SpanLabel::AllToAll,
            &layer.dispatch,
            &attn_dep,
        );
        // Relaxed prefetch (Fig. 5b/c): fetch the *next* layer's experts
        // now, ordered after the dispatch A2A if requested.
        if opts.relaxed_prefetch && li + 1 < layers.len() {
            let next = &layers[li + 1];
            let duration = if opts.order_prefetch_after_a2a {
                next.prefetch
            } else {
                next.prefetch * CONTENTION_PENALTY
            };
            let handles: Vec<SpanHandle> = devices
                .iter()
                .enumerate()
                .map(|(di, &d)| {
                    let deps: Vec<SpanHandle> = if opts.order_prefetch_after_a2a {
                        vec![dispatch[di]]
                    } else {
                        vec![attn[di]]
                    };
                    engine.enqueue(
                        d,
                        StreamKind::Prefetch,
                        SpanLabel::Prefetch,
                        duration,
                        &deps,
                    )
                })
                .collect();
            prefetch_done[li + 1] = Some(handles);
        }
        // Expert forward: needs dispatched tokens AND restored params.
        let expert: Vec<SpanHandle> = devices
            .iter()
            .enumerate()
            .map(|(di, &d)| {
                let mut deps = vec![dispatch[di]];
                if let Some(pf) = &prefetch_done[li] {
                    deps.push(pf[di]);
                }
                engine.enqueue(
                    d,
                    StreamKind::Compute,
                    SpanLabel::ExpertCompute,
                    layer.expert_forward[di],
                    &deps,
                )
            })
            .collect();
        // Combine A2A.
        let expert_dep: Vec<Vec<SpanHandle>> = expert.iter().map(|&h| vec![h]).collect();
        let combine = engine.enqueue_collective(
            devices,
            StreamKind::A2a,
            SpanLabel::AllToAll,
            &layer.combine,
            &expert_dep,
        );
        last_combine = combine.iter().map(|&h| vec![h]).collect();
    }
    let forward_end = engine.now();
    // ---------------- backward (layers in reverse) ----------------
    let mut prev_bwd: Vec<Vec<SpanHandle>> = last_combine;
    for layer in layers.iter().rev() {
        // Dispatch A2A for gradients w.r.t. expert outputs.
        let bwd_dispatch = engine.enqueue_collective(
            devices,
            StreamKind::A2a,
            SpanLabel::AllToAll,
            &layer.combine,
            &prev_bwd,
        );
        // Expert backward: 2x forward cost.
        let expert_bwd: Vec<SpanHandle> = devices
            .iter()
            .enumerate()
            .map(|(di, &d)| {
                engine.enqueue(
                    d,
                    StreamKind::Compute,
                    SpanLabel::ExpertCompute,
                    opts.expert_backward_factor() * layer.expert_forward[di],
                    &[bwd_dispatch[di]],
                )
            })
            .collect();
        // Gradient reshard/synchronisation.
        if opts.delayed_grad_sync {
            // Fig. 5e: on S4, overlapped with the next (earlier) layer's
            // backward computation.
            for (di, &d) in devices.iter().enumerate() {
                engine.enqueue(
                    d,
                    StreamKind::GradSync,
                    SpanLabel::GradSync,
                    layer.grad_sync,
                    &[expert_bwd[di]],
                );
            }
        }
        // Combine A2A for input gradients.
        let expert_dep: Vec<Vec<SpanHandle>> = expert_bwd.iter().map(|&h| vec![h]).collect();
        let bwd_combine = engine.enqueue_collective(
            devices,
            StreamKind::A2a,
            SpanLabel::AllToAll,
            &layer.dispatch,
            &expert_dep,
        );
        // Attention backward: 2x forward cost, on the compute stream.
        let attn_bwd: Vec<SpanHandle> = devices
            .iter()
            .enumerate()
            .map(|(di, &d)| {
                engine.enqueue(
                    d,
                    StreamKind::Compute,
                    SpanLabel::Attention,
                    opts.attention_backward_factor() * layer.attention,
                    &[bwd_combine[di]],
                )
            })
            .collect();
        if !opts.delayed_grad_sync {
            // Autograd-driven timing: NCCL still runs the reduction on
            // its own stream, but the engine's eager launch point makes
            // roughly half of it collide with (and block) subsequent
            // backward kernels — the "uncontrollable communication
            // timing and overlap effects" of Sec. 3.1.
            for &d in devices {
                engine.enqueue(
                    d,
                    StreamKind::Compute,
                    SpanLabel::GradSync,
                    AUTOGRAD_EXPOSED_FRACTION * layer.grad_sync,
                    &[],
                );
                engine.enqueue(
                    d,
                    StreamKind::GradSync,
                    SpanLabel::GradSync,
                    (1.0 - AUTOGRAD_EXPOSED_FRACTION) * layer.grad_sync,
                    &[],
                );
            }
        }
        prev_bwd = attn_bwd.iter().map(|&h| vec![h]).collect();
    }
    let total_end = engine.now();
    engine.barrier_at(total_end);
    IterationTimings {
        total: total_end - start,
        forward_end: forward_end - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(n: usize, attention: f64, expert: f64, a2a: f64, prefetch: f64) -> LayerTimings {
        LayerTimings {
            attention,
            dispatch: vec![a2a; n],
            expert_forward: vec![expert; n],
            combine: vec![a2a; n],
            prefetch,
            grad_sync: prefetch,
        }
    }

    fn run(opts: ScheduleOptions, layers: &[LayerTimings]) -> (IterationTimings, Engine) {
        let topo = Topology::single_node(2).unwrap();
        let mut engine = Engine::new(&topo);
        let t = schedule_iteration(&mut engine, &topo, layers, opts);
        (t, engine)
    }

    /// With long expert compute and relaxed prefetch, the prefetch is
    /// fully hidden: total time equals the no-prefetch critical path.
    #[test]
    fn relaxed_prefetch_hides_communication() {
        let n = 2;
        // attention 1ms, expert 10ms, a2a 0.5ms, prefetch 8ms: the
        // prefetch fits under the 10ms expert compute.
        let layers: Vec<_> = (0..4)
            .map(|_| layer(n, 1e-3, 10e-3, 0.5e-3, 8e-3))
            .collect();
        let (opt, _) = run(ScheduleOptions::optimized(), &layers);
        let (unopt, _) = run(ScheduleOptions::unoptimized(), &layers);
        assert!(
            opt.total < unopt.total,
            "optimized {} should beat unoptimized {}",
            opt.total,
            unopt.total
        );
        // Optimized forward: layer 0's attention+dispatch hide under its
        // 8ms up-front prefetch, then expert+combine run, then three
        // full per-layer critical paths follow.
        let per_layer = 1e-3 + 0.5e-3 + 10e-3 + 0.5e-3;
        let expect = 8e-3 + 10e-3 + 0.5e-3 + 3.0 * per_layer;
        assert!(
            (opt.forward_end - expect).abs() < 1e-6,
            "forward {} vs expected {}",
            opt.forward_end,
            expect
        );
    }

    /// Without relaxed prefetch the (short) attention window cannot hide
    /// an 8 ms prefetch: each layer's expert compute waits.
    #[test]
    fn unrelaxed_prefetch_exposes_wait() {
        let n = 2;
        let layers: Vec<_> = (0..3)
            .map(|_| layer(n, 1e-3, 10e-3, 0.5e-3, 8e-3))
            .collect();
        let (opt, _) = run(ScheduleOptions::optimized(), &layers);
        let mut only_relax_off = ScheduleOptions::optimized();
        only_relax_off.relaxed_prefetch = false;
        let (unrelaxed, _) = run(only_relax_off, &layers);
        assert!(unrelaxed.forward_end > opt.forward_end + 5e-3);
    }

    /// Contention: launching the prefetch concurrently with the dispatch
    /// A2A (no ordering) inflates the prefetch; with a prefetch too large
    /// to hide, the unordered variant is slower.
    #[test]
    fn a2a_ordering_avoids_contention() {
        let n = 2;
        // Expert compute too short to hide the prefetch -> exposed time
        // matters, and the contention penalty shows up.
        let layers: Vec<_> = (0..3).map(|_| layer(n, 1e-3, 2e-3, 1e-3, 6e-3)).collect();
        let ordered = ScheduleOptions::optimized();
        let mut unordered = ScheduleOptions::optimized();
        unordered.order_prefetch_after_a2a = false;
        let (t_ord, _) = run(ordered, &layers);
        let (t_unord, _) = run(unordered, &layers);
        assert!(
            t_unord.total > t_ord.total,
            "unordered {} should exceed ordered {}",
            t_unord.total,
            t_ord.total
        );
    }

    /// Delayed gradient sync overlaps reshard with backward compute; the
    /// serialized variant pays it on the critical path.
    #[test]
    fn delayed_grad_sync_overlaps() {
        let n = 2;
        let layers: Vec<_> = (0..4)
            .map(|_| layer(n, 1e-3, 10e-3, 0.5e-3, 6e-3))
            .collect();
        let delayed = ScheduleOptions::optimized();
        let mut serialized = ScheduleOptions::optimized();
        serialized.delayed_grad_sync = false;
        let (t_del, _) = run(delayed, &layers);
        let (t_ser, _) = run(serialized, &layers);
        // Serialized exposes part of the grad sync on the compute
        // stream; some of it hides under the next layer's backward A2A,
        // but a measurable residue must remain.
        assert!(
            t_ser.total > t_del.total + 1e-3,
            "serialized {} vs delayed {}",
            t_ser.total,
            t_del.total
        );
    }

    /// Sec. 4's fine-grained recomputation: experts-only recompute adds
    /// one expert forward to backward; full recompute adds attention
    /// too; both strictly slow the iteration (memory is what they buy).
    #[test]
    fn recompute_granularities_order() {
        let n = 2;
        let layers: Vec<_> = (0..3).map(|_| layer(n, 2e-3, 8e-3, 0.5e-3, 2e-3)).collect();
        let none = run(ScheduleOptions::optimized(), &layers).0;
        let experts = run(
            ScheduleOptions::optimized().with_recompute(Recompute::ExpertsOnly),
            &layers,
        )
        .0;
        let full = run(
            ScheduleOptions::optimized().with_recompute(Recompute::Full),
            &layers,
        )
        .0;
        assert!(none.total < experts.total);
        assert!(experts.total < full.total);
        // Experts-only adds exactly one expert forward per layer to the
        // critical path (no extra A2A).
        let expect = none.total + 3.0 * 8e-3;
        assert!(
            (experts.total - expect).abs() < 1e-6,
            "{} vs {expect}",
            experts.total
        );
    }

    /// Degraded-mode scheduling: excluding a failed device removes its
    /// spans entirely, and the subset schedule equals a full schedule of
    /// the surviving devices alone.
    #[test]
    fn subset_schedule_skips_failed_devices() {
        let n = 4;
        let topo = Topology::single_node(n).unwrap();
        let layers: Vec<_> = (0..3).map(|_| layer(n, 1e-3, 5e-3, 0.5e-3, 2e-3)).collect();
        let active: Vec<DeviceId> = [0usize, 1, 3].iter().map(|&i| DeviceId::new(i)).collect();
        let mut engine = Engine::new(&topo);
        let t = schedule_iteration_on(
            &mut engine,
            &topo,
            &active,
            &layers,
            ScheduleOptions::optimized(),
        );
        assert!(t.total > 0.0);
        let failed = DeviceId::new(2);
        assert!(
            engine.timeline().spans().iter().all(|s| s.device != failed),
            "failed device must receive no work"
        );
        // Equivalent full run on a 3-device cluster.
        let small = Topology::single_node(3).unwrap();
        let small_layers: Vec<_> = (0..3).map(|_| layer(3, 1e-3, 5e-3, 0.5e-3, 2e-3)).collect();
        let mut small_engine = Engine::new(&small);
        let t_small = schedule_iteration(
            &mut small_engine,
            &small,
            &small_layers,
            ScheduleOptions::optimized(),
        );
        assert!((t.total - t_small.total).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn duplicate_active_device_panics() {
        let topo = Topology::single_node(2).unwrap();
        let layers = vec![layer(2, 1e-3, 5e-3, 0.5e-3, 2e-3)];
        let mut engine = Engine::new(&topo);
        let d = DeviceId::new(0);
        let _ = schedule_iteration_on(
            &mut engine,
            &topo,
            &[d, d],
            &layers,
            ScheduleOptions::optimized(),
        );
    }

    #[test]
    fn timeline_contains_all_buckets() {
        let n = 2;
        let layers: Vec<_> = (0..2).map(|_| layer(n, 1e-3, 5e-3, 0.5e-3, 2e-3)).collect();
        let (_, engine) = run(ScheduleOptions::optimized(), &layers);
        let breakdown = engine.timeline().breakdown(n);
        assert!(breakdown.a2a > 0.0);
        assert!(breakdown.expert_compute > 0.0);
        assert!(breakdown.others > 0.0);
    }

    /// Exposed A2A: total time minus the same schedule with dispatch and
    /// combine zeroed out.
    fn exposed_a2a(layers: &[LayerTimings], opts: ScheduleOptions) -> f64 {
        let n = layers.first().map_or(0, |l| l.dispatch.len());
        let topo = Topology::single_node(n).unwrap();
        let mut engine = Engine::new(&topo);
        let t = schedule_iteration(&mut engine, &topo, layers, opts);
        let zeroed: Vec<LayerTimings> = layers
            .iter()
            .map(|l| LayerTimings {
                dispatch: vec![0.0; n],
                combine: vec![0.0; n],
                ..l.clone()
            })
            .collect();
        let mut engine0 = Engine::new(&topo);
        let t0 = schedule_iteration(&mut engine0, &topo, &zeroed, opts);
        (t.total - t0.total).max(0.0)
    }

    /// `num_chunks = 1` (and the `0` back-compat default) must reproduce
    /// the whole-iteration reference scheduler bit-identically: same
    /// span stream, same timings. The proptest in `tests/proptests.rs`
    /// widens this over random shapes and options.
    #[test]
    fn single_chunk_matches_reference_bit_identically() {
        let n = 3;
        let topo = Topology::single_node(n).unwrap();
        let layers: Vec<_> = (0..4)
            .map(|i| layer(n, 1e-3 + i as f64 * 1e-4, 7e-3, 0.9e-3, 3e-3))
            .collect();
        for base in [ScheduleOptions::optimized(), ScheduleOptions::unoptimized()] {
            for opts in [base, base.with_num_chunks(1)] {
                let mut chunked = Engine::new(&topo);
                let t = schedule_iteration(&mut chunked, &topo, &layers, opts);
                let mut whole = Engine::new(&topo);
                let t_ref = schedule_iteration_reference(&mut whole, &topo, &layers, opts);
                assert_eq!(t, t_ref);
                assert_eq!(chunked.timeline().spans(), whole.timeline().spans());
            }
        }
    }

    /// Under a uniform layout, exposed A2A is monotonically
    /// non-increasing in the chunk count, and strictly shrinks on an
    /// A2A-heavy profile before the schedule goes comm-bound.
    #[test]
    fn exposed_a2a_monotone_in_chunk_count() {
        let n = 2;
        // A2A 6 ms per direction vs 4 ms expert compute: plenty of
        // exposed communication for the pipeline to hide.
        let layers: Vec<_> = (0..4).map(|_| layer(n, 1e-3, 4e-3, 6e-3, 1e-3)).collect();
        let exposed: Vec<f64> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|&c| exposed_a2a(&layers, ScheduleOptions::optimized().with_num_chunks(c)))
            .collect();
        for pair in exposed.windows(2) {
            assert!(
                pair[1] <= pair[0] + 1e-12,
                "exposed A2A must not grow with chunk count: {exposed:?}"
            );
        }
        assert!(
            exposed[2] < exposed[0] - 1e-4,
            "4 chunks should strictly shrink exposed A2A: {exposed:?}"
        );
    }

    /// Chunking shortens the iteration when A2A is material: dispatch of
    /// chunk c overlaps expert compute of chunk c-1.
    #[test]
    fn chunked_schedule_overlaps_a2a_with_compute() {
        let n = 2;
        let layers: Vec<_> = (0..4).map(|_| layer(n, 1e-3, 4e-3, 6e-3, 1e-3)).collect();
        let run_total = |c: usize| {
            let topo = Topology::single_node(n).unwrap();
            let mut engine = Engine::new(&topo);
            schedule_iteration(
                &mut engine,
                &topo,
                &layers,
                ScheduleOptions::optimized().with_num_chunks(c),
            )
            .total
        };
        let whole = run_total(1);
        let chunked = run_total(4);
        assert!(
            chunked < whole - 1e-3,
            "4-chunk schedule {chunked} should beat whole-iteration {whole}"
        );
    }

    /// The chunk-aware span reservation is an exact upper bound: a
    /// chunked iteration never enqueues more spans than reserved, and
    /// reaches the bound when every optional span is emitted.
    #[test]
    fn chunked_span_count_within_reservation() {
        let n = 2;
        let topo = Topology::single_node(n).unwrap();
        let layer_count = 3;
        let layers: Vec<_> = (0..layer_count)
            .map(|_| layer(n, 1e-3, 4e-3, 1e-3, 1e-3))
            .collect();
        for chunks in [1usize, 2, 4, 8] {
            let mut engine = Engine::new(&topo);
            let opts = ScheduleOptions::optimized().with_num_chunks(chunks);
            schedule_iteration(&mut engine, &topo, &layers, opts);
            let reserved = layer_count * n * (8 * chunks + 3) + n;
            let emitted = engine.timeline().len();
            assert!(
                emitted <= reserved,
                "chunks {chunks}: emitted {emitted} > reserved {reserved}"
            );
            // Forward: 4·chunks per (layer, device) + relaxed prefetch on
            // all but the last layer + the layer-0 up-front prefetch.
            // Backward: 4·chunks + 1 delayed grad-sync per (layer, device).
            let expected = layer_count * n * (8 * chunks + 1) + (layer_count - 1) * n + n;
            assert_eq!(emitted, expected, "chunks {chunks}");
        }
    }

    #[test]
    fn effective_chunks_clamps_zero_to_one() {
        assert_eq!(ScheduleOptions::optimized().effective_chunks(), 1);
        assert_eq!(
            ScheduleOptions::optimized().with_num_chunks(0).num_chunks,
            1
        );
        assert_eq!(
            ScheduleOptions::optimized()
                .with_num_chunks(6)
                .effective_chunks(),
            6
        );
    }

    #[test]
    fn iterations_accumulate_on_engine() {
        let n = 2;
        let topo = Topology::single_node(n).unwrap();
        let mut engine = Engine::new(&topo);
        let layers: Vec<_> = (0..2).map(|_| layer(n, 1e-3, 5e-3, 0.5e-3, 2e-3)).collect();
        let t1 = schedule_iteration(&mut engine, &topo, &layers, ScheduleOptions::optimized());
        let t2 = schedule_iteration(&mut engine, &topo, &layers, ScheduleOptions::optimized());
        // Steady-state iterations have identical duration.
        assert!(
            (t1.total - t2.total).abs() < 1e-4,
            "{} vs {}",
            t1.total,
            t2.total
        );
        assert!(engine.now() >= t1.total + t2.total - 1e-9);
    }

    /// A recording engine running the real chunked executor produces a
    /// well-formed span DAG: one dep entry per span, every edge points
    /// backward to a strictly earlier-ending predecessor, collective
    /// groups are contiguous index runs containing their bottleneck,
    /// and local work never exceeds the span's wall duration. Recording
    /// must not perturb the schedule itself.
    #[test]
    fn chunked_schedule_records_a_consistent_dag() {
        use laer_sim::EngineOptions;
        let n = 4;
        let topo = Topology::single_node(n).unwrap();
        let layers: Vec<_> = (0..3).map(|_| layer(n, 1e-3, 5e-3, 0.5e-3, 2e-3)).collect();
        let opts = ScheduleOptions::optimized().with_num_chunks(3);

        let mut plain = Engine::new(&topo);
        let t_plain = schedule_iteration(&mut plain, &topo, &layers, opts);
        let mut engine = Engine::with_options(&topo, EngineOptions { record_deps: true });
        let t = schedule_iteration(&mut engine, &topo, &layers, opts);
        assert!((t.total - t_plain.total).abs() < 1e-12, "recording is free");
        assert_eq!(plain.timeline().spans(), engine.timeline().spans());

        let timeline = engine.timeline();
        let deps = timeline.dep_log().expect("recording engine");
        assert_eq!(deps.len(), timeline.spans().len());
        for (i, span) in timeline.spans().iter().enumerate() {
            for &p in deps.edges_of(i) {
                let pred = &timeline.spans()[p as usize];
                assert!((p as usize) < i, "edge {p} -> {i} must point backward");
                assert!(
                    pred.end <= span.start + 1e-12,
                    "span {i} starts at {} before dep {p} ends at {}",
                    span.start,
                    pred.end
                );
            }
            if let Some(work) = deps.work_of(i) {
                assert!(
                    work <= span.end - span.start + 1e-12,
                    "span {i}: local work {work} exceeds duration"
                );
            }
        }
        // The chunked executor issues dispatch/combine/grad-sync
        // collectives; each group is a contiguous run holding its
        // bottleneck, and members share the group's end time.
        assert!(!deps.groups().is_empty(), "collectives were recorded");
        for g in deps.groups() {
            assert!(g.len >= 1);
            assert!(g.contains(g.bottleneck_span()));
            let end = timeline.spans()[g.first as usize].end;
            for m in g.first..g.first + g.len {
                assert_eq!(deps.group_of(m as usize).map(|h| h.first), Some(g.first));
                assert!((timeline.spans()[m as usize].end - end).abs() < 1e-12);
            }
        }
    }
}
