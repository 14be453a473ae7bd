//! The structured JSONL event journal.
//!
//! A [`Journal`] is an ordered list of typed events; each event
//! serialises as one compact JSON object per line with a `type` field,
//! so the file is greppable and trivially parsed back. All timestamps
//! are virtual (simulator) seconds — never wall-clock — so the journal
//! of a seeded run is byte-identical across re-runs.

use laer_sim::{SpanLabel, StreamKind, Timeline};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};

use crate::registry::Histogram;

/// Busy fraction of every stream of one device over the iteration
/// makespan (S1–S4 in Fig. 5's labelling).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamUtilization {
    /// Device index.
    pub device: usize,
    /// S1 compute busy fraction.
    pub s1_compute: f64,
    /// S2 prefetch busy fraction.
    pub s2_prefetch: f64,
    /// S3 All-to-All busy fraction.
    pub s3_a2a: f64,
    /// S4 gradient-sync busy fraction.
    pub s4_grad_sync: f64,
}

/// Exposed-vs-overlapped seconds of one span-label bucket, summed over
/// devices: `overlapped` is the part of the bucket's busy time during
/// which the same device's compute stream (S1) was also busy —
/// communication the schedule successfully hid; `exposed` is the rest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommOverlap {
    /// Span label (the Fig. 10a breakdown bucket), display form.
    pub label: String,
    /// Seconds hidden under compute.
    pub overlapped: f64,
    /// Seconds not hidden under compute.
    pub exposed: f64,
}

/// Exposed-vs-overlapped seconds of the token A2A stream for one
/// pipeline chunk, summed over devices — the per-chunk columns proving
/// (or disproving) that the chunked dispatch/combine pipeline actually
/// hid communication under compute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkOverlap {
    /// Chunk index within the pipeline (`0 .. num_chunks`).
    pub chunk: usize,
    /// A2A seconds hidden under the same device's compute stream.
    pub overlapped: f64,
    /// A2A seconds not hidden under compute.
    pub exposed: f64,
}

/// One training iteration's telemetry record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// System under test.
    pub system: String,
    /// Global iteration index.
    pub iteration: u64,
    /// Simulated end-to-end step seconds.
    pub step_time: f64,
    /// Routing imbalance index: mean over layers of max-device-load /
    /// ideal-load (Fig. 10b's metric).
    pub imbalance: f64,
    /// Pipeline chunk count the executor scheduled with (1 =
    /// whole-iteration schedule).
    pub num_chunks: usize,
    /// Per-device stream busy fractions.
    pub streams: Vec<StreamUtilization>,
    /// Exposed-vs-overlapped seconds per span label.
    pub comm: Vec<CommOverlap>,
    /// Exposed-vs-overlapped A2A seconds per pipeline chunk. The
    /// executor emits each layer's A2A spans as consecutive blocks of
    /// `num_chunks` per device stream, so position modulo `num_chunks`
    /// identifies the chunk.
    pub a2a_chunks: Vec<ChunkOverlap>,
}

/// A compact, serialisable snapshot of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (last is `+Inf`).
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: f64,
    /// Observation count.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Snapshots a histogram.
    pub fn of(h: &Histogram) -> Self {
        Self {
            bounds: h.bounds().to_vec(),
            counts: h.counts().to_vec(),
            sum: h.sum(),
            count: h.count(),
        }
    }
}

/// One serving run's telemetry record: queue depth and latency
/// distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingRecord {
    /// Serving system identifier.
    pub system: String,
    /// Scheduler steps executed.
    pub steps: u64,
    /// Admission-queue depth distribution, sampled once per step.
    pub queue_depth: HistogramSnapshot,
    /// Time-to-first-token distribution (seconds).
    pub ttft: HistogramSnapshot,
    /// Time-per-output-token distribution (seconds).
    pub tpot: HistogramSnapshot,
}

/// One faulted serving run's resilience telemetry: failure, retry and
/// shed accounting plus every recovery episode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilienceRecord {
    /// Serving system identifier.
    pub system: String,
    /// Device failures detected.
    pub failures: u64,
    /// Failed devices that rejoined after their fault window closed.
    pub rejoins: u64,
    /// In-flight requests interrupted by failures.
    pub interrupted: u64,
    /// Retry re-enqueues after interruptions.
    pub retries: u64,
    /// Arrivals shed because the admission queue was full.
    pub shed_queue_full: u64,
    /// Arrivals shed by the SLO-aware brownout.
    pub shed_brownout: u64,
    /// Requests shed after exhausting their retry cap.
    pub shed_retry_exhausted: u64,
    /// Requests left unserved at the step cap.
    pub shed_unserved: u64,
    /// Recovery episodes as `(kind, detected, resumed)` triples.
    pub recoveries: Vec<(String, f64, f64)>,
}

/// One scheduler step of a faulted serving run: the queue depth and
/// live-device count at step start.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStepRecord {
    /// Serving system identifier.
    pub system: String,
    /// Step index.
    pub step: u64,
    /// Virtual time at step start.
    pub time: f64,
    /// Admission-queue depth at step start.
    pub queue_depth: u64,
    /// Devices serving this step.
    pub live_devices: u64,
}

/// One epoch of an RL post-training run: the rollout phase records
/// routing traces, the train phase replays them with the configured
/// predictor, and this record joins the epoch's headline outcomes so
/// foresight-vs-EMA error is visible per predictor mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RlEpochRecord {
    /// System identifier (mode-qualified, e.g. `laer-moe[replay]`).
    pub system: String,
    /// Predictor mode of the train phase (`ema` or `replay`).
    pub mode: String,
    /// Epoch index.
    pub epoch: u64,
    /// Rollouts recorded (= train iterations replayed) this epoch.
    pub rollouts: u64,
    /// Rollout→train demand-drift fraction applied this epoch.
    pub drift: f64,
    /// Average train-phase step time, seconds.
    pub avg_step_time: f64,
    /// Mean |predicted-actual|/actual over the epoch's plan decisions.
    pub audit_mean_abs_rel_error: f64,
    /// Expert-weight relocations executed across the epoch's layouts.
    pub relocation_moves: u64,
}

/// The journal: an ordered list of serialised events.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    events: Vec<serde::Value>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `record` as an event of type `kind` (the `type` field is
    /// prepended to the record's own fields).
    ///
    /// # Panics
    ///
    /// Panics if `record` does not serialise to a JSON object.
    pub fn push<T: Serialize>(&mut self, kind: &str, record: &T) {
        let serde::Value::Object(mut fields) = record.serialize_value() else {
            panic!("journal events must serialise to objects");
        };
        fields.insert(0, ("type".to_string(), serde::Value::Str(kind.to_string())));
        self.events.push(serde::Value::Object(fields));
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw events.
    pub fn events(&self) -> &[serde::Value] {
        &self.events
    }

    /// Writes the journal as JSONL: one compact JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_jsonl<W: Write>(&self, mut out: W) -> io::Result<()> {
        for event in &self.events {
            let line = serde_json::to_string(event)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Renders the journal to a JSONL string.
    pub fn to_jsonl(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)
            .unwrap_or_else(|_| unreachable!("Vec<u8> writes cannot fail"));
        String::from_utf8(buf).unwrap_or_else(|_| unreachable!("serde_json emits UTF-8"))
    }
}

/// Merges a span list into disjoint busy intervals (input intervals may
/// overlap arbitrarily; output is sorted and non-overlapping).
fn merge_intervals(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        if e <= s {
            continue;
        }
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of the intersection of `(s, e)` with the merged interval set.
///
/// The set is sorted and disjoint, so a binary search finds the first
/// interval that can intersect and the walk stops at the first one past
/// `e` — O(log n + k) for k overlapped intervals, instead of the full
/// linear scan this used to be (O(spans × intervals) per device across
/// an iteration record).
fn overlap_with(busy: &[(f64, f64)], s: f64, e: f64) -> f64 {
    let first = busy.partition_point(|&(_, be)| be <= s);
    busy[first..]
        .iter()
        .take_while(|&&(bs, _)| bs < e)
        .map(|&(bs, be)| be.min(e) - bs.max(s))
        .sum()
}

/// Computes an [`IterationRecord`] from one iteration's span timeline.
///
/// * `streams` — per-device busy fraction of each stream over the
///   makespan (fault annotation spans excluded, matching
///   [`Timeline::stream_utilization`]);
/// * `comm` — for every non-compute-stream span label, the split of its
///   busy seconds into overlapped-with-S1 and exposed, summed across
///   devices and sorted by label for determinism;
/// * `a2a_chunks` — the same split for the S3 token A2A stream broken
///   out per pipeline chunk: the scheduler emits each layer's A2A spans
///   as consecutive blocks of `num_chunks` per device stream (dispatch
///   chunks, then combine chunks), so the `i`-th A2A span of a device
///   belongs to chunk `i % num_chunks`.
pub fn iteration_record(
    system: &str,
    iteration: u64,
    step_time: f64,
    imbalance: f64,
    timeline: &Timeline,
    n_devices: usize,
    num_chunks: usize,
) -> IterationRecord {
    let num_chunks = num_chunks.max(1);
    let streams = timeline
        .stream_utilizations(n_devices)
        .into_iter()
        .enumerate()
        .map(|(device, u)| StreamUtilization {
            device,
            s1_compute: u[StreamKind::Compute.index()],
            s2_prefetch: u[StreamKind::Prefetch.index()],
            s3_a2a: u[StreamKind::A2a.index()],
            s4_grad_sync: u[StreamKind::GradSync.index()],
        })
        .collect();

    // Per-device compute busy intervals, then exposed/overlapped split
    // of every non-compute span against its own device's compute.
    let real = || timeline.spans().iter().filter(|s| !s.label.is_annotation());
    let devices = real().map(|s| s.device.index() + 1).max().unwrap_or(0);
    let mut compute: Vec<Vec<(f64, f64)>> = vec![Vec::new(); devices];
    for s in real().filter(|s| s.stream == StreamKind::Compute) {
        compute[s.device.index()].push((s.start, s.end));
    }
    let compute: Vec<Vec<(f64, f64)>> = compute.into_iter().map(merge_intervals).collect();
    // Each device's A2A-stream spans keep their stream order, for the
    // per-chunk split below.
    let mut a2a: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_devices];
    let mut comm: BTreeMap<SpanLabel, (f64, f64)> = BTreeMap::new();
    for s in real().filter(|s| s.stream != StreamKind::Compute) {
        let overlapped = overlap_with(&compute[s.device.index()], s.start, s.end);
        let exposed = s.duration() - overlapped;
        let entry = comm.entry(s.label).or_insert((0.0, 0.0));
        entry.0 += overlapped;
        entry.1 += exposed;
        if s.stream == StreamKind::A2a {
            if let Some(spans) = a2a.get_mut(s.device.index()) {
                spans.push((overlapped, exposed));
            }
        }
    }
    // Per-chunk attribution of the S3 A2A stream: walk each device's
    // A2A spans in stream (enqueue) order and fold position mod
    // `num_chunks` — valid because the scheduler emits whole blocks of
    // `num_chunks` A2A spans per device per phase.
    let mut chunk_acc: Vec<(f64, f64)> = vec![(0.0, 0.0); num_chunks];
    for spans in &a2a {
        for (i, &(overlapped, exposed)) in spans.iter().enumerate() {
            let slot = &mut chunk_acc[i % num_chunks];
            slot.0 += overlapped;
            slot.1 += exposed;
        }
    }
    // The record lists labels by name.
    let mut comm: Vec<CommOverlap> = comm
        .into_iter()
        .map(|(label, (overlapped, exposed))| CommOverlap {
            label: label.to_string(),
            overlapped,
            exposed,
        })
        .collect();
    comm.sort_by(|a, b| a.label.cmp(&b.label));
    IterationRecord {
        system: system.to_string(),
        iteration,
        step_time,
        imbalance,
        num_chunks,
        streams,
        a2a_chunks: chunk_acc
            .into_iter()
            .enumerate()
            .map(|(chunk, (overlapped, exposed))| ChunkOverlap {
                chunk,
                overlapped,
                exposed,
            })
            .collect(),
        comm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laer_cluster::DeviceId;
    use laer_sim::Span;

    fn span(device: usize, stream: StreamKind, label: SpanLabel, start: f64, end: f64) -> Span {
        Span {
            device: DeviceId::new(device),
            stream,
            label,
            start,
            end,
        }
    }

    #[test]
    fn interval_merge_handles_overlap_and_order() {
        let merged = merge_intervals(vec![(3.0, 4.0), (0.0, 1.0), (0.5, 2.0), (2.0, 3.0)]);
        assert_eq!(merged, vec![(0.0, 4.0)]);
        assert_eq!(overlap_with(&merged, 1.0, 5.0), 3.0);
        assert_eq!(overlap_with(&merged, 4.0, 5.0), 0.0);
    }

    #[test]
    fn exposed_vs_overlapped_split() {
        let mut t = Timeline::new();
        // Compute busy [0, 2]; a 4-second prefetch [1, 5] overlaps 1s.
        t.push(span(
            0,
            StreamKind::Compute,
            SpanLabel::ExpertCompute,
            0.0,
            2.0,
        ));
        t.push(span(0, StreamKind::Prefetch, SpanLabel::Prefetch, 1.0, 5.0));
        let rec = iteration_record("laer-moe", 3, 5.0, 1.2, &t, 1, 1);
        assert_eq!(rec.comm.len(), 1);
        let c = &rec.comm[0];
        assert_eq!(c.label, "prefetch");
        assert!((c.overlapped - 1.0).abs() < 1e-12);
        assert!((c.exposed - 3.0).abs() < 1e-12);
        assert_eq!(rec.streams.len(), 1);
        assert!((rec.streams[0].s1_compute - 0.4).abs() < 1e-12);
        assert!((rec.streams[0].s2_prefetch - 0.8).abs() < 1e-12);
    }

    #[test]
    fn a2a_against_other_device_compute_is_exposed() {
        let mut t = Timeline::new();
        t.push(span(0, StreamKind::Compute, SpanLabel::Attention, 0.0, 4.0));
        // Device 1's A2A has no local compute to hide under.
        t.push(span(1, StreamKind::A2a, SpanLabel::AllToAll, 0.0, 2.0));
        let rec = iteration_record("x", 0, 4.0, 1.0, &t, 2, 1);
        let c = &rec.comm[0];
        assert_eq!(c.label, "all-to-all");
        assert_eq!(c.overlapped, 0.0);
        assert_eq!(c.exposed, 2.0);
    }

    /// Per-chunk attribution: two A2A spans per device fold into chunks
    /// by stream position, each split against local compute.
    #[test]
    fn per_chunk_a2a_attribution() {
        let mut t = Timeline::new();
        // Device 0 compute busy [0, 3].
        t.push(span(
            0,
            StreamKind::Compute,
            SpanLabel::ExpertCompute,
            0.0,
            3.0,
        ));
        // Chunk 0 dispatch [0, 2]: fully overlapped.
        t.push(span(0, StreamKind::A2a, SpanLabel::AllToAll, 0.0, 2.0));
        // Chunk 1 dispatch [2, 5]: 1s overlapped, 2s exposed.
        t.push(span(0, StreamKind::A2a, SpanLabel::AllToAll, 2.0, 5.0));
        // A fault annotation on S3 must not shift chunk positions.
        t.push(span(0, StreamKind::A2a, SpanLabel::Fault, 0.0, 9.0));
        let rec = iteration_record("laer-moe", 0, 5.0, 1.0, &t, 1, 2);
        assert_eq!(rec.num_chunks, 2);
        assert_eq!(rec.a2a_chunks.len(), 2);
        assert!((rec.a2a_chunks[0].overlapped - 2.0).abs() < 1e-12);
        assert!((rec.a2a_chunks[0].exposed - 0.0).abs() < 1e-12);
        assert!((rec.a2a_chunks[1].overlapped - 1.0).abs() < 1e-12);
        assert!((rec.a2a_chunks[1].exposed - 2.0).abs() < 1e-12);
        // The per-chunk split sums to the label-level A2A split.
        let a2a = rec.comm.iter().find(|c| c.label == "all-to-all").unwrap();
        let (ov, ex) = rec
            .a2a_chunks
            .iter()
            .fold((0.0, 0.0), |(o, e), c| (o + c.overlapped, e + c.exposed));
        assert!((ov - a2a.overlapped).abs() < 1e-12);
        assert!((ex - a2a.exposed).abs() < 1e-12);
        // Unchunked records collapse to a single chunk column, and a
        // `0` chunk count clamps to 1.
        let whole = iteration_record("laer-moe", 0, 5.0, 1.0, &t, 1, 0);
        assert_eq!(whole.num_chunks, 1);
        assert_eq!(whole.a2a_chunks.len(), 1);
        assert!((whole.a2a_chunks[0].overlapped - ov).abs() < 1e-12);
    }

    /// The record as it was computed per device and per stream: four
    /// `stream_utilization` calls per device, labels keyed by their
    /// names, and each device's A2A spans re-scanned for the chunk split.
    fn per_device_record(t: &Timeline, n_devices: usize, num_chunks: usize) -> IterationRecord {
        let streams = (0..n_devices)
            .map(|d| {
                let dev = DeviceId::new(d);
                StreamUtilization {
                    device: d,
                    s1_compute: t.stream_utilization(dev, StreamKind::Compute),
                    s2_prefetch: t.stream_utilization(dev, StreamKind::Prefetch),
                    s3_a2a: t.stream_utilization(dev, StreamKind::A2a),
                    s4_grad_sync: t.stream_utilization(dev, StreamKind::GradSync),
                }
            })
            .collect();
        let mut compute: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for s in t.spans() {
            if s.stream == StreamKind::Compute && !s.label.is_annotation() {
                compute
                    .entry(s.device.index())
                    .or_default()
                    .push((s.start, s.end));
            }
        }
        let compute: BTreeMap<usize, Vec<(f64, f64)>> = compute
            .into_iter()
            .map(|(d, iv)| (d, merge_intervals(iv)))
            .collect();
        let empty = Vec::new();
        let mut comm: BTreeMap<String, (f64, f64)> = BTreeMap::new();
        for s in t.spans() {
            if s.stream == StreamKind::Compute || s.label.is_annotation() {
                continue;
            }
            let overlapped = overlap_with(
                compute.get(&s.device.index()).unwrap_or(&empty),
                s.start,
                s.end,
            );
            let entry = comm.entry(s.label.to_string()).or_insert((0.0, 0.0));
            entry.0 += overlapped;
            entry.1 += s.duration() - overlapped;
        }
        let mut chunks = vec![(0.0, 0.0); num_chunks];
        for d in 0..n_devices {
            let busy = compute.get(&d).unwrap_or(&empty);
            for (i, s) in t
                .device_stream_spans(DeviceId::new(d), StreamKind::A2a)
                .filter(|s| !s.label.is_annotation())
                .enumerate()
            {
                let overlapped = overlap_with(busy, s.start, s.end);
                chunks[i % num_chunks].0 += overlapped;
                chunks[i % num_chunks].1 += s.duration() - overlapped;
            }
        }
        IterationRecord {
            system: "x".into(),
            iteration: 0,
            step_time: 1.0,
            imbalance: 1.0,
            num_chunks,
            streams,
            a2a_chunks: chunks
                .into_iter()
                .enumerate()
                .map(|(chunk, (overlapped, exposed))| ChunkOverlap {
                    chunk,
                    overlapped,
                    exposed,
                })
                .collect(),
            comm: comm
                .into_iter()
                .map(|(label, (overlapped, exposed))| CommOverlap {
                    label,
                    overlapped,
                    exposed,
                })
                .collect(),
        }
    }

    /// The one-pass record equals the per-device computation bit for
    /// bit: three devices (one idle), two chunks, every stream, and
    /// fault and recovery annotations that outlast the real spans.
    #[test]
    fn one_pass_record_matches_per_device_calls() {
        let mut t = Timeline::new();
        let mut at = 0.1f64;
        for round in 0..3 {
            for d in 0..2 {
                let w = 0.3 + 0.07 * (round * 2 + d) as f64;
                t.push(span(
                    d,
                    StreamKind::Compute,
                    SpanLabel::Attention,
                    at,
                    at + w,
                ));
                t.push(span(
                    d,
                    StreamKind::A2a,
                    SpanLabel::AllToAll,
                    at + 0.1,
                    at + 0.4,
                ));
                t.push(span(
                    d,
                    StreamKind::A2a,
                    SpanLabel::AllToAll,
                    at + 0.4,
                    at + 0.9,
                ));
                t.push(span(
                    d,
                    StreamKind::Compute,
                    SpanLabel::ExpertCompute,
                    at + 0.5,
                    at + 1.1,
                ));
                t.push(span(
                    d,
                    StreamKind::Prefetch,
                    SpanLabel::Prefetch,
                    at,
                    at + 0.7 * w,
                ));
                t.push(span(
                    d,
                    StreamKind::GradSync,
                    SpanLabel::GradSync,
                    at + 0.9,
                    at + 1.3,
                ));
                t.push(span(
                    d,
                    StreamKind::A2a,
                    SpanLabel::Relayout,
                    at + 1.0,
                    at + 1.2,
                ));
            }
            at += 1.37;
        }
        t.push(span(1, StreamKind::A2a, SpanLabel::Fault, 0.0, 9.0));
        t.push(span(0, StreamKind::Compute, SpanLabel::Recovery, 2.0, 11.0));
        let got = iteration_record("x", 0, 1.0, 1.0, &t, 3, 2);
        let want = per_device_record(&t, 3, 2);
        let bits = |r: &IterationRecord| {
            let mut v: Vec<u64> = Vec::new();
            for u in &r.streams {
                v.extend([u.s1_compute, u.s2_prefetch, u.s3_a2a, u.s4_grad_sync].map(f64::to_bits));
            }
            for c in &r.a2a_chunks {
                v.extend([c.overlapped.to_bits(), c.exposed.to_bits()]);
            }
            for c in &r.comm {
                v.extend([c.overlapped.to_bits(), c.exposed.to_bits()]);
            }
            v
        };
        assert_eq!(bits(&got), bits(&want));
        let labels =
            |r: &IterationRecord| r.comm.iter().map(|c| c.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&got), labels(&want));
        assert_eq!(got.streams.len(), 3);
        assert!(
            got.streams[2].s1_compute.is_sign_negative(),
            "an idle stream reads -0.0"
        );
    }

    #[test]
    fn journal_jsonl_is_typed_and_deterministic() {
        let build = || {
            let mut j = Journal::new();
            j.push(
                "serving",
                &ServingRecord {
                    system: "laer".into(),
                    steps: 10,
                    queue_depth: HistogramSnapshot::of(&Histogram::linear(0.0, 4.0, 3)),
                    ttft: HistogramSnapshot::of(&Histogram::exponential(1e-3, 4.0, 4)),
                    tpot: HistogramSnapshot::of(&Histogram::exponential(1e-4, 4.0, 4)),
                },
            );
            let mut t = Timeline::new();
            t.push(span(0, StreamKind::Compute, SpanLabel::Attention, 0.0, 1.0));
            j.push(
                "iteration",
                &iteration_record("laer-moe", 0, 1.0, 1.0, &t, 1, 1),
            );
            j.to_jsonl()
        };
        let a = build();
        assert_eq!(a, build());
        assert_eq!(a.lines().count(), 2);
        let first = a.lines().next().unwrap();
        assert!(first.starts_with("{\"type\":\"serving\""));
        // Every line parses back as JSON.
        for line in a.lines() {
            serde_json::parse_value(line).unwrap();
        }
    }
}
