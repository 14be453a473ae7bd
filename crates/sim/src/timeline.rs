//! Span recording and time breakdowns (Figs. 1b and 10a of the paper).

use laer_cluster::DeviceId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::engine::StreamKind;

/// Category of a recorded span, matching the paper's breakdown buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SpanLabel {
    /// Token-dispatch / combine All-to-All communication.
    AllToAll,
    /// Expert MLP forward or backward computation.
    ExpertCompute,
    /// Attention (and other non-expert) computation.
    Attention,
    /// Expert-parameter prefetch communication (FSEP unshard / FSDP
    /// all-gather).
    Prefetch,
    /// Gradient reshard / synchronisation communication.
    GradSync,
    /// Tensor-parallel communication (Megatron attention).
    TensorParallel,
    /// Online expert re-layout traffic: moving expert weights between
    /// devices when a new layout is applied mid-serving (the charged —
    /// not assumed-free — relocation cost of the serving extension).
    Relayout,
    /// Memory rearrangement and other host-side work around the A2A.
    Other,
    /// An injected fault window (straggler, link degradation, device
    /// failure) — an annotation span, not accounted work, so it lives
    /// outside every breakdown bucket.
    Fault,
    /// A resilience episode: the window from failure detection until
    /// serving resumed on the re-laid-out survivors (or rejoined
    /// devices). Like [`SpanLabel::Fault`], an annotation span outside
    /// every breakdown bucket.
    Recovery,
}

impl SpanLabel {
    /// Whether this label counts into the paper's "All-to-All" breakdown
    /// bucket (Fig. 10a highlights dispatch/combine A2A only).
    pub fn is_a2a_bucket(self) -> bool {
        matches!(self, SpanLabel::AllToAll)
    }

    /// The paper's "Others" bucket: attention, TP and memory ops.
    pub fn is_others_bucket(self) -> bool {
        matches!(
            self,
            SpanLabel::Attention | SpanLabel::TensorParallel | SpanLabel::Other
        )
    }

    /// Whether this label is an overlay annotation (fault or recovery
    /// window) rather than accounted work. Annotation spans are
    /// excluded from makespans, occupancy and breakdown buckets.
    pub fn is_annotation(self) -> bool {
        matches!(self, SpanLabel::Fault | SpanLabel::Recovery)
    }
}

impl fmt::Display for SpanLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpanLabel::AllToAll => "all-to-all",
            SpanLabel::ExpertCompute => "expert-compute",
            SpanLabel::Attention => "attention",
            SpanLabel::Prefetch => "prefetch",
            SpanLabel::GradSync => "grad-sync",
            SpanLabel::TensorParallel => "tensor-parallel",
            SpanLabel::Relayout => "relayout",
            SpanLabel::Other => "other",
            SpanLabel::Fault => "fault",
            SpanLabel::Recovery => "recovery",
        };
        f.write_str(s)
    }
}

/// One completed interval of work on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Device the span ran on.
    pub device: DeviceId,
    /// Stream within the device.
    pub stream: StreamKind,
    /// Breakdown category.
    pub label: SpanLabel,
    /// Start time, seconds of virtual time.
    pub start: f64,
    /// End time, seconds of virtual time.
    pub end: f64,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One synchronising collective recorded by the dependency log: `len`
/// consecutive spans starting at `first`, all ending at the group's
/// global completion time. `bottleneck` is the position (within the
/// group) of the participant whose `ready + work` set that completion —
/// the deterministic tie-break is the lowest position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectiveGroup {
    /// Index of the group's first span in the timeline.
    pub first: u32,
    /// Number of participant spans (consecutive from `first`).
    pub len: u32,
    /// Position within the group of the participant that finished last.
    pub bottleneck: u32,
}

impl CollectiveGroup {
    /// Timeline index of the bottleneck participant's span.
    pub fn bottleneck_span(&self) -> usize {
        (self.first + self.bottleneck) as usize
    }

    /// Whether `span` (a timeline index) belongs to this group.
    pub fn contains(&self, span: usize) -> bool {
        (self.first as usize..(self.first + self.len) as usize).contains(&span)
    }
}

/// The span dependency DAG recorded by an engine running with
/// [`crate::EngineOptions::record_deps`]. Empty (and skipped by serde)
/// when recording was off, so timelines serialized before the flag
/// existed — and runs with the flag off — keep their exact bytes.
///
/// For span `i`, `edges_of(i)` lists the finish-to-start predecessors
/// the engine waited on: the explicit dependency handles plus the
/// stream-frontier predecessor (the previous span on the same
/// `(device, stream)` queue, or the global-latest span after a
/// barrier). Edges always reference lower span indices. `work_of(i)` is
/// the span's *local* work in seconds — for collective participants
/// this excludes the synchronisation wait that the span's recorded
/// duration includes, which is what lets a what-if pass replay the DAG
/// with rescaled work without re-simulating.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DepLog {
    edges: Vec<Vec<u32>>,
    work: Vec<f64>,
    groups: Vec<CollectiveGroup>,
}

impl DepLog {
    /// Whether nothing was recorded (the `record_deps = false` state).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty() && self.groups.is_empty()
    }

    /// Number of spans covered by the log. Spans appended directly to
    /// the timeline (fault/recovery annotations) may trail beyond this.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Finish-to-start predecessors of span `i` (sorted, deduplicated),
    /// or empty for spans outside the recorded range.
    pub fn edges_of(&self, i: usize) -> &[u32] {
        self.edges.get(i).map_or(&[], Vec::as_slice)
    }

    /// Local work seconds of span `i`, if recorded.
    pub fn work_of(&self, i: usize) -> Option<f64> {
        self.work.get(i).copied()
    }

    /// All recorded collective groups, ordered by first span index.
    pub fn groups(&self) -> &[CollectiveGroup] {
        &self.groups
    }

    /// The collective group containing span `i`, if any. Groups cover
    /// disjoint consecutive ranges, so a binary search over their first
    /// indices resolves membership.
    pub fn group_of(&self, i: usize) -> Option<&CollectiveGroup> {
        let pos = self.groups.partition_point(|g| g.first as usize <= i);
        let g = &self.groups[pos.checked_sub(1)?];
        g.contains(i).then_some(g)
    }

    pub(crate) fn record(&mut self, edges: Vec<u32>, work: f64) {
        self.edges.push(edges);
        self.work.push(work);
    }

    pub(crate) fn record_group(&mut self, group: CollectiveGroup) {
        self.groups.push(group);
    }

    fn clear(&mut self) {
        self.edges.clear();
        self.work.clear();
        self.groups.clear();
    }
}

/// A recording of every span executed by an [`crate::Engine`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Timeline {
    spans: Vec<Span>,
    /// Dependency DAG, recorded only under
    /// [`crate::EngineOptions::record_deps`]; empty otherwise and then
    /// skipped by serde, keeping pre-existing serializations
    /// byte-identical.
    #[serde(default, skip_serializing_if = "DepLog::is_empty")]
    deps: DepLog,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty timeline with storage for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            spans: Vec::with_capacity(capacity),
            deps: DepLog::default(),
        }
    }

    /// Reserves capacity for at least `additional` more spans.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    /// Appends a span.
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// All recorded spans, in enqueue order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Latest end time across all spans (the makespan), or 0 if empty.
    /// Annotation spans (fault and recovery windows) are excluded — a
    /// fault window outlasting the last real span must not inflate the
    /// iteration time.
    pub fn makespan(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.label.is_annotation())
            .map(|s| s.end)
            .fold(0.0, f64::max)
    }

    /// Total busy seconds per label, summed over devices.
    pub fn busy_by_label(&self) -> BTreeMap<SpanLabel, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.label).or_insert(0.0) += s.duration();
        }
        out
    }

    /// Busy seconds of one device's compute-critical path labels.
    pub fn device_busy(&self, device: DeviceId, label: SpanLabel) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.device == device && s.label == label)
            .map(Span::duration)
            .sum()
    }

    /// Computes the paper-style breakdown averaged across `n` devices.
    ///
    /// The A2A bucket contains dispatch/combine communication; expert
    /// compute is its own bucket; everything else (attention, TP, memory
    /// ops) lands in "others", exactly as in Fig. 10a. Exposed-on-critical-
    /// path time is approximated by per-label busy time averaged over
    /// devices — for the synchronising collectives the engine already
    /// charges wait time into the A2A spans, so averages reflect tail
    /// latency.
    pub fn breakdown(&self, n_devices: usize) -> Breakdown {
        assert!(n_devices > 0, "device count must be non-zero");
        let by = self.busy_by_label();
        let get = |l: SpanLabel| by.get(&l).copied().unwrap_or(0.0) / n_devices as f64;
        Breakdown {
            a2a: get(SpanLabel::AllToAll),
            expert_compute: get(SpanLabel::ExpertCompute),
            others: get(SpanLabel::Attention)
                + get(SpanLabel::TensorParallel)
                + get(SpanLabel::Other),
            // Relocation is parameter movement, so it is accounted with
            // the prefetch bucket (training never emits it).
            exposed_prefetch: get(SpanLabel::Prefetch) + get(SpanLabel::Relayout),
            exposed_grad_sync: get(SpanLabel::GradSync),
        }
    }

    /// Spans of one `(device, stream)` queue, in enqueue order — which
    /// is execution order, since each stream runs its spans FIFO. Used
    /// by per-chunk overlap attribution: the chunked scheduler emits
    /// every layer's A2A spans as consecutive blocks of `num_chunks`, so
    /// position within this sequence identifies the chunk.
    pub fn device_stream_spans(
        &self,
        device: DeviceId,
        stream: StreamKind,
    ) -> impl Iterator<Item = &Span> {
        self.spans
            .iter()
            .filter(move |s| s.device == device && s.stream == stream)
    }

    /// Busy fraction of one device stream over the makespan — how much
    /// of the iteration the stream spent executing (vs idle/waiting).
    /// Returns 0 for an empty timeline.
    ///
    /// Note that collective spans include wait time (the engine charges
    /// the global completion to every participant), so A2A-stream
    /// utilisation reads as *occupancy*, which is exactly what makes
    /// imbalance visible here.
    pub fn stream_utilization(&self, device: DeviceId, stream: StreamKind) -> f64 {
        let makespan = self.makespan();
        if makespan == 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .spans
            .iter()
            .filter(|s| s.device == device && s.stream == stream && !s.label.is_annotation())
            .map(Span::duration)
            .sum();
        busy / makespan
    }

    /// Every device stream's [utilisation](Self::stream_utilization) in
    /// one pass over the spans: entry `d` holds device `d`'s for each
    /// stream in [`StreamKind::ALL`] order, bit for bit — busy seconds
    /// add up in span order from `Iterator::sum`'s neutral `-0.0`, as
    /// that method's sum does. Spans of devices `>= devices` are
    /// skipped.
    pub fn stream_utilizations(&self, devices: usize) -> Vec<[f64; StreamKind::COUNT]> {
        let mut busy = vec![[-0.0f64; StreamKind::COUNT]; devices];
        let mut makespan = 0.0f64;
        for s in self.spans.iter().filter(|s| !s.label.is_annotation()) {
            makespan = makespan.max(s.end);
            if let Some(row) = busy.get_mut(s.device.index()) {
                row[s.stream.index()] += s.duration();
            }
        }
        if makespan == 0.0 {
            return vec![[0.0; StreamKind::COUNT]; devices];
        }
        for row in &mut busy {
            for b in row.iter_mut() {
                *b /= makespan;
            }
        }
        busy
    }

    /// The recorded dependency DAG, or `None` when the engine ran
    /// without [`crate::EngineOptions::record_deps`].
    pub fn dep_log(&self) -> Option<&DepLog> {
        (!self.deps.is_empty()).then_some(&self.deps)
    }

    /// Mutable dependency log, for the recording engine.
    pub(crate) fn deps_mut(&mut self) -> &mut DepLog {
        &mut self.deps
    }

    /// Extends the dependency log with no-edge entries up to the current
    /// span count, so spans appended directly (annotations) keep the
    /// log's index alignment with `spans`.
    pub(crate) fn pad_deps(&mut self) {
        while self.deps.len() < self.spans.len() {
            let work = self.spans[self.deps.len()].duration();
            self.deps.record(Vec::new(), work);
        }
    }

    /// Removes all spans (and any recorded dependency edges), keeping
    /// the allocations.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.deps.clear();
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the timeline holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Average per-device time breakdown of one iteration (the bars of
/// Figs. 1b / 10a).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// Dispatch + combine All-to-All seconds (includes imbalance waits).
    pub a2a: f64,
    /// Expert MLP computation seconds.
    pub expert_compute: f64,
    /// Attention, tensor-parallel and memory-operation seconds.
    pub others: f64,
    /// Parameter prefetch seconds *not* hidden by compute.
    pub exposed_prefetch: f64,
    /// Gradient synchronisation seconds *not* hidden by compute.
    pub exposed_grad_sync: f64,
}

impl Breakdown {
    /// Total accounted seconds.
    pub fn total(&self) -> f64 {
        self.a2a
            + self.expert_compute
            + self.others
            + self.exposed_prefetch
            + self.exposed_grad_sync
    }

    /// Fraction of the total spent in the All-to-All bucket (the headline
    /// quantity of Fig. 1b: <10 % balanced, >40 % imbalanced).
    pub fn a2a_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.a2a / t
        }
    }

    /// Element-wise sum, for averaging over iterations.
    pub fn accumulate(&mut self, other: &Breakdown) {
        self.a2a += other.a2a;
        self.expert_compute += other.expert_compute;
        self.others += other.others;
        self.exposed_prefetch += other.exposed_prefetch;
        self.exposed_grad_sync += other.exposed_grad_sync;
    }

    /// Element-wise division by a count, for averaging over iterations.
    pub fn scale(&self, inv: f64) -> Breakdown {
        Breakdown {
            a2a: self.a2a * inv,
            expert_compute: self.expert_compute * inv,
            others: self.others * inv,
            exposed_prefetch: self.exposed_prefetch * inv,
            exposed_grad_sync: self.exposed_grad_sync * inv,
        }
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "a2a {:.3}ms ({:.1}%), expert {:.3}ms, others {:.3}ms",
            self.a2a * 1e3,
            self.a2a_fraction() * 100.0,
            self.expert_compute * 1e3,
            self.others * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: SpanLabel, start: f64, end: f64) -> Span {
        Span {
            device: DeviceId::new(0),
            stream: StreamKind::Compute,
            label,
            start,
            end,
        }
    }

    #[test]
    fn makespan_tracks_latest_end() {
        let mut t = Timeline::new();
        assert_eq!(t.makespan(), 0.0);
        t.push(span(SpanLabel::Attention, 0.0, 1.0));
        t.push(span(SpanLabel::AllToAll, 0.5, 3.0));
        assert_eq!(t.makespan(), 3.0);
    }

    #[test]
    fn breakdown_buckets() {
        let mut t = Timeline::new();
        t.push(span(SpanLabel::AllToAll, 0.0, 2.0));
        t.push(span(SpanLabel::ExpertCompute, 2.0, 5.0));
        t.push(span(SpanLabel::Attention, 5.0, 6.0));
        t.push(span(SpanLabel::TensorParallel, 6.0, 7.0));
        t.push(span(SpanLabel::Other, 7.0, 8.0));
        let b = t.breakdown(1);
        assert_eq!(b.a2a, 2.0);
        assert_eq!(b.expert_compute, 3.0);
        assert_eq!(b.others, 3.0);
        assert!((b.a2a_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn breakdown_averages_over_devices() {
        let mut t = Timeline::new();
        t.push(span(SpanLabel::AllToAll, 0.0, 2.0));
        let b = t.breakdown(2);
        assert_eq!(b.a2a, 1.0);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut acc = Breakdown::default();
        let one = Breakdown {
            a2a: 1.0,
            expert_compute: 2.0,
            others: 3.0,
            exposed_prefetch: 0.5,
            exposed_grad_sync: 0.25,
        };
        acc.accumulate(&one);
        acc.accumulate(&one);
        let avg = acc.scale(0.5);
        assert_eq!(avg, one);
        assert!((one.total() - 6.75).abs() < 1e-12);
    }

    #[test]
    fn label_bucket_predicates() {
        assert!(SpanLabel::AllToAll.is_a2a_bucket());
        assert!(!SpanLabel::Prefetch.is_a2a_bucket());
        assert!(SpanLabel::Other.is_others_bucket());
        assert!(!SpanLabel::ExpertCompute.is_others_bucket());
        assert!(!SpanLabel::Relayout.is_a2a_bucket());
        assert!(!SpanLabel::Relayout.is_others_bucket());
    }

    #[test]
    fn relayout_counts_as_exposed_prefetch() {
        let mut t = Timeline::new();
        t.push(span(SpanLabel::Prefetch, 0.0, 1.0));
        t.push(span(SpanLabel::Relayout, 1.0, 3.0));
        let b = t.breakdown(1);
        assert_eq!(b.exposed_prefetch, 3.0);
        assert_eq!(SpanLabel::Relayout.to_string(), "relayout");
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        assert_eq!(Breakdown::default().a2a_fraction(), 0.0);
    }

    #[test]
    fn stream_utilization_fractions() {
        let mut t = Timeline::new();
        t.push(span(SpanLabel::ExpertCompute, 0.0, 2.0));
        t.push(Span {
            device: DeviceId::new(0),
            stream: StreamKind::Prefetch,
            label: SpanLabel::Prefetch,
            start: 0.0,
            end: 1.0,
        });
        t.push(span(SpanLabel::Attention, 2.0, 4.0));
        // Compute stream busy 4.0 of 4.0; prefetch 1.0 of 4.0.
        assert_eq!(
            t.stream_utilization(DeviceId::new(0), StreamKind::Compute),
            1.0
        );
        assert_eq!(
            t.stream_utilization(DeviceId::new(0), StreamKind::Prefetch),
            0.25
        );
        assert_eq!(
            t.stream_utilization(DeviceId::new(1), StreamKind::Compute),
            0.0
        );
        assert_eq!(
            Timeline::new().stream_utilization(DeviceId::new(0), StreamKind::A2a),
            0.0
        );
    }

    #[test]
    fn device_stream_spans_preserves_enqueue_order() {
        let mut t = Timeline::new();
        t.push(span(SpanLabel::ExpertCompute, 0.0, 1.0));
        t.push(Span {
            device: DeviceId::new(0),
            stream: StreamKind::A2a,
            label: SpanLabel::AllToAll,
            start: 1.0,
            end: 2.0,
        });
        t.push(Span {
            device: DeviceId::new(1),
            stream: StreamKind::A2a,
            label: SpanLabel::AllToAll,
            start: 0.0,
            end: 0.5,
        });
        t.push(Span {
            device: DeviceId::new(0),
            stream: StreamKind::A2a,
            label: SpanLabel::AllToAll,
            start: 2.0,
            end: 2.5,
        });
        let a2a: Vec<f64> = t
            .device_stream_spans(DeviceId::new(0), StreamKind::A2a)
            .map(|s| s.start)
            .collect();
        assert_eq!(a2a, vec![1.0, 2.0]);
        assert_eq!(
            t.device_stream_spans(DeviceId::new(1), StreamKind::Compute)
                .count(),
            0
        );
    }

    #[test]
    fn device_busy_filters() {
        let mut t = Timeline::new();
        t.push(span(SpanLabel::ExpertCompute, 0.0, 1.0));
        t.push(Span {
            device: DeviceId::new(1),
            stream: StreamKind::Compute,
            label: SpanLabel::ExpertCompute,
            start: 0.0,
            end: 4.0,
        });
        assert_eq!(
            t.device_busy(DeviceId::new(0), SpanLabel::ExpertCompute),
            1.0
        );
        assert_eq!(
            t.device_busy(DeviceId::new(1), SpanLabel::ExpertCompute),
            4.0
        );
    }
}
