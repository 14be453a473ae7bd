//! Property-based tests for the discrete-event engine and collective
//! cost models.

// Test code may panic freely.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use laer_cluster::{DegradedView, DeviceId, Interconnect, Topology};
use laer_sim::{
    all_gather_time, all_to_all_time, reduce_scatter_time, Engine, SpanLabel, StreamKind,
};
use proptest::prelude::*;

/// The dense two-loop pricing `all_to_all_time` replaced, kept as its
/// oracle: sum the triples into an `N × N` unit matrix, then scan every
/// device pair in both directions.
fn dense_a2a_time<I: Interconnect>(
    net: &I,
    traffic: &[(DeviceId, DeviceId, u64)],
    unit_bytes: f64,
) -> Vec<f64> {
    let n = net.num_devices();
    let mut units = vec![0u64; n * n];
    for &(src, dst, u) in traffic {
        units[src.index() * n + dst.index()] += u;
    }
    let bytes = |i: usize, k: usize| {
        let u = units[i * n + k];
        if u > 0 && i != k {
            u as f64 * unit_bytes
        } else {
            0.0
        }
    };
    (0..n)
        .map(|i| {
            let dev = DeviceId::new(i);
            let (mut send, mut recv) = (0.0, 0.0);
            for k in (0..n).filter(|&k| k != i) {
                let peer = DeviceId::new(k);
                let tx = bytes(i, k);
                if tx > 0.0 {
                    send += net.latency(dev, peer) + tx / net.effective_bandwidth(dev, peer);
                }
                let rx = bytes(k, i);
                if rx > 0.0 {
                    recv += net.latency(dev, peer) + rx / net.effective_bandwidth(dev, peer);
                }
            }
            send.max(recv)
        })
        .collect()
}

/// Fails unless `all_to_all_time` returns the dense oracle's bits on
/// every device.
fn matches_dense<I: Interconnect>(
    net: &I,
    traffic: &[(DeviceId, DeviceId, u64)],
    unit_bytes: f64,
) -> Result<(), TestCaseError> {
    let bits = |times: Vec<f64>| times.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    prop_assert_eq!(
        bits(all_to_all_time(net, traffic.iter().copied(), unit_bytes)),
        bits(dense_a2a_time(net, traffic, unit_bytes))
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Spans on one stream never overlap and respect enqueue order, for
    /// any sequence of durations.
    #[test]
    fn stream_spans_are_serial(durations in proptest::collection::vec(0.0f64..10.0, 1..20)) {
        let topo = Topology::single_node(1).expect("non-empty");
        let mut engine = Engine::new(&topo);
        let d = DeviceId::new(0);
        let mut handles = Vec::new();
        for &dur in &durations {
            handles.push(engine.enqueue(d, StreamKind::Compute, SpanLabel::Other, dur, &[]));
        }
        for w in handles.windows(2) {
            let a = engine.span(w[0]);
            let b = engine.span(w[1]);
            prop_assert!(b.start >= a.end - 1e-12);
        }
        let total: f64 = durations.iter().sum();
        prop_assert!((engine.now() - total).abs() < 1e-9);
    }

    /// Dependencies always delay starts: a span never begins before any
    /// of its dependencies end.
    #[test]
    fn dependencies_are_respected(
        dur_a in 0.0f64..5.0,
        dur_b in 0.0f64..5.0,
        dur_c in 0.0f64..5.0,
    ) {
        let topo = Topology::single_node(2).expect("non-empty");
        let mut engine = Engine::new(&topo);
        let a = engine.enqueue(DeviceId::new(0), StreamKind::Compute, SpanLabel::Other, dur_a, &[]);
        let b = engine.enqueue(DeviceId::new(1), StreamKind::Compute, SpanLabel::Other, dur_b, &[]);
        let c = engine.enqueue(DeviceId::new(0), StreamKind::Prefetch, SpanLabel::Prefetch, dur_c, &[a, b]);
        let end_a = engine.span(a).end;
        let end_b = engine.span(b).end;
        prop_assert!(engine.span(c).start >= end_a.max(end_b) - 1e-12);
    }

    /// Collectives synchronise: all participants end simultaneously at
    /// or after each local finish time.
    #[test]
    fn collectives_synchronise(durations in proptest::collection::vec(0.0f64..10.0, 2..8)) {
        let n = durations.len();
        let topo = Topology::single_node(n).expect("non-empty");
        let mut engine = Engine::new(&topo);
        let devices: Vec<DeviceId> = topo.devices().collect();
        let deps = vec![Vec::new(); n];
        let handles = engine.enqueue_collective(
            &devices,
            StreamKind::A2a,
            SpanLabel::AllToAll,
            &durations,
            &deps,
        );
        let end = engine.span(handles[0]).end;
        let max_dur = durations.iter().copied().fold(0.0, f64::max);
        prop_assert!((end - max_dur).abs() < 1e-9);
        for &h in &handles {
            prop_assert_eq!(engine.span(h).end, end);
        }
    }

    /// All-to-All cost is monotone in traffic: adding units never makes
    /// any device finish sooner.
    #[test]
    fn a2a_cost_is_monotone(
        base in proptest::collection::vec((0usize..4, 0usize..4, 0u64..1000), 0..16),
        (src, dst, units) in (0usize..4, 0usize..4, 1u64..10_000),
        unit_bytes in 1.0f64..1e6,
    ) {
        let topo = Topology::new(2, 2).expect("2x2");
        let d = DeviceId::new;
        let mut traffic: Vec<_> = base.into_iter().map(|(i, k, u)| (d(i), d(k), u)).collect();
        let before = all_to_all_time(&topo, traffic.iter().copied(), unit_bytes);
        traffic.push((d(src), d(dst), units));
        let after = all_to_all_time(&topo, traffic.iter().copied(), unit_bytes);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(a + 1e-12 >= *b);
        }
    }

    /// The sparse All-to-All returns the dense scan's bits on every
    /// device, for any triples — duplicate pairs, self-pairs, zero units,
    /// any order — on a flat, a racked and a degraded network.
    #[test]
    fn sparse_a2a_matches_dense_reference(
        traffic in proptest::collection::vec(
            (0usize..8, 0usize..8, prop_oneof![Just(0u64), 1u64..50, 1u64..1_000_000]),
            0..=400,
        ),
        unit_bytes in prop_oneof![Just(0.0), Just(8192.0), 0.5f64..1e6],
        (a, b, factor, failed) in (0usize..8, 0usize..8, 0.05f64..1.0, 0usize..8),
    ) {
        let d = DeviceId::new;
        let traffic: Vec<_> = traffic.into_iter().map(|(i, k, u)| (d(i), d(k), u)).collect();
        let flat = Topology::new(2, 4).expect("2x4");
        let racked = Topology::with_racks(2, 2, 2, 25e9).expect("2 racks x 2 nodes x 2");
        let mut degraded = DegradedView::new(flat.clone());
        degraded.degrade_link(d(a), d(b), factor);
        degraded.fail_device(d(failed));
        matches_dense(&flat, &traffic, unit_bytes)?;
        matches_dense(&racked, &traffic, unit_bytes)?;
        matches_dense(&degraded, &traffic, unit_bytes)?;
    }

    /// Ring identities: all-gather of a shard equals reduce-scatter of
    /// the P-times-larger buffer.
    #[test]
    fn ring_identities(shard in 1.0f64..1e9, p in 2usize..8) {
        let topo = Topology::single_node(p).expect("non-empty");
        let group: Vec<DeviceId> = topo.devices().collect();
        let ag = all_gather_time(&topo, &group, shard).expect("group");
        let rs = reduce_scatter_time(&topo, &group, shard * p as f64).expect("group");
        prop_assert!((ag - rs).abs() < 1e-9 * ag.max(1e-9));
    }
}
