//! Observability must be a pure side channel: attaching any recorder to a
//! [`StreamingDpc`] engine must never change `(ρ, δ, µ, labels)` — they stay
//! bit-identical to the default no-op run — and the default recorder must
//! actually be the shared no-op (the zero-overhead path).
//!
//! The proptest replays a random insert/evict sequence on two engines fed
//! the identical operations — one untouched (no-op recorder), one with a
//! metrics registry *and* a trace sink fanned out — and compares the full
//! state after every epoch. A structural test then pins down what the trace
//! contains: per-epoch spans with the phase spans nested inside, and — on
//! epochs that recompute ρ and δ with the batch queries — the queries' own
//! chunk spans nested inside the repair phases.

use std::sync::Arc;

use dpc_core::{Point, UpdatableIndex};
use dpc_datasets::testsupport::lattice_point;
use dpc_obs::{Fanout, MetricsRecorder, SharedRecorder, TraceSink};
use dpc_stream::{StreamParams, StreamingDpc};
use dpc_tree_index::{KdTree, KdTreeConfig};
use proptest::prelude::*;

fn small_kdtree(points: Vec<Point>) -> KdTree {
    KdTree::with_config(
        &dpc_core::Dataset::new(points),
        &KdTreeConfig {
            leaf_capacity: 4,
            ..KdTreeConfig::default()
        },
    )
}

fn engine_with(
    seed: &[Point],
    max_affected_fraction: f64,
    recorder: Option<SharedRecorder>,
) -> StreamingDpc<KdTree> {
    let params = StreamParams::new(1.5).with_max_affected_fraction(max_affected_fraction);
    let mut engine =
        StreamingDpc::new(small_kdtree(seed.to_vec()), params).expect("seeding must succeed");
    if let Some(rec) = recorder {
        engine.set_recorder(rec);
    }
    engine
}

/// Replays `ops` (insert when true, else evict-oldest) on `engine`.
fn replay(engine: &mut StreamingDpc<KdTree>, ops: &[(bool, u32, u32)]) {
    for &(insert, ix, iy) in ops {
        if insert || engine.is_empty() {
            engine
                .insert(lattice_point(ix, iy))
                .expect("insert must succeed");
        } else {
            let oldest = engine.oldest().expect("non-empty window has an oldest");
            engine.remove(oldest).expect("remove must succeed");
        }
    }
}

/// The full comparable state of an engine.
fn state_of(engine: &StreamingDpc<KdTree>) -> (Vec<f64>, Vec<f64>, Vec<Option<usize>>, Vec<usize>) {
    (
        engine.rho().to_vec(),
        engine.deltas().delta.clone(),
        engine.deltas().mu.clone(),
        engine.clustering().labels().to_vec(),
    )
}

#[test]
fn default_recorder_is_the_shared_noop() {
    let engine = engine_with(
        &[lattice_point(0, 0), lattice_point(5, 5)],
        DEFAULT_FRACTION,
        None,
    );
    assert!(
        !engine.recorder().enabled(),
        "the default recorder must be disabled"
    );
    assert!(
        Arc::ptr_eq(engine.recorder(), &dpc_obs::noop()),
        "the default recorder must be the shared no-op instance"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bit-identical ρ/δ/µ/labels with and without recording, at fallback
    /// thresholds {default, 0, 1}, after every single epoch.
    #[test]
    fn recording_never_changes_results(
        seed in prop::collection::vec((0u32..8, 0u32..8), 2..12),
        ops in prop::collection::vec((any::<bool>(), 0u32..8, 0u32..8), 1..20),
        fraction_sel in 0usize..3,
    ) {
        let fraction = [DEFAULT_FRACTION, 0.0, 1.0][fraction_sel];
        let seed_points: Vec<Point> =
            seed.iter().map(|&(x, y)| lattice_point(x, y)).collect();

        let metrics = Arc::new(MetricsRecorder::new());
        let trace = Arc::new(TraceSink::new());
        let fanout: SharedRecorder = Arc::new(
            Fanout::new()
                .with(metrics.clone() as SharedRecorder)
                .with(trace.clone() as SharedRecorder),
        );

        let mut plain = engine_with(&seed_points, fraction, None);
        let mut recorded = engine_with(&seed_points, fraction, Some(fanout));

        for &(insert, ix, iy) in &ops {
            replay(&mut plain, &[(insert, ix, iy)]);
            replay(&mut recorded, &[(insert, ix, iy)]);
            prop_assert_eq!(
                state_of(&plain),
                state_of(&recorded),
                "state diverged after an epoch (threshold {})",
                fraction
            );
        }
        prop_assert_eq!(plain.epoch(), recorded.epoch());

        // The recorded run must actually have recorded something.
        let snap = metrics.snapshot();
        prop_assert_eq!(snap.counter("stream.epochs"), Some(ops.len() as u64));
        prop_assert!(trace.events().iter().any(|e| e.name == "stream.epoch"));
    }
}

/// The threshold every test that does not sweep it runs at.
const DEFAULT_FRACTION: f64 = 0.25;

#[test]
fn trace_contains_nested_phase_spans_and_full_epoch_queries() {
    let seed: Vec<Point> = (0..10).map(|i| lattice_point(i % 4, i / 4)).collect();
    let trace = Arc::new(TraceSink::new());
    // Threshold 0: every epoch recomputes ρ and δ with the batch queries.
    let mut engine = engine_with(&seed, 0.0, Some(trace.clone()));

    let ops: Vec<(bool, u32, u32)> = (0..12).map(|i| (i % 3 != 0, i % 5, i % 7)).collect();
    replay(&mut engine, &ops);

    let events = trace.events();
    let epochs: Vec<_> = events
        .iter()
        .filter(|e| e.ph == 'X' && e.name == "stream.epoch")
        .collect();
    assert_eq!(
        epochs.len(),
        ops.len(),
        "one epoch span per committed epoch"
    );

    // Every phase span must be contained in some epoch span.
    for phase in events
        .iter()
        .filter(|e| e.ph == 'X' && e.name.starts_with("stream.phase."))
    {
        let (ts, dur) = (phase.ts_us, phase.dur_us.expect("complete event"));
        assert!(
            epochs
                .iter()
                .any(|ep| ep.ts_us <= ts && ts + dur <= ep.ts_us + ep.dur_us.unwrap()),
            "phase span {} at {ts} must nest inside an epoch span",
            phase.name
        );
    }
    // Each epoch has a validate and a recluster phase at minimum.
    assert!(
        events
            .iter()
            .filter(|e| e.name == "stream.phase.validate")
            .count()
            >= ops.len()
    );
    assert!(
        events
            .iter()
            .filter(|e| e.name == "stream.phase.recluster")
            .count()
            >= ops.len()
    );

    // Full epochs: the batch queries' chunk spans nest inside the repair
    // phase that ran them, at least one per epoch.
    assert_eq!(engine.stats().rebuild_epochs, ops.len() as u64);
    for (query, phase) in [
        ("query.rho.chunk", "stream.phase.rho_repair"),
        ("query.delta.chunk", "stream.phase.delta_repair"),
    ] {
        let chunks: Vec<_> = events.iter().filter(|e| e.name == query).collect();
        assert!(chunks.len() >= ops.len(), "{query}: {} spans", chunks.len());
        let phases: Vec<_> = events.iter().filter(|e| e.name == phase).collect();
        for c in chunks {
            let (ts, dur) = (c.ts_us, c.dur_us.expect("complete event"));
            assert!(
                phases
                    .iter()
                    .any(|p| p.ts_us <= ts && ts + dur <= p.ts_us + p.dur_us.unwrap()),
                "{query} at {ts} must nest inside {phase}"
            );
        }
    }

    // The export is well-formed Chrome trace JSON at the structural level.
    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn maintenance_counters_surface_as_gauges() {
    let seed: Vec<Point> = (0..8).map(|i| lattice_point(i, i)).collect();
    let metrics = Arc::new(MetricsRecorder::new());
    let mut engine = engine_with(
        &seed,
        DEFAULT_FRACTION,
        Some(metrics.clone() as SharedRecorder),
    );
    let ops: Vec<(bool, u32, u32)> = (0..30).map(|i| (i % 2 == 0, i % 6, (i * 3) % 6)).collect();
    replay(&mut engine, &ops);

    let snap = metrics.snapshot();
    // Every maintenance counter the index reports must be visible as an
    // `index.kdtree.<counter>` gauge with the index's current value.
    for (name, value) in engine.index().maintenance_counters() {
        assert_eq!(
            snap.gauge(&format!("index.kdtree.{name}")),
            Some(value as f64),
            "gauge for maintenance counter {name}"
        );
    }
    assert_eq!(snap.counter("stream.epochs"), Some(ops.len() as u64));
    assert!(snap.histogram("stream.epoch.maintenance_us").is_some());
    assert!(snap.histogram("stream.phase.validate_us").is_some());
}

#[test]
fn incremental_delta_repair_reports_both_passes_and_a_thread_invariant_distance_count() {
    // A 120-point lattice window slid one point per epoch: small
    // invalidation sets, so every epoch repairs incrementally.
    let seed: Vec<Point> = (0..120u32).map(|i| lattice_point(i % 12, i / 12)).collect();
    let mut counts = Vec::new();
    for threads in [1usize, 3] {
        let metrics = Arc::new(MetricsRecorder::new());
        let params =
            StreamParams::new(1.5).with_dpc(dpc_core::DpcParams::new(1.5).with_threads(threads));
        let mut engine = StreamingDpc::new(small_kdtree(seed.clone()), params).unwrap();
        engine.set_recorder(metrics.clone());
        for k in 0..30u32 {
            let oldest = engine.oldest().unwrap();
            engine.remove(oldest).unwrap();
            engine.insert(lattice_point(k % 12, 10 + k / 12)).unwrap();
        }
        let snap = metrics.snapshot();
        let incremental = snap.counter("stream.epochs.incremental").unwrap_or(0);
        assert!(incremental > 0, "threads {threads}: no incremental epoch");
        for pass in ["recompute", "candidates"] {
            let spans = snap
                .histogram(&format!("stream.phase.delta_repair.{pass}_us"))
                .map_or(0, |h| h.count());
            assert_eq!(spans, incremental, "threads {threads}: {pass} spans");
        }
        let evals = snap.counter("stream.delta_repair.dist_evals").unwrap_or(0);
        assert!(evals > 0, "threads {threads}");
        counts.push(evals);
    }
    assert_eq!(
        counts[0], counts[1],
        "the distance count depends on threads"
    );
}
