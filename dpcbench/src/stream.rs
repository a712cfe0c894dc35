//! The stream workloads: a sliding check-in window on the grid engine, each
//! epoch published into a `dpc_serve::Server`, optionally with one
//! closed-loop reader beside the writer.
//!
//! A *pass* seeds a fresh engine and server (set-up), replays a fixed number
//! of epochs, then checks the final state against a cold `DpcPipeline` over
//! the surviving window. Passes repeat until the run's time is used, so
//! every pass does the same seed-determined work and its counters must
//! repeat exactly. The traced run spends its first third on untraced passes
//! (the overhead baseline and the reader latencies) and the rest on passes
//! with a recorder attached to the engine and, through it, to the server's
//! snapshot cell.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dpc_core::{CenterSelection, Dataset, DpcIndex, DpcParams, DpcPipeline, Point};
use dpc_datasets::generators::{checkins, CheckinConfig};
use dpc_datasets::SplitMix64;
use dpc_obs::span;
use dpc_serve::{Replay, Server, SnapshotReader};
use dpc_stream::{EpochSnapshot, Handle, StreamParams, StreamStats, StreamingDpc};
use dpc_tree_index::GridIndex;

use crate::layers::{NsHistogram, Tracer};
use crate::report::{median, quantile, Outcome};
use crate::Run;

/// One stream workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Live points in the sliding window.
    pub window: usize,
    /// Points slid in (and out) per epoch.
    pub batch: usize,
    /// Epochs replayed per pass.
    pub epochs: usize,
    /// Cut-off distance, also the reader's ε.
    pub dc: f64,
    /// Whether one closed-loop reader queries the server during replay.
    pub reader: bool,
    /// Delta-ring capacity of the server (`dpc serve`'s default).
    pub ring: usize,
    /// Stand-alone set-ups timed before the passes; `setup_s` is the median
    /// over these and every pass's own set-up.
    pub setups: usize,
}

/// Every reader answer whose serving snapshot is known is re-derived from
/// that snapshot once in this many queries.
const VERIFY_EVERY: u64 = 64;

/// The engine phases the stream engine wraps in spans, and their metrics.
const PHASES: [(&str, &str); 6] = [
    ("stream.phase.validate", "stream.phase.validate_ms"),
    ("stream.phase.apply", "stream.phase.apply_ms"),
    ("stream.phase.rho_repair", "stream.phase.rho_repair_ms"),
    ("stream.phase.delta_repair", "stream.phase.delta_repair_ms"),
    ("stream.phase.recluster", "stream.phase.recluster_ms"),
    ("stream.phase.publish", "stream.phase.publish_ms"),
];

fn stream_params(spec: &Spec) -> StreamParams {
    // `dpc stream` / `dpc serve` defaults: cut-off kernel, incremental
    // policy, one thread, automatic centres.
    StreamParams::new(spec.dc).with_dpc(
        DpcParams::new(spec.dc).with_centers(CenterSelection::GammaGap { max_centers: 64 }),
    )
}

/// The reader's tallies over one pass.
#[derive(Debug, Default, Clone)]
struct ReaderTally {
    lookup: NsHistogram,
    eps: NsHistogram,
    sub: NsHistogram,
    eps_results: u64,
    resyncs: u64,
    verified: u64,
    failed: u64,
}

impl ReaderTally {
    fn merge(&mut self, other: &ReaderTally) {
        self.lookup.merge(&other.lookup);
        self.eps.merge(&other.eps);
        self.sub.merge(&other.sub);
        self.eps_results += other.eps_results;
        self.resyncs += other.resyncs;
        self.verified += other.verified;
        self.failed += other.failed;
    }

    fn queries(&self) -> u64 {
        self.lookup.count() + self.eps.count() + self.sub.count()
    }
}

/// The centre handle of `h`'s cluster, re-derived from the snapshot's
/// frozen state instead of its handle maps.
fn rederive_lookup(snap: &EpochSnapshot, h: Handle) -> Option<Handle> {
    let id = snap.handles().iter().position(|&x| x == h)?;
    let clustering = snap.state().clustering();
    let centre = clustering.centers()[clustering.label(id)];
    Some(snap.handles()[centre])
}

/// The handles strictly within `eps` of `c`, by a linear scan of the
/// snapshot's frozen points, in ascending dense-id order.
fn rederive_eps(snap: &EpochSnapshot, c: Point, eps: f64) -> Vec<Handle> {
    let eps2 = eps * eps;
    snap.state()
        .points()
        .iter()
        .enumerate()
        .filter(|(_, p)| p.distance_squared(&c) < eps2)
        .map(|(id, _)| snap.handles()[id])
        .collect()
}

/// One closed-loop reader: an even rotation of point lookups, ε-queries and
/// subscription polls until `stop`, each timed at ns resolution. Failures
/// are errors, a lookup of a live handle answering `None`, a gap in a
/// subscription replay, and a sampled answer that differs from the one
/// re-derived from its serving snapshot.
fn read_loop(
    mut reader: SnapshotReader,
    points: &[Point],
    eps: f64,
    stop: &AtomicBool,
) -> ReaderTally {
    let mut rng = SplitMix64::new(0x5EED_0FD0_DEAD_BEEF);
    let mut t = ReaderTally::default();
    let mut seen = reader.epoch();
    let mut i = 0u64;
    while !stop.load(Ordering::Acquire) {
        let snap = reader.current();
        let verify = i % VERIFY_EVERY < 3;
        let ok = match i % 3 {
            0 => {
                let h = snap.handle_at(rng.uniform_usize(snap.len()));
                let start = Instant::now();
                let got = reader.cluster_of(h);
                t.lookup.record(start.elapsed());
                // When the cursor did not move, `snap` served the query and
                // `h` was live in it.
                let served = reader.epoch() == snap.epoch();
                if served && verify {
                    t.verified += 1;
                    got.is_some() && got == rederive_lookup(&snap, h)
                } else {
                    !served || got.is_some()
                }
            }
            1 => {
                let c = points[rng.uniform_usize(points.len())];
                let start = Instant::now();
                let got = reader.eps_neighbors(c, eps);
                t.eps.record(start.elapsed());
                match got {
                    Err(_) => false,
                    Ok(handles) => {
                        t.eps_results += handles.len() as u64;
                        if verify && reader.epoch() == snap.epoch() {
                            t.verified += 1;
                            handles == rederive_eps(&snap, c, eps)
                        } else {
                            true
                        }
                    }
                }
            }
            _ => {
                let start = Instant::now();
                let got = reader.deltas_since(seen);
                t.sub.record(start.elapsed());
                match got {
                    Replay::Deltas(deltas) => {
                        let contiguous = deltas
                            .iter()
                            .enumerate()
                            .all(|(k, d)| d.epoch == seen + 1 + k as u64);
                        let own = deltas.iter().find(|d| d.epoch == snap.epoch());
                        let matches = match own {
                            Some(d) if verify => {
                                t.verified += 1;
                                d == snap.delta()
                            }
                            _ => true,
                        };
                        if let Some(last) = deltas.last() {
                            seen = last.epoch;
                        }
                        contiguous && matches
                    }
                    Replay::Resync(latest) => {
                        t.resyncs += 1;
                        let forward = latest.epoch() > seen;
                        seen = latest.epoch();
                        forward
                    }
                }
            }
        };
        if !ok {
            t.failed += 1;
        }
        i += 1;
    }
    t
}

/// The seed-determined part of [`StreamStats`]: everything but timings.
fn exact(stats: &StreamStats) -> [u64; 9] {
    [
        stats.epochs,
        stats.updates,
        stats.incremental_epochs,
        stats.fallback_epochs,
        stats.rebuild_epochs,
        stats.decay_epochs,
        stats.eps_queries,
        stats.affected_points,
        stats.invalidated_points,
    ]
}

/// What one pass measured.
struct Pass {
    setup_s: f64,
    epoch_ms: Vec<f64>,
    stats: StreamStats,
    index_mb: f64,
    reader: Option<ReaderTally>,
}

/// The set-up a user pays before the first epoch: the grid over the seed
/// window, the engine's seeding pass, and the server around it.
fn seed_server(
    spec: &Spec,
    data: &Dataset,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Option<Server<GridIndex>> {
    let grid = {
        let _s = tracer.map(|tr| span(&tr.rec, "tree-index.build"));
        GridIndex::build(&Dataset::new(data.points()[..spec.window].to_vec()))
    };
    let engine = StreamingDpc::new(grid, stream_params(spec));
    out.tally(engine.is_ok());
    let mut engine = engine.ok()?;
    if let Some(tr) = tracer {
        // Before `Server::new`, so the snapshot cell and its readers record
        // into the same sinks.
        engine.set_recorder(tr.rec.clone());
    }
    Some(Server::new(engine, spec.ring))
}

/// Seeds an engine and server, replays `spec.epochs` epochs and checks the
/// final state. Failed epochs and reader queries are tallied into `out`.
fn pass(spec: &Spec, data: &Dataset, tracer: Option<&Tracer>, out: &mut Outcome) -> Option<Pass> {
    let points = data.points();
    let arriving = &points[spec.window..];
    let params = stream_params(spec);

    let t = Instant::now();
    let mut server = seed_server(spec, data, tracer, out)?;
    let setup_s = t.elapsed().as_secs_f64();

    let stop = AtomicBool::new(false);
    let (epoch_ms, reader) = std::thread::scope(|s| {
        let reader = spec.reader.then(|| {
            let (r, stop) = (server.reader(), &stop);
            s.spawn(move || read_loop(r, points, spec.dc, stop))
        });
        let mut epoch_ms = Vec::with_capacity(spec.epochs);
        for chunk in arriving.chunks(spec.batch) {
            let t = Instant::now();
            let result = {
                let _s = tracer.map(|tr| span(&tr.rec, "stream.commit"));
                server.engine_mut().advance(chunk, chunk.len())
            };
            epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.tally(result.is_ok());
        }
        stop.store(true, Ordering::Release);
        let reader = reader.map(|h| h.join().expect("reader thread panicked"));
        (epoch_ms, reader)
    });
    if let Some(r) = &reader {
        out.attempted += r.queries();
        out.failed += r.failed;
    }

    // Correctness gate: the streamed state equals a cold batch run over the
    // surviving window, bit for bit, and is what the server last published.
    let engine = server.engine();
    let cold =
        DpcPipeline::new(params.dpc.clone()).run(&GridIndex::build(engine.index().dataset()));
    let published = server.reader().current();
    let same = cold.is_ok_and(|c| {
        c.rho == engine.rho()
            && &c.deltas == engine.deltas()
            && &c.clustering == engine.clustering()
    }) && published.epoch() == engine.epoch()
        && published.state().rho() == engine.rho();
    out.tally(same);
    Some(Pass {
        setup_s,
        epoch_ms,
        stats: engine.stats(),
        index_mb: engine.index().memory_bytes() as f64 / 1e6,
        reader,
    })
}

/// Runs one stream workload and fills `out`.
pub fn run(spec: &Spec, run: &Run, tracer: Option<&Tracer>, out: &mut Outcome) {
    let data = checkins(
        spec.window + spec.epochs * spec.batch,
        &CheckinConfig::gowalla(),
        run.seed,
    )
    .into_dataset();
    out.note("dataset", "gowalla-like check-ins");
    out.note("engine", "grid");
    out.note("window", spec.window);
    out.note("batch", spec.batch);
    out.note("epochs_per_pass", spec.epochs);
    out.note("dc", spec.dc);
    out.note("kernel", "cutoff");
    out.note("policy", "incremental");
    out.note("readers", u8::from(spec.reader));
    out.note("ring", spec.ring);

    out.correct = true;
    let mut setup = Vec::new();
    for _ in 0..spec.setups {
        let t = Instant::now();
        let server = seed_server(spec, &data, None, out);
        setup.push(t.elapsed().as_secs_f64());
        if server.is_none() {
            return;
        }
    }
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let untraced_budget = if tracer.is_some() {
        run.seconds / 3.0
    } else {
        run.seconds
    };
    let start = Instant::now();
    while plain.len() < 2 || start.elapsed() < Duration::from_secs_f64(untraced_budget) {
        match pass(spec, &data, None, out) {
            Some(p) => plain.push(p),
            None => return,
        }
    }
    if let Some(tr) = tracer {
        while traced.len() < 2 || start.elapsed() < Duration::from_secs_f64(run.seconds) {
            match pass(spec, &data, Some(tr), out) {
                Some(p) => traced.push(p),
                None => return,
            }
        }
    }

    // Every pass replays the same inputs, so its work counters must agree.
    let first = exact(&plain[0].stats);
    let repeat = plain
        .iter()
        .chain(&traced)
        .all(|p| exact(&p.stats) == first);
    out.correct &= repeat;
    let stats = plain[0].stats;
    out.note("passes", plain.len() + traced.len());
    out.note("counters_repeat", repeat);
    out.note(
        "effective_epochs",
        format!(
            "incremental={} fallback={} rebuild={}",
            stats.incremental_epochs, stats.fallback_epochs, stats.rebuild_epochs
        ),
    );

    let epoch_ms: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.epoch_ms.iter().copied())
        .collect();
    let m = &mut out.metrics;
    match tracer {
        None => {
            let updates: u64 = plain.iter().map(|p| p.stats.updates).sum();
            setup.extend(plain.iter().map(|p| p.setup_s));
            m.insert("setup_s", median(&setup));
            m.insert("index_mb", plain[0].index_mb);
            m.insert("latency_ms_p50", median(&epoch_ms));
            m.insert("latency_ms_p90", quantile(&epoch_ms, 0.9));
            m.insert(
                "throughput_per_s",
                updates as f64 / (epoch_ms.iter().sum::<f64>() / 1e3),
            );
        }
        Some(tr) => {
            let epochs = traced.iter().map(|p| p.epoch_ms.len() as u64).sum::<u64>();
            let (_, commit) = tr.span_total("stream.commit");
            let phases: Duration = PHASES.iter().map(|(s, _)| tr.span_total(s).1).sum();
            let untraced_ms = epoch_ms.iter().sum::<f64>() / epoch_ms.len() as f64;
            let traced_ms = tr.ms_per("stream.commit", epochs);
            m.insert("bench.untraced_op_ms", untraced_ms);
            m.insert("bench.traced_op_ms", traced_ms);
            m.insert("bench.trace_overhead", traced_ms / untraced_ms - 1.0);
            m.insert(
                "bench.layer_coverage",
                phases.as_secs_f64() / commit.as_secs_f64(),
            );
            m.insert("stream.commit_ms", traced_ms);
            for (span_name, metric) in PHASES {
                m.insert(metric, tr.ms_per(span_name, epochs));
            }
            let builds = tr.span_total("tree-index.build").0;
            m.insert("tree-index.build_ms", tr.ms_per("tree-index.build", builds));
            let per_epoch = |v: u64| v as f64 / stats.epochs.max(1) as f64;
            m.insert("stream.eps_queries", per_epoch(stats.eps_queries));
            m.insert("stream.affected_points", per_epoch(stats.affected_points));
            m.insert(
                "stream.invalidated_points",
                per_epoch(stats.invalidated_points),
            );
            m.insert(
                "stream.invalidated_frac",
                per_epoch(stats.invalidated_points) / spec.window as f64,
            );
            m.insert("stream.epochs.incremental", stats.incremental_epochs as f64);
            m.insert("stream.epochs.fallback", stats.fallback_epochs as f64);
            m.insert("stream.epochs.rebuild", stats.rebuild_epochs as f64);
            // Reader figures come from the untraced passes: the recorder's
            // spans would otherwise sit inside every timed query.
            let mut r = ReaderTally::default();
            for p in &plain {
                if let Some(t) = &p.reader {
                    r.merge(t);
                }
            }
            if r.queries() > 0 {
                m.insert("serve.lookup.queries", r.lookup.count() as f64);
                m.insert("serve.eps.queries", r.eps.count() as f64);
                m.insert("serve.sub.queries", r.sub.count() as f64);
                m.insert(
                    "serve.eps.results_per_query",
                    r.eps_results as f64 / r.eps.count().max(1) as f64,
                );
                m.insert(
                    "serve.resync_frac",
                    r.resyncs as f64 / r.sub.count().max(1) as f64,
                );
                for (p50, p99, h) in [
                    ("serve.lookup_us_p50", "serve.lookup_us_p99", &r.lookup),
                    ("serve.eps_us_p50", "serve.eps_us_p99", &r.eps),
                    ("serve.sub_us_p50", "serve.sub_us_p99", &r.sub),
                ] {
                    m.insert(p50, h.quantile_us(0.5));
                    m.insert(p99, h.quantile_us(0.99));
                }
                out.note("reader_answers_verified", r.verified);
            }
        }
    }
}
