//! Implementation of the `dpc` subcommands.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dpc_baseline::LeanDpc;
use dpc_core::{
    CenterSelection, Clustering, Dataset, DcEstimation, DpcIndex, DpcParams, Kernel, UpdatableIndex,
};
use dpc_datasets::{read_points_csv, write_labels_csv, write_points_csv, DatasetKind};
use dpc_list_index::{ChIndex, KnnDpc, ListIndex};
use dpc_obs::{Fanout, MetricsRecorder, SharedRecorder, TraceSink};
use dpc_stream::{StreamParams, StreamStats, StreamingDpc};
use dpc_tree_index::{GridIndex, KdTree, Quadtree, RTree};

use crate::args::ParsedArgs;

/// `dpc generate`: writes a synthetic benchmark dataset (and optionally its
/// generating labels) to CSV.
pub fn generate(args: &ParsedArgs) -> Result<String, String> {
    args.reject_unknown(&["dataset", "scale", "seed", "output", "labels"])?;
    let kind = DatasetKind::parse(args.require("dataset")?).ok_or_else(|| {
        format!(
            "unknown dataset {:?}",
            args.require("dataset").unwrap_or("")
        )
    })?;
    let scale: f64 = args.get_or("scale", 0.02)?;
    if scale <= 0.0 {
        return Err("--scale must be positive".into());
    }
    let seed: u64 = args.get_or("seed", 42)?;
    let output = PathBuf::from(args.require("output")?);

    let labelled = kind.generate(seed, scale);
    write_points_csv(&output, &labelled.dataset).map_err(|e| e.to_string())?;
    let mut summary = format!(
        "wrote {} points of {} (scale {scale}, seed {seed}) to {}",
        labelled.len(),
        kind.name(),
        output.display()
    );
    if let Some(labels_path) = args.get("labels") {
        let path = PathBuf::from(labels_path);
        write_labels_csv(&path, &labelled.dataset, &labelled.labels).map_err(|e| e.to_string())?;
        let _ = write!(summary, "\nwrote generating labels to {}", path.display());
    }
    Ok(summary)
}

/// `dpc estimate-dc`: prints the quantile-heuristic cut-off distance.
pub fn estimate_dc(args: &ParsedArgs) -> Result<String, String> {
    args.reject_unknown(&["input", "fraction"])?;
    let data = load_points(args.require("input")?)?;
    let fraction: f64 = args.get_or("fraction", 0.02)?;
    let dc = DcEstimation::with_fraction(fraction)
        .estimate(&data)
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "estimated dc = {dc} (targeting ~{:.1}% neighbours per point over {} points)",
        fraction * 100.0,
        data.len()
    ))
}

/// `dpc cluster`: clusters a CSV point set with a chosen index and writes the
/// labels.
pub fn cluster(args: &ParsedArgs) -> Result<String, String> {
    args.reject_unknown(&[
        "input",
        "dc",
        "index",
        "bin-width",
        "tau",
        "centers",
        "kernel",
        "bandwidth",
        "halo",
        "threads",
        "output",
        "decision-graph",
    ])?;
    let data = load_points(args.require("input")?)?;
    let dc: f64 = args.require_parsed("dc")?;
    let index_name = args.get("index").unwrap_or("rtree");
    let bin_width: Option<f64> = args.get_parsed("bin-width")?;
    let tau: Option<f64> = args.get_parsed("tau")?;
    let selection = parse_centers(args.get("centers").unwrap_or("auto"))?;
    let kernel = parse_kernel(args.get("kernel"), args.get_parsed("bandwidth")?)?;
    let halo = args.has_switch("halo");
    // Default stays 1 (sequential) so timings remain comparable to the
    // paper's single-threaded measurements unless parallelism is asked for.
    let threads: usize = args.get_or("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    let index = build_index(&data, index_name, bin_width, tau, dc)?;
    let params = DpcParams::new(dc)
        .with_centers(selection)
        .with_kernel(kernel)
        .with_halo(halo)
        .with_threads(threads);
    let run = dpc_core::DpcPipeline::new(params)
        .run(index.as_ref())
        .map_err(|e| e.to_string())?;

    if let Some(path) = args.get("decision-graph") {
        write_decision_graph(Path::new(path), &run)?;
    }
    if let Some(path) = args.get("output") {
        write_clustering(Path::new(path), &data, &run.clustering)?;
    }

    let mut summary = summarise(index_name, &data, &run, args.get("output"));
    if !kernel.is_cutoff() {
        summary.push_str(&format!("\ndensity kernel: {}", describe_kernel(kernel)));
    }
    if threads > 1 {
        summary.push_str(&format!("\nqueries ran on {threads} threads"));
    }
    Ok(summary)
}

/// `dpc knn-cluster`: the kNN-density variant (no `dc` parameter).
pub fn knn_cluster(args: &ParsedArgs) -> Result<String, String> {
    args.reject_unknown(&["input", "k", "centers", "output"])?;
    let data = load_points(args.require("input")?)?;
    let k: usize = args.require_parsed("k")?;
    let selection = parse_centers(args.get("centers").unwrap_or("auto"))?;

    let knn = KnnDpc::build(&data);
    let clustering = knn.cluster(k, &selection).map_err(|e| e.to_string())?;
    if let Some(path) = args.get("output") {
        write_clustering(Path::new(path), &data, &clustering)?;
    }
    let mut sizes = clustering.sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    Ok(format!(
        "kNN-DPC (k = {k}): {} clusters over {} points; sizes (largest first): {:?}",
        clustering.num_clusters(),
        data.len(),
        truncated(&sizes, 10)
    ))
}

/// `dpc stream`: replays a CSV point file as a timestamped stream through
/// the incremental engine and prints per-epoch cluster deltas.
///
/// The first `--window` points seed the engine; every subsequent batch of
/// `--batch` points slides the window (evicting the same number of oldest
/// points), and each epoch's births/deaths/relabel counts are printed.
/// `--engine` picks the updatable index family maintaining the window
/// (`--index` is accepted as an alias). Each epoch line names the path the
/// epoch took: `incremental`, `fallback` (δ recomputed by the index's
/// δ-query), `full` (ρ and δ recomputed by its batch queries) or `decay`.
///
/// Observability: `--json` switches the per-epoch lines and the exit
/// summary to one JSON object per line, `--metrics` attaches a
/// [`MetricsRecorder`] and prints its snapshot table after the replay, and
/// `--trace-out PATH` attaches a [`TraceSink`] and writes a Chrome
/// trace-event file (loadable in Perfetto / `chrome://tracing`).
pub fn stream(args: &ParsedArgs) -> Result<String, String> {
    args.reject_unknown(&[
        "input",
        "dc",
        "engine",
        "index",
        "window",
        "batch",
        "threads",
        "centers",
        "kernel",
        "bandwidth",
        "decay",
        "max-epochs",
        "quiet",
        "json",
        "metrics",
        "trace-out",
    ])?;
    let data = load_points(args.require("input")?)?;
    let dc: f64 = args.require_parsed("dc")?;
    let index_name = args
        .get("engine")
        .or_else(|| args.get("index"))
        .unwrap_or("grid");
    let window: usize = args.get_or("window", 1_000)?;
    let batch: usize = args.get_or("batch", 100)?;
    let threads: usize = args.get_or("threads", 1)?;
    let selection = parse_centers(args.get("centers").unwrap_or("auto"))?;
    let kernel = parse_kernel(args.get("kernel"), args.get_parsed("bandwidth")?)?;
    let decay: f64 = args.get_or("decay", 1.0)?;
    let max_epochs: usize = args.get_or("max-epochs", usize::MAX)?;
    let quiet = args.has_switch("quiet");
    let json = args.has_switch("json");
    let trace_out = args.get("trace-out").map(PathBuf::from);
    // Recorders are pure side channels: attach only what was asked for, so
    // the default invocation keeps the guaranteed-zero-overhead no-op path.
    let metrics = args
        .has_switch("metrics")
        .then(|| Arc::new(MetricsRecorder::new()));
    let trace = trace_out.is_some().then(|| Arc::new(TraceSink::new()));
    let recorder: Option<SharedRecorder> = match (&metrics, &trace) {
        (None, None) => None,
        (Some(m), None) => Some(Arc::clone(m) as SharedRecorder),
        (None, Some(t)) => Some(Arc::clone(t) as SharedRecorder),
        (Some(m), Some(t)) => Some(Arc::new(
            Fanout::new()
                .with(Arc::clone(m) as SharedRecorder)
                .with(Arc::clone(t) as SharedRecorder),
        )),
    };
    if window == 0 || batch == 0 {
        return Err("--window and --batch must be positive".into());
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if data.is_empty() {
        return Err("input file holds no points".into());
    }

    let points = data.points();
    let warm = window.min(points.len());
    let seed = Dataset::new(points[..warm].to_vec());
    let params = StreamParams::new(dc)
        .with_dpc(
            DpcParams::new(dc)
                .with_centers(selection)
                .with_kernel(kernel)
                .with_threads(threads),
        )
        .with_decay(decay);
    let mut lines = Vec::new();
    let opts = ReplayOpts {
        quiet,
        json,
        recorder,
    };
    let seed_timer = dpc_core::Timer::start();
    // The engine is seeded inside the call arguments, before `replay` starts
    // its own timer — so the reported updates/s covers only the streamed
    // updates, not the one-off index build + batch seeding query.
    let (stats, elapsed) = match index_name.to_ascii_lowercase().as_str() {
        "grid" => replay(
            StreamingDpc::new(GridIndex::build(&seed), params).map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &opts,
            &mut lines,
        )?,
        "kdtree" | "kd" => replay(
            StreamingDpc::new(KdTree::build(&seed), params).map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &opts,
            &mut lines,
        )?,
        "rtree" => replay(
            StreamingDpc::new(RTree::build(&seed), params).map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &opts,
            &mut lines,
        )?,
        "naive" => replay(
            StreamingDpc::new(
                dpc_core::naive_reference::NaiveReferenceIndex::build(&seed),
                params,
            )
            .map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &opts,
            &mut lines,
        )?,
        "lean" => replay(
            StreamingDpc::new(LeanDpc::build(&seed), params).map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &opts,
            &mut lines,
        )?,
        other => {
            return Err(format!(
                "unknown streaming engine {other:?} (grid, kdtree, rtree, naive, or lean)"
            ))
        }
    };
    let seed_time = seed_timer.elapsed().saturating_sub(elapsed);

    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    // `stats.updates` counts evictions and insertions separately (a slid
    // point is 2 point-updates); say so, since bench_stream's rows count
    // one-in-one-out slides and would otherwise look 2x slower. The δ/µ
    // repair is paid per *epoch* (one `--batch`-sized advance), so the
    // epoch-mode split and the affected union are per epoch.
    if json {
        let bandwidth_field = kernel
            .bandwidth()
            .map(|h| format!(",\"bandwidth\":{h}"))
            .unwrap_or_default();
        let _ = write!(
            out,
            "{{\"event\":\"summary\",\"updates\":{},\"window\":{warm},\
             \"elapsed_ms\":{:.3},\"seed_ms\":{:.3},\"epochs\":{},{},\
             \"mean_affected\":{:.3},\
             \"kernel\":\"{}\"{bandwidth_field},\"decay\":{decay},\
             \"eps_queries\":{}}}",
            stats.updates,
            elapsed.as_secs_f64() * 1e3,
            seed_time.as_secs_f64() * 1e3,
            stats.epochs,
            epoch_modes_json(&stats),
            stats.affected_points as f64 / (stats.epochs as f64).max(1.0),
            kernel.name(),
            stats.eps_queries,
        );
    } else {
        let _ = write!(
            out,
            "applied {} point updates (each eviction or insertion) over a window \
             of {} in {:.1} ms ({:.0} point updates/s, seeding took {:.1} ms): \
             {} epochs ({}), mean affected union {:.1}",
            stats.updates,
            warm,
            elapsed.as_secs_f64() * 1e3,
            stats.updates as f64 / elapsed.as_secs_f64().max(1e-9),
            seed_time.as_secs_f64() * 1e3,
            stats.epochs,
            epoch_modes_text(&stats),
            stats.affected_points as f64 / (stats.epochs as f64).max(1.0),
        );
        if !kernel.is_cutoff() || decay != 1.0 {
            let _ = write!(out, ", kernel {}, decay {decay}", describe_kernel(kernel));
        }
    }
    if let Some(metrics) = &metrics {
        out.push('\n');
        out.push_str(&metrics.snapshot().render());
    }
    if let (Some(trace), Some(path)) = (&trace, &trace_out) {
        std::fs::write(path, trace.to_chrome_json()).map_err(|e| e.to_string())?;
        if !json {
            let _ = write!(
                out,
                "\nwrote Chrome trace ({} events) to {}",
                trace.events().len(),
                path.display()
            );
        }
    }
    Ok(out)
}

/// Per-epoch reporting options and the optional recorder for [`replay`].
struct ReplayOpts {
    /// Suppress per-epoch lines entirely.
    quiet: bool,
    /// Emit per-epoch lines as JSON objects instead of human-readable text.
    json: bool,
    /// Recorder to attach to the engine before replaying, if any.
    recorder: Option<SharedRecorder>,
}

/// Drives one engine over the remaining points and collects epoch summaries.
/// Returns the engine's counters and the wall-clock time of the replay loop
/// alone (the caller's seeding work is excluded).
fn replay<I: UpdatableIndex>(
    mut engine: StreamingDpc<I>,
    rest: &[dpc_core::Point],
    batch: usize,
    max_epochs: usize,
    opts: &ReplayOpts,
    lines: &mut Vec<String>,
) -> Result<(StreamStats, std::time::Duration), String> {
    if let Some(rec) = &opts.recorder {
        engine.set_recorder(Arc::clone(rec));
    }
    if opts.quiet {
        // No per-epoch lines at all.
    } else if opts.json {
        lines.push(format!(
            "{{\"event\":\"seed\",\"window\":{},\"clusters\":{}}}",
            engine.len(),
            engine.clustering().num_clusters()
        ));
    } else {
        lines.push(format!(
            "seeded window of {} points: {} clusters",
            engine.len(),
            engine.clustering().num_clusters()
        ));
    }
    let timer = dpc_core::Timer::start();
    for chunk in rest.chunks(batch).take(max_epochs) {
        let (_, delta) = engine
            .advance(chunk, chunk.len())
            .map_err(|e| e.to_string())?;
        if opts.quiet {
            continue;
        }
        // Tag each epoch with the maintenance path it actually took
        // (incremental / fallback / full).
        let mode = engine.stats().last_epoch_mode.map_or("?", |m| m.name());
        lines.push(epoch_line(
            mode,
            &delta,
            engine.stats().last_epoch_micros,
            opts.json,
        ));
    }
    Ok((engine.stats(), timer.elapsed()))
}

/// The epoch-mode counts of an exit summary as JSON fields: what every
/// committed epoch actually ran.
fn epoch_modes_json(stats: &StreamStats) -> String {
    format!(
        "\"incremental\":{},\"fallback\":{},\"full\":{},\"decay_epochs\":{}",
        stats.incremental_epochs, stats.fallback_epochs, stats.rebuild_epochs, stats.decay_epochs
    )
}

/// The epoch-mode counts of a human-readable exit summary.
fn epoch_modes_text(stats: &StreamStats) -> String {
    format!(
        "{} incremental, {} fallback, {} full, {} decay",
        stats.incremental_epochs, stats.fallback_epochs, stats.rebuild_epochs, stats.decay_epochs
    )
}

/// One per-epoch report line — shared by `dpc stream` and `dpc serve` so
/// both feeds carry the same cluster events, including the re-centred
/// survivors that used to be misreported as a death plus a birth.
fn epoch_line(mode: &str, delta: &dpc_stream::ClusterDelta, micros: u64, json: bool) -> String {
    if json {
        format!(
            "{{\"event\":\"epoch\",\"epoch\":{},\"clusters\":{},\
             \"births\":{},\"deaths\":{},\"recentred\":{},\
             \"insertions\":{},\"evictions\":{},\"relabelled\":{},\
             \"mode\":\"{mode}\",\"maintenance_us\":{micros}}}",
            delta.epoch,
            delta.num_clusters,
            delta.births.len(),
            delta.deaths.len(),
            delta.recentred.len(),
            delta.insertions(),
            delta.evictions(),
            delta.relabelled(),
        )
    } else {
        format!("{} [{mode}]", delta.summary())
    }
}

fn load_points(path: &str) -> Result<Dataset, String> {
    read_points_csv(Path::new(path)).map_err(|e| e.to_string())
}

/// `dpc serve`: replays a CSV stream through the serving layer — one writer
/// committing epochs while `--readers` threads answer point-lookup,
/// ε-neighbourhood and subscription queries from the published epoch
/// snapshots.
///
/// The writer is exactly `dpc stream`'s replay loop (same `--window`,
/// `--batch`, per-epoch delta lines); the serving layer wraps
/// the engine in a [`dpc_serve::Server`] so every committed epoch publishes
/// an immutable snapshot. Reader threads issue a deterministic mix of the
/// three query families against the newest snapshot and report per-family
/// p50/p99 latencies in the exit summary, timed in nanoseconds and reported
/// in µs with three decimals, so sub-µs lookups stay visible. `--ring` bounds the subscription
/// delta ring (lagging subscribers resync, counted in the summary).
///
/// `--json`, `--metrics` and `--trace-out` behave as in `dpc stream`; with
/// a trace attached, reader query spans and writer epoch phases land in the
/// same Chrome trace, on separate thread lanes.
pub fn serve(args: &ParsedArgs) -> Result<String, String> {
    args.reject_unknown(&[
        "input",
        "dc",
        "engine",
        "index",
        "window",
        "batch",
        "threads",
        "centers",
        "kernel",
        "bandwidth",
        "decay",
        "max-epochs",
        "readers",
        "ring",
        "quiet",
        "json",
        "metrics",
        "trace-out",
    ])?;
    let data = load_points(args.require("input")?)?;
    let dc: f64 = args.require_parsed("dc")?;
    let index_name = args
        .get("engine")
        .or_else(|| args.get("index"))
        .unwrap_or("grid");
    let window: usize = args.get_or("window", 1_000)?;
    let batch: usize = args.get_or("batch", 100)?;
    let threads: usize = args.get_or("threads", 1)?;
    let selection = parse_centers(args.get("centers").unwrap_or("auto"))?;
    let kernel = parse_kernel(args.get("kernel"), args.get_parsed("bandwidth")?)?;
    let decay: f64 = args.get_or("decay", 1.0)?;
    let max_epochs: usize = args.get_or("max-epochs", usize::MAX)?;
    let readers: usize = args.get_or("readers", 2)?;
    let ring: usize = args.get_or("ring", 64)?;
    let quiet = args.has_switch("quiet");
    let json = args.has_switch("json");
    let trace_out = args.get("trace-out").map(PathBuf::from);
    let metrics = args
        .has_switch("metrics")
        .then(|| Arc::new(MetricsRecorder::new()));
    let trace = trace_out.is_some().then(|| Arc::new(TraceSink::new()));
    let recorder: Option<SharedRecorder> = match (&metrics, &trace) {
        (None, None) => None,
        (Some(m), None) => Some(Arc::clone(m) as SharedRecorder),
        (None, Some(t)) => Some(Arc::clone(t) as SharedRecorder),
        (Some(m), Some(t)) => Some(Arc::new(
            Fanout::new()
                .with(Arc::clone(m) as SharedRecorder)
                .with(Arc::clone(t) as SharedRecorder),
        )),
    };
    if window == 0 || batch == 0 {
        return Err("--window and --batch must be positive".into());
    }
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if ring == 0 {
        return Err("--ring must be positive".into());
    }
    if data.is_empty() {
        return Err("input file holds no points".into());
    }

    let points = data.points();
    let warm = window.min(points.len());
    let seed = Dataset::new(points[..warm].to_vec());
    let params = StreamParams::new(dc)
        .with_dpc(
            DpcParams::new(dc)
                .with_centers(selection)
                .with_kernel(kernel)
                .with_threads(threads),
        )
        .with_decay(decay);
    let mut lines = Vec::new();
    let opts = ReplayOpts {
        quiet,
        json,
        recorder,
    };
    let serve_opts = ServeOpts {
        readers,
        ring,
        eps: dc,
        query_points: points,
    };
    let (report, elapsed) = match index_name.to_ascii_lowercase().as_str() {
        "grid" => serve_replay(
            StreamingDpc::new(GridIndex::build(&seed), params).map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &serve_opts,
            &opts,
            &mut lines,
        )?,
        "kdtree" | "kd" => serve_replay(
            StreamingDpc::new(KdTree::build(&seed), params).map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &serve_opts,
            &opts,
            &mut lines,
        )?,
        "rtree" => serve_replay(
            StreamingDpc::new(RTree::build(&seed), params).map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &serve_opts,
            &opts,
            &mut lines,
        )?,
        "naive" => serve_replay(
            StreamingDpc::new(
                dpc_core::naive_reference::NaiveReferenceIndex::build(&seed),
                params,
            )
            .map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &serve_opts,
            &opts,
            &mut lines,
        )?,
        "lean" => serve_replay(
            StreamingDpc::new(LeanDpc::build(&seed), params).map_err(|e| e.to_string())?,
            &points[warm..],
            batch,
            max_epochs,
            &serve_opts,
            &opts,
            &mut lines,
        )?,
        other => {
            return Err(format!(
                "unknown streaming engine {other:?} (grid, kdtree, rtree, naive, or lean)"
            ))
        }
    };

    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    // Reader latencies are recorded in ns; report µs with ns resolution.
    let q = |h: &dpc_obs::Histogram, q: f64| h.value_at_quantile(q).unwrap_or(0) as f64 / 1e3;
    let kernel_name = kernel.name();
    if json {
        let _ = write!(
            out,
            "{{\"event\":\"serve_summary\",\"epochs\":{},{},\"published\":{},\
             \"window\":{warm},\"elapsed_ms\":{:.3},\"readers\":{readers},\
             \"kernel\":\"{kernel_name}\",\"decay\":{decay},\
             \"lookups\":{},\"eps_queries\":{},\"sub_polls\":{},\
             \"resyncs\":{},\"ring_evictions\":{},\
             \"lookup_p50_us\":{:.3},\"lookup_p99_us\":{:.3},\
             \"eps_p50_us\":{:.3},\"eps_p99_us\":{:.3},\
             \"sub_p50_us\":{:.3},\"sub_p99_us\":{:.3}}}",
            report.stats.epochs,
            epoch_modes_json(&report.stats),
            report.published,
            elapsed.as_secs_f64() * 1e3,
            report.lookups,
            report.eps_queries,
            report.sub_polls,
            report.resyncs,
            report.ring_evictions,
            q(&report.lookup, 0.5),
            q(&report.lookup, 0.99),
            q(&report.eps, 0.5),
            q(&report.eps, 0.99),
            q(&report.sub, 0.5),
            q(&report.sub, 0.99),
        );
    } else {
        let _ = write!(
            out,
            "served {} epochs ({}; {} published) over a window of {warm} in {:.1} ms \
             ({:.1} epochs/s); {readers} readers issued {} lookups, {} eps-queries, \
             {} subscription polls ({} resyncs, {} ring evictions); \
             p50/p99 us: lookup {:.3}/{:.3}, eps {:.3}/{:.3}, sub {:.3}/{:.3}",
            report.stats.epochs,
            epoch_modes_text(&report.stats),
            report.published,
            elapsed.as_secs_f64() * 1e3,
            report.stats.epochs as f64 / elapsed.as_secs_f64().max(1e-9),
            report.lookups,
            report.eps_queries,
            report.sub_polls,
            report.resyncs,
            report.ring_evictions,
            q(&report.lookup, 0.5),
            q(&report.lookup, 0.99),
            q(&report.eps, 0.5),
            q(&report.eps, 0.99),
            q(&report.sub, 0.5),
            q(&report.sub, 0.99),
        );
        if !kernel.is_cutoff() || decay != 1.0 {
            let _ = write!(out, "; kernel {}, decay {decay}", describe_kernel(kernel));
        }
    }
    if let Some(metrics) = &metrics {
        out.push('\n');
        out.push_str(&metrics.snapshot().render());
    }
    if let (Some(trace), Some(path)) = (&trace, &trace_out) {
        std::fs::write(path, trace.to_chrome_json()).map_err(|e| e.to_string())?;
        if !json {
            let _ = write!(
                out,
                "\nwrote Chrome trace ({} events) to {}",
                trace.events().len(),
                path.display()
            );
        }
    }
    Ok(out)
}

/// Serving-specific knobs for [`serve_replay`].
struct ServeOpts<'a> {
    /// Number of concurrent reader threads.
    readers: usize,
    /// Capacity of the subscription delta ring.
    ring: usize,
    /// Radius for the readers' ε-neighbourhood queries.
    eps: f64,
    /// Pool of coordinates the readers centre ε-queries on.
    query_points: &'a [dpc_core::Point],
}

/// What one replay through the serving layer observed: the writer's engine
/// stats plus the merged reader-side tallies and latency histograms.
struct ServeReport {
    stats: StreamStats,
    published: u64,
    ring_evictions: u64,
    lookups: u64,
    eps_queries: u64,
    sub_polls: u64,
    resyncs: u64,
    lookup: dpc_obs::Histogram,
    eps: dpc_obs::Histogram,
    sub: dpc_obs::Histogram,
}

/// Per-reader-thread tallies, merged into the [`ServeReport`] at join.
#[derive(Default)]
struct ReaderTally {
    lookups: u64,
    eps_queries: u64,
    sub_polls: u64,
    resyncs: u64,
    lookup: dpc_obs::Histogram,
    eps: dpc_obs::Histogram,
    sub: dpc_obs::Histogram,
}

/// Drives the writer over the remaining points while `opts.readers` threads
/// issue a deterministic mix of queries against the published snapshots.
/// Returns the merged report and the wall-clock time of the replay loop.
fn serve_replay<I: UpdatableIndex>(
    mut engine: StreamingDpc<I>,
    rest: &[dpc_core::Point],
    batch: usize,
    max_epochs: usize,
    serve_opts: &ServeOpts<'_>,
    opts: &ReplayOpts,
    lines: &mut Vec<String>,
) -> Result<(ServeReport, std::time::Duration), String> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    if let Some(rec) = &opts.recorder {
        engine.set_recorder(Arc::clone(rec));
    }
    let mut server = dpc_serve::Server::new(engine, serve_opts.ring);
    let reader_handles: Vec<_> = (0..serve_opts.readers).map(|_| server.reader()).collect();
    if opts.quiet {
        // No per-epoch lines at all.
    } else if opts.json {
        lines.push(format!(
            "{{\"event\":\"seed\",\"window\":{},\"clusters\":{}}}",
            server.engine().len(),
            server.engine().clustering().num_clusters()
        ));
    } else {
        lines.push(format!(
            "seeded window of {} points: {} clusters",
            server.engine().len(),
            server.engine().clustering().num_clusters()
        ));
    }

    let stop = AtomicBool::new(false);
    let timer = dpc_core::Timer::start();
    let (writer_result, tallies) = std::thread::scope(|s| {
        let stop = &stop;
        let eps = serve_opts.eps;
        let query_points = serve_opts.query_points;
        let workers: Vec<_> = reader_handles
            .into_iter()
            .enumerate()
            .map(|(i, mut reader)| {
                s.spawn(move || {
                    let mut rng = dpc_datasets::SplitMix64::new(
                        0x5E12_7E5E ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut tally = ReaderTally::default();
                    let mut seen = reader.epoch();
                    // Each reader opens with one query of every family, so
                    // even a replay that ends before the reader is first
                    // scheduled reports (and traces) all three.
                    let mut sent = 0u64;
                    while sent < 3 || !stop.load(Ordering::Acquire) {
                        let family = if sent < 3 { sent } else { rng.next_u64() % 3 };
                        sent += 1;
                        match family {
                            0 => {
                                let snap = reader.current();
                                if snap.is_empty() {
                                    continue;
                                }
                                let h = snap.handle_at(rng.uniform_usize(snap.len()));
                                let start = Instant::now();
                                let _ = reader.cluster_of(h);
                                tally.lookup.record(start.elapsed().as_nanos() as u64);
                                tally.lookups += 1;
                            }
                            1 => {
                                let c = query_points[rng.uniform_usize(query_points.len())];
                                let start = Instant::now();
                                let _ = reader.eps_neighbors(c, eps);
                                tally.eps.record(start.elapsed().as_nanos() as u64);
                                tally.eps_queries += 1;
                            }
                            _ => {
                                let start = Instant::now();
                                match reader.deltas_since(seen) {
                                    dpc_serve::Replay::Deltas(deltas) => {
                                        if let Some(last) = deltas.last() {
                                            seen = last.epoch;
                                        }
                                    }
                                    dpc_serve::Replay::Resync(snapshot) => {
                                        seen = snapshot.epoch();
                                        tally.resyncs += 1;
                                    }
                                }
                                tally.sub.record(start.elapsed().as_nanos() as u64);
                                tally.sub_polls += 1;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();

        // The writer must release the readers even when a commit fails —
        // otherwise the scope would never join.
        let writer_result = (|| -> Result<(), String> {
            for chunk in rest.chunks(batch).take(max_epochs) {
                let (_, delta) = server
                    .engine_mut()
                    .advance(chunk, chunk.len())
                    .map_err(|e| e.to_string())?;
                if !opts.quiet {
                    let stats = server.engine().stats();
                    let mode = stats.last_epoch_mode.map_or("?", |m| m.name());
                    lines.push(epoch_line(mode, &delta, stats.last_epoch_micros, opts.json));
                }
            }
            Ok(())
        })();
        stop.store(true, Ordering::Release);
        let tallies: Vec<ReaderTally> = workers
            .into_iter()
            .map(|w| w.join().expect("reader thread panicked"))
            .collect();
        (writer_result, tallies)
    });
    let elapsed = timer.elapsed();
    writer_result?;

    let mut report = ServeReport {
        stats: server.engine().stats(),
        published: server.cell().published(),
        ring_evictions: server.cell().ring_evictions(),
        lookups: 0,
        eps_queries: 0,
        sub_polls: 0,
        resyncs: 0,
        lookup: dpc_obs::Histogram::new(),
        eps: dpc_obs::Histogram::new(),
        sub: dpc_obs::Histogram::new(),
    };
    for tally in tallies {
        report.lookups += tally.lookups;
        report.eps_queries += tally.eps_queries;
        report.sub_polls += tally.sub_polls;
        report.resyncs += tally.resyncs;
        report.lookup.merge(&tally.lookup);
        report.eps.merge(&tally.eps);
        report.sub.merge(&tally.sub);
    }
    Ok((report, elapsed))
}

/// Parses `--kernel NAME` plus the optional `--bandwidth H` flag into a
/// [`Kernel`]. The default (`cutoff`) is the paper-faithful hard cut-off and
/// takes no bandwidth; `gaussian` and `exponential` require one. Bandwidth
/// range checking is delegated to [`Kernel::validate`] so the CLI quotes the
/// same value-and-range messages as the library.
pub fn parse_kernel(name: Option<&str>, bandwidth: Option<f64>) -> Result<Kernel, String> {
    let name = name.unwrap_or("cutoff").trim().to_ascii_lowercase();
    let kernel = match name.as_str() {
        "cutoff" => {
            if bandwidth.is_some() {
                return Err(
                    "--bandwidth only applies to the gaussian and exponential kernels".into(),
                );
            }
            return Ok(Kernel::Cutoff);
        }
        "gaussian" => Kernel::gaussian(
            bandwidth.ok_or_else(|| "--kernel gaussian requires --bandwidth".to_string())?,
        ),
        "exponential" | "exp" => Kernel::exponential(
            bandwidth.ok_or_else(|| "--kernel exponential requires --bandwidth".to_string())?,
        ),
        other => {
            return Err(format!(
                "unknown kernel {other:?} (cutoff, gaussian, or exponential)"
            ))
        }
    };
    kernel.validate().map_err(|e| e.to_string())?;
    Ok(kernel)
}

/// Human-readable kernel description for exit summaries.
fn describe_kernel(kernel: Kernel) -> String {
    match kernel.bandwidth() {
        Some(h) => format!("{} (bandwidth {h})", kernel.name()),
        None => kernel.name().to_string(),
    }
}

/// Parses a centre-selection spec: `top:K`, `auto`, `auto:MAX` or
/// `threshold:RHO,DELTA`.
pub fn parse_centers(spec: &str) -> Result<CenterSelection, String> {
    let spec = spec.trim();
    if let Some(k) = spec.strip_prefix("top:") {
        let k: usize = k
            .parse()
            .map_err(|_| format!("invalid top:K spec {spec:?}"))?;
        return Ok(CenterSelection::TopKGamma { k });
    }
    if spec == "auto" {
        return Ok(CenterSelection::GammaGap { max_centers: 64 });
    }
    if let Some(max) = spec.strip_prefix("auto:") {
        let max_centers: usize = max
            .parse()
            .map_err(|_| format!("invalid auto:MAX spec {spec:?}"))?;
        return Ok(CenterSelection::GammaGap { max_centers });
    }
    if let Some(rest) = spec.strip_prefix("threshold:") {
        let mut parts = rest.split(',');
        let rho = parts
            .next()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("invalid threshold spec {spec:?}"))?;
        let delta = parts
            .next()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or_else(|| format!("invalid threshold spec {spec:?}"))?;
        if parts.next().is_some() {
            return Err(format!("invalid threshold spec {spec:?}"));
        }
        return Ok(CenterSelection::Threshold {
            rho_min: rho,
            delta_min: delta,
        });
    }
    Err(format!(
        "unknown centre selection {spec:?} (expected top:K, auto, auto:MAX or threshold:RHO,DELTA)"
    ))
}

/// Builds the requested index over the data.
pub fn build_index(
    data: &Dataset,
    name: &str,
    bin_width: Option<f64>,
    tau: Option<f64>,
    dc: f64,
) -> Result<Box<dyn DpcIndex>, String> {
    let default_w = || bin_width.unwrap_or_else(|| (dc / 4.0).max(f64::MIN_POSITIVE));
    let index: Box<dyn DpcIndex> = match name.to_ascii_lowercase().as_str() {
        "list" => match tau {
            Some(t) => Box::new(ListIndex::build_approx(data, t)),
            None => Box::new(ListIndex::build(data)),
        },
        "ch" => match tau {
            Some(t) => Box::new(ChIndex::build_approx(data, default_w(), t)),
            None => Box::new(ChIndex::build(data, default_w())),
        },
        "quadtree" => Box::new(Quadtree::build(data)),
        "rtree" => Box::new(RTree::build(data)),
        "kdtree" => Box::new(KdTree::build(data)),
        "grid" => Box::new(GridIndex::build(data)),
        "naive" | "dpc" => Box::new(LeanDpc::build(data)),
        other => return Err(format!("unknown index {other:?}")),
    };
    Ok(index)
}

fn write_clustering(path: &Path, data: &Dataset, clustering: &Clustering) -> Result<(), String> {
    write_labels_csv(path, data, &clustering.labels_with_noise()).map_err(|e| e.to_string())
}

fn write_decision_graph(path: &Path, run: &dpc_core::DpcRun) -> Result<(), String> {
    let mut table =
        dpc_metrics::ResultTable::new("decision graph", &["point", "rho", "delta", "gamma"]);
    let gamma = run.decision_graph.gamma();
    for (p, (rho_p, gamma_p)) in run.rho.iter().zip(gamma.iter()).enumerate() {
        table.add_row(&[
            p.to_string(),
            rho_p.to_string(),
            format!("{}", run.decision_graph.delta(p)),
            format!("{gamma_p}"),
        ]);
    }
    table.write_csv(path).map_err(|e| e.to_string())
}

fn summarise(
    index_name: &str,
    data: &Dataset,
    run: &dpc_core::DpcRun,
    output: Option<&str>,
) -> String {
    let mut sizes = run.clustering.sizes();
    sizes.sort_unstable_by(|a, b| b.cmp(a));
    let mut out = format!(
        "clustered {} points with the {} index: {} clusters, {} halo points",
        data.len(),
        index_name,
        run.clustering.num_clusters(),
        run.clustering.halo_count()
    );
    let _ = write!(
        out,
        "\ncluster sizes (largest first): {:?}",
        truncated(&sizes, 10)
    );
    let _ = write!(
        out,
        "\nquery time: rho {:.3} ms + delta {:.3} ms; assignment {:.3} ms",
        run.rho_time.as_secs_f64() * 1e3,
        run.delta_time.as_secs_f64() * 1e3,
        run.assign_time.as_secs_f64() * 1e3
    );
    if let Some(path) = output {
        let _ = write!(out, "\nlabels written to {path}");
    }
    out
}

fn truncated(sizes: &[usize], max: usize) -> Vec<usize> {
    sizes.iter().copied().take(max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run;

    /// A fresh directory per test, named by a short `tag` unique to that
    /// test: tests run on parallel threads and each removes its directory
    /// when done, so none may share one. (Tags stay short because some
    /// tests search the command output, which echoes the paths.)
    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dpc-cli-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_centers_specs() {
        assert_eq!(
            parse_centers("top:5").unwrap(),
            CenterSelection::TopKGamma { k: 5 }
        );
        assert_eq!(
            parse_centers("auto").unwrap(),
            CenterSelection::GammaGap { max_centers: 64 }
        );
        assert_eq!(
            parse_centers("auto:10").unwrap(),
            CenterSelection::GammaGap { max_centers: 10 }
        );
        assert_eq!(
            parse_centers("threshold:3,1.5").unwrap(),
            CenterSelection::Threshold {
                rho_min: 3.0,
                delta_min: 1.5
            }
        );
        assert!(parse_centers("top:x").is_err());
        assert!(parse_centers("threshold:1").is_err());
        assert!(parse_centers("nonsense").is_err());
    }

    #[test]
    fn build_index_knows_every_name() {
        let data = DatasetKind::S1.generate(1, 0.004).into_dataset(); // 20 points
        for name in ["list", "ch", "quadtree", "rtree", "kdtree", "grid", "naive"] {
            let index = build_index(&data, name, None, None, 10_000.0).unwrap();
            assert_eq!(index.rho(10_000.0).unwrap().len(), data.len(), "{name}");
        }
        assert!(build_index(&data, "wat", None, None, 1.0).is_err());
        // tau selects the approximate variants.
        let approx = build_index(&data, "list", None, Some(50_000.0), 10_000.0).unwrap();
        assert!(!approx.is_exact());
    }

    #[test]
    fn generate_then_cluster_end_to_end() {
        let dir = temp_dir("cluster");
        let points = dir.join("points.csv");
        let truth = dir.join("truth.csv");
        let labels = dir.join("labels.csv");
        let graph = dir.join("graph.csv");

        let out = run(args(&[
            "generate",
            "--dataset",
            "s1",
            "--scale",
            "0.04",
            "--seed",
            "9",
            "--output",
            points.to_str().unwrap(),
            "--labels",
            truth.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("200 points"));
        assert!(points.exists() && truth.exists());

        let out = run(args(&[
            "estimate-dc",
            "--input",
            points.to_str().unwrap(),
            "--fraction",
            "0.02",
        ]))
        .unwrap();
        assert!(out.contains("estimated dc"));

        let out = run(args(&[
            "cluster",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "30000",
            "--index",
            "ch",
            "--centers",
            "top:15",
            "--output",
            labels.to_str().unwrap(),
            "--decision-graph",
            graph.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("15 clusters"), "{out}");
        let written = std::fs::read_to_string(&labels).unwrap();
        assert_eq!(written.lines().count(), 201); // header + one row per point
        assert!(std::fs::read_to_string(&graph)
            .unwrap()
            .starts_with("point,rho,delta,gamma"));

        let out = run(args(&[
            "knn-cluster",
            "--input",
            points.to_str().unwrap(),
            "--k",
            "8",
            "--centers",
            "top:15",
        ]))
        .unwrap();
        assert!(out.contains("15 clusters"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_changes_nothing_but_the_thread_count() {
        let dir = temp_dir("par");
        let points = dir.join("par-points.csv");
        let seq_labels = dir.join("par-labels-seq.csv");
        let par_labels = dir.join("par-labels-par.csv");
        run(args(&[
            "generate",
            "--dataset",
            "s1",
            "--scale",
            "0.04",
            "--seed",
            "11",
            "--output",
            points.to_str().unwrap(),
        ]))
        .unwrap();

        let base = [
            "cluster",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "30000",
            "--index",
            "kdtree",
            "--centers",
            "top:15",
        ];
        let mut seq = base.to_vec();
        seq.extend(["--output", seq_labels.to_str().unwrap()]);
        let out_seq = run(args(&seq)).unwrap();
        assert!(!out_seq.contains("threads"), "{out_seq}");

        let mut par = base.to_vec();
        par.extend(["--threads", "3", "--output", par_labels.to_str().unwrap()]);
        let out_par = run(args(&par)).unwrap();
        assert!(out_par.contains("queries ran on 3 threads"), "{out_par}");

        assert_eq!(
            std::fs::read_to_string(&seq_labels).unwrap(),
            std::fs::read_to_string(&par_labels).unwrap(),
            "parallel clustering must be identical to sequential"
        );
        assert!(run(args(&[
            "cluster",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "1.0",
            "--threads",
            "0"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_replays_a_csv_and_reports_epochs() {
        let dir = temp_dir("stream");
        let points = dir.join("stream-points.csv");
        run(args(&[
            "generate",
            "--dataset",
            "gowalla",
            "--scale",
            "0.0005",
            "--seed",
            "3",
            "--output",
            points.to_str().unwrap(),
        ]))
        .unwrap();

        let out = run(args(&[
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--index",
            "grid",
            "--window",
            "200",
            "--batch",
            "50",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("seeded window of 200 points"), "{out}");
        assert!(out.contains("epoch"), "{out}");
        assert!(out.contains("updates/s"), "{out}");
        // Every epoch line is tagged with the maintenance path taken, and
        // the exit summary counts the epochs of each: a batch of 50 in a
        // window of 200 needs 100 ε-queries, past the default threshold, so
        // every epoch reruns the batch queries.
        assert!(out.contains("[full]"), "{out}");
        assert!(!out.contains("[incremental]"), "{out}");
        assert!(
            out.contains("(0 incremental, 0 fallback, 9 full, 0 decay)"),
            "{out}"
        );

        // Every other engine must replay the same stream; `--engine` is the
        // documented spelling, `--index` stays as an alias.
        for engine in ["naive", "kdtree", "rtree"] {
            let out = run(args(&[
                "stream",
                "--input",
                points.to_str().unwrap(),
                "--dc",
                "0.5",
                "--engine",
                engine,
                "--window",
                "200",
                "--batch",
                "50",
                "--quiet",
            ]))
            .unwrap();
            assert!(!out.contains("epoch "), "{engine}: {out}");
            assert!(out.contains("9 full"), "{engine}: {out}");
        }

        // One update per epoch stays under the threshold: no full epoch.
        let out = run(args(&[
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--window",
            "200",
            "--batch",
            "1",
            "--max-epochs",
            "20",
        ]))
        .unwrap();
        assert!(out.contains("[incremental]"), "{out}");
        assert!(out.contains("0 full, 0 decay"), "{out}");

        // Bad invocations.
        assert!(run(args(&[
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--engine",
            "ball-tree"
        ]))
        .is_err());
        assert!(run(args(&[
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--policy",
            "incremental"
        ]))
        .unwrap_err()
        .contains("policy"));
        assert!(run(args(&[
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--window",
            "0"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_kernel_specs() {
        assert_eq!(parse_kernel(None, None).unwrap(), Kernel::Cutoff);
        assert_eq!(parse_kernel(Some("cutoff"), None).unwrap(), Kernel::Cutoff);
        assert_eq!(
            parse_kernel(Some("gaussian"), Some(0.5)).unwrap(),
            Kernel::gaussian(0.5)
        );
        assert_eq!(
            parse_kernel(Some("exp"), Some(2.0)).unwrap(),
            Kernel::exponential(2.0)
        );
        // Bandwidth is mandatory for the weighted kernels and meaningless
        // for the cut-off, in both directions.
        assert!(parse_kernel(Some("gaussian"), None)
            .unwrap_err()
            .contains("--bandwidth"));
        assert!(parse_kernel(Some("cutoff"), Some(1.0))
            .unwrap_err()
            .contains("--bandwidth"));
        // Out-of-range bandwidths surface the library's quoted-range message.
        let msg = parse_kernel(Some("gaussian"), Some(-1.0)).unwrap_err();
        assert!(msg.contains("valid range"), "{msg}");
        assert!(parse_kernel(Some("epanechnikov"), Some(1.0)).is_err());
    }

    #[test]
    fn stream_with_weighted_kernel_and_decay_replays_end_to_end() {
        let dir = temp_dir("decay");
        let points = dir.join("kernel-points.csv");
        run(args(&[
            "generate",
            "--dataset",
            "gowalla",
            "--scale",
            "0.0005",
            "--seed",
            "11",
            "--output",
            points.to_str().unwrap(),
        ]))
        .unwrap();

        // A decayed gaussian replay through the JSON feed: the summary names
        // the kernel, bandwidth and decay factor, and no epoch reruns the
        // batch ρ-query (decayed densities depend on the window's history),
        // although every batch of 50 passes the threshold of a 200 window.
        let out = run(args(&[
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--kernel",
            "gaussian",
            "--bandwidth",
            "0.7",
            "--decay",
            "0.9",
            "--window",
            "200",
            "--batch",
            "50",
            "--json",
        ]))
        .unwrap();
        assert!(out.contains("\"event\":\"summary\""), "{out}");
        assert!(out.contains("\"kernel\":\"gaussian\""), "{out}");
        assert!(out.contains("\"bandwidth\":0.7"), "{out}");
        assert!(out.contains("\"decay\":0.9"), "{out}");
        assert!(out.contains("\"full\":0"), "{out}");
        assert!(out.contains("\"fallback\":9"), "{out}");

        // The human-readable summary names weighted kernels too.
        let out = run(args(&[
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--kernel",
            "exponential",
            "--bandwidth",
            "1.1",
            "--window",
            "200",
            "--batch",
            "50",
            "--quiet",
        ]))
        .unwrap();
        assert!(out.contains("kernel exponential (bandwidth 1.1)"), "{out}");

        // `dpc serve` accepts the same flags and reports them in its summary.
        let out = run(args(&[
            "serve",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--kernel",
            "gaussian",
            "--bandwidth",
            "0.7",
            "--decay",
            "0.9",
            "--window",
            "200",
            "--batch",
            "50",
            "--readers",
            "1",
            "--quiet",
            "--json",
        ]))
        .unwrap();
        assert!(out.contains("\"event\":\"serve_summary\""), "{out}");
        assert!(out.contains("\"kernel\":\"gaussian\""), "{out}");
        assert!(out.contains("\"decay\":0.9"), "{out}");

        // Bad decay values surface the library's quoted-range message.
        let err = run(args(&[
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--decay",
            "1.5",
        ]))
        .unwrap_err();
        assert!(err.contains("decay"), "{err}");
        assert!(err.contains("got"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_observability_flags_emit_json_metrics_and_a_chrome_trace() {
        let dir = temp_dir("obs");
        let points = dir.join("obs-points.csv");
        run(args(&[
            "generate",
            "--dataset",
            "gowalla",
            "--scale",
            "0.0005",
            "--seed",
            "7",
            "--output",
            points.to_str().unwrap(),
        ]))
        .unwrap();
        let base = [
            "stream",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--window",
            "200",
            "--batch",
            "50",
        ];

        // --json: every line is one JSON object; the per-epoch objects carry
        // the maintenance mode and per-epoch cost, the last is the summary.
        let mut json_args = base.to_vec();
        json_args.push("--json");
        let out = run(args(&json_args)).unwrap();
        for line in out.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "non-JSON line in --json output: {line}"
            );
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(out.starts_with("{\"event\":\"seed\""), "{out}");
        assert!(out.contains("\"event\":\"epoch\""), "{out}");
        assert!(out.contains("\"maintenance_us\":"), "{out}");
        assert!(out.contains("\"mode\":"), "{out}");
        assert!(
            out.lines()
                .last()
                .unwrap()
                .starts_with("{\"event\":\"summary\""),
            "{out}"
        );
        assert!(out.contains("\"full\":9"), "{out}");
        assert!(!out.contains("policy"), "{out}");

        // --metrics: the snapshot table follows the summary and holds the
        // streaming counters and per-phase histograms.
        let mut metrics_args = base.to_vec();
        metrics_args.extend(["--quiet", "--metrics"]);
        let out = run(args(&metrics_args)).unwrap();
        assert!(out.contains("stream.epochs"), "{out}");
        assert!(out.contains("stream.phase.validate_us"), "{out}");
        assert!(out.contains("stream.epochs.full"), "{out}");

        // --trace-out: a valid Chrome trace-event file with epoch spans and
        // the chunk spans of the batch queries the full epochs ran.
        let trace_path = dir.join("trace.json");
        let mut trace_args = base.to_vec();
        trace_args.extend(["--quiet", "--trace-out", trace_path.to_str().unwrap()]);
        let out = run(args(&trace_args)).unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        for required in [
            "\"name\":\"stream.epoch\"",
            "\"name\":\"stream.phase.validate\"",
            "\"name\":\"query.rho.chunk\"",
            "\"ph\":\"X\"",
            "\"ts\":",
            "\"pid\":",
        ] {
            assert!(trace.contains(required), "trace missing {required}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_replays_with_readers_and_reports_latencies() {
        let dir = temp_dir("serve");
        let points = dir.join("serve-points.csv");
        run(args(&[
            "generate",
            "--dataset",
            "gowalla",
            "--scale",
            "0.0005",
            "--seed",
            "11",
            "--output",
            points.to_str().unwrap(),
        ]))
        .unwrap();
        let base = [
            "serve",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--window",
            "200",
            "--batch",
            "50",
            "--readers",
            "2",
            "--ring",
            "8",
        ];

        // Human output: per-epoch delta lines plus the serving summary.
        let out = run(args(&base)).unwrap();
        assert!(out.contains("seeded window of 200 points"), "{out}");
        assert!(out.contains("2 readers issued"), "{out}");
        assert!(out.contains("p50/p99 us"), "{out}");

        // --json: every line is a JSON object, ending in the serve summary
        // with the per-family latency quantiles and resync count.
        let mut json_args = base.to_vec();
        json_args.push("--json");
        let out = run(args(&json_args)).unwrap();
        for line in out.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "non-JSON line in --json output: {line}"
            );
        }
        let summary = out.lines().last().unwrap();
        assert!(summary.starts_with("{\"event\":\"serve_summary\""), "{out}");
        for field in [
            "\"published\":",
            "\"lookups\":",
            "\"eps_queries\":",
            "\"sub_polls\":",
            "\"resyncs\":",
            "\"lookup_p50_us\":",
            "\"sub_p99_us\":",
        ] {
            assert!(
                summary.contains(field),
                "summary missing {field}: {summary}"
            );
        }
        // Reader latencies are timed in ns: a sub-µs lookup must not read 0.
        let p50: f64 = summary
            .split("\"lookup_p50_us\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|v| v.parse().ok())
            .expect("lookup_p50_us is a number");
        assert!(p50 > 0.0, "{summary}");
        assert!(out.contains("\"recentred\":"), "{out}");

        // --trace-out: reader query spans land in the same Chrome trace as
        // the writer's epoch phases.
        let trace_path = dir.join("serve-trace.json");
        let mut trace_args = base.to_vec();
        trace_args.extend(["--quiet", "--trace-out", trace_path.to_str().unwrap()]);
        let out = run(args(&trace_args)).unwrap();
        assert!(out.contains("wrote Chrome trace"), "{out}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["), "{trace}");
        for required in [
            "\"name\":\"stream.epoch\"",
            "\"name\":\"stream.phase.publish\"",
            "\"name\":\"serve.query.lookup\"",
            "\"name\":\"serve.query.eps\"",
            "\"name\":\"serve.query.sub\"",
        ] {
            assert!(trace.contains(required), "trace missing {required}");
        }

        // Bad invocations fail cleanly.
        assert!(run(args(&[
            "serve",
            "--input",
            points.to_str().unwrap(),
            "--dc",
            "0.5",
            "--ring",
            "0"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn helpful_errors_for_bad_invocations() {
        assert!(run(args(&[
            "generate",
            "--dataset",
            "mars",
            "--output",
            "x.csv"
        ]))
        .is_err());
        assert!(run(args(&["cluster", "--dc", "1.0"])).is_err()); // missing --input
        assert!(run(args(&[
            "cluster",
            "--input",
            "/no/such/file.csv",
            "--dc",
            "1.0"
        ]))
        .is_err());
        assert!(run(args(&["estimate-dc", "--input", "/no/such/file.csv"])).is_err());
        assert!(run(args(&[
            "cluster", "--input", "x.csv", "--dc", "1.0", "--bogus", "1"
        ]))
        .is_err());
    }
}
