//! The explore workloads: build one index, then cluster at every `dc` of
//! the paper's Figure 6 sweep, over and over, as an analyst would.
//!
//! The untraced run times whole `DpcPipeline::run` calls. The traced run
//! first repeats that for a third of its time (the overhead baseline), then
//! calls ρ, δ, centre selection and assignment one by one under spans and
//! checks that the composed clustering equals the pipeline's.

use std::time::{Duration, Instant};

use dpc_core::index::validate_dc;
use dpc_core::{
    assign_clusters, CenterSelection, Dataset, DecisionGraph, DensityOrder, DpcIndex, DpcParams,
    DpcPipeline,
};
use dpc_datasets::DatasetKind;
use dpc_list_index::ChIndex;
use dpc_obs::span;
use dpc_tree_index::query::{delta_query_recorded, rho_query_recorded, subtree_max_density};
use dpc_tree_index::{QueryStats, RTree};

use crate::baseline::{self, Answer};
use crate::layers::Tracer;
use crate::report::{median, quantile, Outcome};
use crate::Run;

/// Which index an explore workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// The CH index (`dpc-list-index`).
    Ch,
    /// The R-tree (`dpc-tree-index`), `dpc cluster`'s default index.
    RTree,
}

/// One explore workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Dataset generator.
    pub dataset: DatasetKind,
    /// Size as a fraction of the paper's dataset.
    pub scale: f64,
    /// Index to build.
    pub index: IndexKind,
    /// Index builds per run; `setup_s` is their median.
    pub builds: usize,
}

enum Built {
    Ch(ChIndex),
    RTree(RTree),
}

impl Built {
    fn build(spec: &Spec, data: &Dataset) -> Built {
        match spec.index {
            IndexKind::Ch => Built::Ch(ChIndex::build(data, spec.dataset.default_bin_width())),
            IndexKind::RTree => Built::RTree(RTree::build(data)),
        }
    }

    fn index(&self) -> &dyn DpcIndex {
        match self {
            Built::Ch(ch) => ch,
            Built::RTree(tree) => tree,
        }
    }
}

fn params(dc: f64) -> DpcParams {
    // `dpc cluster`'s default centre rule.
    DpcParams::new(dc).with_centers(CenterSelection::GammaGap { max_centers: 64 })
}

fn run_pipeline(index: &dyn DpcIndex, dc: f64) -> Option<Answer> {
    DpcPipeline::new(params(dc))
        .run(index)
        .ok()
        .map(Answer::from)
}

/// Per-cycle totals of the R-tree's traversal counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Work {
    rho: QueryStats,
    delta: QueryStats,
}

/// ρ, δ, selection and assignment called one by one, each under its
/// layer's span; R-tree queries also report their traversal counters.
fn run_traced(built: &Built, dc: f64, tracer: &Tracer, work: &mut Work) -> Option<Answer> {
    let rec = &tracer.rec;
    let params = params(dc);
    let index = built.index();
    let (rho, deltas) = match built {
        Built::Ch(ch) => {
            let rho = {
                let _s = span(rec, "list-index.rho");
                ch.rho_kernel_with_policy(dc, params.kernel, params.exec)
                    .ok()?
            };
            let deltas = {
                let _s = span(rec, "list-index.delta");
                ch.delta_with_policy(dc, &rho, params.exec).ok()?
            };
            (rho, deltas)
        }
        Built::RTree(tree) => {
            validate_dc(dc).ok()?;
            let (rho, stats) = {
                let _s = span(rec, "tree-index.rho");
                rho_query_recorded(tree, tree.dataset(), dc, params.exec, &**rec)
            };
            work.rho.merge(&stats);
            let (deltas, stats) = {
                let _s = span(rec, "tree-index.delta");
                let order = DensityOrder::with_tie_break(&rho, tree.config().tie_break);
                let maxrho = subtree_max_density(tree, &rho);
                let config = tree.config().delta;
                delta_query_recorded(
                    tree,
                    tree.dataset(),
                    &order,
                    &maxrho,
                    &config,
                    params.exec,
                    &**rec,
                )
            };
            work.delta.merge(&stats);
            (rho, deltas)
        }
    };
    let centers = {
        let _s = span(rec, "core.select");
        DecisionGraph::new(rho.clone(), &deltas)
            .ok()?
            .select_centers(&params.centers)
            .ok()?
    };
    let clustering = {
        let _s = span(rec, "core.assign");
        let order = DensityOrder::with_tie_break(&rho, params.tie_break);
        assign_clusters(
            index.dataset(),
            &order,
            &deltas,
            &centers,
            dc,
            &params.assignment,
        )
        .ok()?
    };
    Some(Answer {
        rho,
        deltas,
        centers,
        clustering,
    })
}

/// The spans around each layer's calls and the per-clustering metric each
/// one feeds.
const LAYERS: [(&str, &str); 6] = [
    ("list-index.rho", "list-index.rho_ms"),
    ("list-index.delta", "list-index.delta_ms"),
    ("tree-index.rho", "tree-index.rho_ms"),
    ("tree-index.delta", "tree-index.delta_ms"),
    ("core.select", "core.select_ms"),
    ("core.assign", "core.assign_ms"),
];

/// Runs one explore workload and fills `out`.
pub fn run(spec: &Spec, run: &Run, tracer: Option<&Tracer>, out: &mut Outcome) {
    let dcs = spec.dataset.fig6_dc_values();
    let data = spec.dataset.generate(run.seed, spec.scale).into_dataset();
    out.note("dataset", spec.dataset.name());
    out.note("n", data.len());
    out.note("dc", format!("{dcs:?}"));
    out.note(
        "index",
        match spec.index {
            IndexKind::Ch => format!("ch(w={})", spec.dataset.default_bin_width()),
            IndexKind::RTree => "rtree".to_string(),
        },
    );
    out.note("centers", "GammaGap{max_centers:64}");

    // Set-up: several builds; the last one is kept. The previous index is
    // dropped before the next build so at most one is resident.
    let mut setup = Vec::with_capacity(spec.builds);
    let mut built = None;
    for _ in 0..spec.builds.max(1) {
        drop(built.take());
        let t = Instant::now();
        let _s = tracer.map(|tr| {
            span(
                &tr.rec,
                match spec.index {
                    IndexKind::Ch => "list-index.build",
                    IndexKind::RTree => "tree-index.build",
                },
            )
        });
        built = Some(Built::build(spec, &data));
        setup.push(t.elapsed().as_secs_f64());
    }
    let built = built.expect("at least one build");
    let index_mb = built.index().memory_bytes() as f64 / 1e6;

    // Correctness gate, outside every timed region.
    let Some(expected) = dcs
        .iter()
        .map(|&dc| baseline::expected(&data, &params(dc)).ok())
        .collect::<Option<Vec<Answer>>>()
    else {
        return;
    };
    out.correct = true;

    let mut latencies = Vec::new();
    let budget = Duration::from_secs_f64(if tracer.is_some() {
        run.seconds / 3.0
    } else {
        run.seconds
    });
    let start = Instant::now();
    let mut cycles = 0;
    while cycles < 2 || start.elapsed() < budget {
        for (k, &dc) in dcs.iter().enumerate() {
            let t = Instant::now();
            let answer = run_pipeline(built.index(), dc);
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            out.tally(answer.is_some_and(|a| a == expected[k]));
        }
        cycles += 1;
    }
    out.note("cycles", cycles);

    match tracer {
        None => {
            let total_s: f64 = latencies.iter().sum::<f64>() / 1e3;
            out.metrics.insert("setup_s", median(&setup));
            out.metrics.insert("index_mb", index_mb);
            out.metrics.insert("latency_ms_p50", median(&latencies));
            out.metrics
                .insert("latency_ms_p90", quantile(&latencies, 0.9));
            out.metrics
                .insert("throughput_per_s", latencies.len() as f64 / total_s);
        }
        Some(tracer) => traced(
            spec, run, &built, &expected, &setup, index_mb, &latencies, tracer, out,
        ),
    }
}

/// The traced part: composed clusterings under spans for the remaining two
/// thirds of the run, at least two full cycles so the traversal counters can
/// be compared cycle against cycle.
#[allow(clippy::too_many_arguments)]
fn traced(
    spec: &Spec,
    run: &Run,
    built: &Built,
    expected: &[Answer],
    setup: &[f64],
    index_mb: f64,
    latencies: &[f64],
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let dcs = spec.dataset.fig6_dc_values();
    let budget = Duration::from_secs_f64(run.seconds * 2.0 / 3.0);
    let start = Instant::now();
    let mut cycle_work: Vec<Work> = Vec::new();
    while cycle_work.len() < 2 || start.elapsed() < budget {
        let mut work = Work::default();
        for (k, &dc) in dcs.iter().enumerate() {
            let answer = {
                let _s = span(&tracer.rec, "bench.cluster");
                run_traced(built, dc, tracer, &mut work)
            };
            // The composed steps must give exactly the pipeline's answer,
            // which the untraced part already checked against the baseline.
            out.tally(answer.is_some_and(|a| a == expected[k]));
        }
        cycle_work.push(work);
    }
    let repeat = cycle_work.windows(2).all(|w| w[0] == w[1]);
    out.correct &= repeat;
    out.note("counters_repeat", repeat);
    out.note("cycles_traced", cycle_work.len());

    let (clusterings, total) = tracer.span_total("bench.cluster");
    let covered: Duration = LAYERS.iter().map(|(l, _)| tracer.span_total(l).1).sum();
    let m = &mut out.metrics;
    let untraced_ms = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let traced_ms = total.as_secs_f64() * 1e3 / clusterings.max(1) as f64;
    m.insert("bench.untraced_op_ms", untraced_ms);
    m.insert("bench.traced_op_ms", traced_ms);
    m.insert("bench.trace_overhead", traced_ms / untraced_ms - 1.0);
    m.insert(
        "bench.layer_coverage",
        covered.as_secs_f64() / total.as_secs_f64(),
    );
    for (layer, metric) in LAYERS {
        m.insert(metric, tracer.ms_per(layer, clusterings));
    }
    match spec.index {
        IndexKind::Ch => {
            m.insert("list-index.build_s", median(setup));
            m.insert("list-index.mb", index_mb);
        }
        IndexKind::RTree => {
            m.insert("tree-index.build_ms", median(setup) * 1e3);
            let w = cycle_work[0];
            m.insert("tree-index.rho.nodes_visited", w.rho.nodes_visited as f64);
            m.insert("tree-index.rho.points_scanned", w.rho.points_scanned as f64);
            m.insert(
                "tree-index.delta.nodes_visited",
                w.delta.nodes_visited as f64,
            );
            m.insert(
                "tree-index.delta.points_scanned",
                w.delta.points_scanned as f64,
            );
            m.insert(
                "tree-index.delta.density_pruned",
                w.delta.nodes_density_pruned as f64,
            );
            m.insert(
                "tree-index.delta.distance_pruned",
                w.delta.nodes_distance_pruned as f64,
            );
            let queries = (built.index().len() * dcs.len()).max(1) as f64;
            m.insert(
                "tree-index.delta.scanned_per_point",
                w.delta.points_scanned as f64 / queries,
            );
        }
    }
}
