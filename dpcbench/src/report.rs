//! The metric catalogue, sample statistics and the result line.
//!
//! Every metric the benchmark can print is listed once here, with its unit.
//! A workload fills a [`Metrics`] map; [`result_line`] then prints exactly
//! the catalogue's end-to-end metrics (untraced run) or per-layer metrics
//! (traced run), in catalogue order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports each of them on every
/// untraced run, and none of them is ever 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("index_mb", "MB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not use reads 0 there: that is the "should not move" side of each
/// prediction in `dpcbench/README.md`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // list-index: the CH index.
    ("list-index.build_s", "s"),
    ("list-index.mb", "MB"),
    ("list-index.rho_ms", "ms"),
    ("list-index.delta_ms", "ms"),
    // tree-index: the R-tree (explore) and the grid (stream set-up).
    ("tree-index.build_ms", "ms"),
    ("tree-index.rho_ms", "ms"),
    ("tree-index.delta_ms", "ms"),
    ("tree-index.rho.nodes_visited", "count"),
    ("tree-index.rho.points_scanned", "count"),
    ("tree-index.delta.nodes_visited", "count"),
    ("tree-index.delta.points_scanned", "count"),
    ("tree-index.delta.density_pruned", "count"),
    ("tree-index.delta.distance_pruned", "count"),
    ("tree-index.delta.scanned_per_point", "ratio"),
    // core: centre selection and assignment.
    ("core.select_ms", "ms"),
    ("core.assign_ms", "ms"),
    // stream: one epoch and its phases.
    ("stream.commit_ms", "ms"),
    ("stream.phase.validate_ms", "ms"),
    ("stream.phase.apply_ms", "ms"),
    ("stream.phase.rho_repair_ms", "ms"),
    ("stream.phase.delta_repair_ms", "ms"),
    ("stream.phase.recluster_ms", "ms"),
    ("stream.phase.publish_ms", "ms"),
    ("stream.eps_queries", "count/epoch"),
    ("stream.affected_points", "count/epoch"),
    ("stream.invalidated_points", "count/epoch"),
    ("stream.invalidated_frac", "ratio"),
    ("stream.epochs.incremental", "count"),
    ("stream.epochs.fallback", "count"),
    ("stream.epochs.rebuild", "count"),
    // serve: the closed-loop reader (timing-dependent counts).
    ("serve.lookup.queries", "count"),
    ("serve.eps.queries", "count"),
    ("serve.sub.queries", "count"),
    ("serve.eps.results_per_query", "count"),
    ("serve.resync_frac", "ratio"),
    ("serve.lookup_us_p50", "us"),
    ("serve.lookup_us_p99", "us"),
    ("serve.eps_us_p50", "us"),
    ("serve.eps_us_p99", "us"),
    ("serve.sub_us_p50", "us"),
    ("serve.sub_us_p99", "us"),
    // The benchmark itself: failures, timer floor, tracing overhead and how
    // much of the traced end-to-end time the named layers explain.
    ("bench.failed_frac", "ratio"),
    ("bench.instant_pair_ns", "ns"),
    ("bench.untraced_op_ms", "ms"),
    ("bench.traced_op_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("bench.layer_coverage", "ratio"),
];

/// Per-layer counters that depend only on the seed: two passes over the
/// same inputs must reproduce them exactly.
pub const EXACT_COUNTERS: &[&str] = &[
    "tree-index.rho.nodes_visited",
    "tree-index.rho.points_scanned",
    "tree-index.delta.nodes_visited",
    "tree-index.delta.points_scanned",
    "tree-index.delta.density_pruned",
    "tree-index.delta.distance_pruned",
    "stream.eps_queries",
    "stream.affected_points",
    "stream.invalidated_points",
    "stream.epochs.incremental",
    "stream.epochs.fallback",
    "stream.epochs.rebuild",
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed and no call failed.
    pub correct: bool,
    /// Operations attempted: clusterings, epochs and reader queries.
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Measured values, keyed by catalogue name.
    pub metrics: Metrics,
    /// Workload parameters and effective behaviour, for the provenance line.
    pub provenance: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one attempted operation, and a failure unless `ok`.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a provenance entry.
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.provenance.push((key, value.to_string()));
    }
}

/// The `q`-quantile of `samples` by linear interpolation between order
/// statistics (the method of numpy's default). `samples` need not be sorted.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values as Rust prints them (shortest round-trip,
/// all digits kept), anything else as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The `{"key": "value", ...}` object of a provenance list.
pub fn provenance_json(entries: &[(&'static str, String)]) -> String {
    let fields: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// catalogue's metrics for the run's mode.
///
/// # Errors
/// Fails when an end-to-end metric is missing or 0: that is a bug in the
/// workload, not a measurement.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let catalogue = if traced { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        let positive = value.is_finite() && value > 0.0;
        if !traced && !positive {
            return Err(format!("end-to-end metric {name} reads {value}"));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct && outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    ))
}

/// The per-layer table written next to the Chrome trace.
pub fn layer_table(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:<40} {:>18}  unit", "metric", "value");
    for &(name, unit) in PER_LAYER {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(out, "{name:<40} {value:>18.6}  {unit}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for name in EXACT_COUNTERS {
            assert!(PER_LAYER.iter().any(|&(n, _)| n == *name), "{name}");
        }
    }

    #[test]
    fn result_line_refuses_a_missing_or_zero_end_to_end_metric() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 1,
            ..Outcome::default()
        };
        assert!(result_line(&outcome, false).is_err());
        for &(name, _) in END_TO_END {
            outcome.metrics.insert(name, 1.5);
        }
        let line = result_line(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        outcome.metrics.insert("setup_s", 0.0);
        assert!(result_line(&outcome, false).is_err());
        // Traced lines fill idle layers with 0.
        assert!(result_line(&outcome, true)
            .unwrap()
            .contains("\"list-index.rho_ms\": {\"value\": 0.0"));
    }
}
