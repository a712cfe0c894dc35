//! Observability substrate for the density-peaks workspace.
//!
//! This crate is deliberately **zero-dependency**: it provides the one
//! [`Recorder`] trait every other crate emits into, plus two concrete sinks
//! and the workspace's shared wall-clock timing helpers.
//!
//! # Design
//!
//! * [`Recorder`] — the emission interface: atomic counters, gauges,
//!   log-bucketed histogram samples, nestable spans, and structured events.
//! * [`NoopRecorder`] / [`noop()`] — the default sink. Its
//!   [`Recorder::enabled`] returns `false`, every method is an empty inline
//!   body, and [`span`] guards skip even the `Instant::now()` call, so code
//!   instrumented against the no-op recorder runs the same instructions as
//!   uninstrumented code up to a predictable branch.
//! * [`MetricsRecorder`] — a pull-style registry of atomic counters, gauges
//!   and [`Histogram`]s, snapshotted with
//!   [`MetricsRecorder::snapshot`] and rendered as a text table.
//! * [`TraceSink`] — an append-only event log exportable as JSON lines
//!   ([`TraceSink::to_jsonl`]) or as Chrome trace-event format
//!   ([`TraceSink::to_chrome_json`]) loadable in Perfetto or
//!   `chrome://tracing`.
//! * [`Fanout`] — combines several sinks behind one `Arc`.
//!
//! # Example
//!
//! ```
//! use dpc_obs::{span, MetricsRecorder, Recorder, SharedRecorder};
//! use std::sync::Arc;
//!
//! let metrics = Arc::new(MetricsRecorder::new());
//! let rec: SharedRecorder = metrics.clone();
//! {
//!     let _guard = span(&rec, "work");
//!     rec.counter("items", 3);
//! }
//! let snap = metrics.snapshot();
//! assert_eq!(snap.counter("items"), Some(3));
//! assert_eq!(snap.histogram("work_us").map(|h| h.count()), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod metrics;
mod recorder;
mod timing;
mod trace;

pub use histogram::Histogram;
pub use metrics::{MetricsRecorder, MetricsSnapshot};
pub use recorder::{noop, span, AttrValue, Fanout, NoopRecorder, Recorder, SharedRecorder, Span};
pub use timing::{format_duration, measure_median, measure_once, Timer};
pub use trace::{TraceEvent, TraceSink};
