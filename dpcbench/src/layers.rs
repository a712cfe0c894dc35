//! Tracing support: the recorder the traced run attaches, nanosecond span
//! totals, a bounded Chrome trace, and a nanosecond latency histogram.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dpc_obs::{
    AttrValue, Fanout, MetricsRecorder, MetricsSnapshot, Recorder, SharedRecorder, TraceSink,
};

use crate::report::median;

/// Most events the Chrome trace keeps; the reader's query spans alone would
/// otherwise grow it by millions of events per second.
const TRACE_EVENT_CAP: usize = 200_000;

/// Sums span durations per name at nanosecond resolution. The metrics
/// recorder folds spans into whole-µs histograms, which would round every
/// sub-µs phase to 0.
#[derive(Debug, Default)]
struct SpanTotals {
    spans: Mutex<BTreeMap<String, (u64, Duration)>>,
}

impl Recorder for SpanTotals {
    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, _name: &str, _value: f64) {}
    fn record(&self, _name: &str, _value: u64) {}
    fn span(&self, name: &str, _start: Instant, dur: Duration) {
        let mut spans = self.spans.lock().expect("span totals lock poisoned");
        match spans.get_mut(name) {
            Some(entry) => {
                entry.0 += 1;
                entry.1 += dur;
            }
            None => {
                spans.insert(name.to_owned(), (1, dur));
            }
        }
    }
    fn event(&self, _name: &str, _attrs: &[(&str, AttrValue<'_>)]) {}
}

/// Forwards to a [`TraceSink`] until [`TRACE_EVENT_CAP`] events are kept.
#[derive(Debug)]
struct CappedTrace {
    sink: Arc<TraceSink>,
    left: AtomicUsize,
}

impl CappedTrace {
    fn admit(&self) -> bool {
        self.left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }
}

impl Recorder for CappedTrace {
    fn counter(&self, _name: &str, _delta: u64) {}
    fn gauge(&self, name: &str, value: f64) {
        if self.admit() {
            self.sink.gauge(name, value);
        }
    }
    fn record(&self, _name: &str, _value: u64) {}
    fn span(&self, name: &str, start: Instant, dur: Duration) {
        if self.admit() {
            self.sink.span(name, start, dur);
        }
    }
    fn event(&self, name: &str, attrs: &[(&str, AttrValue<'_>)]) {
        if self.admit() {
            self.sink.event(name, attrs);
        }
    }
}

/// The recorder of a traced run: a `dpc-obs` metrics registry, a Chrome
/// trace and nanosecond span totals, fed from one [`SharedRecorder`].
#[derive(Debug)]
pub struct Tracer {
    /// What instrumented code and the benchmark's own spans write into.
    pub rec: SharedRecorder,
    metrics: Arc<MetricsRecorder>,
    spans: Arc<SpanTotals>,
    trace: Arc<TraceSink>,
}

impl Tracer {
    /// A fresh tracer with empty sinks.
    pub fn new() -> Self {
        let metrics = Arc::new(MetricsRecorder::new());
        let spans = Arc::new(SpanTotals::default());
        let trace = Arc::new(TraceSink::new());
        let capped = CappedTrace {
            sink: Arc::clone(&trace),
            left: AtomicUsize::new(TRACE_EVENT_CAP),
        };
        let rec: SharedRecorder = Arc::new(
            Fanout::new()
                .with(Arc::clone(&metrics) as SharedRecorder)
                .with(Arc::clone(&spans) as SharedRecorder)
                .with(Arc::new(capped)),
        );
        Tracer {
            rec,
            metrics,
            spans,
            trace,
        }
    }

    /// Number of spans named `name` and their summed duration.
    pub fn span_total(&self, name: &str) -> (u64, Duration) {
        self.spans
            .spans
            .lock()
            .expect("span totals lock poisoned")
            .get(name)
            .copied()
            .unwrap_or_default()
    }

    /// Mean duration of the spans named `name`, per `per` operations, in ms.
    pub fn ms_per(&self, name: &str, per: u64) -> f64 {
        self.span_total(name).1.as_secs_f64() * 1e3 / per.max(1) as f64
    }

    /// The metrics registry's current contents.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The Chrome trace-event document of everything kept so far.
    pub fn chrome_json(&self) -> String {
        self.trace.to_chrome_json()
    }
}

/// Latencies in nanoseconds, bucketed log-linearly: exact below 64 ns, then
/// 32 buckets per power of two (at most ~3% relative error), so sub-µs
/// queries keep their resolution at constant memory.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for NsHistogram {
    fn default() -> Self {
        NsHistogram {
            buckets: vec![0; 64 + 59 * 32],
            count: 0,
        }
    }
}

impl NsHistogram {
    fn index(ns: u64) -> usize {
        if ns < 64 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as usize; // >= 6
        let sub = ((ns >> (exp - 5)) & 31) as usize;
        64 + (exp - 6) * 32 + sub
    }

    /// Midpoint of a bucket's value range.
    fn value(index: usize) -> f64 {
        if index < 64 {
            return index as f64;
        }
        let exp = (index - 64) / 32 + 6;
        let sub = ((index - 64) % 32) as u64;
        let width = 1u64 << (exp - 5);
        ((32 + sub) * width) as f64 + (width as f64 - 1.0) / 2.0
    }

    /// Records one latency.
    pub fn record(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    /// Adds every latency of `other`.
    pub fn merge(&mut self, other: &NsHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Number of recorded latencies.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in microseconds (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::value(i) / 1e3;
            }
        }
        unreachable!("rank {rank} is at most the count {}", self.count)
    }
}

/// Median cost of one empty `Instant::now()` / `elapsed()` pair in ns: the
/// floor under every latency this benchmark times.
pub fn instant_pair_ns() -> f64 {
    let rounds: Vec<f64> = (0..31)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..1_000 {
                black_box(black_box(Instant::now()).elapsed());
            }
            t.elapsed().as_nanos() as f64 / 1_000.0
        })
        .collect();
    median(&rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_keeps_sub_microsecond_resolution() {
        let mut h = NsHistogram::default();
        for ns in [40, 250, 260, 270, 900, 5_000] {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.quantile_us(0.0), 0.04);
        let p50 = h.quantile_us(0.5);
        assert!((p50 - 0.26).abs() < 0.01, "{p50}");
        let p99 = h.quantile_us(0.99);
        assert!((p99 - 5.0).abs() < 0.16, "{p99}");
        for ns in [64u64, 100, 1 << 20, u64::MAX / 2] {
            let v = NsHistogram::value(NsHistogram::index(ns));
            assert!((v - ns as f64).abs() <= ns as f64 / 32.0, "{ns} -> {v}");
        }
    }

    #[test]
    fn tracer_sums_spans_in_nanoseconds() {
        let tracer = Tracer::new();
        for _ in 0..3 {
            tracer
                .rec
                .span("x", Instant::now(), Duration::from_nanos(300));
        }
        assert_eq!(tracer.span_total("x"), (3, Duration::from_nanos(900)));
        assert_eq!(tracer.span_total("y"), (0, Duration::ZERO));
        assert!(tracer.metrics().histogram("x_us").is_some());
        assert!(tracer.chrome_json().contains("\"x\""));
    }
}
