//! Shared wall-clock timing helpers.
//!
//! These live here once; `dpc_core` re-exports [`Timer`] and
//! [`format_duration`] from `dpc_core::stats`.

use std::time::{Duration, Instant};

/// A simple wall-clock timer.
///
/// ```
/// use dpc_obs::Timer;
/// let t = Timer::start();
/// let _work: u64 = (0..1000u64).sum();
/// assert!(t.elapsed() >= std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts the timer now.
    pub fn start() -> Self {
        Timer {
            start: Instant::now(),
        }
    }

    /// Time elapsed since the timer was started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

/// Formats a duration with a resolution adapted to its magnitude.
pub fn format_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.1} µs", secs * 1e6)
    }
}

/// Runs `f` once and returns its wall-clock time together with its result.
pub fn measure_once<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let timer = Timer::start();
    let value = f();
    (timer.elapsed(), value)
}

/// Runs `f` `repetitions` times and returns the median wall-clock time and
/// the result of the last run.
///
/// # Panics
/// Panics if `repetitions` is 0.
pub fn measure_median<T>(repetitions: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    assert!(
        repetitions > 0,
        "measure_median: need at least one repetition"
    );
    let mut times = Vec::with_capacity(repetitions);
    let mut last = None;
    for _ in 0..repetitions {
        let (t, value) = measure_once(&mut f);
        times.push(t);
        last = Some(value);
    }
    times.sort_unstable();
    (
        times[times.len() / 2],
        last.expect("at least one repetition ran"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_measures_nonnegative_time() {
        let t = Timer::start();
        assert!(t.elapsed_secs() >= 0.0);
        assert!(t.elapsed() <= Duration::from_secs(60));
    }

    #[test]
    fn format_duration_scales_units() {
        assert!(format_duration(Duration::from_secs(2)).ends_with(" s"));
        assert!(format_duration(Duration::from_millis(5)).ends_with(" ms"));
        assert!(format_duration(Duration::from_micros(7)).ends_with(" µs"));
    }

    #[test]
    fn measure_once_returns_value_and_time() {
        let (t, v) = measure_once(|| (0..1000u64).sum::<u64>());
        assert_eq!(v, 499500);
        assert!(t < Duration::from_secs(5));
    }

    #[test]
    fn measure_median_runs_the_requested_number_of_times() {
        let mut counter = 0usize;
        let (_, last) = measure_median(5, || {
            counter += 1;
            counter
        });
        assert_eq!(counter, 5);
        assert_eq!(last, 5);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_panics() {
        measure_median(0, || ());
    }
}
