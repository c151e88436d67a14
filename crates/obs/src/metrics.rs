//! The process-wide metrics registry: named atomic counters, gauges,
//! and power-of-two latency histograms.
//!
//! ## Always on, never hot
//!
//! Unlike tracing there is no enable flag: every metric is fed from an
//! **already-aggregated** statistic at a phase boundary — the mapper
//! flushes its `MapStats` once per `map()`, the engine flushes a batch's
//! cache outcome once per `run_batch()`, the simulator flushes counters
//! it accumulated in locals once per `simulate()`. The inner loops never
//! execute a metrics instruction, so the registry costs nothing
//! measurable even when nobody reads it.
//!
//! ## Determinism
//!
//! Counter totals mirror the underlying statistics, which are pure
//! functions of the work done, not of how many jobs ran at once — so
//! `mapper.*`, `engine.*` and `sim.*` totals are equal for `--jobs 1`
//! and `--jobs 4` on the same work. The documented exceptions are
//! scheduling-dependent or timed by nature: `pool.*` (who stole how many
//! chunks), the `mapper.stage_ns.*` stage timers and the `phase.*` /
//! `batch.*` latency histograms (wall-clock). [`metrics_json`] renders
//! names sorted, so two deterministic runs produce byte-identical
//! documents modulo those families.
//!
//! ## Site caching
//!
//! Metric lookup takes a registry lock, so call sites that fire more
//! than once per phase should resolve their metric once: handles are
//! `&'static` (leaked on first registration) and can be cached in a
//! `OnceLock`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

const RELAXED: Ordering = Ordering::Relaxed;

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.0.fetch_add(n, RELAXED);
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(RELAXED)
    }
}

/// A last-writer-wins signed gauge (peaks, sizes, levels).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, RELAXED);
    }

    /// Raises the gauge to `v` if `v` is larger (lock-free running max).
    pub fn raise(&self, v: i64) {
        self.0.fetch_max(v, RELAXED);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(RELAXED)
    }
}

/// Histogram bucket count: one bucket per power of two of the recorded
/// value (bucket `i` holds values with `ilog2 == i`), plus bucket 0 for
/// zero. Covers the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two histogram of `u64` samples (typically microseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        let bucket = match v {
            0 => 0,
            v => v.ilog2() as usize + 1,
        };
        self.buckets[bucket].fetch_add(1, RELAXED);
        self.count.fetch_add(1, RELAXED);
        self.sum.fetch_add(v, RELAXED);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(RELAXED)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(RELAXED)
    }

    /// `(bucket_upper_bound, count)` for every non-empty bucket; bucket 0
    /// is the exact-zero bucket.
    pub fn nonempty_buckets(&self) -> Vec<(u64, u64)> {
        (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let n = self.buckets[i].load(RELAXED);
                if n == 0 {
                    return None;
                }
                let upper = match i {
                    0 => 0,
                    64 => u64::MAX,
                    i => (1u64 << i) - 1,
                };
                Some((upper, n))
            })
            .collect()
    }
}

/// One registered metric.
#[derive(Debug)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

/// The registry: name → metric, names sorted for deterministic dumps.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<std::collections::BTreeMap<&'static str, Metric>>,
}

impl Registry {
    /// The counter named `name`, registered on first use. Panics if the
    /// name is already registered as a different metric kind.
    pub fn counter(&self, name: &'static str) -> &'static Counter {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        match m
            .entry(name)
            .or_insert_with(|| Metric::Counter(Box::leak(Box::default())))
        {
            Metric::Counter(c) => c,
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The gauge named `name`, registered on first use.
    pub fn gauge(&self, name: &'static str) -> &'static Gauge {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        match m
            .entry(name)
            .or_insert_with(|| Metric::Gauge(Box::leak(Box::default())))
        {
            Metric::Gauge(g) => g,
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The histogram named `name`, registered on first use.
    pub fn histogram(&self, name: &'static str) -> &'static Histogram {
        let mut m = self.metrics.lock().expect("metrics registry poisoned");
        match m
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Box::leak(Box::default())))
        {
            Metric::Histogram(h) => h,
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Snapshot of every counter total, sorted by name (tests and the
    /// determinism gate).
    pub fn counter_snapshot(&self) -> Vec<(&'static str, u64)> {
        let m = self.metrics.lock().expect("metrics registry poisoned");
        m.iter()
            .filter_map(|(name, metric)| match metric {
                Metric::Counter(c) => Some((*name, c.get())),
                _ => None,
            })
            .collect()
    }
}

/// The process-wide registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Renders every registered metric as one JSON object, names sorted:
/// counters as numbers, gauges as numbers, histograms as
/// `{"count", "sum", "buckets": [[upper, n], …]}`. This is the payload
/// of the `METRICS` block the experiment binaries print.
pub fn metrics_json() -> String {
    let reg = registry();
    let m = reg.metrics.lock().expect("metrics registry poisoned");
    let mut out = String::from("{");
    for (i, (name, metric)) in m.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n  \"{name}\": "));
        match metric {
            Metric::Counter(c) => out.push_str(&c.get().to_string()),
            Metric::Gauge(g) => out.push_str(&g.get().to_string()),
            Metric::Histogram(h) => {
                out.push_str(&format!(
                    "{{\"count\": {}, \"sum\": {}, \"buckets\": [",
                    h.count(),
                    h.sum()
                ));
                for (j, (upper, n)) in h.nonempty_buckets().iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{upper},{n}]"));
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("\n}\n");
    out
}

/// `counter!("engine.cache.hits").add(n)` — resolves the counter once
/// per call site (a hidden `OnceLock` caches the handle), so repeated
/// hits skip the registry lock.
#[macro_export]
macro_rules! counter {
    ($name:literal) => {{
        static SITE: std::sync::OnceLock<&'static $crate::metrics::Counter> =
            std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::registry().counter($name))
    }};
}

/// `gauge!("mapper.peak_population").raise(v)` — site-cached gauge
/// handle, see [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:literal) => {{
        static SITE: std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::registry().gauge($name))
    }};
}

/// `histogram!("phase.map_us").record(us)` — site-cached histogram
/// handle, see [`counter!`].
#[macro_export]
macro_rules! histogram {
    ($name:literal) => {{
        static SITE: std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::metrics::registry().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        registry().counter("test.metrics.b").add(2);
        registry().counter("test.metrics.a").add(1);
        registry().counter("test.metrics.b").add(3);
        let snap = registry().counter_snapshot();
        let a = snap.iter().position(|(n, _)| *n == "test.metrics.a");
        let b = snap.iter().position(|(n, _)| *n == "test.metrics.b");
        assert!(a.expect("a registered") < b.expect("b registered"));
        assert_eq!(registry().counter("test.metrics.b").get(), 5);
    }

    #[test]
    fn gauge_raise_is_a_running_max() {
        let g = registry().gauge("test.metrics.gauge");
        g.set(10);
        g.raise(5);
        assert_eq!(g.get(), 10);
        g.raise(25);
        assert_eq!(g.get(), 25);
    }

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        let buckets = h.nonempty_buckets();
        // 0 → bucket 0; 1 → (1,1); 2,3 → (3,2); 1024 → (2047,1).
        assert_eq!(buckets, vec![(0, 1), (1, 1), (3, 2), (2047, 1)]);
    }

    #[test]
    fn site_macros_resolve_to_the_registry() {
        crate::counter!("test.metrics.site").add(7);
        assert_eq!(registry().counter("test.metrics.site").get(), 7);
        crate::histogram!("test.metrics.hist").record(100);
        assert_eq!(registry().histogram("test.metrics.hist").count(), 1);
    }

    #[test]
    fn metrics_json_is_parseable_and_sorted() {
        registry().counter("test.metrics.json").add(1);
        registry().histogram("test.metrics.json_hist").record(42);
        let text = metrics_json();
        let doc = crate::json::parse(&text).expect("metrics dump parses");
        assert!(doc.get("test.metrics.json").is_some());
        let hist = doc.get("test.metrics.json_hist").expect("histogram");
        assert_eq!(
            hist.get("count").and_then(crate::json::Value::as_f64),
            Some(1.0)
        );
    }
}
