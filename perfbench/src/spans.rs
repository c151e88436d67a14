//! The benchmark's own span recorder: the traced run wraps each call it
//! makes into a layer's public API in a span, keeps the spans in memory
//! and reduces them to per-layer self times when the run ends. Nothing
//! here reaches into the program; a span covers exactly one call the
//! benchmark made. Spans read the wall clock, like every host time the
//! benchmark reports.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.map`; `request` for the root.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Wall time the span covered, in nanoseconds.
    pub duration_ns: u64,
    /// Summed durations of its direct children, in nanoseconds.
    pub child_ns: u64,
}

impl Span {
    /// Time inside the span but outside its children. Spans nest as the
    /// recorder's closures do, on one thread, so children never overlap
    /// each other or outlast their parent.
    pub fn self_ns(&self) -> u64 {
        self.duration_ns - self.child_ns
    }
}

/// In-memory span log with a stack of open spans.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. `f` gets the recorder back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            parent,
            duration_ns: 0,
            child_ns: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        let out = f(self);
        let duration_ns = start.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id].duration_ns = duration_ns;
        if let Some(p) = parent {
            self.spans[p].child_ns += duration_ns;
        }
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals of self time and per-span durations.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Summed self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Every span's duration per name, in microseconds, in start order.
    pub durations_us: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerTimes {
    /// Reduces a span log.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut t = LayerTimes::default();
        for s in spans {
            *t.self_ns.entry(s.name).or_default() += s.self_ns();
            t.durations_us
                .entry(s.name)
                .or_default()
                .push(s.duration_ns as f64 / 1e3);
        }
        t
    }

    /// Summed self time of `name`, in seconds (0 when never recorded).
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    /// Durations of `name` in microseconds (empty when never recorded).
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations_us.get(name).map_or(&[], Vec::as_slice)
    }

    /// Summed duration of `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations(name).iter().sum::<f64>() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn busy(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_subtracts_only_child_coverage() {
        let mut rec = Recorder::new();
        rec.span("request", |rec| {
            busy(Duration::from_micros(200));
            rec.span("core.map", |rec| {
                busy(Duration::from_micros(300));
                rec.span("inner", |_| busy(Duration::from_micros(400)));
            });
            rec.span("isa.assemble", |_| busy(Duration::from_micros(100)));
        });
        // A later root span is no child of the first request.
        rec.span("request", |_| busy(Duration::from_micros(100)));
        let s = rec.spans();
        let names: Vec<&str> = s.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["request", "core.map", "inner", "isa.assemble", "request"]
        );
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0), None]
        );
        // The request loses exactly its two children's time; the
        // grandchild comes out of `core.map`, not out of the request.
        assert_eq!(
            s[0].self_ns(),
            s[0].duration_ns - s[1].duration_ns - s[3].duration_ns
        );
        assert_eq!(s[1].self_ns(), s[1].duration_ns - s[2].duration_ns);
        assert_eq!(s[2].self_ns(), s[2].duration_ns);
        assert_eq!(s[4].self_ns(), s[4].duration_ns);
        assert!(s[0].self_ns() >= 200_000 && s[1].self_ns() >= 300_000);
        // Self times of a tree add up to its root's duration.
        let tree: u64 = s[..4].iter().map(Span::self_ns).sum();
        assert_eq!(tree, s[0].duration_ns);
    }

    #[test]
    fn recorder_reduces_by_name() {
        let mut rec = Recorder::new();
        for _ in 0..2 {
            rec.span("request", |rec| {
                rec.span("engine.key", |_| ());
                rec.span("core.map", |_| busy(Duration::from_micros(50)));
            });
        }
        let t = LayerTimes::from_spans(rec.spans());
        assert_eq!(t.durations("request").len(), 2);
        assert_eq!(t.durations("core.map").len(), 2);
        assert_eq!(t.durations("missing").len(), 0);
        assert_eq!(t.self_s("missing"), 0.0);
        let layers = t.self_s("engine.key") + t.self_s("core.map");
        assert!((layers + t.self_s("request") - t.total_s("request")).abs() < 1e-6);
    }
}
