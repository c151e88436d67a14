//! # cmam-obs — zero-overhead tracing, metrics, and the warning hook
//!
//! Every other crate of the toolchain can afford to depend on this one:
//! it depends on nothing, and its instrumentation is **zero-cost when
//! disabled** — a [`span!`] site compiles to a single relaxed atomic
//! load (no timestamp is taken, nothing is allocated, no lock is
//! touched) and the metrics counters are only ever bumped at phase
//! boundaries (once per `map()`, once per batch, once per simulation),
//! never inside a hot loop. The golden suites pass with tracing on or
//! off, byte-identical: timestamps exist only in the recorder and never
//! feed a fingerprint or an artifact.
//!
//! Three facilities:
//!
//! * **Tracing spans** ([`span!`], [`trace`]) — hierarchical wall-clock
//!   spans recorded into per-thread ring buffers and exported as Chrome
//!   `chrome://tracing` / Perfetto JSON. Threads are identified by
//!   registration order and labeled (the [`cmam_pool`] workers label
//!   themselves `cmam-pool-N`), so a trace shows the engine's jobs on
//!   separate tracks. Enable with `CMAM_TRACE=1`, programmatically via
//!   [`enable_tracing`], or with the `--trace-out FILE` flag every
//!   experiment binary understands.
//!
//! * **Metrics** ([`metrics`]) — a process-wide registry of named atomic
//!   counters, gauges and power-of-two histograms (engine cache
//!   hits/misses, mapper search counters, pool steals, simulated
//!   cycles, per-phase latency). Always on: every metric is fed from an
//!   already-aggregated statistic at a phase boundary, so the hot paths
//!   never see a metrics instruction. Counter totals are deterministic
//!   across thread counts wherever the underlying statistic is
//!   (`pool.*` and the `phase.*` latency histograms are the documented
//!   exceptions). Dump with [`metrics::metrics_json`].
//!
//! * **Warnings** ([`warn!`]) — the one funnel for user-facing
//!   diagnostics that used to be scattered `eprintln!`s; every warning
//!   is counted (`obs.warnings`) so a sweep that produced them is
//!   distinguishable from one that did not.
//!
//! [`cmam_pool`]: ../cmam_pool/index.html

pub mod json;
pub mod metrics;
pub mod trace;

pub use trace::{
    chrome_trace_json, reset_trace, set_thread_label, validate_chrome_trace, write_chrome_trace,
    SpanGuard,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Tracing enable state: 0 = not yet initialized (consult `CMAM_TRACE`),
/// 1 = disabled, 2 = enabled.
static TRACE_STATE: AtomicU8 = AtomicU8::new(0);

/// Whether span recording is on. This is **the** per-site check the
/// zero-overhead contract is built on: one relaxed atomic load on the
/// (overwhelmingly common) initialized path.
#[inline]
pub fn tracing_enabled() -> bool {
    match TRACE_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_tracing_from_env(),
    }
}

/// First-call slow path: resolve the `CMAM_TRACE` environment variable
/// (any value except empty or `0` enables). Racing initializers agree
/// because the environment does not change.
#[cold]
fn init_tracing_from_env() -> bool {
    let on = std::env::var("CMAM_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
    let _ = TRACE_STATE.compare_exchange(
        0,
        if on { 2 } else { 1 },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    TRACE_STATE.load(Ordering::Relaxed) == 2
}

/// Turns span recording on (used by `--trace-out` and by tests).
pub fn enable_tracing() {
    TRACE_STATE.store(2, Ordering::Relaxed);
}

/// Turns span recording off again (tests only; recorded events stay in
/// the buffers until [`reset_trace`]).
pub fn disable_tracing() {
    TRACE_STATE.store(1, Ordering::Relaxed);
}

/// Emits a user-facing warning: counted in the `obs.warnings` metric,
/// rendered to stderr as `warning: …`. Use the [`warn!`] macro.
pub fn warn_str(msg: &str) {
    metrics::registry().counter("obs.warnings").add(1);
    eprintln!("warning: {msg}");
}

/// `warn!("--jobs expects a number")` — formats like `format!`, counts
/// the warning in the metrics registry, prints to stderr. The single
/// funnel every toolchain warning goes through.
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        $crate::warn_str(&format!($($arg)*))
    };
}

/// Opens a tracing span that closes when the returned guard drops.
///
/// ```
/// # fn map_block() {}
/// let _g = cmam_obs::span!("map_block", block = 3u64, ops = 17u64);
/// map_block();
/// // span ends here
/// ```
///
/// Arguments are `name = value` pairs where the value converts to `u64`
/// with `as`; they surface in the Chrome trace's `args` object. When
/// tracing is disabled the whole site is one relaxed atomic load and the
/// guard is inert — no clock read, no allocation.
#[macro_export]
macro_rules! span {
    ($name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::tracing_enabled() {
            $crate::trace::SpanGuard::enter($name, &[$((stringify!($k), ($v) as u64)),*])
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing_and_is_cheap() {
        disable_tracing();
        {
            let _g = span!("never", x = 1u64);
        }
        // No way to observe "no clock was read" directly, but the guard
        // must at least be inert: nothing new in the buffers.
        let before = trace::events_recorded();
        {
            let _g = span!("never_again");
        }
        assert_eq!(trace::events_recorded(), before);
    }

    #[test]
    fn warn_macro_counts_and_formats() {
        let c = metrics::registry().counter("obs.warnings");
        let before = c.get();
        crate::warn!("test warning {}", 42);
        assert_eq!(c.get(), before + 1);
    }
}
