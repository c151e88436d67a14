//! Per-binary observability plumbing: what the `--trace-out` /
//! `--metrics` flags do, and the end-of-run summary every experiment
//! binary prints.
//!
//! Usage, right after [`cli::parse`](crate::cli::parse) in `main`:
//!
//! ```no_run
//! cmam_bench::cli::parse("smoke", &[]);
//! let _obs = cmam_bench::obs_session("smoke");
//! ```
//!
//! The returned guard reads the flags `main` parsed; on drop (end of
//! `main`) it emits, **to stderr** (stdout stays byte-identical for the
//! CI determinism diffs):
//!
//! * the one-line engine cache summary — submitted / dedup / memory hits
//!   / disk hits / executed (misses) / maps run / jobs answered in a
//!   certified region, tagged `cold`, `warm` or `mixed`
//!   so a first run is distinguishable from a cached re-run at a glance;
//! * with `--metrics` (or [`ObsSession::with_metrics`], the default for
//!   `smoke`, `dse_pareto`, `input_sweep` and `gen_suite`): a `METRICS`
//!   block holding the [`cmam_obs::metrics::metrics_json`] dump;
//! * with `--trace-out FILE`: the recorded Chrome trace, written to
//!   `FILE` (tracing is force-enabled for the run; `CMAM_TRACE=1`
//!   enables recording without choosing a file).

use std::path::PathBuf;

/// Guard returned by [`obs_session`]; emits the observability outputs on
/// drop.
#[must_use = "the session reports when dropped at the end of main"]
pub struct ObsSession {
    name: &'static str,
    trace_out: Option<PathBuf>,
    metrics: bool,
}

/// The session guard for the `--trace-out FILE` and `--metrics` flags
/// `main` parsed (neither, when nothing was parsed). When a trace file
/// was requested, span recording is enabled immediately.
pub fn obs_session(name: &'static str) -> ObsSession {
    let flags = crate::cli::shared();
    if flags.trace_out.is_some() {
        cmam_obs::enable_tracing();
    }
    ObsSession {
        name,
        trace_out: flags.trace_out,
        metrics: flags.metrics,
    }
}

impl ObsSession {
    /// Always print the `METRICS` block, even without `--metrics` — the
    /// default for the machine-read binaries (`smoke`, `dse_pareto`,
    /// `input_sweep`, `gen_suite`).
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// The engine cache summary line, or `None` when no engine ran.
    fn cache_summary(&self) -> Option<String> {
        let stats = crate::engine_if_started()?.stats();
        let temperature = temperature(&stats);
        Some(format!(
            "{}: engine cache: {} submitted, {} dedup, {} mem hits, {} disk hits, \
             {} executed, {} maps run, {} jobs answered in a certified region \
             ({temperature})",
            self.name,
            stats.submitted,
            stats.deduped,
            stats.memory_hits,
            stats.disk_hits,
            stats.executed,
            stats.maps,
            stats.region_hits,
        ))
    }

    /// The recovery summary line — only when something actually needed
    /// recovering (faults fired, retries happened, jobs were quarantined
    /// or artifacts healed), so ordinary runs stay quiet.
    fn recovery_summary(&self) -> Option<String> {
        let counter = |name| cmam_obs::metrics::registry().counter(name).get();
        let fired = counter("fault.fired");
        let retries = counter("engine.retries");
        let quarantined = counter("engine.quarantined");
        let healed = counter("engine.cache.corrupt_healed");
        let swept = counter("engine.cache.orphans_swept");
        if fired + retries + quarantined + healed + swept == 0 {
            return None;
        }
        Some(format!(
            "{}: engine recovery: {fired} faults injected, {retries} retries, \
             {quarantined} quarantined, {healed} artifacts healed, {swept} orphans swept",
            self.name,
        ))
    }
}

/// Classifies a run by its cache outcome: `cold` (everything executed),
/// `warm` (everything answered from a cache), `mixed`, or `idle` (no
/// submissions at all).
fn temperature(stats: &cmam_engine::EngineStats) -> &'static str {
    if stats.submitted == 0 {
        "idle"
    } else if stats.executed == 0 {
        "warm"
    } else if stats.memory_hits + stats.disk_hits == 0 {
        "cold"
    } else {
        "mixed"
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if let Some(line) = self.cache_summary() {
            eprintln!("{line}");
        }
        if let Some(line) = self.recovery_summary() {
            eprintln!("{line}");
        }
        if self.metrics {
            eprint!("METRICS {}", cmam_obs::metrics::metrics_json());
        }
        if let Some(path) = &self.trace_out {
            match cmam_obs::write_chrome_trace(path) {
                Ok(()) => eprintln!(
                    "{}: trace written to {} ({} events recorded)",
                    self.name,
                    path.display(),
                    cmam_obs::trace::events_recorded()
                ),
                Err(e) => cmam_obs::warn!("could not write {}: {e}", path.display()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmam_engine::EngineStats;

    #[test]
    fn temperature_distinguishes_cold_warm_mixed() {
        let stats = |submitted, memory_hits, disk_hits, executed| EngineStats {
            submitted,
            memory_hits,
            disk_hits,
            executed,
            ..EngineStats::default()
        };
        assert_eq!(temperature(&stats(0, 0, 0, 0)), "idle");
        assert_eq!(temperature(&stats(10, 0, 0, 10)), "cold");
        assert_eq!(temperature(&stats(10, 4, 6, 0)), "warm");
        assert_eq!(temperature(&stats(10, 0, 6, 4)), "mixed");
    }
}
