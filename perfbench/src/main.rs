//! `cmam_perfbench` — the repository's benchmark: what a user of the
//! toolchain waits for, end to end, and where a traced run's time goes
//! layer by layer. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_compile --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`
//! with every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). A run whose checks fail prints it with
//! `"correct": false` and exits non-zero.

mod cold_compile;
mod common;
mod dse_search;
mod input_sweep;
mod layers;
mod spans;
mod stats;

use common::{Args, Outcome};
use std::process::ExitCode;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("memo_hit_us_p50", "us"),
    ("disk_hit_us_p50", "us"),
    ("peak_rss_mb", "MB"),
    ("context_words_geomean", "words"),
    ("sim_cycles_geomean", "cycles"),
    ("energy_nj_geomean", "nJ"),
    ("mapped_frac", "1"),
    ("ok_frac", "1"),
    ("frontier_hv", "1"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.map_ms_p50", "ms"),
    ("core.map_share", "1"),
    ("core.candidates_per_s", "1/s"),
    ("core.attempts", "count"),
    ("core.candidates", "count"),
    ("core.rollbacks", "count"),
    ("core.accept_frac", "1"),
    ("core.escalations", "count"),
    ("core.fail_map_ms_p50", "ms"),
    ("isa.assemble_us_p50", "us"),
    ("isa.assemble_share", "1"),
    ("isa.context_words", "count"),
    ("sim.decode_us_p50", "us"),
    ("sim.solo_us_p50", "us"),
    ("sim.batch_share", "1"),
    ("sim.batch_mcycles_per_s", "1/s"),
    ("sim.cohort_lanes_mean", "count"),
    ("sim.divergences", "count"),
    ("engine.key_us_p50", "us"),
    ("engine.images_us_p50", "us"),
    ("engine.encode_us_p50", "us"),
    ("engine.parse_us_p50", "us"),
    ("engine.disk_load_us_p50", "us"),
    ("engine.artifact_bytes_mean", "bytes"),
    ("engine.overhead_share", "1"),
    ("engine.memo_hit_us_p90", "us"),
    ("engine.disk_hit_us_p90", "us"),
    ("search.executed", "count"),
    ("search.evals_frac", "1"),
    ("search.promoted", "count"),
    ("search.raced", "count"),
    ("search.dominated", "count"),
    ("search.infeasible", "count"),
    ("pool.busy_frac", "1"),
    ("trace.coverage", "1"),
    ("trace.overhead", "1"),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload cold_compile|dse_search|input_sweep --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = common::check_environment() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if args.setup_only {
        match args.workload.as_str() {
            "cold_compile" => cold_compile::setup_only(&args),
            "dse_search" => dse_search::setup_only(),
            "input_sweep" => input_sweep::setup_only(),
            other => {
                eprintln!("perfbench: unknown workload {other:?}");
                return ExitCode::from(2);
            }
        }
        return ExitCode::SUCCESS;
    }
    let outcome = match args.workload.as_str() {
        "cold_compile" => cold_compile::run(&args),
        "dse_search" => dse_search::run(&args),
        "input_sweep" => input_sweep::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    report(&args, outcome)
}

/// Prints the seed, the digest and the result line; the exit code says
/// whether every check passed.
fn report(args: &Args, mut outcome: Outcome) -> ExitCode {
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in wanted {
        match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            Some(v) => outcome.fail_check(format!("metric {name} is {v}")),
            None => outcome.fail_check(format!("metric {name} was not measured")),
        }
    }
    let correct = outcome.check_failures.is_empty() && outcome.failed == 0;
    println!(
        "workload={} seed={} digest={:016x}",
        args.workload, args.seed, outcome.digest
    );
    let metrics: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("{name:?}: {{\"value\": {v:?}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed here are the ones the
    /// repository's `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = cmam_obs::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, ours) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("a metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|v| v.as_str()).expect("a name"),
                        m.get("unit").and_then(|v| v.as_str()).expect("a unit"),
                    )
                })
                .collect();
            assert_eq!(declared, ours.to_vec(), "{key}");
        }
    }
}
