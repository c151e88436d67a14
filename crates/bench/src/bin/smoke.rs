//! Smoke check: maps, assembles and simulates every kernel under the basic
//! flow on `hom64` and the full context-aware flow on `het1`/`het2`,
//! printing per-run cycle counts and context-word accounting. Run this
//! first after any mapper or simulator change.
//!
//! The whole matrix is submitted as one engine batch, so it runs in
//! parallel (`--jobs N`) and memoises into `target/cmam-cache/`. Stdout is
//! deliberately free of wall-clock noise: a cached re-run, or a run with a
//! different `--jobs` count, must produce byte-identical output (CI diffs
//! two consecutive runs). Timing and engine counters go to stderr.
//!
//! `--generated N [--seed S] [--profile P]` appends N generated kernels to
//! the matrix — the one-command replay path for a failing CI seed:
//! `smoke --generated 1 --seed 0x<seed>` (see `gen_suite --kernel-seed`
//! for single-kernel replay at an exact generation seed). Without the
//! flag, output is byte-identical to before the flag existed.

use cmam_bench::cli::{self, GENERATED, PROFILE, SEED};
use cmam_bench::{engine, smoke_matrix, GenCli, JobRequest};
use std::time::Instant;

fn main() {
    let args = cli::parse("smoke", &[GENERATED, SEED, PROFILE]);
    let _obs = cmam_bench::obs_session("smoke").with_metrics();
    let mut specs = cmam_kernels::all();
    specs.extend(GenCli::from_flags(&args).specs());
    let matrix = smoke_matrix();
    let mut requests = Vec::new();
    let mut labels = Vec::new();
    for spec in &specs {
        for (variant, config) in &matrix {
            requests.push(JobRequest::flow(spec, *variant, config));
            labels.push(variant.to_string());
        }
    }
    let t0 = Instant::now();
    let results = engine().run_batch(&requests);
    let elapsed = t0.elapsed();
    for ((req, label), result) in requests.iter().zip(&labels).zip(&results) {
        match result {
            Err(e) => println!(
                "{:<14} {:<8} {:<22} FAIL {e}",
                req.spec.name,
                req.config.name(),
                label
            ),
            Ok(out) => println!(
                "{:<14} {:<8} {:<22} OK  cycles={} maxwords={} moves={} pnops={}",
                req.spec.name,
                req.config.name(),
                label,
                out.cycles,
                out.binary.max_context_words(),
                out.report.total_moves(),
                out.report.total_pnops(),
            ),
        }
    }
    // Wall-clock to stderr (stdout stays deterministic); the cache
    // outcome line and METRICS block follow from the obs session drop.
    eprintln!(
        "smoke: {} jobs in {elapsed:?} on {} workers",
        requests.len(),
        engine().workers(),
    );
}
