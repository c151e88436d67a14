//! Ablation (beyond the paper): how the stochastic-pruning population cap
//! trades compilation time against mapping quality. The paper fixes the
//! pruning threshold; this sweep justifies the default (population 24) by
//! showing diminishing latency returns beyond it.
//!
//! Each (population, kernel) point is an engine job with a custom
//! [`cmam_core::MapperOptions`] set — the content hash covers every knob.
//! The "Compile time" column is a wall-clock measurement, so this binary
//! uses a sequential, uncached engine (parallel workers would contend for
//! cores and a cache hit would report another run's timing); `--jobs` is
//! ignored here.

use cmam_arch::CgraConfig;
use cmam_bench::{emit_table, Engine, EngineOptions, JobRequest};
use cmam_core::FlowVariant;

fn main() {
    cmam_bench::cli::parse("ablation_population", &[]);
    let _obs = cmam_bench::obs_session("ablation_population");
    println!("# Ablation: stochastic-pruning population cap (full flow, HET1)\n");
    let config = CgraConfig::het1();
    let specs = [cmam_kernels::fft::spec(), cmam_kernels::matm::spec()];
    let populations = [4usize, 8, 16, 24, 48];
    let mut requests = Vec::new();
    for &population in &populations {
        for spec in &specs {
            let mut options = FlowVariant::Cab.options();
            options.population = population;
            options.expansion = (population / 3).max(2);
            requests.push(JobRequest {
                spec,
                config: &config,
                options,
            });
        }
    }
    let engine = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    let results = engine.run_batch(&requests);
    let mut rows = Vec::new();
    for (req, result) in requests.iter().zip(&results) {
        match result {
            Ok(out) => {
                let total_len: usize = out.binary.block_lengths.iter().sum();
                rows.push(vec![
                    req.options.population.to_string(),
                    req.spec.name.to_owned(),
                    total_len.to_string(),
                    out.report.total_moves().to_string(),
                    out.report.total_pnops().to_string(),
                    format!("{:.0} ms", out.compile_time.as_secs_f64() * 1e3),
                ]);
            }
            Err(e) => rows.push(vec![
                req.options.population.to_string(),
                req.spec.name.to_owned(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("fail: {e}"),
            ]),
        }
    }
    emit_table(
        &[
            "Population",
            "Kernel",
            "Σ block len",
            "Moves",
            "Pnops",
            "Compile time",
        ],
        &rows,
    );
    println!("\n(larger populations explore more partial mappings: better schedules,");
    println!(" slower compiles; the default 24 sits at the knee)");
}
