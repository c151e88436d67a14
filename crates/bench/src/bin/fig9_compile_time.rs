//! Fig 9: compilation time of each cumulative flow step, averaged over
//! the kernels, normalised to the basic mapping. The paper reports an
//! average of 1.8x for the full flow (17 s -> 30 s absolute).
//!
//! Compile times come out of the engine's [`cmam_bench::RunOutcome`] /
//! [`cmam_bench::JobFailure`], which time the mapper search when the job
//! executes. Because this binary *measures wall-clock*, it uses its own
//! sequential, uncached engine: parallel workers would contend for cores
//! and inflate every measurement, and a cache hit would report another
//! run's timing. (`--jobs` is therefore ignored here.) Failed searches
//! still consume compile time and are counted, as in the paper's setup.

use cmam_arch::CgraConfig;
use cmam_bench::{emit_table, Engine, EngineOptions, JobRequest};
use cmam_core::FlowVariant;
use std::time::Duration;

/// Averaged wall-clock per pipeline phase plus the timing-noise-free
/// search-effort counters (candidates generated, peak candidate pool,
/// rollbacks) over the kernel set.
struct Effort {
    time: Duration,
    assemble: Duration,
    simulate: Duration,
    candidates: u64,
    peak_population: u64,
    rollbacks: u64,
}

fn time_variant(engine: &Engine, variant: FlowVariant, config: &CgraConfig) -> Effort {
    let specs = cmam_kernels::all();
    let requests: Vec<JobRequest> = specs
        .iter()
        .map(|s| JobRequest::flow(s, variant, config))
        .collect();
    let mut effort = Effort {
        time: Duration::ZERO,
        assemble: Duration::ZERO,
        simulate: Duration::ZERO,
        candidates: 0,
        peak_population: 0,
        rollbacks: 0,
    };
    for r in engine.run_batch(&requests) {
        match r {
            Ok(out) => {
                effort.time += out.compile_time;
                effort.assemble += out.assemble_time;
                effort.simulate += out.sim_time;
                effort.candidates += out.map_stats.candidates;
                effort.peak_population = effort.peak_population.max(out.map_stats.peak_population);
                effort.rollbacks += out.map_stats.rollbacks;
            }
            // Timing covers the search whether or not it finds a solution
            // (failed searches still consume compile time).
            Err(f) => effort.time += f.compile_time,
        }
    }
    effort.time /= specs.len() as u32;
    effort.assemble /= specs.len() as u32;
    effort.simulate /= specs.len() as u32;
    effort
}

fn main() {
    cmam_bench::cli::parse("fig9_compile_time", &[]);
    let _obs = cmam_bench::obs_session("fig9_compile_time");
    println!("# Fig 9: average compilation time per flow step\n");
    // A sequential, uncached engine: timing must be contention- and
    // memoisation-free.
    let engine = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    // The aware variants compile for HET1 (a constrained target); the
    // basic flow compiles for HOM64, as in the paper's setup.
    let base = time_variant(&engine, FlowVariant::Basic, &CgraConfig::hom64());
    let row = |label: String, e: &Effort, base_secs: f64| {
        vec![
            label,
            format!("{:.0} ms", e.time.as_secs_f64() * 1e3),
            format!("{:.2}", e.time.as_secs_f64() / base_secs),
            format!("{:.2} ms", e.assemble.as_secs_f64() * 1e3),
            format!("{:.2} ms", e.simulate.as_secs_f64() * 1e3),
            e.candidates.to_string(),
            e.peak_population.to_string(),
            e.rollbacks.to_string(),
        ]
    };
    let base_secs = base.time.as_secs_f64();
    let mut rows = vec![row("basic".to_owned(), &base, base_secs)];
    for variant in [
        FlowVariant::Weighted,
        FlowVariant::Acmap,
        FlowVariant::Ecmap,
        FlowVariant::Cab,
    ] {
        let e = time_variant(&engine, variant, &CgraConfig::het1());
        rows.push(row(variant.to_string(), &e, base_secs));
    }
    // The per-phase columns (`asm`, `sim`) make a regression in any
    // pipeline stage visible, not just the mapper; the three rightmost
    // columns measure search effort in counters, not seconds — they
    // compare across machines and stay stable under load.
    emit_table(
        &[
            "Flow",
            "avg map / kernel",
            "vs basic",
            "asm",
            "sim",
            "candidates",
            "peak pop",
            "rollbacks",
        ],
        &rows,
    );
    println!("\n(paper: full flow 1.8x the basic flow, 17 s -> 30 s absolute)");
}
