//! Search correctness: the successive-halving scheduler must recover
//! the exact exhaustive Pareto frontier on the legacy validation space,
//! bit-identically at any thread count, and a killed search resumed
//! over the same artifact store must not re-execute finished jobs.

use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_engine::search::{pareto_frontier, run_search, ConfigStatus, SearchOptions};
use cmam_engine::{Engine, EngineOptions, JobRequest, RunOutcome};
use cmam_kernels::KernelSpec;
use std::path::PathBuf;

/// A deterministic stand-in for the paper's energy model (the engine
/// crate has no energy model; `cmam_bench` injects the real one). Any
/// strictly positive function of (config, outcome) works for frontier
/// recovery, as long as search and exhaustive use the same one. Scaling
/// cycles by the CM provisioning creates a genuine energy/latency
/// trade-off across the space.
fn test_energy(configs: &[CgraConfig]) -> impl Fn(usize, usize, &RunOutcome) -> f64 + '_ {
    |ci, _ki, out| {
        let words = configs[ci].total_cm_words() as f64;
        out.cycles as f64 * (1.0 + words / 256.0)
    }
}

/// Three cheapest paper kernels: plenty for a frontier, cheap in debug.
fn test_specs() -> Vec<KernelSpec> {
    let mut specs = cmam_kernels::all();
    specs.sort_by_key(|s| s.cdfg.total_ops());
    specs.truncate(3);
    specs
}

fn uncached_engine(jobs: usize) -> Engine {
    Engine::new(EngineOptions {
        jobs,
        cache_dir: None,
        cache_bytes: None,
    })
}

/// Exhaustive sweep: every (config, kernel) job, full sums in kernel
/// index order, frontier over feasible configs — mirrors `dse_pareto
/// --exhaustive`.
fn exhaustive(
    engine: &Engine,
    specs: &[KernelSpec],
    configs: &[CgraConfig],
    energy_of: &dyn Fn(usize, usize, &RunOutcome) -> f64,
) -> (Vec<Option<(f64, u64)>>, Vec<usize>) {
    let mut totals: Vec<Option<(f64, u64)>> = Vec::new();
    for (ci, config) in configs.iter().enumerate() {
        let requests: Vec<JobRequest<'_>> = specs
            .iter()
            .map(|spec| JobRequest::flow(spec, FlowVariant::Cab, config))
            .collect();
        let results = engine.run_batch(&requests);
        let mut energy = 0.0;
        let mut cycles = 0u64;
        let mut feasible = true;
        for (ki, result) in results.iter().enumerate() {
            match result {
                Ok(out) => {
                    energy += energy_of(ci, ki, out);
                    cycles += out.cycles;
                }
                Err(_) => feasible = false,
            }
        }
        totals.push(feasible.then_some((energy, cycles)));
    }
    let points: Vec<(usize, f64, u64)> = totals
        .iter()
        .enumerate()
        .filter_map(|(ci, t)| t.map(|(e, c)| (ci, e, c)))
        .collect();
    let frontier = pareto_frontier(&points);
    (totals, frontier)
}

#[test]
fn search_recovers_the_exact_exhaustive_frontier() {
    let specs = test_specs();
    let configs = cmam_engine::dse::validation_space();
    let energy = test_energy(&configs);

    let (totals, want_frontier) = exhaustive(&uncached_engine(1), &specs, &configs, &energy);
    assert!(
        want_frontier.len() >= 2,
        "validation space should have a non-trivial frontier"
    );

    for threads in [1usize, 4] {
        let engine = uncached_engine(threads);
        let result = run_search(
            &engine,
            &specs,
            &configs,
            FlowVariant::Cab,
            &energy,
            &SearchOptions::default(),
        );
        assert!(!result.aborted);
        assert_eq!(
            result.frontier, want_frontier,
            "frontier mismatch at jobs={threads}"
        );
        // Frontier members are fully evaluated and bit-identical to the
        // exhaustive sums (same per-kernel values, same addition order).
        for &ci in &result.frontier {
            let eval = &result.evaluated[ci];
            assert_eq!(eval.status, ConfigStatus::Completed);
            let (we, wc) = totals[ci].expect("frontier members are feasible");
            assert_eq!(eval.energy.to_bits(), we.to_bits(), "config {ci}");
            assert_eq!(eval.cycles, wc, "config {ci}");
        }
        // The search must actually search: strictly fewer executions
        // than the exhaustive job count.
        assert!(
            (result.stats.engine.executed as usize) < specs.len() * configs.len(),
            "search executed everything at jobs={threads}"
        );
    }
}

#[test]
fn search_is_bit_identical_across_thread_counts() {
    let specs = test_specs();
    let configs = cmam_engine::dse::validation_space();
    let energy = test_energy(&configs);

    let run = |jobs: usize| {
        run_search(
            &uncached_engine(jobs),
            &specs,
            &configs,
            FlowVariant::Cab,
            &energy,
            &SearchOptions::default(),
        )
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(a.frontier, b.frontier);
    assert_eq!(a.stats.jobs_scheduled, b.stats.jobs_scheduled);
    for (x, y) in a.evaluated.iter().zip(&b.evaluated) {
        assert_eq!(x.status, y.status, "config {}", x.config_index);
        assert_eq!(x.energy.to_bits(), y.energy.to_bits());
        assert_eq!(x.cycles, y.cycles);
        assert_eq!(x.kernels_evaluated, y.kernels_evaluated);
    }
}

#[test]
fn killed_search_resumes_without_reexecuting_finished_jobs() {
    let specs = test_specs();
    let configs = cmam_engine::dse::validation_space();
    let energy = test_energy(&configs);
    let dir: PathBuf = std::env::temp_dir().join(format!("cmam-dse-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cached = |jobs: usize| {
        Engine::new(EngineOptions {
            jobs,
            cache_dir: Some(dir.clone()),
            cache_bytes: None,
        })
    };

    // Kill the sweep partway through: enough budget for the first rung
    // plus a little, then abort.
    let killed = run_search(
        &cached(2),
        &specs,
        &configs,
        FlowVariant::Cab,
        &energy,
        &SearchOptions {
            max_jobs: Some(configs.len() + 5),
        },
    );
    assert!(killed.aborted);
    let first_executed = killed.stats.engine.executed;
    assert!(first_executed > 0);

    // Resume: a fresh engine (empty memo) over the same artifact store
    // replays the same deterministic schedule. Every job finished
    // before the kill must be a disk hit, not an execution.
    let resumed = run_search(
        &cached(2),
        &specs,
        &configs,
        FlowVariant::Cab,
        &energy,
        &SearchOptions::default(),
    );
    assert!(!resumed.aborted);
    assert_eq!(
        resumed.stats.engine.disk_hits, first_executed,
        "every pre-kill job must be answered from the artifact store"
    );

    // Together the two runs did exactly an uninterrupted run's work.
    let fresh = run_search(
        &uncached_engine(2),
        &specs,
        &configs,
        FlowVariant::Cab,
        &energy,
        &SearchOptions::default(),
    );
    assert_eq!(
        first_executed + resumed.stats.engine.executed,
        fresh.stats.engine.executed,
        "resume re-executed finished jobs"
    );
    assert_eq!(resumed.frontier, fresh.frontier);

    let _ = std::fs::remove_dir_all(&dir);
}
