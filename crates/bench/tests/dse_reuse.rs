//! The 100-config DSE search of `dse_pareto --search --space 100` (and of
//! perfbench's `dse_search`) reuses maps across register-file sizes: its
//! generated configurations vary each tile's RF and CRF next to its
//! context memory, and a job inside an earlier map's memory region does
//! not map. On one worker the engine meets the jobs in the search's
//! order, so the count is exact: 78 of the 261 executions, 26 when the
//! engine's map key held RF and CRF sizes.

use cmam_bench::{cgra_energy_of, RunOutcome};
use cmam_core::FlowVariant;
use cmam_engine::dse::{generate_space, SpaceParams, DEFAULT_SPACE_SEED};
use cmam_engine::search::{run_search, SearchOptions};
use cmam_engine::{Engine, EngineOptions};

#[test]
fn the_search_answers_jobs_across_register_file_sizes() {
    let specs = cmam_kernels::all();
    let space = generate_space(&SpaceParams {
        target: 100,
        seed: DEFAULT_SPACE_SEED,
    });
    let engine = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    let energy = |ci: usize, ki: usize, out: &RunOutcome| {
        cgra_energy_of(&specs[ki], &space[ci], out).total()
    };
    let result = run_search(
        &engine,
        &specs,
        &space,
        FlowVariant::Cab,
        &energy,
        &SearchOptions::default(),
    );
    let stats = result.stats.engine;
    assert_eq!(stats.executed, 261, "the search's schedule moved");
    assert!(
        stats.region_hits >= 75,
        "{} of {} executions inside a region",
        stats.region_hits,
        stats.executed
    );
}
