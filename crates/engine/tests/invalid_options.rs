//! Mapper options that cannot drive a search are a deterministic
//! verdict, not a crash: the job settles on its first attempt as a
//! [`FailStage::Map`] failure, with no retry and nothing quarantined.

use cmam_arch::CgraConfig;
use cmam_core::{FlowVariant, MapperOptions};
use cmam_engine::{Engine, EngineOptions, FailStage, JobRequest};

/// Runs DC Filter on HOM64 with `tweak` applied to the basic flow's
/// options and checks that the job settles as a first-attempt map
/// failure whose message names `knob`.
fn assert_settles_at_map(tweak: impl FnOnce(&mut MapperOptions), knob: &str) {
    let specs = cmam_kernels::all();
    let spec = specs
        .iter()
        .find(|s| s.name == "DC Filter")
        .expect("DC Filter kernel");
    let config = CgraConfig::hom64();
    let mut request = JobRequest::flow(spec, FlowVariant::Basic, &config);
    tweak(&mut request.options);

    let engine = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    let failure = engine
        .run_one(&request)
        .expect_err("these options cannot map");
    assert_eq!(failure.stage, FailStage::Map, "{failure}");
    assert_eq!(failure.attempts, 1);
    assert!(!failure.retriable);
    assert!(failure.message.contains(knob), "{failure}");

    let stats = engine.stats();
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.quarantined, 0);
}

#[test]
fn a_zero_population_job_fails_at_the_map_stage_without_retries() {
    assert_settles_at_map(|o| o.population = 0, "population");
}

/// A huge schedule bound once panicked ("capacity overflow") or aborted
/// the whole process on a failed allocation before the search started.
#[test]
fn a_huge_schedule_bound_fails_at_the_map_stage_without_retries() {
    for max_schedule in [usize::MAX, 1 << 33] {
        assert_settles_at_map(|o| o.max_schedule = max_schedule, "max_schedule");
    }
}
