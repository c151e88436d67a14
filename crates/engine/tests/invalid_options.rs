//! Mapper options that cannot drive a search are a deterministic
//! verdict, not a crash: the job settles on its first attempt as a
//! [`FailStage::Map`] failure, with no retry and nothing quarantined.

use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_engine::{Engine, EngineOptions, FailStage, JobRequest};

#[test]
fn a_zero_population_job_fails_at_the_map_stage_without_retries() {
    let specs = cmam_kernels::all();
    let spec = specs
        .iter()
        .find(|s| s.name == "DC Filter")
        .expect("DC Filter kernel");
    let config = CgraConfig::hom64();
    let mut request = JobRequest::flow(spec, FlowVariant::Basic, &config);
    request.options.population = 0;

    let engine = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    let failure = engine
        .run_one(&request)
        .expect_err("a zero population cannot map");
    assert_eq!(failure.stage, FailStage::Map, "{failure}");
    assert_eq!(failure.attempts, 1);
    assert!(!failure.retriable);
    assert!(failure.message.contains("population"), "{failure}");

    let stats = engine.stats();
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.quarantined, 0);
}
