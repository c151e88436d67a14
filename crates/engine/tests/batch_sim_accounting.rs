//! The batch-sim job kind's accounting: a sweep's compile half goes
//! through the same dedup/memo path as `run_one`, so `engine.stats()` and
//! every `engine.*` counter read the same as if each sweep had called
//! `run_one`, while the compiled binary is decoded once per engine.
//!
//! This file deliberately holds a single `#[test]`: the metrics registry
//! is process-global, so a sibling test feeding counters concurrently
//! would corrupt the deltas.

use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_engine::{BatchSimRequest, Engine, EngineOptions, EngineStats};
use std::collections::BTreeMap;

/// Every `engine.*` counter that moved across `run`, as `name -> increment`.
fn engine_counter_delta(run: impl FnOnce()) -> BTreeMap<&'static str, u64> {
    let snapshot = || -> BTreeMap<&'static str, u64> {
        cmam_obs::metrics::registry()
            .counter_snapshot()
            .into_iter()
            .filter(|(name, _)| name.starts_with("engine."))
            .collect()
    };
    let before = snapshot();
    run();
    snapshot()
        .into_iter()
        .map(|(name, v)| (name, v - before.get(name).copied().unwrap_or(0)))
        .filter(|&(_, d)| d > 0)
        .collect()
}

#[test]
fn sweeps_count_like_run_one_and_decode_once() {
    let spec = cmam_kernels::dc::spec();
    let config = CgraConfig::hom64();
    let engine = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    let decodes = cmam_obs::metrics::registry().histogram("phase.decode_us");
    let decodes_before = decodes.count();
    let mut outcomes = Vec::new();
    let delta = engine_counter_delta(|| {
        for input_seed in [1, 2, 2] {
            let request = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, input_seed, 4);
            outcomes.push(engine.run_batch_sim(&request).expect("DC maps on HOM64"));
        }
    });
    // Seed 1 compiles, seed 2 answers its compile from the memo table,
    // and the repeated seed 2 is a sweep memo hit that compiles nothing.
    assert_eq!(
        engine.stats(),
        EngineStats {
            submitted: 2,
            executed: 1,
            maps: 1,
            memory_hits: 1,
            ..EngineStats::default()
        }
    );
    let want: BTreeMap<&str, u64> = [
        ("engine.batches", 2),
        ("engine.submitted", 2),
        ("engine.executed", 1),
        ("engine.memory_hits", 1),
        ("engine.batch_sim.submitted", 3),
        ("engine.batch_sim.executed", 2),
        ("engine.batch_sim.memory_hits", 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(delta, want);
    // Two sweeps executed on one decode, and both report its wall time.
    assert_eq!(decodes.count() - decodes_before, 1);
    assert_eq!(outcomes[0].decode_time, outcomes[1].decode_time);
    assert_eq!(outcomes[1], outcomes[2]);
    assert_ne!(outcomes[0].mem_digests, outcomes[1].mem_digests);
}
