//! The metrics layer's determinism contract: for the semantic counter
//! namespaces (`mapper.*`, `sim.*`, `engine.*`), the counter deltas of a
//! batch, and of an input sweep cut into lane chunks, are a pure function
//! of the submitted jobs — the engine worker count must not leak into
//! them, nor the order in which the jobs of one flow family meet the
//! engine, which at more than one worker is a matter of scheduling. The scheduling-shaped namespaces
//! (`pool.*`, the `phase.*`/`batch.*` latency histograms and
//! `obs.warnings`) are documented as nondeterministic and excluded, and
//! so are the mapper's `mapper.stage_ns.*` stage timers: they count
//! nanoseconds, not search decisions.
//!
//! This file deliberately holds a single `#[test]`: the metrics registry
//! is process-global, so a sibling test feeding counters concurrently
//! would corrupt the deltas.

use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_engine::{BatchSimRequest, Engine, EngineOptions, JobRequest};
use std::collections::BTreeMap;

/// Counters in the namespaces whose totals are promised deterministic.
fn semantic_counters() -> BTreeMap<&'static str, u64> {
    cmam_obs::metrics::registry()
        .counter_snapshot()
        .into_iter()
        .filter(|(name, _)| {
            name.starts_with("mapper.") || name.starts_with("sim.") || name.starts_with("engine.")
        })
        // Wall-time stage timers, not search semantics.
        .filter(|(name, _)| !name.starts_with("mapper.stage_ns."))
        .collect()
}

/// Per-counter delta across a closure, as `name -> increment`.
fn counter_delta(run: impl FnOnce()) -> BTreeMap<&'static str, u64> {
    let before = semantic_counters();
    run();
    semantic_counters()
        .into_iter()
        .map(|(name, v)| (name, v - before.get(name).copied().unwrap_or(0)))
        .collect()
}

#[test]
fn counter_deltas_are_identical_across_worker_counts() {
    let specs = cmam_kernels::all();
    let matrix = cmam_engine::smoke_matrix();
    let requests: Vec<JobRequest> = specs
        .iter()
        .flat_map(|s| matrix.iter().map(move |(v, c)| JobRequest::flow(s, *v, c)))
        .collect();
    // 300 lanes run as two chunks of 150, on up to two workers.
    let config = cmam_arch::CgraConfig::het1();
    let sweep = BatchSimRequest::flow(&specs[0], FlowVariant::Cab, &config, 7, 300);

    // Fresh engines, no disk cache: both runs execute every job, so the
    // deltas measure the full pipeline and not a cache short-circuit.
    let sequential = counter_delta(|| {
        let engine = Engine::new(EngineOptions {
            jobs: 1,
            cache_dir: None,
            cache_bytes: None,
        });
        engine.run_batch(&requests);
        engine.run_batch_sim(&sweep).expect("FIR maps on HET1");
    });
    let parallel = counter_delta(|| {
        let engine = Engine::new(EngineOptions {
            jobs: 4,
            cache_dir: None,
            cache_bytes: None,
        });
        engine.run_batch(&requests);
        engine.run_batch_sim(&sweep).expect("FIR maps on HET1");
    });

    assert!(
        sequential.get("engine.executed").copied().unwrap_or(0) >= requests.len() as u64,
        "sequential run was supposed to execute the whole batch: {sequential:?}"
    );
    assert!(
        sequential.get("mapper.maps").copied().unwrap_or(0) > 0,
        "mapper counters were supposed to be fed: {sequential:?}"
    );
    assert_eq!(
        sequential.get("sim.batch.calls").copied(),
        Some(2),
        "the sweep was supposed to run as two chunks: {sequential:?}"
    );

    let mut diffs = Vec::new();
    for (name, seq) in &sequential {
        let par = parallel.get(name).copied().unwrap_or(0);
        if *seq != par {
            diffs.push(format!("  {name}: jobs=1 -> {seq}, jobs=4 -> {par}"));
        }
    }
    for name in parallel.keys() {
        if !sequential.contains_key(name) {
            diffs.push(format!("  {name}: only appeared in the jobs=4 run"));
        }
    }
    assert!(
        diffs.is_empty(),
        "semantic counter deltas diverged across worker counts:\n{}",
        diffs.join("\n")
    );

    flow_family_orders_feed_the_same_counters();
}

/// Every counter that differs between `earlier` and `later`, as a
/// `name: earlier -> later` line.
fn diff(earlier: &BTreeMap<&'static str, u64>, later: &BTreeMap<&'static str, u64>) -> Vec<String> {
    let names: std::collections::BTreeSet<_> = earlier.keys().chain(later.keys()).collect();
    names
        .into_iter()
        .filter(|name| earlier.get(*name) != later.get(*name))
        .map(|name| format!("  {name}: {:?} -> {:?}", earlier.get(name), later.get(name)))
        .collect()
}

/// DC Filter needs more than 4 context words on some tile under every
/// flow, so an ACMAP job on 4 words lies outside the region of the
/// weighted job's full-flow map on unbounded memory: whichever of the two
/// meets the engine first runs that map, and the ACMAP job maps its own
/// flow besides. Only the map that answers a job may feed `mapper.*`, so
/// both orders, and the batch at two workers, feed the same counters.
fn flow_family_orders_feed_the_same_counters() {
    let spec = cmam_kernels::dc::spec();
    let config = CgraConfig::builder(4, 4)
        .name("U4")
        .uniform_cm(4)
        .build()
        .expect("valid");
    let acmap = JobRequest::flow(&spec, FlowVariant::Acmap, &config);
    let weighted = JobRequest::flow(&spec, FlowVariant::Weighted, &config);
    let run = |jobs: usize, batch: &[JobRequest<'_>]| {
        let engine = Engine::new(EngineOptions {
            jobs,
            cache_dir: None,
            cache_bytes: None,
        });
        let delta = counter_delta(|| {
            engine.run_batch(batch);
        });
        (delta, engine.stats())
    };
    let (acmap_first, stats) = run(1, &[acmap.clone(), weighted.clone()]);
    assert_eq!(
        (stats.maps, stats.region_hits),
        (2, 1),
        "the ACMAP job runs the full-flow map and its own, the weighted job neither: {stats:?}"
    );
    assert_eq!(
        acmap_first.get("mapper.maps").copied(),
        Some(2),
        "one map's statistics per job: {acmap_first:?}"
    );
    let (weighted_first, _) = run(1, &[weighted.clone(), acmap.clone()]);
    let (together, _) = run(2, &[acmap, weighted]);
    for (name, other) in [
        ("the weighted job first", &weighted_first),
        ("both at two workers", &together),
    ] {
        let diffs = diff(&acmap_first, other);
        assert!(
            diffs.is_empty(),
            "counters moved between the ACMAP job first and {name}:\n{}",
            diffs.join("\n")
        );
    }
}
