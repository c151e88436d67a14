//! An engine that answers jobs inside the memory regions of earlier maps
//! returns exactly what [`execute`] computes for every job, at one worker
//! and at two (where which jobs reuse a region depends on scheduling).
//!
//! Two batches over the seven paper kernels: Table I and the uniform
//! 4..=64-word scan under every flow, and the 100-config generated DSE
//! space under CAB, whose configurations also vary their register files.
//! Successes must agree on `content_digest` (binary, report, simulator
//! counters and `MapStats`), failures on stage and message.

use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_engine::dse::{generate_space, SpaceParams, DEFAULT_SPACE_SEED};
use cmam_engine::{execute, Engine, EngineOptions, EngineStats, JobRequest, JobResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn uniform(words: usize) -> CgraConfig {
    CgraConfig::builder(4, 4)
        .name(format!("U{words}"))
        .uniform_cm(words)
        .build()
        .expect("valid")
}

fn summary(result: &JobResult) -> String {
    match result {
        Ok(out) => format!("ok {:016x}", out.content_digest()),
        Err(f) => format!("{:?}: {}", f.stage, f.message),
    }
}

/// `execute` on every request, on two threads, in request order.
fn direct(requests: &[JobRequest<'_>]) -> Vec<String> {
    let out = Mutex::new(vec![String::new(); requests.len()]);
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = requests.get(i) else {
                    break;
                };
                let result = summary(&execute(request));
                out.lock().unwrap()[i] = result;
            });
        }
    });
    out.into_inner().unwrap()
}

/// Runs `requests` on a fresh engine at one worker and at two, checks
/// every result against `execute`, and returns the two engines' stats.
fn equals_direct_execution(requests: &[JobRequest<'_>]) -> [EngineStats; 2] {
    let expected = direct(requests);
    [1, 2].map(|jobs| {
        let engine = Engine::new(EngineOptions {
            jobs,
            cache_dir: None,
            cache_bytes: None,
        });
        let got: Vec<String> = engine.run_batch(requests).iter().map(summary).collect();
        let stats = engine.stats();
        assert_eq!(stats.executed, requests.len() as u64, "jobs {jobs}");
        assert!(
            stats.region_hits > 0 && stats.region_hits < stats.executed,
            "jobs {jobs}: regions answered {} of {} jobs",
            stats.region_hits,
            stats.executed
        );
        let differ: Vec<String> = (0..requests.len())
            .filter(|&i| got[i] != expected[i])
            .map(|i| {
                let r = &requests[i];
                let flow = FlowVariant::ALL
                    .into_iter()
                    .find(|f| f.options() == r.options)
                    .expect("a flow's job");
                format!(
                    "{} {flow}: engine {}, execute {}",
                    r.label(),
                    got[i],
                    expected[i]
                )
            })
            .collect();
        assert!(
            differ.is_empty(),
            "jobs {jobs}: {} of {} results differ from execute, first: {:#?}",
            differ.len(),
            requests.len(),
            &differ[..differ.len().min(10)]
        );
        stats
    })
}

#[test]
fn region_answers_equal_direct_execution_at_one_and_two_workers() {
    let specs = cmam_kernels::all();
    let table_one = CgraConfig::table_one();
    let scan: Vec<CgraConfig> = (4..=64).map(uniform).collect();
    let mut requests = Vec::new();
    for spec in &specs {
        for flow in FlowVariant::ALL {
            for config in table_one.iter().chain(&scan) {
                requests.push(JobRequest::flow(spec, flow, config));
            }
        }
    }
    equals_direct_execution(&requests);
}

/// The DSE space varies each configuration's register files next to its
/// context memories, so most of its reuse crosses RF and CRF sizes.
#[test]
fn the_dse_space_under_cab_equals_direct_execution() {
    let specs = cmam_kernels::all();
    let space = generate_space(&SpaceParams {
        target: 100,
        seed: DEFAULT_SPACE_SEED,
    });
    let requests: Vec<JobRequest<'_>> = space
        .iter()
        .flat_map(|config| {
            specs
                .iter()
                .map(move |spec| JobRequest::flow(spec, FlowVariant::Cab, config))
        })
        .collect();
    let [one, _] = equals_direct_execution(&requests);
    // One worker meets the jobs in submission order: 265 lie inside an
    // earlier map's region, 125 when the map key held RF and CRF sizes.
    assert!(
        one.region_hits >= 250,
        "{} of {} jobs inside a region at one worker",
        one.region_hits,
        one.executed
    );
}

/// A fresh engine starts with an empty region table: nothing one engine
/// mapped answers a job on another.
#[test]
fn a_fresh_engine_maps_its_first_job() {
    let spec = cmam_kernels::dc::spec();
    let (hom64, hom32) = (CgraConfig::hom64(), CgraConfig::hom32());
    let options = || EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    };
    let first = Engine::new(options());
    let on_hom64 = first.run_one(&JobRequest::flow(&spec, FlowVariant::Basic, &hom64));
    assert!(on_hom64.is_ok());
    let second = Engine::new(options());
    let mapped = second.run_one(&JobRequest::flow(&spec, FlowVariant::Basic, &hom32));
    assert_eq!(second.stats().region_hits, 0);
    // On the first engine the basic flow's map, which reads no memory
    // size, answers the same job on HOM32.
    let reused = first.run_one(&JobRequest::flow(&spec, FlowVariant::Basic, &hom32));
    assert_eq!(first.stats().region_hits, 1);
    let digest = |r: cmam_engine::JobResult| r.expect("DC maps on HOM32").content_digest();
    assert_eq!(digest(reused), digest(mapped));
}
