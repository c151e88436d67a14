//! An engine that answers jobs inside the memory regions of earlier maps,
//! also maps made for a flow that prunes more, returns exactly what
//! [`execute`] computes for every job, at one worker and at two (where
//! which jobs reuse a region depends on scheduling).
//!
//! Three batches over the seven paper kernels: Table I and the uniform
//! 4..=64-word scan under every flow, the 100-config generated DSE space
//! under CAB, whose configurations also vary their register files, and
//! the Figs 6–8 batch. Besides, perfbench `cold_compile`'s job order at
//! two seeds, one job at a time. Successes must agree on
//! `content_digest` (binary, report, simulator counters and `MapStats`),
//! failures on stage and message.

use cmam_arch::CgraConfig;
use cmam_cdfg::generate::GenParams;
use cmam_core::FlowVariant;
use cmam_engine::dse::{generate_space, SpaceParams, DEFAULT_SPACE_SEED};
use cmam_engine::{execute, Engine, EngineOptions, EngineStats, JobRequest, JobResult};
use cmam_kernels::KernelSpec;
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

fn engine(jobs: usize) -> Engine {
    Engine::new(EngineOptions {
        jobs,
        cache_dir: None,
        cache_bytes: None,
    })
}

/// Asserts that `got` (one engine's results) equals `expected`.
fn assert_same(requests: &[JobRequest<'_>], got: &[String], expected: &[String], run: &str) {
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
        "{run}: {} of {} results differ from execute, first: {:#?}",
        differ.len(),
        requests.len(),
        &differ[..differ.len().min(10)]
    );
}

/// Runs `requests` on a fresh engine at one worker and at two, checks
/// every result against `execute`, and returns the two engines' stats.
fn equals_direct_execution(requests: &[JobRequest<'_>]) -> [EngineStats; 2] {
    let expected = direct(requests);
    [1, 2].map(|jobs| {
        let engine = engine(jobs);
        let got: Vec<String> = engine.run_batch(requests).iter().map(summary).collect();
        let stats = engine.stats();
        assert_eq!(stats.executed, requests.len() as u64, "jobs {jobs}");
        assert!(
            stats.region_hits > 0 && stats.region_hits < stats.executed,
            "jobs {jobs}: regions answered {} of {} jobs",
            stats.region_hits,
            stats.executed
        );
        assert_same(requests, &got, &expected, &format!("jobs {jobs}"));
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

/// The 70 jobs of `fig6_8_latency`: the basic flow on HOM64, and ACMAP,
/// ECMAP and CAB on HOM32, HET1 and HET2, in one batch. Which flow's job
/// of a kernel and configuration maps first depends on scheduling at two
/// workers.
#[test]
fn the_figs_6_to_8_batch_equals_direct_execution() {
    let specs = cmam_kernels::all();
    let hom64 = CgraConfig::hom64();
    let configs = [CgraConfig::hom32(), CgraConfig::het1(), CgraConfig::het2()];
    let mut requests: Vec<JobRequest<'_>> = specs
        .iter()
        .map(|spec| JobRequest::flow(spec, FlowVariant::Basic, &hom64))
        .collect();
    for flow in [FlowVariant::Acmap, FlowVariant::Ecmap, FlowVariant::Cab] {
        for spec in &specs {
            for config in &configs {
                requests.push(JobRequest::flow(spec, flow, config));
            }
        }
    }
    equals_direct_execution(&requests);
}

/// perfbench's `mix`: a splitmix64 finaliser of `seed` salted by `salt`.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// perfbench `cold_compile`'s 149 jobs at `seed`, in its order: the 7
/// paper kernels under the 5 flows on the 4 Table I configurations, and
/// one generated kernel per generator profile under a seeded flow and
/// configuration, shuffled (Fisher–Yates over [`mix`]). Each job is
/// (kernel, flow, configuration index).
fn cold_compile_jobs(seed: u64) -> (Vec<KernelSpec>, Vec<(usize, FlowVariant, usize)>) {
    let mut specs = cmam_kernels::all();
    let configs = CgraConfig::table_one().len();
    let mut jobs = Vec::new();
    for spec in 0..specs.len() {
        for flow in FlowVariant::ALL {
            jobs.extend((0..configs).map(|config| (spec, flow, config)));
        }
    }
    let profiles = GenParams::PROFILES;
    for (g, kernel_seed) in cmam_kernels::kernel_seeds(seed, profiles.len())
        .into_iter()
        .enumerate()
    {
        let params = GenParams::profile(profiles[g]).expect("a named profile");
        specs.push(cmam_kernels::generated_spec(&params, kernel_seed));
        let pick = mix(kernel_seed, 1);
        let flow = FlowVariant::ALL[((pick >> 8) % FlowVariant::ALL.len() as u64) as usize];
        jobs.push((specs.len() - 1, flow, (pick % configs as u64) as usize));
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    (specs, order.into_iter().map(|i| jobs[i]).collect())
}

/// perfbench `cold_compile` sends its jobs one at a time: there a map of
/// one flow answers the later jobs of its family that it covers, and a
/// weighted, ACMAP or ECMAP job that finds no region first maps the full
/// flow on unbounded context memory.
#[test]
fn the_cold_compile_order_one_job_at_a_time_equals_direct_execution() {
    let table_one = CgraConfig::table_one();
    for seed in [1, 7] {
        let (specs, jobs) = cold_compile_jobs(seed);
        let requests: Vec<JobRequest<'_>> = jobs
            .iter()
            .map(|&(spec, flow, config)| JobRequest::flow(&specs[spec], flow, &table_one[config]))
            .collect();
        assert_eq!(requests.len(), 149);
        let expected = direct(&requests);
        for workers in [1, 2] {
            let engine = engine(workers);
            let got: Vec<String> = requests
                .iter()
                .map(|r| summary(&engine.run_one(r)))
                .collect();
            assert_same(
                &requests,
                &got,
                &expected,
                &format!("seed {seed}, jobs {workers}"),
            );
            // 50 maps when the map key held the three flags.
            let maps = engine.stats().maps;
            assert!(
                seed != 1 || maps <= 31,
                "seed {seed}, jobs {workers}: {maps} maps for 149 jobs"
            );
        }
    }
}

/// A fresh engine starts with an empty region table: nothing one engine
/// mapped answers a job on another.
#[test]
fn a_fresh_engine_maps_its_first_job() {
    let spec = cmam_kernels::dc::spec();
    let (hom64, hom32) = (CgraConfig::hom64(), CgraConfig::hom32());
    let first = engine(1);
    let on_hom64 = first.run_one(&JobRequest::flow(&spec, FlowVariant::Basic, &hom64));
    assert!(on_hom64.is_ok());
    let second = engine(1);
    let mapped = second.run_one(&JobRequest::flow(&spec, FlowVariant::Basic, &hom32));
    assert_eq!(second.stats().region_hits, 0);
    // On the first engine the basic flow's map, which reads no memory
    // size, answers the same job on HOM32.
    let reused = first.run_one(&JobRequest::flow(&spec, FlowVariant::Basic, &hom32));
    assert_eq!(first.stats().region_hits, 1);
    let digest = |r: cmam_engine::JobResult| r.expect("DC maps on HOM32").content_digest();
    assert_eq!(digest(reused), digest(mapped));
}
