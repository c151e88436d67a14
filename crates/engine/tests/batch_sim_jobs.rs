//! The batched-simulate job kind: per-lane results must match solo
//! simulation of the same images, a sweep cut into lane chunks must equal
//! one batch over every lane, outcomes must be bit-identical across cache
//! states, and `.bsim` artifacts must answer a second engine.

use cmam_arch::CgraConfig;
use cmam_cdfg::generate::GenParams;
use cmam_core::FlowVariant;
use cmam_engine::cache::DiskCache;
use cmam_engine::{BatchSimRequest, Engine, EngineOptions, Fnv64};
use cmam_kernels::KernelSpec;
use cmam_sim::{DecodedProgram, LaneState, SimOptions};
use std::path::PathBuf;

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmam-batchsim-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn engine_batch_sim_matches_solo_simulation_per_lane() {
    let engine = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    let spec = cmam_kernels::fir::spec();
    let config = CgraConfig::hom64();
    let req = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, 0xFEED, 16);
    let outcome = engine.run_batch_sim(&req).expect("FIR maps on HOM64");
    assert_eq!(outcome.lanes.len(), 16);
    assert_eq!(outcome.ok_lanes(), 16);

    let compiled = engine.run_one(&req.compile_request()).expect("FIR maps");
    let decoded = DecodedProgram::decode(&compiled.binary, &config).expect("decodes");
    let mut agg = 0u64;
    for (l, image) in req.images().iter().enumerate() {
        let mut mem = image.clone();
        let solo = decoded
            .simulate(&mut mem, SimOptions::default())
            .expect("simulates");
        agg += solo.cycles;
        assert_eq!(
            outcome.lanes[l].as_ref().expect("lane ok"),
            &solo,
            "lane {l}"
        );
    }
    assert_eq!(outcome.agg_cycles, agg);
}

#[test]
fn batch_sim_outcomes_persist_and_round_trip_across_engines() {
    let dir = temp_cache_dir("persist");
    let spec = cmam_kernels::dc::spec();
    let config = CgraConfig::hom64();
    let req = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, 7, 8);

    let first = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        cache_bytes: None,
    });
    let a = first.run_batch_sim(&req).expect("DC maps");
    // The sweep artifact is on disk under its own extension.
    let bsim_files = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter(|e| {
            e.as_ref()
                .ok()
                .map(|e| e.path().extension() == Some(std::ffi::OsStr::new("bsim")))
                .unwrap_or(false)
        })
        .count();
    assert_eq!(bsim_files, 1, "one .bsim artifact per sweep");

    // A fresh engine answers from disk, bit-identically (including the
    // originally measured wall times).
    let second = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        cache_bytes: None,
    });
    let b = second.run_batch_sim(&req).expect("DC maps");
    assert_eq!(a, b);
    assert_eq!(a.content_digest(), b.content_digest());
    assert_eq!(second.stats().executed, 0, "nothing recompiled");

    // And the in-memory memo answers a repeat on the same engine.
    let c = second.run_batch_sim(&req).expect("DC maps");
    assert_eq!(a.content_digest(), c.content_digest());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compile_failures_surface_as_job_failures() {
    let engine = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    // The FIR does not fit the tiny uniform 16-word context memories
    // with a memory-unaware flow (T1 needs 17 context words).
    let spec = cmam_kernels::fir::spec();
    let tight = CgraConfig::builder(4, 4)
        .uniform_cm(16)
        .name("TIGHT16")
        .build()
        .expect("valid config");
    let req = BatchSimRequest::flow(&spec, FlowVariant::Basic, &tight, 1, 4);
    assert!(engine.run_batch_sim(&req).is_err());
}

/// FNV-1a over a memory image's length and words: the digest the engine
/// keeps per lane.
fn mem_digest(mem: &[i32]) -> u64 {
    let mut h = Fnv64::new();
    h.feed_usize(mem.len());
    for &w in mem {
        h.feed_u64(u64::from(w as u32));
    }
    h.finish()
}

#[test]
fn chunked_sweeps_equal_one_batch_over_every_lane() {
    let config = CgraConfig::hom64();
    let options = FlowVariant::Basic.options();
    let fir = cmam_kernels::fir::spec();
    let seed = 0xC4A2;
    let lane_counts = [127, 128, 255, 256, 257, 389];
    // A `branchy` kernel whose lanes take data-dependent branches, so
    // they diverge into cohorts and retire at different cycles. A cycle
    // budget between its shortest and longest lane then fails some lanes
    // and retires others inside one chunk.
    let probe = Engine::new(EngineOptions {
        jobs: 1,
        cache_dir: None,
        cache_bytes: None,
    });
    let branchy_params = GenParams::profile("branchy").expect("a named profile");
    let (branchy, cycles) = cmam_kernels::kernel_seeds(0xb4a7, 32)
        .into_iter()
        .map(|kernel_seed| cmam_kernels::generated_spec(&branchy_params, kernel_seed))
        .find_map(|spec| {
            let req = BatchSimRequest::flow(&spec, FlowVariant::Basic, &config, seed, 389);
            let mut cycles: Vec<u64> = probe
                .run_batch_sim(&req)
                .ok()?
                .lanes
                .iter()
                .map(|lane| lane.as_ref().expect("unlimited lanes retire").cycles)
                .collect();
            cycles.sort_unstable();
            (cycles[0] < cycles[388]).then_some((spec, cycles))
        })
        .expect("a branchy kernel maps on HOM64 and diverges");
    let budget = SimOptions {
        max_cycles: cycles[194],
        ..SimOptions::default()
    };
    let cases: [(&KernelSpec, SimOptions); 3] = [
        (&fir, SimOptions::default()),
        (&branchy, SimOptions::default()),
        (&branchy, budget),
    ];

    for jobs in [1, 2] {
        let dir = temp_cache_dir(&format!("chunks-{jobs}"));
        let engine = Engine::new(EngineOptions {
            jobs,
            cache_dir: Some(dir.clone()),
            cache_bytes: None,
        });
        let store = DiskCache::new(Some(dir.clone()), None);
        for (spec, sim) in cases {
            for lanes in lane_counts {
                let req = BatchSimRequest {
                    spec,
                    config: &config,
                    options: options.clone(),
                    sim,
                    input_seed: seed,
                    lanes,
                };
                let what = format!(
                    "{} x{lanes} max_cycles {} jobs {jobs}",
                    spec.name, sim.max_cycles
                );
                let outcome = engine.run_batch_sim(&req).expect("the kernel maps");

                let compiled = engine.run_one(&req.compile_request()).expect("maps");
                let decoded = DecodedProgram::decode(&compiled.binary, &config).expect("decodes");
                let images = req.images();
                let mut states: Vec<LaneState> =
                    images.iter().cloned().map(LaneState::new).collect();
                let results = decoded.simulate_batch(&mut states, sim);
                let agg: u64 = results.iter().flatten().map(|s| s.cycles).sum();
                let want: Vec<Result<_, String>> = results
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect();
                assert_eq!(outcome.lanes, want, "{what}: lanes");
                let digests: Vec<u64> = states.iter().map(|l| mem_digest(&l.mem)).collect();
                assert_eq!(outcome.mem_digests, digests, "{what}: final memories");
                assert_eq!(outcome.agg_cycles, agg, "{what}: cycles");
                if sim == budget {
                    let ok = outcome.ok_lanes();
                    assert!(0 < ok && ok < lanes, "{what}: {ok} lanes retired");
                }
                // The engine keyed the sweep as one key over every image:
                // its artifact sits under `key_for(&images)`.
                assert_eq!(
                    store.load_batch(req.key_for(&images)).as_ref(),
                    Some(&outcome),
                    "{what}: key"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
