//! `cold_compile`: distinct compile jobs, one at a time, through
//! `Engine::run_one` on an empty private store — what `run_flow` and the
//! figure binaries wait for. The mapper does almost all of the work.
//!
//! Jobs: the Figs 5–8 matrix (7 paper kernels × 5 flow variants × the 4
//! Table I configurations, 4 of them infeasible) plus a seeded draw of
//! one generated kernel per generator profile, in a seeded order. One
//! client thread sends them in a closed loop to an engine with
//! [`WORKERS`] workers; each map runs on [`WORKERS`] threads. The draw is
//! kept small against the fixed matrix: four kernels per profile moved
//! the median latency by a seventh from seed to seed.

use crate::common::{
    context_words, cpu_s, energy_nj, fastest_per_request, is_failure, job_phase_s, measure_setup,
    mix, peak_rss_mb, ratio, reference_point, result_digest, scaled, shuffled, start_pool, timed,
    Args, Calibration, Engines, Outcome, Passes, Quality, Store, WORKERS,
};
use crate::layers::{self, Counters, LayerInputs};
use crate::spans::{LayerTimes, Recorder};
use crate::stats::{geomean, hypervolume};
use cmam_arch::CgraConfig;
use cmam_cdfg::generate::GenParams;
use cmam_core::{FlowVariant, Mapper};
use cmam_engine::cache::{parse_result, serialize_result, DiskCache};
use cmam_engine::{FailStage, Fnv64, JobFailure, JobRequest, JobResult, RunOutcome};
use cmam_kernels::KernelSpec;
use cmam_sim::{DecodedProgram, SimOptions};
use std::time::Instant;

/// Generated kernels drawn per generator profile.
const GEN_PER_PROFILE: usize = 1;

/// Nominal measuring time of one pass (its requests took 6 to 7 s of
/// wall time on a 2-vCPU Xeon VM); `--seconds` divided by it is the
/// number of passes.
const NOMINAL_PASS_S: f64 = 10.0;

/// Set-up processes `setup_s` is the median of.
const SETUP_RUNS: usize = 25;

/// The paper kernels come first in the spec list.
const PAPER_KERNELS: usize = 7;

/// One compile job.
#[derive(Debug, Clone, Copy)]
struct Job {
    spec: usize,
    config: usize,
    variant: FlowVariant,
}

/// The run's generated inputs.
struct Inputs {
    specs: Vec<KernelSpec>,
    configs: Vec<CgraConfig>,
    jobs: Vec<Job>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut specs = cmam_kernels::all();
        let configs = CgraConfig::table_one();
        let mut jobs = Vec::new();
        for spec in 0..specs.len() {
            for variant in FlowVariant::ALL {
                for config in 0..configs.len() {
                    jobs.push(Job {
                        spec,
                        config,
                        variant,
                    });
                }
            }
        }
        let profiles = GenParams::PROFILES;
        let n = profiles.len() * GEN_PER_PROFILE;
        for (g, kernel_seed) in cmam_kernels::kernel_seeds(seed, n).into_iter().enumerate() {
            let params = GenParams::profile(profiles[g % profiles.len()]).expect("a named profile");
            specs.push(cmam_kernels::generated_spec(&params, kernel_seed));
            let pick = mix(kernel_seed, 1);
            jobs.push(Job {
                spec: specs.len() - 1,
                config: (pick % configs.len() as u64) as usize,
                variant: FlowVariant::ALL[((pick >> 8) % FlowVariant::ALL.len() as u64) as usize],
            });
        }
        let jobs = shuffled(jobs.len(), seed)
            .into_iter()
            .map(|i| jobs[i])
            .collect();
        Inputs {
            specs,
            configs,
            jobs,
        }
    }

    /// The engine request for `job`, with the map thread count explicit.
    fn request(&self, job: Job) -> JobRequest<'_> {
        let mut options = job.variant.options();
        options.threads = WORKERS;
        JobRequest {
            spec: &self.specs[job.spec],
            config: &self.configs[job.config],
            options,
        }
    }
}

/// Builds the run's inputs and the first pass's engines over an empty
/// store, and starts the worker pool: everything before the first timed
/// request.
fn setup(seed: u64) -> (Inputs, Engines) {
    let inputs = Inputs::new(seed);
    let cold = Engines::fresh();
    start_pool();
    (inputs, cold)
}

/// The body of a set-up-only process (see [`measure_setup`]).
pub fn setup_only(args: &Args) {
    crate::common::ready(setup(args.seed));
}

/// Samples and results of one timed pass.
#[derive(Default)]
struct Pass {
    results: Vec<JobResult>,
    latency_ms: Vec<f64>,
    memo_us: Vec<f64>,
    disk_us: Vec<f64>,
    request_s: f64,
    wall_s: f64,
    phase_s: f64,
    probe_mismatches: Vec<String>,
}

/// Sends every job once, in order, each after a calibration slice and
/// followed by a memo-hit probe of a seeded earlier job and a disk-hit
/// probe of the same job on the probe engine, so the probes spread over
/// the whole pass.
fn timed_pass(inputs: &Inputs, cold: &Engines, seed: u64, cal: &mut Calibration) -> Pass {
    let mut pass = Pass::default();
    let phase0 = job_phase_s();
    let start = Instant::now();
    for (i, &job) in inputs.jobs.iter().enumerate() {
        let request = inputs.request(job);
        cal.slice();
        let (result, dt) = timed(|| cold.engine.run_one(&request));
        pass.latency_ms.push(dt * 1e3);
        pass.request_s += dt;
        let digest = result_digest(&result);
        pass.results.push(result);

        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        let earlier = inputs.request(inputs.jobs[j]);
        let (memo, dt) = timed(|| cold.engine.run_one(&earlier));
        pass.memo_us.push(dt * 1e6);
        if result_digest(&memo) != result_digest(&pass.results[j]) {
            pass.probe_mismatches
                .push(format!("memo hit of job {j} differs from its first result"));
        }
        let (disk, dt) = timed(|| cold.probe.run_one(&request));
        pass.disk_us.push(dt * 1e6);
        if result_digest(&disk) != digest {
            pass.probe_mismatches
                .push(format!("disk hit of job {i} differs from its cold result"));
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.phase_s = job_phase_s() - phase0;
    let stats = cold.engine.stats();
    if stats.executed != inputs.jobs.len() as u64 || cold.probe.stats().disk_hits != stats.executed
    {
        pass.probe_mismatches.push(format!(
            "expected {} executions and as many disk hits, engine stats {stats:?}, probe {:?}",
            inputs.jobs.len(),
            cold.probe.stats()
        ));
    }
    pass
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = measure_setup(args, SETUP_RUNS).unwrap_or_else(|e| {
        out.fail_check(e);
        0.0
    });
    let (inputs, first) = setup(args.seed);

    let passes = args.passes(NOMINAL_PASS_S);
    let mut timing = Passes::default();
    let mut cold = first;
    let mut runs: Vec<Pass> = Vec::new();
    let cpu0 = cpu_s();
    for p in 0..passes {
        if p > 0 {
            cold = Engines::fresh();
        }
        let mut cal = Calibration::default();
        let pass = timed_pass(&inputs, &cold, args.seed, &mut cal);
        timing.record("requests", pass.request_s, inputs.jobs.len() as f64, &cal);
        runs.push(pass);
    }
    eprintln!(
        "cold_compile: {} jobs x {passes} passes, {:.3} s wall and {:.3} s CPU in the passes",
        inputs.jobs.len(),
        runs.iter().map(|r| r.wall_s).sum::<f64>(),
        cpu_s() - cpu0
    );

    // Everything below is outside the timed phase.
    let results = &runs[0].results;
    out.digest = {
        let mut h = Fnv64::new();
        for r in results {
            h.feed_u64(result_digest(r));
        }
        h.finish()
    };
    for (p, pass) in runs.iter().enumerate() {
        let same = pass
            .results
            .iter()
            .zip(results)
            .all(|(a, b)| result_digest(a) == result_digest(b));
        out.check(same, || format!("pass {p} results differ from pass 0"));
        for m in &pass.probe_mismatches {
            out.fail_check(m.clone());
        }
    }
    let attempted = (inputs.jobs.len() * passes) as u64;
    let failures = runs
        .iter()
        .flat_map(|r| &r.results)
        .filter(|r| is_failure(r))
        .count() as u64;
    for (job, r) in inputs.jobs.iter().zip(results) {
        if let Err(f) = r {
            if is_failure(r) {
                eprintln!("job {}: {f}", inputs.request(*job).label());
            }
        }
    }
    out.attempted = attempted;
    out.failed += failures;

    out.set("setup_s", setup_s);
    out.set("work_per_s", 1.0 / timing.costs[timing.best()]);
    let latency: Vec<Vec<f64>> = runs.iter().map(|r| r.latency_ms.clone()).collect();
    let latency_ms = fastest_per_request(&latency, &timing.scales);
    out.set_pct("latency_ms_p50", &latency_ms, 0.5);
    out.set_pct("latency_ms_p90", &latency_ms, 0.9);
    let per_pass = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        let samples: Vec<Vec<f64>> = runs.iter().map(|r| f(r).clone()).collect();
        scaled(&samples, &timing.probe_scales)
    };
    let memo_us = per_pass(|r| &r.memo_us);
    let disk_us = per_pass(|r| &r.disk_us);
    out.set_pct("memo_hit_us_p50", &memo_us, 0.5);
    out.set_pct("disk_hit_us_p50", &disk_us, 0.5);

    let mapped = |job: &Job, r: &JobResult| -> Option<Quality> {
        let o = r.as_ref().ok()?;
        let spec = &inputs.specs[job.spec];
        let config = &inputs.configs[job.config];
        Some((
            context_words(o) as f64,
            o.cycles as f64,
            energy_nj(spec, config, &o.sim),
        ))
    };
    // Quality over the fixed Figs 5–8 matrix only, in a canonical order:
    // the seeded draw changes with the seed and moved these exact metrics
    // by up to 2% from seed to seed.
    let mut matrix: Vec<usize> = (0..inputs.jobs.len())
        .filter(|&i| inputs.jobs[i].spec < PAPER_KERNELS)
        .collect();
    matrix.sort_by_key(|&i| {
        let j = inputs.jobs[i];
        let variant = FlowVariant::ALL.iter().position(|&v| v == j.variant);
        (variant, j.config, j.spec)
    });
    let quality: Vec<Option<Quality>> = matrix
        .iter()
        .map(|&i| mapped(&inputs.jobs[i], &results[i]))
        .collect();
    let n_mapped = quality.iter().flatten().count();
    let gm =
        |f: fn(&Quality) -> f64| geomean(quality.iter().map(|q| q.as_ref().map(f))).unwrap_or(0.0);
    out.set("context_words_geomean", gm(|q| q.0));
    out.set("sim_cycles_geomean", gm(|q| q.1));
    out.set("energy_nj_geomean", gm(|q| q.2));
    out.set("mapped_frac", n_mapped as f64 / quality.len() as f64);
    out.set("ok_frac", 1.0 - ratio(failures as f64, attempted as f64));

    // Design points: each (variant, config) pair's mix over the paper
    // kernels (seven consecutive entries), kept when every kernel maps.
    let reference = reference_point(&cold.engine, &inputs.specs[..PAPER_KERNELS]);
    let points: Vec<(f64, f64)> = quality
        .chunks(PAPER_KERNELS)
        .filter_map(|mix| {
            let mix: Option<Vec<Quality>> = mix.iter().copied().collect();
            mix.map(|m| (m.iter().map(|q| q.2).sum(), m.iter().map(|q| q.1).sum()))
        })
        .collect();
    out.set("frontier_hv", hypervolume(&points, reference));
    out.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        let untraced_s = timing.mean();
        let fail_map_ms: Vec<f64> = runs
            .iter()
            .flat_map(|r| &r.results)
            .filter_map(|r| match r {
                Err(f) if f.stage == FailStage::Map => Some(f.compile_time.as_secs_f64() * 1e3),
                _ => None,
            })
            .collect();
        let busy = ratio(
            runs.iter().map(|r| r.phase_s).sum(),
            WORKERS as f64 * runs.iter().map(|r| r.wall_s).sum::<f64>(),
        );
        let mut li = traced_pass(&inputs, results, untraced_s, &mut out);
        li.fail_map_ms = fail_map_ms;
        li.memo_us = memo_us;
        li.disk_us = disk_us;
        li.busy_frac = busy;
        layers::fill(&mut out, &li);
    }
    drop(cold);
    out
}

/// The traced phase, with tracing on. Each job is sent to a fresh engine
/// over an empty store (the program's own request time, after a
/// calibration slice), then replayed through the layers' public
/// functions, each call in its own span, over another empty store. A
/// replayed request is the cold path: key, the store's miss, map,
/// assemble, decode, solo simulate, check and store. Encoding, parsing
/// and loading the stored artifact are timed after it, outside the
/// request. Every replayed result must equal the engine's result for the
/// job. `untraced_s` is the mean calibrated time per job of an untraced
/// pass.
fn traced_pass(
    inputs: &Inputs,
    engine_results: &[JobResult],
    untraced_s: f64,
    out: &mut Outcome,
) -> LayerInputs {
    cmam_obs::enable_tracing();
    let traced = Engines::fresh();
    let store = Store::fresh();
    let disk = DiskCache::new(Some(store.dir().to_path_buf()), None);
    let mut cal = Calibration::default();
    let mut rec = Recorder::new();
    let mut li = LayerInputs::default();
    for (&job, engine_result) in inputs.jobs.iter().zip(engine_results) {
        let req = inputs.request(job);
        cal.slice();
        let (engine_result_traced, dt) = timed(|| traced.engine.run_one(&req));
        li.request_s += dt;
        let before = Counters::now();
        let (key, missed, result) = rec.span("request", |rec| {
            let key = rec.span("engine.key", |_| req.key());
            let missed = rec.span("engine.disk_miss", |_| disk.load(key)).is_none();
            let result = replay(rec, &req);
            rec.span("engine.store", |_| disk.store(key, &result));
            (key, missed, result)
        });
        li.counters.add_increase(&before, &Counters::now());
        // The artifact's way back, off the cold request's path.
        let bytes = rec.span("engine.encode", |_| serialize_result(&result));
        let parsed = rec.span("engine.parse", |_| parse_result(&bytes));
        let loaded = rec.span("engine.disk_load", |_| disk.load(key));
        li.artifact_bytes.push(bytes.len() as f64);
        let digest = result_digest(&result);
        let round_trips = parsed.as_ref().map(result_digest) == Some(digest)
            && loaded.as_ref().map(result_digest) == Some(digest);
        out.check(missed && round_trips, || {
            format!("{}: artifact store miss or round trip differs", req.label())
        });
        out.check(
            digest == result_digest(engine_result)
                && digest == result_digest(&engine_result_traced),
            || format!("{}: replayed result differs from the engine's", req.label()),
        );
        if let Ok(o) = &result {
            li.context_words += context_words(o);
        }
    }
    cmam_obs::disable_tracing();
    let mut traced_pass = Passes::default();
    traced_pass.record("traced", li.request_s, inputs.jobs.len() as f64, &cal);
    li.overhead = ratio(traced_pass.costs[0], untraced_s);
    li.times = LayerTimes::from_spans(rec.spans());
    li
}

/// The engine's `execute` pipeline, one span per layer call.
fn replay(rec: &mut Recorder, req: &JobRequest<'_>) -> JobResult {
    let t0 = Instant::now();
    let mapped = rec.span("core.map", |_| {
        Mapper::new(req.options.clone()).map(&req.spec.cdfg, req.config)
    });
    let compile_time = t0.elapsed();
    let fail = |stage, message: String| JobFailure::pipeline(stage, message, compile_time);
    let mapped = mapped.map_err(|e| fail(FailStage::Map, e.to_string()))?;
    let t1 = Instant::now();
    let (binary, report) = rec
        .span("isa.assemble", |_| {
            cmam_isa::assemble(&req.spec.cdfg, &mapped.mapping, req.config)
        })
        .map_err(|e| fail(FailStage::Assemble, e.to_string()))?;
    let assemble_time = t1.elapsed();
    let t2 = Instant::now();
    let decoded = rec
        .span("sim.decode", |_| {
            DecodedProgram::decode(&binary, req.config)
        })
        .map_err(|e| fail(FailStage::Execution, e.to_string()))?;
    let mut mem = req.spec.mem.clone();
    let sim = rec
        .span("sim.solo", |_| {
            decoded.simulate(&mut mem, SimOptions::default())
        })
        .map_err(|e| fail(FailStage::Execution, e.to_string()))?;
    let sim_time = t2.elapsed();
    req.spec.check(&mem).map_err(|(i, got, want)| {
        fail(
            FailStage::Execution,
            format!("mem[{i}] = {got}, want {want}"),
        )
    })?;
    Ok(RunOutcome {
        cycles: sim.cycles,
        sim,
        report,
        binary,
        compile_time,
        assemble_time,
        sim_time,
        map_stats: mapped.stats,
    })
}
