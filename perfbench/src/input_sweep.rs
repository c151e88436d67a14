//! `input_sweep`: batched simulation of fresh inputs through compiled
//! kernels. Set-up compiles the kernels (the full CAB flow on HET1); each
//! request is then one `Engine::run_batch_sim` with a fresh input seed —
//! a miss for the sweep and a memo hit for the compile — so the simulator
//! and the engine's input hashing do the work and the mapper none.
//!
//! Kernels: the 7 paper kernels, which never diverge, plus generated
//! `branchy` kernels (divergent lanes) and `memory_bound` kernels (bank
//! stalls) from one fixed suite seed. `--seed` draws the input images of
//! every request: seeded kernels moved the per-lane cycle and energy
//! geomeans by about a tenth from seed to seed. Lane counts cycle through
//! [`LANES`], so a request's working set runs from under 2 KB to about
//! 360 KB.
//!
//! The sweep engine keeps results in memory only. With a disk store, the
//! artifact write (file create, write, rename) was more than half of a
//! request's CPU time on a VM's ext4 disk and swung by 2.4× between
//! runs, burying the simulator. The benchmark writes each artifact itself
//! between requests, so disk hits are still timed on a fresh engine over
//! the run's store, and the traced run times the encode.

use crate::common::{
    context_words, cpu_s, energy_nj, job_phase_s, measure_setup, mem_digest, mix, peak_rss_mb,
    ratio, reference_point, scaled, start_pool, timed, Args, Calibration, Outcome, Passes, Store,
    WORKERS,
};
use crate::layers::{self, Counters, LayerInputs};
use crate::spans::{LayerTimes, Recorder};
use crate::stats::{geomean, hypervolume};
use cmam_arch::CgraConfig;
use cmam_cdfg::generate::GenParams;
use cmam_core::FlowVariant;
use cmam_engine::cache::{parse_batch_outcome, serialize_batch_outcome, DiskCache};
use cmam_engine::{
    BatchSimOutcome, BatchSimRequest, BatchSimResult, Engine, EngineOptions, Fnv64, JobRequest,
    JobResult, RunOutcome,
};
use cmam_kernels::KernelSpec;
use cmam_sim::{DecodedProgram, LaneState, SimOptions};
use std::time::Instant;

/// Generated kernels added to the paper kernels: `(profile, count)`.
const GENERATED: [(&str, usize); 2] = [("branchy", 3), ("memory_bound", 3)];

/// Suite seed of the generated kernels.
const SUITE_SEED: u64 = 0x5eed_5eed;

/// Lane counts requests cycle through.
const LANES: [usize; 3] = [1, 16, 256];

/// Rounds over the kernel list per segment; a request per kernel per
/// round. Each segment runs on its own engine and store, which bounds
/// the memo table and the store (they hold every lane's statistics).
const SEGMENT_ROUNDS: usize = 48;

/// Nominal measuring time of one segment (with its checks it took about
/// 3 s of wall time on a 2-vCPU Xeon VM; see [`Args::passes`]).
const NOMINAL_SEGMENT_S: f64 = 3.75;

/// Requests per calibration slice.
const CALIBRATE_EVERY: usize = 8;

/// Set-up processes `setup_s` is the median of (each compiles every
/// kernel).
const SETUP_RUNS: usize = 7;

/// Lanes per request checked against the CDFG interpreter.
const CHECKED_LANES: usize = 2;

/// The paper kernels come first in the spec list.
const PAPER_KERNELS: usize = 7;

/// The sweep engine of one segment, with every kernel compiled into its
/// memo table, and a fresh store the benchmark fills with the segment's
/// artifacts for the disk-hit probes.
struct Segment {
    engine: Engine,
    store: Store,
    disk: DiskCache,
}

impl Segment {
    fn new(specs: &[KernelSpec], config: &CgraConfig) -> (Segment, Vec<JobResult>) {
        let engine = sweep_engine();
        let compiled = engine.run_batch(&compile_requests(specs, config));
        let store = Store::fresh();
        let disk = DiskCache::new(Some(store.dir().to_path_buf()), None);
        (
            Segment {
                engine,
                store,
                disk,
            },
            compiled,
        )
    }
}

/// A sweep engine: [`WORKERS`] workers, results kept in memory only.
fn sweep_engine() -> Engine {
    Engine::new(EngineOptions {
        jobs: WORKERS,
        cache_dir: None,
        cache_bytes: None,
    })
}

/// The kernels, their compiles, and the current segment.
struct Setup {
    specs: Vec<KernelSpec>,
    config: CgraConfig,
    /// `(spec index, compiled outcome)` of every kernel that mapped.
    compiled: Vec<(usize, RunOutcome)>,
    segment: Segment,
}

impl Setup {
    /// Everything before the first timed request: the kernels, their
    /// compiles on a sweep engine, a fresh store and the worker pool.
    fn new() -> Setup {
        let mut specs = cmam_kernels::all();
        for (p, (profile, count)) in GENERATED.into_iter().enumerate() {
            let params = GenParams::profile(profile).expect("a named profile");
            for kernel_seed in cmam_kernels::kernel_seeds(mix(SUITE_SEED, p as u64), count) {
                specs.push(cmam_kernels::generated_spec(&params, kernel_seed));
            }
        }
        let config = CgraConfig::het1();
        let (segment, results) = Segment::new(&specs, &config);
        start_pool();
        let compiled = results
            .into_iter()
            .enumerate()
            .filter_map(|(i, r)| r.ok().map(|o| (i, o)))
            .collect();
        Setup {
            specs,
            config,
            compiled,
            segment,
        }
    }

    fn request(&self, kernel: usize, input_seed: u64, lanes: usize) -> BatchSimRequest<'_> {
        BatchSimRequest {
            spec: &self.specs[kernel],
            config: &self.config,
            options: options(),
            sim: SimOptions::default(),
            input_seed,
            lanes,
        }
    }
}

/// The body of a set-up-only process (see [`measure_setup`]).
pub fn setup_only() {
    crate::common::ready(Setup::new());
}

/// Mapper options of every compile: the full flow, one map thread.
fn options() -> cmam_core::MapperOptions {
    let mut options = FlowVariant::Cab.options();
    options.threads = 1;
    options
}

fn compile_requests<'a>(specs: &'a [KernelSpec], config: &'a CgraConfig) -> Vec<JobRequest<'a>> {
    specs
        .iter()
        .map(|spec| JobRequest {
            spec,
            config,
            options: options(),
        })
        .collect()
}

/// One request: kernel (spec index), input seed, lane count.
type Req = (usize, u64, usize);

/// The timed requests and probes of one segment.
#[derive(Default)]
struct SegmentTimes {
    latency_ms: Vec<f64>,
    memo_us: Vec<f64>,
    disk_us: Vec<f64>,
    request_s: f64,
    agg_cycles: u64,
}

/// Samples and exact results accumulated over all segments.
#[derive(Default)]
struct Sweep {
    solo_us: Vec<f64>,
    wall_s: f64,
    phase_s: f64,
    lane_cycles: Vec<Option<f64>>,
    lane_energy: Vec<Option<f64>>,
    failed: u64,
    digest: Fnv64,
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = measure_setup(args, SETUP_RUNS).unwrap_or_else(|e| {
        out.fail_check(e);
        0.0
    });
    let mut s = Setup::new();

    let kernels: Vec<usize> = s.compiled.iter().map(|(i, _)| *i).collect();
    let decoded: Vec<Option<DecodedProgram>> = (0..s.specs.len())
        .map(|i| {
            s.compiled.iter().find(|(k, _)| *k == i).map(|(_, o)| {
                DecodedProgram::decode(&o.binary, &s.config).expect("a compiled binary decodes")
            })
        })
        .collect();
    let segments = args.passes(NOMINAL_SEGMENT_S);
    let mut timing = Passes::default();
    let mut times: Vec<SegmentTimes> = Vec::new();
    let mut sweep = Sweep::default();
    let mut replay = None;
    let mut attempted = 0u64;
    let mut sweep_cpu_s = 0.0;
    for seg in 0..segments {
        if seg > 0 {
            // A fresh engine recompiles the kernels, outside the timed
            // phase; compiles are deterministic, so nothing changes.
            let (segment, _) = Segment::new(&s.specs, &s.config);
            s.segment = segment;
        }
        let mut reqs: Vec<Req> = Vec::new();
        for r in 0..SEGMENT_ROUNDS {
            for (i, &k) in kernels.iter().enumerate() {
                let n = attempted + reqs.len() as u64;
                reqs.push((k, mix(args.seed, 1000 + n), LANES[(r + i) % LANES.len()]));
            }
        }
        attempted += reqs.len() as u64;
        let cpu0 = cpu_s();
        let mut cal = Calibration::default();
        let (digests, seg_times) = timed_segment(
            &s,
            &reqs,
            kernels.len(),
            args.seed,
            &mut cal,
            &mut sweep,
            &mut out,
        );
        sweep_cpu_s += cpu_s() - cpu0;
        let mcycles = seg_times.agg_cycles as f64 / 1e6;
        timing.record("requests", seg_times.request_s, mcycles, &cal);
        // Outside the timed phase: checks and exact results, on the
        // outcomes the sweep engine memoised.
        for (i, &(k, seed, lanes)) in reqs.iter().enumerate() {
            let spec = &s.specs[k];
            let request = s.request(k, seed, lanes);
            let o = s
                .segment
                .engine
                .run_batch_sim(&request)
                .expect("a memoised outcome");
            out.check(o.content_digest() == digests[i], || {
                format!("segment {seg} request {i}: memoised outcome changed")
            });
            let checked = check_request(
                &request,
                &o,
                decoded[k].as_ref().expect("a compiled kernel"),
                mix(seed, 0x5eed),
                &mut sweep.solo_us,
            );
            if let Err(e) = checked {
                eprintln!("segment {seg} request {i} ({} x{lanes}): {e}", spec.name);
                sweep.failed += 1;
            }
            for stats in o.lanes.iter().flatten() {
                sweep.lane_cycles.push(Some(stats.cycles as f64));
                sweep
                    .lane_energy
                    .push(Some(energy_nj(spec, &s.config, stats)));
            }
            sweep.digest.feed_u64(digests[i]);
        }
        if args.trace && seg == 0 {
            replay = Some(traced(&s, &reqs, &digests, mcycles, &mut out));
        }
        times.push(seg_times);
    }
    eprintln!(
        "input_sweep: {} kernels, {attempted} requests in {segments} segments, \
         {:.3} s wall and {sweep_cpu_s:.3} s CPU in the segments",
        kernels.len(),
        sweep.wall_s
    );

    out.attempted = attempted;
    out.failed += sweep.failed;
    out.set("setup_s", setup_s);
    out.set("work_per_s", 1.0 / timing.costs[timing.best()]);
    // Segments send different inputs, so their requests pool, each at
    // its segment's calibration.
    let per_segment = |f: fn(&SegmentTimes) -> &Vec<f64>, scales: &[f64]| -> Vec<f64> {
        let samples: Vec<Vec<f64>> = times.iter().map(|t| f(t).clone()).collect();
        scaled(&samples, scales)
    };
    let latency_ms = per_segment(|t| &t.latency_ms, &timing.scales);
    out.set_pct("latency_ms_p50", &latency_ms, 0.5);
    out.set_pct("latency_ms_p90", &latency_ms, 0.9);
    let memo_us = per_segment(|t| &t.memo_us, &timing.probe_scales);
    let disk_us = per_segment(|t| &t.disk_us, &timing.probe_scales);
    out.set_pct("memo_hit_us_p50", &memo_us, 0.5);
    out.set_pct("disk_hit_us_p50", &disk_us, 0.5);
    out.set(
        "ok_frac",
        1.0 - ratio(sweep.failed as f64, attempted as f64),
    );
    out.set(
        "mapped_frac",
        s.compiled.len() as f64 / s.specs.len() as f64,
    );
    out.set(
        "context_words_geomean",
        geomean(
            s.compiled
                .iter()
                .map(|(_, o)| Some(context_words(o) as f64)),
        )
        .unwrap_or(0.0),
    );
    out.set(
        "sim_cycles_geomean",
        geomean(sweep.lane_cycles.iter().copied()).unwrap_or(0.0),
    );
    out.set(
        "energy_nj_geomean",
        geomean(sweep.lane_energy.iter().copied()).unwrap_or(0.0),
    );
    // The sweep's design point: the paper kernels' mix on the swept
    // configuration, on their own input images.
    let paper: Vec<&(usize, RunOutcome)> = s
        .compiled
        .iter()
        .filter(|(k, _)| *k < PAPER_KERNELS)
        .collect();
    let point = (
        paper
            .iter()
            .map(|(k, o)| energy_nj(&s.specs[*k], &s.config, &o.sim))
            .sum::<f64>(),
        paper.iter().map(|(_, o)| o.cycles as f64).sum::<f64>(),
    );
    let reference = reference_point(&s.segment.engine, &s.specs[..PAPER_KERNELS]);
    out.set("frontier_hv", hypervolume(&[point], reference));
    for (k, o) in &s.compiled {
        sweep.digest.feed_usize(*k);
        sweep.digest.feed_u64(o.content_digest());
    }
    out.digest = sweep.digest.finish();
    out.set("peak_rss_mb", peak_rss_mb());
    if let Some((mut li, traced_cost)) = replay {
        li.overhead = ratio(traced_cost, timing.mean());
        li.memo_us = memo_us;
        li.disk_us = disk_us;
        li.solo_us = sweep.solo_us;
        li.busy_frac = ratio(sweep.phase_s, WORKERS as f64 * sweep.wall_s);
        li.context_words = s.compiled.iter().map(|(_, o)| context_words(o)).sum();
        layers::fill(&mut out, &li);
    }
    drop(s);
    out
}

/// Sends a segment's requests in order, a calibration slice before every
/// [`CALIBRATE_EVERY`]th, each followed by a memo-hit probe of a seeded
/// earlier request and a disk-hit probe of the same request on a probe
/// engine over the segment's store (a fresh one every round, so its memo
/// table never answers). Returns the outcome digests in request order and
/// the segment's request times.
fn timed_segment(
    s: &Setup,
    reqs: &[Req],
    round: usize,
    seed: u64,
    cal: &mut Calibration,
    sweep: &mut Sweep,
    out: &mut Outcome,
) -> (Vec<u64>, SegmentTimes) {
    let segment = &s.segment;
    let mut times = SegmentTimes::default();
    let mut digests: Vec<u64> = Vec::with_capacity(reqs.len());
    let mut probe = segment.store.engine();
    let phase0 = job_phase_s();
    let start = Instant::now();
    for (i, &(k, input_seed, lanes)) in reqs.iter().enumerate() {
        let request = s.request(k, input_seed, lanes);
        if i % CALIBRATE_EVERY == 0 {
            cal.slice();
        }
        let (result, dt) = timed(|| segment.engine.run_batch_sim(&request));
        times.latency_ms.push(dt * 1e3);
        times.request_s += dt;
        let outcome = result.expect("the kernel compiled during set-up");
        times.agg_cycles += outcome.agg_cycles;
        digests.push(outcome.content_digest());
        segment.disk.store_batch(request.key(), &outcome);
        drop(outcome);

        let digest = |r: BatchSimResult| r.ok().map(|o| o.content_digest());
        let j = (mix(seed ^ input_seed, i as u64) % (i as u64 + 1)) as usize;
        let (jk, jseed, jlanes) = reqs[j];
        let earlier = s.request(jk, jseed, jlanes);
        let (memo, dt) = timed(|| segment.engine.run_batch_sim(&earlier));
        times.memo_us.push(dt * 1e6);
        out.check(digest(memo) == Some(digests[j]), || {
            format!("memo hit of request {j} differs from its first result")
        });
        if i % round == 0 {
            probe = segment.store.engine();
        }
        let (disk, dt) = timed(|| probe.run_batch_sim(&request));
        times.disk_us.push(dt * 1e6);
        out.check(digest(disk) == Some(digests[i]), || {
            format!("disk hit of request {i} differs from its first result")
        });
    }
    sweep.wall_s += start.elapsed().as_secs_f64();
    sweep.phase_s += job_phase_s() - phase0;
    (digests, times)
}

/// Checks one request outside the timed phase: every lane retired, and a
/// seeded sample of lanes matches both the CDFG interpreter (final
/// memory) and a solo simulation (statistics), whose time is recorded.
fn check_request(
    request: &BatchSimRequest<'_>,
    outcome: &BatchSimOutcome,
    decoded: &DecodedProgram,
    pick: u64,
    solo_us: &mut Vec<f64>,
) -> Result<(), String> {
    if outcome.lanes.len() != request.lanes || outcome.ok_lanes() != request.lanes {
        return Err(format!(
            "{} of {} lanes retired",
            outcome.ok_lanes(),
            request.lanes
        ));
    }
    let images = request.images();
    for n in 0..CHECKED_LANES.min(request.lanes) {
        let lane = (mix(pick, n as u64) % request.lanes as u64) as usize;
        let mut expected = images[lane].clone();
        cmam_cdfg::interp::run(
            &request.spec.cdfg,
            &mut expected,
            cmam_kernels::generated::GEN_INTERP_BUDGET,
        )
        .map_err(|e| format!("lane {lane}: interpreter failed: {e}"))?;
        if mem_digest(&expected) != outcome.mem_digests[lane] {
            return Err(format!("lane {lane}: memory differs from the interpreter"));
        }
        let mut mem = images[lane].clone();
        let (solo, dt) = timed(|| decoded.simulate(&mut mem, request.sim));
        solo_us.push(dt * 1e6);
        if solo.as_ref().ok() != outcome.lanes[lane].as_ref().ok() {
            return Err(format!("lane {lane}: statistics differ from a solo run"));
        }
    }
    Ok(())
}

/// The traced phase, with tracing on, over a segment's requests. Each
/// request is sent to a fresh sweep engine (the program's own request
/// time, a calibration slice before every [`CALIBRATE_EVERY`]th), then
/// replayed through the layers' public functions. A replayed request is
/// the sweep's miss path: input images, key, the compile's memo hit,
/// decode, batched simulation, the outcome's digests and the copy the
/// memo table keeps. Encoding, parsing and loading the stored artifact
/// are timed after it, outside the request. Returns the layer inputs and
/// the engine's calibrated time per simulated Mcycle (the segment's
/// requests simulate `mcycles`).
fn traced(
    s: &Setup,
    reqs: &[Req],
    digests: &[u64],
    mcycles: f64,
    out: &mut Outcome,
) -> (LayerInputs, f64) {
    cmam_obs::enable_tracing();
    // The traced engine compiles the kernels before its timed requests,
    // as set-up does.
    let sweep = sweep_engine();
    sweep.run_batch(&compile_requests(&s.specs, &s.config));
    let engine = &s.segment.engine;
    let mut cal = Calibration::default();
    let mut rec = Recorder::new();
    let mut li = LayerInputs::default();
    let mut memo = Vec::with_capacity(reqs.len());
    for (i, (&(k, seed, lanes), &expected)) in reqs.iter().zip(digests).enumerate() {
        let request = s.request(k, seed, lanes);
        if i % CALIBRATE_EVERY == 0 {
            cal.slice();
        }
        let (traced_result, dt) = timed(|| sweep.run_batch_sim(&request));
        li.request_s += dt;
        let before = Counters::now();
        let (key, outcome, kept) = rec.span("request", |rec| {
            let images = rec.span("engine.images", |_| request.images());
            let key = rec.span("engine.key", |_| request.key_for(&images));
            let compiled = rec
                .span("engine.memo_hit", |_| {
                    engine.run_one(&request.compile_request())
                })
                .expect("the kernel compiled during set-up");
            let t0 = Instant::now();
            let decoded = rec
                .span("sim.decode", |_| {
                    DecodedProgram::decode(&compiled.binary, request.config)
                })
                .expect("a compiled binary decodes");
            let decode_time = t0.elapsed();
            let mut lanes: Vec<LaneState> = images.into_iter().map(LaneState::new).collect();
            let t1 = Instant::now();
            let results = rec.span("sim.batch", |_| {
                decoded.simulate_batch(&mut lanes, request.sim)
            });
            let sim_time = t1.elapsed();
            let outcome = rec.span("engine.outcome", |_| BatchSimOutcome {
                mem_digests: lanes.iter().map(|l| mem_digest(&l.mem)).collect(),
                agg_cycles: results
                    .iter()
                    .filter_map(|r| r.as_ref().ok().map(|s| s.cycles))
                    .sum(),
                lanes: results
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect(),
                decode_time,
                sim_time,
            });
            // The engine keeps a copy in its memo table.
            let kept = rec.span("engine.memo_insert", |_| outcome.clone());
            (key, outcome, kept)
        });
        li.counters.add_increase(&before, &Counters::now());
        memo.push(kept);
        // The artifact's way to the store and back, off the request path.
        let bytes = rec.span("engine.encode", |_| serialize_batch_outcome(&outcome));
        let parsed = rec.span("engine.parse", |_| parse_batch_outcome(&bytes));
        let loaded = rec.span("engine.disk_load", |_| s.segment.disk.load_batch(key));
        li.artifact_bytes.push(bytes.len() as f64);
        li.batch_cycles += outcome.agg_cycles;
        let digest = outcome.content_digest();
        let round_trips = parsed.map(|o| o.content_digest()) == Some(digest)
            && loaded.map(|o| o.content_digest()) == Some(digest);
        out.check(round_trips, || {
            format!("{}: artifact round trip differs", request.label())
        });
        out.check(
            digest == expected && traced_result.ok().map(|o| o.content_digest()) == Some(digest),
            || {
                format!(
                    "{}: replayed sweep differs from the engine's",
                    request.label()
                )
            },
        );
    }
    cmam_obs::disable_tracing();
    li.times = LayerTimes::from_spans(rec.spans());
    let mut traced_pass = Passes::default();
    traced_pass.record("traced", li.request_s, mcycles, &cal);
    (li, traced_pass.costs[0])
}
