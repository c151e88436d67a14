//! `dse_search`: one successive-halving `run_search` (the full CAB flow,
//! the 7 paper kernels, the paper's energy model) over a generated space
//! of [`SPACE`] configurations on [`WORKERS`] workers — the DSE user's
//! time to a frontier. Most configurations are infeasible, so the
//! mapper's failure path and the search's elimination rules dominate;
//! parallelism is across jobs rather than inside a map.
//!
//! The space is the DSE tools' default (`DEFAULT_SPACE_SEED`) for every
//! `--seed`, so the search, its frontier and every exact metric are the
//! same on every run: a seeded space moved the frontier, and with it each
//! quality metric, by up to a third from seed to seed. After each search
//! every scheduled job is requested again in seeded orders: memo hits on
//! the search's engine and disk hits on fresh engines over the same
//! store. Those results give the per-job latencies (the engine's own
//! phase times), the frontier's quality metrics and the checks.
//!
//! The search is one long call. Its calibration slices run inside it, in
//! the energy function the search calls on the client thread between its
//! batches, while the workers wait; their time is taken out of the
//! search's.

use crate::common::{
    context_words, cpu_s, energy_nj, fastest_per_request, is_failure, job_phase_s, measure_setup,
    mix, peak_rss_mb, ratio, reference_point, result_digest, scaled, shuffled, start_pool, timed,
    Args, Calibration, Engines, Outcome, Passes, Quality, Store, WORKERS,
};
use crate::layers::{self, Counters, LayerInputs};
use crate::spans::{LayerTimes, Recorder};
use crate::stats::{geomean, hypervolume};
use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_engine::cache::{parse_result, serialize_result, DiskCache};
use cmam_engine::dse::{generate_space, SpaceParams, DEFAULT_SPACE_SEED};
use cmam_engine::search::dominates;
use cmam_engine::{
    run_search, ConfigStatus, Engine, Fnv64, JobRequest, JobResult, RunOutcome, SearchOptions,
    SearchResult,
};
use cmam_kernels::KernelSpec;
use cmam_sim::{DecodedProgram, SimOptions};
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Configurations in the searched space.
const SPACE: usize = 100;

/// Rounds of re-requests after each search, each over every scheduled
/// job on a fresh probe engine, so the probes span more than a moment.
const PROBE_ROUNDS: usize = 2;

/// Nominal measuring time of one pass (its search took 9 to 13 s of wall
/// time on a 2-vCPU Xeon VM; see [`Args::passes`]).
const NOMINAL_PASS_S: f64 = 10.0;

/// Set-up processes `setup_s` is the median of.
const SETUP_RUNS: usize = 25;

/// Calibration slice time per second of search time.
const SLICE_SHARE: f64 = 0.05;

/// The run's inputs plus the engines of the current pass.
struct Setup {
    specs: Vec<KernelSpec>,
    space: Vec<CgraConfig>,
    engines: Engines,
}

impl Setup {
    /// Everything before the first timed request: the kernels, the
    /// space, engines over an empty store and the worker pool.
    fn new() -> Setup {
        let specs = cmam_kernels::all();
        let space = generate_space(&SpaceParams {
            target: SPACE,
            seed: DEFAULT_SPACE_SEED,
        });
        let engines = Engines::fresh();
        start_pool();
        Setup {
            specs,
            space,
            engines,
        }
    }

    /// The search's job for `(config, kernel)`: `run_search` submits
    /// `JobRequest::flow(spec, Cab, config)`, whose map thread count is
    /// the engine's budget (no environment override is allowed).
    fn request(&self, config: usize, kernel: usize) -> JobRequest<'_> {
        JobRequest::flow(&self.specs[kernel], FlowVariant::Cab, &self.space[config])
    }

    /// Runs the search on `engine`, with calibration slices inside it:
    /// whenever the energy function is called (on the client thread,
    /// between batches, while the workers wait), slices run until they
    /// make up [`SLICE_SHARE`] of the search's own time so far. Returns
    /// the result and the search's wall time without the slices.
    fn search(&self, engine: &Engine, cal: &mut Calibration) -> (SearchResult, f64) {
        let cal = RefCell::new(cal);
        let sliced = Cell::new(0.0f64);
        let start = Instant::now();
        let energy = |ci: usize, ki: usize, out: &RunOutcome| {
            while sliced.get() < SLICE_SHARE * (start.elapsed().as_secs_f64() - sliced.get()) {
                sliced.set(sliced.get() + cal.borrow_mut().slice());
            }
            cmam_bench::cgra_energy_of(&self.specs[ki], &self.space[ci], out).total()
        };
        let result = run_search(
            engine,
            &self.specs,
            &self.space,
            FlowVariant::Cab,
            &energy,
            &SearchOptions::default(),
        );
        (result, start.elapsed().as_secs_f64() - sliced.get())
    }
}

/// The body of a set-up-only process (see [`measure_setup`]).
pub fn setup_only() {
    crate::common::ready(Setup::new());
}

/// Every `(config, kernel)` job the search ran: each evaluated kernel,
/// plus the kernel an infeasible configuration failed on.
fn scheduled_jobs(result: &SearchResult) -> Vec<(usize, usize)> {
    let mut jobs = Vec::new();
    for ev in &result.evaluated {
        for (k, v) in ev.per_kernel.iter().enumerate() {
            if v.is_some() || ev.status == ConfigStatus::Infeasible(k) {
                jobs.push((ev.config_index, k));
            }
        }
    }
    jobs
}

/// Digest of every deterministic field the search returned.
fn search_digest(result: &SearchResult, h: &mut Fnv64) {
    for ev in &result.evaluated {
        h.feed_usize(ev.config_index);
        h.feed_str(&format!("{:?}", ev.status));
        for v in &ev.per_kernel {
            match v {
                Some((e, c)) => {
                    h.feed_u64(e.to_bits());
                    h.feed_u64(*c);
                }
                None => h.feed_u64(u64::MAX),
            }
        }
        h.feed_u64(ev.energy.to_bits());
        h.feed_u64(ev.cycles);
        h.feed_usize(ev.kernels_evaluated);
    }
    for &f in &result.frontier {
        h.feed_usize(f);
    }
}

/// Engine-measured service time of a job, in ms: map, assemble and
/// simulate for a mapping, the map time for a verdict.
fn service_ms(r: &JobResult) -> f64 {
    let d = match r {
        Ok(o) => o.compile_time + o.assemble_time + o.sim_time,
        Err(f) => f.compile_time,
    };
    d.as_secs_f64() * 1e3
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let setup_s = measure_setup(args, SETUP_RUNS).unwrap_or_else(|e| {
        out.fail_check(e);
        0.0
    });
    let mut s = Setup::new();

    // Each pass searches cold on fresh engines, then requests every
    // scheduled job again (see `probe_rounds`), so the probes of several
    // passes spread over the run.
    let passes = args.passes(NOMINAL_PASS_S);
    let mut timing = Passes::default();
    let phase0 = job_phase_s();
    let before = Counters::now();
    let mut counters = None;
    let mut search_s = 0.0;
    let mut search_cpu_s = 0.0;
    let mut first: Option<(SearchResult, Vec<JobResult>)> = None;
    let mut latency_ms: Vec<Vec<f64>> = Vec::new();
    let mut memo_us: Vec<Vec<f64>> = Vec::new();
    let mut disk_us: Vec<Vec<f64>> = Vec::new();
    let mut probe_scales = Vec::new();
    for p in 0..passes {
        if p > 0 {
            s.engines = Engines::fresh();
        }
        let cpu0 = cpu_s();
        let mut cal = Calibration::default();
        let (result, dt) = s.search(&s.engines.engine, &mut cal);
        search_cpu_s += cpu_s() - cpu0;
        search_s += dt;
        timing.record("search", dt, s.space.len() as f64, &cal);
        // Per-layer counts are per search: the first pass's.
        if counters.is_none() {
            let mut c = Counters::default();
            c.add_increase(&before, &Counters::now());
            counters = Some(c);
        }
        let jobs = scheduled_jobs(&result);
        let mut probe_cal = Calibration::default();
        let (results, memo, disk) = probe_rounds(
            &s,
            &jobs,
            mix(args.seed, p as u64),
            &mut probe_cal,
            &mut out,
        );
        memo_us.push(memo);
        disk_us.push(disk);
        probe_scales.push(probe_cal.probe_scale());
        // Per-job latency: the engine's own wall-clock phase times of
        // each scheduled job in this pass's search, in job order.
        latency_ms.push(results.iter().map(service_ms).collect());
        match &first {
            None => first = Some((result, results)),
            Some((r0, results0)) => {
                let (mut a, mut b) = (Fnv64::new(), Fnv64::new());
                search_digest(r0, &mut a);
                search_digest(&result, &mut b);
                let same = a.finish() == b.finish()
                    && results0
                        .iter()
                        .zip(&results)
                        .all(|(x, y)| result_digest(x) == result_digest(y));
                out.check(same, || format!("search pass {p} differs from pass 0"));
            }
        }
    }
    let (result, results) = first.expect("at least one pass");
    let jobs = scheduled_jobs(&result);
    let busy = ratio(job_phase_s() - phase0, WORKERS as f64 * search_s);
    eprintln!(
        "dse_search: {} configs x {passes} passes in {search_s:.3} s wall ({search_cpu_s:.3} s CPU), \
         {} jobs executed per pass, frontier {:?}",
        s.space.len(),
        result.stats.engine.executed,
        result.frontier
    );
    out.set("setup_s", setup_s);
    out.set("work_per_s", 1.0 / timing.costs[timing.best()]);
    let latency_ms = fastest_per_request(&latency_ms, &timing.scales);
    out.set_pct("latency_ms_p50", &latency_ms, 0.5);
    out.set_pct("latency_ms_p90", &latency_ms, 0.9);
    let memo_us = scaled(&memo_us, &probe_scales);
    let disk_us = scaled(&disk_us, &probe_scales);
    out.set_pct("memo_hit_us_p50", &memo_us, 0.5);
    out.set_pct("disk_hit_us_p50", &disk_us, 0.5);

    let failures = results.iter().filter(|r| is_failure(r)).count() as u64;
    out.attempted = jobs.len() as u64;
    out.failed += failures;
    let mapped = results.iter().filter(|r| r.is_ok()).count();
    out.set("mapped_frac", mapped as f64 / jobs.len() as f64);
    out.set("ok_frac", 1.0 - ratio(failures as f64, jobs.len() as f64));

    check_frontier(&s, &result, &jobs, &results, &mut out);
    let quality: Vec<Option<Quality>> = jobs
        .iter()
        .zip(&results)
        .filter(|((c, _), _)| result.frontier.contains(c))
        .map(|(&(c, k), r)| {
            r.as_ref().ok().map(|o| {
                (
                    context_words(o) as f64,
                    o.cycles as f64,
                    energy_nj(&s.specs[k], &s.space[c], &o.sim),
                )
            })
        })
        .collect();
    let gm =
        |f: fn(&Quality) -> f64| geomean(quality.iter().map(|q| q.as_ref().map(f))).unwrap_or(0.0);
    out.set("context_words_geomean", gm(|q| q.0));
    out.set("sim_cycles_geomean", gm(|q| q.1));
    out.set("energy_nj_geomean", gm(|q| q.2));
    let reference = reference_point(&s.engines.engine, &s.specs);
    let points: Vec<(f64, f64)> = result
        .frontier
        .iter()
        .map(|&c| {
            let ev = &result.evaluated[c];
            (ev.energy * 1e3, ev.cycles as f64)
        })
        .collect();
    out.set("frontier_hv", hypervolume(&points, reference));

    let mut h = Fnv64::new();
    search_digest(&result, &mut h);
    for r in &results {
        h.feed_u64(result_digest(r));
    }
    out.digest = h.finish();
    out.set("peak_rss_mb", peak_rss_mb());

    if args.trace {
        let li = LayerInputs {
            counters: counters.unwrap_or_default(),
            busy_frac: busy,
            memo_us,
            disk_us,
            ..LayerInputs::default()
        };
        traced(&s, &result, timing.mean(), &jobs, &results, li, &mut out);
        layers_from_results(&results, &mut out);
        let executed = result.stats.engine.executed as f64;
        out.set("search.executed", executed);
        out.set(
            "search.evals_frac",
            executed / (s.space.len() * s.specs.len()) as f64,
        );
        out.set("search.promoted", result.stats.promoted as f64);
        out.set("search.raced", result.stats.raced as f64);
        out.set("search.dominated", result.stats.dominated as f64);
        out.set("search.infeasible", result.stats.infeasible as f64);
    }
    drop(s);
    out
}

/// Requests every scheduled job again, [`PROBE_ROUNDS`] times in seeded
/// orders: memo hits on the search's engine, disk hits on a fresh probe
/// engine each round, a calibration slice before each pair. Returns the
/// results in job order and the memo-hit and disk-hit times in µs.
fn probe_rounds(
    s: &Setup,
    jobs: &[(usize, usize)],
    seed: u64,
    cal: &mut Calibration,
    out: &mut Outcome,
) -> (Vec<JobResult>, Vec<f64>, Vec<f64>) {
    let mut memo_us = Vec::new();
    let mut disk_us = Vec::new();
    let mut results: Vec<Option<JobResult>> = vec![None; jobs.len()];
    for round in 0..PROBE_ROUNDS {
        let probe = s.engines.store.engine();
        for i in shuffled(jobs.len(), mix(seed, round as u64)) {
            let (c, k) = jobs[i];
            let request = s.request(c, k);
            cal.slice();
            let (r, dt) = timed(|| s.engines.engine.run_one(&request));
            memo_us.push(dt * 1e6);
            let (d, dt) = timed(|| probe.run_one(&request));
            disk_us.push(dt * 1e6);
            let digest = result_digest(&r);
            out.check(digest == result_digest(&d), || {
                format!("{}: disk hit differs from memo hit", request.label())
            });
            match &results[i] {
                Some(first) => out.check(digest == result_digest(first), || {
                    format!("{}: memo hit changed between rounds", request.label())
                }),
                None => results[i] = Some(r),
            }
        }
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("every job re-requested"))
        .collect();
    (results, memo_us, disk_us)
}

/// The frontier checks: the search completed, every frontier member was
/// fully evaluated, no member dominates another, and each member's
/// totals equal the sums of its re-requested jobs, bit for bit.
fn check_frontier(
    s: &Setup,
    result: &SearchResult,
    jobs: &[(usize, usize)],
    results: &[JobResult],
    out: &mut Outcome,
) {
    out.check(!result.aborted && !result.frontier.is_empty(), || {
        "search aborted or found no frontier".to_string()
    });
    let point = |c: usize| (result.evaluated[c].energy, result.evaluated[c].cycles);
    for &a in &result.frontier {
        out.check(
            result.evaluated[a].status == ConfigStatus::Completed,
            || format!("frontier member {a} is {:?}", result.evaluated[a].status),
        );
        for &b in &result.frontier {
            out.check(!dominates(point(a), point(b)), || {
                format!("frontier member {a} dominates member {b}")
            });
        }
        let (mut energy, mut cycles) = (0.0, 0u64);
        for k in 0..s.specs.len() {
            let i = jobs.iter().position(|&j| j == (a, k));
            match i.map(|i| &results[i]) {
                Some(Ok(o)) => {
                    energy += cmam_bench::cgra_energy_of(&s.specs[k], &s.space[a], o).total();
                    cycles += o.cycles;
                }
                _ => out.fail_check(format!("frontier member {a} lacks a mapping of kernel {k}")),
            }
        }
        out.check((energy, cycles) == point(a), || {
            format!(
                "frontier member {a}: jobs sum to {energy}/{cycles}, search says {:?}",
                point(a)
            )
        });
    }
}

/// Per-layer metrics of the search: a second, traced search on a fresh
/// store (its calibrated time against the untraced one's is the tracing
/// overhead), the always-on counters of the untraced search, and the
/// layer calls the benchmark replays on each scheduled job's result.
fn traced(
    s: &Setup,
    untraced: &SearchResult,
    untraced_s: f64,
    jobs: &[(usize, usize)],
    results: &[JobResult],
    mut li: LayerInputs,
    out: &mut Outcome,
) {
    cmam_obs::enable_tracing();
    let store = Store::fresh();
    let engine = store.engine();
    let phase0 = job_phase_s();
    let mut cal = Calibration::default();
    let (traced, traced_s) = s.search(&engine, &mut cal);
    let mut traced_pass = Passes::default();
    traced_pass.record("traced search", traced_s, s.space.len() as f64, &cal);
    let traced_phase_s = job_phase_s() - phase0;
    let mut a = Fnv64::new();
    let mut b = Fnv64::new();
    search_digest(untraced, &mut a);
    search_digest(&traced, &mut b);
    out.check(a.finish() == b.finish(), || {
        "traced search differs from the untraced one".to_string()
    });

    let disk = DiskCache::new(Some(s.engines.store.dir().to_path_buf()), None);
    let mut rec = Recorder::new();
    for (&(c, k), r) in jobs.iter().zip(results) {
        let request = s.request(c, k);
        let key = rec.span("request", |rec| {
            let key = rec.span("engine.key", |_| request.key());
            if let Ok(o) = r {
                let decoded = rec
                    .span("sim.decode", |_| {
                        DecodedProgram::decode(&o.binary, request.config)
                    })
                    .expect("a binary that simulated decodes");
                let mut mem = request.spec.mem.clone();
                let _ = rec.span("sim.solo", |_| {
                    decoded.simulate(&mut mem, SimOptions::default())
                });
                li.context_words += context_words(o);
            }
            rec.span("engine.store", |_| disk.store(key, r));
            key
        });
        let bytes = rec.span("engine.encode", |_| serialize_result(r));
        let _ = rec.span("engine.parse", |_| parse_result(&bytes));
        let _ = rec.span("engine.disk_load", |_| disk.load(key));
        li.artifact_bytes.push(bytes.len() as f64);
    }
    cmam_obs::disable_tracing();
    li.times = LayerTimes::from_spans(rec.spans());
    li.request_s = traced_s;
    li.overhead = ratio(traced_pass.costs[0], untraced_s);
    layers::fill(out, &li);
    // The search is one request. The engine's share is its per-job key
    // and store time against the search's time, and the layer time is
    // the job phase time the engine measured, spread over the workers.
    let engine_s = li.times.self_s("engine.key") + li.times.self_s("engine.store");
    out.set(
        "engine.overhead_share",
        ratio(engine_s, engine_s + traced_s),
    );
    out.set(
        "trace.coverage",
        ratio(traced_phase_s, WORKERS as f64 * traced_s),
    );
    drop(store);
}

/// Map and assemble times of the search's own jobs, from the engine's
/// measurements (the search runs them inside the engine, where the
/// benchmark has no call to time).
fn layers_from_results(results: &[JobResult], out: &mut Outcome) {
    let mut map_ms = Vec::new();
    let mut fail_ms = Vec::new();
    let mut assemble_us = Vec::new();
    let (mut map_s, mut assemble_s, mut total_s) = (0.0, 0.0, 0.0);
    for r in results {
        match r {
            Ok(o) => {
                map_ms.push(o.compile_time.as_secs_f64() * 1e3);
                assemble_us.push(o.assemble_time.as_secs_f64() * 1e6);
                map_s += o.compile_time.as_secs_f64();
                assemble_s += o.assemble_time.as_secs_f64();
            }
            Err(f) => {
                fail_ms.push(f.compile_time.as_secs_f64() * 1e3);
                map_s += f.compile_time.as_secs_f64();
            }
        }
        total_s += service_ms(r) / 1e3;
    }
    let candidates = out.metrics.get("core.candidates").copied().unwrap_or(0.0);
    out.set_layer_pct("core.map_ms_p50", &map_ms, 0.5);
    out.set_layer_pct("core.fail_map_ms_p50", &fail_ms, 0.5);
    out.set_layer_pct("isa.assemble_us_p50", &assemble_us, 0.5);
    out.set("core.map_share", ratio(map_s, total_s));
    out.set("isa.assemble_share", ratio(assemble_s, total_s));
    out.set("core.candidates_per_s", ratio(candidates, map_s));
}
