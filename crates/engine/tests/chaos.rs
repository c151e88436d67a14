//! Chaos suite: seeded fault schedules driven through the whole engine.
//!
//! Every test here installs a global [`cmam_fault::FaultPlan`] and
//! asserts the engine's recovery contract: fault-laden runs converge to
//! results **bit-identical** to the fault-free run (transient faults are
//! recoverable by construction — see `cmam_fault`'s transient rule and
//! [`cmam_engine::job::MAX_JOB_ATTEMPTS`]), a permanently-failing job is
//! quarantined as a structured [`JobFailure`] while its siblings finish,
//! and no orphan `.tmp-*` files survive an open-time sweep. One test
//! checks the other side of the contract: with no plan installed, the
//! fault sites cost a job next to nothing.
//!
//! The fault plan is process-global state, so the tests serialize on one
//! poison-recovering mutex; other test binaries run in their own
//! processes and are unaffected.

use cmam_arch::CgraConfig;
use cmam_core::FlowVariant;
use cmam_engine::cache::DiskCache;
use cmam_engine::job::MAX_JOB_ATTEMPTS;
use cmam_engine::search::{run_search, SearchOptions};
use cmam_engine::{
    smoke_matrix, Engine, EngineOptions, FailStage, JobRequest, JobResult, RunOutcome,
};
use cmam_fault::FaultPlan;
use cmam_kernels::KernelSpec;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, Once, PoisonError};
use std::time::Instant;

/// Serializes the tests in this binary: the installed fault plan is
/// process-global, and the lock recovers from poisoning because panics
/// are this suite's product.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> MutexGuard<'static, ()> {
    CHAOS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Silences the default panic-hook backtrace spam for *injected* panics
/// only — a chaos run fires hundreds of them by design, and each would
/// otherwise print a "thread panicked" banner. Real panics still report.
fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected fault") {
                default(info);
            }
        }));
    });
}

/// The transient-only chaos schedule: every failure-prone site in the
/// engine and cache, at rates high enough that an 8-seed sweep exercises
/// all of them many times over. No `:sticky` rules — every injected
/// fault is recoverable within the engine's retry budget, so results
/// must be bit-identical to the fault-free run for *any* seed.
const TRANSIENT_PLAN: &str = "cache.read=0.25,cache.write=0.25,cache.kill=0.2,\
     cache.rename=0.2,cache.corrupt.truncate=0.25,cache.corrupt.bitflip=0.25,\
     job.panic=0.3,job.delay=0.15";

/// Three cheapest paper kernels — the same trim as the DSE search tests,
/// plenty of batch width at debug-profile cost.
fn chaos_specs() -> Vec<KernelSpec> {
    let mut specs = cmam_kernels::all();
    specs.sort_by_key(|s| s.cdfg.total_ops());
    specs.truncate(3);
    specs
}

fn flow_requests<'a>(
    specs: &'a [KernelSpec],
    matrix: &'a [(FlowVariant, CgraConfig)],
) -> Vec<JobRequest<'a>> {
    specs
        .iter()
        .flat_map(|s| matrix.iter().map(move |(v, c)| JobRequest::flow(s, *v, c)))
        .collect()
}

/// Comparable digest of a job result, ignoring only wall-clock noise
/// (compile/sim times and the failure's `compile_time`/`attempts` — a
/// fault-laden run legitimately spends more attempts than a clean one).
fn digest(result: &JobResult) -> String {
    match result {
        Ok(out) => format!("ok:{:016x}", out.content_digest()),
        Err(f) => format!("err:{:?}:{}", f.stage, f.message),
    }
}

fn engine_with(dir: Option<PathBuf>) -> Engine {
    Engine::new(EngineOptions {
        jobs: 4,
        cache_dir: dir,
        cache_bytes: None,
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmam-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tmp_orphans(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.starts_with(".tmp-"))
                .collect()
        })
        .unwrap_or_default()
}

/// The headline acceptance test: eight seeded fault schedules over a
/// full batch, each run twice (cold store, then a fresh engine over the
/// surviving store), must produce results bit-identical to the
/// fault-free run — and after a final open-time sweep, no `.tmp-*`
/// orphans (deliberately leaked by the `cache.kill` site) remain.
#[test]
fn eight_seeded_fault_schedules_converge_to_fault_free_results() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    cmam_fault::clear();

    let specs = chaos_specs();
    let matrix = smoke_matrix();
    let requests = flow_requests(&specs, &matrix);
    let baseline: Vec<String> = engine_with(None)
        .run_batch(&requests)
        .iter()
        .map(digest)
        .collect();

    let fired_before = cmam_obs::metrics::registry().counter("fault.fired").get();
    for seed in 1..=8u64 {
        let dir = fresh_dir(&format!("seeds-{seed}"));
        cmam_fault::install(FaultPlan::parse(TRANSIENT_PLAN, seed).expect("valid plan"));

        // Pass A: cold store. Every job executes at least once, through
        // whatever panics, delays and store failures the seed decrees.
        let cold = engine_with(Some(dir.clone()));
        let got: Vec<String> = cold.run_batch(&requests).iter().map(digest).collect();
        assert_eq!(got, baseline, "cold chaos run diverged at seed {seed}");
        assert_eq!(
            cold.stats().quarantined,
            0,
            "transient-only plan must never quarantine (seed {seed})"
        );

        // Pass B: a fresh engine over the surviving artifacts. Reads hit
        // the injected read-error and corruption sites; self-healing and
        // recompute must still converge to the same bits.
        let warm = engine_with(Some(dir.clone()));
        let got: Vec<String> = warm.run_batch(&requests).iter().map(digest).collect();
        assert_eq!(got, baseline, "warm chaos run diverged at seed {seed}");

        // With the plan gone, a reopen sweeps the `.tmp-*` orphans that
        // `cache.kill` deliberately left behind.
        cmam_fault::clear();
        drop(DiskCache::new(Some(dir.clone()), None));
        assert_eq!(
            tmp_orphans(&dir),
            Vec::<String>::new(),
            "orphan temp files survived the sweep at seed {seed}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let fired_after = cmam_obs::metrics::registry().counter("fault.fired").get();
    assert!(
        fired_after > fired_before,
        "eight seeded schedules should have injected at least one fault"
    );
}

/// A batch with one permanently-failing job (a sticky `job.panic` curse
/// on exactly one key) completes with N-1 successes; the cursed job is
/// quarantined as a structured `Panic` failure after exactly the retry
/// budget, and the engine's stats account for every retry.
#[test]
fn one_permanently_failing_job_is_quarantined_with_structure() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    cmam_fault::clear();

    let specs = chaos_specs();
    let matrix = smoke_matrix();
    let requests = flow_requests(&specs, &matrix);
    let keys: Vec<u64> = requests.iter().map(JobRequest::key).collect();
    let baseline: Vec<String> = engine_with(None)
        .run_batch(&requests)
        .iter()
        .map(digest)
        .collect();

    // Job keys fold in the toolchain hash, so which key a given seed
    // curses changes across builds; scan for a seed cursing exactly one.
    let (plan, cursed) = (0..u64::MAX)
        .find_map(|seed| {
            let plan = FaultPlan::parse("job.panic=0.08:sticky", seed).expect("valid plan");
            let cursed: Vec<usize> = (0..keys.len())
                .filter(|&i| plan.decides("job.panic", keys[i], 1))
                .collect();
            (cursed.len() == 1).then(|| (plan, cursed[0]))
        })
        .expect("some seed curses exactly one job");
    cmam_fault::install(plan);

    let engine = engine_with(None);
    let results = engine.run_batch(&requests);
    cmam_fault::clear();

    for (i, result) in results.iter().enumerate() {
        if i == cursed {
            let failure = result.as_ref().expect_err("cursed job must fail");
            assert_eq!(failure.stage, FailStage::Panic);
            assert_eq!(failure.attempts, MAX_JOB_ATTEMPTS);
            assert!(failure.retriable, "a panic may be environmental");
            assert!(
                failure.message.contains("injected fault: job.panic"),
                "quarantine must carry the panic message, got: {}",
                failure.message
            );
        } else {
            assert_eq!(
                digest(result),
                baseline[i],
                "sibling job {i} was disturbed by the quarantine"
            );
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(
        stats.retries,
        u64::from(MAX_JOB_ATTEMPTS - 1),
        "the cursed job alone should account for every retry"
    );
}

/// With no plan installed, every fault site must collapse to one relaxed
/// atomic load. One healthy job pays seven checks: `fires` on the four
/// cache paths, one corruption probe, and a `job.panic` check plus a
/// `job.delay` roll for its single attempt. That bundle, averaged over a
/// million rounds, may cost at most 0.5% of one real job (DC Filter,
/// basic flow, HOM64) timed in the same process. Both times come from
/// the same machine under the same load, so the verdict is about the
/// hooks rather than run-to-run machine noise.
#[test]
fn fault_hooks_off_cost_at_most_half_a_percent_of_a_job() {
    let _serial = chaos_lock();
    cmam_fault::clear();

    const ROUNDS: u64 = 1_000_000;
    let mut fired = 0u64;
    let t0 = Instant::now();
    for k in 0..ROUNDS {
        // A per-round key, laundered through black_box, keeps the checks
        // from being hoisted out of the loop.
        let key = std::hint::black_box(k);
        fired += u64::from(cmam_fault::fires("cache.read", key));
        fired += u64::from(cmam_fault::fires("cache.write", key));
        fired += u64::from(cmam_fault::fires("cache.kill", key));
        fired += u64::from(cmam_fault::fires("cache.rename", key));
        fired += u64::from(cmam_fault::fires_attempt("job.panic", key, 1));
        fired += u64::from(cmam_fault::roll("job.delay", key).is_some());
        let mut bytes: Vec<u8> = Vec::new();
        fired += u64::from(cmam_fault::corrupt_artifact(key, &mut bytes));
    }
    let hooks_ns = t0.elapsed().as_secs_f64() * 1e9 / ROUNDS as f64;
    assert_eq!(fired, 0, "no plan is installed, nothing may fire");

    let spec = cmam_kernels::dc::spec();
    let config = CgraConfig::hom64();
    let t0 = Instant::now();
    cmam_engine::execute(&JobRequest::flow(&spec, FlowVariant::Basic, &config))
        .expect("DC Filter maps on HOM64");
    let job_ns = t0.elapsed().as_secs_f64() * 1e9;

    let ratio = job_ns / (job_ns + hooks_ns);
    assert!(
        ratio >= 0.995,
        "fault hooks cost {hooks_ns:.1} ns per job against {job_ns:.0} ns of work \
         (ratio {ratio:.5} < 0.995)"
    );
}

/// A DSE search killed partway and resumed over the same artifact store,
/// with transient faults injected throughout both halves, must land on
/// the exact fault-free frontier — every per-config status, energy bit
/// pattern and cycle count identical.
#[test]
fn resumed_dse_search_under_faults_matches_the_fault_free_frontier() {
    let _serial = chaos_lock();
    quiet_injected_panics();
    cmam_fault::clear();

    let specs = chaos_specs();
    let configs = cmam_engine::dse::validation_space();
    // Same stand-in energy model as the search tests: strictly positive,
    // provisioning-sensitive, identical for fault-free and faulted runs.
    let energy = |ci: usize, _ki: usize, out: &RunOutcome| {
        let words = configs[ci].total_cm_words() as f64;
        out.cycles as f64 * (1.0 + words / 256.0)
    };

    let fault_free = run_search(
        &engine_with(None),
        &specs,
        &configs,
        FlowVariant::Cab,
        &energy,
        &SearchOptions::default(),
    );
    assert!(!fault_free.aborted);

    let dir = fresh_dir("dse");
    cmam_fault::install(FaultPlan::parse(TRANSIENT_PLAN, 0xD5E).expect("valid plan"));

    // Kill the faulted sweep partway through (same budget shape as the
    // resume test), then resume it to completion — still under faults.
    let killed = run_search(
        &engine_with(Some(dir.clone())),
        &specs,
        &configs,
        FlowVariant::Cab,
        &energy,
        &SearchOptions {
            max_jobs: Some(configs.len() + 5),
        },
    );
    assert!(killed.aborted);
    let resumed = run_search(
        &engine_with(Some(dir.clone())),
        &specs,
        &configs,
        FlowVariant::Cab,
        &energy,
        &SearchOptions::default(),
    );
    cmam_fault::clear();
    assert!(!resumed.aborted);

    assert_eq!(resumed.frontier, fault_free.frontier);
    for (got, want) in resumed.evaluated.iter().zip(&fault_free.evaluated) {
        assert_eq!(got.status, want.status, "config {}", want.config_index);
        assert_eq!(
            got.energy.to_bits(),
            want.energy.to_bits(),
            "config {}",
            want.config_index
        );
        assert_eq!(got.cycles, want.cycles, "config {}", want.config_index);
        assert_eq!(got.kernels_evaluated, want.kernels_evaluated);
    }

    drop(DiskCache::new(Some(dir.clone()), None));
    assert_eq!(
        tmp_orphans(&dir),
        Vec::<String>::new(),
        "orphan temp files survived the post-search sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
