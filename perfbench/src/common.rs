//! Pieces every workload shares: run isolation (private stores, pinned
//! worker counts), the calibrated host clock, set-up timing, metric
//! collection and the determinism digest.

use cmam_arch::CgraConfig;
use cmam_engine::{Engine, EngineOptions, FailStage, Fnv64, JobResult};
use cmam_kernels::KernelSpec;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Engine workers, and the most threads any workload runs at once.
pub const WORKERS: usize = 2;

/// Environment variables that would change what a run measures. The run
/// refuses to start while any is set; the traced run turns tracing on
/// itself.
pub const FORBIDDEN_ENV: [&str; 5] = [
    "CMAM_FAULT_SEED",
    "CMAM_FAULT_PLAN",
    "CMAM_TRACE",
    "CMAM_THREADS",
    "CMAM_CACHE_BYTES",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Requested measuring time; sets the number of fixed-work passes.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Run only the workload's set-up (see [`measure_setup`]).
    pub setup_only: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`, plus the
    /// [`SETUP_ONLY`] flag of the set-up processes.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut setup_only = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                    }
                }
                SETUP_ONLY => setup_only = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds must be positive, got {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            setup_only,
        })
    }

    /// Fixed-work passes for a workload whose one pass takes about
    /// `nominal_s`: a pure function of `--seconds`, never of a measured
    /// time, so every run of a seed does identical work.
    pub fn passes(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(1)
    }
}

/// Refuses to run under an environment that changes the measured
/// program (fault plans, forced tracing, thread or cache overrides).
pub fn check_environment() -> Result<(), String> {
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("refusing to run with {} set", set.join(", ")))
    }
}

/// A private, initially empty artifact store for one engine lifetime,
/// under the build directory of the checkout. Never the shared
/// `target/cmam-cache`.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Creates a fresh empty store directory unique to this process.
    pub fn fresh() -> Store {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
        let dir = root.join(format!(
            "perfbench-store-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the private artifact store");
        Store { dir }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// An engine with [`WORKERS`] workers over this store, no byte
    /// budget. Every engine option is spelled out rather than read from
    /// the environment or argv.
    pub fn engine(&self) -> Engine {
        Engine::new(EngineOptions {
            jobs: WORKERS,
            cache_dir: Some(self.dir.clone()),
            cache_bytes: None,
        })
    }
}

/// An engine over a fresh private store, plus a second engine over the
/// same store whose empty memo table turns every request into a disk hit.
#[derive(Debug)]
pub struct Engines {
    /// The store both engines share; dropping it removes the directory.
    pub store: Store,
    /// The engine requests are timed on.
    pub engine: Engine,
    /// The disk-hit probe engine.
    pub probe: Engine,
}

impl Engines {
    /// Both engines over a new empty store.
    pub fn fresh() -> Engines {
        let store = Store::fresh();
        let engine = store.engine();
        let probe = store.engine();
        Engines {
            store,
            engine,
            probe,
        }
    }
}

impl Drop for Store {
    /// Removes the store. Runs outside every timed phase: workloads drop
    /// stores only after their measurements.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs `f`, returning its value and the wall time it took in seconds.
/// Every host time the benchmark reports is wall time: what a user
/// waits for, parallel work included.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// CPU time of this process so far, all threads, user plus system, in
/// seconds. A diagnostic printed beside wall times on standard error
/// (their ratio is the parallelism a phase got), never a metric.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's, which std links on
    // Linux; it writes one `timespec` (two 64-bit fields on the 64-bit
    // targets this benchmark runs on) through a pointer to a live,
    // exclusively borrowed, `repr(C)` value of that layout.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Wall time of one calibration slice on a quiet 2-vCPU Xeon VM, in ns.
/// It only fixes the unit of calibrated times; see [`Calibration`].
pub const REFERENCE_SLICE_NS: f64 = 750_000.0;

/// One calibration slice's work: a fixed piece of the benchmark's own
/// integer, branch, hash-table and sort work over 64 KB, never the
/// program's code, so no change to the program moves it.
fn slice_work() {
    let mut words: Vec<u32> = (0..16_384u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    // A fixed-key hasher: the default one draws new keys for every map,
    // and the slice must do the same work every time.
    let mut counts: std::collections::HashMap<
        u32,
        u64,
        std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>,
    > = Default::default();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % words.len() as u64) as usize;
        if words[i] & 1 == 0 {
            words[i] = words[i].wrapping_add(x as u32);
        } else {
            *counts.entry(words[i] & 1023).or_default() += 1;
        }
    }
    words.sort_unstable();
    std::hint::black_box((words[100], counts.len()));
}

/// Host-speed calibration of one pass of a run. On a shared VM the same
/// fixed work took 7 to 15 s of wall time from run to run: the
/// hypervisor gives the vCPUs to other guests for milliseconds at a time
/// (up to a fifth of a run's time here), and neighbours on the shared
/// cores slow them down for seconds at a time. A pass runs slices of the
/// benchmark's own work on the client thread between its timed requests,
/// while the workers wait, and its wall times are reported in units of
/// [`REFERENCE_SLICE_NS`]: both are slowed alike, so their ratio holds
/// still while the work's own cost, parallelism included, still shows.
/// A slice on two threads at once tracked two-thread work worse than one
/// on a single thread: its time depended on where the scheduler put the
/// second thread.
#[derive(Debug, Default)]
pub struct Calibration {
    slices_ns: Vec<f64>,
}

impl Calibration {
    /// Runs one slice on the calling thread and records its wall time:
    /// the work once untimed, so the slice's data is in this core's
    /// caches whatever the program left there, then the timed work.
    /// Returns the whole slice's wall time in seconds, so a caller that
    /// runs slices inside a timed call can take them out.
    pub fn slice(&mut self) -> f64 {
        let t = Instant::now();
        slice_work();
        let timed = Instant::now();
        slice_work();
        self.slices_ns.push(timed.elapsed().as_nanos() as f64);
        t.elapsed().as_secs_f64()
    }

    /// The factor for the times of requests measured in this pass (1
    /// when no slice ran): [`REFERENCE_SLICE_NS`] over the mean slice
    /// time. The hypervisor's pauses land on a slice as often, per unit of
    /// time, as on the requests around it, so the mean slice absorbs them
    /// in the same proportion as the requests' total does.
    pub fn scale(&self) -> f64 {
        if self.slices_ns.is_empty() {
            1.0
        } else {
            REFERENCE_SLICE_NS * self.slices_ns.len() as f64 / self.slices_ns.iter().sum::<f64>()
        }
    }

    /// The factor for probes measured in this pass: memo and disk hits
    /// of tens of microseconds, which the hypervisor rarely pauses and
    /// whose median it never does. [`REFERENCE_SLICE_NS`] over the median
    /// slice time, which the host's speed moves and its pauses do not.
    pub fn probe_scale(&self) -> f64 {
        if self.slices_ns.is_empty() {
            return 1.0;
        }
        let mut sorted = self.slices_ns.clone();
        sorted.sort_by(f64::total_cmp);
        REFERENCE_SLICE_NS / sorted[sorted.len() / 2]
    }
}

/// A run's passes over the same kind of work, each with its own
/// calibration; the pass with the least calibrated time per unit of work
/// gives the run's throughput. Interference only ever adds time: on the
/// shared VM a pass often came out a tenth slower than its slices
/// showed, and the fastest of a run's passes was steadier.
#[derive(Debug, Default)]
pub struct Passes {
    /// Calibrated seconds per unit of work, per pass.
    pub costs: Vec<f64>,
    /// Each pass's [`Calibration::scale`].
    pub scales: Vec<f64>,
    /// Each pass's [`Calibration::probe_scale`].
    pub probe_scales: Vec<f64>,
}

impl Passes {
    /// Records a pass that did `work` units of work in `wall_s` of timed
    /// wall time under `calibration`, and prints it to standard error.
    pub fn record(&mut self, what: &str, wall_s: f64, work: f64, calibration: &Calibration) {
        let scale = calibration.scale();
        eprintln!(
            "{what} pass {}: {wall_s:.4} s wall, {} slices, x {scale:.4} (probes x {:.4}), \
             {:.4} s calibrated",
            self.costs.len(),
            calibration.slices_ns.len(),
            calibration.probe_scale(),
            wall_s * scale
        );
        self.costs.push(wall_s * scale / work);
        self.scales.push(scale);
        self.probe_scales.push(calibration.probe_scale());
    }

    /// Index of the pass with the least calibrated time per unit of work.
    pub fn best(&self) -> usize {
        (0..self.costs.len())
            .min_by(|&a, &b| self.costs[a].total_cmp(&self.costs[b]))
            .expect("at least one pass")
    }

    /// Mean calibrated time per unit of work.
    pub fn mean(&self) -> f64 {
        self.costs.iter().sum::<f64>() / self.costs.len() as f64
    }
}

/// Each request's fastest time over the passes, each pass's times scaled
/// by its factor in `scales`: every pass sends the same requests in the
/// same order, and interference only ever adds time to one.
pub fn fastest_per_request(per_pass: &[Vec<f64>], scales: &[f64]) -> Vec<f64> {
    let n = per_pass.first().map_or(0, Vec::len);
    assert!(
        per_pass.iter().all(|p| p.len() == n),
        "every pass sends the same requests"
    );
    (0..n)
        .map(|i| {
            per_pass
                .iter()
                .zip(scales)
                .map(|(p, scale)| p[i] * scale)
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Each pass's `samples` times that pass's factor in `scales`, pooled.
pub fn scaled(per_pass: &[Vec<f64>], scales: &[f64]) -> Vec<f64> {
    per_pass
        .iter()
        .zip(scales)
        .flat_map(|(samples, &scale)| samples.iter().map(move |v| v * scale))
        .collect()
}

/// Calibration slices run before each timed set-up.
const SETUP_SLICES: usize = 8;

/// The flag that makes a process of this benchmark run only its
/// workload's set-up, print [`SETUP_READY`] and exit.
pub const SETUP_ONLY: &str = "--setup-only";

/// The line a set-up-only process prints once its set-up is done.
pub const SETUP_READY: &str = "ready";

/// Measures `setup_s`: the wall time from starting a process of this
/// benchmark to the moment its first timed request would go out —
/// process start, argument parsing, the workload's set-up and the worker
/// pool's start — as the median over `runs` child processes run with
/// [`SETUP_ONLY`], scaled by the median of the calibration slices run
/// before each (a set-up of milliseconds is rarely paused, like a probe;
/// one factor from all the slices moved less than one per child). Runs
/// before the workload's own set-up, outside every timed phase.
pub fn measure_setup(args: &Args, runs: usize) -> Result<f64, String> {
    use std::io::BufRead;
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut calibration = Calibration::default();
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        for _ in 0..SETUP_SLICES {
            calibration.slice();
        }
        let start = Instant::now();
        let mut child = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", SETUP_ONLY])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("starting a set-up process: {e}"))?;
        let mut line = String::new();
        let read = std::io::BufReader::new(child.stdout.take().expect("a piped stdout"))
            .read_line(&mut line);
        let elapsed = start.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("waiting for a set-up process: {e}"))?;
        if read.is_err() || line.trim() != SETUP_READY || !status.success() {
            return Err(format!(
                "a set-up process failed ({status}, printed {line:?})"
            ));
        }
        times.push(elapsed);
    }
    times.sort_by(f64::total_cmp);
    let scale = calibration.probe_scale();
    eprintln!(
        "setup_s: {runs} processes, {:.2}..{:.2} ms wall, x {scale:.4}",
        times[0] * 1e3,
        times[runs - 1] * 1e3
    );
    Ok(times[runs / 2] * scale)
}

/// Ends a set-up-only process's set-up: tells the parent it is done,
/// then drops what the set-up built (removing its store).
pub fn ready<S>(setup: S) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "{SETUP_READY}");
    let _ = stdout.flush();
    drop(setup);
}

/// Starts the process-wide worker pool, as the first engine batch would,
/// so set-up includes it.
pub fn start_pool() {
    cmam_pool::global().run_indexed(WORKERS, WORKERS, |i| i);
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CGRA energy of one simulated run, in nJ (`cmam_energy::cgra_energy`
/// under the default parameters, as every experiment binary scores it).
pub fn energy_nj(spec: &KernelSpec, config: &CgraConfig, sim: &cmam_sim::SimStats) -> f64 {
    cmam_energy::cgra_energy(
        &cmam_energy::EnergyParams::default(),
        config,
        sim,
        cmam_bench::mul_fraction(&spec.cdfg),
    )
    .total()
        * 1e3
}

/// Whether a job result counts as a failure: a quarantined panic or a
/// wrong simulated output. Infeasible verdicts (no mapping, does not fit)
/// are results, not failures.
pub fn is_failure(result: &JobResult) -> bool {
    matches!(result, Err(f) if matches!(f.stage, FailStage::Panic | FailStage::Execution))
}

/// Content digest of a job result: the engine's own digest for a
/// mapping, the stage and message for a verdict.
pub fn result_digest(result: &JobResult) -> u64 {
    match result {
        Ok(out) => out.content_digest(),
        Err(f) => {
            let mut h = Fnv64::new();
            h.feed_str(&format!("{:?}", f.stage));
            h.feed_str(&f.message);
            h.finish()
        }
    }
}

/// FNV-1a digest of a memory image, the same function the engine's
/// batch-sim job applies to each lane's final memory.
pub fn mem_digest(mem: &[i32]) -> u64 {
    let mut h = Fnv64::new();
    h.feed_usize(mem.len());
    for &w in mem {
        h.feed_u64(w as u32 as u64);
    }
    h.finish()
}

/// splitmix64 step: derives independent streams from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `0..n` in a seeded order (Fisher–Yates over [`mix`]).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Sum of the recorded values of one always-on phase histogram, in
/// seconds.
pub fn phase_s(name: &'static str) -> f64 {
    cmam_obs::metrics::registry().histogram(name).sum() as f64 / 1e6
}

/// Summed engine-measured job phase time (map, assemble, solo and
/// batched simulation, decode), in seconds: what the pool's workers spent
/// inside jobs.
pub fn job_phase_s() -> f64 {
    [
        "phase.map_us",
        "phase.assemble_us",
        "phase.sim_us",
        "phase.decode_us",
        "phase.batch_sim_us",
    ]
    .into_iter()
    .map(phase_s)
    .sum()
}

/// Current value of an always-on counter.
pub fn counter(name: &'static str) -> u64 {
    cmam_obs::metrics::registry().counter(name).get()
}

/// What one run produced: the counts, the named metric values, the
/// failed checks and the determinism digest.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed (panic, quarantine, wrong output, failed
    /// check).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Benchmark checks that failed, rendered.
    pub check_failures: Vec<String>,
    /// Determinism digest over every exact result of the run.
    pub digest: u64,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check (and counts it as a failed request).
    pub fn fail_check(&mut self, message: String) {
        eprintln!("check failed: {message}");
        self.failed += 1;
        self.check_failures.push(message);
    }

    /// Records a check.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail_check(message());
        }
    }

    /// Records percentile `q` of `samples` as an end-to-end metric. Such
    /// metrics are sized to always have enough samples, so a refused
    /// percentile is a failed check.
    pub fn set_pct(&mut self, name: &'static str, samples: &[f64], q: f64) {
        eprintln!("{name}: {} samples", samples.len());
        match crate::stats::percentile(samples, q) {
            Some(v) => self.set(name, v),
            None => self.fail_check(format!(
                "{name}: {} samples leave fewer than {} beyond p{}",
                samples.len(),
                crate::stats::MIN_BEYOND,
                q * 100.0
            )),
        }
    }

    /// Records percentile `q` of `samples` as a per-layer metric. A layer
    /// off this workload's path has too few samples (the traced run
    /// prints the counts); it reads 0.
    pub fn set_layer_pct(&mut self, name: &'static str, samples: &[f64], q: f64) {
        self.set(name, crate::stats::percentile(samples, q).unwrap_or(0.0));
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer off the path).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Scale of the hypervolume reference point over the paper's baseline.
pub const REFERENCE_SCALE: f64 = 2.0;

/// The fixed hypervolume reference point: `REFERENCE_SCALE` × the
/// `(energy nJ, cycles)` mix of the seven paper kernels under the basic
/// flow on HOM64, the paper's unoptimized baseline. It depends on no
/// seed and on nothing a workload evaluates, so a frontier is always
/// measured in the same box. Runs outside every timed phase.
pub fn reference_point(engine: &Engine, paper: &[KernelSpec]) -> (f64, f64) {
    let config = CgraConfig::hom64();
    let requests: Vec<cmam_engine::JobRequest<'_>> = paper
        .iter()
        .map(|spec| {
            let mut options = cmam_core::FlowVariant::Basic.options();
            options.threads = 1;
            cmam_engine::JobRequest {
                spec,
                config: &config,
                options,
            }
        })
        .collect();
    let (mut energy, mut cycles) = (0.0, 0.0);
    for (spec, result) in paper.iter().zip(engine.run_batch(&requests)) {
        let out = result.expect("every paper kernel maps with the basic flow on HOM64");
        energy += energy_nj(spec, &config, &out.sim);
        cycles += out.cycles as f64;
    }
    (energy * REFERENCE_SCALE, cycles * REFERENCE_SCALE)
}

/// The exact quality of one mapped job: assembled context words,
/// simulated cycles and energy in nJ.
pub type Quality = (f64, f64, f64);

/// Context words an assembled mapping occupies, over all tiles.
pub fn context_words(out: &cmam_engine::RunOutcome) -> u64 {
    (out.report.total_ops() + out.report.total_moves() + out.report.total_pnops()) as u64
}
