//! Job descriptions and the map→assemble→simulate→check pipeline.

use crate::fingerprint::{Fingerprint, Fnv64};
use cmam_arch::CgraConfig;
use cmam_core::{FlowVariant, Mapper, MapperOptions};
use cmam_isa::{AsmReport, CgraBinary};
use cmam_kernels::KernelSpec;
use cmam_sim::{simulate, SimOptions, SimStats};
use std::time::{Duration, Instant};

/// Everything measured for one (kernel, options, configuration) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Executed cycles (including stalls).
    pub cycles: u64,
    /// Simulator activity counters.
    pub sim: SimStats,
    /// Context-word accounting.
    pub report: AsmReport,
    /// The assembled binary.
    pub binary: CgraBinary,
    /// Wall-clock mapping time. For a cache hit this is the time measured
    /// when the artifact was first produced, not the (near-zero) lookup
    /// time — so compile-time experiments stay reproducible across runs.
    pub compile_time: Duration,
    /// Wall-clock assembly time (same cache-hit caveat as
    /// [`RunOutcome::compile_time`]).
    pub assemble_time: Duration,
    /// Wall-clock simulation time (same cache-hit caveat as
    /// [`RunOutcome::compile_time`]).
    pub sim_time: Duration,
    /// Mapper search statistics.
    pub map_stats: cmam_core::MapStats,
}

impl RunOutcome {
    /// Hash of every deterministic field (everything except the
    /// wall-clock noise of [`RunOutcome::compile_time`],
    /// [`RunOutcome::assemble_time`] and [`RunOutcome::sim_time`]). Two runs
    /// of the same job must agree on this digest regardless of thread
    /// count or cache state — the determinism tests assert exactly that.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.feed_u64(self.cycles);
        self.sim.fingerprint(&mut h);
        for &(o, m, p) in &self.report.per_tile {
            h.feed_usize(o);
            h.feed_usize(m);
            h.feed_usize(p);
        }
        self.binary.fingerprint(&mut h);
        for s in [
            self.map_stats.candidates,
            self.map_stats.attempts,
            self.map_stats.acmap_pruned,
            self.map_stats.ecmap_pruned,
            self.map_stats.stochastic_pruned,
            self.map_stats.finalize_failures,
            self.map_stats.escalations,
            self.map_stats.peak_population,
            self.map_stats.rollbacks,
        ] {
            h.feed_u64(s);
        }
        h.finish()
    }
}

/// Which pipeline stage a failed run died in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailStage {
    /// The mapper found no solution under the given constraints.
    Map,
    /// The mapping violated a constraint at assembly (only possible for
    /// memory-unaware flows on constrained configurations).
    Assemble,
    /// Simulation failed or produced wrong results (always a bug).
    Execution,
    /// The job panicked on every attempt of its retry budget and was
    /// quarantined — the batch completed without it. Panic outcomes are
    /// never persisted to the disk cache (a later run retries fresh).
    Panic,
}

/// Why a run produced no data point (the "zero bars" of Figs 6-8).
///
/// The failure is carried as a stage tag plus the rendered error message
/// so it round-trips through the on-disk artifact cache; experiment
/// binaries only ever display it. The recovery fields say how the
/// engine handled it: pipeline failures (`Map`/`Assemble`/`Execution`)
/// are deterministic verdicts reached on the first attempt, while
/// `Panic` failures record the exhausted retry budget.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The stage that failed.
    pub stage: FailStage,
    /// The stage error, rendered.
    pub message: String,
    /// Wall-clock time spent in the mapper before the failure (compile
    /// time is consumed whether or not a mapping is found — Fig 9 counts
    /// failed searches too).
    pub compile_time: Duration,
    /// Whether retrying this job could plausibly succeed. Pipeline
    /// verdicts are deterministic (`false`); a panic may be environmental
    /// (`true`) — the engine has already spent the in-process retry
    /// budget, but a fresh run may still recover it.
    pub retriable: bool,
    /// How many attempts the engine made before settling on this failure.
    pub attempts: u32,
}

impl JobFailure {
    /// A deterministic pipeline failure: first attempt, not retriable.
    pub fn pipeline(stage: FailStage, message: String, compile_time: Duration) -> Self {
        JobFailure {
            stage,
            message,
            compile_time,
            retriable: false,
            attempts: 1,
        }
    }

    /// A quarantined panic: the job died on all `attempts` attempts.
    pub fn panicked(message: String, attempts: u32) -> Self {
        JobFailure {
            stage: FailStage::Panic,
            message,
            compile_time: Duration::ZERO,
            retriable: true,
            attempts,
        }
    }
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stage {
            FailStage::Map => write!(f, "no mapping: {}", self.message),
            FailStage::Assemble => write!(f, "does not fit: {}", self.message),
            FailStage::Execution => write!(f, "execution failure: {}", self.message),
            FailStage::Panic => write!(f, "job panicked: {}", self.message),
        }
    }
}

impl std::error::Error for JobFailure {}

/// What a job evaluates to: a full outcome or a displayable failure.
pub type JobResult = Result<RunOutcome, JobFailure>;

/// The canonical smoke matrix: per kernel, the basic flow on HOM64 plus
/// the full context-aware flow on HET1 and HET2. The `smoke`,
/// `fig10_speedup` and `tab2_energy` binaries all evaluate exactly these
/// combinations, CI diffs two consecutive `smoke` runs over them, and the
/// engine's determinism tests assert over them — one list, one place.
pub fn smoke_matrix() -> Vec<(FlowVariant, CgraConfig)> {
    vec![
        (FlowVariant::Basic, CgraConfig::hom64()),
        (FlowVariant::Cab, CgraConfig::het1()),
        (FlowVariant::Cab, CgraConfig::het2()),
    ]
}

/// One batch-compilation job: a kernel, a target configuration and the
/// full mapper option set. The kernel and configuration are borrowed
/// (they are shared across many jobs in a sweep); the options are owned
/// because they are usually derived per-job from a [`FlowVariant`].
#[derive(Debug, Clone)]
pub struct JobRequest<'a> {
    /// The kernel to compile and simulate.
    pub spec: &'a KernelSpec,
    /// The target CGRA instance.
    pub config: &'a CgraConfig,
    /// All mapper knobs (a [`FlowVariant`] resolves to these).
    pub options: MapperOptions,
}

impl<'a> JobRequest<'a> {
    /// A job for one of the paper's cumulative flow variants.
    ///
    /// The variant is fully captured by its [`FlowVariant::options`] set,
    /// so two requests whose variants resolve to the same options are the
    /// same job — exactly the dedup the engine wants.
    pub fn flow(spec: &'a KernelSpec, variant: FlowVariant, config: &'a CgraConfig) -> Self {
        JobRequest {
            spec,
            config,
            options: variant.options(),
        }
    }

    /// The content hash keying this job in the cache.
    pub fn key(&self) -> u64 {
        let mut h = Fnv64::new();
        self.spec.fingerprint(&mut h);
        self.config.fingerprint(&mut h);
        self.options.fingerprint(&mut h);
        h.finish()
    }

    /// A short human-readable label (for logs and engine stats).
    pub fn label(&self) -> String {
        format!("{}@{}", self.spec.name, self.config.name())
    }
}

/// Maps, assembles, simulates and checks one job. This is the pure part
/// of the pipeline: for fixed inputs the result is bit-identical no matter
/// which thread runs it (the mapper's stochastic pruning is seeded from
/// [`MapperOptions::seed`]), which is what makes parallel execution and
/// content-addressed memoisation sound.
pub fn execute(req: &JobRequest<'_>) -> JobResult {
    let _span = cmam_obs::span!("job");
    let mapper = Mapper::new(req.options.clone());
    let t0 = Instant::now();
    let map_result = mapper.map(&req.spec.cdfg, req.config);
    let compile_time = t0.elapsed();
    // Per-phase latency histograms, fed from the wall times this function
    // already measures (so tracing on/off changes nothing here).
    cmam_obs::histogram!("phase.map_us").record(compile_time.as_micros() as u64);
    let fail = |stage, message: String| JobFailure::pipeline(stage, message, compile_time);
    let result = match map_result {
        Ok(r) => r,
        Err(e) => return Err(fail(FailStage::Map, e.to_string())),
    };
    let t1 = Instant::now();
    let (binary, report) = cmam_isa::assemble(&req.spec.cdfg, &result.mapping, req.config)
        .map_err(|e| fail(FailStage::Assemble, e.to_string()))?;
    let assemble_time = t1.elapsed();
    cmam_obs::histogram!("phase.assemble_us").record(assemble_time.as_micros() as u64);
    let mut mem = req.spec.mem.clone();
    let t2 = Instant::now();
    let sim = simulate(&binary, req.config, &mut mem, SimOptions::default())
        .map_err(|e| fail(FailStage::Execution, e.to_string()))?;
    let sim_time = t2.elapsed();
    cmam_obs::histogram!("phase.sim_us").record(sim_time.as_micros() as u64);
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
        map_stats: result.stats,
    })
}

/// In-process retry budget for panicking jobs: the first attempt plus
/// three retries. Transient injected faults clear within this bound by
/// construction ([`cmam_fault::TRANSIENT_CLEARS_BY`]); a job that dies on
/// every attempt is quarantined as a [`FailStage::Panic`] failure.
pub const MAX_JOB_ATTEMPTS: u32 = 4;

/// Runs [`execute`] with panic isolation, bounded retry + backoff, and
/// quarantine: a panicking attempt is caught, counted and retried up to
/// [`MAX_JOB_ATTEMPTS`] times with a small exponential backoff; a job
/// that panics on every attempt settles as a structured
/// [`FailStage::Panic`] failure instead of unwinding the batch. Returns
/// the result plus the number of attempts consumed.
///
/// `key` is the job's content hash; it salts the `job.panic` /
/// `job.delay` fault sites so chaos schedules are stable per job, not
/// per batch position.
pub fn execute_with_recovery(req: &JobRequest<'_>, key: u64) -> (JobResult, u32) {
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        cmam_fault::delay("job.delay", key.wrapping_add(u64::from(attempt)));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cmam_fault::panic_if("job.panic", key, attempt);
            execute(req)
        }));
        match outcome {
            Ok(result) => return (result, attempt),
            Err(payload) => {
                let message = cmam_pool::panic_message(payload.as_ref());
                cmam_obs::counter!("engine.job_panics").add(1);
                if attempt >= MAX_JOB_ATTEMPTS {
                    return (Err(JobFailure::panicked(message, attempt)), attempt);
                }
                cmam_obs::warn!(
                    "job {key:#018x} panicked on attempt {attempt}/{MAX_JOB_ATTEMPTS}: \
                     {message}; retrying"
                );
                // Tiny exponential backoff: enough for transient resource
                // pressure to clear, negligible against a job's runtime.
                std::thread::sleep(Duration::from_micros(100 << attempt));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmam_isa::program::BinTerminator;

    #[test]
    fn failure_display_matches_legacy_wording() {
        let f = JobFailure::pipeline(FailStage::Map, "x".into(), Duration::ZERO);
        assert_eq!(f.to_string(), "no mapping: x");
        let f = JobFailure::pipeline(FailStage::Assemble, "y".into(), Duration::ZERO);
        assert_eq!(f.to_string(), "does not fit: y");
        let f = JobFailure::panicked("z".into(), 4);
        assert_eq!(f.to_string(), "job panicked: z");
        assert!(f.retriable, "a panic may be environmental");
        assert_eq!(f.attempts, 4);
    }

    #[test]
    fn the_digest_covers_the_binary_control_flow() {
        let spec = cmam_kernels::fir::spec();
        let hom64 = CgraConfig::hom64();
        let out = execute(&JobRequest::flow(&spec, FlowVariant::Basic, &hom64)).expect("FIR maps");
        assert!(out.binary.terminators.len() > 1, "FIR has a loop");
        let digest = out.content_digest();
        assert_eq!(out.clone().content_digest(), digest);

        let mut moved_entry = out.clone();
        moved_entry.binary.entry += 1;
        assert_ne!(moved_entry.content_digest(), digest);

        let mut retargeted = out;
        retargeted.binary.terminators[0] = match retargeted.binary.terminators[0] {
            BinTerminator::Return => BinTerminator::Jump(0),
            _ => BinTerminator::Return,
        };
        assert_ne!(retargeted.content_digest(), digest);
    }

    #[test]
    fn identical_requests_share_a_key_and_distinct_ones_do_not() {
        let spec = cmam_kernels::fir::spec();
        let hom64 = CgraConfig::hom64();
        let het1 = CgraConfig::het1();
        let basic = FlowVariant::Basic.options();
        let cab = FlowVariant::Cab.options();
        let a = JobRequest {
            spec: &spec,
            config: &hom64,
            options: basic.clone(),
        };
        let b = JobRequest {
            spec: &spec,
            config: &hom64,
            options: basic.clone(),
        };
        assert_eq!(a.key(), b.key());
        let c = JobRequest {
            spec: &spec,
            config: &het1,
            options: basic,
        };
        let d = JobRequest {
            spec: &spec,
            config: &hom64,
            options: cab,
        };
        assert_ne!(a.key(), c.key());
        assert_ne!(a.key(), d.key());
    }
}
