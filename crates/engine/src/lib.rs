//! # cmam-engine — parallel, content-addressed compilation engine
//!
//! The paper's whole evaluation is a sweep: the map→assemble→simulate→
//! energy pipeline re-run per `(kernel, configuration, flow variant)` to
//! find the energy-optimal context-memory configuration (Table I,
//! Figs 6-8). This crate turns each such run into a *job* keyed by a
//! content hash of its inputs and executes batches of jobs on a
//! work-stealing `std::thread` pool with two levels of memoisation:
//!
//! * **dedup** — identical jobs submitted twice in a batch (or across
//!   batches) execute once;
//! * **in-memory cache** — every result is memoised for the process
//!   lifetime (a sharded lock table, so high `--jobs` counts do not
//!   serialise on one memo mutex);
//! * **on-disk cache** — results are persisted as length-prefixed binary
//!   artifacts under `target/cmam-cache/` (override with
//!   `CMAM_CACHE_DIR`), so repeated sweeps across processes are
//!   near-free;
//! * **memory regions** — every map certifies the context-memory,
//!   register-file and constant-register-file sizes its decisions hold
//!   for, and a later job that differs only in memory sizes inside such a
//!   region reuses that map and its binary, whether or not that binary
//!   fit the first job's memories: it re-runs [`cmam_isa::check_fit`] on
//!   its own memories, simulates and checks, but does not map (see
//!   [`cmam_core::region`] and [`EngineStats::region_hits`]).
//!
//! Batches execute on the process-wide persistent [`cmam_pool`], one job
//! per worker; each job maps on the worker thread that runs it.
//!
//! Mapping is a pure seeded function, so a parallel run is bit-identical
//! to a sequential one; the engine's tests assert this over the full
//! smoke sweep. Experiment binaries therefore accept `--jobs N` and
//! `--no-cache` without any change in output.
//!
//! ## Failure model
//!
//! A batch always completes. Pipeline failures (no mapping, does not
//! fit, execution error) are deterministic per-job verdicts carried as
//! [`JobFailure`] values. A *panicking* job is retried in-process with
//! backoff up to [`job::MAX_JOB_ATTEMPTS`] attempts and then
//! quarantined as a [`FailStage::Panic`] failure — sibling jobs are
//! never affected (the pool isolates each panic), the engine's locks
//! recover from poisoning, and the disk cache self-heals corrupt
//! artifacts (see [`cache`]). The whole surface is driven by the
//! seeded `cmam_fault` chaos suite, which asserts that fault-laden runs
//! converge to bit-identical results.

pub mod batch_sim;
pub mod cache;
pub mod dse;
pub mod fingerprint;
pub mod job;
mod region;
pub mod search;

pub use batch_sim::{BatchSimOutcome, BatchSimRequest, BatchSimResult};
pub use fingerprint::{Fingerprint, Fnv64, FORMAT_VERSION};
pub use job::{execute, smoke_matrix, FailStage, JobFailure, JobRequest, JobResult, RunOutcome};
pub use search::{run_search, ConfigEval, ConfigStatus, SearchOptions, SearchResult, SearchStats};

use cache::DiskCache;
use cmam_arch::CgraConfig;
use cmam_core::MapperOptions;
use cmam_kernels::KernelSpec;
use cmam_sim::DecodedProgram;
use region::RegionTable;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Locks a mutex, recovering from poisoning. The engine's critical
/// sections (memo inserts, stats merges) never panic mid-mutation, so a
/// poisoned lock only ever means "a job panicked while a guard was
/// alive somewhere" — the state is intact and recovery is sound.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Engine construction knobs.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads for batch execution; `0` means one per available
    /// core.
    pub jobs: usize,
    /// On-disk artifact directory; `None` disables persistence (the
    /// in-memory memo table is always active).
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the on-disk store (`CMAM_CACHE_BYTES`); writes
    /// that push the store past it evict artifacts oldest-first. `None`
    /// leaves the store unbounded.
    pub cache_bytes: Option<u64>,
}

impl EngineOptions {
    /// The default cache location mandated by the engine's contract:
    /// `target/cmam-cache/`, kept under the build tree so `cargo clean`
    /// clears it. Overridable with `CMAM_CACHE_DIR`.
    pub fn default_cache_dir() -> PathBuf {
        if let Ok(dir) = std::env::var("CMAM_CACHE_DIR") {
            return PathBuf::from(dir);
        }
        if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
            return PathBuf::from(dir).join("cmam-cache");
        }
        // Binaries and test harnesses run with different working
        // directories (workspace root vs. crate root), so resolve the
        // target tree from the executable's own location.
        if let Ok(exe) = std::env::current_exe() {
            if let Some(target) = exe
                .ancestors()
                .find(|p| p.file_name() == Some(std::ffi::OsStr::new("target")))
            {
                return target.join("cmam-cache");
            }
        }
        PathBuf::from("target").join("cmam-cache")
    }

    /// The byte budget from `CMAM_CACHE_BYTES` (plain byte count).
    /// Absent, empty or `0` means unbounded; a malformed value warns
    /// through [`cmam_obs::warn!`] and is treated as unbounded.
    pub fn cache_bytes_from_env() -> Option<u64> {
        let raw = std::env::var("CMAM_CACHE_BYTES").ok()?;
        if raw.is_empty() {
            return None;
        }
        match raw.parse::<u64>() {
            Ok(0) => None,
            Ok(n) => Some(n),
            Err(_) => {
                cmam_obs::warn!("CMAM_CACHE_BYTES expects a byte count, got {raw:?}; unbounded");
                None
            }
        }
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            jobs: 0,
            cache_dir: Some(EngineOptions::default_cache_dir()),
            cache_bytes: EngineOptions::cache_bytes_from_env(),
        }
    }
}

/// Counters describing what a batch (or a whole engine lifetime) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Jobs submitted through [`Engine::run_batch`] / [`Engine::run_one`].
    pub submitted: u64,
    /// Submissions that were duplicates of another job in the same batch.
    pub deduped: u64,
    /// Submissions answered from the in-memory memo table.
    pub memory_hits: u64,
    /// Submissions answered from the on-disk artifact store.
    pub disk_hits: u64,
    /// Jobs actually executed (mapped, assembled, simulated).
    pub executed: u64,
    /// Executed jobs that did not map: the engine answered them inside
    /// the memory region of an earlier map (see the crate docs).
    /// At `jobs > 1` which jobs these are, and so this count, depends on
    /// scheduling; the results do not. It therefore has no `engine.*`
    /// metrics counter, whose totals are promised deterministic.
    pub region_hits: u64,
    /// Panicking job attempts that were retried (attempts beyond the
    /// first, across all executed jobs).
    pub retries: u64,
    /// Jobs that panicked on every attempt of their retry budget and
    /// settled as a structured [`FailStage::Panic`] failure.
    pub quarantined: u64,
}

/// Lock shards of the in-memory memo table. Shard choice is the low bits
/// of the job fingerprint (already uniform), so concurrent workers
/// publishing results rarely contend on the same mutex.
const MEMO_SHARDS: usize = 16;

/// One memo-table entry: a job's result plus, once a sweep has needed
/// it, the decoded program of its binary and that first decode's wall
/// time. Entries are shared (`Arc`), so a sweep borrows the compiled
/// outcome instead of deep-cloning it, and decodes it once per engine;
/// the decoded program is shared too, with the workers that simulate
/// the sweep's lane chunks.
#[derive(Debug)]
struct Memo {
    result: JobResult,
    decoded: OnceLock<(Arc<DecodedProgram>, Duration)>,
}

impl Memo {
    fn new(result: JobResult) -> Arc<Memo> {
        Arc::new(Memo {
            result,
            decoded: OnceLock::new(),
        })
    }
}

/// One pending job, cloned out of the borrowed [`JobRequest`] so the
/// executing closure is `'static` for the persistent pool workers.
#[derive(Debug)]
struct PendingJob {
    key: u64,
    spec: KernelSpec,
    config: CgraConfig,
    options: MapperOptions,
}

/// Executes one job on a pool worker, with panic recovery: inside the
/// region of an earlier map under the same map key when one holds the
/// job's memories, otherwise mapped, its region published for later
/// jobs. Returns the job's memo entry, the attempts it took and whether a
/// region answered it.
fn run_pending(j: &PendingJob, regions: &RegionTable) -> (Arc<Memo>, u32, bool) {
    let request = JobRequest {
        spec: &j.spec,
        config: &j.config,
        options: j.options.clone(),
    };
    let map_key = region::map_key(&request);
    if let Some((producer, stats)) = regions.find(map_key, &j.config) {
        let (result, attempts) = job::with_recovery(j.key, || {
            job::execute_in_region(&request, &producer, &stats)
        });
        return (Memo::new(result), attempts, true);
    }
    // What the last attempt's map certified (`None` if every attempt
    // panicked before its map returned).
    let mut certificate = None;
    let (result, attempts) = job::with_recovery(j.key, || {
        let (result, certified) = job::execute_certified(&request);
        certificate = Some(certified);
        result
    });
    let memo = Memo::new(result);
    if let Some(certificate) = certificate {
        regions.publish(map_key, certificate, &memo);
    }
    (memo, attempts, false)
}

/// The batch compilation engine. One instance per process is the normal
/// deployment (see `cmam_bench::engine()`); all methods take `&self` and
/// are thread-safe.
#[derive(Debug)]
pub struct Engine {
    options: EngineOptions,
    disk: Arc<DiskCache>,
    memo: Vec<Mutex<HashMap<u64, Arc<Memo>>>>,
    /// Memo table for batched-simulation outcomes. Batch-sim jobs are
    /// coarse (one per sweep, not one per kernel-config pair), so a
    /// single unsharded map is enough.
    batch_memo: Mutex<HashMap<u64, BatchSimOutcome>>,
    /// The regions certified by this engine's maps; a fresh engine starts
    /// with none.
    regions: Arc<RegionTable>,
    stats: Mutex<EngineStats>,
}

impl Engine {
    /// Builds an engine with the given options.
    pub fn new(options: EngineOptions) -> Self {
        let disk = Arc::new(DiskCache::new(
            options.cache_dir.clone(),
            options.cache_bytes,
        ));
        Engine {
            options,
            disk,
            memo: (0..MEMO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            batch_memo: Mutex::new(HashMap::new()),
            regions: Arc::default(),
            stats: Mutex::new(EngineStats::default()),
        }
    }

    fn memo_shard(&self, key: u64) -> &Mutex<HashMap<u64, Arc<Memo>>> {
        &self.memo[(key % MEMO_SHARDS as u64) as usize]
    }

    /// The effective worker count.
    pub fn workers(&self) -> usize {
        if self.options.jobs > 0 {
            self.options.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        *lock_recover(&self.stats)
    }

    /// Runs a batch of jobs, returning results in submission order.
    ///
    /// Duplicate jobs (by content hash) execute once; results already in
    /// the memo table or the disk store are returned without executing
    /// anything. The remaining jobs run on the work-stealing pool. The
    /// result vector is a pure function of the requests — thread count and
    /// cache state never change it, only how fast it arrives.
    pub fn run_batch(&self, requests: &[JobRequest<'_>]) -> Vec<JobResult> {
        self.resolve(requests)
            .iter()
            .map(|m| m.result.clone())
            .collect()
    }

    /// [`Engine::run_batch`] without the copies: the shared memo entry of
    /// each submission, in submission order.
    fn resolve(&self, requests: &[JobRequest<'_>]) -> Vec<Arc<Memo>> {
        let _span = cmam_obs::span!("run_batch", submitted = requests.len() as u64);
        let batch_start = std::time::Instant::now();
        let keys: Vec<u64> = requests.iter().map(JobRequest::key).collect();
        let mut batch_stats = EngineStats {
            submitted: requests.len() as u64,
            ..EngineStats::default()
        };
        // Resolve each submission against (in order): earlier submissions
        // in this batch, the memo table, the disk store. What's left is
        // the unique frontier that actually executes. No memo lock is
        // ever held across disk I/O (or across another shard's lock).
        let mut probes: Vec<usize> = Vec::new();
        {
            let mut seen_in_batch: HashSet<u64> = HashSet::new();
            for (i, &key) in keys.iter().enumerate() {
                if !seen_in_batch.insert(key) {
                    batch_stats.deduped += 1;
                } else if lock_recover(self.memo_shard(key)).contains_key(&key) {
                    batch_stats.memory_hits += 1;
                } else {
                    probes.push(i);
                }
            }
        }
        let mut pending: Vec<usize> = Vec::new();
        for i in probes {
            match self.disk.load(keys[i]) {
                Some(result) => {
                    batch_stats.disk_hits += 1;
                    lock_recover(self.memo_shard(keys[i])).insert(keys[i], Memo::new(result));
                }
                None => pending.push(i),
            }
        }
        // Execute the frontier on the shared persistent pool. Each job is
        // cloned into owned state (so the closure is `'static`) and
        // persisted to disk as soon as it finishes — an interrupted sweep
        // keeps everything already computed. No memo lock is held while
        // workers run.
        batch_stats.executed = pending.len() as u64;
        let workers = self.workers();
        let jobs: Arc<Vec<PendingJob>> = Arc::new(
            pending
                .iter()
                .map(|&i| {
                    let r = &requests[i];
                    PendingJob {
                        key: keys[i],
                        spec: r.spec.clone(),
                        config: r.config.clone(),
                        options: r.options.clone(),
                    }
                })
                .collect(),
        );
        let job_list = Arc::clone(&jobs);
        let disk = Arc::clone(&self.disk);
        let regions = Arc::clone(&self.regions);
        // `try_run_indexed`: a job panic is retried and quarantined
        // inside `job::with_recovery`, and even a panic that escapes
        // that net (a bug, or an injected worker fault) only costs its
        // own slot — the batch still completes with N-1 real results.
        let computed = cmam_pool::global().try_run_indexed(jobs.len(), workers, move |p| {
            let j = &job_list[p];
            let done = run_pending(j, &regions);
            disk.store(j.key, &done.0.result);
            done
        });
        for (j, slot) in jobs.iter().zip(computed) {
            let (memo, attempts, in_region) = match slot {
                Ok(done) => done,
                // Defense in depth: `job::with_recovery` already
                // quarantines panics, so an escaped one means the
                // recovery wrapper itself died; quarantine it the same
                // way rather than aborting the batch.
                Err(p) => (
                    Memo::new(Err(JobFailure::panicked(
                        format!("escaped job recovery: {}", p.message()),
                        1,
                    ))),
                    1,
                    false,
                ),
            };
            batch_stats.retries += u64::from(attempts.saturating_sub(1));
            batch_stats.region_hits += u64::from(in_region);
            if matches!(&memo.result, Err(f) if f.stage == FailStage::Panic) {
                batch_stats.quarantined += 1;
            }
            lock_recover(self.memo_shard(j.key)).insert(j.key, memo);
        }
        {
            let mut stats = lock_recover(&self.stats);
            stats.submitted += batch_stats.submitted;
            stats.deduped += batch_stats.deduped;
            stats.memory_hits += batch_stats.memory_hits;
            stats.disk_hits += batch_stats.disk_hits;
            stats.executed += batch_stats.executed;
            stats.region_hits += batch_stats.region_hits;
            stats.retries += batch_stats.retries;
            stats.quarantined += batch_stats.quarantined;
        }
        // Flush this batch's cache outcome to the global metrics — once
        // per batch, at the same merge point as the lifetime counters.
        cmam_obs::counter!("engine.batches").add(1);
        cmam_obs::counter!("engine.submitted").add(batch_stats.submitted);
        cmam_obs::counter!("engine.deduped").add(batch_stats.deduped);
        cmam_obs::counter!("engine.memory_hits").add(batch_stats.memory_hits);
        cmam_obs::counter!("engine.disk_hits").add(batch_stats.disk_hits);
        cmam_obs::counter!("engine.executed").add(batch_stats.executed);
        cmam_obs::counter!("engine.retries").add(batch_stats.retries);
        cmam_obs::counter!("engine.quarantined").add(batch_stats.quarantined);
        cmam_obs::histogram!("batch.wall_us").record(batch_start.elapsed().as_micros() as u64);
        keys.iter()
            .map(|k| {
                Arc::clone(
                    lock_recover(self.memo_shard(*k))
                        .get(k)
                        .expect("every key resolved"),
                )
            })
            .collect()
    }

    /// Runs a single job through the same dedup/cache/execute path.
    pub fn run_one(&self, request: &JobRequest<'_>) -> JobResult {
        self.run_batch(std::slice::from_ref(request))
            .pop()
            .expect("one request yields one result")
    }

    /// Runs one batched-simulate job: compiles the mapping through the
    /// regular (deduped, memoised) pipeline, then sweeps the request's
    /// seeded input set through the batched simulator. The compiled
    /// binary is decoded once per engine and kept beside its memoised
    /// outcome; `decode_time` reports that first decode. The sweep outcome
    /// is memoised in memory and persisted as a `.bsim` artifact under
    /// the same cache directory, keyed by a fingerprint that covers the
    /// digest of every generated input image.
    ///
    /// The lanes run in fixed chunks (`batch_sim::LaneChunks`: the lane
    /// count alone sets them) on the engine's workers, in two halves per
    /// chunk: before the memo lookup each chunk generates its images and
    /// their digests, and on a miss each chunk simulates its images. The
    /// chunks' results are joined in lane order, so the outcome and its
    /// key are those of one batch over every lane, at any worker count.
    ///
    /// # Errors
    ///
    /// The compile pipeline's [`JobFailure`] (no mapping, does not fit),
    /// or a [`FailStage::Panic`] failure if image generation, the decoder
    /// or the batched simulator panicked. Per-lane simulation errors are
    /// data, carried inside the outcome.
    pub fn run_batch_sim(&self, request: &BatchSimRequest<'_>) -> BatchSimResult {
        let _span = cmam_obs::span!("batch_sim", lanes = request.lanes as u64);
        cmam_obs::counter!("engine.batch_sim.submitted").add(1);
        let chunks = batch_sim::LaneChunks::new(request.lanes);
        let (mem_len, input_seed) = (request.spec.mem.len(), request.input_seed);
        let (images, digests): (Vec<_>, Vec<_>) = self
            .run_chunks(chunks.count, move |c| {
                batch_sim::chunk_inputs(mem_len, input_seed, chunks.get(c))
            })?
            .into_iter()
            .unzip();
        let key = request.key_of_digests(&digests.concat());
        if let Some(hit) = lock_recover(&self.batch_memo).get(&key) {
            cmam_obs::counter!("engine.batch_sim.memory_hits").add(1);
            return Ok(hit.clone());
        }
        if let Some(outcome) = self.disk.load_batch(key) {
            cmam_obs::counter!("engine.batch_sim.disk_hits").add(1);
            lock_recover(&self.batch_memo).insert(key, outcome.clone());
            return Ok(outcome);
        }
        let memo = self
            .resolve(std::slice::from_ref(&request.compile_request()))
            .pop()
            .expect("one request yields one result");
        let compiled = memo.result.as_ref().map_err(Clone::clone)?;
        // Same quarantine discipline as per-job execution: a panic in
        // the decoder or in any chunk's simulation becomes a structured
        // failure, not an unwound sweep (a panicking decode leaves the
        // entry undecoded, so the next sweep tries again).
        let (decoded, decode_time) = std::panic::catch_unwind(|| {
            memo.decoded.get_or_init(|| {
                let (decoded, decode_time) = batch_sim::decode(compiled, request.config);
                (Arc::new(decoded), decode_time)
            })
        })
        .map_err(|payload| self.quarantine(cmam_pool::panic_message(payload.as_ref())))?;
        let decoded = Arc::clone(decoded);
        let images = Arc::new(Mutex::new(images));
        let sim = request.sim;
        let t0 = std::time::Instant::now();
        let simulated = self.run_chunks(chunks.count, move |c| {
            let chunk_images = std::mem::take(&mut lock_recover(&images)[c]);
            batch_sim::simulate_chunk(&decoded, chunk_images, sim)
        })?;
        let sim_time = t0.elapsed();
        cmam_obs::histogram!("phase.batch_sim_us").record(sim_time.as_micros() as u64);
        let outcome = batch_sim::join_chunks(simulated, *decode_time, sim_time);
        cmam_obs::counter!("engine.batch_sim.executed").add(1);
        self.disk.store_batch(key, &outcome);
        lock_recover(&self.batch_memo).insert(key, outcome.clone());
        Ok(outcome)
    }

    /// Runs `job` once per sweep chunk on the engine's workers (inline
    /// for one chunk or one worker), results in chunk order. A panic in
    /// any chunk quarantines the sweep: one [`FailStage::Panic`] failure
    /// and one `quarantined` count, however many chunks died.
    fn run_chunks<T, F>(&self, chunks: usize, job: F) -> Result<Vec<T>, JobFailure>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        cmam_pool::global()
            .try_run_indexed(chunks, self.workers(), job)
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|p| self.quarantine(p.message().to_owned()))
    }

    /// Counts one quarantined sweep and renders its failure.
    fn quarantine(&self, message: String) -> JobFailure {
        lock_recover(&self.stats).quarantined += 1;
        cmam_obs::counter!("engine.quarantined").add(1);
        JobFailure::panicked(message, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmam_arch::CgraConfig;
    use cmam_core::FlowVariant;

    #[test]
    fn dedup_within_a_batch_executes_once() {
        let engine = Engine::new(EngineOptions {
            jobs: 2,
            cache_dir: None,
            cache_bytes: None,
        });
        let spec = cmam_kernels::dc::spec();
        let config = CgraConfig::hom64();
        let reqs: Vec<JobRequest<'_>> = (0..4)
            .map(|_| JobRequest::flow(&spec, FlowVariant::Basic, &config))
            .collect();
        let results = engine.run_batch(&reqs);
        assert_eq!(results.len(), 4);
        let stats = engine.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.deduped, 3);
        let digests: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().expect("DC maps").content_digest())
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn memo_table_answers_repeat_batches() {
        let engine = Engine::new(EngineOptions {
            jobs: 1,
            cache_dir: None,
            cache_bytes: None,
        });
        let spec = cmam_kernels::dc::spec();
        let config = CgraConfig::hom64();
        let req = JobRequest::flow(&spec, FlowVariant::Basic, &config);
        let first = engine.run_one(&req).expect("DC maps");
        let second = engine.run_one(&req).expect("DC maps");
        assert_eq!(engine.stats().executed, 1);
        assert_eq!(engine.stats().memory_hits, 1);
        assert_eq!(first.content_digest(), second.content_digest());
        // Memoised results even preserve the measured compile time.
        assert_eq!(first.compile_time, second.compile_time);
    }

    #[test]
    fn panicking_sweep_chunks_quarantine_the_sweep_once() {
        for jobs in [1, 2] {
            let engine = Engine::new(EngineOptions {
                jobs,
                cache_dir: None,
                cache_bytes: None,
            });
            let failure = engine
                .run_chunks(3, |c| {
                    assert!(c == 0, "chunk {c} died");
                    c
                })
                .expect_err("two chunks panicked");
            assert_eq!(failure.stage, FailStage::Panic);
            assert_eq!(failure.message, "chunk 1 died", "the lowest chunk's panic");
            assert_eq!(engine.stats().quarantined, 1, "jobs {jobs}");
            let doubled = engine.run_chunks(3, |c| 2 * c).expect("no chunk panicked");
            assert_eq!(doubled, [0, 2, 4], "chunk order");
            assert_eq!(engine.stats().quarantined, 1);
        }
    }
}
