//! # cmam-pool — the shared persistent work-stealing thread pool
//!
//! One process-wide pool serves the toolchain's parallel work: the
//! engine's batch compilation jobs (whole map→assemble→simulate
//! pipelines, milliseconds each) and the lane chunks of its input sweeps
//! (128 lanes or more each: one fork-join generates a sweep's inputs
//! and, on a miss, a second one simulates them). A map itself runs on
//! one thread, inside whichever job runs it.
//!
//! ## Execution model
//!
//! A call to [`ThreadPool::run_indexed`] is a fork-join over the index
//! range `0..n`: indices are claimed in **chunks** from a shared atomic
//! cursor (the stealing discipline — a worker that finishes its chunk
//! steals the next one), each claimed index runs `job(i)`, and the
//! results come back in index order. The *submitting* thread always
//! participates: it drains chunks like any worker and then waits for the
//! stragglers, so a batch completes even when every helper is busy with
//! other batches (including the nested case, where a pool worker running
//! one job submits a batch of its own).
//!
//! Workers are **persistent and lazily spawned**: the first batch that
//! wants `k` helpers spawns them, later batches reuse them, and the
//! threads idle on a condvar between batches, so no batch pays for
//! thread creation or teardown.
//!
//! ## Determinism
//!
//! Results are returned in index order, so parallel execution is
//! observationally identical to sequential execution whenever the job
//! function itself is pure — the property the engine's determinism tests
//! pin down. With `threads <= 1` (or fewer than two jobs) everything runs
//! inline on the calling thread without touching the pool at all: the
//! degenerate case the equivalence tests compare the parallel pool
//! against.
//!
//! ## Panic isolation
//!
//! A panicking job never takes a sibling's result down with it:
//! [`ThreadPool::try_run_indexed`] captures each job's panic
//! individually and returns per-index `Result<T, JobPanic>`s, so a batch
//! always completes. [`ThreadPool::run_indexed`] is the re-panicking
//! wrapper (it resumes the lowest-index panic's original payload), and
//! every pool lock recovers from poisoning — a worker that dies
//! mid-batch can never wedge the pool for subsequent batches.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks a mutex, recovering the guard if a panicking holder poisoned
/// it. Pool state is only ever mutated in small, panic-free critical
/// sections (slot writes, queue pushes/pops), so a poisoned lock means
/// "a *job* panicked", not "the state is torn" — recovery is sound.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One job's captured panic: the index that died, a best-effort message,
/// and the original payload so callers can re-raise it untouched.
pub struct JobPanic {
    index: usize,
    message: String,
    payload: Box<dyn std::any::Any + Send>,
}

impl JobPanic {
    /// The batch index whose job panicked.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Best-effort rendering of the panic message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The original panic payload, for [`std::panic::resume_unwind`].
    pub fn into_payload(self) -> Box<dyn std::any::Any + Send> {
        self.payload
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPanic")
            .field("index", &self.index)
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Best-effort extraction of a panic payload's message (`panic!` with a
/// format string yields `String`, a literal yields `&str`; anything else
/// is opaque).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Type-erased view of one submitted batch: workers only need to drain
/// chunks, not to know the job's input/output types.
trait Task: Send + Sync {
    fn drain(&self);
}

/// Mutable state of a batch, behind one mutex: the result slots and the
/// completion count the submitter waits on. A panicking job fills its
/// own slot with `Err(JobPanic)` — sibling results are untouched.
struct BatchState<T> {
    results: Vec<Option<Result<T, JobPanic>>>,
    completed: usize,
}

/// One fork-join batch over `0..n`.
struct Batch<T, F> {
    job: F,
    n: usize,
    /// Indices claimed per cursor bump. Small enough to balance uneven
    /// jobs across workers, large enough that the cursor is not contended.
    chunk: usize,
    cursor: AtomicUsize,
    state: Mutex<BatchState<T>>,
    done: Condvar,
}

impl<T: Send, F: Fn(usize) -> T + Send + Sync> Batch<T, F> {
    fn new(job: F, n: usize, chunk: usize) -> Self {
        Batch {
            job,
            n,
            chunk: chunk.max(1),
            cursor: AtomicUsize::new(0),
            state: Mutex::new(BatchState {
                results: (0..n).map(|_| None).collect(),
                completed: 0,
            }),
            done: Condvar::new(),
        }
    }

    /// Claims and runs chunks until the cursor is exhausted. Called by the
    /// submitter (`stolen = false`) and by any helper that picked this
    /// batch off the queue (`stolen = true`). Chunk counts are kept in a
    /// local and flushed to the metrics registry once per drain, so the
    /// claiming loop itself carries no instrumentation.
    fn drain_chunks(&self, stolen: bool) {
        let mut chunks = 0u64;
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                break;
            }
            chunks += 1;
            let end = (start + self.chunk).min(self.n);
            for i in start..end {
                // A panicking job must not take the whole (persistent)
                // worker down with it, and must still count as completed —
                // otherwise the submitter would wait forever. The panic is
                // captured into the job's own result slot.
                let entry = catch_unwind(AssertUnwindSafe(|| (self.job)(i))).map_err(|payload| {
                    cmam_obs::counter!("pool.job_panics").add(1);
                    JobPanic {
                        index: i,
                        message: panic_message(payload.as_ref()),
                        payload,
                    }
                });
                let mut st = lock_recover(&self.state);
                st.results[i] = Some(entry);
                st.completed += 1;
                if st.completed == self.n {
                    self.done.notify_all();
                }
            }
        }
        cmam_obs::counter!("pool.chunks").add(chunks);
        if stolen {
            cmam_obs::counter!("pool.chunks_stolen").add(chunks);
        }
    }

    /// Blocks until every index reported, then takes the result slots.
    #[allow(clippy::type_complexity)]
    fn wait(&self) -> Vec<Option<Result<T, JobPanic>>> {
        let mut st = lock_recover(&self.state);
        while st.completed < self.n {
            st = match self.done.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        std::mem::take(&mut st.results)
    }
}

impl<T: Send, F: Fn(usize) -> T + Send + Sync> Task for Batch<T, F> {
    fn drain(&self) {
        self.drain_chunks(true);
    }
}

struct Inner {
    /// Pending batch handles. A batch is pushed once per helper invited;
    /// a worker that pops an already-exhausted batch returns immediately.
    queue: Mutex<VecDeque<Arc<dyn Task>>>,
    work_ready: Condvar,
    /// Workers spawned so far (they never exit).
    spawned: AtomicUsize,
}

/// A persistent pool of worker threads. Most callers want the process-wide
/// [`global`] instance; independent pools exist only so tests can exercise
/// spawning in isolation.
pub struct ThreadPool {
    inner: Arc<Inner>,
}

impl Default for ThreadPool {
    fn default() -> Self {
        ThreadPool::new()
    }
}

impl ThreadPool {
    /// A fresh pool with no workers; they are spawned on first demand.
    pub fn new() -> Self {
        ThreadPool {
            inner: Arc::new(Inner {
                queue: Mutex::new(VecDeque::new()),
                work_ready: Condvar::new(),
                spawned: AtomicUsize::new(0),
            }),
        }
    }

    /// Workers spawned so far (diagnostics/tests only).
    pub fn workers_spawned(&self) -> usize {
        self.inner.spawned.load(Ordering::Relaxed)
    }

    fn ensure_spawned(&self, want: usize) {
        let mut cur = self.inner.spawned.load(Ordering::Relaxed);
        while cur < want {
            match self.inner.spawned.compare_exchange(
                cur,
                cur + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    let inner = Arc::clone(&self.inner);
                    std::thread::Builder::new()
                        .name(format!("cmam-pool-{cur}"))
                        .spawn(move || worker_loop(&inner, cur))
                        .expect("spawning a pool worker");
                    cur += 1;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Runs `job(i)` for every `i in 0..n` on up to `threads` threads
    /// (the calling thread plus `threads - 1` pool workers) and returns
    /// the results in index order.
    ///
    /// With `threads <= 1` or `n <= 1` everything runs inline on the
    /// calling thread. The `'static` bounds are what allow persistent
    /// workers without unsafe lifetime erasure: callers share state with
    /// the job through `Arc`s (and move owned work in and out through
    /// `Mutex<Option<_>>` slots), rather than borrowing the caller's
    /// stack.
    ///
    /// # Panics
    ///
    /// Resumes the lowest-index panicking job's unwind on the calling
    /// thread — the original payload, so its message survives; the
    /// worker that ran the job itself survives too. Callers that need
    /// sibling results despite a panic use [`ThreadPool::try_run_indexed`].
    pub fn run_indexed<T, F>(&self, n: usize, threads: usize, job: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if threads <= 1 || n <= 1 {
            // Inline: a panic propagates natively, payload untouched.
            return (0..n).map(job).collect();
        }
        let mut out = Vec::with_capacity(n);
        let mut first_panic: Option<JobPanic> = None;
        for slot in self.try_run_indexed(n, threads, job) {
            match slot {
                Ok(v) => out.push(v),
                Err(p) => {
                    // Lowest index wins; later panics of the same batch
                    // are secondary casualties.
                    first_panic.get_or_insert(p);
                }
            }
        }
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p.into_payload());
        }
        out
    }

    /// Like [`ThreadPool::run_indexed`], but captures each job's panic
    /// individually: the batch always completes, and index `i` reports
    /// either `Ok(job(i))` or the [`JobPanic`] that killed it — one
    /// poisoned job of N leaves N−1 results intact.
    pub fn try_run_indexed<T, F>(
        &self,
        n: usize,
        threads: usize,
        job: F,
    ) -> Vec<Result<T, JobPanic>>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if threads <= 1 || n <= 1 {
            return (0..n)
                .map(|i| {
                    catch_unwind(AssertUnwindSafe(|| job(i))).map_err(|payload| {
                        cmam_obs::counter!("pool.job_panics").add(1);
                        JobPanic {
                            index: i,
                            message: panic_message(payload.as_ref()),
                            payload,
                        }
                    })
                })
                .collect();
        }
        let helpers = (threads - 1).min(n - 1);
        self.ensure_spawned(helpers);
        // Four chunks per thread: enough slack for stealing to rebalance
        // uneven jobs, few enough cursor bumps to stay uncontended.
        let chunk = (n / (threads * 4)).max(1);
        let batch = Arc::new(Batch::new(job, n, chunk));
        {
            let mut q = lock_recover(&self.inner.queue);
            for _ in 0..helpers {
                q.push_back(Arc::clone(&batch) as Arc<dyn Task>);
            }
        }
        self.inner.work_ready.notify_all();
        cmam_obs::counter!("pool.batches").add(1);
        batch.drain_chunks(false);
        batch
            .wait()
            .into_iter()
            .map(|s| s.expect("every index reported a result"))
            .collect()
    }
}

fn worker_loop(inner: &Inner, worker_id: usize) {
    // Label this worker's trace track by its stable pool id, so traces
    // show `cmam-pool-N` lanes regardless of when tracing was enabled.
    cmam_obs::set_thread_label(&format!("cmam-pool-{worker_id}"));
    cmam_obs::gauge!("pool.workers_spawned").raise(worker_id as i64 + 1);
    loop {
        let task = {
            let mut q = lock_recover(&inner.queue);
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = match inner.work_ready.wait(q) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        task.drain();
    }
}

/// The process-wide pool every toolchain consumer shares, so nested or
/// concurrent batches draw helpers from one worker set instead of
/// oversubscribing the machine with private pools.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(ThreadPool::new)
}

/// Runs `job` over `0..n` on the [`global`] pool.
pub fn run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    global().run_indexed(n, threads, job)
}

/// Runs `job` over `0..n` on the [`global`] pool with per-job panic
/// capture (see [`ThreadPool::try_run_indexed`]).
pub fn try_run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<Result<T, JobPanic>>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    global().try_run_indexed(n, threads, job)
}

/// Available hardware parallelism (1 when it cannot be determined).
pub fn ncpu() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_index_order() {
        let pool = ThreadPool::new();
        for threads in [1, 2, 4, 7] {
            let out = pool.run_indexed(25, threads, |i| i * i);
            assert_eq!(out, (0..25).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        let out = run_indexed(100, 4, move |i| {
            c.fetch_add(1, Ordering::SeqCst);
            i
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 41), vec![41]);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        assert_eq!(run_indexed(3, 16, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn workers_persist_across_batches() {
        let pool = ThreadPool::new();
        let a = pool.run_indexed(8, 3, |i| i);
        let spawned = pool.workers_spawned();
        assert!((1..=2).contains(&spawned), "lazy spawn up to threads-1");
        let b = pool.run_indexed(8, 3, |i| i);
        assert_eq!(a, b);
        assert_eq!(
            pool.workers_spawned(),
            spawned,
            "the second batch reuses the first batch's workers"
        );
    }

    #[test]
    fn nested_batches_complete() {
        // An outer batch whose jobs each submit an inner batch on the same
        // (global) pool. Must not deadlock even when every worker is busy
        // with outer jobs.
        let out = run_indexed(4, 4, |i| {
            let inner = run_indexed(6, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|i| (0..6).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn owned_state_rides_through_slots() {
        // The mapper's pattern: move owned values into Mutex<Option<_>>
        // slots, mutate them inside jobs, take them back after the join.
        let slots: Arc<Vec<Mutex<Option<Vec<usize>>>>> =
            Arc::new((0..10).map(|i| Mutex::new(Some(vec![i]))).collect());
        let s = Arc::clone(&slots);
        run_indexed(10, 4, move |i| {
            let mut v = s[i].lock().unwrap().take().unwrap();
            v.push(i * 2);
            *s[i].lock().unwrap() = Some(v);
        });
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.lock().unwrap().take().unwrap(), vec![i, i * 2]);
        }
    }

    #[test]
    fn job_panic_is_reraised_and_the_pool_survives() {
        let pool = Arc::new(ThreadPool::new());
        let p = Arc::clone(&pool);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(move || {
            p.run_indexed(8, 2, |i| {
                assert!(i != 5, "boom");
                i
            })
        }));
        let payload = caught.expect_err("the panic must reach the submitter");
        // The *original* payload is resumed, so its message survives.
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .expect("panic payload is a message");
        assert!(msg.contains("boom"), "got {msg:?}");
        // The worker that ran the panicking job is still serving batches.
        let out = pool.run_indexed(8, 2, |i| i + 1);
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn one_poisoned_job_leaves_the_other_results_intact() {
        let pool = ThreadPool::new();
        // Inline (threads=1) and parallel paths must isolate identically.
        for threads in [1, 2, 4, 8] {
            let out = pool.try_run_indexed(16, threads, |i| {
                assert!(i != 5, "boom at {i}");
                i * 3
            });
            assert_eq!(out.len(), 16);
            for (i, slot) in out.into_iter().enumerate() {
                if i == 5 {
                    let p = slot.expect_err("index 5 panicked");
                    assert_eq!(p.index(), 5);
                    assert!(p.message().contains("boom at 5"), "got {:?}", p.message());
                    assert!(p.to_string().contains("job 5 panicked"));
                    // The original payload survives for re-raising.
                    let payload = p.into_payload();
                    assert!(panic_message(payload.as_ref()).contains("boom at 5"));
                } else {
                    assert_eq!(slot.expect("sibling result intact"), i * 3);
                }
            }
        }
    }

    #[test]
    fn many_panics_still_complete_the_batch() {
        let out = try_run_indexed(32, 4, |i| {
            assert!(i % 3 != 0, "multiple of three");
            i
        });
        let (ok, err): (Vec<_>, Vec<_>) = out.iter().partition(|r| r.is_ok());
        assert_eq!(err.len(), 11, "every multiple of 3 in 0..32 panics");
        assert_eq!(ok.len(), 21);
        // And the pool still serves clean batches afterwards.
        assert_eq!(run_indexed(4, 4, |i| i), vec![0, 1, 2, 3]);
    }
}
