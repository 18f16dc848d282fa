//! Persistent worker-thread pool for blocked kernels (DESIGN.md §S0.6).
//!
//! Before this module existed, every parallel kernel call used
//! `std::thread::scope`, paying a spawn+join cycle per call — thousands of
//! OS thread spawns per training epoch. A [`Pool`] keeps its workers alive
//! for the life of the process (or the pool value, for explicitly sized
//! pools in tests) and hands them work through a shared injector.
//!
//! ## Work distribution
//!
//! A job is a closure `f(task_index)` plus a task count. Tasks are claimed
//! one at a time from a shared cursor under the pool mutex — an
//! atomic-index chunk iterator in the sense of ISSUE 4: whichever worker
//! finishes a chunk first steals the next unclaimed chunk, so load balances
//! without per-worker deques. Tasks are coarse (one cache-blocked kernel
//! chunk each, never a single row), so the claim lock is cold and never
//! contended in practice.
//!
//! The caller participates: `run` claims and executes tasks on the calling
//! thread too, then blocks until every task has finished. Blocking until
//! completion is what makes the borrow-erasure below sound and what keeps
//! the API scoped — the closure may freely borrow from the caller's stack.
//!
//! ## Determinism
//!
//! The pool only ever *schedules*; it never reduces. Every task writes to a
//! disjoint output block (or returns a value collected in task order by
//! [`Pool::map_blocks`]), and each output element is computed with a fixed
//! accumulation order independent of chunk boundaries. Results are
//! therefore bit-identical for any thread count, including 1.
//!
//! ## Results go into the caller's memory
//!
//! glibc gives every thread that calls `malloc` its own arena, and a block
//! freed by another thread goes back to the arena it came from. Whatever a
//! worker allocates and hands back keeps pages resident in the worker's
//! arena for the rest of the run, even after the caller frees it. So the
//! align path's tasks write into buffers the caller allocated
//! ([`Pool::rows_mut`], [`Pool::segments_mut`]) and allocate only scratch
//! they free before returning; [`Pool::map_blocks`] is for small results or
//! data the run keeps anyway (the two parsed KG sides). What a task on a
//! worker still holds when it returns is counted in
//! [`crate::alloc::worker_kept_bytes`] (DESIGN.md §S0.6).
//!
//! ## Sizing
//!
//! [`Pool::global`] sizes itself once from `LARGEEA_THREADS` (if a positive
//! integer), else `std::thread::available_parallelism()`, else 1. Tests
//! that need a specific width build their own [`Pool::new`] instead of
//! racing on the env var — see the determinism prop-tests.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Lifetime-erased reference to the current job's task closure.
///
/// Only ever constructed inside [`Pool::run`], which blocks until every
/// task has finished and the job has been taken back out of the shared
/// state before returning — so the referent provably outlives every use,
/// even though the type says `'static`.
#[derive(Clone, Copy)]
struct JobFn(&'static (dyn Fn(usize) + Sync));

/// One in-flight batch of tasks.
struct Job {
    f: JobFn,
    /// Total number of tasks in the job.
    n_tasks: usize,
    /// Next unclaimed task index (the shared work cursor).
    next: usize,
    /// Number of tasks that have finished executing.
    finished: usize,
    /// First panic payload observed while running a task, if any.
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Heap activity transferred from each finished task (updated under
    /// the pool mutex), credited to the calling thread when the job
    /// drains — so worker allocations attribute to the span that spawned
    /// the job, and the sum is scheduling-independent.
    alloc: crate::alloc::ThreadAllocDelta,
}

/// Shared pool state, guarded by the pool mutex.
struct State {
    /// Bumped once per published job so sleeping workers can tell a new
    /// job from a spurious wakeup.
    epoch: u64,
    job: Option<Job>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<State>,
    /// Signalled when a new job is published (or on shutdown).
    work: Condvar,
    /// Signalled when the last task of a job finishes.
    done: Condvar,
}

impl Inner {
    /// Claims and executes tasks from the current job until none remain.
    /// Called with the state lock held; returns with it held. `on_worker`:
    /// this is a spawned worker, whose tasks' kept bytes are booked
    /// ([`crate::alloc::note_worker_task`]).
    fn participate<'a>(
        &'a self,
        mut guard: MutexGuard<'a, State>,
        on_worker: bool,
    ) -> MutexGuard<'a, State> {
        loop {
            let Some(job) = guard.job.as_mut() else {
                return guard;
            };
            if job.next >= job.n_tasks {
                return guard;
            }
            let i = job.next;
            job.next += 1;
            let f = job.f;
            drop(guard);
            let mark = crate::alloc::task_mark();
            let result = catch_unwind(AssertUnwindSafe(|| (f.0)(i)));
            // Move this task's heap activity off the executing thread; it
            // is folded into the job below and credited to the caller when
            // the job drains. For the caller's own participation the
            // take + credit round-trip is a net no-op.
            let task_alloc = crate::alloc::take_since(&mark);
            if on_worker {
                crate::alloc::note_worker_task(&task_alloc);
            }
            guard = self.state.lock().unwrap();
            // Between unlock and relock the job cannot have been replaced:
            // a job is only removed by the caller in `run`, and only after
            // `finished == n_tasks` — which can't happen while our claimed
            // task is still unreported.
            let job = guard.job.as_mut().expect("job outlives its tasks");
            job.finished += 1;
            job.alloc.merge(task_alloc);
            if let Err(payload) = result {
                job.panic.get_or_insert(payload);
            }
            if job.finished == job.n_tasks {
                self.done.notify_all();
            }
        }
    }

    fn worker_loop(&self) {
        // Register with the allocator instrumentation before the first
        // task: warms the thread-local counters so task deltas are exact
        // from the very first claim.
        crate::alloc::register_worker_thread();
        let mut seen_epoch = 0u64;
        let mut guard = self.state.lock().unwrap();
        loop {
            if guard.shutdown {
                return;
            }
            if guard.epoch != seen_epoch {
                seen_epoch = guard.epoch;
                guard = self.participate(guard, true);
                continue; // re-check: a new job may already be published
            }
            guard = self.work.wait(guard).unwrap();
        }
    }
}

/// A persistent pool of worker threads executing scoped, chunked jobs.
///
/// See the [module docs](self) for the execution and determinism model.
/// Dropping the pool shuts its workers down and joins them.
pub struct Pool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl Pool {
    /// Creates a pool that runs jobs on `threads` threads total: the
    /// calling thread plus `threads - 1` spawned workers. `0` is treated
    /// as `1` (purely inline, no workers).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("largeea-pool-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawning pool worker")
            })
            .collect();
        Self {
            inner,
            handles,
            threads,
        }
    }

    /// The process-wide pool shared by all kernels, created on first use
    /// and sized by [`default_threads`].
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Number of threads this pool runs jobs on (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0)`, `f(1)`, …, `f(n_tasks - 1)` across the pool, blocking
    /// until all calls have returned. Tasks run exactly once each, in
    /// unspecified order and concurrently; `f` must only touch disjoint
    /// state per task (or synchronise internally).
    ///
    /// A single-thread pool, a single task, or a `run` issued while the
    /// pool is already busy (e.g. a nested parallel region) all execute
    /// inline on the caller — same results, no deadlock. Panics from tasks
    /// are forwarded to the caller after the job drains.
    pub fn run(&self, n_tasks: usize, f: impl Fn(usize) + Sync) {
        if n_tasks == 0 {
            return;
        }
        if self.threads > 1 && n_tasks > 1 {
            let mut guard = self.inner.state.lock().unwrap();
            if guard.job.is_none() {
                let erased: &(dyn Fn(usize) + Sync) = &f;
                // SAFETY (one of the workspace's two audited unsafe
                // items, next to `alloc`'s GlobalAlloc impl): this only
                // erases the lifetime of a reference so it can sit in
                // `State` behind the mutex. `run` does not return until
                // `finished == n_tasks` and the job (with this reference)
                // has been removed from the shared state, so no worker can
                // observe the reference after `f` is dropped. Workers never
                // stash the reference outside a claimed task either — they
                // copy it, call it, and report back under the same mutex.
                #[allow(unsafe_code)]
                let f_static: &'static (dyn Fn(usize) + Sync) =
                    unsafe { std::mem::transmute(erased) };
                guard.epoch += 1;
                guard.job = Some(Job {
                    f: JobFn(f_static),
                    n_tasks,
                    next: 0,
                    finished: 0,
                    panic: None,
                    alloc: crate::alloc::ThreadAllocDelta::default(),
                });
                self.inner.work.notify_all();
                guard = self.inner.participate(guard, false);
                while guard.job.as_ref().expect("job owned by caller").finished < n_tasks {
                    guard = self.inner.done.wait(guard).unwrap();
                }
                let job = guard.job.take().expect("job owned by caller");
                drop(guard);
                // Credit the whole job's heap activity to this (calling)
                // thread while the spawning span is still open.
                crate::alloc::credit(&job.alloc);
                if let Some(payload) = job.panic {
                    resume_unwind(payload);
                }
                return;
            }
        }
        for i in 0..n_tasks {
            f(i);
        }
    }

    /// Splits `0..n` into at most `threads * TASKS_PER_THREAD` contiguous
    /// ranges of at least `min_len` indices, runs `f` on each across the
    /// pool, and returns the results **in range order** (deterministic).
    ///
    /// Inputs shorter than `min_len` run as a single inline call; `n == 0`
    /// returns an empty vec without calling `f`.
    pub fn map_blocks<R: Send>(
        &self,
        n: usize,
        min_len: usize,
        f: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<R> {
        if n == 0 {
            return Vec::new();
        }
        if self.threads <= 1 || n < min_len {
            return vec![f(0..n)];
        }
        let chunk = chunk_len(n, min_len, self.threads);
        let ranges: Vec<Range<usize>> = (0..n)
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(n))
            .collect();
        let slots: Vec<Mutex<Option<R>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
        self.run(ranges.len(), |i| {
            *slots[i].lock().unwrap() = Some(f(ranges[i].clone()));
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("task ran to completion"))
            .collect()
    }

    /// Row-aligned parallel mutation: treats `data` as rows of `row_len`
    /// elements and hands each task a chunk that is an exact multiple of
    /// `row_len`, together with the index of its first **row**. This is the
    /// API blocked kernels use — chunk boundaries can never split a row, so
    /// `block.chunks_mut(row_len)` inside `f` is always exact.
    ///
    /// Fewer than `min_rows` rows run as a single inline call with
    /// `first_row == 0`.
    pub fn rows_mut<T: Send>(
        &self,
        data: &mut [T],
        row_len: usize,
        min_rows: usize,
        f: impl Fn(&mut [T], usize) + Sync,
    ) {
        assert!(row_len > 0, "row_len must be positive");
        debug_assert_eq!(data.len() % row_len, 0, "data must be whole rows");
        let rows = data.len() / row_len;
        if self.threads <= 1 || rows < min_rows.max(1) {
            f(data, 0);
            return;
        }
        let rows_per_task = chunk_len(rows, min_rows.max(1), self.threads);
        // One take-once slot per task: (row-aligned block, its first row).
        type RowSlot<'a, T> = Mutex<Option<(&'a mut [T], usize)>>;
        let slots: Vec<RowSlot<'_, T>> = data
            .chunks_mut(rows_per_task * row_len)
            .enumerate()
            .map(|(i, block)| Mutex::new(Some((block, i * rows_per_task))))
            .collect();
        self.run(slots.len(), |i| {
            let (block, first_row) = slots[i]
                .lock()
                .unwrap()
                .take()
                .expect("each task claims its own block once");
            f(block, first_row);
        });
    }

    /// [`Pool::rows_mut`] for rows of varying length: row `i` of `data` is
    /// `data[ends[i - 1]..ends[i]]` (row 0 starts at 0, and `ends` is
    /// non-decreasing and ends at `data.len()`). Each task gets a run of
    /// whole rows — their indices and the slice they span — so `ends`
    /// locates each row inside the slice.
    ///
    /// Fewer than `min_rows` rows run as a single inline call.
    pub fn segments_mut<T: Send>(
        &self,
        data: &mut [T],
        ends: &[usize],
        min_rows: usize,
        f: impl Fn(&mut [T], Range<usize>) + Sync,
    ) {
        assert_eq!(
            ends.last().copied().unwrap_or(0),
            data.len(),
            "the last row must end the data"
        );
        let rows = ends.len();
        if self.threads <= 1 || rows < min_rows.max(1) {
            f(data, 0..rows);
            return;
        }
        let rows_per_task = chunk_len(rows, min_rows.max(1), self.threads);
        type SegmentSlot<'a, T> = Mutex<Option<(&'a mut [T], Range<usize>)>>;
        let mut slots: Vec<SegmentSlot<'_, T>> = Vec::new();
        let (mut rest, mut start) = (data, 0);
        for first in (0..rows).step_by(rows_per_task) {
            let last = (first + rows_per_task).min(rows);
            let (block, tail) = rest.split_at_mut(ends[last - 1] - start);
            slots.push(Mutex::new(Some((block, first..last))));
            (rest, start) = (tail, ends[last - 1]);
        }
        self.run(slots.len(), |i| {
            let (block, rows) = slots[i]
                .lock()
                .unwrap()
                .take()
                .expect("each task claims its own rows once");
            f(block, rows);
        });
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut guard = self.inner.state.lock().unwrap();
            guard.shutdown = true;
            self.inner.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Chunk length giving every thread several chunks to steal (load balance)
/// while keeping each chunk at least `min_len` long (amortise overhead).
fn chunk_len(n: usize, min_len: usize, threads: usize) -> usize {
    const TASKS_PER_THREAD: usize = 4;
    let max_tasks = threads * TASKS_PER_THREAD;
    let tasks = n.div_ceil(min_len).clamp(1, max_tasks);
    n.div_ceil(tasks)
}

/// Default pool width: `LARGEEA_THREADS` env var (if a positive integer),
/// else `std::thread::available_parallelism()`, else 1.
pub fn default_threads() -> usize {
    std::env::var("LARGEEA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_executes_every_task_exactly_once() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.run(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn run_zero_tasks_is_noop() {
        let pool = Pool::new(4);
        pool.run(0, |_| panic!("must not be called"));
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = Pool::new(4);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.run(16, |i| {
                sum.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), (0..16).sum::<usize>() + 16 * round);
        }
    }

    #[test]
    fn map_blocks_covers_range_in_order() {
        for threads in [1, 3] {
            let pool = Pool::new(threads);
            let blocks = pool.map_blocks(1000, 16, |r| r.clone());
            assert_eq!(blocks.first().map(|r| r.start), Some(0));
            for w in blocks.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous, in order");
            }
            assert_eq!(blocks.last().map(|r| r.end), Some(1000));
            assert_eq!(blocks.iter().map(|r| r.len()).sum::<usize>(), 1000);
        }
    }

    #[test]
    fn map_blocks_empty_and_small() {
        let pool = Pool::new(4);
        assert!(pool.map_blocks(0, 1, |_| 1usize).is_empty());
        assert_eq!(pool.map_blocks(3, 100, |r| r.len()), vec![3]);
    }

    #[test]
    fn rows_mut_chunks_are_row_aligned() {
        for threads in [1, 2, 4, 5] {
            let pool = Pool::new(threads);
            let cols = 7; // deliberately not a divisor of typical chunk sizes
            let mut data = vec![0u64; 97 * cols];
            pool.rows_mut(&mut data, cols, 2, |block, first_row| {
                assert_eq!(block.len() % cols, 0, "threads={threads}");
                for (r, row) in block.chunks_mut(cols).enumerate() {
                    for x in row.iter_mut() {
                        *x = (first_row + r) as u64;
                    }
                }
            });
            for (i, &x) in data.iter().enumerate() {
                assert_eq!(x, (i / cols) as u64);
            }
        }
    }

    #[test]
    fn segments_mut_hands_out_whole_rows() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            // row i holds i % 5 elements, some rows empty
            let ends: Vec<usize> = (0..97)
                .map(|i| i % 5)
                .scan(0, |e, len| {
                    *e += len;
                    Some(*e)
                })
                .collect();
            let mut data = vec![usize::MAX; *ends.last().unwrap()];
            pool.segments_mut(&mut data, &ends, 3, |block, rows| {
                let base = if rows.start == 0 {
                    0
                } else {
                    ends[rows.start - 1]
                };
                for r in rows {
                    let start = if r == 0 { 0 } else { ends[r - 1] };
                    block[start - base..ends[r] - base].fill(r);
                }
            });
            let mut want = Vec::new();
            for i in 0..97 {
                want.extend(std::iter::repeat_n(i, i % 5));
            }
            assert_eq!(data, want, "threads={threads}");
        }
    }

    #[test]
    fn nested_run_falls_back_to_inline() {
        let pool = Pool::new(4);
        let count = AtomicUsize::new(0);
        pool.run(8, |_| {
            pool.run(8, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.into_inner(), 64);
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 5 {
                    panic!("boom from task 5");
                }
            });
        }));
        // The caller sees the *original* payload, not a generic wrapper —
        // a crash report pointing at the real panic site is the difference
        // between a fixable bug and a mystery.
        let payload = result.expect_err("panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom from task 5");
        // The pool must still be usable after a panicked job.
        let sum = AtomicUsize::new(0);
        pool.run(8, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 28);
    }

    #[test]
    fn pool_survives_repeated_and_total_panics() {
        // A worker dying with a job must not poison the pool: repeated
        // panic/recover cycles — including rounds where *every* task
        // panics — keep producing correct results and never deadlock.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = Pool::new(3);
        for round in 0..5 {
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(16, |i| {
                    // odd rounds: every task panics; even rounds: one does
                    if round % 2 == 1 || i == round {
                        panic!("round {round} task {i}");
                    }
                });
            }));
            assert!(result.is_err(), "round {round} should panic");
            let sum = AtomicUsize::new(0);
            pool.run(16, |i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), 136, "pool broken after round {round}");
        }
        std::panic::set_hook(prev_hook);
    }

    #[test]
    fn global_pool_width_is_positive() {
        assert!(Pool::global().threads() >= 1);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn chunk_len_respects_min_and_parallelism() {
        // Large n: enough tasks for stealing, each >= min_len.
        let c = chunk_len(10_000, 64, 4);
        assert!(c >= 64);
        assert!(10_000usize.div_ceil(c) <= 16);
        // Small n: single task.
        assert_eq!(chunk_len(10, 64, 4), 10);
    }
}
