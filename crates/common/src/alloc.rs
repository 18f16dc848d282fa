//! Instrumented global allocator: span-attributed heap accounting
//! (DESIGN.md §S0.5).
//!
//! [`CountingAlloc`] wraps [`std::alloc::System`] and counts every
//! allocation twice on the way through:
//!
//! - **globally**, in relaxed atomics — cumulative allocated bytes and
//!   allocation count, plus the process-wide live-byte level and its peak
//!   ([`heap_live`] / [`heap_peak`]); and
//! - **per thread**, in `const`-initialised thread-local [`Cell`]s — the
//!   same four quantities for the current thread only, which is what span
//!   attribution reads.
//!
//! The hot path is four `Cell` updates and four relaxed atomic RMWs; it
//! never allocates, locks, or recurses (the `Cell`s have no destructors and
//! no lazy initialiser, so touching them from inside the allocator is
//! safe even during thread teardown — [`std::thread::LocalKey::try_with`]
//! covers the post-destruction window by falling back to global-only
//! counting).
//!
//! ## Span attribution (the watermark-stack discipline)
//!
//! `obs::Recorder` spans call [`span_open`] when they open and
//! [`span_close`] when they close, on the same thread (guards are RAII, so
//! open/close pairs nest LIFO per thread). `span_open` snapshots the
//! thread's cumulative counters and *resets the thread peak watermark to
//! the current live level*; `span_close` reads the deltas — bytes and
//! allocations attributed to the span, and the net live-byte **growth
//! peak** reached inside it — then restores the enclosing span's watermark
//! as `max(saved, inner peak)`, so a parent's peak always covers its
//! children's. A guard moved across threads closes with no attribution
//! (returns `None`) rather than corrupting another thread's cells.
//!
//! ## Pool-worker attribution
//!
//! Worker threads of `crate::pool::Pool` register on spawn
//! ([`register_worker_thread`]) and *transfer* the allocation delta of each
//! task they execute into the job's accumulator ([`task_mark`] /
//! [`take_since`]); `Pool::run` credits the accumulated total to the
//! calling thread ([`credit`]) before it returns. Because `run` blocks
//! until the job drains, the spawning span is still open when the credit
//! lands, so worker allocations show up in the right span. The sum of task
//! deltas is independent of which worker ran which task, so attribution is
//! deterministic at any pool width.
//!
//! A task on a spawned worker that returns still holding bytes it allocated
//! (a positive net live delta) adds them to [`worker_kept_bytes`]. Such
//! bytes sit in the worker thread's own malloc arena, which keeps the pages
//! resident after the caller frees them (DESIGN.md §S0.6), so pool tasks
//! return their results through buffers the caller allocated and this total
//! stays near zero.
//!
//! ## Installing
//!
//! The wrapper only counts when installed as the `#[global_allocator]`:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: largeea_common::alloc::CountingAlloc =
//!     largeea_common::alloc::CountingAlloc;
//! ```
//!
//! The `largeea` facade crate installs it for the CLI and its integration
//! tests, and `largeea-bench` for the experiment binaries; other binaries
//! (per-crate test binaries) install their own copy or run uncounted.
//! [`is_instrumented`] reports whether *some* allocation has been counted
//! in this process, so a run can tell "no growth" from "no allocator".
//!
//! ## The memory budget
//!
//! This allocator is the run's only memory ledger (DESIGN.md §S0.8):
//! `--mem-budget` admits a request against [`thread_live`]'s growth since
//! the run's heap window opened. The per-thread level already includes
//! every pool credit, so that growth is the same at any pool width and
//! blind to whatever the process held before the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::thread::ThreadId;

// --- global (process-wide) counters --------------------------------------

/// Cumulative bytes ever allocated (monotone).
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Cumulative allocation count (monotone).
static TOTAL_COUNT: AtomicU64 = AtomicU64::new(0);
/// Live bytes right now (allocated − freed). Signed: frees of memory
/// allocated before instrumentation started can briefly drive it negative.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// Peak of [`LIVE`] (monotone).
static PEAK: AtomicI64 = AtomicI64::new(0);
/// Bytes pool tasks on spawned workers still held when they returned
/// (monotone; see [`worker_kept_bytes`]).
static WORKER_KEPT: AtomicU64 = AtomicU64::new(0);

// --- per-thread counters --------------------------------------------------

thread_local! {
    /// Cumulative bytes allocated by this thread (plus credits).
    static T_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Cumulative allocations by this thread (plus credits).
    static T_COUNT: Cell<u64> = const { Cell::new(0) };
    /// This thread's live-byte level: bytes it allocated minus bytes it
    /// freed (signed — a thread may free memory another thread allocated).
    static T_LIVE: Cell<i64> = const { Cell::new(0) };
    /// Watermark over [`T_LIVE`] since the innermost open span's
    /// [`span_open`] (which resets it to the live level of that moment).
    static T_PEAK: Cell<i64> = const { Cell::new(0) };
}

#[inline]
fn on_alloc(size: usize) {
    let size = size as u64;
    TOTAL_BYTES.fetch_add(size, Relaxed);
    TOTAL_COUNT.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK.fetch_max(live, Relaxed);
    // `try_with` instead of `with`: during thread teardown the TLS slot may
    // already be dead; globals still count, the thread view just stops.
    let _ = T_BYTES.try_with(|c| c.set(c.get().wrapping_add(size)));
    let _ = T_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = T_LIVE.try_with(|c| {
        let live = c.get() + size as i64;
        c.set(live);
        let _ = T_PEAK.try_with(|p| {
            if live > p.get() {
                p.set(live);
            }
        });
    });
}

#[inline]
fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as i64, Relaxed);
    let _ = T_LIVE.try_with(|c| c.set(c.get() - size as i64));
}

/// The instrumented allocator: [`System`] plus the counters above. A unit
/// struct so installing it is one `static` with no construction ceremony.
pub struct CountingAlloc;

// SAFETY (the workspace's second audited unsafe item, next to the pool's
// lifetime erasure): every method delegates the actual memory operation to
// `System` unchanged — same layout in, same pointer contract out — and only
// adds counter arithmetic on `Cell`s and relaxed atomics, which never
// allocates, locks, panics, or unwinds. Counting happens only on success
// (non-null return), so the books match what the system allocator really
// handed out.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Accounting model: a realloc is one new allocation of the new
            // size plus a free of the old block (what System does in the
            // worst case, and what keeps live = allocated − freed exact).
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Whether the instrumented allocator is installed in this process (i.e.
/// at least one allocation has been counted — any Rust program allocates
/// long before user code can ask, so "zero counted" means "not installed").
pub fn is_instrumented() -> bool {
    TOTAL_COUNT.load(Relaxed) > 0
}

/// Process-wide live heap bytes (allocated − freed), clamped at zero.
pub fn heap_live() -> u64 {
    LIVE.load(Relaxed).max(0) as u64
}

/// Peak of [`heap_live`] over the life of the process.
pub fn heap_peak() -> u64 {
    PEAK.load(Relaxed).max(0) as u64
}

/// The current thread's live-byte level: what it allocated minus what it
/// freed, plus what pool jobs credited to it ([`credit`]). Only the
/// difference of two reads on one thread means anything — the heap growth
/// between them, worker allocations included.
pub fn thread_live() -> i64 {
    T_LIVE.try_with(Cell::get).unwrap_or(0)
}

/// Cumulative `(bytes, count)` ever allocated process-wide.
pub fn totals() -> (u64, u64) {
    (TOTAL_BYTES.load(Relaxed), TOTAL_COUNT.load(Relaxed))
}

// --- span attribution -----------------------------------------------------

/// Opaque snapshot returned by [`span_open`]; hand it back to
/// [`span_close`] on the same thread.
#[derive(Debug)]
pub struct SpanAllocHandle {
    bytes0: u64,
    count0: u64,
    live0: i64,
    saved_peak: i64,
    thread: ThreadId,
}

/// The heap activity attributed to one closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanAllocDelta {
    /// Bytes allocated while the span was open (cumulative, frees do not
    /// subtract — this is allocation *traffic*, not residency).
    pub bytes: u64,
    /// Number of allocations while the span was open.
    pub count: u64,
    /// Peak net growth of the thread's live bytes over the span — the
    /// span's contribution to residency, measured from its opening level.
    pub peak_bytes: u64,
}

/// Snapshots the current thread's counters and resets its peak watermark
/// to the current live level — the open half of span attribution. Pair
/// with [`span_close`] in LIFO order (RAII guards do this naturally).
pub fn span_open() -> SpanAllocHandle {
    let bytes0 = T_BYTES.try_with(Cell::get).unwrap_or(0);
    let count0 = T_COUNT.try_with(Cell::get).unwrap_or(0);
    let live0 = T_LIVE.try_with(Cell::get).unwrap_or(0);
    let saved_peak = T_PEAK.try_with(|p| p.replace(live0)).unwrap_or(0);
    SpanAllocHandle {
        bytes0,
        count0,
        live0,
        saved_peak,
        thread: std::thread::current().id(),
    }
}

/// Closes the attribution window opened by [`span_open`]: returns the
/// deltas since the snapshot and restores the enclosing window's watermark
/// as `max(saved, inner peak)`. Returns `None` when called from a
/// different thread than the matching `span_open` (the window is skipped,
/// nothing is corrupted).
pub fn span_close(h: SpanAllocHandle) -> Option<SpanAllocDelta> {
    if std::thread::current().id() != h.thread {
        return None;
    }
    let bytes = T_BYTES.try_with(Cell::get).unwrap_or(h.bytes0);
    let count = T_COUNT.try_with(Cell::get).unwrap_or(h.count0);
    let inner_peak = T_PEAK
        .try_with(|p| {
            let inner = p.get();
            p.set(inner.max(h.saved_peak));
            inner
        })
        .unwrap_or(h.live0);
    Some(SpanAllocDelta {
        bytes: bytes.wrapping_sub(h.bytes0),
        count: count.wrapping_sub(h.count0),
        peak_bytes: (inner_peak - h.live0).max(0) as u64,
    })
}

// --- pool-worker transfer -------------------------------------------------

/// Counter snapshot taken before a pool task runs (see [`take_since`]).
#[derive(Debug, Clone, Copy)]
pub struct TaskAllocMark {
    bytes0: u64,
    count0: u64,
    live0: i64,
}

/// Heap activity moved from a worker thread to a job accumulator, and from
/// there to the spawning thread via [`credit`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadAllocDelta {
    /// Bytes allocated.
    pub bytes: u64,
    /// Allocation count.
    pub count: u64,
    /// Net live-byte change (signed: a task may free more than it
    /// allocates, e.g. when it consumes caller-provided buffers).
    pub live: i64,
}

impl ThreadAllocDelta {
    /// Accumulates another delta (used by the pool's per-job totals).
    pub fn merge(&mut self, d: ThreadAllocDelta) {
        self.bytes = self.bytes.wrapping_add(d.bytes);
        self.count = self.count.wrapping_add(d.count);
        self.live += d.live;
    }
}

/// Marks the current thread's counters before a pool task executes.
pub fn task_mark() -> TaskAllocMark {
    TaskAllocMark {
        bytes0: T_BYTES.try_with(Cell::get).unwrap_or(0),
        count0: T_COUNT.try_with(Cell::get).unwrap_or(0),
        live0: T_LIVE.try_with(Cell::get).unwrap_or(0),
    }
}

/// Takes the delta since `mark` *out of* the current thread's counters —
/// a move, not a copy: the bytes are subtracted locally so that crediting
/// them to the spawning thread ([`credit`]) never double-counts, even when
/// the spawning thread executes some of its own job's tasks.
pub fn take_since(mark: &TaskAllocMark) -> ThreadAllocDelta {
    ThreadAllocDelta {
        bytes: T_BYTES
            .try_with(|c| {
                let d = c.get().wrapping_sub(mark.bytes0);
                c.set(mark.bytes0);
                d
            })
            .unwrap_or(0),
        count: T_COUNT
            .try_with(|c| {
                let d = c.get().wrapping_sub(mark.count0);
                c.set(mark.count0);
                d
            })
            .unwrap_or(0),
        live: T_LIVE
            .try_with(|c| {
                let d = c.get() - mark.live0;
                c.set(mark.live0);
                d
            })
            .unwrap_or(0),
    }
}

/// Credits a transferred delta to the current thread (the pool caller):
/// worker allocations land in whatever span is open here, and the thread's
/// peak watermark is raised if the credited live bytes set a new high.
pub fn credit(d: &ThreadAllocDelta) {
    let _ = T_BYTES.try_with(|c| c.set(c.get().wrapping_add(d.bytes)));
    let _ = T_COUNT.try_with(|c| c.set(c.get().wrapping_add(d.count)));
    let _ = T_LIVE.try_with(|c| {
        let live = c.get() + d.live;
        c.set(live);
        let _ = T_PEAK.try_with(|p| {
            if live > p.get() {
                p.set(live);
            }
        });
    });
}

/// Books `task`, the delta a pool task on a spawned worker just returned
/// with: its positive net live bytes join [`worker_kept_bytes`].
pub fn note_worker_task(task: &ThreadAllocDelta) {
    if task.live > 0 {
        WORKER_KEPT.fetch_add(task.live as u64, Relaxed);
    }
}

/// Total bytes that pool tasks on spawned workers were still holding when
/// they returned, over the life of the process (module docs). Only the
/// difference of two reads means anything.
pub fn worker_kept_bytes() -> u64 {
    WORKER_KEPT.load(Relaxed)
}

/// Called by pool workers on spawn: touches the thread-local counters so
/// their slots are initialised before the first measured task (the cells
/// are `const`-initialised, so this is registration in the "warm the TLS"
/// sense — no registry is kept).
pub fn register_worker_thread() {
    let _ = T_BYTES.try_with(|_| ());
    let _ = T_COUNT.try_with(|_| ());
    let _ = T_LIVE.try_with(|_| ());
    let _ = T_PEAK.try_with(|_| ());
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: the common unit-test binary deliberately does NOT install
    // `CountingAlloc` (that would perturb every other test's timing), so
    // these tests exercise the bookkeeping API against idle counters; the
    // end-to-end reconciliation prop-tests live in
    // `crates/common/tests/alloc_props.rs`, which installs the allocator.

    #[test]
    fn span_window_on_idle_counters_is_zero() {
        let h = span_open();
        let d = span_close(h).expect("same thread");
        assert_eq!(d.bytes, 0);
        assert_eq!(d.count, 0);
        assert_eq!(d.peak_bytes, 0);
    }

    #[test]
    fn cross_thread_close_returns_none() {
        let h = span_open();
        let d = std::thread::scope(|s| s.spawn(|| span_close(h)).join().unwrap());
        assert!(d.is_none(), "a moved guard must not touch foreign cells");
    }

    #[test]
    fn credit_take_roundtrip_is_neutral() {
        let before = (
            T_BYTES.with(Cell::get),
            T_COUNT.with(Cell::get),
            T_LIVE.with(Cell::get),
        );
        credit(&ThreadAllocDelta {
            bytes: 128,
            count: 2,
            live: 64,
        });
        let mark = TaskAllocMark {
            bytes0: before.0,
            count0: before.1,
            live0: before.2,
        };
        let taken = take_since(&mark);
        assert_eq!(taken.bytes, 128);
        assert_eq!(taken.count, 2);
        assert_eq!(taken.live, 64);
        let after = (
            T_BYTES.with(Cell::get),
            T_COUNT.with(Cell::get),
            T_LIVE.with(Cell::get),
        );
        assert_eq!(before, after, "take undoes credit exactly");
    }

    #[test]
    fn merge_accumulates() {
        let mut total = ThreadAllocDelta::default();
        total.merge(ThreadAllocDelta {
            bytes: 10,
            count: 1,
            live: 10,
        });
        total.merge(ThreadAllocDelta {
            bytes: 5,
            count: 2,
            live: -3,
        });
        assert_eq!(
            total,
            ThreadAllocDelta {
                bytes: 15,
                count: 3,
                live: 7
            }
        );
    }

    #[test]
    fn register_worker_thread_is_callable_anywhere() {
        register_worker_thread();
        std::thread::scope(|s| {
            s.spawn(register_worker_thread).join().unwrap();
        });
    }
}
