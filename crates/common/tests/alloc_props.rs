//! End-to-end reconciliation of the instrumented allocator (DESIGN.md
//! §S0.5): this test binary installs [`CountingAlloc`] as its global
//! allocator — which the `largeea-common` *unit*-test binary deliberately
//! does not — and proves that scripted allocations reconcile **exactly**
//! with the span-attributed books: every byte a script allocates inside a
//! window shows up in `SpanAllocDelta::bytes`, every allocation in
//! `count`, and the live-byte high-water mark in `peak_bytes`.
//!
//! Exactness is the point. The scripts pre-allocate all their bookkeeping
//! (slot vectors, op lists) *before* opening the window, so the only heap
//! traffic inside it is the boxes the script makes — any drift between the
//! simulated ledger and the measured delta is a counting bug, not noise.

use largeea_common::alloc::{self, CountingAlloc};
use largeea_common::check::for_each_case;
use largeea_common::pool::Pool;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn the_test_binary_is_instrumented() {
    // Reaching main() allocates (args, test harness); if this fails the
    // global_allocator attribute above stopped applying and every other
    // assertion in this file is vacuous.
    assert!(alloc::is_instrumented());
    let (bytes, count) = alloc::totals();
    assert!(bytes > 0 && count > 0);
    assert!(alloc::heap_peak() >= alloc::heap_live());
}

/// One scripted heap operation: fill a slot with a boxed buffer of a given
/// size (dropping whatever the slot held), or empty a slot.
enum Op {
    Fill { slot: usize, size: usize },
    Clear { slot: usize },
}

#[test]
fn scripted_allocations_reconcile_exactly_with_the_span_window() {
    for_each_case(0xA110_CA7E, 64, |rng| {
        let n_slots = rng.gen_range(1..8usize);
        let n_ops = rng.gen_range(1..40usize);
        // All bookkeeping allocated BEFORE the window opens.
        let mut slots: Vec<Option<Box<[u8]>>> = (0..n_slots).map(|_| None).collect();
        let mut ops: Vec<Op> = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let slot = rng.gen_range(0..n_slots);
            if rng.gen_range(0..4usize) < 3 {
                let size = rng.gen_range(1..64 * 1024usize);
                ops.push(Op::Fill { slot, size });
            } else {
                ops.push(Op::Clear { slot });
            }
        }

        // Simulated ledger, updated in lockstep with the real operations.
        let mut want_bytes = 0u64;
        let mut want_count = 0u64;
        let mut live = 0i64;
        let mut want_peak = 0i64;

        let h = alloc::span_open();
        for op in &ops {
            match *op {
                Op::Fill { slot, size } => {
                    if let Some(old) = slots[slot].take() {
                        live -= old.len() as i64;
                    }
                    // One allocation of exactly `size` bytes (vec! of u8
                    // zeros is a single alloc_zeroed; into_boxed_slice on a
                    // full vec reallocates nothing).
                    slots[slot] = Some(vec![0u8; size].into_boxed_slice());
                    want_bytes += size as u64;
                    want_count += 1;
                    live += size as i64;
                    want_peak = want_peak.max(live);
                }
                Op::Clear { slot } => {
                    if let Some(old) = slots[slot].take() {
                        live -= old.len() as i64;
                    }
                }
            }
        }
        let d = alloc::span_close(h).expect("same thread");

        assert_eq!(d.bytes, want_bytes, "allocated bytes must match exactly");
        assert_eq!(d.count, want_count, "allocation count must match exactly");
        assert_eq!(
            d.peak_bytes, want_peak as u64,
            "live-byte high-water mark must match exactly"
        );
    });
}

#[test]
fn nested_windows_attribute_exactly_and_fold_child_peaks_into_the_parent() {
    let outer = alloc::span_open();
    let inner = alloc::span_open();
    let big = vec![0u8; 64 * 1024];
    drop(big);
    let d_inner = alloc::span_close(inner).expect("same thread");
    let small = vec![0u8; 1024];
    let d_outer = alloc::span_close(outer).expect("same thread");
    drop(small);

    assert_eq!(d_inner.bytes, 64 * 1024);
    assert_eq!(d_inner.count, 1);
    assert_eq!(d_inner.peak_bytes, 64 * 1024);
    // The parent covers the child's traffic and its peak: the 64K spike
    // happened inside the child, but it is also the parent's high-water
    // mark (the 1K allocated after the child never exceeds it).
    assert_eq!(d_outer.bytes, 64 * 1024 + 1024);
    assert_eq!(d_outer.count, 2);
    assert_eq!(d_outer.peak_bytes, 64 * 1024);
}

/// The pool test the ISSUE asks for: allocations made by *worker threads*
/// attribute to the span open on the *spawning* thread, and the attributed
/// totals are identical at every pool width (the transfer sums task deltas,
/// which are scheduling-independent).
#[test]
fn pool_worker_allocations_attribute_to_the_spawning_span() {
    let sizes: Vec<usize> = (0..32).map(|i| 1024 + i * 128).collect();
    let total: u64 = sizes.iter().map(|&s| s as u64).sum();

    let measure = |threads: usize| -> (u64, u64, u64) {
        let pool = Pool::new(threads);
        let slots: Vec<Mutex<Option<Box<[u8]>>>> = sizes.iter().map(|_| Mutex::new(None)).collect();
        // Warm-up so any lazy init happens outside the measured window.
        pool.run(sizes.len(), |_| {});
        let h = alloc::span_open();
        pool.run(sizes.len(), |i| {
            *slots[i].lock().unwrap() = Some(vec![0u8; sizes[i]].into_boxed_slice());
        });
        let d = alloc::span_close(h).expect("same thread");
        (d.bytes, d.count, d.peak_bytes)
    };

    let inline = measure(1);
    assert_eq!(inline.0, total, "inline path: every byte attributed");
    assert_eq!(inline.1, sizes.len() as u64);
    // All boxes are still live when the window closes, so the window's
    // high-water mark is at least the full working set.
    assert!(inline.2 >= total, "peak {} < total {total}", inline.2);

    for threads in [2, 4] {
        let parallel = measure(threads);
        assert_eq!(
            parallel, inline,
            "attribution must be identical at width {threads}"
        );
    }
}

#[test]
fn pool_attribution_survives_a_panicking_task() {
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let pool = Pool::new(3);
    let slots: Vec<Mutex<Option<Box<[u8]>>>> = (0..8).map(|_| Mutex::new(None)).collect();
    pool.run(slots.len(), |_| {});

    let h = alloc::span_open();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(slots.len(), |i| {
            *slots[i].lock().unwrap() = Some(vec![0u8; 4096].into_boxed_slice());
            if i == 3 {
                panic!("boom");
            }
        });
    }));
    let d = alloc::span_close(h).expect("same thread");
    std::panic::set_hook(prev_hook);

    assert!(result.is_err(), "the task panic must reach the caller");
    // Every task ran (the pool drains the job before re-raising), so every
    // task's allocation was transferred and credited despite the panic;
    // the panic machinery itself may allocate, hence >=.
    assert!(
        d.bytes >= 8 * 4096,
        "worker bytes lost across a panic: {} < {}",
        d.bytes,
        8 * 4096
    );
    assert!(d.count >= 8);
}
