//! A global allocator that counts, per thread, what a closure asks for:
//! allocation calls, live bytes, bytes requested and the largest request.
//!
//! The test binaries that bound allocation include this file with
//! `#[path = ".../tests/support/tracking_alloc.rs"] mod tracking_alloc;`,
//! which installs the allocator for that binary. Counting is per thread,
//! so parallel tests — and the harness printing their results — cannot
//! taint each other's windows.

#![allow(dead_code)] // each binary reads the counts it bounds

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one run of [`tracked`]'s closure asked the allocator for.
#[derive(Debug, Clone, Copy)]
pub struct Counts {
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes the closure left live (frees subtracted).
    pub live: i64,
    /// Bytes requested in total (frees not subtracted).
    pub requested: usize,
    /// The largest single request.
    pub largest: usize,
}

const ZERO: Counts = Counts {
    allocs: 0,
    live: 0,
    requested: 0,
    largest: 0,
};

thread_local! {
    // `const` cells of `Copy` data: no lazy initializer and no destructor,
    // so the allocator can read them without allocating.
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static COUNTS: Cell<Counts> = const { Cell::new(ZERO) };
}

fn record(allocs: u64, live: i64, requested: usize) {
    if TRACK.get() {
        let c = COUNTS.get();
        COUNTS.set(Counts {
            allocs: c.allocs + allocs,
            live: c.live + live,
            requested: c.requested + requested,
            largest: c.largest.max(requested),
        });
    }
}

struct Tracking;

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64, layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size as i64 - layout.size() as i64, new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -(layout.size() as i64), 0);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Runs `f` with this thread's counts zeroed and tracking on; returns its
/// value with what it asked for.
pub fn tracked<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.set(ZERO);
    TRACK.set(true);
    let out = f();
    TRACK.set(false);
    (out, COUNTS.get())
}
