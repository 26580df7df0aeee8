//! Test-only support: a counting global allocator.
//!
//! The flat-memory hot path (event arena, SoA runs, word-width clock
//! ops) promises **zero allocations per delivered message** once a run
//! reaches steady state. Timing benchmarks can regress silently when an
//! allocation sneaks back in; counting allocations makes the property a
//! unit test instead.
//!
//! Usage, from an integration test (`tests/alloc_guard.rs` — a separate
//! binary, so the allocator override cannot leak into production code):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: msgorder_testkit::CountingAlloc = msgorder_testkit::CountingAlloc;
//!
//! let before = msgorder_testkit::allocations();
//! hot_path();
//! assert_eq!(msgorder_testkit::allocations() - before, 0);
//! ```
//!
//! Counts are per thread and monotone: each reading covers only the
//! heap operations of the calling thread, so tests running on parallel
//! harness threads never see each other's allocations. Measure deltas,
//! not absolutes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// `const`-initialized and drop-free, so reading or bumping a counter
// never allocates and works at any point of a thread's life.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    counter.with(|c| c.set(c.get() + by));
}

/// A [`System`]-backed allocator that counts every heap operation.
///
/// Install it with `#[global_allocator]` in a test binary and read the
/// calling thread's counters through [`allocations`] / [`deallocations`]
/// / [`allocated_bytes`]. A reallocation that grows a buffer counts as
/// one allocation (matching the number of calls into the allocator, the
/// quantity the zero-alloc guards bound).
pub struct CountingAlloc;

// SAFETY: delegates every operation unchanged to `System`; the counter
// updates touch only allocation-free thread-local cells, safe inside
// the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS, 1);
        bump(&ALLOCATED_BYTES, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCATIONS, 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATIONS, 1);
        bump(&ALLOCATED_BYTES, new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocator calls that produced (or grew) a block on this thread so
/// far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Blocks this thread returned to the allocator so far.
pub fn deallocations() -> u64 {
    DEALLOCATIONS.with(Cell::get)
}

/// Bytes this thread requested so far (grows monotonically; frees do
/// not subtract).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.with(Cell::get)
}

/// Runs `f` and returns `(result, allocations f made on this thread)`.
pub fn counting<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}
