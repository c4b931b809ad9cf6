//! A counting global allocator for the benchmark binary.
//!
//! [`CountingAlloc`] delegates every request to [`System`] and keeps
//! three statistics on the side: the number of allocation calls, the
//! live heap in bytes, and the peak of live heap plus a *credit* the
//! replay transport adds for receive buffers it hands to the engine
//! (see [`credit`]). The library only defines the type; `main.rs`
//! installs it, so tests run on the plain system allocator and read
//! zeros from these counters.
//!
//! The benchmark runs the engine on one thread. The counters are
//! statistics that publish no other data, so every access is `Relaxed`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static CREDIT: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// `System` plus allocation counting; see the module docs.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let bytes = bytes as i64;
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live + CREDIT.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees;
// the bookkeeping touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the trait's contract for `layout` passes through to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is exactly `System.alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    // SAFETY: the trait's contract for `layout` passes through to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`; the contracts are identical.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    // SAFETY: `ptr` and `layout` pass through to `System`, which made the block.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; every pointer this allocator returns came from
        // `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    // SAFETY: `ptr`, `layout` and `new_size` pass through to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator (hence from `System`) and that
        // `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// Allocation calls so far (`alloc`, `alloc_zeroed` and `realloc`).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Live heap bytes plus outstanding credit.
pub fn footprint() -> i64 {
    LIVE.load(Ordering::Relaxed) + CREDIT.load(Ordering::Relaxed)
}

/// Restarts peak tracking at the current footprint and returns it, the
/// baseline a later [`peak`] is measured against.
pub fn reset_peak() -> i64 {
    let now = footprint();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Highest footprint since the last [`reset_peak`].
pub fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed).max(footprint())
}

/// Credits `bytes` of heap that change owner without being freed: the
/// replay transport allocated its receive buffers before the baseline
/// was taken and hands them to the engine, which frees them. Crediting
/// them on hand-over keeps the engine's own peak exact.
pub fn credit(bytes: usize) {
    CREDIT.fetch_add(bytes as i64, Ordering::Relaxed);
}

/// Drops all outstanding credit (between runs).
pub fn clear_credit() {
    CREDIT.store(0, Ordering::Relaxed);
}
