//! Heap accounting for the `peak_heap_mb` metric.
//!
//! The benchmark's global allocator forwards to the system allocator
//! and, while a measurement window is open, tracks the live heap bytes
//! and their peak. Counting live bytes rather than the resident set
//! keeps the metric independent of how the system allocator caches and
//! fragments memory, which moved the peak resident set of one input by
//! 10% from process to process. Outside a window the only cost is one
//! relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

pub struct Counting;

fn grow(bytes: isize) {
    if ON.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping never touches the memory itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        grow(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Run `f` inside a measurement window. Returns its result and the peak
/// growth of live heap bytes over the window, in MiB: what `f` and the
/// threads it drives held at most beyond what was live when it began.
pub fn peak_growth_mb<T>(f: impl FnOnce() -> T) -> (T, f64) {
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst) as f64 / (1024.0 * 1024.0))
}

/// Run `f` with counting paused, for the benchmark's own work inside a
/// window. Allocations `f` leaves live are never counted, so their later
/// release lowers the live count: `f` should free what it allocates.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = ON.swap(false, Ordering::SeqCst);
    let out = f();
    ON.store(was, Ordering::SeqCst);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_window_sees_its_own_peak_only() {
        let older = vec![0u8; 1 << 20];
        let ((), mb) = peak_growth_mb(|| {
            let a = vec![1u8; 4 << 20];
            drop(std::hint::black_box(a));
            // Freeing older memory lowers the live count below the
            // start, so this later 3 MiB block is not a new peak.
            drop(older);
            let b = vec![1u8; 3 << 20];
            drop(std::hint::black_box(b));
        });
        // Tests on other threads may allocate while the window is open.
        assert!((4.0..8.0).contains(&mb), "peak {mb} MiB");
    }
}
