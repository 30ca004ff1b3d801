//! The benchmark's global allocator: `hopp_prof`'s counting allocator
//! (per-thread allocation counts, which the profiler's spans read) plus
//! a per-thread live-byte gauge with a resettable high-water mark, which
//! gives `peak_heap_mib`.
//!
//! The gauge is thread-local so the unit tests, which `cargo test` runs
//! on parallel threads, cannot disturb each other's windows. The
//! benchmark itself is single-threaded, so every allocation the
//! simulator makes lands on the measuring thread.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;

use hopp::prof::alloc::CountingAlloc;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static START: Cell<i64> = const { Cell::new(0) };
}

fn add_live(delta: i64) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = LIVE.try_with(|live| {
        let now = live.get().wrapping_add(delta);
        live.set(now);
        let _ = PEAK.try_with(|peak| {
            if now > peak.get() {
                peak.set(now);
            }
        });
    });
}

fn bytes(layout: Layout) -> i64 {
    i64::try_from(layout.size()).unwrap_or(i64::MAX)
}

/// Starts a measurement window: the high-water mark restarts at the
/// current live level.
pub fn start_window() {
    let live = LIVE.with(Cell::get);
    START.with(|s| s.set(live));
    PEAK.with(|p| p.set(live));
}

/// Highest live heap on this thread since [`start_window`], in bytes
/// above the level at which the window started.
pub fn window_peak_bytes() -> u64 {
    let start = START.with(Cell::get);
    let peak = PEAK.with(Cell::get);
    u64::try_from(peak.saturating_sub(start)).unwrap_or(0)
}

/// The allocator. Zero-sized; every call goes to [`CountingAlloc`].
pub struct PeakAlloc;

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc`, which upholds the `GlobalAlloc` contract by
// forwarding to `System`; the gauge update only touches `Cell<i64>`
// thread-locals with const initialisers, so it never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s layout contract.
        let ptr = unsafe { CountingAlloc.alloc(layout) };
        if !ptr.is_null() {
            add_live(bytes(layout));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with this `layout`, and this allocator got it from
        // `CountingAlloc`.
        unsafe { CountingAlloc.dealloc(ptr, layout) };
        add_live(-bytes(layout));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // allocation of this allocator and `new_size` is valid for it.
        let new = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            add_live(i64::try_from(new_size).unwrap_or(i64::MAX) - bytes(layout));
        }
        new
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s layout contract.
        let ptr = unsafe { CountingAlloc.alloc_zeroed(layout) };
        if !ptr.is_null() {
            add_live(bytes(layout));
        }
        ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_allocation_shows_in_the_window_peak() {
        const MIB: usize = 1 << 20;
        start_window();
        let block = vec![1u8; MIB];
        std::hint::black_box(&block);
        drop(block);
        let peak = window_peak_bytes();
        assert!(
            (MIB as u64..MIB as u64 + 4096).contains(&peak),
            "peak {peak} bytes for a 1 MiB block"
        );
        assert!((peak as f64 / MIB as f64 - 1.0).abs() < 0.01);
        // Freed memory does not lower the high-water mark, and a new
        // window starts from the current level.
        start_window();
        assert_eq!(window_peak_bytes(), 0);
    }
}
