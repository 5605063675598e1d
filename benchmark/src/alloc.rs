//! A counting global allocator: the traced run's source for
//! `serve.allocs_per_tick` and `serve.alloc_bytes_per_tick`.
//!
//! It forwards to the system allocator and, while switched on, counts
//! calls and requested bytes. Switched off — every untraced run — the
//! cost is one relaxed load per allocation. The benchmark is single
//! threaded at `workers = 1`, so the counts are exact there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The allocator installed as `#[global_allocator]` in `main.rs`.
pub struct CountingAllocator;

// Relaxed everywhere: the three values are statistics read after the
// counted region ends on the same thread; they publish no other data.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // Load + store, not a read-modify-write: a locked add on each of
        // ~10^4 allocations per tick would itself be a tenth of the
        // tick. Counting is only ever switched on around single-threaded
        // code, where this is exact; raced by several threads it could
        // drop counts, never corrupt them.
        ALLOCS.store(ALLOCS.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        BYTES.store(
            BYTES.load(Ordering::Relaxed) + bytes as u64,
            Ordering::Relaxed,
        );
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`
        // above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocation calls, requested bytes)` counted so far.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Tests run on parallel threads and the switch is process-wide: a test
/// that flips it holds this lock for as long as it relies on it.
#[cfg(test)]
pub static TEST_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    // "Off" is checked exactly (nobody is counted); "on" is checked with
    // `>=` and retried, because another test thread allocating at the
    // same instant can overwrite one unlocked update.
    #[test]
    fn switch_gates_the_counters() {
        let _switch = TEST_SWITCH.lock().unwrap_or_else(|e| e.into_inner());
        set_counting(false);
        let before = counts();
        black_box(vec![0u8; 4096]);
        assert_eq!(counts(), before, "off: nothing is counted");

        let mut after = before;
        for _ in 0..100 {
            set_counting(true);
            black_box(vec![0u8; 4096]);
            black_box(Box::new(7u64));
            set_counting(false);
            after = counts();
            if after.0 >= before.0 + 2 && after.1 >= before.1 + 4096 + 8 {
                break;
            }
        }
        assert!(after.0 >= before.0 + 2, "on: both allocations counted");
        assert!(after.1 >= before.1 + 4096 + 8, "on: their bytes counted");

        black_box(vec![0u8; 4096]);
        assert_eq!(counts(), after, "off again: counting stopped");
    }
}
