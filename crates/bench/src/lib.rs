//! Home of the `kernel_bench` binary, the hot-path gates
//! `scripts/bench-check.sh` holds to their committed values: exact
//! allocation and work counts, plus the `tick_history` ratio of two
//! timings taken in one process. Speed claims come from `rfibench`, not
//! from here. The library target exists only to install, behind the
//! `count-allocs` feature, the counting global allocator `kernel_bench`
//! counts with.

/// Heap-allocation counting for the `hot_path_allocs` regression gate.
///
/// With the `count-allocs` feature, the crate installs a
/// `#[global_allocator]` that forwards to the system allocator while
/// counting every `alloc`, `alloc_zeroed`, and `realloc` call (frees are
/// not counted: the gate is about acquiring memory on the hot path).
/// [`alloc_count`](count_allocs::alloc_count) reads the running total, so
/// a harness can snapshot it around a code region and assert the delta.
#[cfg(feature = "count-allocs")]
pub mod count_allocs {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Forwards to [`System`] while counting allocation calls.
    pub struct CountingAllocator;

    // SAFETY: defers entirely to the system allocator; the counter is a
    // relaxed atomic with no allocation of its own.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Total allocation calls since process start (monotone).
    pub fn alloc_count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}
