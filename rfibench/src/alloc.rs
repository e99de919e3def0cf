//! A counting global allocator, so the traced run can report exact heap
//! allocation counts per stage call.
//!
//! Every `alloc`, `alloc_zeroed` and `realloc` bumps a counter of the
//! calling thread and forwards to the system allocator; frees are not
//! counted. The counter is thread-local, so counting is uncontended and a
//! stage call's count holds only its own thread's allocations. It is
//! always on, in traced and untraced runs alike, so both measure the same
//! binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and works until the thread is gone.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Forwards to [`System`] while counting allocation calls.
pub struct CountingAllocator;

// SAFETY: every method defers to the system allocator with the caller's
// arguments unchanged; the counter is a thread-local cell that allocates
// nothing itself.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation calls the calling thread has made since it started
/// (monotone).
pub fn count() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}
