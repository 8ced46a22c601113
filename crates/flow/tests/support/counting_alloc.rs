//! A counting global allocator for allocation guards: the system allocator,
//! counting every allocation and reallocation a thread makes while it asks
//! through [`allocations`]. Other threads' allocations are not counted.
//! A test binary includes this file as a module, which installs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation made on
/// a thread while that thread's `COUNTING` flag is up.
struct Counting;

impl Counting {
    fn note() {
        // `try_with`: a thread's locals may already be gone while it exits.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments;
// counting touches only const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its value and the allocations it made on this thread.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get) - before)
}
