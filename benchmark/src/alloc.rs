//! The benchmark's global allocator: counts, and recycles large blocks.
//!
//! Two jobs, both for the benchmark binary only (tests and the library
//! crates keep the system allocator):
//!
//! * **Counting.** Between [`start_counting`] and [`stop_counting`] it
//!   tracks requested bytes live, their peak, and the number of
//!   allocations — the source of `peak_alloc_mb`, `alloc_kb_per_conn` and
//!   `alloc.count_per_frame`. Off in timed reps.
//! * **Recycling.** Blocks of 4 KiB and more are rounded up to a power of
//!   two and, when freed, kept on a per-size free list instead of going
//!   back to the system. A 10 000-client fleet holds ≈ 720 MB, mostly
//!   64 KiB frame-builder buffers; with the system allocator every rep
//!   returns them to the kernel and faults them in again, and inside a
//!   microVM a first-touch fault costs 1–15 µs depending on whether the
//!   host still backs the page. That made the same rep take 1.0 s or
//!   2.4 s. With recycling, the reps after the first run on memory that
//!   is already mapped, and agree within a few percent.

use std::alloc::{GlobalAlloc, Layout, System};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, Ordering};

/// Smallest recycled block: 2^12 bytes.
const MIN_SHIFT: u32 = 12;
/// Size classes 4 KiB … 64 MiB (the span buffer of a traced
/// `wan_loss_failover` rep is the largest block); anything larger goes
/// to the system.
const CLASSES: usize = 15;
/// Recycled blocks are page-aligned, which covers every alignment the
/// workspace asks for.
const BLOCK_ALIGN: usize = 4096;

/// See the module docs. Install with `#[global_allocator]`.
pub struct BenchAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Guards `FREE`. A spin lock, because a `Mutex` may not be taken inside
/// an allocator on every platform and the benchmark is single-threaded:
/// the lock is never contended there.
static LOCK: AtomicBool = AtomicBool::new(false);
/// Heads of the intrusive free lists, one per size class; the first word
/// of a free block points to the next.
static FREE: [AtomicPtr<u8>; CLASSES] = [const { AtomicPtr::new(ptr::null_mut()) }; CLASSES];

/// What the allocator counted between [`start_counting`] and
/// [`stop_counting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCounts {
    /// Highest value the requested bytes live reached, relative to the start.
    pub peak_bytes: i64,
    /// Calls to `alloc` and `realloc`.
    pub allocations: u64,
}

/// Zeroes the counters and switches counting on.
pub fn start_counting() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// The counters so far; counting stays on.
pub fn counts() -> AllocCounts {
    AllocCounts {
        peak_bytes: PEAK.load(Ordering::Relaxed),
        allocations: ALLOCS.load(Ordering::Relaxed),
    }
}

/// Switches counting off and returns the counters.
pub fn stop_counting() -> AllocCounts {
    COUNTING.store(false, Ordering::Relaxed);
    counts()
}

fn note_alloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn note_dealloc(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

/// The size class of a request, or `None` when the system serves it.
fn class_of(layout: Layout) -> Option<usize> {
    if layout.size() < (1 << MIN_SHIFT) || layout.align() > BLOCK_ALIGN {
        return None;
    }
    let class = (layout.size().next_power_of_two().trailing_zeros() - MIN_SHIFT) as usize;
    (class < CLASSES).then_some(class)
}

fn class_layout(class: usize) -> Layout {
    Layout::from_size_align(1 << (class as u32 + MIN_SHIFT), BLOCK_ALIGN)
        .expect("a power of two up to 64 MiB, page-aligned, is a valid layout")
}

fn lock() {
    while LOCK.compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed).is_err() {
        std::hint::spin_loop();
    }
}

fn unlock() {
    LOCK.store(false, Ordering::Release);
}

// SAFETY: every block is obtained from `System` with the layout
// `class_layout(class)` or the caller's own layout, and `class_of` is a
// pure function of the layout, so `dealloc` and `realloc` always see the
// class `alloc` chose. A block on a free list is owned by the list alone
// (the caller gave it up in `dealloc`), is at least 4 KiB and page
// aligned, so writing one pointer at its start is in bounds and aligned.
// The lists are only touched under `LOCK`.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        let Some(class) = class_of(layout) else {
            // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
            return unsafe { System.alloc(layout) };
        };
        lock();
        let head = FREE[class].load(Ordering::Relaxed);
        if head.is_null() {
            unlock();
            // SAFETY: `class_layout` has non-zero size.
            return unsafe { System.alloc(class_layout(class)) };
        }
        // SAFETY: `head` is a free block of this class; its first word is
        // the next pointer written by `dealloc` below.
        let next = unsafe { head.cast::<*mut u8>().read() };
        FREE[class].store(next, Ordering::Relaxed);
        unlock();
        head
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        let Some(class) = class_of(layout) else {
            // SAFETY: `block` came from `System.alloc(layout)` in `alloc` above.
            return unsafe { System.dealloc(block, layout) };
        };
        lock();
        // SAFETY: the caller no longer uses `block`, which is ≥ 4 KiB and
        // page-aligned (see the impl-level comment).
        unsafe { block.cast::<*mut u8>().write(FREE[class].load(Ordering::Relaxed)) };
        FREE[class].store(block, Ordering::Relaxed);
        unlock();
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `new_size` with `layout.align()` is valid.
        let new_layout = unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
        match (class_of(layout), class_of(new_layout)) {
            (Some(old), Some(new)) if old == new => {
                // Same block serves both sizes.
                note_dealloc(layout.size());
                note_alloc(new_size);
                block
            }
            (None, None) => {
                note_dealloc(layout.size());
                note_alloc(new_size);
                // SAFETY: both sizes are served by `System` under the caller's layout.
                unsafe { System.realloc(block, layout, new_size) }
            }
            _ => {
                // SAFETY: the default move — a fresh block, copy, free the
                // old — through our own `alloc`/`dealloc`.
                unsafe {
                    let fresh = self.alloc(new_layout);
                    if !fresh.is_null() {
                        ptr::copy_nonoverlapping(block, fresh, layout.size().min(new_size));
                        self.dealloc(block, layout);
                    }
                    fresh
                }
            }
        }
    }
}
