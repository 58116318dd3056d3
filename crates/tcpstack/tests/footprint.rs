//! What a stack costs before its first frame.
//!
//! A fleet simulation builds one `NetStack` per client, and most of
//! them exchange ten frames and close: memory per idle stack times ten
//! thousand is the fleet's peak, and allocations per stack are its
//! set-up time; on a backup it is per-flow state, which bounds how many
//! flows it can protect. An idle stack is its struct, 800 B, and no
//! allocation. It owns no frame buffer and no spare ring: frames are
//! composed in its thread's one frame arena, and drained socket rings
//! park their storage in its thread's one spare. Its timer queue is an
//! empty heap and its poll queue an empty `Vec`, each grown to what the
//! stack uses and kept at that, and its recorder a clone of the one no-op
//! recorder (made here before counting, as any earlier stack would
//! have). (It was 106 408 B in 268 allocations with a `Vec` per
//! timer-wheel slot and a 64 KiB frame buffer, 7 032 B in 6 with the
//! wheel's slots inline over one arena, 3 232 B in 4 with a 2 KiB frame
//! buffer and a spare ring of its own, then 1 072 B in 2 with a 32-entry
//! poll queue and a no-op recorder of its own.) This test holds it
//! there.
//!
//! It also pins a connection's own state, `size_of::<Tcb>()`: 408 B. A
//! fleet stores each connection three times (client, primary, shadow),
//! and a slab slot is a TCB plus a few flags. It was 632 B while every
//! TCB kept a copy of its stack's `TcpConfig` and recorder, of the
//! capacities and RTO bounds that config holds, and `Option<SimTime>`
//! instants at 16 B each.
//!
//! This file holds exactly one test: the counter is process-global,
//! and a concurrently running neighbour test would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use tcpstack::{NetStack, StackConfig, Tcb};
use wire::MacAddr;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn an_idle_stack_is_cheap() {
    let cfg = StackConfig::host(MacAddr::local(1), Ipv4Addr::new(10, 0, 0, 1));
    drop(obs::nop());
    let (allocs, live) = (ALLOCS.load(Ordering::SeqCst), LIVE_BYTES.load(Ordering::SeqCst));
    let stack = NetStack::new(cfg);
    let allocs = ALLOCS.load(Ordering::SeqCst) - allocs;
    let heap = LIVE_BYTES.load(Ordering::SeqCst) - live;
    // Count the struct too: a boxed simulation node pays for it.
    let total = heap as usize + std::mem::size_of::<NetStack>();
    println!(
        "NetStack::new: {allocs} allocations, {heap} B heap + {} B inline",
        total - heap as usize
    );
    assert_eq!(allocs, 0, "NetStack::new made {allocs} allocations");
    assert!(total <= 800, "an idle NetStack holds {total} B");
    drop(stack);
    let tcb = std::mem::size_of::<Tcb>();
    assert!(tcb <= 408, "a TCB is {tcb} B");
}
