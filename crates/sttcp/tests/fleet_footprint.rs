//! What a fleet holds per connection, at its peak and once finished.
//!
//! `fleet_churn` at 500 clients: the benchmark's connect spread (400 µs
//! a client), seed 1, run until every client is done. The counting
//! allocator keeps the live heap — simulator, servers, client hosts and
//! the thread's frame arena and spare ring — its high-water mark, and
//! both by size class, so a bound that fails shows what held the bytes
//! at the peak. Every client host runs a stack of its own, so what a
//! stack keeps after its one connection goes idle is paid ten thousand
//! times over at the benchmark's size; the peak is what the benchmark's
//! `peak_alloc_mb` reads.
//!
//! Like the benchmark's allocator, a reallocation that moves a block of
//! 4 KiB or more to another power-of-two size counts the new block
//! before it frees the old one: a vector that doubles holds both copies
//! for a moment, and on a 10 000-client fleet that moment was the peak.
//!
//! Measured: 5 226 B per connection at the end (2 613 125 B live) and
//! 9 960 B at the peak (4 980 267 B). With a 632 B TCB in a slab that
//! doubled one vector it was 5 939 B and 10 673 B, which fail both
//! bounds. While every stack owned a frame builder (a 2 KiB buffer,
//! grown to 8 KiB by an upload client) and a spare ring of its own, it
//! was 10 431 B at the end.
//!
//! This file holds exactly one test: the counter is process-global,
//! and a concurrently running neighbour test would pollute it.

use netsim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use sttcp::fleet::{self, FleetSpec};

struct CountingAlloc;

/// Size classes by bit length: class `c` holds blocks of
/// `2^(c-1) .. 2^c` bytes.
const CLASSES: usize = 48;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BY_CLASS: [AtomicIsize; CLASSES] = [const { AtomicIsize::new(0) }; CLASSES];
static AT_PEAK_BY_CLASS: [AtomicIsize; CLASSES] = [const { AtomicIsize::new(0) }; CLASSES];

fn class(size: usize) -> usize {
    ((usize::BITS - size.leading_zeros()) as usize).min(CLASSES - 1)
}

fn note_alloc(size: usize) {
    LIVE_BY_CLASS[class(size)].fetch_add(size as isize, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as isize, Ordering::Relaxed) + size as isize;
    if live > PEAK_BYTES.fetch_max(live, Ordering::Relaxed) {
        for (at_peak, now) in AT_PEAK_BY_CLASS.iter().zip(&LIVE_BY_CLASS) {
            at_peak.store(now.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }
}

fn note_dealloc(size: usize) {
    LIVE_BY_CLASS[class(size)].fetch_sub(size as isize, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as isize, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let (old, large) = (layout.size(), layout.size().max(new_size) >= 4096);
        if large && old.next_power_of_two() != new_size.next_power_of_two() {
            note_alloc(new_size);
            note_dealloc(old);
        } else {
            note_dealloc(old);
            note_alloc(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CLIENTS: usize = 500;
/// Just above the measured 5 226 B.
const END_BOUND_PER_CONN: usize = 5_300;
/// Just above the measured 9 960 B.
const PEAK_BOUND_PER_CONN: usize = 10_000;

/// The live bytes by size class at the peak, one class a line.
fn census_at_peak() -> String {
    let mut out = String::from("live bytes by block size at the peak:\n");
    for (c, bytes) in AT_PEAK_BY_CLASS.iter().enumerate() {
        let bytes = bytes.load(Ordering::SeqCst);
        if bytes != 0 {
            let lo = if c == 0 { 0 } else { 1usize << (c - 1) };
            out += &format!("  {lo:>9} .. {:>9} B: {bytes:>10} B\n", 1usize << c);
        }
    }
    out
}

#[test]
fn a_finished_fleet_holds_little_per_connection() {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    PEAK_BYTES.store(before, Ordering::SeqCst);
    let spec = FleetSpec::new(CLIENTS)
        .seed(1)
        .connect_spread(SimDuration::from_micros(CLIENTS as u64 * 400));
    let mut f = fleet::build(&spec);
    assert!(f.run_until_done(SimDuration::from_secs(30)), "every client finishes");
    assert!(f.verified_clean());
    let live = (LIVE_BYTES.load(Ordering::SeqCst) - before) as usize;
    let peak = (PEAK_BYTES.load(Ordering::SeqCst) - before) as usize;
    let (end_per_conn, peak_per_conn) = (live / CLIENTS, peak / CLIENTS);
    println!(
        "{CLIENTS} clients: {live} B live at the end, {end_per_conn} B per connection; \
         {peak} B at the peak, {peak_per_conn} B per connection"
    );
    assert!(
        end_per_conn <= END_BOUND_PER_CONN && peak_per_conn <= PEAK_BOUND_PER_CONN,
        "a fleet holds {end_per_conn} B per connection at the end (bound {END_BOUND_PER_CONN} B) \
         and {peak_per_conn} B at its peak (bound {PEAK_BOUND_PER_CONN} B); {}",
        census_at_peak()
    );
    drop(f);
}
