//! What a finished fleet holds per connection.
//!
//! `fleet_churn` at 500 clients: the benchmark's connect spread (400 µs
//! a client), seed 1, run until every client is done, and the live heap
//! the fleet holds at the end — simulator, servers, client hosts and
//! the thread's frame arena and spare ring — divided by the clients.
//! Every client host runs a stack of its own, so what a stack keeps
//! after its one connection goes idle is paid ten thousand times over
//! at the benchmark's size.
//!
//! Measured 5 939 B per connection (2 969 581 B live). While every
//! stack owned a frame builder (a 2 KiB buffer, grown to 8 KiB by an
//! upload client) and a spare ring of its own, it was 10 431 B
//! (5 215 797 B), which fails the bound.
//!
//! This file holds exactly one test: the counter is process-global,
//! and a concurrently running neighbour test would pollute it.

use netsim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use sttcp::fleet::{self, FleetSpec};

struct CountingAlloc;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
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

const CLIENTS: usize = 500;
/// Just above the measured 5 939 B.
const BOUND_PER_CONN: usize = 6 * 1024;

#[test]
fn a_finished_fleet_holds_little_per_connection() {
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    let spec = FleetSpec::new(CLIENTS)
        .seed(1)
        .connect_spread(SimDuration::from_micros(CLIENTS as u64 * 400));
    let mut f = fleet::build(&spec);
    assert!(f.run_until_done(SimDuration::from_secs(30)), "every client finishes");
    assert!(f.verified_clean());
    let live = (LIVE_BYTES.load(Ordering::SeqCst) - before) as usize;
    let per_conn = live / CLIENTS;
    println!("{CLIENTS} finished clients: {live} B live, {per_conn} B per connection");
    assert!(
        per_conn <= BOUND_PER_CONN,
        "a finished fleet holds {per_conn} B per connection, more than {BOUND_PER_CONN} B"
    );
    drop(f);
}
