//! Counting-allocator proof of the zero-allocation data hot path.
//!
//! Two stacks exchange a bulk stream in-process, frames handed over
//! and dropped each round so the thread's frame arena can reclaim its
//! chunks in place. After warm-up (buffers at high water, congestion
//! window saturated, ARP resolved) a steady-state data segment must
//! cost ZERO heap allocations end to end: stage → build frame → parse
//! → reassemble → read. The test wraps the global allocator in a
//! counter and asserts the measurement window allocates nothing.
//!
//! This file holds exactly one test: the counter is process-global,
//! and a concurrently running neighbour test would pollute it.

use netsim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use tcpstack::{NetStack, StackConfig};
use wire::MacAddr;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// One simulated round: both stacks poll, frames cross instantly, the
/// server keeps its send buffer topped up and the client drains its
/// receive buffer. Returns the payload bytes the client consumed.
#[allow(clippy::too_many_arguments)]
fn round(
    now: SimTime,
    server: &mut NetStack,
    client: &mut NetStack,
    server_sock: tcpstack::SockId,
    client_sock: tcpstack::SockId,
    tx: &mut Vec<bytes::Bytes>,
    chunk: &[u8],
    read_buf: &mut [u8],
) -> u64 {
    while server.write(server_sock, chunk).unwrap_or(0) == chunk.len() {}
    server.poll_into(now, tx);
    for f in tx.drain(..) {
        client.handle_frame(now, f);
    }
    let mut consumed = 0u64;
    while let Ok(n) = client.read(client_sock, read_buf) {
        if n == 0 {
            break;
        }
        consumed += n as u64;
    }
    client.poll_into(now, tx);
    for f in tx.drain(..) {
        server.handle_frame(now, f);
    }
    consumed
}

#[test]
fn steady_state_data_path_allocates_nothing() {
    let mut server = NetStack::new(StackConfig::host(MacAddr::local(2), SERVER_IP));
    let mut client = NetStack::new(StackConfig::host(MacAddr::local(1), CLIENT_IP));
    server.listen(80);
    let client_sock = client.connect(SimTime::ZERO, SERVER_IP, 80).expect("connect");

    let mut tx: Vec<bytes::Bytes> = Vec::with_capacity(64);
    let step = SimDuration::from_millis(1);
    let mut now = SimTime::ZERO;
    let chunk = [0x5Au8; 2048];
    let mut read_buf = [0u8; 4096];

    // Handshake: exchange frames until the server accepts.
    let mut server_sock = None;
    for _ in 0..50 {
        client.poll_into(now, &mut tx);
        for f in tx.drain(..) {
            server.handle_frame(now, f);
        }
        server.poll_into(now, &mut tx);
        for f in tx.drain(..) {
            client.handle_frame(now, f);
        }
        if server_sock.is_none() {
            server_sock = server.accept(80);
        }
        if server_sock.is_some() {
            break;
        }
        now += step;
    }
    let server_sock = server_sock.expect("handshake must complete");

    // Warm-up: saturate the congestion window, grow every ring to its
    // high-water mark, put the frame arena's chunks in hand.
    for _ in 0..500 {
        round(
            now,
            &mut server,
            &mut client,
            server_sock,
            client_sock,
            &mut tx,
            &chunk,
            &mut read_buf,
        );
        now += step;
    }

    // Measurement window.
    let before = ALLOCS.load(Ordering::SeqCst);
    let mut transferred = 0u64;
    let rounds = 500u64;
    for _ in 0..rounds {
        transferred += round(
            now,
            &mut server,
            &mut client,
            server_sock,
            client_sock,
            &mut tx,
            &chunk,
            &mut read_buf,
        );
        now += step;
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    assert!(
        transferred > 1 << 20,
        "measurement window must move real data, moved {transferred} bytes"
    );
    assert_eq!(
        allocs, 0,
        "steady-state data path must not allocate: {allocs} allocations \
         while transferring {transferred} bytes over {rounds} rounds"
    );
}
