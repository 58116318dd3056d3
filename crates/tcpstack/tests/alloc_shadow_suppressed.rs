//! Counting-allocator proof that suppression is free of the heap.
//!
//! A backup's shadow connection runs the same deterministic
//! application as the primary and so stages every segment the primary
//! sends — and its stack drops each one because the service IP is
//! suppressed (§5). A staged segment is a plan, not a packet: header
//! fields and a range of the send buffer. Dropping one must not have
//! cost an allocation or a copy of the bytes it names.
//!
//! Client, primary and shadow exchange a saturated bulk stream
//! in-process; after warm-up the whole window — all three stacks —
//! allocates nothing, while the shadow suppresses segment after
//! segment.
//!
//! This file holds exactly one test: the counter is process-global,
//! and a concurrently running neighbour test would pollute it.

use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use tcpstack::{NetStack, SockId, StackConfig, TcpConfig};
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

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

fn server(host: u8, tcp: TcpConfig) -> StackConfig {
    let mut cfg = StackConfig::host(MacAddr::local(u32::from(host)), Ipv4Addr::new(10, 0, 0, host));
    cfg.extra_ips = vec![VIP];
    cfg.learn_from_ip = true;
    cfg.tcp = tcp;
    cfg
}

/// Client, primary, shadow on a hub: whatever one sends, the other two
/// are offered.
struct Hub {
    stacks: [NetStack; 3],
    tx: Vec<Bytes>,
    now: SimTime,
}

impl Hub {
    fn exchange(&mut self) {
        for from in 0..3 {
            self.stacks[from].poll_into(self.now, &mut self.tx);
            for frame in self.tx.drain(..) {
                for to in (0..3).filter(|&to| to != from) {
                    self.stacks[to].handle_frame(self.now, frame.clone());
                }
            }
        }
        self.now += SimDuration::from_millis(1);
    }

    /// Both servers keep their send buffers topped up with the same
    /// bytes, the client drains; returns what the client consumed.
    fn round(&mut self, socks: [SockId; 3], chunk: &[u8], read_buf: &mut [u8]) -> u64 {
        for (stack, &sock) in self.stacks.iter_mut().zip(&socks).skip(1) {
            while stack.write(sock, chunk).unwrap_or(0) == chunk.len() {}
        }
        self.exchange();
        let mut consumed = 0;
        while let Ok(n @ 1..) = self.stacks[0].read(socks[0], read_buf) {
            consumed += n as u64;
        }
        consumed
    }
}

#[test]
fn a_suppressed_shadow_allocates_nothing_per_segment() {
    let mut backup = server(3, TcpConfig::st_tcp_backup());
    backup.promiscuous = true;
    backup.suppressed_ips = vec![VIP];
    let mut hub = Hub {
        stacks: [
            NetStack::new(StackConfig::host(MacAddr::local(1), CLIENT_IP)),
            NetStack::new(server(2, TcpConfig::st_tcp_primary())),
            NetStack::new(backup),
        ],
        tx: Vec::with_capacity(64),
        now: SimTime::ZERO,
    };
    hub.stacks[1].listen(80);
    hub.stacks[2].listen(80);
    let cs = hub.stacks[0].connect(hub.now, VIP, 80).expect("connect");
    for _ in 0..20 {
        hub.exchange();
    }
    let ps = hub.stacks[1].accept(80).expect("the primary accepts");
    let bs = hub.stacks[2].accept(80).expect("the backup shadows the connection");
    let socks = [cs, ps, bs];
    let chunk = [0x5Au8; 2048];
    let mut read_buf = [0u8; 4096];

    // Warm-up: congestion windows saturated, every ring and the one
    // transmit queue at high water, the frame arena's chunks in hand.
    for _ in 0..500 {
        hub.round(socks, &chunk, &mut read_buf);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let suppressed = hub.stacks[2].stats.segs_suppressed;
    let mut transferred = 0;
    for _ in 0..500 {
        transferred += hub.round(socks, &chunk, &mut read_buf);
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    let suppressed = hub.stacks[2].stats.segs_suppressed - suppressed;

    assert!(transferred > 1 << 20, "the window must move real data, moved {transferred} bytes");
    assert!(
        suppressed * 1460 >= transferred,
        "the shadow must have planned the whole stream: {suppressed} segments suppressed \
         for {transferred} bytes"
    );
    assert_eq!(hub.stacks[2].stats.frames_out, 0, "not one frame left the shadow");
    assert_eq!(
        allocs, 0,
        "{allocs} allocations while the shadow suppressed {suppressed} segments \
         ({transferred} bytes delivered)"
    );
}
