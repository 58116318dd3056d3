//! Counting-allocator proof that a backup's per-tick bookkeeping is
//! allocation-free.
//!
//! Before the O(active) refactor, the ack scan and the
//! missing-request retry scan each collected a fresh `Vec<ConnKey>` of
//! every tracked connection on every tick — an allocation (and a full
//! scan) that grew with connection count. The engine now keeps a
//! pending set fed by [`ClusterEngine::note_activity`] and swaps it with
//! a reusable scratch buffer, retries walk only the in-flight list, and
//! the lag scan runs only while the primary is suspected. This test
//! drives the steady-state activity → ack-scan → sync-tick cycle of the
//! pair's backup over 1 000 tracked connections and asserts the
//! measurement window performs ZERO heap allocations.
//!
//! This file holds exactly one test: the counter is process-global,
//! and a concurrently running neighbour test would pollute it.

use netsim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use sttcp::cluster::Topology;
use sttcp::{ClusterEngine, ConnKey, SideMsg, SttcpConfig};
use tcpstack::{NetStack, SeqNum, StackConfig};
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

const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const PRIMARY_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const BACKUP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

#[test]
fn backup_tick_steady_state_allocates_nothing() {
    let cfg = SttcpConfig::new(VIP, 80);
    let tick = cfg.effective_sync_time();
    let topology = Topology::new(vec![PRIMARY_IP, BACKUP_IP]);
    let mut engine = ClusterEngine::new(cfg, BACKUP_IP, topology, 8 * 1024, SimTime::ZERO);
    let mut stack = NetStack::new(StackConfig::host(MacAddr::local(3), BACKUP_IP));

    // A fleet-sized population of tracked, idle connections.
    let keys: Vec<ConnKey> = (0..1000u32)
        .map(|i| ConnKey {
            client_ip: Ipv4Addr::new(10, 1, (i / 200) as u8, (i % 200) as u8 + 1),
            client_port: 20_000 + (i % 20_000) as u16,
            server_ip: VIP,
            server_port: 80,
        })
        .collect();
    for &k in &keys {
        engine.register_conn(k, SeqNum(1));
    }

    // One cycle: every connection reports activity and the ack scan
    // visits exactly the pending set; then the primary's heartbeat
    // arrives and the SyncTime tick runs (forced acks, retry scan,
    // detection) and the node adapter drains the outbox. (No shadow
    // TCBs exist in this stack, so no acks are owed and the tick's one
    // datagram is an empty ack batch — the point is the bookkeeping,
    // which used to allocate per call.)
    let mut now = SimTime::ZERO;
    let mut outbox = Vec::new();
    let mut cycle = |engine: &mut ClusterEngine, stack: &mut NetStack| {
        for &k in &keys {
            engine.note_activity(k);
        }
        engine.maybe_send_acks(stack, false);
        now += tick;
        engine.on_side_msg(
            now,
            PRIMARY_IP,
            SideMsg::Heartbeat { seq: 1, epoch: 0, entries: vec![] },
            stack,
        );
        engine.on_tick(now, stack);
        engine.drain_outbox_into(&mut outbox);
        assert_eq!(
            outbox,
            [(PRIMARY_IP, SideMsg::AckBatch { entries: Vec::new() })],
            "an idle backup tick sends exactly its empty ack batch"
        );
        outbox.clear();
    };

    // Warm-up: let the pending/scratch/outbox buffers reach high water.
    for _ in 0..50 {
        cycle(&mut engine, &mut stack);
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let rounds = 500;
    for _ in 0..rounds {
        cycle(&mut engine, &mut stack);
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;

    assert!(!engine.has_taken_over(), "the primary stayed alive throughout");
    assert_eq!(
        allocs, 0,
        "backup per-tick bookkeeping must not allocate: {allocs} allocations \
         over {rounds} rounds x 1000 connections"
    );
}
