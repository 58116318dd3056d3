//! What an idle connection costs once it has carried bytes.
//!
//! One server stack accepts 64 connections; each exchanges 4 KiB each
//! way and goes idle. A drained socket ring gives its storage to the
//! thread's one spare ring at the end of its socket's visit, so the
//! server and the spare grow by at most one ring's storage across all
//! 64 connections: 4 096 B, the largest ring. (While every drained
//! `VecDeque` kept its capacity the server grew by 449 024 B, a 4 096 B
//! send ring and a 2 920 B receive ring per connection.)
//!
//! The server's heap is what dropping it frees; the spare, which every
//! stack on the thread shares (the client's drained rings park there
//! too), is counted beside it by its capacity. The set-up is
//! deterministic, so it is built twice: measured right after the last
//! accept, and after the exchange has gone idle. Frames are composed in
//! the thread's frame arena, which no stack owns, so what grows is the
//! rings.
//!
//! This file holds exactly one test: the counter is process-global,
//! and a concurrently running neighbour test would pollute it.

use netsim::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicIsize, Ordering};
use tcpstack::stack::spare_capacity;
use tcpstack::{NetStack, SockId, StackConfig};
use wire::MacAddr;

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

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const CONNS: usize = 64;
/// Bytes each connection carries each way.
const EXCHANGE: usize = 4096;
/// One ring's storage: the exchange, at most doubled by the ring's
/// growth as segments arrive.
const ONE_RING: usize = 2 * EXCHANGE;

struct Rig {
    server: NetStack,
    client: NetStack,
    tx: Vec<bytes::Bytes>,
    now: SimTime,
}

impl Rig {
    /// Both stacks poll once and hand their frames across; the clock
    /// then moves a millisecond.
    fn pump(&mut self) {
        self.client.poll_into(self.now, &mut self.tx);
        for f in self.tx.drain(..) {
            self.server.handle_frame(self.now, f);
        }
        self.server.poll_into(self.now, &mut self.tx);
        for f in self.tx.drain(..) {
            self.client.handle_frame(self.now, f);
        }
        self.now += SimDuration::from_millis(1);
    }

    /// Writes `EXCHANGE` bytes on `from` and pumps until `to` has read
    /// them all.
    fn carry(&mut self, server_to_client: bool, from: SockId, to: SockId) {
        let data = [0xA5u8; EXCHANGE];
        let (mut written, mut read) = (0, 0);
        let mut buf = [0u8; 2048];
        for _ in 0..1000 {
            let (tx, rx) = if server_to_client {
                (&mut self.server, &mut self.client)
            } else {
                (&mut self.client, &mut self.server)
            };
            written += tx.write(from, &data[written..]).expect("live socket");
            read += rx.read(to, &mut buf).expect("live socket");
            if read == EXCHANGE {
                return;
            }
            self.pump();
        }
        panic!("{read} of {EXCHANGE} bytes arrived");
    }
}

/// The server's heap plus the thread's spare ring, after the last
/// accept or, with `exchange`, once every connection has carried its
/// bytes and gone idle.
fn server_heap(exchange: bool) -> isize {
    let mut client_cfg = StackConfig::host(MacAddr::local(1), CLIENT_IP);
    client_cfg.tcp.recv_buf = 1024;
    let mut rig = Rig {
        server: NetStack::new(StackConfig::host(MacAddr::local(2), SERVER_IP)),
        client: NetStack::new(client_cfg),
        tx: Vec::with_capacity(256),
        now: SimTime::ZERO,
    };
    rig.server.listen(80);
    let clients: Vec<SockId> =
        (0..CONNS).map(|_| rig.client.connect(rig.now, SERVER_IP, 80).expect("port")).collect();
    let mut servers = Vec::new();
    for _ in 0..50 {
        rig.pump();
        while let Some(sock) = rig.server.accept(80) {
            servers.push(sock);
        }
        if servers.len() == CONNS {
            break;
        }
    }
    assert_eq!(servers.len(), CONNS, "every handshake completes");
    if exchange {
        for (&c, &s) in clients.iter().zip(&servers) {
            rig.carry(false, c, s);
            rig.carry(true, s, c);
        }
        // Idle: delayed ACKs leave, every byte is acknowledged, and each
        // socket is visited once its last ACK arrives.
        for _ in 0..500 {
            rig.pump();
        }
        for (&c, &s) in clients.iter().zip(&servers) {
            let (client, server) = (rig.client.tcb(c).unwrap(), rig.server.tcb(s).unwrap());
            assert_eq!(client.snd_una(), client.snd_nxt(), "the client's bytes are acked");
            assert_eq!(server.snd_una(), server.snd_nxt(), "the server's bytes are acked");
        }
    }
    let live = LIVE_BYTES.load(Ordering::SeqCst);
    drop(rig.server);
    live - LIVE_BYTES.load(Ordering::SeqCst) + spare_capacity() as isize
}

#[test]
fn idle_connections_hold_at_most_one_ring_between_them() {
    let at_accept = server_heap(false);
    let idle = server_heap(true);
    let grown = idle - at_accept;
    println!(
        "server heap + thread spare: {at_accept} B after {CONNS} accepts, {idle} B once they \
         carried {EXCHANGE} B each way and went idle: +{grown} B"
    );
    assert!(
        grown <= ONE_RING as isize,
        "{CONNS} idle connections added {grown} B to the server and the spare, more than one \
         ring ({ONE_RING} B)"
    );
}
