//! RFC 1323 window scaling: negotiation rules and large-window
//! throughput (beyond the paper — its testbed never needed > 64 KB
//! windows, but a modern gigabit deployment of ST-TCP would).

use netsim::{SimDuration, SimTime};
use std::net::Ipv4Addr;
use tcpstack::{CongestionController, NetStack, StackConfig, TcpState};
use wire::MacAddr;

const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn stack(ip: Ipv4Addr, mac: u32, recv_buf: usize, wscale: Option<u8>) -> NetStack {
    let mut cfg = StackConfig::host(MacAddr::local(mac), ip);
    cfg.isn_seed = u64::from(mac) + 7;
    cfg.tcp.recv_buf = recv_buf;
    cfg.tcp.window_scale = wscale;
    cfg.tcp.send_buf = 512 * 1024;
    NetStack::new(cfg)
}

/// A bidirectional pipe with 5 ms one-way latency: the link regime where
/// the bandwidth-delay product dwarfs 64 KB and window size rules.
const ONE_WAY: SimDuration = SimDuration::from_millis(5);
const TICK: SimDuration = SimDuration::from_micros(100);
/// Per-frame serialization spacing (≈1 Gbit line rate): keeps arrivals
/// spread out so the receiver's ACK clock ticks realistically instead
/// of coalescing a whole window into one cumulative ACK.
const GAP: SimDuration = SimDuration::from_micros(12);

struct Pipe {
    now: SimTime,
    to_b: std::collections::VecDeque<(SimTime, bytes::Bytes)>,
    to_a: std::collections::VecDeque<(SimTime, bytes::Bytes)>,
    sched_b: SimTime,
    sched_a: SimTime,
}

impl Pipe {
    fn new() -> Self {
        Pipe {
            now: SimTime::ZERO,
            to_b: Default::default(),
            to_a: Default::default(),
            sched_b: SimTime::ZERO,
            sched_a: SimTime::ZERO,
        }
    }

    /// One tick: collect output, deliver frames whose latency elapsed,
    /// pacing deliveries by the line-rate gap.
    fn tick(&mut self, a: &mut NetStack, b: &mut NetStack) {
        for f in a.poll(self.now) {
            self.sched_b = (self.now + ONE_WAY).max(self.sched_b + GAP);
            self.to_b.push_back((self.sched_b, f));
        }
        for f in b.poll(self.now) {
            self.sched_a = (self.now + ONE_WAY).max(self.sched_a + GAP);
            self.to_a.push_back((self.sched_a, f));
        }
        self.now += TICK;
        while self.to_b.front().map(|(t, _)| *t <= self.now).unwrap_or(false) {
            let (t, f) = self.to_b.pop_front().unwrap();
            b.handle_frame(t, f);
            for out in b.poll(t) {
                self.sched_a = (t + ONE_WAY).max(self.sched_a + GAP);
                self.to_a.push_back((self.sched_a, out));
            }
        }
        while self.to_a.front().map(|(t, _)| *t <= self.now).unwrap_or(false) {
            let (t, f) = self.to_a.pop_front().unwrap();
            a.handle_frame(t, f);
            for out in a.poll(t) {
                self.sched_b = (t + ONE_WAY).max(self.sched_b + GAP);
                self.to_b.push_back((self.sched_b, out));
            }
        }
    }
}

/// Transfers `total` bytes a→b over the 10 ms-RTT pipe and returns the
/// virtual time it took.
fn transfer(a: &mut NetStack, b: &mut NetStack, total: usize) -> SimDuration {
    let mut pipe = Pipe::new();
    let cs = a.connect(pipe.now, B_IP, 80).unwrap();
    for _ in 0..1000 {
        pipe.tick(a, b);
        if a.state(cs) == Some(TcpState::Established) {
            break;
        }
    }
    // Let the handshake-completing ACK cross the pipe to B.
    for _ in 0..200 {
        pipe.tick(a, b);
    }
    let ss = b.accept(80).expect("established");
    assert_eq!(a.state(cs), Some(TcpState::Established));
    let start = pipe.now;
    let blob = vec![0x6Eu8; 64 * 1024];
    let mut sent = 0;
    let mut got = 0;
    let mut buf = [0u8; 16384];
    for _ in 0..1_000_000 {
        if sent < total {
            sent += a.write(cs, &blob[..blob.len().min(total - sent)]).unwrap();
        }
        pipe.tick(a, b);
        loop {
            let n = b.read(ss, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
        if got >= total {
            break;
        }
        if std::env::var("WS_DEBUG").is_ok() && pipe.now.as_nanos() % 100_000_000 < 500_000 {
            let t = a.tcb(cs).unwrap();
            eprintln!(
                "t={} snd_wnd={} cwnd={} flight={} sent={} got={}",
                pipe.now,
                t.snd_wnd(),
                t.congestion().cwnd(),
                t.flight(),
                sent,
                got
            );
        }
    }
    assert_eq!(got, total);
    pipe.now.duration_since(start)
}

#[test]
fn negotiated_scaling_unlocks_large_windows() {
    // 512 KB windows, scale 4 (512K >> 4 = 32K fits the 16-bit field).
    let mut a = stack(A_IP, 1, 512 * 1024, Some(4));
    let mut b = stack(B_IP, 2, 512 * 1024, Some(4));
    b.listen(80);
    // RTT 10 ms: a 64 KB window caps throughput at ~6.4 MB/s, while a
    // 512 KB window sustains ~50 MB/s.
    let t_scaled = transfer(&mut a, &mut b, 4 << 20);

    let mut a0 = stack(A_IP, 1, 512 * 1024, None);
    let mut b0 = stack(B_IP, 2, 512 * 1024, None);
    b0.listen(80);
    let t_unscaled = transfer(&mut a0, &mut b0, 4 << 20);

    assert!(
        t_scaled.as_nanos() * 3 < t_unscaled.as_nanos(),
        "scaling must lift the 64 KB cap: scaled={t_scaled} unscaled={t_unscaled}"
    );
}

#[test]
fn scaling_requires_both_sides() {
    // Only one side offers: both must fall back to unscaled windows and
    // still interoperate (the window field then caps at 65535).
    for (wa, wb) in [(Some(4), None), (None, Some(4))] {
        let mut a = stack(A_IP, 1, 512 * 1024, wa);
        let mut b = stack(B_IP, 2, 512 * 1024, wb);
        b.listen(80);
        let t = transfer(&mut a, &mut b, 256 * 1024);
        assert!(!t.is_zero());
    }
}

#[test]
fn scaled_window_fields_stay_consistent_under_pressure() {
    // Fill the receiver without draining: the advertised (scaled) window
    // must shrink to zero and the sender must stop, then resume after a
    // read — exercising scaled zero-window handling.
    let mut a = stack(A_IP, 1, 256 * 1024, Some(3));
    let mut b = stack(B_IP, 2, 256 * 1024, Some(3));
    b.listen(80);
    let mut pipe = Pipe::new();
    let cs = a.connect(pipe.now, B_IP, 80).unwrap();
    for _ in 0..1000 {
        pipe.tick(&mut a, &mut b);
        if a.state(cs) == Some(TcpState::Established) {
            break;
        }
    }
    for _ in 0..200 {
        pipe.tick(&mut a, &mut b);
    }
    let ss = b.accept(80).unwrap();
    // Write more than the receive buffer; do not read.
    let blob = vec![1u8; 400 * 1024];
    let mut sent = 0;
    for _ in 0..8000 {
        sent += a.write(cs, &blob[sent..]).unwrap();
        pipe.tick(&mut a, &mut b);
    }
    let received_unread = b.tcb(ss).unwrap().readable();
    assert!(
        received_unread >= 250 * 1024,
        "receiver should hold ≈256 KB unread, has {received_unread}"
    );
    assert_eq!(b.tcb(ss).unwrap().window(&b.config().tcp), 0, "window must be exhausted");
    // Drain and confirm flow resumes (persist timer needs real time).
    let mut buf = [0u8; 65536];
    let mut drained = 0;
    for _ in 0..40_000 {
        let n = b.read(ss, &mut buf).unwrap();
        drained += n;
        if sent < blob.len() {
            sent += a.write(cs, &blob[sent..]).unwrap();
        }
        pipe.tick(&mut a, &mut b);
        if drained >= 400 * 1024 {
            break;
        }
    }
    assert!(drained >= 400 * 1024, "flow must resume after the window reopens: {drained}");
}
