//! "Direct" per-layer numbers: the benchmark calls one crate's public
//! functions itself, with no other layer in the way, and times them.
//!
//! These are the floors under the span numbers of the traced run: a
//! `wire` change should move `wire.*` here and the actor spans that
//! contain it; a change to the event queue should move
//! `netsim.hop_deep_ns` and not `netsim.hop_ns`.

use crate::stats::median;
use apps::pattern::{fill_pattern, verify_pattern};
use bytes::Bytes;
use netsim::node::{Context, Node, PortId};
use netsim::{LinkSpec, SimDuration, SimTime, Simulator};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;
use sttcp::{ConnKey, SideMsg};
use tcpstack::{NetStack, SockId, StackConfig};
use wire::{
    checksum, EtherType, EthernetFrame, FrameBuilder, IpProtocol, Ipv4Packet, MacAddr,
    TcpFrameHeader, TcpSegment, UdpDatagram,
};

/// Every direct measurement, each the median of [`ROUNDS`] rounds.
#[derive(Debug, Clone, Copy)]
pub struct Direct {
    /// One frame hop through the simulator, three events pending.
    pub hop_ns: f64,
    /// The same hop with 10 000 timers pending.
    pub hop_deep_ns: f64,
    /// Ethernet → IPv4 → TCP/UDP parse of one taped frame.
    pub parse_ns_per_frame: f64,
    /// `FrameBuilder::tcp_frame` of one taped TCP frame.
    pub encode_ns_per_frame: f64,
    /// Internet checksum over 1 KiB.
    pub checksum_ns_per_kb: f64,
    /// `NetStack::handle_frame`, stream shape.
    pub rx_ns_per_frame: f64,
    /// `NetStack::poll_into` per frame emitted, stream shape.
    pub tx_ns_per_frame: f64,
    /// `NetStack::write` per KiB accepted.
    pub write_ns_per_kb: f64,
    /// `NetStack::read` per KiB copied out.
    pub read_ns_per_kb: f64,
    /// One connect → 150 B request → 150 B reply → close, both stacks.
    pub conn_ns: f64,
    /// One `SideMsg` encode plus decode.
    pub sidemsg_codec_ns: f64,
    /// `apps::pattern::fill_pattern` per KiB.
    pub pattern_fill_ns_per_kb: f64,
    /// `apps::pattern::verify_pattern` per KiB.
    pub pattern_verify_ns_per_kb: f64,
}

/// Rounds per measurement.
const ROUNDS: usize = 5;

fn rounds(mut one: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS).map(|_| one()).collect();
    median(&samples)
}

/// Runs every direct benchmark. `tape` is the workload's own traffic
/// (see [`crate::probe`]); `quick` shrinks the stack benchmarks.
pub fn measure(tape: &[Bytes], quick: bool) -> Direct {
    let (parse_ns_per_frame, encode_ns_per_frame) = wire_replay(tape);
    let stream = rounds_stream(if quick { 4 << 20 } else { 32 << 20 });
    Direct {
        hop_ns: rounds(|| hop_ns(0)),
        hop_deep_ns: rounds(|| hop_ns(10_000)),
        parse_ns_per_frame,
        encode_ns_per_frame,
        checksum_ns_per_kb: rounds(checksum_ns_per_kb),
        rx_ns_per_frame: stream[0],
        tx_ns_per_frame: stream[1],
        write_ns_per_kb: stream[2],
        read_ns_per_kb: stream[3],
        conn_ns: rounds(|| churn_conn_ns(if quick { 500 } else { 2_000 })),
        sidemsg_codec_ns: rounds(sidemsg_codec_ns),
        pattern_fill_ns_per_kb: rounds(|| pattern_ns_per_kb(false)),
        pattern_verify_ns_per_kb: rounds(|| pattern_ns_per_kb(true)),
    }
}

// ------------------------------------------------------------------ netsim

/// Echoes every frame back out of the port it came in on.
struct Pinger {
    serve: bool,
}

impl Node for Pinger {
    fn on_start(&mut self, ctx: &mut Context) {
        if self.serve {
            ctx.send_frame(PortId(0), Bytes::from_static(&[0u8; 64]));
        }
    }

    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        ctx.send_frame(port, frame);
    }
}

/// Arms `timers` far-future timers, so the event queue stays that deep.
struct Sleeper {
    timers: u64,
}

impl Node for Sleeper {
    fn on_start(&mut self, ctx: &mut Context) {
        for token in 0..self.timers {
            ctx.set_timer_after(
                SimDuration::from_secs(3_600) + SimDuration::from_nanos(token),
                token,
            );
        }
    }

    fn on_frame(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut Context) {}
}

fn hop_ns(pending_timers: u64) -> f64 {
    const HOPS: u64 = 100_000;
    let mut sim = Simulator::new();
    let a = sim.add_node("a", Pinger { serve: true });
    let z = sim.add_node("z", Pinger { serve: false });
    sim.add_node("sleeper", Sleeper { timers: pending_timers });
    let link = LinkSpec::ideal().with_latency(SimDuration::from_micros(1));
    sim.connect(a, PortId(0), z, PortId(0), link);
    sim.run_until_idle(3); // the three starts
    let start = Instant::now();
    let done = sim.run_until_idle(HOPS);
    start.elapsed().as_nanos() as f64 / done as f64
}

// -------------------------------------------------------------------- wire

fn parse_frame(raw: &Bytes) -> Option<(EthernetFrame, Ipv4Packet, Option<TcpSegment>)> {
    let eth = EthernetFrame::parse(raw.clone()).ok()?;
    if eth.ethertype != EtherType::Ipv4 {
        return None;
    }
    let ip = Ipv4Packet::parse(eth.payload.clone()).ok()?;
    let tcp = match ip.protocol {
        IpProtocol::Tcp => Some(TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst).ok()?),
        IpProtocol::Udp => {
            black_box(UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok()?);
            None
        }
        _ => None,
    };
    Some((eth, ip, tcp))
}

/// Parses, then re-encodes, the taped frames; ns per frame for each.
fn wire_replay(tape: &[Bytes]) -> (f64, f64) {
    assert!(!tape.is_empty(), "the count rep must have taped some frames");
    let parse = rounds(|| {
        let start = Instant::now();
        for raw in tape {
            black_box(parse_frame(black_box(raw)));
        }
        start.elapsed().as_nanos() as f64 / tape.len() as f64
    });
    let segments: Vec<_> =
        tape.iter().filter_map(parse_frame).filter_map(|(e, i, t)| Some((e, i, t?))).collect();
    assert!(!segments.is_empty(), "every workload sends TCP frames");
    let mut builder = FrameBuilder::new();
    let encode = rounds(|| {
        let start = Instant::now();
        for (n, (eth, ip, seg)) in segments.iter().enumerate() {
            if n % 32 == 0 {
                builder.recycle(); // one poll's burst
            }
            let header = TcpFrameHeader {
                eth_dst: eth.dst,
                eth_src: eth.src,
                ip_src: ip.src,
                ip_dst: ip.dst,
                ident: ip.ident,
                ttl: ip.ttl,
                src_port: seg.src_port,
                dst_port: seg.dst_port,
                seq: seg.seq,
                ack: seg.ack,
                flags: seg.flags,
                window: seg.window,
                options: &seg.options,
            };
            black_box(builder.tcp_frame(&header, (&seg.payload, &[])));
        }
        start.elapsed().as_nanos() as f64 / segments.len() as f64
    });
    (parse, encode)
}

fn checksum_ns_per_kb() -> f64 {
    const ITERS: usize = 20_000;
    let data = vec![0xA5u8; 1460];
    let start = Instant::now();
    for _ in 0..ITERS {
        black_box(checksum::checksum(black_box(&data)));
    }
    start.elapsed().as_nanos() as f64 / (ITERS * data.len()) as f64 * 1024.0
}

// ---------------------------------------------------------------- tcpstack

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// A client and a server stack wired back to back by the benchmark: no
/// simulator, no node adapter, static ARP both ways.
struct Pair {
    client: NetStack,
    server: NetStack,
    now: SimTime,
    frames: Vec<Bytes>,
    /// Host ns inside `handle_frame`, and frames handled.
    rx: (u64, u64),
    /// Host ns inside `poll_into`, and frames emitted.
    tx: (u64, u64),
}

impl Pair {
    fn new() -> Pair {
        let (c_mac, s_mac) = (MacAddr::local(1), MacAddr::local(2));
        let mut c_cfg = StackConfig::host(c_mac, CLIENT_IP);
        c_cfg.isn_seed = 11;
        c_cfg.static_arp.push((SERVER_IP, s_mac));
        let mut s_cfg = StackConfig::host(s_mac, SERVER_IP);
        s_cfg.isn_seed = 22;
        s_cfg.static_arp.push((CLIENT_IP, c_mac));
        let mut server = NetStack::new(s_cfg);
        server.listen(80);
        Pair {
            client: NetStack::new(c_cfg),
            server,
            now: SimTime::ZERO,
            frames: Vec::new(),
            rx: (0, 0),
            tx: (0, 0),
        }
    }

    /// Moves every ready frame one way; returns how many moved.
    fn shuttle(&mut self, to_client: bool) -> u64 {
        let (from, to) = if to_client {
            (&mut self.server, &mut self.client)
        } else {
            (&mut self.client, &mut self.server)
        };
        let start = Instant::now();
        from.poll_into(self.now, &mut self.frames);
        let polled = Instant::now();
        let moved = self.frames.len() as u64;
        for frame in self.frames.drain(..) {
            to.handle_frame(self.now, frame);
        }
        self.tx.0 += (polled - start).as_nanos() as u64;
        self.tx.1 += moved;
        self.rx.0 += polled.elapsed().as_nanos() as u64;
        self.rx.1 += moved;
        moved
    }

    /// One exchange in each direction, 100 µs apart. When nothing moved,
    /// jumps to the next stack deadline (a delayed ACK, say).
    fn exchange(&mut self) {
        self.now += SimDuration::from_micros(100);
        let moved = self.shuttle(true) + self.shuttle(false);
        if moved == 0 {
            let next = [self.client.next_deadline(), self.server.next_deadline()];
            if let Some(deadline) = next.into_iter().flatten().min() {
                self.now = self.now.max(deadline);
            }
        }
    }

    /// Exchanges until `done` holds.
    fn until(&mut self, what: &str, mut done: impl FnMut(&mut Pair) -> bool) {
        for _ in 0..1_000_000 {
            if done(self) {
                return;
            }
            self.exchange();
        }
        panic!("tcpstack pair never reached: {what}");
    }

    fn connect(&mut self) -> (SockId, SockId) {
        let c = self.client.connect(self.now, SERVER_IP, 80).expect("an ephemeral port is free");
        let mut s = None;
        self.until("connection accepted", |p| {
            s = s.or_else(|| p.server.accept(80));
            s.is_some() && p.client.state(c).is_some_and(|st| st.is_synchronized())
        });
        (c, s.expect("accepted above"))
    }
}

/// Stream shape: one connection, `total` bytes server → client. Returns
/// `[rx ns/frame, tx ns/frame, write ns/KiB, read ns/KiB]`.
fn stream_once(total: usize) -> [f64; 4] {
    let mut pair = Pair::new();
    let (c, s) = pair.connect();
    pair.rx = (0, 0);
    pair.tx = (0, 0);
    let mut chunk = vec![0u8; 64 * 1024];
    fill_pattern(0, &mut chunk);
    let mut sink = vec![0u8; 64 * 1024];
    let (mut written, mut read) = (0usize, 0usize);
    let (mut write_ns, mut read_ns) = (0u64, 0u64);
    pair.until("stream delivered", |p| {
        let start = Instant::now();
        if written < total {
            let want = chunk.len().min(total - written);
            written += p.server.write(s, &chunk[..want]).expect("live socket");
        }
        let wrote = Instant::now();
        loop {
            let n = p.client.read(c, &mut sink).expect("live socket");
            if n == 0 {
                break;
            }
            read += n;
        }
        write_ns += (wrote - start).as_nanos() as u64;
        read_ns += wrote.elapsed().as_nanos() as u64;
        read >= total
    });
    let kib = total as f64 / 1024.0;
    [
        pair.rx.0 as f64 / pair.rx.1 as f64,
        pair.tx.0 as f64 / pair.tx.1 as f64,
        write_ns as f64 / kib,
        read_ns as f64 / kib,
    ]
}

fn rounds_stream(total: usize) -> [f64; 4] {
    let runs: Vec<[f64; 4]> = (0..ROUNDS).map(|_| stream_once(total)).collect();
    std::array::from_fn(|i| median(&runs.iter().map(|r| r[i]).collect::<Vec<_>>()))
}

/// Churn shape: `conns` times connect → 150 B request → 150 B reply →
/// close from both ends. Host ns per connection, both stacks together.
fn churn_conn_ns(conns: usize) -> f64 {
    let mut pair = Pair::new();
    let msg = [0x5Au8; 150];
    let mut buf = [0u8; 256];
    let start = Instant::now();
    for _ in 0..conns {
        let (c, s) = pair.connect();
        pair.client.write(c, &msg).expect("live socket");
        pair.until("request read", |p| p.server.read(s, &mut buf).expect("live socket") > 0);
        pair.server.write(s, &msg).expect("live socket");
        pair.until("reply read", |p| p.client.read(c, &mut buf).expect("live socket") > 0);
        let now = pair.now;
        pair.client.close(now, c);
        pair.until("server saw FIN", |p| p.server.tcb(s).is_none_or(|t| t.peer_closed()));
        let now = pair.now;
        pair.server.close(now, s);
        pair.until("server closed", |p| {
            matches!(p.server.state(s), None | Some(tcpstack::TcpState::Closed))
        });
        pair.server.release(s);
    }
    start.elapsed().as_nanos() as f64 / conns as f64
}

// ------------------------------------------------------------- sttcp, apps

fn sidemsg_codec_ns() -> f64 {
    const ITERS: u32 = 100_000;
    let conn = ConnKey {
        client_ip: CLIENT_IP,
        client_port: 40_000,
        server_ip: Ipv4Addr::new(10, 0, 0, 100),
        server_port: 80,
    };
    let start = Instant::now();
    for i in 0..ITERS {
        let msg = SideMsg::BackupAck { conn, acked_next: i };
        black_box(SideMsg::decode(black_box(msg.encode())));
    }
    start.elapsed().as_nanos() as f64 / f64::from(ITERS)
}

fn pattern_ns_per_kb(verify: bool) -> f64 {
    const ITERS: u64 = 200;
    let mut buf = vec![0u8; 64 * 1024];
    fill_pattern(0, &mut buf);
    let start = Instant::now();
    for i in 0..ITERS {
        if verify {
            black_box(verify_pattern(0, black_box(&buf)));
        } else {
            fill_pattern(i, black_box(&mut buf));
        }
    }
    start.elapsed().as_nanos() as f64 / (ITERS * 64) as f64
}
