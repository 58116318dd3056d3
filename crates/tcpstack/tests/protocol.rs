//! Protocol-level integration tests: several `NetStack`s on a simulated
//! broadcast segment (a miniature hub), including loss and the ST-TCP
//! shadow-tap scenario that the `sttcp` crate builds on.

use netsim::{SimDuration, SimTime, SplitMix64};
use std::net::Ipv4Addr;
use tcpstack::{NetStack, SockId, StackConfig, TcpConfig, TcpState};
use wire::{EthernetFrame, Ipv4Packet, MacAddr, TcpSegment};

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PRIMARY_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const BACKUP_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

/// A broadcast segment connecting every stack (hub semantics): each
/// emitted frame is offered to every *other* stack's NIC filter after
/// one `latency` step.
struct HubNet {
    stacks: Vec<NetStack>,
    dead: Vec<bool>,
    now: SimTime,
    latency: SimDuration,
    loss_rng: SplitMix64,
    loss_rate: f64,
}

impl HubNet {
    fn new(stacks: Vec<NetStack>) -> Self {
        let dead = vec![false; stacks.len()];
        HubNet {
            stacks,
            dead,
            now: SimTime::ZERO,
            latency: SimDuration::from_micros(100),
            loss_rng: SplitMix64::new(7),
            loss_rate: 0.0,
        }
    }

    /// One exchange round: everyone polls, frames cross the hub.
    /// Returns the number of frames delivered.
    fn round(&mut self) -> usize {
        let mut batches = Vec::new();
        for (i, s) in self.stacks.iter_mut().enumerate() {
            if self.dead[i] {
                let _ = s; // dead stacks neither poll nor receive
                batches.push(Vec::new());
            } else {
                batches.push(s.poll(self.now));
            }
        }
        self.now += self.latency;
        let mut delivered = 0;
        for (from, frames) in batches.into_iter().enumerate() {
            for frame in frames {
                if self.loss_rate > 0.0 && self.loss_rng.chance(self.loss_rate) {
                    continue;
                }
                for (to, s) in self.stacks.iter_mut().enumerate() {
                    if to != from && !self.dead[to] {
                        s.handle_frame(self.now, frame.clone());
                        delivered += 1;
                    }
                }
            }
        }
        delivered
    }

    /// Runs rounds until quiescent or `max` rounds pass.
    fn settle(&mut self, max: usize) {
        for _ in 0..max {
            if self.round() == 0 {
                return;
            }
        }
    }

    /// Advances virtual time (for RTO/delack timers) without traffic.
    fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }
}

fn client_stack() -> NetStack {
    let mut cfg = StackConfig::host(MacAddr::local(1), CLIENT_IP);
    cfg.isn_seed = 101;
    NetStack::new(cfg)
}

fn primary_stack() -> NetStack {
    let mut cfg = StackConfig::host(MacAddr::local(2), PRIMARY_IP);
    cfg.extra_ips = vec![VIP];
    cfg.isn_seed = 202;
    cfg.learn_from_ip = true;
    cfg.tcp = TcpConfig::st_tcp_primary();
    NetStack::new(cfg)
}

fn backup_stack() -> NetStack {
    let mut cfg = StackConfig::host(MacAddr::local(3), BACKUP_IP);
    cfg.extra_ips = vec![VIP];
    cfg.isn_seed = 303; // different from the primary's: a passive open takes no seed
    cfg.promiscuous = true;
    cfg.learn_from_ip = true;
    cfg.suppressed_ips = vec![VIP];
    cfg.tcp = TcpConfig::st_tcp_backup();
    NetStack::new(cfg)
}

/// Client connects to the VIP; primary and backup both listen.
/// Returns (net, client sock, primary sock, backup sock).
fn shadow_rig() -> (HubNet, SockId, SockId, SockId) {
    let mut c = client_stack();
    let mut p = primary_stack();
    let mut b = backup_stack();
    p.listen(80);
    b.listen(80);
    let cs = c.connect(SimTime::ZERO, VIP, 80).unwrap();
    let mut net = HubNet::new(vec![c, p, b]);
    net.settle(50);
    let ps = net.stacks[1].accept(80).expect("primary accepts");
    let bs = net.stacks[2].accept(80).expect("backup shadows the connection");
    assert_eq!(net.stacks[0].state(cs), Some(TcpState::Established));
    (net, cs, ps, bs)
}

#[test]
fn shadow_handshake_resynchronizes_isn() {
    let (net, _cs, ps, bs) = shadow_rig();
    let p_tcb = net.stacks[1].tcb(ps).unwrap();
    let b_tcb = net.stacks[2].tcb(bs).unwrap();
    assert_eq!(p_tcb.state(), TcpState::Established);
    assert_eq!(b_tcb.state(), TcpState::Established);
    // §4.1: the backup's sequence numbers match the primary's exactly.
    // Both derive the ISS from the SYN, so the client's handshake ACK
    // acks the backup's own SYN/ACK and nothing is rewritten.
    assert_eq!(b_tcb.iss(), p_tcb.iss(), "backup and primary derive one ISN");
    assert_eq!(b_tcb.irs(), p_tcb.irs());
    assert_eq!(b_tcb.snd_nxt(), p_tcb.snd_nxt());
    assert_eq!(b_tcb.stats.isn_resyncs, 0);
    // And the client never saw a frame from the backup.
    assert!(net.stacks[2].stats.segs_suppressed >= 1, "backup SYN/ACK was suppressed");
}

#[test]
fn shadow_receives_identical_byte_stream() {
    let (mut net, cs, ps, bs) = shadow_rig();
    net.stacks[0].write(cs, b"GET /file HTTP/1.0\r\n\r\n").unwrap();
    net.settle(50);
    let mut pbuf = [0u8; 64];
    let mut bbuf = [0u8; 64];
    let pn = net.stacks[1].read(ps, &mut pbuf).unwrap();
    let bn = net.stacks[2].read(bs, &mut bbuf).unwrap();
    assert_eq!(pn, 22);
    assert_eq!(pbuf[..pn], bbuf[..bn], "backup taps exactly the primary's byte stream");
}

#[test]
fn shadow_send_side_tracks_client_acks() {
    let (mut net, cs, ps, bs) = shadow_rig();
    // Client asks; both server apps respond with the same bytes
    // (deterministic application assumption of §3).
    net.stacks[0].write(cs, b"req").unwrap();
    net.settle(50);
    let mut buf = [0u8; 16];
    net.stacks[1].read(ps, &mut buf).unwrap();
    net.stacks[2].read(bs, &mut buf).unwrap();
    net.stacks[1].write(ps, b"response-bytes").unwrap();
    net.stacks[2].write(bs, b"response-bytes").unwrap();
    net.settle(50);
    // Let the client's delayed ACK (40 ms) fire and cross the hub.
    net.advance(SimDuration::from_millis(50));
    net.settle(50);
    // Client got the primary's copy only.
    let n = net.stacks[0].read(cs, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"response-bytes");
    // The client's ACK (tapped) completed the backup's send too.
    let b_tcb = net.stacks[2].tcb(bs).unwrap();
    assert_eq!(
        b_tcb.snd_una(),
        b_tcb.snd_nxt(),
        "tapped client ACK drained the shadow send buffer"
    );
    let p_tcb = net.stacks[1].tcb(ps).unwrap();
    assert_eq!(b_tcb.snd_una(), p_tcb.snd_una());
}

#[test]
fn a_lagging_unsuppressed_shadow_sends_the_bytes_its_own_poll_trims() {
    let (mut net, cs, ps, bs) = shadow_rig();
    net.stacks[0].write(cs, b"req").unwrap();
    net.settle(50);
    let mut buf = [0u8; 16];
    net.stacks[1].read(ps, &mut buf).unwrap();
    net.stacks[2].read(bs, &mut buf).unwrap();
    // The primary answers and the client acknowledges before the
    // backup's application has produced a byte: the client's (tapped)
    // ACK runs ahead of the shadow's `snd_nxt`.
    net.stacks[1].write(ps, b"response-bytes").unwrap();
    net.settle(50);
    net.advance(SimDuration::from_millis(50));
    net.settle(50);
    let b = &net.stacks[2];
    let behind = b.tcb(bs).unwrap().snd_nxt();
    assert_eq!(b.tcb(bs).unwrap().peer_ack_high_water(), behind.add(14), "the shadow lags");
    // Promoted, its application catches up. One poll stages the segment
    // *and* completes it against the remembered ACK (§4.1 auto-trim)
    // before the stack has read a byte of it.
    let now = net.now;
    net.stacks[2].unsuppress(now, VIP);
    net.stacks[2].write(bs, b"response-bytes").unwrap();
    let payloads: Vec<Vec<u8>> = net.stacks[2]
        .poll(now)
        .into_iter()
        .map(|frame| {
            let ip = Ipv4Packet::parse(EthernetFrame::parse(frame).unwrap().payload).unwrap();
            TcpSegment::parse(ip.payload, ip.src, ip.dst).unwrap()
        })
        .filter(|seg| !seg.payload.is_empty())
        .map(|seg| {
            assert_eq!(seg.seq, behind.raw());
            seg.payload.to_vec()
        })
        .collect();
    assert_eq!(payloads, [b"response-bytes".to_vec()], "the wire carries exactly what was written");
    let b_tcb = net.stacks[2].tcb(bs).unwrap();
    assert_eq!(b_tcb.snd_una(), behind.add(14), "and the same poll released it");
    assert_eq!((b_tcb.snd_una(), b_tcb.flight()), (net.stacks[1].tcb(ps).unwrap().snd_una(), 0));
}

#[test]
fn takeover_after_primary_crash_is_transparent() {
    let (mut net, cs, _ps, bs) = shadow_rig();
    // A request/response cycle to warm everything up.
    net.stacks[0].write(cs, b"req1").unwrap();
    net.settle(50);
    let mut buf = [0u8; 64];
    net.stacks[1].read(_ps, &mut buf).unwrap();
    net.stacks[2].read(bs, &mut buf).unwrap();
    net.stacks[1].write(_ps, b"resp1").unwrap();
    net.stacks[2].write(bs, b"resp1").unwrap();
    net.settle(50);
    let n = net.stacks[0].read(cs, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"resp1");

    // Crash the primary; the backup takes over the VIP.
    net.dead[1] = true;
    net.stacks[2].unsuppress(net.now, VIP);

    // The client sends the next request; only the backup answers now.
    net.stacks[0].write(cs, b"req2").unwrap();
    net.settle(50);
    let n2 = net.stacks[2].read(bs, &mut buf).unwrap();
    assert_eq!(&buf[..n2], b"req2", "backup receives post-takeover data directly");
    net.stacks[2].write(bs, b"resp2").unwrap();
    net.settle(50);
    let n3 = net.stacks[0].read(cs, &mut buf).unwrap();
    assert_eq!(&buf[..n3], b"resp2", "client is served by the backup with no reconnect");
    // Still the same client connection.
    assert_eq!(net.stacks[0].state(cs), Some(TcpState::Established));
}

#[test]
fn takeover_mid_response_retransmits_inflight_bytes() {
    let (mut net, cs, ps, bs) = shadow_rig();
    net.stacks[0].write(cs, b"pull").unwrap();
    net.settle(50);
    let mut buf = [0u8; 128];
    net.stacks[1].read(ps, &mut buf).unwrap();
    net.stacks[2].read(bs, &mut buf).unwrap();
    // Both apps wrote the response, but the primary dies BEFORE its
    // copy reaches the client: write while the primary is dead.
    net.dead[1] = true;
    net.stacks[2].write(bs, b"late-response").unwrap();
    net.stacks[2].unsuppress(net.now, VIP);
    // The backup's (formerly suppressed) transmission machinery must
    // deliver it: let its RTO fire.
    for _ in 0..20 {
        net.advance(SimDuration::from_millis(100));
        net.settle(20);
    }
    let n = net.stacks[0].read(cs, &mut buf).unwrap();
    assert_eq!(&buf[..n], b"late-response", "in-flight data recovered from the backup");
}

#[test]
fn loss_on_the_segment_does_not_break_transfer() {
    // Plain client/server over a lossy hub: TCP reliability holds.
    let mut c = client_stack();
    let mut srv = StackConfig::host(MacAddr::local(5), PRIMARY_IP);
    srv.isn_seed = 55;
    let mut s = NetStack::new(srv);
    s.listen(80);
    let cs = c.connect(SimTime::ZERO, PRIMARY_IP, 80).unwrap();
    let mut net = HubNet::new(vec![c, s]);
    net.settle(50);
    let ss = net.stacks[1].accept(80).expect("established despite loss-free handshake");
    net.loss_rate = 0.1;

    let payload: Vec<u8> = (0..50_000u32).map(|i| (i * 7 % 253) as u8).collect();
    let mut sent = 0;
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    for _ in 0..30_000 {
        if sent < payload.len() {
            sent += net.stacks[1].write(ss, &payload[sent..]).unwrap();
        }
        net.round();
        // Advance so retransmission timers make progress under loss.
        net.advance(SimDuration::from_millis(10));
        loop {
            let n = net.stacks[0].read(cs, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        if got.len() == payload.len() {
            break;
        }
    }
    assert_eq!(got.len(), payload.len(), "transfer must complete under 10% loss");
    assert_eq!(got, payload, "bytes must arrive intact and in order");
    assert!(
        net.stacks[1].tcb(ss).unwrap().stats.rto_retransmits
            + net.stacks[1].tcb(ss).unwrap().stats.fast_retransmits
            > 0
    );
}

#[test]
fn backup_tap_loss_leaves_gap_identified_by_rcv_nxt() {
    // If the backup misses a client segment it cannot recover it from
    // the wire (the primary acked it; the client purges it). This test
    // pins down the *detection* state the side-channel recovery of the
    // sttcp crate starts from.
    let (mut net, cs, ps, bs) = shadow_rig();
    net.stacks[0].write(cs, b"AAAA").unwrap();
    net.settle(50);
    // Lose the backup's copy of the next segment only: simulate by
    // feeding the client's output to the primary but not the backup.
    net.stacks[0].write(cs, b"BBBB").unwrap();
    let frames = net.stacks[0].poll(net.now);
    for f in frames {
        net.stacks[1].handle_frame(net.now, f); // primary only
    }
    net.settle(50);
    let p_tcb = net.stacks[1].tcb(ps).unwrap();
    let b_tcb = net.stacks[2].tcb(bs).unwrap();
    assert_eq!(
        p_tcb.rcv_nxt().distance(b_tcb.rcv_nxt()),
        4,
        "backup is exactly one segment behind"
    );
    // The primary retained the un-backup-acked bytes for recovery.
    let missing = net.stacks[1]
        .tcb(ps)
        .unwrap()
        .fetch_rx(b_tcb.rcv_nxt(), 4)
        .expect("primary retention still holds the bytes");
    assert_eq!(missing, b"BBBB");
    // Injecting them (what the UDP side channel will do) heals the gap.
    let rcv = b_tcb.rcv_nxt();
    assert!(net.stacks[2].inject_rx(net.now, bs, rcv, &missing));
    let healed = net.stacks[2].tcb(bs).unwrap();
    assert_eq!(healed.rcv_nxt(), net.stacks[1].tcb(ps).unwrap().rcv_nxt());
}
