//! Robustness: the stack must survive arbitrary garbage, hostile
//! segments, and sequence-number wraparound without panicking or
//! corrupting connections.

use bytes::Bytes;
use netsim::{SimDuration, SimTime, SplitMix64};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use tcpstack::{keyed_iss, NetStack, Quad, SeqNum, StackConfig, TcpState};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment};

const HOST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

fn host() -> NetStack {
    let mut cfg = StackConfig::host(MacAddr::local(2), HOST_IP);
    cfg.promiscuous = true; // widen the attack surface: accept everything
    let mut stack = NetStack::new(cfg);
    stack.listen(80);
    stack
}

proptest! {
    /// Raw random bytes as frames: never panic, never emit garbage that
    /// fails to parse.
    #[test]
    fn random_frames_never_panic(frames in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..200), 1..40)) {
        let mut stack = host();
        let mut now = SimTime::ZERO;
        for f in frames {
            stack.handle_frame(now, Bytes::from(f));
            now += SimDuration::from_micros(100);
            for out in stack.poll(now) {
                prop_assert!(EthernetFrame::parse(out).is_ok(), "stack emitted unparsable bytes");
            }
        }
    }

    /// Structurally valid but semantically hostile TCP segments.
    #[test]
    fn hostile_segments_never_panic(
        seqs in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>(), 0usize..80), 1..60),
        src_ip in any::<[u8; 4]>(),
    ) {
        let src = Ipv4Addr::from(src_ip);
        let mut stack = host();
        let mut now = SimTime::ZERO;
        let mut rng = SplitMix64::new(9);
        for (seq, ack, flags, len) in seqs {
            let mut seg = TcpSegment::bare(
                (rng.next_below(3) as u16) * 11111 + 1000,
                if rng.chance(0.8) { 80 } else { 81 },
                seq,
                ack,
                TcpFlags::from_bits(flags),
                1024,
            );
            seg.payload = Bytes::from(vec![0x5A; len]);
            let ip = Ipv4Packet::new(src, HOST_IP, IpProtocol::Tcp, seg.encode(src, HOST_IP));
            let eth = EthernetFrame::new(MacAddr::local(2), MacAddr::local(9), EtherType::Ipv4, ip.encode());
            stack.handle_frame(now, eth.encode());
            now += SimDuration::from_micros(500);
            let _ = stack.poll(now);
        }
        // Whatever happened, the stack must still answer a poll.
        let _ = stack.poll(now);
    }
}

/// A full connection whose sequence numbers wrap through 2³² mid-stream.
#[test]
fn sequence_wraparound_mid_transfer() {
    // Place both ISNs just below the wrap point, so a ~300 KB transfer
    // crosses it. The server's ISS is the client's plus an offset keyed
    // on the quad: pick a service port whose offset is small, then a
    // client seed whose ISN puts both below the wrap.
    let client_ip = Ipv4Addr::new(10, 0, 0, 1);
    let offset = |port: u16| {
        let quad = Quad::new(HOST_IP, port, client_ip, 40000); // the first ephemeral port
        keyed_iss(quad, SeqNum(0)).raw()
    };
    let port = (1..=u16::MAX).find(|&p| offset(p).wrapping_add(50_000) < 100_000).expect("port");
    let near_wrap = |isn: u32| isn > u32::MAX - 100_000;
    let client_seed = (0..)
        .find(|&s| {
            let isn = SplitMix64::new(s).next_u64() as u32;
            near_wrap(isn) && near_wrap(isn.wrapping_add(offset(port)))
        })
        .expect("seed exists");

    let mut c_cfg = StackConfig::host(MacAddr::local(1), client_ip);
    c_cfg.isn_seed = client_seed;
    let s_cfg = StackConfig::host(MacAddr::local(2), HOST_IP);
    let mut client = NetStack::new(c_cfg);
    let mut server = NetStack::new(s_cfg);
    server.listen(port);

    let mut now = SimTime::ZERO;
    let cs = client.connect(now, HOST_IP, port).unwrap();
    // Shuttle frames until quiet.
    let pump = |client: &mut NetStack, server: &mut NetStack, now: &mut SimTime| {
        for _ in 0..10_000 {
            let fc = client.poll(*now);
            let fs = server.poll(*now);
            if fc.is_empty() && fs.is_empty() {
                break;
            }
            *now += SimDuration::from_micros(100);
            for f in fc {
                server.handle_frame(*now, f);
            }
            for f in fs {
                client.handle_frame(*now, f);
            }
        }
    };
    pump(&mut client, &mut server, &mut now);
    let ss = server.accept(port).expect("established");
    assert!(client.tcb(cs).unwrap().iss().raw() > u32::MAX - 100_000, "client ISN near wrap");
    assert!(server.tcb(ss).unwrap().iss().raw() > u32::MAX - 100_000, "server ISN near wrap");

    // Push 300 KB each way — both directions wrap through zero.
    let blob: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
    let mut c_sent = 0;
    let mut s_sent = 0;
    let mut c_got = Vec::new();
    let mut s_got = Vec::new();
    let mut buf = [0u8; 4096];
    for _ in 0..200_000 {
        c_sent += client.write(cs, &blob[c_sent..]).unwrap();
        s_sent += server.write(ss, &blob[s_sent..]).unwrap();
        now += SimDuration::from_millis(1);
        pump(&mut client, &mut server, &mut now);
        loop {
            let n = client.read(cs, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            c_got.extend_from_slice(&buf[..n]);
        }
        loop {
            let n = server.read(ss, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            s_got.extend_from_slice(&buf[..n]);
        }
        if c_got.len() == blob.len() && s_got.len() == blob.len() {
            break;
        }
    }
    assert_eq!(c_got, blob, "server→client stream must survive the wrap");
    assert_eq!(s_got, blob, "client→server stream must survive the wrap");
    // And the connection still closes cleanly after wrapping.
    client.close(now, cs);
    pump(&mut client, &mut server, &mut now);
    server.close(now, ss);
    pump(&mut client, &mut server, &mut now);
    assert_eq!(server.state(ss), Some(TcpState::Closed));
}
