//! Property-based round-trip and robustness tests for every wire format.

use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use wire::checksum::{checksum, Checksum};
use wire::{
    ArpOp, ArpPacket, EtherType, EthernetFrame, FrameBuilder, IpProtocol, Ipv4Packet, MacAddr,
    ParseError, TcpFlags, TcpFrameHeader, TcpOption, TcpSegment, UdpDatagram,
};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

fn arb_payload(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    any::<u8>().prop_map(TcpFlags::from_bits)
}

fn arb_options() -> impl Strategy<Value = Vec<TcpOption>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u16>().prop_map(TcpOption::Mss),
            (0u8..15).prop_map(TcpOption::WindowScale),
            (any::<u32>(), any::<u32>())
                .prop_map(|(tsval, tsecr)| TcpOption::Timestamps { tsval, tsecr }),
            Just(TcpOption::SackPermitted),
        ],
        0..4,
    )
}

/// Every option shape a stack sends: none, a SYN's offers, or the 1–4
/// SACK blocks of a duplicate ACK.
fn arb_option_shape() -> impl Strategy<Value = Vec<TcpOption>> {
    prop_oneof![
        Just(Vec::new()),
        arb_options(),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 1..5)
            .prop_map(|blocks| vec![TcpOption::sack(&blocks)]),
    ]
}

/// The layered reference chain `FrameBuilder` must match bit for bit.
fn layered(dst: MacAddr, src: MacAddr, ip: &Ipv4Packet) -> Bytes {
    EthernetFrame::new(dst, src, EtherType::Ipv4, ip.encode()).encode()
}

/// The view `payload` must be: the last `payload.len()` bytes of
/// `frame`'s own buffer, not a copy of them.
fn points_into(frame: &Bytes, payload: &Bytes) -> bool {
    payload.as_ptr() == frame[frame.len() - payload.len()..].as_ptr()
}

/// The definition `Checksum::add_bytes` must agree with: the RFC 1071
/// sum two bytes at a time, big-endian, an odd tail padded with zero.
fn reference_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    for pair in data.chunks(2) {
        let word = u16::from_be_bytes([pair[0], pair.get(1).copied().unwrap_or(0)]);
        sum += u32::from(word);
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[test]
fn checksum_agrees_with_reference_at_every_short_length_and_offset() {
    // Offsets 0..8 of one buffer: every alignment of the 8-byte words
    // and 32-byte blocks against the allocation.
    let buffer: Vec<u8> = (0..108u32).map(|i| (i * 151 + 7) as u8).collect();
    for len in 0..=100 {
        for offset in 0..8 {
            let data = &buffer[offset..offset + len];
            assert_eq!(checksum(data), reference_checksum(data), "len {len} offset {offset}");
        }
    }
    // The sums that fold the furthest.
    let ones = [0xFFu8; 100];
    for len in 0..=ones.len() {
        assert_eq!(checksum(&ones[..len]), reference_checksum(&ones[..len]), "len {len}");
    }
}

proptest! {
    #[test]
    fn checksum_agrees_with_reference(
        data in proptest::collection::vec(any::<u8>(), 0..9008),
        offset in 0usize..8,
    ) {
        let data = &data[offset.min(data.len())..];
        prop_assert_eq!(checksum(data), reference_checksum(data));
    }

    #[test]
    fn checksum_over_an_even_split_equals_one_shot(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        cut in any::<usize>(),
    ) {
        // Any even cut, an odd-length second half included: only the
        // last section's tail is padded.
        let cut = cut % (data.len() / 2 + 1) * 2;
        let mut sections = Checksum::new();
        sections.add_bytes(&data[..cut]).add_bytes(&data[cut..]);
        prop_assert_eq!(sections.finish(), checksum(&data));
    }

    #[test]
    fn checksum_pads_an_odd_tail_with_zero(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let mut padded = data.clone();
        if data.len() % 2 == 1 {
            padded.push(0);
        }
        prop_assert_eq!(checksum(&data), checksum(&padded));
    }

    #[test]
    fn ethernet_roundtrip(dst in arb_mac(), src in arb_mac(), et in any::<u16>(), payload in arb_payload(2048)) {
        let f = EthernetFrame::new(dst, src, EtherType::from_u16(et), payload);
        let parsed = EthernetFrame::parse(f.encode()).unwrap();
        prop_assert_eq!(parsed, f);
    }

    #[test]
    fn arp_roundtrip(smac in arb_mac(), sip in arb_ip(), tmac in arb_mac(), tip in arb_ip(), is_req in any::<bool>()) {
        let p = ArpPacket {
            op: if is_req { ArpOp::Request } else { ArpOp::Reply },
            sender_mac: smac,
            sender_ip: sip,
            target_mac: tmac,
            target_ip: tip,
        };
        prop_assert_eq!(ArpPacket::parse(&p.encode()).unwrap(), p);
    }

    #[test]
    fn ipv4_roundtrip(src in arb_ip(), dst in arb_ip(), proto in any::<u8>(), ttl in any::<u8>(), ident in any::<u16>(), payload in arb_payload(1600)) {
        let mut p = Ipv4Packet::new(src, dst, IpProtocol::from_u8(proto), payload);
        p.ttl = ttl;
        p.ident = ident;
        prop_assert_eq!(Ipv4Packet::parse(p.encode()).unwrap(), p);
    }

    #[test]
    fn ipv4_single_byte_corruption_detected_in_header(
        src in arb_ip(), dst in arb_ip(), payload in arb_payload(64),
        pos in 0usize..20, flip in 1u8..=255,
    ) {
        let p = Ipv4Packet::new(src, dst, IpProtocol::Tcp, payload);
        let mut raw = p.encode().to_vec();
        raw[pos] ^= flip;
        // Any single-byte header corruption must be rejected (checksum,
        // version, length, or truncation error — never silent acceptance
        // of different header bytes).
        if let Ok(parsed) = Ipv4Packet::parse(Bytes::from(raw)) {
            // e.g. flip was undone by parse slack — must equal original
            prop_assert_eq!(parsed, p);
        }
    }

    #[test]
    fn udp_roundtrip(src in arb_ip(), dst in arb_ip(), sp in any::<u16>(), dp in any::<u16>(), payload in arb_payload(1400)) {
        let d = UdpDatagram::new(sp, dp, payload);
        prop_assert_eq!(UdpDatagram::parse(d.encode(src, dst), src, dst).unwrap(), d);
    }

    #[test]
    fn tcp_roundtrip(
        src in arb_ip(), dst in arb_ip(),
        sp in any::<u16>(), dp in any::<u16>(),
        seq in any::<u32>(), ack in any::<u32>(),
        flags in arb_flags(), window in any::<u16>(),
        options in arb_options(), payload in arb_payload(1460),
    ) {
        let s = TcpSegment { src_port: sp, dst_port: dp, seq, ack, flags, window, options, payload };
        let parsed = TcpSegment::parse(s.encode(src, dst), src, dst).unwrap();
        prop_assert_eq!(parsed, s);
    }

    #[test]
    fn tcp_corruption_never_accepted_as_different_segment(
        src in arb_ip(), dst in arb_ip(), payload in arb_payload(128),
        pos_frac in 0.0f64..1.0, flip in 1u8..=255,
    ) {
        let mut s = TcpSegment::bare(100, 200, 1, 2, TcpFlags::ACK, 512);
        s.payload = payload;
        let mut raw = s.encode(src, dst).to_vec();
        let pos = ((raw.len() - 1) as f64 * pos_frac) as usize;
        raw[pos] ^= flip;
        // The internet checksum catches all single-byte flips.
        prop_assert!(TcpSegment::parse(Bytes::from(raw), src, dst).is_err());
    }

    #[test]
    fn tcp_parse_never_panics_on_garbage(raw in arb_payload(200), src in arb_ip(), dst in arb_ip()) {
        let _ = TcpSegment::parse(raw, src, dst);
    }

    #[test]
    fn ipv4_parse_never_panics_on_garbage(raw in arb_payload(200)) {
        let _ = Ipv4Packet::parse(raw);
    }

    #[test]
    fn full_stack_composition_roundtrip(
        smac in arb_mac(), dmac in arb_mac(), sip in arb_ip(), dip in arb_ip(),
        payload in arb_payload(1200),
    ) {
        // TCP-in-IP-in-Ethernet, the composition every simulated frame uses.
        let mut seg = TcpSegment::bare(5000, 80, 42, 43, TcpFlags::ACK | TcpFlags::PSH, 8192);
        seg.payload = payload;
        let ip = Ipv4Packet::new(sip, dip, IpProtocol::Tcp, seg.encode(sip, dip));
        let eth = EthernetFrame::new(dmac, smac, EtherType::Ipv4, ip.encode());
        let eth2 = EthernetFrame::parse(eth.encode()).unwrap();
        let ip2 = Ipv4Packet::parse(eth2.payload.clone()).unwrap();
        let seg2 = TcpSegment::parse(ip2.payload.clone(), ip2.src, ip2.dst).unwrap();
        prop_assert_eq!(seg2, seg);
    }

    #[test]
    fn tcp_frame_equals_the_layered_chain_and_parses_back_in_place(
        (eth_dst, eth_src, ip_src, ip_dst) in (arb_mac(), arb_mac(), arb_ip(), arb_ip()),
        (src_port, dst_port, seq, ack) in (any::<u16>(), any::<u16>(), any::<u32>(), any::<u32>()),
        (ident, ttl, flags, window) in (any::<u16>(), any::<u8>(), arb_flags(), any::<u16>()),
        options in arb_option_shape(),
        payload in arb_payload(1461),
        cut in any::<usize>(),
    ) {
        let seg = TcpSegment { src_port, dst_port, seq, ack, flags, window, options, payload };
        let mut ip = Ipv4Packet::new(ip_src, ip_dst, IpProtocol::Tcp, seg.encode(ip_src, ip_dst));
        ip.ident = ident;
        ip.ttl = ttl;
        let header = TcpFrameHeader {
            eth_dst, eth_src, ip_src, ip_dst, ident, ttl, src_port, dst_port, seq, ack, flags,
            window, options: &seg.options,
        };
        let cut = cut % (seg.payload.len() + 1);
        let frame = FrameBuilder::new()
            .tcp_frame(&header, (&seg.payload[..cut], &seg.payload[cut..]));
        prop_assert_eq!(&frame, &layered(eth_dst, eth_src, &ip));

        let eth = EthernetFrame::parse(frame.clone()).unwrap();
        let ip2 = Ipv4Packet::parse(eth.payload).unwrap();
        prop_assert_eq!(&ip2.payload, &ip.payload);
        let back = TcpSegment::parse(ip2.payload, ip_src, ip_dst).unwrap();
        prop_assert!(points_into(&frame, &back.payload), "the payload was copied");
        prop_assert_eq!(back, seg);
    }

    #[test]
    fn udp_frame_equals_the_layered_chain_and_parses_back_in_place(
        (eth_dst, eth_src, ip_src, ip_dst) in (arb_mac(), arb_mac(), arb_ip(), arb_ip()),
        (src_port, dst_port, ident, ttl) in (any::<u16>(), any::<u16>(), any::<u16>(), any::<u8>()),
        payload in proptest::collection::vec(any::<u8>(), 0..1473),
        zero_sum in any::<bool>(),
    ) {
        let mut payload = payload;
        if zero_sum {
            // End on a word that makes the sum fold to 0xFFFF: the
            // checksum is then zero, and sent as 0xFFFF (RFC 768).
            payload.truncate(payload.len() & !1);
            payload.extend_from_slice(&[0, 0]);
            let probe = UdpDatagram::new(src_port, dst_port, Bytes::from(payload.clone()));
            let field = probe.encode(ip_src, ip_dst).slice(6..8);
            let n = payload.len();
            payload[n - 2..].copy_from_slice(&field);
        }
        let d = UdpDatagram::new(src_port, dst_port, Bytes::from(payload.clone()));
        let mut ip = Ipv4Packet::new(ip_src, ip_dst, IpProtocol::Udp, d.encode(ip_src, ip_dst));
        ip.ident = ident;
        ip.ttl = ttl;
        let frame = FrameBuilder::new()
            .udp_frame(eth_dst, eth_src, ip_src, ip_dst, ident, ttl, src_port, dst_port, &payload);
        prop_assert_eq!(&frame, &layered(eth_dst, eth_src, &ip));
        if zero_sum {
            prop_assert_eq!(&frame[40..42], &[0xFF_u8; 2]);
        }

        let ip2 = Ipv4Packet::parse(EthernetFrame::parse(frame.clone()).unwrap().payload).unwrap();
        let back = UdpDatagram::parse(ip2.payload, ip_src, ip_dst).unwrap();
        prop_assert!(points_into(&frame, &back.payload), "the payload was copied");
        prop_assert_eq!(back, d);
    }

    #[test]
    fn ipv4_padding_past_total_len_is_cut_off(
        payload in arb_payload(1480),
        padding in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let p = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), IpProtocol::Udp, payload,
        );
        let mut raw = p.encode().to_vec();
        let total_len = raw.len();
        raw.extend_from_slice(&padding);
        let parsed = Ipv4Packet::parse(Bytes::from(raw)).unwrap();
        prop_assert_eq!(parsed.payload.len(), total_len - 20);
        prop_assert_eq!(parsed, p);
    }

    #[test]
    fn every_truncation_fails_at_the_layer_that_owns_the_length(
        options in arb_option_shape(),
        payload in arb_payload(200),
    ) {
        let (a, b) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
        let mut seg = TcpSegment::bare(80, 40000, 7, 9, TcpFlags::ACK, 4096);
        seg.options = options;
        seg.payload = payload.clone();
        let header = TcpFrameHeader {
            eth_dst: MacAddr::local(2), eth_src: MacAddr::local(1), ip_src: a, ip_dst: b,
            ident: 1, ttl: 64, src_port: 80, dst_port: 40000, seq: 7, ack: 9,
            flags: TcpFlags::ACK, window: 4096, options: &seg.options,
        };
        let frame = FrameBuilder::new().tcp_frame(&header, (&payload, &[]));
        // A frame: Ethernet needs its 14 bytes; past them the IPv4
        // header, then its total length, catches every cut.
        for cut in 0..frame.len() {
            let eth = EthernetFrame::parse(frame.slice(..cut));
            if cut < 14 {
                prop_assert_eq!(eth, Err(ParseError::Truncated { needed: 14, got: cut }));
                continue;
            }
            let ip = Ipv4Packet::parse(eth.unwrap().payload);
            if cut < 34 {
                prop_assert_eq!(ip, Err(ParseError::Truncated { needed: 20, got: cut - 14 }));
            } else {
                prop_assert!(matches!(ip, Err(ParseError::BadTotalLength { .. })), "cut {}", cut);
            }
        }
        // A bare segment has no length field: its header is checked by
        // size and data offset, the rest by the checksum, never a panic.
        let raw = seg.encode(a, b);
        let header_len = usize::from(raw[12] >> 4) * 4;
        for cut in 0..raw.len() {
            let got = TcpSegment::parse(raw.slice(..cut), a, b);
            if cut < 20 {
                prop_assert_eq!(got, Err(ParseError::Truncated { needed: 20, got: cut }));
            } else if cut < header_len {
                prop_assert_eq!(got, Err(ParseError::BadDataOffset((header_len / 4) as u8)));
            }
        }
        // A datagram's length field catches every cut.
        let raw = UdpDatagram::new(5000, 6000, payload).encode(a, b);
        for cut in 0..raw.len() {
            let got = UdpDatagram::parse(raw.slice(..cut), a, b);
            prop_assert!(matches!(got, Err(ParseError::Truncated { .. })), "udp cut {}", cut);
        }
    }
}
