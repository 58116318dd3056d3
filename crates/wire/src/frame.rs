//! Single-pass frame composition: Ethernet + IPv4 + TCP/UDP carved
//! from a chunked frame arena.
//!
//! The layered `encode()` chain (`TcpSegment::encode` →
//! `Ipv4Packet::encode` → `EthernetFrame::encode`) allocates three
//! buffers and copies the payload three times per frame. The
//! [`FrameBuilder`] composes the fixed Ethernet+IPv4+L4 header as one
//! block of plain stores on the stack (IPv4 checksum included), copies
//! it, the options and the payload once into the tail of a fixed-size
//! chunk, patches the transport checksum in place, and hands the
//! finished frame out as a refcounted [`Bytes`] view of the chunk — at
//! most one payload memcpy, and zero heap allocations once the chunks
//! the frames in flight pin are in hand: a chunk is reused in place once
//! its last frame has dropped, as Linux reuses a `page_frag` page.
//!
//! Bit-identity with the layered chain is a hard invariant (the
//! simulator's determinism tests compare full frame traces); the TCP
//! option encoding is shared ([`write_options`]) and
//! [`FrameBuilder::tcp_frame`] mirrors the field order of the layered
//! encoders exactly. `tests::builder_matches_layered_chain` pins this.

use crate::checksum::{checksum, pseudo_header_sum, Checksum};
use crate::ethernet::{EtherType, MacAddr};
use crate::ipv4::IpProtocol;
use crate::tcp::{options_wire_len, write_options, TcpFlags, TcpOption};
use crate::{ethernet, ipv4, tcp, udp};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Offset of the IPv4 header within a frame.
const IP_OFF: usize = ethernet::HEADER_LEN;
/// Offset of the transport header within a frame.
const L4_OFF: usize = IP_OFF + ipv4::HEADER_LEN;

/// Everything above the payload for one outgoing TCP frame.
///
/// Borrowed, `Copy`-cheap view: the hot path fills this from the TCB and
/// stack state without materializing a `TcpSegment`.
#[derive(Debug, Clone, Copy)]
pub struct TcpFrameHeader<'a> {
    /// Ethernet destination.
    pub eth_dst: MacAddr,
    /// Ethernet source.
    pub eth_src: MacAddr,
    /// IPv4 source address.
    pub ip_src: Ipv4Addr,
    /// IPv4 destination address.
    pub ip_dst: Ipv4Addr,
    /// IPv4 identification field.
    pub ident: u16,
    /// IPv4 time to live.
    pub ttl: u8,
    /// TCP source port.
    pub src_port: u16,
    /// TCP destination port.
    pub dst_port: u16,
    /// TCP sequence number.
    pub seq: u32,
    /// TCP acknowledgment number.
    pub ack: u32,
    /// TCP flags.
    pub flags: TcpFlags,
    /// Advertised window (unscaled).
    pub window: u16,
    /// TCP options: a SYN's offers, or the SACK blocks of an ACK.
    pub options: &'a [TcpOption],
}

/// A chunked frame arena: every frame is carved from the tail of the
/// current fixed-size chunk and split off as a [`Bytes`] view of it.
///
/// A full chunk is retired to a short FIFO while frames split from it
/// are in flight. The next chunk is the oldest retired one if every
/// frame of it has dropped, reclaimed in place; otherwise it is a fresh
/// one, and a retired chunk pushed out of the FIFO is freed by its last
/// frame. So the arena holds about the bytes in flight, whatever number
/// of senders share it: `tcpstack` keeps one per thread for every stack
/// on that thread.
#[derive(Debug)]
pub struct FrameBuilder {
    /// A writer over the current chunk's unused tail.
    buf: BytesMut,
    /// Full chunks, oldest first.
    retired: VecDeque<BytesMut>,
}

impl Default for FrameBuilder {
    fn default() -> Self {
        FrameBuilder::new()
    }
}

impl FrameBuilder {
    /// Bytes per chunk: ten full-size frames. A larger frame (a side
    /// channel datagram can carry 16 KiB) gets a chunk of its own size.
    const CHUNK: usize = 16 * 1024;
    /// Full chunks kept for reuse. A bulk sender's frames in flight on a
    /// LAN fit in them, so its chunks cycle without an allocation.
    const RETIRED: usize = 4;

    /// Creates an arena with its first chunk.
    pub fn new() -> FrameBuilder {
        FrameBuilder { buf: BytesMut::with_capacity(Self::CHUNK), retired: VecDeque::new() }
    }

    /// Marks a burst boundary. The arena needs none: a chunk is reused
    /// as soon as its last frame drops. Kept for callers that mark one.
    pub fn recycle(&mut self) {}

    /// Ensures `need` contiguous bytes at the current chunk's tail: in
    /// place when the chunk has them or every frame of it has dropped;
    /// otherwise the chunk is retired and the oldest retired chunk whose
    /// frames have all dropped, or a fresh chunk, takes over.
    fn make_room(&mut self, need: usize) {
        debug_assert!(self.buf.is_empty(), "frame left unfinished in builder");
        if self.buf.try_reclaim(need) {
            return;
        }
        self.retired.push_back(std::mem::take(&mut self.buf));
        let oldest = self.retired.front_mut().expect("a chunk was just retired");
        if oldest.try_reclaim(need) {
            self.buf = self.retired.pop_front().expect("the oldest chunk");
        } else {
            if self.retired.len() > Self::RETIRED {
                self.retired.pop_front();
            }
            self.buf = BytesMut::with_capacity(need.max(Self::CHUNK));
        }
    }

    /// Composes one Ethernet+IPv4+TCP frame in a single pass.
    ///
    /// `payload` is the pair of contiguous halves from the send buffer's
    /// ring (either may be empty) — the only payload memcpy on the path.
    /// Output is bit-identical to the layered
    /// `TcpSegment::encode` → `Ipv4Packet::encode` →
    /// `EthernetFrame::encode` chain.
    pub fn tcp_frame(&mut self, h: &TcpFrameHeader<'_>, payload: (&[u8], &[u8])) -> Bytes {
        let opt_len = options_wire_len(h.options);
        debug_assert!(opt_len <= 40, "TCP options overflow");
        let tcp_header_len = tcp::HEADER_LEN + opt_len;
        let tcp_len = tcp_header_len + payload.0.len() + payload.1.len();
        let ip_total = ipv4::HEADER_LEN + tcp_len;
        debug_assert!(ip_total <= u16::MAX as usize, "IPv4 packet too large");
        let frame_len = ethernet::HEADER_LEN + ip_total;

        // The fixed headers as one block of plain stores, then one copy.
        let mut hdr = [0u8; L4_OFF + tcp::HEADER_LEN];
        hdr[0..6].copy_from_slice(&h.eth_dst.octets());
        hdr[6..12].copy_from_slice(&h.eth_src.octets());
        hdr[12..14].copy_from_slice(&EtherType::Ipv4.to_u16().to_be_bytes());
        let (ip, l4) = hdr[IP_OFF..].split_at_mut(ipv4::HEADER_LEN);
        write_ip_header(ip, h.ip_src, h.ip_dst, IpProtocol::Tcp, h.ident, h.ttl, ip_total);
        l4[0..2].copy_from_slice(&h.src_port.to_be_bytes());
        l4[2..4].copy_from_slice(&h.dst_port.to_be_bytes());
        l4[4..8].copy_from_slice(&h.seq.to_be_bytes());
        l4[8..12].copy_from_slice(&h.ack.to_be_bytes());
        l4[12] = ((tcp_header_len / 4) as u8) << 4;
        l4[13] = h.flags.bits();
        l4[14..16].copy_from_slice(&h.window.to_be_bytes());
        // 16..18: checksum, patched below; 18..20: urgent pointer, zero.

        let buf = self.begin(frame_len);
        buf.put_slice(&hdr);
        write_options(buf, h.options);
        buf.put_slice(payload.0);
        buf.put_slice(payload.1);

        let mut c = Checksum::new();
        c.add_sum(pseudo_header_sum(h.ip_src, h.ip_dst, 6, tcp_len as u16));
        c.add_bytes(&buf[L4_OFF..]);
        let csum = c.finish();
        buf[L4_OFF + 16..L4_OFF + 18].copy_from_slice(&csum.to_be_bytes());

        self.finish(frame_len)
    }

    /// Composes one Ethernet+IPv4+UDP frame in a single pass.
    ///
    /// Bit-identical to `UdpDatagram::encode` → `Ipv4Packet::encode` →
    /// `EthernetFrame::encode`.
    #[allow(clippy::too_many_arguments)]
    pub fn udp_frame(
        &mut self,
        eth_dst: MacAddr,
        eth_src: MacAddr,
        ip_src: Ipv4Addr,
        ip_dst: Ipv4Addr,
        ident: u16,
        ttl: u8,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Bytes {
        let udp_len = udp::HEADER_LEN + payload.len();
        debug_assert!(udp_len <= u16::MAX as usize, "UDP datagram too large");
        let ip_total = ipv4::HEADER_LEN + udp_len;
        let frame_len = ethernet::HEADER_LEN + ip_total;

        let mut hdr = [0u8; L4_OFF + udp::HEADER_LEN];
        hdr[0..6].copy_from_slice(&eth_dst.octets());
        hdr[6..12].copy_from_slice(&eth_src.octets());
        hdr[12..14].copy_from_slice(&EtherType::Ipv4.to_u16().to_be_bytes());
        let (ip, l4) = hdr[IP_OFF..].split_at_mut(ipv4::HEADER_LEN);
        write_ip_header(ip, ip_src, ip_dst, IpProtocol::Udp, ident, ttl, ip_total);
        l4[0..2].copy_from_slice(&src_port.to_be_bytes());
        l4[2..4].copy_from_slice(&dst_port.to_be_bytes());
        l4[4..6].copy_from_slice(&(udp_len as u16).to_be_bytes());
        // 6..8: checksum, patched below.

        let buf = self.begin(frame_len);
        buf.put_slice(&hdr);
        buf.put_slice(payload);

        let mut c = Checksum::new();
        c.add_sum(pseudo_header_sum(ip_src, ip_dst, 17, udp_len as u16));
        c.add_bytes(&buf[L4_OFF..]);
        let mut csum = c.finish();
        if csum == 0 {
            csum = 0xFFFF; // RFC 768: transmitted zero means "no checksum"
        }
        buf[L4_OFF + 6..L4_OFF + 8].copy_from_slice(&csum.to_be_bytes());

        self.finish(frame_len)
    }

    /// Readies the current chunk for one frame of `frame_len` bytes.
    fn begin(&mut self, frame_len: usize) -> &mut BytesMut {
        self.make_room(frame_len);
        &mut self.buf
    }

    /// Splits the finished frame off as an immutable view.
    fn finish(&mut self, frame_len: usize) -> Bytes {
        debug_assert_eq!(self.buf.len(), frame_len);
        self.buf.split().freeze()
    }
}

/// Writes a 20-byte IPv4 header into `ip`, a zeroed slice of a header
/// block, with its checksum computed over it.
///
/// Field order and constants mirror `Ipv4Packet::encode` exactly.
fn write_ip_header(
    ip: &mut [u8],
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: IpProtocol,
    ident: u16,
    ttl: u8,
    ip_total: usize,
) {
    ip[0] = 0x45; // version 4, IHL 5; DSCP/ECN 0
    ip[2..4].copy_from_slice(&(ip_total as u16).to_be_bytes());
    ip[4..6].copy_from_slice(&ident.to_be_bytes());
    ip[6] = 0x40; // flags: DF, fragment offset 0
    ip[8] = ttl;
    ip[9] = protocol.to_u8();
    ip[12..16].copy_from_slice(&src.octets());
    ip[16..20].copy_from_slice(&dst.octets());
    let csum = checksum(ip);
    ip[10..12].copy_from_slice(&csum.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EthernetFrame, Ipv4Packet, TcpSegment, UdpDatagram};

    const SRC_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
    const SRC_MAC: MacAddr = MacAddr::local(1);
    const DST_MAC: MacAddr = MacAddr::local(2);

    /// The layered reference chain the builder must match byte-for-byte.
    fn layered_tcp(seg: &TcpSegment, ident: u16, ttl: u8) -> Bytes {
        let mut ip = Ipv4Packet::new(SRC_IP, DST_IP, IpProtocol::Tcp, seg.encode(SRC_IP, DST_IP));
        ip.ident = ident;
        ip.ttl = ttl;
        EthernetFrame::new(DST_MAC, SRC_MAC, EtherType::Ipv4, ip.encode()).encode()
    }

    fn header_for<'a>(seg: &'a TcpSegment, ident: u16, ttl: u8) -> TcpFrameHeader<'a> {
        TcpFrameHeader {
            eth_dst: DST_MAC,
            eth_src: SRC_MAC,
            ip_src: SRC_IP,
            ip_dst: DST_IP,
            ident,
            ttl,
            src_port: seg.src_port,
            dst_port: seg.dst_port,
            seq: seg.seq,
            ack: seg.ack,
            flags: seg.flags,
            window: seg.window,
            options: &seg.options,
        }
    }

    #[test]
    fn builder_matches_layered_chain() {
        let mut b = FrameBuilder::new();
        // A representative spread: bare ACK, SYN with every option kind,
        // data with odd/even lengths, FIN piggyback, RST.
        let mut cases = Vec::new();
        let mut syn = TcpSegment::bare(40000, 80, 12345, 0, TcpFlags::SYN, 16384);
        syn.options = vec![
            TcpOption::Mss(1460),
            TcpOption::SackPermitted,
            TcpOption::WindowScale(7),
            TcpOption::Timestamps { tsval: 0xDEAD_BEEF, tsecr: 0x0102_0304 },
        ];
        cases.push(syn);
        cases.push(TcpSegment::bare(80, 40000, 7, 8, TcpFlags::ACK, 512));
        for len in [1usize, 2, 3, 536, 1459, 1460] {
            let mut s = TcpSegment::bare(80, 40000, 100, 200, TcpFlags::ACK | TcpFlags::PSH, 4096);
            s.payload = Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
            cases.push(s);
        }
        let mut fin = TcpSegment::bare(80, 40000, 300, 400, TcpFlags::FIN | TcpFlags::ACK, 1024);
        fin.payload = Bytes::from_static(b"tail");
        cases.push(fin);
        cases.push(TcpSegment::bare(80, 40000, 0, 0, TcpFlags::RST | TcpFlags::ACK, 0));
        // A SACK-bearing duplicate ACK (RFC 2018), 1..=4 blocks.
        for n in 1..=4usize {
            let ranges: Vec<(u32, u32)> =
                (0..n).map(|k| (5000 + 200 * k as u32, 5100 + 200 * k as u32)).collect();
            let mut dup = TcpSegment::bare(40000, 80, 900, 5000, TcpFlags::ACK, 2048);
            dup.options = vec![TcpOption::sack(&ranges)];
            cases.push(dup);
        }

        for (i, seg) in cases.iter().enumerate() {
            let ident = 0x1000 + i as u16;
            let expected = layered_tcp(seg, ident, 64);
            // Split the payload at every possible point: the two-slice
            // write must be invisible on the wire.
            for cut in [0, seg.payload.len() / 2, seg.payload.len()] {
                let got = b.tcp_frame(
                    &header_for(seg, ident, 64),
                    (&seg.payload[..cut], &seg.payload[cut..]),
                );
                assert_eq!(got, expected, "case {i} cut {cut} diverged from the layered chain");
            }
        }
    }

    #[test]
    fn udp_matches_layered_chain() {
        let mut b = FrameBuilder::new();
        for len in [0usize, 1, 9, 1200] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let d = UdpDatagram::new(5000, 6000, Bytes::from(payload.clone()));
            let mut ip = Ipv4Packet::new(SRC_IP, DST_IP, IpProtocol::Udp, d.encode(SRC_IP, DST_IP));
            ip.ident = 42;
            let expected =
                EthernetFrame::new(DST_MAC, SRC_MAC, EtherType::Ipv4, ip.encode()).encode();
            let got = b.udp_frame(DST_MAC, SRC_MAC, SRC_IP, DST_IP, 42, 64, 5000, 6000, &payload);
            assert_eq!(got, expected, "udp len {len} diverged from the layered chain");
        }
    }

    /// A 1 000-byte data segment and the length of its frame.
    fn data_segment(fill: u8) -> (TcpSegment, usize) {
        let mut s = TcpSegment::bare(80, 40000, 1, 2, TcpFlags::ACK | TcpFlags::PSH, 4096);
        s.payload = Bytes::from(vec![fill; 1000]);
        (s, ethernet::HEADER_LEN + ipv4::HEADER_LEN + tcp::HEADER_LEN + 1000)
    }

    fn compose(b: &mut FrameBuilder, seg: &TcpSegment) -> Bytes {
        b.tcp_frame(&header_for(seg, 1, 64), (&seg.payload, &[]))
    }

    fn addr(frame: &Bytes) -> usize {
        frame.as_ptr() as usize
    }

    #[test]
    fn burst_reuses_one_allocation() {
        // Frames pack back-to-back into one chunk; once every frame of
        // the full chunk has dropped, the next chunk is that same
        // allocation, reclaimed from its start.
        let (seg, frame_len) = data_segment(0x42);
        let per_chunk = FrameBuilder::CHUNK / frame_len;
        let mut b = FrameBuilder::new();
        let burst: Vec<Bytes> = (0..per_chunk).map(|_| compose(&mut b, &seg)).collect();
        let base = addr(&burst[0]);
        for (k, f) in burst.iter().enumerate() {
            assert_eq!(addr(f), base + k * frame_len, "frame {k} is not packed in the chunk");
        }
        drop(burst);
        assert_eq!(addr(&compose(&mut b, &seg)), base);
    }

    #[test]
    fn a_retired_chunk_is_reused_only_after_its_last_frame_drops() {
        let (seg, frame_len) = data_segment(0x17);
        let per_chunk = FrameBuilder::CHUNK / frame_len;
        let mut b = FrameBuilder::new();
        // Chunk A, every frame held.
        let a: Vec<Bytes> = (0..per_chunk).map(|_| compose(&mut b, &seg)).collect();
        let a_base = addr(&a[0]);
        let in_a = |f: &Bytes| (a_base..a_base + FrameBuilder::CHUNK).contains(&addr(f));
        // Chunk B, pinned by its first frame alone.
        let b0 = compose(&mut b, &seg);
        assert!(!in_a(&b0), "a full chunk with frames in flight is not written over");
        (1..per_chunk).for_each(|_| drop(compose(&mut b, &seg)));
        // B is full and pinned; A, the oldest retired, still is too.
        let c0 = compose(&mut b, &seg);
        assert!(!in_a(&c0), "a retired chunk is not reused while one of its frames lives");
        drop(a);
        (1..per_chunk).for_each(|_| drop(compose(&mut b, &seg)));
        // C is full and pinned; A's last frame has dropped: A comes back.
        assert_eq!(addr(&compose(&mut b, &seg)), a_base, "the freed oldest chunk is reused");
        drop((b0, c0));
    }

    #[test]
    fn a_held_frame_stays_unchanged_past_the_retired_fifo() {
        // One frame held in each of twice the FIFO's length of chunks:
        // the older chunks leave the arena, their frames keep them.
        let mut b = FrameBuilder::new();
        let mut held: Vec<(Bytes, Bytes)> = Vec::new();
        for k in 0..2 * (FrameBuilder::RETIRED + 1) {
            let (seg, frame_len) = data_segment(k as u8);
            let first = compose(&mut b, &seg);
            held.push((first.clone(), layered_tcp(&seg, 1, 64)));
            (1..FrameBuilder::CHUNK / frame_len).for_each(|_| drop(compose(&mut b, &seg)));
        }
        let mut chunks: Vec<usize> = held.iter().map(|(f, _)| addr(f)).collect();
        chunks.dedup();
        assert_eq!(chunks.len(), held.len(), "each held frame pins a chunk of its own");
        for (k, (frame, expected)) in held.iter().enumerate() {
            assert_eq!(frame, expected, "held frame {k} changed under later frames");
        }
    }

    #[test]
    fn a_frame_outlives_the_thread_that_composed_it() {
        let (seg, _) = data_segment(0x5A);
        let composed = seg.clone();
        let frame = std::thread::spawn(move || compose(&mut FrameBuilder::new(), &composed))
            .join()
            .expect("composing thread");
        assert_eq!(frame, layered_tcp(&seg, 1, 64), "the frame outlived its arena intact");
    }

    #[test]
    fn parses_back_cleanly() {
        let mut b = FrameBuilder::new();
        let mut seg = TcpSegment::bare(80, 40000, 55, 66, TcpFlags::ACK | TcpFlags::PSH, 2048);
        seg.payload = Bytes::from(vec![9u8; 100]);
        let frame = b.tcp_frame(&header_for(&seg, 7, 64), (&seg.payload[..40], &seg.payload[40..]));
        let eth = EthernetFrame::parse(frame).unwrap();
        let ip = Ipv4Packet::parse(eth.payload).unwrap();
        assert_eq!(ip.ident, 7);
        let parsed = TcpSegment::parse(ip.payload, ip.src, ip.dst).unwrap();
        assert_eq!(parsed, seg);
    }
}
