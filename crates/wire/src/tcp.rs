//! TCP segments (RFC 793) with the options the ST-TCP prototype touches.
//!
//! Sequence and acknowledgment numbers are raw `u32`s here; wrapping
//! arithmetic and window semantics live in the `tcpstack` crate. The
//! timestamp option is implemented but *disabled by default* in the
//! experiment configurations, mirroring §6 of the paper ("the TCP
//! timestamp option was disabled on the primary and the backup") — with
//! timestamps on, the primary's and backup's segments would differ and
//! the tap-equivalence invariant checks would need to mask them.

use crate::checksum::{expected_field, pseudo_header_sum, Checksum};
use crate::error::{need, ParseError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;

/// TCP header flags.
///
/// A tiny owned flag set (not the `bitflags` crate, to keep the workspace
/// dependency-light); combine with `|`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender is finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer is significant (never set by this stack).
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// True if every flag in `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if no flags are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw flag byte (low 6 bits).
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Reconstructs from a raw byte, keeping only defined bits.
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits & 0x3F)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, ".");
        }
        for (bit, ch) in [
            (TcpFlags::SYN, 'S'),
            (TcpFlags::FIN, 'F'),
            (TcpFlags::RST, 'R'),
            (TcpFlags::PSH, 'P'),
            (TcpFlags::ACK, 'A'),
            (TcpFlags::URG, 'U'),
        ] {
            if self.contains(bit) {
                write!(f, "{ch}")?;
            }
        }
        Ok(())
    }
}

/// A TCP header option.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpOption {
    /// Maximum segment size (kind 2), valid only on SYN segments.
    Mss(u16),
    /// Window scale shift (kind 3), valid only on SYN segments.
    WindowScale(u8),
    /// Timestamps (kind 8): value and echo reply.
    Timestamps {
        /// Sender's timestamp clock value.
        tsval: u32,
        /// Echo of the most recent timestamp received from the peer.
        tsecr: u32,
    },
    /// SACK-permitted (kind 4), valid only on SYN segments.
    SackPermitted,
    /// Selective acknowledgment blocks (kind 5, RFC 2018). Fixed-size
    /// storage (the option is `Copy`); only the first `count` blocks are
    /// meaningful, each a half-open `[start, end)` sequence range.
    Sack {
        /// Up to four `[start, end)` ranges; slots past `count` are zero.
        blocks: [(u32, u32); 4],
        /// Number of valid blocks (1..=4).
        count: u8,
    },
}

impl TcpOption {
    /// Builds a SACK option from up to four blocks (extras are dropped,
    /// matching the 40-byte option-area budget of RFC 2018).
    pub fn sack(ranges: &[(u32, u32)]) -> TcpOption {
        let mut blocks = [(0u32, 0u32); 4];
        let count = ranges.len().min(4);
        blocks[..count].copy_from_slice(&ranges[..count]);
        TcpOption::Sack { blocks, count: count as u8 }
    }

    /// The valid blocks of a SACK option (empty for other kinds).
    pub fn sack_blocks(&self) -> &[(u32, u32)] {
        match self {
            TcpOption::Sack { blocks, count } => &blocks[..usize::from(*count).min(4)],
            _ => &[],
        }
    }
}

/// Length of a TCP header without options.
pub const HEADER_LEN: usize = 20;

/// On-wire length of an option list, NOP-padded to a 32-bit boundary.
///
/// Shared by [`TcpSegment::encode`] and the single-pass
/// [`crate::frame::FrameBuilder`] so the two paths stay bit-identical.
pub fn options_wire_len(options: &[TcpOption]) -> usize {
    let raw: usize = options
        .iter()
        .map(|o| match o {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::SackPermitted => 2,
            TcpOption::Sack { count, .. } => 2 + 8 * usize::from(*count).min(4),
        })
        .sum();
    (raw + 3) & !3 // pad with NOPs to a 32-bit boundary
}

/// Writes `options` with trailing NOP padding to a 32-bit boundary.
///
/// Shared by [`TcpSegment::encode`] and the single-pass
/// [`crate::frame::FrameBuilder`] so the two paths stay bit-identical.
pub fn write_options(buf: &mut BytesMut, options: &[TcpOption]) {
    let opt_len = options_wire_len(options);
    let mut written = 0usize;
    for opt in options {
        match *opt {
            TcpOption::Mss(mss) => {
                buf.put_u8(2);
                buf.put_u8(4);
                buf.put_u16(mss);
                written += 4;
            }
            TcpOption::WindowScale(shift) => {
                buf.put_u8(3);
                buf.put_u8(3);
                buf.put_u8(shift);
                written += 3;
            }
            TcpOption::Timestamps { tsval, tsecr } => {
                buf.put_u8(8);
                buf.put_u8(10);
                buf.put_u32(tsval);
                buf.put_u32(tsecr);
                written += 10;
            }
            TcpOption::SackPermitted => {
                buf.put_u8(4);
                buf.put_u8(2);
                written += 2;
            }
            TcpOption::Sack { blocks, count } => {
                let n = usize::from(count).min(4);
                buf.put_u8(5);
                buf.put_u8((2 + 8 * n) as u8);
                for &(start, end) in &blocks[..n] {
                    buf.put_u32(start);
                    buf.put_u32(end);
                }
                written += 2 + 8 * n;
            }
        }
    }
    for _ in written..opt_len {
        buf.put_u8(1); // NOP padding
    }
}

/// A TCP segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgment number (significant iff `flags` contains ACK).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window (unscaled 16-bit value).
    pub window: u16,
    /// Header options.
    pub options: Vec<TcpOption>,
    /// Payload bytes.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Builds a segment with no options and an empty payload.
    pub fn bare(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        window: u16,
    ) -> Self {
        TcpSegment {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            options: Vec::new(),
            payload: Bytes::new(),
        }
    }

    /// The length this segment occupies in sequence space: payload bytes
    /// plus one for SYN and one for FIN.
    pub fn seq_len(&self) -> u32 {
        let mut len = self.payload.len() as u32;
        if self.flags.contains(TcpFlags::SYN) {
            len += 1;
        }
        if self.flags.contains(TcpFlags::FIN) {
            len += 1;
        }
        len
    }

    fn options_len(&self) -> usize {
        options_wire_len(&self.options)
    }

    /// Serializes with a correct checksum over the IPv4 pseudo-header.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if options exceed the 40-byte option area.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let opt_len = self.options_len();
        debug_assert!(opt_len <= 40, "TCP options overflow");
        let header_len = HEADER_LEN + opt_len;
        let total = header_len + self.payload.len();
        let mut buf = BytesMut::with_capacity(total);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.put_u8(((header_len / 4) as u8) << 4);
        buf.put_u8(self.flags.bits());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(0); // urgent pointer
        write_options(&mut buf, &self.options);
        buf.put_slice(&self.payload);
        let mut c = Checksum::new();
        c.add_sum(pseudo_header_sum(src, dst, 6, total as u16));
        c.add_bytes(&buf);
        let csum = c.finish();
        buf[16..18].copy_from_slice(&csum.to_be_bytes());
        buf.freeze()
    }

    /// Parses and validates a segment carried between `src` and `dst`.
    ///
    /// Unknown options are skipped using their length byte, as required
    /// for forward compatibility.
    ///
    /// # Errors
    ///
    /// * [`ParseError::Truncated`] — shorter than the header.
    /// * [`ParseError::BadDataOffset`] — data offset < 5 or past the end.
    /// * [`ParseError::BadTcpOption`] — option length byte of 0/1 or
    ///   overrunning the option area.
    /// * [`ParseError::BadChecksum`] — pseudo-header checksum mismatch.
    pub fn parse(mut raw: Bytes, src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, ParseError> {
        need(&raw, HEADER_LEN)?;
        let data_offset = raw[12] >> 4;
        let header_len = usize::from(data_offset) * 4;
        if header_len < HEADER_LEN || header_len > raw.len() {
            return Err(ParseError::BadDataOffset(data_offset));
        }
        let mut c = Checksum::new();
        c.add_sum(pseudo_header_sum(src, dst, 6, raw.len() as u16));
        c.add_bytes(&raw);
        let folded = c.finish();
        if folded != 0 {
            let found = u16::from_be_bytes([raw[16], raw[17]]);
            return Err(ParseError::BadChecksum { found, expected: expected_field(found, folded) });
        }
        let mut options = Vec::new();
        let mut i = HEADER_LEN;
        while i < header_len {
            match raw[i] {
                0 => break,  // end of options
                1 => i += 1, // NOP
                kind => {
                    if i + 1 >= header_len {
                        return Err(ParseError::BadTcpOption(kind));
                    }
                    let len = usize::from(raw[i + 1]);
                    if len < 2 || i + len > header_len {
                        return Err(ParseError::BadTcpOption(kind));
                    }
                    match (kind, len) {
                        (2, 4) => options
                            .push(TcpOption::Mss(u16::from_be_bytes([raw[i + 2], raw[i + 3]]))),
                        (3, 3) => options.push(TcpOption::WindowScale(raw[i + 2])),
                        (4, 2) => options.push(TcpOption::SackPermitted),
                        (5, l) if l >= 10 && (l - 2) % 8 == 0 && l <= 34 => {
                            let n = (l - 2) / 8;
                            let mut blocks = [(0u32, 0u32); 4];
                            for (b, slot) in blocks.iter_mut().enumerate().take(n) {
                                let o = i + 2 + 8 * b;
                                *slot = (
                                    u32::from_be_bytes([
                                        raw[o],
                                        raw[o + 1],
                                        raw[o + 2],
                                        raw[o + 3],
                                    ]),
                                    u32::from_be_bytes([
                                        raw[o + 4],
                                        raw[o + 5],
                                        raw[o + 6],
                                        raw[o + 7],
                                    ]),
                                );
                            }
                            options.push(TcpOption::Sack { blocks, count: n as u8 });
                        }
                        (8, 10) => options.push(TcpOption::Timestamps {
                            tsval: u32::from_be_bytes([
                                raw[i + 2],
                                raw[i + 3],
                                raw[i + 4],
                                raw[i + 5],
                            ]),
                            tsecr: u32::from_be_bytes([
                                raw[i + 6],
                                raw[i + 7],
                                raw[i + 8],
                                raw[i + 9],
                            ]),
                        }),
                        _ => {} // unknown option: skip
                    }
                    i += len;
                }
            }
        }
        let mut seg = TcpSegment {
            src_port: u16::from_be_bytes([raw[0], raw[1]]),
            dst_port: u16::from_be_bytes([raw[2], raw[3]]),
            seq: u32::from_be_bytes([raw[4], raw[5], raw[6], raw[7]]),
            ack: u32::from_be_bytes([raw[8], raw[9], raw[10], raw[11]]),
            flags: TcpFlags::from_bits(raw[13]),
            window: u16::from_be_bytes([raw[14], raw[15]]),
            options,
            payload: Bytes::new(),
        };
        raw.advance(header_len);
        seg.payload = raw;
        Ok(seg)
    }

    /// The MSS option value, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }
}

impl fmt::Display for TcpSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tcp :{} -> :{} [{}] seq={} ack={} win={} len={}",
            self.src_port,
            self.dst_port,
            self.flags,
            self.seq,
            self.ack,
            self.window,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const B: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 100);

    fn syn() -> TcpSegment {
        let mut s = TcpSegment::bare(40000, 80, 12345, 0, TcpFlags::SYN, 16384);
        s.options = vec![TcpOption::Mss(1460), TcpOption::SackPermitted];
        s
    }

    #[test]
    fn roundtrip_syn_with_options() {
        let s = syn();
        let parsed = TcpSegment::parse(s.encode(A, B), A, B).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.mss(), Some(1460));
    }

    #[test]
    fn roundtrip_data_segment() {
        let mut s = TcpSegment::bare(80, 40000, 777, 888, TcpFlags::ACK | TcpFlags::PSH, 4096);
        s.payload = Bytes::from(vec![0xAB; 1460]);
        let parsed = TcpSegment::parse(s.encode(A, B), A, B).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn roundtrip_timestamps() {
        let mut s = TcpSegment::bare(1, 2, 3, 4, TcpFlags::ACK, 100);
        s.options = vec![TcpOption::Timestamps { tsval: 0xDEADBEEF, tsecr: 0x01020304 }];
        let parsed = TcpSegment::parse(s.encode(A, B), A, B).unwrap();
        assert_eq!(parsed.options, s.options);
    }

    #[test]
    fn roundtrip_sack_blocks() {
        for n in 1..=4usize {
            let ranges: Vec<(u32, u32)> =
                (0..n).map(|b| (1000 + 100 * b as u32, 1050 + 100 * b as u32)).collect();
            let mut s = TcpSegment::bare(80, 40000, 7, 9, TcpFlags::ACK, 4096);
            s.options = vec![TcpOption::sack(&ranges)];
            let parsed = TcpSegment::parse(s.encode(A, B), A, B).unwrap();
            assert_eq!(parsed.options, s.options, "{n} blocks must survive the wire");
            assert_eq!(parsed.options[0].sack_blocks(), &ranges[..]);
        }
    }

    #[test]
    fn sack_constructor_truncates_to_four() {
        let many: Vec<(u32, u32)> = (0..6).map(|b| (b * 10, b * 10 + 5)).collect();
        let opt = TcpOption::sack(&many);
        assert_eq!(opt.sack_blocks().len(), 4);
        assert_eq!(options_wire_len(&[opt]), 36); // 2 + 32, padded to 36
    }

    #[test]
    fn sack_rides_with_timestamps() {
        // A realistic ACK: timestamps + 2 SACK blocks fits the 40-byte area.
        let mut s = TcpSegment::bare(80, 40000, 7, 9, TcpFlags::ACK, 4096);
        s.options = vec![
            TcpOption::Timestamps { tsval: 1, tsecr: 2 },
            TcpOption::sack(&[(100, 200), (300, 400)]),
        ];
        assert!(options_wire_len(&s.options) <= 40);
        let parsed = TcpSegment::parse(s.encode(A, B), A, B).unwrap();
        assert_eq!(parsed.options, s.options);
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = TcpSegment::bare(1, 2, 0, 0, TcpFlags::SYN | TcpFlags::FIN, 0);
        s.payload = Bytes::from_static(b"abc");
        assert_eq!(s.seq_len(), 5);
        assert_eq!(TcpSegment::bare(1, 2, 0, 0, TcpFlags::ACK, 0).seq_len(), 0);
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let s = syn();
        let raw = s.encode(A, B);
        assert!(matches!(
            TcpSegment::parse(raw, A, Ipv4Addr::new(192, 168, 1, 101)),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut s = TcpSegment::bare(1, 2, 3, 4, TcpFlags::ACK, 10);
        s.payload = Bytes::from_static(b"data!");
        let mut raw = s.encode(A, B).to_vec();
        let n = raw.len();
        raw[n - 1] ^= 1;
        assert!(TcpSegment::parse(Bytes::from(raw), A, B).is_err());
    }

    #[test]
    fn bad_checksum_expects_what_a_fresh_encode_writes() {
        let mut s = TcpSegment::bare(1, 2, 3, 4, TcpFlags::ACK, 10);
        s.payload = Bytes::from_static(b"data!");
        let good = s.encode(A, B);
        let at = HEADER_LEN + 2;
        let mut carried = false;
        for byte in (0..=u8::MAX).filter(|&b| b != good[at]) {
            let mut raw = good.to_vec();
            raw[at] = byte;
            let mut corrupted = s.clone();
            corrupted.payload = Bytes::copy_from_slice(&raw[HEADER_LEN..]);
            let fresh = corrupted.encode(A, B);
            let mut c = Checksum::new();
            c.add_sum(pseudo_header_sum(A, B, 6, raw.len() as u16)).add_bytes(&raw);
            let folded = c.finish();
            let Err(ParseError::BadChecksum { found, expected }) =
                TcpSegment::parse(Bytes::from(raw), A, B)
            else {
                panic!("byte {byte:#04x} must fail the checksum");
            };
            assert_eq!(expected, u16::from_be_bytes([fresh[16], fresh[17]]), "byte {byte:#04x}");
            carried |= u32::from(found) + u32::from(folded) > 0xFFFF;
        }
        assert!(carried, "some corruption must take the end-around carry");
    }

    #[test]
    fn unknown_option_skipped() {
        // Hand-craft a header with an unknown option kind 99, len 4.
        let s = TcpSegment::bare(1, 2, 3, 4, TcpFlags::ACK, 10);
        let mut raw = s.encode(A, B).to_vec();
        // Rewrite data offset from 5 to 6 and insert 4 option bytes.
        raw[12] = 6 << 4;
        let opt = [99u8, 4, 0, 0];
        raw.splice(20..20, opt.iter().copied());
        // Fix checksum: zero it and recompute.
        raw[16] = 0;
        raw[17] = 0;
        let mut c = Checksum::new();
        c.add_sum(pseudo_header_sum(A, B, 6, raw.len() as u16));
        c.add_bytes(&raw);
        let csum = c.finish();
        raw[16..18].copy_from_slice(&csum.to_be_bytes());
        let parsed = TcpSegment::parse(Bytes::from(raw), A, B).unwrap();
        assert!(parsed.options.is_empty());
    }

    #[test]
    fn bad_option_length_rejected() {
        let s = syn();
        let mut raw = s.encode(A, B).to_vec();
        raw[21] = 0; // MSS option length byte -> 0
                     // Recompute checksum so the option error (not checksum) is hit.
        raw[16] = 0;
        raw[17] = 0;
        let mut c = Checksum::new();
        c.add_sum(pseudo_header_sum(A, B, 6, raw.len() as u16));
        c.add_bytes(&raw);
        let csum = c.finish();
        raw[16..18].copy_from_slice(&csum.to_be_bytes());
        assert!(matches!(
            TcpSegment::parse(Bytes::from(raw), A, B),
            Err(ParseError::BadTcpOption(2))
        ));
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SA");
        assert_eq!(TcpFlags::EMPTY.to_string(), ".");
    }

    #[test]
    fn flags_ops() {
        let mut f = TcpFlags::SYN;
        f |= TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert_eq!(TcpFlags::from_bits(0xFF).bits(), 0x3F);
    }
}
