//! IPv4 packets (RFC 791), without fragmentation.
//!
//! Fragmentation is deliberately unsupported: the simulated LAN has a
//! uniform 1500-byte MTU and the TCP stack performs MSS-based
//! segmentation, which matches the paper's testbed (a single Ethernet
//! LAN). The Don't Fragment bit is always set on encode.

use crate::checksum::{checksum, expected_field};
use crate::error::{need, ParseError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;

/// Transport protocol carried in an IPv4 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// TCP, protocol number 6.
    Tcp,
    /// UDP, protocol number 17.
    Udp,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// The 8-bit protocol number.
    pub const fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }

    /// Decodes a protocol number.
    pub const fn from_u8(v: u8) -> Self {
        match v {
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Tcp => write!(f, "tcp"),
            IpProtocol::Udp => write!(f, "udp"),
            IpProtocol::Other(v) => write!(f, "proto-{v}"),
        }
    }
}

/// Length of an IPv4 header without options.
pub const HEADER_LEN: usize = 20;

/// Default initial TTL used on encode.
pub const DEFAULT_TTL: u8 = 64;

/// An IPv4 packet (no options, no fragments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Identification field (used only for diagnostics here, since DF is set).
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport payload.
    pub payload: Bytes,
}

impl Ipv4Packet {
    /// Builds a packet with [`DEFAULT_TTL`] and a zero ident.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: Bytes) -> Self {
        Ipv4Packet { ident: 0, ttl: DEFAULT_TTL, protocol, src, dst, payload }
    }

    /// Serializes to on-wire bytes with a correct header checksum.
    pub fn encode(&self) -> Bytes {
        let total_len = HEADER_LEN + self.payload.len();
        debug_assert!(total_len <= u16::MAX as usize, "IPv4 packet too large");
        let mut buf = BytesMut::with_capacity(total_len);
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(0); // DSCP/ECN
        buf.put_u16(total_len as u16);
        buf.put_u16(self.ident);
        buf.put_u16(0x4000); // flags: DF, fragment offset 0
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol.to_u8());
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        let csum = checksum(&buf[..HEADER_LEN]);
        buf[10..12].copy_from_slice(&csum.to_be_bytes());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses and validates on-wire bytes. The payload is `raw` itself,
    /// narrowed to `ihl..total_len` (bytes past the total length, such
    /// as Ethernet minimum-frame padding, are cut off).
    ///
    /// # Errors
    ///
    /// * [`ParseError::Truncated`] — shorter than the header.
    /// * [`ParseError::BadVersion`] — version field ≠ 4.
    /// * [`ParseError::BadHeaderLength`] — IHL < 5 or longer than buffer.
    /// * [`ParseError::BadTotalLength`] — total length disagrees with buffer.
    /// * [`ParseError::BadChecksum`] — header checksum mismatch.
    pub fn parse(mut raw: Bytes) -> Result<Self, ParseError> {
        need(&raw, HEADER_LEN)?;
        let version = raw[0] >> 4;
        if version != 4 {
            return Err(ParseError::BadVersion(version));
        }
        let ihl = usize::from(raw[0] & 0x0F) * 4;
        if ihl < HEADER_LEN || ihl > raw.len() {
            return Err(ParseError::BadHeaderLength(ihl));
        }
        let total_len = usize::from(u16::from_be_bytes([raw[2], raw[3]]));
        if total_len < ihl || total_len > raw.len() {
            return Err(ParseError::BadTotalLength { claimed: total_len, got: raw.len() });
        }
        let folded = checksum(&raw[..ihl]);
        if folded != 0 {
            let found = u16::from_be_bytes([raw[10], raw[11]]);
            return Err(ParseError::BadChecksum { found, expected: expected_field(found, folded) });
        }
        let mut packet = Ipv4Packet {
            ident: u16::from_be_bytes([raw[4], raw[5]]),
            ttl: raw[8],
            protocol: IpProtocol::from_u8(raw[9]),
            src: Ipv4Addr::new(raw[12], raw[13], raw[14], raw[15]),
            dst: Ipv4Addr::new(raw[16], raw[17], raw[18], raw[19]),
            payload: Bytes::new(),
        };
        raw.truncate(total_len);
        raw.advance(ihl);
        packet.payload = raw;
        Ok(packet)
    }
}

impl fmt::Display for Ipv4Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ip {} -> {} {} ({}B)", self.src, self.dst, self.protocol, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 100),
            IpProtocol::Tcp,
            Bytes::from_static(b"hello world"),
        )
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        assert_eq!(Ipv4Packet::parse(p.encode()).unwrap(), p);
    }

    #[test]
    fn corrupted_header_rejected() {
        let mut raw = sample().encode().to_vec();
        raw[16] ^= 0xFF; // flip destination octet
        assert!(matches!(Ipv4Packet::parse(Bytes::from(raw)), Err(ParseError::BadChecksum { .. })));
    }

    #[test]
    fn bad_checksum_expects_what_a_fresh_encode_writes() {
        let p = sample();
        let good = p.encode();
        let mut carried = false;
        for ttl in (0..=u8::MAX).filter(|&t| t != p.ttl) {
            let mut raw = good.to_vec();
            raw[8] = ttl;
            let fresh = Ipv4Packet { ttl, ..p.clone() }.encode();
            let folded = checksum(&raw[..HEADER_LEN]);
            let Err(ParseError::BadChecksum { found, expected }) =
                Ipv4Packet::parse(Bytes::from(raw))
            else {
                panic!("ttl {ttl} must fail the header checksum");
            };
            assert_eq!(expected, u16::from_be_bytes([fresh[10], fresh[11]]), "ttl {ttl}");
            carried |= u32::from(found) + u32::from(folded) > 0xFFFF;
        }
        assert!(carried, "some corruption must take the end-around carry");
    }

    #[test]
    fn version_checked() {
        let mut raw = sample().encode().to_vec();
        raw[0] = 0x65; // version 6
        assert_eq!(Ipv4Packet::parse(Bytes::from(raw)), Err(ParseError::BadVersion(6)));
    }

    #[test]
    fn total_length_checked() {
        let mut raw = sample().encode().to_vec();
        let bogus = (raw.len() + 1) as u16;
        raw[2..4].copy_from_slice(&bogus.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::parse(Bytes::from(raw)),
            Err(ParseError::BadTotalLength { .. })
        ));
    }

    #[test]
    fn trailing_padding_ignored() {
        // Ethernet minimum-frame padding appends junk past total_length;
        // the parser must slice payload by total_length, not buffer end.
        let p = sample();
        let mut raw = p.encode().to_vec();
        raw.extend_from_slice(&[0xEE; 9]);
        let parsed = Ipv4Packet::parse(Bytes::from(raw)).unwrap();
        assert_eq!(parsed.payload, p.payload);
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(IpProtocol::Tcp.to_u8(), 6);
        assert_eq!(IpProtocol::Udp.to_u8(), 17);
        assert_eq!(IpProtocol::from_u8(89), IpProtocol::Other(89));
        assert_eq!(IpProtocol::from_u8(6), IpProtocol::Tcp);
    }

    #[test]
    fn empty_payload_ok() {
        let p = Ipv4Packet::new(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            IpProtocol::Udp,
            Bytes::new(),
        );
        let parsed = Ipv4Packet::parse(p.encode()).unwrap();
        assert!(parsed.payload.is_empty());
    }
}
