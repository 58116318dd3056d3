//! UDP datagrams (RFC 768).
//!
//! ST-TCP uses a UDP channel between the primary and the backup for backup
//! acknowledgments, missing-segment requests, and heartbeats (paper §4.2);
//! this module provides the wire encoding for that channel.

use crate::checksum::{expected_field, pseudo_header_sum, Checksum};
use crate::error::{need, ParseError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;

/// Length of the UDP header.
pub const HEADER_LEN: usize = 8;

/// A UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Builds a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpDatagram { src_port, dst_port, payload }
    }

    /// Serializes with a correct checksum over the IPv4 pseudo-header.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        let len = HEADER_LEN + self.payload.len();
        debug_assert!(len <= u16::MAX as usize, "UDP datagram too large");
        let mut buf = BytesMut::with_capacity(len);
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(len as u16);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.payload);
        let mut c = Checksum::new();
        c.add_sum(pseudo_header_sum(src, dst, 17, len as u16));
        c.add_bytes(&buf);
        let mut csum = c.finish();
        if csum == 0 {
            csum = 0xFFFF; // RFC 768: transmitted zero means "no checksum"
        }
        buf[6..8].copy_from_slice(&csum.to_be_bytes());
        buf.freeze()
    }

    /// Parses and validates a datagram carried between `src` and `dst`.
    ///
    /// # Errors
    ///
    /// * [`ParseError::Truncated`] — shorter than 8 bytes or than the
    ///   length field claims.
    /// * [`ParseError::BadChecksum`] — pseudo-header checksum mismatch.
    pub fn parse(mut raw: Bytes, src: Ipv4Addr, dst: Ipv4Addr) -> Result<Self, ParseError> {
        need(&raw, HEADER_LEN)?;
        let len = usize::from(u16::from_be_bytes([raw[4], raw[5]]));
        if len < HEADER_LEN || len > raw.len() {
            return Err(ParseError::Truncated { needed: len.max(HEADER_LEN), got: raw.len() });
        }
        let found = u16::from_be_bytes([raw[6], raw[7]]);
        if found != 0 {
            let mut c = Checksum::new();
            c.add_sum(pseudo_header_sum(src, dst, 17, len as u16));
            c.add_bytes(&raw[..len]);
            let folded = c.finish();
            if folded != 0 {
                // RFC 768: a sender writes a zero sum as 0xFFFF.
                let expected = match expected_field(found, folded) {
                    0 => 0xFFFF,
                    e => e,
                };
                return Err(ParseError::BadChecksum { found, expected });
            }
        }
        let (src_port, dst_port) =
            (u16::from_be_bytes([raw[0], raw[1]]), u16::from_be_bytes([raw[2], raw[3]]));
        raw.truncate(len);
        raw.advance(HEADER_LEN);
        Ok(UdpDatagram { src_port, dst_port, payload: raw })
    }
}

impl fmt::Display for UdpDatagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "udp :{} -> :{} ({}B)", self.src_port, self.dst_port, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    #[test]
    fn roundtrip() {
        let d = UdpDatagram::new(5000, 6000, Bytes::from_static(b"heartbeat"));
        let parsed = UdpDatagram::parse(d.encode(A, B), A, B).unwrap();
        assert_eq!(parsed, d);
    }

    #[test]
    fn checksum_covers_addresses() {
        // Same bytes delivered to the wrong destination must fail, which
        // is what protects the side channel against misdelivery.
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"x"));
        let raw = d.encode(A, B);
        assert!(matches!(
            UdpDatagram::parse(raw, A, Ipv4Addr::new(10, 0, 0, 3)),
            Err(ParseError::BadChecksum { .. })
        ));
    }

    #[test]
    fn corrupted_payload_rejected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abcd"));
        let mut raw = d.encode(A, B).to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        assert!(UdpDatagram::parse(Bytes::from(raw), A, B).is_err());
    }

    #[test]
    fn bad_checksum_expects_what_a_fresh_encode_writes() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abcd"));
        let good = d.encode(A, B);
        let at = HEADER_LEN + 1;
        let mut carried = false;
        for byte in (0..=u8::MAX).filter(|&b| b != good[at]) {
            let mut raw = good.to_vec();
            raw[at] = byte;
            let fresh =
                UdpDatagram::new(1, 2, Bytes::copy_from_slice(&raw[HEADER_LEN..])).encode(A, B);
            let mut c = Checksum::new();
            c.add_sum(pseudo_header_sum(A, B, 17, raw.len() as u16)).add_bytes(&raw);
            let folded = c.finish();
            let Err(ParseError::BadChecksum { found, expected }) =
                UdpDatagram::parse(Bytes::from(raw), A, B)
            else {
                panic!("byte {byte:#04x} must fail the checksum");
            };
            assert_eq!(expected, u16::from_be_bytes([fresh[6], fresh[7]]), "byte {byte:#04x}");
            carried |= u32::from(found) + u32::from(folded) > 0xFFFF;
        }
        assert!(carried, "some corruption must take the end-around carry");
    }

    #[test]
    fn length_field_truncation_rejected() {
        let d = UdpDatagram::new(1, 2, Bytes::from_static(b"abcd"));
        let raw = d.encode(A, B);
        assert!(UdpDatagram::parse(raw.slice(..raw.len() - 2), A, B).is_err());
    }

    #[test]
    fn empty_payload() {
        let d = UdpDatagram::new(9, 10, Bytes::new());
        let parsed = UdpDatagram::parse(d.encode(A, B), A, B).unwrap();
        assert!(parsed.payload.is_empty());
    }

    #[test]
    fn trailing_padding_ignored() {
        let d = UdpDatagram::new(7, 8, Bytes::from_static(b"pad"));
        let mut raw = d.encode(A, B).to_vec();
        raw.extend_from_slice(&[0u8; 6]);
        let parsed = UdpDatagram::parse(Bytes::from(raw), A, B).unwrap();
        assert_eq!(parsed.payload, Bytes::from_static(b"pad"));
    }
}
