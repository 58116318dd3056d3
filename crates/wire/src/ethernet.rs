//! Ethernet II frames and MAC addresses.
//!
//! Includes the unicast-IP → multicast-MAC mapping ST-TCP uses to make a
//! switch flood service traffic to the backup's tap (paper §3.1): the
//! service IP `SVI` maps to the fixed multicast Ethernet address `SME`
//! that both the primary's and backup's virtual NICs are programmed with.

use crate::error::{need, ParseError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// The all-zero address, used as "unknown" in ARP requests.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// A deterministic locally-administered unicast address for test
    /// topologies: `02:00:00:00:00:<n>` style, spreading `n` over the low
    /// four octets.
    pub const fn local(n: u32) -> Self {
        let b = n.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }

    /// Returns true for group (multicast or broadcast) addresses — the
    /// I/G bit of the first octet is set.
    pub const fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Returns true for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// The IANA-style IPv4-multicast MAC mapping `01:00:5e` + low 23 bits
    /// of the address.
    ///
    /// ST-TCP maps the *unicast* service IP onto this multicast MAC (the
    /// `SME` of the paper) so that a learning switch never associates the
    /// service traffic with a single port and instead floods it to the
    /// backup as well. The paper notes RFC 1812 forbids routers from
    /// accepting a multicast MAC in an ARP reply, hence the *static* ARP
    /// entries installed in the gateway and primary.
    pub const fn multicast_for_ip(ip: Ipv4Addr) -> Self {
        let o = ip.octets();
        MacAddr([0x01, 0x00, 0x5E, o[1] & 0x7F, o[2], o[3]])
    }

    /// The raw octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(f, "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}", o[0], o[1], o[2], o[3], o[4], o[5])
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

/// The EtherType of an Ethernet II frame payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4, `0x0800`.
    Ipv4,
    /// ARP, `0x0806`.
    Arp,
    /// Any other value, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The 16-bit on-wire value.
    pub const fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }

    /// Decodes the on-wire value.
    pub const fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EtherType::Ipv4 => write!(f, "IPv4"),
            EtherType::Arp => write!(f, "ARP"),
            EtherType::Other(v) => write!(f, "0x{v:04x}"),
        }
    }
}

/// Length of the Ethernet II header (dst + src + ethertype).
pub const HEADER_LEN: usize = 14;

/// An Ethernet II frame.
///
/// The frame check sequence is not modelled; the simulator delivers frames
/// intact or corrupts payloads, in which case the higher-layer checksums
/// catch it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
    /// Payload bytes (not padded to the 46-byte Ethernet minimum; the
    /// simulator accounts for minimum frame size when timing serialization).
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Builds a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Bytes) -> Self {
        EthernetFrame { dst, src, ethertype, payload }
    }

    /// Serializes to on-wire bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(HEADER_LEN + self.payload.len());
        buf.put_slice(&self.dst.0);
        buf.put_slice(&self.src.0);
        buf.put_u16(self.ethertype.to_u16());
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parses on-wire bytes. The payload is `raw` itself, narrowed past
    /// the header: no copy and no refcount traffic.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if shorter than the 14-byte header.
    pub fn parse(mut raw: Bytes) -> Result<Self, ParseError> {
        need(&raw, HEADER_LEN)?;
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&raw[0..6]);
        src.copy_from_slice(&raw[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([raw[12], raw[13]]));
        raw.advance(HEADER_LEN);
        Ok(EthernetFrame { dst: MacAddr(dst), src: MacAddr(src), ethertype, payload: raw })
    }

    /// Total on-wire length in bytes, including header.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

impl fmt::Display for EthernetFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eth {} -> {} {} ({}B)", self.src, self.dst, self.ethertype, self.payload.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = EthernetFrame::new(
            MacAddr::local(7),
            MacAddr::local(9),
            EtherType::Ipv4,
            Bytes::from_static(&[1, 2, 3]),
        );
        let parsed = EthernetFrame::parse(f.encode()).unwrap();
        assert_eq!(parsed, f);
        assert_eq!(parsed.wire_len(), 17);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            EthernetFrame::parse(Bytes::from_static(&[0; 13])),
            Err(ParseError::Truncated { needed: 14, got: 13 })
        ));
    }

    #[test]
    fn multicast_bit() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::local(1).is_multicast());
        let sme = MacAddr::multicast_for_ip(Ipv4Addr::new(10, 0, 0, 100));
        assert!(sme.is_multicast());
        assert!(!sme.is_broadcast());
    }

    #[test]
    fn multicast_mapping_masks_high_bit() {
        // 232 = 0xE8; high bit must be cleared: 0x68.
        let m = MacAddr::multicast_for_ip(Ipv4Addr::new(10, 232, 1, 2));
        assert_eq!(m.octets(), [0x01, 0x00, 0x5E, 0x68, 1, 2]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MacAddr::local(0xAB).to_string(), "02:00:00:00:00:ab");
        assert_eq!(EtherType::Other(0xBEEF).to_string(), "0xbeef");
    }

    #[test]
    fn ethertype_roundtrip() {
        for v in [0x0800u16, 0x0806, 0x86DD, 0x1234] {
            assert_eq!(EtherType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn local_addrs_distinct() {
        let a: Vec<MacAddr> = (0..100).map(MacAddr::local).collect();
        let mut b = a.clone();
        b.dedup();
        assert_eq!(a.len(), b.len());
    }
}
