//! The 16-bit one's-complement internet checksum (RFC 1071).
//!
//! Used by IPv4 headers, TCP, and UDP. TCP and UDP additionally cover a
//! pseudo-header of the IP addresses, protocol number, and payload length;
//! [`pseudo_header_sum`] produces the partial sum for that.

use std::net::Ipv4Addr;

/// Accumulates a one's-complement sum over arbitrary byte slices.
///
/// Sections may be added in any order (the internet checksum is
/// commutative over 16-bit words), but each individual slice is treated as
/// a big-endian word stream, with odd-length slices padded with a zero
/// byte, matching how the pseudo-header and payload concatenate on the
/// wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a raw 32-bit partial sum (e.g. from [`pseudo_header_sum`]).
    pub fn add_sum(&mut self, partial: u32) -> &mut Self {
        self.sum = self.sum.wrapping_add(partial);
        self
    }

    /// Adds the bytes of `data`, padding to an even length with a zero.
    ///
    /// Sums *little-endian* 64-bit words, 32 bytes a step into four
    /// independent lanes, and byte-swaps the folded 16-bit result once:
    /// 2¹⁶ ≡ 1 (mod 0xFFFF), so a wide sum folds to the word-by-word
    /// one, and swapping both bytes of every word multiplies the sum by
    /// 2⁸ (mod 0xFFFF), which is the same swap applied to the folded
    /// sum (RFC 1071 §2(B): the sum is byte-order independent). With no
    /// `bswap` and no dependency between lanes the loop vectorises at
    /// baseline SSE2. Bit-identical to the two-byte big-endian loop
    /// (`wire/tests/proptests.rs` keeps one to compare against). This
    /// is on the per-frame hot path of a shadowed bulk transfer three
    /// times: the sender's builder, the receiver's parse, and the
    /// backup's parse of the tapped copy.
    pub fn add_bytes(&mut self, data: &[u8]) -> &mut Self {
        // Both 32-bit halves of a word: a lane gains less than 2³³ a
        // block, so neither it nor the sum of the four can wrap below
        // 16 GiB of input.
        let halves = |word: &[u8]| {
            let v = u64::from_le_bytes(word.try_into().expect("word is 8 bytes"));
            (v >> 32) + (v & 0xFFFF_FFFF)
        };
        let mut lanes = [0u64; 4];
        let mut blocks = data.chunks_exact(32);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane += halves(word);
            }
        }
        let mut wide: u64 = lanes.iter().sum();
        let mut words = blocks.remainder().chunks_exact(8);
        for word in &mut words {
            wide += halves(word);
        }
        // The last 0..8 bytes, each at its place in a little-endian
        // 16-bit word; the byte an odd length lacks adds nothing.
        for (i, &byte) in words.remainder().iter().enumerate() {
            wide += u64::from(byte) << (8 * (i % 2));
        }
        // Fold to at most 16 significant bits before joining the 32-bit
        // running sum, so the addition below cannot wrap.
        while wide > 0xFFFF {
            wide = (wide >> 16) + (wide & 0xFFFF);
        }
        self.sum = self.sum.wrapping_add(u32::from((wide as u16).swap_bytes()));
        self
    }

    /// Folds carries and returns the one's-complement checksum.
    ///
    /// A result of `0` is transmitted as `0xFFFF` by UDP; callers decide.
    pub fn finish(&self) -> u16 {
        let mut sum = self.sum;
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Computes the checksum of a single contiguous buffer.
///
/// Equivalent to `Checksum::new().add_bytes(data).finish()`.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// The checksum field a fresh encode would carry, from a failed check:
/// `found` is the received field, `folded` is [`Checksum::finish`] over
/// the bytes with `found` in place. It is their ones'-complement sum
/// (end-around carry), zero written `0x0000` as `finish` writes it.
pub(crate) fn expected_field(found: u16, folded: u16) -> u16 {
    ((u32::from(found) + u32::from(folded)) % 0xFFFF) as u16
}

/// Partial sum for the TCP/UDP pseudo-header.
///
/// Covers source address, destination address, zero-padded protocol
/// number, and the TCP/UDP length (header + payload).
pub fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, len: u16) -> u32 {
    let mut sum: u32 = 0;
    for octets in [src.octets(), dst.octets()] {
        sum += u32::from(u16::from_be_bytes([octets[0], octets[1]]));
        sum += u32::from(u16::from_be_bytes([octets[2], octets[3]]));
    }
    sum += u32::from(protocol);
    sum += u32::from(len);
    sum
}

/// Verifies a buffer whose checksum field is included in `data`.
///
/// For a correct packet the folded sum over header-including-checksum is
/// `0xFFFF`, i.e. [`checksum`] over it returns zero.
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Partial sum is 0x2ddf0 -> fold -> 0xddf0 + 2 = 0xddf2, complement 0x220d.
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn zero_buffer_checksums_to_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xFFFF);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // [0xAB] is summed as the word 0xAB00.
        assert_eq!(checksum(&[0xAB]), !0xAB00);
    }

    #[test]
    fn verify_detects_single_bit_flip() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x28, 0x00, 0x01, 0x00, 0x00, 0x40, 0x06];
        data.extend_from_slice(&[0u8; 10]);
        // Patch in a correct checksum at offset 8..10? Use a fresh layout:
        // compute checksum over data with zeroed field then insert at the end.
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn expected_field_carries_end_around() {
        // Content summing to 0x1234 wants the field !0x1234 = 0xEDCB.
        // Received with 0xFFFE there, the check folds 0x1234 + 0xFFFE
        // to 0x1233 and finishes 0xEDCC; 0xFFFE + 0xEDCC carries out.
        assert_eq!(expected_field(0xFFFE, 0xEDCC), 0xEDCB);
        assert_eq!(expected_field(0x0001, 0x0002), 0x0003);
        // A sum of 0xFFFF is written 0x0000, however it was received.
        assert_eq!(expected_field(0x1234, !0x1234), 0x0000);
    }

    #[test]
    fn pseudo_header_matches_manual_sum() {
        let sum = pseudo_header_sum(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 6, 40);
        let manual = 0x0a00u32 + 0x0001 + 0x0a00 + 0x0002 + 6 + 40;
        assert_eq!(sum, manual);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0u8..=255).collect();
        let one_shot = checksum(&data);
        let mut inc = Checksum::new();
        // Split points must stay word-aligned for equality with the wire.
        inc.add_bytes(&data[..128]).add_bytes(&data[128..]);
        assert_eq!(inc.finish(), one_shot);
    }
}
