//! Adversarial decode coverage for the side-channel protocol.
//!
//! The chaos engine duplicates, delays, and truncates side-channel UDP
//! datagrams, so `SideMsg::decode` must be total: for *any* input it
//! returns `Some`/`None`, never panics. This file complements the
//! randomized properties in `messages_proptest.rs` with exhaustive
//! checks — truncation at **every** byte offset of every variant, every
//! possible tag byte, and seeded random-byte fuzz.

mod common;

use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use sttcp::{ConnKey, SideMsg};

fn sample_key() -> ConnKey {
    ConnKey {
        client_ip: Ipv4Addr::new(10, 0, 0, 1),
        client_port: 49152,
        server_ip: Ipv4Addr::new(10, 0, 0, 100),
        server_port: 80,
    }
}

/// One canonical message per wire kind, in [`common::kind`] order.
fn sample_msgs() -> Vec<SideMsg> {
    vec![
        SideMsg::Heartbeat {
            seq: 0xDEAD_BEEF_0123_4567,
            epoch: 0x8000_0002,
            entries: vec![
                (sample_key(), 0x8000_0001, Some((29_200, 0x7FFF_FFFF))),
                (sample_key(), 3, None),
            ],
        },
        SideMsg::BackupAck { conn: sample_key(), acked_next: 0x8000_0001 },
        SideMsg::MissingReq { conn: sample_key(), from: 42, len: 2920 },
        SideMsg::MissingData {
            conn: sample_key(),
            seq: 0xFFFF_FFFF,
            data: Bytes::from(vec![0xA5; 1460]),
        },
        SideMsg::AckBatch { entries: vec![(sample_key(), 0x8000_0001), (sample_key(), 3)] },
        SideMsg::Handover { epoch: 0xFFFF_FFFF },
    ]
}

#[test]
fn the_samples_are_every_kind_once() {
    let kinds: Vec<usize> = sample_msgs().iter().map(common::kind).collect();
    assert_eq!(kinds, (0..common::KINDS).collect::<Vec<_>>());
    // And the wire has no other kind: exactly these tags decode a zero
    // body long enough for any kind's fixed fields.
    let zeros_after = |tag: u8| [&[tag][..], &[0; 64]].concat();
    let decodable: Vec<u8> = (0u8..=255)
        .filter(|&tag| SideMsg::decode(Bytes::from(zeros_after(tag))).is_some())
        .collect();
    let sampled: Vec<u8> = sample_msgs().iter().map(|m| m.encode()[0]).collect();
    assert_eq!(decodable, sampled);
}

#[test]
fn truncation_at_every_byte_offset_never_panics() {
    for msg in sample_msgs() {
        let full = msg.encode();
        for cut in 0..=full.len() {
            let decoded = SideMsg::decode(full.slice(..cut));
            if cut == full.len() {
                assert_eq!(decoded, Some(msg.clone()), "full frame must decode");
            } else {
                // A strict prefix must never decode to a *different*
                // message than intended (MissingData's length prefix
                // makes even same-variant reinterpretation invalid).
                assert_ne!(
                    decoded.as_ref(),
                    Some(&msg),
                    "truncated-to-{cut} frame decoded as the full message"
                );
            }
        }
    }
}

#[test]
fn every_tag_byte_with_arbitrary_body_never_panics() {
    // Sweep all 256 tag values over a body long enough to satisfy any
    // variant's fixed-size fields, plus an empty body.
    let body: Vec<u8> = (0u16..64).map(|i| i as u8).collect();
    for tag in 0u8..=255 {
        let mut raw = vec![tag];
        raw.extend_from_slice(&body);
        let _ = SideMsg::decode(Bytes::from(raw));
        let _ = SideMsg::decode(Bytes::from(vec![tag]));
    }
    let _ = SideMsg::decode(Bytes::new());
}

proptest! {
    #[test]
    fn random_byte_soup_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = SideMsg::decode(Bytes::from(raw));
    }

    #[test]
    fn bit_flips_at_every_offset_never_panic(msg_idx in 0..sample_msgs().len(), flip in 1u8..=255) {
        let msg = sample_msgs().swap_remove(msg_idx);
        let base = msg.encode().to_vec();
        for pos in 0..base.len() {
            let mut raw = base.clone();
            raw[pos] ^= flip;
            let _ = SideMsg::decode(Bytes::from(raw));
        }
    }
}
