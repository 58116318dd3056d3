//! Property tests for the side-channel wire protocol: every message
//! round-trips, and arbitrary bytes never panic the decoder (the UDP
//! channel is untrusted input like any other network surface).

mod common;

use bytes::Bytes;
use common::{arb_heartbeat, arb_key};
use proptest::prelude::*;
use sttcp::SideMsg;

/// Any message of any kind.
fn arb_msg() -> impl Strategy<Value = SideMsg> {
    prop_oneof![
        arb_heartbeat(),
        (arb_key(), any::<u32>())
            .prop_map(|(conn, acked_next)| SideMsg::BackupAck { conn, acked_next }),
        (arb_key(), any::<u32>(), any::<u32>()).prop_map(|(conn, from, len)| SideMsg::MissingReq {
            conn,
            from,
            len
        }),
        (arb_key(), any::<u32>(), proptest::collection::vec(any::<u8>(), 0..1200)).prop_map(
            |(conn, seq, data)| SideMsg::MissingData { conn, seq, data: Bytes::from(data) }
        ),
        proptest::collection::vec((arb_key(), any::<u32>()), 0..70)
            .prop_map(|entries| SideMsg::AckBatch { entries }),
        any::<u32>().prop_map(|epoch| SideMsg::Handover { epoch }),
    ]
}

#[test]
fn arb_msg_draws_every_kind() {
    let mut rng = TestRng::for_test("arb_msg_draws_every_kind");
    let msgs: Vec<SideMsg> = (0..500).map(|_| arb_msg().generate(&mut rng)).collect();
    common::assert_every_kind(&msgs);
}

proptest! {
    #[test]
    fn roundtrip(msg in arb_msg()) {
        prop_assert_eq!(SideMsg::decode(msg.encode()), Some(msg));
    }

    #[test]
    fn a_heartbeats_entry_count_past_its_bytes_decodes_to_none(
        msg in arb_heartbeat(), extra in 1u16..=100,
    ) {
        // The count follows tag, seq and epoch (13 bytes); an idle
        // heartbeat ends before it.
        let SideMsg::Heartbeat { entries, .. } = &msg else { unreachable!() };
        let count = entries.len() as u16 + extra;
        let mut raw = msg.encode().to_vec();
        raw.resize(raw.len().max(15), 0);
        raw[13..15].copy_from_slice(&count.to_be_bytes());
        prop_assert_eq!(SideMsg::decode(Bytes::from(raw)), None);
    }

    #[test]
    fn decode_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = SideMsg::decode(Bytes::from(raw));
    }

    #[test]
    fn truncation_never_panics(msg in arb_msg(), cut_frac in 0.0f64..1.0) {
        let full = msg.encode();
        let cut = ((full.len() as f64) * cut_frac) as usize;
        let _ = SideMsg::decode(full.slice(..cut));
    }

    #[test]
    fn single_byte_corruption_never_misroutes_to_panic(
        msg in arb_msg(), pos_frac in 0.0f64..1.0, flip in 1u8..=255,
    ) {
        let mut raw = msg.encode().to_vec();
        let pos = ((raw.len() - 1) as f64 * pos_frac) as usize;
        raw[pos] ^= flip;
        // May decode to a different (valid) message or None — both fine;
        // the engines treat the channel as best-effort. It must not panic.
        let _ = SideMsg::decode(Bytes::from(raw));
    }
}
