//! Property tests for the side-channel wire protocol: every message
//! round-trips, and arbitrary bytes never panic the decoder (the UDP
//! channel is untrusted input like any other network surface).

mod common;

use bytes::Bytes;
use common::arb_key;
use proptest::prelude::*;
use sttcp::SideMsg;

/// Any message of any kind.
fn arb_msg() -> impl Strategy<Value = SideMsg> {
    prop_oneof![
        (any::<u64>(), any::<u32>()).prop_map(|(seq, epoch)| SideMsg::Heartbeat { seq, epoch }),
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
        (arb_key(), any::<u32>()).prop_map(|(conn, from)| SideMsg::MissingNack { conn, from }),
        proptest::collection::vec((arb_key(), any::<u32>()), 0..70)
            .prop_map(|entries| SideMsg::AckBatch { entries }),
        (any::<u32>(), any::<u8>())
            .prop_map(|(epoch, successor_rank)| SideMsg::Drain { epoch, successor_rank }),
        (any::<u8>(), any::<u32>()).prop_map(|(rank, epoch)| SideMsg::DrainReady { rank, epoch }),
        any::<u32>().prop_map(|epoch| SideMsg::Handover { epoch }),
        (arb_key(), any::<u32>(), any::<u32>())
            .prop_map(|(conn, cwnd, ssthresh)| SideMsg::CongSync { conn, cwnd, ssthresh }),
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
