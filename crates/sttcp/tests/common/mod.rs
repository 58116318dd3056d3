//! What the side-channel tests share: every wire kind, named by one
//! exhaustive `match`. Each test binary uses part of it.

#![allow(dead_code)]

use proptest::prelude::*;
use std::net::Ipv4Addr;
use sttcp::{ConnKey, SideMsg};

/// How many kinds [`kind`] knows.
pub const KINDS: usize = 7;

/// `msg`'s kind as an index below [`KINDS`]. No wildcard arm: a new
/// kind does not compile until it is listed here, and each test that
/// samples kinds checks it draws every index.
pub fn kind(msg: &SideMsg) -> usize {
    match msg {
        SideMsg::Heartbeat { .. } => 0,
        SideMsg::BackupAck { .. } => 1,
        SideMsg::MissingReq { .. } => 2,
        SideMsg::MissingData { .. } => 3,
        SideMsg::MissingNack { .. } => 4,
        SideMsg::AckBatch { .. } => 5,
        SideMsg::Handover { .. } => 6,
    }
}

/// Asserts `msgs` holds every kind.
pub fn assert_every_kind<'a>(msgs: impl IntoIterator<Item = &'a SideMsg>) {
    let mut seen = [false; KINDS];
    for msg in msgs {
        seen[kind(msg)] = true;
    }
    let missing: Vec<usize> = (0..KINDS).filter(|&k| !seen[k]).collect();
    assert!(missing.is_empty(), "kinds never drawn: {missing:?}");
}

/// Any connection key.
pub fn arb_key() -> impl Strategy<Value = ConnKey> {
    (any::<[u8; 4]>(), any::<u16>(), any::<[u8; 4]>(), any::<u16>()).prop_map(
        |(cip, cport, sip, sport)| ConnKey {
            client_ip: Ipv4Addr::from(cip),
            client_port: cport,
            server_ip: Ipv4Addr::from(sip),
            server_port: sport,
        },
    )
}

/// Any heartbeat: any seq and epoch, and up to 60 frontier entries,
/// some carrying a congestion snapshot.
pub fn arb_heartbeat() -> impl Strategy<Value = SideMsg> {
    let entry = (arb_key(), any::<u32>(), any::<bool>(), any::<u32>(), any::<u32>()).prop_map(
        |(key, ack, moved, cwnd, ssthresh)| (key, ack, moved.then_some((cwnd, ssthresh))),
    );
    (any::<u64>(), any::<u32>(), proptest::collection::vec(entry, 0..60))
        .prop_map(|(seq, epoch, entries)| SideMsg::Heartbeat { seq, epoch, entries })
}
