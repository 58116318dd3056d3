//! The UDP side-channel wire protocol between primary and backup
//! (paper §4.2–§4.3).
//!
//! Seven message kinds flow on the channel. The paper's pair needs the
//! first three groups; planned migration adds the last:
//!
//! * [`SideMsg::Heartbeat`] — the primary's periodic liveness beacon,
//!   stamped with its reign's epoch, and carrying what the backup needs
//!   of the primary's half of each connection, which the mirror does not
//!   copy (`netsim::Switch::add_mirror`): the primary's cumulative ACK
//!   for every connection where what it held a heartbeat earlier leads
//!   the backup's last ack, and,
//!   where congestion mirroring is on, the primary's congestion state so
//!   a promoted shadow does not restart from the initial window. The
//!   backup learns its tap omissions (§4.2) and the connections it has
//!   no shadow for from these entries. The chain's members are never
//!   sent: every member derives them from the epoch
//!   ([`crate::cluster::Topology`]), and no ISS is sent: every server
//!   derives a connection's from its SYN;
//! * [`SideMsg::BackupAck`] / [`SideMsg::AckBatch`] — the backup's
//!   cumulative acknowledgment of tapped client bytes ("a sequence
//!   number that is one less than its NextByteExpected value"; we carry
//!   `NextByteExpected` itself and call it `acked_next`), for one
//!   connection or for up to 63 in one datagram. These are the backup's
//!   heartbeat (§4.4): a tick that owes no ack sends an empty batch;
//! * [`SideMsg::MissingReq`]/[`SideMsg::MissingData`]/[`SideMsg::MissingNack`]
//!   — recovery of client bytes the backup's tap missed, served from the
//!   primary's retention buffer;
//! * [`SideMsg::Handover`] — planned migration of the VIP to a
//!   successor. It is the whole protocol: the primary reads the
//!   successor's readiness from its acks (`crate::cluster`, "Planned
//!   migration").
//!
//! The paper estimates a 128-byte ack per 3 KB of client data ≈ 4.17 %
//! extra LAN traffic; the ablation bench re-measures this with the real
//! encoded sizes below.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;
use tcpstack::Quad;

/// Identifies one shadowed connection on the side channel.
///
/// Server-side view: `server_ip` is the service VIP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnKey {
    /// Client address.
    pub client_ip: Ipv4Addr,
    /// Client port.
    pub client_port: u16,
    /// Service (virtual) IP.
    pub server_ip: Ipv4Addr,
    /// Service port.
    pub server_port: u16,
}

impl ConnKey {
    /// Builds the key from a server-side [`Quad`] (local = service).
    pub fn from_server_quad(q: Quad) -> Self {
        ConnKey {
            client_ip: q.remote_ip,
            client_port: q.remote_port,
            server_ip: q.local_ip,
            server_port: q.local_port,
        }
    }

    /// The server-side [`Quad`] for stack lookups.
    pub fn server_quad(&self) -> Quad {
        Quad::new(self.server_ip, self.server_port, self.client_ip, self.client_port)
    }

    /// The canonical trace identifier for this connection.
    pub fn trace_conn(&self) -> obs::TraceConn {
        obs::TraceConn::new((self.client_ip, self.client_port), (self.server_ip, self.server_port))
    }
}

impl fmt::Display for ConnKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}->{}:{}",
            self.client_ip, self.client_port, self.server_ip, self.server_port
        )
    }
}

/// One frontier entry of a [`SideMsg::Heartbeat`]: the connection, the
/// primary's cumulative ACK on it (its `NextByteExpected`, FIN
/// included), and its congestion window and slow-start threshold when
/// they changed since the last entry that carried them.
pub type FrontierEntry = (ConnKey, u32, Option<(u32, u32)>);

/// A side-channel message.
///
/// ```
/// use sttcp::SideMsg;
///
/// let hb = SideMsg::Heartbeat { seq: 42, epoch: 1, entries: vec![] };
/// assert_eq!(SideMsg::decode(hb.encode()), Some(hb));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SideMsg {
    /// Primary → each backup: periodic liveness beacon, and the
    /// primary's half of the connections that backup trails on or whose
    /// congestion state moved (Lin et al.'s piggybacking). Entries past
    /// one datagram go in further heartbeats of the same `seq`.
    Heartbeat {
        /// Monotonic sender sequence, one per tick (diagnostics;
        /// detection only uses arrival times).
        seq: u64,
        /// The sender's reign. A higher epoch supersedes a lower one, and
        /// its members are the chain from index `epoch` on.
        epoch: u32,
        /// The frontier entries owed to the addressed backup.
        entries: Vec<FrontierEntry>,
    },
    /// Backup → primary: "I have every client byte below `acked_next`."
    BackupAck {
        /// Connection the ack applies to.
        conn: ConnKey,
        /// The backup's `NextByteExpected`.
        acked_next: u32,
    },
    /// Backup → primary: "resend client bytes `[from, from+len)`."
    MissingReq {
        /// Connection.
        conn: ConnKey,
        /// First missing sequence number.
        from: u32,
        /// Bytes requested.
        len: u32,
    },
    /// Primary → backup: retained client bytes.
    MissingData {
        /// Connection.
        conn: ConnKey,
        /// Sequence number of `data[0]`.
        seq: u32,
        /// The bytes.
        data: Bytes,
    },
    /// Primary → backup: the requested range is not (fully) available.
    MissingNack {
        /// Connection.
        conn: ConnKey,
        /// The `from` of the request being refused.
        from: u32,
    },
    /// Backup → primary: the [`SideMsg::BackupAck`]s of several
    /// connections in one datagram. A backup sends what one ack pass
    /// owes in batches of up to 63 entries, so the side channel costs a
    /// datagram per 63 active connections, not one per connection. An
    /// empty batch is the heartbeat of a backup that owes no ack.
    AckBatch {
        /// `(connection, NextByteExpected)` pairs.
        entries: Vec<(ConnKey, u32)>,
    },
    /// Primary → successor: the primary has fenced itself (VIP egress
    /// suppressed); the successor owns the VIP as of this message.
    Handover {
        /// The epoch the successor's reign begins with.
        epoch: u32,
    },
}

impl SideMsg {
    /// Decomposes the message into the fields a trace event carries:
    /// kind, connection (absent for heartbeats), the kind's sequence
    /// number (heartbeat seq, `acked_next`, `from`, or data `seq`), and
    /// a payload/request length where one exists (a heartbeat's epoch,
    /// a batch's entry count).
    pub fn trace_parts(&self) -> (obs::trace::SideMsgKind, Option<obs::TraceConn>, u64, u32) {
        use obs::trace::SideMsgKind as K;
        match self {
            SideMsg::Heartbeat { seq, epoch, .. } => (K::Heartbeat, None, *seq, *epoch),
            SideMsg::BackupAck { conn, acked_next } => {
                (K::BackupAck, Some(conn.trace_conn()), u64::from(*acked_next), 0)
            }
            SideMsg::MissingReq { conn, from, len } => {
                (K::MissingReq, Some(conn.trace_conn()), u64::from(*from), *len)
            }
            SideMsg::MissingData { conn, seq, data } => {
                (K::MissingData, Some(conn.trace_conn()), u64::from(*seq), data.len() as u32)
            }
            SideMsg::MissingNack { conn, from } => {
                (K::MissingNack, Some(conn.trace_conn()), u64::from(*from), 0)
            }
            SideMsg::AckBatch { entries } => (K::AckBatch, None, 0, entries.len() as u32),
            SideMsg::Handover { epoch } => (K::Handover, None, u64::from(*epoch), 0),
        }
    }
}

const TAG_HEARTBEAT: u8 = 1;
const TAG_BACKUP_ACK: u8 = 2;
const TAG_MISSING_REQ: u8 = 3;
const TAG_MISSING_DATA: u8 = 4;
const TAG_MISSING_NACK: u8 = 5;
const TAG_ACK_BATCH: u8 = 7;
const TAG_HANDOVER: u8 = 10;

fn put_key(buf: &mut BytesMut, key: &ConnKey) {
    buf.put_slice(&key.client_ip.octets());
    buf.put_u16(key.client_port);
    buf.put_slice(&key.server_ip.octets());
    buf.put_u16(key.server_port);
}

fn get_key(buf: &mut Bytes) -> Option<ConnKey> {
    if buf.len() < 12 {
        return None;
    }
    let client_ip = Ipv4Addr::new(buf.get_u8(), buf.get_u8(), buf.get_u8(), buf.get_u8());
    let client_port = buf.get_u16();
    let server_ip = Ipv4Addr::new(buf.get_u8(), buf.get_u8(), buf.get_u8(), buf.get_u8());
    let server_port = buf.get_u16();
    Some(ConnKey { client_ip, client_port, server_ip, server_port })
}

impl SideMsg {
    /// Serializes for the UDP channel.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        match self {
            SideMsg::Heartbeat { seq, epoch, entries } => {
                buf.put_u8(TAG_HEARTBEAT);
                buf.put_u64(*seq);
                buf.put_u32(*epoch);
                // An idle tick's heartbeat ends here: no entry count.
                if entries.is_empty() {
                    return buf.freeze();
                }
                debug_assert!(entries.len() <= u16::MAX as usize);
                buf.put_u16(entries.len() as u16);
                for (conn, ack, cong) in entries {
                    put_key(&mut buf, conn);
                    buf.put_u32(*ack);
                    match cong {
                        Some((cwnd, ssthresh)) => {
                            buf.put_u8(1);
                            buf.put_u32(*cwnd);
                            buf.put_u32(*ssthresh);
                        }
                        None => buf.put_u8(0),
                    }
                }
            }
            SideMsg::BackupAck { conn, acked_next } => {
                buf.put_u8(TAG_BACKUP_ACK);
                put_key(&mut buf, conn);
                buf.put_u32(*acked_next);
            }
            SideMsg::MissingReq { conn, from, len } => {
                buf.put_u8(TAG_MISSING_REQ);
                put_key(&mut buf, conn);
                buf.put_u32(*from);
                buf.put_u32(*len);
            }
            SideMsg::MissingData { conn, seq, data } => {
                buf.put_u8(TAG_MISSING_DATA);
                put_key(&mut buf, conn);
                buf.put_u32(*seq);
                buf.put_slice(data);
            }
            SideMsg::MissingNack { conn, from } => {
                buf.put_u8(TAG_MISSING_NACK);
                put_key(&mut buf, conn);
                buf.put_u32(*from);
            }
            SideMsg::AckBatch { entries } => {
                buf.put_u8(TAG_ACK_BATCH);
                debug_assert!(entries.len() <= u16::MAX as usize);
                buf.put_u16(entries.len() as u16);
                for (conn, acked_next) in entries {
                    put_key(&mut buf, conn);
                    buf.put_u32(*acked_next);
                }
            }
            SideMsg::Handover { epoch } => {
                buf.put_u8(TAG_HANDOVER);
                buf.put_u32(*epoch);
            }
        }
        buf.freeze()
    }

    /// Parses a datagram payload; `None` on malformed input (the channel
    /// simply drops garbage — it is an optimization path, never a
    /// correctness dependency during failure-free operation).
    pub fn decode(mut raw: Bytes) -> Option<SideMsg> {
        if raw.is_empty() {
            return None;
        }
        let tag = raw.get_u8();
        match tag {
            TAG_HEARTBEAT => {
                if raw.len() < 12 {
                    return None;
                }
                let (seq, epoch) = (raw.get_u64(), raw.get_u32());
                let count = match raw.len() {
                    0 => 0,
                    1 => return None,
                    _ => raw.get_u16() as usize,
                };
                if raw.len() < count * 17 {
                    return None;
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let conn = get_key(&mut raw)?;
                    if raw.len() < 5 {
                        return None;
                    }
                    let ack = raw.get_u32();
                    let cong = match raw.get_u8() {
                        0 => None,
                        1 if raw.len() >= 8 => Some((raw.get_u32(), raw.get_u32())),
                        _ => return None,
                    };
                    entries.push((conn, ack, cong));
                }
                Some(SideMsg::Heartbeat { seq, epoch, entries })
            }
            TAG_BACKUP_ACK => {
                let conn = get_key(&mut raw)?;
                if raw.len() < 4 {
                    return None;
                }
                Some(SideMsg::BackupAck { conn, acked_next: raw.get_u32() })
            }
            TAG_MISSING_REQ => {
                let conn = get_key(&mut raw)?;
                if raw.len() < 8 {
                    return None;
                }
                Some(SideMsg::MissingReq { conn, from: raw.get_u32(), len: raw.get_u32() })
            }
            TAG_MISSING_DATA => {
                let conn = get_key(&mut raw)?;
                if raw.len() < 4 {
                    return None;
                }
                let seq = raw.get_u32();
                Some(SideMsg::MissingData { conn, seq, data: raw })
            }
            TAG_MISSING_NACK => {
                let conn = get_key(&mut raw)?;
                if raw.len() < 4 {
                    return None;
                }
                Some(SideMsg::MissingNack { conn, from: raw.get_u32() })
            }
            TAG_ACK_BATCH => {
                if raw.len() < 2 {
                    return None;
                }
                let count = raw.get_u16() as usize;
                if raw.len() < count * 16 {
                    return None;
                }
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    let conn = get_key(&mut raw)?;
                    if raw.len() < 4 {
                        return None;
                    }
                    entries.push((conn, raw.get_u32()));
                }
                Some(SideMsg::AckBatch { entries })
            }
            TAG_HANDOVER => {
                if raw.len() < 4 {
                    return None;
                }
                Some(SideMsg::Handover { epoch: raw.get_u32() })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ConnKey {
        ConnKey {
            client_ip: Ipv4Addr::new(10, 0, 0, 1),
            client_port: 43210,
            server_ip: Ipv4Addr::new(10, 0, 0, 100),
            server_port: 80,
        }
    }

    #[test]
    fn roundtrip_all_variants() {
        let msgs = vec![
            SideMsg::Heartbeat { seq: 42, epoch: 3, entries: vec![] },
            SideMsg::Heartbeat {
                seq: 43,
                epoch: 3,
                entries: vec![(key(), 0xDEAD_BEEF, Some((29_200, 14_600))), (key(), 77, None)],
            },
            SideMsg::BackupAck { conn: key(), acked_next: 0xDEADBEEF },
            SideMsg::MissingReq { conn: key(), from: 100, len: 4096 },
            SideMsg::MissingData { conn: key(), seq: 100, data: Bytes::from_static(b"payload") },
            SideMsg::MissingNack { conn: key(), from: 100 },
            SideMsg::AckBatch { entries: vec![(key(), 0xDEAD_BEEF), (key(), 77)] },
            SideMsg::Handover { epoch: 9 },
        ];
        for msg in msgs {
            assert_eq!(SideMsg::decode(msg.encode()), Some(msg));
        }
    }

    #[test]
    fn a_heartbeat_is_thirteen_bytes_at_every_epoch() {
        for epoch in [0, 1, u32::MAX] {
            let msg = SideMsg::Heartbeat { seq: u64::MAX, epoch, entries: vec![] };
            assert_eq!(msg.encode().len(), 13, "tag, seq, epoch");
            assert_eq!(SideMsg::decode(msg.encode()), Some(msg));
        }
        // Entries add their count, then per entry the key, the ACK and
        // a flag, and a congestion snapshot's cwnd and ssthresh.
        let entries = vec![(key(), 1, None), (key(), 2, Some((3, 4)))];
        let msg = SideMsg::Heartbeat { seq: 1, epoch: 0, entries };
        assert_eq!(msg.encode().len(), 13 + 2 + 17 + 25);
    }

    #[test]
    fn empty_ack_batch_roundtrips() {
        let msg = SideMsg::AckBatch { entries: vec![] };
        assert_eq!(SideMsg::decode(msg.encode()), Some(msg));
    }

    #[test]
    fn truncated_cluster_messages_rejected() {
        // A heartbeat with its seq but not its epoch, one with half an
        // entry count, and one whose entry count overruns the datagram.
        let full = SideMsg::Heartbeat { seq: 1, epoch: 2, entries: vec![] }.encode();
        assert_eq!(SideMsg::decode(full.slice(..9)), None);
        let mut half = full.to_vec();
        half.push(0);
        assert_eq!(SideMsg::decode(Bytes::from(half)), None);
        let mut overrun = full.to_vec();
        overrun.extend_from_slice(&2u16.to_be_bytes());
        assert_eq!(SideMsg::decode(Bytes::from(overrun)), None);
        // The retired member-list, drain and drain-ready tags are garbage.
        for tag in [6, 8, 9] {
            assert_eq!(SideMsg::decode(Bytes::from(vec![tag; 20])), None);
        }
        // AckBatch claiming an entry with no bytes behind it.
        assert_eq!(SideMsg::decode(Bytes::from_static(&[TAG_ACK_BATCH, 0, 1])), None);
        // A frontier entry whose flag promises a congestion snapshot it
        // lacks, and one whose flag is neither 0 nor 1.
        let entry =
            SideMsg::Heartbeat { seq: 1, epoch: 2, entries: vec![(key(), 5, Some((6, 7)))] };
        let entry = entry.encode();
        assert_eq!(SideMsg::decode(entry.slice(..entry.len() - 1)), None);
        let mut bad_flag = entry.to_vec();
        bad_flag[15 + 12 + 4] = 2;
        assert_eq!(SideMsg::decode(Bytes::from(bad_flag)), None);
        // Truncated handover.
        assert_eq!(SideMsg::decode(Bytes::from_static(&[TAG_HANDOVER, 9])), None);
    }

    #[test]
    fn ack_batch_is_sublinear_in_connections() {
        // One batch of k entries must undercut k standalone acks: the
        // whole point of piggybacking is amortizing the tag byte and
        // datagram overheads.
        let k = 16;
        let batch = SideMsg::AckBatch { entries: (0..k).map(|i| (key(), i)).collect() };
        let standalone: usize =
            (0..k).map(|i| SideMsg::BackupAck { conn: key(), acked_next: i }.encode().len()).sum();
        assert!(batch.encode().len() < standalone);
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(SideMsg::decode(Bytes::new()), None);
        assert_eq!(SideMsg::decode(Bytes::from_static(&[99, 1, 2, 3])), None);
        assert_eq!(SideMsg::decode(Bytes::from_static(&[TAG_BACKUP_ACK, 1])), None);
        // Truncated heartbeat.
        assert_eq!(SideMsg::decode(Bytes::from_static(&[TAG_HEARTBEAT, 0, 0])), None);
    }

    #[test]
    fn conn_key_quad_roundtrip() {
        let q = key().server_quad();
        assert_eq!(ConnKey::from_server_quad(q), key());
        assert_eq!(q.local_ip, Ipv4Addr::new(10, 0, 0, 100));
        assert_eq!(q.remote_port, 43210);
    }

    #[test]
    fn ack_message_is_small() {
        // The paper budgets 128 bytes for a full ack packet including
        // all headers; our payload is a fraction of that.
        let ack = SideMsg::BackupAck { conn: key(), acked_next: 1 };
        assert!(ack.encode().len() <= 32, "ack payload stays tiny: {}", ack.encode().len());
    }

    #[test]
    fn empty_missing_data_roundtrips() {
        let msg = SideMsg::MissingData { conn: key(), seq: 5, data: Bytes::new() };
        assert_eq!(SideMsg::decode(msg.encode()), Some(msg));
    }
}
