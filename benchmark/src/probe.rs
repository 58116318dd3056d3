//! Counts taken off the wire by a `Simulator::set_probe` callback, in an
//! untimed rep: bytes per link class, side-channel traffic, a tape of
//! frames for the codec benchmarks, and per-connection takeover latency.

use crate::rig::Rig;
use crate::workloads::Spec;
use bytes::Bytes;
use netsim::{NodeId, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;
use sttcp::ClientNode;
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, UdpDatagram};

/// Longest tape kept for the `wire.*` replay benchmarks.
pub const TAPE_LIMIT: usize = 20_000;

/// What the probe saw.
#[derive(Debug, Default)]
pub struct WireCounts {
    /// Bytes on client access links, both directions: headers, ACKs and
    /// retransmissions included.
    pub client_link_bytes: u64,
    /// Frames transmitted by hosts (clients and servers) — the frames
    /// `wire` encodes; the switch's copies are not counted again.
    pub host_frames: u64,
    /// Their bytes.
    pub host_bytes: u64,
    /// Side-channel datagrams at their origin hop (server → switch).
    pub side_msgs: u64,
    /// Their bytes, as Ethernet frames.
    pub side_bytes: u64,
    /// The first [`TAPE_LIMIT`] host frames, in transmission order.
    pub tape: Vec<Bytes>,
    /// Per client: departure of its first frame.
    first_tx: Vec<Option<SimTime>>,
    /// Per client: departure of the first TCP frame the backup node sent
    /// it at or after the crash.
    first_from_backup: Vec<Option<SimTime>>,
}

/// Handle to the counts of a rig whose probe is installed.
pub type SharedCounts = Rc<RefCell<WireCounts>>;

struct Classifier {
    /// Node id → client index.
    client_of: Vec<Option<usize>>,
    client_by_ip: HashMap<Ipv4Addr, usize>,
    servers: Vec<NodeId>,
    backup: Option<NodeId>,
    side_port: Option<u16>,
    crash_at: Option<SimTime>,
}

fn ipv4(frame: &Bytes) -> Option<Ipv4Packet> {
    let eth = EthernetFrame::parse(frame.clone()).ok()?;
    (eth.ethertype == EtherType::Ipv4).then(|| Ipv4Packet::parse(eth.payload).ok()).flatten()
}

/// Installs the counting probe on `rig`. Call before [`Rig::run`].
pub fn install(rig: &mut Rig, spec: &Spec) -> SharedCounts {
    let n = rig.clients.len();
    let node_count = rig.clients.iter().map(|c| c.0 + 1).max().unwrap_or(0);
    let mut classifier = Classifier {
        client_of: vec![None; node_count],
        client_by_ip: HashMap::with_capacity(n),
        servers: [Some(rig.primary), rig.backup].into_iter().flatten().collect(),
        backup: rig.backup,
        side_port: spec.side_channel_port(),
        crash_at: spec.crash_at(),
    };
    for (i, &id) in rig.clients.iter().enumerate() {
        classifier.client_of[id.0] = Some(i);
        classifier.client_by_ip.insert(client_ip(rig, id), i);
    }
    let counts = Rc::new(RefCell::new(WireCounts {
        first_tx: vec![None; n],
        first_from_backup: vec![None; n],
        ..WireCounts::default()
    }));
    let shared = Rc::clone(&counts);
    rig.sim.set_probe(move |ev| {
        let c = &classifier;
        let mut w = shared.borrow_mut();
        let len = ev.frame.len() as u64;
        let client_of = |id: NodeId| c.client_of.get(id.0).copied().flatten();
        let from_client = client_of(ev.from);
        if from_client.is_some() || client_of(ev.to).is_some() {
            w.client_link_bytes += len;
        }
        let from_server = c.servers.contains(&ev.from);
        if from_client.is_none() && !from_server {
            return; // a copy made by the switch
        }
        w.host_frames += 1;
        w.host_bytes += len;
        if w.tape.len() < TAPE_LIMIT {
            w.tape.push(ev.frame.clone());
        }
        if let Some(i) = from_client {
            w.first_tx[i].get_or_insert(ev.time);
            return;
        }
        let Some(ip) = ipv4(ev.frame) else {
            return;
        };
        match ip.protocol {
            IpProtocol::Udp => {
                let to_side_port = UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst)
                    .is_ok_and(|udp| Some(udp.dst_port) == c.side_port);
                if to_side_port {
                    w.side_msgs += 1;
                    w.side_bytes += len;
                }
            }
            IpProtocol::Tcp if Some(ev.from) == c.backup => {
                let after_crash = c.crash_at.is_some_and(|at| ev.time >= at);
                if let (true, Some(&i)) = (after_crash, c.client_by_ip.get(&ip.dst)) {
                    w.first_from_backup[i].get_or_insert(ev.time);
                }
            }
            _ => {}
        }
    });
    counts
}

fn client_ip(rig: &Rig, id: NodeId) -> Ipv4Addr {
    // Probes are only installed on library-built rigs.
    rig.sim.node_ref::<ClientNode>(id).stack().config().ip
}

/// Takeover latency, in virtual milliseconds, of every connection that
/// was open at the crash: its client had started talking by then and
/// had not finished when the backup took over (so it cannot finish
/// without hearing from the backup). One sample per such connection:
/// crash instant → departure of the first TCP frame the backup node
/// sends that client.
///
/// Returns the samples and the number of open connections that never
/// got a frame from the backup (a correct run has none).
pub fn takeover_samples(
    counts: &WireCounts,
    rig: &Rig,
    crash_at: SimTime,
    takeover_at: SimTime,
) -> (Vec<f64>, usize) {
    let mut samples = Vec::new();
    let mut missing = 0;
    for i in 0..rig.clients.len() {
        let started = counts.first_tx[i].is_some_and(|t| t <= crash_at);
        let finished_before_takeover =
            rig.client_app(i).metrics.finished.is_some_and(|t| t <= takeover_at);
        if !started || finished_before_takeover {
            continue;
        }
        match counts.first_from_backup[i] {
            Some(t) => samples.push(t.duration_since(crash_at).as_nanos() as f64 / 1e6),
            None => missing += 1,
        }
    }
    (samples, missing)
}
