//! Where the backup learns the primary's half of a connection.
//!
//! The mirror copies only the client's half (the frames the switch
//! sends to the primary's port). The backup needs none of the primary's
//! segments for its ISS: every server derives it from the SYN. What it
//! once read off them — the cumulative ACK that shows a tap omission
//! (§4.2) — comes as frontier entries on the primary's heartbeat. Only
//! those move the backup: a corrupted datagram fails its UDP checksum,
//! and a stranger's is not the chain's.

use apps::EchoServer;
use bytes::Bytes;
use netsim::node::{Context, Node, PortId};
use netsim::{LinkSpec, SimDuration, Simulator};
use std::net::Ipv4Addr;
use sttcp::node::LAN;
use sttcp::{ConnKey, ServerNode, SideMsg, SttcpConfig};
use tcpstack::{keyed_iss, Quad, SeqNum, StackConfig, TcpConfig};
use wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpOption, TcpSegment,
    UdpDatagram,
};

const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const BACKUP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const STRANGER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 9);
const CLIENT_ISS: u32 = 5000;

/// The ISS every server answers the client's SYN with.
fn server_iss() -> u32 {
    keyed_iss(Quad::new(VIP, 80, CLIENT, 40000), SeqNum(CLIENT_ISS)).raw()
}

/// Plays a fixed list of frames onto the backup's tap, in order.
struct Tap(Vec<Bytes>);

impl Node for Tap {
    fn on_start(&mut self, ctx: &mut Context) {
        for frame in self.0.drain(..) {
            ctx.send_frame(PortId(0), frame);
        }
    }

    fn on_frame(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut Context) {}
}

/// A client segment to the VIP, as the mirror copies it.
fn client_frame(seg: &TcpSegment) -> Bytes {
    let ip = Ipv4Packet::new(CLIENT, VIP, IpProtocol::Tcp, seg.encode(CLIENT, VIP));
    EthernetFrame::new(MacAddr::local(2), MacAddr::local(1), EtherType::Ipv4, ip.encode()).encode()
}

/// A side-channel datagram from `from` to the backup.
fn side_frame(from: Ipv4Addr, msg: &SideMsg) -> Bytes {
    let port = SttcpConfig::new(VIP, 80).side_channel_port;
    let udp = UdpDatagram::new(port, port, msg.encode());
    let ip = Ipv4Packet::new(from, BACKUP, IpProtocol::Udp, udp.encode(from, BACKUP));
    EthernetFrame::new(MacAddr::local(3), MacAddr::local(2), EtherType::Ipv4, ip.encode()).encode()
}

/// A heartbeat whose one frontier entry is the primary's ACK `ack`.
fn frontier(ack: u32) -> SideMsg {
    let key = ConnKey { client_ip: CLIENT, client_port: 40000, server_ip: VIP, server_port: 80 };
    SideMsg::Heartbeat { seq: 1, epoch: 0, entries: vec![(key, ack, None)] }
}

/// The client's handshake on the tap, then a heartbeat from `sender`
/// whose frontier entry says the primary holds 400 client bytes the tap
/// never showed the backup. Returns the shadow's ISS and how many
/// missing-segment requests the backup made.
fn after_frontier(sender: Ipv4Addr, corrupt: bool) -> (u32, u64) {
    let mut syn = TcpSegment::bare(40000, 80, CLIENT_ISS, 0, TcpFlags::SYN, 17520);
    syn.options = vec![TcpOption::Mss(1460)];
    let ack = TcpSegment::bare(40000, 80, CLIENT_ISS + 1, server_iss() + 1, TcpFlags::ACK, 17520);
    let mut last = side_frame(sender, &frontier(CLIENT_ISS + 1 + 400)).to_vec();
    if corrupt {
        // One bit of the entry's ACK field, checksum left as it was.
        let at = last.len() - 2;
        last[at] ^= 0x01;
    }
    let tape = vec![client_frame(&syn), client_frame(&ack), Bytes::from(last)];

    let mut b_cfg = StackConfig::host(MacAddr::local(3), BACKUP);
    b_cfg.extra_ips = vec![VIP];
    b_cfg.suppressed_ips = vec![VIP];
    b_cfg.promiscuous = true;
    b_cfg.tcp = TcpConfig::st_tcp_backup();
    let backup = ServerNode::backup(
        b_cfg,
        SttcpConfig::new(VIP, 80),
        PRIMARY,
        Box::new(|| Box::new(EchoServer::new())),
    );

    let mut sim = Simulator::new();
    let backup = sim.add_node("backup", backup);
    let tap = sim.add_node("tap", Tap(tape));
    sim.connect(tap, PortId(0), backup, LAN, LinkSpec::lan());
    sim.run_for(SimDuration::from_millis(20));

    let node = sim.node_ref::<ServerNode>(backup);
    assert_eq!(node.accepted.len(), 1, "the tapped handshake built the shadow");
    let iss = node.stack().tcb(node.accepted[0]).expect("the shadow").iss().raw();
    (iss, node.engine().expect("a chain member").stats.missing_reqs)
}

#[test]
fn the_primarys_frontier_reveals_a_tap_omission() {
    assert_eq!(after_frontier(PRIMARY, false), (server_iss(), 1));
}

#[test]
fn a_corrupted_frontier_datagram_moves_nothing() {
    assert_eq!(after_frontier(PRIMARY, true), (server_iss(), 0));
}

#[test]
fn a_strangers_frontier_moves_nothing() {
    assert_eq!(after_frontier(STRANGER, false), (server_iss(), 0));
}
