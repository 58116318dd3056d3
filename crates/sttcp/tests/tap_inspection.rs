//! The backup's tap inspection at the node boundary: the stack parses a
//! tapped frame once and hands the packet it did not deliver to the
//! node, which validates the TCP segment before the engine sees it.
//!
//! A tapped primary ACK beyond the shadow's `NextByteExpected` makes the
//! backup request the missing bytes (§4.2) — but only when the segment
//! passes its TCP checksum: a corrupted ACK must never move
//! `highest_primary_ack`.

use apps::EchoServer;
use bytes::Bytes;
use netsim::node::{Context, Node, PortId};
use netsim::{LinkSpec, SimDuration, Simulator};
use std::net::Ipv4Addr;
use sttcp::node::LAN;
use sttcp::{ServerNode, SttcpConfig};
use tcpstack::{StackConfig, TcpConfig};
use wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpOption, TcpSegment,
};

const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);
const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PRIMARY: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const BACKUP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
const CLIENT_ISS: u32 = 5000;
const PRIMARY_ISS: u32 = 777_000;

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

fn frame(from_client: bool, seg: &TcpSegment) -> Bytes {
    let (src, dst) = if from_client { (CLIENT, VIP) } else { (VIP, CLIENT) };
    let (smac, dmac) = if from_client {
        (MacAddr::local(1), MacAddr::local(2))
    } else {
        (MacAddr::local(2), MacAddr::local(1))
    };
    let ip = Ipv4Packet::new(src, dst, IpProtocol::Tcp, seg.encode(src, dst));
    EthernetFrame::new(dmac, smac, EtherType::Ipv4, ip.encode()).encode()
}

/// The tapped handshake of one connection, then a primary ACK saying the
/// primary holds 400 client bytes the tap never showed the backup.
/// Returns how many missing-segment requests the backup made.
fn missing_requests_after_tapped_ack(corrupt: bool) -> u64 {
    let mut syn = TcpSegment::bare(40000, 80, CLIENT_ISS, 0, TcpFlags::SYN, 17520);
    syn.options = vec![TcpOption::Mss(1460)];
    let mut synack = TcpSegment::bare(
        80,
        40000,
        PRIMARY_ISS,
        CLIENT_ISS + 1,
        TcpFlags::SYN | TcpFlags::ACK,
        17520,
    );
    synack.options = vec![TcpOption::Mss(1460)];
    let ack = TcpSegment::bare(40000, 80, CLIENT_ISS + 1, PRIMARY_ISS + 1, TcpFlags::ACK, 17520);
    let primary_ack =
        TcpSegment::bare(80, 40000, PRIMARY_ISS + 1, CLIENT_ISS + 1 + 400, TcpFlags::ACK, 17520);
    let mut last = frame(false, &primary_ack).to_vec();
    if corrupt {
        // One bit of the ACK field, checksum left as it was.
        last[14 + 20 + 8 + 2] ^= 0x01;
    }
    let tape = vec![frame(true, &syn), frame(false, &synack), frame(true, &ack), Bytes::from(last)];

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
    node.engine().expect("a chain member").stats.missing_reqs
}

#[test]
fn tapped_primary_ack_reveals_a_tap_omission() {
    assert_eq!(missing_requests_after_tapped_ack(false), 1);
}

#[test]
fn corrupted_tapped_ack_is_ignored() {
    assert_eq!(missing_requests_after_tapped_ack(true), 0);
}
