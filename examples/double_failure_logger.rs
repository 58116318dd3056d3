//! Double-failure masking with the in-network packet logger (§3.2),
//! on the chain-fleet API.
//!
//! A tap omission makes the rank-1 backup miss one client request; the
//! side-channel recovery replies are lost too; then the primary
//! crashes. The client will never retransmit the request (the primary
//! ACKed it), so without help the backup can never serve it. The
//! packet logger — an inline device that keeps recent frames in
//! memory — replays the missing segment at takeover: the backup (the
//! last candidate, so it promotes at its deadline despite the lag)
//! re-queries the logger until its shadow has caught up.
//!
//! Run with: `cargo run --release --example double_failure_logger`

use st_tcp::netsim::DropRule;
use st_tcp::sttcp::fleet::{self, FleetSpec};
use st_tcp::sttcp::prelude::*;
use st_tcp::wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};

fn client_request_frame(frame: &bytes::Bytes) -> bool {
    (|| {
        let eth = EthernetFrame::parse(frame.clone()).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::parse(eth.payload).ok()?;
        if ip.dst != addrs::VIP || ip.protocol != IpProtocol::Tcp {
            return None;
        }
        let seg = TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst).ok()?;
        Some(!seg.payload.is_empty())
    })()
    .unwrap_or(false)
}

fn missing_data_reply(frame: &bytes::Bytes) -> bool {
    (|| {
        let eth = EthernetFrame::parse(frame.clone()).ok()?;
        let ip = Ipv4Packet::parse(eth.payload).ok()?;
        if ip.protocol != IpProtocol::Udp {
            return None;
        }
        let udp = UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok()?;
        Some(udp.dst_port == 7077 && matches!(udp.payload.first(), Some(4) | Some(5)))
    })()
    .unwrap_or(false)
}

fn run_once(with_logger: bool) {
    let mut spec = FleetSpec::new(1)
        .closing()
        .workload(Workload::Echo { requests: 100 })
        .crash(0, SimTime::ZERO + SimDuration::from_millis(600))
        .connect_spread(SimDuration::ZERO);
    if with_logger {
        spec.st_tcp = spec.st_tcp.with_logger();
    }
    let mut fleet = fleet::build(&spec);
    let backup = fleet.servers[1];
    // The double failure: request #41 never reaches the backup's tap...
    fleet.sim.add_ingress_drop(backup, DropRule::window(40, 1, client_request_frame));
    // ...and the primary's side-channel recovery replies are lost too.
    fleet.sim.add_ingress_drop(backup, DropRule::all(missing_data_reply));

    let deadline = SimTime::ZERO + SimDuration::from_secs(30);
    while fleet.sim.now() < deadline && !fleet.client_app(0).is_done() {
        fleet.sim.run_for(SimDuration::from_millis(50));
    }
    let done = fleet.client_app(0).is_done();
    let m = &fleet.client_app(0).metrics;
    println!(
        "logger={:<5}  completed={:<5}  clean={:<5}  responses={:>3}/100  logger_replay_queries={}",
        with_logger,
        done,
        m.verified_clean(),
        m.latencies.len(),
        fleet.engine(1).stats.logger_queries,
    );
    if with_logger {
        assert!(done, "logger must mask the double failure");
        assert!(fleet.engine(1).has_taken_over(), "rank 1 serves the tail of the workload");
    } else {
        assert!(!done, "without the logger the service stalls");
    }
}

fn main() {
    println!("Omission + crash double failure (paper §3.2), cluster engine:\n");
    run_once(false);
    run_once(true);
    println!("\nWithout the logger the backup is stuck one request behind forever;");
    println!("with it, the replayed segment heals the shadow and service continues.");
}
