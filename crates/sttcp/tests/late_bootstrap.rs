//! Late-join / missed-SYN bootstrap (extension beyond the paper).
//!
//! §4.1 assumes the backup taps every connection from its SYN. If the
//! SYN is lost on the tap, the literal protocol can never shadow that
//! connection — after a takeover the backup would RST the client. With
//! the in-network logger, the backup detects the unshadowed connection
//! (a frontier entry on the primary's heartbeat, or a client segment,
//! for an unknown four-tuple) and asks for a full history replay: the
//! replayed SYN builds the shadow with the primary's ISS, and the
//! replayed requests catch the application up.

use apps::{EchoServer, Workload};
use netsim::{DropRule, SimDuration, SimTime};
use sttcp::scenario::{addrs, build, RunLimits, ScenarioSpec};
use sttcp::{ServerNode, SttcpConfig};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpFlags, TcpSegment};

/// Matches the client's SYN to the service VIP.
fn client_syn(frame: &bytes::Bytes) -> bool {
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
        Some(seg.flags.contains(TcpFlags::SYN))
    })()
    .unwrap_or(false)
}

fn spec_with_logger(use_logger: bool) -> ScenarioSpec {
    let mut cfg = SttcpConfig::new(addrs::VIP, 80);
    if use_logger {
        cfg = cfg.with_logger();
    }
    ScenarioSpec::new(Workload::Echo { requests: 100 }).st_tcp(cfg)
}

#[test]
fn missed_syn_is_bootstrapped_from_the_logger() {
    let mut s = build(&spec_with_logger(true));
    let backup = s.backup.unwrap();
    s.sim.add_ingress_drop(backup, DropRule::window(0, 1, client_syn));
    // Run failure-free for a while: the backup must build the shadow
    // from the replay and converge.
    s.sim.run_for(SimDuration::from_secs(1));
    let node = s.sim.node_ref::<ServerNode>(backup);
    let eng = node.backup_engine().unwrap();
    assert!(eng.stats.bootstrap_queries >= 1, "unknown-conn activity must trigger a bootstrap");
    assert_eq!(node.accepted.len(), 1, "the replayed SYN must have built the shadow");
    let sock = node.accepted[0];
    let app = node.app::<EchoServer>(sock).expect("echo app attached");
    assert!(app.echoed > 0, "the replayed history must have driven the application");
    // Sequence space matches the primary's.
    let p = s.sim.node_ref::<ServerNode>(s.primary);
    let ptcb = p.stack().tcb(p.accepted[0]).unwrap();
    let btcb = s.sim.node_ref::<ServerNode>(backup).stack().tcb(sock).unwrap();
    assert_eq!(btcb.iss(), ptcb.iss(), "replayed handshake ACK must resync the ISN");
    assert_eq!(s.client().unwrap().metrics.content_errors, 0);
    assert!(
        s.client().unwrap().metrics.bytes_received > 50 * 150,
        "the client must have made normal progress throughout: got {} bytes",
        s.client().unwrap().metrics.bytes_received
    );
}

#[test]
fn bootstrapped_backup_survives_a_crash() {
    let mut s = build(&spec_with_logger(true));
    let backup = s.backup.unwrap();
    s.sim.add_ingress_drop(backup, DropRule::window(0, 1, client_syn));
    // Give the bootstrap time to converge, then kill the primary.
    s.sim.schedule_crash(s.primary, SimTime::ZERO + SimDuration::from_millis(500));
    let m = s.run(RunLimits::time(SimDuration::from_secs(60))).expect_completed();
    assert!(m.verified_clean(), "failover from a bootstrapped shadow must be byte-exact");
    assert_eq!(m.latencies.len(), 100);
    let eng = s.backup().unwrap();
    assert!(eng.has_taken_over());
    assert!(eng.stats.bootstrap_queries >= 1);
}

#[test]
fn without_logger_a_missed_syn_is_fatal_after_crash() {
    // The documented limitation: no logger, no history, no shadow — on
    // takeover the backup has no TCB for the connection and resets it.
    let mut s = build(&spec_with_logger(false));
    let backup = s.backup.unwrap();
    s.sim.add_ingress_drop(backup, DropRule::window(0, 1, client_syn));
    s.sim.schedule_crash(s.primary, SimTime::ZERO + SimDuration::from_millis(500));
    let deadline = SimTime::ZERO + SimDuration::from_secs(30);
    while s.sim.now() < deadline && !s.client().unwrap().is_done() {
        s.sim.run_for(SimDuration::from_millis(50));
    }
    assert!(!s.client().unwrap().is_done(), "without the logger this failover cannot succeed");
    let node = s.sim.node_ref::<ServerNode>(backup);
    assert_eq!(node.accepted.len(), 0, "no shadow was ever built");
}
