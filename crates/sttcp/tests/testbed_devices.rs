//! Every testbed builds the devices its protocol configuration names.
//!
//! The §3.2 packet logger is one inline device that "introduces a very
//! small delay" on whichever §3.1 tap is in use, and the power switch
//! is what a fencing backup talks to. A configuration that names one
//! and gets a testbed without it fails without a word: the backup asks
//! a logger nobody runs, or fences through an unplugged port.
//!
//! The double failure is the one in the `ablations` bench: request #41
//! never reaches the backup's tap, the primary's recovery replies are
//! lost too, and then the primary crashes. Only the logger can replay
//! the request. The crash comes at 800 ms rather than the bench's
//! 600 ms: the gateway's extra hop stretches an exchange to ≈15 ms, so
//! at 600 ms the primary would die before acking request #41 and the
//! client's own retransmission would heal the gap.

use apps::Workload;
use bytes::Bytes;
use netsim::{DropRule, SimDuration, SimTime};
use sttcp::fleet::{self, FleetSpec};
use sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec, Topology};
use sttcp::{SideMsg, SttcpConfig};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};

const TOPOLOGIES: [Topology; 5] = [
    Topology::Hub,
    Topology::SharedMediumHub { medium_bps: 100_000_000 },
    Topology::SwitchMirror,
    Topology::SwitchMulticast,
    Topology::GatewaySwitch,
];

/// The IPv4 packet inside `frame`, if it is one.
fn ipv4(frame: &Bytes) -> Option<Ipv4Packet> {
    let eth = EthernetFrame::parse(frame.clone()).ok()?;
    (eth.ethertype == EtherType::Ipv4).then(|| Ipv4Packet::parse(eth.payload).ok())?
}

fn client_request(frame: &Bytes) -> bool {
    ipv4(frame)
        .filter(|ip| ip.dst == addrs::VIP && ip.protocol == IpProtocol::Tcp)
        .and_then(|ip| TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst).ok())
        .is_some_and(|seg| !seg.payload.is_empty())
}

fn missing_data_reply(frame: &Bytes) -> bool {
    ipv4(frame)
        .filter(|ip| ip.protocol == IpProtocol::Udp)
        .and_then(|ip| UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok())
        .and_then(|udp| SideMsg::decode(udp.payload))
        .is_some_and(|msg| matches!(msg, SideMsg::MissingData { .. }))
}

fn echo_spec(topology: Topology, cfg: SttcpConfig) -> ScenarioSpec {
    ScenarioSpec::new(Workload::echo()).topology(topology).st_tcp(cfg)
}

#[test]
fn every_tap_masks_the_double_failure_with_its_logger() {
    for topology in TOPOLOGIES {
        let crash = SimTime::ZERO + SimDuration::from_millis(800);
        let spec = echo_spec(topology, SttcpConfig::new(addrs::VIP, 80).with_logger())
            .faults(FaultSpec::crash_primary_at(crash));
        let mut scenario = build(&spec);
        assert!(scenario.logger.is_some(), "{topology:?} builds the logger it is configured with");
        let backup = scenario.backup.expect("an ST-TCP pair");
        scenario.sim.add_ingress_drop(backup, DropRule::window(40, 1, client_request));
        scenario.sim.add_ingress_drop(backup, DropRule::all(missing_data_reply));
        let outcome = scenario.run(RunLimits::time(SimDuration::from_secs(30)));
        assert!(
            outcome.completed(),
            "{topology:?}: {:?} at {}",
            outcome.reason,
            outcome.stopped_at
        );
        assert!(outcome.metrics.verified_clean(), "{topology:?}");
        let queries = scenario.backup().expect("backup engine").stats.logger_queries;
        assert!(queries >= 1, "{topology:?}: the replay came from the logger");
    }
}

#[test]
fn the_logger_adds_less_than_one_hop_per_exchange() {
    for topology in TOPOLOGIES {
        let total = |cfg: SttcpConfig| {
            let spec = echo_spec(topology, cfg);
            let hop = spec.link.latency;
            let mut scenario = build(&spec);
            let metrics = scenario.run(RunLimits::default()).expect_completed();
            (metrics.total_time().expect("finished"), hop, metrics.latencies.len() as u64)
        };
        let (without, hop, exchanges) = total(SttcpConfig::new(addrs::VIP, 80));
        let (with, _, _) = total(SttcpConfig::new(addrs::VIP, 80).with_logger());
        let added_ns = with.as_nanos().saturating_sub(without.as_nanos());
        assert!(
            added_ns < hop.as_nanos() * exchanges,
            "{topology:?}: the logger added {added_ns} ns over {exchanges} exchanges of {hop:?} hops"
        );
    }
}

#[test]
fn a_fleet_that_fences_plugs_in_its_power_switch() {
    let mut unfenced = fleet::build(&FleetSpec::new(2));
    assert_eq!(unfenced.power, None, "nothing to fence, nothing plugged in");
    assert!(unfenced.run_until_done(SimDuration::from_secs(30)));

    // A gray failure: the primary freezes long enough to be suspected,
    // then resumes. The backup's fence must reach the outlet.
    let mut spec = FleetSpec::new(2).workload(Workload::Echo { requests: 100 });
    spec.st_tcp = spec.st_tcp.with_fencing(0);
    let mut fenced = fleet::build(&spec);
    assert!(fenced.power.is_some(), "the config fences, so the switch is plugged in");
    let at = SimTime::ZERO + SimDuration::from_millis(300);
    fenced.sim.schedule_pause(fenced.primary, at, SimDuration::from_millis(500));
    assert!(fenced.run_until_done(SimDuration::from_secs(30)), "the backup serves the rest");
    assert!(fenced.verified_clean());
    assert!(fenced.engine(1).has_taken_over());
    assert!(!fenced.sim.is_alive(fenced.primary), "the fence powered the primary off");
}

#[test]
fn every_testbed_derives_the_primarys_iss() {
    // Every server keys a passive open's ISS on the SYN, so no shadow's
    // handshake ACK ever acks anything but its own SYN/ACK: the §4.1
    // check counts nothing, on every tap and along a chain.
    for topology in TOPOLOGIES {
        let spec = echo_spec(topology, SttcpConfig::new(addrs::VIP, 80)).recording();
        let mut scenario = build(&spec);
        scenario.run(RunLimits::time(SimDuration::from_secs(30))).expect_completed();
        let snap = scenario.snapshot().expect("recording");
        assert_eq!(snap.get("shadow_isn_resyncs"), 0, "{topology:?}");
    }
    let spec = FleetSpec::new(40).backups(2).recording();
    let mut fleet = fleet::build(&spec);
    assert!(fleet.run_until_done(SimDuration::from_secs(60)));
    let snap = fleet.obs.as_ref().expect("recording").snapshot();
    assert_eq!(snap.get("shadow_isn_resyncs"), 0, "a 2-backup chain");
}
