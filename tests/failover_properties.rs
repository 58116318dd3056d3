//! Property-based system tests: the failover invariants must hold for
//! *any* crash instant and any simulator seed, not just the curated
//! times the examples use.
//!
//! Invariant under test (DESIGN.md §5.5): the application-level byte
//! stream received by the client with a mid-run crash is exactly the
//! no-failure stream — every byte delivered exactly once, in order,
//! with correct content — and the run always completes.

use proptest::prelude::*;
use st_tcp::apps::Workload;
use st_tcp::netsim::{DropRule, SimDuration, SimTime};
use st_tcp::sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec};
use st_tcp::sttcp::SttcpConfig;
use st_tcp::wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment};

/// The omission class of paper §4.2: payload-carrying client→service
/// segments lost on the backup's ingress (IP-buffer overflow). SYN
/// loss on the tap is explicitly out of scope — the backup shadows a
/// connection from its SYN (§4.1) — and side-channel/logger frames are
/// part of the recovery machinery itself.
fn tapped_client_data(frame: &bytes::Bytes) -> bool {
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

fn run_with_crash(workload: Workload, crash_ms: u64, seed: u64, tap_loss: f64) -> (u64, usize) {
    // Tap-loss runs get the in-network logger: a loss immediately before
    // the crash is the §3.2 double failure, unrecoverable without it.
    let mut cfg = SttcpConfig::new(addrs::VIP, 80);
    if tap_loss > 0.0 {
        cfg = cfg.with_logger();
    }
    let mut spec = ScenarioSpec::new(workload)
        .st_tcp(cfg)
        .faults(FaultSpec::crash_primary_at(SimTime::ZERO + SimDuration::from_millis(crash_ms)));
    spec.seed = seed;
    let mut scenario = build(&spec);
    if tap_loss > 0.0 {
        let backup = scenario.backup.unwrap();
        scenario.sim.add_ingress_drop(backup, DropRule::rate(tap_loss, tapped_client_data));
    }
    let m = scenario.run(RunLimits::time(SimDuration::from_secs(300))).expect_completed();
    assert!(
        m.verified_clean(),
        "crash at {crash_ms}ms seed {seed} loss {tap_loss}: stream corrupted at {:?}",
        m.first_error_pos
    );
    (m.bytes_received, m.latencies.len())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Echo: any crash instant inside the run window.
    #[test]
    fn echo_failover_any_crash_time(crash_ms in 20u64..950, seed in 1u64..1000) {
        let (bytes, responses) = run_with_crash(Workload::Echo { requests: 100 }, crash_ms, seed, 0.0);
        prop_assert_eq!(bytes, 100 * 150);
        prop_assert_eq!(responses, 100);
    }

    /// Bulk: any crash instant inside the (shorter) 1 MB transfer.
    #[test]
    fn bulk_failover_any_crash_time(crash_ms in 20u64..700, seed in 1u64..1000) {
        let (bytes, _) = run_with_crash(Workload::bulk_mb(1), crash_ms, seed, 0.0);
        prop_assert_eq!(bytes, 1 << 20);
    }

    /// Tap loss *and* a crash together: the side channel must have kept
    /// the backup consistent enough to take over cleanly.
    #[test]
    fn echo_failover_with_tap_loss(crash_ms in 100u64..900, seed in 1u64..1000, loss in 0.01f64..0.25) {
        let (bytes, responses) = run_with_crash(Workload::Echo { requests: 100 }, crash_ms, seed, loss);
        prop_assert_eq!(bytes, 100 * 150);
        prop_assert_eq!(responses, 100);
    }

    /// Interactive with a crash during the burst phase.
    #[test]
    fn interactive_failover_any_crash_time(crash_ms in 20u64..1000, seed in 1u64..1000) {
        let w = Workload::Interactive { requests: 100, reply_size: 10 * 1024 };
        let (bytes, responses) = run_with_crash(w, crash_ms, seed, 0.0);
        prop_assert_eq!(bytes, 100 * 10 * 1024);
        prop_assert_eq!(responses, 100);
    }
}

/// A crash *during the handshake or before any request* must still
/// leave the system able to serve (the backup shadows from SYN).
#[test]
fn crash_during_connection_setup() {
    for crash_ms in [2u64, 4, 6, 8, 11, 15] {
        let (bytes, _) = run_with_crash(Workload::Echo { requests: 20 }, crash_ms, 7, 0.0);
        assert_eq!(bytes, 20 * 150, "crash at {crash_ms}ms broke connection setup");
    }
}

/// Crash after the last response but before the run is observed done:
/// nothing left to recover, nothing must break.
#[test]
fn crash_after_completion_window() {
    let (bytes, _) = run_with_crash(Workload::Echo { requests: 20 }, 5_000, 7, 0.0);
    assert_eq!(bytes, 20 * 150);
}
