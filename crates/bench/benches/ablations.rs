//! Ablations for the design choices and secondary claims of the paper:
//!
//! 1. **Side-channel overhead** (§4.3): the paper estimates one
//!    ~128-byte ack per 3 KB of client data ⇒ ≤4.17 % extra LAN
//!    traffic. We measure the real side-channel byte share with a frame
//!    probe.
//! 2. **Tap loss** (§4.2): the missing-segment protocol must keep the
//!    backup consistent under increasing omission rates on its ingress,
//!    with zero client-visible effect.
//! 3. **Double failure** (§3.2): a tap omission whose side-channel
//!    recovery is lost, followed by a primary crash, is unrecoverable
//!    without the in-network logger — and recoverable with it.
//! 4. **SyncTime / X sweep** (§4.3): how the ack strategy parameters
//!    trade side-channel traffic against ack frequency.

use apps::Workload;
use netsim::{DropRule, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use sttcp::scenario::{addrs, build, FaultSpec, RunLimits, ScenarioSpec};
use sttcp_bench::{fmt_s, st_cfg, Table};
use wire::{EtherType, EthernetFrame, IpProtocol, Ipv4Packet, TcpSegment, UdpDatagram};

/// Counts service-data vs side-channel bytes on the wire.
#[derive(Debug, Default, Clone, Copy)]
struct TrafficSplit {
    side_channel: u64,
    other: u64,
}

fn is_side_channel(frame: &bytes::Bytes, side_port: u16) -> bool {
    (|| {
        let eth = EthernetFrame::parse(frame.clone()).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::parse(eth.payload).ok()?;
        if ip.protocol != IpProtocol::Udp {
            return None;
        }
        let udp = UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok()?;
        Some(udp.dst_port == side_port || udp.src_port == side_port)
    })()
    .unwrap_or(false)
}

fn side_channel_overhead() {
    let mut table = Table::new(
        "Ablation 1: side-channel overhead (share of LAN bytes), Bulk 5MB",
        &["sync_time", "side_bytes", "data_bytes", "overhead_pct"],
    );
    for (label, ms) in [("50ms", 50u64), ("200ms", 200), ("1s", 1000)] {
        let spec =
            ScenarioSpec::new(Workload::bulk_mb(5)).st_tcp(st_cfg(SimDuration::from_millis(ms)));
        let mut scenario = build(&spec);
        let counts = Rc::new(RefCell::new(TrafficSplit::default()));
        let probe_counts = counts.clone();
        scenario.sim.set_probe(move |ev| {
            let len = ev.frame.len() as u64;
            let mut c = probe_counts.borrow_mut();
            if is_side_channel(ev.frame, 7077) {
                c.side_channel += len;
            } else {
                c.other += len;
            }
        });
        let m = scenario.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
        assert!(m.verified_clean());
        let c = *counts.borrow();
        let pct = 100.0 * c.side_channel as f64 / (c.other.max(1)) as f64;
        table.row(vec![
            label.into(),
            c.side_channel.to_string(),
            c.other.to_string(),
            format!("{pct:.3}"),
        ]);
        assert!(pct < 5.0, "side channel must stay under the paper's ~4.17% bound, got {pct:.2}%");
    }
    table.emit("ablation_side_channel");
}

/// Matches any TCP frame — the §4.2 omission class. The UDP side
/// channel is excluded: losing heartbeats is a *detection* fault (false
/// takeover), not a tap omission, and is exercised by the fencing tests.
fn any_tcp_frame(frame: &bytes::Bytes) -> bool {
    (|| {
        let eth = EthernetFrame::parse(frame.clone()).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::parse(eth.payload).ok()?;
        Some(ip.protocol == IpProtocol::Tcp)
    })()
    .unwrap_or(false)
}

fn tap_loss_sweep() {
    let mut table = Table::new(
        "Ablation 2: backup tap loss, Echo x100 (client must never notice)",
        &["loss_pct", "missing_reqs", "bytes_recovered", "client_total_s", "clean"],
    );
    let baseline = {
        let spec = ScenarioSpec::new(Workload::echo()).st_tcp(st_cfg(SimDuration::from_millis(50)));
        sttcp_bench::run(&spec).total_time().unwrap().as_secs_f64()
    };
    for loss in [0.0, 0.05, 0.1, 0.2, 0.4] {
        let spec = ScenarioSpec::new(Workload::echo()).st_tcp(st_cfg(SimDuration::from_millis(50)));
        let mut scenario = build(&spec);
        let backup = scenario.backup.expect("st-tcp");
        if loss > 0.0 {
            scenario.sim.add_ingress_drop(backup, DropRule::rate(loss, any_tcp_frame));
        }
        let m = scenario.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
        let eng = scenario.backup().unwrap();
        let total = m.total_time().unwrap().as_secs_f64();
        table.row(vec![
            format!("{:.0}", loss * 100.0),
            eng.stats.missing_reqs.to_string(),
            eng.stats.missing_bytes_recovered.to_string(),
            fmt_s(total),
            m.verified_clean().to_string(),
        ]);
        assert!(m.verified_clean());
        assert!(
            (total - baseline).abs() / baseline < 0.02,
            "tap loss must be invisible to the client: {total} vs {baseline}"
        );
    }
    table.emit("ablation_tap_loss");
}

/// Matches client→VIP TCP frames that carry payload (i.e. requests).
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

/// Matches side-channel MissingData datagrams, refusals included (so recovery
/// from the primary can be disabled without touching heartbeats).
fn missing_data_frame(frame: &bytes::Bytes) -> bool {
    (|| {
        let eth = EthernetFrame::parse(frame.clone()).ok()?;
        if eth.ethertype != EtherType::Ipv4 {
            return None;
        }
        let ip = Ipv4Packet::parse(eth.payload).ok()?;
        if ip.protocol != IpProtocol::Udp {
            return None;
        }
        let udp = UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst).ok()?;
        if udp.dst_port != 7077 {
            return None;
        }
        Some(udp.payload.first() == Some(&4))
    })()
    .unwrap_or(false)
}

/// A tap omission whose side-channel recovery is also lost, then a
/// primary crash — the §3.2 double failure. The backup is missing one
/// request the primary acknowledged; the client will never retransmit
/// it. Only the in-network logger can replay it.
fn double_failure() {
    let mut table = Table::new(
        "Ablation 3: omission+crash double failure, Echo x100",
        &["logger", "completed", "clean", "logger_queries", "total_s"],
    );
    for use_logger in [true, false] {
        let crash = SimTime::ZERO + SimDuration::from_secs_f64(0.6);
        let mut cfg = st_cfg(SimDuration::from_millis(50));
        if use_logger {
            cfg = cfg.with_logger();
        }
        let spec = ScenarioSpec::new(Workload::echo())
            .st_tcp(cfg)
            .faults(FaultSpec::crash_primary_at(crash));
        let mut scenario = build(&spec);
        let backup = scenario.backup.unwrap();
        // Lose request #41 on the backup's tap...
        scenario.sim.add_ingress_drop(backup, DropRule::window(40, 1, client_request_frame));
        // ...and suppress every side-channel recovery reply, so the gap
        // survives until the crash.
        scenario.sim.add_ingress_drop(backup, DropRule::all(missing_data_frame));

        // Run manually: the no-logger case legitimately hangs.
        let mut done = false;
        let deadline = SimTime::ZERO + SimDuration::from_secs(90);
        while scenario.sim.now() < deadline {
            scenario.sim.run_for(SimDuration::from_millis(50));
            if scenario.client().unwrap().is_done() {
                done = true;
                break;
            }
        }
        let m = scenario.client().unwrap().metrics.clone();
        let clean = m.verified_clean();
        let queries = scenario.backup().unwrap().stats.logger_queries;
        table.row(vec![
            use_logger.to_string(),
            done.to_string(),
            clean.to_string(),
            queries.to_string(),
            m.total_time().map(|t| fmt_s(t.as_secs_f64())).unwrap_or_else(|| "-".into()),
        ]);
        if use_logger {
            assert!(done && clean, "the logger must mask the double failure");
            assert!(queries > 0, "recovery must have used the logger");
        } else {
            assert!(!done, "without the logger the double failure must stall the service");
        }
    }
    table.emit("ablation_double_failure");
}

fn sync_param_sweep() {
    // Upload is the direction where the ack strategy matters: every
    // client byte is retained by the primary until backup-acked, so X
    // trades side-channel ack frequency against retention headroom —
    // and, once retention spills past the second buffer, against the
    // client's advertised window (upload throughput).
    let mut table = Table::new(
        "Ablation 4: ack strategy parameters (Upload 5MB, 50ms HB)",
        &["x_threshold", "sync_time", "acks_sent", "threshold_acks", "total_s"],
    );
    let mut prev_acks = u64::MAX;
    for (x, sync_ms) in [
        (Some(1024), 50u64),
        (Some(4 * 1024), 50),
        (Some(12 * 1024), 50),
        (None, 50),
        (None, 200),
        (None, 1000),
    ] {
        let mut cfg = st_cfg(SimDuration::from_millis(50));
        cfg.ack_threshold = x;
        cfg.sync_time = Some(SimDuration::from_millis(sync_ms));
        let spec = ScenarioSpec::new(Workload::upload_mb(5)).st_tcp(cfg);
        let mut scenario = build(&spec);
        let m = scenario.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
        assert!(m.verified_clean());
        let eng = scenario.backup().unwrap();
        if x.is_some() {
            assert!(eng.stats.acks_sent <= prev_acks, "larger X must not send more acks");
            prev_acks = eng.stats.acks_sent;
        }
        table.row(vec![
            x.map(|v| v.to_string()).unwrap_or_else(|| "3/4 buf".into()),
            format!("{sync_ms}ms"),
            eng.stats.acks_sent.to_string(),
            eng.stats.acks_threshold_triggered.to_string(),
            fmt_s(m.total_time().unwrap().as_secs_f64()),
        ]);
    }
    table.emit("ablation_sync_params");
}

/// §6's aside: "Using an Ethernet switch will lead to a higher
/// throughput." On a 10 Mbit fabric the shared-medium hub makes data,
/// ACKs and the side channel contend for air time; a switch gives each
/// direction its own wire.
fn hub_vs_switch() {
    use sttcp::scenario::Topology;
    let mut table = Table::new(
        "Ablation 5: shared-medium hub vs switch (Bulk 5MB over ST-TCP, 10 Mbit fabric)",
        &["fabric", "total_s", "throughput_MBps"],
    );
    let mut results = Vec::new();
    for (name, topology) in [
        ("10Mbit shared hub", Topology::SharedMediumHub { medium_bps: 10_000_000 }),
        ("10Mbit switch", Topology::SwitchMulticast),
    ] {
        let mut spec = ScenarioSpec::new(Workload::bulk_mb(5))
            .topology(topology)
            .st_tcp(st_cfg(SimDuration::from_millis(50)));
        if let Topology::SwitchMulticast = topology {
            spec.link = spec.link.with_bandwidth_bps(10_000_000);
        }
        let mut scenario = build(&spec);
        let m = scenario.run(RunLimits::time(SimDuration::from_secs(600))).expect_completed();
        assert!(m.verified_clean());
        let total = m.total_time().unwrap().as_secs_f64();
        table.row(vec![name.into(), fmt_s(total), format!("{:.3}", 5.0 * 1.048576 / total)]);
        results.push(total);
    }
    table.emit("ablation_hub_vs_switch");
    assert!(
        results[0] > results[1] * 1.1,
        "the switch must outrun the shared hub: hub={} switch={}",
        results[0],
        results[1]
    );
}

fn main() {
    side_channel_overhead();
    tap_loss_sweep();
    double_failure();
    sync_param_sweep();
    hub_vs_switch();
    println!("\nAll ablations completed.");
}
