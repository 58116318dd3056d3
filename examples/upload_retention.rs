//! Watching the primary's *second receive buffer* breathe (paper §4.2).
//!
//! During a client→server upload, every byte the primary's application
//! reads is retained until the backup acknowledges it over the side
//! channel. This example samples the retention occupancy and the
//! advertised window through an upload, for a healthy backup and for an
//! ack-starved one (SyncTime stretched to 1 s) — the latter shows the
//! §4.2 overflow behaviour: retained bytes spill past the second buffer
//! and the advertised window collapses until the next backup ack.
//!
//! Run with: `cargo run --release --example upload_retention`

use st_tcp::sttcp::prelude::*;
use st_tcp::sttcp::ServerNode;

fn run(label: &str, cfg: SttcpConfig) {
    let spec = ScenarioSpec::new(Workload::upload_mb(1)).st_tcp(cfg);
    let mut s = build(&spec);
    println!("\n--- {label} ---");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12}",
        "t(ms)", "retained", "window", "rcv_nxt-", "client bytes"
    );
    let mut done_at = None;
    for step in 1..=80 {
        s.sim.run_until(SimTime::ZERO + SimDuration::from_millis(25 * step));
        let p = s.sim.node_ref::<ServerNode>(s.primary);
        if p.accepted.is_empty() {
            continue;
        }
        let tcb = p.stack().tcb(p.accepted[0]).unwrap();
        let window = tcb.window(&p.stack().config().tcp);
        let up = s
            .sim
            .node_ref::<ServerNode>(s.primary)
            .app::<st_tcp::apps::UploadServer>(p.accepted[0])
            .map(|a| a.received())
            .unwrap_or(0);
        if step % 4 == 0 || window == 0 {
            println!(
                "{:>8} {:>10} {:>10} {:>10} {:>12}",
                25 * step,
                tcb.retained(),
                window,
                tcb.rcv_nxt().distance(tcb.irs()),
                up
            );
        }
        if s.client().unwrap().is_done() && done_at.is_none() {
            done_at = Some(s.sim.now().as_secs_f64());
            break;
        }
    }
    match done_at {
        Some(t) => println!("upload complete at {t:.3}s"),
        None => println!("(still running after the sampling window)"),
    }
}

fn main() {
    // Healthy: acks every 50 ms / every X=¾-buffer bytes.
    run("healthy backup (50 ms SyncTime)", SttcpConfig::new(addrs::VIP, 80));

    // Starved: SyncTime (and thus the heartbeat) stretched to 1 s, the
    // X-byte rule disabled — retention must spill and throttle.
    let mut starved = SttcpConfig::new(addrs::VIP, 80).with_hb_interval(SimDuration::from_secs(1));
    starved.ack_threshold = Some(usize::MAX);
    run("ack-starved backup (1 s SyncTime, X disabled)", starved);
}
