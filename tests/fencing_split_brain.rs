//! Performance failures and fencing (paper §3.2/§4.4).
//!
//! "The failure detection mechanism will eventually suspect a crashed
//! computer. However, it might wrongly suspect non-crashed computers.
//! We convert wrong suspicions into correct suspicions by switching off
//! the power of a suspected computer."
//!
//! A *paused* primary (GC stall, SMI, overload) is exactly the wrong-
//! suspicion case: the backup's timeout fires, it takes over — and then
//! the primary wakes up still believing it owns the service IP. With
//! the power switch, the backup's fencing command lands while the
//! primary is stalled (power is physical; it does not queue behind the
//! stalled CPU), so the primary never returns: at most one node ever
//! speaks for the VIP.

use st_tcp::apps::{Workload, WorkloadClient};
use st_tcp::netsim::{SimDuration, SimTime};
use st_tcp::sttcp::scenario::{addrs, build, RunLimits, ScenarioSpec};
use st_tcp::sttcp::{ClientNode, ServerNode, SttcpConfig};
use st_tcp::wire::{EtherType, EthernetFrame, Ipv4Packet};
use std::cell::RefCell;
use std::rc::Rc;

/// Runs Echo×100 with the primary paused [0.3 s, 0.8 s) — long enough
/// for the 3×50 ms detection to fire, short enough that the primary
/// resumes while the run is still going. Returns (completed, clean,
/// #senders-for-VIP-after-takeover, primary alive at end).
fn run_paused_primary(with_fencing: bool) -> (bool, bool, usize, bool) {
    let mut cfg = SttcpConfig::new(addrs::VIP, 80);
    if with_fencing {
        cfg = cfg.with_fencing(0);
    }
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 }).st_tcp(cfg);
    let mut scenario = build(&spec);
    let primary = scenario.primary;
    scenario.sim.schedule_pause(
        primary,
        SimTime::ZERO + SimDuration::from_millis(300),
        SimDuration::from_millis(500),
    );

    // Track which *server* transmits VIP-sourced frames after the
    // takeover (the hub's re-broadcasts are not origination).
    let backup_id = scenario.backup.unwrap();
    let primary_id = scenario.primary;
    let senders: Rc<RefCell<std::collections::BTreeSet<usize>>> =
        Rc::new(RefCell::new(Default::default()));
    let s2 = senders.clone();
    let takeover_seen = Rc::new(RefCell::new(false));
    let t2 = takeover_seen.clone();
    scenario.sim.set_probe(move |ev| {
        if ev.from != backup_id && ev.from != primary_id {
            return;
        }
        let Ok(eth) = EthernetFrame::parse(ev.frame.clone()) else { return };
        if eth.ethertype != EtherType::Ipv4 {
            return;
        }
        let Ok(ip) = Ipv4Packet::parse(eth.payload) else { return };
        if ip.src != addrs::VIP {
            return;
        }
        if ev.from == backup_id {
            *t2.borrow_mut() = true;
        }
        if *t2.borrow() {
            s2.borrow_mut().insert(ev.from.0);
        }
    });

    let deadline = SimTime::ZERO + SimDuration::from_secs(30);
    while scenario.sim.now() < deadline && !scenario.client().unwrap().is_done() {
        scenario.sim.run_for(SimDuration::from_millis(50));
    }
    let done = scenario.client().unwrap().is_done();
    let clean = scenario.client().unwrap().metrics.verified_clean();
    let sender_count = senders.borrow().len();
    let primary_alive = scenario.sim.is_alive(primary);
    (done, clean, sender_count, primary_alive)
}

#[test]
fn fencing_prevents_split_brain_on_performance_failure() {
    let (done, clean, senders, primary_alive) = run_paused_primary(true);
    assert!(done, "service must survive the stall");
    assert!(clean);
    assert_eq!(senders, 1, "with fencing, only the backup ever speaks for the VIP after takeover");
    assert!(!primary_alive, "the fencing command must have cut the paused primary's power");
}

#[test]
fn without_fencing_the_stalled_primary_returns() {
    let (done, clean, senders, primary_alive) = run_paused_primary(false);
    // Determinism means both nodes transmit the *same* bytes, so the
    // client stream happens to stay clean here — but two nodes speaking
    // for one IP is the split-brain hazard the paper's fencing exists
    // to rule out (non-deterministic real servers would diverge).
    assert!(primary_alive, "nobody cut the power");
    assert!(
        senders >= 2,
        "without fencing the resumed primary transmits as the VIP again (split brain), saw {senders}"
    );
    // The run itself completes because the apps are deterministic.
    assert!(done && clean);
}

#[test]
fn pause_shorter_than_detection_threshold_is_harmless() {
    // A stall of 2 heartbeat intervals (< 3) must not trigger takeover.
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 })
        .st_tcp(SttcpConfig::new(addrs::VIP, 80));
    let mut scenario = build(&spec);
    let primary = scenario.primary;
    scenario.sim.schedule_pause(
        primary,
        SimTime::ZERO + SimDuration::from_millis(300),
        SimDuration::from_millis(100), // 2 x 50ms HB
    );
    let m = scenario.run(RunLimits::time(SimDuration::from_secs(30))).expect_completed();
    assert!(m.verified_clean());
    assert!(
        !scenario.backup().unwrap().has_taken_over(),
        "a sub-threshold stall must not be suspected"
    );
}

#[test]
fn client_keeps_talking_to_whichever_server_answers() {
    // Sanity: the client never learns there are two servers; its
    // connection state stays Established throughout the stall+takeover.
    let cfg = SttcpConfig::new(addrs::VIP, 80).with_fencing(0);
    let spec = ScenarioSpec::new(Workload::Echo { requests: 100 }).st_tcp(cfg);
    let mut scenario = build(&spec);
    let primary = scenario.primary;
    scenario.sim.schedule_pause(
        primary,
        SimTime::ZERO + SimDuration::from_millis(300),
        SimDuration::from_secs(1),
    );
    let deadline = SimTime::ZERO + SimDuration::from_secs(30);
    while scenario.sim.now() < deadline && !scenario.client().unwrap().is_done() {
        scenario.sim.run_for(SimDuration::from_millis(50));
        let c = scenario.sim.node_ref::<ClientNode>(scenario.client);
        if let Some(sock) = c.sock() {
            let state = c.stack().state(sock).unwrap();
            assert!(
                state.is_synchronized(),
                "client connection must never reset during failover, got {state:?}"
            );
        }
    }
    assert!(scenario.client().unwrap().is_done());
    // The backup is serving; its engine recorded the takeover.
    let b = scenario.sim.node_ref::<ServerNode>(scenario.backup.unwrap());
    assert!(b.backup_engine().unwrap().has_taken_over());
    let _ = scenario.sim.node_ref::<ClientNode>(scenario.client).app::<WorkloadClient>();
}
