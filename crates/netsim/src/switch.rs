//! A learning Ethernet switch with the two tapping mechanisms of §3.1.
//!
//! "Logically, an Ethernet switch replaces the broadcast medium by a
//! crossbar. This prevents a backup node from tapping the traffic of the
//! primary node" — unless one of two mechanisms is used:
//!
//! 1. **Port mirroring** ([`Switch::add_mirror`]): "some managed Ethernet
//!    switches provide an option to forward traffic flowing from/to a
//!    port to some other port." We mirror only what flows *to* the
//!    monitored port (a SPAN session's "tx" direction): a backup replays
//!    the client's half of a connection, and the few facts it needs from
//!    the primary's half ride the side channel's heartbeat
//!    (`sttcp::SideMsg::Heartbeat`). Mirroring both directions roughly
//!    doubled what the backup's port carried and let it fall behind.
//! 2. **Multicast flooding**: frames addressed to a *group* (multicast)
//!    MAC are never learned and always flooded, which is why mapping the
//!    service IP to a multicast MAC (see
//!    [`wire::MacAddr::multicast_for_ip`]) lets the backup tap a switched
//!    network without management support.

use crate::node::{Context, Node, PortId};
use crate::rng::DetHashMap;
use bytes::Bytes;
use wire::ethernet::HEADER_LEN;
use wire::MacAddr;

/// A learning switch.
#[derive(Debug, Clone, Default)]
pub struct Switch {
    ports: usize,
    table: DetHashMap<MacAddr, PortId>,
    mirrors: Vec<(PortId, PortId)>,
    /// Frames flooded because the destination was unknown or a group MAC.
    pub floods: u64,
    /// Frames forwarded to a single learned port.
    pub unicast_forwards: u64,
    /// Copies produced by mirroring.
    pub mirrored: u64,
    /// Frames for a station on the segment they arrived from, which the
    /// switch does not forward: a host's loopback frame to itself, or a
    /// logger's replay on a monitored hop (mirrored all the same).
    pub local: u64,
    /// Reused delivery list of a forwarded frame — on a fleet-scale LAN
    /// the switch forwards every frame, so this path must not allocate.
    delivered: Vec<PortId>,
}

impl Switch {
    /// Creates a switch with `ports` ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports < 2`.
    pub fn new(ports: usize) -> Self {
        assert!(ports >= 2, "a switch needs at least 2 ports");
        Switch { ports, ..Self::default() }
    }

    /// Mirrors to `mirror_to` (a SPAN/monitor port) every frame the
    /// switch sends to `monitored`: a frame whose learned destination is
    /// that port. Frames `monitored` sends are not copied. A frame for
    /// the monitored port that arrives on it (from an inline device on
    /// that hop, such as the packet logger replaying) is copied too,
    /// though the switch itself does not forward it.
    pub fn add_mirror(&mut self, monitored: PortId, mirror_to: PortId) {
        self.mirrors.push((monitored, mirror_to));
    }

    /// Pre-fills the learning table: frames for `mac` go to `port`
    /// before that station has sent anything, as with a static entry
    /// an operator installs beside the static ARP entries the hosts
    /// hold. A frame from `mac` on another port still moves it.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not one of the switch's ports.
    pub fn learn(&mut self, mac: MacAddr, port: PortId) {
        assert!(port.0 < self.ports, "port {} on a {}-port switch", port.0, self.ports);
        self.table.insert(mac, port);
    }

    /// The learned MAC table (for assertions in tests).
    pub fn table(&self) -> &DetHashMap<MacAddr, PortId> {
        &self.table
    }
}

impl Node for Switch {
    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        if frame.len() < HEADER_LEN {
            return; // runt frame: drop silently
        }
        // The two addresses are all a switch reads of a frame.
        let mac = |at: usize| MacAddr(frame[at..at + 6].try_into().expect("six bytes"));
        let (dst, src) = (mac(0), mac(6));
        // Learn the source unless it is a group address (the multicast
        // SME must stay unlearned or flooding — the tap — would stop).
        if !src.is_multicast() {
            self.table.insert(src, port);
        }
        // Broadcast and multicast flood — group MACs are never learned —
        // and so does unknown unicast.
        let learned = if dst.is_multicast() { None } else { self.table.get(&dst).copied() };
        let Some(out) = learned else {
            // A flood reaches every port but the ingress, every monitor
            // port among them, so it owes no mirror copy.
            self.floods += 1;
            for p in (0..self.ports).map(PortId).filter(|&p| p != port) {
                ctx.send_frame(p, frame.clone());
            }
            return;
        };
        let mut delivered = std::mem::take(&mut self.delivered);
        // Nothing to forward if the destination is on the ingress segment.
        if out != port {
            self.unicast_forwards += 1;
            ctx.send_frame(out, frame.clone());
            delivered.push(out);
        } else {
            self.local += 1;
        }
        // Mirroring: copy frames sent to a monitored port to its monitor
        // port, unless the frame already reaches that port normally.
        for mi in 0..self.mirrors.len() {
            let (monitored, to) = self.mirrors[mi];
            if out == monitored && to != port && !delivered.contains(&to) {
                ctx.mirror_frame(to, frame.clone());
                delivered.push(to);
                self.mirrored += 1;
            }
        }
        delivered.clear();
        self.delivered = delivered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::Simulator;
    use crate::time::SimDuration;
    use wire::{EtherType, EthernetFrame};

    struct Host {
        mac: MacAddr,
        outbox: Vec<(MacAddr, Bytes)>,
        heard: Vec<EthernetFrame>,
    }

    impl Host {
        fn new(mac: MacAddr) -> Self {
            Host { mac, outbox: vec![], heard: vec![] }
        }
    }

    impl Node for Host {
        fn on_start(&mut self, ctx: &mut Context) {
            for (dst, payload) in self.outbox.drain(..) {
                let f = EthernetFrame::new(dst, self.mac, EtherType::Other(0x1234), payload);
                ctx.send_frame(PortId(0), f.encode());
            }
        }
        fn on_frame(&mut self, _port: PortId, frame: Bytes, _ctx: &mut Context) {
            if let Ok(eth) = EthernetFrame::parse(frame) {
                self.heard.push(eth);
            }
        }
    }

    /// Builds sw with hosts a,b,c on ports 0,1,2.
    fn three_hosts() -> (Simulator, crate::node::NodeId, Vec<crate::node::NodeId>) {
        let mut sim = Simulator::new();
        let sw = sim.add_node("switch", Switch::new(3));
        let hosts: Vec<_> = (0..3u32)
            .map(|i| sim.add_node(format!("h{i}"), Host::new(MacAddr::local(i))))
            .collect();
        for (i, &h) in hosts.iter().enumerate() {
            sim.connect(h, PortId(0), sw, PortId(i), LinkSpec::ideal());
        }
        (sim, sw, hosts)
    }

    #[test]
    fn unknown_unicast_floods_then_learned_unicast_does_not() {
        let (mut sim, sw, hosts) = three_hosts();
        // a -> b with b's MAC unknown: floods to b and c.
        sim.node_mut::<Host>(hosts[0]).outbox.push((MacAddr::local(1), Bytes::from_static(b"1st")));
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(sim.node_ref::<Host>(hosts[1]).heard.len(), 1);
        assert_eq!(sim.node_ref::<Host>(hosts[2]).heard.len(), 1, "unknown dst must flood");
        // b replies to a: a's MAC was learned, goes only to a. And now the
        // switch knows b too.
        sim.node_mut::<Host>(hosts[1]).outbox.push((MacAddr::local(0), Bytes::from_static(b"2nd")));
        let b = hosts[1];
        {
            // re-trigger on_start manually through a timer-less hack:
            // just call the drain logic by sending from b on next start.
        }
        // Simpler: directly emit from b using the simulator clock: power-cycle b.
        sim.schedule_crash(b, sim.now());
        sim.schedule_power_on(b, sim.now() + SimDuration::from_millis(1));
        sim.run_for(SimDuration::from_millis(5));
        assert!(sim.node_ref::<Host>(hosts[0]).heard.iter().any(|f| f.payload.as_ref() == b"2nd"));
        assert!(
            !sim.node_ref::<Host>(hosts[2]).heard.iter().any(|f| f.payload.as_ref() == b"2nd"),
            "learned unicast must not reach third port — this is why a plain switch defeats tapping"
        );
        assert_eq!(sim.node_ref::<Switch>(sw).table().len(), 2);
    }

    #[test]
    fn multicast_always_floods() {
        let (mut sim, _sw, hosts) = three_hosts();
        let sme = MacAddr::multicast_for_ip(std::net::Ipv4Addr::new(10, 0, 0, 100));
        sim.node_mut::<Host>(hosts[0]).outbox.push((sme, Bytes::from_static(b"svc")));
        sim.node_mut::<Host>(hosts[0]).outbox.push((sme, Bytes::from_static(b"svc2")));
        sim.run_for(SimDuration::from_millis(5));
        // Both frames reach both other hosts — the multicast-MAC tap works
        // even though the switch had a chance to "learn".
        assert_eq!(sim.node_ref::<Host>(hosts[1]).heard.len(), 2);
        assert_eq!(sim.node_ref::<Host>(hosts[2]).heard.len(), 2);
    }

    #[test]
    fn broadcast_floods() {
        let (mut sim, _sw, hosts) = three_hosts();
        sim.node_mut::<Host>(hosts[0])
            .outbox
            .push((MacAddr::BROADCAST, Bytes::from_static(b"arp")));
        sim.run_for(SimDuration::from_millis(5));
        assert_eq!(sim.node_ref::<Host>(hosts[1]).heard.len(), 1);
        assert_eq!(sim.node_ref::<Host>(hosts[2]).heard.len(), 1);
    }

    #[test]
    fn group_source_is_not_learned() {
        let (mut sim, sw, hosts) = three_hosts();
        let sme = MacAddr::multicast_for_ip(std::net::Ipv4Addr::new(10, 0, 0, 100));
        // A frame *from* the multicast MAC (primary sends with VNIC source).
        let f = EthernetFrame::new(MacAddr::local(1), sme, EtherType::Other(0x1), Bytes::new());
        sim.node_mut::<Host>(hosts[0]).outbox.push((MacAddr::local(1), f.encode()));
        // outbox wraps payload in another frame; instead inject directly:
        sim.node_mut::<Host>(hosts[0]).outbox.clear();
        sim.run_for(SimDuration::from_millis(1));
        // Direct unit-level check of learning behaviour:
        let now = sim.now();
        let mut ctx = crate::node::Context::new(now, sw);
        sim.node_mut::<Switch>(sw).on_frame(PortId(0), f.encode(), &mut ctx);
        assert!(!sim.node_ref::<Switch>(sw).table().contains_key(&sme));
    }

    #[test]
    fn port_mirroring_copies_only_what_the_monitored_port_is_sent() {
        let (mut sim, sw, hosts) = three_hosts();
        // Mirror port 0 (host a, "the primary") to port 2 ("the backup").
        sim.node_mut::<Switch>(sw).add_mirror(PortId(0), PortId(2));
        // Seed the table directly for a focused test.
        sim.node_mut::<Switch>(sw).table.insert(MacAddr::local(0), PortId(0));
        sim.node_mut::<Switch>(sw).table.insert(MacAddr::local(1), PortId(1));
        // b -> a unicast (sent to port 0): the backup gets a copy.
        sim.node_mut::<Host>(hosts[1]).outbox.push((MacAddr::local(0), Bytes::from_static(b"b2a")));
        // a -> b unicast (sent by port 0): the backup gets none.
        sim.node_mut::<Host>(hosts[0]).outbox.push((MacAddr::local(1), Bytes::from_static(b"a2b")));
        sim.run_for(SimDuration::from_millis(2));
        let heard: Vec<&[u8]> =
            sim.node_ref::<Host>(hosts[2]).heard.iter().map(|f| f.payload.as_ref()).collect();
        assert_eq!(heard, [b"b2a"]);
        assert_eq!(sim.node_ref::<Switch>(sw).mirrored, 1);
    }

    #[test]
    fn a_frame_for_the_monitored_port_arriving_on_it_is_mirrored() {
        // A replay from an inline logger on the monitored hop enters on
        // the monitored port, addressed to the station behind it: the
        // switch does not forward it, but the monitor port sees it.
        let (mut sim, sw, hosts) = three_hosts();
        sim.node_mut::<Switch>(sw).add_mirror(PortId(0), PortId(2));
        sim.node_mut::<Switch>(sw).table.insert(MacAddr::local(0), PortId(0));
        sim.node_mut::<Host>(hosts[0]).outbox.push((MacAddr::local(0), Bytes::from_static(b"rep")));
        sim.run_for(SimDuration::from_millis(2));
        assert!(sim.node_ref::<Host>(hosts[1]).heard.is_empty());
        assert_eq!(sim.node_ref::<Host>(hosts[2]).heard.len(), 1);
        assert_eq!(sim.node_ref::<Switch>(sw).local, 1);
    }

    #[test]
    fn a_pre_learned_station_gets_unicast_before_it_speaks_and_can_move() {
        let (mut sim, sw, hosts) = three_hosts();
        sim.node_mut::<Switch>(sw).learn(MacAddr::local(1), PortId(1));
        // a -> b before b has sent a frame: forwarded, not flooded.
        sim.node_mut::<Host>(hosts[0]).outbox.push((MacAddr::local(1), Bytes::from_static(b"1st")));
        sim.run_for(SimDuration::from_millis(1));
        assert_eq!(sim.node_ref::<Host>(hosts[1]).heard.len(), 1);
        assert!(
            sim.node_ref::<Host>(hosts[2]).heard.is_empty(),
            "a pre-learned dst is not flooded"
        );
        let s = sim.node_ref::<Switch>(sw);
        assert_eq!((s.floods, s.unicast_forwards), (0, 1));
        // A frame from b's MAC on port 2 (the station moved) moves the
        // entry, exactly as learning from traffic would.
        let now = sim.now();
        let mut ctx = Context::new(now, sw);
        let moved = EthernetFrame::new(
            MacAddr::local(0),
            MacAddr::local(1),
            EtherType::Other(0x1234),
            Bytes::new(),
        );
        sim.node_mut::<Switch>(sw).on_frame(PortId(2), moved.encode(), &mut ctx);
        assert_eq!(sim.node_ref::<Switch>(sw).table().get(&MacAddr::local(1)), Some(&PortId(2)));
    }

    #[test]
    #[should_panic(expected = "at least 2 ports")]
    fn tiny_switch_rejected() {
        let _ = Switch::new(0);
    }
}
