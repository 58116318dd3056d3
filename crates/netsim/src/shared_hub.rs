//! A half-duplex, shared-medium Ethernet hub.
//!
//! The paper's testbed used a 10/100 Mbit *hub*: one collision domain,
//! every frame occupies the whole medium, and §6 notes "using an
//! Ethernet switch will lead to a higher throughput". [`crate::Hub`]
//! repeats frames without modelling that contention (each port link
//! serializes independently — effectively a switched-like fabric that
//! happens to flood); this node models the shared medium: frames are
//! repeated strictly one at a time at the medium's line rate, so data
//! and ACKs of the same connection — and the ST-TCP side channel —
//! compete for air time. Collisions are approximated by FIFO queueing
//! (CSMA/CD resolves contention; persistent stations eventually
//! transmit, and with our small station counts capture effects are
//! negligible).

use crate::link::LinkSpec;
use crate::node::{Context, Node, PortId};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use std::collections::VecDeque;

const TOK_DRAIN: u64 = 0x5AED;

/// A shared-medium hub: one frame on the wire at a time.
#[derive(Debug)]
pub struct SharedHub {
    ports: usize,
    medium_bps: u64,
    queue: VecDeque<(PortId, Bytes)>,
    in_flight: Option<(PortId, Bytes)>,
    busy_until: SimTime,
    /// Frames repeated.
    pub frames_repeated: u64,
    /// Peak queue depth observed (contention indicator).
    pub peak_queue: usize,
}

impl SharedHub {
    /// A hub with `ports` ports sharing a `medium_bps` medium.
    ///
    /// # Panics
    ///
    /// Panics if `ports < 2` or `medium_bps == 0`.
    pub fn new(ports: usize, medium_bps: u64) -> Self {
        assert!(ports >= 2, "a hub needs at least 2 ports");
        assert!(medium_bps > 0, "medium must have bandwidth");
        SharedHub {
            ports,
            medium_bps,
            queue: VecDeque::new(),
            in_flight: None,
            busy_until: SimTime::ZERO,
            frames_repeated: 0,
            peak_queue: 0,
        }
    }

    fn air_time(&self, len: usize) -> SimDuration {
        // Reuse the link model's framing overhead accounting.
        LinkSpec::ideal().with_bandwidth_bps(self.medium_bps).serialization_time(len)
    }

    /// Starts transmitting the next queued frame if the medium is idle.
    fn start_next(&mut self, ctx: &mut Context) {
        if self.in_flight.is_some() {
            return; // medium busy; completion timer already armed
        }
        let Some((ingress, frame)) = self.queue.pop_front() else {
            return;
        };
        // The frame occupies the medium for its air time; receivers
        // complete reception (and we repeat it to every other port) at
        // the end of that interval.
        let air = self.air_time(frame.len());
        self.busy_until = ctx.now() + air;
        self.in_flight = Some((ingress, frame));
        ctx.set_timer_at(self.busy_until, TOK_DRAIN);
    }
}

impl Node for SharedHub {
    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
        self.queue.push_back((port, frame));
        self.peak_queue = self.peak_queue.max(self.queue.len());
        self.start_next(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        if token != TOK_DRAIN || ctx.now() < self.busy_until {
            return;
        }
        if let Some((ingress, frame)) = self.in_flight.take() {
            for p in 0..self.ports {
                if p != ingress.0 {
                    ctx.send_frame(PortId(p), frame.clone());
                }
            }
            self.frames_repeated += 1;
        }
        self.start_next(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::sim::Simulator;

    struct Talker {
        burst: usize,
        len: usize,
        heard: Vec<SimTime>,
    }

    impl Node for Talker {
        fn on_start(&mut self, ctx: &mut Context) {
            for _ in 0..self.burst {
                ctx.send_frame(PortId(0), Bytes::from(vec![0u8; self.len]));
            }
        }
        fn on_frame(&mut self, _p: PortId, _f: Bytes, ctx: &mut Context) {
            self.heard.push(ctx.now());
        }
    }

    #[test]
    fn medium_serializes_one_frame_at_a_time() {
        let mut sim = Simulator::new();
        // 1230B + 20B overhead = 10_000 bits; at 1 Mbit/s = 10 ms each.
        let hub = sim.add_node("shub", SharedHub::new(3, 1_000_000));
        let a = sim.add_node("a", Talker { burst: 3, len: 1230, heard: vec![] });
        let b = sim.add_node("b", Talker { burst: 0, len: 0, heard: vec![] });
        let c = sim.add_node("c", Talker { burst: 0, len: 0, heard: vec![] });
        sim.connect(a, PortId(0), hub, PortId(0), LinkSpec::ideal());
        sim.connect(b, PortId(0), hub, PortId(1), LinkSpec::ideal());
        sim.connect(c, PortId(0), hub, PortId(2), LinkSpec::ideal());
        sim.run_for(SimDuration::from_secs(1));
        let heard = &sim.node_ref::<Talker>(b).heard;
        assert_eq!(heard.len(), 3);
        // Reception completes one air time after transmission starts,
        // then arrivals pace at the 10 ms air time.
        assert_eq!(heard[0], SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(heard[1].duration_since(heard[0]), SimDuration::from_millis(10));
        assert_eq!(heard[2].duration_since(heard[1]), SimDuration::from_millis(10));
        // Both listeners hear every frame at the same instant.
        assert_eq!(heard, &sim.node_ref::<Talker>(c).heard);
        assert_eq!(sim.node_ref::<SharedHub>(hub).frames_repeated, 3);
        assert!(sim.node_ref::<SharedHub>(hub).peak_queue >= 2);
    }

    #[test]
    fn contention_between_stations_shares_the_medium() {
        let mut sim = Simulator::new();
        let hub = sim.add_node("shub", SharedHub::new(3, 1_000_000));
        let a = sim.add_node("a", Talker { burst: 2, len: 1230, heard: vec![] });
        let b = sim.add_node("b", Talker { burst: 2, len: 1230, heard: vec![] });
        let c = sim.add_node("c", Talker { burst: 0, len: 0, heard: vec![] });
        sim.connect(a, PortId(0), hub, PortId(0), LinkSpec::ideal());
        sim.connect(b, PortId(0), hub, PortId(1), LinkSpec::ideal());
        sim.connect(c, PortId(0), hub, PortId(2), LinkSpec::ideal());
        sim.run_for(SimDuration::from_secs(1));
        // Four frames total over a shared medium: the last arrives at
        // 40 ms, not 20 ms (as two independent links would allow).
        let heard = &sim.node_ref::<Talker>(c).heard;
        assert_eq!(heard.len(), 4);
        assert_eq!(heard[3], SimTime::ZERO + SimDuration::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "at least 2 ports")]
    fn tiny_hub_rejected() {
        let _ = SharedHub::new(1, 1);
    }
}
