//! The [`Node`] trait and the [`Context`] through which nodes act.
//!
//! Nodes are sans-io state machines: the simulator calls them with frames
//! and timer wake-ups, and they respond by buffering effects (frames to
//! emit, timers to arm, control actions) into the [`Context`]. The
//! simulator applies the effects after the callback returns, which keeps
//! event ordering deterministic and sidesteps aliasing between nodes.

use crate::time::SimTime;
use bytes::Bytes;
use std::any::Any;
use std::fmt;
use wire::MacAddr;

/// Identifies a node within a [`crate::Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a port (NIC) on a node. Ports are node-local and dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A privileged action a node asks the simulator to perform.
///
/// Only "hardware" nodes should use these: the paper's power switch cuts
/// another machine's power (fencing), which no amount of packet exchange
/// can express.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlAction {
    /// Immediately crash `node`: it stops emitting, and all frames and
    /// timers addressed to it are discarded from now on.
    PowerOff(NodeId),
    /// Restore a powered-off node. Its in-memory state is NOT restored to
    /// anything meaningful (a rebooted machine loses TCP state) — the node
    /// simply starts receiving events again and gets an `on_start` call.
    PowerOn(NodeId),
    /// Stall `node` until the given instant (performance failure): its
    /// events are deferred, not lost, and its state is preserved.
    Pause(NodeId, crate::time::SimTime),
}

/// A NIC's hardware unicast filter: the station addresses it passes up
/// to its host. Group destinations (broadcast included) always pass — the
/// host knows which it joined — and so does a runt, for its parser to count.
#[derive(Debug)]
pub(crate) struct NicFilter {
    own: MacAddr,
    also: Box<[MacAddr]>,
}

impl NicFilter {
    pub(crate) fn passes(&self, frame: &[u8]) -> bool {
        let Some(dst) = frame.first_chunk().copied().map(MacAddr) else {
            return true;
        };
        dst.is_multicast() || dst == self.own || self.also.contains(&dst)
    }
}

/// Buffered effects and environment for one node callback.
///
/// Everything a node does during `on_start`/`on_frame`/`on_timer` goes
/// through this context. Frames are transmitted in the order queued.
///
/// A context carries no randomness. What a node sends is a function of
/// what it received, when, and its own state; anything a node wants to
/// draw (an ISN, a jittered plan) it seeds itself, so its choices never
/// shift the streams the links and fault rules draw from.
#[derive(Debug)]
pub struct Context {
    now: SimTime,
    node: NodeId,
    /// Queued frames; a `true` marks [`Context::mirror_frame`]'s copies.
    pub(crate) frames: Vec<(PortId, Bytes, bool)>,
    pub(crate) timers: Vec<(SimTime, u64)>,
    /// The last [`Context::set_wake`] of this callback, if it made one:
    /// where the node's wake goes (`None` clears it) and its token.
    pub(crate) wake: Option<Option<(SimTime, u64)>>,
    pub(crate) control: Vec<ControlAction>,
    pub(crate) nic: Option<NicFilter>,
}

impl Context {
    pub(crate) fn new(now: SimTime, node: NodeId) -> Self {
        Context {
            now,
            node,
            frames: Vec::new(),
            timers: Vec::new(),
            wake: None,
            control: Vec::new(),
            nic: None,
        }
    }

    /// Re-arms a used context for the next dispatch, keeping the effect
    /// vectors' capacity so a steady-state dispatch never allocates.
    pub(crate) fn rearm(&mut self, now: SimTime, node: NodeId) {
        self.now = now;
        self.node = node;
        self.frames.clear();
        self.timers.clear();
        self.wake = None;
        self.control.clear();
        self.nic = None;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Queues `frame` for transmission out of `port`.
    ///
    /// If the port is not wired to a link the frame is silently dropped
    /// (like a cable that isn't plugged in) and counted in the trace.
    pub fn send_frame(&mut self, port: PortId, frame: Bytes) {
        self.frames.push((port, frame, false));
    }

    /// Queues a monitor port's copy of the frame [`Context::send_frame`]
    /// queued last, for transmission out of `port`. A SPAN session copies
    /// a frame as the monitored port transmits it, so the copy starts
    /// onto its wire no earlier than that frame starts onto its own: on
    /// links alike, it never overtakes the frame it copies.
    pub fn mirror_frame(&mut self, port: PortId, frame: Bytes) {
        self.frames.push((port, frame, true));
    }

    /// Arms a one-shot timer that fires `on_timer(token)` at absolute
    /// time `at`. Every timer armed is delivered, however many a node
    /// arms, except across a power cycle: a timer dies with the boot that
    /// armed it and never reaches a later one. A deadline that moves — a
    /// retransmission timeout, a delayed ACK — belongs in the node's
    /// wake ([`Context::set_wake`]), which moves instead of multiplying.
    /// `at` values in the past fire immediately after the current event.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) {
        self.timers.push((at.max(self.now), token));
    }

    /// Arms a timer `after` from now. Convenience over [`Self::set_timer_at`].
    pub fn set_timer_after(&mut self, after: crate::time::SimDuration, token: u64) {
        self.set_timer_at(self.now + after, token);
    }

    /// Moves this node's one wake to `at`, or clears it with `None`;
    /// when it comes due the simulator calls `on_timer(token)` and the
    /// wake is spent. A node has at most one wake: each call replaces
    /// what the last one set (only a callback's last call counts), so a
    /// wake that moved is never delivered at its old time — not as an
    /// event, not as a call. A move orders among same-instant events as
    /// if the wake were armed anew, so a node whose deadline has not
    /// changed should leave its wake alone. A pause defers the wake to
    /// the pause's end; a power-off clears it. `at` values in the past
    /// come due immediately after the current event.
    pub fn set_wake(&mut self, at: Option<SimTime>, token: u64) {
        self.wake = Some(at.map(|at| (at.max(self.now), token)));
    }

    /// Programs this node's NIC with a hardware unicast filter: from the
    /// end of this callback on, a unicast frame for neither `own` nor one
    /// of `also` is discarded by the NIC — counted in
    /// [`crate::Trace::frames_filtered_nic`], never handed to
    /// [`Node::on_frame`] — the way a station discards what a switch
    /// floods past it. Group frames always reach the host (`also` skips them).
    ///
    /// A node that never calls this (a hub, a switch, a promiscuous tap)
    /// sees every frame. A power cycle resets the NIC: the next
    /// `on_start` must program it again — and `on_start` is where to
    /// call this, since a boot's filter is taken to be static: a frame
    /// it refuses is judged as it goes on the wire, charged to its link
    /// in full and never scheduled, unless the node is down or paused
    /// at that instant or has ingress fault rules, which judge first.
    pub fn set_nic_filter(&mut self, own: MacAddr, also: impl IntoIterator<Item = MacAddr>) {
        let also = also.into_iter().filter(|mac| !mac.is_multicast()).collect();
        self.nic = Some(NicFilter { own, also });
    }

    /// Requests a privileged control action (see [`ControlAction`]).
    pub fn control(&mut self, action: ControlAction) {
        self.control.push(action);
    }
}

/// A device attached to the simulated network.
///
/// Implementors must also be `Any` (automatic for `'static` types) so the
/// simulator can hand back concrete references after a run via
/// [`crate::Simulator::node_ref`].
pub trait Node: Any {
    /// Called once when the simulation starts (or when the node is
    /// powered back on). Default: do nothing.
    fn on_start(&mut self, ctx: &mut Context) {
        let _ = ctx;
    }

    /// Called when a frame arrives on `port`.
    fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context);

    /// Called when a timer armed via [`Context::set_timer_at`] fires or
    /// the wake set by [`Context::set_wake`] comes due. Default: do nothing.
    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        let _ = (token, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Null;
    impl Node for Null {
        fn on_frame(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut Context) {}
    }

    #[test]
    fn context_buffers_effects_in_order() {
        let mut ctx = Context::new(SimTime::from_nanos(100), NodeId(3));
        ctx.send_frame(PortId(0), Bytes::from_static(b"a"));
        ctx.send_frame(PortId(1), Bytes::from_static(b"b"));
        ctx.set_timer_after(SimDuration::from_nanos(50), 7);
        ctx.control(ControlAction::PowerOff(NodeId(9)));
        assert_eq!(ctx.frames.len(), 2);
        assert_eq!(ctx.frames[0].0, PortId(0));
        assert_eq!(ctx.timers, vec![(SimTime::from_nanos(150), 7)]);
        assert_eq!(ctx.control, vec![ControlAction::PowerOff(NodeId(9))]);
        assert_eq!(ctx.node_id(), NodeId(3));
        assert_eq!(ctx.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn nic_filter_judges_by_destination_only() {
        let mut ctx = Context::new(SimTime::ZERO, NodeId(0));
        ctx.set_nic_filter(MacAddr::local(1), [MacAddr::local(2)]);
        let nic = ctx.nic.take().expect("buffered like any other effect");
        let to = |dst: MacAddr| [&dst.0[..], &[0u8; 58]].concat();
        assert!(nic.passes(&to(MacAddr::local(1))) && nic.passes(&to(MacAddr::local(2))));
        assert!(
            nic.passes(&to(MacAddr::BROADCAST)) && nic.passes(&to(MacAddr([1, 0, 0x5e, 0, 0, 7])))
        );
        assert!(!nic.passes(&to(MacAddr::local(3))));
        assert!(nic.passes(&[2, 0, 0]), "a runt is the host's parser's to count");
    }

    #[test]
    fn past_timers_clamp_to_now() {
        let mut ctx = Context::new(SimTime::from_nanos(100), NodeId(0));
        ctx.set_timer_at(SimTime::from_nanos(10), 1);
        assert_eq!(ctx.timers[0].0, SimTime::from_nanos(100));
    }

    #[test]
    fn default_trait_methods_are_noops() {
        let mut n = Null;
        let mut ctx = Context::new(SimTime::ZERO, NodeId(0));
        n.on_start(&mut ctx);
        n.on_timer(0, &mut ctx);
        assert!(ctx.frames.is_empty() && ctx.timers.is_empty());
    }

    #[test]
    fn ids_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(PortId(2).to_string(), "p2");
    }
}
