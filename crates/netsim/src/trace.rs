//! Frame-level observability: counters and probes.
//!
//! The benchmark harness uses probes to classify traffic (e.g. measuring
//! the side-channel overhead claim of paper §4.3: one 128-byte ack per
//! 3 KB of client data ≈ 4.17 % extra LAN traffic) without perturbing the
//! simulation.

use crate::link::LinkId;
use crate::node::NodeId;
use crate::time::SimTime;
use bytes::Bytes;

/// One frame transmission observed by a probe.
#[derive(Debug)]
pub struct ProbeEvent<'a> {
    /// Departure time of the frame (start of propagation).
    pub time: SimTime,
    /// Link the frame traverses.
    pub link: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The raw frame.
    pub frame: &'a Bytes,
}

/// Aggregate counters.
#[derive(Debug, Default)]
pub struct Trace {
    /// Total events the simulator has processed: starts, timers, control
    /// actions and frame arrivals — which a copy a NIC refused as it went
    /// on the wire (see `frames_filtered_nic`) never is.
    pub events_processed: u64,
    /// Frames handed to a live node: one `on_frame` call each.
    pub frames_delivered: u64,
    /// Unicast frames for another station that a live node's NIC
    /// discarded ([`crate::Context::set_nic_filter`]) and the node never
    /// saw; with `frames_delivered`, everything that reached a NIC. The
    /// verdict is taken when the frame goes on the wire if nothing can
    /// change it before arrival, and such a copy is counted here without
    /// ever being an event — also if its node crashes before it lands.
    pub frames_filtered_nic: u64,
    /// Frames dropped by link loss models.
    pub frames_lost_on_link: u64,
    /// Frames dropped by node ingress [`crate::DropRule`]s.
    pub frames_dropped_ingress: u64,
    /// Frames held back by ingress [`crate::DelayRule`]s.
    pub frames_delayed_ingress: u64,
    /// Extra copies created by ingress [`crate::DuplicateRule`]s.
    pub frames_duplicated_ingress: u64,
    /// Frames addressed to a crashed node.
    pub frames_to_dead_node: u64,
    /// Frames emitted on an unwired port.
    pub frames_unwired: u64,
    /// Timers armed in one boot of a node that came due in a later one
    /// (dropped: timers do not survive a power cycle).
    pub timers_from_past_boot: u64,
}
