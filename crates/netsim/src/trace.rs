//! Frame-level observability: counters, optional frame log, and probes.
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

/// A recorded frame transmission (only when frame recording is enabled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRecord {
    /// Departure time.
    pub time: SimTime,
    /// Link traversed.
    pub link: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Frame length in bytes.
    pub len: usize,
}

/// Aggregate counters plus the optional frame log.
#[derive(Debug, Default)]
pub struct Trace {
    /// Total events the simulator has processed.
    pub events_processed: u64,
    /// Frames handed to a live node: one `on_frame` call each.
    pub frames_delivered: u64,
    /// Unicast frames for another station that a live node's NIC
    /// discarded ([`crate::Context::set_nic_filter`]) and the node never
    /// saw; with `frames_delivered`, everything that reached a NIC.
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
    /// The frame log, populated only when recording is on.
    pub frames: Vec<FrameRecord>,
    record: bool,
}

impl Trace {
    /// Turns per-frame recording on or off. Off by default: a 100 MB bulk
    /// run transmits ~150k frames and recording them all is only useful
    /// for targeted assertions.
    pub fn set_recording(&mut self, on: bool) {
        self.record = on;
    }

    /// Whether per-frame recording is on.
    pub fn recording(&self) -> bool {
        self.record
    }

    pub(crate) fn record_frame(&mut self, rec: FrameRecord) {
        if self.record {
            self.frames.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_gate() {
        let mut t = Trace::default();
        let rec = FrameRecord {
            time: SimTime::ZERO,
            link: LinkId(0),
            from: NodeId(0),
            to: NodeId(1),
            len: 60,
        };
        t.record_frame(rec.clone());
        assert!(t.frames.is_empty(), "recording should default to off");
        t.set_recording(true);
        assert!(t.recording());
        t.record_frame(rec.clone());
        assert_eq!(t.frames, vec![rec]);
    }
}
