//! Generation-tagged connection slab: O(1) insert/lookup/remove for
//! TCBs, the storage half of the connection-scale hot path.
//!
//! The stack used to keep connections in a `Vec<Option<Tcb>>`: inserting
//! scanned for the first free slot (O(n)) and a released index could be
//! handed out again while stale `SockId` copies were still in flight —
//! the classic ABA aliasing hazard. This slab fixes both:
//!
//! * **Intrusive free list** — vacant slots form a LIFO chain threaded
//!   through the slot array itself, so allocation pops the head in O(1)
//!   with no auxiliary storage and no scan.
//! * **Generation tags** — every slot carries a generation counter that
//!   is bumped on release. A [`SockId`] packs `(generation, index)` into
//!   one `u64`; a stale handle (older generation) simply stops resolving
//!   instead of silently aliasing whichever connection reused the slot.
//!
//! Iteration order over occupied slots is index order, which keeps every
//! consumer (frame emission, engine sweeps) fully deterministic no matter
//! in which order slots were freed and reused.

use crate::tcb::Tcb;
use std::fmt;

/// Handle to a TCP connection owned by a `NetStack`.
///
/// Packs a slab index (low 32 bits) and a generation tag (high 32 bits)
/// into one `u64`. Handles are cheap to copy and safe to hold across a
/// connection's death: once the slot is released, the generation moves on
/// and the old handle resolves to `None` everywhere.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SockId(u64);

impl SockId {
    /// Rebuilds a handle from its raw `u64` form (see [`SockId::raw`]).
    pub fn from_raw(raw: u64) -> Self {
        SockId(raw)
    }

    /// The handle as a raw `u64` — stable, unique per (slot, generation),
    /// suitable as a timer token or map key in embedding layers.
    pub fn raw(self) -> u64 {
        self.0
    }

    pub(crate) fn new(index: u32, generation: u32) -> Self {
        SockId((u64::from(generation) << 32) | u64::from(index))
    }

    pub(crate) fn index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl fmt::Debug for SockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SockId({}v{})", self.index(), self.generation())
    }
}

/// Per-connection bookkeeping kept alongside the TCB in its slot.
pub(crate) struct Conn {
    /// The connection state machine itself.
    pub tcb: Tcb,
    /// Set on a passive open: the socket joins the accept queue of its
    /// local port's listener when it synchronizes (which clears this).
    pub queue_on_sync: bool,
    /// Whether the socket is already queued for the next poll pass.
    pub queued_poll: bool,
    /// Whether the socket is already queued on the embedder-visible
    /// activity list.
    pub queued_activity: bool,
}

impl Conn {
    pub(crate) fn new(tcb: Tcb) -> Self {
        Conn { tcb, queue_on_sync: false, queued_poll: false, queued_activity: false }
    }
}

// Storing `Conn` inline is the point of the slab: dense storage, no
// per-connection pointer chase. Vacant slots paying `Conn`'s footprint
// is the accepted trade.
#[allow(clippy::large_enum_variant)]
enum SlotState {
    /// Free slot; `next_free` is the index of the next vacant slot in the
    /// intrusive free list (`u32::MAX` terminates the chain).
    Vacant {
        next_free: u32,
    },
    Occupied(Conn),
}

struct Slot {
    generation: u32,
    state: SlotState,
}

const FREE_END: u32 = u32::MAX;

/// The connection slab. See the module docs.
pub(crate) struct TcbSlab {
    slots: Vec<Slot>,
    free_head: u32,
    live: usize,
}

impl TcbSlab {
    pub(crate) fn new() -> Self {
        TcbSlab { slots: Vec::new(), free_head: FREE_END, live: 0 }
    }

    /// Number of live connections.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// O(1) insert: pops the free-list head or appends a fresh slot.
    pub(crate) fn insert(&mut self, conn: Conn) -> SockId {
        self.live += 1;
        if self.free_head != FREE_END {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            match slot.state {
                SlotState::Vacant { next_free } => self.free_head = next_free,
                SlotState::Occupied(_) => unreachable!("free list points at an occupied slot"),
            }
            slot.state = SlotState::Occupied(conn);
            SockId::new(idx, slot.generation)
        } else {
            let idx = u32::try_from(self.slots.len()).expect("slab capped at 2^32 slots");
            self.slots.push(Slot { generation: 1, state: SlotState::Occupied(conn) });
            SockId::new(idx, 1)
        }
    }

    /// O(1) remove: bumps the slot generation (invalidating every
    /// outstanding handle) and pushes the slot onto the free list.
    pub(crate) fn remove(&mut self, sock: SockId) -> Option<Conn> {
        let slot = self.slots.get_mut(sock.index())?;
        if slot.generation != sock.generation() || !matches!(slot.state, SlotState::Occupied(_)) {
            return None;
        }
        slot.generation = slot.generation.wrapping_add(1);
        let state =
            std::mem::replace(&mut slot.state, SlotState::Vacant { next_free: self.free_head });
        self.free_head = sock.index() as u32;
        self.live -= 1;
        match state {
            SlotState::Occupied(conn) => Some(conn),
            SlotState::Vacant { .. } => unreachable!("checked occupied above"),
        }
    }

    pub(crate) fn get(&self, sock: SockId) -> Option<&Conn> {
        match self.slots.get(sock.index()) {
            Some(Slot { generation, state: SlotState::Occupied(conn) })
                if *generation == sock.generation() =>
            {
                Some(conn)
            }
            _ => None,
        }
    }

    pub(crate) fn get_mut(&mut self, sock: SockId) -> Option<&mut Conn> {
        match self.slots.get_mut(sock.index()) {
            Some(Slot { generation, state: SlotState::Occupied(conn) })
                if *generation == sock.generation() =>
            {
                Some(conn)
            }
            _ => None,
        }
    }

    /// Occupied slots in index order (deterministic).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SockId, &Conn)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, slot)| match &slot.state {
            SlotState::Occupied(conn) => Some((SockId::new(i as u32, slot.generation), conn)),
            SlotState::Vacant { .. } => None,
        })
    }

    /// Mutable variant of [`TcbSlab::iter`].
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (SockId, &mut Conn)> + '_ {
        self.slots.iter_mut().enumerate().filter_map(|(i, slot)| match &mut slot.state {
            SlotState::Occupied(conn) => Some((SockId::new(i as u32, slot.generation), conn)),
            SlotState::Vacant { .. } => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Quad, TcpConfig};
    use crate::seq::SeqNum;
    use netsim::SimTime;
    use std::net::Ipv4Addr;

    fn conn(port: u16) -> Conn {
        let quad = Quad::new(Ipv4Addr::new(10, 0, 0, 1), port, Ipv4Addr::new(10, 0, 0, 2), 80);
        Conn::new(Tcb::connect(SimTime::ZERO, quad, SeqNum(1), TcpConfig::default()))
    }

    #[test]
    fn insert_reuses_freed_slot_with_new_generation() {
        let mut slab = TcbSlab::new();
        let a = slab.insert(conn(1000));
        let b = slab.insert(conn(1001));
        assert_eq!(slab.len(), 2);
        slab.remove(a).expect("live");
        assert_eq!(slab.len(), 1);
        let c = slab.insert(conn(1002));
        // LIFO free list: the freed slot is reused...
        assert_eq!(c.index(), a.index());
        // ...under a different generation, so handles stay distinct.
        assert_ne!(c, a);
        assert_ne!(c.raw(), a.raw());
        assert!(slab.get(a).is_none(), "stale handle must not resolve");
        assert!(slab.get(c).is_some());
        assert!(slab.get(b).is_some());
    }

    #[test]
    fn double_remove_is_none() {
        let mut slab = TcbSlab::new();
        let a = slab.insert(conn(1000));
        assert!(slab.remove(a).is_some());
        assert!(slab.remove(a).is_none());
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn iteration_is_index_ordered() {
        let mut slab = TcbSlab::new();
        let ids: Vec<SockId> = (0..5).map(|i| slab.insert(conn(1000 + i))).collect();
        slab.remove(ids[1]).unwrap();
        slab.remove(ids[3]).unwrap();
        // Free list is LIFO (3 then 1), but iteration stays index-sorted.
        let _d = slab.insert(conn(2000)); // reuses slot 3
        let order: Vec<usize> = slab.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(order, vec![0, 2, 3, 4]);
    }

    #[test]
    fn raw_roundtrip() {
        let mut slab = TcbSlab::new();
        let a = slab.insert(conn(1000));
        let back = SockId::from_raw(a.raw());
        assert_eq!(a, back);
        assert!(slab.get(back).is_some());
    }
}
