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
//! * **Pages** — slots live in pages of `PAGE` slots. The first page
//!   grows 1, 2, 4, … slots up to a page, so a one-connection stack (a
//!   fleet client) holds one slot; every later page is allocated whole
//!   and never moves or is copied. A slab that doubled one vector held
//!   up to half its slots vacant, and while it grew the old copy too: on
//!   a 10 000-client fleet that reallocation set the run's peak.
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
    /// The slot's generation (see [`SockId`]), here rather than beside
    /// the slot's state so that it fills the TCB's padding.
    generation: u32,
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
        Conn {
            tcb,
            generation: 0,
            queue_on_sync: false,
            queued_poll: false,
            queued_activity: false,
        }
    }
}

// A slot stores its `Conn` inline: dense storage, no per-connection
// pointer chase. Room for a slot costs a `Conn`'s footprint, so the
// slab grows a page at a time: besides its free list it holds less
// than a page of room it has not used.
#[allow(clippy::large_enum_variant)]
enum Slot {
    /// Free slot; `next_free` is the index of the next vacant slot in the
    /// intrusive free list (`u32::MAX` terminates the chain).
    Vacant {
        generation: u32,
        next_free: u32,
    },
    Occupied(Conn),
}

const FREE_END: u32 = u32::MAX;

/// Slots per page, a power of two. `fleet_churn`'s peak (seed 1) only
/// rose from 32 slots a page to 512 (EXPERIMENTS.md "PR 44"): a larger
/// page leaves more room unused at the end of the last one.
pub(crate) const PAGE: usize = 32;
const PAGE_SHIFT: u32 = PAGE.trailing_zeros();

/// The connection slab. See the module docs.
pub(crate) struct TcbSlab {
    /// Slots `0..PAGE`: the first page, which grows 1, 2, 4, … slots up
    /// to `PAGE`, so a one-connection stack holds one slot.
    first: Vec<Slot>,
    /// Slots from `PAGE` on, `PAGE` to a page. A page is allocated
    /// whole and never moves. The list is boxed: a slab that never
    /// outgrows its first page (every client's) pays one pointer for it,
    /// not a `Vec` header; only a slab past one page pays the box.
    #[allow(clippy::box_collection)]
    pages: Option<Box<Vec<Vec<Slot>>>>,
    free_head: u32,
    live: u32,
}

impl TcbSlab {
    pub(crate) fn new() -> Self {
        TcbSlab { first: Vec::new(), pages: None, free_head: FREE_END, live: 0 }
    }

    /// Number of live connections.
    pub(crate) fn len(&self) -> usize {
        self.live as usize
    }

    /// Slots ever appended, live or vacant.
    fn slots(&self) -> usize {
        match self.pages.as_deref() {
            None => self.first.len(),
            Some(pages) => PAGE * pages.len() + pages.last().map_or(0, Vec::len),
        }
    }

    fn slot(&self, index: usize) -> Option<&Slot> {
        match index.checked_sub(PAGE) {
            None => self.first.get(index),
            Some(i) => self.pages.as_ref()?.get(i >> PAGE_SHIFT)?.get(i & (PAGE - 1)),
        }
    }

    fn slot_mut(&mut self, index: usize) -> Option<&mut Slot> {
        match index.checked_sub(PAGE) {
            None => self.first.get_mut(index),
            Some(i) => self.pages.as_mut()?.get_mut(i >> PAGE_SHIFT)?.get_mut(i & (PAGE - 1)),
        }
    }

    /// O(1) insert: pops the free-list head or appends a fresh slot.
    pub(crate) fn insert(&mut self, mut conn: Conn) -> SockId {
        self.live += 1;
        if self.free_head != FREE_END {
            let idx = self.free_head;
            let slot = self.slot_mut(idx as usize).expect("the free list names a slot");
            let Slot::Vacant { generation, next_free } = *slot else {
                unreachable!("free list points at an occupied slot")
            };
            conn.generation = generation;
            *slot = Slot::Occupied(conn);
            self.free_head = next_free;
            return SockId::new(idx, generation);
        }
        let idx = u32::try_from(self.slots()).expect("slab capped at 2^32 slots");
        conn.generation = 1;
        self.fresh_slot().push(Slot::Occupied(conn));
        SockId::new(idx, 1)
    }

    /// The page the next fresh slot goes in, with room for it: the
    /// first page doubles up to `PAGE` slots, every later page is
    /// allocated whole.
    fn fresh_slot(&mut self) -> &mut Vec<Slot> {
        let first = self.first.len();
        if first < PAGE {
            if first == self.first.capacity() {
                self.first.reserve_exact(first.max(1));
            }
            return &mut self.first;
        }
        let pages = self.pages.get_or_insert_default();
        if pages.last().is_none_or(|page| page.len() == PAGE) {
            pages.push(Vec::with_capacity(PAGE));
        }
        pages.last_mut().expect("just ensured")
    }

    /// O(1) remove: bumps the slot generation (invalidating every
    /// outstanding handle) and pushes the slot onto the free list.
    pub(crate) fn remove(&mut self, sock: SockId) -> Option<Conn> {
        let free_head = self.free_head;
        let slot = self.slot_mut(sock.index())?;
        if !matches!(slot, Slot::Occupied(conn) if conn.generation == sock.generation()) {
            return None;
        }
        let generation = sock.generation().wrapping_add(1);
        let vacant = Slot::Vacant { generation, next_free: free_head };
        let Slot::Occupied(conn) = std::mem::replace(slot, vacant) else {
            unreachable!("checked occupied above")
        };
        self.free_head = sock.index() as u32;
        self.live -= 1;
        Some(conn)
    }

    pub(crate) fn get(&self, sock: SockId) -> Option<&Conn> {
        match self.slot(sock.index()) {
            Some(Slot::Occupied(conn)) if conn.generation == sock.generation() => Some(conn),
            _ => None,
        }
    }

    pub(crate) fn get_mut(&mut self, sock: SockId) -> Option<&mut Conn> {
        match self.slot_mut(sock.index()) {
            Some(Slot::Occupied(conn)) if conn.generation == sock.generation() => Some(conn),
            _ => None,
        }
    }

    /// Occupied slots in index order (deterministic).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (SockId, &Conn)> + '_ {
        let slots =
            self.first.iter().chain(self.pages.iter().flat_map(|pages| pages.iter().flatten()));
        slots.enumerate().filter_map(|(i, slot)| match slot {
            Slot::Occupied(conn) => Some((SockId::new(i as u32, conn.generation), conn)),
            Slot::Vacant { .. } => None,
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
        Conn::new(Tcb::connect(SimTime::ZERO, quad, SeqNum(1), &TcpConfig::default()))
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

    /// The address a live handle's connection sits at.
    fn addr(slab: &TcbSlab, id: SockId) -> *const Conn {
        slab.get(id).expect("live")
    }

    #[test]
    fn the_first_page_doubles_from_one_slot_and_later_pages_come_whole() {
        let mut slab = TcbSlab::new();
        let mut capacities = Vec::new();
        for i in 0..PAGE {
            slab.insert(conn(i as u16));
            capacities.push(slab.first.capacity());
        }
        capacities.dedup();
        let doubling: Vec<usize> =
            std::iter::successors(Some(1), |c| (c * 2 <= PAGE).then_some(c * 2)).collect();
        assert_eq!(capacities, doubling, "1, 2, 4, … up to one page");
        assert!(slab.pages.is_none(), "a slab within one page has no page list");
        for i in 0..2 * PAGE + 1 {
            slab.insert(conn(i as u16));
        }
        let pages = slab.pages.as_deref().expect("paged");
        assert_eq!(pages.len(), 3);
        assert!(pages.iter().all(|page| page.capacity() == PAGE), "a page is one allocation");
        assert_eq!(slab.first.capacity(), PAGE, "the first page stops at one page");
    }

    #[test]
    fn growth_never_moves_a_live_connection() {
        let mut slab = TcbSlab::new();
        let ids: Vec<SockId> = (0..PAGE + 3).map(|i| slab.insert(conn(i as u16))).collect();
        let before: Vec<*const Conn> = ids.iter().map(|&id| addr(&slab, id)).collect();
        for i in 0..4 * PAGE {
            slab.insert(conn(i as u16));
        }
        let after: Vec<*const Conn> = ids.iter().map(|&id| addr(&slab, id)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn handles_resolve_across_page_boundaries() {
        let mut slab = TcbSlab::new();
        let ids: Vec<SockId> = (0..3 * PAGE + 5).map(|i| slab.insert(conn(i as u16))).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(slab.get(id).expect("live").tcb.quad().local_port, i as u16);
        }
        for edge in [PAGE - 1, PAGE, 2 * PAGE - 1, 2 * PAGE, 3 * PAGE] {
            assert_eq!(slab.get_mut(ids[edge]).expect("live").tcb.quad().local_port, edge as u16);
        }
        assert!(slab.get(SockId::new((3 * PAGE + 5) as u32, 1)).is_none(), "never appended");
        assert!(slab.get(SockId::new((40 * PAGE) as u32, 1)).is_none(), "past every page");
    }

    #[test]
    fn a_stale_handle_to_a_slot_reused_in_a_later_page_misses() {
        let mut slab = TcbSlab::new();
        let ids: Vec<SockId> = (0..2 * PAGE + 2).map(|i| slab.insert(conn(i as u16))).collect();
        let stale = ids[PAGE + 1];
        slab.remove(stale).expect("live");
        let fresh = slab.insert(conn(7));
        assert_eq!(fresh.index(), stale.index(), "the freed slot in the second page is reused");
        assert!(slab.get(stale).is_none() && slab.remove(stale).is_none());
        assert_eq!(slab.get(fresh).expect("live").tcb.quad().local_port, 7);
        assert_eq!(slab.len(), 2 * PAGE + 2);
    }

    #[test]
    fn iteration_is_index_ordered_across_pages_with_holes() {
        let mut slab = TcbSlab::new();
        let ids: Vec<SockId> = (0..3 * PAGE).map(|i| slab.insert(conn(i as u16))).collect();
        let holes = [3, PAGE - 1, PAGE, PAGE + 9, 2 * PAGE, 3 * PAGE - 1];
        for &h in &holes {
            slab.remove(ids[h]).expect("live");
        }
        // Refill two holes, last-freed first: index order holds anyway.
        slab.insert(conn(1));
        slab.insert(conn(2));
        let refilled = [3 * PAGE - 1, 2 * PAGE];
        let expected: Vec<usize> =
            (0..3 * PAGE).filter(|i| !holes.contains(i) || refilled.contains(i)).collect();
        let order: Vec<usize> = slab.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(order, expected);
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
