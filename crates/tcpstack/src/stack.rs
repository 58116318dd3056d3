//! [`NetStack`]: one host's network stack (Ethernet/ARP/IPv4/TCP/UDP).
//!
//! Sans-io: raw frames go in through [`NetStack::handle_frame`], raw
//! frames come out of [`NetStack::poll`], and [`NetStack::next_deadline`]
//! tells the embedding when to call back. The `sttcp` crate builds the
//! primary/backup/client simulation nodes on top of this.
//!
//! There is one way out: every IP packet — a connection's staged
//! segment, a RST for an unknown quad, a datagram — leaves through
//! `NetStack::emit`, which decides suppression, next hop, ARP and the IP
//! ident once and composes the frame in the thread's one frame arena, a
//! [`FrameBuilder`] every stack on the thread shares (DESIGN.md §8, "The
//! egress contract"). A drained socket ring parks its storage in the
//! thread's one spare ring, which the next ring to take a byte adopts;
//! [`spare_capacity`] says how large it is.
//!
//! ST-TCP specifics handled at this layer:
//!
//! * **NIC filtering for tapping** — accepts frames for the configured
//!   multicast MACs (`SME`/`GME`) or everything in promiscuous mode;
//! * **egress suppression** — packets sourced from a suppressed IP (the
//!   backup's copy of the service VIP) are planned and then dropped
//!   before a byte of them is read, which is the paper's "replies from
//!   the backup server to the client are dropped" (§4.2), and ARP
//!   replies for a suppressed IP are never sent;
//! * **MAC learning from tapped IP traffic** — so the backup can address
//!   the client the instant it takes over;
//! * **a keyed passive-open ISS** — every server answers a SYN with the
//!   same initial sequence number ([`keyed_iss`]), so a shadow shares the
//!   primary's send space from the SYN on.

use crate::arp_cache::ArpCache;
use crate::config::{Quad, StackConfig};
use crate::seq::SeqNum;
use crate::slab::{Conn, TcbSlab};
use crate::tcb::{Env, StagedSeg, Tcb, TcpState};
use crate::udp_socket::{UdpRecv, UdpSocket};
use bytes::Bytes;
use netsim::{DetHashMap, SimDuration, SimTime, SplitMix64, TimeQueue};
use obs::{Counter, Mark, SharedRecorder, TraceEvent};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::net::Ipv4Addr;
use wire::{
    ArpOp, ArpPacket, EtherType, EthernetFrame, FrameBuilder, IpProtocol, Ipv4Packet, MacAddr,
    TcpFlags, TcpFrameHeader, TcpSegment, UdpDatagram,
};

pub use crate::slab::SockId;

/// Handle to a UDP socket owned by a [`NetStack`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpId(pub usize);

/// Errors returned by socket operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackError {
    /// The handle does not refer to a live socket.
    BadSocket,
    /// The operation is invalid in the connection's current state.
    BadState,
    /// No ephemeral port was available.
    NoPorts,
}

impl fmt::Display for StackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackError::BadSocket => write!(f, "no such socket"),
            StackError::BadState => write!(f, "operation invalid in current state"),
            StackError::NoPorts => write!(f, "ephemeral ports exhausted"),
        }
    }
}

impl std::error::Error for StackError {}

/// Stack-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackStats {
    /// Frames handed to the stack.
    pub frames_in: u64,
    /// Frames that passed the NIC filter.
    pub frames_accepted: u64,
    /// Frames rejected by the NIC filter.
    pub frames_filtered: u64,
    /// Frames/packets that failed to parse or checksum.
    pub parse_errors: u64,
    /// Frames emitted.
    pub frames_out: u64,
    /// TCP segments suppressed by egress suppression.
    pub segs_suppressed: u64,
    /// ARP replies withheld because the IP is suppressed.
    pub arps_suppressed: u64,
    /// RSTs sent for segments with no matching connection.
    pub rsts_sent: u64,
    /// IP packets dropped awaiting ARP resolution that never completed.
    pub arp_queue_drops: u64,
    /// Passive opens that closed before [`NetStack::accept`] returned
    /// them — reset or timed out half-open, or closed while queued — and
    /// whose slots the stack freed itself, since nobody holds their
    /// handles to release them.
    pub unaccepted_released: u64,
}

const ARP_RETRY: SimDuration = SimDuration::from_secs(1);
const ARP_MAX_TRIES: u32 = 3;
const EPHEMERAL_BASE: u16 = 40000;

thread_local! {
    /// The frame arena every stack on this thread composes its frames
    /// in: it holds about the bytes in flight, however many stacks send.
    static ARENA: RefCell<FrameBuilder> = RefCell::new(FrameBuilder::new());
    /// Storage a drained socket ring gave up, for the next ring on this
    /// thread about to take a byte: the largest parked since a ring last
    /// adopted it. An idle connection holds no ring storage, and the
    /// thread holds one ring's for all its stacks.
    static SPARE: RefCell<VecDeque<u8>> = const { RefCell::new(VecDeque::new()) };
}

/// The capacity of this thread's spare ring: what the drained socket
/// rings of every stack on the thread hold between them.
pub fn spare_capacity() -> usize {
    SPARE.with_borrow(VecDeque::capacity)
}

struct ArpPending {
    last_request: SimTime,
    tries: u32,
    /// Finished frames, complete but for the destination MAC.
    queued: Vec<Vec<u8>>,
}

/// What an outgoing IP packet carries; its [`Quad`] (local = source)
/// says between which endpoints.
#[derive(Clone, Copy)]
enum Packet<'a> {
    /// A TCP segment. The connection that staged it holds its payload
    /// (see [`Tcb::payload_slices`]); a RST answering a segment no
    /// connection claims has neither.
    Tcp(&'a StagedSeg, Option<SockId>),
    /// A datagram's payload.
    Udp(&'a [u8]),
}

/// One host's network stack. See the module docs.
pub struct NetStack {
    cfg: StackConfig,
    arp: ArpCache,
    /// Connection storage: generation-tagged slab, O(1) insert/remove.
    tcbs: TcbSlab,
    /// Quad demux for established/handshaking connections.
    by_quad: DetHashMap<Quad, SockId>,
    /// Listening ports, each with its accept queue: passively opened
    /// connections in the order they synchronized, until accepted.
    listeners: DetHashMap<u16, VecDeque<SockId>>,
    /// Handles queued over all listeners (nothing ready is the common
    /// case: [`NetStack::accept`] answers it without a lookup).
    ready: usize,
    /// Queued handles [`NetStack::accept`] has resolved against the slab.
    #[cfg(test)]
    accept_visits: u64,
    udps: Vec<UdpSocket>,
    /// UDP demux: destination port → `udps` index (first bind wins).
    udp_ports: DetHashMap<u16, usize>,
    /// Connection deadlines: each socket's earliest, as the queue's one
    /// entry under the socket's slab index, moved whenever it changes.
    timers: TimeQueue<SockId>,
    /// Sockets with potential work for the next poll pass. Deduplicated
    /// via `Conn::queued_poll`; drained by [`NetStack::poll_into`].
    poll_queue: Vec<SockId>,
    /// Sockets touched since the embedder last drained activity
    /// (see [`NetStack::drain_activity`]). Only fed when enabled.
    activity: Vec<SockId>,
    activity_tracking: bool,
    /// The one transmit queue: what the connection being polled staged,
    /// emitted and cleared before the next is polled (capacity reused).
    staged: Vec<StagedSeg>,
    out: VecDeque<Bytes>,
    /// Unresolved next hops, in address order (retries walk it).
    pending_arp: BTreeMap<Ipv4Addr, ArpPending>,
    /// Source IPs whose egress is dropped: none, or a backup's VIP.
    suppressed: Vec<Ipv4Addr>,
    /// Segments to a suppressed address's listening port that match no
    /// connection, since the last [`NetStack::drain_strays`].
    strays: Vec<(Quad, SeqNum)>,
    recorder: SharedRecorder,
    /// Armed by [`NetStack::unsuppress`]: the next *data* segment to
    /// leave the stack stamps the first-post-takeover-byte mark.
    takeover_watch: bool,
    isn_rng: SplitMix64,
    ip_ident: u16,
    next_ephemeral: u16,
    /// Counters.
    pub stats: StackStats,
}

impl fmt::Debug for NetStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetStack")
            .field("ip", &self.cfg.ip)
            .field("tcbs", &self.tcbs.len())
            .field("listeners", &self.listeners.keys().collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl NetStack {
    /// Builds a stack from its configuration.
    pub fn new(cfg: StackConfig) -> Self {
        let arp = ArpCache::new(cfg.static_arp.iter().copied());
        let suppressed = cfg.suppressed_ips.clone();
        let isn_rng = SplitMix64::new(cfg.isn_seed);
        NetStack {
            arp,
            suppressed,
            strays: Vec::new(),
            recorder: obs::nop(),
            takeover_watch: false,
            isn_rng,
            tcbs: TcbSlab::new(),
            by_quad: DetHashMap::default(),
            listeners: DetHashMap::default(),
            ready: 0,
            #[cfg(test)]
            accept_visits: 0,
            udps: Vec::new(),
            udp_ports: DetHashMap::default(),
            timers: TimeQueue::new(),
            poll_queue: Vec::new(),
            activity: Vec::new(),
            activity_tracking: false,
            staged: Vec::new(),
            out: VecDeque::new(),
            pending_arp: BTreeMap::new(),
            ip_ident: 0,
            next_ephemeral: EPHEMERAL_BASE,
            stats: StackStats::default(),
            cfg,
        }
    }

    /// Queues `sock` for the next poll pass (and on the embedder's
    /// activity list when tracking is enabled). Idempotent per pass;
    /// a dead handle is a no-op.
    fn mark_dirty(&mut self, sock: SockId) {
        let track = self.activity_tracking;
        if let Some(conn) = self.tcbs.get_mut(sock) {
            if !conn.queued_poll {
                conn.queued_poll = true;
                self.poll_queue.push(sock);
            }
            if track && !conn.queued_activity {
                conn.queued_activity = true;
                self.activity.push(sock);
            }
        }
    }

    /// Enables per-socket activity tracking: every socket touched by
    /// ingress, timers, or API calls is reported (once) through
    /// [`NetStack::drain_activity`]. Off by default — single-connection
    /// embedders don't pay for the list.
    pub fn set_activity_tracking(&mut self, on: bool) {
        self.activity_tracking = on;
    }

    /// Moves the accumulated activity list into `out` (appending) and
    /// resets the per-socket flags. Handles may be stale by the time the
    /// embedder looks — resolve through [`NetStack::tcb`] and skip
    /// `None`s. Order is deterministic (touch order).
    pub fn drain_activity(&mut self, out: &mut Vec<SockId>) {
        for sock in self.activity.drain(..) {
            if let Some(conn) = self.tcbs.get_mut(sock) {
                conn.queued_activity = false;
                out.push(sock);
            }
        }
    }

    /// The stack's configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Installs an observability recorder on the stack, which every
    /// connection, live or future, counts and traces through.
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    // ------------------------------------------------------ TCP sockets

    /// Starts listening on `port` (on every accepted IP).
    pub fn listen(&mut self, port: u16) {
        self.listeners.entry(port).or_default();
    }

    /// Returns the next connection a peer opened on `port`, oldest first.
    ///
    /// A passive open joins its listener's queue when its handshake
    /// completes (a shadow's included): the order is that of
    /// synchronization, and a half-open or reset handshake is never
    /// queued — the stack frees it as it closes. A queued connection
    /// that closed before this call is freed here, and one the caller
    /// released is skipped. With nothing queued on any port this is one
    /// comparison, however many connections the stack holds.
    pub fn accept(&mut self, port: u16) -> Option<SockId> {
        if self.ready == 0 {
            return None;
        }
        while let Some(sock) = self.listeners.get_mut(&port)?.pop_front() {
            self.ready -= 1;
            #[cfg(test)]
            {
                self.accept_visits += 1;
            }
            match self.state(sock) {
                Some(TcpState::Closed) => self.release_unaccepted(sock),
                Some(_) => return Some(sock),
                None => {}
            }
        }
        None
    }

    /// Opens a connection from `local_ip` (must be one of ours) to the
    /// remote endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`StackError::NoPorts`] if no ephemeral port is free.
    pub fn connect(
        &mut self,
        now: SimTime,
        remote_ip: Ipv4Addr,
        remote_port: u16,
    ) -> Result<SockId, StackError> {
        let local_port = self.alloc_ephemeral(remote_ip, remote_port)?;
        let quad = Quad::new(self.cfg.ip, local_port, remote_ip, remote_port);
        let iss = SeqNum(self.isn_rng.next_u64() as u32);
        let tcb = Tcb::connect(now, quad, iss, &self.cfg.tcp);
        Ok(self.insert_tcb(quad, tcb))
    }

    fn alloc_ephemeral(
        &mut self,
        remote_ip: Ipv4Addr,
        remote_port: u16,
    ) -> Result<u16, StackError> {
        for _ in 0..20000 {
            let port = self.next_ephemeral;
            self.next_ephemeral =
                if self.next_ephemeral >= 60000 { EPHEMERAL_BASE } else { self.next_ephemeral + 1 };
            let quad = Quad::new(self.cfg.ip, port, remote_ip, remote_port);
            if !self.by_quad.contains_key(&quad) {
                return Ok(port);
            }
        }
        Err(StackError::NoPorts)
    }

    fn insert_tcb(&mut self, quad: Quad, tcb: Tcb) -> SockId {
        let sock = self.tcbs.insert(Conn::new(tcb));
        self.by_quad.insert(quad, sock);
        self.mark_dirty(sock);
        sock
    }

    /// Queues application data; returns bytes accepted.
    ///
    /// Marks the socket for polling only when bytes were actually
    /// accepted: embedders drive read/write speculatively over every
    /// active socket each pump, and a no-op call must not re-mark the
    /// socket active or the activity list degrades to "every open
    /// connection, every pump" — O(fleet) per event.
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for a dead handle.
    pub fn write(&mut self, sock: SockId, data: &[u8]) -> Result<usize, StackError> {
        let env = Env { cfg: &self.cfg.tcp, recorder: &*self.recorder };
        let conn = self.tcbs.get_mut(sock).ok_or(StackError::BadSocket)?;
        if !data.is_empty() && conn.tcb.writable(env.cfg) > 0 {
            SPARE.with_borrow_mut(|spare| conn.tcb.adopt_send_ring(spare));
        }
        let n = conn.tcb.write(env, data);
        if n > 0 {
            self.mark_dirty(sock);
        }
        Ok(n)
    }

    /// Reads received data into `buf`; returns bytes copied.
    ///
    /// Like [`NetStack::write`], a read that copies nothing does not
    /// re-mark the socket (reading bytes can open the receive window,
    /// so a non-empty read does).
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for a dead handle.
    pub fn read(&mut self, sock: SockId, buf: &mut [u8]) -> Result<usize, StackError> {
        let env = Env { cfg: &self.cfg.tcp, recorder: &*self.recorder };
        let conn = self.tcbs.get_mut(sock).ok_or(StackError::BadSocket)?;
        let n = conn.tcb.read(env, buf);
        if n > 0 {
            self.mark_dirty(sock);
        }
        Ok(n)
    }

    /// Hands `f` every unread byte of `sock` in place — the receive
    /// ring's own slices (two calls when the bytes straddle the ring's
    /// seam), not a copy — and marks them read; returns the count. `f`
    /// also gets the stack, to write to, query or close `sock` in
    /// reply; `f` must not read `sock` or feed the stack frames (the
    /// ring is out on loan). Marks the socket like [`NetStack::read`].
    ///
    /// # Errors
    ///
    /// [`StackError::BadSocket`] for a dead handle.
    pub fn read_in_place(
        &mut self,
        sock: SockId,
        mut f: impl FnMut(&mut NetStack, &[u8]),
    ) -> Result<usize, StackError> {
        let tcb = &mut self.tcbs.get_mut(sock).ok_or(StackError::BadSocket)?.tcb;
        if tcb.readable() == 0 {
            return Ok(0);
        }
        let lent = tcb.lend_unread();
        let (front, back) = lent.slices();
        for part in [front, back] {
            if !part.is_empty() {
                f(self, part);
            }
        }
        let n = lent.len();
        let env = Env { cfg: &self.cfg.tcp, recorder: &*self.recorder };
        if let Some(conn) = self.tcbs.get_mut(sock) {
            conn.tcb.restore_unread(env, lent);
            self.mark_dirty(sock);
        }
        Ok(n)
    }

    /// Begins an orderly close.
    pub fn close(&mut self, now: SimTime, sock: SockId) {
        self.with_tcb(sock, |tcb, env| tcb.close(env, now));
    }

    /// Aborts with a RST.
    pub fn abort(&mut self, now: SimTime, sock: SockId) {
        self.with_tcb(sock, |tcb, env| tcb.abort(env, now));
    }

    /// Injects bytes recovered over the side channel into a
    /// connection's reassembly (see [`Tcb::inject_rx`]); false for a
    /// dead handle.
    pub fn inject_rx(&mut self, now: SimTime, sock: SockId, seq: SeqNum, data: &[u8]) -> bool {
        self.with_tcb(sock, |tcb, env| tcb.inject_rx(env, now, seq, data)).is_some()
    }

    /// Bytes a write to `sock` would accept right now (0 for a dead
    /// handle; see [`Tcb::writable`]).
    pub fn writable(&self, sock: SockId) -> usize {
        self.tcb(sock).map_or(0, |tcb| tcb.writable(&self.cfg.tcp))
    }

    /// Runs `f` on a live connection with the stack's [`Env`], marking
    /// it for the next poll pass like [`NetStack::tcb_mut`].
    fn with_tcb<R>(&mut self, sock: SockId, f: impl FnOnce(&mut Tcb, Env) -> R) -> Option<R> {
        self.mark_dirty(sock);
        let env = Env { cfg: &self.cfg.tcp, recorder: &*self.recorder };
        self.tcbs.get_mut(sock).map(|conn| f(&mut conn.tcb, env))
    }

    /// The connection's state, if the handle is live.
    pub fn state(&self, sock: SockId) -> Option<TcpState> {
        self.tcb(sock).map(|t| t.state())
    }

    /// Read access to a connection's full TCB (ST-TCP engines use this
    /// for `NextByteExpected`, retention introspection, etc.).
    pub fn tcb(&self, sock: SockId) -> Option<&Tcb> {
        self.tcbs.get(sock).map(|c| &c.tcb)
    }

    /// Mutable access to a connection's TCB (side-channel injection).
    /// Marks the socket for the next poll pass — external mutation may
    /// stage output or move deadlines.
    pub fn tcb_mut(&mut self, sock: SockId) -> Option<&mut Tcb> {
        self.mark_dirty(sock);
        self.tcbs.get_mut(sock).map(|c| &mut c.tcb)
    }

    /// Number of live connections.
    pub fn sock_count(&self) -> usize {
        self.tcbs.len()
    }

    /// Releases a closed connection's slot so long-running servers do
    /// not accumulate dead TCBs. The handle becomes invalid (its slot's
    /// generation moves on) and the slot is reused by future connections.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the connection is not `Closed` —
    /// release is a cleanup step, not a close operation.
    pub fn release(&mut self, sock: SockId) {
        if let Some(conn) = self.tcbs.remove(sock) {
            debug_assert_eq!(conn.tcb.state(), TcpState::Closed, "release() requires a closed TCB");
            self.unmap(conn.tcb.quad(), sock);
            self.timers.clear(sock.index());
        }
    }

    /// [`NetStack::release`] for a closed passive open nobody accepted.
    fn release_unaccepted(&mut self, sock: SockId) {
        self.release(sock);
        self.stats.unaccepted_released += 1;
    }

    /// Drops `quad`'s demux entry if it still names `sock`: once a
    /// connection closes, a new one may take its four-tuple.
    fn unmap(&mut self, quad: Quad, sock: SockId) {
        if self.by_quad.get(&quad) == Some(&sock) {
            self.by_quad.remove(&quad);
        }
    }

    /// Finds the connection with this exact four-tuple.
    pub fn sock_by_quad(&self, quad: Quad) -> Option<SockId> {
        self.by_quad.get(&quad).copied()
    }

    /// All live connections, in deterministic (slot index) order.
    pub fn socks(&self) -> impl Iterator<Item = SockId> + '_ {
        self.tcbs.iter().map(|(id, _)| id)
    }

    // ------------------------------------------------------ UDP sockets

    /// Binds a UDP socket. With several sockets on one port, datagrams
    /// go to the first bind (matching the old first-match demux).
    pub fn udp_bind(&mut self, port: u16) -> UdpId {
        self.udps.push(UdpSocket::new(port, 256));
        let idx = self.udps.len() - 1;
        self.udp_ports.entry(port).or_insert(idx);
        UdpId(idx)
    }

    /// Sends a datagram from our primary IP.
    pub fn udp_send(
        &mut self,
        now: SimTime,
        udp: UdpId,
        dst_ip: Ipv4Addr,
        dst_port: u16,
        payload: Bytes,
    ) {
        let Some(sock) = self.udps.get(udp.0) else {
            return;
        };
        let quad = Quad::new(self.cfg.ip, sock.port(), dst_ip, dst_port);
        self.emit(now, quad, [Packet::Udp(&payload)]);
    }

    /// Receives the oldest queued datagram on `udp`.
    pub fn udp_recv(&mut self, udp: UdpId) -> Option<UdpRecv> {
        self.udps.get_mut(udp.0)?.recv()
    }

    // ------------------------------------------------ ST-TCP suppression

    /// Suppresses all egress sourced from `ip` (backup shadow mode).
    pub fn suppress(&mut self, now: SimTime, ip: Ipv4Addr) {
        if !self.suppressed.contains(&ip) {
            self.suppressed.push(ip);
            self.recorder.trace(now.as_nanos(), &TraceEvent::Suppression { ip, on: true });
        }
    }

    /// Lifts suppression of `ip` — the takeover switch. "As soon as the
    /// flag is set, the kernel starts sending the packets to the client
    /// instead of dropping them" (§5).
    pub fn unsuppress(&mut self, now: SimTime, ip: Ipv4Addr) {
        let before = self.suppressed.len();
        self.suppressed.retain(|&s| s != ip);
        if self.suppressed.len() < before {
            self.takeover_watch = true;
            self.recorder.trace(now.as_nanos(), &TraceEvent::Suppression { ip, on: false });
        }
    }

    /// Moves into `out` the segments that reached a listening port of a
    /// suppressed address but matched no connection and opened none: a
    /// shadow's evidence of a connection whose handshake it missed.
    /// Each is `(quad, seq)`, the quad seen from this stack.
    pub fn drain_strays(&mut self, out: &mut Vec<(Quad, SeqNum)>) {
        out.append(&mut self.strays);
    }

    /// Whether `ip`'s egress is currently suppressed.
    pub fn is_suppressed(&self, ip: Ipv4Addr) -> bool {
        self.suppressed.contains(&ip)
    }

    // ---------------------------------------------------------- ingress

    /// Processes one received frame. A frame that passed the NIC filter
    /// but is addressed to none of this stack's IPs (a promiscuous
    /// host's flood or hub copy) is dropped once its IP header parsed.
    pub fn handle_frame(&mut self, now: SimTime, raw: Bytes) {
        self.stats.frames_in += 1;
        let Ok(eth) = EthernetFrame::parse(raw) else {
            self.stats.parse_errors += 1;
            return;
        };
        let for_us = |(own, also): (MacAddr, &[MacAddr])| eth.dst == own || also.contains(&eth.dst);
        if !(eth.dst.is_broadcast() || self.cfg.nic_macs().is_none_or(for_us)) {
            self.stats.frames_filtered += 1;
            return;
        }
        self.stats.frames_accepted += 1;
        match eth.ethertype {
            EtherType::Arp => self.handle_arp(now, &eth),
            EtherType::Ipv4 => self.handle_ip(now, eth),
            EtherType::Other(_) => {}
        }
    }

    fn handle_arp(&mut self, now: SimTime, eth: &EthernetFrame) {
        let Ok(arp) = ArpPacket::parse(&eth.payload) else {
            self.stats.parse_errors += 1;
            return;
        };
        self.arp.learn(arp.sender_ip, arp.sender_mac);
        self.flush_arp_queue(now, arp.sender_ip);
        if arp.op == ArpOp::Request && self.cfg.all_ips().any(|ip| ip == arp.target_ip) {
            if self.suppressed.contains(&arp.target_ip) {
                self.stats.arps_suppressed += 1;
                return;
            }
            let reply = ArpPacket::reply(self.cfg.mac, arp.target_ip, &arp);
            let frame =
                EthernetFrame::new(arp.sender_mac, self.cfg.mac, EtherType::Arp, reply.encode());
            self.out.push_back(frame.encode());
        }
    }

    fn handle_ip(&mut self, now: SimTime, eth: EthernetFrame) {
        let Ok(ip) = Ipv4Packet::parse(eth.payload) else {
            self.stats.parse_errors += 1;
            return;
        };
        if self.cfg.learn_from_ip && !eth.src.is_multicast() {
            self.arp.learn(ip.src, eth.src);
            self.flush_arp_queue(now, ip.src);
        }
        if !self.cfg.all_ips().any(|mine| mine == ip.dst) {
            return; // a promiscuous copy addressed elsewhere
        }
        match ip.protocol {
            IpProtocol::Tcp => self.handle_tcp(now, ip),
            IpProtocol::Udp => self.handle_udp(ip),
            IpProtocol::Other(_) => {}
        }
    }

    fn handle_tcp(&mut self, now: SimTime, ip: Ipv4Packet) {
        let (src, dst) = (ip.src, ip.dst);
        let Ok(seg) = TcpSegment::parse(ip.payload, src, dst) else {
            self.stats.parse_errors += 1;
            return;
        };
        let quad = Quad::new(dst, seg.dst_port, src, seg.src_port);
        if let Some(&sock) = self.by_quad.get(&quad) {
            let env = Env { cfg: &self.cfg.tcp, recorder: &*self.recorder };
            if let Some(conn) = self.tcbs.get_mut(sock) {
                if !seg.payload.is_empty() {
                    SPARE.with_borrow_mut(|spare| conn.tcb.adopt_recv_ring(spare));
                }
                conn.tcb.on_segment(env, now, &seg);
                let state = conn.tcb.state();
                if state == TcpState::Closed {
                    self.by_quad.remove(&quad);
                    if conn.queue_on_sync {
                        return self.release_unaccepted(sock);
                    }
                } else if state.is_synchronized() && std::mem::take(&mut conn.queue_on_sync) {
                    let listener = self.listeners.get_mut(&quad.local_port);
                    listener.expect("a passive open has a listener").push_back(sock);
                    self.ready += 1;
                }
                self.mark_dirty(sock);
                return;
            }
        }
        // No connection. A SYN to a listening port spawns one.
        if seg.flags.contains(TcpFlags::SYN)
            && !seg.flags.contains(TcpFlags::ACK)
            && self.listeners.contains_key(&seg.dst_port)
        {
            let iss = keyed_iss(quad, SeqNum(seg.seq));
            let tcb = Tcb::accept(now, quad, iss, &seg, &self.cfg.tcp);
            let sid = self.insert_tcb(quad, tcb);
            self.tcbs.get_mut(sid).expect("just inserted").queue_on_sync = true;
            return;
        }
        // Otherwise: RST (never in response to a RST).
        if !seg.flags.contains(TcpFlags::RST) {
            if self.suppressed.contains(&dst) && self.listeners.contains_key(&seg.dst_port) {
                self.strays.push((quad, SeqNum(seg.seq)));
            }
            let (seq, ack, flags) = if seg.flags.contains(TcpFlags::ACK) {
                (seg.ack, 0, TcpFlags::RST)
            } else {
                (0, seg.seq.wrapping_add(seg.seq_len()), TcpFlags::RST | TcpFlags::ACK)
            };
            let rst =
                StagedSeg { seq: SeqNum(seq), ack, len: 0, window: 0, flags, options: Vec::new() };
            self.stats.rsts_sent += 1;
            self.emit(now, quad, [Packet::Tcp(&rst, None)]);
        }
    }

    fn handle_udp(&mut self, ip: Ipv4Packet) {
        let (src, dst) = (ip.src, ip.dst);
        let Ok(dgram) = UdpDatagram::parse(ip.payload, src, dst) else {
            self.stats.parse_errors += 1;
            return;
        };
        if let Some(&idx) = self.udp_ports.get(&dgram.dst_port) {
            self.udps[idx].deliver(UdpRecv {
                src_ip: src,
                src_port: dgram.src_port,
                payload: dgram.payload,
            });
        }
    }

    // ----------------------------------------------------------- egress

    /// Drives timers and collects every frame ready to transmit.
    pub fn poll(&mut self, now: SimTime) -> Vec<Bytes> {
        let mut frames = Vec::new();
        self.poll_into(now, &mut frames);
        frames
    }

    /// Drives timers and appends every ready frame to `frames`.
    ///
    /// The allocation-lean form of [`NetStack::poll`]: callers keep and
    /// reuse `frames`, every connection stages into the stack's one
    /// queue, and data payloads flow from the send-buffer ring straight
    /// into the thread's frame arena — one memcpy, zero allocations per
    /// frame at steady state.
    ///
    /// O(active): only sockets touched since the last poll (ingress, API
    /// calls, `tcb_mut`) or with a deadline that has come due are
    /// visited — idle connections cost nothing, no matter how many
    /// exist.
    ///
    /// Returns how many sockets had a deadline due. Zero, with no frame
    /// appended, tells an embedder that woke for
    /// [`NetStack::next_deadline`] that the wake was for nothing.
    pub fn poll_into(&mut self, now: SimTime, frames: &mut Vec<Bytes>) -> usize {
        self.retry_arp(now);
        // Sockets whose deadline came due join the pass. (A deadline the
        // last frame moved later is not re-filed until the visit below,
        // so its old entry may pop here: the socket is dirty anyway.)
        let mut due = 0;
        while let Some((_, sock)) = self.timers.pop_due(now) {
            if let Some(conn) = self.tcbs.get(sock) {
                due += usize::from(conn.tcb.next_deadline().is_some_and(|d| d <= now));
                self.mark_dirty(sock);
            }
        }
        let mut staged = std::mem::take(&mut self.staged);
        let mut i = 0;
        while i < self.poll_queue.len() {
            let sock = self.poll_queue[i];
            i += 1;
            let env = Env { cfg: &self.cfg.tcp, recorder: &*self.recorder };
            let Some(conn) = self.tcbs.get_mut(sock) else {
                continue; // released since it was queued
            };
            conn.queued_poll = false;
            conn.tcb.poll_stage(env, now, &mut staged);
            let (quad, closed) = (conn.tcb.quad(), conn.tcb.state() == TcpState::Closed);
            let unaccepted = conn.queue_on_sync;
            if !staged.is_empty() {
                self.emit(now, quad, staged.iter().map(|seg| Packet::Tcp(seg, Some(sock))));
                staged.clear();
            }
            // Emitted: nothing reads a drained ring's released bytes now.
            if let Some(conn) = self.tcbs.get_mut(sock) {
                SPARE.with_borrow_mut(|spare| conn.tcb.park_rings(spare));
            }
            if closed {
                self.unmap(quad, sock);
                if unaccepted {
                    // A half-open that gave up on its handshake.
                    self.release_unaccepted(sock);
                    continue;
                }
            }
            self.rearm(sock);
        }
        self.staged = staged;
        self.poll_queue.clear();
        self.stats.frames_out += self.out.len() as u64;
        frames.extend(self.out.drain(..));
        due
    }

    /// Files `sock`'s earliest TCB deadline as its one timer entry.
    /// Called after every visit; an unchanged deadline keeps its entry
    /// (and its place among same-instant ties).
    fn rearm(&mut self, sock: SockId) {
        let Some(conn) = self.tcbs.get(sock) else {
            return;
        };
        let deadline = conn.tcb.next_deadline();
        if deadline != self.timers.deadline(sock.index()) {
            match deadline {
                Some(at) => self.timers.set(sock.index(), at, sock),
                None => self.timers.clear(sock.index()),
            }
        }
    }

    /// The earliest instant at which [`NetStack::poll`] has new work:
    /// the head of the timer queue (or an ARP retry), O(1).
    ///
    /// Exact after a poll, which every embedder performs before
    /// sleeping: it is some connection's earliest deadline (or an ARP
    /// retry), and no connection's is earlier.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let tcb_min = self.timers.peek_time();
        let arp_min = self.pending_arp.values().map(|p| p.last_request + ARP_RETRY).min();
        [tcb_min, arp_min].into_iter().flatten().min()
    }

    /// Sends IP packets from `quad`'s local end (one of our IPs) to its
    /// remote end: the single place that decides suppression, next hop,
    /// ARP (once for the lot) and the IP ident (for each), and composes
    /// the frames.
    fn emit<'a>(
        &mut self,
        now: SimTime,
        quad: Quad,
        packets: impl IntoIterator<Item = Packet<'a>>,
    ) {
        // Egress suppression covers *every* packet sourced from a
        // suppressed IP — connection segments, RSTs for unknown quads,
        // all of it. A backup that RST a client because its shadow was
        // missing would kill the very connection it exists to protect.
        let suppressed = self.suppressed.contains(&quad.local_ip);
        let route = if suppressed {
            None // nothing will be composed
        } else {
            self.next_hop(quad.remote_ip).map(|hop| (hop, self.arp.lookup(hop)))
        };
        for packet in packets {
            // The ident rule: a RST or datagram takes its ident before
            // anything can drop it; a connection's segment only once it
            // is certain to be composed. A promoted backup's first
            // frames show which idents its suppressed life consumed.
            let staged = matches!(packet, Packet::Tcp(_, Some(_)));
            let early_ident = (!staged).then(|| self.next_ident());
            if suppressed {
                self.stats.segs_suppressed += 1;
                self.recorder.count(Counter::SegsSuppressed, 1);
                continue;
            }
            if let Packet::Tcp(seg, Some(_)) = packet {
                if self.takeover_watch && seg.len > 0 {
                    self.recorder.mark_first(Mark::FirstByteAfterTakeover, now.as_nanos());
                    self.recorder
                        .trace(now.as_nanos(), &TraceEvent::FirstByte { conn: quad.trace_conn() });
                    self.takeover_watch = false;
                }
                // Wire summary: one event per segment reaching the wire.
                self.recorder.trace(
                    now.as_nanos(),
                    &TraceEvent::WireData {
                        conn: quad.trace_conn(),
                        seq: seg.seq.raw(),
                        len: u32::from(seg.len),
                        flags: seg.flags.bits(),
                    },
                );
            }
            let Some((next_hop, mac)) = route else {
                continue; // unroutable
            };
            let ident = early_ident.unwrap_or_else(|| self.next_ident());
            let (eth_dst, eth_src) = (mac.unwrap_or(MacAddr::BROADCAST), self.cfg.mac);
            let frame = match packet {
                Packet::Tcp(seg, conn) => {
                    let hdr = TcpFrameHeader {
                        eth_dst,
                        eth_src,
                        ip_src: quad.local_ip,
                        ip_dst: quad.remote_ip,
                        ident,
                        ttl: 64,
                        src_port: quad.local_port,
                        dst_port: quad.remote_port,
                        seq: seg.seq.raw(),
                        ack: seg.ack,
                        flags: seg.flags,
                        window: seg.window,
                        options: &seg.options,
                    };
                    let payload = match conn.and_then(|sock| self.tcbs.get(sock)) {
                        Some(conn) => conn.tcb.payload_slices(seg),
                        None => (&[][..], &[][..]),
                    };
                    ARENA.with_borrow_mut(|arena| arena.tcp_frame(&hdr, payload))
                }
                Packet::Udp(payload) => ARENA.with_borrow_mut(|arena| {
                    arena.udp_frame(
                        eth_dst,
                        eth_src,
                        quad.local_ip,
                        quad.remote_ip,
                        ident,
                        64,
                        quad.local_port,
                        quad.remote_port,
                        payload,
                    )
                }),
            };
            if mac.is_some() {
                self.out.push_back(frame);
                continue;
            }
            // Park the frame until `next_hop` resolves (at most 64 per
            // hop), asking for it if nobody has yet. A copy, for the
            // reply to patch; the arena's bytes are free again at once.
            let entry = self.pending_arp.entry(next_hop).or_insert(ArpPending {
                last_request: now,
                tries: 0,
                queued: Vec::new(),
            });
            if entry.queued.len() < 64 {
                entry.queued.push(frame.to_vec());
            } else {
                self.stats.arp_queue_drops += 1;
            }
            if entry.tries == 0 {
                entry.tries = 1;
                entry.last_request = now;
                self.send_arp_request(next_hop);
            }
        }
    }

    /// Where a packet for `dst` goes next: `dst` itself on our subnet,
    /// the gateway otherwise, nowhere without one.
    fn next_hop(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        if self.cfg.on_subnet(dst) {
            Some(dst)
        } else {
            self.cfg.gateway
        }
    }

    fn retry_arp(&mut self, now: SimTime) {
        let mut to_request: Vec<Ipv4Addr> = Vec::new();
        let stats = &mut self.stats;
        self.pending_arp.retain(|&ip, pending| {
            if now.checked_duration_since(pending.last_request).is_some_and(|d| d >= ARP_RETRY) {
                if pending.tries >= ARP_MAX_TRIES {
                    stats.arp_queue_drops += pending.queued.len() as u64;
                    return false;
                }
                pending.tries += 1;
                pending.last_request = now;
                to_request.push(ip);
            }
            true
        });
        for ip in to_request {
            self.send_arp_request(ip);
        }
    }

    fn send_arp_request(&mut self, target: Ipv4Addr) {
        let req = ArpPacket::request(self.cfg.mac, self.cfg.ip, target);
        let frame =
            EthernetFrame::new(MacAddr::BROADCAST, self.cfg.mac, EtherType::Arp, req.encode());
        self.out.push_back(frame.encode());
    }

    fn flush_arp_queue(&mut self, _now: SimTime, ip: Ipv4Addr) {
        let Some(pending) = self.pending_arp.remove(&ip) else {
            return;
        };
        let Some(mac) = self.arp.lookup(ip) else {
            self.pending_arp.insert(ip, pending);
            return;
        };
        for mut frame in pending.queued {
            frame[..6].copy_from_slice(&mac.octets());
            self.out.push_back(Bytes::from(frame));
        }
    }

    fn next_ident(&mut self) -> u16 {
        self.ip_ident = self.ip_ident.wrapping_add(1);
        self.ip_ident
    }
}

/// The key of [`keyed_iss`]. A constant, not configuration: every
/// server of a chain must compute the same ISS for a SYN, and a
/// simulated deployment has no secret to keep. A real-I/O backend would
/// provision a secret shared by the chain's members instead.
const ISS_KEY: u64 = 0x5354_5443_5049_5353;

/// The initial sequence number of a passive open: RFC 6528's
/// `M + F(quad, key)`, with the client's ISN (the SYN's sequence
/// number) in place of the clock `M`. Every server that sees the SYN
/// derives the same ISS, so a shadow needs nothing from its primary to
/// share its send space (ST-TCP §4.1). For one quad the map from client
/// ISN to ISS is a bijection: two incarnations of a connection differ
/// whenever their clients' ISNs do.
pub fn keyed_iss(quad: Quad, client_isn: SeqNum) -> SeqNum {
    let word = |ip: Ipv4Addr, port: u16| u64::from(u32::from(ip)) << 16 | u64::from(port);
    let mut f = ISS_KEY;
    for w in [word(quad.local_ip, quad.local_port), word(quad.remote_ip, quad.remote_port)] {
        f = SplitMix64::new(f ^ w).next_u64();
    }
    client_isn.add((f >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StackConfig;
    use std::collections::BTreeSet;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn client() -> NetStack {
        let mut cfg = StackConfig::host(MacAddr::local(1), CLIENT_IP);
        cfg.isn_seed = 11;
        NetStack::new(cfg)
    }

    fn server() -> NetStack {
        let mut cfg = StackConfig::host(MacAddr::local(2), SERVER_IP);
        cfg.isn_seed = 22;
        NetStack::new(cfg)
    }

    /// Shuttles frames between two stacks until both go quiet, advancing
    /// a fake clock by `step` per exchange. Returns rounds used.
    fn pump(a: &mut NetStack, b: &mut NetStack, now: &mut SimTime, step: SimDuration) -> usize {
        let mut rounds = 0;
        loop {
            let fa = a.poll(*now);
            let fb = b.poll(*now);
            if fa.is_empty() && fb.is_empty() {
                return rounds;
            }
            *now += step;
            for f in fa {
                b.handle_frame(*now, f);
            }
            for f in fb {
                a.handle_frame(*now, f);
            }
            rounds += 1;
            assert!(rounds < 10_000, "pump did not converge");
        }
    }

    fn established_pair() -> (NetStack, NetStack, SockId, SockId, SimTime) {
        let mut c = client();
        let mut s = server();
        s.listen(80);
        let mut now = SimTime::ZERO;
        let csock = c.connect(now, SERVER_IP, 80).unwrap();
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        let ssock = s.accept(80).expect("server should accept");
        assert_eq!(c.state(csock), Some(TcpState::Established));
        assert_eq!(s.state(ssock), Some(TcpState::Established));
        (c, s, csock, ssock, now)
    }

    /// The ISS a server seeded with `server_seed` answers the client
    /// seeded with `client_seed` with.
    fn passive_iss(client_seed: u64, server_seed: u64) -> SeqNum {
        let mut c = client();
        c.cfg.isn_seed = client_seed;
        c.isn_rng = SplitMix64::new(client_seed);
        let mut s = server();
        s.isn_rng = SplitMix64::new(server_seed);
        s.listen(80);
        let mut now = SimTime::ZERO;
        c.connect(now, SERVER_IP, 80).unwrap();
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        let sock = s.accept(80).expect("accepted");
        s.tcb(sock).unwrap().iss()
    }

    #[test]
    fn a_passive_opens_iss_is_keyed_on_the_syn_not_seeded() {
        // Servers seeded apart answer one SYN with one ISS...
        assert_eq!(passive_iss(11, 22), passive_iss(11, 33));
        // ...and another client ISN on the same quad with another.
        assert_ne!(passive_iss(11, 22), passive_iss(12, 22));
        let quad = Quad::new(SERVER_IP, 80, CLIENT_IP, EPHEMERAL_BASE);
        let isss: BTreeSet<u32> = (0..1_000).map(|i| keyed_iss(quad, SeqNum(i)).raw()).collect();
        assert_eq!(isss.len(), 1_000, "one quad's ISS is a bijection of the client's ISN");
    }

    #[test]
    fn three_way_handshake_with_arp() {
        let (_c, s, _cs, ssock, _now) = established_pair();
        // Server learned the client ISN via the SYN.
        let tcb = s.tcb(ssock).unwrap();
        assert!(tcb.state().is_synchronized());
    }

    #[test]
    fn data_both_directions() {
        let (mut c, mut s, cs, ss, mut now) = established_pair();
        assert_eq!(c.write(cs, b"ping").unwrap(), 4);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        let mut buf = [0u8; 16];
        assert_eq!(s.read(ss, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(s.write(ss, b"pong!").unwrap(), 5);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        assert_eq!(c.read(cs, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"pong!");
    }

    #[test]
    fn read_in_place_delivers_once_and_lets_the_reader_reply() {
        let (mut c, mut s, cs, ss, mut now) = established_pair();
        assert_eq!(s.read_in_place(ss, |_, _| panic!("nothing to deliver")).unwrap(), 0);
        assert_eq!(c.write(cs, b"ping").unwrap(), 4);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        let mut got = Vec::new();
        let n = s.read_in_place(ss, |stack, data| {
            got.extend_from_slice(data);
            assert_eq!(stack.write(ss, b"pong!").unwrap(), 5, "the reader may use the socket");
        });
        assert_eq!((n.unwrap(), got.as_slice()), (4, &b"ping"[..]));
        assert_eq!(s.read(ss, &mut [0u8; 16]).unwrap(), 0, "delivered bytes are consumed");
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        let mut buf = [0u8; 16];
        assert_eq!(c.read(cs, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"pong!");
        assert!(matches!(
            s.read_in_place(SockId::from_raw(77), |_, _| ()),
            Err(StackError::BadSocket)
        ));
    }

    #[test]
    fn bulk_transfer_respects_window_and_completes() {
        let (mut c, mut s, cs, ss, mut now) = established_pair();
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        let mut buf = [0u8; 4096];
        let mut spins = 0;
        while received.len() < payload.len() {
            sent += s.write(ss, &payload[sent..]).unwrap();
            // Advance time enough for delack/rtx timers to fire if needed.
            now += SimDuration::from_millis(1);
            pump(&mut c, &mut s, &mut now, SimDuration::from_micros(50));
            loop {
                let n = c.read(cs, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                received.extend_from_slice(&buf[..n]);
            }
            spins += 1;
            assert!(spins < 10_000, "bulk transfer stalled at {}", received.len());
        }
        assert_eq!(received, payload);
    }

    #[test]
    fn orderly_close_reaches_time_wait_and_closed() {
        let (mut c, mut s, cs, ss, mut now) = established_pair();
        c.close(now, cs);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        assert_eq!(s.state(ss), Some(TcpState::CloseWait));
        assert_eq!(c.state(cs), Some(TcpState::FinWait2));
        s.close(now, ss);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        assert_eq!(s.state(ss), Some(TcpState::Closed));
        assert_eq!(c.state(cs), Some(TcpState::TimeWait));
        // TIME_WAIT expires.
        now += SimDuration::from_secs(61);
        c.poll(now);
        assert_eq!(c.state(cs), Some(TcpState::Closed));
    }

    #[test]
    fn a_socket_has_one_queue_entry_ever() {
        // The client's deadline is the SYN's RTO, goes when the SYN is
        // acknowledged, comes back as the FIN's RTO and the delayed ACK
        // for the server's reply, and ends as TIME_WAIT's 60 s. Through
        // every move the socket holds at most one entry, at its deadline.
        let (mut c, mut s, cs, ss, mut now) = established_pair();
        let one_entry = |c: &NetStack| {
            let deadline = c.tcb(cs).unwrap().next_deadline();
            assert_eq!(c.timers.len(), usize::from(deadline.is_some()), "one socket, one entry");
            assert_eq!(c.next_deadline(), deadline);
        };
        one_entry(&c);
        c.close(now, cs);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        one_entry(&c);
        assert_eq!(s.write(ss, b"bye").unwrap(), 3);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        one_entry(&c);
        s.close(now, ss);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        assert_eq!(c.state(cs), Some(TcpState::TimeWait));
        one_entry(&c);
        // That entry is TIME_WAIT's 60 s, to the nanosecond: one wake.
        assert_eq!(one_wake(&mut c), (1, 0));
        assert_eq!(c.state(cs), Some(TcpState::Closed));
        assert_eq!((c.next_deadline(), c.timers.len()), (None, 0));
    }

    /// Wakes `stack` the way an embedder does — at `next_deadline()`,
    /// which must be its connections' earliest deadline exactly — and
    /// returns what the wake found due and how many frames it sent.
    fn one_wake(stack: &mut NetStack) -> (usize, usize) {
        let at = stack.next_deadline().expect("a deadline is pending");
        let earliest = stack.socks().filter_map(|sock| stack.tcb(sock)?.next_deadline()).min();
        assert_eq!(Some(at), earliest, "next_deadline() names no connection's deadline");
        let mut frames = Vec::new();
        let due = stack.poll_into(at, &mut frames);
        (due, frames.len())
    }

    #[test]
    fn a_deadline_costs_one_wake_at_its_exact_instant() {
        let (mut c, mut s, cs, _ss, mut now) = established_pair();
        assert_eq!(c.write(cs, b"ping").unwrap(), 4);
        let request = c.poll(now);
        assert_eq!(request.len(), 1);
        now += SimDuration::from_micros(100);
        for f in request {
            s.handle_frame(now, f);
        }
        // The server owes a delayed ACK, 40 ms out: one wake, due, one
        // ACK.
        assert!(s.poll(now).is_empty());
        assert_eq!(s.next_deadline(), Some(now + SimDuration::from_millis(40)));
        assert_eq!(one_wake(&mut s), (1, 1));
        // The ACK is lost; the client's RTO (200 ms after the RTT the
        // handshake measured) is one wake and one retransmission too.
        let rto = c.next_deadline().expect("unacked data arms the RTO");
        assert!(rto >= SimTime::ZERO + SimDuration::from_millis(200));
        assert_eq!(one_wake(&mut c), (1, 1));
    }

    /// A bare segment from client port `port` to the server's port 80.
    fn from_client(port: u16, flags: TcpFlags, seq: u32, ack: u32) -> Bytes {
        let seg = TcpSegment::bare(port, 80, seq, ack, flags, 8192);
        let ip = Ipv4Packet::new(
            CLIENT_IP,
            SERVER_IP,
            IpProtocol::Tcp,
            seg.encode(CLIENT_IP, SERVER_IP),
        );
        EthernetFrame::new(MacAddr::local(2), MacAddr::local(1), EtherType::Ipv4, ip.encode())
            .encode()
    }

    #[test]
    fn the_accept_queue_holds_only_what_accept_can_return() {
        // A SYN flood: 5 000 handshakes left half-open and 5 000 reset
        // before they completed, all on one port.
        let mut s = server();
        s.listen(80);
        let now = SimTime::ZERO;
        for port in 1000..11_000u16 {
            s.handle_frame(now, from_client(port, TcpFlags::SYN, 7, 0));
            if port % 2 == 0 {
                s.handle_frame(now, from_client(port, TcpFlags::RST, 8, 0));
            }
        }
        s.poll(now);
        // Nobody can accept a reset half-open, so nobody would release
        // it: the stack frees its slot itself.
        assert_eq!(s.sock_count(), 5_000);
        assert_eq!(s.stats.unaccepted_released, 5_000);
        assert!(s.socks().all(|id| s.state(id) == Some(TcpState::SynRcvd)));
        // None of them is acceptable, and accept() knows without looking
        // at a single TCB — on every pump of every frame.
        assert_eq!(s.accept(80), None);
        assert_eq!((s.accept_visits, s.ready), (0, 0));
        assert!(s.listeners[&80].is_empty());
        // A handshake that does complete is the one thing queued.
        s.handle_frame(now, from_client(999, TcpFlags::SYN, 7, 0));
        let quad = Quad::new(SERVER_IP, 80, CLIENT_IP, 999);
        let sock = s.sock_by_quad(quad).expect("half-open");
        let iss = s.tcb(sock).unwrap().iss().raw();
        s.handle_frame(now, from_client(999, TcpFlags::ACK, 8, iss.wrapping_add(1)));
        assert_eq!(s.accept(80), Some(sock));
        assert_eq!(s.accept(80), None);
        assert_eq!((s.accept_visits, s.ready), (1, 0));
        assert_eq!(s.sock_count(), 5_001);
    }

    #[test]
    fn a_half_open_that_gives_up_frees_its_slot() {
        let mut s = server();
        s.listen(80);
        s.handle_frame(SimTime::ZERO, from_client(1000, TcpFlags::SYN, 7, 0));
        s.poll(SimTime::ZERO);
        // The client never answers: the SYN/ACK is retried with backoff
        // until the handshake is abandoned.
        let mut wakes = 0;
        while let Some(at) = s.next_deadline() {
            s.poll(at);
            wakes += 1;
            assert!(wakes < 100, "the half-open never gave up");
        }
        assert_eq!((s.sock_count(), s.stats.unaccepted_released), (0, 1));
        assert_eq!(s.sock_by_quad(Quad::new(SERVER_IP, 80, CLIENT_IP, 1000)), None);
        assert_eq!(s.accept(80), None);
    }

    #[test]
    fn accept_is_fifo_and_skips_what_died_in_the_queue() {
        let mut s = server();
        s.listen(80);
        let now = SimTime::ZERO;
        let mut socks = Vec::new();
        // SYNs arrive 1, 2, 3, 4; the handshakes complete 3, 1, 4, 2.
        for port in 1..=4u16 {
            s.handle_frame(now, from_client(port, TcpFlags::SYN, 7, 0));
            socks.push(s.sock_by_quad(Quad::new(SERVER_IP, 80, CLIENT_IP, port)).unwrap());
        }
        for port in [3u16, 1, 4, 2] {
            let iss = s.tcb(socks[usize::from(port) - 1]).unwrap().iss().raw();
            s.handle_frame(now, from_client(port, TcpFlags::ACK, 8, iss.wrapping_add(1)));
        }
        assert_eq!(s.ready, 4);
        // 3 is reset and released while queued, 1 reset and left closed.
        for port in [3u16, 1] {
            s.handle_frame(now, from_client(port, TcpFlags::RST, 8, 0));
        }
        s.release(socks[2]);
        assert_eq!(s.accept(80), Some(socks[3]), "the stale and the closed handle are skipped");
        assert_eq!(s.accept(80), Some(socks[1]));
        assert_eq!(s.accept(80), None);
        assert_eq!((s.accept_visits, s.ready), (4, 0));
        assert_eq!(s.accept(81), None, "not a listening port");
        // The closed handle nobody accepted is gone; the one its caller
        // released was never the stack's to count.
        assert_eq!(s.state(socks[0]), None);
        assert_eq!((s.sock_count(), s.stats.unaccepted_released), (2, 1));
    }

    #[test]
    fn rst_for_unknown_port() {
        let mut c = client();
        let mut s = server(); // no listener
        let mut now = SimTime::ZERO;
        let cs = c.connect(now, SERVER_IP, 9999).unwrap();
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        assert_eq!(c.state(cs), Some(TcpState::Closed), "SYN to closed port must be reset");
        assert_eq!(s.stats.rsts_sent, 1);
    }

    #[test]
    fn retransmission_recovers_loss() {
        let (mut c, mut s, cs, ss, mut now) = established_pair();
        c.write(cs, b"lost").unwrap();
        // Drop the client's output entirely (the data segment vanishes).
        let lost = c.poll(now);
        assert!(!lost.is_empty());
        drop(lost);
        // Nothing arrives; the client's RTO fires (>= 200ms floor).
        now += SimDuration::from_millis(250);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        let mut buf = [0u8; 8];
        assert_eq!(s.read(ss, &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"lost");
        assert!(c.tcb(cs).unwrap().stats.rto_retransmits >= 1);
    }

    #[test]
    fn suppression_drops_egress_and_counts() {
        let (mut c, mut s, cs, _ss, mut now) = established_pair();
        s.suppress(now, SERVER_IP);
        c.write(cs, b"hello?").unwrap();
        // Client sends; server receives but its (delayed) ACKs are
        // suppressed. Step past the 40 ms delayed-ACK timer each round.
        for _ in 0..3 {
            let fc = c.poll(now);
            for f in fc {
                s.handle_frame(now, f);
            }
            now += SimDuration::from_millis(50);
            let fs = s.poll(now);
            assert!(fs.is_empty(), "suppressed stack must emit nothing");
        }
        assert!(s.stats.segs_suppressed > 0);
        // Unsuppress: the client's retransmission now gets acked.
        s.unsuppress(now, SERVER_IP);
        now += SimDuration::from_millis(300);
        pump(&mut c, &mut s, &mut now, SimDuration::from_micros(100));
        assert_eq!(c.tcb(cs).unwrap().snd_una(), c.tcb(cs).unwrap().snd_nxt());
    }

    #[test]
    fn suppressed_ip_does_not_answer_arp() {
        let mut s = server();
        s.suppress(SimTime::ZERO, SERVER_IP);
        let req = ArpPacket::request(MacAddr::local(1), CLIENT_IP, SERVER_IP);
        let frame =
            EthernetFrame::new(MacAddr::BROADCAST, MacAddr::local(1), EtherType::Arp, req.encode());
        s.handle_frame(SimTime::ZERO, frame.encode());
        assert!(s.poll(SimTime::ZERO).is_empty());
        assert_eq!(s.stats.arps_suppressed, 1);
    }

    #[test]
    fn udp_roundtrip_with_arp_resolution() {
        let mut a = client();
        let mut b = server();
        let ua = a.udp_bind(5000);
        let ub = b.udp_bind(6000);
        let mut now = SimTime::ZERO;
        a.udp_send(now, ua, SERVER_IP, 6000, Bytes::from_static(b"heartbeat"));
        pump(&mut a, &mut b, &mut now, SimDuration::from_micros(100));
        let got = b.udp_recv(ub).expect("datagram should arrive after ARP");
        assert_eq!(got.payload, Bytes::from_static(b"heartbeat"));
        assert_eq!(got.src_ip, CLIENT_IP);
        assert_eq!(got.src_port, 5000);
        // Reply flows without further ARP.
        b.udp_send(now, ub, CLIENT_IP, 5000, Bytes::from_static(b"ack"));
        pump(&mut a, &mut b, &mut now, SimDuration::from_micros(100));
        assert_eq!(a.udp_recv(ua).unwrap().payload, Bytes::from_static(b"ack"));
    }

    /// `frame` taken apart and put together again by the layered
    /// `encode` chain, with the IP ident and destination MAC it carries.
    fn relayered(frame: &Bytes) -> (Bytes, u16, MacAddr) {
        let eth = EthernetFrame::parse(frame.clone()).unwrap();
        let ip = Ipv4Packet::parse(eth.payload.clone()).unwrap();
        let l4 = match ip.protocol {
            IpProtocol::Tcp => TcpSegment::parse(ip.payload.clone(), ip.src, ip.dst)
                .unwrap()
                .encode(ip.src, ip.dst),
            _ => UdpDatagram::parse(ip.payload.clone(), ip.src, ip.dst)
                .unwrap()
                .encode(ip.src, ip.dst),
        };
        let again =
            Ipv4Packet { ident: ip.ident, ..Ipv4Packet::new(ip.src, ip.dst, ip.protocol, l4) };
        let layered =
            EthernetFrame::new(eth.dst, eth.src, EtherType::Ipv4, again.encode()).encode();
        (layered, ip.ident, eth.dst)
    }

    #[test]
    fn parked_frames_leave_as_the_layered_chain_would_build_them() {
        // Nothing resolves SERVER_IP yet: a datagram, a RST and a
        // connection's SYN are composed, given their idents, and parked.
        let mut c = client();
        let now = SimTime::ZERO;
        let u = c.udp_bind(5000);
        c.udp_send(now, u, SERVER_IP, 6000, Bytes::from_static(b"heartbeat"));
        let stray = TcpSegment::bare(80, 4242, 7, 99, TcpFlags::ACK, 512);
        let ip = Ipv4Packet::new(
            SERVER_IP,
            CLIENT_IP,
            IpProtocol::Tcp,
            stray.encode(SERVER_IP, CLIENT_IP),
        );
        let frame =
            EthernetFrame::new(MacAddr::local(1), MacAddr::local(2), EtherType::Ipv4, ip.encode());
        c.handle_frame(now, frame.encode());
        let cs = c.connect(now, SERVER_IP, 80).unwrap();
        let asked = c.poll(now);
        assert_eq!(asked.len(), 1, "one ARP request, everything else waits: {asked:?}");
        assert_eq!(EthernetFrame::parse(asked[0].clone()).unwrap().ethertype, EtherType::Arp);
        // The answer releases them, in the order they were parked.
        let req = ArpPacket::parse(&EthernetFrame::parse(asked[0].clone()).unwrap().payload);
        let reply = ArpPacket::reply(MacAddr::local(2), SERVER_IP, &req.unwrap());
        let reply = EthernetFrame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            EtherType::Arp,
            reply.encode(),
        );
        c.handle_frame(now, reply.encode());
        let released = c.poll(now);
        assert_eq!(released.len(), 3);
        for (i, frame) in released.iter().enumerate() {
            let (layered, ident, dst) = relayered(frame);
            assert_eq!(frame, &layered, "frame {i} is not what the layered chain builds");
            assert_eq!(usize::from(ident), i + 1, "idents are assigned when parked");
            assert_eq!(dst, MacAddr::local(2), "the destination MAC is the one that answered");
        }
        let tcp = |f: &Bytes| {
            let ip = Ipv4Packet::parse(EthernetFrame::parse(f.clone()).unwrap().payload).unwrap();
            TcpSegment::parse(ip.payload, ip.src, ip.dst).unwrap()
        };
        let (rst, syn) = (tcp(&released[1]), tcp(&released[2]));
        assert_eq!((rst.flags, rst.seq, rst.src_port, rst.dst_port), (TcpFlags::RST, 99, 4242, 80));
        assert_eq!((syn.flags, syn.seq), (TcpFlags::SYN, c.tcb(cs).unwrap().iss().raw()));
        assert!(syn.mss().is_some(), "the SYN's options survive the wait");
    }

    #[test]
    fn a_suppressed_segment_takes_no_ident_a_suppressed_rst_or_datagram_does() {
        let mut s = server();
        s.listen(80);
        let u = s.udp_bind(5000);
        let now = SimTime::ZERO;
        s.suppress(now, SERVER_IP);
        // A shadow's SYN/ACK: planned, counted, dropped — no ident.
        s.handle_frame(now, from_client(1000, TcpFlags::SYN, 7, 0));
        assert!(s.poll(now).is_empty());
        assert_eq!((s.stats.segs_suppressed, s.ip_ident), (1, 0));
        // A RST for a quad nobody owns and a datagram: dropped too, but
        // each has taken its ident by then.
        s.handle_frame(now, from_client(1001, TcpFlags::ACK, 8, 5));
        s.udp_send(now, u, CLIENT_IP, 9, Bytes::from_static(b"x"));
        assert!(s.poll(now).is_empty());
        assert_eq!((s.stats.segs_suppressed, s.stats.rsts_sent, s.ip_ident), (3, 1, 2));
        // So the first frame of the promoted stack — the SYN/ACK's
        // retransmission — carries ident 3, not 1 and not 4.
        s.unsuppress(now, SERVER_IP);
        s.arp.learn(CLIENT_IP, MacAddr::local(1));
        let frames = s.poll(now + SimDuration::from_secs(1));
        assert_eq!(frames.len(), 1);
        assert_eq!(relayered(&frames[0]).1, 3);
    }

    #[test]
    fn nic_filter_rejects_foreign_unicast() {
        let mut s = server();
        let mut seg = TcpSegment::bare(1, 2, 0, 0, TcpFlags::ACK, 0);
        seg.payload = Bytes::from_static(b"x");
        let ip = Ipv4Packet::new(
            CLIENT_IP,
            SERVER_IP,
            IpProtocol::Tcp,
            seg.encode(CLIENT_IP, SERVER_IP),
        );
        let frame =
            EthernetFrame::new(MacAddr::local(99), MacAddr::local(1), EtherType::Ipv4, ip.encode());
        s.handle_frame(SimTime::ZERO, frame.encode());
        assert_eq!(s.stats.frames_filtered, 1);
        assert_eq!(s.stats.frames_accepted, 0);
    }

    #[test]
    fn promiscuous_accepts_and_learns() {
        let mut cfg = StackConfig::host(MacAddr::local(3), Ipv4Addr::new(10, 0, 0, 3));
        cfg.promiscuous = true;
        cfg.learn_from_ip = true;
        let mut tap = NetStack::new(cfg);
        let mut seg = TcpSegment::bare(1, 2, 0, 0, TcpFlags::ACK, 0);
        seg.payload = Bytes::from_static(b"x");
        let ip = Ipv4Packet::new(
            CLIENT_IP,
            SERVER_IP,
            IpProtocol::Tcp,
            seg.encode(CLIENT_IP, SERVER_IP),
        );
        let frame =
            EthernetFrame::new(MacAddr::local(2), MacAddr::local(1), EtherType::Ipv4, ip.encode());
        // Addressed to neither of the tap's IPs: accepted by the NIC,
        // then dropped.
        tap.handle_frame(SimTime::ZERO, frame.encode());
        assert_eq!(tap.stats.frames_accepted, 1);
        assert_eq!(tap.sock_count(), 0);
        // It learned the client's MAC from the tapped frame.
        // (Verified indirectly: an emit to CLIENT_IP requires no ARP.)
        tap.udp_bind(7);
        tap.udp_send(SimTime::ZERO, UdpId(0), CLIENT_IP, 9, Bytes::from_static(b"z"));
        let frames = tap.poll(SimTime::ZERO);
        assert_eq!(frames.len(), 1);
        let out = EthernetFrame::parse(frames[0].clone()).unwrap();
        assert_eq!(out.ethertype, EtherType::Ipv4, "no ARP needed — MAC was learned from the tap");
        assert_eq!(out.dst, MacAddr::local(1));
    }

    #[test]
    fn connect_allocates_distinct_ports() {
        let mut c = client();
        let a = c.connect(SimTime::ZERO, SERVER_IP, 80).unwrap();
        let b = c.connect(SimTime::ZERO, SERVER_IP, 80).unwrap();
        let qa = c.tcb(a).unwrap().quad();
        let qb = c.tcb(b).unwrap().quad();
        assert_ne!(qa.local_port, qb.local_port);
    }

    #[test]
    fn arp_gives_up_after_retries() {
        let mut c = client();
        let u = c.udp_bind(5000);
        let mut now = SimTime::ZERO;
        c.udp_send(now, u, Ipv4Addr::new(10, 0, 0, 200), 1, Bytes::from_static(b"x"));
        let mut requests = 0;
        for _ in 0..10 {
            let frames = c.poll(now);
            requests += frames
                .iter()
                .filter(|f| EthernetFrame::parse((*f).clone()).unwrap().ethertype == EtherType::Arp)
                .count();
            now += SimDuration::from_secs(2);
        }
        assert_eq!(requests, ARP_MAX_TRIES as usize);
        assert_eq!(c.stats.arp_queue_drops, 1);
    }
}
