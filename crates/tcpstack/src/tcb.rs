//! The TCP control block: one connection's full state machine.
//!
//! Implements RFC 793 connection states with pluggable congestion
//! control ([`crate::congestion`]; Reno by default), optional RFC 2018
//! SACK recovery, RFC 6298 retransmission timing (Linux bounds), delayed
//! ACKs, zero window probing, and restart-after-idle — plus the two
//! ST-TCP extensions the paper adds on the server side:
//!
//! * **shadow semantics** (backup): the ISN is resynchronized from the
//!   client's third-handshake ACK (§4.1), and ACKs ahead of `snd_nxt`
//!   (acknowledging bytes the *primary* sent that this shadow has not
//!   generated yet) are tolerated and remembered;
//! * **retention** (primary): bytes read by the application are retained
//!   in a second receive buffer until the backup acknowledges them over
//!   the side channel (§4.2), see [`crate::recv_buf::RecvBuffer`].
//!
//! The TCB is sans-io: segments go in via [`Tcb::on_segment`], segments
//! come out of [`Tcb::poll_stage`] (as plans, into the caller's queue;
//! [`Tcb::poll`] materializes them for tests), and time only moves when
//! the caller passes it in. Nothing is staged outside a poll: intake and
//! the application record what the connection owes — a SYN, a fast
//! retransmission, a RST, an ACK — and the next poll stages it.

use crate::config::{Quad, TcpConfig};
use crate::congestion::{idle_restart_due, CongSnapshot, CongestionController, CongestionCtrl};
use crate::recv_buf::{Lent, RecvBuffer};
use crate::rto::RtoEstimator;
use crate::sack::SackScoreboard;
use crate::send_buf::SendBuffer;
use crate::seq::SeqNum;
use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use obs::{Counter, Gauge, SharedRecorder, TraceEvent};
use std::borrow::Cow;
use wire::{TcpFlags, TcpOption, TcpSegment};

/// RFC 793 connection states (LISTEN lives in the stack's listener
/// table, not here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// SYN sent, waiting for SYN/ACK.
    SynSent,
    /// SYN received, SYN/ACK sent, waiting for ACK.
    SynRcvd,
    /// Data flows.
    Established,
    /// We closed first; FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both closed simultaneously; waiting for our FIN's ACK.
    Closing,
    /// Peer closed, then we closed; waiting for our FIN's ACK.
    LastAck,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
    /// Fully closed (or aborted).
    Closed,
}

impl TcpState {
    /// True once the handshake has completed (data may have flowed).
    pub fn is_synchronized(self) -> bool {
        !matches!(self, TcpState::SynSent | TcpState::SynRcvd)
    }

    /// The state's canonical name, as it appears in trace exports.
    pub const fn name(self) -> &'static str {
        match self {
            TcpState::SynSent => "SynSent",
            TcpState::SynRcvd => "SynRcvd",
            TcpState::Established => "Established",
            TcpState::FinWait1 => "FinWait1",
            TcpState::FinWait2 => "FinWait2",
            TcpState::CloseWait => "CloseWait",
            TcpState::Closing => "Closing",
            TcpState::LastAck => "LastAck",
            TcpState::TimeWait => "TimeWait",
            TcpState::Closed => "Closed",
        }
    }
}

/// Counters exposed for tests and the benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcbStats {
    /// Segments processed by [`Tcb::on_segment`].
    pub segs_in: u64,
    /// Segments staged for output.
    pub segs_out: u64,
    /// Payload bytes accepted in order.
    pub bytes_in: u64,
    /// Payload bytes transmitted (first transmissions only).
    pub bytes_out: u64,
    /// RTO-driven retransmissions.
    pub rto_retransmits: u64,
    /// Fast retransmissions (3 duplicate ACKs).
    pub fast_retransmits: u64,
    /// RTT samples fed to the estimator.
    pub rtt_samples: u64,
    /// Shadow-mode ISN resynchronizations performed (0 or 1).
    pub isn_resyncs: u64,
    /// Zero-window probes sent.
    pub probes: u64,
}

/// One TCP connection.
#[derive(Debug, Clone)]
pub struct Tcb {
    cfg: TcpConfig,
    quad: Quad,
    state: TcpState,

    // Send side.
    iss: SeqNum,
    snd_buf: SendBuffer,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    /// Highest sequence number ever sent (`snd_nxt` rolls back to
    /// `snd_una` on an RTO — classic go-back-N recovery — while this
    /// high-water mark keeps Karn's rule and FIN accounting straight).
    snd_max: SeqNum,
    snd_wnd: u32,
    fin_queued: bool,
    fin_sent: bool,
    syn_attempts: u32,

    // Receive side.
    irs: SeqNum,
    remote_synced: bool,
    rcv_buf: RecvBuffer,
    peer_fin: Option<SeqNum>,
    fin_consumed: bool,
    peer_mss: u32,
    /// Shift applied to *incoming* window fields (the peer's announced
    /// scale; nonzero only when both sides offered RFC 1323 scaling).
    snd_wscale: u8,
    /// Shift applied to *outgoing* window fields (our announced scale).
    rcv_wscale: u8,
    /// Peer offered window scaling in its SYN.
    peer_offered_wscale: Option<u8>,

    // Timing.
    rto: RtoEstimator,
    cong: CongestionCtrl,
    /// Last congestion-controller phase traced (transition detector).
    cc_phase: &'static str,
    /// Pacing gate for rate-based controllers: no data transmission
    /// before this instant. `None` whenever the controller reports no
    /// pacing rate (Reno/CUBIC), keeping the default path untouched.
    pacing_gate: Option<SimTime>,
    /// SACK in effect: our config enables it AND the peer's SYN offered
    /// `SackPermitted`.
    sack_ok: bool,
    /// Sender scoreboard of peer-reported SACK ranges.
    sack_board: SackScoreboard,
    rtx_deadline: Option<SimTime>,
    delack_deadline: Option<SimTime>,
    probe_deadline: Option<SimTime>,
    probe_backoff: u32,
    time_wait_deadline: Option<SimTime>,
    rtt_probe: Option<(SeqNum, SimTime)>,
    last_send: SimTime,
    bytes_since_ack: u32,
    ack_pending: bool,
    /// Owed since the last poll, staged first by the next one, in this
    /// order: a SYN (opening, or answering a duplicate SYN), the fast
    /// retransmission three duplicate ACKs asked for, [`Tcb::abort`]'s RST.
    syn_pending: bool,
    rexmit_pending: bool,
    rst_pending: bool,

    // Shadow mode.
    shadow_peer_ack: SeqNum,
    /// Shadow mode: the ISN was fixed authoritatively from the tapped
    /// primary SYN/ACK, so the client-ACK fallback must not touch it.
    isn_fixed: bool,

    /// Counters.
    pub stats: TcbStats,
    recorder: SharedRecorder,
}

/// One staged outbound segment, as produced by [`Tcb::poll_stage`]: a
/// *plan*, not a packet.
///
/// The header fields are frozen at stage time, so a later state change
/// inside the same poll cannot alter the wire bytes. The payload is
/// never owned: it is `len` bytes of the connection's send buffer from
/// `seq` on (none for a SYN, pure ACK, FIN, RST or window probe), which
/// the stack writes straight from the ring ([`Tcb::payload_slices`])
/// into the frame builder — one memcpy, no allocation — and which a
/// suppressed shadow never reads at all.
#[derive(Debug, Clone)]
pub struct StagedSeg {
    /// Sequence number (of the first payload byte, if any).
    pub seq: SeqNum,
    /// Acknowledgment number (0 until the peer's ISN is known).
    pub ack: u32,
    /// Payload length (bounded by the MSS, so `u16` suffices).
    pub len: u16,
    /// Window field.
    pub window: u16,
    /// Flags.
    pub flags: TcpFlags,
    /// Options: a SYN's offers, or the SACK blocks of an ACK. Empty —
    /// and unallocated — on everything else.
    pub options: Vec<TcpOption>,
}

const SYN_MAX_ATTEMPTS: u32 = 6;

impl Tcb {
    /// Opens a connection actively: stages a SYN and enters `SynSent`.
    pub fn connect(now: SimTime, quad: Quad, iss: SeqNum, cfg: TcpConfig) -> Self {
        let mut tcb = Self::new(now, quad, iss, cfg, TcpState::SynSent);
        tcb.syn_pending = true;
        tcb.rtx_deadline = Some(now + tcb.rto.rto());
        tcb
    }

    /// Opens a connection passively from a received SYN: stages a
    /// SYN/ACK and enters `SynRcvd`.
    pub fn accept(now: SimTime, quad: Quad, iss: SeqNum, syn: &TcpSegment, cfg: TcpConfig) -> Self {
        let mut tcb = Self::new(now, quad, iss, cfg, TcpState::SynRcvd);
        tcb.irs = SeqNum(syn.seq);
        tcb.remote_synced = true;
        tcb.rcv_buf = RecvBuffer::new(tcb.irs.add(1), tcb.cfg.recv_buf, tcb.cfg.retention_buf);
        tcb.peer_mss = u32::from(syn.mss().unwrap_or(536));
        tcb.negotiate_wscale(syn);
        tcb.syn_pending = true;
        tcb.rtx_deadline = Some(now + tcb.rto.rto());
        tcb.rtt_probe = Some((tcb.iss.add(1), now));
        tcb
    }

    fn new(now: SimTime, quad: Quad, iss: SeqNum, cfg: TcpConfig, state: TcpState) -> Self {
        let rto = RtoEstimator::with_bounds(cfg.rto_min, cfg.rto_max);
        let cong = CongestionCtrl::new(cfg.congestion, u32::from(cfg.mss));
        let cc_phase = cong.phase();
        Tcb {
            snd_buf: SendBuffer::new(iss.add(1), cfg.send_buf),
            snd_una: iss,
            snd_nxt: iss.add(1),
            snd_max: iss.add(1),
            snd_wnd: 0,
            fin_queued: false,
            fin_sent: false,
            syn_attempts: 1,
            irs: SeqNum(0),
            remote_synced: false,
            rcv_buf: RecvBuffer::new(SeqNum(0), cfg.recv_buf, cfg.retention_buf),
            peer_fin: None,
            fin_consumed: false,
            peer_mss: u32::from(cfg.mss),
            snd_wscale: 0,
            rcv_wscale: 0,
            peer_offered_wscale: None,
            rto,
            cong,
            cc_phase,
            pacing_gate: None,
            sack_ok: false,
            sack_board: SackScoreboard::new(),
            rtx_deadline: None,
            delack_deadline: None,
            probe_deadline: None,
            probe_backoff: 0,
            time_wait_deadline: None,
            rtt_probe: Some((iss.add(1), now)),
            last_send: now,
            bytes_since_ack: 0,
            ack_pending: false,
            syn_pending: false,
            rexmit_pending: false,
            rst_pending: false,
            shadow_peer_ack: iss,
            isn_fixed: false,
            stats: TcbStats::default(),
            recorder: obs::nop(),
            quad,
            state,
            iss,
            cfg,
        }
    }

    /// Installs an observability recorder (no-op by default).
    pub fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = recorder;
    }

    /// Moves the state machine, tracing every real transition (the
    /// single funnel for all post-construction state changes).
    fn set_state(&mut self, now: SimTime, to: TcpState) {
        if self.state == to {
            return;
        }
        let from = self.state;
        self.state = to;
        self.recorder.trace(
            now.as_nanos(),
            &TraceEvent::TcpState {
                conn: self.quad.trace_conn(),
                from: Cow::Borrowed(from.name()),
                to: Cow::Borrowed(to.name()),
            },
        );
    }

    // ------------------------------------------------------- accessors

    /// The connection's four-tuple.
    pub fn quad(&self) -> Quad {
        self.quad
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Our initial sequence number (after any shadow resync).
    pub fn iss(&self) -> SeqNum {
        self.iss
    }

    /// The peer's initial sequence number.
    pub fn irs(&self) -> SeqNum {
        self.irs
    }

    /// First unacknowledged sequence number.
    pub fn snd_una(&self) -> SeqNum {
        self.snd_una
    }

    /// Next sequence number to send.
    pub fn snd_nxt(&self) -> SeqNum {
        self.snd_nxt
    }

    /// The peer's advertised window.
    pub fn snd_wnd(&self) -> u32 {
        self.snd_wnd
    }

    /// `NextByteExpected` (payload only; the consumed FIN is accounted
    /// separately in outgoing ACK numbers).
    pub fn rcv_nxt(&self) -> SeqNum {
        self.rcv_buf.rcv_nxt()
    }

    /// Effective receive-next including a consumed FIN — the number our
    /// ACKs carry.
    pub fn ack_seq(&self) -> SeqNum {
        self.rcv_buf.rcv_nxt().add(u32::from(self.fin_consumed))
    }

    /// Bytes the application can read right now.
    pub fn readable(&self) -> usize {
        self.rcv_buf.readable()
    }

    /// Bytes [`Tcb::write`] would accept right now: the send buffer's
    /// free space, or 0 once the connection can queue no more data.
    pub fn writable(&self) -> usize {
        if self.can_queue() {
            self.snd_buf.free_space()
        } else {
            0
        }
    }

    /// Whether the application may still queue data: the connection is
    /// opening or open for sending, and no FIN is queued behind it.
    fn can_queue(&self) -> bool {
        matches!(
            self.state,
            TcpState::SynSent | TcpState::SynRcvd | TcpState::Established | TcpState::CloseWait
        ) && !self.fin_queued
    }

    /// Bytes retained for the backup (primary retention mode).
    pub fn retained(&self) -> usize {
        self.rcv_buf.retained()
    }

    /// Current advertised window.
    pub fn window(&self) -> usize {
        self.rcv_buf.window()
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u32 {
        self.snd_nxt.distance(self.snd_una).max(0) as u32
    }

    /// Highest cumulative ACK seen from the peer (shadow mode records
    /// this even beyond `snd_nxt`).
    pub fn peer_ack_high_water(&self) -> SeqNum {
        self.shadow_peer_ack
    }

    /// True when the peer's FIN has been consumed and all data read.
    pub fn peer_closed(&self) -> bool {
        self.fin_consumed && self.rcv_buf.readable() == 0
    }

    /// Congestion state (read-only, for tests/benches). Import
    /// [`CongestionController`] for the accessor methods.
    pub fn congestion(&self) -> &CongestionCtrl {
        &self.cong
    }

    /// Exports the controller state worth mirroring to the backup over
    /// the side channel (primary side of the shadow path).
    pub fn export_congestion(&self) -> CongSnapshot {
        self.cong.export()
    }

    /// Adopts mirrored controller state from the primary, so a promoted
    /// shadow resumes near the primary's operating point instead of from
    /// the initial window (backup side of the shadow path).
    pub fn import_congestion(&mut self, snap: CongSnapshot) {
        self.cong.import(snap);
    }

    // ---------------------------------------------------- application

    /// Queues application data; returns bytes accepted.
    pub fn write(&mut self, data: &[u8]) -> usize {
        if !self.can_queue() {
            return 0;
        }
        let n = self.snd_buf.write(data);
        if n > 0 {
            self.recorder.gauge_max(Gauge::SendBufHighWater, self.snd_buf.len() as u64);
        }
        n
    }

    /// Reads received data; returns bytes copied. Opening the window
    /// from (near) zero stages a window-update ACK.
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let before = self.rcv_buf.window();
        let n = self.rcv_buf.read(buf);
        self.after_read(n, before);
        n
    }

    /// Lends the unread bytes out for in-place delivery (see
    /// [`RecvBuffer::lend`]); [`Tcb::restore_unread`] must follow before
    /// the connection receives, reads or polls again.
    pub(crate) fn lend_unread(&mut self) -> Lent {
        self.rcv_buf.lend()
    }

    /// Takes the loan back: its bytes are read, with the same
    /// window-update rule as [`Tcb::read`].
    pub(crate) fn restore_unread(&mut self, lent: Lent) {
        let (n, before) = (lent.len(), self.rcv_buf.window());
        self.rcv_buf.restore(lent);
        self.after_read(n, before);
    }

    /// The application read `n` bytes while the window stood at `before`.
    fn after_read(&mut self, n: usize, before: usize) {
        let mss = usize::from(self.cfg.mss);
        if n > 0 && before < mss && self.rcv_buf.window() >= mss {
            self.ack_now();
        }
    }

    /// Begins an orderly close: a FIN is sent once buffered data drains.
    pub fn close(&mut self, now: SimTime) {
        match self.state {
            TcpState::SynSent => self.set_state(now, TcpState::Closed),
            TcpState::Established | TcpState::SynRcvd | TcpState::CloseWait => {
                self.fin_queued = true;
            }
            _ => {}
        }
    }

    /// Aborts: owes the peer a RST and drops to `Closed`.
    pub fn abort(&mut self, now: SimTime) {
        if self.state.is_synchronized() && self.state != TcpState::Closed {
            self.rst_pending = true;
        }
        self.set_state(now, TcpState::Closed);
    }

    // ------------------------------------------------- segment intake

    /// Processes one incoming segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        self.stats.segs_in += 1;
        match self.state {
            TcpState::Closed => {}
            TcpState::SynSent => self.on_segment_syn_sent(now, seg),
            TcpState::SynRcvd => self.on_segment_syn_rcvd(now, seg),
            _ => self.on_segment_synchronized(now, seg),
        }
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: &TcpSegment) {
        let flags = seg.flags;
        if flags.contains(TcpFlags::RST) {
            if flags.contains(TcpFlags::ACK) && SeqNum(seg.ack) == self.iss.add(1) {
                self.set_state(now, TcpState::Closed);
            }
            return;
        }
        if flags.contains(TcpFlags::SYN) && flags.contains(TcpFlags::ACK) {
            if SeqNum(seg.ack) != self.iss.add(1) {
                return; // bogus handshake
            }
            self.irs = SeqNum(seg.seq);
            self.remote_synced = true;
            self.rcv_buf =
                RecvBuffer::new(self.irs.add(1), self.cfg.recv_buf, self.cfg.retention_buf);
            self.peer_mss = u32::from(seg.mss().unwrap_or(536));
            self.snd_una = self.iss.add(1);
            self.negotiate_wscale(seg);
            self.snd_wnd = self.peer_window(seg);
            self.set_state(now, TcpState::Established);
            self.rtx_deadline = None;
            self.rto.reset_backoff();
            self.take_rtt_sample(now, self.snd_una);
            self.ack_now();
        }
    }

    fn on_segment_syn_rcvd(&mut self, now: SimTime, seg: &TcpSegment) {
        let flags = seg.flags;
        if flags.contains(TcpFlags::RST) {
            self.set_state(now, TcpState::Closed);
            return;
        }
        if flags.contains(TcpFlags::SYN) && !flags.contains(TcpFlags::ACK) {
            // Duplicate SYN: retransmit the SYN/ACK.
            self.syn_pending = true;
            return;
        }
        if !flags.contains(TcpFlags::ACK) {
            return;
        }
        let ack = SeqNum(seg.ack);
        if self.cfg.shadow {
            if self.isn_fixed {
                // The ISN already matches the primary's (learned from
                // its tapped SYN/ACK). This client ACK may cover data
                // the primary sent that we have not generated yet —
                // standard shadow high-water handling.
                self.snd_una = self.iss.add(1);
                self.snd_nxt = self.iss.add(1);
                self.snd_max = self.snd_max.max(self.snd_nxt);
                self.shadow_peer_ack = self.shadow_peer_ack.max(ack);
            } else {
                // ST-TCP §4.1 step 3: "The client's ACK segment,
                // completing the three way handshake, is used by the
                // backup to modify its own initial sequence number …
                // After this point, the backup's sequence numbers match
                // those of the primary." Fallback path: correct only
                // when this really is the handshake-completing ACK —
                // the tapped primary SYN/ACK (shadow_resync_iss) is the
                // authoritative source when available.
                let primary_iss = ack.sub(1);
                if primary_iss != self.iss {
                    self.iss = primary_iss;
                    self.snd_buf.rebase(ack);
                    self.stats.isn_resyncs += 1;
                    self.recorder.count(Counter::ShadowIsnResyncs, 1);
                }
                self.snd_nxt = ack;
                self.snd_max = ack;
                self.snd_una = ack;
                self.shadow_peer_ack = ack;
            }
            self.rtt_probe = None;
        } else {
            if ack != self.snd_nxt {
                return; // not the ACK of our SYN/ACK
            }
            self.snd_una = ack;
            self.take_rtt_sample(now, ack);
        }
        self.snd_wnd = self.peer_window(seg);
        self.set_state(now, TcpState::Established);
        self.rtx_deadline = None;
        self.rto.reset_backoff();
        // The handshake ACK may carry data or a FIN: fall through.
        self.on_segment_synchronized(now, seg);
    }

    fn on_segment_synchronized(&mut self, now: SimTime, seg: &TcpSegment) {
        if seg.flags.contains(TcpFlags::RST) {
            self.set_state(now, TcpState::Closed);
            return;
        }
        let seq = SeqNum(seg.seq);
        let seg_len = seg.seq_len();
        if !self.segment_acceptable(seq, seg_len) {
            self.ack_now();
            return;
        }
        if seg.flags.contains(TcpFlags::ACK) {
            self.process_ack(now, seg);
            if self.state == TcpState::Closed {
                return;
            }
        }
        if !seg.payload.is_empty() {
            self.process_payload(now, seq, &seg.payload);
        }
        if seg.flags.contains(TcpFlags::FIN) {
            let fin_seq = seq.add(seg.payload.len() as u32);
            if self.fin_consumed {
                // Retransmitted FIN: our ACK was lost, re-acknowledge.
                self.ack_now();
            } else {
                match self.peer_fin {
                    Some(existing) => debug_assert_eq!(existing, fin_seq, "peer moved its FIN"),
                    None => self.peer_fin = Some(fin_seq),
                }
            }
        }
        self.try_consume_fin(now);
    }

    fn segment_acceptable(&self, seq: SeqNum, seg_len: u32) -> bool {
        let rcv_nxt = self.ack_seq();
        let wnd = self.rcv_buf.window() as u32;
        if seg_len == 0 {
            if wnd == 0 {
                seq == rcv_nxt
            } else {
                seq.ge(rcv_nxt) && seq.lt(rcv_nxt.add(wnd)) || seq == rcv_nxt
            }
        } else {
            // Any overlap with the window (or a retransmission reaching
            // exactly up to rcv_nxt, which deserves a fresh ACK and is
            // handled by the duplicate path in RecvBuffer).
            let window_edge = rcv_nxt.add(wnd.max(1));
            seq.lt(window_edge) && seq.add(seg_len).gt(rcv_nxt)
                || seq.add(seg_len) == rcv_nxt
                || seq == rcv_nxt
        }
    }

    fn process_ack(&mut self, now: SimTime, seg: &TcpSegment) {
        // RFC 2018: record the receiver's SACK islands before acting on
        // the cumulative ACK, so a dup-ack-triggered retransmission
        // already steers around them. Blocks beyond `snd_max` (which we
        // never sent) are discarded as malformed.
        if self.sack_ok {
            for opt in &seg.options {
                if matches!(opt, wire::TcpOption::Sack { .. }) {
                    for &(lo, hi) in opt.sack_blocks() {
                        let (lo, hi) = (SeqNum::new(lo), SeqNum::new(hi));
                        if hi.le(self.snd_max) {
                            self.sack_board.insert(lo, hi);
                        }
                    }
                }
            }
        }
        let mut ack = SeqNum(seg.ack);
        if ack.gt(self.snd_max) {
            if self.cfg.shadow {
                // The client is acknowledging bytes the *primary* sent
                // that this shadow has not generated yet. Remember the
                // high-water mark; they auto-complete when our app
                // produces them (see poll()).
                self.shadow_peer_ack = self.shadow_peer_ack.max(ack);
                ack = self.snd_max;
            } else {
                self.ack_now();
                return;
            }
        }
        if self.cfg.shadow {
            self.shadow_peer_ack = self.shadow_peer_ack.max(ack);
        }
        if ack.gt(self.snd_una) {
            let flight = self.flight();
            let acked = ack.distance(self.snd_una).max(0) as u32;
            self.snd_buf.ack_to(ack);
            self.snd_una = ack;
            // An ack may cover bytes we rolled `snd_nxt` back over
            // (go-back-N): never leave snd_nxt behind snd_una.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.sack_board.ack_to(ack);
            self.cong.on_new_ack(now, flight, acked, self.rto.srtt());
            self.rto.reset_backoff();
            self.take_rtt_sample(now, ack);
            self.after_una_advance(now);
            self.trace_cc(now);
        } else if ack == self.snd_una
            && seg.payload.is_empty()
            && !seg.flags.contains(TcpFlags::SYN)
            && !seg.flags.contains(TcpFlags::FIN)
            && self.flight() > 0
            && self.peer_window(seg) == self.snd_wnd
            && self.cong.on_dup_ack(self.flight())
        {
            self.stats.fast_retransmits += 1;
            self.recorder.count(Counter::TcpFastRetransmits, 1);
            self.rtt_probe = None; // Karn
            self.rexmit_pending = true;
            self.trace_cc(now);
        }
        // Window update (links are FIFO in the simulator, so the newest
        // segment carries the newest window).
        if ack.ge(self.snd_una) {
            let opened = self.snd_wnd == 0 && seg.window > 0;
            self.snd_wnd = self.peer_window(seg);
            if opened {
                self.probe_deadline = None;
                self.probe_backoff = 0;
            }
        }
    }

    fn after_una_advance(&mut self, now: SimTime) {
        if self.snd_una == self.snd_nxt {
            self.rtx_deadline = None;
        } else {
            self.rtx_deadline = Some(now + self.rto.rto());
        }
        if self.fin_sent && self.snd_una == self.snd_max {
            // Our FIN is acknowledged.
            let next = match self.state {
                TcpState::FinWait1 => TcpState::FinWait2,
                TcpState::Closing => {
                    self.time_wait_deadline = Some(now + self.cfg.time_wait);
                    TcpState::TimeWait
                }
                TcpState::LastAck => TcpState::Closed,
                s => s,
            };
            self.set_state(now, next);
        }
    }

    fn process_payload(&mut self, now: SimTime, seq: SeqNum, payload: &Bytes) {
        if !matches!(self.state, TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2) {
            return;
        }
        let before = self.rcv_buf.rcv_nxt();
        self.rcv_buf.insert_bytes(seq, payload.clone());
        let after = self.rcv_buf.rcv_nxt();
        let advanced = after.distance(before) as u64;
        self.stats.bytes_in += advanced;
        if advanced > 0 {
            self.recorder.gauge_max(Gauge::RecvBufHighWater, self.rcv_buf.readable() as u64);
            self.recorder.gauge_max(Gauge::RetentionHighWater, self.rcv_buf.retained() as u64);
        }
        let fully_in_order = advanced > 0 && after == seq.add(payload.len() as u32);
        if fully_in_order {
            self.bytes_since_ack += advanced as u32;
            if self.bytes_since_ack >= 2 * u32::from(self.cfg.mss) || self.cfg.delayed_ack.is_zero()
            {
                self.ack_now();
            } else if self.delack_deadline.is_none() && !self.ack_pending {
                self.delack_deadline = Some(now + self.cfg.delayed_ack);
            }
        } else {
            // Out of order, duplicate, or gap-filling: immediate ACK so
            // the sender sees duplicates / learns the new edge.
            self.ack_now();
        }
    }

    fn try_consume_fin(&mut self, now: SimTime) {
        if self.fin_consumed {
            return;
        }
        let Some(fin_seq) = self.peer_fin else {
            return;
        };
        if self.rcv_buf.rcv_nxt() == fin_seq {
            self.fin_consumed = true;
            self.ack_now();
            let next = match self.state {
                TcpState::Established => TcpState::CloseWait,
                TcpState::FinWait1 => TcpState::Closing,
                TcpState::FinWait2 => {
                    self.time_wait_deadline = Some(now + self.cfg.time_wait);
                    TcpState::TimeWait
                }
                s => s,
            };
            self.set_state(now, next);
        }
    }

    /// Records the peer's SYN options and, once both sides' offers are
    /// known, activates window scaling (RFC 1323: in effect only if both
    /// SYNs carried the option) and SACK (RFC 2018: in effect only when
    /// our config enables it and the peer's SYN offered `SackPermitted`).
    fn negotiate_wscale(&mut self, syn: &TcpSegment) {
        self.peer_offered_wscale = syn.options.iter().find_map(|o| match o {
            wire::TcpOption::WindowScale(v) => Some((*v).min(14)),
            _ => None,
        });
        if let (Some(peer), Some(ours)) = (self.peer_offered_wscale, self.cfg.window_scale) {
            self.snd_wscale = peer;
            self.rcv_wscale = ours.min(14);
        }
        if self.cfg.sack && syn.options.iter().any(|o| matches!(o, wire::TcpOption::SackPermitted))
        {
            self.sack_ok = true;
        }
    }

    /// Decodes an incoming window field (SYN segments are never scaled).
    fn peer_window(&self, seg: &TcpSegment) -> u32 {
        if seg.flags.contains(TcpFlags::SYN) {
            u32::from(seg.window)
        } else {
            u32::from(seg.window) << self.snd_wscale
        }
    }

    /// Encodes our advertised window for a non-SYN segment.
    fn own_window_field(&self) -> u16 {
        (self.rcv_buf.window() >> self.rcv_wscale).min(65535) as u16
    }

    fn take_rtt_sample(&mut self, now: SimTime, ack: SeqNum) {
        if let Some((probe_seq, sent_at)) = self.rtt_probe {
            if ack.ge(probe_seq) {
                self.rto.on_sample(now.duration_since(sent_at));
                self.stats.rtt_samples += 1;
                self.rtt_probe = None;
            }
        }
    }

    // ---------------------------------------------------- ST-TCP hooks

    /// Shadow mode: adopts the primary's ISN learned from its *tapped
    /// SYN/ACK* — the authoritative source. The paper's §4.1 derives the
    /// ISN from the client's handshake-completing ACK, which silently
    /// assumes that ACK is tapped; a client that piggybacks its
    /// handshake ACK onto its first request (as real stacks do) plus a
    /// single tap omission would otherwise shift the shadow's sequence
    /// space by the request size. Only meaningful in `SynRcvd`.
    pub fn shadow_resync_iss(&mut self, now: SimTime, primary_iss: SeqNum) {
        if !self.cfg.shadow || self.state != TcpState::SynRcvd || self.isn_fixed {
            return;
        }
        if primary_iss != self.iss {
            self.iss = primary_iss;
            self.snd_buf.rebase(primary_iss.add(1));
            self.stats.isn_resyncs += 1;
            self.recorder.count(Counter::ShadowIsnResyncs, 1);
        }
        self.snd_una = primary_iss;
        self.snd_nxt = primary_iss.add(1);
        self.snd_max = self.snd_nxt;
        self.shadow_peer_ack = primary_iss;
        self.isn_fixed = true;
        self.recorder.trace(
            now.as_nanos(),
            &TraceEvent::ShadowResync { conn: self.quad.trace_conn(), iss: primary_iss.raw() },
        );
    }

    /// Injects bytes recovered via the side channel directly into the
    /// reassembly buffer (backup missing-segment recovery, §4.2).
    pub fn inject_rx(&mut self, now: SimTime, seq: SeqNum, data: &[u8]) {
        if !self.state.is_synchronized() || self.state == TcpState::Closed {
            return;
        }
        self.rcv_buf.insert(seq, data);
        self.try_consume_fin(now);
    }

    /// Serves retained receive bytes (primary side of missing-segment
    /// recovery). `None` when the range is not fully held.
    pub fn fetch_rx(&self, seq: SeqNum, len: usize) -> Option<Vec<u8>> {
        self.rcv_buf.fetch(seq, len)
    }

    /// Records the backup's cumulative ACK from the side channel.
    pub fn set_backup_acked(&mut self, seq: SeqNum) {
        self.rcv_buf.set_backup_acked(seq);
    }

    /// Drops retention (primary transitions to non-fault-tolerant mode).
    pub fn disable_retention(&mut self) {
        self.rcv_buf.disable_retention();
    }

    // -------------------------------------------------------- output

    /// Advances timers, emits due (re)transmissions and ACKs, and
    /// returns the staged segments, materialized.
    ///
    /// The test-facing form of [`Tcb::poll_stage`], which the stack's
    /// hot path drains without allocating.
    pub fn poll(&mut self, now: SimTime) -> Vec<TcpSegment> {
        let mut staged = Vec::new();
        self.poll_stage(now, &mut staged);
        staged.iter().map(|seg| self.materialize(seg)).collect()
    }

    /// Advances timers and appends what is due — the owed SYN, fast
    /// retransmission and RST, timer-driven (re)transmissions, new data,
    /// an ACK — to `out`, the caller's queue.
    ///
    /// A staged plan reads its payload out of this connection's send
    /// buffer: emit (or drop) everything appended before the connection
    /// is written to, handed a segment or polled again.
    pub fn poll_stage(&mut self, now: SimTime, out: &mut Vec<StagedSeg>) {
        if std::mem::take(&mut self.syn_pending) {
            self.stage_syn(now, out);
        }
        if std::mem::take(&mut self.rexmit_pending) {
            self.retransmit_front(now, out);
        }
        if std::mem::take(&mut self.rst_pending) {
            self.stage(TcpFlags::RST | TcpFlags::ACK, self.snd_nxt, 0, out);
        }
        self.check_timers(now, out);
        self.emit_data(now, out);
        self.shadow_auto_trim(now);
        if self.ack_pending && self.remote_synced && self.state != TcpState::Closed {
            self.stage(TcpFlags::ACK, self.snd_nxt, 0, out);
            if self.sack_ok {
                let islands = self.rcv_buf.sack_ranges();
                if !islands.is_empty() {
                    let raw: Vec<(u32, u32)> =
                        islands.iter().take(4).map(|&(lo, hi)| (lo.raw(), hi.raw())).collect();
                    self.recorder.count(Counter::SackBlocksSent, raw.len() as u64);
                    let ack = out.last_mut().expect("just staged");
                    ack.options.push(TcpOption::sack(&raw));
                }
            }
        }
        self.ack_pending = false;
    }

    /// Borrows a staged segment's payload as the send ring's two
    /// contiguous halves (both empty for a segment without payload).
    ///
    /// Cannot panic: [`SendBuffer::slices_range`] is total — it returns
    /// the readable part of whatever range it is asked for — and for a
    /// plan used as [`Tcb::poll_stage`] asks, that part is the whole
    /// payload. A plan's range was buffered when it was staged; every
    /// plan is staged inside a poll; and the one thing that touches the
    /// send buffer between there and the caller's emission is the §4.1
    /// auto-trim's single `ack_to`, whose released bytes stay readable
    /// until the buffer is next mutated.
    pub fn payload_slices(&self, seg: &StagedSeg) -> (&[u8], &[u8]) {
        self.snd_buf.slices_range(seg.seq, usize::from(seg.len))
    }

    /// Materializes a staged segment as a standalone [`TcpSegment`].
    fn materialize(&self, staged: &StagedSeg) -> TcpSegment {
        let (a, b) = self.payload_slices(staged);
        TcpSegment {
            src_port: self.quad.local_port,
            dst_port: self.quad.remote_port,
            seq: staged.seq.raw(),
            ack: staged.ack,
            flags: staged.flags,
            window: staged.window,
            options: staged.options.clone(),
            payload: Bytes::from([a, b].concat()),
        }
    }

    /// The earliest instant at which [`Tcb::poll`] would do new work.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [
            self.rtx_deadline,
            self.delack_deadline,
            self.probe_deadline,
            self.time_wait_deadline,
            self.pacing_gate,
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn check_timers(&mut self, now: SimTime, out: &mut Vec<StagedSeg>) {
        if let Some(t) = self.time_wait_deadline {
            if t <= now {
                self.time_wait_deadline = None;
                self.set_state(now, TcpState::Closed);
                return;
            }
        }
        if let Some(t) = self.rtx_deadline {
            if t <= now {
                self.on_rtx_timeout(now, out);
            }
        }
        if let Some(t) = self.delack_deadline {
            if t <= now {
                self.delack_deadline = None;
                self.ack_now();
            }
        }
        if let Some(t) = self.probe_deadline {
            if t <= now {
                self.probe_deadline = None;
                self.send_window_probe(now, out);
            }
        }
    }

    fn on_rtx_timeout(&mut self, now: SimTime, out: &mut Vec<StagedSeg>) {
        self.rtx_deadline = None;
        match self.state {
            TcpState::SynSent => {
                self.syn_attempts += 1;
                if self.syn_attempts > SYN_MAX_ATTEMPTS {
                    self.set_state(now, TcpState::Closed);
                    return;
                }
                let backoff = self.rto.backoff();
                self.rtt_probe = None; // Karn: no samples from retransmits
                self.stage_syn(now, out);
                self.rtx_deadline = Some(now + self.rto.rto());
                self.stats.rto_retransmits += 1;
                self.recorder.count(Counter::TcpRtoFired, 1);
                self.trace_rto(now, backoff);
            }
            TcpState::SynRcvd => {
                self.syn_attempts += 1;
                if self.syn_attempts > SYN_MAX_ATTEMPTS {
                    // Half-open connection never completed (e.g. a SYN
                    // flood, or a shadow whose client ACK is lost with
                    // no primary SYN/ACK to resync from): give up so the
                    // TCB can be reaped.
                    self.set_state(now, TcpState::Closed);
                    return;
                }
                let backoff = self.rto.backoff();
                self.rtt_probe = None; // Karn: no samples from retransmits
                self.stage_syn(now, out);
                self.rtx_deadline = Some(now + self.rto.rto());
                self.stats.rto_retransmits += 1;
                self.recorder.count(Counter::TcpRtoFired, 1);
                self.trace_rto(now, backoff);
            }
            TcpState::Closed | TcpState::TimeWait => {}
            _ => {
                if self.flight() == 0 {
                    return;
                }
                self.cong.on_timeout(self.flight());
                let backoff = self.rto.backoff();
                self.rtt_probe = None; // Karn: no samples from retransmits
                self.stats.rto_retransmits += 1;
                self.recorder.count(Counter::TcpRtoFired, 1);
                self.trace_rto(now, backoff);
                self.trace_cc(now);
                // Classic go-back-N: roll snd_nxt back so emit_data
                // resends the whole outstanding window under slow-start
                // pacing (one segment now, doubling per RTT).
                self.snd_nxt = self.snd_una;
                self.rtx_deadline = Some(now + self.rto.rto());
            }
        }
    }

    fn trace_rto(&self, now: SimTime, backoff: u32) {
        self.recorder.trace(
            now.as_nanos(),
            &TraceEvent::RtoFired {
                conn: self.quad.trace_conn(),
                backoff,
                rto_ns: self.rto.rto().as_nanos(),
            },
        );
    }

    /// Publishes the controller's window and, on a phase transition, a
    /// `cong_phase` trace event.
    fn trace_cc(&mut self, now: SimTime) {
        self.recorder.gauge_max(Gauge::CwndBytes, u64::from(self.cong.cwnd()));
        let phase = self.cong.phase();
        if phase != self.cc_phase {
            self.recorder.trace(
                now.as_nanos(),
                &TraceEvent::CongPhase {
                    conn: self.quad.trace_conn(),
                    algo: self.cong.algo().name().into(),
                    from: self.cc_phase.into(),
                    to: phase.into(),
                    cwnd: self.cong.cwnd(),
                },
            );
            self.cc_phase = phase;
        }
    }

    /// Retransmits one segment starting at `snd_una`.
    fn retransmit_front(&mut self, now: SimTime, out: &mut Vec<StagedSeg>) {
        let data_end = self.snd_buf.end();
        if self.snd_una.lt(data_end) {
            let mut len = (data_end.distance(self.snd_una) as usize).min(usize::from(self.cfg.mss));
            // SACK recovery: the receiver already holds the ranges on the
            // scoreboard, so cap the resend at the first SACKed byte —
            // only the hole goes back out.
            if self.sack_ok && !self.sack_board.is_empty() {
                if let Some(next) = self.sack_board.next_sacked_after(self.snd_una) {
                    len = len.min(next.distance(self.snd_una).max(0) as usize);
                }
                if len == 0 {
                    return;
                }
                self.recorder.count(Counter::SelectiveRetransmits, 1);
            }
            let mut flags = TcpFlags::ACK;
            if self.snd_una.add(len as u32) == data_end {
                flags |= TcpFlags::PSH;
            }
            // A FIN that rides at the end of the buffer piggybacks.
            if self.fin_sent && self.snd_una.add(len as u32).add(1) == self.snd_max {
                flags |= TcpFlags::FIN;
            }
            self.stage(flags, self.snd_una, len, out);
            self.last_send = now;
        } else if self.fin_sent && self.snd_una == data_end {
            // Only the FIN is outstanding.
            self.stage(TcpFlags::FIN | TcpFlags::ACK, self.snd_una, 0, out);
            self.last_send = now;
        }
    }

    fn send_window_probe(&mut self, now: SimTime, out: &mut Vec<StagedSeg>) {
        let has_pending =
            self.snd_nxt.lt(self.snd_buf.end()) || (self.fin_queued && !self.fin_sent);
        if self.snd_wnd > 0 || !has_pending {
            return;
        }
        // A classic "keepalive-style" probe: one byte below the window,
        // guaranteed to elicit an ACK carrying the current window.
        self.stage(TcpFlags::ACK, self.snd_una.sub(1), 0, out);
        self.stats.probes += 1;
        self.recorder.count(Counter::TcpWindowProbes, 1);
        self.probe_backoff = (self.probe_backoff + 1).min(10);
        let interval = self.rto.rto().saturating_mul(1 << self.probe_backoff.min(6));
        self.probe_deadline = Some(now + interval.min(self.cfg.rto_max));
    }

    fn emit_data(&mut self, now: SimTime, out: &mut Vec<StagedSeg>) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        // Restart from the initial window after an idle period (§4.1 of
        // RFC 2581); shapes the Interactive workload.
        if self.cfg.idle_restart
            && self.flight() == 0
            && self.snd_nxt == self.snd_max // not mid-recovery after a go-back-N rollback
            && self.snd_nxt.lt(self.snd_buf.end())
            && idle_restart_due(now.duration_since(self.last_send), self.rto.rto())
        {
            self.cong.on_idle_restart();
        }
        // A pacing gate in the past has served its purpose. (Gates only
        // ever exist for rate-based controllers; Reno/CUBIC never set
        // one, so this whole mechanism is inert by default.)
        if let Some(gate) = self.pacing_gate {
            if gate <= now {
                self.pacing_gate = None;
            }
        }
        loop {
            let data_end = self.snd_buf.end();
            if !self.snd_nxt.lt(data_end) {
                break;
            }
            if self.pacing_gate.is_some() {
                break; // paced: next segment waits for the gate
            }
            // SACK: while retransmitting (snd_nxt behind snd_max), hop
            // over ranges the receiver already reported holding.
            if self.sack_ok && self.snd_nxt.lt(self.snd_max) {
                let skipped = self.sack_board.skip_sacked(self.snd_nxt);
                if skipped.gt(self.snd_nxt) {
                    self.snd_nxt = skipped.min(data_end);
                    continue;
                }
            }
            let unsent = data_end.distance(self.snd_nxt) as usize;
            let wnd = self.snd_wnd.min(self.cong.cwnd());
            let usable = wnd.saturating_sub(self.flight()) as usize;
            let mut n =
                unsent.min(usable).min(usize::from(self.cfg.mss)).min(self.peer_mss as usize);
            // SACK: cap a hole retransmission at the next SACKed range so
            // the resend never re-covers delivered bytes.
            if self.sack_ok && self.snd_nxt.lt(self.snd_max) {
                if let Some(next) = self.sack_board.next_sacked_after(self.snd_nxt) {
                    n = n.min(next.distance(self.snd_nxt).max(0) as usize);
                }
            }
            if n == 0 {
                if self.snd_wnd == 0 && self.probe_deadline.is_none() {
                    self.probe_deadline = Some(now + self.rto.rto());
                    self.probe_backoff = 0;
                    self.recorder.count(Counter::TcpWindowStalls, 1);
                }
                break;
            }
            let end_seq = self.snd_nxt.add(n as u32);
            let is_new = end_seq.gt(self.snd_max);
            let mut flags = TcpFlags::ACK;
            if end_seq == data_end {
                flags |= TcpFlags::PSH;
            }
            self.stage(flags, self.snd_nxt, n, out);
            if is_new {
                let new_bytes = end_seq.distance(self.snd_max.max(self.snd_nxt)) as u64;
                self.stats.bytes_out += new_bytes;
            } else if self.sack_ok && !self.sack_board.is_empty() {
                self.recorder.count(Counter::SelectiveRetransmits, 1);
            }
            self.cong.on_sent(now, n as u32);
            if let Some(rate) = self.cong.pacing_rate() {
                let ns = (n as u64).saturating_mul(1_000_000_000) / rate.max(1);
                self.pacing_gate = Some(now + SimDuration::from_nanos(ns));
            }
            self.snd_nxt = end_seq;
            self.snd_max = self.snd_max.max(end_seq);
            self.last_send = now;
            // RTT samples only from never-retransmitted data (Karn).
            if is_new && self.rtt_probe.is_none() {
                self.rtt_probe = Some((self.snd_nxt, now));
            }
            if self.rtx_deadline.is_none() {
                self.rtx_deadline = Some(now + self.rto.rto());
            }
            // Data segments carry the ACK.
            self.ack_pending = false;
            self.delack_deadline = None;
            self.bytes_since_ack = 0;
        }
        // FIN once the buffer has fully drained onto the wire; a rolled
        // back snd_nxt (< snd_max) means the FIN is being retransmitted.
        if self.fin_queued
            && self.snd_nxt == self.snd_buf.end()
            && (!self.fin_sent || self.snd_nxt.lt(self.snd_max))
        {
            let first = !self.fin_sent;
            self.stage(TcpFlags::FIN | TcpFlags::ACK, self.snd_nxt, 0, out);
            self.fin_sent = true;
            self.snd_nxt = self.snd_nxt.add(1);
            self.snd_max = self.snd_max.max(self.snd_nxt);
            self.last_send = now;
            if self.rtx_deadline.is_none() {
                self.rtx_deadline = Some(now + self.rto.rto());
            }
            if first {
                let next = match self.state {
                    TcpState::Established => TcpState::FinWait1,
                    TcpState::CloseWait => TcpState::LastAck,
                    s => s,
                };
                self.set_state(now, next);
            }
            self.ack_pending = false;
        }
    }

    /// Shadow mode: bytes we just "sent" that the client has already
    /// acknowledged (because the primary delivered them first) complete
    /// instantly.
    fn shadow_auto_trim(&mut self, now: SimTime) {
        if !self.cfg.shadow {
            return;
        }
        let target = self.shadow_peer_ack.min(self.snd_nxt);
        if target.gt(self.snd_una) {
            self.snd_buf.ack_to(target);
            self.snd_una = target;
            self.after_una_advance(now);
        }
    }

    // ------------------------------------------------------- plumbing

    fn ack_now(&mut self) {
        self.ack_pending = true;
        self.delack_deadline = None;
        self.bytes_since_ack = 0;
    }

    /// Stages the opening segment: a SYN before the peer's is known, a
    /// SYN/ACK after.
    fn stage_syn(&mut self, now: SimTime, out: &mut Vec<StagedSeg>) {
        let with_ack = self.remote_synced;
        let mut options = vec![TcpOption::Mss(self.cfg.mss), TcpOption::SackPermitted];
        if let Some(shift) = self.cfg.window_scale {
            options.push(TcpOption::WindowScale(shift.min(14)));
        }
        self.stats.segs_out += 1;
        out.push(StagedSeg {
            seq: self.iss,
            ack: if with_ack { self.irs.add(1).raw() } else { 0 },
            len: 0,
            // SYN window fields are never scaled (RFC 1323).
            window: self.rcv_buf.window().min(65535) as u16,
            flags: if with_ack { TcpFlags::SYN | TcpFlags::ACK } else { TcpFlags::SYN },
            options,
        });
        self.last_send = now;
    }

    /// Stages a segment carrying `len` bytes of the send buffer from
    /// `seq` on — none for a pure ACK, FIN, RST or window probe.
    fn stage(&mut self, flags: TcpFlags, seq: SeqNum, len: usize, out: &mut Vec<StagedSeg>) {
        debug_assert!(len <= usize::from(u16::MAX));
        self.stats.segs_out += 1;
        let acks = self.remote_synced && flags.contains(TcpFlags::ACK);
        out.push(StagedSeg {
            seq,
            ack: if acks { self.ack_seq().raw() } else { 0 },
            len: len as u16,
            window: self.own_window_field(),
            flags,
            options: Vec::new(),
        });
    }
}
