//! White-box behavioural tests of the TCP control block, driven with
//! hand-crafted segments and a manual clock — no stack, no simulator.

use bytes::Bytes;
use netsim::{SimDuration, SimTime};
use std::ops::{Deref, DerefMut};
use tcpstack::rto::RtoEstimator;
use tcpstack::{Env, Quad, SeqNum, Tcb, TcpConfig, TcpState};
use wire::{TcpFlags, TcpSegment};

/// A TCB and the configuration it runs under, which the calls that need
/// it get from here (a stack lends each of its connections its own).
#[derive(Clone)]
struct Conn {
    tcb: Tcb,
    cfg: TcpConfig,
}

impl Conn {
    fn connect(now: SimTime, quad: Quad, iss: SeqNum, cfg: TcpConfig) -> Conn {
        Conn { tcb: Tcb::connect(now, quad, iss, &cfg), cfg }
    }

    fn accept(now: SimTime, quad: Quad, iss: SeqNum, syn: &TcpSegment, cfg: TcpConfig) -> Conn {
        Conn { tcb: Tcb::accept(now, quad, iss, syn, &cfg), cfg }
    }

    fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) {
        self.tcb.on_segment(Env::new(&self.cfg), now, seg);
    }

    fn poll(&mut self, now: SimTime) -> Vec<TcpSegment> {
        self.tcb.poll(Env::new(&self.cfg), now)
    }

    fn write(&mut self, data: &[u8]) -> usize {
        self.tcb.write(Env::new(&self.cfg), data)
    }

    fn read(&mut self, buf: &mut [u8]) -> usize {
        self.tcb.read(Env::new(&self.cfg), buf)
    }

    fn close(&mut self, now: SimTime) {
        self.tcb.close(Env::new(&self.cfg), now);
    }

    fn writable(&self) -> usize {
        self.tcb.writable(&self.cfg)
    }
}

impl Deref for Conn {
    type Target = Tcb;
    fn deref(&self) -> &Tcb {
        &self.tcb
    }
}

impl DerefMut for Conn {
    fn deref_mut(&mut self) -> &mut Tcb {
        &mut self.tcb
    }
}

fn quad() -> Quad {
    Quad::new(
        std::net::Ipv4Addr::new(10, 0, 0, 100),
        80,
        std::net::Ipv4Addr::new(10, 0, 0, 1),
        40000,
    )
}

fn client_syn(client_iss: u32) -> TcpSegment {
    let mut s = TcpSegment::bare(40000, 80, client_iss, 0, TcpFlags::SYN, 17520);
    s.options = vec![wire::TcpOption::Mss(1460)];
    s
}

fn seg(seq: u32, ack: u32, flags: TcpFlags, payload: &[u8]) -> TcpSegment {
    let mut s = TcpSegment::bare(40000, 80, seq, ack, flags, 17520);
    s.payload = Bytes::copy_from_slice(payload);
    s
}

/// Server-side TCB established via handshake; returns (tcb, now,
/// client_next_seq, server_iss).
fn established_server(cfg: TcpConfig) -> (Conn, SimTime, u32, u32) {
    let now = SimTime::ZERO;
    let syn = client_syn(7000);
    let mut tcb = Conn::accept(now, quad(), SeqNum(100_000), &syn, cfg);
    let synack = tcb.poll(now);
    assert_eq!(synack.len(), 1);
    let iss = synack[0].seq;
    tcb.on_segment(now, &seg(7001, iss.wrapping_add(1), TcpFlags::ACK, b""));
    assert_eq!(tcb.state(), TcpState::Established);
    (tcb, now, 7001, iss)
}

#[test]
fn rto_rolls_back_and_resends_whole_window_under_slow_start() {
    let (mut tcb, now, _cseq, _iss) = established_server(TcpConfig::default());
    // Queue 8 segments worth; peer window is large.
    let data = vec![0xAAu8; 8 * 1460];
    assert_eq!(tcb.write(&data), data.len());
    let first_burst = tcb.poll(now);
    // Initial cwnd = 2 MSS.
    assert_eq!(first_burst.len(), 2);
    let snd_nxt_before = tcb.snd_nxt();
    // Nothing comes back; RTO fires (1 s initial).
    let t1 = now + SimDuration::from_millis(1100);
    let rtx_burst = tcb.poll(t1);
    // Go-back-N: snd_nxt rolled to snd_una, cwnd collapsed to 1 MSS,
    // exactly one segment resent, starting at snd_una.
    assert_eq!(rtx_burst.len(), 1);
    assert_eq!(rtx_burst[0].seq, tcb.snd_una().raw());
    assert_eq!(rtx_burst[0].payload.len(), 1460);
    assert!(tcb.snd_nxt().lt(snd_nxt_before) || tcb.snd_nxt() == snd_nxt_before.sub(1460));
    assert_eq!(tcb.stats.rto_retransmits, 1);
    // The peer acks the retransmission: slow start resumes with two
    // segments (cwnd 2 MSS). The first re-covers old ground (segment 2
    // of the original burst — not new bytes); the second is the first
    // transmission of queued data beyond the old snd_max.
    let bytes_out_before = tcb.stats.bytes_out;
    let t2 = t1 + SimDuration::from_millis(10);
    tcb.on_segment(t2, &seg(7001, rtx_burst[0].seq.wrapping_add(1460), TcpFlags::ACK, b""));
    let resume = tcb.poll(t2);
    assert_eq!(resume.len(), 2, "slow start must re-open the pipe");
    assert_eq!(
        tcb.stats.bytes_out,
        bytes_out_before + 1460,
        "only the genuinely-new segment counts as new bytes"
    );
}

#[test]
fn fin_retransmits_after_rollback() {
    let (mut tcb, now, _cseq, _iss) = established_server(TcpConfig::default());
    tcb.write(b"bye");
    tcb.close(now);
    let out = tcb.poll(now);
    // 3 bytes + FIN (possibly combined or separate).
    let had_fin = out.iter().any(|s| s.flags.contains(TcpFlags::FIN));
    assert!(had_fin);
    assert_eq!(tcb.state(), TcpState::FinWait1);
    // RTO fires twice with no ack: data+FIN must be fully resent.
    let t1 = now + SimDuration::from_millis(1100);
    let rtx = tcb.poll(t1);
    assert!(!rtx.is_empty());
    let resent_fin = rtx.iter().any(|s| s.flags.contains(TcpFlags::FIN));
    assert!(resent_fin, "rollback must re-emit the FIN: {rtx:?}");
    // Ack everything: connection proceeds to FinWait2.
    let fin_seq = rtx.iter().map(|s| s.seq.wrapping_add(s.seq_len())).max().unwrap();
    tcb.on_segment(t1, &seg(7001, fin_seq, TcpFlags::ACK, b""));
    assert_eq!(tcb.state(), TcpState::FinWait2);
}

#[test]
fn zero_window_probe_elicits_update() {
    let cfg = TcpConfig { delayed_ack: SimDuration::ZERO, ..TcpConfig::default() };
    let (mut tcb, now, _cseq, iss) = established_server(cfg);
    // Peer advertises a zero window.
    tcb.on_segment(now, &seg(7001, iss.wrapping_add(1), TcpFlags::ACK, b""));
    let zero_win = {
        let mut s = TcpSegment::bare(40000, 80, 7001, iss.wrapping_add(1), TcpFlags::ACK, 0);
        s.payload = Bytes::new();
        s
    };
    tcb.on_segment(now, &zero_win);
    tcb.write(b"stuck data");
    assert!(tcb.poll(now).is_empty(), "no data may flow into a zero window");
    // The persist timer fires and sends a probe below the window.
    let t1 = now + SimDuration::from_secs(2);
    let probes = tcb.poll(t1);
    assert_eq!(probes.len(), 1);
    assert_eq!(probes[0].payload.len(), 0);
    assert_eq!(probes[0].seq, tcb.snd_una().sub(1).raw(), "keepalive-style probe below snd_una");
    assert!(tcb.stats.probes >= 1);
    // The peer answers with an opened window: data flows.
    let open = TcpSegment::bare(40000, 80, 7001, iss.wrapping_add(1), TcpFlags::ACK, 17520);
    tcb.on_segment(t1, &open);
    let data = tcb.poll(t1);
    assert_eq!(data.len(), 1);
    assert_eq!(data[0].payload.as_ref(), b"stuck data");
}

#[test]
fn shadow_isn_check_counts_a_mismatch_and_never_applies_it() {
    // ST-TCP §4.1 rewrites the shadow's ISN from the client's handshake
    // ACK. Every server derives one ISS from the SYN, so that ACK acks
    // the shadow's own SYN/ACK; one that acks less (the primary's ISS
    // here is 555) is counted, and the shadow keeps its ISS.
    let cfg = TcpConfig { shadow: true, ..TcpConfig::default() };
    let now = SimTime::ZERO;
    let mut agreeing = Conn::accept(now, quad(), SeqNum(555), &client_syn(7000), cfg.clone());
    let _ = agreeing.poll(now);
    agreeing.on_segment(now, &seg(7001, 556, TcpFlags::ACK, b""));
    assert_eq!(agreeing.state(), TcpState::Established);
    assert_eq!(agreeing.stats.isn_resyncs, 0);
    let mut shadow = Conn::accept(now, quad(), SeqNum(90_000), &client_syn(7000), cfg);
    let _ = shadow.poll(now);
    shadow.on_segment(now, &seg(7001, 556, TcpFlags::ACK, b""));
    assert_eq!(shadow.state(), TcpState::Established);
    assert_eq!(shadow.iss(), SeqNum(90_000), "the check never rewrites the ISS");
    assert_eq!(shadow.stats.isn_resyncs, 1);
}

#[test]
fn shadow_isn_check_ignores_a_retransmitted_first_request_that_acks_reply_bytes() {
    // The tap lost both the handshake ACK and the first request. The
    // client's retransmission of that request sits at the stream's first
    // byte, and it acks 300 reply bytes the primary sent meanwhile: no
    // evidence of another ISS, so no count.
    let cfg = TcpConfig { shadow: true, ..TcpConfig::default() };
    let now = SimTime::ZERO;
    let mut tcb = Conn::accept(now, quad(), SeqNum(42_000), &client_syn(7000), cfg);
    let _ = tcb.poll(now);
    tcb.on_segment(now, &seg(7001, 42_301, TcpFlags::ACK | TcpFlags::PSH, &[7; 150]));
    assert_eq!(tcb.state(), TcpState::Established);
    assert_eq!(tcb.rcv_nxt(), SeqNum(7151), "the request is in");
    assert_eq!(tcb.stats.isn_resyncs, 0);
}

#[test]
fn a_shadow_establishes_on_an_ack_past_the_first_byte() {
    // The tap lost the handshake ACK (piggybacked on a 150-byte request):
    // the next client segment starts 150 bytes in and acks 150 bytes of
    // reply the shadow has not generated yet. It establishes the shadow
    // at its own ISS, which is the primary's, and is no §4.1 mismatch.
    let cfg = TcpConfig { shadow: true, ..TcpConfig::default() };
    let now = SimTime::ZERO;
    let mut tcb = Conn::accept(now, quad(), SeqNum(42_000), &client_syn(7000), cfg);
    let _ = tcb.poll(now); // its own (suppressed) SYN/ACK
    tcb.on_segment(now, &seg(7151, 42_151, TcpFlags::ACK, &[7; 150]));
    assert_eq!(tcb.state(), TcpState::Established);
    assert_eq!((tcb.iss(), tcb.snd_nxt()), (SeqNum(42_000), SeqNum(42_001)));
    assert_eq!(tcb.stats.isn_resyncs, 0);
    // The request waits behind the lost one; the 150 acked-but-not-yet-
    // generated reply bytes are remembered...
    assert_eq!(tcb.rcv_nxt(), SeqNum(7001));
    assert_eq!(tcb.peer_ack_high_water(), SeqNum(42_151));
    // ...and complete the moment the app produces them.
    tcb.write(&[0x55u8; 150]);
    let out = tcb.poll(now);
    assert_eq!(out.len(), 1);
    assert_eq!(tcb.snd_una(), SeqNum(42_151), "auto-trim against the tapped client ack");
}

#[test]
fn fast_retransmit_on_three_dup_acks() {
    let cfg = TcpConfig { delayed_ack: SimDuration::ZERO, ..TcpConfig::default() };
    let (mut tcb, now, _c, iss) = established_server(cfg);
    // Grow cwnd a little: write and ack a few rounds.
    let mut clock = now;
    let mut acked = iss.wrapping_add(1);
    for _ in 0..4 {
        tcb.write(&[0u8; 2920]);
        let out = tcb.poll(clock);
        for s in &out {
            acked = acked.max(s.seq.wrapping_add(s.payload.len() as u32));
        }
        clock += SimDuration::from_millis(10);
        tcb.on_segment(clock, &seg(7001, acked, TcpFlags::ACK, b""));
    }
    // Put 5 segments in flight.
    tcb.write(&[1u8; 5 * 1460]);
    let flight = tcb.poll(clock);
    assert!(flight.len() >= 4, "need several segments in flight, got {}", flight.len());
    let first_seq = flight[0].seq;
    // Three duplicate ACKs for the first segment's start.
    for _ in 0..3 {
        tcb.on_segment(clock, &seg(7001, first_seq, TcpFlags::ACK, b""));
    }
    let rtx = tcb.poll(clock);
    assert_eq!(tcb.stats.fast_retransmits, 1);
    assert!(rtx.iter().any(|s| s.seq == first_seq), "front segment must be fast-retransmitted");
    assert_eq!(tcb.stats.rto_retransmits, 0, "no timeout involved");
}

#[test]
fn retention_survives_app_reads_until_backup_ack() {
    let mut cfg = TcpConfig::st_tcp_primary();
    cfg.delayed_ack = SimDuration::ZERO;
    let (mut tcb, now, cseq, _iss) = established_server(cfg);
    tcb.on_segment(
        now,
        &seg(cseq, tcb.snd_nxt().raw(), TcpFlags::ACK | TcpFlags::PSH, b"0123456789"),
    );
    let mut buf = [0u8; 10];
    assert_eq!(tcb.read(&mut buf), 10);
    assert_eq!(tcb.retained(), 10);
    assert_eq!(tcb.fetch_rx(SeqNum(cseq), 10).unwrap(), b"0123456789");
    tcb.set_backup_acked(SeqNum(cseq).add(10));
    assert_eq!(tcb.retained(), 0);
    assert_eq!(tcb.fetch_rx(SeqNum(cseq), 10), None);
}

#[test]
fn syn_retransmission_gives_up_eventually() {
    let now = SimTime::ZERO;
    let mut tcb = Conn::connect(now, quad().flipped(), SeqNum(1), TcpConfig::default());
    let _ = tcb.poll(now);
    let mut clock = now;
    for _ in 0..100 {
        clock += SimDuration::from_secs(30);
        let _ = tcb.poll(clock);
        if tcb.state() == TcpState::Closed {
            break;
        }
    }
    assert_eq!(tcb.state(), TcpState::Closed, "unanswered SYN must eventually give up");
}

#[test]
fn rst_kills_the_connection_immediately() {
    let (mut tcb, now, cseq, _iss) = established_server(TcpConfig::default());
    tcb.on_segment(now, &seg(cseq, tcb.snd_nxt().raw(), TcpFlags::RST, b""));
    assert_eq!(tcb.state(), TcpState::Closed);
    assert!(tcb.poll(now).is_empty(), "a closed TCB emits nothing");
}

// ---- `writable()` is exactly what `write()` takes, in every state ----

/// The connection accepts data: offered one byte more than `writable()`
/// reports, `write()` takes exactly the reported amount.
fn assert_open_for_writing(mut tcb: Conn) {
    let room = tcb.writable();
    assert!(room > 0, "in {:?}", tcb.state());
    assert_eq!(tcb.write(&vec![0x5A; room + 1]), room, "in {:?}", tcb.state());
    assert_eq!(tcb.writable(), 0, "full after taking it all ({:?})", tcb.state());
}

/// The connection refuses data although its send buffer has room (no
/// test below queues more than a few bytes): `writable()` must say so.
fn assert_shut_for_writing(tcb: &mut Conn) {
    assert_eq!(tcb.write(b"x"), 0, "in {:?}", tcb.state());
    assert_eq!(tcb.writable(), 0, "in {:?}", tcb.state());
}

/// A segment from the client acknowledging everything the server has
/// sent (its FIN included, when one is out).
fn ack_all(tcb: &Tcb, cseq: u32, flags: TcpFlags) -> TcpSegment {
    seg(cseq, tcb.snd_nxt().raw(), flags | TcpFlags::ACK, b"")
}

#[test]
fn writable_in_syn_sent_then_closed() {
    let now = SimTime::ZERO;
    let mut tcb = Conn::connect(now, quad().flipped(), SeqNum(1), TcpConfig::default());
    assert_eq!(tcb.state(), TcpState::SynSent);
    assert_open_for_writing(tcb.clone()); // data may queue behind the SYN
    tcb.close(now);
    assert_eq!(tcb.state(), TcpState::Closed);
    assert_shut_for_writing(&mut tcb);
}

#[test]
fn writable_in_syn_rcvd() {
    let now = SimTime::ZERO;
    let tcb = Conn::accept(now, quad(), SeqNum(555), &client_syn(7000), TcpConfig::default());
    assert_eq!(tcb.state(), TcpState::SynRcvd);
    assert_open_for_writing(tcb);
}

#[test]
fn writable_in_established_until_a_fin_is_queued() {
    let (mut tcb, now, _cseq, _iss) = established_server(TcpConfig::default());
    assert_open_for_writing(tcb.clone());
    // Closed by the application but not polled yet: still Established,
    // with the FIN waiting behind the data.
    assert_eq!(tcb.write(b"bye"), 3);
    tcb.close(now);
    assert_eq!(tcb.state(), TcpState::Established);
    assert_shut_for_writing(&mut tcb);
}

#[test]
fn writable_in_close_wait_until_a_fin_is_queued() {
    let (mut tcb, now, cseq, _iss) = established_server(TcpConfig::default());
    tcb.on_segment(now, &ack_all(&tcb, cseq, TcpFlags::FIN));
    assert_eq!(tcb.state(), TcpState::CloseWait);
    assert_open_for_writing(tcb.clone()); // half-closed: we may still send
    tcb.close(now);
    assert_eq!(tcb.state(), TcpState::CloseWait);
    assert_shut_for_writing(&mut tcb);
    let _ = tcb.poll(now);
    assert_eq!(tcb.state(), TcpState::LastAck);
    assert_shut_for_writing(&mut tcb);
}

#[test]
fn writable_is_zero_from_fin_wait_to_time_wait() {
    let (mut tcb, now, cseq, _iss) = established_server(TcpConfig::default());
    tcb.close(now);
    let _ = tcb.poll(now);
    assert_eq!(tcb.state(), TcpState::FinWait1);
    assert_shut_for_writing(&mut tcb);
    tcb.on_segment(now, &ack_all(&tcb, cseq, TcpFlags::ACK));
    assert_eq!(tcb.state(), TcpState::FinWait2);
    assert_shut_for_writing(&mut tcb);
    tcb.on_segment(now, &ack_all(&tcb, cseq, TcpFlags::FIN));
    assert_eq!(tcb.state(), TcpState::TimeWait);
    assert_shut_for_writing(&mut tcb);
}

#[test]
fn writable_is_zero_in_closing() {
    // Simultaneous close: our FIN is out, the peer's FIN arrives before
    // the ACK of ours.
    let (mut tcb, now, cseq, iss) = established_server(TcpConfig::default());
    tcb.close(now);
    let _ = tcb.poll(now);
    tcb.on_segment(now, &seg(cseq, iss.wrapping_add(1), TcpFlags::FIN | TcpFlags::ACK, b""));
    assert_eq!(tcb.state(), TcpState::Closing);
    assert_shut_for_writing(&mut tcb);
}

#[test]
fn a_staged_segment_is_a_forty_byte_plan() {
    // Header fields plus an (almost always empty, unallocated) option
    // list: what a suppressed shadow pays per segment it never sends.
    assert!(std::mem::size_of::<tcpstack::StagedSeg>() <= 40);
}

/// Karn's rule for the handshake: a SYN (or SYN/ACK) sent three times —
/// at 0, 1 s and 3 s — and answered at 3.4 s gives no RTT sample (which
/// of the three was answered?), and its backoff ends with the handshake.
/// So the first data segment's RTO is the initial 1 s. A sample spanning
/// both retransmissions (3.4 s), times the handshake's backoff of four,
/// would put it past 40 s.
fn first_data_rto_after_a_twice_retransmitted_handshake(
    mut tcb: Conn,
    answer: impl FnOnce(&Tcb) -> TcpSegment,
) -> SimDuration {
    let t0 = SimTime::ZERO;
    for at in [0, 1_000, 3_000] {
        let sent = tcb.poll(t0 + SimDuration::from_millis(at));
        assert!(sent.len() == 1 && sent[0].flags.contains(TcpFlags::SYN), "at {at} ms: {sent:?}");
    }
    let answered = t0 + SimDuration::from_millis(3_400);
    tcb.on_segment(answered, &answer(&tcb));
    assert_eq!(tcb.state(), TcpState::Established);
    assert_eq!(tcb.write(&[7u8; 150]), 150);
    let request = tcb.poll(answered);
    assert!(request.iter().any(|s| s.payload.len() == 150), "{request:?}");
    tcb.next_deadline().expect("unacked data arms the RTO").duration_since(answered)
}

#[test]
fn a_retransmitted_syn_leaves_the_first_data_rto_at_the_initial_rto() {
    let client = Conn::connect(SimTime::ZERO, quad().flipped(), SeqNum(1), TcpConfig::default());
    let rto = first_data_rto_after_a_twice_retransmitted_handshake(client, |tcb| {
        let (ack, flags) = (tcb.iss().raw() + 1, TcpFlags::SYN | TcpFlags::ACK);
        let mut synack = TcpSegment::bare(80, 40000, 9_000, ack, flags, 17520);
        synack.options = vec![wire::TcpOption::Mss(1460)];
        synack
    });
    assert_eq!(rto, RtoEstimator::INITIAL);
}

#[test]
fn a_retransmitted_syn_ack_leaves_the_first_data_rto_at_the_initial_rto() {
    let server = Conn::accept(
        SimTime::ZERO,
        quad(),
        SeqNum(100_000),
        &client_syn(7000),
        TcpConfig::default(),
    );
    let rto = first_data_rto_after_a_twice_retransmitted_handshake(server, |tcb| {
        seg(7001, tcb.iss().raw() + 1, TcpFlags::ACK, b"")
    });
    assert_eq!(rto, RtoEstimator::INITIAL);
}
