//! The receive buffer: reassembly plus the ST-TCP *second buffer*.
//!
//! Figure 4 of the paper contrasts the standard TCP receive buffer
//! (pointers `LastByteRead ≤ NextByteExpected ≤ LastByteRecd`) with the
//! ST-TCP primary's, which adds `LastByteAcked` — the last byte the
//! *backup* has acknowledged over the side channel. The primary "discards
//! all those bytes whose sequence numbers are smaller than or equal to
//! LastByteRead or LastByteAcked, whichever is smaller", retaining
//! already-read-but-unacked bytes in a logically separate *second buffer*
//! of its own capacity ("we double the space allocated for the receive
//! buffer"). Only when that second buffer overflows do retained bytes eat
//! into the advertised window — the design that keeps ST-TCP
//! indistinguishable from TCP on the wire during failure-free operation.
//!
//! This type implements both modes: `retention_capacity == 0` is a
//! standard TCP receive buffer; non-zero enables the second buffer.
//!
//! Both buffers are capacities, not allocations: in-order bytes, unread
//! and retained alike, share one ring that grows with what it holds.
//! Once the backup has acked and the application has read every byte,
//! the ring is empty and the stack parks its storage in its thread's
//! one spare (`RecvBuffer::park`), so the doubled space of §4.2 costs memory only
//! while it holds bytes, and an idle connection holds no ring at all.
//! The two capacities are the stack's `TcpConfig`, lent to the calls
//! that need them rather than copied into every connection.

use crate::config::TcpConfig;
use crate::send_buf::{adopt_ring, park_ring};
use crate::seq::SeqNum;
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};

/// Reassembly + retention receive buffer.
///
/// ```
/// use tcpstack::recv_buf::RecvBuffer;
/// use tcpstack::{SeqNum, TcpConfig};
///
/// // A primary's buffer: 16-byte first buffer, 16-byte second buffer.
/// let cfg = TcpConfig { recv_buf: 16, retention_buf: 16, ..TcpConfig::default() };
/// let mut buf = RecvBuffer::new(SeqNum::new(1000), &cfg);
/// buf.insert(&cfg, SeqNum::new(1000), b"hello");
/// let mut out = [0u8; 5];
/// buf.read(&mut out); // the application consumes the bytes...
/// assert_eq!(buf.retained(), 5); // ...but they stay for the backup
/// assert_eq!(buf.fetch(SeqNum::new(1000), 5).unwrap(), b"hello");
/// buf.set_backup_acked(SeqNum::new(1005)); // side-channel ack
/// assert_eq!(buf.retained(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct RecvBuffer {
    /// Lowest retained byte (the discard floor).
    floor: SeqNum,
    /// Next byte the application will read (`LastByteRead + 1`).
    app_read: SeqNum,
    /// Next byte expected from the network (`NextByteExpected`).
    rcv_nxt: SeqNum,
    /// `LastByteAcked + 1`: next byte the backup has NOT yet acknowledged.
    backup_acked: SeqNum,
    /// In-order bytes `[floor, rcv_nxt)`.
    data: VecDeque<u8>,
    /// Out-of-order segments keyed by their start's stream offset (see
    /// `delivered`), which orders them in sequence space across the
    /// 2³² wrap. Stored as [`Bytes`] slices of the received frame, so
    /// buffering a reordered segment costs a refcount bump, not a heap
    /// copy.
    ooo: BTreeMap<u64, Bytes>,
    /// The stream offset of `rcv_nxt`: bytes taken in order since the
    /// initial sequence number. Unlike a sequence number it never wraps.
    delivered: u64,
    ooo_bytes: u32,
    /// The second buffer is in use: the config has one and retention
    /// has not been disabled.
    retaining: bool,
}

impl RecvBuffer {
    /// Creates a buffer expecting `initial` as the first byte, retaining
    /// for a backup if `cfg` has a second buffer.
    pub fn new(initial: SeqNum, cfg: &TcpConfig) -> Self {
        RecvBuffer {
            floor: initial,
            app_read: initial,
            rcv_nxt: initial,
            backup_acked: initial,
            data: VecDeque::new(),
            ooo: BTreeMap::new(),
            delivered: 0,
            ooo_bytes: 0,
            retaining: cfg.retention_buf > 0,
        }
    }

    /// `NextByteExpected`.
    pub fn rcv_nxt(&self) -> SeqNum {
        self.rcv_nxt
    }

    /// Next byte the application will read.
    pub fn app_read_seq(&self) -> SeqNum {
        self.app_read
    }

    /// The discard floor (lowest byte still held).
    pub fn floor(&self) -> SeqNum {
        self.floor
    }

    /// Bytes ready for the application.
    pub fn readable(&self) -> usize {
        self.rcv_nxt.distance(self.app_read) as usize
    }

    /// Bytes retained solely for the backup (read by the app, unacked).
    pub fn retained(&self) -> usize {
        self.app_read.distance(self.floor) as usize
    }

    /// The advertised receive window under `cfg`'s capacities.
    ///
    /// Standard-TCP accounting for the first buffer; retained bytes only
    /// reduce the window once they exceed the second buffer's capacity —
    /// exactly the paper's overflow behaviour.
    pub fn window(&self, cfg: &TcpConfig) -> usize {
        let second = if self.retaining { cfg.retention_buf } else { 0 };
        let unread = self.readable();
        let spill = self.retained().saturating_sub(second);
        cfg.recv_buf.saturating_sub(unread + spill + self.ooo_bytes as usize)
    }

    /// One past the highest byte received, in order or not: above
    /// `rcv_nxt` exactly when reassembly holds an island beyond a hole.
    pub fn received_end(&self) -> SeqNum {
        let end = self.ooo.iter().map(|(&off, seg)| off + seg.len() as u64).max();
        self.seq_at(end.unwrap_or(self.delivered))
    }

    /// The out-of-order islands above `rcv_nxt`, merged into maximal
    /// contiguous `[lo, hi)` ranges in sequence order — the receiver's
    /// SACK blocks (RFC 2018). Empty when reassembly has no gaps.
    pub fn sack_ranges(&self) -> Vec<(SeqNum, SeqNum)> {
        let mut out = Vec::new();
        let mut islands = self.ooo.iter().map(|(&lo, seg)| (lo, lo + seg.len() as u64));
        let Some((mut lo, mut hi)) = islands.next() else {
            return out;
        };
        for (next_lo, next_hi) in islands {
            if next_lo > hi {
                out.push((self.seq_at(lo), self.seq_at(hi)));
                lo = next_lo;
            }
            hi = hi.max(next_hi);
        }
        out.push((self.seq_at(lo), self.seq_at(hi)));
        out
    }

    /// The stream offset of `seq`, which is at or above `rcv_nxt`.
    fn offset_of(&self, seq: SeqNum) -> u64 {
        self.delivered + seq.distance(self.rcv_nxt) as u64
    }

    /// The sequence number at stream offset `off`, at or above `rcv_nxt`.
    fn seq_at(&self, off: u64) -> SeqNum {
        self.rcv_nxt.add((off - self.delivered) as u32)
    }

    /// Inserts `data` at `seq`. Returns `true` if the segment carried at
    /// least one byte that was new and in-window (callers send an
    /// immediate ACK for anything else).
    ///
    /// Copying convenience over [`RecvBuffer::insert_bytes`]; the hot
    /// receive path hands over the parsed segment payload directly.
    pub fn insert(&mut self, cfg: &TcpConfig, seq: SeqNum, data: &[u8]) -> bool {
        self.insert_bytes(cfg, seq, Bytes::copy_from_slice(data))
    }

    /// Inserts `data` at `seq` without copying: an out-of-order segment
    /// is held as a slice of the received frame until the gap fills.
    /// Same return contract as [`RecvBuffer::insert`]; the window edge
    /// is `cfg`'s.
    pub fn insert_bytes(&mut self, cfg: &TcpConfig, seq: SeqNum, data: Bytes) -> bool {
        if data.is_empty() {
            return false;
        }
        let mut seq = seq;
        let mut data = data;
        // Trim the head below rcv_nxt (retransmitted prefix).
        if seq.lt(self.rcv_nxt) {
            let skip = self.rcv_nxt.distance(seq);
            if skip as usize >= data.len() {
                return false; // entirely duplicate
            }
            data = data.slice(skip as usize..);
            seq = self.rcv_nxt;
        }
        // Trim the tail beyond the window edge.
        let window_edge = self.rcv_nxt.add(self.window(cfg) as u32);
        if seq.ge(window_edge) {
            return false;
        }
        let room = window_edge.distance(seq) as usize;
        if data.len() > room {
            data = data.slice(..room);
        }
        if data.is_empty() {
            return false;
        }
        if seq == self.rcv_nxt {
            self.take_in_order(&data);
            self.drain_ooo();
        } else {
            // Out of order: store; overlap with other entries gets
            // trimmed when drained.
            use std::collections::btree_map::Entry;
            match self.ooo.entry(self.offset_of(seq)) {
                Entry::Vacant(e) => {
                    self.ooo_bytes += data.len() as u32;
                    e.insert(data);
                }
                Entry::Occupied(mut e) => {
                    if data.len() > e.get().len() {
                        self.ooo_bytes += (data.len() - e.get().len()) as u32;
                        e.insert(data);
                    }
                }
            }
        }
        true
    }

    /// Appends bytes that start at `rcv_nxt`.
    fn take_in_order(&mut self, bytes: &[u8]) {
        self.data.extend(bytes);
        self.rcv_nxt = self.rcv_nxt.add(bytes.len() as u32);
        self.delivered += bytes.len() as u64;
    }

    fn drain_ooo(&mut self) {
        while let Some((&start, _)) = self.ooo.first_key_value() {
            if start > self.delivered {
                break;
            }
            let seg = self.ooo.pop_first().expect("just peeked").1;
            self.ooo_bytes -= seg.len() as u32;
            let skip = (self.delivered - start) as usize;
            if skip < seg.len() {
                self.take_in_order(&seg[skip..]);
            }
        }
    }

    /// Copies readable bytes into `buf`, advancing the application
    /// pointer; returns the count. In retention mode the bytes stay in
    /// the (second) buffer until [`RecvBuffer::set_backup_acked`] passes
    /// them.
    pub fn read(&mut self, buf: &mut [u8]) -> usize {
        let n = buf.len().min(self.readable());
        let off = self.app_read.distance(self.floor) as usize;
        self.copy_out(off, &mut buf[..n]);
        self.app_read = self.app_read.add(n as u32);
        self.discard();
        n
    }

    /// Copies `out.len()` held bytes starting `off` bytes above the
    /// floor, as at most two slice memcpys across the ring seam.
    fn copy_out(&self, off: usize, out: &mut [u8]) {
        let (front, back) = ring_range(&self.data, off, out.len());
        out[..front.len()].copy_from_slice(front);
        out[front.len()..].copy_from_slice(back);
    }

    /// Lends every unread byte out for in-place delivery: the caller
    /// reads [`Lent::slices`] — the ring's own memory, no copy — while
    /// it is free to use the rest of the connection, then hands the
    /// loan back with [`RecvBuffer::restore`]. Nothing else may touch
    /// this buffer in between (its ring is out on loan).
    pub(crate) fn lend(&mut self) -> Lent {
        Lent { skip: self.retained(), len: self.readable(), ring: std::mem::take(&mut self.data) }
    }

    /// Takes a loan back and marks its bytes read, exactly as a
    /// [`RecvBuffer::read`] of [`Lent::len`] bytes would have.
    pub(crate) fn restore(&mut self, lent: Lent) {
        debug_assert!(self.data.is_empty(), "receive buffer touched while on loan");
        self.data = lent.ring;
        self.app_read = self.app_read.add(lent.len as u32);
        self.discard();
    }

    /// Records the backup's cumulative acknowledgment (`LastByteAcked+1`)
    /// from the side channel, releasing retained bytes it covers.
    pub fn set_backup_acked(&mut self, acked: SeqNum) {
        if acked.gt(self.backup_acked) {
            self.backup_acked = acked.min(self.rcv_nxt);
            self.discard();
        }
    }

    /// Switches retention off (primary → non-fault-tolerant mode after a
    /// backup failure, paper §4.4) and releases everything retained.
    pub fn disable_retention(&mut self) {
        self.retaining = false;
        self.backup_acked = self.rcv_nxt;
        self.discard();
    }

    /// When no byte is held (none unread, none retained), parks the
    /// ring's storage in `spare` (see [`park_ring`]); out-of-order
    /// segments are held apart and stay.
    pub(crate) fn park(&mut self, spare: &mut VecDeque<u8>) {
        if self.data.is_empty() {
            park_ring(&mut self.data, spare);
        }
    }

    /// Takes `spare`'s storage if the ring has none.
    pub(crate) fn adopt(&mut self, spare: &mut VecDeque<u8>) {
        adopt_ring(&mut self.data, spare);
    }

    /// Whether retention is active.
    pub fn retention_enabled(&self) -> bool {
        self.retaining
    }

    /// Serves retained (or still unread) bytes `[seq, seq+len)` for the
    /// backup's missing-segment recovery. Returns `None` if any requested
    /// byte is no longer held or was never received.
    /// The range is measured from the floor, not compared on the
    /// sequence circle: a request wider than half of it would otherwise
    /// pass both circular checks.
    pub fn fetch(&self, seq: SeqNum, len: usize) -> Option<Vec<u8>> {
        let off = seq.distance(self.floor);
        if off < 0 || off + i64::try_from(len).ok()? > self.rcv_nxt.distance(self.floor) {
            return None;
        }
        let off = off as usize;
        let mut out = vec![0u8; len];
        self.copy_out(off, &mut out);
        Some(out)
    }

    fn discard(&mut self) {
        let keep_from = if self.retaining {
            // Paper rule: discard up to min(LastByteRead, LastByteAcked).
            self.app_read.min(self.backup_acked)
        } else {
            self.app_read
        };
        if keep_from.gt(self.floor) {
            let n = keep_from.distance(self.floor) as usize;
            self.data.drain(..n);
            self.floor = keep_from;
        }
    }
}

/// The unread bytes of a [`RecvBuffer`], out on loan (see
/// [`RecvBuffer::lend`]).
#[derive(Debug)]
pub(crate) struct Lent {
    ring: VecDeque<u8>,
    /// Retained bytes ahead of the unread ones in `ring`.
    skip: usize,
    len: usize,
}

impl Lent {
    /// The unread bytes, oldest first, split where the ring wraps
    /// (either slice may be empty).
    pub(crate) fn slices(&self) -> (&[u8], &[u8]) {
        ring_range(&self.ring, self.skip, self.len)
    }

    /// Unread bytes on loan.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// Bytes `[off, off + n)` of `ring` as its own (at most two) slices.
fn ring_range(ring: &VecDeque<u8>, off: usize, n: usize) -> (&[u8], &[u8]) {
    let (front, back) = ring.as_slices();
    if off < front.len() {
        let a = n.min(front.len() - off);
        (&front[off..off + a], &back[..n - a])
    } else {
        let o = off - front.len();
        (&back[o..o + n], &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::{Deref, DerefMut};

    /// A buffer and the capacities it is used under, which the calls
    /// that need them get from here.
    #[derive(Clone)]
    struct Buf {
        buf: RecvBuffer,
        cfg: TcpConfig,
    }

    impl Buf {
        fn insert(&mut self, seq: SeqNum, data: &[u8]) -> bool {
            self.buf.insert(&self.cfg, seq, data)
        }

        fn window(&self) -> usize {
            self.buf.window(&self.cfg)
        }
    }

    impl Deref for Buf {
        type Target = RecvBuffer;
        fn deref(&self) -> &RecvBuffer {
            &self.buf
        }
    }

    impl DerefMut for Buf {
        fn deref_mut(&mut self) -> &mut RecvBuffer {
            &mut self.buf
        }
    }

    /// A buffer expecting `initial`, with a first buffer of `first`
    /// bytes and a second of `second`.
    fn buf(initial: SeqNum, first: usize, second: usize) -> Buf {
        let cfg = TcpConfig { recv_buf: first, retention_buf: second, ..TcpConfig::default() };
        Buf { buf: RecvBuffer::new(initial, &cfg), cfg }
    }

    fn std_buf() -> Buf {
        buf(SeqNum(1000), 16, 0)
    }

    fn ft_buf() -> Buf {
        // First buffer 16, second buffer 16 ("double the space").
        buf(SeqNum(1000), 16, 16)
    }

    #[test]
    fn in_order_delivery() {
        let mut b = std_buf();
        assert!(b.insert(SeqNum(1000), b"hello"));
        assert_eq!(b.rcv_nxt(), SeqNum(1005));
        assert_eq!(b.readable(), 5);
        let mut out = [0u8; 8];
        assert_eq!(b.read(&mut out), 5);
        assert_eq!(&out[..5], b"hello");
        assert_eq!(b.readable(), 0);
        assert_eq!(b.window(), 16, "standard buffer frees space on read");
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut b = std_buf();
        assert!(b.insert(SeqNum(1005), b"world"));
        assert_eq!(b.rcv_nxt(), SeqNum(1000), "gap holds rcv_nxt");
        assert_eq!(b.readable(), 0);
        assert!(b.insert(SeqNum(1000), b"hello"));
        assert_eq!(b.rcv_nxt(), SeqNum(1010));
        let mut out = [0u8; 10];
        assert_eq!(b.read(&mut out), 10);
        assert_eq!(&out, b"helloworld");
    }

    #[test]
    fn duplicate_rejected() {
        let mut b = std_buf();
        assert!(b.insert(SeqNum(1000), b"abc"));
        assert!(!b.insert(SeqNum(1000), b"abc"), "full duplicate");
        assert!(b.insert(SeqNum(1001), b"bcde"), "partial overlap carries new tail");
        assert_eq!(b.rcv_nxt(), SeqNum(1005));
    }

    #[test]
    fn window_limits_acceptance() {
        let mut b = std_buf(); // capacity 16
        assert!(b.insert(SeqNum(1000), &[b'x'; 30]));
        assert_eq!(b.rcv_nxt(), SeqNum(1016), "tail beyond window trimmed");
        assert_eq!(b.window(), 0);
        assert!(!b.insert(SeqNum(1016), b"y"), "zero window accepts nothing");
        let mut out = [0u8; 4];
        b.read(&mut out);
        assert_eq!(b.window(), 4);
    }

    #[test]
    fn sack_ranges_report_merged_islands() {
        let mut b = buf(SeqNum(1000), 64, 0);
        assert!(b.sack_ranges().is_empty());
        b.insert(SeqNum(1004), b"bb");
        b.insert(SeqNum(1010), b"cc");
        b.insert(SeqNum(1006), b"xx"); // touches the first island
        assert_eq!(
            b.sack_ranges(),
            vec![(SeqNum(1004), SeqNum(1008)), (SeqNum(1010), SeqNum(1012))]
        );
        b.insert(SeqNum(1000), b"aaaa"); // fills the head gap
        assert_eq!(b.sack_ranges(), vec![(SeqNum(1010), SeqNum(1012))]);
        b.insert(SeqNum(1008), b"yy");
        assert!(b.sack_ranges().is_empty(), "fully reassembled");
    }

    #[test]
    fn reassembly_orders_islands_across_the_sequence_wrap() {
        // Two islands of 0x200 B, one each side of the wrap, above a
        // hole at rcv_nxt. Keyed by raw sequence number, the one past
        // the wrap sorted first: filling the hole stopped at the other
        // island, which stayed counted against the window, and the SACK
        // blocks merged the two into one.
        let mut b = buf(SeqNum(0xFFFF_F000), 64 * 1024, 0);
        assert!(b.insert(SeqNum(0xFFFF_FA00), &[1; 0x200]));
        assert!(b.insert(SeqNum(0x0000_0200), &[2; 0x200]));
        assert_eq!(
            b.sack_ranges(),
            vec![(SeqNum(0xFFFF_FA00), SeqNum(0xFFFF_FC00)), (SeqNum(0x200), SeqNum(0x400))]
        );
        assert_eq!(b.received_end(), SeqNum(0x400));
        assert!(b.insert(SeqNum(0xFFFF_F000), &[0; 0xA00]));
        assert_eq!(b.rcv_nxt(), SeqNum(0xFFFF_FC00), "the island before the wrap is taken");
        assert_eq!(b.sack_ranges(), vec![(SeqNum(0x200), SeqNum(0x400))]);
        assert_eq!(b.window(), 64 * 1024 - 0xC00 - 0x200, "only the held island counts");
        assert!(b.insert(SeqNum(0xFFFF_FC00), &[3; 0x600]));
        assert_eq!(b.rcv_nxt(), SeqNum(0x400));
        assert!(b.sack_ranges().is_empty());
        let mut out = vec![0u8; 0x1400];
        assert_eq!(b.read(&mut out), 0x1400);
        let expected = [[0; 0xA00].as_slice(), &[1; 0x200], &[3; 0x600], &[2; 0x200]].concat();
        assert_eq!(out, expected);
    }

    #[test]
    fn ooo_duplicate_insert_accounting() {
        let mut b = std_buf();
        assert!(b.insert(SeqNum(1004), b"zz"));
        assert!(b.insert(SeqNum(1004), b"zz"));
        assert!(b.insert(SeqNum(1000), b"aaaa"));
        assert_eq!(b.rcv_nxt(), SeqNum(1006));
        assert_eq!(b.window(), 16 - 6);
    }

    // ---- retention (ST-TCP second buffer) ----

    #[test]
    fn retention_keeps_read_bytes_until_backup_ack() {
        let mut b = ft_buf();
        b.insert(SeqNum(1000), b"0123456789");
        let mut out = [0u8; 10];
        b.read(&mut out);
        assert_eq!(b.retained(), 10, "read bytes move to the second buffer");
        assert_eq!(b.floor(), SeqNum(1000));
        assert_eq!(b.window(), 16, "second buffer does not shrink the window");
        assert_eq!(b.fetch(SeqNum(1002), 4).unwrap(), b"2345");
        b.set_backup_acked(SeqNum(1006));
        assert_eq!(b.retained(), 4);
        assert_eq!(b.fetch(SeqNum(1002), 4), None, "released bytes are gone");
        assert_eq!(b.fetch(SeqNum(1006), 4).unwrap(), b"6789");
    }

    #[test]
    fn paper_rule_discard_min_of_read_and_acked() {
        let mut b = ft_buf();
        b.insert(SeqNum(1000), b"abcdefgh");
        // Backup acks ahead of the application reading.
        b.set_backup_acked(SeqNum(1004));
        assert_eq!(b.floor(), SeqNum(1000), "unread bytes never discarded");
        let mut out = [0u8; 2];
        b.read(&mut out);
        assert_eq!(b.floor(), SeqNum(1002), "floor follows min(read, acked)");
        let mut out = [0u8; 6];
        b.read(&mut out);
        assert_eq!(b.floor(), SeqNum(1004), "now acked is the min");
    }

    #[test]
    fn second_buffer_overflow_shrinks_window() {
        // First buffer 8, second buffer 4.
        let mut b = buf(SeqNum(0), 8, 4);
        b.insert(SeqNum(0), b"01234567");
        let mut out = [0u8; 8];
        b.read(&mut out);
        // 8 retained > 4 second-buffer capacity: 4 spill into the first.
        assert_eq!(b.retained(), 8);
        assert_eq!(b.window(), 4, "spill reduces the advertised window");
        b.set_backup_acked(SeqNum(4));
        assert_eq!(b.window(), 8, "ack drains the spill");
    }

    #[test]
    fn backup_ack_beyond_rcv_nxt_clamped() {
        let mut b = ft_buf();
        b.insert(SeqNum(1000), b"ab");
        b.set_backup_acked(SeqNum(5000));
        let mut out = [0u8; 2];
        b.read(&mut out);
        assert_eq!(b.floor(), SeqNum(1002));
    }

    #[test]
    fn disable_retention_releases_everything() {
        let mut b = ft_buf();
        b.insert(SeqNum(1000), b"abcdef");
        let mut out = [0u8; 6];
        b.read(&mut out);
        assert_eq!(b.retained(), 6);
        assert!(b.retention_enabled());
        b.disable_retention();
        assert!(!b.retention_enabled());
        assert_eq!(b.retained(), 0);
        assert_eq!(b.fetch(SeqNum(1000), 1), None);
    }

    #[test]
    fn fetch_spanning_unread_and_retained() {
        let mut b = ft_buf();
        b.insert(SeqNum(1000), b"abcdefgh");
        let mut out = [0u8; 4];
        b.read(&mut out); // retained: abcd, unread: efgh
        assert_eq!(b.fetch(SeqNum(1002), 4).unwrap(), b"cdef", "fetch may span both regions");
        assert_eq!(b.fetch(SeqNum(1000), 9), None, "past rcv_nxt refused");
        // Both ends of this range pass a circular comparison: it starts
        // 2³¹ − 16 past the floor and wraps round to end before rcv_nxt.
        let far = SeqNum(1000).add((1 << 31) - 16);
        assert_eq!(b.fetch(far, (1 << 31) + 20), None, "a range past half the circle is refused");
    }

    /// Reads everything unread from `b` in place and from a clone by
    /// copy; both must deliver the same bytes and leave the same state.
    /// Returns the bytes and whether they straddled the ring's seam.
    fn in_place_read_matches_copy_out(b: &mut Buf) -> (Vec<u8>, bool) {
        let mut copy = b.clone();
        let mut copied = vec![0u8; copy.readable() + 3];
        let n = copy.read(&mut copied);
        copied.truncate(n);

        let lent = b.lend();
        assert_eq!(lent.len(), n);
        let (front, back) = lent.slices();
        let (in_place, straddled) = ([front, back].concat(), !back.is_empty());
        b.restore(lent);

        assert_eq!(in_place, copied);
        assert_eq!(
            (b.readable(), b.retained(), b.floor(), b.app_read_seq(), b.window()),
            (copy.readable(), copy.retained(), copy.floor(), copy.app_read_seq(), copy.window())
        );
        assert_eq!(b.data, copy.data, "the same bytes stay held");
        (in_place, straddled)
    }

    #[test]
    fn in_place_read_matches_copy_out_read() {
        let mut b = std_buf();
        assert_eq!(in_place_read_matches_copy_out(&mut b).0, b"", "nothing unread");
        b.insert(SeqNum(1000), b"0123456789ab");
        assert_eq!(b.read(&mut [0u8; 5]), 5);
        assert_eq!(in_place_read_matches_copy_out(&mut b).0, b"56789ab");
        assert_eq!(b.window(), 16);
    }

    #[test]
    fn in_place_read_across_the_ring_seam_with_retention() {
        // The backup's ack trails the application by five bytes, so the
        // ring never empties and its head walks round and round: retained
        // bytes sit ahead of the unread ones, which sooner or later wrap.
        let mut b = buf(SeqNum(u32::MAX - 500), 64, 64);
        let (mut next, mut straddles) = (b.rcv_nxt(), 0);
        for round in 0..200u32 {
            let chunk: Vec<u8> = (0..9 + round % 5).map(|i| (round * 16 + i) as u8).collect();
            assert!(b.insert(next, &chunk));
            next = next.add(chunk.len() as u32);
            if round % 3 == 0 {
                assert_eq!(b.read(&mut [0u8; 7]), 7, "a copy-out read in between");
            }
            let expected = b.fetch(b.app_read_seq(), b.readable()).unwrap();
            let (got, straddled) = in_place_read_matches_copy_out(&mut b);
            assert_eq!(got, expected);
            straddles += usize::from(straddled);
            let acked = b.app_read_seq().sub(5);
            b.set_backup_acked(acked);
            assert_eq!(b.retained(), 5);
        }
        assert!(straddles > 3, "the seam was crossed {straddles} times");
    }

    #[test]
    fn wrapping_sequence_space() {
        let start = SeqNum(u32::MAX - 3);
        let mut b = buf(start, 16, 16);
        assert!(b.insert(start, b"abcdefgh"));
        assert_eq!(b.rcv_nxt(), SeqNum(4));
        let mut out = [0u8; 8];
        assert_eq!(b.read(&mut out), 8);
        assert_eq!(&out, b"abcdefgh");
        b.set_backup_acked(SeqNum(2));
        assert_eq!(b.retained(), 2);
    }
}
