//! The send buffer: unacknowledged + unsent outbound bytes.

use crate::config::TcpConfig;
use crate::seq::SeqNum;
use std::collections::VecDeque;

/// A contiguous outbound byte queue anchored at `snd_una`.
///
/// Bytes enter via [`SendBuffer::write`] and leave when the peer's
/// cumulative ACK advances past them ([`SendBuffer::ack_to`]). The TCB
/// reads transmission windows out of the middle with
/// [`SendBuffer::slices_range`]; nothing is removed until acknowledged,
/// so retransmission is always possible.
///
/// A release is *logical*: the bytes of the latest `ack_to` leave every
/// count at once but stay readable through `slices_range` until the
/// buffer is next mutated (`write`, the next `ack_to`, or the stack
/// parking the storage of a drained buffer). A
/// shadow's poll stages a segment and may release its bytes before the
/// stack has emitted it (§4.1 auto-trim); the plan reads them here
/// instead of carrying a copy. So the stack parks a drained buffer's
/// storage only at the end of its socket's visit, after the emit.
///
/// Its capacity is the stack's `TcpConfig::send_buf`, lent to the calls
/// that need it rather than copied into every connection.
#[derive(Debug, Clone)]
pub struct SendBuffer {
    base: SeqNum,
    /// Bytes the last `ack_to` let go; they head `data`.
    released: u32,
    /// `released` bytes, then the live ones.
    data: VecDeque<u8>,
}

impl SendBuffer {
    /// Creates an empty buffer whose first byte will carry seq `base`.
    pub fn new(base: SeqNum) -> Self {
        SendBuffer { base, released: 0, data: VecDeque::new() }
    }

    /// Sequence number of the first unacknowledged byte.
    pub fn base(&self) -> SeqNum {
        self.base
    }

    /// Sequence number one past the last buffered byte.
    pub fn end(&self) -> SeqNum {
        self.base.add(self.len() as u32)
    }

    /// Bytes currently buffered (sent-unacked plus unsent).
    pub fn len(&self) -> usize {
        self.data.len() - self.released as usize
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Space left for the application under `cfg`'s send buffer.
    pub fn free_space(&self, cfg: &TcpConfig) -> usize {
        cfg.send_buf - self.len()
    }

    /// Appends as much of `data` as fits; returns the number accepted.
    pub fn write(&mut self, cfg: &TcpConfig, data: &[u8]) -> usize {
        self.drop_released();
        let n = data.len().min(self.free_space(cfg));
        self.data.extend(&data[..n]);
        n
    }

    /// Borrows the readable part of `[seq, seq + len)` as the (at most
    /// two) contiguous halves of the ring; either slice may be empty.
    /// Readable is everything buffered plus what the last `ack_to`
    /// released; a range that starts outside it yields nothing.
    ///
    /// The caller writes these straight into the frame builder, so a
    /// transmitted payload costs exactly one memcpy end-to-end.
    pub fn slices_range(&self, seq: SeqNum, len: usize) -> (&[u8], &[u8]) {
        let off = seq.distance(self.base) + i64::from(self.released);
        if off < 0 || off as usize > self.data.len() {
            return (&[], &[]);
        }
        let off = off as usize;
        let n = len.min(self.data.len() - off);
        let (front, back) = self.data.as_slices();
        if off < front.len() {
            let a = &front[off..front.len().min(off + n)];
            (a, &back[..n - a.len()])
        } else {
            (&back[off - front.len()..off - front.len() + n], &[])
        }
    }

    /// Advances `snd_una` to `new_base`, releasing acknowledged bytes.
    /// Returns how many bytes were released. ACKs below the current base
    /// or beyond buffered data release nothing beyond the valid range.
    pub fn ack_to(&mut self, new_base: SeqNum) -> usize {
        self.drop_released();
        let target = new_base.min(self.end());
        if !target.gt(self.base) {
            return 0;
        }
        let n = target.distance(self.base) as u32;
        self.released = n;
        self.base = target;
        n as usize
    }

    /// Lets go of the bytes the last `ack_to` released.
    fn drop_released(&mut self) {
        if self.released > 0 {
            self.data.drain(..self.released as usize);
            self.released = 0;
        }
    }

    /// When nothing is buffered, lets go of the released bytes and
    /// parks the ring's storage in `spare` (see [`park_ring`]).
    pub(crate) fn park(&mut self, spare: &mut VecDeque<u8>) {
        if self.is_empty() {
            self.released = 0;
            park_ring(&mut self.data, spare);
        }
    }

    /// Takes `spare`'s storage if the ring has none.
    pub(crate) fn adopt(&mut self, spare: &mut VecDeque<u8>) {
        adopt_ring(&mut self.data, spare);
    }
}

/// Parks the storage of a ring that holds nothing anyone still reads:
/// `spare` keeps the larger of its own and the ring's, the other is
/// freed, and the ring is left with none. A thread keeps one spare, so
/// the drained rings of all its stacks hold at most one ring's storage
/// between them.
pub(crate) fn park_ring(ring: &mut VecDeque<u8>, spare: &mut VecDeque<u8>) {
    let mut taken = std::mem::take(ring);
    if taken.capacity() > spare.capacity() {
        taken.clear();
        *spare = taken;
    }
}

/// Gives a ring with no storage the spare's, just before it takes a
/// byte; a one-connection stack hands the same storage back and forth
/// and never allocates.
pub(crate) fn adopt_ring(ring: &mut VecDeque<u8>, spare: &mut VecDeque<u8>) {
    if ring.capacity() == 0 {
        std::mem::swap(ring, spare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(send_buf: usize) -> TcpConfig {
        TcpConfig { send_buf, ..TcpConfig::default() }
    }

    fn copy(b: &SendBuffer, seq: SeqNum, len: usize) -> Vec<u8> {
        let (x, y) = b.slices_range(seq, len);
        [x, y].concat()
    }

    #[test]
    fn write_and_ack_cycle() {
        let (mut b, c) = (SendBuffer::new(SeqNum(1000)), cfg(10));
        assert_eq!(b.write(&c, b"hello"), 5);
        assert_eq!(b.write(&c, b"world!"), 5, "only capacity remains");
        assert_eq!(b.len(), 10);
        assert_eq!(b.free_space(&c), 0);
        assert_eq!(b.end(), SeqNum(1010));
        assert_eq!(b.ack_to(SeqNum(1003)), 3);
        assert_eq!(b.base(), SeqNum(1003));
        assert_eq!(b.free_space(&c), 3);
        assert_eq!(copy(&b, SeqNum(1003), 7), b"loworld");
    }

    #[test]
    fn copy_range_mid_buffer() {
        let (mut b, c) = (SendBuffer::new(SeqNum(0)), cfg(100));
        b.write(&c, b"abcdefghij");
        assert_eq!(copy(&b, SeqNum(3), 4), b"defg");
        assert_eq!(copy(&b, SeqNum(8), 100), b"ij");
        assert_eq!(copy(&b, SeqNum(10), 5), b"", "end is valid, empty");
        assert_eq!(copy(&b, SeqNum(11), 1), b"", "past the end: nothing, and no panic");
        assert_eq!(copy(&b, SeqNum(u32::MAX), 4), b"", "before the base: nothing");
    }

    #[test]
    fn slices_range_matches_copy_range_across_the_seam() {
        // Churn the deque so its ring head walks past the physical end
        // and slices_range has to return two non-empty halves.
        let (mut b, c) = (SendBuffer::new(SeqNum(0)), cfg(16));
        let mut next = 0u8;
        let mut seam_seen = false;
        // Keep a residue buffered: a fully drained VecDeque may reset its
        // ring head, which would keep the storage contiguous forever.
        assert_eq!(b.write(&c, b"\xAA\xBB\xCC"), 3);
        let mut model = b"\xAA\xBB\xCC".to_vec();
        for _ in 0..40 {
            let chunk: Vec<u8> = (0..6)
                .map(|_| {
                    next = next.wrapping_add(1);
                    next
                })
                .collect();
            assert_eq!(b.write(&c, &chunk), 6);
            model.extend_from_slice(&chunk);
            for off in 0..=b.len() {
                let seq = b.base().add(off as u32);
                for len in [0usize, 1, 4, 16] {
                    let (x, y) = b.slices_range(seq, len);
                    seam_seen |= !x.is_empty() && !y.is_empty();
                    assert_eq!([x, y].concat(), model[off..model.len().min(off + len)]);
                }
            }
            b.ack_to(b.base().add(6));
            model.drain(..6);
        }
        assert!(seam_seen, "test never exercised the wrapped two-slice case");
        assert_eq!(b.slices_range(b.end().add(1), 1), (&[][..], &[][..]));
    }

    #[test]
    fn stale_and_overshooting_acks() {
        let (mut b, c) = (SendBuffer::new(SeqNum(100)), cfg(50));
        b.write(&c, b"0123456789");
        assert_eq!(b.ack_to(SeqNum(95)), 0, "stale ack ignored");
        assert_eq!(b.ack_to(SeqNum(200)), 10, "overshoot clamps to end");
        assert_eq!(b.base(), SeqNum(110));
        assert!(b.is_empty());
    }

    #[test]
    fn released_bytes_stay_readable_until_the_next_mutation() {
        let (mut b, c) = (SendBuffer::new(SeqNum(100)), cfg(10));
        b.write(&c, b"0123456789");
        assert_eq!(b.ack_to(SeqNum(106)), 6);
        // Gone from every count ...
        assert_eq!((b.base(), b.len(), b.free_space(&c)), (SeqNum(106), 4, 6));
        // ... yet a plan staged before the release still reads its bytes,
        // alone or running on into the live ones.
        assert_eq!(copy(&b, SeqNum(100), 6), b"012345");
        assert_eq!(copy(&b, SeqNum(104), 4), b"4567");
        // Each mutation lets them go: the next release ...
        assert_eq!(b.ack_to(SeqNum(108)), 2);
        assert_eq!(copy(&b, SeqNum(100), 6), b"");
        assert_eq!(copy(&b, SeqNum(106), 4), b"6789");
        // ... and a write, into the space they were counted out of.
        assert_eq!(b.write(&c, b"abcdefghij"), 8);
        assert_eq!(copy(&b, SeqNum(106), 2), b"");
        assert_eq!(copy(&b, SeqNum(108), 10), b"89abcdefgh");
    }

    #[test]
    fn wraparound_sequence_space() {
        let (mut b, c) = (SendBuffer::new(SeqNum(u32::MAX - 2)), cfg(100));
        b.write(&c, b"abcdef");
        assert_eq!(b.end(), SeqNum(3));
        assert_eq!(copy(&b, SeqNum(u32::MAX), 3), b"cde");
        // Acking up to seq 1 covers MAX-2, MAX-1, MAX, 0 — four bytes.
        assert_eq!(b.ack_to(SeqNum(1)), 4, "ack across the wrap");
        assert_eq!(b.base(), SeqNum(1));
        assert_eq!(b.len(), 2);
    }
}
