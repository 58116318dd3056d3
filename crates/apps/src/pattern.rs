//! Deterministic, position-indexed byte patterns.
//!
//! Every server response byte is a pure function of its position in the
//! response stream, which lets the client assert *content* correctness —
//! catching duplicated, reordered, or lost bytes across a failover, not
//! merely counting them.

use crate::api::Api;
use crate::REQUEST_SIZE;

/// The byte at position `pos` of a deterministic stream.
///
/// A cheap non-repeating-ish mix; consecutive runs differ from simple
/// counters so off-by-one splices are detected. This is the
/// definition; the run kernel in [`fill_pattern`] must agree with it at
/// every position.
///
/// ```
/// use apps::pattern::{fill_pattern, verify_pattern};
///
/// let mut buf = [0u8; 32];
/// fill_pattern(1_000, &mut buf);
/// assert_eq!(verify_pattern(1_000, &buf), None);
/// buf[7] ^= 1;
/// assert_eq!(verify_pattern(1_000, &buf), Some(1_007));
/// ```
pub fn pattern_byte(pos: u64) -> u8 {
    let x = pos.wrapping_mul(K).rotate_left(17) ^ pos;
    (x >> 8) as u8
}

const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Positions per run: `pos >> 8` is constant inside one.
const RUN: usize = 256;

/// Bits 0..55 of a product: the part below the byte a position takes
/// from it.
const LOW55: u64 = (1 << 55) - 1;

/// What offset `j` of a run contributes, whatever the run: the 256
/// products `j·K` are constants.
struct RunTable {
    /// Bits 55..63 of `j·K`.
    top: [u8; RUN],
    /// How many of the 256 values `low55(j·K)` are below this one.
    rank: [u8; RUN],
    /// The 256 values `low55(j·K)`, ascending.
    lows: [u64; RUN],
}

static TABLE: RunTable = run_table();

const fn run_table() -> RunTable {
    let mut table = RunTable { top: [0; RUN], rank: [0; RUN], lows: [0; RUN] };
    let mut j = 0;
    while j < RUN {
        let product = (j as u64).wrapping_mul(K);
        let low = product & LOW55;
        let mut below = 0;
        let mut i = 0;
        while i < RUN {
            let other = (i as u64).wrapping_mul(K) & LOW55;
            // A tie would put two offsets on one rank and leave a hole
            // in `lows`.
            assert!(i == j || other != low, "the 256 lows are distinct");
            if other < low {
                below += 1;
            }
            i += 1;
        }
        table.top[j] = (product >> 55) as u8;
        table.rank[j] = below as u8;
        table.lows[below] = low;
        j += 1;
    }
    table
}

/// Fills `buf` with the pattern starting at stream position `start`.
///
/// The run kernel every bulk producer and checker shares. Bits 8..16
/// of `(pos·K).rotate_left(17) ^ pos` are bits 55..63 of `pos·K` xor
/// bits 8..16 of `pos`. Inside a 256-aligned run the second term is
/// constant, and with `B` the product at the run's base the first is
/// `(B + j·K) >> 55 = (B >> 55) + (j·K >> 55) + carry`, where offset
/// `j` carries when `low55(j·K) ≥ 2⁵⁵ − low55(B)`. A `RunTable` holds
/// the lows sorted, so one binary search per run finds how many stay
/// below that threshold, and the carry test becomes a comparison of
/// `j`'s rank with that count: the inner loop reads two byte arrays and
/// writes one, sixteen positions to a 128-bit instruction.
pub fn fill_pattern(start: u64, buf: &mut [u8]) {
    let mut pos = start;
    let mut rest = buf;
    while !rest.is_empty() {
        let at = (pos % RUN as u64) as usize;
        let run = (RUN - at).min(rest.len());
        let (head, tail) = rest.split_at_mut(run);
        let base = (pos - at as u64).wrapping_mul(K);
        let threshold = (1 << 55) - (base & LOW55);
        // `lows[0]` is 0 (offset 0 never carries) and every threshold
        // is at least 1, so `clear` is in 1..=256 and the ranks that
        // do not carry are `0..=clear - 1`.
        let clear = TABLE.lows.partition_point(|&low| low < threshold);
        let last_clear = (clear - 1) as u8;
        // Counted down from the carried value: `<=` is the byte compare
        // SSE2 has unsigned, and the 1 moves out of the loop.
        let carried = ((base >> 55) as u8).wrapping_add(1);
        let high = (pos >> 8) as u8;
        let offsets = TABLE.top[at..at + run].iter().zip(&TABLE.rank[at..at + run]);
        for (b, (&top, &rank)) in head.iter_mut().zip(offsets) {
            *b = carried.wrapping_add(top).wrapping_sub(u8::from(rank <= last_clear)) ^ high;
        }
        pos = pos.wrapping_add(run as u64);
        rest = tail;
    }
}

/// Counts positions where `data` differs from `expected` (equal
/// lengths); also reports the index of the first difference.
fn mismatches(expected: &[u8], data: &[u8]) -> (u64, Option<u64>) {
    debug_assert_eq!(expected.len(), data.len());
    if expected == data {
        return (0, None);
    }
    let mut errors = 0u64;
    let mut first = None;
    for (i, (&want, &got)) in expected.iter().zip(data).enumerate() {
        if want != got {
            errors += 1;
            first = first.or(Some(i as u64));
        }
    }
    (errors, first)
}

/// Counts bytes of `data` differing from the pattern stream at `start`;
/// also reports the index *within `data`* of the first difference.
pub fn pattern_mismatches(start: u64, data: &[u8]) -> (u64, Option<u64>) {
    let mut expected = [0u8; 4 * RUN];
    let (mut errors, mut first) = (0u64, None);
    let mut off = 0;
    while off < data.len() {
        let pos = start.wrapping_add(off as u64);
        // Chunks end on a run boundary, so only the first fill starts
        // inside a run.
        let len = (expected.len() - (pos % RUN as u64) as usize).min(data.len() - off);
        let expected = &mut expected[..len];
        fill_pattern(pos, expected);
        let (e, f) = mismatches(expected, &data[off..off + len]);
        errors += e;
        first = first.or(f.map(|f| off as u64 + f));
        off += len;
    }
    (errors, first)
}

/// Verifies that `data` equals the pattern starting at `start`.
/// Returns the position of the first mismatch, if any.
pub fn verify_pattern(start: u64, data: &[u8]) -> Option<u64> {
    pattern_mismatches(start, data).1.map(|i| start.wrapping_add(i))
}

/// Queues pattern bytes `[*sent, goal)` on `api`, as many as its send
/// buffer takes right now, and advances `*sent` past them. Every fill
/// is sized by [`Api::writable`], so no byte is generated twice.
pub fn write_pattern(api: &mut dyn Api, sent: &mut u64, goal: u64) {
    if *sent == goal {
        return; // nothing owed: skip zeroing the chunk
    }
    let mut chunk = [0u8; 8 * 1024];
    loop {
        let room = chunk.len().min(api.writable()) as u64;
        let want = (goal - *sent).min(room) as usize; // ≤ room: lossless
        if want == 0 {
            return; // all queued, or the send buffer is full
        }
        fill_pattern(*sent, &mut chunk[..want]);
        let n = api.write(&chunk[..want]);
        *sent += n as u64;
        if n < want {
            return; // an `Api` that overstated its room
        }
    }
}

/// Where request number `idx` starts in the pattern stream. Requests
/// draw from a region disjoint from the replies'; positions wrap (the
/// pattern is defined on all of `u64`).
pub fn request_pos(idx: u64) -> u64 {
    (u64::MAX / 2).wrapping_add(idx.wrapping_mul(REQUEST_SIZE as u64))
}

/// The content of request number `idx` (requests are also patterned so
/// the echo server's reflection can be verified byte-for-byte).
pub fn request_bytes(idx: u64) -> [u8; REQUEST_SIZE] {
    let mut buf = [0u8; REQUEST_SIZE];
    fill_pattern(request_pos(idx), &mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Application, MockApi};
    use crate::{BulkServer, Workload, WorkloadClient};
    use proptest::prelude::*;

    #[test]
    fn deterministic() {
        assert_eq!(pattern_byte(12345), pattern_byte(12345));
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        fill_pattern(1000, &mut a);
        fill_pattern(1000, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn verify_accepts_and_locates_mismatch() {
        let mut buf = [0u8; 128];
        fill_pattern(500, &mut buf);
        assert_eq!(verify_pattern(500, &buf), None);
        buf[77] ^= 0xFF;
        assert_eq!(verify_pattern(500, &buf), Some(577));
    }

    #[test]
    fn splices_are_detected() {
        // A stream that skips one byte must fail verification.
        let mut good = [0u8; 32];
        fill_pattern(0, &mut good);
        let mut spliced = Vec::from(&good[..16]);
        spliced.extend_from_slice(&good[17..]); // dropped byte 16
        assert!(verify_pattern(0, &spliced).is_some());
        // A duplicated byte must fail too.
        let mut duped = Vec::from(&good[..16]);
        duped.push(good[15]);
        duped.extend_from_slice(&good[16..31]);
        assert!(verify_pattern(0, &duped).is_some());
    }

    /// Per-byte reference for [`pattern_mismatches`].
    fn reference_mismatches(start: u64, data: &[u8]) -> (u64, Option<u64>) {
        let wrong = |&(i, &b): &(usize, &u8)| b != pattern_byte(start.wrapping_add(i as u64));
        let mut bad = data.iter().enumerate().filter(wrong).map(|(i, _)| i as u64);
        let first = bad.next();
        (first.map_or(0, |_| 1 + bad.count() as u64), first)
    }

    /// Any start; starts whose run wraps `u64`; starts just below a
    /// 256-byte run boundary far up the stream.
    fn starts() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            (0u64..=9000).prop_map(|n| u64::MAX - n),
            (any::<u64>(), 0u64..600).prop_map(|(hi, lo)| (hi << 8).wrapping_sub(lo)),
        ]
    }

    proptest! {
        #[test]
        fn kernel_agrees_with_pattern_byte(start in starts(), len in 0usize..=9000) {
            let mut buf = vec![0u8; len];
            fill_pattern(start, &mut buf);
            for (i, &b) in buf.iter().enumerate() {
                let pos = start.wrapping_add(i as u64);
                assert_eq!(b, pattern_byte(pos), "start {start} len {len} offset {i}");
            }
            assert_eq!(pattern_mismatches(start, &buf), (0, None));
            assert_eq!(verify_pattern(start, &buf), None);
        }

        #[test]
        fn mismatches_agree_with_per_byte_reference(
            start in starts(),
            len in 1usize..=9000,
            hits in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..6),
        ) {
            let mut buf = vec![0u8; len];
            fill_pattern(start, &mut buf);
            for (at, flip) in hits {
                buf[at % len] ^= flip; // two hits on one byte may cancel: the reference decides
            }
            let (errors, first) = reference_mismatches(start, &buf);
            assert_eq!(pattern_mismatches(start, &buf), (errors, first));
            assert_eq!(verify_pattern(start, &buf), first.map(|i| start.wrapping_add(i)));
        }
    }

    #[test]
    fn kernel_agrees_at_every_alignment() {
        for align in 0..256u64 {
            let start = (77 << 8) + align;
            let mut buf = [0u8; 600]; // crosses two run boundaries
            fill_pattern(start, &mut buf);
            for (i, &b) in buf.iter().enumerate() {
                assert_eq!(b, pattern_byte(start + i as u64), "alignment {align} offset {i}");
            }
        }
    }

    /// The first position of a run whose base product has `low55` as
    /// its low 55 bits. A base is `256·m·K`, so its low byte is zero.
    fn run_with_low55(low55: u64) -> u64 {
        assert_eq!(low55 % RUN as u64, 0, "not the low bits of any run's base");
        let mut inverse = K; // Newton: each step doubles the correct low bits
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(K.wrapping_mul(inverse)));
        }
        let pos = (low55 >> 8).wrapping_mul(inverse) << 8;
        assert_eq!(pos.wrapping_mul(K) & LOW55, low55);
        pos
    }

    fn assert_run_agrees(pos: u64) {
        let mut buf = [0u8; RUN];
        fill_pattern(pos, &mut buf);
        for (j, &b) in buf.iter().enumerate() {
            assert_eq!(b, pattern_byte(pos + j as u64), "run at {pos:#x} offset {j}");
        }
    }

    #[test]
    fn kernel_agrees_at_every_carry_count() {
        assert!(TABLE.lows.windows(2).all(|w| w[0] < w[1]), "sorted, no ties");
        for (j, &rank) in TABLE.rank.iter().enumerate() {
            assert_eq!(TABLE.lows[usize::from(rank)], (j as u64).wrapping_mul(K) & LOW55);
        }
        // No offset carries: `pos = 0`, threshold 2⁵⁵, above every low.
        assert_eq!(run_with_low55(0), 0);
        assert_run_agrees(0);
        // Every offset but 0 carries: the largest low 55 bits a base can
        // have (2⁵⁵ − 1 is odd, so no run has it) put the threshold at
        // 256, below every low but offset 0's.
        assert!(TABLE.lows[1] >= RUN as u64);
        assert_run_agrees(run_with_low55((1 << 55) - RUN as u64));
        // And each count between: the first threshold a base can have
        // above the `clear`-th low and its neighbour on the other side.
        for &low in &TABLE.lows[1..] {
            let above = (low / RUN as u64 + 1) * RUN as u64;
            assert_run_agrees(run_with_low55((1 << 55) - above));
            assert_run_agrees(run_with_low55((1 << 55) - (above - RUN as u64)));
        }
    }

    #[test]
    fn pattern_content_is_pinned() {
        // FNV-1a over the first 64 KiB. The golden frame digests would
        // catch a drift too; this one says where it came from.
        let mut buf = vec![0u8; 64 * 1024];
        fill_pattern(0, &mut buf);
        let digest = buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        assert_eq!(digest, 0x68d8_8b89_6b46_0f42);
    }

    /// An [`Api`] that panics when offered more than it reports
    /// writable, and counts the offers.
    struct StrictApi {
        inner: MockApi,
        writes: usize,
    }

    impl Api for StrictApi {
        fn now(&self) -> netsim::SimTime {
            self.inner.now()
        }
        fn write(&mut self, data: &[u8]) -> usize {
            assert!(data.len() <= self.writable(), "offered {} > writable", data.len());
            self.writes += 1;
            self.inner.write(data)
        }
        fn writable(&self) -> usize {
            self.inner.writable()
        }
        fn close(&mut self) {
            self.inner.close();
        }
        fn wake_after(&mut self, after: netsim::SimDuration) {
            self.inner.wake_after(after);
        }
    }

    /// Starts `app` with `kick` against a full send buffer, then drives
    /// it to `total` written bytes, handing out `budget` bytes of send
    /// space per `on_writable`.
    fn drain_through_strict_api(
        app: &mut dyn Application,
        kick: fn(&mut dyn Application, &mut dyn Api),
        budget: usize,
        total: usize,
    ) -> Vec<u8> {
        let mut api = StrictApi { inner: MockApi::with_budget(0), writes: 0 };
        kick(app, &mut api);
        assert_eq!(api.writes, 0, "a full send buffer is offered nothing");
        while api.inner.written.len() < total {
            api.inner.budget = budget.min(total - api.inner.written.len());
            let before = api.writes;
            app.on_writable(&mut api);
            assert!(api.writes > before, "room for {budget} B must be used");
            assert_eq!(api.inner.budget, 0, "every free byte is filled");
        }
        api.inner.budget = budget;
        let before = api.writes;
        app.on_writable(&mut api);
        assert_eq!(api.writes, before, "nothing is offered once all is queued");
        api.inner.written
    }

    #[test]
    fn producers_never_offer_more_than_writable() {
        const TOTAL: usize = 20_000;
        for budget in [777, 1, 8192, 8193, 9_999, 1 << 20] {
            let mut server = BulkServer::new(TOTAL as u64);
            let request = |app: &mut dyn Application, api: &mut dyn Api| {
                app.on_data(&[0u8; crate::REQUEST_SIZE], api);
            };
            let sent = drain_through_strict_api(&mut server, request, budget, TOTAL);
            assert_eq!(sent.len(), TOTAL);
            assert_eq!(verify_pattern(0, &sent), None, "bulk, budget {budget}");

            let mut client = WorkloadClient::new(Workload::Upload { file_size: TOTAL as u64 });
            let connect = |app: &mut dyn Application, api: &mut dyn Api| app.on_connected(api);
            let sent = drain_through_strict_api(&mut client, connect, budget, TOTAL);
            assert_eq!(sent.len(), TOTAL);
            assert_eq!(verify_pattern(0, &sent), None, "upload, budget {budget}");
        }
    }

    #[test]
    fn requests_differ_by_index() {
        assert_ne!(request_bytes(0), request_bytes(1));
        assert_eq!(request_bytes(3), request_bytes(3));
    }

    #[test]
    fn distribution_is_not_constant() {
        let distinct: std::collections::HashSet<u8> = (0..1024).map(pattern_byte).collect();
        assert!(distinct.len() > 100, "pattern should cover many byte values");
    }
}
