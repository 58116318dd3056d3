//! The Bulk-transfer server: small request → large file ("similar to
//! ftp", §6). File sizes of 1, 5, 20 and 100 MB are used in the paper.

use crate::api::{Api, Application};
use crate::pattern::write_pattern;
use crate::REQUEST_SIZE;

/// Streams a deterministic `file_size`-byte "file" per request.
///
/// Bytes are generated lazily from the [`crate::pattern`] as the send
/// buffer accepts them, so a 100 MB transfer never materializes 100 MB.
#[derive(Debug, Clone)]
pub struct BulkServer {
    request_size: usize,
    file_size: u64,
    buffered: usize,
    /// Absolute output-stream position already handed to the stack.
    sent: u64,
    /// Absolute output-stream position the current response set ends at.
    goal: u64,
    /// Responses started.
    pub transfers: u64,
}

impl BulkServer {
    /// A bulk server sending `file_size` bytes per request (paper-style
    /// 150-byte requests).
    ///
    /// # Panics
    ///
    /// Panics if `file_size` is zero.
    pub fn new(file_size: u64) -> Self {
        Self::with_request_size(REQUEST_SIZE, file_size)
    }

    /// Custom request size.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn with_request_size(request_size: usize, file_size: u64) -> Self {
        assert!(request_size > 0 && file_size > 0, "sizes must be positive");
        BulkServer { request_size, file_size, buffered: 0, sent: 0, goal: 0, transfers: 0 }
    }

    /// Bytes of the current transfer still unqueued.
    pub fn remaining(&self) -> u64 {
        self.goal - self.sent
    }
}

impl Application for BulkServer {
    fn on_data(&mut self, data: &[u8], api: &mut dyn Api) {
        self.buffered += data.len();
        while self.buffered >= self.request_size {
            self.buffered -= self.request_size;
            self.goal += self.file_size;
            self.transfers += 1;
        }
        write_pattern(api, &mut self.sent, self.goal);
    }

    fn on_writable(&mut self, api: &mut dyn Api) {
        write_pattern(api, &mut self.sent, self.goal);
    }

    fn on_peer_closed(&mut self, api: &mut dyn Api) {
        write_pattern(api, &mut self.sent, self.goal);
        api.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MockApi;
    use crate::pattern::verify_pattern;

    #[test]
    fn streams_exactly_file_size() {
        let mut app = BulkServer::with_request_size(3, 1000);
        let mut api = MockApi::with_budget(1 << 20);
        app.on_data(b"go!", &mut api);
        assert_eq!(api.written.len(), 1000);
        assert_eq!(verify_pattern(0, &api.written), None);
        assert_eq!(app.remaining(), 0);
        assert_eq!(app.transfers, 1);
    }

    #[test]
    fn resumes_across_backpressure_without_duplication() {
        let mut app = BulkServer::with_request_size(1, 50_000);
        let mut api = MockApi::with_budget(777); // awkward boundary
        app.on_data(b"x", &mut api);
        let mut spins = 0;
        while app.remaining() > 0 {
            api.budget += 777;
            app.on_writable(&mut api);
            spins += 1;
            assert!(spins < 1000);
        }
        assert_eq!(api.written.len(), 50_000);
        assert_eq!(
            verify_pattern(0, &api.written),
            None,
            "chunk splicing across backpressure must be seamless"
        );
    }

    #[test]
    fn second_request_continues_the_stream() {
        let mut app = BulkServer::with_request_size(1, 100);
        let mut api = MockApi::with_budget(10_000);
        app.on_data(b"a", &mut api);
        app.on_data(b"b", &mut api);
        assert_eq!(api.written.len(), 200);
        // The second file continues the absolute pattern positions.
        assert_eq!(verify_pattern(0, &api.written), None);
        assert_eq!(app.transfers, 2);
    }

    #[test]
    fn large_transfer_is_memory_bounded() {
        // 100 MB goal, but we only pull 64 KB: the app must not allocate
        // the whole file.
        let mut app = BulkServer::new(100 << 20);
        let mut api = MockApi::with_budget(64 << 10);
        app.on_data(&[0u8; crate::REQUEST_SIZE], &mut api);
        assert_eq!(api.written.len(), 64 << 10);
        assert_eq!(app.remaining(), (100 << 20) - (64 << 10));
    }

    #[test]
    #[should_panic(expected = "sizes must be positive")]
    fn zero_file_rejected() {
        let _ = BulkServer::new(0);
    }
}
