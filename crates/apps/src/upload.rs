//! The Upload server: large client→server transfer (beyond the paper's
//! three workloads, which all push data *from* the server).
//!
//! Upload is the direction that exercises ST-TCP's §4.2–§4.3 machinery
//! hardest: every client byte must be retained by the primary until the
//! backup acknowledges it, so the second receive buffer, the ack
//! strategy (X / SyncTime), and the missing-segment recovery all carry
//! real volume. The server verifies the received pattern byte-by-byte —
//! on a failover, the *backup's* application must have consumed exactly
//! the same stream for its confirmation to be correct.

use crate::api::{Api, Application};
use crate::pattern::{pattern_mismatches, request_bytes};
use crate::REQUEST_SIZE;

/// Consumes a patterned upload of known size and answers with a
/// 150-byte confirmation once every byte has arrived and verified.
#[derive(Debug, Clone)]
pub struct UploadServer {
    expected: u64,
    received: u64,
    /// Pattern mismatches observed in the upload stream (a nonzero
    /// value on either the primary or the backup means the byte stream
    /// diverged — duplicated, reordered, or corrupted).
    pub content_errors: u64,
    /// Confirmation bytes written so far.
    confirmed: usize,
}

impl UploadServer {
    /// Expects `expected` bytes of [`crate::pattern`] stream.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero.
    pub fn new(expected: u64) -> Self {
        assert!(expected > 0, "upload size must be positive");
        UploadServer { expected, received: 0, content_errors: 0, confirmed: 0 }
    }

    /// Bytes received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// The request number whose content is the confirmation message.
    pub(crate) const CONFIRMATION: u64 = u64::MAX / 3;

    /// The deterministic confirmation message.
    pub fn confirmation() -> [u8; REQUEST_SIZE] {
        request_bytes(Self::CONFIRMATION)
    }

    /// Writes what the send buffer takes of the confirmation still owed:
    /// none before the whole upload has arrived.
    fn flush(&mut self, api: &mut dyn Api) {
        if self.received >= self.expected && self.confirmed < REQUEST_SIZE {
            self.confirmed += api.write(&Self::confirmation()[self.confirmed..]);
        }
    }
}

impl Application for UploadServer {
    fn on_data(&mut self, data: &[u8], api: &mut dyn Api) {
        // Bytes past the expected size are counted, not checked.
        let in_file = (self.expected.saturating_sub(self.received)).min(data.len() as u64);
        self.content_errors += pattern_mismatches(self.received, &data[..in_file as usize]).0;
        self.received += data.len() as u64;
        self.flush(api);
    }

    fn on_writable(&mut self, api: &mut dyn Api) {
        self.flush(api);
    }

    fn on_peer_closed(&mut self, api: &mut dyn Api) {
        self.flush(api);
        api.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MockApi;
    use crate::pattern::fill_pattern;

    #[test]
    fn confirms_after_full_verified_upload() {
        let mut app = UploadServer::new(1000);
        let mut api = MockApi::with_budget(10_000);
        let mut data = vec![0u8; 1000];
        fill_pattern(0, &mut data);
        app.on_data(&data[..400], &mut api);
        assert!(api.written.is_empty(), "no confirmation before completion");
        app.on_data(&data[400..], &mut api);
        assert_eq!(api.written, UploadServer::confirmation());
        assert_eq!(app.content_errors, 0);
        assert_eq!(app.received(), 1000);
    }

    #[test]
    fn detects_corrupted_upload() {
        let mut app = UploadServer::new(100);
        let mut api = MockApi::with_budget(10_000);
        let mut data = vec![0u8; 100];
        fill_pattern(0, &mut data);
        data[50] ^= 0xFF;
        app.on_data(&data, &mut api);
        assert_eq!(app.content_errors, 1);
    }

    #[test]
    fn confirmation_respects_backpressure() {
        let mut app = UploadServer::new(10);
        let mut api = MockApi::with_budget(20);
        let mut data = vec![0u8; 10];
        fill_pattern(0, &mut data);
        app.on_data(&data, &mut api);
        assert_eq!(api.written.len(), 20);
        api.budget = 1000;
        app.on_writable(&mut api);
        assert_eq!(api.written, UploadServer::confirmation());
    }

    #[test]
    fn a_budget_below_the_confirmation_writes_what_an_unlimited_one_does() {
        let stream = |budget: usize| {
            let mut app = UploadServer::new(10);
            let mut api = MockApi::with_budget(budget);
            let mut data = vec![0u8; 10];
            fill_pattern(0, &mut data);
            app.on_data(&data, &mut api);
            for _ in 0..10 {
                api.budget += budget;
                app.on_writable(&mut api);
            }
            app.on_peer_closed(&mut api);
            api.written
        };
        let unlimited = stream(usize::MAX / 64);
        assert_eq!(unlimited, UploadServer::confirmation());
        assert_eq!(stream(30), unlimited);
    }

    #[test]
    fn determinism_across_instances() {
        let run = || {
            let mut app = UploadServer::new(64);
            let mut api = MockApi::with_budget(10_000);
            let mut data = vec![0u8; 64];
            fill_pattern(0, &mut data);
            for chunk in data.chunks(7) {
                app.on_data(chunk, &mut api);
            }
            api.written
        };
        assert_eq!(run(), run());
    }
}
