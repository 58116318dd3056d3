//! The Interactive server: small request → moderate reply ("similar to
//! http", §6): 150-byte request, 10 KB response.

use crate::api::{Api, Application};
use crate::pattern::write_pattern;
use crate::{INTERACTIVE_REPLY, REQUEST_SIZE};
use netsim::SimDuration;

/// Responds to each fixed-size request with a deterministic,
/// pattern-filled reply.
///
/// The reply to request *k* is the pattern slice
/// `[k * reply_size, (k+1) * reply_size)`, so two instances fed the same
/// request stream emit identical bytes — the §3 determinism assumption.
/// Replies are one pattern stream, generated as the send buffer accepts
/// them (as [`crate::BulkServer`] streams its file), so a reply the
/// buffer has not taken yet costs two counters, not a copy.
#[derive(Debug, Clone)]
pub struct InteractiveServer {
    request_size: usize,
    reply_size: usize,
    buffered: usize,
    /// Absolute output-stream position already handed to the stack.
    sent: u64,
    /// Where the replies generated so far end in the output stream.
    goal: u64,
    /// Server compute ("think") time per request; replies are generated
    /// this long after the request completes, serialized one at a time —
    /// models the application work the paper's prototype performed.
    think: SimDuration,
    /// Requests whose reply generation is waiting on think time.
    queued_requests: u64,
    wake_armed: bool,
    /// Replies fully queued so far.
    pub replies: u64,
}

impl InteractiveServer {
    /// Paper defaults: 150-byte requests, 10 KB replies.
    pub fn new() -> Self {
        Self::with_sizes(REQUEST_SIZE, INTERACTIVE_REPLY)
    }

    /// Custom request/reply sizes.
    ///
    /// # Panics
    ///
    /// Panics if either size is zero.
    pub fn with_sizes(request_size: usize, reply_size: usize) -> Self {
        assert!(request_size > 0 && reply_size > 0, "sizes must be positive");
        InteractiveServer {
            request_size,
            reply_size,
            buffered: 0,
            sent: 0,
            goal: 0,
            think: SimDuration::ZERO,
            queued_requests: 0,
            wake_armed: false,
            replies: 0,
        }
    }

    /// Adds per-request server compute time (builder style).
    #[must_use]
    pub fn with_think_time(mut self, think: SimDuration) -> Self {
        self.think = think;
        self
    }

    fn generate_reply(&mut self) {
        self.goal += self.reply_size as u64;
        self.replies += 1;
    }

    fn flush(&mut self, api: &mut dyn Api) {
        write_pattern(api, &mut self.sent, self.goal);
    }
}

impl Default for InteractiveServer {
    fn default() -> Self {
        Self::new()
    }
}

impl Application for InteractiveServer {
    fn on_data(&mut self, data: &[u8], api: &mut dyn Api) {
        self.buffered += data.len();
        while self.buffered >= self.request_size {
            self.buffered -= self.request_size;
            if self.think.is_zero() {
                self.generate_reply();
            } else {
                self.queued_requests += 1;
            }
        }
        if self.queued_requests > 0 && !self.wake_armed {
            api.wake_after(self.think);
            self.wake_armed = true;
        }
        self.flush(api);
    }

    fn on_wake(&mut self, api: &mut dyn Api) {
        self.wake_armed = false;
        if self.queued_requests == 0 {
            return; // spurious wake: harmless by design
        }
        self.queued_requests -= 1;
        self.generate_reply();
        if self.queued_requests > 0 {
            api.wake_after(self.think);
            self.wake_armed = true;
        }
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
    use crate::pattern::verify_pattern;

    #[test]
    fn full_request_triggers_patterned_reply() {
        let mut app = InteractiveServer::with_sizes(4, 16);
        let mut api = MockApi::with_budget(1024);
        app.on_data(b"req!", &mut api);
        assert_eq!(api.written.len(), 16);
        assert_eq!(verify_pattern(0, &api.written), None);
        assert_eq!(app.replies, 1);
    }

    #[test]
    fn partial_requests_accumulate() {
        let mut app = InteractiveServer::with_sizes(4, 8);
        let mut api = MockApi::with_budget(1024);
        app.on_data(b"re", &mut api);
        assert!(api.written.is_empty());
        app.on_data(b"q!", &mut api);
        assert_eq!(api.written.len(), 8);
    }

    #[test]
    fn replies_are_position_indexed() {
        let mut app = InteractiveServer::with_sizes(2, 8);
        let mut api = MockApi::with_budget(1024);
        app.on_data(b"aabb", &mut api); // two requests at once
        assert_eq!(api.written.len(), 16);
        assert_eq!(verify_pattern(0, &api.written[..8]), None);
        assert_eq!(verify_pattern(8, &api.written[8..]), None);
    }

    #[test]
    fn backpressure_resumes_on_writable() {
        let mut app = InteractiveServer::with_sizes(2, 100);
        let mut api = MockApi::with_budget(30);
        app.on_data(b"xx", &mut api);
        assert_eq!(api.written.len(), 30);
        api.budget = 1000;
        app.on_writable(&mut api);
        assert_eq!(api.written.len(), 100);
        assert_eq!(verify_pattern(0, &api.written), None);

        // With think time, a budget below one reply streams the same
        // bytes as an unlimited one, only later.
        let stream = |budget: usize| {
            let mut app =
                InteractiveServer::with_sizes(2, 100).with_think_time(SimDuration::from_millis(5));
            let mut api = MockApi::with_budget(budget);
            app.on_data(b"xxyyzz", &mut api);
            for _ in 0..50 {
                api.budget += budget;
                app.on_wake(&mut api);
                app.on_writable(&mut api);
            }
            (api.written, app.replies)
        };
        let (unlimited, replies) = stream(usize::MAX / 64);
        assert_eq!((unlimited.len(), replies), (300, 3));
        assert_eq!(verify_pattern(0, &unlimited), None);
        assert_eq!(stream(30), (unlimited, 3));
    }

    #[test]
    fn determinism_across_instances() {
        let chunks: Vec<&[u8]> = vec![b"abcd", b"efghijkl", b"mnop"];
        let run = || {
            let mut app = InteractiveServer::with_sizes(4, 32);
            let mut api = MockApi::with_budget(100_000);
            for c in &chunks {
                app.on_data(c, &mut api);
            }
            api.written
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "sizes must be positive")]
    fn zero_sizes_rejected() {
        let _ = InteractiveServer::with_sizes(0, 1);
    }
}
