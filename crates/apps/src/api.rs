//! The sans-io boundary between applications and the TCP stack.

use netsim::{SimDuration, SimTime};
use tcpstack::{NetStack, SockId};

/// What an application may do with its connection during a callback.
pub trait Api {
    /// Current virtual time.
    fn now(&self) -> SimTime;
    /// Queues bytes for transmission; returns how many were accepted
    /// (send-buffer space may be smaller than `data`).
    fn write(&mut self, data: &[u8]) -> usize;
    /// How many bytes [`Api::write`] would accept right now.
    fn writable(&self) -> usize;
    /// Begins an orderly close of the connection.
    fn close(&mut self);
    /// Requests a [`Application::on_wake`] callback `after` from now
    /// (at most one outstanding per connection; a later request
    /// replaces an earlier one). Models compute/think time — the only
    /// legitimate use of time in a deterministic application.
    fn wake_after(&mut self, after: SimDuration);
}

/// A deterministic, sans-io application.
///
/// Instances run identically on the ST-TCP primary and backup: both see
/// the same byte stream (the backup via the tap), so both must produce
/// the same output for the takeover to be seamless. Keep implementations
/// free of hidden nondeterminism (no randomness, no real clocks) — the
/// paper's §3 determinism assumption.
///
/// The `Any` supertrait lets simulation nodes hand back concrete
/// application types after a run (e.g. to read a workload's metrics).
pub trait Application: std::any::Any {
    /// The connection is established (or the application was attached
    /// to an already-established connection).
    fn on_connected(&mut self, api: &mut dyn Api) {
        let _ = api;
    }
    /// Bytes arrived, in order, exactly once.
    fn on_data(&mut self, data: &[u8], api: &mut dyn Api);
    /// The send buffer has room again; push pending output.
    fn on_writable(&mut self, api: &mut dyn Api) {
        let _ = api;
    }
    /// The peer closed its direction of the stream.
    fn on_peer_closed(&mut self, api: &mut dyn Api) {
        let _ = api;
    }
    /// A wake requested via [`Api::wake_after`] fired.
    fn on_wake(&mut self, api: &mut dyn Api) {
        let _ = api;
    }
}

/// The real [`Api`] over a [`NetStack`] socket.
pub struct StackApi<'a> {
    stack: &'a mut NetStack,
    sock: SockId,
    now: SimTime,
    wake: Option<SimDuration>,
}

impl<'a> StackApi<'a> {
    /// Wraps one socket at one instant.
    pub fn new(stack: &'a mut NetStack, sock: SockId, now: SimTime) -> Self {
        StackApi { stack, sock, now, wake: None }
    }

    /// The wake request the application made during this callback, if
    /// any (the node adapter arms the timer).
    pub fn take_wake(&mut self) -> Option<SimDuration> {
        self.wake.take()
    }
}

impl Api for StackApi<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn write(&mut self, data: &[u8]) -> usize {
        self.stack.write(self.sock, data).unwrap_or(0)
    }

    fn writable(&self) -> usize {
        self.stack.writable(self.sock)
    }

    fn close(&mut self) {
        self.stack.close(self.now, self.sock);
    }

    fn wake_after(&mut self, after: SimDuration) {
        self.wake = Some(after);
    }
}

/// An in-memory [`Api`] for unit-testing applications.
#[derive(Debug, Default)]
pub struct MockApi {
    /// Everything the application wrote.
    pub written: Vec<u8>,
    /// Send-buffer space reported to the application.
    pub budget: usize,
    /// Whether the application closed the connection.
    pub closed: bool,
    /// The time reported to the application.
    pub time: SimTime,
    /// The most recent wake request.
    pub wake: Option<SimDuration>,
}

impl MockApi {
    /// A mock with `budget` bytes of send space.
    pub fn with_budget(budget: usize) -> Self {
        MockApi { budget, ..Self::default() }
    }
}

impl Api for MockApi {
    fn now(&self) -> SimTime {
        self.time
    }

    fn write(&mut self, data: &[u8]) -> usize {
        let n = data.len().min(self.budget);
        self.written.extend_from_slice(&data[..n]);
        self.budget -= n;
        n
    }

    fn writable(&self) -> usize {
        self.budget
    }

    fn close(&mut self) {
        self.closed = true;
    }

    fn wake_after(&mut self, after: SimDuration) {
        self.wake = Some(after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_api_budget_enforced() {
        let mut api = MockApi::with_budget(5);
        assert_eq!(api.write(b"abcdefgh"), 5);
        assert_eq!(api.written, b"abcde");
        assert_eq!(api.writable(), 0);
        assert_eq!(api.write(b"x"), 0);
        api.close();
        assert!(api.closed);
    }
}
