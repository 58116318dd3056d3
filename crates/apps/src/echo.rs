//! The Echo server: reflect every byte ("similar to telnet", §6).

use crate::api::{Api, Application};

/// Echoes everything it receives. Backpressure-safe: bytes the send
/// buffer rejects are held and retried on `on_writable`, and bytes that
/// arrive while some are held queue behind them. Only refused bytes are
/// copied; an echo the send buffer takes whole holds nothing.
#[derive(Debug, Default, Clone)]
pub struct EchoServer {
    pending: Vec<u8>,
    /// Total bytes echoed (diagnostics).
    pub echoed: u64,
}

impl EchoServer {
    /// Creates an echo server.
    pub fn new() -> Self {
        Self::default()
    }

    fn flush(&mut self, api: &mut dyn Api) {
        if self.pending.is_empty() {
            return;
        }
        let n = api.write(&self.pending);
        self.pending.drain(..n);
        self.echoed += n as u64;
    }
}

impl Application for EchoServer {
    fn on_data(&mut self, data: &[u8], api: &mut dyn Api) {
        self.flush(api);
        let n = if self.pending.is_empty() { api.write(data) } else { 0 };
        self.echoed += n as u64;
        self.pending.extend_from_slice(&data[n..]);
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

    #[test]
    fn echoes_immediately_when_space_allows() {
        let mut app = EchoServer::new();
        let mut api = MockApi::with_budget(1024);
        app.on_data(b"hello", &mut api);
        assert_eq!(api.written, b"hello");
        assert_eq!(app.echoed, 5);
    }

    #[test]
    fn backpressure_holds_bytes_until_writable() {
        let mut app = EchoServer::new();
        let mut api = MockApi::with_budget(3);
        app.on_data(b"hello", &mut api);
        assert_eq!(api.written, b"hel");
        // Bytes that arrive while some are held queue behind them, even
        // when the send buffer has room again.
        api.budget = 1;
        app.on_data(b" world", &mut api);
        assert_eq!(api.written, b"hell");
        api.budget = 100;
        app.on_writable(&mut api);
        assert_eq!(api.written, b"hello world");
        assert_eq!(app.echoed, 11);
        app.on_data(b"!", &mut api);
        assert_eq!(api.written, b"hello world!");
    }

    #[test]
    fn closes_after_peer() {
        let mut app = EchoServer::new();
        let mut api = MockApi::with_budget(100);
        app.on_data(b"bye", &mut api);
        app.on_peer_closed(&mut api);
        assert!(api.closed);
    }

    #[test]
    fn determinism_two_instances_same_stream() {
        // The property ST-TCP relies on: same input stream -> same output.
        let mut a = EchoServer::new();
        let mut b = EchoServer::new();
        let mut api_a = MockApi::with_budget(10_000);
        let mut api_b = MockApi::with_budget(10_000);
        for chunk in [b"abc".as_slice(), b"defgh", b"i"] {
            a.on_data(chunk, &mut api_a);
            b.on_data(chunk, &mut api_b);
        }
        assert_eq!(api_a.written, api_b.written);
    }
}
