//! Property test: the slab + hash demux must be observably equivalent
//! to a naive linear reference model under random open/close/lookup
//! churn, and recycled slots must never be reachable through stale
//! handles (the generation tag's whole job).
//!
//! The reference model is the data structure the stack used before the
//! O(1) refactor: an append-only list of `(quad, handle)` pairs scanned
//! linearly. Every observable of the real stack — which quads resolve,
//! which handles are live, how many sockets exist — is checked against
//! it after every operation batch.

use bytes::Bytes;
use netsim::rng::SplitMix64;
use netsim::SimTime;
use std::net::Ipv4Addr;
use tcpstack::{NetStack, Quad, SockId, StackConfig, TcpState};
use wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpOption, TcpSegment,
};

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const VIP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 100);

fn server() -> NetStack {
    let mut cfg = StackConfig::host(MacAddr::local(2), SERVER_IP);
    cfg.extra_ips = vec![VIP];
    cfg.learn_from_ip = true;
    let mut s = NetStack::new(cfg);
    s.listen(80);
    s.listen(81);
    s
}

fn syn_from(client_ip: Ipv4Addr, client_port: u16, dst_port: u16, iss: u32) -> Bytes {
    let mut seg = TcpSegment::bare(client_port, dst_port, iss, 0, TcpFlags::SYN, 17520);
    seg.options = vec![TcpOption::Mss(1460)];
    let ip = Ipv4Packet::new(client_ip, VIP, IpProtocol::Tcp, seg.encode(client_ip, VIP));
    EthernetFrame::new(MacAddr::local(2), MacAddr::local(1), EtherType::Ipv4, ip.encode()).encode()
}

/// The pre-refactor shape: linear scan over every connection.
#[derive(Default)]
struct LinearModel {
    /// Live connections in creation order.
    conns: Vec<(Quad, SockId)>,
    /// Handles released earlier; must stay dead forever.
    dead: Vec<(Quad, SockId)>,
}

impl LinearModel {
    fn lookup(&self, quad: Quad) -> Option<SockId> {
        self.conns.iter().find(|(q, _)| *q == quad).map(|&(_, s)| s)
    }

    fn remove(&mut self, quad: Quad) -> Option<SockId> {
        let i = self.conns.iter().position(|(q, _)| *q == quad)?;
        let (q, s) = self.conns.remove(i);
        self.dead.push((q, s));
        Some(s)
    }
}

fn check_equivalent(stack: &NetStack, model: &LinearModel) {
    assert_eq!(stack.sock_count(), model.conns.len(), "live connection count diverged");
    for &(quad, sock) in &model.conns {
        assert_eq!(stack.sock_by_quad(quad), Some(sock), "live quad must resolve to its handle");
        assert!(stack.state(sock).is_some(), "live handle must resolve");
        assert_eq!(stack.tcb(sock).map(|t| t.quad()), Some(quad), "handle resolves to its quad");
    }
    for &(quad, sock) in &model.dead {
        assert_eq!(stack.state(sock), None, "stale handle {sock:?} must stay dead (no aliasing)");
        // The quad may have been re-opened under a NEW handle; if so it
        // must resolve to that one, never to the stale handle.
        if let Some(cur) = stack.sock_by_quad(quad) {
            assert_ne!(cur, sock, "recycled quad must carry a fresh generation");
        }
    }
    // Iteration agrees with the model's population.
    let live: Vec<SockId> = stack.socks().collect();
    assert_eq!(live.len(), model.conns.len());
    for sock in live {
        assert!(model.conns.iter().any(|&(_, s)| s == sock), "stack iterates unknown handle");
    }
}

#[test]
fn random_churn_matches_linear_reference_model() {
    let mut rng = SplitMix64::new(0xD30D_2024);
    let mut stack = server();
    let mut model = LinearModel::default();
    let now = SimTime::ZERO;
    let mut next_client = 0u32;

    for round in 0..2000 {
        match rng.next_below(100) {
            // 55 %: open a fresh connection on one of the two listeners.
            0..=54 => {
                let i = next_client;
                next_client += 1;
                let ip = Ipv4Addr::new(10, 1, (i / 200) as u8, (i % 200) as u8 + 1);
                let port = 20_000 + (i % 20_000) as u16;
                let dst = if rng.next_below(2) == 0 { 80 } else { 81 };
                stack.handle_frame(now, syn_from(ip, port, dst, i.wrapping_mul(2654435761)));
                let quad =
                    Quad { local_ip: VIP, local_port: dst, remote_ip: ip, remote_port: port };
                let sock = stack.sock_by_quad(quad).expect("SYN creates a connection");
                model.conns.push((quad, sock));
            }
            // 20 %: close + release a random live connection.
            55..=74 => {
                if !model.conns.is_empty() {
                    let i = rng.next_below(model.conns.len() as u64) as usize;
                    let (quad, _) = model.conns[i];
                    let sock = model.remove(quad).unwrap();
                    stack.abort(now, sock);
                    assert_eq!(stack.state(sock), Some(TcpState::Closed));
                    stack.release(sock);
                }
            }
            // 15 %: duplicate SYN for a live quad must not mint a new
            // connection (demux hit, not a listener hit).
            75..=89 => {
                if !model.conns.is_empty() {
                    let i = rng.next_below(model.conns.len() as u64) as usize;
                    let (quad, sock) = model.conns[i];
                    stack.handle_frame(
                        now,
                        syn_from(quad.remote_ip, quad.remote_port, quad.local_port, 42),
                    );
                    assert_eq!(stack.sock_by_quad(quad), Some(sock));
                    assert_eq!(stack.sock_count(), model.conns.len());
                }
            }
            // 10 %: reopen a previously-released quad — fresh handle.
            _ => {
                if !model.dead.is_empty() {
                    let i = rng.next_below(model.dead.len() as u64) as usize;
                    let (quad, _) = model.dead[i];
                    if model.lookup(quad).is_none() {
                        stack.handle_frame(
                            now,
                            syn_from(quad.remote_ip, quad.remote_port, quad.local_port, 7),
                        );
                        let sock = stack.sock_by_quad(quad).expect("reopened quad resolves");
                        model.conns.push((quad, sock));
                    }
                }
            }
        }
        // Full cross-check every few rounds (every round is O(n²)-ish
        // and slows the test pointlessly), always on the last.
        if round % 50 == 0 || round == 1999 {
            check_equivalent(&stack, &model);
        }
    }
    // Drain every accept queue: each live connection was handed out
    // exactly once across both listeners.
    let mut accepted = 0;
    while stack.accept(80).is_some() || stack.accept(81).is_some() {
        accepted += 1;
    }
    assert!(accepted <= model.conns.len() + model.dead.len());
    check_equivalent(&stack, &model);
}

#[test]
fn generation_reuse_never_aliases() {
    // Tight loop on one quad: open, release, reopen. Every released
    // handle must stay dead even as its slot is recycled many times.
    let mut stack = server();
    let now = SimTime::ZERO;
    let quad = Quad {
        local_ip: VIP,
        local_port: 80,
        remote_ip: Ipv4Addr::new(10, 1, 0, 9),
        remote_port: 30_000,
    };
    let mut stale: Vec<SockId> = Vec::new();
    for gen in 0..64 {
        stack.handle_frame(now, syn_from(quad.remote_ip, quad.remote_port, 80, 1000 + gen));
        let sock = stack.sock_by_quad(quad).expect("connection exists");
        for &old in &stale {
            assert_ne!(sock, old, "slot reuse must never resurrect a stale handle");
            assert_eq!(stack.state(old), None);
        }
        stack.abort(now, sock);
        stack.release(sock);
        stale.push(sock);
    }
    assert_eq!(stack.sock_count(), 0);
}
