//! A from-scratch, sans-io userspace TCP/IP stack — the substrate the
//! ST-TCP reproduction modifies, standing in for the paper's Linux
//! 2.2.18 kernel stack.
//!
//! # What is implemented
//!
//! * Ethernet ingress filtering (unicast/broadcast/configured multicast/
//!   promiscuous — the NIC modes the tapping architectures of paper §3.1
//!   need), ARP with static-first resolution, IPv4 without fragmentation.
//! * Full TCP: three-way handshake, reassembly with out-of-order
//!   buffering, flow control, delayed ACKs, RFC 6298 retransmission with
//!   the Linux 200 ms/2 min bounds and ×2 backoff, pluggable congestion
//!   control ([`congestion`]: Reno, CUBIC, BBR behind one trait; Reno
//!   with fast retransmit and restart-after-idle is the default),
//!   optional RFC 2018 SACK ([`sack`]), zero-window probing, orderly
//!   close through TIME_WAIT, RST handling.
//! * UDP sockets (the primary↔backup side channel).
//! * A two-interface IP [`gateway`] (the tapping architecture's
//!   gateway with static `SVI→SME` ARP entries).
//!
//! # ST-TCP extension points
//!
//! The paper modifies the server-side stack in two places, and so do we:
//!
//! * [`recv_buf::RecvBuffer`] implements the primary's *second receive
//!   buffer* with the `LastByteAcked` pointer (§4.2, Figure 4);
//! * [`tcb::Tcb`] implements the backup's *shadow semantics*: a shadow
//!   shares the primary's ISS, which every server keys on the SYN
//!   ([`stack::keyed_iss`], §4.1), and tolerates client ACKs that cover
//!   bytes only the primary has transmitted so far;
//! * [`stack::NetStack`] implements *egress suppression* of the service
//!   IP (the backup "drops" its replies, §4.2) with an instantaneous
//!   takeover switch ([`stack::NetStack::unsuppress`], §5).
//!
//! Everything is sans-io and deterministic: frames in, frames out, time
//! passed explicitly. The `sttcp` crate composes these pieces into
//! simulation nodes.
//!
//! # Example
//!
//! ```
//! use tcpstack::{NetStack, StackConfig};
//! use netsim::SimTime;
//! use wire::MacAddr;
//! use std::net::Ipv4Addr;
//!
//! let mut server = NetStack::new(StackConfig::host(
//!     MacAddr::local(1),
//!     Ipv4Addr::new(10, 0, 0, 2),
//! ));
//! server.listen(80);
//! // frames in via server.handle_frame(now, frame),
//! // frames out via server.poll(now).
//! assert!(server.poll(SimTime::ZERO).is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp_cache;
pub mod config;
pub mod congestion;
pub mod gateway;
pub mod recv_buf;
pub mod rto;
pub mod sack;
pub mod send_buf;
pub mod seq;
pub mod slab;
pub mod stack;
pub mod tcb;
pub mod udp_socket;

pub use config::{Quad, StackConfig, TcpConfig};
pub use congestion::{CcPhase, CongSnapshot, CongestionAlgo, CongestionController, CongestionCtrl};
pub use gateway::{Gateway, GatewayIface, Side};
pub use sack::SackScoreboard;
pub use seq::SeqNum;
pub use stack::{keyed_iss, NetStack, SockId, StackError, UdpId};
pub use tcb::{Env, StagedSeg, Tcb, TcpState};
pub use udp_socket::UdpRecv;
