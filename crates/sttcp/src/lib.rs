//! # ST-TCP — Server fault-Tolerant TCP
//!
//! Reproduction of *"TCP Server Fault Tolerance Using Connection
//! Migration to a Backup Server"* (Marwah, Mishra, Fetzer — DSN 2003).
//!
//! ST-TCP keeps an **active backup server** in lock-step with a primary
//! by *tapping* the Ethernet carrying the client↔primary TCP stream.
//! The backup runs the same deterministic application over a shadow TCP
//! connection that uses the **same sequence numbers** as the primary's
//! (every server derives the ISS from the client's SYN), with all of its
//! output suppressed. When the primary crashes, the backup stops
//! suppressing and *is* the server — no reconnect, no client
//! modification, no visible disruption beyond one retransmission
//! timeout's worth of delay.
//!
//! # Crate layout
//!
//! * [`config`] — protocol tunables (heartbeat interval, `SyncTime`,
//!   ack threshold `X`, fencing, logger use);
//! * [`messages`] — the UDP side-channel protocol (backup acks,
//!   missing-segment recovery, heartbeats — paper §4.2–§4.3);
//! * [`cluster`] — the replication engine, one for every role of a
//!   primary + N-backup chain (the paper's pair is N = 1): retention
//!   management and the missing-segment server, the acknowledgment
//!   strategy, tap-omission recovery, failure detection in both
//!   directions, fencing, takeover, planned migration, and
//!   logger-assisted double-failure recovery;
//! * [`node`] — simulation hosts ([`node::ServerNode`],
//!   [`node::ClientNode`], [`node::GatewayNode`]);
//! * [`scenario`] — prebuilt experiment topologies (the paper's hub
//!   testbed plus the three switched tapping architectures of §3.1);
//! * [`fleet`] — seeded many-client fleets against a chain of any
//!   length.
//!
//! # Quickstart
//!
//! ```
//! use sttcp::prelude::*;
//!
//! // Echo workload over ST-TCP; crash the primary mid-run.
//! let spec = ScenarioSpec::new(Workload::Echo { requests: 10 })
//!     .st_tcp(SttcpConfig::new(addrs::VIP, 80))
//!     .faults(FaultSpec::crash_primary_at(SimTime::ZERO + SimDuration::from_millis(40)));
//! let mut scenario = build(&spec);
//! let metrics = scenario.run(RunLimits::default()).expect_completed();
//! assert!(metrics.verified_clean()); // byte stream intact across failover
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod config;
pub mod fleet;
pub mod messages;
pub mod node;
pub mod prelude;
pub mod scenario;

pub use cluster::{ClusterEngine, ClusterRole, ClusterStats};
pub use config::{Fencing, SttcpConfig, TakeoverPolicy};
pub use messages::{ConnKey, SideMsg};
pub use node::{ClientNode, GatewayNode, ServerNode};
pub use scenario::{
    build, Fault, FaultSpec, RunLimits, RunOutcome, Scenario, ScenarioSpec, StopReason, Topology,
};
