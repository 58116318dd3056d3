//! Deterministic discrete-event network simulator for the ST-TCP
//! reproduction.
//!
//! The ST-TCP paper evaluates a Linux kernel prototype on a physical LAN
//! (two server PCs, a laptop client, a 10/100 Mbit hub). This crate
//! replaces that hardware with a *deterministic* discrete-event simulation:
//! virtual time has nanosecond resolution, every run is exactly
//! reproducible, and faults (crashes, packet loss, tap omissions, power
//! fencing) are injected at precise virtual instants. Determinism is what
//! lets the benchmark harness measure failover times without averaging
//! over noisy wall-clock runs.
//!
//! # Architecture
//!
//! * [`Simulator`] owns a set of [`Node`]s (hosts, hubs, switches,
//!   loggers, power switches) wired together by point-to-point [`link`]s
//!   that model latency, bandwidth serialization, and loss.
//! * Nodes are sans-io: they receive frames and timer wake-ups through a
//!   [`Context`] and emit frames/timers/control actions back through it.
//!   All effects are buffered and applied by the simulator, which keeps
//!   the event order deterministic.
//! * [`hub::Hub`] models the broadcast Ethernet of the paper's testbed;
//!   [`switch::Switch`] models switched Ethernet with the port-mirroring
//!   and multicast-flooding tapping architectures of §3.1.
//! * [`power::PowerSwitch`] provides the fencing ("convert wrong
//!   suspicions into correct ones by switching off the power", §4.4).
//! * [`logger::PacketLogger`] is the in-network packet logger of §3.2
//!   that masks omission+crash double failures.
//!
//! # Example
//!
//! ```
//! use netsim::{Simulator, LinkSpec, SimDuration, node::{Node, Context, PortId}};
//! use bytes::Bytes;
//!
//! struct Pinger { sent: bool }
//! struct Echoer { got: usize }
//!
//! impl Node for Pinger {
//!     fn on_start(&mut self, ctx: &mut Context) {
//!         ctx.send_frame(PortId(0), Bytes::from_static(b"ping"));
//!         self.sent = true;
//!     }
//!     fn on_frame(&mut self, _port: PortId, _frame: Bytes, _ctx: &mut Context) {}
//! }
//! impl Node for Echoer {
//!     fn on_frame(&mut self, port: PortId, frame: Bytes, ctx: &mut Context) {
//!         self.got += frame.len();
//!         ctx.send_frame(port, frame);
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! let a = sim.add_node("pinger", Pinger { sent: false });
//! let b = sim.add_node("echoer", Echoer { got: 0 });
//! sim.connect(a, PortId(0), b, PortId(0), LinkSpec::lan());
//! sim.run_for(SimDuration::from_secs(1));
//! assert_eq!(sim.node_ref::<Echoer>(b).got, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod hub;
pub mod link;
pub mod logger;
pub mod node;
pub mod pcap;
pub mod power;
pub mod rng;
pub mod shared_hub;
pub mod sim;
pub mod switch;
pub mod time;
pub mod trace;

pub use event::TimeQueue;
pub use fault::{
    DelayRule, DropRule, DuplicateRule, IngressAction, IngressRule, RuleId, RuleStats,
};
pub use hub::Hub;
pub use link::{LinkId, LinkProfile, LinkSpec, LinkStats, LossModel};
pub use logger::PacketLogger;
pub use node::{Context, Node, NodeId, PortId};
pub use power::PowerSwitch;
pub use rng::{DetHashMap, SplitMix64};
pub use shared_hub::SharedHub;
pub use sim::Simulator;
pub use switch::Switch;
pub use time::{SimDuration, SimTime};
pub use trace::{ProbeEvent, Trace};
