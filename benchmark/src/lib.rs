//! `sttcp-perf` — the repo's benchmark.
//!
//! Six named workloads run through the library's public builders; every
//! byte stream is verified; end-to-end metrics are normalised by payload
//! bytes and connections (never by frames or events, which changes to
//! the code move); a second, traced phase attributes the host time to
//! the layers — `netsim`, `wire`, `tcpstack`, `sttcp`, `apps`, `obs` —
//! from outside the program. See `README.md` for the glossary.
//!
//! The benchmark claims no gain. It is the ruler.

#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod probe;
pub mod report;
pub mod rig;
pub mod stats;
pub mod topo;
pub mod workloads;
