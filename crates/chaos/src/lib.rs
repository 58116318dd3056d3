//! Deterministic chaos-campaign engine for the ST-TCP reproduction.
//!
//! The paper's evaluation (§6) injects one fault at a time by hand:
//! crash the primary once, drop one tapped segment once. This crate
//! systematizes that into *campaigns* — enumerated fault schedules
//! crossed with workloads and RNG seeds, executed in parallel (each run
//! an independent deterministic [`netsim::Simulator`]), judged by
//! invariant oracles, and, on failure, shrunk to a minimal replayable
//! reproducer.
//!
//! # Pipeline
//!
//! 1. [`plan`] — a [`plan::FaultPlan`] is pure data, addressing servers
//!    by rank: crash the primary at a quantile of the run or any rank at
//!    an instant, drop the n-th tapped segment, delay or duplicate
//!    side-channel datagrams, partition a tap, pause the primary.
//!    Schedules serialize to JSON and back.
//! 2. [`campaign`] — crosses plans × testbeds × seeds into a run matrix
//!    and executes it across threads; probe runs (fault-free, per
//!    testbed+seed) map schedule percentages onto virtual time.
//! 3. [`run`] — one run of one [`run::RunSpec`] on its
//!    [`run::Testbed`] — the paper's pair or a chain of N backups, both
//!    driven through the same rank-ordered `sttcp::fleet::Fleet` view:
//!    install the plan as crash schedules and ingress rules, drive the
//!    simulation in chunks, sample the oracles, digest every frame
//!    transmission.
//! 4. [`oracle`] — the invariants: client byte-stream integrity,
//!    completion, at-most-one VIP speaker after takeover, shadow/primary
//!    sequence agreement, bounded retention, bounded takeover latency,
//!    no false suspicion, eventual teardown.
//! 5. [`shrink`] — delta-debug a failing schedule to a minimal
//!    reproducer (determinism makes "still fails" exact).
//! 6. [`artifact`] — JSON artifacts carrying testbed + seed + schedule +
//!    frame digest; [`artifact::FailureArtifact::replay`] verifies a
//!    reproducer bit-for-bit.
//!
//! There is one of each: a chain run gets the same plan vocabulary,
//! probe pass, oracles, shrinker and artifact as the pair.
//!
//! The `chaos-hunt` binary drives the stock campaigns from the command
//! line; CI runs its `--smoke` mode on every push.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod campaign;
pub mod oracle;
pub mod plan;
pub mod run;
pub mod shrink;
pub mod sweep;

pub use artifact::FailureArtifact;
pub use campaign::{
    broken_config_canary, cascade_campaign, demo_campaign, run_campaign, smoke_campaign,
    wan_burst_loss_campaign, Campaign,
};
pub use obs::json;
pub use oracle::{OracleKind, Violation};
pub use plan::{FaultOp, FaultPlan, BACKUP, PRIMARY};
pub use run::{
    execute, execute_with_pcap, execute_with_profile, measure_profile, Profile, RunReport, RunSpec,
    Testbed,
};
pub use shrink::{shrink, ShrinkResult};
pub use sweep::{run_sweep, Sweep, SweepResult};
