//! # rdma-sim — a deterministic discrete-event RDMA cluster simulator
//!
//! This crate is the substrate substitution for the Hamband
//! reproduction: the paper ran on a 7-node InfiniBand cluster through
//! ibverbs' Reliable Connection (RC) queue pairs; this simulator
//! provides the same programming model under deterministic virtual
//! time:
//!
//! * **one-sided verbs** — [`Ctx::post_write`], [`Ctx::post_read`],
//!   [`Ctx::post_cas`] operate directly on a remote node's registered
//!   memory without involving its CPU, completing asynchronously
//!   through [`Event::Completion`]. All three take one post path and
//!   one landing path, and every verb or message posted is counted by
//!   [`Stats::count_post`], the threaded backend's rule too. WRITEs are
//!   FIFO per (issuer, target) pair and SENDs FIFO on a clock of their
//!   own; READ and CAS are not ordered behind earlier WRITEs on their
//!   pair, which RC does order (the [`fabric`] module docs give the
//!   measured case);
//! * **registered memory** with per-source **write permissions**
//!   ([`Ctx::set_write_permission`]) — the primitive behind Mu-style
//!   single-leader enforcement;
//! * **two-sided messages** ([`Ctx::send`]) through a modelled network
//!   and OS stack that *does* cost receiver CPU — the transport of the
//!   message-passing CRDT baseline;
//! * a calibrated **latency model** ([`LatencyModel`]) capturing the
//!   cost asymmetries the paper's evaluation rests on;
//! * **fault injection** ([`FaultPlan`]): heartbeat suspension (the
//!   paper's §5 failure mode), fail-stop crashes with still-accessible
//!   memory, and torn-write landing to stress canary-bit protocols.
//!
//! Virtual time makes every run exactly reproducible from its seed, and
//! lets benchmark harnesses report microsecond-scale throughput and
//! response times comparable in *shape* to the paper's testbed numbers.
//!
//! See the [`Simulator`] docs for a complete ping example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod fault;
pub mod idmap;
pub mod latency;
mod queue;
mod region;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;
pub mod verbs;
mod wait;

pub use fabric::{Ctx, Fabric};
pub use fault::{Fault, FaultGenConfig, FaultPlan};
pub use idmap::IdMap;
pub use latency::LatencyModel;
pub use sim::{App, Simulator};
pub use stats::Stats;
pub use time::{SimDuration, SimTime};
pub use trace::{Phase, RingKind, TraceEvent, TraceRecord};
pub use verbs::{AppFault, CompletionStatus, Event, NodeId, RegionId, TimerId, VerbKind, WrId};
