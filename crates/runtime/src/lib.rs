//! # hamband-runtime — the Hamband system of §4, over simulated RDMA
//!
//! This crate implements the runtime the paper describes, against the
//! one-sided verbs of [`rdma_sim`]:
//!
//! * [`codec`] — call serialization, ring-entry slots with canary
//!   bytes, and summary slots as logs of seqlock-versioned records;
//! * [`rings`] — single-writer single-reader ring buffers with
//!   one-sided flow control (remote reads of the reader's head);
//! * [`heartbeat`] — heartbeat counters and the pull failure detector,
//!   which also answers the alive-set questions (recovery delegate,
//!   election starter, quota adopter) from its own suspicions;
//! * [`layout`] — the registered-memory map every replica shares;
//! * [`transport`] — the [`Transport`] trait the whole runtime is
//!   generic over: one-sided verbs, messaging, timers, permissions and
//!   trace hooks, implemented by the simulator's `Ctx` and by the
//!   [`threaded`] backend (one OS thread per replica over
//!   process-shared atomic memory, real wall-clock timers);
//! * [`replica`] — [`replica::HambandNode`], the per-node orchestrator
//!   over the protocol modules: [`reduce`] / [`free`] / [`conf`] issue
//!   paths (with [`commit`] advancement, [`election`] and takeover,
//!   failure [`recovery`]), the shared call lifecycle in [`calls`], the
//!   view discipline in [`views`], and typed [`status`] snapshots —
//!   reliable broadcast recovered from a failed node's own slots, and one Mu-style
//!   [`conf::GroupEngine`] per synchronization group (permission-based
//!   leader exclusion, majority commit, leader change with ring
//!   catch-up);
//! * [`persist`] — the durability seam: which state is *hard* (survives
//!   a crash-restart: ring slots, summary slots, consensus epoch/vote/
//!   commit) vs *soft*, the versioned persist-log format with explicit
//!   fence points, and — in [`rejoin`] — the idempotent recovery pass a
//!   restarted node runs before rejoining the cluster;
//! * [`baseline_msg`] — the message-passing op-based CRDT baseline;
//! * [`chaos`] — deterministic chaos campaigns: randomized fault
//!   schedules checked for convergence, integrity, and trace
//!   invariants, with ddmin-style shrinking of failing schedules;
//! * [`driver`] / [`ingress`] / [`metrics`] / [`harness`] — the
//!   [`WorkloadSpec`] client-load description, the flat-combining
//!   session ingress, and the measurement harness producing the
//!   paper's throughput, response-time, and per-session fairness
//!   numbers (the Mu-SMR baseline is the same runtime with a complete
//!   conflict relation, per §3.2's observation that linearizable types
//!   are WRDTs with a complete conflict relation);
//! * [`verdict`] — when a cluster run is finished: [`settled`], the
//!   one rule every backend, test and example asks, and [`drive`], the
//!   loop that steps an [`assemble`]d simulator until it holds.
//!
//! ## Running an experiment
//!
//! The harness entry point is [`Runner`]: pick a [`System`], build a
//! [`RunConfig`] with the `with_*` builders, and run it against an
//! object spec and its coordination spec:
//!
//! ```
//! use hamband_runtime::{RunConfig, Runner, System, TraceMode, WorkloadSpec};
//! use hamband_types::Counter;
//!
//! let c = Counter::default();
//! let config = RunConfig::for_nodes(3)
//!     .with_workload(WorkloadSpec::ops(300).with_update_ratio(0.5))
//!     .with_seed(7)
//!     .with_trace(TraceMode::Collect);
//! let outcome = Runner::new(System::Hamband, config).run(&c, &c.coord_spec());
//!
//! assert!(outcome.report.converged);
//! // Structured protocol events, in order (TraceMode::Collect):
//! assert!(!outcome.events.is_empty());
//! // Per-phase p50/p90/p99 latencies, keyed by phase label:
//! assert!(outcome.report.phases["reduce"].count > 0);
//! ```
//!
//! ## Serving many clients per replica
//!
//! Each node's client load is described by a [`WorkloadSpec`]: op
//! count, update/query mix, and — via
//! [`WorkloadSpec::with_sessions`] — how many independent client
//! sessions the node serves. Sessions are flat-combined by the
//! replica's pump (see [`ingress`]), so a node can serve thousands of
//! users while the fabric still sees one combined, write-coalesced
//! stream:
//!
//! ```
//! use hamband_runtime::{RunConfig, Runner, System, WorkloadSpec};
//! use hamband_types::Counter;
//!
//! let c = Counter::default();
//! let spec = WorkloadSpec::ops(2_000).with_sessions(250).with_window(2);
//! let outcome =
//!     Runner::new(System::Hamband, RunConfig::new(3, spec)).run(&c, &c.coord_spec());
//! let fairness = outcome.report.fairness.as_ref().expect("multi-session run");
//! assert_eq!(fairness.sessions, 750); // 250 per node × 3 nodes
//! assert!(outcome.report.converged);
//! ```
//!
//! ## Observability
//!
//! Protocol-level observability is structured: under
//! [`TraceMode::Collect`] ([`RunConfig::with_trace`]) a run records
//! typed [`TraceEvent`]s (ring appends/applies, summary writes, acks,
//! commit advances, leader changes, failure suspicions) into
//! [`RunOutcome::events`], on either backend; verb events come from the
//! simulator's fabric only. Latencies are recorded in log-scale
//! [`LatencyHistogram`]s per method and per protocol phase
//! ([`rdma_sim::Phase`]), summarized as p50/p90/p99/max in
//! [`RunReport`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backends;
pub mod baseline_msg;
pub mod calls;
pub mod chaos;
pub mod codec;
pub mod commit;
pub mod conf;
pub mod config;
pub mod driver;
pub mod election;
pub mod free;
pub mod harness;
pub mod heartbeat;
pub mod ingress;
pub mod layout;
pub mod messages;
pub mod metrics;
pub mod persist;
pub mod recovery;
pub mod reduce;
pub mod rejoin;
pub mod replica;
pub mod rings;
pub mod status;
pub mod threaded;
pub mod transport;
pub mod verdict;
pub mod views;

pub use baseline_msg::MsgCrdtNode;
pub use chaos::{run_case, run_seed, shrink, shrink_case, CaseReport, ChaosOptions, Violation};
pub use conf::{GroupEngine, LeaderState, Role};
pub use config::RuntimeConfig;
pub use driver::{Planned, QuotaSplit, WorkloadSpec};
pub use harness::{
    assemble, Backend, NodeEndState, RunConfig, RunOutcome, Runner, System, TraceMode,
};
pub use ingress::{ClientSession, Ingress, SessionStats};
pub use layout::Layout;
pub use metrics::{FairnessSummary, LatencyHistogram, LatencySummary, NodeMetrics, RunReport};
pub use persist::{DurabilityMode, LogRecord, NodeLog};
pub use replica::HambandNode;
pub use status::{GroupStatus, NodeStatus, RoleKind};
pub use transport::Transport;
pub use verdict::{drive, settled, HarnessNode};

// Trace vocabulary, re-exported so harness consumers need not depend on
// `rdma_sim` directly.
pub use rdma_sim::{Phase, RingKind, TraceEvent, TraceRecord};
