//! # Hamband: RDMA Replicated Data Types
//!
//! A comprehensive Rust reproduction of *Hamband: RDMA Replicated Data
//! Types* (Houshmand, Saberlatibari, Lesani; PLDI 2022) — the first
//! hybrid replicated data types for the RDMA network model.
//!
//! This facade crate re-exports the whole system:
//!
//! * [`core`] ([`hamband_core`]) — the object model, coordination
//!   relations, method categories, and both operational semantics
//!   (abstract WRDT, Fig. 5; concrete RDMA WRDT, Fig. 7), with
//!   executable refinement, integrity, and convergence checking.
//! * [`sim`] ([`rdma_sim`]) — a deterministic discrete-event simulator
//!   of an RDMA Reliable Connection cluster (one-sided verbs, registered
//!   memory, write permissions, latency model, fault injection), the
//!   substrate standing in for the paper's InfiniBand testbed.
//! * [`runtime`] ([`hamband_runtime`]) — the Hamband runtime: wire
//!   codec, single-writer ring buffers with canary bits, summary slots,
//!   RDMA reliable broadcast, Mu-style consensus, the replica node, the
//!   MSG-CRDT and Mu-SMR baselines, and the workload driver.
//! * [`types`] ([`hamband_types`]) — the evaluated data types: Counter,
//!   LWW register, GSet, ORSet, Shopping cart, Bank account, Project
//!   management, Movie, and Courseware.
//!
//! See `examples/quickstart.rs` for an end-to-end tour.

pub use hamband_core as core;
pub use hamband_runtime as runtime;
pub use hamband_types as types;
pub use rdma_sim as sim;

/// The README's Rust blocks, compiled and run as doctests so its code
/// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
