//! Core model and operational semantics of **well-coordinated replicated
//! data types** (WRDTs) for the RDMA network model, reproducing §3 of
//! *Hamband: RDMA Replicated Data Types* (PLDI 2022).
//!
//! The crate provides, layer by layer:
//!
//! * [`object`] — the object data type model ⟨Σ, I, ū:=d̄, q̄:=d̄⟩ of
//!   Fig. 3: a state type, an integrity invariant, and executable update
//!   and query methods, captured by the [`ObjectSpec`] trait.
//! * [`wire`] — the byte-level encoding of calls (§4), and [`calls!`]:
//!   the method list of an update enum declared once, from which its
//!   method constants, names and codec are derived.
//! * [`relations`] — the semantic coordination relations of §3.2
//!   (S-commutativity, permissibility, invariant-sufficiency, 𝒫-R/L-
//!   commutativity, conflict and dependency) as executable checks.
//! * [`coord`] — declared method-level coordination relations
//!   ([`CoordSpec`]), the conflict graph, synchronization groups,
//!   summarization groups, and the three method categories of §3.3:
//!   *reducible*, *irreducible conflict-free*, and *conflicting*.
//! * [`analysis`] — a bounded checker that validates a declared
//!   [`CoordSpec`] against the executable object definition by sampling
//!   states and arguments.
//! * [`abstract_sem`] — the abstract WRDT operational semantics of
//!   Fig. 5 (rules CALL, PROP, QUERY) together with executable checkers
//!   for the paper's integrity (Lemma 1) and convergence (Lemma 2)
//!   guarantees.
//! * [`rdma_sem`] — the concrete RDMA WRDT semantics of Fig. 7 (rules
//!   REDUCE, FREE, CONF, FREE-APP, CONF-APP, QUERY) over configurations
//!   ⟨σ, A, S, F, L⟩.
//! * [`refinement`] — an executable refinement checker for Lemma 3:
//!   every trace of the concrete semantics replays in the abstract one.
//! * [`explore`] — bounded exhaustive exploration (small-scope model
//!   checking): the lemmas verified over *all* interleavings of small
//!   scripted executions.
//! * [`demo`] — the paper's running bank-account example (Fig. 1), used
//!   throughout the documentation and tests.
//!
//! # Quick example
//!
//! ```
//! use hamband_core::demo::Account;
//! use hamband_core::abstract_sem::AbstractWrdt;
//! use hamband_core::object::ObjectSpec;
//!
//! let account = Account::new(3);
//! let coord = account.coord_spec();
//! let mut wrdt = AbstractWrdt::new(&account, &coord, 3);
//! // Process 0 deposits 10, process 1 withdraws 4 after propagation.
//! let rid = wrdt.call(0, Account::deposit(10)).expect("deposit is permissible");
//! wrdt.propagate(1, 0, rid).expect("deposit propagates freely");
//! wrdt.call(1, Account::withdraw(4)).expect("withdraw is covered");
//! assert!(wrdt.check_integrity());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_sem;
pub mod analysis;
pub mod coord;
pub mod counts;
pub mod demo;
pub mod error;
pub mod explore;
pub mod graph;
pub mod ids;
pub mod object;
pub mod rdma_sem;
pub mod refinement;
pub mod relations;
pub mod trace;
pub mod wire;

pub use abstract_sem::AbstractWrdt;
pub use coord::{mix64, CoordSpec, GroupMapper, MethodCategory};
pub use counts::{CountMap, DepMap};
pub use error::SemError;
pub use ids::{GroupId, MethodId, Pid, Rid};
pub use object::{ObjectSpec, WorkloadSupport};
pub use rdma_sem::RdmaWrdt;
