//! # hamband-types — the replicated data types of the Hamband evaluation
//!
//! §5 of the paper evaluates five CRDTs adopted from Shapiro et al. and
//! three relational schemata adopted from Hamsaz and Özsu–Valduriez:
//!
//! | Type | Module | Categories exercised |
//! |------|--------|----------------------|
//! | Counter | [`counter`] | reducible |
//! | Last-writer-wins register | [`lww`] | reducible |
//! | Grow-only set | [`gset`] | reducible (`add_all`) or irreducible (buffered variant) |
//! | Observed-remove set | [`orset`] | irreducible conflict-free with causal dependency |
//! | Shopping cart | [`cart`] | irreducible conflict-free |
//! | Bank account | [`account`] | reducible + conflicting + dependency (the running example) |
//! | Multi-account bank | [`bank`] | the §2 example with a *dependent* irreducible conflict-free method |
//! | Project management | [`project`] | all three categories |
//! | Movie rental | [`movie`] | two separate synchronization groups |
//! | Courseware | [`courseware`] | all three categories |
//!
//! Every type implements [`hamband_core::ObjectSpec`] (executable
//! definition), [`hamband_core::SpecSampler`] and
//! [`hamband_core::WorkloadSupport`] (generation), wire encoding for its
//! calls, and exposes its coordination relations as a
//! [`hamband_core::CoordSpec`] — which the tests validate against the
//! executable definition with the bounded analysis of
//! [`hamband_core::analysis`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod bank;
pub mod cart;
pub mod counter;
pub mod courseware;
#[cfg(test)]
mod gen_parity;
pub mod gset;
pub mod lww;
pub mod movie;
pub mod orset;
pub mod project;
mod sets;

pub use account::Account;
pub use bank::Bank;
pub use cart::Cart;
pub use counter::Counter;
pub use courseware::Courseware;
pub use gset::GSet;
pub use lww::LwwRegister;
pub use movie::Movie;
pub use orset::OrSet;
pub use project::Project;
