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
//! Every type is two impls and one declaration:
//! [`hamband_core::ObjectSpec`] (the executable definition, five
//! required methods), [`hamband_core::WorkloadSupport`] (sampling and
//! workload generation), and [`hamband_core::calls!`] over its update
//! enum — the one list its method constants, its
//! [`Methods`](hamband_core::object::Methods) impl (which `ObjectSpec`
//! reads for method names and ids) and its wire codec come from. Each exposes its coordination relations as a
//! [`hamband_core::CoordSpec`].
//!
//! And every type is *one row* of [`for_each_shipped`], the single
//! table of what this crate ships (GSet in both coordinations). The row
//! is what gets a type checked: `tests/conformance.rs` validates its
//! coordination against its executable definition with the bounded
//! analysis of [`hamband_core::analysis`], and the workspace's
//! refinement, cluster, budget and backend suites and the chaos
//! campaigns all visit the same rows — a type added to the table is
//! validated, refined, run on every system and both backends and put
//! under faults with no other edit. An exported type without a row
//! fails `tests/conformance.rs`.

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
mod registry;
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
pub use registry::{for_each_shipped, visit_shipped, Shipped, ShippedVisitor, SHIPPED_ROWS};
pub use sets::RankSet;
