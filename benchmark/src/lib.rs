//! The two-clock benchmark of the Hamband reproduction.
//!
//! Everything is measured from outside the crates: end to end through
//! `Runner` / `RunConfig` / `WorkloadSpec` / `RuntimeConfig` /
//! `RunOutcome`; layers by timing calls into their public functions
//! ([`probes`]) and by pairing the `TraceRecord`s of a separate
//! `TraceMode::Collect` run into spans ([`spans`]).
//!
//! Two clocks, named in every metric: `_vus` is virtual µs from
//! `rdma-sim` (what the protocol costs in verbs and round trips;
//! bit-identical for a seed); `_us`, `_s`, `_ns` and `host_` are wall
//! time (what our Rust costs). See `README.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod manifest;
pub mod measure;
pub mod probes;
pub mod run;
pub mod selfcheck;
pub mod spans;
pub mod stats;
pub mod supervise;
pub mod workloads;
