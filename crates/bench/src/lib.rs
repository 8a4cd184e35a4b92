//! # hamband-bench — regenerating the Hamband paper's evaluation
//!
//! One `figures` binary regenerates any figure (`figures 8` …
//! `figures 13`), the headline comparisons of §5, the two design-choice
//! ablations DESIGN.md §5 argues from (`figures ablations`), or — the
//! default — all of them; the `chaos` binary runs fault campaigns over
//! the shipped types. Performance
//! is measured in one place, the standalone `benchmark/` package
//! (`BENCHMARK.json`), not here.
//!
//! Scale the per-data-point operation count with the `HAMBAND_OPS`
//! environment variable (default 2000; the paper used 4M — virtual
//! time makes the extra volume unnecessary for the reported ratios).
//! The environment is read in [`cli`] only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod cli;
pub mod experiments;

pub use ablations::ablations;
pub use experiments::{fig10, fig11, fig12, fig13, fig8, fig9, headline, ExpOptions, FigOutcome};
