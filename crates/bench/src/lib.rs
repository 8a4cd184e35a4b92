//! # hamband-bench — regenerating the Hamband paper's evaluation
//!
//! One `figures` binary regenerates any figure (`figures 8` …
//! `figures 13`), the headline comparisons of §5, or — the default —
//! the whole evaluation; the `chaos`, `model_check` and ablation
//! binaries cover the design choices DESIGN.md calls out. Performance
//! is measured in one place, the standalone `benchmark/` package
//! (`BENCHMARK.json`), not here.
//!
//! Scale the per-data-point operation count with the `HAMBAND_OPS`
//! environment variable (default 2000; the paper used 4M — virtual
//! time makes the extra volume unnecessary for the reported ratios).
//! The environment is read in [`cli`] only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;

pub use experiments::{fig10, fig11, fig12, fig13, fig8, fig9, headline, ExpOptions, FigOutcome};
