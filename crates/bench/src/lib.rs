//! # hamband-bench — regenerating the Hamband paper's evaluation
//!
//! One `figures` binary regenerates any figure (`figures 8` …
//! `figures 13`), the headline comparisons of §5, or — the default —
//! the whole evaluation; gate and ablation binaries cover the design
//! choices DESIGN.md calls out. Criterion micro-benchmarks live under
//! `benches/`.
//!
//! Scale the per-data-point operation count with the `HAMBAND_OPS`
//! environment variable (default 2000; the paper used 4M — virtual
//! time makes the extra volume unnecessary for the reported ratios).
//! The environment is read in [`cli`] only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod load;

pub use experiments::{
    fig10, fig11, fig12, fig13, fig8, fig9, headline, headline_report, headline_report_unbatched,
    ingress_sweep, reduce_report, shards_sweep, ExpOptions, FigOutcome, INGRESS_SWEEP_SESSIONS,
    SHARDS_SWEEP_POINTS,
};
