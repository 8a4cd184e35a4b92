//! Regenerate figures of the Hamband paper's evaluation.
//!
//! ```text
//! figures [8|9|10|11|12|13|headline|ablations|all]
//! ```
//!
//! One figure, the §5 headline summary, the design-choice ablations, or
//! (the default) all of them followed by a pass/fail summary. Scale
//! per-point operations with HAMBAND_OPS. Exit code 1 when a paper
//! shape-check fails.

use hamband_bench::cli::argv;
use hamband_bench::{ExpOptions, FigOutcome};

type Fig = fn(&ExpOptions) -> FigOutcome;

const FIGURES: [(&str, Fig); 8] = [
    ("8", hamband_bench::fig8),
    ("9", hamband_bench::fig9),
    ("10", hamband_bench::fig10),
    ("11", hamband_bench::fig11),
    ("12", hamband_bench::fig12),
    ("13", hamband_bench::fig13),
    ("headline", hamband_bench::headline),
    ("ablations", hamband_bench::ablations),
];

fn main() {
    let which = argv().into_iter().next().unwrap_or_else(|| "all".to_string());
    let selected: Vec<Fig> = FIGURES
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .map(|&(_, fig)| fig)
        .collect();
    if selected.is_empty() {
        eprintln!("usage: figures [8|9|10|11|12|13|headline|ablations|all]");
        std::process::exit(2);
    }
    let opts = ExpOptions::from_env();
    let outcomes: Vec<FigOutcome> = selected.iter().map(|fig| fig(&opts)).collect();
    for f in &outcomes {
        println!("{f}");
    }
    if which == "all" {
        println!("==== summary ====");
        for f in &outcomes {
            println!("  [{}] {}", if f.all_hold() { "ok" } else { "!!" }, f.name);
        }
    }
    if !outcomes.iter().all(FigOutcome::all_hold) {
        std::process::exit(1);
    }
}
