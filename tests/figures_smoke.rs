//! Scaled-down smoke runs of the figure harness: the qualitative shape
//! checks of the paper's evaluation must hold even at small operation
//! counts. (The full sweeps live in `cargo run -p hamband-bench --bin
//! figures`; these cover the cheaper figures.)

use hamband_bench::{ablations, fig10, fig11, fig13, headline, ExpOptions};

fn small() -> ExpOptions {
    ExpOptions { ops: 400, seed: 0x51_0e }
}

#[test]
fn fig10_shape_holds() {
    let out = fig10(&small());
    assert!(out.all_hold(), "{out}");
}

#[test]
fn fig11_shape_holds() {
    let out = fig11(&small());
    assert!(out.all_hold(), "{out}");
}

#[test]
fn fig13_shape_holds() {
    let out = fig13(&small());
    for c in &out.checks {
        // The throughput-magnitude checks are volume-sensitive; at
        // smoke scale require only convergence and the qualitative
        // leader/follower ordering.
        if c.claim.contains("converged") || c.claim.contains("register_students") {
            assert!(c.holds, "{out}");
        }
    }
}

#[test]
fn headline_shape_holds() {
    let out = headline(&small());
    assert!(out.all_hold(), "{out}");
}

#[test]
fn ablations_shape_holds() {
    let out = ablations(&small());
    assert!(out.all_hold(), "{out}");
}
