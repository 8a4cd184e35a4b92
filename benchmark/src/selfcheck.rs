//! The self-check: what must hold of the benchmark itself, at a
//! twentieth of the scale so it takes seconds.

use std::time::{Duration, Instant};

use hamband_runtime::TraceMode;
use rdma_sim::NodeId;

use crate::spans::analyze;
use crate::supervise::run_child;
use crate::workloads::{Workload, DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS};

/// Scale of the self-check's runs.
pub const SCALE: f64 = 0.05;

fn check(ok: bool, what: String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what)
    }
}

/// The virtual clock's promises for `w`'s simulator configuration: the
/// same seed gives the same fingerprint, another seed another, tracing
/// changes nothing, a leader failure's stages sum to its outage, and
/// without one nobody is suspected or elected.
pub fn virtual_clock_checks(w: &Workload) -> Result<(), String> {
    let calls = w.sim_calls(SCALE);
    let run = |seed, trace| w.run(w.sim_config(calls, SCALE, seed, trace));
    let name = w.name;

    let first = run(DEFAULT_SEED, TraceMode::Off);
    check(
        first.failure.is_none(),
        format!("{name}: {:?}", first.failure),
    )?;
    let again = run(DEFAULT_SEED, TraceMode::Off);
    check(
        first.fingerprint == again.fingerprint,
        format!(
            "{name}: one seed, two fingerprints ({:016x}, {:016x})",
            first.fingerprint, again.fingerprint
        ),
    )?;
    let holdout = run(HOLDOUT_SEED, TraceMode::Off);
    check(
        holdout.failure.is_none(),
        format!("{name} on the hold-out seed: {:?}", holdout.failure),
    )?;
    check(
        holdout.fingerprint != first.fingerprint,
        format!("{name}: the hold-out seed repeats the default seed's fingerprint"),
    )?;
    let traced = run(DEFAULT_SEED, TraceMode::Collect);
    check(
        traced.fingerprint == first.fingerprint,
        format!("{name}: tracing changed the virtual fingerprint"),
    )?;

    let fault = w.fault_at(SCALE).map(|at| (at, NodeId(0)));
    let summary = analyze(&traced.outcome.events, fault);
    match (fault, summary.outage) {
        (Some(_), Some(o)) => check(
            o.detect_ns + o.elect_ns + o.resume_ns == o.total_ns && o.total_ns > 0,
            format!("{name}: stages {o:?} do not sum to the outage"),
        ),
        (Some(_), None) => Err(format!("{name}: no complete outage in the trace")),
        (None, _) => check(
            summary.leader_changes == 0 && summary.fd_suspects == 0,
            format!("{name}: suspicion or election without a fault"),
        ),
    }
}

/// A child that hangs and one that panics are each reported dead
/// within the cap, with nothing of their output kept. Needs this
/// binary to be the benchmark (it re-executes itself).
pub fn dead_children_are_contained() -> Result<(), String> {
    let cap = Duration::from_secs(2);
    for kind in ["test-hang", "test-panic"] {
        let start = Instant::now();
        let report = run_child(
            &[
                "child".to_string(),
                "--workload".to_string(),
                kind.to_string(),
            ],
            cap,
        );
        check(
            report.died.is_some(),
            format!("{kind}: the child was not reported dead"),
        )?;
        check(
            report.metrics.is_empty() && report.verdict.is_none(),
            format!("{kind}: a dead child's output was kept"),
        )?;
        check(
            start.elapsed() < cap + Duration::from_secs(2),
            format!("{kind}: took {:?}, cap {cap:?}", start.elapsed()),
        )?;
    }
    Ok(())
}

/// Run every check, printing one line each; `Err` names the first that
/// failed.
pub fn run_all() -> Result<(), String> {
    for w in &WORKLOADS {
        virtual_clock_checks(w)?;
        println!(
            "ok    {}: fingerprints repeat, differ by seed, survive tracing",
            w.name
        );
    }
    dead_children_are_contained()?;
    println!("ok    a hung child and a panicking child are contained within their cap");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_promises_hold_on_every_workload() {
        for w in &WORKLOADS {
            virtual_clock_checks(w).unwrap();
        }
    }

    #[test]
    fn a_run_that_cannot_converge_counts_its_whole_budget_as_failed() {
        let w = &WORKLOADS[0];
        let calls = w.sim_calls(SCALE);
        // A virtual cap far too short for the budget.
        let config = w
            .sim_config(calls, SCALE, DEFAULT_SEED, TraceMode::Off)
            .with_max_time(rdma_sim::SimTime(20_000));
        let rep = w.run(config);
        assert!(
            rep.failure.is_some(),
            "a 20 µs cap cannot fit {calls} calls"
        );
        assert_eq!(rep.failed(), calls);
        let mut tally = crate::run::Tally::default();
        tally.sim(&rep);
        assert_eq!((tally.attempted, tally.failed), (calls, calls));
        assert!(!tally.correct());
    }
}
