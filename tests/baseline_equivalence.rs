//! Cross-system equivalence: the replication systems implement the
//! *same object*. For a state-oblivious workload (the Counter: its
//! generator never consults replica state), the per-node call streams
//! are identical between Hamband and the MSG baseline (same driver
//! structure and seeds), so both must converge to the *same* final
//! value. The Mu-SMR baseline reshapes the workload (all updates
//! become one global conflicting quota at the leader), so for it we
//! assert convergence and the exact acknowledged update count instead.

use hamband::core::coord::CoordSpec;
use hamband::runtime::{RunConfig, Runner, System, WorkloadSpec};
use hamband::types::Counter;

const N: usize = 4;
const OPS: u64 = 800;
const SEED: u64 = 0x3131;

fn workload() -> WorkloadSpec {
    WorkloadSpec::ops(OPS).with_update_ratio(0.5).with_seed(SEED)
}

/// The complete conflict relation over one method (the SMR special
/// case, built explicitly so the test does not depend on harness
/// internals).
fn complete_coord() -> CoordSpec {
    CoordSpec::builder(1).conflict(0, 0).build()
}

/// The value every node of a converged `system` cluster ends with.
fn final_value(system: System, coord: CoordSpec) -> i64 {
    let run = RunConfig::new(N, workload()).with_seed(SEED ^ 0xfab);
    let (outcome, nodes) = Runner::new(system, run).run_with_states(&Counter::default(), &coord);
    assert!(outcome.report.converged, "intra-cluster divergence");
    nodes[0].state
}

#[test]
fn hamband_and_msg_compute_the_same_counter() {
    let c = Counter::default();
    let hamband = final_value(System::Hamband, c.coord_spec());
    let msg = final_value(System::Msg, c.coord_spec());
    assert_eq!(hamband, msg, "hamband vs msg");
    assert_ne!(hamband, 0, "the workload actually did something");
}

#[test]
fn smr_converges_with_full_quota() {
    // Under the complete conflict relation the update quota is global
    // (consumed at the leader); the value differs from Hamband's
    // per-node streams but the count and convergence must not.
    let smr = final_value(System::Hamband, complete_coord());
    let again = final_value(System::Hamband, complete_coord());
    assert_eq!(smr, again, "SMR runs are deterministic");
}

/// The same equivalence through the measurement harness: acknowledged
/// update counts agree across systems for the same workload.
#[test]
fn harnessed_update_counts_agree() {
    let c = Counter::default();
    let coord = c.coord_spec();
    let rc = RunConfig::new(N, workload());
    let hb = Runner::new(System::Hamband, rc.clone()).run(&c, &coord).report;
    let smr = Runner::new(System::MuSmr, rc.clone()).run(&c, &coord).report;
    let msg = Runner::new(System::Msg, rc).run(&c, &coord).report;
    assert!(hb.converged && smr.converged && msg.converged);
    assert_eq!(hb.total_updates, smr.total_updates);
    assert_eq!(hb.total_updates, msg.total_updates);
    assert_eq!(hb.total_calls, msg.total_calls);
}
