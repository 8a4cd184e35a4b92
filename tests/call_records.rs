//! A call in flight is one record: between every short slice of a run
//! with a fault in it, each node's `NodeStatus::outstanding` (its calls
//! waiting to return) equals what its client sessions count as issued
//! and neither acknowledged nor aborted.

use hamband_runtime::{
    assemble, settled, DurabilityMode, HambandNode, RunConfig, RuntimeConfig, WorkloadSpec,
};
use hamband_types::{Bank, Courseware};
use rdma_sim::{Fault, FaultPlan, NodeId, SimDuration, SimTime, Simulator};

/// Step `sim` in 2 µs slices until it settles; between slices every
/// node's outstanding calls are exactly its sessions' open ones.
fn step_checking_records<O: hamband_core::object::WorkloadSupport + Clone>(
    sim: &mut Simulator<HambandNode<O>>,
    max_time: SimTime,
) {
    while !settled(sim) {
        assert!(sim.now() < max_time, "the run never settled");
        sim.run_for(SimDuration::micros(2));
        for i in 0..sim.len() {
            let app = sim.app(NodeId(i));
            let open: u64 =
                app.session_stats().iter().map(|s| s.issued - s.acked - s.aborted).sum();
            assert_eq!(app.status().outstanding as u64, open, "node {i} at {:?}", sim.now());
        }
    }
}

/// Courseware's leader stops beating mid-run; the survivors elect a
/// successor and finish.
#[test]
fn one_record_per_call_through_a_leader_failure() {
    let c = Courseware::default();
    let workload = WorkloadSpec::ops(1_536).with_update_ratio(0.5).with_window(8).with_seed(1);
    let plan = FaultPlan::new().at(SimTime(150_000), Fault::SuspendHeartbeat(NodeId(0)));
    let run = RunConfig::new(4, workload).with_seed(1).with_faults(plan);
    let (mut sim, _layout) = assemble(&c, &c.coord_spec(), &run);
    step_checking_records(&mut sim, run.max_time);
    assert!((1..4).all(|q| sim.app(NodeId(q)).leader_view(0).index() != 0));
}

/// A Bank follower crashes and restarts from its persist log.
#[test]
fn one_record_per_call_through_a_crash_and_restart() {
    let bank = Bank::default();
    let victim = NodeId(2);
    let plan = FaultPlan::new()
        .at(SimTime(60_000), Fault::Crash(victim))
        .at(SimTime(120_000), Fault::Restart(victim, true));
    let workload = WorkloadSpec::ops(1_200).with_update_ratio(0.8).with_seed(3);
    let runtime = RuntimeConfig::default().with_durability(DurabilityMode::Fenced);
    let run = RunConfig::new(4, workload).with_seed(3).with_runtime(runtime).with_faults(plan);
    let (mut sim, _layout) = assemble(&bank, &bank.coord_spec(), &run);
    step_checking_records(&mut sim, run.max_time);
    assert!(sim.now() > SimTime(120_000), "the node restarted mid-run");
}
