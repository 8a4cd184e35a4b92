//! Regression test for leader failover: after the group leader's
//! heartbeat is suspended, a new leader must take over the ring,
//! consume the remaining conflicting quota, and *every* node — the
//! deposed leader included — must apply the full update workload.
//! (Run with `--nocapture` to see the per-node status trail.)

use hamband_core::ids::Pid;
use hamband_runtime::{assemble, settled, RunConfig, WorkloadSpec};
use hamband_types::Courseware;
use rdma_sim::{Fault, FaultPlan, NodeId, SimDuration, SimTime};

#[test]
fn leader_failure_trace() {
    let cw = Courseware::default();
    let n = 4;
    let run = RunConfig::new(n, WorkloadSpec::ops(600).with_update_ratio(0.5))
        .with_faults(FaultPlan::new().at(SimTime(60_000), Fault::SuspendHeartbeat(NodeId(0))));
    let (mut sim, _layout) = assemble(&cw, &cw.coord_spec(), &run);
    for step in 0.. {
        sim.run_for(SimDuration::micros(50));
        if step % 4 == 0 {
            println!("--- t={} ---", sim.now());
            for i in 0..n {
                println!("{}", sim.app(NodeId(i)).status());
            }
        }
        if settled(&sim) {
            println!("done at {}", sim.now());
            break;
        }
        assert!(sim.now() < SimTime(3_000_000), "the survivors never settled");
    }
    // Let in-flight commit-index writes and summary writes settle.
    sim.run_for(SimDuration::micros(500));
    for i in 0..n {
        println!("final: {}", sim.app(NodeId(i)).status());
    }
    // 300 updates total; all nodes, including the suspended old leader
    // n0 (which keeps applying), must have applied every one.
    for i in 0..n {
        assert_eq!(
            sim.app(NodeId(i)).applied_updates(),
            300,
            "node {i} missed updates: {}",
            sim.app(NodeId(i)).status()
        );
    }
    // New leader is node 1 everywhere.
    for i in 0..n {
        assert_eq!(sim.app(NodeId(i)).leader_view(0), Pid(1));
    }
    let s1 = sim.app(NodeId(1)).state_snapshot();
    for i in 0..n {
        assert_eq!(sim.app(NodeId(i)).state_snapshot(), s1, "node {i} diverged");
    }
}
