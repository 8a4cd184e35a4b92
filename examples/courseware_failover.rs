//! Leader failover, end to end: a 4-node courseware cluster whose
//! synchronization-group leader is failed mid-run (the paper's §5
//! failure injection: suspending the heartbeat thread). A new leader is
//! elected through the Mu-style permission hand-off, takes over the
//! `L` ring, and finishes the conflicting workload; every node —
//! including the deposed leader — converges.
//!
//! ```sh
//! cargo run --example courseware_failover
//! ```

use hamband::core::ids::Pid;
use hamband::runtime::{assemble, settled, RunConfig, WorkloadSpec};
use hamband::sim::{Fault, FaultPlan, NodeId, SimDuration, SimTime};
use hamband::types::Courseware;

fn main() {
    let courseware = Courseware::default();
    let n = 4;
    let workload = WorkloadSpec::ops(3_000).with_update_ratio(0.5).with_seed(7);
    // Fail the leader 300 us in.
    let run = RunConfig::new(n, workload)
        .with_seed(42)
        .with_faults(FaultPlan::new().at(SimTime(300_000), Fault::SuspendHeartbeat(NodeId(0))));
    let (mut sim, _layout) = assemble(&courseware, &courseware.coord_spec(), &run);
    println!("initial leader of the course group: {}", sim.app(NodeId(1)).leader_view(0));

    let mut failover_seen = false;
    // `settled` knows that a follower answers for the conflicting quota
    // only through its leader, and waits for the successor.
    while !settled(&sim) {
        sim.run_for(SimDuration::micros(25));
        let view = sim.app(NodeId(1)).leader_view(0);
        if !failover_seen && view != Pid(0) {
            println!("t={}: node 1 now recognizes {} as leader (election done)", sim.now(), view);
            failover_seen = true;
        }
        assert!(sim.now() < run.max_time, "the survivors never settled");
    }
    println!("t={}: workload complete", sim.now());
    sim.run_for(SimDuration::millis(1));

    assert!(failover_seen, "a new leader must have been elected");
    let reference = sim.app(NodeId(1)).state_snapshot();
    for i in 0..n {
        let app = sim.app(NodeId(i));
        println!(
            "node {i}: applied {} updates, halted={}, state matches new leader: {}",
            app.applied_updates(),
            app.is_halted(),
            app.state_snapshot() == reference
        );
        assert_eq!(app.state_snapshot(), reference, "node {i} diverged");
    }
    println!("all nodes converged across the failover, deposed leader included");
}
