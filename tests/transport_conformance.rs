//! Cross-backend transport conformance suite.
//!
//! The same `HambandNode` state machine runs over two transports
//! (simulator, threaded). For every row of the shipped-type registry,
//! each cluster size 3..=5, and both the unbatched (`max_batch` 1) and
//! the doorbell-batched (16) ring protocol, a run on either backend
//! must
//!
//! 1. **converge**: every replica ends with the same applied-call
//!    count, the same per-(node, method) applied map, and the same
//!    state snapshot;
//! 2. **commit before ack**: nothing was aborted, and every update
//!    acknowledged to a client session is applied on *every* replica
//!    (cluster-wide acked sum == each node's applied count) — an ack
//!    for an update some replica never applies is precisely the
//!    durability lie the protocol's commit rule exists to prevent.
//!
//! The threaded runs execute on real OS threads over shared atomic
//! memory, so under `-Zsanitizer=thread` this suite doubles as the
//! data-race gate for the `threaded` backend's word-level publication
//! discipline.
//!
//! Leadership failover is exercised on the simulator (the threaded
//! backend injects no faults): suspend the heartbeat of a group leader
//! mid-run and the survivors must elect a replacement and finish
//! without it.

mod common;

use std::time::Duration;

use hamband_core::coord::CoordSpec;
use hamband_core::counts::CountMap;
use hamband_core::object::WorkloadSupport;
use hamband_runtime::{
    assemble, HambandNode, RunConfig, RuntimeConfig, ThreadedCluster, WorkloadSpec,
};
use hamband_types::{Bank, Counter, Shipped, ShippedVisitor};
use rdma_sim::{Fault, FaultPlan, NodeId, SimDuration, SimTime, Simulator};

/// What the conformance checks need from one finished replica.
struct NodeObs<S> {
    applied: u64,
    map: CountMap,
    state: S,
    acked: u64,
    aborted: u64,
    status: String,
}

fn observe<O: WorkloadSupport>(node: &HambandNode<O>) -> NodeObs<O::State> {
    let sessions = node.session_stats();
    NodeObs {
        applied: node.applied_updates(),
        map: node.applied_map().clone(),
        state: node.state_snapshot(),
        acked: sessions.iter().map(|s| s.acked).sum(),
        aborted: sessions.iter().map(|s| s.aborted).sum(),
        status: node.status().to_string(),
    }
}

/// The two conformance properties over a converged, fault-free run.
fn check<S: PartialEq + std::fmt::Debug>(obs: &[NodeObs<S>], what: &str) {
    let cluster_acked: u64 = obs.iter().map(|o| o.acked).sum();
    assert!(cluster_acked > 0, "{what}: no update was ever acknowledged");
    for (i, o) in obs.iter().enumerate() {
        assert_eq!(
            o.applied, obs[0].applied,
            "{what}: node {i} applied-count diverges ({} | {})",
            o.status, obs[0].status
        );
        assert_eq!(o.map, obs[0].map, "{what}: node {i} applied map diverges");
        assert!(o.state == obs[0].state, "{what}: node {i} state snapshot diverges");
        assert_eq!(o.aborted, 0, "{what}: node {i} aborted updates in a fault-free run");
        assert_eq!(
            o.applied, cluster_acked,
            "{what}: node {i} applied {} updates but clients were acked {}",
            o.applied, cluster_acked
        );
    }
}

fn run_sim<O>(
    spec: &O,
    coord: &CoordSpec,
    n: usize,
    cfg: RuntimeConfig,
    workload: WorkloadSpec,
    what: &str,
) where
    O: WorkloadSupport + Clone,
{
    let run = RunConfig::new(n, workload).with_runtime(cfg);
    let (mut sim, _layout, _trace) = assemble(spec, coord, &run);
    let converged = |sim: &Simulator<HambandNode<O>>| {
        let first = sim.app(NodeId(0)).applied_map();
        (0..n).map(|i| sim.app(NodeId(i))).all(|a| a.workload_done() && a.applied_map() == first)
    };
    while !converged(&sim) && sim.now() < SimTime(500_000_000) {
        sim.run_for(SimDuration::micros(50));
    }
    assert!(
        converged(&sim),
        "{what}: simulator cluster did not converge: {}",
        (0..n).map(|i| sim.app(NodeId(i)).status().to_string()).collect::<Vec<_>>().join(" | "),
    );
    // Let trailing acks (commit-index and summary writes) land.
    sim.run_for(SimDuration::millis(1));
    let obs: Vec<_> = (0..n).map(|i| observe(sim.app(NodeId(i)))).collect();
    check(&obs, what);
}

fn run_threaded<O: Shipped>(
    spec: &O,
    coord: &CoordSpec,
    n: usize,
    cfg: RuntimeConfig,
    workload: WorkloadSpec,
    what: &str,
) {
    let mut cluster = ThreadedCluster::new(n, spec, coord, cfg, workload);
    assert!(
        cluster.run_to_convergence(Duration::from_secs(60)),
        "{what}: threaded cluster did not converge: {}",
        (0..n).map(|i| cluster.node(i).status().to_string()).collect::<Vec<_>>().join(" | "),
    );
    let obs: Vec<_> = (0..n).map(|i| observe(cluster.node(i))).collect();
    check(&obs, what);
}

/// One object across both backends, cluster sizes 3..=5, and the
/// unbatched and batched ring protocol.
fn conform<O: Shipped>(spec: &O, coord: &CoordSpec, name: &str) {
    for n in 3..=5 {
        for max_batch in [1, 16] {
            let cfg = RuntimeConfig::default().with_max_batch(max_batch);
            let workload = WorkloadSpec::ops(240).with_update_ratio(0.6).with_seed(90 + n as u64);
            let what = format!("{name}/n={n}/max_batch={max_batch}");
            run_sim(spec, coord, n, cfg.clone(), workload.clone(), &format!("{what}/sim"));
            run_threaded(spec, coord, n, cfg, workload, &format!("{what}/threaded"));
        }
    }
}

struct Conforms(fn(&str) -> bool);

impl ShippedVisitor for Conforms {
    fn visit<O: Shipped>(&mut self, name: &'static str, spec: &O, coord: &CoordSpec) {
        if (self.0)(name) {
            conform(spec, coord, name);
        }
    }
}

common::row_tests! {
    Conforms {
        counter_conforms_across_backends: "counter",
        bank_conforms_across_backends: "bank",
        orset_conforms_across_backends: "orset",
        _: every_other_row_conforms_across_backends,
    }
}

// ---- scenario tests: one type each, named on purpose (scripts/check.sh reads this line) ----

/// Multi-session ingress over both backends: flat-combining must not
/// change what clients were promised (ack ⇒ applied everywhere).
#[test]
fn sessions_conform_across_backends() {
    let c = Counter::default();
    let coord = c.coord_spec();
    let workload =
        WorkloadSpec::ops(400).with_update_ratio(0.5).with_sessions(40).with_seed(17);
    let cfg = RuntimeConfig::default();
    run_sim(&c, &coord, 3, cfg.clone(), workload.clone(), "counter-sessions/sim");
    run_threaded(&c, &coord, 3, cfg, workload, "counter-sessions/threaded");
}

/// Suspend a group leader's heartbeat mid-run: the survivors must
/// suspect it, elect a replacement, and finish the workload without
/// it (§5's failure-injection method).
#[test]
fn election_replaces_suspended_leader() {
    let b = Bank::default();
    let n = 3;
    let workload = WorkloadSpec::ops(300).with_update_ratio(0.8).with_seed(11);
    // Group 0's initial leader is node 0 (round-robin default);
    // leadership has established well before 50 us.
    let old = NodeId(0);
    let run = RunConfig::new(n, workload)
        .with_faults(FaultPlan::new().at(SimTime(50_000), Fault::SuspendHeartbeat(old)));
    let (mut sim, _layout, _trace) = assemble(&b, &b.coord_spec(), &run);
    sim.run_for(SimDuration::micros(40));
    assert_eq!(sim.app(NodeId(1)).leader_view(0).index(), old.index(), "node 0 leads at first");

    // Plenty of virtual time: suspicion, election, ring catch-up, and
    // the survivors' (plus the dead node's adopted) quota.
    let survivors: Vec<NodeId> = (0..n).map(NodeId).filter(|&id| id != old).collect();
    // (Until its detector fires a survivor still answers through the
    // old leader: finished means finished under the new one.)
    let finished = |sim: &Simulator<HambandNode<Bank>>| {
        let mut nodes = survivors.iter().map(|&id| sim.app(id));
        nodes.all(|a| a.workload_done() && a.leader_view(0).index() != old.index())
    };
    while !finished(&sim) && sim.now() < SimTime(200_000_000)
    {
        sim.run_for(SimDuration::micros(50));
    }
    sim.run_for(SimDuration::millis(1));

    for &id in &survivors {
        let node = sim.app(id);
        assert_ne!(
            node.leader_view(0).index(),
            old.index(),
            "{id:?} still believes the suspended leader leads group 0"
        );
        assert!(!node.is_halted(), "survivor {id:?} halted");
        assert!(node.workload_done(), "survivor {id:?} never finished: {}", node.status());
    }
    let first = sim.app(survivors[0]);
    for &id in &survivors[1..] {
        assert!(sim.app(id).state_snapshot() == first.state_snapshot(), "{id:?} state diverges");
        assert_eq!(sim.app(id).applied_map(), first.applied_map(), "{id:?} applied map diverges");
    }
}
