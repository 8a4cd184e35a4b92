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

use hamband_core::coord::CoordSpec;
use hamband_runtime::{
    assemble, drive, Backend, NodeEndState, RunConfig, Runner, RuntimeConfig, System, WorkloadSpec,
};
use hamband_types::{Bank, Counter, Shipped, ShippedVisitor};
use rdma_sim::{Fault, FaultPlan, NodeId, SimDuration, SimTime};

/// The two conformance properties over a converged, fault-free run.
fn check<S: PartialEq>(nodes: &[NodeEndState<S>], what: &str) {
    let acked = |o: &NodeEndState<S>| o.sessions.iter().map(|s| s.acked).sum::<u64>();
    let cluster_acked: u64 = nodes.iter().map(acked).sum();
    assert!(cluster_acked > 0, "{what}: no update was ever acknowledged");
    for (i, o) in nodes.iter().enumerate() {
        assert_eq!(
            o.applied, nodes[0].applied,
            "{what}: node {i} applied map diverges ({} | {})",
            o.status, nodes[0].status
        );
        assert!(o.state == nodes[0].state, "{what}: node {i} state snapshot diverges");
        let aborted: u64 = o.sessions.iter().map(|s| s.aborted).sum();
        assert_eq!(aborted, 0, "{what}: node {i} aborted updates in a fault-free run");
        assert_eq!(
            o.applied.total(),
            cluster_acked,
            "{what}: node {i} applied {} updates but clients were acked {}",
            o.applied.total(),
            cluster_acked
        );
    }
}

/// Run the cluster on `backend` and hold its end states to [`check`].
fn run_on<O: Shipped>(
    backend: Backend,
    spec: &O,
    coord: &CoordSpec,
    n: usize,
    cfg: RuntimeConfig,
    workload: WorkloadSpec,
    what: &str,
) {
    let what = format!("{what}/{}", backend.label());
    // The cap is wall-clock on the threaded backend: a minute.
    let run = RunConfig::new(n, workload)
        .with_runtime(cfg)
        .with_backend(backend)
        .with_max_time(SimTime(60_000_000_000));
    let (outcome, nodes) = Runner::new(System::Hamband, run).run_with_states(spec, coord);
    assert!(
        outcome.report.converged,
        "{what}: cluster did not converge: {}",
        nodes.iter().map(|o| o.status.as_str()).collect::<Vec<_>>().join(" | "),
    );
    check(&nodes, &what);
}

/// One object across both backends, cluster sizes 3..=5, and the
/// unbatched and batched ring protocol.
fn conform<O: Shipped>(spec: &O, coord: &CoordSpec, name: &str) {
    for n in 3..=5 {
        for max_batch in [1, 16] {
            let cfg = RuntimeConfig::default().with_max_batch(max_batch);
            let workload = WorkloadSpec::ops(240).with_update_ratio(0.6).with_seed(90 + n as u64);
            let what = format!("{name}/n={n}/max_batch={max_batch}");
            for backend in [Backend::Sim, Backend::Threaded] {
                run_on(backend, spec, coord, n, cfg.clone(), workload.clone(), &what);
            }
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
    let workload = WorkloadSpec::ops(400).with_update_ratio(0.5).with_sessions(40).with_seed(17);
    for backend in [Backend::Sim, Backend::Threaded] {
        let cfg = RuntimeConfig::default();
        run_on(backend, &c, &coord, 3, cfg, workload.clone(), "counter-sessions");
    }
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
    let (mut sim, _layout) = assemble(&b, &b.coord_spec(), &run);
    sim.run_for(SimDuration::micros(40));
    assert_eq!(sim.app(NodeId(1)).leader_view(0).index(), old.index(), "node 0 leads at first");

    // Suspicion, election, ring catch-up, and the survivors' (plus the
    // dead node's adopted) quota. Until its detector fires a survivor
    // still answers through the old leader: `drive` waits for finished
    // under the new one.
    let (_, converged) = drive(&mut sim, run.max_time);
    assert!(converged, "the survivors did not finish and agree");
    for id in (0..n).map(NodeId).filter(|&id| id != old) {
        let node = sim.app(id);
        assert_ne!(
            node.leader_view(0).index(),
            old.index(),
            "{id:?} still believes the suspended leader leads group 0"
        );
        assert!(!node.is_halted(), "survivor {id:?} halted");
    }
}
