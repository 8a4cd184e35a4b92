//! Properties of the structured trace and the metric accounting:
//! commit ordering is observable in the event stream, and the latency
//! histograms account for exactly the acknowledged calls.

use hamband_core::demo::Account;
use hamband_runtime::{
    Backend, Phase, RunConfig, Runner, System, TraceEvent, TraceMode, WorkloadSpec,
};
use hamband_types::{Bank, Counter};
use rdma_sim::{NodeId, SimTime, VerbKind};

/// Every acknowledged conflicting update is covered by a
/// `CommitAdvance` earlier in the trace: the acking node advanced its
/// commit index past the call's ring seq before acking the client.
/// A node acknowledges a group's calls in ring order. Both backends:
/// the threaded one merges its per-thread traces by wall time, which
/// keeps each node's own order, and both events are the acking node's.
#[test]
fn conf_acks_follow_commit_advance() {
    for backend in [Backend::Sim, Backend::Threaded] {
        let a = Account::new(100);
        let mut config = RunConfig::for_nodes(3)
            .with_workload(WorkloadSpec::ops(600).with_update_ratio(0.5))
            .with_backend(backend)
            .with_trace(TraceMode::Collect);
        if backend == Backend::Threaded {
            // A wall-clock cap there.
            config = config.with_max_time(SimTime(30_000_000_000));
        }
        let outcome = Runner::new(System::Hamband, config).run(&a, &a.coord_spec());
        let label = backend.label();
        assert!(outcome.report.converged, "{label}: {}", outcome.report);
        assert!(!outcome.events.is_empty(), "{label}: collect mode must record events");

        let mut conf_acks = 0usize;
        let mut last_acked = std::collections::HashMap::new();
        for (i, rec) in outcome.events.iter().enumerate() {
            let TraceEvent::Ack { node, phase: Phase::Conf, group: Some(g), seq: Some(s), .. } =
                rec.event
            else {
                continue;
            };
            conf_acks += 1;
            if let Some(prev) = last_acked.insert((node, g), s) {
                assert!(
                    prev < s,
                    "{label}: node {node:?} acked seq {s} of group {g} after seq {prev}"
                );
            }
            let committed = outcome.events[..i].iter().any(|earlier| {
                matches!(
                    earlier.event,
                    TraceEvent::CommitAdvance { node: n, group, commit }
                        if n == node && group == g && commit >= s
                )
            });
            assert!(
                committed,
                "{label}: ack of seq {s} in group {g} on node {node:?} (event {i}) \
                 has no earlier CommitAdvance covering it"
            );
        }
        assert!(conf_acks > 0, "{label}: the account workload must exercise the CONF path");
    }
}

/// A commit index rides the next entry the leader appends, so a busy
/// leader's commits cost it no WRITE: its 8-byte WRITEs — the
/// commit-cell round, the only ones that size — stay under 1 % of its
/// commit advances (before, one round of n - 1 per advance or two).
#[test]
fn a_saturated_leader_writes_almost_no_commit_cells() {
    let b = Bank::default();
    let workload = WorkloadSpec::ops(8_000).with_update_ratio(0.5).with_sessions(8).with_window(8);
    let config = RunConfig::for_nodes(4).with_workload(workload).with_trace(TraceMode::Collect);
    let outcome = Runner::new(System::Hamband, config).run(&b, &b.coord_spec());
    assert!(outcome.report.converged, "{}", outcome.report);
    let count =
        |is: &dyn Fn(&TraceEvent) -> bool| outcome.events.iter().filter(|r| is(&r.event)).count();
    let advances = count(&|e| matches!(e, TraceEvent::CommitAdvance { node: NodeId(0), .. }));
    let cell_writes = count(&|e| {
        matches!(
            e,
            TraceEvent::VerbPosted { issuer: NodeId(0), kind: VerbKind::Write, bytes: 8, .. }
        )
    });
    assert!(advances >= 1_000, "the run must commit in earnest, got {advances} advances");
    assert!(
        cell_writes * 100 < advances,
        "{cell_writes} commit-cell WRITEs for {advances} commit advances"
    );
}

/// The overall latency histogram of each node holds exactly one sample
/// per acknowledged call (updates and queries alike) — nothing dropped,
/// nothing double-counted.
#[test]
fn histograms_account_for_every_ack() {
    for system in [System::Hamband, System::Msg] {
        let c = Counter::default();
        let config =
            RunConfig::for_nodes(3).with_workload(WorkloadSpec::ops(400).with_update_ratio(0.5));
        let outcome = Runner::new(system, config).run(&c, &c.coord_spec());
        assert!(outcome.report.converged, "{}", outcome.report);
        for (i, m) in outcome.node_metrics.iter().enumerate() {
            assert_eq!(
                m.rt.count(),
                m.updates_acked + m.queries,
                "node {i} of {} histogram vs counters",
                system.label()
            );
            let phase_total: u64 =
                Phase::ALL.iter().map(|p| m.rt_per_phase[p.index()].count()).sum();
            assert_eq!(phase_total, m.rt.count(), "node {i} phase split sums to total");
            let method_total: u64 = m.rt_per_method.iter().map(|&(count, _)| count).sum();
            assert_eq!(method_total, m.updates_acked, "node {i} method split sums to its acks");
        }
    }
}

/// Trace collection must not change the run itself: same seed, same
/// workload, identical report and fabric counters with tracing off and
/// on.
#[test]
fn tracing_does_not_perturb_the_run() {
    let a = Account::new(100);
    let base = RunConfig::for_nodes(3)
        .with_workload(WorkloadSpec::ops(300).with_update_ratio(0.5))
        .with_seed(11);
    let quiet = Runner::new(System::Hamband, base.clone()).run(&a, &a.coord_spec());
    let traced =
        Runner::new(System::Hamband, base.with_trace(TraceMode::Collect)).run(&a, &a.coord_spec());
    assert_eq!(quiet.report, traced.report);
    assert_eq!(quiet.stats, traced.stats);
    assert!(quiet.events.is_empty() && !traced.events.is_empty());
}
