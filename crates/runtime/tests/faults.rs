//! Fault-path tests: reliable-broadcast recovery after a crash, the
//! canary protocol under torn writes, and failure detection timing.

use hamband_core::counts::DepMap;
use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_core::{CoordSpec, WorkloadSupport};
use hamband_runtime::codec::{slot_ready, Entry, SummarySlot};
use hamband_runtime::chaos::{run_case, ChaosOptions};
use hamband_runtime::config::POLL_INTERVAL;
use hamband_runtime::{
    assemble, drive, DurabilityMode, HambandNode, QuotaSplit, RunConfig, Runner, RuntimeConfig,
    System, TraceMode, WorkloadSpec,
};
use hamband_types::{Bank, Counter, Courseware, GSet};
use rdma_sim::{
    Fault, FaultPlan, NodeId, RingKind, SimDuration, SimTime, Simulator, TraceEvent, VerbKind,
};

/// Whether an `n`-node Counter cluster converges under `plan`: every
/// node left alive finished, and they agree on what was applied and on
/// the state.
fn counter_cluster_converges(n: usize, plan: FaultPlan) -> bool {
    let c = Counter::default();
    let workload = WorkloadSpec::ops(400).with_update_ratio(0.5).with_seed(0xfa01);
    let run = RunConfig::new(n, workload).with_seed(0xfa02).with_faults(plan);
    Runner::new(System::Hamband, run).run(&c, &c.coord_spec()).report.converged
}

/// Calls acknowledged across the cluster's `n` nodes, halted ones
/// included: what `RunReport::total_calls` counts.
fn calls_made<O: WorkloadSupport + Clone>(sim: &Simulator<HambandNode<O>>, n: usize) -> u64 {
    (0..n)
        .map(|i| {
            let m = &sim.app(NodeId(i)).metrics;
            m.updates_acked + m.queries
        })
        .sum()
}

/// A node crashes (fail-stop) with a pending conflict-free broadcast
/// sitting in its own copy of its `F` ring that never reached anyone.
/// The reliable broadcast's agreement half must kick in: the designated
/// recoverer reads that copy remotely and re-executes the writes, and
/// every alive node applies the rescued call.
#[test]
fn crash_recovery_delivers_pending_broadcast() {
    // Use the buffered GSet so calls flow through F rings.
    let g = GSet::default();
    let coord = g.coord_spec_buffered();
    let n = 3;
    // No client workload: we inject the pending broadcast by hand.
    let workload = WorkloadSpec::ops(0).with_update_ratio(0.5).with_seed(1);
    // Crash node 2 shortly after start.
    let plan = FaultPlan::new().at(SimTime(30_000), Fault::Crash(NodeId(2)));
    let run = RunConfig::new(n, workload).with_seed(7).with_faults(plan);
    let (mut sim, layout) = assemble(&g, &coord, &run);
    // Before the crash fires, plant a pending broadcast in node 2's own
    // ring copy: a conflict-free call (seq 1 in node 2's F rings) that
    // "was about to be written" but never went out — the crash window
    // between the issuer's local write and the remote writes.
    sim.run_for(SimDuration::micros(5));
    let entry = Entry {
        rid: Rid::new(Pid(2), 0),
        update: hamband_types::gset::GSetUpdate::AddAll(vec![42, 43]),
        deps: DepMap::empty(),
    };
    let slot = entry.to_slot(1, layout.entry_size());
    sim.with_app_ctx(NodeId(2), |_, ctx| {
        ctx.local_write(layout.free_rings, layout.free_slot_offset(NodeId(2), 1), &slot);
    });
    // Run long enough for the crash, suspicion, recovery read, and
    // rebroadcast to complete.
    sim.run_for(SimDuration::millis(2));
    assert!(sim.is_crashed(NodeId(2)));
    for i in 0..2 {
        let state = sim.app(NodeId(i)).state_snapshot();
        assert!(
            state.contains(&42) && state.contains(&43),
            "node {i} missed the rescued broadcast: {state:?}"
        );
    }
    let s0 = sim.app(NodeId(0)).state_snapshot();
    assert_eq!(sim.app(NodeId(1)).state_snapshot(), s0, "survivors agree");
}

/// A node crashes with a summary no peer has seen: only its own slot
/// holds it, as the issuer writes that slot before any remote copy
/// leaves. The writer stores only the used prefix, so the slot holds
/// the newest image over the tail of a longer, older one. Recovery
/// re-sends exactly the newest image to every survivor.
#[test]
fn a_summary_only_the_crashed_nodes_own_slot_holds_reaches_every_survivor() {
    use hamband_types::gset::GSetUpdate;
    let g = GSet::default();
    let coord = g.coord_spec();
    let workload = WorkloadSpec::ops(0).with_update_ratio(0.5).with_seed(1);
    let plan = FaultPlan::new().at(SimTime(30_000), Fault::Crash(NodeId(2)));
    let run = RunConfig::new(3, workload).with_seed(7).with_faults(plan);
    let (mut sim, layout) = assemble(&g, &coord, &run);
    sim.run_for(SimDuration::micros(5));
    let image = |version: u64, elems: Vec<u64>| {
        SummarySlot { version, counts: vec![version], summary: Some(GSetUpdate::AddAll(elems)) }
            .to_slot(layout.summary_size(0))
    };
    let stale = image(1, (100..140).collect());
    let fresh = image(2, vec![42, 43]);
    assert!(fresh.len() < stale.len());
    let off = layout.summary_offset(0, NodeId(2));
    sim.with_app_ctx(NodeId(2), |_, ctx| {
        ctx.local_write(layout.summaries, off, &stale);
        ctx.local_write(layout.summaries, off, &fresh);
    });
    sim.run_for(SimDuration::millis(2));
    assert!(sim.is_crashed(NodeId(2)));
    for i in 0..2 {
        let state = sim.app(NodeId(i)).state_snapshot();
        assert_eq!(
            state.iter().copied().collect::<Vec<u64>>(),
            vec![42, 43],
            "node {i} must see the short image only"
        );
    }
}

/// The issuer writes its own ring copy unfenced (the persist log is its
/// durable record), so a restart that loses unfenced writes rolls the
/// copy back. Rejoin writes the logged window into it again: a
/// recoverer that READs the node after a later crash finds every entry
/// it issued.
#[test]
fn a_restart_writes_the_logged_window_back_into_the_own_ring_copy() {
    let g = GSet::default();
    let coord = g.coord_spec_buffered();
    let node = NodeId(2);
    let restart_at = SimTime(60_000);
    let plan = FaultPlan::new()
        .at(SimTime(30_000), Fault::Crash(node))
        .at(restart_at, Fault::Restart(node, true));
    let workload = WorkloadSpec::ops(600).with_update_ratio(1.0).with_seed(3);
    let runtime = RuntimeConfig::default().with_durability(DurabilityMode::Fenced);
    let run = RunConfig::new(3, workload).with_seed(3).with_runtime(runtime).with_faults(plan);
    let (mut sim, layout) = assemble(&g, &coord, &run);
    sim.run_until(restart_at + SimDuration::nanos(1));
    // The replayed log counts the node's own entries, 1 to `issued`.
    let applied = sim.app(node).applied_map();
    let issued: u64 = (0..coord.method_count()).map(|m| applied.get(Pid(2), MethodId(m))).sum();
    assert!(issued > 0, "node 2 issued nothing before its crash");
    let ring = sim.region_bytes(node, layout.free_rings);
    for seq in 1..=issued {
        let slot = &ring[layout.free_slot_offset(node, seq)..][..layout.entry_size()];
        assert!(slot_ready(slot, seq), "entry {seq} of {issued} is missing from the own copy");
    }
}

/// The canary protocol under torn landings: with the fabric splitting
/// every write to one node, the cluster still converges to the same
/// state (no partially landed entry is ever consumed).
#[test]
fn torn_writes_do_not_corrupt_replication() {
    let plan = FaultPlan::new().at(SimTime::ZERO, Fault::TornWrites(NodeId(1)));
    assert!(counter_cluster_converges(3, plan), "diverged under torn writes");
}

/// Crash (not just heartbeat suspension) of a follower: survivors
/// converge among themselves.
#[test]
fn follower_crash_survivors_converge() {
    let plan = FaultPlan::new().at(SimTime(40_000), Fault::Crash(NodeId(3)));
    assert!(counter_cluster_converges(4, plan), "the survivors diverged");
}

/// The group leader's heartbeat stops mid-run (Fig. 13). The adopter
/// takes over the leader's unseen conflict-free quota and none of its
/// queries — the leader ran all of them in its first pump — and the new
/// leader serves the rest of the pooled conflicting quota, so the run
/// completes exactly its call budget: nothing lost, nothing run twice.
#[test]
fn leader_failure_completes_exactly_the_budget() {
    let c = Courseware::default();
    let total_ops = 1_536;
    let workload = WorkloadSpec::ops(total_ops).with_update_ratio(0.5).with_window(8).with_seed(1);
    let plan = FaultPlan::new().at(SimTime(150_000), Fault::SuspendHeartbeat(NodeId(0)));
    let run = RunConfig::new(4, workload).with_seed(1).with_faults(plan);
    let report = Runner::new(System::Hamband, run).run(&c, &c.coord_spec()).report;
    assert!(report.converged);
    assert!(report.completed_at > SimTime(150_000), "the fault must land mid-run");
    assert_eq!(report.total_calls, total_ops);
}

/// A follower's heartbeat stops while most of its updates are still to
/// come. It had run all its queries in its first pump, and its heartbeat
/// region says so: the adopter takes over none of them, and the cluster
/// runs exactly the queries its workload planned. An estimate from the
/// follower's update progress ran 160 of its 192 again.
#[test]
fn follower_failure_runs_exactly_the_planned_queries() {
    let c = Courseware::default();
    let coord = c.coord_spec();
    let (n, total_ops) = (4, 1_536);
    let workload = WorkloadSpec::ops(total_ops).with_update_ratio(0.5).with_window(8).with_seed(1);
    let fault_at = SimTime(30_000);
    let plan = FaultPlan::new().at(fault_at, Fault::SuspendHeartbeat(NodeId(2)));
    let run = RunConfig::new(n, workload.clone()).with_seed(1).with_faults(plan);
    let out = Runner::new(System::Hamband, run).run(&c, &coord);
    assert!(out.report.converged);
    assert!(out.report.completed_at > SimTime(200_000), "the fault must land early in the run");
    let planned: u64 = (0..n).map(|i| QuotaSplit::for_node(&workload, &coord, i, n).queries).sum();
    let ran: u64 = out.node_metrics.iter().map(|m| m.queries).sum();
    assert_eq!(ran, planned, "queries run against queries planned");
}

/// A suspicion reads fresh counts. A follower's heartbeat stops while
/// the node that adopts its quota still has workload of its own, and
/// nothing that node ran read the follower's landed summaries, so it
/// adopted none of the last ones. `on_suspect` must adopt every slot
/// before it counts what the follower left: from the stale counts it
/// would issue the follower's landed calls a second time. On Counter
/// every call is a summary. On Bank the openings are, and any entry
/// whose `Dep(u)` an unadopted opening holds up adopts every landed slot
/// on the way — a third node's deposits do that all the time — so the
/// Bank run has two nodes, and a fault instant at which the follower's
/// last calls were openings behind its last deposit.
fn suspicion_adopts_before_it_counts<O: WorkloadSupport + Clone>(
    spec: &O,
    coord: &CoordSpec,
    reducible: MethodId,
    n: usize,
    fault_at: SimTime,
) {
    // The follower, and the next node after it, which adopts its quota.
    let (suspect, adopter) = (NodeId(1), NodeId(2 % n));
    let workload = WorkloadSpec::ops(4_000).with_update_ratio(1.0).with_window(8).with_seed(1);
    let plan = FaultPlan::new().at(fault_at, Fault::SuspendHeartbeat(suspect));
    let run = RunConfig::new(n, workload.clone())
        .with_seed(1)
        .with_faults(plan)
        .with_trace(TraceMode::Collect);
    let (mut sim, _layout) = assemble(spec, coord, &run);
    let of_suspect = |sim: &Simulator<HambandNode<O>>, at: NodeId| {
        sim.app(at).applied_map().get(Pid(suspect.index()), reducible)
    };
    // Step until the adopter reacts to the suspicion, and look at what
    // it had adopted of the suspect just before.
    let adopted_before = loop {
        let before = of_suspect(&sim, adopter);
        sim.run_for(SimDuration::nanos(50));
        let reacted = sim.take_trace().iter().any(|r| {
            matches!(r.event, TraceEvent::FdSuspect { node, suspect: s } if node == adopter && s == suspect)
        });
        if reacted {
            break before;
        }
        assert!(sim.now() < SimTime(1_000_000), "{}: never suspected", spec.name());
    };
    let landed = of_suspect(&sim, suspect);
    assert!(
        adopted_before < landed,
        "{}: the adopter had adopted {adopted_before} of the suspect's {landed} calls",
        spec.name()
    );
    assert!(!sim.app(adopter).workload_done(), "the adopter still has workload");
    drive(&mut sim, run.max_time);
    let planned = QuotaSplit::planned(&workload, coord, n).0;
    let nodes = (0..n).map(|i| &sim.app(NodeId(i)).metrics);
    let (acked, forfeited) = nodes.fold((0, 0), |(a, f), m| (a + m.updates_acked, f + m.forfeited));
    assert_eq!(acked + forfeited, planned, "{}: acknowledged against planned", spec.name());
}

#[test]
fn a_suspicion_reads_fresh_counts() {
    let c = Counter::default();
    let add = hamband_types::counter::ADD;
    suspicion_adopts_before_it_counts(&c, &c.coord_spec(), add, 4, SimTime(30_000));
    let b = Bank::default();
    let open = hamband_types::bank::OPEN;
    suspicion_adopts_before_it_counts(&b, &b.coord_spec(), open, 2, SimTime(90_000));
}

/// A leader whose generator stays dry forfeits the rest of the
/// conflicting quota (`Account::new(20)`: balance 0, every deposit
/// folded). The verdict has to be the group's: with the lowered target
/// known to the leader alone, the followers waited for ever on calls
/// nobody would issue. No fault needed — the campaign shrank both
/// seeds to `FaultPlan::new()`.
#[test]
fn forfeited_conflicting_quota_ends_the_run_on_every_replica() {
    let a = hamband_types::Account::new(20);
    for seed in [62, 79] {
        let workload = WorkloadSpec::ops(300).with_update_ratio(0.5).with_seed(seed);
        let run = RunConfig::new(4, workload).with_seed(seed).with_max_time(SimTime(20_000_000));
        let report = Runner::new(System::Hamband, run).run(&a, &a.coord_spec()).report;
        assert!(report.converged, "seed {seed}: {report}");
    }
}

/// A plan that crashes every node leaves nobody to agree: the harness
/// reports the run as unconverged instead of failing on an empty
/// survivor list.
#[test]
fn all_nodes_crashed_is_unconverged() {
    let plan = (0..3)
        .fold(FaultPlan::new(), |plan, i| plan.at(SimTime(40_000), Fault::Crash(NodeId(i))));
    assert!(!counter_cluster_converges(3, plan));
}

/// The group leader crashes; the next-in-line candidate (node 1)
/// crashes too, while the failover it drives is still in flight (a
/// delay spike stretches its election reads). The survivors must
/// notice that the stuck candidate is gone, run a fresh election among
/// themselves, and still converge on the full surviving workload.
#[test]
fn leader_crash_during_election_reelects() {
    let plan = FaultPlan::new()
        .at(SimTime(40_000), Fault::Crash(NodeId(0)))
        .at(SimTime(55_000), Fault::DelaySpike(NodeId(1), 20, SimDuration::micros(30)))
        .at(SimTime(62_000), Fault::Crash(NodeId(1)));
    // Bank has a conflicting method, so group 0 actually runs
    // leader-based replication (Counter is reduce-only).
    let b = Bank::default();
    let workload = WorkloadSpec::ops(400).with_update_ratio(0.5).with_seed(0xfa03);
    let run = RunConfig::new(5, workload).with_seed(0xfa04).with_faults(plan);
    let (mut sim, _layout) = assemble(&b, &b.coord_spec(), &run);
    let (_, converged) = drive(&mut sim, run.max_time);
    assert!(converged, "the survivors diverged");
    assert!(sim.is_crashed(NodeId(0)) && sim.is_crashed(NodeId(1)));
    // Leadership moved past both crashed nodes to the lowest survivor.
    for i in 2..5 {
        assert_eq!(sim.app(NodeId(i)).leader_view(0), Pid(2), "node {i} leader view");
    }
}

/// The replica plans only when no event is parked waiting for its CPU
/// (DESIGN.md §5). The one parked event that never reaches a handler is
/// a message a partition takes out of the wait set — and if it was the
/// whole backlog, the plan skipped for it has nobody left to make it.
/// The poll timer does, within one `POLL_INTERVAL`.
///
/// Counter with its one method declared conflicting, so node 0 orders
/// every add through its log, one at a time (window 1). Node 0 spends
/// its first ~90 us on its query quota, so the poll timer, the two
/// completions of its first append and — last in line — a message from
/// node 2 all wait for its CPU; meanwhile a partition cuts node 0 from
/// node 2. The poll timer's pass goes first and plans nothing (three
/// events wait); as the leader has nothing committed past its reader,
/// it scans nothing and costs nothing. The first completion then
/// commits and acknowledges the call but does not plan (two events
/// wait) — and posts nothing, the commit index rides the next entry —
/// the second does not plan either (the message waits), and the
/// message's turn finds the partition and is held back until the heal.
#[test]
fn plan_skipped_for_a_partitioned_message_is_made_up_by_the_next_poll() {
    let c = Counter::default();
    let coord = CoordSpec::builder(1).conflict(0, 0).build();
    let total_ops = 1_800;
    let workload =
        WorkloadSpec::ops(total_ops).with_update_ratio(0.02).with_window(1).with_seed(3);
    let runtime = RuntimeConfig::default().with_window(1);
    let run = RunConfig::new(3, workload)
        .with_seed(3)
        .with_runtime(runtime)
        .with_trace(TraceMode::Collect);
    let (mut sim, _layout) = assemble(&c, &coord, &run);
    // An undecodable control message: ignored by its handler, but an
    // application-CPU event like any other. Arrives at ~35 us.
    sim.run_until(SimTime(10_000));
    sim.with_app_ctx(NodeId(2), |_, ctx| ctx.send(NodeId(0), vec![0xff]));
    // The query quota was charged to node 0's CPU at the start, and it
    // has not worked it off yet: everything since waits.
    sim.run_until(SimTime(40_000));
    assert!(sim.stats().cpu_busy_ns[0] > sim.now().0, "node 0 is no longer busy");
    assert_eq!(sim.app(NodeId(0)).metrics.updates_acked, 0, "the completions are still waiting");
    let heal_at = SimTime(400_000);
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(sim.now() + SimDuration::nanos(1), Fault::Partition(vec![NodeId(0)], vec![NodeId(2)]))
            .at(heal_at, Fault::Heal),
    );
    sim.run_until(SimTime(2_000_000));

    let events = sim.take_trace();
    let first_at = |what: &str, is: &dyn Fn(&TraceEvent) -> bool| {
        events.iter().find(|r| is(&r.event)).unwrap_or_else(|| panic!("node 0 never {what}")).at
    };
    let first_ack =
        first_at("acknowledges", &|e| matches!(e, TraceEvent::Ack { node: NodeId(0), .. }));
    let second_issue = first_at("issues its second call", &|e| {
        matches!(e, TraceEvent::RingAppend { ring: RingKind::Conf, writer: NodeId(0), seq: 2, .. })
    });
    let own_apply = first_at("applies its first entry", &|e| {
        matches!(e, TraceEvent::RingApply { ring: RingKind::Conf, reader: NodeId(0), seq: 1, .. })
    });
    assert!(second_issue > first_ack, "the committing completion must not plan: two events wait");
    assert!(
        second_issue <= first_ack + POLL_INTERVAL,
        "the next poll plans: ack at {first_ack}, next call at {second_issue}"
    );
    assert!(second_issue < heal_at, "and not the message, which arrives with the heal");
    // It was a poll that planned: the same handler applied the leader's
    // own first entry, which only a traversal does.
    assert_eq!(own_apply, second_issue, "the call was planned by the poll that applied seq 1");
    assert_eq!(calls_made(&sim, 3), total_ops, "the run completes exactly its budget");
    let s0 = sim.app(NodeId(0)).state_snapshot();
    for i in 1..3 {
        assert_eq!(sim.app(NodeId(i)).state_snapshot(), s0, "node {i} diverged");
    }
}

/// Summary WRITEs leave from the pump's flush (DESIGN.md §5a), and a
/// suspended node no longer plans — but what it folded before the fault
/// still waits for a WRITE, so its pump must keep flushing. Without
/// that, a call folded in while its channel was busy is never shipped:
/// the completion frees the channel, nothing reposts, and the call
/// stays outstanding for ever.
///
/// Bank on three nodes, every call an update: a follower's `open` calls
/// ride the summary channel and its `deposit`s the rings, and with its
/// CPU mostly idle each completion is followed by a plan, so an `open`
/// now and then finds a channel busy. The first follower seen in that
/// state has its heartbeat suspended at that instant — found from the
/// trace: a summary WRITE that has not completed at the fabric carries an
/// older version than the node's summary has reached.
#[test]
fn suspended_node_still_drains_its_summary_channels() {
    use hamband_types::bank::OPEN;
    let b = Bank::default();
    let n = 3;
    let total_ops = 2_400;
    let workload = WorkloadSpec::ops(total_ops).with_update_ratio(1.0).with_window(8).with_seed(1);
    let run = RunConfig::new(n, workload).with_seed(1).with_trace(TraceMode::Collect);
    let (mut sim, _layout) = assemble(&b, &b.coord_spec(), &run);
    // Per (node, peer): the (work request, version) of the node's summary
    // WRITE in flight there. `post_write` traces the verb, then the
    // replica labels it a summary write.
    let mut last_write = vec![vec![None; n]; n];
    let mut in_flight: Vec<Vec<Option<(rdma_sim::WrId, u64)>>> = vec![vec![None; n]; n];
    sim.run_until(SimTime(60_000));
    let victim = loop {
        sim.run_for(SimDuration::nanos(20));
        for r in sim.take_trace() {
            match r.event {
                TraceEvent::VerbPosted { issuer, kind: VerbKind::Write, target, wr, .. } => {
                    last_write[issuer.index()][target.index()] = Some(wr);
                }
                TraceEvent::SummaryWrite { issuer, target, version, .. } => {
                    let (i, t) = (issuer.index(), target.index());
                    let wr = last_write[i][t].expect("posted just before");
                    in_flight[i][t] = Some((wr, version));
                }
                TraceEvent::VerbCompleted { issuer, wr, .. } => {
                    let chans = in_flight[issuer.index()].iter_mut();
                    for chan in chans.filter(|c| c.is_some_and(|(w, _)| w == wr)) {
                        *chan = None;
                    }
                }
                _ => {}
            }
        }
        // One reducible method, so the summary version is its count.
        let busy = (1..n).map(NodeId).find(|&v| {
            let own_version = sim.app(v).applied_map().get(Pid(v.index()), OPEN);
            in_flight[v.index()].iter().flatten().any(|&(_, version)| version < own_version)
        });
        if let Some(v) = busy {
            break v;
        }
        assert!(sim.now() < SimTime(1_000_000), "no busy channel ever had a later waiter");
    };
    sim.install_fault_plan(
        &FaultPlan::new().at(sim.now() + SimDuration::nanos(1), Fault::SuspendHeartbeat(victim)),
    );
    // The plan installed just now counts: not settled before it fires.
    drive(&mut sim, run.max_time);
    assert!(sim.app(victim).is_halted(), "the fault landed");
    assert_eq!(
        sim.app(victim).status().outstanding,
        0,
        "every call the suspended node folded in was shipped and acknowledged"
    );
    assert_eq!(calls_made(&sim, n), total_ops, "the run completes exactly its budget");
    let survivor = (1..n).map(NodeId).find(|&v| v != victim).expect("three nodes");
    assert_eq!(
        sim.app(survivor).state_snapshot(),
        sim.app(NodeId(0)).state_snapshot(),
        "the survivors diverged"
    );
}

/// A shrunk campaign schedule, replayed the way the campaign ran it.
fn replays_clean<O: hamband_types::Shipped>(
    spec: &O,
    coord: &CoordSpec,
    seed: u64,
    shards: usize,
    plan: &FaultPlan,
) {
    let opts = ChaosOptions { nodes: 5, ops: 400, sync_shards: shards, ..ChaosOptions::default() };
    let case = run_case(spec, coord, seed, plan, &opts);
    assert!(case.passed(), "{}, seed {seed}: {:?}", spec.name(), case.violations);
}

/// Two leader failures in a row. Node 1 starts the election for node
/// 0's group, collects the promises of nodes 3 and 4 at epoch 2, and
/// crashes before winning; node 2, next in line, asks for epoch 2 as
/// well and is never answered — a peer cannot grant an epoch twice and
/// says nothing when it cannot grant. Its candidacy has to be run again
/// one epoch up.
#[test]
fn candidacy_lost_to_a_dead_rival_is_run_again() {
    let plan = FaultPlan::new()
        .at(SimTime(78_580), Fault::SuspendHeartbeat(NodeId(0)))
        .at(SimTime(108_053), Fault::Crash(NodeId(1)));
    let m = hamband_types::Movie::default();
    replays_clean(&m, &m.coord_spec(), 554, 1, &plan);
}

/// A delay spike makes node 1 start a second election for a shard at
/// the epoch node 0 is already winning it at. Node 1 loses, accepts
/// node 0's announcement — and used to stay a `Candidate`, which never
/// finishes its workload and, once node 0 fails in turn, is skipped as
/// "already running" by the very rule that should start the next
/// election.
#[test]
fn candidate_that_lost_stands_down_and_can_run_later() {
    let plan = FaultPlan::new()
        .at(SimTime(22_737), Fault::DelaySpike(NodeId(1), 13, SimDuration(32_000)))
        .at(SimTime(22_997), Fault::Crash(NodeId(2)))
        .at(SimTime(69_179), Fault::SuspendHeartbeat(NodeId(0)));
    let c = Courseware::default();
    replays_clean(&c, &c.coord_spec(), 571, 4, &plan);
    let p = hamband_types::Project::default();
    replays_clean(&p, &p.coord_spec(), 571, 4, &plan);
}

/// Beyond the three families, found by the widened four-node campaign
/// (Bank, seed 738): node 0 crashes with summary versions 9–13 pending
/// — a partition held its WRITEs to node 1. Recovery once re-executed
/// them from per-call backup slots in slot order, leaving version 11 on
/// top of 13, and node 1 waited for ever on deposits that depend on the
/// two accounts it never saw opened. It now re-sends node 0's own
/// slot, which holds version 13 alone.
#[test]
fn recovery_reexecutes_only_the_newest_pending_summary() {
    let plan = FaultPlan::new()
        .at(
            SimTime(29_188),
            Fault::Partition(vec![NodeId(1)], vec![NodeId(0), NodeId(2), NodeId(3)]),
        )
        .at(SimTime(43_775), Fault::Crash(NodeId(0)))
        .at(SimTime(64_188), Fault::Heal);
    let b = Bank::default();
    let case = run_case(&b, &b.coord_spec(), 738, &plan, &ChaosOptions::default());
    assert!(case.passed(), "{:?}", case.violations);
}

/// Also beyond them (Courseware, five nodes, `--restarts`, seed 1390):
/// node 3 rejoins while node 1's candidacy is in flight, and node 1
/// answered its `JoinRequest` with its own candidacy's epoch beside the
/// old leader's name. Node 3 passed the pair on to node 0 when that
/// rejoined in turn, which then followed itself at an epoch it never
/// led. Nothing objected until the harness began to ask, before it
/// declares a run done, that every followed node be leading.
#[test]
fn candidate_answers_no_join_request() {
    let plan = FaultPlan::new()
        .at(SimTime(25_728), Fault::TornWrites(NodeId(2)))
        .at(
            SimTime(28_433),
            Fault::Partition(vec![NodeId(1)], vec![NodeId(0), NodeId(2), NodeId(3), NodeId(4)]),
        )
        .at(SimTime(59_433), Fault::Heal)
        .at(SimTime(75_595), Fault::Crash(NodeId(3)))
        .at(SimTime(99_499), Fault::Crash(NodeId(0)))
        .at(SimTime(115_595), Fault::Restart(NodeId(3), true))
        .at(SimTime(153_499), Fault::Restart(NodeId(0), false));
    let c = Courseware::default();
    replays_clean(&c, &c.coord_spec(), 1390, 1, &plan);
}

/// Movie, five nodes, seed 1658 of the `--restarts` campaign. Node 0's
/// suspension hands group 0 to node 1, and a delay spike holds node 3
/// back while a majority commits the group's entries up to 100 without
/// it. When node 1 is suspended in turn, node 2's takeover re-sent only
/// what lay above the adopted commit, nobody was left to send node 3
/// the entries past its 40th, and it stopped applying group 0 there.
/// The takeover now re-sends from the shortest log the election counted.
#[test]
fn a_takeover_resends_committed_entries_a_follower_lacks() {
    let plan = FaultPlan::new()
        .at(SimTime(22_042), Fault::SuspendHeartbeat(NodeId(0)))
        .at(SimTime(50_042), Fault::DelaySpike(NodeId(3), 5, SimDuration::micros(10)))
        .at(SimTime(90_947), Fault::DelaySpike(NodeId(0), 15, SimDuration::micros(42)))
        .at(SimTime(117_705), Fault::SuspendHeartbeat(NodeId(1)));
    let m = hamband_types::Movie::default();
    replays_clean(&m, &m.coord_spec(), 1658, 1, &plan);
}

/// Movie, five nodes, seed 1295, shrunk to its two suspensions. Node
/// 1's heartbeat stops; node 0, next in line, stands for node 1's group
/// at ≈ 50 us and is itself suspended at 56.9 us, its candidacy in
/// flight. The promises still arrive, and the halted node won and
/// announced at 102.5 us: the group was led by a node that issues
/// nothing until node 2 replaced it two detection periods later. The
/// run converges either way, so only the trace shows it.
#[test]
fn node_halted_mid_candidacy_does_not_win() {
    let halts = [(SimTime(23_805), NodeId(1)), (SimTime(56_864), NodeId(0))];
    let plan = halts
        .iter()
        .fold(FaultPlan::new(), |plan, &(at, node)| plan.at(at, Fault::SuspendHeartbeat(node)));
    let m = hamband_types::Movie::default();
    let workload = WorkloadSpec::ops(400).with_update_ratio(0.5).with_seed(1295);
    let run = RunConfig::new(5, workload)
        .with_seed(1295)
        .with_faults(plan)
        .with_trace(TraceMode::Collect);
    let out = Runner::new(System::Hamband, run).run(&m, &m.coord_spec());
    assert!(out.report.converged);
    let mut changes = 0;
    for r in &out.events {
        let TraceEvent::LeaderChange { group, leader, .. } = r.event else { continue };
        changes += 1;
        let halted = halts.iter().any(|&(at, node)| node == leader && at < r.at);
        assert!(!halted, "halted {leader:?} became leader of group {group} at {}", r.at);
    }
    assert!(changes >= 2, "both suspended leaders were replaced");
}
