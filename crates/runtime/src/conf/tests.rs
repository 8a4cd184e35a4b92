//! Unit tests of the CONF path: commit distribution on hand-stepped
//! clusters, the check view across a deposition, and the `GroupEngine`
//! role machine in isolation (a child module, for the private engine
//! state they set up and read).

use super::*;
use crate::driver::WorkloadSpec;
use crate::harness::{assemble, RunConfig, TraceMode};
use crate::layout::Layout;
use hamband_core::coord::CoordSpec;
use hamband_core::ids::GroupId;
use hamband_types::bank::{Bank, BankUpdate};
use hamband_types::Counter;
use rdma_sim::{RegionId, SimTime, Simulator, TraceRecord, VerbKind};

type Cluster = Simulator<HambandNode<Counter>>;

/// `nodes` nodes, Counter with its one method declared conflicting:
/// every add of the run is ordered through node 0's log, `window`
/// at a time. Traced.
pub(crate) fn ordered_counter(nodes: usize, ops: u64, window: usize, seed: u64) -> (Cluster, Layout) {
    let coord = CoordSpec::builder(1).conflict(0, 0).build();
    let workload =
        WorkloadSpec::ops(ops).with_update_ratio(1.0).with_window(window).with_seed(seed);
    let run = RunConfig::new(nodes, workload).with_seed(seed).with_trace(TraceMode::Collect);
    assemble(&Counter::default(), &coord, &run)
}

fn commit_cell(sim: &Cluster, layout: &Layout, node: usize) -> u64 {
    let at = layout.conf_commit_offset();
    let cell = &sim.region_bytes(NodeId(node), layout.conf[0])[at..at + 8];
    u64::from_le_bytes(cell.try_into().expect("8 bytes"))
}

/// The leader's commit-cell WRITEs: the only 8-byte WRITEs it posts.
fn cell_writes(events: &[TraceRecord]) -> Vec<SimTime> {
    events
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::VerbPosted { issuer: NodeId(0), kind: VerbKind::Write, bytes: 8, .. }
            )
        })
        .map(|r| r.at)
        .collect()
}

/// One call at a time: entry k + 1 is appended once k committed and
/// carries that index, and nothing else tells the followers.
#[test]
fn a_follower_applies_seq_k_once_seq_k_plus_one_landed_cells_untouched() {
    let (mut sim, layout) = ordered_counter(3, 300, 1, 5);
    while (1..3).any(|f| sim.app(NodeId(f)).engines[0].reader.applied() < 20) {
        sim.run_for(SimDuration::nanos(200));
        assert!(sim.now() < SimTime(1_000_000), "the followers never applied 20 entries");
        for f in 1..3 {
            assert_eq!(commit_cell(&sim, &layout, f), 0, "node {f}'s commit cell was written");
        }
    }
    let events = sim.take_trace();
    let appended_at = |seq: u64, to: NodeId| {
        events.iter().find_map(|r| match r.event {
            TraceEvent::RingAppend { ring: RingKind::Conf, reader, seq: s, .. }
                if s == seq && reader == to =>
            {
                Some(r.at)
            }
            _ => None,
        })
    };
    let mut applies = 0;
    for r in &events {
        let TraceEvent::RingApply { ring: RingKind::Conf, reader, seq, .. } = r.event else {
            continue;
        };
        if reader == NodeId(0) {
            continue;
        }
        applies += 1;
        let next = appended_at(seq + 1, reader).expect("applied, so its successor was appended");
        assert!(next < r.at, "{reader:?} applied seq {seq} before seq {} left the leader", seq + 1);
    }
    assert!(applies >= 40);
    for f in 1..3 {
        let e = &sim.app(NodeId(f)).engines[0];
        assert!(e.commit >= e.reader.applied() && e.commit >= 20, "node {f} keeps what it learnt");
    }
}

/// Nothing follows a lone call, so its commit rides nothing: one
/// round of commit-cell WRITEs, one per follower, and no second.
#[test]
fn a_single_call_on_an_idle_cluster_costs_exactly_one_cell_round() {
    let (mut sim, layout) = ordered_counter(3, 1, 1, 5);
    sim.run_until(SimTime(200_000));
    for f in 1..3 {
        assert_eq!(sim.app(NodeId(f)).engines[0].reader.applied(), 1, "node {f} applied it");
        assert_eq!(commit_cell(&sim, &layout, f), 1);
    }
    assert_eq!(cell_writes(&sim.take_trace()).len(), 2);
}

/// While the quota lasts a plan follows every commit and its first
/// entry carries the index; the cell round is for the commits after
/// the last append.
#[test]
fn a_saturated_leader_posts_no_cell_write_until_its_quota_ends() {
    let (mut sim, _layout) = ordered_counter(3, 600, 8, 5);
    let (_, converged) = crate::verdict::drive(&mut sim, SimTime(20_000_000));
    assert!(converged);
    let events = sim.take_trace();
    let last_append = events
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RingAppend { writer: NodeId(0), .. }))
        .map(|r| r.at)
        .max()
        .expect("the leader appended");
    let cells = cell_writes(&events);
    assert!(!cells.is_empty(), "the last commits ride nothing");
    assert!(
        cells.iter().all(|&at| at >= last_append),
        "a cell WRITE at {:?}, the last append at {last_append:?}",
        cells.iter().min()
    );
    assert_eq!(sim.app(NodeId(1)).engines[0].reader.applied(), 600);
}

/// Node 0 leads both shards of Bank's withdraw group and has a
/// withdraw uncommitted on shard 1. Deposed from shard 0, it still
/// leads shard 1, so that withdraw stays in its check view (Lemma 1)
/// and a second one the balance cannot cover is rejected.
#[test]
fn deposition_from_one_group_keeps_the_others_uncommitted_calls_in_view() {
    let bank = Bank::default();
    let run = RunConfig::new(3, WorkloadSpec::ops(0))
        .with_seed(1)
        .with_sync_shards(2)
        .with_leaders(vec![Pid(0), Pid(0)]);
    let (mut sim, _layout) = assemble(&bank, &bank.coord_spec(), &run);
    let n0 = NodeId(0);
    let issue = |sim: &mut Simulator<HambandNode<Bank>>, update| {
        sim.with_app_ctx(n0, |app, ctx| {
            app.issue(ctx, update, 0);
            app.pump(ctx);
        });
    };
    sim.run_for(SimDuration::nanos(1));
    let mapper = sim.app(n0).ingress.mapper();
    let acct = (0..).find(|&k| mapper.group_of(GroupId(0), Some(k)) == 1).expect("a key");
    issue(&mut sim, BankUpdate::OpenAccounts(vec![acct]));
    issue(&mut sim, BankUpdate::Deposit(acct, 10));
    sim.run_for(SimDuration::micros(10));
    assert_eq!(sim.app(n0).metrics.updates_acked, 2);
    // The cluster does not run from here: the withdraw stays
    // uncommitted.
    issue(&mut sim, BankUpdate::Withdraw(acct, 8));
    assert_eq!(sim.app(n0).engines[1].leader().map(|l| l.uncommitted.len()), Some(1));
    sim.with_app_ctx(n0, |app, ctx| app.depose(ctx, 0));
    let app = sim.app(n0);
    assert!(!app.engines[0].is_leader() && app.engines[1].is_leader());
    assert_eq!(app.check_view().balances.get(&acct), Some(&2));
    issue(&mut sim, BankUpdate::Withdraw(acct, 8));
    let app = sim.app(n0);
    assert_eq!((app.metrics.rejected, app.outstanding.len()), (1, 1));
}

fn engine() -> GroupEngine {
    let reader =
        RingReader::new(RingKind::Conf, RegionId(0), 8, 64, 64, RegionId(1), 0);
    GroupEngine::new(Pid(0), reader)
}

fn writers(n: usize, me: usize) -> Vec<Option<RingWriter>> {
    (0..n)
        .map(|q| {
            (q != me).then(|| {
                RingWriter::new(
                    RingKind::Conf,
                    NodeId(q),
                    RegionId(0),
                    8,
                    64,
                    64,
                    RegionId(1),
                    0,
                )
            })
        })
        .collect()
}

#[test]
fn follower_to_candidate_to_leader_on_suspicion() {
    let mut e = engine();
    assert!(matches!(e.role, Role::Follower));
    assert!(!e.accepting_issues());

    // The leader is suspected; we start an election.
    let epoch = e.begin_election(NodeId(1), 5, 3);
    assert_eq!(epoch, 2);
    assert!(matches!(e.role, Role::Candidate { .. }));
    assert!(!e.is_leader());

    // One ack short of a 3-node majority (need 2, have our own 1).
    assert!(e.try_win(2, Pid(1)).is_none());
    e.on_leader_ack(NodeId(2), epoch, 7, 4);
    let won = e.try_win(2, Pid(1)).expect("majority reached");
    assert_eq!(won.max_tail, 7, "the longer follower log wins");
    assert_eq!(won.max_tail_holder, NodeId(2));
    assert_eq!(won.min_tail, 5, "our own log is the shortest counted");
    assert_eq!(e.commit, 4, "commit adopted from the tally max");
    assert_eq!(e.leader_view, Pid(1));
    assert_eq!(e.epoch, epoch);

    // Our log was shorter: catch up, then install.
    e.begin_takeover(won.max_tail, won.min_tail);
    assert!(matches!(e.role, Role::TakingOver { max_tail: 7, min_tail: 5 }));
    assert!(!e.accepting_issues());
    e.install_leader(writers(3, 1), won.max_tail, won.max_tail);
    assert!(e.is_leader());
}

#[test]
fn stale_epoch_acks_are_ignored() {
    let mut e = engine();
    let epoch = e.begin_election(NodeId(0), 0, 0);
    e.on_leader_ack(NodeId(1), epoch - 1, 99, 99);
    assert!(e.try_win(2, Pid(0)).is_none(), "stale ack must not count");
    let Role::Candidate { election } = &e.role else { panic!("still a candidate") };
    assert_eq!(election.acks, 1);
    assert_eq!(election.max_tail, 0, "stale tail must not poison the tally");
}

#[test]
fn depose_on_higher_epoch_drops_leader_state_wholesale() {
    let mut e = engine();
    e.install_leader(writers(3, 0), 4, 0);
    let l = e.leader_mut().unwrap();
    l.pending_acks.insert(5, 1);
    l.client_by_seq.push_back((5, 42));
    l.uncommitted.push(5);

    // A higher-epoch LeaderRequest arrives: promise and depose.
    e.promise(7, Pid(2));
    let dropped = e.depose_leader().expect("was leading");
    assert!(matches!(e.role, Role::Follower));
    assert_eq!(e.promised, 7);
    assert_eq!(e.leader_view, Pid(2));
    assert_eq!(dropped.client_by_seq, [(5, 42)], "orphans surface");
    assert!(e.leader().is_none(), "no leader field survives deposition");
    assert_eq!(e.tail_hint, 4, "tail hint survives for future elections");
    assert!(e.depose_leader().is_none(), "deposing a follower is a no-op");
}

#[test]
fn issue_floor_gates_until_reader_catches_up() {
    let mut e = engine();
    // Takeover adopted tail 6: reader is at seq 1, floor at 6.
    e.install_leader(writers(3, 0), 6, 6);
    assert!(e.is_leader());
    assert!(
        !e.accepting_issues(),
        "a fresh takeover must not issue against an incomplete view"
    );
    // Simulate the reader applying through the floor.
    e.reader.skip_to_for_test(6);
    assert!(e.accepting_issues(), "floor passed: issuing resumes");
    // An original leader starts with floor 0 and issues at once.
    let mut e2 = engine();
    e2.install_leader(writers(3, 0), 0, 0);
    assert!(e2.accepting_issues());
}

#[test]
fn a_leader_scans_its_ring_only_while_a_committed_entry_waits() {
    let mut e = engine();
    assert!(e.scans_ring(), "a follower reads what the leader writes");
    e.install_leader(writers(3, 0), 0, 0);
    assert!(!e.scans_ring(), "nothing committed past the reader");
    e.leader_mut().unwrap().pending_acks.insert(1, 1);
    e.advance_commit_index(1);
    assert!(e.scans_ring(), "seq 1 committed, not yet applied");
    e.reader.skip_to_for_test(1);
    assert!(!e.scans_ring(), "applied through the commit index");
}

#[test]
fn advance_commit_requires_contiguous_majorities() {
    let mut e = engine();
    e.install_leader(writers(3, 0), 0, 0);
    let l = e.leader_mut().unwrap();
    l.pending_acks.insert(1, 1);
    l.pending_acks.insert(2, 0);
    l.pending_acks.insert(3, 1);
    assert_eq!(e.advance_commit_index(1), 1, "seq 2 lacks acks: stop there");
    let l = e.leader_mut().unwrap();
    *l.pending_acks.get_mut(&2).unwrap() = 1;
    assert_eq!(e.advance_commit_index(1), 3, "gap filled: advance through 3");
    assert_eq!(e.advance_commit_index(1), 3, "idempotent with no new acks");
}
