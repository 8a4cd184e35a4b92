//! The simulator's CPU model at its edges: an event that finds its
//! node's CPU busy waits for `cpu_free` and leaves in original sequence
//! order; what each fault arm does to an event that is waiting; what
//! a handler is told about the events waiting behind it; that a
//! dedicated thread's verbs and their completions stay off the
//! application CPU; that a completion due the instant its WRITE lands
//! takes its turn among the other events due then; and which traffic a
//! partition holds.
//!
//! Every expectation here was first written against the scheduler that
//! re-pushed each blocked event through the global queue, and holds
//! unchanged on the per-node wait queues that replaced it.

use std::cell::RefCell;
use std::rc::Rc;

use rdma_sim::{
    App, Ctx, Event, Fault, FaultPlan, LatencyModel, NodeId, RegionId, SimDuration, SimTime,
    Simulator,
};

/// `(virtual ns, node, what)` per handled event, shared by all nodes so
/// cross-node order is visible.
type Log = Rc<RefCell<Vec<(u64, usize, String)>>>;

/// A timer's tag says what it is called and what handling it costs.
const fn tag(label: u64, cpu_ns: u64) -> u64 {
    label * 1_000_000 + cpu_ns
}

/// `Ctx::cpu_backlog` as each handler saw it, in handling order.
type Backlog = Rc<RefCell<Vec<bool>>>;

/// Logs every event; a timer charges the CPU its tag names.
struct Worker {
    log: Log,
    backlog: Backlog,
    /// `(label, region)`: write a byte to node 1's `region` when the
    /// timer `label` fires.
    writes: Vec<(u64, RegionId)>,
}

impl App for Worker {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        let what = match &event {
            Event::Timer { tag, .. } => format!("t{}", tag / 1_000_000),
            Event::Message { payload, .. } => format!("m{}", payload[0]),
            Event::Completion { wr, .. } => format!("c{}", wr.0),
            Event::Fault { .. } => "fault".to_string(),
        };
        self.log.borrow_mut().push((ctx.now().nanos(), ctx.node().index(), what));
        self.backlog.borrow_mut().push(ctx.cpu_backlog());
        if let Event::Timer { tag, .. } = event {
            ctx.consume(SimDuration::nanos(tag % 1_000_000));
            for (label, region) in &self.writes {
                if *label == tag / 1_000_000 {
                    ctx.post_write(NodeId(1), *region, 0, &[7]);
                }
            }
        }
    }
}

fn cluster(n: usize) -> (Simulator<Worker>, RegionId, Log) {
    let log: Log = Rc::default();
    let backlog: Backlog = Rc::default();
    let mut sim = Simulator::new(n, LatencyModel::deterministic(), 1);
    let region = sim.add_region_all(64);
    sim.set_apps(|_| Worker { log: log.clone(), backlog: backlog.clone(), writes: Vec::new() });
    (sim, region, log)
}

/// Arm a timer on `node` from outside, at virtual time zero.
fn timer(sim: &mut Simulator<Worker>, node: usize, at_ns: u64, label: u64, cpu_ns: u64) {
    sim.with_app_ctx(NodeId(node), |_, ctx| {
        ctx.set_timer(SimDuration::nanos(at_ns), tag(label, cpu_ns));
    });
}

fn isolated(sim: &mut Simulator<Worker>, node: usize, at_ns: u64, label: u64, cpu_ns: u64) {
    sim.with_app_ctx(NodeId(node), |_, ctx| {
        ctx.set_timer_isolated(SimDuration::nanos(at_ns), tag(label, cpu_ns));
    });
}

fn entries(log: &Log) -> Vec<(u64, usize, String)> {
    log.borrow().clone()
}

fn e(at: u64, node: usize, what: &str) -> (u64, usize, String) {
    (at, node, what.to_string())
}

#[test]
fn waiting_events_leave_in_seq_order_interleaved_with_other_nodes() {
    let (mut sim, _, log) = cluster(2);
    timer(&mut sim, 0, 0, 1, 1_000); // node 0 busy until 1000
    timer(&mut sim, 0, 300, 2, 0); // seq 1
    timer(&mut sim, 1, 1_000, 3, 0); // seq 2, other node, same time
    timer(&mut sim, 0, 200, 4, 0); // seq 3
    timer(&mut sim, 1, 1_000, 5, 0); // seq 4
    timer(&mut sim, 0, 1_000, 6, 0); // seq 5: fresh at 1000, still behind seq 3
    sim.run_for(SimDuration::micros(10));
    assert_eq!(
        entries(&log),
        vec![
            e(0, 0, "t1"),
            e(1_000, 0, "t2"),
            e(1_000, 1, "t3"),
            e(1_000, 0, "t4"),
            e(1_000, 1, "t5"),
            e(1_000, 0, "t6"),
        ]
    );
}

#[test]
fn a_handler_that_charges_cpu_makes_the_rest_wait_again() {
    let (mut sim, _, log) = cluster(1);
    timer(&mut sim, 0, 0, 1, 1_000);
    timer(&mut sim, 0, 100, 2, 250);
    timer(&mut sim, 0, 100, 3, 250);
    timer(&mut sim, 0, 1_100, 4, 0); // arrives while t2's charge is running
    sim.run_for(SimDuration::micros(10));
    assert_eq!(
        entries(&log),
        vec![e(0, 0, "t1"), e(1_000, 0, "t2"), e(1_250, 0, "t3"), e(1_500, 0, "t4")]
    );
}

#[test]
fn later_arrival_with_lower_seq_goes_first() {
    let (mut sim, _, log) = cluster(2);
    timer(&mut sim, 0, 0, 1, 1_000);
    timer(&mut sim, 0, 500, 2, 0); // seq 1 arrives second
    timer(&mut sim, 1, 1_000, 3, 0); // seq 2: between the two on the other node
    timer(&mut sim, 0, 100, 4, 0); // seq 3 arrives first and waits at the head
    sim.run_for(SimDuration::micros(10));
    assert_eq!(
        entries(&log),
        vec![e(0, 0, "t1"), e(1_000, 0, "t2"), e(1_000, 1, "t3"), e(1_000, 0, "t4")]
    );
}

#[test]
fn cpu_extended_while_events_wait_delays_them() {
    let (mut sim, _, log) = cluster(1);
    timer(&mut sim, 0, 0, 1, 1_000);
    timer(&mut sim, 0, 100, 2, 0);
    isolated(&mut sim, 0, 400, 3, 300); // dedicated thread charges 300: free at 1300
    timer(&mut sim, 0, 1_200, 4, 0);
    sim.run_for(SimDuration::micros(10));
    assert_eq!(
        entries(&log),
        vec![e(0, 0, "t1"), e(400, 0, "t3"), e(1_300, 0, "t2"), e(1_300, 0, "t4")]
    );
}

/// What each handled event was, and whether its handler was told that
/// more events wait for the CPU.
fn backlog_seen(sim: &Simulator<Worker>, log: &Log) -> Vec<(String, bool)> {
    let seen = sim.app(NodeId(0)).backlog.borrow();
    log.borrow().iter().map(|(_, _, what)| what.clone()).zip(seen.iter().copied()).collect()
}

fn told(what: &str, backlog: bool) -> (String, bool) {
    (what.to_string(), backlog)
}

#[test]
fn backlog_is_reported_until_the_last_waiting_event_leaves() {
    let (mut sim, _, log) = cluster(1);
    timer(&mut sim, 0, 0, 1, 1_000); // finds the CPU free
    timer(&mut sim, 0, 100, 2, 250); // first of three that wait
    timer(&mut sim, 0, 200, 3, 0);
    timer(&mut sim, 0, 300, 4, 0); // the last to leave
    timer(&mut sim, 0, 2_000, 5, 0); // free again
    sim.run_for(SimDuration::micros(10));
    assert_eq!(
        entries(&log),
        vec![
            e(0, 0, "t1"),
            e(1_000, 0, "t2"),
            e(1_250, 0, "t3"),
            e(1_250, 0, "t4"),
            e(2_000, 0, "t5"),
        ]
    );
    assert_eq!(
        backlog_seen(&sim, &log),
        vec![
            told("t1", false),
            told("t2", true),
            told("t3", true),
            told("t4", false),
            told("t5", false)
        ]
    );
}

#[test]
fn isolated_timer_neither_counts_as_backlog_nor_waits() {
    let (mut sim, _, log) = cluster(1);
    timer(&mut sim, 0, 0, 1, 1_000);
    timer(&mut sim, 0, 100, 2, 0); // waits alone
    isolated(&mut sim, 0, 500, 3, 0); // runs at 500 and sees t2 waiting
    isolated(&mut sim, 0, 1_000, 4, 0); // due when t2 leaves, never queued
    sim.run_for(SimDuration::micros(10));
    assert_eq!(
        entries(&log),
        vec![e(0, 0, "t1"), e(500, 0, "t3"), e(1_000, 0, "t2"), e(1_000, 0, "t4")]
    );
    assert_eq!(
        backlog_seen(&sim, &log),
        vec![told("t1", false), told("t3", true), told("t2", false), told("t4", false)]
    );
}

#[test]
fn crashed_node_drops_waiting_events_when_due() {
    let (mut sim, _, log) = cluster(1);
    timer(&mut sim, 0, 0, 1, 1_000);
    timer(&mut sim, 0, 100, 2, 0); // due at 1000, inside the outage
    timer(&mut sim, 0, 1_600, 3, 0);
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(SimTime(200), Fault::Crash(NodeId(0)))
            .at(SimTime(1_500), Fault::Restart(NodeId(0), false)),
    );
    sim.run_for(SimDuration::micros(10));
    assert_eq!(entries(&log), vec![e(0, 0, "t1"), e(1_600, 0, "t3")]);
}

#[test]
fn waiting_events_due_after_a_restart_are_delivered() {
    let (mut sim, _, log) = cluster(1);
    timer(&mut sim, 0, 0, 1, 1_000);
    timer(&mut sim, 0, 100, 2, 0);
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(SimTime(200), Fault::Crash(NodeId(0)))
            .at(SimTime(600), Fault::Restart(NodeId(0), false)),
    );
    sim.run_for(SimDuration::micros(10));
    // The restart resets `cpu_free` to 600; the event keeps its due time.
    assert_eq!(entries(&log), vec![e(0, 0, "t1"), e(1_000, 0, "t2")]);
}

#[test]
fn each_waiting_event_is_dropped_or_kept_by_its_own_due_time() {
    let (mut sim, _, log) = cluster(1);
    timer(&mut sim, 0, 0, 1, 1_000);
    timer(&mut sim, 0, 100, 2, 0); // saw cpu_free = 1000
    isolated(&mut sim, 0, 400, 3, 500); // cpu_free = 1500
    timer(&mut sim, 0, 450, 4, 0); // saw cpu_free = 1500
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(SimTime(900), Fault::Crash(NodeId(0)))
            .at(SimTime(1_200), Fault::Restart(NodeId(0), false)),
    );
    sim.run_for(SimDuration::micros(10));
    assert_eq!(entries(&log), vec![e(0, 0, "t1"), e(400, 0, "t3"), e(1_500, 0, "t4")]);
}

/// Node 0 posts a one-byte WRITE to node 1 at time zero; its completion
/// arrives back at 1110 (110 NIC + 1000 wire; landing and completion at
/// the same instant).
fn write_at_zero(sim: &mut Simulator<Worker>, region: RegionId) {
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, &[9]);
    });
}

#[test]
fn completion_is_duplicated_once_on_arrival_even_if_it_then_waits() {
    let (mut sim, region, log) = cluster(2);
    write_at_zero(&mut sim, region);
    timer(&mut sim, 0, 1_000, 1, 5_000); // busy 1000..6000
    sim.install_fault_plan(
        &FaultPlan::new().at(SimTime(500), Fault::DuplicateCompletion(NodeId(0))),
    );
    sim.run_for(SimDuration::micros(20));
    assert_eq!(entries(&log), vec![e(1_000, 0, "t1"), e(6_000, 0, "c0"), e(6_000, 0, "c0")]);
}

#[test]
fn completion_already_waiting_is_duplicated_when_it_comes_due() {
    let (mut sim, region, log) = cluster(2);
    write_at_zero(&mut sim, region);
    timer(&mut sim, 0, 1_000, 1, 5_000);
    sim.install_fault_plan(
        &FaultPlan::new().at(SimTime(2_000), Fault::DuplicateCompletion(NodeId(0))),
    );
    sim.run_for(SimDuration::micros(20));
    assert_eq!(entries(&log), vec![e(1_000, 0, "t1"), e(6_000, 0, "c0"), e(6_000, 0, "c0")]);
}

#[test]
fn duplicate_goes_to_the_waiting_completion_that_comes_due_first() {
    let (mut sim, region, log) = cluster(2);
    write_at_zero(&mut sim, region); // c0 arrives 1110, due 6000
    timer(&mut sim, 0, 1_000, 1, 5_000);
    isolated(&mut sim, 0, 3_000, 2, 1_000); // cpu_free = 7000
    sim.install_fault_plan(
        &FaultPlan::new().at(SimTime(2_000), Fault::DuplicateCompletion(NodeId(0))),
    );
    // The application posts a second WRITE at 5500 (60 more CPU:
    // cpu_free = 7060); its completion c1 arrives at 6610 and waits,
    // after c0 came due at 6000 and took the duplicate.
    sim.run_until(SimTime(5_500));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, &[7]);
    });
    sim.run_for(SimDuration::micros(20));
    assert_eq!(
        entries(&log),
        vec![
            e(1_000, 0, "t1"),
            e(3_000, 0, "t2"),
            e(7_060, 0, "c0"),
            e(7_060, 0, "c0"),
            e(7_060, 0, "c1"),
        ]
    );
}

/// A dedicated thread's verbs run on its own core: posting from an
/// isolated timer charges `isolated_busy_ns`, not the application CPU.
#[test]
fn a_write_posted_from_an_isolated_timer_leaves_the_cpu_alone() {
    let (mut sim, region, log) = cluster(2);
    timer(&mut sim, 0, 0, 1, 1_000); // busy 0..1000
    isolated(&mut sim, 0, 500, 2, 0); // posts a WRITE at 500
    sim.app_mut(NodeId(0)).writes.push((2, region));
    timer(&mut sim, 0, 600, 3, 0); // waits for cpu_free: still 1000
    sim.run_for(SimDuration::nanos(1_100));
    assert_eq!(entries(&log), vec![e(0, 0, "t1"), e(500, 0, "t2"), e(1_000, 0, "t3")]);
    let stats = sim.stats();
    assert_eq!(stats.cpu_busy_ns[0], 1_000, "the WRITE charged the application CPU");
    assert_eq!((stats.isolated_busy_ns[0], stats.cpu_post_ns[0]), (60, 0));
    assert_eq!((stats.writes, stats.nic_busy_ns[0]), (1, 110), "the NIC is shared");
}

#[test]
fn a_completion_of_an_isolated_write_is_handled_while_the_cpu_is_busy() {
    let (mut sim, region, log) = cluster(2);
    timer(&mut sim, 0, 0, 1, 5_000); // busy 0..5000
    isolated(&mut sim, 0, 500, 2, 0); // posts a WRITE at 500
    sim.app_mut(NodeId(0)).writes.push((2, region));
    timer(&mut sim, 0, 600, 3, 0); // waits until 5000
    sim.run_for(SimDuration::micros(10));
    // 500 + 110 NIC + 1000 wire: back on the dedicated thread at 1610.
    assert_eq!(
        entries(&log),
        vec![e(0, 0, "t1"), e(500, 0, "t2"), e(1_610, 0, "c0"), e(5_000, 0, "t3")]
    );
    assert_eq!(
        backlog_seen(&sim, &log),
        vec![told("t1", false), told("t2", false), told("c0", true), told("t3", false)]
    );
}

#[test]
fn a_write_posted_from_the_application_cpu_still_charges_and_waits() {
    let (mut sim, region, log) = cluster(2);
    timer(&mut sim, 0, 0, 1, 5_000); // busy 0..5000, then posts: 5060
    sim.app_mut(NodeId(0)).writes.push((1, region));
    isolated(&mut sim, 0, 200, 2, 0); // the node's dedicated thread is idle
    sim.run_for(SimDuration::micros(10));
    // The completion arrives at 1110 and waits for the CPU.
    assert_eq!(entries(&log), vec![e(0, 0, "t1"), e(200, 0, "t2"), e(5_060, 0, "c0")]);
    let stats = sim.stats();
    assert_eq!((stats.cpu_busy_ns[0], stats.cpu_post_ns[0]), (5_060, 60));
    assert_eq!(stats.isolated_busy_ns[0], 0);
}

/// Node 1 sends a one-byte message at time zero; it reaches node 0 at
/// 25110 (110 NIC + 25000 wire).
fn message_at_zero(sim: &mut Simulator<Worker>) {
    sim.with_app_ctx(NodeId(1), |_, ctx| ctx.send(NodeId(0), vec![5]));
}

#[test]
fn message_deferred_into_a_partition_waits_for_heal() {
    let (mut sim, _, log) = cluster(2);
    message_at_zero(&mut sim);
    timer(&mut sim, 0, 20_000, 1, 20_000); // busy 20000..40000
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(SimTime(30_000), Fault::Partition(vec![NodeId(0)], vec![NodeId(1)]))
            .at(SimTime(100_000), Fault::Heal),
    );
    sim.run_for(SimDuration::micros(200));
    assert_eq!(entries(&log), vec![e(20_000, 0, "t1"), e(100_000, 0, "m5")]);
}

#[test]
fn message_held_by_a_partition_is_not_in_the_cpu_queue() {
    let (mut sim, _, log) = cluster(2);
    message_at_zero(&mut sim);
    timer(&mut sim, 0, 20_000, 1, 20_000); // message due at 40000
    isolated(&mut sim, 0, 35_000, 2, 20_000); // still busy then: cpu_free = 60000
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(SimTime(30_000), Fault::Partition(vec![NodeId(0)], vec![NodeId(1)]))
            .at(SimTime(45_000), Fault::Crash(NodeId(0)))
            .at(SimTime(55_000), Fault::Restart(NodeId(0), false))
            .at(SimTime(58_000), Fault::Heal),
    );
    sim.run_for(SimDuration::micros(200));
    // Held by the partition at 40000, so neither dropped by the crash
    // nor kept waiting for the pre-crash `cpu_free`.
    assert_eq!(entries(&log), vec![e(20_000, 0, "t1"), e(35_000, 0, "t2"), e(58_000, 0, "m5")]);
}

#[test]
fn events_waiting_on_one_node_stand_behind_one_queue_entry() {
    let (mut sim, _, log) = cluster(1);
    timer(&mut sim, 0, 0, 1, 1_000);
    for i in 0..50 {
        timer(&mut sim, 0, 100 + i, 2, 0);
    }
    assert_eq!(sim.pending_events(), 51);
    sim.run_until(SimTime(500));
    assert_eq!(sim.pending_events(), 1, "fifty events wait behind the node's wake");
    sim.run_until(SimTime(1_000));
    assert_eq!(sim.pending_events(), 0);
    assert_eq!(entries(&log).len(), 51);
}

/// Node `from` sends the one-byte message `byte` to node 0 at time zero;
/// it reaches node 0 at 25110.
fn message_from(sim: &mut Simulator<Worker>, from: usize, byte: u8) {
    sim.with_app_ctx(NodeId(from), |_, ctx| ctx.send(NodeId(0), vec![byte]));
}

/// A WRITE's completion comes due the instant the WRITE lands. A timer
/// on the issuer queued for that instant after the WRITE was posted,
/// but before it landed, still goes first: it was queued before the
/// completion was.
#[test]
fn a_completion_due_at_landing_follows_a_timer_queued_before_it() {
    let (mut sim, region, log) = cluster(2);
    write_at_zero(&mut sim, region); // lands at 1110
    timer(&mut sim, 0, 1_110, 1, 100); // busy 1110..1210
    sim.run_for(SimDuration::micros(10));
    assert_eq!(entries(&log), vec![e(1_110, 0, "t1"), e(1_210, 0, "c0")]);
}

#[test]
fn a_completion_due_at_landing_leaves_another_nodes_timer_its_turn() {
    let (mut sim, region, log) = cluster(2);
    write_at_zero(&mut sim, region);
    timer(&mut sim, 1, 1_110, 2, 0); // the target's timer, same instant
    sim.run_for(SimDuration::micros(10));
    assert_eq!(entries(&log), vec![e(1_110, 1, "t2"), e(1_110, 0, "c0")]);
}

/// A partition with an empty side separates no pair: neither a verb,
/// nor a message arriving, nor a message waiting for the CPU is held.
#[test]
fn a_partition_with_an_empty_side_blocks_nothing() {
    let (mut sim, region, log) = cluster(2);
    message_from(&mut sim, 1, 5);
    write_at_zero(&mut sim, region);
    timer(&mut sim, 0, 20_000, 1, 10_000); // busy 20000..30000: m5 waits
    isolated(&mut sim, 0, 26_000, 2, 10_000); // busy until 40000: m5 waits on
    sim.install_fault_plan(
        &FaultPlan::new().at(SimTime(500), Fault::Partition(vec![NodeId(0)], vec![])),
    );
    sim.run_for(SimDuration::micros(200));
    assert_eq!(
        entries(&log),
        vec![e(1_110, 0, "c0"), e(20_000, 0, "t1"), e(26_000, 0, "t2"), e(40_000, 0, "m5")]
    );
}

/// A second partition replaces the first: from then on only the pairs
/// it separates are held, at arrival and while waiting for the CPU.
#[test]
fn a_partition_that_replaces_another_is_evaluated_afresh() {
    let (mut sim, region, log) = cluster(3);
    message_from(&mut sim, 1, 5);
    message_from(&mut sim, 2, 6);
    write_at_zero(&mut sim, region); // to node 1, lands at 1110
    timer(&mut sim, 0, 20_000, 1, 10_000);
    isolated(&mut sim, 0, 26_000, 2, 10_000);
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(SimTime(100), Fault::Partition(vec![NodeId(0)], vec![NodeId(1)]))
            .at(SimTime(200), Fault::Partition(vec![NodeId(0)], vec![NodeId(2)]))
            .at(SimTime(100_000), Fault::Heal),
    );
    sim.run_for(SimDuration::micros(200));
    assert_eq!(
        entries(&log),
        vec![
            e(1_110, 0, "c0"),
            e(20_000, 0, "t1"),
            e(26_000, 0, "t2"),
            e(40_000, 0, "m5"),
            e(100_000, 0, "m6"),
        ]
    );
}

/// A restart ends the node's dedicated threads: an isolated timer armed
/// before it fires on the application CPU after it and waits for that
/// CPU like any other event, while one armed after it does not wait.
#[test]
fn an_isolated_timer_armed_before_a_restart_runs_on_the_application_cpu_after_it() {
    let (mut sim, _, log) = cluster(1);
    isolated(&mut sim, 0, 5_000, 1, 0); // the node's first life
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(SimTime(100), Fault::Crash(NodeId(0)))
            .at(SimTime(200), Fault::Restart(NodeId(0), false)),
    );
    sim.run_until(SimTime(300));
    timer(&mut sim, 0, 100, 2, 10_000); // busy 400..10400
    isolated(&mut sim, 0, 5_700, 3, 0); // the second life's: fires at 6000
    sim.run_for(SimDuration::micros(20));
    assert_eq!(entries(&log), vec![e(400, 0, "t2"), e(6_000, 0, "t3"), e(10_400, 0, "t1")]);
}

/// Likewise a WRITE a dedicated thread posted before a restart: its
/// completion, arriving after the restart, waits for the application
/// CPU.
#[test]
fn a_completion_of_an_isolated_write_posted_before_a_restart_waits_for_the_cpu() {
    let (mut sim, region, log) = cluster(2);
    isolated(&mut sim, 0, 50, 1, 0); // posts a WRITE at 50: back at 1160
    sim.app_mut(NodeId(0)).writes.push((1, region));
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(SimTime(100), Fault::Crash(NodeId(0)))
            .at(SimTime(200), Fault::Restart(NodeId(0), false)),
    );
    sim.run_until(SimTime(300));
    timer(&mut sim, 0, 0, 2, 5_000); // busy 300..5300
    sim.run_for(SimDuration::micros(20));
    assert_eq!(entries(&log), vec![e(50, 0, "t1"), e(300, 0, "t2"), e(5_300, 0, "c0")]);
}
