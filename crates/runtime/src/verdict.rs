//! When a cluster run is finished: the one verdict, and the loop that
//! waits for it.
//!
//! A replica judges its own workload ([`HambandNode::workload_done`]),
//! and a follower answers for a group's conflicting quota only through
//! its leader — which, between the leader's failure and its suspicion,
//! it cannot know is gone. Whoever steps the cluster can, so the
//! cluster's verdict adds what no node sees (DESIGN.md §5b.6). A run is
//! [`settled`] when
//!
//! 1. no fault is still scheduled and somebody is alive (not crashed,
//!    not halted),
//! 2. every alive node reports its workload done,
//! 3. every node an alive node follows is alive and leads that group,
//! 4. the alive nodes' applied maps are equal.
//!
//! [`drive`] steps a prepared simulator until then. [`Runner`] is
//! [`assemble`] + `drive` + collection; a test or example that looks
//! into the nodes afterwards, or watches something else while it
//! steps, calls the same functions (`assemble` shows how). The
//! threaded backend asks clauses 2–4 of its replicas once their threads
//! have joined.
//!
//! [`Runner`]: crate::Runner
//! [`assemble`]: crate::assemble

use hamband_core::counts::CountMap;
use hamband_core::object::WorkloadSupport;
use rdma_sim::{App, NodeId, SimDuration, SimTime, Simulator};

use crate::ingress::SessionStats;
use crate::metrics::NodeMetrics;
use crate::replica::HambandNode;

/// What the verdict and the harness need from a replica application —
/// implemented by [`HambandNode`] and, in its own module,
/// [`MsgCrdtNode`](crate::MsgCrdtNode).
pub trait HarnessNode: App {
    /// Comparable object-state snapshot (convergence check).
    type Snapshot: PartialEq;

    /// Whether a fault halted the node.
    fn is_halted(&self) -> bool;
    /// The node's own verdict on its workload.
    fn workload_done(&self) -> bool;
    /// Per consensus group, the node this one follows (`None` where it
    /// leads). No groups on the MSG baseline.
    fn follows(&self) -> Vec<Option<NodeId>>;
    /// Update calls applied, per (issuer, method).
    fn applied_map(&self) -> &CountMap;
    /// The object state now.
    fn snapshot(&self) -> Self::Snapshot;
    /// The node's metric accumulators.
    fn metrics(&self) -> &NodeMetrics;
    /// Per-session completion stats from the node's client ingress.
    fn session_stats(&self) -> Vec<SessionStats>;
    /// One-line human-readable status (debug output, failure reports).
    fn status_line(&self) -> String;
}

impl<O: WorkloadSupport + Clone> HarnessNode for HambandNode<O> {
    type Snapshot = O::State;

    fn is_halted(&self) -> bool {
        HambandNode::is_halted(self)
    }
    fn workload_done(&self) -> bool {
        HambandNode::workload_done(self)
    }
    fn follows(&self) -> Vec<Option<NodeId>> {
        let followed = |e: &crate::conf::GroupEngine| NodeId(e.leader_view.index());
        self.engines.iter().map(|e| (!e.is_leader()).then(|| followed(e))).collect()
    }
    fn applied_map(&self) -> &CountMap {
        HambandNode::applied_map(self)
    }
    fn snapshot(&self) -> O::State {
        self.state_snapshot()
    }
    fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }
    fn session_stats(&self) -> Vec<SessionStats> {
        HambandNode::session_stats(self)
    }
    fn status_line(&self) -> String {
        self.status().to_string()
    }
}

/// The cluster's replicas by node id, `None` where the node crashed or
/// halted. Aliveness is dynamic: a node scheduled to fail later still
/// counts until its fault fires.
fn alive_nodes<A: HarnessNode>(sim: &Simulator<A>) -> Vec<Option<&A>> {
    (0..sim.len())
        .map(NodeId)
        .map(|id| Some(sim.app(id)).filter(|a| !sim.is_crashed(id) && !a.is_halted()))
        .collect()
}

/// Clauses 2–4 of the verdict (and "somebody is alive") over the
/// replicas themselves, indexed by node id with `None` for a node that
/// is not alive — the part a backend without a simulator shares.
pub(crate) fn nodes_settled<A: HarnessNode>(nodes: &[Option<&A>]) -> bool {
    let led = |a: &A| {
        a.follows().iter().enumerate().all(|(g, followed)| {
            followed.is_none_or(|l| nodes[l.index()].is_some_and(|l| l.follows()[g].is_none()))
        })
    };
    let alive = || nodes.iter().flatten();
    alive().next().is_some_and(|first| {
        alive().all(|a| a.workload_done() && led(a))
            && alive().all(|a| a.applied_map() == first.applied_map())
    })
}

/// Whether the alive replicas hold one object state (false with nobody
/// alive: a fault plan may leave no node, and such a run is
/// unconverged).
pub(crate) fn states_agree<A: HarnessNode>(nodes: &[Option<&A>]) -> bool {
    let mut alive = nodes.iter().flatten();
    alive.next().is_some_and(|first| {
        let s0 = first.snapshot();
        alive.all(|a| a.snapshot() == s0)
    })
}

/// Whether the cluster's run is finished, by the rule in the
/// [module documentation](self). False while a fault is still
/// scheduled — a run must not be declared done before its last fault
/// has fired, and a plan installed mid-run counts.
pub fn settled<A: HarnessNode>(sim: &Simulator<A>) -> bool {
    sim.now() > sim.last_fault_at() && nodes_settled(&alive_nodes(sim))
}

/// Drive a prepared cluster to completion: run in 25 µs slices until it
/// is [`settled`] — or `max_time` is reached, or nothing was applied
/// and no query run for 2 000 slices (a workload that cannot progress
/// ends unconverged instead of burning virtual time to the cap) — then
/// let stragglers (commit writes, recovery re-sends) settle for 300 µs.
/// Slices count toward the stall only once every alive CPU has paid for
/// the work charged to it by the last progress: a node still paying for
/// a pump's whole query quota is busy, not wedged, but CPU charged after
/// the last progress holds nothing open, so a run that stops
/// progressing ends 50 ms after that CPU horizon at the latest. Returns
/// when the last apply or query on an alive node ended
/// ([`NodeMetrics::done_at`](crate::metrics::NodeMetrics::done_at)) and
/// whether the run converged: settled, and the alive nodes' object
/// states equal.
pub fn drive<A: HarnessNode>(sim: &mut Simulator<A>, max_time: SimTime) -> (SimTime, bool) {
    let mut done = false;
    let mut last_progress = 0u64;
    let mut busy_until = SimTime::ZERO;
    let mut stalled = 0usize;
    while sim.now() < max_time {
        sim.run_for(SimDuration::micros(25));
        done = settled(sim);
        if done {
            break;
        }
        let alive = alive_nodes(sim);
        let progress: u64 =
            alive.iter().flatten().map(|a| a.applied_map().total() + a.metrics().queries).sum();
        if progress != last_progress {
            stalled = 0;
            last_progress = progress;
            busy_until = (0..alive.len())
                .filter(|&i| alive[i].is_some())
                .map(|i| sim.cpu_free_at(NodeId(i)))
                .max()
                .unwrap_or(SimTime::ZERO);
        } else if sim.now() >= busy_until {
            stalled += 1;
            if stalled > 2_000 {
                break;
            }
        }
    }
    sim.run_for(SimDuration::micros(300));

    let alive = alive_nodes(sim);
    let completed_at =
        alive.iter().flatten().map(|a| a.metrics().done_at()).max().unwrap_or(SimTime::ZERO);
    (completed_at, done && states_agree(&alive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline_msg::MsgCrdtNode;
    use crate::driver::WorkloadSpec;
    use crate::harness::{assemble, RunConfig, Runner, System};
    use hamband_core::ids::Pid;
    use hamband_types::{Bank, Counter};
    use rdma_sim::{Fault, FaultPlan, LatencyModel};

    const SLICE: SimDuration = SimDuration::micros(5);

    fn counter_cluster(plan: FaultPlan) -> Simulator<HambandNode<Counter>> {
        let c = Counter::default();
        let run =
            RunConfig::new(3, WorkloadSpec::ops(300).with_update_ratio(0.5)).with_faults(plan);
        assemble(&c, &c.coord_spec(), &run).0
    }

    /// Clause 3. The followers finish their own calls at ≈ 95 us, the
    /// leader would serve the pooled withdrawals until ≈ 220 us and
    /// crashes at 120 us: until their detectors fire, the survivors
    /// report done and agree on what they applied.
    #[test]
    fn a_dead_leader_is_not_settled_until_its_successor_leads() {
        let b = Bank::default();
        let crash_at = SimTime(120_000);
        let run = RunConfig::new(3, WorkloadSpec::ops(1_200).with_update_ratio(0.8).with_seed(11))
            .with_faults(FaultPlan::new().at(crash_at, Fault::Crash(NodeId(0))));
        let (mut sim, _layout) = assemble(&b, &b.coord_spec(), &run);
        let (n1, n2) = (NodeId(1), NodeId(2));
        sim.run_until(crash_at);
        let look_finished = |sim: &Simulator<HambandNode<Bank>>| {
            let (a, b) = (sim.app(n1), sim.app(n2));
            a.workload_done() && b.workload_done() && a.applied_map() == b.applied_map()
        };
        while !look_finished(&sim) {
            sim.run_for(SLICE);
            assert!(sim.now() < SimTime(200_000), "the survivors never looked finished");
        }
        assert_eq!(sim.app(n1).leader_view(0), Pid(0), "the crash is not suspected yet");
        assert!(!settled(&sim), "the survivors answer through a dead leader");
        while !settled(&sim) {
            sim.run_for(SLICE);
            assert!(sim.now() < SimTime(20_000_000), "never settled");
        }
        for id in [n1, n2] {
            let view = sim.app(id).leader_view(0);
            assert_ne!(view, Pid(0), "{id:?} settled under the dead leader");
            assert_eq!(sim.app(NodeId(view.index())).follows()[0], None, "{view} does not lead");
        }
    }

    /// Clause 1: a fault still scheduled, in the plan the cluster was
    /// assembled with or in one installed mid-run.
    #[test]
    fn a_scheduled_fault_is_waited_for() {
        let fault_at = SimTime(2_000_000);
        let mut sim = counter_cluster(FaultPlan::new().at(fault_at, Fault::TornWrites(NodeId(1))));
        sim.run_until(SimTime(1_000_000));
        assert!(nodes_settled(&alive_nodes(&sim)), "the nodes are finished");
        assert!(!settled(&sim));
        sim.run_until(fault_at + SimDuration::nanos(1));
        assert!(settled(&sim));
        let later = fault_at + SimDuration::millis(1);
        sim.install_fault_plan(&FaultPlan::new().at(later, Fault::DuplicateCompletion(NodeId(0))));
        assert!(!settled(&sim));
        sim.run_until(later + SimDuration::nanos(1));
        assert!(settled(&sim));
    }

    /// The MSG baseline has no groups, so clause 3 asks nothing of it.
    #[test]
    fn a_fault_free_msg_cluster_settles() {
        let c = Counter::default();
        let workload = WorkloadSpec::ops(300).with_update_ratio(0.5);
        let mut sim = Simulator::new(3, LatencyModel::default(), 7);
        sim.set_apps(|id| MsgCrdtNode::new(c.clone(), c.coord_spec(), id, 3, workload.clone()));
        assert!(!settled(&sim), "nothing has run");
        let (completed_at, converged) = drive(&mut sim, SimTime(10_000_000));
        assert!(converged && settled(&sim));
        assert!(completed_at > SimTime::ZERO && completed_at < sim.now());
    }

    /// A run of queries alone applies nothing, so only its queries can
    /// date its end: each node runs its 3 200 back to back in its first
    /// pump.
    #[test]
    fn a_query_only_run_ends_when_its_queries_charges_do() {
        let c = Counter::default();
        let run = RunConfig::new(3, WorkloadSpec::ops(9_600).with_update_ratio(0.0));
        let report = Runner::new(System::Hamband, run).run(&c, &c.coord_spec()).report;
        let apply_cost = LatencyModel::default().apply_cost.as_nanos();
        assert!(report.converged);
        assert!(report.completed_at >= SimTime(3_200 * apply_cost), "{}", report.completed_at);
        let bound = 9_600.0 / SimTime(3_200 * apply_cost).as_micros();
        assert!(report.throughput_ops_per_us <= bound, "{} ops/us", report.throughput_ops_per_us);
    }

    /// Open-loop queries arrive over 60 ms, longer than the 2 000-slice
    /// stall window, and apply nothing: running them is the progress.
    #[test]
    fn queries_alone_are_progress() {
        let c = Counter::default();
        let workload = WorkloadSpec::ops(3_600).with_update_ratio(0.0).with_offered_load(60_000.0);
        let (mut sim, _layout) = assemble(&c, &c.coord_spec(), &RunConfig::new(3, workload));
        let (completed_at, converged) = drive(&mut sim, SimTime(1_000_000_000));
        assert!(converged, "declared stalled at {}", sim.now());
        assert!(completed_at > SimTime(50_000_000), "ended at {completed_at}");
    }

    /// A closed-loop node runs its whole query quota in its first pump:
    /// 100 queries at 1 ms of CPU each charge it 100 ms ahead, twice the
    /// 2 000-slice stall window, before its first update issues. Its
    /// CPU is busy all that time, and the run is not wedged.
    #[test]
    fn a_cpu_charged_past_the_stall_window_is_busy() {
        let c = Counter::default();
        let latency =
            LatencyModel { apply_cost: SimDuration::millis(1), ..LatencyModel::deterministic() };
        let run =
            RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5)).with_latency(latency);
        let (mut sim, _layout) = assemble(&c, &c.coord_spec(), &run);
        let (completed_at, converged) = drive(&mut sim, SimTime(10_000_000_000));
        assert!(converged, "declared stalled at {}", sim.now());
        assert!(completed_at > SimTime(100_000_000), "ended at {completed_at}");
    }

    /// A node that never progresses but keeps its CPU charged past
    /// every slice's end: 30 µs of work per 10 µs timer.
    struct Spinner {
        applied: CountMap,
        metrics: NodeMetrics,
    }

    impl App for Spinner {
        fn on_start(&mut self, ctx: &mut rdma_sim::Ctx<'_>) {
            ctx.set_timer(SimDuration::micros(10), 0);
        }

        fn on_event(&mut self, ctx: &mut rdma_sim::Ctx<'_>, _event: rdma_sim::Event) {
            ctx.consume(SimDuration::micros(30));
            ctx.set_timer(SimDuration::micros(10), 0);
        }
    }

    impl HarnessNode for Spinner {
        type Snapshot = ();

        fn is_halted(&self) -> bool {
            false
        }
        fn workload_done(&self) -> bool {
            false
        }
        fn follows(&self) -> Vec<Option<NodeId>> {
            Vec::new()
        }
        fn applied_map(&self) -> &CountMap {
            &self.applied
        }
        fn snapshot(&self) {}
        fn metrics(&self) -> &NodeMetrics {
            &self.metrics
        }
        fn session_stats(&self) -> Vec<SessionStats> {
            Vec::new()
        }
        fn status_line(&self) -> String {
            String::new()
        }
    }

    /// Busy is not progress: a wedged run whose CPUs stay charged still
    /// ends at the stall window, not at `max_time`.
    #[test]
    fn a_busy_but_wedged_run_still_stalls() {
        let mut sim = Simulator::new(2, LatencyModel::deterministic(), 7);
        sim.set_apps(|_| Spinner { applied: CountMap::new(2, 1), metrics: NodeMetrics::default() });
        let (_, converged) = drive(&mut sim, SimTime(10_000_000_000));
        assert!(!converged);
        assert!(sim.cpu_free_at(NodeId(0)) > sim.now(), "the spinner went idle");
        assert!(sim.now() < SimTime(51_000_000), "ran on to {}", sim.now());
    }

    /// "Every alive node …" holds of no node at all; nobody is left to
    /// have finished anything.
    #[test]
    fn a_cluster_with_nobody_alive_never_settles() {
        let crash_all = (0..3)
            .fold(FaultPlan::new(), |plan, i| plan.at(SimTime(40_000), Fault::Crash(NodeId(i))));
        let mut sim = counter_cluster(crash_all);
        for _ in 0..100 {
            sim.run_for(SLICE);
            assert!(!settled(&sim), "settled at {}", sim.now());
        }
        let (_, converged) = drive(&mut sim, SimTime(1_000_000));
        assert!(!converged);
    }
}
