//! End-to-end run harness: build a cluster for one of the three
//! systems, drive the workload to completion, and measure.
//!
//! [`assemble`] is the one place a [`RunConfig`] becomes a prepared
//! simulator cluster; [`Runner`] and every test or example that steps
//! a cluster by hand start from it, and step it with
//! [`drive`] or until [`settled`](crate::settled).
//!
//! The entry point is [`Runner`]: pick a [`System`], build a
//! [`RunConfig`] (builder-style, starting from [`RunConfig::for_nodes`]
//! or [`RunConfig::new`]), and call [`Runner::run`] with the object
//! spec and coordination spec. The result is a [`RunOutcome`]: the
//! cluster-level [`RunReport`] (a plain value that prints itself), the
//! fabric's [`Stats`], the per-node [`NodeMetrics`], and — when
//! the config asks for [`TraceMode::Collect`] — the run's structured
//! [`TraceRecord`] stream.
//!
//! Measurements follow §5 "Platform and setup": *throughput* is the
//! total number of calls divided by the (virtual) time it takes for all
//! update calls to be replicated on all nodes; *response time* is the
//! average over all calls (now also reported as per-phase
//! p50/p90/p99/max distributions).

use hamband_core::coord::CoordSpec;
use hamband_core::counts::CountMap;
use hamband_core::ids::Pid;
use hamband_core::object::WorkloadSupport;
use rdma_sim::{
    App, FaultPlan, LatencyModel, NodeId, Phase, SimTime, Simulator, Stats, TraceRecord,
};

use crate::backends::dispatch_replicas;
pub use crate::backends::Backend;
use crate::baseline_msg::MsgCrdtNode;
use crate::config::RuntimeConfig;
use crate::driver::WorkloadSpec;
use crate::ingress::SessionStats;
use crate::layout::Layout;
use crate::metrics::{mean_us, FairnessSummary, LatencyHistogram, NodeMetrics, RunReport};
use crate::replica::HambandNode;
use crate::verdict::{drive, HarnessNode};

/// Which replication system to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// Hamband: per-category coordination (the paper's contribution).
    Hamband,
    /// A Mu-style SMR: the same runtime with a *complete* conflict
    /// relation, so every update is ordered by a single leader —
    /// "linearizable data types are a special case of WRDTs where the
    /// conflict relation is complete" (§3.2). [`Runner`] applies the
    /// complete relation internally; the coordination spec passed to
    /// [`Runner::run`] only contributes its method count. It also forces
    /// `sync_shards = 1` (one log) and `max_batch = 1` (Mu posts one
    /// WRITE per request per follower).
    MuSmr,
    /// Message-passing op-based CRDT replication (conflict-free objects
    /// only).
    Msg,
}

impl System {
    /// Harness label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            System::Hamband => "hamband",
            System::MuSmr => "mu-smr",
            System::Msg => "msg",
        }
    }
}

/// Whether a run collects its structured trace
/// ([`rdma_sim::TraceEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Nothing collected — hot paths pay one branch per would-be event
    /// and never construct it.
    #[default]
    Off,
    /// Events collected in memory and returned in
    /// [`RunOutcome::events`], on either backend.
    Collect,
}

/// Everything needed to run one experiment.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Cluster size.
    pub nodes: usize,
    /// The workload to apply.
    pub workload: WorkloadSpec,
    /// Runtime tuning.
    pub runtime: RuntimeConfig,
    /// Fabric latency model.
    pub latency: LatencyModel,
    /// Fabric RNG seed.
    pub seed: u64,
    /// Faults to inject.
    pub faults: FaultPlan,
    /// Hard cap on virtual time (a run that exceeds it reports
    /// `converged = false`).
    pub max_time: SimTime,
    /// Explicit leader assignment per synchronization group
    /// (defaults to the coordination spec's round-robin assignment;
    /// used e.g. by the Fig. 10 single-leader ablation).
    pub leaders: Option<Vec<Pid>>,
    /// Whether this run collects trace events.
    pub trace: TraceMode,
    /// Which transport backend executes the run (defaults to
    /// [`Backend::Sim`]).
    pub backend: Backend,
}

/// The summary-slot capacity a run of `workload` needs, at least `cap`:
/// grow-only summaries accumulate every call their issuer folded in.
fn summary_cap_for(cap: usize, workload: &WorkloadSpec) -> usize {
    cap.max(workload.total_ops as usize * 16)
}

impl RunConfig {
    /// A default configuration for `nodes` nodes and `workload`.
    ///
    /// The summary-slot capacity is scaled to the workload.
    pub fn new(nodes: usize, workload: WorkloadSpec) -> Self {
        assert!(nodes >= 1, "a cluster needs at least one node");
        let mut runtime = RuntimeConfig::default();
        runtime.summary_payload_cap = summary_cap_for(runtime.summary_payload_cap, &workload);
        RunConfig {
            nodes,
            workload,
            runtime,
            latency: LatencyModel::default(),
            seed: 0x5eed,
            faults: FaultPlan::new(),
            max_time: SimTime(200_000_000), // 200 virtual milliseconds
            leaders: None,
            trace: TraceMode::Off,
            backend: Backend::Sim,
        }
    }

    /// Builder entry point: a validated default configuration for an
    /// `nodes`-node cluster with a small mixed workload (1000 calls,
    /// 25% updates). Chain `with_*` calls to customize.
    pub fn for_nodes(nodes: usize) -> Self {
        RunConfig::new(nodes, WorkloadSpec::ops(1_000).with_update_ratio(0.25))
    }

    /// Replace the workload (re-scales the summary-slot capacity the
    /// same way [`RunConfig::new`] does).
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.runtime.summary_payload_cap =
            summary_cap_for(self.runtime.summary_payload_cap, &workload);
        self.workload = workload;
        self
    }

    /// Inject this fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Use this fabric latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Use this fabric RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Collect trace events, or not.
    pub fn with_trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Assign these initial leaders (one per synchronization group).
    pub fn with_leaders(mut self, leaders: Vec<Pid>) -> Self {
        self.leaders = Some(leaders);
        self
    }

    /// Cap the run at this much virtual time.
    pub fn with_max_time(mut self, max_time: SimTime) -> Self {
        assert!(max_time > SimTime::ZERO, "max_time must be positive");
        self.max_time = max_time;
        self
    }

    /// Replace the runtime tuning wholesale.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = runtime;
        self
    }

    /// Execute the run on this backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Key shards per synchronization group (see
    /// [`RuntimeConfig::sync_shards`]); keeps the rest of the runtime
    /// tuning (including the workload-derived summary cap) intact.
    pub fn with_sync_shards(mut self, shards: usize) -> Self {
        self.runtime = self.runtime.with_sync_shards(shards);
        self
    }
}

/// Everything one [`Runner::run`] produces.
#[derive(Debug)]
pub struct RunOutcome {
    /// The cluster-level summary.
    pub report: RunReport,
    /// The structured trace, in time order (empty unless the config
    /// asked for [`TraceMode::Collect`]). On [`Backend::Threaded`] the
    /// times are wall-clock nanoseconds, each node's events keep their
    /// own order, and there are no verb events (the fabric emits
    /// those).
    pub events: Vec<TraceRecord>,
    /// Per-node metric accumulators, indexed by node id (covers every
    /// node, failed ones included — their pre-failure work is real
    /// work).
    pub node_metrics: Vec<NodeMetrics>,
    /// Fabric traffic counters for the whole run.
    pub stats: Stats,
}

/// A node's final object state at the end of a run, alongside whether
/// the node was still participating. Produced by
/// [`Runner::run_with_states`] for integrity checks that need to look
/// at the states themselves (e.g. chaos-campaign invariant checks),
/// which [`RunOutcome`] — being object-agnostic — cannot carry.
#[derive(Debug, Clone)]
pub struct NodeEndState<S> {
    /// Whether the node finished the run alive (not crashed, not
    /// halted by a fault).
    pub alive: bool,
    /// Its final object-state snapshot (for a crashed node: the state
    /// at the moment it stopped executing).
    pub state: S,
    /// One-line status snapshot taken at the same moment (rendered
    /// from the node's structured status; used by chaos failure
    /// reports so a non-converged case shows *why* each node stalled).
    pub status: String,
    /// Update calls the node applied, per (issuer, method).
    pub applied: CountMap,
    /// Completion stats of the client sessions the node served.
    pub sessions: Vec<SessionStats>,
}

/// One experiment: a [`System`] plus a [`RunConfig`].
///
/// ```
/// use hamband_runtime::{Runner, RunConfig, System, WorkloadSpec};
/// use hamband_types::Counter;
///
/// let c = Counter::default();
/// let config =
///     RunConfig::for_nodes(3).with_workload(WorkloadSpec::ops(300).with_update_ratio(0.5));
/// let outcome = Runner::new(System::Hamband, config).run(&c, &c.coord_spec());
/// assert!(outcome.report.converged);
/// println!("{}", outcome.report);
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    system: System,
    config: RunConfig,
    label: Option<String>,
}

impl Runner {
    /// An experiment running `system` under `config`.
    pub fn new(system: System, config: RunConfig) -> Self {
        Runner { system, config, label: None }
    }

    /// Override the report label (defaults to the system's label).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The system this runner drives.
    pub fn system(&self) -> System {
        self.system
    }

    /// The configuration this runner applies.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// Build the cluster, drive the workload to completion, and
    /// measure. One call covers all three systems: Mu-SMR substitutes
    /// the complete conflict relation for `coord`, MSG swaps in the
    /// message-passing replica.
    pub fn run<O>(&self, spec: &O, coord: &CoordSpec) -> RunOutcome
    where
        O: WorkloadSupport + Clone + Send,
        O::Update: Send,
        O::State: Send,
    {
        self.run_with_states(spec, coord).0
    }

    /// Like [`Runner::run`], additionally returning every node's final
    /// object state and aliveness — the inputs an integrity check
    /// (does each final state satisfy the object's invariant?) needs.
    pub fn run_with_states<O>(
        &self,
        spec: &O,
        coord: &CoordSpec,
    ) -> (RunOutcome, Vec<NodeEndState<O::State>>)
    where
        O: WorkloadSupport + Clone + Send,
        O::Update: Send,
        O::State: Send,
    {
        let label = self.label.as_deref().unwrap_or(self.system.label());
        match self.system {
            System::Hamband => dispatch_replicas(spec, coord, &self.config, label),
            System::MuSmr => {
                // SMR orders *every* update through the one log: under
                // the complete conflict relation cross-key calls
                // conflict too, so key sharding would be unsound here
                // and is forced off regardless of the configured shard
                // count. And the baseline is Mu as published: one WRITE
                // per request per follower, the commit piggybacked on
                // the next — coalescing a burst of appends into one
                // WRITE is this runtime's doing, not Mu's, so the
                // baseline runs without it (DESIGN.md §2).
                let mut config = self.config.clone();
                config.runtime.sync_shards = 1;
                config.runtime.max_batch = 1;
                dispatch_replicas(spec, &complete_coord(spec.method_count()), &config, label)
            }
            System::Msg => {
                assert!(
                    self.config.backend == Backend::Sim,
                    "System::Msg runs only on Backend::Sim (the {} backend has no \
                     message-passing replica wiring)",
                    self.config.backend.label()
                );
                run_msg_cluster(spec, coord, &self.config, label)
            }
        }
    }
}

/// The complete conflict relation over `n_methods` methods: one
/// synchronization group containing every method (the SMR special
/// case).
fn complete_coord(n_methods: usize) -> CoordSpec {
    let mut b = CoordSpec::builder(n_methods);
    for m in 0..n_methods {
        b = b.conflict(0, m);
        b = b.conflict(m, m);
    }
    b.build()
}

/// Gather a finished cluster into the run's outcome and its per-node
/// end states (shared by both backends and both replica kinds).
/// `nodes` pairs each replica with whether the fabric crashed it.
pub(crate) fn collect<A: HarnessNode, O: WorkloadSupport>(
    nodes: &[(&A, bool)],
    spec: &O,
    label: &str,
    completed_at: SimTime,
    converged: bool,
    stats: Stats,
    events: Vec<TraceRecord>,
) -> (RunOutcome, Vec<NodeEndState<A::Snapshot>>) {
    // Metrics cover every node: a failed node's pre-failure work is
    // real work (the paper counts all calls); only convergence and
    // completion checks exclude it.
    let node_metrics: Vec<NodeMetrics> = nodes.iter().map(|(a, _)| a.metrics().clone()).collect();
    let sessions: Vec<Vec<SessionStats>> = nodes.iter().map(|(a, _)| a.session_stats()).collect();
    let report = summarize(
        label,
        nodes.len(),
        &node_metrics,
        &sessions.concat(),
        spec,
        completed_at,
        converged,
        &stats,
    );
    let states = nodes
        .iter()
        .zip(sessions)
        .map(|(&(a, crashed), sessions)| NodeEndState {
            alive: !crashed && !a.is_halted(),
            state: a.snapshot(),
            status: a.status_line(),
            applied: a.applied_map().clone(),
            sessions,
        })
        .collect();
    (RunOutcome { report, events, node_metrics, stats }, states)
}

/// Drive a prepared simulator cluster to completion and collect it.
fn drive_and_collect<A: HarnessNode, O: WorkloadSupport>(
    mut sim: Simulator<A>,
    spec: &O,
    run: &RunConfig,
    label: &str,
) -> (RunOutcome, Vec<NodeEndState<A::Snapshot>>) {
    let (completed_at, converged) = drive(&mut sim, run.max_time);
    let events = sim.take_trace();
    let nodes: Vec<(&A, bool)> =
        (0..run.nodes).map(NodeId).map(|id| (sim.app(id), sim.is_crashed(id))).collect();
    collect(&nodes, spec, label, completed_at, converged, sim.stats().clone(), events)
}

/// Build the prepared simulator cluster `run` describes, ready to be
/// stepped: fabric (latency model, seed), trace collection, the
/// registered [`Layout`], the fault plan, and one [`HambandNode`] per
/// node with `run.leaders` (or the default round-robin assignment) as
/// initial leaders. Returns the simulator and the layout the replicas
/// share; under [`TraceMode::Collect`], `sim.take_trace()` drains the
/// events recorded so far.
///
/// This is the only assembly routine: [`Runner`] hands what it returns
/// to [`drive`], and tests or examples that need to step a cluster by
/// hand (inject mid-run state, watch an election) or look into the
/// nodes afterwards do the same, instead of wiring `Layout` and
/// replicas themselves:
///
/// ```
/// use hamband_runtime::{assemble, drive, RunConfig};
/// use hamband_types::Counter;
/// use rdma_sim::NodeId;
///
/// let c = Counter::default();
/// let run = RunConfig::for_nodes(3);
/// let (mut sim, _layout) = assemble(&c, &c.coord_spec(), &run);
/// let (_completed_at, converged) = drive(&mut sim, run.max_time);
/// assert!(converged);
/// assert_eq!(sim.app(NodeId(0)).applied_updates(), 250);
/// ```
///
/// To watch something else while stepping, step it yourself
/// (`sim.run_for(..)`) until [`settled`](crate::settled) holds.
pub fn assemble<O>(
    spec: &O,
    coord: &CoordSpec,
    run: &RunConfig,
) -> (Simulator<HambandNode<O>>, Layout)
where
    O: WorkloadSupport + Clone,
{
    let mut sim = new_simulator(run);
    let layout = Layout::install(&mut sim, coord, &run.runtime);
    sim.install_fault_plan(&run.faults);
    sim.set_apps(|id| {
        let leaders = run.leaders.as_deref();
        HambandNode::new(spec, coord, &run.runtime, &layout, id, leaders, &run.workload)
    });
    (sim, layout)
}

/// The fabric `run` describes, collecting its trace if asked to.
fn new_simulator<A: App>(run: &RunConfig) -> Simulator<A> {
    let mut sim = Simulator::new(run.nodes, run.latency.clone(), run.seed);
    if run.trace == TraceMode::Collect {
        sim.collect_trace();
    }
    sim
}

pub(crate) fn run_replicas<O>(
    spec: &O,
    coord: &CoordSpec,
    run: &RunConfig,
    label: &str,
) -> (RunOutcome, Vec<NodeEndState<O::State>>)
where
    O: WorkloadSupport + Clone,
{
    let (sim, _layout) = assemble(spec, coord, run);
    drive_and_collect(sim, spec, run, label)
}

fn run_msg_cluster<O>(
    spec: &O,
    coord: &CoordSpec,
    run: &RunConfig,
    label: &str,
) -> (RunOutcome, Vec<NodeEndState<O::State>>)
where
    O: WorkloadSupport + Clone,
{
    let n = run.nodes;
    let mut sim: Simulator<MsgCrdtNode<O>> = new_simulator(run);
    sim.install_fault_plan(&run.faults);
    sim.set_apps(|id| MsgCrdtNode::new(spec.clone(), coord.clone(), id, n, run.workload.clone()));
    drive_and_collect(sim, spec, run, label)
}

/// Cross-session fairness over every session's completion stats: how
/// evenly the combiners served their client populations, measured over
/// the run's virtual completion time.
fn summarize_fairness(sessions: &[SessionStats], completed_at: SimTime) -> Option<FairnessSummary> {
    if sessions.is_empty() {
        return None;
    }
    let elapsed_sec = (completed_at.as_micros() / 1e6).max(1e-12);
    let completed: Vec<u64> = sessions.iter().map(|s| s.completed()).collect();
    let total: u64 = completed.iter().sum();
    let min = *completed.iter().min().expect("non-empty") as f64 / elapsed_sec;
    let max = *completed.iter().max().expect("non-empty") as f64 / elapsed_sec;
    let sum_sq: f64 = completed.iter().map(|&c| (c as f64) * (c as f64)).sum();
    let jain = if sum_sq > 0.0 {
        let s = total as f64;
        s * s / (sessions.len() as f64 * sum_sq)
    } else {
        1.0 // nobody completed anything: evenly (non-)served
    };
    // p99 across sessions of per-session mean update response time.
    let mut rts: Vec<f64> =
        sessions.iter().filter(|s| s.acked > 0).map(|s| s.mean_rt_us()).collect();
    rts.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
    let p99 = if rts.is_empty() {
        0.0
    } else {
        let rank = ((0.99 * rts.len() as f64).ceil() as usize).clamp(1, rts.len());
        rts[rank - 1]
    };
    Some(FairnessSummary {
        sessions: sessions.len(),
        ops_per_user_per_sec: total as f64 / sessions.len() as f64 / elapsed_sec,
        min_session_ops_per_sec: min,
        max_session_ops_per_sec: max,
        p99_session_rt_us: p99,
        jain_index: jain,
    })
}

#[allow(clippy::too_many_arguments)]
fn summarize<O: WorkloadSupport>(
    label: &str,
    nodes: usize,
    metrics: &[NodeMetrics],
    sessions: &[SessionStats],
    spec: &O,
    completed_at: SimTime,
    converged: bool,
    stats: &Stats,
) -> RunReport {
    let names = spec.method_names();
    let mut total_calls = 0u64;
    let mut total_updates = 0u64;
    let mut forfeited = 0u64;
    let mut rt = LatencyHistogram::default();
    // Per method name: calls acked and their response times' sum.
    let mut per_method: std::collections::BTreeMap<String, (u64, u64)> = Default::default();
    let mut per_phase: [LatencyHistogram; 4] = Default::default();
    for m in metrics {
        total_calls += m.updates_acked + m.queries;
        total_updates += m.updates_acked;
        forfeited += m.forfeited;
        rt.merge(&m.rt);
        for (mid, &(count, sum_ns)) in m.rt_per_method.iter().enumerate() {
            if count > 0 {
                let name = names.get(mid).copied().unwrap_or("?");
                let (total, sum) = per_method.entry(name.to_string()).or_default();
                *total += count;
                *sum = sum.saturating_add(sum_ns);
            }
        }
        for p in Phase::ALL {
            per_phase[p.index()].merge(&m.rt_per_phase[p.index()]);
        }
    }
    let elapsed_us = completed_at.as_micros().max(1e-9);
    RunReport {
        system: label.to_string(),
        nodes,
        total_calls,
        total_updates,
        forfeited,
        completed_at,
        throughput_ops_per_us: total_calls as f64 / elapsed_us,
        mean_rt_us: rt.mean_us(),
        writes_per_op: if total_updates > 0 {
            stats.writes as f64 / total_updates as f64
        } else {
            0.0
        },
        cpu_busy_ns: stats.cpu_busy_ns.clone(),
        cpu_post_ns: stats.cpu_post_ns.clone(),
        isolated_busy_ns: stats.isolated_busy_ns.clone(),
        nic_busy_ns: stats.nic_busy_ns.clone(),
        summary_adoptions: metrics.iter().map(|m| m.summary_adoptions).collect(),
        rt_per_method_us: per_method
            .into_iter()
            .map(|(k, (count, sum_ns))| (k, mean_us(count, sum_ns)))
            .collect(),
        phases: Phase::ALL
            .iter()
            .filter(|p| !per_phase[p.index()].is_empty())
            .map(|p| (p.label().to_string(), per_phase[p.index()].summarize()))
            .collect(),
        converged,
        fairness: summarize_fairness(sessions, completed_at),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_coord_is_one_group() {
        let c = complete_coord(4);
        assert_eq!(c.sync_groups().len(), 1);
        assert_eq!(c.sync_groups()[0].len(), 4);
        for m in 0..4 {
            assert!(c.category(hamband_core::ids::MethodId(m)).is_conflicting());
        }
    }

    /// The baseline is Mu as published — one WRITE per entry per
    /// follower — whatever coalescing the configuration allows Hamband.
    #[test]
    fn mu_smr_baseline_never_coalesces() {
        let c = hamband_types::Counter::default();
        let workload = WorkloadSpec::ops(600).with_update_ratio(1.0).with_window(8);
        let config = RunConfig::for_nodes(3).with_workload(workload);
        assert_eq!(config.runtime.max_batch, 16);
        let out = Runner::new(System::MuSmr, config).run(&c, &c.coord_spec());
        assert!(out.report.converged);
        assert_eq!(
            out.stats.ring_slots,
            600 * 2,
            "every add goes through the log, to both followers"
        );
        assert_eq!(out.stats.ring_writes, out.stats.ring_slots);
    }

    #[test]
    fn system_labels() {
        assert_eq!(System::Hamband.label(), "hamband");
        assert_eq!(System::MuSmr.label(), "mu-smr");
        assert_eq!(System::Msg.label(), "msg");
    }

    #[test]
    fn config_builders_compose() {
        let rc = RunConfig::for_nodes(5)
            .with_workload(WorkloadSpec::ops(10_000).with_update_ratio(0.5))
            .with_seed(42)
            .with_trace(TraceMode::Collect)
            .with_max_time(SimTime(1_000_000));
        assert_eq!(rc.nodes, 5);
        assert_eq!(rc.workload.total_ops, 10_000);
        assert_eq!(rc.seed, 42);
        assert_eq!(rc.trace, TraceMode::Collect);
        assert_eq!(rc.max_time, SimTime(1_000_000));
        // with_workload re-scales the summary cap like new() does.
        assert!(rc.runtime.summary_payload_cap >= 10_000 * 16);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_config_is_rejected() {
        let _ = RunConfig::for_nodes(0);
    }

    #[test]
    fn runner_exposes_system_and_config() {
        let r = Runner::new(System::MuSmr, RunConfig::for_nodes(3));
        assert_eq!(r.system(), System::MuSmr);
        assert_eq!(r.config().nodes, 3);
    }

    #[test]
    fn backend_labels_and_default() {
        assert_eq!(Backend::Sim.label(), "sim");
        assert_eq!(Backend::Threaded.label(), "threaded");
        assert_eq!(Backend::default(), Backend::Sim);
    }

    #[test]
    fn threaded_backend_runs_through_runner() {
        let c = hamband_types::Counter::default();
        let config = RunConfig::new(3, WorkloadSpec::ops(150).with_update_ratio(0.5))
            .with_backend(Backend::Threaded)
            // Wall-clock cap for the threaded backend.
            .with_max_time(SimTime(30_000_000_000));
        let outcome = Runner::new(System::Hamband, config).run(&c, &c.coord_spec());
        assert!(outcome.report.converged, "threaded run did not converge");
        assert_eq!(outcome.report.total_calls, 150);
        assert!(outcome.stats.writes > 0, "threaded stats not collected");
    }

    /// The pooled conflicting quota is issued by whoever leads the
    /// group, so the applied map names the leader.
    #[test]
    fn threaded_backend_honours_leaders() {
        use hamband_types::bank::WITHDRAW;
        let b = hamband_types::Bank::default();
        let config = RunConfig::new(3, WorkloadSpec::ops(150).with_update_ratio(0.8))
            .with_backend(Backend::Threaded)
            .with_leaders(vec![Pid(2)])
            .with_max_time(SimTime(30_000_000_000));
        let (outcome, states) =
            Runner::new(System::Hamband, config).run_with_states(&b, &b.coord_spec());
        assert!(outcome.report.converged, "threaded run did not converge");
        let withdrawals = |issuer| states[0].applied.get(Pid(issuer), WITHDRAW);
        assert!(withdrawals(2) > 0 && withdrawals(0) == 0, "node 2 leads, not the default node 0");
    }

    #[test]
    #[should_panic(expected = "cannot inject faults")]
    fn cluster_backends_reject_fault_plans() {
        let c = hamband_types::Counter::default();
        let faults = FaultPlan::new().at(SimTime(1_000), rdma_sim::Fault::Crash(NodeId(0)));
        let config = RunConfig::for_nodes(3).with_backend(Backend::Threaded).with_faults(faults);
        let _ = Runner::new(System::Hamband, config).run(&c, &c.coord_spec());
    }

    #[test]
    #[should_panic(expected = "only on Backend::Sim")]
    fn msg_system_rejects_cluster_backends() {
        let c = hamband_types::Counter::default();
        let config = RunConfig::for_nodes(3).with_backend(Backend::Threaded);
        let _ = Runner::new(System::Msg, config).run(&c, &c.coord_spec());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Over random acks and queries spread across three nodes, the
        /// report's per-method means are the exact means of each
        /// method's samples, a method never acked is absent from it,
        /// and each node's overall histogram sees every call. Bank has
        /// three methods; method 3 stands for a query.
        #[test]
        fn per_method_means_are_exact_and_name_only_acked_methods(
            calls in proptest::collection::vec((0usize..3, 0usize..4, 0u64..1 << 40), 0..40),
        ) {
            use hamband_core::object::ObjectSpec;
            let bank = hamband_types::bank::Bank::new(8, 10);
            let names = bank.method_names();
            let mut metrics = vec![NodeMetrics::default(); 3];
            let mut expected = std::collections::BTreeMap::<&str, (u64, u64)>::new();
            let mut per_node = [(0u64, 0u64); 3];
            for &(node, method, rt) in &calls {
                let m = &mut metrics[node];
                if method == 3 {
                    m.ack_query(rdma_sim::SimDuration::nanos(rt));
                } else {
                    m.ack_update(method, Phase::ALL[method], SimTime(7), SimTime(7 + rt));
                    let (count, sum) = expected.entry(names[method]).or_default();
                    *count += 1;
                    *sum += rt;
                }
                per_node[node] = (per_node[node].0 + 1, per_node[node].1.max(rt));
            }
            let report = summarize(
                "hamband", 3, &metrics, &[], &bank, SimTime(1_000), true, &Stats::default(),
            );
            let means: std::collections::BTreeMap<String, f64> = expected
                .iter()
                .map(|(name, &(count, sum))| (name.to_string(), sum as f64 / count as f64 / 1_000.0))
                .collect();
            proptest::prop_assert_eq!(&report.rt_per_method_us, &means);
            for (m, &(count, max)) in metrics.iter().zip(&per_node) {
                proptest::prop_assert_eq!(m.rt.count(), count);
                proptest::prop_assert_eq!(m.rt.count(), m.updates_acked + m.queries);
                proptest::prop_assert_eq!(m.rt.max_ns(), max);
            }
        }
    }
}
