//! Execution backends for a harness run: which
//! [`Transport`](crate::transport::Transport) carries the replicas,
//! and the dispatch that routes a [`RunConfig`] to it.
//!
//! The replica state machine is identical everywhere; a backend only
//! decides who supplies memory, messaging, timers and time. The
//! simulator path stays in [`crate::harness`] (it owns the
//! `Simulator` plumbing and fault plans); this module holds the
//! threaded path.

use hamband_core::coord::CoordSpec;
use hamband_core::object::WorkloadSupport;
use rdma_sim::SimTime;

use crate::harness::{collect, run_replicas, NodeEndState, RunConfig, RunOutcome};
use crate::replica::HambandNode;
use crate::threaded::ThreadedCluster;

/// Which [`Transport`](crate::transport::Transport) backend executes
/// the run.
///
/// The replica state machine is identical across backends; what
/// changes is who supplies memory, messaging, timers and time:
///
/// * [`Backend::Sim`] — the [`rdma_sim`] discrete-event simulator:
///   virtual time, latency models, fault injection, trace collection.
///   The default, and the only backend for
///   [`System::Msg`](crate::System::Msg) and for runs with faults.
/// * [`Backend::Threaded`] — one OS thread per replica over
///   process-shared atomic memory, wall-clock timers. Here
///   [`RunConfig::max_time`] is a *wall-clock* cap (nanoseconds), and
///   reported times/latencies are wall-clock nanoseconds too, trace
///   timestamps included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Discrete-event simulation over [`rdma_sim`] (the default).
    #[default]
    Sim,
    /// One OS thread per replica, shared atomic memory, wall clock.
    Threaded,
}

impl Backend {
    /// Harness label used in panics and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Threaded => "threaded",
        }
    }
}

/// Route a Hamband-replica run (Hamband or Mu-SMR) to the configured
/// backend.
pub(crate) fn dispatch_replicas<O>(
    spec: &O,
    coord: &CoordSpec,
    run: &RunConfig,
    label: &str,
) -> (RunOutcome, Vec<NodeEndState<O::State>>)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    match run.backend {
        Backend::Sim => run_replicas(spec, coord, run, label),
        Backend::Threaded => run_threaded(spec, coord, run, label),
    }
}

fn run_threaded<O>(
    spec: &O,
    coord: &CoordSpec,
    run: &RunConfig,
    label: &str,
) -> (RunOutcome, Vec<NodeEndState<O::State>>)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    // Silently ignoring an injected fault plan would invalidate the
    // experiment: only the simulator can inject one.
    assert!(
        run.faults.entries().is_empty(),
        "the threaded backend cannot inject faults; use Backend::Sim"
    );
    let mut cluster = ThreadedCluster::new(spec, coord, run);
    // Threaded runs on the wall clock: max_time caps wall nanoseconds.
    let converged = cluster.run_to_convergence(std::time::Duration::from_nanos(run.max_time.0));
    let events = cluster.take_trace();
    // No fabric to crash a node here. Completion time is the latest
    // apply or query any node recorded — the same measure the simulator
    // path uses.
    let nodes: Vec<(&HambandNode<O>, bool)> =
        (0..run.nodes).map(|i| (cluster.node(i), false)).collect();
    let completed_at =
        nodes.iter().map(|(n, _)| n.metrics.done_at()).max().unwrap_or(SimTime::ZERO);
    collect(&nodes, spec, label, completed_at, converged, cluster.stats(), events)
}
