//! One OS thread per replica: spawn, drive, converge, join.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hamband_core::coord::CoordSpec;
use hamband_core::object::WorkloadSupport;
use rdma_sim::{Event, NodeId, SimDuration, Stats, TraceRecord};

use super::ctx::ThreadedCtx;
use super::shared::SharedMem;
use crate::harness::{RunConfig, TraceMode};
use crate::layout::Layout;
use crate::replica::HambandNode;
use crate::transport::Transport;
use crate::verdict::{nodes_settled, states_agree};

/// How many cross-thread messages one event-loop iteration handles
/// before re-checking timers — bounds iteration length so heartbeats
/// and yields stay regular under message bursts.
const MSG_BUDGET: usize = 64;

/// Consecutive stable observations (all nodes done, applied counts
/// equal) the convergence poller requires before initiating shutdown.
const STABLE_POLLS: usize = 3;

/// A whole Hamband cluster, one OS thread per replica, over
/// process-shared atomic memory and real wall-clock timers.
pub(crate) struct ThreadedCluster<O: WorkloadSupport> {
    nodes: Vec<HambandNode<O>>,
    ctxs: Vec<ThreadedCtx>,
    receivers: Vec<Receiver<Event>>,
}

impl<O> ThreadedCluster<O>
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: PartialEq + Send,
{
    /// Build the cluster `run` describes, like
    /// [`assemble`](crate::assemble) does for the simulator: allocate
    /// the standard region [`Layout`] in shared memory and construct
    /// each replica with `run.leaders` (or the coordination spec's
    /// default leaders), each recording its own trace under
    /// [`TraceMode::Collect`].
    ///
    /// Failure-detection timers are stretched to wall-clock scale
    /// (heartbeat 2 ms, detector read 5 ms, suspicion after 200
    /// unchanged reads ≈ 1 s of silence): the simulator's
    /// microsecond-scale defaults would let ordinary OS scheduling
    /// jitter — a preempted replica thread on a loaded box — trip the
    /// detector and trigger spurious elections. The threaded backend
    /// injects no faults, so nothing is lost by suspecting slowly.
    pub(crate) fn new(spec: &O, coord: &CoordSpec, run: &RunConfig) -> ThreadedCluster<O> {
        let n = run.nodes;
        let mut cfg = run.runtime.clone();
        cfg.heartbeat_interval = SimDuration::millis(2);
        cfg.fd_interval = SimDuration::millis(5);
        cfg.fd_suspect_after = 200;
        let mut mem = SharedMem::new(n);
        // No restart faults on the threaded backend either: the
        // durable flag is accepted and ignored.
        let layout = Layout::plan(n, coord, &cfg, |size, _durable| mem.add_region_all(size));
        let mem = Arc::new(mem);
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let epoch = Instant::now();
        let collect = run.trace == TraceMode::Collect;
        let ctxs = (0..n)
            .map(|i| {
                ThreadedCtx::new(NodeId(i), n, Arc::clone(&mem), senders.clone(), epoch, collect)
            })
            .collect();
        let leaders = run.leaders.as_deref();
        let nodes = (0..n)
            .map(|i| {
                HambandNode::new(spec, coord, &cfg, &layout, NodeId(i), leaders, &run.workload)
            })
            .collect();
        ThreadedCluster { nodes, ctxs, receivers }
    }

    /// Spawn one thread per replica (once: the replicas are started
    /// here) and run until every replica
    /// reports [`workload_done`](HambandNode::workload_done) and all
    /// applied counts agree (observed stable across several polls), or
    /// until `limit` of wall time passes. Threads are joined before
    /// returning; the result is the *post-join* authoritative check —
    /// the cluster verdict of [`crate::verdict`] (every replica alive:
    /// no fault is injected here) and identical state snapshots.
    pub(crate) fn run_to_convergence(&mut self, limit: Duration) -> bool {
        let n = self.nodes.len();
        let shutdown = AtomicBool::new(false);
        let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let applied: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for (i, ((node, ctx), rx)) in self
                .nodes
                .iter_mut()
                .zip(self.ctxs.iter_mut())
                .zip(self.receivers.iter_mut())
                .enumerate()
            {
                let (shutdown, done, applied) = (&shutdown, &done[i], &applied[i]);
                s.spawn(move || replica_thread(node, ctx, rx, shutdown, done, applied));
            }
            // Convergence poller (runs on the caller's thread).
            let mut stable = 0usize;
            while stable < STABLE_POLLS {
                std::thread::sleep(Duration::from_millis(1));
                if start.elapsed() >= limit {
                    break;
                }
                let all_done = done.iter().all(|d| d.load(Ordering::Acquire));
                let a0 = applied[0].load(Ordering::Acquire);
                let agree = applied.iter().all(|a| a.load(Ordering::Acquire) == a0);
                stable = if all_done && agree { stable + 1 } else { 0 };
            }
            shutdown.store(true, Ordering::Release);
        });
        let nodes: Vec<_> = self.nodes.iter().map(Some).collect();
        nodes_settled(&nodes) && states_agree(&nodes)
    }

    /// The replica that ran on thread `i` (post-run assertions).
    pub(crate) fn node(&self, i: usize) -> &HambandNode<O> {
        &self.nodes[i]
    }

    /// Fabric traffic counters, summed across the replica threads.
    pub(crate) fn stats(&self) -> Stats {
        let mut total = Stats::new(self.nodes.len());
        for ctx in &self.ctxs {
            total += &ctx.stats;
        }
        total
    }

    /// The threads' traces as one, in wall-clock order: concatenated,
    /// then stable-sorted by time, which keeps each thread's own order.
    /// Drains them (empty when the run collects none).
    pub(crate) fn take_trace(&mut self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> = self
            .ctxs
            .iter_mut()
            .filter_map(|c| c.trace.as_mut())
            .flat_map(std::mem::take)
            .collect();
        all.sort_by_key(|r| r.at);
        all
    }
}

/// Handle every synchronous verb completion queued so far (handlers may
/// post more). Returns whether any ran on the application CPU.
fn drain_completions<O: WorkloadSupport>(node: &mut HambandNode<O>, ctx: &mut ThreadedCtx) -> bool {
    let mut on_app_cpu = false;
    while let Some(ev) = ctx.local_q.pop_front() {
        on_app_cpu |= node.handle_event(ctx, ev);
    }
    on_app_cpu
}

/// The per-replica event loop. Each iteration handles a bounded batch
/// of cross-thread messages and every due timer, plans once for all of
/// them, handles the completions of what the plan posted, then
/// publishes progress and yields the core — the yield is what keeps an
/// n-thread cluster live on fewer-than-n cores.
fn replica_thread<O: WorkloadSupport>(
    node: &mut HambandNode<O>,
    ctx: &mut ThreadedCtx,
    rx: &mut Receiver<Event>,
    shutdown: &AtomicBool,
    done: &AtomicBool,
    applied: &AtomicU64,
) {
    node.start(ctx);
    // Whether anything handled since the last plan ran on the
    // application CPU.
    let mut owes_plan = false;
    loop {
        for _ in 0..MSG_BUDGET {
            let Ok(ev) = rx.try_recv() else { break };
            owes_plan |= node.handle_event(ctx, ev);
            owes_plan |= drain_completions(node, ctx);
        }
        // Timers armed while firing land strictly later than `now`,
        // so this inner loop terminates.
        let now = ctx.now();
        while let Some(ev) = ctx.pop_due_timer(now) {
            owes_plan |= node.handle_event(ctx, ev);
            owes_plan |= drain_completions(node, ctx);
        }
        // Everything that was due is handled: plan once.
        if std::mem::take(&mut owes_plan) {
            node.pump(ctx);
        }
        // Verbs complete synchronously here, so what the plan posted is
        // already due: acknowledge it before giving up the core. The
        // plan those completions owe is the next iteration's.
        owes_plan |= drain_completions(node, ctx);
        done.store(node.workload_done(), Ordering::Release);
        applied.store(node.applied_updates(), Ordering::Release);
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::WorkloadSpec;
    use hamband_types::Counter;

    /// The tentpole smoke test: a 3-node Counter cluster converges on
    /// real OS threads over shared atomic memory, each thread tracing
    /// into its own buffer.
    #[test]
    fn three_node_counter_converges_on_threads() {
        let spec = Counter::default();
        let coord = spec.coord_spec();
        let workload = WorkloadSpec::ops(300).with_update_ratio(1.0).with_seed(7);
        let run = RunConfig::new(3, workload).with_trace(TraceMode::Collect);
        let mut cluster = ThreadedCluster::new(&spec, &coord, &run);
        assert!(
            cluster.run_to_convergence(Duration::from_secs(30)),
            "threaded cluster failed to converge: {}",
            (0..3).map(|i| cluster.node(i).status().to_string()).collect::<Vec<_>>().join(" | "),
        );
        let total = cluster.node(0).applied_updates();
        assert!(total > 0, "no updates applied");
        for i in 1..3 {
            assert_eq!(cluster.node(i).applied_updates(), total);
        }
        let stats = cluster.stats();
        // A fast run can converge before the first failure-detector
        // READ fires (5 ms wall-clock), so only WRITE traffic — which
        // every update necessarily generates — is asserted.
        assert!(stats.writes > 0, "no fabric traffic recorded");
        for (i, ctx) in cluster.ctxs.iter().enumerate() {
            let trace = ctx.trace.as_deref().expect("collecting");
            assert!(trace.windows(2).all(|w| w[0].at <= w[1].at), "node {i}'s clock went back");
        }
        let events = cluster.take_trace();
        assert!(!events.is_empty(), "no events collected");
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "merged in time order");
    }
}
