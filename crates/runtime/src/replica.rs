//! The Hamband replica node: a thin orchestrator over the protocol
//! modules.
//!
//! The actual protocol lives in one module per path (Fig. 7):
//!
//! * [`reduce`](crate::reduce) — reducible calls folded into summary
//!   slots and broadcast write-combined;
//! * [`free`](crate::free) — irreducible conflict-free calls appended
//!   to per-source `F` rings;
//! * [`conf`](crate::conf) — conflicting calls serialized by one
//!   [`GroupEngine`] per synchronization
//!   group, with [`commit`](crate::commit) advancement,
//!   [`election`](crate::election)/takeover, and
//!   [`recovery`](crate::recovery) around failures;
//! * [`calls`](crate::calls) — per-call lifecycle shared by all paths;
//! * [`views`](crate::views) — the mat/σ/spec_mat views and every apply.
//!
//! This module owns the [`HambandNode`] struct itself, startup, the
//! client pump, the completion/message dispatchers, and the
//! [`App`] event-loop glue. Everything runs over a generic
//! [`Transport`], so the same replica drives the discrete-event
//! simulator and the [`threaded`](crate::threaded) backend.
//!
//! Applying conflicting entries at commit rather than at issue is a
//! deliberate deviation from the paper's Fig. 7 (whose CONF rule
//! applies at the leader immediately): it is exactly Mu's execution
//! discipline, and it makes a deposed leader's unacknowledged calls
//! vanish without state rollback, so even a suspended leader converges
//! with the rest of the cluster. See DESIGN.md.

use std::collections::VecDeque;

use hamband_core::coord::{CoordSpec, GroupMapper};
use hamband_core::counts::CountMap;
use hamband_core::ids::Pid;
use hamband_core::object::{ObjectSpec, WorkloadSupport};
use hamband_core::wire::Wire;
use rdma_sim::{
    App, AppFault, CompletionStatus, Ctx, Event, IdMap, NodeId, RingKind, TraceEvent, VerbKind,
    WrId,
};

use crate::calls::{CallQueue, Route};
use crate::conf::GroupEngine;
use crate::config::{
    RuntimeConfig, CONF_RING_CAP, MAX_IN_FLIGHT, PERSIST_LOG_BYTES, POLL_COST, POLL_INTERVAL,
};
use crate::driver::WorkloadSpec;
use crate::heartbeat::{FailureDetector, Heartbeat};
use crate::ingress::Ingress;
use crate::layout::Layout;
use crate::messages::ControlMsg;
use crate::metrics::NodeMetrics;
use crate::persist::NodeLog;
use crate::recovery::FdHandoff;
use crate::reduce::CachedSummary;
use crate::rings::{RingReader, RingWriter};
use crate::transport::Transport;

pub(crate) const TAG_POLL: u64 = 0;
pub(crate) const TAG_HEARTBEAT: u64 = 1;
pub(crate) const TAG_FD: u64 = 2;
pub(crate) const TAG_RETRY: u64 = 3;
pub(crate) const TAG_FD_HANDOFF: u64 = 4;

/// Every node of an `n`-node cluster but `me`, in ascending order. A
/// free function, so a loop over a replica's peers may still borrow the
/// replica mutably in its body.
pub(crate) fn peers(me: NodeId, n: usize) -> impl Iterator<Item = NodeId> {
    (0..n).map(NodeId).filter(move |&q| q != me)
}

/// The Hamband replica application. One per simulated node.
pub struct HambandNode<O: ObjectSpec> {
    pub(crate) spec: O,
    pub(crate) coord: CoordSpec,
    pub(crate) cfg: RuntimeConfig,
    pub(crate) layout: Layout,
    pub(crate) me: NodeId,
    pub(crate) n: usize,

    /// Stored state σ (buffered calls only), kept only for an object
    /// whose summaries replace (`views.rs`).
    pub(crate) sigma: Option<O::State>,
    /// Committed view: σ with all summaries applied.
    pub(crate) mat: O::State,
    pub(crate) mat_dirty: bool,
    /// Speculative view including own uncommitted conflicting calls
    /// (`None` while there are none — then the view equals `mat`).
    pub(crate) spec_mat: Option<O::State>,
    /// Applied-calls map `A`, including summary-carried counts.
    pub(crate) applied: CountMap,
    /// Summary caches per (summarization group, source).
    pub(crate) sum_cache: Vec<Vec<CachedSummary<O::Update>>>,
    /// Write-combining, per (summarization group, peer): the version and
    /// work request of the one summary WRITE in flight (`None`: the
    /// channel is idle) — its completion is found by that id
    /// (`reduce.rs::summary_channel`) — and the version the last one
    /// that completed carried.
    pub(crate) sum_inflight: Vec<Vec<Option<(u64, WrId)>>>,
    pub(crate) sum_landed: Vec<Vec<u64>>,
    /// Per summarization group: the REDUCE calls in flight, by the
    /// version that folded them in (`calls.rs::ack_landed`).
    pub(crate) sum_acks: Vec<CallQueue>,
    /// Per summarization group: the own log's bytes, exactly what the
    /// own slot copy holds from offset 0 (`reduce.rs`).
    pub(crate) sum_log: Vec<Vec<u8>>,
    /// Per (summarization group, peer): how much of the own log that
    /// peer's copy holds once the WRITE in flight lands — the offset
    /// the next post starts at.
    pub(crate) sum_sent: Vec<Vec<usize>>,
    /// Per summarization group: whether calls were folded in since the
    /// last flush closed the pending record.
    pub(crate) sum_pending: Vec<bool>,
    /// Reusable buffer for the ring slot of the call being issued: the
    /// entry is encoded into it once and every peer's writer, the own
    /// ring copy and the log copy take the bytes.
    pub(crate) slot_buf: Vec<u8>,

    /// `F`-ring endpoints by peer (`None` at our own index); empty when
    /// the object has no irreducible conflict-free method.
    pub(crate) free_writers: Vec<Option<RingWriter>>,
    pub(crate) free_readers: Vec<Option<RingReader>>,
    /// One consensus engine per *mapped* group: each synchronization
    /// group contributes [`RuntimeConfig::sync_shards`] independent
    /// engines, with quotas, elections, and commit per shard.
    pub(crate) engines: Vec<GroupEngine>,

    pub(crate) hb: Heartbeat,
    pub(crate) fd: FailureDetector,
    /// Work the detector thread handed to the application CPU, oldest
    /// first; one [`TAG_FD_HANDOFF`] event each.
    pub(crate) fd_handoff: VecDeque<FdHandoff>,
    /// Peers whose conflict-free quota we already adopted.
    pub(crate) adopted: Vec<bool>,

    /// Flat-combining client ingress: the node's session slots and
    /// quota state; the pump is the combiner.
    pub(crate) ingress: Ingress,
    pub(crate) workload: WorkloadSpec,
    /// Exposed measurements.
    pub metrics: NodeMetrics,

    /// Seq of the next call this node mints: its `Rid` seq. Every call
    /// gets one, REDUCE calls included, so an entry's bytes do not
    /// depend on which paths the calls before it took.
    pub(crate) next_rid_seq: u64,
    /// The FREE calls in flight, by `F`-ring seq
    /// (`calls.rs::ack_landed`).
    pub(crate) free_acks: CallQueue,
    /// Per peer: the last `F`-ring seq an append completion spanned.
    pub(crate) free_landed: Vec<u64>,
    pub(crate) wr_routes: IdMap<WrId, Route>,
    /// Denied conflicting-ring writes awaiting retry: (group, target,
    /// seq). A denial means the target has not (yet) granted this
    /// leader write permission; retried until it does or until a higher
    /// epoch deposes us.
    pub(crate) conf_retries: Vec<(usize, NodeId, u64)>,
    pub(crate) retry_timer_armed: bool,
    pub(crate) halted: bool,
    /// The node's persist log (durability seam; `None` under
    /// [`DurabilityMode::Off`](crate::persist::DurabilityMode)).
    pub(crate) log: Option<NodeLog>,
    /// The initial per-mapped-group leader assignment, kept so a
    /// restart can rebuild the engines from scratch before replaying
    /// hard state over them.
    pub(crate) initial_leaders: Vec<Pid>,
    /// Set by crash-restart rejoin: the node participates fully in the
    /// protocol (polling, voting, delegate duties) but never issues
    /// workload again and never runs for leadership — its pre-crash
    /// client sessions are gone and peers already treat it as
    /// `Retired` for quota purposes.
    pub(crate) workload_retired: bool,
    /// Per mapped group: the highest epoch this node has adopted a
    /// leader at through the rejoin handshake (`JoinAck`) or a regular
    /// promise/announcement. A `JoinAck` is accepted only at this epoch
    /// or above, so a stale late ack can never flip permission grants
    /// away from a fresher leader — while the initial zero still lets
    /// the first ack in even when the replayed promise exceeds the
    /// current winning epoch (a dead pre-crash candidacy).
    pub(crate) join_epoch: Vec<u64>,
}

impl<O: WorkloadSupport> HambandNode<O> {
    /// Build the replica for node `me` of the cluster `layout` was
    /// planned for — the one constructor every backend's cluster
    /// assembly goes through.
    ///
    /// `layout` must come from [`Layout::plan`] with the same `coord`
    /// and `cfg` (in particular the same `cfg.sync_shards`). `leaders`
    /// assigns the initial leader per *mapped* group (sync group ×
    /// shard, [`GroupMapper::group_count`] entries); `None` takes the
    /// mapper's round-robin default, which spreads shard leadership
    /// across the nodes.
    pub fn new(
        spec: &O,
        coord: &CoordSpec,
        cfg: &RuntimeConfig,
        layout: &Layout,
        me: NodeId,
        leaders: Option<&[Pid]>,
        workload: &WorkloadSpec,
    ) -> Self
    where
        O: Clone,
    {
        let n = layout.nodes;
        let mapper = GroupMapper::new(coord, cfg.sync_shards);
        let leaders = leaders.map_or_else(|| mapper.default_leaders(n), <[Pid]>::to_vec);
        assert_eq!(leaders.len(), mapper.group_count(), "one leader per mapped group");
        assert_eq!(layout.conf.len(), mapper.group_count(), "layout planned for these shards");
        assert!(cfg.window <= MAX_IN_FLIGHT, "the in-flight cap must cover the window");
        // A recoverer re-sends only the newest `MAX_IN_FLIGHT` entries
        // of a suspect's `F` ring, so the ingress caps node-wide
        // in-flight calls there no matter how many sessions the spec
        // asks for.
        let ingress = Ingress::new(spec, workload, coord, mapper, me.index(), n, MAX_IN_FLIGHT);
        let sum_cache = coord
            .sum_groups()
            .iter()
            .map(|g| (0..n).map(|_| CachedSummary::new(g.len())).collect())
            .collect();
        let engines = leaders
            .iter()
            .enumerate()
            .map(|(g, &l)| {
                GroupEngine::new(
                    l,
                    RingReader::new(
                        RingKind::Conf,
                        layout.conf[g],
                        layout.conf_ring_base(),
                        CONF_RING_CAP,
                        layout.entry_size(),
                        layout.heads,
                        layout.conf_head_offset(g),
                    ),
                )
            })
            .collect();
        let sum_group_count = coord.sum_groups().len();
        HambandNode {
            sigma: (!coord.sum_groups().is_empty() && !spec.summaries_monotone())
                .then(|| spec.initial()),
            mat: spec.initial(),
            mat_dirty: false,
            spec_mat: None,
            applied: CountMap::new(n, coord.method_count()),
            sum_cache,
            sum_inflight: (0..sum_group_count).map(|_| vec![None; n]).collect(),
            sum_landed: vec![vec![0; n]; sum_group_count],
            sum_acks: (0..sum_group_count).map(|_| CallQueue::new()).collect(),
            sum_log: vec![Vec::new(); sum_group_count],
            sum_sent: vec![vec![0; n]; sum_group_count],
            sum_pending: vec![false; sum_group_count],
            slot_buf: Vec::new(),
            free_writers: Vec::new(),
            free_readers: Vec::new(),
            engines,
            hb: Heartbeat::new(layout.heartbeat),
            fd: FailureDetector::new(me, n, layout.heartbeat, cfg.fd_suspect_after)
                .with_min_sample_gap(cfg.heartbeat_interval),
            fd_handoff: VecDeque::new(),
            adopted: vec![false; n],
            ingress,
            workload: workload.clone(),
            metrics: NodeMetrics::default(),
            next_rid_seq: 0,
            free_acks: CallQueue::new(),
            free_landed: vec![0; n],
            wr_routes: IdMap::default(),
            conf_retries: Vec::new(),
            retry_timer_armed: false,
            halted: false,
            log: layout.persist_log.map(|r| NodeLog::new(r, PERSIST_LOG_BYTES)),
            join_epoch: vec![0; leaders.len()],
            initial_leaders: leaders,
            workload_retired: false,
            spec: spec.clone(),
            coord: coord.clone(),
            cfg: cfg.clone(),
            layout: layout.clone(),
            me,
            n,
        }
    }

    /// Remote copies needed for a majority (the leader's own counts).
    pub(crate) fn majority_remote(&self) -> usize {
        self.n / 2
    }

    // ------------------------------------------------------------------
    // Startup
    // ------------------------------------------------------------------

    /// Bring the replica up on `ctx`: build the ring endpoints
    /// (`free.rs` / `conf.rs`), install the initial permission grants,
    /// arm the timers, and start pumping. Called once by the event
    /// loop's start hook.
    pub fn start<T: Transport>(&mut self, ctx: &mut T) {
        if let Some(log) = self.log.as_mut() {
            log.init(ctx);
        }
        self.setup_free_endpoints();
        self.setup_conf_groups(ctx);
        self.arm_timers(ctx);
        self.pump(ctx);
    }

    /// Arm the poll, heartbeat and failure-detector timer chains and
    /// beat once. Heartbeat and failure detection run as dedicated
    /// threads (§4), so a busy application CPU cannot silence liveness.
    pub(crate) fn arm_timers<T: Transport>(&mut self, ctx: &mut T) {
        ctx.set_timer(POLL_INTERVAL, TAG_POLL);
        ctx.set_timer_isolated(self.cfg.heartbeat_interval, TAG_HEARTBEAT);
        ctx.set_timer_isolated(self.cfg.fd_interval, TAG_FD);
        self.hb.beat(ctx);
    }

    // ------------------------------------------------------------------
    // Dispatch: polling, completions, control messages
    // ------------------------------------------------------------------

    fn poll<T: Transport>(&mut self, ctx: &mut T) {
        self.poll_summaries(ctx);
        self.poll_free(ctx);
        self.poll_conf(ctx);
    }

    /// Whether a poll now scans anything another node writes: a peer's
    /// `F` ring (built only for objects with an irreducible
    /// conflict-free method), a group's `L` ring
    /// ([`GroupEngine::scans_ring`]), or, once the local workload is
    /// done, the peers' summary slots.
    fn poll_scans(&self) -> bool {
        self.free_readers.iter().any(Option::is_some)
            || self.engines.iter().any(GroupEngine::scans_ring)
            || (self.ingress.local_done() && !self.sum_cache.is_empty())
    }

    fn on_completion<T: Transport>(
        &mut self,
        ctx: &mut T,
        wr: WrId,
        status: CompletionStatus,
        data: Option<&[u8]>,
    ) {
        // A summary WRITE: its channel holds its id.
        if let Some((g, target)) = self.summary_channel(wr) {
            self.on_summary_write_done(ctx, g, target);
            return;
        }
        // Explicitly routed work requests.
        if let Some(route) = self.wr_routes.remove(&wr) {
            self.on_routed(ctx, route, status, data);
            return;
        }
        // Ring appends: free rings first, then each group's conf rings.
        if self.on_free_completion(ctx, wr, status, data) {
            return;
        }
        self.on_conf_completion(ctx, wr, status, data);
    }

    fn on_routed<T: Transport>(
        &mut self,
        ctx: &mut T,
        route: Route,
        status: CompletionStatus,
        data: Option<&[u8]>,
    ) {
        match route {
            Route::CommitWrite { group } => {
                self.on_commit_write_done(ctx, group, status);
            }
            Route::RecoveryRead { suspect, group } => {
                if let Some(bytes) = data {
                    self.recover_backups(ctx, suspect, group, bytes);
                }
            }
            Route::CatchupRead { group, from_seq } => {
                self.on_catchup_read(ctx, group, from_seq, data);
            }
        }
    }

    /// Feed one event-loop event to the replica. Public so non-`App`
    /// event loops (the threaded backend) can drive the same state
    /// machine the simulator does.
    ///
    /// Handling never plans: it frees window slots, applies entries and
    /// advances commits, and leaves the planning pass
    /// ([`pump`](HambandNode::pump)) to the backend's event loop, which
    /// knows when its input is drained. Returns whether the event ran on
    /// the application CPU and so left something a plan could use — the
    /// heartbeat and failure-detector timers and the detector's READ
    /// completions run on dedicated threads (§4), and a fault is
    /// injected from outside, so those return `false`. The detector
    /// posts READs only, so a completion of another kind is the
    /// application's without asking it. What a detector
    /// event sets in motion comes back as a hand-over event
    /// (`recovery.rs`), which runs on the application CPU.
    #[must_use = "the event loop owes a `pump` once its due events are handled"]
    pub fn handle_event<T: Transport>(&mut self, ctx: &mut T, event: Event) -> bool {
        let on_app_cpu = match &event {
            Event::Timer { tag, .. } => !matches!(*tag, TAG_HEARTBEAT | TAG_FD),
            Event::Completion { wr, kind, .. } => *kind != VerbKind::Read || !self.fd.owns(*wr),
            Event::Message { .. } => true,
            Event::Fault { .. } => false,
        };
        match event {
            Event::Timer { tag: TAG_POLL, .. } => {
                self.poll(ctx);
                ctx.set_timer(POLL_INTERVAL, TAG_POLL);
            }
            Event::Timer { tag: TAG_HEARTBEAT, .. } => {
                self.hb.beat(ctx);
                ctx.set_timer_isolated(self.cfg.heartbeat_interval, TAG_HEARTBEAT);
            }
            Event::Timer { tag: TAG_FD, .. } => {
                self.fd.tick(ctx);
                if (0..self.engines.len()).any(|g| self.next_in_line(g)) {
                    self.hand_over(ctx, FdHandoff::RetryElections);
                }
                ctx.set_timer_isolated(self.cfg.fd_interval, TAG_FD);
            }
            Event::Timer { tag: TAG_RETRY, .. } => {
                self.run_retries(ctx);
            }
            Event::Timer { tag: TAG_FD_HANDOFF, .. } => {
                self.run_handoff(ctx);
            }
            Event::Timer { .. } => {}
            Event::Completion { wr, data, .. } if !on_app_cpu => {
                // A detector READ, handled on the detector's thread.
                if let Some(transition) = self.fd.on_completion(ctx.now(), wr, data.as_deref()) {
                    self.hand_over(ctx, FdHandoff::Transition(transition));
                }
            }
            Event::Completion { wr, status, data, .. } => {
                self.on_completion(ctx, wr, status, data.as_deref());
            }
            Event::Message { from, payload } => {
                if let Ok(msg) = ControlMsg::from_bytes(&payload) {
                    self.on_control(ctx, from, msg);
                }
            }
            Event::Fault { kind: AppFault::SuspendHeartbeat } => {
                self.hb.suspended = true;
                self.halted = true;
                self.ingress.halt();
                // A halted node starts no election (`recovery.rs`); one
                // already in flight must not be won either, or the
                // group is led by a node that issues nothing.
                self.engines.iter_mut().for_each(GroupEngine::stand_down);
            }
            Event::Fault { kind: AppFault::ResumeHeartbeat } => {
                self.hb.suspended = false;
                // Peers will clear their suspicion once they observe
                // the counter moving again, but this node's driver was
                // halted by the suspension and stays halted: workload-
                // level exclusion is crash-stop even though detector-
                // level suspicion is not.
                let node = self.me;
                ctx.emit(|| TraceEvent::ResumedButExcluded { node });
                // Announce the retirement. Without it the resumed
                // heartbeat makes this node look healthy, so peers
                // would neither adopt its remaining quota nor elect a
                // replacement for any group it still leads — a zombie
                // leader wedges the whole workload.
                if self.halted {
                    for q in peers(self.me, self.n) {
                        ctx.send(q, ControlMsg::Retired.to_bytes());
                    }
                }
            }
        }
        on_app_cpu
    }
}

impl<O: WorkloadSupport> HambandNode<O> {
    /// The simulator shell's step for one delivered event. Returns
    /// whether it planned.
    pub(crate) fn step(&mut self, ctx: &mut Ctx<'_>, event: Event) -> bool {
        // A poll pass is CPU work on the virtual clock; on real threads
        // it costs what it costs, so the charge lives here and not
        // behind `Transport`. A tick with nothing another node writes
        // to scan costs nothing; it stays armed all the same, as the
        // planner's backstop below.
        if matches!(event, Event::Timer { tag: TAG_POLL, .. }) && self.poll_scans() {
            ctx.consume(POLL_COST);
        }
        // A poll loop takes every completion that is there before it
        // serves clients. Events parked behind this one were due while
        // the CPU was busy — already in the completion queue — so the
        // plan waits for the last of them and one flush carries what
        // they all freed. Should the rest never reach a handler (a
        // partition holds a parked message back), the next poll timer
        // plans: it is always re-armed.
        let plans = self.handle_event(ctx, event) && !ctx.cpu_backlog();
        if plans {
            self.pump(ctx);
        }
        plans
    }
}

impl<O: WorkloadSupport + Clone> App for HambandNode<O> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.start(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        self.step(ctx, event);
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        self.restart_recover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assemble, RunConfig};
    use hamband_types::{Bank, Counter};
    use rdma_sim::{LatencyModel, SimTime};

    /// A Counter node with quota left finds nothing another node writes
    /// at a tick: it has no `F` or `L` ring, and it adopts summaries only
    /// where a read needs them. Its CPU time is method bodies and posts.
    #[test]
    fn a_counter_node_with_quota_left_is_charged_nothing_for_its_ticks() {
        let c = Counter::default();
        let workload = WorkloadSpec::ops(3_000).with_update_ratio(1.0).with_seed(1);
        let (mut sim, _layout) =
            assemble(&c, &c.coord_spec(), &RunConfig::new(3, workload).with_seed(1));
        sim.run_until(SimTime(100_000));
        let apply_cost = LatencyModel::default().apply_cost.as_nanos();
        let stats = sim.stats();
        for i in 0..3 {
            let app = sim.app(NodeId(i));
            assert!(!app.ingress.local_done(), "node {i} has no quota left");
            assert!(app.next_rid_seq > 100, "node {i} issued {}", app.next_rid_seq);
            let bodies = apply_cost * (app.next_rid_seq + app.metrics.summary_adoptions);
            assert_eq!(stats.cpu_busy_ns[i], bodies + stats.cpu_post_ns[i], "node {i}");
        }
    }

    /// Every Bank node reads `F` rings its peers append deposits to, so
    /// each tick scans and is charged, even on a cluster with nothing
    /// to do.
    #[test]
    fn a_bank_node_is_charged_poll_cost_for_every_tick() {
        let b = Bank::default();
        let run = RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1);
        let (mut sim, _layout) = assemble(&b, &b.coord_spec(), &run);
        sim.run_until(SimTime(8_400));
        let before = sim.stats().cpu_busy_ns.clone();
        // The ticks at 8.8 µs, 9.6 µs, …, 88 µs.
        sim.run_until(SimTime(88_400));
        for (i, busy) in before.into_iter().enumerate() {
            assert_eq!(sim.stats().cpu_busy_ns[i] - busy, 100 * POLL_COST.as_nanos(), "node {i}");
        }
    }
}
