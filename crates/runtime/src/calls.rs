//! Client-call lifecycle, written once for the three Fig. 7 paths: the
//! pump that plans calls, the issue guard, the in-flight call record,
//! the apply step, acknowledgement.
//!
//! * **CALL** — `issue` alone checks permissibility against the check
//!   view (else, once the landed summaries are adopted and the check
//!   still fails, `reject`), charges the method body and mints the call's
//!   `Rid`. The call's category picks the path (`reduce.rs::issue_reduce`
//!   / `free.rs::issue_free` / `conf.rs::issue_conf`), which does only
//!   what Fig. 7 says differs and returns the call's position there;
//!   `issue` then queues the call's one record, an `Outstanding`, on
//!   that path.
//! * **Acknowledgement** — one rule for the three paths: a path's queue
//!   holds its calls in flight as `(position, Outstanding)` in issue
//!   order, and `ack_landed` acknowledges (`finish_call`) the prefix its
//!   watermark has reached: the smallest summary version (REDUCE) or
//!   `F`-ring seq (FREE) landed at every peer, the commit index (CONF).
//!   A deposed leader's records are aborted (`abort_call`). The queues
//!   are the only place a call in flight is kept (`calls_in_flight`
//!   counts them), and the record's fields are private here.
//! * **FREE-APP / CONF-APP** — `apply_buffered` is the one body both
//!   ring polls run for a delivered entry, gated by its dependency map.
//! * **QUERY** — `query`, which adopts the landed summaries before it
//!   reads (`reduce.rs`: a landed summary is adopted when a read needs
//!   it) and reads the committed view `mat`, never a leader's
//!   uncommitted calls. The pump stamps the instant its charge ends into
//!   the run's end time.
//!
//! One-sided work requests that are not ring appends carry a `Route`
//! so their completions find their handler.
//!
//! The pump is the planning step the backend's event loop calls once
//! the events already due for the node are handled — never from inside
//! a handler, so it is never re-entered. Every acknowledgement those
//! events produce frees its window slot first; then one planning pass
//! refills all of them and one flush posts the burst, so what k waiting
//! completions freed leaves as one coalesced WRITE per peer, not k —
//! ring appends, summary slots and the commit index alike: nothing is
//! posted while handling or planning, only in the flush that ends the
//! pump. The simulator shell plans when no event is parked waiting for
//! the node's CPU (`replica.rs`, `impl App`); the threaded shell once
//! per loop iteration, after its messages and due timers
//! (`threaded/cluster.rs`).

use std::collections::VecDeque;

use hamband_core::coord::MethodCategory;
use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{NodeId, Phase, SimDuration, SimTime, TraceEvent};

use crate::codec::Entry;
use crate::driver::Planned;
use crate::replica::{peers, HambandNode};
use crate::transport::Transport;

/// Why a work request other than a ring append or a summary WRITE was
/// posted; stored per [`rdma_sim::WrId`] so the completion is dispatched
/// to the right protocol module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// A commit-cell WRITE pushing the group's commit index (`commit`).
    CommitWrite { group: usize },
    /// A READ of a suspect's own copy of the `F` ring it feeds
    /// (`group` `None`) or of its summary slot of a group (`recovery`).
    RecoveryRead { suspect: NodeId, group: Option<usize> },
    /// A READ of one ring slot from the longest follower (`election`).
    CatchupRead { group: usize, from_seq: u64 },
}

/// The Fig. 7 path a call travels: the queue it waits in for its
/// acknowledgement, and the watermark that releases it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Path {
    /// REDUCE in summarization group `g`.
    Reduce(usize),
    Free,
    /// CONF in mapped group `g`.
    Conf(usize),
}

/// The one record of an issued, not yet acknowledged update call. It
/// lives in its path's queue, beside the call's position there (the
/// summary version that folded it in, or its ring seq); built by
/// [`HambandNode::issue`] and acknowledged or aborted by this module
/// only.
#[derive(Debug)]
pub(crate) struct Outstanding {
    issued_at: SimTime,
    method: MethodId,
    /// Client session (ingress slot) the ack fans back to.
    session: u32,
}

impl Outstanding {
    /// The record of a call of `method` from `session`, timed from
    /// `issued_at`.
    pub(crate) fn new(issued_at: SimTime, method: MethodId, session: u32) -> Self {
        Outstanding { issued_at, method, session }
    }
}

/// A path's calls in flight, `(position, record)` in issue order.
pub(crate) type CallQueue = VecDeque<(u64, Outstanding)>;

impl<O: WorkloadSupport> HambandNode<O> {
    /// The flat-combining drain: act as the combiner for the node's
    /// client sessions, planning and issuing their calls round-robin
    /// until the ingress yields (or an impermissible streak suggests
    /// waiting for the views to move), then flush the whole combined
    /// burst as coalesced ring appends.
    ///
    /// Public because the event loop decides when: after the events
    /// that are due for this node have been through
    /// [`handle_event`](HambandNode::handle_event), once.
    pub fn pump<T: Transport>(&mut self, ctx: &mut T) {
        if self.halted {
            // A suspended node plans nothing, but the calls it folded
            // in before the fault still wait for a summary WRITE, and
            // the flush is the only place one is posted: keep draining
            // its channels. A commit its completions still reach has
            // no entry left to ride, either.
            self.flush_commits(ctx);
            self.flush_summaries(ctx);
            return;
        }
        self.refresh_mat();
        // Open loop: move every arrival whose Poisson timestamp has
        // passed into the ingress's releasable pool. Closed loop: no-op.
        self.ingress.release_arrivals(ctx.now());
        let queries_before = self.metrics.queries;
        // A query's charge ends no sooner than the pump's start plus the
        // service times of the pump's queries so far, its own included.
        let mut queries_end = ctx.now();
        let mut reject_streak = 0u32;
        loop {
            // Each shard's quota is its leader's to spend, measured
            // against its own tail: no shard leader needs a sibling's
            // progress, so none overshoots on a lagging view of it.
            let engines = &self.engines;
            let led = |g: usize| engines[g].accepting_issues().then_some(engines[g].tail);
            let view = self.spec_mat.as_ref().unwrap_or(&self.mat);
            let planned = self.ingress.next(&self.spec, view, &self.coord, led);
            match planned {
                None => {
                    self.metrics.forfeited = self.ingress.forfeited();
                    break;
                }
                Some((_, Planned::Query(q))) => {
                    // Under open-loop load a query's response time is
                    // measured from its arrival, not from when the pump
                    // got around to executing it.
                    let waited = self
                        .ingress
                        .take_arrival()
                        .map(|a| ctx.now().since(a))
                        .unwrap_or(SimDuration(0));
                    // The reply is not recorded yet.
                    let (_reply, service) = self.query(ctx, &q);
                    queries_end += service;
                    self.metrics.ack_query(service + waited);
                    self.metrics.query_ended(queries_end);
                }
                Some((session, Planned::Update(u))) => {
                    // Stamp the call with its open-loop arrival time (if
                    // any), so queueing delay counts toward response time.
                    let arrival = self.ingress.take_arrival();
                    let rejected_before = self.metrics.rejected;
                    self.issue(ctx, u, session, arrival);
                    if self.metrics.rejected > rejected_before {
                        // A rejected call consumes no ring quota, so the
                        // driver will happily regenerate it. Bound the
                        // streak per pump so a view in which nothing is
                        // permissible yields back to the event loop
                        // instead of spinning (later entries or a leader
                        // change may unwedge it).
                        reject_streak += 1;
                        if reject_streak >= 64 {
                            break;
                        }
                    } else {
                        reject_streak = 0;
                    }
                }
            }
        }
        // The whole burst is queued by now: post it as one summary
        // WRITE per idle channel and coalesced ring WRITEs (deferring
        // to here is free in virtual time — same instant, fewer
        // doorbells). A commit index none of the queued entries carries
        // goes first, as a commit-cell round.
        self.flush_commits(ctx);
        self.flush_writers(ctx);
        // Peers read the count with this node's heartbeat: a suspicion
        // adopts exactly the queries it did not run (`recovery.rs`).
        if self.metrics.queries != queries_before {
            self.hb.publish_queries(ctx, self.metrics.queries);
        }
    }

    /// The idle-pipeline fallback of commit distribution: wherever this
    /// node's commit index is ahead of what its appended entries carry
    /// (nothing was planned behind the commit — a spent quota, a window
    /// held by REDUCE/FREE calls, the run's last commits), write it
    /// into the followers' commit cells.
    fn flush_commits<T: Transport>(&mut self, ctx: &mut T) {
        for g in 0..self.engines.len() {
            self.flush_commit(ctx, g);
        }
    }

    /// Post everything the pump queued: the latest summary slot on
    /// every idle channel whose peer lacks it, then coalesced WRITEs for the
    /// free rings and for any leader-fed conflicting rings. Idle
    /// channels and writers cost one empty check each.
    fn flush_writers<T: Transport>(&mut self, ctx: &mut T) {
        self.flush_summaries(ctx);
        for w in self.free_writers.iter_mut().flatten() {
            w.flush(ctx);
        }
        for e in self.engines.iter_mut() {
            if let Some(l) = e.leader_mut() {
                for w in l.writers.iter_mut().flatten() {
                    w.flush(ctx);
                }
            }
        }
    }

    /// CALL, the part Fig. 7's REDUCE / FREE / CONF rules share: guard
    /// the call against the check view, charge its body, mint its `Rid`,
    /// let its category's path do what differs, and queue the call's
    /// record on that path. The call's response time counts from
    /// `arrival`, its open-loop arrival, or else from now.
    pub(crate) fn issue<T: Transport>(
        &mut self,
        ctx: &mut T,
        update: O::Update,
        session: u32,
        arrival: Option<SimTime>,
    ) {
        // A call permissible on a stale view stays permissible on a
        // fresher one (summaries carry conflict-free calls only); one it
        // rejects gets the landed summaries adopted and a second look.
        let permissible = self.permissible_now(&update)
            || (self.adopt_summaries(ctx) > 0 && self.permissible_now(&update));
        if !permissible {
            self.reject(session);
            return;
        }
        ctx.charge_apply();
        let method = self.spec.method_of(&update);
        // A call's one identity is its `Rid`, minted for every call so
        // the seqs an entry carries do not depend on its path.
        let rid = Rid::new(Pid(self.me.index()), self.next_rid_seq);
        self.next_rid_seq += 1;
        let (path, position) = match self.coord.category(method) {
            MethodCategory::Reducible { sum_group } => {
                let g = sum_group.index();
                (Path::Reduce(g), self.issue_reduce(ctx, update, method, g))
            }
            MethodCategory::IrreducibleFree => {
                (Path::Free, self.issue_free(ctx, rid, update, method))
            }
            MethodCategory::Conflicting { sync_group } => {
                // Key-sharded routing: hash the call's shard key onto
                // one of the group's engines. The ingress only emits
                // calls whose mapped group this node leads, so the
                // engine index is always a locally-accepting one.
                let mapped =
                    self.ingress.mapper().group_of(sync_group, self.spec.shard_key(&update));
                (Path::Conf(mapped), self.issue_conf(ctx, rid, update, method, mapped))
            }
        };
        let record = Outstanding::new(arrival.unwrap_or_else(|| ctx.now()), method, session);
        self.acks_mut(path).expect("the issuing path queues").push_back((position, record));
        match path {
            // A single-node cluster's leader copy is the majority.
            Path::Conf(g) if self.majority_remote() == 0 => self.advance_commit(ctx, g),
            // With no peer nothing is left to land: acknowledged at once.
            _ if self.n == 1 => self.ack_landed(ctx, path),
            // No peer holds the call yet, so no watermark has reached it
            // (nor, `ack_landed` having run at every move, anything
            // queued before it).
            _ => debug_assert!(position > self.landed(path), "issued behind its watermark"),
        }
    }

    /// QUERY: adopt the landed summaries, then evaluate `q` on the
    /// committed view `mat` and charge its body. Never on the leader's
    /// check view: the uncommitted calls in it are aborted if the leader
    /// is deposed, and a reply read there would show calls that never
    /// happened. Returns the reply and the query's service time, its
    /// adoptions and its body.
    pub(crate) fn query<T: Transport>(
        &mut self,
        ctx: &mut T,
        q: &O::Query,
    ) -> (O::Reply, SimDuration) {
        let adopted = self.adopt_summaries(ctx);
        self.refresh_mat();
        let reply = self.spec.query(&self.mat, q);
        let cost = ctx.charge_apply();
        (reply, SimDuration(cost.as_nanos() * (adopted + 1)))
    }

    /// Reject an impermissible call (or one `abort_call` orphaned):
    /// count it, free the session's window slot, and let the ingress
    /// plan a replacement.
    fn reject(&mut self, session: u32) {
        self.metrics.rejected += 1;
        self.ingress.on_abort(session);
    }

    /// The one acknowledgement rule: acknowledge, in issue order, the
    /// calls of `path`'s queue whose position its watermark has reached.
    /// Runs wherever a watermark may move: a summary WRITE or `F`-ring
    /// append completing, the commit index advancing, a call's issue on
    /// a node with no peer. The invariant `issue` relies on: every write
    /// of a watermark (`sum_landed`, `free_landed`, a leader's commit
    /// index) while calls are queued on its path is followed by this
    /// call, so no queued call is ever at or below its watermark.
    pub(crate) fn ack_landed<T: Transport>(&mut self, ctx: &mut T, path: Path) {
        let landed = self.landed(path);
        while let Some((position, record)) =
            self.acks_mut(path).and_then(|acks| acks.pop_front_if(|(p, _)| *p <= landed))
        {
            self.finish_call(ctx, path, position, record);
        }
    }

    /// `path`'s watermark: the position every peer holds (a channel's
    /// WRITEs land in posting order), or the commit index.
    fn landed(&self, path: Path) -> u64 {
        let landed = match path {
            Path::Reduce(g) => peers(self.me, self.n).map(|q| self.sum_landed[g][q.index()]).min(),
            Path::Free => peers(self.me, self.n).map(|q| self.free_landed[q.index()]).min(),
            Path::Conf(g) => Some(self.engines[g].commit),
        };
        // No peer: all landed.
        landed.unwrap_or(u64::MAX)
    }

    /// `path`'s queue; a group this node does not lead has none.
    fn acks_mut(&mut self, path: Path) -> Option<&mut CallQueue> {
        match path {
            Path::Reduce(g) => Some(&mut self.sum_acks[g]),
            Path::Free => Some(&mut self.free_acks),
            Path::Conf(g) => self.engines[g].leader_mut().map(|l| &mut l.client_by_seq),
        }
    }

    /// The calls this node has in flight: the length of every path's
    /// queue.
    pub(crate) fn calls_in_flight(&self) -> usize {
        let conf = self.engines.iter().filter_map(|e| e.leader()).map(|l| l.client_by_seq.len());
        self.sum_acks.iter().map(VecDeque::len).chain(conf).sum::<usize>() + self.free_acks.len()
    }

    /// Acknowledge the call `record` at `position` of `path`
    /// ([`ack_landed`](Self::ack_landed) decides when): record the
    /// latency, emit the trace event and fan the completion back to the
    /// issuing session. The freed window budget is planned by the event
    /// loop's next pump, together with every other ack handled before it.
    fn finish_call<T: Transport>(
        &mut self,
        ctx: &mut T,
        path: Path,
        position: u64,
        o: Outstanding,
    ) {
        let (phase, conf) = match path {
            Path::Reduce(_) => (Phase::Reduce, None),
            Path::Free => (Phase::Free, None),
            Path::Conf(g) => (Phase::Conf, Some(g)),
        };
        let rt_ns = self.metrics.ack_update(o.method.index(), phase, o.issued_at, ctx.now());
        let node = self.me;
        ctx.emit(|| TraceEvent::Ack {
            node,
            method: o.method.index(),
            phase,
            group: conf,
            seq: conf.map(|_| position),
        });
        self.ingress.on_ack(o.session, rt_ns);
    }

    /// Abort an unacknowledged call (its leader was deposed): the
    /// client is told nothing was done, as for a rejected call.
    pub(crate) fn abort_call(&mut self, o: Outstanding) {
        self.reject(o.session);
    }

    /// FREE-APP / CONF-APP: apply a ring-delivered entry, once `Dep(u)`
    /// is met — adopting the landed summaries if that is what it waits
    /// for — and `false`, with nothing else touched, while it is not
    /// (the poll retries). `own_speculative` marks the leader's own
    /// uncommitted entry reaching commit: it is already in the
    /// speculative view, so only the committed views advance.
    pub(crate) fn apply_buffered<T: Transport>(
        &mut self,
        ctx: &mut T,
        entry: &Entry<O::Update>,
        own_speculative: bool,
    ) -> bool {
        let met = self.applied.satisfies(&entry.deps)
            || (self.adopt_summaries(ctx) > 0 && self.applied.satisfies(&entry.deps));
        if !met {
            return false;
        }
        ctx.charge_apply();
        let method = self.spec.method_of(&entry.update);
        self.apply_committed(&entry.update, own_speculative);
        self.applied.increment(entry.rid.issuer, method);
        self.metrics.last_apply = ctx.now();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::slot_ready;
    use crate::{assemble, Layout, RunConfig, Runner, System, TraceMode, WorkloadSpec};
    use hamband_core::counts::DepMap;
    use hamband_types::bank::{Bank, BankQuery, BankUpdate, DEPOSIT, OPEN};
    use hamband_types::orset::{OrSet, OrSetUpdate, ADD, REMOVE};
    use rdma_sim::{CompletionStatus, Simulator, VerbKind, WrId};

    type Cluster = Simulator<HambandNode<Bank>>;

    const N0: NodeId = NodeId(0);
    const ACCT: u64 = 7;

    /// Three started Bank replicas with no workload of their own, node 0
    /// leading the withdraw group; account 7 is open and holds 10
    /// everywhere. The tests issue node 0's calls by hand.
    fn funded_cluster() -> (Cluster, Layout) {
        let bank = Bank::default();
        let run =
            RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1).with_trace(TraceMode::Collect);
        let (mut sim, layout) = assemble(&bank, &bank.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        assert!(sim.app(N0).engines[0].is_leader());
        issue(&mut sim, BankUpdate::OpenAccounts(vec![ACCT]));
        issue(&mut sim, BankUpdate::Deposit(ACCT, 10));
        sim.run_for(SimDuration::micros(10));
        let app = sim.app(N0);
        assert!(app.calls_in_flight() == 0 && app.metrics.updates_acked == 2);
        sim.take_trace();
        (sim, layout)
    }

    /// Issue `update` at node 0 and pump (nothing is planned; the flush
    /// posts what the call queued).
    fn issue(sim: &mut Cluster, update: BankUpdate) {
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, update, 0, None);
            app.pump(ctx);
        });
    }

    /// Whether node 0's own copy of the `F` ring it feeds holds entry
    /// `seq`: what a recoverer READs if node 0 fails.
    fn own_copy_holds<O: WorkloadSupport + Clone>(
        sim: &Simulator<HambandNode<O>>,
        layout: &Layout,
        seq: u64,
    ) -> bool {
        let off = layout.free_slot_offset(N0, seq);
        slot_ready(&sim.region_bytes(N0, layout.free_rings)[off..][..layout.entry_size()], seq)
    }

    /// The WRITEs node 0 posted since the trace was last drained, with
    /// their sizes.
    fn posted_writes<O: WorkloadSupport + Clone>(
        sim: &mut Simulator<HambandNode<O>>,
    ) -> Vec<(WrId, usize)> {
        sim.take_trace()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::VerbPosted { issuer: N0, kind: VerbKind::Write, wr, bytes, .. } => {
                    Some((wr, bytes))
                }
                _ => None,
            })
            .collect()
    }

    /// Four OR-set replicas, whose two methods both travel the `F`
    /// rings. Node 0 adds an element and removes it in one pump, so each
    /// peer's ring gets one coalesced WRITE spanning both calls; the
    /// three completions are handed in out of peer order.
    #[test]
    fn a_free_call_is_acknowledged_by_the_last_of_its_append_completions() {
        let set = OrSet::default();
        let run =
            RunConfig::new(4, WorkloadSpec::ops(0)).with_seed(1).with_trace(TraceMode::Collect);
        let (mut sim, layout) = assemble(&set, &set.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        sim.take_trace();
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, OrSetUpdate::Add { element: 1, tag: (0, 1) }, 0, None);
            app.issue(ctx, OrSetUpdate::Remove { element: 1, tags: vec![(0, 1)] }, 0, None);
        });
        assert!(posted_writes(&mut sim).is_empty(), "the appends wait for the pump's flush");
        assert!(
            own_copy_holds(&sim, &layout, 1) && own_copy_holds(&sim, &layout, 2),
            "the own copy is written before they leave"
        );
        sim.with_app_ctx(N0, |app, ctx| app.pump(ctx));
        let appends = posted_writes(&mut sim);
        assert_eq!(appends.len(), 3, "one F-ring append per peer");
        assert!(appends.iter().all(|&(_, bytes)| bytes == 2 * layout.entry_size()), "coalesced");
        let done = |sim: &mut Simulator<HambandNode<OrSet>>, (wr, _)| {
            sim.with_app_ctx(N0, |app, ctx| {
                app.on_free_completion(ctx, wr, CompletionStatus::Success, None)
            })
        };
        let acks = |sim: &mut Simulator<HambandNode<OrSet>>| -> Vec<usize> {
            sim.take_trace()
                .iter()
                .filter_map(|r| match r.event {
                    TraceEvent::Ack { node: N0, method, .. } => Some(method),
                    _ => None,
                })
                .collect()
        };
        // Nodes 3 and 1 hold both entries: each completion is claimed,
        // and nothing is acknowledged while node 2 may lack them.
        for i in [2, 0] {
            assert!(done(&mut sim, appends[i]));
            let app = sim.app(N0);
            assert_eq!((app.metrics.updates_acked, app.free_acks.len()), (0, 2));
            assert!(acks(&mut sim).is_empty());
        }
        // Node 2's is the slowest: both calls are acknowledged in that
        // handler, in ring order.
        assert!(done(&mut sim, appends[1]));
        assert_eq!(acks(&mut sim), [ADD.index(), REMOVE.index()]);
        let app = sim.app(N0);
        assert_eq!(app.metrics.updates_acked, 2);
        assert!(app.free_acks.is_empty());
        // The fabric's own completions find nothing left to credit.
        sim.run_for(SimDuration::micros(10));
        assert_eq!(sim.app(N0).metrics.updates_acked, 2);
        for q in 1..4 {
            assert_eq!(sim.app(NodeId(q)).state_snapshot(), sim.app(N0).state_snapshot());
        }
    }

    #[test]
    fn commit_acknowledges_a_conf_call_and_no_other_watermark_does() {
        let (mut sim, _layout) = funded_cluster();
        issue(&mut sim, BankUpdate::Withdraw(ACCT, 3));
        sim.with_app_ctx(N0, |app, ctx| {
            app.ack_landed(ctx, Path::Free);
            app.ack_landed(ctx, Path::Reduce(0));
        });
        let app = sim.app(N0);
        let awaiting_commit = app.engines[0].leader().map(|l| l.client_by_seq.len());
        assert_eq!((app.metrics.updates_acked, awaiting_commit), (2, Some(1)));
        // A majority of its appends lands; `advance_commit` acknowledges.
        sim.run_for(SimDuration::micros(10));
        let app = sim.app(N0);
        assert_eq!(app.engines[0].commit, 1);
        assert_eq!(app.metrics.updates_acked, 3);
        assert_eq!(app.calls_in_flight(), 0);
    }

    #[test]
    fn a_deposed_leader_aborts_its_unacknowledged_calls() {
        let (mut sim, _layout) = funded_cluster();
        issue(&mut sim, BankUpdate::Withdraw(ACCT, 3));
        issue(&mut sim, BankUpdate::Withdraw(ACCT, 4));
        assert_eq!(sim.app(N0).engines[0].leader().map(|l| l.client_by_seq.len()), Some(2));
        sim.with_app_ctx(N0, |app, ctx| app.depose(ctx, 0));
        let app = sim.app(N0);
        assert_eq!(app.calls_in_flight(), 0);
        assert_eq!((app.metrics.rejected, app.metrics.updates_acked), (2, 2));
        // Their completions find a follower: nothing is acknowledged.
        sim.run_for(SimDuration::micros(10));
        assert_eq!(sim.app(N0).metrics.updates_acked, 2);
    }

    /// The leader checks calls against its uncommitted withdraw, but a
    /// query reads only what is committed: a deposition would abort it.
    #[test]
    fn a_query_reads_the_committed_view_not_the_leaders_uncommitted_calls() {
        let (mut sim, _layout) = funded_cluster();
        issue(&mut sim, BankUpdate::Withdraw(ACCT, 3));
        let app = sim.app(N0);
        assert_eq!(app.engines[0].leader().map(|l| l.client_by_seq.len()), Some(1));
        assert_eq!(app.check_view().balances.get(&ACCT), Some(&7));
        let (balance, _) =
            sim.with_app_ctx(N0, |app, ctx| app.query(ctx, &BankQuery::Balance(ACCT)));
        assert_eq!(balance, 10);
    }

    #[test]
    fn apply_buffered_touches_nothing_while_a_dependency_is_unmet() {
        let (mut sim, _layout) = funded_cluster();
        let at = NodeId(1);
        // A deposit from node 2 into an account whose opening (node 2's
        // first `open`) has not been seen here.
        let entry = Entry {
            rid: Rid::new(Pid(2), 0),
            update: BankUpdate::Deposit(9, 5),
            deps: DepMap::from_entries([(Pid(2), OPEN, 1)]),
        };
        let snapshot = |sim: &Cluster| {
            let app = sim.app(at);
            (app.mat.clone(), app.applied.clone(), format!("{:?}", app.metrics))
        };
        let (before, busy) = (snapshot(&sim), sim.stats().cpu_busy_ns[1]);
        let applied = sim.with_app_ctx(at, |app, ctx| app.apply_buffered(ctx, &entry, false));
        assert!(!applied);
        assert_eq!(snapshot(&sim), before);
        assert_eq!(sim.stats().cpu_busy_ns[1], busy, "no method body was charged");
        // Once the map is met the same entry applies.
        sim.app_mut(at).applied.set(Pid(2), OPEN, 1);
        assert!(sim.with_app_ctx(at, |app, ctx| app.apply_buffered(ctx, &entry, false)));
        let app = sim.app(at);
        assert_eq!(app.mat.balances.get(&9), Some(&5));
        assert_eq!(app.applied.get(Pid(2), DEPOSIT), 1);
    }

    /// A call in flight is counted the same everywhere the runtime
    /// counts it: the calls queued on the paths are the calls the
    /// ingress holds in flight, and a leader counts acks for exactly the
    /// seqs `commit + 1 ..= tail`.
    fn assert_one_record_per_call<O: WorkloadSupport + Clone>(sim: &Simulator<HambandNode<O>>) {
        for i in 0..sim.len() {
            let app = sim.app(NodeId(i));
            let conf: usize =
                app.engines.iter().filter_map(|e| e.leader()).map(|l| l.client_by_seq.len()).sum();
            let sum: usize = app.sum_acks.iter().map(VecDeque::len).sum();
            let queued = sum + app.free_acks.len() + conf;
            let at = sim.now();
            assert_eq!(queued, app.ingress.outstanding(), "node {i} at {at:?}");
            for (g, e) in app.engines.iter().enumerate() {
                let Some(l) = e.leader() else { continue };
                let awaiting = l.pending_acks.len() as u64;
                assert_eq!(
                    awaiting,
                    e.tail.saturating_sub(e.commit),
                    "node {i} group {g} at {at:?}"
                );
            }
        }
    }

    /// Step `sim` in 2 µs slices until it settles, checking every
    /// node's call records between slices.
    fn step_checking_records<O: WorkloadSupport + Clone>(
        sim: &mut Simulator<HambandNode<O>>,
        max_time: SimTime,
    ) {
        while !crate::settled(sim) {
            assert!(sim.now() < max_time, "the run never settled");
            sim.run_for(SimDuration::micros(2));
            assert_one_record_per_call(sim);
        }
    }

    /// Courseware's leader stops beating mid-run: the survivors elect a
    /// successor, which takes over the log and leads to the end, and
    /// the deposed leader's queues drain as its calls are aborted.
    #[test]
    fn one_record_per_call_through_a_leader_failure() {
        let c = hamband_types::Courseware::default();
        let workload = WorkloadSpec::ops(1_536).with_update_ratio(0.5).with_window(8).with_seed(1);
        let plan =
            rdma_sim::FaultPlan::new().at(SimTime(150_000), rdma_sim::Fault::SuspendHeartbeat(N0));
        let run = RunConfig::new(4, workload).with_seed(1).with_faults(plan);
        let (mut sim, _layout) = assemble(&c, &c.coord_spec(), &run);
        step_checking_records(&mut sim, run.max_time);
        assert!((1..4).all(|q| sim.app(NodeId(q)).leader_view(0) != Pid(0)));
    }

    /// A Bank follower crashes and restarts from its persist log: its
    /// queues start empty with its rebuilt ingress, and every path
    /// keeps one record per call on the others throughout.
    #[test]
    fn one_record_per_call_through_a_crash_and_restart() {
        let bank = Bank::default();
        let victim = NodeId(2);
        let plan = rdma_sim::FaultPlan::new()
            .at(SimTime(60_000), rdma_sim::Fault::Crash(victim))
            .at(SimTime(120_000), rdma_sim::Fault::Restart(victim, true));
        let workload = WorkloadSpec::ops(1_200).with_update_ratio(0.8).with_seed(3);
        let runtime =
            crate::RuntimeConfig::default().with_durability(crate::persist::DurabilityMode::Fenced);
        let run = RunConfig::new(4, workload).with_seed(3).with_runtime(runtime).with_faults(plan);
        let (mut sim, _layout) = assemble(&bank, &bank.coord_spec(), &run);
        step_checking_records(&mut sim, run.max_time);
        assert!(sim.app(victim).workload_retired, "the node restarted");
    }

    /// Under open-loop load an update's response time counts from its
    /// arrival, so the time it waited for a window slot is in it. At an
    /// offered load far past capacity every arrival is released at
    /// once, and most wait a long while for the window.
    #[test]
    fn an_open_loop_update_is_timed_from_its_arrival() {
        let c = hamband_types::Counter::default();
        let reduce_mean = |workload: WorkloadSpec| {
            let out =
                Runner::new(System::Hamband, RunConfig::new(3, workload)).run(&c, &c.coord_spec());
            assert!(out.report.converged);
            out.report.phases["reduce"].mean_us
        };
        let updates = WorkloadSpec::ops(600).with_update_ratio(1.0);
        let closed = reduce_mean(updates.clone());
        let open = reduce_mean(updates.with_offered_load(1e9));
        assert!(open > 5.0 * closed, "open loop {open} µs, closed loop {closed} µs");
    }
}
