//! Client-call lifecycle, written once for the three Fig. 7 paths: the
//! pump that plans calls, the issue guard, the outstanding-call record,
//! the apply step, acknowledgement.
//!
//! * **CALL** — `issue` alone checks permissibility against the check
//!   view (else, once the landed summaries are adopted and the check
//!   still fails, `reject`), charges the method body and mints the call's
//!   ids. The call's category picks the path (`reduce.rs::issue_reduce`
//!   / `free.rs::issue_free` / `conf.rs::issue_conf`), which does only
//!   what Fig. 7 says differs and reports it as an `Issued`; `issue`
//!   then files the one `Outstanding` record.
//! * **Acknowledgement** — the record counts the remote completions
//!   the call still owes. `credit_remote` is the one countdown: the
//!   last completion acknowledges the client (`finish_call`). A
//!   conflicting call
//!   owes none to the record — its appends are counted per sequence
//!   number by the group's engine, and `commit.rs::advance_commit`
//!   acknowledges it; a deposed leader's calls are aborted
//!   (`abort_call`). The record's fields are private to this module, so
//!   no path can build one or move the countdown by hand.
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

use hamband_core::coord::MethodCategory;
use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{NodeId, Phase, SimDuration, SimTime, TraceEvent};

use crate::codec::Entry;
use crate::driver::Planned;
use crate::replica::HambandNode;
use crate::transport::Transport;

/// Why a non-ring work request was posted; stored per [`rdma_sim::WrId`]
/// so the completion is dispatched to the right protocol module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// A (possibly write-combined) summary-slot WRITE (`reduce`).
    SummaryWrite {
        group: usize,
        target: NodeId,
        version: u64,
    },
    /// A commit-cell WRITE pushing the group's commit index (`commit`).
    CommitWrite { group: usize },
    /// A READ of a suspect's own copy of the `F` ring it feeds
    /// (`group` `None`) or of its summary slot of a group (`recovery`).
    RecoveryRead { suspect: NodeId, group: Option<usize> },
    /// A READ of one ring slot from the longest follower (`election`).
    CatchupRead { group: usize, from_seq: u64 },
}

/// What a path's issue step did with a call — the part of the
/// bookkeeping Fig. 7's REDUCE / FREE / CONF rules do not share.
#[derive(Debug)]
pub(crate) struct Issued {
    /// Protocol path the call travels (REDUCE/FREE/CONF).
    pub(crate) phase: Phase,
    /// For conflicting calls: (synchronization group, L-ring seq).
    pub(crate) conf: Option<(usize, u64)>,
    /// Remote completions [`HambandNode::credit_remote`] will see
    /// before the client may be acknowledged. Zero for a conflicting
    /// call: commit acknowledges it.
    pub(crate) remotes: usize,
}

/// Bookkeeping for one issued, not yet acknowledged update call. Built
/// by [`HambandNode::issue`] and counted down, acknowledged or aborted
/// by this module only.
#[derive(Debug)]
pub(crate) struct Outstanding {
    issued_at: SimTime,
    method: MethodId,
    /// Client session (ingress slot) the ack fans back to.
    session: u32,
    /// What the call's path reported; `remotes` counts down from there.
    path: Issued,
}

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
            for (g, e) in self.engines.iter().enumerate() {
                self.gate_accepting[g] = e.accepting_issues();
                self.gate_appended[g] = e.known_tail();
            }
            let planned = {
                let view = self.spec_mat.as_ref().unwrap_or(&self.mat);
                self.ingress.next(
                    &self.spec,
                    view,
                    &self.coord,
                    &self.gate_accepting,
                    &self.gate_appended,
                )
            };
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
                    // any): the issue paths use it as `issued_at`, so
                    // queueing delay counts toward response time.
                    self.pending_arrival = self.ingress.take_arrival();
                    let rejected_before = self.metrics.rejected;
                    self.issue(ctx, u, session);
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
    /// every idle channel with a waiter, then coalesced WRITEs for the
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
    /// the call against the check view, charge its body, mint its ids,
    /// let its category's path do what differs, and file the record its
    /// acknowledgement is counted on.
    pub(crate) fn issue<T: Transport>(&mut self, ctx: &mut T, update: O::Update, session: u32) {
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
        let (call_id, rid) = self.mint_call();
        let path = match self.coord.category(method) {
            MethodCategory::Reducible { sum_group } => {
                self.issue_reduce(ctx, call_id, update, method, sum_group.index())
            }
            MethodCategory::IrreducibleFree => self.issue_free(ctx, call_id, rid, update, method),
            MethodCategory::Conflicting { sync_group } => {
                // Key-sharded routing: hash the call's shard key onto
                // one of the group's engines. The ingress only emits
                // calls whose mapped group this node leads, so the
                // engine index is always a locally-accepting one.
                let mapped =
                    self.ingress.mapper().group_of(sync_group, self.spec.shard_key(&update));
                self.issue_conf(ctx, call_id, rid, update, method, mapped)
            }
        };
        let (conf, remotes) = (path.conf, path.remotes);
        let issued_at = self.pending_arrival.take().unwrap_or_else(|| ctx.now());
        self.outstanding.insert(call_id, Outstanding { issued_at, method, session, path });
        if let Some((g, _)) = conf {
            // Acknowledged when the commit index passes its seq — at
            // once on a single-node cluster, where the leader's own
            // copy is the majority.
            if self.majority_remote() == 0 {
                self.advance_commit(ctx, g);
            }
        } else if remotes == 0 {
            self.finish_call(ctx, call_id);
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

    /// Mint a fresh (call id, replica-unique request id) pair.
    fn mint_call(&mut self) -> (u64, Rid) {
        let call_id = self.next_call_id;
        self.next_call_id += 1;
        let rid = Rid::new(Pid(self.me.index()), self.next_rid_seq);
        self.next_rid_seq += 1;
        (call_id, rid)
    }

    /// Reject an impermissible call (or one `abort_call` orphaned):
    /// count it, free the session's window slot, and let the ingress
    /// plan a replacement.
    fn reject(&mut self, session: u32) {
        // A call rejected at issue never became outstanding; drop its
        // arrival stamp so the replacement call doesn't inherit it twice.
        self.pending_arrival = None;
        self.metrics.rejected += 1;
        self.ingress.on_abort(session);
    }

    /// Acknowledge a call — the caller decides when: its last remote
    /// completion ([`credit_remote`](Self::credit_remote)), or the
    /// commit index passing it (`commit.rs::advance_commit`). Records
    /// the latency, emits the trace event, fans the completion back to
    /// the issuing session, and frees the record. The freed window
    /// budget is planned by the event loop's next pump, together with
    /// every other ack handled before it.
    pub(crate) fn finish_call<T: Transport>(&mut self, ctx: &mut T, call_id: u64) {
        let Some(o) = self.outstanding.remove(&call_id) else { return };
        let Issued { phase, conf, .. } = o.path;
        self.metrics.ack_update(o.method.index(), phase, o.issued_at, ctx.now());
        let node = self.me;
        ctx.emit(|| TraceEvent::Ack {
            node,
            method: o.method.index(),
            phase,
            group: conf.map(|(g, _)| g),
            seq: conf.map(|(_, s)| s),
        });
        let rt_ns = ctx.now().since(o.issued_at).as_nanos();
        self.ingress.on_ack(o.session, rt_ns);
    }

    /// One more remote copy of the call landed — a summary version
    /// covering it at one peer, its `F`-ring append at one peer. The
    /// one countdown: the last copy acknowledges the call. Returns
    /// whether this was that last copy. A conflicting call owes the
    /// record nothing (its appends are the engine's `pending_acks`), so
    /// it is never acknowledged from here.
    pub(crate) fn credit_remote<T: Transport>(&mut self, ctx: &mut T, call_id: u64) -> bool {
        let Some(o) = self.outstanding.get_mut(&call_id) else { return false };
        if o.path.remotes == 0 {
            return false;
        }
        o.path.remotes -= 1;
        let landed = o.path.remotes == 0;
        if landed {
            self.finish_call(ctx, call_id);
        }
        landed
    }

    /// Abort an unacknowledged call (its leader was deposed): the
    /// client is told nothing was done, as for a rejected call.
    pub(crate) fn abort_call(&mut self, call_id: u64) {
        if let Some(o) = self.outstanding.remove(&call_id) {
            self.reject(o.session);
        }
    }

    /// FREE-APP / CONF-APP: apply a ring-delivered entry, once `Dep(u)`
    /// is met — adopting the landed summaries if that is what it waits
    /// for — and `false`, with nothing else touched, while it is not
    /// (the poll retries). `own_speculative` marks the leader's own
    /// uncommitted entry reaching commit: it is already in the
    /// speculative view, so only σ/mat advance.
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
        self.spec.apply_mut(&mut self.sigma, &entry.update);
        if !own_speculative {
            self.apply_to_views(&entry.update);
        } else if !self.mat_dirty {
            self.spec.apply_mut(&mut self.mat, &entry.update);
        }
        self.applied.increment(entry.rid.issuer, method);
        if entry.rid.issuer.index() != self.me.index() {
            self.metrics.remote_applied += 1;
        }
        self.metrics.last_apply = ctx.now();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::slot_ready;
    use crate::{assemble, Layout, RunConfig, TraceMode, WorkloadSpec};
    use hamband_core::counts::DepMap;
    use hamband_types::bank::{Bank, BankQuery, BankUpdate, DEPOSIT, OPEN};
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
        assert!(app.outstanding.is_empty() && app.metrics.updates_acked == 2);
        sim.take_trace();
        (sim, layout)
    }

    /// Issue `update` at node 0 and pump (nothing is planned; the flush
    /// posts what the call queued). Returns the call's id.
    fn issue(sim: &mut Cluster, update: BankUpdate) -> u64 {
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, update, 0);
            app.pump(ctx);
            app.next_call_id - 1
        })
    }

    /// Whether node 0's own copy of the `F` ring it feeds holds entry
    /// `seq`: what a recoverer READs if node 0 fails.
    fn own_copy_holds(sim: &Cluster, layout: &Layout, seq: u64) -> bool {
        let off = layout.free_slot_offset(N0, seq);
        slot_ready(&sim.region_bytes(N0, layout.free_rings)[off..][..layout.entry_size()], seq)
    }

    /// The WRITEs node 0 posted since the trace was last drained.
    fn posted_writes(sim: &mut Cluster) -> Vec<WrId> {
        sim.take_trace()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::VerbPosted { issuer: N0, kind: VerbKind::Write, wr, .. } => Some(wr),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_free_call_is_acknowledged_by_the_last_of_its_append_completions() {
        let (mut sim, layout) = funded_cluster();
        // The funding deposit was entry 1; this one is entry 2.
        sim.with_app_ctx(N0, |app, ctx| app.issue(ctx, BankUpdate::Deposit(ACCT, 5), 0));
        assert!(posted_writes(&mut sim).is_empty(), "the appends wait for the pump's flush");
        assert!(own_copy_holds(&sim, &layout, 2), "the own copy is written before they leave");
        sim.with_app_ctx(N0, |app, ctx| app.pump(ctx));
        let appends = posted_writes(&mut sim);
        assert_eq!(appends.len(), 2, "one F-ring append per peer");
        // The first completion, handed to its handler: claimed, and
        // nothing else moves.
        let done = |sim: &mut Cluster, wr| {
            sim.with_app_ctx(N0, |app, ctx| {
                app.on_free_completion(ctx, wr, CompletionStatus::Success, None)
            })
        };
        assert!(done(&mut sim, appends[0]));
        let app = sim.app(N0);
        assert_eq!((app.metrics.updates_acked, app.outstanding.len()), (2, 1));
        // The second is the last: ack and the record's end, both in
        // that handler.
        assert!(done(&mut sim, appends[1]));
        let app = sim.app(N0);
        assert_eq!(app.metrics.updates_acked, 3);
        assert!(app.outstanding.is_empty() && app.free_call_by_seq.is_empty());
        // The fabric's own completions find nothing left to credit.
        sim.run_for(SimDuration::micros(10));
        assert_eq!(sim.app(N0).metrics.updates_acked, 3);
        assert_eq!(sim.app(NodeId(2)).state_snapshot(), sim.app(N0).state_snapshot());
    }

    #[test]
    fn commit_acknowledges_a_conf_call_and_credit_remote_never_does() {
        let (mut sim, _layout) = funded_cluster();
        let cid = issue(&mut sim, BankUpdate::Withdraw(ACCT, 3));
        for _ in 0..3 {
            let landed = sim.with_app_ctx(N0, |app, ctx| app.credit_remote(ctx, cid));
            assert!(!landed);
        }
        let app = sim.app(N0);
        assert_eq!((app.metrics.updates_acked, app.outstanding.len()), (2, 1));
        // A majority of its appends lands; `advance_commit` acknowledges.
        sim.run_for(SimDuration::micros(10));
        let app = sim.app(N0);
        assert_eq!(app.engines[0].commit, 1);
        assert_eq!(app.metrics.updates_acked, 3);
        assert!(app.outstanding.is_empty());
    }

    #[test]
    fn a_deposed_leader_aborts_its_unacknowledged_calls() {
        let (mut sim, _layout) = funded_cluster();
        issue(&mut sim, BankUpdate::Withdraw(ACCT, 3));
        issue(&mut sim, BankUpdate::Withdraw(ACCT, 4));
        assert_eq!(sim.app(N0).outstanding.len(), 2);
        sim.with_app_ctx(N0, |app, ctx| app.depose(ctx, 0));
        let app = sim.app(N0);
        assert!(app.outstanding.is_empty());
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
        assert_eq!(app.engines[0].leader().map(|l| l.uncommitted.len()), Some(1));
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
            (app.sigma.clone(), app.applied.clone(), format!("{:?}", app.metrics))
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
        assert_eq!(app.sigma.balances.get(&9), Some(&5));
        assert_eq!(app.applied.get(Pid(2), DEPOSIT), 1);
    }
}
