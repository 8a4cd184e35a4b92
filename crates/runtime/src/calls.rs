//! Client-call lifecycle: the pump that plans calls, ids,
//! outstanding-call bookkeeping, backup slots, acknowledgement.
//!
//! Every update call a replica issues gets a local call id and an
//! `Outstanding` record tracking how many remote completions are
//! still needed before the client is acknowledged
//! (`HambandNode::finish_call`) and before the call's
//! reliable-broadcast backup slot can be garbage-collected. One-sided
//! work requests that are not ring appends carry a `Route` so their
//! completions find their handler. The `pump`
//! drains the driver's plan into the per-category issue paths
//! (`reduce.rs` / `free.rs` / `conf.rs`).
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

use crate::codec::compose_backup_slot;
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
    /// A READ of a suspect's backup region (`recovery`).
    RecoveryRead { suspect: NodeId },
    /// A READ of one ring slot from the longest follower (`election`).
    CatchupRead {
        group: usize,
        from_seq: u64,
        max_tail: u64,
    },
}

/// Remote-completion bookkeeping for one issued update call.
#[derive(Debug)]
pub(crate) struct Outstanding {
    pub(crate) issued_at: SimTime,
    pub(crate) method: MethodId,
    /// Client session (ingress slot) the ack fans back to.
    pub(crate) session: u32,
    /// Protocol path this call travels (REDUCE/FREE/CONF).
    pub(crate) phase: Phase,
    /// For conflicting calls: (synchronization group, L-ring seq).
    pub(crate) conf: Option<(usize, u64)>,
    /// Remote completions still needed before the client is acked.
    pub(crate) ack_remaining: usize,
    /// Remote completions still outstanding in total (backup clear).
    pub(crate) total_remaining: usize,
    pub(crate) backup_slot: Option<usize>,
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
                    let reply = self.spec.query(self.check_view(), &q);
                    let _ = reply;
                    let cost = ctx.charge_apply();
                    self.metrics.ack_query(cost + waited);
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

    fn issue<T: Transport>(&mut self, ctx: &mut T, update: O::Update, session: u32) {
        let method = self.spec.method_of(&update);
        match self.coord.category(method) {
            MethodCategory::Reducible { sum_group } => {
                self.issue_reduce(ctx, update, method, sum_group.index(), session)
            }
            MethodCategory::IrreducibleFree => self.issue_free(ctx, update, method, session),
            MethodCategory::Conflicting { sync_group } => {
                // Key-sharded routing: hash the call's shard key onto
                // one of the group's engines. The ingress only emits
                // calls whose mapped group this node leads, so the
                // engine index is always a locally-accepting one.
                let mapped =
                    self.ingress.mapper().group_of(sync_group, self.spec.shard_key(&update));
                self.issue_conf(ctx, update, method, mapped, session)
            }
        }
    }

    /// Mint a fresh (call id, replica-unique request id) pair.
    pub(crate) fn mint_call(&mut self) -> (u64, Rid) {
        let call_id = self.next_call_id;
        self.next_call_id += 1;
        let rid = Rid::new(Pid(self.me.index()), self.next_rid_seq);
        self.next_rid_seq += 1;
        (call_id, rid)
    }

    /// Reject an impermissible call: count it, free the session's
    /// window slot, and let the ingress plan a replacement.
    pub(crate) fn reject(&mut self, session: u32) {
        // A rejected call never became outstanding; drop its arrival
        // stamp so the replacement call doesn't inherit it twice.
        self.pending_arrival = None;
        self.metrics.rejected += 1;
        self.ingress.on_abort(session);
    }

    /// Stash the encoded slot in this node's backup region before the
    /// remote writes go out (the validity half of reliable broadcast:
    /// a delegate can re-execute the writes if we crash mid-broadcast).
    pub(crate) fn write_backup<T: Transport>(
        &mut self,
        ctx: &mut T,
        call_id: u64,
        kind: u8,
        group: u8,
        seq: u64,
        slot: &[u8],
    ) -> usize {
        let idx = (call_id % self.layout.backup_slots() as u64) as usize;
        let (off, size) = self.layout.backup_slot(idx);
        compose_backup_slot(&mut self.backup_buf, kind, group, seq, slot, size);
        ctx.local_write(self.layout.backup, off, &self.backup_buf);
        idx
    }

    pub(crate) fn clear_backup<T: Transport>(&mut self, ctx: &mut T, idx: usize) {
        let (off, _) = self.layout.backup_slot(idx);
        ctx.local_write(self.layout.backup, off, &[0]);
    }

    /// Acknowledge a call whose ack countdown reached zero: record the
    /// latency, emit the trace event, fan the completion back to the
    /// issuing session, and GC the backup slot once no write is in
    /// flight. The freed window budget is planned by the event loop's
    /// next pump, together with every other ack handled before it.
    pub(crate) fn finish_call<T: Transport>(&mut self, ctx: &mut T, call_id: u64) {
        if let Some(o) = self.outstanding.get_mut(&call_id) {
            if o.ack_remaining != 0 {
                return;
            }
            let method = o.method;
            let issued_at = o.issued_at;
            let phase = o.phase;
            let conf = o.conf;
            let session = o.session;
            self.metrics.ack_update(method.index(), phase, issued_at, ctx.now());
            let node = self.me;
            ctx.emit(|| TraceEvent::Ack {
                node,
                method: method.index(),
                phase,
                group: conf.map(|(g, _)| g),
                seq: conf.map(|(_, s)| s),
            });
            let rt_ns = ctx.now().since(issued_at).as_nanos();
            self.ingress.on_ack(session, rt_ns);
            let done = o.total_remaining == 0;
            if done {
                let slot = o.backup_slot;
                self.outstanding.remove(&call_id);
                if let Some(idx) = slot {
                    self.clear_backup(ctx, idx);
                }
            } else {
                // Acked but writes still in flight: keep for backup GC.
                o.ack_remaining = 0;
            }
        }
    }

    /// One peer now durably holds this reducible call's summary: the
    /// per-call remote bookkeeping (ack countdown, backup GC) that a
    /// dedicated completion used to drive before write-combining.
    pub(crate) fn credit_summary_peer<T: Transport>(&mut self, ctx: &mut T, call_id: u64) {
        let mut finished = false;
        let mut cleanup = None;
        if let Some(o) = self.outstanding.get_mut(&call_id) {
            o.total_remaining = o.total_remaining.saturating_sub(1);
            if o.ack_remaining > 0 && o.ack_remaining != usize::MAX {
                o.ack_remaining -= 1;
                finished = o.ack_remaining == 0;
            }
            if o.total_remaining == 0 && !finished {
                cleanup = Some(call_id);
            }
        }
        if let Some(cid) = cleanup {
            if let Some(o) = self.outstanding.remove(&cid) {
                if let Some(idx) = o.backup_slot {
                    self.clear_backup(ctx, idx);
                }
            }
        } else if finished {
            self.finish_call(ctx, call_id);
        }
    }
}
