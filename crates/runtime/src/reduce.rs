//! REDUCE path: reducible calls folded into per-(group, source)
//! summaries and broadcast as seqlock-versioned summary slots.
//!
//! Fig. 7's REDUCE rule: a reducible call is summarized with the
//! issuer's current summary for its summarization group; peers learn it
//! by polling the issuer's summary slot (last-writer-wins, carrying the
//! per-method applied counts). The broadcast is write-combined: at most
//! one summary WRITE per (group, peer) channel is in flight, and a
//! landed version acknowledges every call folded in up to it.
//!
//! The channel obeys the rule the rings obey — queue while handling and
//! planning, post once in the pump's flush. `issue_reduce` folds and
//! queues its waiter (`sum_waiters`) and never posts;
//! `on_summary_write_done` frees the channel and credits what landed
//! and never reposts; `flush_summaries`, at the end of every pump,
//! posts the latest slot wherever a channel is idle and someone waits.
//! So the calls a planning pass issues into the window slots a
//! completion freed ride the very WRITE that completion made room for,
//! not the one after it (DESIGN.md §5a).
//!
//! A landed version costs its reader nothing until a read needs it.
//! `adopt_summaries` peeks each peer slot's version word and decodes and
//! adopts a slot that moved, one `apply_cost` each. It runs where a
//! summary's content is read: a query (`calls.rs::pump`), a call the
//! stale view rejects (`calls.rs::issue`), an entry whose `Dep(u)` is
//! unmet (`calls.rs::apply_buffered`) and a suspicion's quota adoption
//! (`recovery.rs::on_suspect`). A node with no local workload left
//! adopts at every poll, so runs converge.

use hamband_core::ids::{MethodId, Pid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{NodeId, Phase, TraceEvent};

use crate::calls::{Issued, Route};
use crate::codec::{summary_version, SummarySlot};
use crate::replica::{peers, HambandNode};
use crate::transport::Transport;

/// Last summary adopted from one (summarization group, source):
/// version word, per-method applied counts, and the summary itself.
#[derive(Debug, Clone)]
pub(crate) struct CachedSummary<U> {
    pub(crate) version: u64,
    pub(crate) counts: Vec<u64>,
    pub(crate) summary: Option<U>,
}

impl<O: WorkloadSupport> HambandNode<O> {
    /// REDUCE: fold into the summary, queue the slot's broadcast.
    pub(crate) fn issue_reduce<T: Transport>(
        &mut self,
        ctx: &mut T,
        call_id: u64,
        update: O::Update,
        method: MethodId,
        g: usize,
    ) -> Issued {
        let me = self.me.index();
        let midx = self.coord.sum_groups()[g]
            .iter()
            .position(|&m| m == method)
            .expect("method in group");
        // Summarize with the current own summary.
        let new_summary = match &self.sum_cache[g][me].summary {
            None => update.clone(),
            Some(prev) => self
                .spec
                .summarize(prev, &update)
                .expect("summarization group closed under summarize"),
        };
        let cache = &mut self.sum_cache[g][me];
        cache.version += 1;
        cache.counts[midx] += 1;
        cache.summary = Some(new_summary);
        let version = cache.version;
        // Encode the latest slot once into the group's reusable buffer
        // (used prefix only) straight from the cache — no clones.
        let mut slot = std::mem::take(&mut self.sum_slot_buf[g]);
        {
            let cache = &self.sum_cache[g][me];
            SummarySlot::encode_parts_into(
                version,
                &cache.counts,
                cache.summary.as_ref(),
                self.layout.summary_size(g),
                &mut slot,
            );
        }
        self.applied.set(Pid(me), method, self.sum_cache[g][me].counts[midx]);
        // Local effects: the call itself lands in the views.
        self.apply_to_views(&update);
        self.metrics.last_apply = ctx.now();

        // Reliable broadcast: the own slot a recoverer READs first,
        // then the remote writes. Durability seam: it is also this
        // node's only record of its reducible calls — fence it before
        // the remote copies can land.
        let offset = self.layout.summary_offset(g, self.me);
        ctx.local_write(self.layout.summaries, offset, &slot);
        ctx.fence_region(self.layout.summaries);
        // Write-combining: the call only queues here. The pump's flush
        // posts the latest slot on every idle channel once the whole
        // planning pass has folded in — the slot is last-writer-wins,
        // so a landed version v acknowledges every call folded in up
        // to v.
        for q in peers(self.me, self.n) {
            self.sum_waiters[g][q.index()].push_back((version, call_id));
        }
        self.sum_slot_buf[g] = slot;
        Issued { phase: Phase::Reduce, conf: None, remotes: self.n - 1 }
    }

    /// Post the group's latest encoded slot on every (group, peer)
    /// channel that is idle and has a waiter. Called once per planning
    /// pass, after the last fold, so one WRITE per peer carries every
    /// call the pass issued and every call that folded in while the
    /// previous WRITE was in flight.
    pub(crate) fn flush_summaries<T: Transport>(&mut self, ctx: &mut T) {
        for g in 0..self.sum_waiters.len() {
            for q in 0..self.n {
                if self.sum_inflight[g][q].is_none() && !self.sum_waiters[g][q].is_empty() {
                    self.post_summary(ctx, g, NodeId(q));
                }
            }
        }
    }

    /// Post one summary WRITE of the group's latest slot to `target`
    /// and mark the (group, peer) channel busy. A combined write
    /// carries the whole group's summary, so the trace event is
    /// labelled with the group's first method.
    fn post_summary<T: Transport>(&mut self, ctx: &mut T, g: usize, target: NodeId) {
        debug_assert!(self.sum_inflight[g][target.index()].is_none(), "one in flight per peer");
        let version = self.sum_cache[g][self.me.index()].version;
        let offset = self.layout.summary_offset(g, self.me);
        let wr = ctx.post_write(target, self.layout.summaries, offset, &self.sum_slot_buf[g]);
        let issuer = self.me;
        ctx.emit(|| TraceEvent::SummaryWrite {
            issuer,
            target,
            method: self.coord.sum_groups()[g][0].index(),
            version,
        });
        self.sum_inflight[g][target.index()] = Some(version);
        self.wr_routes.insert(wr, Route::SummaryWrite { group: g, target, version });
    }

    /// The poll's REDUCE step: adopt what landed only once the node's
    /// local workload is done (halted included). Until then a read
    /// adopts what it needs.
    pub(crate) fn poll_summaries<T: Transport>(&mut self, ctx: &mut T) {
        if self.ingress.local_done() {
            self.adopt_summaries(ctx);
        }
    }

    /// Adopt every peer slot whose version moved: decode it, raise the
    /// applied counts, and fold the summary into the views (or
    /// invalidate them, for non-monotone summaries), one `apply_cost`
    /// each. The slot is read as it is now, however many versions it
    /// moved by — one adoption. Returns how many slots it adopted.
    pub(crate) fn adopt_summaries<T: Transport>(&mut self, ctx: &mut T) -> u64 {
        let monotone = self.spec.summaries_monotone();
        let mut adopted = 0;
        for g in 0..self.sum_cache.len() {
            for node in peers(self.me, self.n) {
                let src = node.index();
                let off = self.layout.summary_offset(g, node);
                let size = self.layout.summary_size(g);
                let parsed = {
                    let bytes = ctx.local(self.layout.summaries, off, size);
                    // Peek the leading version word before paying for a
                    // full seqlock parse: free on the virtual clock, and
                    // an unchanged slot is the common case.
                    if summary_version(bytes) <= self.sum_cache[g][src].version {
                        continue;
                    }
                    SummarySlot::<O::Update>::from_slot(bytes, self.coord.sum_groups()[g].len())
                };
                // A torn slot is tried again by the next read.
                let Some(slot) = parsed else { continue };
                if slot.version <= self.sum_cache[g][src].version {
                    continue;
                }
                ctx.charge_apply();
                for (i, &m) in self.coord.sum_groups()[g].iter().enumerate() {
                    let old = self.applied.get(Pid(src), m);
                    self.applied.set(Pid(src), m, old.max(slot.counts[i]));
                }
                // Cache first: a rebuild of `spec_mat` below reads it.
                self.sum_cache[g][src] = CachedSummary {
                    version: slot.version,
                    counts: slot.counts,
                    summary: slot.summary,
                };
                if monotone {
                    if let Some(sum) = &self.sum_cache[g][src].summary {
                        if !self.mat_dirty {
                            self.spec.apply_mut(&mut self.mat, sum);
                        }
                        if let Some(sm) = self.spec_mat.as_mut() {
                            self.spec.apply_mut(sm, sum);
                        }
                    }
                } else {
                    self.mat_dirty = true;
                    // A stale speculative view would corrupt checks:
                    // rebuild it from the updated cache if present.
                    if self.spec_mat.is_some() {
                        self.rebuild_spec_mat(ctx);
                    }
                }
                self.metrics.summary_adoptions += 1;
                self.metrics.last_apply = ctx.now();
                adopted += 1;
            }
        }
        adopted
    }

    /// A summary WRITE to `(g, target)` completed: free the channel and
    /// credit every call whose version the landed write covers. Never
    /// reposts — if the local summary moved past what landed, the
    /// waiters left behind make the next pump's flush post the latest
    /// slot, together with whatever that pump plans into the window
    /// slots this completion frees.
    pub(crate) fn on_summary_write_done<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        target: NodeId,
        version: u64,
    ) {
        // Summary regions never revoke write permission, so the
        // status needs no inspection (same as before combining).
        let q = target.index();
        debug_assert_eq!(self.sum_inflight[g][q], Some(version), "routed write matches");
        self.sum_inflight[g][q] = None;
        // The slot is last-writer-wins: landing version v makes
        // every folded-in call up to v durable at this peer.
        while let Some(&(v, cid)) = self.sum_waiters[g][q].front() {
            if v > version {
                break;
            }
            self.sum_waiters[g][q].pop_front();
            self.credit_remote(ctx, cid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Entry;
    use crate::{assemble, RunConfig, WorkloadSpec};
    use hamband_core::counts::DepMap;
    use hamband_core::demo::Account;
    use hamband_core::ids::Rid;
    use hamband_core::ObjectSpec;
    use hamband_types::bank::{Bank, BankUpdate, OPEN};
    use hamband_types::counter::{Counter, CounterUpdate, ADD};
    use rdma_sim::{LatencyModel, SimDuration, Simulator};

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    /// Three started Counter replicas with no workload of their own:
    /// the tests issue node 0's REDUCE calls by hand.
    fn idle_cluster() -> Simulator<HambandNode<Counter>> {
        let c = Counter::default();
        let run = RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1);
        let (mut sim, _layout) = assemble(&c, &c.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        sim
    }

    fn add(sim: &mut Simulator<HambandNode<Counter>>, delta: i64) {
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, CounterUpdate::Add(delta), 0, None);
        });
    }

    fn flush(sim: &mut Simulator<HambandNode<Counter>>) {
        sim.with_app_ctx(N0, |app, ctx| app.flush_summaries(ctx));
    }

    /// Versions waiting on node 0's channel to `q`, oldest first.
    fn waiting(sim: &Simulator<HambandNode<Counter>>, q: usize) -> Vec<u64> {
        sim.app(N0).sum_waiters[0][q].iter().map(|&(v, _)| v).collect()
    }

    #[test]
    fn idle_channel_without_waiter_posts_nothing() {
        let mut sim = idle_cluster();
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 0);
        assert_eq!(sim.app(N0).sum_inflight[0], [None; 3]);
    }

    #[test]
    fn calls_of_one_pump_share_one_write_carrying_the_latest_version() {
        let mut sim = idle_cluster();
        add(&mut sim, 1);
        add(&mut sim, 2);
        assert_eq!(sim.stats().writes, 0, "issuing only queues");
        assert_eq!(waiting(&sim, 1), [1, 2]);
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 2, "one WRITE per peer, not one per call");
        assert_eq!(sim.app(N0).sum_inflight[0], [None, Some(2), Some(2)]);
        // Both completions land, each followed by a pump with nothing
        // left to post: version 2 covered both waiters.
        sim.run_for(SimDuration::micros(5));
        let app = sim.app(N0);
        assert_eq!(app.sum_inflight[0], [None; 3]);
        assert!(waiting(&sim, 1).is_empty() && waiting(&sim, 2).is_empty());
        assert_eq!(app.metrics.updates_acked, 2);
        assert!(app.outstanding.is_empty());
        assert_eq!(sim.stats().writes, 2);
        assert_eq!(sim.app(NodeId(1)).state_snapshot(), 3);
        assert_eq!(sim.app(NodeId(2)).state_snapshot(), 3);
    }

    #[test]
    fn busy_channel_holds_newer_waiters_until_the_pump_after_its_completion() {
        let mut sim = idle_cluster();
        add(&mut sim, 1);
        flush(&mut sim);
        assert_eq!(sim.app(N0).sum_inflight[0], [None, Some(1), Some(1)]);
        add(&mut sim, 2);
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 2, "at most one summary WRITE in flight per channel");
        assert_eq!(waiting(&sim, 1), [1, 2]);
        // Version 1 lands at node 1. The handler frees the channel and
        // credits what landed; it does not repost.
        sim.with_app_ctx(N0, |app, ctx| app.on_summary_write_done(ctx, 0, NodeId(1), 1));
        assert_eq!(sim.stats().writes, 2);
        assert_eq!(sim.app(N0).sum_inflight[0], [None, None, Some(1)]);
        assert_eq!(waiting(&sim, 1), [2]);
        // The next pump's flush does, on that channel only.
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 3);
        assert_eq!(sim.app(N0).sum_inflight[0], [None, Some(2), Some(1)]);
        assert_eq!(waiting(&sim, 2), [1, 2]);
    }

    #[test]
    fn dirty_channels_drain_through_the_event_loop() {
        // The same sequence left to the simulator shell: each completion
        // is followed by a pump, whose flush reposts version 2.
        let mut sim = idle_cluster();
        add(&mut sim, 1);
        flush(&mut sim);
        add(&mut sim, 2);
        flush(&mut sim);
        sim.run_for(SimDuration::micros(10));
        assert_eq!(sim.stats().writes, 4, "versions 1 and 2, once per peer");
        let app = sim.app(N0);
        assert_eq!(app.sum_inflight[0], [None; 3]);
        assert_eq!(app.metrics.updates_acked, 2);
        assert!(app.outstanding.is_empty());
        assert_eq!(sim.app(NodeId(1)).state_snapshot(), 3);
        assert_eq!(sim.app(NodeId(2)).state_snapshot(), 3);
    }

    /// Copy `from`'s own slot of summarization group 0 into `to`'s copy:
    /// its WRITE landing, without running the cluster (whose polls and
    /// pumps would act on it).
    fn land<O: WorkloadSupport + Clone>(
        sim: &mut Simulator<HambandNode<O>>,
        from: NodeId,
        to: NodeId,
    ) {
        let layout = sim.app(from).layout.clone();
        let off = layout.summary_offset(0, from);
        let slot =
            sim.region_bytes(from, layout.summaries)[off..][..layout.summary_size(0)].to_vec();
        sim.with_app_ctx(to, |_, ctx| ctx.local_write(layout.summaries, off, &slot));
    }

    fn poll<O: WorkloadSupport + Clone>(sim: &mut Simulator<HambandNode<O>>, node: NodeId) {
        sim.with_app_ctx(node, |app, ctx| app.poll_summaries(ctx));
    }

    fn pump(sim: &mut Simulator<HambandNode<Counter>>, node: NodeId) {
        sim.with_app_ctx(node, |app, ctx| app.pump(ctx));
    }

    #[test]
    fn a_node_with_quota_left_polls_past_a_landed_version_and_a_query_adopts_it_once() {
        let mut sim = idle_cluster();
        sim.app_mut(N1).ingress.adopt_free_quota(&[0], 2);
        add(&mut sim, 5);
        land(&mut sim, N0, N1);
        let seen = |sim: &Simulator<HambandNode<Counter>>| {
            let app = sim.app(N1);
            (app.sigma, app.state_snapshot(), app.applied.clone(), sim.stats().cpu_busy_ns[1])
        };
        let before = seen(&sim);
        poll(&mut sim, N1);
        assert_eq!(seen(&sim), before, "not adopted, not charged");
        // The pump runs both queries. The first reads σ with the landed
        // summary applied, so it adopts it; the second finds nothing new.
        pump(&mut sim, N1);
        let app = sim.app(N1);
        assert_eq!((app.metrics.queries, app.metrics.summary_adoptions), (2, 1));
        assert_eq!((app.state_snapshot(), app.applied.get(Pid(0), ADD)), (5, 1));
        let apply_cost = LatencyModel::default().apply_cost.as_nanos();
        let charged = sim.stats().cpu_busy_ns[1] - before.3;
        assert_eq!(charged, 3 * apply_cost, "one adoption and two queries");
        // The adoption is on the first query's response time.
        let rt = &app.metrics.rt_per_phase[Phase::Query.index()];
        assert_eq!((rt.sum_ns(), rt.max_ns()), (3 * apply_cost, 2 * apply_cost));
    }

    #[test]
    fn once_the_local_workload_is_done_the_next_poll_adopts() {
        let mut sim = idle_cluster();
        sim.app_mut(N1).ingress.adopt_free_quota(&[1], 0);
        add(&mut sim, 5);
        land(&mut sim, N0, N1);
        pump(&mut sim, N1);
        poll(&mut sim, N1);
        assert_eq!(sim.app(N1).metrics.summary_adoptions, 0, "its add is in flight");
        // Node 1's add lands at both peers: nothing is left to do.
        for q in [N0, NodeId(2)] {
            sim.with_app_ctx(N1, |app, ctx| app.on_summary_write_done(ctx, 0, q, 1));
        }
        let app = sim.app(N1);
        assert!(app.ingress.local_done() && app.metrics.summary_adoptions == 0);
        let own = app.state_snapshot();
        poll(&mut sim, N1);
        let app = sim.app(N1);
        assert_eq!(app.metrics.summary_adoptions, 1);
        assert_eq!(app.state_snapshot(), own + 5);
    }

    const ACCT: u64 = 9;

    /// Three started Bank replicas with no workload but a deposit quota
    /// at node 0, which therefore does not adopt at a poll; node 0 leads
    /// the withdraw group. Node 1 opens account 9; its slot has not
    /// landed at node 0 yet.
    fn bank_with_an_opening_at_node_1() -> Simulator<HambandNode<Bank>> {
        let bank = Bank::default();
        let run = RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1);
        let (mut sim, _layout) = assemble(&bank, &bank.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        assert!(sim.app(N0).engines[0].is_leader());
        sim.app_mut(N0).ingress.adopt_free_quota(&[0, 1, 0], 0);
        let open = BankUpdate::OpenAccounts(vec![ACCT]);
        sim.with_app_ctx(N1, |app, ctx| app.issue(ctx, open, 0, None));
        sim
    }

    #[test]
    fn a_withdraw_on_a_landed_but_unadopted_opening_is_accepted() {
        let mut sim = bank_with_an_opening_at_node_1();
        let withdraw = |sim: &mut Simulator<HambandNode<Bank>>| {
            sim.with_app_ctx(N0, |app, ctx| app.issue(ctx, BankUpdate::Withdraw(ACCT, 0), 0, None));
            let app = sim.app(N0);
            (app.metrics.rejected, app.metrics.summary_adoptions, app.outstanding.len())
        };
        // Before the opening lands, the check has nothing to adopt.
        assert_eq!(withdraw(&mut sim), (1, 0, 0));
        land(&mut sim, N1, N0);
        poll(&mut sim, N0);
        assert_eq!(sim.app(N0).metrics.summary_adoptions, 0, "quota left: the poll adopts nothing");
        // The stale view rejects the call; the check adopts and looks again.
        assert_eq!(withdraw(&mut sim), (1, 1, 1));
    }

    #[test]
    fn a_deposit_waiting_on_a_landed_opening_applies_in_the_same_poll_pass() {
        let mut sim = bank_with_an_opening_at_node_1();
        let deposit = Entry {
            rid: Rid::new(Pid(1), 0),
            update: BankUpdate::Deposit(ACCT, 5),
            deps: DepMap::from_entries([(Pid(1), OPEN, 1)]),
        };
        let apply = |app: &mut HambandNode<Bank>, ctx: &mut rdma_sim::Ctx<'_>| {
            app.apply_buffered(ctx, &deposit, false)
        };
        assert!(!sim.with_app_ctx(N0, apply), "nothing landed: the entry waits");
        land(&mut sim, N1, N0);
        // One poll pass: the summary step adopts nothing (quota left),
        // and the ring step's apply, finding `Dep(u)` unmet, adopts it.
        let applied = sim.with_app_ctx(N0, |app, ctx| {
            app.poll_summaries(ctx);
            apply(app, ctx)
        });
        assert!(applied);
        let app = sim.app(N0);
        assert_eq!(app.metrics.summary_adoptions, 1);
        assert_eq!(app.state_snapshot().balances.get(&ACCT), Some(&5));
    }

    /// A non-monotone summary (Account's deposits: a version replaces
    /// the last) adopted while the leader has an uncommitted withdraw:
    /// `spec_mat` is rebuilt from the cache, which must already hold
    /// the new version.
    #[test]
    fn a_non_monotone_summary_reaches_the_leaders_check_view() {
        let acct = Account::default();
        let run = RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1);
        let (mut sim, _layout) = assemble(&acct, &acct.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        assert!(sim.app(N0).engines[0].is_leader() && !acct.summaries_monotone());
        // The cluster does not run, so the withdraw stays uncommitted.
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, Account::deposit(10), 0, None);
            app.issue(ctx, Account::withdraw(3), 0, None);
        });
        assert_eq!(sim.app(N0).spec_mat, Some(7));
        sim.with_app_ctx(N1, |app, ctx| app.issue(ctx, Account::deposit(5), 0, None));
        land(&mut sim, N1, N0);
        assert_eq!(sim.with_app_ctx(N0, |app, ctx| app.adopt_summaries(ctx)), 1);
        let app = sim.app(N0);
        assert_eq!(*app.check_view(), 12, "node 1's deposit is in the view the leader checks");
        assert_eq!(app.spec_mat, Some(12));
    }
}
