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

use hamband_core::ids::{MethodId, Pid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{NodeId, Phase, TraceEvent};

use crate::calls::{Issued, Route};
use crate::codec::{summary_version, SummarySlot};
use crate::replica::{peers, HambandNode};
use crate::transport::Transport;

/// Last summary observed from one (summarization group, source):
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

        // Reliable broadcast: backup first, then the remote writes.
        let backup_slot = self.write_backup(ctx, call_id, crate::codec::BACKUP_SUMMARY, g as u8, version, &slot);
        let offset = self.layout.summary_offset(g, self.me);
        ctx.local_write(self.layout.summaries, offset, &slot);
        // Durability seam: the own summary slot is this node's only
        // record of its reducible calls — fence it before the remote
        // copies can land.
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
        Issued {
            phase: Phase::Reduce,
            conf: None,
            remotes: self.n - 1,
            backup_slot: Some(backup_slot),
        }
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

    /// Poll every peer's summary slots: adopt newer versions into the
    /// cache, raise the applied counts, and fold the summary into the
    /// views (or invalidate them, for non-monotone summaries).
    pub(crate) fn poll_summaries<T: Transport>(&mut self, ctx: &mut T) {
        let monotone = self.spec.summaries_monotone();
        for g in 0..self.sum_cache.len() {
            for node in peers(self.me, self.n) {
                let src = node.index();
                let off = self.layout.summary_offset(g, node);
                let size = self.layout.summary_size(g);
                let parsed = {
                    let bytes = ctx.local(self.layout.summaries, off, size);
                    // Fast path: peek the leading version word before
                    // paying for a full seqlock parse — an unchanged
                    // slot is the common case in the poll loop.
                    if summary_version(bytes) <= self.sum_cache[g][src].version {
                        continue;
                    }
                    SummarySlot::<O::Update>::from_slot(bytes, self.coord.sum_groups()[g].len())
                };
                let Some(slot) = parsed else { continue };
                if slot.version <= self.sum_cache[g][src].version {
                    continue;
                }
                ctx.charge_apply();
                for (i, &m) in self.coord.sum_groups()[g].iter().enumerate() {
                    let old = self.applied.get(Pid(src), m);
                    self.applied.set(Pid(src), m, old.max(slot.counts[i]));
                }
                if monotone {
                    if let Some(sum) = &slot.summary {
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
                    // rebuild it from scratch below if present.
                    if self.spec_mat.is_some() {
                        self.rebuild_spec_mat();
                    }
                }
                self.metrics.remote_applied += 1;
                self.metrics.last_apply = ctx.now();
                self.sum_cache[g][src] = CachedSummary {
                    version: slot.version,
                    counts: slot.counts,
                    summary: slot.summary,
                };
            }
        }
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
    use crate::{assemble, RunConfig, WorkloadSpec};
    use hamband_types::counter::{Counter, CounterUpdate};
    use rdma_sim::{SimDuration, Simulator};

    const N0: NodeId = NodeId(0);

    /// Three started Counter replicas with no workload of their own:
    /// the tests issue node 0's REDUCE calls by hand.
    fn idle_cluster() -> Simulator<HambandNode<Counter>> {
        let c = Counter::default();
        let run = RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1);
        let (mut sim, _layout, _trace) = assemble(&c, &c.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        sim
    }

    fn add(sim: &mut Simulator<HambandNode<Counter>>, delta: i64) {
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, CounterUpdate::Add(delta), 0);
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
}
