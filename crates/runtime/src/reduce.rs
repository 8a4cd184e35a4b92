//! REDUCE path: reducible calls folded into per-(group, source)
//! summaries and broadcast as seqlock-versioned summary slots.
//!
//! Fig. 7's REDUCE rule: a reducible call is summarized with the
//! issuer's current summary for its summarization group; peers learn it
//! by polling the issuer's summary slot (last-writer-wins, carrying the
//! per-method applied counts). The broadcast is write-combined: at most
//! one summary WRITE per (group, peer) channel is in flight; calls
//! folded in meanwhile wait (`sum_waiters`) for a later write to carry
//! their — or a newer — version, and a completion that lands stale
//! reposts the latest slot.

use hamband_core::ids::{MethodId, Pid};
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use rdma_sim::{NodeId, Phase, TraceEvent};

use crate::calls::{Outstanding, Route};
use crate::codec::{summary_version, SummarySlot};
use crate::replica::HambandNode;
use crate::transport::Transport;

/// Last summary observed from one (summarization group, source):
/// version word, per-method applied counts, and the summary itself.
#[derive(Debug, Clone)]
pub(crate) struct CachedSummary<U> {
    pub(crate) version: u64,
    pub(crate) counts: Vec<u64>,
    pub(crate) summary: Option<U>,
}

impl<O> HambandNode<O>
where
    O: WorkloadSupport,
    O::Update: Wire,
{
    /// REDUCE: fold into the summary, broadcast the slot.
    pub(crate) fn issue_reduce<T: Transport>(
        &mut self,
        ctx: &mut T,
        update: O::Update,
        method: MethodId,
        g: usize,
        session: u32,
    ) {
        if !self.permissible_now(&update) {
            self.reject(session);
            return;
        }
        ctx.charge_apply();
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

        let (call_id, _rid) = self.mint_call();
        // Reliable broadcast: backup first, then the remote writes.
        let backup_slot = self.write_backup(ctx, call_id, crate::codec::BACKUP_SUMMARY, g as u8, version, &slot);
        let offset = self.layout.summary_offset(g, self.me);
        ctx.local_write(self.layout.summaries, offset, &slot);
        // Durability seam: the own summary slot is this node's only
        // record of its reducible calls — fence it before the remote
        // copies can land.
        ctx.fence_region(self.layout.summaries);
        // Write-combining: post only where the (group, peer) channel is
        // idle; otherwise the call waits for a later write to carry its
        // (or a newer) version — the slot is last-writer-wins, so a
        // landed version v acknowledges every call folded in up to v.
        let mut remotes = 0;
        for q in 0..self.n {
            if q == me {
                continue;
            }
            remotes += 1;
            self.sum_waiters[g][q].push_back((version, call_id));
            if self.sum_inflight[g][q].is_none() {
                self.post_summary(ctx, g, NodeId(q), version, &slot, method.index());
            }
        }
        self.sum_slot_buf[g] = slot;
        self.outstanding.insert(
            call_id,
            Outstanding {
                issued_at: self.pending_arrival.take().unwrap_or_else(|| ctx.now()),
                method,
                session,
                phase: Phase::Reduce,
                conf: None,
                ack_remaining: remotes,
                total_remaining: remotes,
                backup_slot: Some(backup_slot),
            },
        );
        if remotes == 0 {
            self.finish_call(ctx, call_id);
        }
    }

    /// Post one summary WRITE of `slot` (carrying `version`) to
    /// `target` and mark the (group, peer) channel busy. `method` only
    /// labels the trace event (a combined write carries the whole
    /// group's summary).
    pub(crate) fn post_summary<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        target: NodeId,
        version: u64,
        slot: &[u8],
        method: usize,
    ) {
        debug_assert!(self.sum_inflight[g][target.index()].is_none(), "one in flight per peer");
        let offset = self.layout.summary_offset(g, self.me);
        let wr = ctx.post_write(target, self.layout.summaries, offset, slot);
        let issuer = self.me;
        ctx.emit(|| TraceEvent::SummaryWrite { issuer, target, method, version });
        self.sum_inflight[g][target.index()] = Some(version);
        self.wr_routes.insert(wr, Route::SummaryWrite { group: g, target, version });
    }

    /// Poll every peer's summary slots: adopt newer versions into the
    /// cache, raise the applied counts, and fold the summary into the
    /// views (or invalidate them, for non-monotone summaries).
    pub(crate) fn poll_summaries<T: Transport>(&mut self, ctx: &mut T) {
        let monotone = self.spec.summaries_monotone();
        for g in 0..self.sum_cache.len() {
            for src in 0..self.n {
                if src == self.me.index() {
                    continue;
                }
                let off = self.layout.summary_offset(g, NodeId(src));
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

    /// A summary WRITE to `(g, target)` completed: free the channel,
    /// repost if the local summary already moved past what landed, and
    /// credit every call whose version the landed write covers.
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
        // Dirty channel: the local summary moved past what landed —
        // repost the latest slot (it is already encoded in the group's
        // reuse buffer).
        let latest = self.sum_cache[g][self.me.index()].version;
        if latest > version {
            debug_assert!(
                self.sum_waiters[g][q].back().is_some_and(|&(v, _)| v > version),
                "a newer local version implies someone still waits"
            );
            let slot = std::mem::take(&mut self.sum_slot_buf[g]);
            let method = self.coord.sum_groups()[g][0].index();
            self.post_summary(ctx, g, target, latest, &slot, method);
            self.sum_slot_buf[g] = slot;
        }
        // The slot is last-writer-wins: landing version v makes
        // every folded-in call up to v durable at this peer.
        while let Some(&(v, cid)) = self.sum_waiters[g][q].front() {
            if v > version {
                break;
            }
            self.sum_waiters[g][q].pop_front();
            self.credit_summary_peer(ctx, cid);
        }
    }
}
