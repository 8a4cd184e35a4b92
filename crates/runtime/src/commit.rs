//! Commit advancement for the CONF path (leader side).
//!
//! An `L`-ring entry is committed once a majority of the cluster holds
//! it (the leader's own copy plus `n/2` remote completions). The leader
//! advances the group's commit index over every contiguous committed
//! sequence: the CONF path's watermark, so `calls.rs::ack_landed`
//! acknowledges the client calls it passes. The followers learn the
//! index from the next entry the leader appends, which
//! carries it (`conf.rs`, `issue_conf` / `learn_commit`) — Mu's
//! discipline, and no WRITE of its own. Only an index nothing carries —
//! the pipeline went idle behind the commit — is written into every
//! follower's commit cell, by the pump once it has planned
//! (`HambandNode::flush_commit`): write-combined, at most one round of
//! commit-cell WRITEs in flight per group, and a round that lands stale
//! (the index moved meanwhile) immediately triggers the next.

use hamband_core::object::WorkloadSupport;
use rdma_sim::{CompletionStatus, TraceEvent};

use crate::calls::{Path, Route};
use crate::replica::{peers, HambandNode};
use crate::transport::Transport;

impl<O: WorkloadSupport> HambandNode<O> {
    /// Advance group `g`'s commit index over newly majority-acked
    /// sequences and acknowledge the committed client calls. Posts
    /// nothing: the index leaves with the next entry, or from the pump.
    pub(crate) fn advance_commit<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        let need = self.majority_remote();
        let before = self.engines[g].commit;
        let commit = self.engines[g].advance_commit_index(need);
        if commit > before {
            // Recorded before the client acks below, so a collected
            // trace always shows CommitAdvance ahead of the Acks it
            // enables.
            let node = self.me;
            ctx.emit(|| TraceEvent::CommitAdvance { node, group: g, commit });
        }
        self.ack_landed(ctx, Path::Conf(g));
        // The leader's own commit cell (read by poll_conf fallback and
        // by successors).
        ctx.local_write(
            self.layout.conf[g],
            self.layout.conf_commit_offset(),
            &commit.to_le_bytes(),
        );
    }

    /// Push `g`'s commit index to every follower's commit cell, unless
    /// a round is already in flight or the index is no further than
    /// what an appended entry already carries.
    pub(crate) fn flush_commit<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        if !self.engines[g].is_leader() {
            return;
        }
        let e = &self.engines[g];
        if e.commit > e.commit_written && e.commit_writes_inflight == 0 {
            let commit = e.commit;
            let mut inflight = 0;
            for q in peers(self.me, self.n) {
                let wr = ctx.post_write(
                    q,
                    self.layout.conf[g],
                    self.layout.conf_commit_offset(),
                    &commit.to_le_bytes(),
                );
                self.wr_routes.insert(wr, Route::CommitWrite { group: g });
                inflight += 1;
            }
            let e = &mut self.engines[g];
            e.commit_written = commit;
            e.commit_writes_inflight = inflight;
        }
    }

    /// A commit-cell WRITE completed. Failure means the target has not
    /// granted this (possibly stale) leader permission yet: force a
    /// re-push on the next flush. The in-flight count survives
    /// deposition so a re-elected leader waits out stale rounds.
    pub(crate) fn on_commit_write_done<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        status: CompletionStatus,
    ) {
        let e = &mut self.engines[g];
        e.commit_writes_inflight = e.commit_writes_inflight.saturating_sub(1);
        if !status.is_success() {
            // Straggler has not granted us yet; force a re-push
            // of the commit index on the next flush.
            e.commit_written = 0;
        }
        self.flush_commit(ctx, g);
    }
}
