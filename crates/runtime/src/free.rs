//! FREE path: irreducible conflict-free calls broadcast through
//! per-source `F` rings.
//!
//! Fig. 7's FREE rule: the call is applied locally at issue, paired
//! with its dependency projection, and appended to the `F` ring this
//! node feeds at every peer. Peers apply entries in ring order once the
//! dependency map is satisfied. The client is acknowledged when every
//! remote append completes (reliable broadcast: a backup slot holds the
//! entry until then).

use hamband_core::ids::{MethodId, Pid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{CompletionStatus, NodeId, Phase, RingKind, WrId};

use crate::calls::Outstanding;
use crate::codec::Entry;
use crate::replica::HambandNode;
use crate::rings::{RingReader, RingWriter};
use crate::transport::Transport;

impl<O: WorkloadSupport> HambandNode<O> {
    /// Build the `F`-ring endpoints: one writer feeding our ring at
    /// each peer, one reader over each peer's ring copy here.
    pub(crate) fn setup_free_endpoints(&mut self) {
        for src in 0..self.n {
            let node = NodeId(src);
            if node == self.me {
                self.free_writers.push(None);
                self.free_readers.push(None);
                continue;
            }
            self.free_writers.push(Some(
                RingWriter::new(
                    RingKind::Free,
                    node,
                    self.layout.free_rings,
                    self.layout.free_ring_base(self.me),
                    self.layout.free_cap(),
                    self.layout.entry_size(),
                    self.layout.heads,
                    self.layout.free_head_offset(self.me),
                )
                .with_max_batch(self.cfg.max_batch),
            ));
            self.free_readers.push(Some(RingReader::new(
                RingKind::Free,
                self.layout.free_rings,
                self.layout.free_ring_base(node),
                self.layout.free_cap(),
                self.layout.entry_size(),
                self.layout.heads,
                self.layout.free_head_offset(node),
            )));
        }
    }

    /// FREE: apply locally, append to every peer's `F` ring.
    pub(crate) fn issue_free<T: Transport>(
        &mut self,
        ctx: &mut T,
        update: O::Update,
        method: MethodId,
        session: u32,
    ) {
        if !self.permissible_now(&update) {
            self.reject(session);
            return;
        }
        ctx.charge_apply();
        let deps = self.applied.project(self.coord.dependencies(method));
        let (call_id, rid) = self.mint_call();
        self.spec.apply_mut(&mut self.sigma, &update);
        self.apply_to_views(&update);
        self.applied.increment(Pid(self.me.index()), method);
        self.metrics.last_apply = ctx.now();

        let entry = Entry { rid, update, deps };
        // The free rings advance in lockstep, so every peer's slot is
        // the same bytes: encode them once.
        let mut remotes = 0;
        let mut backup_slot = None;
        let first = self.free_writers.iter().flatten().next().map(RingWriter::next_seq);
        if let Some(seq) = first {
            let mut slot = std::mem::take(&mut self.slot_buf);
            entry.to_slot_into(seq, self.layout.entry_size(), &mut slot);
            for w in self.free_writers.iter_mut().flatten() {
                assert_eq!(w.append_encoded(ctx, &slot), seq, "free rings advance in lockstep");
                remotes += 1;
            }
            backup_slot =
                Some(self.write_backup(ctx, call_id, crate::codec::BACKUP_FREE, 0xff, seq, &slot));
            // Durability seam: the issuer's own entry is hard state (it
            // was applied to σ above) — log and fence it before the
            // appends can reach any peer.
            if self.log.is_some() {
                let src = self.me.index() as u32;
                let rec = crate::persist::LogRecord::FreeSlot { src, slot: slot.clone() };
                self.log_and_fence(ctx, &rec);
            }
            self.slot_buf = slot;
            self.free_call_by_seq.insert(seq, call_id);
        }
        self.outstanding.insert(
            call_id,
            Outstanding {
                issued_at: self.pending_arrival.take().unwrap_or_else(|| ctx.now()),
                method,
                session,
                phase: Phase::Free,
                conf: None,
                ack_remaining: remotes,
                total_remaining: remotes,
                backup_slot,
            },
        );
        if remotes == 0 {
            self.finish_call(ctx, call_id);
        }
    }

    /// Apply every deliverable entry from each peer's `F` ring (in ring
    /// order, gated by each entry's dependency map).
    pub(crate) fn poll_free<T: Transport>(&mut self, ctx: &mut T) {
        for src in 0..self.n {
            if src == self.me.index() {
                continue;
            }
            loop {
                let entry = {
                    let reader = self.free_readers[src].as_ref().expect("reader for peer");
                    reader.peek::<O::Update>(ctx)
                };
                let Some(entry) = entry else { break };
                if !self.applied.satisfies(&entry.deps) {
                    break; // blocked on a dependency; retry next poll
                }
                ctx.charge_apply();
                let method = self.spec.method_of(&entry.update);
                self.spec.apply_mut(&mut self.sigma, &entry.update);
                self.apply_to_views(&entry.update);
                self.applied.increment(entry.rid.issuer, method);
                self.metrics.remote_applied += 1;
                self.metrics.last_apply = ctx.now();
                // Durability seam: log+fence the applied entry *before*
                // publishing the head — the durable frontier must never
                // trail what the writer is told it may overwrite.
                if self.log.is_some() {
                    let slot = {
                        let reader = self.free_readers[src].as_ref().expect("reader");
                        let seq = reader.next_seq();
                        reader.raw_slot(ctx, seq).to_vec()
                    };
                    self.log_and_fence(
                        ctx,
                        &crate::persist::LogRecord::FreeSlot { src: src as u32, slot },
                    );
                }
                self.free_readers[src].as_mut().expect("reader").advance(ctx, NodeId(src));
            }
        }
    }

    /// Feed an `F`-ring append completion to whichever free writer
    /// posted it; returns `true` if one claimed it. A coalesced WRITE
    /// completes every entry it spans.
    pub(crate) fn on_free_completion<T: Transport>(
        &mut self,
        ctx: &mut T,
        wr: WrId,
        status: CompletionStatus,
        data: Option<&[u8]>,
    ) -> bool {
        let mut free_done = None;
        for q in 0..self.n {
            if let Some(w) = self.free_writers.get_mut(q).and_then(|w| w.as_mut()) {
                if let Some(done) = w.on_completion(ctx, wr, status, data) {
                    free_done = Some(done);
                    break;
                }
            }
        }
        let Some(done) = free_done else { return false };
        for seq in done.seqs() {
            if let Some(&cid) = self.free_call_by_seq.get(&seq) {
                self.on_free_write_done(ctx, cid, seq, done.status);
            }
        }
        true
    }

    fn on_free_write_done<T: Transport>(
        &mut self,
        ctx: &mut T,
        call_id: u64,
        seq: u64,
        status: CompletionStatus,
    ) {
        debug_assert!(status.is_success(), "free rings are never permission-revoked");
        let mut finished = false;
        let mut fully_done = false;
        if let Some(o) = self.outstanding.get_mut(&call_id) {
            o.total_remaining = o.total_remaining.saturating_sub(1);
            if o.ack_remaining > 0 && o.ack_remaining != usize::MAX {
                o.ack_remaining -= 1;
                if o.ack_remaining == 0 {
                    finished = true;
                }
            }
            fully_done = o.total_remaining == 0;
        }
        if fully_done {
            self.free_call_by_seq.remove(&seq);
            if !finished {
                // Already acked earlier; clean up now.
                if let Some(o) = self.outstanding.remove(&call_id) {
                    if let Some(idx) = o.backup_slot {
                        self.clear_backup(ctx, idx);
                    }
                }
                return;
            }
        }
        if finished {
            self.finish_call(ctx, call_id);
        }
    }
}
