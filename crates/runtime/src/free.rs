//! FREE path: irreducible conflict-free calls broadcast through
//! per-source `F` rings.
//!
//! Fig. 7's FREE rule: the call is applied locally at issue, paired
//! with its dependency projection, and appended to the `F` ring this
//! node feeds at every peer. Peers apply entries in ring order once the
//! dependency map is satisfied. The client is acknowledged once its
//! append has completed at every peer (`calls.rs::ack_landed`; reliable
//! broadcast: the issuer's own ring copy holds the entry meanwhile).

use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{CompletionStatus, NodeId, RingKind, WrId};

use crate::calls::Path;
use crate::codec::Entry;
use crate::config::FREE_RING_CAP;
use crate::persist::LogRecord;
use crate::replica::HambandNode;
use crate::rings::{RingReader, RingWriter};
use crate::transport::Transport;

impl<O: WorkloadSupport> HambandNode<O> {
    /// Build the `F`-ring endpoints: one writer feeding our ring at
    /// each peer, one reader over each peer's ring copy here. An object
    /// without an irreducible conflict-free method gets none: no peer
    /// would ever append to them, and a poll would scan them for nothing.
    pub(crate) fn setup_free_endpoints(&mut self) {
        let coord = &self.coord;
        if !(0..coord.method_count()).any(|m| coord.category(MethodId(m)).is_irreducible_free()) {
            return;
        }
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
                    FREE_RING_CAP,
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
                FREE_RING_CAP,
                self.layout.entry_size(),
                self.layout.heads,
                self.layout.free_head_offset(node),
            )));
        }
    }

    /// FREE: apply locally, append to every peer's `F` ring. Returns
    /// the entry's ring seq.
    pub(crate) fn issue_free<T: Transport>(
        &mut self,
        ctx: &mut T,
        rid: Rid,
        update: O::Update,
        method: MethodId,
    ) -> u64 {
        let deps = self.applied.project(self.coord.dependencies(method));
        self.apply_committed(&update, false);
        self.applied.increment(Pid(self.me.index()), method);
        self.metrics.last_apply = ctx.now();

        let entry = Entry { rid, update, deps };
        // The free rings advance in lockstep, so every peer's slot is
        // the same bytes: encode them once.
        let first = self.free_writers.iter().flatten().next().map(RingWriter::next_seq);
        if let Some(seq) = first {
            let mut slot = std::mem::take(&mut self.slot_buf);
            entry.to_slot_into(seq, self.layout.entry_size(), &mut slot);
            for w in self.free_writers.iter_mut().flatten() {
                assert_eq!(w.append_encoded(ctx, &slot), seq, "free rings advance in lockstep");
            }
            // Reliable broadcast: the appends only queue here, so the
            // own ring copy a recoverer READs holds the entry before
            // any of them leaves.
            ctx.local_write(
                self.layout.free_rings,
                self.layout.free_slot_offset(self.me, seq),
                &slot,
            );
            // Durability seam: the issuer's own entry is hard state (it
            // was applied above) — log and fence it before the
            // appends can reach any peer.
            let src = self.me.index() as u32;
            self.log_slot(ctx, |_, _| LogRecord::FreeSlot { src, slot: slot.clone() });
            self.slot_buf = slot;
        }
        // No peer, no ring: position 0 has landed everywhere.
        first.unwrap_or(0)
    }

    /// Apply every deliverable entry from each peer's `F` ring (in ring
    /// order, gated by each entry's dependency map).
    pub(crate) fn poll_free<T: Transport>(&mut self, ctx: &mut T) {
        for src in 0..self.free_readers.len() {
            let node = NodeId(src);
            while let Some(entry) =
                self.free_readers[src].as_ref().and_then(|r| r.peek::<O::Update>(ctx))
            {
                if !self.apply_buffered(ctx, &entry, false) {
                    break; // blocked on a dependency; retry next poll
                }
                // Durability seam: log+fence the applied entry *before*
                // publishing the head — the durable frontier must never
                // trail what the writer is told it may overwrite.
                self.log_slot(ctx, |node, ctx| {
                    let reader = node.free_readers[src].as_ref().expect("reader");
                    let slot = reader.raw_slot(ctx, reader.next_seq()).to_vec();
                    LogRecord::FreeSlot { src: src as u32, slot }
                });
                self.free_readers[src].as_mut().expect("reader").advance(ctx, node);
            }
        }
    }

    /// Feed an `F`-ring append completion to whichever free writer
    /// posted it and acknowledge what it landed; returns `true` if one
    /// claimed it. A coalesced WRITE completes every entry it spans.
    pub(crate) fn on_free_completion<T: Transport>(
        &mut self,
        ctx: &mut T,
        wr: WrId,
        status: CompletionStatus,
        data: Option<&[u8]>,
    ) -> bool {
        let mut writers = self.free_writers.iter_mut().flatten();
        let Some(done) = writers.find_map(|w| w.on_completion(ctx, wr, status, data)) else {
            return false;
        };
        debug_assert!(done.status.is_success(), "free rings are never permission-revoked");
        // Never revoked nor re-posted: a pair's appends complete in order.
        self.free_landed[done.target.index()] = done.last_seq;
        self.ack_landed(ctx, Path::Free);
        true
    }
}
