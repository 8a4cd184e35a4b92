//! Crash-restart rejoin: the idempotent recovery pass a restarted
//! replica runs before re-entering the cluster.
//!
//! A restarted node's volatile regions are zeroed and its durable
//! regions hold exactly what was remotely written plus what it fenced
//! locally (see [`crate::persist`]). Recovery rebuilds the soft state
//! from scratch and then replays the persist log over it, in log
//! order — which is the original apply order, so every entry's
//! dependency map is satisfied when it is re-applied. The pass is
//! idempotent: running it twice from the same durable image yields the
//! same state, because it only folds logged entries into a freshly
//! reset committed state.
//!
//! After replay the node:
//!
//! * republishes its ring-reader heads at the replayed frontiers (so
//!   peers' writers never reuse a slot this node has applied),
//! * re-posts its own free-ring window and whole summary logs to every
//!   peer (closing the bounded per-peer gap of appends and records that
//!   were minted but not yet posted when it crashed — slot re-writes
//!   are idempotent), and writes that window back into its own ring
//!   copy,
//! * rebuilds the summary caches by walking the durable logs and folds
//!   their records into the replayed state (`views.rs::adopt_records`),
//! * re-arms the timer chains (the pre-crash chains died inside the
//!   crash window) and republishes its heartbeat region, whose
//!   executed-queries word the restart zeroed, and
//! * announces [`ControlMsg::Retired`] followed by a
//!   [`ControlMsg::JoinRequest`]: peers treat its workload as
//!   crash-stop (quota adoption, elections for groups it led) and
//!   reply per mapped group with the leadership they currently
//!   recognize, which re-seeds this node's permission grants.
//!
//! The node rejoins as a full protocol participant — it polls, votes,
//! serves reads, and performs delegate recovery duties — but never
//! issues workload again and never runs for leadership
//! (`workload_retired`): its pre-crash client sessions are gone, and a
//! retired leader would wedge convergence because peers keep its
//! suspicion sticky.

use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use rdma_sim::NodeId;

use crate::codec::{slot_seq, Entry};
use crate::config::FREE_RING_CAP;
use crate::messages::ControlMsg;
use crate::persist::LogRecord;
use crate::reduce::unread_records;
use crate::replica::{peers, HambandNode};
use crate::transport::Transport;

impl<O: WorkloadSupport> HambandNode<O> {
    /// Append a [`LogRecord::GroupHard`] snapshot of group `g`'s hard
    /// consensus state (epoch, promise, commit) and fence it. Called at
    /// every point where that state changes *before* its consequences
    /// leave the node — a vote must not be forgotten once acted on.
    pub(crate) fn log_group_hard<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        if self.log.is_none() {
            return;
        }
        let e = &self.engines[g];
        let rec = LogRecord::GroupHard {
            group: g as u32,
            epoch: e.epoch,
            promised: e.promised,
            commit: e.commit,
        };
        self.log_and_fence(ctx, &rec);
    }

    /// Append `rec` to the persist log and fence it immediately; a
    /// no-op under [`DurabilityMode::Off`](crate::persist::DurabilityMode::Off).
    fn log_and_fence<T: Transport>(&mut self, ctx: &mut T, rec: &LogRecord) {
        if let Some(log) = self.log.as_mut() {
            log.append(ctx, rec);
            log.fence(ctx);
        }
    }

    /// Log and fence the ring slot `record` renders — the durability
    /// seam of the issue and apply paths. The record (a copy of the
    /// slot) is built only when a log exists.
    pub(crate) fn log_slot<T: Transport>(
        &mut self,
        ctx: &mut T,
        record: impl FnOnce(&Self, &mut T) -> LogRecord,
    ) {
        if self.log.is_some() {
            let rec = record(self, ctx);
            self.log_and_fence(ctx, &rec);
        }
    }

    /// The recovery pass. Runs on the restart event, after the fabric
    /// has restored the node's regions (durable contents kept or rolled
    /// back to the last fence; volatile contents zeroed).
    pub(crate) fn restart_recover<T: Transport>(&mut self, ctx: &mut T)
    where
        O: Clone,
    {
        if self.log.is_none() {
            // Crash-stop configuration: nothing durable survived, so a
            // "restarted" node can only stay silent — exactly the
            // behavior the crash-stop campaigns already verify.
            self.halted = true;
            self.ingress.halt();
            return;
        }
        self.reset_soft_state();

        // Replay the persist log in order. Log order is the original
        // apply order, so dependency maps are satisfied as we go.
        let records = self.log.as_mut().expect("checked above").replay(ctx);
        let mut free_frontier = vec![0u64; self.n];
        let mut conf_frontier = vec![0u64; self.engines.len()];
        // Own free-ring entries (seq ascending — the re-post window).
        let mut own_free: Vec<(u64, Vec<u8>)> = Vec::new();
        for rec in records {
            match rec {
                LogRecord::FreeSlot { src, slot } => {
                    let src = src as usize;
                    if src >= self.n {
                        continue;
                    }
                    let Some(seq) = self.replay_slot(&slot) else { continue };
                    free_frontier[src] = free_frontier[src].max(seq);
                    if src == self.me.index() {
                        own_free.push((seq, slot));
                    }
                }
                LogRecord::ConfSlot { group, slot } => {
                    let g = group as usize;
                    if g >= self.engines.len() {
                        continue;
                    }
                    let Some(seq) = self.replay_slot(&slot) else { continue };
                    conf_frontier[g] = conf_frontier[g].max(seq);
                }
                LogRecord::GroupHard { group, epoch, promised, commit } => {
                    let g = group as usize;
                    if let Some(e) = self.engines.get_mut(g) {
                        e.epoch = e.epoch.max(epoch);
                        e.promised = e.promised.max(promised);
                        e.commit = e.commit.max(commit);
                    }
                }
            }
        }

        // Republish ring-reader heads at the replayed frontiers: the
        // persist discipline logs+fences every entry *before* the head
        // is published, so the durable frontier is always at or past
        // what peers' writers believe we acked — they never reuse a
        // slot above it.
        for (src, reader) in self.free_readers.iter_mut().enumerate() {
            if let Some(reader) = reader {
                reader.adopt_head(ctx, free_frontier[src]);
            }
        }
        let own_tail = own_free.last().map_or(0, |&(s, _)| s);
        for w in self.free_writers.iter_mut().flatten() {
            w.adopt_tail(own_tail);
        }
        for (g, &frontier) in conf_frontier.iter().enumerate() {
            // The commit cell is remote-written (durable as it lands),
            // so it may be ahead of the last logged GroupHard — and so
            // may the indices the landed entries carry, which the
            // ordinary poll reads again from the adopted head on.
            // Committed entries past the replayed frontier are
            // re-applied from the ring copy by that poll once the reader
            // reaches them.
            let known = self.known_commit(ctx, g);
            let e = &mut self.engines[g];
            e.commit = known;
            e.reader.adopt_head(ctx, frontier);
        }

        // Rebuild the summary caches by walking the durable logs (remote
        // records landed durably; the own log was fenced at every
        // flush). Re-post the whole own log to every peer: a crash
        // between the local fence and the remote writes may have left
        // peers records behind, and a fresh node knows nothing of what
        // their copies hold. The re-post counts as landed: no flush
        // posts the log again.
        for g in 0..self.sum_cache.len() {
            let (size, group_len) = (self.layout.summary_size(g), self.coord.sum_groups()[g].len());
            for src in 0..self.n {
                let off = self.layout.summary_offset(g, NodeId(src));
                let log = ctx.local(self.layout.summaries, off, size);
                let Some(unread) = unread_records(log, group_len, &self.sum_cache[g][src]) else {
                    continue;
                };
                if src == self.me.index() {
                    self.sum_log[g] = log[..unread.end].to_vec();
                }
                self.raise_applied(g, src, &unread.counts);
                let new = unread.into_cache(&mut self.sum_cache[g][src]);
                self.adopt_records(ctx, g, src, new);
            }
            let off = self.layout.summary_offset(g, self.me);
            for q in peers(self.me, self.n) {
                if !self.sum_log[g].is_empty() {
                    ctx.post_write(q, self.layout.summaries, off, &self.sum_log[g]);
                }
                self.sum_sent[g][q.index()] = self.sum_log[g].len();
                // No `ack_landed`: `reset_soft_state` left the call
                // queues empty and the rejoined node issues no call.
                self.sum_landed[g][q.index()] = self.sum_cache[g][self.me.index()].version;
            }
        }

        // Re-post the tail window of the own free ring to every peer:
        // appends minted before the crash may not have been posted to
        // every peer (the unposted gap is a contiguous suffix bounded by
        // the in-flight cap, far below the ring capacity), and slot
        // re-writes are idempotent. Completions arrive with no claiming
        // writer and fall through the dispatch harmlessly. The own copy
        // a recoverer READs is written again too: the ring region is
        // durable and the restart may have rolled its unfenced writes
        // back.
        let window_lo = own_tail.saturating_sub(FREE_RING_CAP as u64);
        for (seq, slot) in own_free.iter().filter(|&&(s, _)| s > window_lo) {
            let off = self.layout.free_slot_offset(self.me, *seq);
            ctx.local_write(self.layout.free_rings, off, slot);
            for q in peers(self.me, self.n) {
                ctx.post_write(q, self.layout.free_rings, off, slot);
            }
        }

        // The pre-crash timer chains died inside the crash window
        // (their events were dropped while the node was down), so fresh
        // chains re-arm without doubling.
        self.arm_timers(ctx);
        self.hb.publish_queries(ctx, self.metrics.queries);

        // Join handshake: retire the pre-crash workload first
        // (peers adopt the remaining quota and elect replacements for
        // any group this node led), then ask every peer which leader it
        // currently recognizes per mapped group.
        for q in peers(self.me, self.n) {
            ctx.send(q, ControlMsg::Retired.to_bytes());
            ctx.send(q, ControlMsg::JoinRequest.to_bytes());
        }
    }

    /// Fold one logged ring slot back into the committed state and the
    /// applied map (the rebuilt caches' records follow once every slot
    /// is in) and return the sequence number it held; `None`, nothing
    /// folded, for a slot that does not decode.
    fn replay_slot(&mut self, slot: &[u8]) -> Option<u64> {
        let seq = slot_seq(slot)?;
        let entry = Entry::<O::Update>::from_slot(slot, seq)?;
        let method = self.spec.method_of(&entry.update);
        self.apply_committed(&entry.update, false);
        self.applied.increment(entry.rid.issuer, method);
        Some(seq)
    }

    /// Reset every piece of *soft* (reconstructible) state by building
    /// the node afresh — the replay pass then folds the durable hard
    /// state over this blank slate. What deliberately survives:
    /// measurements span the restart, request ids must never be reused
    /// even though no further calls are minted, and the persist log is
    /// the hard state itself.
    fn reset_soft_state(&mut self)
    where
        O: Clone,
    {
        let fresh = HambandNode::new(
            &self.spec,
            &self.coord,
            &self.cfg,
            &self.layout,
            self.me,
            Some(&self.initial_leaders),
            &self.workload,
        );
        let old = std::mem::replace(self, fresh);
        self.metrics = old.metrics;
        self.next_rid_seq = old.next_rid_seq;
        self.log = old.log;
        self.setup_free_endpoints();
        // The pre-crash client sessions are gone: the rejoined node
        // participates in the protocol but issues no further workload.
        self.ingress.halt();
        self.workload_retired = true;
    }
}
