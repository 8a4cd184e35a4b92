//! Leader change for the CONF path: elections, promises, ring
//! catch-up, and takeover.
//!
//! When a group's recognized leader is suspected, the lowest alive node
//! starts an election (`recovery` decides *who*; this module runs it):
//! it bumps the group's epoch, revokes everyone's write permission but
//! its own, and asks every unsuspected peer for a `LeaderAck` carrying
//! the peer's landed ring tail and commit index. With a majority of
//! acks the candidate adopts the maximum commit, reads any missing ring
//! suffix from the follower with the longest log
//! (`Route::CatchupRead`), rebroadcasts everything past the shortest
//! acked log (or the commit, if lower) so all ring copies converge, and
//! announces itself. Losers and late peers depose themselves on the
//! higher-epoch `LeaderRequest` or `LeaderAnnounce`; a candidate that
//! accepts either has lost and stands down. A candidacy nobody answers — the promises it needs
//! went, at its own epoch, to a rival that has since died — is run
//! again at a higher epoch (`recovery.rs`, `retry_elections`).
//!
//! The tally lives in [`Election`], owned by the engine's
//! [`Candidate`](crate::conf::Role::Candidate) role. The pure
//! state-machine steps (tallying, winning, takeover transitions) are on
//! [`GroupEngine`](crate::conf::GroupEngine); this module drives them
//! over the [`Transport`].

use hamband_core::ids::Pid;
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use rdma_sim::{NodeId, TraceEvent};

use crate::calls::Route;
use crate::codec::slot_ready;
use crate::config::CONF_RING_CAP;
use crate::conf::Role;
use crate::messages::ControlMsg;
use crate::replica::{peers, HambandNode};
use crate::transport::Transport;

/// An in-flight candidacy: the running tally of `LeaderAck`s for one
/// epoch, tracking the longest and shortest follower log and the
/// highest commit seen.
#[derive(Debug)]
pub struct Election {
    pub(crate) epoch: u64,
    pub(crate) acks: usize,
    pub(crate) max_tail: u64,
    pub(crate) max_tail_holder: NodeId,
    /// The shortest log counted: entries a majority committed without
    /// it reach it only through the takeover's rebroadcast.
    pub(crate) min_tail: u64,
    pub(crate) max_commit: u64,
    /// Failure-detector ticks this candidacy has waited for a majority
    /// while still the one that has to run (`recovery.rs`,
    /// `retry_elections`).
    pub(crate) waited: u32,
}

impl<O: WorkloadSupport> HambandNode<O> {
    /// Start an election for group `g`: vote for ourselves (grant our
    /// own permission, tally our own tail/commit) and solicit acks from
    /// every unsuspected peer.
    pub(crate) fn start_election<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        // Vote for ourselves: grant our own permission and record tail.
        self.grant_writer(ctx, g, self.me);
        let own_tail = self.landed_tail(ctx, g);
        let own_commit = self.known_commit(ctx, g);
        let epoch = self.engines[g].begin_election(self.me, own_tail, own_commit);
        // The candidacy's epoch is hard state: persist it before any
        // peer can act on the request.
        self.log_group_hard(ctx, g);
        let msg = ControlMsg::LeaderRequest { group: g as u32, epoch };
        for q in peers(self.me, self.n) {
            if !self.fd.is_suspected(q) {
                ctx.send(q, msg.to_bytes());
            }
        }
        self.maybe_win(ctx, g);
    }

    /// Highest fully landed entry sequence in our copy of group `g`'s
    /// ring.
    pub(crate) fn landed_tail<T: Transport>(&self, ctx: &mut T, g: usize) -> u64 {
        let engine = &self.engines[g];
        let mut tail = engine.reader.applied();
        for _ in 0..CONF_RING_CAP {
            let probe = tail + 1;
            let off = self.layout.conf_slot_offset(probe);
            let slot = ctx.local(self.layout.conf[g], off, self.layout.entry_size());
            // The seq+canary prefix check is the landing test; no need
            // to decode the payload just to probe the tail.
            if slot_ready(slot, probe) {
                tail = probe;
            } else {
                break;
            }
        }
        // The local probe under-reports once the ring has wrapped past
        // the reader; an ex-leader additionally knows what it appended.
        tail.max(engine.tail_hint)
    }

    /// Group `g`'s commit index as far as this node can tell without
    /// looking at the ring: what it learnt or advanced so far, or the
    /// commit cell when that is ahead.
    pub(crate) fn known_commit<T: Transport>(&self, ctx: &mut T, g: usize) -> u64 {
        let cell = ctx.local(self.layout.conf[g], self.layout.conf_commit_offset(), 8);
        u64::from_le_bytes(cell.try_into().expect("8 bytes")).max(self.engines[g].commit)
    }

    /// Dispatch a two-sided control message (the protocol's slow path).
    pub(crate) fn on_control<T: Transport>(&mut self, ctx: &mut T, from: NodeId, msg: ControlMsg) {
        match msg {
            ControlMsg::LeaderRequest { group, epoch } => {
                let g = group as usize;
                if epoch > self.engines[g].promised {
                    // Revoke the old leader, grant the candidate.
                    self.grant_writer(ctx, g, from);
                    self.engines[g].promise(epoch, Pid(from.index()));
                    self.join_epoch[g] = self.join_epoch[g].max(epoch);
                    // The promise is a vote: persist it before the ack
                    // leaves this node, so a restart cannot un-promise.
                    self.log_group_hard(ctx, g);
                    if self.engines[g].is_leader() {
                        // We were the old leader and just got replaced.
                        self.depose(ctx, g);
                    }
                    let tail = self.landed_tail(ctx, g);
                    let commit = self.known_commit(ctx, g);
                    let ack = ControlMsg::LeaderAck { group, epoch, tail, commit };
                    ctx.send(from, ack.to_bytes());
                }
            }
            ControlMsg::LeaderAck { group, epoch, tail, commit } => {
                let g = group as usize;
                self.engines[g].on_leader_ack(from, epoch, tail, commit);
                self.maybe_win(ctx, g);
            }
            ControlMsg::Retired => {
                // Workload-level crash-stop announcement: from now on
                // treat the sender exactly like a detected crash, and
                // keep the suspicion sticky even though its heartbeat
                // counter still moves.
                if self.fd.mark_workload_dead(from) {
                    self.on_suspect(ctx, from);
                }
            }
            ControlMsg::JoinRequest => {
                // A restarted peer asks for the current leadership map:
                // reply with our promise and leader view per group. The
                // joiner's `join_epoch` gate keeps stale acks harmless,
                // so no consistency coordination is needed here.
                for g in 0..self.engines.len() {
                    // A candidate recognizes nobody yet: its promise is
                    // its own candidacy's, its leader view the old
                    // leader's, and the pair would seat the joiner
                    // under a leader that epoch never had.
                    if matches!(self.engines[g].role, Role::Candidate { .. }) {
                        continue;
                    }
                    let ack = ControlMsg::JoinAck {
                        group: g as u32,
                        epoch: self.engines[g].promised,
                        leader: self.engines[g].leader_view.index() as u32,
                    };
                    ctx.send(from, ack.to_bytes());
                }
            }
            ControlMsg::JoinAck { group, epoch, leader } => {
                let g = group as usize;
                if g < self.engines.len() && epoch >= self.join_epoch[g] {
                    self.join_epoch[g] = epoch;
                    let leader = leader as usize;
                    // Adopt the freshest view seen so far. The promise
                    // only ever rises: a replayed pre-crash promise may
                    // exceed the current winning epoch (a candidacy that
                    // died with the crash) and must not be lowered.
                    self.engines[g].promised = self.engines[g].promised.max(epoch);
                    self.engines[g].epoch = self.engines[g].epoch.max(epoch);
                    self.engines[g].leader_view = Pid(leader);
                    self.log_group_hard(ctx, g);
                    if leader != self.me.index() {
                        self.grant_writer(ctx, g, NodeId(leader));
                    }
                }
            }
            ControlMsg::LeaderAnnounce { group, epoch, leader } => {
                let g = group as usize;
                if epoch >= self.engines[g].promised {
                    self.engines[g].promised = epoch;
                    self.engines[g].leader_view = Pid(leader as usize);
                    self.join_epoch[g] = self.join_epoch[g].max(epoch);
                    self.log_group_hard(ctx, g);
                    if leader as usize != self.me.index() {
                        self.grant_writer(ctx, g, NodeId(leader as usize));
                        self.engines[g].stand_down();
                        if self.engines[g].is_leader() {
                            self.depose(ctx, g);
                        }
                    }
                }
            }
        }
    }

    /// If our candidacy for `g` reached a majority, win it: adopt the
    /// tally, and either install directly (our log is the longest) or
    /// read the missing ring suffix from the holder first.
    pub(crate) fn maybe_win<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        let majority = self.n / 2 + 1;
        let Some(won) = self.engines[g].try_win(majority, Pid(self.me.index())) else {
            return;
        };
        // Winning adopts the tally's commit and makes the epoch ours:
        // persist before taking over.
        self.log_group_hard(ctx, g);
        let own_tail = self.landed_tail(ctx, g);
        self.engines[g].begin_takeover(won.max_tail, won.min_tail);
        if own_tail < won.max_tail && won.max_tail_holder != self.me {
            // Catch up: read the missing suffix from the best follower.
            // Ring is positional: read slot-by-slot range; wrap handled
            // by issuing one read per slot (the suffix is short).
            for s in (own_tail + 1)..=won.max_tail {
                let wr = ctx.post_read(
                    won.max_tail_holder,
                    self.layout.conf[g],
                    self.layout.conf_slot_offset(s),
                    self.layout.entry_size(),
                );
                self.wr_routes.insert(wr, Route::CatchupRead { group: g, from_seq: s });
            }
        } else {
            self.finish_takeover(ctx, g);
        }
    }

    /// Complete the takeover of `g`: install the writers at the adopted
    /// tail, rebroadcast everything past the shortest counted log so
    /// every ring copy converges, and announce. The group's quota
    /// resumes with the next planning pass — the event loop's, once its
    /// due events are handled.
    pub(crate) fn finish_takeover<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        let Role::TakingOver { max_tail, min_tail } = self.engines[g].role else { return };
        let (leader, epoch) = (self.me, self.engines[g].epoch);
        ctx.emit(|| TraceEvent::LeaderChange { group: g, leader, epoch });
        // New conflicting calls stay gated until our reader has applied
        // the adopted history (issue floor = the adopted tail).
        self.become_writer(g, max_tail, max_tail);
        // Rebroadcast from the shortest counted log (or the adopted
        // commit, if lower) to the tail so every follower's ring
        // converges, and re-count acks for the uncommitted window.
        let commit = self.engines[g].commit;
        for s in (min_tail.min(commit) + 1)..=max_tail {
            if s > commit {
                self.engines[g]
                    .leader_mut()
                    .expect("just installed")
                    .pending_acks
                    .insert(s, 0);
            }
            let off = self.layout.conf_slot_offset(s);
            let slot = ctx.local(self.layout.conf[g], off, self.layout.entry_size()).to_vec();
            let writers =
                &mut self.engines[g].leader_mut().expect("just installed").writers;
            for w in writers.iter_mut().flatten() {
                w.rewrite(ctx, s, slot.clone());
            }
        }
        // Announce.
        let msg = ControlMsg::LeaderAnnounce {
            group: g as u32,
            epoch: self.engines[g].epoch,
            leader: self.me.index() as u32,
        };
        for q in peers(self.me, self.n) {
            ctx.send(q, msg.to_bytes());
        }
        self.advance_commit(ctx, g);
    }

    /// A catch-up slot READ completed: install the slot bytes into our
    /// ring copy and finish the takeover once the whole suffix landed.
    pub(crate) fn on_catchup_read<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        from_seq: u64,
        data: Option<&[u8]>,
    ) {
        if let Some(bytes) = data {
            ctx.local_write(self.layout.conf[g], self.layout.conf_slot_offset(from_seq), bytes);
            // The caught-up slot is part of the group's hard log copy.
            ctx.fence_region(self.layout.conf[g]);
        }
        // Are we fully caught up now?
        if let Role::TakingOver { max_tail, .. } = self.engines[g].role {
            if self.landed_tail(ctx, g) >= max_tail {
                self.finish_takeover(ctx, g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conf::tests::ordered_counter;
    use rdma_sim::{SimDuration, SimTime};

    /// A saturated leader writes no commit cell, so what a follower
    /// knows of the commit index it read off the entries — and that is
    /// what its `LeaderAck` must report. Five nodes, every add ordered
    /// through node 0; mid-run node 4 runs for group 0 with an empty
    /// tally of its own and asks node 1 alone, so it stays one ack short
    /// of a majority and the tally it holds is node 1's answer.
    #[test]
    fn a_leader_ack_reports_the_commit_index_learnt_from_an_entry() {
        let (mut sim, layout) = ordered_counter(5, 2_000, 4, 9);
        let (asked, candidate) = (NodeId(1), NodeId(4));
        while sim.app(asked).engines[0].reader.applied() < 50 {
            sim.run_for(SimDuration::micros(1));
            assert!(sim.now() < SimTime(2_000_000), "node 1 never applied 50 entries");
        }
        let learnt = sim.app(asked).engines[0].commit;
        assert!(learnt >= 50);
        let cell = &sim.region_bytes(asked, layout.conf[0])[layout.conf_commit_offset()..][..8];
        assert_eq!(cell, [0u8; 8], "node 1's commit cell was written");

        sim.with_app_ctx(candidate, |node, ctx| {
            let epoch = node.engines[0].begin_election(candidate, 0, 0);
            ctx.send(asked, ControlMsg::LeaderRequest { group: 0, epoch }.to_bytes());
        });
        // Two messages, the protocol's slow path: ~25 us each way.
        sim.run_for(SimDuration::micros(80));
        let Role::Candidate { election } = &sim.app(candidate).engines[0].role else {
            panic!("node 4 is two acks short of three");
        };
        assert_eq!(election.acks, 2, "its own vote and node 1's");
        assert!(election.max_commit >= learnt, "the ack said {}", election.max_commit);
        assert!(election.max_tail > election.max_commit, "and the longer tail it had landed");
    }
}
