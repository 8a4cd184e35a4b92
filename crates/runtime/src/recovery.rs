//! Failure handling: what a replica does when its detector suspects a
//! peer.
//!
//! Three deterministic reactions, each keyed off the same
//! [`Membership`](crate::membership::Membership) snapshot so every
//! correct observer picks the same nodes:
//!
//! 1. **Reliable-broadcast recovery** — the lowest alive node reads the
//!    suspect's backup region and re-executes its pending broadcasts
//!    (`Route::RecoveryRead`, the agreement half of reliable
//!    broadcast).
//! 2. **Workload adoption** — the next alive node after the suspect (in
//!    ring order) adopts its remaining conflict-free quota, estimated
//!    from the suspect's observable progress.
//! 3. **Leader change** — for every group whose recognized leader is
//!    down, the lowest alive node starts an election (`election.rs`
//!    takes it from there), and runs again if that one is lost
//!    (`retry_elections`).

use hamband_core::coord::MethodCategory;
use hamband_core::ids::{MethodId, Pid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{NodeId, TraceEvent};

use crate::calls::Route;
use crate::codec::{parse_backup_slot, BACKUP_FREE};
use crate::config::BACKUP_SLOTS;
use crate::conf::Role;
use crate::driver::QuotaSplit;
use crate::replica::HambandNode;
use crate::transport::Transport;

/// Failure-detector ticks (8 µs each by default) a candidacy may wait
/// for its majority before it is run again. Several times the slowest
/// election a loaded cluster shows (≈ 55 µs on the benchmark's
/// `courseware-leaderfail`): a retry is safe but costs a round.
pub(crate) const ELECTION_RETRY_TICKS: u32 = 32;

impl<O: WorkloadSupport> HambandNode<O> {
    /// React to the failure detector (or a `Retired` announcement)
    /// suspecting `suspect`.
    pub(crate) fn on_suspect<T: Transport>(&mut self, ctx: &mut T, suspect: NodeId) {
        let node = self.me;
        ctx.emit(|| TraceEvent::FdSuspect { node, suspect });
        let members = self.fd.membership();
        // 1. Reliable-broadcast recovery: the lowest alive node reads
        //    the suspect's backup slots and re-executes pending writes.
        if members.lowest_alive(Some(suspect)) == self.me {
            self.post_recovery_read(ctx, suspect);
        }
        // 1b. Cascaded recovery: if the new suspect was itself the
        //     designated recoverer of an earlier suspect, that earlier
        //     recovery may have died with it — a committed conflicting
        //     call can then wait forever on a free call nobody
        //     re-broadcasts. Whoever inherits the duty re-reads the
        //     earlier suspect's backups; re-execution is idempotent
        //     (the same ring slots get the same bytes).
        for s in self.fd.suspected() {
            if s == suspect {
                continue;
            }
            // The recoverer of `s` before this suspicion: the lowest
            // node then alive, i.e. currently alive or `suspect`.
            let prev = (0..self.n)
                .map(NodeId)
                .find(|&q| q != s && (q == suspect || !self.fd.is_suspected(q)))
                .unwrap_or(self.me);
            if prev == suspect && members.lowest_alive(Some(s)) == self.me {
                self.post_recovery_read(ctx, s);
            }
        }
        // 2. Workload adoption: the next alive node picks up the
        //    suspect's remaining conflict-free quota.
        let adopter = members.next_alive_after(suspect);
        if adopter == self.me && !self.adopted[suspect.index()] && !self.workload_retired {
            self.adopted[suspect.index()] = true;
            let their = QuotaSplit::for_node(&self.workload, &self.coord, suspect.index(), self.n);
            let remaining: Vec<u64> = (0..self.coord.method_count())
                .map(|m| {
                    if matches!(
                        self.coord.category(MethodId(m)),
                        MethodCategory::Conflicting { .. }
                    ) {
                        return 0;
                    }
                    let planned = their.free[m];
                    let seen = self.applied.get(Pid(suspect.index()), MethodId(m));
                    planned.saturating_sub(seen)
                })
                .collect();
            // Query progress at the suspect is unobservable directly;
            // estimate it from its observable update progress and adopt
            // the rest. The ingress does NOT interleave the two
            // uniformly: it plans queries whenever every window is full,
            // so a node's first pump runs its whole query quota at t = 0
            // and a suspect's true remainder is 0. `seen_updates` sums
            // the conflicting calls the suspect issued as a leader, which
            // `planned_updates` (its conflict-free quota) excludes, so a
            // leader that has committed that many calls of any kind
            // saturates the `min` below, reads as "queries done" and has
            // 0 queries adopted. That is exact —
            // `faults.rs::leader_failure_completes_exactly_the_budget` —
            // but only because of the t = 0 burst. A follower (or a
            // leader suspected very early) has the share of its queries
            // that matches its unseen updates run again by the adopter.
            let planned_updates: u64 =
                (0..self.coord.method_count()).map(|m| their.free[m]).sum();
            let seen_updates: u64 = (0..self.coord.method_count())
                .map(|m| self.applied.get(Pid(suspect.index()), MethodId(m)))
                .sum::<u64>()
                .min(planned_updates);
            let remaining_queries = (their.queries * (planned_updates - seen_updates))
                .checked_div(planned_updates)
                .unwrap_or(their.queries);
            self.ingress.adopt_free_quota(&remaining, remaining_queries);
        }
        // 3. Leader change for groups whose current leader is down —
        //    the new suspect, or an earlier suspect whose designated
        //    election starter only now emerges (e.g. the previous
        //    starter itself just got suspected). A halted node never
        //    runs for leadership: it could win but would never issue
        //    the group's remaining quota.
        for g in 0..self.engines.len() {
            let lv = NodeId(self.engines[g].leader_view.index());
            if (lv == suspect || self.fd.is_suspected(lv))
                && !self.halted
                && !self.workload_retired
                && !matches!(self.engines[g].role, Role::Candidate { .. })
                && members.lowest_alive(Some(lv)) == self.me
            {
                self.start_election(ctx, g);
            }
        }
    }

    /// The liveness backstop behind step 3 of [`Self::on_suspect`], run
    /// at every failure-detector tick. Suspicion is an event, and an
    /// election it starts can be lost without another ever coming: the
    /// peers' promises went, at this very epoch, to a starter that died
    /// before winning (they never answer a request they cannot grant),
    /// or a peer adopted a leader it already suspected from a late
    /// `LeaderAnnounce`. So while a group's recognized leader stays
    /// suspected, whoever is next in line runs: at once if it is not
    /// running, one epoch up if its candidacy has waited
    /// [`ELECTION_RETRY_TICKS`] ticks. A takeover needs no such look —
    /// its catch-up READs complete even from a crashed holder, whose
    /// memory stays readable, and a partition that parks them heals.
    pub(crate) fn retry_elections<T: Transport>(&mut self, ctx: &mut T) {
        if self.halted || self.workload_retired {
            return;
        }
        for g in 0..self.engines.len() {
            let lv = NodeId(self.engines[g].leader_view.index());
            if !self.fd.is_suspected(lv) || self.fd.lowest_alive(Some(lv)) != self.me {
                continue;
            }
            let rerun = match &mut self.engines[g].role {
                Role::Follower => true,
                Role::Candidate { election } => {
                    election.waited += 1;
                    election.waited >= ELECTION_RETRY_TICKS
                }
                Role::TakingOver { .. } | Role::Leader(_) => false,
            };
            if rerun {
                self.start_election(ctx, g);
            }
        }
    }

    /// Post the RDMA read of `suspect`'s whole backup region (its
    /// memory stays readable after a CPU crash); the completion lands
    /// in [`Self::recover_backups`].
    fn post_recovery_read<T: Transport>(&mut self, ctx: &mut T, suspect: NodeId) {
        let size = BACKUP_SLOTS * self.layout.backup_slot(0).1;
        let wr = ctx.post_read(suspect, self.layout.backup, 0, size);
        self.wr_routes.insert(wr, Route::RecoveryRead { suspect });
    }

    /// Write `slot` at `offset` of `region` on every node but `suspect`
    /// (our own copy directly).
    fn rebroadcast<T: Transport>(
        &self,
        ctx: &mut T,
        suspect: NodeId,
        region: rdma_sim::RegionId,
        offset: usize,
        slot: &[u8],
    ) {
        for q in (0..self.n).map(NodeId).filter(|&q| q != suspect) {
            if q == self.me {
                ctx.local_write(region, offset, slot);
            } else {
                ctx.post_write(q, region, offset, slot);
            }
        }
    }

    /// Re-execute a suspected source's pending broadcasts from its
    /// backup slots (the agreement half of reliable broadcast).
    pub(crate) fn recover_backups<T: Transport>(
        &mut self,
        ctx: &mut T,
        suspect: NodeId,
        bytes: &[u8],
    ) {
        let (_, slot_size) = self.layout.backup_slot(0);
        // A summary slot is last-writer-wins and the backup region is
        // walked in slot order, not version order: of the suspect's
        // pending summary WRITEs only the newest per group is
        // re-executed, or an older image would land on top of it.
        let mut summaries: Vec<Option<(u64, &[u8])>> = vec![None; self.sum_cache.len()];
        for i in 0..BACKUP_SLOTS {
            let b = &bytes[i * slot_size..(i + 1) * slot_size];
            let Some((kind, group, seq, slot)) = parse_backup_slot(b) else {
                continue;
            };
            if kind != BACKUP_FREE {
                let newest = &mut summaries[group as usize];
                if newest.is_none_or(|(version, _)| version < seq) {
                    *newest = Some((seq, slot));
                }
                continue;
            }
            let ring_off = self.layout.free_slot_offset(suspect, seq);
            self.rebroadcast(ctx, suspect, self.layout.free_rings, ring_off, slot);
        }
        for (group, newest) in summaries.into_iter().enumerate() {
            if let Some((_, slot)) = newest {
                let off = self.layout.summary_offset(group, suspect);
                self.rebroadcast(ctx, suspect, self.layout.summaries, off, slot);
            }
        }
        // The recovered slots were placed in our own copies with local
        // writes; fence them so a subsequent restart of *this* node does
        // not lose the re-executed broadcasts.
        ctx.fence_region(self.layout.free_rings);
        ctx.fence_region(self.layout.summaries);
    }
}
