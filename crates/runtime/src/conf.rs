//! CONF path: per-synchronization-group consensus engines.
//!
//! §3.3/§4: conflicting methods of one synchronization group are
//! serialized by a dedicated Mu-style consensus instance — one
//! [`GroupEngine`] per group, fully independent of every other group's.
//! The engine owns the group's `L`-ring reader, the node's view of the
//! group's leadership (epoch, promise, commit index), and a typed
//! [`Role`] state machine that makes illegal role/field combinations
//! unrepresentable: only a [`Leader`](Role::Leader) has ring writers,
//! the ack counts of its log suffix, its calls awaiting commit, or an
//! issue floor; only a
//! [`Candidate`](Role::Candidate) has an election tally.
//!
//! Role transitions (see `election.rs` for the message protocol):
//!
//! ```text
//!            suspicion of the leader, lowest-alive starter
//!  Follower ────────────────────────────────────────────▶ Candidate
//!      ▲                                                      │
//!      │ higher-epoch LeaderRequest / LeaderAnnounce          │ majority acks
//!      │ (depose; a candidate or takeover stands down)        ▼
//!   Leader ◀──────────── install (become_writer) ───── TakingOver
//!                          after ring catch-up
//! ```
//!
//! A `Candidate` still short of a majority after
//! `recovery::ELECTION_RETRY_TICKS` failure-detector ticks, with the
//! leader it would replace still suspected, runs again one epoch up.
//!
//! A `Candidate` that wins with the longest ring locally has nothing to
//! read and installs straight from `TakingOver`. The engine methods that move
//! between roles are pure state-machine steps (no transport), so the
//! machine is unit-testable in isolation — see the tests at the bottom.
//!
//! The rest of this module is the node-side CONF path over a generic
//! [`Transport`]: issuing conflicting calls (leader only, gated by the
//! issue floor), applying committed ring entries, and retrying
//! permission-denied ring writes.

use std::collections::VecDeque;
use std::ops::RangeInclusive;

use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{CompletionStatus, NodeId, RingKind, SimDuration, TraceEvent, WrId};

use crate::calls::CallQueue;
use crate::codec::{carried_commit, stamp_commit, Entry};
use crate::config::CONF_RING_CAP;
use crate::election::Election;
use crate::persist::LogRecord;
use crate::replica::{HambandNode, TAG_RETRY};
use crate::rings::{RingReader, RingWriter};
use crate::transport::Transport;

/// Leadership role of one node for one synchronization group.
#[derive(Debug)]
pub enum Role {
    /// Not leading: applies committed ring entries, learns the commit
    /// index from the entries that carry it (and, when none follows,
    /// from the group's commit cell).
    Follower,
    /// Running an election (this node is tallying `LeaderAck`s).
    Candidate {
        /// The in-flight tally.
        election: Election,
    },
    /// Won the election; reading the ring suffix from the longest
    /// follower, if ours is shorter. Not yet issuing or acking.
    TakingOver {
        /// The tail adopted from the election (catch-up target).
        max_tail: u64,
        /// The shortest log the election counted (rebroadcast start).
        min_tail: u64,
    },
    /// Leading the group: owns the ring writers and the commit index.
    Leader(LeaderState),
}

/// State that exists only while leading a group. Dropped wholesale on
/// deposition, so no stale leader field can leak into follower life.
///
/// The leader's log suffix is kept by position, not by seq: the entries
/// awaiting a majority are `commit + 1 ..= tail`, and its own entries
/// not yet applied are [`GroupEngine::own_unapplied`]; their payloads
/// are in the local ring copy.
#[derive(Debug)]
pub struct LeaderState {
    /// Per-target ring writers (`None` at our own slot).
    pub(crate) writers: Vec<Option<RingWriter>>,
    /// No new conflicting calls are issued until our own reader has
    /// applied the ring through this sequence number. A fresh leader
    /// adopts the old tail before it has applied every entry below it;
    /// issuing against that incomplete view would approve calls the
    /// full history forbids (Lemma 1 needs the check view to contain
    /// every earlier ring entry).
    pub(crate) issue_floor: u64,
    /// Remote-ack counts of seqs `commit + 1 ..= tail`, oldest first.
    pub(crate) pending_acks: VecDeque<usize>,
    /// The client calls awaiting commit, by seq, in append order.
    pub(crate) client_by_seq: CallQueue,
}

/// One synchronization group's consensus state at one node.
///
/// Everything outside the `role` field is meaningful in
/// every role: the recognized leader, the epoch/promise pair, the
/// commit index (a deposed leader keeps its last known commit — its
/// successor adopts the max over a majority), and the group's ring
/// reader.
#[derive(Debug)]
pub struct GroupEngine {
    /// This node's reader over its local copy of the group's `L` ring.
    pub(crate) reader: RingReader,
    /// The leader this node currently recognizes.
    pub(crate) leader_view: Pid,
    /// Epoch of the leadership this node last participated in.
    pub(crate) epoch: u64,
    /// Highest epoch promised to any candidate (Paxos-style promise).
    pub(crate) promised: u64,
    /// Commit index as this node knows it: advanced by the leader,
    /// learnt at every poll by everyone else — the highest index a
    /// landed entry carries or the commit cell holds.
    pub(crate) commit: u64,
    /// Next sequence number whose slot a non-leader has not yet read a
    /// carried commit index from: the learning scan goes forward from
    /// the reader's head and looks at each landed slot once.
    pub(crate) commit_scan: u64,
    /// Highest commit value sent toward the followers, carried by an
    /// appended entry or written by a commit-cell round (leader
    /// bookkeeping that deliberately survives deposition: a re-elected
    /// leader must wait out stale in-flight commit writes before
    /// pushing again).
    pub(crate) commit_written: u64,
    /// Outstanding commit-cell writes (same lifetime note as above).
    pub(crate) commit_writes_inflight: usize,
    /// The highest sequence number this node appended as the group's
    /// leader (the adopted tail until its first append): while it
    /// leads, the ring's appended count, the group's global ordinal.
    /// Survives deposition: the local ring probe alone can under-report
    /// the tail when the ring has wrapped past the reader, so elections
    /// take the max with this.
    pub(crate) tail: u64,
    /// The role state machine.
    pub(crate) role: Role,
}

impl GroupEngine {
    /// A fresh engine recognizing `leader`, reading the group's ring
    /// through `reader`. Starts as a [`Role::Follower`]; the initial
    /// leader installs itself via
    /// [`install_leader`](Self::install_leader) during setup.
    pub fn new(leader: Pid, reader: RingReader) -> Self {
        GroupEngine {
            reader,
            leader_view: leader,
            epoch: 1,
            promised: 1,
            commit: 0,
            commit_scan: 0,
            commit_written: 0,
            commit_writes_inflight: 0,
            tail: 0,
            role: Role::Follower,
        }
    }

    /// Whether this node currently leads the group.
    pub fn is_leader(&self) -> bool {
        matches!(self.role, Role::Leader(_))
    }

    /// Whether a poll has anything to find in the group's `L` ring. A
    /// non-leader reads what the leader writes (entries and the commit
    /// index they carry). The leader wrote every entry itself and knows
    /// the commit index, so it reads only while that index is past its
    /// reader: its own committed entries wait there to be applied.
    pub fn scans_ring(&self) -> bool {
        !self.is_leader() || self.commit >= self.reader.next_seq()
    }

    /// Leader state, if leading.
    pub fn leader(&self) -> Option<&LeaderState> {
        match &self.role {
            Role::Leader(l) => Some(l),
            _ => None,
        }
    }

    pub(crate) fn leader_mut(&mut self) -> Option<&mut LeaderState> {
        match &mut self.role {
            Role::Leader(l) => Some(l),
            _ => None,
        }
    }

    /// Whether the leader may issue new conflicting calls: leading,
    /// and our own reader has caught up past the issue floor.
    pub fn accepting_issues(&self) -> bool {
        match &self.role {
            Role::Leader(l) => self.reader.next_seq() > l.issue_floor,
            _ => false,
        }
    }

    /// Become the group's leader with the given writers and adopted
    /// `tail`, counting acks afresh for every seq past the commit index;
    /// new conflicting calls stay gated until the reader passes
    /// `issue_floor`.
    pub fn install_leader(
        &mut self,
        writers: Vec<Option<RingWriter>>,
        tail: u64,
        issue_floor: u64,
    ) {
        let pending_acks = vec![0; tail.saturating_sub(self.commit) as usize].into();
        let client_by_seq = CallQueue::new();
        self.role = Role::Leader(LeaderState { writers, issue_floor, pending_acks, client_by_seq });
        self.tail = tail;
    }

    /// The seqs of the leader's own entries it has not yet applied: past
    /// its reader and past the tail it adopted at install (its issue
    /// floor), up to its tail. Empty unless leading.
    pub(crate) fn own_unapplied(&self) -> RangeInclusive<u64> {
        let start = match &self.role {
            Role::Leader(l) => self.reader.next_seq().max(l.issue_floor + 1),
            _ => self.tail + 1,
        };
        start..=self.tail
    }

    /// Append at the leader: the group's next seq, with no remote ack
    /// counted yet.
    pub(crate) fn append(&mut self) -> u64 {
        let leader = self.leader_mut().expect("only a leader appends");
        leader.pending_acks.push_back(0);
        self.tail += 1;
        self.tail
    }

    /// A remote copy of `seq` landed: count it toward the majority, if
    /// `seq` still awaits one.
    pub(crate) fn count_ack(&mut self, seq: u64) {
        let Some(i) = seq.checked_sub(self.commit + 1) else { return };
        if let Some(count) = self.leader_mut().and_then(|l| l.pending_acks.get_mut(i as usize)) {
            *count += 1;
        }
    }

    /// Start an election: bump the promise, tally our own vote.
    /// `own_tail`/`own_commit` seed the maxima and the tail minimum.
    /// Returns the epoch the candidacy runs under.
    pub fn begin_election(&mut self, me: NodeId, own_tail: u64, own_commit: u64) -> u64 {
        let epoch = self.promised + 1;
        self.promised = epoch;
        self.epoch = epoch;
        self.role = Role::Candidate {
            election: Election {
                epoch,
                acks: 1,
                max_tail: own_tail,
                max_tail_holder: me,
                min_tail: own_tail,
                max_commit: own_commit,
                waited: 0,
            },
        };
        epoch
    }

    /// Tally a `LeaderAck` (ignored unless we are a candidate in the
    /// matching epoch).
    pub fn on_leader_ack(&mut self, from: NodeId, epoch: u64, tail: u64, commit: u64) {
        if let Role::Candidate { election } = &mut self.role {
            if election.epoch == epoch {
                election.acks += 1;
                if tail > election.max_tail {
                    election.max_tail = tail;
                    election.max_tail_holder = from;
                }
                election.min_tail = election.min_tail.min(tail);
                election.max_commit = election.max_commit.max(commit);
            }
        }
    }

    /// If the candidacy has a majority, win it: adopt the election's
    /// commit maximum, recognize ourselves, and return the final tally
    /// (the caller decides between direct install and ring catch-up).
    /// The role is parked at `Follower` until the caller begins the
    /// takeover.
    pub fn try_win(&mut self, majority: usize, me: Pid) -> Option<Election> {
        let Role::Candidate { election } = &self.role else { return None };
        if election.acks < majority {
            return None;
        }
        let Role::Candidate { election } = std::mem::replace(&mut self.role, Role::Follower) else {
            unreachable!("matched above");
        };
        self.leader_view = me;
        self.epoch = election.epoch;
        self.commit = election.max_commit.max(self.commit);
        self.commit_written = 0;
        Some(election)
    }

    /// Enter the takeover toward `max_tail` (between winning and
    /// installing); the rebroadcast will start above `min_tail`.
    pub fn begin_takeover(&mut self, max_tail: u64, min_tail: u64) {
        self.role = Role::TakingOver { max_tail, min_tail };
    }

    /// Step down: drop the leader state (writers, acks, clients) and
    /// return it so the node can abort the orphaned client calls.
    /// No-op in any other role.
    pub fn depose_leader(&mut self) -> Option<LeaderState> {
        if self.is_leader() {
            match std::mem::replace(&mut self.role, Role::Follower) {
                Role::Leader(l) => Some(l),
                _ => unreachable!("checked above"),
            }
        } else {
            None
        }
    }

    /// Promise `epoch` to `candidate` (a `LeaderRequest` we accept):
    /// records the promise, recognizes the candidate and gives up any
    /// candidacy of our own. The caller deposes separately if we were
    /// the leader.
    pub fn promise(&mut self, epoch: u64, candidate: Pid) {
        self.promised = epoch;
        self.leader_view = candidate;
        self.stand_down();
    }

    /// Someone else holds an epoch at or above ours, or this node was
    /// halted: a candidacy or takeover of ours is over, back to
    /// following. (A leader steps down through
    /// [`depose_leader`](Self::depose_leader), which hands back its
    /// clients.)
    pub fn stand_down(&mut self) {
        if matches!(self.role, Role::Candidate { .. } | Role::TakingOver { .. }) {
            self.role = Role::Follower;
        }
    }

    /// Advance the commit index over every next-in-line sequence that
    /// reached `need` remote acks. Leader only; returns the new commit
    /// index (unchanged for other roles).
    pub fn advance_commit_index(&mut self, need: usize) -> u64 {
        if let Role::Leader(l) = &mut self.role {
            while l.pending_acks.front().is_some_and(|&count| count >= need) {
                l.pending_acks.pop_front();
                self.commit += 1;
            }
        }
        self.commit
    }
}

// ---------------------------------------------------------------------
// Node-side CONF path (issue, apply, write completions, retries)
// ---------------------------------------------------------------------

impl<O: WorkloadSupport> HambandNode<O> {
    /// Install the startup permission grants for every group (only the
    /// initial leader may write a group's ring and commit cell — the Mu
    /// permission discipline) and become the writer of any group we
    /// lead from the start.
    pub(crate) fn setup_conf_groups<T: Transport>(&mut self, ctx: &mut T) {
        for g in 0..self.engines.len() {
            let leader = NodeId(self.engines[g].leader_view.index());
            self.grant_writer(ctx, g, leader);
            if leader == self.me {
                self.become_writer(g, 0, 0);
            }
        }
    }

    /// The Mu permission flip: grant write permission on group `g`'s
    /// ring and commit cell to `writer` alone, revoking it from every
    /// other node.
    pub(crate) fn grant_writer<T: Transport>(&self, ctx: &mut T, g: usize, writer: NodeId) {
        for q in (0..self.n).map(NodeId) {
            ctx.set_write_permission(self.layout.conf[g], q, q == writer);
        }
    }

    /// Install ourselves as `g`'s leader: build one ring writer per
    /// peer, all adopting `tail`.
    pub(crate) fn become_writer(&mut self, g: usize, tail: u64, issue_floor: u64) {
        let mut writers = Vec::with_capacity(self.n);
        for q in 0..self.n {
            if q == self.me.index() {
                writers.push(None);
            } else {
                let mut w = RingWriter::new(
                    RingKind::Conf,
                    NodeId(q),
                    self.layout.conf[g],
                    self.layout.conf_ring_base(),
                    CONF_RING_CAP,
                    self.layout.entry_size(),
                    self.layout.heads,
                    self.layout.conf_head_offset(g),
                )
                .with_max_batch(self.cfg.max_batch);
                w.adopt_tail(tail);
                writers.push(Some(w));
            }
        }
        self.engines[g].install_leader(writers, tail, issue_floor);
    }

    /// CONF: append to the group's `L` rings; apply at commit. Returns
    /// the entry's seq.
    pub(crate) fn issue_conf<T: Transport>(
        &mut self,
        ctx: &mut T,
        rid: Rid,
        update: O::Update,
        method: MethodId,
        g: usize,
    ) -> u64 {
        let deps = self.applied.project(self.coord.dependencies(method));
        // Speculative view gains the call; the committed views only at
        // commit.
        self.apply_speculative(&update);

        let entry = Entry { rid, update, deps };
        let engine = &mut self.engines[g];
        let seq = engine.append();
        // The entry carries the commit index to the followers, so a
        // commit costs no WRITE of its own while the pipeline is fed
        // (the pump's `flush_commit` covers an index nothing carries).
        let commit = engine.commit;
        engine.commit_written = engine.commit_written.max(commit);
        // The group's rings advance with its ordinal, so the local log
        // copy and every follower's slot are the same bytes: encode once.
        let mut slot = std::mem::take(&mut self.slot_buf);
        entry.to_slot_into(seq, self.layout.entry_size(), &mut slot);
        stamp_commit(&mut slot, commit);
        // Local ring copy (leader's log for catch-up by successors, and
        // the payload `rebuild_spec_mat` replays until the entry
        // commits), written before any follower can hold the entry.
        ctx.local_write(self.layout.conf[g], self.layout.conf_slot_offset(seq), &slot);
        // Persist-before-propose: the leader's log copy is the catch-up
        // source for successors, so the slot must survive a restart
        // before any follower can hold it.
        ctx.fence_region(self.layout.conf[g]);
        let leader = self.engines[g].leader_mut().expect("still leading");
        for w in leader.writers.iter_mut().flatten() {
            let s = w.append_encoded(ctx, &slot);
            debug_assert_eq!(s, seq, "conf rings advance with the group ordinal");
        }
        self.slot_buf = slot;
        // The appends are tallied per seq in `pending_acks`, and the
        // call is acknowledged when the commit index passes it. The
        // leader's log copy is its backup.
        seq
    }

    /// A non-leader learns `g`'s commit index: the highest index carried
    /// by an entry landed from the reader's head onward, or the commit
    /// cell when that is ahead (the leader writes it once nothing it
    /// appends carries the index).
    fn learn_commit<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        let known = self.known_commit(ctx, g);
        let e = &mut self.engines[g];
        e.commit = known;
        let mut seq = e.commit_scan.max(e.reader.next_seq());
        while let Some(carried) = carried_commit(e.reader.raw_slot(ctx, seq), seq) {
            e.commit = e.commit.max(carried);
            seq += 1;
        }
        e.commit_scan = seq;
    }

    /// Apply committed `L`-ring entries, gated by the commit index and
    /// by each entry's dependency map.
    pub(crate) fn poll_conf<T: Transport>(&mut self, ctx: &mut T) {
        for g in 0..self.engines.len() {
            if !self.engines[g].is_leader() {
                self.learn_commit(ctx, g);
            }
            let commit = self.engines[g].commit;
            loop {
                let next = self.engines[g].reader.next_seq();
                if next > commit {
                    break;
                }
                let entry = self.engines[g].reader.peek::<O::Update>(ctx);
                let Some(entry) = entry else { break };
                // Own entry reaching commit: it is in the speculative
                // view since issue, and enters the committed views.
                let own = self.engines[g].own_unapplied().contains(&next);
                if !self.apply_buffered(ctx, &entry, own) {
                    break;
                }
                // Durability seam: log+fence the applied entry before
                // the head publication (same discipline as the free
                // path).
                self.log_slot(ctx, |node, ctx| LogRecord::ConfSlot {
                    group: g as u32,
                    slot: node.engines[g].reader.raw_slot(ctx, next).to_vec(),
                });
                // The entry's issuer is the leader that appended it.
                self.engines[g].reader.advance(ctx, NodeId(entry.rid.issuer.index()));
            }
        }
    }

    /// Feed an `L`-ring append completion to whichever group's writer
    /// posted it; returns `true` if one claimed it.
    pub(crate) fn on_conf_completion<T: Transport>(
        &mut self,
        ctx: &mut T,
        wr: WrId,
        status: CompletionStatus,
        data: Option<&[u8]>,
    ) -> bool {
        for g in 0..self.engines.len() {
            let Some(leader) = self.engines[g].leader_mut() else { continue };
            let mut writers = leader.writers.iter_mut().flatten();
            if let Some(done) = writers.find_map(|w| w.on_completion(ctx, wr, status, data)) {
                for seq in done.seqs() {
                    self.on_conf_write_done(ctx, g, done.target, seq, done.status);
                }
                return true;
            }
        }
        false
    }

    pub(crate) fn on_conf_write_done<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        target: NodeId,
        seq: u64,
        status: CompletionStatus,
    ) {
        if !status.is_success() {
            // The target has not granted us write permission (it may
            // simply not have processed our election yet, or a newer
            // leader exists — the latter reaches us as a higher-epoch
            // message and deposes us there). Retry until either happens;
            // the entry can still commit through the other followers.
            // Suspected peers are retried too: a suspended-but-alive
            // node still grants permission once it sees the election.
            if matches!(self.engines[g].role, Role::Leader(_) | Role::TakingOver { .. }) {
                self.conf_retries.push((g, target, seq));
                if !self.retry_timer_armed {
                    self.retry_timer_armed = true;
                    ctx.set_timer(SimDuration::micros(5), TAG_RETRY);
                }
            }
            return;
        }
        self.engines[g].count_ack(seq);
        self.advance_commit(ctx, g);
    }

    /// Re-post permission-denied ring writes (rewrites of the leader's
    /// local ring copy). Entries of groups we no longer lead are
    /// dropped — the new leader's rebroadcast covers them.
    pub(crate) fn run_retries<T: Transport>(&mut self, ctx: &mut T) {
        self.retry_timer_armed = false;
        let retries = std::mem::take(&mut self.conf_retries);
        for (g, target, seq) in retries {
            if !self.engines[g].is_leader() {
                continue;
            }
            let off = self.layout.conf_slot_offset(seq);
            let slot = ctx.local(self.layout.conf[g], off, self.layout.entry_size()).to_vec();
            if let Some(leader) = self.engines[g].leader_mut() {
                if let Some(w) = leader.writers[target.index()].as_mut() {
                    w.rewrite(ctx, seq, slot);
                }
            }
        }
    }

    /// Step down from leading `g` after a higher-epoch leader emerged.
    pub(crate) fn depose<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        let Some(dropped) = self.engines[g].depose_leader() else { return };
        let (node, epoch) = (self.me, self.engines[g].promised);
        ctx.emit(|| TraceEvent::Deposed { group: g, node, epoch });
        // Abort unacknowledged conflicting calls: their entries may or
        // may not survive into the new leader's log, so they leave the
        // speculative view (the committed views were never touched); the
        // uncommitted calls of groups still led stay in it.
        self.conf_retries.retain(|&(rg, _, _)| rg != g);
        self.rebuild_spec_mat(ctx);
        for (_, record) in dropped.client_by_seq {
            self.abort_call(record);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests;
