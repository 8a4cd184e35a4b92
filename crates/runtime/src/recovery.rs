//! Failure handling: what a replica does when its detector suspects a
//! peer.
//!
//! Three deterministic reactions, each picking its nodes from the
//! failure detector's suspicions (`FailureDetector::lowest_alive` and
//! `next_alive_after`), so every correct observer with the same
//! suspicion set picks the same nodes:
//!
//! 1. **Reliable-broadcast recovery** — the lowest alive node reads the
//!    suspect's own copy of the `F` ring it feeds and re-sends it
//!    (`Route::RecoveryRead`, the agreement half of reliable
//!    broadcast); a broadcast's own slot is its backup, as the issuer
//!    writes it before any remote copy leaves. A summary slot has one
//!    writer, its source, so nobody re-sends it: every survivor READs
//!    the suspect's own log and adopts from the bytes it read.
//! 2. **Workload adoption** — the next alive node after the suspect (in
//!    ring order) adopts its remaining conflict-free quota (what it has
//!    not seen applied) and exactly the queries the suspect had not run
//!    (its count, read with its heartbeat).
//! 3. **Leader change** — for every group whose recognized leader is
//!    down, the lowest alive node starts an election (`election.rs`
//!    takes it from there), and runs again if that one is lost
//!    (`retry_elections`).
//!
//! The detector runs on its own core (§4), and so do its READs'
//! completions; the reactions above are the application's work. The
//! detector thread hands each of them over as an ordinary event
//! (`FdHandoff`): it queues behind whatever the application CPU has
//! waiting and is charged there, like any other handler.

use hamband_core::coord::MethodCategory;
use hamband_core::ids::{MethodId, Pid};
use hamband_core::object::WorkloadSupport;
use rdma_sim::{NodeId, SimDuration, TraceEvent};

use crate::calls::Route;
use crate::codec::{slot_ready, slot_seq};
use crate::conf::Role;
use crate::config::{FREE_RING_CAP, MAX_IN_FLIGHT};
use crate::driver::QuotaSplit;
use crate::heartbeat::FdEvent;
use crate::reduce::unread_records;
use crate::replica::{HambandNode, TAG_FD_HANDOFF};
use crate::transport::Transport;

/// Failure-detector ticks (8 µs each by default) a candidacy may wait
/// for its majority before it is run again. Several times the slowest
/// election a loaded cluster shows (≈ 55 µs on the benchmark's
/// `courseware-leaderfail`): a retry is safe but costs a round.
pub(crate) const ELECTION_RETRY_TICKS: u32 = 32;

/// Work the failure-detector thread hands to the application CPU, one
/// [`TAG_FD_HANDOFF`] event each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FdHandoff {
    /// A transition a heartbeat READ's completion produced.
    Transition(FdEvent),
    /// A tick found an election this node has to run or retry.
    RetryElections,
}

impl<O: WorkloadSupport> HambandNode<O> {
    /// Hand `work` from the detector thread to the application CPU: an
    /// ordinary zero-delay event, which waits for that CPU like any
    /// other.
    pub(crate) fn hand_over<T: Transport>(&mut self, ctx: &mut T, work: FdHandoff) {
        self.fd_handoff.push_back(work);
        ctx.set_timer(SimDuration::ZERO, TAG_FD_HANDOFF);
    }

    /// Run the oldest work the detector thread handed over. Nothing is
    /// queued for an event armed before a crash-restart rebuilt the
    /// replica.
    pub(crate) fn run_handoff<T: Transport>(&mut self, ctx: &mut T) {
        match self.fd_handoff.pop_front() {
            Some(FdHandoff::Transition(FdEvent::Suspected(peer))) => self.on_suspect(ctx, peer),
            Some(FdHandoff::Transition(FdEvent::Recovered(peer))) => {
                // The peer's heartbeat moved again after suspicion.
                // Consequences that already fired (quota adoption,
                // takeover) stay — crash-stop at the protocol level —
                // but the peer is no longer excluded from future
                // delegate and election choices.
                let node = self.me;
                ctx.emit(|| TraceEvent::FdRecover { node, peer });
            }
            Some(FdHandoff::RetryElections) => self.retry_elections(ctx),
            None => {}
        }
    }

    /// React to the failure detector (or a `Retired` announcement)
    /// suspecting `suspect`.
    pub(crate) fn on_suspect<T: Transport>(&mut self, ctx: &mut T, suspect: NodeId) {
        let node = self.me;
        ctx.emit(|| TraceEvent::FdSuspect { node, suspect });
        // 1. Reliable-broadcast recovery: the lowest alive node reads
        //    the suspect's own `F`-ring copy and re-sends it; every
        //    survivor reads its summary logs for itself.
        if self.fd.lowest_alive(Some(suspect)) == self.me {
            self.post_recovery_read(ctx, suspect);
        }
        for g in 0..self.sum_cache.len() {
            let (off, len) = (self.layout.summary_offset(g, suspect), self.layout.summary_size(g));
            let wr = ctx.post_read(suspect, self.layout.summaries, off, len);
            self.wr_routes.insert(wr, Route::RecoveryRead { suspect, group: Some(g) });
        }
        // 1b. Cascaded recovery: if the new suspect was itself the
        //     designated recoverer of an earlier suspect, that earlier
        //     recovery may have died with it — a committed conflicting
        //     call can then wait forever on a free call nobody
        //     re-broadcasts. Whoever inherits the duty re-reads the
        //     earlier suspect's ring copy; re-execution is idempotent
        //     (the same ring slots get the same bytes).
        //     `suspect` recovered `s` iff it ranked below every node
        //     other than `s` alive now. The duty passes to the lowest
        //     of those: this node acts iff it is that one and ranks
        //     above `suspect`.
        for s in self.fd.suspected() {
            if s != suspect && suspect < self.me && self.fd.lowest_alive(Some(s)) == self.me {
                self.post_recovery_read(ctx, s);
            }
        }
        // 2. Workload adoption: the next alive node picks up the
        //    suspect's remaining conflict-free quota.
        let adopter = self.fd.next_alive_after(suspect);
        if adopter == self.me && !self.adopted[suspect.index()] && !self.workload_retired {
            self.adopted[suspect.index()] = true;
            // What the suspect did is what landed here, not what this
            // node happened to adopt: adopt every slot first, or its
            // landed calls are issued a second time.
            self.adopt_summaries(ctx);
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
            // The suspect's query count came with its heartbeat: adopt
            // exactly the queries it did not run.
            let remaining_queries = their.queries.saturating_sub(self.fd.queries_done(suspect));
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
                && self.fd.lowest_alive(Some(lv)) == self.me
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
        for g in 0..self.engines.len() {
            if !self.next_in_line(g) {
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

    /// Whether group `g`'s recognized leader is suspected and this node,
    /// the lowest alive one, has to run or keep running its election —
    /// the case [`retry_elections`](Self::retry_elections) acts on, and
    /// the one a detector tick hands it over for.
    pub(crate) fn next_in_line(&self, g: usize) -> bool {
        let e = &self.engines[g];
        let lv = NodeId(e.leader_view.index());
        !self.halted
            && !self.workload_retired
            && matches!(e.role, Role::Follower | Role::Candidate { .. })
            && self.fd.is_suspected(lv)
            && self.fd.lowest_alive(Some(lv)) == self.me
    }

    /// Post the RDMA READ of `suspect`'s own copy of the `F` ring it
    /// feeds (its memory stays readable after a CPU crash), if the
    /// object has one. The completion lands in [`Self::recover_backups`].
    fn post_recovery_read<T: Transport>(&mut self, ctx: &mut T, suspect: NodeId) {
        if !self.free_readers.is_empty() {
            let off = self.layout.free_ring_base(suspect);
            let len = FREE_RING_CAP * self.layout.entry_size();
            let wr = ctx.post_read(suspect, self.layout.free_rings, off, len);
            self.wr_routes.insert(wr, Route::RecoveryRead { suspect, group: None });
        }
    }

    /// Write `slot` at `offset` of the `F`-ring region on every node
    /// but `suspect` (our own copy directly).
    fn rebroadcast<T: Transport>(&self, ctx: &mut T, suspect: NodeId, offset: usize, slot: &[u8]) {
        for q in (0..self.n).map(NodeId).filter(|&q| q != suspect) {
            if q == self.me {
                ctx.local_write(self.layout.free_rings, offset, slot);
            } else {
                ctx.post_write(q, self.layout.free_rings, offset, slot);
            }
        }
    }

    /// Act on bytes READ out of a suspected source's memory: adopt the
    /// records of its summary log of `group` this node lacks, or
    /// re-execute the pending broadcasts of its own `F` ring (`group`
    /// `None`, the agreement half of reliable broadcast).
    pub(crate) fn recover_backups<T: Transport>(
        &mut self,
        ctx: &mut T,
        suspect: NodeId,
        group: Option<usize>,
        bytes: &[u8],
    ) {
        if let Some(g) = group {
            let group_len = self.coord.sum_groups()[g].len();
            let cache = &self.sum_cache[g][suspect.index()];
            if let Some(unread) = unread_records(bytes, group_len, cache) {
                self.adopt_unread(ctx, g, suspect.index(), unread);
            }
            return;
        }
        // The ingress caps a node's unacknowledged calls at
        // `MAX_IN_FLIGHT`, so every entry some peer may lack is among
        // the newest that many.
        let size = self.layout.entry_size();
        let entries: Vec<(u64, &[u8])> = bytes
            .chunks_exact(size)
            .filter_map(|slot| slot_seq(slot).map(|seq| (seq, slot)))
            .filter(|&(seq, slot)| seq > 0 && slot_ready(slot, seq))
            .collect();
        let newest = entries.iter().map(|&(seq, _)| seq).max().unwrap_or(0);
        for (seq, slot) in entries {
            if seq + MAX_IN_FLIGHT as u64 > newest {
                self.rebroadcast(ctx, suspect, self.layout.free_slot_offset(suspect, seq), slot);
            }
        }
        // The recovered slots were placed in our own copies with local
        // writes; fence them so a subsequent restart of *this* node does
        // not lose the re-executed broadcasts.
        ctx.fence_region(self.layout.free_rings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::{TAG_FD, TAG_HEARTBEAT};
    use crate::{Layout, RunConfig, WorkloadSpec};
    use hamband_types::OrSet;
    use rdma_sim::{App, Ctx, Event, Fault, FaultPlan, SimTime, Simulator};

    const VICTIM: NodeId = NodeId(3);

    /// One event node 0 handled, and where it left the suspicion of
    /// [`VICTIM`].
    struct Step {
        at: SimTime,
        /// A completion of one of the detector's heartbeat READs.
        fd_read: bool,
        /// An application-CPU event: neither a READ completion nor a
        /// heartbeat or detector tick.
        app: bool,
        /// The hand-over that runs `on_suspect(VICTIM)`.
        reacts: bool,
        /// Application events were waiting for the CPU meanwhile.
        backlog: bool,
        /// The shell planned after it.
        planned: bool,
        suspected: bool,
        adopted: bool,
    }

    /// A replica stepped by the simulator shell, logging every event.
    struct Logged {
        node: HambandNode<OrSet>,
        steps: Vec<Step>,
    }

    impl App for Logged {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.node.start(ctx);
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            let node = &self.node;
            let fd_read = matches!(&event, Event::Completion { wr, .. } if node.fd.owns(*wr));
            let tick = matches!(event, Event::Timer { tag: TAG_HEARTBEAT | TAG_FD, .. });
            let app = !fd_read && !tick;
            let suspicion = FdHandoff::Transition(FdEvent::Suspected(VICTIM));
            let reacts = matches!(event, Event::Timer { tag: TAG_FD_HANDOFF, .. })
                && node.fd_handoff.front() == Some(&suspicion);
            let (at, backlog) = (ctx.now(), ctx.cpu_backlog());
            let planned = self.node.step(ctx, event);
            let (suspected, adopted) =
                (self.node.fd.is_suspected(VICTIM), self.node.adopted[VICTIM.index()]);
            let step = Step { at, fd_read, app, reacts, backlog, planned, suspected, adopted };
            self.steps.push(step);
        }
    }

    /// Node 0 is kept busy by its query quota — every node's first pump
    /// runs all of it, ≈ 110 µs of CPU — while node 3 crashes. The
    /// detector is a thread of its own: its READs complete on time
    /// although the application CPU is busy, they never plan, and the
    /// suspicion they reach is handed to the application CPU, which
    /// reacts (here: adopts node 3's quota) once it has worked off what
    /// was waiting.
    #[test]
    fn a_busy_node_suspects_on_time_and_reacts_on_its_application_cpu() {
        let o = OrSet::default();
        let coord = o.coord_spec();
        let run = RunConfig::new(4, WorkloadSpec::ops(4_000).with_update_ratio(0.25).with_seed(5))
            .with_seed(5);
        let crash_at = SimTime(21_000);
        let mut sim = Simulator::new(run.nodes, run.latency.clone(), run.seed);
        let layout = Layout::install(&mut sim, &coord, &run.runtime);
        sim.install_fault_plan(&FaultPlan::new().at(crash_at, Fault::Crash(VICTIM)));
        sim.set_apps(|id| Logged {
            node: HambandNode::new(&o, &coord, &run.runtime, &layout, id, None, &run.workload),
            steps: Vec::new(),
        });
        sim.run_until(SimTime(400_000));
        let steps = &sim.app(NodeId(0)).steps;

        let mut reads = steps.iter().filter(|s| s.fd_read);
        assert!(reads.clone().any(|s| s.backlog), "the READs never met a busy CPU");
        assert!(reads.all(|s| !s.planned), "a READ completion planned");

        let suspected = steps.iter().position(|s| s.suspected).expect("node 3 is suspected");
        let s = &steps[suspected];
        assert!(s.fd_read && s.backlog, "suspected by a READ completion, with the CPU busy");
        assert!(!s.adopted, "the detector thread itself reacted");
        // One detector interval for the first READ that sees the last
        // beat, `fd_suspect_after` more to count it unchanged, and the
        // last READ's round trip (2 µs ± 8 % after the NIC's 110 ns).
        let cfg = &run.runtime;
        let ticks = u64::from(cfg.fd_suspect_after) + 1;
        let bound = crash_at + SimDuration(cfg.fd_interval.as_nanos() * ticks + 2_300);
        assert!(s.at <= bound, "suspected at {}, later than {bound}", s.at);

        let reacted = steps.iter().position(|s| s.reacts).expect("the suspicion is handed over");
        let r = &steps[reacted];
        assert!(reacted > suspected && r.adopted, "on_suspect ran in the hand-over");
        let worked_off = &steps[suspected + 1..reacted];
        assert!(
            worked_off.iter().any(|s| s.app && s.at > steps[suspected].at),
            "the hand-over queued behind the application's backlog"
        );
        assert!(r.at > s.at);
    }

    /// One writer per summary slot copy, under a false suspicion: node 1
    /// suspects node 0, which is alive and compacts its log right after
    /// node 1's READ took the old one. Node 1 adopts from the bytes it
    /// READ and writes nowhere. Had it re-sent them into node 2's copy,
    /// they would land after node 0's compaction there and put the old
    /// record 0 back, and node 2 would never walk the records node 0
    /// appends behind the new one.
    #[test]
    fn a_suspicion_of_a_live_source_leaves_its_summary_copies_to_it() {
        use hamband_types::gset::{GSet, GSetUpdate};
        let g = GSet::default();
        let runtime = crate::RuntimeConfig::default().with_summary_payload_cap(64);
        let run = RunConfig::new(3, WorkloadSpec::ops(0))
            .with_seed(1)
            .with_runtime(runtime)
            .with_trace(crate::TraceMode::Collect);
        let (mut sim, _layout) = crate::assemble(&g, &g.coord_spec(), &run);
        let (n0, n1, n2) = (NodeId(0), NodeId(1), NodeId(2));
        let add = |sim: &mut Simulator<HambandNode<GSet>>, x: u64| {
            sim.with_app_ctx(n0, |app, ctx| {
                app.issue(ctx, GSetUpdate::AddAll(vec![x]), 0, None);
                app.flush_summaries(ctx);
            });
            sim.run_for(SimDuration::micros(5));
        };
        // Three one-element records fill most of the 96-byte slot.
        sim.run_for(SimDuration::nanos(1));
        for x in 0..3 {
            add(&mut sim, x);
        }
        sim.take_trace();
        sim.with_app_ctx(n1, |app, ctx| app.on_suspect(ctx, n0));
        // The READ lands at node 0 and takes the three records ...
        let read_landed = |sim: &mut Simulator<HambandNode<GSet>>| {
            sim.take_trace().iter().any(|r| {
                matches!(r.event, TraceEvent::VerbCompleted { issuer, kind: rdma_sim::VerbKind::Read, .. }
                    if issuer == n1)
            })
        };
        while !read_landed(&mut sim) {
            sim.run_for(SimDuration::nanos(10));
        }
        // ... and the fourth compacts; two more fit behind it.
        for x in 3..6 {
            add(&mut sim, x);
        }
        let all: Vec<u64> = (0..6).collect();
        for q in [n0, n1, n2] {
            let state: Vec<u64> = sim.app(q).state_snapshot().into_iter().collect();
            assert_eq!(state, all, "node {q:?}");
        }
        assert!(sim.app(n2).sum_cache[0][0].head > 1, "node 0 compacted");
    }
}
