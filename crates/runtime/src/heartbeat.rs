//! Heartbeats and the pull-style failure detector.
//!
//! §4: "Each node has a heartbeat thread that periodically updates a
//! local counter. This counter is periodically read by other nodes to
//! determine whether that node is still alive or not."
//!
//! The emitter increments a counter in local registered memory; the
//! detector posts one-sided READs of each peer's counter and suspects a
//! peer whose counter stays unchanged for a configured number of
//! consecutive reads. Suspicion is *not* sticky at the detector level:
//! suspected peers keep being read, and observed counter progress clears
//! the suspicion ([`FdEvent::Recovered`]) — a heartbeat that resumes
//! after the threshold is again distinguishable from one that resumed
//! just before it. Protocol-level consequences that already fired
//! (quota adoption, leader takeover) are *not* rolled back; the replica
//! layer treats them as crash-stop and merely stops excluding the peer
//! from future delegate and election choices.
//!
//! Reads that complete back-to-back carry no new information: the
//! emitter only beats every heartbeat interval, so the detector counts
//! a read as "unchanged" only when at least [`min_sample_gap`] of
//! virtual time passed since the previous counted sample. This guards
//! against a burst of delayed reads (e.g. released by a healed network
//! partition) all observing the same counter value and escalating to a
//! false suspicion within one instant.
//!
//! [`min_sample_gap`]: FailureDetector::with_min_sample_gap
//!
//! The same READ fetches the second word of the peer's heartbeat
//! region, the count of queries it has executed, which the application
//! publishes at the end of every pump that ran one: quota adoption
//! after a suspicion (`recovery.rs`) hands over exactly the queries the
//! suspect did not run.
//!
//! The detector's suspicions are the one record of who is alive: the
//! recovery delegate and the election starter
//! ([`lowest_alive`](FailureDetector::lowest_alive)) and the adopter of
//! a failed node's quota
//! ([`next_alive_after`](FailureDetector::next_alive_after)) are read
//! from them directly, so every observer with the same suspicions picks
//! the same node.
//!
//! Both threads run on their own cores (§4): the detector's READs and
//! their completions are not the application CPU's work. What a
//! completion sets in motion — a suspicion's recovery, adoption and
//! election, a recovery's trace — the replica hands back to the
//! application CPU (`recovery.rs`, `FdHandoff`).

use rdma_sim::{IdMap, NodeId, RegionId, SimDuration, SimTime, WrId};

use crate::transport::Transport;

/// Byte size of a node's heartbeat region. Word 0 is the beat counter,
/// written by the heartbeat thread; word 1 the count of queries the node
/// executed, written by the application. One writer per word (DESIGN
/// §3c); the detector READs both in one verb.
pub const HEARTBEAT_BYTES: usize = 16;

/// Offset of the executed-queries word in the heartbeat region.
const QUERIES_OFFSET: usize = 8;

/// Heartbeat emitter state.
#[derive(Debug)]
pub struct Heartbeat {
    region: RegionId,
    counter: u64,
    /// Set by the fault plan: a suspended heartbeat stops announcing
    /// liveness while the node keeps serving (§5 failure injection).
    pub suspended: bool,
}

impl Heartbeat {
    /// An emitter writing to offset 0 of `region`.
    pub fn new(region: RegionId) -> Self {
        Heartbeat { region, counter: 0, suspended: false }
    }

    /// One heartbeat tick: bump the local counter (no-op while
    /// suspended).
    pub fn beat(&mut self, ctx: &mut impl Transport) {
        if self.suspended {
            return;
        }
        self.counter += 1;
        ctx.local_write(self.region, 0, &self.counter.to_le_bytes());
    }

    /// Publish how many queries this node has executed (word 1 of the
    /// region — the application's word, not the heartbeat thread's).
    pub fn publish_queries(&self, ctx: &mut impl Transport, queries: u64) {
        ctx.local_write(self.region, QUERIES_OFFSET, &queries.to_le_bytes());
    }
}

/// What a completed detector read revealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdEvent {
    /// The peer crossed the suspicion threshold.
    Suspected(NodeId),
    /// A previously suspected peer's counter moved again.
    Recovered(NodeId),
}

/// Failure-detector state for one observed peer.
#[derive(Debug, Clone, Copy)]
struct PeerView {
    last_value: u64,
    /// The most queries the peer was ever read to have executed. Kept as
    /// a maximum: a crash-restart zeroes the word before the node
    /// republishes it.
    queries: u64,
    unchanged_reads: u32,
    /// When the last *counted* sample completed (bursts of reads
    /// completing within `min_sample_gap` count once).
    last_sample_at: SimTime,
    suspected: bool,
    /// The peer announced it will never serve again (workload-level
    /// crash-stop). Suspicion of such a peer is sticky even when its
    /// heartbeat counter keeps moving.
    workload_dead: bool,
}

/// The pull failure detector: reads peers' heartbeat counters.
#[derive(Debug)]
pub struct FailureDetector {
    hb_region: RegionId,
    suspect_after: u32,
    min_sample_gap: SimDuration,
    peers: Vec<PeerView>,
    inflight: IdMap<WrId, NodeId>,
    me: NodeId,
}

impl FailureDetector {
    /// A detector at `me` over a cluster of `n` nodes whose heartbeat
    /// counters live at offset 0 of `hb_region`; a peer is suspected
    /// after `suspect_after` consecutive unchanged reads.
    pub fn new(me: NodeId, n: usize, hb_region: RegionId, suspect_after: u32) -> Self {
        assert!(suspect_after > 0);
        FailureDetector {
            hb_region,
            suspect_after,
            min_sample_gap: SimDuration::ZERO,
            peers: vec![
                PeerView {
                    last_value: 0,
                    queries: 0,
                    unchanged_reads: 0,
                    last_sample_at: SimTime::ZERO,
                    suspected: false,
                    workload_dead: false,
                };
                n
            ],
            inflight: IdMap::default(),
            me,
        }
    }

    /// Count an unchanged read only if at least `gap` passed since the
    /// previous counted sample (typically the heartbeat interval: any
    /// denser and an unchanged counter is expected, not suspicious).
    pub fn with_min_sample_gap(mut self, gap: SimDuration) -> Self {
        self.min_sample_gap = gap;
        self
    }

    /// How many queries `peer` had executed at the latest completed
    /// read of its heartbeat region.
    pub fn queries_done(&self, peer: NodeId) -> u64 {
        self.peers[peer.index()].queries
    }

    /// Whether `wr` is one of this detector's heartbeat READs still in
    /// flight.
    pub fn owns(&self, wr: WrId) -> bool {
        self.inflight.contains_key(&wr)
    }

    /// Whether `peer` is currently suspected.
    pub fn is_suspected(&self, peer: NodeId) -> bool {
        self.peers[peer.index()].suspected
    }

    /// Record a peer's announcement that it has permanently stopped
    /// serving (e.g. it resumed from a pause it treats as crash-stop).
    /// The peer becomes suspected and stays so regardless of heartbeat
    /// progress. Returns `true` iff this newly suspected the peer.
    pub fn mark_workload_dead(&mut self, peer: NodeId) -> bool {
        let view = &mut self.peers[peer.index()];
        view.workload_dead = true;
        let newly = !view.suspected;
        view.suspected = true;
        newly
    }

    /// All currently suspected peers.
    pub fn suspected(&self) -> Vec<NodeId> {
        (0..self.peers.len()).map(NodeId).filter(|&p| self.peers[p.index()].suspected).collect()
    }

    /// The lowest-numbered node not suspected (and not `skip`); falls
    /// back to `me` when everyone (else) is suspected. Picks the
    /// recovery delegate and the election starter: every observer with
    /// the same suspicion set picks the same node.
    pub fn lowest_alive(&self, skip: Option<NodeId>) -> NodeId {
        (0..self.peers.len())
            .map(NodeId)
            .find(|&p| !self.peers[p.index()].suspected && Some(p) != skip)
            .unwrap_or(self.me)
    }

    /// The first node after `suspect` in ring order (wrapping at the
    /// cluster size) that is not suspected, never `suspect` itself;
    /// falls back to `me` when everyone else is suspected. Picks who
    /// adopts a failed node's remaining conflict-free quota.
    pub fn next_alive_after(&self, suspect: NodeId) -> NodeId {
        let n = self.peers.len();
        (1..n)
            .map(|d| NodeId((suspect.index() + d) % n))
            .find(|q| !self.peers[q.index()].suspected)
            .unwrap_or(self.me)
    }

    /// One detector tick: post a read of every peer's heartbeat region.
    /// Suspected peers are read too, so a resumed heartbeat is
    /// observed and the suspicion cleared.
    pub fn tick(&mut self, ctx: &mut impl Transport) {
        for p in 0..self.peers.len() {
            let peer = NodeId(p);
            if peer == self.me {
                continue;
            }
            let wr = ctx.post_read(peer, self.hb_region, 0, HEARTBEAT_BYTES);
            self.inflight.insert(wr, peer);
        }
    }

    /// Feed a completion at virtual time `now`. Returns the state
    /// transition this read caused, if any.
    pub fn on_completion(
        &mut self,
        now: SimTime,
        wr: WrId,
        data: Option<&[u8]>,
    ) -> Option<FdEvent> {
        let peer = self.inflight.remove(&wr)?;
        let view = &mut self.peers[peer.index()];
        let word =
            |d: &[u8], at: usize| u64::from_le_bytes(d[at..at + 8].try_into().expect("8 bytes"));
        let value = match data.filter(|d| d.len() == HEARTBEAT_BYTES) {
            Some(d) => {
                view.queries = view.queries.max(word(d, QUERIES_OFFSET));
                word(d, 0)
            }
            None => view.last_value,
        };
        if value != view.last_value {
            view.last_value = value;
            view.unchanged_reads = 0;
            view.last_sample_at = now;
            if view.suspected && !view.workload_dead {
                view.suspected = false;
                return Some(FdEvent::Recovered(peer));
            }
            return None;
        }
        // Unchanged: only meaningful if the emitter had time to beat
        // since the last counted sample.
        if now < view.last_sample_at + self.min_sample_gap {
            return None;
        }
        view.last_sample_at = now;
        view.unchanged_reads += 1;
        if view.unchanged_reads >= self.suspect_after && !view.suspected {
            view.suspected = true;
            return Some(FdEvent::Suspected(peer));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::{App, Ctx, Event, LatencyModel, SimDuration, Simulator};

    struct HbApp {
        hb: Heartbeat,
        fd: FailureDetector,
        newly_suspected: Vec<NodeId>,
        recovered: Vec<NodeId>,
        beats_enabled: bool,
    }

    impl App for HbApp {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::micros(5), 0); // beat
            ctx.set_timer(SimDuration::micros(12), 1); // detect
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Timer { tag: 0, .. } => {
                    if self.beats_enabled {
                        self.hb.beat(ctx);
                    }
                    ctx.set_timer(SimDuration::micros(5), 0);
                }
                Event::Timer { tag: 1, .. } => {
                    self.fd.tick(ctx);
                    ctx.set_timer(SimDuration::micros(12), 1);
                }
                Event::Completion { wr, data, .. } => {
                    match self.fd.on_completion(ctx.now(), wr, data.as_deref()) {
                        Some(FdEvent::Suspected(p)) => self.newly_suspected.push(p),
                        Some(FdEvent::Recovered(p)) => self.recovered.push(p),
                        None => {}
                    }
                }
                _ => {}
            }
        }
    }

    fn cluster(n: usize, dead: &[usize]) -> Simulator<HbApp> {
        let mut sim = Simulator::new(n, LatencyModel::deterministic(), 3);
        let hb = sim.add_region_all(HEARTBEAT_BYTES);
        let dead = dead.to_vec();
        sim.set_apps(|id| HbApp {
            hb: Heartbeat::new(hb),
            fd: FailureDetector::new(id, n, hb, 4).with_min_sample_gap(SimDuration::micros(5)),
            newly_suspected: Vec::new(),
            recovered: Vec::new(),
            beats_enabled: !dead.contains(&id.index()),
        });
        sim
    }

    #[test]
    fn live_peers_are_not_suspected() {
        let mut sim = cluster(3, &[]);
        sim.run_for(SimDuration::millis(2));
        for n in 0..3 {
            assert!(sim.app(NodeId(n)).newly_suspected.is_empty());
            assert_eq!(sim.app(NodeId(n)).fd.suspected(), vec![]);
        }
    }

    #[test]
    fn silent_peer_is_suspected_exactly_once() {
        let mut sim = cluster(3, &[2]);
        sim.run_for(SimDuration::millis(2));
        for n in 0..2 {
            assert_eq!(sim.app(NodeId(n)).newly_suspected, vec![NodeId(2)]);
            assert!(sim.app(NodeId(n)).fd.is_suspected(NodeId(2)));
        }
    }

    #[test]
    fn lowest_alive_skips_suspects() {
        let mut sim = cluster(3, &[0]);
        sim.run_for(SimDuration::millis(2));
        let fd = &sim.app(NodeId(1)).fd;
        assert_eq!(fd.lowest_alive(None), NodeId(1));
        assert_eq!(fd.lowest_alive(Some(NodeId(1))), NodeId(2));
    }

    #[test]
    fn suspended_emitter_goes_silent() {
        let mut sim = cluster(2, &[]);
        sim.run_for(SimDuration::millis(1));
        assert!(sim.app(NodeId(0)).newly_suspected.is_empty());
        sim.app_mut(NodeId(1)).hb.suspended = true;
        sim.run_for(SimDuration::millis(2));
        assert_eq!(sim.app(NodeId(0)).newly_suspected, vec![NodeId(1)]);
    }

    #[test]
    fn resumed_emitter_clears_suspicion() {
        let mut sim = cluster(2, &[]);
        sim.run_for(SimDuration::millis(1));
        sim.app_mut(NodeId(1)).hb.suspended = true;
        sim.run_for(SimDuration::millis(2));
        assert!(sim.app(NodeId(0)).fd.is_suspected(NodeId(1)));
        // Resume well past the suspicion threshold: progress is
        // observed (suspects keep being read) and suspicion clears.
        sim.app_mut(NodeId(1)).hb.suspended = false;
        sim.run_for(SimDuration::millis(2));
        let app = sim.app(NodeId(0));
        assert!(!app.fd.is_suspected(NodeId(1)));
        assert_eq!(app.recovered, vec![NodeId(1)]);
        // A single suspect/recover cycle, not a flapping series.
        assert_eq!(app.newly_suspected, vec![NodeId(1)]);
    }

    /// A detector at `me` of an `n`-node cluster that suspects exactly
    /// `suspects` (announced dead, so heartbeats play no part).
    fn suspecting(me: usize, n: usize, suspects: &[usize]) -> FailureDetector {
        let mut fd = FailureDetector::new(NodeId(me), n, RegionId(0), 3);
        for &p in suspects {
            assert!(fd.mark_workload_dead(NodeId(p)));
        }
        fd
    }

    #[test]
    fn lowest_alive_picks_first_unsuspected() {
        let fd = suspecting(2, 4, &[0]);
        assert_eq!(fd.lowest_alive(None), NodeId(1));
        assert_eq!(fd.lowest_alive(Some(NodeId(1))), NodeId(2));
    }

    #[test]
    fn lowest_alive_falls_back_to_me_when_all_suspected() {
        let fd = suspecting(3, 4, &[0, 1, 2, 3]);
        assert_eq!(fd.lowest_alive(None), NodeId(3));
        assert_eq!(fd.lowest_alive(Some(NodeId(3))), NodeId(3));
    }

    #[test]
    fn next_alive_after_wraps_around() {
        // Suspect is the last node: the scan must wrap to node 0.
        let fd = suspecting(1, 4, &[3]);
        assert_eq!(fd.next_alive_after(NodeId(3)), NodeId(0));
        // A dead node right after the suspect is skipped, wrapping on.
        let fd = suspecting(0, 4, &[1, 3]);
        assert_eq!(fd.next_alive_after(NodeId(3)), NodeId(0));
        assert_eq!(fd.next_alive_after(NodeId(0)), NodeId(2));
    }

    #[test]
    fn next_alive_after_never_returns_the_suspect() {
        // The suspect may still be unsuspected here (adoption can race
        // the detector); it must not adopt from itself.
        let fd = suspecting(0, 3, &[]);
        assert_eq!(fd.next_alive_after(NodeId(1)), NodeId(2));
        // Only the suspect itself is unsuspected: the scan wraps the
        // whole ring without ever yielding the suspect, then falls
        // back to me.
        let fd = suspecting(2, 3, &[0, 2]);
        assert_eq!(fd.next_alive_after(NodeId(1)), NodeId(2));
    }

    #[test]
    fn all_suspected_falls_back_to_me() {
        let fd = suspecting(1, 3, &[0, 1, 2]);
        assert_eq!(fd.next_alive_after(NodeId(0)), NodeId(1));
        assert_eq!(fd.next_alive_after(NodeId(1)), NodeId(1));
    }

    #[test]
    fn mark_workload_dead_suspects_exactly_that_peer() {
        let mut fd = suspecting(0, 3, &[2]);
        assert!(!fd.is_suspected(NodeId(0)));
        assert!(!fd.is_suspected(NodeId(1)));
        assert!(fd.is_suspected(NodeId(2)));
        assert_eq!(fd.suspected(), vec![NodeId(2)]);
        assert!(!fd.mark_workload_dead(NodeId(2)), "already suspected");
    }

    /// A heartbeat region as a detector READ returns it.
    fn region_image(beats: u64, queries: u64) -> Vec<u8> {
        [beats.to_le_bytes(), queries.to_le_bytes()].concat()
    }

    #[test]
    fn the_read_carries_the_executed_queries_and_keeps_their_maximum() {
        let mut fd = FailureDetector::new(NodeId(0), 2, RegionId(0), 3);
        for (i, (beats, queries)) in [(1, 5), (2, 9), (3, 0)].into_iter().enumerate() {
            let wr = WrId(i as u64);
            fd.inflight.insert(wr, NodeId(1));
            assert!(fd.owns(wr));
            fd.on_completion(SimTime(i as u64 * 10_000), wr, Some(&region_image(beats, queries)));
            assert!(!fd.owns(wr));
        }
        // The zeroed word a crash-restart leaves does not undo a count.
        assert_eq!(fd.queries_done(NodeId(1)), 9);
    }

    #[test]
    fn silent_peer_reads_show_its_published_query_count() {
        let mut sim = cluster(3, &[2]);
        sim.with_app_ctx(NodeId(2), |app, ctx| app.hb.publish_queries(ctx, 42));
        sim.run_for(SimDuration::millis(2));
        for n in 0..2 {
            let fd = &sim.app(NodeId(n)).fd;
            assert!(fd.is_suspected(NodeId(2)));
            assert_eq!(fd.queries_done(NodeId(2)), 42);
            assert_eq!(fd.queries_done(NodeId(1 - n)), 0);
        }
    }

    #[test]
    fn burst_of_stale_reads_counts_once() {
        // Reads completing within the min sample gap carry no new
        // information and must not escalate to a suspicion by
        // themselves (regression for partition-heal read bursts).
        let mut fd = FailureDetector::new(NodeId(0), 2, RegionId(0), 3)
            .with_min_sample_gap(SimDuration::micros(5));
        let value = region_image(7, 0);
        // Seed a counted sample with a fresh value at t=10us.
        fd.inflight.insert(WrId(0), NodeId(1));
        assert_eq!(fd.on_completion(SimTime(10_000), WrId(0), Some(&value[..])), None);
        // A burst of identical values inside one gap: counted once.
        for (i, dt) in [100u64, 200, 300, 400].iter().enumerate() {
            let wr = WrId(1 + i as u64);
            fd.inflight.insert(wr, NodeId(1));
            assert_eq!(
                fd.on_completion(SimTime(10_000 + dt), wr, Some(&value[..])),
                None,
                "burst read {i} must not escalate"
            );
        }
        assert!(!fd.is_suspected(NodeId(1)));
        // Properly spaced unchanged samples do escalate.
        for i in 0..3u64 {
            let wr = WrId(10 + i);
            fd.inflight.insert(wr, NodeId(1));
            let at = SimTime(20_000 + i * 6_000);
            let got = fd.on_completion(at, wr, Some(&value[..]));
            if i == 2 {
                assert_eq!(got, Some(FdEvent::Suspected(NodeId(1))));
            } else {
                assert_eq!(got, None);
            }
        }
    }
}
