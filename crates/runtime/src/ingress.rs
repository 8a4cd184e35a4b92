//! Flat-combining client ingress: many sessions, one combiner.
//!
//! A replica that drives a single closed-loop client loop is bounded by
//! one issuing stream per node — nowhere near "thousands of users per
//! replica". Flat combining (node-replication style) fixes this without
//! concurrency inside the replica: each node owns an [`Ingress`]
//! holding a slot array of [`ClientSession`]s, and the replica's pump
//! acts as the *combiner* — each iteration it drains whichever sessions
//! can act, routes their operations through the normal protocol paths
//! (REDUCE/FREE/CONF), and the whole burst lands in the write-combined
//! [`RingWriter`](crate::rings::RingWriter) appends that already
//! amortize doorbells. Completions fan back per session
//! ([`Ingress::on_ack`]), so per-user latency and throughput stay
//! observable even though the fabric only ever sees combined batches.
//!
//! Determinism: on the simulator every session is a seeded RNG stream
//! (a splitmix64 chain over the workload seed, the node, and the
//! session index — see [`session_seed`]) and the combiner visits
//! sessions in deterministic round-robin order, so whole-run traces
//! are reproducible byte-for-byte. The parity tests pin whole runs
//! against golden trace fingerprints.
//!
//! Quotas stay *node-level* (the §5 split of
//! [`QuotaSplit`]): sessions share the
//! node's update/query budget and differ only in pacing, so adding
//! sessions changes concurrency, not the workload. The node also caps
//! total in-flight calls at the backup ring size — backup slots are
//! indexed `call_id % backup_slots`, and the cap keeps two live calls
//! from ever sharing a slot no matter how many sessions pile in.

use hamband_core::coord::{mix64, CoordSpec, GroupMapper, MethodCategory};
use hamband_core::ids::{GroupId, MethodId};
use hamband_core::object::{KeySkew, ObjectSpec, WorkloadSupport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::{SimDuration, SimTime};

use crate::driver::{Planned, QuotaSplit, WorkloadSpec};

/// What one combining step yields: the session that acted and its
/// planned call.
pub type SessionPlan<O> = (u32, Planned<<O as ObjectSpec>::Update, <O as ObjectSpec>::Query>);

/// After this many consecutive idle planning attempts with pending but
/// ungeneratable quota, the ingress forfeits the remainder (e.g. a
/// remove-only tail on an empty set). At one attempt per poll this is
/// on the order of a millisecond of virtual time.
const FORFEIT_AFTER: u64 = 2_000;

/// How many times a conflicting-call generation is redrawn when its
/// shard key routes to a mapped group this node does not lead (clients
/// route to their shard's leader). With a random key the acceptance
/// chance per draw is ≥ 1/n, so 32 tries fail with probability < 1e-4
/// even on large clusters; exhaustion is treated as a dry generator.
/// At `sync_shards = 1` a candidate method's only shard is locally led,
/// so the first draw always routes and no extra RNG is consumed.
const ROUTE_TRIES: usize = 32;

/// RNG seed of session `s` on `node`: a splitmix64 chain over
/// `(seed, node, session)`.
///
/// The previous scheme —
/// `seed ^ node·0x9e3779b97f4a7c15 ^ s·0xff51afd7ed558ccd` — was a xor
/// of per-coordinate *linear* terms, so distinct `(node, session)`
/// pairs whose terms xor to the same value fed identical RNG streams
/// (e.g. any pair of nodes whose constant-multiples differ by the same
/// xor as a pair of session-multiples). Chaining through the
/// [`mix64`] finalizer avalanches each coordinate before the next is
/// folded in, which removes the structural collisions.
fn session_seed(seed: u64, node: usize, session: u64) -> u64 {
    let mut h = mix64(seed);
    h = mix64(h ^ node as u64);
    mix64(h ^ session)
}

/// Open-loop client arrivals: a Poisson process at the node's share of
/// the configured offered load, generated lazily and *independent of
/// completions*.
///
/// The combiner releases due arrivals each pump
/// ([`Ingress::release_arrivals`]); [`Ingress::next`] only plans a
/// call while a released arrival is waiting, and the pump takes the
/// arrival timestamp ([`Ingress::take_arrival`]) to stamp the call's
/// `issued_at` — so a call that waited in the arrival queue (windows
/// full, replica busy) is charged its queueing delay. Generation stops
/// after the node's op budget, so the backlog is bounded by the
/// workload size even when the offered load exceeds capacity.
#[derive(Debug)]
struct OpenLoop {
    rng: StdRng,
    /// Mean inter-arrival gap at this node, nanoseconds.
    mean_gap_ns: f64,
    /// The next (not yet due) arrival time.
    next_at: SimTime,
    /// Released arrivals waiting to be issued, in arrival order.
    pending: std::collections::VecDeque<SimTime>,
    /// Arrivals still to generate (the node's op budget).
    remaining: u64,
}

impl OpenLoop {
    /// Sample one exponential inter-arrival gap (≥ 1 ns so time always
    /// advances).
    fn gap(&mut self) -> SimDuration {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        SimDuration((-self.mean_gap_ns * (1.0 - u).ln()).max(1.0) as u64)
    }
}

/// Per-session completion accounting, maintained by the combiner's
/// fan-back. Cheap by design (counters, no histograms): it must scale
/// to tens of thousands of sessions per node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Update calls this session issued.
    pub issued: u64,
    /// Update calls acknowledged back to this session.
    pub acked: u64,
    /// Update calls aborted (rejected or orphaned by a deposed leader).
    pub aborted: u64,
    /// Queries this session executed.
    pub queries: u64,
    /// Sum of acked-update response times, nanoseconds.
    pub sum_rt_ns: u64,
    /// Largest acked-update response time, nanoseconds.
    pub max_rt_ns: u64,
}

impl SessionStats {
    /// Operations completed by this session (acked updates + queries).
    pub fn completed(&self) -> u64 {
        self.acked + self.queries
    }

    /// Mean acked-update response time, microseconds (0 if none).
    pub fn mean_rt_us(&self) -> f64 {
        if self.acked == 0 {
            0.0
        } else {
            self.sum_rt_ns as f64 / self.acked as f64 / 1_000.0
        }
    }
}

/// One client session slot: a seeded op stream with its own closed-loop
/// window and completion stats. Owned by the [`Ingress`]; the combiner
/// (the replica pump) is the only code that touches it.
#[derive(Debug)]
pub struct ClientSession {
    rng: StdRng,
    /// Updates this session has in flight.
    outstanding: usize,
    /// Max outstanding updates for this session.
    window: usize,
    stats: SessionStats,
}

impl ClientSession {
    /// This session's completion stats.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Updates this session currently has in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

/// The per-node flat-combining ingress: session slots plus the node's
/// quota state. The replica pump calls [`Ingress::next`] in a loop each
/// iteration (the combining drain) and fans completions back through
/// [`Ingress::on_ack`] / [`Ingress::on_abort`].
#[derive(Debug)]
pub struct Ingress {
    node: usize,
    /// Key-shard routing: sync group × shard key → mapped engine group.
    mapper: GroupMapper,
    sessions: Vec<ClientSession>,
    /// Round-robin combining order (session indices; front is next).
    rotation: std::collections::VecDeque<u32>,
    /// Remaining local query quota (node-level, shared by sessions).
    queries_left: u64,
    initial_queries: u64,
    /// Remaining local update quota per conflict-free method.
    free_left: Vec<u64>,
    initial_free: Vec<u64>,
    /// Global conflicting quota per sync group (consumed by leaders;
    /// progress is measured against the group ring's appended count).
    conf_target: Vec<u64>,
    /// Updates in flight across all sessions.
    inflight: usize,
    /// Node-level in-flight cap: min(Σ session windows, backup slots).
    inflight_cap: usize,
    /// Hard ceiling from the backup ring (survives window adoption).
    max_inflight: usize,
    /// Key-popularity skew handed to state-aware generators.
    skew: KeySkew,
    /// Sequence for fresh identifiers handed to generators
    /// (node-level, so e.g. OR-set tags stay collision-free across
    /// sessions).
    next_seq: u64,
    /// Consecutive fully-idle planning attempts that produced nothing.
    dry_streak: u64,
    /// Halted by failure injection: stop issuing.
    halted: bool,
    /// Open-loop arrival process (`None` = classic closed loop).
    open_loop: Option<OpenLoop>,
    /// Scratch of [`next`](Ingress::next), kept for its capacity: the
    /// update methods with quota left, and the ones not yet tried.
    candidates: Vec<(MethodId, u64)>,
    tries: Vec<(MethodId, u64)>,
}

impl Ingress {
    /// Build the ingress for `node` of `n`: the §5 quota split plus one
    /// seeded [`ClientSession`] per `spec.sessions`. `max_inflight`
    /// bounds total in-flight calls (pass the backup-ring slot count;
    /// backends without backup slots pass `usize::MAX`).
    pub fn new(
        spec: &WorkloadSpec,
        coord: &CoordSpec,
        mapper: GroupMapper,
        node: usize,
        n: usize,
        max_inflight: usize,
    ) -> Self {
        assert!(max_inflight >= 1, "need room for at least one in-flight call");
        let split = QuotaSplit::for_node(spec, coord, node, n);
        let sessions: Vec<ClientSession> = (0..spec.sessions)
            .map(|s| ClientSession {
                rng: StdRng::seed_from_u64(session_seed(spec.seed, node, s as u64)),
                outstanding: 0,
                window: spec.window,
                stats: SessionStats::default(),
            })
            .collect();
        let total_window: usize = sessions.iter().map(|s| s.window).sum();
        let open_loop = spec.offered_load.map(|rate| {
            // The cluster-wide rate splits evenly across nodes; the
            // budget caps generation at the node's §5 op share (global
            // conflicting quota included — over-releasing merely
            // leaves arrivals unconsumed once quotas are spent).
            let budget = split.queries
                + split.free.iter().sum::<u64>()
                + split.conf_target.iter().sum::<u64>();
            let mut ol = OpenLoop {
                rng: StdRng::seed_from_u64(session_seed(spec.seed, node, u64::MAX)),
                mean_gap_ns: 1e9 * n as f64 / rate,
                next_at: SimTime::ZERO,
                pending: std::collections::VecDeque::new(),
                remaining: budget,
            };
            ol.next_at = SimTime::ZERO + ol.gap();
            ol
        });
        Ingress {
            node,
            mapper,
            rotation: (0..sessions.len() as u32).collect(),
            sessions,
            queries_left: split.queries,
            initial_queries: split.queries,
            initial_free: split.free.clone(),
            free_left: split.free,
            conf_target: split.conf_target,
            inflight: 0,
            inflight_cap: total_window.min(max_inflight),
            max_inflight,
            skew: spec.skew,
            next_seq: 0,
            dry_streak: 0,
            halted: false,
            open_loop,
            candidates: Vec::new(),
            tries: Vec::new(),
        }
    }

    /// Release every open-loop arrival due at `now` (no-op for closed
    /// loops). The combiner calls this at the top of each pump.
    pub fn release_arrivals(&mut self, now: SimTime) {
        let Some(ol) = self.open_loop.as_mut() else { return };
        while ol.remaining > 0 && ol.next_at <= now {
            ol.pending.push_back(ol.next_at);
            ol.remaining -= 1;
            let gap = ol.gap();
            ol.next_at += gap;
        }
    }

    /// Take the oldest released arrival's timestamp (the pump calls
    /// this once per planned call to stamp `issued_at`). `None` for
    /// closed loops.
    pub fn take_arrival(&mut self) -> Option<SimTime> {
        self.open_loop.as_mut().and_then(|ol| ol.pending.pop_front())
    }

    /// Released arrivals currently waiting to be issued.
    pub fn arrival_backlog(&self) -> usize {
        self.open_loop.as_ref().map_or(0, |ol| ol.pending.len())
    }

    /// Number of session slots.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// The session slots (stats, windows) for harness accounting.
    pub fn sessions(&self) -> &[ClientSession] {
        &self.sessions
    }

    /// Snapshot of every session's completion stats.
    pub fn session_stats(&self) -> Vec<SessionStats> {
        self.sessions.iter().map(|s| s.stats).collect()
    }

    /// Remaining global conflicting quota of *sync group* `g`, given
    /// how many entries its rings already carry (summed over the
    /// group's shards when `sync_shards > 1`).
    pub fn conf_remaining(&self, g: usize, ring_appended: u64) -> u64 {
        self.conf_target[g].saturating_sub(ring_appended)
    }

    /// The shard mapper this ingress routes conflicting calls through.
    pub fn mapper(&self) -> GroupMapper {
        self.mapper
    }

    /// The conflict-free quota method `m` started with at this node.
    pub fn initial_free_quota(&self, m: usize) -> u64 {
        self.initial_free[m]
    }

    /// The query quota this node started with.
    pub fn initial_queries(&self) -> u64 {
        self.initial_queries
    }

    /// Stop issuing (the node was "failed" by the fault plan).
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Whether the ingress was halted.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Adopt part of a failed peer's conflict-free quota ("after a
    /// failure, all the requests of the failed node are redirected to
    /// the next available node"). The adopter also takes over the
    /// failed clients' pipelining: every session's window doubles — the
    /// node now serves two client populations.
    pub fn adopt_free_quota(&mut self, per_method: &[u64], queries: u64) {
        for (m, extra) in per_method.iter().enumerate() {
            self.free_left[m] += extra;
        }
        self.queries_left += queries;
        for s in &mut self.sessions {
            s.window *= 2;
        }
        let total_window: usize = self.sessions.iter().map(|s| s.window).sum();
        self.inflight_cap = total_window.min(self.max_inflight);
        self.dry_streak = 0;
    }

    /// An update of `session` was acknowledged after `rt_ns`
    /// nanoseconds: free its window slot and record the latency.
    pub fn on_ack(&mut self, session: u32, rt_ns: u64) {
        self.inflight = self.inflight.saturating_sub(1);
        let s = &mut self.sessions[session as usize];
        s.outstanding = s.outstanding.saturating_sub(1);
        s.stats.acked += 1;
        s.stats.sum_rt_ns = s.stats.sum_rt_ns.saturating_add(rt_ns);
        s.stats.max_rt_ns = s.stats.max_rt_ns.max(rt_ns);
    }

    /// An outstanding update of `session` failed permanently (rejected
    /// or orphaned by a deposed leader): free its slot without
    /// restoring quota.
    pub fn on_abort(&mut self, session: u32) {
        self.inflight = self.inflight.saturating_sub(1);
        let s = &mut self.sessions[session as usize];
        s.outstanding = s.outstanding.saturating_sub(1);
        s.stats.aborted += 1;
    }

    /// Whether every local quota is spent and nothing is in flight.
    /// (Conflicting quotas are global; the harness checks them against
    /// the rings.)
    pub fn local_done(&self) -> bool {
        self.halted
            || (self.queries_left == 0
                && self.free_left.iter().all(|&x| x == 0)
                && self.inflight == 0)
    }

    /// Updates currently in flight across all sessions.
    pub fn outstanding(&self) -> usize {
        self.inflight
    }

    /// Combine one step: pick the next session that can act (round
    /// robin) and plan its call. Returns the session index with the
    /// plan, or `None` when no session can issue right now (windows
    /// full, quotas spent, or the generators have nothing valid in this
    /// state).
    ///
    /// `is_leader_of[g]` and `ring_appended[g]` are indexed by *mapped*
    /// group (sync group × shard) and gate the conflicting quota;
    /// `state` lets generators produce context-sensitive calls.
    pub fn next<O: WorkloadSupport>(
        &mut self,
        spec: &O,
        state: &O::State,
        coord: &CoordSpec,
        is_leader_of: &[bool],
        ring_appended: &[u64],
    ) -> Option<SessionPlan<O>> {
        if self.halted {
            return None;
        }
        // Open loop: only plan while a released arrival is waiting —
        // the client population, not the window state, decides when
        // work exists.
        if self.open_loop.as_ref().is_some_and(|ol| ol.pending.is_empty()) {
            return None;
        }
        // Candidate update methods with remaining quota (node-level).
        self.candidates.clear();
        let mut updates_left = 0u64;
        for m in 0..coord.method_count() {
            let left = match coord.category(MethodId(m)) {
                MethodCategory::Conflicting { sync_group } => {
                    // A node that leads any shard of the group may
                    // issue; quota is measured against the sum of the
                    // group's shard rings.
                    let shards = self.mapper.shard_range(sync_group);
                    if shards.clone().any(|g| is_leader_of[g]) {
                        let appended: u64 = shards.map(|g| ring_appended[g]).sum();
                        self.conf_remaining(sync_group.index(), appended)
                    } else {
                        0
                    }
                }
                _ => self.free_left[m],
            };
            if left > 0 {
                self.candidates.push((MethodId(m), left));
                updates_left += left;
            }
        }
        let node_can_update = updates_left > 0 && self.inflight < self.inflight_cap;
        let can_query = self.queries_left > 0;
        if !node_can_update && !can_query {
            // O(1) early-out: no session scan when the node can't act.
            return None;
        }
        // Round-robin over the slot array: the first session with a
        // free window slot (or a query budget) acts; window-full
        // sessions are skipped without consuming their RNG stream.
        for _ in 0..self.rotation.len() {
            let sid = *self.rotation.front().expect("rotation non-empty");
            let s = sid as usize;
            let can_update = node_can_update && self.sessions[s].outstanding < self.sessions[s].window;
            if !can_update && !can_query {
                self.rotation.rotate_left(1);
                continue;
            }
            // Choose update vs query proportional to remaining quotas
            // so the mix stays uniform over the run.
            let pick_update = match (can_update, can_query) {
                (true, false) => true,
                (false, true) => false,
                _ => {
                    let total = updates_left + self.queries_left;
                    self.sessions[s].rng.gen_range(0..total) < updates_left
                }
            };
            if !pick_update {
                self.queries_left -= 1;
                self.dry_streak = 0;
                let sess = &mut self.sessions[s];
                sess.stats.queries += 1;
                let q = spec.sample_query(&mut sess.rng);
                self.rotation.rotate_left(1);
                return Some((sid, Planned::Query(q)));
            }
            // Weighted method choice by remaining quota; fall back to
            // other methods when the generator has no valid call in
            // this state.
            self.tries.clone_from(&self.candidates);
            while !self.tries.is_empty() {
                let total: u64 = self.tries.iter().map(|&(_, w)| w).sum();
                let mut pick = self.sessions[s].rng.gen_range(0..total);
                let idx = self
                    .tries
                    .iter()
                    .position(|&(_, w)| {
                        if pick < w {
                            true
                        } else {
                            pick -= w;
                            false
                        }
                    })
                    .expect("weighted pick in range");
                let (method, _) = self.tries.swap_remove(idx);
                let seq = self.next_seq;
                let node = self.node;
                let skew = self.skew;
                // A conflicting call must land on a shard this node
                // leads: redraw the generation (a fresh key) until it
                // routes. Non-conflicting methods accept the first
                // draw, as does sync_shards = 1 (the method was only a
                // candidate because its sole shard is locally led).
                let route_group = match coord.category(method) {
                    MethodCategory::Conflicting { sync_group } => Some(sync_group),
                    _ => None,
                };
                let mut generated = None;
                for _ in 0..ROUTE_TRIES {
                    let sess = &mut self.sessions[s];
                    let Some(u) =
                        spec.gen_update(state, node, seq, method, &mut sess.rng, skew)
                    else {
                        break;
                    };
                    let routes = match route_group {
                        Some(sg) => is_leader_of[self.mapper.group_of(sg, spec.shard_key(&u))],
                        None => true,
                    };
                    if routes {
                        generated = Some(u);
                        break;
                    }
                }
                if let Some(u) = generated {
                    self.next_seq += 1;
                    self.charge(coord, method);
                    self.inflight += 1;
                    let sess = &mut self.sessions[s];
                    sess.outstanding += 1;
                    sess.stats.issued += 1;
                    self.dry_streak = 0;
                    self.rotation.rotate_left(1);
                    return Some((sid, Planned::Update(u)));
                }
            }
            // No method has a valid call in this state. The state is
            // shared, so every other session would come up dry too: end
            // the combining round. Give up on quota that stays
            // ungeneratable for a long time, so impossible workload
            // tails terminate the run.
            if self.inflight == 0 {
                self.dry_streak += 1;
                if self.dry_streak >= FORFEIT_AFTER {
                    self.free_left.fill(0);
                    let mapper = self.mapper;
                    for (sg, target) in self.conf_target.iter_mut().enumerate() {
                        let shards = mapper.shard_range(GroupId(sg));
                        let leads =
                            shards.clone().any(|g| is_leader_of.get(g).copied().unwrap_or(false));
                        if leads {
                            let appended: u64 =
                                shards.filter_map(|g| ring_appended.get(g).copied()).sum();
                            *target = (*target).min(appended);
                        }
                    }
                }
            }
            return None;
        }
        // Every session's window is full and there are no queries left.
        None
    }

    fn charge(&mut self, coord: &CoordSpec, method: MethodId) {
        match coord.category(method) {
            MethodCategory::Conflicting { .. } => {
                // Global quota is measured against the ring; nothing to
                // decrement locally.
            }
            _ => {
                self.free_left[method.index()] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::demo::Account;

    fn account_coord() -> CoordSpec {
        Account::default().coord_spec()
    }

    #[test]
    fn window_limits_outstanding_per_session() {
        let acc = Account::new(10);
        let coord = account_coord();
        let w = WorkloadSpec::ops(10_000).with_update_ratio(1.0).with_window(4);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        let state = 1_000i128;
        let mut issued = 0;
        while let Some((_, p)) = ing.next(&acc, &state, &coord, &[true], &[issued]) {
            match p {
                Planned::Update(_) => issued += 1,
                Planned::Query(_) => {}
            }
            if ing.outstanding() == 4 {
                break;
            }
        }
        assert_eq!(ing.outstanding(), 4);
        assert!(ing.next(&acc, &state, &coord, &[true], &[issued]).is_none());
        ing.on_ack(0, 1_000);
        assert!(ing.next(&acc, &state, &coord, &[true], &[issued]).is_some());
    }

    #[test]
    fn sessions_multiply_inflight_up_to_backup_cap() {
        let acc = Account::new(10);
        let coord = account_coord();
        let state = 1_000i128;
        // 8 sessions × window 4 = 32 in flight; cap at 64 is slack.
        let w = WorkloadSpec::ops(10_000).with_update_ratio(1.0).with_sessions(8).with_window(4);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        let mut issued = 0;
        while let Some((_, p)) = ing.next(&acc, &state, &coord, &[true], &[issued]) {
            if let Planned::Update(_) = p {
                issued += 1;
            }
        }
        assert_eq!(ing.outstanding(), 32);
        // 1000 sessions × window 4 would be 4000: the backup ring caps
        // the node at 64 so backup slots never collide.
        let w = WorkloadSpec::ops(100_000)
            .with_update_ratio(1.0)
            .with_sessions(1_000)
            .with_window(4);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        let mut issued = 0;
        while let Some((_, p)) = ing.next(&acc, &state, &coord, &[true], &[issued]) {
            if let Planned::Update(_) = p {
                issued += 1;
            }
        }
        assert_eq!(ing.outstanding(), 64);
    }

    #[test]
    fn combining_order_is_round_robin_and_deterministic() {
        let acc = Account::new(10);
        let coord = account_coord();
        let w = WorkloadSpec::ops(10_000).with_update_ratio(1.0).with_sessions(3).with_window(2);
        let order = |seed: u64| {
            let mut ing = Ingress::new(&w.clone().with_seed(seed), &coord, GroupMapper::identity(&coord), 0, 1, 64);
            let mut order = Vec::new();
            let state = 1_000i128;
            while let Some((sid, _)) = ing.next(&acc, &state, &coord, &[true], &[0]) {
                order.push(sid);
                if order.len() == 6 {
                    break;
                }
            }
            order
        };
        // Sessions act strictly round-robin while all have window room.
        assert_eq!(order(1), vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(order(1), order(1), "same seed, same combining order");
    }

    #[test]
    fn window_full_session_is_skipped_not_stalled() {
        let acc = Account::new(10);
        let coord = account_coord();
        let w = WorkloadSpec::ops(10_000).with_update_ratio(1.0).with_sessions(2).with_window(1);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        let state = 1_000i128;
        let (s1, _) = ing.next(&acc, &state, &coord, &[true], &[0]).expect("first");
        let (s2, _) = ing.next(&acc, &state, &coord, &[true], &[0]).expect("second");
        assert_ne!(s1, s2);
        assert!(ing.next(&acc, &state, &coord, &[true], &[0]).is_none(), "both windows full");
        ing.on_ack(s2, 500);
        let (s3, _) = ing.next(&acc, &state, &coord, &[true], &[0]).expect("slot freed");
        assert_eq!(s3, s2, "only the acked session has room");
    }

    #[test]
    fn non_leader_cannot_issue_conflicting() {
        let acc = Account::new(10);
        let coord = account_coord();
        let w = WorkloadSpec::ops(100).with_update_ratio(1.0).with_window(64);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        let state = 1_000i128;
        let mut saw_withdraw = false;
        while let Some((s, p)) = ing.next(&acc, &state, &coord, &[false], &[0]) {
            if let Planned::Update(u) = p {
                assert!(matches!(u, hamband_core::demo::AccountUpdate::Deposit(_)));
                saw_withdraw |= matches!(u, hamband_core::demo::AccountUpdate::Withdraw(_));
                ing.on_ack(s, 100);
            }
        }
        assert!(!saw_withdraw);
    }

    #[test]
    fn halt_stops_issuing() {
        let acc = Account::new(10);
        let coord = account_coord();
        let w = WorkloadSpec::ops(100);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        ing.halt();
        assert!(ing.local_done());
        assert!(ing.next(&acc, &0i128, &coord, &[true], &[0]).is_none());
    }

    #[test]
    fn adoption_extends_quota_and_windows() {
        let coord = account_coord();
        let w = WorkloadSpec::ops(400).with_update_ratio(1.0).with_sessions(2);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 2, 64);
        let before = ing.free_left[0];
        ing.adopt_free_quota(&[10, 0], 5);
        assert_eq!(ing.free_left[0], before + 10);
        assert!(ing.sessions().iter().all(|s| s.window == 16), "windows doubled");
        assert_eq!(ing.inflight_cap, 32);
    }

    #[test]
    fn generator_dry_state_returns_none_without_burning_quota() {
        let acc = Account::new(10);
        let coord = account_coord();
        // Pure withdraw workload at zero balance: generator yields None.
        let w = WorkloadSpec::ops(10).with_update_ratio(1.0);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        ing.free_left[0] = 0; // no deposits
        let state = 0i128;
        assert_eq!(ing.next(&acc, &state, &coord, &[true], &[0]), None);
        assert_eq!(ing.outstanding(), 0);
    }

    #[test]
    fn session_seeds_never_collide_across_nodes_and_sessions() {
        // Regression for the xor-of-linear-terms seeding: distinct
        // (node, session) pairs could feed identical RNG streams. The
        // splitmix64 chain must give every pair its own seed across a
        // realistically large grid, for several base seeds.
        let mut seen = std::collections::HashSet::new();
        for base in [0u64, 1, 0x5eed, u64::MAX] {
            for node in 0..16usize {
                for session in 0..256u64 {
                    assert!(
                        seen.insert(session_seed(base, node, session)),
                        "seed collision at base={base:#x} node={node} session={session}"
                    );
                }
            }
            seen.clear();
        }
    }

    #[test]
    fn sharded_routing_only_issues_locally_led_keys() {
        use hamband_types::bank::{Bank, BankUpdate, WITHDRAW};
        let bank = Bank::new(64, 50);
        let coord = bank.coord_spec();
        let mapper = GroupMapper::new(&coord, 4);
        // Withdraw-only workload; this node leads only shard 2.
        let w = WorkloadSpec::ops(2_000).with_update_ratio(1.0).with_window(64);
        let mut ing = Ingress::new(&w, &coord, mapper, 0, 1, 64);
        ing.free_left.fill(0);
        let mut state = bank.initial();
        for a in 0..64 {
            bank.apply_mut(&mut state, &BankUpdate::OpenAccounts(vec![a]));
            bank.apply_mut(&mut state, &BankUpdate::Deposit(a, 40));
        }
        let mut leads = vec![false; mapper.group_count()];
        leads[2] = true;
        let appended = vec![0u64; mapper.group_count()];
        let mut issued = 0;
        while let Some((s, p)) = ing.next(&bank, &state, &coord, &leads, &appended) {
            if let Planned::Update(u) = p {
                let key = bank.shard_key(&u).expect("withdraw has a key");
                assert_eq!(
                    mapper.group_of(coord.sync_group(WITHDRAW).unwrap(), Some(key)),
                    2,
                    "issued {u:?} routed off the led shard"
                );
                issued += 1;
                ing.on_ack(s, 100);
            }
            if issued >= 50 {
                break;
            }
        }
        assert!(issued >= 50, "leader of one shard keeps issuing routable keys");
    }

    #[test]
    fn keyless_conflicting_calls_pin_to_shard_zero() {
        let acc = Account::new(10);
        let coord = account_coord();
        let mapper = GroupMapper::new(&coord, 4);
        let w = WorkloadSpec::ops(200).with_update_ratio(1.0).with_window(8);
        let mut ing = Ingress::new(&w, &coord, mapper, 0, 1, 64);
        ing.free_left.fill(0); // withdraw-only
        let state = 1_000i128;
        // Leading only a non-zero shard: keyless withdraws (shard 0)
        // can never route here, so nothing is issued.
        let mut leads = vec![false; 4];
        leads[3] = true;
        assert!(ing.next(&acc, &state, &coord, &leads, &[0, 0, 0, 0]).is_none());
        // Leading shard 0 issues them.
        let mut leads0 = vec![false; 4];
        leads0[0] = true;
        assert!(ing.next(&acc, &state, &coord, &leads0, &[0, 0, 0, 0]).is_some());
    }

    #[test]
    fn per_session_stats_track_acks_and_latency() {
        let acc = Account::new(10);
        let coord = account_coord();
        let w = WorkloadSpec::ops(1_000).with_update_ratio(1.0).with_sessions(2).with_window(1);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        let state = 1_000i128;
        let (a, _) = ing.next(&acc, &state, &coord, &[true], &[0]).expect("a");
        let (b, _) = ing.next(&acc, &state, &coord, &[true], &[0]).expect("b");
        ing.on_ack(a, 2_000);
        ing.on_ack(b, 4_000);
        let stats = ing.session_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.issued == 1 && s.acked == 1));
        let rts: Vec<u64> = stats.iter().map(|s| s.sum_rt_ns).collect();
        assert_eq!(rts.iter().sum::<u64>(), 6_000);
        assert!((stats[a as usize].mean_rt_us() - 2.0).abs() < 1e-9);
        assert_eq!(stats[a as usize].completed(), 1);
    }

    #[test]
    fn open_loop_gates_issue_on_released_arrivals() {
        let acc = Account::new(10);
        let coord = account_coord();
        let w = WorkloadSpec::ops(100).with_update_ratio(1.0).with_offered_load(1_000_000.0);
        let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        let state = 1_000i128;
        // No arrival has been released yet: the pump gets nothing even
        // though quota and window are wide open.
        assert!(ing.next(&acc, &state, &coord, &[true], &[0]).is_none());
        assert_eq!(ing.arrival_backlog(), 0);
        // Release everything due in the first 10ms (~10 at 1M ops/s/1 node).
        ing.release_arrivals(SimTime(10_000_000));
        let backlog = ing.arrival_backlog();
        assert!(backlog > 0, "10ms at 1M ops/s released no arrivals");
        let (_, p) = ing.next(&acc, &state, &coord, &[true], &[0]).expect("arrival pending");
        assert!(matches!(p, Planned::Update(_)));
        let at = ing.take_arrival().expect("arrival stamp");
        assert!(at <= SimTime(10_000_000), "arrival stamped in the future");
        assert_eq!(ing.arrival_backlog(), backlog - 1);
    }

    #[test]
    fn open_loop_arrivals_are_deterministic_and_budget_capped() {
        let coord = account_coord();
        let w = WorkloadSpec::ops(40).with_update_ratio(1.0).with_offered_load(2_000_000.0);
        let drain = || {
            let mut ing = Ingress::new(&w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
            // Far future: every budgeted arrival is due.
            ing.release_arrivals(SimTime(u64::MAX));
            let mut ts = Vec::new();
            while let Some(t) = ing.take_arrival() {
                ts.push(t);
            }
            ts
        };
        let a = drain();
        // Generation stops at the node's op budget — offered load far
        // beyond capacity cannot grow the backlog without bound.
        assert_eq!(a.len(), 40);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals out of order");
        assert_eq!(a, drain(), "same seed, same Poisson arrival times");
    }
}
