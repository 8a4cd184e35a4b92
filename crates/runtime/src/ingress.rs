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
//! (a splitmix64 chain over the workload seed, the node, and the session
//! index — see [`session_seed`]) its calls draw from, keys uniformly (§5);
//! the combiner visits sessions in deterministic round-robin order, so
//! whole-run traces are reproducible byte-for-byte. The parity tests pin
//! whole runs against golden trace fingerprints.
//!
//! Quotas stay *node-level* (the §5 split of
//! [`QuotaSplit`]): sessions share the
//! node's update/query budget and differ only in pacing, so adding
//! sessions changes concurrency, not the workload. The node also caps
//! total in-flight calls, however many sessions pile in: a recoverer
//! re-sends only the newest that many entries of a failed node's `F`
//! ring (`recovery.rs`).

use hamband_core::coord::{mix64, CoordSpec, GroupMapper, MethodCategory};
use hamband_core::ids::{GroupId, MethodId};
use hamband_core::object::{ObjectSpec, WorkloadSupport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdma_sim::{SimDuration, SimTime};

use crate::driver::{Planned, QuotaSplit, WorkloadSpec};

/// What one combining step yields: the session that acted and its
/// planned call.
pub type SessionPlan<O> = (u32, Planned<<O as ObjectSpec>::Update, <O as ObjectSpec>::Query>);

/// After this many consecutive idle planning attempts with pending but
/// ungeneratable quota, the ingress forfeits the remainder (e.g. a
/// remove-only tail on an empty set) and counts it
/// ([`Ingress::forfeited`]). At one attempt per poll this is on the
/// order of a millisecond of virtual time. A last resort: only quota
/// this node alone can serve is ever forfeited — its own conflict-free
/// quota and the quota of the shards it leads — so the verdict is the
/// cluster's (`workload_done` asks nobody else about that quota).
const FORFEIT_AFTER: u64 = 2_000;

/// How many times a conflicting-call generation is redrawn when its
/// shard key routes to a shard this node cannot serve (clients route to
/// their shard's leader). Every try hands the generator the next
/// fresh-identifier sequence number, so a generator that mints its key
/// from the sequence draws a different key each time. With a random
/// key the acceptance chance per draw is ≥ 1/n, so 32 tries fail with
/// probability < 1e-4 even on large clusters; exhaustion is treated as
/// a dry generator. At `sync_shards = 1` a candidate method's only
/// shard is locally led, so the first draw always routes and no extra
/// RNG is consumed.
const ROUTE_TRIES: u64 = 32;

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
}

impl SessionStats {
    /// Operations completed by this session (acked updates + queries).
    pub fn completed(&self) -> u64 {
        self.acked + self.queries
    }

    /// Mean acked-update response time, microseconds (0 if none).
    pub fn mean_rt_us(&self) -> f64 {
        crate::metrics::mean_us(self.acked, self.sum_rt_ns)
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
    /// Remaining local update quota per conflict-free method.
    free_left: Vec<u64>,
    /// Conflicting quota per *mapped* group (sync group × shard),
    /// consumed by whoever leads it; progress is that ring's appended
    /// count, which its leader knows exactly. A keyed method's quota is
    /// spread evenly over its group's shards; a keyless method's calls
    /// all pin to shard 0, so its whole quota sits there.
    conf_target: Vec<u64>,
    /// Per method: its calls carry no shard key (always `false` at
    /// `sync_shards = 1`, where it makes no difference).
    keyless: Vec<bool>,
    /// Update quota given up as ungeneratable (see [`FORFEIT_AFTER`]).
    forfeited: u64,
    /// Updates in flight across all sessions.
    inflight: usize,
    /// Node-level in-flight cap: min(Σ session windows, `max_inflight`).
    inflight_cap: usize,
    /// Hard ceiling, the recovery window (survives window adoption).
    max_inflight: usize,
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
    /// bounds total in-flight calls (pass
    /// [`MAX_IN_FLIGHT`](crate::config::MAX_IN_FLIGHT); the MSG
    /// baseline, which recovers nothing, passes `usize::MAX`). `object` is
    /// asked, once per conflicting method, whether its calls carry a
    /// shard key — a method's calls all do or all don't
    /// (`conformance.rs` holds every shipped type to that).
    pub fn new<O: WorkloadSupport>(
        object: &O,
        spec: &WorkloadSpec,
        coord: &CoordSpec,
        mapper: GroupMapper,
        node: usize,
        n: usize,
        max_inflight: usize,
    ) -> Self {
        assert!(max_inflight >= 1, "need room for at least one in-flight call");
        let split = QuotaSplit::for_node(spec, coord, node, n);
        let mut probe = StdRng::seed_from_u64(0);
        let keyless: Vec<bool> = (0..coord.method_count())
            .map(|m| {
                mapper.shards() > 1
                    && coord.category(MethodId(m)).is_conflicting()
                    && object.shard_key(&object.sample_update_of(MethodId(m), &mut probe)).is_none()
            })
            .collect();
        let shards = mapper.shards() as u64;
        let mut conf_target = vec![0u64; mapper.group_count()];
        for (sg, methods) in coord.sync_groups().iter().enumerate() {
            // The group's quota is one equal share per method.
            let per_method = split.conf_target[sg] / methods.len() as u64;
            let first = mapper.shard_range(GroupId(sg)).start;
            for m in methods {
                if keyless[m.index()] {
                    conf_target[first] += per_method;
                } else {
                    for s in 0..shards {
                        conf_target[first + s as usize] +=
                            per_method / shards + u64::from(s < per_method % shards);
                    }
                }
            }
        }
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
            let budget =
                split.queries + split.free.iter().sum::<u64>() + conf_target.iter().sum::<u64>();
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
            free_left: split.free,
            conf_target,
            keyless,
            forfeited: 0,
            inflight: 0,
            inflight_cap: total_window.min(max_inflight),
            max_inflight,
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

    /// The session slots (stats, windows) for harness accounting.
    pub fn sessions(&self) -> &[ClientSession] {
        &self.sessions
    }

    /// Snapshot of every session's completion stats.
    pub fn session_stats(&self) -> Vec<SessionStats> {
        self.sessions.iter().map(|s| s.stats).collect()
    }

    /// Remaining conflicting quota of *mapped* group `g`, given how
    /// many entries its ring already carries.
    pub fn conf_remaining(&self, g: usize, ring_appended: u64) -> u64 {
        self.conf_target[g].saturating_sub(ring_appended)
    }

    /// Update quota this node gave up as ungeneratable.
    pub fn forfeited(&self) -> u64 {
        self.forfeited
    }

    /// The shards of `sync_group` a call of method `m` can route to.
    fn reachable(&self, sync_group: GroupId, m: usize) -> std::ops::Range<usize> {
        let shards = self.mapper.shard_range(sync_group);
        if self.keyless[m] {
            shards.start..shards.start + 1
        } else {
            shards
        }
    }

    /// The shard mapper this ingress routes conflicting calls through.
    pub fn mapper(&self) -> GroupMapper {
        self.mapper
    }

    /// Stop issuing for good: the node's heartbeat was suspended, or it
    /// restarted (`rejoin.rs`; its pre-crash client sessions are gone).
    pub fn halt(&mut self) {
        self.halted = true;
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
    /// `led(g)` gates the conflicting quota of *mapped* group `g` (sync
    /// group × shard): how many entries its ring carries where this
    /// node may issue to it, `None` where it may not. `state` lets
    /// generators produce context-sensitive calls.
    pub fn next<O: WorkloadSupport>(
        &mut self,
        spec: &O,
        state: &O::State,
        coord: &CoordSpec,
        led: impl Fn(usize) -> Option<u64>,
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
        // Windows full and no queries left: nothing below could act.
        if self.inflight >= self.inflight_cap && self.queries_left == 0 {
            return None;
        }
        // Candidate update methods with remaining quota (node-level).
        self.candidates.clear();
        let mut updates_left = 0u64;
        for m in 0..coord.method_count() {
            let left = match coord.category(MethodId(m)) {
                // What is left on the shards this node leads, of those
                // the method's calls can reach: a method with nowhere
                // to go from here is no candidate (and never reads as
                // a dry generator).
                MethodCategory::Conflicting { sync_group } => self
                    .reachable(sync_group, m)
                    .filter_map(|g| led(g).map(|appended| self.conf_remaining(g, appended)))
                    .sum(),
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
            let can_update =
                node_can_update && self.sessions[s].outstanding < self.sessions[s].window;
            if !can_update && !can_query {
                self.rotate();
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
                self.rotate();
                return Some((sid, Planned::Query(q)));
            }
            // Weighted method choice by remaining quota; fall back to
            // other methods when the generator has no valid call in
            // this state. The first pick reads the candidates in
            // place: `tries` is filled only for a fallback, with what
            // the first pick left.
            let idx = weighted_pick(&mut self.sessions[s].rng, &self.candidates, updates_left);
            let mut method = self.candidates[idx].0;
            let mut generated = self.generate(spec, state, coord, &led, s, method);
            if generated.is_none() {
                self.tries.clone_from(&self.candidates);
                self.tries.swap_remove(idx);
                while generated.is_none() && !self.tries.is_empty() {
                    let total: u64 = self.tries.iter().map(|&(_, w)| w).sum();
                    let idx = weighted_pick(&mut self.sessions[s].rng, &self.tries, total);
                    method = self.tries.swap_remove(idx).0;
                    generated = self.generate(spec, state, coord, &led, s, method);
                }
            }
            if let Some(u) = generated {
                self.charge(coord, method);
                self.inflight += 1;
                let sess = &mut self.sessions[s];
                sess.outstanding += 1;
                sess.stats.issued += 1;
                self.dry_streak = 0;
                self.rotate();
                return Some((sid, Planned::Update(u)));
            }
            // No method has a valid call in this state. The state is
            // shared, so every other session would come up dry too: end
            // the combining round. Give up on quota that stays
            // ungeneratable for a long time, so impossible workload
            // tails terminate the run.
            if self.inflight == 0 {
                self.dry_streak += 1;
                if self.dry_streak >= FORFEIT_AFTER {
                    self.forfeited += self.free_left.iter().sum::<u64>();
                    self.free_left.fill(0);
                    for (g, target) in self.conf_target.iter_mut().enumerate() {
                        if let Some(appended) = led(g).filter(|&a| *target > a) {
                            self.forfeited += *target - appended;
                            *target = appended;
                        }
                    }
                }
            }
            return None;
        }
        // Every session's window is full and there are no queries left.
        None
    }

    /// Generate session `s`'s call of `method`, and advance the fresh
    /// identifiers past every one the tries minted. A conflicting call
    /// must land on a shard this node leads and that has quota left:
    /// redraw the generation (the next fresh identifier, a fresh key)
    /// until it routes. Non-conflicting methods accept the first draw,
    /// as does sync_shards = 1 (the method was only a candidate because
    /// its sole shard is locally led). `None` when the generator is dry.
    fn generate<O: WorkloadSupport>(
        &mut self,
        spec: &O,
        state: &O::State,
        coord: &CoordSpec,
        led: &impl Fn(usize) -> Option<u64>,
        s: usize,
        method: MethodId,
    ) -> Option<O::Update> {
        let route_group = match coord.category(method) {
            MethodCategory::Conflicting { sync_group } => Some(sync_group),
            _ => None,
        };
        let seq = self.next_seq;
        for t in 0..ROUTE_TRIES {
            let rng = &mut self.sessions[s].rng;
            let u = spec.gen_update(state, self.node, seq + t, method, rng)?;
            let routes = route_group.is_none_or(|sg| {
                let g = self.mapper.group_of(sg, spec.shard_key(&u));
                led(g).is_some_and(|appended| self.conf_remaining(g, appended) > 0)
            });
            if routes {
                self.next_seq = seq + t + 1;
                return Some(u);
            }
        }
        None
    }

    /// Move the front session to the back of the combining order.
    fn rotate(&mut self) {
        if self.rotation.len() > 1 {
            self.rotation.rotate_left(1);
        }
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

/// The index of a draw from `items` weighted by their quota, `total`
/// being the quotas' sum.
fn weighted_pick(rng: &mut StdRng, items: &[(MethodId, u64)], total: u64) -> usize {
    let mut pick = rng.gen_range(0..total);
    items
        .iter()
        .position(|&(_, w)| {
            if pick < w {
                true
            } else {
                pick -= w;
                false
            }
        })
        .expect("weighted pick in range")
}

#[cfg(test)]
mod tests;
