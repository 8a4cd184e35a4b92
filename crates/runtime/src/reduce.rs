//! REDUCE path: reducible calls folded into per-(group, source)
//! summaries and broadcast as append-only logs of summary records.
//!
//! Fig. 7's REDUCE rule: a reducible call is summarized with the
//! issuer's current summary for its summarization group; peers learn it
//! by polling the issuer's summary slot, which carries the per-method
//! applied counts. The slot is a log the issuer alone writes
//! (`codec.rs`): a call folds into the *pending* record, and the flush
//! at the end of every pump closes that record into the issuer's own
//! copy and posts each peer only the records its copy lacks. The
//! broadcast is write-combined: at most one summary WRITE per (group,
//! peer) channel is in flight, and once a version has landed at every
//! peer it acknowledges every call folded in up to it.
//!
//! The channel obeys the rule the rings obey — queue while handling and
//! planning, post once in the pump's flush. `issue_reduce` folds and
//! never posts; a completion finds its channel by the work request the
//! channel holds (`summary_channel`: no route is recorded per WRITE, and
//! a duplicated completion matches nothing once the channel is idle or
//! carries a later WRITE); `on_summary_write_done` frees the channel,
//! records the version that landed (`sum_landed`), acknowledges what
//! landed at every peer (`calls.rs::ack_landed`) and never reposts;
//! `flush_summaries`, at the end of every pump, closes the pending
//! record and posts the log's unsent suffix wherever a channel is idle
//! and its peer lacks the newest version. So the calls a planning pass
//! issues into the window slots a completion freed ride the very WRITE
//! that completion made room for, not the one after it (DESIGN.md §5a).
//! Because the issuer is the slot's only writer and keeps one WRITE in
//! flight per channel, it knows each peer's copy exactly: the log up to
//! `sum_sent`, or nothing past a compaction.
//!
//! A landed record costs its reader nothing until a read needs it.
//! `adopt_summaries` peeks, per peer log, record 0's version word and
//! the word at the offset it has read up to, and decodes and adopts the
//! records past that offset only where something moved, one
//! `apply_cost` per log however many records it moved by. It runs where
//! a summary's content is read: a query (`calls.rs::pump`), a call the
//! stale view rejects (`calls.rs::issue`), an entry whose `Dep(u)` is
//! unmet (`calls.rs::apply_buffered`) and a suspicion's quota adoption
//! (`recovery.rs::on_suspect`). A node with no local workload left
//! adopts at every poll, so runs converge.

use hamband_core::ids::{MethodId, Pid};
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use rdma_sim::{NodeId, TraceEvent, WrId};

use crate::calls::Path;
use crate::codec::{summary_records, summary_version, SummarySlot};
use crate::replica::{peers, HambandNode};
use crate::transport::Transport;

/// What a node holds of one (summarization group, source) log: the
/// records adopted from it since its last compaction (the source's
/// own: folded in), and where in the log that leaves the node.
#[derive(Debug, Clone)]
pub(crate) struct CachedSummary<U> {
    /// Version of the newest record adopted (own: of the newest call
    /// folded in).
    pub(crate) version: u64,
    /// Per-method applied counts as of `version`.
    pub(crate) counts: Vec<u64>,
    /// The records' summaries, oldest first; applied in order they are
    /// the source's summary. The own cache's last one is the pending
    /// record while calls wait for the flush.
    pub(crate) records: Vec<U>,
    /// Log offset past the last record adopted (a peer's log only).
    pub(crate) end: usize,
    /// Record 0's version when `end` was taken: which compaction `end`
    /// is an offset into (a peer's log only).
    pub(crate) head: u64,
}

impl<U> CachedSummary<U> {
    pub(crate) fn new(group_len: usize) -> Self {
        CachedSummary {
            version: 0,
            counts: vec![0; group_len],
            records: Vec::new(),
            end: 0,
            head: 0,
        }
    }

    /// The offset to walk a log whose record 0 has version `head` from:
    /// the end of what was adopted, 0 if record 0 changed since (a
    /// compaction), `None` if it went back (a copy older than the one
    /// adopted from).
    fn walk_from(&self, head: u64) -> Option<usize> {
        match head.cmp(&self.head) {
            std::cmp::Ordering::Less => None,
            std::cmp::Ordering::Equal => Some(self.end),
            std::cmp::Ordering::Greater => Some(0),
        }
    }
}

/// The records of a log a cache has not adopted, decoded.
pub(crate) struct Unread<U> {
    /// Whether they start at offset 0 (a compaction happened, or
    /// nothing was adopted yet) and so replace the cached records.
    from_start: bool,
    /// Record 0's version.
    head: u64,
    /// Log offset past the last of them.
    pub(crate) end: usize,
    /// The last one's version and counts.
    version: u64,
    pub(crate) counts: Vec<u64>,
    records: Vec<U>,
}

impl<U> Unread<U> {
    /// Move the records into `cache`; returns the index of the first of
    /// them in `cache.records`.
    pub(crate) fn into_cache(self, cache: &mut CachedSummary<U>) -> usize {
        if self.from_start {
            cache.records.clear();
        }
        let first = cache.records.len();
        cache.records.extend(self.records);
        (cache.version, cache.counts) = (self.version, self.counts);
        (cache.end, cache.head) = (self.end, self.head);
        first
    }
}

/// Walk the log `log` of a group of `group_len` methods from where
/// `cache` stands ([`CachedSummary::walk_from`]) and decode the records
/// it has not adopted. `None` when there is none.
pub(crate) fn unread_records<U: Wire>(
    log: &[u8],
    group_len: usize,
    cache: &CachedSummary<U>,
) -> Option<Unread<U>> {
    let head = summary_version(log);
    let from = cache.walk_from(head)?;
    let after = if from == 0 { 0 } else { cache.version };
    let (mut end, mut last, mut records) = (from, None, Vec::new());
    for record in summary_records(log.get(from..)?, group_len, after) {
        let Some(slot) = SummarySlot::<U>::from_slot(record, group_len) else { break };
        end += record.len();
        records.extend(slot.summary);
        last = Some((slot.version, slot.counts));
    }
    let (version, counts) = last.filter(|&(v, _)| v > cache.version)?;
    Some(Unread { from_start: from == 0, head, end, version, counts, records })
}

impl<O: WorkloadSupport> HambandNode<O> {
    /// REDUCE: fold into the pending record, queue the broadcast.
    /// Returns the summary version that folded the call in.
    pub(crate) fn issue_reduce<T: Transport>(
        &mut self,
        ctx: &mut T,
        update: O::Update,
        method: MethodId,
        g: usize,
    ) -> u64 {
        let me = self.me.index();
        let midx =
            self.coord.sum_groups()[g].iter().position(|&m| m == method).expect("method in group");
        // Summarize with the pending record only. A non-monotone
        // summary is one record, the whole summary, so it folds there.
        let fold = self.sum_pending[g] || !self.spec.summaries_monotone();
        let cache = &mut self.sum_cache[g][me];
        match cache.records.last_mut() {
            Some(last) if fold => {
                *last = self
                    .spec
                    .summarize(last, &update)
                    .expect("summarization group closed under summarize");
            }
            _ => cache.records.push(update.clone()),
        }
        self.sum_pending[g] = true;
        cache.version += 1;
        cache.counts[midx] += 1;
        let (version, count) = (cache.version, cache.counts[midx]);
        self.applied.set(Pid(me), method, count);
        // Local effects: the call itself lands in the views.
        self.apply_summarized(&update);
        self.metrics.last_apply = ctx.now();
        // Write-combining: the call only queues here. The pump's flush
        // closes the record and posts the log's unsent suffix on every
        // idle channel once the whole planning pass has folded in — a
        // version v landed at every peer acknowledges every call folded
        // in up to v.
        version
    }

    /// Close every pending record, then post, on each (group, peer)
    /// channel that is idle and whose peer lacks the newest version, the
    /// log's suffix that peer lacks. Called once per planning pass,
    /// after the last fold, so one WRITE per peer carries every call the
    /// pass issued and every call that folded in while the previous
    /// WRITE was in flight.
    pub(crate) fn flush_summaries<T: Transport>(&mut self, ctx: &mut T) {
        for g in 0..self.sum_log.len() {
            if self.sum_pending[g] {
                self.close_record(ctx, g);
            }
            let newest = self.sum_cache[g][self.me.index()].version;
            for q in peers(self.me, self.n) {
                let i = q.index();
                if self.sum_inflight[g][i].is_none() && self.sum_landed[g][i] < newest {
                    self.post_summary(ctx, g, q);
                }
            }
        }
    }

    /// Append the pending record of group `g` to the own log and write
    /// it into the own slot copy — what a recoverer READs, and this
    /// node's only record of its reducible calls: fenced before any
    /// remote copy leaves. A record that does not fit behind the log
    /// compacts it: one record summarizing everything at offset 0, and
    /// every peer's next post is the whole log. A non-monotone summary
    /// compacts at every record.
    fn close_record<T: Transport>(&mut self, ctx: &mut T, g: usize) {
        let size = self.layout.summary_size(g);
        let cache = &mut self.sum_cache[g][self.me.index()];
        let log = &mut self.sum_log[g];
        if !self.spec.summaries_monotone() {
            log.clear();
        }
        let mut at = log.len();
        SummarySlot::append_parts(cache.version, &cache.counts, cache.records.last(), size, log);
        if log.len() > size {
            let spec = &self.spec;
            let whole = cache
                .records
                .drain(..)
                .reduce(|a, b| spec.summarize(&a, &b).expect("summarization group closed"))
                .expect("a pending record");
            log.clear();
            at = 0;
            SummarySlot::append_parts(cache.version, &cache.counts, Some(&whole), size, log);
            cache.records.push(whole);
        }
        if at == 0 {
            self.sum_sent[g].fill(0);
        }
        let offset = self.layout.summary_offset(g, self.me) + at;
        ctx.local_write(self.layout.summaries, offset, &log[at..]);
        ctx.fence_region(self.layout.summaries);
        self.sum_pending[g] = false;
    }

    /// Post one summary WRITE to `target` of the own log from what its
    /// copy holds to the end, and mark the (group, peer) channel busy.
    /// A combined write carries records of every method of the group,
    /// so the trace event is labelled with the group's first method.
    fn post_summary<T: Transport>(&mut self, ctx: &mut T, g: usize, target: NodeId) {
        let q = target.index();
        debug_assert!(self.sum_inflight[g][q].is_none(), "one in flight per peer");
        let (log, from) = (&self.sum_log[g], self.sum_sent[g][q]);
        debug_assert!(from < log.len(), "the newest record is past what the peer holds");
        let version = self.sum_cache[g][self.me.index()].version;
        let offset = self.layout.summary_offset(g, self.me) + from;
        let wr = ctx.post_write(target, self.layout.summaries, offset, &log[from..]);
        self.sum_sent[g][q] = log.len();
        let issuer = self.me;
        ctx.emit(|| TraceEvent::SummaryWrite {
            issuer,
            target,
            method: self.coord.sum_groups()[g][0].index(),
            version,
        });
        self.sum_inflight[g][q] = Some((version, wr));
    }

    /// The (group, peer) channel whose summary WRITE in flight is `wr`.
    /// A channel holds at most one, so the channels are the route.
    pub(crate) fn summary_channel(&self, wr: WrId) -> Option<(usize, NodeId)> {
        self.sum_inflight.iter().enumerate().find_map(|(g, channels)| {
            let q = channels.iter().position(|c| matches!(*c, Some((_, w)) if w == wr))?;
            Some((g, NodeId(q)))
        })
    }

    /// The poll's REDUCE step: adopt what landed only once the node's
    /// local workload is done (halted included). Until then a read
    /// adopts what it needs.
    pub(crate) fn poll_summaries<T: Transport>(&mut self, ctx: &mut T) {
        if self.ingress.local_done() {
            self.adopt_summaries(ctx);
        }
    }

    /// Adopt the records that landed in every peer log past what was
    /// adopted from it (see [`unread_records`]), one `apply_cost` per
    /// log. Returns how many logs it adopted from.
    pub(crate) fn adopt_summaries<T: Transport>(&mut self, ctx: &mut T) -> u64 {
        let mut adopted = 0;
        for g in 0..self.sum_cache.len() {
            let (size, group_len) = (self.layout.summary_size(g), self.coord.sum_groups()[g].len());
            for node in peers(self.me, self.n) {
                let src = node.index();
                let off = self.layout.summary_offset(g, node);
                let cache = &self.sum_cache[g][src];
                // Peek two version words before walking: free on the
                // virtual clock, and an unchanged log is the common case.
                let head = summary_version(ctx.local(self.layout.summaries, off, 8));
                let Some(from) = cache.walk_from(head) else { continue };
                let next = ctx.local(self.layout.summaries, off + from, 8.min(size - from));
                if summary_version(next) <= cache.version {
                    continue;
                }
                let log = ctx.local(self.layout.summaries, off, size);
                // A torn record is tried again by the next read.
                if let Some(unread) = unread_records(log, group_len, cache) {
                    self.adopt_unread(ctx, g, src, unread);
                    adopted += 1;
                }
            }
        }
        adopted
    }

    /// Adopt `unread`, the records of `src`'s log of group `g` past the
    /// cache: charge one `apply_cost`, raise the applied counts, and
    /// fold the records into the views (`views.rs::adopt_records`).
    pub(crate) fn adopt_unread<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        src: usize,
        unread: Unread<O::Update>,
    ) {
        ctx.charge_apply();
        self.raise_applied(g, src, &unread.counts);
        // Cache first: a rebuild of `spec_mat` reads it.
        let new = unread.into_cache(&mut self.sum_cache[g][src]);
        self.adopt_records(ctx, g, src, new);
        self.metrics.summary_adoptions += 1;
        self.metrics.last_apply = ctx.now();
    }

    /// Raise the applied counts of `src`'s methods of group `g` to
    /// `counts` (a record's, in group order).
    pub(crate) fn raise_applied(&mut self, g: usize, src: usize, counts: &[u64]) {
        for (&m, &count) in self.coord.sum_groups()[g].iter().zip(counts) {
            let old = self.applied.get(Pid(src), m);
            self.applied.set(Pid(src), m, old.max(count));
        }
    }

    /// The summary WRITE in flight on `(g, target)` completed: free the
    /// channel, record the version the peer's copy now holds, and
    /// acknowledge every call folded in up to the version each peer
    /// holds. Never reposts — if the log grew past what landed, the next
    /// pump's flush posts the rest, together with whatever that pump
    /// plans into the window slots this completion frees.
    pub(crate) fn on_summary_write_done<T: Transport>(
        &mut self,
        ctx: &mut T,
        g: usize,
        target: NodeId,
    ) {
        // Summary regions never revoke write permission, so the
        // status needs no inspection (same as before combining).
        let q = target.index();
        let (version, _) = self.sum_inflight[g][q].take().expect("a summary WRITE in flight");
        // The peer's copy now holds the log up to version v, so every
        // call folded in up to v is durable there.
        self.sum_landed[g][q] = version;
        self.ack_landed(ctx, Path::Reduce(g));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Entry;
    use crate::{assemble, RunConfig, WorkloadSpec};
    use hamband_core::counts::DepMap;
    use hamband_core::demo::Account;
    use hamband_core::ids::Rid;
    use hamband_core::ObjectSpec;
    use hamband_types::bank::{Bank, BankUpdate, OPEN};
    use hamband_types::counter::{Counter, CounterUpdate, ADD};
    use hamband_types::gset::{GSet, GSetUpdate};
    use rdma_sim::{Fault, FaultPlan, LatencyModel, Phase, SimDuration, Simulator};

    use crate::RuntimeConfig;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    /// Three started Counter replicas with no workload of their own:
    /// the tests issue node 0's REDUCE calls by hand.
    fn idle_cluster() -> Simulator<HambandNode<Counter>> {
        idle_counters(3)
    }

    /// [`idle_cluster`] with `n` replicas.
    fn idle_counters(n: usize) -> Simulator<HambandNode<Counter>> {
        let c = Counter::default();
        let run = RunConfig::new(n, WorkloadSpec::ops(0)).with_seed(1);
        let (mut sim, _layout) = assemble(&c, &c.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        sim
    }

    fn add(sim: &mut Simulator<HambandNode<Counter>>, delta: i64) {
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, CounterUpdate::Add(delta), 0, None);
        });
    }

    fn flush(sim: &mut Simulator<HambandNode<Counter>>) {
        sim.with_app_ctx(N0, |app, ctx| app.flush_summaries(ctx));
    }

    /// The version of the summary WRITE in flight on each of `app`'s
    /// channels of group 0 (`None`: idle).
    fn inflight(app: &HambandNode<Counter>) -> Vec<Option<u64>> {
        app.sum_inflight[0].iter().map(|c| c.map(|(v, _)| v)).collect()
    }

    /// The summary WRITE in flight from `from` to `q`, carrying version
    /// `v`, completes.
    fn write_done(sim: &mut Simulator<HambandNode<Counter>>, from: NodeId, q: NodeId, v: u64) {
        sim.with_app_ctx(from, |app, ctx| {
            assert_eq!(
                app.sum_inflight[0][q.index()].map(|(v, _)| v),
                Some(v),
                "the WRITE in flight"
            );
            app.on_summary_write_done(ctx, 0, q);
        });
    }

    /// Versions of node 0's calls that have not landed at `q`, oldest
    /// first: its queued calls past the version `q` holds.
    fn waiting(sim: &Simulator<HambandNode<Counter>>, q: usize) -> Vec<u64> {
        let app = sim.app(N0);
        app.sum_acks[0].iter().map(|&(v, _)| v).filter(|&v| v > app.sum_landed[0][q]).collect()
    }

    #[test]
    fn idle_channel_without_waiter_posts_nothing() {
        let mut sim = idle_cluster();
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 0);
        assert_eq!(inflight(sim.app(N0)), [None; 3]);
    }

    #[test]
    fn calls_of_one_pump_share_one_write_carrying_the_latest_version() {
        let mut sim = idle_cluster();
        add(&mut sim, 1);
        add(&mut sim, 2);
        assert_eq!(sim.stats().writes, 0, "issuing only queues");
        assert_eq!(waiting(&sim, 1), [1, 2]);
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 2, "one WRITE per peer, not one per call");
        assert_eq!(inflight(sim.app(N0)), [None, Some(2), Some(2)]);
        // Both completions land, each followed by a pump with nothing
        // left to post: version 2 covered both waiters.
        sim.run_for(SimDuration::micros(5));
        let app = sim.app(N0);
        assert_eq!(inflight(app), [None; 3]);
        assert!(waiting(&sim, 1).is_empty() && waiting(&sim, 2).is_empty());
        assert_eq!(app.metrics.updates_acked, 2);
        assert!(app.sum_acks[0].is_empty());
        assert_eq!(sim.stats().writes, 2);
        assert_eq!(sim.app(NodeId(1)).state_snapshot(), 3);
        assert_eq!(sim.app(NodeId(2)).state_snapshot(), 3);
    }

    #[test]
    fn busy_channel_holds_newer_waiters_until_the_pump_after_its_completion() {
        let mut sim = idle_cluster();
        add(&mut sim, 1);
        flush(&mut sim);
        assert_eq!(inflight(sim.app(N0)), [None, Some(1), Some(1)]);
        add(&mut sim, 2);
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 2, "at most one summary WRITE in flight per channel");
        assert_eq!(waiting(&sim, 1), [1, 2]);
        // Version 1 lands at node 1. The handler frees the channel and
        // credits what landed; it does not repost.
        write_done(&mut sim, N0, NodeId(1), 1);
        assert_eq!(sim.stats().writes, 2);
        assert_eq!(inflight(sim.app(N0)), [None, None, Some(1)]);
        assert_eq!(waiting(&sim, 1), [2]);
        // The next pump's flush does, on that channel only.
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 3);
        assert_eq!(inflight(sim.app(N0)), [None, Some(2), Some(1)]);
        assert_eq!(waiting(&sim, 2), [1, 2]);
    }

    /// Four replicas: a call is acknowledged once its version has
    /// landed at every peer, whichever order the peers' completions come
    /// in, and calls are acknowledged in the order they folded in.
    #[test]
    fn a_reduce_call_is_acknowledged_once_its_version_landed_at_the_slowest_peer() {
        let mut sim = idle_counters(4);
        let acked = |sim: &Simulator<HambandNode<Counter>>| {
            let app = sim.app(N0);
            let left: Vec<u64> = app.sum_acks[0].iter().map(|&(v, _)| v).collect();
            (app.metrics.updates_acked, left)
        };
        let done = |sim: &mut Simulator<HambandNode<Counter>>, q: usize, v: u64| {
            write_done(sim, N0, NodeId(q), v);
        };
        add(&mut sim, 1);
        flush(&mut sim);
        add(&mut sim, 2);
        flush(&mut sim);
        assert_eq!(inflight(sim.app(N0)), [None, Some(1), Some(1), Some(1)]);
        // Version 1 lands at nodes 3 and 1, out of peer order: node 2
        // may still lack it, so nothing is acknowledged.
        done(&mut sim, 3, 1);
        done(&mut sim, 1, 1);
        assert_eq!(acked(&sim), (0, vec![1, 2]));
        // Their channels carry version 2 next, and it lands there too.
        flush(&mut sim);
        assert_eq!(inflight(sim.app(N0)), [None, Some(2), Some(1), Some(2)]);
        done(&mut sim, 1, 2);
        done(&mut sim, 3, 2);
        assert_eq!(acked(&sim), (0, vec![1, 2]));
        // Node 2, the slowest, gets version 1: the first call only.
        done(&mut sim, 2, 1);
        assert_eq!(acked(&sim), (1, vec![2]));
        flush(&mut sim);
        assert_eq!(inflight(sim.app(N0)), [None, None, Some(2), None]);
        done(&mut sim, 2, 2);
        assert_eq!(acked(&sim), (2, vec![]));
        flush(&mut sim);
        assert_eq!(sim.stats().writes, 6, "versions 1 and 2, once per peer");
    }

    /// Under `Fault::DuplicateCompletion` on the issuer, the first
    /// summary WRITE's completion is delivered twice, the copy after the
    /// pump the original ran, which posted the channel's next version.
    /// The copy matches no channel: it frees none, moves no `sum_landed`
    /// and acknowledges nothing.
    #[test]
    fn a_duplicated_summary_completion_frees_no_channel_and_acknowledges_nothing() {
        let mut sim = idle_counters(2);
        add(&mut sim, 1);
        flush(&mut sim);
        add(&mut sim, 2);
        let now = sim.now();
        sim.install_fault_plan(&FaultPlan::new().at(now, Fault::DuplicateCompletion(N0)));
        let seen = |sim: &Simulator<HambandNode<Counter>>| {
            let app = sim.app(N0);
            (app.sum_landed[0].clone(), inflight(app), app.metrics.updates_acked)
        };
        while seen(&sim).0 == [0, 0] {
            sim.run_for(SimDuration::nanos(10));
        }
        // Long enough for both copies to be handled, too short for
        // version 2 to land.
        sim.run_for(SimDuration::nanos(500));
        // No READ has been posted, so the duplicated completion was the
        // summary WRITE's.
        assert_eq!(sim.stats().reads, 0);
        assert_eq!(seen(&sim), (vec![0, 1], vec![None, Some(2)], 1));
        sim.run_for(SimDuration::micros(10));
        assert_eq!(seen(&sim), (vec![0, 2], vec![None; 2], 2));
        assert_eq!(sim.stats().writes, 2);
    }

    #[test]
    fn dirty_channels_drain_through_the_event_loop() {
        // The same sequence left to the simulator shell: each completion
        // is followed by a pump, whose flush reposts version 2.
        let mut sim = idle_cluster();
        add(&mut sim, 1);
        flush(&mut sim);
        add(&mut sim, 2);
        flush(&mut sim);
        sim.run_for(SimDuration::micros(10));
        assert_eq!(sim.stats().writes, 4, "versions 1 and 2, once per peer");
        let app = sim.app(N0);
        assert_eq!(inflight(app), [None; 3]);
        assert_eq!(app.metrics.updates_acked, 2);
        assert!(app.sum_acks[0].is_empty());
        assert_eq!(sim.app(NodeId(1)).state_snapshot(), 3);
        assert_eq!(sim.app(NodeId(2)).state_snapshot(), 3);
    }

    /// Copy `from`'s own slot of summarization group 0 into `to`'s copy,
    /// its pending record closed first: the flush's WRITE landing,
    /// without running the cluster (whose polls and pumps would act on
    /// it).
    fn land<O: WorkloadSupport + Clone>(
        sim: &mut Simulator<HambandNode<O>>,
        from: NodeId,
        to: NodeId,
    ) {
        sim.with_app_ctx(from, |app, ctx| {
            if app.sum_pending[0] {
                app.close_record(ctx, 0);
            }
        });
        let layout = sim.app(from).layout.clone();
        let off = layout.summary_offset(0, from);
        let slot =
            sim.region_bytes(from, layout.summaries)[off..][..layout.summary_size(0)].to_vec();
        sim.with_app_ctx(to, |_, ctx| ctx.local_write(layout.summaries, off, &slot));
    }

    fn poll<O: WorkloadSupport + Clone>(sim: &mut Simulator<HambandNode<O>>, node: NodeId) {
        sim.with_app_ctx(node, |app, ctx| app.poll_summaries(ctx));
    }

    fn pump(sim: &mut Simulator<HambandNode<Counter>>, node: NodeId) {
        sim.with_app_ctx(node, |app, ctx| app.pump(ctx));
    }

    #[test]
    fn a_node_with_quota_left_polls_past_a_landed_version_and_a_query_adopts_it_once() {
        let mut sim = idle_cluster();
        sim.app_mut(N1).ingress.adopt_free_quota(&[0], 2);
        add(&mut sim, 5);
        land(&mut sim, N0, N1);
        let seen = |sim: &Simulator<HambandNode<Counter>>| {
            let app = sim.app(N1);
            (app.sigma, app.state_snapshot(), app.applied.clone(), sim.stats().cpu_busy_ns[1])
        };
        let before = seen(&sim);
        poll(&mut sim, N1);
        assert_eq!(seen(&sim), before, "not adopted, not charged");
        // The pump runs both queries. The first reads `mat` with the landed
        // summary applied, so it adopts it; the second finds nothing new.
        pump(&mut sim, N1);
        let app = sim.app(N1);
        assert_eq!((app.metrics.queries, app.metrics.summary_adoptions), (2, 1));
        assert_eq!((app.state_snapshot(), app.applied.get(Pid(0), ADD)), (5, 1));
        let apply_cost = LatencyModel::default().apply_cost.as_nanos();
        let charged = sim.stats().cpu_busy_ns[1] - before.3;
        assert_eq!(charged, 3 * apply_cost, "one adoption and two queries");
        // The adoption is on the first query's response time.
        let rt = &app.metrics.rt_per_phase[Phase::Query.index()];
        assert_eq!((rt.sum_ns(), rt.max_ns()), (3 * apply_cost, 2 * apply_cost));
    }

    #[test]
    fn once_the_local_workload_is_done_the_next_poll_adopts() {
        let mut sim = idle_cluster();
        sim.app_mut(N1).ingress.adopt_free_quota(&[1], 0);
        add(&mut sim, 5);
        land(&mut sim, N0, N1);
        pump(&mut sim, N1);
        poll(&mut sim, N1);
        assert_eq!(sim.app(N1).metrics.summary_adoptions, 0, "its add is in flight");
        // Node 1's add lands at both peers: nothing is left to do.
        for q in [N0, NodeId(2)] {
            write_done(&mut sim, N1, q, 1);
        }
        let app = sim.app(N1);
        assert!(app.ingress.local_done() && app.metrics.summary_adoptions == 0);
        let own = app.state_snapshot();
        poll(&mut sim, N1);
        let app = sim.app(N1);
        assert_eq!(app.metrics.summary_adoptions, 1);
        assert_eq!(app.state_snapshot(), own + 5);
    }

    const ACCT: u64 = 9;

    /// Three started Bank replicas with no workload but a deposit quota
    /// at node 0, which therefore does not adopt at a poll; node 0 leads
    /// the withdraw group. Node 1 opens account 9; its slot has not
    /// landed at node 0 yet.
    fn bank_with_an_opening_at_node_1() -> Simulator<HambandNode<Bank>> {
        let bank = Bank::default();
        let run = RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1);
        let (mut sim, _layout) = assemble(&bank, &bank.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        assert!(sim.app(N0).engines[0].is_leader());
        sim.app_mut(N0).ingress.adopt_free_quota(&[0, 1, 0], 0);
        let open = BankUpdate::OpenAccounts(vec![ACCT]);
        sim.with_app_ctx(N1, |app, ctx| app.issue(ctx, open, 0, None));
        sim
    }

    #[test]
    fn a_withdraw_on_a_landed_but_unadopted_opening_is_accepted() {
        let mut sim = bank_with_an_opening_at_node_1();
        let withdraw = |sim: &mut Simulator<HambandNode<Bank>>| {
            sim.with_app_ctx(N0, |app, ctx| app.issue(ctx, BankUpdate::Withdraw(ACCT, 0), 0, None));
            let app = sim.app(N0);
            (app.metrics.rejected, app.metrics.summary_adoptions, app.calls_in_flight())
        };
        // Before the opening lands, the check has nothing to adopt.
        assert_eq!(withdraw(&mut sim), (1, 0, 0));
        land(&mut sim, N1, N0);
        poll(&mut sim, N0);
        assert_eq!(sim.app(N0).metrics.summary_adoptions, 0, "quota left: the poll adopts nothing");
        // The stale view rejects the call; the check adopts and looks again.
        assert_eq!(withdraw(&mut sim), (1, 1, 1));
    }

    #[test]
    fn a_deposit_waiting_on_a_landed_opening_applies_in_the_same_poll_pass() {
        let mut sim = bank_with_an_opening_at_node_1();
        let deposit = Entry {
            rid: Rid::new(Pid(1), 0),
            update: BankUpdate::Deposit(ACCT, 5),
            deps: DepMap::from_entries([(Pid(1), OPEN, 1)]),
        };
        let apply = |app: &mut HambandNode<Bank>, ctx: &mut rdma_sim::Ctx<'_>| {
            app.apply_buffered(ctx, &deposit, false)
        };
        assert!(!sim.with_app_ctx(N0, apply), "nothing landed: the entry waits");
        land(&mut sim, N1, N0);
        // One poll pass: the summary step adopts nothing (quota left),
        // and the ring step's apply, finding `Dep(u)` unmet, adopts it.
        let applied = sim.with_app_ctx(N0, |app, ctx| {
            app.poll_summaries(ctx);
            apply(app, ctx)
        });
        assert!(applied);
        let app = sim.app(N0);
        assert_eq!(app.metrics.summary_adoptions, 1);
        assert_eq!(app.state_snapshot().balances.get(&ACCT), Some(&5));
    }

    /// A non-monotone summary (Account's deposits: a version replaces
    /// the last) adopted while the leader has an uncommitted withdraw:
    /// `spec_mat` is rebuilt from the cache, which must already hold
    /// the new version.
    #[test]
    fn a_non_monotone_summary_reaches_the_leaders_check_view() {
        let acct = Account::default();
        let run = RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1);
        let (mut sim, _layout) = assemble(&acct, &acct.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        assert!(sim.app(N0).engines[0].is_leader() && !acct.summaries_monotone());
        // The cluster does not run, so the withdraw stays uncommitted.
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, Account::deposit(10), 0, None);
            app.issue(ctx, Account::withdraw(3), 0, None);
        });
        assert_eq!(sim.app(N0).spec_mat, Some(7));
        sim.with_app_ctx(N1, |app, ctx| app.issue(ctx, Account::deposit(5), 0, None));
        land(&mut sim, N1, N0);
        assert_eq!(sim.with_app_ctx(N0, |app, ctx| app.adopt_summaries(ctx)), 1);
        let app = sim.app(N0);
        assert_eq!(*app.check_view(), 12, "node 1's deposit is in the view the leader checks");
        assert_eq!(app.spec_mat, Some(12));
    }

    /// Three started GSet replicas with no workload of their own and
    /// summary payloads capped at `cap` bytes; node 0's calls are
    /// issued by hand.
    fn idle_gsets(cap: usize) -> Simulator<HambandNode<GSet>> {
        let g = GSet::default();
        let runtime = RuntimeConfig::default().with_summary_payload_cap(cap);
        let run = RunConfig::new(3, WorkloadSpec::ops(0)).with_seed(1).with_runtime(runtime);
        let (mut sim, _layout) = assemble(&g, &g.coord_spec(), &run);
        sim.run_for(SimDuration::nanos(1));
        sim
    }

    /// Node 0 folds in one call per batch, closing a record after each.
    fn close_records(sim: &mut Simulator<HambandNode<GSet>>, batches: &[&[u64]]) {
        sim.with_app_ctx(N0, |app, ctx| {
            for batch in batches {
                app.issue(ctx, GSetUpdate::AddAll(batch.to_vec()), 0, None);
                app.close_record(ctx, 0);
            }
        });
    }

    fn elements(app: &HambandNode<GSet>) -> Vec<u64> {
        app.state_snapshot().into_iter().collect()
    }

    #[test]
    fn a_delta_write_carries_only_the_records_the_peer_lacks() {
        let mut sim = idle_gsets(4096);
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, GSetUpdate::AddAll(vec![1, 2, 3]), 0, None);
            app.flush_summaries(ctx);
        });
        sim.run_for(SimDuration::micros(5));
        let (writes, bytes) = (sim.stats().writes, sim.stats().one_sided_bytes);
        sim.with_app_ctx(N0, |app, ctx| {
            app.issue(ctx, GSetUpdate::AddAll(vec![4]), 0, None);
            app.flush_summaries(ctx);
        });
        let record =
            SummarySlot { version: 2, counts: vec![2], summary: Some(GSetUpdate::AddAll(vec![4])) }
                .to_slot(4096);
        assert!(sim.app(N0).sum_log[0].ends_with(&record));
        assert_eq!(sim.stats().writes - writes, 2, "one WRITE per peer");
        assert_eq!(
            sim.stats().one_sided_bytes - bytes,
            2 * record.len() as u64,
            "each carries the new record alone"
        );
        sim.run_for(SimDuration::micros(5));
        for q in [N1, NodeId(2)] {
            assert_eq!(elements(sim.app(q)), [1, 2, 3, 4]);
        }
    }

    #[test]
    fn a_reader_that_skipped_records_adopts_them_at_once_for_one_apply_cost() {
        let mut sim = idle_gsets(4096);
        close_records(&mut sim, &[&[10], &[11, 12], &[13], &[14]]);
        land(&mut sim, N0, N1);
        let cpu = sim.stats().cpu_busy_ns[1];
        assert_eq!(sim.with_app_ctx(N1, |app, ctx| app.adopt_summaries(ctx)), 1);
        let apply_cost = LatencyModel::default().apply_cost.as_nanos();
        assert_eq!(sim.stats().cpu_busy_ns[1] - cpu, apply_cost, "one adoption");
        let app = sim.app(N1);
        assert_eq!(app.metrics.summary_adoptions, 1);
        assert_eq!(app.sum_cache[0][0].records.len(), 4, "four records, each once");
        assert_eq!(app.applied.get(Pid(0), MethodId(0)), 4);
        assert_eq!(elements(app), [10, 11, 12, 13, 14]);
        // Nothing new: the next read peeks and adopts nothing.
        assert_eq!(sim.with_app_ctx(N1, |app, ctx| app.adopt_summaries(ctx)), 0);
        close_records(&mut sim, &[&[15]]);
        land(&mut sim, N0, N1);
        assert_eq!(sim.with_app_ctx(N1, |app, ctx| app.adopt_summaries(ctx)), 1);
        assert_eq!(sim.app(N1).sum_cache[0][0].records.len(), 5, "the new record only");
    }

    /// Two 40 KB records fit a 70 KB slot one at a time; the second
    /// compacts, and the compaction record overflows the u16 length
    /// field: a clear panic, not a truncated length.
    #[test]
    #[should_panic(expected = "overflows the u16 length field")]
    fn a_compaction_record_past_u16_panics_naming_the_length_field() {
        let mut sim = idle_gsets(70_000);
        let batch = |from: u64| (from..from + 13_500).collect::<Vec<u64>>();
        close_records(&mut sim, &[&batch(20_000), &batch(40_000)]);
    }

    /// A slot of 96 bytes holds the first three one-element records and
    /// a compaction with a few behind it: node 0 compacts every few
    /// calls, and its peers, which adopt at every poll, follow it
    /// through each compaction (walking from offset 0 past the stale
    /// records behind the new record 0).
    #[test]
    fn a_reader_converges_across_compactions() {
        let mut sim = idle_gsets(64);
        let mut heads = std::collections::BTreeSet::new();
        for x in 0..24u64 {
            sim.with_app_ctx(N0, |app, ctx| {
                app.issue(ctx, GSetUpdate::AddAll(vec![x]), 0, None);
                if x % 3 != 1 {
                    app.flush_summaries(ctx);
                }
            });
            sim.run_for(SimDuration::micros(3));
            heads.insert(sim.app(N1).sum_cache[0][0].head);
        }
        sim.with_app_ctx(N0, |app, ctx| app.flush_summaries(ctx));
        sim.run_for(SimDuration::micros(5));
        assert!(heads.len() > 3, "node 1 followed {} generations", heads.len());
        let all: Vec<u64> = (0..24).collect();
        for q in [N0, N1, NodeId(2)] {
            assert_eq!(elements(sim.app(q)), all, "node {q:?}");
        }
        assert_eq!(sim.app(N0).metrics.updates_acked, 24);
    }
}
