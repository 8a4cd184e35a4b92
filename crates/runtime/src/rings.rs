//! Single-writer single-reader ring buffers over remote memory.
//!
//! §4: "Each buffer has a head that is locally stored at the host node
//! and a tail that is remotely stored at the single writer node. ...
//! After a successful read, the head pointer is advanced to the next
//! location. The calls at locations before the head are already
//! executed. To avoid memory overflow, these locations are reused."
//!
//! A [`RingWriter`] lives at the writing node and owns the tail: it
//! assigns dense sequence numbers on [`RingWriter::append`] and posts
//! the encoded slots on [`RingWriter::flush`], coalescing contiguous
//! pending entries into a single one-sided WRITE spanning adjacent
//! slots (doorbell batching). Pending slots are consecutive and
//! fixed-size, so an append copies its image once, behind the others in
//! one buffer, and a batch is posted as a subslice of it; what a flush
//! cannot post stays at the front. A batch splits only at ring wraparound
//! (slots are adjacent in memory within one lap), at the flow-control
//! limit, and at the configured [`max_batch`](RingWriter::with_max_batch).
//! Flow control is single-sided: when the tail runs more than half the
//! capacity ahead of the last known head, the writer posts a one-sided
//! READ of the reader's head counter and queues further appends until
//! the ring has room.
//!
//! A [`RingReader`] lives at the reading node and owns the head: it
//! polls the next expected slot, accepts the entry only when the
//! sequence number matches and the canary byte has landed, and
//! advances a local head counter the writer can read. The reader is
//! oblivious to batching: a coalesced WRITE lands as the same slot
//! bytes the per-entry WRITEs would have produced.

use hamband_core::wire::Wire;
use rdma_sim::{CompletionStatus, IdMap, NodeId, RegionId, RingKind, TraceEvent, WrId};

use crate::codec::{slot_ready, Entry};
use crate::transport::Transport;

/// Writer-side state of one ring (one per (writer, reader) pair for `F`
/// buffers; one per reader for each `L` buffer the leader feeds).
#[derive(Debug)]
pub struct RingWriter {
    kind: RingKind,
    target: NodeId,
    region: RegionId,
    base: usize,
    cap: u64,
    slot_size: usize,
    /// Max contiguous slots one WRITE may span (1 = unbatched).
    max_batch: u64,
    /// Sequence number of the next entry to append (1-based).
    next_seq: u64,
    /// The reader's head (applied count) as last observed.
    acked_head: u64,
    /// Slot images of the entries assigned a sequence number but not yet
    /// posted (awaiting a flush and, beyond the flow-control window,
    /// ring space), back to back: the last is `next_seq - 1`'s.
    pending: Vec<u8>,
    /// In-flight writes: work request → (first, last) sequence spanned.
    posted: IdMap<WrId, (u64, u64)>,
    /// In-flight head read, if any.
    head_read: Option<WrId>,
    /// Where the reader keeps its head counter (reader-local region).
    head_region: RegionId,
    head_offset: usize,
}

/// An append completion the caller should account. One completion may
/// cover several entries when the writer coalesced them into a single
/// WRITE; the sequence range is inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendDone {
    /// First sequence number the landed write spans.
    pub first_seq: u64,
    /// Last sequence number the landed write spans (>= `first_seq`).
    pub last_seq: u64,
    /// Completion status of the write.
    pub status: CompletionStatus,
    /// The node the ring lives at.
    pub target: NodeId,
}

impl AppendDone {
    /// The sequence numbers this completion covers, in order.
    pub fn seqs(&self) -> std::ops::RangeInclusive<u64> {
        self.first_seq..=self.last_seq
    }
}

impl RingWriter {
    /// A writer of `kind` feeding the ring at `(target, region, base)`
    /// with `cap` slots of `slot_size` bytes, reading the head counter
    /// from `(head_region, head_offset)` on the same target. Posts one
    /// WRITE per entry until [`with_max_batch`](Self::with_max_batch)
    /// raises the coalescing limit.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        kind: RingKind,
        target: NodeId,
        region: RegionId,
        base: usize,
        cap: usize,
        slot_size: usize,
        head_region: RegionId,
        head_offset: usize,
    ) -> Self {
        assert!(cap > 1, "ring needs at least two slots");
        RingWriter {
            kind,
            target,
            region,
            base,
            cap: cap as u64,
            slot_size,
            max_batch: 1,
            next_seq: 1,
            acked_head: 0,
            pending: Vec::new(),
            posted: IdMap::default(),
            head_read: None,
            head_region,
            head_offset,
        }
    }

    /// Coalesce up to `max_batch` contiguous entries per WRITE.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        self.max_batch = max_batch as u64;
        self
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Adopt a tail position (used by a new leader taking over a ring).
    pub fn adopt_tail(&mut self, appended: u64) {
        assert!(self.pending.is_empty(), "a tail is adopted before any append");
        self.next_seq = appended + 1;
        self.acked_head = self.acked_head.max(appended.saturating_sub(self.cap / 2));
    }

    fn slot_offset(&self, seq: u64) -> usize {
        self.base + (((seq - 1) % self.cap) as usize) * self.slot_size
    }

    /// Encode `entry` and queue it; returns its sequence number. The
    /// entry is only queued: call [`flush`](Self::flush) to post the
    /// pending entries (coalesced) once the current burst of appends is
    /// done.
    pub fn append<U: Wire>(&mut self, ctx: &mut impl Transport, entry: &Entry<U>) -> u64 {
        let slot_size = self.slot_size;
        self.enqueue(ctx, |seq, pending| entry.append_slot(seq, slot_size, pending))
    }

    /// [`append`](Self::append) for a slot the caller already encoded
    /// for [`next_seq`](Self::next_seq): writers that advance in
    /// lockstep (a call's `F` rings, a group's `L` rings) carry
    /// identical bytes, so the caller encodes once and hands each writer
    /// the image.
    pub fn append_encoded(&mut self, ctx: &mut impl Transport, slot: &[u8]) -> u64 {
        debug_assert_eq!(slot.len(), self.slot_size, "slots are fixed-size");
        debug_assert!(slot_ready(slot, self.next_seq), "slot encoded for another sequence");
        self.enqueue(ctx, |_, pending| pending.extend_from_slice(slot))
    }

    /// Assign the next sequence number and queue the slot image `fill`
    /// appends for it behind the pending ones.
    fn enqueue(&mut self, ctx: &mut impl Transport, fill: impl FnOnce(u64, &mut Vec<u8>)) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (kind, writer, reader) = (self.kind, ctx.node(), self.target);
        ctx.emit(|| TraceEvent::RingAppend { ring: kind, writer, reader, seq });
        fill(seq, &mut self.pending);
        debug_assert_eq!(self.pending.len() % self.slot_size, 0, "slots are fixed-size");
        seq
    }

    /// Re-write a specific already-assigned slot (leader catch-up and
    /// broadcast recovery): positional, idempotent at the reader.
    pub fn rewrite(&mut self, ctx: &mut impl Transport, seq: u64, slot: Vec<u8>) {
        let offset = self.slot_offset(seq);
        let wr = ctx.post_write(self.target, self.region, offset, &slot);
        ctx.note_ring_write(1);
        self.posted.insert(wr, (seq, seq));
    }

    fn maybe_read_head(&mut self, ctx: &mut impl Transport) {
        let lag = (self.next_seq - 1).saturating_sub(self.acked_head);
        if self.head_read.is_none() && (lag * 2 > self.cap || !self.pending.is_empty()) {
            self.head_read =
                Some(ctx.post_read(self.target, self.head_region, self.head_offset, 8));
        }
    }

    /// Feed a completion; returns `Some(done)` when it was one of this
    /// ring's writes, `None` otherwise (including head reads, which are
    /// absorbed internally).
    pub fn on_completion(
        &mut self,
        ctx: &mut impl Transport,
        wr: WrId,
        status: CompletionStatus,
        data: Option<&[u8]>,
    ) -> Option<AppendDone> {
        if self.head_read == Some(wr) {
            self.head_read = None;
            if status.is_success() {
                if let Some(d) = data {
                    if d.len() == 8 {
                        let head = u64::from_le_bytes(d.try_into().expect("8 bytes"));
                        self.acked_head = self.acked_head.max(head);
                    }
                }
            }
            self.flush(ctx);
            return None;
        }
        let (first_seq, last_seq) = self.posted.remove(&wr)?;
        Some(AppendDone { first_seq, last_seq, status, target: self.target })
    }

    /// Post the pending entries, coalescing contiguous runs into single
    /// WRITEs. A batch ends at the flow-control window (`acked_head +
    /// cap`), at ring wraparound (the next slot is not adjacent in
    /// memory), and at `max_batch` slots. Entries beyond the window
    /// stay queued until a head read observes room.
    pub fn flush(&mut self, ctx: &mut impl Transport) {
        let window_end = self.acked_head + self.cap;
        let mut first = self.next_seq - (self.pending.len() / self.slot_size) as u64;
        let mut posted = 0;
        while first < self.next_seq && first <= window_end {
            let lap_end = first + self.cap - 1 - (first - 1) % self.cap;
            let last =
                (self.next_seq - 1).min(window_end).min(lap_end).min(first + self.max_batch - 1);
            let count = last - first + 1;
            let end = posted + count as usize * self.slot_size;
            let offset = self.slot_offset(first);
            let wr = ctx.post_write(self.target, self.region, offset, &self.pending[posted..end]);
            ctx.note_ring_write(count);
            self.posted.insert(wr, (first, last));
            if count > 1 {
                let (kind, writer, reader) = (self.kind, ctx.node(), self.target);
                ctx.emit(|| TraceEvent::RingBatch {
                    ring: kind,
                    writer,
                    reader,
                    first_seq: first,
                    count,
                });
            }
            (first, posted) = (last + 1, end);
        }
        self.pending.drain(..posted);
        self.maybe_read_head(ctx);
    }

    /// Whether the flow-control window is exhausted: the next append
    /// would not be postable until the reader's head advances.
    pub fn is_backpressured(&self) -> bool {
        self.next_seq > self.acked_head + self.cap
    }
}

/// Reader-side state of one ring.
#[derive(Debug)]
pub struct RingReader {
    kind: RingKind,
    region: RegionId,
    base: usize,
    cap: u64,
    slot_size: usize,
    /// Next sequence number to apply (1-based).
    next: u64,
    /// Where this reader's head counter lives (own region).
    head_region: RegionId,
    head_offset: usize,
}

impl RingReader {
    /// A reader of `kind` over the local ring at `(region, base)`; its
    /// head counter lives at `(head_region, head_offset)` in local
    /// memory.
    pub fn new(
        kind: RingKind,
        region: RegionId,
        base: usize,
        cap: usize,
        slot_size: usize,
        head_region: RegionId,
        head_offset: usize,
    ) -> Self {
        RingReader {
            kind,
            region,
            base,
            cap: cap as u64,
            slot_size,
            next: 1,
            head_region,
            head_offset,
        }
    }

    /// Sequence number of the next entry this reader expects.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Number of entries applied so far.
    pub fn applied(&self) -> u64 {
        self.next - 1
    }

    fn slot_offset(&self, seq: u64) -> usize {
        self.base + (((seq - 1) % self.cap) as usize) * self.slot_size
    }

    /// Whether the next entry has fully landed (sequence and canary
    /// prefix check), without decoding the payload.
    pub fn next_ready(&self, ctx: &mut impl Transport) -> bool {
        let slot = ctx.local(self.region, self.slot_offset(self.next), self.slot_size);
        slot_ready(slot, self.next)
    }

    /// Peek the next entry if it has fully landed (sequence and canary
    /// check — "to check whether the buffer is not empty and the call is
    /// not concurrently being written, the receiver checks the canary").
    /// The cheap [`next_ready`](Self::next_ready) prefix check runs
    /// first so an empty or in-flight slot costs no payload decode.
    pub fn peek<U: Wire>(&self, ctx: &mut impl Transport) -> Option<Entry<U>> {
        if !self.next_ready(ctx) {
            return None;
        }
        let slot = ctx.local(self.region, self.slot_offset(self.next), self.slot_size);
        Entry::from_slot(slot, self.next)
    }

    /// Raw bytes of the slot holding `seq` (leader catch-up reads).
    pub fn raw_slot<'c>(&self, ctx: &'c mut impl Transport, seq: u64) -> &'c [u8] {
        ctx.local(self.region, self.slot_offset(seq), self.slot_size)
    }

    /// Consume the entry just peeked: advance the head and publish the
    /// new head counter for the writer's flow-control reads. `writer`
    /// is the node that appended the consumed entry (the ring's feeder
    /// for `F` rings, the appending leader for `L` rings).
    pub fn advance(&mut self, ctx: &mut impl Transport, writer: NodeId) {
        let seq = self.next;
        self.next += 1;
        let (kind, reader) = (self.kind, ctx.node());
        ctx.emit(|| TraceEvent::RingApply { ring: kind, reader, writer, seq });
        let head = self.next - 1;
        ctx.local_write(self.head_region, self.head_offset, &head.to_le_bytes());
    }

    /// Adopt a head position and publish it: a restarted node's reader
    /// resumes past the entries its persist log replayed
    /// (`rejoin.rs`).
    pub fn adopt_head(&mut self, ctx: &mut impl Transport, applied: u64) {
        self.next = applied + 1;
        ctx.local_write(self.head_region, self.head_offset, &applied.to_le_bytes());
    }

    /// Test-only: pretend entries through `applied` were consumed,
    /// without a transport (role-machine unit tests).
    #[cfg(test)]
    pub(crate) fn skip_to_for_test(&mut self, applied: u64) {
        self.next = applied + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{carried_commit, stamp_commit, CANARY_TRAILER, CARRIED_COMMIT};
    use hamband_core::counts::DepMap;
    use hamband_core::demo::{Account, AccountUpdate};
    use hamband_core::ids::{Pid, Rid};
    use rdma_sim::{
        App, Ctx, Event, FaultPlan, LatencyModel, SimDuration, SimTime, Simulator, Stats,
        TraceRecord,
    };

    const SLOT: usize = 64;
    const CAP: usize = 8;

    /// Node 0 writes `to_send` entries into node 1's ring; node 1 polls
    /// and applies. Exercises flow control across wrap-around.
    struct RingApp {
        #[allow(dead_code)]
        ring_region: RegionId,
        #[allow(dead_code)]
        heads_region: RegionId,
        writer: Option<RingWriter>,
        reader: Option<RingReader>,
        to_send: u64,
        sent: u64,
        received: Vec<u64>,
        completions: u64,
    }

    impl RingApp {
        fn new(
            node: usize,
            ring_region: RegionId,
            heads_region: RegionId,
            to_send: u64,
            max_batch: usize,
        ) -> Self {
            let writer = (node == 0).then(|| {
                RingWriter::new(
                    RingKind::Free,
                    NodeId(1),
                    ring_region,
                    0,
                    CAP,
                    SLOT,
                    heads_region,
                    0,
                )
                .with_max_batch(max_batch)
            });
            let reader = (node == 1).then(|| {
                RingReader::new(RingKind::Free, ring_region, 0, CAP, SLOT, heads_region, 0)
            });
            RingApp {
                ring_region,
                heads_region,
                writer,
                reader,
                to_send,
                sent: 0,
                received: Vec::new(),
                completions: 0,
            }
        }

        fn pump_writer(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(w) = self.writer.as_mut() {
                while self.sent < self.to_send && !w.is_backpressured() {
                    let e = Entry {
                        rid: Rid::new(Pid(0), self.sent),
                        update: Account::deposit(self.sent + 1),
                        deps: DepMap::empty(),
                    };
                    w.append(ctx, &e);
                    self.sent += 1;
                }
                w.flush(ctx);
            }
        }

        fn pump_reader(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(r) = self.reader.as_mut() {
                while let Some(e) = r.peek::<AccountUpdate>(ctx) {
                    let AccountUpdate::Deposit(v) = e.update else { panic!("deposit") };
                    self.received.push(v);
                    r.advance(ctx, NodeId(0));
                }
            }
        }
    }

    impl App for RingApp {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.pump_writer(ctx);
            ctx.set_timer(SimDuration::micros(1), 0);
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            match event {
                Event::Timer { .. } => {
                    self.pump_reader(ctx);
                    self.pump_writer(ctx);
                    ctx.set_timer(SimDuration::micros(1), 0);
                }
                Event::Completion { wr, status, data, .. } => {
                    if let Some(w) = self.writer.as_mut() {
                        if let Some(done) = w.on_completion(ctx, wr, status, data.as_deref()) {
                            assert!(done.status.is_success());
                            self.completions += done.seqs().count() as u64;
                        }
                    }
                    self.pump_writer(ctx);
                }
                _ => {}
            }
        }
    }

    fn run_with(
        to_send: u64,
        torn: bool,
        max_batch: usize,
    ) -> (Vec<u64>, u64, Stats, Vec<TraceRecord>) {
        let mut sim = Simulator::new(2, LatencyModel::deterministic(), 5);
        sim.collect_trace();
        let ring = sim.add_region_all(CAP * SLOT);
        let heads = sim.add_region_all(8);
        if torn {
            sim.install_fault_plan(
                &FaultPlan::new().at(SimTime::ZERO, rdma_sim::Fault::TornWrites(NodeId(1))),
            );
        }
        sim.set_apps(|n| RingApp::new(n.index(), ring, heads, to_send, max_batch));
        sim.run_for(SimDuration::millis(20));
        let recv = sim.app(NodeId(1)).received.clone();
        let comp = sim.app(NodeId(0)).completions;
        let stats = sim.stats().clone();
        (recv, comp, stats, sim.take_trace())
    }

    fn run(to_send: u64, torn: bool, max_batch: usize) -> (Vec<u64>, u64) {
        let (recv, comp, ..) = run_with(to_send, torn, max_batch);
        (recv, comp)
    }

    #[test]
    fn delivers_in_order_across_wraparound() {
        // 50 entries through an 8-slot ring: flow control must engage.
        let (received, completions) = run(50, false, 4);
        assert_eq!(received, (1..=50).collect::<Vec<u64>>());
        assert_eq!(completions, 50, "every entry is covered by a completion");
    }

    #[test]
    fn batching_reduces_write_count() {
        let (recv_1, comp_1, stats_1, _) = run_with(50, false, 1);
        let (recv_8, comp_8, stats_8, _) = run_with(50, false, 8);
        assert_eq!(recv_1, recv_8, "delivery order is batch-invariant");
        assert_eq!(comp_1, 50);
        assert_eq!(comp_8, 50);
        assert_eq!(stats_1.ring_slots, 50, "every slot accounted");
        assert_eq!(stats_8.ring_slots, 50, "every slot accounted");
        assert_eq!(stats_1.ring_writes, 50, "unbatched: one WRITE per entry");
        assert!(
            stats_8.ring_writes < stats_1.ring_writes,
            "batched run posted {} ring WRITEs, unbatched {}",
            stats_8.ring_writes,
            stats_1.ring_writes
        );
        // Every one-sided WRITE this app posts is a ring write.
        assert_eq!(stats_8.ring_writes, stats_8.writes);
    }

    #[test]
    fn batches_never_cross_wraparound_or_max_batch() {
        let (received, _, _, trace) = run_with(50, false, 4);
        assert_eq!(received, (1..=50).collect::<Vec<u64>>());
        let mut saw_batch = false;
        for rec in trace {
            if let TraceEvent::RingBatch { first_seq, count, .. } = rec.event {
                saw_batch = true;
                assert!(count >= 2, "single-slot writes are not batch events");
                assert!(count <= 4, "batch of {count} exceeds max_batch");
                let first_slot = (first_seq - 1) % CAP as u64;
                assert!(
                    first_slot + count <= CAP as u64,
                    "batch [{first_seq}, +{count}) crosses the ring boundary"
                );
            }
        }
        assert!(saw_batch, "a 50-entry burst must coalesce at least once");
    }

    #[test]
    fn canary_protects_against_torn_writes() {
        let (received, _) = run(20, true, 8);
        assert_eq!(received, (1..=20).collect::<Vec<u64>>(), "no torn entry was consumed");
    }

    #[test]
    fn reader_sees_nothing_in_empty_ring() {
        let (received, _) = run(0, false, 4);
        assert!(received.is_empty());
    }

    /// Does nothing: the test posts from outside the event loop.
    struct Idle;

    impl App for Idle {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: Event) {}
    }

    /// Two rings in one region at node 1, fed by node 0: the first
    /// through `append`, the second through `append_encoded` with the
    /// caller's own encoding.
    #[test]
    fn append_encoded_lands_the_bytes_append_would() {
        let mut sim = Simulator::new(2, LatencyModel::deterministic(), 5);
        let ring = sim.add_region_all(2 * CAP * SLOT);
        let heads = sim.add_region_all(16);
        sim.set_apps(|_| Idle);
        let writer = |base, head| {
            RingWriter::new(RingKind::Free, NodeId(1), ring, base, CAP, SLOT, heads, head)
                .with_max_batch(4)
        };
        let (mut plain, mut encoded) = (writer(0, 0), writer(CAP * SLOT, 8));
        sim.with_app_ctx(NodeId(0), |_, ctx| {
            let mut buf = vec![0xff; 3];
            for i in 0..5 {
                let e = Entry {
                    rid: Rid::new(Pid(0), i),
                    update: Account::deposit(i + 1),
                    deps: DepMap::empty(),
                };
                let seq = plain.append(ctx, &e);
                e.to_slot_into(encoded.next_seq(), SLOT, &mut buf);
                assert_eq!(encoded.append_encoded(ctx, &buf), seq);
            }
            plain.flush(ctx);
            encoded.flush(ctx);
        });
        sim.run_for(SimDuration::micros(50));
        let bytes = sim.region_bytes(NodeId(1), ring);
        assert!(slot_ready(&bytes[4 * SLOT..5 * SLOT], 5), "the fifth entry landed");
        assert_eq!(bytes[..CAP * SLOT], bytes[CAP * SLOT..]);
    }

    /// On a torn fabric a slot's last byte lands 400 ns after the rest,
    /// the carried commit index included. Sequence numbers past 2^56
    /// put a non-zero byte there, so the canary really is incomplete in
    /// that gap: a poll every 50 ns must see the index word landed with
    /// the slot not ready, and must never be handed it.
    #[test]
    fn no_commit_index_is_taken_from_a_slot_whose_canary_has_not_landed() {
        let mut sim = Simulator::new(2, LatencyModel::deterministic(), 5);
        let ring = sim.add_region_all(CAP * SLOT);
        let heads = sim.add_region_all(8);
        sim.install_fault_plan(
            &FaultPlan::new().at(SimTime::ZERO, rdma_sim::Fault::TornWrites(NodeId(1))),
        );
        sim.set_apps(|_| Idle);
        let mut w = RingWriter::new(RingKind::Conf, NodeId(1), ring, 0, CAP, SLOT, heads, 0);
        let base = 1u64 << 56;
        w.adopt_tail(base);
        let index_at = SLOT - CANARY_TRAILER - CARRIED_COMMIT;
        let mut torn_polls = 0;
        // Half a ring: as far as an adopted tail may run ahead of a
        // head nobody publishes.
        let entries = CAP as u64 / 2;
        for i in 1..=entries {
            let (seq, stamp) = (base + i, 0x0101_0101_0101_0100 + i);
            sim.with_app_ctx(NodeId(0), |_, ctx| {
                let e = Entry {
                    rid: Rid::new(Pid(0), i),
                    update: Account::deposit(i),
                    deps: DepMap::empty(),
                };
                let mut slot = e.to_slot(seq, SLOT);
                stamp_commit(&mut slot, stamp);
                assert_eq!(w.append_encoded(ctx, &slot), seq);
                w.flush(ctx);
            });
            let off = ((seq - 1) % CAP as u64) as usize * SLOT;
            let mut ready = false;
            for _ in 0..60 {
                sim.run_for(SimDuration::nanos(50));
                let slot = &sim.region_bytes(NodeId(1), ring)[off..off + SLOT];
                ready = slot_ready(slot, seq);
                assert_eq!(carried_commit(slot, seq), ready.then_some(stamp));
                if !ready && slot[index_at..index_at + 8] == stamp.to_le_bytes() {
                    torn_polls += 1;
                }
            }
            assert!(ready, "entry {i} never landed");
        }
        assert!(torn_polls >= entries, "a torn slot went unobserved ({torn_polls} polls saw one)");
    }

    #[test]
    fn adopt_tail_continues_numbering() {
        let mut w =
            RingWriter::new(RingKind::Free, NodeId(1), RegionId(0), 0, 8, 64, RegionId(1), 0)
                .with_max_batch(3);
        w.adopt_tail(12);
        assert_eq!(w.next_seq(), 13);
        // Nothing was queued by adopting: a tail can be adopted again.
        w.adopt_tail(20);
        assert_eq!(w.next_seq(), 21);
    }
}
