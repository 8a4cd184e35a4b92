//! The per-thread [`Transport`] handle of the threaded backend.
//!
//! Each replica thread owns one `ThreadedCtx`: an `Arc` of the
//! process-shared [`SharedMem`], a clone of every peer's event-channel
//! sender, a private timer heap, and a scratch buffer backing
//! [`Transport::local`] reads. One-sided verbs execute synchronously
//! against the shared memory (the atomic word discipline makes that
//! safe) and their completions are queued on a thread-local FIFO, so
//! RC ordering — writes from one issuer to one target land in posting
//! order — holds by program order. Two-sided messages cross threads
//! over `std::sync::mpsc`.
//!
//! Time is the shared monotonic wall clock: every ctx carries the same
//! [`Instant`] epoch and reports `SimTime` nanoseconds since it, so
//! latency histograms and trace records from different threads are
//! directly mergeable.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use rdma_sim::{
    Event, LatencyModel, NodeId, RegionId, SimDuration, SimTime, Stats, TimerId, TraceEvent,
    TraceRecord, VerbKind, WrId,
};

use super::shared::SharedMem;
use crate::transport::Transport;

/// An armed timer: fires at `at` with `tag`; `seq` breaks ties in
/// arming order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    id: TimerId,
    tag: u64,
}

/// Wall-clock nanoseconds since `epoch`, as the backend's `SimTime`.
fn since(epoch: Instant) -> SimTime {
    SimTime(epoch.elapsed().as_nanos() as u64)
}

/// One replica thread's transport handle.
pub(crate) struct ThreadedCtx {
    node: NodeId,
    n: usize,
    mem: Arc<SharedMem>,
    senders: Vec<Sender<Event>>,
    epoch: Instant,
    apply_cost: SimDuration,
    /// Synchronous verb completions, drained by the thread's event
    /// loop before it polls the cross-thread channel.
    pub(crate) local_q: VecDeque<Event>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    next_wr: u64,
    next_timer: u64,
    scratch: Vec<u8>,
    /// This thread's share of the fabric traffic counters, summed
    /// across the cluster after the threads join.
    pub(crate) stats: Stats,
    /// This thread's trace, while the run collects one: no buffer is
    /// shared while the threads run; the cluster merges them at join.
    pub(crate) trace: Option<Vec<TraceRecord>>,
}

impl ThreadedCtx {
    pub(crate) fn new(
        node: NodeId,
        n: usize,
        mem: Arc<SharedMem>,
        senders: Vec<Sender<Event>>,
        epoch: Instant,
        collect_trace: bool,
    ) -> ThreadedCtx {
        ThreadedCtx {
            node,
            n,
            mem,
            senders,
            epoch,
            apply_cost: LatencyModel::default().apply_cost,
            local_q: VecDeque::new(),
            timers: BinaryHeap::new(),
            // Disjoint per-node id spaces, so ids stay unique
            // cluster-wide without cross-thread coordination.
            next_wr: node.index() as u64,
            next_timer: node.index() as u64,
            scratch: Vec::new(),
            stats: Stats::new(n),
            trace: collect_trace.then(Vec::new),
        }
    }

    fn mint_wr(&mut self) -> WrId {
        self.next_wr += self.n as u64;
        WrId(self.next_wr)
    }

    fn arm(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.next_timer += self.n as u64;
        let id = TimerId(self.next_timer);
        self.timers.push(Reverse(TimerEntry {
            at: self.now() + delay,
            seq: self.next_timer,
            id,
            tag,
        }));
        id
    }

    /// Pop the earliest armed timer that is due at `now`, as an event.
    pub(crate) fn pop_due_timer(&mut self, now: SimTime) -> Option<Event> {
        if self.timers.peek().is_some_and(|Reverse(t)| t.at <= now) {
            let Reverse(t) = self.timers.pop().expect("peeked");
            return Some(Event::Timer { id: t.id, tag: t.tag });
        }
        None
    }
}

impl Transport for ThreadedCtx {
    fn node(&self) -> NodeId {
        self.node
    }

    /// Wall-clock nanoseconds since the cluster's shared epoch.
    fn now(&self) -> SimTime {
        since(self.epoch)
    }

    /// CPU cost is real here — executing the method body *is* the
    /// cost — so nothing is charged; the figure returned is the
    /// simulator's default modelled cost.
    fn charge_apply(&mut self) -> SimDuration {
        self.apply_cost
    }

    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord { at: since(self.epoch), event: make() });
        }
    }

    fn note_ring_write(&mut self, slots: u64) {
        self.stats.ring_writes += 1;
        self.stats.ring_slots += slots;
    }

    fn post_write(&mut self, target: NodeId, region: RegionId, offset: usize, data: &[u8]) -> WrId {
        let wr = self.mint_wr();
        let status = self.mem.check(self.node, target, region, offset, data.len(), true);
        if status.is_success() {
            self.mem.write(target, region, offset, data);
        }
        self.stats.count_post(self.node, VerbKind::Write, data.len());
        self.local_q.push_back(Event::Completion { wr, kind: VerbKind::Write, status, data: None });
        wr
    }

    fn post_read(&mut self, target: NodeId, region: RegionId, offset: usize, len: usize) -> WrId {
        let wr = self.mint_wr();
        let status = self.mem.check(self.node, target, region, offset, len, false);
        let data = status.is_success().then(|| {
            let mut buf = Vec::new();
            self.mem.read_into(target, region, offset, len, &mut buf);
            buf
        });
        self.stats.count_post(self.node, VerbKind::Read, len);
        self.local_q.push_back(Event::Completion { wr, kind: VerbKind::Read, status, data });
        wr
    }

    fn send(&mut self, target: NodeId, payload: Vec<u8>) {
        self.stats.count_post(self.node, VerbKind::Send, payload.len());
        let from = self.node;
        // A send to a thread that already exited its event loop (e.g.
        // during shutdown) is dropped, like a message to a dead node.
        let _ = self.senders[target.index()].send(Event::Message { from, payload });
    }

    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.arm(delay, tag)
    }

    /// Every timer already lives on its replica's own thread; the
    /// isolated variant is the plain one.
    fn set_timer_isolated(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.arm(delay, tag)
    }

    /// Own-region read: snapshot the atomically published words
    /// (descending-`Acquire`, like any remote read — peers write into
    /// our rings) into the scratch buffer and lend it out.
    fn local(&mut self, region: RegionId, offset: usize, len: usize) -> &[u8] {
        let mut buf = std::mem::take(&mut self.scratch);
        self.mem.read_into(self.node, region, offset, len, &mut buf);
        self.scratch = buf;
        &self.scratch
    }

    fn local_write(&mut self, region: RegionId, offset: usize, data: &[u8]) {
        self.mem.write(self.node, region, offset, data);
    }

    fn set_write_permission(&mut self, region: RegionId, source: NodeId, allowed: bool) {
        self.mem.set_perm(self.node, region, source, allowed);
    }
}
