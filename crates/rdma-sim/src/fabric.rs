//! The fabric: registered memory, clocks, the event queue, and the
//! [`Ctx`] handle through which node applications drive verbs.
//!
//! The fabric models the resources the protocols contend on:
//!
//! * a **CPU clock** per node — event handlers and verb posting charge
//!   it; event delivery waits for it (this is what makes two-sided
//!   receive paths expensive and one-sided writes free for the target).
//!   Events that find the CPU busy wait in the node's own queue
//!   (`NodeFabric::waiting`, one set per due time whose emptied sets
//!   are reused, so a wait allocates nothing once the node has waited
//!   that deep) behind one *wake* entry in the global queue, and leave
//!   in original sequence order. A WRITE's completion comes due the
//!   instant the WRITE lands; with nothing else queued for that instant
//!   the simulator hands it over there, under the sequence number its
//!   queue entry would have had, instead of queueing it, and a node's
//!   next waiting event whose wake would pop next is taken the same
//!   way. A node's dedicated threads (isolated timers) run on other
//!   cores: they never wait, and the verbs they post and those verbs'
//!   completions stay off this clock. Which thread an event belongs to
//!   is stamped on its queue entry (`Thread`), so telling costs no
//!   lookup, and a restart, which ends the node's dedicated threads,
//!   voids every stamp issued before it;
//! * a **NIC transmit clock** per node — each posted verb serializes
//!   through it, bounding a node's injection rate;
//! * **FIFO clocks** per (issuer, target) pair — the fabric's ordering
//!   model. WRITEs land in posting order, which the single-writer ring
//!   buffers of §4 rely on; SENDs are delivered in posting order on a
//!   clock of their own. READ and CAS are ordered behind neither: they
//!   act at the target half a round trip after leaving the NIC, so one
//!   can overtake an earlier WRITE on its pair, which an RC queue pair
//!   forbids. A 4-byte READ posted behind a 10 000-byte WRITE at 1 µs
//!   completes at 3 220 ns with the old bytes; the WRITE lands at
//!   4 110 ns (`tests/sim_behavior.rs`);
//! * **registered memory regions** with per-source write permissions —
//!   the primitive Mu-style leader change is built on.
//!
//! Every verb takes one path: `Ctx::post` charges, counts
//! ([`Stats::count_post`]), prices and orders it, and a one-sided verb
//! travels as one `Action::Verb` whose single arm in the simulator's
//! dispatch places, fetches or swaps at the target and completes it.
//!
//! A WRITE's payload is copied once, at the post, into a buffer of the
//! fabric's own (`WriteBufs`); the queued verb holds the buffer's
//! handle, and the buffer comes back when the WRITE has landed (a torn
//! one once its tail has). A returned buffer keeps its capacity, so once
//! the pool is as deep as the most WRITEs ever in flight and each buffer
//! as large as the payloads it carries, a WRITE allocates nothing. Every
//! queued entry is written into the event queue's slab and read out of
//! it once, so `Action` is kept to 56 bytes: the handle instead of the
//! `Vec`, 32-bit node, region and offset fields, and the rare fault
//! boxed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fault::Fault;
use crate::latency::LatencyModel;
use crate::queue::EventQueue;
use crate::region::Region;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceRecord};
use crate::verbs::{CompletionStatus, Event, NodeId, RegionId, TimerId, VerbKind, WrId};
use crate::wait::WaitQueue;

#[derive(Debug)]
pub(crate) struct NodeFabric {
    pub(crate) regions: Vec<Region>,
    /// CPU availability: events are handled no earlier than this.
    pub(crate) cpu_free: SimTime,
    /// Events that found the CPU busy, by when they come due — the
    /// `cpu_free` they found. Events with the same due time wait
    /// together and move together if the CPU is still busy then.
    pub(crate) waiting: WaitQueue,
    /// `(time, seq)` of this node's wake entry in the global queue:
    /// the earliest due time and the lowest sequence number waiting
    /// for it. An [`Action::Wake`] that pops with another key was
    /// superseded and is ignored.
    pub(crate) wake: Option<(SimTime, u64)>,
    /// NIC transmit availability.
    pub(crate) nic_free: SimTime,
    pub(crate) crashed: bool,
    /// Writes landing at this node are torn in two (fault mode).
    pub(crate) torn_writes: bool,
    /// Latency multiplier applied to traffic touching this node while
    /// a delay spike is active (fault mode; 1 = no spike).
    pub(crate) delay_factor: u32,
    /// The delay spike is active for posts strictly before this time.
    pub(crate) delay_until: SimTime,
    /// One-shot fault mode: the next completion event delivered to
    /// this node is delivered twice.
    pub(crate) duplicate_next_completion: bool,
    pub(crate) next_wr: u64,
    pub(crate) next_timer: u64,
    /// Restarts so far: which life of the node a [`Thread`] stamp was
    /// issued in.
    pub(crate) restarts: u32,
}

impl NodeFabric {
    /// The stamp of the node's dedicated threads in its current life.
    #[inline]
    pub(crate) fn dedicated(&self) -> Thread {
        Thread(self.restarts + 1)
    }

    /// Clear per-node fault modes across a crash-restart and end the
    /// dedicated threads of the old life: a timer they armed or a verb
    /// they posted comes back to the application CPU. `next_wr` and
    /// `next_timer` stay monotone so post-restart ids never collide
    /// with stale in-flight ones. Events still waiting for the CPU came
    /// due after the outage and keep their due times.
    pub(crate) fn reset_for_restart(&mut self, now: SimTime) {
        self.crashed = false;
        self.torn_writes = false;
        self.delay_factor = 1;
        self.delay_until = SimTime::ZERO;
        self.duplicate_next_completion = false;
        self.restarts += 1;
        // A fresh host CPU/NIC is idle.
        self.cpu_free = now;
        self.nic_free = now;
    }
}

/// The thread of its node an event runs on, stamped on its queue
/// entry: the application CPU, or a dedicated thread — one that fires
/// even while the application CPU is busy, like the paper's heartbeat
/// thread on a multi-core node. An isolated timer is stamped as it is
/// armed, and a verb a dedicated thread's handler posts as it is posted,
/// so the verb's completion goes straight back to that thread; the
/// thread's posts are charged to [`Stats::isolated_busy_ns`], not to
/// `cpu_free`. A dedicated stamp holds the node's restart count plus
/// one, so a restart voids the stamps of the life before it. A copy of
/// an event (a duplicated completion) is the application CPU's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Thread(u32);

impl Thread {
    /// The node's application CPU.
    pub(crate) const APP: Thread = Thread(0);
}

/// The payloads of the WRITEs in flight, each in a buffer of its own
/// named by a `u32` handle. A buffer given back keeps its capacity and
/// is the next one taken, so a WRITE whose payload fits allocates
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct WriteBufs {
    bufs: Vec<Vec<u8>>,
    free: Vec<u32>,
}

impl WriteBufs {
    /// A buffer holding a copy of `data`.
    pub(crate) fn take(&mut self, data: &[u8]) -> u32 {
        let buf = match self.free.pop() {
            Some(buf) => buf,
            None => {
                self.bufs.push(Vec::new());
                narrow(self.bufs.len() - 1)
            }
        };
        let bytes = &mut self.bufs[buf as usize];
        bytes.clear();
        bytes.extend_from_slice(data);
        buf
    }

    /// The last `len` bytes of buffer `buf`.
    #[inline]
    pub(crate) fn tail(&self, buf: u32, len: usize) -> &[u8] {
        let bytes = &self.bufs[buf as usize];
        &bytes[bytes.len() - len..]
    }

    /// Buffer `buf` is free for the next WRITE.
    #[inline]
    pub(crate) fn give_back(&mut self, buf: u32) {
        self.free.push(buf);
    }
}

/// A node index, region id, offset, length or buffer handle as a queued
/// [`Action`] holds it.
#[inline]
pub(crate) fn narrow(i: usize) -> u32 {
    u32::try_from(i).expect("queued ids, offsets and lengths fit in 32 bits")
}

/// Internal queue actions. Each is written into the event queue's slab
/// and read back out of it, so it is kept to 56 bytes (a unit test pins
/// the size): node, region and offset fields of 32 bits, a WRITE's
/// payload behind a [`WriteBufs`] handle, the rare fault boxed.
#[derive(Debug)]
pub(crate) enum Action {
    /// Deliver `event` to node `node` on `thread`.
    Deliver {
        node: u32,
        thread: Thread,
        event: Event,
    },
    /// A one-sided verb arriving at its target: one path for every
    /// kind. The completion reaches the issuer's `thread` `return_ns`
    /// nanoseconds later.
    Verb {
        issuer: u32,
        target: u32,
        region: u32,
        offset: u32,
        wr: WrId,
        return_ns: u32,
        thread: Thread,
        op: Op,
    },
    InjectFault(Box<Fault>),
    /// The earliest events waiting for `node`'s CPU are due: deliver
    /// the first if the CPU is free, else they all wait on.
    Wake {
        node: NodeId,
    },
}

impl Action {
    /// Deliver `event` to `node`'s application CPU.
    #[inline]
    pub(crate) fn deliver(node: NodeId, event: Event) -> Self {
        Action::Deliver { node: narrow(node.index()), thread: Thread::APP, event }
    }

    /// The (issuer, target) pair for actions that cross the network —
    /// the partition check applies to these.
    pub(crate) fn endpoints(&self) -> Option<(NodeId, NodeId)> {
        let node = |i: u32| NodeId(i as usize);
        match self {
            Action::Verb { issuer, target, .. } => Some((node(*issuer), node(*target))),
            Action::Deliver { node: to, event: Event::Message { from, .. }, .. } => {
                Some((*from, node(*to)))
            }
            _ => None,
        }
    }
}

/// What a one-sided verb does at its target.
#[derive(Debug)]
pub(crate) enum Op {
    /// Place the last `len` bytes of [`WriteBufs`] buffer `buf`: all of
    /// them, or, for the tail of a WRITE torn in two, the last byte,
    /// which lands apart and completes the request.
    Write { buf: u32, len: u32 },
    /// Fetch this many bytes.
    Read(u32),
    /// Swap in `swap` if the 8-byte word holds `expected`; fetch the
    /// prior word either way.
    Cas { expected: u64, swap: u64 },
}

impl Op {
    /// The verb's kind and the bytes it moves.
    #[inline]
    pub(crate) fn shape(&self) -> (VerbKind, usize) {
        match *self {
            Op::Write { len, .. } => (VerbKind::Write, len as usize),
            Op::Read(len) => (VerbKind::Read, len as usize),
            Op::Cas { .. } => (VerbKind::CompareAndSwap, 8),
        }
    }
}

/// The shared fabric state (everything except the applications).
#[derive(Debug)]
pub struct Fabric {
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) seq: u64,
    pub(crate) nodes: Vec<NodeFabric>,
    pub(crate) latency: LatencyModel,
    pub(crate) rng: StdRng,
    pub(crate) stats: Stats,
    /// The run's trace, while collection is on.
    pub(crate) trace: Option<Vec<TraceRecord>>,
    /// FIFO landing clock per (issuer, target) pair of WRITEs.
    pub(crate) chan_free: Vec<Vec<SimTime>>,
    /// FIFO delivery clock per (issuer, target) pair of SENDs.
    pub(crate) msg_chan_free: Vec<Vec<SimTime>>,
    /// Whether a partition separates some pair: set by a
    /// [`Fault::Partition`] with two non-empty sides, cleared by
    /// [`Fault::Heal`]. Every partition check is behind it, so a run
    /// with no partition active pays none.
    pub(crate) partitioned: bool,
    /// Active partition sides (both empty when no partition is active).
    /// Traffic between a side-A and a side-B node is parked.
    pub(crate) part_a: Vec<bool>,
    pub(crate) part_b: Vec<bool>,
    /// Actions held back by the active partition, with their original
    /// sequence numbers; released in order by [`Fault::Heal`].
    pub(crate) parked: Vec<(u64, Action)>,
    /// The payloads of the WRITEs in flight.
    pub(crate) write_bufs: WriteBufs,
}

impl Fabric {
    pub(crate) fn new(n: usize, latency: LatencyModel, seed: u64) -> Self {
        assert!(n > 0, "cluster must be non-empty");
        Fabric {
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            seq: 0,
            nodes: (0..n)
                .map(|_| NodeFabric {
                    regions: Vec::new(),
                    cpu_free: SimTime::ZERO,
                    waiting: WaitQueue::default(),
                    wake: None,
                    nic_free: SimTime::ZERO,
                    crashed: false,
                    torn_writes: false,
                    delay_factor: 1,
                    delay_until: SimTime::ZERO,
                    duplicate_next_completion: false,
                    next_wr: 0,
                    next_timer: 0,
                    restarts: 0,
                })
                .collect(),
            latency,
            rng: StdRng::seed_from_u64(seed),
            stats: Stats::new(n),
            trace: None,
            chan_free: vec![vec![SimTime::ZERO; n]; n],
            msg_chan_free: vec![vec![SimTime::ZERO; n]; n],
            partitioned: false,
            part_a: vec![false; n],
            part_b: vec![false; n],
            parked: Vec::new(),
            write_bufs: WriteBufs::default(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Record the event `make` builds, if the run collects a trace; one
    /// branch, and nothing built, when it does not.
    #[inline]
    pub(crate) fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceRecord { at: self.now, event: make() });
        }
    }

    /// The next sequence number: the order entries are first queued in.
    pub(crate) fn mint_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    pub(crate) fn push(&mut self, time: SimTime, action: Action) {
        let seq = self.mint_seq();
        self.queue.push(time, seq, action);
    }

    /// Enqueue under an *existing* sequence number — a held-back action
    /// released by `Heal`, or a node's wake standing in for the waiting
    /// event with that number — so that a postponed delivery cannot be
    /// overtaken at the same timestamp by a logically later event
    /// (per-channel FIFO would silently break otherwise).
    pub(crate) fn push_with_seq(&mut self, time: SimTime, seq: u64, action: Action) {
        self.queue.push(time, seq, action);
    }

    /// Spend `node`'s pending `DuplicateCompletion` on `event`: a copy is
    /// queued as a fresh entry at the current time, so it arrives right
    /// after the original, on the application CPU.
    pub(crate) fn duplicate_completion(&mut self, node: NodeId, event: &Event) {
        self.nodes[node.index()].duplicate_next_completion = false;
        self.push(self.now, Action::deliver(node, event.clone()));
    }

    /// `event` found `node`'s CPU busy: it waits until `cpu_free`,
    /// keeping its sequence number.
    pub(crate) fn park(&mut self, node: NodeId, seq: u64, event: Event) {
        let nf = &mut self.nodes[node.index()];
        nf.waiting.push(nf.cpu_free, seq, event);
        self.arm_wake(node);
    }

    /// Keep `node`'s wake entry keyed by its earliest due time and the
    /// lowest sequence number waiting for it, so the head of the wait
    /// queue takes its turn among the other nodes' entries exactly
    /// where the event itself would.
    pub(crate) fn arm_wake(&mut self, node: NodeId) {
        let nf = &mut self.nodes[node.index()];
        let head = nf.waiting.head();
        if head != nf.wake {
            nf.wake = head;
            if let Some((due, seq)) = head {
                self.push_with_seq(due, seq, Action::Wake { node });
            }
        }
    }

    pub(crate) fn mint_wr(&mut self, node: NodeId) -> WrId {
        let nf = &mut self.nodes[node.index()];
        let wr = WrId(nf.next_wr);
        nf.next_wr += 1;
        wr
    }

    /// Charge CPU time to a node starting no earlier than `now`.
    pub(crate) fn charge_cpu(&mut self, node: NodeId, cost: SimDuration) -> SimTime {
        let nf = &mut self.nodes[node.index()];
        let start = nf.cpu_free.max(self.now);
        nf.cpu_free = start + cost;
        self.stats.cpu_busy_ns[node.index()] += cost.as_nanos();
        nf.cpu_free
    }

    /// Reserve NIC transmit time; returns when the verb leaves the NIC.
    pub(crate) fn reserve_nic(&mut self, node: NodeId) -> SimTime {
        let cost = self.latency.nic_tx_cost;
        let nf = &mut self.nodes[node.index()];
        let start = nf.nic_free.max(self.now);
        nf.nic_free = start + cost;
        self.stats.nic_busy_ns[node.index()] += cost.as_nanos();
        nf.nic_free
    }

    /// FIFO arrival time on the (issuer → target) pair: no earlier
    /// than `earliest`, nor than the pair's last arrival on the clock
    /// of `kind` — SENDs keep their own, WRITEs the other.
    pub(crate) fn fifo(
        &mut self,
        kind: VerbKind,
        from: NodeId,
        to: NodeId,
        earliest: SimTime,
    ) -> SimTime {
        let clocks =
            if kind == VerbKind::Send { &mut self.msg_chan_free } else { &mut self.chan_free };
        let slot = &mut clocks[from.index()][to.index()];
        *slot = (*slot).max(earliest);
        *slot
    }

    /// Whether the active partition separates `a` from `b` (callers
    /// test [`partitioned`](Fabric::partitioned) first).
    pub(crate) fn partition_blocks(&self, a: NodeId, b: NodeId) -> bool {
        (self.part_a[a.index()] && self.part_b[b.index()])
            || (self.part_a[b.index()] && self.part_b[a.index()])
    }

    /// Scale a fabric latency by the strongest delay spike active at
    /// either endpoint (no spike → unchanged).
    pub(crate) fn spiked(&self, issuer: NodeId, target: NodeId, base: SimDuration) -> SimDuration {
        let active = |n: &NodeFabric| {
            if self.now < n.delay_until {
                n.delay_factor.max(1)
            } else {
                1
            }
        };
        let factor = active(&self.nodes[issuer.index()]).max(active(&self.nodes[target.index()]));
        if factor <= 1 {
            base
        } else {
            SimDuration::nanos(base.as_nanos() * factor as u64)
        }
    }

    pub(crate) fn check_access(
        &self,
        issuer: NodeId,
        target: NodeId,
        region: RegionId,
        offset: usize,
        len: usize,
        write: bool,
    ) -> CompletionStatus {
        let Some(r) = self.nodes[target.index()].regions.get(region.index()) else {
            return CompletionStatus::OutOfBounds;
        };
        if offset + len > r.bytes.len() {
            return CompletionStatus::OutOfBounds;
        }
        if write && issuer != target && !r.write_allowed[issuer.index()] {
            return CompletionStatus::AccessDenied;
        }
        CompletionStatus::Success
    }
}

/// The handle through which a node application interacts with the
/// fabric during an event callback.
///
/// All operations are asynchronous: verbs return a [`WrId`] immediately
/// and complete later through [`Event::Completion`]. This mirrors how
/// the real runtime posts to a QP and polls the completion queue.
pub struct Ctx<'a> {
    pub(crate) fabric: &'a mut Fabric,
    pub(crate) node: NodeId,
    /// The thread the handler runs on: the application CPU, or one of
    /// the node's dedicated threads (an isolated timer, or the
    /// completion of a verb such a thread posted), whose posts are that
    /// thread's work.
    pub(crate) thread: Thread,
}

impl<'a> Ctx<'a> {
    /// A context for a handler on `node`'s application CPU.
    pub(crate) fn new(fabric: &'a mut Fabric, node: NodeId) -> Self {
        Ctx { fabric, node, thread: Thread::APP }
    }
}

impl Ctx<'_> {
    /// Post a verb or message of `kind` moving `bytes` to `target`:
    /// mint its work request, charge the posting CPU, count it
    /// ([`Stats::count_post`]), reserve the NIC and draw its latency.
    /// Returns the request, when it arrives at the target and how long
    /// its completion takes to come back. The NIC is shared by every
    /// thread of the node; the posting cost is the application CPU's —
    /// or, from a dedicated thread's handler, that thread's core's,
    /// which leaves `cpu_free` alone, and a one-sided verb's completion
    /// then comes back to that thread.
    ///
    /// A WRITE or SEND arrives in FIFO order on its pair's clock and
    /// completes on arrival; a READ or CAS acts at half its round trip,
    /// unordered, and completes at the whole.
    fn post(
        &mut self,
        kind: VerbKind,
        target: NodeId,
        bytes: usize,
    ) -> (WrId, SimTime, SimDuration) {
        let (fabric, issuer) = (&mut *self.fabric, self.node);
        let wr = fabric.mint_wr(issuer);
        let cost = fabric.latency.post_cost;
        if self.thread != Thread::APP {
            fabric.stats.isolated_busy_ns[issuer.index()] += cost.as_nanos();
        } else {
            fabric.charge_cpu(issuer, cost);
            fabric.stats.cpu_post_ns[issuer.index()] += cost.as_nanos();
        }
        fabric.stats.count_post(issuer, kind, bytes);
        let tx = fabric.reserve_nic(issuer);
        let lat = fabric.latency.latency(kind, bytes, &mut fabric.rng);
        let lat = fabric.spiked(issuer, target, lat);
        fabric.emit(|| TraceEvent::VerbPosted { issuer, kind, target, wr, bytes });
        match kind {
            VerbKind::Read | VerbKind::CompareAndSwap => {
                let half = SimDuration::nanos(lat.as_nanos() / 2);
                (wr, tx + half, half)
            }
            VerbKind::Write | VerbKind::Send => {
                (wr, fabric.fifo(kind, issuer, target, tx + lat), SimDuration::ZERO)
            }
        }
    }

    /// Post the one-sided verb `op` on `(target, region, offset)`; its
    /// completion comes back to the posting thread.
    fn post_one_sided(&mut self, target: NodeId, region: RegionId, offset: usize, op: Op) -> WrId {
        let (kind, len) = op.shape();
        let (wr, at, return_delay) = self.post(kind, target, len);
        let verb = Action::Verb {
            issuer: narrow(self.node.index()),
            target: narrow(target.index()),
            region: narrow(region.index()),
            offset: narrow(offset),
            wr,
            return_ns: narrow(return_delay.as_nanos() as usize),
            thread: self.thread,
            op,
        };
        self.fabric.push(at, verb);
        wr
    }

    /// The node this context belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.fabric.now
    }

    /// The deterministic RNG of the fabric (shared; use for workload
    /// generation and protocol timeouts).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.fabric.rng
    }

    /// Charge `cost` of local CPU work (e.g. executing a method body) to
    /// the application CPU, whichever handler asks.
    pub fn consume(&mut self, cost: SimDuration) {
        self.fabric.charge_cpu(self.node, cost);
    }

    /// Whether events are parked waiting for this node's CPU — a poll
    /// loop's "the completion queue is not drained yet". They came due
    /// while an earlier charge was running; only delivery parks events,
    /// so the answer holds for the whole handler. False for an event
    /// that found the CPU free, true for every parked event but the
    /// last to leave; a dedicated thread's event (an isolated timer, a
    /// completion of what it posted) never waits, so never counts.
    ///
    /// A counted event can still leave without a handler call (a
    /// message a partition holds back, a crashed node), so whoever
    /// defers work on this needs a timer behind it.
    pub fn cpu_backlog(&self) -> bool {
        !self.fabric.nodes[self.node.index()].waiting.is_empty()
    }

    /// The configured latency model (read-only).
    pub fn latency(&self) -> &LatencyModel {
        &self.fabric.latency
    }

    /// Record a protocol-level trace event, if the run collects a trace.
    ///
    /// The closure runs only when it does, so hot paths pay a single
    /// branch when tracing is off.
    #[inline]
    pub fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        self.fabric.emit(make);
    }

    /// Record that the WRITE just posted carried `slots` ring entries.
    ///
    /// The fabric cannot tell ring-slot WRITEs from other one-sided
    /// traffic, so the runtime reports them; `ring_slots / ring_writes`
    /// in [`Stats`] is then the achieved doorbell-batching factor.
    pub fn note_ring_write(&mut self, slots: u64) {
        self.fabric.stats.ring_writes += 1;
        self.fabric.stats.ring_slots += slots;
    }

    /// Post a one-sided RDMA WRITE of `data` into
    /// `(target, region, offset)`.
    ///
    /// Completes with [`CompletionStatus::Success`] once the data is
    /// placed, [`CompletionStatus::AccessDenied`] if write permission
    /// was revoked, or [`CompletionStatus::OutOfBounds`]. The target's
    /// CPU is *not* involved. Writes from one node to the same target
    /// land in posting order (RC FIFO).
    pub fn post_write(
        &mut self,
        target: NodeId,
        region: RegionId,
        offset: usize,
        data: &[u8],
    ) -> WrId {
        let op = Op::Write { buf: self.fabric.write_bufs.take(data), len: narrow(data.len()) };
        self.post_one_sided(target, region, offset, op)
    }

    /// Post a one-sided RDMA READ of `len` bytes from
    /// `(target, region, offset)`. Completes with the fetched bytes.
    pub fn post_read(
        &mut self,
        target: NodeId,
        region: RegionId,
        offset: usize,
        len: usize,
    ) -> WrId {
        self.post_one_sided(target, region, offset, Op::Read(narrow(len)))
    }

    /// Post a one-sided compare-and-swap on the 8-byte little-endian
    /// word at `(target, region, offset)`. Completes with the *prior*
    /// value; the swap happened iff the prior value equals `expected`.
    pub fn post_cas(
        &mut self,
        target: NodeId,
        region: RegionId,
        offset: usize,
        expected: u64,
        swap: u64,
    ) -> WrId {
        self.post_one_sided(target, region, offset, Op::Cas { expected, swap })
    }

    /// Send a two-sided message (SEND/RECV through the network stack).
    /// Costs the receiver CPU time on delivery; per-pair FIFO.
    pub fn send(&mut self, target: NodeId, payload: Vec<u8>) {
        let (_, at, _) = self.post(VerbKind::Send, target, payload.len());
        let from = self.node;
        self.fabric.push(at, Action::deliver(target, Event::Message { from, payload }));
    }

    /// Arm a timer that fires after `delay` with the given tag.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        self.arm_timer(delay, tag, Thread::APP)
    }

    /// Arm a timer that fires on `thread` after `delay`.
    fn arm_timer(&mut self, delay: SimDuration, tag: u64, thread: Thread) -> TimerId {
        let nf = &mut self.fabric.nodes[self.node.index()];
        let id = TimerId(nf.next_timer);
        nf.next_timer += 1;
        let at = self.fabric.now + delay;
        let node = narrow(self.node.index());
        self.fabric.push(at, Action::Deliver { node, thread, event: Event::Timer { id, tag } });
        id
    }

    /// Arm a timer that fires *even while the node's CPU is busy* —
    /// the moral equivalent of a dedicated thread on another core
    /// (§4's heartbeat thread). A dedicated thread's verbs and their
    /// completions belong to that thread: what its handler posts is
    /// charged to [`Stats::isolated_busy_ns`] and leaves the
    /// application CPU alone, and those verbs' completions are handled
    /// at once, like the timer, even while the CPU is busy. CPU time
    /// charged with [`consume`](Ctx::consume) stays the application
    /// CPU's. Use sparingly: handlers still share application state.
    pub fn set_timer_isolated(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let thread = self.fabric.nodes[self.node.index()].dedicated();
        self.arm_timer(delay, tag, thread)
    }

    /// Read this node's own region memory (free: local access).
    ///
    /// # Panics
    ///
    /// Panics if the region or range is invalid.
    pub fn local(&self, region: RegionId, offset: usize, len: usize) -> &[u8] {
        &self.fabric.nodes[self.node.index()].regions[region.index()].bytes[offset..offset + len]
    }

    /// Write this node's own region memory (free: local access).
    ///
    /// On a durable region the store is *volatile until fenced*: it
    /// reaches the durable shadow only at the next
    /// [`fence_region`](Ctx::fence_region) and is lost by a
    /// crash-restart that drops unfenced writes.
    ///
    /// # Panics
    ///
    /// Panics if the region or range is invalid.
    pub fn local_write(&mut self, region: RegionId, offset: usize, data: &[u8]) {
        let r = &mut self.fabric.nodes[self.node.index()].regions[region.index()];
        r.bytes[offset..offset + data.len()].copy_from_slice(data);
        r.mark_dirty(offset, data.len());
    }

    /// Synchronously persist every unfenced local store to `region`'s
    /// durable shadow (a flush + fence over the dirty span, like a
    /// `clwb`+`sfence` sequence on persistent memory). No-op for
    /// volatile regions. Remote one-sided writes need no fence — they
    /// are durable once landed.
    pub fn fence_region(&mut self, region: RegionId) {
        self.fabric.nodes[self.node.index()].regions[region.index()].fence();
    }

    /// Grant or revoke write permission on a local region for a source
    /// node (local, instantaneous operation by the region owner — the
    /// QP permission mechanism of Mu).
    pub fn set_write_permission(&mut self, region: RegionId, source: NodeId, allowed: bool) {
        self.fabric.nodes[self.node.index()].regions[region.index()].write_allowed
            [source.index()] = allowed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_numbers_entries_in_queueing_order() {
        let mut f = Fabric::new(1, LatencyModel::deterministic(), 0);
        f.push(SimTime(10), Action::InjectFault(Box::new(Fault::Crash(NodeId(0)))));
        f.push(SimTime(5), Action::InjectFault(Box::new(Fault::Crash(NodeId(0)))));
        f.push(SimTime(5), Action::InjectFault(Box::new(Fault::TornWrites(NodeId(0)))));
        let (t1, s1, a1) = f.queue.pop().unwrap();
        let (t2, s2, a2) = f.queue.pop().unwrap();
        let (t3, s3, _) = f.queue.pop().unwrap();
        assert_eq!((t1, s1), (SimTime(5), 1));
        assert!(matches!(a1, Action::InjectFault(f) if matches!(*f, Fault::Crash(_))));
        assert_eq!((t2, s2), (SimTime(5), 2));
        assert!(matches!(a2, Action::InjectFault(f) if matches!(*f, Fault::TornWrites(_))));
        assert_eq!((t3, s3), (SimTime(10), 0));
    }

    /// Every queued entry is written into the event queue's slab and
    /// read back out of it.
    #[test]
    fn an_action_is_at_most_56_bytes() {
        assert!(std::mem::size_of::<Action>() <= 56, "{}", std::mem::size_of::<Action>());
    }

    #[test]
    fn cpu_charging_accumulates() {
        let mut f = Fabric::new(1, LatencyModel::deterministic(), 0);
        let t1 = f.charge_cpu(NodeId(0), SimDuration::nanos(100));
        let t2 = f.charge_cpu(NodeId(0), SimDuration::nanos(50));
        assert_eq!(t1, SimTime(100));
        assert_eq!(t2, SimTime(150));
    }

    #[test]
    fn fifo_channel_is_monotonic() {
        let mut f = Fabric::new(2, LatencyModel::deterministic(), 0);
        let (w, s) = (VerbKind::Write, VerbKind::Send);
        let a = f.fifo(w, NodeId(0), NodeId(1), SimTime(100));
        let b = f.fifo(w, NodeId(0), NodeId(1), SimTime(50));
        assert_eq!(a, SimTime(100));
        assert_eq!(b, SimTime(100), "later post cannot land earlier");
        // SENDs keep their own clock, as does each pair.
        assert_eq!(f.fifo(s, NodeId(0), NodeId(1), SimTime(50)), SimTime(50));
        assert_eq!(f.fifo(s, NodeId(0), NodeId(1), SimTime(20)), SimTime(50));
        assert_eq!(f.fifo(w, NodeId(1), NodeId(0), SimTime(50)), SimTime(50));
    }

    #[test]
    fn delay_spike_scales_latency_within_window() {
        let mut f = Fabric::new(2, LatencyModel::deterministic(), 0);
        f.nodes[1].delay_factor = 4;
        f.nodes[1].delay_until = SimTime(1_000);
        let base = SimDuration::nanos(100);
        // Either endpoint being spiked scales the latency.
        assert_eq!(f.spiked(NodeId(0), NodeId(1), base), SimDuration::nanos(400));
        assert_eq!(f.spiked(NodeId(1), NodeId(0), base), SimDuration::nanos(400));
        assert_eq!(f.spiked(NodeId(0), NodeId(0), base), base);
        // Expired spike no longer applies.
        f.now = SimTime(1_000);
        assert_eq!(f.spiked(NodeId(0), NodeId(1), base), base);
    }

    #[test]
    fn partition_blocks_cross_side_only() {
        let mut f = Fabric::new(3, LatencyModel::deterministic(), 0);
        f.part_a[0] = true;
        f.part_b[1] = true;
        f.part_b[2] = true;
        assert!(f.partition_blocks(NodeId(0), NodeId(1)));
        assert!(f.partition_blocks(NodeId(2), NodeId(0)));
        assert!(!f.partition_blocks(NodeId(1), NodeId(2)));
        assert!(!f.partition_blocks(NodeId(0), NodeId(0)));
    }

    #[test]
    fn access_checks() {
        let mut f = Fabric::new(2, LatencyModel::deterministic(), 0);
        f.nodes[1].regions.push(Region::new(64, 2, false));
        assert_eq!(
            f.check_access(NodeId(0), NodeId(1), RegionId(0), 0, 64, true),
            CompletionStatus::Success
        );
        assert_eq!(
            f.check_access(NodeId(0), NodeId(1), RegionId(0), 60, 8, true),
            CompletionStatus::OutOfBounds
        );
        assert_eq!(
            f.check_access(NodeId(0), NodeId(1), RegionId(1), 0, 1, false),
            CompletionStatus::OutOfBounds
        );
        f.nodes[1].regions[0].write_allowed[0] = false;
        assert_eq!(
            f.check_access(NodeId(0), NodeId(1), RegionId(0), 0, 8, true),
            CompletionStatus::AccessDenied
        );
        // Reads ignore write permission; owner writes ignore it too.
        assert_eq!(
            f.check_access(NodeId(0), NodeId(1), RegionId(0), 0, 8, false),
            CompletionStatus::Success
        );
        assert_eq!(
            f.check_access(NodeId(1), NodeId(1), RegionId(0), 0, 8, true),
            CompletionStatus::Success
        );
    }
}
