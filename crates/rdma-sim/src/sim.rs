//! The simulator: node applications plus the event loop.

use std::cmp::Reverse;

use crate::fabric::{narrow, Action, Ctx, Fabric, Op, Thread};
use crate::fault::{Fault, FaultPlan};
use crate::latency::LatencyModel;
use crate::region::Region;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceRecord};
use crate::verbs::{AppFault, Event, NodeId, RegionId, VerbKind};

/// A node application: a protocol state machine driven by events.
///
/// One instance runs per node. The simulator calls
/// [`on_start`](App::on_start) once before any event, then
/// [`on_event`](App::on_event) for each delivered event. Applications
/// interact with the fabric exclusively through the [`Ctx`] handle.
pub trait App {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// Called for every delivered event.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event);

    /// Called once when the node restarts after a crash
    /// ([`Fault::Restart`]). Volatile regions have been zeroed and
    /// durable regions rolled back to their fenced contents (or
    /// resynced, depending on the fault's `lose_unfenced` flag) before
    /// this runs. The default does nothing — crash-stop applications
    /// never see it.
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// A deterministic discrete-event simulation of an RDMA cluster running
/// one application instance per node.
///
/// ```
/// use rdma_sim::{App, Ctx, Event, LatencyModel, SimDuration, Simulator};
///
/// struct Pinger { region: rdma_sim::RegionId, done: bool }
/// impl App for Pinger {
///     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
///         if ctx.node().index() == 0 {
///             ctx.post_write(rdma_sim::NodeId(1), self.region, 0, b"hi");
///         }
///     }
///     fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: Event) {
///         if matches!(event, Event::Completion { .. }) {
///             self.done = true;
///         }
///     }
/// }
///
/// let mut sim = Simulator::new(2, LatencyModel::deterministic(), 7);
/// let region = sim.add_region_all(64);
/// sim.set_apps(|_| Pinger { region, done: false });
/// sim.run_for(SimDuration::millis(1));
/// assert!(sim.app(rdma_sim::NodeId(0)).done);
/// assert_eq!(&sim.region_bytes(rdma_sim::NodeId(1), region)[..2], b"hi");
/// ```
pub struct Simulator<A> {
    fabric: Fabric,
    apps: Vec<A>,
    started: bool,
    last_fault_at: SimTime,
}

impl<A: App> Simulator<A> {
    /// A simulator for `n` nodes with the given latency model and RNG
    /// seed. Applications must be installed with [`set_apps`] before
    /// running.
    ///
    /// [`set_apps`]: Simulator::set_apps
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, latency: LatencyModel, seed: u64) -> Self {
        Simulator {
            fabric: Fabric::new(n, latency, seed),
            apps: Vec::new(),
            started: false,
            last_fault_at: SimTime::ZERO,
        }
    }

    /// Cluster size.
    pub fn len(&self) -> usize {
        self.fabric.len()
    }

    /// Whether the cluster is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.fabric.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.fabric.now()
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &Stats {
        self.fabric.stats()
    }

    /// Collect the run's structured events from now on (verb activity
    /// from the fabric, protocol events from applications via
    /// [`Ctx::emit`]), in the order they happen; [`take_trace`] drains
    /// them.
    ///
    /// [`take_trace`]: Simulator::take_trace
    pub fn collect_trace(&mut self) {
        self.fabric.trace.get_or_insert_with(Vec::new);
    }

    /// Move the events collected so far out, leaving collection on
    /// (empty when it was never turned on).
    pub fn take_trace(&mut self) -> Vec<TraceRecord> {
        self.fabric.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Register a region of `size` bytes on every node, writable by all
    /// peers until permissions are revoked; all nodes get the same
    /// [`RegionId`].
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation started.
    pub fn add_region_all(&mut self, size: usize) -> RegionId {
        self.add_region_everywhere(size, false)
    }

    /// Register the same-sized *durable* region on every node: its
    /// contents survive a [`Fault::Restart`]. Remote writes become
    /// durable as they land (the NIC writes through to persistence, as
    /// on PMEM with DDIO disabled); local writes are volatile until
    /// [`Ctx::fence_region`].
    pub fn add_region_all_durable(&mut self, size: usize) -> RegionId {
        self.add_region_everywhere(size, true)
    }

    fn add_region_everywhere(&mut self, size: usize, durable: bool) -> RegionId {
        assert!(!self.started, "regions must be registered before start");
        let n = self.fabric.len();
        // Every region is registered on every node, so ids agree.
        let id = RegionId(self.fabric.nodes[0].regions.len());
        for nf in &mut self.fabric.nodes {
            nf.regions.push(Region::new(size, n, durable));
        }
        id
    }

    /// Install applications for all nodes from a constructor, replacing
    /// any installed before. Each is handled in place: the event loop
    /// borrows it beside a [`Ctx`] on the fabric and never moves it.
    pub fn set_apps(&mut self, make: impl FnMut(NodeId) -> A) {
        self.apps = (0..self.len()).map(NodeId).map(make).collect();
    }

    /// Schedule a fault plan (also mid-run, on top of earlier ones).
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for (t, fault) in plan.entries() {
            self.last_fault_at = self.last_fault_at.max(t);
            self.fabric.push(t, Action::InjectFault(Box::new(fault)));
        }
    }

    /// The latest time any installed plan schedules a fault at (zero
    /// with none): until the clock passes it, a fault is still to fire.
    pub fn last_fault_at(&self) -> SimTime {
        self.last_fault_at
    }

    /// Borrow a node's application.
    ///
    /// # Panics
    ///
    /// Panics before [`set_apps`](Simulator::set_apps) has run.
    pub fn app(&self, node: NodeId) -> &A {
        self.apps.get(node.index()).expect("set_apps installed every node's application")
    }

    /// Mutably borrow a node's application (for drivers injecting work
    /// between slices of simulation).
    ///
    /// # Panics
    ///
    /// Panics before [`set_apps`](Simulator::set_apps) has run.
    pub fn app_mut(&mut self, node: NodeId) -> &mut A {
        self.apps.get_mut(node.index()).expect("set_apps installed every node's application")
    }

    /// Run a closure with a node's application *and* a fabric context,
    /// letting external drivers issue work on the node's behalf.
    pub fn with_app_ctx<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<'_>) -> R,
    ) -> R {
        let app =
            self.apps.get_mut(node.index()).expect("set_apps installed every node's application");
        f(app, &mut Ctx::new(&mut self.fabric, node))
    }

    /// Whether a node has crashed (fail-stop).
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.fabric.nodes[node.index()].crashed
    }

    /// When `node`'s CPU is next free: later than [`now`](Simulator::now)
    /// while it still pays for work a handler charged.
    pub fn cpu_free_at(&self, node: NodeId) -> SimTime {
        self.fabric.nodes[node.index()].cpu_free
    }

    /// Inspect a node's region memory (driver/test introspection).
    pub fn region_bytes(&self, node: NodeId, region: RegionId) -> &[u8] {
        &self.fabric.nodes[node.index()].regions[region.index()].bytes
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        assert_eq!(
            self.apps.len(),
            self.len(),
            "applications installed with set_apps before running"
        );
        self.started = true;
        for (i, app) in self.apps.iter_mut().enumerate() {
            app.on_start(&mut Ctx::new(&mut self.fabric, NodeId(i)));
        }
    }

    /// Process events until the queue is exhausted or virtual time
    /// exceeds `deadline`. Returns the time reached.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.start();
        while let Some(due) = self.fabric.queue.next_time() {
            if due > deadline {
                self.fabric.now = deadline;
                return deadline;
            }
            let (time, seq, action) = self.fabric.queue.pop().expect("peeked");
            self.fabric.now = self.fabric.now.max(time);
            self.dispatch(seq, action);
        }
        self.fabric.now = self.fabric.now.max(deadline);
        deadline
    }

    /// Run for a span of virtual time from now.
    pub fn run_for(&mut self, span: SimDuration) -> SimTime {
        let deadline = self.now() + span;
        self.run_until(deadline)
    }

    /// Whether any event is pending.
    pub fn has_pending(&self) -> bool {
        !self.fabric.queue.is_empty()
    }

    /// Entries in the global event queue. However many events wait for
    /// one node's CPU, they stand behind a single entry: its wake.
    pub fn pending_events(&self) -> usize {
        self.fabric.queue.len()
    }

    fn dispatch(&mut self, seq: u64, action: Action) {
        // An active partition parks cross-side traffic (one-sided verbs
        // and messages) instead of dropping it: an RC transport
        // retransmits through a transient link outage, so the operation
        // is delayed, not failed. Parked actions keep their original
        // sequence numbers and are released by `Fault::Heal`, which
        // preserves per-channel FIFO order (the heap orders equal times
        // by sequence). Responses already in flight when the partition
        // starts are delivered normally.
        if self.fabric.partitioned {
            if let Some((a, b)) = action.endpoints() {
                if self.fabric.partition_blocks(a, b) {
                    self.fabric.parked.push((seq, action));
                    return;
                }
            }
        }
        match action {
            Action::Deliver { node, thread, event } => {
                self.deliver(seq, NodeId(node as usize), thread, event)
            }
            Action::Verb {
                issuer: from,
                target: to,
                region: mr,
                offset: off,
                wr,
                return_ns,
                thread,
                op,
            } => {
                let (kind, len) = op.shape();
                let write = kind != VerbKind::Read;
                let (issuer, target) = (NodeId(from as usize), NodeId(to as usize));
                let (region, offset) = (RegionId(mr as usize), off as usize);
                let status = self.fabric.check_access(issuer, target, region, offset, len, write);
                let mut data = None;
                if status.is_success() {
                    let fabric = &mut self.fabric;
                    let nf = &mut fabric.nodes[target.index()];
                    let torn = nf.torn_writes;
                    let r = &mut nf.regions[region.index()];
                    match op {
                        Op::Write { buf, .. } if torn && len > 1 => {
                            // Tear: all but the last byte now, the last
                            // byte (where protocols put their canary)
                            // later; the tail completes the request and
                            // gives the buffer back.
                            let split = len - 1;
                            let bytes = fabric.write_bufs.tail(buf, len);
                            r.bytes[offset..offset + split].copy_from_slice(&bytes[..split]);
                            r.land_through(offset, split);
                            let tail = Action::Verb {
                                issuer: from,
                                target: to,
                                region: mr,
                                offset: off + narrow(split),
                                wr,
                                return_ns,
                                thread,
                                op: Op::Write { buf, len: 1 },
                            };
                            fabric.push(fabric.now + SimDuration::nanos(400), tail);
                            return;
                        }
                        // Remote writes are durable on landing: the NIC
                        // writes through to persistence.
                        Op::Write { buf, .. } => {
                            let bytes = fabric.write_bufs.tail(buf, len);
                            r.bytes[offset..offset + len].copy_from_slice(bytes);
                            r.land_through(offset, len);
                        }
                        Op::Read(_) => data = Some(r.bytes[offset..offset + len].to_vec()),
                        Op::Cas { expected, swap } => {
                            let prior = &mut r.bytes[offset..offset + 8];
                            data = Some(prior.to_vec());
                            if *prior == expected.to_le_bytes() {
                                prior.copy_from_slice(&swap.to_le_bytes());
                                r.land_through(offset, 8);
                            }
                        }
                    }
                }
                if let Op::Write { buf, .. } = op {
                    self.fabric.write_bufs.give_back(buf);
                }
                self.fabric.emit(|| TraceEvent::VerbCompleted { issuer, kind, wr, status });
                let event = Event::Completion { wr, kind, status, data };
                // The one place a completion's instant is set. A WRITE's
                // comes due as it lands: with nothing else queued for this
                // instant, its entry would pop next, so it is handled now
                // under the seq that entry would have had (a completion
                // crosses no partition check).
                let at = self.fabric.now + SimDuration::nanos(u64::from(return_ns));
                if at == self.fabric.now && self.fabric.queue.pops_first(at, self.fabric.seq) {
                    let seq = self.fabric.mint_seq();
                    self.deliver(seq, issuer, thread, event);
                } else {
                    self.fabric.push(at, Action::Deliver { node: from, thread, event });
                }
            }
            Action::InjectFault(fault) => self.inject(*fault),
            Action::Wake { node } => self.wake(seq, node),
        }
    }

    /// `node`'s earliest waiting events are due. If the CPU is free (or
    /// the node crashed) the first of them takes the path of any
    /// arriving event — partition check, crash drop, duplication,
    /// delivery — and the wake is re-armed for the next; if the CPU was
    /// extended meanwhile they all wait on. A next head due now whose
    /// wake would pop next is taken here instead of being queued.
    fn wake(&mut self, seq: u64, node: NodeId) {
        let now = self.fabric.now;
        if self.fabric.nodes[node.index()].wake != Some((now, seq)) {
            // Superseded: an event with a lower seq joined the set.
            return;
        }
        loop {
            let nf = &mut self.fabric.nodes[node.index()];
            nf.wake = None;
            if nf.cpu_free > now && !nf.crashed {
                self.wait_on(node);
            } else {
                let first = nf.waiting.pop_head();
                self.dispatch(first.seq, Action::deliver(node, first.event));
            }
            match self.fabric.nodes[node.index()].waiting.head() {
                Some((due, next)) if due == now && self.fabric.queue.pops_first(due, next) => {}
                _ => break,
            }
        }
        self.fabric.arm_wake(node);
    }

    /// The set due now finds `node` alive and its CPU busy: it joins
    /// the events waiting for the new `cpu_free`. Coming due is a pass
    /// through `dispatch` for every member, so an active partition
    /// takes the messages it separates and a pending
    /// `DuplicateCompletion` goes to the first completion.
    fn wait_on(&mut self, node: NodeId) {
        let fabric = &mut self.fabric;
        let mut set = fabric.nodes[node.index()].waiting.take_first();
        if fabric.partitioned {
            let (held, free): (Vec<_>, Vec<_>) = set.into_iter().partition(|Reverse(w)| {
                matches!(&w.event, Event::Message { from, .. } if fabric.partition_blocks(*from, node))
            });
            fabric
                .parked
                .extend(held.into_iter().map(|Reverse(w)| (w.seq, Action::deliver(node, w.event))));
            set = free.into();
        }
        if fabric.nodes[node.index()].duplicate_next_completion {
            let first = set
                .iter()
                .filter(|Reverse(w)| matches!(w.event, Event::Completion { .. }))
                .min_by_key(|Reverse(w)| w.seq);
            if let Some(Reverse(w)) = first {
                fabric.duplicate_completion(node, &w.event);
            }
        }
        let nf = &mut fabric.nodes[node.index()];
        nf.waiting.put(nf.cpu_free, set);
    }

    fn deliver(&mut self, seq: u64, node: NodeId, thread: Thread, event: Event) {
        let nf = &self.fabric.nodes[node.index()];
        if nf.crashed {
            return;
        }
        // Fault mode: deliver the next completion twice (at-least-once
        // completion semantics, as across QP error recovery). The
        // duplicate is a fresh queue entry at the same timestamp, so it
        // arrives right after the original.
        if nf.duplicate_next_completion && matches!(&event, Event::Completion { .. }) {
            self.fabric.duplicate_completion(node, &event);
        }
        let nf = &self.fabric.nodes[node.index()];
        // Respect the node's CPU availability: if it is busy, the event
        // waits — keeping its original sequence number so arrival order
        // is preserved among waiting and fresh events. A dedicated
        // thread's events — its timers and the completions of the verbs
        // it posted, stamped with the node's current life — run on its
        // own core and bypass the wait, so they are handled now. A stamp
        // of an earlier life is the application CPU's: that thread died
        // with the restart.
        let thread = if thread == nf.dedicated() { thread } else { Thread::APP };
        if thread == Thread::APP && nf.cpu_free > self.fabric.now {
            self.fabric.park(node, seq, event);
            return;
        }
        // Two-sided receive path costs CPU (the network stack).
        if matches!(event, Event::Message { .. }) {
            let cost = self.fabric.latency.recv_cpu_cost;
            self.fabric.charge_cpu(node, cost);
        }
        self.apps[node.index()]
            .on_event(&mut Ctx { fabric: &mut self.fabric, node, thread }, event);
    }

    fn inject(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(n) => {
                self.fabric.nodes[n.index()].crashed = true;
            }
            Fault::TornWrites(n) => {
                self.fabric.nodes[n.index()].torn_writes = true;
            }
            Fault::SuspendHeartbeat(n) => {
                let seq = self.fabric.mint_seq();
                self.deliver(
                    seq,
                    n,
                    Thread::APP,
                    Event::Fault { kind: AppFault::SuspendHeartbeat },
                );
            }
            Fault::ResumeHeartbeat(n) => {
                let seq = self.fabric.mint_seq();
                self.deliver(seq, n, Thread::APP, Event::Fault { kind: AppFault::ResumeHeartbeat });
            }
            Fault::DelaySpike(n, factor, duration) => {
                let until = self.fabric.now + duration;
                let nf = &mut self.fabric.nodes[n.index()];
                nf.delay_factor = factor.max(1);
                nf.delay_until = until;
            }
            Fault::Partition(a, b) => {
                for flag in self.fabric.part_a.iter_mut() {
                    *flag = false;
                }
                for flag in self.fabric.part_b.iter_mut() {
                    *flag = false;
                }
                for n in &a {
                    self.fabric.part_a[n.index()] = true;
                }
                for n in &b {
                    self.fabric.part_b[n.index()] = true;
                }
                self.fabric.partitioned = !a.is_empty() && !b.is_empty();
            }
            Fault::Heal => {
                self.fabric.partitioned = false;
                for flag in self.fabric.part_a.iter_mut() {
                    *flag = false;
                }
                for flag in self.fabric.part_b.iter_mut() {
                    *flag = false;
                }
                // Release parked traffic at heal time with the original
                // sequence numbers: per-channel order is preserved.
                let parked = std::mem::take(&mut self.fabric.parked);
                let at = self.fabric.now;
                for (seq, action) in parked {
                    self.fabric.push_with_seq(at, seq, action);
                }
            }
            Fault::DuplicateCompletion(n) => {
                self.fabric.nodes[n.index()].duplicate_next_completion = true;
            }
            Fault::Restart(n, lose_unfenced) => {
                // Restart of a live node is a no-op: the matching crash
                // may have been removed by plan shrinking.
                if !self.fabric.nodes[n.index()].crashed {
                    return;
                }
                let now = self.fabric.now;
                let nf = &mut self.fabric.nodes[n.index()];
                nf.reset_for_restart(now);
                for r in nf.regions.iter_mut() {
                    r.restart(lose_unfenced);
                }
                self.apps[n.index()].on_restart(&mut Ctx::new(&mut self.fabric, n));
            }
        }
    }
}

impl<A> std::fmt::Debug for Simulator<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.fabric.len())
            .field("now", &self.fabric.now())
            .field("pending", &self.fabric.queue.len())
            .finish()
    }
}
