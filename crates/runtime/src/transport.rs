//! The transport seam: everything the protocol layers need from the
//! fabric, as a trait.
//!
//! [`HambandNode`](crate::replica::HambandNode), the ring endpoints in
//! [`rings`](crate::rings), the failure detector in
//! [`heartbeat`](crate::heartbeat), and the per-group engines in
//! [`conf`](crate::conf) are all generic over [`Transport`] instead of
//! calling [`rdma_sim::Ctx`] directly. The trait captures exactly the
//! surface the runtime consumes:
//!
//! * **one-sided verbs** — [`post_write`](Transport::post_write) and
//!   [`post_read`](Transport::post_read): asynchronous, completing
//!   later through [`Event::Completion`](rdma_sim::Event). There is no
//!   compare-and-swap: the protocol avoids CAS by design (§2), and the
//!   ablation that prices it drives the simulator directly;
//! * **messaging** — [`send`](Transport::send), the two-sided slow path
//!   (elections, announcements, retirement);
//! * **timers** — [`set_timer`](Transport::set_timer) and the
//!   dedicated-thread variant
//!   [`set_timer_isolated`](Transport::set_timer_isolated);
//! * **local memory** — [`local`](Transport::local) /
//!   [`local_write`](Transport::local_write) over registered regions;
//! * **permissions** — [`set_write_permission`](Transport::set_write_permission),
//!   the QP-permission mechanism Mu-style consensus uses for leader
//!   exclusion;
//! * **trace & accounting hooks** — [`emit`](Transport::emit),
//!   [`charge_apply`](Transport::charge_apply),
//!   [`note_ring_write`](Transport::note_ring_write).
//!
//! Two implementations exist: [`rdma_sim::Ctx`] (the discrete-event
//! simulator with latency and fault modelling) and the
//! [`threaded`](crate::threaded) backend (one OS thread per replica
//! over process-shared atomic memory, real wall-clock timers). A
//! real-ibverbs backend would be a third implementor; nothing in the
//! protocol modules names the simulator.
//!
//! The *vocabulary* types ([`NodeId`], [`RegionId`], [`WrId`],
//! [`Event`](rdma_sim::Event), [`TraceEvent`], [`SimTime`]) are shared
//! across backends — the trait abstracts the operations, not the
//! wire-level identifiers.

use rdma_sim::{Ctx, NodeId, RegionId, SimDuration, SimTime, TimerId, TraceEvent, WrId};

/// The operations a Hamband replica requires from its fabric.
///
/// All verb methods are asynchronous: they return a [`WrId`]
/// immediately and complete later through an
/// [`Event::Completion`](rdma_sim::Event) delivered to the node. Writes
/// from one node to one target land in posting order (RC FIFO), and a
/// successful WRITE completion means the data is placed in the remote
/// region without remote CPU involvement — implementations must
/// preserve both properties, the protocol depends on them.
pub trait Transport {
    /// The node this transport handle belongs to.
    fn node(&self) -> NodeId;

    /// Current (virtual) time.
    fn now(&self) -> SimTime;

    /// Charge the local CPU for executing one method body, and return
    /// the modelled cost charged (a query's whole service time).
    fn charge_apply(&mut self) -> SimDuration;

    /// Record a protocol-level trace event, if the run collects a
    /// trace. The closure must only run when it does, so hot paths pay
    /// a single branch when tracing is off.
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent);

    /// Record that the WRITE just posted carried `slots` ring entries
    /// (doorbell-batching accounting).
    fn note_ring_write(&mut self, slots: u64);

    /// Post a one-sided RDMA WRITE of `data` into
    /// `(target, region, offset)`.
    fn post_write(&mut self, target: NodeId, region: RegionId, offset: usize, data: &[u8]) -> WrId;

    /// Post a one-sided RDMA READ of `len` bytes from
    /// `(target, region, offset)`; the completion carries the bytes.
    fn post_read(&mut self, target: NodeId, region: RegionId, offset: usize, len: usize) -> WrId;

    /// Send a two-sided message (SEND/RECV; costs receiver CPU).
    fn send(&mut self, target: NodeId, payload: Vec<u8>);

    /// Arm a timer that fires after `delay` with the given tag.
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId;

    /// Arm a timer that fires even while the node's CPU is busy — the
    /// moral equivalent of a dedicated thread (§4's heartbeat thread).
    fn set_timer_isolated(&mut self, delay: SimDuration, tag: u64) -> TimerId;

    /// Read this node's own region memory (free: local access).
    ///
    /// Takes `&mut self` so backends whose regions live in shared
    /// memory (the threaded backend) can snapshot the atomically
    /// published words into an owned scratch buffer and return a view
    /// of it; in-process backends just return the region bytes.
    fn local(&mut self, region: RegionId, offset: usize, len: usize) -> &[u8];

    /// Write this node's own region memory (free: local access).
    fn local_write(&mut self, region: RegionId, offset: usize, data: &[u8]);

    /// Grant or revoke write permission on a local region for a source
    /// node (the QP permission mechanism of Mu; local, instantaneous).
    fn set_write_permission(&mut self, region: RegionId, source: NodeId, allowed: bool);

    /// Make this node's *local* stores to a durable region survive a
    /// crash-restart (see [`crate::persist`]). Remote one-sided WRITEs
    /// are durable as they land; local CPU stores are not until fenced.
    /// A backend without a durability model (threaded — it never sees
    /// restart faults) inherits the no-op default.
    fn fence_region(&mut self, _region: RegionId) {}
}

/// The simulator backend: [`rdma_sim::Ctx`] already exposes exactly
/// this surface, so the impl is a direct pass-through.
impl Transport for Ctx<'_> {
    fn node(&self) -> NodeId {
        Ctx::node(self)
    }
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    fn charge_apply(&mut self) -> SimDuration {
        let cost = self.latency().apply_cost;
        self.consume(cost);
        cost
    }
    fn emit(&mut self, make: impl FnOnce() -> TraceEvent) {
        Ctx::emit(self, make)
    }
    fn note_ring_write(&mut self, slots: u64) {
        Ctx::note_ring_write(self, slots)
    }
    fn post_write(&mut self, target: NodeId, region: RegionId, offset: usize, data: &[u8]) -> WrId {
        Ctx::post_write(self, target, region, offset, data)
    }
    fn post_read(&mut self, target: NodeId, region: RegionId, offset: usize, len: usize) -> WrId {
        Ctx::post_read(self, target, region, offset, len)
    }
    fn send(&mut self, target: NodeId, payload: Vec<u8>) {
        Ctx::send(self, target, payload)
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        Ctx::set_timer(self, delay, tag)
    }
    fn set_timer_isolated(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        Ctx::set_timer_isolated(self, delay, tag)
    }
    fn local(&mut self, region: RegionId, offset: usize, len: usize) -> &[u8] {
        Ctx::local(self, region, offset, len)
    }
    fn local_write(&mut self, region: RegionId, offset: usize, data: &[u8]) {
        Ctx::local_write(self, region, offset, data)
    }
    fn set_write_permission(&mut self, region: RegionId, source: NodeId, allowed: bool) {
        Ctx::set_write_permission(self, region, source, allowed)
    }
    fn fence_region(&mut self, region: RegionId) {
        Ctx::fence_region(self, region)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::{App, Event, LatencyModel, SimDuration, Simulator};

    /// A tiny app written purely against the trait: node 0 writes a
    /// marker into node 1's region through `Transport`, proving the
    /// sim `Ctx` satisfies the seam.
    struct Seam {
        region: RegionId,
        wrote: bool,
        completed: bool,
    }

    fn kick<T: Transport>(t: &mut T, region: RegionId) {
        if t.node() == NodeId(0) {
            t.post_write(NodeId(1), region, 0, b"hamband!");
        }
    }

    impl App for Seam {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            kick(ctx, self.region);
            self.wrote = ctx.node() == NodeId(0);
        }
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, event: Event) {
            if matches!(event, Event::Completion { status, .. } if status.is_success()) {
                self.completed = true;
            }
        }
    }

    #[test]
    fn sim_ctx_satisfies_the_seam() {
        let mut sim = Simulator::new(2, LatencyModel::deterministic(), 1);
        let region = sim.add_region_all(8);
        sim.set_apps(|_| Seam { region, wrote: false, completed: false });
        sim.run_for(SimDuration::millis(1));
        assert!(sim.app(NodeId(0)).wrote);
        assert!(sim.app(NodeId(0)).completed);
        assert_eq!(sim.region_bytes(NodeId(1), region), b"hamband!");
    }
}
