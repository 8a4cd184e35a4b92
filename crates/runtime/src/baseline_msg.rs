//! The message-passing CRDT baseline (MSG) of the evaluation.
//!
//! Op-based CRDT replication over the two-sided channel: an update is
//! applied locally and broadcast as a message carrying the call and its
//! dependency map; receivers buffer out-of-causal-order calls until
//! their dependencies are satisfied, apply them, and send an
//! acknowledgement back. The client is acknowledged once every peer has
//! confirmed receipt — the delivery guarantee a reliable op-based CRDT
//! broadcast provides.
//!
//! Every message traverses the modelled network and OS stack and costs
//! receiver CPU, which is exactly the asymmetry against one-sided RDMA
//! that the paper's MSG-vs-Hamband comparison measures (Figs. 8, 9).

use std::collections::{HashMap, VecDeque};

use hamband_core::coord::{CoordSpec, GroupMapper};
use hamband_core::counts::CountMap;
use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_core::object::{ObjectSpec, WorkloadSupport};
use hamband_core::wire::{DecodeError, Reader, Wire, Writer};
use rdma_sim::{App, AppFault, Ctx, Event, NodeId, Phase, SimTime, TraceEvent};

use crate::codec::Entry;
use crate::driver::{Planned, WorkloadSpec};
use crate::ingress::{Ingress, SessionStats};
use crate::metrics::NodeMetrics;
use crate::transport::Transport;
use crate::verdict::HarnessNode;

const TAG_PUMP: u64 = 0;

/// Wire frame of the MSG baseline.
enum Frame<U> {
    /// An update call with its dependency map.
    Op(Entry<U>),
    /// Receipt acknowledgement for the sender's call `seq`.
    Ack(u64),
}

impl<U: Wire> Frame<U> {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Frame::Op(e) => {
                w.u8(0);
                let payload = e.encode_payload();
                w.lp_bytes(&payload);
            }
            Frame::Ack(seq) => {
                w.u8(1);
                w.varint(*seq);
            }
        }
        w.into_vec()
    }

    fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        match r.u8()? {
            0 => Ok(Frame::Op(Entry::decode_payload(r.lp_bytes()?)?)),
            1 => Ok(Frame::Ack(r.varint()?)),
            _ => Err(DecodeError),
        }
    }
}

/// A replica of the message-passing CRDT baseline.
///
/// Only meaningful for conflict-free objects (the paper's MSG baseline
/// covers the CRDT use-cases); constructing it for an object with
/// conflicting methods panics.
pub struct MsgCrdtNode<O: ObjectSpec> {
    spec: O,
    coord: CoordSpec,
    me: NodeId,
    n: usize,
    state: O::State,
    applied: CountMap,
    /// Buffered out-of-order remote calls, per source.
    pending: Vec<VecDeque<Entry<O::Update>>>,
    ingress: Ingress,
    /// Own call seq → (acks still expected, issue time, method,
    /// issuing session).
    awaiting: HashMap<u64, (usize, SimTime, MethodId, u32)>,
    next_seq: u64,
    halted: bool,
    /// Exposed measurements.
    pub metrics: NodeMetrics,
}

impl<O: WorkloadSupport> MsgCrdtNode<O> {
    /// Build the baseline replica.
    ///
    /// # Panics
    ///
    /// Panics if the object has conflicting methods (MSG provides no
    /// synchronization).
    pub fn new(spec: O, coord: CoordSpec, me: NodeId, n: usize, workload: WorkloadSpec) -> Self {
        assert!(
            coord.sync_groups().is_empty(),
            "the MSG baseline only replicates conflict-free objects"
        );
        let state = spec.initial();
        // The MSG baseline recovers nothing: sessions are bounded by
        // their windows alone.
        let mapper = GroupMapper::identity(&coord);
        let ingress = Ingress::new(&spec, &workload, &coord, mapper, me.index(), n, usize::MAX);
        MsgCrdtNode {
            state,
            applied: CountMap::new(n, coord.method_count()),
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            ingress,
            awaiting: HashMap::new(),
            next_seq: 0,
            halted: false,
            metrics: NodeMetrics::default(),
            spec,
            coord,
            me,
            n,
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        if self.halted {
            return;
        }
        // As in the Hamband pump: a query's charge ends no sooner than
        // the pump's start plus the pump's query costs so far.
        let mut queries_end = ctx.now();
        loop {
            let planned = self.ingress.next(&self.spec, &self.state, &self.coord, |_| None);
            match planned {
                None => {
                    self.metrics.forfeited = self.ingress.forfeited();
                    return;
                }
                Some((_, Planned::Query(q))) => {
                    let _ = self.spec.query(&self.state, &q);
                    let cost = ctx.charge_apply();
                    queries_end += cost;
                    self.metrics.ack_query(cost);
                    self.metrics.query_ended(queries_end);
                }
                Some((session, Planned::Update(u))) => self.issue(ctx, u, session),
            }
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, update: O::Update, session: u32) {
        let method = self.spec.method_of(&update);
        if !self.spec.permissible(&self.state, &update) {
            self.metrics.rejected += 1;
            self.ingress.on_abort(session);
            return;
        }
        ctx.charge_apply();
        let deps = self.applied.project(self.coord.dependencies(method));
        let seq = self.next_seq;
        self.next_seq += 1;
        let rid = Rid::new(Pid(self.me.index()), seq);
        self.spec.apply_mut(&mut self.state, &update);
        self.applied.increment(Pid(self.me.index()), method);
        self.metrics.last_apply = ctx.now();
        let entry = Entry { rid, update, deps };
        let frame = Frame::Op(entry).encode();
        for q in 0..self.n {
            if q != self.me.index() {
                ctx.send(NodeId(q), frame.clone());
            }
        }
        self.awaiting.insert(seq, (self.n - 1, ctx.now(), method, session));
        if self.n == 1 {
            self.complete(ctx, seq);
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, seq: u64) {
        if let Some((_, issued_at, method, session)) = self.awaiting.remove(&seq) {
            // MSG replicates every update through the conflict-free
            // broadcast path; report it under the FREE phase.
            let rt_ns = self.metrics.ack_update(method.index(), Phase::Free, issued_at, ctx.now());
            let node = self.me;
            ctx.emit(|| TraceEvent::Ack {
                node,
                method: method.index(),
                phase: Phase::Free,
                group: None,
                seq: Some(seq),
            });
            self.ingress.on_ack(session, rt_ns);
        }
        self.pump(ctx);
    }

    fn deliver(&mut self, ctx: &mut Ctx<'_>, entry: Entry<O::Update>) {
        let src = entry.rid.issuer.index();
        self.pending[src].push_back(entry);
        self.drain(ctx);
    }

    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut progressed = false;
            for src in 0..self.n {
                while let Some(front) = self.pending[src].front() {
                    if !self.applied.satisfies(&front.deps) {
                        break;
                    }
                    let entry = self.pending[src].pop_front().expect("front checked");
                    ctx.charge_apply();
                    let method = self.spec.method_of(&entry.update);
                    self.spec.apply_mut(&mut self.state, &entry.update);
                    self.applied.increment(entry.rid.issuer, method);
                    self.metrics.last_apply = ctx.now();
                    ctx.send(
                        entry.rid.issuer_node(),
                        Frame::<O::Update>::Ack(entry.rid.seq).encode(),
                    );
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }
}

/// Helper: the simulator node of an issuer pid.
trait RidExt {
    fn issuer_node(&self) -> NodeId;
}

impl RidExt for Rid {
    fn issuer_node(&self) -> NodeId {
        NodeId(self.issuer.index())
    }
}

impl<O: WorkloadSupport> App for MsgCrdtNode<O> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(rdma_sim::SimDuration::micros(1), TAG_PUMP);
        self.pump(ctx);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Timer { tag: TAG_PUMP, .. } => {
                self.pump(ctx);
                ctx.set_timer(rdma_sim::SimDuration::micros(2), TAG_PUMP);
            }
            Event::Timer { .. } => {}
            Event::Message { payload, .. } => match Frame::<O::Update>::decode(&payload) {
                Ok(Frame::Op(entry)) => self.deliver(ctx, entry),
                Ok(Frame::Ack(seq)) => {
                    let done = {
                        match self.awaiting.get_mut(&seq) {
                            Some(slot) => {
                                slot.0 -= 1;
                                slot.0 == 0
                            }
                            None => false,
                        }
                    };
                    if done {
                        self.complete(ctx, seq);
                    }
                }
                Err(_) => {}
            },
            Event::Completion { .. } => {}
            Event::Fault { kind: AppFault::SuspendHeartbeat } => {
                self.halted = true;
                self.ingress.halt();
            }
            Event::Fault { kind: AppFault::ResumeHeartbeat } => {}
        }
    }
}

impl<O: WorkloadSupport> HarnessNode for MsgCrdtNode<O> {
    type Snapshot = O::State;

    fn is_halted(&self) -> bool {
        self.halted
    }
    fn workload_done(&self) -> bool {
        (self.ingress.local_done() || self.halted) && self.awaiting.is_empty()
    }
    fn follows(&self) -> Vec<Option<NodeId>> {
        Vec::new()
    }
    fn applied_map(&self) -> &CountMap {
        &self.applied
    }
    fn snapshot(&self) -> O::State {
        self.state.clone()
    }
    fn metrics(&self) -> &NodeMetrics {
        &self.metrics
    }
    fn session_stats(&self) -> Vec<SessionStats> {
        self.ingress.session_stats()
    }
    fn status_line(&self) -> String {
        let pend: Vec<usize> = self.pending.iter().map(|q| q.len()).collect();
        let mut heads = String::new();
        for (src, q) in self.pending.iter().enumerate() {
            if let Some(e) = q.front() {
                use std::fmt::Write as _;
                let _ = write!(heads, " head[{src}]={:?} deps={}", e.rid, e.deps);
                for (p, m, need) in e.deps.iter() {
                    let have = self.applied.get(p, m);
                    if have < need {
                        let _ = write!(
                            heads,
                            " SHORT(p{} u{} have {have} need {need})",
                            p.index(),
                            m.index()
                        );
                    }
                }
            }
        }
        format!(
            "awaiting={} pending={pend:?} drv_done={}{heads}",
            self.awaiting.len(),
            self.ingress.local_done()
        )
    }
}
