//! The trace vocabulary: typed events and the record a run collects.
//!
//! The events span both layers of the stack — fabric-level verb
//! activity (posted/completed) emitted by the simulator itself, and
//! protocol-level events (ring append/apply, summary writes, broadcast
//! acks, commit advancement, leader changes, failure-detector
//! suspicion) emitted by the runtime through [`Ctx::emit`] — so one
//! record observes a run end to end. Collection is per simulator
//! ([`Simulator::collect_trace`], drained by
//! [`Simulator::take_trace`]); with it off an emit is one branch and
//! builds nothing.
//!
//! [`Ctx::emit`]: crate::Ctx::emit
//! [`Simulator::collect_trace`]: crate::Simulator::collect_trace
//! [`Simulator::take_trace`]: crate::Simulator::take_trace

use crate::time::SimTime;
use crate::verbs::{CompletionStatus, NodeId, VerbKind, WrId};

/// Which protocol path a call travelled — the paper's three issue
/// paths (§4) plus local queries. Shared across layers so trace events
/// and latency metrics classify calls identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Reducible updates: summary fold + reliable broadcast.
    Reduce,
    /// Irreducible conflict-free updates: F-ring append to every peer.
    Free,
    /// Conflicting updates: consensus through the group leader's L-ring.
    Conf,
    /// Queries: executed locally against the visible state.
    Query,
}

impl Phase {
    /// All phases, in a stable order (array-indexing friendly).
    pub const ALL: [Phase; 4] = [Phase::Reduce, Phase::Free, Phase::Conf, Phase::Query];

    /// Dense index for array addressing.
    pub fn index(self) -> usize {
        match self {
            Phase::Reduce => 0,
            Phase::Free => 1,
            Phase::Conf => 2,
            Phase::Query => 3,
        }
    }

    /// Stable lowercase label ("reduce", "free", "conf", "query").
    pub fn label(self) -> &'static str {
        match self {
            Phase::Reduce => "reduce",
            Phase::Free => "free",
            Phase::Conf => "conf",
            Phase::Query => "query",
        }
    }
}

/// Which ring buffer a ring event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingKind {
    /// A conflict-free buffer `F` (one per (writer, reader) pair).
    Free,
    /// A conflicting buffer `L` (one per (group, replica) pair).
    Conf,
}

/// One structured event in a run.
///
/// Runtime-level concepts (methods, synchronization groups, ring
/// sequence numbers) are carried as plain indices so the vocabulary
/// lives below the runtime yet spans it.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A one-sided verb or two-sided send was posted.
    VerbPosted {
        /// Posting node.
        issuer: NodeId,
        /// Verb kind (WRITE/READ/CAS/SEND).
        kind: VerbKind,
        /// Target node.
        target: NodeId,
        /// Work request id (sends, which have no completion handle
        /// visible to the app, report the fabric's internal id).
        wr: WrId,
        /// Payload or read length in bytes.
        bytes: usize,
    },
    /// A posted verb completed (at the fabric; delivery to the
    /// application may be deferred by CPU contention).
    VerbCompleted {
        /// The node that posted it.
        issuer: NodeId,
        /// Verb kind.
        kind: VerbKind,
        /// Work request id.
        wr: WrId,
        /// Outcome.
        status: CompletionStatus,
    },
    /// A ring-buffer entry was appended (writer side).
    RingAppend {
        /// Free or conflicting ring.
        ring: RingKind,
        /// The appending node.
        writer: NodeId,
        /// The node hosting the ring.
        reader: NodeId,
        /// Ring sequence number of the entry.
        seq: u64,
    },
    /// A ring-buffer entry was applied to the local state (reader
    /// side).
    RingApply {
        /// Free or conflicting ring.
        ring: RingKind,
        /// The applying node.
        reader: NodeId,
        /// The node that wrote the entry.
        writer: NodeId,
        /// Ring sequence number of the entry.
        seq: u64,
    },
    /// Several contiguous ring entries were coalesced into a single
    /// one-sided WRITE (doorbell batching). Emitted in addition to the
    /// per-entry [`TraceEvent::RingAppend`] events, and only when the
    /// batch spans more than one slot.
    RingBatch {
        /// Free or conflicting ring.
        ring: RingKind,
        /// The appending node.
        writer: NodeId,
        /// The node hosting the ring.
        reader: NodeId,
        /// Ring sequence number of the first entry in the batch.
        first_seq: u64,
        /// Number of contiguous entries the WRITE spans.
        count: u64,
    },
    /// A reducible summary slot was written to a peer.
    SummaryWrite {
        /// The summarizing node.
        issuer: NodeId,
        /// The peer receiving the summary.
        target: NodeId,
        /// Method index the summary folds.
        method: usize,
        /// Summary slot version (seqlock word).
        version: u64,
    },
    /// An update or query call was acknowledged to the client.
    Ack {
        /// The acknowledging (issuing) node.
        node: NodeId,
        /// Method index of the call.
        method: usize,
        /// Which protocol path it travelled.
        phase: Phase,
        /// For conflicting calls: the synchronization group.
        group: Option<usize>,
        /// For conflicting calls: the L-ring sequence number the call
        /// committed at (correlates with [`TraceEvent::CommitAdvance`]).
        seq: Option<u64>,
    },
    /// A group leader advanced the commit index.
    CommitAdvance {
        /// The leader node.
        node: NodeId,
        /// Synchronization group.
        group: usize,
        /// New commit index (entries with `seq <= commit` are decided).
        commit: u64,
    },
    /// A node took over leadership of a group.
    LeaderChange {
        /// Synchronization group.
        group: usize,
        /// The new leader.
        leader: NodeId,
        /// The new epoch/ballot.
        epoch: u64,
    },
    /// A leader observed a higher epoch and stepped down.
    Deposed {
        /// Synchronization group.
        group: usize,
        /// The deposed node.
        node: NodeId,
        /// The epoch that deposed it.
        epoch: u64,
    },
    /// The pull failure detector started suspecting a peer.
    FdSuspect {
        /// The suspecting node.
        node: NodeId,
        /// The peer whose heartbeat stalled.
        suspect: NodeId,
    },
    /// The pull failure detector observed counter progress on a peer
    /// it had suspected, and cleared the suspicion.
    FdRecover {
        /// The observing node.
        node: NodeId,
        /// The peer whose heartbeat resumed.
        peer: NodeId,
    },
    /// A node resumed its heartbeat but stays excluded from the
    /// workload: the suspension already halted its driver, and quota
    /// adoption or leader takeover by peers is not rolled back
    /// (crash-stop at the protocol level).
    ResumedButExcluded {
        /// The resumed node.
        node: NodeId,
    },
}

/// A trace event stamped with the time it was recorded at.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Time of the event: virtual under the simulator, the recording
    /// backend's own clock elsewhere.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_labels_and_indices_are_stable() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Phase::Reduce.label(), "reduce");
        assert_eq!(Phase::Conf.label(), "conf");
    }

    struct Idle;
    impl crate::App for Idle {
        fn on_start(&mut self, _ctx: &mut crate::Ctx<'_>) {}
        fn on_event(&mut self, _ctx: &mut crate::Ctx<'_>, _event: crate::Event) {}
    }

    #[test]
    fn an_emit_builds_nothing_until_collection_is_on() {
        let mut sim = crate::Simulator::new(2, crate::LatencyModel::deterministic(), 1);
        sim.set_apps(|_| Idle);
        let suspect = || TraceEvent::FdSuspect { node: NodeId(0), suspect: NodeId(1) };
        sim.with_app_ctx(NodeId(0), |_, ctx| ctx.emit(|| panic!("must not construct")));
        assert!(sim.take_trace().is_empty());
        sim.collect_trace();
        sim.with_app_ctx(NodeId(0), |_, ctx| ctx.emit(suspect));
        let records = sim.take_trace();
        assert_eq!(records, [TraceRecord { at: SimTime::ZERO, event: suspect() }]);
        assert!(sim.take_trace().is_empty(), "take drains");
    }
}
