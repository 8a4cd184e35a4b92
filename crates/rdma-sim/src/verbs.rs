//! Verb and event vocabulary: work-request identifiers, completion
//! statuses, and the events delivered to node applications.
//!
//! The simulator models RDMA's Reliable Connection (RC) service: WRITEs
//! from one issuer to one target land and complete in posting order
//! (READ and CAS are not ordered behind them — the [`fabric`](crate::fabric)
//! module states the model), and a successful WRITE completion means
//! the data has been placed in the remote region (no remote CPU
//! involved). Two-sided messages model SEND/RECV
//! through the network stack and *do* consume receiver CPU.

/// A node of the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Dense index for `Vec` addressing.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// A registered memory region of a node. Regions are registered before
/// the simulation starts and addressed as `(NodeId, RegionId)` — the
/// moral equivalent of exchanging rkeys at connection setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub usize);

impl RegionId {
    /// Dense index for `Vec` addressing.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mr{}", self.0)
    }
}

/// Identifier of a posted work request, unique per issuing node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WrId(pub u64);

/// Identifier of an armed timer, unique per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// The kind of one-sided verb a completion refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerbKind {
    /// One-sided RDMA WRITE.
    Write,
    /// One-sided RDMA READ.
    Read,
    /// One-sided RDMA compare-and-swap.
    CompareAndSwap,
    /// Two-sided SEND (completion at the sender).
    Send,
}

/// Completion status of a work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompletionStatus {
    /// The operation succeeded.
    Success,
    /// The target region denied write access to this issuer (the
    /// permission mechanism Mu-style consensus uses for leader
    /// exclusion).
    AccessDenied,
    /// The request addressed memory outside the target region.
    OutOfBounds,
}

impl CompletionStatus {
    /// Whether the request succeeded.
    pub fn is_success(self) -> bool {
        self == CompletionStatus::Success
    }
}

/// An event delivered to a node application.
#[derive(Debug, Clone)]
pub enum Event {
    /// A previously armed timer fired.
    Timer {
        /// The timer that fired.
        id: TimerId,
        /// The application-chosen tag.
        tag: u64,
    },
    /// A two-sided message arrived (SEND/RECV path; costs receiver CPU).
    Message {
        /// The sending node.
        from: NodeId,
        /// The payload.
        payload: Vec<u8>,
    },
    /// A posted work request completed.
    Completion {
        /// The completed request.
        wr: WrId,
        /// What kind of verb it was.
        kind: VerbKind,
        /// Outcome.
        status: CompletionStatus,
        /// For READ: the fetched bytes; for CAS: the 8-byte prior value.
        data: Option<Vec<u8>>,
    },
    /// A fault-plan action aimed at this node's application (e.g.
    /// "suspend your heartbeat thread", the paper's failure injection).
    Fault {
        /// The injected application-level fault.
        kind: AppFault,
    },
}

/// Application-level fault actions the fault plan can deliver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppFault {
    /// Suspend the heartbeat thread: the node keeps serving but stops
    /// announcing liveness, so peers will suspect it (§5 "we inject
    /// failures into a node by suspending its heartbeat thread").
    SuspendHeartbeat,
    /// Resume the heartbeat thread.
    ResumeHeartbeat,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_display() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(RegionId(1).to_string(), "mr1");
        assert_eq!(NodeId::from(2).index(), 2);
        assert_eq!(RegionId(4).index(), 4);
    }

    #[test]
    fn status_predicate() {
        assert!(CompletionStatus::Success.is_success());
        assert!(!CompletionStatus::AccessDenied.is_success());
        assert!(!CompletionStatus::OutOfBounds.is_success());
    }
}
