//! Fabric-level traffic statistics, for reports and ablations.

use crate::verbs::{NodeId, VerbKind};

/// Counters of simulated traffic, global and per node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// One-sided WRITE verbs posted.
    pub writes: u64,
    /// One-sided READ verbs posted.
    pub reads: u64,
    /// One-sided CAS verbs posted.
    pub cas: u64,
    /// Two-sided messages sent.
    pub messages: u64,
    /// Total bytes moved by one-sided WRITEs and READs (a CAS counts
    /// none).
    pub one_sided_bytes: u64,
    /// Total bytes moved by two-sided messages.
    pub message_bytes: u64,
    /// Ring-slot WRITEs posted (each may span several slots when
    /// doorbell batching coalesces contiguous entries). A subset of
    /// `writes`; reported by the runtime via
    /// [`Ctx::note_ring_write`](crate::Ctx::note_ring_write).
    pub ring_writes: u64,
    /// Ring slots carried by those WRITEs; `ring_slots / ring_writes`
    /// is the achieved batching factor.
    pub ring_slots: u64,
    /// Per-node posted verb counts (writes + reads + cas + sends).
    pub per_node_ops: Vec<u64>,
    /// Per-node virtual nanoseconds of application CPU charged
    /// (handlers, verb posting, message receive) — against the run's
    /// span, which resource binds a workload. A backend without a CPU
    /// model (threaded) leaves it 0.
    pub cpu_busy_ns: Vec<u64>,
    /// The verb-posting part of `cpu_busy_ns`: one `post_cost` per verb
    /// or message the application CPU posted — the share of a busy CPU
    /// the protocol controls by posting less. 0 on threaded.
    pub cpu_post_ns: Vec<u64>,
    /// Per-node virtual nanoseconds the node's dedicated threads spent
    /// posting verbs (the failure detector's heartbeat READs): work on
    /// their own cores, kept out of `cpu_busy_ns`. 0 on threaded.
    pub isolated_busy_ns: Vec<u64>,
    /// Per-node virtual nanoseconds of NIC transmit time reserved (one
    /// `nic_tx_cost` per posted verb or message, whichever thread
    /// posted it: the NIC is shared). 0 on threaded.
    pub nic_busy_ns: Vec<u64>,
}

impl Stats {
    /// Zeroed statistics for a cluster of `n` nodes.
    pub fn new(n: usize) -> Self {
        Stats {
            per_node_ops: vec![0; n],
            cpu_busy_ns: vec![0; n],
            cpu_post_ns: vec![0; n],
            isolated_busy_ns: vec![0; n],
            nic_busy_ns: vec![0; n],
            ..Stats::default()
        }
    }

    /// Count one posted verb or message: the one traffic-accounting
    /// rule, which the simulator's post path and the threaded backend
    /// both call. `bytes` is what the verb moves; a CAS's 8-byte word
    /// is counted in neither byte total.
    pub fn count_post(&mut self, node: NodeId, kind: VerbKind, bytes: usize) {
        self.per_node_ops[node.index()] += 1;
        match kind {
            VerbKind::Write => self.writes += 1,
            VerbKind::Read => self.reads += 1,
            VerbKind::CompareAndSwap => self.cas += 1,
            VerbKind::Send => self.messages += 1,
        }
        match kind {
            VerbKind::Write | VerbKind::Read => self.one_sided_bytes += bytes as u64,
            VerbKind::Send => self.message_bytes += bytes as u64,
            VerbKind::CompareAndSwap => {}
        }
    }
}

/// Counter-wise sum, the per-node vectors element by element: the
/// total of statistics that were counted apart (one per thread).
impl std::ops::AddAssign<&Stats> for Stats {
    fn add_assign(&mut self, o: &Stats) {
        self.writes += o.writes;
        self.reads += o.reads;
        self.cas += o.cas;
        self.messages += o.messages;
        self.one_sided_bytes += o.one_sided_bytes;
        self.message_bytes += o.message_bytes;
        self.ring_writes += o.ring_writes;
        self.ring_slots += o.ring_slots;
        for (mine, theirs) in [
            (&mut self.per_node_ops, &o.per_node_ops),
            (&mut self.cpu_busy_ns, &o.cpu_busy_ns),
            (&mut self.cpu_post_ns, &o.cpu_post_ns),
            (&mut self.isolated_busy_ns, &o.isolated_busy_ns),
            (&mut self.nic_busy_ns, &o.nic_busy_ns),
        ] {
            mine.iter_mut().zip(theirs).for_each(|(m, t)| *m += t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let mut s = Stats::new(2);
        s.writes = 3;
        s.reads = 2;
        s.cas = 1;
        assert_eq!(s.writes + s.reads + s.cas, 6);
        assert_eq!(s.per_node_ops.len(), 2);
        assert_eq!((s.cpu_busy_ns.len(), s.nic_busy_ns.len()), (2, 2));
        assert_eq!((s.cpu_post_ns.len(), s.isolated_busy_ns.len()), (2, 2));
    }

    #[test]
    fn sums_counter_wise() {
        let mut a = Stats::new(2);
        (a.writes, a.ring_slots, a.per_node_ops[0]) = (3, 5, 3);
        let mut b = Stats::new(2);
        (b.writes, b.messages, b.per_node_ops[1]) = (1, 2, 3);
        a += &b;
        assert_eq!((a.writes, a.messages, a.ring_slots), (4, 2, 5));
        assert_eq!(a.per_node_ops, vec![3, 3]);
    }
}
