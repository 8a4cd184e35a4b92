//! Fabric-level traffic statistics, for reports and ablations.

/// Counters of simulated traffic, global and per node.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// One-sided WRITE verbs posted.
    pub writes: u64,
    /// One-sided READ verbs posted.
    pub reads: u64,
    /// One-sided CAS verbs posted.
    pub cas: u64,
    /// Two-sided messages sent.
    pub messages: u64,
    /// Total bytes moved by one-sided verbs.
    pub one_sided_bytes: u64,
    /// Total bytes moved by two-sided messages.
    pub message_bytes: u64,
    /// Trace events delivered to the installed sink (0 with no sink).
    pub trace_events: u64,
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
    /// Per-node virtual nanoseconds of CPU charged (handlers, verb
    /// posting, message receive) — against the run's span, which
    /// resource binds a workload. A backend without a CPU model
    /// (threaded) leaves it 0.
    pub cpu_busy_ns: Vec<u64>,
    /// Per-node virtual nanoseconds of NIC transmit time reserved (one
    /// `nic_tx_cost` per posted verb or message). 0 on threaded.
    pub nic_busy_ns: Vec<u64>,
}

impl Stats {
    /// Zeroed statistics for a cluster of `n` nodes.
    pub fn new(n: usize) -> Self {
        Stats {
            per_node_ops: vec![0; n],
            cpu_busy_ns: vec![0; n],
            nic_busy_ns: vec![0; n],
            ..Stats::default()
        }
    }

    /// Total one-sided verbs posted.
    pub fn one_sided_total(&self) -> u64 {
        self.writes + self.reads + self.cas
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
        assert_eq!(s.one_sided_total(), 6);
        assert_eq!(s.per_node_ops.len(), 2);
        assert_eq!((s.cpu_busy_ns.len(), s.nic_busy_ns.len()), (2, 2));
    }
}
