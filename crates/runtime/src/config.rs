//! Runtime tuning parameters.

use rdma_sim::SimDuration;

use crate::persist::DurabilityMode;

/// Tuning for a Hamband cluster (buffer geometry, protocol timers,
/// workload pacing).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Maximum encoded size of a call + its dependency array, bytes.
    pub payload_cap: usize,
    /// Maximum encoded size of a summarized call, bytes. Summaries of
    /// grow-only types (e.g. GSet's `add_all`) grow with the number of
    /// calls folded in, so this is sized to the workload (the harness
    /// scales it automatically).
    pub summary_payload_cap: usize,
    /// Capacity (entries) of each conflict-free ring buffer `F`.
    pub free_ring_cap: usize,
    /// Capacity (entries) of each conflicting ring buffer `L`.
    pub conf_ring_cap: usize,
    /// Number of backup slots for the reliable-broadcast ring.
    pub backup_slots: usize,
    /// How often each node traverses its buffers (§4: "two threads
    /// traverse and process the calls of F and L buffers").
    pub poll_interval: SimDuration,
    /// CPU cost of one traversal pass that finds nothing.
    pub poll_cost: SimDuration,
    /// Heartbeat increment period.
    pub heartbeat_interval: SimDuration,
    /// Failure-detector read period.
    pub fd_interval: SimDuration,
    /// Consecutive unchanged reads before suspecting a peer.
    pub fd_suspect_after: u32,
    /// Max update calls a node keeps outstanding (client pipelining).
    pub window: usize,
    /// Doorbell-batching knob: maximum number of contiguous ring slots
    /// a single one-sided WRITE may span. `1` posts one WRITE per
    /// entry (the unbatched protocol); larger values let a
    /// [`RingWriter`](crate::rings::RingWriter) coalesce adjacent
    /// pending entries into one WRITE, splitting only at ring
    /// wraparound and flow-control limits.
    pub max_batch: usize,
    /// Key shards per synchronization group. Each sync group of the
    /// coordination spec is split into this many independent
    /// [`GroupEngine`](crate::conf::GroupEngine) instances; a
    /// [`GroupMapper`](hamband_core::GroupMapper) hashes each call's
    /// shard key onto one of them, so same-key conflicting calls still
    /// serialize (Lemma 1 per shard) while cross-key calls proceed in
    /// parallel. `1` reproduces the paper's one-log-per-group layout.
    pub sync_shards: usize,
    /// Whether replicas keep durable hard state for crash-restart
    /// (see [`crate::persist`]). `Off` is byte-identical to the
    /// crash-stop runtime; `Fenced` allocates a persist log per node
    /// and fences hard state at the seam points.
    pub durability: DurabilityMode,
    /// Size in bytes of each node's persist log region (only allocated
    /// under [`DurabilityMode::Fenced`]).
    pub persist_log_bytes: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            payload_cap: 256,
            summary_payload_cap: 4096,
            free_ring_cap: 256,
            conf_ring_cap: 512,
            backup_slots: 64,
            poll_interval: SimDuration::nanos(800),
            poll_cost: SimDuration::nanos(40),
            heartbeat_interval: SimDuration::micros(5),
            fd_interval: SimDuration::micros(8),
            fd_suspect_after: 3,
            window: 8,
            max_batch: 16,
            sync_shards: 1,
            durability: DurabilityMode::Off,
            persist_log_bytes: 1 << 20,
        }
    }
}

impl RuntimeConfig {
    /// Use this client pipelining window (must be positive, and small
    /// enough that the rings can absorb it).
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        assert!(
            self.free_ring_cap > window * 2,
            "free ring ({} entries) cannot absorb a window of {window}",
            self.free_ring_cap
        );
        self.window = window;
        self
    }

    /// Traverse the buffers this often.
    pub fn with_poll_interval(mut self, interval: SimDuration) -> Self {
        assert!(interval > SimDuration::ZERO, "poll interval must be positive");
        self.poll_interval = interval;
        self
    }

    /// Allow summarized payloads up to this many bytes.
    pub fn with_summary_payload_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 16, "summary payload cap must hold at least one call");
        self.summary_payload_cap = cap;
        self
    }

    /// Coalesce up to this many contiguous ring entries per WRITE
    /// (`1` = one WRITE per entry).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        self.max_batch = max_batch;
        self
    }

    /// Split each synchronization group into this many key shards
    /// (`1` = the paper's one-log-per-group layout).
    pub fn with_sync_shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "sync_shards must be at least 1");
        self.sync_shards = shards;
        self
    }

    /// Keep durable hard state (or not) for crash-restart.
    pub fn with_durability(mut self, mode: DurabilityMode) -> Self {
        self.durability = mode;
        self
    }

    /// Use a persist log of this many bytes per node.
    pub fn with_persist_log_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > crate::persist::HEADER_BYTES, "persist log must hold its header");
        self.persist_log_bytes = bytes;
        self
    }

    /// Use rings of these capacities (entries).
    pub fn with_ring_caps(mut self, free: usize, conf: usize) -> Self {
        assert!(free > self.window * 2, "free ring must absorb the window");
        assert!(conf >= 2, "conf ring needs at least two entries");
        self.free_ring_cap = free;
        self.conf_ring_cap = conf;
        self
    }

    /// Size in bytes of one ring entry slot, rounded up to a multiple
    /// of 8 so slot strides stay word-aligned (the threaded backend
    /// stores regions as atomic 64-bit words; word alignment keeps each
    /// slot's words single-writer).
    pub fn entry_size(&self) -> usize {
        // seq (8) + len (2) + payload + canary trailer (8: the seq
        // echoed, so a reused slot's stale trailer cannot validate the
        // next epoch's half-landed entry)
        round_up_8(8 + 2 + self.payload_cap + 8)
    }

    /// Size in bytes of one summary slot for a group of `group_len`
    /// methods, rounded up to a multiple of 8 (same word-alignment
    /// requirement as [`entry_size`](Self::entry_size)).
    pub fn summary_slot_size(&self, group_len: usize) -> usize {
        // ver (8) + per-method applied counts + len (2) + payload + ver2 (8)
        round_up_8(8 + 8 * group_len + 2 + self.summary_payload_cap + 8)
    }
}

/// Round `n` up to the next multiple of 8.
pub(crate) fn round_up_8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_are_consistent() {
        let c = RuntimeConfig::default();
        assert_eq!(c.entry_size(), round_up_8(8 + 2 + c.payload_cap + 8));
        assert_eq!(
            c.summary_slot_size(2),
            round_up_8(8 + 16 + 2 + c.summary_payload_cap + 8)
        );
        // Word alignment: slot strides are multiples of 8.
        assert_eq!(c.entry_size() % 8, 0);
        assert_eq!(c.summary_slot_size(5) % 8, 0);
        assert!(c.free_ring_cap > c.window * 2, "ring must absorb the window");
    }

    #[test]
    fn round_up_8_is_exact_on_multiples() {
        assert_eq!(round_up_8(0), 0);
        assert_eq!(round_up_8(1), 8);
        assert_eq!(round_up_8(8), 8);
        assert_eq!(round_up_8(9), 16);
        assert_eq!(round_up_8(267), 272);
    }

    #[test]
    fn builders_validate_and_compose() {
        let c = RuntimeConfig::default()
            .with_window(16)
            .with_poll_interval(SimDuration::nanos(500))
            .with_summary_payload_cap(8192)
            .with_ring_caps(128, 64)
            .with_max_batch(4);
        assert_eq!(c.window, 16);
        assert_eq!(c.poll_interval, SimDuration::nanos(500));
        assert_eq!(c.summary_payload_cap, 8192);
        assert_eq!((c.free_ring_cap, c.conf_ring_cap), (128, 64));
        assert_eq!(c.max_batch, 4);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_is_rejected() {
        let _ = RuntimeConfig::default().with_max_batch(0);
    }

    #[test]
    fn sync_shards_builder_and_default() {
        // The defaults are constants: builders are the only way to
        // change them, never the environment.
        let c = RuntimeConfig::default();
        assert_eq!((c.max_batch, c.sync_shards, c.durability), (16, 1, DurabilityMode::Off));
        assert_eq!(c.with_sync_shards(8).sync_shards, 8);
    }

    #[test]
    #[should_panic(expected = "sync_shards")]
    fn zero_sync_shards_is_rejected() {
        let _ = RuntimeConfig::default().with_sync_shards(0);
    }

    #[test]
    #[should_panic(expected = "absorb")]
    fn oversized_window_is_rejected() {
        let _ = RuntimeConfig::default().with_ring_caps(64, 64).with_window(40);
    }
}
