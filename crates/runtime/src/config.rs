//! Runtime tuning parameters: the constants every run shares, and the
//! settings some caller sets ([`RuntimeConfig`]).

use rdma_sim::SimDuration;

use crate::persist::DurabilityMode;

/// Maximum encoded size of a call + its dependency array, bytes.
pub const PAYLOAD_CAP: usize = 256;
/// Capacity (entries) of each conflict-free ring buffer `F`.
pub const FREE_RING_CAP: usize = 256;
/// Capacity (entries) of each conflicting ring buffer `L`.
pub const CONF_RING_CAP: usize = 512;
/// Most update calls a node keeps unacknowledged, over all its client
/// sessions. It is also the recovery window: a recoverer re-sends the
/// newest this many entries of a suspect's `F` ring (`recovery.rs`).
pub const MAX_IN_FLIGHT: usize = 64;
/// How often each node traverses its buffers (§4: "two threads
/// traverse and process the calls of F and L buffers").
pub const POLL_INTERVAL: SimDuration = SimDuration::nanos(800);
/// CPU cost of one traversal pass that finds nothing. Charged only to a
/// pass that has something another node writes to scan (`replica.rs`).
pub const POLL_COST: SimDuration = SimDuration::nanos(40);
/// Size in bytes of each node's persist log region (only allocated
/// under [`DurabilityMode::Fenced`]).
pub const PERSIST_LOG_BYTES: usize = 1 << 20;

/// Tuning for a Hamband cluster (summary geometry, window, batching,
/// sharding, durability). The failure-detection timers are fixed to
/// the simulator's microsecond scale; only the threaded backend
/// overrides them, with wall-clock values (`threaded/cluster.rs`).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Maximum encoded size of a summarized call, bytes, and so the
    /// room a summary slot's log has for records before its source
    /// compacts it (`codec.rs`). Summaries of grow-only types (e.g.
    /// GSet's `add_all`) grow with the number of calls folded in, so
    /// this is sized to the workload (the harness scales it
    /// automatically).
    pub summary_payload_cap: usize,
    /// Heartbeat increment period.
    pub(crate) heartbeat_interval: SimDuration,
    /// Failure-detector read period.
    pub(crate) fd_interval: SimDuration,
    /// Consecutive unchanged reads before suspecting a peer.
    pub(crate) fd_suspect_after: u32,
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
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            summary_payload_cap: 4096,
            heartbeat_interval: SimDuration::micros(5),
            fd_interval: SimDuration::micros(8),
            fd_suspect_after: 3,
            window: 8,
            max_batch: 16,
            sync_shards: 1,
            durability: DurabilityMode::Off,
        }
    }
}

impl RuntimeConfig {
    /// Use this client pipelining window (must be positive, and small
    /// enough that the rings can absorb it).
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        assert!(
            FREE_RING_CAP > window * 2,
            "free ring ({FREE_RING_CAP} entries) cannot absorb a window of {window}"
        );
        self.window = window;
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

    /// Size in bytes of one ring entry slot, rounded up to a multiple
    /// of 8 so slot strides stay word-aligned (the threaded backend
    /// stores regions as atomic 64-bit words; word alignment keeps each
    /// slot's words single-writer).
    pub fn entry_size(&self) -> usize {
        // seq (8) + len (2) + payload + canary trailer (8: the seq
        // echoed, so a reused slot's stale trailer cannot validate the
        // next epoch's half-landed entry)
        round_up_8(8 + 2 + PAYLOAD_CAP + 8)
    }

    /// Size in bytes of one summary slot for a group of `group_len`
    /// methods: room for one record of the largest payload, rounded up
    /// to a multiple of 8 (same word-alignment requirement as
    /// [`entry_size`](Self::entry_size)).
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
        assert_eq!(c.entry_size(), round_up_8(8 + 2 + PAYLOAD_CAP + 8));
        assert_eq!(c.summary_slot_size(2), round_up_8(8 + 16 + 2 + c.summary_payload_cap + 8));
        // Word alignment: slot strides are multiples of 8.
        assert_eq!(c.entry_size() % 8, 0);
        assert_eq!(c.summary_slot_size(5) % 8, 0);
        assert!(FREE_RING_CAP > c.window * 2, "ring must absorb the window");
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
            .with_summary_payload_cap(8192)
            .with_max_batch(4);
        assert_eq!(c.window, 16);
        assert_eq!(c.summary_payload_cap, 8192);
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
        let _ = RuntimeConfig::default().with_window(FREE_RING_CAP / 2);
    }
}
