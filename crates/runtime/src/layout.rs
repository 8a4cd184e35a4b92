//! Registered-memory layout of a Hamband replica.
//!
//! Every node registers the same regions in the same order, so a peer
//! can compute remote addresses without any metadata exchange beyond
//! what connection setup provides (§4 "Meta-data"):
//!
//! | Region | Contents | Written by |
//! |--------|----------|------------|
//! | `heartbeat` | liveness counter, then the count of queries executed | owner: the heartbeat thread, then the application (read remotely) |
//! | `summaries` | one summary slot per (summarization group, source) | the source process |
//! | `free_rings` | one ring of conflict-free calls per source | the source process |
//! | `heads` | head counters of every ring (F per source, then L per group) | owner (read remotely by writers) |
//! | `conf(g)` | commit cell + the `L` ring of sync group `g` | the group leader (write-permission-controlled) |
//! | `persist_log` | the node's durable write-ahead record (see [`crate::persist`]) | owner (local, fenced) |
//!
//! A source also writes its own copy of its summary slots and of the
//! `F` ring it feeds, which no peer reads in the normal protocol: they
//! are what a recoverer READs out of a suspect's memory to finish its
//! broadcasts (`recovery.rs`).
//!
//! Each region also declares its **durability** (the second argument of
//! the [`Layout::plan`] allocator): ring slots, summary slots, the
//! conflicting commit cells, and the persist log are *hard* state a
//! restarted node reads back; heartbeat and head counters are *soft* —
//! reconstructible (heads are republished from the replayed persist
//! log). Under
//! [`DurabilityMode::Off`](crate::persist::DurabilityMode) everything
//! is allocated volatile and no persist log exists, which keeps the
//! crash-stop runtime byte-identical.

use hamband_core::coord::CoordSpec;
use rdma_sim::{App, NodeId, RegionId, Simulator};

use crate::config::{RuntimeConfig, CONF_RING_CAP, FREE_RING_CAP, PERSIST_LOG_BYTES};
use crate::heartbeat::HEARTBEAT_BYTES;
use crate::persist::DurabilityMode;

/// Computed region ids and offsets, identical on every node.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Cluster size.
    pub nodes: usize,
    /// Heartbeat region ([`HEARTBEAT_BYTES`]: the beat counter and the
    /// count of queries executed).
    pub heartbeat: RegionId,
    /// Summary slots region.
    pub summaries: RegionId,
    /// Conflict-free rings region.
    pub free_rings: RegionId,
    /// Ring-head counters region.
    pub heads: RegionId,
    /// Conflicting ring region per *mapped* group (each synchronization
    /// group contributes [`RuntimeConfig::sync_shards`] entries).
    pub conf: Vec<RegionId>,
    /// The node's persist log (present only under
    /// [`DurabilityMode::Fenced`]).
    pub persist_log: Option<RegionId>,
    /// Byte offset of each summarization group's slot block within
    /// `summaries` (the block holds one slot per source node).
    sum_group_base: Vec<usize>,
    /// Slot size per summarization group.
    sum_slot_size: Vec<usize>,
    /// Entry slot size (rings).
    entry_size: usize,
}

impl Layout {
    /// Register all regions on a fresh simulator and return the layout.
    pub fn install<A: App>(
        sim: &mut Simulator<A>,
        coord: &CoordSpec,
        cfg: &RuntimeConfig,
    ) -> Layout {
        Self::plan(sim.len(), coord, cfg, |size, durable| {
            if durable {
                sim.add_region_all_durable(size)
            } else {
                sim.add_region_all(size)
            }
        })
    }

    /// Compute the layout for an `n`-node cluster, allocating each
    /// region through `alloc` (called once per region, in a fixed
    /// order, with the region's byte size and whether it holds hard —
    /// restart-surviving — state). [`Layout::install`] passes the
    /// simulator's registrar; the threaded backend passes its
    /// shared-memory allocator (and ignores the durability flag — it
    /// never sees restart faults). Every backend must allocate the same
    /// regions in the same order so remote offsets agree.
    pub fn plan(
        n: usize,
        coord: &CoordSpec,
        cfg: &RuntimeConfig,
        mut alloc: impl FnMut(usize, bool) -> RegionId,
    ) -> Layout {
        // Durable-region shadowing costs memory and fence bookkeeping;
        // under `Off` (crash-stop, the default) everything stays
        // volatile and behavior is identical to the pre-seam runtime.
        let hard = cfg.durability == DurabilityMode::Fenced;
        let heartbeat = alloc(HEARTBEAT_BYTES, false);

        let mut sum_group_base = Vec::new();
        let mut sum_slot_size = Vec::new();
        let mut off = 0usize;
        for g in coord.sum_groups() {
            let slot = cfg.summary_slot_size(g.len());
            sum_group_base.push(off);
            sum_slot_size.push(slot);
            off += slot * n;
        }
        let summaries = alloc(off.max(8), hard);

        let entry_size = cfg.entry_size();
        let free_rings = alloc(n * FREE_RING_CAP * entry_size, hard);
        // One conf ring (and head slot) per *mapped* group: each sync
        // group contributes `sync_shards` independent logs.
        let mapped = coord.sync_groups().len() * cfg.sync_shards.max(1);
        let heads = alloc((n + mapped).max(1) * 8, false);
        let conf: Vec<RegionId> =
            (0..mapped).map(|_| alloc(8 + CONF_RING_CAP * entry_size, hard)).collect();
        // The persist log goes last so its presence never shifts the
        // region ids the crash-stop layout assigns.
        let persist_log = hard.then(|| alloc(PERSIST_LOG_BYTES, true));

        Layout {
            nodes: n,
            heartbeat,
            summaries,
            free_rings,
            heads,
            conf,
            persist_log,
            sum_group_base,
            sum_slot_size,
            entry_size,
        }
    }

    /// Offset of the summary slot for `(sum_group, source)`.
    pub fn summary_offset(&self, group: usize, source: NodeId) -> usize {
        self.sum_group_base[group] + self.sum_slot_size[group] * source.index()
    }

    /// Slot size of a summarization group.
    pub fn summary_size(&self, group: usize) -> usize {
        self.sum_slot_size[group]
    }

    /// Base offset of the conflict-free ring fed by `source`.
    pub fn free_ring_base(&self, source: NodeId) -> usize {
        source.index() * FREE_RING_CAP * self.entry_size
    }

    /// Offset within `free_rings` of the slot holding entry `seq` of
    /// the ring fed by `source` (sequence numbers are 1-based and the
    /// slots reused in order — the arithmetic
    /// [`RingWriter`](crate::rings::RingWriter) and
    /// [`RingReader`](crate::rings::RingReader) do from their base).
    pub fn free_slot_offset(&self, source: NodeId, seq: u64) -> usize {
        self.free_ring_base(source) + (seq - 1) as usize % FREE_RING_CAP * self.entry_size
    }

    /// Offset within region `conf[g]` of the slot holding entry `seq`
    /// of the group's `L` ring.
    pub fn conf_slot_offset(&self, seq: u64) -> usize {
        self.conf_ring_base() + (seq - 1) as usize % CONF_RING_CAP * self.entry_size
    }

    /// Ring entry slot size.
    pub fn entry_size(&self) -> usize {
        self.entry_size
    }

    /// Offset of the head counter for the free ring fed by `source`.
    pub fn free_head_offset(&self, source: NodeId) -> usize {
        source.index() * 8
    }

    /// Offset of the head counter for sync group `g`'s ring.
    pub fn conf_head_offset(&self, g: usize) -> usize {
        (self.nodes + g) * 8
    }

    /// Offset of the commit cell within region `conf[g]`.
    pub fn conf_commit_offset(&self) -> usize {
        0
    }

    /// Base offset of the ring within region `conf[g]`.
    pub fn conf_ring_base(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{slot_ready, Entry};
    use crate::rings::RingWriter;
    use hamband_core::coord::CoordSpec;
    use hamband_core::counts::DepMap;
    use hamband_core::ids::{Pid, Rid};
    use hamband_types::counter::CounterUpdate;
    use rdma_sim::{Ctx, Event, LatencyModel, RingKind, SimDuration};

    struct Noop;
    impl App for Noop {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: Event) {}
    }

    fn account_layout(n: usize) -> Layout {
        // account-like: 2 methods, sum group [0], one sync group.
        let coord =
            CoordSpec::builder(2).conflict(1, 1).depends(1, 0).summarization_group([0]).build();
        let cfg = RuntimeConfig::default().with_sync_shards(1);
        let mut sim: Simulator<Noop> = Simulator::new(n, LatencyModel::deterministic(), 0);
        let l = Layout::install(&mut sim, &coord, &cfg);
        sim.set_apps(|_| Noop);
        l
    }

    #[test]
    fn regions_are_distinct() {
        let l = account_layout(3);
        let mut ids = vec![l.heartbeat, l.summaries, l.free_rings, l.heads];
        ids.extend(l.conf.iter().copied());
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
        assert_eq!(l.conf.len(), 1);
    }

    #[test]
    fn offsets_do_not_overlap() {
        let l = account_layout(4);
        // Summary slots of distinct sources are disjoint.
        let s0 = l.summary_offset(0, NodeId(0));
        let s1 = l.summary_offset(0, NodeId(1));
        assert_eq!(s1 - s0, l.summary_size(0));
        // Free rings of distinct sources are disjoint.
        let f0 = l.free_ring_base(NodeId(0));
        let f1 = l.free_ring_base(NodeId(1));
        assert_eq!(f1 - f0, FREE_RING_CAP * l.entry_size());
        // Heads: free heads then conf heads.
        assert_eq!(l.free_head_offset(NodeId(3)), 24);
        assert_eq!(l.conf_head_offset(0), 32);
    }

    #[test]
    fn sharded_layout_gets_one_conf_region_per_mapped_group() {
        let coord = CoordSpec::builder(2).conflict(1, 1).depends(1, 0).build();
        let cfg = RuntimeConfig::default().with_sync_shards(4);
        let mut sim: Simulator<Noop> = Simulator::new(3, LatencyModel::deterministic(), 0);
        let l = Layout::install(&mut sim, &coord, &cfg);
        sim.set_apps(|_| Noop);
        assert_eq!(l.conf.len(), 4);
        // Head slots: 3 free heads, then 4 conf heads, all disjoint.
        assert_eq!(l.conf_head_offset(0), 24);
        assert_eq!(l.conf_head_offset(3), 48);
    }

    /// The layout's slot arithmetic is the ring writer's: entries
    /// appended across a wrap land where `free_slot_offset` /
    /// `conf_slot_offset` say.
    #[test]
    fn slot_offsets_find_entries_appended_across_a_wrap() {
        let coord = CoordSpec::builder(1).conflict(0, 0).build();
        let mut sim: Simulator<Noop> = Simulator::new(2, LatencyModel::deterministic(), 0);
        let l = Layout::install(&mut sim, &coord, &RuntimeConfig::default());
        sim.set_apps(|_| Noop);
        let (src, dst) = (NodeId(0), NodeId(1));
        let free = RingWriter::new(
            RingKind::Free,
            dst,
            l.free_rings,
            l.free_ring_base(src),
            FREE_RING_CAP,
            l.entry_size(),
            l.heads,
            l.free_head_offset(src),
        );
        let conf = RingWriter::new(
            RingKind::Conf,
            dst,
            l.conf[0],
            l.conf_ring_base(),
            CONF_RING_CAP,
            l.entry_size(),
            l.heads,
            l.conf_head_offset(0),
        );
        type Offset<'a> = &'a dyn Fn(u64) -> usize;
        let rings: [(RingWriter, RegionId, u64, Offset); 2] = [
            (free, l.free_rings, FREE_RING_CAP as u64, &|seq| l.free_slot_offset(src, seq)),
            (conf, l.conf[0], CONF_RING_CAP as u64, &|seq| l.conf_slot_offset(seq)),
        ];
        for (mut writer, region, cap, offset) in rings {
            // Two slots short of the ring's end: four appends wrap.
            writer.adopt_tail(cap - 2);
            sim.with_app_ctx(src, |_, ctx| {
                for i in 0..4 {
                    let entry = Entry {
                        rid: Rid::new(Pid(0), i),
                        update: CounterUpdate::Add(i as i64),
                        deps: DepMap::empty(),
                    };
                    writer.append(ctx, &entry);
                }
                writer.flush(ctx);
            });
            sim.run_for(SimDuration::micros(10));
            let bytes = sim.region_bytes(dst, region);
            for seq in cap - 1..=cap + 2 {
                let slot = &bytes[offset(seq)..][..l.entry_size()];
                assert!(slot_ready(slot, seq), "seq {seq} of a {cap}-slot ring");
            }
            assert_eq!(offset(cap + 1), offset(1), "the slots are reused in order");
            assert_eq!(offset(cap) - offset(1), (cap as usize - 1) * l.entry_size());
        }
    }
}
