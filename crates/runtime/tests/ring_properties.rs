//! Property tests of the single-writer ring buffers: in-order,
//! loss-free delivery for arbitrary entry counts, capacities, polling
//! cadences, torn-write fabrics, and doorbell batching factors —
//! including the equivalence of batched and one-write-per-entry
//! configurations on identical seeds.

use hamband_core::counts::DepMap;
use hamband_core::demo::{Account, AccountUpdate};
use hamband_core::ids::{Pid, Rid};
use hamband_runtime::codec::Entry;
use hamband_runtime::rings::{RingReader, RingWriter};
use proptest::prelude::*;
use rdma_sim::{
    App, Ctx, Event, Fault, FaultPlan, LatencyModel, NodeId, RegionId, RingKind, SimDuration,
    SimTime, Simulator, TraceEvent,
};

const SLOT: usize = 64;

struct RingApp {
    writer: Option<RingWriter>,
    reader: Option<RingReader>,
    to_send: u64,
    sent: u64,
    poll_every: u64,
    received: Vec<u64>,
}

impl App for RingApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump_writer(ctx);
        ctx.set_timer(SimDuration::nanos(self.poll_every), 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Timer { .. } => {
                if let Some(r) = self.reader.as_mut() {
                    while let Some(e) = r.peek::<AccountUpdate>(ctx) {
                        let AccountUpdate::Deposit(v) = e.update else { panic!("deposit") };
                        self.received.push(v);
                        r.advance(ctx, NodeId(0));
                    }
                }
                self.pump_writer(ctx);
                ctx.set_timer(SimDuration::nanos(self.poll_every), 0);
            }
            Event::Completion { wr, status, data, .. } => {
                if let Some(w) = self.writer.as_mut() {
                    let _ = w.on_completion(ctx, wr, status, data.as_deref());
                }
                self.pump_writer(ctx);
            }
            _ => {}
        }
    }
}

impl RingApp {
    fn pump_writer(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(w) = self.writer.as_mut() {
            while self.sent < self.to_send && !w.is_backpressured() {
                let e = Entry {
                    rid: Rid::new(Pid(0), self.sent),
                    update: Account::deposit(self.sent + 1),
                    deps: DepMap::empty(),
                };
                w.append(ctx, &e);
                self.sent += 1;
            }
            w.flush(ctx);
        }
    }
}

/// One `run_ring_traced` outcome: delivered values, the append-seq and
/// apply-seq trace streams, and the fabric's ring-write counters
/// (writes posted, slots carried).
struct RingRun {
    received: Vec<u64>,
    appends: Vec<u64>,
    applies: Vec<u64>,
    ring_writes: u64,
    ring_slots: u64,
}

/// Drive one writer/reader pair to completion under the given batching
/// factor and return what happened.
fn run_ring_traced(
    count: u64,
    cap: usize,
    poll_every: u64,
    torn: bool,
    seed: u64,
    max_batch: usize,
) -> RingRun {
    let mut sim = Simulator::new(2, LatencyModel::default(), seed);
    sim.collect_trace();
    let ring: RegionId = sim.add_region_all(cap * SLOT);
    let heads: RegionId = sim.add_region_all(8);
    if torn {
        sim.install_fault_plan(&FaultPlan::new().at(SimTime::ZERO, Fault::TornWrites(NodeId(1))));
    }
    sim.set_apps(|id| RingApp {
        writer: (id.index() == 0).then(|| {
            RingWriter::new(RingKind::Free, NodeId(1), ring, 0, cap, SLOT, heads, 0)
                .with_max_batch(max_batch)
        }),
        reader: (id.index() == 1)
            .then(|| RingReader::new(RingKind::Free, ring, 0, cap, SLOT, heads, 0)),
        to_send: count,
        sent: 0,
        poll_every,
        received: Vec::new(),
    });
    sim.run_for(SimDuration::millis(200));
    // The append stream and the apply stream, compared separately: the
    // *interleaving* legitimately differs between batching factors
    // (batched posts land later), but each stream's order must not.
    let mut appends = Vec::new();
    let mut applies = Vec::new();
    for rec in sim.take_trace() {
        match rec.event {
            TraceEvent::RingAppend { seq, .. } => appends.push(seq),
            TraceEvent::RingApply { seq, .. } => applies.push(seq),
            _ => {}
        }
    }
    let stats = sim.stats().clone();
    RingRun {
        received: sim.app(NodeId(1)).received.clone(),
        appends,
        applies,
        ring_writes: stats.ring_writes,
        ring_slots: stats.ring_slots,
    }
}

fn run_ring(count: u64, cap: usize, poll_every: u64, torn: bool, seed: u64) -> Vec<u64> {
    run_ring_traced(count, cap, poll_every, torn, seed, 1).received
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the entry count, ring capacity, polling cadence, and
    /// fabric seed, every entry is delivered exactly once, in order.
    #[test]
    fn ring_delivers_everything_in_order(
        count in 1..200u64,
        cap in 2..32usize,
        poll_every in 300..5_000u64,
        seed in 0..u64::MAX / 2,
    ) {
        let received = run_ring(count, cap, poll_every, false, seed);
        prop_assert_eq!(received, (1..=count).collect::<Vec<u64>>());
    }

    /// The canary protocol: the same property holds when every landing
    /// at the reader is torn in two.
    #[test]
    fn ring_survives_torn_writes(
        count in 1..120u64,
        cap in 2..16usize,
        seed in 0..u64::MAX / 2,
    ) {
        let received = run_ring(count, cap, 800, true, seed);
        prop_assert_eq!(received, (1..=count).collect::<Vec<u64>>());
    }

    /// Doorbell batching is invisible to the reader: on the same seed,
    /// a batched writer delivers exactly the entry sequence the
    /// one-write-per-entry writer delivers, in the same
    /// RingAppend/RingApply order — across wraparounds (count >> cap)
    /// and flow-control stalls (small caps, slow polls) — while
    /// posting strictly fewer ring WRITEs whenever a batch formed.
    #[test]
    fn batched_append_is_equivalent_to_unbatched(
        count in 1..150u64,
        cap in 2..16usize,
        poll_every in 300..5_000u64,
        max_batch in 2..12usize,
        seed in 0..u64::MAX / 2,
    ) {
        let base = run_ring_traced(count, cap, poll_every, false, seed, 1);
        let batched = run_ring_traced(count, cap, poll_every, false, seed, max_batch);
        prop_assert_eq!(&base.received, &(1..=count).collect::<Vec<u64>>());
        prop_assert_eq!(&batched.received, &base.received);
        prop_assert_eq!(batched.appends, base.appends);
        prop_assert_eq!(batched.applies, base.applies);
        // Both configurations move every slot exactly once...
        prop_assert_eq!(base.ring_slots, count);
        prop_assert_eq!(batched.ring_slots, count);
        prop_assert_eq!(base.ring_writes, count);
        // ...but the batched writer never posts more WRITEs.
        prop_assert!(batched.ring_writes <= base.ring_writes);
    }

    /// The canary protocol survives torn writes under batching too: the
    /// simulator tears the *last* byte of a posted write, which is the
    /// final slot's canary — inner slots land whole, and the reader's
    /// per-slot canary check masks the torn tail until the rewrite.
    #[test]
    fn batched_ring_survives_torn_writes(
        count in 1..100u64,
        cap in 2..16usize,
        max_batch in 2..8usize,
        seed in 0..u64::MAX / 2,
    ) {
        let run = run_ring_traced(count, cap, 800, true, seed, max_batch);
        prop_assert_eq!(run.received, (1..=count).collect::<Vec<u64>>());
        // Rewrites repost torn slots, so slots >= count.
        prop_assert!(run.ring_slots >= count);
    }
}
