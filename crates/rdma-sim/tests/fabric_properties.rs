//! Property tests of the fabric's ordering guarantees — the invariants
//! every protocol in the runtime is built on.

use proptest::prelude::*;
use rdma_sim::{App, Ctx, Event, LatencyModel, NodeId, RegionId, SimDuration, Simulator};

/// Sends numbered messages and/or writes, burning variable CPU at the
/// receiver, and records delivery order.
struct Chaos {
    region: RegionId,
    plan: Vec<ChaosOp>,
    burn: Vec<u64>,
    received: Vec<u64>,
    completions: usize,
}

#[derive(Debug, Clone, Copy)]
enum ChaosOp {
    Send(u64),
    Write(u64),
}

impl App for Chaos {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node().index() == 0 {
            for op in self.plan.clone() {
                match op {
                    ChaosOp::Send(i) => ctx.send(NodeId(1), i.to_le_bytes().to_vec()),
                    ChaosOp::Write(i) => {
                        // Writes go to slot (i % 16); landing order is
                        // checked via the message stream only.
                        ctx.post_write(
                            NodeId(1),
                            self.region,
                            (i as usize % 16) * 8,
                            &i.to_le_bytes(),
                        );
                    }
                }
            }
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Message { payload, .. } => {
                let mut w = [0u8; 8];
                w.copy_from_slice(&payload);
                self.received.push(u64::from_le_bytes(w));
                let burn = self.burn[self.received.len() % self.burn.len()];
                ctx.consume(SimDuration::nanos(burn));
            }
            Event::Completion { .. } => self.completions += 1,
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-channel FIFO for two-sided messages holds under arbitrary
    /// traffic mixes and receiver CPU contention.
    #[test]
    fn messages_fifo_under_arbitrary_load(
        n_msgs in 1..80usize,
        writes_between in prop::collection::vec(0..3usize, 1..80),
        burn in prop::collection::vec(0..4_000u64, 1..8),
        seed in 0..u64::MAX / 2,
    ) {
        let mut plan = Vec::new();
        let mut next = 0u64;
        for (i, &w) in writes_between.iter().enumerate().take(n_msgs) {
            plan.push(ChaosOp::Send(next));
            next += 1;
            for _ in 0..w {
                plan.push(ChaosOp::Write(1_000 + i as u64));
            }
        }
        let sent: Vec<u64> = (0..next).collect();
        let mut sim = Simulator::new(2, LatencyModel::default(), seed);
        let region = sim.add_region_all(16 * 8);
        let plan2 = plan.clone();
        let burn2 = burn.clone();
        sim.set_apps(move |_| Chaos {
            region,
            plan: plan2.clone(),
            burn: burn2.clone(),
            received: Vec::new(),
            completions: 0,
        });
        sim.run_for(SimDuration::millis(50));
        prop_assert_eq!(&sim.app(NodeId(1)).received, &sent, "message FIFO violated");
        // Every posted write completed.
        let writes = plan.iter().filter(|op| matches!(op, ChaosOp::Write(_))).count();
        prop_assert_eq!(sim.app(NodeId(0)).completions, writes);
    }

    /// Same-source same-target one-sided writes land in posting order:
    /// the final value of a repeatedly overwritten cell is the last
    /// posted value, whatever the jitter seed.
    #[test]
    fn writes_land_in_posting_order(count in 2..120u64, seed in 0..u64::MAX / 2) {
        struct Writer {
            region: RegionId,
            count: u64,
        }
        impl App for Writer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                if ctx.node().index() == 0 {
                    for i in 0..self.count {
                        ctx.post_write(NodeId(1), self.region, 0, &i.to_le_bytes());
                    }
                }
            }
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: Event) {}
        }
        let mut sim = Simulator::new(2, LatencyModel::default(), seed);
        let region = sim.add_region_all(8);
        let count2 = count;
        sim.set_apps(move |_| Writer { region, count: count2 });
        sim.run_for(SimDuration::millis(50));
        let cell = &sim.region_bytes(NodeId(1), region)[..8];
        prop_assert_eq!(cell, &(count - 1).to_le_bytes()[..], "RC FIFO violated");
    }

    /// Determinism: identical seeds give identical traffic statistics
    /// and memory, whatever the workload shape.
    #[test]
    fn identical_seeds_identical_runs(count in 1..60u64, seed in 0..u64::MAX / 2) {
        let run = |seed: u64| {
            struct W {
                region: RegionId,
                count: u64,
            }
            impl App for W {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    if ctx.node().index() == 0 {
                        for i in 0..self.count {
                            ctx.post_write(NodeId(1), self.region, (i as usize % 8) * 8, &i.to_le_bytes());
                            if i % 3 == 0 {
                                ctx.send(NodeId(1), i.to_le_bytes().to_vec());
                            }
                        }
                    }
                }
                fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: Event) {}
            }
            let mut sim = Simulator::new(2, LatencyModel::default(), seed);
            let region = sim.add_region_all(64);
            let c = count;
            sim.set_apps(move |_| W { region, count: c });
            sim.run_for(SimDuration::millis(20));
            (
                sim.region_bytes(NodeId(1), region).to_vec(),
                sim.stats().writes,
                sim.stats().messages,
                sim.now(),
            )
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
