//! Behavioral tests of the simulator's public surface: verb
//! semantics, RC ordering, timers, fault injection, determinism.
//! (Moved out of `src/sim.rs` to keep modules under the size guard.)

use rdma_sim::{
    App, AppFault, CompletionStatus, Ctx, Event, Fault, FaultPlan, LatencyModel, NodeId, RegionId,
    SimDuration, SimTime, Simulator, VerbKind,
};

/// Records everything it sees.
struct Recorder {
    #[allow(dead_code)]
    region: RegionId,
    completions: Vec<(CompletionStatus, VerbKind)>,
    messages: Vec<Vec<u8>>,
    timer_fires: usize,
    read_data: Option<Vec<u8>>,
    cas_prior: Option<u64>,
    heartbeat_suspended: bool,
    /// When each completion and each message reached the application.
    at: Vec<(VerbKind, SimTime)>,
}

impl Recorder {
    fn new(region: RegionId) -> Self {
        Recorder {
            region,
            completions: Vec::new(),
            messages: Vec::new(),
            timer_fires: 0,
            read_data: None,
            cas_prior: None,
            heartbeat_suspended: false,
            at: Vec::new(),
        }
    }
}

impl App for Recorder {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        match event {
            Event::Completion { status, kind, data, .. } => {
                self.completions.push((status, kind));
                self.at.push((kind, ctx.now()));
                match kind {
                    VerbKind::Read => self.read_data = data,
                    VerbKind::CompareAndSwap => {
                        self.cas_prior = data.map(|d| {
                            let mut w = [0u8; 8];
                            w.copy_from_slice(&d);
                            u64::from_le_bytes(w)
                        })
                    }
                    _ => {}
                }
            }
            Event::Message { payload, .. } => {
                self.at.push((VerbKind::Send, ctx.now()));
                self.messages.push(payload)
            }
            Event::Timer { .. } => self.timer_fires += 1,
            Event::Fault { kind: AppFault::SuspendHeartbeat } => self.heartbeat_suspended = true,
            Event::Fault { kind: AppFault::ResumeHeartbeat } => self.heartbeat_suspended = false,
        }
    }
}

fn two_nodes() -> (Simulator<Recorder>, RegionId) {
    let mut sim = Simulator::new(2, LatencyModel::deterministic(), 1);
    let region = sim.add_region_all(256);
    sim.set_apps(|_| Recorder::new(region));
    (sim, region)
}

#[test]
fn write_lands_and_completes() {
    let (mut sim, region) = two_nodes();
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 4, b"abcd");
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[4..8], b"abcd");
    let app = sim.app(NodeId(0));
    assert_eq!(app.completions, vec![(CompletionStatus::Success, VerbKind::Write)]);
    // Target CPU untouched: no events delivered to node 1.
    assert!(sim.app(NodeId(1)).messages.is_empty());
}

#[test]
fn write_permission_denied() {
    let (mut sim, region) = two_nodes();
    // Revoke node0's write permission on node1's region.
    sim.with_app_ctx(NodeId(1), |_, ctx| {
        ctx.set_write_permission(region, NodeId(0), false);
    });
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, b"x");
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(
        sim.app(NodeId(0)).completions,
        vec![(CompletionStatus::AccessDenied, VerbKind::Write)]
    );
    assert_eq!(sim.region_bytes(NodeId(1), region)[0], 0);
}

#[test]
fn out_of_bounds_write_fails() {
    let (mut sim, region) = two_nodes();
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 250, b"0123456789");
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(
        sim.app(NodeId(0)).completions,
        vec![(CompletionStatus::OutOfBounds, VerbKind::Write)]
    );
}

#[test]
fn read_fetches_remote_bytes() {
    let (mut sim, region) = two_nodes();
    sim.with_app_ctx(NodeId(1), |_, ctx| {
        ctx.local_write(region, 10, b"remote");
    });
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_read(NodeId(1), region, 10, 6);
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(sim.app(NodeId(0)).read_data.as_deref(), Some(&b"remote"[..]));
}

#[test]
fn cas_swaps_only_on_match() {
    let (mut sim, region) = two_nodes();
    sim.with_app_ctx(NodeId(1), |_, ctx| {
        ctx.local_write(region, 0, &7u64.to_le_bytes());
    });
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_cas(NodeId(1), region, 0, 7, 99);
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(sim.app(NodeId(0)).cas_prior, Some(7));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[0..8], &99u64.to_le_bytes());
    // Second CAS with stale expectation fails to swap.
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_cas(NodeId(1), region, 0, 7, 123);
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(sim.app(NodeId(0)).cas_prior, Some(99));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[0..8], &99u64.to_le_bytes());
}

#[test]
fn messages_deliver_in_fifo_order_and_cost_cpu() {
    let (mut sim, _region) = two_nodes();
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.send(NodeId(1), b"first".to_vec());
        ctx.send(NodeId(1), b"second".to_vec());
    });
    sim.run_for(SimDuration::millis(1));
    let msgs = &sim.app(NodeId(1)).messages;
    assert_eq!(msgs.len(), 2);
    assert_eq!(&msgs[0][..], b"first");
    assert_eq!(&msgs[1][..], b"second");
    assert_eq!(sim.stats().messages, 2);
}

#[test]
fn writes_from_same_source_land_in_order() {
    // Post many writes to the same target cell; the last posted
    // value must be the final one (RC FIFO), despite jitter.
    let mut sim = Simulator::new(2, LatencyModel::default(), 99);
    let region = sim.add_region_all(8);
    sim.set_apps(|_| Recorder::new(region));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        for i in 0..50u64 {
            ctx.post_write(NodeId(1), region, 0, &i.to_le_bytes());
        }
    });
    sim.run_for(SimDuration::millis(10));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..8], &49u64.to_le_bytes());
}

#[test]
fn timers_fire() {
    let (mut sim, _r) = two_nodes();
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.set_timer(SimDuration::micros(10), 1);
        ctx.set_timer(SimDuration::micros(20), 2);
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(sim.app(NodeId(0)).timer_fires, 2);
}

#[test]
fn crash_stops_event_delivery_but_memory_lives() {
    let (mut sim, region) = two_nodes();
    let plan = FaultPlan::new().at(SimTime(0), Fault::Crash(NodeId(1)));
    sim.install_fault_plan(&plan);
    sim.run_for(SimDuration::micros(1));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.send(NodeId(1), b"lost".to_vec());
        ctx.post_write(NodeId(1), region, 0, b"kept");
    });
    sim.run_for(SimDuration::millis(1));
    assert!(sim.is_crashed(NodeId(1)));
    assert!(sim.app(NodeId(1)).messages.is_empty());
    // One-sided write still landed: the NIC serves DMA.
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..4], b"kept");
    assert_eq!(sim.app(NodeId(0)).completions, vec![(CompletionStatus::Success, VerbKind::Write)]);
}

#[test]
fn heartbeat_fault_reaches_app() {
    let (mut sim, _r) = two_nodes();
    let plan = FaultPlan::new().at(SimTime(100), Fault::SuspendHeartbeat(NodeId(0)));
    sim.install_fault_plan(&plan);
    sim.run_for(SimDuration::millis(1));
    assert!(sim.app(NodeId(0)).heartbeat_suspended);
}

#[test]
fn torn_writes_split_landing() {
    let (mut sim, region) = two_nodes();
    let plan = FaultPlan::new().at(SimTime(0), Fault::TornWrites(NodeId(1)));
    sim.install_fault_plan(&plan);
    sim.run_for(SimDuration::micros(1));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, b"payloadC");
    });
    // Run just past the first landing: payload there, canary not.
    let land = sim.now() + SimDuration::nanos(1_300);
    sim.run_until(land);
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..7], b"payload");
    assert_eq!(sim.region_bytes(NodeId(1), region)[7], 0, "canary byte not yet landed");
    sim.run_for(SimDuration::millis(1));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..8], b"payloadC");
    // Exactly one completion, after the tail landed.
    assert_eq!(sim.app(NodeId(0)).completions.len(), 1);
}

#[test]
fn partition_parks_traffic_until_heal() {
    let mut sim = Simulator::new(3, LatencyModel::deterministic(), 5);
    let region = sim.add_region_all(64);
    sim.set_apps(|_| Recorder::new(region));
    let plan = FaultPlan::new()
        .at(SimTime(0), Fault::Partition(vec![NodeId(0)], vec![NodeId(1), NodeId(2)]))
        .at(SimTime(50_000), Fault::Heal);
    sim.install_fault_plan(&plan);
    sim.run_for(SimDuration::micros(1));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, b"ab");
        ctx.post_write(NodeId(1), region, 2, b"cd");
        ctx.send(NodeId(1), b"msg".to_vec());
    });
    sim.with_app_ctx(NodeId(1), |_, ctx| {
        // Same-side traffic is unaffected.
        ctx.post_write(NodeId(2), region, 0, b"ok");
    });
    // Long before the heal: cross-side traffic is parked.
    sim.run_until(SimTime(40_000));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..4], &[0u8; 4]);
    assert!(sim.app(NodeId(0)).completions.is_empty());
    assert!(sim.app(NodeId(1)).messages.is_empty());
    assert_eq!(&sim.region_bytes(NodeId(2), region)[..2], b"ok");
    // After the heal: everything lands, in posting order.
    sim.run_for(SimDuration::millis(1));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..4], b"abcd");
    assert_eq!(sim.app(NodeId(0)).completions.len(), 2);
    assert_eq!(sim.app(NodeId(1)).messages.len(), 1);
}

#[test]
fn delay_spike_slows_traffic_within_window() {
    // Identical writes with and without a spike: the spiked one
    // completes later; after the window latency is back to normal.
    let complete_time = |spike: bool| {
        let (mut sim, region) = two_nodes();
        if spike {
            let plan = FaultPlan::new()
                .at(SimTime(0), Fault::DelaySpike(NodeId(1), 8, SimDuration::micros(100)));
            sim.install_fault_plan(&plan);
        }
        sim.run_for(SimDuration::micros(1));
        let posted_at = sim.now();
        sim.with_app_ctx(NodeId(0), |_, ctx| {
            ctx.post_write(NodeId(1), region, 0, b"x");
        });
        sim.run_for(SimDuration::millis(1));
        (sim.app(NodeId(0)).completions.len(), posted_at)
    };
    let (done_plain, _) = complete_time(false);
    let (done_spiked, _) = complete_time(true);
    assert_eq!(done_plain, 1);
    assert_eq!(done_spiked, 1);
    // Directly compare landing times via a single sim.
    let (mut sim, region) = two_nodes();
    let plan =
        FaultPlan::new().at(SimTime(0), Fault::DelaySpike(NodeId(1), 8, SimDuration::micros(5)));
    sim.install_fault_plan(&plan);
    sim.run_for(SimDuration::nanos(100));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, b"slow");
    });
    // The un-spiked landing takes ~1.3us; 8x stretches past 5us.
    sim.run_until(SimTime(4_000));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..4], &[0u8; 4]);
    sim.run_for(SimDuration::millis(1));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..4], b"slow");
    // Spike expired: a fresh write lands at normal speed.
    let t0 = sim.now();
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 8, b"fast");
    });
    sim.run_until(t0 + SimDuration::micros(3));
    assert_eq!(&sim.region_bytes(NodeId(1), region)[8..12], b"fast");
}

#[test]
fn duplicate_completion_delivers_twice_once() {
    let (mut sim, region) = two_nodes();
    let plan = FaultPlan::new().at(SimTime(0), Fault::DuplicateCompletion(NodeId(0)));
    sim.install_fault_plan(&plan);
    sim.run_for(SimDuration::micros(1));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, b"a");
    });
    sim.run_for(SimDuration::millis(1));
    // The armed duplicate fires for exactly one completion.
    assert_eq!(sim.app(NodeId(0)).completions.len(), 2);
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 1, b"b");
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(sim.app(NodeId(0)).completions.len(), 3);
}

#[test]
fn deterministic_replay() {
    let run = || {
        let (mut sim, region) = two_nodes();
        sim.with_app_ctx(NodeId(0), |_, ctx| {
            for i in 0..10u64 {
                ctx.post_write(NodeId(1), region, (i as usize) * 8, &i.to_le_bytes());
                ctx.send(NodeId(1), i.to_le_bytes().to_vec());
            }
        });
        sim.run_for(SimDuration::millis(5));
        (sim.now(), sim.region_bytes(NodeId(1), region).to_vec(), sim.stats().messages)
    };
    assert_eq!(run(), run());
}

#[test]
fn messages_stay_fifo_under_busy_receiver() {
    // Regression: a deferred delivery (receiver CPU busy) must not
    // be overtaken by a logically later message that still carries
    // a lower queue sequence number at the same timestamp.
    struct Busy {
        msgs: Vec<u64>,
    }
    impl App for Busy {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.node().index() == 0 {
                for i in 0..200u64 {
                    ctx.send(NodeId(1), i.to_le_bytes().to_vec());
                }
            }
        }
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
            if let Event::Message { payload, .. } = event {
                let mut w = [0u8; 8];
                w.copy_from_slice(&payload);
                self.msgs.push(u64::from_le_bytes(w));
                // Burn irregular CPU so deliveries defer irregularly.
                let burn = 500 + (self.msgs.len() as u64 % 7) * 900;
                ctx.consume(SimDuration::nanos(burn));
            }
        }
    }
    let mut sim = Simulator::new(2, LatencyModel::default(), 11);
    sim.set_apps(|_| Busy { msgs: Vec::new() });
    sim.run_for(SimDuration::millis(20));
    let msgs = &sim.app(NodeId(1)).msgs;
    assert_eq!(msgs.len(), 200);
    assert_eq!(*msgs, (0..200).collect::<Vec<u64>>(), "FIFO violated");
}

#[test]
fn stats_count_traffic() {
    let (mut sim, region) = two_nodes();
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, &[1, 2, 3]);
        ctx.post_read(NodeId(1), region, 0, 16);
        ctx.post_cas(NodeId(1), region, 0, 0, 1);
    });
    sim.run_for(SimDuration::millis(1));
    let s = sim.stats();
    assert_eq!(s.writes, 1);
    assert_eq!(s.reads, 1);
    assert_eq!(s.cas, 1);
    assert_eq!(s.one_sided_bytes, 19);
    assert_eq!(s.per_node_ops[0], 3);
}

#[test]
fn verbs_from_an_idle_node_complete_at_pinned_instants() {
    // Deterministic model, posted at 1 µs: 60 ns of posting CPU, the
    // verb leaves the NIC at 1 110 ns. A WRITE completes when it
    // lands; a READ or CAS acts at half its round trip and completes
    // at the whole; a SEND is delivered one message latency later.
    let one = |post: &dyn Fn(&mut Ctx<'_>, RegionId)| {
        let (mut sim, region) = two_nodes();
        sim.run_for(SimDuration::micros(1));
        sim.with_app_ctx(NodeId(0), |_, ctx| post(ctx, region));
        sim.run_for(SimDuration::millis(1));
        let mut at = sim.app(NodeId(0)).at.clone();
        at.extend(sim.app(NodeId(1)).at.iter().copied());
        at
    };
    let write = one(&|ctx, r| {
        ctx.post_write(NodeId(1), r, 0, &[7; 100]);
    });
    assert_eq!(write, vec![(VerbKind::Write, SimTime(2_130))]);
    let read = one(&|ctx, r| {
        ctx.post_read(NodeId(1), r, 0, 100);
    });
    assert_eq!(read, vec![(VerbKind::Read, SimTime(3_130))]);
    let cas = one(&|ctx, r| {
        ctx.post_cas(NodeId(1), r, 0, 0, 1);
    });
    assert_eq!(cas, vec![(VerbKind::CompareAndSwap, SimTime(3_710))]);
    let send = one(&|ctx, _| ctx.send(NodeId(1), vec![7; 100]));
    assert_eq!(send, vec![(VerbKind::Send, SimTime(26_130))]);
}

/// Two nodes sharing one durable region, a fault plan installed.
fn durable_pair(plan: FaultPlan) -> (Simulator<Recorder>, RegionId) {
    let mut sim = Simulator::new(2, LatencyModel::deterministic(), 1);
    let region = sim.add_region_all_durable(64);
    sim.set_apps(|_| Recorder::new(region));
    sim.install_fault_plan(&plan);
    (sim, region)
}

/// Crash node 1 and restart it losing unfenced stores, now.
fn crash_and_restart(sim: &mut Simulator<Recorder>) {
    let t = sim.now();
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(t, Fault::Crash(NodeId(1)))
            .at(t + SimDuration::micros(1), Fault::Restart(NodeId(1), true)),
    );
    sim.run_for(SimDuration::micros(10));
    assert!(!sim.is_crashed(NodeId(1)));
}

#[test]
fn remote_writes_are_durable_once_landed() {
    let (mut sim, region) = durable_pair(FaultPlan::new());
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 8, b"durable!");
    });
    sim.run_for(SimDuration::millis(1));
    crash_and_restart(&mut sim);
    assert_eq!(&sim.region_bytes(NodeId(1), region)[8..16], b"durable!");
}

#[test]
fn both_halves_of_a_torn_write_are_durable() {
    let (mut sim, region) =
        durable_pair(FaultPlan::new().at(SimTime(0), Fault::TornWrites(NodeId(1))));
    sim.run_for(SimDuration::micros(1));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, b"payloadC");
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(sim.app(NodeId(0)).completions.len(), 1);
    crash_and_restart(&mut sim);
    assert_eq!(&sim.region_bytes(NodeId(1), region)[..8], b"payloadC");
}

#[test]
fn a_successful_cas_is_durable_and_a_failed_one_changes_nothing() {
    let (mut sim, region) = durable_pair(FaultPlan::new());
    // An unfenced store under the failing CAS: were the CAS to write
    // through, the store would survive the restart.
    sim.with_app_ctx(NodeId(1), |_, ctx| {
        ctx.local_write(region, 16, &7u64.to_le_bytes());
    });
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_cas(NodeId(1), region, 0, 0, 99);
        ctx.post_cas(NodeId(1), region, 16, 5, 9);
    });
    sim.run_for(SimDuration::millis(1));
    assert_eq!(sim.app(NodeId(0)).cas_prior, Some(7), "the second CAS fails");
    assert_eq!(&sim.region_bytes(NodeId(1), region)[16..24], &7u64.to_le_bytes());
    crash_and_restart(&mut sim);
    let bytes = sim.region_bytes(NodeId(1), region);
    assert_eq!(&bytes[0..8], &99u64.to_le_bytes());
    assert_eq!(&bytes[16..24], &[0; 8]);
}

#[test]
fn local_writes_are_durable_only_once_fenced() {
    let (mut sim, region) = durable_pair(FaultPlan::new());
    sim.with_app_ctx(NodeId(1), |_, ctx| {
        ctx.local_write(region, 0, b"fenced");
        ctx.fence_region(region);
        ctx.local_write(region, 32, b"unfenced");
    });
    crash_and_restart(&mut sim);
    let bytes = sim.region_bytes(NodeId(1), region);
    assert_eq!(&bytes[0..6], b"fenced");
    assert_eq!(&bytes[32..40], &[0; 8]);
}

#[test]
fn a_read_is_not_ordered_behind_an_earlier_write_on_its_pair() {
    // RC would order the READ after the WRITE; this fabric keeps FIFO
    // among WRITEs only, so a READ posted right behind a large WRITE
    // to the same (issuer, target) pair overtakes it.
    let mut sim = Simulator::new(2, LatencyModel::deterministic(), 1);
    let region = sim.add_region_all(16_384);
    sim.set_apps(|_| Recorder::new(region));
    sim.run_for(SimDuration::micros(1));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, &[0xab; 10_000]);
        ctx.post_read(NodeId(1), region, 0, 4);
    });
    sim.run_for(SimDuration::millis(1));
    let app = sim.app(NodeId(0));
    assert_eq!(app.read_data.as_deref(), Some(&[0u8; 4][..]), "the READ returns the old bytes");
    assert_eq!(app.at, vec![(VerbKind::Read, SimTime(3_220)), (VerbKind::Write, SimTime(4_110))]);
    assert_eq!(sim.region_bytes(NodeId(1), region)[0], 0xab);
}

/// Notes the address it runs at in every handler.
struct Located {
    seen: Vec<usize>,
}

impl Located {
    fn note(&mut self) {
        self.seen.push(self as *const Self as usize);
    }
}

impl App for Located {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.note();
        ctx.send(NodeId(1 - ctx.node().index()), vec![1]);
        ctx.set_timer(SimDuration::micros(1), 0);
    }
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: Event) {
        self.note();
    }
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {
        self.note();
    }
}

/// A replica handles its events where the simulator keeps it: start,
/// messages, timers, faults, a restart and a driver's call all see the
/// address `Simulator::app` returns, so no handler moved it.
#[test]
fn apps_handle_events_in_place() {
    let mut sim = Simulator::new(2, LatencyModel::deterministic(), 1);
    sim.set_apps(|_| Located { seen: Vec::new() });
    let t = SimTime::ZERO + SimDuration::micros(100);
    sim.install_fault_plan(
        &FaultPlan::new()
            .at(t, Fault::SuspendHeartbeat(NodeId(0)))
            .at(t, Fault::Crash(NodeId(1)))
            .at(t + SimDuration::micros(1), Fault::Restart(NodeId(1), true)),
    );
    sim.run_for(SimDuration::millis(1));
    sim.with_app_ctx(NodeId(0), |app, _| app.note());
    for n in [NodeId(0), NodeId(1)] {
        let at = sim.app(n) as *const Located as usize;
        let seen = &sim.app(n).seen;
        // Start, the peer's message and the timer; then node 0's
        // heartbeat fault and the driver's call, node 1's restart.
        assert_eq!(seen.len(), 5 - n.index(), "{n:?}: {seen:?}");
        assert!(seen.iter().all(|&a| a == at), "{n:?} at {at:#x} saw {seen:x?}");
    }
}

#[test]
#[should_panic(expected = "set_apps")]
fn running_before_set_apps_panics() {
    let mut sim: Simulator<Located> = Simulator::new(2, LatencyModel::deterministic(), 1);
    sim.run_for(SimDuration::micros(1));
}

/// A WRITE's payload travels in a buffer the fabric reuses once the
/// WRITE has landed: a short WRITE after a long one to the same place
/// lands its own bytes and no more, whether the long one's buffer is
/// still in flight or already back.
#[test]
fn a_short_write_after_a_long_one_lands_exactly_its_own_bytes() {
    let (mut sim, region) = two_nodes();
    let bytes = |sim: &Simulator<Recorder>| sim.region_bytes(NodeId(1), region)[..12].to_vec();
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 0, b"0123456789");
        ctx.post_write(NodeId(1), region, 0, b"ab");
    });
    sim.run_for(SimDuration::micros(5));
    assert_eq!(bytes(&sim), b"ab23456789\0\0");
    // Both buffers are back; the next WRITEs reuse them.
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 2, b"LONGER-ONE");
    });
    sim.run_for(SimDuration::micros(5));
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        ctx.post_write(NodeId(1), region, 4, b"x");
    });
    sim.run_for(SimDuration::micros(5));
    assert_eq!(bytes(&sim), b"abLOxGER-ONE");
    assert_eq!(sim.app(NodeId(0)).completions.len(), 4);
}

/// Under `TornWrites` a WRITE lands all but its last byte on arrival and
/// the last byte, from the same buffer, 400 ns later; its one completion
/// comes with the tail. An 8-byte WRITE posted at 1 000 ns leaves the
/// NIC at 1 110 and arrives 1 001 ns later (1 000 base + 1 for 8 bytes).
#[test]
fn a_torn_write_lands_its_tail_400_ns_after_the_rest() {
    let (mut sim, region) = two_nodes();
    let plan = FaultPlan::new().at(SimTime(0), Fault::TornWrites(NodeId(1)));
    sim.install_fault_plan(&plan);
    sim.run_until(SimTime(1_000));
    let post = |sim: &mut Simulator<Recorder>, data: &'static [u8]| {
        sim.with_app_ctx(NodeId(0), |_, ctx| {
            ctx.post_write(NodeId(1), region, 0, data);
        });
    };
    let bytes = |sim: &Simulator<Recorder>| sim.region_bytes(NodeId(1), region)[..8].to_vec();
    post(&mut sim, b"payloadC");
    sim.run_until(SimTime(2_110));
    assert_eq!(bytes(&sim), [0; 8]);
    sim.run_until(SimTime(2_111));
    assert_eq!(bytes(&sim), b"payload\0");
    sim.run_until(SimTime(2_510));
    assert_eq!(bytes(&sim), b"payload\0", "the tail is 400 ns behind");
    assert!(sim.app(NodeId(0)).completions.is_empty());
    sim.run_until(SimTime(2_511));
    assert_eq!(bytes(&sim), b"payloadC");
    assert_eq!(sim.app(NodeId(0)).at, [(VerbKind::Write, SimTime(2_511))]);
    // The next torn WRITE reuses the buffer and lands its own bytes.
    post(&mut sim, b"PAYLOADc");
    sim.run_for(SimDuration::micros(5));
    assert_eq!(bytes(&sim), b"PAYLOADc");
    assert_eq!(sim.app(NodeId(0)).completions.len(), 2);
}
