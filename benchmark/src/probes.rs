//! Host-time probes: nanoseconds per call into a layer's public
//! function, as the median of timed batches with the median absolute
//! deviation beside it.
//!
//! Each probe is a closure that performs about `iters` calls and
//! returns how many it made and how long they took; set-up a call needs
//! (a simulator, a ring with landed entries) happens inside the closure
//! but outside the timed stretch. `iters` is sized once so a batch
//! lasts about a millisecond, then `BATCHES` batches are timed after
//! `WARMUP` untimed ones.

use std::hint::black_box;
use std::time::{Duration, Instant};

use hamband_core::counts::DepMap;
use hamband_core::ids::{MethodId, Pid, Rid};
use hamband_core::object::ObjectSpec;
use hamband_core::wire::Wire;
use hamband_runtime::codec::{slot_ready, Entry, SummarySlot};
use hamband_runtime::conf::GroupEngine;
use hamband_runtime::metrics::LatencyHistogram;
use hamband_runtime::persist::{decode_log, encode_header, encode_record, LogRecord};
use hamband_runtime::rings::{RingReader, RingWriter};
use hamband_runtime::RuntimeConfig;
use hamband_types::bank::BankUpdate;
use hamband_types::counter::CounterUpdate;
use hamband_types::courseware::CoursewareUpdate;
use hamband_types::orset::OrSetUpdate;
use hamband_types::{Bank, Counter, Courseware, OrSet};
use rdma_sim::{App, Ctx, Event, LatencyModel, NodeId, RegionId, RingKind, SimDuration, Simulator};

use crate::stats::median_mad;

/// Timed batches per probe.
pub const BATCHES: usize = 15;
const WARMUP: usize = 2;
const BATCH_TARGET: Duration = Duration::from_millis(1);

/// One probe's result.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Metric name.
    pub name: &'static str,
    /// Median over the batches (ns per call, or events per second).
    pub median: f64,
    /// Median absolute deviation over the batches, same unit.
    pub mad: f64,
}

/// Time `batch(iters)` over [`BATCHES`] batches; `figure` turns one
/// batch's (calls made, elapsed) into the reported number.
fn probe(
    name: &'static str,
    mut batch: impl FnMut(u64) -> (u64, Duration),
    figure: impl Fn(u64, Duration) -> f64,
) -> Probe {
    // Size the batch: double until it lasts long enough to time.
    let mut iters = 64u64;
    while batch(iters).1 < BATCH_TARGET && iters < 1 << 24 {
        iters *= 2;
    }
    for _ in 0..WARMUP {
        batch(iters);
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (calls, elapsed) = batch(iters);
            figure(calls, elapsed)
        })
        .collect();
    let (median, mad) = median_mad(&samples);
    Probe { name, median, mad }
}

fn ns_per_call(calls: u64, elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / calls.max(1) as f64
}

/// A probe of a plain function: `call` runs once per iteration.
fn probe_fn(name: &'static str, mut call: impl FnMut(u64)) -> Probe {
    probe(
        name,
        |iters| {
            let start = Instant::now();
            for i in 0..iters {
                call(i);
            }
            (iters, start.elapsed())
        },
        ns_per_call,
    )
}

/// An application that does nothing: the ring probes drive the fabric
/// from outside through [`Simulator::with_app_ctx`].
struct Idle;

impl App for Idle {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_event(&mut self, _ctx: &mut Ctx<'_>, _event: Event) {}
}

/// Re-arms one timer per node forever: nothing but the event loop runs.
struct Ticker {
    fired: u64,
}

impl App for Ticker {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::nanos(100), 0);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, _event: Event) {
        self.fired += 1;
        ctx.set_timer(SimDuration::nanos(100), 0);
    }
}

/// Node 0 keeps one 64-byte WRITE to node 1 in flight.
struct WriteLoop {
    region: RegionId,
}

impl WriteLoop {
    fn post(&self, ctx: &mut Ctx<'_>) {
        if ctx.node() == NodeId(0) {
            ctx.post_write(NodeId(1), self.region, 0, &[7u8; 64]);
        }
    }
}

impl App for WriteLoop {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.post(ctx);
    }
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        if matches!(event, Event::Completion { .. }) {
            self.post(ctx);
        }
    }
}

const RING_CAP: usize = 512;
const RING_ENTRIES: u64 = 256;

/// A two-node simulator with one free ring from node 0 to node 1.
fn ring_fixture(slot: usize) -> (Simulator<Idle>, RingWriter, RingReader) {
    let mut sim = Simulator::new(2, LatencyModel::default(), 7);
    let ring = sim.add_region_all(RING_CAP * slot);
    let heads = sim.add_region_all(8);
    sim.set_apps(|_| Idle);
    let writer = RingWriter::new(RingKind::Free, NodeId(1), ring, 0, RING_CAP, slot, heads, 0)
        .with_max_batch(16);
    let reader = RingReader::new(RingKind::Free, ring, 0, RING_CAP, slot, heads, 0);
    (sim, writer, reader)
}

fn bank_entry(i: u64) -> Entry<BankUpdate> {
    Entry {
        rid: Rid::new(Pid(0), i),
        update: BankUpdate::Deposit(i % 24, 1 + i % 50),
        deps: DepMap::from_entries([(Pid(0), MethodId(0), 3)]),
    }
}

fn append_entries(sim: &mut Simulator<Idle>, writer: &mut RingWriter) -> Duration {
    sim.with_app_ctx(NodeId(0), |_, ctx| {
        let start = Instant::now();
        for i in 0..RING_ENTRIES {
            writer.append(ctx, &bank_entry(i));
        }
        writer.flush(ctx);
        start.elapsed()
    })
}

/// Run every probe.
pub fn run_all() -> Vec<Probe> {
    let cfg = RuntimeConfig::default();
    let slot_size = cfg.entry_size();
    let mut out = Vec::new();

    // codec: ring entries.
    let entry = bank_entry(12_345);
    let mut buf = Vec::new();
    out.push(probe_fn("codec.entry_encode_ns", |i| {
        entry.to_slot_into(black_box(i + 1), slot_size, &mut buf);
        black_box(buf.len());
    }));
    let slot = entry.to_slot(7, slot_size);
    out.push(probe_fn("codec.entry_decode_ns", |_| {
        black_box(Entry::<BankUpdate>::from_slot(black_box(&slot), 7).expect("valid slot"));
    }));
    out.push(probe_fn("codec.slot_ready_ns", |_| {
        black_box(slot_ready(black_box(&slot), 7));
    }));

    // codec: summary slots (a 64-element grow-only summary).
    let summary = SummarySlot {
        version: 9,
        counts: vec![9],
        summary: Some(CoursewareUpdate::RegisterStudents((0..64).collect())),
    };
    let small = cfg.summary_slot_size(1);
    let large = RuntimeConfig::default()
        .with_summary_payload_cap(64 * 1024)
        .summary_slot_size(1);
    let mut sbuf = Vec::new();
    out.push(probe_fn("codec.summary_encode_ns", |_| {
        summary.to_slot_into(small, &mut sbuf);
        black_box(sbuf.len());
    }));
    let sbytes = summary.to_slot(small);
    out.push(probe_fn("codec.summary_decode_ns", |_| {
        black_box(
            SummarySlot::<CoursewareUpdate>::from_slot(black_box(&sbytes), 1).expect("valid"),
        );
    }));
    out.push(probe_fn("codec.summary_encode_64k_ns", |_| {
        summary.to_slot_into(large, &mut sbuf);
        black_box(sbuf.len());
    }));

    // wire: one update out and back.
    let update = CounterUpdate::Add(-123_456);
    out.push(probe_fn("wire.update_roundtrip_ns", |_| {
        let bytes = black_box(&update).to_bytes();
        black_box(CounterUpdate::from_bytes(&bytes).expect("round trip"));
    }));

    // rings: writer and reader, driven through a simulator context.
    // One batch step is 256 entries; the fixture is rebuilt untimed.
    out.push(probe(
        "rings.append_flush_ns",
        |iters| {
            let rounds = iters.div_ceil(RING_ENTRIES);
            let elapsed = (0..rounds)
                .map(|_| {
                    let (mut sim, mut writer, _) = ring_fixture(slot_size);
                    let t = append_entries(&mut sim, &mut writer);
                    black_box((sim, writer));
                    t
                })
                .sum();
            (rounds * RING_ENTRIES, elapsed)
        },
        ns_per_call,
    ));
    {
        let (mut sim, _, reader) = ring_fixture(slot_size);
        out.push(probe(
            "rings.poll_empty_ns",
            |iters| {
                sim.with_app_ctx(NodeId(1), |_, ctx| {
                    let start = Instant::now();
                    for _ in 0..iters {
                        black_box(black_box(&reader).next_ready(ctx));
                    }
                    (iters, start.elapsed())
                })
            },
            ns_per_call,
        ));
    }
    out.push(probe(
        "rings.peek_advance_ns",
        |iters| {
            let rounds = iters.div_ceil(RING_ENTRIES);
            let elapsed = (0..rounds)
                .map(|_| {
                    let (mut sim, mut writer, mut reader) = ring_fixture(slot_size);
                    append_entries(&mut sim, &mut writer);
                    sim.run_for(SimDuration::micros(200)); // let the WRITEs land
                    sim.with_app_ctx(NodeId(1), |_, ctx| {
                        let start = Instant::now();
                        for _ in 0..RING_ENTRIES {
                            black_box(reader.peek::<BankUpdate>(ctx).expect("entry landed"));
                            reader.advance(ctx, NodeId(0));
                        }
                        start.elapsed()
                    })
                })
                .sum();
            (rounds * RING_ENTRIES, elapsed)
        },
        ns_per_call,
    ));

    // sim: the event loop alone, then one WRITE posted and completed.
    {
        let mut sim = Simulator::new(4, LatencyModel::default(), 7);
        sim.set_apps(|_| Ticker { fired: 0 });
        let fired = |sim: &Simulator<Ticker>| (0..4).map(|n| sim.app(NodeId(n)).fired).sum::<u64>();
        out.push(probe(
            "sim.events_per_s",
            |events| {
                let before = fired(&sim);
                let start = Instant::now();
                // Four nodes each fire once per 100 virtual ns.
                sim.run_for(SimDuration::nanos(events * 25));
                let elapsed = start.elapsed();
                (fired(&sim) - before, elapsed)
            },
            |events, elapsed| events as f64 / elapsed.as_secs_f64(),
        ));
    }
    {
        let mut sim = Simulator::new(2, LatencyModel::default(), 7);
        let region = sim.add_region_all(64);
        sim.set_apps(|_| WriteLoop { region });
        out.push(probe(
            "sim.write_ns",
            |micros| {
                let before = sim.stats().writes;
                let start = Instant::now();
                sim.run_for(SimDuration::micros(micros));
                let elapsed = start.elapsed();
                (sim.stats().writes - before, elapsed)
            },
            ns_per_call,
        ));
    }

    // conf: one election cycle through the engine's public steps —
    // candidacy, two tallied acks, the win, leader install, and a
    // commit-index advance.
    {
        let reader = RingReader::new(RingKind::Conf, RegionId(0), 8, 64, 64, RegionId(1), 0);
        let mut engine = GroupEngine::new(Pid(0), reader);
        out.push(probe_fn("conf.engine_commit_ns", |i| {
            let epoch = engine.begin_election(NodeId(1), i, i);
            engine.on_leader_ack(NodeId(2), epoch, i + 2, i);
            engine.on_leader_ack(NodeId(3), epoch, i + 1, i + 1);
            black_box(engine.try_win(3, Pid(1)).expect("majority of 4"));
            engine.install_leader(Vec::new(), i + 2, i + 2);
            black_box(engine.advance_commit_index(2));
        }));
    }

    // persist: one slot-sized record.
    let record = LogRecord::FreeSlot {
        src: 1,
        slot: slot.clone(),
    };
    let mut log = Vec::new();
    out.push(probe_fn("persist.encode_record_ns", |_| {
        log.clear();
        encode_record(black_box(&record), &mut log);
        black_box(log.len());
    }));
    let mut log = Vec::new();
    encode_header(&mut log);
    for _ in 0..64 {
        encode_record(&record, &mut log);
    }
    out.push(probe(
        "persist.decode_record_ns",
        |iters| {
            let rounds = iters.div_ceil(64);
            let start = Instant::now();
            for _ in 0..rounds {
                black_box(decode_log(black_box(&log)).expect("valid log"));
            }
            (rounds * 64, start.elapsed())
        },
        ns_per_call,
    ));

    // metrics: one histogram sample.
    let mut hist = LatencyHistogram::default();
    out.push(probe_fn("metrics.hist_record_ns", |i| {
        hist.record(black_box(1_000 + (i & 0xffff) * 37));
    }));

    // types: state application and summarization.
    let bank = Bank::default();
    let mut state = bank.apply(
        &bank.initial(),
        &BankUpdate::OpenAccounts((0..24).collect()),
    );
    out.push(probe_fn("types.bank_apply_ns", |i| {
        bank.apply_mut(&mut state, black_box(&BankUpdate::Deposit(i % 24, 5)));
    }));
    let orset = OrSet::default();
    let mut state = orset.initial();
    out.push(probe_fn("types.orset_apply_ns", |i| {
        // Add then remove the same tag every other call, so the state
        // stays at its working size.
        let (element, tag) = ((i / 2) % 64, (0, i / 2));
        let call = if i % 2 == 0 {
            OrSetUpdate::Add { element, tag }
        } else {
            OrSetUpdate::Remove {
                element,
                tags: vec![tag],
            }
        };
        orset.apply_mut(&mut state, black_box(&call));
    }));
    let counter = Counter::default();
    out.push(probe_fn("types.counter_summarize_ns", |i| {
        let folded = counter.summarize(
            black_box(&CounterUpdate::Add(i as i64)),
            &CounterUpdate::Add(3),
        );
        black_box(folded.expect("counter adds fold"));
    }));
    let courseware = Courseware::default();
    let registered = CoursewareUpdate::RegisterStudents((0..64).collect());
    out.push(probe_fn("types.courseware_summarize_ns", |i| {
        let one = CoursewareUpdate::RegisterStudents(vec![i % 48]);
        black_box(
            courseware
                .summarize(black_box(&registered), &one)
                .expect("registrations fold"),
        );
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_reports_a_positive_median() {
        let probes = run_all();
        assert_eq!(probes.len(), 20);
        for p in &probes {
            assert!(
                p.median > 0.0 && p.median.is_finite(),
                "{}: {}",
                p.name,
                p.median
            );
            assert!(p.mad >= 0.0, "{}: mad {}", p.name, p.mad);
        }
        let mut names: Vec<_> = probes.iter().map(|p| p.name).collect();
        names.dedup();
        assert_eq!(names.len(), 20);
    }
}
