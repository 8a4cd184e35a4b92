//! The two design-choice ablations DESIGN.md §5 argues from, checked
//! like a figure.
//!
//! * **Summarization vs buffering.** The same grow-only set replicated
//!   once through summary slots (one overwrite per peer, no buffer
//!   traversal) and once through the `F` ring buffers (append + periodic
//!   traversal), on identical workloads — the comparison the paper makes
//!   by running GSet both ways across Figs. 8 and 9.
//! * **Single-writer vs CAS-reserved appends.** §2: "Sharing buffers
//!   would require synchronization across processes. RDMA does provide
//!   compare-and-swap operations; however, they are more expensive than
//!   reads and writes and we avoid them with a single-writer design."
//!   The same appends from one node into another node's buffer, once
//!   with plain pipelined writes (the Hamband design) and once with a
//!   CAS to reserve each slot before writing it (the shared-buffer
//!   design), driven on the simulated fabric directly.

use std::fmt::Write as _;

use hamband_runtime::{RunConfig, System, WorkloadSpec};
use hamband_types::GSet;
use rdma_sim::{
    App, Ctx, Event, LatencyModel, NodeId, RegionId, SimDuration, SimTime, Simulator, VerbKind,
};

use crate::experiments::{check, gmean, run, scaled, ExpOptions, FigOutcome};

/// Appends per run of the CAS ablation.
const APPENDS: u64 = 1_000;
/// Bytes per appended entry.
const SLOT: usize = 64;

/// Both ablations, checked: every GSet run converges and summarization's
/// geomean gain over buffering is at least 1x, and a CAS-reserved append
/// costs more than twice a single-writer one.
pub fn ablations(opts: &ExpOptions) -> FigOutcome {
    let g = GSet::default();
    let mut table = String::new();
    let _ = writeln!(table, "summarization vs buffering (GSet):");
    let _ = writeln!(
        table,
        "  {:>7}  {:>6}  {:>14}  {:>14}  {:>8}",
        "updates", "nodes", "reduced t", "buffered t", "gain"
    );
    let mut gains = Vec::new();
    let mut all_converged = true;
    for ratio in [0.25, 0.15, 0.05] {
        for n in [3usize, 5, 7] {
            let rc = scaled(RunConfig::new(
                n,
                WorkloadSpec::ops(opts.ops).with_update_ratio(ratio).with_seed(opts.seed),
            ));
            let red = run(System::Hamband, &g, &g.coord_spec(), &rc);
            let buf = run(System::Hamband, &g, &g.coord_spec_buffered(), &rc);
            all_converged &= red.converged && buf.converged;
            let gain = red.throughput_ops_per_us / buf.throughput_ops_per_us.max(1e-9);
            gains.push(gain);
            let _ = writeln!(
                table,
                "  {:>6}%  {:>6}  {:>14.2}  {:>14.2}  {:>7.2}x",
                (ratio * 100.0) as u32,
                n,
                red.throughput_ops_per_us,
                buf.throughput_ops_per_us,
                gain
            );
        }
    }
    let gain = gmean(&gains);

    let per_append = |cas| appends_finish(cas).as_micros() / APPENDS as f64;
    let (single, cas) = (per_append(false), per_append(true));
    let slowdown = cas / single;
    let _ = writeln!(table, "\nsingle-writer vs CAS-reserved appends ({APPENDS} of {SLOT} bytes):");
    let _ = writeln!(table, "  single-writer (Hamband):   {single:>6.3} us/append");
    let _ = write!(table, "  CAS-reserved (shared buf): {cas:>6.3} us/append");

    let checks = vec![
        check(
            "all runs converged and summarization does not lose to buffering (GSet, §5)",
            all_converged && gain >= 1.0,
            format!("geomean {gain:.2}x"),
        ),
        check(
            "single-writer appends beat CAS-reserved shared-buffer appends by over 2x (§2)",
            slowdown > 2.0,
            format!("{single:.3} vs {cas:.3} us per append, {slowdown:.1}x"),
        ),
    ];
    FigOutcome {
        name: "Ablations — summarization vs buffering, single-writer vs CAS".into(),
        table,
        checks,
    }
}

/// When node 0 of a two-node fabric has landed [`APPENDS`] entries in
/// node 1's buffer, with or without a CAS reserving each slot.
fn appends_finish(cas: bool) -> SimTime {
    let mut sim = Simulator::new(2, LatencyModel::default(), 1);
    let buf = sim.add_region_all(128 * SLOT);
    let tail = cas.then(|| sim.add_region_all(8));
    sim.set_apps(|_| Appender { buf, tail, reserved: 0, written: 0, finished_at: None });
    sim.run_for(SimDuration::millis(100));
    sim.app(NodeId(0)).finished_at.expect("appends finished")
}

/// Node 0's appender: pipelined single-writer WRITEs, or, with a
/// shared `tail` cell, a CAS on it before each WRITE.
struct Appender {
    buf: RegionId,
    tail: Option<RegionId>,
    reserved: u64,
    written: u64,
    finished_at: Option<SimTime>,
}

impl Appender {
    fn write(&self, ctx: &mut Ctx<'_>, i: u64) {
        let slot = [(i & 0xff) as u8; SLOT];
        ctx.post_write(NodeId(1), self.buf, (i as usize % 128) * SLOT, &slot);
    }

    fn reserve(&self, ctx: &mut Ctx<'_>) {
        match self.tail {
            Some(tail) if self.reserved < APPENDS => {
                ctx.post_cas(NodeId(1), tail, 0, self.reserved, self.reserved + 1);
            }
            _ => {}
        }
    }
}

impl App for Appender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.node().index() != 0 {
            return;
        }
        if self.tail.is_some() {
            self.reserve(ctx);
        } else {
            // Pipelined: post everything; RC FIFO delivers in order.
            for i in 0..APPENDS {
                self.write(ctx, i);
            }
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: Event) {
        let Event::Completion { status, kind, .. } = event else { return };
        assert!(status.is_success());
        match kind {
            VerbKind::CompareAndSwap => {
                // Slot reserved; write the entry, then reserve the next.
                self.write(ctx, self.reserved);
                self.reserved += 1;
                self.reserve(ctx);
            }
            VerbKind::Write => {
                self.written += 1;
                if self.written == APPENDS {
                    self.finished_at = Some(ctx.now());
                }
            }
            _ => {}
        }
    }
}
