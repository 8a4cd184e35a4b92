//! What a measuring child process does: set up, report `ready`, then
//! measure one workload either end to end (tracing off) or layer by
//! layer (a traced run, the probes), and print the result as lines the
//! supervising parent parses:
//!
//! ```text
//! N <free text, passed through to the reader>
//! ready
//! M <metric name> <value>
//! H <one host_ops_per_s sample>
//! R attempted=<n> failed=<n> correct=<0|1> fingerprint=<hex>
//! ```

use std::path::Path;
use std::time::Instant;

use hamband_runtime::TraceMode;
use rdma_sim::NodeId;

use crate::measure::{end_to_end_virtual, per_layer_outcome, Metrics, Rep};
use crate::probes;
use crate::spans::analyze;
use crate::stats::{median, merged_phases, quantile_interp_ns, UPDATE_PHASES};
use crate::workloads::{Workload, OPEN_LOOP_RATE};

/// Fewest timed simulator repetitions of one end-to-end child.
pub const MIN_REPS: usize = 2;
/// Untraced and traced repetitions of a per-layer run.
const LAYER_REPS: (usize, usize) = (3, 2);
/// Calls of the closed-loop capacity calibration on the threaded backend.
const CAPACITY_CALLS: u64 = 200_000;
/// Wall cap of one threaded run, seconds (the open-loop run itself
/// lasts `--seconds`).
const THREADED_CAP_S: u64 = 60;
/// Share of a repetition's budget the warm-up runs. Set-up has to last
/// a few tenths of a second: its page-fault-heavy start moves by
/// 10–20 ms with the box's other tenants, which a 40 ms set-up (a tenth
/// of the budget on `courseware-leaderfail`) showed as ±40 %.
const WARMUP_SHARE: f64 = 0.3;
/// Spans of each kind written to the trace file.
const SPANS_WRITTEN_PER_KIND: usize = 2_000;

/// What to measure.
#[derive(Debug, Clone)]
pub struct Request {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of the workload's inputs and of the fabric.
    pub seed: u64,
    /// Seconds to measure for; 0 sets up and stops.
    pub seconds: u64,
    /// Layer-by-layer (traced) instead of end to end.
    pub trace: bool,
    /// Multiplier on every call budget (1 except in self-checks).
    pub scale: f64,
    /// Where the trace file goes.
    pub out_dir: String,
}

/// Accumulates the verdict over a child's repetitions.
#[derive(Debug, Default)]
pub struct Tally {
    /// Calls asked for.
    pub attempted: u64,
    /// Calls that did not complete correctly.
    pub failed: u64,
    /// Fingerprint shared by every simulator repetition (0 before the
    /// first).
    pub fingerprint: u64,
    /// A check beyond the per-repetition ones failed.
    pub inconsistent: bool,
}

impl Tally {
    /// Count a simulator repetition: its calls, and its fingerprint
    /// against the others'.
    pub fn sim(&mut self, rep: &Rep) {
        self.any(rep);
        if self.fingerprint == 0 {
            self.fingerprint = rep.fingerprint;
        } else if self.fingerprint != rep.fingerprint {
            note(&format!(
                "FAILED: virtual fingerprint {:016x} differs from {:016x} of an earlier repetition",
                rep.fingerprint, self.fingerprint
            ));
            self.inconsistent = true;
        }
    }

    /// Count a repetition whose fingerprint is not comparable (a
    /// wall-clock run).
    pub fn any(&mut self, rep: &Rep) {
        self.attempted += rep.budget;
        self.failed += rep.failed();
        if let Some(why) = &rep.failure {
            note(&format!("FAILED repetition of {} calls: {why}", rep.budget));
        }
    }

    /// Record a failed cross-repetition check.
    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            note(&format!("FAILED: {what}"));
            self.inconsistent = true;
        }
    }

    /// Whether every call completed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.inconsistent && self.attempted > 0
    }
}

fn note(text: &str) {
    println!("N {text}");
}

fn emit(metrics: &Metrics) {
    for (name, value) in metrics {
        println!("M {name} {value}");
    }
}

/// `calls × scale` as a threaded budget: a multiple of 96, so every
/// quota of the two-node cluster stays whole.
fn threaded_calls(calls: f64, scale: f64) -> u64 {
    ((calls * scale).round() as u64).max(96) / 96 * 96
}

/// Calls the open-loop run offers in `seconds`.
pub fn open_loop_calls(seconds: u64, scale: f64) -> u64 {
    threaded_calls(OPEN_LOOP_RATE * seconds as f64, scale)
}

/// Calls a child running `req` is certain to attempt — what one that
/// dies is charged with.
pub fn planned_calls(req: &Request) -> u64 {
    let w = req.workload;
    let reps = if req.trace {
        LAYER_REPS.0 + LAYER_REPS.1
    } else {
        MIN_REPS
    };
    let mut calls = w.sim_calls(req.scale) * reps as u64;
    if w.threaded_open_loop {
        calls += open_loop_calls(req.seconds, req.scale);
        if req.trace {
            calls += threaded_calls(CAPACITY_CALLS as f64, req.scale);
        }
    }
    calls
}

/// Set up: a minimal run of the same configuration (layout, regions,
/// cluster construction) and a warm-up at [`WARMUP_SHARE`] of the budget, on
/// each backend the workload uses.
fn set_up(req: &Request, tally: &mut Tally) {
    let w = req.workload;
    let calls = w.sim_calls(req.scale);
    let mut reps = vec![
        w.run_minimal(w.sim_config(calls, req.scale, req.seed, TraceMode::Off)),
        w.run(w.sim_config(
            w.sim_calls(req.scale * WARMUP_SHARE),
            req.scale * WARMUP_SHARE,
            req.seed,
            TraceMode::Off,
        )),
    ];
    if w.threaded_open_loop {
        let rate = Some(OPEN_LOOP_RATE);
        reps.push(w.run_minimal(w.threaded_config(calls, req.seed, rate, THREADED_CAP_S)));
        let warm = open_loop_calls(1, req.scale * WARMUP_SHARE);
        reps.push(w.run(w.threaded_config(warm, req.seed, rate, THREADED_CAP_S)));
    }
    // Set-up runs are not measurements: they only have to finish. (A
    // 48-calls-per-node OR-set run can have a remove refused because
    // nothing was added yet, and so end a call short.)
    for rep in &reps {
        let converged = rep.outcome.report.converged;
        tally.require(
            converged,
            &format!("a set-up run of {} calls did not converge", rep.budget),
        );
    }
}

/// The open-loop run on the threaded backend, `seconds` long.
fn open_loop(req: &Request, tally: &mut Tally) -> Rep {
    let w = req.workload;
    let calls = open_loop_calls(req.seconds, req.scale);
    let rep = w.run(w.threaded_config(calls, req.seed, Some(OPEN_LOOP_RATE), THREADED_CAP_S));
    tally.any(&rep);
    rep
}

/// End to end, tracing off: simulator repetitions until `seconds` have
/// passed (at least [`MIN_REPS`]), each one `host_ops_per_s` sample.
/// For the threaded workload the seconds go to the open-loop run — its
/// completion rate is the one sample — followed by one repetition of
/// its simulator twin for the virtual-clock metrics.
fn end_to_end(req: &Request, tally: &mut Tally) {
    let w = req.workload;
    let start = Instant::now();
    let (min_reps, seconds) = if w.threaded_open_loop {
        let rep = open_loop(req, tally);
        println!("H {}", rep.budget as f64 / rep.host_s);
        let figures: Vec<String> = threaded_metrics(&rep, 0.0)
            .iter()
            .filter(|(_, value)| *value != 0.0) // capacity is not measured here
            .map(|(name, value)| format!("{name}={value:.4}"))
            .collect();
        note(&format!(
            "open loop, {} calls: {}",
            rep.budget,
            figures.join(" ")
        ));
        (1, 0.0)
    } else {
        (MIN_REPS, req.seconds as f64)
    };
    let calls = w.sim_calls(req.scale);
    let mut reps = 0;
    while reps < min_reps || start.elapsed().as_secs_f64() < seconds {
        let rep = w.run(w.sim_config(calls, req.scale, req.seed, TraceMode::Off));
        tally.sim(&rep);
        if reps == 0 {
            emit(&end_to_end_virtual(&rep));
        }
        if !w.threaded_open_loop {
            println!("H {}", rep.budget as f64 / rep.host_s);
        }
        reps += 1;
    }
}

/// The threaded backend's wall-clock figures from the open-loop run.
fn threaded_metrics(rep: &Rep, capacity: f64) -> Metrics {
    let r = &rep.outcome.report;
    let updates = merged_phases(&rep.outcome.node_metrics, &UPDATE_PHASES);
    let span_s = r.completed_at.0 as f64 / 1e9;
    let ideal_s = rep.budget as f64 / OPEN_LOOP_RATE;
    vec![
        (
            "threaded.rt_p50_us",
            quantile_interp_ns(&updates, 0.50) / 1_000.0,
        ),
        (
            "threaded.rt_p99_us",
            quantile_interp_ns(&updates, 0.99) / 1_000.0,
        ),
        ("threaded.rt_max_us", updates.max_ns() as f64 / 1_000.0),
        (
            "threaded.achieved_frac",
            r.total_calls as f64 / span_s.max(1e-9) / OPEN_LOOP_RATE,
        ),
        ("threaded.span_over_ideal", span_s / ideal_s),
        ("threaded.capacity_ops_per_s", capacity),
        (
            "threaded.writes_per_update",
            rep.outcome.stats.writes as f64 / r.total_updates.max(1) as f64,
        ),
    ]
}

/// Layer by layer: untraced repetitions for the exact counts and the
/// overhead baseline, traced repetitions whose events are paired into
/// spans and written out, the host-time probes, and (threaded
/// workload) the wall-clock figures.
fn per_layer(req: &Request, tally: &mut Tally) {
    let w = req.workload;
    let calls = w.sim_calls(req.scale);
    let run = |trace| w.run(w.sim_config(calls, req.scale, req.seed, trace));

    let untraced: Vec<Rep> = (0..LAYER_REPS.0).map(|_| run(TraceMode::Off)).collect();
    untraced.iter().for_each(|r| tally.sim(r));
    let mut metrics = per_layer_outcome(&untraced[0]);

    // One traced repetition's events are in memory at a time; the last
    // one's are the ones paired into spans.
    let mut traced_host = Vec::new();
    let mut last = None;
    for _ in 0..LAYER_REPS.1 {
        drop(last.take());
        let rep = run(TraceMode::Collect);
        tally.sim(&rep); // also: traced fingerprint == untraced fingerprint
        traced_host.push(rep.host_s);
        last = Some(rep);
    }
    let fault = w.fault_at(req.scale).map(|at| (at, NodeId(0)));
    let summary = analyze(&last.expect("a traced repetition").outcome.events, fault);
    let untraced_host = median(&untraced.iter().map(|r| r.host_s).collect::<Vec<_>>());
    metrics.extend(summary.metrics(w.nodes));
    metrics.push((
        "trace.overhead_frac",
        median(&traced_host) / untraced_host - 1.0,
    ));

    match (w.fault_at_ns, summary.outage) {
        (Some(_), Some(o)) => {
            tally.require(
                o.detect_ns + o.elect_ns + o.resume_ns == o.total_ns,
                "outage stages do not sum to the outage",
            );
            note(&format!(
                "outage {} ns = detect {} + elect {} + resume {}; gap between CONF acks {} ns",
                o.total_ns, o.detect_ns, o.elect_ns, o.resume_ns, o.ack_gap_ns
            ));
        }
        (Some(_), None) => tally.require(
            false,
            "the leader failure left no complete outage in the trace",
        ),
        (None, _) => tally.require(
            summary.leader_changes == 0 && summary.fd_suspects == 0,
            "a leader change or suspicion without an injected fault",
        ),
    }

    let path = Path::new(&req.out_dir).join(format!("trace-{}.json", w.name));
    let json = summary.to_json(w.name, req.seed, tally.fingerprint, SPANS_WRITTEN_PER_KIND);
    match std::fs::create_dir_all(&req.out_dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => note(&format!(
            "{} spans of the traced run: {}",
            summary.spans.len(),
            path.display()
        )),
        Err(e) => tally.require(false, &format!("cannot write {}: {e}", path.display())),
    }
    drop(summary);

    for p in probes::run_all() {
        note(&format!(
            "probe {} median {:.2} mad {:.2} over {} batches",
            p.name,
            p.median,
            p.mad,
            probes::BATCHES
        ));
        metrics.push((p.name, p.median));
    }

    if w.threaded_open_loop {
        let calls = threaded_calls(CAPACITY_CALLS as f64, req.scale);
        let closed = w.run(w.threaded_config(calls, req.seed, None, THREADED_CAP_S));
        tally.any(&closed);
        let capacity = closed.budget as f64 / (closed.outcome.report.completed_at.0 as f64 / 1e9);
        let open = open_loop(req, tally);
        metrics.extend(threaded_metrics(&open, capacity));
    } else {
        metrics.extend(
            crate::manifest::PER_LAYER
                .iter()
                .filter_map(|&(n, _, _)| n.starts_with("threaded.").then_some((n, 0.0))),
        );
    }
    emit(&metrics);
}

/// Run `req` as a child: lines on stdout, as the module doc lists them.
pub fn child(req: &Request) {
    let mut tally = Tally::default();
    set_up(req, &mut tally);
    println!("ready");
    if req.seconds == 0 {
        return;
    }
    if req.trace {
        per_layer(req, &mut tally);
    } else {
        end_to_end(req, &mut tally);
    }
    println!(
        "R attempted={} failed={} correct={} fingerprint={:016x}",
        tally.attempted,
        tally.failed,
        u8::from(tally.correct()),
        tally.fingerprint
    );
}
