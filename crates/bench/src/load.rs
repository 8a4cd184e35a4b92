//! Open-loop latency-under-load sweep on the threaded backend.
//!
//! Closed-loop benchmarks (everything under `experiments`) measure a
//! cluster at its own pace: a session re-issues the moment a window
//! slot frees, so the *offered* load silently tracks the *achieved*
//! load and queueing delay never shows up — the classic
//! coordinated-omission blind spot. This sweep does the opposite:
//! clients arrive at Poisson times at a configured rate regardless of
//! completions, response time is measured from the arrival, and the
//! run executes on real OS threads over shared atomic memory
//! ([`Backend::Threaded`]), so the reported latencies are wall-clock
//! nanoseconds.
//!
//! Absolute rates mean nothing across machines, so the sweep first
//! *calibrates*: a short closed-loop run measures the cluster's
//! capacity `C`, then the offered points are fixed fractions of `C` —
//! below the knee, around it, and one deliberately past it (where
//! latency must blow up while achieved throughput saturates). The
//! gates a consumer should apply are therefore *shape* gates
//! (convergence, achieved ≈ offered below the knee, finite latency),
//! never absolute numbers.

use hamband_runtime::{Backend, RunConfig, Runner, RuntimeConfig, System, WorkloadSpec};
use hamband_runtime::metrics::RunReport;
use hamband_types::Counter;
use hamband_core::object::KeySkew;
use rdma_sim::SimTime;

/// Offered load per sweep point, as a fraction of calibrated capacity.
/// Five points: three safely below the knee, one at it, one past it.
pub const LOAD_SWEEP_FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.2];

/// Tuning knobs for one sweep (see `--help` of the `load` binary).
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Cluster size.
    pub nodes: usize,
    /// Total op budget of the *top* sweep point; lower points keep the
    /// same budget so every point's histograms are equally populated.
    pub ops: u64,
    /// Fraction of calls that are updates.
    pub update_ratio: f64,
    /// Client sessions per node.
    pub sessions: usize,
    /// Workload RNG seed (arrival times, op mix, key choice).
    pub seed: u64,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { nodes: 3, ops: 1_000_000, update_ratio: 0.5, sessions: 32, seed: 0x10ad }
    }
}

/// One measured point of the latency-vs-offered-load curve.
#[derive(Debug)]
pub struct LoadPoint {
    /// Cluster-wide offered arrival rate, operations per second.
    pub offered_ops_per_sec: f64,
    /// Achieved completion rate over the wall clock, operations per
    /// second (total calls / completion time).
    pub achieved_ops_per_sec: f64,
    /// `achieved / offered`: ≈ 1.0 below the knee, < 1.0 past it.
    pub achieved_frac: f64,
    /// The full run report (wall-clock latency distributions,
    /// per-phase p50/p90/p99/max, fairness).
    pub report: RunReport,
}

fn workload(o: &LoadOptions, ops: u64) -> WorkloadSpec {
    WorkloadSpec::ops(ops)
        .with_update_ratio(o.update_ratio)
        .with_sessions(o.sessions)
        .with_skew(KeySkew::Zipfian { theta: 0.9 })
        .with_seed(o.seed)
}

fn run(o: &LoadOptions, spec: WorkloadSpec, wall_cap_secs: u64) -> RunReport {
    let c = Counter::default();
    let cfg = RunConfig::new(o.nodes, spec)
        .with_backend(Backend::Threaded)
        // The workload-scaled summary cap is sized for grow-only
        // summaries; Counter summaries are constant-size sums, and at
        // millions of ops the scaled cap would blow up the shared
        // layout. Reset to the default.
        .with_runtime(RuntimeConfig::default())
        .with_max_time(SimTime(wall_cap_secs * 1_000_000_000));
    Runner::new(System::Hamband, cfg).with_label("load").run(&c, &c.coord_spec()).report
}

/// Measure closed-loop capacity: ops per wall second with arrivals
/// disabled, over a budget small enough to stay quick but large
/// enough to amortize cluster start-up.
pub fn calibrate(o: &LoadOptions) -> f64 {
    let ops = o.ops.clamp(20_000, 200_000);
    let rep = run(o, workload(o, ops).closed_loop(), 120);
    assert!(rep.converged, "calibration run did not converge");
    // completed_at is wall nanoseconds on the threaded backend.
    rep.total_calls as f64 / (rep.completed_at.0.max(1) as f64 / 1e9)
}

/// The full sweep: calibrate, then one open-loop run per fraction of
/// capacity in [`LOAD_SWEEP_FRACTIONS`].
pub fn load_sweep(o: &LoadOptions) -> (f64, Vec<LoadPoint>) {
    let capacity = calibrate(o);
    let mut points = Vec::new();
    for frac in LOAD_SWEEP_FRACTIONS {
        let offered = capacity * frac;
        // Wall cap: the arrival span at this rate, plus generous drain
        // headroom for the past-the-knee point (arrivals outpace
        // service, so the backlog drains at capacity afterwards).
        let span_secs = o.ops as f64 / offered;
        let cap_secs = (span_secs * 3.0 + 60.0).ceil() as u64;
        let rep = run(o, workload(o, o.ops).with_offered_load(offered), cap_secs);
        let achieved = rep.total_calls as f64 / (rep.completed_at.0.max(1) as f64 / 1e9);
        points.push(LoadPoint {
            offered_ops_per_sec: offered,
            achieved_ops_per_sec: achieved,
            achieved_frac: achieved / offered,
            report: rep,
        });
    }
    (capacity, points)
}

/// Serialize a finished sweep as one stable JSON object:
/// `{"capacity_ops_per_sec": C, "points": [{...}, ...]}` with each
/// point carrying offered/achieved rates plus its full [`RunReport`].
pub fn sweep_to_json(capacity: f64, points: &[LoadPoint]) -> String {
    let mut s = format!("{{\"capacity_ops_per_sec\": {capacity:.0}, \"points\": [");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"offered_ops_per_sec\": {:.0}, \"achieved_ops_per_sec\": {:.0}, \
             \"achieved_frac\": {:.4}, \"report\": {}}}",
            p.offered_ops_per_sec,
            p.achieved_ops_per_sec,
            p.achieved_frac,
            p.report.to_json()
        ));
    }
    s.push_str("]}");
    s
}
