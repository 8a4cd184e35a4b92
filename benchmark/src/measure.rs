//! One repetition of a workload, run and checked from outside:
//! [`Runner::run_with_states`] under a wall clock, the correctness
//! checks, the virtual fingerprint, and the metrics that come straight
//! out of the [`RunOutcome`].

use std::time::Instant;

use hamband_core::coord::CoordSpec;
use hamband_core::object::WorkloadSupport;
use hamband_core::wire::Wire;
use hamband_runtime::metrics::LatencyHistogram;
use hamband_runtime::{RunConfig, RunOutcome, Runner, System};
use rdma_sim::Phase;

use crate::stats::{merged_phases, quantile_interp_ns, UPDATE_PHASES};

/// Named metric values in reporting order.
pub type Metrics = Vec<(&'static str, f64)>;

/// One finished repetition.
#[derive(Debug)]
pub struct Rep {
    /// Calls the repetition was asked to complete.
    pub budget: u64,
    /// Why the repetition does not count, if it does not: a repetition
    /// that fails any check counts its whole budget as failed.
    pub failure: Option<String>,
    /// Wall time of `Runner::run_with_states`, seconds.
    pub host_s: f64,
    /// Hash of everything the virtual clock determines (see
    /// [`fingerprint`]).
    pub fingerprint: u64,
    /// The run's outcome (trace events included when collected).
    pub outcome: RunOutcome,
}

impl Rep {
    /// Calls of the budget that did not complete correctly.
    pub fn failed(&self) -> u64 {
        if self.failure.is_some() {
            self.budget
        } else {
            self.budget - self.outcome.report.total_calls.min(self.budget)
        }
    }
}

/// Run `config` once and check it: the run converged, the nodes still
/// participating agree on the final state, every node's final state
/// satisfies the object's invariant, and exactly the budgeted number of
/// calls was acknowledged.
pub fn run_rep<O>(obj: &O, coord: &CoordSpec, config: RunConfig) -> Rep
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Wire + Send,
    O::State: Send + PartialEq,
{
    let budget = config.workload.total_ops;
    let start = Instant::now();
    let (outcome, states) = Runner::new(System::Hamband, config).run_with_states(obj, coord);
    let host_s = start.elapsed().as_secs_f64();

    let mut alive = states.iter().filter(|s| s.alive);
    let first = alive.next();
    let failure = if !outcome.report.converged {
        Some("run did not converge within its cap".to_string())
    } else if first.is_none() {
        Some("no node finished the run alive".to_string())
    } else if !alive.all(|s| Some(&s.state) == first.map(|f| &f.state)) {
        Some("final states of the participating nodes differ".to_string())
    } else if let Some(i) = states.iter().position(|s| !obj.invariant(&s.state)) {
        Some(format!(
            "node {i}'s final state breaks the object invariant"
        ))
    } else if outcome.report.total_calls != budget {
        Some(format!(
            "{} calls acknowledged of {budget}",
            outcome.report.total_calls
        ))
    } else {
        None
    };
    let fingerprint = fingerprint(&outcome);
    Rep {
        budget,
        failure,
        host_s,
        fingerprint,
        outcome,
    }
}

/// FNV-1a over everything virtual time determines: completion time,
/// every fabric counter except the trace-event count (which tracing
/// itself changes), and each phase's sample count and response-time
/// sum. Equal for two runs of one seed whatever the host did; a change
/// that only speeds up the host must leave it equal.
pub fn fingerprint(outcome: &RunOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let s = &outcome.stats;
    mix(outcome.report.completed_at.0);
    for v in [
        s.writes,
        s.reads,
        s.cas,
        s.messages,
        s.one_sided_bytes,
        s.message_bytes,
        s.ring_writes,
        s.ring_slots,
    ] {
        mix(v);
    }
    for &v in &s.per_node_ops {
        mix(v);
    }
    for p in Phase::ALL {
        let hist = merged_phases(&outcome.node_metrics, &[p]);
        mix(hist.count());
        mix(hist.sum_ns());
    }
    h
}

fn us(ns: f64) -> f64 {
    ns / 1_000.0
}

/// The end-to-end metrics the virtual clock determines, from one
/// repetition. All three are exact: totals and sums, no histogram
/// bucket in between.
pub fn end_to_end_virtual(rep: &Rep) -> Metrics {
    let r = &rep.outcome.report;
    vec![
        (
            "tput_ops_per_vus",
            r.total_calls as f64 / r.completed_at.as_micros().max(1e-9),
        ),
        ("rt_mean_vus", r.mean_rt_us),
        (
            "rt_update_mean_vus",
            merged_phases(&rep.outcome.node_metrics, &UPDATE_PHASES).mean_us(),
        ),
    ]
}

fn phase_metrics(out: &mut Metrics, names: [&'static str; 4], h: &LatencyHistogram) {
    out.push((names[0], h.count() as f64));
    out.push((names[1], h.mean_us()));
    out.push((names[2], us(quantile_interp_ns(h, 0.50))));
    out.push((names[3], us(quantile_interp_ns(h, 0.99))));
}

/// The per-layer metrics that are exact counts and virtual-clock
/// distributions of an untraced repetition's [`RunOutcome`].
pub fn per_layer_outcome(rep: &Rep) -> Metrics {
    let o = &rep.outcome;
    let (r, s, nodes) = (&o.report, &o.stats, &o.node_metrics);
    let mut m = Metrics::new();
    phase_metrics(
        &mut m,
        [
            "reduce.calls",
            "reduce.rt_mean_vus",
            "reduce.rt_p50_vus",
            "reduce.rt_p99_vus",
        ],
        &merged_phases(nodes, &[Phase::Reduce]),
    );
    phase_metrics(
        &mut m,
        [
            "free.calls",
            "free.rt_mean_vus",
            "free.rt_p50_vus",
            "free.rt_p99_vus",
        ],
        &merged_phases(nodes, &[Phase::Free]),
    );
    phase_metrics(
        &mut m,
        [
            "conf.calls",
            "conf.rt_mean_vus",
            "conf.rt_p50_vus",
            "conf.rt_p99_vus",
        ],
        &merged_phases(nodes, &[Phase::Conf]),
    );
    let updates = merged_phases(nodes, &UPDATE_PHASES);
    m.push((
        "calls.update_rt_p50_vus",
        us(quantile_interp_ns(&updates, 0.50)),
    ));
    m.push((
        "calls.update_rt_p99_vus",
        us(quantile_interp_ns(&updates, 0.99)),
    ));
    m.push((
        "calls.query_rt_mean_vus",
        merged_phases(nodes, &[Phase::Query]).mean_us(),
    ));
    m.push((
        "calls.rejected",
        nodes.iter().map(|n| n.rejected).sum::<u64>() as f64,
    ));
    m.push((
        "calls.rt_max_vus",
        us(nodes.iter().map(|n| n.rt.max_ns()).max().unwrap_or(0) as f64),
    ));
    let updates = r.total_updates.max(1) as f64;
    m.push(("fabric.writes_per_update", s.writes as f64 / updates));
    m.push((
        "fabric.bytes_per_update",
        s.one_sided_bytes as f64 / updates,
    ));
    m.push(("fabric.reads", s.reads as f64));
    m.push(("fabric.cas", s.cas as f64));
    m.push(("fabric.messages", s.messages as f64));
    m.push(("rings.writes", s.ring_writes as f64));
    m.push((
        "rings.batch_factor",
        s.ring_slots as f64 / s.ring_writes.max(1) as f64,
    ));
    let fair = r.fairness.unwrap_or_default();
    m.push(("ingress.jain", fair.jain_index));
    m.push(("ingress.session_rt_p99_vus", fair.p99_session_rt_us));
    m.push((
        "ingress.min_session_ops_per_s",
        fair.min_session_ops_per_sec,
    ));
    m.push(("harness.virt_us", r.completed_at.as_micros()));
    m.push(("harness.host_s", rep.host_s));
    m
}
