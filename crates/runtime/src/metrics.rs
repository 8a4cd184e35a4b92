//! Per-node and cluster-level measurement, matching the paper's
//! definitions (§5 "Platform and setup"): throughput is the total
//! number of calls divided by the time until all update calls are
//! replicated on all nodes; response time is the average over calls.
//!
//! Response times are recorded in log-scale [`LatencyHistogram`]s —
//! per call overall and per protocol phase
//! ([`Phase::Reduce`]/[`Phase::Free`]/[`Phase::Conf`]/[`Phase::Query`])
//! — so reports carry p50/p90/p99/max, not just means. Per method a
//! report carries only the mean, so a node keeps a count and a sum. A
//! [`RunReport`] is a plain value: its `Display` prints it, and tests
//! compare two of them with `==`.

use std::collections::BTreeMap;

use rdma_sim::{Phase, SimDuration, SimTime};

/// Sub-buckets per octave: 8 (3 bits), giving ≤ 12.5% relative error.
const SUB_BUCKETS_BITS: u32 = 3;
/// Values below 16 ns get exact buckets; 61 octaves above cover u64.
const NUM_BUCKETS: usize = 8 + 8 * 61;

/// A log-scale latency histogram over nanosecond samples.
///
/// HDR-style bucketing: exact below 16 ns, then 8 linear sub-buckets
/// per power-of-two octave (≤ 12.5% relative error), covering the full
/// `u64` range in 496 fixed buckets. Tracks count, sum, and max, so
/// both means and quantiles come from the same accumulator.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: Box::new([0; NUM_BUCKETS]), count: 0, sum_ns: 0, max_ns: 0 }
    }
}

fn bucket_index(value_ns: u64) -> usize {
    if value_ns < 16 {
        value_ns as usize
    } else {
        let msb = 63 - value_ns.leading_zeros(); // >= 4
        let octave = (msb - SUB_BUCKETS_BITS) as usize;
        let sub = ((value_ns >> (msb - SUB_BUCKETS_BITS)) & 0x7) as usize;
        8 + 8 * octave + sub
    }
}

fn bucket_floor(index: usize) -> u64 {
    if index < 16 {
        index as u64
    } else {
        let octave = (index - 8) / 8;
        let sub = ((index - 8) % 8) as u64;
        (8 + sub) << octave
    }
}

impl LatencyHistogram {
    /// Record one sample of `ns` nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Record one sample given as a duration.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_nanos());
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest sample, nanoseconds (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        mean_us(self.count, self.sum_ns)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the lower bound
    /// of the bucket holding the sample at that rank (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based; ceil covers q = 0.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket may under-report: max is exact.
                return bucket_floor(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Condense into a report-ready summary.
    pub fn summarize(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean_us(),
            p50_us: self.quantile_ns(0.50) as f64 / 1_000.0,
            p90_us: self.quantile_ns(0.90) as f64 / 1_000.0,
            p99_us: self.quantile_ns(0.99) as f64 / 1_000.0,
            max_us: self.max_ns as f64 / 1_000.0,
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean_us", &self.mean_us())
            .field("max_ns", &self.max_ns)
            .finish()
    }
}

/// The mean of `count` samples summing to `sum_ns` nanoseconds, in
/// microseconds (0 when there are none).
pub(crate) fn mean_us(count: u64, sum_ns: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum_ns as f64 / count as f64 / 1_000.0
    }
}

/// Condensed latency distribution of one call population.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Samples in the population.
    pub count: u64,
    /// Mean, microseconds.
    pub mean_us: f64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Maximum (exact), microseconds.
    pub max_us: f64,
}

/// Per-node measurement accumulator.
#[derive(Debug, Clone, Default)]
pub struct NodeMetrics {
    /// Update calls acknowledged to the client.
    pub updates_acked: u64,
    /// Query calls executed.
    pub queries: u64,
    /// Calls rejected as locally impermissible.
    pub rejected: u64,
    /// Update quota given up because no state could generate it (a
    /// remove-only tail on an empty set): planned, never issued.
    pub forfeited: u64,
    /// Response times of all acknowledged updates + queries.
    pub rt: LatencyHistogram,
    /// Per method index (updates only): how many calls were acked and
    /// the sum of their response times in nanoseconds. A report shows
    /// only their mean; methods past the last one acked have no entry.
    pub rt_per_method: Vec<(u64, u64)>,
    /// Response times per protocol phase, indexed by [`Phase::index`].
    pub rt_per_phase: [LatencyHistogram; 4],
    /// Peers' summary versions adopted, one `apply_cost` each: when a
    /// read needed them, or at a poll once the local workload was done.
    pub summary_adoptions: u64,
    /// Virtual time of the most recent update application at this node
    /// (local issue or remote propagation) — the per-node component of
    /// the paper's "time for all update calls to be replicated".
    pub last_apply: SimTime,
    /// Virtual time at which the most recent query's charge ended.
    pub last_query: SimTime,
}

impl NodeMetrics {
    /// Record an acknowledged update call that travelled `phase`, and
    /// return its response time in nanoseconds.
    pub fn ack_update(
        &mut self,
        method: usize,
        phase: Phase,
        issued_at: SimTime,
        now: SimTime,
    ) -> u64 {
        let rt = now.since(issued_at).as_nanos();
        self.updates_acked += 1;
        self.rt.record(rt);
        self.rt_per_phase[phase.index()].record(rt);
        if method >= self.rt_per_method.len() {
            self.rt_per_method.resize(method + 1, (0, 0));
        }
        let (count, sum_ns) = &mut self.rt_per_method[method];
        *count += 1;
        *sum_ns = sum_ns.saturating_add(rt);
        rt
    }

    /// Record a query (response time = its local execution cost).
    pub fn ack_query(&mut self, cost: SimDuration) {
        self.queries += 1;
        self.rt.record_duration(cost);
        self.rt_per_phase[Phase::Query.index()].record_duration(cost);
    }

    /// Record that a query's charge ended at `at`.
    pub fn query_ended(&mut self, at: SimTime) {
        self.last_query = self.last_query.max(at);
    }

    /// When this node's part of the run ended: its last apply or the end
    /// of its last query, whichever is later.
    pub fn done_at(&self) -> SimTime {
        self.last_apply.max(self.last_query)
    }

    /// Mean response time in microseconds over all recorded calls.
    pub fn mean_rt_us(&self) -> f64 {
        self.rt.mean_us()
    }
}

/// Cross-session fairness for a multi-session (flat-combined) run:
/// how evenly the combiner served the client sessions.
///
/// Throughputs are per-session *completed* operations (acked updates +
/// queries) over the run's virtual completion time. Jain's index is
/// `(Σx)² / (n·Σx²)` over the per-session completed-op counts: 1.0 is
/// perfectly even service, `1/n` is one session starving all others.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FairnessSummary {
    /// Client sessions across the whole cluster.
    pub sessions: usize,
    /// Mean per-session throughput, completed ops per second.
    pub ops_per_user_per_sec: f64,
    /// Slowest session's throughput, completed ops per second.
    pub min_session_ops_per_sec: f64,
    /// Fastest session's throughput, completed ops per second.
    pub max_session_ops_per_sec: f64,
    /// 99th percentile across sessions of per-session mean update
    /// response time, microseconds (0 when no session acked updates).
    pub p99_session_rt_us: f64,
    /// Jain's fairness index over per-session completed-op counts.
    pub jain_index: f64,
}

/// A cluster-level run summary produced by the harness.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// System label ("hamband", "mu-smr", "msg").
    pub system: String,
    /// Cluster size.
    pub nodes: usize,
    /// Total calls (updates + queries) across the cluster.
    pub total_calls: u64,
    /// Total acknowledged update calls.
    pub total_updates: u64,
    /// Update quota given up as ungeneratable, cluster-wide: the
    /// workload's planned updates are `total_updates + forfeited` in a
    /// fault-free run.
    pub forfeited: u64,
    /// Virtual time at which every update was applied everywhere.
    pub completed_at: SimTime,
    /// Throughput in operations per microsecond of virtual time.
    pub throughput_ops_per_us: f64,
    /// Mean response time over all calls, microseconds.
    pub mean_rt_us: f64,
    /// One-sided WRITEs posted fabric-wide ([`rdma_sim::Stats::writes`])
    /// per acknowledged update (0 when there were no updates); with
    /// doorbell batching one WRITE may carry several ring entries. The
    /// paper's amortized-O(1)-communication claim shows up here: for a
    /// reducible-only workload this drops below 1.0 per peer once
    /// summary write-combining collapses k reduces into one WRITE.
    pub writes_per_op: f64,
    /// Per node: virtual nanoseconds of application CPU charged and of
    /// NIC transmit time reserved over the whole simulated span (which
    /// runs a settle period past [`completed_at`](Self::completed_at)).
    /// Against the span they say which resource binds the workload, and
    /// on which node. All zero on the threaded backend, which models
    /// neither.
    pub cpu_busy_ns: Vec<u64>,
    /// The verb-posting part of [`cpu_busy_ns`](Self::cpu_busy_ns)
    /// ([`rdma_sim::Stats::cpu_post_ns`]).
    pub cpu_post_ns: Vec<u64>,
    /// Per node: virtual nanoseconds the dedicated threads (the failure
    /// detector's heartbeat READs) spent on their own cores, outside
    /// [`cpu_busy_ns`](Self::cpu_busy_ns).
    pub isolated_busy_ns: Vec<u64>,
    /// See [`cpu_busy_ns`](Self::cpu_busy_ns).
    pub nic_busy_ns: Vec<u64>,
    /// Per node: peers' summary versions adopted
    /// ([`NodeMetrics::summary_adoptions`]), one `apply_cost` of
    /// [`cpu_busy_ns`](Self::cpu_busy_ns) each.
    pub summary_adoptions: Vec<u64>,
    /// Mean response time per method name.
    pub rt_per_method_us: BTreeMap<String, f64>,
    /// Latency distribution per protocol phase, keyed by
    /// [`Phase::label`] ("reduce", "free", "conf", "query"). Phases
    /// with no samples are omitted.
    pub phases: BTreeMap<String, LatencySummary>,
    /// Whether all replicas converged to equal states at the end.
    pub converged: bool,
    /// Cross-session fairness (present when the backend exposes
    /// per-session stats; `None` for backends without an ingress).
    pub fairness: Option<FairnessSummary>,
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>8}  n={}  calls={}  tput={:.2} ops/us  rt={:.2} us  w/op={:.2}  converged={}",
            self.system,
            self.nodes,
            self.total_calls,
            self.throughput_ops_per_us,
            self.mean_rt_us,
            self.writes_per_op,
            self.converged
        )?;
        for (name, s) in &self.phases {
            write!(
                f,
                "\n           {name:<7} n={:<6} p50={:.2}us p90={:.2}us p99={:.2}us max={:.2}us",
                s.count, s.p50_us, s.p90_us, s.p99_us, s.max_us
            )?;
        }
        // Which resource binds the run, on which node: the application
        // CPU, the posting part of it, the failure detector's own core
        // and the NIC. The counters also cover the settle period past
        // `completed_at` (idle polls), so a saturated node can read a
        // little over the span: cap at 100.
        let span_ns = self.completed_at.0;
        if span_ns > 0 && self.cpu_busy_ns.iter().any(|&b| b > 0) {
            let shares = |busy: &[u64]| {
                let pct: Vec<String> = busy
                    .iter()
                    .map(|&b| ((b * 100 + span_ns / 2) / span_ns).min(100).to_string())
                    .collect();
                pct.join("/")
            };
            write!(
                f,
                "\n           busy cpu {} % post {} % fd {} % nic {} %",
                shares(&self.cpu_busy_ns),
                shares(&self.cpu_post_ns),
                shares(&self.isolated_busy_ns),
                shares(&self.nic_busy_ns)
            )?;
        }
        // What of that CPU went to adopting peers' summaries, per node.
        if self.summary_adoptions.iter().any(|&a| a > 0) {
            let counts: Vec<String> = self.summary_adoptions.iter().map(u64::to_string).collect();
            write!(f, "\n           summary adoptions {}", counts.join("/"))?;
        }
        if let Some(fair) = &self.fairness {
            write!(
                f,
                "\n           fairness sessions={} ops/user/s={:.0} min={:.0} max={:.0} jain={:.3}",
                fair.sessions,
                fair.ops_per_user_per_sec,
                fair.min_session_ops_per_sec,
                fair.max_session_ops_per_sec,
                fair.jain_index
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_floor_consistent() {
        let mut probes: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            for off in [0u64, 1, 3] {
                probes.push((1u64 << shift).saturating_add(off << shift.saturating_sub(4)));
            }
        }
        probes.sort_unstable();
        probes.dedup();
        let mut last = 0usize;
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx >= last, "index regressed at {v}");
            assert!(bucket_floor(idx) <= v, "floor above value at {v}");
            assert!(idx < NUM_BUCKETS);
            last = idx;
        }
        // Exact region.
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn histogram_quantiles_bound_error() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1_000u64 {
            h.record(v * 1_000); // 1..1000 us
        }
        assert_eq!(h.count(), 1_000);
        let p50 = h.quantile_ns(0.5);
        let p99 = h.quantile_ns(0.99);
        // ≤ 12.5% relative bucketing error, one-sided (floor).
        assert!((437_500..=500_000).contains(&p50), "p50 = {p50}");
        assert!((866_250..=990_000).contains(&p99), "p99 = {p99}");
        assert_eq!(h.max_ns(), 1_000_000);
        // Top sample's bucket floor: (8 + 7) << 16, clamped by the
        // exact max (which is larger here).
        assert_eq!(h.quantile_ns(1.0), 983_040, "top bucket floor");
    }

    #[test]
    fn histogram_merge_matches_combined() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut c = LatencyHistogram::default();
        for v in [5u64, 100, 10_000, 123_456] {
            a.record(v);
            c.record(v);
        }
        for v in [7u64, 3_000, 999_999] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.sum_ns(), c.sum_ns());
        assert_eq!(a.max_ns(), c.max_ns());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile_ns(q), c.quantile_ns(q));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// Mergeability is the property the harness leans on when it
        /// folds per-node histograms into one cluster distribution:
        /// merging two histograms must be indistinguishable from
        /// having recorded both sample streams into one — same count,
        /// sum, exact max, and every quantile — for arbitrary samples
        /// across the full `u64` range (both bucket regimes).
        #[test]
        fn merge_equals_concatenated_recording(
            a in proptest::collection::vec(
                proptest::prop_oneof![0u64..64, 0u64..1 << 20, 0u64..u64::MAX], 0..64),
            b in proptest::collection::vec(
                proptest::prop_oneof![0u64..64, 0u64..1 << 20, 0u64..u64::MAX], 0..64),
        ) {
            let mut ha = LatencyHistogram::default();
            let mut hb = LatencyHistogram::default();
            let mut hc = LatencyHistogram::default();
            for &v in &a {
                ha.record(v);
                hc.record(v);
            }
            for &v in &b {
                hb.record(v);
                hc.record(v);
            }
            ha.merge(&hb);
            proptest::prop_assert_eq!(ha.count(), hc.count());
            proptest::prop_assert_eq!(ha.sum_ns(), hc.sum_ns());
            proptest::prop_assert_eq!(ha.max_ns(), hc.max_ns());
            for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                proptest::prop_assert_eq!(ha.quantile_ns(q), hc.quantile_ns(q));
            }
            let s = ha.summarize();
            let t = hc.summarize();
            proptest::prop_assert_eq!(s, t);
        }
    }

    #[test]
    fn rt_accounting() {
        let mut m = NodeMetrics::default();
        m.ack_update(0, Phase::Reduce, SimTime(1_000), SimTime(3_000));
        m.ack_update(0, Phase::Reduce, SimTime(0), SimTime(4_000));
        m.ack_update(1, Phase::Conf, SimTime(0), SimTime(1_000));
        m.ack_query(SimDuration::nanos(500));
        m.query_ended(SimTime(4_500));
        assert_eq!((m.last_apply, m.done_at()), (SimTime::ZERO, SimTime(4_500)));
        assert_eq!(m.updates_acked, 3);
        assert_eq!(m.queries, 1);
        assert_eq!(m.rt.count(), 4);
        assert!((m.mean_rt_us() - (2.0 + 4.0 + 1.0 + 0.5) / 4.0).abs() < 1e-9);
        let method_mean =
            |m: &NodeMetrics, i: usize| mean_us(m.rt_per_method[i].0, m.rt_per_method[i].1);
        assert!((method_mean(&m, 0) - 3.0).abs() < 1e-9);
        assert!((method_mean(&m, 1) - 1.0).abs() < 1e-9);
        assert!(m.rt_per_method.get(9).is_none());
        assert_eq!(m.rt_per_phase[Phase::Reduce.index()].count(), 2);
        assert_eq!(m.rt_per_phase[Phase::Conf.index()].count(), 1);
        assert_eq!(m.rt_per_phase[Phase::Query.index()].count(), 1);
        assert_eq!(m.rt_per_phase[Phase::Free.index()].count(), 0);
        // The property the harness reports on: histogram totals match
        // the ack counters exactly.
        assert_eq!(m.rt.count(), m.updates_acked + m.queries);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = NodeMetrics::default();
        assert_eq!(m.mean_rt_us(), 0.0);
        assert_eq!(m.rt.quantile_ns(0.99), 0);
    }

    #[test]
    fn report_display_mentions_system_and_phases() {
        let mut phases = BTreeMap::new();
        phases.insert(
            "reduce".to_string(),
            LatencySummary {
                count: 10,
                mean_us: 1.5,
                p50_us: 1.0,
                p90_us: 2.0,
                p99_us: 3.0,
                max_us: 4.0,
            },
        );
        let r = RunReport {
            system: "hamband".into(),
            nodes: 4,
            total_calls: 100,
            total_updates: 25,
            forfeited: 0,
            completed_at: SimTime(1_000_000),
            throughput_ops_per_us: 12.5,
            mean_rt_us: 1.4,
            writes_per_op: 2.4,
            cpu_busy_ns: vec![900_000; 4],
            cpu_post_ns: vec![90_000; 4],
            isolated_busy_ns: vec![20_000; 4],
            nic_busy_ns: vec![300_000; 4],
            summary_adoptions: vec![0, 6, 6, 6],
            rt_per_method_us: BTreeMap::new(),
            phases,
            converged: true,
            fairness: Some(FairnessSummary {
                sessions: 4_000,
                ops_per_user_per_sec: 125.0,
                min_session_ops_per_sec: 100.0,
                max_session_ops_per_sec: 150.0,
                p99_session_rt_us: 9.5,
                jain_index: 0.987,
            }),
        };
        let s = r.to_string();
        assert!(s.contains("hamband"));
        assert!(s.contains("12.50 ops/us"));
        assert!(s.contains("w/op=2.40"));
        assert!(s.contains("reduce"));
        assert!(s.contains("p99=3.00us"));
        assert!(s.contains("sessions=4000"));
        assert!(s.contains("jain=0.987"));
        // Busy shares of the span, after the phase lines.
        assert!(s.contains("busy cpu 90/90/90/90 % post 9/9/9/9 % fd 2/2/2/2 % nic 30/30/30/30 %"));
        assert!(s.find("p99=3.00us") < s.find("busy cpu"));
        // Adoptions per node, on the line after the busy shares; none
        // anywhere (no summaries, or the MSG baseline): no line.
        assert!(s.contains("nic 30/30/30/30 %\n           summary adoptions 0/6/6/6\n"), "{s}");
        let none = RunReport { summary_adoptions: vec![0; 4], ..r.clone() }.to_string();
        assert!(!none.contains("adoptions"));
        let with_busy = |cpu: Vec<u64>, nic: Vec<u64>| {
            let (post, fd) = (vec![0; cpu.len()], vec![0; cpu.len()]);
            RunReport {
                cpu_busy_ns: cpu,
                cpu_post_ns: post,
                isolated_busy_ns: fd,
                nic_busy_ns: nic,
                ..r.clone()
            }
            .to_string()
        };
        // Per node, rounded; the settle period's polls are charged too,
        // so a saturated node reads 100, not 101.
        let s = with_busy(vec![1_012_000, 720_400, 715_000, 0], vec![360_000, 120_000, 124_999, 0]);
        assert!(
            s.contains("\n           busy cpu 100/72/72/0 % post 0/0/0/0 % fd 0/0/0/0 % nic 36/12/12/0 %\n"),
            "{s}"
        );
        // No CPU model (threaded: all zero) or no counters at all: no line.
        assert!(!with_busy(vec![0; 4], vec![0; 4]).contains("busy"));
        assert!(!with_busy(Vec::new(), Vec::new()).contains("busy"));
    }
}
