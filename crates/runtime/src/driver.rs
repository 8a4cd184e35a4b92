//! Workload specification and the per-node quota split.
//!
//! The evaluation setup of §5: "We randomly generate method calls and
//! uniformly distribute update calls between updated methods. The calls
//! on conflicting methods are automatically redirected to the
//! corresponding leader node(s). All the other calls including
//! conflict-free and query calls are divided equally between the
//! nodes."
//!
//! [`WorkloadSpec`] is the composable description of one run's client
//! load: total call count, update/query mix, per-session closed-loop
//! windows, and how many independent client sessions each node serves
//! (keys are drawn uniformly, as §5 draws them). The issuing machinery
//! itself lives in [`crate::ingress`]: every node runs an
//! [`Ingress`](crate::ingress::Ingress) whose pump flat-combines the
//! sessions' operations into the replica's batched protocol paths.
//! [`QuotaSplit`] is the pure §5 arithmetic both the ingress and
//! failure [`recovery`](crate::recovery) (quota adoption) share.

use hamband_core::coord::{CoordSpec, MethodCategory};
use hamband_core::ids::MethodId;

/// Workload parameters for one run, builder-style.
///
/// ```
/// use hamband_runtime::WorkloadSpec;
///
/// let spec = WorkloadSpec::ops(10_000)
///     .with_update_ratio(0.25)
///     .with_sessions(1_000)
///     .with_window(4)
///     .with_seed(42);
/// assert_eq!(spec.sessions, 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Total calls (updates + queries) across the whole cluster.
    pub total_ops: u64,
    /// Fraction of calls that are updates (e.g. `0.25`).
    pub update_ratio: f64,
    /// Independent client sessions per node. Each session is its own
    /// seeded op stream with its own closed-loop window; the replica's
    /// pump flat-combines them into batched appends.
    pub sessions: usize,
    /// Client pipelining: max outstanding updates *per session*.
    pub window: usize,
    /// RNG seed (per-node, per-session streams are derived from it).
    pub seed: u64,
    /// Open-loop offered load, cluster-wide operations per second.
    ///
    /// `None` (the default) keeps the classic closed loop: sessions
    /// re-issue the moment a window slot frees, so the cluster runs at
    /// its own capacity. `Some(rate)` switches the ingress to an
    /// open-loop arrival process — clients arrive at Poisson times at
    /// `rate` ops/s split evenly across nodes, *independent of
    /// completions* — and response time is measured from the arrival,
    /// so queueing delay under overload shows up in the latency
    /// distribution instead of silently throttling the offered load
    /// (the coordinated-omission error a closed loop makes).
    pub offered_load: Option<f64>,
}

impl WorkloadSpec {
    /// Builder entry point: a workload of `total_ops` calls with an
    /// even update/query mix, one session per node, window 8, uniform
    /// keys, closed loop. Chain `with_*` calls to customize.
    pub fn ops(total_ops: u64) -> Self {
        WorkloadSpec {
            total_ops,
            update_ratio: 0.5,
            sessions: 1,
            window: 8,
            seed: 0xda7a,
            offered_load: None,
        }
    }

    /// Builder-style update-ratio override (`0.0 ..= 1.0`).
    pub fn with_update_ratio(mut self, update_ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&update_ratio));
        self.update_ratio = update_ratio;
        self
    }

    /// Builder-style session-count override (per node, ≥ 1).
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        assert!(sessions >= 1, "a node needs at least one client session");
        self.sessions = sessions;
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style per-session window override (≥ 1).
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        self.window = window;
        self
    }

    /// Run open-loop at this offered load (cluster-wide ops/s, > 0).
    pub fn with_offered_load(mut self, ops_per_sec: f64) -> Self {
        assert!(
            ops_per_sec.is_finite() && ops_per_sec > 0.0,
            "offered load must be a positive rate, got {ops_per_sec}"
        );
        self.offered_load = Some(ops_per_sec);
        self
    }

    /// Back to the closed loop (clears any offered load).
    pub fn closed_loop(mut self) -> Self {
        self.offered_load = None;
        self
    }
}

/// What a client session wants to do next.
#[derive(Debug, Clone, PartialEq)]
pub enum Planned<U, Q> {
    /// Issue this update call (occupies a window slot until acked).
    Update(U),
    /// Execute this query locally.
    Query(Q),
}

/// The §5 workload split for one node of an `n`-node cluster: local
/// query quota, local conflict-free quota per method, and the *global*
/// conflicting quota per synchronization group (consumed by whichever
/// node leads the group).
///
/// Pure arithmetic over the spec — cheap to recompute for any node,
/// which is exactly what failure recovery does to size the quota a
/// surviving node adopts from a suspect.
#[derive(Debug, Clone)]
pub struct QuotaSplit {
    /// Local query quota.
    pub queries: u64,
    /// Local conflict-free update quota per method (0 for conflicting
    /// methods).
    pub free: Vec<u64>,
    /// Global conflicting quota per synchronization group.
    pub conf_target: Vec<u64>,
}

impl QuotaSplit {
    /// Split `spec` for `node` of `n` as §5 prescribes: conflict-free
    /// and query quotas divided evenly (remainders spread over low
    /// nodes), conflicting quotas pooled globally per group.
    pub fn for_node(spec: &WorkloadSpec, coord: &CoordSpec, node: usize, n: usize) -> Self {
        let updates_total = (spec.total_ops as f64 * spec.update_ratio).round() as u64;
        let queries_total = spec.total_ops - updates_total;
        let methods = coord.method_count() as u64;
        let per_method = updates_total / methods;

        let mut free = vec![0u64; coord.method_count()];
        let mut conf_target = vec![0u64; coord.sync_groups().len()];
        for (m, left) in free.iter_mut().enumerate() {
            match coord.category(MethodId(m)) {
                MethodCategory::Conflicting { sync_group } => {
                    conf_target[sync_group.index()] += per_method;
                }
                _ => {
                    // Split evenly; spread the remainder over low nodes.
                    let base = per_method / n as u64;
                    let extra = u64::from((node as u64) < per_method % n as u64);
                    *left = base + extra;
                }
            }
        }
        let q_base = queries_total / n as u64;
        let q_extra = u64::from((node as u64) < queries_total % n as u64);
        QuotaSplit { queries: q_base + q_extra, free, conf_target }
    }

    /// The `(updates, queries)` an `n`-node cluster plans in all: every
    /// node's local quotas plus the pooled conflicting ones, once. What
    /// a fault-free run acknowledges, less only what it reports
    /// forfeited.
    pub fn planned(spec: &WorkloadSpec, coord: &CoordSpec, n: usize) -> (u64, u64) {
        let nodes = (0..n).map(|node| Self::for_node(spec, coord, node, n));
        let (free, queries) =
            nodes.fold((0, 0), |(f, q), s| (f + s.free.iter().sum::<u64>(), q + s.queries));
        let pooled: u64 = Self::for_node(spec, coord, 0, n).conf_target.iter().sum();
        (free + pooled, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::demo::Account;

    #[test]
    fn quota_split_covers_total() {
        let coord = Account::default().coord_spec();
        let w = WorkloadSpec::ops(1_000);
        let n = 3;
        let mut queries = 0;
        let mut deposits = 0;
        for node in 0..n {
            let s = QuotaSplit::for_node(&w, &coord, node, n);
            queries += s.queries;
            deposits += s.free[0];
        }
        let s0 = QuotaSplit::for_node(&w, &coord, 0, n);
        // 500 updates over 2 methods = 250 each; withdraw quota global.
        assert_eq!(deposits, 250);
        assert_eq!(s0.conf_target[0], 250);
        assert_eq!(queries, 500);
    }

    #[test]
    fn builders_compose() {
        let w = WorkloadSpec::ops(500)
            .with_update_ratio(1.0)
            .with_sessions(64)
            .with_window(2)
            .with_seed(9);
        assert_eq!(w.total_ops, 500);
        assert_eq!(w.update_ratio, 1.0);
        assert_eq!(w.sessions, 64);
        assert_eq!(w.window, 2);
        assert_eq!(w.seed, 9);
    }

    #[test]
    #[should_panic(expected = "at least one client session")]
    fn zero_sessions_rejected() {
        let _ = WorkloadSpec::ops(10).with_sessions(0);
    }

    #[test]
    fn offered_load_builder_round_trips() {
        let w = WorkloadSpec::ops(100).with_offered_load(250_000.0);
        assert_eq!(w.offered_load, Some(250_000.0));
        assert_eq!(w.closed_loop().offered_load, None);
    }

    #[test]
    #[should_panic(expected = "positive rate")]
    fn zero_offered_load_rejected() {
        let _ = WorkloadSpec::ops(10).with_offered_load(0.0);
    }
}
