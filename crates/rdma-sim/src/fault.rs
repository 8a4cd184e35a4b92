//! Fault injection.
//!
//! Two levels, matching the paper's evaluation:
//!
//! * [`Fault::SuspendHeartbeat`] — the injection §5 actually uses:
//!   the node's application is told to stop its heartbeat thread, so
//!   peers *suspect* it while it keeps executing. Delivered to the
//!   application as an [`crate::verbs::Event::Fault`].
//! * [`Fault::Crash`] — a full fail-stop: the node's application stops
//!   executing (no events are delivered, no new verbs are posted).
//!   Its registered memory remains remotely accessible, as on real
//!   RDMA hardware where the NIC can serve DMA while the host CPU is
//!   wedged — which is precisely what makes remote-read recovery of a
//!   failed node's pending reliable broadcasts possible.
//! * [`Fault::TornWrites`] — a fabric-level mode: subsequent one-sided
//!   writes to the given node land in two halves with a gap, exposing
//!   readers that do not honor the canary-bit protocol of §4.
//! * [`Fault::DelaySpike`] — a fabric-level mode: for a bounded window
//!   all traffic to or from the node is slowed by a factor, modelling a
//!   congested link or a garbage-collected NIC driver. Stretches
//!   election and detection windows without silencing anyone.
//! * [`Fault::Partition`] / [`Fault::Heal`] — a fabric-level link
//!   outage between two node sets. An RC transport retransmits through
//!   transient outages, so cross-partition verbs and messages are
//!   *parked*, not dropped, and land (in their original per-channel
//!   order) when the partition heals. A partition that is never healed
//!   parks that traffic forever — generated schedules always pair the
//!   two.
//! * [`Fault::DuplicateCompletion`] — the next completion event
//!   delivered to the node is delivered twice, modelling the at-least-
//!   once completion semantics seen across QP error recovery. Exposes
//!   completion handlers that are not idempotent.

use crate::time::{SimDuration, SimTime};
use crate::verbs::NodeId;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fault-plan action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Tell the node's application to suspend its heartbeat.
    SuspendHeartbeat(NodeId),
    /// Tell the node's application to resume its heartbeat.
    ResumeHeartbeat(NodeId),
    /// Fail-stop the node (memory stays remotely readable/writable).
    Crash(NodeId),
    /// From now on, one-sided writes landing at this node are torn in
    /// two (payload first, last byte later), stressing canary checks.
    TornWrites(NodeId),
    /// For the given duration, all fabric traffic to or from the node
    /// is slowed by the given factor.
    DelaySpike(NodeId, u32, SimDuration),
    /// Cut the links between the two node sets. Cross-partition verbs
    /// and messages are parked until [`Fault::Heal`].
    Partition(Vec<NodeId>, Vec<NodeId>),
    /// Heal the active partition, releasing all parked traffic.
    Heal,
    /// The next completion delivered to the node arrives twice.
    DuplicateCompletion(NodeId),
    /// Restart a previously [`Fault::Crash`]ed node. Volatile regions
    /// are zeroed; durable regions keep what landed remotely or was
    /// fenced locally. If the flag is `true`, local writes made after
    /// the last [`crate::Ctx::fence_region`] are lost (power-fail
    /// semantics); if `false`, the cache line survived (orderly kill).
    /// The application's `on_restart` hook runs for its recovery pass.
    /// A `Restart` of a node that never crashed is a no-op, so plan
    /// shrinkers may drop the crash independently.
    Restart(NodeId, bool),
}

impl Fault {
    /// The node the fault targets, for single-node faults.
    pub fn target(&self) -> Option<NodeId> {
        match self {
            Fault::SuspendHeartbeat(n)
            | Fault::ResumeHeartbeat(n)
            | Fault::Crash(n)
            | Fault::TornWrites(n)
            | Fault::DelaySpike(n, _, _)
            | Fault::DuplicateCompletion(n)
            | Fault::Restart(n, _) => Some(*n),
            Fault::Partition(_, _) | Fault::Heal => None,
        }
    }

    /// Render as a Rust expression (used by [`FaultPlan::to_literal`]).
    fn literal(&self) -> String {
        fn nodes(v: &[NodeId]) -> String {
            let inner: Vec<String> = v.iter().map(|n| format!("NodeId({})", n.0)).collect();
            format!("vec![{}]", inner.join(", "))
        }
        match self {
            Fault::SuspendHeartbeat(n) => format!("Fault::SuspendHeartbeat(NodeId({}))", n.0),
            Fault::ResumeHeartbeat(n) => format!("Fault::ResumeHeartbeat(NodeId({}))", n.0),
            Fault::Crash(n) => format!("Fault::Crash(NodeId({}))", n.0),
            Fault::TornWrites(n) => format!("Fault::TornWrites(NodeId({}))", n.0),
            Fault::DelaySpike(n, f, d) => format!(
                "Fault::DelaySpike(NodeId({}), {}, SimDuration::nanos({}))",
                n.0,
                f,
                d.as_nanos()
            ),
            Fault::Partition(a, b) => {
                format!("Fault::Partition({}, {})", nodes(a), nodes(b))
            }
            Fault::Heal => "Fault::Heal".to_string(),
            Fault::DuplicateCompletion(n) => {
                format!("Fault::DuplicateCompletion(NodeId({}))", n.0)
            }
            Fault::Restart(n, lose) => {
                format!("Fault::Restart(NodeId({}), {})", n.0, lose)
            }
        }
    }
}

/// A schedule of faults to inject at given virtual times.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<(SimTime, Fault)>,
}

/// Bounds for [`FaultPlan::generate`].
#[derive(Debug, Clone)]
pub struct FaultGenConfig {
    /// Cluster size; targets are drawn from `0..nodes`.
    pub nodes: usize,
    /// Faults are scheduled in `(warmup, horizon]` where `warmup` is
    /// an eighth of the horizon.
    pub horizon: SimTime,
    /// Upper bound on primary faults per plan (paired entries such as
    /// `Heal` / `ResumeHeartbeat` and election-window chasers ride on
    /// top, so plans can run a few entries longer).
    pub max_faults: usize,
    /// Max distinct nodes silenced (crashed or heartbeat-suspended).
    /// Keep this below a majority or convergence is unachievable.
    pub silence_budget: usize,
    /// Nodes that lead synchronization groups; half of all targeted
    /// faults are biased toward these.
    pub leaders: Vec<NodeId>,
    /// When `true`, every generated `Crash` is paired with a
    /// [`Fault::Restart`] 10–60µs later (half of them losing unfenced
    /// writes). Off by default so crash-stop campaigns and their golden
    /// fingerprints are unchanged.
    pub restarts: bool,
}

impl FaultGenConfig {
    /// Sensible bounds for an `nodes`-replica cluster: at most a
    /// minority silenced, faults spread over `horizon`.
    pub fn for_cluster(nodes: usize, horizon: SimTime) -> Self {
        FaultGenConfig {
            nodes,
            horizon,
            max_faults: 6,
            silence_budget: nodes.saturating_sub(1) / 2,
            leaders: vec![NodeId(0)],
            restarts: false,
        }
    }

    /// Override the leader set used for target bias.
    pub fn with_leaders(mut self, leaders: Vec<NodeId>) -> Self {
        self.leaders = leaders;
        self
    }

    /// Override the primary-fault budget.
    pub fn with_max_faults(mut self, max_faults: usize) -> Self {
        self.max_faults = max_faults;
        self
    }

    /// Enable crash-restart pairing: see [`FaultGenConfig::restarts`].
    pub fn with_restarts(mut self, restarts: bool) -> Self {
        self.restarts = restarts;
        self
    }
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedule `fault` at time `at`.
    pub fn at(mut self, at: SimTime, fault: Fault) -> Self {
        self.entries.push((at, fault));
        self
    }

    /// A plan from pre-built entries (used by shrinkers).
    pub fn from_entries(entries: Vec<(SimTime, Fault)>) -> Self {
        FaultPlan { entries }
    }

    /// The scheduled entries, sorted by time.
    pub fn entries(&self) -> Vec<(SimTime, Fault)> {
        let mut v = self.entries.clone();
        v.sort_by_key(|&(t, _)| t);
        v
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Render the plan as a paste-able Rust expression, for minimal
    /// repros printed by the chaos campaign driver.
    pub fn to_literal(&self) -> String {
        let mut s = String::from("FaultPlan::new()");
        for (t, f) in self.entries() {
            s.push_str(&format!("\n    .at(SimTime({}), {})", t.0, f.literal()));
        }
        s
    }

    /// Sample a randomized, deterministic fault schedule.
    ///
    /// The same `(seed, config)` always yields the same plan. Targeted
    /// faults are biased toward `config.leaders` (half the draws), and
    /// a leader crash or suspension is often chased by a second fault
    /// scheduled inside the detection/election window that follows it —
    /// the most schedule-sensitive stretch of the protocol.
    ///
    /// Generated plans are *survivable by construction*: at most
    /// `silence_budget` distinct nodes are crashed or suspended, and
    /// every `Partition` is paired with a `Heal` inside the horizon.
    pub fn generate(seed: u64, config: &FaultGenConfig) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0_5eed);
        let mut plan = FaultPlan::new();
        let nodes = config.nodes.max(1);
        let warmup = config.horizon.0 / 8;
        let span = config.horizon.0.saturating_sub(warmup).max(1);
        let mut silenced: Vec<NodeId> = Vec::new();
        let mut partition_open = false;
        let n_faults = rng.gen_range(1..=config.max_faults.max(1));
        for _ in 0..n_faults {
            let t = SimTime(warmup + rng.gen_range(0..span));
            // Half of all targeted faults hit a leader.
            let target = if !config.leaders.is_empty() && rng.gen_bool(0.5) {
                config.leaders[rng.gen_range(0..config.leaders.len())]
            } else {
                NodeId(rng.gen_range(0..nodes))
            };
            match rng.gen_range(0u32..12) {
                // Crash / suspend consume the silence budget; a victim
                // that leads a group usually gets an election-window
                // chaser ~30us later, when detection and takeover run.
                0..=4 => {
                    if silenced.len() >= config.silence_budget || silenced.contains(&target) {
                        plan = plan.at(t, Fault::TornWrites(target));
                        continue;
                    }
                    silenced.push(target);
                    let crash = rng.gen_bool(0.6);
                    if crash {
                        plan = plan.at(t, Fault::Crash(target));
                        // Crash-restart mode: every crash is paired
                        // with a restart shortly after (draws stay
                        // inside the gate so default plans are
                        // byte-identical to crash-stop ones).
                        if config.restarts {
                            let dt = SimDuration::micros(rng.gen_range(10..60));
                            let lose = rng.gen_bool(0.5);
                            plan = plan.at(t + dt, Fault::Restart(target, lose));
                        }
                    } else {
                        plan = plan.at(t, Fault::SuspendHeartbeat(target));
                        if rng.gen_bool(0.5) {
                            let dt = SimDuration::micros(rng.gen_range(5..60));
                            plan = plan.at(t + dt, Fault::ResumeHeartbeat(target));
                        }
                    }
                    if config.leaders.contains(&target) && rng.gen_bool(0.6) {
                        let chaser_at = t + SimDuration::micros(rng.gen_range(20..50));
                        let other = NodeId((target.0 + 1 + rng.gen_range(0..nodes - 1)) % nodes);
                        let chaser = if rng.gen_bool(0.5) {
                            Fault::TornWrites(other)
                        } else {
                            Fault::DelaySpike(
                                other,
                                rng.gen_range(2..10),
                                SimDuration::micros(rng.gen_range(10..40)),
                            )
                        };
                        plan = plan.at(chaser_at, chaser);
                    }
                }
                5..=6 => plan = plan.at(t, Fault::TornWrites(target)),
                7..=8 => {
                    plan = plan.at(
                        t,
                        Fault::DelaySpike(
                            target,
                            rng.gen_range(2..16),
                            SimDuration::micros(rng.gen_range(5..60)),
                        ),
                    );
                }
                9..=10 => plan = plan.at(t, Fault::DuplicateCompletion(target)),
                _ => {
                    // One partition per plan, always healed in-horizon.
                    if partition_open || nodes < 3 {
                        plan = plan.at(t, Fault::DuplicateCompletion(target));
                        continue;
                    }
                    partition_open = true;
                    let minority = rng.gen_range(1..=(nodes - 1) / 2);
                    // Draw `minority` distinct nodes for side A.
                    let mut side_a: Vec<NodeId> = Vec::new();
                    while side_a.len() < minority {
                        let n = NodeId(rng.gen_range(0..nodes));
                        if !side_a.contains(&n) {
                            side_a.push(n);
                        }
                    }
                    let side_b: Vec<NodeId> =
                        (0..nodes).map(NodeId).filter(|n| !side_a.contains(n)).collect();
                    let heal_at = t + SimDuration::micros(rng.gen_range(5..40));
                    plan = plan.at(t, Fault::Partition(side_a, side_b)).at(heal_at, Fault::Heal);
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn plan_sorts_by_time() {
        let plan = FaultPlan::new()
            .at(SimTime::ZERO + SimDuration::micros(50), Fault::Crash(NodeId(1)))
            .at(SimTime::ZERO + SimDuration::micros(10), Fault::SuspendHeartbeat(NodeId(2)));
        let entries = plan.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1, Fault::SuspendHeartbeat(NodeId(2)));
        assert_eq!(entries[1].1, Fault::Crash(NodeId(1)));
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 2);
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn fault_targets() {
        assert_eq!(Fault::Crash(NodeId(3)).target(), Some(NodeId(3)));
        assert_eq!(Fault::TornWrites(NodeId(1)).target(), Some(NodeId(1)));
        assert_eq!(Fault::ResumeHeartbeat(NodeId(0)).target(), Some(NodeId(0)));
        assert_eq!(
            Fault::DelaySpike(NodeId(2), 4, SimDuration::micros(10)).target(),
            Some(NodeId(2))
        );
        assert_eq!(Fault::DuplicateCompletion(NodeId(1)).target(), Some(NodeId(1)));
        assert_eq!(Fault::Heal.target(), None);
        assert_eq!(Fault::Partition(vec![NodeId(0)], vec![NodeId(1)]).target(), None);
    }

    #[test]
    fn generate_is_deterministic() {
        let cfg = FaultGenConfig::for_cluster(5, SimTime(120_000));
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // A different seed should (for this pair) differ.
        let c = FaultPlan::generate(43, &cfg);
        assert_ne!(a, c);
    }

    #[test]
    fn generate_respects_budgets() {
        let cfg = FaultGenConfig::for_cluster(5, SimTime(120_000)).with_max_faults(8);
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed, &cfg);
            let entries = plan.entries();
            let mut silenced: Vec<NodeId> = Vec::new();
            let mut partitions = 0usize;
            let mut heals = 0usize;
            for (t, fault) in &entries {
                assert!(*t <= SimTime(200_000), "fault past horizon+pairing slack");
                match fault {
                    Fault::Crash(n) | Fault::SuspendHeartbeat(n) if !silenced.contains(n) => {
                        silenced.push(*n);
                    }
                    Fault::Partition(a, b) => {
                        partitions += 1;
                        assert!(!a.is_empty() && !b.is_empty());
                        assert!(a.len() + b.len() == 5);
                        assert!(a.len() <= 2, "majority side must stay connected");
                    }
                    Fault::Heal => heals += 1,
                    _ => {}
                }
            }
            assert!(silenced.len() <= 2, "seed {seed} silences a majority");
            assert_eq!(partitions, heals, "seed {seed} leaves a partition open");
        }
    }

    #[test]
    fn restarts_are_gated_and_paired() {
        let base = FaultGenConfig::for_cluster(5, SimTime(120_000)).with_max_faults(8);
        let with = base.clone().with_restarts(true);
        for seed in 0..200 {
            // Off by default: no Restart ever appears, and the plan is
            // byte-identical to the pre-restart generator's output.
            let a = FaultPlan::generate(seed, &base);
            assert!(
                a.entries().iter().all(|(_, f)| !matches!(f, Fault::Restart(..))),
                "seed {seed} emitted a Restart without opting in"
            );
            // On: every Crash gets a later Restart of the same node,
            // and every Restart follows a Crash.
            let b = FaultPlan::generate(seed, &with);
            let entries = b.entries();
            for (t, f) in &entries {
                match f {
                    Fault::Crash(n) => assert!(
                        entries
                            .iter()
                            .any(|(tr, fr)| matches!(fr, Fault::Restart(m, _) if m == n) && tr > t),
                        "seed {seed}: crash of {n:?} never restarts"
                    ),
                    Fault::Restart(n, _) => assert!(
                        entries.iter().any(|(tc, fc)| *fc == Fault::Crash(*n) && tc < t),
                        "seed {seed}: restart of {n:?} without a prior crash"
                    ),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn literal_round_trips_shape() {
        let plan = FaultPlan::new()
            .at(SimTime(40_000), Fault::Crash(NodeId(0)))
            .at(SimTime(60_000), Fault::DelaySpike(NodeId(1), 8, SimDuration::micros(20)))
            .at(SimTime(70_000), Fault::Partition(vec![NodeId(0)], vec![NodeId(1), NodeId(2)]))
            .at(SimTime(90_000), Fault::Heal);
        let lit = plan.to_literal();
        assert!(lit.starts_with("FaultPlan::new()"));
        assert!(lit.contains(".at(SimTime(40000), Fault::Crash(NodeId(0)))"));
        assert!(lit.contains("Fault::DelaySpike(NodeId(1), 8, SimDuration::nanos(20000))"));
        assert!(lit.contains("Fault::Partition(vec![NodeId(0)], vec![NodeId(1), NodeId(2)])"));
        assert!(lit.contains("Fault::Heal"));
    }
}
