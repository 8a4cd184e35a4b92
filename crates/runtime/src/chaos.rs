//! Deterministic chaos campaigns: randomized fault schedules, invariant
//! checks, and shrinking of failing schedules to minimal repros.
//!
//! A *campaign* runs many seeded cases. Each case derives a randomized
//! [`FaultPlan`] from its seed ([`FaultPlan::generate`]), runs the full
//! Hamband cluster under that plan through [`Runner`], and
//! checks four families of properties:
//!
//! * **convergence** — the run's own convergence verdict (all alive
//!   nodes finished the workload and agree on the final state);
//! * **integrity** — every node's final state satisfies the object's
//!   invariant `I` (Lemma 1 of the paper; checked for crashed nodes
//!   too, since integrity must hold at every step, including the
//!   moment a node stopped);
//! * **trace invariants** — structured-trace properties, currently:
//!   every acknowledged conflicting call is covered by an earlier
//!   `CommitAdvance` on the acking node (acks never outrun commit);
//! * **budget** — the run acknowledged at least half the updates its
//!   workload planned. Convergence on a handful of calls is agreement
//!   about nothing; a fault schedule may cost some of the plan (a
//!   crashed node's in-flight calls), never most of it.
//!
//! Everything is deterministic: the same `(object, seed, options)`
//! triple replays the same schedule, the same fabric timings, and the
//! same verdict. When a case fails, [`shrink_case`] re-runs the case
//! under subsets of the schedule (ddmin-style: chunked removal, then
//! single entries) until no entry can be dropped, and the resulting
//! minimal plan is printable as a paste-able literal
//! ([`FaultPlan::to_literal`]) for a regression test.
//!
//! The `chaos` binary in `hamband-bench` fronts this module on the
//! command line; `--canary` plants a deliberate checker bug to prove
//! end-to-end that the campaign both *catches* a violation and
//! *shrinks* it to a tiny repro.

use hamband_core::coord::CoordSpec;
use hamband_core::object::WorkloadSupport;
use rdma_sim::{Fault, FaultGenConfig, FaultPlan, NodeId, Phase, SimTime, TraceEvent};

use crate::driver::{QuotaSplit, WorkloadSpec};
use crate::harness::{RunConfig, Runner, System, TraceMode};

/// Fraction of a case's calls that are updates.
const UPDATE_RATIO: f64 = 0.5;
/// Faults are scheduled within `[HORIZON/8, HORIZON]` virtual time.
const HORIZON: SimTime = SimTime(120_000);
/// Hard cap on virtual time per case.
const MAX_TIME: SimTime = SimTime(20_000_000);

/// Knobs of one chaos campaign (shared by every case in it).
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Cluster size.
    pub nodes: usize,
    /// Calls per case (all nodes together).
    pub ops: u64,
    /// Upper bound on faults per generated schedule.
    pub max_faults: usize,
    /// Per-sync-group key shards (see
    /// [`RuntimeConfig::sync_shards`](crate::config::RuntimeConfig::sync_shards)).
    /// Defaults to the runtime default (`1`); the `chaos` binary's
    /// `--sync-shards 4` exercises the sharded issue paths.
    pub sync_shards: usize,
    /// Plant the deliberate checker bug (shrinker self-test): any
    /// schedule containing a `Crash` or `SuspendHeartbeat` is flagged
    /// as a violation, which a correct campaign must catch and shrink
    /// to a single-entry repro.
    pub canary: bool,
    /// Pair every generated `Crash` with a later [`Fault::Restart`]
    /// (half of them losing unfenced writes). Cases whose plan contains
    /// a restart run under [`DurabilityMode::Fenced`] so the restarted
    /// node recovers from its persist log and rejoins
    /// (see [`crate::rejoin`]); restart-free plans keep the default
    /// [`DurabilityMode::Off`], so existing campaigns and their golden
    /// trace fingerprints are untouched.
    ///
    /// [`DurabilityMode::Fenced`]: crate::persist::DurabilityMode::Fenced
    /// [`DurabilityMode::Off`]: crate::persist::DurabilityMode::Off
    pub restarts: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            nodes: 4,
            ops: 300,
            max_faults: 6,
            sync_shards: crate::config::RuntimeConfig::default().sync_shards,
            canary: false,
            restarts: false,
        }
    }
}

/// One property failure observed in a case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check failed ("convergence", "integrity", "trace-commit",
    /// "budget", "canary").
    pub check: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// The verdict of one seeded case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The seed the schedule was generated from.
    pub seed: u64,
    /// The generated fault schedule.
    pub plan: FaultPlan,
    /// Failures (empty = the case passed).
    pub violations: Vec<Violation>,
    /// Update calls the run acknowledged.
    pub updates_acked: u64,
    /// Update calls the workload planned (every node's quota).
    pub updates_planned: u64,
}

impl CaseReport {
    /// Whether the case passed every check.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run one case: the given object under the given fault plan, with the
/// workload and fabric seeded from `seed`. The report carries every
/// check failure.
pub fn run_case<O>(
    spec: &O,
    coord: &CoordSpec,
    seed: u64,
    plan: &FaultPlan,
    opts: &ChaosOptions,
) -> CaseReport
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let workload = WorkloadSpec::ops(opts.ops).with_update_ratio(UPDATE_RATIO).with_seed(seed);
    let updates_planned = QuotaSplit::planned(&workload, coord, opts.nodes).0;
    let mut config = RunConfig::new(opts.nodes, workload)
        .with_seed(seed)
        .with_faults(plan.clone())
        .with_trace(TraceMode::Collect)
        .with_max_time(MAX_TIME);
    config.runtime.sync_shards = opts.sync_shards;
    // Durability is decided by the *plan*, not the campaign option:
    // a shrunk sub-schedule that dropped every restart runs exactly
    // like a crash-stop case (byte-identical layout and traces), and
    // restart-free campaigns never pay the persist-log cost.
    config.runtime.durability = if plan.entries().iter().any(|(_, f)| matches!(f, Fault::Restart(..)))
    {
        crate::persist::DurabilityMode::Fenced
    } else {
        crate::persist::DurabilityMode::Off
    };
    let (outcome, states) = Runner::new(System::Hamband, config).run_with_states(spec, coord);

    let mut violations = Vec::new();

    if !outcome.report.converged {
        // Per-node status lines (from the structured NodeStatus
        // snapshots) show *where* each node stalled — which group has
        // an election in flight, who still holds uncommitted entries.
        let statuses: Vec<String> =
            states.iter().map(|s| format!("\n    {}", s.status)).collect();
        violations.push(Violation {
            check: "convergence",
            detail: format!(
                "run did not converge (completed_at={}, {} of {} nodes alive){}",
                outcome.report.completed_at,
                states.iter().filter(|s| s.alive).count(),
                opts.nodes,
                statuses.concat(),
            ),
        });
    }

    // Integrity (Lemma 1): the invariant holds in every node's final
    // state — crashed nodes included, at the moment they stopped.
    for (i, st) in states.iter().enumerate() {
        if !spec.invariant(&st.state) {
            violations.push(Violation {
                check: "integrity",
                detail: format!(
                    "node {i} ({}) final state violates the invariant: {:?}",
                    if st.alive { "alive" } else { "stopped" },
                    st.state,
                ),
            });
        }
    }

    // Trace invariant: a conflicting ack on a node is covered by an
    // earlier CommitAdvance on that node (same group, commit >= seq).
    for (i, rec) in outcome.events.iter().enumerate() {
        let TraceEvent::Ack { node, phase: Phase::Conf, group: Some(g), seq: Some(s), .. } =
            rec.event
        else {
            continue;
        };
        let committed = outcome.events[..i].iter().any(|earlier| {
            matches!(
                earlier.event,
                TraceEvent::CommitAdvance { node: n, group, commit }
                    if n == node && group == g && commit >= s
            )
        });
        if !committed {
            violations.push(Violation {
                check: "trace-commit",
                detail: format!(
                    "conf ack of seq {s} in group {g} on node {node:?} \
                     has no earlier CommitAdvance covering it"
                ),
            });
        }
    }

    // Budget: a run that converged on a sliver of its plan passed
    // nothing (every shard leader spinning dry and forfeiting agrees
    // with every other one).
    let updates_acked = outcome.report.total_updates;
    if updates_acked * 2 < updates_planned {
        violations.push(Violation {
            check: "budget",
            detail: format!(
                "acked {updates_acked} of {updates_planned} planned updates ({} forfeited)",
                outcome.report.forfeited
            ),
        });
    }

    // The planted checker bug: with the canary armed, flag any
    // schedule that silences a node. A correct campaign must catch
    // this and shrink the schedule to a single Crash/Suspend entry —
    // an honest end-to-end test of detection *and* shrinking.
    if opts.canary {
        let silencing = plan
            .entries()
            .iter()
            .any(|(_, f)| matches!(f, Fault::Crash(_) | Fault::SuspendHeartbeat(_)));
        if silencing {
            violations.push(Violation {
                check: "canary",
                detail: "canary armed: schedule silences a node".to_string(),
            });
        }
    }

    CaseReport { seed, plan: plan.clone(), violations, updates_acked, updates_planned }
}

/// Generate the schedule for `seed` (biased toward the object's group
/// leaders) and run the case.
pub fn run_seed<O>(spec: &O, coord: &CoordSpec, seed: u64, opts: &ChaosOptions) -> CaseReport
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let leaders: Vec<NodeId> = hamband_core::coord::GroupMapper::new(coord, opts.sync_shards)
        .default_leaders(opts.nodes)
        .into_iter()
        .map(|p| NodeId(p.index()))
        .collect();
    let gen = FaultGenConfig::for_cluster(opts.nodes, HORIZON)
        .with_leaders(leaders)
        .with_max_faults(opts.max_faults)
        .with_restarts(opts.restarts);
    run_case(spec, coord, seed, &FaultPlan::generate(seed, &gen), opts)
}

/// Whether every `Partition` in the plan is healed by a later `Heal`,
/// and every [`Fault::Restart`] follows a `Crash` of the same node.
///
/// The shrinker must not strip a `Heal` while keeping its `Partition`:
/// an eternally partitioned cluster fails convergence by construction,
/// and "minimizing" into that artifact would mask the original bug.
/// Symmetrically it must not strip a `Crash` while keeping its
/// `Restart`: restarting a node that never crashed is a no-op, so the
/// "shrunk" plan would silently stop exercising recovery at all.
pub fn plan_well_formed(plan: &FaultPlan) -> bool {
    let mut open = 0usize;
    let mut crashed: Vec<NodeId> = Vec::new();
    for (_, f) in plan.entries() {
        match f {
            Fault::Partition(_, _) => open += 1,
            Fault::Heal => {
                if open == 0 {
                    return false;
                }
                open -= 1;
            }
            Fault::Crash(n) if !crashed.contains(&n) => crashed.push(n),
            Fault::Restart(n, _) => {
                // Requires an earlier, still-unconsumed crash of `n`.
                let Some(i) = crashed.iter().position(|&c| c == n) else {
                    return false;
                };
                crashed.swap_remove(i);
            }
            _ => {}
        }
    }
    open == 0
}

/// Shrink a failing schedule to a locally minimal one: ddmin-style
/// chunked removal (halving chunk sizes), finishing with single-entry
/// removal, keeping any candidate for which `still_fails` holds.
/// Candidates with an unhealed partition are never proposed (see
/// [`plan_well_formed`]).
///
/// `still_fails` must be deterministic; it is called O(n²) times in the
/// worst case for an n-entry schedule.
pub fn shrink(plan: &FaultPlan, mut still_fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    let mut entries = plan.entries();
    let mut chunk = entries.len().div_ceil(2).max(1);
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < entries.len() {
            let end = (i + chunk).min(entries.len());
            let mut candidate = entries.clone();
            candidate.drain(i..end);
            let cand = FaultPlan::from_entries(candidate.clone());
            if plan_well_formed(&cand) && still_fails(&cand) {
                entries = candidate;
                removed_any = true;
                // Do not advance: position i now holds fresh entries.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !removed_any {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    FaultPlan::from_entries(entries)
}

/// Shrink a failing case's schedule by re-running the case under
/// candidate sub-schedules (same seed, same options) and keeping those
/// that still fail *any* check.
pub fn shrink_case<O>(
    spec: &O,
    coord: &CoordSpec,
    seed: u64,
    plan: &FaultPlan,
    opts: &ChaosOptions,
) -> FaultPlan
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    shrink(plan, |candidate| !run_case(spec, coord, seed, candidate, opts).passed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdma_sim::SimDuration;

    fn plan_of(faults: &[(u64, Fault)]) -> FaultPlan {
        FaultPlan::from_entries(
            faults.iter().map(|(t, f)| (SimTime(*t), f.clone())).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn well_formedness_requires_paired_heals() {
        assert!(plan_well_formed(&FaultPlan::new()));
        assert!(plan_well_formed(&plan_of(&[
            (10, Fault::Partition(vec![NodeId(0)], vec![NodeId(1)])),
            (20, Fault::Heal),
        ])));
        assert!(!plan_well_formed(&plan_of(&[(
            10,
            Fault::Partition(vec![NodeId(0)], vec![NodeId(1)])
        )])));
        assert!(!plan_well_formed(&plan_of(&[(10, Fault::Heal)])));
    }

    #[test]
    fn shrink_finds_the_single_culprit() {
        let plan = plan_of(&[
            (10, Fault::TornWrites(NodeId(1))),
            (20, Fault::Crash(NodeId(2))),
            (30, Fault::DuplicateCompletion(NodeId(0))),
            (40, Fault::DelaySpike(NodeId(3), 4, SimDuration::micros(10))),
            (50, Fault::TornWrites(NodeId(0))),
        ]);
        // "Fails" iff the schedule still crashes node 2.
        let shrunk =
            shrink(&plan, |p| p.entries().iter().any(|(_, f)| *f == Fault::Crash(NodeId(2))));
        assert_eq!(shrunk.len(), 1);
        assert_eq!(shrunk.entries()[0], (SimTime(20), Fault::Crash(NodeId(2))));
    }

    #[test]
    fn shrink_keeps_partitions_healed() {
        let plan = plan_of(&[
            (10, Fault::Partition(vec![NodeId(0)], vec![NodeId(1), NodeId(2)])),
            (20, Fault::TornWrites(NodeId(1))),
            (30, Fault::Heal),
        ]);
        // "Fails" iff a partition is present — the minimal failing
        // well-formed schedule must keep the heal.
        let shrunk = shrink(&plan, |p| {
            p.entries().iter().any(|(_, f)| matches!(f, Fault::Partition(_, _)))
        });
        assert_eq!(shrunk.len(), 2);
        assert!(plan_well_formed(&shrunk));
    }

    #[test]
    fn shrink_of_fault_independent_failure_is_empty() {
        let plan = plan_of(&[(10, Fault::Crash(NodeId(1))), (20, Fault::TornWrites(NodeId(0)))]);
        let shrunk = shrink(&plan, |_| true);
        assert!(shrunk.is_empty(), "a failure independent of faults shrinks to no faults");
    }

    #[test]
    fn well_formedness_requires_crash_before_restart() {
        // A restart of a node that never crashed is a no-op schedule.
        assert!(!plan_well_formed(&plan_of(&[(10, Fault::Restart(NodeId(1), true))])));
        // Crash alone (crash-stop) stays well-formed.
        assert!(plan_well_formed(&plan_of(&[(10, Fault::Crash(NodeId(1)))])));
        // Paired crash + restart is well-formed; a second restart of the
        // same node without a second crash is not.
        assert!(plan_well_formed(&plan_of(&[
            (10, Fault::Crash(NodeId(1))),
            (40, Fault::Restart(NodeId(1), false)),
        ])));
        assert!(!plan_well_formed(&plan_of(&[
            (10, Fault::Crash(NodeId(1))),
            (40, Fault::Restart(NodeId(1), false)),
            (60, Fault::Restart(NodeId(1), true)),
        ])));
        // The crash must be of the *same* node.
        assert!(!plan_well_formed(&plan_of(&[
            (10, Fault::Crash(NodeId(2))),
            (40, Fault::Restart(NodeId(1), true)),
        ])));
    }

    #[test]
    fn shrink_keeps_crash_restart_pairing() {
        let plan = plan_of(&[
            (10, Fault::TornWrites(NodeId(0))),
            (20, Fault::Crash(NodeId(2))),
            (30, Fault::DuplicateCompletion(NodeId(1))),
            (50, Fault::Restart(NodeId(2), true)),
        ]);
        // "Fails" iff a restart is present — the minimal failing
        // well-formed schedule must keep the crash that precedes it.
        let shrunk =
            shrink(&plan, |p| p.entries().iter().any(|(_, f)| matches!(f, Fault::Restart(..))));
        assert_eq!(shrunk.len(), 2);
        assert!(plan_well_formed(&shrunk));
        assert_eq!(shrunk.entries()[0], (SimTime(20), Fault::Crash(NodeId(2))));
        assert_eq!(shrunk.entries()[1], (SimTime(50), Fault::Restart(NodeId(2), true)));
    }

    #[test]
    fn restart_losing_all_unfenced_writes_converges() {
        // The acceptance scenario: node 2 crashes mid-workload and
        // restarts having lost every write after its last fence. The
        // recovery pass must rebuild hard state from the persist log
        // alone and the cluster must still converge with clean
        // invariants.
        use hamband_types::Counter;
        let spec = Counter::default();
        let coord = spec.coord_spec();
        let opts = ChaosOptions::default();
        let plan = plan_of(&[
            (40_000, Fault::Crash(NodeId(2))),
            (40_030, Fault::Restart(NodeId(2), true)),
        ]);
        let case = run_case(&spec, &coord, 11, &plan, &opts);
        assert!(case.passed(), "restart case failed: {:?}", case.violations);
    }

    #[test]
    fn restart_campaign_smoke() {
        // A handful of generated crash+restart schedules end-to-end
        // (the 100-seed campaigns run in CI via the chaos binary).
        use hamband_types::Counter;
        let spec = Counter::default();
        let coord = spec.coord_spec();
        let opts = ChaosOptions { restarts: true, ..ChaosOptions::default() };
        for seed in 0..6u64 {
            let report = run_seed(&spec, &coord, seed, &opts);
            assert!(
                report.passed(),
                "seed {seed} failed under plan {}: {:?}",
                report.plan.to_literal(),
                report.violations,
            );
        }
    }
}
