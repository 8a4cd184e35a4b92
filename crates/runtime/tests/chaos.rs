//! End-to-end chaos-campaign tests: a small clean campaign over every
//! row of the shipped-type registry, and the planted canary bug, which
//! must be both caught and shrunk to a paste-able repro of at most
//! three schedule entries.

use hamband_core::CoordSpec;
use hamband_runtime::chaos::{run_case, run_seed, shrink_case, ChaosOptions};
use hamband_types::{for_each_shipped, Bank, Counter, Shipped, ShippedVisitor};
use rdma_sim::{Fault, FaultPlan, NodeId, SimTime};

/// One generated schedule per row, a different seed each.
struct OneCaseEach {
    opts: ChaosOptions,
    seed: u64,
}

impl ShippedVisitor for OneCaseEach {
    fn visit<O: Shipped>(&mut self, name: &'static str, spec: &O, coord: &CoordSpec) {
        let case = run_seed(spec, coord, self.seed, &self.opts);
        assert!(case.passed(), "{name}, seed {} violated: {:?}", self.seed, case.violations);
        self.seed += 1;
    }
}

/// One pass over the rows in each mode CI campaigns in (a hundred per
/// row there, through the `chaos` binary): plain, five nodes, four key
/// shards per synchronization group — four logs and four leaders where
/// calls carry keys, elections and quotas per shard — and crash-restart.
#[test]
fn small_campaign_is_clean() {
    let plain = ChaosOptions { ops: 150, ..ChaosOptions::default() };
    let modes = [
        (0, plain.clone()),
        (500, ChaosOptions { nodes: 5, ops: 200, ..plain.clone() }),
        (0, ChaosOptions { sync_shards: 4, ..plain.clone() }),
        (0, ChaosOptions { restarts: true, ..plain }),
    ];
    for (seed, opts) in modes {
        for_each_shipped(&mut OneCaseEach { opts, seed });
    }
}

#[test]
fn recoverer_crash_cascades_broadcast_recovery() {
    // Shrunk repro from the 5-node campaign (seed 569): the group
    // leader n0 crashes with a free broadcast still pending in its own
    // ring copy, then its designated recoverer n1 crashes before
    // re-executing it. Without cascaded recovery (recovery.rs step
    // 1b) the lost free call leaves a majority-committed conflicting
    // entry with an unsatisfiable dependency map on every survivor:
    // the apply frontier freezes one short of the commit index, the
    // new leader never clears its issue floor, and the run wedges.
    let opts = ChaosOptions { nodes: 5, ops: 400, sync_shards: 1, ..ChaosOptions::default() };
    let plan = FaultPlan::new()
        .at(SimTime(39_956), Fault::Crash(NodeId(0)))
        .at(SimTime(41_825), Fault::Crash(NodeId(1)));
    let b = Bank::default();
    let case = run_case(&b, &b.coord_spec(), 569, &plan, &opts);
    assert!(case.passed(), "cascaded recovery regressed: {:?}", case.violations);
}

#[test]
fn canary_is_caught_and_shrunk() {
    let opts = ChaosOptions { canary: true, ops: 150, ..ChaosOptions::default() };
    let c = Counter::default();
    let mut caught = 0;
    for seed in 0..8 {
        let case = run_seed(&c, &c.coord_spec(), seed, &opts);
        if case.passed() {
            continue;
        }
        caught += 1;
        assert!(
            case.violations.iter().any(|v| v.check == "canary"),
            "seed {seed} failed for a non-canary reason: {:?}",
            case.violations
        );
        let minimal = shrink_case(&c, &c.coord_spec(), seed, &case.plan, &opts);
        assert!(
            !minimal.is_empty() && minimal.len() <= 3,
            "seed {seed}: repro shrank to {} entries, want 1..=3",
            minimal.len()
        );
    }
    assert!(caught >= 1, "the planted canary was never caught across 8 seeds");
}
