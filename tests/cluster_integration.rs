//! Cross-crate integration: every row of the shipped-type registry
//! runs on the full simulated cluster under Hamband and under the
//! Mu-SMR baseline, converges, and acknowledges exactly the calls its
//! workload planned; rows without conflicting methods additionally run
//! under the MSG baseline.

mod common;

use hamband::core::coord::CoordSpec;
use hamband::core::object::ObjectSpec;
use hamband::runtime::{QuotaSplit, RunConfig, RunReport, Runner, System, WorkloadSpec};
use hamband::types::{for_each_shipped, Counter, Courseware, Project, Shipped, ShippedVisitor};

/// The budget oracle: a fault-free run converges having acknowledged
/// every query and every update the §5 split planned — all nodes'
/// quotas — less only the updates it reports forfeited.
fn assert_budget(rep: &RunReport, workload: &WorkloadSpec, coord: &CoordSpec, what: &str) {
    assert!(rep.converged, "{what} did not converge: {rep}");
    let (updates, queries) = QuotaSplit::planned(workload, coord, rep.nodes);
    assert_eq!(
        (rep.total_updates + rep.forfeited, rep.total_calls - rep.total_updates),
        (updates, queries),
        "{what}: (updates acked + {} forfeited, queries) against the plan: {rep}",
        rep.forfeited
    );
}

fn workload() -> WorkloadSpec {
    WorkloadSpec::ops(600).with_update_ratio(0.4).with_seed(0xc0de)
}

fn hamband_converges<O: Shipped>(spec: &O, coord: &CoordSpec, nodes: usize) {
    // Unbatched (one WRITE per ring entry) and the doorbell-batched
    // default: every shipped type runs the protocol both ways.
    for max_batch in [1, 16] {
        let mut run = RunConfig::new(nodes, workload());
        run.runtime = run.runtime.with_max_batch(max_batch);
        let rep = Runner::new(System::Hamband, run).run(spec, coord).report;
        let what = format!("{} (max_batch {max_batch})", spec.name());
        assert_budget(&rep, &workload(), coord, &what);
    }
}

/// Hamband and Mu-SMR on every picked row, four nodes; MSG where the
/// row has no conflicting method for it to refuse.
struct OnEverySystem(fn(&str) -> bool);

impl ShippedVisitor for OnEverySystem {
    fn visit<O: Shipped>(&mut self, name: &'static str, spec: &O, coord: &CoordSpec) {
        if !(self.0)(name) {
            return;
        }
        hamband_converges(spec, coord, 4);
        for system in [System::MuSmr, System::Msg] {
            if system == System::Msg && !coord.sync_groups().is_empty() {
                continue;
            }
            let rep = Runner::new(system, RunConfig::new(4, workload())).run(spec, coord).report;
            assert_budget(&rep, &workload(), coord, &format!("{name} on {}", system.label()));
        }
    }
}

common::row_tests! {
    OnEverySystem {
        counter_all_systems: "counter",
        lww_all_systems: "lww",
        gset_both_coordinations: "gset" | "gset-buffered",
        orset_and_cart: "orset" | "cart",
        account_hamband_and_smr: "account",
        relational_schemata: "project" | "movie" | "courseware",
        _: every_other_row_on_every_system,
    }
}

/// The budget on the sharded issue paths and at a cluster size that
/// leaves a node leading no shard: each shard's quota is its leader's
/// alone, so four leaders spend exactly what one would.
struct AcksItsBudget;

impl ShippedVisitor for AcksItsBudget {
    fn visit<O: Shipped>(&mut self, name: &'static str, spec: &O, coord: &CoordSpec) {
        for (nodes, shards) in [(4, 1), (4, 4), (5, 1), (5, 4)] {
            let workload = WorkloadSpec::ops(300).with_update_ratio(0.5).with_seed(7);
            let run = RunConfig::new(nodes, workload.clone()).with_sync_shards(shards);
            let rep = Runner::new(System::Hamband, run).run(spec, coord).report;
            let what = format!("{name}, {nodes} nodes x {shards} shards");
            assert_budget(&rep, &workload, coord, &what);
        }
    }
}

#[test]
fn every_row_acks_exactly_its_budget() {
    for_each_shipped(&mut AcksItsBudget);
}

// ---- scenario tests: one type each, named on purpose (scripts/check.sh reads this line) ----

#[test]
fn seven_node_cluster_like_the_paper() {
    // The paper's testbed size.
    let c = Counter::default();
    hamband_converges(&c, &c.coord_spec(), 7);
    let cw = Courseware::default();
    hamband_converges(&cw, &cw.coord_spec(), 7);
}

#[test]
fn reduce_only_counter_combines_summary_writes() {
    // The paper's amortized-O(1)-writes claim: with every call on the
    // REDUCE path, one summary WRITE per peer carries the whole window
    // of eight calls (0.126 here) and a call waits out one WRITE, not
    // two (1.90 us). Posting from the completion handler, before the
    // plan that refills the window, gives 0.252 and 3.12 us.
    let c = Counter::default();
    let workload = WorkloadSpec::ops(2_000).with_update_ratio(1.0).with_seed(0x5eed + 910);
    let run = RunConfig::new(4, workload).with_seed((0x5eed + 910) ^ 0xfab);
    let report = Runner::new(System::Hamband, run).run(&c, &c.coord_spec()).report;
    assert!(report.converged);
    let per_peer = report.writes_per_op / (report.nodes - 1) as f64;
    assert!(per_peer < 0.2, "{per_peer:.3} writes per update per peer");
    assert!(report.mean_rt_us < 2.5, "mean response time {:.2} us", report.mean_rt_us);
}

#[test]
fn final_states_satisfy_invariants() {
    let p = Project::default();
    let workload = WorkloadSpec::ops(800).with_update_ratio(0.5).with_seed(3);
    let run = RunConfig::new(4, workload).with_seed(9);
    let (_, nodes) = Runner::new(System::Hamband, run).run_with_states(&p, &p.coord_spec());
    for (i, node) in nodes.iter().enumerate() {
        assert!(
            p.invariant(&node.state),
            "referential integrity violated at node {i}: {:?}",
            node.state
        );
    }
}
