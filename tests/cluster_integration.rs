//! Cross-crate integration: every shipped data type runs on the full
//! simulated cluster, converges, and ends in a state satisfying its
//! invariant; conflict-free types additionally run under the MSG
//! baseline and the Mu-SMR baseline.

use hamband::core::coord::CoordSpec;
use hamband::core::object::{ObjectSpec, WorkloadSupport};
use hamband::runtime::{RunConfig, Runner, System, WorkloadSpec};
use hamband::types::{
    Account, Cart, Counter, Courseware, GSet, LwwRegister, Movie, OrSet, Project,
};

fn hamband_converges<O>(spec: &O, coord: &CoordSpec, nodes: usize)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    // Unbatched (one WRITE per ring entry) and the doorbell-batched
    // default: every shipped type runs the protocol both ways.
    for max_batch in [1, 16] {
        let workload = WorkloadSpec::ops(600).with_update_ratio(0.4).with_seed(0xc0de);
        let mut run = RunConfig::new(nodes, workload);
        run.runtime = run.runtime.with_max_batch(max_batch);
        let rep = Runner::new(System::Hamband, run).run(spec, coord).report;
        assert!(rep.converged, "{} (max_batch {max_batch}) did not converge: {rep}", spec.name());
        assert!(rep.total_updates > 0, "{} (max_batch {max_batch}) acked no updates", spec.name());
    }
}

fn smr_converges<O>(spec: &O, nodes: usize)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let run = RunConfig::new(nodes, WorkloadSpec::ops(600).with_update_ratio(0.4).with_seed(0xc0de));
    let rep = Runner::new(System::MuSmr, run)
        .run(spec, &CoordSpec::builder(spec.method_count()).build())
        .report;
    assert!(rep.converged, "{} SMR did not converge: {rep}", spec.name());
}

fn msg_converges<O>(spec: &O, coord: &CoordSpec, nodes: usize)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    let run = RunConfig::new(nodes, WorkloadSpec::ops(600).with_update_ratio(0.4).with_seed(0xc0de));
    let rep = Runner::new(System::Msg, run).run(spec, coord).report;
    assert!(rep.converged, "{} MSG did not converge: {rep}", spec.name());
}

#[test]
fn counter_all_systems() {
    let c = Counter::default();
    hamband_converges(&c, &c.coord_spec(), 4);
    smr_converges(&c, 4);
    msg_converges(&c, &c.coord_spec(), 4);
}

#[test]
fn lww_all_systems() {
    let l = LwwRegister::default();
    hamband_converges(&l, &l.coord_spec(), 4);
    smr_converges(&l, 4);
    msg_converges(&l, &l.coord_spec(), 4);
}

#[test]
fn gset_both_coordinations() {
    let g = GSet::default();
    hamband_converges(&g, &g.coord_spec(), 4);
    hamband_converges(&g, &g.coord_spec_buffered(), 4);
    msg_converges(&g, &g.coord_spec_buffered(), 4);
}

#[test]
fn orset_and_cart() {
    let o = OrSet::default();
    hamband_converges(&o, &o.coord_spec(), 5);
    msg_converges(&o, &o.coord_spec(), 5);
    let cart = Cart::default();
    hamband_converges(&cart, &cart.coord_spec(), 5);
    msg_converges(&cart, &cart.coord_spec(), 5);
}

#[test]
fn account_hamband_and_smr() {
    let a = Account::new(50);
    hamband_converges(&a, &a.coord_spec(), 3);
    smr_converges(&a, 3);
}

#[test]
fn relational_schemata() {
    let p = Project::default();
    hamband_converges(&p, &p.coord_spec(), 4);
    let m = Movie::default();
    hamband_converges(&m, &m.coord_spec(), 4);
    let cw = Courseware::default();
    hamband_converges(&cw, &cw.coord_spec(), 4);
    smr_converges(&cw, 4);
}

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
    use hamband::runtime::assemble;
    use hamband::sim::{NodeId, SimDuration};

    let p = Project::default();
    let n = 4;
    let workload = WorkloadSpec::ops(800).with_update_ratio(0.5).with_seed(3);
    let run = RunConfig::new(n, workload).with_seed(9);
    let (mut sim, _layout, _trace) = assemble(&p, &p.coord_spec(), &run);
    for _ in 0..200 {
        sim.run_for(SimDuration::micros(50));
        if (0..n).all(|i| sim.app(NodeId(i)).workload_done()) {
            break;
        }
    }
    sim.run_for(SimDuration::millis(1));
    for i in 0..n {
        let state = sim.app(NodeId(i)).state_snapshot();
        assert!(
            p.invariant(&state),
            "referential integrity violated at node {i}: {state:?}"
        );
    }
}
