//! End-to-end runtime tests: full Hamband clusters (and baselines)
//! driven to convergence over the simulated fabric. Convergence of
//! every shipped type, on every system, is `tests/cluster_integration.rs`
//! (over the registry); what is here asserts something more.

use hamband_core::demo::Account;
use hamband_runtime::{RunConfig, Runner, System, WorkloadSpec};
use hamband_types::{Counter, Courseware};
use rdma_sim::{Fault, FaultPlan, NodeId, SimTime};

#[test]
fn counter_reducible_converges() {
    let c = Counter::default();
    let config = RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let report = Runner::new(System::Hamband, config).run(&c, &c.coord_spec()).report;
    assert!(report.converged, "{report}");
    assert!(report.total_updates >= 295, "most updates acked: {report}");
    assert!(report.throughput_ops_per_us > 0.1, "{report}");
}

#[test]
fn account_all_categories_converges() {
    let a = Account::new(50);
    let config = RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let report = Runner::new(System::Hamband, config).run(&a, &a.coord_spec()).report;
    assert!(report.converged, "{report}");
    // Some withdrawals must actually have committed.
    assert!(report.rt_per_method_us.contains_key("withdraw"), "{report:?}");
    // Withdrawals go through consensus, so the report must carry a CONF
    // phase distribution alongside REDUCE/FREE.
    assert!(report.phases.contains_key("conf"), "{report:?}");
}

#[test]
fn smr_baseline_converges_and_is_slower() {
    let c = Counter::default();
    let config = RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let hb = Runner::new(System::Hamband, config.clone()).run(&c, &c.coord_spec()).report;
    let smr = Runner::new(System::MuSmr, config).run(&c, &c.coord_spec()).report;
    assert!(smr.converged, "{smr}");
    assert!(
        hb.throughput_ops_per_us > smr.throughput_ops_per_us,
        "hamband {hb} should beat smr {smr}"
    );
}

#[test]
fn msg_baseline_converges_and_is_much_slower() {
    let c = Counter::default();
    let config = RunConfig::new(3, WorkloadSpec::ops(600).with_update_ratio(0.5));
    let hb = Runner::new(System::Hamband, config.clone()).run(&c, &c.coord_spec()).report;
    let msg = Runner::new(System::Msg, config).run(&c, &c.coord_spec()).report;
    assert!(msg.converged, "{msg}");
    assert!(
        hb.throughput_ops_per_us > 3.0 * msg.throughput_ops_per_us,
        "hamband {hb} should dominate msg {msg}"
    );
    assert!(hb.mean_rt_us < msg.mean_rt_us, "hamband {hb} rt below msg {msg}");
}

#[test]
fn follower_failure_is_tolerated() {
    let c = Counter::default();
    let config = RunConfig::new(4, WorkloadSpec::ops(800).with_update_ratio(0.5))
        .with_faults(FaultPlan::new().at(SimTime(40_000), Fault::SuspendHeartbeat(NodeId(3))));
    let report = Runner::new(System::Hamband, config).run(&c, &c.coord_spec()).report;
    assert!(report.converged, "{report}");
}

#[test]
fn leader_failure_elects_new_leader() {
    let cw = Courseware::default();
    // Group leader is node 0 by default; suspend its heartbeat mid-run.
    let config = RunConfig::new(4, WorkloadSpec::ops(600).with_update_ratio(0.5))
        .with_faults(FaultPlan::new().at(SimTime(60_000), Fault::SuspendHeartbeat(NodeId(0))));
    let report = Runner::new(System::Hamband, config).run(&cw, &cw.coord_spec()).report;
    assert!(report.converged, "{report}");
}
