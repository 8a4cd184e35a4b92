//! Flat-combining ingress: behavior parity, many-session runs, and
//! the batching the combiner exists to deliver.
//!
//! Three families of guarantees:
//!
//! 1. **Parity** — a fixed-seed run must reproduce its golden trace
//!    fingerprint exactly; equality means every protocol event (ring
//!    appends, summary writes, elections, acks) happens at the same
//!    virtual time with the same payloads, so refactors that claim to
//!    preserve behavior are held to it bit-for-bit.
//! 2. **Many sessions** — session fan-in must not break convergence,
//!    determinism, or the per-session accounting that fairness
//!    reporting is built on.
//! 3. **Batching** — a saturated FREE workload must reach the fabric as
//!    coalesced ring WRITEs: slots per WRITE near `max_batch`, exactly 1
//!    at `max_batch = 1`, the same converged state either way. A mixed
//!    workload whose leader is merely busy must coalesce what arrived
//!    while it was. A saturated REDUCE workload must put a whole window
//!    of calls on each summary WRITE.
//!
//! The goldens' rule: a golden moves only in a change that means to
//! move virtual timing, and CHANGES.md says which sets moved and why
//! (it holds every re-bless so far). A mismatch prints the measured
//! entry ready to paste; outside such a change it is a regression, not
//! an excuse for another bless.

use hamband_core::{CoordSpec, ObjectSpec, WorkloadSupport};
use hamband_runtime::{
    DurabilityMode, RunConfig, RunOutcome, Runner, RuntimeConfig, System, TraceMode, TraceRecord,
    WorkloadSpec,
};
use hamband_types::orset::OrSetState;
use hamband_types::{Bank, Counter, GSet, OrSet};
use proptest::prelude::*;
use rdma_sim::{Fault, FaultPlan, NodeId, SimDuration, SimTime};

/// FNV-1a over the debug rendering of the full event stream.
fn digest(events: &[TraceRecord]) -> (usize, u64) {
    let mut h: u64 = 0xcbf29ce484222325;
    for e in events {
        let s = format!("{:?}@{:?}", e.event, e.at);
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    (events.len(), h)
}

/// A run's digest against its golden entry; a mismatch prints the
/// measured entry as the table holds it, `(seed, events, hash)`, or
/// `(events, hash)` for a golden without a seed.
fn assert_golden(what: &str, seed: Option<u64>, got: (usize, u64), golden: (usize, u64)) {
    let (events, hash) = got;
    let seed = seed.map(|s| format!("{s}, ")).unwrap_or_default();
    assert!(
        got == golden,
        "{what} moved off its golden; measured, ready to paste:\n    ({seed}{events}, {hash:#018x}),"
    );
}

/// Golden (seed, events, hash) fingerprints per workload (see the
/// module header). A mismatch means a fixed-seed run no longer
/// reproduces its blessed event stream.
/// Last re-blessed for charging only the poll ticks that scan something
/// (the tenth bless).
const GOLDEN_COUNTER: [(u64, usize, u64); 3] =
    [(1, 756, 0x543dd4343a4688cf), (7, 756, 0x343bb6649b0406d8), (13, 756, 0x56dcb009bfee10f0)];
/// Last re-blessed for summary logs that ship only the records a peer
/// lacks (the twelfth bless).
const GOLDEN_BANK: [(u64, usize, u64); 3] =
    [(1, 2694, 0x1e4c31890abf099b), (7, 2691, 0x736ea7737e2b9336), (13, 2697, 0xebeedc4a68cea216)];
/// Last re-blessed for recovery from the suspect's own copies (the
/// eleventh bless).
const GOLDEN_GSET_FAULTS: [(u64, usize, u64); 3] =
    [(1, 2559, 0x0e257ea55663f1ad), (7, 2559, 0x70cac6a3dc1cdd65), (13, 2559, 0x4a58cb85193afcd9)];
/// Last re-blessed for summary logs that ship only the records a peer
/// lacks (the twelfth bless).
const GOLDEN_BANK_LEADERFAULT: [(u64, usize, u64); 3] =
    [(1, 4022, 0xc7bff6e4b6154d84), (7, 3994, 0x8359d13f61c3b712), (13, 4034, 0x13cefa09cdc19d39)];

#[test]
fn one_session_ingress_matches_pre_ingress_driver_goldens() {
    for &(seed, events, hash) in &GOLDEN_COUNTER {
        let c = Counter::default();
        let cfg = RunConfig::new(3, WorkloadSpec::ops(300).with_update_ratio(0.5).with_seed(seed))
            .with_seed(seed)
            .with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&c, &c.coord_spec());
        assert!(out.report.converged);
        assert_golden("counter", Some(seed), digest(&out.events), (events, hash));
    }
    for &(seed, events, hash) in &GOLDEN_BANK {
        let b = Bank::default();
        let cfg = RunConfig::new(4, WorkloadSpec::ops(400).with_update_ratio(0.5).with_seed(seed))
            .with_seed(seed)
            .with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&b, &b.coord_spec());
        assert!(out.report.converged);
        assert_golden("bank", Some(seed), digest(&out.events), (events, hash));
    }
}

#[test]
fn one_session_parity_survives_faults_and_quota_adoption() {
    // Faulty runs exercise the adoption path (`adopt_free_quota`) and
    // deposed-leader aborts — both were rewired by the ingress.
    for &(seed, events, hash) in &GOLDEN_GSET_FAULTS {
        let g = GSet::default();
        let plan = FaultPlan::new()
            .at(SimTime(40_000), Fault::SuspendHeartbeat(NodeId(0)))
            .at(SimTime(60_000), Fault::Crash(NodeId(2)));
        let cfg = RunConfig::new(4, WorkloadSpec::ops(300).with_update_ratio(0.5).with_seed(seed))
            .with_seed(seed)
            .with_faults(plan)
            .with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&g, &g.coord_spec_buffered());
        assert!(out.report.converged);
        assert_golden("gset+faults", Some(seed), digest(&out.events), (events, hash));
    }
    for &(seed, events, hash) in &GOLDEN_BANK_LEADERFAULT {
        let b = Bank::default();
        let plan = FaultPlan::new().at(SimTime(50_000), Fault::SuspendHeartbeat(NodeId(1)));
        let cfg = RunConfig::new(5, WorkloadSpec::ops(400).with_update_ratio(0.5).with_seed(seed))
            .with_seed(seed)
            .with_faults(plan)
            .with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&b, &b.coord_spec());
        assert!(out.report.converged);
        assert_golden("bank+leaderfault", Some(seed), digest(&out.events), (events, hash));
    }
}

/// Saturated goldens: 64 sessions per node keep every node's CPU busy,
/// so hundreds of completions and poll timers wait on it at once —
/// the simulator's CPU-wait path, which the 1-session runs above never
/// load. The plan walks every fault arm that path crosses. First pinned
/// against the re-push scheduler (PR 14's first commit), which the
/// per-node wait queues reproduced byte for byte; re-blessed since as
/// CHANGES.md lists.
const GOLDEN_ORSET_SATURATED: [(u64, usize, u64); 3] = [
    (1, 38661, 0x1ff16f2f145f408c),
    (7, 38606, 0x8f83ff79bacd942f),
    (13, 38661, 0xb0e78dd1773021f6),
];
/// Last re-blessed for summary logs that ship only the records a peer
/// lacks (the twelfth bless).
const GOLDEN_BANK_SATURATED: [(u64, usize, u64); 3] = [
    (1, 10381, 0x370e69fe133d8d0b),
    (7, 10405, 0x19b726ef3a59bec7),
    (13, 10390, 0xb8522f48ef286ded),
];

/// Partition + heal, a duplicated completion, a delay spike and a
/// crash-restart, all inside the first 140 us of a saturated run.
fn saturated_plan(nodes: usize) -> FaultPlan {
    let last = NodeId(nodes - 1);
    FaultPlan::new()
        .at(SimTime(20_000), Fault::Partition(vec![NodeId(0)], vec![NodeId(1), last]))
        .at(SimTime(45_000), Fault::Heal)
        .at(SimTime(60_000), Fault::DuplicateCompletion(NodeId(1)))
        .at(SimTime(70_000), Fault::DelaySpike(NodeId(0), 6, SimDuration::micros(15)))
        .at(SimTime(100_000), Fault::Crash(last))
        .at(SimTime(103_000), Fault::DuplicateCompletion(last))
        .at(SimTime(104_000), Fault::Restart(last, true))
        .at(SimTime(130_000), Fault::DuplicateCompletion(NodeId(0)))
}

fn saturated_digest<O>(
    obj: &O,
    coord: &CoordSpec,
    nodes: usize,
    spec: WorkloadSpec,
    seed: u64,
) -> (usize, u64)
where
    O: WorkloadSupport + Clone + Send,
    O::Update: Send,
    O::State: Send,
{
    // Restarts need the persist log (as in `chaos::run_case`).
    let runtime = RuntimeConfig::default().with_durability(DurabilityMode::Fenced);
    let cfg = RunConfig::new(nodes, spec.with_seed(seed))
        .with_seed(seed)
        .with_runtime(runtime)
        .with_faults(saturated_plan(nodes))
        .with_trace(TraceMode::Collect);
    let out = Runner::new(System::Hamband, cfg).run(obj, coord);
    assert!(out.report.converged, "saturated run must converge, seed={seed}");
    digest(&out.events)
}

#[test]
fn saturated_sessions_match_repush_scheduler_goldens() {
    for &(seed, events, hash) in &GOLDEN_ORSET_SATURATED {
        let o = OrSet::default();
        let spec =
            WorkloadSpec::ops(6_000).with_update_ratio(0.25).with_sessions(64).with_window(8);
        let got = saturated_digest(&o, &o.coord_spec(), 6, spec, seed);
        assert_golden("orset saturated", Some(seed), got, (events, hash));
    }
    for &(seed, events, hash) in &GOLDEN_BANK_SATURATED {
        let b = Bank::default();
        let spec = WorkloadSpec::ops(2_400).with_update_ratio(0.5).with_sessions(64).with_window(2);
        let got = saturated_digest(&b, &b.coord_spec(), 4, spec, seed);
        assert_golden("bank saturated", Some(seed), got, (events, hash));
    }
}

/// OrSet on 6 nodes x 64 sessions, window 8: every call is a FREE ring
/// append and every node's combiner always has a backlog. Returns ring
/// slots per ring WRITE and the converged state.
fn saturated_orset_batching(max_batch: usize) -> (f64, OrSetState) {
    let o = OrSet::default();
    let spec = WorkloadSpec::ops(2_000)
        .with_update_ratio(0.25)
        .with_sessions(64)
        .with_window(8)
        .with_seed(1);
    let runtime = RuntimeConfig::default().with_max_batch(max_batch);
    let cfg = RunConfig::new(6, spec).with_seed(1).with_runtime(runtime);
    let (out, states) = Runner::new(System::Hamband, cfg).run_with_states(&o, &o.coord_spec());
    assert!(out.report.converged, "max_batch={max_batch} must converge");
    assert_eq!(out.report.total_calls, 2_000);
    let factor = out.stats.ring_slots as f64 / out.stats.ring_writes as f64;
    (factor, states[0].state.clone())
}

#[test]
fn saturated_free_appends_reach_the_fabric_coalesced() {
    // The combiner plans after a completion is handled, never per call it
    // acknowledged, so the appends that a coalesced WRITE's completion
    // unblocks leave coalesced again. A pump per acknowledged call
    // coalesces only the t = 0 burst: 3.6.
    let (batched, state_batched) = saturated_orset_batching(16);
    assert!(batched >= 8.0, "max_batch = 16 delivers {batched:.2} slots per ring WRITE");
    let (single, state_single) = saturated_orset_batching(1);
    assert_eq!(single, 1.0, "max_batch = 1 is one slot per WRITE");
    assert_eq!(state_batched, state_single, "batching is pure cost: same final state");
}

/// Bank on 4 nodes, one session per node, window 8 — the benchmark's
/// headline mix (REDUCE, FREE and CONF) at a size a test can run. No
/// session fan-in here: what keeps node 0 (the leader) saturated is the
/// cluster's conflicting calls, and what there is to coalesce is what
/// arrived while its CPU was busy. Returns ring slots per ring WRITE,
/// the leader's NIC-busy virtual nanoseconds and the calls made.
fn loaded_bank_batching(max_batch: usize) -> (f64, u64, u64) {
    let b = Bank::default();
    let spec = WorkloadSpec::ops(2_400).with_update_ratio(0.5).with_window(8).with_seed(1);
    let runtime = RuntimeConfig::default().with_max_batch(max_batch);
    let cfg = RunConfig::new(4, spec).with_seed(1).with_runtime(runtime);
    let (out, states) = Runner::new(System::Hamband, cfg).run_with_states(&b, &b.coord_spec());
    assert!(out.report.converged, "max_batch={max_batch} must converge");
    // Not compared across batch sizes, unlike OrSet's: Bank's generators
    // read the view (which account, how much), so balances depend on
    // when a call was planned.
    assert!(b.invariant(&states[0].state), "max_batch={max_batch} breaks the invariant");
    let factor = out.stats.ring_slots as f64 / out.stats.ring_writes as f64;
    (factor, out.stats.nic_busy_ns[0], out.report.total_calls)
}

#[test]
fn loaded_conf_and_free_appends_batch_naturally() {
    // The replica plans when no completion is left waiting for its CPU,
    // so the calls k waiting completions unblocked leave as one WRITE
    // per peer (3.18 here). A plan per handled completion posts k: 1.22.
    let (batched, nic_batched, calls_batched) = loaded_bank_batching(16);
    assert!(batched >= 2.0, "max_batch = 16 delivers {batched:.2} slots per ring WRITE");
    let (single, nic_single, calls_single) = loaded_bank_batching(1);
    assert_eq!(single, 1.0, "max_batch = 1 is one slot per WRITE");
    assert_eq!(calls_batched, calls_single, "the same budget either way");
    // Fewer doorbells is the point: the binding node's NIC frees up.
    assert!(
        nic_batched < nic_single,
        "leader NIC busy {nic_batched} ns batched, {nic_single} ns unbatched"
    );
}

/// Counter on 4 nodes, one session per node, every call a REDUCE update
/// — the benchmark's `counter-reduce` at a size a test can run. Returns
/// the traced outcome and node 0's final count.
fn reduce_burst(session_window: usize) -> (RunOutcome, i64) {
    let c = Counter::default();
    let spec =
        WorkloadSpec::ops(4_800).with_update_ratio(1.0).with_window(session_window).with_seed(1);
    let cfg = RunConfig::new(4, spec)
        .with_seed(1)
        .with_runtime(RuntimeConfig::default().with_window(8))
        .with_trace(TraceMode::Collect);
    let (out, states) = Runner::new(System::Hamband, cfg).run_with_states(&c, &c.coord_spec());
    assert!(out.report.converged, "window {session_window} must converge");
    assert_eq!(out.report.total_updates, 4_800);
    (out, states[0].state)
}

/// Window 1 never has anything to combine: an idle channel's WRITE
/// leaves in the pump that issued its call, at the same instant and in
/// the same order whether `issue_reduce` or the pump's flush posts it.
/// Pinned when the post moved to the flush, which left it unmoved;
/// re-blessed for the 16-byte heartbeat READ, for adopt-on-read
/// summaries (54 288 -> 53 760 events) and for charging only the poll
/// ticks that scan something (CHANGES.md).
const GOLDEN_REDUCE_WINDOW_1: (usize, u64) = (53_760, 0x893e5c289b0a849a);

#[test]
fn saturated_reduce_burst_boards_the_write_its_acks_enable() {
    // A summary WRITE's completion frees the whole window; the plan
    // refills it and only then the flush posts, so all eight new calls
    // ride that WRITE: 8.000 calls per WRITE per peer (1 800 WRITEs),
    // one WRITE time each (1.424 vus). Reposting from the completion
    // handler sends the slot off a moment before the plan, and the
    // eight wait it out plus the next: 4.000 (3 600 WRITEs), 3.124 vus.
    let (full, state_full) = reduce_burst(8);
    let peers = (full.report.nodes - 1) as f64;
    let calls_per_write = full.report.total_updates as f64 * peers / full.stats.writes as f64;
    assert!(calls_per_write >= 7.0, "{calls_per_write:.3} calls per summary WRITE per peer");
    assert!(
        full.report.mean_rt_us <= 2.2,
        "mean update response time {:.3} vus",
        full.report.mean_rt_us
    );
    let (single, state_single) = reduce_burst(1);
    assert_eq!(single.stats.writes, 14_400, "window 1: one WRITE per peer per call");
    assert_golden("window-1 reduce burst", None, digest(&single.events), GOLDEN_REDUCE_WINDOW_1);
    assert_eq!(state_full, state_single, "combining is pure cost: same final state");
}

#[test]
fn many_session_counter_run_converges_with_fairness() {
    let c = Counter::default();
    let spec = WorkloadSpec::ops(2_000).with_sessions(256).with_window(2).with_seed(3);
    let out = Runner::new(System::Hamband, RunConfig::new(3, spec)).run(&c, &c.coord_spec());
    assert!(out.report.converged, "256 sessions/node must still converge");
    let fair = out.report.fairness.expect("harness reports fairness");
    assert_eq!(fair.sessions, 768);
    assert!(fair.ops_per_user_per_sec > 0.0);
    assert!(fair.min_session_ops_per_sec <= fair.max_session_ops_per_sec);
    assert!(
        fair.jain_index > 0.5,
        "round-robin combining should serve sessions roughly evenly, jain={}",
        fair.jain_index
    );
}

#[test]
fn sixty_four_sessions_outrun_one() {
    // The ingress sweep's configuration: Counter on four nodes, 2000
    // ops, window 2 per session. The combiner must turn extra sessions
    // into extra in-flight budget, not overhead.
    let c = Counter::default();
    let tput = |sessions: usize| {
        let spec = WorkloadSpec::ops(2_000)
            .with_update_ratio(0.25)
            .with_sessions(sessions)
            .with_window(2)
            .with_seed(0x5eed + 700);
        let cfg = RunConfig::new(4, spec).with_seed(0x5eed ^ 0xfab);
        let report = Runner::new(System::Hamband, cfg).run(&c, &c.coord_spec()).report;
        assert!(report.converged, "{sessions} session(s)/node must converge");
        report.throughput_ops_per_us
    };
    let (one, many) = (tput(1), tput(64));
    assert!(many > one, "64 sessions: {many:.3} ops/us, 1 session: {one:.3} ops/us");
}

#[test]
fn many_session_bank_run_converges_across_protocol_paths() {
    // Bank exercises REDUCE (deposit) and CONF (withdraw) with
    // session fan-in; convergence plus a clean fairness block means
    // per-session ack fan-back survived leader commits and rejections.
    let b = Bank::default();
    let spec = WorkloadSpec::ops(1_200).with_sessions(64).with_window(2).with_seed(11);
    let out = Runner::new(System::Hamband, RunConfig::new(4, spec)).run(&b, &b.coord_spec());
    assert!(out.report.converged);
    let fair = out.report.fairness.expect("fairness present");
    assert_eq!(fair.sessions, 256);
    assert!(fair.jain_index > 0.0 && fair.jain_index <= 1.0 + 1e-9);
}

#[test]
fn many_session_runs_are_deterministic() {
    let run = || {
        let c = Counter::default();
        let spec = WorkloadSpec::ops(1_000).with_sessions(32).with_window(2).with_seed(9);
        let cfg = RunConfig::new(3, spec).with_seed(9).with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&c, &c.coord_spec());
        (digest(&out.events), out.report)
    };
    let (d1, r1) = run();
    let (d2, r2) = run();
    assert_eq!(d1, d2, "same seed, same combined event stream");
    assert_eq!(r1, r2, "same seed, same report (fairness included)");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seed: a 1-session run and a rerun with the same seed are
    /// trace-identical, and fan-out to several sessions keeps the run
    /// convergent with exactly the expected session count.
    #[test]
    fn ingress_runs_deterministic_and_convergent_across_seeds(seed in 1u64..1_000) {
        let c = Counter::default();
        let one = |sessions: usize| {
            let spec = WorkloadSpec::ops(400)
                .with_update_ratio(0.5)
                .with_sessions(sessions)
                .with_seed(seed);
            let cfg = RunConfig::new(3, spec).with_seed(seed).with_trace(TraceMode::Collect);
            let out = Runner::new(System::Hamband, cfg).run(&c, &c.coord_spec());
            (digest(&out.events), out.report.converged, out.report.fairness)
        };
        let (d_a, conv_a, _) = one(1);
        let (d_b, conv_b, _) = one(1);
        prop_assert!(conv_a && conv_b);
        prop_assert_eq!(d_a, d_b);
        let (_, conv_multi, fair) = one(8);
        prop_assert!(conv_multi);
        prop_assert_eq!(fair.expect("fairness").sessions, 24);
    }
}
