//! Key-sharded sync groups, end to end: runs with `sync_shards > 1`
//! must stay convergent, deterministic, and commit-before-ack per
//! *mapped* group, and the [`GroupMapper`] itself must obey the safety
//! contract the routing relies on — two conflicting calls on the same
//! key land in the same mapped group for *any* shard count, so Lemma 1
//! keeps holding per shard (cross-key conflicting calls of a sharded
//! group are commutative by the shard-key declaration, validated by
//! `hamband_core::analysis`).

use hamband_core::coord::{CoordSpec, GroupMapper};
use hamband_core::ids::GroupId;
use hamband_runtime::{
    Phase, QuotaSplit, RunConfig, Runner, System, TraceMode, TraceRecord, WorkloadSpec,
};
use hamband_types::{Bank, OrSet};
use proptest::prelude::*;
use rdma_sim::TraceEvent;

/// FNV-1a over the debug rendering of the full event stream (the same
/// digest the parity suite uses).
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

/// Every conflicting ack must be covered by an earlier `CommitAdvance`
/// on the acking node for the same *mapped* group — the chaos campaign
/// invariant, asserted here against a sharded trace.
fn assert_commit_before_ack(events: &[TraceRecord]) {
    for (i, rec) in events.iter().enumerate() {
        let TraceEvent::Ack { node, phase: Phase::Conf, group: Some(g), seq: Some(s), .. } =
            rec.event
        else {
            continue;
        };
        let committed = events[..i].iter().any(|earlier| {
            matches!(
                earlier.event,
                TraceEvent::CommitAdvance { node: n, group, commit }
                    if n == node && group == g && commit >= s
            )
        });
        assert!(committed, "conf ack of seq {s} in mapped group {g} on {node:?} outran commit");
    }
}

#[test]
fn bank_converges_with_four_shards() {
    let b = Bank::new(64, 50);
    for seed in [1u64, 7, 13] {
        let spec = WorkloadSpec::ops(600).with_update_ratio(0.6).with_seed(seed);
        let cfg = RunConfig::new(4, spec)
            .with_seed(seed)
            .with_sync_shards(4)
            .with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&b, &b.coord_spec());
        assert!(out.report.converged, "bank seed={seed} with 4 shards must converge");
        assert_commit_before_ack(&out.events);
    }
}

/// One account per node: every conflicting call piles onto the few
/// shards those accounts map to, the rest sit idle. The run still
/// converges, commits before it acks, and accounts for every planned
/// update as acked or forfeited.
#[test]
fn bank_converges_with_hot_shards() {
    let b = Bank::new(1, 50);
    for seed in [1u64, 7, 13] {
        let spec = WorkloadSpec::ops(600).with_update_ratio(0.6).with_seed(seed);
        let (planned, _) = QuotaSplit::planned(&spec, &b.coord_spec(), 4);
        let cfg = RunConfig::new(4, spec)
            .with_seed(seed)
            .with_sync_shards(4)
            .with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&b, &b.coord_spec());
        let rep = &out.report;
        assert!(rep.converged, "bank seed={seed} on hot shards must converge");
        assert_commit_before_ack(&out.events);
        assert_eq!(rep.total_updates + rep.forfeited, planned, "seed={seed}: {rep}");
    }
}

#[test]
fn orset_converges_with_four_shards() {
    let o = OrSet::new(64);
    for seed in [1u64, 9] {
        let spec = WorkloadSpec::ops(500).with_update_ratio(0.5).with_seed(seed);
        let cfg = RunConfig::new(3, spec)
            .with_seed(seed)
            .with_sync_shards(4)
            .with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&o, &o.coord_spec());
        assert!(out.report.converged, "orset seed={seed} with 4 shards must converge");
        assert_commit_before_ack(&out.events);
    }
}

#[test]
fn sharded_runs_are_deterministic() {
    let run = || {
        let b = Bank::new(64, 50);
        let spec = WorkloadSpec::ops(500).with_update_ratio(0.6).with_sessions(8).with_seed(21);
        let cfg = RunConfig::new(4, spec)
            .with_seed(21)
            .with_sync_shards(8)
            .with_trace(TraceMode::Collect);
        let out = Runner::new(System::Hamband, cfg).run(&b, &b.coord_spec());
        assert!(out.report.converged);
        (digest(&out.events), out.report)
    };
    let (d1, r1) = run();
    let (d2, r2) = run();
    assert_eq!(d1, d2, "same seed + same shard count, same event stream");
    assert_eq!(r1, r2);
}

#[test]
fn smr_baseline_ignores_shard_config() {
    // Under the complete conflict relation cross-key calls conflict
    // too, so the harness must force the SMR baseline back to one log
    // even when the config (or env) asks for shards.
    let b = Bank::new(64, 50);
    let spec = WorkloadSpec::ops(300).with_update_ratio(0.5).with_seed(5);
    let cfg = RunConfig::new(3, spec).with_seed(5).with_sync_shards(4);
    let out = Runner::new(System::MuSmr, cfg).run(&b, &b.coord_spec());
    assert!(out.report.converged, "MuSmr must converge regardless of sync_shards");
}

#[test]
fn eight_shards_outrun_one_on_uniform_keys() {
    // The sync-shard sweep's configuration: the headline bank mix on
    // six nodes over 256 accounts, uniform keys, 2000 ops. One shard is
    // the paper's lone withdraw leader; eight spread the conflicting
    // group over per-account logs with distinct leaders.
    let b = Bank::new(256, 50);
    let tput = |shards: usize| {
        let spec = WorkloadSpec::ops(2_000).with_update_ratio(0.5).with_seed(0x5eed + 900);
        let cfg =
            RunConfig::new(6, spec).with_seed((0x5eed + 900) ^ 0xfab).with_sync_shards(shards);
        let report = Runner::new(System::Hamband, cfg).run(&b, &b.coord_spec()).report;
        assert!(report.converged, "{shards} shard(s) must converge");
        report.throughput_ops_per_us
    };
    let (one, eight) = (tput(1), tput(8));
    assert!(eight > one, "8 shards: {eight:.3} ops/us, 1 shard: {one:.3} ops/us");
}

/// A two-group conflict spec (methods 0↔1 and 2↔3 conflict) to exercise
/// mapping across more than one synchronization group.
fn two_group_coord() -> CoordSpec {
    CoordSpec::builder(4).conflict(0, 1).conflict(2, 3).build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Safety of the routing: for ANY shard count, two calls of the
    /// same synchronization group carrying the same key map to the same
    /// engine — the serialization Lemma 1 needs for same-key conflicts
    /// never splits across logs.
    #[test]
    fn same_key_same_group_for_any_shard_count(
        shards in 1usize..64,
        key in any::<u64>(),
        sg in 0usize..2,
    ) {
        let coord = two_group_coord();
        let m = GroupMapper::new(&coord, shards);
        let g1 = m.group_of(GroupId(sg), Some(key));
        let g2 = m.group_of(GroupId(sg), Some(key));
        prop_assert_eq!(g1, g2);
        prop_assert!(m.shard_range(GroupId(sg)).contains(&g1));
        prop_assert_eq!(m.sync_group_of(g1), GroupId(sg));
    }

    /// Keys never leak across synchronization groups: the shard ranges
    /// of distinct groups are disjoint, so a mapped group index always
    /// identifies one sync group (conflicts across groups don't exist
    /// by construction, and the mapping keeps it that way).
    #[test]
    fn shard_ranges_of_distinct_groups_are_disjoint(
        shards in 1usize..64,
        key in any::<u64>(),
    ) {
        let coord = two_group_coord();
        let m = GroupMapper::new(&coord, shards);
        let a = m.group_of(GroupId(0), Some(key));
        let b = m.group_of(GroupId(1), Some(key));
        prop_assert!(a != b, "groups 0 and 1 mapped key {} to the same engine {}", key, a);
        prop_assert!(!m.shard_range(GroupId(0)).contains(&b));
        prop_assert!(!m.shard_range(GroupId(1)).contains(&a));
        prop_assert_eq!(m.group_count(), 2 * shards);
    }

    /// Keyless calls conflict with every call of their group, so they
    /// must always pin to the group's shard 0 — sharing a log with any
    /// keyed call's shard would otherwise be required of *all* shards.
    #[test]
    fn keyless_calls_pin_to_shard_zero(shards in 1usize..64, sg in 0usize..2) {
        let coord = two_group_coord();
        let m = GroupMapper::new(&coord, shards);
        prop_assert_eq!(m.group_of(GroupId(sg), None), sg * shards);
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end sampled run: small sharded Bank runs converge for
    /// arbitrary seeds and shard counts (few cases, tiny workloads —
    /// full cluster runs are the expensive strategy here).
    #[test]
    fn sharded_bank_runs_converge_across_seeds(seed in 1u64..500, shards in 1usize..9) {
        let b = Bank::new(32, 50);
        let spec = WorkloadSpec::ops(120).with_update_ratio(0.6).with_seed(seed);
        let cfg = RunConfig::new(3, spec).with_seed(seed).with_sync_shards(shards);
        let out = Runner::new(System::Hamband, cfg).run(&b, &b.coord_spec());
        prop_assert!(out.report.converged, "seed={} shards={}", seed, shards);
    }
}
