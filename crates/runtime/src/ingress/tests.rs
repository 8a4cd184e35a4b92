//! Unit tests of the flat-combining ingress (a child module, for the
//! private quota state they set up and read).

use super::*;
use hamband_core::demo::Account;

fn account_coord() -> CoordSpec {
    Account::default().coord_spec()
}

#[test]
fn window_limits_outstanding_per_session() {
    let acc = Account::new(10);
    let coord = account_coord();
    let w = WorkloadSpec::ops(10_000).with_update_ratio(1.0).with_window(4);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    let state = 1_000i128;
    let mut issued = 0;
    while let Some((_, p)) = ing.next(&acc, &state, &coord, move |_| Some(issued)) {
        match p {
            Planned::Update(_) => issued += 1,
            Planned::Query(_) => {}
        }
        if ing.outstanding() == 4 {
            break;
        }
    }
    assert_eq!(ing.outstanding(), 4);
    assert!(ing.next(&acc, &state, &coord, move |_| Some(issued)).is_none());
    ing.on_ack(0, 1_000);
    assert!(ing.next(&acc, &state, &coord, move |_| Some(issued)).is_some());
}

#[test]
fn sessions_multiply_inflight_up_to_the_in_flight_cap() {
    let acc = Account::new(10);
    let coord = account_coord();
    let state = 1_000i128;
    // 8 sessions × window 4 = 32 in flight; cap at 64 is slack.
    let w = WorkloadSpec::ops(10_000).with_update_ratio(1.0).with_sessions(8).with_window(4);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    let mut issued = 0;
    while let Some((_, p)) = ing.next(&acc, &state, &coord, move |_| Some(issued)) {
        if let Planned::Update(_) = p {
            issued += 1;
        }
    }
    assert_eq!(ing.outstanding(), 32);
    // 1000 sessions × window 4 would be 4000: the in-flight cap holds
    // the node at 64, the window a recoverer re-sends.
    let w = WorkloadSpec::ops(100_000).with_update_ratio(1.0).with_sessions(1_000).with_window(4);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    let mut issued = 0;
    while let Some((_, p)) = ing.next(&acc, &state, &coord, move |_| Some(issued)) {
        if let Planned::Update(_) = p {
            issued += 1;
        }
    }
    assert_eq!(ing.outstanding(), 64);
}

#[test]
fn combining_order_is_round_robin_and_deterministic() {
    let acc = Account::new(10);
    let coord = account_coord();
    let w = WorkloadSpec::ops(10_000).with_update_ratio(1.0).with_sessions(3).with_window(2);
    let order = |seed: u64| {
        let w = w.clone().with_seed(seed);
        let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        let mut order = Vec::new();
        let state = 1_000i128;
        while let Some((sid, _)) = ing.next(&acc, &state, &coord, |_| Some(0)) {
            order.push(sid);
            if order.len() == 6 {
                break;
            }
        }
        order
    };
    // Sessions act strictly round-robin while all have window room.
    assert_eq!(order(1), vec![0, 1, 2, 0, 1, 2]);
    assert_eq!(order(1), order(1), "same seed, same combining order");
}

#[test]
fn window_full_session_is_skipped_not_stalled() {
    let acc = Account::new(10);
    let coord = account_coord();
    let w = WorkloadSpec::ops(10_000).with_update_ratio(1.0).with_sessions(2).with_window(1);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    let state = 1_000i128;
    let (s1, _) = ing.next(&acc, &state, &coord, |_| Some(0)).expect("first");
    let (s2, _) = ing.next(&acc, &state, &coord, |_| Some(0)).expect("second");
    assert_ne!(s1, s2);
    assert!(ing.next(&acc, &state, &coord, |_| Some(0)).is_none(), "both windows full");
    ing.on_ack(s2, 500);
    let (s3, _) = ing.next(&acc, &state, &coord, |_| Some(0)).expect("slot freed");
    assert_eq!(s3, s2, "only the acked session has room");
}

#[test]
fn non_leader_cannot_issue_conflicting() {
    let acc = Account::new(10);
    let coord = account_coord();
    let w = WorkloadSpec::ops(100).with_update_ratio(1.0).with_window(64);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    let state = 1_000i128;
    let mut saw_withdraw = false;
    while let Some((s, p)) = ing.next(&acc, &state, &coord, |_| None) {
        if let Planned::Update(u) = p {
            assert!(matches!(u, hamband_core::demo::AccountUpdate::Deposit(_)));
            saw_withdraw |= matches!(u, hamband_core::demo::AccountUpdate::Withdraw(_));
            ing.on_ack(s, 100);
        }
    }
    assert!(!saw_withdraw);
}

#[test]
fn halt_stops_issuing() {
    let acc = Account::new(10);
    let coord = account_coord();
    let w = WorkloadSpec::ops(100);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    ing.halt();
    assert!(ing.local_done());
    assert!(ing.next(&acc, &0i128, &coord, |_| Some(0)).is_none());
}

#[test]
fn adoption_extends_quota_and_windows() {
    let acc = Account::new(10);
    let coord = account_coord();
    let w = WorkloadSpec::ops(400).with_update_ratio(1.0).with_sessions(2);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 2, 64);
    let before = ing.free_left[0];
    ing.adopt_free_quota(&[10, 0], 5);
    assert_eq!(ing.free_left[0], before + 10);
    assert!(ing.sessions().iter().all(|s| s.window == 16), "windows doubled");
    assert_eq!(ing.inflight_cap, 32);
}

#[test]
fn generator_dry_state_returns_none_without_burning_quota() {
    let acc = Account::new(10);
    let coord = account_coord();
    // Pure withdraw workload at zero balance: generator yields None.
    let w = WorkloadSpec::ops(10).with_update_ratio(1.0);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    ing.free_left[0] = 0; // no deposits
    let state = 0i128;
    assert_eq!(ing.next(&acc, &state, &coord, |_| Some(0)), None);
    assert_eq!(ing.outstanding(), 0);
}

#[test]
fn session_seeds_never_collide_across_nodes_and_sessions() {
    // Regression for the xor-of-linear-terms seeding: distinct
    // (node, session) pairs could feed identical RNG streams. The
    // splitmix64 chain must give every pair its own seed across a
    // realistically large grid, for several base seeds.
    let mut seen = std::collections::HashSet::new();
    for base in [0u64, 1, 0x5eed, u64::MAX] {
        for node in 0..16usize {
            for session in 0..256u64 {
                assert!(
                    seen.insert(session_seed(base, node, session)),
                    "seed collision at base={base:#x} node={node} session={session}"
                );
            }
        }
        seen.clear();
    }
}

/// Leading only mapped group `led`, an update-only workload issues
/// calls of that shard and nothing else — and keeps finding them.
fn issues_only_on_led_shard<O: WorkloadSupport>(
    spec: &O,
    coord: &CoordSpec,
    state: &O::State,
    led: usize,
) {
    let mapper = GroupMapper::new(coord, 4);
    let w = WorkloadSpec::ops(2_000).with_update_ratio(1.0).with_window(64);
    let mut ing = Ingress::new(spec, &w, coord, mapper, 0, 1, 64);
    ing.free_left.fill(0);
    let mut issued = 0;
    let only_led = |g| (g == led).then_some(0);
    while let Some((s, Planned::Update(u))) = ing.next(spec, state, coord, only_led) {
        let sg = coord.sync_group(spec.method_of(&u)).expect("only conflicting quota is left");
        assert_eq!(mapper.group_of(sg, spec.shard_key(&u)), led, "{u:?} routed off the led shard");
        issued += 1;
        ing.on_ack(s, 100);
        if issued >= 50 {
            return;
        }
    }
    panic!("{}: the leader of one shard issued only {issued} calls", spec.name());
}

#[test]
fn sharded_routing_only_issues_locally_led_keys() {
    use hamband_types::bank::{Bank, BankUpdate};
    let bank = Bank::new(64, 50);
    let mut state = bank.initial();
    for a in 0..64 {
        bank.apply_mut(&mut state, &BankUpdate::OpenAccounts(vec![a]));
        bank.apply_mut(&mut state, &BankUpdate::Deposit(a, 40));
    }
    issues_only_on_led_shard(&bank, &bank.coord_spec(), &state, 2);
    // Movie mints its keys from the fresh-identifier sequence: a
    // redraw has to advance it, or every try presents the same key.
    let movie = hamband_types::Movie::default();
    for led in 0..8 {
        issues_only_on_led_shard(&movie, &movie.coord_spec(), &movie.initial(), led);
    }
}

#[test]
fn keyless_conflicting_calls_pin_to_shard_zero() {
    let acc = Account::new(10);
    let coord = account_coord();
    let mapper = GroupMapper::new(&coord, 4);
    let w = WorkloadSpec::ops(200).with_update_ratio(1.0).with_window(8);
    let mut ing = Ingress::new(&acc, &w, &coord, mapper, 0, 1, 64);
    ing.free_left.fill(0); // withdraw-only
    let state = 1_000i128;
    // The whole quota sits on shard 0, the only one a keyless call
    // reaches: leading another shard, withdraw is no candidate, and
    // having nothing to try is not a dry generator.
    assert_eq!(ing.conf_target, [100, 0, 0, 0]);
    assert!(ing.next(&acc, &state, &coord, |g| (g == 3).then_some(0)).is_none());
    assert_eq!(ing.dry_streak, 0);
    // Leading shard 0 issues them.
    assert!(ing.next(&acc, &state, &coord, |g| (g == 0).then_some(0)).is_some());
}

#[test]
fn per_session_stats_track_acks_and_latency() {
    let acc = Account::new(10);
    let coord = account_coord();
    let w = WorkloadSpec::ops(1_000).with_update_ratio(1.0).with_sessions(2).with_window(1);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    let state = 1_000i128;
    let (a, _) = ing.next(&acc, &state, &coord, |_| Some(0)).expect("a");
    let (b, _) = ing.next(&acc, &state, &coord, |_| Some(0)).expect("b");
    ing.on_ack(a, 2_000);
    ing.on_ack(b, 4_000);
    let stats = ing.session_stats();
    assert_eq!(stats.len(), 2);
    assert!(stats.iter().all(|s| s.issued == 1 && s.acked == 1));
    let rts: Vec<u64> = stats.iter().map(|s| s.sum_rt_ns).collect();
    assert_eq!(rts.iter().sum::<u64>(), 6_000);
    assert!((stats[a as usize].mean_rt_us() - 2.0).abs() < 1e-9);
    assert_eq!(stats[a as usize].completed(), 1);
}

#[test]
fn open_loop_gates_issue_on_released_arrivals() {
    let acc = Account::new(10);
    let coord = account_coord();
    let w = WorkloadSpec::ops(100).with_update_ratio(1.0).with_offered_load(1_000_000.0);
    let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    let state = 1_000i128;
    // No arrival has been released yet: the pump gets nothing even
    // though quota and window are wide open.
    assert!(ing.next(&acc, &state, &coord, |_| Some(0)).is_none());
    assert_eq!(ing.take_arrival(), None, "no arrival released");
    // Release everything due in the first 10ms (~10 at 1M ops/s/1 node).
    ing.release_arrivals(SimTime(10_000_000));
    let (_, p) = ing.next(&acc, &state, &coord, |_| Some(0)).expect("arrival pending");
    assert!(matches!(p, Planned::Update(_)));
    let at = ing.take_arrival().expect("arrival stamp");
    assert!(at <= SimTime(10_000_000), "arrival stamped in the future");
    // The rest of the released arrivals, in arrival order; once they
    // are handed out the pump gets nothing again.
    let rest: Vec<SimTime> = std::iter::from_fn(|| ing.take_arrival()).collect();
    assert!(!rest.is_empty(), "10ms at 1M ops/s released a single arrival");
    assert!(rest.windows(2).all(|w| w[0] <= w[1]) && rest.iter().all(|&t| at <= t));
    assert!(*rest.last().unwrap() <= SimTime(10_000_000), "arrival stamped in the future");
    assert!(ing.next(&acc, &state, &coord, |_| Some(0)).is_none());
}

#[test]
fn open_loop_arrivals_are_deterministic_and_budget_capped() {
    let coord = account_coord();
    let w = WorkloadSpec::ops(40).with_update_ratio(1.0).with_offered_load(2_000_000.0);
    let drain = || {
        let acc = Account::default();
        let mut ing = Ingress::new(&acc, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
        // Far future: every budgeted arrival is due.
        ing.release_arrivals(SimTime(u64::MAX));
        let mut ts = Vec::new();
        while let Some(t) = ing.take_arrival() {
            ts.push(t);
        }
        ts
    };
    let a = drain();
    // Generation stops at the node's op budget — offered load far
    // beyond capacity cannot grow the backlog without bound.
    assert_eq!(a.len(), 40);
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals out of order");
    assert_eq!(a, drain(), "same seed, same Poisson arrival times");
}

/// How many words `after` runs ahead of `before` on the same stream
/// (at most 64).
fn words_ahead(before: &StdRng, after: &StdRng) -> usize {
    use rand::RngCore;
    let target = after.clone().next_u64();
    let mut r = before.clone();
    (0..64).find(|_| r.next_u64() == target).expect("the same stream, at most 64 words on")
}

#[test]
fn bank_plans_fall_back_past_a_dry_withdraw() {
    use hamband_types::bank::{Bank, BankUpdate};
    use rand::RngCore;
    let bank = Bank::new(16, 50);
    let coord = bank.coord_spec();
    // Open accounts with no balance: every withdraw comes up dry, so
    // a plan that picks it first falls back to the other methods.
    let mut state = bank.initial();
    for a in [3, 7, 11] {
        bank.apply_mut(&mut state, &BankUpdate::OpenAccounts(vec![a]));
    }
    let w = WorkloadSpec::ops(600).with_update_ratio(1.0).with_window(64).with_seed(5);
    let mut ing = Ingress::new(&bank, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    let mut plans = Vec::new();
    let mut fell_back = false;
    for _ in 0..12 {
        let before = ing.sessions[0].rng.clone();
        let (sid, plan) =
            ing.next(&bank, &state, &coord, |_| Some(0)).expect("open and deposit have quota");
        assert_eq!(sid, 0);
        let Planned::Update(u) = plan else { panic!("an update-only workload planned {plan:?}") };
        // Without a fallback an open draws only the pick's word.
        fell_back |= matches!(u, BankUpdate::OpenAccounts(_))
            && words_ahead(&before, &ing.sessions[0].rng) > 1;
        plans.push(u);
    }
    assert!(fell_back, "no plan fell back past the dry withdraw: {plans:?}");
    assert_eq!(
        format!("{plans:?}"),
        "[OpenAccounts([0]), OpenAccounts([1]), Deposit(11, 21), Deposit(11, 31), \
         OpenAccounts([4]), OpenAccounts([5]), OpenAccounts([6]), Deposit(3, 21), \
         OpenAccounts([8]), Deposit(7, 11), OpenAccounts([10]), OpenAccounts([11])]"
    );
    assert_eq!(ing.sessions[0].rng.next_u64(), 7_469_261_253_230_910_427, "the stream moved");
}

#[test]
fn counter_plan_draws_the_pick_word_then_the_generators() {
    use hamband_types::counter::{Counter, ADD};
    let counter = Counter::default();
    let coord = counter.coord_spec();
    let w = WorkloadSpec::ops(100).with_update_ratio(1.0).with_window(64).with_seed(9);
    let mut ing = Ingress::new(&counter, &w, &coord, GroupMapper::identity(&coord), 0, 1, 64);
    for _ in 0..16 {
        // The one candidate's pick takes a word, the generator the rest.
        let mut reference = ing.sessions[0].rng.clone();
        let _pick: u64 = reference.gen_range(0..u64::MAX);
        let expected = counter.sample_update_of(ADD, &mut reference);
        let (_, plan) = ing.next(&counter, &0, &coord, |_| Some(0)).expect("quota left");
        assert_eq!(plan, Planned::Update(expected));
        assert_eq!(words_ahead(&reference, &ing.sessions[0].rng), 0, "plan drew extra words");
    }
}
