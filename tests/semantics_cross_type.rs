//! Cross-type semantics checks: for every row of the shipped-type
//! registry, random executions of the concrete RDMA semantics (Fig. 7)
//! refine the abstract WRDT semantics (Fig. 5) and preserve integrity
//! and convergence — the executable counterpart of the paper's Lemma 3
//! and its corollaries, exercised beyond the bank-account running
//! example.

mod common;

use hamband::core::coord::{CoordSpec, MethodCategory};
use hamband::core::ids::{GroupId, MethodId, Pid};
use hamband::core::object::{ObjectSpec, WorkloadSupport};
use hamband::core::rdma_sem::RdmaWrdt;
use hamband::core::refinement::replay_and_check;
use hamband::types::{for_each_shipped, Bank, Courseware, Project, Shipped, ShippedVisitor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drive a random well-formed execution of the concrete semantics:
/// calls generated from each process's *current* state (as a real
/// client would), buffers drained at random points, then fully drained;
/// finally replay the trace abstractly.
fn random_run_refines<O>(spec: &O, coord: &CoordSpec, n: usize, steps: usize, seed: u64)
where
    O: WorkloadSupport,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let mut k = RdmaWrdt::new(spec, coord, n);
    let mut seq = 0u64;
    for _ in 0..steps {
        let p = rng.gen_range(0..n);
        let m = MethodId(rng.gen_range(0..coord.method_count()));
        // Conflicting calls are issued at the group leader against the
        // leader's state (client redirection).
        let (issuer, state) = match coord.category(m) {
            MethodCategory::Conflicting { sync_group } => {
                let l = k.leader(sync_group);
                (l.index(), k.current_state(l))
            }
            _ => (p, k.current_state(Pid(p))),
        };
        if let Some(call) = spec.gen_update(&state, issuer, seq, m, &mut rng) {
            seq += 1;
            let _ = k.issue(issuer, call);
        }
        // Occasionally apply some buffered calls.
        if rng.gen_bool(0.4) {
            let q = Pid(rng.gen_range(0..n));
            let src = Pid(rng.gen_range(0..n));
            let _ = k.free_app(q, src);
            if !coord.sync_groups().is_empty() {
                let g = GroupId(rng.gen_range(0..coord.sync_groups().len()));
                let _ = k.conf_app(q, g);
            }
        }
        assert!(k.check_integrity(), "{}: integrity violated", spec.name());
    }
    k.drain();
    assert!(k.buffers_empty(), "{}: buffers drained", spec.name());
    assert!(k.check_convergence(), "{}: convergence violated", spec.name());
    let w = replay_and_check(spec, coord, n, k.trace())
        .unwrap_or_else(|e| panic!("{}: refinement failed: {e}", spec.name()));
    for p in 0..n {
        assert_eq!(
            *w.state(Pid(p)),
            k.current_state(Pid(p)),
            "{}: abstract/concrete state mismatch at p{p}",
            spec.name()
        );
    }
}

/// Four processes, a hundred steps, five seeds on each picked row.
struct Refines(fn(&str) -> bool);

impl ShippedVisitor for Refines {
    fn visit<O: Shipped>(&mut self, name: &'static str, spec: &O, coord: &CoordSpec) {
        if (self.0)(name) {
            for seed in 0..5 {
                random_run_refines(spec, coord, 4, 100, seed);
            }
        }
    }
}

common::row_tests! {
    Refines {
        counter_refines: "counter",
        gset_refines_in_both_coordinations: "gset" | "gset-buffered",
        orset_refines: "orset",
        cart_refines: "cart",
        project_refines: "project",
        movie_refines_with_two_groups: "movie",
        courseware_refines: "courseware",
        _: every_other_row_refines,
    }
}

/// A type may answer `permissible` without building the post-state;
/// whatever it answers must be the paper's `I(apply(state, call))` on
/// every state with integrity — checked on 200 sampled states (which
/// hold at most 8 elements per relation) and on every intermediate
/// state of a 500-call run that grows well past that.
fn permissible_is_invariant_of_post_state<O: WorkloadSupport>(spec: &O) {
    let check = |state: &O::State, call: &O::Update| {
        assert_eq!(
            spec.permissible(state, call),
            spec.invariant(&spec.apply(state, call)),
            "{}: {call:?} on {state:?}",
            spec.name()
        );
    };
    let mut rng = StdRng::seed_from_u64(0xbe11);
    for _ in 0..200 {
        check(&spec.sample_state(&mut rng), &spec.sample_update(&mut rng));
    }
    let mut state = spec.initial();
    for seq in 0..500 {
        // An oblivious call (often impermissible: unknown keys, large
        // amounts) and a state-aware one (usually permissible).
        check(&state, &spec.sample_update(&mut rng));
        let m = MethodId(rng.gen_range(0..spec.method_count()));
        let Some(call) = spec.gen_update(&state, 0, seq, m, &mut rng) else {
            continue;
        };
        check(&state, &call);
        if spec.permissible(&state, &call) {
            state = spec.apply(&state, &call);
        }
        assert!(spec.invariant(&state), "{}: run left integrity", spec.name());
    }
}

struct PermissibleAgrees;

impl ShippedVisitor for PermissibleAgrees {
    fn visit<O: Shipped>(&mut self, _name: &'static str, spec: &O, _coord: &CoordSpec) {
        permissible_is_invariant_of_post_state(spec);
    }
}

#[test]
fn permissible_overrides_agree_with_the_definition() {
    for_each_shipped(&mut PermissibleAgrees);
}

// ---- scenario tests: one type each, named on purpose (scripts/check.sh reads this line) ----

/// The three types whose invariant is not constant judge a call from
/// its footprint alone: the answer does not change when integrity is
/// broken *elsewhere* in the state (outside `permissible`'s
/// precondition — the definition, which scans the whole post-state,
/// answers `false` there). This is what makes the check O(log |σ|).
#[test]
fn permissible_reads_only_the_footprint() {
    use hamband::types::bank::BankUpdate;
    use hamband::types::courseware::CoursewareUpdate;
    use hamband::types::project::ProjectUpdate;

    let bank = Bank::default();
    let mut s = bank.initial();
    s = bank.apply(&s, &BankUpdate::OpenAccounts(vec![1]));
    s = bank.apply(&s, &BankUpdate::Deposit(1, 10));
    s = bank.apply(&s, &BankUpdate::Deposit(99, 5)); // 99 was never opened
    assert!(!bank.invariant(&s));
    assert!(bank.permissible(&s, &BankUpdate::Withdraw(1, 10)));
    assert!(!bank.permissible(&s, &BankUpdate::Withdraw(1, 11)));
    assert!(!bank.permissible(&s, &BankUpdate::Deposit(2, 1)));

    let cw = Courseware::default();
    let mut s = cw.initial();
    s = cw.apply(&s, &CoursewareUpdate::AddCourse(1));
    s = cw.apply(&s, &CoursewareUpdate::RegisterStudents(vec![7]));
    s = cw.apply(&s, &CoursewareUpdate::Enroll(8, 9)); // dangling
    assert!(!cw.invariant(&s));
    assert!(cw.permissible(&s, &CoursewareUpdate::Enroll(7, 1)));
    assert!(!cw.permissible(&s, &CoursewareUpdate::Enroll(7, 2)));
    assert!(cw.permissible(&s, &CoursewareUpdate::AddCourse(2)));

    let pm = Project::default();
    let mut s = pm.initial();
    s = pm.apply(&s, &ProjectUpdate::AddProject(1));
    s = pm.apply(&s, &ProjectUpdate::AddEmployees(vec![7]));
    s = pm.apply(&s, &ProjectUpdate::WorksOn(8, 9)); // dangling
    assert!(!pm.invariant(&s));
    assert!(pm.permissible(&s, &ProjectUpdate::WorksOn(7, 1)));
    assert!(!pm.permissible(&s, &ProjectUpdate::WorksOn(8, 1)));
    assert!(pm.permissible(&s, &ProjectUpdate::DeleteProject(1)));
}
