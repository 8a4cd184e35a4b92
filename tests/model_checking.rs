//! Small-scope model checking across data types: the paper's lemmas
//! verified over *all* interleavings of small scripted executions, for
//! every shipped type family, under both explorers.

use hamband::core::explore::{explore_abstract, explore_rdma, ExploreConfig};
use hamband::types::bank::BankUpdate;
use hamband::types::cart::CartUpdate;
use hamband::types::counter::CounterUpdate;
use hamband::types::courseware::CoursewareUpdate;
use hamband::types::gset::GSetUpdate;
use hamband::types::movie::MovieUpdate;
use hamband::types::orset::OrSetUpdate;
use hamband::types::project::ProjectUpdate;
use hamband::types::{Bank, Cart, Counter, Courseware, GSet, Movie, OrSet, Project};

fn cfg() -> ExploreConfig {
    ExploreConfig { max_states: 300_000 }
}

#[test]
fn counter_exhaustive() {
    let c = Counter::default();
    let coord = c.coord_spec();
    let scripts = vec![
        vec![CounterUpdate::Add(3), CounterUpdate::Add(-1)],
        vec![CounterUpdate::Add(7)],
        vec![CounterUpdate::Add(-5)],
    ];
    let abs = explore_abstract(&c, &coord, &scripts, &cfg()).expect("abstract lemmas");
    assert!(abs.exhaustive);
    let conc = explore_rdma(&c, &coord, &scripts, &cfg()).expect("concrete corollaries");
    assert!(conc.exhaustive);
}

#[test]
fn orset_causal_dependency_exhaustive() {
    let o = OrSet::default();
    let coord = o.coord_spec();
    // p0 adds then removes its own tag; p1 adds concurrently.
    let scripts = vec![
        vec![
            OrSetUpdate::Add { element: 1, tag: (0, 0) },
            OrSetUpdate::Remove { element: 1, tags: vec![(0, 0)] },
        ],
        vec![OrSetUpdate::Add { element: 1, tag: (1, 0) }],
    ];
    let abs = explore_abstract(&o, &coord, &scripts, &cfg()).expect("abstract lemmas");
    assert!(abs.exhaustive);
    let conc = explore_rdma(&o, &coord, &scripts, &cfg()).expect("concrete corollaries");
    assert!(conc.exhaustive, "{conc:?}");
}

#[test]
fn cart_exhaustive() {
    let cart = Cart::default();
    let coord = cart.coord_spec();
    let scripts = vec![
        vec![CartUpdate::Add { item: 1, qty: 2 }, CartUpdate::Remove { item: 1, qty: 1 }],
        vec![CartUpdate::Add { item: 1, qty: 3 }],
    ];
    let abs = explore_abstract(&cart, &coord, &scripts, &cfg()).expect("abstract lemmas");
    assert!(abs.exhaustive, "{abs:?}");
    let conc = explore_rdma(&cart, &coord, &scripts, &cfg()).expect("concrete corollaries");
    assert!(conc.exhaustive);
}

#[test]
fn gset_reduced_and_buffered_exhaustive() {
    let g = GSet::default();
    let scripts = vec![
        vec![GSetUpdate::AddAll(vec![1]), GSetUpdate::AddAll(vec![2, 3])],
        vec![GSetUpdate::AddAll(vec![3, 4])],
    ];
    // The same set through summary slots and through the `F` rings.
    for coord in [g.coord_spec(), g.coord_spec_buffered()] {
        let abs = explore_abstract(&g, &coord, &scripts, &cfg()).expect("abstract lemmas");
        assert!(abs.exhaustive, "{abs:?}");
        let conc = explore_rdma(&g, &coord, &scripts, &cfg()).expect("concrete corollaries");
        assert!(conc.exhaustive, "{conc:?}");
    }
}

#[test]
fn project_exhaustive() {
    let p = Project::default();
    let coord = p.coord_spec();
    let scripts = vec![
        vec![ProjectUpdate::AddProject(1), ProjectUpdate::WorksOn(7, 1)],
        vec![ProjectUpdate::AddEmployees(vec![7])],
    ];
    let abs = explore_abstract(&p, &coord, &scripts, &cfg()).expect("abstract lemmas");
    assert!(abs.exhaustive, "{abs:?}");
    let conc = explore_rdma(&p, &coord, &scripts, &cfg()).expect("concrete corollaries");
    assert!(conc.exhaustive, "{conc:?}");
}

#[test]
fn movie_two_groups_exhaustive() {
    let m = Movie::default();
    let coord = m.coord_spec();
    // Conflicting calls on both relations, plus racing deletes.
    let scripts = vec![
        vec![MovieUpdate::AddCustomer(1), MovieUpdate::AddMovie(9)],
        vec![MovieUpdate::DeleteCustomer(1)],
        vec![MovieUpdate::DeleteMovie(9)],
    ];
    let abs = explore_abstract(&m, &coord, &scripts, &cfg()).expect("abstract lemmas");
    assert!(abs.exhaustive, "{abs:?}");
    let conc = explore_rdma(&m, &coord, &scripts, &cfg()).expect("concrete corollaries");
    assert!(conc.exhaustive, "{conc:?}");
}

#[test]
fn courseware_all_categories_exhaustive() {
    let cw = Courseware::default();
    let coord = cw.coord_spec();
    let scripts = vec![
        vec![CoursewareUpdate::AddCourse(1), CoursewareUpdate::Enroll(7, 1)],
        vec![CoursewareUpdate::RegisterStudents(vec![7])],
    ];
    let abs = explore_abstract(&cw, &coord, &scripts, &cfg()).expect("abstract lemmas");
    assert!(abs.exhaustive, "{abs:?}");
    let conc = explore_rdma(&cw, &coord, &scripts, &cfg()).expect("concrete corollaries");
    assert!(conc.exhaustive, "{conc:?}");
}

#[test]
fn bank_dependent_free_method_exhaustive() {
    let bank = Bank::default();
    let coord = bank.coord_spec();
    // The §2 scenario: open at p0, deposit at p0 (depends on the open),
    // concurrent withdraw redirected to the leader.
    let scripts = vec![
        vec![
            BankUpdate::OpenAccounts(vec![4]),
            BankUpdate::Deposit(4, 10),
            BankUpdate::Withdraw(4, 6),
        ],
        vec![BankUpdate::Deposit(4, 3)],
    ];
    let conc = explore_rdma(&bank, &coord, &scripts, &cfg()).expect("concrete corollaries");
    assert!(conc.exhaustive, "{conc:?}");
    let abs = explore_abstract(&bank, &coord, &scripts, &cfg()).expect("abstract lemmas");
    assert!(abs.exhaustive, "{abs:?}");
}
