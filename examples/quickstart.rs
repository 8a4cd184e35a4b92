//! Quickstart: the bank account of the paper's Fig. 1, from semantics
//! to a running simulated RDMA cluster.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hamband::core::abstract_sem::AbstractWrdt;
use hamband::core::analysis::{validate, AnalysisConfig};
use hamband::core::demo::{Account, AccountQuery};
use hamband::core::object::ObjectSpec;
use hamband::core::rdma_sem::RdmaWrdt;
use hamband::core::refinement::replay;
use hamband::runtime::WorkloadSpec;
use hamband::runtime::{RunConfig, Runner, System};

fn main() {
    // 1. An object class: state, invariant, and executable methods.
    //    The account keeps a non-negative balance; `deposit` and
    //    `withdraw` are its update methods (Fig. 1).
    let account = Account::new(50);
    let coord = account.coord_spec();
    println!("== {} ==", account.name());
    for (m, name) in account.method_names().iter().enumerate() {
        println!("  method {name:<10} -> {}", coord.category(hamband::core::ids::MethodId(m)));
    }

    // 2. The declared coordination relations hold against the
    //    executable definition (bounded checking).
    let report = validate(&account, &coord, &AnalysisConfig::default());
    println!("  analysis: {report}");
    assert!(report.is_valid());

    // 3. The abstract WRDT semantics (Fig. 5): calls execute only when
    //    well-coordination allows.
    let mut wrdt = AbstractWrdt::new(&account, &coord, 3);
    let d = wrdt.call(0, Account::deposit(10)).expect("deposit accepted");
    wrdt.propagate(1, 0, d).expect("deposit propagates");
    wrdt.call(1, Account::withdraw(4)).expect("covered withdraw accepted");
    assert!(wrdt.call(2, Account::withdraw(1)).is_err(), "uncovered withdraw rejected");
    wrdt.propagate_all();
    assert!(wrdt.check_integrity() && wrdt.check_convergence());
    println!("  abstract semantics: integrity and convergence hold");

    // 4. The concrete RDMA semantics (Fig. 7) — and Lemma 3: its trace
    //    replays in the abstract semantics.
    let mut k = RdmaWrdt::new(&account, &coord, 3);
    k.reduce(1, Account::deposit(25)).unwrap(); // one remote write per peer
    k.conf(0, Account::withdraw(5)).unwrap(); //   ordered by the leader
    k.drain();
    assert_eq!(k.query(2, &AccountQuery::Balance), 20);
    replay(&account, &coord, 3, k.trace()).expect("refinement (Lemma 3) holds");
    println!("  concrete semantics: trace refines the abstract semantics");

    // 5. The full runtime on a simulated 4-node RDMA cluster: summary
    //    slots, ring buffers, reliable broadcast, Mu-style consensus.
    let run = RunConfig::new(4, WorkloadSpec::ops(2_000).with_update_ratio(0.5));
    let report = Runner::new(System::Hamband, run).run(&account, &coord).report;
    println!("  cluster:  {report}");
    assert!(report.converged);
}
