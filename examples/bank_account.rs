//! The paper's running example in depth: why each method of the bank
//! account lands in its coordination category, shown by evaluating the
//! semantic relations of §3.2 directly.
//!
//! ```sh
//! cargo run --example bank_account
//! ```

use hamband::core::demo::Account;
use hamband::core::object::ObjectSpec;
use hamband::core::relations::BoundedRelations;
use hamband::runtime::WorkloadSpec;
use hamband::runtime::{RunConfig, Runner, System};

fn main() {
    let account = Account::new(50);
    let rel = BoundedRelations::new(&account, 0xacc0, 400);

    let deposit = Account::deposit(10);
    let withdraw = Account::withdraw(10);

    println!("== semantic relations (bounded over sampled states) ==");
    println!("  deposit invariant-sufficient:     {}", rel.invariant_sufficient(&deposit));
    println!("  withdraw invariant-sufficient:    {}", rel.invariant_sufficient(&withdraw));
    println!(
        "  withdraw ▷ withdraw (P-R-commute): {}",
        rel.p_r_commutes(&withdraw, &Account::withdraw(20))
    );
    println!(
        "  withdraw ⋈ withdraw (conflict):    {}",
        rel.conflict(&withdraw, &Account::withdraw(20))
    );
    println!("  deposit ⋈ withdraw (conflict):     {}", rel.conflict(&deposit, &withdraw));
    println!("  withdraw depends on deposit:       {}", rel.dependent(&withdraw, &deposit));
    println!(
        "  deposits summarize soundly:        {}",
        rel.summary_sound(&deposit, &Account::deposit(3))
    );

    // The consequences (Fig. 1(b,c)): deposit is reducible — one remote
    // write per peer, no buffers; withdraw is conflicting — ordered by
    // the synchronization group's leader; and withdraw's dependency on
    // deposit ships as a count vector with every propagated withdraw.
    let coord = account.coord_spec();
    println!("\n== derived categories ==");
    for (m, name) in account.method_names().iter().enumerate() {
        println!("  {name:<10} {}", coord.category(hamband::core::ids::MethodId(m)));
    }

    // Run the account on the cluster under all three systems.
    println!("\n== 4-node cluster, 4000 calls, 50% updates ==");
    let run = RunConfig::new(4, WorkloadSpec::ops(4_000).with_update_ratio(0.5));
    let hb = Runner::new(System::Hamband, run.clone()).run(&account, &coord).report;
    let mu = Runner::new(System::MuSmr, run).run(&account, &coord).report;
    println!("  {hb}");
    println!("  {mu}");
    assert!(hb.converged && mu.converged);
    println!(
        "  hybrid coordination gains {:.0}% throughput over full SMR",
        (hb.throughput_ops_per_us / mu.throughput_ops_per_us - 1.0) * 100.0
    );

    // The MSG baseline cannot even run this object: withdrawals need
    // synchronization, which message-passing CRDTs do not provide.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
    let msg_attempt = std::panic::catch_unwind(|| {
        let run = RunConfig::new(4, WorkloadSpec::ops(400).with_update_ratio(0.5));
        Runner::new(System::Msg, run).run(&account, &coord).report
    });
    std::panic::set_hook(default_hook);
    assert!(msg_attempt.is_err());
    println!("  (MSG baseline rejects the account: withdraw needs synchronization)");
}
