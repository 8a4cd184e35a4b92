//! The paper's running example: the replicated bank account of Fig. 1.
//!
//! State: the balance `b`, with the integrity invariant `I(b) = b ≥ 0`.
//! Update methods: `deposit(v)` and `withdraw(v)`; query: `balance()`.
//!
//! Coordination analysis (Fig. 1(b,c)):
//!
//! * `withdraw` 𝒫-conflicts with itself (two racing withdrawals can
//!   overdraft) — the conflict graph has a self-loop on `withdraw`;
//! * `withdraw` depends on `deposit` (a withdrawal covered by a local
//!   deposit may overdraft elsewhere if it overtakes that deposit);
//! * `deposit` is invariant-sufficient, conflict- and dependence-free,
//!   and summarizable (`deposit(a); deposit(b) ≡ deposit(a+b)`), hence
//!   **reducible**, while `withdraw` is **conflicting**.

use rand::rngs::StdRng;
use rand::Rng;

use crate::coord::CoordSpec;
use crate::ids::MethodId;
use crate::object::{ObjectSpec, WorkloadSupport};

/// An update call on the account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccountUpdate {
    /// `deposit(amount)`: add to the balance.
    Deposit(u64),
    /// `withdraw(amount)`: subtract from the balance.
    Withdraw(u64),
}

crate::calls! {
    AccountUpdate {
        DEPOSIT = "deposit" => Deposit(amount),
        WITHDRAW = "withdraw" => Withdraw(amount),
    }
}

/// A query call on the account.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccountQuery {
    /// `balance()`: the current balance.
    Balance,
}

/// The bank account class of Fig. 1.
///
/// ```
/// use hamband_core::demo::Account;
/// use hamband_core::object::ObjectSpec;
///
/// let acc = Account::new(3);
/// let s = acc.apply(&acc.initial(), &Account::deposit(10));
/// assert_eq!(s, 10);
/// assert!(acc.permissible(&s, &Account::withdraw(10)));
/// assert!(!acc.permissible(&s, &Account::withdraw(11)));
/// ```
#[derive(Debug, Clone)]
pub struct Account {
    max_sample_amount: u64,
}

impl Account {
    /// An account class whose sampler draws amounts in
    /// `1..=max_sample_amount`.
    pub fn new(max_sample_amount: u64) -> Self {
        assert!(max_sample_amount > 0, "sample amounts must be positive");
        Account { max_sample_amount }
    }

    /// Convenience constructor for a `deposit(amount)` call.
    pub fn deposit(amount: u64) -> AccountUpdate {
        AccountUpdate::Deposit(amount)
    }

    /// Convenience constructor for a `withdraw(amount)` call.
    pub fn withdraw(amount: u64) -> AccountUpdate {
        AccountUpdate::Withdraw(amount)
    }

    /// The coordination relations of Fig. 1(b,c).
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(2)
            .conflict(WITHDRAW.index(), WITHDRAW.index())
            .depends(WITHDRAW.index(), DEPOSIT.index())
            .summarization_group([DEPOSIT.index()])
            .build()
    }
}

impl Default for Account {
    fn default() -> Self {
        Account::new(100)
    }
}

impl ObjectSpec for Account {
    type State = i128;
    type Update = AccountUpdate;
    type Query = AccountQuery;
    type Reply = i128;

    fn name(&self) -> &str {
        "account"
    }

    fn initial(&self) -> i128 {
        0
    }

    fn invariant(&self, state: &i128) -> bool {
        *state >= 0
    }

    fn apply_mut(&self, state: &mut i128, call: &AccountUpdate) {
        match *call {
            AccountUpdate::Deposit(v) => *state += i128::from(v),
            AccountUpdate::Withdraw(v) => *state -= i128::from(v),
        }
    }

    fn query(&self, state: &i128, query: &AccountQuery) -> i128 {
        match query {
            AccountQuery::Balance => *state,
        }
    }

    fn summarize(&self, first: &AccountUpdate, second: &AccountUpdate) -> Option<AccountUpdate> {
        match (first, second) {
            (AccountUpdate::Deposit(a), AccountUpdate::Deposit(b)) => {
                Some(AccountUpdate::Deposit(a + b))
            }
            _ => None,
        }
    }
}

impl WorkloadSupport for Account {
    fn sample_state(&self, rng: &mut StdRng) -> i128 {
        i128::from(rng.gen_range(0..=self.max_sample_amount * 4))
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> AccountUpdate {
        let amount = rng.gen_range(1..=self.max_sample_amount);
        match method {
            DEPOSIT => AccountUpdate::Deposit(amount),
            WITHDRAW => AccountUpdate::Withdraw(amount),
            other => panic!("account has no method {other}"),
        }
    }

    fn sample_query(&self, _rng: &mut StdRng) -> AccountQuery {
        AccountQuery::Balance
    }

    fn gen_update(
        &self,
        state: &i128,
        _node: usize,
        _seq: u64,
        method: MethodId,
        rng: &mut StdRng,
    ) -> Option<AccountUpdate> {
        match method {
            DEPOSIT => Some(AccountUpdate::Deposit(rng.gen_range(1..=self.max_sample_amount))),
            WITHDRAW => {
                // Withdraw at most half the locally visible balance, so
                // calls are usually permissible and a withdraw-heavy
                // workload can never drain the account to a standstill.
                if *state < 2 {
                    return None;
                }
                let cap = (*state / 2).min(i128::from(self.max_sample_amount)) as u64;
                Some(AccountUpdate::Withdraw(rng.gen_range(1..=cap)))
            }
            other => panic!("account has no method {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deposit_then_withdraw_roundtrip() {
        let acc = Account::default();
        let s0 = acc.initial();
        assert!(acc.invariant(&s0));
        let s1 = acc.apply(&s0, &Account::deposit(7));
        let s2 = acc.apply(&s1, &Account::withdraw(7));
        assert_eq!(s2, 0);
        assert!(acc.invariant(&s2));
    }

    #[test]
    fn overdraft_violates_invariant() {
        let acc = Account::default();
        let s = acc.apply(&acc.initial(), &Account::withdraw(1));
        assert!(!acc.invariant(&s));
    }

    #[test]
    fn deposits_summarize_by_addition() {
        let acc = Account::default();
        assert_eq!(
            acc.summarize(&Account::deposit(3), &Account::deposit(4)),
            Some(Account::deposit(7))
        );
        assert_eq!(acc.summarize(&Account::deposit(3), &Account::withdraw(4)), None);
        assert_eq!(acc.summarize(&Account::withdraw(3), &Account::withdraw(4)), None);
    }

    #[test]
    fn summary_matches_composition() {
        // Summarize(c, c') must equal c' ∘ c on all states.
        let acc = Account::default();
        let c1 = Account::deposit(3);
        let c2 = Account::deposit(4);
        let c12 = acc.summarize(&c1, &c2).unwrap();
        for s in [0i128, 5, 100] {
            assert_eq!(acc.apply(&acc.apply(&s, &c1), &c2), acc.apply(&s, &c12));
        }
    }

    #[test]
    fn query_returns_balance() {
        let acc = Account::default();
        let s = acc.apply(&acc.initial(), &Account::deposit(42));
        assert_eq!(acc.query(&s, &AccountQuery::Balance), 42);
    }

    #[test]
    fn sampler_respects_bounds_and_invariant() {
        let acc = Account::new(10);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let s = acc.sample_state(&mut rng);
            assert!(acc.invariant(&s));
            match acc.sample_update_of(DEPOSIT, &mut rng) {
                AccountUpdate::Deposit(v) => assert!((1..=10).contains(&v)),
                other => panic!("unexpected call {other:?}"),
            }
        }
    }

    #[test]
    fn method_of_is_consistent_with_names() {
        let acc = Account::default();
        assert_eq!(acc.method_names()[acc.method_of(&Account::deposit(1)).index()], "deposit");
        assert_eq!(acc.method_names()[acc.method_of(&Account::withdraw(1)).index()], "withdraw");
    }
}
