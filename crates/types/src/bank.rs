//! The multi-account bank of §2 ("Method categories"):
//!
//! "consider a bank that is represented as a map that associates
//! accounts to their balances, and in addition to deposit and withdraw,
//! exposes the open method to open accounts. The deposit method is
//! conflict-free but is dependent on the open method."
//!
//! Categories:
//! * `open` — **reducible**: opening accounts is a set union
//!   (invariant-sufficient, summarizable, dependence-free);
//! * `deposit` — **irreducible conflict-free**: it never conflicts, is
//!   summarizable in principle per-account but *dependent on `open`*
//!   (depositing to an account that has not been opened everywhere
//!   would violate integrity), which by §3.3 excludes reduction;
//! * `withdraw` — **conflicting** (overdraft race with itself) and
//!   dependent on both `open` and `deposit`.
//!
//! Invariant: every account in the map is open, and no balance is
//! negative.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{KeySkew, ObjectSpec, WorkloadSupport};

use crate::sets::{insert_missing, sorted_union};

/// The bank state: the set of open accounts and their balances.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BankState {
    /// Accounts that have been opened.
    pub open: BTreeSet<u64>,
    /// Balance per account (entries only for nonzero balances).
    pub balances: BTreeMap<u64, i128>,
}

/// An update call on the bank.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BankUpdate {
    /// `open(accounts)`: open a batch of accounts (summarizable).
    OpenAccounts(Vec<u64>),
    /// `deposit(account, amount)`.
    Deposit(u64, u64),
    /// `withdraw(account, amount)`.
    Withdraw(u64, u64),
}

hamband_core::calls! {
    BankUpdate {
        OPEN = "open_accounts" => OpenAccounts(accounts),
        DEPOSIT = "deposit" => Deposit(account, amount),
        WITHDRAW = "withdraw" => Withdraw(account, amount),
    }
}

/// A query call on the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankQuery {
    /// Balance of one account.
    Balance(u64),
    /// Number of open accounts.
    OpenAccounts,
}

/// The multi-account bank.
///
/// ```
/// use hamband_core::ObjectSpec;
/// use hamband_types::bank::{Bank, BankUpdate, BankQuery};
///
/// let bank = Bank::default();
/// let mut s = bank.initial();
/// s = bank.apply(&s, &BankUpdate::OpenAccounts(vec![7]));
/// s = bank.apply(&s, &BankUpdate::Deposit(7, 100));
/// assert!(bank.invariant(&s));
/// assert_eq!(bank.query(&s, &BankQuery::Balance(7)), 100);
/// // Depositing to an unopened account violates integrity.
/// let bad = bank.apply(&s, &BankUpdate::Deposit(9, 1));
/// assert!(!bank.invariant(&bad));
/// ```
#[derive(Debug, Clone)]
pub struct Bank {
    account_space: u64,
    max_amount: u64,
}

impl Bank {
    /// A bank whose sampler draws accounts from `0..account_space` and
    /// amounts from `1..=max_amount`.
    pub fn new(account_space: u64, max_amount: u64) -> Self {
        assert!(account_space > 0 && max_amount > 0);
        Bank { account_space, max_amount }
    }

    /// The coordination relations described in §2.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(3)
            .conflict(WITHDRAW.index(), WITHDRAW.index())
            .depends(DEPOSIT.index(), OPEN.index())
            .depends(WITHDRAW.index(), OPEN.index())
            .depends(WITHDRAW.index(), DEPOSIT.index())
            .summarization_group([OPEN.index()])
            .build()
    }
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new(24, 50)
    }
}

impl ObjectSpec for Bank {
    type State = BankState;
    type Update = BankUpdate;
    type Query = BankQuery;
    type Reply = i128;

    fn name(&self) -> &str {
        "bank"
    }

    fn initial(&self) -> BankState {
        BankState::default()
    }

    fn invariant(&self, s: &BankState) -> bool {
        s.balances
            .iter()
            .all(|(acct, &bal)| bal >= 0 && s.open.contains(acct))
    }

    fn apply_mut(&self, s: &mut BankState, call: &BankUpdate) {
        match call {
            BankUpdate::OpenAccounts(accts) => insert_missing(&mut s.open, accts),
            BankUpdate::Deposit(acct, amount) => {
                *s.balances.entry(*acct).or_insert(0) += i128::from(*amount);
            }
            BankUpdate::Withdraw(acct, amount) => {
                *s.balances.entry(*acct).or_insert(0) -= i128::from(*amount);
            }
        }
    }

    fn query(&self, s: &BankState, q: &BankQuery) -> i128 {
        match q {
            BankQuery::Balance(acct) => s.balances.get(acct).copied().unwrap_or(0),
            BankQuery::OpenAccounts => s.open.len() as i128,
        }
    }

    fn summarize(&self, a: &BankUpdate, b: &BankUpdate) -> Option<BankUpdate> {
        match (a, b) {
            (BankUpdate::OpenAccounts(x), BankUpdate::OpenAccounts(y)) => {
                Some(BankUpdate::OpenAccounts(sorted_union(x, y)))
            }
            _ => None,
        }
    }

    fn summaries_monotone(&self) -> bool {
        true
    }

    /// Given `I(s)`, only the touched account can break the invariant:
    /// it must be open, and a withdrawal must leave its balance ≥ 0.
    fn permissible(&self, s: &BankState, call: &BankUpdate) -> bool {
        match call {
            BankUpdate::OpenAccounts(_) => true,
            BankUpdate::Deposit(acct, _) => s.open.contains(acct),
            BankUpdate::Withdraw(acct, amount) => {
                s.open.contains(acct)
                    && s.balances.get(acct).copied().unwrap_or(0) >= i128::from(*amount)
            }
        }
    }

    /// Deposits and withdrawals operate on one account: two withdrawals
    /// on *different* accounts commute (separate balances), so the
    /// account number is the shard key. `open_accounts` opens a batch
    /// and stays keyless.
    fn shard_key(&self, call: &BankUpdate) -> Option<u64> {
        match call {
            BankUpdate::Deposit(acct, _) | BankUpdate::Withdraw(acct, _) => Some(*acct),
            BankUpdate::OpenAccounts(_) => None,
        }
    }
}

impl WorkloadSupport for Bank {
    fn sample_state(&self, rng: &mut StdRng) -> BankState {
        let mut s = BankState::default();
        for _ in 0..rng.gen_range(0..8) {
            s.open.insert(rng.gen_range(0..self.account_space));
        }
        let open: Vec<u64> = s.open.iter().copied().collect();
        for &acct in &open {
            if rng.gen_bool(0.7) {
                s.balances
                    .insert(acct, i128::from(rng.gen_range(0..self.max_amount * 3)));
            }
        }
        s
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> BankUpdate {
        let acct = rng.gen_range(0..self.account_space);
        let amount = rng.gen_range(1..=self.max_amount);
        match method {
            OPEN => BankUpdate::OpenAccounts(vec![acct]),
            DEPOSIT => BankUpdate::Deposit(acct, amount),
            WITHDRAW => BankUpdate::Withdraw(acct, amount),
            other => panic!("bank has no method {other}"),
        }
    }

    fn sample_query(&self, rng: &mut StdRng) -> BankQuery {
        if rng.gen_bool(0.7) {
            BankQuery::Balance(rng.gen_range(0..self.account_space))
        } else {
            BankQuery::OpenAccounts
        }
    }

    fn gen_update(
        &self,
        state: &BankState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
        skew: KeySkew,
    ) -> Option<BankUpdate> {
        match method {
            OPEN => Some(BankUpdate::OpenAccounts(vec![
                (node as u64 * 1_000_000 + seq) % self.account_space
                    + node as u64 * self.account_space,
            ])),
            DEPOSIT => {
                if state.open.is_empty() {
                    return None;
                }
                let idx = skew.sample_index(rng, state.open.len());
                let acct = *state.open.iter().nth(idx).expect("index in range");
                Some(BankUpdate::Deposit(acct, rng.gen_range(1..=self.max_amount)))
            }
            WITHDRAW => {
                // Withdraw at most half the visible balance, as in the
                // single-account demo, so workloads never wedge.
                let funded = || state.balances.iter().filter(|&(_, &b)| b >= 2);
                let count = funded().count();
                if count == 0 {
                    return None;
                }
                let (&acct, &bal) =
                    funded().nth(skew.sample_index(rng, count)).expect("index in range");
                let cap = (bal / 2).min(i128::from(self.max_amount)) as u64;
                Some(BankUpdate::Withdraw(acct, rng.gen_range(1..=cap.max(1))))
            }
            other => panic!("bank has no method {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::coord::MethodCategory;
    use hamband_core::relations::BoundedRelations;

    #[test]
    fn categories_match_section_2() {
        let bank = Bank::default();
        let c = bank.coord_spec();
        assert!(matches!(c.category(OPEN), MethodCategory::Reducible { .. }));
        // deposit is conflict-free but dependent on open, hence
        // irreducible conflict-free — the §2 example verbatim.
        assert_eq!(c.category(DEPOSIT), MethodCategory::IrreducibleFree);
        assert!(c.category(WITHDRAW).is_conflicting());
        assert_eq!(c.dependencies(DEPOSIT), &[OPEN]);
        assert_eq!(c.dependencies(WITHDRAW), &[OPEN, DEPOSIT]);
    }

    #[test]
    fn deposit_depends_on_open_semantically() {
        let bank = Bank::default();
        let rel = BoundedRelations::new(&bank, 0xba2c, 300);
        let dep = BankUpdate::Deposit(3, 10);
        let open = BankUpdate::OpenAccounts(vec![3]);
        assert!(rel.dependent(&dep, &open));
        assert!(!rel.conflict(&dep, &open));
        // Deposits to different accounts do not even depend on
        // unrelated opens (at the call level).
        let other_open = BankUpdate::OpenAccounts(vec![9]);
        assert!(rel.independent(&dep, &other_open));
    }

    #[test]
    fn withdraws_conflict_only_with_withdraws() {
        let bank = Bank::default();
        let rel = BoundedRelations::new(&bank, 0xba2d, 300);
        let w1 = BankUpdate::Withdraw(3, 10);
        let w2 = BankUpdate::Withdraw(3, 20);
        assert!(rel.conflict(&w1, &w2));
        assert!(!rel.conflict(&BankUpdate::Deposit(3, 10), &w1));
    }

    #[test]
    fn cross_account_withdraws_commute() {
        // The property the shard-key declaration asserts: withdrawals
        // on distinct accounts never conflict, so key-sharded sync
        // groups may serialize them in different shards.
        let bank = Bank::default();
        let rel = BoundedRelations::new(&bank, 0xba2e, 300);
        let w1 = BankUpdate::Withdraw(3, 10);
        let w2 = BankUpdate::Withdraw(4, 20);
        assert_ne!(bank.shard_key(&w1), bank.shard_key(&w2));
        assert!(!rel.conflict(&w1, &w2));
        assert_eq!(bank.shard_key(&BankUpdate::OpenAccounts(vec![1, 2])), None);
    }

    #[test]
    fn opens_summarize_by_union() {
        let bank = Bank::default();
        assert_eq!(
            bank.summarize(
                &BankUpdate::OpenAccounts(vec![2, 1]),
                &BankUpdate::OpenAccounts(vec![3, 1])
            ),
            Some(BankUpdate::OpenAccounts(vec![1, 2, 3]))
        );
        assert_eq!(
            bank.summarize(&BankUpdate::Deposit(1, 1), &BankUpdate::Deposit(1, 2)),
            None,
            "deposit is dependent, hence deliberately not summarizable"
        );
    }

    #[test]
    fn invariant_guards_unopened_accounts_and_overdrafts() {
        let bank = Bank::default();
        let mut s = bank.initial();
        assert!(bank.invariant(&s));
        s = bank.apply(&s, &BankUpdate::Deposit(5, 10));
        assert!(!bank.invariant(&s), "deposit to unopened account");
        let mut s2 = bank.apply(&bank.initial(), &BankUpdate::OpenAccounts(vec![5]));
        s2 = bank.apply(&s2, &BankUpdate::Withdraw(5, 1));
        assert!(!bank.invariant(&s2), "overdraft");
    }

    #[test]
    fn workload_respects_visibility() {
        use rand::SeedableRng;
        let bank = Bank::default();
        let mut rng = StdRng::seed_from_u64(0);
        let uni = KeySkew::Uniform;
        assert_eq!(bank.gen_update(&bank.initial(), 0, 0, DEPOSIT, &mut rng, uni), None);
        assert_eq!(bank.gen_update(&bank.initial(), 0, 0, WITHDRAW, &mut rng, uni), None);
        let mut s = bank.apply(&bank.initial(), &BankUpdate::OpenAccounts(vec![4]));
        let dep = bank.gen_update(&s, 0, 0, DEPOSIT, &mut rng, uni).expect("account open");
        assert!(bank.permissible(&s, &dep));
        s = bank.apply(&s, &dep);
        // Top up so a withdraw is visible whatever amount the sampled
        // deposit had (gen_update only withdraws from balances >= 2).
        s = bank.apply(&s, &BankUpdate::Deposit(4, 2));
        let wd = bank.gen_update(&s, 0, 1, WITHDRAW, &mut rng, uni).expect("funds available");
        assert!(bank.permissible(&s, &wd));
    }

    /// `gen_update` as it was while it copied the open set and the funded
    /// balances into vectors to index them.
    fn collecting_gen_update(
        bank: &Bank,
        state: &BankState,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
        skew: KeySkew,
    ) -> Option<BankUpdate> {
        match method {
            DEPOSIT => {
                let open: Vec<u64> = state.open.iter().copied().collect();
                if open.is_empty() {
                    return None;
                }
                Some(BankUpdate::Deposit(
                    open[skew.sample_index(rng, open.len())],
                    rng.gen_range(1..=bank.max_amount),
                ))
            }
            WITHDRAW => {
                let funded: Vec<(u64, i128)> = state
                    .balances
                    .iter()
                    .filter(|&(_, &b)| b >= 2)
                    .map(|(&a, &b)| (a, b))
                    .collect();
                if funded.is_empty() {
                    return None;
                }
                let (acct, bal) = funded[skew.sample_index(rng, funded.len())];
                let cap = (bal / 2).min(i128::from(bank.max_amount)) as u64;
                Some(BankUpdate::Withdraw(acct, rng.gen_range(1..=cap.max(1))))
            }
            _ => bank.gen_update(state, node, seq, method, rng, skew),
        }
    }

    #[test]
    fn iterator_sampling_draws_what_collecting_drew() {
        let bank = Bank::default();
        crate::gen_parity::assert_same_draws(&bank, |state, node, seq, method, rng, skew| {
            collecting_gen_update(&bank, state, node, seq, method, rng, skew)
        });
    }
}
