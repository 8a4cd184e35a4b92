//! Executable versions of the coordination relations of §3.2.
//!
//! The paper defines the relations semantically, quantified over all
//! states:
//!
//! * **S-commutativity** — `c₁ ⇄ₛ c₂` iff `c₁ ∘ c₂ = c₂ ∘ c₁`;
//!   otherwise the calls *S-conflict*.
//! * **Permissibility** — `𝒫(σ, c)` iff `I(c(σ))`.
//! * **Invariant-sufficiency** — `c` is invariant-sufficient iff
//!   `I(σ) ⇒ 𝒫(σ, c)` for every `σ`.
//! * **𝒫-R-commutativity** — `c₁ ▷𝒫 c₂` iff
//!   `𝒫(σ, c₁) ⇒ 𝒫(c₂(σ), c₁)`.
//! * **𝒫-L-commutativity** — `c₂ ◁𝒫 c₁` iff
//!   `𝒫(c₁(σ), c₂) ⇒ 𝒫(σ, c₂)`.
//! * **𝒫-concurrence / conflict / dependency** — the derived notions.
//!
//! The universal quantification over `Σ` is undecidable in general, so
//! this module provides *per-state* checks (exact, used as building
//! blocks) and *bounded* checks that sample states through a
//! [`WorkloadSupport`]. Bounded checks are sound for *refuting* a relation
//! (a found counterexample is real) and best-effort for confirming it —
//! exactly the role they play in [`crate::analysis`].
//!
//! One refinement over a literal reading of the definitions: the
//! quantification is evaluated over *coordination-relevant*
//! configurations — states satisfying the invariant in which both
//! calls are individually permissible. Well-coordination only ever
//! reorders calls that were locally permissible where they executed
//! (rule CALL checks `𝒫(σ, c)` first), so counterexamples built from
//! impermissible calls or invariant-violating states can never arise
//! in an execution. This conditioning is also what makes the paper's
//! own §2 classification come out: the multi-account bank's `deposit`
//! is conflict-free even though a deposit after an *impermissible*
//! withdraw would inherit the latter's violation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::object::{ObjectSpec, WorkloadSupport};

/// Per-state S-commutativity: do `c1` and `c2` commute on `state`?
pub fn s_commute_on<O: ObjectSpec>(
    spec: &O,
    state: &O::State,
    c1: &O::Update,
    c2: &O::Update,
) -> bool {
    let a = spec.apply(&spec.apply(state, c1), c2);
    let b = spec.apply(&spec.apply(state, c2), c1);
    a == b
}

/// Per-state invariant-sufficiency: `I(state) ⇒ 𝒫(state, c)`.
pub fn invariant_sufficient_on<O: ObjectSpec>(spec: &O, state: &O::State, c: &O::Update) -> bool {
    !spec.invariant(state) || spec.permissible(state, c)
}

/// Per-state 𝒫-R-commutativity: over states with integrity where both
/// calls are permissible, `𝒫(σ, c1) ⇒ 𝒫(c2(σ), c1)` (see module docs
/// for the conditioning).
pub fn p_r_commutes_on<O: ObjectSpec>(
    spec: &O,
    state: &O::State,
    c1: &O::Update,
    c2: &O::Update,
) -> bool {
    let relevant =
        spec.invariant(state) && spec.permissible(state, c1) && spec.permissible(state, c2);
    !relevant || spec.permissible(&spec.apply(state, c2), c1)
}

/// Per-state 𝒫-L-commutativity: over states with integrity where `c1`
/// is permissible, `𝒫(c1(σ), c2) ⇒ 𝒫(σ, c2)` (see module docs for the
/// conditioning).
pub fn p_l_commutes_on<O: ObjectSpec>(
    spec: &O,
    state: &O::State,
    c2: &O::Update,
    c1: &O::Update,
) -> bool {
    let relevant = spec.invariant(state)
        && spec.permissible(state, c1)
        && spec.permissible(&spec.apply(state, c1), c2);
    !relevant || spec.permissible(state, c2)
}

/// A bounded checker for the quantified relations, sampling states and
/// calls through a [`WorkloadSupport`].
///
/// ```
/// use hamband_core::demo::Account;
/// use hamband_core::relations::BoundedRelations;
///
/// let acc = Account::new(20);
/// let rel = BoundedRelations::new(&acc, 0xa11ce, 200);
/// // Deposits are invariant-sufficient; withdrawals are not.
/// assert!(rel.invariant_sufficient(&Account::deposit(5)));
/// assert!(!rel.invariant_sufficient(&Account::withdraw(5)));
/// // Two withdrawals 𝒫-conflict; they do not S-conflict.
/// assert!(rel.conflict(&Account::withdraw(5), &Account::withdraw(5)));
/// assert!(!rel.s_conflict(&Account::withdraw(5), &Account::withdraw(5)));
/// // A withdraw is dependent on a deposit.
/// assert!(rel.dependent(&Account::withdraw(5), &Account::deposit(5)));
/// ```
#[derive(Debug)]
pub struct BoundedRelations<'a, O> {
    spec: &'a O,
    seed: u64,
    samples: usize,
}

impl<'a, O: WorkloadSupport> BoundedRelations<'a, O> {
    /// A checker drawing `samples` states per query from a deterministic
    /// stream seeded with `seed`.
    pub fn new(spec: &'a O, seed: u64, samples: usize) -> Self {
        assert!(samples > 0, "need at least one sample");
        BoundedRelations { spec, seed, samples }
    }

    fn states(&self) -> impl Iterator<Item = O::State> + '_ {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.samples).map(move |_| self.spec.sample_state(&mut rng))
    }

    /// Bounded `c1 ⇄ₛ c2`: no sampled state distinguishes the two
    /// application orders.
    pub fn s_commute(&self, c1: &O::Update, c2: &O::Update) -> bool {
        self.states().all(|s| s_commute_on(self.spec, &s, c1, c2))
    }

    /// Bounded S-conflict: a sampled state witnesses non-commutation.
    pub fn s_conflict(&self, c1: &O::Update, c2: &O::Update) -> bool {
        !self.s_commute(c1, c2)
    }

    /// Bounded invariant-sufficiency of a call.
    pub fn invariant_sufficient(&self, c: &O::Update) -> bool {
        self.states().all(|s| invariant_sufficient_on(self.spec, &s, c))
    }

    /// Bounded `c1 ▷𝒫 c2`.
    pub fn p_r_commutes(&self, c1: &O::Update, c2: &O::Update) -> bool {
        self.states().all(|s| p_r_commutes_on(self.spec, &s, c1, c2))
    }

    /// Bounded `c2 ◁𝒫 c1`.
    pub fn p_l_commutes(&self, c2: &O::Update, c1: &O::Update) -> bool {
        self.states().all(|s| p_l_commutes_on(self.spec, &s, c2, c1))
    }

    /// `c1` 𝒫-concurs with `c2`: invariant-sufficient or `c1 ▷𝒫 c2`.
    pub fn p_concurs(&self, c1: &O::Update, c2: &O::Update) -> bool {
        self.invariant_sufficient(c1) || self.p_r_commutes(c1, c2)
    }

    /// `c1` and `c2` *concur*: they S-commute and mutually 𝒫-concur.
    /// Otherwise they **conflict** and need synchronization.
    pub fn conflict(&self, c1: &O::Update, c2: &O::Update) -> bool {
        !(self.s_commute(c1, c2) && self.p_concurs(c1, c2) && self.p_concurs(c2, c1))
    }

    /// `c2 ⊥ c1` (independence): invariant-sufficient or `c2 ◁𝒫 c1`.
    pub fn independent(&self, c2: &O::Update, c1: &O::Update) -> bool {
        self.invariant_sufficient(c2) || self.p_l_commutes(c2, c1)
    }

    /// `c2 ⊥̸ c1`: `c2` is **dependent** on `c1`.
    pub fn dependent(&self, c2: &O::Update, c1: &O::Update) -> bool {
        !self.independent(c2, c1)
    }

    /// Bounded summarization soundness: `Summarize(c, c')` (if defined)
    /// agrees with `c' ∘ c` on every sampled state.
    pub fn summary_sound(&self, c1: &O::Update, c2: &O::Update) -> bool {
        match self.spec.summarize(c1, c2) {
            None => true,
            Some(sum) => self.states().all(|s| {
                self.spec.apply(&self.spec.apply(&s, c1), c2) == self.spec.apply(&s, &sum)
            }),
        }
    }

    /// The object specification under check.
    pub fn spec(&self) -> &'a O {
        self.spec
    }

    /// Number of sampled states per query.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::Account;

    fn rel(acc: &Account) -> BoundedRelations<'_, Account> {
        BoundedRelations::new(acc, 42, 300)
    }

    #[test]
    fn deposits_commute_and_are_sufficient() {
        let acc = Account::new(50);
        let r = rel(&acc);
        let d1 = Account::deposit(3);
        let d2 = Account::deposit(9);
        assert!(r.s_commute(&d1, &d2));
        assert!(r.invariant_sufficient(&d1));
        assert!(!r.conflict(&d1, &d2));
        assert!(r.independent(&d1, &d2));
    }

    #[test]
    fn withdrawals_p_conflict() {
        let acc = Account::new(50);
        let r = rel(&acc);
        let w1 = Account::withdraw(30);
        let w2 = Account::withdraw(40);
        // Withdrawals S-commute (subtraction commutes)...
        assert!(r.s_commute(&w1, &w2));
        // ...but are neither invariant-sufficient nor 𝒫-R-commutative.
        assert!(!r.invariant_sufficient(&w1));
        assert!(!r.p_r_commutes(&w1, &w2));
        assert!(r.conflict(&w1, &w2));
    }

    #[test]
    fn withdraw_depends_on_deposit_not_vice_versa() {
        let acc = Account::new(50);
        let r = rel(&acc);
        let w = Account::withdraw(30);
        let d = Account::deposit(30);
        assert!(r.dependent(&w, &d));
        assert!(r.independent(&d, &w));
    }

    #[test]
    fn deposit_does_not_conflict_with_withdraw() {
        // deposit is invariant-sufficient and S-commutes with withdraw;
        // withdraw 𝒫-R-commutes with deposit (extra funds never hurt).
        let acc = Account::new(50);
        let r = rel(&acc);
        let w = Account::withdraw(30);
        let d = Account::deposit(5);
        assert!(r.p_r_commutes(&w, &d));
        assert!(!r.conflict(&d, &w));
    }

    #[test]
    fn deposit_summaries_are_sound() {
        let acc = Account::new(50);
        let r = rel(&acc);
        assert!(r.summary_sound(&Account::deposit(3), &Account::deposit(4)));
        assert!(r.summary_sound(&Account::deposit(3), &Account::withdraw(4)));
    }

    #[test]
    fn per_state_checks_agree_with_definitions() {
        let acc = Account::new(50);
        let s = 10i128;
        assert!(s_commute_on(&acc, &s, &Account::deposit(1), &Account::withdraw(1)));
        assert!(invariant_sufficient_on(&acc, &s, &Account::deposit(1)));
        assert!(!invariant_sufficient_on(&acc, &s, &Account::withdraw(11)));
        // Broke state: implication holds vacuously.
        assert!(invariant_sufficient_on(&acc, &(-5i128), &Account::withdraw(11)));
        assert!(p_r_commutes_on(&acc, &s, &Account::withdraw(5), &Account::deposit(1)));
        assert!(!p_r_commutes_on(&acc, &s, &Account::withdraw(10), &Account::withdraw(1)));
        assert!(p_l_commutes_on(&acc, &s, &Account::deposit(1), &Account::deposit(2)));
        assert!(!p_l_commutes_on(&acc, &(0i128), &Account::withdraw(3), &Account::deposit(5)));
    }

    #[test]
    #[should_panic(expected = "need at least one sample")]
    fn zero_samples_panics() {
        let acc = Account::new(50);
        let _ = BoundedRelations::new(&acc, 0, 0);
    }
}
