//! The object data type model of Fig. 3: ⟨Σ, I, ū:=d̄, q̄:=d̄⟩.
//!
//! A *class* defines a state type `Σ`, an integrity invariant `I` over
//! states, executable update methods `u` (state → state) and query
//! methods `q` (state → value). [`ObjectSpec`] captures exactly this
//! tuple; every replicated data type shipped with Hamband implements it.

use rand::rngs::StdRng;
use rand::Rng as _;

use crate::ids::MethodId;
use crate::wire::Wire;

/// The update methods of a class, in dense [`MethodId`] order (§4
/// indexes them by identifier): the list an update enum declares once
/// through [`calls!`](crate::calls), which writes this impl.
pub trait Methods {
    /// The update method names; `NAMES[m.index()]` names method `m`.
    const NAMES: &'static [&'static str];

    /// The method this call belongs to.
    fn method(&self) -> MethodId;
}

/// A class of replicated objects: ⟨Σ, I, ū:=d̄, q̄:=d̄⟩ (Fig. 3).
///
/// * `State` is the state type `Σ`.
/// * `Update` is the type of update calls `u(v)` — typically an enum
///   with one variant per update method, carrying the argument `v`.
///   Every call "is serialized into a byte stream" (§4), so the type
///   is [`Wire`], and it knows its method list, so it is [`Methods`];
///   [`calls!`](crate::calls) declares that list once and writes the
///   constants and both impls.
/// * `Query`/`Reply` are query calls `q(v)` and their return values.
///
/// The executable definitions:
///
/// * [`initial`](ObjectSpec::initial) — the initial state `σ₀`, which
///   must satisfy the invariant.
/// * [`invariant`](ObjectSpec::invariant) — the integrity predicate `I`.
/// * [`apply_mut`](ObjectSpec::apply_mut) — the update definition
///   `d = λx, σ. e` (total: callers gate on permissibility separately),
///   written once, in place; [`apply`](ObjectSpec::apply) is its pure
///   form, provided.
/// * [`query`](ObjectSpec::query) — the query definition.
/// * [`summarize`](ObjectSpec::summarize) — the partial summarization
///   function of §3.3: `Summarize(c, c') = c''` with
///   `c' ∘ c = c''` when both calls belong to a summarization group.
///
/// # Example
///
/// The paper's bank account (Fig. 1) is shipped as
/// [`crate::demo::Account`]; see its source for a complete
/// implementation of this trait.
pub trait ObjectSpec {
    /// The object state `Σ`.
    type State: Clone + PartialEq + std::fmt::Debug;
    /// An update call `u(v)`: the method together with its argument.
    type Update: Clone + PartialEq + std::fmt::Debug + Wire + Methods;
    /// A query call `q(v)`.
    type Query: Clone + std::fmt::Debug;
    /// A query return value.
    type Reply: Clone + PartialEq + std::fmt::Debug;

    /// Human-readable class name (for reports and error messages).
    fn name(&self) -> &str;

    /// The initial state `σ₀`. Must satisfy [`invariant`](Self::invariant).
    fn initial(&self) -> Self::State;

    /// The integrity predicate `I` of the class.
    fn invariant(&self, state: &Self::State) -> bool;

    /// Execute the update call in place. The runtime uses this on its
    /// hot path.
    ///
    /// It must be a *total function of its arguments*: callers are
    /// responsible for checking permissibility
    /// (`I(apply(state, call))`) before committing the result.
    fn apply_mut(&self, state: &mut Self::State, call: &Self::Update);

    /// Execute the update call on a copy, producing the post-state: the
    /// pure form of [`apply_mut`](Self::apply_mut), used by the
    /// semantics and checkers.
    fn apply(&self, state: &Self::State, call: &Self::Update) -> Self::State {
        let mut post = state.clone();
        self.apply_mut(&mut post, call);
        post
    }

    /// Execute a query call against a state.
    fn query(&self, state: &Self::State, query: &Self::Query) -> Self::Reply;

    /// The update method names, in dense [`MethodId`] order.
    fn method_names(&self) -> &'static [&'static str] {
        <Self::Update as Methods>::NAMES
    }

    /// The method a call belongs to.
    fn method_of(&self, call: &Self::Update) -> MethodId {
        call.method()
    }

    /// Number of update methods.
    fn method_count(&self) -> usize {
        self.method_names().len()
    }

    /// Summarize two calls of a summarization group (§3.3):
    /// returns `c''` with `second ∘ first = c''`, or `None` if the calls
    /// do not summarize.
    ///
    /// The default declares nothing summarizable.
    fn summarize(&self, first: &Self::Update, second: &Self::Update) -> Option<Self::Update> {
        let _ = (first, second);
        None
    }

    /// Whether re-applying a *newer version* of a summary call on top of
    /// a state that already includes an older version yields the same
    /// state as applying only the newer version.
    ///
    /// Holds for idempotent, growing summaries (set-union `add_all`,
    /// last-writer-wins `max`), not for accumulating ones (counter
    /// `add`, account `deposit`). When `true`, replicas maintain their
    /// query view incrementally as summary slots advance; when `false`,
    /// they recompute the view from the stored state and the latest
    /// summaries.
    fn summaries_monotone(&self) -> bool {
        false
    }

    /// The *shard key* of an update call, if it has one: the entity
    /// (bank account, set element, cart line-item) the call operates on.
    ///
    /// Declaring a shard key asserts that two calls of the same
    /// synchronization group with **different** keys commute — the
    /// [`crate::coord::GroupMapper`] then serializes only same-key
    /// calls through the same consensus shard (Lemma 1 per shard),
    /// letting conflicting throughput scale with the shard count. The
    /// bounded analysis validates the assertion by sampling
    /// ([`crate::analysis::Violation::CrossKeyConflict`]).
    ///
    /// Return `None` (the default) for calls that conflict regardless
    /// of key — such calls are pinned to shard 0 of their group.
    fn shard_key(&self, call: &Self::Update) -> Option<u64> {
        let _ = call;
        None
    }

    /// Permissibility `𝒫(σ, c)` (§3.2): the invariant holds in the
    /// post-state of the call, `I(c(σ))`.
    ///
    /// **Precondition: `I(state)`.** Every caller — rule CALL of both
    /// semantics, the runtime's issue paths, the relation checkers —
    /// asks about a state that already has integrity (Lemma 1 keeps it
    /// so), and an override may rely on that.
    ///
    /// The runtime asks this on every update it issues, so its cost is
    /// on the call path. The default evaluates the definition literally:
    /// clone `state`, apply, scan the whole invariant — O(|σ|) per call.
    /// An override should follow the *footprint rule*: given `I(state)`,
    /// the post-state can only violate `I` in the part of the state the
    /// call writes, so check the invariant's clauses over that footprint
    /// alone (the account a withdrawal debits, the two keys an
    /// enrollment references) and answer `true` for invariant-sufficient
    /// calls. The answer must equal `I(apply(state, call))` on every
    /// state with integrity.
    fn permissible(&self, state: &Self::State, call: &Self::Update) -> bool {
        self.invariant(&self.apply(state, call))
    }
}

/// Random generation of states and calls: the one trait a class
/// implements beside [`ObjectSpec`].
///
/// The paper assumes the conflict and dependency relations are given by
/// an upstream analysis (Hamsaz-style); the state-oblivious samplers
/// here are the oracle our bounded checker in [`crate::analysis`] uses
/// to *validate* a declared [`crate::coord::CoordSpec`] against the
/// executable definitions. A workload driver needs two things more:
///
/// * query sampling (the evaluation mixes update and query calls);
/// * *state-aware* update generation — e.g. an OR-set `remove` must
///   target observed elements, a courseware `enroll` must reference a
///   registered student. The default delegates to the oblivious
///   sampler, which suffices for context-free types like counters.
pub trait WorkloadSupport: ObjectSpec {
    /// Sample a reachable-looking state satisfying the invariant.
    fn sample_state(&self, rng: &mut StdRng) -> Self::State;

    /// Sample an update call on the given method.
    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> Self::Update;

    /// Sample a query call.
    fn sample_query(&self, rng: &mut StdRng) -> Self::Query;

    /// Sample an update call on any method.
    fn sample_update(&self, rng: &mut StdRng) -> Self::Update {
        let m = rng.gen_range(0..self.method_count());
        self.sample_update_of(MethodId(m), rng)
    }

    /// Generate an update call on `method` appropriate for `state`.
    ///
    /// `node` and `seq` give the issuing replica and a per-node counter,
    /// letting generators mint collision-free identifiers (e.g. OR-set
    /// tags). Return `None` when no sensible call exists in this state
    /// (e.g. removing from an empty set); the driver will pick another
    /// method.
    ///
    /// Types with a notion of a key (bank accounts, set elements) draw
    /// it uniformly from `rng`, as §5 does.
    fn gen_update(
        &self,
        state: &Self::State,
        node: usize,
        seq: u64,
        method: MethodId,
        rng: &mut StdRng,
    ) -> Option<Self::Update> {
        let _ = (state, node, seq);
        Some(self.sample_update_of(method, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::Account;

    #[test]
    fn permissible_default_matches_invariant_on_post_state() {
        let acc = Account::new(2);
        let s = acc.initial();
        assert!(acc.permissible(&s, &Account::deposit(5)));
        assert!(!acc.permissible(&s, &Account::withdraw(1)));
        let s2 = acc.apply(&s, &Account::deposit(5));
        assert!(acc.permissible(&s2, &Account::withdraw(5)));
        assert!(!acc.permissible(&s2, &Account::withdraw(6)));
    }

    #[test]
    fn method_count_matches_names() {
        let acc = Account::new(2);
        assert_eq!(acc.method_count(), acc.method_names().len());
    }
}
