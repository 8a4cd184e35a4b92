//! The op-based Counter CRDT (Shapiro et al., adopted by §5).
//!
//! A single update method `add(delta)` (positive deltas increment,
//! negative decrement), trivially commutative, invariant-free, and
//! summarizable by addition — the canonical **reducible** method. Under
//! Hamband this type never touches a buffer: every call folds into the
//! issuer's summary slot and propagates as one remote write.

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{ObjectSpec, WorkloadSupport};

/// An update call on the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterUpdate {
    /// `add(delta)`: add a (possibly negative) delta.
    Add(i64),
}

hamband_core::calls! {
    untagged CounterUpdate { ADD = "add" => Add(delta) }
}

/// A query call on the counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterQuery {
    /// `value()`: read the current count.
    Value,
}

/// The replicated counter.
///
/// ```
/// use hamband_core::ObjectSpec;
/// use hamband_types::counter::{Counter, CounterUpdate};
///
/// let c = Counter::default();
/// let s = c.apply(&c.initial(), &CounterUpdate::Add(5));
/// let s = c.apply(&s, &CounterUpdate::Add(-2));
/// assert_eq!(s, 3);
/// assert_eq!(c.summarize(&CounterUpdate::Add(5), &CounterUpdate::Add(-2)),
///            Some(CounterUpdate::Add(3)));
/// ```
#[derive(Debug, Clone)]
pub struct Counter {
    max_delta: i64,
}

impl Counter {
    /// A counter whose sampler draws deltas in `-max_delta..=max_delta`.
    pub fn new(max_delta: i64) -> Self {
        assert!(max_delta > 0, "delta bound must be positive");
        Counter { max_delta }
    }

    /// The coordination relations: `add` is conflict-free,
    /// dependence-free, and summarizable — reducible.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(1).summarization_group([ADD.index()]).build()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new(100)
    }
}

impl ObjectSpec for Counter {
    type State = i64;
    type Update = CounterUpdate;
    type Query = CounterQuery;
    type Reply = i64;

    fn name(&self) -> &str {
        "counter"
    }

    fn initial(&self) -> i64 {
        0
    }

    fn invariant(&self, _state: &i64) -> bool {
        true
    }

    fn permissible(&self, _state: &i64, _call: &CounterUpdate) -> bool {
        true // the invariant is constant: no post-state to build
    }

    fn apply_mut(&self, state: &mut i64, call: &CounterUpdate) {
        let CounterUpdate::Add(d) = call;
        *state = state.wrapping_add(*d);
    }

    fn query(&self, state: &i64, _query: &CounterQuery) -> i64 {
        *state
    }

    fn summarize(&self, first: &CounterUpdate, second: &CounterUpdate) -> Option<CounterUpdate> {
        let (CounterUpdate::Add(a), CounterUpdate::Add(b)) = (first, second);
        Some(CounterUpdate::Add(a.wrapping_add(*b)))
    }
}

impl WorkloadSupport for Counter {
    fn sample_state(&self, rng: &mut StdRng) -> i64 {
        rng.gen_range(-self.max_delta * 10..=self.max_delta * 10)
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> CounterUpdate {
        assert_eq!(method, ADD, "counter has a single method");
        let mut d = rng.gen_range(-self.max_delta..=self.max_delta);
        if d == 0 {
            d = 1;
        }
        CounterUpdate::Add(d)
    }

    fn sample_query(&self, _rng: &mut StdRng) -> CounterQuery {
        CounterQuery::Value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::relations::BoundedRelations;
    use rand::SeedableRng;

    #[test]
    fn adds_commute_and_summarize() {
        let c = Counter::default();
        let r = BoundedRelations::new(&c, 1, 200);
        let a = CounterUpdate::Add(5);
        let b = CounterUpdate::Add(-7);
        assert!(r.s_commute(&a, &b));
        assert!(!r.conflict(&a, &b));
        assert!(r.independent(&a, &b));
        assert!(r.summary_sound(&a, &b));
    }

    #[test]
    fn category_is_reducible() {
        let c = Counter::default();
        assert!(c.coord_spec().category(ADD).is_reducible());
    }

    #[test]
    fn sampler_never_yields_zero_delta() {
        let c = Counter::new(3);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let CounterUpdate::Add(d) = c.sample_update_of(ADD, &mut rng);
            assert_ne!(d, 0);
            assert!((-3..=3).contains(&d));
        }
    }

    #[test]
    fn query_reads_value() {
        let c = Counter::default();
        let s = c.apply(&c.initial(), &CounterUpdate::Add(41));
        assert_eq!(c.query(&s, &CounterQuery::Value), 41);
    }
}
