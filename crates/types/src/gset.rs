//! The grow-only set CRDT (§5).
//!
//! The method `add_all(elements)` inserts a *set* of elements, so two
//! calls summarize by union and the method is **reducible** — exactly
//! the distinction §2 draws: "in a grow-only set that has a contains
//! and an add method (to add an element but not a set), the method add
//! is conflict-free but is not summarizable. On the other hand, if the
//! set object has an add method to add a set, then the add method is
//! summarizable."
//!
//! Figure 9 of the paper additionally runs GSet through buffers instead
//! of summaries ("the methods of GSet are reducible; however, here, we
//! use an implementation that uses buffers instead of summaries") — use
//! [`GSet::coord_spec_buffered`] for that ablation.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::Rng;

use hamband_core::coord::CoordSpec;
use hamband_core::ids::MethodId;
use hamband_core::object::{ObjectSpec, WorkloadSupport};

use crate::sets::{insert_missing, sorted_union};

/// An update call on the grow-only set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GSetUpdate {
    /// `add_all(elements)`: insert a set of elements.
    AddAll(Vec<u64>),
}

hamband_core::calls! {
    untagged GSetUpdate { ADD_ALL = "add_all" => AddAll(elements) }
}

/// A query call on the grow-only set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GSetQuery {
    /// `contains(element)`.
    Contains(u64),
    /// `size()`.
    Size,
}

/// The grow-only set.
///
/// ```
/// use hamband_core::ObjectSpec;
/// use hamband_types::gset::{GSet, GSetUpdate, GSetQuery};
///
/// let g = GSet::default();
/// let s = g.apply(&g.initial(), &GSetUpdate::AddAll(vec![1, 2]));
/// let s = g.apply(&s, &GSetUpdate::AddAll(vec![2, 3]));
/// assert_eq!(g.query(&s, &GSetQuery::Size), 3);
/// assert_eq!(g.query(&s, &GSetQuery::Contains(2)), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GSet {
    element_space: u64,
    max_batch: usize,
}

impl GSet {
    /// A set whose sampler draws up to `max_batch` elements from
    /// `0..element_space` per call.
    pub fn new(element_space: u64, max_batch: usize) -> Self {
        assert!(element_space > 0 && max_batch > 0);
        GSet { element_space, max_batch }
    }

    /// Coordination for the reducible implementation: `add_all`
    /// summarizes by union.
    pub fn coord_spec(&self) -> CoordSpec {
        CoordSpec::builder(1).summarization_group([ADD_ALL.index()]).build()
    }

    /// Coordination for the buffered ablation of Fig. 9: the same
    /// conflict-free method, deliberately *not* declared summarizable,
    /// so calls flow through the `F` buffers.
    pub fn coord_spec_buffered(&self) -> CoordSpec {
        CoordSpec::builder(1).build()
    }
}

impl Default for GSet {
    fn default() -> Self {
        GSet::new(1 << 20, 4)
    }
}

impl ObjectSpec for GSet {
    type State = BTreeSet<u64>;
    type Update = GSetUpdate;
    type Query = GSetQuery;
    type Reply = u64;

    fn name(&self) -> &str {
        "gset"
    }

    fn initial(&self) -> BTreeSet<u64> {
        BTreeSet::new()
    }

    fn invariant(&self, _state: &BTreeSet<u64>) -> bool {
        true
    }

    fn permissible(&self, _state: &BTreeSet<u64>, _call: &GSetUpdate) -> bool {
        true // the invariant is constant: no post-state to build
    }

    fn query(&self, state: &BTreeSet<u64>, query: &GSetQuery) -> u64 {
        match query {
            GSetQuery::Contains(e) => u64::from(state.contains(e)),
            GSetQuery::Size => state.len() as u64,
        }
    }

    fn method_names(&self) -> Vec<&'static str> {
        GSetUpdate::METHOD_NAMES.to_vec()
    }

    fn method_of(&self, call: &GSetUpdate) -> MethodId {
        call.method()
    }

    fn apply_mut(&self, state: &mut BTreeSet<u64>, call: &GSetUpdate) {
        let GSetUpdate::AddAll(elems) = call;
        insert_missing(state, elems);
    }

    fn summaries_monotone(&self) -> bool {
        true
    }

    fn summarize(&self, first: &GSetUpdate, second: &GSetUpdate) -> Option<GSetUpdate> {
        let (GSetUpdate::AddAll(a), GSetUpdate::AddAll(b)) = (first, second);
        Some(GSetUpdate::AddAll(sorted_union(a, b)))
    }
}

impl WorkloadSupport for GSet {
    fn sample_state(&self, rng: &mut StdRng) -> BTreeSet<u64> {
        let n = rng.gen_range(0..20);
        (0..n).map(|_| rng.gen_range(0..self.element_space)).collect()
    }

    fn sample_update_of(&self, method: MethodId, rng: &mut StdRng) -> GSetUpdate {
        assert_eq!(method, ADD_ALL, "gset has a single method");
        let n = rng.gen_range(1..=self.max_batch);
        GSetUpdate::AddAll((0..n).map(|_| rng.gen_range(0..self.element_space)).collect())
    }

    fn sample_query(&self, rng: &mut StdRng) -> GSetQuery {
        if rng.gen_bool(0.5) {
            GSetQuery::Contains(rng.gen_range(0..self.element_space))
        } else {
            GSetQuery::Size
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hamband_core::relations::BoundedRelations;

    #[test]
    fn adds_are_idempotent_and_commutative() {
        let g = GSet::default();
        let r = BoundedRelations::new(&g, 5, 150);
        let a = GSetUpdate::AddAll(vec![1, 2]);
        let b = GSetUpdate::AddAll(vec![2, 3]);
        assert!(r.s_commute(&a, &b));
        assert!(!r.conflict(&a, &b));
        assert!(r.summary_sound(&a, &b));
    }

    #[test]
    fn summarize_unions() {
        let g = GSet::default();
        assert_eq!(
            g.summarize(&GSetUpdate::AddAll(vec![3, 1]), &GSetUpdate::AddAll(vec![2, 1])),
            Some(GSetUpdate::AddAll(vec![1, 2, 3]))
        );
    }

    #[test]
    fn coord_specs_differ_in_category_only() {
        let g = GSet::default();
        assert!(g.coord_spec().category(ADD_ALL).is_reducible());
        assert!(g.coord_spec_buffered().category(ADD_ALL).is_irreducible_free());
    }

    #[test]
    fn queries() {
        let g = GSet::default();
        let s = g.apply(&g.initial(), &GSetUpdate::AddAll(vec![7]));
        assert_eq!(g.query(&s, &GSetQuery::Contains(7)), 1);
        assert_eq!(g.query(&s, &GSetQuery::Contains(8)), 0);
        assert_eq!(g.query(&s, &GSetQuery::Size), 1);
    }
}
